//! Workload programs and the measurement harness.
//!
//! Every table in the paper is driven by a small test program pair; this
//! crate reproduces them:
//!
//! * [`echo`] — `Send-Receive-Reply` ping-pong (Tables 5-1/5-2, §5.4);
//! * [`mover`] — standing-grant `MoveTo`/`MoveFrom` loops (Tables
//!   5-1/5-2);
//! * [`page`] — one page server and one page client for every file-access
//!   measurement: random 512-byte page reads and writes in the segment
//!   and basic Thoth forms (Table 6-1), sequential reads from a
//!   read-ahead server (Table 6-2), 64 KB program loads in `MoveTo`
//!   transfer units (Table 6-3, §8) and the 90/10 capacity mix of
//!   diskless workstations (§7);
//! * [`penalty`] — the interrupt-level raw-datagram ping-pong defining
//!   the network penalty (Table 4-1), on the one raw closed loop the
//!   WFS-style baseline also runs;
//! * [`multipair`] — concurrent exchange pairs for the multi-process
//!   traffic study (§5.4);
//! * [`boot`] — the boot storm: N diskless hosts loading an image off
//!   sharded file servers at once;
//! * [`measure`] — probes and per-operation accounting in the style of
//!   the paper's methodology (N-trial loops; processor time from
//!   busy-time deltas, the exact quantity the original "busywork
//!   process" estimated) and the one procedure every raw-protocol
//!   measurement runs;
//! * [`chaos`] — replayable fault schedules (host crash/restart,
//!   gateway failure, lossy periods and partitions) that scenarios and
//!   benches inject deterministically mid-run.

pub mod boot;
pub mod chaos;
pub mod echo;
pub mod measure;
pub mod mover;
pub mod multipair;
pub mod page;
pub mod penalty;

pub use measure::{probe, Probe, RunReport};
