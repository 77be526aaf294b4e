//! # The Distributed V Kernel
//!
//! A from-scratch reproduction of the system described in:
//!
//! > D. R. Cheriton and W. Zwaenepoel, *The Distributed V Kernel and its
//! > Performance for Diskless Workstations*, SOSP 1983.
//!
//! The V kernel is a message-oriented kernel providing **uniform local and
//! network interprocess communication**: small fixed-size (32-byte)
//! messages with synchronous `Send`/`Receive`/`Reply`, separate bulk data
//! transfer (`MoveTo`/`MoveFrom`), and the segment extensions
//! (`ReceiveWithSegment`/`ReplyWithSegment`) that make page-level file
//! access take the minimal two packets. Remote operations are implemented
//! directly in the kernel on the raw data-link layer; the reply message of
//! every exchange doubles as its acknowledgement, so reliable exchanges
//! ride on unreliable datagrams with no extra transport layer.
//!
//! This crate contains the kernel and the simulated hardware it runs on
//! (processors with a calibrated 1983-era cost model; the network substrate
//! lives in `v-net`). The public surface:
//!
//! * [`Cluster`] — build a simulated network of diskless workstations,
//!   spawn processes, run the event loop;
//! * [`Program`] / [`Api`] / [`Outcome`] — write V processes;
//! * [`Message`], [`Pid`], [`Scope`], [`KernelError`] — the kernel
//!   vocabulary;
//! * [`CostModel`] / [`CpuSpeed`] — the calibrated timing constants;
//! * [`raw::RawHandler`] — attach specialized protocols below the IPC
//!   layer (used by the baseline comparators of `v-baselines`).
//!
//! ## Example
//!
//! ```
//! use v_kernel::{Api, Cluster, ClusterConfig, CpuSpeed, Message, Outcome, Pid, Program};
//!
//! /// Replies to every message with the same payload.
//! struct Echo;
//! impl Program for Echo {
//!     fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
//!         match outcome {
//!             Outcome::Started => api.receive(),
//!             Outcome::Receive { from, msg } => {
//!                 api.reply(msg, from).unwrap();
//!                 api.receive();
//!             }
//!             _ => api.exit(),
//!         }
//!     }
//! }
//!
//! /// Sends one message to the echo server, then exits.
//! struct Client { server: Pid }
//! impl Program for Client {
//!     fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
//!         match outcome {
//!             Outcome::Started => {
//!                 let mut m = Message::empty();
//!                 m.set_u32(4, 42);
//!                 api.send(m, self.server);
//!             }
//!             Outcome::Send(Ok(reply)) => {
//!                 assert_eq!(reply.get_u32(4), 42);
//!                 api.exit();
//!             }
//!             _ => api.exit(),
//!         }
//!     }
//! }
//!
//! let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
//! let mut cluster = Cluster::new(cfg);
//! let server = cluster.spawn(v_kernel::HostId(0), "echo", Box::new(Echo));
//! cluster.spawn(v_kernel::HostId(1), "client", Box::new(Client { server }));
//! cluster.run();
//! ```

pub mod addrspace;
pub mod aliens;
mod api;
pub mod cluster;
pub mod config;
pub mod costs;
pub mod cpu;
mod ctx;
pub mod error;
pub mod event;
mod fanout;
pub mod hostmap;
mod ipc;
pub mod message;
pub mod naming;
pub mod pcb;
pub mod pid;
pub mod program;
pub mod raw;
pub mod segment;
pub mod slab;
pub mod stats;

mod host;

pub use addrspace::AddressSpace;
pub use api::Api;
pub use cluster::Cluster;
pub use config::{ClusterConfig, Encapsulation, HostConfig, ProtocolConfig};
pub use costs::CostModel;
pub use cpu::{Cpu, CpuSpeed};
pub use error::KernelError;
pub use event::HostId;
pub use hostmap::AddressingMode;
pub use message::{Message, MSG_LEN};
pub use naming::{logical, Scope};
pub use pid::{LogicalHost, Pid};
pub use program::{Outcome, Program};
pub use segment::{Access, SegmentGrant};
pub use stats::KernelStats;
