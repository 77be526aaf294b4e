//! The layered IPC engine.
//!
//! Every kernel protocol concern lives in its own module, all as
//! `impl` blocks on the shared [`crate::ctx::Ctx`] split borrow:
//!
//! * [`dispatch`] — the receive boundary: frame → decoded packet →
//!   typed handler, raw-protocol fan-out, and blocking-syscall dispatch;
//! * [`send_recv`] — the Send/Receive/Reply message exchange, including
//!   the alien admission path, the receiver pump and the one
//!   blocked-peer rule every other primitive asks first;
//! * [`forward`] — the `Forward` primitive: rebinding a received
//!   exchange to another server process (receptionist/worker teams),
//!   locally and across kernels;
//! * [`transfer`] — `MoveTo`/`MoveFrom` bulk transfer: the same-host
//!   move and the one stream engine (chunk sender, in-order-and-in-bounds
//!   reassembly, acknowledgements) over the host's two transfer tables;
//! * [`naming`] — `GetPid` broadcast resolution;
//! * [`timers`] — retransmission, transfer-stall and housekeeping
//!   timers.
//!
//! Packet bodies arrive here already typed ([`v_wire::PacketBody`],
//! decoded exactly once in [`dispatch`]): each `handle_*` method takes
//! one body struct, never loose header words.

pub(crate) mod dispatch;
pub(crate) mod forward;
pub(crate) mod naming;
pub(crate) mod send_recv;
pub(crate) mod timers;
pub(crate) mod transfer;
