//! Simulated Ethernet substrate.
//!
//! The paper runs the V kernel over two local networks:
//!
//! * the 3 Mb **experimental Ethernet** (2.94 Mb/s) with a programmed-I/O
//!   interface and 8-bit station addresses, and
//! * the 10 Mb **standard Ethernet** with a slightly faster interface.
//!
//! This crate models the pieces of those networks that the paper's
//! evaluation actually depends on:
//!
//! * per-byte wire time at the physical bit rate;
//! * a shared medium — one transmission at a time, others defer (CSMA);
//! * fixed network + interface latency per frame;
//! * a **single-buffered transmit interface**: the processor cannot start
//!   copying the next frame into the interface until the previous frame
//!   has left it (this is what caps bulk-data throughput at ~192 KB/s in
//!   Table 6-3);
//! * broadcast and unicast addressing;
//! * fault injection — per-frame loss, duplication and corruption with a
//!   seeded RNG — used to exercise the kernel's reliability machinery;
//! * the §5.4 *collision-detection hardware bug* mode, where transmissions
//!   that collide with a busy medium are occasionally corrupted instead of
//!   cleanly deferred.
//!
//! Processor copy costs (memory ↔ interface) are charged by the kernel's
//! cost model, not here: they depend on the CPU speed, and the paper's
//! network-penalty analysis splits them out explicitly.
//!
//! Beyond the paper's single segment, the crate exposes a pluggable
//! [`Transport`] boundary: the shared [`Ethernet`] is one implementation,
//! [`PointToPointLink`] models a lossy WAN line, and [`Internetwork`]
//! joins Ethernet segments through a routed mesh of store-and-forward
//! gateways ([`MeshConfig`]: shortest-path tables computed at build
//! time, bounded per-gateway queues, loop-free broadcast flooding; the
//! PR 3 single-gateway star is [`MeshConfig::star`]). A [`Topology`]
//! value describes which to build.

pub mod fault;
pub mod frame;
pub mod internet;
pub mod link;
pub mod medium;
pub mod nic;
pub mod sink;
pub mod transport;

pub use fault::FaultPlan;
pub use frame::{EtherType, Frame, MacAddr};
pub use internet::{
    gateway_mac, is_gateway_mac, Internetwork, MeshConfig, GATEWAY_MAC_FIRST, GATEWAY_MAC_LAST,
    MAX_GATEWAYS,
};
pub use link::{LinkParams, PointToPointLink};
pub use medium::{CollisionBug, Delivery, Ethernet, MediumStats, NetParams, NetworkKind, TxWindow};
pub use nic::Nic;
pub use sink::{DeliverySink, StationRun};
pub use transport::{GatewayStats, Topology, Transport};
