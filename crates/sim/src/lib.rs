//! Deterministic discrete-event simulation engine.
//!
//! This crate provides the substrate on which the whole V kernel
//! reproduction runs:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time;
//! * [`EventQueue`] — a time-ordered event queue with deterministic
//!   tie-breaking (events scheduled at the same instant pop in scheduling
//!   order), exposing engine throughput counters as [`SimStats`] (the
//!   chaos harness writes its fault schedules on one too);
//! * [`SplitMix64`] — a tiny, fast, seedable PRNG used for fault injection
//!   and workload generation so every run is reproducible;
//! * [`FixedMap`] — a `HashMap` under a fixed, seedless hasher, for maps
//!   keyed by the simulation's own integers: the same order in every
//!   process, and no SipHash on a hot path.
//!
//! The engine is intentionally single-threaded: the paper's evaluation
//! depends on precise ordering of sub-millisecond events across simulated
//! hosts, and determinism is worth far more here than parallel speedup.

pub mod hash;
pub mod queue;
pub mod rng;
pub mod time;

pub use hash::{FixedHasher, FixedMap};
pub use queue::{EventQueue, SimStats};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
