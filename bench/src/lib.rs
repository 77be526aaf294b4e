//! The repository's benchmark: six workloads, two clocks, and per-layer
//! numbers taken from outside the crates.
//!
//! Nothing here reaches into the system under test. Every number comes from
//! timing calls into the crates' public functions, from reading their
//! public stats structs, or from [`probe::Probe`], a transparent wrapper
//! around a client program. `README.md` has the metric, workload and
//! interaction tables; `../BENCHMARK.json` is the contract the acceptance
//! driver reads.
//!
//! * [`deploy`] — the six deployments and their seeded inputs;
//! * [`probe`] — the wrapper and its stamps;
//! * [`run`] — the run procedure and the metrics;
//! * [`micro`] — single-layer host-clock microbenchmarks;
//! * [`report`] — rows, result sets, `agree` and the baseline diff;
//! * [`stats`], [`json`] — percentiles and just enough JSON;
//! * [`cli`] — the command line.

pub mod cli;
pub mod deploy;
pub mod json;
pub mod micro;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
