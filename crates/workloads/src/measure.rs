//! Measurement probes and reports.
//!
//! Workload programs are moved into the cluster, so the harness observes
//! them through shared [`Probe`] handles (`Rc<RefCell<_>>` — the simulator
//! is single-threaded by design). Each benchmark program records its
//! start/finish instants and iteration count; the harness combines those
//! with host CPU busy-time deltas to produce per-operation elapsed and
//! processor times, exactly the quantities the paper reports.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::raw::RawHandler;
use v_kernel::{Cluster, HostId};
use v_net::{EtherType, MacAddr};
use v_sim::{SimDuration, SimTime};

/// Shared handle between the harness and a workload program.
pub type Probe<T> = Rc<RefCell<T>>;

/// Creates a probe.
pub fn probe<T>(value: T) -> Probe<T> {
    Rc::new(RefCell::new(value))
}

/// Completion record a benchmark program fills in.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// When the measured loop started.
    pub started: Option<SimTime>,
    /// When the measured loop finished.
    pub finished: Option<SimTime>,
    /// Iterations completed.
    pub iterations: u64,
    /// Operations that failed (should be 0 on a healthy network).
    pub failures: u64,
    /// Free-form payload check errors detected by the program.
    pub integrity_errors: u64,
    /// Deliberate loop overhead (e.g. decorrelation jitter) to subtract
    /// from the elapsed time — the paper's "subtracting loop overhead and
    /// other artifact".
    pub deducted: SimDuration,
    /// Completed page requests (reads and writes).
    pub pages: u64,
    /// Completed program loads.
    pub loads: u64,
    /// Summed issue→reply time of the page requests (ms).
    pub page_ms_total: f64,
    /// Summed issue→reply time of the loads (ms).
    pub load_ms_total: f64,
}

impl RunReport {
    /// Total elapsed time of the measured loop.
    ///
    /// # Panics
    ///
    /// Panics if the loop did not complete — tests should assert
    /// completion explicitly first for a better message.
    pub fn elapsed(&self) -> SimDuration {
        let s = self.started.expect("loop never started");
        let f = self.finished.expect("loop never finished");
        f.since(s)
    }

    /// Elapsed time per iteration, in milliseconds, with deliberate loop
    /// overhead subtracted.
    pub fn per_op_ms(&self) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        self.elapsed().saturating_sub(self.deducted).as_millis_f64() / self.iterations as f64
    }

    /// True if the loop ran to completion without failures.
    pub fn clean(&self) -> bool {
        self.finished.is_some() && self.failures == 0 && self.integrity_errors == 0
    }

    /// Mean page response time (ms).
    pub fn page_ms(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.page_ms_total / self.pages as f64
        }
    }

    /// Mean load response time (ms).
    pub fn load_ms(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_ms_total / self.loads as f64
        }
    }

    /// Completed requests of either kind.
    pub fn requests(&self) -> u64 {
        self.pages + self.loads
    }
}

/// Snapshot of one host's processor accounting.
#[derive(Debug, Clone, Copy)]
pub struct CpuSnapshot {
    host: HostId,
    busy: SimDuration,
}

impl CpuSnapshot {
    /// Takes a snapshot of `host`'s charged processor time.
    pub fn take(cluster: &Cluster, host: HostId) -> CpuSnapshot {
        CpuSnapshot {
            host,
            busy: cluster.cpu_busy(host),
        }
    }

    /// Processor time charged since this snapshot.
    pub fn delta(&self, cluster: &Cluster) -> SimDuration {
        cluster.cpu_busy(self.host).saturating_sub(self.busy)
    }

    /// Processor time per operation since this snapshot, in milliseconds.
    pub fn per_op_ms(&self, cluster: &Cluster, ops: u64) -> f64 {
        if ops == 0 {
            return 0.0;
        }
        self.delta(cluster).as_millis_f64() / ops as f64
    }
}

/// The one procedure of every raw-protocol measurement: `server` on
/// host 1 and the client `client` builds (from host 1's station and a
/// fresh report) on host 0, under `ethertype`; the client is poked at
/// time zero and the cluster runs to quiescence. Returns ms/op and the
/// report.
pub fn run_raw_pair(
    cluster: &mut Cluster,
    ethertype: EtherType,
    server: Box<dyn RawHandler>,
    client: impl FnOnce(MacAddr, Probe<RunReport>) -> Box<dyn RawHandler>,
) -> (f64, Probe<RunReport>) {
    let report = probe(RunReport::default());
    let peer = cluster.mac(HostId(1));
    cluster.register_raw_handler(HostId(1), ethertype, server);
    cluster.register_raw_handler(HostId(0), ethertype, client(peer, report.clone()));
    cluster.poke_raw_handler(HostId(0), ethertype, 0, SimDuration::ZERO);
    cluster.run();
    let ms = report.borrow().per_op_ms();
    (ms, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_accounting() {
        let mut r = RunReport {
            started: Some(SimTime::from_millis(10)),
            finished: Some(SimTime::from_millis(110)),
            iterations: 100,
            ..RunReport::default()
        };
        assert!((r.per_op_ms() - 1.0).abs() < 1e-9);
        assert!(r.clean());
        r.failures = 1;
        assert!(!r.clean());
    }

    #[test]
    fn zero_iterations_is_zero_per_op() {
        let r = RunReport {
            started: Some(SimTime::ZERO),
            finished: Some(SimTime::from_millis(5)),
            ..RunReport::default()
        };
        assert_eq!(r.per_op_ms(), 0.0);
    }
}
