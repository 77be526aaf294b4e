//! The network-penalty measurement (Table 4-1).
//!
//! "The network penalty is obtained by measuring the time to transmit n
//! bytes from the main memory of one workstation to the main memory of
//! another and vice versa and dividing the total time for the experiment
//! by 2. ... The transfers are implemented at the data link layer and at
//! the interrupt level so that no protocol or process switching overhead
//! appears in the results."
//!
//! Implemented as a pair of raw handlers below the IPC layer: a
//! [`RawLoop`] — the one raw closed loop, which the WFS-style baseline
//! also runs — sends an n-byte datagram, the [`PenaltyReflector`]
//! bounces it, `n` round trips are timed and halved.

use v_kernel::raw::{RawCtx, RawHandler};
use v_net::{EtherType, Frame, MacAddr};

use crate::measure::{run_raw_pair, Probe, RunReport};

/// A raw closed loop: sends `request` to `peer` on its kick-off timer and
/// again on every reply until `target` replies are in.
pub struct RawLoop {
    /// Peer station.
    pub peer: MacAddr,
    /// Sent each round; raw frames carry no checksum, so only its
    /// length reaches the measurement.
    pub request: Vec<u8>,
    /// Length a reply must have; any other counts as an integrity error.
    pub reply_len: usize,
    /// Round trips requested.
    pub target: u64,
    /// Round trips completed (`iterations`), from the first transmission
    /// to the last reception, and replies of the wrong length.
    pub report: Probe<RunReport>,
}

impl RawHandler for RawLoop {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        let mut r = self.report.borrow_mut();
        if frame.payload.len() != self.reply_len {
            r.integrity_errors += 1;
        }
        r.iterations += 1;
        r.finished = Some(ctx.now());
        let done = r.iterations;
        drop(r);
        if done < self.target {
            ctx.send_frame(self.peer, self.request.clone());
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, _token: u64) {
        // Kick-off: record the start and launch the first datagram.
        self.report.borrow_mut().started = Some(ctx.now());
        ctx.send_frame(self.peer, self.request.clone());
    }
}

/// Reflecting side: bounce every datagram straight back.
pub struct PenaltyReflector;

impl RawHandler for PenaltyReflector {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        let back = frame.src;
        ctx.send_frame(back, frame.payload.to_vec());
    }

    fn on_timer(&mut self, _ctx: &mut dyn RawCtx, _token: u64) {}
}

/// Runs the Table 4-1 experiment for one datagram size on `cluster`
/// hosts 0 and 1; returns the measured one-way penalty in ms — per the
/// paper's definition, total / 2n — and the round trips' report.
pub fn measure_penalty(
    cluster: &mut v_kernel::Cluster,
    size: usize,
    rounds: u64,
) -> (f64, Probe<RunReport>) {
    let (ms, report) = run_raw_pair(
        cluster,
        EtherType::RAW_BENCH,
        Box::new(PenaltyReflector),
        |peer, report| {
            Box::new(RawLoop {
                peer,
                request: vec![0xA5; size],
                reply_len: size,
                target: rounds,
                report,
            })
        },
    );
    (ms / 2.0, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_kernel::{Cluster, ClusterConfig, CostModel, CpuSpeed};
    use v_net::{NetParams, Topology};

    #[test]
    fn measured_penalty_matches_analytic_model() {
        for (cpu, n) in [
            (CpuSpeed::Mc68000At8MHz, 64usize),
            (CpuSpeed::Mc68000At8MHz, 1024),
            (CpuSpeed::Mc68000At10MHz, 512),
        ] {
            let cfg = ClusterConfig::three_mb().with_hosts(2, cpu);
            let Topology::SingleSegment(kind) = cfg.topology else {
                unreachable!("the paper's cluster is one Ethernet segment");
            };
            let mut cl = Cluster::new(cfg);
            let (ms, st) = measure_penalty(&mut cl, n, 200);
            assert_eq!(st.borrow().integrity_errors, 0);
            let model = CostModel::for_speed(cpu)
                .network_penalty(&NetParams::for_kind(kind), n)
                .as_millis_f64();
            let err = (ms - model).abs() / model;
            assert!(err < 0.02, "n={n}: measured {ms:.3} vs model {model:.3}");
        }
    }

    #[test]
    fn penalty_8mhz_matches_paper_values() {
        // Table 4-1, 8 MHz column.
        for (n, paper) in [
            (64usize, 0.80),
            (128, 1.20),
            (256, 2.00),
            (512, 3.65),
            (1024, 6.95),
        ] {
            let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
            let mut cl = Cluster::new(cfg);
            let (ms, _) = measure_penalty(&mut cl, n, 200);
            let err = (ms - paper).abs() / paper;
            assert!(err < 0.10, "n={n}: measured {ms:.3} vs paper {paper}");
        }
    }
}
