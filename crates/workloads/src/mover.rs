//! Standing-grant `MoveTo` / `MoveFrom` loops (the data-transfer rows of
//! Tables 5-1 and 5-2).
//!
//! Measurement shape: a *grantor* sends one message to the *mover*
//! granting read-write access to a buffer, then stays blocked awaiting
//! the reply. The mover performs `n` back-to-back transfers against the
//! standing grant — exactly how the paper isolates the per-`MoveTo` cost
//! from the wrapping message exchange — and finally replies, unblocking
//! the grantor.

use v_kernel::{Access, Api, Message, Outcome, Pid, Program};

use crate::measure::{Probe, RunReport};

/// Which transfer primitive to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveDir {
    /// `MoveTo`: mover pushes into the grantor's buffer.
    To,
    /// `MoveFrom`: mover pulls from the grantor's buffer.
    From,
}

/// Buffer address used in both processes' spaces.
pub const BUF_ADDR: u32 = 0x1000;

/// Grants a buffer to the mover and blocks until it finishes.
pub struct Grantor {
    /// The mover to grant to.
    pub mover: Pid,
    /// Buffer size in bytes.
    pub size: u32,
    /// Fill pattern for `MoveFrom` sources / expected pattern for
    /// `MoveTo` destinations.
    pub pattern: u8,
    /// Direction under test (decides which side verifies content).
    pub dir: MoveDir,
    /// Integrity errors detected are recorded here.
    pub report: Probe<RunReport>,
}

impl Program for Grantor {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(BUF_ADDR, self.size as usize, self.pattern)
                    .expect("buffer fits");
                let mut m = Message::empty();
                m.set_segment(BUF_ADDR, self.size, Access::ReadWrite);
                api.send(m, self.mover);
            }
            Outcome::Send(Ok(_)) => {
                if self.dir == MoveDir::To {
                    // The mover pushed `!pattern`; verify it landed.
                    let intact = api.mem_is_filled(BUF_ADDR, self.size as usize, !self.pattern);
                    if !intact.expect("fits") {
                        self.report.borrow_mut().integrity_errors += 1;
                    }
                }
                api.exit();
            }
            _ => {
                self.report.borrow_mut().failures += 1;
                api.exit();
            }
        }
    }
}

/// Receives the grant, performs `n` transfers, then replies.
pub struct Mover {
    /// Transfers to perform.
    pub n: u64,
    /// Bytes per transfer.
    pub size: u32,
    /// Direction under test.
    pub dir: MoveDir,
    /// Pattern expectations (see [`Grantor::pattern`]).
    pub pattern: u8,
    /// Where results accumulate.
    pub report: Probe<RunReport>,
    grantor: Option<Pid>,
    done: u64,
}

impl Mover {
    /// Creates a mover for `n` transfers of `size` bytes.
    pub fn new(n: u64, size: u32, dir: MoveDir, pattern: u8, report: Probe<RunReport>) -> Mover {
        Mover {
            n,
            size,
            dir,
            pattern,
            report,
            grantor: None,
            done: 0,
        }
    }

    fn next_op(&self, api: &mut Api<'_>) {
        let g = self.grantor.expect("grant received");
        match self.dir {
            MoveDir::To => api.move_to(g, BUF_ADDR, BUF_ADDR, self.size),
            MoveDir::From => api.move_from(g, BUF_ADDR, BUF_ADDR, self.size),
        }
    }
}

impl Program for Mover {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                // Source data for MoveTo: complement of the fill pattern.
                api.mem_fill(BUF_ADDR, self.size as usize, !self.pattern)
                    .expect("buffer fits");
                api.receive();
            }
            Outcome::Receive { from, .. } => {
                self.grantor = Some(from);
                self.report.borrow_mut().started = Some(api.now());
                self.next_op(api);
            }
            Outcome::Move(Ok(_)) => {
                self.done += 1;
                self.report.borrow_mut().iterations += 1;
                if self.done < self.n {
                    self.next_op(api);
                } else {
                    if self.dir == MoveDir::From {
                        let intact = api.mem_is_filled(BUF_ADDR, self.size as usize, self.pattern);
                        if !intact.expect("fits") {
                            self.report.borrow_mut().integrity_errors += 1;
                        }
                    }
                    self.report.borrow_mut().finished = Some(api.now());
                    let _ = api.reply(Message::empty(), self.grantor.expect("set"));
                    api.exit();
                }
            }
            Outcome::Move(Err(_)) => {
                let mut r = self.report.borrow_mut();
                r.failures += 1;
                r.finished = Some(api.now());
                drop(r);
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::probe;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};

    fn run_move(dir: MoveDir, remote: bool, size: u32, n: u64) -> (f64, RunReport) {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
        let mut cl = Cluster::new(cfg);
        let rep = probe(RunReport::default());
        let mover = cl.spawn(
            HostId(0),
            "mover",
            Box::new(Mover::new(n, size, dir, 0x5A, rep.clone())),
        );
        let ghost = if remote { HostId(1) } else { HostId(0) };
        cl.spawn(
            ghost,
            "grantor",
            Box::new(Grantor {
                mover,
                size,
                pattern: 0x5A,
                dir,
                report: rep.clone(),
            }),
        );
        cl.run();
        let r = rep.borrow().clone();
        (r.per_op_ms(), r)
    }

    #[test]
    fn local_moveto_1024() {
        let (ms, r) = run_move(MoveDir::To, false, 1024, 50);
        assert!(r.clean(), "{r:?}");
        // Paper: 1.26 ms at 8 MHz.
        assert!((ms - 1.26).abs() < 0.1, "local MoveTo = {ms:.3}");
    }

    #[test]
    fn local_movefrom_1024() {
        let (ms, r) = run_move(MoveDir::From, false, 1024, 50);
        assert!(r.clean(), "{r:?}");
        assert!((ms - 1.26).abs() < 0.1, "local MoveFrom = {ms:.3}");
    }

    #[test]
    fn remote_moveto_1024_delivers_data() {
        let (ms, r) = run_move(MoveDir::To, true, 1024, 50);
        assert!(r.clean(), "{r:?}");
        // Paper: 9.05 ms at 8 MHz; pinned tightly by the calibration test.
        assert!((7.0..11.0).contains(&ms), "remote MoveTo = {ms:.3}");
    }

    #[test]
    fn remote_movefrom_1024_delivers_data() {
        let (ms, r) = run_move(MoveDir::From, true, 1024, 50);
        assert!(r.clean(), "{r:?}");
        assert!((7.0..11.0).contains(&ms), "remote MoveFrom = {ms:.3}");
    }
}
