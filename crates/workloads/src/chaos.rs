//! The chaos scenario harness: replayable fault schedules.
//!
//! The paper's evaluation assumes every workstation stays up; the
//! interesting questions about a diskless-workstation deployment start
//! when one doesn't. A [`FaultSchedule`] is a small DSL over a
//! [`v_sim::EventQueue`] composing *timed* fault events — host crash and
//! restart, gateway failure and repair, fault-plan swaps (loss bursts,
//! full partitions) — that [`run_with_faults`] replays against a live
//! cluster deterministically: the cluster runs to each scheduled
//! instant, the fault is applied, and the run continues. Two runs of the
//! same seed and schedule are bit-for-bit identical.
//!
//! ```
//! use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
//! use v_sim::SimTime;
//! use v_workloads::chaos::{Fault, FaultSchedule};
//!
//! let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz));
//! let schedule = FaultSchedule::new()
//!     .crash_at(SimTime::from_millis(50), HostId(1))
//!     .restart_at(SimTime::from_millis(400), HostId(1));
//! v_workloads::chaos::run_with_faults(&mut cl, schedule);
//! assert!(cl.host_is_up(HostId(1)));
//! ```

use v_kernel::{Cluster, HostId};
use v_net::FaultPlan;
use v_sim::{EventQueue, SimTime};

/// One externally injected fault (or repair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Crash a host: its kernel state is lost and its interface goes
    /// silent ([`Cluster::crash_host`]).
    CrashHost(HostId),
    /// Restart a crashed host with an empty kernel
    /// ([`Cluster::restart_host`]). Scenarios respawn services
    /// themselves — the kernel does not remember what ran before.
    RestartHost(HostId),
    /// Take a mesh gateway out of service; routes recompute without it
    /// and the mesh may partition ([`Cluster::fail_gateway`]).
    FailGateway(usize),
    /// Return a mesh gateway to service ([`Cluster::restore_gateway`]).
    RestoreGateway(usize),
    /// Swap the transport's fault plan — a lossy period, a corruption
    /// burst, or (with loss 1.0) a full partition of the medium.
    SetFaults(FaultPlan),
    /// Heal the medium: restore the empty fault plan.
    ClearFaults,
}

/// A replayable, time-ordered script of [`Fault`] events.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    queue: EventQueue<Fault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds an arbitrary fault at `at`. Events may be added in any
    /// order; they replay in time order, ties in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last event popped.
    pub fn at(mut self, at: SimTime, fault: Fault) -> FaultSchedule {
        self.queue.schedule(at, fault);
        self
    }

    /// Sugar: crash `host` at `at`.
    pub fn crash_at(self, at: SimTime, host: HostId) -> FaultSchedule {
        self.at(at, Fault::CrashHost(host))
    }

    /// Sugar: restart `host` at `at`.
    pub fn restart_at(self, at: SimTime, host: HostId) -> FaultSchedule {
        self.at(at, Fault::RestartHost(host))
    }

    /// Number of events remaining.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Removes and returns the earliest remaining event.
    pub fn pop(&mut self) -> Option<(SimTime, Fault)> {
        self.queue.pop()
    }
}

/// Applies one fault to the cluster, immediately.
pub fn apply_fault(cl: &mut Cluster, fault: Fault) {
    match fault {
        Fault::CrashHost(h) => cl.crash_host(h),
        Fault::RestartHost(h) => cl.restart_host(h),
        Fault::FailGateway(g) => {
            cl.fail_gateway(g);
        }
        Fault::RestoreGateway(g) => {
            cl.restore_gateway(g);
        }
        Fault::SetFaults(plan) => cl.set_faults(plan),
        Fault::ClearFaults => cl.set_faults(FaultPlan::NONE),
    }
}

/// Replays `schedule` against `cl`: runs the cluster up to each event's
/// instant, applies it, then runs the remainder to quiescence.
///
/// Events scheduled in the past (before `cl.now()`) apply immediately,
/// in order — a schedule is a script, not a promise of exact instants
/// once the cluster has already run past them.
pub fn run_with_faults(cl: &mut Cluster, mut schedule: FaultSchedule) {
    while let Some((at, fault)) = schedule.pop() {
        if at > cl.now() {
            cl.run_until(at);
        }
        apply_fault(cl, fault);
    }
    cl.run();
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_kernel::{Api, ClusterConfig, CpuSpeed, Message, Outcome, Program};

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn two_hosts() -> Cluster {
        Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz))
    }

    #[test]
    fn pops_in_time_order_regardless_of_insertion_order() {
        let mut sched = FaultSchedule::new()
            .at(ms(30), Fault::FailGateway(3))
            .at(ms(10), Fault::FailGateway(1))
            .at(ms(20), Fault::FailGateway(2));
        assert_eq!(sched.len(), 3);
        assert_eq!(sched.pop(), Some((ms(10), Fault::FailGateway(1))));
        assert_eq!(sched.pop(), Some((ms(20), Fault::FailGateway(2))));
        assert_eq!(sched.pop(), Some((ms(30), Fault::FailGateway(3))));
        assert_eq!(sched.pop(), None);
        assert!(sched.is_empty());
    }

    #[test]
    fn equal_instants_keep_insertion_order() {
        let mut sched = FaultSchedule::new()
            .at(ms(5), Fault::FailGateway(1))
            .at(ms(5), Fault::FailGateway(2))
            .at(ms(1), Fault::FailGateway(0))
            .at(ms(5), Fault::FailGateway(3));
        let order: Vec<Fault> = std::iter::from_fn(|| sched.pop()).map(|(_, f)| f).collect();
        assert_eq!(order, (0..4).map(Fault::FailGateway).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_replays_in_time_order() {
        let mut sched = FaultSchedule::new()
            .restart_at(SimTime::from_millis(20), HostId(1))
            .crash_at(SimTime::from_millis(10), HostId(1));
        assert_eq!(sched.len(), 2);
        let (t1, f1) = sched.pop().unwrap();
        assert_eq!(
            (t1, f1),
            (SimTime::from_millis(10), Fault::CrashHost(HostId(1)))
        );
        let (t2, f2) = sched.pop().unwrap();
        assert_eq!(
            (t2, f2),
            (SimTime::from_millis(20), Fault::RestartHost(HostId(1)))
        );
        assert!(sched.is_empty());
    }

    #[test]
    fn crash_and_restart_apply_at_their_instants() {
        let mut cl = two_hosts();
        let sched = FaultSchedule::new()
            .crash_at(SimTime::from_millis(5), HostId(1))
            .restart_at(SimTime::from_millis(50), HostId(1));
        run_with_faults(&mut cl, sched);
        assert!(cl.host_is_up(HostId(1)));
        assert_eq!(cl.kernel_stats(HostId(1)).crashes, 1);
        assert_eq!(cl.kernel_stats(HostId(1)).restarts, 1);
    }

    #[test]
    fn identical_seed_and_schedule_replay_identically() {
        // A ping-pong pair under a mid-run crash: both runs must land on
        // exactly the same counters at exactly the same instants.
        struct Echo;
        impl Program for Echo {
            fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
                match outcome {
                    Outcome::Started => api.receive(),
                    Outcome::Receive { from, msg } => {
                        let _ = api.reply(msg, from);
                        api.receive();
                    }
                    _ => api.exit(),
                }
            }
        }
        struct Caller {
            to: v_kernel::Pid,
            left: u32,
        }
        impl Program for Caller {
            fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
                match outcome {
                    Outcome::Started | Outcome::Send(Ok(_)) if self.left > 0 => {
                        self.left -= 1;
                        api.send(Message::empty(), self.to);
                    }
                    _ => api.exit(),
                }
            }
        }
        let run = || {
            let mut cl = two_hosts();
            let server = cl.spawn(HostId(1), "echo", Box::new(Echo));
            cl.spawn(
                HostId(0),
                "caller",
                Box::new(Caller {
                    to: server,
                    left: 500,
                }),
            );
            let sched = FaultSchedule::new().crash_at(SimTime::from_millis(40), HostId(1));
            run_with_faults(&mut cl, sched);
            (
                cl.now(),
                cl.kernel_stats(HostId(0)).host_down_failures,
                cl.kernel_stats(HostId(0)).retransmissions,
                cl.medium_stats().frames_sent,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "replay must be deterministic");
        assert!(a.1 >= 1, "the caller must notice the crash: {a:?}");
    }

    #[test]
    fn partition_heals_on_schedule() {
        // An exchange issued inside the partition window is lost, but
        // the retransmission after the heal completes it.
        struct Echo;
        impl Program for Echo {
            fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
                match outcome {
                    Outcome::Started => api.receive(),
                    Outcome::Receive { from, msg } => {
                        let _ = api.reply(msg, from);
                        api.exit();
                    }
                    _ => api.exit(),
                }
            }
        }
        struct Once {
            to: v_kernel::Pid,
        }
        impl Program for Once {
            fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
                match outcome {
                    Outcome::Started => api.send(Message::empty(), self.to),
                    Outcome::Send(r) => {
                        assert!(r.is_ok(), "exchange must survive the healed partition");
                        api.exit();
                    }
                    _ => api.exit(),
                }
            }
        }
        let mut cl = two_hosts();
        let server = cl.spawn(HostId(1), "echo", Box::new(Echo));
        cl.spawn(HostId(0), "once", Box::new(Once { to: server }));
        // A partition of the whole medium over [0, 30 ms): loss 1.0, then
        // the empty plan.
        let sched = FaultSchedule::new()
            .at(SimTime::ZERO, Fault::SetFaults(FaultPlan::with_loss(1.0)))
            .at(SimTime::from_millis(30), Fault::ClearFaults);
        run_with_faults(&mut cl, sched);
        assert!(cl.kernel_stats(HostId(0)).retransmissions >= 1);
        assert_eq!(cl.kernel_stats(HostId(0)).host_down_failures, 0);
    }
}
