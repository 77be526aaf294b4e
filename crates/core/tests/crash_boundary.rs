//! Crash-boundary tests: the host fault model at the IPC layer.
//!
//! The paper's protocol already contains its failure detector — "the
//! kernel retransmits a limited number of times before declaring the
//! operation to have failed". These tests pin the semantics around a
//! crashed host: every blocking primitive aimed at it *resolves* (a
//! reply, a [`KernelError::HostDown`], or a bulk-transfer
//! [`KernelError::Timeout`]) — nothing hangs; a second failure is cheap
//! (the suspect probe budget); and a restarted host rejoins cleanly
//! (re-registration plus suspicion reprieve on first contact).

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{
    Access, Api, Cluster, ClusterConfig, CpuSpeed, HostId, KernelError, Message, Outcome, Pid,
    Program, Scope,
};
use v_net::MeshConfig;
use v_sim::SimTime;

type Log = Rc<RefCell<Vec<String>>>;

/// Echoes every message back, forever.
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

/// Echo that also registers logical id 77 (scope `Both`) at startup.
struct RegisteredEcho;
impl Program for RegisteredEcho {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.set_pid(77, api.self_pid(), Scope::Both);
                api.receive();
            }
            Outcome::Receive { from, msg } => {
                let _ = api.reply(msg, from);
                api.receive();
            }
            _ => api.exit(),
        }
    }
}

/// Sends one message to `to` and logs how it resolved.
struct OneShot {
    to: Pid,
    log: Log,
}
impl Program for OneShot {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.send(Message::empty(), self.to),
            Outcome::Send(Ok(_)) => {
                self.log.borrow_mut().push("ok".into());
                api.exit();
            }
            Outcome::Send(Err(e)) => {
                self.log.borrow_mut().push(format!("err:{e:?}"));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Resolves logical id 77 by broadcast, then does one exchange with it.
struct ResolveAndCall {
    log: Log,
}
impl Program for ResolveAndCall {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.get_pid(77, Scope::Both),
            Outcome::GetPid(Some(pid)) => api.send(Message::empty(), pid),
            Outcome::GetPid(None) => {
                self.log.borrow_mut().push("unresolved".into());
                api.exit();
            }
            Outcome::Send(r) => {
                self.log.borrow_mut().push(format!("send_ok:{}", r.is_ok()));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

fn pair() -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz))
}

/// A `Send` to a crashed host must resolve to `HostDown` after the
/// retransmission budget — never hang — and the frames it threw at the
/// dead interface are dropped and counted, not delivered.
#[test]
fn send_to_crashed_host_resolves_host_down_instead_of_hanging() {
    let mut cl = pair();
    let echo = cl.spawn(HostId(1), "echo", Box::new(Echo));
    cl.run();
    cl.crash_host(HostId(1));

    let log: Log = Default::default();
    let t0 = cl.now();
    cl.spawn(
        HostId(0),
        "oneshot",
        Box::new(OneShot {
            to: echo,
            log: log.clone(),
        }),
    );
    cl.run(); // terminating at all is the no-hang assertion
    assert_eq!(log.borrow().clone(), vec!["err:HostDown"]);

    let s0 = cl.kernel_stats(HostId(0));
    assert_eq!(s0.host_down_failures, 1);
    assert_eq!(
        s0.peer_suspicions, 1,
        "the failed budget marks the peer suspect"
    );
    // The failure took the whole budget: max_retries x 200 ms.
    let waited = cl.now().since(t0);
    assert!(
        waited >= v_sim::SimDuration::from_millis(2400),
        "HostDown must come from budget exhaustion, not early: {waited:?}"
    );
    // The dead interface counted the frames it refused to hear.
    assert!(cl.kernel_stats(HostId(1)).frames_dropped_down > 0);
    let _ = KernelError::HostDown; // the variant these tests pin
}

/// Once a peer is suspect, the next failure is cheap: the reduced
/// probe budget (`ProtocolConfig::SUSPECT_RETRIES`) resolves in a fraction of the full
/// ladder. Fail-fast, exactly once per exchange attempt.
#[test]
fn second_send_to_a_suspect_peer_fails_fast() {
    let mut cl = pair();
    let echo = cl.spawn(HostId(1), "echo", Box::new(Echo));
    cl.run();
    cl.crash_host(HostId(1));

    let full_log: Log = Default::default();
    let t0 = cl.now();
    cl.spawn(
        HostId(0),
        "first",
        Box::new(OneShot {
            to: echo,
            log: full_log.clone(),
        }),
    );
    cl.run();
    let full_budget = cl.now().since(t0);

    let fast_log: Log = Default::default();
    let t1 = cl.now();
    cl.spawn(
        HostId(0),
        "second",
        Box::new(OneShot {
            to: echo,
            log: fast_log.clone(),
        }),
    );
    cl.run();
    let probe_budget = cl.now().since(t1);

    assert_eq!(full_log.borrow().clone(), vec!["err:HostDown"]);
    assert_eq!(fast_log.borrow().clone(), vec!["err:HostDown"]);
    assert!(
        probe_budget < full_budget / 4,
        "suspect probe {probe_budget:?} must be far cheaper than the full budget {full_budget:?}"
    );
    let s0 = cl.kernel_stats(HostId(0));
    assert!(s0.sends_to_suspect >= 1);
    assert_eq!(
        s0.peer_suspicions, 1,
        "suspicion is recorded once, not per send"
    );
}

/// A restarted host is an empty kernel: stale pids get a clean Nack
/// (`NonexistentProcess`, immediately — the host answers, so no budget
/// wait), re-registration makes the service findable again, and the
/// first frame heard from the reborn host lifts the suspicion.
#[test]
fn restart_reregisters_and_lifts_suspicion() {
    let mut cl = pair();
    let old = cl.spawn(HostId(1), "svc", Box::new(RegisteredEcho));
    cl.run();
    cl.crash_host(HostId(1));

    // Fail against the dead host: builds the suspicion.
    let log: Log = Default::default();
    cl.spawn(
        HostId(0),
        "fail",
        Box::new(OneShot {
            to: old,
            log: log.clone(),
        }),
    );
    cl.run();
    assert_eq!(log.borrow().clone(), vec!["err:HostDown"]);

    cl.restart_host(HostId(1));
    cl.spawn(HostId(1), "svc", Box::new(RegisteredEcho));
    cl.run();

    // A stale pid resolves immediately now that the host answers again.
    let stale: Log = Default::default();
    let t0 = cl.now();
    cl.spawn(
        HostId(0),
        "stale",
        Box::new(OneShot {
            to: old,
            log: stale.clone(),
        }),
    );
    cl.run();
    assert_eq!(stale.borrow().clone(), vec!["err:NonexistentProcess"]);
    assert!(
        cl.now().since(t0) < v_sim::SimDuration::from_millis(2400),
        "a live host Nacks stale pids without burning the budget"
    );

    // Fresh resolution + exchange work; hearing the host again lifted
    // the suspicion (the Nack itself is evidence of life).
    let log2: Log = Default::default();
    cl.spawn(
        HostId(0),
        "resolve",
        Box::new(ResolveAndCall { log: log2.clone() }),
    );
    cl.run();
    assert_eq!(log2.borrow().clone(), vec!["send_ok:true"]);
    let s0 = cl.kernel_stats(HostId(0));
    assert!(
        s0.peer_reprieves >= 1,
        "suspicion must lift on contact: {s0:?}"
    );
}

// ---------------------------------------------------------------------
// Bulk transfers across a dying gateway.
// ---------------------------------------------------------------------

const MOVE_LEN: u32 = 64 * 1024;

/// Grants a 64 KB read segment to `to` and logs how the Send resolves.
struct BigGranter {
    to: Pid,
    log: Log,
}
impl Program for BigGranter {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(0x1000, MOVE_LEN as usize, 0x9C).unwrap();
                let mut m = Message::empty();
                m.set_segment(0x1000, MOVE_LEN, Access::Read);
                api.send(m, self.to);
            }
            Outcome::Send(r) => {
                self.log.borrow_mut().push(format!("send:{}", r.is_ok()));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Fetches the granted segment with one `MoveFrom`, logging the result
/// (and whether the bytes landed intact on success).
struct BigFetcher {
    log: Log,
    from: Option<Pid>,
}
impl Program for BigFetcher {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.receive(),
            Outcome::Receive { from, .. } => {
                self.from = Some(from);
                api.move_from(from, 0x20000, 0x1000, MOVE_LEN);
            }
            Outcome::Move(r) => {
                match r {
                    Ok(n) => {
                        let data = api.mem_read(0x20000, n as usize).unwrap();
                        let intact = data.iter().all(|&b| b == 0x9C);
                        self.log.borrow_mut().push(format!("move:ok:{intact}"));
                        let _ = api.reply(Message::empty(), self.from.unwrap());
                    }
                    Err(e) => {
                        self.log.borrow_mut().push(format!("move:err:{e:?}"));
                        // Reply anyway: it vanishes into the partition,
                        // which is fine — replies are fire-and-forget.
                        let _ = api.reply(Message::empty(), self.from.unwrap());
                    }
                }
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Granter on segment 0, fetcher on segment 1 of a two-segment
/// internetwork, with the transfer started before the gateway dies.
fn start_cross_gateway_move() -> (Cluster, Log) {
    let mut cl = Cluster::new(
        ClusterConfig::mesh(MeshConfig::star(2))
            .with_host_on(CpuSpeed::Mc68000At10MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At10MHz, 1),
    );
    let log: Log = Default::default();
    let fetcher = cl.spawn(
        HostId(1),
        "fetcher",
        Box::new(BigFetcher {
            log: log.clone(),
            from: None,
        }),
    );
    cl.spawn(
        HostId(0),
        "granter",
        Box::new(BigGranter {
            to: fetcher,
            log: log.clone(),
        }),
    );
    // 64 KB over a 3 Mb segment takes well over 100 ms: at 20 ms the
    // grant has crossed and the MoveFrom stream is mid-flight.
    cl.run_until(SimTime::from_millis(20));
    (cl, log)
}

/// A gateway outage *during* a MoveFrom heals: the stall timer
/// re-requests from the last in-order byte once the gateway returns,
/// and the transfer completes intact within its retry budget.
#[test]
fn in_flight_move_from_recovers_when_the_gateway_returns() {
    let (mut cl, log) = start_cross_gateway_move();
    assert!(cl.fail_gateway(0), "gateway 0 must exist and be up");
    cl.run_until(SimTime::from_millis(150));
    assert!(cl.restore_gateway(0));
    cl.run();
    let mut l = log.borrow().clone();
    l.sort();
    assert_eq!(l, vec!["move:ok:true", "send:true"]);
    assert!(
        cl.kernel_stats(HostId(1)).transfer_resumes > 0,
        "recovery must have come through the stall timer"
    );
}

/// A permanent partition mid-transfer: the fetcher's `MoveFrom` fails
/// with the bulk-transfer `Timeout` once its stall budget is spent, the
/// granter's `Send` fails with `HostDown` once its budget is spent —
/// and both sides run to quiescence. No blocking primitive hangs.
#[test]
fn in_flight_move_from_fails_cleanly_across_a_permanent_partition() {
    let (mut cl, log) = start_cross_gateway_move();
    assert!(cl.fail_gateway(0));
    cl.run(); // termination is the assertion
    let mut l = log.borrow().clone();
    l.sort();
    assert_eq!(l, vec!["move:err:Timeout", "send:false"]);
    assert_eq!(cl.kernel_stats(HostId(0)).host_down_failures, 1);
}
