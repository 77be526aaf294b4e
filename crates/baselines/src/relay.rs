//! The process-level network-server architecture (§3, implementation
//! issue 1).
//!
//! "Remote operations are implemented directly in the kernel instead of
//! through a process-level network server. ... The alternative approach
//! whereby the kernel relays a remote request to a network server who
//! then proceeds to write the packet out on the network incurs a heavy
//! penalty in extra copying and process switching. (We measured a factor
//! of four increase in the remote message exchange time.)"
//!
//! This module builds that rejected architecture: a relay process on each
//! workstation, aimed at its next hop. A client sends to its *local*
//! relay; the relay forwards over the network to the far relay (itself a
//! full kernel-level remote exchange); the far relay delivers to the
//! target with another local exchange, and replies flow back the same
//! way, untouched, so the client is the plain `Pinger` of the direct
//! exchange and its echo check covers the relay path. On top of the two
//! extra local exchanges, each relay charges user-level packet handling
//! (buffer copies in and out of the server's address space, queue
//! management) per hop — [`RELAY_HANDLING_8MHZ`], calibrated so the
//! composite lands at the paper's observed ~4x. The structural hops are
//! modeled exactly; only the per-hop copying constant is fitted, since
//! the paper reports no breakdown of its prototype.

use v_kernel::{Api, Cluster, ClusterConfig, CpuSpeed, HostId, Message, Outcome, Pid, Program};
use v_sim::SimDuration;
use v_workloads::echo::{EchoServer, Pinger};
use v_workloads::measure::{probe, RunReport};

/// User-level packet handling cost per relay traversal at 8 MHz (both
/// directions pass both relays, so four traversals per exchange).
pub const RELAY_HANDLING_8MHZ: SimDuration = SimDuration::from_micros(1750);

/// Relay handling cost scaled for a CPU grade.
pub fn relay_handling(speed: CpuSpeed) -> SimDuration {
    match speed {
        CpuSpeed::Mc68000At8MHz => RELAY_HANDLING_8MHZ,
        CpuSpeed::Mc68000At10MHz => {
            SimDuration::from_nanos((RELAY_HANDLING_8MHZ.as_nanos() as f64 * 0.77) as u64)
        }
    }
}

/// A user-level network server: forwards each message, unchanged, to its
/// next hop and shuttles the reply back.
pub struct Relay {
    /// Next hop: the far relay on the client's side, the target on the
    /// far side.
    pub next: Pid,
    /// Per-traversal user-level handling cost.
    pub handling: SimDuration,
    client: Option<Pid>,
    buffered: Option<Message>,
    phase: Phase,
}

/// Which user-level copy the relay is currently charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Copying the request into the server's buffers before forwarding.
    CopyIn,
    /// Copying the reply out of the server's buffers before replying.
    CopyOut,
}

impl Relay {
    /// Creates a relay; `next` as in [`Relay::next`].
    pub fn new(next: Pid, handling: SimDuration) -> Relay {
        Relay {
            next,
            handling,
            client: None,
            buffered: None,
            phase: Phase::CopyIn,
        }
    }
}

impl Program for Relay {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.receive(),
            Outcome::Receive { from, msg } => {
                // Buffer the packet into our space, then forward.
                self.client = Some(from);
                self.buffered = Some(msg);
                self.phase = Phase::CopyIn;
                api.compute(self.handling);
            }
            Outcome::Compute => match self.phase {
                Phase::CopyIn => {
                    let msg = self.buffered.take().expect("request buffered");
                    api.send(msg, self.next);
                }
                Phase::CopyOut => {
                    let reply = self.buffered.take().expect("reply buffered");
                    let client = self.client.take().expect("have client");
                    let _ = api.reply(reply, client);
                    api.receive();
                }
            },
            Outcome::Send(Ok(reply)) => {
                // Copy the reply back out through our buffers.
                self.buffered = Some(reply);
                self.phase = Phase::CopyOut;
                api.compute(self.handling);
            }
            // The hop failed: exit, so the kernel fails the blocked client's
            // `Send` (a local sender) or Nacks it (a remote one) with the
            // error a direct exchange would have seen, not a forged reply.
            Outcome::Send(Err(_)) => api.exit(),
            _ => api.receive(),
        }
    }
}

/// Measures `n` relayed exchanges on a 2-host cluster; returns ms/op.
pub fn measure_relayed_exchange(speed: CpuSpeed, n: u64) -> f64 {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed));
    let target = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
    let r = run_relayed(&mut cl, speed, target, n);
    assert!(r.clean(), "{r:?}");
    r.per_op_ms()
}

/// Runs `n` echo exchanges from a `Pinger` on host 0 to `target` on
/// host 1 through a relay on each host, and returns the pinger's report.
fn run_relayed(cl: &mut Cluster, speed: CpuSpeed, target: Pid, n: u64) -> RunReport {
    let handling = relay_handling(speed);
    let far_relay = cl.spawn(HostId(1), "relay-b", Box::new(Relay::new(target, handling)));
    let near_relay = cl.spawn(
        HostId(0),
        "relay-a",
        Box::new(Relay::new(far_relay, handling)),
    );
    cl.run();
    let rep = probe(RunReport::default());
    cl.spawn(
        HostId(0),
        "relayed-ping",
        Box::new(Pinger::new(near_relay, n, rep.clone())),
    );
    cl.run();
    rep.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relayed_exchange_is_several_times_slower() {
        let relayed = measure_relayed_exchange(CpuSpeed::Mc68000At8MHz, 200);
        // Direct kernel-level remote exchange is ~3.18 ms; the paper
        // measured ~4x through a process-level network server.
        let factor = relayed / 3.18;
        assert!(
            (3.0..5.0).contains(&factor),
            "relay factor = {factor:.2} ({relayed:.2} ms)"
        );
    }

    /// A process that exits as soon as it starts, leaving a dead pid.
    struct Quit;

    impl Program for Quit {
        fn resume(&mut self, api: &mut Api<'_>, _: Outcome) {
            api.exit();
        }
    }

    #[test]
    fn a_failed_hop_fails_the_clients_send() {
        let speed = CpuSpeed::Mc68000At10MHz;
        let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed));
        let dead = cl.spawn(HostId(1), "quit", Box::new(Quit));
        cl.run();
        let r = run_relayed(&mut cl, speed, dead, 3);
        assert_eq!(
            (r.iterations, r.failures, r.integrity_errors),
            (0, 1, 0),
            "{r:?}"
        );
    }
}
