//! Gateway-forwarding boundary tests: the kernel's IPC engine runs
//! unmodified over an internetwork topology — message exchanges, bulk
//! transfers, broadcast name resolution and overload recovery all work
//! across a store-and-forward gateway, purely because the transport
//! beneath the dispatch boundary changed.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{
    Access, Api, Cluster, ClusterConfig, CpuSpeed, HostId, Message, Outcome, Pid, Program, Scope,
};
use v_net::MeshConfig;
use v_sim::SimTime;

type Log = Rc<RefCell<Vec<String>>>;

/// Client segment 0, server segment 1, behind one gateway.
fn gateway_pair(topo: MeshConfig) -> Cluster {
    Cluster::new(
        ClusterConfig::mesh(topo)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 1),
    )
}

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

/// Performs `n` exchanges with `to`, logging each reply's payload word.
struct Exchanger {
    to: Pid,
    n: u32,
    done: u32,
    log: Log,
    finished: Rc<RefCell<Option<SimTime>>>,
}
impl Program for Exchanger {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                let mut m = Message::empty();
                m.set_u32(4, self.done);
                api.send(m, self.to);
            }
            Outcome::Send(Ok(reply)) => {
                self.log
                    .borrow_mut()
                    .push(format!("reply:{}", reply.get_u32(4)));
                self.done += 1;
                if self.done < self.n {
                    let mut m = Message::empty();
                    m.set_u32(4, self.done);
                    api.send(m, self.to);
                } else {
                    *self.finished.borrow_mut() = Some(api.now());
                    api.exit();
                }
            }
            Outcome::Send(Err(e)) => {
                self.log.borrow_mut().push(format!("err:{e:?}"));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Runs `n` exchanges over `cluster` (echo on host 1) and returns the
/// completion instant plus the log.
fn run_exchanges(mut cluster: Cluster, n: u32) -> (Cluster, SimTime, Vec<String>) {
    let echo = cluster.spawn(HostId(1), "echo", Box::new(Echo));
    let log: Log = Default::default();
    let finished = Rc::new(RefCell::new(None));
    cluster.spawn(
        HostId(0),
        "exchanger",
        Box::new(Exchanger {
            to: echo,
            n,
            done: 0,
            log: log.clone(),
            finished: finished.clone(),
        }),
    );
    cluster.run();
    let t = finished.borrow().expect("exchange loop must finish");
    let log = log.borrow().clone();
    (cluster, t, log)
}

#[test]
fn exchanges_cross_the_gateway_with_added_latency() {
    let n = 50;
    let (gw, gw_done, gw_log) = run_exchanges(gateway_pair(MeshConfig::star(2)), n);
    assert_eq!(gw_log.len(), n as usize);
    assert!(gw_log.iter().all(|l| l.starts_with("reply:")), "{gw_log:?}");

    let single = Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz));
    let (_, direct_done, _) = run_exchanges(single, n);

    assert!(
        gw_done > direct_done,
        "store-and-forward must cost time: {gw_done:?} vs {direct_done:?}"
    );
    let g = gw.gateway_stats_total().expect("gateway topology");
    // Two packets per exchange, each crossing the gateway once.
    assert_eq!(g.forwarded, 2 * n as u64);
    assert_eq!(g.queue_drops, 0, "clean run must not overflow the queue");
}

#[test]
fn ipc_handlers_survive_gateway_queue_overflow() {
    // A 1-frame queue with several concurrent exchangers: bursts
    // overflow the gateway, and the retransmission machinery recovers —
    // the IPC layers never know the topology dropped frames.
    let mut topo = MeshConfig::star(2);
    topo.gateway_queue = 1;
    let mut cluster = Cluster::new(
        ClusterConfig::mesh(topo)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 1),
    );
    let echo = cluster.spawn(HostId(3), "echo", Box::new(Echo));
    let mut logs = Vec::new();
    for h in 0..3 {
        let log: Log = Default::default();
        logs.push(log.clone());
        cluster.spawn(
            HostId(h),
            "exchanger",
            Box::new(Exchanger {
                to: echo,
                n: 30,
                done: 0,
                log,
                finished: Rc::new(RefCell::new(None)),
            }),
        );
    }
    cluster.run();
    for log in &logs {
        let log = log.borrow();
        assert_eq!(log.len(), 30, "{log:?}");
        assert!(log.iter().all(|l| l.starts_with("reply:")), "{log:?}");
    }
    let g = cluster.gateway_stats_total().unwrap();
    assert!(g.queue_drops > 0, "the burst must overflow a 1-frame queue");
    let retrans: u64 = (0..3)
        .map(|h| cluster.kernel_stats(HostId(h)).retransmissions)
        .sum();
    assert!(retrans > 0, "recovery must come from retransmission");
}

/// Grants a read segment to a cross-gateway receiver that fetches it
/// with `MoveFrom` — bulk transfer streams through the gateway.
struct SegGranter {
    to: Pid,
    log: Log,
}
impl Program for SegGranter {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(0x1000, 2048, 0x9C).unwrap();
                let mut m = Message::empty();
                m.set_segment(0x1000, 2048, Access::Read);
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

struct SegFetcher {
    log: Log,
    from: Option<Pid>,
}
impl Program for SegFetcher {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.receive(),
            Outcome::Receive { from, .. } => {
                self.from = Some(from);
                api.move_from(from, 0x4000, 0x1000, 2048);
            }
            Outcome::Move(r) => {
                let ok = matches!(r, Ok(2048));
                let data = api.mem_read(0x4000, 2048).unwrap();
                let intact = data.iter().all(|&b| b == 0x9C);
                self.log.borrow_mut().push(format!("move:{ok}:{intact}"));
                let _ = api.reply(Message::empty(), self.from.unwrap());
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

#[test]
fn bulk_transfer_streams_through_the_gateway() {
    let mut cluster = gateway_pair(MeshConfig::star(2));
    let log: Log = Default::default();
    let fetcher = cluster.spawn(
        HostId(1),
        "fetcher",
        Box::new(SegFetcher {
            log: log.clone(),
            from: None,
        }),
    );
    cluster.spawn(
        HostId(0),
        "granter",
        Box::new(SegGranter {
            to: fetcher,
            log: log.clone(),
        }),
    );
    cluster.run();
    let mut log = log.borrow().clone();
    log.sort();
    assert_eq!(log, vec!["move:true:true", "send:true"]);
    assert!(cluster.gateway_stats_total().unwrap().forwarded > 0);
}

/// Registers a logical id on one segment; a process on the other
/// resolves it via broadcast `GetPid` flooded through the gateway.
struct Registrar;
impl Program for Registrar {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.set_pid(77, api.self_pid(), Scope::Both);
                api.receive(); // stay alive to answer the broadcast
            }
            _ => api.exit(),
        }
    }
}

struct Resolver {
    log: Log,
}
impl Program for Resolver {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.get_pid(77, Scope::Both),
            Outcome::GetPid(r) => {
                self.log
                    .borrow_mut()
                    .push(format!("getpid:{}", r.is_some()));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

#[test]
fn broadcast_name_resolution_floods_across_segments() {
    let mut cluster = gateway_pair(MeshConfig::star(2));
    cluster.spawn(HostId(1), "registrar", Box::new(Registrar));
    cluster.run(); // let the registration settle
    let log: Log = Default::default();
    cluster.spawn(
        HostId(0),
        "resolver",
        Box::new(Resolver { log: log.clone() }),
    );
    cluster.run_for(v_sim::SimDuration::from_millis(500));
    assert_eq!(log.borrow().clone(), vec!["getpid:true"]);
}

/// Client on segment 0, echo on the far segment of an `n`-segment line
/// mesh: every hop adds latency, and every gateway on the path forwards.
#[test]
fn exchanges_cross_a_multi_hop_mesh_with_per_hop_latency() {
    let n = 30;
    let line = |segs: usize, far: usize| {
        Cluster::new(
            v_kernel::ClusterConfig::mesh(v_net::MeshConfig::line(segs))
                .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
                .with_host_on(CpuSpeed::Mc68000At8MHz, far),
        )
    };
    let (_, same_done, _) = run_exchanges(line(3, 0), n);
    let (one, one_done, _) = run_exchanges(line(3, 1), n);
    let (two, two_done, log) = run_exchanges(line(3, 2), n);
    assert_eq!(log.len(), n as usize);
    assert!(
        same_done < one_done && one_done < two_done,
        "latency must grow with hop count: {same_done:?} / {one_done:?} / {two_done:?}"
    );

    // Per-gateway accounting: on the 1-hop run only the first gateway
    // works; on the 2-hop run both carry every packet.
    let per = one.gateway_stats();
    assert_eq!(per.len(), 2);
    assert_eq!(per[0].forwarded, 2 * n as u64);
    assert_eq!(per[1].forwarded, 0);
    let per = two.gateway_stats();
    assert_eq!(per[0].forwarded, 2 * n as u64);
    assert_eq!(per[1].forwarded, 2 * n as u64);
    assert_eq!(
        two.gateway_stats_total().unwrap().forwarded,
        4 * n as u64,
        "aggregate sums the per-gateway counters"
    );
}

/// Broadcast `GetPid` resolves across a ring mesh — a topology with a
/// physical loop — because the flood is deduplicated per segment.
#[test]
fn broadcast_name_resolution_survives_a_ring_mesh() {
    let mut cfg = v_kernel::ClusterConfig::mesh(v_net::MeshConfig::ring(4));
    for seg in 0..4 {
        cfg = cfg.with_host_on(CpuSpeed::Mc68000At8MHz, seg);
    }
    let mut cluster = Cluster::new(cfg);
    cluster.spawn(HostId(2), "registrar", Box::new(Registrar));
    cluster.run();
    let log: Log = Default::default();
    cluster.spawn(
        HostId(0),
        "resolver",
        Box::new(Resolver { log: log.clone() }),
    );
    cluster.run_for(v_sim::SimDuration::from_millis(500));
    assert_eq!(log.borrow().clone(), vec!["getpid:true"]);
    // The kernels must not see duplicate queries: each host heard the
    // flooded broadcast exactly once, so nobody filtered duplicates.
    for h in 0..4 {
        assert_eq!(
            cluster.kernel_stats(HostId(h)).duplicates_filtered,
            0,
            "host {h} saw a duplicate flood copy"
        );
    }
}
