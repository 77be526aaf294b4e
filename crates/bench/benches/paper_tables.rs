//! Criterion benches: one group per paper table/figure.
//!
//! Criterion measures the *simulator's* wall-clock throughput while it
//! regenerates each experiment — the reproduced 1983 timings themselves
//! are simulated time and live in the experiment outputs
//! (`cargo run -p v-bench -- all`) and EXPERIMENTS.md. Keeping every
//! table under `cargo bench` ensures the whole harness stays runnable
//! and performance-tracked.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use v_kernel::{
    AddressSpace, Api, Cluster, ClusterConfig, CpuSpeed, HostId, Outcome, Program, Scope,
};
use v_net::{
    Delivery, DeliverySink, EtherType, Frame, MacAddr, NetworkKind, StationRun, Topology, Transport,
};
use v_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use v_wire::{
    decode, decode_ref, encode, encode_with, MoveToData, Packet, PacketBody, ReplyBody, SendBody,
};
use v_workloads::echo::{EchoServer, Pinger};
use v_workloads::measure::probe;
use v_workloads::mover::{Grantor, MoveDir, Mover};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer, IMAGE, MIX_PATTERN};
use v_workloads::penalty::measure_penalty;

fn pair(speed: CpuSpeed) -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed))
}

fn bench_table_4_1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_4_1_network_penalty");
    g.sample_size(20);
    g.bench_function("penalty_1024B_300_rounds", |b| {
        b.iter(|| {
            let mut cl = pair(CpuSpeed::Mc68000At8MHz);
            let (ms, _) = measure_penalty(&mut cl, 1024, 300);
            assert!(ms > 0.0);
        })
    });
    g.finish();
}

fn bench_table_5(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_5_kernel_ops");
    g.sample_size(20);
    g.bench_function("remote_srr_1000_exchanges", |b| {
        b.iter(|| {
            let mut cl = pair(CpuSpeed::Mc68000At8MHz);
            let server = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
            let rep = probe(Default::default());
            cl.spawn(
                HostId(0),
                "ping",
                Box::new(Pinger::new(server, 1000, rep.clone())),
            );
            cl.run();
            assert!(rep.borrow().clean());
        })
    });
    g.bench_function("remote_moveto_1024B_300_ops", |b| {
        b.iter(|| {
            let mut cl = pair(CpuSpeed::Mc68000At8MHz);
            let rep = probe(Default::default());
            let mover = cl.spawn(
                HostId(0),
                "mover",
                Box::new(Mover::new(300, 1024, MoveDir::To, 0x5A, rep.clone())),
            );
            cl.spawn(
                HostId(1),
                "grantor",
                Box::new(Grantor {
                    mover,
                    size: 1024,
                    pattern: 0x5A,
                    dir: MoveDir::To,
                    report: rep.clone(),
                }),
            );
            cl.run();
            assert!(rep.borrow().clean());
        })
    });
    g.finish();
}

fn bench_table_6_1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_6_1_page_access");
    g.sample_size(20);
    g.bench_function("remote_page_read_500_ops", |b| {
        b.iter(|| {
            let mut cl = pair(CpuSpeed::Mc68000At10MHz);
            let rep = probe(Default::default());
            let server = cl.spawn(
                HostId(1),
                "pageserver",
                Box::new(PageServer::new(PageMode::Segment, 512, 0x7E, rep.clone())),
            );
            cl.spawn(
                HostId(0),
                "client",
                Box::new(PageClient::new(
                    server,
                    PageOp::Read,
                    512,
                    500,
                    0x7E,
                    rep.clone(),
                )),
            );
            cl.run();
            assert!(rep.borrow().clean());
        })
    });
    g.finish();
}

fn bench_table_6_2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_6_2_sequential");
    g.sample_size(20);
    g.bench_function("seq_read_200_pages_disk15ms", |b| {
        b.iter(|| {
            let mut cl = pair(CpuSpeed::Mc68000At10MHz);
            let rep = probe(Default::default());
            let server = cl.spawn(
                HostId(1),
                "seq",
                Box::new(
                    PageServer::new(PageMode::Segment, 512, 0x22, rep.clone())
                        .with_read_ahead(SimDuration::from_millis(15)),
                ),
            );
            cl.spawn(
                HostId(0),
                "reader",
                Box::new(PageClient::new(
                    server,
                    PageOp::Read,
                    512,
                    200,
                    0x22,
                    rep.clone(),
                )),
            );
            cl.run();
            assert!(rep.borrow().clean());
        })
    });
    g.finish();
}

fn bench_table_6_3(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_6_3_program_loading");
    g.sample_size(10);
    g.bench_function("remote_64KB_load_16KB_units", |b| {
        b.iter(|| {
            let mut cl = pair(CpuSpeed::Mc68000At8MHz);
            let rep = probe(Default::default());
            let server = cl.spawn(
                HostId(1),
                "loadserver",
                Box::new(
                    PageServer::new(PageMode::Segment, IMAGE, 0x42, rep.clone())
                        .with_transfer_unit(16384),
                ),
            );
            cl.spawn(
                HostId(0),
                "loadclient",
                Box::new(PageClient::new(
                    server,
                    PageOp::Load,
                    IMAGE,
                    5,
                    0x42,
                    rep.clone(),
                )),
            );
            cl.run();
            assert!(rep.borrow().clean());
        })
    });
    g.finish();
}

fn bench_section_5_4(c: &mut Criterion) {
    let mut g = c.benchmark_group("section_5_4_multipair");
    g.sample_size(10);
    g.bench_function("two_pairs_500_exchanges_bug_mode", |b| {
        b.iter(|| {
            let mut cfg = ClusterConfig::three_mb().with_hosts(4, CpuSpeed::Mc68000At8MHz);
            cfg.collision_bug = Some(v_net::CollisionBug::PAPER_3MB);
            let mut cl = Cluster::new(cfg);
            let res =
                v_workloads::multipair::run_pairs(&mut cl, 2, 500, SimDuration::from_millis(1));
            assert!(res.mean_per_op_ms > 0.0);
        })
    });
    g.finish();
}

fn bench_section_7(c: &mut Criterion) {
    let mut g = c.benchmark_group("section_7_fileserver");
    g.sample_size(10);
    g.bench_function("five_workstations_mixed_load", |b| {
        b.iter(|| {
            let cfg = ClusterConfig::three_mb().with_hosts(6, CpuSpeed::Mc68000At10MHz);
            let mut cl = Cluster::new(cfg);
            let rep = probe(Default::default());
            let server = cl.spawn(
                HostId(0),
                "server",
                Box::new(
                    PageServer::new(PageMode::Segment, IMAGE, MIX_PATTERN, rep)
                        .with_transfer_unit(16384)
                        .with_fs_cpu(SimDuration::from_millis_f64(3.5)),
                ),
            );
            for i in 0..5 {
                cl.spawn(
                    HostId(i + 1),
                    "ws",
                    Box::new(PageClient::mix(
                        server,
                        30,
                        SimDuration::from_millis(300),
                        i as u64 + 1,
                        probe(Default::default()),
                    )),
                );
            }
            cl.run();
        })
    });
    g.finish();
}

fn bench_section_8(c: &mut Criterion) {
    let mut g = c.benchmark_group("section_8_ten_mb");
    g.sample_size(20);
    g.bench_function("ten_mb_remote_srr_1000", |b| {
        b.iter(|| {
            let mut cl =
                Cluster::new(ClusterConfig::ten_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz));
            let server = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
            let rep = probe(Default::default());
            cl.spawn(
                HostId(0),
                "ping",
                Box::new(Pinger::new(server, 1000, rep.clone())),
            );
            cl.run();
            assert!(rep.borrow().clean());
        })
    });
    g.finish();
}

/// Asks every other kernel for a logical id nobody registered, then
/// exits when the broadcasts have gone unanswered.
struct Asker;

impl Program for Asker {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.get_pid(0xDEAD, Scope::Remote),
            _ => api.exit(),
        }
    }
}

/// Takes a transport's output the way the kernel's sink does: a run is
/// one entry, however many stations it reaches.
#[derive(Default)]
struct RunSink {
    entries: usize,
    receivers: usize,
}

impl DeliverySink for RunSink {
    fn deliver(&mut self, d: Delivery) {
        black_box(d);
        self.entries += 1;
        self.receivers += 1;
    }

    fn deliver_run(&mut self, run: StationRun) {
        self.entries += 1;
        self.receivers += run.receivers().count();
        black_box(run);
    }
}

/// The layers a boot storm spends its wall-clock in per head (ROADMAP
/// open item 1): the transport's fan-out to every station — into a
/// `Vec<Delivery>`, which writes a record per receiver, and into a sink
/// that takes runs whole, as the kernel's does — the kernel's batch
/// dispatch of one arrival to every receiver, and the spawn of every
/// workstation's process.
fn bench_fanout(c: &mut Criterion) {
    const STATIONS: usize = 1000;
    let mut g = c.benchmark_group("fanout");
    g.sample_size(20);
    let segment = || {
        let mut net = Topology::SingleSegment(NetworkKind::Experimental3Mb).build(1);
        for i in 0..STATIONS {
            net.attach(HostId(i).station_mac(), 0);
        }
        net
    };
    let payload: std::rc::Rc<[u8]> = std::rc::Rc::from([0xAB; 64]);
    let broadcast = |net: &mut dyn Transport, now: &mut SimTime, out: &mut dyn DeliverySink| {
        let src = HostId(0).station_mac();
        let frame = Frame::new(
            MacAddr::BROADCAST,
            src,
            EtherType::INTERKERNEL,
            payload.clone(),
        );
        *now = net.transmit(*now, frame, out).tx_end;
    };
    g.bench_function("transport_transmit_1000_stations", |b| {
        let mut net = segment();
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        b.iter(|| {
            out.clear();
            broadcast(net.as_mut(), &mut now, &mut out);
            assert_eq!(out.len(), STATIONS - 1);
        })
    });
    g.bench_function("transport_transmit_1000_stations_run_sink", |b| {
        let mut net = segment();
        let mut now = SimTime::ZERO;
        b.iter(|| {
            let mut out = RunSink::default();
            broadcast(net.as_mut(), &mut now, &mut out);
            // The sender is the first station: everyone else is one run.
            assert_eq!((out.entries, out.receivers), (1, STATIONS - 1));
        })
    });
    g.bench_function("getpid_broadcast_dispatch_1000_hosts", |b| {
        let cfg = ClusterConfig::three_mb().with_hosts(STATIONS, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        b.iter(|| {
            // Every `GetPidReq` broadcast (the first and its retries) is
            // one queued arrival decoded once and dispatched to 999
            // kernels, none of which answers.
            let before = cl.events_dispatched();
            cl.spawn_with_space(HostId(0), "asker", Box::new(Asker), 1024);
            cl.run();
            assert!(cl.events_dispatched() - before >= (STATIONS - 1) as u64);
        })
    });
    // What the storm's set-up pays per process, shaped like the storm:
    // one default-size process on each of 1000 hosts of a cluster built
    // outside the timing. `fresh` keeps every sample's cluster alive, so
    // each spawns into memory the allocator has not handed out before —
    // a benchmark's cold repetition; `after_drop` spawns when the sample
    // before it has just been dropped — every repetition but the first.
    // With flat `vec![0; 256 KB]` spaces a thousand spawns cost 3-4 ms in
    // a process that had never dropped a cluster and 70 ms in one that
    // had (as this one has, so both rows read 60-70 ms, `fresh` touching
    // 256 MB a sample — hence the few samples); a page table costs under
    // a millisecond either way.
    g.sample_size(10);
    let empty_cluster =
        || Cluster::new(ClusterConfig::three_mb().with_hosts(STATIONS, CpuSpeed::Mc68000At10MHz));
    let spawn_1000 = |mut cl: Cluster| {
        for h in 0..STATIONS {
            cl.spawn(HostId(h), "echo", Box::new(EchoServer));
        }
        cl
    };
    g.bench_function("spawn_1000_fresh", |b| {
        let mut kept = Vec::new();
        b.iter_batched(
            empty_cluster,
            |cl| kept.push(spawn_1000(cl)),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("spawn_1000_after_drop", |b| {
        drop(spawn_1000(empty_cluster()));
        b.iter_batched(empty_cluster, spawn_1000, BatchSize::PerIteration)
    });
    g.finish();
}

/// The codec: every packet is encoded once and decoded once, and both
/// passes sum every byte. One sample is a batch: a single call is
/// shorter than the clock's resolution. The owned `encode` / `decode`
/// rows copy the data from and into a body's `Vec`; the two `space` rows
/// are the kernel's own path for a page reply — the segment gathered
/// from an `AddressSpace` straight into the packet (`encode_with`), and
/// read in place out of it into another space (`decode_ref`).
fn bench_codec(c: &mut Criterion) {
    const BATCH: usize = 10_000;
    let packet = |body| Packet {
        seq: 7,
        src_pid: 0x0001_0002,
        dst_pid: 0x0002_0003,
        body,
    };
    let packets = [
        (
            "send_64B",
            packet(PacketBody::Send(SendBody {
                msg: [0x5A; 32],
                appended: Vec::new(),
                appended_from: 0,
            })),
        ),
        (
            "reply_page_576B",
            packet(PacketBody::Reply(ReplyBody {
                msg: [0x5A; 32],
                seg_dest: 0x2000,
                seg: vec![0x7E; 512],
            })),
        ),
        (
            "move_to_data_544B",
            packet(PacketBody::MoveToData(MoveToData {
                dest: 0x2000,
                offset: 0,
                total: 4096,
                last: false,
                data: vec![0x7E; 512],
            })),
        ),
    ];
    let mut g = c.benchmark_group("codec");
    g.sample_size(20);
    for (name, p) in &packets {
        g.bench_function(&format!("encode_{name}_x{BATCH}"), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    black_box(encode(black_box(p)));
                }
            })
        });
        let bytes = encode(p);
        g.bench_function(&format!("decode_{name}_x{BATCH}"), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    black_box(decode(black_box(&bytes)).expect("well-formed"));
                }
            })
        });
    }

    const PAGE: u32 = 0x2000;
    let mut replier = AddressSpace::new(AddressSpace::DEFAULT_SIZE);
    replier.fill(PAGE, 512, 0x7E).expect("the page fits");
    let head = packet(PacketBody::Reply(ReplyBody {
        msg: [0x5A; 32],
        seg_dest: PAGE,
        seg: Vec::new(),
    }));
    let gather = |space: &AddressSpace| {
        encode_with(&head, 512, |data| space.read_into(PAGE, data)).expect("the page fits")
    };
    g.bench_function(
        &format!("encode_with_reply_page_576B_from_space_x{BATCH}"),
        |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    black_box(gather(black_box(&replier)));
                }
            })
        },
    );
    let bytes = gather(&replier);
    let mut client = AddressSpace::new(AddressSpace::DEFAULT_SIZE);
    g.bench_function(
        &format!("decode_ref_reply_page_576B_into_space_x{BATCH}"),
        |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let (p, data) = decode_ref(black_box(&bytes)).expect("well-formed");
                    let PacketBody::Reply(reply) = p.body else {
                        unreachable!("a reply")
                    };
                    client.write(reply.seg_dest, data).expect("the page fits");
                }
                black_box(&client);
            })
        },
    );
    g.finish();
}

/// The event queue (ROADMAP open item 1(d)): under the hold model — every
/// popped event schedules one successor a random interval later, so the
/// depth stays where it started — and under traffic shaped like the
/// two-host exchange's.
fn bench_event_queue(c: &mut Criterion) {
    const BATCH: usize = 100_000;
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(20);
    for depth in [1usize, 1_000, 64_000] {
        let mut rng = SplitMix64::new(depth as u64);
        let mut q = EventQueue::new();
        for i in 0..depth {
            q.schedule(SimTime::from_nanos(rng.below(1_000_000)), i as u64);
        }
        g.bench_function(&format!("pop_push_depth_{depth}_x{BATCH}"), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let (at, ev) = q.pop().expect("steady depth");
                    q.schedule(at + SimDuration::from_nanos(1 + rng.below(1_000_000)), ev);
                }
                q.len()
            })
        });
    }

    // None of those depths is a workload we run. This is the traffic the
    // `exchange` workload offers the queue: per operation, four events
    // chained pop → schedule 0.5-0.78 ms ahead (2.55 ms an exchange) and
    // one retransmit timer 200 ms ahead that nothing cancels — 78 of them
    // stand parked, and each pops stale as a no-op — beside a 1 s
    // housekeeping timer per host, re-armed when it fires. The event is as
    // large as the kernel's.
    g.bench_function(&format!("exchange_shaped_x{BATCH}"), shaped(1, BATCH));
    // And what `capacity` offers it: sixteen such chains interleaved, a
    // link anywhere from 0.5 to 23 ms ahead (a message, a queued request,
    // a disk access), so that few of the near events ascend behind one
    // another and most of them miss the queue's runs.
    g.bench_function(&format!("capacity_shaped_x{BATCH}"), shaped(16, BATCH));
    g.finish();
}

/// As large as `v_kernel::Event`; the first word says what it is.
type QueuedEvent = [u64; 7];

/// `chains` interleaved pop → schedule chains, every fourth link arming a
/// 200 ms timer that fires stale, and two 1 s housekeeping timers that
/// re-arm themselves; a sample is `events` pops.
fn shaped(chains: u64, events: usize) -> impl FnMut(&mut criterion::Bencher) {
    const NEAR: u64 = 0;
    const TIMER: u64 = 1;
    const HOUSEKEEPING: u64 = 2;
    let spread = chains > 1;
    let mut rng = SplitMix64::new(1983);
    let mut q = EventQueue::<QueuedEvent>::new();
    for chain in 0..chains {
        q.schedule(SimTime::from_nanos(chain), [NEAR; 7]);
    }
    for host in 0..2 {
        q.schedule(SimTime::from_millis(1_000 + host), [HOUSEKEEPING; 7]);
    }
    let mut chained = 0u64;
    let mut run = move |events: usize| {
        for _ in 0..events {
            let (at, ev) = q.pop().expect("the chains never end");
            match black_box(ev)[0] {
                TIMER => continue,
                HOUSEKEEPING => {
                    q.schedule(at + SimDuration::from_millis(1_000), ev);
                    continue;
                }
                _ => {}
            }
            if chained % 4 == 0 {
                q.schedule(at + SimDuration::from_millis(200), [TIMER; 7]);
            }
            chained += 1;
            let mut ahead = 500_000 + rng.below(276_000);
            if spread {
                ahead <<= rng.below(6);
            }
            q.schedule(at + SimDuration::from_nanos(ahead), black_box(ev));
        }
        q.len()
    };
    // Past the first 200 ms the parked crowd is at its steady size.
    run(2_000 * chains as usize);
    move |b| b.iter(|| run(events))
}

criterion_group!(
    benches,
    bench_table_4_1,
    bench_table_5,
    bench_table_6_1,
    bench_table_6_2,
    bench_table_6_3,
    bench_section_5_4,
    bench_section_7,
    bench_section_8,
    bench_fanout,
    bench_codec,
    bench_event_queue
);
criterion_main!(benches);
