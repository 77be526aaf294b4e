//! Host-clock microbenchmarks of single layers: each calls one crate's
//! public functions in isolation, so a change in a workload's host time can
//! be traced to the layer that moved. Every figure is the median of
//! [`BATCHES`] timed batches after one untimed one.

use std::hint::black_box;
use std::time::Instant;

use v_fs::store::FileId;
use v_fs::{BlockCache, BlockStore, DiskModel, BLOCK_SIZE};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_net::{
    EtherType, Ethernet, Frame, Internetwork, MacAddr, MeshConfig, NetworkKind, Transport,
};
use v_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use v_wire::{decode, encode, Packet, PacketBody, ReplyBody, SendBody};
use v_workloads::echo::EchoServer;

use crate::stats::median;

/// Timed batches per microbenchmark.
pub const BATCHES: usize = 9;
/// Stations on the benchmarked media: the boot storm's scale.
const STATIONS: usize = 1000;

/// Median of [`BATCHES`] samples after one discarded one.
fn median_of_batches(mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    let samples: Vec<f64> = (0..BATCHES).map(|_| sample()).collect();
    median(&samples)
}

/// Median nanoseconds per unit of work: `batch` does its work and returns
/// how many units that was.
fn ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    median_of_batches(|| {
        let t = Instant::now();
        let units = batch();
        t.elapsed().as_nanos() as f64 / units as f64
    })
}

/// `EventQueue::pop` + `schedule` at a steady depth (the hold model: every
/// popped event schedules one successor a random interval later).
fn queue_push_pop(depth: usize) -> f64 {
    let mut rng = SplitMix64::new(depth as u64);
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(rng.below(1_000_000)), i as u64);
    }
    ns_per_unit(|| {
        const N: u64 = 200_000;
        for _ in 0..N {
            let (at, ev) = q.pop().expect("steady depth");
            q.schedule(at + SimDuration::from_nanos(1 + rng.below(1_000_000)), ev);
        }
        black_box(q.len());
        N
    })
}

fn msg_packet() -> Packet {
    Packet {
        seq: 7,
        src_pid: 0x0001_0002,
        dst_pid: 0x0002_0003,
        body: PacketBody::Send(SendBody {
            msg: [0x5A; 32],
            appended: Vec::new(),
            appended_from: 0,
        }),
    }
}

fn page_packet() -> Packet {
    Packet {
        seq: 7,
        src_pid: 0x0002_0003,
        dst_pid: 0x0001_0002,
        body: PacketBody::Reply(ReplyBody {
            msg: [0x5A; 32],
            seg_dest: 0x2000,
            seg: vec![0x7E; BLOCK_SIZE],
        }),
    }
}

fn encode_ns(p: &Packet) -> f64 {
    ns_per_unit(|| {
        const N: u64 = 50_000;
        for _ in 0..N {
            black_box(encode(black_box(p)));
        }
        N
    })
}

fn decode_ns(p: &Packet) -> f64 {
    let bytes = encode(p);
    ns_per_unit(|| {
        const N: u64 = 50_000;
        for _ in 0..N {
            black_box(decode(black_box(&bytes)).expect("well-formed"));
        }
        N
    })
}

fn station(i: usize) -> MacAddr {
    HostId(i).station_mac()
}

fn frame(dst: MacAddr) -> Frame {
    Frame::new(dst, station(0), EtherType::INTERKERNEL, vec![0xAB; 64])
}

/// `Ethernet::transmit_into` on a 1000-station 3 Mb segment; returns
/// (ns per unicast frame, ns per broadcast delivery). Building the frame
/// is part of the cost, as it is for the kernel.
fn ethernet() -> (f64, f64) {
    let mut net = Ethernet::for_kind(NetworkKind::Experimental3Mb, 1);
    for i in 0..STATIONS {
        net.register(station(i));
    }
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let unicast = ns_per_unit(|| {
        const N: u64 = 20_000;
        for _ in 0..N {
            out.clear();
            now = net.transmit_into(now, frame(station(1)), &mut out).tx_end;
        }
        black_box(out.len());
        N
    });
    let broadcast = ns_per_unit(|| {
        let mut deliveries = 0;
        for _ in 0..50 {
            out.clear();
            now = net
                .transmit_into(now, frame(MacAddr::BROADCAST), &mut out)
                .tx_end;
            deliveries += out.len() as u64;
        }
        deliveries
    });
    (unicast, broadcast)
}

/// A broadcast flooded across the storm's 15-segment star mesh with 1000
/// stations, per delivery (`Transport::transmit` + `poll_deliveries`).
fn mesh_broadcast() -> f64 {
    let mut net = Internetwork::new(MeshConfig::star(15), 1);
    for i in 0..STATIONS {
        net.attach(station(i), i % 15);
    }
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    ns_per_unit(|| {
        let mut deliveries = 0;
        for _ in 0..20 {
            out.clear();
            let win = Transport::transmit(&mut net, now, frame(MacAddr::BROADCAST), &mut out);
            Transport::poll_deliveries(&mut net, &mut out);
            // Let the gateway drain before the next flood, so its bounded
            // queue never drops.
            now = out.iter().map(|d| d.at).fold(win.tx_end, SimTime::max);
            deliveries += out.len() as u64;
        }
        deliveries
    })
}

fn storm_shaped_config(hosts: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::mesh(MeshConfig::star(15));
    for i in 0..hosts {
        cfg = cfg.with_host_on(CpuSpeed::Mc68000At10MHz, i % 15);
    }
    cfg
}

/// `Cluster::new` of a 1000-host mesh, microseconds per host (the drop is
/// outside the timing).
fn cluster_new_us_per_host() -> f64 {
    let cfg = storm_shaped_config(STATIONS);
    median_of_batches(|| {
        let cfg = cfg.clone();
        let t = Instant::now();
        let cl = black_box(Cluster::new(cfg));
        let us = t.elapsed().as_secs_f64() * 1e6;
        drop(cl);
        us / STATIONS as f64
    })
}

/// `Cluster::spawn`, microseconds per process: mostly the new address
/// space.
fn spawn_us_per_process() -> f64 {
    const N: usize = 64;
    median_of_batches(|| {
        let mut cl = Cluster::new(storm_shaped_config(N));
        let t = Instant::now();
        for h in 0..N {
            black_box(cl.spawn(HostId(h), "echo", Box::new(EchoServer)));
        }
        let us = t.elapsed().as_secs_f64() * 1e6;
        drop(cl);
        us / N as f64
    })
}

fn disk_request_ns() -> f64 {
    let mut disk = DiskModel::fixed(SimDuration::from_millis(2));
    let mut now = SimTime::ZERO;
    ns_per_unit(|| {
        const N: u64 = 200_000;
        for _ in 0..N {
            // Alternate idle and queued arrivals.
            now = black_box(disk.request(now, BLOCK_SIZE));
            black_box(disk.request(now, BLOCK_SIZE));
        }
        2 * N
    })
}

fn cache_lookup_ns() -> f64 {
    const BLOCKS: u32 = 64;
    let mut cache = BlockCache::new(BLOCKS as usize);
    for b in 0..BLOCKS {
        cache.insert(FileId(1), b, vec![0xA5; BLOCK_SIZE], None);
    }
    let mut rng = SplitMix64::new(2);
    ns_per_unit(|| {
        const N: u64 = 100_000;
        for _ in 0..N {
            let b = rng.below(BLOCKS as u64) as u32;
            black_box(cache.lookup(FileId(1), b, BLOCK_SIZE, SimTime::ZERO));
        }
        N
    })
}

fn store_read_ns() -> f64 {
    const BLOCKS: u32 = 64;
    let mut store = BlockStore::new();
    let id = store
        .create_with("f", &vec![0x7E; BLOCKS as usize * BLOCK_SIZE])
        .expect("fresh store");
    let mut rng = SplitMix64::new(3);
    ns_per_unit(|| {
        const N: u64 = 500_000;
        for _ in 0..N {
            let b = rng.below(BLOCKS as u64) as u32;
            black_box(store.read_block(id, b, BLOCK_SIZE).expect("in range"));
        }
        N
    })
}

/// Name and unit of each microbenchmark, in the order [`Micro::run`]
/// takes them.
pub const MICROBENCHMARKS: [(&str, &str); 14] = [
    ("sim.queue_push_pop_ns_d1k", "ns"),
    ("sim.queue_push_pop_ns_d64k", "ns"),
    ("wire.encode_ns_msg", "ns"),
    ("wire.decode_ns_msg", "ns"),
    ("wire.encode_ns_page", "ns"),
    ("wire.decode_ns_page", "ns"),
    ("net.ether_unicast_ns", "ns"),
    ("net.ether_bcast_ns_per_delivery", "ns"),
    ("net.mesh_bcast_ns_per_delivery", "ns"),
    ("kernel.cluster_new_us_per_host", "us"),
    ("kernel.spawn_us_per_process", "us"),
    ("fs.disk_request_ns", "ns"),
    ("fs.cache_lookup_ns", "ns"),
    ("fs.store_read_ns", "ns"),
];

/// The microbenchmark results.
pub struct Micro {
    values: [f64; MICROBENCHMARKS.len()],
}

impl Micro {
    /// Runs every microbenchmark (about two seconds).
    pub fn run() -> Micro {
        let (msg, page) = (msg_packet(), page_packet());
        let (unicast, broadcast) = ethernet();
        Micro {
            values: [
                queue_push_pop(1_000),
                queue_push_pop(64_000),
                encode_ns(&msg),
                decode_ns(&msg),
                encode_ns(&page),
                decode_ns(&page),
                unicast,
                broadcast,
                mesh_broadcast(),
                cluster_new_us_per_host(),
                spawn_us_per_process(),
                disk_request_ns(),
                cache_lookup_ns(),
                store_read_ns(),
            ],
        }
    }

    /// Name, unit and value of each.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        MICROBENCHMARKS
            .iter()
            .zip(self.values)
            .map(|((name, unit), v)| (*name, *unit, v))
    }
}
