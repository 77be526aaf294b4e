//! Transport-conformance suite: every [`Transport`] implementation must
//! honour the same contract — unicast delivery with positive latency,
//! stats accounting, total loss dropping everything, duplication
//! producing extra copies, and bit-for-bit determinism under a fixed
//! seed. Each check runs against all four transports, including a
//! 3-segment routed mesh whose A→B path crosses two gateways.

use v_net::{
    EtherType, FaultPlan, Frame, LinkParams, MacAddr, MeshConfig, NetworkKind, Topology, Transport,
};
use v_sim::{SimDuration, SimTime};

const A: MacAddr = MacAddr(1);
const B: MacAddr = MacAddr(2);

/// Every topology under test, with stations A and B attached so that a
/// frame from A to B must cross the whole thing (for the internetwork
/// that means crossing the gateway; for the mesh, two gateways).
fn all_transports(seed: u64) -> Vec<(&'static str, Box<dyn Transport>)> {
    let mut out: Vec<(&'static str, Box<dyn Transport>)> = Vec::new();
    let topologies = [
        (
            "ethernet-3mb",
            Topology::SingleSegment(NetworkKind::Experimental3Mb),
        ),
        ("point-to-point", Topology::PointToPoint(LinkParams::T1)),
        ("internetwork", Topology::Mesh(MeshConfig::star(2))),
        ("mesh-3seg-line", Topology::Mesh(MeshConfig::line(3))),
    ];
    for (name, topo) in topologies {
        let mut t = topo.build(seed);
        t.attach(A, 0);
        t.attach(B, segments_of(&topo) - 1);
        out.push((name, t));
    }
    out
}

fn segments_of(t: &Topology) -> usize {
    t.num_segments()
}

fn frame(dst: MacAddr, len: usize) -> Frame {
    Frame::new(dst, A, EtherType::RAW_BENCH, vec![0xA5; len])
}

/// Transmit plus a poll drain — the full delivery set of one send.
fn send(t: &mut dyn Transport, at: SimTime, f: Frame) -> Vec<v_net::Delivery> {
    let mut ds = Vec::new();
    t.transmit(at, f, &mut ds);
    t.poll_deliveries(&mut ds);
    ds
}

#[test]
fn unicast_reaches_the_destination_with_positive_latency() {
    for (name, mut t) in all_transports(3) {
        let ds = send(t.as_mut(), SimTime::ZERO, frame(B, 100));
        assert_eq!(ds.len(), 1, "{name}: exactly one delivery");
        assert_eq!(ds[0].dst, B, "{name}");
        assert!(ds[0].at > SimTime::ZERO, "{name}: delivery takes time");
        assert!(!ds[0].corrupted, "{name}: clean medium");
        assert_eq!(
            ds[0].frame.payload[..],
            [0xA5; 100],
            "{name}: payload intact"
        );
    }
}

#[test]
fn stats_account_for_traffic() {
    for (name, mut t) in all_transports(4) {
        for i in 0..5u64 {
            send(t.as_mut(), SimTime::from_millis(10 * i), frame(B, 64));
        }
        let s = t.stats();
        assert!(s.frames_sent >= 5, "{name}: frames_sent={}", s.frames_sent);
        assert!(
            s.bytes_sent >= 5 * 64,
            "{name}: bytes_sent={}",
            s.bytes_sent
        );
        assert!(s.deliveries >= 5, "{name}: deliveries={}", s.deliveries);
        assert!(!s.busy.is_zero(), "{name}: busy time accumulates");
    }
}

#[test]
fn total_loss_drops_every_delivery() {
    for (name, mut t) in all_transports(5) {
        t.set_faults(FaultPlan::with_loss(1.0));
        for i in 0..10u64 {
            let ds = send(t.as_mut(), SimTime::from_millis(10 * i), frame(B, 64));
            assert!(ds.is_empty(), "{name}: nothing may arrive");
        }
        assert!(t.stats().dropped >= 10, "{name}: drops counted");
    }
}

#[test]
fn duplication_produces_later_extra_copies() {
    for (name, mut t) in all_transports(6) {
        t.set_faults(FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::NONE
        });
        let ds = send(t.as_mut(), SimTime::ZERO, frame(B, 64));
        assert!(ds.len() >= 2, "{name}: got {} copies", ds.len());
        assert!(ds.iter().all(|d| d.dst == B), "{name}");
        assert!(
            ds.iter().any(|d| d.at > ds[0].at),
            "{name}: a copy must arrive later"
        );
        assert!(t.stats().duplicated >= 1, "{name}");
    }
}

#[test]
fn corruption_is_flagged_and_scrambles_or_is_dropped_in_transit() {
    for (name, mut t) in all_transports(12) {
        t.set_faults(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::NONE
        });
        let ds = send(t.as_mut(), SimTime::ZERO, frame(B, 64));
        for d in &ds {
            assert!(d.corrupted, "{name}: delivery must be flagged");
            assert_ne!(
                d.frame.payload[..],
                [0xA5; 64],
                "{name}: payload must be scrambled"
            );
        }
        // A store-and-forward gateway legitimately discards corrupted
        // ingress instead of delivering it; either way the corruption
        // must be visible in the statistics.
        let gw_drops = t.gateway_stats().map_or(0, |g| g.corrupt_drops);
        assert!(
            t.stats().corrupted >= 1 || gw_drops >= 1,
            "{name}: corruption must be accounted"
        );
    }
}

#[test]
fn identical_seeds_produce_identical_fault_draws() {
    let storm = FaultPlan {
        loss: 0.3,
        duplicate: 0.15,
        corrupt: 0.15,
    };
    let trace = |seed: u64| -> Vec<Vec<(u64, bool, u8)>> {
        all_transports(seed)
            .into_iter()
            .map(|(_, mut t)| {
                t.set_faults(storm);
                let mut log = Vec::new();
                for i in 0..200u64 {
                    let at = SimTime::from_micros(500 * i);
                    let len = 32 + (i as usize % 4) * 100;
                    for d in send(t.as_mut(), at, frame(B, len)) {
                        log.push((d.at.as_nanos(), d.corrupted, d.frame.payload[0]));
                    }
                }
                log
            })
            .collect()
    };
    let a = trace(0xFEED);
    let b = trace(0xFEED);
    assert_eq!(a, b, "same seed ⇒ identical delivery traces");
    let c = trace(0xBEEF);
    assert_ne!(a, c, "a different seed must explore different faults");
}

#[test]
fn faulty_transports_still_deliver_most_traffic() {
    for (name, mut t) in all_transports(7) {
        t.set_faults(FaultPlan::with_loss(0.1));
        let mut arrived = 0u64;
        for i in 0..200u64 {
            arrived += send(t.as_mut(), SimTime::from_micros(700 * i), frame(B, 64)).len() as u64;
        }
        // A multi-hop path draws the 10% loss once per segment crossed
        // (three times on the 3-segment mesh: survival ≈ 0.9³ ≈ 73%).
        assert!(
            (125..=210).contains(&arrived),
            "{name}: {arrived}/200 arrived under 10% loss"
        );
    }
}

#[test]
fn broadcast_crosses_the_whole_topology() {
    for (name, mut t) in all_transports(8) {
        let ds = send(t.as_mut(), SimTime::ZERO, frame(MacAddr::BROADCAST, 64));
        assert_eq!(ds.len(), 1, "{name}: B is the only other station");
        assert_eq!(ds[0].dst, B, "{name}");
    }
}

#[test]
fn mtu_is_at_least_a_kernel_page_exchange() {
    // The kernel fragments at 512 data bytes + 32-byte header; every
    // transport must carry that (plus slack) in one frame.
    for (name, t) in all_transports(9) {
        assert!(t.max_payload() >= 600, "{name}: MTU {}", t.max_payload());
    }
}

#[test]
fn internetwork_gateway_reports_forwarding_stats() {
    let mut t = Topology::Mesh(MeshConfig::star(2)).build(10);
    t.attach(A, 0);
    t.attach(B, 1);
    send(t.as_mut(), SimTime::ZERO, frame(B, 64));
    let g = t.gateway_stats().expect("internetwork has a gateway");
    assert_eq!(g.forwarded, 1);
    assert_eq!(g.queue_drops, 0);

    // Single-hop transports have none.
    let eth = Topology::SingleSegment(NetworkKind::Standard10Mb).build(10);
    assert!(eth.gateway_stats().is_none());
    let p2p = Topology::PointToPoint(LinkParams::T1).build(10);
    assert!(p2p.gateway_stats().is_none());
}

#[test]
fn deliveries_are_never_scheduled_in_the_past() {
    for (name, mut t) in all_transports(11) {
        let at = SimTime::from_millis(5);
        for d in send(t.as_mut(), at, frame(B, 1000)) {
            assert!(d.at > at, "{name}: delivery at {:?} before send", d.at);
        }
        // Even under pathological extra delay knobs.
        let _ = SimDuration::ZERO;
    }
}

// ---- mesh-specific contract -------------------------------------------

/// A 3-segment line with one host per segment (1—gw—2—gw—3) plus a
/// second host on segment 0 for the zero-hop reference.
fn line3() -> Box<dyn Transport> {
    let mut t = Topology::Mesh(MeshConfig::line(3)).build(13);
    t.attach(MacAddr(1), 0);
    t.attach(MacAddr(9), 0);
    t.attach(MacAddr(2), 1);
    t.attach(MacAddr(3), 2);
    t
}

fn arrival(t: &mut dyn Transport, dst: MacAddr) -> SimTime {
    let ds = send(t, SimTime::ZERO, frame(dst, 64));
    assert_eq!(ds.len(), 1, "exactly one copy of a clean unicast");
    ds[0].at
}

#[test]
fn mesh_unicast_latency_is_additive_per_hop() {
    // Identical segments and a fixed per-hop forwarding cost: the 1-hop
    // and 2-hop increments over the same-segment delivery are *equal*,
    // not merely positive.
    let zero = arrival(line3().as_mut(), MacAddr(9));
    let one = arrival(line3().as_mut(), MacAddr(2));
    let two = arrival(line3().as_mut(), MacAddr(3));
    assert!(zero < one && one < two, "{zero:?} / {one:?} / {two:?}");
    assert_eq!(
        one.since(zero),
        two.since(one),
        "each hop must cost the same increment"
    );
}

#[test]
fn mesh_broadcast_reaches_every_host_exactly_once() {
    // On a ring (which has a physical loop) a naive flood would circle
    // forever; the seen-set dedup must deliver exactly one copy per host.
    let mut t = Topology::Mesh(MeshConfig::ring(4)).build(14);
    for s in 0..4u16 {
        t.attach(MacAddr(1 + s), s as usize);
        t.attach(MacAddr(11 + s), s as usize);
    }
    let ds = send(t.as_mut(), SimTime::ZERO, frame(MacAddr::BROADCAST, 64));
    let mut dsts: Vec<u16> = ds.iter().map(|d| d.dst.0).collect();
    dsts.sort_unstable();
    assert_eq!(
        dsts,
        vec![2, 3, 4, 11, 12, 13, 14],
        "every host but the sender, each exactly once"
    );
}

#[test]
fn mesh_interior_gateway_overflow_drops_and_recovers() {
    let mut cfg = MeshConfig::line(3);
    cfg.gateway_queue = 1;
    let mut t = Topology::Mesh(cfg).build(15);
    t.attach(A, 0);
    t.attach(MacAddr(3), 2);
    // Back-to-back 2-hop frames: the interior gateway's 1-frame queue
    // must overflow, yet later (spaced) traffic still gets through.
    let mut arrived = 0;
    for _ in 0..20 {
        arrived += send(t.as_mut(), SimTime::ZERO, frame(MacAddr(3), 1024)).len();
    }
    let per = t.per_gateway_stats();
    assert_eq!(per.len(), 2);
    let drops: u64 = per.iter().map(|g| g.queue_drops).sum();
    assert!(drops > 0, "burst must overflow a 1-frame queue: {per:?}");
    assert!(arrived > 0, "some frames still cross both hops");
    // A later, uncontended retransmission (what the kernel would do)
    // crosses cleanly.
    let late = send(
        t.as_mut(),
        SimTime::from_millis(500),
        frame(MacAddr(3), 1024),
    );
    assert_eq!(late.len(), 1, "recovery after the burst drains");
}

#[test]
fn mesh_reports_per_gateway_stats() {
    let mut t = line3();
    send(t.as_mut(), SimTime::ZERO, frame(MacAddr(3), 64));
    let per = t.per_gateway_stats();
    assert_eq!(per.len(), 2, "one entry per placed gateway");
    assert_eq!(per[0].forwarded, 1);
    assert_eq!(per[1].forwarded, 1);
    let total = t.gateway_stats().expect("mesh has gateways");
    assert_eq!(total.forwarded, 2, "aggregate sums the per-gateway view");
    // Transports without a forwarding element report an empty vector.
    assert!(Topology::SingleSegment(NetworkKind::Standard10Mb)
        .build(15)
        .per_gateway_stats()
        .is_empty());
}

// ---- shared payload buffer contract -----------------------------------

use std::rc::Rc;

use v_net::CollisionBug;

const CACHED: [u8; 96] = [0x6B; 96];

/// Transports with several receivers per broadcast (the link has its
/// one peer): a shared segment, and a ring whose flood crosses gateways.
fn fan_out_transports(seed: u64) -> Vec<(&'static str, Box<dyn Transport>)> {
    let mut eth = Topology::SingleSegment(NetworkKind::Experimental3Mb).build(seed);
    for m in 1..=6u16 {
        eth.attach(MacAddr(m), 0);
    }
    let mut link = Topology::PointToPoint(LinkParams::T1).build(seed);
    link.attach(A, 0);
    link.attach(B, 0);
    let mut ring = Topology::Mesh(MeshConfig::ring(4)).build(seed);
    for s in 0..4u16 {
        ring.attach(MacAddr(1 + s), s as usize);
        ring.attach(MacAddr(11 + s), s as usize);
    }
    vec![("ethernet", eth), ("link", link), ("ring", ring)]
}

/// A broadcast from A whose payload the sender keeps a handle on, as
/// the kernel's retransmission cache does.
fn cached_broadcast(cached: &Rc<[u8]>) -> Frame {
    Frame::new(
        MacAddr::BROADCAST,
        A,
        EtherType::RAW_BENCH,
        Rc::clone(cached),
    )
}

#[test]
fn a_broadcasts_deliveries_share_the_senders_buffer() {
    for (name, mut t) in fan_out_transports(16) {
        let cached: Rc<[u8]> = Rc::from(&CACHED[..]);
        let ds = send(t.as_mut(), SimTime::ZERO, cached_broadcast(&cached));
        assert!(!ds.is_empty(), "{name}");
        for d in &ds {
            assert!(
                Rc::ptr_eq(&d.frame.payload, &cached),
                "{name}: delivery to {} got a copy of the bytes",
                d.dst
            );
            assert_eq!(d.frame.dst, d.dst, "{name}: addressed per receiver");
        }
    }
}

/// Every delivery is either the sender's own buffer, intact, or a
/// scrambled buffer nobody else holds.
fn assert_copy_on_corrupt(name: &str, ds: &[v_net::Delivery], cached: &Rc<[u8]>) {
    for (i, d) in ds.iter().enumerate() {
        if d.corrupted {
            assert_ne!(d.frame.payload[..], CACHED, "{name}: must be scrambled");
            for other in &ds[i + 1..] {
                assert!(
                    !Rc::ptr_eq(&d.frame.payload, &other.frame.payload),
                    "{name}: a scrambled buffer reached a second receiver"
                );
            }
        } else {
            assert!(Rc::ptr_eq(&d.frame.payload, cached), "{name}");
        }
    }
    assert_eq!(
        cached[..],
        CACHED,
        "{name}: the sender's cache was scrambled"
    );
}

#[test]
fn corruption_and_duplication_never_touch_a_sibling_or_the_senders_cache() {
    for (name, mut t) in fan_out_transports(17) {
        t.set_faults(FaultPlan {
            loss: 0.1,
            duplicate: 0.3,
            corrupt: 0.3,
        });
        let cached: Rc<[u8]> = Rc::from(&CACHED[..]);
        let (mut corrupted, mut intact) = (0, 0);
        for i in 0..100u64 {
            let at = SimTime::from_millis(20 * i);
            let ds = send(t.as_mut(), at, cached_broadcast(&cached));
            assert_copy_on_corrupt(name, &ds, &cached);
            corrupted += ds.iter().filter(|d| d.corrupted).count();
            intact += ds.iter().filter(|d| !d.corrupted).count();
        }
        assert!(
            corrupted > 0 && intact > 0,
            "{name}: both fates must occur ({corrupted} corrupted, {intact} intact)"
        );
    }
}

#[test]
fn collision_bug_scrambles_each_copy_on_its_own() {
    let mut t = Topology::SingleSegment(NetworkKind::Experimental3Mb).build(18);
    for m in 1..=6u16 {
        t.attach(MacAddr(m), 0);
    }
    t.set_collision_bug(Some(CollisionBug { corrupt_prob: 1.0 }));
    let cached: Rc<[u8]> = Rc::from(&CACHED[..]);
    // The first broadcast finds the medium idle; the second defers into
    // it and the undetected collision ruins every copy.
    let first = send(t.as_mut(), SimTime::ZERO, cached_broadcast(&cached));
    let second = send(
        t.as_mut(),
        SimTime::from_micros(5),
        cached_broadcast(&cached),
    );
    assert_eq!(first.len(), 5);
    assert!(first.iter().all(|d| !d.corrupted));
    assert_eq!(second.len(), 5);
    assert!(second.iter().all(|d| d.corrupted));
    assert_copy_on_corrupt("first", &first, &cached);
    assert_copy_on_corrupt("collided", &second, &cached);
}
