//! Ethernet segments joined by a routed mesh of store-and-forward
//! gateways.
//!
//! The paper's diskless workstations live on one broadcast segment. The
//! first step past that (PR 3) was a single gateway joining two
//! segments; this module generalizes it to a **routed mesh**: any number
//! of [`Ethernet`] segments joined by explicitly-placed gateways, each
//! bridging two or more segments. Routing tables are computed once at
//! build time — shortest path over the segment graph, deterministic
//! tie-breaks by gateway index — so the per-frame forwarding decision is
//! a table lookup, never a search.
//!
//! Each gateway receives a frame in full on one segment, holds it in a
//! **bounded queue**, and retransmits it on the next segment toward the
//! destination after a per-frame forwarding delay (store and forward).
//! Unicast frames hop segment by segment along the precomputed shortest
//! path; broadcasts are **flooded loop-free** — the flood tracks the set
//! of segments already covered, so even a cyclic mesh (a ring of
//! gateways) delivers each broadcast to every host exactly once.
//! Corrupted ingress frames are discarded at the hearing gateway (its
//! link-level check rejects them), and frames arriving while its queue
//! is full are dropped — the kernel's retransmission machinery is what
//! recovers both, exactly as it recovers medium loss.

use std::collections::VecDeque;

use v_sim::{SimDuration, SimTime};

use crate::fault::FaultPlan;
use crate::frame::{Frame, MacAddr};
use crate::medium::{
    CollisionBug, Delivery, Ethernet, MediumStats, NetworkKind, TxResult, TxWindow,
};
use crate::sink::{DeliverySink, StationRun};
use crate::transport::{GatewayStats, Transport};

/// First station address of the reserved gateway range. Gateway `i`
/// occupies address `0xFF00 + i` on every segment it bridges; hosts must
/// not attach anywhere in the range.
pub const GATEWAY_MAC_FIRST: MacAddr = MacAddr(0xFF00);

/// Last station address of the reserved gateway range (0xFFFF is
/// broadcast).
pub const GATEWAY_MAC_LAST: MacAddr = MacAddr(0xFFFE);

/// Largest number of gateways a mesh may place (the size of the
/// reserved address range).
pub const MAX_GATEWAYS: usize = (GATEWAY_MAC_LAST.0 - GATEWAY_MAC_FIRST.0) as usize + 1;

/// The station address gateway `idx` occupies on each segment it
/// bridges.
pub fn gateway_mac(idx: usize) -> MacAddr {
    assert!(
        idx < MAX_GATEWAYS,
        "gateway index {idx} exceeds the reserved address range ({MAX_GATEWAYS} gateways)"
    );
    MacAddr(GATEWAY_MAC_FIRST.0 + idx as u16)
}

/// True if `mac` falls in the reserved gateway range.
pub fn is_gateway_mac(mac: MacAddr) -> bool {
    (GATEWAY_MAC_FIRST.0..=GATEWAY_MAC_LAST.0).contains(&mac.0)
}

/// Configuration of a routed multi-gateway mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshConfig {
    /// The medium flavour of each segment (index = segment number).
    pub segments: Vec<NetworkKind>,
    /// Gateway placement: entry `g` lists the segments gateway `g`
    /// bridges (two or more).
    pub gateways: Vec<Vec<usize>>,
    /// Bounded per-gateway queue: frames arriving at a gateway while
    /// this many are already waiting are dropped.
    pub gateway_queue: usize,
    /// Frame coalescing: when a frame is already **queued** behind the
    /// forwarding engine and bound for the same egress segment as the
    /// frame the engine just handled, the gateway batches its header
    /// processing with the predecessor's and skips the per-frame
    /// [`MeshConfig::FORWARD_DELAY`] charge (the route lookup and egress
    /// setup were just done; a real gateway keeps them hot). Off by
    /// default — the uncoalesced mesh is the calibrated baseline, and
    /// every existing topology must stay bit-identical.
    pub coalesce: bool,
}

impl MeshConfig {
    /// Default per-gateway queue depth (frames).
    pub const DEFAULT_QUEUE: usize = 8;

    /// Per-frame store-and-forward processing delay at each gateway.
    pub const FORWARD_DELAY: SimDuration = SimDuration::from_micros(300);

    fn uniform(segments: usize, gateways: Vec<Vec<usize>>) -> MeshConfig {
        MeshConfig {
            segments: vec![NetworkKind::Experimental3Mb; segments],
            gateways,
            gateway_queue: Self::DEFAULT_QUEUE,
            coalesce: false,
        }
    }

    /// The same topology with gateway frame coalescing enabled
    /// ([`MeshConfig::coalesce`]).
    pub fn with_coalescing(mut self) -> MeshConfig {
        self.coalesce = true;
        self
    }

    /// `n` 3 Mb segments joined in a chain by `n - 1` gateways (gateway
    /// `i` bridges segments `i` and `i + 1`): the canonical multi-hop
    /// topology, where segment 0 to segment `n - 1` costs `n - 1` hops.
    pub fn line(n: usize) -> MeshConfig {
        assert!(n >= 2, "a line mesh needs at least two segments");
        MeshConfig::uniform(n, (0..n - 1).map(|i| vec![i, i + 1]).collect())
    }

    /// `n` 3 Mb segments in a ring of `n` gateways (gateway `i` bridges
    /// segments `i` and `(i + 1) % n`): the smallest topology with a
    /// routing loop, which the flood dedup and shortest-path tables must
    /// handle.
    pub fn ring(n: usize) -> MeshConfig {
        assert!(n >= 3, "a ring mesh needs at least three segments");
        MeshConfig::uniform(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    /// `n` 3 Mb segments behind one hub gateway bridging all of them —
    /// the PR 3 single-gateway star, as a mesh.
    pub fn star(n: usize) -> MeshConfig {
        assert!(n >= 2, "a star mesh needs at least two segments");
        MeshConfig::uniform(n, vec![(0..n).collect()])
    }
}

/// Sentinel for "not attached" in the station→segment table.
const UNPLACED: u16 = u16::MAX;

/// One store-and-forward gateway's mutable state.
#[derive(Debug)]
struct Gateway {
    /// Segments this gateway bridges (sorted, deduplicated).
    attached: Vec<usize>,
    /// False while the gateway is crashed: it hears nothing, forwards
    /// nothing, and the routing tables are built without it.
    alive: bool,
    /// Instant the forwarding engine is next idle.
    free: SimTime,
    /// Service-start times of accepted frames still queued or in
    /// service; entries whose start is past are purged lazily.
    backlog: Vec<SimTime>,
    /// Egress segment of the last frame forwarded, for
    /// [`MeshConfig::coalesce`]: a queued successor bound the same way
    /// batches its header processing with this one.
    last_egress: Option<usize>,
    stats: GatewayStats,
}

/// The sink of one broadcast transmit on segment `seg`: host copies go
/// on to `hosts` untouched, and the copies the segment's gateways heard
/// are queued as flood ingress instead.
///
/// A segment delivers in station-address order and the reserved gateway
/// range sorts above every host address, so the gateway copies of a run
/// are its tail: the run is shortened to end at the first gateway
/// address and the host part in front is passed on whole, never looked
/// at.
struct GatewayEars<'a> {
    hosts: &'a mut dyn DeliverySink,
    gateways: &'a mut [Gateway],
    ingress: &'a mut VecDeque<(usize, usize, SimTime)>,
    seg: usize,
    /// The gateway whose egress this transmit is, if any.
    emitter: Option<usize>,
}

impl GatewayEars<'_> {
    fn hear(&mut self, mac: MacAddr, at: SimTime, corrupted: bool) {
        let g = (mac.0 - GATEWAY_MAC_FIRST.0) as usize;
        let gw = &mut self.gateways[g];
        // The emitting gateway's own copy on its egress segment must
        // not re-enter the flood, and a dead gateway hears nothing:
        // with it gone the flood covers only what is still reachable.
        if self.emitter == Some(g) || !gw.alive {
            return;
        }
        if corrupted {
            gw.stats.corrupt_drops += 1;
        } else {
            self.ingress.push_back((g, self.seg, at));
        }
    }
}

impl DeliverySink for GatewayEars<'_> {
    fn deliver(&mut self, d: Delivery) {
        if is_gateway_mac(d.dst) {
            self.hear(d.dst, d.at, d.corrupted);
        } else {
            self.hosts.deliver(d);
        }
    }

    fn deliver_run(&mut self, mut run: StationRun) {
        let hosts = run.stations[..run.len].partition_point(|&m| !is_gateway_mac(m));
        // No host sends from the gateway range: there is no sender to skip.
        for &mac in &run.stations[hosts..run.len] {
            self.hear(mac, run.at, false);
        }
        run.len = hosts;
        if run.receivers().next().is_some() {
            self.hosts.deliver_run(run);
        }
    }
}

/// What egress segments emitted for hosts since the last poll, as they
/// emitted it: a flooded broadcast waits as a run per segment, not a
/// record per host.
#[derive(Debug, Default)]
struct Pending(Vec<Forwarded>);

#[derive(Debug)]
enum Forwarded {
    One(Delivery),
    Run(StationRun),
}

impl DeliverySink for Pending {
    fn deliver(&mut self, d: Delivery) {
        self.0.push(Forwarded::One(d));
    }

    fn deliver_run(&mut self, run: StationRun) {
        self.0.push(Forwarded::Run(run));
    }
}

/// The sink of a unicast transmit whose copies a gateway, not a host,
/// is to take: all that matters of each is when it arrived and whether
/// intact. A unicast has one receiver, so fault injection makes at most
/// two copies of it.
#[derive(Default)]
struct Copies {
    n: usize,
    heard: [(SimTime, bool); 2],
}

impl Copies {
    /// `(arrival, corrupted)` per copy, in delivery order.
    fn heard(&self) -> &[(SimTime, bool)] {
        &self.heard[..self.n]
    }
}

impl DeliverySink for Copies {
    fn deliver(&mut self, d: Delivery) {
        self.heard[self.n] = (d.at, d.corrupted);
        self.n += 1;
    }

    fn deliver_run(&mut self, _run: StationRun) {
        unreachable!("a unicast is never delivered as a run");
    }
}

/// Ethernet segments joined by a routed mesh of store-and-forward
/// gateways.
///
/// Every segment transmit hands its host deliveries to where they will
/// be read from — the caller's sink for the origin segment, `pending`
/// for a gateway's egress — and the mesh keeps only the copies its
/// gateways heard (`GatewayEars`). A clean broadcast arrives as one run
/// of the segment's station list, and finding the gateways in it relies on
/// an invariant of [`Ethernet`]: a segment delivers in station address
/// order, hosts may not attach in the reserved range
/// [`GATEWAY_MAC_FIRST`]`..=`[`GATEWAY_MAC_LAST`], and that range sorts
/// above every host, so the gateway copies are the tail of a run.
#[derive(Debug)]
pub struct Internetwork {
    cfg: MeshConfig,
    segments: Vec<Ethernet>,
    gateways: Vec<Gateway>,
    /// Station → segment table indexed by address, built at attach time
    /// and grown on demand (attaching station `m` sizes it to `m + 1`
    /// entries, so a mesh only pays for the address range it uses): the
    /// forwarding decision on every delivery is one array load, not a
    /// map walk.
    seg_of: Vec<u16>,
    /// `next_hop[s][d]` = the designated (gateway, egress segment)
    /// forwarding frames heard on segment `s` toward destination segment
    /// `d`; shortest path, ties broken by lowest gateway index then
    /// lowest egress segment. `None` on the diagonal.
    next_hop: Vec<Vec<Option<(u16, u16)>>>,
    /// Segment-to-segment distance in gateway hops.
    dist: Vec<Vec<u16>>,
    /// Deliveries produced by forwarding, awaiting a poll.
    pending: Pending,
    /// Scratch for one broadcast's flood: the segments already covered
    /// and the `(gateway, segment, arrival)` copies still to forward.
    flood_visited: Vec<bool>,
    flood_ingress: VecDeque<(usize, usize, SimTime)>,
}

impl Internetwork {
    /// Builds the mesh; each segment gets its own deterministic RNG
    /// stream derived from `seed`. Routing tables are computed here,
    /// once.
    ///
    /// # Panics
    ///
    /// Panics on an invalid topology: fewer than two segments, a gateway
    /// bridging fewer than two distinct segments or naming a segment
    /// that does not exist, more gateways than the reserved address
    /// range holds, or a segment graph that is not connected.
    pub fn new(cfg: MeshConfig, seed: u64) -> Internetwork {
        let n = cfg.segments.len();
        assert!(n >= 2, "a mesh needs at least two segments");
        assert!(cfg.gateway_queue > 0, "gateway queue must hold ≥ 1 frame");
        assert!(
            !cfg.gateways.is_empty(),
            "a mesh needs at least one gateway"
        );
        assert!(
            cfg.gateways.len() <= MAX_GATEWAYS,
            "{} gateways exceed the reserved address range ({MAX_GATEWAYS})",
            cfg.gateways.len()
        );

        let mut segments = Vec::with_capacity(n);
        for (i, kind) in cfg.segments.iter().enumerate() {
            segments.push(Ethernet::for_kind(
                *kind,
                seed.wrapping_add(0x9E37 * (i as u64 + 1)),
            ));
        }

        let mut gateways = Vec::with_capacity(cfg.gateways.len());
        for (g, attached) in cfg.gateways.iter().enumerate() {
            let mut attached = attached.clone();
            attached.sort_unstable();
            attached.dedup();
            assert!(
                attached.len() >= 2,
                "gateway {g} must bridge at least two distinct segments"
            );
            for &s in &attached {
                assert!(
                    s < n,
                    "gateway {g} bridges segment {s}, but the mesh has {n} segments"
                );
                segments[s].register(gateway_mac(g));
            }
            gateways.push(Gateway {
                attached,
                alive: true,
                free: SimTime::ZERO,
                backlog: Vec::new(),
                last_egress: None,
                stats: GatewayStats::default(),
            });
        }

        let (dist, next_hop) = route_tables(n, &gateways);
        for (d, row) in dist[0].iter().enumerate() {
            assert!(
                *row != u16::MAX,
                "segment {d} is unreachable from segment 0: the mesh must be connected"
            );
        }

        Internetwork {
            cfg,
            segments,
            gateways,
            seg_of: Vec::new(),
            next_hop,
            dist,
            pending: Pending::default(),
            flood_visited: Vec::new(),
            flood_ingress: VecDeque::new(),
        }
    }

    /// Allocating convenience wrapper around the batched
    /// [`Transport::transmit`], for tests and one-shot probes.
    pub fn transmit(&mut self, ready: SimTime, frame: Frame) -> TxResult {
        let mut deliveries = Vec::new();
        let win = Transport::transmit(self, ready, frame, &mut deliveries);
        TxResult {
            tx_start: win.tx_start,
            tx_end: win.tx_end,
            deliveries,
        }
    }

    /// Allocating convenience wrapper around the batched
    /// [`Transport::poll_deliveries`].
    pub fn poll_deliveries(&mut self) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        Transport::poll_deliveries(self, &mut deliveries);
        deliveries
    }

    /// The configured topology.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// The segment a station is attached to, if any. One array load —
    /// this sits on the forwarding hot path for every delivery.
    pub fn segment_of(&self, mac: MacAddr) -> Option<usize> {
        match self.seg_of.get(mac.0 as usize) {
            None | Some(&UNPLACED) => None,
            Some(&s) => Some(s as usize),
        }
    }

    /// Gateway-hop distance between two segments, over live gateways
    /// only. [`Internetwork::UNREACHABLE`] when a partition separates
    /// them.
    pub fn hops(&self, from: usize, to: usize) -> usize {
        self.dist[from][to] as usize
    }

    /// The `hops` value reporting "no live path".
    pub const UNREACHABLE: usize = u16::MAX as usize;

    /// True while gateway `idx` is in service.
    pub fn gateway_alive(&self, idx: usize) -> bool {
        self.gateways.get(idx).is_some_and(|g| g.alive)
    }

    /// Rebuilds the routing tables over the live gateways. The
    /// connectivity the constructor insists on may no longer hold: a
    /// partitioned pair of segments simply gets no next hop, so unicasts
    /// between them die silently and the kernels' retransmission budgets
    /// are what surface the outage.
    fn recompute_routes(&mut self) {
        let (dist, next_hop) = route_tables(self.segments.len(), &self.gateways);
        self.dist = dist;
        self.next_hop = next_hop;
    }

    /// Admits one ingress frame into gateway `g`'s bounded queue.
    /// Returns the instant service starts, or `None` if the queue was
    /// full and the frame was dropped.
    fn admit(&mut self, g: usize, at: SimTime) -> Option<SimTime> {
        let gw = &mut self.gateways[g];
        // Bounded queue: entries that began service by `at` have left it.
        gw.backlog.retain(|&s| s > at);
        if gw.backlog.len() >= self.cfg.gateway_queue {
            gw.stats.queue_drops += 1;
            return None;
        }
        let start = at.max(gw.free);
        gw.backlog.push(start);
        gw.stats.max_queue = gw.stats.max_queue.max(gw.backlog.len());
        Some(start)
    }

    /// Forwards a unicast heard on segment `seg` at `at` toward
    /// `dest_seg`, hop by hop along the routing tables, queuing final
    /// deliveries into `pending`.
    fn forward_unicast(&mut self, mut at: SimTime, frame: &Frame, mut seg: usize, dest_seg: usize) {
        // An unreachable destination falls straight through: nothing
        // hears it.
        while let Some((g, e)) = self.next_hop[seg][dest_seg] {
            let (g, egress) = (g as usize, e as usize);
            let Some(start) = self.admit(g, at) else {
                break;
            };
            // Coalescing: a frame that *queued* behind the engine
            // (start > at) and leaves on the same egress segment as its
            // predecessor shares that predecessor's header-processing
            // charge — the route lookup is still hot.
            let coalesce =
                self.cfg.coalesce && start > at && self.gateways[g].last_egress == Some(egress);
            let cursor = if coalesce {
                self.gateways[g].stats.coalesced += 1;
                start
            } else {
                start + MeshConfig::FORWARD_DELAY
            };
            // On the final segment the copies (possibly corrupted — the
            // receiver's checksum is what rejects those) are host
            // deliveries and go where a poll finds them. On an
            // intermediate one each is the next designated gateway's
            // ingress.
            let mut copies = Copies::default();
            let out: &mut dyn DeliverySink = if egress == dest_seg {
                &mut self.pending
            } else {
                &mut copies
            };
            let win = self.segments[egress].transmit_into(cursor, frame.clone(), out);
            self.gateways[g].free = win.tx_end;
            self.gateways[g].last_egress = Some(egress);
            self.gateways[g].stats.forwarded += 1;

            if egress == dest_seg {
                break;
            }
            // Fault injection may have dropped the frame (no copy),
            // corrupted it (the gateway's link-level check discards it)
            // or duplicated it (both copies continue).
            let mut continuations: [SimTime; 2] = [SimTime::ZERO; 2];
            let mut n_cont = 0usize;
            for &(heard_at, corrupted) in copies.heard() {
                if corrupted {
                    if let Some((ng, _)) = self.next_hop[egress][dest_seg] {
                        self.gateways[ng as usize].stats.corrupt_drops += 1;
                    }
                } else {
                    continuations[n_cont] = heard_at;
                    n_cont += 1;
                }
            }
            match n_cont {
                0 => break,
                1 => {
                    at = continuations[0];
                    seg = egress;
                }
                _ => {
                    for &a in &continuations[..n_cont] {
                        self.forward_unicast(a, frame, egress, dest_seg);
                    }
                    return;
                }
            }
        }
    }

    /// Floods a broadcast through the mesh. `flood_visited` marks
    /// segments already covered (the origin segment to begin with);
    /// `flood_ingress` seeds the flood with the (gateway, segment,
    /// arrival) copies heard on the origin segment. The per-flood
    /// seen-set makes the flood loop-free on any topology: each segment
    /// is transmitted on at most once, so every host sees the frame
    /// exactly once.
    fn flood(&mut self, frame: &Frame) {
        let mut visited = std::mem::take(&mut self.flood_visited);
        let mut ingress = std::mem::take(&mut self.flood_ingress);
        while let Some((g, seg, at)) = ingress.pop_front() {
            let any_target = self.gateways[g]
                .attached
                .iter()
                .any(|&e| e != seg && !visited[e]);
            if !any_target {
                continue; // every reachable segment already covered
            }
            let Some(start) = self.admit(g, at) else {
                continue;
            };
            let mut cursor = start + MeshConfig::FORWARD_DELAY;
            for i in 0..self.gateways[g].attached.len() {
                let e = self.gateways[g].attached[i];
                if e == seg || visited[e] {
                    continue;
                }
                visited[e] = true;
                let mut ears = GatewayEars {
                    hosts: &mut self.pending,
                    gateways: &mut self.gateways,
                    ingress: &mut ingress,
                    seg: e,
                    emitter: Some(g),
                };
                let win = self.segments[e].transmit_into(cursor, frame.clone(), &mut ears);
                cursor = win.tx_end;
                self.gateways[g].free = win.tx_end;
                self.gateways[g].last_egress = Some(e);
                self.gateways[g].stats.forwarded += 1;
            }
        }
        self.flood_visited = visited;
        self.flood_ingress = ingress;
    }
}

/// Computes the distance matrix and designated next-hop table for the
/// segment graph (nodes = segments, edges = gateway bridges), BFS per
/// source with deterministic tie-breaks.
type RouteTables = (Vec<Vec<u16>>, Vec<Vec<Option<(u16, u16)>>>);

fn route_tables(n: usize, gateways: &[Gateway]) -> RouteTables {
    // Adjacency: segments sharing a gateway are one hop apart.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for gw in gateways.iter().filter(|g| g.alive) {
        for &a in &gw.attached {
            for &b in &gw.attached {
                if a != b && !adj[a].contains(&b) {
                    adj[a].push(b);
                }
            }
        }
    }
    for row in &mut adj {
        row.sort_unstable();
    }

    let mut dist = vec![vec![u16::MAX; n]; n];
    for (s, drow) in dist.iter_mut().enumerate() {
        drow[s] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(x) = q.pop_front() {
            for &y in &adj[x] {
                if drow[y] == u16::MAX {
                    drow[y] = drow[x] + 1;
                    q.push_back(y);
                }
            }
        }
    }

    // Designated forwarder per (ingress segment, destination segment):
    // the lowest-indexed gateway on the ingress segment with an attached
    // segment strictly closer to the destination; its lowest such
    // attached segment is the egress. Shortest-path and deterministic,
    // so exactly one gateway forwards any given unicast.
    let mut next_hop: Vec<Vec<Option<(u16, u16)>>> = vec![vec![None; n]; n];
    for s in 0..n {
        for d in 0..n {
            if s == d || dist[s][d] == u16::MAX {
                continue;
            }
            'gw: for (g, gw) in gateways.iter().enumerate() {
                if !gw.alive || !gw.attached.contains(&s) {
                    continue;
                }
                for &e in &gw.attached {
                    if e != s && dist[e][d] + 1 == dist[s][d] {
                        next_hop[s][d] = Some((g as u16, e as u16));
                        break 'gw;
                    }
                }
            }
        }
    }
    (dist, next_hop)
}

impl Transport for Internetwork {
    fn attach(&mut self, mac: MacAddr, segment: usize) {
        assert!(
            !is_gateway_mac(mac),
            "station address {mac} collides with the reserved gateway range \
             {GATEWAY_MAC_FIRST}..={GATEWAY_MAC_LAST}"
        );
        assert!(
            segment < self.segments.len(),
            "segment {segment} does not exist (topology has {})",
            self.segments.len()
        );
        if self.seg_of.len() <= mac.0 as usize {
            self.seg_of.resize(mac.0 as usize + 1, UNPLACED);
        }
        self.seg_of[mac.0 as usize] = segment as u16;
        self.segments[segment].register(mac);
    }

    fn transmit(&mut self, ready: SimTime, frame: Frame, out: &mut dyn DeliverySink) -> TxWindow {
        let from_seg = self
            .segment_of(frame.src)
            .expect("transmitting station is not attached to any segment");

        if frame.dst.is_broadcast() {
            // Host copies on the origin segment deliver directly; the
            // copies its gateways hear seed the mesh-wide flood.
            self.flood_visited.clear();
            self.flood_visited.resize(self.segments.len(), false);
            self.flood_visited[from_seg] = true;
            self.flood_ingress.clear();
            let mut ears = GatewayEars {
                hosts: out,
                gateways: &mut self.gateways,
                ingress: &mut self.flood_ingress,
                seg: from_seg,
                emitter: None,
            };
            let win = self.segments[from_seg].transmit_into(ready, frame.clone(), &mut ears);
            self.flood(&frame);
            return win;
        }

        // Fast path: a unicast whose destination sits on the origin
        // segment never involves a gateway — transmit straight into
        // `out`.
        let dest = self.segment_of(frame.dst);
        if dest == Some(from_seg) {
            return self.segments[from_seg].transmit_into(ready, frame, out);
        }

        // Off-segment (or unattached) destination: the designated
        // gateway on this segment hears each copy and routes it. An
        // unknown destination has no segment: no station hears the
        // copies, so they are simply discarded.
        let mut copies = Copies::default();
        let win = self.segments[from_seg].transmit_into(ready, frame.clone(), &mut copies);
        if let Some(dest_seg) = dest {
            for &(at, corrupted) in copies.heard() {
                if corrupted {
                    if let Some((g, _)) = self.next_hop[from_seg][dest_seg] {
                        self.gateways[g as usize].stats.corrupt_drops += 1;
                    }
                } else {
                    self.forward_unicast(at, &frame, from_seg, dest_seg);
                }
            }
        }
        win
    }

    fn poll_deliveries(&mut self, out: &mut dyn DeliverySink) {
        for forwarded in self.pending.0.drain(..) {
            match forwarded {
                Forwarded::One(d) => out.deliver(d),
                Forwarded::Run(run) => out.deliver_run(run),
            }
        }
    }

    fn stats(&self) -> MediumStats {
        let mut total = MediumStats::default();
        for seg in &self.segments {
            total.absorb(&seg.stats());
        }
        total
    }

    fn max_payload(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.params().max_payload)
            .min()
            .expect("at least two segments")
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        for seg in &mut self.segments {
            seg.set_faults(plan);
        }
    }

    fn set_collision_bug(&mut self, bug: Option<CollisionBug>) {
        for seg in &mut self.segments {
            seg.set_collision_bug(bug);
        }
    }

    fn gateway_stats(&self) -> Option<GatewayStats> {
        let mut total = GatewayStats::default();
        for gw in &self.gateways {
            total.absorb(&gw.stats);
        }
        Some(total)
    }

    fn per_gateway_stats(&self) -> Vec<GatewayStats> {
        self.gateways.iter().map(|g| g.stats).collect()
    }

    fn fail_gateway(&mut self, idx: usize) -> bool {
        match self.gateways.get_mut(idx) {
            Some(gw) if gw.alive => {
                gw.alive = false;
                gw.backlog.clear(); // queued frames die with the gateway
                gw.last_egress = None; // a restarted engine has cold state
                self.recompute_routes();
                true
            }
            _ => false,
        }
    }

    fn restore_gateway(&mut self, idx: usize) -> bool {
        match self.gateways.get_mut(idx) {
            Some(gw) if !gw.alive => {
                gw.alive = true;
                self.recompute_routes();
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;

    fn frame(dst: MacAddr, src: MacAddr, len: usize) -> Frame {
        Frame::new(dst, src, EtherType::RAW_BENCH, vec![0xC3; len])
    }

    /// Star of two segments: station 1 on segment 0, stations 2 and 3
    /// on 1 — the PR 3 topology.
    fn star() -> Internetwork {
        let mut n = Internetwork::new(MeshConfig::star(2), 42);
        n.attach(MacAddr(1), 0);
        n.attach(MacAddr(2), 1);
        n.attach(MacAddr(3), 1);
        n
    }

    /// Three segments in a line, one host each: 1—gw—2—gw—3.
    fn line3() -> Internetwork {
        let mut n = Internetwork::new(MeshConfig::line(3), 42);
        n.attach(MacAddr(1), 0);
        n.attach(MacAddr(2), 1);
        n.attach(MacAddr(3), 2);
        n
    }

    fn polled(n: &mut Internetwork) -> Vec<Delivery> {
        n.poll_deliveries()
    }

    fn total(n: &Internetwork) -> GatewayStats {
        n.gateway_stats().unwrap()
    }

    #[test]
    fn same_segment_unicast_stays_direct() {
        let mut n = star();
        let r = n.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(2), 64));
        assert_eq!(r.deliveries.len(), 1);
        assert_eq!(r.deliveries[0].dst, MacAddr(3));
        assert!(polled(&mut n).is_empty());
        assert_eq!(total(&n).forwarded, 0);
    }

    #[test]
    fn cross_segment_unicast_is_forwarded_and_later() {
        let mut n = star();
        let direct = n.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(2), 64));
        let mut n = star();
        let r = n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert!(r.deliveries.is_empty(), "no same-segment receiver");
        let fwd = polled(&mut n);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].dst, MacAddr(2));
        assert!(
            fwd[0].at > direct.deliveries[0].at,
            "store-and-forward must add latency: {:?} vs {:?}",
            fwd[0].at,
            direct.deliveries[0].at
        );
        assert_eq!(total(&n).forwarded, 1);
    }

    #[test]
    fn broadcast_floods_every_segment_once() {
        let mut n = star();
        let r = n.transmit(SimTime::ZERO, frame(MacAddr::BROADCAST, MacAddr(1), 64));
        // Segment 0 has only the sender (plus the gateway), so no direct
        // receivers.
        assert!(r.deliveries.is_empty());
        let mut dsts: Vec<u16> = polled(&mut n).iter().map(|d| d.dst.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![2, 3]);
    }

    #[test]
    fn two_hop_unicast_crosses_both_gateways() {
        let mut n = line3();
        assert_eq!(n.hops(0, 2), 2);
        let r = n.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(1), 64));
        assert!(r.deliveries.is_empty());
        let fwd = polled(&mut n);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].dst, MacAddr(3));
        let per = n.per_gateway_stats();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].forwarded, 1, "first hop");
        assert_eq!(per[1].forwarded, 1, "second hop");
    }

    #[test]
    fn hop_latency_is_additive() {
        // One-hop and two-hop deliveries of the same frame size from the
        // same origin: each extra hop costs exactly the same increment.
        let mut n = line3();
        let direct_at = {
            let mut m = Internetwork::new(MeshConfig::line(3), 42);
            m.attach(MacAddr(1), 0);
            m.attach(MacAddr(9), 0);
            let r = m.transmit(SimTime::ZERO, frame(MacAddr(9), MacAddr(1), 64));
            r.deliveries[0].at
        };
        let one = {
            n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
            polled(&mut n)[0].at
        };
        let mut n2 = line3();
        let two = {
            n2.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(1), 64));
            polled(&mut n2)[0].at
        };
        let hop1 = one.since(direct_at);
        let hop2 = two.since(one);
        assert!(!hop1.is_zero());
        assert_eq!(hop1, hop2, "identical segments ⇒ identical hop cost");
    }

    #[test]
    fn ring_broadcast_is_loop_free() {
        // A ring has a cycle; the flood must still cover every host
        // exactly once and terminate.
        let mut n = Internetwork::new(MeshConfig::ring(4), 7);
        for s in 0..4 {
            n.attach(MacAddr(1 + s as u16), s);
        }
        let r = n.transmit(SimTime::ZERO, frame(MacAddr::BROADCAST, MacAddr(1), 64));
        assert!(
            r.deliveries.is_empty(),
            "origin segment has only the sender"
        );
        let mut dsts: Vec<u16> = polled(&mut n).iter().map(|d| d.dst.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![2, 3, 4], "each host exactly once");
    }

    #[test]
    fn bounded_queue_drops_bursts() {
        let mut cfg = MeshConfig::star(2);
        cfg.gateway_queue = 1;
        let mut n = Internetwork::new(cfg, 9);
        n.attach(MacAddr(1), 0);
        n.attach(MacAddr(2), 1);
        // A burst of back-to-back cross-segment frames: the 3 Mb egress
        // segment drains slower than the ingress segment feeds.
        for _ in 0..20 {
            let r = n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
            let _ = r;
        }
        let g = total(&n);
        assert!(g.queue_drops > 0, "burst must overflow the 1-frame queue");
        assert!(g.forwarded > 0, "some frames still get through");
        let fwd = polled(&mut n);
        assert_eq!(fwd.len() as u64, g.forwarded);
    }

    #[test]
    fn corrupted_ingress_is_dropped_at_the_gateway() {
        let mut n = star();
        n.set_faults(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::NONE
        });
        n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert!(polled(&mut n).is_empty());
        assert_eq!(total(&n).corrupt_drops, 1);
    }

    #[test]
    fn stats_sum_across_segments() {
        let mut n = star();
        n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        // Ingress transmit on segment 0 plus gateway egress on segment 1.
        assert_eq!(n.stats().frames_sent, 2);
    }

    #[test]
    fn routing_tables_pick_shortest_paths() {
        let n = Internetwork::new(MeshConfig::ring(5), 3);
        // Around a 5-ring the far side is 2 hops either way; the near
        // sides are 1.
        assert_eq!(n.hops(0, 1), 1);
        assert_eq!(n.hops(0, 2), 2);
        assert_eq!(n.hops(0, 3), 2);
        assert_eq!(n.hops(0, 4), 1);
    }

    #[test]
    fn failed_gateway_partitions_a_line() {
        let mut n = line3();
        assert!(n.fail_gateway(0));
        assert!(!n.fail_gateway(0), "already down");
        assert!(!n.gateway_alive(0));
        assert_eq!(n.hops(0, 2), Internetwork::UNREACHABLE);
        // Unicast into the partition dies silently.
        n.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(1), 64));
        assert!(polled(&mut n).is_empty());
        // The unaffected hop still forwards.
        n.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(2), 64));
        assert_eq!(polled(&mut n).len(), 1);
        // Restore heals the route.
        assert!(n.restore_gateway(0));
        assert!(!n.restore_gateway(0), "already up");
        assert_eq!(n.hops(0, 2), 2);
        n.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(1), 64));
        assert_eq!(polled(&mut n).len(), 1);
    }

    #[test]
    fn ring_reroutes_the_long_way_around_a_dead_gateway() {
        let mut n = Internetwork::new(MeshConfig::ring(4), 11);
        n.attach(MacAddr(1), 0);
        n.attach(MacAddr(2), 1);
        assert_eq!(n.hops(0, 1), 1);
        // Gateway 0 bridges segments 0 and 1; without it the route runs
        // the long way: 0 → 3 → 2 → 1.
        assert!(n.fail_gateway(0));
        assert_eq!(n.hops(0, 1), 3);
        n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        let fwd = polled(&mut n);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].dst, MacAddr(2));
        assert!(!n.gateway_alive(0));
        assert_eq!(n.per_gateway_stats()[0].forwarded, 0);
    }

    #[test]
    fn broadcast_flood_degrades_to_the_reachable_side() {
        let mut n = Internetwork::new(MeshConfig::line(3), 5);
        n.attach(MacAddr(1), 0);
        n.attach(MacAddr(2), 1);
        n.attach(MacAddr(3), 2);
        assert!(n.fail_gateway(1));
        // From segment 0 the flood reaches segment 1 but not 2.
        n.transmit(SimTime::ZERO, frame(MacAddr::BROADCAST, MacAddr(1), 64));
        let dsts: Vec<u16> = polled(&mut n).iter().map(|d| d.dst.0).collect();
        assert_eq!(dsts, vec![2], "only the near side hears the flood");
    }

    #[test]
    fn fail_gateway_rejects_unknown_index() {
        let mut n = star();
        assert!(!n.fail_gateway(7));
        assert!(!n.restore_gateway(7));
        assert!(!n.gateway_alive(7));
    }

    #[test]
    fn attach_past_256_stations_routes_and_floods() {
        // The PR 4 station table was a fixed `[u16; 256]`; the growable
        // table must carry addresses past the old 8-bit ceiling.
        let mut n = Internetwork::new(MeshConfig::star(2), 13);
        for i in 0..300u16 {
            n.attach(MacAddr(1 + i), (i % 2) as usize);
        }
        assert_eq!(n.segment_of(MacAddr(300)), Some(1));
        assert_eq!(n.segment_of(MacAddr(301)), None);
        // Cross-segment unicast between two high addresses still routes.
        n.transmit(SimTime::ZERO, frame(MacAddr(300), MacAddr(299), 64));
        let fwd = polled(&mut n);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].dst, MacAddr(300));
        // A broadcast from a high address reaches all 299 other stations.
        let r = n.transmit(SimTime::ZERO, frame(MacAddr::BROADCAST, MacAddr(300), 64));
        let flooded = polled(&mut n);
        assert_eq!(r.deliveries.len() + flooded.len(), 299);
    }

    #[test]
    fn coalescing_batches_a_queued_same_egress_burst() {
        let run = |coalesce: bool| {
            let mut cfg = MeshConfig::star(2);
            cfg.coalesce = coalesce;
            let mut n = Internetwork::new(cfg, 21);
            n.attach(MacAddr(1), 0);
            n.attach(MacAddr(2), 1);
            for _ in 0..4 {
                n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
            }
            let mut fwd = polled(&mut n);
            fwd.sort_by_key(|d| d.at);
            (fwd.last().unwrap().at, fwd.len(), total(&n))
        };
        let (last_off, count_off, st_off) = run(false);
        let (last_on, count_on, st_on) = run(true);
        assert_eq!(st_off.coalesced, 0, "off never coalesces");
        assert_eq!(count_on, count_off, "coalescing drops nothing");
        assert!(
            st_on.coalesced >= 2,
            "queued successors bound the same way must batch: {st_on:?}"
        );
        assert!(
            last_on < last_off,
            "batched headers drain the queue sooner: {last_on:?} vs {last_off:?}"
        );
    }

    #[test]
    fn single_frame_is_never_coalesced() {
        // An unqueued frame has no predecessor to batch with: its
        // delivery time must match the uncoalesced mesh exactly.
        let run = |coalesce: bool| {
            let mut cfg = MeshConfig::star(2);
            cfg.coalesce = coalesce;
            let mut n = Internetwork::new(cfg, 5);
            n.attach(MacAddr(1), 0);
            n.attach(MacAddr(2), 1);
            n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
            (polled(&mut n)[0].at, total(&n).coalesced)
        };
        let (at_off, _) = run(false);
        let (at_on, coalesced_on) = run(true);
        assert_eq!(at_on, at_off, "no queue, no coalescing, same latency");
        assert_eq!(coalesced_on, 0);
    }

    #[test]
    fn alternating_egress_does_not_coalesce() {
        // Same gateway, egress flipping every frame: the header state is
        // never hot for the successor, so every forward pays in full.
        let cfg = MeshConfig::star(3).with_coalescing();
        let mut n = Internetwork::new(cfg, 33);
        n.attach(MacAddr(1), 0);
        n.attach(MacAddr(2), 1);
        n.attach(MacAddr(3), 2);
        for _ in 0..3 {
            n.transmit(SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
            n.transmit(SimTime::ZERO, frame(MacAddr(3), MacAddr(1), 1024));
        }
        let st = total(&n);
        assert!(st.forwarded > 0);
        assert_eq!(st.coalesced, 0, "egress alternates every frame");
    }

    #[test]
    #[should_panic(expected = "reserved gateway range")]
    fn gateway_range_cannot_be_attached() {
        let mut n = star();
        n.attach(gateway_mac(0), 0);
    }

    #[test]
    #[should_panic(expected = "reserved gateway range")]
    fn whole_gateway_range_is_rejected_even_unused_addresses() {
        // Only one gateway exists, but the whole range stays reserved.
        let mut n = star();
        n.attach(GATEWAY_MAC_LAST, 0);
    }

    #[test]
    #[should_panic(expected = "must be connected")]
    fn disconnected_mesh_is_rejected() {
        // Segments 2 and 3 are bridged to each other but not to 0/1.
        let cfg = MeshConfig {
            segments: vec![NetworkKind::Experimental3Mb; 4],
            gateways: vec![vec![0, 1], vec![2, 3]],
            gateway_queue: 8,
            coalesce: false,
        };
        Internetwork::new(cfg, 1);
    }

    #[test]
    #[should_panic(expected = "at least two distinct segments")]
    fn degenerate_gateway_is_rejected() {
        let cfg = MeshConfig {
            segments: vec![NetworkKind::Experimental3Mb; 2],
            gateways: vec![vec![1, 1]],
            gateway_queue: 8,
            coalesce: false,
        };
        Internetwork::new(cfg, 1);
    }

    /// Every mesh constructor leaves frame coalescing off; only
    /// `with_coalescing` turns it on.
    #[test]
    fn mesh_constructors_build_without_coalescing() {
        for mesh in [
            MeshConfig::line(3),
            MeshConfig::ring(3),
            MeshConfig::star(2),
        ] {
            assert!(!mesh.coalesce, "{mesh:?}");
            assert!(mesh.with_coalescing().coalesce);
        }
    }
}
