//! The pluggable transport boundary.
//!
//! The kernel's protocol engine emits frames and consumes deliveries; it
//! never cares *what* carries them. [`Transport`] captures exactly that
//! contract — attach stations, transmit frames, poll for deliveries a
//! forwarding element produced, read statistics — so the shared Ethernet
//! of the paper, a point-to-point WAN link and a gatewayed internetwork
//! are interchangeable beneath the dispatch boundary.

use v_sim::SimTime;

use crate::fault::FaultPlan;
use crate::frame::{Frame, MacAddr};
use crate::internet::{Internetwork, MeshConfig};
use crate::link::{LinkParams, PointToPointLink};
use crate::medium::{CollisionBug, Ethernet, MediumStats, NetworkKind, TxWindow};
use crate::sink::DeliverySink;

/// Statistics of one store-and-forward element inside a transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Frames forwarded onto another segment (one count per egress copy).
    pub forwarded: u64,
    /// Ingress frames discarded because the bounded queue was full.
    pub queue_drops: u64,
    /// Ingress frames discarded because they arrived corrupted (a real
    /// gateway's link-level CRC check rejects them before forwarding).
    pub corrupt_drops: u64,
    /// Largest number of frames ever waiting in the queue at once.
    pub max_queue: usize,
    /// Forwards that skipped the per-frame processing delay because the
    /// frame was queued behind another bound for the same egress segment
    /// (batched header processing — [`MeshConfig::coalesce`]).
    pub coalesced: u64,
}

impl GatewayStats {
    /// Accumulates another gateway's counters into this one (used to
    /// total a multi-gateway mesh). Counters add; `max_queue` takes the
    /// worst single gateway.
    pub fn absorb(&mut self, o: &GatewayStats) {
        let GatewayStats {
            forwarded,
            queue_drops,
            corrupt_drops,
            max_queue,
            coalesced,
        } = *o;
        self.forwarded += forwarded;
        self.queue_drops += queue_drops;
        self.corrupt_drops += corrupt_drops;
        self.max_queue = self.max_queue.max(max_queue);
        self.coalesced += coalesced;
    }
}

/// A medium that moves frames between attached stations.
///
/// A transmission returns its transmit window and hands the deliveries
/// it directly produces to a caller-owned [`DeliverySink`] — the hot
/// path of the whole simulation, so a clean 1000-receiver broadcast is
/// one [`StationRun`](crate::StationRun) per segment, not a thousand
/// records: what a receiver costs is the sink's to decide, and every
/// copy shares the transmitted frame's payload buffer (see [`Frame`]).
/// Transports with a forwarding element (gateways) additionally
/// accumulate *forwarded* deliveries, which callers drain with
/// [`Transport::poll_deliveries`] after each transmit. Every delivery
/// carries its own arrival instant, so callers simply schedule them —
/// ordering is the event queue's job.
pub trait Transport {
    /// Registers a station with the medium. `segment` places the station
    /// on a topology with more than one (ignored by single-segment
    /// transports).
    fn attach(&mut self, mac: MacAddr, segment: usize);

    /// Transmits `frame`, whose copy into the sending interface
    /// completed at `ready`, handing the resulting deliveries to `out`
    /// (a `Vec<Delivery>` is a sink: it appends one record per
    /// receiver). The receivers of a broadcast on one segment come in
    /// station address order, never in the order the stations were
    /// attached; a copy nothing happened to may come as part of a run.
    fn transmit(&mut self, ready: SimTime, frame: Frame, out: &mut dyn DeliverySink) -> TxWindow;

    /// Drains deliveries produced by forwarding since the last call into
    /// `out`, in the order they were produced. Single-hop transports
    /// hand over nothing.
    fn poll_deliveries(&mut self, out: &mut dyn DeliverySink);

    /// Aggregate medium statistics (summed across segments for
    /// multi-segment topologies).
    fn stats(&self) -> MediumStats;

    /// Largest payload a frame may carry end to end.
    fn max_payload(&self) -> usize;

    /// Installs a fault plan, applied per delivery (on every segment for
    /// multi-segment topologies).
    fn set_faults(&mut self, plan: FaultPlan);

    /// Enables the §5.4 collision-detection hardware bug on transports
    /// that model a shared medium; a no-op elsewhere.
    fn set_collision_bug(&mut self, _bug: Option<CollisionBug>) {}

    /// Aggregate statistics of the forwarding elements, for transports
    /// that have any (summed across gateways on a mesh).
    fn gateway_stats(&self) -> Option<GatewayStats> {
        None
    }

    /// Per-gateway statistics, one entry per gateway in placement order.
    /// Empty for transports without a forwarding element.
    fn per_gateway_stats(&self) -> Vec<GatewayStats> {
        Vec::new()
    }

    /// Takes forwarding element `idx` out of service (its queue is lost;
    /// routes recompute without it, possibly partitioning the topology).
    /// Returns false on transports without one, for an unknown index, or
    /// if it is already down.
    fn fail_gateway(&mut self, _idx: usize) -> bool {
        false
    }

    /// Returns forwarding element `idx` to service and recomputes
    /// routes. Returns false on transports without one, for an unknown
    /// index, or if it is already up.
    fn restore_gateway(&mut self, _idx: usize) -> bool {
        false
    }
}

/// A buildable description of a network topology — the configuration
/// counterpart of [`Transport`].
#[derive(Debug, Clone)]
pub enum Topology {
    /// One shared Ethernet segment (the paper's world).
    SingleSegment(NetworkKind),
    /// A point-to-point WAN link between exactly two stations.
    PointToPoint(LinkParams),
    /// Ethernet segments joined by a routed mesh of explicitly-placed
    /// gateways.
    Mesh(MeshConfig),
}

impl Topology {
    /// Builds the transport this topology describes.
    pub fn build(&self, seed: u64) -> Box<dyn Transport> {
        match self {
            Topology::SingleSegment(kind) => Box::new(Ethernet::for_kind(*kind, seed)),
            Topology::PointToPoint(params) => Box::new(PointToPointLink::new(*params, seed)),
            Topology::Mesh(cfg) => Box::new(Internetwork::new(cfg.clone(), seed)),
        }
    }

    /// Number of distinct segments hosts can be placed on.
    pub fn num_segments(&self) -> usize {
        match self {
            Topology::SingleSegment(_) | Topology::PointToPoint(_) => 1,
            Topology::Mesh(cfg) => cfg.segments.len(),
        }
    }
}

impl Transport for Ethernet {
    fn attach(&mut self, mac: MacAddr, _segment: usize) {
        self.register(mac);
    }

    fn transmit(&mut self, ready: SimTime, frame: Frame, out: &mut dyn DeliverySink) -> TxWindow {
        Ethernet::transmit_into(self, ready, frame, out)
    }

    fn poll_deliveries(&mut self, _out: &mut dyn DeliverySink) {}

    fn stats(&self) -> MediumStats {
        Ethernet::stats(self)
    }

    fn max_payload(&self) -> usize {
        self.params().max_payload
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        Ethernet::set_faults(self, plan);
    }

    fn set_collision_bug(&mut self, bug: Option<CollisionBug>) {
        Ethernet::set_collision_bug(self, bug);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_behind_the_trait_matches_direct_use() {
        let mut t: Box<dyn Transport> =
            Topology::SingleSegment(NetworkKind::Experimental3Mb).build(7);
        t.attach(MacAddr(1), 0);
        t.attach(MacAddr(2), 0);
        let mut out = Vec::new();
        t.transmit(
            SimTime::ZERO,
            Frame::new(
                MacAddr(2),
                MacAddr(1),
                crate::EtherType::RAW_BENCH,
                vec![0; 64],
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        out.clear();
        t.poll_deliveries(&mut out);
        assert!(out.is_empty());
        assert_eq!(t.stats().frames_sent, 1);
        assert_eq!(t.max_payload(), 1100);
        assert!(t.gateway_stats().is_none());
    }
}
