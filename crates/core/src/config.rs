//! Cluster and protocol configuration.

use v_net::{CollisionBug, FaultPlan, LinkParams, MeshConfig, NetworkKind, Topology};
use v_sim::SimDuration;

use crate::cpu::CpuSpeed;
use crate::hostmap::AddressingMode;

/// Optional IP encapsulation of interkernel packets (§3 of the paper
/// measured ~20 % slowdown from an IP layer, "even without computing the
/// IP header checksum and with only the simplest routing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encapsulation {
    /// Raw data-link level (the kernel's choice).
    Raw,
    /// Internet (IP) headers on every interkernel packet.
    Ip,
}

impl Encapsulation {
    /// Extra header bytes per packet.
    pub fn extra_bytes(self) -> usize {
        match self {
            Encapsulation::Raw => 0,
            Encapsulation::Ip => 20,
        }
    }

    /// Extra fixed processor cost to build the encapsulation header.
    pub fn extra_tx_cost(self) -> SimDuration {
        match self {
            Encapsulation::Raw => SimDuration::ZERO,
            Encapsulation::Ip => SimDuration::from_micros(100),
        }
    }

    /// Extra fixed processor cost to parse and route the header.
    pub fn extra_rx_cost(self) -> SimDuration {
        match self {
            Encapsulation::Raw => SimDuration::ZERO,
            Encapsulation::Ip => SimDuration::from_micros(120),
        }
    }
}

/// Interkernel protocol parameters.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Retransmission timeout `T` for message exchanges.
    pub retransmit_timeout: SimDuration,
    /// Retransmission budget `N`: a Send fails after `N` retransmissions
    /// with neither reply nor reply-pending.
    pub max_retries: u32,
    /// Alien descriptor pool size per kernel.
    pub alien_pool: usize,
    /// How long replied aliens retain cached replies, so that a
    /// retransmission of a completed exchange is answered without
    /// re-executing the receiver. Zero is the "alien keep = 0" ablation:
    /// the descriptor is freed the moment the reply leaves, so a lost
    /// reply costs a full re-delivery.
    pub alien_keep: SimDuration,
    /// Stall timeout for bulk transfers (no in-order progress → resume
    /// from the last acknowledged offset).
    pub transfer_timeout: SimDuration,
    /// Timeout awaiting answers to a broadcast `GetPid`.
    pub getpid_timeout: SimDuration,
    /// Broadcast retries for `GetPid` before returning "no such id".
    pub getpid_retries: u32,
    /// Packet encapsulation.
    pub encapsulation: Encapsulation,
    /// §3.4 appended segments: the first part of a read-granted segment
    /// rides in the Send packet. Disabling reproduces the unmodified
    /// (Thoth-style) kernel for ablation experiments.
    pub appended_segments: bool,
    /// Zero-copy same-host transport. A `Send`/`Reply`/`MoveTo`/
    /// `MoveFrom` whose peer resolves to the local host never touches
    /// the wire, but the classic (Thoth-style) delivery still pays a
    /// memory-to-memory copy per data byte. With the fast path on, the
    /// kernel instead remaps the pages carrying the typed message data
    /// into the peer's space through the kernel's loopback path,
    /// charging one fixed [`crate::CostModel::local_hop`] per
    /// delivery in place of `segment/move fixed + copy_mem(n)` and
    /// counting `n` into
    /// [`crate::KernelStats::local_fastpath_bytes_saved`]. Off (the
    /// default) is bit-identical to the historical copy-based path, and
    /// remote exchanges are untouched either way — a stale pid on a
    /// restarted host still Nacks exactly like the wire path.
    pub local_fastpath: bool,
}

impl ProtocolConfig {
    /// Reduced retransmission budget for a `Send` to a host this kernel
    /// already holds suspect (a previous exchange exhausted the full
    /// budget). The probe keeps failover latency bounded while still
    /// giving a restarted host a chance to answer and clear suspicion.
    pub const SUSPECT_RETRIES: u32 = 1;
    /// Largest data payload per packet for bulk transfer and appended
    /// segments (§3.4: "maximally-sized packets").
    pub const MAX_DATA_PER_PACKET: usize = 512;
    /// Cap on the segment prefix appended to a Send packet; the paper
    /// sets it "at least as large as a file block" (§3.4) so a one-block
    /// write is a single two-packet exchange.
    pub const MAX_APPENDED_SEGMENT: usize = 512;
    /// Retries for a stalled transfer before it fails.
    pub const TRANSFER_RETRIES: u32 = 5;
    /// Interval of the kernel's housekeeping sweep (alien/transfer
    /// garbage collection).
    pub const HOUSEKEEPING: SimDuration = SimDuration::from_millis(1000);
}

// A segment rides behind a 32-byte message in a Send, Reply or Forward
// packet, and the wire's payload-length field is 16 bits: a larger limit
// would wrap it and every receiver would drop the packet as a length
// mismatch until the exchange timed out.
const _: () = assert!(
    ProtocolConfig::MAX_DATA_PER_PACKET + v_wire::MSG_LEN <= u16::MAX as usize
        && ProtocolConfig::MAX_APPENDED_SEGMENT + v_wire::MSG_LEN <= u16::MAX as usize
);

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            retransmit_timeout: SimDuration::from_millis(200),
            // Budget sized so an exchange survives the harshest fault mix
            // the test storms generate (10% loss + 8% corruption each
            // way ⇒ ~1/3 per-attempt failure): 13 attempts pushes the
            // per-exchange failure odds below 1e-6.
            max_retries: 12,
            alien_pool: 16,
            alien_keep: SimDuration::from_millis(2000),
            transfer_timeout: SimDuration::from_millis(200),
            getpid_timeout: SimDuration::from_millis(100),
            getpid_retries: 3,
            encapsulation: Encapsulation::Raw,
            appended_segments: true,
            local_fastpath: false,
        }
    }
}

/// Per-host configuration. A host's logical id is not configured: it
/// comes from the station address by the 3 Mb convention
/// ([`crate::LogicalHost::from_station`]).
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Processor grade.
    pub cpu: CpuSpeed,
    /// Which network segment this host attaches to. Only meaningful for
    /// [`Topology::Mesh`]; single-segment topologies ignore it.
    pub segment: usize,
}

impl HostConfig {
    /// A host with the given CPU on segment 0.
    pub fn new(cpu: CpuSpeed) -> HostConfig {
        HostConfig { cpu, segment: 0 }
    }

    /// A host attached to a specific network segment.
    pub fn on_segment(cpu: CpuSpeed, segment: usize) -> HostConfig {
        HostConfig { cpu, segment }
    }
}

/// Whole-cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The network: one shared Ethernet segment
    /// ([`Topology::SingleSegment`], the paper's configuration and what
    /// [`ClusterConfig::three_mb`] and [`ClusterConfig::ten_mb`] build),
    /// a WAN link, or a mesh of segments joined by gateways.
    pub topology: Topology,
    /// pid → station addressing scheme.
    pub addressing: AddressingMode,
    /// The workstations, in station-address order (station `i + 1`).
    pub hosts: Vec<HostConfig>,
    /// Protocol parameters.
    pub protocol: ProtocolConfig,
    /// Medium fault injection: loss, duplication and corruption on every
    /// medium of the topology, a WAN link included.
    pub faults: FaultPlan,
    /// The §5.4 collision-detection hardware bug.
    pub collision_bug: Option<CollisionBug>,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl ClusterConfig {
    /// A cluster on the 3 Mb experimental Ethernet with direct addressing
    /// — the paper's main configuration.
    pub fn three_mb() -> ClusterConfig {
        ClusterConfig {
            topology: Topology::SingleSegment(NetworkKind::Experimental3Mb),
            addressing: AddressingMode::Direct,
            hosts: Vec::new(),
            protocol: ProtocolConfig::default(),
            faults: FaultPlan::NONE,
            collision_bug: None,
            seed: 0x5EED,
        }
    }

    /// A cluster on the 10 Mb standard Ethernet with learned addressing
    /// (§8's configuration).
    pub fn ten_mb() -> ClusterConfig {
        ClusterConfig {
            topology: Topology::SingleSegment(NetworkKind::Standard10Mb),
            addressing: AddressingMode::Learned,
            ..ClusterConfig::three_mb()
        }
    }

    /// Two workstations joined by a point-to-point WAN link — the
    /// off-segment regime the paper never measured.
    pub fn wan(params: LinkParams) -> ClusterConfig {
        ClusterConfig {
            topology: Topology::PointToPoint(params),
            ..ClusterConfig::three_mb()
        }
    }

    /// Ethernet segments joined by a routed mesh of gateways; place
    /// hosts with [`ClusterConfig::with_host_on`].
    pub fn mesh(topo: MeshConfig) -> ClusterConfig {
        ClusterConfig {
            topology: Topology::Mesh(topo),
            ..ClusterConfig::three_mb()
        }
    }

    /// Adds a host; returns `self` for chaining.
    pub fn with_host(mut self, cpu: CpuSpeed) -> Self {
        self.hosts.push(HostConfig::new(cpu));
        self
    }

    /// Adds `n` identical hosts.
    pub fn with_hosts(mut self, n: usize, cpu: CpuSpeed) -> Self {
        for _ in 0..n {
            self.hosts.push(HostConfig::new(cpu));
        }
        self
    }

    /// Adds a host on a specific segment of an internetwork or mesh
    /// topology.
    pub fn with_host_on(mut self, cpu: CpuSpeed, segment: usize) -> Self {
        self.hosts.push(HostConfig::on_segment(cpu, segment));
        self
    }

    /// Number of network segments hosts can be placed on (1 for the
    /// paper's single shared Ethernet).
    pub fn num_segments(&self) -> usize {
        self.topology.num_segments()
    }

    /// Validates per-host segment placement against the topology.
    /// [`crate::Cluster::new`] calls this and panics on the error, so a
    /// host placed on a nonexistent segment fails loudly at build time —
    /// with the offending host named — rather than misrouting frames.
    pub fn validate(&self) -> Result<(), String> {
        let segments = self.num_segments();
        for (i, h) in self.hosts.iter().enumerate() {
            if h.segment >= segments {
                return Err(format!(
                    "host {i} is placed on segment {}, but the topology has only \
                     {segments} segment(s)",
                    h.segment
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = ProtocolConfig::default();
        assert!(p.max_retries > 0);
        assert!(p.alien_pool > 0);
        assert_eq!(p.encapsulation, Encapsulation::Raw);
        assert!(p.appended_segments, "paper's kernel appends segments");
        assert!(!p.alien_keep.is_zero(), "paper's kernel caches replies");
        assert!(
            !p.local_fastpath,
            "zero-copy local transport is opt-in; default matches the paper"
        );
    }

    #[test]
    fn topology_builders() {
        let wan = ClusterConfig::wan(v_net::LinkParams::T1);
        assert!(matches!(wan.topology, Topology::PointToPoint(_)));

        let inet = ClusterConfig::mesh(MeshConfig::star(2))
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 1);
        assert!(matches!(inet.topology, Topology::Mesh(_)));
        assert_eq!(inet.hosts[0].segment, 0);
        assert_eq!(inet.hosts[1].segment, 1);

        let mesh = ClusterConfig::mesh(MeshConfig::line(3))
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 2);
        assert!(matches!(mesh.topology, Topology::Mesh(_)));
        assert_eq!(mesh.num_segments(), 3);

        // The paper's configurations stay single-segment.
        for cfg in [ClusterConfig::three_mb(), ClusterConfig::ten_mb()] {
            assert!(matches!(cfg.topology, Topology::SingleSegment(_)));
        }
    }

    #[test]
    fn placement_validation_names_the_offending_host() {
        let ok = ClusterConfig::mesh(MeshConfig::line(3))
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 2);
        assert!(ok.validate().is_ok());

        let bad = ClusterConfig::mesh(MeshConfig::line(3))
            .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
            .with_host_on(CpuSpeed::Mc68000At8MHz, 3);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("host 1"), "{err}");
        assert!(err.contains("segment 3"), "{err}");

        // Single-segment topologies only accept segment 0.
        let single = ClusterConfig::three_mb().with_host_on(CpuSpeed::Mc68000At8MHz, 1);
        assert!(single.validate().is_err());
        assert_eq!(ClusterConfig::three_mb().num_segments(), 1);
    }

    /// A maximal packet — header, message, a full data payload and an IP
    /// header in front — fits in one frame of every medium the kernel
    /// runs on, so no configuration needs fragmentation.
    #[test]
    fn a_maximal_packet_fits_every_medium() {
        let packet = v_wire::HEADER_LEN
            + v_wire::MSG_LEN
            + ProtocolConfig::MAX_DATA_PER_PACKET.max(ProtocolConfig::MAX_APPENDED_SEGMENT)
            + Encapsulation::Ip.extra_bytes();
        let media = [
            v_net::NetParams::for_kind(NetworkKind::Experimental3Mb).max_payload,
            v_net::NetParams::for_kind(NetworkKind::Standard10Mb).max_payload,
            LinkParams::T1.max_payload,
        ];
        for max_payload in media {
            assert!(packet <= max_payload, "{packet} B > {max_payload} B");
        }
    }

    #[test]
    fn builders_accumulate_hosts() {
        let cfg = ClusterConfig::three_mb()
            .with_host(CpuSpeed::Mc68000At8MHz)
            .with_hosts(2, CpuSpeed::Mc68000At10MHz);
        assert_eq!(cfg.hosts.len(), 3);
        assert_eq!(cfg.addressing, AddressingMode::Direct);
        let cfg10 = ClusterConfig::ten_mb();
        assert_eq!(cfg10.addressing, AddressingMode::Learned);
        assert!(matches!(
            cfg10.topology,
            Topology::SingleSegment(NetworkKind::Standard10Mb)
        ));
    }

    #[test]
    fn ip_encapsulation_adds_costs() {
        assert_eq!(Encapsulation::Raw.extra_bytes(), 0);
        assert!(Encapsulation::Ip.extra_bytes() > 0);
        assert!(Encapsulation::Ip.extra_tx_cost() > SimDuration::ZERO);
        assert!(Encapsulation::Ip.extra_rx_cost() > SimDuration::ZERO);
    }
}
