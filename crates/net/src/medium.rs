//! The shared Ethernet medium.

use std::rc::Rc;

use v_sim::{SimDuration, SimTime, SplitMix64};

use crate::fault::FaultPlan;
use crate::frame::{Frame, MacAddr};
use crate::sink::{DeliverySink, StationRun};

/// Which physical network flavour to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// The 2.94 Mb/s experimental Ethernet the paper's main tables use.
    Experimental3Mb,
    /// The 10 Mb/s standard Ethernet of §8.
    Standard10Mb,
}

/// Physical parameters of the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Physical bit rate, bits per second.
    pub bits_per_sec: u64,
    /// Fixed network + interface latency per frame (propagation, framing,
    /// receive-interrupt dispatch). The paper attributes ~0.3 ms of the
    /// 8 MHz network penalty to "network and interface latency"; most of
    /// that is interface handling charged by the CPU cost model, so the
    /// wire-level share here is small.
    pub latency: SimDuration,
    /// Largest payload a single frame may carry.
    pub max_payload: usize,
}

impl NetParams {
    /// Parameters for a network flavour.
    pub fn for_kind(kind: NetworkKind) -> NetParams {
        match kind {
            // 2.94 Mb/s; the paper measured single datagrams up to 1024
            // bytes (Table 4-1), so the experimental net's MTU comfortably
            // exceeds 1 KB of data plus a 32-byte interkernel header.
            NetworkKind::Experimental3Mb => NetParams {
                bits_per_sec: 2_940_000,
                latency: SimDuration::from_micros(30),
                max_payload: 1100,
            },
            // 10 Mb/s standard Ethernet, 1500-byte MTU.
            NetworkKind::Standard10Mb => NetParams {
                bits_per_sec: 10_000_000,
                latency: SimDuration::from_micros(25),
                max_payload: 1500,
            },
        }
    }

    /// Time for `bytes` to cross the wire at the physical bit rate.
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        let nanos = (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bits_per_sec;
        SimDuration::from_nanos(nanos)
    }
}

/// The §5.4 hardware bug: the 3 Mb interface sometimes fails to detect a
/// collision, so instead of cleanly deferring, overlapping transmissions
/// go out anyway and "show up as corrupted packets" at the receivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionBug {
    /// Probability that a transmission which found the medium busy (and a
    /// contender queued) is corrupted rather than cleanly deferred.
    pub corrupt_prob: f64,
}

impl CollisionBug {
    /// Calibrated so two ping-pong pairs on the 3 Mb net lose roughly one
    /// packet in 2000, as the paper observed.
    pub const PAPER_3MB: CollisionBug = CollisionBug {
        corrupt_prob: 0.004,
    };
}

/// One frame arriving at one station.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Arrival instant at the destination interface (frame fully received
    /// into the interface's on-board buffer; the receiving CPU still has to
    /// copy it out, which the kernel charges separately).
    pub at: SimTime,
    /// The receiving station.
    pub dst: MacAddr,
    /// The frame, addressed (`frame.dst`) to the receiving station; its
    /// payload is the transmitted buffer itself unless corrupted.
    pub frame: Frame,
    /// True if fault injection or the collision bug corrupted the payload.
    /// Receivers must detect this via their protocol checksum; the flag
    /// exists only for medium statistics and test assertions.
    pub corrupted: bool,
}

/// Transmit window of one transmission; the deliveries themselves go
/// to the caller's [`DeliverySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxWindow {
    /// When the transmission actually started (after any CSMA deferral).
    pub tx_start: SimTime,
    /// When the medium became free again; the sending interface is also
    /// busy until this instant (single-buffered transmitter).
    pub tx_end: SimTime,
}

/// Aggregate medium statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MediumStats {
    /// Frames handed to the medium.
    pub frames_sent: u64,
    /// Total payload bytes handed to the medium.
    pub bytes_sent: u64,
    /// Deliveries produced (broadcast counts each receiver).
    pub deliveries: u64,
    /// Deliveries dropped by fault injection.
    pub dropped: u64,
    /// Deliveries corrupted (fault injection or collision bug).
    pub corrupted: u64,
    /// Duplicate deliveries produced by fault injection.
    pub duplicated: u64,
    /// Deliveries held back past a later frame (point-to-point links
    /// only; a shared segment cannot reorder).
    pub reordered: u64,
    /// Transmissions that had to defer because the medium was busy.
    pub deferrals: u64,
    /// Frames corrupted by the collision-detection bug.
    pub bug_corruptions: u64,
    /// Accumulated medium busy time.
    pub busy: SimDuration,
}

impl MediumStats {
    /// Accumulates another counter set into this one (used to total
    /// multi-segment topologies).
    pub fn absorb(&mut self, o: &MediumStats) {
        // Exhaustive destructuring: adding a counter to the struct
        // without totalling it here is a compile error, not a silent
        // under-report in multi-segment topologies.
        let MediumStats {
            frames_sent,
            bytes_sent,
            deliveries,
            dropped,
            corrupted,
            duplicated,
            reordered,
            deferrals,
            bug_corruptions,
            busy,
        } = *o;
        self.frames_sent += frames_sent;
        self.bytes_sent += bytes_sent;
        self.deliveries += deliveries;
        self.dropped += dropped;
        self.corrupted += corrupted;
        self.duplicated += duplicated;
        self.reordered += reordered;
        self.deferrals += deferrals;
        self.bug_corruptions += bug_corruptions;
        self.busy += busy;
    }

    /// Fraction of `elapsed` the medium spent busy.
    ///
    /// Meaningful for a single medium's counters; on stats summed across
    /// segments ([`MediumStats::absorb`]) `busy` aggregates every
    /// segment, so this reports N × the per-segment average and can
    /// exceed 1.0.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Offered load in bits per second over `elapsed`.
    pub fn offered_bits_per_sec(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            (self.bytes_sent * 8) as f64 / elapsed.as_secs_f64()
        }
    }
}

/// The shared broadcast medium connecting all stations.
///
/// A transmission occupies the medium for its wire time; a transmit request
/// arriving while the medium is busy defers until it is free (CSMA without
/// collisions — except in [`CollisionBug`] mode). Deliveries appear at
/// every addressed station one latency after transmission end.
#[derive(Debug)]
pub struct Ethernet {
    params: NetParams,
    /// Attached stations, kept sorted: broadcast fan-out iterates in
    /// address order, which fixes the per-receiver fault-RNG draw
    /// sequence (and hence determinism) whatever order the stations
    /// joined in, and puts the reserved gateway range `0xFF00..` last —
    /// an [`Internetwork`](crate::Internetwork) finds what its gateways
    /// heard of a run at the run's tail without looking at the rest.
    stations: Vec<MacAddr>,
    /// `stations` as every [`StationRun`] of this segment shares it.
    /// Built by the first clean broadcast after the last `register`,
    /// not per attach: a thousand stations joining copy nothing.
    shared: Option<Rc<[MacAddr]>>,
    medium_free: SimTime,
    faults: FaultPlan,
    bug: Option<CollisionBug>,
    rng: SplitMix64,
    stats: MediumStats,
}

impl Ethernet {
    /// Creates a medium with the given physical parameters.
    pub fn new(params: NetParams, seed: u64) -> Self {
        Ethernet {
            params,
            stations: Vec::new(),
            shared: None,
            medium_free: SimTime::ZERO,
            faults: FaultPlan::NONE,
            bug: None,
            rng: SplitMix64::new(seed),
            stats: MediumStats::default(),
        }
    }

    /// Creates a medium for a network flavour.
    pub fn for_kind(kind: NetworkKind, seed: u64) -> Self {
        Ethernet::new(NetParams::for_kind(kind), seed)
    }

    /// Physical parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Installs a fault plan.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Enables or disables the §5.4 collision-detection bug.
    pub fn set_collision_bug(&mut self, bug: Option<CollisionBug>) {
        self.bug = bug;
    }

    /// Registers a station so broadcasts reach it.
    pub fn register(&mut self, mac: MacAddr) {
        assert!(!mac.is_broadcast(), "cannot register the broadcast address");
        if let Err(pos) = self.stations.binary_search(&mac) {
            self.stations.insert(pos, mac);
            self.shared = None;
        }
    }

    /// Medium statistics so far.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// Transmits `frame`, whose copy into the sending interface completed
    /// at `ready`, handing what arrives to `out` in station address
    /// order — so on a segment of an [`Internetwork`] the copies the
    /// gateways hear (addresses `0xFF00..`) come last.
    ///
    /// A broadcast nothing can happen to — no fault plan, not hit by the
    /// collision bug — is emitted as one [`StationRun`] of the segment's
    /// whole station list, whose readers skip the sender: nothing is
    /// written, counted or allocated per receiver, which is what lets a
    /// 1000-station boot-storm broadcast stay cheap. Otherwise every
    /// receiver's fate is drawn in station order and it gets a
    /// [`Delivery`] of its own (two where fault injection duplicates): a
    /// handle on the transmitted payload buffer, with bytes of its own
    /// only if corrupted in flight. A unicast is one such delivery — the
    /// frame itself, moved, when nothing can happen to it.
    ///
    /// [`Internetwork`]: crate::Internetwork
    /// [`Delivery`]: crate::Delivery
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the MTU — the kernel's transfer
    /// engines are responsible for fragmentation, and exceeding the MTU
    /// there is a protocol bug worth failing loudly on.
    pub fn transmit_into(
        &mut self,
        ready: SimTime,
        frame: Frame,
        out: &mut dyn DeliverySink,
    ) -> TxWindow {
        assert!(
            frame.payload.len() <= self.params.max_payload,
            "frame payload {} exceeds MTU {}",
            frame.payload.len(),
            self.params.max_payload
        );

        let deferred = self.medium_free > ready;
        if deferred {
            self.stats.deferrals += 1;
        }
        let tx_start = ready.max(self.medium_free);
        let wire = self.params.wire_time(frame.wire_bytes());
        let tx_end = tx_start + wire;
        self.medium_free = tx_end;

        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.wire_bytes() as u64;
        self.stats.busy += wire;

        // The §5.4 bug: a deferred transmission occasionally goes out
        // overlapped with the one in progress; the collision is undetected
        // and the frame arrives corrupted.
        let bug_corrupt = match (deferred, self.bug) {
            (true, Some(bug)) => self.rng.chance(bug.corrupt_prob),
            _ => false,
        };
        if bug_corrupt {
            self.stats.bug_corruptions += 1;
        }

        let arrival = tx_end + self.params.latency;
        if !self.faults.is_none() || bug_corrupt {
            self.fan_out(out, arrival, &frame, bug_corrupt);
        } else if frame.dst.is_broadcast() {
            self.emit_run(out, arrival, frame);
        } else {
            // Nothing can happen to the one copy: it is the frame itself.
            self.stats.deliveries += 1;
            out.deliver(Delivery {
                at: arrival,
                dst: frame.dst,
                frame,
                corrupted: false,
            });
        }

        TxWindow { tx_start, tx_end }
    }

    /// A clean broadcast: every other station, as one run of them all.
    /// The fault RNG is not consulted.
    fn emit_run(&mut self, out: &mut dyn DeliverySink, at: SimTime, frame: Frame) {
        let stations = self
            .shared
            .get_or_insert_with(|| self.stations.as_slice().into());
        let len = stations.len();
        // A sender that is not attached here is nobody's to skip.
        let receivers = len - stations.binary_search(&frame.src).is_ok() as usize;
        self.stats.deliveries += receivers as u64;
        if receivers > 0 {
            let stations = stations.clone();
            out.deliver_run(StationRun {
                at,
                frame,
                stations,
                len,
            });
        }
    }

    /// Hands the delivery of `frame` to each of its receivers — every
    /// other station for a broadcast, the addressed one otherwise — one
    /// at a time, through [`FaultPlan::deliver`]. The fault RNG is
    /// consulted per receiver in station order: its fate, then a
    /// scramble per corrupted copy.
    fn fan_out(
        &mut self,
        out: &mut dyn DeliverySink,
        arrival: SimTime,
        frame: &Frame,
        bug_corrupt: bool,
    ) {
        let Ethernet {
            stations,
            rng,
            stats,
            faults,
            ..
        } = self;
        let broadcast = frame.dst.is_broadcast();
        let receivers = if broadcast {
            &stations[..]
        } else {
            std::slice::from_ref(&frame.dst)
        };
        for &dst in receivers {
            if broadcast && dst == frame.src {
                continue;
            }
            let copy = Frame {
                dst,
                src: frame.src,
                ethertype: frame.ethertype,
                payload: frame.payload.clone(),
            };
            faults.deliver(rng, stats, out, arrival, copy, bug_corrupt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;

    /// One transmit, and what it delivered.
    fn tx(e: &mut Ethernet, ready: SimTime, frame: Frame) -> (TxWindow, Vec<Delivery>) {
        let mut out = Vec::new();
        (e.transmit_into(ready, frame, &mut out), out)
    }

    fn frame(dst: MacAddr, src: MacAddr, len: usize) -> Frame {
        Frame::new(dst, src, EtherType::RAW_BENCH, vec![0xAB; len])
    }

    fn net3() -> Ethernet {
        let mut e = Ethernet::for_kind(NetworkKind::Experimental3Mb, 42);
        e.register(MacAddr(1));
        e.register(MacAddr(2));
        e.register(MacAddr(3));
        e
    }

    #[test]
    fn wire_time_matches_bit_rate() {
        let p = NetParams::for_kind(NetworkKind::Experimental3Mb);
        // 1024 bytes at 2.94 Mb/s = 2.786 ms (the paper quotes 2.784 for
        // its rounded rate).
        let t = p.wire_time(1024).as_millis_f64();
        assert!((t - 2.786).abs() < 0.01, "t={t}");
        let p10 = NetParams::for_kind(NetworkKind::Standard10Mb);
        let t10 = p10.wire_time(1000).as_millis_f64();
        assert!((t10 - 0.8).abs() < 0.01, "t10={t10}");
    }

    #[test]
    fn unicast_delivers_to_destination_only() {
        let mut e = net3();
        let (r, out) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, MacAddr(2));
        assert!(!out[0].corrupted);
        assert!(out[0].at > r.tx_end);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut e = net3();
        let (_, out) = tx(
            &mut e,
            SimTime::ZERO,
            frame(MacAddr::BROADCAST, MacAddr(1), 64),
        );
        let mut dsts: Vec<u16> = out.iter().map(|d| d.dst.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![2, 3]);
    }

    #[test]
    fn busy_medium_defers_second_transmission() {
        let mut e = net3();
        let (a, _) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
        let (b, _) = tx(
            &mut e,
            SimTime::from_micros(10),
            frame(MacAddr(1), MacAddr(3), 64),
        );
        assert_eq!(b.tx_start, a.tx_end, "second frame must defer");
        assert_eq!(e.stats().deferrals, 1);
    }

    #[test]
    fn idle_medium_transmits_immediately() {
        let mut e = net3();
        let (a, _) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        let later = a.tx_end + SimDuration::from_millis(1);
        let (b, _) = tx(&mut e, later, frame(MacAddr(1), MacAddr(2), 64));
        assert_eq!(b.tx_start, later);
        assert_eq!(e.stats().deferrals, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_frame_panics() {
        let mut e = net3();
        tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 5000));
    }

    #[test]
    fn loss_plan_drops_everything() {
        let mut e = net3();
        e.set_faults(FaultPlan::with_loss(1.0));
        let (_, out) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert!(out.is_empty());
        assert_eq!(e.stats().dropped, 1);
    }

    #[test]
    fn corruption_scrambles_payload() {
        let mut e = net3();
        e.set_faults(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::NONE
        });
        let (_, out) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(out.len(), 1);
        assert!(out[0].corrupted);
        assert_ne!(out[0].frame.payload[..], [0xAB; 64]);
    }

    #[test]
    fn duplication_produces_second_copy_later() {
        let mut e = net3();
        e.set_faults(FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::NONE
        });
        let (_, out) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(out.len(), 2);
        assert!(out[1].at > out[0].at);
        assert_eq!(e.stats().duplicated, 1);
    }

    #[test]
    fn collision_bug_corrupts_some_deferred_frames() {
        let mut e = net3();
        e.set_collision_bug(Some(CollisionBug { corrupt_prob: 1.0 }));
        // First frame occupies the medium; second defers and must be
        // corrupted by the bug.
        tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
        let (_, out) = tx(
            &mut e,
            SimTime::from_micros(5),
            frame(MacAddr(1), MacAddr(3), 64),
        );
        assert!(out[0].corrupted);
        assert_eq!(e.stats().bug_corruptions, 1);
    }

    #[test]
    fn collision_bug_spares_idle_transmissions() {
        let mut e = net3();
        e.set_collision_bug(Some(CollisionBug { corrupt_prob: 1.0 }));
        let (_, out) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert!(!out[0].corrupted);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut e = net3();
        tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
        let elapsed = SimDuration::from_millis(10);
        let u = e.stats().utilization(elapsed);
        assert!((u - 0.2786).abs() < 0.01, "u={u}");
    }
}
