//! The file server's disk — a unit of one or more striped arms.
//!
//! The paper's analysis only needs a disk's *latency distribution*: Table
//! 6-2 sweeps 10/15/20 ms, §6.1 estimates 20 ms per access, and §7 treats
//! disk scheduling as "identical to conventional multi-user systems".
//! Each **arm** charges one positioning latency (seek and rotation
//! together) plus a fixed 1 MB/s per-byte transfer time, with optional
//! uniform jitter, and serializes its own requests. A unit reshaped by
//! [`DiskModel::with_arms`] carries several independent arms with
//! consecutive blocks **striped** across them one block at a time, RAID-0
//! style, so concurrent requests for different blocks overlap their
//! seeks — the classic multi-arm capacity lift.
//!
//! The single-arm default is bit-identical to the historical one-arm
//! model: same request arithmetic, same jitter stream, same counters.

use std::collections::VecDeque;

use v_sim::{SimDuration, SimTime, SplitMix64};

use crate::BLOCK_SIZE;

/// Transfer time per byte off the platters: a 1983-plausible 1 MB/s rate.
const PER_BYTE: SimDuration = SimDuration::from_nanos(1_000);
/// Default jitter seed (no jitter drawn unless jitter is nonzero).
const DEFAULT_SEED: u64 = 0xD15C;

/// Counters a disk arm accumulates — the queueing-center view of the
/// spindle that capacity analysis needs: how often requests piled up
/// behind the arm, how deep the pile got, and how busy the arm was.
/// [`DiskModel::stats`] returns the [`DiskStats::absorb`]-aggregated
/// view across every arm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Requests issued.
    pub requests: u64,
    /// Requests that had to wait behind an earlier one (arm busy).
    pub queued: u64,
    /// Total arm-busy (service) time.
    pub busy: SimDuration,
    /// Total time requests spent waiting in the queue.
    pub waited: SimDuration,
    /// Deepest queue observed, counting the request in service.
    pub max_queue_depth: u32,
}

impl DiskStats {
    /// Arm utilization over an elapsed interval. For an aggregate over
    /// `n` arms this can exceed 1.0; divide by the arm count (or use
    /// [`DiskModel::utilization`]) for the normalized figure.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Folds another arm's counters into this one: counts and times sum,
    /// the queue-depth high-water mark takes the max.
    pub fn absorb(&mut self, other: &DiskStats) {
        self.requests += other.requests;
        self.queued += other.queued;
        self.busy += other.busy;
        self.waited += other.waited;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// What a disk unit is built from — set only through [`DiskModel::fixed`],
/// [`DiskModel::with_jitter`] and [`DiskModel::with_arms`].
#[derive(Debug, Clone, Copy)]
struct DiskParams {
    /// Positioning latency (seek and rotation) per request.
    access: SimDuration,
    /// Uniform extra jitter in `[0, jitter)` per request.
    jitter: SimDuration,
    /// Seed for the jitter stream (arm `i` draws from `seed + i`).
    seed: u64,
    /// Independent arms blocks are striped across.
    arms: usize,
}

impl DiskParams {
    /// The idle unit.
    fn build(self) -> DiskModel {
        let arms = (0..self.arms)
            .map(|i| Arm {
                rng: SplitMix64::new(self.seed.wrapping_add(i as u64)),
                busy_until: SimTime::ZERO,
                inflight: VecDeque::new(),
                stats: DiskStats::default(),
            })
            .collect();
        DiskModel { params: self, arms }
    }
}

/// One independent arm: its own queue, jitter stream and counters.
#[derive(Debug, Clone)]
struct Arm {
    rng: SplitMix64,
    busy_until: SimTime,
    /// Completion times of requests not yet known to have drained
    /// (pruned lazily against `now` on each request).
    inflight: VecDeque<SimTime>,
    stats: DiskStats,
}

/// A disk unit of one or more arms (see the module docs).
#[derive(Debug, Clone)]
pub struct DiskModel {
    params: DiskParams,
    arms: Vec<Arm>,
}

impl DiskModel {
    /// A single-arm disk with fixed access latency and a 1983-plausible
    /// 1 MB/s transfer rate.
    pub fn fixed(access: SimDuration) -> DiskModel {
        DiskParams {
            access,
            jitter: SimDuration::ZERO,
            seed: DEFAULT_SEED,
            arms: 1,
        }
        .build()
    }

    /// Number of independent arms.
    pub fn arms(&self) -> usize {
        self.arms.len()
    }

    /// Rebuilds this unit with `n` arms (same mechanics, idle state).
    /// Used by the file-server spawn path to apply
    /// `FileServerConfig::disk_arms`; with `n == 1` the result is
    /// indistinguishable from a freshly built single-arm unit.
    pub fn with_arms(self, n: usize) -> DiskModel {
        assert!(n >= 1, "a disk needs at least one arm");
        DiskParams {
            arms: n,
            ..self.params
        }
        .build()
    }

    /// Adds uniform jitter drawn from `seed` (idle state).
    pub fn with_jitter(self, jitter: SimDuration, seed: u64) -> DiskModel {
        DiskParams {
            jitter,
            seed,
            ..self.params
        }
        .build()
    }

    /// The counters accumulated so far, aggregated across arms.
    pub fn stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for arm in &self.arms {
            total.absorb(&arm.stats);
        }
        total
    }

    /// Per-arm counters, in arm order.
    pub fn per_arm_stats(&self) -> Vec<DiskStats> {
        self.arms.iter().map(|a| a.stats).collect()
    }

    /// Normalized utilization over an elapsed interval: total busy time
    /// divided by `arms × elapsed`, so a fully driven striped unit reads
    /// 1.0 like a fully driven single arm.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        self.stats().utilization(elapsed) / self.arms.len() as f64
    }

    /// The arm serving block `block` of file `file_key`: consecutive
    /// blocks of a file walk the arms round-robin, and different files
    /// start on different arms so concurrent single-block loads spread.
    pub fn arm_for(&self, file_key: u32, block: u32) -> usize {
        ((file_key as u64 + block as u64) % self.arms.len() as u64) as usize
    }

    /// Issues a request for `bytes` at time `now` on one arm; returns
    /// when the data is in memory. Requests on the same arm queue behind
    /// each other.
    fn request_on(&mut self, arm_idx: usize, now: SimTime, bytes: usize) -> SimTime {
        let mut service = self.service_estimate(bytes);
        let jitter = self.params.jitter;
        let arm = &mut self.arms[arm_idx];
        while arm.inflight.front().is_some_and(|&done| done <= now) {
            arm.inflight.pop_front();
        }
        let depth = arm.inflight.len() as u32;
        let start = now.max(arm.busy_until);
        if !jitter.is_zero() {
            service += SimDuration::from_nanos(arm.rng.below(jitter.as_nanos().max(1)));
        }
        arm.busy_until = start + service;
        arm.inflight.push_back(arm.busy_until);
        arm.stats.requests += 1;
        if depth > 0 {
            arm.stats.queued += 1;
        }
        arm.stats.max_queue_depth = arm.stats.max_queue_depth.max(depth + 1);
        arm.stats.busy += service;
        arm.stats.waited += start.since(now);
        arm.busy_until
    }

    /// Issues a request for `bytes` at time `now` on the first arm;
    /// returns when the data is in memory. The historical single-arm
    /// entry point — callers that know the block use
    /// [`DiskModel::request_striped`].
    pub fn request(&mut self, now: SimTime, bytes: usize) -> SimTime {
        self.request_on(0, now, bytes)
    }

    /// Issues a single-block-class request routed to the arm striping
    /// assigns `(file_key, block)`.
    pub fn request_striped(
        &mut self,
        now: SimTime,
        file_key: u32,
        block: u32,
        bytes: usize,
    ) -> SimTime {
        let arm = self.arm_for(file_key, block);
        self.request_on(arm, now, bytes)
    }

    /// Issues a multi-block span read starting at `start_block`. On a
    /// single-arm unit this is exactly one [`DiskModel::request`]; on a
    /// striped unit the span's bytes are bucketed by owning arm and each
    /// touched arm services its share as one request (one positioning
    /// charge per arm, transfers in parallel) — the data is in memory
    /// at the latest arm's completion, which is returned.
    pub fn request_span(
        &mut self,
        now: SimTime,
        file_key: u32,
        start_block: u32,
        bytes: usize,
    ) -> SimTime {
        if self.arms.len() == 1 {
            return self.request_on(0, now, bytes);
        }
        let mut per_arm = vec![0usize; self.arms.len()];
        let mut block = start_block;
        let mut rem = bytes;
        while rem > 0 {
            let take = rem.min(BLOCK_SIZE);
            per_arm[self.arm_for(file_key, block)] += take;
            rem -= take;
            block += 1;
        }
        let mut done = now;
        for (arm_idx, share) in per_arm.into_iter().enumerate() {
            if share > 0 {
                done = done.max(self.request_on(arm_idx, now, share));
            }
        }
        done
    }

    /// The service time the *next* request would take (no queueing),
    /// useful for read-ahead planning.
    pub fn service_estimate(&self, bytes: usize) -> SimDuration {
        self.params.access + SimDuration::from_nanos(PER_BYTE.as_nanos() * bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_plus_transfer() {
        let mut d = DiskModel::fixed(SimDuration::from_millis(15));
        let done = d.request(SimTime::ZERO, 512);
        // 15 ms + 512 us.
        assert_eq!(done, SimTime::from_micros(15_512));
    }

    #[test]
    fn requests_queue() {
        let mut d = DiskModel::fixed(SimDuration::from_millis(10));
        let a = d.request(SimTime::ZERO, 0);
        let b = d.request(SimTime::from_millis(1), 0);
        assert_eq!(a, SimTime::from_millis(10));
        assert_eq!(b, SimTime::from_millis(20));
        // After it drains, a late request starts fresh.
        let c = d.request(SimTime::from_millis(100), 0);
        assert_eq!(c, SimTime::from_millis(110));
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut d = DiskModel::fixed(SimDuration::from_millis(10))
            .with_jitter(SimDuration::from_millis(5), 7);
        for i in 0..50 {
            let now = SimTime::from_millis(i * 100);
            let done = d.request(now, 0);
            let service = done.since(now);
            assert!(service >= SimDuration::from_millis(10));
            assert!(service < SimDuration::from_millis(15));
        }
    }

    #[test]
    fn service_estimate_matches_fixed_part() {
        let d = DiskModel::fixed(SimDuration::from_millis(20));
        assert_eq!(d.service_estimate(512), SimDuration::from_micros(20_512));
    }

    #[test]
    fn stats_track_queueing_and_busy_time() {
        let mut d = DiskModel::fixed(SimDuration::from_millis(10));
        // Three back-to-back requests at t=0: depths 1, 2, 3.
        d.request(SimTime::ZERO, 0);
        d.request(SimTime::ZERO, 0);
        d.request(SimTime::ZERO, 0);
        let s = d.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.queued, 2, "two requests waited behind the arm");
        assert_eq!(s.max_queue_depth, 3);
        assert_eq!(s.busy, SimDuration::from_millis(30));
        // Waits: 0 + 10 + 20 ms.
        assert_eq!(s.waited, SimDuration::from_millis(30));
        // After the queue drains, a fresh request sees an idle arm.
        d.request(SimTime::from_millis(100), 0);
        let s = d.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.queued, 2);
        assert_eq!(s.max_queue_depth, 3);
        // Utilization: 40 ms busy over a 110 ms horizon.
        let u = s.utilization(SimDuration::from_millis(110));
        assert!((u - 40.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn striped_arms_overlap_independent_blocks() {
        // Four simultaneous one-block reads of four consecutive blocks
        // on a 4-arm unit: every request lands on its own arm and they
        // all complete in one access time, where a single arm would have
        // serialized them.
        let mut d = DiskModel::fixed(SimDuration::from_millis(10)).with_arms(4);
        for block in 0..4 {
            let done = d.request_striped(SimTime::ZERO, 0, block, 0);
            assert_eq!(done, SimTime::from_millis(10), "block {block}");
        }
        let s = d.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.queued, 0, "no request waited behind another");
        assert_eq!(s.max_queue_depth, 1);
        for arm in d.per_arm_stats() {
            assert_eq!(arm.requests, 1);
        }
        // Normalized utilization over the 10 ms horizon: all arms busy.
        assert!((d.utilization(SimDuration::from_millis(10)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn span_splits_across_arms() {
        // An 8-block span on 2 arms: each arm seeks once and transfers
        // half the bytes in parallel.
        let mut two = DiskModel::fixed(SimDuration::from_millis(10)).with_arms(2);
        let done = two.request_span(SimTime::ZERO, 0, 0, 8 * BLOCK_SIZE);
        assert_eq!(done, SimTime::from_micros(10_000 + 4 * 512));
        let s = two.stats();
        assert_eq!(s.requests, 2, "one request per touched arm");
        // The same span on one arm is a single full-size request —
        // bit-identical to the historical model.
        let mut one = DiskModel::fixed(SimDuration::from_millis(10));
        let done1 = one.request_span(SimTime::ZERO, 0, 0, 8 * BLOCK_SIZE);
        assert_eq!(done1, one_arm_reference());
        assert_eq!(one.stats().requests, 1);
    }

    fn one_arm_reference() -> SimTime {
        let mut d = DiskModel::fixed(SimDuration::from_millis(10));
        d.request(SimTime::ZERO, 8 * BLOCK_SIZE)
    }

    #[test]
    fn absorb_aggregates_counters() {
        let mut a = DiskStats {
            requests: 3,
            queued: 1,
            busy: SimDuration::from_millis(30),
            waited: SimDuration::from_millis(5),
            max_queue_depth: 2,
        };
        let b = DiskStats {
            requests: 2,
            queued: 2,
            busy: SimDuration::from_millis(20),
            waited: SimDuration::from_millis(15),
            max_queue_depth: 5,
        };
        a.absorb(&b);
        assert_eq!(a.requests, 5);
        assert_eq!(a.queued, 3);
        assert_eq!(a.busy, SimDuration::from_millis(50));
        assert_eq!(a.waited, SimDuration::from_millis(20));
        assert_eq!(a.max_queue_depth, 5);
    }

    #[test]
    fn with_arms_reshapes_and_one_is_identity() {
        let base = DiskModel::fixed(SimDuration::from_millis(15));
        let mut reshaped = base.clone().with_arms(1);
        let mut orig = base;
        assert_eq!(
            reshaped.request(SimTime::ZERO, 512),
            orig.request(SimTime::ZERO, 512)
        );
        let four = DiskModel::fixed(SimDuration::from_millis(15)).with_arms(4);
        assert_eq!(four.arms(), 4);
    }
}
