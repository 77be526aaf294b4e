//! Small deterministic PRNG for fault injection and workload generation.

/// SplitMix64 pseudo-random number generator.
///
/// Chosen because it is tiny, fast, passes BigCrush when used as a 64-bit
/// generator, and — most importantly here — is trivially reproducible from
/// a single `u64` seed. Every source of randomness in the simulator
/// (packet loss, disk latency jitter, workload block selection) owns its
/// own `SplitMix64` forked from the cluster seed, so adding randomness to
/// one subsystem never perturbs another subsystem's stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Forks an independent generator; the child's stream is decorrelated
    /// from the parent's by an extra scrambling round.
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        let mixed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SplitMix64::new(mixed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift bounded rejection is unnecessary at these scales;
        // modulo bias is negligible for n << 2^64 and irrelevant for a
        // performance simulator.
        self.next_u64() % n
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        lo + self.below(hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut r = SplitMix64::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
        // All residues eventually appear.
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = SplitMix64::new(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            match r.range_inclusive(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SplitMix64::new(1234);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
