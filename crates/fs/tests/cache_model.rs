//! The block cache as a model check: random `insert` / `lookup` / in-place
//! `hit` / `invalidate_file` / clock advances against a naive `Vec` of
//! entries scanned end to end, with identical returned bytes, identical
//! [`CacheStats`], `len`, per-file `version` and resident set — and so
//! the same eviction victim — after every step.
//!
//! The keys are few (three files, six blocks) and the capacities small
//! (zero included), so that a short sequence evicts, re-inserts over a
//! resident key, serves short reads, and meets leases on either side of
//! their expiry instant.
//!
//! Beside it, the property the fixed hasher bought: a cache driven the
//! same way is the same cache in another process, `Debug` output
//! included.
//!
//! A failing case prints its short operation list (the vendored proptest
//! does not shrink, so the lists are kept short instead); CI runs this in
//! release with `PROPTEST_CASES=5000` ahead of the benchmark's baseline
//! check.

use std::hash::Hasher;
use std::process::Command;

use proptest::prelude::*;
use v_fs::store::FileId;
use v_fs::{BlockCache, CacheStats};
use v_sim::{FixedHasher, SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `len` bytes of `fill`, leased for `lease_ms` from now if given.
    Insert {
        file: u16,
        block: u32,
        len: usize,
        fill: u8,
        lease_ms: Option<u64>,
    },
    /// The owned-copy wrapper.
    Lookup {
        file: u16,
        block: u32,
        count: usize,
    },
    /// The in-place hit, its bytes copied out by the closure.
    Hit {
        file: u16,
        block: u32,
        count: usize,
    },
    Invalidate {
        file: u16,
    },
    Advance {
        ms: u64,
    },
}

fn file() -> impl Strategy<Value = u16> {
    1u16..4
}

fn block() -> impl Strategy<Value = u32> {
    0u32..6
}

/// Whole blocks as often as not, so that short reads of long entries and
/// long reads of short entries both come up.
fn len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(16usize), 0usize..=16]
}

fn op() -> impl Strategy<Value = Op> {
    let lease = prop_oneof![Just(None), (0u64..6).prop_map(Some)];
    prop_oneof![
        (file(), block(), len(), 0u8..=255, lease).prop_map(
            |(file, block, len, fill, lease_ms)| Op::Insert {
                file,
                block,
                len,
                fill,
                lease_ms
            }
        ),
        (file(), block(), len()).prop_map(|(file, block, count)| Op::Lookup { file, block, count }),
        (file(), block(), len()).prop_map(|(file, block, count)| Op::Hit { file, block, count }),
        (file(), block(), len()).prop_map(|(file, block, count)| Op::Hit { file, block, count }),
        file().prop_map(|file| Op::Invalidate { file }),
        (0u64..4).prop_map(|ms| Op::Advance { ms }),
    ]
}

struct ModelEntry {
    key: (u16, u32),
    data: Vec<u8>,
    stamp: u64,
    expires: Option<SimTime>,
}

/// The reference: every question answered by scanning the whole list.
#[derive(Default)]
struct Model {
    capacity: usize,
    tick: u64,
    entries: Vec<ModelEntry>,
    /// `(file, invalidations)`.
    versions: Vec<(u16, u64)>,
    stats: CacheStats,
}

impl Model {
    fn insert(&mut self, key: (u16, u32), data: Vec<u8>, expires: Option<SimTime>) {
        if self.capacity == 0 {
            return;
        }
        let resident = self.entries.iter().any(|e| e.key == key);
        if !resident && self.entries.len() >= self.capacity {
            let coldest = self.entries.iter().map(|e| e.stamp).min().expect("full");
            self.entries.retain(|e| e.stamp != coldest);
            self.stats.evictions += 1;
        }
        self.entries.retain(|e| e.key != key);
        self.tick += 1;
        self.entries.push(ModelEntry {
            key,
            data,
            stamp: self.tick,
            expires,
        });
        self.stats.insertions += 1;
    }

    fn lookup(&mut self, key: (u16, u32), count: usize, now: SimTime) -> Option<Vec<u8>> {
        let at = self.entries.iter().position(|e| e.key == key);
        if let Some(at) = at {
            let e = &mut self.entries[at];
            if e.expires.is_some_and(|t| t <= now) {
                self.entries.remove(at);
                self.stats.lease_expirations += 1;
            } else if e.data.len() >= count {
                self.tick += 1;
                e.stamp = self.tick;
                self.stats.hits += 1;
                return Some(e.data[..count].to_vec());
            }
        }
        self.stats.misses += 1;
        None
    }

    fn invalidate(&mut self, file: u16) -> usize {
        match self.versions.iter_mut().find(|(f, _)| *f == file) {
            Some((_, v)) => *v += 1,
            None => self.versions.push((file, 1)),
        }
        let before = self.entries.len();
        self.entries.retain(|e| e.key.0 != file);
        let dropped = before - self.entries.len();
        self.stats.invalidated_blocks += dropped as u64;
        dropped
    }

    fn version(&self, file: u16) -> u64 {
        let found = self.versions.iter().find(|(f, _)| *f == file);
        found.map_or(0, |(_, v)| *v)
    }

    fn peek(&self, key: (u16, u32)) -> Option<&[u8]> {
        let found = self.entries.iter().find(|e| e.key == key);
        found.map(|e| e.data.as_slice())
    }
}

/// The cache under test beside its reference, on one clock.
struct Pair {
    cache: BlockCache,
    model: Model,
    now: SimTime,
}

impl Pair {
    fn new(capacity: usize) -> Pair {
        Pair {
            cache: BlockCache::new(capacity),
            model: Model {
                capacity,
                ..Model::default()
            },
            now: SimTime::ZERO,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Insert {
                file,
                block,
                len,
                fill,
                lease_ms,
            } => {
                // Distinct bytes, so a read cut at the wrong end shows.
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                let expires = lease_ms.map(|ms| self.now + SimDuration::from_millis(ms));
                self.model.insert((file, block), data.clone(), expires);
                self.cache.insert(FileId(file), block, data, expires);
            }
            Op::Lookup { file, block, count } => {
                let want = self.model.lookup((file, block), count, self.now);
                let got = self.cache.lookup(FileId(file), block, count, self.now);
                assert_eq!(got, want, "{op:?}");
            }
            Op::Hit { file, block, count } => {
                let want = self.model.lookup((file, block), count, self.now);
                let mut deposited = vec![0xEE; count];
                let got = self
                    .cache
                    .hit(FileId(file), block, count, self.now, |bytes| {
                        deposited.copy_from_slice(bytes);
                        bytes.len()
                    });
                assert_eq!(got, want.as_ref().map(Vec::len), "{op:?}");
                // A miss leaves the closure uncalled.
                assert_eq!(deposited, want.unwrap_or(vec![0xEE; count]), "{op:?}");
            }
            Op::Invalidate { file } => {
                let want = self.model.invalidate(file);
                assert_eq!(self.cache.invalidate_file(FileId(file)), want, "{op:?}");
            }
            Op::Advance { ms } => self.now += SimDuration::from_millis(ms),
        }
        self.check_all(op);
    }

    /// Counters, versions and the resident set — who was evicted, that
    /// is — agree.
    fn check_all(&self, after: Op) {
        assert_eq!(self.cache.stats, self.model.stats, "after {after:?}");
        assert_eq!(
            self.cache.len(),
            self.model.entries.len(),
            "after {after:?}"
        );
        assert_eq!(self.cache.is_empty(), self.model.entries.is_empty());
        for file in 0u16..5 {
            let id = FileId(file);
            assert_eq!(self.cache.version(id), self.model.version(file));
            for block in 0u32..7 {
                let want = self.model.peek((file, block));
                assert_eq!(self.cache.peek(id, block), want, "after {after:?}");
            }
        }
    }
}

proptest! {
    /// Any sequence of operations returns the same bytes and leaves the
    /// same cache as the list.
    #[test]
    fn any_sequence_matches_the_list(
        capacity in 0usize..6,
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let mut pair = Pair::new(capacity);
        for &op in &ops {
            pair.apply(op);
        }
    }
}

#[test]
fn a_lease_is_good_until_its_instant_and_not_at_it() {
    let mut pair = Pair::new(2);
    let insert = Op::Insert {
        file: 1,
        block: 0,
        len: 16,
        fill: 7,
        lease_ms: Some(3),
    };
    let hit = Op::Hit {
        file: 1,
        block: 0,
        count: 16,
    };
    pair.apply(insert);
    pair.apply(Op::Advance { ms: 2 });
    pair.apply(hit);
    assert_eq!(pair.cache.stats.hits, 1);
    pair.apply(Op::Advance { ms: 1 });
    pair.apply(hit);
    assert_eq!(pair.cache.stats.lease_expirations, 1);
    assert!(pair.cache.is_empty());
    // Gone, not merely refused: the next miss is a plain miss.
    pair.apply(hit);
    assert_eq!(pair.cache.stats.lease_expirations, 1);
    assert_eq!(pair.cache.stats.misses, 2);
}

#[test]
fn a_hit_in_place_saves_its_block_from_eviction() {
    let mut pair = Pair::new(2);
    for block in 0..2 {
        pair.apply(Op::Insert {
            file: 1,
            block,
            len: 16,
            fill: block as u8,
            lease_ms: None,
        });
    }
    pair.apply(Op::Hit {
        file: 1,
        block: 0,
        count: 8,
    });
    pair.apply(Op::Insert {
        file: 2,
        block: 0,
        len: 16,
        fill: 9,
        lease_ms: None,
    });
    assert!(pair.cache.peek(FileId(1), 0).is_some());
    assert!(pair.cache.peek(FileId(1), 1).is_none(), "the colder block");
}

/// Set in the copy of this test binary that
/// `a_cache_is_the_same_cache_in_another_process` starts.
const CHILD: &str = "V_FS_CACHE_MODEL_CHILD";

/// A cache driven by sampled operations (the `PROPTEST_SEED` replay
/// handle moves the sample, in parent and child alike): its eviction
/// victims in order, and a digest of its `Debug` output.
fn driven_cache() -> (Vec<(u16, u32)>, u64) {
    let mut rng = match proptest::seed_override() {
        Some(state) => TestRng::from_state(state),
        None => TestRng::deterministic("cache_model::driven_cache"),
    };
    let mut cache = BlockCache::new(12);
    let mut now = SimTime::ZERO;
    let mut victims = Vec::new();
    let resident = |c: &BlockCache| -> Vec<(u16, u32)> {
        let keys = (1u16..4).flat_map(|f| (0u32..16).map(move |b| (f, b)));
        keys.filter(|&(f, b)| c.peek(FileId(f), b).is_some())
            .collect()
    };
    for _ in 0..600 {
        let (file, block) = (1 + rng.below(3) as u16, rng.below(16) as u32);
        match rng.below(32) {
            0 => {
                cache.invalidate_file(FileId(file));
            }
            1..=12 => {
                let before = resident(&cache);
                let evictions = cache.stats.evictions;
                let fill = rng.below(256) as u8;
                cache.insert(FileId(file), block, vec![fill; 8], None);
                if cache.stats.evictions > evictions {
                    let after = resident(&cache);
                    victims.extend(before.into_iter().filter(|k| !after.contains(k)));
                }
            }
            _ => {
                cache.hit(FileId(file), block, 8, now, |_| ());
            }
        }
        now += SimDuration::from_millis(1);
    }
    assert!(victims.len() > 20, "only {} evictions", victims.len());
    let mut digest = FixedHasher::default();
    digest.write(format!("{cache:?}").as_bytes());
    (victims, digest.finish())
}

#[test]
fn a_cache_is_the_same_cache_in_another_process() {
    let (victims, debug_digest) = driven_cache();
    let mut victim_digest = FixedHasher::default();
    victims
        .iter()
        .for_each(|&(f, b)| victim_digest.write_u64(u64::from(f) << 32 | u64::from(b)));
    let line = format!(
        "driven cache: {} victims {:#018x}, debug {debug_digest:#018x}",
        victims.len(),
        victim_digest.finish()
    );
    if std::env::var_os(CHILD).is_some() {
        println!("{line}");
        return;
    }
    // Twice here: two maps in one process already differ in order under
    // a per-map random hasher.
    assert_eq!(driven_cache(), (victims, debug_digest));
    // And once more in a process of its own.
    let child = Command::new(std::env::current_exe().expect("this test binary"))
        .args(["a_cache_is_the_same_cache_in_another_process", "--exact"])
        .args(["--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("the test binary runs");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success(), "child failed: {stdout}");
    assert!(
        stdout.lines().any(|l| l.ends_with(&line)),
        "another process built another cache\n here: {line}\nthere: {stdout}"
    );
}
