//! Index-addressed containers for the hot kernel state.
//!
//! Every per-host table the protocol engine touches on the fast path
//! used to be a `std::collections::HashMap`. At boot-storm scale that
//! costs a hash plus a probe sequence per message on tables whose keys
//! are already small dense integers (local uids) or whose live
//! population is tiny (a handful of in-flight transfers, ≤ a dozen
//! aliens). The two containers here replace them:
//!
//! * [`UidSlab`] — a slot-per-uid arena for tables keyed by the 16-bit
//!   local uid (process table, outbound moves, inbound fetches): lookup
//!   is one bounds-checked index.
//! * [`LinearMap`] — an insertion-ordered flat map for tables whose
//!   live population stays small (inbound moves, outbound serves, name
//!   registrations, raw handlers): lookup is a short linear scan with
//!   no hashing, and iteration order is *deterministic* (insertion
//!   order), unlike `HashMap`'s per-instance random order — which is
//!   what lets two runs of the same storm produce byte-identical
//!   reports.
//!
//! The APIs deliberately mirror the `HashMap` calls they replaced
//! (`get`/`get_mut`/`insert`/`remove`/`retain`/`values`), so the
//! protocol code reads unchanged.

/// A slot-per-key arena keyed by a dense `u16` id.
///
/// Storage is a vector indexed directly by the key, grown on demand;
/// the kernel's uid allocator keeps keys dense (it scans for free uids
/// starting at 1), so the vector stays near the live population size.
#[derive(Debug)]
pub struct UidSlab<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for UidSlab<T> {
    fn default() -> Self {
        UidSlab {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> UidSlab<T> {
    /// The value at `k`, if present.
    pub fn get(&self, k: &u16) -> Option<&T> {
        self.slots.get(*k as usize).and_then(|s| s.as_ref())
    }

    /// Mutable access to the value at `k`, if present.
    pub fn get_mut(&mut self, k: &u16) -> Option<&mut T> {
        self.slots.get_mut(*k as usize).and_then(|s| s.as_mut())
    }

    /// The value at `a` beside mutable access to the one at `b`, if both
    /// are present and `a != b`.
    pub fn get_beside_mut(&mut self, a: &u16, b: &u16) -> Option<(&T, &mut T)> {
        let (a, b) = (*a as usize, *b as usize);
        if a == b || a.max(b) >= self.slots.len() {
            return None;
        }
        let (low, high) = self.slots.split_at_mut(a.max(b));
        let (at_a, at_b) = if a < b {
            (&low[a], &mut high[0])
        } else {
            (&high[0], &mut low[b])
        };
        Some((at_a.as_ref()?, at_b.as_mut()?))
    }

    /// True if `k` holds a value.
    pub fn contains_key(&self, k: &u16) -> bool {
        self.get(k).is_some()
    }

    /// Inserts `v` at `k`, returning the previous occupant.
    pub fn insert(&mut self, k: u16, v: T) -> Option<T> {
        let i = k as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `k`.
    pub fn remove(&mut self, k: &u16) -> Option<T> {
        let v = self.slots.get_mut(*k as usize).and_then(|s| s.take());
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live values in key order (deterministic).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Live `(key, value)` pairs in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (u16, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u16, v)))
    }

    /// Removes entries failing the predicate, in key order.
    pub fn retain(&mut self, mut f: impl FnMut(&u16, &mut T) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !f(&(i as u16), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }
}

/// An insertion-ordered flat map for small live populations.
#[derive(Debug)]
pub struct LinearMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for LinearMap<K, V> {
    fn default() -> Self {
        LinearMap {
            entries: Vec::new(),
        }
    }
}

impl<K: PartialEq + Copy, V> LinearMap<K, V> {
    /// The value under `k`, if present.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.entries.iter().find(|(e, _)| e == k).map(|(_, v)| v)
    }

    /// Mutable access to the value under `k`, if present.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|(e, _)| e == k)
            .map(|(_, v)| v)
    }

    /// True if `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        self.entries.iter().any(|(e, _)| e == k)
    }

    /// Inserts or replaces the value under `k`, returning the previous
    /// one. A fresh key appends (iteration stays insertion-ordered).
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.get_mut(&k) {
            Some(slot) => Some(std::mem::replace(slot, v)),
            None => {
                self.entries.push((k, v));
                None
            }
        }
    }

    /// Removes and returns the value under `k`. Later entries keep
    /// their relative order (stable removal — iteration order is part
    /// of the determinism contract).
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let i = self.entries.iter().position(|(e, _)| e == k)?;
        Some(self.entries.remove(i).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Removes entries failing the predicate, preserving order.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uid_slab_behaves_like_a_map() {
        let mut s: UidSlab<&'static str> = UidSlab::default();
        assert!(s.is_empty());
        assert_eq!(s.insert(3, "three"), None);
        assert_eq!(s.insert(200, "big"), None);
        assert_eq!(s.insert(3, "replaced"), Some("three"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&3), Some(&"replaced"));
        assert!(s.contains_key(&200));
        assert!(!s.contains_key(&4));
        assert_eq!(s.remove(&3), Some("replaced"));
        assert_eq!(s.remove(&3), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(&200), Some("big"));
        assert!(s.is_empty());
        assert_eq!(s.get(&200), None);
    }

    #[test]
    fn uid_slab_lends_two_distinct_slots_at_once() {
        let mut s: UidSlab<u32> = UidSlab::default();
        s.insert(2, 20);
        s.insert(7, 70);
        for (a, b) in [(2u16, 7u16), (7, 2)] {
            let (from, to) = s.get_beside_mut(&a, &b).expect("both present");
            assert_eq!((*from, *to), (u32::from(a) * 10, u32::from(b) * 10));
            *to += 1;
            *to -= 1;
        }
        // The same slot twice, an empty slot, a slot past the end.
        for (a, b) in [(2u16, 2u16), (2, 3), (3, 2), (2, 8), (8, 2), (900, 901)] {
            assert!(s.get_beside_mut(&a, &b).is_none(), "({a}, {b})");
        }
    }

    #[test]
    fn uid_slab_iterates_in_key_order() {
        let mut s: UidSlab<u32> = UidSlab::default();
        for k in [9u16, 1, 5, 3] {
            s.insert(k, u32::from(k) * 10);
        }
        let keys: Vec<u16> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        let vals: Vec<u32> = s.values().copied().collect();
        assert_eq!(vals, vec![10, 30, 50, 90]);
        s.retain(|&k, _| k > 3);
        let keys: Vec<u16> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![5, 9]);
    }

    #[test]
    fn linear_map_keeps_insertion_order_across_removal() {
        let mut m: LinearMap<(u32, u32), i32> = LinearMap::default();
        m.insert((1, 1), 11);
        m.insert((2, 2), 22);
        m.insert((3, 3), 33);
        assert_eq!(m.insert((2, 2), 220), Some(22));
        assert_eq!(m.remove(&(1, 1)), Some(11));
        let order: Vec<i32> = m.values().copied().collect();
        assert_eq!(order, vec![220, 33], "stable removal keeps order");
        m.retain(|_, v| *v > 100);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&(2, 2)));
        assert_eq!(m.get(&(3, 3)), None);
    }
}
