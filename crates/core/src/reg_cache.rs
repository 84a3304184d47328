//! Registration caches for cross-GVMI transfers (paper §VII-B).
//!
//! The paper's design: *"we use an array of Binary Search Trees to
//! represent the registration cache of both the host and DPU sides. The
//! array is indexed by remote rank and the BST is indexed by memory
//! address."* A cache hit returns the stored key; a miss triggers the
//! (expensive) registration and inserts the entry.
//!
//! The same structure serves three roles:
//! * host-side GVMI cache: `(remote proxy rank) × (addr, size) → mkey`;
//! * host-side IB cache: `(remote rank) × (addr, size) → rkey`;
//! * DPU-side cross-registration cache:
//!   `(host rank) × (addr, size) → (mkey, mkey2)` — the stored `mkey` is
//!   validated against the one the host supplies, since a re-registered
//!   buffer would produce a fresh mkey (the paper argues this cannot
//!   happen for a fixed `(addr, size, GVMI)`; we check anyway and treat a
//!   mismatch as a miss).

use std::collections::BTreeMap;

use crate::events::CacheOutcome;

/// Two-level registration cache: an array indexed by rank, each slot a
/// search tree keyed by `(address, size)`.
///
/// Optionally bounded: a real registration cache pins memory with the
/// HCA, so production MPIs cap the number of cached registrations and
/// evict least-recently-used entries. [`RankAddrCache::with_capacity`]
/// enables that behaviour; the default is unbounded (the paper's
/// description).
#[derive(Debug)]
pub struct RankAddrCache<V> {
    per_rank: Vec<BTreeMap<(u64, u64), V>>,
    /// Monotone use clock and per-entry last-use stamps (only maintained
    /// when a capacity is set).
    capacity: Option<usize>,
    clock: u64,
    last_use: BTreeMap<(usize, u64, u64), u64>,
    /// Pin refcounts: entries with a positive count back in-flight
    /// transfers and are never chosen for capacity eviction.
    pinned: BTreeMap<(usize, u64, u64), u32>,
    hits: u64,
    misses: u64,
    stale: u64,
    evictions: u64,
}

impl<V> RankAddrCache<V> {
    /// Cache with slots for `ranks` remote ranks, unbounded.
    pub fn new(ranks: usize) -> Self {
        RankAddrCache {
            per_rank: (0..ranks).map(|_| BTreeMap::new()).collect(),
            capacity: None,
            clock: 0,
            last_use: BTreeMap::new(),
            pinned: BTreeMap::new(),
            hits: 0,
            misses: 0,
            stale: 0,
            evictions: 0,
        }
    }

    /// Bound the total entry count; inserting past the bound evicts the
    /// least-recently-used entry (whose registration the caller should
    /// deregister).
    pub fn with_capacity(ranks: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let mut c = Self::new(ranks);
        c.capacity = Some(capacity);
        c
    }

    fn touch(&mut self, rank: usize, addr: u64, size: u64) {
        if self.capacity.is_some() {
            self.clock += 1;
            self.last_use.insert((rank, addr, size), self.clock);
        }
    }

    /// Look up `(rank, addr, size)`, counting a hit or miss.
    pub fn get(&mut self, rank: usize, addr: u64, size: u64) -> Option<&V> {
        if self.per_rank[rank].contains_key(&(addr, size)) {
            self.hits += 1;
            self.touch(rank, addr, size);
            self.per_rank[rank].get(&(addr, size))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Look up with a validity predicate: an entry failing `valid` is
    /// evicted and counted as *stale* (plus a miss).
    pub fn get_validated(
        &mut self,
        rank: usize,
        addr: u64,
        size: u64,
        valid: impl FnOnce(&V) -> bool,
    ) -> Option<&V> {
        crate::profile::profile_scope!(CacheLookup);
        let entry_ok = match self.per_rank[rank].get(&(addr, size)) {
            Some(v) => valid(v),
            None => false,
        };
        if entry_ok {
            self.hits += 1;
            self.touch(rank, addr, size);
            self.per_rank[rank].get(&(addr, size))
        } else {
            if self.per_rank[rank].remove(&(addr, size)).is_some() {
                self.last_use.remove(&(rank, addr, size));
                self.pinned.remove(&(rank, addr, size));
                self.stale += 1;
            }
            self.misses += 1;
            None
        }
    }

    /// Like [`RankAddrCache::get_validated`], but also reports whether
    /// the lookup was a hit, a clean miss, or a stale eviction — the
    /// distinction the conformance checker's cache-coherence invariant
    /// observes through [`crate::ProtoEvent::CrossRegCacheLookup`].
    pub fn get_validated_outcome(
        &mut self,
        rank: usize,
        addr: u64,
        size: u64,
        valid: impl FnOnce(&V) -> bool,
    ) -> (Option<&V>, CacheOutcome) {
        let present = self.per_rank[rank].contains_key(&(addr, size));
        let stale_before = self.stale;
        let found = self.get_validated(rank, addr, size, valid).is_some();
        let outcome = if found {
            CacheOutcome::Hit
        } else if present && self.stale > stale_before {
            CacheOutcome::Stale
        } else {
            CacheOutcome::Miss
        };
        (
            self.per_rank[rank].get(&(addr, size)).filter(|_| found),
            outcome,
        )
    }

    /// Insert (or replace) an entry. With a capacity set, this may evict
    /// the least-recently-used entry, which is returned so the caller can
    /// deregister it.
    pub fn insert(
        &mut self,
        rank: usize,
        addr: u64,
        size: u64,
        v: V,
    ) -> Option<(usize, u64, u64, V)> {
        let mut evicted = None;
        if let Some(cap) = self.capacity {
            let new_entry = !self.per_rank[rank].contains_key(&(addr, size));
            if new_entry && self.len() >= cap {
                // Evict the stalest *unpinned* entry. With every entry
                // pinned the cache grows past its budget instead — the
                // overshoot is bounded by the number of in-flight
                // transfers, and dropping a live registration would be
                // worse (the invariant eviction must never violate).
                if let Some((&(r, a, s), _)) = self
                    .last_use
                    .iter()
                    .filter(|(k, _)| !self.pinned.contains_key(*k))
                    .min_by_key(|(_, &used)| used)
                {
                    let val = self.per_rank[r]
                        .remove(&(a, s))
                        .expect("indexed entry exists");
                    self.last_use.remove(&(r, a, s));
                    self.evictions += 1;
                    evicted = Some((r, a, s, val));
                }
            }
        }
        self.per_rank[rank].insert((addr, size), v);
        self.touch(rank, addr, size);
        evicted
    }

    /// Remove an entry, returning it. Explicit removal (and stale
    /// eviction) trumps pinning: the registration is gone, so any pin
    /// record is dropped with the entry.
    pub fn evict(&mut self, rank: usize, addr: u64, size: u64) -> Option<V> {
        self.last_use.remove(&(rank, addr, size));
        self.pinned.remove(&(rank, addr, size));
        self.per_rank[rank].remove(&(addr, size))
    }

    /// Pin an entry (refcounted) so capacity eviction skips it while a
    /// transfer is in flight. Returns whether the entry was present.
    pub fn pin(&mut self, rank: usize, addr: u64, size: u64) -> bool {
        if self.per_rank[rank].contains_key(&(addr, size)) {
            *self.pinned.entry((rank, addr, size)).or_insert(0) += 1;
            true
        } else {
            false
        }
    }

    /// Drop one pin reference; a no-op if the entry is gone or unpinned.
    pub fn unpin(&mut self, rank: usize, addr: u64, size: u64) {
        if let Some(c) = self.pinned.get_mut(&(rank, addr, size)) {
            *c -= 1;
            if *c == 0 {
                self.pinned.remove(&(rank, addr, size));
            }
        }
    }

    /// Whether an entry currently holds at least one pin.
    pub fn is_pinned(&self, rank: usize, addr: u64, size: u64) -> bool {
        self.pinned.contains_key(&(rank, addr, size))
    }

    /// Number of capacity evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total number of cached entries.
    pub fn len(&self) -> usize {
        self.per_rank.iter().map(|t| t.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses, stale)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c: RankAddrCache<u64> = RankAddrCache::new(4);
        assert!(c.get(1, 0x1000, 64).is_none());
        c.insert(1, 0x1000, 64, 99);
        assert_eq!(c.get(1, 0x1000, 64), Some(&99));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn ranks_are_isolated() {
        let mut c: RankAddrCache<u64> = RankAddrCache::new(2);
        c.insert(0, 0x1000, 64, 1);
        assert!(c.get(1, 0x1000, 64).is_none());
        assert_eq!(c.get(0, 0x1000, 64), Some(&1));
    }

    #[test]
    fn size_is_part_of_key() {
        let mut c: RankAddrCache<u64> = RankAddrCache::new(1);
        c.insert(0, 0x1000, 64, 1);
        c.insert(0, 0x1000, 128, 2);
        assert_eq!(c.get(0, 0x1000, 64), Some(&1));
        assert_eq!(c.get(0, 0x1000, 128), Some(&2));
    }

    #[test]
    fn validation_evicts_stale_entries() {
        let mut c: RankAddrCache<(u64, u64)> = RankAddrCache::new(1);
        c.insert(0, 0x2000, 32, (7, 70)); // (mkey, mkey2)
                                          // Host now presents mkey 8: stored entry is stale.
        assert!(c
            .get_validated(0, 0x2000, 32, |(mkey, _)| *mkey == 8)
            .is_none());
        assert_eq!(c.stats(), (0, 1, 1));
        assert!(c.is_empty());
        // Re-insert with the new mkey and validate again.
        c.insert(0, 0x2000, 32, (8, 80));
        assert_eq!(
            c.get_validated(0, 0x2000, 32, |(mkey, _)| *mkey == 8),
            Some(&(8, 80))
        );
    }

    #[test]
    fn evict_removes() {
        let mut c: RankAddrCache<u64> = RankAddrCache::new(1);
        c.insert(0, 1, 1, 5);
        assert_eq!(c.evict(0, 1, 1), Some(5));
        assert!(c.get(0, 1, 1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_capacity_evicts_stalest() {
        let mut c: RankAddrCache<u64> = RankAddrCache::with_capacity(2, 3);
        assert!(c.insert(0, 1, 1, 10).is_none());
        assert!(c.insert(0, 2, 1, 20).is_none());
        assert!(c.insert(1, 3, 1, 30).is_none());
        // Touch (0,1,1) so (0,2,1) becomes the LRU entry.
        assert_eq!(c.get(0, 1, 1), Some(&10));
        let evicted = c.insert(1, 4, 1, 40).expect("capacity eviction");
        assert_eq!(evicted, (0, 2, 1, 20));
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(0, 2, 1).is_none(), "evicted entry gone");
        assert_eq!(c.get(1, 4, 1), Some(&40));
    }

    #[test]
    fn lru_replacing_existing_key_does_not_evict() {
        let mut c: RankAddrCache<u64> = RankAddrCache::with_capacity(1, 2);
        c.insert(0, 1, 1, 1);
        c.insert(0, 2, 2, 2);
        // Overwrite in place at capacity: no eviction.
        assert!(c.insert(0, 1, 1, 9).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0, 1, 1), Some(&9));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c: RankAddrCache<u64> = RankAddrCache::new(1);
        for i in 0..1000 {
            assert!(c.insert(0, i, 1, i).is_none());
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn len_counts_across_ranks() {
        let mut c: RankAddrCache<u64> = RankAddrCache::new(3);
        c.insert(0, 1, 1, 1);
        c.insert(1, 1, 1, 1);
        c.insert(2, 2, 2, 2);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn pinned_entries_survive_capacity_pressure() {
        let mut c: RankAddrCache<u64> = RankAddrCache::with_capacity(1, 2);
        c.insert(0, 1, 1, 10);
        c.insert(0, 2, 1, 20);
        assert!(c.pin(0, 1, 1));
        assert!(c.pin(0, 2, 1));
        // Both entries pinned: inserting past the cap evicts nothing.
        assert!(c.insert(0, 3, 1, 30).is_none());
        assert_eq!(c.len(), 3);
        // Unpin one; the next overflow insert evicts exactly it.
        c.unpin(0, 1, 1);
        let evicted = c.insert(0, 4, 1, 40).expect("eviction");
        assert_eq!(evicted, (0, 1, 1, 10));
        assert!(c.is_pinned(0, 2, 1));
        assert_eq!(c.get(0, 2, 1), Some(&20));
    }

    #[test]
    fn pin_is_refcounted_and_missing_entries_unpinnable() {
        let mut c: RankAddrCache<u64> = RankAddrCache::with_capacity(1, 1);
        assert!(!c.pin(0, 9, 9), "absent entry cannot be pinned");
        c.insert(0, 1, 1, 1);
        assert!(c.pin(0, 1, 1));
        assert!(c.pin(0, 1, 1));
        c.unpin(0, 1, 1);
        assert!(c.is_pinned(0, 1, 1), "one reference still held");
        c.unpin(0, 1, 1);
        assert!(!c.is_pinned(0, 1, 1));
        c.unpin(0, 1, 1); // extra unpin is a no-op
        let evicted = c.insert(0, 2, 1, 2).expect("now evictable");
        assert_eq!(evicted.3, 1);
    }

    #[test]
    fn outcome_lookup_classifies_hit_miss_stale() {
        let mut c: RankAddrCache<(u64, u64)> = RankAddrCache::new(1);
        let (v, o) = c.get_validated_outcome(0, 0x10, 8, |_| true);
        assert!(v.is_none());
        assert_eq!(o, CacheOutcome::Miss);
        c.insert(0, 0x10, 8, (7, 70));
        let (v, o) = c.get_validated_outcome(0, 0x10, 8, |(m, _)| *m == 7);
        assert_eq!(v, Some(&(7, 70)));
        assert_eq!(o, CacheOutcome::Hit);
        let (v, o) = c.get_validated_outcome(0, 0x10, 8, |(m, _)| *m == 8);
        assert!(v.is_none());
        assert_eq!(o, CacheOutcome::Stale);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap as Model;

    /// A small operation language over the cache, mirrored against a
    /// plain map model.
    #[derive(Clone, Debug)]
    enum Op {
        Insert {
            rank: usize,
            addr: u64,
            size: u64,
            v: u64,
        },
        Get {
            rank: usize,
            addr: u64,
            size: u64,
        },
        Evict {
            rank: usize,
            addr: u64,
            size: u64,
        },
        Pin {
            rank: usize,
            addr: u64,
            size: u64,
        },
        Unpin {
            rank: usize,
            addr: u64,
            size: u64,
        },
    }

    const RANKS: usize = 4;

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Small key domains so lookups overlap with earlier inserts, and
        // overlapping (addr, size) pairs sharing an addr stay distinct.
        let key = (0usize..RANKS, 0u64..6, 1u64..4);
        prop_oneof![
            (key.clone(), 0u64..1000).prop_map(|((rank, addr, size), v)| Op::Insert {
                rank,
                addr,
                size,
                v
            }),
            key.clone()
                .prop_map(|(rank, addr, size)| Op::Get { rank, addr, size }),
            key.clone()
                .prop_map(|(rank, addr, size)| Op::Evict { rank, addr, size }),
            key.clone()
                .prop_map(|(rank, addr, size)| Op::Pin { rank, addr, size }),
            key.prop_map(|(rank, addr, size)| Op::Unpin { rank, addr, size }),
        ]
    }

    proptest! {
        /// The unbounded cache behaves exactly like a map keyed by the
        /// full (rank, addr, size) triple: ranks are isolated (the
        /// array-of-BSTs index) and (addr, size) pairs that overlap in
        /// memory but differ in either component are distinct entries.
        #[test]
        fn unbounded_cache_matches_map_model(ops in prop::collection::vec(op_strategy(), 1..64)) {
            let mut cache: RankAddrCache<u64> = RankAddrCache::new(RANKS);
            let mut model: Model<(usize, u64, u64), u64> = Model::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for op in &ops {
                match *op {
                    Op::Insert { rank, addr, size, v } => {
                        prop_assert!(cache.insert(rank, addr, size, v).is_none());
                        model.insert((rank, addr, size), v);
                    }
                    Op::Get { rank, addr, size } => {
                        let got = cache.get(rank, addr, size).copied();
                        let want = model.get(&(rank, addr, size)).copied();
                        prop_assert_eq!(got, want);
                        if want.is_some() { hits += 1 } else { misses += 1 }
                    }
                    Op::Evict { rank, addr, size } => {
                        let got = cache.evict(rank, addr, size);
                        let want = model.remove(&(rank, addr, size));
                        prop_assert_eq!(got, want);
                    }
                    // Pins are inert without a capacity: they must not
                    // perturb contents or hit/miss accounting.
                    Op::Pin { rank, addr, size } => {
                        let pinned = cache.pin(rank, addr, size);
                        prop_assert_eq!(pinned, model.contains_key(&(rank, addr, size)));
                    }
                    Op::Unpin { rank, addr, size } => cache.unpin(rank, addr, size),
                }
            }
            prop_assert_eq!(cache.len(), model.len());
            let (h, m, s) = cache.stats();
            prop_assert_eq!((h, m, s), (hits, misses, 0));
        }

        /// A bounded cache stays within its capacity (unless pins force
        /// a bounded overshoot), never evicts a pinned entry, and
        /// everything it still holds agrees with the model.
        #[test]
        fn bounded_cache_respects_capacity_and_pins(
            cap in 1usize..8,
            ops in prop::collection::vec(op_strategy(), 1..64),
        ) {
            let mut cache: RankAddrCache<u64> = RankAddrCache::with_capacity(RANKS, cap);
            let mut model: Model<(usize, u64, u64), u64> = Model::new();
            let mut pins: Model<(usize, u64, u64), u32> = Model::new();
            let mut pinned_ever = false;
            for op in &ops {
                match *op {
                    Op::Insert { rank, addr, size, v } => {
                        if let Some((r, a, s, _)) = cache.insert(rank, addr, size, v) {
                            prop_assert!(
                                !pins.contains_key(&(r, a, s)),
                                "capacity eviction removed a pinned entry"
                            );
                            model.remove(&(r, a, s));
                        }
                        model.insert((rank, addr, size), v);
                    }
                    Op::Get { rank, addr, size } => {
                        let got = cache.get(rank, addr, size).copied();
                        prop_assert_eq!(got, model.get(&(rank, addr, size)).copied());
                    }
                    Op::Evict { rank, addr, size } => {
                        let got = cache.evict(rank, addr, size);
                        prop_assert_eq!(got, model.remove(&(rank, addr, size)));
                        // Explicit removal drops any pin with the entry.
                        pins.remove(&(rank, addr, size));
                    }
                    Op::Pin { rank, addr, size } => {
                        if cache.pin(rank, addr, size) {
                            prop_assert!(model.contains_key(&(rank, addr, size)));
                            *pins.entry((rank, addr, size)).or_insert(0) += 1;
                            pinned_ever = true;
                        } else {
                            prop_assert!(!model.contains_key(&(rank, addr, size)));
                        }
                    }
                    Op::Unpin { rank, addr, size } => {
                        cache.unpin(rank, addr, size);
                        if let Some(c) = pins.get_mut(&(rank, addr, size)) {
                            *c -= 1;
                            if *c == 0 {
                                pins.remove(&(rank, addr, size));
                            }
                        }
                    }
                }
                // Pins can force a bounded overshoot; without any pin in
                // the history the cap is strict.
                prop_assert!(cache.len() <= cap || pinned_ever);
                prop_assert_eq!(cache.len(), model.len());
                // Every pinned entry is still resident.
                for &(r, a, s) in pins.keys() {
                    prop_assert!(cache.is_pinned(r, a, s));
                    prop_assert_eq!(
                        cache.get(r, a, s).copied(),
                        model.get(&(r, a, s)).copied()
                    );
                }
            }
        }

        /// Validated lookups agree with plain lookups when the predicate
        /// accepts, and evict exactly the probed entry when it rejects.
        #[test]
        fn stale_eviction_removes_only_probed_entry(
            ops in prop::collection::vec(op_strategy(), 1..48),
            probe_rank in 0usize..RANKS,
            probe_addr in 0u64..6,
            probe_size in 1u64..4,
        ) {
            let mut cache: RankAddrCache<u64> = RankAddrCache::new(RANKS);
            let mut model: Model<(usize, u64, u64), u64> = Model::new();
            for op in &ops {
                if let Op::Insert { rank, addr, size, v } = *op {
                    cache.insert(rank, addr, size, v);
                    model.insert((rank, addr, size), v);
                }
            }
            let (_, outcome) =
                cache.get_validated_outcome(probe_rank, probe_addr, probe_size, |_| false);
            let had = model.remove(&(probe_rank, probe_addr, probe_size)).is_some();
            prop_assert_eq!(outcome, if had { CacheOutcome::Stale } else { CacheOutcome::Miss });
            // Every other entry survives untouched.
            for (&(r, a, s), &v) in &model {
                prop_assert_eq!(cache.get(r, a, s).copied(), Some(v));
            }
            prop_assert_eq!(cache.len(), model.len());
        }
    }
}
