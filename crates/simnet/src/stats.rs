//! Statistics collected during a run: counters by interned key, kept in a
//! lock-free per-run table and assembled into a [`Stats`] when the run
//! ends.
//!
//! A counter is named by a [`StatKey`] `static` declared where it is
//! bumped. Its first use interns the name into a process-wide registry,
//! which hands out dense ids, one per distinct name; every later use reads
//! the id back from the `static`. A run's [`StatTable`] is indexed by
//! that id, so [`ProcessCtx::stat_incr`](crate::ProcessCtx::stat_incr) is
//! one relaxed atomic add: no lock and no string compare, and no
//! allocation once the run has touched the key's segment.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::time::SimDelta;

/// The name of a counter or time accumulator, resolved to a dense id on
/// first use. Declare one as a `static` where it is used:
///
/// ```
/// use simnet::{Simulation, StatKey};
///
/// let mut sim = Simulation::new(0);
/// sim.spawn("p", |ctx| {
///     static HOPS: StatKey = StatKey::new("ring.hops");
///     ctx.stat_incr(&HOPS, 1);
/// });
/// assert_eq!(sim.run().unwrap().stats.counter("ring.hops"), 1);
/// ```
///
/// Keys are deduplicated by name across the whole process: two `static`s
/// with one name, in one crate or in two, bump one counter.
pub struct StatKey {
    name: &'static str,
    /// The interned id plus one; zero until the first use resolves it.
    id: AtomicU32,
}

impl StatKey {
    /// A key for `name`, resolved on first use.
    pub const fn new(name: &'static str) -> StatKey {
        StatKey {
            name,
            id: AtomicU32::new(0),
        }
    }

    /// The counter's name, as it appears in [`Stats`].
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The dense id of this key's name. Relaxed is enough: the id
    /// publishes nothing, and a thread that has not seen it yet resolves
    /// it again under the registry lock, to the same value.
    #[inline]
    fn id(&self) -> usize {
        match self.id.load(Ordering::Relaxed) {
            0 => self.resolve(),
            n => (n - 1) as usize,
        }
    }

    #[cold]
    fn resolve(&self) -> usize {
        let id = REGISTRY.lock().intern(self.name);
        self.id.store(id + 1, Ordering::Relaxed);
        id as usize
    }
}

/// Every counter name the process has used, by id.
struct Registry {
    names: Vec<&'static str>,
    ids: BTreeMap<&'static str, u32>,
}

impl Registry {
    fn intern(&mut self, name: &'static str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("more distinct counter names than u32 ids");
        self.names.push(name);
        self.ids.insert(name, id);
        id
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    names: Vec::new(),
    ids: BTreeMap::new(),
});

/// `Slot::zero` bit: the counter was bumped by zero.
const COUNTED: u8 = 1;
/// `Slot::zero` bit: the time accumulator was bumped by zero.
const TIMED: u8 = 2;

/// One key's counter and time accumulator in one run.
#[derive(Default)]
struct Slot {
    count: AtomicU64,
    time_ps: AtomicU64,
    /// Marks a key bumped only by zero, so that it still appears in the
    /// report; a nonzero value is its own mark.
    zero: AtomicU8,
}

/// Ids below `1 << FIRST_SHIFT` live in the first segment; each later
/// segment is twice the size of the one before. Small, because a run
/// that bumps only a key or two should not pay for a large first
/// segment.
const FIRST_SHIFT: u32 = 3;
/// Enough segments for every `u32` id.
const SEGMENTS: usize = (u32::BITS + 1 - FIRST_SHIFT) as usize;

/// One run's counters, indexed by [`StatKey`] id. It grows by segments
/// allocated on first touch, and an allocated segment never moves, so a
/// bump needs no lock. Only one simulated process of a simulation runs
/// at a time, so the atomics are never contended; they make the table
/// `Sync`, not a rendezvous.
pub(crate) struct StatTable {
    segs: [OnceLock<Box<[Slot]>>; SEGMENTS],
}

impl StatTable {
    pub(crate) fn new() -> StatTable {
        StatTable {
            segs: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The slot of `id`: segment `s` holds ids
    /// `[(2^s - 1) << FIRST_SHIFT, (2^(s+1) - 1) << FIRST_SHIFT)`.
    #[inline]
    fn slot(&self, id: usize) -> &Slot {
        let x = id as u64 + (1 << FIRST_SHIFT);
        let seg = (x.ilog2() - FIRST_SHIFT) as usize;
        let off = (x - (1u64 << (seg as u32 + FIRST_SHIFT))) as usize;
        let slots = self.segs[seg].get_or_init(|| {
            (0..1usize << (seg as u32 + FIRST_SHIFT))
                .map(|_| Slot::default())
                .collect()
        });
        &slots[off]
    }

    /// Add `n` to `key`'s counter.
    #[inline]
    pub(crate) fn incr(&self, key: &StatKey, n: u64) {
        let slot = self.slot(key.id());
        slot.count.fetch_add(n, Ordering::Relaxed);
        if n == 0 {
            slot.zero.fetch_or(COUNTED, Ordering::Relaxed);
        }
    }

    /// Add `d` to `key`'s time accumulator.
    #[inline]
    pub(crate) fn add_time(&self, key: &StatKey, d: SimDelta) {
        let slot = self.slot(key.id());
        slot.time_ps.fetch_add(d.as_ps(), Ordering::Relaxed);
        if d == SimDelta::ZERO {
            slot.zero.fetch_or(TIMED, Ordering::Relaxed);
        }
    }

    /// Read `key`'s counter so far.
    pub(crate) fn counter(&self, key: &StatKey) -> u64 {
        self.slot(key.id()).count.load(Ordering::Relaxed)
    }

    /// Add every key this table has seen to `stats`, by name. The run is
    /// over when this is called, so the values are final.
    pub(crate) fn fold_into(&self, stats: &mut Stats) {
        let reg = REGISTRY.lock();
        for (seg, slots) in self.segs.iter().enumerate() {
            let Some(slots) = slots.get() else { continue };
            let base = ((1usize << seg) - 1) << FIRST_SHIFT;
            for (off, slot) in slots.iter().enumerate() {
                let name = || reg.names[base + off];
                let zero = slot.zero.load(Ordering::Relaxed);
                let count = slot.count.load(Ordering::Relaxed);
                if count != 0 || zero & COUNTED != 0 {
                    stats.incr(name(), count);
                }
                let ps = slot.time_ps.load(Ordering::Relaxed);
                if ps != 0 || zero & TIMED != 0 {
                    stats.add_time(name(), SimDelta::from_ps(ps));
                }
            }
        }
    }
}

/// Named counters and time accumulators. Keys are free-form strings; upper
/// layers use dotted names like `"gvmi.cache.hit"`.
#[derive(Default, Debug, Clone)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    times: BTreeMap<String, SimDelta>,
}

impl Stats {
    /// Empty stats.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Add `n` to counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Read counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Accumulate virtual time under `name`.
    pub fn add_time(&mut self, name: &str, d: SimDelta) {
        match self.times.get_mut(name) {
            Some(t) => *t += d,
            None => {
                self.times.insert(name.to_string(), d);
            }
        }
    }

    /// Read accumulated time under `name`.
    pub fn time(&self, name: &str) -> SimDelta {
        self.times.get(name).copied().unwrap_or(SimDelta::ZERO)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate time accumulators in name order.
    pub fn times(&self) -> impl Iterator<Item = (&str, SimDelta)> {
        self.times.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        assert_eq!(s.counter("x"), 0);
        s.incr("x", 2);
        s.incr("x", 3);
        assert_eq!(s.counter("x"), 5);
    }

    #[test]
    fn times_accumulate() {
        let mut s = Stats::new();
        s.add_time("t", SimDelta::from_us(1));
        s.add_time("t", SimDelta::from_us(2));
        assert_eq!(s.time("t"), SimDelta::from_us(3));
        assert_eq!(s.time("missing"), SimDelta::ZERO);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = Stats::new();
        s.incr("b", 1);
        s.incr("a", 1);
        let keys: Vec<&str> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
