//! Lightweight statistics collected during a run.

use std::collections::BTreeMap;

use crate::time::SimDelta;

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

    /// Add `n` to counter `name` (creating it at zero). The key is
    /// allocated on first use only: this runs several times per message.
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

    /// Merge another stats object into this one.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.times {
            *self.times.entry(k.clone()).or_insert(SimDelta::ZERO) += *v;
        }
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
    fn merge_combines() {
        let mut a = Stats::new();
        a.incr("c", 1);
        a.add_time("t", SimDelta::from_ns(10));
        let mut b = Stats::new();
        b.incr("c", 2);
        b.incr("d", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("d"), 7);
        assert_eq!(a.time("t"), SimDelta::from_ns(10));
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
