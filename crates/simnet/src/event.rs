//! The pending-event queue.
//!
//! Events fire in `(time, insertion)` order: ties in virtual time break by
//! insertion order, so the whole simulation is deterministic. Each distinct
//! pending instant owns one FIFO bucket of events, and a min-heap orders
//! the instants. A bucket's insertion order is exactly the tie order, so a
//! pop walks a heap of instants rather than one of events, and the events
//! themselves sit in contiguous buckets. An instant finds its bucket
//! through a hash map; an emptied bucket goes back to a free list with its
//! capacity, so a queue in steady state allocates nothing.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::process::{Payload, Pid};
use crate::time::SimTime;

/// What happens when an event fires.
pub(crate) enum EventKind {
    /// Wake a process that is sleeping/computing.
    Wake(Pid),
    /// Deposit a message into a process mailbox (waking it if it is waiting
    /// for mail).
    Deliver(Pid, Payload),
}

pub(crate) struct QueuedEvent {
    pub(crate) at: SimTime,
    pub(crate) kind: EventKind,
}

/// Hasher of the instant index: a multiply between two xor-shifts of the
/// instant's picoseconds, so both the low bits (the table slot) and the
/// high bits (the slot tag) vary even though instants are multiples of a
/// round unit. Instants are not chosen by an adversary, so SipHash's flood
/// resistance buys nothing; the map is never iterated, so its order cannot
/// reach the simulation.
#[derive(Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Min-queue of future events.
#[derive(Default)]
pub(crate) struct EventQueue {
    /// Every pending instant with its bucket, earliest on top. Instants
    /// are distinct, so the bucket never decides the order.
    instants: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The bucket of each pending instant.
    bucket_of: HashMap<SimTime, u32, BuildHasherDefault<InstantHasher>>,
    /// Bucket slab: a pending instant's events in insertion order.
    buckets: Vec<VecDeque<EventKind>>,
    /// Emptied buckets, capacity kept.
    free: Vec<u32>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Push behind every event already pending at `at`.
    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind) {
        let bucket = match self.bucket_of.entry(at) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let bucket = self.free.pop().unwrap_or_else(|| {
                    let fresh = u32::try_from(self.buckets.len()).expect("under 2^32 instants");
                    self.buckets.push(VecDeque::new());
                    fresh
                });
                e.insert(bucket);
                self.instants.push(Reverse((at, bucket)));
                bucket
            }
        };
        self.buckets[bucket as usize].push_back(kind);
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let &Reverse((at, bucket)) = self.instants.peek()?;
        let events = &mut self.buckets[bucket as usize];
        let kind = events.pop_front().expect("a pending instant has an event");
        if events.is_empty() {
            self.instants.pop();
            self.bucket_of.remove(&at);
            self.free.push(bucket);
        }
        Some(QueuedEvent { at, kind })
    }

    /// Virtual time of the earliest pending event, if any.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        self.instants.peek().map(|&Reverse((at, _))| at)
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.instants.is_empty()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        // Free buckets are empty, so every bucket can be counted.
        self.buckets.iter().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wake(pid: u32) -> EventKind {
        EventKind::Wake(Pid(pid))
    }

    fn pid_of(ev: &QueuedEvent) -> u32 {
        match ev.kind {
            EventKind::Wake(p) => p.0,
            EventKind::Deliver(p, _) => p.0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(30), wake(3));
        q.push(SimTime::from_ps(10), wake(1));
        q.push(SimTime::from_ps(20), wake(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| pid_of(&e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ps(5);
        for pid in 0..10 {
            q.push(t, wake(pid));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| pid_of(&e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.push(SimTime::from_ps(20), wake(0));
        q.push(SimTime::from_ps(10), wake(1));
        assert_eq!(q.peek_at(), Some(SimTime::from_ps(10)));
        q.pop();
        assert_eq!(q.peek_at(), Some(SimTime::from_ps(20)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, wake(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn refills_reuse_emptied_buckets() {
        let mut q = EventQueue::new();
        for cycle in 0..50u64 {
            let base = cycle * 1_000;
            for pid in 0..64u32 {
                q.push(SimTime::from_ps(base + u64::from(pid % 16)), wake(pid));
            }
            while q.pop().is_some() {}
            assert_eq!(q.buckets.len(), 16, "cycle {cycle}");
            assert_eq!(q.free.len(), 16);
            assert!(q.bucket_of.is_empty());
        }
    }

    proptest! {
        // Against a reference: a `Vec` stably sorted by instant, so ties
        // keep insertion order. Small offsets from the last popped instant
        // (0 included) give heavy ties and pushes into the instant being
        // drained, as a simulation makes them.
        #[test]
        fn matches_a_stably_sorted_reference(
            ops in prop::collection::vec((0u8..5, 0u64..6), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u32)> = Vec::new();
            let mut floor = 0u64;
            let mut next = 0u32;
            for (op, offset) in ops {
                if op < 3 {
                    let at = SimTime::from_ps(floor + offset);
                    q.push(at, wake(next));
                    model.push((at, next));
                    model.sort_by_key(|&(at, _)| at);
                    next += 1;
                } else {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    let got = q.pop().map(|ev| (ev.at, pid_of(&ev)));
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        floor = at.as_ps();
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peek_at(), model.first().map(|&(at, _)| at));
            }
            let rest: Vec<_> = std::iter::from_fn(|| q.pop())
                .map(|ev| (ev.at, pid_of(&ev)))
                .collect();
            prop_assert_eq!(rest, model);
            prop_assert!(q.is_empty());
        }
    }
}
