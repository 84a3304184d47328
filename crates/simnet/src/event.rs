//! The pending-event queue.
//!
//! Events are ordered by `(time, sequence)`, the sequence being the
//! queue's insertion counter: ties in virtual time break by insertion
//! order, so the whole simulation is deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// The queue's insertion counter at the push.
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl QueuedEvent {
    /// The ordering key.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Min-queue of future events.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    next_seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Push, keyed by the queue's own insertion counter.
    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent { at, seq, kind });
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        self.heap.pop()
    }

    /// Virtual time of the earliest pending event, if any.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
