//! The proxy's one table of transfer ends (DESIGN.md §13). A basic
//! transfer end is known by its msg_id, `(rank << 32) | seq`, so the
//! table is a row per rank and an 8-byte [`Slot`] per seq. A row is a
//! window from its oldest non-empty slot, so truncating the journal
//! frees memory.

use std::collections::VecDeque;

use crate::messages::WRID_OFF_PROXY;

/// All the proxy keeps per end; all zero is an end it knows nothing of.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub(super) struct Slot {
    /// FIN journal (durable): the low 32 and next 8 bits of the wrid
    /// that completed the end, 0 while none; a proxy wrid is
    /// `WRID_OFF_PROXY` over a work-request number from 1 up.
    wr_lo: u32,
    wr_hi: u8,
    /// Descriptors queued for the end (volatile).
    pub(super) queued: u8,
    /// Completions in `inflight` or parked in `data_retx` (volatile).
    pub(super) posted: u8,
    /// Its host cancelled it (durable).
    pub(super) cancelled: bool,
}

impl Slot {
    pub(super) fn journaled(self) -> Option<u64> {
        let wr = (u64::from(self.wr_hi) << 32) | u64::from(self.wr_lo);
        (wr != 0).then_some(WRID_OFF_PROXY | wr)
    }
}

/// One rank's slots, from seq `base` on.
#[derive(Default)]
struct Row {
    base: u64,
    slots: VecDeque<Slot>,
}

impl Row {
    fn trim(&mut self) {
        while self.slots.front() == Some(&Slot::default()) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

#[derive(Default)]
pub(super) struct Ends {
    rows: Vec<Row>,
    /// Journaled ends, all rows.
    journaled: usize,
}

impl Ends {
    pub(super) fn get(&self, msg_id: u64) -> Slot {
        let (rank, seq) = ((msg_id >> 32) as usize, msg_id & 0xFFFF_FFFF);
        let row = self.rows.get(rank);
        let slot = row.and_then(|r| r.slots.get(seq.checked_sub(r.base)? as usize));
        slot.copied().unwrap_or_default()
    }

    /// Change one slot, growing its row's window to cover it first.
    pub(super) fn edit(&mut self, msg_id: u64, f: impl FnOnce(&mut Slot)) {
        let (rank, seq) = ((msg_id >> 32) as usize, msg_id & 0xFFFF_FFFF);
        if self.rows.len() <= rank {
            self.rows.resize_with(rank + 1, Row::default);
        }
        let Some(row) = self.rows.get_mut(rank) else {
            return;
        };
        if row.slots.is_empty() {
            row.base = seq;
        }
        while seq < row.base {
            row.slots.push_front(Slot::default());
            row.base -= 1;
        }
        let i = (seq - row.base) as usize;
        if row.slots.len() <= i {
            row.slots.resize(i + 1, Slot::default());
        }
        if let Some(slot) = row.slots.get_mut(i) {
            f(slot);
        }
        row.trim();
    }

    /// Journal `msg_id` as completed by `wrid`, a proxy wrid whose
    /// work-request number fits the slot's 40 bits.
    pub(super) fn journal(&mut self, msg_id: u64, wrid: u64) {
        assert_eq!(
            wrid >> 40,
            WRID_OFF_PROXY >> 40,
            "wrid {wrid:#x}: a slot holds a 40-bit work-request number"
        );
        self.journaled += usize::from(self.get(msg_id).journaled().is_none());
        self.edit(msg_id, |s| {
            (s.wr_lo, s.wr_hi) = (wrid as u32, (wrid >> 32) as u8)
        });
    }

    pub(super) fn journal_len(&self) -> usize {
        self.journaled
    }

    /// Journal entries per rank, by rank.
    pub(super) fn journaled_per_rank(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let held = |r: &Row| r.slots.iter().filter(|s| s.journaled().is_some()).count();
        self.rows.iter().map(held).enumerate()
    }

    /// Drop the journal entries at or below `horizon(rank)` of every
    /// rank it names; how many went.
    pub(super) fn truncate(&mut self, horizon: impl Fn(usize) -> Option<u64>) -> usize {
        let before = self.journaled;
        for (rank, row) in self.rows.iter_mut().enumerate() {
            let Some(h) = horizon(rank) else { continue };
            let upto = h.saturating_add(1).saturating_sub(row.base) as usize;
            for s in row.slots.iter_mut().take(upto) {
                self.journaled -= usize::from(s.journaled().is_some());
                (s.wr_lo, s.wr_hi) = (0, 0);
            }
            row.trim();
        }
        before - self.journaled
    }

    /// Every slot in the windows, empty ones included.
    #[cfg(test)]
    pub(super) fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.rows.iter().flat_map(|r| r.slots.iter().copied())
    }

    /// A crash lost every queue and completion: zero the counts.
    pub(super) fn crash(&mut self) {
        for row in &mut self.rows {
            row.slots
                .iter_mut()
                .for_each(|s| (s.queued, s.posted) = (0, 0));
            row.trim();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;
    use rdma::{MrKey, VAddr};

    use super::super::completion::Completion;
    use super::super::End;
    use super::*;
    use crate::messages::{GroupKey, RtrInfo, RtsInfo};

    const RANKS: u64 = 3;
    const SEQS: u64 = 24;

    fn id(r: u16) -> u64 {
        ((u64::from(r) % RANKS) << 32) | (u64::from(r >> 2) % SEQS)
    }

    fn end(msg_id: u64) -> End {
        End {
            rank: (msg_id >> 32) as usize,
            req: 0,
            msg_id,
        }
    }

    /// A basic completion with one or two ends, a staging read, or
    /// group work, which settles no end.
    fn completion(kind: u16, a: u64, b: u64) -> Completion {
        match kind % 4 {
            0 => Completion::Basic {
                src: end(a),
                dst: Some(end(b)),
                staged: None,
            },
            1 => Completion::Basic {
                src: end(a),
                dst: None,
                staged: None,
            },
            2 => {
                let rts = RtsInfo {
                    src_rank: end(a).rank,
                    tag: 0,
                    addr: VAddr(0),
                    len: 8,
                    mkey: None,
                    src_rkey: None,
                    src_req: 0,
                    msg_id: a,
                    crc: None,
                    tenant: 0,
                };
                let rtr = RtrInfo {
                    dst_rank: end(b).rank,
                    addr: VAddr(0),
                    len: 8,
                    rkey: MrKey::invalid(),
                    dst_req: 0,
                    msg_id: b,
                    tenant: 0,
                };
                Completion::StagingRead {
                    pair: Box::new((rts, rtr)),
                    buf: (VAddr(0), MrKey::invalid()),
                }
            }
            _ => Completion::GroupSend {
                key: GroupKey {
                    host_rank: 0,
                    req_id: 0,
                },
                gen: 1,
            },
        }
    }

    /// What the proxy's screen makes of a descriptor for an end.
    #[derive(PartialEq, Debug)]
    enum Verdict {
        FinResend(u64),
        Reaped,
        Duplicate,
        Fresh,
    }

    /// The structures the table replaced, with the old predicates.
    #[derive(Default)]
    struct Old {
        completed_msgs: BTreeMap<u64, u64>,
        cancelled: BTreeSet<u64>,
        /// The msg_ids of the queued descriptors.
        queued: Vec<u64>,
        inflight: BTreeMap<u64, Completion>,
        data_retx: BTreeMap<u64, Completion>,
    }

    impl Old {
        fn holds(&self, msg_id: u64) -> bool {
            self.queued.contains(&msg_id)
        }

        fn basic_active(&self, msg_id: u64) -> bool {
            self.holds(msg_id)
                || self
                    .inflight
                    .values()
                    .chain(self.data_retx.values())
                    .any(|c| match c {
                        Completion::Basic { src, dst, .. } => {
                            src.msg_id == msg_id || dst.is_some_and(|d| d.msg_id == msg_id)
                        }
                        Completion::StagingRead { pair, .. } => {
                            pair.0.msg_id == msg_id || pair.1.msg_id == msg_id
                        }
                        _ => false,
                    })
        }

        fn stale_basic(&self, msg_id: u64) -> Verdict {
            if let Some(&wrid) = self.completed_msgs.get(&msg_id) {
                Verdict::FinResend(wrid)
            } else if self.cancelled.contains(&msg_id) {
                Verdict::Reaped
            } else if self.basic_active(msg_id) {
                Verdict::Duplicate
            } else {
                Verdict::Fresh
            }
        }
    }

    fn stale_basic(ends: &Ends, msg_id: u64) -> Verdict {
        let slot = ends.get(msg_id);
        if let Some(wrid) = slot.journaled() {
            Verdict::FinResend(wrid)
        } else if slot.cancelled {
            Verdict::Reaped
        } else if slot.queued > 0 || slot.posted > 0 {
            Verdict::Duplicate
        } else {
            Verdict::Fresh
        }
    }

    /// The `i`th key of `map` (mod its length), if it has any.
    fn nth_key<V>(map: &BTreeMap<u64, V>, i: u16) -> Option<u64> {
        let n = map.len().max(1);
        map.keys().nth(usize::from(i) % n).copied()
    }

    proptest! {
        /// Random sequences of everything the proxy does to a transfer
        /// end: every end gets the same screen verdict from the table as
        /// from the maps and scans it replaced, the journal holds the
        /// same entries per rank, a truncation drops as many, and no
        /// row keeps an empty prefix.
        #[test]
        fn ends_table_matches_the_maps_and_scans_it_replaces(
            ops in prop::collection::vec((0u8..10, any::<u16>(), any::<u16>(), any::<u16>()), 1..300),
        ) {
            let (mut ends, mut old) = (Ends::default(), Old::default());
            let mut next_wr = 0;
            for (step, (op, a, b, c)) in ops.into_iter().enumerate() {
                match op {
                    // A descriptor queues.
                    0 => {
                        ends.edit(id(a), |s| s.queued += 1);
                        old.queued.push(id(a));
                    }
                    // One leaves: matched or reaped.
                    1 if !old.queued.is_empty() => {
                        let gone = old.queued.remove(usize::from(a) % old.queued.len());
                        ends.edit(gone, |s| s.queued -= 1);
                    }
                    // A post.
                    2 => {
                        next_wr += 1;
                        let done = completion(c, id(a), id(b));
                        ends.count_posted(&done, true);
                        old.inflight.insert(next_wr, done);
                    }
                    // A CQE settles a post.
                    3 => {
                        if let Some(done) = nth_key(&old.inflight, a).and_then(|w| old.inflight.remove(&w)) {
                            ends.count_posted(&done, false);
                        }
                    }
                    // A corrupt payload parks for its backoff.
                    4 => {
                        if let Some(done) = nth_key(&old.inflight, a).and_then(|w| old.inflight.remove(&w)) {
                            ends.count_posted(&done, false);
                            ends.count_posted(&done, true);
                            old.data_retx.insert(u64::from(b), done);
                        }
                    }
                    // Its backoff ends: posted again under a fresh wrid.
                    5 => {
                        if let Some(done) = nth_key(&old.data_retx, a).and_then(|t| old.data_retx.remove(&t)) {
                            ends.count_posted(&done, false);
                            next_wr += 1;
                            ends.count_posted(&done, true);
                            old.inflight.insert(next_wr, done);
                        }
                    }
                    6 => {
                        let wrid = WRID_OFF_PROXY | (u64::from(b) + 1);
                        ends.journal(id(a), wrid);
                        old.completed_msgs.insert(id(a), wrid);
                    }
                    7 => {
                        ends.edit(id(a), |s| s.cancelled = true);
                        old.cancelled.insert(id(a));
                    }
                    8 => {
                        ends.crash();
                        old.queued.clear();
                        old.inflight.clear();
                        old.data_retx.clear();
                    }
                    // Truncate the ranks `c` names, each at its own
                    // horizon (five bits of `b` each).
                    9 => {
                        let over = |rank: usize| (c >> rank) & 1 == 1;
                        let horizon = |rank: usize| u64::from(b >> (5 * rank)) & 31;
                        let dropped = ends.truncate(|r| over(r).then(|| horizon(r)));
                        let before = old.completed_msgs.len();
                        old.completed_msgs.retain(|mid, _| {
                            let rank = (mid >> 32) as usize;
                            !over(rank) || (mid & 0xFFFF_FFFF) > horizon(rank)
                        });
                        prop_assert_eq!(dropped, before - old.completed_msgs.len(), "step {}", step);
                    }
                    _ => {}
                }
                for r in 0..RANKS {
                    for seq in 0..SEQS {
                        let msg_id = (r << 32) | seq;
                        let want = old.stale_basic(msg_id);
                        prop_assert_eq!(stale_basic(&ends, msg_id), want, "step {} end {:#x}", step, msg_id);
                    }
                }
                let mut per_rank = BTreeMap::new();
                for mid in old.completed_msgs.keys() {
                    *per_rank.entry((mid >> 32) as usize).or_insert(0) += 1;
                }
                let held = ends.journaled_per_rank().filter(|&(_, n)| n > 0);
                prop_assert_eq!(held.collect::<BTreeMap<_, _>>(), per_rank);
                prop_assert_eq!(ends.journal_len(), old.completed_msgs.len());
                prop_assert!(ends.rows.iter().all(|r| r.slots.front() != Some(&Slot::default())));
            }
        }
    }
}
