//! The proxy's basic descriptors (paper Fig. 8).
//!
//! **One descriptor table, one descriptor routine.** [`Descriptors`]
//! owns both sides of the pool and keeps its counts. An RTS and an RTR
//! take one path, `on_descriptor`: screen it, note the host's horizon,
//! refuse it with `QueueFull` past the pool or its tenant's share
//! ([`crate::TenantQuota::free_slots`]; one tenant's share is the whole
//! pool), then match the oldest partner or queue it. The descriptor is
//! the one the RTS or RTR carried on the wire.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use simnet::StatKey;

use super::{End, Proxy, ProxyState};
use crate::config::{TenantId, TenantQuota};
use crate::events::{CtrlKind, FinKind, ProtoEvent};
use crate::messages::{CtrlMsg, RtrInfo, RtsInfo};

impl RtsInfo {
    pub(super) fn end(&self) -> End {
        End {
            rank: self.src_rank,
            req: self.src_req,
            msg_id: self.msg_id,
        }
    }
}

impl RtrInfo {
    /// `None` for a one-sided put, which has no receive request.
    pub(super) fn end(&self) -> Option<End> {
        (self.dst_req != usize::MAX).then_some(End {
            rank: self.dst_rank,
            req: self.dst_req,
            msg_id: self.msg_id,
        })
    }
}

/// Matching key: `(src_rank, dst_rank, tag)`.
pub(super) type MatchKey = (usize, usize, u64);

/// One unmatched basic descriptor: the send or the receive side of a
/// transfer.
pub(super) enum Desc {
    Rts(RtsInfo),
    Rtr(RtrInfo),
}

impl Desc {
    fn is_rts(&self) -> bool {
        matches!(self, Desc::Rts(_))
    }

    /// The host end that posted it, and that end's tenant.
    fn owner(&self) -> (End, TenantId) {
        match self {
            Desc::Rts(r) => (r.end(), r.tenant),
            Desc::Rtr(r) => {
                let (rank, req, msg_id) = (r.dst_rank, r.dst_req, r.msg_id);
                (End { rank, req, msg_id }, r.tenant)
            }
        }
    }
}

/// The event of a descriptor (`rts`, else an RTR) reaching the proxy.
pub(super) fn at_proxy(key: MatchKey, msg_id: u64, rts: bool) -> ProtoEvent {
    let (src_rank, dst_rank, tag) = key;
    if rts {
        ProtoEvent::RtsAtProxy {
            src_rank,
            dst_rank,
            tag,
            msg_id,
        }
    } else {
        ProtoEvent::RtrAtProxy {
            src_rank,
            dst_rank,
            tag,
            msg_id,
        }
    }
}

/// The proxy's one descriptor pool (paper Fig. 8): unmatched RTS and
/// RTR descriptors, FIFO per [`MatchKey`], with their counts. A key
/// holds one side only, since a descriptor whose partner is queued
/// matches instead of queueing, and a key goes with its last
/// descriptor: applications use fresh tags every round, and the
/// duplicate check walks every queue. The counts always equal the
/// contents; tenant ids are [`OffloadConfig::tenant_of`] values, so
/// always inside the roster the table was sized for.
pub(super) struct Descriptors {
    queues: BTreeMap<MatchKey, VecDeque<Desc>>,
    /// Queued RTS and RTR descriptors.
    depths: (usize, usize),
    /// Queued descriptors per tenant.
    per_tenant: Vec<usize>,
}

impl Descriptors {
    pub(super) fn new(tenants: usize) -> Descriptors {
        Descriptors {
            queues: BTreeMap::new(),
            depths: (0, 0),
            per_tenant: vec![0; tenants.max(1)],
        }
    }

    /// Would a descriptor of this side (`rts`) match a queued partner
    /// rather than queue itself?
    fn pairs(&self, key: MatchKey, rts: bool) -> bool {
        let front = self.queues.get(&key).and_then(VecDeque::front);
        front.map(Desc::is_rts) == Some(!rts)
    }

    /// Match `d` against the oldest partner queued under `key`, or queue
    /// it; the matched pair, if any.
    fn offer(&mut self, key: MatchKey, d: Desc) -> Option<(RtsInfo, RtrInfo)> {
        let partner = self.take_partner(key, d.is_rts());
        match (d, partner) {
            (Desc::Rts(rts), Some(Desc::Rtr(rtr))) | (Desc::Rtr(rtr), Some(Desc::Rts(rts))) => {
                Some((rts, rtr))
            }
            (d, _) => {
                self.count(&d, true);
                // Fresh tags every round: a key rarely queues a second
                // descriptor, so room for one is the right first size.
                let q = self.queues.entry(key);
                q.or_insert_with(|| VecDeque::with_capacity(1)).push_back(d);
                None
            }
        }
    }

    /// Pop the oldest descriptor under `key` if it is the other side.
    fn take_partner(&mut self, key: MatchKey, rts: bool) -> Option<Desc> {
        let Entry::Occupied(mut slot) = self.queues.entry(key) else {
            return None;
        };
        if slot.get().front().map(Desc::is_rts) != Some(!rts) {
            return None;
        }
        let partner = slot.get_mut().pop_front();
        if slot.get().is_empty() {
            slot.remove();
        }
        if let Some(p) = &partner {
            self.count(p, false);
        }
        partner
    }

    /// Drop every descriptor of transfer `msg_id`, from both sides; how
    /// many there were.
    fn reap(&mut self, msg_id: u64) -> usize {
        let mut reaped = Vec::new();
        for q in self.queues.values_mut() {
            let (gone, kept): (VecDeque<Desc>, _) =
                q.drain(..).partition(|d| d.owner().0.msg_id == msg_id);
            *q = kept;
            reaped.extend(gone);
        }
        self.queues.retain(|_, q| !q.is_empty());
        for d in &reaped {
            self.count(d, false);
        }
        reaped.len()
    }

    /// Is a descriptor of transfer `msg_id` queued?
    pub(super) fn holds(&self, msg_id: u64) -> bool {
        let mut queued = self.queues.values().flatten();
        queued.any(|d| d.owner().0.msg_id == msg_id)
    }

    pub(super) fn len(&self) -> usize {
        self.depths.0 + self.depths.1
    }

    fn tenant_len(&self, tenant: TenantId) -> usize {
        self.per_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Descriptors `tenant` may still queue under its `quota`
    /// ([`TenantQuota::free_slots`]).
    pub(super) fn free_slots(&self, quota: TenantQuota, tenant: TenantId) -> usize {
        quota.free_slots(self.len(), self.tenant_len(tenant))
    }

    pub(super) fn clear(&mut self) {
        *self = Descriptors::new(self.per_tenant.len());
    }

    /// Count `d` in (`add`) or out.
    fn count(&mut self, d: &Desc, add: bool) {
        let side = if d.is_rts() {
            &mut self.depths.0
        } else {
            &mut self.depths.1
        };
        for n in std::iter::once(side).chain(self.per_tenant.get_mut(d.owner().1)) {
            *n = if add { *n + 1 } else { *n - 1 };
        }
    }
}

impl Proxy<'_> {
    /// The host cancelled transfer `msg_id`: suppress every future match
    /// for it, then reap any descriptor already queued for it. The host
    /// has already failed the request; completing it now would hand
    /// bytes to a caller that gave up on them.
    pub(super) fn on_cancel(&self, st: &mut ProxyState, msg_id: u64) {
        st.cancelled.insert(msg_id);
        let reaped = st.descriptors.reap(msg_id);
        if reaped > 0 {
            static REAPED: StatKey = StatKey::new("offload.cancel.reaped");
            self.ctx.stat_incr(&REAPED, reaped as u64);
            self.ctx.emit(&ProtoEvent::ReqReaped { msg_id });
        }
    }

    /// Act on one basic descriptor (an RTS or RTR) queued under `key`:
    /// screen it, note its host's completion horizon, refuse it if it
    /// would queue past its share, then match it or queue it.
    pub(super) fn on_descriptor(
        &self,
        st: &mut ProxyState,
        key: MatchKey,
        d: Desc,
        ack_horizon: u64,
    ) {
        static RTS: StatKey = StatKey::new("offload.proxy.rts");
        static RTR: StatKey = StatKey::new("offload.proxy.rtr");
        let (end, tenant) = d.owner();
        let (fin, kind, stat) = match d {
            Desc::Rts(_) => (FinKind::Send, CtrlKind::Rts, &RTS),
            Desc::Rtr(_) => (FinKind::Recv, CtrlKind::Rtr, &RTR),
        };
        if self.stale_basic(st, end, fin, kind) {
            return;
        }
        self.note_horizon(st, end.rank, ack_horizon);
        if !st.descriptors.pairs(key, d.is_rts()) && self.refuse(st, end.rank, end.msg_id, tenant) {
            return;
        }
        self.charge_entries(1);
        self.ctx.stat_incr(stat, 1);
        self.ctx.emit(&at_proxy(key, end.msg_id, d.is_rts()));
        match st.descriptors.offer(key, d) {
            Some((rts, rtr)) => self.pair_matched(st, rts, rtr),
            // Right after an enqueue, so a sink tracking high-water
            // marks sees every local maximum.
            None => {
                let (send_depth, recv_depth) = st.descriptors.depths;
                self.ctx.emit(&ProtoEvent::ProxyQueueDepth {
                    send_depth,
                    recv_depth,
                });
            }
        }
    }

    /// Refuse a descriptor that would bust a bounded pool or its
    /// tenant's share by queueing: count it and nack its host (`rank`)
    /// with `QueueFull`.
    fn refuse(&self, st: &mut ProxyState, rank: usize, msg_id: u64, tenant: TenantId) -> bool {
        let quota = self.cfg.quota(tenant);
        if quota.cap == 0 || st.descriptors.free_slots(quota, tenant) > 0 {
            return false;
        }
        static QUEUE_FULL: StatKey = StatKey::new("offload.credit.queue_full");
        self.ctx.stat_incr(&QUEUE_FULL, 1);
        self.ctx.emit(&ProtoEvent::QueueFullNack { msg_id });
        let host = self.cluster.host_ep(rank);
        self.send_ctrl(st, host, CtrlMsg::QueueFull { msg_id });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma::{MrKey, VAddr};

    fn rts(src_rank: usize, msg_id: u64, tenant: TenantId) -> Desc {
        Desc::Rts(RtsInfo {
            src_rank,
            tag: 0,
            addr: VAddr(0),
            len: 8,
            mkey: None,
            src_rkey: None,
            src_req: 0,
            msg_id,
            crc: None,
            tenant,
        })
    }

    fn rtr(dst_rank: usize, msg_id: u64, tenant: TenantId) -> Desc {
        Desc::Rtr(RtrInfo {
            dst_rank,
            addr: VAddr(0),
            len: 8,
            rkey: MrKey::invalid(),
            dst_req: 0,
            msg_id,
            tenant,
        })
    }

    enum Op {
        /// Offer a descriptor; the `(rts, rtr)` msg-ids it should match.
        Offer(MatchKey, Desc, Option<(u64, u64)>),
        /// Reap a transfer; how many descriptors should go.
        Reap(u64, usize),
        Clear,
    }

    #[test]
    fn descriptor_counts_always_equal_the_contents() {
        use Op::{Clear, Offer, Reap};
        let (a, b, c) = ((0, 1, 7), (1, 0, 7), (0, 1, 8));
        let steps = [
            Offer(a, rts(0, 1, 0), None),
            Offer(a, rts(0, 2, 0), None),
            Offer(b, rtr(0, 3, 1), None),
            // The oldest partner matches, FIFO.
            Offer(a, rtr(1, 4, 1), Some((1, 4))),
            Reap(2, 1),
            // Key `a` went with its last descriptor: an RTR now queues.
            Offer(a, rtr(1, 5, 1), None),
            Reap(99, 0),
            Offer(b, rts(1, 6, 0), Some((6, 3))),
            // One transfer id on both sides goes in one reap.
            Offer(c, rts(0, 8, 1), None),
            Offer(b, rtr(0, 8, 0), None),
            Reap(8, 2),
            Offer(c, rtr(1, 9, 0), None),
            Clear,
            Offer(c, rts(0, 10, 1), None),
            Offer(c, rtr(1, 11, 0), Some((10, 11))),
        ];
        let mut table = Descriptors::new(2);
        for (i, op) in steps.into_iter().enumerate() {
            match op {
                Offer(key, d, want) => {
                    let got = table.offer(key, d).map(|(s, r)| (s.msg_id, r.msg_id));
                    assert_eq!(got, want, "step {i}: offer");
                }
                Reap(msg_id, want) => assert_eq!(table.reap(msg_id), want, "step {i}: reap"),
                Clear => table.clear(),
            }
            let queued: Vec<&Desc> = table.queues.values().flatten().collect();
            assert!(table.queues.values().all(|q| !q.is_empty()), "step {i}");
            let sends = queued.iter().filter(|d| d.is_rts()).count();
            assert_eq!(table.depths, (sends, queued.len() - sends), "step {i}");
            assert_eq!(table.len(), queued.len(), "step {i}");
            for t in 0..2 {
                let n = queued.iter().filter(|d| d.owner().1 == t).count();
                assert_eq!(table.tenant_len(t), n, "step {i}: tenant {t}");
            }
        }
        assert_eq!(table.len(), 0);
    }
}
