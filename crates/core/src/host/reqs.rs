//! Basic-request slots: their table, their settlement (completion,
//! failure, cancel, deadline) and their replay after a proxy restart.

use std::collections::VecDeque;

use rdma::EpId;
use simnet::StatKey;

use super::{GroupRequest, Offload, HOST_DPU};
use crate::config::OffloadConfig;
use crate::events::ProtoEvent;
use crate::messages::{CtrlMsg, DeadlineTarget};
use crate::reg_cache::RankAddrCache;
use crate::reliable::{OffloadError, ReqOrigin};

/// One basic-request slot: completion flag plus the stable transfer id
/// assigned at post time (threads the causal timeline through the event
/// stream).
#[derive(Default)]
pub(super) struct ReqSlot {
    pub(super) done: bool,
    pub(super) msg_id: u64,
    /// Terminal failure: ctrl abandonment, data-integrity exhaustion,
    /// deadline expiry, or an application cancel.
    pub(super) error: Option<OffloadError>,
    /// Endpoint the request was posted to and holds one credit at
    /// (cancel routing). `None` while the post is deferred, and once
    /// the credit is returned.
    pub(super) target: Option<EpId>,
    /// The post as last admitted, ack horizon included: what a deferred
    /// admission and a `QueueFull` re-post ship, and what a proxy
    /// restart replays once `shipped`.
    pub(super) post: Option<(EpId, CtrlMsg)>,
    /// The post has been shipped at least once.
    pub(super) shipped: bool,
    /// Backpressure re-post attempts (paces the retry backoff).
    pub(super) attempts: u32,
    /// GVMI-cache entry pinned while this request is in flight
    /// (`(proxy_idx, addr, len)`); set only under a cache budget.
    pub(super) pin: Option<(usize, u64, u64)>,
}

impl ReqSlot {
    /// Neither done nor failed.
    pub(super) fn open(&self) -> bool {
        !self.done && self.error.is_none()
    }
}

/// A rank's basic-request slots, by request index. Settling clears a
/// slot down to `done`, so completed slots at the front are retired:
/// memory follows the requests in flight, not the requests posted, and
/// the table is empty exactly when no slot is pending. A failed slot is
/// never `done`; it keeps its error, and the span behind it.
#[derive(Default)]
pub(super) struct ReqTable {
    /// Request index of `slots[0]`, which is never `done`; every
    /// request below it is.
    pub(super) base: usize,
    /// In strictly increasing `msg_id` order.
    pub(super) slots: VecDeque<ReqSlot>,
}

impl ReqTable {
    pub(super) fn get(&self, req: usize) -> Option<&ReqSlot> {
        self.slots.get(req.checked_sub(self.base)?)
    }

    pub(super) fn get_mut(&mut self, req: usize) -> Option<&mut ReqSlot> {
        self.slots.get_mut(req.checked_sub(self.base)?)
    }

    /// The request index of `msg_id` if that request is still open: ids
    /// only grow along the table, so a binary search finds it.
    pub(super) fn open_slot(&self, msg_id: u64) -> Option<usize> {
        let i = self
            .slots
            .binary_search_by_key(&msg_id, |s| s.msg_id)
            .ok()?;
        self.slots.get(i)?.open().then_some(self.base + i)
    }

    /// `(req, msg_id, post)` of each open request a restart of `proxy`
    /// replays: the ones shipped to it, as last shipped.
    fn replays(&self, proxy: EpId) -> Vec<(usize, u64, CtrlMsg)> {
        let slots = (self.base..).zip(&self.slots);
        let open = slots.filter(|(_, s)| s.open() && s.shipped);
        open.filter_map(|(i, s)| match &s.post {
            Some((to, m)) if *to == proxy => Some((i, s.msg_id, m.clone())),
            _ => None,
        })
        .collect()
    }
}

impl Offload {
    pub(super) fn new_req(&self) -> (usize, u64) {
        let msg_id = self.alloc_msg_id();
        let mut st = self.st.borrow_mut();
        st.live_basic += 1;
        st.reqs.slots.push_back(ReqSlot {
            msg_id,
            ..ReqSlot::default()
        });
        (st.reqs.base + st.reqs.slots.len() - 1, msg_id)
    }

    /// Settle basic request `req` as completed (`Ok`) or failed: mark
    /// the slot, drop its post copy, return its credit, unpin its cache
    /// entry and fold it into the ack horizon. Its `(msg_id, target)`;
    /// `None`, changing nothing, when the slot is unknown or already
    /// settled.
    pub(super) fn settle(
        &self,
        req: usize,
        outcome: Result<(), OffloadError>,
    ) -> Option<(u64, Option<EpId>)> {
        let settled = {
            let mut guard = self.st.borrow_mut();
            let st = &mut *guard;
            let slot = st.reqs.get_mut(req).filter(|s| s.open())?;
            match outcome {
                Ok(()) => slot.done = true,
                Err(e) => slot.error = Some(e),
            }
            slot.post = None;
            let settled = (slot.msg_id, slot.target);
            let pin = slot.pin.take();
            st.live_basic = st.live_basic.saturating_sub(1);
            st.release_window(req);
            if let Some((rank, addr, len)) = pin {
                st.gvmi_cache.unpin(rank, addr, len);
            }
            while st.reqs.slots.front().is_some_and(|s| s.done) {
                st.reqs.slots.pop_front();
                st.reqs.base += 1;
            }
            settled
        };
        self.note_settled(settled.0);
        Some(settled)
    }

    /// Fail a basic request slot with a typed error (idempotent).
    pub(super) fn fail_basic(&self, req: usize, err: OffloadError, attempts: u32) {
        let Some((msg_id, _)) = self.settle(req, Err(err)) else {
            return;
        };
        static REQ_FAILURES: StatKey = StatKey::new("offload.reliable.req_failures");
        self.ctx.stat_incr(&REQ_FAILURES, 1);
        self.ctx.emit(&ProtoEvent::ReqFailed {
            rank: self.rank,
            msg_id,
            attempts,
        });
        self.flush_deferred(1);
    }

    /// Cancel a request slot: typed error, proxy reap notice, credit and
    /// pin release (idempotent).
    pub(super) fn cancel_req(&self, req: usize, err: OffloadError) {
        let Some((msg_id, target)) = self.settle(req, Err(err)) else {
            return;
        };
        static CANCEL_REQUESTS: StatKey = StatKey::new("offload.cancel.requests");
        self.ctx.stat_incr(&CANCEL_REQUESTS, 1);
        self.ctx.emit(&ProtoEvent::ReqCancelled {
            rank: self.rank,
            msg_id,
        });
        // Tell the proxy to reap queued descriptors and suppress late
        // matches. A still-deferred request never reached the proxy.
        if let Some(to) = target {
            self.post_ctrl(
                to,
                OffloadConfig::CTRL_BYTES,
                CtrlMsg::Cancel { msg_id },
                ReqOrigin::Free,
            );
            self.ctx.stat_incr(&HOST_DPU, 1);
        }
        self.flush_deferred(1);
    }

    /// A deadline timer fired: cancel the request (or fail the group
    /// generation) if it still has not settled.
    pub(super) fn on_deadline(&self, target: DeadlineTarget) {
        static EXPIRED: StatKey = StatKey::new("offload.deadline.expired");
        let req = match target {
            DeadlineTarget::Basic(req) => req,
            DeadlineTarget::Group(req_id) => {
                let gen = self.st.borrow_mut().group(GroupRequest(req_id)).gen;
                if self.fail_group(req_id, gen) {
                    self.ctx.stat_incr(&EXPIRED, 1);
                }
                return;
            }
        };
        let open = self
            .st
            .borrow()
            .reqs
            .get(req)
            .filter(|s| s.open())
            .map(|s| s.msg_id);
        if let Some(msg_id) = open {
            self.ctx.stat_incr(&EXPIRED, 1);
            self.cancel_req(req, OffloadError::DeadlineExceeded { msg_id });
        }
    }

    /// Proxy-restart recovery (DESIGN.md §13): on the first notice of a
    /// higher epoch, invalidate everything the crashed proxy held on our
    /// behalf — the GVMI registration cache (its cross-registrations
    /// died) and the group metadata caches — then replay every in-flight
    /// basic request and group generation that targeted it.
    pub(super) fn on_proxy_restarted(&self, proxy: EpId, epoch: u64) {
        {
            let mut st = self.st.borrow_mut();
            let known = st.proxy_epochs.entry(proxy.index()).or_insert(0);
            if epoch <= *known {
                return; // stale or duplicate notice
            }
            *known = epoch;
            // Recovery: the restart wiped the proxy's ctrl state, so any
            // deficit our retry budget accumulated against it is moot.
            // Start the fresh epoch with a full bucket.
            st.rel.reset_budget_for(proxy);
        }
        static RESTARTS_SEEN: StatKey = StatKey::new("offload.reliable.restarts_seen");
        static REPLAYS: StatKey = StatKey::new("offload.reliable.replays");
        self.ctx.stat_incr(&RESTARTS_SEEN, 1);
        if proxy == self.proxy_ep {
            let n_proxies = self.cluster.proxies_per_dpu();
            let mut st = self.st.borrow_mut();
            st.gvmi_cache = RankAddrCache::new(n_proxies);
            for g in &mut st.groups {
                g.proxy_cached = false;
            }
        }
        // Replay in-flight basic requests addressed to the restarted
        // proxy, as last shipped. The proxy's completion journal survives
        // the crash, so a request whose FIN raced the crash is answered
        // directly instead of re-executed.
        let replays = self.st.borrow().reqs.replays(proxy);
        for (req, msg_id, msg) in replays {
            self.ctx.stat_incr(&REPLAYS, 1);
            self.ctx.emit(&ProtoEvent::ReqReplayed {
                rank: self.rank,
                msg_id,
            });
            self.post_ctrl(proxy, OffloadConfig::CTRL_BYTES, msg, ReqOrigin::Basic(req));
        }
        // Re-ship in-flight group generations: the proxy's instances and
        // metadata cache died with it, so send the full packet again
        // (which restarts the generation) and mark the cache warm.
        if proxy == self.proxy_ep {
            let inflight: Vec<(usize, u64)> = {
                let st = self.st.borrow();
                st.groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.wire.is_some() && g.gen > g.fin_gen)
                    .map(|(i, g)| (i, g.gen))
                    .collect()
            };
            for (req_id, gen) in inflight {
                self.ctx.stat_incr(&REPLAYS, 1);
                self.ctx.emit(&ProtoEvent::ReqReplayed {
                    rank: self.rank,
                    msg_id: 0,
                });
                let req = GroupRequest(req_id);
                self.send_group_packet(req, gen);
                self.st.borrow_mut().group(req).proxy_cached = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma::{ClusterBuilder, ClusterSpec, Inbox};

    fn slot(msg_id: u64) -> ReqSlot {
        ReqSlot {
            msg_id,
            ..ReqSlot::default()
        }
    }

    #[test]
    fn a_nack_finds_its_open_slot_among_thousands() {
        // Rank 3's ids, as `new_req` allocates them: every other sequence
        // number went to a group wire entry.
        let id = |i: u64| (3 << 32) | (2 * (i + 1));
        let mut reqs = ReqTable {
            base: 0,
            slots: (0..8_000).map(|i| slot(id(i))).collect(),
        };
        reqs.slots[10].done = true;
        reqs.slots[11].error = Some(OffloadError::Cancelled { msg_id: id(11) });
        assert_eq!(reqs.open_slot(id(0)), Some(0));
        assert_eq!(reqs.open_slot(id(12)), Some(12));
        assert_eq!(reqs.open_slot(id(7_999)), Some(7_999));
        // Settled, failed and unknown ids are ignored.
        assert_eq!(reqs.open_slot(id(10)), None);
        assert_eq!(reqs.open_slot(id(11)), None);
        assert_eq!(reqs.open_slot((3 << 32) | 3), None);
        assert_eq!(reqs.open_slot((4 << 32) | 2), None);
        assert_eq!(ReqTable::default().open_slot(1), None);
        // With a retired front, indices stay where they were.
        reqs.slots.drain(..11);
        reqs.base = 11;
        assert!(reqs.get(10).is_none());
        assert_eq!(reqs.get(11).map(|s| s.msg_id), Some(id(11)));
        assert_eq!(reqs.open_slot(id(12)), Some(12));
        assert_eq!(reqs.open_slot(id(0)), None);
    }

    #[test]
    fn a_restart_replays_only_shipped_posts_as_last_shipped() {
        // One credit per proxy, and an armed journal, so that an admitted
        // post carries the rank's ack horizon.
        let cfg = OffloadConfig::proposed()
            .with_queue_cap(1)
            .with_journal_cap(4);
        let proxy_cfg = cfg.clone();
        ClusterBuilder::new(ClusterSpec::new(2, 1), 3)
            .run_async(
                async move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(rank, ctx, cluster, &inbox, cfg.clone());
                    let fab = off.cluster().fabric().clone();
                    let buf = fab.alloc(off.cluster().host_ep(rank), 64);
                    for tag in 0..3 {
                        let req = if rank == 0 {
                            off.send_offload(buf, 64, 1, tag)
                        } else {
                            off.recv_offload(buf, 64, 0, tag)
                        };
                        off.wait(req).await;
                    }
                    if rank == 0 {
                        // Nobody receives these: the first ships and takes
                        // the proxy's one credit, the second is deferred.
                        let shipped = off.send_offload(buf, 64, 1, 7);
                        let deferred = off.send_offload(buf, 64, 1, 8);
                        {
                            let st = off.st.borrow();
                            assert!(st.ack_horizon > 0, "three sends settled");
                            let replays = st.reqs.replays(off.proxy_ep);
                            let [(req, _, msg)] = &replays[..] else {
                                panic!("replays {} posts, want the shipped one", replays.len());
                            };
                            assert_eq!(*req, shipped.0);
                            let CtrlMsg::Rts { ack_horizon, .. } = msg else {
                                panic!("replays {msg:?}");
                            };
                            assert_eq!(*ack_horizon, st.ack_horizon, "as admitted");
                        }
                        off.cancel(deferred);
                        off.cancel(shipped);
                    }
                    off.finalize().await;
                },
                Some(crate::proxy_fn(proxy_cfg)),
            )
            .expect("clean run");
    }
}
