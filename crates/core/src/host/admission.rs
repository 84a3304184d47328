//! Admission of basic posts: the quota verdict, the deferred FIFO, the
//! proxy's `QueueFull` backpressure and the ack horizon a post carries.

use rdma::{EpId, NetMsg};
use simnet::StatKey;

use super::{HostState, Offload, HOST_DPU};
use crate::config::{OffloadConfig, Verdict};
use crate::events::ProtoEvent;
use crate::messages::CtrlMsg;
use crate::reliable::{backoff_delay, OffloadError, ReqOrigin};

impl Offload {
    /// Post a basic request through the admission policy, this rank's
    /// [`TenantQuota::verdict`]: shed immediately when the tenant is
    /// over its hard quota, deferred to the back of the FIFO when a
    /// credit window is full, admitted otherwise.
    ///
    /// [`TenantQuota::verdict`]: crate::config::TenantQuota::verdict
    pub(super) fn post_basic(&self, req: usize, msg_id: u64, to: EpId, msg: CtrlMsg) {
        let mut st = self.st.borrow_mut();
        // `live_basic` already counts this request's slot.
        let verdict = self.quota.verdict(st.live_basic, &st.window, to.index());
        if verdict == Verdict::Shed {
            drop(st);
            static SHEDS: StatKey = StatKey::new("offload.quota.sheds");
            self.ctx.stat_incr(&SHEDS, 1);
            self.ctx.emit(&ProtoEvent::QuotaShed {
                tenant: self.tenant,
                rank: self.rank,
                msg_id,
            });
            self.fail_basic(
                req,
                OffloadError::QuotaExceeded {
                    tenant: self.tenant,
                    msg_id,
                },
                0,
            );
            return;
        }
        // Kept for a deferred admission, a `QueueFull` re-post and a
        // proxy-restart replay.
        if let Some(slot) = st.reqs.get_mut(req) {
            slot.post = Some((to, msg));
        }
        if verdict == Verdict::Defer {
            st.deferred.push_back(req);
            drop(st);
            static DEFERRALS: StatKey = StatKey::new("offload.credit.deferrals");
            self.ctx.stat_incr(&DEFERRALS, 1);
            self.ctx.emit(&ProtoEvent::CreditDeferred {
                rank: self.rank,
                msg_id,
            });
            return;
        }
        self.admit(&mut st, req, to);
        drop(st);
        self.ship(req);
    }

    /// Admit one basic post: set the completion horizon its stored post
    /// piggybacks to the current one (a deferred post may have waited
    /// through many completions, and the proxy's journal truncation must
    /// track reality, not the build instant), charge the target a credit,
    /// and record the target for cancel routing.
    fn admit(&self, st: &mut HostState, req: usize, to: EpId) {
        let horizon = st.ack_horizon;
        *st.window.entry(to.index()).or_insert(0) += 1;
        let Some(slot) = st.reqs.get_mut(req) else {
            return;
        };
        if self.cfg.journal_cap > 0 {
            if let Some((_, CtrlMsg::Rts { ack_horizon, .. } | CtrlMsg::Rtr { ack_horizon, .. })) =
                &mut slot.post
            {
                *ack_horizon = horizon;
            }
        }
        slot.target = Some(to);
    }

    /// Ship basic request `req`'s stored post. Only a shipped post is
    /// replayed after a proxy restart.
    pub(super) fn ship(&self, req: usize) {
        crate::profile_scope!("credit_admission");
        let post = self.st.borrow_mut().reqs.get_mut(req).and_then(|slot| {
            slot.shipped = true;
            slot.post.clone()
        });
        if let Some((to, msg)) = post {
            self.post_ctrl(to, OffloadConfig::CTRL_BYTES, msg, ReqOrigin::Basic(req));
            self.ctx.stat_incr(&HOST_DPU, 1);
        }
    }

    /// Admit up to `limit` deferred posts, oldest first: a settled head
    /// is dropped for free, and a head the verdict still defers stops
    /// the flush. A deferred post passed the hard quota when it was
    /// posted, so the flush asks with no live posts and never sheds. On
    /// a multi-tenant run each admission also emits a `DrrGrant`.
    pub(super) fn flush_deferred(&self, limit: usize) {
        // Admission happens under one state borrow, so the credit check
        // sees each earlier grant; the granted posts ship after it ends —
        // post_ctrl re-borrows state for the reliable link.
        let mut granted: Vec<(usize, u64)> = Vec::new();
        {
            let mut guard = self.st.borrow_mut();
            let st = &mut *guard;
            while granted.len() < limit {
                let Some(&req) = st.deferred.front() else {
                    break;
                };
                let live = st.reqs.get(req).filter(|s| s.open());
                if let Some((msg_id, to)) = live.and_then(|s| Some((s.msg_id, s.post.as_ref()?.0)))
                {
                    if self.quota.verdict(0, &st.window, to.index()) == Verdict::Defer {
                        break;
                    }
                    self.admit(st, req, to);
                    granted.push((req, msg_id));
                }
                st.deferred.pop_front();
            }
        }
        for (req, msg_id) in granted {
            if self.cfg.multi_tenant() {
                static DRR_GRANTS: StatKey = StatKey::new("offload.credit.drr_grants");
                self.ctx.stat_incr(&DRR_GRANTS, 1);
                self.ctx.emit(&ProtoEvent::DrrGrant {
                    tenant: self.tenant,
                    rank: self.rank,
                    msg_id,
                });
            }
            self.ship(req);
        }
    }

    /// Backpressure: the proxy refused admission. Return the credit,
    /// park the request on the deferred queue, and retry after an
    /// exponential backoff.
    pub(super) fn on_queue_full(&self, msg_id: u64) {
        let attempt = {
            let mut guard = self.st.borrow_mut();
            let st = &mut *guard;
            st.reqs.open_slot(msg_id).and_then(|req| {
                st.release_window(req);
                st.deferred.push_back(req);
                let slot = st.reqs.get_mut(req)?;
                slot.attempts += 1;
                Some(slot.attempts)
            })
        };
        if let Some(attempt) = attempt {
            static NACKS: StatKey = StatKey::new("offload.credit.nacks");
            self.ctx.stat_incr(&NACKS, 1);
            self.ctx.deliver_self(
                backoff_delay(attempt),
                Box::new(NetMsg::Notify(Box::new(CtrlMsg::BackpressureTick))),
            );
        }
    }

    /// Fold a terminally-settled transfer id into the ack horizon
    /// (journal-truncation tracking; no-op unless the cap is armed).
    pub(super) fn note_settled(&self, msg_id: u64) {
        if self.cfg.journal_cap == 0 {
            return;
        }
        if (msg_id >> 32) as usize != self.rank {
            return;
        }
        let mut st = self.st.borrow_mut();
        st.completed_seqs.insert(msg_id & 0xFFFF_FFFF);
        let mut h = st.ack_horizon;
        while st.completed_seqs.remove(&(h + 1)) {
            h += 1;
        }
        st.ack_horizon = h;
    }
}
