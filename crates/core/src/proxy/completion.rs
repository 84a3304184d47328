//! Completion integrity: the proxy's one post routine, what each
//! completion settles, CRC verification of landed payloads and bounded
//! data-path retransmission (DESIGN.md §13, §14).

use rdma::{EpId, MrKey, NetMsg, VAddr};
use simnet::{Payload, Pid, StatKey};

use super::{End, Proxy, ProxyState};
use crate::config::OffloadConfig;
use crate::events::{FinKind, HealthPath, PathKind, ProtoEvent};
use crate::messages::{CtrlMsg, GroupKey, RtrInfo, RtsInfo, WRID_OFF_PROXY};
use crate::reliable::backoff_delay;

/// What the proxy tells one host end about its transfer.
pub(super) enum Notice {
    /// The data landed (completed by `wrid`).
    Fin { kind: FinKind, wrid: u64 },
    /// Permanent data-plane failure after `attempts` deliveries; `shed`
    /// names the path whose retry budget shed it.
    Failed {
        attempts: u32,
        shed: Option<HealthPath>,
    },
}

pub(super) enum Completion {
    /// Basic data movement: FIN both ends once it lands. `dst` is `None`
    /// for one-sided operations — only the origin gets a FIN.
    Basic {
        src: End,
        dst: Option<End>,
        /// Staging buffer `(addr, key, alloc len)` to release into the
        /// bounded free pool once the transfer settles (`None` on the
        /// GVMI path and in unbounded staging mode).
        staged: Option<(VAddr, MrKey, u64)>,
    },
    /// Staging path, hop 1 done: the payload has been pulled into DPU
    /// memory; forward it. The buffer rides along so hop 2 (and the
    /// bounded pool) never consults the assignment map.
    StagingRead {
        pair: Box<(RtsInfo, RtrInfo)>,
        buf: (VAddr, MrKey),
    },
    GroupSend {
        key: GroupKey,
        gen: u64,
    },
    /// Staging path, group entry pulled into DPU memory.
    GroupStageRead {
        key: GroupKey,
        gen: u64,
        entry_idx: usize,
    },
}

/// `(endpoint, address, key)` of one side of an RDMA operation.
pub(super) type Region = (EpId, VAddr, MrKey);

/// One RDMA operation as [`Proxy::post`] issues it. On payload-fault
/// plans it is also kept per wrid, to verify the landed bytes at the
/// CQE and re-post them if the CRC check fails; clean runs keep none.
pub(super) struct DataOp {
    /// Data path (event attribution; re-used verbatim on re-post).
    path: PathKind,
    /// RDMA READ (verify the local side) vs WRITE (verify the remote).
    is_read: bool,
    local: Region,
    remote: Region,
    len: u64,
    /// Transfer id the operation belongs to (event attribution).
    msg_id: u64,
    /// Expected CRC32 of the payload, computed by the owning host at
    /// post (or wire-build) time; `None` posts the operation unverified.
    crc: Option<u32>,
    /// Delivery attempts so far (1 = the original post).
    attempt: u32,
    /// Arrival notification delivered with a write, and again with each
    /// re-post (group data writes; the receiver dedups by msg_id).
    pub(super) notify: Option<(Pid, CtrlMsg)>,
}

impl DataOp {
    /// A first attempt with no arrival notification.
    pub(super) fn new(
        path: PathKind,
        is_read: bool,
        local: Region,
        remote: Region,
        len: u64,
        msg_id: u64,
        crc: Option<u32>,
    ) -> DataOp {
        DataOp {
            path,
            is_read,
            local,
            remote,
            len,
            msg_id,
            crc,
            attempt: 1,
            notify: None,
        }
    }
}

impl Proxy<'_> {
    /// Backoff expired for a corrupt payload: re-post it. A missing
    /// token means a crash wiped the retx table; the host's
    /// post-restart replay re-drives the transfer.
    pub(super) fn on_retx_tick(&self, st: &mut ProxyState, token: u64) {
        if let Some((op, completion)) = st.data_retx.remove(&token) {
            self.post(st, op, completion);
        }
    }

    /// Post one RDMA operation and track its completion: the one place
    /// proxy data moves (every path, both staging hops, group entries,
    /// one-sided gets and re-posts). On payload-fault plans the op is
    /// kept per wrid so its CQE can verify the landed bytes.
    pub(super) fn post(&self, st: &mut ProxyState, mut op: DataOp, completion: Completion) {
        let wrid = self.next_wrid(st);
        self.ctx.emit(&ProtoEvent::WritePosted {
            wrid,
            bytes: op.len,
            path: op.path,
            msg_id: op.msg_id,
        });
        let (fab, ctx, me) = (self.cluster.fabric(), self.ctx, self.my_ep);
        let posted = if op.is_read {
            fab.rdma_read(ctx, me, op.local, op.remote, op.len, Some(wrid))
        } else {
            // A verified op keeps its notification for re-posts.
            let notify = match op.crc {
                Some(_) => op.notify.clone(),
                None => op.notify.take(),
            };
            let notify = notify.map(|(pid, msg)| (pid, Box::new(msg) as Payload));
            fab.rdma_write(ctx, me, op.local, op.remote, op.len, Some(wrid), notify)
        };
        if let Err(e) = posted {
            // A refused post (bad key or range) is a protocol bug, not a
            // fault to recover from: the `skip_cross_reg` checker fault
            // provokes exactly this, and the run must stop here.
            panic!(
                "proxy {:?} post of transfer {:#x} refused: {e:?}",
                op.path, op.msg_id
            );
        }
        st.inflight.insert(wrid, completion);
        if op.crc.is_some() {
            st.inflight_ctx.insert(wrid, op);
        }
    }

    pub(super) fn next_wrid(&self, st: &mut ProxyState) -> u64 {
        st.next_wr += 1;
        WRID_OFF_PROXY | st.next_wr
    }

    pub(super) fn on_cqe(&self, st: &mut ProxyState, wrid: u64) {
        crate::profile::profile_scope!(CqPoll);
        let Some(completion) = st.inflight.remove(&wrid) else {
            // CQE of a write posted before a crash: the restarted proxy
            // does not know it. The transfer itself is re-driven by the
            // host's post-restart replay, so just account for it. (No
            // WriteCompleted event either — the restart wiped the posted
            // side from the checker's books.)
            static STALE_CQE: StatKey = StatKey::new("offload.proxy.stale_cqe");
            self.ctx.stat_incr(&STALE_CQE, 1);
            self.ctx.emit(&ProtoEvent::StaleCqe { wrid });
            return;
        };
        self.ctx.emit(&ProtoEvent::WriteCompleted { wrid });
        // End-to-end integrity gate (payload-fault plans only): verify
        // the landed bytes against the sender's CRC before acting on the
        // completion. A mismatch schedules a bounded retransmission
        // instead — no FIN, no staging forward, no barrier progress.
        if let Some(op) = st.inflight_ctx.remove(&wrid) {
            crate::profile::profile_scope!(CrcVerify);
            let (ep, addr, _) = if op.is_read { op.local } else { op.remote };
            let got = self
                .cluster
                .fabric()
                .crc32(ep, addr, op.len)
                .expect("CRC of a landed payload");
            if Some(got) != op.crc {
                self.on_corrupt(st, op, completion);
                return;
            }
            if op.attempt > 1 {
                static RECOVERED: StatKey = StatKey::new("offload.integrity.recovered");
                self.ctx.stat_incr(&RECOVERED, 1);
                self.ctx.emit(&ProtoEvent::PayloadRecovered {
                    msg_id: op.msg_id,
                    attempts: op.attempt,
                });
                // A retried payload made it through: the peer earns its
                // data retry-budget tokens back.
                st.health
                    .credit_data(Self::completion_src_rank(&completion));
            }
        }
        self.complete(st, wrid, completion);
    }

    /// Act on a (verified) completed operation.
    fn complete(&self, st: &mut ProxyState, wrid: u64, completion: Completion) {
        match completion {
            Completion::Basic { src, dst, staged } => {
                self.release_staged(st, self.cfg.tenant_of(src.rank), staged);
                // FIN packets to both hosts (paper Fig. 8, §VIII-C: two of
                // the four per-transfer control messages); one-sided
                // operations notify only the origin. The journal write
                // precedes the (losable) FIN sends: write-ahead, so a
                // replay after a crash at any point from here on resolves
                // to a FIN resend.
                st.completed_msgs.insert(src.msg_id, wrid);
                if let Some(dst) = dst {
                    st.completed_msgs.insert(dst.msg_id, wrid);
                }
                self.truncate_journal(st);
                let fin = |kind| Notice::Fin { kind, wrid };
                self.notify_end(st, src, fin(FinKind::Send));
                let Some(dst) = dst else { return };
                if self.cfg.fault.drop_first_fin && !st.fin_dropped {
                    // Deliberate fault: lose this FinRecv. The waiting
                    // receiver never completes, so the run deadlocks.
                    st.fin_dropped = true;
                    return;
                }
                self.notify_end(st, dst, fin(FinKind::Recv));
            }
            Completion::StagingRead { pair, buf } => {
                let (rts, rtr) = *pair;
                // Hop 1 landed clean: a staging success for the breaker
                // window (and the verdict of a staging probe, if this
                // read was one).
                self.note_breaker(st, rts.src_rank, HealthPath::Staging, true);
                // Hop 2: forward the staged payload from DPU memory to the
                // destination host (paper Fig. 6 — the extra hop).
                let local = (self.my_ep, buf.0, buf.1);
                let staged = (self.cfg.staging_cap > 0).then_some((buf.0, buf.1, rts.len));
                self.post_pair_write(st, &rts, &rtr, PathKind::StagingHop2, local, staged);
                static STAGING_FORWARDS: StatKey = StatKey::new("offload.proxy.staging_forwards");
                self.ctx.stat_incr(&STAGING_FORWARDS, 1);
            }
            Completion::GroupSend { key, gen } => {
                if let Some((idx, inst)) = st.instance_mut(key, gen) {
                    inst.outstanding -= 1;
                    st.woken.push(idx);
                }
            }
            Completion::GroupStageRead {
                key,
                gen,
                entry_idx,
            } => {
                if let Some((idx, inst)) = st.instance_mut(key, gen) {
                    inst.stage_reads.insert(entry_idx, true);
                    st.woken.push(idx);
                }
            }
        }
    }

    /// The rank whose breaker and retry budget a completion's data
    /// movement is charged to (the transfer's source side).
    fn completion_src_rank(completion: &Completion) -> usize {
        match completion {
            Completion::Basic { src, .. } => src.rank,
            Completion::StagingRead { pair, .. } => pair.0.src_rank,
            Completion::GroupSend { key, .. } | Completion::GroupStageRead { key, .. } => {
                key.host_rank
            }
        }
    }

    /// A landed payload failed CRC verification. Within budget: arm a
    /// backoff timer and park the operation for re-posting (fresh wrid,
    /// same path, same arrival notification). Attempt bound hit, or the
    /// peer's data retry budget dry: surface a typed data-plane failure
    /// to the owning host(s) — never a FIN, never a hang.
    fn on_corrupt(&self, st: &mut ProxyState, mut op: DataOp, completion: Completion) {
        static CORRUPT: StatKey = StatKey::new("offload.integrity.corrupt");
        self.ctx.stat_incr(&CORRUPT, 1);
        self.ctx.emit(&ProtoEvent::PayloadCorrupt {
            msg_id: op.msg_id,
            attempt: op.attempt,
        });
        let peer = Self::completion_src_rank(&completion);
        let path_class = match op.path {
            PathKind::CrossGvmi => HealthPath::CrossGvmi,
            _ => HealthPath::Staging,
        };
        self.note_breaker(st, peer, path_class, false);
        if op.attempt >= OffloadConfig::DATA_RETX_MAX {
            static INTEGRITY_FAILURES: StatKey = StatKey::new("offload.integrity.failures");
            self.ctx.stat_incr(&INTEGRITY_FAILURES, 1);
            self.ctx.emit(&ProtoEvent::DataIntegrityFailed {
                msg_id: op.msg_id,
                attempts: op.attempt,
            });
            self.fail_transfer(st, completion, op.attempt, None);
            return;
        }
        if !st.health.try_spend_data(peer) {
            self.fail_transfer(st, completion, op.attempt, Some(path_class));
            return;
        }
        let delay = backoff_delay(op.attempt);
        op.attempt += 1;
        st.next_retx_token += 1;
        let token = st.next_retx_token;
        st.data_retx.insert(token, (op, completion));
        static INTEGRITY_RETRANSMITS: StatKey = StatKey::new("offload.integrity.retransmits");
        self.ctx.stat_incr(&INTEGRITY_RETRANSMITS, 1);
        self.ctx.deliver_self(
            delay,
            Box::new(NetMsg::Notify(Box::new(CtrlMsg::DataRetxTick { token }))),
        );
    }

    /// Permanent data-plane failure: tell every host waiting on this
    /// operation, with the typed error message its engine maps to
    /// `OffloadError::DataIntegrity` (basic) or a failed generation
    /// (group). Group bookkeeping for the dead generation is dropped so
    /// the proxy still quiesces. `shed` marks a health-engine
    /// retry-budget shed (rather than an exhausted attempt bound): the
    /// `DataError` carries the shed flag so hosts surface
    /// [`crate::OffloadError::RetryBudgetExhausted`], and a
    /// `RetryBudgetExhausted` event is emitted per failed basic request
    /// so the checker can pair each shed with its `ReqFailed`. (Group
    /// sheds ride `GroupDataError` and emit no shed event — the whole
    /// generation fails through `GroupFailed`.)
    fn fail_transfer(
        &self,
        st: &mut ProxyState,
        completion: Completion,
        attempts: u32,
        shed: Option<HealthPath>,
    ) {
        if shed.is_some() {
            static RETRY_BUDGET_SHEDS: StatKey = StatKey::new("offload.health.retry_budget_sheds");
            self.ctx.stat_incr(&RETRY_BUDGET_SHEDS, 1);
        }
        let (src, dst, staged) = match completion {
            Completion::Basic { src, dst, staged } => (src, dst, staged),
            Completion::StagingRead { pair, buf } => {
                let (rts, rtr) = *pair;
                (rts.end(), rtr.end(), Some((buf.0, buf.1, rts.len)))
            }
            Completion::GroupSend { key, gen } | Completion::GroupStageRead { key, gen, .. } => {
                self.send_ctrl(
                    st,
                    self.cluster.host_ep(key.host_rank),
                    CtrlMsg::GroupDataError {
                        req_id: key.req_id,
                        gen,
                        attempts,
                    },
                );
                for inst in st
                    .instances
                    .iter_mut()
                    .filter(|i| i.key == key && i.gen == gen)
                {
                    inst.done = true;
                }
                st.arrivals.remove(&(key, gen));
                return;
            }
        };
        self.release_staged(st, self.cfg.tenant_of(src.rank), staged);
        for end in std::iter::once(src).chain(dst) {
            self.notify_end(st, end, Notice::Failed { attempts, shed });
        }
    }
}
