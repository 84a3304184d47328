//! Host-side API of the offload framework: the paper's Basic and Group
//! primitives (Listings 2 and 4).
//!
//! ```text
//! Init_Offload()            -> Offload::init
//! Send_Offload(...)         -> Offload::send_offload
//! Recv_Offload(...)         -> Offload::recv_offload
//! Wait(&req)                -> Offload::wait          (async)
//! Finalize_Offload()        -> Offload::finalize      (async)
//!
//! Group_Offload_start(&req) -> Offload::group_start
//! Send_Goffload(...)        -> GroupRequest::send  (via Offload::group_send)
//! Recv_Goffload(...)        -> Offload::group_recv
//! Local_barrier_Goffload    -> Offload::group_barrier
//! Group_Offload_end         -> Offload::group_end
//! Group_Offload_call        -> Offload::group_call    (async)
//! Group_Wait                -> Offload::group_wait    (async)
//! ```
//!
//! Every call that can wait for the proxy is an `async fn`: the one
//! thing a rank waits for is its next control message
//! ([`rdma::Channel::next`]), and a rank is a future process that awaits
//! it.
//!
//! This file holds the engine, registration, the Basic primitives and
//! ctrl I/O; each submodule adds its concern's methods to [`Offload`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable
)]

mod admission;
mod group;
mod reqs;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rdma::{Channel, ClusterCtx, EpId, Inbox, MrKey, NetMsg, VAddr};
use simnet::{ProcessCtx, SimDelta, StatKey};

use crate::config::{DataPath, OffloadConfig, TenantId, TenantQuota};
use crate::events::{
    CacheOutcome, CacheSide, CtrlKind, HealthPath, HostCacheKind, ProtoEvent, ReqDir,
};
use crate::health::HealthConfig;
use crate::messages::{CtrlMsg, DeadlineTarget, RtrInfo, RtsInfo, WRID_MASK, WRID_OFF_HOST};
use crate::reg_cache::RankAddrCache;
use crate::reliable::{Inbound, OffloadError, ReliableLink, ReqOrigin, TickOutcome};

use group::{GroupState, MetaEntry};
use reqs::{ReqSlot, ReqTable};

/// Handle of a Basic-primitive transfer (`OffloadRequest` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OffloadReq(usize);

impl OffloadReq {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Handle of a recorded group pattern (`OffloadGroupRequest` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupRequest(usize);

/// Ctrl messages a host ships to a proxy.
static HOST_DPU: StatKey = StatKey::new("offload.ctrl.host_dpu");

struct HostState {
    reqs: ReqTable,
    /// Monotone per-rank sequence feeding `msg_id` allocation (basic
    /// requests and group wire entries share the namespace).
    next_msg_seq: u64,
    /// Host-side GVMI cache, indexed by the mapped proxy's local index.
    gvmi_cache: RankAddrCache<MrKey>,
    /// Host-side IB cache (receive buffers).
    ib_cache: RankAddrCache<MrKey>,
    groups: Vec<GroupState>,
    /// Groups whose latest generation has not finished (`fin_gen <
    /// gen`), kept where either moves.
    groups_in_flight: usize,
    /// Metadata received from each receiving host, consumed FIFO per
    /// source: `(dst_req_id, entries)`. Order-stable on purpose: message
    /// matching must never depend on hash-iteration order (`clippy.toml`
    /// bans `HashMap`).
    metas_from: BTreeMap<usize, VecDeque<(usize, Vec<MetaEntry>)>>,
    /// Reliable ctrl-plane endpoint (seq/ack/retransmit/dedup). Inert
    /// unless the fault plan arms it.
    rel: ReliableLink,
    /// Last restart epoch observed per proxy endpoint index; a higher
    /// epoch in a `ProxyRestarted` notice triggers recovery.
    proxy_epochs: BTreeMap<usize, u64>,
    /// Outstanding admitted basic posts per target endpoint index (the
    /// credit windows [`TenantQuota::verdict`] reads).
    window: BTreeMap<usize, usize>,
    /// Request slots waiting for a credit, oldest first. A rank defers
    /// only its own tenant's posts, so one FIFO is the whole schedule.
    deferred: VecDeque<usize>,
    /// Basic requests posted and not yet terminally settled (hard-quota
    /// accounting; cheap enough to maintain unconditionally).
    live_basic: usize,
    /// Completed (or terminally failed) sequence numbers not yet folded
    /// into `ack_horizon` (journal-truncation tracking; maintained only
    /// when the journal cap is armed).
    completed_seqs: BTreeSet<u64>,
    /// Highest seq such that every seq up to and including it has
    /// completed; piggybacked on RTS/RTR so proxies can truncate their
    /// FIN journals.
    ack_horizon: u64,
}

impl HostState {
    /// How basic request `req` ended: `None` while it is open.
    fn outcome(&self, req: OffloadReq) -> Option<Result<(), OffloadError>> {
        match self.reqs.get(req.0) {
            Some(slot) if !slot.done => slot.error.map(Err),
            #[expect(
                clippy::panic,
                reason = "an OffloadReq this engine never minted is a caller bug"
            )]
            None if req.0 >= self.reqs.base => panic!("unknown request {}", req.0),
            _ => Some(Ok(())),
        }
    }

    /// Return the credit `req` holds, if any.
    fn release_window(&mut self, req: usize) {
        let ep = self.reqs.get_mut(req).and_then(|s| s.target.take());
        if let Some(w) = ep.and_then(|ep| self.window.get_mut(&ep.index())) {
            *w = w.saturating_sub(1);
        }
    }

    /// The GVMI or IB registration cache.
    fn cache(&mut self, kind: HostCacheKind) -> &mut RankAddrCache<MrKey> {
        match kind {
            HostCacheKind::Gvmi => &mut self.gvmi_cache,
            HostCacheKind::Ib => &mut self.ib_cache,
        }
    }
}

/// Host-side engine of the offload framework. One per application rank.
pub struct Offload {
    ctx: ProcessCtx,
    cluster: ClusterCtx,
    rank: usize,
    tenant: TenantId,
    /// This rank's tenant limits, resolved once at init.
    quota: TenantQuota,
    ep: EpId,
    proxy_ep: EpId,
    proxy_idx: usize,
    cfg: OffloadConfig,
    chan: Channel,
    st: RefCell<HostState>,
}

impl Offload {
    /// `Init_Offload()`: attach this rank to the framework. The cluster
    /// must have been built with proxies from [`crate::proxy_fn`] and the
    /// *same* [`OffloadConfig`].
    ///
    /// The GVMI-ID exchange the paper performs here (once per protection
    /// domain) is modelled by the fabric assigning each proxy its GVMI at
    /// endpoint creation; the exchange itself is a one-time O(µs) cost we
    /// fold into startup.
    pub fn init(
        rank: usize,
        ctx: ProcessCtx,
        cluster: ClusterCtx,
        inbox: &Inbox,
        cfg: OffloadConfig,
    ) -> Offload {
        assert!(
            cluster.proxies_per_dpu() > 0,
            "offload requires DPU proxies; build the cluster with proxy_fn"
        );
        let chan = inbox.channel(|m| match m {
            NetMsg::Packet(p) => p.body.is::<CtrlMsg>(),
            NetMsg::Notify(p) => p.is::<CtrlMsg>(),
            NetMsg::Cqe(c) => c.wrid & WRID_MASK == WRID_OFF_HOST,
        });
        let ep = cluster.host_ep(rank);
        let proxy_ep = cluster.proxy_for_rank(rank);
        let proxy_idx = rank % cluster.proxies_per_dpu();
        let n_proxies = cluster.proxies_per_dpu();
        let fault = cfg.fault;
        // Hosts arm the ctrl retry budget with the health engine
        // (shed-and-surface is a typed request failure here); proxies
        // never do, since a budget-shed proxy FIN could wedge a
        // completion.
        let budget = (HealthConfig::CTRL_BUDGET, HealthConfig::CTRL_REFILL);
        let budget = cfg.health.enabled.then_some(budget);
        let cache_budget = cfg.cache_budget;
        // Arm the fabric's data-plane fault stream (set-once: the first
        // rank's plan wins, later inits are no-ops). Unarmed plans leave
        // the fabric untouched, so clean runs stay byte-identical.
        if fault.payload_faults() {
            cluster.fabric().set_payload_faults(rdma::PayloadFaultPlan {
                flip_pm: fault.flip_pm,
                torn_pm: fault.torn_pm,
                drop_pm: fault.data_drop_pm,
                seed: fault.seed,
            });
        }
        let tenant = cfg.tenant_of(rank);
        Offload {
            ctx,
            cluster,
            rank,
            tenant,
            quota: cfg.quota(tenant),
            ep,
            proxy_ep,
            proxy_idx,
            cfg,
            chan,
            st: RefCell::new(HostState {
                reqs: ReqTable::default(),
                next_msg_seq: 0,
                gvmi_cache: if cache_budget > 0 {
                    RankAddrCache::with_capacity(n_proxies, cache_budget)
                } else {
                    RankAddrCache::new(n_proxies)
                },
                ib_cache: RankAddrCache::new(1),
                groups: Vec::new(),
                groups_in_flight: 0,
                metas_from: BTreeMap::new(),
                rel: ReliableLink::new(fault, budget, false, ep),
                proxy_epochs: BTreeMap::new(),
                window: BTreeMap::new(),
                deferred: VecDeque::new(),
                live_basic: 0,
                completed_seqs: BTreeSet::new(),
                ack_horizon: 0,
            }),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The tenant this rank is attributed to (0 unless the config arms
    /// a multi-tenant roster; see [`OffloadConfig::tenant_of`]).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.cluster.world_size()
    }

    /// Process context (compute, tracing).
    pub fn ctx(&self) -> &ProcessCtx {
        &self.ctx
    }

    /// The cluster roster.
    pub fn cluster(&self) -> &ClusterCtx {
        &self.cluster
    }

    /// The configuration this engine was initialized with.
    pub fn config(&self) -> &OffloadConfig {
        &self.cfg
    }

    /// Allocate a fresh basic-request slot and its transfer id
    /// (crate-internal extensions).
    pub(crate) fn new_basic_req(&self) -> (OffloadReq, u64) {
        let (req, msg_id) = self.new_req();
        (OffloadReq(req), msg_id)
    }

    /// Ship a control message for basic request slot `req` to this
    /// rank's mapped proxy (crate-internal extensions); the slot is what
    /// a proxy restart replays and an abandonment fails.
    pub(crate) fn send_ctrl_to_proxy(&self, msg: CtrlMsg, req: usize) {
        if let Some(slot) = self.st.borrow_mut().reqs.get_mut(req) {
            slot.post = Some((self.proxy_ep, msg));
        }
        self.ship(req);
    }

    /// Ship one ctrl message through the link, which sends it bare on a
    /// plan that does not arm reliability.
    fn post_ctrl(&self, to: EpId, bytes: u64, msg: CtrlMsg, origin: ReqOrigin) {
        crate::profile::profile_scope!(CtrlEncode);
        let mut st = self.st.borrow_mut();
        let fab = self.cluster.fabric();
        st.rel.send(&self.ctx, fab, to, bytes, msg, origin);
    }

    /// CRC32 of a posted payload, computed only when the run injects
    /// payload faults (clean runs skip the checksum entirely).
    #[expect(
        clippy::expect_used,
        reason = "the buffer was allocated on this endpoint when the request was posted"
    )]
    fn payload_crc(&self, addr: VAddr, len: u64) -> Option<u32> {
        self.cfg.fault.payload_faults().then(|| {
            self.cluster
                .fabric()
                .crc32(self.ep, addr, len)
                .expect("CRC of a posted buffer")
        })
    }

    /// Pin the GVMI-cache entry a request's send buffer occupies so the
    /// budgeted cache never evicts an in-flight registration.
    fn pin_gvmi(&self, req: usize, addr: VAddr, len: u64) {
        if self.cfg.cache_budget == 0 || !self.cfg.use_gvmi_cache {
            return;
        }
        let mut st = self.st.borrow_mut();
        if st.gvmi_cache.pin(self.proxy_idx, addr.0, len) {
            if let Some(slot) = st.reqs.get_mut(req) {
                slot.pin = Some((self.proxy_idx, addr.0, len));
            }
        }
    }

    /// The keys a send of `addr..+len` carries to the proxy, registered
    /// through the caches: the GVMI mkey the proxy cross-registers, and
    /// the plain rkey the staging path reads through (BluesMPI-style
    /// worker read). With registration failure armed a GVMI send
    /// carries both, so the proxy can fall back to staging per message.
    fn send_keys(&self, addr: VAddr, len: u64) -> (Option<MrKey>, Option<MrKey>) {
        let gvmi = self.cfg.data_path == DataPath::Gvmi;
        let mkey = gvmi.then(|| self.cached_reg(HostCacheKind::Gvmi, addr, len));
        let staged = !gvmi || self.cfg.fault.fallback_enabled();
        (
            mkey,
            staged.then(|| self.cached_reg(HostCacheKind::Ib, addr, len)),
        )
    }

    /// Register a buffer through one of the host's array-of-BSTs caches:
    /// GVMI (an mkey the mapped proxy can cross-register) or IB (a plain
    /// rkey). A hit returns the cached key; a miss registers and caches
    /// it. With the caches off, every call registers.
    fn cached_reg(&self, kind: HostCacheKind, addr: VAddr, len: u64) -> MrKey {
        static GVMI_HIT: StatKey = StatKey::new("offload.gvmi_cache.host.hit");
        static GVMI_MISS: StatKey = StatKey::new("offload.gvmi_cache.host.miss");
        static IB_HIT: StatKey = StatKey::new("offload.ib_cache.host.hit");
        static IB_MISS: StatKey = StatKey::new("offload.ib_cache.host.miss");
        // The GVMI cache is indexed by the mapped proxy, the IB cache has
        // one row.
        let (row, hit_stat, miss_stat, side) = match kind {
            HostCacheKind::Gvmi => (self.proxy_idx, &GVMI_HIT, &GVMI_MISS, CacheSide::HostGvmi),
            HostCacheKind::Ib => (0, &IB_HIT, &IB_MISS, CacheSide::HostIb),
        };
        let cached = self.cfg.use_gvmi_cache;
        if cached {
            let hit = self
                .st
                .borrow_mut()
                .cache(kind)
                .get(row, addr.0, len)
                .copied();
            self.ctx.emit(&ProtoEvent::HostCacheLookup {
                rank: self.rank,
                cache: kind,
                outcome: if hit.is_some() {
                    CacheOutcome::Hit
                } else {
                    CacheOutcome::Miss
                },
            });
            if let Some(k) = hit {
                self.ctx.stat_incr(hit_stat, 1);
                return k;
            }
            self.ctx.stat_incr(miss_stat, 1);
        }
        let fab = self.cluster.fabric();
        #[expect(
            clippy::expect_used,
            reason = "the caller registers its own valid buffer; a refusal is a protocol bug"
        )]
        let key = match kind {
            HostCacheKind::Gvmi => {
                #[expect(
                    clippy::expect_used,
                    reason = "every proxy endpoint is a DPU endpoint, which has a GVMI"
                )]
                let gvmi = fab.gvmi_of(self.proxy_ep).expect("proxy has a GVMI");
                fab.reg_mr_gvmi(&self.ctx, self.ep, addr, len, gvmi)
            }
            HostCacheKind::Ib => fab.reg_mr(&self.ctx, self.ep, addr, len),
        }
        .expect("registration of a valid buffer");
        if cached {
            let evicted = self
                .st
                .borrow_mut()
                .cache(kind)
                .insert(row, addr.0, len, key);
            if evicted.is_some() {
                self.ctx.emit(&ProtoEvent::CacheEvicted {
                    rank: self.rank,
                    side,
                });
            }
        }
        key
    }

    // ---- Basic primitives ----

    /// `Send_Offload`: non-blocking offloaded send. The transfer is driven
    /// entirely by the DPU proxy; this call only registers (through the
    /// GVMI cache) and posts one RTS control message.
    pub fn send_offload(&self, addr: VAddr, len: u64, dst: usize, tag: u64) -> OffloadReq {
        assert!(dst < self.size(), "send_offload: bad destination {dst}");
        let (req, msg_id) = self.new_req();
        self.ctx.emit(&ProtoEvent::HostReqPosted {
            rank: self.rank,
            msg_id,
            peer: dst,
            tag,
            bytes: len,
            dir: ReqDir::Send,
        });
        let (mkey, src_rkey) = self.send_keys(addr, len);
        if mkey.is_some() {
            self.pin_gvmi(req, addr, len);
        }
        let rts = RtsInfo {
            src_rank: self.rank,
            tag,
            addr,
            len,
            mkey,
            src_rkey,
            src_req: req,
            msg_id,
            crc: self.payload_crc(addr, len),
            tenant: self.tenant,
        };
        let msg = CtrlMsg::Rts {
            rts,
            dst_rank: dst,
            src_pid: self.ctx.pid(),
            ack_horizon: 0, // set by `admit`
        };
        self.post_basic(req, msg_id, self.proxy_ep, msg);
        OffloadReq(req)
    }

    /// `Recv_Offload`: non-blocking offloaded receive. Registers the
    /// buffer (IB cache) and sends one RTR control message to the proxy
    /// *on the sender's node* — the proxy that will move the data.
    pub fn recv_offload(&self, addr: VAddr, len: u64, src: usize, tag: u64) -> OffloadReq {
        assert!(src < self.size(), "recv_offload: bad source {src}");
        let (req, msg_id) = self.new_req();
        self.ctx.emit(&ProtoEvent::HostReqPosted {
            rank: self.rank,
            msg_id,
            peer: src,
            tag,
            bytes: len,
            dir: ReqDir::Recv,
        });
        let rkey = self.cached_reg(HostCacheKind::Ib, addr, len);
        let src_proxy = self.cluster.proxy_for_rank(src);
        let rtr = RtrInfo {
            dst_rank: self.rank,
            addr,
            len,
            rkey,
            dst_req: req,
            msg_id,
            tenant: self.tenant,
        };
        let msg = CtrlMsg::Rtr {
            rtr,
            src_rank: src,
            tag,
            dst_pid: self.ctx.pid(),
            ack_horizon: 0, // set by `admit`
        };
        self.post_basic(req, msg_id, src_proxy, msg);
        OffloadReq(req)
    }

    /// Has the request completed? Drains pending completions.
    pub fn test(&self, req: OffloadReq) -> bool {
        self.drain();
        self.st.borrow().outcome(req) == Some(Ok(()))
    }

    /// `Wait`: until `req` completes — or fails permanently, which only
    /// a fault plan can cause; check [`Offload::req_error`] then.
    pub async fn wait(&self, req: OffloadReq) {
        self.drain();
        self.block_until(|st| st.outcome(req).map(drop)).await;
    }

    /// Terminal failure of a request, if any: set when its ctrl message
    /// exhausted the reliability layer's retransmission budget. Always
    /// `None` on clean runs.
    pub fn req_error(&self, req: OffloadReq) -> Option<OffloadError> {
        self.st.borrow().outcome(req)?.err()
    }

    /// `Wait` with a deadline: until `req` completes, fails, or
    /// `timeout` simulated time elapses. On expiry the request is
    /// cancelled (the proxy is told to reap it) and
    /// [`OffloadError::DeadlineExceeded`] is returned; a cancelled
    /// request never completes afterwards.
    pub async fn wait_timeout(
        &self,
        req: OffloadReq,
        timeout: SimDelta,
    ) -> Result<(), OffloadError> {
        self.drain();
        if let Some(outcome) = self.st.borrow().outcome(req) {
            return outcome;
        }
        self.ctx.deliver_self(
            timeout,
            Box::new(NetMsg::Notify(Box::new(CtrlMsg::DeadlineTick {
                target: DeadlineTarget::Basic(req.0),
            }))),
        );
        self.block_until(|st| st.outcome(req)).await
    }

    /// Cancel an in-flight request. The slot fails with
    /// [`OffloadError::Cancelled`] and the proxy reaps any queued
    /// descriptors; a no-op when the request has already settled.
    pub fn cancel(&self, req: OffloadReq) {
        self.drain();
        // A retired request has settled: there is nothing to cancel.
        let msg_id = self.st.borrow().reqs.get(req.0).map(|s| s.msg_id);
        if let Some(msg_id) = msg_id {
            self.cancel_req(req.0, OffloadError::Cancelled { msg_id });
        }
    }

    /// Wait for every request in `reqs`.
    pub async fn wait_all(&self, reqs: &[OffloadReq]) {
        for &r in reqs {
            self.wait(r).await;
        }
    }

    /// `Finalize_Offload`: tell the mapped proxy this rank is done. All
    /// outstanding requests must have completed (or failed with a typed
    /// [`OffloadError`] under a fault plan).
    pub async fn finalize(&self) {
        self.drain();
        {
            let st = self.st.borrow();
            assert!(
                st.reqs.slots.iter().all(|r| r.done || r.error.is_some()),
                "finalize with incomplete basic requests"
            );
            assert!(
                st.groups
                    .iter()
                    .all(|g| g.fin_gen == g.gen || g.error.is_some()),
                "finalize with incomplete group requests"
            );
        }
        self.post_ctrl(
            self.proxy_ep,
            OffloadConfig::CTRL_BYTES,
            CtrlMsg::Shutdown { rank: self.rank },
            ReqOrigin::Free,
        );
        // Under a lossy plan the shutdown itself needs acking (and the
        // proxy won't quiesce while we hold unacked messages): pump the
        // ctrl plane until the pending table drains. Abandonment bounds
        // this wait even against a dead peer.
        self.block_until(|st| (!st.rel.has_pending()).then_some(()))
            .await;
        self.ctx
            .emit(&ProtoEvent::HostFinalized { rank: self.rank });
    }

    /// Basic-request slots still held: pending, or failed.
    #[cfg(test)]
    pub(crate) fn held_slots(&self) -> usize {
        self.st.borrow().reqs.slots.len()
    }

    // ---- internals ----

    /// Allocate a transfer id outside a request slot (group wire entries
    /// share the per-rank namespace with basic requests).
    fn alloc_msg_id(&self) -> u64 {
        let mut st = self.st.borrow_mut();
        st.next_msg_seq += 1;
        ((self.rank as u64) << 32) | st.next_msg_seq
    }

    /// Handle ctrl messages, waiting for each, until `ready` yields a
    /// value from the state. The rank's one wait: no state borrow (and
    /// no profile scope) is held across its `.await`.
    async fn block_until<T>(&self, mut ready: impl FnMut(&mut HostState) -> Option<T>) -> T {
        loop {
            if let Some(v) = ready(&mut self.st.borrow_mut()) {
                return v;
            }
            let msg = self.chan.next(&self.ctx).await;
            self.handle(msg);
        }
    }

    /// Drain pending completions without blocking.
    fn drain(&self) {
        while let Some(msg) = self.chan.try_next(&self.ctx) {
            self.handle(msg);
        }
    }

    fn handle(&self, msg: NetMsg) {
        static BAD_CTRL: StatKey = StatKey::new("offload.host.bad_ctrl");
        let decoded = match msg {
            NetMsg::Packet(p) => p.body.downcast::<CtrlMsg>().ok().map(|b| *b),
            NetMsg::Notify(b) => b.downcast::<CtrlMsg>().ok().map(|b| *b),
            NetMsg::Cqe(_) => return, // unsignaled paths only
        };
        let Some(body) = decoded else {
            // Not a control message despite the channel predicate: count
            // and drop rather than crashing the rank.
            self.ctx.stat_incr(&BAD_CTRL, 1);
            self.ctx.emit(&ProtoEvent::CtrlDropped {
                at_proxy: false,
                kind: CtrlKind::Unknown,
                msg_id: 0,
            });
            return;
        };
        // Reliability plumbing first: unwrap envelopes (ack + dedup),
        // retire acks, service retransmission timers. None of these count
        // as host wakeups — they exist only under a fault plan.
        let fab = self.cluster.fabric();
        let inbound = self.st.borrow_mut().rel.receive(&self.ctx, fab, body);
        let body = match inbound {
            Inbound::Msg(body) => body,
            Inbound::Tick(TickOutcome::Abandoned {
                msg_id,
                attempts,
                origin,
            }) => {
                let err = OffloadError::CtrlUndeliverable { msg_id, attempts };
                return self.fail_origin(origin, err, attempts);
            }
            // Ctrl retry budget exhausted for this peer: shed the message
            // and surface a typed failure instead of hammering a degraded
            // link (DESIGN.md §19).
            Inbound::Tick(TickOutcome::BudgetShed {
                msg_id,
                attempts,
                origin,
            }) => {
                static RETRY_BUDGET_SHEDS: StatKey =
                    StatKey::new("offload.health.retry_budget_sheds");
                self.ctx.stat_incr(&RETRY_BUDGET_SHEDS, 1);
                let err = OffloadError::RetryBudgetExhausted { msg_id, attempts };
                return self.fail_origin(origin, err, attempts);
            }
            Inbound::Tick(_) | Inbound::Absorbed => return,
        };
        let mut finished_msg = None;
        match body {
            // Host-side timers: no wakeup either.
            CtrlMsg::BackpressureTick => return self.flush_deferred(self.quota.cap.max(1)),
            CtrlMsg::DeadlineTick { target } => return self.on_deadline(target),
            CtrlMsg::FinSend { req, credit, .. } | CtrlMsg::FinRecv { req, credit, .. } => {
                finished_msg = self.settle(req, Ok(())).map(|(msg_id, _)| msg_id);
                if finished_msg.is_none() {
                    // Exactly-once completion: a FIN for an already-done
                    // request (replayed work after a proxy restart) must
                    // not re-complete it or re-emit `HostReqDone`. A
                    // cancelled (or otherwise failed) request never
                    // completes: a late FIN is dropped, keeping the
                    // slot's typed error authoritative.
                    static DUP_FINS: StatKey = StatKey::new("offload.reliable.dup_fins");
                    static LATE_FINS: StatKey = StatKey::new("offload.host.late_fins");
                    let st = self.st.borrow();
                    let stat = match st.reqs.get(req) {
                        Some(slot) if slot.done => &DUP_FINS,
                        Some(_) => &LATE_FINS,
                        None if req < st.reqs.base => &DUP_FINS,
                        None => &BAD_CTRL,
                    };
                    drop(st);
                    self.ctx.stat_incr(stat, 1);
                    return;
                }
                // The FIN's credit piggyback reports free proxy slots;
                // admit at least one deferred post (our own completion
                // freed a window slot even if the proxy reported none).
                self.flush_deferred((credit as usize).max(1));
            }
            CtrlMsg::RecvMeta {
                dst_rank,
                dst_req_id,
                entries,
            } => {
                let mut st = self.st.borrow_mut();
                st.metas_from
                    .entry(dst_rank)
                    .or_default()
                    .push_back((dst_req_id, entries));
            }
            CtrlMsg::GroupFin { req_id, gen } => self.on_group_fin(req_id, gen),
            CtrlMsg::ProxyRestarted { proxy, epoch } => {
                self.on_proxy_restarted(proxy, epoch);
            }
            CtrlMsg::QueueFull { msg_id } => self.on_queue_full(msg_id),
            // Typed data-plane failure: the proxy exhausted the bounded
            // payload-retransmission budget for this transfer.
            CtrlMsg::DataError {
                req,
                msg_id,
                attempts,
                shed,
            } => {
                // A shed transfer was dropped by the proxy's per-peer data
                // retry budget (the proxy already emitted
                // `RetryBudgetExhausted`); an exhausted one burned the full
                // `OffloadConfig::DATA_RETX_MAX` allowance.
                let err = if shed {
                    OffloadError::RetryBudgetExhausted { msg_id, attempts }
                } else {
                    OffloadError::DataIntegrity { msg_id, attempts }
                };
                self.fail_basic(req, err, attempts);
            }
            CtrlMsg::GroupDataError { req_id, gen, .. } => {
                self.fail_group(req_id, gen);
            }
            #[expect(
                clippy::panic,
                reason = "the host's ctrl channel carries host-bound messages only; anything else is a protocol bug"
            )]
            other => panic!(
                "unexpected control message on host {}: {other:?}",
                self.rank
            ),
        }
        // The host CPU just spent cycles on the offload plane. If work is
        // still outstanding after applying the message, this was a genuine
        // mid-operation intervention (the paper's overlap killer); a
        // terminal completion notice is a plain wakeup.
        let outstanding = {
            let st = self.st.borrow();
            debug_assert_eq!(
                st.groups_in_flight,
                st.groups.iter().filter(|g| g.in_flight()).count()
            );
            !st.reqs.slots.is_empty() || st.groups_in_flight > 0
        };
        static WAKEUPS: StatKey = StatKey::new("offload.host.wakeups");
        self.ctx.stat_incr(&WAKEUPS, 1);
        if outstanding {
            static INTERVENTIONS: StatKey = StatKey::new("offload.host.interventions");
            self.ctx.stat_incr(&INTERVENTIONS, 1);
        }
        self.ctx.emit(&ProtoEvent::HostWakeup {
            rank: self.rank,
            intervention: outstanding,
        });
        // FIN observed: close the transfer's causal timeline. Emitted
        // after the wakeup so observers see intervention classification
        // and completion at the same instant, in a fixed order.
        if let Some(msg_id) = finished_msg {
            self.ctx.emit(&ProtoEvent::HostReqDone {
                rank: self.rank,
                msg_id,
                more_outstanding: outstanding,
            });
        }
    }

    /// Surface a permanent ctrl-plane failure on whatever the abandoned
    /// or shed message was working for.
    fn fail_origin(&self, origin: ReqOrigin, err: OffloadError, attempts: u32) {
        match origin {
            ReqOrigin::Free => {}
            ReqOrigin::Basic(req) => {
                // A ctrl shed's event pairs 1:1 with the `ReqFailed` that
                // `fail_basic` emits (group sheds surface through
                // `GroupFailed` instead). Shedding the retransmit stream
                // of an already-settled request (the message landed but
                // its ack kept getting dropped) surfaces nothing.
                if let OffloadError::RetryBudgetExhausted { msg_id, .. } = err {
                    if self.st.borrow().reqs.get(req).is_some_and(ReqSlot::open) {
                        self.ctx.emit(&ProtoEvent::RetryBudgetExhausted {
                            rank: self.rank,
                            msg_id,
                            path: HealthPath::Ctrl,
                        });
                    }
                }
                self.fail_basic(req, err, attempts);
            }
            ReqOrigin::Group(req_id) => {
                let gen = self.st.borrow_mut().group(GroupRequest(req_id)).gen;
                self.fail_group(req_id, gen);
            }
        }
    }
}
