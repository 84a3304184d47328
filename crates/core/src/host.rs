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
//! ([`rdma::Channel::next`]). A future rank awaits them; a thread-backed
//! rank (one that also blocks in `minimpi`) runs them with
//! `ctx.block_on(..)`.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rdma::{Channel, ClusterCtx, EpId, Inbox, MrKey, NetMsg, VAddr};
use simnet::{ProcessCtx, SimDelta, StatKey};

use crate::config::{DataPath, OffloadConfig, TenantId, TenantQuota};
use crate::events::{
    CacheOutcome, CacheSide, CtrlKind, HealthPath, HostCacheKind, ProtoEvent, ReqDir,
};
use crate::messages::{CtrlMsg, GroupKey, WireEntry, WRID_MASK, WRID_OFF_HOST};
use crate::reg_cache::RankAddrCache;
use crate::reliable::{
    backoff_delay_from, Inbound, OffloadError, ReliableLink, ReqOrigin, TickOutcome,
};

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

/// `DeadlineTick.req` values at or above this mark group deadlines; the
/// group request id is `req - GROUP_DEADLINE_BASE`. Basic slots are
/// `Vec` indices and can never reach this.
const GROUP_DEADLINE_BASE: usize = 1 << 48;

/// One recorded group operation.
#[derive(Clone, Debug)]
enum GroupOp {
    Send {
        addr: VAddr,
        len: u64,
        dst: usize,
        tag: u64,
    },
    Recv {
        addr: VAddr,
        len: u64,
        src: usize,
        tag: u64,
    },
    Barrier,
}

struct GroupState {
    ops: Vec<GroupOp>,
    ended: bool,
    gen: u64,
    fin_gen: u64,
    /// Wire entries built during the first call (metadata gather done).
    wire: Option<Vec<WireEntry>>,
    /// Proxy already holds the metadata (group cache is warm).
    proxy_cached: bool,
    /// Terminal failure of the in-flight generation: a group ctrl
    /// message was abandoned, a group entry exhausted its data-path
    /// retransmission budget, or a group deadline expired.
    error: Option<OffloadError>,
}

/// One receive-metadata entry: `(tag, buffer, rkey)`.
type MetaEntry = (u64, VAddr, MrKey);

/// Metadata received from one receiving host, consumed FIFO per source:
/// `(dst_req_id, entries)`.
struct MetaQueue {
    queue: VecDeque<(usize, Vec<MetaEntry>)>,
}

/// One basic-request slot: completion flag plus the stable transfer id
/// assigned at post time (threads the causal timeline through the event
/// stream).
struct ReqSlot {
    done: bool,
    msg_id: u64,
    /// Terminal failure: ctrl abandonment, data-integrity exhaustion,
    /// deadline expiry, or an application cancel.
    error: Option<OffloadError>,
    /// Destination and ctrl message kept for replay after a proxy
    /// restart. Populated only when the fault plan can crash proxies.
    replay: Option<(EpId, CtrlMsg)>,
    /// Endpoint the request was posted to (cancel routing). `None`
    /// while the post is still deferred by the credit window.
    target: Option<EpId>,
    /// Original post kept for deferred admission and `QueueFull`
    /// re-posts. Populated only when the queue cap is armed.
    post: Option<(EpId, CtrlMsg)>,
    /// Endpoint index currently charged one credit for this request.
    window_ep: Option<usize>,
    /// Backpressure re-post attempts (paces the retry backoff).
    attempts: u32,
    /// GVMI-cache entry pinned while this request is in flight
    /// (`(proxy_idx, addr, len)`); set only under a cache budget.
    pin: Option<(usize, u64, u64)>,
}

impl ReqSlot {
    /// Neither done nor failed.
    fn open(&self) -> bool {
        !self.done && self.error.is_none()
    }
}

/// A rank's basic-request slots, by request index. Settling clears a
/// slot down to `done`, so completed slots at the front are retired:
/// memory follows the requests in flight, not the requests posted, and
/// the table is empty exactly when no slot is pending. A failed slot is
/// never `done`; it keeps its error, and the span behind it.
#[derive(Default)]
struct ReqTable {
    /// Request index of `slots[0]`, which is never `done`; every
    /// request below it is.
    base: usize,
    /// In strictly increasing `msg_id` order.
    slots: VecDeque<ReqSlot>,
}

impl ReqTable {
    fn get(&self, req: usize) -> Option<&ReqSlot> {
        self.slots.get(req.checked_sub(self.base)?)
    }

    fn get_mut(&mut self, req: usize) -> Option<&mut ReqSlot> {
        self.slots.get_mut(req.checked_sub(self.base)?)
    }

    /// The request index of `msg_id` if that request is still open: ids
    /// only grow along the table, so a binary search finds it.
    fn open_slot(&self, msg_id: u64) -> Option<usize> {
        let i = self
            .slots
            .binary_search_by_key(&msg_id, |s| s.msg_id)
            .ok()?;
        self.slots.get(i)?.open().then_some(self.base + i)
    }
}

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
    /// Order-stable on purpose: message matching must never depend on
    /// hash-iteration order (see `xtask lint`).
    metas_from: BTreeMap<usize, MetaQueue>,
    /// Reliable ctrl-plane endpoint (seq/ack/retransmit/dedup). Inert
    /// unless the fault plan arms it.
    rel: ReliableLink,
    /// Last restart epoch observed per proxy endpoint index; a higher
    /// epoch in a `ProxyRestarted` notice triggers recovery.
    proxy_epochs: BTreeMap<usize, u64>,
    /// Outstanding admitted basic posts per target endpoint index
    /// (credit window; maintained when the queue cap or this rank's
    /// tenant soft quota is armed).
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
            None if req.0 >= self.reqs.base => panic!("unknown request {}", req.0),
            _ => Some(Ok(())),
        }
    }

    /// Return the credit `req` holds, if any.
    fn release_window(&mut self, req: usize) {
        let ep = self.reqs.get_mut(req).and_then(|s| s.window_ep.take());
        if let Some(w) = ep.and_then(|ep| self.window.get_mut(&ep)) {
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
        let (fault, ctrl_bytes) = (cfg.fault, cfg.ctrl_bytes);
        // Hosts arm the ctrl retry budget (shed-and-surface is a typed
        // request failure here); proxies never do — see
        // [`OffloadConfig::ctrl_knobs`].
        let knobs = cfg.ctrl_knobs(true);
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
                metas_from: BTreeMap::new(),
                rel: ReliableLink::new(fault, knobs, ctrl_bytes, false, ep),
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
        let origin = ReqOrigin::Basic(req);
        self.post_ctrl(self.proxy_ep, self.cfg.ctrl_bytes, msg, origin);
        static HOST_DPU: StatKey = StatKey::new("offload.ctrl.host_dpu");
        self.ctx.stat_incr(&HOST_DPU, 1);
    }

    /// Ship one ctrl message through the link, which sends it bare on a
    /// plan that does not arm reliability. When proxies can crash, a
    /// basic-origin message is also stored on its slot for replay.
    fn post_ctrl(&self, to: EpId, bytes: u64, msg: CtrlMsg, origin: ReqOrigin) {
        crate::profile_scope!("ctrl_encode");
        let mut st = self.st.borrow_mut();
        if let ReqOrigin::Basic(r) = origin {
            if self.cfg.fault.crash_at_step > 0 {
                if let Some(slot) = st.reqs.get_mut(r) {
                    slot.replay = Some((to, msg.clone()));
                }
            }
        }
        let fab = self.cluster.fabric();
        st.rel.send(&self.ctx, fab, to, bytes, msg, origin);
    }

    /// CRC32 of a posted payload, computed only when the run injects
    /// payload faults (clean runs skip the checksum entirely).
    fn payload_crc(&self, addr: VAddr, len: u64) -> Option<u32> {
        self.cfg.fault.payload_faults().then(|| {
            self.cluster
                .fabric()
                .crc32(self.ep, addr, len)
                .expect("CRC of a posted buffer")
        })
    }

    /// Completion horizon piggybacked on RTS/RTR (0 unless the journal
    /// cap is armed).
    fn horizon(&self) -> u64 {
        if self.cfg.journal_cap == 0 {
            0
        } else {
            self.st.borrow().ack_horizon
        }
    }

    /// Whether host-side admission control is live: the global queue
    /// cap, or this rank's tenant soft quota. Off on uncapped runs
    /// without one (byte-identical to the pre-credit engine).
    fn credit_armed(&self) -> bool {
        self.cfg.queue_cap > 0 || self.quota.soft > 0
    }

    /// Post a basic request through the admission policy: shed
    /// immediately when the tenant is over its hard quota, deferred to
    /// the back of the FIFO when the post is [`Self::blocked`], admitted
    /// otherwise.
    fn post_basic(&self, req: usize, msg_id: u64, to: EpId, mut msg: CtrlMsg) {
        let hard = self.quota.hard;
        // `live_basic` already counts this request's slot.
        if hard > 0 && self.st.borrow().live_basic > hard {
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
        {
            let mut st = self.st.borrow_mut();
            if self.credit_armed() {
                if let Some(slot) = st.reqs.get_mut(req) {
                    slot.post = Some((to, msg.clone()));
                }
                if self.blocked(&st.window, to) {
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
            }
            self.admit(&mut st, req, to, &mut msg);
        }
        self.ship(req, to, msg);
    }

    /// The one admission check: would a post to `to` bust the target's
    /// credit window (the queue cap) or this rank's tenant soft quota?
    fn blocked(&self, window: &BTreeMap<usize, usize>, to: EpId) -> bool {
        let used = window.get(&to.index()).copied().unwrap_or(0);
        let soft = self.quota.soft;
        (self.cfg.queue_cap > 0 && used >= self.cfg.queue_cap)
            || (soft > 0 && window.values().sum::<usize>() >= soft)
    }

    /// Admit one basic post: refresh the completion horizon it
    /// piggybacks (a deferred post may have waited through many
    /// completions, and the proxy's journal truncation must track
    /// reality, not the build instant), charge the target a credit when
    /// admission is armed, and record the target for cancel routing.
    fn admit(&self, st: &mut HostState, req: usize, to: EpId, msg: &mut CtrlMsg) {
        if self.cfg.journal_cap > 0 {
            if let CtrlMsg::Rts { ack_horizon, .. } | CtrlMsg::Rtr { ack_horizon, .. } = msg {
                *ack_horizon = st.ack_horizon;
            }
        }
        let armed = self.credit_armed();
        if armed {
            *st.window.entry(to.index()).or_insert(0) += 1;
        }
        if let Some(slot) = st.reqs.get_mut(req) {
            if armed {
                slot.window_ep = Some(to.index());
            }
            slot.target = Some(to);
        }
    }

    /// Ship an admitted basic post.
    fn ship(&self, req: usize, to: EpId, msg: CtrlMsg) {
        crate::profile_scope!("credit_admission");
        self.post_ctrl(to, self.cfg.ctrl_bytes, msg, ReqOrigin::Basic(req));
        static HOST_DPU: StatKey = StatKey::new("offload.ctrl.host_dpu");
        self.ctx.stat_incr(&HOST_DPU, 1);
    }

    /// Admit up to `limit` deferred posts, oldest first: a settled head
    /// is dropped for free, and a head that is still [`Self::blocked`]
    /// stops the flush. On a multi-tenant run each admission also emits
    /// a `DrrGrant`.
    fn flush_deferred(&self, limit: usize) {
        if !self.credit_armed() {
            return;
        }
        // Admission happens under one state borrow, so the credit check
        // sees each earlier grant; the granted posts ship after it ends —
        // post_ctrl re-borrows state for replay and the reliable link.
        let mut granted: Vec<(usize, u64, EpId, CtrlMsg)> = Vec::new();
        {
            let mut guard = self.st.borrow_mut();
            let st = &mut *guard;
            while granted.len() < limit {
                let Some(&req) = st.deferred.front() else {
                    break;
                };
                let live = st.reqs.get(req).filter(|s| s.open());
                if let Some((msg_id, (to, mut msg))) =
                    live.and_then(|s| Some((s.msg_id, s.post.clone()?)))
                {
                    if self.blocked(&st.window, to) {
                        break;
                    }
                    self.admit(st, req, to, &mut msg);
                    granted.push((req, msg_id, to, msg));
                }
                st.deferred.pop_front();
            }
        }
        for (req, msg_id, to, msg) in granted {
            if self.cfg.multi_tenant() {
                static DRR_GRANTS: StatKey = StatKey::new("offload.credit.drr_grants");
                self.ctx.stat_incr(&DRR_GRANTS, 1);
                self.ctx.emit(&ProtoEvent::DrrGrant {
                    tenant: self.tenant,
                    rank: self.rank,
                    msg_id,
                });
            }
            self.ship(req, to, msg);
        }
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

    /// Fold a terminally-settled transfer id into the ack horizon
    /// (journal-truncation tracking; no-op unless the cap is armed).
    fn note_settled(&self, msg_id: u64) {
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
        let msg = CtrlMsg::Rts {
            src_rank: self.rank,
            dst_rank: dst,
            tag,
            addr,
            len,
            mkey,
            src_rkey,
            src_req: req,
            src_pid: self.ctx.pid(),
            msg_id,
            crc: self.payload_crc(addr, len),
            ack_horizon: self.horizon(),
            tenant: self.tenant,
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
        let msg = CtrlMsg::Rtr {
            src_rank: src,
            dst_rank: self.rank,
            tag,
            addr,
            len,
            rkey,
            dst_req: req,
            dst_pid: self.ctx.pid(),
            msg_id,
            ack_horizon: self.horizon(),
            tenant: self.tenant,
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
                req: req.0,
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
            self.cfg.ctrl_bytes,
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

    // ---- Group primitives ----

    /// `Group_Offload_start`: begin recording a communication graph.
    pub fn group_start(&self) -> GroupRequest {
        let mut st = self.st.borrow_mut();
        st.groups.push(GroupState {
            ops: Vec::new(),
            ended: false,
            gen: 0,
            fin_gen: 0,
            wire: None,
            proxy_cached: false,
            error: None,
        });
        GroupRequest(st.groups.len() - 1)
    }

    /// `Send_Goffload`: record an offloaded send in the graph.
    pub fn group_send(&self, req: GroupRequest, addr: VAddr, len: u64, dst: usize, tag: u64) {
        assert!(dst < self.size(), "group_send: bad destination {dst}");
        let mut st = self.st.borrow_mut();
        let g = &mut st.groups[req.0];
        assert!(!g.ended, "group_send after group_end");
        g.ops.push(GroupOp::Send {
            addr,
            len,
            dst,
            tag,
        });
    }

    /// `Recv_Goffload`: record an offloaded receive in the graph.
    pub fn group_recv(&self, req: GroupRequest, addr: VAddr, len: u64, src: usize, tag: u64) {
        assert!(src < self.size(), "group_recv: bad source {src}");
        let mut st = self.st.borrow_mut();
        let g = &mut st.groups[req.0];
        assert!(!g.ended, "group_recv after group_end");
        g.ops.push(GroupOp::Recv {
            addr,
            len,
            src,
            tag,
        });
    }

    /// `Local_barrier_Goffload`: operations recorded after this point
    /// start only after everything before it has completed *on the DPU*,
    /// with no host involvement.
    pub fn group_barrier(&self, req: GroupRequest) {
        let mut st = self.st.borrow_mut();
        let g = &mut st.groups[req.0];
        assert!(!g.ended, "group_barrier after group_end");
        g.ops.push(GroupOp::Barrier);
    }

    /// `Group_Offload_end`: finish recording.
    pub fn group_end(&self, req: GroupRequest) {
        let mut st = self.st.borrow_mut();
        st.groups[req.0].ended = true;
    }

    /// `Group_Offload_call`: offload the recorded graph to the proxy. On
    /// the first call this registers all buffers, gathers receive metadata
    /// from the destination hosts, and ships the full packet; later calls
    /// hit the caches and send a single small execute message (paper
    /// §VII-D).
    pub async fn group_call(&self, req: GroupRequest) {
        assert!(
            self.st.borrow().groups[req.0].ended,
            "group_call before group_end"
        );
        self.drain();
        let gen = {
            let mut st = self.st.borrow_mut();
            let g = &mut st.groups[req.0];
            g.gen += 1;
            // A fresh generation gets a fresh verdict; the previous
            // generation's failure was surfaced by its `group_wait`.
            g.error = None;
            g.gen
        };
        let need_build = self.st.borrow().groups[req.0].wire.is_none();
        if need_build {
            self.build_wire(req).await;
        }
        let use_cache = self.cfg.use_group_cache;
        let cached = self.st.borrow().groups[req.0].proxy_cached;
        if cached && use_cache {
            self.send_group_exec(req, gen);
        } else {
            self.send_group_packet(req, gen);
            self.st.borrow_mut().groups[req.0].proxy_cached = true;
        }
        // The overlap window (paper Figs. 12/14) opens when control
        // returns to the application.
        self.ctx.emit(&ProtoEvent::GroupCallReturned {
            host_rank: self.rank,
            req_id: req.0,
            gen,
        });
    }

    /// `Group_Wait`: until generation `gen` (the latest call) of
    /// the group request completes on the DPU — or fails permanently
    /// (group ctrl abandonment, data-integrity exhaustion, or a group
    /// deadline), in which case the typed error is returned instead of
    /// stalling forever. Always `Ok` on clean runs.
    pub async fn group_wait(&self, req: GroupRequest) -> Result<(), OffloadError> {
        self.drain();
        let gen = self
            .block_until(|st| {
                let g = &st.groups[req.0];
                if g.fin_gen >= g.gen {
                    Some(Ok(g.gen))
                } else {
                    g.error.map(Err)
                }
            })
            .await?;
        self.ctx.emit(&ProtoEvent::GroupWaitDone {
            host_rank: self.rank,
            req_id: req.0,
            gen,
        });
        Ok(())
    }

    /// `Group_Wait` with a deadline: like [`Offload::group_wait`], but
    /// the in-flight generation is failed (and the error returned) if it
    /// has not finished after `timeout` simulated time.
    pub async fn group_wait_timeout(
        &self,
        req: GroupRequest,
        timeout: SimDelta,
    ) -> Result<(), OffloadError> {
        self.drain();
        let armed = {
            let st = self.st.borrow();
            let g = &st.groups[req.0];
            g.fin_gen < g.gen && g.error.is_none()
        };
        if armed {
            self.ctx.deliver_self(
                timeout,
                Box::new(NetMsg::Notify(Box::new(CtrlMsg::DeadlineTick {
                    req: GROUP_DEADLINE_BASE + req.0,
                }))),
            );
        }
        self.group_wait(req).await
    }

    /// Terminal failure of the latest group generation, if any.
    pub fn group_error(&self, req: GroupRequest) -> Option<OffloadError> {
        self.st.borrow().groups[req.0].error
    }

    /// Has the latest generation of `req` settled (completed or failed
    /// permanently)? Drains completions.
    pub fn group_test(&self, req: GroupRequest) -> bool {
        self.drain();
        let st = self.st.borrow();
        let g = &st.groups[req.0];
        g.fin_gen >= g.gen || g.error.is_some()
    }

    // ---- internals ----

    fn new_req(&self) -> (usize, u64) {
        let msg_id = self.alloc_msg_id();
        let mut st = self.st.borrow_mut();
        st.live_basic += 1;
        st.reqs.slots.push_back(ReqSlot {
            done: false,
            msg_id,
            error: None,
            replay: None,
            target: None,
            post: None,
            window_ep: None,
            attempts: 0,
            pin: None,
        });
        (st.reqs.base + st.reqs.slots.len() - 1, msg_id)
    }

    /// Allocate a transfer id outside a request slot (group wire entries
    /// share the per-rank namespace with basic requests).
    fn alloc_msg_id(&self) -> u64 {
        let mut st = self.st.borrow_mut();
        st.next_msg_seq += 1;
        ((self.rank as u64) << 32) | st.next_msg_seq
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
        let key = match kind {
            HostCacheKind::Gvmi => {
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

    /// First-call phase of a group request: register everything, gather
    /// receive metadata from the peers my sends target, and build the wire
    /// entries (paper Fig. 9).
    async fn build_wire(&self, req: GroupRequest) {
        let ops = self.st.borrow().groups[req.0].ops.clone();
        // Register send buffers (GVMI cache) and receive buffers (IB cache).
        let mut send_keys = Vec::new();
        let mut recv_keys = Vec::new();
        for op in &ops {
            match op {
                GroupOp::Send { addr, len, .. } => send_keys.push(self.send_keys(*addr, *len)),
                GroupOp::Recv { addr, len, .. } => {
                    recv_keys.push(self.cached_reg(HostCacheKind::Ib, *addr, *len));
                    send_keys.push((None, None));
                }
                GroupOp::Barrier => send_keys.push((None, None)),
            }
        }
        // Send my receive metadata to each source rank (sorted by rank so
        // posting order — and therefore timing — is deterministic).
        let mut per_src: std::collections::BTreeMap<usize, Vec<MetaEntry>> =
            std::collections::BTreeMap::new();
        let mut rk = 0usize;
        for op in &ops {
            if let GroupOp::Recv { addr, src, tag, .. } = op {
                per_src
                    .entry(*src)
                    .or_default()
                    .push((*tag, *addr, recv_keys[rk]));
                rk += 1;
            }
        }
        for (src, entries) in per_src {
            let n = entries.len() as u64;
            self.post_ctrl(
                self.cluster.host_ep(src),
                self.cfg.ctrl_bytes + self.cfg.entry_bytes * n,
                CtrlMsg::RecvMeta {
                    dst_rank: self.rank,
                    dst_req_id: req.0,
                    entries,
                },
                ReqOrigin::Free,
            );
            self.ctx.emit(&ProtoEvent::RecvMetaSent {
                from_rank: self.rank,
                to_rank: src,
                req_id: req.0,
            });
        }
        // Gather metadata from every destination of my sends (sorted, for
        // the same determinism reason).
        let mut needed: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for op in &ops {
            if let GroupOp::Send { dst, .. } = op {
                *needed.entry(*dst).or_insert(0) += 1;
            }
        }
        let mut metas: BTreeMap<usize, (usize, VecDeque<MetaEntry>)> = BTreeMap::new();
        for (&dst, &cnt) in &needed {
            let (dst_req_id, entries) = self
                .block_until(|st| {
                    let q = st.metas_from.get_mut(&dst)?;
                    q.queue.pop_front()
                })
                .await;
            assert!(
                entries.len() >= cnt,
                "peer {dst} granted {} buffers, need {cnt}",
                entries.len()
            );
            metas.insert(dst, (dst_req_id, entries.into_iter().collect()));
        }
        // Match each send with the destination's next receive entry of the
        // same tag (paper: "matched ... based on destination rank, tag").
        let mut wire = Vec::with_capacity(ops.len());
        for (sk, op) in ops.iter().enumerate() {
            match op {
                GroupOp::Send {
                    addr,
                    len,
                    dst,
                    tag,
                } => {
                    let (dst_req_id, entries) = metas.get_mut(dst).expect("meta gathered");
                    let pos = entries
                        .iter()
                        .position(|(t, _, _)| t == tag)
                        .unwrap_or_else(|| panic!("no matching recv at {dst} for tag {tag}"));
                    let (_, dst_addr, dst_rkey) = entries.remove(pos).expect("present");
                    let (mkey, src_rkey) = send_keys[sk];
                    wire.push(WireEntry::Send {
                        addr: *addr,
                        len: *len,
                        mkey: mkey.unwrap_or(MrKey::invalid()),
                        src_rkey: src_rkey.unwrap_or(MrKey::invalid()),
                        dst_rank: *dst,
                        tag: *tag,
                        dst_addr,
                        dst_rkey,
                        dst_req_id: *dst_req_id,
                        msg_id: self.alloc_msg_id(),
                        crc: self.payload_crc(*addr, *len),
                    });
                }
                GroupOp::Recv { src, tag, .. } => {
                    wire.push(WireEntry::Recv {
                        src_rank: *src,
                        tag: *tag,
                    });
                }
                GroupOp::Barrier => wire.push(WireEntry::Barrier),
            }
        }
        self.st.borrow_mut().groups[req.0].wire = Some(wire);
    }

    fn send_group_packet(&self, req: GroupRequest, gen: u64) {
        let entries = self.st.borrow().groups[req.0]
            .wire
            .clone()
            .expect("wire built");
        let n = entries.len() as u64;
        self.post_ctrl(
            self.proxy_ep,
            self.cfg.ctrl_bytes + self.cfg.entry_bytes * n,
            CtrlMsg::GroupPacket {
                key: GroupKey {
                    host_rank: self.rank,
                    req_id: req.0,
                },
                gen,
                entries,
                host_pid: self.ctx.pid(),
            },
            ReqOrigin::Group(req.0),
        );
        self.ctx.emit(&ProtoEvent::GroupPacketSent {
            host_rank: self.rank,
            req_id: req.0,
        });
        static HOST_DPU: StatKey = StatKey::new("offload.ctrl.host_dpu");
        static GROUP_PACKETS: StatKey = StatKey::new("offload.group.packets");
        self.ctx.stat_incr(&HOST_DPU, 1);
        self.ctx.stat_incr(&GROUP_PACKETS, 1);
    }

    fn send_group_exec(&self, req: GroupRequest, gen: u64) {
        self.post_ctrl(
            self.proxy_ep,
            self.cfg.ctrl_bytes,
            CtrlMsg::GroupExec {
                key: GroupKey {
                    host_rank: self.rank,
                    req_id: req.0,
                },
                gen,
            },
            ReqOrigin::Group(req.0),
        );
        self.ctx.emit(&ProtoEvent::GroupExecSent {
            host_rank: self.rank,
            req_id: req.0,
            gen,
        });
        static HOST_DPU: StatKey = StatKey::new("offload.ctrl.host_dpu");
        static GROUP_EXECS: StatKey = StatKey::new("offload.group.execs");
        self.ctx.stat_incr(&HOST_DPU, 1);
        self.ctx.stat_incr(&GROUP_EXECS, 1);
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
        let decoded = match msg {
            NetMsg::Packet(p) => p.body.downcast::<CtrlMsg>().ok().map(|b| *b),
            NetMsg::Notify(b) => b.downcast::<CtrlMsg>().ok().map(|b| *b),
            NetMsg::Cqe(_) => return, // unsignaled paths only
        };
        let Some(body) = decoded else {
            // Not a control message despite the channel predicate: count
            // and drop rather than crashing the rank.
            static BAD_CTRL: StatKey = StatKey::new("offload.host.bad_ctrl");
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
            CtrlMsg::BackpressureTick => return self.flush_deferred(self.cfg.queue_cap.max(1)),
            CtrlMsg::DeadlineTick { req } => return self.on_deadline(req),
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
                    static BAD_CTRL: StatKey = StatKey::new("offload.host.bad_ctrl");
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
                    .or_insert_with(|| MetaQueue {
                        queue: VecDeque::new(),
                    })
                    .queue
                    .push_back((dst_req_id, entries));
            }
            CtrlMsg::GroupFin { req_id, gen } => {
                let ids: Vec<u64> = {
                    let mut st = self.st.borrow_mut();
                    let g = &mut st.groups[req_id];
                    let first_fin = g.fin_gen == 0 && gen > 0;
                    // `max` keeps duplicate group FINs idempotent.
                    g.fin_gen = g.fin_gen.max(gen);
                    // Group wire entries share the msg-id namespace with
                    // basic requests but never enter the proxies' FIN
                    // journals; fold them into the ack horizon on the
                    // first completion so it can advance past them.
                    if first_fin && self.cfg.journal_cap > 0 {
                        g.wire
                            .iter()
                            .flatten()
                            .filter_map(|e| match e {
                                WireEntry::Send { msg_id, .. } => Some(*msg_id),
                                _ => None,
                            })
                            .collect()
                    } else {
                        Vec::new()
                    }
                };
                for id in ids {
                    self.note_settled(id);
                }
            }
            CtrlMsg::ProxyRestarted { proxy, epoch } => {
                self.on_proxy_restarted(proxy, epoch);
            }
            // Backpressure: the proxy refused admission. Return the
            // credit, park the request on the deferred queue, and retry
            // after an exponential backoff.
            CtrlMsg::QueueFull { msg_id } => {
                let attempt = {
                    let mut guard = self.st.borrow_mut();
                    let st = &mut *guard;
                    st.reqs.open_slot(msg_id).and_then(|req| {
                        st.release_window(req);
                        st.deferred.push_back(req);
                        let slot = st.reqs.get_mut(req)?;
                        slot.target = None;
                        slot.attempts += 1;
                        Some(slot.attempts)
                    })
                };
                if let Some(attempt) = attempt {
                    static NACKS: StatKey = StatKey::new("offload.credit.nacks");
                    self.ctx.stat_incr(&NACKS, 1);
                    self.ctx.deliver_self(
                        backoff_delay_from(self.cfg.retx_base, self.cfg.retx_cap, attempt),
                        Box::new(NetMsg::Notify(Box::new(CtrlMsg::BackpressureTick))),
                    );
                }
            }
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
                // `data_retx_max` allowance.
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
            !st.reqs.slots.is_empty() || st.groups.iter().any(|g| g.fin_gen < g.gen)
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
                let gen = self.st.borrow().groups[req_id].gen;
                self.fail_group(req_id, gen);
            }
        }
    }

    /// Settle basic request `req` as completed (`Ok`) or failed: mark
    /// the slot, drop its replay and post copies, return its credit,
    /// unpin its cache entry and fold it into the ack horizon. Its
    /// `(msg_id, target)`; `None`, changing nothing, when the slot is
    /// unknown or already settled.
    fn settle(&self, req: usize, outcome: Result<(), OffloadError>) -> Option<(u64, Option<EpId>)> {
        let settled = {
            let mut guard = self.st.borrow_mut();
            let st = &mut *guard;
            let slot = st.reqs.get_mut(req).filter(|s| s.open())?;
            match outcome {
                Ok(()) => slot.done = true,
                Err(e) => slot.error = Some(e),
            }
            slot.replay = None;
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
    fn fail_basic(&self, req: usize, err: OffloadError, attempts: u32) {
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

    /// Fail the in-flight generation of a group request; false, changing
    /// nothing, when it already settled or `gen` is an older generation.
    fn fail_group(&self, req_id: usize, gen: u64) -> bool {
        let gen = {
            let mut st = self.st.borrow_mut();
            let Some(g) = st.groups.get_mut(req_id) else {
                return false;
            };
            if gen < g.gen || g.fin_gen >= g.gen || g.error.is_some() {
                return false;
            }
            g.error = Some(OffloadError::GroupFailed { req_id, gen: g.gen });
            g.gen
        };
        static GROUP_FAILURES: StatKey = StatKey::new("offload.group.failures");
        self.ctx.stat_incr(&GROUP_FAILURES, 1);
        self.ctx.emit(&ProtoEvent::GroupFailed {
            host_rank: self.rank,
            req_id,
            gen,
        });
        true
    }

    /// Cancel a request slot: typed error, proxy reap notice, credit and
    /// pin release (idempotent).
    fn cancel_req(&self, req: usize, err: OffloadError) {
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
                self.cfg.ctrl_bytes,
                CtrlMsg::Cancel { msg_id },
                ReqOrigin::Free,
            );
            static HOST_DPU: StatKey = StatKey::new("offload.ctrl.host_dpu");
            self.ctx.stat_incr(&HOST_DPU, 1);
        }
        self.flush_deferred(1);
    }

    /// A deadline timer fired: cancel the request (or fail the group
    /// generation) if it still has not settled.
    fn on_deadline(&self, req: usize) {
        static EXPIRED: StatKey = StatKey::new("offload.deadline.expired");
        if let Some(req_id) = req.checked_sub(GROUP_DEADLINE_BASE) {
            let gen = self.st.borrow().groups[req_id].gen;
            if self.fail_group(req_id, gen) {
                self.ctx.stat_incr(&EXPIRED, 1);
            }
            return;
        }
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
    fn on_proxy_restarted(&self, proxy: EpId, epoch: u64) {
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
        // proxy. The proxy's completion journal survives the crash, so a
        // request whose FIN raced the crash is answered directly instead
        // of re-executed.
        let replays: Vec<(usize, u64, CtrlMsg)> = {
            let st = self.st.borrow();
            let slots = (st.reqs.base..).zip(&st.reqs.slots);
            let open = slots.filter(|(_, s)| s.open());
            open.filter_map(|(i, s)| match &s.replay {
                Some((to, m)) if *to == proxy => Some((i, s.msg_id, m.clone())),
                _ => None,
            })
            .collect()
        };
        for (req, msg_id, msg) in replays {
            static REPLAYS: StatKey = StatKey::new("offload.reliable.replays");
            self.ctx.stat_incr(&REPLAYS, 1);
            self.ctx.emit(&ProtoEvent::ReqReplayed {
                rank: self.rank,
                msg_id,
            });
            self.post_ctrl(proxy, self.cfg.ctrl_bytes, msg, ReqOrigin::Basic(req));
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
                static REPLAYS: StatKey = StatKey::new("offload.reliable.replays");
                self.ctx.stat_incr(&REPLAYS, 1);
                self.ctx.emit(&ProtoEvent::ReqReplayed {
                    rank: self.rank,
                    msg_id: 0,
                });
                self.send_group_packet(GroupRequest(req_id), gen);
                self.st.borrow_mut().groups[req_id].proxy_cached = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(msg_id: u64) -> ReqSlot {
        ReqSlot {
            done: false,
            msg_id,
            error: None,
            replay: None,
            target: None,
            post: None,
            window_ep: None,
            attempts: 0,
            pin: None,
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
}
