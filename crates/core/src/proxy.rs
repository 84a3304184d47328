//! The DPU proxy (worker) process.
//!
//! One proxy serves every host rank mapped to it via the paper's formula
//! `proxy_local_rank = host_rank % num_proxies_per_dpu`. It is a pure
//! event loop — the "progress engine" of paper Algorithm 1 — and runs as
//! an inline reactor ([`proxy_fn`]): the simulation kernel calls it once
//! per control message or completion and it never blocks mid-step. It:
//!
//! * matches Basic-primitive RTS/RTR control messages in one descriptor
//!   table keyed by `(src, dst, tag)` (paper Fig. 8), then moves the data
//!   either via cross-GVMI (direct host→host RDMA on behalf of the host)
//!   or via its staging buffers;
//! * caches cross-registrations in the DPU-side array-of-BSTs cache;
//! * stores group-request metadata (paper §VII-D) and executes group
//!   generations entry by entry, suspending at `Local_barrier` points and
//!   resuming from the progress engine when completions/arrivals land —
//!   the paper's deadlock-avoidance rule ("break from the function to the
//!   progress engine").
//!
//! **One descriptor table, one descriptor routine.** [`Descriptors`]
//! owns both sides of the pool and keeps its counts. An RTS and an RTR
//! take one path, `on_descriptor`: screen it, note the host's horizon,
//! refuse it with `QueueFull` past the pool or its tenant's share
//! ([`crate::OffloadConfig::quota`]; one tenant's share is the whole
//! pool), then match the oldest partner or queue it.
//!
//! **The group engine is wake-driven.** A suspended instance is advanced
//! again only when a message changed one of its inputs: a `GroupSend`
//! CQE (`outstanding` drops), a `GroupStageRead` CQE (a staged payload
//! landed), a `GroupArrival` for its `(group, gen)`, or a `GroupPacket`
//! that reinstalls its group (a replay after a proxy restart can switch
//! a send from staged to host). Woken instances advance after the
//! message is handled, in instance order — exactly the ones a poll of
//! every instance would have moved, in the same order. A new instance
//! advances at once. What a barrier or the end of the queue waits for is
//! counted once per group at install ([`RecvGates`]); each instance keeps
//! dense arrival counts beside its msg-id dedupe set, so a check walks
//! two slices. Staged reads, stall reports and arrivals belong to the
//! instance and die with it.
//!
//! **Ordering deviation from Algorithm 1, documented:** the paper orders
//! post-barrier entries by polling *barrier counters* written by peer
//! proxies. We deliver a per-write arrival notification to the destination
//! proxy at data-arrival time (the moral equivalent of the completion
//! counter RDMA'd alongside the payload) and gate barriers on those
//! arrivals; the `BarrierCntr` writes are still sent so the synchronization
//! traffic is modelled, but a missing counter cannot wedge a pattern whose
//! source side recorded no barrier.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use rdma::{ClusterCtx, EpId, MrKey, NetMsg, VAddr};
use simnet::{Payload, Pid, ProcessCtx, Reactor, StatKey};

use crate::config::{DataPath, OffloadConfig, TenantId};
use crate::events::{CacheSide, CtrlKind, FinKind, HealthPath, PathKind, ProtoEvent};
use crate::health::{BreakerEvent, HealthEngine, Route};
use crate::messages::{CtrlMsg, GroupKey, WireEntry, WRID_OFF_PROXY};
use crate::reg_cache::RankAddrCache;
use crate::reliable::{backoff_delay_from, FaultRng, Inbound, ReliableLink, ReqOrigin};

/// Decode a control-message payload without panicking: a malformed or
/// foreign message is surfaced as `None` so the caller can count and skip
/// it instead of taking the whole simulation down.
fn decode_ctrl(body: Payload) -> Option<CtrlMsg> {
    crate::profile_scope!("ctrl_decode");
    body.downcast::<CtrlMsg>().ok().map(|b| *b)
}

/// One tenant's cross-registration cache: budgeted per tenant on
/// multi-tenant rosters (eviction isolation), unbounded otherwise —
/// the pre-multi-tenant layout.
fn fresh_cross_cache(cfg: &OffloadConfig, world: usize) -> RankAddrCache<(MrKey, MrKey)> {
    if cfg.multi_tenant() && cfg.cache_budget > 0 {
        RankAddrCache::with_capacity(world, cfg.cache_budget)
    } else {
        RankAddrCache::new(world)
    }
}

struct RtsInfo {
    src_rank: usize,
    tag: u64,
    addr: VAddr,
    len: u64,
    mkey: Option<MrKey>,
    src_rkey: Option<MrKey>,
    src_req: usize,
    msg_id: u64,
    /// Sender-computed payload CRC32 (present only on payload-fault
    /// plans; carried through so every hop can be verified).
    crc: Option<u32>,
    /// Tenant the posting rank belongs to (0 on single-tenant rosters;
    /// per-tenant descriptor-share accounting).
    tenant: TenantId,
}

struct RtrInfo {
    dst_rank: usize,
    addr: VAddr,
    len: u64,
    rkey: MrKey,
    dst_req: usize,
    msg_id: u64,
    /// Tenant the posting rank belongs to (see [`RtsInfo::tenant`]).
    tenant: TenantId,
}

impl RtsInfo {
    fn end(&self) -> End {
        End {
            rank: self.src_rank,
            req: self.src_req,
            msg_id: self.msg_id,
        }
    }
}

impl RtrInfo {
    /// `None` for a one-sided put, which has no receive request.
    fn end(&self) -> Option<End> {
        (self.dst_req != usize::MAX).then_some(End {
            rank: self.dst_rank,
            req: self.dst_req,
            msg_id: self.msg_id,
        })
    }
}

/// One host end of a basic transfer: the rank, its request slot and
/// the transfer id that end knows the transfer by.
#[derive(Clone, Copy)]
struct End {
    rank: usize,
    req: usize,
    msg_id: u64,
}

/// What the proxy tells one host end about its transfer.
enum Notice {
    /// The data landed (completed by `wrid`).
    Fin { kind: FinKind, wrid: u64 },
    /// Permanent data-plane failure after `attempts` deliveries; `shed`
    /// names the path whose retry budget shed it.
    Failed {
        attempts: u32,
        shed: Option<HealthPath>,
    },
}

enum Completion {
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
type Region = (EpId, VAddr, MrKey);

/// One RDMA operation as [`Proxy::post`] issues it. On payload-fault
/// plans it is also kept per wrid, to verify the landed bytes at the
/// CQE and re-post them if the CRC check fails; clean runs keep none.
struct DataOp {
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
    notify: Option<(Pid, CtrlMsg)>,
}

impl DataOp {
    /// A first attempt with no arrival notification.
    fn new(
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

/// Where a transfer's payload moves: the verdict of
/// [`Proxy::choose_path`].
enum Path {
    /// The source cross-registered (`mkey2`), written host to host.
    CrossGvmi(MrKey),
    /// Pulled into a DPU staging buffer, then forwarded.
    Staging,
    /// The staging breaker is open: cross-registered through the cache
    /// and written host to host, skipping DPU memory (DESIGN.md §19).
    HostDirect(MrKey),
}

/// The transfer a path decision is made for.
struct PathReq {
    /// Breaker peer and cross-registration owner.
    src_rank: usize,
    dst_rank: usize,
    tag: u64,
    msg_id: u64,
    addr: VAddr,
    len: u64,
    /// GVMI key of the source buffer; cross-GVMI needs one.
    mkey: Option<MrKey>,
    /// The source carries an rkey, so it can be staged.
    stageable: bool,
}

/// Where a cached group send entry's payload comes from, decided once
/// at install.
#[derive(Clone, Copy)]
enum Source {
    /// The owning host's buffer, cross-registered (`mkey2`).
    Host(MrKey),
    /// A DPU staging buffer each generation is read into first.
    Staged(VAddr, MrKey),
}

struct CachedGroup {
    /// The wire entries; each send carries its resolved source.
    entries: Vec<(WireEntry, Option<Source>)>,
    /// What its barriers and its end wait for.
    gates: RecvGates,
}

/// A cached group's receive gates, precomputed at install: the distinct
/// `(src_rank, tag)` senders of its `Recv` entries and, at each barrier
/// and at the end of the queue, how many arrivals each sender must have
/// delivered (its `Recv` entries before that position). Checking a gate
/// is a walk over two slices: no allocation, no tree.
struct RecvGates {
    /// Distinct senders, sorted; a sender's position is its dense id.
    senders: Vec<(usize, u64)>,
    /// Entry index of each gate (every barrier, then `entries.len()`),
    /// ascending.
    at: Vec<usize>,
    /// Per gate, one need per sender: `senders.len()` counts each.
    needs: Vec<u32>,
}

impl RecvGates {
    fn new(entries: &[WireEntry]) -> RecvGates {
        let mut senders: Vec<(usize, u64)> = entries
            .iter()
            .filter_map(|e| match e {
                WireEntry::Recv { src_rank, tag } => Some((*src_rank, *tag)),
                _ => None,
            })
            .collect();
        senders.sort_unstable();
        senders.dedup();
        let mut gates = RecvGates {
            senders,
            at: Vec::new(),
            needs: Vec::new(),
        };
        let mut running = vec![0u32; gates.senders.len()];
        for (i, e) in entries.iter().enumerate() {
            match e {
                WireEntry::Recv { src_rank, tag } => gates.bump(&mut running, *src_rank, *tag),
                WireEntry::Barrier => {
                    gates.at.push(i);
                    gates.needs.extend_from_slice(&running);
                }
                WireEntry::Send { .. } => {}
            }
        }
        gates.at.push(entries.len());
        gates.needs.extend_from_slice(&running);
        gates
    }

    /// Count one arrival from `(src_rank, tag)` into per-sender
    /// `counts`; a sender the group does not receive from counts nowhere.
    fn bump(&self, counts: &mut [u32], src_rank: usize, tag: u64) {
        let sender = self.senders.binary_search(&(src_rank, tag)).ok();
        if let Some(c) = sender.and_then(|s| counts.get_mut(s)) {
            *c += 1;
        }
    }

    /// The per-sender needs of the gate at entry index `cursor`; empty
    /// where there is no gate or nothing to wait for.
    fn needs_at(&self, cursor: usize) -> &[u32] {
        let k = self.senders.len();
        match self.at.binary_search(&cursor) {
            Ok(g) if k > 0 => self.needs.chunks_exact(k).nth(g).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Has every sender delivered what the gate at `cursor` needs?
    fn passed(&self, cursor: usize, arrived: &Arrivals) -> bool {
        let needs = self.needs_at(cursor);
        needs.len() <= arrived.counts.len()
            && needs
                .iter()
                .zip(&arrived.counts)
                .all(|(need, got)| got >= need)
    }
}

/// Wire msg-ids that arrived for one group generation, as
/// `(src_rank, tag, msg_id)`.
type ArrivalSet = BTreeSet<(usize, u64, u64)>;

/// One group instance's arrivals: every counted msg-id, so a replayed
/// data write (proxy-restart recovery) cannot count twice and release a
/// barrier early, and per sender of its [`RecvGates`] how many landed.
struct Arrivals {
    seen: ArrivalSet,
    /// Distinct arrivals per dense sender id.
    counts: Vec<u32>,
}

impl Arrivals {
    /// Count `seen` against `gates`: the arrivals that landed before the
    /// instance existed, or all of them when a reinstall replaced its
    /// group.
    fn new(gates: &RecvGates, seen: ArrivalSet) -> Arrivals {
        let mut counts = vec![0; gates.senders.len()];
        for &(src_rank, tag, _) in &seen {
            gates.bump(&mut counts, src_rank, tag);
        }
        Arrivals { seen, counts }
    }

    /// Count one arrival; false for a msg-id already counted.
    fn record(&mut self, gates: &RecvGates, src_rank: usize, tag: u64, msg_id: u64) -> bool {
        if !self.seen.insert((src_rank, tag, msg_id)) {
            return false;
        }
        gates.bump(&mut self.counts, src_rank, tag);
        true
    }
}

/// One running generation of a cached group. Everything it waits on is
/// its own: it dies with the instance, so finishing or failing one
/// leaves nothing behind.
struct Instance {
    key: GroupKey,
    gen: u64,
    /// The installed group it runs (replaced when a reinstall does).
    group: Arc<CachedGroup>,
    cursor: usize,
    outstanding: usize,
    barriers: u64,
    /// `(dst_rank, dst_req_id)` of sends since the last barrier.
    send_set: BTreeSet<(usize, usize)>,
    /// Barrier counters already written for the barrier at `cursor`.
    barrier_written: bool,
    /// The barrier at `cursor` already reported its stall, so a repeat
    /// wake while it stays blocked is not a new stall.
    stall_noted: bool,
    /// Staging reads posted, by entry index: `true` once the payload
    /// landed in DPU memory.
    stage_reads: BTreeMap<usize, bool>,
    arrivals: Arrivals,
    done: bool,
}

impl Instance {
    fn new(key: GroupKey, gen: u64, group: Arc<CachedGroup>, seen: ArrivalSet) -> Instance {
        Instance {
            key,
            gen,
            arrivals: Arrivals::new(&group.gates, seen),
            group,
            cursor: 0,
            outstanding: 0,
            barriers: 0,
            send_set: BTreeSet::new(),
            barrier_written: false,
            stall_noted: false,
            stage_reads: BTreeMap::new(),
            done: false,
        }
    }
}

/// Matching key: `(src_rank, dst_rank, tag)`.
type MatchKey = (usize, usize, u64);

/// One unmatched basic descriptor: the send or the receive side of a
/// transfer.
enum Desc {
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
fn at_proxy(key: MatchKey, msg_id: u64, rts: bool) -> ProtoEvent {
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
struct Descriptors {
    queues: BTreeMap<MatchKey, VecDeque<Desc>>,
    /// Queued RTS and RTR descriptors.
    depths: (usize, usize),
    /// Queued descriptors per tenant.
    per_tenant: Vec<usize>,
}

impl Descriptors {
    fn new(tenants: usize) -> Descriptors {
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
    fn holds(&self, msg_id: u64) -> bool {
        let mut queued = self.queues.values().flatten();
        queued.any(|d| d.owner().0.msg_id == msg_id)
    }

    fn len(&self) -> usize {
        self.depths.0 + self.depths.1
    }

    fn tenant_len(&self, tenant: TenantId) -> usize {
        self.per_tenant.get(tenant).copied().unwrap_or(0)
    }

    fn clear(&mut self) {
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

/// Proxy bookkeeping. Every container here is order-stable (`BTreeMap` /
/// `BTreeSet`): the event loop iterates some of them, and hash-order
/// iteration would make message-matching order depend on the hasher —
/// the exact nondeterminism the schedule explorer exists to rule out
/// (and that `xtask lint` bans from these paths).
struct ProxyState {
    /// Unmatched RTS and RTR descriptors: the one pool that queue-cap
    /// admission and the descriptor shares count against.
    descriptors: Descriptors,
    /// Staging-buffer assignment per `(src_rank, addr, len)`.
    stage_assign: BTreeMap<(usize, u64, u64), (VAddr, MrKey)>,
    inflight: BTreeMap<u64, Completion>,
    next_wr: u64,
    /// Cross-registration caches, one GVMI namespace per tenant. A
    /// single-tenant roster keeps exactly one (key 0) cache — the
    /// pre-multi-tenant layout. Under a multi-tenant roster with a
    /// cache budget each namespace is budgeted independently, so one
    /// tenant's working set can never evict another's registrations.
    cross_caches: BTreeMap<TenantId, RankAddrCache<(MrKey, MrKey)>>,
    groups: BTreeMap<GroupKey, Arc<CachedGroup>>,
    instances: Vec<Instance>,
    /// Indices into `instances` whose inputs the current message
    /// changed; drained by [`Proxy::advance_woken`].
    woken: Vec<usize>,
    /// Data arrivals for a `(group, gen)` with no instance: one not
    /// started yet, or one a crash wiped (arrivals are durable, the
    /// instance is not). A starting instance takes its set.
    arrivals: BTreeMap<(GroupKey, u64), ArrivalSet>,
    /// Host ranks that sent `Shutdown`. A set (not a counter) so a
    /// deduplicated retransmit or a post-restart replay cannot double
    /// count one rank; survives a crash (the rank *is* done).
    shutdowns: BTreeSet<usize>,
    /// `drop_first_fin` already fired on this proxy.
    fin_dropped: bool,
    /// Reliable ctrl-plane endpoint (sender retransmission table + ack
    /// generation + receiver dedup). Dormant on fault-free plans.
    rel: ReliableLink,
    /// Dedicated RNG for cross-GVMI registration failures, separate from
    /// the link's drop/dup/delay RNG so the two fault streams don't
    /// perturb each other across plans.
    xreg_rng: FaultRng,
    /// Completion journal: transfer msg_id → completed wrid, written at
    /// FIN time. Survives a crash (modelled as write-ahead metadata in
    /// host-visible memory) so a replayed, already-completed transfer is
    /// answered with a FIN resend instead of a second data write.
    completed_msgs: BTreeMap<u64, u64>,
    /// Highest finished generation per group — the group-side completion
    /// journal. Survives a crash for the same reason.
    fin_gens: BTreeMap<GroupKey, u64>,
    /// Ctrl packets handled so far (crash trigger odometer).
    steps: u32,
    /// The plan's crash already fired on this proxy.
    crashed: bool,
    /// Verified operations per in-flight wrid (payload-fault plans only).
    inflight_ctx: BTreeMap<u64, DataOp>,
    /// Corrupt operations awaiting their backoff timer, keyed by retx
    /// token.
    data_retx: BTreeMap<u64, (DataOp, Completion)>,
    next_retx_token: u64,
    /// Transfer ids cancelled by their host (deadline expiry or explicit
    /// cancel). Survives a crash — a cancelled request must never
    /// complete, even through a post-restart replay.
    cancelled: BTreeSet<u64>,
    /// Bounded staging free pool, keyed by `(tenant, buffer length)`
    /// (armed by `staging_cap`; empty and unused otherwise). The
    /// tenant key partitions the pool so one tenant's churn cannot
    /// starve another's buffer reuse; single-tenant runs only ever see
    /// tenant 0, i.e. the old per-length pool.
    stage_free: BTreeMap<(TenantId, u64), Vec<(VAddr, MrKey)>>,
    /// Highest contiguous completion horizon each host has advertised
    /// (FIN-journal truncation; survives a crash with the journal).
    ack_horizons: BTreeMap<usize, u64>,
    /// Fabric health engine: per-(peer, path) circuit breakers and data
    /// retry budgets (DESIGN.md §19). Inert unless `cfg.health.enabled`.
    health: HealthEngine,
}

/// Build the proxy reactor builder for [`rdma::ClusterBuilder::run`]'s
/// `proxy_fn`, running the framework with `cfg`.
pub fn proxy_fn(
    cfg: OffloadConfig,
) -> impl Fn(usize, usize, ProcessCtx, ClusterCtx) -> Option<Reactor> + Send + Sync + 'static {
    move |node, idx, ctx, cluster| {
        let mut proc = ProxyProc::new(node, idx, ctx, cluster, cfg.clone());
        if proc.finished() {
            return None; // no rank maps to this proxy
        }
        Some(Box::new(move |payload| proc.on_message(payload)))
    }
}

/// One proxy process: its handles, and the state it keeps from one
/// message to the next. It serves until every mapped host rank has sent
/// `Shutdown` and all in-flight work has drained.
struct ProxyProc {
    ctx: ProcessCtx,
    cluster: ClusterCtx,
    cfg: OffloadConfig,
    my_ep: EpId,
    /// Host ranks mapped to this proxy.
    mapped_hosts: usize,
    st: ProxyState,
}

impl ProxyProc {
    /// Proxy `idx` of `node`, before its first message.
    fn new(
        node: usize,
        idx: usize,
        ctx: ProcessCtx,
        cluster: ClusterCtx,
        cfg: OffloadConfig,
    ) -> ProxyProc {
        let spec = cluster.spec().clone();
        let mapped_hosts = (0..spec.ppn)
            .filter(|l| (node * spec.ppn + l) % spec.proxies_per_dpu == idx)
            .count();
        let my_ep = cluster.proxy_ep(node, idx);
        let st = ProxyState::new(&cfg, spec.world_size(), my_ep);
        ProxyProc {
            ctx,
            cluster,
            cfg,
            my_ep,
            mapped_hosts,
            st,
        }
    }

    /// The borrowed view the protocol code is written against, beside
    /// the state it works on.
    fn parts(&mut self) -> (Proxy<'_>, &mut ProxyState) {
        let proxy = Proxy {
            ctx: &self.ctx,
            cluster: &self.cluster,
            cfg: &self.cfg,
            my_ep: self.my_ep,
        };
        (proxy, &mut self.st)
    }

    /// The exit check, made at start-up and after every handled message:
    /// true once every mapped host has shut down and the proxy is
    /// quiescent. Reports the cross-registration cache stats when it
    /// fires, so they are counted exactly once.
    fn finished(&mut self) -> bool {
        let mapped_hosts = self.mapped_hosts;
        let (proxy, st) = self.parts();
        if st.shutdowns.len() != mapped_hosts || !proxy.quiescent(st) {
            return false;
        }
        proxy.report_cache_stats(st);
        true
    }

    /// Handle one mailbox message and advance the group instances it
    /// woke; `false` once the proxy has finished.
    fn on_message(&mut self, payload: Payload) -> bool {
        // Anything that is not fabric traffic is not for the proxy.
        let Ok(msg) = payload.downcast::<NetMsg>() else {
            return true;
        };
        let (proxy, st) = self.parts();
        proxy.handle(st, *msg);
        proxy.advance_woken(st);
        !self.finished()
    }
}

impl ProxyState {
    fn new(cfg: &OffloadConfig, world: usize, my_ep: EpId) -> ProxyState {
        ProxyState {
            descriptors: Descriptors::new(cfg.tenants.len()),
            stage_assign: BTreeMap::new(),
            inflight: BTreeMap::new(),
            next_wr: 0,
            // Tenant 0 always exists so a run that never cross-registers
            // still drains the same (zero) cache stats it always has.
            cross_caches: BTreeMap::from([(0, fresh_cross_cache(cfg, world))]),
            groups: BTreeMap::new(),
            instances: Vec::new(),
            woken: Vec::new(),
            arrivals: BTreeMap::new(),
            shutdowns: BTreeSet::new(),
            fin_dropped: false,
            rel: ReliableLink::new(
                cfg.fault,
                cfg.ctrl_knobs(false),
                cfg.ctrl_bytes,
                true,
                my_ep,
            ),
            xreg_rng: FaultRng::new(cfg.fault.seed, my_ep.index() as u64 + 0x1000),
            completed_msgs: BTreeMap::new(),
            fin_gens: BTreeMap::new(),
            steps: 0,
            crashed: false,
            inflight_ctx: BTreeMap::new(),
            data_retx: BTreeMap::new(),
            next_retx_token: 0,
            cancelled: BTreeSet::new(),
            stage_free: BTreeMap::new(),
            ack_horizons: BTreeMap::new(),
            health: HealthEngine::new(cfg.health, cfg.fault.seed, my_ep.index() as u64 + 0x2000),
        }
    }

    /// The instance running generation `gen` of `key`, with its index.
    fn instance_mut(&mut self, key: GroupKey, gen: u64) -> Option<(usize, &mut Instance)> {
        self.instances
            .iter_mut()
            .enumerate()
            .find(|(_, i)| i.key == key && i.gen == gen)
    }
}

struct Proxy<'a> {
    ctx: &'a ProcessCtx,
    cluster: &'a ClusterCtx,
    cfg: &'a OffloadConfig,
    my_ep: EpId,
}

impl Proxy<'_> {
    /// Fold the cross-registration caches' counters into the run's stats;
    /// called when the caches die (proxy exit, crash-restart).
    fn report_cache_stats(&self, st: &ProxyState) {
        for cache in st.cross_caches.values() {
            let (h, m, s) = cache.stats();
            static DPU_HIT: StatKey = StatKey::new("offload.gvmi_cache.dpu.hit");
            static DPU_MISS: StatKey = StatKey::new("offload.gvmi_cache.dpu.miss");
            static DPU_STALE: StatKey = StatKey::new("offload.gvmi_cache.dpu.stale");
            static DPU_EVICT: StatKey = StatKey::new("offload.gvmi_cache.dpu.evict");
            self.ctx.stat_incr(&DPU_HIT, h);
            self.ctx.stat_incr(&DPU_MISS, m);
            self.ctx.stat_incr(&DPU_STALE, s);
            self.ctx.stat_incr(&DPU_EVICT, cache.evictions());
        }
    }

    fn quiescent(&self, st: &ProxyState) -> bool {
        st.inflight.is_empty()
            && st.instances.iter().all(|i| i.done)
            && st.descriptors.len() == 0
            && st.data_retx.is_empty()
            && !st.rel.has_pending()
    }

    fn handle(&self, st: &mut ProxyState, msg: NetMsg) {
        let is_packet = matches!(msg, NetMsg::Packet(_));
        let decoded = match msg {
            NetMsg::Packet(p) => decode_ctrl(p.body),
            NetMsg::Notify(b) => decode_ctrl(b),
            NetMsg::Cqe(c) => {
                self.on_cqe(st, c.wrid);
                return;
            }
        };
        let Some(body) = decoded else {
            // Cross-rank payload that is not a control message: count it
            // and move on rather than crashing the proxy.
            static BAD_CTRL: StatKey = StatKey::new("offload.proxy.bad_ctrl");
            self.ctx.stat_incr(&BAD_CTRL, 1);
            self.ctx.emit(&ProtoEvent::CtrlDropped {
                at_proxy: true,
                kind: CtrlKind::Unknown,
                msg_id: 0,
            });
            return;
        };
        // Crash injection: the proxy "dies" on receipt of its
        // crash_at_step'th ctrl packet, instantly restarts with all
        // volatile state lost, and processes the triggering message as
        // the first of its new life.
        if is_packet {
            st.steps += 1;
            if !st.crashed
                && self.cfg.fault.crash_at_step > 0
                && st.steps >= self.cfg.fault.crash_at_step
            {
                st.crashed = true;
                self.crash_restart(st);
            }
        }
        // Reliability envelopes, acks and timers (armed fault plans
        // only). Proxy-originated ctrl (FINs, restart notices) has no
        // request slot to fail; abandonment is counted and emitted by the
        // link itself.
        let Inbound::Msg(body) = st.rel.receive(self.ctx, self.cluster.fabric(), body) else {
            return;
        };
        match body {
            CtrlMsg::Rts {
                src_rank,
                dst_rank,
                tag,
                addr,
                len,
                mkey,
                src_rkey,
                src_req,
                msg_id,
                crc,
                ack_horizon,
                tenant,
                ..
            } => {
                let rts = RtsInfo {
                    src_rank,
                    tag,
                    addr,
                    len,
                    mkey,
                    src_rkey,
                    src_req,
                    msg_id,
                    crc,
                    tenant,
                };
                let key = (src_rank, dst_rank, tag);
                self.on_descriptor(st, key, Desc::Rts(rts), ack_horizon);
            }
            CtrlMsg::Rtr {
                src_rank,
                dst_rank,
                tag,
                addr,
                len,
                rkey,
                dst_req,
                msg_id,
                ack_horizon,
                tenant,
                ..
            } => {
                let rtr = RtrInfo {
                    dst_rank,
                    addr,
                    len,
                    rkey,
                    dst_req,
                    msg_id,
                    tenant,
                };
                let key = (src_rank, dst_rank, tag);
                self.on_descriptor(st, key, Desc::Rtr(rtr), ack_horizon);
            }
            CtrlMsg::GroupPacket {
                key, gen, entries, ..
            } => {
                static GROUP_PACKETS: StatKey = StatKey::new("offload.proxy.group_packets");
                self.ctx.stat_incr(&GROUP_PACKETS, 1);
                self.install_group(st, key, entries);
                self.start_instance(st, key, gen);
            }
            CtrlMsg::GroupExec { key, gen } => {
                if !st.groups.contains_key(&key) {
                    // A retransmitted exec that raced a proxy restart: the
                    // group metadata died with the old life. The restart
                    // notice makes the host replay the full GroupPacket,
                    // so this stale exec is safe to drop.
                    static STALE_EXEC: StatKey = StatKey::new("offload.proxy.stale_exec");
                    self.ctx.stat_incr(&STALE_EXEC, 1);
                    return;
                }
                self.charge_entries(1);
                static GROUP_EXECS: StatKey = StatKey::new("offload.proxy.group_execs");
                self.ctx.stat_incr(&GROUP_EXECS, 1);
                self.start_instance(st, key, gen);
            }
            CtrlMsg::GroupArrival {
                src_rank,
                tag,
                dst_key,
                gen,
                msg_id,
            } => {
                if st.fin_gens.get(&dst_key).copied().unwrap_or(0) >= gen {
                    // Late (replayed) arrival for a generation that
                    // already finished; recording it would only leak.
                    return;
                }
                match st.instance_mut(dst_key, gen) {
                    Some((idx, inst)) => {
                        if inst
                            .arrivals
                            .record(&inst.group.gates, src_rank, tag, msg_id)
                        {
                            st.woken.push(idx);
                        }
                    }
                    None => {
                        st.arrivals
                            .entry((dst_key, gen))
                            .or_default()
                            .insert((src_rank, tag, msg_id));
                    }
                }
            }
            CtrlMsg::Put {
                src_rank,
                addr,
                len,
                mkey,
                src_rkey,
                dst_rank,
                dst_addr,
                dst_rkey,
                src_req,
                msg_id,
                ..
            } => {
                let rts = RtsInfo {
                    src_rank,
                    tag: 0,
                    addr,
                    len,
                    mkey,
                    src_rkey,
                    src_req,
                    msg_id,
                    // One-sided operations are exempt from end-to-end
                    // integrity (documented relaxation: no receive side
                    // exists to re-derive the expected CRC from).
                    crc: None,
                    tenant: self.cfg.tenant_of(src_rank),
                };
                if self.stale_basic(st, rts.end(), FinKind::Send, CtrlKind::Put) {
                    return;
                }
                self.charge_entries(1);
                static PUTS: StatKey = StatKey::new("offload.proxy.puts");
                self.ctx.stat_incr(&PUTS, 1);
                // A put is a pre-matched pair: synthesize the RTS/RTR and
                // run the normal data movement (either path). The checker
                // sees the synthesized pair too, keeping the matching
                // invariant uniform across two-sided and one-sided paths.
                // Both synthetic sides carry the put's transfer id.
                for rts in [true, false] {
                    self.ctx
                        .emit(&at_proxy((src_rank, dst_rank, 0), msg_id, rts));
                }
                let rtr = RtrInfo {
                    dst_rank,
                    addr: dst_addr,
                    len,
                    rkey: dst_rkey,
                    dst_req: usize::MAX, // no receive-side request
                    msg_id,
                    tenant: self.cfg.tenant_of(dst_rank),
                };
                self.pair_matched(st, rts, rtr);
            }
            CtrlMsg::Get {
                src_rank,
                local_addr,
                len,
                local_mkey,
                remote_rank,
                remote_addr,
                remote_rkey,
                src_req,
                msg_id,
                ..
            } => {
                let origin = End {
                    rank: src_rank,
                    req: src_req,
                    msg_id,
                };
                if self.stale_basic(st, origin, FinKind::Send, CtrlKind::Get) {
                    return;
                }
                self.charge_entries(1);
                static GETS: StatKey = StatKey::new("offload.proxy.gets");
                self.ctx.stat_incr(&GETS, 1);
                assert_eq!(
                    self.cfg.data_path,
                    DataPath::Gvmi,
                    "one-sided get requires the GVMI data path"
                );
                // Cross-register the origin's destination buffer, then pull
                // the remote symmetric memory straight into it.
                let mkey2 = self.cross_reg_cached(st, src_rank, local_addr, len, local_mkey);
                self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
                let op = DataOp::new(
                    PathKind::CrossGvmi,
                    true,
                    (self.cluster.host_ep(src_rank), local_addr, mkey2),
                    (self.cluster.host_ep(remote_rank), remote_addr, remote_rkey),
                    len,
                    msg_id,
                    None,
                );
                let completion = Completion::Basic {
                    src: origin,
                    dst: None,
                    staged: None,
                };
                self.post(st, op, completion);
            }
            CtrlMsg::BarrierCntr { .. } => {
                // Synchronization traffic modelled on the wire; ordering is
                // enforced by arrivals (see module docs).
                static BARRIER_CNTR: StatKey = StatKey::new("offload.proxy.barrier_cntr");
                self.ctx.stat_incr(&BARRIER_CNTR, 1);
            }
            CtrlMsg::Shutdown { rank } => {
                st.shutdowns.insert(rank);
            }
            CtrlMsg::Cancel { msg_id } => {
                // Suppress every future match for this transfer id, then
                // reap any descriptor already queued for it. The host has
                // already failed the request; completing it now would
                // hand bytes to a caller that gave up on them.
                st.cancelled.insert(msg_id);
                let reaped = st.descriptors.reap(msg_id);
                if reaped > 0 {
                    static REAPED: StatKey = StatKey::new("offload.cancel.reaped");
                    self.ctx.stat_incr(&REAPED, reaped as u64);
                    self.ctx.emit(&ProtoEvent::ReqReaped { msg_id });
                }
            }
            CtrlMsg::DataRetxTick { token } => {
                // Backoff expired for a corrupt payload: re-post it. A
                // missing token means a crash wiped the retx table; the
                // host's post-restart replay re-drives the transfer.
                if let Some((op, completion)) = st.data_retx.remove(&token) {
                    self.post(st, op, completion);
                }
            }
            other => panic!("unexpected control message at proxy: {other:?}"),
        }
    }

    /// Act on one basic descriptor (an RTS or RTR) queued under `key`:
    /// screen it, note its host's completion horizon, refuse it if it
    /// would queue past its share, then match it or queue it.
    fn on_descriptor(&self, st: &mut ProxyState, key: MatchKey, d: Desc, ack_horizon: u64) {
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

    /// Send a ctrl message to host endpoint `to` through the link, which
    /// sends it bare on a plan that does not arm reliability.
    fn send_ctrl(&self, st: &mut ProxyState, to: EpId, msg: CtrlMsg) {
        crate::profile_scope!("ctrl_encode");
        let fab = self.cluster.fabric();
        st.rel
            .send(self.ctx, fab, to, self.cfg.ctrl_bytes, msg, ReqOrigin::Free);
        static HOST_DPU: StatKey = StatKey::new("offload.ctrl.host_dpu");
        self.ctx.stat_incr(&HOST_DPU, 1);
    }

    /// Screen a basic descriptor before acting on it; true means it is
    /// handled. A replay of a transfer that completed in a previous life
    /// is answered with a FIN resend — the payload is placed, only the
    /// FIN can have been lost — without re-running the transfer or
    /// re-emitting Rts/Rtr events (keeping the checker's flow accounting
    /// balanced). A descriptor of a transfer its host cancelled, or a
    /// duplicate of one queued or in flight, is counted and dropped.
    fn stale_basic(&self, st: &mut ProxyState, end: End, fin: FinKind, kind: CtrlKind) -> bool {
        let msg_id = end.msg_id;
        if let Some(&wrid) = st.completed_msgs.get(&msg_id) {
            self.notify_end(st, end, Notice::Fin { kind: fin, wrid });
            static FIN_RESENDS: StatKey = StatKey::new("offload.reliable.fin_resends");
            self.ctx.stat_incr(&FIN_RESENDS, 1);
            return true;
        }
        if st.cancelled.contains(&msg_id) {
            static REAPED: StatKey = StatKey::new("offload.cancel.reaped");
            self.ctx.stat_incr(&REAPED, 1);
            self.ctx.emit(&ProtoEvent::ReqReaped { msg_id });
            return true;
        }
        if !self.basic_active(st, msg_id) {
            return false;
        }
        static DUPS_DROPPED: StatKey = StatKey::new("offload.reliable.dups_dropped");
        self.ctx.stat_incr(&DUPS_DROPPED, 1);
        self.ctx.emit(&ProtoEvent::CtrlDuplicateDropped {
            at_proxy: true,
            kind,
            msg_id,
        });
        true
    }

    /// Tell one host end how its transfer ended: a FIN (carrying the
    /// free-slot credit) or a typed `DataError`.
    fn notify_end(&self, st: &mut ProxyState, end: End, notice: Notice) {
        let End { rank, req, msg_id } = end;
        let to = self.cluster.host_ep(rank);
        match notice {
            Notice::Fin { kind, wrid } => {
                let credit = self.free_slots(st, self.cfg.tenant_of(rank)) as u32;
                let msg = match kind {
                    FinKind::Recv => CtrlMsg::FinRecv {
                        req,
                        msg_id,
                        credit,
                    },
                    _ => CtrlMsg::FinSend {
                        req,
                        msg_id,
                        credit,
                    },
                };
                self.send_ctrl(st, to, msg);
                self.ctx.emit(&ProtoEvent::FinSent {
                    rank,
                    req,
                    wrid,
                    kind,
                    msg_id,
                });
            }
            Notice::Failed { attempts, shed } => {
                if let Some(path) = shed {
                    self.ctx
                        .emit(&ProtoEvent::RetryBudgetExhausted { rank, msg_id, path });
                }
                let msg = CtrlMsg::DataError {
                    req,
                    msg_id,
                    attempts,
                    shed: shed.is_some(),
                };
                self.send_ctrl(st, to, msg);
            }
        }
    }

    /// Is a basic transfer with this msg_id already queued or in flight
    /// (posted, or parked for a payload retransmission)? Guards against a
    /// retransmitted Rts/Rtr racing the host's post-restart replay of the
    /// same request.
    fn basic_active(&self, st: &ProxyState, msg_id: u64) -> bool {
        let parked = st.data_retx.values().map(|(_, c)| c);
        st.descriptors.holds(msg_id)
            || st.inflight.values().chain(parked).any(|c| match c {
                Completion::Basic { src, dst, .. } => {
                    src.msg_id == msg_id || dst.is_some_and(|d| d.msg_id == msg_id)
                }
                Completion::StagingRead { pair, .. } => {
                    pair.0.msg_id == msg_id || pair.1.msg_id == msg_id
                }
                _ => false,
            })
    }

    /// Record the completion horizon a host piggybacked on its ctrl
    /// message (journal truncation; inert unless the cap is armed).
    fn note_horizon(&self, st: &mut ProxyState, rank: usize, ack_horizon: u64) {
        if self.cfg.journal_cap == 0 {
            return;
        }
        let h = st.ack_horizons.entry(rank).or_insert(0);
        *h = (*h).max(ack_horizon);
    }

    /// Refuse a descriptor that would bust the configured cap by
    /// queueing: count it and nack its host (`rank`) with `QueueFull`.
    fn refuse(&self, st: &mut ProxyState, rank: usize, msg_id: u64, tenant: TenantId) -> bool {
        if self.cfg.queue_cap == 0 || self.free_slots(st, tenant) > 0 {
            return false;
        }
        static QUEUE_FULL: StatKey = StatKey::new("offload.credit.queue_full");
        self.ctx.stat_incr(&QUEUE_FULL, 1);
        self.ctx.emit(&ProtoEvent::QueueFullNack { msg_id });
        let host = self.cluster.host_ep(rank);
        self.send_ctrl(st, host, CtrlMsg::QueueFull { msg_id });
        true
    }

    /// Descriptors `tenant` may still queue: both sides count against
    /// one pool, the paper's worker's single descriptor pool, and each
    /// tenant against its weighted share of it
    /// ([`OffloadConfig::quota`]; one tenant's share is the whole pool),
    /// so a flooding tenant fills only its own share. Piggybacked on
    /// FINs as the host's credit, so one tenant's free slots never
    /// tempt another tenant's host into a burst of doomed re-posts; 0
    /// while the cap is unarmed, keeping clean wires identical.
    fn free_slots(&self, st: &ProxyState, tenant: TenantId) -> usize {
        let table = &st.descriptors;
        let pool = self.cfg.queue_cap.saturating_sub(table.len());
        let share = self.cfg.quota(tenant).share;
        pool.min(share.saturating_sub(table.tenant_len(tenant)))
    }

    /// Return a settled transfer's staging buffer to the bounded free
    /// pool of the owning tenant. `None` (GVMI path, or unbounded
    /// staging mode where buffers live in the assignment map) is a
    /// no-op; a pool already at its cap drops the buffer instead of
    /// growing. `staging_cap` bounds each `(tenant, length)` pool, so
    /// a flooding tenant's churn is confined to its own partition.
    fn release_staged(
        &self,
        st: &mut ProxyState,
        tenant: TenantId,
        staged: Option<(VAddr, MrKey, u64)>,
    ) {
        let Some((buf, key, len)) = staged else {
            return;
        };
        if self.cfg.staging_cap == 0 {
            return;
        }
        let pool = st.stage_free.entry((tenant, len)).or_default();
        if pool.len() < self.cfg.staging_cap {
            pool.push((buf, key));
        } else {
            static STAGING_DROPPED: StatKey = StatKey::new("offload.staging.dropped");
            self.ctx.stat_incr(&STAGING_DROPPED, 1);
        }
    }

    /// Bound the durable FIN journal: once a tenant's share of it
    /// exceeds the cap, drop every entry of that tenant at or below its
    /// owning host's advertised completion horizon (those transfers can
    /// never be replayed — the host saw their FINs). Emits a size sample
    /// per settle so tests can track the high-water mark. No-op unless
    /// the cap is armed.
    ///
    /// `msg_id >> 32` names the owning rank, hence its tenant: a
    /// flooding tenant triggers truncation of only its own entries (a
    /// single-tenant roster is the one-tenant case). Truncation only
    /// ever drops entries the owning host has acknowledged, so
    /// cross-tenant recovery safety is unconditional.
    fn truncate_journal(&self, st: &mut ProxyState) {
        let cap = self.cfg.journal_cap;
        if cap == 0 {
            return;
        }
        crate::profile_scope!("journal_truncate");
        // No tenant's share can exceed the cap while the whole journal fits.
        if st.completed_msgs.len() > cap {
            let owner = |mid: &u64| (mid >> 32) as usize;
            let mut per_tenant: BTreeMap<TenantId, usize> = BTreeMap::new();
            for mid in st.completed_msgs.keys() {
                let tenant = self.cfg.tenant_of(owner(mid));
                *per_tenant.entry(tenant).or_insert(0) += 1;
            }
            let over: BTreeSet<TenantId> = per_tenant
                .into_iter()
                .filter(|&(_, n)| n > cap)
                .map(|(t, _)| t)
                .collect();
            let horizons = &st.ack_horizons;
            let before = st.completed_msgs.len();
            st.completed_msgs.retain(|mid, _| {
                let rank = owner(mid);
                !over.contains(&self.cfg.tenant_of(rank))
                    || (mid & 0xFFFF_FFFF) > horizons.get(&rank).copied().unwrap_or(0)
            });
            let dropped = (before - st.completed_msgs.len()) as u64;
            if dropped > 0 {
                static TRUNCATIONS: StatKey = StatKey::new("offload.journal.truncations");
                self.ctx.stat_incr(&TRUNCATIONS, 1);
                self.ctx.emit(&ProtoEvent::JournalTruncated { dropped });
            }
        }
        self.ctx.emit(&ProtoEvent::JournalSize {
            len: st.completed_msgs.len() as u64,
        });
    }

    /// Crash + restart in one step (the simulated process never leaves
    /// its event loop). Volatile state — matching queues, in-flight
    /// table, caches, group metadata, running instances — is lost. The
    /// durable journals (completed transfers, finished generations,
    /// arrival sets, shutdown set, wrid odometer) survive, modelling
    /// metadata the proxy writes ahead into host-visible memory. A fresh
    /// epoch is announced to every host so they invalidate DPU-dependent
    /// cached state and replay in-flight requests.
    fn crash_restart(&self, st: &mut ProxyState) {
        self.report_cache_stats(st);
        st.descriptors.clear();
        st.stage_assign.clear();
        st.inflight.clear();
        st.cross_caches =
            BTreeMap::from([(0, fresh_cross_cache(self.cfg, self.cluster.world_size()))]);
        st.groups.clear();
        // Running instances die; the arrivals they counted are durable.
        for inst in st.instances.drain(..) {
            st.arrivals.insert((inst.key, inst.gen), inst.arrivals.seen);
        }
        st.woken.clear();
        // The retx table and staging pool are volatile; the cancelled
        // set and advertised horizons are durable (a cancelled request
        // must stay dead across a restart, and a stale horizon only
        // delays truncation — never loses a needed journal entry).
        st.inflight_ctx.clear();
        st.data_retx.clear();
        st.stage_free.clear();
        st.rel.reset_for_restart();
        // Pre-crash path verdicts are stale: every tracked breaker drops
        // to half-open so the first post per (peer, path) re-probes, and
        // the data retry budgets refill (DESIGN.md §19 recovery).
        if st.health.enabled() {
            st.health.reset_half_open();
        }
        let epoch = st.rel.epoch();
        static PROXY_RESTARTS: StatKey = StatKey::new("offload.reliable.proxy_restarts");
        self.ctx.stat_incr(&PROXY_RESTARTS, 1);
        self.ctx.emit(&ProtoEvent::ProxyRestarted { epoch });
        for rank in 0..self.cluster.world_size() {
            st.rel.send(
                self.ctx,
                self.cluster.fabric(),
                self.cluster.host_ep(rank),
                self.cfg.ctrl_bytes,
                CtrlMsg::ProxyRestarted {
                    proxy: self.my_ep,
                    epoch,
                },
                ReqOrigin::Free,
            );
        }
    }

    // ---- Basic primitives ----

    /// Staging buffer for a given source buffer. Unbounded mode (the
    /// default) allocates and registers once per `(src_rank, addr, len)`
    /// and keeps the assignment forever. With `staging_cap` armed the
    /// per-source map is bypassed: buffers come from a bounded free pool
    /// keyed by length and are recycled when their transfer settles, so
    /// the proxy's staging footprint is `cap × live lengths` instead of
    /// one buffer per distinct source buffer ever seen.
    fn staging_buffer_for(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
    ) -> (VAddr, MrKey) {
        let akey = (src_rank, addr.0, len);
        if self.cfg.staging_cap > 0 {
            let tenant = self.cfg.tenant_of(src_rank);
            if let Some(b) = st.stage_free.get_mut(&(tenant, len)).and_then(|p| p.pop()) {
                static RECLAIMED: StatKey = StatKey::new("offload.staging.reclaimed");
                self.ctx.stat_incr(&RECLAIMED, 1);
                self.ctx.emit(&ProtoEvent::StagingReclaimed { len });
                return b;
            }
        } else if let Some(&b) = st.stage_assign.get(&akey) {
            return b;
        }
        let b = self.fresh_staging(len);
        if self.cfg.staging_cap == 0 {
            st.stage_assign.insert(akey, b);
        }
        static STAGING_BUFFERS: StatKey = StatKey::new("offload.proxy.staging_buffers");
        self.ctx.stat_incr(&STAGING_BUFFERS, 1);
        b
    }

    /// Allocate and register a DPU staging buffer — the one place the
    /// proxy creates staging memory.
    fn fresh_staging(&self, len: u64) -> (VAddr, MrKey) {
        let fab = self.cluster.fabric();
        let buf = fab.alloc(self.my_ep, len);
        let key = fab
            .reg_mr(self.ctx, self.my_ep, buf, len)
            .expect("staging buffer registration");
        (buf, key)
    }

    fn pair_matched(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        self.ctx.emit(&ProtoEvent::PairMatched {
            src_rank: rts.src_rank,
            dst_rank: rtr.dst_rank,
            tag: rts.tag,
            send_msg_id: rts.msg_id,
            recv_msg_id: rtr.msg_id,
        });
        let req = PathReq {
            src_rank: rts.src_rank,
            dst_rank: rtr.dst_rank,
            tag: rts.tag,
            msg_id: rts.msg_id,
            addr: rts.addr,
            len: rts.len,
            mkey: rts.mkey,
            stageable: rts.src_rkey.is_some(),
        };
        static GVMI_WRITES: StatKey = StatKey::new("offload.proxy.gvmi_writes");
        static HOST_DIRECT_WRITES: StatKey = StatKey::new("offload.health.host_direct_writes");
        let (mkey2, stat) = match self.choose_path(st, self.cfg.data_path, &req, true) {
            Path::CrossGvmi(mkey2) => (mkey2, &GVMI_WRITES),
            Path::HostDirect(mkey2) => (mkey2, &HOST_DIRECT_WRITES),
            Path::Staging => return self.post_staging_read(st, rts, rtr),
        };
        // Paper Fig. 6, GVMI path: write straight from the source host's
        // memory to the destination host.
        self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
        let local = (self.cluster.host_ep(rts.src_rank), rts.addr, mkey2);
        self.post_pair_write(st, &rts, &rtr, PathKind::CrossGvmi, local, None);
        self.ctx.stat_incr(stat, 1);
    }

    /// The proxy's one data-path decision (DESIGN.md §14, §19). With
    /// `primary` cross-GVMI and an mkey to register, try cross-GVMI: an
    /// open breaker for the source rank routes a stageable transfer
    /// straight to staging without a registration attempt, and a failed
    /// registration (`FaultPlan::xreg_fail_pm`) downgrades this one
    /// transfer to staging instead of failing it. A staged transfer then
    /// consults the staging breaker when `guard_staging` (basic pairs):
    /// open, it degrades to a host-direct write if the source has an
    /// mkey. Group entries stage at exec time and have no host-direct
    /// alternative, so they never consult it. Emits every breaker and
    /// fallback event of the decision, in order.
    fn choose_path(
        &self,
        st: &mut ProxyState,
        primary: DataPath,
        req: &PathReq,
        guard_staging: bool,
    ) -> Path {
        let peer = req.src_rank;
        if let (DataPath::Gvmi, Some(mkey)) = (primary, req.mkey) {
            let fast = match st.health.route(peer, HealthPath::CrossGvmi) {
                Route::FastPath => req.stageable,
                Route::Probe => {
                    self.note_probe(peer, HealthPath::CrossGvmi, req.msg_id);
                    false
                }
                Route::Primary => false,
            };
            if fast {
                self.note_fastpath(peer, HealthPath::CrossGvmi, req.msg_id);
            } else {
                let reg = self.cross_reg(st, peer, req.addr, req.len, mkey, true);
                // The registration result is the breaker's (and the
                // probe's) verdict; a successful probe has just rebuilt
                // the reg-cache entry, so closing the breaker resumes
                // with warm state.
                self.note_breaker(st, peer, HealthPath::CrossGvmi, reg.is_some());
                if let Some(mkey2) = reg {
                    return Path::CrossGvmi(mkey2);
                }
                static STAGING_FALLBACKS: StatKey = StatKey::new("offload.fallback.staging");
                self.ctx.stat_incr(&STAGING_FALLBACKS, 1);
                self.ctx.emit(&ProtoEvent::FallbackToStaging {
                    src_rank: peer,
                    dst_rank: req.dst_rank,
                    tag: req.tag,
                    msg_id: req.msg_id,
                });
            }
        }
        if !guard_staging {
            return Path::Staging;
        }
        match st.health.route(peer, HealthPath::Staging) {
            Route::FastPath => {
                if let Some(mkey) = req.mkey {
                    self.note_fastpath(peer, HealthPath::Staging, req.msg_id);
                    // The sick resource is the staging hop, not
                    // registration: use the infallible path.
                    let mkey2 = self.cross_reg_cached(st, peer, req.addr, req.len, mkey);
                    return Path::HostDirect(mkey2);
                }
            }
            Route::Probe => self.note_probe(peer, HealthPath::Staging, req.msg_id),
            Route::Primary => {}
        }
        Path::Staging
    }

    /// An open breaker rerouted `msg_id` without consulting the sick path.
    fn note_fastpath(&self, peer: usize, path: HealthPath, msg_id: u64) {
        static FASTPATHS: StatKey = StatKey::new("offload.health.fastpaths");
        self.ctx.stat_incr(&FASTPATHS, 1);
        self.ctx
            .emit(&ProtoEvent::BreakerFastPath { peer, path, msg_id });
    }

    /// Feed one `(peer, path)` outcome into the health engine and emit
    /// any breaker transition. No-op while the engine is disabled.
    fn note_breaker(&self, st: &mut ProxyState, peer: usize, path: HealthPath, ok: bool) {
        match st.health.on_outcome(peer, path, ok) {
            Some(BreakerEvent::Tripped) => {
                static BREAKER_TRIPS: StatKey = StatKey::new("offload.health.breaker_trips");
                self.ctx.stat_incr(&BREAKER_TRIPS, 1);
                self.ctx.emit(&ProtoEvent::BreakerTripped { peer, path });
            }
            Some(BreakerEvent::Closed) => {
                static BREAKER_CLOSES: StatKey = StatKey::new("offload.health.breaker_closes");
                self.ctx.stat_incr(&BREAKER_CLOSES, 1);
                self.ctx.emit(&ProtoEvent::BreakerClosed { peer, path });
            }
            None => {}
        }
    }

    /// A breaker just half-opened and admitted `msg_id` as its probe:
    /// emit the transition pair the timeline reconstructs states from.
    fn note_probe(&self, peer: usize, path: HealthPath, msg_id: u64) {
        static HALF_OPENS: StatKey = StatKey::new("offload.health.half_opens");
        self.ctx.stat_incr(&HALF_OPENS, 1);
        self.ctx.emit(&ProtoEvent::BreakerHalfOpen { peer, path });
        static PROBES: StatKey = StatKey::new("offload.health.probes");
        self.ctx.stat_incr(&PROBES, 1);
        self.ctx
            .emit(&ProtoEvent::BreakerProbe { peer, path, msg_id });
    }

    /// Staging hop 1: pull the payload out of the source host's memory
    /// into DPU staging with an RDMA READ (the BluesMPI worker-read).
    fn post_staging_read(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        let (buf, key) = self.staging_buffer_for(st, rts.src_rank, rts.addr, rts.len);
        let src_rkey = rts.src_rkey.expect("staging RTS carries an rkey");
        let len = rts.len.min(rtr.len);
        let src = (self.cluster.host_ep(rts.src_rank), rts.addr, src_rkey);
        // Verify the staged copy too: a corruption healed on hop 1 keeps
        // hop 2's retransmissions meaningful (re-sending a corrupt staged
        // image could never converge).
        let crc = rts.crc.filter(|_| len == rts.len);
        let op = DataOp::new(
            PathKind::StagingHop1,
            true,
            (self.my_ep, buf, key),
            src,
            len,
            rts.msg_id,
            crc,
        );
        let completion = Completion::StagingRead {
            pair: Box::new((rts, rtr)),
            buf: (buf, key),
        };
        self.post(st, op, completion);
        static STAGING_READS: StatKey = StatKey::new("offload.proxy.staging_reads");
        self.ctx.stat_incr(&STAGING_READS, 1);
    }

    /// Write a matched pair's payload from `local` into the receive
    /// buffer; both ends get their FIN once it lands.
    fn post_pair_write(
        &self,
        st: &mut ProxyState,
        rts: &RtsInfo,
        rtr: &RtrInfo,
        path: PathKind,
        local: Region,
        staged: Option<(VAddr, MrKey, u64)>,
    ) {
        let len = rts.len.min(rtr.len);
        let remote = (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey);
        // End-to-end integrity: the host's CRC covers exactly rts.len
        // bytes, so a truncating match (shorter receive) is exempt.
        let crc = rts.crc.filter(|_| len == rts.len);
        let op = DataOp::new(path, false, local, remote, len, rts.msg_id, crc);
        let completion = Completion::Basic {
            src: rts.end(),
            dst: rtr.end(),
            staged,
        };
        self.post(st, op, completion);
    }

    /// Post one RDMA operation and track its completion: the one place
    /// proxy data moves (every path, both staging hops, group entries,
    /// one-sided gets and re-posts). On payload-fault plans the op is
    /// kept per wrid so its CQE can verify the landed bytes.
    fn post(&self, st: &mut ProxyState, mut op: DataOp, completion: Completion) {
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

    /// Infallible cross-registration (one-sided gets, which have no
    /// staging fallback — a documented exemption).
    fn cross_reg_cached(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
    ) -> MrKey {
        self.cross_reg(st, src_rank, addr, len, mkey, false)
            .expect("infallible cross registration")
    }

    /// Cross-register a host buffer through the owning tenant's cache.
    /// With `may_fail`, a fresh registration fails per the fault plan's
    /// `xreg_fail_pm`, and `None` tells the caller to fall back to
    /// staging; a cache hit never fails.
    fn cross_reg(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
        may_fail: bool,
    ) -> Option<MrKey> {
        let fab = self.cluster.fabric();
        // Cross-registrations live in the owning tenant's GVMI
        // namespace; tenants never share (or validate against) each
        // other's entries.
        let tenant = self.cfg.tenant_of(src_rank);
        let world = self.cluster.world_size();
        let mut cache = self.cfg.use_gvmi_cache.then(|| {
            st.cross_caches
                .entry(tenant)
                .or_insert_with(|| fresh_cross_cache(self.cfg, world))
        });
        if let Some(cache) = cache.as_mut() {
            let (v, outcome) =
                cache.get_validated_outcome(src_rank, addr.0, len, |(m, _)| *m == mkey);
            let hit = v.copied();
            self.ctx.emit(&ProtoEvent::CrossRegCacheLookup {
                host_rank: src_rank,
                addr,
                len,
                outcome,
                mkey: hit.map(|(m, _)| m),
                mkey2: hit.map(|(_, m2)| m2),
            });
            if let Some((_, mkey2)) = hit {
                return Some(mkey2);
            }
        }
        if self.cfg.fault.skip_cross_reg {
            // Deliberate protocol violation: hand back the host's mkey as
            // if it were a cross-registration. No CrossReg event is
            // emitted, so the checker flags the first Mkey2Used.
            return Some(mkey);
        }
        if may_fail && st.xreg_rng.chance(self.cfg.fault.xreg_fail_pm) {
            return None;
        }
        let gvmi = fab.gvmi_of(self.my_ep).expect("proxy endpoint has a GVMI");
        let mkey2 = fab
            .cross_reg(self.ctx, self.my_ep, addr, len, mkey, gvmi)
            .expect("cross registration");
        self.ctx.emit(&ProtoEvent::CrossReg {
            host_rank: src_rank,
            addr,
            len,
            mkey,
            mkey2,
        });
        let evicted = cache.and_then(|c| c.insert(src_rank, addr.0, len, (mkey, mkey2)));
        if evicted.is_some() {
            self.ctx.emit(&ProtoEvent::CacheEvicted {
                rank: src_rank,
                side: CacheSide::DpuCross,
            });
        }
        Some(mkey2)
    }

    /// Record the first stall at the barrier an instance is blocked on;
    /// repeat wakes of the same blocked barrier are not new stalls.
    fn note_barrier_stall(&self, inst: &mut Instance) {
        if !inst.stall_noted {
            inst.stall_noted = true;
            static BARRIER_STALLS: StatKey = StatKey::new("offload.proxy.barrier_stalls");
            self.ctx.stat_incr(&BARRIER_STALLS, 1);
            self.ctx.emit(&ProtoEvent::BarrierStall {
                host_rank: inst.key.host_rank,
                req_id: inst.key.req_id,
                gen: inst.gen,
            });
        }
    }

    /// Charge the ARM time of interpreting `n` queue/packet entries.
    fn charge_entries(&self, n: u64) {
        let _ = self.cluster.fabric().charge_cpu(
            self.ctx,
            self.my_ep,
            self.cfg.proxy_entry_overhead * n,
        );
    }

    fn next_wrid(&self, st: &mut ProxyState) -> u64 {
        st.next_wr += 1;
        WRID_OFF_PROXY | st.next_wr
    }

    fn on_cqe(&self, st: &mut ProxyState, wrid: u64) {
        crate::profile_scope!("cq_poll");
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
            crate::profile_scope!("crc_verify");
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
        if op.attempt >= self.cfg.data_retx_max {
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
        let delay = backoff_delay_from(self.cfg.retx_base, self.cfg.retx_cap, op.attempt);
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

    // ---- Group primitives (Algorithm 1) ----

    fn install_group(&self, st: &mut ProxyState, key: GroupKey, entries: Vec<WireEntry>) {
        // Interpret every entry once (ARM time).
        self.charge_entries(entries.len().max(1) as u64);
        let gates = RecvGates::new(&entries);
        let mut cached = Vec::with_capacity(entries.len());
        for entry in entries {
            // Each send's path is decided now and stored with the entry,
            // so execution never searches the GVMI cache (paper §VII-D).
            let source = match entry {
                WireEntry::Send {
                    addr,
                    len,
                    mkey,
                    dst_rank,
                    tag,
                    msg_id,
                    ..
                } => {
                    let req = PathReq {
                        src_rank: key.host_rank,
                        dst_rank,
                        tag,
                        msg_id,
                        addr,
                        len,
                        mkey: Some(mkey),
                        stageable: true,
                    };
                    let path = self.choose_path(st, self.cfg.data_path, &req, false);
                    Some(match path {
                        Path::CrossGvmi(mkey2) | Path::HostDirect(mkey2) => Source::Host(mkey2),
                        Path::Staging => {
                            let (buf, bkey) = self.fresh_staging(len);
                            Source::Staged(buf, bkey)
                        }
                    })
                }
                WireEntry::Recv { .. } | WireEntry::Barrier => None,
            };
            cached.push((entry, source));
        }
        let group = Arc::new(CachedGroup {
            entries: cached,
            gates,
        });
        // A live instance runs the replacement from here on: a replayed
        // packet may have switched a send between staged and host, so
        // wake it even though nothing else it waits on changed.
        for (idx, inst) in st.instances.iter_mut().enumerate() {
            if inst.key == key && !inst.done {
                let seen = std::mem::take(&mut inst.arrivals.seen);
                inst.arrivals = Arrivals::new(&group.gates, seen);
                inst.group = Arc::clone(&group);
                st.woken.push(idx);
            }
        }
        st.groups.insert(key, group);
    }

    fn start_instance(&self, st: &mut ProxyState, key: GroupKey, gen: u64) {
        let Some(group) = st.groups.get(&key).map(Arc::clone) else {
            panic!("exec for unknown group {key:?}");
        };
        if st.fin_gens.get(&key).copied().unwrap_or(0) >= gen {
            // This generation finished in a previous life; only the FIN
            // can have been lost. Resend it instead of re-executing.
            static FIN_RESENDS: StatKey = StatKey::new("offload.reliable.fin_resends");
            self.ctx.stat_incr(&FIN_RESENDS, 1);
            self.post_group_fin(st, key, gen);
            return;
        }
        if st.instances.iter().any(|i| i.key == key && i.gen == gen) {
            // Duplicate exec (a retransmit racing the host's replay):
            // at most one instance per (group, generation).
            static DUPS_DROPPED: StatKey = StatKey::new("offload.reliable.dups_dropped");
            self.ctx.stat_incr(&DUPS_DROPPED, 1);
            self.ctx.emit(&ProtoEvent::CtrlDuplicateDropped {
                at_proxy: true,
                kind: CtrlKind::GroupExec,
                msg_id: 0,
            });
            return;
        }
        let seen = st.arrivals.remove(&(key, gen)).unwrap_or_default();
        let mut inst = Instance::new(key, gen, group, seen);
        self.advance_instance(st, &mut inst);
        st.instances.push(inst);
    }

    /// Ship a generation's completion to the owning host. Group FINs
    /// aggregate many writes, so no single completed wrid names them;
    /// allocate a fresh id from the proxy's work-request namespace
    /// instead of the old colliding 0 sentinel, so every FIN in a trace
    /// is uniquely attributable.
    fn post_group_fin(&self, st: &mut ProxyState, key: GroupKey, gen: u64) {
        self.send_ctrl(
            st,
            self.cluster.host_ep(key.host_rank),
            CtrlMsg::GroupFin {
                req_id: key.req_id,
                gen,
            },
        );
        let fin_id = self.next_wrid(st);
        self.ctx.emit(&ProtoEvent::FinSent {
            rank: key.host_rank,
            req: key.req_id,
            wrid: fin_id,
            kind: FinKind::Group,
            msg_id: 0,
        });
    }

    /// Advance every instance the last message woke, in instance order,
    /// then drop the finished ones. An instance that was not woken has
    /// nothing new to act on (its CQEs, staged reads, arrivals and
    /// entries are unchanged), so this moves exactly what advancing every
    /// instance would, in the same order.
    fn advance_woken(&self, st: &mut ProxyState) {
        if !st.woken.is_empty() {
            let mut woken = std::mem::take(&mut st.woken);
            woken.sort_unstable();
            woken.dedup();
            // Advancing posts work and sends ctrl but wakes nothing: every
            // wake source is a later message.
            let mut instances = std::mem::take(&mut st.instances);
            for &idx in &woken {
                if let Some(inst) = instances.get_mut(idx).filter(|i| !i.done) {
                    self.advance_instance(st, inst);
                }
            }
            st.instances = instances;
            woken.clear();
            st.woken = woken;
        }
        st.instances.retain(|i| !i.done);
    }

    /// Run one instance forward until it blocks or completes — the
    /// `PostCachedEntryOps` loop of Algorithm 1.
    fn advance_instance(&self, st: &mut ProxyState, inst: &mut Instance) {
        let group = Arc::clone(&inst.group);
        let (key, gen) = (inst.key, inst.gen);
        loop {
            let cursor = inst.cursor;
            let Some(entry) = group.entries.get(cursor) else {
                // End of the queue: completion needs all sends CQE'd and
                // all recv payloads arrived.
                if inst.outstanding > 0 {
                    self.ctx.trace(format_args!(
                        "proxy.wait_cqes.r{}.out{}",
                        key.host_rank, inst.outstanding
                    ));
                    return;
                }
                if !group.gates.passed(cursor, &inst.arrivals) {
                    self.ctx
                        .trace(format_args!("proxy.wait_arrivals.r{}", key.host_rank));
                    return;
                }
                // Journal the finished generation (write-ahead of the
                // losable FIN), then ship the FIN.
                let fin_gen = st.fin_gens.entry(key).or_insert(0);
                *fin_gen = (*fin_gen).max(gen);
                self.post_group_fin(st, key, gen);
                self.ctx
                    .trace(format_args!("proxy.group_fin.r{}.g{gen}", key.host_rank));
                inst.done = true;
                return;
            };
            match *entry {
                (
                    WireEntry::Send {
                        addr,
                        len,
                        src_rkey,
                        dst_rank,
                        tag,
                        dst_addr,
                        dst_rkey,
                        dst_req_id,
                        msg_id,
                        crc,
                        ..
                    },
                    Some(source),
                ) => {
                    let src_ep = self.cluster.host_ep(key.host_rank);
                    let (local, path) = match source {
                        Source::Host(mkey2) => ((src_ep, addr, mkey2), PathKind::CrossGvmi),
                        Source::Staged(buf, bkey) => {
                            match inst.stage_reads.get(&cursor) {
                                Some(true) => {
                                    inst.stage_reads.remove(&cursor);
                                }
                                Some(false) => return, // hop 1 still in flight
                                None => {
                                    // Staging hop 1: pull the (current
                                    // generation's) payload from host
                                    // memory, once per entry/gen.
                                    inst.stage_reads.insert(cursor, false);
                                    self.charge_entries(1);
                                    let staged = (self.my_ep, buf, bkey);
                                    let src = (src_ep, addr, src_rkey);
                                    let op = DataOp::new(
                                        PathKind::StagingHop1,
                                        true,
                                        staged,
                                        src,
                                        len,
                                        msg_id,
                                        crc,
                                    );
                                    let completion = Completion::GroupStageRead {
                                        key,
                                        gen,
                                        entry_idx: cursor,
                                    };
                                    self.post(st, op, completion);
                                    static STAGING_READS: StatKey =
                                        StatKey::new("offload.proxy.staging_reads");
                                    self.ctx.stat_incr(&STAGING_READS, 1);
                                    return; // payload not in DPU memory yet
                                }
                            }
                            ((self.my_ep, buf, bkey), PathKind::StagingHop2)
                        }
                    };
                    self.charge_entries(1);
                    if let Source::Host(mkey2) = source {
                        self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
                    }
                    let dst_proxy_pid = self
                        .cluster
                        .fabric()
                        .pid_of(self.cluster.proxy_for_rank(dst_rank));
                    let arrival = CtrlMsg::GroupArrival {
                        src_rank: key.host_rank,
                        tag,
                        dst_key: GroupKey {
                            host_rank: dst_rank,
                            req_id: dst_req_id,
                        },
                        gen,
                        msg_id,
                    };
                    let remote = (self.cluster.host_ep(dst_rank), dst_addr, dst_rkey);
                    // Group integrity: the CRC is a wire-build-time
                    // snapshot (documented relaxation — a host that
                    // rewrites a send buffer between generations must
                    // rebuild the group).
                    let mut op = DataOp::new(path, false, local, remote, len, msg_id, crc);
                    op.notify = Some((dst_proxy_pid, arrival));
                    self.post(st, op, Completion::GroupSend { key, gen });
                    static GROUP_WRITES: StatKey = StatKey::new("offload.proxy.group_writes");
                    self.ctx.stat_incr(&GROUP_WRITES, 1);
                    inst.outstanding += 1;
                    inst.send_set.insert((dst_rank, dst_req_id));
                    inst.cursor += 1;
                }
                (WireEntry::Send { .. }, None) => unreachable!("install resolves every send"),
                (WireEntry::Recv { .. }, _) => inst.cursor += 1,
                (WireEntry::Barrier, _) => {
                    if inst.outstanding > 0 {
                        self.note_barrier_stall(inst);
                        return; // wait for send completions
                    }
                    if !inst.barrier_written {
                        // writeRemoteBarrierCntr(sendRankSet) — Algorithm 1.
                        inst.barriers += 1;
                        inst.barrier_written = true;
                        let value = inst.barriers;
                        for (dst_rank, dst_req_id) in std::mem::take(&mut inst.send_set) {
                            let dst_proxy = self.cluster.proxy_for_rank(dst_rank);
                            self.cluster
                                .fabric()
                                .send_packet(
                                    self.ctx,
                                    self.my_ep,
                                    dst_proxy,
                                    self.cfg.ctrl_bytes,
                                    Box::new(CtrlMsg::BarrierCntr {
                                        src_rank: key.host_rank,
                                        dst_key: GroupKey {
                                            host_rank: dst_rank,
                                            req_id: dst_req_id,
                                        },
                                        gen,
                                        value,
                                    }),
                                )
                                .expect("barrier counter write");
                            self.ctx.emit(&ProtoEvent::BarrierCntr {
                                src_rank: key.host_rank,
                                dst_host_rank: dst_rank,
                                dst_req_id,
                                gen,
                                value,
                            });
                        }
                    }
                    // Gate on pre-barrier receive arrivals.
                    if !group.gates.passed(cursor, &inst.arrivals) {
                        self.note_barrier_stall(inst);
                        return;
                    }
                    inst.barrier_written = false;
                    inst.stall_noted = false;
                    inst.cursor += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Offload;
    use rdma::{ClusterBuilder, ClusterSpec, Inbox};
    use std::sync::Mutex;

    fn recv(src_rank: usize, tag: u64) -> WireEntry {
        WireEntry::Recv { src_rank, tag }
    }

    fn send(dst_rank: usize) -> WireEntry {
        WireEntry::Send {
            addr: VAddr(0),
            len: 8,
            mkey: MrKey::invalid(),
            src_rkey: MrKey::invalid(),
            dst_rank,
            tag: 0,
            dst_addr: VAddr(0),
            dst_rkey: MrKey::invalid(),
            dst_req_id: 0,
            msg_id: 0,
            crc: None,
        }
    }

    /// Per `(src_rank, tag)`, the `Recv` entries before `cursor`,
    /// counted by brute force.
    fn brute_needs(entries: &[WireEntry], cursor: usize) -> BTreeMap<(usize, u64), u32> {
        let mut needs = BTreeMap::new();
        for e in entries.iter().take(cursor) {
            if let WireEntry::Recv { src_rank, tag } = e {
                *needs.entry((*src_rank, *tag)).or_insert(0) += 1;
            }
        }
        needs
    }

    #[test]
    fn gate_needs_match_a_brute_force_count() {
        // A fixed LCG draws queues of sends, receives from a few senders
        // and barriers, including empty queues and back-to-back barriers.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut draw = |n: u64| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) % n
        };
        for _ in 0..200 {
            let len = draw(24) as usize;
            let entries: Vec<WireEntry> = (0..len)
                .map(|_| match draw(4) {
                    0 => send(draw(4) as usize),
                    1 => WireEntry::Barrier,
                    _ => recv(draw(3) as usize, draw(2)),
                })
                .collect();
            let gates = RecvGates::new(&entries);
            let gated: Vec<usize> = (0..=len)
                .filter(|&c| c == len || matches!(entries[c], WireEntry::Barrier))
                .collect();
            assert_eq!(gates.at, gated);
            for cursor in 0..=len {
                let got = gates.needs_at(cursor);
                if !gated.contains(&cursor) {
                    assert!(got.is_empty(), "needs at a non-gate {cursor}");
                    continue;
                }
                let mut want = brute_needs(&entries, cursor);
                for (&sender, &need) in gates.senders.iter().zip(got) {
                    assert_eq!(
                        want.remove(&sender).unwrap_or(0),
                        need,
                        "{sender:?}@{cursor}"
                    );
                }
                assert!(want.is_empty(), "senders missing from the table: {want:?}");
            }
        }
    }

    #[test]
    fn a_duplicate_msg_id_does_not_count() {
        let entries = [recv(1, 0), recv(1, 0)];
        let gates = RecvGates::new(&entries);
        let mut a = Arrivals::new(&gates, ArrivalSet::new());
        assert!(a.record(&gates, 1, 0, 10));
        // A replayed data write after a proxy restart.
        assert!(!a.record(&gates, 1, 0, 10));
        assert!(!gates.passed(2, &a), "one distinct arrival of two");
        assert!(a.record(&gates, 1, 0, 11));
        assert!(gates.passed(2, &a));
    }

    #[test]
    fn an_arrival_before_the_instance_is_honoured() {
        let entries = [recv(2, 5), WireEntry::Barrier, send(2)];
        let gates = RecvGates::new(&entries);
        // Landed while the group was not installed yet.
        let early = ArrivalSet::from([(2, 5, 7)]);
        let mut a = Arrivals::new(&gates, early);
        assert!(gates.passed(1, &a));
        assert!(
            !a.record(&gates, 2, 5, 7),
            "the early arrival is already counted"
        );
        // An arrival from a sender the group never receives from counts
        // nowhere, and does not disturb the ones it does.
        assert!(a.record(&gates, 3, 5, 8));
        assert_eq!(a.counts, vec![1]);
    }

    #[test]
    fn a_sender_over_two_barriers_releases_each_at_its_count() {
        let entries = [
            recv(0, 1),
            send(0),
            WireEntry::Barrier,
            recv(0, 1),
            recv(0, 1),
            recv(4, 1),
            WireEntry::Barrier,
            send(4),
        ];
        let gates = RecvGates::new(&entries);
        let mut a = Arrivals::new(&gates, ArrivalSet::new());
        let passes = |a: &Arrivals| (gates.passed(2, a), gates.passed(6, a), gates.passed(8, a));
        assert_eq!(passes(&a), (false, false, false));
        a.record(&gates, 0, 1, 100);
        assert_eq!(passes(&a), (true, false, false));
        a.record(&gates, 4, 1, 400);
        a.record(&gates, 0, 1, 101);
        assert_eq!(passes(&a), (true, false, false), "sender 0 has 2 of 3");
        a.record(&gates, 0, 1, 102);
        assert_eq!(passes(&a), (true, true, true));
        // A reinstall recounts the same arrivals against the new table.
        let a = Arrivals::new(&RecvGates::new(&entries), a.seen);
        assert_eq!(passes(&a), (true, true, true));
    }

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

    /// A stencil uses fresh tags every round. Neither end may keep
    /// per-request residue that a per-message path then walks: the
    /// proxy's descriptor table must hold live descriptors only, and the
    /// host's request table only the slots not yet completed.
    #[test]
    fn a_long_stencil_leaves_no_per_request_residue() {
        const ROUNDS: u64 = 200;
        const FACE: u64 = 256;
        let cfg = OffloadConfig::proposed();
        let (host_cfg, proxy_cfg) = (cfg.clone(), cfg);
        // Per proxy: (most descriptors the table ever held, descriptors
        // left at exit).
        let peaks = Arc::new(Mutex::new(Vec::new()));
        let peaks2 = Arc::clone(&peaks);
        ClusterBuilder::new(ClusterSpec::new(2, 2).without_byte_movement(), 5)
            .run_async(
                move |rank, ctx, cluster| {
                    let host_cfg = host_cfg.clone();
                    async move {
                        let inbox = Inbox::new();
                        let off = Offload::init(rank, ctx, cluster, &inbox, host_cfg);
                        let fab = off.cluster().fabric().clone();
                        let ep = off.cluster().host_ep(rank);
                        let p = off.size();
                        let (right, left) = ((rank + 1) % p, (rank + p - 1) % p);
                        let sbuf = fab.alloc(ep, FACE);
                        let rbuf = fab.alloc(ep, FACE);
                        for round in 0..ROUNDS {
                            let reqs = [
                                off.send_offload(sbuf, FACE, right, round),
                                off.recv_offload(rbuf, FACE, left, round),
                            ];
                            off.wait_all(&reqs).await;
                        }
                        // One receive nobody answers, cancelled: the proxy
                        // reaps its queued descriptor, and the failed slot is
                        // never `done`, so it stays held to the end.
                        let orphan = off.recv_offload(rbuf, FACE, left, u64::MAX);
                        off.cancel(orphan);
                        assert!(off.req_error(orphan).is_some());
                        assert_eq!(off.held_slots(), 1);
                        off.finalize().await;
                        assert_eq!(off.held_slots(), 1);
                    }
                },
                Some(
                    move |node: usize, idx: usize, ctx: ProcessCtx, cluster: ClusterCtx| {
                        let mut proc = ProxyProc::new(node, idx, ctx, cluster, proxy_cfg.clone());
                        let peaks = Arc::clone(&peaks2);
                        let mut most = 0;
                        let handler: Reactor = Box::new(move |payload| {
                            let more = proc.on_message(payload);
                            let held = proc.st.descriptors.len();
                            most = most.max(held);
                            if !more {
                                peaks.lock().expect("peaks lock").push((most, held));
                            }
                            more
                        });
                        Some(handler)
                    },
                ),
            )
            .expect("clean run");
        let peaks = peaks.lock().expect("peaks lock");
        assert_eq!(peaks.len(), 2, "one entry per proxy");
        for &(most, left) in peaks.iter() {
            assert_eq!(left, 0, "the descriptor table must be empty at exit");
            // Two ranks per proxy, each a round ahead at most, two
            // descriptors per rank and round.
            assert!((1..=8).contains(&most), "held {most} descriptors at once");
        }
    }
}
