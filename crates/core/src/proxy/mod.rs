//! The DPU proxy (worker) process.
//!
//! One proxy serves every host rank mapped to it via the paper's formula
//! `proxy_local_rank = host_rank % num_proxies_per_dpu`. It is a pure
//! event loop — the "progress engine" of paper Algorithm 1 — and runs as
//! a future process ([`proxy_fn`]) that loops on its next control message
//! or completion and never waits mid-step. It:
//!
//! * matches Basic-primitive RTS/RTR control messages in one descriptor
//!   table keyed by `(src, dst, tag)` (paper Fig. 8; [`descriptors`]),
//!   then moves the data either via cross-GVMI (direct host→host RDMA on
//!   behalf of the host) or via its staging buffers ([`path`]);
//! * caches cross-registrations in the DPU-side array-of-BSTs cache;
//! * verifies what landed and settles each transfer ([`completion`]);
//! * stores group-request metadata (paper §VII-D) and executes group
//!   generations entry by entry, suspending at `Local_barrier` points and
//!   resuming from the progress engine when completions/arrivals land —
//!   the paper's deadlock-avoidance rule ("break from the function to the
//!   progress engine"; [`group`]).
//!
//! This file holds the process, its state, the message dispatch and
//! crash recovery; each submodule adds its concern's methods to [`Proxy`].

mod completion;
mod descriptors;
mod group;
mod path;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::AsyncFn;
use std::sync::Arc;

use rdma::{ClusterCtx, EpId, MrKey, NetMsg, VAddr};
use simnet::{Payload, ProcessCtx, StatKey};

use crate::config::{OffloadConfig, TenantId};
use crate::events::{CtrlKind, FinKind, ProtoEvent};
use crate::health::HealthEngine;
use crate::messages::{CtrlMsg, GroupKey, RtrInfo, RtsInfo};
use crate::reg_cache::RankAddrCache;
use crate::reliable::{FaultRng, Inbound, ReliableLink, ReqOrigin};

use completion::{Completion, DataOp, Notice};
use descriptors::{at_proxy, Desc, Descriptors};
use group::{ArrivalSet, CachedGroup, Instance};
use path::fresh_cross_cache;

/// Decode a control-message payload without panicking: a malformed or
/// foreign message is surfaced as `None` so the caller can count and skip
/// it instead of taking the whole simulation down.
fn decode_ctrl(body: Payload) -> Option<CtrlMsg> {
    crate::profile::profile_scope!(CtrlDecode);
    body.downcast::<CtrlMsg>().ok().map(|b| *b)
}

/// One host end of a basic transfer: the rank, its request slot and
/// the transfer id that end knows the transfer by.
#[derive(Clone, Copy)]
struct End {
    rank: usize,
    req: usize,
    msg_id: u64,
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

/// Build the proxy body builder for [`rdma::ClusterBuilder::run_async`]'s
/// `proxy_fn`, running the framework with `cfg`: a loop that handles
/// each mailbox message as it arrives until the proxy has finished.
pub fn proxy_fn(
    cfg: OffloadConfig,
) -> impl AsyncFn(usize, usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static {
    async move |node, idx, ctx: ProcessCtx, cluster| {
        let mut proc = ProxyProc::new(node, idx, ctx.clone(), cluster, cfg.clone());
        if proc.finished() {
            return; // no rank maps to this proxy
        }
        while proc.on_message(ctx.recv_async().await) {}
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
            rel: ReliableLink::new(cfg.fault, None, true, my_ep),
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
}

struct Proxy<'a> {
    ctx: &'a ProcessCtx,
    cluster: &'a ClusterCtx,
    cfg: &'a OffloadConfig,
    my_ep: EpId,
}

impl Proxy<'_> {
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
                rts,
                dst_rank,
                ack_horizon,
                ..
            } => {
                let key = (rts.src_rank, dst_rank, rts.tag);
                self.on_descriptor(st, key, Desc::Rts(rts), ack_horizon);
            }
            CtrlMsg::Rtr {
                rtr,
                src_rank,
                tag,
                ack_horizon,
                ..
            } => {
                let key = (src_rank, rtr.dst_rank, tag);
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
            CtrlMsg::GroupExec { key, gen } => self.on_group_exec(st, key, gen),
            CtrlMsg::GroupArrival {
                src_rank,
                tag,
                dst_key,
                gen,
                msg_id,
            } => st.record_arrival(src_rank, tag, dst_key, gen, msg_id),
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
                let remote = (self.cluster.host_ep(remote_rank), remote_addr, remote_rkey);
                self.post_get(st, origin, (local_addr, local_mkey), remote, len);
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
            CtrlMsg::Cancel { msg_id } => self.on_cancel(st, msg_id),
            CtrlMsg::DataRetxTick { token } => self.on_retx_tick(st, token),
            other => panic!("unexpected control message at proxy: {other:?}"),
        }
    }

    /// Send a ctrl message to host endpoint `to` through the link, which
    /// sends it bare on a plan that does not arm reliability.
    fn send_ctrl(&self, st: &mut ProxyState, to: EpId, msg: CtrlMsg) {
        crate::profile::profile_scope!(CtrlEncode);
        let fab = self.cluster.fabric();
        st.rel.send(
            self.ctx,
            fab,
            to,
            OffloadConfig::CTRL_BYTES,
            msg,
            ReqOrigin::Free,
        );
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
        self.drop_duplicate(kind, msg_id);
        true
    }

    /// Count and report a duplicate ctrl message the proxy drops.
    fn drop_duplicate(&self, kind: CtrlKind, msg_id: u64) {
        static DUPS_DROPPED: StatKey = StatKey::new("offload.reliable.dups_dropped");
        self.ctx.stat_incr(&DUPS_DROPPED, 1);
        self.ctx.emit(&ProtoEvent::CtrlDuplicateDropped {
            at_proxy: true,
            kind,
            msg_id,
        });
    }

    /// Tell one host end how its transfer ended: a FIN (carrying the
    /// free-slot credit) or a typed `DataError`.
    fn notify_end(&self, st: &mut ProxyState, end: End, notice: Notice) {
        let End { rank, req, msg_id } = end;
        let to = self.cluster.host_ep(rank);
        match notice {
            Notice::Fin { kind, wrid } => {
                // The tenant's free slots are the host's credit, so one
                // tenant's free slots never tempt another tenant's host
                // into a burst of doomed re-posts; 0 while the pool is
                // unbounded, keeping clean wires identical.
                let tenant = self.cfg.tenant_of(rank);
                let quota = self.cfg.quota(tenant);
                let credit = st.descriptors.free_slots(quota, tenant) as u32;
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
        crate::profile::profile_scope!(JournalTruncate);
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
                OffloadConfig::CTRL_BYTES,
                CtrlMsg::ProxyRestarted {
                    proxy: self.my_ep,
                    epoch,
                },
                ReqOrigin::Free,
            );
        }
    }

    /// Charge the ARM time of interpreting `n` queue/packet entries.
    fn charge_entries(&self, n: u64) {
        let _ = self.cluster.fabric().charge_cpu(
            self.ctx,
            self.my_ep,
            OffloadConfig::PROXY_ENTRY_OVERHEAD * n,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Offload;
    use rdma::{ClusterBuilder, ClusterSpec, Inbox};
    use std::sync::Mutex;

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
                async move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(rank, ctx, cluster, &inbox, host_cfg.clone());
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
                },
                Some(
                    async move |node: usize, idx: usize, ctx: ProcessCtx, cluster: ClusterCtx| {
                        let cfg = proxy_cfg.clone();
                        let mut proc = ProxyProc::new(node, idx, ctx.clone(), cluster, cfg);
                        let mut most = 0;
                        while proc.on_message(ctx.recv_async().await) {
                            most = most.max(proc.st.descriptors.len());
                        }
                        let held = proc.st.descriptors.len();
                        peaks2
                            .lock()
                            .expect("peaks lock")
                            .push((most.max(held), held));
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
