//! The MPI protocol engine: requests, matching, eager and rendezvous paths.
//!
//! The engine only makes progress when its owner process calls into it
//! (`progress`, `test`, `wait`, or any posting call) — exactly the
//! host-progress semantics of a production MPI without an async progress
//! thread. This is what the paper's motivation (Fig. 1, Listing 1) hinges
//! on: a rendezvous or a dependent collective step stalls while the
//! application computes.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};

use rdma::{Channel, ClusterCtx, EpId, Inbox, MrKey, NetMsg, VAddr};
use simnet::{Pid, ProcessCtx, StatKey};

/// Messages up to this size (bytes) use the eager protocol: the payload
/// rides inside the control packet and the send completes locally.
/// Larger messages use rendezvous (RTS → CTS → RDMA write → FIN), which
/// requires the *receiver's CPU* to be inside an MPI call to reply CTS —
/// the host-progress limitation the paper's Fig. 1 illustrates.
const EAGER_THRESHOLD: u64 = 16 * 1024;

/// Modelled wire size of a control packet (RTS/CTS and eager header).
const CTRL_BYTES: u64 = 64;

/// Matches any source rank.
pub const ANY_SOURCE: usize = usize::MAX;
/// Matches any tag.
pub const ANY_TAG: u64 = u64::MAX;

/// Work-request id namespace for MPI CQEs (top byte distinguishes engines
/// sharing one process mailbox).
pub(crate) const WRID_MPI: u64 = 0x0100_0000_0000_0000;

/// A request handle returned by non-blocking operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Req(pub(crate) usize);

/// Wire messages of the mini-MPI protocol (bodies of [`NetMsg::Packet`] /
/// [`NetMsg::Notify`]).
pub(crate) enum MpiMsg {
    /// Small message: payload carried inline; completes the send locally.
    Eager {
        src_rank: usize,
        tag: u64,
        len: u64,
        data: Vec<u8>,
    },
    /// Rendezvous request-to-send.
    Rts {
        src_rank: usize,
        tag: u64,
        len: u64,
        send_req: usize,
    },
    /// Rendezvous clear-to-send: receiver granted the buffer.
    Cts {
        recv_rank: usize,
        recv_pid: Pid,
        recv_addr: VAddr,
        rkey: MrKey,
        send_req: usize,
        recv_req: usize,
    },
    /// Rendezvous finished marker delivered with the RDMA write.
    Fin { recv_req: usize },
}

struct Posted {
    req: usize,
    addr: VAddr,
    len: u64,
    src: usize,
    tag: u64,
    seq: u64,
}

enum Unexpected {
    Eager {
        len: u64,
        data: Vec<u8>,
        seq: u64,
    },
    Rts {
        src_rank: usize,
        len: u64,
        send_req: usize,
        seq: u64,
    },
}

impl Unexpected {
    fn seq(&self) -> u64 {
        match self {
            Unexpected::Eager { seq, .. } | Unexpected::Rts { seq, .. } => *seq,
        }
    }
}

/// A send awaiting CTS.
struct PendingSend {
    addr: VAddr,
    len: u64,
    dst: usize,
}

/// One stage op of a non-blocking collective schedule.
#[derive(Clone, Debug)]
pub(crate) enum NbcOp {
    /// Post an isend.
    Send {
        addr: VAddr,
        len: u64,
        dst: usize,
        tag: u64,
    },
    /// Post an irecv.
    Recv {
        addr: VAddr,
        len: u64,
        src: usize,
        tag: u64,
    },
    /// Local copy between two buffers of this rank (e.g. the self block of
    /// an alltoall).
    Copy { from: VAddr, to: VAddr, len: u64 },
}

struct NbcSlot {
    stages: Vec<Vec<NbcOp>>,
    cur: usize,
    pending: Vec<Req>,
    req: usize,
    active: bool,
}

pub(crate) struct Engine {
    reqs: Vec<bool>, // done flags
    posted_exact: BTreeMap<(usize, u64), VecDeque<Posted>>,
    posted_wild: VecDeque<Posted>,
    unexpected: BTreeMap<(usize, u64), VecDeque<Unexpected>>,
    pending_sends: BTreeMap<usize, PendingSend>,
    regcache: BTreeMap<(u64, u64), MrKey>,
    nbcs: Vec<NbcSlot>,
    next_seq: u64,
    /// Per-communicator collective sequence numbers, keyed by a hash of
    /// the member set. A global counter would desynchronize ranks that
    /// participate in different numbers of sub-communicator collectives
    /// (e.g. HPL row broadcasts) before a world collective.
    pub(crate) coll_seq: BTreeMap<u64, u64>,
}

impl Engine {
    fn new() -> Self {
        Engine {
            reqs: Vec::new(),
            posted_exact: BTreeMap::new(),
            posted_wild: VecDeque::new(),
            unexpected: BTreeMap::new(),
            pending_sends: BTreeMap::new(),
            regcache: BTreeMap::new(),
            nbcs: Vec::new(),
            next_seq: 0,
            coll_seq: BTreeMap::new(),
        }
    }

    fn new_req(&mut self) -> usize {
        self.reqs.push(false);
        self.reqs.len() - 1
    }

    /// Remove and return the earliest posted recv matching `(src, tag)`.
    fn match_posted(&mut self, src: usize, tag: u64) -> Option<Posted> {
        let exact_seq = self
            .posted_exact
            .get(&(src, tag))
            .and_then(|q| q.front())
            .map(|p| p.seq);
        let wild_pos = self.posted_wild.iter().position(|p| {
            (p.src == ANY_SOURCE || p.src == src) && (p.tag == ANY_TAG || p.tag == tag)
        });
        let wild_seq = wild_pos.map(|i| self.posted_wild[i].seq);
        match (exact_seq, wild_seq) {
            (None, None) => None,
            (Some(_), None) => self.posted_exact.get_mut(&(src, tag)).unwrap().pop_front(),
            (None, Some(_)) => self.posted_wild.remove(wild_pos.unwrap()),
            (Some(e), Some(w)) => {
                if e <= w {
                    self.posted_exact.get_mut(&(src, tag)).unwrap().pop_front()
                } else {
                    self.posted_wild.remove(wild_pos.unwrap())
                }
            }
        }
    }

    /// Remove and return the earliest unexpected message matching the
    /// receive `(src, tag)` (which may be wildcards).
    fn match_unexpected(&mut self, src: usize, tag: u64) -> Option<Unexpected> {
        if src != ANY_SOURCE && tag != ANY_TAG {
            return self
                .unexpected
                .get_mut(&(src, tag))
                .and_then(|q| q.pop_front());
        }
        // Wildcard: take the globally earliest matching arrival.
        let mut best: Option<((usize, u64), u64)> = None;
        for (key, q) in &self.unexpected {
            if (src == ANY_SOURCE || key.0 == src) && (tag == ANY_TAG || key.1 == tag) {
                if let Some(front) = q.front() {
                    if best.is_none_or(|(_, s)| front.seq() < s) {
                        best = Some((*key, front.seq()));
                    }
                }
            }
        }
        best.and_then(|(key, _)| self.unexpected.get_mut(&key).unwrap().pop_front())
    }
}

/// One rank's MPI library. Create inside the rank's process closure and use
/// like MPI: `isend`/`irecv`/`test`/`wait`, plus the collectives defined in
/// the collectives module (barrier, bcast, alltoall, allgather, scalar
/// all-reduce).
pub struct Mpi {
    pub(crate) ctx: ProcessCtx,
    pub(crate) cluster: ClusterCtx,
    pub(crate) rank: usize,
    pub(crate) ep: EpId,
    pub(crate) chan: Channel,
    pub(crate) st: RefCell<Engine>,
    /// Reentrancy guard: posting ops from inside `advance_nbcs` re-enters
    /// `progress`, which must not recurse into `advance_nbcs` while a stage
    /// is half-posted.
    in_advance: Cell<bool>,
    /// Zero-length buffer for zero-byte messages, allocated at the first
    /// barrier.
    pub(crate) scratch0: Cell<Option<VAddr>>,
}

impl Mpi {
    /// Attach an MPI engine for `rank` to an existing per-process [`Inbox`]
    /// (use this when the process also runs other engines, e.g. offload).
    pub fn attach(rank: usize, ctx: ProcessCtx, cluster: ClusterCtx, inbox: &Inbox) -> Mpi {
        let chan = inbox.channel(|m| match m {
            NetMsg::Packet(p) => p.body.is::<MpiMsg>(),
            NetMsg::Notify(p) => p.is::<MpiMsg>(),
            NetMsg::Cqe(c) => c.wrid & 0xFF00_0000_0000_0000 == WRID_MPI,
        });
        let ep = cluster.host_ep(rank);
        Mpi {
            ctx,
            cluster,
            rank,
            ep,
            chan,
            st: RefCell::new(Engine::new()),
            in_advance: Cell::new(false),
            scratch0: Cell::new(None),
        }
    }

    /// Create an MPI engine with its own private inbox (processes that only
    /// run MPI).
    pub fn new(rank: usize, ctx: ProcessCtx, cluster: ClusterCtx) -> Mpi {
        let inbox = Inbox::new();
        Mpi::attach(rank, ctx, cluster, &inbox)
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.cluster.world_size()
    }

    /// The process context (for `compute`, `now`, tracing).
    pub fn ctx(&self) -> &ProcessCtx {
        &self.ctx
    }

    /// The cluster roster.
    pub fn cluster(&self) -> &ClusterCtx {
        &self.cluster
    }

    /// Model application computation (no MPI progress happens meanwhile).
    pub async fn compute(&self, d: simnet::SimDelta) {
        self.ctx.compute_async(d).await;
    }

    // ---- point-to-point ----

    /// Non-blocking send of `[addr, addr+len)` to `dst` with `tag`.
    pub fn isend(&self, addr: VAddr, len: u64, dst: usize, tag: u64) -> Req {
        assert!(dst < self.size(), "isend: bad destination rank {dst}");
        self.progress();
        let req = self.st.borrow_mut().new_req();
        let fab = self.cluster.fabric();
        if len <= EAGER_THRESHOLD {
            // Eager payloads always carry real bytes, even in timing-only
            // runs: they are small, and scalar reductions ride on them.
            let data = fab
                .read_bytes(self.ep, addr, len)
                .expect("eager send buffer readable");
            fab.send_packet(
                &self.ctx,
                self.ep,
                self.cluster.host_ep(dst),
                len + CTRL_BYTES,
                Box::new(MpiMsg::Eager {
                    src_rank: self.rank,
                    tag,
                    len,
                    data,
                }),
            )
            .expect("eager send");
            // Buffered semantics: the send buffer is reusable immediately.
            self.st.borrow_mut().reqs[req] = true;
            static EAGER: StatKey = StatKey::new("mpi.send.eager");
            self.ctx.stat_incr(&EAGER, 1);
        } else {
            self.st
                .borrow_mut()
                .pending_sends
                .insert(req, PendingSend { addr, len, dst });
            fab.send_packet(
                &self.ctx,
                self.ep,
                self.cluster.host_ep(dst),
                CTRL_BYTES,
                Box::new(MpiMsg::Rts {
                    src_rank: self.rank,
                    tag,
                    len,
                    send_req: req,
                }),
            )
            .expect("rts send");
            static RNDV: StatKey = StatKey::new("mpi.send.rndv");
            self.ctx.stat_incr(&RNDV, 1);
        }
        Req(req)
    }

    /// Non-blocking receive into `[addr, addr+len)` from `src` (or
    /// [`ANY_SOURCE`]) with `tag` (or [`ANY_TAG`]).
    pub fn irecv(&self, addr: VAddr, len: u64, src: usize, tag: u64) -> Req {
        self.progress();
        let req = self.st.borrow_mut().new_req();
        let matched = self.st.borrow_mut().match_unexpected(src, tag);
        match matched {
            Some(Unexpected::Eager {
                len: mlen, data, ..
            }) => {
                assert!(mlen <= len, "eager message longer than receive buffer");
                self.deliver_eager(addr, &data, mlen);
                self.st.borrow_mut().reqs[req] = true;
            }
            Some(Unexpected::Rts {
                src_rank,
                len: mlen,
                send_req,
                ..
            }) => {
                assert!(mlen <= len, "rendezvous message longer than receive buffer");
                self.reply_cts(req, addr, mlen, src_rank, send_req);
            }
            None => {
                let mut st = self.st.borrow_mut();
                let seq = st.next_seq;
                st.next_seq += 1;
                let posted = Posted {
                    req,
                    addr,
                    len,
                    src,
                    tag,
                    seq,
                };
                if src == ANY_SOURCE || tag == ANY_TAG {
                    st.posted_wild.push_back(posted);
                } else {
                    st.posted_exact
                        .entry((src, tag))
                        .or_default()
                        .push_back(posted);
                }
            }
        }
        Req(req)
    }

    /// Has `req` completed? Drives progress (like `MPI_Test`).
    pub fn test(&self, req: Req) -> bool {
        self.progress();
        self.st.borrow().reqs[req.0]
    }

    /// Wait until `req` completes (like `MPI_Wait`).
    pub async fn wait(&self, req: Req) {
        self.progress();
        while !self.st.borrow().reqs[req.0] {
            let msg = self.chan.next(&self.ctx).await;
            self.handle(msg);
            self.progress();
        }
    }

    /// Wait until all of `reqs` complete.
    pub async fn wait_all(&self, reqs: &[Req]) {
        for &r in reqs {
            self.wait(r).await;
        }
    }

    /// Blocking standard send.
    pub async fn send(&self, addr: VAddr, len: u64, dst: usize, tag: u64) {
        let r = self.isend(addr, len, dst, tag);
        self.wait(r).await;
    }

    /// Blocking receive.
    pub async fn recv(&self, addr: VAddr, len: u64, src: usize, tag: u64) {
        let r = self.irecv(addr, len, src, tag);
        self.wait(r).await;
    }

    /// Drain and handle every pending incoming message, then advance any
    /// active non-blocking collective schedules.
    pub fn progress(&self) {
        while let Some(msg) = self.chan.try_next(&self.ctx) {
            self.handle(msg);
        }
        self.advance_nbcs();
    }

    /// Compute for `total`, calling `test` on `req` every `slice` — the
    /// Listing-1 pattern (`do_compute(); MPI_Test(...)`). Returns once the
    /// compute budget is spent; query `test`/`wait` afterwards for the
    /// request's completion state.
    pub async fn compute_with_test(
        &self,
        total: simnet::SimDelta,
        slice: simnet::SimDelta,
        req: Req,
    ) {
        let mut remaining = total;
        while remaining > simnet::SimDelta::ZERO {
            let step = remaining.min(slice);
            self.ctx.compute_async(step).await;
            remaining = remaining.saturating_sub(step);
            let _ = self.test(req);
        }
    }

    // ---- internals ----

    fn deliver_eager(&self, addr: VAddr, data: &[u8], len: u64) {
        debug_assert_eq!(data.len() as u64, len);
        self.cluster
            .fabric()
            .write_bytes(self.ep, addr, data)
            .expect("recv buffer writable");
    }

    /// Look up (or create) a registration for this rank's buffer — the
    /// classic MPI registration cache.
    pub(crate) fn cached_reg(&self, addr: VAddr, len: u64) -> MrKey {
        let hit = self.st.borrow().regcache.get(&(addr.0, len)).copied();
        if let Some(k) = hit {
            static REGCACHE_HIT: StatKey = StatKey::new("mpi.regcache.hit");
            self.ctx.stat_incr(&REGCACHE_HIT, 1);
            return k;
        }
        static REGCACHE_MISS: StatKey = StatKey::new("mpi.regcache.miss");
        self.ctx.stat_incr(&REGCACHE_MISS, 1);
        let key = self
            .cluster
            .fabric()
            .reg_mr(&self.ctx, self.ep, addr, len)
            .expect("registration of a valid buffer");
        self.st.borrow_mut().regcache.insert((addr.0, len), key);
        key
    }

    fn reply_cts(&self, recv_req: usize, addr: VAddr, len: u64, src_rank: usize, send_req: usize) {
        self.ctx.trace(format_args!("mpi.reply_cts.to{src_rank}"));
        let rkey = self.cached_reg(addr, len);
        self.cluster
            .fabric()
            .send_packet(
                &self.ctx,
                self.ep,
                self.cluster.host_ep(src_rank),
                CTRL_BYTES,
                Box::new(MpiMsg::Cts {
                    recv_rank: self.rank,
                    recv_pid: self.ctx.pid(),
                    recv_addr: addr,
                    rkey,
                    send_req,
                    recv_req,
                }),
            )
            .expect("cts send");
    }

    fn handle(&self, msg: NetMsg) {
        match msg {
            NetMsg::Packet(p) => {
                let body = *p.body.downcast::<MpiMsg>().expect("channel predicate");
                match body {
                    MpiMsg::Eager {
                        src_rank,
                        tag,
                        len,
                        data,
                    } => {
                        let matched = self.st.borrow_mut().match_posted(src_rank, tag);
                        match matched {
                            Some(posted) => {
                                assert!(len <= posted.len, "eager overflow");
                                self.deliver_eager(posted.addr, &data, len);
                                self.st.borrow_mut().reqs[posted.req] = true;
                            }
                            None => {
                                let mut st = self.st.borrow_mut();
                                let seq = st.next_seq;
                                st.next_seq += 1;
                                st.unexpected
                                    .entry((src_rank, tag))
                                    .or_default()
                                    .push_back(Unexpected::Eager { len, data, seq });
                            }
                        }
                    }
                    MpiMsg::Rts {
                        src_rank,
                        tag,
                        len,
                        send_req,
                    } => {
                        self.ctx
                            .trace(format_args!("mpi.rts.from{src_rank}.tag{tag}"));
                        let matched = self.st.borrow_mut().match_posted(src_rank, tag);
                        match matched {
                            Some(posted) => {
                                assert!(len <= posted.len, "rendezvous overflow");
                                self.reply_cts(posted.req, posted.addr, len, src_rank, send_req);
                            }
                            None => {
                                let mut st = self.st.borrow_mut();
                                let seq = st.next_seq;
                                st.next_seq += 1;
                                st.unexpected.entry((src_rank, tag)).or_default().push_back(
                                    Unexpected::Rts {
                                        src_rank,
                                        len,
                                        send_req,
                                        seq,
                                    },
                                );
                            }
                        }
                    }
                    MpiMsg::Cts {
                        recv_rank,
                        recv_pid,
                        recv_addr,
                        rkey,
                        send_req,
                        recv_req,
                    } => {
                        self.ctx.trace(format_args!("mpi.cts.from{recv_rank}"));
                        let ps = self
                            .st
                            .borrow_mut()
                            .pending_sends
                            .remove(&send_req)
                            .expect("CTS for unknown send");
                        debug_assert_eq!(ps.dst, recv_rank);
                        let lkey = self.cached_reg(ps.addr, ps.len);
                        self.cluster
                            .fabric()
                            .rdma_write(
                                &self.ctx,
                                self.ep,
                                (self.ep, ps.addr, lkey),
                                (self.cluster.host_ep(recv_rank), recv_addr, rkey),
                                ps.len,
                                Some(WRID_MPI | send_req as u64),
                                Some((recv_pid, Box::new(MpiMsg::Fin { recv_req }))),
                            )
                            .expect("rendezvous data write");
                    }
                    MpiMsg::Fin { .. } => unreachable!("Fin arrives as Notify"),
                }
            }
            NetMsg::Notify(body) => {
                let body = *body.downcast::<MpiMsg>().expect("channel predicate");
                match body {
                    MpiMsg::Fin { recv_req } => {
                        self.ctx.trace(format_args!("mpi.fin.req{recv_req}"));
                        self.st.borrow_mut().reqs[recv_req] = true;
                    }
                    _ => unreachable!("only Fin rides Notify"),
                }
            }
            NetMsg::Cqe(c) => {
                let req = (c.wrid & !WRID_MPI) as usize;
                self.st.borrow_mut().reqs[req] = true;
            }
        }
    }

    // ---- non-blocking collective machinery ----

    /// Register a staged schedule; returns its request handle. Stages run in
    /// order; each stage's ops are posted when all previous stage requests
    /// have completed.
    pub(crate) fn start_nbc(&self, stages: Vec<Vec<NbcOp>>) -> Req {
        let req = self.st.borrow_mut().new_req();
        self.st.borrow_mut().nbcs.push(NbcSlot {
            stages,
            cur: 0,
            pending: Vec::new(),
            req,
            active: true,
        });
        self.advance_nbcs();
        Req(req)
    }

    fn advance_nbcs(&self) {
        if self.in_advance.get() {
            return;
        }
        self.in_advance.set(true);
        let _reset = ResetGuard(&self.in_advance);
        loop {
            let mut advanced = false;
            let n = self.st.borrow().nbcs.len();
            for i in 0..n {
                // Check whether this NBC can move.
                let ready = {
                    let st = self.st.borrow();
                    let slot = &st.nbcs[i];
                    slot.active && slot.pending.iter().all(|r| st.reqs[r.0])
                };
                if !ready {
                    continue;
                }
                let next_stage = {
                    let mut st = self.st.borrow_mut();
                    let slot = &mut st.nbcs[i];
                    slot.pending.clear();
                    if slot.cur >= slot.stages.len() {
                        slot.active = false;
                        let req = slot.req;
                        st.reqs[req] = true;
                        advanced = true;
                        None
                    } else {
                        let stage = slot.stages[slot.cur].clone();
                        slot.cur += 1;
                        Some((i, stage))
                    }
                };
                if let Some((idx, stage)) = next_stage {
                    advanced = true;
                    let mut new_reqs = Vec::new();
                    for op in stage {
                        match op {
                            NbcOp::Send {
                                addr,
                                len,
                                dst,
                                tag,
                            } => {
                                new_reqs.push(self.isend(addr, len, dst, tag));
                            }
                            NbcOp::Recv {
                                addr,
                                len,
                                src,
                                tag,
                            } => {
                                new_reqs.push(self.irecv(addr, len, src, tag));
                            }
                            NbcOp::Copy { from, to, len } => {
                                let fab = self.cluster.fabric();
                                if fab.moves_bytes() {
                                    let data =
                                        fab.read_bytes(self.ep, from, len).expect("copy source");
                                    fab.write_bytes(self.ep, to, &data).expect("copy dest");
                                }
                            }
                        }
                    }
                    self.st.borrow_mut().nbcs[idx].pending = new_reqs;
                }
            }
            if !advanced {
                break;
            }
        }
    }

    /// Next collective sequence number for the communicator identified by
    /// `members_hash` (tags of internal collectives are namespaced per
    /// member set so disjoint sub-communicators never cross-talk and
    /// uneven subset usage cannot desynchronize world collectives).
    pub(crate) fn next_coll_seq(&self, members_hash: u64) -> u64 {
        let mut st = self.st.borrow_mut();
        let c = st.coll_seq.entry(members_hash).or_insert(0);
        *c += 1;
        *c
    }

    /// Stable hash of a member list (communicator identity for tags).
    pub(crate) fn members_hash(members: &[usize]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &m in members {
            h ^= m as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Hash representing the world communicator.
    pub(crate) fn world_hash(&self) -> u64 {
        // All ranks: identified by the world size alone.
        Self::members_hash(&[usize::MAX, self.size()])
    }
}

/// Clears the `in_advance` flag even if a stage op panics.
struct ResetGuard<'a>(&'a Cell<bool>);

impl Drop for ResetGuard<'_> {
    fn drop(&mut self) {
        self.0.set(false);
    }
}
