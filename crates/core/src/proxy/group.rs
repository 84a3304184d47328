//! Group primitives: the cached-group engine of paper Algorithm 1.
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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rdma::{MrKey, VAddr};
use simnet::StatKey;

use super::completion::{Completion, DataOp};
use super::path::{Path, PathReq};
use super::{Proxy, ProxyState};
use crate::config::OffloadConfig;
use crate::events::{CtrlKind, FinKind, PathKind, ProtoEvent};
use crate::messages::{CtrlMsg, GroupKey, WireEntry};

/// Where a cached group send entry's payload comes from, decided once
/// at install.
#[derive(Clone, Copy)]
pub(super) enum Source {
    /// The owning host's buffer, cross-registered (`mkey2`).
    Host(MrKey),
    /// A DPU staging buffer each generation is read into first.
    Staged(VAddr, MrKey),
}

pub(super) struct CachedGroup {
    /// The wire entries; each send carries its resolved source.
    entries: Vec<(WireEntry, Option<Source>)>,
    /// What its barriers and its end wait for.
    pub(super) gates: RecvGates,
}

/// A cached group's receive gates, precomputed at install: the distinct
/// `(src_rank, tag)` senders of its `Recv` entries and, at each barrier
/// and at the end of the queue, how many arrivals each sender must have
/// delivered (its `Recv` entries before that position). Checking a gate
/// is a walk over two slices: no allocation, no tree.
pub(super) struct RecvGates {
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
pub(super) type ArrivalSet = BTreeSet<(usize, u64, u64)>;

/// One group instance's arrivals: every counted msg-id, so a replayed
/// data write (proxy-restart recovery) cannot count twice and release a
/// barrier early, and per sender of its [`RecvGates`] how many landed.
pub(super) struct Arrivals {
    pub(super) seen: ArrivalSet,
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
    pub(super) fn record(
        &mut self,
        gates: &RecvGates,
        src_rank: usize,
        tag: u64,
        msg_id: u64,
    ) -> bool {
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
pub(super) struct Instance {
    pub(super) key: GroupKey,
    pub(super) gen: u64,
    /// The installed group it runs (replaced when a reinstall does).
    pub(super) group: Arc<CachedGroup>,
    cursor: usize,
    pub(super) outstanding: usize,
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
    pub(super) stage_reads: BTreeMap<usize, bool>,
    pub(super) arrivals: Arrivals,
    pub(super) done: bool,
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

impl ProxyState {
    /// Count one data arrival for generation `gen` of `dst_key`, and wake
    /// its instance; with no instance yet (or one a crash wiped), keep
    /// it for the instance to take.
    pub(super) fn record_arrival(
        &mut self,
        src_rank: usize,
        tag: u64,
        dst_key: GroupKey,
        gen: u64,
        msg_id: u64,
    ) {
        if self.fin_gens.get(&dst_key).copied().unwrap_or(0) >= gen {
            // Late (replayed) arrival for a generation that
            // already finished; recording it would only leak.
            return;
        }
        match self.instance_mut(dst_key, gen) {
            Some((idx, inst)) => {
                if inst
                    .arrivals
                    .record(&inst.group.gates, src_rank, tag, msg_id)
                {
                    self.woken.push(idx);
                }
            }
            None => {
                self.arrivals
                    .entry((dst_key, gen))
                    .or_default()
                    .insert((src_rank, tag, msg_id));
            }
        }
    }

    /// The instance running generation `gen` of `key`, with its index.
    pub(super) fn instance_mut(
        &mut self,
        key: GroupKey,
        gen: u64,
    ) -> Option<(usize, &mut Instance)> {
        self.instances
            .iter_mut()
            .enumerate()
            .find(|(_, i)| i.key == key && i.gen == gen)
    }
}

impl Proxy<'_> {
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

    pub(super) fn install_group(
        &self,
        st: &mut ProxyState,
        key: GroupKey,
        entries: Vec<WireEntry>,
    ) {
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
                    let path = self.choose_path(st, &req, false);
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

    /// A cached execution of an installed group.
    pub(super) fn on_group_exec(&self, st: &mut ProxyState, key: GroupKey, gen: u64) {
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

    pub(super) fn start_instance(&self, st: &mut ProxyState, key: GroupKey, gen: u64) {
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
            self.drop_duplicate(CtrlKind::GroupExec, 0);
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
    pub(super) fn advance_woken(&self, st: &mut ProxyState) {
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
                                    OffloadConfig::CTRL_BYTES,
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
}
