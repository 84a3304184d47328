//! The Group primitives (paper Listing 4): recording, the first call's
//! metadata gather (Fig. 9), each call's packet, completion and failure.

use std::collections::{BTreeMap, VecDeque};

use rdma::{MrKey, NetMsg, VAddr};
use simnet::{SimDelta, StatKey};

use super::{GroupRequest, HostState, Offload, HOST_DPU};
use crate::config::OffloadConfig;
use crate::events::{HostCacheKind, ProtoEvent};
use crate::messages::{CtrlMsg, DeadlineTarget, GroupKey, WireEntry};
use crate::reliable::{OffloadError, ReqOrigin};

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

#[derive(Default)]
pub(super) struct GroupState {
    ops: Vec<GroupOp>,
    ended: bool,
    pub(super) gen: u64,
    pub(super) fin_gen: u64,
    /// Wire entries built during the first call (metadata gather done).
    pub(super) wire: Option<Vec<WireEntry>>,
    /// Proxy already holds the metadata (group cache is warm).
    pub(super) proxy_cached: bool,
    /// Terminal failure of the in-flight generation: a group ctrl
    /// message was abandoned, a group entry exhausted its data-path
    /// retransmission budget, or a group deadline expired.
    pub(super) error: Option<OffloadError>,
}

impl GroupState {
    /// The latest generation has not finished.
    pub(super) fn in_flight(&self) -> bool {
        self.fin_gen < self.gen
    }
}

/// One receive-metadata entry: `(tag, buffer, rkey)`.
pub(super) type MetaEntry = (u64, VAddr, MrKey);

impl HostState {
    /// The group `req` names.
    #[expect(
        clippy::expect_used,
        reason = "a GroupRequest is minted by this engine and indexes its own table"
    )]
    pub(super) fn group(&mut self, req: GroupRequest) -> &mut GroupState {
        self.groups
            .get_mut(req.0)
            .expect("a GroupRequest indexes the engine that minted it")
    }
}

impl Offload {
    /// `Group_Offload_start`: begin recording a communication graph.
    pub fn group_start(&self) -> GroupRequest {
        let mut st = self.st.borrow_mut();
        st.groups.push(GroupState::default());
        GroupRequest(st.groups.len() - 1)
    }

    /// `Send_Goffload`: record an offloaded send in the graph.
    pub fn group_send(&self, req: GroupRequest, addr: VAddr, len: u64, dst: usize, tag: u64) {
        assert!(dst < self.size(), "group_send: bad destination {dst}");
        let mut st = self.st.borrow_mut();
        let g = st.group(req);
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
        let g = st.group(req);
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
        let g = st.group(req);
        assert!(!g.ended, "group_barrier after group_end");
        g.ops.push(GroupOp::Barrier);
    }

    /// `Group_Offload_end`: finish recording.
    pub fn group_end(&self, req: GroupRequest) {
        self.st.borrow_mut().group(req).ended = true;
    }

    /// `Group_Offload_call`: offload the recorded graph to the proxy. On
    /// the first call this registers all buffers, gathers receive metadata
    /// from the destination hosts, and ships the full packet; later calls
    /// hit the caches and send a single small execute message (paper
    /// §VII-D).
    pub async fn group_call(&self, req: GroupRequest) {
        assert!(
            self.st.borrow_mut().group(req).ended,
            "group_call before group_end"
        );
        self.drain();
        let gen = {
            let mut st = self.st.borrow_mut();
            let g = st.group(req);
            let was = g.in_flight();
            g.gen += 1;
            // A fresh generation gets a fresh verdict; the previous
            // generation's failure was surfaced by its `group_wait`.
            g.error = None;
            let (gen, opened) = (g.gen, !was && g.in_flight());
            st.groups_in_flight += usize::from(opened);
            gen
        };
        let need_build = self.st.borrow_mut().group(req).wire.is_none();
        if need_build {
            self.build_wire(req).await;
        }
        let use_cache = self.cfg.use_group_cache;
        let cached = self.st.borrow_mut().group(req).proxy_cached;
        if cached && use_cache {
            self.send_group_exec(req, gen);
        } else {
            self.send_group_packet(req, gen);
            self.st.borrow_mut().group(req).proxy_cached = true;
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
                let g = st.group(req);
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
            let mut st = self.st.borrow_mut();
            let g = st.group(req);
            g.fin_gen < g.gen && g.error.is_none()
        };
        if armed {
            self.ctx.deliver_self(
                timeout,
                Box::new(NetMsg::Notify(Box::new(CtrlMsg::DeadlineTick {
                    target: DeadlineTarget::Group(req.0),
                }))),
            );
        }
        self.group_wait(req).await
    }

    /// Has the latest generation of `req` settled (completed or failed
    /// permanently)? Drains completions.
    pub fn group_test(&self, req: GroupRequest) -> bool {
        self.drain();
        let mut st = self.st.borrow_mut();
        let g = st.group(req);
        g.fin_gen >= g.gen || g.error.is_some()
    }

    /// First-call phase of a group request: register everything, gather
    /// receive metadata from the peers my sends target, and build the wire
    /// entries (paper Fig. 9).
    async fn build_wire(&self, req: GroupRequest) {
        let ops = self.st.borrow_mut().group(req).ops.clone();
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
        let mut per_src: BTreeMap<usize, Vec<MetaEntry>> = BTreeMap::new();
        let recvs = ops.iter().filter_map(|op| match op {
            GroupOp::Recv { addr, src, tag, .. } => Some((*src, *tag, *addr)),
            _ => None,
        });
        for ((src, tag, addr), &rkey) in recvs.zip(&recv_keys) {
            per_src.entry(src).or_default().push((tag, addr, rkey));
        }
        for (src, entries) in per_src {
            let n = entries.len() as u64;
            self.post_ctrl(
                self.cluster.host_ep(src),
                OffloadConfig::CTRL_BYTES + OffloadConfig::ENTRY_BYTES * n,
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
        let mut needed: BTreeMap<usize, usize> = BTreeMap::new();
        for op in &ops {
            if let GroupOp::Send { dst, .. } = op {
                *needed.entry(*dst).or_insert(0) += 1;
            }
        }
        let mut metas: BTreeMap<usize, (usize, VecDeque<MetaEntry>)> = BTreeMap::new();
        for (&dst, &cnt) in &needed {
            let (dst_req_id, entries) = self
                .block_until(|st| st.metas_from.get_mut(&dst)?.pop_front())
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
        for (op, &(mkey, src_rkey)) in ops.iter().zip(&send_keys) {
            match op {
                GroupOp::Send {
                    addr,
                    len,
                    dst,
                    tag,
                } => {
                    #[expect(
                        clippy::expect_used,
                        reason = "metadata was gathered above from every destination of a send"
                    )]
                    let (dst_req_id, entries) = metas.get_mut(dst).expect("meta gathered");
                    #[expect(
                        clippy::panic,
                        reason = "a peer that grants no receive for a send's tag broke the group contract; there is nothing to recover"
                    )]
                    let pos = entries
                        .iter()
                        .position(|(t, _, _)| t == tag)
                        .unwrap_or_else(|| panic!("no matching recv at {dst} for tag {tag}"));
                    #[expect(clippy::expect_used, reason = "`pos` was just found in `entries`")]
                    let (_, dst_addr, dst_rkey) = entries.remove(pos).expect("present");
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
        self.st.borrow_mut().group(req).wire = Some(wire);
    }

    pub(super) fn send_group_packet(&self, req: GroupRequest, gen: u64) {
        let wire = self.st.borrow_mut().group(req).wire.clone();
        #[expect(
            clippy::expect_used,
            reason = "a group packet is sent only after build_wire stored the wire"
        )]
        let entries = wire.expect("wire built");
        let n = entries.len() as u64;
        self.post_ctrl(
            self.proxy_ep,
            OffloadConfig::CTRL_BYTES + OffloadConfig::ENTRY_BYTES * n,
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
        static GROUP_PACKETS: StatKey = StatKey::new("offload.group.packets");
        self.ctx.stat_incr(&HOST_DPU, 1);
        self.ctx.stat_incr(&GROUP_PACKETS, 1);
    }

    fn send_group_exec(&self, req: GroupRequest, gen: u64) {
        self.post_ctrl(
            self.proxy_ep,
            OffloadConfig::CTRL_BYTES,
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
        static GROUP_EXECS: StatKey = StatKey::new("offload.group.execs");
        self.ctx.stat_incr(&HOST_DPU, 1);
        self.ctx.stat_incr(&GROUP_EXECS, 1);
    }

    /// Generation `gen` of group `req_id` finished on the DPU.
    pub(super) fn on_group_fin(&self, req_id: usize, gen: u64) {
        let ids: Vec<u64> = {
            let mut st = self.st.borrow_mut();
            let g = st.group(GroupRequest(req_id));
            let first_fin = g.fin_gen == 0 && gen > 0;
            let was = g.in_flight();
            // `max` keeps duplicate group FINs idempotent.
            g.fin_gen = g.fin_gen.max(gen);
            let landed = was && !g.in_flight();
            // Group wire entries share the msg-id namespace with
            // basic requests but never enter the proxies' FIN
            // journals; fold them into the ack horizon on the
            // first completion so it can advance past them.
            let ids = if first_fin && self.cfg.journal_cap > 0 {
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
            };
            st.groups_in_flight -= usize::from(landed);
            ids
        };
        for id in ids {
            self.note_settled(id);
        }
    }

    /// Fail the in-flight generation of a group request; false, changing
    /// nothing, when it already settled or `gen` is an older generation.
    pub(super) fn fail_group(&self, req_id: usize, gen: u64) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma::{ClusterBuilder, ClusterSpec, Inbox};

    /// The count of groups in flight that `handle` reads equals the
    /// scan it replaced, through overlapping calls, waits, a generation
    /// failed by its deadline and the late FIN of that generation.
    #[test]
    fn groups_in_flight_equals_the_scan() {
        fn in_flight(off: &Offload) -> usize {
            let st = off.st.borrow();
            let scan = st.groups.iter().filter(|g| g.in_flight()).count();
            assert_eq!(st.groups_in_flight, scan);
            scan
        }
        let cfg = OffloadConfig::proposed();
        let proxy_cfg = cfg.clone();
        ClusterBuilder::new(ClusterSpec::new(2, 1), 7)
            .run_async(
                async move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(rank, ctx, cluster, &inbox, cfg.clone());
                    let fab = off.cluster().fabric().clone();
                    let ep = off.cluster().host_ep(rank);
                    let peer = 1 - rank;
                    let groups: Vec<GroupRequest> = (0..2)
                        .map(|tag| {
                            let (sbuf, rbuf) = (fab.alloc(ep, 64), fab.alloc(ep, 64));
                            let g = off.group_start();
                            off.group_send(g, sbuf, 64, peer, tag);
                            off.group_recv(g, rbuf, 64, peer, tag);
                            off.group_end(g);
                            g
                        })
                        .collect();
                    assert_eq!(in_flight(&off), 0);
                    for round in 0..2 {
                        off.group_call(groups[0]).await;
                        assert_eq!(in_flight(&off), 1);
                        off.group_call(groups[1]).await;
                        assert_eq!(in_flight(&off), 2);
                        off.group_wait(groups[1]).await.expect("second group");
                        assert!(in_flight(&off) <= 1, "round {round}");
                        off.group_wait(groups[0]).await.expect("first group");
                        assert_eq!(in_flight(&off), 0);
                    }
                    // A deadline that expires first fails the generation;
                    // it stays in flight until its FIN lands, which may
                    // come after this rank's shutdown.
                    off.group_call(groups[0]).await;
                    let late = off
                        .group_wait_timeout(groups[0], SimDelta::from_ps(1))
                        .await;
                    assert!(late.is_err(), "a 1 ps deadline expires first");
                    assert_eq!(in_flight(&off), 1);
                    off.finalize().await;
                    assert!(in_flight(&off) <= 1);
                },
                Some(crate::proxy_fn(proxy_cfg)),
            )
            .expect("clean run");
    }
}
