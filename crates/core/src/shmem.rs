//! An OpenSHMEM-style one-sided facade over the offload framework.
//!
//! The paper positions its framework as *programming-model agnostic*
//! (§I: it cites OpenSHMEM alongside MPI as a model whose semantics the
//! primitives must cover). This module makes that concrete: a symmetric
//! heap, one-sided `put`/`get` that the DPU proxy executes with zero
//! involvement from the target process, and `quiet` for completion.
//!
//! * `put` rides the Basic-primitive machinery as a *pre-matched pair* —
//!   the destination buffer and rkey are known from the symmetric-heap
//!   exchange, so no RTR is ever needed. Both data paths work.
//! * `get` is the cross-GVMI party trick: the proxy cross-registers the
//!   *origin's* buffer (mkey → mkey2) and RDMA-READs the remote symmetric
//!   memory straight into it (GVMI path only).
//!
//! Startup performs one all-to-all exchange of `(heap base, rkey)` — the
//! same one-time cost class as the paper's GVMI-ID exchange.

use std::cell::RefCell;

use rdma::{Channel, ClusterCtx, EpId, Inbox, MrKey, NetMsg, VAddr};
use simnet::ProcessCtx;

use crate::config::{DataPath, OffloadConfig};
use crate::host::{Offload, OffloadReq};
use crate::messages::CtrlMsg;

/// An offset into the symmetric heap — the same value addresses the
/// corresponding bytes on every rank (like a pointer returned by
/// `shmem_malloc`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SymAddr(pub u64);

struct Peer {
    heap_base: VAddr,
    heap_rkey: MrKey,
}

struct ShmemState {
    peers: Vec<Option<Peer>>,
    next_alloc: u64,
    outstanding: Vec<OffloadReq>,
}

/// One rank's SHMEM-style endpoint. Wraps (and shares) an [`Offload`]
/// engine.
pub struct Shmem {
    off: Offload,
    ep: EpId,
    heap_base: VAddr,
    heap_len: u64,
    heap_mkey: MrKey,
    chan: Channel,
    st: RefCell<ShmemState>,
}

impl Shmem {
    /// Collective constructor: every rank must call it with the same
    /// `heap_len`. Allocates and registers the symmetric heap and
    /// exchanges `(base, rkey)` with every peer. The offload
    /// configuration must use the GVMI data path for `get` support.
    pub async fn init(
        rank: usize,
        ctx: ProcessCtx,
        cluster: ClusterCtx,
        inbox: &Inbox,
        cfg: OffloadConfig,
        heap_len: u64,
    ) -> Shmem {
        // Claim the hello messages before Offload's channel is registered,
        // so startup traffic does not race user traffic.
        let chan = inbox.channel(|m| {
            matches!(m, NetMsg::Packet(p) if matches!(p.body.downcast_ref::<CtrlMsg>(), Some(CtrlMsg::ShmemHello { .. })))
        });
        let off = Offload::init(rank, ctx, cluster, inbox, cfg.clone());
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(rank);
        let heap_base = fab.alloc(ep, heap_len);
        let heap_rkey = fab
            .reg_mr(off.ctx(), ep, heap_base, heap_len)
            .expect("symmetric heap registration");
        // Register the whole heap once against our proxy's GVMI so puts
        // and gets can be sliced out of it without further host-side
        // registrations.
        let gvmi = fab
            .gvmi_of(off.cluster().proxy_for_rank(rank))
            .expect("proxy has a GVMI");
        let heap_mkey = fab
            .reg_mr_gvmi(off.ctx(), ep, heap_base, heap_len, gvmi)
            .expect("symmetric heap GVMI registration");
        let p = off.size();
        for peer in 0..p {
            if peer == rank {
                continue;
            }
            fab.send_packet(
                off.ctx(),
                ep,
                off.cluster().host_ep(peer),
                OffloadConfig::CTRL_BYTES,
                Box::new(CtrlMsg::ShmemHello {
                    rank,
                    heap_base,
                    heap_rkey,
                }),
            )
            .expect("shmem hello");
        }
        let mut peers: Vec<Option<Peer>> = (0..p).map(|_| None).collect();
        peers[rank] = Some(Peer {
            heap_base,
            heap_rkey,
        });
        let mut missing = p - 1;
        while missing > 0 {
            let msg = chan.next(off.ctx()).await;
            let NetMsg::Packet(pkt) = msg else {
                unreachable!("hello channel only claims packets")
            };
            let Ok(body) = pkt.body.downcast::<CtrlMsg>() else {
                unreachable!("claimed by predicate")
            };
            let CtrlMsg::ShmemHello {
                rank: from,
                heap_base,
                heap_rkey,
            } = *body
            else {
                unreachable!("claimed by predicate")
            };
            peers[from] = Some(Peer {
                heap_base,
                heap_rkey,
            });
            missing -= 1;
        }
        Shmem {
            off,
            ep,
            heap_base,
            heap_len,
            heap_mkey,
            chan,
            st: RefCell::new(ShmemState {
                peers,
                next_alloc: 0,
                outstanding: Vec::new(),
            }),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.off.rank()
    }

    /// Number of processing elements.
    pub fn n_pes(&self) -> usize {
        self.off.size()
    }

    /// The wrapped offload engine (e.g. for `finalize`).
    pub fn offload(&self) -> &Offload {
        &self.off
    }

    /// Symmetric allocation: returns the same offset on every rank that
    /// performs the same allocation sequence (like `shmem_malloc`).
    pub fn sym_alloc(&self, len: u64) -> SymAddr {
        let mut st = self.st.borrow_mut();
        assert!(
            st.next_alloc + len <= self.heap_len,
            "symmetric heap exhausted ({} + {len} > {})",
            st.next_alloc,
            self.heap_len
        );
        let off = st.next_alloc;
        // Keep 64-byte alignment like real symmetric heaps.
        st.next_alloc += len.div_ceil(64) * 64;
        SymAddr(off)
    }

    /// Local virtual address of a symmetric offset on this rank (for
    /// filling/verifying through the fabric).
    pub fn local_addr(&self, sym: SymAddr) -> VAddr {
        self.heap_base.offset(sym.0)
    }

    /// Non-blocking one-sided put: copy `[src, src+len)` of *this* rank's
    /// heap into `[dst, dst+len)` of `pe`'s heap. The DPU proxy performs
    /// the transfer; `pe`'s CPU is never involved.
    pub fn put(&self, pe: usize, dst: SymAddr, src: SymAddr, len: u64) -> OffloadReq {
        assert!(pe < self.n_pes(), "put: bad PE {pe}");
        assert!(src.0 + len <= self.heap_len && dst.0 + len <= self.heap_len);
        let st = self.st.borrow();
        let peer = st.peers[pe].as_ref().expect("hello exchange completed");
        let (dst_addr, dst_rkey) = (peer.heap_base.offset(dst.0), peer.heap_rkey);
        drop(st);
        let (mkey, src_rkey) = match self.off.config().data_path {
            // When the plan can fail cross-GVMI registration, ship the IB
            // rkey too so the proxy can fall back to the staging path.
            DataPath::Gvmi if self.off.config().fault.fallback_enabled() => {
                (Some(self.heap_mkey), Some(self.heap_rkey()))
            }
            DataPath::Gvmi => (Some(self.heap_mkey), None),
            DataPath::Staging => (None, Some(self.heap_rkey())),
        };
        let req = self.off.one_sided(CtrlMsg::Put {
            src_rank: self.rank(),
            addr: self.heap_base.offset(src.0),
            len,
            mkey,
            src_rkey,
            dst_rank: pe,
            dst_addr,
            dst_rkey,
            src_req: usize::MAX, // patched by one_sided
            src_pid: self.off.ctx().pid(),
            msg_id: 0, // patched by one_sided
        });
        self.st.borrow_mut().outstanding.push(req);
        req
    }

    /// Non-blocking one-sided get: copy `[src, src+len)` of `pe`'s heap
    /// into `[dst, dst+len)` of this rank's heap (GVMI data path only).
    pub fn get(&self, pe: usize, dst: SymAddr, src: SymAddr, len: u64) -> OffloadReq {
        assert!(pe < self.n_pes(), "get: bad PE {pe}");
        assert!(src.0 + len <= self.heap_len && dst.0 + len <= self.heap_len);
        assert_eq!(
            self.off.config().data_path,
            DataPath::Gvmi,
            "one-sided get requires the GVMI data path"
        );
        let st = self.st.borrow();
        let peer = st.peers[pe].as_ref().expect("hello exchange completed");
        let (remote_addr, remote_rkey) = (peer.heap_base.offset(src.0), peer.heap_rkey);
        drop(st);
        let req = self.off.one_sided(CtrlMsg::Get {
            src_rank: self.rank(),
            local_addr: self.heap_base.offset(dst.0),
            len,
            local_mkey: self.heap_mkey,
            remote_rank: pe,
            remote_addr,
            remote_rkey,
            src_req: usize::MAX, // patched by one_sided
            src_pid: self.off.ctx().pid(),
            msg_id: 0, // patched by one_sided
        });
        self.st.borrow_mut().outstanding.push(req);
        req
    }

    /// Wait for one operation.
    pub async fn wait(&self, req: OffloadReq) {
        self.off.wait(req).await;
    }

    /// `shmem_quiet`: until every outstanding put/get issued by this rank
    /// has completed remotely.
    pub async fn quiet(&self) {
        let reqs = std::mem::take(&mut self.st.borrow_mut().outstanding);
        self.off.wait_all(&reqs).await;
    }

    /// Tear down (all operations must be complete).
    pub async fn finalize(&self) {
        self.quiet().await;
        self.off.finalize().await;
        // Keep the hello channel alive until the end (unused afterwards).
        let _ = &self.chan;
    }

    fn heap_rkey(&self) -> MrKey {
        self.st.borrow().peers[self.rank()]
            .as_ref()
            .expect("own entry")
            .heap_rkey
    }

    /// Keep the map of peers accessible for diagnostics.
    pub fn peer_heap_base(&self, pe: usize) -> VAddr {
        self.st.borrow().peers[pe]
            .as_ref()
            .expect("peer known")
            .heap_base
    }

    /// Unused-field silencer with documentation value: the endpoint is the
    /// rank's host endpoint.
    pub fn endpoint(&self) -> EpId {
        self.ep
    }
}

/// Data needed by `Shmem` from `Offload` internals.
impl Offload {
    /// Issue a one-sided control message (Put/Get) to the mapped proxy and
    /// return its completion handle. Used by [`Shmem`].
    pub(crate) fn one_sided(&self, mut msg: CtrlMsg) -> OffloadReq {
        let (req, id) = self.new_basic_req();
        let (peer, bytes) = match &mut msg {
            CtrlMsg::Put {
                src_req,
                msg_id,
                dst_rank,
                len,
                ..
            } => {
                *src_req = req.index();
                *msg_id = id;
                (*dst_rank, *len)
            }
            CtrlMsg::Get {
                src_req,
                msg_id,
                remote_rank,
                len,
                ..
            } => {
                *src_req = req.index();
                *msg_id = id;
                (*remote_rank, *len)
            }
            other => panic!("one_sided takes Put/Get, got {other:?}"),
        };
        self.ctx().emit(&crate::events::ProtoEvent::HostReqPosted {
            rank: self.rank(),
            msg_id: id,
            peer,
            tag: 0,
            bytes,
            dir: crate::events::ReqDir::OneSided,
        });
        self.send_ctrl_to_proxy(msg, req.index());
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma::{ClusterBuilder, ClusterSpec};
    use std::ops::AsyncFn;

    fn run_shmem(nodes: usize, ppn: usize, f: impl AsyncFn(&Shmem) + Send + Sync + 'static) {
        ClusterBuilder::new(ClusterSpec::new(nodes, ppn), 7)
            .run_async(
                async move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let cfg = OffloadConfig::proposed();
                    let shm = Shmem::init(rank, ctx, cluster, &inbox, cfg, 1 << 20).await;
                    f(&shm).await;
                    shm.finalize().await;
                },
                Some(crate::proxy_fn(OffloadConfig::proposed())),
            )
            .unwrap();
    }

    #[test]
    fn put_delivers_one_sided() {
        run_shmem(2, 1, async |shm| {
            let fab = shm.offload().cluster().fabric().clone();
            let a = shm.sym_alloc(4096);
            let b = shm.sym_alloc(4096);
            if shm.rank() == 0 {
                fab.fill_pattern(shm.endpoint(), shm.local_addr(a), 4096, 77)
                    .unwrap();
                shm.put(1, b, a, 4096);
                shm.quiet().await;
            } else {
                // The target does nothing at all: spin on the payload via
                // simulated time until the proxy wrote it.
                let mut spins = 0;
                while !fab
                    .verify_pattern(shm.endpoint(), shm.local_addr(b), 4096, 77)
                    .unwrap()
                {
                    shm.offload()
                        .ctx()
                        .compute_async(simnet::SimDelta::from_us(10))
                        .await;
                    spins += 1;
                    assert!(spins < 10_000, "put never landed");
                }
            }
        });
    }

    #[test]
    fn get_pulls_remote_heap() {
        run_shmem(2, 1, async |shm| {
            let fab = shm.offload().cluster().fabric().clone();
            let src = shm.sym_alloc(8192);
            let dst = shm.sym_alloc(8192);
            fab.fill_pattern(
                shm.endpoint(),
                shm.local_addr(src),
                8192,
                100 + shm.rank() as u64,
            )
            .unwrap();
            // Give both sides a moment so the data exists before the get.
            shm.offload()
                .ctx()
                .compute_async(simnet::SimDelta::from_us(50))
                .await;
            let peer = 1 - shm.rank();
            let r = shm.get(peer, dst, src, 8192);
            shm.wait(r).await;
            assert!(fab
                .verify_pattern(shm.endpoint(), shm.local_addr(dst), 8192, 100 + peer as u64)
                .unwrap());
        });
    }

    #[test]
    fn symmetric_alloc_is_consistent() {
        run_shmem(2, 2, async |shm| {
            let a = shm.sym_alloc(100);
            let b = shm.sym_alloc(100);
            assert_eq!(a, SymAddr(0));
            assert_eq!(b, SymAddr(128), "64-byte aligned");
            // The same offsets address the same relative bytes everywhere.
            assert_eq!(shm.local_addr(a).0 + 128, shm.local_addr(b).0);
        });
    }

    #[test]
    fn quiet_flushes_many_puts() {
        run_shmem(2, 2, async |shm| {
            let fab = shm.offload().cluster().fabric().clone();
            let slots: Vec<_> = (0..8).map(|_| shm.sym_alloc(1024)).collect();
            let me = shm.rank();
            let peer = (me + 1) % shm.n_pes();
            for (i, &s) in slots.iter().enumerate().take(4) {
                fab.fill_pattern(
                    shm.endpoint(),
                    shm.local_addr(s),
                    1024,
                    (me * 10 + i) as u64,
                )
                .unwrap();
                shm.put(peer, slots[4 + i], s, 1024);
            }
            shm.quiet().await;
            // Let the peer's puts land too before verifying.
            shm.offload()
                .ctx()
                .compute_async(simnet::SimDelta::from_ms(1))
                .await;
            let src = (me + shm.n_pes() - 1) % shm.n_pes();
            for i in 0..4usize {
                assert!(fab
                    .verify_pattern(
                        shm.endpoint(),
                        shm.local_addr(slots[4 + i]),
                        1024,
                        (src * 10 + i) as u64
                    )
                    .unwrap());
            }
        });
    }
}
