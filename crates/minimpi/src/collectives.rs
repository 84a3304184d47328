//! Blocking and non-blocking collectives over the p2p engine.
//!
//! The non-blocking collectives are *schedules* progressed by the engine —
//! exactly how production host-based MPIs implement NBC. They therefore
//! inherit the host-progress limitation: a dependent stage (e.g. the
//! forward step of a tree broadcast) only fires while the application is
//! inside an MPI call.

use rdma::VAddr;

use crate::engine::{Mpi, NbcOp, Req};

/// Internal tag namespace for collectives: bit 63 set, then a
/// communicator discriminator (hash of the member set), the collective
/// sequence number, and the step index.
fn coll_tag(comm: u64, seq: u64, step: u64) -> u64 {
    (1 << 63) | ((comm & 0x7FFF) << 48) | ((seq & 0xFFFF_FFFF) << 16) | (step & 0xFFFF)
}

impl Mpi {
    /// Blocking barrier (dissemination algorithm, zero-byte eager messages).
    pub async fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = self.rank();
        let comm = self.world_hash();
        let seq = self.next_coll_seq(comm);
        let scratch = self.scratch0();
        let mut step = 0u64;
        let mut dist = 1usize;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist) % p;
            let tag = coll_tag(comm, seq, step);
            let s = self.isend(scratch, 0, to, tag);
            let r = self.irecv(scratch, 0, from, tag);
            self.wait(s).await;
            self.wait(r).await;
            dist <<= 1;
            step += 1;
        }
    }

    /// Blocking binomial-tree broadcast of `[addr, addr+len)` from `root`.
    pub async fn bcast(&self, root: usize, addr: VAddr, len: u64) {
        let r = self.ibcast(root, addr, len);
        self.wait(r).await;
    }

    /// Non-blocking binomial broadcast; progressed by `test`/`wait`.
    pub fn ibcast(&self, root: usize, addr: VAddr, len: u64) -> Req {
        let members: Vec<usize> = (0..self.size()).collect();
        self.ibcast_among(&members, root, addr, len)
    }

    /// Non-blocking binomial broadcast over an arbitrary subset of ranks
    /// (a sub-communicator, e.g. an HPL process row). `root_pos` indexes
    /// into `members`; the caller must appear in `members` and every
    /// member must make the matching call.
    pub fn ibcast_among(&self, members: &[usize], root_pos: usize, addr: VAddr, len: u64) -> Req {
        let p = members.len();
        let me_pos = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller must be a member");
        let comm = Self::members_hash(members);
        let seq = self.next_coll_seq(comm);
        let tag = coll_tag(comm, seq, 0);
        let vrank = (me_pos + p - root_pos) % p;
        let real = |v: usize| members[(v + root_pos) % p];
        let mut stages: Vec<Vec<NbcOp>> = Vec::new();
        // Receive phase: find the bit that links us to our parent.
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                stages.push(vec![NbcOp::Recv {
                    addr,
                    len,
                    src: real(vrank - mask),
                    tag,
                }]);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children under our mask.
        let mut sends = Vec::new();
        let mut m = mask >> 1;
        if vrank == 0 {
            // Root never entered the recv branch; its mask overshot.
            m = p.next_power_of_two() >> 1;
        }
        while m > 0 {
            if vrank + m < p {
                sends.push(NbcOp::Send {
                    addr,
                    len,
                    dst: real(vrank + m),
                    tag,
                });
            }
            m >>= 1;
        }
        if !sends.is_empty() {
            stages.push(sends);
        }
        self.start_nbc(stages)
    }

    /// Blocking ring broadcast (the HPL "1ring" algorithm): root sends to
    /// its right neighbour; every other rank receives from the left, then
    /// forwards right. Dependent steps, so host progress serializes it.
    pub async fn ring_bcast(&self, root: usize, addr: VAddr, len: u64) {
        let r = self.iring_bcast(root, addr, len);
        self.wait(r).await;
    }

    /// Non-blocking ring broadcast schedule (receive stage, then forward
    /// stage) — used to show the CPU-intervention cost of dependent steps.
    pub fn iring_bcast(&self, root: usize, addr: VAddr, len: u64) -> Req {
        let members: Vec<usize> = (0..self.size()).collect();
        self.iring_bcast_among(&members, root, addr, len)
    }

    /// Non-blocking ring broadcast over an arbitrary subset of ranks (see
    /// [`Self::ibcast_among`] for the membership rules).
    pub fn iring_bcast_among(
        &self,
        members: &[usize],
        root_pos: usize,
        addr: VAddr,
        len: u64,
    ) -> Req {
        let p = members.len();
        let me_pos = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller must be a member");
        let comm = Self::members_hash(members);
        let seq = self.next_coll_seq(comm);
        let tag = coll_tag(comm, seq, 0);
        let right = members[(me_pos + 1) % p];
        let left = members[(me_pos + p - 1) % p];
        let root = members[root_pos];
        let me = self.rank();
        let mut stages: Vec<Vec<NbcOp>> = Vec::new();
        if me == root {
            if p > 1 {
                stages.push(vec![NbcOp::Send {
                    addr,
                    len,
                    dst: right,
                    tag,
                }]);
            }
        } else {
            stages.push(vec![NbcOp::Recv {
                addr,
                len,
                src: left,
                tag,
            }]);
            if right != root {
                stages.push(vec![NbcOp::Send {
                    addr,
                    len,
                    dst: right,
                    tag,
                }]);
            }
        }
        self.start_nbc(stages)
    }

    /// Blocking personalized all-to-all. `sendbuf`/`recvbuf` hold
    /// `size()` contiguous blocks of `block_len` bytes.
    pub async fn alltoall(&self, sendbuf: VAddr, recvbuf: VAddr, block_len: u64) {
        let r = self.ialltoall(sendbuf, recvbuf, block_len);
        self.wait(r).await;
    }

    /// Non-blocking all-to-all, scatter-destination algorithm: every block
    /// is posted up-front (one stage), so progress depends only on how
    /// often the host re-enters MPI.
    pub fn ialltoall(&self, sendbuf: VAddr, recvbuf: VAddr, block_len: u64) -> Req {
        let p = self.size();
        let me = self.rank();
        let comm = self.world_hash();
        let seq = self.next_coll_seq(comm);
        let tag = coll_tag(comm, seq, 0);
        let mut ops = Vec::with_capacity(2 * p - 1);
        ops.push(NbcOp::Copy {
            from: sendbuf.offset(me as u64 * block_len),
            to: recvbuf.offset(me as u64 * block_len),
            len: block_len,
        });
        for k in 1..p {
            let dst = (me + k) % p;
            let src = (me + p - k) % p;
            ops.push(NbcOp::Send {
                addr: sendbuf.offset(dst as u64 * block_len),
                len: block_len,
                dst,
                tag,
            });
            ops.push(NbcOp::Recv {
                addr: recvbuf.offset(src as u64 * block_len),
                len: block_len,
                src,
                tag,
            });
        }
        self.start_nbc(vec![ops])
    }

    /// Blocking ring all-gather: `buf` holds `size()` blocks of
    /// `block_len`; each rank contributes the block at its own index.
    pub async fn allgather(&self, buf: VAddr, block_len: u64) {
        let r = self.iallgather(buf, block_len);
        self.wait(r).await;
    }

    /// Non-blocking ring all-gather: `size()-1` dependent stages.
    pub fn iallgather(&self, buf: VAddr, block_len: u64) -> Req {
        let p = self.size();
        let me = self.rank();
        let comm = self.world_hash();
        let seq = self.next_coll_seq(comm);
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let mut stages = Vec::with_capacity(p - 1);
        for k in 0..p.saturating_sub(1) {
            let send_block = (me + p - k) % p;
            let recv_block = (me + p - k - 1) % p;
            let tag = coll_tag(comm, seq, k as u64);
            stages.push(vec![
                NbcOp::Send {
                    addr: buf.offset(send_block as u64 * block_len),
                    len: block_len,
                    dst: right,
                    tag,
                },
                NbcOp::Recv {
                    addr: buf.offset(recv_block as u64 * block_len),
                    len: block_len,
                    src: left,
                    tag,
                },
            ]);
        }
        self.start_nbc(stages)
    }

    /// All-reduce a single `f64` with max (binomial reduce + broadcast).
    /// Used by benchmark harnesses to agree on per-iteration times.
    pub async fn allreduce_max_f64(&self, value: f64) -> f64 {
        self.allreduce_f64(value, f64::max).await
    }

    /// All-reduce a single `f64` with sum.
    pub async fn allreduce_sum_f64(&self, value: f64) -> f64 {
        self.allreduce_f64(value, |a, b| a + b).await
    }

    async fn allreduce_f64(&self, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let p = self.size();
        if p == 1 {
            return value;
        }
        let me = self.rank();
        let comm = self.world_hash();
        let seq = self.next_coll_seq(comm);
        let tag = coll_tag(comm, seq, 0);
        let fab = self.cluster().fabric().clone();
        let ep = self.cluster().host_ep(me);
        let buf = fab.alloc(ep, 8);
        let tmp = fab.alloc(ep, 8);
        fab.write_bytes(ep, buf, &value.to_le_bytes())
            .expect("scratch");
        let mut acc = value;
        // Reduce to rank 0.
        let mut mask = 1usize;
        while mask < p {
            if me & mask != 0 {
                fab.write_bytes(ep, buf, &acc.to_le_bytes())
                    .expect("scratch");
                self.send(buf, 8, me - mask, tag).await;
                break;
            }
            let peer = me | mask;
            if peer < p {
                self.recv(tmp, 8, peer, tag).await;
                let bytes = fab.read_bytes(ep, tmp, 8).expect("scratch");
                acc = op(acc, f64::from_le_bytes(bytes.try_into().expect("8 bytes")));
            }
            mask <<= 1;
        }
        // Broadcast the result.
        fab.write_bytes(ep, buf, &acc.to_le_bytes())
            .expect("scratch");
        self.bcast(0, buf, 8).await;
        let bytes = fab.read_bytes(ep, buf, 8).expect("scratch");
        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }

    /// Lazily allocated zero-length scratch buffer for zero-byte messages.
    fn scratch0(&self) -> VAddr {
        if let Some(addr) = self.scratch0.get() {
            return addr;
        }
        let fab = self.cluster().fabric();
        let addr = fab.alloc(self.cluster().host_ep(self.rank()), 0);
        self.scratch0.set(Some(addr));
        addr
    }
}
