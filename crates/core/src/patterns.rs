//! Reusable communication-pattern builders over the Group primitives.
//!
//! The paper implements MPI non-blocking collectives with Group primitives
//! (§VIII: *"We used Group Primitives to implement non-blocking
//! collectives"*). These builders record the standard algorithms once per
//! `(buffers, membership)` so repeated calls hit the metadata caches. The
//! `baselines` (BluesMPI) and `workloads` crates build on them.

use rdma::VAddr;

use crate::host::{GroupRequest, Offload};

impl Offload {
    /// Record a scatter-destination personalized all-to-all:
    /// `buf` layouts are `size()` blocks of `block` bytes; block `d` of
    /// `sendbuf` goes to rank `d`, block `s` of `recvbuf` receives from
    /// rank `s`. The caller's own block is *not* copied (offload moves
    /// remote data only; copy it locally if needed).
    pub fn record_alltoall(&self, sendbuf: VAddr, recvbuf: VAddr, block: u64) -> GroupRequest {
        let p = self.size();
        let me = self.rank();
        let g = self.group_start();
        for k in 1..p {
            let dst = (me + k) % p;
            let src = (me + p - k) % p;
            self.group_send(
                g,
                sendbuf.offset(dst as u64 * block),
                block,
                dst,
                dst as u64,
            );
            self.group_recv(g, recvbuf.offset(src as u64 * block), block, src, me as u64);
        }
        self.group_end(g);
        g
    }

    /// Record a binomial-tree broadcast of `[addr, addr+len)` over the
    /// ranks in `members` (all of which must record the matching pattern),
    /// rooted at `members[root_pos]`. Non-roots receive, then forward to
    /// their subtree after a `Local_barrier`.
    pub fn record_bcast_binomial(
        &self,
        members: &[usize],
        root_pos: usize,
        addr: VAddr,
        len: u64,
        tag: u64,
    ) -> GroupRequest {
        let p = members.len();
        let me_pos = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller must be a member");
        let vrank = (me_pos + p - root_pos) % p;
        let real = |v: usize| members[(v + root_pos) % p];
        let g = self.group_start();
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                self.group_recv(g, addr, len, real(vrank - mask), tag);
                self.group_barrier(g);
                break;
            }
            mask <<= 1;
        }
        let mut m = if vrank == 0 {
            p.next_power_of_two() >> 1
        } else {
            mask >> 1
        };
        while m > 0 {
            if vrank + m < p {
                self.group_send(g, addr, len, real(vrank + m), tag);
            }
            m >>= 1;
        }
        self.group_end(g);
        g
    }

    /// Record a ring broadcast (paper Listing 5) over `members`, rooted at
    /// `members[root_pos]`: receive from the left, barrier, forward right.
    pub fn record_bcast_ring(
        &self,
        members: &[usize],
        root_pos: usize,
        addr: VAddr,
        len: u64,
        tag: u64,
    ) -> GroupRequest {
        let p = members.len();
        let me_pos = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller must be a member");
        let root = members[root_pos];
        let left = members[(me_pos + p - 1) % p];
        let right = members[(me_pos + 1) % p];
        let g = self.group_start();
        if self.rank() == root {
            if p > 1 {
                self.group_send(g, addr, len, right, tag);
            }
        } else {
            self.group_recv(g, addr, len, left, tag);
            self.group_barrier(g);
            if right != root {
                self.group_send(g, addr, len, right, tag);
            }
        }
        self.group_end(g);
        g
    }

    /// Record a ring all-gather: `buf` holds `size()` blocks of `block`
    /// bytes, own block pre-filled at `rank·block`; `size()-1`
    /// barrier-ordered steps circulate the blocks.
    pub fn record_allgather_ring(&self, buf: VAddr, block: u64) -> GroupRequest {
        let p = self.size();
        let me = self.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let g = self.group_start();
        for k in 0..p.saturating_sub(1) {
            let send_block = (me + p - k) % p;
            let recv_block = (me + p - k - 1) % p;
            self.group_send(
                g,
                buf.offset(send_block as u64 * block),
                block,
                right,
                k as u64,
            );
            self.group_recv(
                g,
                buf.offset(recv_block as u64 * block),
                block,
                left,
                k as u64,
            );
            self.group_barrier(g);
        }
        self.group_end(g);
        g
    }
}

#[cfg(test)]
mod tests {
    // The builders are exercised end-to-end by the crate's integration
    // tests (`tests/group_primitives.rs`) and by the baselines/workloads
    // crates; here we only check recording-side invariants.
    use crate::{Offload, OffloadConfig};
    use rdma::{ClusterBuilder, ClusterSpec, Inbox};
    use std::ops::AsyncFn;

    fn on_pair(f: impl AsyncFn(&Offload) + Send + Sync + 'static) {
        ClusterBuilder::new(ClusterSpec::new(2, 1), 1)
            .run_async(
                async move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(rank, ctx, cluster, &inbox, OffloadConfig::proposed());
                    f(&off).await;
                    off.finalize().await;
                },
                Some(crate::proxy_fn(OffloadConfig::proposed())),
            )
            .unwrap();
    }

    #[test]
    fn alltoall_pattern_executes_and_caches() {
        on_pair(async |off| {
            let fab = off.cluster().fabric().clone();
            let ep = off.cluster().host_ep(off.rank());
            let p = off.size() as u64;
            let sendbuf = fab.alloc(ep, 1024 * p);
            let recvbuf = fab.alloc(ep, 1024 * p);
            let g = off.record_alltoall(sendbuf, recvbuf, 1024);
            for _ in 0..3 {
                off.group_call(g).await;
                off.group_wait(g).await.expect("group offload failed");
            }
        });
    }

    #[test]
    fn bcast_builders_deliver() {
        on_pair(async |off| {
            let fab = off.cluster().fabric().clone();
            let ep = off.cluster().host_ep(off.rank());
            let buf = fab.alloc(ep, 2048);
            if off.rank() == 0 {
                fab.fill_pattern(ep, buf, 2048, 5).unwrap();
            }
            let members: Vec<usize> = (0..off.size()).collect();
            let g = off.record_bcast_binomial(&members, 0, buf, 2048, 0);
            off.group_call(g).await;
            off.group_wait(g).await.expect("group offload failed");
            assert!(fab.verify_pattern(ep, buf, 2048, 5).unwrap());
            // Ring variant with a different buffer region.
            let buf2 = fab.alloc(ep, 512);
            if off.rank() == 0 {
                fab.fill_pattern(ep, buf2, 512, 9).unwrap();
            }
            let g2 = off.record_bcast_ring(&members, 0, buf2, 512, 1);
            off.group_call(g2).await;
            off.group_wait(g2).await.expect("group offload failed");
            assert!(fab.verify_pattern(ep, buf2, 512, 9).unwrap());
        });
    }

    #[test]
    fn allgather_ring_circulates_blocks() {
        ClusterBuilder::new(ClusterSpec::new(2, 2), 1)
            .run_async(
                async |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(
                        rank,
                        ctx,
                        cluster.clone(),
                        &inbox,
                        OffloadConfig::proposed(),
                    );
                    let fab = cluster.fabric().clone();
                    let ep = cluster.host_ep(rank);
                    let p = cluster.world_size() as u64;
                    let buf = fab.alloc(ep, 4096 * p);
                    fab.fill_pattern(ep, buf.offset(rank as u64 * 4096), 4096, rank as u64 + 40)
                        .unwrap();
                    let g = off.record_allgather_ring(buf, 4096);
                    off.group_call(g).await;
                    off.group_wait(g).await.expect("group offload failed");
                    for s in 0..p {
                        assert!(fab
                            .verify_pattern(ep, buf.offset(s * 4096), 4096, s + 40)
                            .unwrap());
                    }
                    off.finalize().await;
                },
                Some(crate::proxy_fn(OffloadConfig::proposed())),
            )
            .unwrap();
    }
}
