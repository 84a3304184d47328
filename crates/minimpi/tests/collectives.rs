//! Collective correctness across odd/even sizes and multi-node layouts.

use minimpi::Mpi;
use rdma::{ClusterBuilder, ClusterSpec, NO_PROXIES};
use simnet::SimDelta;

fn run_world(nodes: usize, ppn: usize, f: impl AsyncFn(&Mpi) + Send + Sync + 'static) {
    let spec = ClusterSpec::new(nodes, ppn);
    ClusterBuilder::new(spec, 99)
        .run_async(
            async move |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx, cluster);
                f(&mpi).await;
            },
            NO_PROXIES,
        )
        .unwrap();
}

#[test]
fn barrier_synchronizes() {
    run_world(2, 3, async |mpi| {
        // Rank 0 is late; everyone must leave the barrier after it arrives.
        if mpi.rank() == 0 {
            mpi.ctx().compute_async(simnet::SimDelta::from_ms(1)).await;
        }
        let t0 = mpi.ctx().now();
        mpi.barrier().await;
        assert!(mpi.ctx().now() >= t0, "barrier exit after entry");
        assert!(
            mpi.ctx().now().as_us_f64() >= 1_000.0,
            "nobody exits before the last rank arrives"
        );
    });
}

/// How [`check_bcast`] broadcasts.
#[derive(Clone, Copy)]
enum BcastKind {
    Binomial,
    Ring,
    /// A binomial `ibcast` polled with `test` between compute slices
    /// (the paper's Listing 1 pattern).
    PolledIbcast,
}

fn check_bcast(nodes: usize, ppn: usize, len: u64, how: BcastKind) {
    let spec = ClusterSpec::new(nodes, ppn);
    ClusterBuilder::new(spec, 5)
        .run_async(
            async move |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx, cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let buf = fab.alloc(ep, len);
                let root = 1 % mpi.size();
                if rank == root {
                    fab.fill_pattern(ep, buf, len, 77).unwrap();
                }
                match how {
                    BcastKind::Binomial => mpi.bcast(root, buf, len).await,
                    BcastKind::Ring => mpi.ring_bcast(root, buf, len).await,
                    BcastKind::PolledIbcast => {
                        let r = mpi.ibcast(root, buf, len);
                        while !mpi.test(r) {
                            mpi.ctx().compute_async(SimDelta::from_us(5)).await;
                        }
                    }
                }
                assert!(
                    fab.verify_pattern(ep, buf, len, 77).unwrap(),
                    "rank {rank} has the broadcast data"
                );
            },
            NO_PROXIES,
        )
        .unwrap();
}

#[test]
fn binomial_bcast_small() {
    check_bcast(2, 2, 512, BcastKind::Binomial);
}

#[test]
fn binomial_bcast_large_odd_world() {
    check_bcast(3, 3, 128 * 1024, BcastKind::Binomial);
}

#[test]
fn ring_bcast_delivers_everywhere() {
    check_bcast(2, 3, 64 * 1024, BcastKind::Ring);
}

#[test]
fn polled_ibcast_delivers_everywhere() {
    check_bcast(2, 2, 16 * 1024, BcastKind::PolledIbcast);
}

#[test]
fn alltoall_exchanges_all_blocks() {
    run_world(2, 3, async |mpi| {
        let p = mpi.size();
        let me = mpi.rank();
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(me);
        let block = 2048u64;
        let sendbuf = fab.alloc(ep, block * p as u64);
        let recvbuf = fab.alloc(ep, block * p as u64);
        // Block for rank d carries pattern seed me*1000 + d.
        for d in 0..p {
            fab.fill_pattern(
                ep,
                sendbuf.offset(d as u64 * block),
                block,
                (me * 1000 + d) as u64,
            )
            .unwrap();
        }
        mpi.alltoall(sendbuf, recvbuf, block).await;
        for s in 0..p {
            assert!(
                fab.verify_pattern(
                    ep,
                    recvbuf.offset(s as u64 * block),
                    block,
                    (s * 1000 + me) as u64
                )
                .unwrap(),
                "rank {me} received block from {s}"
            );
        }
    });
}

#[test]
fn alltoall_rendezvous_blocks() {
    // Above the eager threshold, so the rendezvous path carries blocks.
    run_world(2, 2, async |mpi| {
        let p = mpi.size();
        let me = mpi.rank();
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(me);
        let block = 64 * 1024u64;
        let sendbuf = fab.alloc(ep, block * p as u64);
        let recvbuf = fab.alloc(ep, block * p as u64);
        for d in 0..p {
            fab.fill_pattern(
                ep,
                sendbuf.offset(d as u64 * block),
                block,
                (me * 31 + d) as u64,
            )
            .unwrap();
        }
        mpi.alltoall(sendbuf, recvbuf, block).await;
        for s in 0..p {
            assert!(fab
                .verify_pattern(
                    ep,
                    recvbuf.offset(s as u64 * block),
                    block,
                    (s * 31 + me) as u64
                )
                .unwrap());
        }
    });
}

#[test]
fn allgather_collects_all_blocks() {
    run_world(3, 2, async |mpi| {
        let p = mpi.size();
        let me = mpi.rank();
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(me);
        let block = 4096u64;
        let buf = fab.alloc(ep, block * p as u64);
        fab.fill_pattern(ep, buf.offset(me as u64 * block), block, me as u64 + 500)
            .unwrap();
        mpi.allgather(buf, block).await;
        for s in 0..p {
            assert!(
                fab.verify_pattern(ep, buf.offset(s as u64 * block), block, s as u64 + 500)
                    .unwrap(),
                "rank {me} has block of {s}"
            );
        }
    });
}

#[test]
fn ialltoall_overlaps_with_compute() {
    run_world(2, 2, async |mpi| {
        let p = mpi.size();
        let me = mpi.rank();
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(me);
        let block = 1024u64;
        let sendbuf = fab.alloc(ep, block * p as u64);
        let recvbuf = fab.alloc(ep, block * p as u64);
        for d in 0..p {
            fab.fill_pattern(
                ep,
                sendbuf.offset(d as u64 * block),
                block,
                (me * 7 + d) as u64,
            )
            .unwrap();
        }
        let req = mpi.ialltoall(sendbuf, recvbuf, block);
        mpi.compute_with_test(
            simnet::SimDelta::from_us(200),
            simnet::SimDelta::from_us(10),
            req,
        )
        .await;
        mpi.wait(req).await;
        for s in 0..p {
            assert!(fab
                .verify_pattern(
                    ep,
                    recvbuf.offset(s as u64 * block),
                    block,
                    (s * 7 + me) as u64
                )
                .unwrap());
        }
    });
}

#[test]
fn allreduce_scalars() {
    run_world(2, 3, async |mpi| {
        let me = mpi.rank() as f64;
        let p = mpi.size() as f64;
        let max = mpi.allreduce_max_f64(me * 2.0).await;
        assert_eq!(max, (p - 1.0) * 2.0);
        let sum = mpi.allreduce_sum_f64(1.5).await;
        assert!((sum - 1.5 * p).abs() < 1e-9);
    });
}

#[test]
fn successive_collectives_do_not_cross_talk() {
    run_world(2, 2, async |mpi| {
        let me = mpi.rank();
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(me);
        let buf = fab.alloc(ep, 256);
        for round in 0..10u64 {
            if me == 0 {
                fab.fill_pattern(ep, buf, 256, round).unwrap();
            }
            mpi.bcast(0, buf, 256).await;
            assert!(
                fab.verify_pattern(ep, buf, 256, round).unwrap(),
                "round {round}"
            );
        }
    });
}

#[test]
fn single_rank_world_collectives_are_noops() {
    run_world(1, 1, async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(0);
        let buf = fab.alloc(ep, 64);
        fab.fill_pattern(ep, buf, 64, 4).unwrap();
        mpi.barrier().await;
        mpi.bcast(0, buf, 64).await;
        let r = fab.alloc(ep, 64);
        mpi.alltoall(buf, r, 64).await;
        assert!(fab.verify_pattern(ep, r, 64, 4).unwrap());
        assert_eq!(mpi.allreduce_max_f64(3.25).await, 3.25);
    });
}

#[test]
fn subset_bcast_binomial_and_ring() {
    // Row-scoped broadcasts (as HPL uses): two disjoint rows broadcast
    // concurrently without cross-talk.
    run_world(2, 2, async |mpi| {
        let me = mpi.rank();
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(me);
        let row: Vec<usize> = if me < 2 { vec![0, 1] } else { vec![2, 3] };
        let row_id = (me / 2) as u64;
        let buf = fab.alloc(ep, 8192);
        if me % 2 == 0 {
            fab.fill_pattern(ep, buf, 8192, 700 + row_id).unwrap();
        }
        let r = mpi.ibcast_among(&row, 0, buf, 8192);
        mpi.wait(r).await;
        assert!(fab.verify_pattern(ep, buf, 8192, 700 + row_id).unwrap());
        // Ring variant, rooted at position 1 this time.
        let buf2 = fab.alloc(ep, 4096);
        if me % 2 == 1 {
            fab.fill_pattern(ep, buf2, 4096, 800 + row_id).unwrap();
        }
        let r = mpi.iring_bcast_among(&row, 1, buf2, 4096);
        mpi.wait(r).await;
        assert!(fab.verify_pattern(ep, buf2, 4096, 800 + row_id).unwrap());
    });
}

#[test]
fn subset_bcast_single_member_is_noop() {
    run_world(2, 1, async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let buf = fab.alloc(ep, 64);
        fab.fill_pattern(ep, buf, 64, mpi.rank() as u64).unwrap();
        let members = [mpi.rank()];
        let r = mpi.ibcast_among(&members, 0, buf, 64);
        mpi.wait(r).await;
        let r = mpi.iring_bcast_among(&members, 0, buf, 64);
        mpi.wait(r).await;
        assert!(fab.verify_pattern(ep, buf, 64, mpi.rank() as u64).unwrap());
    });
}

#[test]
fn uneven_subset_usage_does_not_desync_world_collectives() {
    // Regression: with a single global collective-sequence counter, ranks
    // that ran different numbers of sub-communicator broadcasts would
    // disagree on the next world tag and deadlock. Sequences are now
    // per-communicator.
    run_world(2, 2, async |mpi| {
        let me = mpi.rank();
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(me);
        let buf = fab.alloc(ep, 1024);
        // Row 0 performs THREE subset broadcasts; row 1 performs ONE.
        let row: Vec<usize> = if me < 2 { vec![0, 1] } else { vec![2, 3] };
        let rounds = if me < 2 { 3 } else { 1 };
        for r in 0..rounds {
            if me % 2 == 0 {
                fab.fill_pattern(ep, buf, 1024, 50 + r).unwrap();
            }
            let req = mpi.ibcast_among(&row, 0, buf, 1024);
            mpi.wait(req).await;
        }
        // A world collective must still match across all ranks.
        if me == 0 {
            fab.fill_pattern(ep, buf, 1024, 999).unwrap();
        }
        mpi.bcast(0, buf, 1024).await;
        assert!(fab.verify_pattern(ep, buf, 1024, 999).unwrap());
        mpi.barrier().await;
    });
}
