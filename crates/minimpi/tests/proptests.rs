//! Property-based soak tests for the MPI engine: random message schedules
//! with sizes straddling the eager/rendezvous boundary must always match
//! correctly and deliver intact payloads.

use minimpi::Mpi;
use proptest::prelude::*;
use rdma::{ClusterBuilder, ClusterSpec, NO_PROXIES};
use std::sync::Arc;

/// A randomly generated message: which pair exchanges it, its tag class
/// and its size (possibly eager, possibly rendezvous).
#[derive(Clone, Debug)]
struct Msg {
    src: usize,
    dst: usize,
    tag: u64,
    len: u64,
}

fn msgs_strategy(ranks: usize) -> impl Strategy<Value = Vec<Msg>> {
    prop::collection::vec(
        (
            0..ranks,
            0..ranks,
            0..3u64,
            prop_oneof![
                64u64..4096,        // eager
                12_000u64..20_000,  // straddles the 16 KiB threshold
                60_000u64..120_000, // rendezvous
            ],
        ),
        1..12,
    )
    .prop_map(|v| {
        v.into_iter()
            .filter(|(s, d, _, _)| s != d)
            .map(|(src, dst, tag, len)| Msg { src, dst, tag, len })
            .collect::<Vec<Msg>>()
    })
    .prop_filter("at least one message", |v| !v.is_empty())
}

fn run_schedule(msgs: Vec<Msg>, ranks: usize) {
    let msgs = Arc::new(msgs);
    let spec = ClusterSpec::new(2, ranks.div_ceil(2));
    ClusterBuilder::new(spec, 2024)
        .run_async(
            async move |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx, cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let mut reqs = Vec::new();
                let mut recvs = Vec::new();
                // Post everything non-blocking, interleaved: sends in schedule
                // order, receives in schedule order (per-pair-and-tag streams
                // must not overtake).
                for (i, m) in msgs.iter().enumerate() {
                    if m.src == rank {
                        let buf = fab.alloc(ep, m.len);
                        fab.fill_pattern(ep, buf, m.len, i as u64).unwrap();
                        reqs.push(mpi.isend(buf, m.len, m.dst, m.tag));
                    }
                    if m.dst == rank {
                        let buf = fab.alloc(ep, m.len);
                        recvs.push((i, buf, m.len));
                        reqs.push(mpi.irecv(buf, m.len, m.src, m.tag));
                    }
                }
                mpi.wait_all(&reqs).await;
                // Every receive slot must hold its message's pattern... but two
                // same-(src,dst,tag) messages may map to each other's slots
                // only in posted order — which matches schedule order on both
                // sides, so slot i always gets message i.
                for (i, buf, len) in recvs {
                    assert!(
                        fab.verify_pattern(ep, buf, len, i as u64).unwrap(),
                        "rank {rank}: message {i} corrupted or misrouted"
                    );
                }
            },
            NO_PROXIES,
        )
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_schedules_deliver_intact(msgs in msgs_strategy(4)) {
        run_schedule(msgs, 4);
    }

    #[test]
    fn random_schedules_with_compute_interleaved(
        msgs in msgs_strategy(3),
        compute_us in 1u64..200,
    ) {
        // Same property, but ranks compute before waiting — rendezvous
        // must still complete through the wait-side progress.
        let msgs = Arc::new(msgs);
        let spec = ClusterSpec::new(3, 1);
        ClusterBuilder::new(spec, 11)
            .run_async(async move |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx.clone(), cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let mut reqs = Vec::new();
                let mut recvs = Vec::new();
                for (i, m) in msgs.iter().enumerate() {
                    if m.src == rank {
                        let buf = fab.alloc(ep, m.len);
                        fab.fill_pattern(ep, buf, m.len, i as u64).unwrap();
                        reqs.push(mpi.isend(buf, m.len, m.dst, m.tag));
                    }
                    if m.dst == rank {
                        let buf = fab.alloc(ep, m.len);
                        recvs.push((i, buf, m.len));
                        reqs.push(mpi.irecv(buf, m.len, m.src, m.tag));
                    }
                }
                ctx.compute_async(simnet::SimDelta::from_us(compute_us)).await;
                mpi.wait_all(&reqs).await;
                for (i, buf, len) in recvs {
                    assert!(fab.verify_pattern(ep, buf, len, i as u64).unwrap());
                }
            }, NO_PROXIES)
            .unwrap();
    }

    #[test]
    fn collectives_compose_randomly(ops in prop::collection::vec(0..3u8, 1..6)) {
        // A random sequence of collectives must complete and deliver.
        let ops = Arc::new(ops);
        let spec = ClusterSpec::new(2, 2);
        ClusterBuilder::new(spec, 5)
            .run_async(async move |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx, cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let p = cluster.world_size();
                for (round, op) in ops.iter().enumerate() {
                    match op {
                        0 => mpi.barrier().await,
                        1 => {
                            let buf = fab.alloc(ep, 2048);
                            let root = round % p;
                            if rank == root {
                                fab.fill_pattern(ep, buf, 2048, round as u64).unwrap();
                            }
                            mpi.bcast(root, buf, 2048).await;
                            assert!(fab.verify_pattern(ep, buf, 2048, round as u64).unwrap());
                        }
                        _ => {
                            let s = fab.alloc(ep, 1024 * p as u64);
                            let r = fab.alloc(ep, 1024 * p as u64);
                            for d in 0..p {
                                fab.fill_pattern(ep, s.offset(d as u64 * 1024), 1024,
                                    (round * 100 + rank * 10 + d) as u64).unwrap();
                            }
                            mpi.alltoall(s, r, 1024).await;
                            for src in 0..p {
                                assert!(fab.verify_pattern(ep, r.offset(src as u64 * 1024), 1024,
                                    (round * 100 + src * 10 + rank) as u64).unwrap());
                            }
                        }
                    }
                }
            }, NO_PROXIES)
            .unwrap();
    }
}
