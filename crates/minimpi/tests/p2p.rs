//! Point-to-point protocol tests: eager, rendezvous, matching, wildcards,
//! ordering, and the host-progress stall that motivates the paper.

use minimpi::{Mpi, ANY_SOURCE, ANY_TAG};
use rdma::{ClusterBuilder, ClusterSpec, NO_PROXIES};
use simnet::SimDelta;

fn run_pair(f: impl AsyncFn(&Mpi) + Send + Sync + 'static) {
    let spec = ClusterSpec::new(2, 1);
    ClusterBuilder::new(spec, 42)
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
fn eager_send_recv_moves_data() {
    run_pair(async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let buf = fab.alloc(ep, 1024);
        if mpi.rank() == 0 {
            fab.fill_pattern(ep, buf, 1024, 5).unwrap();
            mpi.send(buf, 1024, 1, 7).await;
        } else {
            mpi.recv(buf, 1024, 0, 7).await;
            assert!(fab.verify_pattern(ep, buf, 1024, 5).unwrap());
        }
    });
}

#[test]
fn rendezvous_send_recv_moves_data() {
    run_pair(async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let len = 256 * 1024; // far above eager threshold
        let buf = fab.alloc(ep, len);
        if mpi.rank() == 0 {
            fab.fill_pattern(ep, buf, len, 9).unwrap();
            mpi.send(buf, len, 1, 3).await;
        } else {
            mpi.recv(buf, len, 0, 3).await;
            assert!(fab.verify_pattern(ep, buf, len, 9).unwrap());
        }
    });
}

#[test]
fn unexpected_messages_match_later_recv() {
    run_pair(async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let buf = fab.alloc(ep, 64);
        if mpi.rank() == 0 {
            fab.fill_pattern(ep, buf, 64, 1).unwrap();
            mpi.send(buf, 64, 1, 11).await;
        } else {
            // Let the message land before posting the receive.
            mpi.ctx().sleep_async(SimDelta::from_us(100)).await;
            mpi.recv(buf, 64, 0, 11).await;
            assert!(fab.verify_pattern(ep, buf, 64, 1).unwrap());
        }
    });
}

#[test]
fn tag_matching_separates_streams() {
    run_pair(async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let a = fab.alloc(ep, 32);
        let b = fab.alloc(ep, 32);
        if mpi.rank() == 0 {
            fab.fill_pattern(ep, a, 32, 100).unwrap();
            fab.fill_pattern(ep, b, 32, 200).unwrap();
            // Send tag 2 first, then tag 1.
            mpi.send(a, 32, 1, 2).await;
            mpi.send(b, 32, 1, 1).await;
        } else {
            // Receive tag 1 first: must get the *second* message.
            mpi.recv(a, 32, 0, 1).await;
            mpi.recv(b, 32, 0, 2).await;
            assert!(fab.verify_pattern(ep, a, 32, 200).unwrap());
            assert!(fab.verify_pattern(ep, b, 32, 100).unwrap());
        }
    });
}

#[test]
fn same_tag_messages_do_not_overtake() {
    run_pair(async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let bufs: Vec<_> = (0..4).map(|_| fab.alloc(ep, 64)).collect();
        if mpi.rank() == 0 {
            for (i, &b) in bufs.iter().enumerate() {
                fab.fill_pattern(ep, b, 64, i as u64).unwrap();
                mpi.send(b, 64, 1, 9).await;
            }
        } else {
            for (i, &b) in bufs.iter().enumerate() {
                mpi.recv(b, 64, 0, 9).await;
                assert!(
                    fab.verify_pattern(ep, b, 64, i as u64).unwrap(),
                    "message {i} order"
                );
            }
        }
    });
}

#[test]
fn wildcard_source_and_tag() {
    let spec = ClusterSpec::new(3, 1);
    ClusterBuilder::new(spec, 7)
        .run_async(
            async |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx, cluster);
                let fab = mpi.cluster().fabric().clone();
                let ep = mpi.cluster().host_ep(rank);
                let buf = fab.alloc(ep, 16);
                match rank {
                    0 => {
                        // Two receives with wildcards pick up both senders.
                        mpi.recv(buf, 16, ANY_SOURCE, ANY_TAG).await;
                        mpi.recv(buf, 16, ANY_SOURCE, ANY_TAG).await;
                    }
                    _ => {
                        fab.fill_pattern(ep, buf, 16, rank as u64).unwrap();
                        mpi.send(buf, 16, 0, 50 + rank as u64).await;
                    }
                }
            },
            NO_PROXIES,
        )
        .unwrap();
}

#[test]
fn isend_completes_without_wait_for_eager() {
    run_pair(async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let buf = fab.alloc(ep, 128);
        if mpi.rank() == 0 {
            let r = mpi.isend(buf, 128, 1, 1);
            assert!(mpi.test(r), "eager send completes locally");
        } else {
            mpi.recv(buf, 128, 0, 1).await;
        }
    });
}

#[test]
fn rendezvous_stalls_while_receiver_computes() {
    // The paper's Fig. 1 effect: a large transfer cannot finish while the
    // receiver is stuck in compute, because CTS needs the receiver's CPU.
    let spec = ClusterSpec::new(2, 1);
    let report = ClusterBuilder::new(spec, 1)
        .run_async(
            async |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx.clone(), cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let len = 1 << 20;
                let buf = fab.alloc(ep, len);
                if rank == 0 {
                    let t0 = ctx.now();
                    mpi.send(buf, len, 1, 1).await;
                    let elapsed = (ctx.now() - t0).as_us_f64();
                    // The receiver computes 5 ms before entering MPI; the send
                    // cannot complete earlier.
                    assert!(
                        elapsed > 4_900.0,
                        "send finished during receiver compute: {elapsed}us"
                    );
                } else {
                    ctx.compute_async(SimDelta::from_ms(5)).await;
                    mpi.recv(buf, len, 0, 1).await;
                }
            },
            NO_PROXIES,
        )
        .unwrap();
    assert!(report.end_time.as_secs_f64() < 1.0);
}

#[test]
fn registration_cache_hits_on_buffer_reuse() {
    let spec = ClusterSpec::new(2, 1);
    let report = ClusterBuilder::new(spec, 3)
        .run_async(
            async |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx, cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let len = 128 * 1024;
                let buf = fab.alloc(ep, len);
                for i in 0..5 {
                    if rank == 0 {
                        mpi.send(buf, len, 1, i).await;
                    } else {
                        mpi.recv(buf, len, 0, i).await;
                    }
                }
            },
            NO_PROXIES,
        )
        .unwrap();
    // 5 rendezvous transfers, same buffers: 1 miss + 4 hits per side.
    assert_eq!(report.stats.counter("mpi.regcache.miss"), 2);
    assert_eq!(report.stats.counter("mpi.regcache.hit"), 8);
}

#[test]
fn compute_with_test_allows_progress() {
    run_pair(async |mpi| {
        let fab = mpi.cluster().fabric().clone();
        let ep = mpi.cluster().host_ep(mpi.rank());
        let len = 1 << 20;
        let buf = fab.alloc(ep, len);
        if mpi.rank() == 0 {
            mpi.send(buf, len, 1, 1).await;
        } else {
            let r = mpi.irecv(buf, len, 0, 1);
            // Compute 5 ms but poke MPI_Test every 50 us: transfer finishes
            // long before the compute does.
            mpi.compute_with_test(SimDelta::from_ms(5), SimDelta::from_us(50), r)
                .await;
            assert!(mpi.test(r), "request done after testing loop");
        }
    });
}
