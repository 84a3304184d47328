//! Offload-framework edge cases: self-transfers, zero/odd sizes, proxy
//! fan-out, concurrent group and basic traffic, and cache-correctness
//! under buffer churn.

use offload::{Offload, OffloadConfig};
use rdma::{ClusterBuilder, ClusterSpec, Inbox};
use std::ops::AsyncFn;

fn run_offload(
    nodes: usize,
    ppn: usize,
    proxies: Option<usize>,
    cfg: OffloadConfig,
    f: impl AsyncFn(&Offload) + Send + Sync + 'static,
) -> simnet::Report {
    let mut spec = ClusterSpec::new(nodes, ppn);
    if let Some(p) = proxies {
        spec = spec.with_proxies(p);
    }
    let pcfg = cfg.clone();
    ClusterBuilder::new(spec, 99)
        .run_async(
            async move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let off = Offload::init(rank, ctx, cluster, &inbox, cfg.clone());
                f(&off).await;
                off.finalize().await;
            },
            Some(offload::proxy_fn(pcfg)),
        )
        .unwrap()
}

#[test]
fn self_send_through_the_proxy_works() {
    // A rank offloading a transfer to itself: RTS and RTR meet at the same
    // proxy and the data loops back through host memory.
    run_offload(1, 1, None, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(0);
        let src = fab.alloc(ep, 4096);
        let dst = fab.alloc(ep, 4096);
        fab.fill_pattern(ep, src, 4096, 3).unwrap();
        let s = off.send_offload(src, 4096, 0, 1);
        let r = off.recv_offload(dst, 4096, 0, 1);
        off.wait(s).await;
        off.wait(r).await;
        assert!(fab.verify_pattern(ep, dst, 4096, 3).unwrap());
    });
}

#[test]
fn one_byte_and_odd_sizes() {
    run_offload(2, 1, None, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        for (i, len) in [1u64, 3, 17, 4095, 4097, 65537].into_iter().enumerate() {
            let buf = fab.alloc(ep, len);
            if off.rank() == 0 {
                fab.fill_pattern(ep, buf, len, i as u64).unwrap();
                off.wait(off.send_offload(buf, len, 1, i as u64)).await;
            } else {
                off.wait(off.recv_offload(buf, len, 0, i as u64)).await;
                assert!(
                    fab.verify_pattern(ep, buf, len, i as u64).unwrap(),
                    "len {len}"
                );
            }
        }
    });
}

#[test]
fn more_proxies_spread_protocol_handling() {
    // DESIGN.md ablation 5: with one proxy per DPU all queue handling
    // chains on one ARM timeline; more proxies cannot be slower.
    fn comm_time(proxies: usize) -> f64 {
        let report = run_offload(
            2,
            8,
            Some(proxies),
            OffloadConfig::proposed(),
            async |off| {
                let fab = off.cluster().fabric().clone();
                let me = off.rank();
                let p = off.size();
                let ep = off.cluster().host_ep(me);
                let len = 16 * 1024;
                let sbuf = fab.alloc(ep, len);
                let rbuf = fab.alloc(ep, len);
                // Dense exchange so the proxies have real queues to chew on.
                for round in 0..4u64 {
                    let mut reqs = Vec::new();
                    for k in 1..p {
                        let dst = (me + k) % p;
                        let src = (me + p - k) % p;
                        reqs.push(off.send_offload(sbuf, len, dst, round * 64 + k as u64));
                        reqs.push(off.recv_offload(rbuf, len, src, round * 64 + k as u64));
                    }
                    off.wait_all(&reqs).await;
                }
            },
        );
        report.end_time.as_us_f64()
    }
    let one = comm_time(1);
    let four = comm_time(4);
    assert!(
        four < one,
        "4 proxies ({four}us) should beat 1 proxy ({one}us)"
    );
}

#[test]
fn basic_and_group_traffic_interleave() {
    run_offload(2, 2, None, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let me = off.rank();
        let p = off.size();
        let ep = off.cluster().host_ep(me);
        let len = 8192u64;
        // Group alltoall in flight...
        let sendbuf = fab.alloc(ep, len * p as u64);
        let recvbuf = fab.alloc(ep, len * p as u64);
        for d in 0..p {
            fab.fill_pattern(
                ep,
                sendbuf.offset(d as u64 * len),
                len,
                (me * 50 + d) as u64,
            )
            .unwrap();
        }
        let g = off.record_alltoall(sendbuf, recvbuf, len);
        off.group_call(g).await;
        // ...while basic transfers run on the same proxies.
        let pbuf = fab.alloc(ep, len);
        let qbuf = fab.alloc(ep, len);
        fab.fill_pattern(ep, pbuf, len, 900 + me as u64).unwrap();
        let peer = (me + 1) % p;
        let from = (me + p - 1) % p;
        let s = off.send_offload(pbuf, len, peer, 7);
        let r = off.recv_offload(qbuf, len, from, 7);
        off.wait(s).await;
        off.wait(r).await;
        off.group_wait(g).await.expect("group offload failed");
        assert!(fab
            .verify_pattern(ep, qbuf, len, 900 + from as u64)
            .unwrap());
        for s in 0..p {
            if s != me {
                assert!(fab
                    .verify_pattern(
                        ep,
                        recvbuf.offset(s as u64 * len),
                        len,
                        (s * 50 + me) as u64
                    )
                    .unwrap());
            }
        }
    });
}

#[test]
fn stale_mkey_is_detected_by_the_dpu_cache() {
    // Deregister + re-register the same buffer: the host presents a new
    // mkey, and the DPU's validated cache must not reuse the stale mkey2.
    let report = run_offload(2, 1, None, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let len = 32 * 1024;
        let buf = fab.alloc(ep, len);
        if off.rank() == 0 {
            fab.fill_pattern(ep, buf, len, 1).unwrap();
            off.wait(off.send_offload(buf, len, 1, 0)).await;
        } else {
            off.wait(off.recv_offload(buf, len, 0, 0)).await;
        }
    });
    // Sanity: one cross-registration happened, zero stale evictions in
    // this benign run (the stale path is unit-tested in reg_cache).
    assert_eq!(report.stats.counter("offload.gvmi_cache.dpu.stale"), 0);
    assert!(report.stats.counter("rdma.reg.cross") >= 1);
}

#[test]
fn group_with_only_sends_or_only_recvs_completes() {
    // Degenerate graphs: rank 0 records only sends, rank 1 only recvs.
    run_offload(2, 1, None, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let len = 2048u64;
        let bufs: Vec<_> = (0..3).map(|_| fab.alloc(ep, len)).collect();
        let g = off.group_start();
        if off.rank() == 0 {
            for (i, &b) in bufs.iter().enumerate() {
                fab.fill_pattern(ep, b, len, i as u64).unwrap();
                off.group_send(g, b, len, 1, i as u64);
            }
        } else {
            for (i, &b) in bufs.iter().enumerate() {
                off.group_recv(g, b, len, 0, i as u64);
            }
        }
        off.group_end(g);
        off.group_call(g).await;
        off.group_wait(g).await.expect("group offload failed");
        if off.rank() == 1 {
            for (i, &b) in bufs.iter().enumerate() {
                assert!(fab.verify_pattern(ep, b, len, i as u64).unwrap());
            }
        }
    });
}
