//! Basic-primitive behaviour: data integrity on both data paths, DPU-driven
//! progress during host compute, matching, caches, and clean shutdown.

use offload::{Offload, OffloadConfig};
use rdma::{ClusterBuilder, ClusterSpec, Inbox};
use simnet::SimDelta;
use std::ops::AsyncFn;

fn run_offload(
    nodes: usize,
    ppn: usize,
    cfg: OffloadConfig,
    f: impl AsyncFn(&Offload) + Send + Sync + 'static,
) -> simnet::Report {
    let spec = ClusterSpec::new(nodes, ppn);
    let pcfg = cfg.clone();
    ClusterBuilder::new(spec, 11)
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

async fn pingpong_body(off: &Offload, len: u64) {
    let fab = off.cluster().fabric().clone();
    let ep = off.cluster().host_ep(off.rank());
    let sbuf = fab.alloc(ep, len);
    let rbuf = fab.alloc(ep, len);
    if off.rank() == 0 {
        fab.fill_pattern(ep, sbuf, len, 10).unwrap();
        let s = off.send_offload(sbuf, len, 1, 7);
        let r = off.recv_offload(rbuf, len, 1, 8);
        off.wait(s).await;
        off.wait(r).await;
        assert!(fab.verify_pattern(ep, rbuf, len, 20).unwrap());
    } else {
        fab.fill_pattern(ep, sbuf, len, 20).unwrap();
        let r = off.recv_offload(rbuf, len, 0, 7);
        let s = off.send_offload(sbuf, len, 0, 8);
        off.wait(r).await;
        off.wait(s).await;
        assert!(fab.verify_pattern(ep, rbuf, len, 10).unwrap());
    }
}

#[test]
fn gvmi_pingpong_moves_data() {
    run_offload(2, 1, OffloadConfig::proposed(), async |off| {
        pingpong_body(off, 64 * 1024).await
    });
}

#[test]
fn staging_pingpong_moves_data() {
    run_offload(2, 1, OffloadConfig::staging(), async |off| {
        pingpong_body(off, 64 * 1024).await
    });
}

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "test code: ranks hand their latencies out of the run"
)]
fn gvmi_beats_staging_latency() {
    // Paper Fig. 4 / Fig. 6: the staging hop costs extra latency.
    fn measure(cfg: OffloadConfig) -> f64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let total = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&total);
        run_offload(2, 1, cfg, async move |off| {
            let fab = off.cluster().fabric().clone();
            let ep = off.cluster().host_ep(off.rank());
            let len = 256 * 1024;
            let buf = fab.alloc(ep, len);
            // Warm caches first.
            for warm in 0..2 {
                let t0 = off.ctx().now();
                if off.rank() == 0 {
                    off.wait(off.send_offload(buf, len, 1, warm)).await;
                    off.wait(off.recv_offload(buf, len, 1, 100 + warm)).await;
                } else {
                    off.wait(off.recv_offload(buf, len, 0, warm)).await;
                    off.wait(off.send_offload(buf, len, 0, 100 + warm)).await;
                }
                if warm == 1 && off.rank() == 0 {
                    t2.store((off.ctx().now() - t0).as_ps(), Ordering::SeqCst);
                }
            }
        });
        total.load(Ordering::SeqCst) as f64 / 1e6
    }
    let gvmi = measure(OffloadConfig::proposed());
    let staging = measure(OffloadConfig::staging());
    assert!(
        staging > gvmi * 1.25,
        "staging ({staging}us) should be well above GVMI ({gvmi}us)"
    );
}

#[test]
fn transfer_progresses_while_host_computes() {
    // The whole point of the framework: the DPU completes the exchange
    // while both hosts are busy. When they finally call wait, the FIN is
    // already in the mailbox, so wait returns without advancing time.
    run_offload(2, 1, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let len = 1 << 20;
        let buf = fab.alloc(ep, len);
        let req = if off.rank() == 0 {
            off.send_offload(buf, len, 1, 1)
        } else {
            off.recv_offload(buf, len, 0, 1)
        };
        off.ctx().compute_async(SimDelta::from_ms(10)).await;
        let t0 = off.ctx().now();
        off.wait(req).await;
        let wait_time = (off.ctx().now() - t0).as_us_f64();
        assert!(
            wait_time < 1.0,
            "wait should be instant after long compute, took {wait_time}us"
        );
    });
}

#[test]
fn many_outstanding_transfers_match_by_tag() {
    run_offload(2, 1, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let n = 8u64;
        let len = 4096;
        let bufs: Vec<_> = (0..n).map(|_| fab.alloc(ep, len)).collect();
        if off.rank() == 0 {
            let reqs: Vec<_> = bufs
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    fab.fill_pattern(ep, b, len, i as u64).unwrap();
                    // Post in reverse tag order to exercise matching.
                    off.send_offload(b, len, 1, (n - 1 - i as u64) * 3)
                })
                .collect();
            off.wait_all(&reqs).await;
        } else {
            let reqs: Vec<_> = bufs
                .iter()
                .enumerate()
                .map(|(i, &b)| off.recv_offload(b, len, 0, i as u64 * 3))
                .collect();
            off.wait_all(&reqs).await;
            for (i, &b) in bufs.iter().enumerate() {
                // Tag i*3 was sent from buffer n-1-i.
                assert!(
                    fab.verify_pattern(ep, b, len, (n as usize - 1 - i) as u64)
                        .unwrap(),
                    "tag stream {i}"
                );
            }
        }
    });
}

#[test]
fn gvmi_caches_hit_on_reuse() {
    let report = run_offload(2, 1, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let len = 64 * 1024;
        let buf = fab.alloc(ep, len);
        for i in 0..6u64 {
            if off.rank() == 0 {
                off.wait(off.send_offload(buf, len, 1, i)).await;
            } else {
                off.wait(off.recv_offload(buf, len, 0, i)).await;
            }
        }
    });
    // Host GVMI cache: 1 miss, 5 hits (sender side only).
    assert_eq!(report.stats.counter("offload.gvmi_cache.host.miss"), 1);
    assert_eq!(report.stats.counter("offload.gvmi_cache.host.hit"), 5);
    // DPU cross-registration cache mirrors that.
    assert_eq!(report.stats.counter("offload.gvmi_cache.dpu.miss"), 1);
    assert_eq!(report.stats.counter("offload.gvmi_cache.dpu.hit"), 5);
}

#[test]
fn cache_ablation_registers_every_time() {
    let cfg = OffloadConfig::proposed().without_gvmi_cache();
    let report = run_offload(2, 1, cfg, async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let len = 64 * 1024;
        let buf = fab.alloc(ep, len);
        for i in 0..4u64 {
            if off.rank() == 0 {
                off.wait(off.send_offload(buf, len, 1, i)).await;
            } else {
                off.wait(off.recv_offload(buf, len, 0, i)).await;
            }
        }
    });
    assert_eq!(report.stats.counter("offload.gvmi_cache.host.hit"), 0);
    assert_eq!(report.stats.counter("rdma.reg.cross"), 4);
}

#[test]
fn cache_ablation_costs_time() {
    fn end_time(cfg: OffloadConfig) -> f64 {
        run_offload(2, 1, cfg, async |off| {
            let fab = off.cluster().fabric().clone();
            let ep = off.cluster().host_ep(off.rank());
            let len = 1 << 20;
            let buf = fab.alloc(ep, len);
            for i in 0..10u64 {
                if off.rank() == 0 {
                    off.wait(off.send_offload(buf, len, 1, i)).await;
                } else {
                    off.wait(off.recv_offload(buf, len, 0, i)).await;
                }
            }
        })
        .end_time
        .as_us_f64()
    }
    let with_cache = end_time(OffloadConfig::proposed());
    let without = end_time(OffloadConfig::proposed().without_gvmi_cache());
    assert!(
        without > with_cache,
        "uncached registrations must cost time: {without} <= {with_cache}"
    );
}

#[test]
fn staging_reuses_buffers_and_registrations() {
    let report = run_offload(2, 1, OffloadConfig::staging(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let len = 32 * 1024;
        let buf = fab.alloc(ep, len);
        for i in 0..5u64 {
            if off.rank() == 0 {
                off.wait(off.send_offload(buf, len, 1, i)).await;
            } else {
                off.wait(off.recv_offload(buf, len, 0, i)).await;
            }
        }
    });
    // Every transfer pulls into staging and forwards (two hops each).
    assert_eq!(report.stats.counter("offload.proxy.staging_reads"), 5);
    assert_eq!(report.stats.counter("offload.proxy.staging_forwards"), 5);
    // One staging buffer serves all five transfers of the same source.
    assert_eq!(report.stats.counter("offload.proxy.staging_buffers"), 1);
    // Host IB registrations are cached: sender rkey + receiver rkey.
    assert_eq!(report.stats.counter("offload.ib_cache.host.miss"), 2);
    assert_eq!(report.stats.counter("offload.ib_cache.host.hit"), 8);
}

#[test]
fn four_control_messages_per_basic_transfer() {
    // Paper §VIII-C: RTS + RTR + two FINs per send/recv pair.
    let report = run_offload(2, 1, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let buf = fab.alloc(ep, 4096);
        for i in 0..3u64 {
            if off.rank() == 0 {
                off.wait(off.send_offload(buf, 4096, 1, i)).await;
            } else {
                off.wait(off.recv_offload(buf, 4096, 0, i)).await;
            }
        }
    });
    assert_eq!(report.stats.counter("offload.ctrl.host_dpu"), 3 * 4);
}

#[test]
fn multiple_ranks_per_node_share_proxies() {
    let report = run_offload(2, 4, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let me = off.rank();
        let p = off.size();
        let ep = off.cluster().host_ep(me);
        let len = 8192;
        let sbuf = fab.alloc(ep, len);
        let rbuf = fab.alloc(ep, len);
        fab.fill_pattern(ep, sbuf, len, me as u64).unwrap();
        let dst = (me + 1) % p;
        let src = (me + p - 1) % p;
        let s = off.send_offload(sbuf, len, dst, 9);
        let r = off.recv_offload(rbuf, len, src, 9);
        off.wait(s).await;
        off.wait(r).await;
        assert!(fab.verify_pattern(ep, rbuf, len, src as u64).unwrap());
    });
    assert!(report.stats.counter("offload.proxy.gvmi_writes") == 8);
}

#[test]
fn intra_node_offload_works() {
    // Both ranks on one node: data path goes through shared memory but the
    // control protocol is identical.
    run_offload(1, 2, OffloadConfig::proposed(), async |off| {
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let buf = fab.alloc(ep, 2048);
        if off.rank() == 0 {
            fab.fill_pattern(ep, buf, 2048, 3).unwrap();
            off.wait(off.send_offload(buf, 2048, 1, 0)).await;
        } else {
            off.wait(off.recv_offload(buf, 2048, 0, 0)).await;
            assert!(fab.verify_pattern(ep, buf, 2048, 3).unwrap());
        }
    });
}
