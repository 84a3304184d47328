//! Baseline correctness and characteristic behaviour.

use baselines::{bluesmpi_proxy_config, BluesMpi, IntelMpi};
use rdma::{ClusterBuilder, ClusterSpec, Inbox, NO_PROXIES};
use simnet::SimDelta;

fn run_blues(
    nodes: usize,
    ppn: usize,
    f: impl AsyncFn(&BluesMpi) + Send + Sync + 'static,
) -> simnet::Report {
    let spec = ClusterSpec::new(nodes, ppn);
    ClusterBuilder::new(spec, 31)
        .run_async(
            async move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let blues = BluesMpi::attach(rank, ctx, cluster, &inbox);
                f(&blues).await;
                blues.finalize().await;
            },
            Some(offload::proxy_fn(bluesmpi_proxy_config())),
        )
        .unwrap()
}

#[test]
fn bluesmpi_ialltoall_is_correct() {
    run_blues(2, 2, async |blues| {
        let off = blues.offload();
        let fab = off.cluster().fabric().clone();
        let p = off.size();
        let me = off.rank();
        let ep = off.cluster().host_ep(me);
        let block = 8192u64;
        let sendbuf = fab.alloc(ep, block * p as u64);
        let recvbuf = fab.alloc(ep, block * p as u64);
        for d in 0..p {
            fab.fill_pattern(
                ep,
                sendbuf.offset(d as u64 * block),
                block,
                (me * 10 + d) as u64,
            )
            .unwrap();
        }
        let r = blues.ialltoall(sendbuf, recvbuf, block).await;
        blues.wait(r).await;
        for s in 0..p {
            assert!(
                fab.verify_pattern(
                    ep,
                    recvbuf.offset(s as u64 * block),
                    block,
                    (s * 10 + me) as u64
                )
                .unwrap(),
                "rank {me} block from {s}"
            );
        }
    });
}

#[test]
fn bluesmpi_ibcast_is_correct() {
    run_blues(3, 1, async |blues| {
        let off = blues.offload();
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let len = 64 * 1024;
        let buf = fab.alloc(ep, len);
        if off.rank() == 1 {
            fab.fill_pattern(ep, buf, len, 3).unwrap();
        }
        let r = blues.ibcast(1, buf, len).await;
        blues.wait(r).await;
        assert!(fab.verify_pattern(ep, buf, len, 3).unwrap());
    });
}

#[test]
fn bluesmpi_iallgather_is_correct() {
    run_blues(2, 2, async |blues| {
        let off = blues.offload();
        let fab = off.cluster().fabric().clone();
        let p = off.size();
        let me = off.rank();
        let ep = off.cluster().host_ep(me);
        let block = 4096u64;
        let buf = fab.alloc(ep, block * p as u64);
        fab.fill_pattern(ep, buf.offset(me as u64 * block), block, me as u64 + 70)
            .unwrap();
        let r = blues.iallgather(buf, block).await;
        blues.wait(r).await;
        for s in 0..p {
            assert!(fab
                .verify_pattern(ep, buf.offset(s as u64 * block), block, s as u64 + 70)
                .unwrap());
        }
    });
}

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "test code: ranks hand their call times out of the run"
)]
fn bluesmpi_cold_start_fades_with_warmup() {
    // First calls pay the bring-up penalty; warmed-up calls don't.
    use std::sync::Mutex;
    let times: std::sync::Arc<Mutex<Vec<f64>>> = Default::default();
    let t2 = std::sync::Arc::clone(&times);
    let report = run_blues(2, 1, async move |blues| {
        let off = blues.offload();
        let fab = off.cluster().fabric().clone();
        let p = off.size();
        let ep = off.cluster().host_ep(off.rank());
        let block = 16 * 1024u64;
        let sendbuf = fab.alloc(ep, block * p as u64);
        let recvbuf = fab.alloc(ep, block * p as u64);
        for i in 0..6 {
            let t0 = off.ctx().now();
            let r = blues.ialltoall(sendbuf, recvbuf, block).await;
            blues.wait(r).await;
            if off.rank() == 0 {
                t2.lock().unwrap().push((off.ctx().now() - t0).as_us_f64());
                let _ = i;
            }
        }
    });
    let times = times.lock().unwrap();
    assert_eq!(times.len(), 6);
    let cold_avg = (times[0] + times[1] + times[2]) / 3.0;
    let warm_avg = (times[4] + times[5]) / 2.0;
    assert!(
        cold_avg > warm_avg + 300.0,
        "cold {cold_avg}us should exceed warm {warm_avg}us by the penalty"
    );
    // 3 cold calls per rank x 2 ranks.
    assert_eq!(report.stats.counter("bluesmpi.cold_calls"), 6);
}

#[test]
fn bluesmpi_uses_staging_mechanism() {
    let report = run_blues(2, 1, async |blues| {
        let off = blues.offload();
        let fab = off.cluster().fabric().clone();
        let p = off.size();
        let ep = off.cluster().host_ep(off.rank());
        let block = 32 * 1024u64;
        let sendbuf = fab.alloc(ep, block * p as u64);
        let recvbuf = fab.alloc(ep, block * p as u64);
        let r = blues.ialltoall(sendbuf, recvbuf, block).await;
        blues.wait(r).await;
    });
    // Group sends each pull into staging (read) then forward (write).
    assert!(report.stats.counter("offload.proxy.staging_reads") > 0);
    assert_eq!(
        report.stats.counter("offload.proxy.group_writes"),
        report.stats.counter("offload.proxy.staging_reads")
    );
    assert_eq!(report.stats.counter("offload.proxy.gvmi_writes"), 0);
    assert_eq!(
        report.stats.counter("rdma.reg.cross"),
        0,
        "no cross-GVMI in staging"
    );
}

#[test]
fn intelmpi_collectives_delegate_correctly() {
    let spec = ClusterSpec::new(2, 2);
    ClusterBuilder::new(spec, 33)
        .run_async(
            async |rank, ctx, cluster| {
                let impi = IntelMpi::new(rank, ctx, cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let len = 16 * 1024;
                let buf = fab.alloc(ep, len);
                if rank == 0 {
                    fab.fill_pattern(ep, buf, len, 12).unwrap();
                }
                let r = impi.ibcast(0, buf, len);
                // Poll with compute slices, Listing-1 style.
                while !impi.test(r) {
                    impi.mpi().ctx().compute_async(SimDelta::from_us(5)).await;
                }
                assert!(fab.verify_pattern(ep, buf, len, 12).unwrap());
            },
            NO_PROXIES,
        )
        .unwrap();
}
