//! Negative paths: the simulator must *diagnose* broken communication
//! patterns (deadlocks), not hang; misuse of the APIs must fail loudly.

use bluefield_offload::dpu::{Offload, OffloadConfig};
use bluefield_offload::mpi::{Mpi, MpiConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};
use bluefield_offload::sim::SimError;

#[test]
fn unmatched_mpi_recv_reports_deadlock() {
    let spec = ClusterSpec::new(2, 1);
    let result = ClusterBuilder::new(spec, 1).run_hosts(|rank, ctx, cluster| {
        let mpi = Mpi::new(rank, ctx, cluster.clone(), MpiConfig::default());
        let fab = cluster.fabric().clone();
        let ep = cluster.host_ep(rank);
        let buf = fab.alloc(ep, 64);
        if rank == 0 {
            // Nobody ever sends with tag 99.
            mpi.recv(buf, 64, 1, 99);
        }
    });
    match result {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(blocked.iter().any(|(name, _)| name == "rank0"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn unmatched_offload_send_reports_deadlock() {
    let spec = ClusterSpec::new(2, 1);
    let result = ClusterBuilder::new(spec, 1).run(
        |rank, ctx, cluster| {
            let inbox = Inbox::new();
            let off = Offload::init(rank, ctx, cluster, &inbox, OffloadConfig::proposed());
            let fab = off.cluster().fabric().clone();
            let ep = off.cluster().host_ep(rank);
            let buf = fab.alloc(ep, 64);
            if rank == 0 {
                // The matching recv_offload never happens.
                off.ctx()
                    .block_on(off.wait(off.send_offload(buf, 64, 1, 5)));
            }
            off.ctx().block_on(off.finalize());
        },
        Some(offload::proxy_fn(OffloadConfig::proposed())),
    );
    assert!(
        matches!(result, Err(SimError::Deadlock { .. })),
        "expected deadlock, got {result:?}"
    );
}

#[test]
fn mismatched_ring_barrier_pattern_deadlocks_not_hangs() {
    // A ring where one rank forgot to forward: downstream ranks block in
    // group_wait; the engine reports exactly who is stuck.
    let spec = ClusterSpec::new(3, 1);
    let result = ClusterBuilder::new(spec, 1).run(
        |rank, ctx, cluster| {
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
            let buf = fab.alloc(ep, 1024);
            let g = off.group_start();
            match rank {
                0 => off.group_send(g, buf, 1024, 1, 0),
                1 => {
                    off.group_recv(g, buf, 1024, 0, 0);
                    // BUG under test: rank 1 does not forward to rank 2.
                }
                _ => off.group_recv(g, buf, 1024, 1, 0),
            }
            off.group_end(g);
            off.ctx().block_on(off.group_call(g));
            off.ctx()
                .block_on(off.group_wait(g))
                .expect("group offload failed");
            off.ctx().block_on(off.finalize());
        },
        Some(offload::proxy_fn(OffloadConfig::proposed())),
    );
    match result {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(blocked.iter().any(|(name, _)| name == "rank2"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn bad_destination_rank_panics() {
    let spec = ClusterSpec::new(2, 1);
    let result = std::panic::catch_unwind(|| {
        let _ = ClusterBuilder::new(spec, 1).run(
            |rank, ctx, cluster| {
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
                let buf = fab.alloc(ep, 64);
                if rank == 0 {
                    let _ = off.send_offload(buf, 64, 99, 0); // rank 99 does not exist
                }
                off.ctx().block_on(off.finalize());
            },
            Some(offload::proxy_fn(OffloadConfig::proposed())),
        );
    });
    assert!(result.is_err(), "out-of-range destination must panic");
}

#[test]
fn dark_ctrl_plane_surfaces_ctrl_undeliverable() {
    use offload::FaultPlan;
    use workloads::{drive_ctrl_undeliverable, CheckRun};
    let mut run = CheckRun::baseline(7);
    run.cfg.fault = FaultPlan {
        drop_pm: 1000,
        ..FaultPlan::none()
    };
    // The typed-error assertion runs inside the driver on rank 0. The
    // simulation's own verdict is a deadlock of the *proxies* only: the
    // dark ctrl plane also swallows their shutdown notices. The hosts
    // must all have escaped with the typed error.
    match drive_ctrl_undeliverable(&run, 4096) {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(
                blocked.iter().all(|(name, _)| name.starts_with("proxy")),
                "only shutdown-starved proxies may remain blocked, got {blocked:?}"
            );
        }
        other => panic!("expected a proxies-only deadlock verdict, got {other:?}"),
    }
}

#[test]
fn dropped_payloads_surface_data_integrity_on_both_ends() {
    use offload::FaultPlan;
    use workloads::{drive_data_integrity, CheckRun};
    let mut run = CheckRun::baseline(11);
    run.move_bytes = true;
    run.cfg.fault = FaultPlan {
        data_drop_pm: 1000,
        ..FaultPlan::none()
    };
    drive_data_integrity(&run, 4096).expect("run completes after the typed failure");
}

#[test]
fn time_limit_catches_runaway_patterns() {
    let spec = ClusterSpec::new(2, 1);
    let result = ClusterBuilder::new(spec, 1)
        .with_time_limit(simnet::SimTime::ZERO + simnet::SimDelta::from_us(10))
        .run_hosts(|_rank, ctx, _cluster| {
            ctx.compute(simnet::SimDelta::from_ms(100));
        });
    assert!(matches!(result, Err(SimError::TimeLimitExceeded { .. })));
}
