//! Mechanically check the paper's overlap and caching claims with the
//! metrics layer:
//!
//! * Group offload (Figs. 12/14): once a group's metadata and caches are
//!   warm, the host CPU is never needed between `Group_Offload_call`
//!   returning and `Group_Wait` completing — zero interventions inside
//!   warm overlap windows.
//! * Basic offload: FIN notices arrive one at a time, so the host *does*
//!   wake with work outstanding — the counter is nonzero. Same on the
//!   staging path, which additionally pays the store-and-forward hop
//!   (hop-1 bytes == hop-2 bytes).
//! * Registration caching (§VII-B, Fig. 5): the second iteration over
//!   the same buffers is served from the GVMI caches.
//! * Malformed control traffic is dropped and counted, never fatal.

use bluefield_offload::apps::{drive_group_stencil, drive_stencil, CheckRun};
use bluefield_offload::dpu::{Metrics, Offload, OffloadConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};

fn observed(run: &mut CheckRun) -> Metrics {
    let m = Metrics::new();
    run.sink = Some(m.sink());
    m
}

#[test]
fn warm_group_windows_need_no_host_intervention() {
    let mut run = CheckRun::baseline(21);
    let m = observed(&mut run);
    drive_group_stencil(&run, 8192, 3).expect("clean run");
    let r = m.report();
    assert_eq!(r.finalized_ranks, 4);
    // One overlap window per rank per generation, all closed by
    // Group_Wait.
    assert_eq!(r.windows.len(), 4 * 3);
    assert!(r.windows.iter().all(|w| w.closed));
    let warm = r.windows.iter().filter(|w| w.gen >= 2).count();
    assert_eq!(warm, 4 * 2, "generations 2 and 3 are warm on every rank");
    assert_eq!(
        r.warm_window_interventions, 0,
        "a warm group replay must never wake the host CPU with work \
         outstanding (paper Figs. 12/14): {:?}",
        r.windows
    );
    // Warm calls are doorbells, not packet re-installs.
    assert!(r.group_execs > 0, "generations 2+ must use GroupExec");
}

#[test]
fn second_iteration_hits_the_registration_caches() {
    let mut run = CheckRun::baseline(22);
    let m = observed(&mut run);
    // Two rounds over the same four faces: round 1 populates the host
    // GVMI cache and the DPU cross-registration cache, round 2 reuses.
    drive_stencil(&run, 4096, 2).expect("clean run");
    let r = m.report();
    assert!(
        r.host_gvmi_cache.hits > 0,
        "round 2 must hit the host GVMI cache: {:?}",
        r.host_gvmi_cache
    );
    assert!(
        r.dpu_cross_cache.hits > 0,
        "round 2 must hit the DPU cross-registration cache: {:?}",
        r.dpu_cross_cache
    );
    assert!(r.host_gvmi_cache.hit_rate() > 0.0);
    assert!(r.dpu_cross_cache.hit_rate() > 0.0);
    // Registrations actually performed == misses, not lookups.
    assert_eq!(
        r.cross_regs,
        r.dpu_cross_cache.misses + r.dpu_cross_cache.stale
    );
}

#[test]
fn basic_offload_wakes_the_host_with_work_outstanding() {
    let mut run = CheckRun::baseline(23);
    let m = observed(&mut run);
    drive_stencil(&run, 4096, 2).expect("clean run");
    let r = m.report();
    // Four requests per rank per round complete via individual FIN
    // notices; all but the last find other requests still pending.
    assert!(
        r.host_interventions > 0,
        "basic-primitive completion requires host attention: {r:?}"
    );
    assert_eq!(r.bytes_staging_hop1, 0, "GVMI path must not stage");
    assert!(r.bytes_cross_gvmi > 0);
}

#[test]
fn staging_path_stages_every_byte_and_wakes_the_host() {
    let mut run = CheckRun::baseline(24);
    run.cfg = OffloadConfig::staging();
    let m = observed(&mut run);
    drive_stencil(&run, 4096, 2).expect("clean run");
    let r = m.report();
    assert!(r.host_interventions > 0);
    assert_eq!(r.bytes_cross_gvmi, 0, "staging path must not cross-write");
    assert!(r.bytes_staging_hop1 > 0);
    assert_eq!(
        r.bytes_staging_hop1, r.bytes_staging_hop2,
        "every staged byte is pulled once (hop 1) and forwarded once (hop 2)"
    );
}

#[test]
fn malformed_ctrl_at_proxy_is_counted_not_fatal() {
    let m = Metrics::new();
    let report = ClusterBuilder::new(ClusterSpec::new(2, 1), 33)
        .with_event_sink(m.sink())
        .run_async(
            |rank, ctx, cluster| async move {
                let inbox = Inbox::new();
                let off = Offload::init(
                    rank,
                    ctx.clone(),
                    cluster.clone(),
                    &inbox,
                    OffloadConfig::proposed(),
                );
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                if rank == 0 {
                    // A foreign payload lands on the proxy's control
                    // channel; the proxy must drop it and keep serving.
                    fab.send_packet(
                        &ctx,
                        ep,
                        cluster.proxy_for_rank(rank),
                        64,
                        Box::new("not a CtrlMsg"),
                    )
                    .expect("inject garbage");
                }
                let buf = fab.alloc(ep, 4096);
                let req = if rank == 0 {
                    off.send_offload(buf, 4096, 1, 7)
                } else {
                    off.recv_offload(buf, 4096, 0, 7)
                };
                off.wait(req).await;
                off.finalize().await;
            },
            Some(offload::proxy_fn(OffloadConfig::proposed())),
        )
        .expect("run survives garbage");
    let r = m.report();
    assert_eq!(r.ctrl_dropped_proxy, 1, "the drop must surface in metrics");
    assert_eq!(r.ctrl_dropped_host, 0);
    assert_eq!(report.stats.counter("offload.proxy.bad_ctrl"), 1);
    // The real transfer still completed.
    assert_eq!(r.pairs_matched, 1);
    assert_eq!(r.finalized_ranks, 2);
}
