//! The whole stack must be bit-for-bit reproducible: identical seeds give
//! identical benchmark results and metrics documents. Identical virtual
//! timings, event counts and statistics are pinned per scenario by
//! `tests/fingerprints.rs`.

use bluefield_offload::apps::{
    drive_group_stencil, drive_stencil, ialltoall_overlap, stencil3d, CheckRun, Runtime,
};
use bluefield_offload::dpu::{profile, Metrics};
use bluefield_offload::sim::Report;

#[test]
fn benchmark_results_are_reproducible() {
    let a = ialltoall_overlap(2, 2, 16 * 1024, 1, 1, Runtime::proposed());
    let b = ialltoall_overlap(2, 2, 16 * 1024, 1, 1, Runtime::proposed());
    assert_eq!(a.pure_us, b.pure_us);
    assert_eq!(a.overall_us, b.overall_us);
    let s1 = stencil3d(2, 2, 64, 1, 1, Runtime::Intel);
    let s2 = stencil3d(2, 2, 64, 1, 1, Runtime::Intel);
    assert_eq!(s1.overall_us, s2.overall_us);
    assert_eq!(s1.pure_us, s2.pure_us);
}

#[test]
fn metrics_reports_are_reproducible() {
    // Two same-seed runs must fold to byte-identical metrics JSON — the
    // property that makes bench_results/ baselines diffable.
    let run = |seed| {
        let mut cr = CheckRun::baseline(seed);
        let m = Metrics::new();
        cr.sink = Some(m.sink());
        drive_group_stencil(&cr, 8192, 2).expect("clean run");
        m.report().to_json("determinism")
    };
    let a = run(17);
    let b = run(17);
    assert_eq!(a, b, "metrics JSON must be deterministic");
    obs::validate_metrics(&a).expect("schema-valid");
    // A different seed still validates (and may legitimately differ).
    obs::validate_metrics(&run(18)).expect("schema-valid");
}

#[test]
fn profiling_does_not_perturb_a_protocol_run() {
    // `basic_short`'s shape: 2x2 ranks, one proxy per DPU, 256 B faces.
    let mut run = CheckRun::baseline(1);
    run.move_bytes = true;
    let observable = |r: Report| {
        let counters: Vec<(String, u64)> = r
            .stats
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let times: Vec<(String, u64)> = r
            .stats
            .times()
            .map(|(k, t)| (k.to_string(), t.as_ps()))
            .collect();
        (r.events, r.end_time, counters, times)
    };
    let plain = observable(drive_stencil(&run, 256, 20).expect("clean run"));
    profile::set_enabled(true);
    let profiled = drive_stencil(&run, 256, 20).expect("clean profiled run");
    profile::set_enabled(false);
    let report = profile::take_report();
    assert_eq!(observable(profiled), plain);
    for scope in [
        "ctrl_encode",
        "ctrl_decode",
        "cq_poll",
        "cache_lookup",
        "credit_admission",
    ] {
        let calls: u64 = report
            .scopes
            .iter()
            .filter(|(path, _)| path.rsplit(';').next() == Some(scope))
            .map(|(_, agg)| agg.count)
            .sum();
        assert!(calls > 0, "the basic path never entered {scope}");
    }
    // The flag is left off: a run after the report collects nothing.
    drive_stencil(&run, 256, 1).expect("clean run");
    assert!(profile::take_report().scopes.is_empty());
}
