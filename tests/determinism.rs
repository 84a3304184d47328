//! The whole stack must be bit-for-bit reproducible: identical seeds give
//! identical benchmark results and metrics documents. Identical virtual
//! timings, event counts and statistics are pinned per scenario by
//! `tests/fingerprints.rs`.

use bluefield_offload::apps::{
    drive_group_stencil, ialltoall_overlap, stencil3d, CheckRun, Runtime,
};
use bluefield_offload::dpu::Metrics;

#[test]
fn benchmark_results_are_reproducible() {
    let a = ialltoall_overlap(2, 2, 16 * 1024, 1, 1, Runtime::proposed(), 9);
    let b = ialltoall_overlap(2, 2, 16 * 1024, 1, 1, Runtime::proposed(), 9);
    assert_eq!(a.pure_us, b.pure_us);
    assert_eq!(a.overall_us, b.overall_us);
    let s1 = stencil3d(2, 2, 64, 1, 1, Runtime::Intel, 4);
    let s2 = stencil3d(2, 2, 64, 1, 1, Runtime::Intel, 4);
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
