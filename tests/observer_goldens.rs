//! What the observers report, pinned byte for byte: the `lifecycle/v1`
//! documents of two fixed-seed runs and the conformance checker's
//! rendered `finish()` verdicts for its seeded-bug scenarios.
//!
//! The snapshots were written by this test before the observers folded
//! their state online (the lifecycle recorder used to log every event and
//! rebuild everything in `report()`; the checker kept every flow and every
//! id for the whole run). How an observer stores its state may change;
//! what it concludes from a stream may not. The runs inherit
//! `SIMNET_THREADS`, so both engines must reproduce the same files.
//! Regenerate (only for a deliberate change of a report) with
//! `UPDATE_GOLDEN=1 cargo test --test observer_goldens`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use bluefield_offload::apps::{drive_alltoall, drive_verified_stencil, CheckRun};
use bluefield_offload::dpu::{FaultPlan, HealthConfig};
use checker::{
    doomed_group_workload, stencil_workload, Conformance, ConformanceConfig, Scenario, Workload,
};
use obs::LifecycleRecorder;

fn check_golden(name: &str, doc: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, doc).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden snapshot");
    assert_eq!(doc, golden, "{name} drifted");
}

fn lifecycle_json(mut run: CheckRun, drive: impl Fn(&CheckRun)) -> String {
    let rec = LifecycleRecorder::new();
    run.sink = Some(rec.sink());
    drive(&run);
    let mut doc = rec.report().to_json().render();
    doc.push('\n');
    doc
}

#[test]
fn faulted_stencil_lifecycle_matches_the_snapshot() {
    let mut run = CheckRun::baseline(41);
    run.move_bytes = true;
    run.cfg.fault = FaultPlan::parse("flip=5,torn=5,ddrop=3,crash=12,seed=41").expect("plan");
    let doc = lifecycle_json(run, |run| {
        let report = drive_verified_stencil(run, 2048, 6).expect("faults heal");
        assert!(
            report.stats.counter("offload.integrity.corrupt") > 0
                && report.stats.counter("offload.reliable.proxy_restarts") > 0,
            "the plan must corrupt payloads and crash a proxy, or this pins little"
        );
    });
    check_golden("lifecycle_faulted_stencil.json", &doc);
}

#[test]
fn armed_alltoall_lifecycle_matches_the_snapshot() {
    let mut run = CheckRun::baseline(43);
    run.cfg = run
        .cfg
        .clone()
        .with_health(HealthConfig::armed())
        .with_fault(FaultPlan::parse("xreg=700,seed=43").expect("plan"));
    let doc = lifecycle_json(run, |run| {
        drive_alltoall(run, 2048, 3).expect("breakers keep the run lossless");
    });
    assert!(
        doc.contains("\"breakers\"") && doc.contains("\"warm\":true"),
        "the run must trip a breaker and replay warm windows:\n{doc}"
    );
    check_golden("lifecycle_armed_alltoall.json", &doc);
}

/// Run a seeded-bug scenario under a checker and render what `finish()`
/// concludes, however the run itself ended (a dropped FIN deadlocks, a
/// skipped cross-registration panics a rank).
fn verdict(name: &str, workload: &Workload, scenario: &Scenario, out: &mut String) {
    let checker = Conformance::new(ConformanceConfig::default());
    let sink = checker.sink();
    let _ = catch_unwind(AssertUnwindSafe(|| workload(scenario, sink)));
    let violations = checker.finish();
    out.push_str(&format!("# {name}: {} violations\n", violations.len()));
    for v in violations {
        out.push_str(&format!("{v}\n"));
    }
}

#[test]
fn seeded_bug_verdicts_match_the_snapshot() {
    let mut doc = String::new();
    verdict(
        "drop_first_fin",
        &stencil_workload(),
        &Scenario::baseline(3).with_fault(FaultPlan::drop_first_fin()),
        &mut doc,
    );
    verdict(
        "skip_cross_reg",
        &stencil_workload(),
        &Scenario::baseline(0).with_fault(FaultPlan::skip_cross_reg()),
        &mut doc,
    );
    let doomed = FaultPlan {
        drop_group_packets: true,
        ..FaultPlan::none()
    };
    verdict(
        "doomed_group",
        &doomed_group_workload(),
        &Scenario::baseline(1).with_fault(doomed.with_seed(1)),
        &mut doc,
    );
    check_golden("conformance_verdicts.txt", &doc);
}
