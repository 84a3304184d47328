//! The byte kernels and the payload mover may change how fast bytes move,
//! never what a run does: a verified stencil under the data-plane fault
//! plan `flip=5,torn=5,ddrop=3` must end at the same virtual time with
//! the same counters — faults injected, corruptions caught, retransmits —
//! as it did before `rdma::mem`'s kernels were rewritten. The snapshot was
//! written by this test at that commit; regenerate (only for a deliberate
//! protocol change) with `UPDATE_GOLDEN=1 cargo test --test
//! payload_fault_stats`.

use offload::FaultPlan;
use std::fmt::Write;
use std::path::PathBuf;
use workloads::{drive_verified_stencil, CheckRun};

#[test]
fn faulted_stencil_stats_match_the_snapshot() {
    let mut run = CheckRun::baseline(31);
    run.move_bytes = true;
    // Pinned to the classic engine, like the other byte-compared goldens.
    run.threads = Some(1);
    run.cfg.fault = FaultPlan::parse("flip=5,torn=5,ddrop=3,seed=31").expect("plan parses");
    // 5200 B faces: one round of pattern lanes plus a serial tail.
    let report = drive_verified_stencil(&run, 5200, 150).expect("faults heal");

    let mut doc = format!("end_time_ps {}\n", report.end_time.as_ps());
    for (name, n) in report.stats.counters() {
        writeln!(doc, "{name} {n}").expect("write to string");
    }
    for (name, t) in report.stats.times() {
        writeln!(doc, "{name} {}ps", t.as_ps()).expect("write to string");
    }
    assert!(
        report.stats.counter("rdma.fault.payload") > 0
            && report.stats.counter("offload.integrity.corrupt") > 0,
        "the plan must fire, or this pins nothing:\n{doc}"
    );

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/payload_fault_stats.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &doc).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden snapshot");
    assert_eq!(doc, golden, "a faulted run's counters drifted");
}
