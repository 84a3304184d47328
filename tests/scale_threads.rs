//! The scale workloads run every rank on the thread that calls them: a
//! rank is a future process polled by the simulation's one loop, so a
//! 64-rank run starts no OS thread at all.
//!
//! One test, alone in its binary: it counts the OS threads of the whole
//! process, which a neighbouring test would disturb.

mod common;

use std::sync::Arc;

use bluefield_offload::apps::{scale_alltoall_with, scale_stencil_with, ScaleObs, ScaleSpec};
use bluefield_offload::sim::{Emitted, EventSink};
use common::{all_ran_on_the_caller, note, os_threads, Seen};

#[test]
fn both_scale_workloads_run_every_rank_on_the_caller() {
    // The quick shape of the `ext_scale_*` benches: 8 nodes x 8 ranks.
    // Every rank emits a tick per round once a sink is installed, and a
    // sink batch is delivered on the thread running the loop, mid-run:
    // the sink notes the thread and the process's OS thread count.
    let spec = ScaleSpec {
        nodes: 8,
        ppn: 8,
        iters: 2,
        seed: 42,
        threads: 1,
    };
    type Run = fn(&ScaleSpec, ScaleObs) -> bluefield_offload::apps::ScaleRun;
    let runs: [(&str, Run); 2] = [
        ("scale_alltoall", scale_alltoall_with),
        ("scale_stencil", scale_stencil_with),
    ];
    for (label, run) in runs {
        let seen: Seen = Arc::default();
        let sink_seen = Arc::clone(&seen);
        let sink: EventSink = Arc::new(move |_: &[Emitted]| note(&sink_seen, "sink".into()));
        let before = os_threads();
        let result = run(&spec, ScaleObs { sink: Some(sink) });
        assert!(result.events > 0, "{label}: the run did nothing");
        all_ran_on_the_caller(&seen, &["sink"], before, label);
        assert_eq!(os_threads(), before, "{label}: a thread outlived the run");
    }
}
