//! One sample: build the workload's cluster, drive it to completion,
//! tear it down, and check what it produced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use checker::{Conformance, ConformanceConfig};
use obs::LifecycleRecorder;
use offload::{FlightRecorder, Metrics};
use simnet::{Report, SimError};
use workloads::{
    drive_alltoall, drive_stencil, drive_verified_stencil, fanout, scale_alltoall, ScaleRun,
};

use crate::spec::{Kind, Workload};

/// Everything deterministic a sample produced. Two samples of one
/// workload, seed and size must compare equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub events: u64,
    /// `Report.end_time`, picoseconds of simulated time.
    pub end_ps: u64,
    /// Simulated processes, each an OS thread of the program under test.
    pub procs: u64,
    /// `Report.stats` counters in name order (`ScaleRun` fields for `Scale`).
    pub counters: Vec<(String, u64)>,
}

impl Outcome {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    fn of_report(r: &Report) -> Outcome {
        Outcome {
            events: r.events,
            end_ps: r.end_time.as_ps(),
            procs: r.procs.len() as u64,
            counters: r
                .stats
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    fn of_scale(r: &ScaleRun, ranks: u64) -> Outcome {
        Outcome {
            events: r.events,
            end_ps: r.virtual_ns * 1000,
            procs: ranks,
            counters: vec![
                ("scale.fingerprint".into(), r.fingerprint),
                ("simnet.sharded.shards".into(), r.shards),
                ("simnet.sharded.windows".into(), r.windows),
                ("simnet.sharded.xshard_events".into(), r.xshard_events),
            ],
        }
    }
}

pub struct Sample {
    /// Host seconds from building the cluster to joining its last thread.
    pub wall_s: f64,
    pub outcome: Outcome,
    /// The sample's lifecycle recorder, when one was attached.
    pub lifecycle: Option<LifecycleRecorder>,
}

/// Run `rounds` of `w` once.
///
/// * `verified` — the correctness gate: `Stencil` workloads run their
///   payload-verified twin (`VerifiedStencil` ones always do).
/// * `traced` — attach the metrics and lifecycle sinks (an `observed`
///   workload carries its four sinks regardless).
///
/// `Err` is a failed sample: the simulation aborted, a rank panicked
/// (payload mismatch, group error), a request ended in error, the
/// conformance checker objected, or a clean workload's transfer count
/// is not the one its shape dictates.
pub fn run_sample(
    w: &Workload,
    seed: u64,
    rounds: u64,
    verified: bool,
    traced: bool,
) -> Result<Sample, String> {
    let mut sinks = Vec::new();
    let mut lifecycle = None;
    let mut conformance = None;
    if w.kind != Kind::Scale && (w.observed || traced) {
        let lc = LifecycleRecorder::new();
        sinks.push(Metrics::new().sink());
        sinks.push(lc.sink());
        lifecycle = Some(lc);
    }
    if w.observed {
        let conf = Conformance::new(ConformanceConfig::default());
        sinks.push(FlightRecorder::new().sink());
        sinks.push(conf.sink());
        conformance = Some(conf);
    }

    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<Outcome, SimError> {
        if w.kind == Kind::Scale {
            let run = scale_alltoall(&w.scale_spec(seed, rounds));
            return Ok(Outcome::of_scale(&run, w.ranks()));
        }
        let mut run = w.check_run(seed);
        if !sinks.is_empty() {
            run.sink = Some(fanout(sinks));
        }
        let report = match w.kind {
            Kind::Stencil if !verified => drive_stencil(&run, w.bytes, rounds),
            Kind::Stencil | Kind::VerifiedStencil => drive_verified_stencil(&run, w.bytes, rounds),
            Kind::Alltoall => drive_alltoall(&run, w.bytes, rounds),
            Kind::Scale => unreachable!("handled above"),
        }?;
        Ok(Outcome::of_report(&report))
    }));
    let wall_s = start.elapsed().as_secs_f64();

    let outcome = match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => return Err(format!("{}: simulation aborted: {e}", w.name)),
        Err(_) => return Err(format!("{}: a simulated process panicked", w.name)),
    };
    for counter in [
        "offload.reliable.req_failures",
        "offload.integrity.failures",
    ] {
        if outcome.counter(counter) != 0 {
            return Err(format!(
                "{}: {counter} = {}",
                w.name,
                outcome.counter(counter)
            ));
        }
    }
    if w.clean() {
        // One RDMA write per transfer on the protocol path; one event
        // per raw delivery on bare simnet.
        let (what, got) = match w.kind {
            Kind::Scale => ("events", outcome.events),
            _ => ("rdma.write.count", outcome.counter("rdma.write.count")),
        };
        if got != w.msgs(rounds) {
            return Err(format!(
                "{}: {what} = {got}, the shape dictates {}",
                w.name,
                w.msgs(rounds)
            ));
        }
    }
    if let Some(conf) = conformance {
        if let Some(v) = conf.finish().first() {
            return Err(format!("{}: conformance violation: {v}", w.name));
        }
    }
    Ok(Sample {
        wall_s,
        outcome,
        lifecycle,
    })
}
