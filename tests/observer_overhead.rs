//! What the observer path costs a run, and how often the engine calls it.
//!
//! `sinks_cost_in_situ` drives the benchmark's `basic_short` shape (2×2
//! ranks, one proxy per DPU, 256 B faces, 500 rounds: 4 000 transfers,
//! ~72 k protocol events) with no sink, with each of the four observer
//! sinks alone, and with all four fanned out, interleaving the
//! configurations sample by sample so drift on the box hits them alike.
//! It prints µs per transfer for each (best and median of the samples,
//! and both over the no-sink run) and gates no wall-clock number.
//! Release only; `ci.sh` runs it with `cargo test --release --test
//! observer_overhead -- --ignored --nocapture`. Pin it to one CPU
//! (`taskset -c 1`) for numbers worth comparing.
//!
//! `a_sink_is_called_once_per_batch` is the tier-1 half: the engine
//! hands a sink whole batches, so the number of calls follows the number
//! of batches, not of events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bluefield_offload::apps::{drive_stencil, fanout, CheckRun};
use bluefield_offload::dpu::{FlightRecorder, Metrics};
use bluefield_offload::sim::{EventSink, EMIT_BATCH};
use checker::{Conformance, ConformanceConfig};
use obs::LifecycleRecorder;

/// Face bytes of the `basic_short` shape.
const FACE: u64 = 256;
/// Transfers per round: four ranks, each sending a face each way.
const MSGS_PER_ROUND: u64 = 8;

/// One `basic_short`-shaped run; wall seconds.
fn run(sink: Option<EventSink>, rounds: u64) -> f64 {
    let mut run = CheckRun::baseline(5);
    run.move_bytes = true;
    run.sink = sink;
    let start = Instant::now();
    let report = drive_stencil(&run, FACE, rounds).expect("clean run");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(
        report.stats.counter("rdma.write.count"),
        MSGS_PER_ROUND * rounds
    );
    wall
}

#[test]
fn a_sink_is_called_once_per_batch() {
    let calls = Arc::new(AtomicU64::new(0));
    let events = Arc::new(AtomicU64::new(0));
    let (c, e) = (Arc::clone(&calls), Arc::clone(&events));
    let counting: EventSink = Arc::new(move |batch| {
        c.fetch_add(1, Ordering::Relaxed);
        e.fetch_add(batch.len() as u64, Ordering::Relaxed);
    });
    let mut run = CheckRun::baseline(5);
    run.sink = Some(counting);
    drive_stencil(&run, FACE, 20).expect("clean run");
    let (calls, events) = (
        calls.load(Ordering::Relaxed),
        events.load(Ordering::Relaxed),
    );
    assert!(events > 10 * EMIT_BATCH as u64, "{events} events");
    let batches = events.div_ceil(EMIT_BATCH as u64);
    assert!(
        calls <= batches + 1,
        "{calls} sink calls for {events} events ({batches} batches)"
    );
}

/// A fresh set of observers for one sample, as a run would attach them.
type Observers = fn() -> Option<EventSink>;

fn conformance() -> EventSink {
    Conformance::new(ConformanceConfig::default()).sink()
}

const CONFIGS: [(&str, Observers); 6] = [
    ("no sink", || None),
    ("Metrics", || Some(Metrics::new().sink())),
    ("LifecycleRecorder", || {
        Some(LifecycleRecorder::new().sink())
    }),
    ("FlightRecorder", || Some(FlightRecorder::new().sink())),
    ("Conformance", || Some(conformance())),
    ("all four", || {
        Some(fanout(vec![
            Metrics::new().sink(),
            LifecycleRecorder::new().sink(),
            FlightRecorder::new().sink(),
            conformance(),
        ]))
    }),
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[ignore = "wall-clock measurement; release mode only"]
fn sinks_cost_in_situ() {
    const ROUNDS: u64 = 500;
    const SAMPLES: usize = 25;
    let us_per_msg = 1e6 / (MSGS_PER_ROUND * ROUNDS) as f64;
    for (_, observers) in CONFIGS {
        run(observers(), ROUNDS);
    }
    let mut walls = vec![Vec::with_capacity(SAMPLES); CONFIGS.len()];
    for _ in 0..SAMPLES {
        for (i, (_, observers)) in CONFIGS.iter().enumerate() {
            walls[i].push(run(observers(), ROUNDS) * us_per_msg);
        }
    }
    let stats: Vec<(f64, f64)> = walls
        .into_iter()
        .map(|w| (w.iter().copied().fold(f64::INFINITY, f64::min), median(w)))
        .collect();
    let (bare_best, bare_median) = stats[0];
    println!(
        "observer overhead: basic_short shape, {} transfers a sample, {SAMPLES} interleaved samples",
        MSGS_PER_ROUND * ROUNDS
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "µs/transfer", "best", "median", "+best", "+median"
    );
    for ((name, _), (best, med)) in CONFIGS.iter().zip(stats) {
        println!(
            "{name:<18} {best:>10.3} {med:>10.3} {:>+10.3} {:>+10.3}",
            best - bare_best,
            med - bare_median
        );
    }
}
