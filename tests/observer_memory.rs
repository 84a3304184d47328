//! The observers hold state that follows what is in flight (and the
//! number of messages), never the number of events: a 4 000-round
//! stencil on the benchmark's `basic_short` shape — 32 000 transfers,
//! ~576 k protocol events — with the metrics, lifecycle, flight and
//! conformance sinks fanned out may raise the process's peak resident set
//! by at most 16 MiB over the same run with no sink. With a lifecycle
//! recorder that logs every event, the four sinks add ~60 MiB.
//!
//! Alone in its binary, so no other test shares the process's `VmHWM`.
//! Release only (an unoptimized run takes minutes); `ci.sh` runs it with
//! `cargo test --release --test observer_memory -- --ignored`.

use bluefield_offload::apps::{drive_stencil, fanout, CheckRun};
use bluefield_offload::dpu::{FlightRecorder, Metrics};
use bluefield_offload::sim::EventSink;
use checker::{Conformance, ConformanceConfig};
use obs::LifecycleRecorder;

const ROUNDS: u64 = 4000;

/// `VmHWM` of this process in KiB: the peak resident set so far.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("VmHWM line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB")
}

fn run(sink: Option<EventSink>) {
    let mut run = CheckRun::baseline(5);
    run.move_bytes = true;
    run.sink = sink;
    let report = drive_stencil(&run, 256, ROUNDS).expect("clean run");
    assert_eq!(report.stats.counter("rdma.write.count"), 8 * ROUNDS);
}

#[test]
#[ignore = "576 k events; release mode only"]
fn observer_state_is_bounded() {
    // Bare runs first, until one no longer raises the peak: the first few
    // each spread the allocator's per-thread arenas a little further (with
    // glibc's malloc, ~6 MiB on the second run and nothing by the fourth),
    // which is not what this test measures.
    let mut bare = 0;
    for _ in 0..6 {
        run(None);
        let peak = peak_rss_kib();
        let settled = peak - bare < 1024;
        bare = peak;
        if settled {
            break;
        }
    }

    let lifecycle = LifecycleRecorder::new();
    let flight = FlightRecorder::new();
    let conformance = Conformance::new(ConformanceConfig::default());
    run(Some(fanout(vec![
        Metrics::new().sink(),
        lifecycle.sink(),
        flight.sink(),
        conformance.sink(),
    ])));
    let grown = peak_rss_kib().saturating_sub(bare);

    assert!(lifecycle.len() > 500_000, "{} events", lifecycle.len());
    assert!(conformance.finish().is_empty());
    assert!(
        grown < 16 * 1024,
        "four sinks raised peak RSS by {grown} KiB over a bare run ({bare} KiB)"
    );
}
