//! Telemetry-bus conservation and determinism, end to end through the
//! offload protocol: for any run, the per-counter sum of snapshot
//! deltas published by an [`obs::TelemetryBus`] must equal the final
//! frozen [`Metrics`] totals exactly (no event lost at a window
//! boundary, none double-counted), an external metrics sink fed from
//! the same fan-out must agree. Swept proptest-style over seeds and
//! proxy fan-outs.

use bluefield_offload::apps::{drive_stencil, fanout, CheckRun};
use bluefield_offload::dpu::Metrics;
use obs::{TelemetryBus, TelemetrySnapshot};
use proptest::prelude::*;

/// Telemetry window width. Small enough that a 4-rank stencil run
/// crosses several boundaries, so conservation is summed over a real
/// multi-snapshot stream rather than a single tail window.
const INTERVAL_PS: u64 = 250_000;

/// One observed stencil run: returns the bus's frozen totals, the
/// published snapshots, and the externally accumulated totals.
#[allow(clippy::type_complexity)]
fn observed_run(
    seed: u64,
    proxies: usize,
) -> (
    Vec<(&'static str, u64)>,
    Vec<TelemetrySnapshot>,
    Vec<(&'static str, u64)>,
) {
    let mut run = CheckRun::baseline(seed);
    run.proxies_per_dpu = proxies;
    let external = Metrics::new();
    let bus = TelemetryBus::new(INTERVAL_PS);
    run.sink = Some(fanout(vec![external.sink(), bus.sink()]));
    drive_stencil(&run, 1024, 2).expect("clean stencil run");
    let (bus_report, snaps) = bus.finish();
    (bus_report.totals(), snaps, external.report().totals())
}

/// Sum of `key` deltas across a snapshot stream.
fn delta_sum(snaps: &[TelemetrySnapshot], key: &str) -> u64 {
    snaps
        .iter()
        .flat_map(|s| s.deltas.iter())
        .filter(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .sum()
}

fn check_conservation(seed: u64, proxies: usize) -> Vec<TelemetrySnapshot> {
    let (bus_totals, snaps, external_totals) = observed_run(seed, proxies);
    assert!(
        snaps.len() >= 2,
        "seed {seed}: expected a multi-snapshot stream, got {}",
        snaps.len()
    );
    let seqs: Vec<u64> = snaps.iter().map(|s| s.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seed {seed}: seq must be strictly increasing: {seqs:?}"
    );
    assert!(
        snaps.windows(2).all(|w| w[0].upto_ps <= w[1].upto_ps),
        "seed {seed}: window bounds must be monotone"
    );
    for (key, total) in &bus_totals {
        assert_eq!(
            delta_sum(&snaps, key),
            *total,
            "seed {seed} proxies {proxies}: \
             snapshot deltas must sum to the frozen total for {key}"
        );
    }
    assert_eq!(
        bus_totals, external_totals,
        "seed {seed}: the bus's internal accumulator and an external \
         sink on the same fan-out must agree"
    );
    assert!(
        delta_sum(&snaps, "bus_events") > 0,
        "seed {seed}: the bus saw no events at all"
    );
    snaps
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    #[test]
    fn snapshot_deltas_conserve_totals(seed in 1u64..10_000) {
        for proxies in [1usize, 2, 4] {
            check_conservation(seed, proxies);
        }
    }
}

#[test]
fn snapshot_stream_is_deterministic() {
    // Snapshots are a pure function of the seed's event stream: the same
    // run twice publishes the same windows with the same deltas.
    assert_eq!(check_conservation(99, 1), check_conservation(99, 1));
}
