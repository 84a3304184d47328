//! The flight-dump text format, pinned.
//!
//! `tests/golden/flight_all_variants.txt` is a dump of
//! `ProtoEvent::samples()` — every variant, every small-enum value,
//! `Option<MrKey>` `None`, `0`/`MAX` integers, `at_ps=0` — written by the
//! hand-written per-variant renderer this repo had before the
//! `proto_events!` table (`events.rs`) generated the codec. The generated
//! codec must reproduce it byte for byte and parse it back to a fixpoint;
//! nothing else in the tree compares a dump against a committed file.
//! A deliberate format change regenerates it by writing `sample_dump()`
//! over the file.

use bluefield_offload::dpu::{parse_flight_dump, replay_into, FlightRecorder, Metrics, ProtoEvent};
use bluefield_offload::sim::{Emitted, Pid, SimTime};
use checker::{Conformance, ConformanceConfig};

const GOLDEN: &str = include_str!("golden/flight_all_variants.txt");

fn recorder() -> FlightRecorder {
    FlightRecorder::with_capacity(usize::MAX)
}

fn sample_dump() -> String {
    let rec = recorder();
    let sink = rec.sink();
    for (i, ev) in ProtoEvent::samples().iter().enumerate() {
        sink(&[Emitted {
            at: SimTime::from_ps(i as u64 * 1_000),
            pid: Pid::from_index(i % 4),
            event: ev,
        }]);
    }
    rec.dump()
}

#[test]
fn generated_codec_reproduces_the_hand_written_dump() {
    assert_eq!(sample_dump(), GOLDEN);
}

#[test]
fn golden_dump_is_a_parse_replay_fixpoint() {
    let records = parse_flight_dump(GOLDEN).expect("golden parses");
    let rec = recorder();
    replay_into(&records, &rec.sink());
    assert_eq!(rec.dump(), GOLDEN);
}

/// `metrics.rs` and `conformance.rs` match `ProtoEvent` by hand and
/// without a wildcard; this shows the arms also run — on every variant,
/// at its edge values — without panicking. (Conformance is free to call
/// the stream a violation; it is not a protocol run.)
#[test]
fn hand_written_sinks_accept_every_variant() {
    let samples = ProtoEvent::samples();
    let metrics = Metrics::new();
    let conformance = Conformance::new(ConformanceConfig::default());
    for sink in [metrics.sink(), conformance.sink()] {
        for (i, ev) in samples.iter().enumerate() {
            sink(&[Emitted {
                at: SimTime::from_ps(i as u64 * 1_000),
                pid: Pid::from_index(i % 4),
                event: ev,
            }]);
        }
    }
    assert_eq!(metrics.report().events, samples.len() as u64);
    assert_eq!(conformance.events_seen(), samples.len() as u64);
    conformance.finish();
}
