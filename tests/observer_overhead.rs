//! How often the engine calls an event sink: it hands a sink whole
//! batches, so the number of calls follows the number of batches, not of
//! events. What the sinks cost a run is the benchmark's `observed`
//! workload and its per-sink `*.ns_per_event` keys.

use std::sync::Arc;

use bluefield_offload::apps::{drive_stencil, CheckRun};
use bluefield_offload::sim::{EventSink, EMIT_BATCH};

/// Face bytes of the benchmark's `basic_short` shape.
const FACE: u64 = 256;

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "test code: the sink counts its calls across the run"
)]
fn a_sink_is_called_once_per_batch() {
    use std::sync::atomic::{AtomicU64, Ordering};
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
