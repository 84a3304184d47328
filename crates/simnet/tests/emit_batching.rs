//! Batched event delivery: a sink receives slices of emissions, and
//! batching changes nothing a sink can conclude. Every emission arrives
//! once, in emission order, with its time and pid, in slices of
//! `1..=EMIT_BATCH`, and all of them have arrived by the time `run()`
//! returns — however it returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use simnet::{EventSink, SimDelta, SimError, SimTime, Simulation, EMIT_BATCH};

/// `(at_ps, pid, value)` of one emission; `&str` values are prefixed `s:`.
type Seen = (u64, usize, String);

/// A sink recording every emission it understands, and the length of
/// every slice it was handed.
#[derive(Clone, Default)]
struct Recorder {
    seen: Arc<Mutex<Vec<Seen>>>,
    slices: Arc<Mutex<Vec<usize>>>,
}

impl Recorder {
    fn sink(&self) -> EventSink {
        let me = self.clone();
        Arc::new(move |batch| {
            me.slices.lock().expect("slice log").push(batch.len());
            let mut seen = me.seen.lock().expect("event log");
            for e in batch {
                let v = if let Some(v) = e.event.downcast_ref::<u64>() {
                    v.to_string()
                } else if let Some(s) = e.event.downcast_ref::<&str>() {
                    format!("s:{s}")
                } else {
                    continue;
                };
                seen.push((e.at.as_ps(), e.pid.index(), v));
            }
        })
    }

    fn seen(&self) -> Vec<Seen> {
        self.seen.lock().expect("event log").clone()
    }

    /// Slice lengths, checked against the delivery contract.
    fn slices(&self) -> Vec<usize> {
        let slices = self.slices.lock().expect("slice log").clone();
        assert!(
            slices.iter().all(|&n| (1..=EMIT_BATCH).contains(&n)),
            "a slice outside 1..={EMIT_BATCH}: {slices:?}"
        );
        slices
    }
}

/// `n` plain `u64` emissions at time zero by process 0, as recorded.
fn zeros(n: u64) -> Vec<Seen> {
    (0..n).map(|v| (0, 0, v.to_string())).collect()
}

#[test]
fn interleaved_emits_arrive_complete_and_in_order_across_batches() {
    let total = 2 * EMIT_BATCH as u64 + 1;
    let rec = Recorder::default();
    let mut sim = Simulation::new(0);
    sim.set_event_sink(rec.sink());
    // Emission `k` is made by process `k % 3` at `k` ns.
    for p in 0..3u64 {
        sim.spawn(format!("p{p}"), move |ctx| {
            ctx.sleep(SimDelta::from_ns(p));
            for k in (p..total).step_by(3) {
                ctx.emit(&k);
                ctx.sleep(SimDelta::from_ns(3));
            }
        });
    }
    sim.run().expect("clean run");
    let want: Vec<Seen> = (0..total)
        .map(|k| (k * 1000, (k % 3) as usize, k.to_string()))
        .collect();
    assert_eq!(rec.seen(), want);
    assert_eq!(rec.slices(), vec![EMIT_BATCH, EMIT_BATCH, 1]);
}

#[test]
fn emits_of_different_types_keep_their_order() {
    let rec = Recorder::default();
    let mut sim = Simulation::new(0);
    sim.set_event_sink(rec.sink());
    sim.spawn("mixed", |ctx| {
        ctx.emit(&1u64);
        ctx.emit(&"a");
        ctx.emit(&2u64);
        ctx.emit(&3u64);
        ctx.sleep(SimDelta::from_ns(1));
        ctx.emit(&"b");
        ctx.emit(&"c");
        ctx.emit(&4u64);
    });
    sim.run().expect("clean run");
    let got: Vec<String> = rec.seen().into_iter().map(|(_, _, v)| v).collect();
    assert_eq!(got, ["1", "s:a", "2", "3", "s:b", "s:c", "4"]);
    rec.slices();
}

#[test]
fn a_run_without_emits_never_calls_the_sink() {
    let rec = Recorder::default();
    let mut sim = Simulation::new(0);
    sim.set_event_sink(rec.sink());
    sim.spawn("quiet", |ctx| ctx.sleep(SimDelta::from_us(1)));
    sim.run().expect("clean run");
    assert!(rec.slices().is_empty());
}

#[test]
fn a_clean_run_flushes_the_partial_batch() {
    let rec = Recorder::default();
    let mut sim = Simulation::new(0);
    sim.set_event_sink(rec.sink());
    sim.spawn("few", |ctx| (0..5u64).for_each(|v| ctx.emit(&v)));
    sim.run().expect("clean run");
    assert_eq!(rec.seen(), zeros(5));
    assert_eq!(rec.slices(), vec![5]);
}

#[test]
fn a_deadlock_flushes_before_the_error_returns() {
    let rec = Recorder::default();
    let mut sim = Simulation::new(0);
    sim.set_event_sink(rec.sink());
    sim.spawn("stuck", |ctx| {
        (0..5u64).for_each(|v| ctx.emit(&v));
        let _ = ctx.recv();
    });
    assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
    assert_eq!(rec.seen(), zeros(5));
}

#[test]
fn a_time_limit_flushes_before_the_error_returns() {
    let rec = Recorder::default();
    let mut sim = Simulation::new(0);
    sim.set_event_sink(rec.sink());
    sim.set_time_limit(SimTime::ZERO + SimDelta::from_us(1));
    sim.spawn("slow", |ctx| {
        (0..5u64).for_each(|v| ctx.emit(&v));
        ctx.sleep(SimDelta::from_ms(1));
    });
    assert!(matches!(sim.run(), Err(SimError::TimeLimitExceeded { .. })));
    assert_eq!(rec.seen(), zeros(5));
}

#[test]
fn a_process_panic_flushes_before_it_is_re_raised() {
    let rec = Recorder::default();
    let mut sim = Simulation::new(0);
    sim.set_event_sink(rec.sink());
    sim.spawn("boom", |ctx| {
        (0..5u64).for_each(|v| ctx.emit(&v));
        panic!("bang");
    });
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the panic surfaces");
    let msg = err.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("'boom' panicked: bang"), "{msg}");
    assert_eq!(rec.seen(), zeros(5));
}
