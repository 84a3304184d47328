//! Inline reactors (`Simulation::spawn_reactor`), a classic-loop feature.
//!
//! A reactor must be indistinguishable from a thread-backed process in
//! everything the engine reports — pid, name, `ProcReport`, mailbox
//! accounting, deadlock and panic shapes — while never owning a thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use simnet::{BlockReason, ProcessCtx, SimDelta, SimError, SimTime, Simulation};

fn us(n: u64) -> SimDelta {
    SimDelta::from_us(n)
}

/// The message of the panic `f` raises.
fn panic_text(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

#[test]
fn init_runs_in_spawn_order_and_none_finishes_at_once() {
    let mut sim = Simulation::new(0);
    let order = Arc::new(Mutex::new(Vec::new()));
    let (o1, o2, o3) = (Arc::clone(&order), Arc::clone(&order), Arc::clone(&order));
    sim.spawn("a", move |_| o1.lock().unwrap().push("a"));
    let r = sim.spawn_reactor("r", move |ctx| {
        assert_eq!(ctx.name(), "r");
        o2.lock().unwrap().push("r");
        None
    });
    sim.spawn("b", move |ctx| {
        o3.lock().unwrap().push("b");
        ctx.sleep(us(2));
    });
    let report = sim.run().unwrap();
    assert_eq!(*order.lock().unwrap(), vec!["a", "r", "b"]);
    assert_eq!(report.procs.len(), 3, "a reactor has a report entry");
    assert_eq!(report.proc_name(r), Some("r"));
    assert_eq!(report.procs[r.index()].finished_at, SimTime::ZERO);
    assert_eq!(report.procs[r.index()].compute_time, SimDelta::ZERO);
}

#[test]
fn handler_runs_once_per_message_until_it_returns_false() {
    let mut sim = Simulation::new(0);
    let calls = Arc::new(AtomicU64::new(0));
    let calls2 = Arc::clone(&calls);
    let r = sim.spawn_reactor("r", move |ctx| {
        Some(Box::new(move |msg| {
            let n = *msg.downcast::<u64>().unwrap();
            assert_eq!(ctx.now(), SimTime::ZERO + us(n), "called at delivery time");
            assert_eq!(ctx.mailbox_len(), 0);
            calls2.fetch_add(1, Ordering::SeqCst);
            n < 3
        }))
    });
    sim.spawn("tx", move |ctx| {
        for n in 1..=3u64 {
            ctx.deliver(r, us(n), Box::new(n));
        }
    });
    let report = sim.run().unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert_eq!(report.procs[r.index()].finished_at, SimTime::ZERO + us(3));
    assert_eq!(report.stats.counter("simnet.deliver_to_finished"), 0);
}

#[test]
fn delivery_to_a_finished_reactor_is_counted() {
    let mut sim = Simulation::new(0);
    let at_init = sim.spawn_reactor("at-init", |_| None);
    let on_false = sim.spawn_reactor("on-false", |_| Some(Box::new(|_| false)));
    sim.spawn("tx", move |ctx| {
        ctx.deliver(at_init, us(1), Box::new(0u8));
        ctx.deliver(on_false, us(1), Box::new(0u8)); // handled: finishes it
        ctx.deliver(on_false, us(2), Box::new(0u8));
    });
    let report = sim.run().unwrap();
    assert_eq!(report.stats.counter("simnet.deliver_to_finished"), 2);
}

#[test]
fn a_waiting_reactor_is_reported_as_deadlocked() {
    let mut sim = Simulation::new(0);
    sim.spawn_reactor("stuck", |_| Some(Box::new(|_| true)));
    match sim.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(
                blocked,
                vec![("stuck".to_string(), BlockReason::WaitMessage)]
            );
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn a_reactor_panic_is_reraised_with_the_process_name() {
    let in_handler = panic_text(|| {
        let mut sim = Simulation::new(0);
        let r = sim.spawn_reactor("boom", |_| Some(Box::new(|_| panic!("bang"))));
        sim.spawn("tx", move |ctx| {
            ctx.deliver(r, us(1), Box::new(0u8));
        });
        let _ = sim.run();
    });
    assert_eq!(in_handler, "simulated process 'boom' panicked: bang");
    let in_init = panic_text(|| {
        let mut sim = Simulation::new(0);
        sim.spawn_reactor("boom", |_| panic!("early"));
        let _ = sim.run();
    });
    assert_eq!(in_init, "simulated process 'boom' panicked: early");
}

#[test]
fn a_blocking_call_from_a_reactor_panics() {
    type Call = fn(&ProcessCtx);
    let calls: [(&str, Call); 4] = [
        ("sleep", |ctx| ctx.sleep(us(1))),
        ("compute", |ctx| ctx.compute(us(1))),
        ("recv", |ctx| drop(ctx.recv())),
        ("yield_now", |ctx| ctx.yield_now()),
    ];
    for (name, call) in calls {
        let text = panic_text(|| {
            let mut sim = Simulation::new(0);
            sim.spawn_reactor("napper", move |ctx| {
                call(&ctx);
                None
            });
            let _ = sim.run();
        });
        assert!(
            text.starts_with(&format!(
                "simulated process 'napper' panicked: blocking ProcessCtx::{name} \
                 called from inline reactor 'napper'"
            )),
            "{text}"
        );
    }
}
