//! Future processes (`Simulation::spawn_future`), a classic-loop feature.
//!
//! `run()`'s thread polls an `async` body exactly where it would poll a
//! thread-backed process, so swapping one for the other must change
//! nothing the engine reports: delivery order, times, event counts,
//! error shapes. Only the OS thread that runs the body changes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use simnet::{BlockReason, Pid, ProcessCtx, SimDelta, SimError, SimTime, Simulation};

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

/// Which kind runs a process in a mixed-kind scenario.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Thread,
    Future,
}

/// `(at, receiving pid, value)` of every receive, in order.
type Log = Arc<Mutex<Vec<(SimTime, Pid, u64)>>>;

const ROUNDS: u64 = 20;

/// Round `r` of a ping-pong side: true if it sends (to `peer`; the side
/// that goes `first` sends in even rounds), false if it receives.
fn sends(ctx: &ProcessCtx, peer: Pid, first: bool, r: u64) -> bool {
    let sends = r.is_multiple_of(2) == first;
    if sends {
        let v = r * 10 + ctx.pid().index() as u64;
        ctx.deliver(peer, SimDelta::from_ns(900), Box::new(v));
    }
    sends
}

/// Log a receive; returns how long to compute on it.
fn received(ctx: &ProcessCtx, log: &Log, msg: simnet::Payload) -> SimDelta {
    let v = *msg.downcast::<u64>().unwrap();
    log.lock().unwrap().push((ctx.now(), ctx.pid(), v));
    SimDelta::from_ns(100 + v % 7 * 30)
}

/// One ping-pong side, `ROUNDS` times: send or receive, then compute a
/// value-dependent while, sleep and yield — with the waits of its kind.
fn spawn_side(sim: &mut Simulation, kind: Kind, name: &str, peer: Pid, first: bool, log: &Log) {
    let log = Arc::clone(log);
    match kind {
        Kind::Thread => sim.spawn(name, move |ctx| {
            for r in 0..2 * ROUNDS {
                if !sends(&ctx, peer, first, r) {
                    ctx.compute(received(&ctx, &log, ctx.recv()));
                    ctx.sleep(SimDelta::from_ns(50));
                    ctx.yield_now();
                }
            }
        }),
        Kind::Future => sim.spawn_future(name, async move |ctx| {
            for r in 0..2 * ROUNDS {
                if !sends(&ctx, peer, first, r) {
                    let d = received(&ctx, &log, ctx.recv_async().await);
                    ctx.compute_async(d).await;
                    ctx.sleep_async(SimDelta::from_ns(50)).await;
                    ctx.yield_async().await;
                }
            }
        }),
    };
}

fn ping_pong(a: Kind, b: Kind) -> (Vec<(SimTime, Pid, u64)>, SimTime, u64) {
    let log: Log = Arc::default();
    let mut sim = Simulation::new(3);
    spawn_side(&mut sim, a, "a", Pid::from_index(1), true, &log);
    spawn_side(&mut sim, b, "b", Pid::from_index(0), false, &log);
    let report = sim.run().unwrap();
    let log = log.lock().unwrap().clone();
    (log, report.end_time, report.events)
}

#[test]
fn a_future_exchanges_messages_exactly_as_a_thread_does() {
    let threads = ping_pong(Kind::Thread, Kind::Thread);
    assert_eq!(threads.0.len(), 40);
    for (a, b) in [
        (Kind::Future, Kind::Thread),
        (Kind::Thread, Kind::Future),
        (Kind::Future, Kind::Future),
    ] {
        assert_eq!(ping_pong(a, b), threads, "{a:?} / {b:?}");
    }
}

#[test]
fn yield_async_interleaves_same_instant_work() {
    for kinds in [[Kind::Future, Kind::Future], [Kind::Future, Kind::Thread]] {
        let mut sim = Simulation::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (kind, name) in kinds.into_iter().zip(["a", "b"]) {
            let log = Arc::clone(&log);
            let note = move |step| log.lock().unwrap().push(format!("{name}{step}"));
            match kind {
                Kind::Future => sim.spawn_future(name, async move |ctx| {
                    note(1);
                    ctx.yield_async().await;
                    note(2);
                }),
                Kind::Thread => sim.spawn(name, move |ctx| {
                    note(1);
                    ctx.yield_now();
                    note(2);
                }),
            };
        }
        sim.run().unwrap();
        assert_eq!(*log.lock().unwrap(), ["a1", "b1", "a2", "b2"], "{kinds:?}");
    }
}

/// How a run fails.
#[derive(Clone, Copy)]
enum Failure {
    Panic,
    Deadlock,
    TimeLimit,
}

/// The error's (or the panic's) text when one process of `kind` makes
/// the run fail as `how`.
fn failure(kind: Kind, how: Failure) -> String {
    panic_text(|| {
        let mut sim = Simulation::new(0);
        if let Failure::TimeLimit = how {
            sim.set_time_limit(SimTime::ZERO + us(5));
        }
        let bang = move || {
            if let Failure::Panic = how {
                panic!("bang");
            }
        };
        match kind {
            Kind::Future => sim.spawn_future("p", async move |ctx| {
                ctx.sleep_async(us(1)).await;
                bang();
                let _ = ctx.recv_async().await; // nobody sends
            }),
            Kind::Thread => sim.spawn("p", move |ctx| {
                ctx.sleep(us(1));
                bang();
                let _ = ctx.recv(); // nobody sends
            }),
        };
        // A well-behaved neighbour that outlives the limit.
        sim.spawn("ticker", |ctx| ctx.sleep(us(10)));
        match sim.run() {
            Ok(_) => panic!("ran clean"),
            Err(e) => panic!("{e}"),
        }
    })
}

#[test]
fn errors_are_reported_exactly_as_for_a_thread() {
    let cases = [
        (Failure::Panic, "simulated process 'p' panicked: bang"),
        (
            Failure::Deadlock,
            "simulation deadlock at 10.000us: blocked processes: p (WaitMessage)",
        ),
        (Failure::TimeLimit, "simulation exceeded time limit 5.000us"),
    ];
    for (how, want) in cases {
        assert_eq!(failure(Kind::Thread, how), want);
        assert_eq!(failure(Kind::Future, how), want);
    }
}

#[test]
fn a_deadlock_names_a_waiting_future() {
    let mut sim = Simulation::new(0);
    sim.spawn_future("stuck", async |ctx| drop(ctx.recv_async().await));
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
fn a_body_that_returns_before_its_first_await_finishes_at_its_first_activation() {
    let mut sim = Simulation::new(0);
    let order = Arc::new(Mutex::new(Vec::new()));
    let (o1, o2, o3) = (Arc::clone(&order), Arc::clone(&order), Arc::clone(&order));
    sim.spawn_future("a", async move |_| o1.lock().unwrap().push("a"));
    let done = sim.spawn_future("done", async move |ctx| {
        assert_eq!(ctx.name(), "done");
        o2.lock().unwrap().push("done");
    });
    sim.spawn_future("b", async move |ctx| {
        o3.lock().unwrap().push("b");
        ctx.sleep_async(us(2)).await;
    });
    // A message loop that stops at its third message: it finishes at
    // that delivery, and mail after it is counted, not queued.
    let calls = Arc::new(AtomicU64::new(0));
    let calls2 = Arc::clone(&calls);
    let looper = sim.spawn_future("looper", async move |ctx| loop {
        let n = *ctx.recv_async().await.downcast::<u64>().unwrap();
        assert_eq!(ctx.now(), SimTime::ZERO + us(n), "woken at delivery time");
        calls2.fetch_add(1, Ordering::SeqCst);
        if n == 3 {
            break;
        }
    });
    sim.spawn_future("tx", async move |ctx| {
        for n in 1..=4u64 {
            ctx.deliver(looper, us(n), Box::new(n));
        }
        ctx.deliver(done, us(1), Box::new(0u8));
    });
    let report = sim.run().unwrap();
    assert_eq!(
        *order.lock().unwrap(),
        vec!["a", "done", "b"],
        "spawn order"
    );
    assert_eq!(report.procs.len(), 5, "a future has a report entry");
    assert_eq!(report.proc_name(done), Some("done"));
    assert_eq!(report.procs[done.index()].finished_at, SimTime::ZERO);
    assert_eq!(report.procs[done.index()].compute_time, SimDelta::ZERO);
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert_eq!(
        report.procs[looper.index()].finished_at,
        SimTime::ZERO + us(3)
    );
    assert_eq!(report.stats.counter("simnet.deliver_to_finished"), 2);
    // A body that panics at its first poll is named like any other.
    let early = panic_text(|| {
        let mut sim = Simulation::new(0);
        sim.spawn_future("boom", async |_| panic!("early"));
        let _ = sim.run();
    });
    assert_eq!(early, "simulated process 'boom' panicked: early");
}

#[test]
fn a_blocking_call_from_a_future_panics_before_touching_state() {
    type Call = fn(&ProcessCtx);
    let calls: [(&str, Call); 4] = [
        ("sleep", |ctx| ctx.sleep(us(1))),
        ("compute", |ctx| ctx.compute(us(1))),
        ("recv", |ctx| drop(ctx.recv())),
        ("yield_now", |ctx| ctx.yield_now()),
    ];
    let mut sim = Simulation::new(0);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let p = sim.spawn_future("napper", async move |ctx| {
        for (name, call) in calls {
            let text = panic_text(|| call(&ctx));
            seen2.lock().unwrap().push((name, text));
        }
        // Nothing was armed, booked or marked: the process waits and
        // finishes as if the calls had never been made.
        ctx.sleep_async(us(2)).await;
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::ZERO + us(2));
    assert_eq!(report.events, 1, "only the sleep's own wake-up");
    assert_eq!(report.procs[p.index()].compute_time, SimDelta::ZERO);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 4);
    for (name, text) in seen.iter() {
        assert!(
            text.starts_with(&format!(
                "blocking ProcessCtx::{name} called from future process 'napper'"
            )),
            "{text}"
        );
    }
}

#[test]
fn pending_on_a_foreign_future_is_a_panic_of_the_process() {
    let text = panic_text(|| {
        let mut sim = Simulation::new(0);
        sim.spawn_future("lost", async |_| std::future::pending::<()>().await);
        let _ = sim.run();
    });
    assert!(
        text.starts_with("simulated process 'lost' panicked: its future is pending on something"),
        "{text}"
    );
}

#[test]
fn a_failed_run_drops_every_pending_future() {
    for limit in [false, true] {
        let held = Arc::new(());
        let watch = Arc::downgrade(&held);
        let mut sim = Simulation::new(0);
        if limit {
            sim.set_time_limit(SimTime::ZERO + us(5));
        }
        for i in 0..4u64 {
            let held = Arc::clone(&held);
            sim.spawn_future(format!("f{i}"), async move |ctx| {
                let _held = held;
                // Two wait for mail that never comes; two sleep, for
                // good under the time limit, once otherwise.
                if i % 2 == 1 {
                    ctx.sleep_async(us(i)).await;
                    if limit {
                        loop {
                            ctx.sleep_async(us(i)).await;
                        }
                    }
                }
                let _ = ctx.recv_async().await;
            });
        }
        drop(held);
        let err = sim.run().expect_err("the run must fail");
        assert!(
            matches!(
                (limit, err),
                (false, SimError::Deadlock { .. }) | (true, SimError::TimeLimitExceeded { .. })
            ),
            "limit {limit}"
        );
        assert!(watch.upgrade().is_none(), "a pending future outlived run()");
    }
}
