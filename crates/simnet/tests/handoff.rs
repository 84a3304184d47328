//! Thread-backed processes beside futures. A thread process is a future
//! over its OS thread: a poll wakes the thread and parks `run()`'s thread
//! until the closure blocks or ends, so every loop step, and every poll
//! of an `async` body, happens on `run()`'s thread.
//!
//! None of that may be visible in a result. A case is built as
//! independent *lanes* of processes, all in the one loop, so the threads
//! of different lanes take turns.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use simnet::{
    BlockReason, Pid, ProcessCtx, Report, SimDelta, SimError, SimTime, Simulation, StatKey,
};

const LANES: usize = 4;

fn ns(n: u64) -> SimDelta {
    SimDelta::from_ns(n)
}

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
fn a_lone_thread_process_waits_and_ends_at_its_known_time() {
    // One process in the loop: whenever it blocks, it is next.
    let mut sim = Simulation::new(3);
    sim.spawn("yielder", |ctx| {
        for _ in 0..3 {
            ctx.yield_now();
        }
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::ZERO);
    assert_eq!(report.events, 0);

    let mut sim = Simulation::new(3);
    sim.spawn("sleeper", |ctx| {
        for i in 1..=3 {
            ctx.sleep(ns(300));
            assert_eq!(ctx.now(), SimTime::ZERO + ns(300 * i));
        }
        ctx.compute(ns(100));
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::ZERO + us(1));
    assert_eq!(report.events, 4);
    let p = &report.procs[0];
    assert_eq!(p.compute_time, ns(100));
    assert_eq!(p.finished_at, SimTime::ZERO + us(1));
}

/// Thread ids seen by a [`mixed_ring`] run.
#[derive(Default)]
struct Seen {
    process_threads: HashSet<ThreadId>,
    future_threads: HashSet<ThreadId>,
}

/// Per lane, a token ring thread → thread → future → thread in one
/// loop: `t0` starts the token, `t1` computes before forwarding
/// it, the future reserves a resource, `t3` yields once. A thread's
/// turn follows a thread's and a future's, and a future's a thread's.
fn mixed_ring() -> (Report, Seen) {
    const LAPS: u64 = 5;
    let mut sim = Simulation::new(3);
    let seen = Arc::new(Mutex::new(Seen::default()));
    for lane in 0..LANES {
        // Members learn the ring from this list once it is complete.
        let ring: Arc<Mutex<Vec<Pid>>> = Arc::new(Mutex::new(Vec::new()));
        let forward = |ctx: &ProcessCtx, ring: &Mutex<Vec<Pid>>, me: usize, lap: u64| {
            static HOPS: StatKey = StatKey::new("ring.hops");
            ctx.stat_incr(&HOPS, 1);
            let next = ring.lock().unwrap()[(me + 1) % 4];
            ctx.deliver(next, us(1), Box::new(lap));
        };
        for me in 0..4 {
            let (ring2, seen2) = (Arc::clone(&ring), Arc::clone(&seen));
            let name = format!("lane{lane}.m{me}");
            let pid = if me == 2 {
                sim.spawn_future(name, async move |ctx| {
                    let nic = ctx.create_resource(format!("nic{lane}"));
                    for _ in 0..LAPS {
                        let lap = *ctx.recv_async().await.downcast::<u64>().unwrap();
                        let id = std::thread::current().id();
                        seen2.lock().unwrap().future_threads.insert(id);
                        ctx.reserve(nic, ns(100));
                        forward(&ctx, &ring2, me, lap);
                    }
                })
            } else {
                sim.spawn(name, move |ctx| {
                    let id = std::thread::current().id();
                    seen2.lock().unwrap().process_threads.insert(id);
                    if me == 0 {
                        forward(&ctx, &ring2, me, 0);
                    }
                    for _ in 0..LAPS {
                        let lap = *ctx.recv().downcast::<u64>().unwrap();
                        match me {
                            0 if lap + 1 == LAPS => return,
                            0 => forward(&ctx, &ring2, me, lap + 1),
                            1 => {
                                ctx.compute(ns(500));
                                forward(&ctx, &ring2, me, lap);
                            }
                            _ => {
                                ctx.yield_now();
                                forward(&ctx, &ring2, me, lap);
                            }
                        }
                    }
                })
            };
            ring.lock().unwrap().push(pid);
        }
    }
    let report = sim.run().unwrap();
    let seen = Arc::into_inner(seen).unwrap().into_inner().unwrap();
    (report, seen)
}

#[test]
fn a_mixed_ring_ends_at_its_known_time() {
    let (report, _) = mixed_ring();
    // 5 laps of 4 one-microsecond hops and one 500 ns compute.
    assert_eq!(report.end_time, SimTime::ZERO + ns(22_500));
    assert_eq!(report.events, 25 * LANES as u64);
    let counters: Vec<(&str, u64)> = report.stats.counters().collect();
    assert_eq!(counters, vec![("ring.hops", 80)]);
    assert_eq!(report.resources.len(), LANES);
    assert!(report.resources.iter().all(|r| r.2 == 5));
}

#[test]
fn a_future_is_never_entered_on_a_process_thread() {
    let (_, seen) = mixed_ring();
    assert_eq!(seen.process_threads.len(), 3 * LANES);
    assert!(
        seen.future_threads.is_disjoint(&seen.process_threads),
        "a future was polled on a process thread"
    );
    let caller = std::thread::current().id();
    assert_eq!(seen.future_threads, HashSet::from([caller]));
}

#[test]
fn a_panic_in_a_process_woken_by_another_process_thread_is_reraised() {
    let text = panic_text(|| {
        let mut sim = Simulation::new(3);
        for lane in 0..LANES {
            // `boom` blocks first; `waker`'s delivery readies it a
            // microsecond later, and its thread panics while `run()`'s
            // thread is parked in the poll.
            let boom = sim.spawn(format!("boom{lane}"), |ctx| {
                let _ = ctx.recv();
                panic!("bang");
            });
            sim.spawn(format!("waker{lane}"), move |ctx| {
                ctx.deliver(boom, us(1), Box::new(0u8));
                let _ = ctx.recv();
            });
        }
        let _ = sim.run();
    });
    assert_eq!(text, "simulated process 'boom0' panicked: bang");
}

#[test]
fn a_deadlock_of_thread_processes_is_detected() {
    let mut sim = Simulation::new(3);
    for lane in 0..LANES {
        sim.spawn(format!("a{lane}"), |ctx| {
            ctx.sleep(us(2));
            let _ = ctx.recv();
        });
        sim.spawn(format!("b{lane}"), |ctx| {
            let _ = ctx.recv();
        });
    }
    // The last event is each `a`'s wake-up; then the queue is empty.
    match sim.run() {
        Err(SimError::Deadlock { now, blocked }) => {
            assert_eq!(now, SimTime::ZERO + us(2));
            assert_eq!(blocked.len(), 2 * LANES);
            assert_eq!(
                blocked[..2],
                [
                    ("a0".to_string(), BlockReason::WaitMessage),
                    ("b0".to_string(), BlockReason::WaitMessage)
                ]
            );
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn the_time_limit_is_enforced_on_thread_processes() {
    let mut sim = Simulation::new(3);
    let limit = SimTime::ZERO + ns(700);
    sim.set_time_limit(limit);
    for lane in 0..LANES {
        // The third wake-up lies past the limit.
        sim.spawn(format!("sleeper{lane}"), |ctx| loop {
            ctx.sleep(ns(300));
        });
    }
    match sim.run() {
        Err(SimError::TimeLimitExceeded { limit: l }) => assert_eq!(l, limit),
        other => panic!("expected the time limit, got {other:?}"),
    }
}

/// The livelock bound is a constant, 50 million executions: seconds of
/// `yield_async` polls in a release build, minutes in a debug one.
/// `ci.sh` runs this case with `--release -- --ignored`. The spinner is a
/// future, which yields without a thread switch; a thread spinner pays two
/// per yield, so `sim::tests::a_livelock_of_thread_processes_is_detected`
/// checks one with the counter pre-wound.
#[test]
#[ignore = "spins to the 50 M livelock bound; ci.sh runs it in release"]
fn a_livelock_is_detected_at_the_real_bound() {
    let mut sim = Simulation::new(3);
    for lane in 0..LANES {
        sim.spawn(format!("passer-by{lane}"), |ctx| {
            ctx.sleep(us(1));
            ctx.yield_now();
        });
    }
    // Always ready once its neighbours have gone: the clock cannot move.
    sim.spawn_future("spinner", async |ctx| {
        ctx.sleep_async(us(1)).await;
        loop {
            ctx.yield_async().await;
        }
    });
    match sim.run() {
        Err(SimError::Livelock { now }) => assert_eq!(now, SimTime::ZERO + us(1)),
        other => panic!("expected a livelock, got {other:?}"),
    }
}
