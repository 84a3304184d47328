//! The thread hand-off: a process thread that blocks or exits takes the
//! loop's next step itself and wakes its successor directly, and only
//! falls back to the loop's owner (`run()`'s caller, or a shard's worker)
//! when a reactor is next, the window or the run is over, or something
//! failed.
//!
//! None of that may be visible in a result. Every case runs on the
//! classic loop and on the sharded one at 1 and 4 workers, the latter
//! once more under the `SIMNET_CHAOS` yield-injection shim. A case is
//! built as independent *lanes*: all in the one loop on the classic
//! engine (so threads of different lanes follow each other directly),
//! one shard each on the sharded engine (so four workers have work).

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use simnet::{
    BlockReason, Pid, ProcessCtx, Reactor, Report, SimDelta, SimError, SimTime, Simulation, StatKey,
};

/// Which scheduler loop a case runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Loop {
    Classic,
    Sharded { workers: usize, chaos: bool },
}

const LOOPS: [Loop; 4] = [
    Loop::Classic,
    Loop::Sharded {
        workers: 1,
        chaos: false,
    },
    Loop::Sharded {
        workers: 4,
        chaos: false,
    },
    Loop::Sharded {
        workers: 4,
        chaos: true,
    },
];

const LANES: usize = 4;

fn new_sim(on: Loop) -> Simulation {
    let mut sim = Simulation::new(3);
    if let Loop::Sharded { workers, chaos } = on {
        sim.set_threads(workers);
        if chaos {
            sim.set_chaos(0xC4A05);
        }
    }
    sim
}

fn spawn_thread(
    sim: &mut Simulation,
    on: Loop,
    lane: usize,
    name: String,
    f: impl FnOnce(ProcessCtx) + Send + 'static,
) -> Pid {
    match on {
        Loop::Classic => sim.spawn(name, f),
        Loop::Sharded { .. } => sim.spawn_on(lane, name, f),
    }
}

fn spawn_reactor(
    sim: &mut Simulation,
    on: Loop,
    lane: usize,
    name: String,
    init: impl FnOnce(ProcessCtx) -> Option<Reactor> + Send + 'static,
) -> Pid {
    match on {
        Loop::Classic => sim.spawn_reactor(name, init),
        Loop::Sharded { .. } => sim.spawn_reactor_on(lane, name, init),
    }
}

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

/// Engine counters, without the sharded engine's own bookkeeping.
fn counters(r: &Report) -> Vec<(String, u64)> {
    r.stats
        .counters()
        .filter(|(name, _)| !name.starts_with("simnet.sharded."))
        .map(|(name, n)| (name.to_string(), n))
        .collect()
}

#[test]
fn a_process_that_is_its_own_successor_just_carries_on() {
    for on in LOOPS {
        // One process per loop: whenever it blocks, it is next.
        let lanes = if on == Loop::Classic { 1 } else { LANES };
        let mut sim = new_sim(on);
        for lane in 0..lanes {
            spawn_thread(&mut sim, on, lane, format!("yielder{lane}"), |ctx| {
                for _ in 0..3 {
                    ctx.yield_now();
                }
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO, "{on:?}");
        assert_eq!(report.events, 0, "{on:?}");

        let mut sim = new_sim(on);
        for lane in 0..lanes {
            spawn_thread(&mut sim, on, lane, format!("sleeper{lane}"), |ctx| {
                for i in 1..=3 {
                    ctx.sleep(ns(300));
                    assert_eq!(ctx.now(), SimTime::ZERO + ns(300 * i));
                }
                ctx.compute(ns(100));
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO + us(1), "{on:?}");
        assert_eq!(report.events, 4 * lanes as u64, "{on:?}");
        for p in &report.procs {
            assert_eq!(p.compute_time, ns(100), "{on:?}");
            assert_eq!(p.finished_at, SimTime::ZERO + us(1), "{on:?}");
        }
    }
}

/// Thread ids seen by a [`mixed_ring`] run.
#[derive(Default)]
struct Seen {
    process_threads: HashSet<ThreadId>,
    reactor_threads: HashSet<ThreadId>,
}

/// Per lane, a token ring thread → thread → reactor → thread: `t0` starts
/// the token, `t1` computes before forwarding it, the reactor reserves a
/// resource, `t3` yields once. Every hand-off shape occurs: thread to
/// thread, thread to owner (the reactor), owner to thread.
fn mixed_ring(on: Loop) -> (Report, Seen) {
    const LAPS: u64 = 5;
    let mut sim = new_sim(on);
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
                spawn_reactor(&mut sim, on, lane, name, move |ctx| {
                    let nic = ctx.create_resource(format!("nic{lane}"));
                    let mut laps = 0;
                    Some(Box::new(move |msg| {
                        let id = std::thread::current().id();
                        seen2.lock().unwrap().reactor_threads.insert(id);
                        ctx.reserve(nic, ns(100));
                        forward(&ctx, &ring2, me, *msg.downcast::<u64>().unwrap());
                        laps += 1;
                        laps < LAPS
                    }))
                })
            } else {
                spawn_thread(&mut sim, on, lane, name, move |ctx| {
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
fn a_mixed_ring_ends_the_same_on_every_loop() {
    let procs = |r: &Report| {
        r.procs
            .iter()
            .map(|p| (p.name.clone(), p.compute_time, p.finished_at))
            .collect::<Vec<_>>()
    };
    let (classic, _) = mixed_ring(Loop::Classic);
    // 5 laps of 4 one-microsecond hops and one 500 ns compute.
    assert_eq!(classic.end_time, SimTime::ZERO + ns(22_500));
    assert_eq!(classic.events, 25 * LANES as u64);
    assert_eq!(counters(&classic), vec![("ring.hops".to_string(), 80)]);
    for on in LOOPS {
        let (report, _) = mixed_ring(on);
        assert_eq!(report.end_time, classic.end_time, "{on:?}");
        assert_eq!(report.events, classic.events, "{on:?}");
        assert_eq!(counters(&report), counters(&classic), "{on:?}");
        assert_eq!(procs(&report), procs(&classic), "{on:?}");
        assert_eq!(report.resources, classic.resources, "{on:?}");
    }
}

#[test]
fn a_reactor_is_never_entered_on_a_process_thread() {
    let caller = std::thread::current().id();
    for on in LOOPS {
        let (_, seen) = mixed_ring(on);
        assert_eq!(seen.process_threads.len(), 3 * LANES, "{on:?}");
        assert!(
            seen.reactor_threads.is_disjoint(&seen.process_threads),
            "{on:?}: a handler ran on a process thread"
        );
        match on {
            // The owner is run()'s caller.
            Loop::Classic | Loop::Sharded { workers: 1, .. } => {
                assert_eq!(seen.reactor_threads, HashSet::from([caller]), "{on:?}");
            }
            // The owners are the pool's workers, one per shard here.
            Loop::Sharded { .. } => {
                assert!(!seen.reactor_threads.contains(&caller), "{on:?}");
                assert_eq!(seen.reactor_threads.len(), LANES, "{on:?}");
            }
        }
    }
}

#[test]
fn a_panic_in_a_process_woken_by_another_process_thread_is_reraised() {
    for on in LOOPS {
        let text = panic_text(|| {
            let mut sim = new_sim(on);
            for lane in 0..LANES {
                // `boom` blocks first, so `waker`'s first activation comes
                // from boom's thread; waker then blocks and its own thread
                // pops the delivery and wakes boom, which panics with the
                // owner asleep throughout.
                let boom = spawn_thread(&mut sim, on, lane, format!("boom{lane}"), |ctx| {
                    let _ = ctx.recv();
                    panic!("bang");
                });
                spawn_thread(&mut sim, on, lane, format!("waker{lane}"), move |ctx| {
                    ctx.deliver(boom, us(1), Box::new(0u8));
                    let _ = ctx.recv();
                });
            }
            let _ = sim.run();
        });
        assert_eq!(text, "simulated process 'boom0' panicked: bang", "{on:?}");
    }
}

#[test]
fn a_deadlock_is_detected_while_a_process_thread_carries_the_loop() {
    for on in LOOPS {
        let mut sim = new_sim(on);
        for lane in 0..LANES {
            spawn_thread(&mut sim, on, lane, format!("a{lane}"), |ctx| {
                ctx.sleep(us(2));
                let _ = ctx.recv();
            });
            spawn_thread(&mut sim, on, lane, format!("b{lane}"), |ctx| {
                let _ = ctx.recv();
            });
        }
        // The last thing to happen is a's thread finding the queue empty.
        match sim.run() {
            Err(SimError::Deadlock { now, blocked }) => {
                assert_eq!(now, SimTime::ZERO + us(2), "{on:?}");
                assert_eq!(blocked.len(), 2 * LANES, "{on:?}");
                assert_eq!(
                    blocked[..2],
                    [
                        ("a0".to_string(), BlockReason::WaitMessage),
                        ("b0".to_string(), BlockReason::WaitMessage)
                    ],
                    "{on:?}"
                );
            }
            other => panic!("{on:?}: expected deadlock, got {other:?}"),
        }
    }
}

#[test]
fn the_time_limit_is_enforced_while_a_process_thread_carries_the_loop() {
    for on in LOOPS {
        let mut sim = new_sim(on);
        let limit = SimTime::ZERO + ns(700);
        sim.set_time_limit(limit);
        for lane in 0..LANES {
            // The third wake-up lies past the limit; the sleeper's own
            // thread is the one that looks at it.
            spawn_thread(&mut sim, on, lane, format!("sleeper{lane}"), |ctx| loop {
                ctx.sleep(ns(300));
            });
        }
        match sim.run() {
            Err(SimError::TimeLimitExceeded { limit: l }) => assert_eq!(l, limit, "{on:?}"),
            other => panic!("{on:?}: expected the time limit, got {other:?}"),
        }
    }
}

/// The livelock bound is a constant, 50 million executions: seconds of
/// zero-switch yields per loop in a release build, a minute in a debug one.
/// `ci.sh` runs this case with `--release -- --ignored`; the classic loop's
/// detection path is also covered, with the counter pre-wound, by
/// `sim::tests::a_livelock_is_detected_by_a_carrying_process_thread`.
#[test]
#[ignore = "spins to the 50 M livelock bound on each loop; ci.sh runs it in release"]
fn a_livelock_is_detected_while_a_process_thread_carries_the_loop() {
    for on in LOOPS {
        let mut sim = new_sim(on);
        for lane in 0..LANES {
            spawn_thread(&mut sim, on, lane, format!("passer-by{lane}"), |ctx| {
                ctx.sleep(us(1));
                ctx.yield_now();
            });
        }
        // Always ready and, once its neighbour has gone, always its own
        // successor: the clock cannot move and the owner never gets a
        // look in.
        spawn_thread(&mut sim, on, 0, "spinner".to_string(), |ctx| {
            ctx.sleep(us(1));
            loop {
                ctx.yield_now();
            }
        });
        match sim.run() {
            Err(SimError::Livelock { now }) => assert_eq!(now, SimTime::ZERO + us(1), "{on:?}"),
            other => panic!("{on:?}: expected a livelock, got {other:?}"),
        }
    }
}

#[test]
fn a_child_spawned_by_a_carrying_process_runs_in_ready_order() {
    // Dynamic spawn is the classic engine's alone.
    let mut sim = Simulation::new(0);
    let log = Arc::new(Mutex::new(Vec::new()));
    let (l1, l2) = (Arc::clone(&log), Arc::clone(&log));
    // `first` blocks at once, so every activation below is a process
    // thread waking its successor; the owner sleeps until the end.
    sim.spawn("first", |ctx| ctx.sleep(us(5)));
    sim.spawn("parent", move |ctx| {
        l1.lock().unwrap().push("parent");
        let l3 = Arc::clone(&l1);
        ctx.spawn("child", move |cctx| {
            l3.lock().unwrap().push("child");
            cctx.sleep(us(1));
            l3.lock().unwrap().push("child.late");
        });
        // Behind the sibling and the child in the ready queue.
        ctx.yield_now();
        l1.lock().unwrap().push("parent.again");
    });
    sim.spawn("sibling", move |_| l2.lock().unwrap().push("sibling"));
    let report = sim.run().unwrap();
    assert_eq!(
        *log.lock().unwrap(),
        vec!["parent", "sibling", "child", "parent.again", "child.late"]
    );
    assert_eq!(report.end_time, SimTime::ZERO + us(5));
    assert_eq!(report.events, 2);
    assert_eq!(report.proc_name(Pid::from_index(3)), Some("child"));
}
