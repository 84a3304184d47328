//! Inline reactors (`Simulation::spawn_reactor`) on both scheduler loops.
//!
//! A reactor must be indistinguishable from a thread-backed process in
//! everything the engine reports — pid, name, `ProcReport`, mailbox
//! accounting, deadlock and panic shapes — while never owning a thread.
//! Every case runs on the classic loop and on the sharded one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use simnet::{
    BlockReason, Pid, ProcessCtx, Reactor, Report, SimDelta, SimError, SimTime, Simulation, StatKey,
};

/// Which scheduler loop a case runs on.
#[derive(Clone, Copy, Debug)]
enum Loop {
    Classic,
    Sharded,
}

const LOOPS: [Loop; 2] = [Loop::Classic, Loop::Sharded];

fn spawn_thread(
    sim: &mut Simulation,
    on: Loop,
    shard: usize,
    name: &str,
    f: impl FnOnce(ProcessCtx) + Send + 'static,
) -> Pid {
    match on {
        Loop::Classic => sim.spawn(name, f),
        Loop::Sharded => sim.spawn_on(shard, name, f),
    }
}

fn spawn_reactor(
    sim: &mut Simulation,
    on: Loop,
    shard: usize,
    name: &str,
    init: impl FnOnce(ProcessCtx) -> Option<Reactor> + Send + 'static,
) -> Pid {
    match on {
        Loop::Classic => sim.spawn_reactor(name, init),
        Loop::Sharded => sim.spawn_reactor_on(shard, name, init),
    }
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
fn init_runs_in_spawn_order_and_none_finishes_at_once() {
    for on in LOOPS {
        let mut sim = Simulation::new(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o1, o2, o3) = (Arc::clone(&order), Arc::clone(&order), Arc::clone(&order));
        spawn_thread(&mut sim, on, 0, "a", move |_| o1.lock().unwrap().push("a"));
        let r = spawn_reactor(&mut sim, on, 0, "r", move |ctx| {
            assert_eq!(ctx.name(), "r");
            o2.lock().unwrap().push("r");
            None
        });
        spawn_thread(&mut sim, on, 0, "b", move |ctx| {
            o3.lock().unwrap().push("b");
            ctx.sleep(us(2));
        });
        let report = sim.run().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["a", "r", "b"], "{on:?}");
        assert_eq!(report.procs.len(), 3, "a reactor has a report entry");
        assert_eq!(report.proc_name(r), Some("r"));
        assert_eq!(report.procs[r.index()].finished_at, SimTime::ZERO);
        assert_eq!(report.procs[r.index()].compute_time, SimDelta::ZERO);
    }
}

#[test]
fn handler_runs_once_per_message_until_it_returns_false() {
    for on in LOOPS {
        let mut sim = Simulation::new(0);
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let r = spawn_reactor(&mut sim, on, 0, "r", move |ctx| {
            Some(Box::new(move |msg| {
                let n = *msg.downcast::<u64>().unwrap();
                assert_eq!(ctx.now(), SimTime::ZERO + us(n), "called at delivery time");
                assert_eq!(ctx.mailbox_len(), 0);
                calls2.fetch_add(1, Ordering::SeqCst);
                n < 3
            }))
        });
        spawn_thread(&mut sim, on, 0, "tx", move |ctx| {
            for n in 1..=3u64 {
                ctx.deliver(r, us(n), Box::new(n));
            }
        });
        let report = sim.run().unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3, "{on:?}");
        assert_eq!(report.procs[r.index()].finished_at, SimTime::ZERO + us(3));
        assert_eq!(report.stats.counter("simnet.deliver_to_finished"), 0);
    }
}

#[test]
fn delivery_to_a_finished_reactor_is_counted() {
    for on in LOOPS {
        let mut sim = Simulation::new(0);
        let at_init = spawn_reactor(&mut sim, on, 0, "at-init", |_| None);
        let on_false = spawn_reactor(&mut sim, on, 0, "on-false", |_| Some(Box::new(|_| false)));
        spawn_thread(&mut sim, on, 0, "tx", move |ctx| {
            ctx.deliver(at_init, us(1), Box::new(0u8));
            ctx.deliver(on_false, us(1), Box::new(0u8)); // handled: finishes it
            ctx.deliver(on_false, us(2), Box::new(0u8));
        });
        let report = sim.run().unwrap();
        assert_eq!(
            report.stats.counter("simnet.deliver_to_finished"),
            2,
            "{on:?}"
        );
    }
}

#[test]
fn a_waiting_reactor_is_reported_as_deadlocked() {
    for on in LOOPS {
        let mut sim = Simulation::new(0);
        spawn_reactor(&mut sim, on, 0, "stuck", |_| Some(Box::new(|_| true)));
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(
                    blocked,
                    vec![("stuck".to_string(), BlockReason::WaitMessage)],
                    "{on:?}"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}

#[test]
fn a_reactor_panic_is_reraised_with_the_process_name() {
    for on in LOOPS {
        let in_handler = panic_text(|| {
            let mut sim = Simulation::new(0);
            let r = spawn_reactor(&mut sim, on, 0, "boom", |_| {
                Some(Box::new(|_| panic!("bang")))
            });
            spawn_thread(&mut sim, on, 0, "tx", move |ctx| {
                ctx.deliver(r, us(1), Box::new(0u8));
            });
            let _ = sim.run();
        });
        assert_eq!(
            in_handler, "simulated process 'boom' panicked: bang",
            "{on:?}"
        );
        let in_init = panic_text(|| {
            let mut sim = Simulation::new(0);
            spawn_reactor(&mut sim, on, 0, "boom", |_| panic!("early"));
            let _ = sim.run();
        });
        assert_eq!(
            in_init, "simulated process 'boom' panicked: early",
            "{on:?}"
        );
    }
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
    for on in LOOPS {
        for (name, call) in calls {
            let text = panic_text(|| {
                let mut sim = Simulation::new(0);
                spawn_reactor(&mut sim, on, 0, "napper", move |ctx| {
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
                "{on:?}: {text}"
            );
        }
    }
}

/// A token ring over four shards where even members are threads and odd
/// members are reactors; each hop draws from the shard RNG, bumps a
/// counter, leaves a trace record and reserves a shard-local resource.
fn mixed_ring(threads: usize) -> Report {
    const MEMBERS: usize = 8;
    const LAPS: u64 = 5;
    let mut sim = Simulation::new(11);
    sim.enable_trace();
    sim.set_threads(threads);
    // Members learn the ring from this list once it is complete.
    let ring: Arc<Mutex<Vec<Pid>>> = Arc::new(Mutex::new(Vec::new()));
    let hop = |ctx: &ProcessCtx, ring: &Mutex<Vec<Pid>>, me: usize, lap: u64| {
        let jitter = ctx.gen_range(500);
        static HOPS: StatKey = StatKey::new("ring.hops");
        ctx.stat_incr(&HOPS, 1);
        ctx.trace(format!("hop.{me}.{lap}"));
        let next = ring.lock().unwrap()[(me + 1) % MEMBERS];
        ctx.deliver(next, us(1) + SimDelta::from_ns(jitter), Box::new(lap));
    };
    for me in 0..MEMBERS {
        let ring2 = Arc::clone(&ring);
        let pid = if me % 2 == 0 {
            sim.spawn_on(me % 4, format!("thread{me}"), move |ctx| {
                if me == 0 {
                    hop(&ctx, &ring2, me, 0);
                }
                for _ in 0..LAPS {
                    let lap = *ctx.recv().downcast::<u64>().unwrap();
                    if me == 0 && lap + 1 == LAPS {
                        return;
                    }
                    hop(&ctx, &ring2, me, lap + u64::from(me == 0));
                }
            })
        } else {
            sim.spawn_reactor_on(me % 4, format!("reactor{me}"), move |ctx| {
                let nic = ctx.create_resource(format!("nic{me}"));
                let mut seen = 0;
                Some(Box::new(move |msg| {
                    let lap = *msg.downcast::<u64>().unwrap();
                    ctx.reserve(nic, SimDelta::from_ns(100));
                    hop(&ctx, &ring2, me, lap);
                    seen += 1;
                    seen < LAPS
                }))
            })
        };
        ring.lock().unwrap().push(pid);
    }
    sim.run().unwrap()
}

#[test]
fn a_mixed_ring_reports_the_same_at_one_and_four_worker_threads() {
    let one = mixed_ring(1);
    let four = mixed_ring(4);
    assert_eq!(one.stats.counter("ring.hops"), 40);
    assert_eq!(one.end_time, four.end_time);
    assert_eq!(one.events, four.events);
    assert_eq!(
        one.stats.counters().collect::<Vec<_>>(),
        four.stats.counters().collect::<Vec<_>>()
    );
    assert_eq!(
        one.trace.as_ref().unwrap().render(),
        four.trace.as_ref().unwrap().render()
    );
    assert_eq!(one.resources, four.resources);
    let procs = |r: &Report| {
        r.procs
            .iter()
            .map(|p| (p.name.clone(), p.compute_time, p.finished_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(procs(&one), procs(&four));
}
