//! Tests of the sharded conservative-lookahead engine.
//!
//! Four families:
//!
//! 1. behavioral parity — a one-shard sharded run reproduces the classic
//!    engine bit-for-bit; errors and panics keep the classic shapes;
//! 2. the lookahead contract — cross-shard deliveries below the link
//!    lookahead are rejected, legal ones arrive exactly on time;
//! 3. determinism properties — random topologies, latency maps and
//!    message schedules produce byte-identical results at every worker
//!    thread count, including under the seeded yield-injection shim
//!    (`set_chaos`) that randomly perturbs OS scheduling;
//! 4. refusals — what only the classic loop has (inline reactors, FIFO
//!    resources, tracing) panics with the call's name.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use simnet::{Pid, Report, SimDelta, SimError, SimTime, Simulation, StatKey};

/// Per-receiver message log: receiver rank -> [(recv time ps, sender, k)].
/// Each receiver appends only to its own entry, so the contents are
/// deterministic even though receivers run on different worker threads.
type RecvEntries = BTreeMap<u32, Vec<(u64, u32, u32)>>;
type RecvLog = Arc<Mutex<RecvEntries>>;

/// Fixed mesh workload: `n` single-process shards; process `r` sends
/// `rounds` messages (message `k` goes to `(r + k) % n`), then receives
/// exactly `rounds` messages. Returns the report and the receive log.
fn run_mesh(
    n: u32,
    rounds: u32,
    seed: u64,
    threads: usize,
    chaos: Option<u64>,
    extra_ns: &[u64],
) -> (Report, RecvEntries) {
    let mut sim = Simulation::new(seed);
    sim.set_lookahead(SimDelta::from_us(1));
    sim.set_threads(threads);
    if let Some(c) = chaos {
        sim.set_chaos(c);
    }
    let log: RecvLog = Arc::new(Mutex::new(BTreeMap::new()));
    let mut pids: Vec<Pid> = Vec::new();
    // Two passes so every pid exists before any closure needs the list.
    for r in 0..n {
        let pid = sim.spawn_on(r as usize, format!("idle{r}"), |_ctx| {});
        pids.push(pid);
    }
    for r in 0..n {
        let log2 = Arc::clone(&log);
        let targets = pids.clone();
        let extra = extra_ns.to_vec();
        sim.spawn_on(r as usize, format!("rank{r}"), move |ctx| {
            for k in 0..rounds {
                let dest_rank = (r + k) % n;
                // `targets` holds the idle pids; the real receiver is the
                // worker on the same shard, at idle-pid + n.
                let dest = Pid::from_index(targets[dest_rank as usize].index() + n as usize);
                let jitter = extra[((r + k) as usize) % extra.len()];
                let delay = SimDelta::from_us(1) + SimDelta::from_ns(jitter);
                ctx.deliver(dest, delay, Box::new((ctx.now().as_ps(), r, k)));
            }
            for _ in 0..rounds {
                let msg = ctx.recv();
                let (sent_ps, from, k) = *msg.downcast::<(u64, u32, u32)>().unwrap();
                let now = ctx.now().as_ps();
                assert!(
                    now >= sent_ps + SimDelta::from_us(1).as_ps(),
                    "message arrived before the link lookahead elapsed"
                );
                log2.lock()
                    .unwrap()
                    .entry(r)
                    .or_default()
                    .push((now, from, k));
            }
        });
    }
    let report = sim.run().unwrap();
    let log = log.lock().unwrap().clone();
    (report, log)
}

fn counters_without_engine(report: &Report) -> Vec<(String, u64)> {
    report
        .stats
        .counters()
        .filter(|(k, _)| !k.starts_with("simnet.sharded."))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

#[test]
fn one_shard_sharded_run_matches_the_classic_engine() {
    fn workload(ctx: &simnet::ProcessCtx, i: u64) {
        let jitter = ctx.gen_range(1000);
        ctx.sleep(SimDelta::from_ns(jitter));
        ctx.compute(SimDelta::from_us(i + 1));
        static DONE: StatKey = StatKey::new("w.done");
        ctx.stat_incr(&DONE, 1);
    }
    let classic = {
        let mut sim = Simulation::new(7);
        for i in 0..4 {
            sim.spawn(format!("p{i}"), move |ctx| workload(&ctx, i));
        }
        sim.run().unwrap()
    };
    let sharded = {
        let mut sim = Simulation::new(7);
        for i in 0..4 {
            sim.spawn_on(0, format!("p{i}"), move |ctx| workload(&ctx, i));
        }
        sim.run().unwrap()
    };
    assert_eq!(classic.end_time, sharded.end_time);
    assert_eq!(classic.events, sharded.events);
    assert_eq!(
        counters_without_engine(&classic),
        counters_without_engine(&sharded)
    );
    assert_eq!(sharded.stats.counter("simnet.sharded.shards"), 1);
}

#[test]
fn profiled_run_accounts_every_event_without_perturbing_results() {
    fn mesh(threads: usize, profile: bool) -> Report {
        let mut sim = Simulation::new(13);
        sim.set_lookahead(SimDelta::from_us(1));
        sim.set_threads(threads);
        sim.set_profile(profile);
        for r in 0..4u32 {
            sim.spawn_on(r as usize, format!("rank{r}"), move |ctx| {
                let dest = Pid::from_index(((r + 1) % 4) as usize);
                let jitter = ctx.gen_range(500);
                ctx.deliver(
                    dest,
                    SimDelta::from_us(1) + SimDelta::from_ns(jitter),
                    Box::new(r),
                );
                let msg = ctx.recv();
                assert_eq!(*msg.downcast::<u32>().unwrap(), (r + 3) % 4);
            });
        }
        sim.run().unwrap()
    }

    let plain = mesh(2, false);
    assert!(plain.profile.is_none(), "profiling is off by default");
    let profiled = mesh(2, true);
    // Profiling is observation only: every virtual-time result matches.
    assert_eq!(plain.end_time, profiled.end_time);
    assert_eq!(plain.events, profiled.events);
    assert_eq!(
        counters_without_engine(&plain),
        counters_without_engine(&profiled)
    );
    let ep = profiled.profile.expect("profiled sharded run attaches one");
    assert_eq!(ep.shards.len(), 4, "one ShardStats per shard");
    assert_eq!(
        ep.events_total(),
        profiled.events,
        "per-shard event counts must partition the run's event total"
    );
    assert_eq!(ep.threads, 2);
    assert!(ep.windows > 0);
    assert!(
        ep.shards.iter().all(|s| s.windows == ep.windows),
        "every shard sees every window"
    );
    // The classic (threads=1 via one shard) engine never profiles —
    // only the sharded runtime has windows to attribute. A profiled
    // single-threaded sharded run still reports, with no gate waits.
    let single = mesh(1, true);
    let ep1 = single.profile.expect("single-threaded sharded profile");
    assert_eq!(ep1.barrier_wait_ns_total(), 0, "no gate when inline");
    assert_eq!(ep1.events_total(), single.events);
}

#[test]
fn cross_shard_messages_arrive_exactly_on_time() {
    let mut sim = Simulation::new(0);
    sim.set_threads(2);
    sim.set_lookahead(SimDelta::from_ns(500));
    let rx = sim.spawn_on(1, "rx", |ctx| {
        let msg = ctx.recv();
        let v = *msg.downcast::<u64>().unwrap();
        assert_eq!(v, 99);
        assert_eq!(ctx.now(), SimTime::ZERO + SimDelta::from_ns(750));
    });
    sim.spawn_on(0, "tx", move |ctx| {
        ctx.deliver(rx, SimDelta::from_ns(750), Box::new(99u64));
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::ZERO + SimDelta::from_ns(750));
    assert_eq!(report.stats.counter("simnet.sharded.xshard_events"), 1);
}

#[test]
#[should_panic(expected = "below the link lookahead")]
fn cross_shard_delivery_below_lookahead_is_rejected() {
    let mut sim = Simulation::new(0);
    sim.set_threads(2);
    sim.set_lookahead(SimDelta::from_us(1));
    let rx = sim.spawn_on(1, "rx", |ctx| {
        let _ = ctx.recv();
    });
    sim.spawn_on(0, "tx", move |ctx| {
        ctx.deliver(rx, SimDelta::from_ns(10), Box::new(0u8));
    });
    let _ = sim.run();
}

#[test]
fn per_link_lookahead_overrides_allow_tighter_delays() {
    let mut sim = Simulation::new(0);
    sim.set_threads(2);
    sim.set_lookahead(SimDelta::from_us(1));
    sim.set_link_lookahead(0, 1, SimDelta::from_ns(100));
    let rx = sim.spawn_on(1, "rx", |ctx| {
        let _ = ctx.recv();
    });
    sim.spawn_on(0, "tx", move |ctx| {
        ctx.deliver(rx, SimDelta::from_ns(150), Box::new(1u8));
    });
    sim.run().unwrap();
}

#[test]
#[should_panic(expected = "simulated process 'boom' panicked: bang")]
fn sharded_process_panic_keeps_the_classic_message() {
    let mut sim = Simulation::new(0);
    sim.set_threads(2);
    sim.spawn_on(0, "ok", |ctx| ctx.sleep(SimDelta::from_us(1)));
    sim.spawn_on(1, "boom", |_ctx| panic!("bang"));
    let _ = sim.run();
}

#[test]
#[should_panic(expected = "dynamic spawn is not supported")]
fn sharded_dynamic_spawn_is_rejected() {
    let mut sim = Simulation::new(0);
    sim.spawn_on(0, "parent", |ctx| {
        ctx.spawn("child", |_c| {});
    });
    let _ = sim.run();
}

#[test]
fn the_sharded_engine_refuses_what_only_the_classic_loop_has() {
    type Build = fn(Simulation);
    let cases: [(&str, Build); 5] = [
        ("Simulation::spawn_reactor", |mut sim| {
            sim.spawn_on(0, "p", |_| {});
            sim.spawn_reactor("r", |_| None);
        }),
        ("Simulation::spawn_future", |mut sim| {
            sim.spawn_on(0, "p", |_| {});
            sim.spawn_future("f", async |_| {});
        }),
        ("Simulation::create_resource", |mut sim| {
            sim.spawn_on(0, "p", |_| {});
            sim.create_resource("nic");
        }),
        ("ProcessCtx::create_resource", |mut sim| {
            sim.spawn_on(0, "p", |ctx| {
                ctx.create_resource("nic");
            });
            let _ = sim.run();
        }),
        ("Simulation::enable_trace", |mut sim| {
            sim.enable_trace();
            sim.spawn_on(0, "p", |_| {});
        }),
    ];
    for (call, build) in cases {
        let payload = catch_unwind(AssertUnwindSafe(|| build(Simulation::new(0))))
            .expect_err("the sharded engine must refuse the call");
        let text = payload.downcast::<String>().map(|s| *s).unwrap_or_default();
        assert!(
            text.contains(&format!("{call} is not supported by the sharded engine")),
            "{call}: {text}"
        );
    }
}

#[test]
fn sharded_deadlock_names_processes_in_pid_order() {
    let mut sim = Simulation::new(0);
    sim.set_threads(2);
    sim.spawn_on(0, "stuck-a", |ctx| {
        let _ = ctx.recv();
    });
    sim.spawn_on(1, "stuck-b", |ctx| {
        let _ = ctx.recv();
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            let names: Vec<&str> = blocked.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, vec!["stuck-a", "stuck-b"]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn sharded_time_limit_is_enforced() {
    let mut sim = Simulation::new(0);
    sim.set_threads(2);
    sim.set_time_limit(SimTime::ZERO + SimDelta::from_us(3));
    sim.spawn_on(0, "fast", |ctx| ctx.sleep(SimDelta::from_us(1)));
    sim.spawn_on(1, "slow", |ctx| ctx.sleep(SimDelta::from_ms(5)));
    match sim.run() {
        Err(SimError::TimeLimitExceeded { limit }) => {
            assert_eq!(limit, SimTime::ZERO + SimDelta::from_us(3));
        }
        other => panic!("expected time limit error, got {other:?}"),
    }
}

#[test]
fn emits_reach_the_sink_in_canonical_order_at_any_thread_count() {
    fn run(threads: usize) -> Vec<(u64, usize, u64)> {
        let mut sim = Simulation::new(3);
        sim.set_threads(threads);
        sim.set_lookahead(SimDelta::from_us(1));
        let seen: Arc<Mutex<Vec<(u64, usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        sim.set_event_sink(Arc::new(move |batch| {
            for e in batch {
                if let Some(v) = e.event.downcast_ref::<u64>() {
                    seen2
                        .lock()
                        .unwrap()
                        .push((e.at.as_ps(), e.pid.index(), *v));
                }
            }
        }));
        for s in 0..4u64 {
            sim.spawn_on(s as usize, format!("rank{s}"), move |ctx| {
                for round in 0..3u64 {
                    ctx.emit(&(s * 100 + round));
                    ctx.sleep(SimDelta::from_us(2));
                }
            });
        }
        sim.run().unwrap();
        let out = seen.lock().unwrap().clone();
        out
    }
    let one = run(1);
    assert_eq!(one.len(), 12);
    // Canonical order: time-major, then shard.
    let mut sorted = one.clone();
    sorted.sort();
    assert_eq!(one, sorted);
    assert_eq!(one, run(2));
    assert_eq!(one, run(4));
}

#[test]
fn mesh_results_are_identical_at_every_thread_count() {
    let extra = [7u64, 311, 23, 1900, 450];
    let (r1, log1) = run_mesh(5, 4, 42, 1, None, &extra);
    for threads in [2usize, 4, 8] {
        let (rt, logt) = run_mesh(5, 4, 42, threads, Some(0xC0FFEE), &extra);
        assert_eq!(log1, logt, "receive log diverged at {threads} threads");
        assert_eq!(r1.end_time, rt.end_time);
        assert_eq!(r1.events, rt.events);
        assert_eq!(
            counters_without_engine(&r1),
            counters_without_engine(&rt),
            "stats diverged at {threads} threads"
        );
        assert_eq!(
            r1.stats.counter("simnet.sharded.windows"),
            rt.stats.counter("simnet.sharded.windows"),
            "window count must be thread-count independent"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random topology + latency map + schedule: no message is ever seen
    /// before its send time plus the link lookahead (the source shard's
    /// guaranteed horizon), at any thread count, chaos shim on.
    #[test]
    fn random_topologies_never_deliver_before_the_horizon(
        n in 2u32..6,
        rounds in 1u32..5,
        seed in 0u64..1_000,
        chaos in 0u64..1_000,
        la_ns in prop::collection::vec(500u64..3_000, 36),
        extra in prop::collection::vec(0u64..2_000, 1..8),
    ) {
        // Receiver-side lookahead assertion lives inside the workload
        // (recv asserts now >= sent + 1us default link); here we vary
        // per-link lookaheads and delays above them.
        let mut sim = Simulation::new(seed);
        sim.set_lookahead(SimDelta::from_us(1));
        let mut la = BTreeMap::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let v = la_ns[(i * 6 + j) as usize % la_ns.len()];
                    sim.set_link_lookahead(i as usize, j as usize, SimDelta::from_ns(v));
                    la.insert((i, j), v);
                }
            }
        }
        sim.set_threads(1 + (seed as usize % 4));
        sim.set_chaos(chaos);
        let log: RecvLog = Arc::new(Mutex::new(BTreeMap::new()));
        let mut pids = Vec::new();
        for r in 0..n {
            pids.push(sim.spawn_on(r as usize, format!("idle{r}"), |_ctx| {}));
        }
        for r in 0..n {
            let log2 = Arc::clone(&log);
            let la2 = la.clone();
            let extra2 = extra.clone();
            sim.spawn_on(r as usize, format!("rank{r}"), move |ctx| {
                for k in 0..rounds {
                    let dest_rank = (r + k) % n;
                    let dest = Pid::from_index((dest_rank + n) as usize);
                    let link = la2.get(&(r, dest_rank)).copied().unwrap_or(0);
                    let jitter = extra2[((r + k) as usize) % extra2.len()];
                    let delay = SimDelta::from_ns(link.max(1) + jitter);
                    ctx.deliver(dest, delay, Box::new((ctx.now().as_ps(), r, k)));
                }
                for _ in 0..rounds {
                    let msg = ctx.recv();
                    let (sent_ps, from, k) = *msg.downcast::<(u64, u32, u32)>().unwrap();
                    let now = ctx.now().as_ps();
                    if from != r {
                        let link = la2.get(&(from, r)).copied().unwrap_or(0);
                        // Plain assert: a violation panics the process, the
                        // engine re-raises it, and proptest records a failure.
                        assert!(
                            now >= sent_ps + SimDelta::from_ns(link).as_ps(),
                            "cross-shard message beat the lookahead horizon"
                        );
                    }
                    log2.lock().unwrap().entry(r).or_default().push((now, from, k));
                }
            });
        }
        sim.run().unwrap();
    }

    /// The delivered-event order is a pure function of the seed: chaos
    /// yield-injection and worker count cannot change any observable.
    #[test]
    fn delivered_order_is_independent_of_thread_interleaving(
        n in 2u32..6,
        rounds in 1u32..5,
        seed in 0u64..1_000,
        chaos in 1u64..1_000,
        extra in prop::collection::vec(0u64..2_000, 1..6),
    ) {
        let (r1, log1) = run_mesh(n, rounds, seed, 1, None, &extra);
        let (r2, log2) = run_mesh(n, rounds, seed, n as usize, Some(chaos), &extra);
        let (r3, log3) = run_mesh(n, rounds, seed, 2, Some(chaos.wrapping_mul(31)), &extra);
        prop_assert_eq!(&log1, &log2);
        prop_assert_eq!(&log1, &log3);
        prop_assert_eq!(r1.end_time, r2.end_time);
        prop_assert_eq!(r1.events, r2.events);
        prop_assert_eq!(r1.events, r3.events);
        prop_assert_eq!(counters_without_engine(&r1), counters_without_engine(&r2));
        prop_assert_eq!(counters_without_engine(&r1), counters_without_engine(&r3));
    }
}
