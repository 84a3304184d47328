//! The counter table behind `ProcessCtx::stat_incr`: keys interned by
//! name, bumped without a lock, and assembled into `Report.stats` when the
//! run ends.

use std::sync::{Arc, Barrier};

use simnet::{Pid, SimDelta, Simulation, StatKey, Stats};

/// Names out of name order, with prefixes of one another, so the report's
/// order is the assembly's doing, not the declaration's.
static SCRIPT_KEYS: [StatKey; 6] = [
    StatKey::new("zeta"),
    StatKey::new("a.b"),
    StatKey::new("a"),
    StatKey::new("a.b.c"),
    StatKey::new("a_b"),
    StatKey::new("m.time"),
];

/// `(key index, amount, is a time)`, zero amounts included.
fn script() -> Vec<(usize, u64, bool)> {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    (0..200)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 6) as usize;
            let amount = (x >> 8) % 4;
            (key, amount, key == 5 || (x >> 20).is_multiple_of(5))
        })
        .collect()
}

fn counters(stats: &Stats) -> Vec<(String, u64)> {
    stats.counters().map(|(k, v)| (k.to_string(), v)).collect()
}

fn times(stats: &Stats) -> Vec<(String, SimDelta)> {
    stats.times().map(|(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn a_key_bumped_only_by_zero_appears_with_zero() {
    static NEVER: StatKey = StatKey::new("counters.zero");
    static IDLE: StatKey = StatKey::new("counters.idle_time");
    let mut sim = Simulation::new(0);
    sim.spawn("p", |ctx| {
        ctx.stat_incr(&NEVER, 0);
        ctx.stat_time(&IDLE, SimDelta::ZERO);
    });
    let stats = sim.run().unwrap().stats;
    assert_eq!(counters(&stats), vec![("counters.zero".to_string(), 0)]);
    assert_eq!(
        times(&stats),
        vec![("counters.idle_time".to_string(), SimDelta::ZERO)]
    );
}

#[test]
fn the_report_matches_stats_built_by_name_from_the_same_script() {
    let mut expected = Stats::new();
    for &(key, n, time) in &script() {
        let name = SCRIPT_KEYS[key].name();
        if time {
            expected.add_time(name, SimDelta::from_ps(n));
        } else {
            expected.incr(name, n);
        }
    }
    let mut sim = Simulation::new(0);
    sim.spawn("p", |ctx| {
        for (key, n, time) in script() {
            if time {
                ctx.stat_time(&SCRIPT_KEYS[key], SimDelta::from_ps(n));
            } else {
                ctx.stat_incr(&SCRIPT_KEYS[key], n);
            }
        }
    });
    let stats = sim.run().unwrap().stats;
    assert_eq!(counters(&stats), counters(&expected));
    assert_eq!(times(&stats), times(&expected));
}

#[test]
fn a_key_named_like_the_engines_own_shares_its_counter() {
    // The engine bumps this one from inside `simnet`; this static lives
    // in another crate.
    static MINE: StatKey = StatKey::new("simnet.deliver_to_finished");
    let mut sim = Simulation::new(0);
    let rx = sim.spawn("short", |_ctx| {});
    sim.spawn("late", move |ctx| {
        ctx.sleep(SimDelta::from_us(1));
        ctx.deliver(rx, SimDelta::from_us(1), Box::new(1u8));
        ctx.stat_incr(&MINE, 5);
    });
    let stats = sim.run().unwrap().stats;
    assert_eq!(stats.counter("simnet.deliver_to_finished"), 6);
    assert_eq!(counters(&stats).len(), 1);
}

#[test]
fn stat_counter_reads_a_counter_mid_run() {
    static HOPS: StatKey = StatKey::new("counters.hops");
    let mut sim = Simulation::new(0);
    sim.spawn("p", |ctx| {
        assert_eq!(ctx.stat_counter(&HOPS), 0);
        ctx.stat_incr(&HOPS, 2);
        ctx.sleep(SimDelta::from_us(1));
        ctx.stat_incr(&HOPS, 3);
        assert_eq!(ctx.stat_counter(&HOPS), 5);
    });
    sim.spawn("q", |ctx| {
        ctx.sleep(SimDelta::from_ns(500));
        assert_eq!(ctx.stat_counter(&HOPS), 2, "another process sees it");
    });
    assert_eq!(sim.run().unwrap().stats.counter("counters.hops"), 5);
}

#[test]
fn simulations_running_at_once_keep_separate_counts() {
    static SHARED: StatKey = StatKey::new("counters.concurrent");
    // Both runs bump, then meet, then read: each is mid-run while the
    // other bumps the same key.
    let meet = Arc::new(Barrier::new(2));
    let run = |bump: u64| {
        let meet = Arc::clone(&meet);
        std::thread::spawn(move || {
            let mut sim = Simulation::new(0);
            sim.spawn("p", move |ctx| {
                ctx.stat_incr(&SHARED, bump);
                meet.wait();
                ctx.stat_incr(&SHARED, bump);
                meet.wait();
                assert_eq!(ctx.stat_counter(&SHARED), 2 * bump);
            });
            sim.run().unwrap().stats.counter("counters.concurrent")
        })
    };
    let (a, b) = (run(1), run(10));
    assert_eq!(a.join().unwrap(), 2);
    assert_eq!(b.join().unwrap(), 20);
}

#[test]
fn a_ring_run_reports_its_counters_and_times() {
    // A token ring over four processes: each hop bumps the hop counter
    // and a zero counter, the last lap leaves a late message to a
    // finished process.
    static HOPS: StatKey = StatKey::new("counters.ring.hops");
    static WAIT: StatKey = StatKey::new("counters.ring.wait");
    static NOTHING: StatKey = StatKey::new("counters.ring.nothing");
    const N: usize = 4;
    const LAPS: u64 = 5;
    let mut sim = Simulation::new(7);
    for i in 0..N {
        sim.spawn(format!("r{i}"), move |ctx| {
            let next = Pid::from_index((i + 1) % N);
            if i == 0 {
                ctx.deliver(next, SimDelta::from_us(1), Box::new(0u64));
            }
            loop {
                let t0 = ctx.now();
                let hop = *ctx.recv().downcast::<u64>().unwrap();
                ctx.stat_time(&WAIT, ctx.now() - t0);
                ctx.stat_incr(&HOPS, 1);
                ctx.stat_incr(&NOTHING, 0);
                ctx.deliver(next, SimDelta::from_us(1), Box::new(hop + 1));
                if hop + N as u64 >= LAPS * N as u64 {
                    return;
                }
            }
        });
    }
    let stats = sim.run().unwrap().stats;
    assert_eq!(stats.counter("counters.ring.hops"), 20);
    assert_eq!(stats.counter("simnet.deliver_to_finished"), 1);
    assert_eq!(stats.counter("counters.ring.nothing"), 0);
    assert!(counters(&stats)
        .iter()
        .any(|(k, _)| k == "counters.ring.nothing"));
    assert!(times(&stats).iter().any(|(k, _)| k == "counters.ring.wait"));
}
