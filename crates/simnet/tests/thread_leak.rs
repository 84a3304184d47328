//! A run that fails — deadlock, time limit, a process panic — ends with
//! process threads still parked inside blocking calls. `run()` must cancel
//! and join them: the checker's explorer and the fault soak produce such
//! runs by the thousand. A simulation dropped without `run()` has every
//! process thread parked before its first instruction; dropping it must
//! cancel and join those.
//!
//! One test, alone in its binary: it counts the OS threads of the whole
//! process, which a neighbouring test would disturb.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simnet::{SimDelta, SimError, SimTime, Simulation};

/// OS threads of this process right now.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// Assert that the process is back to `want` OS threads. `join` returns
/// when a thread has signalled its exit, a moment before the kernel takes
/// it off the process's books, so give stragglers a second; a leaked
/// thread is parked for good and no wait would hide it.
#[allow(
    clippy::disallowed_methods,
    reason = "test code: gives cancelled threads wall time to exit"
)]
fn assert_threads(want: usize, what: &str) {
    for _ in 0..1000 {
        if os_threads() == want {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(os_threads(), want, "{what}");
}

/// Four processes: two wait for mail that never comes, two sleep in a
/// loop.
fn stuck_sim() -> Simulation {
    let mut sim = Simulation::new(0);
    for i in 0..4usize {
        sim.spawn(format!("p{i}"), move |ctx| {
            if i % 2 == 0 {
                let _ = ctx.recv();
            } else {
                for _ in 0..3 {
                    ctx.sleep(SimDelta::from_us(1));
                }
                if i == 3 {
                    let _ = ctx.recv();
                }
            }
        });
    }
    sim
}

#[test]
fn no_simulation_leaves_a_thread_behind() {
    let before = os_threads();
    for _ in 0..20 {
        drop(stuck_sim());
    }
    assert_threads(before, "dropped without run()");
    for _ in 0..50 {
        let sim = stuck_sim();
        assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
        assert_threads(before, "deadlock");

        let mut sim = stuck_sim();
        sim.set_time_limit(SimTime::ZERO + SimDelta::from_ns(1500));
        assert!(matches!(sim.run(), Err(SimError::TimeLimitExceeded { .. })));
        assert_threads(before, "time limit");
    }
    // The rarer way out, once: a panic (where the run has no result to
    // return at all).
    let mut sim = stuck_sim();
    sim.spawn("boom", |_| panic!("bang"));
    assert!(catch_unwind(AssertUnwindSafe(|| sim.run())).is_err());
    assert_threads(before, "panic");
}
