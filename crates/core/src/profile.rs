//! Zero-dependency hot-path span profiler.
//!
//! The offload framework's ARM-side hot path must stay cheap for the
//! paper's crossover argument to hold, and optimizing it needs
//! attribution first: *where* does the proxy's wall time go — ctrl
//! encode/decode, CRC verification, credit admission, journal
//! truncation, registration-cache lookups, CQ polling? This module
//! answers that with thread-local enter/exit timestamps aggregated into
//! a self-time call tree over named scopes. Those scopes are declared
//! once, in one table below: a crate-private `Scope` enum for the
//! `profile_scope!` call sites and [`PROFILE_SCOPES`], from which
//! `benchmark/` names its `core.<scope>.*` keys. The enum denies dead
//! code, so a declared scope that nothing enters fails the build.
//!
//! # Design constraints
//!
//! * **Off by default, free when off.** `profile_scope!` reads one
//!   thread-local flag; when it is off it takes no timestamp and
//!   allocates nothing.
//! * **Virtual-time safe.** Wall-clock reads happen strictly outside
//!   simulated decision-making: samples flow one way, out of the run,
//!   into the final report. Nothing in the simulation ever reads them
//!   back, so enabling the profiler cannot change results
//!   (`tests/determinism.rs` runs a stencil both ways and compares
//!   events, end time and every counter).
//! * **Deterministic aggregation.** Scopes are keyed by their
//!   `;`-joined call path in a `BTreeMap`, so report ordering is a
//!   function of the scope names alone. Durations, of course, are
//!   wall-clock and vary run to run.
//!
//! # Lifecycle
//!
//! The enabled flag and the call tree belong to the calling thread.
//! Every rank and proxy of a simulation is a future polled on the
//! thread that calls `run()`, so that thread's [`set_enabled`] and
//! [`take_report`] bracket the whole run; the thread-backed processes
//! left (simnet's kernel tests, `benchmark/`'s simnet and rdma rungs)
//! enter no scope. Because many ranks share that thread, a scope must
//! never stay open across an `.await` ([`balanced`] checks it in debug
//! builds).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};

/// Sentinel parent index for root scopes.
const ROOT: usize = usize::MAX;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TREE: RefCell<ThreadProfile> = const {
        RefCell::new(ThreadProfile {
            nodes: Vec::new(),
            index: BTreeMap::new(),
            stack: Vec::new(),
        })
    };
}

/// Turn collection on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|c| c.set(on));
}

/// One scope node in a thread's call tree.
struct Node {
    name: &'static str,
    parent: usize,
    count: u64,
    self_ns: u64,
}

/// An open scope on the thread's stack.
struct Frame {
    idx: usize,
    #[allow(
        clippy::disallowed_types,
        reason = "the span profiler measures wall time and never feeds simulated time"
    )]
    start: std::time::Instant,
    child_ns: u64,
}

struct ThreadProfile {
    nodes: Vec<Node>,
    /// `(parent index, name)` -> node index.
    index: BTreeMap<(usize, &'static str), usize>,
    stack: Vec<Frame>,
}

/// `;`-joined path of node `i`.
fn path_of(tp: &ThreadProfile, mut i: usize) -> String {
    let mut parts = Vec::new();
    loop {
        parts.push(tp.nodes[i].name);
        if tp.nodes[i].parent == ROOT {
            break;
        }
        i = tp.nodes[i].parent;
    }
    parts.reverse();
    parts.join(";")
}

/// Generates the two spellings of the profiled stages from one table:
/// the [`Scope`] enum [`profile_scope!`] takes, and [`PROFILE_SCOPES`],
/// built from the same literals (not from the variants) so it stays a
/// plain `&[&str]` constant.
macro_rules! scopes {
    ($($variant:ident => $name:literal,)*) => {
        /// A profiled hot-path stage. `dead_code` is denied: a variant
        /// nothing constructs is a declared scope no producer enters,
        /// a report row that could never appear.
        #[deny(dead_code)]
        pub(crate) enum Scope {
            $($variant,)*
        }

        impl Scope {
            /// The scope's name in profile reports.
            pub(crate) const fn name(self) -> &'static str {
                match self {
                    $(Scope::$variant => $name,)*
                }
            }
        }

        /// Every scope name a [`ProfileReport`] path may carry, in
        /// declaration order. `benchmark/` names its `core.<scope>.*`
        /// keys from it.
        pub const PROFILE_SCOPES: &[&str] = &[$($name,)*];
    };
}

scopes! {
    CtrlEncode => "ctrl_encode",
    CtrlDecode => "ctrl_decode",
    CrcVerify => "crc_verify",
    CreditAdmission => "credit_admission",
    JournalTruncate => "journal_truncate",
    CacheLookup => "cache_lookup",
    CqPoll => "cq_poll",
}

/// RAII guard closing a profiled scope; created by `profile_scope!`.
#[must_use = "binding the guard keeps the scope open until end of block"]
pub(crate) struct ScopeGuard;

/// Open a profiled scope named `name` on this thread's call tree.
/// Returns `None` (no timestamp taken) when profiling is disabled —
/// [`profile_scope!`] binds the result either way so the guard drops at
/// end of scope.
pub(crate) fn scope_guard(name: &'static str) -> Option<ScopeGuard> {
    if !ENABLED.with(Cell::get) {
        return None;
    }
    TREE.with_borrow_mut(|tp| {
        let parent = tp.stack.last().map(|f| f.idx).unwrap_or(ROOT);
        let idx = match tp.index.get(&(parent, name)) {
            Some(&i) => i,
            None => {
                let i = tp.nodes.len();
                tp.nodes.push(Node {
                    name,
                    parent,
                    count: 0,
                    self_ns: 0,
                });
                tp.index.insert((parent, name), i);
                i
            }
        };
        #[allow(
            clippy::disallowed_types,
            clippy::disallowed_methods,
            reason = "the span profiler measures wall time and never feeds simulated time"
        )]
        tp.stack.push(Frame {
            idx,
            start: std::time::Instant::now(),
            child_ns: 0,
        });
    });
    Some(ScopeGuard)
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        TREE.with_borrow_mut(|tp| {
            let frame = tp.stack.pop().expect("profile scope stack underflow");
            let dur = frame.start.elapsed().as_nanos() as u64;
            let node = &mut tp.nodes[frame.idx];
            node.count += 1;
            node.self_ns += dur.saturating_sub(frame.child_ns);
            if let Some(pf) = tp.stack.last_mut() {
                pf.child_ns += dur;
            }
        });
    }
}

/// Profile the enclosing block as a [`Scope`] variant. Expands to an
/// RAII guard binding; when profiling is disabled the guard is `None`
/// and the whole thing costs one thread-local flag read.
macro_rules! profile_scope {
    ($scope:ident) => {
        let _profile_guard = $crate::profile::scope_guard($crate::profile::Scope::$scope.name());
    };
}
pub(crate) use profile_scope;

/// Wrap a rank's body so that, in debug builds, every poll must leave
/// the thread's scope stack at the depth it found it: future ranks take
/// turns on one thread, and a scope held across an `.await` would file
/// the next rank's scopes under it.
pub fn balanced<F: Future>(fut: F) -> impl Future<Output = F::Output> {
    let depth = || TREE.with_borrow(|tp| tp.stack.len());
    let mut fut = Box::pin(fut);
    poll_fn(move |cx| {
        let before = cfg!(debug_assertions).then(depth);
        let out = fut.as_mut().poll(cx);
        debug_assert_eq!(
            before.map(|_| depth()),
            before,
            "a profile scope spans an .await"
        );
        out
    })
}

/// Aggregated samples for one scope path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeAgg {
    /// Enter/exit pairs observed.
    pub count: u64,
    /// Wall nanoseconds excluding child scopes.
    pub self_ns: u64,
}

/// A self-time call tree keyed by `;`-joined scope path.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Path -> aggregate, in path order (deterministic).
    pub scopes: BTreeMap<String, ScopeAgg>,
}

/// Drain the calling thread's tree into a report. Nodes are zeroed in
/// place, so a scope still open keeps a valid index and lands in the
/// next report.
pub fn take_report() -> ProfileReport {
    TREE.with_borrow_mut(|tp| {
        let mut scopes = BTreeMap::new();
        for i in 0..tp.nodes.len() {
            let n = &tp.nodes[i];
            if n.count > 0 {
                let agg = ScopeAgg {
                    count: n.count,
                    self_ns: n.self_ns,
                };
                scopes.insert(path_of(tp, i), agg);
            }
        }
        for n in &mut tp.nodes {
            n.count = 0;
            n.self_ns = 0;
        }
        ProfileReport { scopes }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test runs on its own thread, and so has its own profiler.

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "test code: sleeps so that each scope has wall time to report"
    )]
    fn scopes_nest_and_report_self_time() {
        set_enabled(true);
        {
            let _g = scope_guard("outer_test_scope");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _g = scope_guard("inner_test_scope");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_enabled(false);
        let report = take_report();
        let paths: Vec<&str> = report.scopes.keys().map(String::as_str).collect();
        assert_eq!(
            paths,
            ["outer_test_scope", "outer_test_scope;inner_test_scope"]
        );
        let outer = &report.scopes["outer_test_scope"];
        let inner = &report.scopes["outer_test_scope;inner_test_scope"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_ns >= 1_000_000, "inner slept 1 ms");
        assert!(outer.self_ns >= 2_000_000, "outer slept 2 ms itself");
        assert!(take_report().scopes.is_empty(), "a report drains the tree");
    }

    #[test]
    fn disabled_profiler_collects_nothing() {
        {
            let _g = scope_guard("never_recorded_scope");
        }
        assert!(take_report().scopes.is_empty());
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "test code: a second thread must not see this thread's flag"
    )]
    fn the_flag_belongs_to_the_calling_thread() {
        set_enabled(true);
        std::thread::spawn(|| {
            let _g = scope_guard("other_thread_scope");
        })
        .join()
        .expect("unprofiled thread");
        set_enabled(false);
        assert!(take_report().scopes.is_empty());
    }

    /// Poll `fut` twice on this thread, as the scheduler would: the
    /// first poll is pending once (a rank's wait), the second completes.
    fn poll_twice(scope_across_await: bool) {
        let mut waited = false;
        let wait = std::future::poll_fn(move |_| {
            let first = !std::mem::replace(&mut waited, true);
            if first {
                std::task::Poll::Pending
            } else {
                std::task::Poll::Ready(())
            }
        });
        let mut fut = std::pin::pin!(balanced(async move {
            if scope_across_await {
                let _g = scope_guard("held_scope");
                wait.await;
            } else {
                {
                    let _g = scope_guard("closed_scope");
                }
                wait.await;
            }
        }));
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        set_enabled(true);
        let polls = [fut.as_mut().poll(&mut cx), fut.as_mut().poll(&mut cx)];
        set_enabled(false);
        assert_eq!(
            polls,
            [std::task::Poll::Pending, std::task::Poll::Ready(())]
        );
    }

    #[test]
    fn a_balanced_rank_closes_its_scopes_before_awaiting() {
        poll_twice(false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a profile scope spans an .await")]
    fn a_scope_held_across_an_await_is_caught() {
        poll_twice(true);
    }

    /// `benchmark/` names its `core.<scope>.*` keys by iterating this
    /// list, so its names and their order are part of that contract.
    #[test]
    fn profile_scopes_are_the_seven_hot_path_stages_in_order() {
        assert_eq!(
            PROFILE_SCOPES,
            [
                "ctrl_encode",
                "ctrl_decode",
                "crc_verify",
                "credit_admission",
                "journal_truncate",
                "cache_lookup",
                "cq_poll",
            ]
        );
    }
}
