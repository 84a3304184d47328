//! Zero-dependency hot-path span profiler (`profile_scope!`).
//!
//! The offload framework's ARM-side hot path must stay cheap for the
//! paper's crossover argument to hold, and optimizing it needs
//! attribution first: *where* does the proxy's wall time go — ctrl
//! encode/decode, CRC verification, credit admission, journal
//! truncation, registration-cache lookups, CQ polling? This module
//! answers that with thread-local enter/exit timestamps aggregated into
//! a self/total-time call tree over named scopes.
//!
//! # Design constraints
//!
//! * **Off by default, free when off.** [`profile_scope!`] consults a
//!   thread-local cache of the enabled flag; when disabled it takes no
//!   timestamp, allocates nothing, and touches no lock.
//! * **Virtual-time safe.** Wall-clock reads happen strictly outside
//!   simulated decision-making: samples flow one way, out of the run,
//!   into the final report. Nothing in the simulation ever reads them
//!   back, so enabling the profiler cannot change results (asserted by
//!   the `engine_speed` bench, which compares profiled and unprofiled
//!   runs for exact equality).
//! * **Deterministic aggregation.** Scopes are keyed by their
//!   `;`-joined call path in a `BTreeMap`, so report ordering is a
//!   function of the scope names alone, never of thread timing.
//!   Durations, of course, are wall-clock and vary run to run.
//!
//! # Lifecycle
//!
//! Each thread accumulates into its own tree. When a thread exits (both
//! simnet engines join their threads before `run()` returns), the tree
//! is folded into a process-global registry; future ranks and proxy
//! reactors sample into the tree of the thread that called `run()`.
//! Because many ranks share that thread, a scope must never stay open
//! across an `.await` ([`balanced`] checks it in debug builds);
//! [`take_report`] merges the calling thread's data with the registry
//! and drains both. Export as collapsed-stack text
//! ([`ProfileReport::collapsed_stack`], flamegraph-compatible) or as a
//! `bluefield-offload/profile/v1` JSON document via `obs`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};

use parking_lot::Mutex;

/// Environment knob that arms the profiler on first use (`BENCH_PROFILE=1`).
/// [`set_enabled`] overrides it either way.
pub const BENCH_PROFILE_ENV: &str = "BENCH_PROFILE";

/// Histogram bucket count: bucket `b` holds durations in
/// `[2^(b-1), 2^b)` nanoseconds (bucket 0 holds zero), matching
/// `obs::lifecycle`'s mergeable log2 histograms.
pub const PROFILE_BUCKETS: usize = 65;

/// Sentinel parent index for root scopes.
const ROOT: usize = usize::MAX;

/// Process-global enabled flag. `None` until first consulted, then
/// latched from [`BENCH_PROFILE_ENV`] unless [`set_enabled`] set it
/// first.
static ENABLED: Mutex<Option<bool>> = Mutex::new(None);

/// Completed per-thread trees, folded in at thread exit or report time.
static REGISTRY: Mutex<BTreeMap<String, ScopeAgg>> = Mutex::new(BTreeMap::new());

/// Whether the profiler is collecting. The fast path reads a
/// thread-local cache; the global flag is consulted (and latched from
/// the environment) only on each thread's first call.
pub fn enabled() -> bool {
    ENABLED_CACHE.with(|c| match c.get() {
        Some(v) => v,
        None => {
            let v = *ENABLED
                .lock()
                .get_or_insert_with(|| std::env::var(BENCH_PROFILE_ENV).is_ok_and(|v| v == "1"));
            c.set(Some(v));
            v
        }
    })
}

/// Turn collection on or off, overriding [`BENCH_PROFILE_ENV`].
///
/// Affects the calling thread immediately and any thread that has not
/// yet taken its first sample; call it before spawning the simulation
/// (benches do) and every thread agrees.
pub fn set_enabled(on: bool) {
    *ENABLED.lock() = Some(on);
    ENABLED_CACHE.with(|c| c.set(Some(on)));
}

thread_local! {
    static ENABLED_CACHE: Cell<Option<bool>> = const { Cell::new(None) };
    static TLS: TlsSlot = TlsSlot(RefCell::new(ThreadProfile::default()));
}

/// One scope node in a thread's call tree.
struct Node {
    name: &'static str,
    parent: usize,
    count: u64,
    self_ns: u64,
    total_ns: u64,
    max_ns: u64,
    buckets: [u64; PROFILE_BUCKETS],
}

/// An open scope on the thread's stack.
struct Frame {
    idx: usize,
    start: std::time::Instant, // lint:allow(wall-clock)
    child_ns: u64,
}

#[derive(Default)]
struct ThreadProfile {
    nodes: Vec<Node>,
    /// `(parent index, name)` -> node index.
    index: BTreeMap<(usize, &'static str), usize>,
    stack: Vec<Frame>,
}

/// Wrapper whose `Drop` folds the thread's tree into the registry when
/// the thread exits, so worker-thread samples survive into the report.
struct TlsSlot(RefCell<ThreadProfile>);

impl Drop for TlsSlot {
    fn drop(&mut self) {
        merge_into_registry(&mut self.0.borrow_mut());
    }
}

/// `;`-joined path of node `i` (collapsed-stack convention).
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

/// Fold a thread's tree into [`REGISTRY`] and zero it in place (indices
/// stay valid for any still-open frames).
fn merge_into_registry(tp: &mut ThreadProfile) {
    if tp.nodes.iter().all(|n| n.count == 0) {
        return;
    }
    let mut reg = REGISTRY.lock();
    for i in 0..tp.nodes.len() {
        if tp.nodes[i].count == 0 {
            continue;
        }
        let path = path_of(tp, i);
        let agg = reg.entry(path).or_default();
        let n = &tp.nodes[i];
        agg.count += n.count;
        agg.self_ns += n.self_ns;
        agg.total_ns += n.total_ns;
        agg.max_ns = agg.max_ns.max(n.max_ns);
        for (dst, src) in agg.buckets.iter_mut().zip(n.buckets.iter()) {
            *dst += src;
        }
    }
    for n in &mut tp.nodes {
        n.count = 0;
        n.self_ns = 0;
        n.total_ns = 0;
        n.max_ns = 0;
        n.buckets = [0; PROFILE_BUCKETS];
    }
}

/// Log2 bucket index of a nanosecond duration (bucket 0 = zero),
/// mirroring `obs::lifecycle::Histogram`.
fn bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// RAII guard closing a profiled scope; created by [`profile_scope!`].
#[must_use = "binding the guard keeps the scope open until end of block"]
pub struct ScopeGuard {
    _priv: (),
}

/// Open a profiled scope named `name` on this thread's call tree.
/// Returns `None` (no timestamp taken) when profiling is disabled —
/// [`profile_scope!`] binds the result either way so the guard drops at
/// end of scope.
pub fn scope_guard(name: &'static str) -> Option<ScopeGuard> {
    if !enabled() {
        return None;
    }
    TLS.with(|slot| {
        let mut tp = slot.0.borrow_mut();
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
                    total_ns: 0,
                    max_ns: 0,
                    buckets: [0; PROFILE_BUCKETS],
                });
                tp.index.insert((parent, name), i);
                i
            }
        };
        tp.stack.push(Frame {
            idx,
            start: std::time::Instant::now(), // lint:allow(wall-clock)
            child_ns: 0,
        });
    });
    Some(ScopeGuard { _priv: () })
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        TLS.with(|slot| {
            let mut tp = slot.0.borrow_mut();
            let frame = tp.stack.pop().expect("profile scope stack underflow");
            let dur = frame.start.elapsed().as_nanos() as u64;
            let self_ns = dur.saturating_sub(frame.child_ns);
            let b = bucket(dur);
            let node = &mut tp.nodes[frame.idx];
            node.count += 1;
            node.self_ns += self_ns;
            node.total_ns += dur;
            node.max_ns = node.max_ns.max(dur);
            node.buckets[b] += 1;
            if let Some(pf) = tp.stack.last_mut() {
                pf.child_ns += dur;
            }
        });
    }
}

/// Profile the enclosing scope under a string-literal name. Expands to
/// an RAII guard binding; when profiling is disabled the guard is
/// `None` and the whole thing costs one thread-local flag read.
///
/// ```
/// fn hot_path() {
///     offload::profile_scope!("ctrl_decode");
///     // ... work measured under "ctrl_decode" ...
/// }
/// ```
#[macro_export]
macro_rules! profile_scope {
    ($name:literal) => {
        let _profile_guard = $crate::profile::scope_guard($name);
    };
}

/// Wrap a rank's body so that, in debug builds, every poll must leave
/// the thread's scope stack at the depth it found it: future ranks take
/// turns on one thread, and a scope held across an `.await` would file
/// the next rank's scopes under it.
pub fn balanced<F: Future>(fut: F) -> impl Future<Output = F::Output> {
    let depth = || TLS.with(|slot| slot.0.borrow().stack.len());
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeAgg {
    /// Enter/exit pairs observed.
    pub count: u64,
    /// Wall nanoseconds excluding child scopes.
    pub self_ns: u64,
    /// Wall nanoseconds including child scopes.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Log2 duration histogram of span totals (bucket `b` holds
    /// durations in `[2^(b-1), 2^b)` ns; bucket 0 holds zero).
    pub buckets: [u64; PROFILE_BUCKETS],
}

impl ScopeAgg {
    /// An empty aggregate.
    pub fn new() -> ScopeAgg {
        ScopeAgg {
            count: 0,
            self_ns: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: [0; PROFILE_BUCKETS],
        }
    }
}

impl Default for ScopeAgg {
    fn default() -> Self {
        ScopeAgg::new()
    }
}

/// A merged self/total-time call tree keyed by `;`-joined scope path.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Path -> aggregate, in path order (deterministic).
    pub scopes: BTreeMap<String, ScopeAgg>,
}

impl ProfileReport {
    /// Whether any scope recorded a sample.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Collapsed-stack text: one `path;to;scope self_ns` line per
    /// scope, directly consumable by flamegraph tooling.
    pub fn collapsed_stack(&self) -> String {
        let mut out = String::new();
        for (path, agg) in &self.scopes {
            out.push_str(path);
            out.push(' ');
            out.push_str(&agg.self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Fold `other` into `self` (reports from separate runs merge the
    /// same way per-thread trees do).
    pub fn merge(&mut self, other: &ProfileReport) {
        for (path, src) in &other.scopes {
            let agg = self.scopes.entry(path.clone()).or_default();
            agg.count += src.count;
            agg.self_ns += src.self_ns;
            agg.total_ns += src.total_ns;
            agg.max_ns = agg.max_ns.max(src.max_ns);
            for (d, s) in agg.buckets.iter_mut().zip(src.buckets.iter()) {
                *d += s;
            }
        }
    }
}

/// Drain everything collected so far — the calling thread's tree plus
/// every exited thread's contribution in the global registry — into one
/// merged report. Scopes still open on other live threads appear once
/// those threads exit (simnet joins its threads before `run()`
/// returns, so bench callers see complete data).
pub fn take_report() -> ProfileReport {
    TLS.with(|slot| merge_into_registry(&mut slot.0.borrow_mut()));
    let scopes = std::mem::take(&mut *REGISTRY.lock());
    ProfileReport { scopes }
}

/// Entry counts per scope path currently visible to this thread (its
/// own tree plus the registry), without draining anything. The
/// telemetry bus samples this between windows; counts are deterministic
/// wherever the sampling thread and the sampled scopes coincide (the
/// classic engine runs everything on one thread).
pub fn scope_counts() -> Vec<(String, u64)> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (p, a) in REGISTRY.lock().iter() {
        if a.count > 0 {
            *counts.entry(p.clone()).or_default() += a.count;
        }
    }
    TLS.with(|slot| {
        let tp = slot.0.borrow();
        for i in 0..tp.nodes.len() {
            if tp.nodes[i].count > 0 {
                *counts.entry(path_of(&tp, i)).or_default() += tp.nodes[i].count;
            }
        }
    });
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global state shared by parallel tests,
    /// so assertions here are containment-style, never exact-drain.
    #[test]
    fn scopes_nest_and_report_self_vs_total() {
        set_enabled(true);
        {
            crate::profile_scope!("outer_test_scope");
            std::thread::sleep(std::time::Duration::from_millis(2)); // lint:allow(wall-clock)
            {
                crate::profile_scope!("inner_test_scope");
                std::thread::sleep(std::time::Duration::from_millis(1)); // lint:allow(wall-clock)
            }
        }
        let report = take_report();
        set_enabled(false);
        let outer = report.scopes.get("outer_test_scope").expect("outer scope");
        let inner = report
            .scopes
            .get("outer_test_scope;inner_test_scope")
            .expect("inner scope nests under outer");
        assert!(outer.count >= 1);
        assert!(inner.count >= 1);
        assert!(
            outer.total_ns >= outer.self_ns + inner.total_ns,
            "outer total covers inner total plus own self time"
        );
        assert!(inner.self_ns > 0);
        let collapsed = report.collapsed_stack();
        assert!(collapsed.contains("outer_test_scope;inner_test_scope "));
    }

    #[test]
    fn disabled_profiler_collects_nothing() {
        set_enabled(false);
        {
            crate::profile_scope!("never_recorded_scope");
        }
        let report = take_report();
        assert!(!report.scopes.contains_key("never_recorded_scope"));
    }

    #[test]
    fn worker_thread_samples_survive_thread_exit() {
        set_enabled(true);
        std::thread::spawn(|| {
            crate::profile_scope!("thread_exit_scope");
        })
        .join()
        .expect("profiled thread");
        let report = take_report();
        set_enabled(false);
        assert!(report.scopes.contains_key("thread_exit_scope"));
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
                crate::profile_scope!("held_scope");
                wait.await;
            } else {
                {
                    crate::profile_scope!("closed_scope");
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

    #[test]
    fn merge_accumulates_counts_and_buckets() {
        let mut a = ProfileReport::default();
        let mut agg = ScopeAgg::new();
        agg.count = 2;
        agg.self_ns = 100;
        agg.total_ns = 150;
        agg.max_ns = 90;
        agg.buckets[bucket(90)] = 2;
        a.scopes.insert("x".into(), agg.clone());
        let mut b = ProfileReport::default();
        agg.max_ns = 200;
        b.scopes.insert("x".into(), agg);
        a.merge(&b);
        let x = &a.scopes["x"];
        assert_eq!(x.count, 4);
        assert_eq!(x.self_ns, 200);
        assert_eq!(x.max_ns, 200);
        assert_eq!(x.buckets[bucket(90)], 4);
    }

    #[test]
    fn log2_bucket_matches_lifecycle_convention() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(1024), 11);
        assert_eq!(bucket(u64::MAX), 64);
    }
}
