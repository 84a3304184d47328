//! The lint wall, ported from the line-regex scanner in `xtask` onto the
//! token engine: immune to comments, string literals, and inline
//! `#[cfg(test)]` modules. Three determinism rules and one about the
//! price of a thread hand-off.
//!
//! * [`HASH_ITER`] — `HashMap`/`HashSet` iteration order is randomized
//!   per process; any matching or scheduling decision that walks one
//!   diverges between reruns and breaks the determinism guarantee.
//! * [`WALL_CLOCK`] — `std::time` / `Instant` / `SystemTime` smuggle
//!   host timing into simulated runs; simulated code reads virtual
//!   time from its `ProcessCtx`.
//! * [`DECODE_UNWRAP`] — `unwrap()`/`expect()` on `downcast` results
//!   takes a whole simulated rank down on an unexpected payload;
//!   decode paths drop and count a stat instead.
//! * [`NOTIFY_UNDER_LOCK`] — `notify_one()`/`notify_all()` while a
//!   `let g = x.lock()` guard is still alive. The workspace's
//!   `parking_lot` is a shim over `std::sync`, whose `Condvar` does not
//!   requeue waiters onto the mutex: a thread woken under the lock runs,
//!   blocks on the mutex, and is switched out again — the simulator's
//!   hand-off cost 8.0 µs an activation this way, 2.2 µs notifying after
//!   the guard drops.
//!
//! `lint:allow(<rule>)` on the offending line waives that rule there.

use crate::lex::TokKind;
use crate::rules::parallel::acquisitions;
use crate::{Finding, SourceSet};

/// Rule name for the hash-container ban.
pub const HASH_ITER: &str = "hash-iteration-order";
/// Rule name for the host-clock ban.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule name for the panicking-decode ban.
pub const DECODE_UNWRAP: &str = "decode-unwrap";
/// Rule name for condvar notifies under a live mutex guard.
pub const NOTIFY_UNDER_LOCK: &str = "notify-under-lock";

/// `(rule, why)` notes printed by `cargo xtask lint` when a rule fires.
pub const WHY: &[(&str, &str)] = &[
    (
        HASH_ITER,
        "randomized iteration order breaks deterministic matching; \
         use BTreeMap/BTreeSet/VecDeque",
    ),
    (
        WALL_CLOCK,
        "simulated code must use virtual time (SimTime/SimDelta), \
         never the host clock",
    ),
    (
        DECODE_UNWRAP,
        "cross-rank message decode must not panic on unexpected \
         payloads; drop and count a stat instead",
    ),
    (
        NOTIFY_UNDER_LOCK,
        "this Condvar does not requeue: the woken thread blocks on the \
         mutex at once; drop the guard (end its block) before notifying",
    ),
];

/// Roots patrolled for `HashMap`/`HashSet`: the deterministic matching
/// and scheduling crates, plus the bench harness that replays them.
fn hash_roots() -> Vec<String> {
    to_owned(&[
        "crates/core/src",
        "crates/rdma/src",
        "crates/obs/src",
        "crates/minimpi/src",
        "crates/bench/src",
    ])
}

/// Roots patrolled for host-clock reads: everything simnet-driven.
fn clock_roots() -> Vec<String> {
    to_owned(&[
        "crates/simnet/src",
        "crates/core/src",
        "crates/rdma/src",
        "crates/workloads/src",
        "crates/checker/src",
        "crates/obs/src",
        "crates/minimpi/src",
        "crates/bench/src",
    ])
}

/// Roots patrolled for panicking decode.
fn decode_roots() -> Vec<String> {
    to_owned(&["crates/core/src", "crates/rdma/src"])
}

/// Roots patrolled for notifies under a lock: every crate.
fn notify_roots() -> Vec<String> {
    to_owned(&["crates/"])
}

fn to_owned(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Run the lint wall over `set`. The rules carry their own roots, so
/// fixture trees exercise the exact entry point the workspace uses.
pub fn run(set: &SourceSet) -> Vec<Finding> {
    let mut out = Vec::new();
    // hash-iteration-order: any live HashMap/HashSet identifier.
    for file in set.under(&hash_roots()) {
        for (i, t) in file.lexed.toks.iter().enumerate() {
            if file.live(i)
                && (t.is_ident("HashMap") || t.is_ident("HashSet"))
                && !file.allowed(HASH_ITER, t.line)
            {
                out.push(Finding {
                    rule: HASH_ITER,
                    path: file.path.clone(),
                    line: t.line,
                    msg: file.line_text(t.line).to_string(),
                });
            }
        }
    }
    // wall-clock: `std::time` paths or Instant/SystemTime identifiers.
    for file in set.under(&clock_roots()) {
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            if !file.live(i) {
                continue;
            }
            let t = &toks[i];
            let std_time = t.is_ident("std")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("time"));
            if (std_time || t.is_ident("Instant") || t.is_ident("SystemTime"))
                && !file.allowed(WALL_CLOCK, t.line)
            {
                out.push(Finding {
                    rule: WALL_CLOCK,
                    path: file.path.clone(),
                    line: t.line,
                    msg: file.line_text(t.line).to_string(),
                });
            }
        }
    }
    // decode-unwrap: `.unwrap(`/`.expect(` on the same line as a
    // `downcast*` call.
    for file in set.under(&decode_roots()) {
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            if !file.live(i) || !toks[i].is_punct(".") {
                continue;
            }
            let Some(m) = toks.get(i + 1) else { continue };
            if !(m.is_ident("unwrap") || m.is_ident("expect"))
                || !toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            {
                continue;
            }
            let line = m.line;
            let downcast_on_line = toks.iter().any(|t| {
                t.line == line && t.kind == TokKind::Ident && t.text.starts_with("downcast")
            });
            if downcast_on_line && !file.allowed(DECODE_UNWRAP, line) {
                out.push(Finding {
                    rule: DECODE_UNWRAP,
                    path: file.path.clone(),
                    line,
                    msg: file.line_text(line).to_string(),
                });
            }
        }
    }
    // notify-under-lock: `.notify_one(`/`.notify_all(` inside the span
    // of a named lock guard.
    for file in set.under(&notify_roots()) {
        let toks = &file.lexed.toks;
        let acqs = acquisitions(file);
        let guards: Vec<_> = acqs
            .iter()
            .filter_map(|a| Some((a.guard.as_deref()?, a)))
            .collect();
        for i in 0..toks.len() {
            if !file.live(i) || !toks[i].is_punct(".") {
                continue;
            }
            let Some(m) = toks.get(i + 1) else { continue };
            if !(m.is_ident("notify_one") || m.is_ident("notify_all"))
                || !toks.get(i + 2).is_some_and(|t| t.is_punct("("))
                || file.allowed(NOTIFY_UNDER_LOCK, m.line)
            {
                continue;
            }
            if let Some((guard, held)) = guards.iter().find(|(_, a)| a.start < i && i < a.end) {
                out.push(Finding {
                    rule: NOTIFY_UNDER_LOCK,
                    path: file.path.clone(),
                    line: m.line,
                    msg: format!(
                        "`{}` while guard `{guard}` of `{}` (taken line {}) is still alive",
                        file.line_text(m.line),
                        held.name,
                        held.line
                    ),
                });
            }
        }
    }
    out
}
