//! Two rules about how the protocol code fails and wakes threads.
//!
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

use crate::lex::TokKind;
use crate::rules::parallel::acquisitions;
use crate::{Config, Finding, SourceSet};

/// Rule name for the panicking-decode ban.
pub const DECODE_UNWRAP: &str = "decode-unwrap";
/// Rule name for condvar notifies under a live mutex guard.
pub const NOTIFY_UNDER_LOCK: &str = "notify-under-lock";

/// Run both rules over `set`, each on its roots in `cfg`.
pub fn run(set: &SourceSet, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    // decode-unwrap: `.unwrap(`/`.expect(` on the same line as a
    // `downcast*` call.
    for file in set.under(&cfg.decode_roots) {
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
    for file in set.under(&cfg.notify_roots) {
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
