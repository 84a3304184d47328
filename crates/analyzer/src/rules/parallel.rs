//! Parallel-readiness audit for ROADMAP items 1 (sharded simnet) and 5
//! (hot-path rework).
//!
//! Sharding the simulator across OS threads only keeps determinism if
//! the engine code has no ambient concurrency of its own:
//!
//! * [`concurrency_ban`] — `std::sync` blocking/ordering primitives
//!   (`Mutex`, `RwLock`, `Condvar`, `Barrier`, `mpsc`, atomics),
//!   `thread::spawn` / `std::thread`, and `static mut` are banned
//!   outside `simnet` (which owns the threading story). `Arc`/`Weak`
//!   and the init-once types remain fine; shared mutable state goes
//!   through `parking_lot` so the lock-order rule can see it.
//! * [`lock_order`] — every `X.lock()` under the lock roots feeds a
//!   lock-acquisition-order graph: an edge A→B is recorded when lock B
//!   is taken while a guard of A is provably alive (same-file, textual
//!   scopes). Cycles — including re-acquiring a lock already held —
//!   are deadlocks-in-waiting once the schedulers go parallel.
//! * [`panic_hits`] — `unwrap()`, `expect()` and index expressions on
//!   the proxy/host hot paths, diffed against a committed baseline by
//!   [`crate::baseline`]: the existing debt is pinned, new panic sites
//!   fail the gate.
//!
//! The lock-guard tracking is deliberately conservative and syntactic:
//! a `let g = x.lock()` guard lives to the end of its enclosing block
//! (or an explicit `drop(g)`), a temporary `x.lock().f()` guard to the
//! end of its statement; receivers are identified by their source text
//! within one file. Interprocedural holds are not modeled — the rule
//! under-approximates, it never guesses.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::TokKind;
use crate::{Config, FileScan, Finding, SourceSet};

/// Rule name for the concurrency-primitive ban.
pub const CONCURRENCY_BAN: &str = "concurrency-ban";
/// Rule name for lock-acquisition-order cycles.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule name for the hot-path panic audit.
pub const PANIC_PATH: &str = "panic-path";

/// `std::sync` members that are banned outside `simnet`.
const BANNED_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc", "atomic"];

/// Banned concurrency primitives outside the simulator.
pub fn concurrency_ban(set: &SourceSet, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in set.under(&cfg.concurrency_roots) {
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            if !file.live(i) {
                continue;
            }
            let line = toks[i].line;
            let allowed = |f: &FileScan| f.allowed(CONCURRENCY_BAN, line);
            // `static mut`
            if toks[i].is_ident("static")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("mut"))
                && !allowed(file)
            {
                out.push(Finding {
                    rule: CONCURRENCY_BAN,
                    path: file.path.clone(),
                    line,
                    msg: "`static mut` is unsynchronized shared state; it cannot survive \
                          the parallel-simnet refactor"
                        .into(),
                });
            }
            // `thread::spawn` / `std::thread`
            let spawn = toks[i].is_ident("thread")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("spawn"));
            let std_thread = toks[i].is_ident("std")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("thread"));
            if (spawn || std_thread) && !allowed(file) {
                out.push(Finding {
                    rule: CONCURRENCY_BAN,
                    path: file.path.clone(),
                    line,
                    msg: "thread management belongs to simnet; engine code must stay \
                          schedulable on any thread"
                        .into(),
                });
            }
            // `std::sync::X` (direct path or a `use …::{…}` group).
            if toks[i].is_ident("std")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("sync"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct("::"))
            {
                match toks.get(i + 4) {
                    Some(t)
                        if t.kind == TokKind::Ident
                            && BANNED_SYNC.contains(&t.text.as_str())
                            && !file.allowed(CONCURRENCY_BAN, t.line) =>
                    {
                        out.push(banned_sync_finding(file, t.line, &t.text));
                    }
                    Some(t) if t.is_punct("{") => {
                        if let Some(close) = crate::scan::delim_close(toks, i + 4, "{", "}") {
                            for t in &toks[i + 5..close] {
                                if t.kind == TokKind::Ident
                                    && BANNED_SYNC.contains(&t.text.as_str())
                                    && !file.allowed(CONCURRENCY_BAN, t.line)
                                {
                                    out.push(banned_sync_finding(file, t.line, &t.text));
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

fn banned_sync_finding(file: &FileScan, line: u32, name: &str) -> Finding {
    Finding {
        rule: CONCURRENCY_BAN,
        path: file.path.clone(),
        line,
        msg: format!(
            "std::sync::{name} is banned outside simnet — use parking_lot (visible to \
             the lock-order rule) or restructure; waive with `analyzer:allow({CONCURRENCY_BAN})`"
        ),
    }
}

/// One tracked lock acquisition within a file.
pub(crate) struct Acq {
    /// Lock identity: `file§receiver`.
    id: String,
    /// Display name (receiver text).
    pub(crate) name: String,
    /// Name of the `let` binding holding the guard; `None` for a
    /// temporary that dies with its statement.
    pub(crate) guard: Option<String>,
    /// Token index of the `.lock()` call.
    pub(crate) start: usize,
    /// Token index at which the guard provably dies.
    pub(crate) end: usize,
    /// Source line of the acquisition.
    pub(crate) line: u32,
}

/// Identifier path text walking backwards from token `i` (exclusive):
/// `self.st`, `STATE`, `self.0`. Empty when the receiver is not a plain
/// path (e.g. a call result), in which case the acquisition is skipped.
fn receiver_text(file: &FileScan, i: usize) -> (String, usize) {
    let toks = &file.lexed.toks;
    let mut start = i;
    while start > 0 {
        let t = &toks[start - 1];
        let is_path_part =
            matches!(t.kind, TokKind::Ident | TokKind::Num) || t.is_punct(".") || t.is_punct("::");
        if is_path_part {
            start -= 1;
        } else {
            break;
        }
    }
    let text: String = toks[start..i].iter().map(|t| t.text.as_str()).collect();
    (text, start)
}

/// Every live `X.lock()` in `file` with a plain-path receiver, each with
/// the token span over which its guard is provably alive.
pub(crate) fn acquisitions(file: &FileScan) -> Vec<Acq> {
    let toks = &file.lexed.toks;
    // Matching close brace for each open brace index.
    let mut close_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                close_of.insert(open, i);
            }
        }
    }
    let mut acqs: Vec<Acq> = Vec::new();
    let mut block_stack: Vec<usize> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_punct("{") {
            block_stack.push(i);
        } else if toks[i].is_punct("}") {
            block_stack.pop();
        }
        if !(toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("lock"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("(")))
        {
            continue;
        }
        if !file.live(i) {
            continue;
        }
        let (recv, recv_start) = receiver_text(file, i);
        if recv.is_empty() {
            continue;
        }
        let line = toks[i].line;
        // Named guard? `let [mut] g = recv.lock()…`
        let mut guard: Option<String> = None;
        if recv_start >= 2 && toks[recv_start - 1].is_punct("=") {
            let mut j = recv_start - 2;
            if toks[j].kind == TokKind::Ident && !toks[j].is_ident("mut") {
                let name = toks[j].text.clone();
                if j >= 1 && toks[j - 1].is_ident("mut") {
                    j -= 1;
                }
                if j >= 1 && toks[j - 1].is_ident("let") {
                    guard = Some(name);
                }
            }
        }
        let end = match &guard {
            Some(name) => {
                let block_end = block_stack
                    .last()
                    .and_then(|open| close_of.get(open).copied())
                    .unwrap_or(toks.len());
                // An explicit `drop(name)` ends the guard early.
                (i..block_end)
                    .find(|&j| {
                        toks[j].is_ident("drop")
                            && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
                            && toks.get(j + 2).is_some_and(|t| t.is_ident(name))
                            && toks.get(j + 3).is_some_and(|t| t.is_punct(")"))
                    })
                    .unwrap_or(block_end)
            }
            None => {
                // Temporary: guard dies at the end of the statement.
                let mut depth = 0i32;
                let mut end = toks.len();
                for (j, t) in toks.iter().enumerate().skip(i) {
                    if t.is_punct("(") || t.is_punct("{") || t.is_punct("[") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct("}") || t.is_punct("]") {
                        depth -= 1;
                        if depth < 0 {
                            end = j;
                            break;
                        }
                    } else if t.is_punct(";") && depth == 0 {
                        end = j;
                        break;
                    }
                }
                end
            }
        };
        acqs.push(Acq {
            id: format!("{}\u{a7}{recv}", file.path),
            name: recv,
            guard,
            start: i,
            end,
            line,
        });
    }
    acqs
}

/// Build the per-file acquisitions, then the global acquisition-order
/// graph, and report cycles.
pub fn lock_order(set: &SourceSet, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    // edge (from_id, to_id) -> (from_name, to_name, file, line)
    let mut edges: BTreeMap<(String, String), (String, String, String, u32)> = BTreeMap::new();
    for file in set.under(&cfg.lock_roots) {
        let acqs = acquisitions(file);
        // Overlaps: B acquired while A's guard is alive.
        for a in &acqs {
            for b in &acqs {
                if a.start < b.start && b.start <= a.end {
                    if file.allowed(LOCK_ORDER, b.line) {
                        continue;
                    }
                    if a.id == b.id {
                        out.push(Finding {
                            rule: LOCK_ORDER,
                            path: file.path.clone(),
                            line: b.line,
                            msg: format!(
                                "lock `{}` re-acquired while its own guard (taken line {}) \
                                 is still alive — self-deadlock",
                                b.name, a.line
                            ),
                        });
                    } else {
                        edges.entry((a.id.clone(), b.id.clone())).or_insert((
                            a.name.clone(),
                            b.name.clone(),
                            file.path.clone(),
                            b.line,
                        ));
                    }
                }
            }
        }
    }
    // Cycle detection over the edge set (iterative DFS, deterministic
    // order from the BTreeMap).
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    let mut state: BTreeMap<&str, u8> = adj.keys().map(|k| (*k, 0u8)).collect(); // 0 new, 1 open, 2 done
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for &root in adj.keys().collect::<Vec<_>>().iter() {
        if state[root] != 0 {
            continue;
        }
        // Path-tracking DFS.
        let mut path: Vec<&str> = Vec::new();
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        while let Some((node, child_idx)) = stack.pop() {
            if child_idx == 0 {
                state.insert(node, 1);
                path.push(node);
            }
            let children = &adj[node];
            if child_idx < children.len() {
                stack.push((node, child_idx + 1));
                let next = children[child_idx];
                match state[next] {
                    0 => stack.push((next, 0)),
                    1 => {
                        // Back edge: the cycle is path[pos..] + next.
                        if let Some(pos) = path.iter().position(|n| *n == next) {
                            let mut cycle: Vec<String> =
                                path[pos..].iter().map(|s| s.to_string()).collect();
                            let mut canon = cycle.clone();
                            canon.sort();
                            if reported.insert(canon) {
                                cycle.push(next.to_string());
                                let (_, _, file, line) =
                                    &edges[&(path.last().unwrap().to_string(), next.to_string())];
                                let pretty: Vec<String> =
                                    cycle.iter().map(|id| id.replace('\u{a7}', " § ")).collect();
                                out.push(Finding {
                                    rule: LOCK_ORDER,
                                    path: file.clone(),
                                    line: *line,
                                    msg: format!(
                                        "lock-acquisition-order cycle: {} — threads taking \
                                         these locks in different orders will deadlock under \
                                         a parallel scheduler",
                                        pretty.join(" -> ")
                                    ),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            } else {
                state.insert(node, 2);
                path.pop();
            }
        }
    }
    out
}

/// One raw panic-site hit on a hot-path file (pre-baseline).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PanicHit {
    /// Workspace-relative file.
    pub path: String,
    /// `unwrap`, `expect`, or `index`.
    pub kind: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source text of the line (the baseline key, so entries
    /// survive line-number drift).
    pub snippet: String,
}

/// Keywords that can directly precede `[` without forming an index
/// expression (slice patterns, array types/literals after `=`/`(` are
/// excluded by the previous-token kinds already).
const NONINDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move", "as",
    "loop", "while", "for", "where", "impl", "fn", "pub", "use", "mod", "const", "static", "type",
    "struct", "enum", "trait", "unsafe", "dyn", "box", "await",
];

/// Collect the raw panic-site hits on the configured hot-path files.
/// Baseline subtraction happens in [`crate::baseline::apply`].
pub fn panic_hits(set: &SourceSet, cfg: &Config) -> Vec<PanicHit> {
    let mut out = Vec::new();
    for path in &cfg.panic_files {
        let Some(file) = set.get(path) else { continue };
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            if !file.live(i) {
                continue;
            }
            let line = toks[i].line;
            if file.allowed(PANIC_PATH, line) {
                continue;
            }
            // `.unwrap(` / `.expect(`
            if toks[i].is_punct(".")
                && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
                && toks
                    .get(i + 1)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            {
                let kind = if toks[i + 1].is_ident("unwrap") {
                    "unwrap"
                } else {
                    "expect"
                };
                out.push(PanicHit {
                    path: file.path.clone(),
                    kind,
                    line: toks[i + 1].line,
                    snippet: file.line_text(toks[i + 1].line).to_string(),
                });
            }
            // Index expressions: `[` directly after an expression-ending
            // token (identifier that is not a keyword, `)`, or `]`).
            if toks[i].is_punct("[") && i > 0 {
                let prev = &toks[i - 1];
                let indexes = match prev.kind {
                    TokKind::Ident => !NONINDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct => prev.is_punct(")") || prev.is_punct("]"),
                    _ => false,
                };
                if indexes {
                    out.push(PanicHit {
                        path: file.path.clone(),
                        kind: "index",
                        line,
                        snippet: file.line_text(line).to_string(),
                    });
                }
            }
        }
    }
    out
}
