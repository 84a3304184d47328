//! Lock-order and hot-path index audits.
//!
//! * [`lock_order`] — every `X.lock()` under the lock roots feeds a
//!   lock-acquisition-order graph: an edge A→B is recorded when lock B
//!   is taken while a guard of A is provably alive (same-file, textual
//!   scopes). Cycles — including re-acquiring a lock already held —
//!   are deadlocks-in-waiting.
//! * [`panic_path`] — index expressions on the proxy/host hot paths.
//!   `clippy::indexing_slicing`, denied there, sees slices and arrays
//!   but not `BTreeMap`/`VecDeque` indexing; this rule sees every `x[i]`.
//!   It also fails when an audited path matches no file, so a rename or
//!   a split cannot end the audit in silence.
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

/// Rule name for lock-acquisition-order cycles.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule name for the hot-path index audit.
pub const PANIC_PATH: &str = "panic-path";

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

/// Keywords that can directly precede `[` without forming an index
/// expression (slice patterns, array types/literals after `=`/`(` are
/// excluded by the previous-token kinds already).
const NONINDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move", "as",
    "loop", "while", "for", "where", "impl", "fn", "pub", "use", "mod", "const", "static", "type",
    "struct", "enum", "trait", "unsafe", "dyn", "box", "await",
];

/// Index expressions in the live code of the configured hot-path files,
/// and every audited path that matches no file.
pub fn panic_path(set: &SourceSet, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for p in &cfg.panic_files {
        if set.under(std::slice::from_ref(p)).next().is_none() {
            out.push(Finding {
                rule: PANIC_PATH,
                path: p.clone(),
                line: 1,
                msg: format!(
                    "audited hot path `{p}` matches no file; point the panic audit's \
                     `panic_files` at where that code lives now"
                ),
            });
        }
    }
    for file in set.under(&cfg.panic_files) {
        let toks = &file.lexed.toks;
        for i in 1..toks.len() {
            let line = toks[i].line;
            if !file.live(i) || !toks[i].is_punct("[") || file.allowed(PANIC_PATH, line) {
                continue;
            }
            // `[` directly after an expression-ending token (identifier
            // that is not a keyword, `)`, or `]`).
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !NONINDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(")") || prev.is_punct("]"),
                _ => false,
            };
            if indexes {
                out.push(Finding {
                    rule: PANIC_PATH,
                    path: file.path.clone(),
                    line,
                    msg: format!("index on a hot path: `{}`", file.line_text(line)),
                });
            }
        }
    }
    out
}
