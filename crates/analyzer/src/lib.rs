//! Workspace static analysis for the rules the compiler cannot check.
//!
//! The rules run over a comment/string-aware token stream (see [`lex`])
//! instead of line regexes, so neither comments, string literals, nor
//! inline `#[cfg(test)]` modules can confuse them:
//!
//! * [`rules::lint`] — `decode-unwrap` (no panicking `downcast` decode)
//!   and `notify-under-lock` (no condvar notify under a live guard);
//! * [`rules::parallel`] — `lock-order` (`parking_lot` acquisition
//!   orders form no cycles) and `panic-path` (no `x[i]` on the proxy and
//!   host hot paths, which catches the `BTreeMap`/`VecDeque` indexing
//!   that `clippy::indexing_slicing` does not see).
//!
//! Everything clippy can carry lives in the workspace `clippy.toml` and
//! in `#![deny]`/`#[expect]` attributes instead: the hash-container,
//! host-clock and concurrency bans, and the hot paths' `unwrap`,
//! `expect`, `panic!` and `unreachable!` audit.
//!
//! Escape: an `analyzer:allow(rule)` comment on the offending line (or
//! the line above) waives that rule there.

use std::fmt;

pub mod lex;
pub mod rules;
pub mod scan;
pub mod tree;

pub use tree::Tree;

/// One analysis finding, printable as `file:line: [rule] message`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and how to fix or waive it.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// One file, lexed and annotated for analysis.
pub struct FileScan {
    /// Workspace-relative path.
    pub path: String,
    /// Token stream + allow directives.
    pub lexed: lex::Lexed,
    /// Per-token `true` when inside `#[cfg(test)]` / `#[test]` code.
    pub mask: Vec<bool>,
    /// The file is test code by location (`tests/` directory).
    pub is_test: bool,
    /// Raw source lines (for finding context).
    pub lines: Vec<String>,
}

impl FileScan {
    /// `true` when the token at `idx` is production (non-test) code.
    pub fn live(&self, idx: usize) -> bool {
        !self.is_test && !self.mask.get(idx).copied().unwrap_or(false)
    }

    /// `true` when `rule` is waived on `line` by an allow directive.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.lexed.allowed(rule, line)
    }

    /// The trimmed source text of 1-based `line` (empty when out of
    /// range), for finding context.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.trim())
            .unwrap_or("")
    }
}

/// Every file of a [`Tree`], lexed once and shared by all rules.
pub struct SourceSet {
    /// Scans in path order.
    files: Vec<FileScan>,
}

impl SourceSet {
    /// Lex and annotate every file of `tree`.
    pub fn build(tree: &Tree) -> SourceSet {
        let files = tree
            .iter()
            .map(|(path, src)| {
                let lexed = lex::lex(src);
                let mask = scan::test_mask(&lexed);
                FileScan {
                    path: path.to_string(),
                    lexed,
                    mask,
                    is_test: tree::is_test_path(path),
                    lines: src.lines().map(str::to_string).collect(),
                }
            })
            .collect();
        SourceSet { files }
    }

    /// Scans whose path starts with any of `prefixes`, in path order.
    pub fn under<'a>(&'a self, prefixes: &'a [String]) -> impl Iterator<Item = &'a FileScan> + 'a {
        self.files
            .iter()
            .filter(move |f| prefixes.iter().any(|p| f.path.starts_with(p.as_str())))
    }
}

/// Where each rule looks. [`Config::repo`] is the layout of this
/// workspace; tests build custom configs over fixture trees.
#[derive(Clone, Debug)]
pub struct Config {
    /// Roots patrolled for panicking `downcast` decode.
    pub decode_roots: Vec<String>,
    /// Roots patrolled for condvar notifies under a live guard.
    pub notify_roots: Vec<String>,
    /// Roots whose `parking_lot` lock acquisitions feed the lock-order
    /// graph.
    pub lock_roots: Vec<String>,
    /// Hot-path files audited for index expressions: a path audits
    /// every file it is a prefix of (a directory ending in `/` audits
    /// the whole tree under it).
    pub panic_files: Vec<String>,
}

impl Config {
    /// The rule configuration for this repository's layout.
    pub fn repo() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Config {
            decode_roots: s(&["crates/core/src", "crates/rdma/src"]),
            notify_roots: s(&["crates/"]),
            lock_roots: s(&[
                "crates/simnet/src",
                "crates/core/src",
                "crates/rdma/src",
                "crates/obs/src",
                "crates/checker/src",
                "crates/workloads/src",
                "crates/minimpi/src",
            ]),
            panic_files: s(&["crates/core/src/proxy/", "crates/core/src/host/"]),
        }
    }
}

/// Every rule [`analyze`] runs, with the note printed when it fires.
pub const RULES: &[(&str, &str)] = &[
    (
        rules::lint::DECODE_UNWRAP,
        "cross-rank message decode must not panic on unexpected payloads; \
         drop and count a stat instead",
    ),
    (
        rules::lint::NOTIFY_UNDER_LOCK,
        "this Condvar does not requeue: the woken thread blocks on the mutex \
         at once; drop the guard (end its block) before notifying",
    ),
    (
        rules::parallel::LOCK_ORDER,
        "threads taking these locks in different orders deadlock",
    ),
    (
        rules::parallel::PANIC_PATH,
        "an index panics on a miss and takes a rank down; use get() and \
         handle the miss",
    ),
];

/// Run every rule over `tree`. Returns findings ordered by (rule, file,
/// line).
pub fn analyze(tree: &Tree, cfg: &Config) -> Vec<Finding> {
    let set = SourceSet::build(tree);
    let mut findings = rules::lint::run(&set, cfg);
    findings.extend(rules::parallel::lock_order(&set, cfg));
    findings.extend(rules::parallel::panic_path(&set, cfg));
    findings
        .sort_by(|a, b| (a.rule, &a.path, a.line, &a.msg).cmp(&(b.rule, &b.path, b.line, &b.msg)));
    findings
}
