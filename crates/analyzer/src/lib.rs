//! Workspace static analysis for the offload engine.
//!
//! Two rule families run over a comment/string-aware token stream (see
//! [`lex`]) instead of line regexes, so neither comments, string
//! literals, nor inline `#[cfg(test)]` modules can confuse them:
//!
//! * **Cross-layer drift** ([`rules::drift`]) — two contracts are
//!   spelled in several places with no type tying them together: the
//!   `profile/v1` scope list against its `profile_scope!` call sites,
//!   and the typed `OffloadError` surface. These rules prove they stay
//!   in sync: every declared scope has a producer, every error variant
//!   is both constructed and asserted. (Protocol events and metrics
//!   counters are declared once in `core` and enforced by rustc.)
//! * **Parallel readiness** ([`rules::parallel`]) — written for a
//!   sharded simnet (since deleted) and the hot-path rework, which
//!   needed the engine free of ambient concurrency: no `std::sync` locking primitives outside `simnet`,
//!   no `thread::spawn`, no `static mut`; `parking_lot` lock
//!   acquisition orders form no cycles; and the proxy/host hot paths
//!   hold no unbaselined panic sites (`unwrap`/`expect`/indexing).
//!
//! The lint wall (`hash-iteration-order`, `wall-clock`, `decode-unwrap`,
//! `notify-under-lock`) runs on this engine too ([`rules::lint`]).
//!
//! Escapes: a `lint:allow(rule)` or `analyzer:allow(rule)` comment on
//! the offending line waives that rule for the line; the panic-path
//! audit additionally accepts a committed baseline (see [`baseline`]).

use std::collections::BTreeMap;
use std::fmt;

pub mod baseline;
pub mod lex;
pub mod report;
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
    /// Raw source lines (for baseline snippets).
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
    /// range), for baseline snippets and finding context.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.trim())
            .unwrap_or("")
    }
}

/// Every file of a [`Tree`], lexed once and shared by all rules.
pub struct SourceSet {
    files: BTreeMap<String, FileScan>,
}

impl SourceSet {
    /// Lex and annotate every file of `tree`.
    pub fn build(tree: &Tree) -> SourceSet {
        let mut files = BTreeMap::new();
        for (path, src) in tree.iter() {
            let lexed = lex::lex(src);
            let mask = scan::test_mask(&lexed);
            files.insert(
                path.to_string(),
                FileScan {
                    path: path.to_string(),
                    lexed,
                    mask,
                    is_test: tree::is_test_path(path),
                    lines: src.lines().map(str::to_string).collect(),
                },
            );
        }
        SourceSet { files }
    }

    /// The scan of `path`, if the tree holds it.
    pub fn get(&self, path: &str) -> Option<&FileScan> {
        self.files.get(path)
    }

    /// All scans in path order.
    pub fn iter(&self) -> impl Iterator<Item = &FileScan> {
        self.files.values()
    }

    /// Scans whose path starts with any of `prefixes`, in path order.
    pub fn under<'a>(&'a self, prefixes: &'a [String]) -> impl Iterator<Item = &'a FileScan> + 'a {
        self.iter()
            .filter(move |f| prefixes.iter().any(|p| f.path.starts_with(p.as_str())))
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` when no files were loaded.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// Where each rule looks. [`Config::repo`] is the layout of this
/// workspace; tests build custom configs over fixture trees.
#[derive(Clone, Debug)]
pub struct Config {
    /// File declaring the `profile/v1` scope list.
    pub schema_file: String,
    /// `const NAME: &[&str]` arrays in that file holding `profile/v1`
    /// scope names.
    pub profile_consts: Vec<String>,
    /// Roots whose non-test code must enter every profile scope — a
    /// `profile_scope!("name")` string literal or an engine scope
    /// const. A declared scope nothing enters is a profiler row that
    /// can never appear.
    pub profile_roots: Vec<String>,
    /// File declaring the typed error enum.
    pub errors_file: String,
    /// Name of the typed error enum.
    pub error_enum: String,
    /// Roots whose non-test code must construct every error variant
    /// (the declaring file itself never counts).
    pub error_construct_roots: Vec<String>,
    /// Non-test files that count as test harness for the "asserted in a
    /// test" half of the error rule (checker drivers).
    pub error_harness_files: Vec<String>,
    /// Roots patrolled for banned concurrency primitives.
    pub concurrency_roots: Vec<String>,
    /// Roots whose `parking_lot` lock acquisitions feed the lock-order
    /// graph.
    pub lock_roots: Vec<String>,
    /// Hot-path files audited for panic sites against the baseline: a
    /// path audits every file it is a prefix of (a directory ending in
    /// `/` audits the whole tree under it).
    pub panic_files: Vec<String>,
}

impl Config {
    /// The rule configuration for this repository's layout.
    pub fn repo() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Config {
            schema_file: "crates/obs/src/schema.rs".into(),
            profile_consts: s(&["PROFILE_SCOPES"]),
            profile_roots: s(&["crates/core/src", "crates/simnet/src"]),
            errors_file: "crates/core/src/reliable.rs".into(),
            error_enum: "OffloadError".into(),
            error_construct_roots: s(&["crates/core/src"]),
            error_harness_files: s(&["crates/workloads/src/drivers.rs"]),
            concurrency_roots: s(&[
                "crates/core/src",
                "crates/rdma/src",
                "crates/obs/src",
                "crates/checker/src",
                "crates/workloads/src",
                "crates/minimpi/src",
                "crates/baselines/src",
            ]),
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

/// Result of one analysis run.
pub struct Analysis {
    /// Findings that fail the gate, ordered by (rule, file, line).
    pub findings: Vec<Finding>,
    /// Panic-path hits absorbed by the committed baseline.
    pub baselined: usize,
    /// Baseline entries no longer matched by any hit (stale; refresh
    /// with `--update-baseline`). Notes, not failures.
    pub stale_baseline: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// `true` when the gate passes.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run every analyzer rule over `tree`. `baseline` is the committed
/// panic-path allowlist text (empty string = empty baseline).
pub fn analyze(tree: &Tree, cfg: &Config, baseline_text: &str) -> Analysis {
    let set = SourceSet::build(tree);
    let mut findings = Vec::new();
    findings.extend(rules::drift::schema_drift(&set, cfg));
    findings.extend(rules::drift::error_drift(&set, cfg));
    findings.extend(rules::parallel::concurrency_ban(&set, cfg));
    findings.extend(rules::parallel::lock_order(&set, cfg));
    findings.extend(rules::parallel::panic_scope_gaps(&set, cfg));
    let hits = rules::parallel::panic_hits(&set, cfg);
    let resolved = baseline::apply(&hits, baseline_text);
    findings.extend(resolved.findings);
    findings
        .sort_by(|a, b| (a.rule, &a.path, a.line, &a.msg).cmp(&(b.rule, &b.path, b.line, &b.msg)));
    Analysis {
        findings,
        baselined: resolved.baselined,
        stale_baseline: resolved.stale,
        files_scanned: set.len(),
    }
}

/// Run the lint wall (see [`rules::lint`]) over `tree`. Returns findings
/// ordered by (rule, file, line).
pub fn lint(tree: &Tree) -> Vec<Finding> {
    let set = SourceSet::build(tree);
    let mut findings = rules::lint::run(&set);
    findings
        .sort_by(|a, b| (a.rule, &a.path, a.line, &a.msg).cmp(&(b.rule, &b.path, b.line, &b.msg)));
    findings
}

/// The panic-path hits of `tree` rendered in baseline format — what
/// `cargo xtask analyze --update-baseline` writes.
pub fn render_baseline(tree: &Tree, cfg: &Config) -> String {
    let set = SourceSet::build(tree);
    baseline::render(&rules::parallel::panic_hits(&set, cfg))
}
