//! Workspace automation, run as `cargo xtask <cmd>` (see
//! `.cargo/config.toml` for the alias) and from `ci.sh`:
//!
//! * `lint` — the lint wall (`hash-iteration-order`, `wall-clock`,
//!   `decode-unwrap`, `notify-under-lock`), running on the [`analyzer`]
//!   crate's comment/string-aware token engine. See
//!   [`analyzer::rules::lint`] for the rules and their rationale.
//! * `analyze` — the typed-error drift and parallel-readiness gates
//!   ([`analyzer::rules::drift`], [`analyzer::rules::parallel`]);
//!   protocol events, metrics keys and profile scopes are declared once
//!   in `core` and need no gate. `--update-baseline` refreshes the
//!   committed panic-path baseline.
//! * `validate-metrics` — schema check for benchmark metrics artifacts.
//! * `bench-diff` — the benchmark regression gate (see [`bench_diff`]).
//!
//! Escapes for both lint and analyze: a `lint:allow(<rule>)` or
//! `analyzer:allow(<rule>)` comment on the offending line.

mod bench_diff;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use analyzer::{Config, Tree};

/// Committed panic-path allowlist (see [`analyzer::baseline`]).
const BASELINE_PATH: &str = "crates/analyzer/panic-baseline.tsv";

fn repo_root() -> PathBuf {
    // crates/xtask/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the repo root")
        .to_path_buf()
}

/// Load every crate source in the workspace into an analyzer [`Tree`].
fn load_tree(repo: &Path) -> Result<Tree, String> {
    Tree::load(repo, &["crates"]).map_err(|e| format!("loading workspace sources: {e}"))
}

/// `cargo xtask lint`: the lint wall. Prints findings as
/// `file:line: [rule] text`; nonzero exit on any finding.
fn cmd_lint() -> ExitCode {
    let tree = match load_tree(&repo_root()) {
        Ok(t) => t,
        Err(e) => {
            println!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = analyzer::lint(&tree);
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!(
            "xtask lint: clean ({} rules, {} files)",
            analyzer::rules::lint::WHY.len(),
            tree.len()
        );
        ExitCode::SUCCESS
    } else {
        for (rule, why) in analyzer::rules::lint::WHY {
            if findings.iter().any(|f| f.rule == *rule) {
                println!("note: [{rule}] {why}");
            }
        }
        println!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// `cargo xtask analyze [--update-baseline]`: typed-error drift +
/// parallel-readiness gates.
fn cmd_analyze(args: &[String]) -> ExitCode {
    let update = args.iter().any(|a| a == "--update-baseline");
    let repo = repo_root();
    let tree = match load_tree(&repo) {
        Ok(t) => t,
        Err(e) => {
            println!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::repo();
    let baseline_path = repo.join(BASELINE_PATH);
    if update {
        let text = analyzer::render_baseline(&tree, &cfg);
        let entries = text.lines().filter(|l| !l.starts_with('#')).count();
        if let Err(e) = fs::write(&baseline_path, &text) {
            println!("xtask analyze: writing {BASELINE_PATH}: {e}");
            return ExitCode::from(2);
        }
        println!("xtask analyze: baseline refreshed ({entries} entries) -> {BASELINE_PATH}");
        return ExitCode::SUCCESS;
    }
    let baseline = fs::read_to_string(&baseline_path).unwrap_or_default();
    let analysis = analyzer::analyze(&tree, &cfg, &baseline);
    for f in &analysis.findings {
        println!("{f}");
    }
    for s in &analysis.stale_baseline {
        println!(
            "note: stale baseline entry (debt paid down — refresh with --update-baseline): {s}"
        );
    }
    if analysis.clean() {
        println!(
            "xtask analyze: clean ({} files, {} rules, {} baselined panic site(s))",
            analysis.files_scanned,
            analyzer::RULES.len(),
            analysis.baselined
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask analyze: {} finding(s)", analysis.findings.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("validate-metrics") if args.len() > 1 => {
            let mut bad = 0usize;
            for path in &args[1..] {
                let doc = match fs::read_to_string(path) {
                    Ok(doc) => doc,
                    Err(e) => {
                        println!("{path}: unreadable: {e}");
                        bad += 1;
                        continue;
                    }
                };
                match obs::validate_metrics(&doc) {
                    Ok(_) => println!("{path}: ok"),
                    Err(e) => {
                        println!("{path}: INVALID: {e}");
                        bad += 1;
                    }
                }
            }
            if bad == 0 {
                println!("xtask validate-metrics: {} file(s) ok", args.len() - 1);
                ExitCode::SUCCESS
            } else {
                println!("xtask validate-metrics: {bad} invalid file(s)");
                ExitCode::FAILURE
            }
        }
        Some("bench-diff") => {
            let mut opts = bench_diff::DiffOptions::default();
            let mut paths: Vec<&String> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--tol" {
                    match it.next().and_then(|v| v.parse().ok()) {
                        Some(v) => opts.tol_pct = v,
                        None => {
                            println!("bench-diff: --tol expects a percentage");
                            return ExitCode::from(2);
                        }
                    }
                } else if a == "--wall-tol" {
                    match it.next().and_then(|v| v.parse().ok()) {
                        Some(v) => opts.wall_tol_pct = v,
                        None => {
                            println!("bench-diff: --wall-tol expects a percentage");
                            return ExitCode::from(2);
                        }
                    }
                } else {
                    paths.push(a);
                }
            }
            let [old, new] = paths[..] else {
                println!("usage: cargo xtask bench-diff <old> <new> [--tol PCT] [--wall-tol PCT]");
                return ExitCode::from(2);
            };
            match bench_diff::diff_trees(Path::new(old), Path::new(new), &opts) {
                Ok(report) => {
                    for note in &report.notes {
                        println!("note: {note}");
                    }
                    for r in &report.regressions {
                        println!("REGRESSION: {r}");
                    }
                    if report.ok() {
                        println!(
                            "xtask bench-diff: ok ({} file(s), {} counter(s), tol {}%, wall tol {}%)",
                            report.files, report.counters, opts.tol_pct, opts.wall_tol_pct
                        );
                        ExitCode::SUCCESS
                    } else {
                        println!(
                            "xtask bench-diff: {} regression(s) across {} file(s)",
                            report.regressions.len(),
                            report.files
                        );
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    println!("bench-diff: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            println!(
                "usage: cargo xtask lint | analyze [--update-baseline] | \
                 validate-metrics <file.json>... | bench-diff <old> <new> [--tol PCT] \
                 [--wall-tol PCT]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint `src` as if it lived on a patrolled root.
    fn lint_str(src: &str) -> Vec<&'static str> {
        let mut tree = Tree::new();
        tree.insert("crates/core/src/fixture_under_test.rs", src);
        analyzer::lint(&tree).into_iter().map(|f| f.rule).collect()
    }

    fn fixture(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    #[test]
    fn fixture_hash_iteration_fails() {
        assert!(lint_str(&fixture("hash_iteration.rs")).contains(&"hash-iteration-order"));
    }

    #[test]
    fn fixture_wall_clock_fails() {
        assert!(lint_str(&fixture("wall_clock.rs")).contains(&"wall-clock"));
    }

    #[test]
    fn fixture_decode_unwrap_fails() {
        assert!(lint_str(&fixture("decode_unwrap.rs")).contains(&"decode-unwrap"));
    }

    /// Regression: the old line scanner truncated code at a `//` inside
    /// a string literal, hiding the rest of the line from the rules —
    /// and, conversely, matched banned names inside string literals.
    #[test]
    fn fixture_string_comment_scanning() {
        let mut tree = Tree::new();
        let src = fixture("string_comment.rs");
        tree.insert("crates/core/src/fixture_under_test.rs", &src);
        let findings = analyzer::lint(&tree);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        // `use` line, signature line, and the line whose HashMap::new()
        // sits *after* a "http://…" string literal.
        let after_string_line = src
            .lines()
            .position(|l| l.contains("http://"))
            .map(|i| i as u32 + 1)
            .expect("fixture has the url line");
        assert!(
            lines.contains(&after_string_line),
            "HashMap after a // inside a string must fire (got lines {lines:?})"
        );
        // The line whose only "HashMap" lives inside a string must not.
        let string_only_line = src
            .lines()
            .position(|l| l.contains("walks into a bar"))
            .map(|i| i as u32 + 1)
            .expect("fixture has the string-only line");
        assert!(
            !lines.contains(&string_only_line),
            "HashMap inside a string literal must not fire"
        );
    }

    /// Regression: the old line scanner stopped at a column-0
    /// `#[cfg(test)]`, exempting all live code after the test module.
    #[test]
    fn fixture_inline_cfg_test_scanning() {
        let mut tree = Tree::new();
        let src = fixture("inline_cfg_test.rs");
        tree.insert("crates/core/src/fixture_under_test.rs", &src);
        let findings = analyzer::lint(&tree);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        let live_use_line = src
            .lines()
            .position(|l| l.contains("must fire"))
            .map(|i| i as u32 + 1)
            .expect("fixture has the live use line");
        assert!(
            lines.contains(&live_use_line),
            "live code after an inline test module must fire (got lines {lines:?})"
        );
        // Nothing inside the test module itself fires.
        let module_hash_line = src
            .lines()
            .position(|l| l.contains("test code: exempt"))
            .map(|i| i as u32 + 1)
            .expect("fixture has the exempt line");
        assert!(!lines.contains(&module_hash_line));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn comments_are_exempt() {
        assert!(
            lint_str("/// Instant the process finished.\nfn f() {} // a HashMap tale\n").is_empty()
        );
    }

    #[test]
    fn allow_escape_works() {
        let src = "use std::collections::HashMap; // lint:allow(hash-iteration-order)\n";
        assert!(lint_str(src).is_empty());
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_str(src), vec!["hash-iteration-order"]);
    }

    #[test]
    fn token_matching_is_word_bounded() {
        assert!(lint_str("struct InstantaneousRate;\n").is_empty());
        assert_eq!(lint_str("let t = Instant::now();\n"), vec!["wall-clock"]);
    }

    #[test]
    fn workspace_is_clean() {
        let tree = load_tree(&repo_root()).expect("workspace sources load");
        let findings = analyzer::lint(&tree);
        let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(
            findings.is_empty(),
            "lint wall breached:\n{}",
            report.join("\n")
        );
    }

    #[test]
    fn workspace_analyze_is_clean() {
        let repo = repo_root();
        let tree = load_tree(&repo).expect("workspace sources load");
        let baseline = fs::read_to_string(repo.join(BASELINE_PATH)).unwrap_or_default();
        let analysis = analyzer::analyze(&tree, &Config::repo(), &baseline);
        let report: Vec<String> = analysis.findings.iter().map(|f| f.to_string()).collect();
        assert!(
            analysis.clean(),
            "analyzer gate breached:\n{}",
            report.join("\n")
        );
        assert!(
            analysis.stale_baseline.is_empty(),
            "stale panic-path baseline entries:\n{}",
            analysis.stale_baseline.join("\n")
        );
    }
}
