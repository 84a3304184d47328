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
//! * `profile` — top-K self-time tables from `bluefield-offload/profile/v1`
//!   self-profiling reports (`BENCH_PROFILE=1` bench runs).
//! * `validate-metrics` — schema check for benchmark metrics artifacts;
//!   `*.profile.json` files validate against the profile schema.
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

/// Render the top-K self-time table of a parsed `profile/v1` document.
/// Scopes sort by `self_ns` when the document carries wall durations;
/// in the `BENCH_NO_WALL=1` regime (durations omitted by design) the
/// fallback order is scope-entry count.
fn profile_table(doc: &obs::Json, top_k: usize) -> Result<String, String> {
    use obs::Json;
    let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("?");
    let scopes = doc
        .get("scopes")
        .and_then(Json::as_arr)
        .ok_or("profile document has no scopes array")?;
    let snapshots = doc
        .get("snapshots")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    let mut rows: Vec<(String, u64, Option<[u64; 4]>)> = scopes
        .iter()
        .map(|s| {
            let path = s.get("path").and_then(Json::as_str).unwrap_or("?");
            let count = s.get("count").and_then(Json::as_u64).unwrap_or(0);
            let get = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
            let wall = s
                .get("self_ns")
                .and_then(Json::as_u64)
                .map(|self_ns| [self_ns, get("total_ns"), get("p50_ns"), get("p99_ns")]);
            (path.to_string(), count, wall)
        })
        .collect();
    let has_wall = rows.iter().any(|r| r.2.is_some());
    if has_wall {
        rows.sort_by(|a, b| {
            let key = |r: &(String, u64, Option<[u64; 4]>)| r.2.map_or(0, |w| w[0]);
            key(b).cmp(&key(a)).then_with(|| a.0.cmp(&b.0))
        });
    } else {
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    }
    let total = rows.len();
    rows.truncate(top_k);

    let mut table: Vec<Vec<String>> = Vec::new();
    let header: &[&str] = if has_wall {
        &["scope", "count", "self_ns", "total_ns", "p50_ns", "p99_ns"]
    } else {
        &["scope", "count"]
    };
    table.push(header.iter().map(|h| (*h).to_string()).collect());
    for (path, count, wall) in &rows {
        let mut row = vec![path.clone(), count.to_string()];
        if has_wall {
            let w = wall.unwrap_or([0; 4]);
            row.extend(w.iter().map(u64::to_string));
        }
        table.push(row);
    }
    let widths: Vec<usize> = (0..header.len())
        .map(|c| table.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = format!(
        "profile: {bench} — top {} of {} scope(s) by {}, {} snapshot(s)\n",
        rows.len(),
        total,
        if has_wall { "self time" } else { "entry count" },
        snapshots
    );
    for (i, row) in table.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(c, (cell, w))| {
                if c == 0 {
                    format!("{cell:<w$}")
                } else {
                    format!("{cell:>w$}")
                }
            })
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if i == 0 {
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            out.push_str(&rule.join("  "));
            out.push('\n');
        }
    }
    Ok(out)
}

/// `cargo xtask profile [<file.profile.json>...] [--top K]`: validate
/// `profile/v1` report(s) and render their top-K self-time tables. With
/// no paths, scans `target/profile/` for `*.profile.json`.
fn cmd_profile(args: &[String]) -> ExitCode {
    let mut top_k = 10usize;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--top" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => top_k = v,
                None => {
                    println!("profile: --top expects a count");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(PathBuf::from(a));
        }
    }
    if paths.is_empty() {
        let dir = repo_root().join("target/profile");
        if let Ok(entries) = fs::read_dir(&dir) {
            paths = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.ends_with(".profile.json"))
                })
                .collect();
            paths.sort();
        }
        if paths.is_empty() {
            println!(
                "profile: no *.profile.json under {} — run a bench with BENCH_PROFILE=1 \
                 or pass report paths explicitly",
                dir.display()
            );
            return ExitCode::from(2);
        }
    }
    let mut bad = 0usize;
    for path in &paths {
        let shown = path.display();
        let doc = match fs::read_to_string(path) {
            Ok(text) => match obs::validate_profile(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    println!("{shown}: INVALID: {e}");
                    bad += 1;
                    continue;
                }
            },
            Err(e) => {
                println!("{shown}: unreadable: {e}");
                bad += 1;
                continue;
            }
        };
        match profile_table(&doc, top_k) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                println!("{shown}: {e}");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        println!("xtask profile: {bad} bad file(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
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
                // Dispatch on the artifact flavour: self-profiling
                // reports carry their own schema and validator.
                let verdict = if path.ends_with(".profile.json") {
                    obs::validate_profile(&doc)
                } else {
                    obs::validate_metrics(&doc)
                };
                match verdict {
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
                 profile [<file.profile.json>...] [--top K] | \
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

    const PROFILE_DOC: &str = r#"{
        "schema": "bluefield-offload/profile/v1",
        "bench": "unit",
        "scopes": [
            {"path": "cq_poll", "count": 4, "self_ns": 100, "total_ns": 400, "max_ns": 90, "p50_ns": 25, "p99_ns": 90},
            {"path": "cq_poll;crc_verify", "count": 9, "self_ns": 300, "total_ns": 300, "max_ns": 80, "p50_ns": 33, "p99_ns": 80}
        ],
        "snapshots": [{"seq": 1, "upto_ps": 1000, "deltas": {"bus_events": 3}}]
    }"#;

    #[test]
    fn profile_table_sorts_by_self_time_when_wall_present() {
        let doc = obs::validate_profile(PROFILE_DOC).expect("fixture validates");
        let table = profile_table(&doc, 10).expect("renders");
        let crc = table.find("crc_verify").expect("crc row present");
        let poll = table.find("cq_poll ").expect("cq_poll row present");
        assert!(crc < poll, "300ns self must sort above 100ns:\n{table}");
        assert!(table.contains("self_ns"), "{table}");
        assert!(table.contains("1 snapshot(s)"), "{table}");
    }

    #[test]
    fn profile_table_falls_back_to_counts_without_wall() {
        // The BENCH_NO_WALL regime: no duration fields at all.
        let doc = PROFILE_DOC
            .replace(
                ", \"self_ns\": 100, \"total_ns\": 400, \"max_ns\": 90, \"p50_ns\": 25, \"p99_ns\": 90",
                "",
            )
            .replace(
                ", \"self_ns\": 300, \"total_ns\": 300, \"max_ns\": 80, \"p50_ns\": 33, \"p99_ns\": 80",
                "",
            );
        let doc = obs::validate_profile(&doc).expect("no-wall fixture validates");
        let table = profile_table(&doc, 10).expect("renders");
        assert!(!table.contains("self_ns"), "{table}");
        assert!(table.contains("entry count"), "{table}");
        let crc = table.find("crc_verify").expect("crc row present");
        let poll = table.find("cq_poll ").expect("cq_poll row present");
        assert!(crc < poll, "count 9 must sort above count 4:\n{table}");
        // Top-K truncation keeps only the heaviest scope.
        let table = profile_table(&doc, 1).expect("renders");
        assert!(table.contains("crc_verify"), "{table}");
        assert!(!table.contains("cq_poll "), "{table}");
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
