//! Workspace automation, run as `cargo xtask <cmd>` (see
//! `.cargo/config.toml` for the alias) and from `ci.sh`:
//!
//! * `analyze` — the [`analyzer`] rules clippy cannot carry
//!   (`decode-unwrap`, `notify-under-lock`, `lock-order`, `panic-path`),
//!   on its comment/string-aware token engine. Escape: an
//!   `analyzer:allow(<rule>)` comment on the offending line.
//! * `validate-metrics` — schema check for benchmark metrics artifacts.
//! * `bench-diff` — the benchmark regression gate (see [`bench_diff`]).

mod bench_diff;

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use analyzer::{Config, Tree};

/// `cargo xtask analyze`: prints findings as `file:line: [rule] text`,
/// then a note per rule that fired; nonzero exit on any finding.
fn cmd_analyze() -> ExitCode {
    // crates/xtask/ -> repo root.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the repo root");
    let tree = match Tree::load(repo, &["crates"]) {
        Ok(t) => t,
        Err(e) => {
            println!("xtask analyze: loading workspace sources: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = analyzer::analyze(&tree, &Config::repo());
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!(
            "xtask analyze: clean ({} files, {} rules)",
            tree.len(),
            analyzer::RULES.len()
        );
        return ExitCode::SUCCESS;
    }
    for (rule, why) in analyzer::RULES {
        if findings.iter().any(|f| f.rule == *rule) {
            println!("note: [{rule}] {why}");
        }
    }
    println!("xtask analyze: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(),
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
                "usage: cargo xtask analyze | validate-metrics <file.json>... | \
                 bench-diff <old> <new> [--tol PCT] [--wall-tol PCT]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Analyze `src` as if it lived on a patrolled root; the rule names
    /// that fire, in line order.
    fn analyze_str(src: &str) -> Vec<(&'static str, u32)> {
        let mut tree = Tree::new();
        tree.insert("crates/core/src/fixture_under_test.rs", src);
        let cfg = Config {
            panic_files: Vec::new(),
            ..Config::repo()
        };
        analyzer::analyze(&tree, &cfg)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    fn rules(src: &str) -> Vec<&'static str> {
        analyze_str(src).into_iter().map(|(rule, _)| rule).collect()
    }

    fn fixture(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    /// The 1-based line of `src` that contains `needle`.
    fn line_of(src: &str, needle: &str) -> u32 {
        src.lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture has a line with {needle:?}"))
    }

    #[test]
    fn fixture_decode_unwrap_fails() {
        assert!(rules(&fixture("decode_unwrap.rs")).contains(&"decode-unwrap"));
    }

    /// Regression: the old line scanner truncated code at a `//` inside
    /// a string literal, hiding the rest of the line from the rules —
    /// and, conversely, matched code inside string literals.
    #[test]
    fn fixture_string_comment_scanning() {
        let src = fixture("string_comment.rs");
        let lines: Vec<u32> = analyze_str(&src).into_iter().map(|(_, l)| l).collect();
        assert!(
            lines.contains(&line_of(&src, "http://")),
            "a decode after a // inside a string must fire (got lines {lines:?})"
        );
        assert!(
            !lines.contains(&line_of(&src, "walks into a bar")),
            "a decode inside a string literal must not fire"
        );
    }

    /// Regression: the old line scanner stopped at a column-0
    /// `#[cfg(test)]`, exempting all live code after the test module.
    #[test]
    fn fixture_inline_cfg_test_scanning() {
        let src = fixture("inline_cfg_test.rs");
        let lines: Vec<u32> = analyze_str(&src).into_iter().map(|(_, l)| l).collect();
        assert!(
            lines.contains(&line_of(&src, "must fire")),
            "live code after an inline test module must fire (got lines {lines:?})"
        );
        assert!(!lines.contains(&line_of(&src, "test code: exempt")));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    \
                   fn t(b: Payload) -> u8 { *b.downcast::<u8>().unwrap() }\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn comments_are_exempt() {
        assert!(rules(
            "/// b.downcast::<u8>().unwrap() panics.\nfn f() {} // x.downcast().expect(\"y\")\n"
        )
        .is_empty());
    }

    #[test]
    fn allow_escape_works() {
        let src = "let v = b.downcast::<u8>().unwrap(); // analyzer:allow(decode-unwrap)\n";
        assert!(rules(src).is_empty());
        let src = "let v = b.downcast::<u8>().unwrap();\n";
        assert_eq!(rules(src), vec!["decode-unwrap"]);
    }

    #[test]
    fn token_matching_is_word_bounded() {
        assert!(rules("let v = b.downcast::<u8>().unwrap_or_default();\n").is_empty());
        assert!(rules("let v = b.downcast::<u8>().expected();\n").is_empty());
        assert_eq!(
            rules("let v = b.downcast::<u8>().expect(\"u8\");\n"),
            vec!["decode-unwrap"]
        );
    }
}
