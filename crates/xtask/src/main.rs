//! Workspace automation, run as `cargo xtask analyze` (see
//! `.cargo/config.toml` for the alias) and from `ci.sh`: the
//! [`analyzer`] rules clippy cannot carry (`decode-unwrap`,
//! `notify-under-lock`, `lock-order`, `panic-path`), on its
//! comment/string-aware token engine. Escape: an
//! `analyzer:allow(<rule>)` comment on the offending line.
//!
//! The bench artifacts need no tool here: each is a pure function of
//! the simulation, so `ci.sh` compares a fresh run with the committed
//! `bench_results/` by `cmp`, and `tests/bench_baselines.rs` checks the
//! committed files' schema.

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
    match args.as_slice() {
        [cmd] if cmd == "analyze" => cmd_analyze(),
        _ => {
            println!("usage: cargo xtask analyze");
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
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
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
