//! Per-rule fixture trees: each rule is run against a minimal on-disk
//! tree in `fixtures/<rule>/{clean,bad}/` (or one built in memory) — the
//! clean variant must pass, the bad variant (one seeded violation) must
//! fail with a finding that names the seeded defect. Loading goes through [`Tree::load`] exactly
//! like the real gate, so path normalization is covered too.

use std::path::Path;

use analyzer::rules::{lint, parallel};
use analyzer::{Config, SourceSet, Tree};

/// Load `fixtures/<name>/<variant>` as a tree rooted at `src/`.
fn tree(name: &str, variant: &str) -> Tree {
    let base = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
        .join(variant);
    let t = Tree::load(&base, &["src"]).expect("fixture tree loads");
    assert!(!t.is_empty(), "fixture {name}/{variant} has files");
    t
}

/// A config wired for the fixture layout. Fields a given rule does not
/// read are irrelevant to that rule's test.
fn cfg() -> Config {
    let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    Config {
        decode_roots: s(&["src"]),
        notify_roots: s(&["crates/"]),
        lock_roots: s(&["src"]),
        panic_files: s(&["src/hot.rs"]),
    }
}

#[test]
fn lock_order_fixtures() {
    let clean = SourceSet::build(&tree("parallel-lock", "clean"));
    assert!(parallel::lock_order(&clean, &cfg()).is_empty());
    let bad = SourceSet::build(&tree("parallel-lock", "bad"));
    let findings = parallel::lock_order(&bad, &cfg());
    assert!(
        findings
            .iter()
            .any(|f| f.msg.contains("lock-acquisition-order cycle")),
        "opposite acquisition orders must report a cycle: {findings:?}"
    );
}

#[test]
fn notify_under_lock_fixtures() {
    // The notify rule patrols `crates/` in the workspace; these trees
    // are rooted there too.
    let load = |variant: &str| {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures/notify-under-lock")
            .join(variant);
        let t = Tree::load(&base, &["crates"]).expect("fixture tree loads");
        assert!(
            !t.is_empty(),
            "fixture notify-under-lock/{variant} has files"
        );
        SourceSet::build(&t)
    };
    assert_eq!(lint::run(&load("clean"), &cfg()), vec![]);
    let findings = lint::run(&load("bad"), &cfg());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, lint::NOTIFY_UNDER_LOCK);
    assert_eq!(findings[0].line, 14);
    assert!(
        findings[0].msg.contains("guard `round` of `self.round`"),
        "the held guard must be named: {findings:?}"
    );
}

#[test]
fn panic_path_sees_map_indexing() {
    // clippy::indexing_slicing skips `BTreeMap` indexing; this rule
    // must not. Test code and waived lines stay exempt.
    let mut t = Tree::new();
    t.insert(
        "src/hot.rs",
        "fn f(m: &BTreeMap<u8, u8>) -> u8 {\n    m[&1]\n}\n\
         fn g(m: &BTreeMap<u8, u8>) -> u8 {\n    m[&2] // analyzer:allow(panic-path)\n}\n\
         #[cfg(test)]\nmod tests {\n    fn t(v: &[u8]) -> u8 { v[0] }\n}\n",
    );
    let findings = parallel::panic_path(&SourceSet::build(&t), &cfg());
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [2], "{findings:?}");
}
