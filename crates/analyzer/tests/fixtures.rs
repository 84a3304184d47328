//! Per-rule fixture trees: each rule is run against a minimal on-disk
//! tree in `fixtures/<rule>/{clean,bad}/` — the clean variant must pass,
//! the bad variant (one seeded violation) must fail with a finding that
//! names the seeded defect. Loading goes through [`Tree::load`] exactly
//! like the real gate, so path normalization is covered too.

use std::path::Path;

use analyzer::rules::{drift, lint, parallel};
use analyzer::{baseline, Config, SourceSet, Tree};

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
        schema_file: "src/schema.rs".into(),
        profile_consts: s(&["SCOPES"]),
        profile_roots: s(&["src"]),
        errors_file: "src/errors.rs".into(),
        error_enum: "Fail".into(),
        error_construct_roots: s(&["src"]),
        error_harness_files: s(&["src/harness.rs"]),
        concurrency_roots: s(&["src"]),
        lock_roots: s(&["src"]),
        panic_files: s(&["src/hot.rs"]),
    }
}

#[test]
fn schema_drift_fixtures() {
    let clean = SourceSet::build(&tree("drift-schema", "clean"));
    assert!(drift::schema_drift(&clean, &cfg()).is_empty());
    let bad = SourceSet::build(&tree("drift-schema", "bad"));
    let findings = drift::schema_drift(&bad, &cfg());
    assert_eq!(findings.len(), 1, "exactly the seeded orphan: {findings:?}");
    assert!(findings[0].msg.contains("engine_stop"));
}

#[test]
fn error_drift_fixtures() {
    let clean = SourceSet::build(&tree("drift-error", "clean"));
    assert!(drift::error_drift(&clean, &cfg()).is_empty());
    let bad = SourceSet::build(&tree("drift-error", "bad"));
    let findings = drift::error_drift(&bad, &cfg());
    assert_eq!(findings.len(), 1, "only the assertion half: {findings:?}");
    assert!(findings[0].msg.contains("asserted by no test"));
}

#[test]
fn concurrency_ban_fixtures() {
    let clean = SourceSet::build(&tree("parallel-concurrency", "clean"));
    assert!(parallel::concurrency_ban(&clean, &cfg()).is_empty());
    let bad = SourceSet::build(&tree("parallel-concurrency", "bad"));
    let findings = parallel::concurrency_ban(&bad, &cfg());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].msg.contains("std::sync::Mutex"));
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
fn panic_path_fixtures() {
    let clean = SourceSet::build(&tree("panic", "clean"));
    assert!(parallel::panic_hits(&clean, &cfg()).is_empty());
    let bad = SourceSet::build(&tree("panic", "bad"));
    let hits = parallel::panic_hits(&bad, &cfg());
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].kind, "unwrap");
    // Against an empty baseline the hit is a finding; against its own
    // rendering it is absorbed.
    assert_eq!(baseline::apply(&hits, "").findings.len(), 1);
    assert!(baseline::apply(&hits, &baseline::render(&hits))
        .findings
        .is_empty());
}

#[test]
fn notify_under_lock_fixtures() {
    // The lint wall patrols `crates/`, so these trees are rooted there.
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
    assert_eq!(lint::run(&load("clean")), vec![]);
    let findings = lint::run(&load("bad"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, lint::NOTIFY_UNDER_LOCK);
    assert_eq!(findings[0].line, 14);
    assert!(
        findings[0].msg.contains("guard `round` of `self.round`"),
        "the held guard must be named: {findings:?}"
    );
}

#[test]
fn lint_rules_fire_on_fixture_paths() {
    // The lint wall carries its own roots (crates/...); a tree keyed
    // with a patrolled path exercises them without touching disk state.
    let mut t = Tree::new();
    t.insert(
        "crates/core/src/bad.rs",
        "use std::collections::HashMap;\nfn t() { let _ = std::time::Instant::now(); }\n",
    );
    let set = SourceSet::build(&t);
    let rules: Vec<&str> = lint::run(&set).into_iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"hash-iteration-order"));
    assert!(rules.contains(&"wall-clock"));
}
