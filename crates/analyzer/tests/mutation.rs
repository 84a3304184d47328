//! Mutation self-tests: the analyzer runs over the REAL workspace
//! source, which must be clean; then each seeded defect — the exact
//! drift classes the gate exists to catch — must produce a finding
//! that names the defect with a file and line. If someone weakens a
//! rule until it no longer catches its mutation, these tests fail.

use std::path::Path;

use analyzer::{analyze, Analysis, Config, Finding, Tree};

fn repo_root() -> &'static Path {
    // crates/analyzer -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

fn repo_tree() -> Tree {
    let tree = Tree::load(repo_root(), &["crates"]).expect("workspace sources load");
    assert!(tree.len() > 50, "unexpectedly small workspace");
    tree
}

fn panic_baseline() -> String {
    std::fs::read_to_string(repo_root().join("crates/analyzer/panic-baseline.tsv"))
        .expect("committed panic baseline")
}

fn run(tree: &Tree) -> Analysis {
    analyze(tree, &Config::repo(), &panic_baseline())
}

/// The findings of `tree` for `rule`, asserting each carries a usable
/// anchor (non-empty path, 1-based line).
fn findings_for(tree: &Tree, rule: &str) -> Vec<Finding> {
    let out: Vec<Finding> = run(tree)
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect();
    for f in &out {
        assert!(!f.path.is_empty() && f.line >= 1, "unanchored finding {f}");
    }
    out
}

#[test]
fn real_workspace_is_clean() {
    let a = run(&repo_tree());
    assert!(
        a.clean(),
        "workspace must pass its own gate:\n{}",
        a.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(a.stale_baseline.is_empty(), "stale: {:?}", a.stale_baseline);
}

#[test]
fn unconstructed_budget_shed_error_is_caught() {
    let mut tree = repo_tree();
    tree.edit("crates/core/src/host/mod.rs", |s| {
        s.replace(
            "OffloadError::RetryBudgetExhausted",
            "OffloadError::DataIntegrity",
        )
    });
    let hits = findings_for(&tree, "error-drift");
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("RetryBudgetExhausted") && f.msg.contains("constructed")),
        "budget sheds that stop surfacing typed errors must be caught: {hits:?}"
    );
}

#[test]
fn unconstructed_quota_exceeded_is_caught() {
    let mut tree = repo_tree();
    tree.edit("crates/core/src/host/admission.rs", |s| {
        s.replace("OffloadError::QuotaExceeded", "OffloadError::DataIntegrity")
    });
    let hits = findings_for(&tree, "error-drift");
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("QuotaExceeded") && f.msg.contains("constructed")),
        "shedding that stops constructing QuotaExceeded must be caught: {hits:?}"
    );
}

#[test]
fn unconstructed_error_variant_is_caught() {
    let mut tree = repo_tree();
    tree.edit("crates/core/src/reliable.rs", |s| {
        s.replace(
            "pub enum OffloadError {",
            "pub enum OffloadError {\n    /// Seeded by the mutation test.\n    PhantomFailure,",
        )
    });
    let hits = findings_for(&tree, "error-drift");
    // Neither constructed nor asserted: both halves of the rule fire.
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("PhantomFailure") && f.msg.contains("constructed")),
        "unconstructed variant must be caught: {hits:?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("PhantomFailure") && f.msg.contains("asserted")),
        "unasserted variant must be caught: {hits:?}"
    );
}

#[test]
fn seeded_lock_order_cycle_is_caught() {
    let mut tree = repo_tree();
    tree.insert(
        "crates/core/src/lockcycle_fixture.rs",
        "pub struct Pair {\n\
         \x20   a: parking_lot::Mutex<u64>,\n\
         \x20   b: parking_lot::Mutex<u64>,\n\
         }\n\
         pub fn fwd(p: &Pair) -> u64 {\n\
         \x20   let ga = p.a.lock();\n\
         \x20   let gb = p.b.lock();\n\
         \x20   *ga + *gb\n\
         }\n\
         pub fn rev(p: &Pair) -> u64 {\n\
         \x20   let gb = p.b.lock();\n\
         \x20   let ga = p.a.lock();\n\
         \x20   *ga + *gb\n\
         }\n",
    );
    let hits = findings_for(&tree, "lock-order");
    assert!(
        hits.iter().any(|f| {
            f.path == "crates/core/src/lockcycle_fixture.rs"
                && f.msg.contains("lock-acquisition-order cycle")
        }),
        "opposite acquisition orders must be caught: {hits:?}"
    );
}

#[test]
fn new_hot_path_unwrap_is_caught() {
    let mut tree = repo_tree();
    tree.edit("crates/core/src/host/mod.rs", |s| {
        format!(
            "{s}\npub fn seeded_panic_site() -> String {{ std::env::args().next().unwrap() }}\n"
        )
    });
    let hits = findings_for(&tree, "panic-path");
    assert!(
        hits.iter()
            .any(|f| { f.path == "crates/core/src/host/mod.rs" && f.msg.contains("unwrap") }),
        "unbaselined hot-path unwrap must be caught: {hits:?}"
    );
}

#[test]
fn new_unwrap_in_the_group_engine_is_caught() {
    // The proxy is a directory of files; every one of them is audited.
    let mut tree = repo_tree();
    tree.edit("crates/core/src/proxy/group.rs", |s| {
        format!("{s}\nfn seeded_panic_site() -> String {{ std::env::args().next().unwrap() }}\n")
    });
    let hits = findings_for(&tree, "panic-path");
    assert!(
        hits.iter()
            .any(|f| { f.path == "crates/core/src/proxy/group.rs" && f.msg.contains("unwrap") }),
        "unbaselined unwrap in the group engine must be caught: {hits:?}"
    );
}

#[test]
fn audited_path_that_matches_no_file_is_caught() {
    // A split or rename that leaves the audit pointing at a gone file
    // must fail the gate, not quietly audit nothing.
    let mut cfg = Config::repo();
    cfg.panic_files.push("crates/core/src/gone.rs".into());
    let findings = analyze(&repo_tree(), &cfg, &panic_baseline()).findings;
    assert!(
        findings.iter().any(|f| f.rule == "panic-path"
            && f.path == "crates/core/src/gone.rs"
            && f.msg.contains("matches no file")),
        "an audited path with no file must be caught: {findings:?}"
    );
}

#[test]
fn banned_primitive_is_caught() {
    let mut tree = repo_tree();
    tree.insert(
        "crates/core/src/sync_fixture.rs",
        "use std::sync::Mutex;\npub static SEEDED: Mutex<u64> = Mutex::new(0);\n",
    );
    let hits = findings_for(&tree, "concurrency-ban");
    assert!(
        hits.iter().any(|f| {
            f.path == "crates/core/src/sync_fixture.rs" && f.msg.contains("std::sync::Mutex")
        }),
        "banned std::sync primitive must be caught: {hits:?}"
    );
}
