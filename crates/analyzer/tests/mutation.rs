//! Mutation self-tests: the analyzer runs over the REAL workspace
//! source, which must be clean; then each seeded defect — the exact
//! classes the gate exists to catch — must produce a finding that names
//! the defect with a file and line. If someone weakens a rule until it
//! no longer catches its mutation, these tests fail.

use std::path::Path;

use analyzer::{analyze, Config, Finding, Tree};

fn repo_tree() -> Tree {
    // crates/analyzer -> crates -> repo root
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let tree = Tree::load(root, &["crates"]).expect("workspace sources load");
    assert!(tree.len() > 50, "unexpectedly small workspace");
    tree
}

/// The findings of `tree` for `rule`, asserting each carries a usable
/// anchor (non-empty path, 1-based line).
fn findings_for(tree: &Tree, rule: &str) -> Vec<Finding> {
    let out: Vec<Finding> = analyze(tree, &Config::repo())
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
    let findings = analyze(&repo_tree(), &Config::repo());
    assert!(
        findings.is_empty(),
        "workspace must pass its own gate:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
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
fn new_map_index_in_the_proxy_is_caught() {
    // The proxy is a directory of files; every one of them is audited.
    let mut tree = repo_tree();
    tree.edit("crates/core/src/proxy/group.rs", |s| {
        format!("{s}\nfn seeded_panic_site(m: &BTreeMap<u64, u64>, k: u64) -> u64 {{ m[&k] }}\n")
    });
    let hits = findings_for(&tree, "panic-path");
    assert!(
        hits.iter()
            .any(|f| f.path == "crates/core/src/proxy/group.rs" && f.msg.contains("m[&k]")),
        "a map index in the group engine must be caught: {hits:?}"
    );
}

#[test]
fn the_clippy_expectation_waives_a_slice_index_and_nothing_else() {
    // One waiver per justified slice index: the `#[expect]` clippy
    // already demands covers the statement for this rule too, while a
    // map index clippy cannot see still fails.
    let mut tree = repo_tree();
    tree.edit("crates/core/src/proxy/group.rs", |s| {
        format!(
            "{s}\nfn seeded_waived_slice(v: &[u64]) -> u64 {{\n\
             \x20   #[expect(clippy::indexing_slicing, reason = \"callers pass one entry\")]\n\
             \x20   let first = v[0];\n\
             \x20   first\n}}\n\
             fn seeded_map_index(m: &BTreeMap<u64, u64>, k: u64) -> u64 {{ m[&k] }}\n"
        )
    });
    let hits: Vec<Finding> = findings_for(&tree, "panic-path")
        .into_iter()
        .filter(|f| f.path == "crates/core/src/proxy/group.rs")
        .collect();
    assert!(
        hits.iter().any(|f| f.msg.contains("m[&k]")),
        "an unwaived map index must be caught: {hits:?}"
    );
    assert!(
        !hits.iter().any(|f| f.msg.contains("v[0]")),
        "a slice index under its clippy expectation must pass: {hits:?}"
    );
}

#[test]
fn audited_path_that_matches_no_file_is_caught() {
    // A split or rename that leaves the audit pointing at a gone file
    // must fail the gate, not quietly audit nothing.
    let mut cfg = Config::repo();
    cfg.panic_files.push("crates/core/src/gone.rs".into());
    let findings = analyze(&repo_tree(), &cfg);
    assert!(
        findings.iter().any(|f| f.rule == "panic-path"
            && f.path == "crates/core/src/gone.rs"
            && f.msg.contains("matches no file")),
        "an audited path with no file must be caught: {findings:?}"
    );
}
