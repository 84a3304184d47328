//! The analyzed file set: workspace-relative paths mapped to source
//! text, loadable from disk and freely editable in memory.
//!
//! Keeping the tree as plain data (instead of re-reading the filesystem
//! inside every rule) is what makes the mutation self-tests possible:
//! a test loads the real repository, performs string surgery on one
//! file — seeding a lock cycle, a map index on a hot path — and asserts
//! the gate fails, without touching disk.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// A set of Rust sources keyed by `/`-separated workspace-relative path.
#[derive(Clone, Debug, Default)]
pub struct Tree {
    files: BTreeMap<String, String>,
}

impl Tree {
    /// An empty tree.
    pub fn new() -> Tree {
        Tree::default()
    }

    /// Load every `*.rs` file under each of `roots` (relative to
    /// `base`), skipping `target` directories. Missing roots are not an
    /// error — a rule patrolling a root that does not exist simply sees
    /// no files.
    pub fn load(base: &Path, roots: &[&str]) -> io::Result<Tree> {
        let mut tree = Tree::new();
        for root in roots {
            let dir = base.join(root);
            if dir.is_dir() {
                tree.load_dir(base, &dir)?;
            } else if dir.is_file() {
                tree.insert(root, &fs::read_to_string(&dir)?);
            }
        }
        Ok(tree)
    }

    fn load_dir(&mut self, base: &Path, dir: &Path) -> io::Result<()> {
        let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name == "target" || name == "fixtures" {
                    continue;
                }
                self.load_dir(base, &path)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(base).unwrap_or(&path);
                let key = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                self.insert(&key, &fs::read_to_string(&path)?);
            }
        }
        Ok(())
    }

    /// Insert (or replace) one file.
    pub fn insert(&mut self, path: &str, src: &str) {
        self.files.insert(path.to_string(), src.to_string());
    }

    /// The source of `path`, if present.
    pub fn get(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(String::as_str)
    }

    /// Replace `path`'s contents with `f(old)`. Panics if the file is
    /// absent — mutation tests want a loud failure when the layout
    /// changed under them.
    pub fn edit(&mut self, path: &str, f: impl FnOnce(&str) -> String) {
        let old = self
            .files
            .get(path)
            .unwrap_or_else(|| panic!("tree has no file `{path}`"));
        let new = f(old);
        self.files.insert(path.to_string(), new);
    }

    /// All `(path, source)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(p, s)| (p.as_str(), s.as_str()))
    }

    /// Number of files in the tree.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` when the tree holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// `true` when `path` is test code by location: under a `tests/`
/// directory (integration tests).
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_and_query() {
        let mut t = Tree::new();
        t.insert("crates/a/src/lib.rs", "fn a() {}");
        t.insert("crates/b/src/lib.rs", "fn b() {}");
        t.edit("crates/a/src/lib.rs", |s| s.replace("a", "c"));
        assert_eq!(t.get("crates/a/src/lib.rs"), Some("fn c() {}"));
        let paths: Vec<_> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["crates/a/src/lib.rs", "crates/b/src/lib.rs"]);
    }

    #[test]
    fn test_paths() {
        assert!(is_test_path("tests/failure_modes.rs"));
        assert!(is_test_path("crates/core/tests/edge_cases.rs"));
        assert!(!is_test_path("crates/core/src/host.rs"));
    }
}
