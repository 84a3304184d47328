//! Cross-layer drift detection.
//!
//! The typed error surface is spelled in more than one place with no
//! type tying the spellings together: declared in one file, constructed
//! in others, asserted in tests. rustc does not warn about an
//! unconstructed variant of a `pub` enum such as `OffloadError`, so this
//! rule makes the sync machine-checked: a variant nothing constructs or
//! no test asserts is a gate failure with a `file:line` pointing at the
//! declaration.
//!
//! Protocol events, metrics counters and profile scopes need no rule:
//! `ProtoEvent` and its flight codec expand from one table
//! (`core/src/events.rs`), the hand-written consumers match it without a
//! wildcard arm, the `metrics/v1` key lists expand from the structs they
//! name (`core/src/metrics.rs`), and the profile scope list expands
//! with a crate-private `Scope` enum that denies dead code
//! (`core/src/profile.rs`), so rustc rejects an unhandled variant, an
//! unproduced counter or an unentered scope.
//!
//! Waivers: an `analyzer:allow(error-drift)` comment on the variant's
//! declaration line waives that variant everywhere — the declaration is
//! the one place a reviewer will look.

use crate::scan;
use crate::{Config, FileScan, Finding, SourceSet};

/// Rule name: every typed error variant constructed and asserted.
pub const ERROR_DRIFT: &str = "error-drift";

/// `true` when `file` contains `owner::member` as a path in non-test
/// code.
fn has_live_path(file: &FileScan, owner: &str, member: &str) -> bool {
    let toks = &file.lexed.toks;
    (0..toks.len().saturating_sub(2)).any(|i| {
        toks[i].is_ident(owner)
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident(member)
            && file.live(i)
    })
}

/// Every variant of the typed error enum must be (a) constructed by
/// non-test code under the construct roots — outside the declaring
/// file, whose `Debug`/`Display` impls match every variant anyway —
/// and (b) asserted by at least one test: a `Enum::Variant` mention in
/// test code (a `tests/` file or a `#[cfg(test)]` region) or in a
/// designated test-harness file (the checker drivers, which assert
/// typed failures on behalf of the soak suites).
pub fn error_drift(set: &SourceSet, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(errors) = set.get(&cfg.errors_file) else {
        return vec![Finding {
            rule: ERROR_DRIFT,
            path: cfg.errors_file.clone(),
            line: 1,
            msg: format!(
                "errors file not found in tree (looking for enum {})",
                cfg.error_enum
            ),
        }];
    };
    let variants = scan::enum_variants(&errors.lexed, &cfg.error_enum);
    if variants.is_empty() {
        return vec![Finding {
            rule: ERROR_DRIFT,
            path: cfg.errors_file.clone(),
            line: 1,
            msg: format!("enum {} not found or has no variants", cfg.error_enum),
        }];
    }
    for (variant, line) in &variants {
        if errors.allowed(ERROR_DRIFT, *line) {
            continue;
        }
        let constructed = set
            .under(&cfg.error_construct_roots)
            .filter(|f| f.path != cfg.errors_file)
            .any(|f| has_live_path(f, &cfg.error_enum, variant));
        if !constructed {
            out.push(Finding {
                rule: ERROR_DRIFT,
                path: cfg.errors_file.clone(),
                line: *line,
                msg: format!(
                    "{}::{variant} is never constructed in non-test code under {:?}; \
                     dead error surface (or waive with `analyzer:allow({ERROR_DRIFT})`)",
                    cfg.error_enum, cfg.error_construct_roots
                ),
            });
        }
        let asserted = set.iter().any(|f| {
            let in_test_scope = f.is_test || cfg.error_harness_files.iter().any(|h| h == &f.path);
            let toks = &f.lexed.toks;
            (0..toks.len().saturating_sub(2)).any(|i| {
                toks[i].is_ident(&cfg.error_enum)
                    && toks[i + 1].is_punct("::")
                    && toks[i + 2].is_ident(variant)
                    && (in_test_scope || f.mask.get(i).copied().unwrap_or(false))
            })
        });
        if !asserted {
            out.push(Finding {
                rule: ERROR_DRIFT,
                path: cfg.errors_file.clone(),
                line: *line,
                msg: format!(
                    "{}::{variant} is asserted by no test (tests/ files, #[cfg(test)] \
                     regions, or harness files {:?}); failures of this kind are unproven",
                    cfg.error_enum, cfg.error_harness_files
                ),
            });
        }
    }
    out
}
