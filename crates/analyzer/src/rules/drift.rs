//! Cross-layer drift detection.
//!
//! Two contracts in this workspace are spelled in more than one place
//! with no type tying the spellings together: the `profile/v1` scope
//! list (a `const` of names in `obs`, string literals at the
//! `profile_scope!` call sites) and the typed error surface (declared
//! in one file, constructed in others, asserted in tests). These rules
//! make that sync machine-checked: a scope nothing enters, or an
//! `OffloadError` variant nothing constructs or no test asserts, is a
//! gate failure with a `file:line` pointing at the declaration.
//!
//! Protocol events and metrics counters need no rule: `ProtoEvent` and
//! its flight codec expand from one table (`core/src/events.rs`), the
//! hand-written consumers match it without a wildcard arm, and the
//! `metrics/v1` key lists expand from the structs they name
//! (`core/src/metrics.rs`), so rustc rejects an unhandled variant or an
//! unproduced counter.
//!
//! Waivers: an `analyzer:allow(<rule>)` comment on the *declaration*
//! line (the enum variant or the schema key) waives that item
//! everywhere — the declaration is the one place a reviewer will look.

use crate::scan;
use crate::{Config, FileScan, Finding, SourceSet};

/// Rule name: every declared profile scope entered by a producer.
pub const SCHEMA_DRIFT: &str = "schema-drift";
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

/// `true` when `file` mentions `name` as an identifier or a string
/// literal in non-test code.
fn has_live_ident_or_str(file: &FileScan, name: &str) -> bool {
    file.lexed.toks.iter().enumerate().any(|(i, t)| {
        file.live(i)
            && ((t.is_ident(name)) || (t.kind == crate::lex::TokKind::Str && t.text == name))
    })
}

/// Every name in the schema file's `profile/v1` scope lists must be
/// entered by non-test code under the profile roots: it has to occur as
/// a string literal (a `profile_scope!("name")` in core) or an
/// identifier (an engine scope const in simnet). A declared scope
/// nothing enters is a profiler row that can never appear — drift
/// between the contract and the engine.
pub fn schema_drift(set: &SourceSet, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(schema) = set.get(&cfg.schema_file) else {
        return vec![Finding {
            rule: SCHEMA_DRIFT,
            path: cfg.schema_file.clone(),
            line: 1,
            msg: "schema file not found in tree".into(),
        }];
    };
    // The declaring file never counts as a producer, even when the
    // roots cover it — the const array itself mentions every name.
    let producers: Vec<&FileScan> = set
        .under(&cfg.profile_roots)
        .filter(|f| f.path != cfg.schema_file)
        .collect();
    for const_name in &cfg.profile_consts {
        let names = scan::const_str_array(&schema.lexed, const_name);
        if names.is_empty() {
            out.push(Finding {
                rule: SCHEMA_DRIFT,
                path: cfg.schema_file.clone(),
                line: 1,
                msg: format!("const {const_name} not found or empty in schema file"),
            });
            continue;
        }
        for (name, line) in names {
            if schema.allowed(SCHEMA_DRIFT, line) {
                continue;
            }
            if !producers.iter().any(|f| has_live_ident_or_str(f, &name)) {
                out.push(Finding {
                    rule: SCHEMA_DRIFT,
                    path: cfg.schema_file.clone(),
                    line,
                    msg: format!(
                        "profile scope \"{name}\" ({const_name}) is entered nowhere under \
                         {:?}; wire it up or waive with `analyzer:allow({SCHEMA_DRIFT})`",
                        cfg.profile_roots
                    ),
                });
            }
        }
    }
    out
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
