//! The panic-path baseline: a committed allowlist pinning the panic
//! sites that already exist on the proxy/host hot paths, so the gate
//! only fails on *new* ones while later hot-path work pays the debt down.
//!
//! Format (one entry per line, tab-separated):
//!
//! ```text
//! <count>\t<file>\t<kind>\t<snippet>
//! ```
//!
//! Entries are keyed by `(file, kind, snippet)` — the trimmed source
//! text of the offending line, *not* its line number — so unrelated
//! edits that shift lines do not churn the baseline. `count` caps how
//! many hits the entry absorbs: adding a second `self.q[i]` identical
//! to a baselined one still fails until the baseline is refreshed
//! deliberately with `cargo xtask analyze --update-baseline`.
//!
//! Blank lines and `#`-prefixed comment lines are ignored.

use std::collections::BTreeMap;

use crate::rules::parallel::{PanicHit, PANIC_PATH};
use crate::Finding;

/// Result of diffing raw panic hits against the baseline text.
pub struct Resolved {
    /// Hits not absorbed by the baseline — gate failures.
    pub findings: Vec<Finding>,
    /// Hits the baseline absorbed.
    pub baselined: usize,
    /// Baseline entries (rendered back as lines) that matched fewer
    /// hits than their count — stale debt that was paid down.
    pub stale: Vec<String>,
}

fn key(hit: &PanicHit) -> (String, String, String) {
    (hit.path.clone(), hit.kind.to_string(), hit.snippet.clone())
}

/// Parse `text` into `(file, kind, snippet) -> count`.
fn parse(text: &str) -> BTreeMap<(String, String, String), usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, '\t');
        let (Some(count), Some(file), Some(kind), Some(snippet)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let Ok(count) = count.trim().parse::<usize>() else {
            continue;
        };
        *out.entry((file.to_string(), kind.to_string(), snippet.to_string()))
            .or_insert(0) += count;
    }
    out
}

/// Diff `hits` against the committed `baseline` text.
pub fn apply(hits: &[PanicHit], baseline: &str) -> Resolved {
    let mut budget = parse(baseline);
    let mut findings = Vec::new();
    let mut baselined = 0usize;
    for hit in hits {
        match budget.get_mut(&key(hit)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                baselined += 1;
            }
            _ => findings.push(Finding {
                rule: PANIC_PATH,
                path: hit.path.clone(),
                line: hit.line,
                msg: format!(
                    "new {} on a hot path: `{}` — handle the failure (count a stat, \
                     return an error) or refresh the baseline with \
                     `cargo xtask analyze --update-baseline`",
                    hit.kind, hit.snippet
                ),
            }),
        }
    }
    let stale = budget
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|((file, kind, snippet), n)| format!("{n}\t{file}\t{kind}\t{snippet}"))
        .collect();
    Resolved {
        findings,
        baselined,
        stale,
    }
}

/// Render `hits` in baseline format: grouped by `(file, kind, snippet)`
/// with counts, sorted, with an explanatory header.
pub fn render(hits: &[PanicHit]) -> String {
    let mut grouped: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for hit in hits {
        *grouped.entry(key(hit)).or_insert(0) += 1;
    }
    let mut out = String::from(
        "# Panic-path baseline for the proxy/host hot paths.\n\
         # One entry per line: <count>\\t<file>\\t<kind>\\t<snippet>.\n\
         # Regenerate with: cargo xtask analyze --update-baseline\n\
         # New panic sites fail `cargo xtask analyze`; pay debt down, never up.\n",
    );
    for ((file, kind, snippet), n) in &grouped {
        out.push_str(&format!("{n}\t{file}\t{kind}\t{snippet}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(path: &str, kind: &'static str, line: u32, snippet: &str) -> PanicHit {
        PanicHit {
            path: path.into(),
            kind,
            line,
            snippet: snippet.into(),
        }
    }

    #[test]
    fn baseline_absorbs_up_to_count() {
        let hits = vec![
            hit("a.rs", "unwrap", 3, "x.unwrap();"),
            hit("a.rs", "unwrap", 9, "x.unwrap();"),
        ];
        let r = apply(&hits, "1\ta.rs\tunwrap\tx.unwrap();\n");
        assert_eq!(r.baselined, 1);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 9);
        assert!(r.stale.is_empty());
    }

    #[test]
    fn stale_entries_are_reported_not_fatal() {
        let r = apply(&[], "2\tgone.rs\tindex\tq[0]\n# comment\n\n");
        assert!(r.findings.is_empty());
        assert_eq!(r.stale, ["2\tgone.rs\tindex\tq[0]"]);
    }

    #[test]
    fn render_round_trips_through_apply() {
        let hits = vec![
            hit("b.rs", "index", 4, "buf[i]"),
            hit("a.rs", "expect", 2, "y.expect(\"set\");"),
            hit("b.rs", "index", 8, "buf[i]"),
        ];
        let text = render(&hits);
        let r = apply(&hits, &text);
        assert_eq!(r.baselined, 3);
        assert!(r.findings.is_empty());
        assert!(r.stale.is_empty());
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let r = apply(
            &[hit("a.rs", "unwrap", 1, "x.unwrap();")],
            "not-a-number\ta.rs\tunwrap\tx.unwrap();\nshort\tline\n",
        );
        assert_eq!(r.findings.len(), 1);
    }
}
