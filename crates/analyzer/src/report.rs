//! The machine-readable analyzer report: `cargo xtask analyze --json`
//! emits one `bluefield-offload/analyzer/v1` document, and `ci.sh`
//! archives it as `target/analyze/report.json` next to the bench
//! artifacts. Emission is hand-rolled (the crate is dependency-free);
//! the document is small and flat enough that this stays trivial.
//!
//! Schema (`analyzer/v1`):
//!
//! ```json
//! {
//!   "schema": "bluefield-offload/analyzer/v1",
//!   "clean": true,
//!   "files_scanned": 40,
//!   "rules": ["concurrency-ban", "..."],
//!   "findings": [
//!     {"rule": "...", "file": "...", "line": 7, "message": "..."}
//!   ],
//!   "baselined": 12,
//!   "stale_baseline": ["1\tfile\tkind\tsnippet"]
//! }
//! ```

use crate::Analysis;

/// Schema identifier stamped into every report.
pub const SCHEMA_ID: &str = "bluefield-offload/analyzer/v1";

/// Every rule the analyzer runs, for the report's `rules` list.
pub const RULES: &[&str] = &[
    crate::rules::drift::SCHEMA_DRIFT,
    crate::rules::drift::ERROR_DRIFT,
    crate::rules::parallel::CONCURRENCY_BAN,
    crate::rules::parallel::LOCK_ORDER,
    crate::rules::parallel::PANIC_PATH,
];

/// JSON string escaping per RFC 8259 (control chars as `\u00XX`).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `analysis` as one pretty-printed `analyzer/v1` document.
pub fn render(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", esc(SCHEMA_ID)));
    out.push_str(&format!("  \"clean\": {},\n", analysis.clean()));
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        analysis.files_scanned
    ));
    let rules: Vec<String> = RULES.iter().map(|r| format!("\"{}\"", esc(r))).collect();
    out.push_str(&format!("  \"rules\": [{}],\n", rules.join(", ")));
    out.push_str("  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            esc(f.rule),
            esc(&f.path),
            f.line,
            esc(&f.msg)
        ));
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"baselined\": {},\n", analysis.baselined));
    let stale: Vec<String> = analysis
        .stale_baseline
        .iter()
        .map(|s| format!("\"{}\"", esc(s)))
        .collect();
    out.push_str(&format!("  \"stale_baseline\": [{}]\n", stale.join(", ")));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    #[test]
    fn report_escapes_and_structures() {
        let analysis = Analysis {
            findings: vec![Finding {
                rule: "panic-path",
                path: "a.rs".into(),
                line: 3,
                msg: "say \"no\"\tplease".into(),
            }],
            baselined: 2,
            stale_baseline: vec!["1\tgone.rs\tindex\tq[0]".into()],
            files_scanned: 7,
        };
        let doc = render(&analysis);
        assert!(doc.contains("\"schema\": \"bluefield-offload/analyzer/v1\""));
        assert!(doc.contains("\"clean\": false"));
        assert!(doc.contains("say \\\"no\\\"\\tplease"));
        assert!(doc.contains("\"1\\tgone.rs\\tindex\\tq[0]\""));
        // Paranoia: the document must parse as the obs JSON validator's
        // lexer would — spot-check balanced braces/brackets.
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn clean_report_is_clean() {
        let analysis = Analysis {
            findings: vec![],
            baselined: 0,
            stale_baseline: vec![],
            files_scanned: 1,
        };
        let doc = render(&analysis);
        assert!(doc.contains("\"clean\": true"));
        assert!(doc.contains("\"findings\": [],"));
    }
}
