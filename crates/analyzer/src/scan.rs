//! Lightweight item scanning over the token stream: test-region and
//! waiver marking, and delimiter matching. This is deliberately *not* a
//! parser — it recognizes just enough structure for the rules, and
//! degrades to "no match" (never a panic) on code it does not understand.

use crate::lex::{Lexed, Tok};

/// Per-token `true` when the token sits inside test-only code: an item
/// annotated `#[cfg(test)]` or `#[test]` (attributes included). A
/// file-level `#![cfg(test)]` marks the whole file.
pub fn test_mask(lexed: &Lexed) -> Vec<bool> {
    attr_mask(lexed, attr_is_test)
}

/// Per-token `true` when the token sits under an
/// `#[expect(clippy::<lint>, …)]`: the attribute and the statement or
/// item it is on (a file-level `#![expect(…)]` marks the whole file).
/// Clippy fails a stale expectation, so the mark is a waiver that
/// cannot outlive the code it waives.
pub fn expect_mask(lexed: &Lexed, lint: &str) -> Vec<bool> {
    attr_mask(lexed, |body| {
        body.first().is_some_and(|t| t.is_ident("expect"))
            && body
                .windows(3)
                .any(|w| w[0].is_ident("clippy") && w[1].is_punct("::") && w[2].is_ident(lint))
    })
}

/// Per-token `true` for every attribute whose body (between `[` and
/// `]`) satisfies `marks`, with the item or statement it annotates.
fn attr_mask(lexed: &Lexed, marks: impl Fn(&[Tok]) -> bool) -> Vec<bool> {
    let toks = &lexed.toks;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct("#") {
            i += 1;
            continue;
        }
        // Inner attribute `#![cfg(test)]` — whole file is test code.
        if toks.get(i + 1).is_some_and(|t| t.is_punct("!")) {
            if let Some(close) = delim_close(toks, i + 2, "[", "]") {
                if marks(&toks[i + 3..close]) {
                    mask.iter_mut().for_each(|m| *m = true);
                    return mask;
                }
                i = close + 1;
                continue;
            }
        }
        let Some(close) = delim_close(toks, i + 1, "[", "]") else {
            i += 1;
            continue;
        };
        if !marks(&toks[i + 2..close]) {
            i = close + 1;
            continue;
        }
        // Mark the attribute, any further attributes, and the item that
        // follows (through its `;` or its outermost `{ … }` block).
        let start = i;
        let mut j = close + 1;
        while j < toks.len() && toks[j].is_punct("#") {
            match delim_close(toks, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let end = item_end(toks, j);
        for m in mask.iter_mut().take(end.min(toks.len())).skip(start) {
            *m = true;
        }
        i = end;
    }
    mask
}

/// `true` when the tokens of an attribute body (between `[` and `]`)
/// mean "test code": exactly `test`, or `cfg` applied directly to
/// `test` (`cfg(test)` — not `cfg(not(test))`).
fn attr_is_test(body: &[Tok]) -> bool {
    if body.len() == 1 && body[0].is_ident("test") {
        return true;
    }
    body.windows(4).any(|w| {
        w[0].is_ident("cfg") && w[1].is_punct("(") && w[2].is_ident("test") && w[3].is_punct(")")
    })
}

/// Index just past the end of the item starting at `from`: past the
/// first `;` seen before any brace, or past the matching `}` of the
/// first `{`. Returns `toks.len()` when the item never closes.
fn item_end(toks: &[Tok], from: usize) -> usize {
    let mut j = from;
    while j < toks.len() {
        if toks[j].is_punct(";") {
            return j + 1;
        }
        if toks[j].is_punct("{") {
            return match delim_close(toks, j, "{", "}") {
                Some(c) => c + 1,
                None => toks.len(),
            };
        }
        j += 1;
    }
    toks.len()
}

/// Index of the delimiter closing the `open` at index `at` (which must
/// hold `open`), honoring nesting. `None` when `at` is not `open` or
/// the stream ends first.
pub fn delim_close(toks: &[Tok], at: usize, open: &str, close: &str) -> Option<usize> {
    if !toks.get(at)?.is_punct(open) {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(at) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, TokKind};

    #[test]
    fn test_region_masking() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn also_live() {}\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed);
        let live: Vec<_> = lexed
            .toks
            .iter()
            .zip(&mask)
            .filter(|(t, m)| t.kind == TokKind::Ident && !**m)
            .map(|(t, _)| t.text.clone())
            .collect();
        assert_eq!(live, ["fn", "live", "fn", "also_live"]);
    }

    #[test]
    fn cfg_not_test_is_live() {
        let src = "#[cfg(not(test))]\nfn shipping() {}\n";
        let lexed = lex(src);
        assert!(test_mask(&lexed).iter().all(|m| !m));
    }

    #[test]
    fn expect_marks_only_its_statement_and_only_its_lint() {
        let src = "fn f(v: &[u8]) -> u8 {\n\
                   \x20   #[expect(clippy::indexing_slicing, reason = \"checked\")]\n\
                   \x20   let a = v[0];\n\
                   \x20   #[expect(clippy::expect_used)]\n\
                   \x20   let b = v[1];\n\
                   \x20   let c = v[2];\n\
                   \x20   a + b + c\n}\n";
        let lexed = lex(src);
        let mask = expect_mask(&lexed, "indexing_slicing");
        let marked: Vec<_> = lexed
            .toks
            .iter()
            .zip(&mask)
            .filter(|(t, m)| t.kind == TokKind::Ident && **m)
            .map(|(t, _)| t.text.clone())
            .collect();
        assert_eq!(
            marked,
            [
                "expect",
                "clippy",
                "indexing_slicing",
                "reason",
                "let",
                "a",
                "v"
            ]
        );
    }

    #[test]
    fn inline_test_fn_masked() {
        let src = "#[test]\nfn t() { boom(); }\nfn live() {}\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed);
        let live: Vec<_> = lexed
            .toks
            .iter()
            .zip(&mask)
            .filter(|(t, m)| t.kind == TokKind::Ident && !**m)
            .map(|(t, _)| t.text.clone())
            .collect();
        assert_eq!(live, ["fn", "live"]);
    }
}
