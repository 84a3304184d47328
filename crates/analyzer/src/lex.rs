//! A comment/string-aware tokenizer for Rust source.
//!
//! This is not a full Rust lexer — it recognizes exactly the token
//! shapes the analysis rules need to reason about source *structure*
//! without being fooled by text inside comments or string literals (the
//! two failure modes of the line-regex scanner it replaced):
//!
//! * identifiers (including raw `r#ident`), lifetimes, numbers;
//! * string/char/byte literals, including raw strings with any number
//!   of `#` guards — their *contents* become a single [`TokKind::Str`] /
//!   [`TokKind::Char`] token, never punctuation or identifiers;
//! * line (`//`) and block (`/* */`, nested) comments — skipped
//!   entirely, except that `analyzer:allow(rule)` directives inside
//!   them are collected per line;
//! * the multi-char punctuation the item scanner cares about (`::`,
//!   `=>`, `->`); everything else is a single-char [`TokKind::Punct`].
//!
//! Every token carries its 1-based source line so findings can be
//! reported as `file:line`.

/// The shape of one token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// An identifier or keyword (keywords are not distinguished).
    Ident,
    /// A lifetime such as `'a` (without the quote in `text`).
    Lifetime,
    /// A string or byte-string literal; `text` is the raw content
    /// between the quotes (escapes are not processed).
    Str,
    /// A character or byte literal, content between the quotes.
    Char,
    /// A numeric literal.
    Num,
    /// Punctuation: `::`, `=>`, `->`, or a single character.
    Punct,
}

/// One token: kind, text, and the 1-based line it starts on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tok {
    /// Token shape.
    pub kind: TokKind,
    /// Token text. For [`TokKind::Str`]/[`TokKind::Char`] this is the
    /// content between the delimiters; for everything else the verbatim
    /// source text.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Tok {
    /// `true` when the token is an identifier equal to `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` when the token is punctuation equal to `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// An `analyzer:allow(rule)` directive found in a comment: the rule name
/// it waives and the line the comment sits on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Allow {
    /// The waived rule name, e.g. `decode-unwrap`.
    pub rule: String,
    /// 1-based line of the directive.
    pub line: u32,
}

/// Tokenizer output: the token stream plus the allow directives that
/// were found inside comments.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub toks: Vec<Tok>,
    /// Allow directives, in source order.
    pub allows: Vec<Allow>,
}

impl Lexed {
    /// `true` when a directive waives `rule` on `line`: either trailing
    /// on the line itself, or in a comment on the line directly above
    /// (the usual spelling when the offending line has no room).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| (a.line == line || a.line + 1 == line) && a.rule == rule)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Scan a comment's text for `analyzer:allow(...)` directives.
fn collect_allows(text: &str, line: u32, out: &mut Vec<Allow>) {
    const MARKER: &str = "analyzer:allow(";
    let mut rest = text;
    while let Some(pos) = rest.find(MARKER) {
        let after = &rest[pos + MARKER.len()..];
        let Some(end) = after.find(')') else { break };
        out.push(Allow {
            rule: after[..end].trim().to_string(),
            line,
        });
        rest = &after[end..];
    }
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Advance one char, tracking newlines.
    fn bump(&mut self) {
        if self.peek(0) == Some('\n') {
            self.line += 1;
        }
        self.i += 1;
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.toks.push(Tok { kind, text, line });
    }

    /// Consume a line comment starting at `self.i` (on `//`).
    fn line_comment(&mut self) {
        let start = self.i;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.i += 1;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        collect_allows(&text, self.line, &mut self.out.allows);
    }

    /// Consume a (nested) block comment starting at `self.i` (on `/*`).
    fn block_comment(&mut self) {
        let start = self.i;
        let start_line = self.line;
        let mut depth = 0usize;
        while self.i < self.chars.len() {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                self.i += 2;
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                self.i += 2;
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
        let text: String = self.chars[start..self.i.min(self.chars.len())]
            .iter()
            .collect();
        collect_allows(&text, start_line, &mut self.out.allows);
    }

    /// Consume a `"…"` string with escapes; `self.i` is on the `"`.
    fn quoted_string(&mut self) {
        let start_line = self.line;
        self.i += 1;
        let content_start = self.i;
        loop {
            match self.peek(0) {
                None => break,
                Some('\\') => {
                    if self.peek(1) == Some('\n') {
                        self.line += 1; // escaped line continuation
                    }
                    self.i += 2;
                }
                Some('"') => break,
                Some(_) => self.bump(),
            }
        }
        let end = self.i.min(self.chars.len());
        let content: String = self.chars[content_start..end].iter().collect();
        self.push(TokKind::Str, content, start_line);
        self.i = (end + 1).min(self.chars.len() + 1);
    }

    /// Consume a raw string; `self.i` is on the first `#` or the `"`
    /// after the `r`/`br` prefix has been skipped. Returns `false` (and
    /// consumes nothing) if what follows is not actually a raw string.
    fn raw_string(&mut self, at: usize) -> bool {
        let mut j = at;
        let mut hashes = 0usize;
        while self.chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if self.chars.get(j) != Some(&'"') {
            return false;
        }
        let start_line = self.line;
        j += 1;
        let content_start = j;
        while j < self.chars.len() {
            if self.chars[j] == '"' {
                let mut k = 0usize;
                while k < hashes && self.chars.get(j + 1 + k) == Some(&'#') {
                    k += 1;
                }
                if k == hashes {
                    break;
                }
            }
            if self.chars[j] == '\n' {
                self.line += 1;
            }
            j += 1;
        }
        let content: String = self.chars[content_start..j.min(self.chars.len())]
            .iter()
            .collect();
        self.push(TokKind::Str, content, start_line);
        self.i = (j + 1 + hashes).min(self.chars.len());
        true
    }

    /// Consume a char/byte literal; `self.i` is on the opening `'`.
    fn char_literal(&mut self) {
        let start_line = self.line;
        self.i += 1;
        let content_start = self.i;
        if self.peek(0) == Some('\\') {
            self.i += 2; // escape introducer + escaped char
        }
        while self.peek(0).is_some_and(|c| c != '\'') {
            self.bump();
        }
        let end = self.i.min(self.chars.len());
        let content: String = self.chars[content_start..end].iter().collect();
        self.push(TokKind::Char, content, start_line);
        self.i = (end + 1).min(self.chars.len() + 1);
    }

    /// Consume an identifier starting at `self.i`.
    fn ident(&mut self) {
        let start = self.i;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.i += 1;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        self.push(TokKind::Ident, text, self.line);
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let next = self.peek(1);

            if c.is_whitespace() {
                self.bump();
                continue;
            }
            if c == '/' && next == Some('/') {
                self.line_comment();
                continue;
            }
            if c == '/' && next == Some('*') {
                self.block_comment();
                continue;
            }

            // r-prefixed forms: raw string r"…" / r#"…"#, raw ident r#id.
            if c == 'r' && matches!(next, Some('"') | Some('#')) {
                if self.raw_string(self.i + 1) {
                    continue;
                }
                if next == Some('#') && self.peek(2).is_some_and(is_ident_start) {
                    self.i += 2; // skip r#
                    self.ident();
                    continue;
                }
            }
            // b-prefixed forms: b"…", br"…", br#"…"#, b'x'.
            if c == 'b' {
                match next {
                    Some('"') => {
                        self.i += 1;
                        self.quoted_string();
                        continue;
                    }
                    Some('\'') => {
                        self.i += 1;
                        self.char_literal();
                        continue;
                    }
                    _ => {}
                }
                // br"…" / br#"…"# — raw_string consumes only on success.
                if next == Some('r')
                    && matches!(self.peek(2), Some('"') | Some('#'))
                    && self.raw_string(self.i + 2)
                {
                    continue;
                }
            }

            if c == '"' {
                self.quoted_string();
                continue;
            }
            if c == '\'' {
                // Lifetime: 'ident not closed by a quote right after a
                // single ident char ('a' is a char literal, 'ab is not
                // valid but lexes as a lifetime).
                if next.is_some_and(is_ident_start) && next != Some('\\') {
                    let mut j = self.i + 1;
                    while self.chars.get(j).copied().is_some_and(is_ident_continue) {
                        j += 1;
                    }
                    if self.chars.get(j) != Some(&'\'') {
                        let text: String = self.chars[self.i + 1..j].iter().collect();
                        self.push(TokKind::Lifetime, text, self.line);
                        self.i = j;
                        continue;
                    }
                }
                self.char_literal();
                continue;
            }

            if is_ident_start(c) {
                self.ident();
                continue;
            }

            if c.is_ascii_digit() {
                let start = self.i;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.i += 1;
                }
                // One fraction part, only when followed by a digit (so
                // `1..2` stays `1`, `.`, `.`, `2`).
                if self.peek(0) == Some('.') && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    self.i += 1;
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.i += 1;
                    }
                }
                let text: String = self.chars[start..self.i].iter().collect();
                self.push(TokKind::Num, text, self.line);
                continue;
            }

            // Multi-char punctuation, then single-char fallback.
            let multi = match (c, next) {
                (':', Some(':')) => Some("::"),
                ('=', Some('>')) => Some("=>"),
                ('-', Some('>')) => Some("->"),
                _ => None,
            };
            match multi {
                Some(p) => {
                    self.push(TokKind::Punct, p.to_string(), self.line);
                    self.i += 2;
                }
                None => {
                    self.push(TokKind::Punct, c.to_string(), self.line);
                    self.bump();
                }
            }
        }
    }
}

/// Tokenize `src`. Never fails: unterminated literals or comments are
/// closed at end-of-input (the analyzer must degrade gracefully on code
/// that does not compile yet).
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    };
    lx.run();
    lx.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_idents() {
        assert_eq!(idents("// HashMap\nlet x = 1;"), ["let", "x"]);
        assert_eq!(idents("/* HashMap */ let y;"), ["let", "y"]);
        assert_eq!(idents("let u = \"http://HashMap\";"), ["let", "u"]);
        assert_eq!(idents("let r = r#\"a \" HashMap\"#;"), ["let", "r"]);
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(idents("/* a /* b */ HashMap */ fin"), ["fin"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
        let chars: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, ["x", "\\n"]);
    }

    #[test]
    fn multichar_puncts_and_lines() {
        let l = lex("a::b\nc => d -> e");
        let puncts: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| (t.text.clone(), t.line))
            .collect();
        assert_eq!(
            puncts,
            [("::".into(), 1), ("=>".into(), 2), ("->".into(), 2)]
        );
    }

    #[test]
    fn allow_directives_are_collected() {
        let l = lex("let a = 1; // analyzer:allow(panic-path)\n// analyzer:allow(lock-order)\n");
        assert!(l.allowed("panic-path", 1));
        assert!(l.allowed("lock-order", 2));
        // A directive also covers the line directly below it — the
        // usual spelling when the offending line has no room.
        assert!(l.allowed("panic-path", 2));
        assert!(l.allowed("lock-order", 3));
        assert!(!l.allowed("panic-path", 3));
        assert!(!l.allowed("lock-order", 1));
    }

    #[test]
    fn byte_and_raw_strings() {
        assert_eq!(idents("let s = b\"HashMap\"; done"), ["let", "s", "done"]);
        assert_eq!(
            idents("let s = br#\"HashMap\"#; done"),
            ["let", "s", "done"]
        );
        assert_eq!(idents("let c = b'h'; done"), ["let", "c", "done"]);
    }

    #[test]
    fn unterminated_input_degrades() {
        let _ = lex("let s = \"unterminated");
        let _ = lex("/* unterminated");
        let _ = lex("let c = 'x");
    }
}
