//! A minimal hand-rolled Rust lexer — just enough token structure for
//! line-accurate, comment/string-safe linting. No external dependencies.
//!
//! The lexer understands everything that could make a naive text search
//! lie: line and (nested) block comments, string / raw-string / byte-string
//! literals, character literals vs. lifetimes, and numeric literals. It
//! also collects `// seplint: allow(Rn): reason` suppression directives so
//! rules can honour per-line opt-outs.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `pub`, `fn`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `!`, `{`, ...).
    Punct(char),
    /// Any literal (string, char, number); contents are irrelevant to every
    /// rule, so they are collapsed.
    Literal,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// `true` if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// Lexer output: the token stream plus suppression directives.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// `(line, rule)` pairs from `// seplint: allow(Rn): reason` comments.
    pub allows: Vec<(usize, String)>,
}

impl LexOutput {
    /// `true` when rule `rule` is suppressed for a violation on `line`
    /// (the directive may sit on the offending line or the line above).
    pub fn is_allowed(&self, line: usize, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || l + 1 == line))
    }
}

/// Lexes `src` into tokens and suppression directives. Never fails: input
/// that is not valid Rust just produces a best-effort token stream.
pub fn lex(src: &str) -> LexOutput {
    let chars: Vec<char> = src.chars().collect();
    let mut out = LexOutput::default();
    let mut i = 0;
    let mut line = 1;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                collect_allows(&text, line, &mut out.allows);
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Nested block comments, per the Rust grammar.
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/')
                    {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = skip_string(&chars, i + 1, &mut line);
            }
            '\'' => {
                i = lex_quote(&chars, i, &mut line, &mut out.tokens);
            }
            c if c.is_alphabetic() || c == '_' => {
                if let Some(next) = try_raw_or_byte_string(&chars, i) {
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        line,
                    });
                    // Re-count the newlines the literal spans.
                    line +=
                        chars[i..next].iter().filter(|&&c| c == '\n').count();
                    i = next;
                    continue;
                }
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_')
                {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident(chars[start..i].iter().collect()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                while i < chars.len()
                    && (chars[i].is_alphanumeric()
                        || chars[i] == '_'
                        || (chars[i] == '.'
                            && chars
                                .get(i + 1)
                                .is_some_and(char::is_ascii_digit)))
                {
                    i += 1;
                }
            }
            c => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Records `seplint: allow(R3, R4): why` directives found in a comment.
fn collect_allows(
    comment: &str,
    line: usize,
    allows: &mut Vec<(usize, String)>,
) {
    let Some(idx) = comment.find("seplint: allow(") else {
        return;
    };
    let rest = &comment[idx + "seplint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    for rule in rest[..close].split(',') {
        allows.push((line, rule.trim().to_string()));
    }
}

/// Skips past a (non-raw) string body starting *after* the opening quote;
/// returns the index past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Lexes a `'`-introduced token: a character literal (collapsed to
/// `Literal`) or a lifetime (skipped; the following identifier lexes as a
/// plain ident, which no rule cares about).
fn lex_quote(
    chars: &[char],
    i: usize,
    line: &mut usize,
    tokens: &mut Vec<Token>,
) -> usize {
    let next = chars.get(i + 1).copied();
    let is_char_literal = match next {
        Some('\\') => true,
        Some(c) if c.is_alphanumeric() || c == '_' => {
            // `'a'` is a char literal; `'a` (no closing quote right after
            // one ident char run) is a lifetime.
            chars.get(i + 2) == Some(&'\'')
        }
        Some('\'') | None => false,
        Some(_) => true, // e.g. '(' as a char literal
    };
    if !is_char_literal {
        return i + 1; // lifetime: drop the quote, lex the ident normally
    }
    tokens.push(Token {
        kind: TokenKind::Literal,
        line: *line,
    });
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\'' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// If position `i` starts a raw / byte / raw-byte string (`r"`, `r#"`,
/// `b"`, `br#"` ...), returns the index just past its closing delimiter.
fn try_raw_or_byte_string(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    if !raw && j == i {
        return None; // plain identifier starting with something else
    }
    let mut hashes = 0;
    if raw {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) == Some(&'\'') && !raw && chars[i] == 'b' {
        // Byte char literal b'x'.
        let mut k = j + 1;
        while k < chars.len() {
            match chars[k] {
                '\\' => k += 2,
                '\'' => return Some(k + 1),
                _ => k += 1,
            }
        }
        return Some(k);
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    if !raw {
        // Byte string with ordinary escapes.
        while j < chars.len() {
            match chars[j] {
                '\\' => j += 2,
                '"' => return Some(j + 1),
                _ => j += 1,
            }
        }
        return Some(j);
    }
    // Raw (byte) string: ends at `"` followed by `hashes` hash marks.
    while j < chars.len() {
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let src = r##"
            // unwrap in a comment
            /* panic! in a /* nested */ block */
            let s = "unwrap inside a string";
            let r = r#"expect in a raw "string""#;
            let b = b"panic bytes";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|i| i == "unwrap" || i == "panic"));
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let ids = idents(src);
        // Lifetime names survive as plain idents; char contents do not.
        assert!(ids.contains(&"a".to_string()));
        assert!(!ids.contains(&"x ".to_string()));
        let literals = lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(literals, 2, "two char literals");
    }

    #[test]
    fn line_numbers_are_accurate() {
        let src = "a\nb\n\nc";
        let lines: Vec<usize> =
            lex(src).tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn allow_directives_are_collected() {
        let src = "x(); // seplint: allow(R3): test harness only\ny();";
        let out = lex(src);
        assert_eq!(out.allows, vec![(1, "R3".to_string())]);
        assert!(out.is_allowed(1, "R3"));
        assert!(out.is_allowed(2, "R3"), "next line is covered too");
        assert!(!out.is_allowed(1, "R4"));
        assert!(!out.is_allowed(3, "R3"));
    }

    #[test]
    fn numeric_literals_do_not_eat_method_calls() {
        let src = "let x = 1.max(2); let y = 1.5e-3; let r = 0..10;";
        let ids = idents(src);
        assert!(ids.contains(&"max".to_string()));
    }
}
