//! A minimal Rust lexer — just enough structure for token-pattern
//! rules.
//!
//! The analyzer does not need a full grammar: every rule in
//! [`crate::rules`] matches shapes like `Instant :: now` or
//! `map . iter ( )` over a flat token stream with source positions.
//! What the lexer must get exactly right is *what is not code*: string
//! literals (including raw and byte strings), character literals vs.
//! lifetimes, numeric literals with exponents, and comments — otherwise
//! a pattern inside a string would produce phantom findings. Line
//! comments are kept separately because the `// lint: allow(...)`
//! suppression grammar lives in them ([`crate::allow`]).

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (`1e9`, `0x1F`, `1_000`, `2.5`).
    Num,
    /// String, raw-string, byte-string, or char literal.
    Lit,
    /// Lifetime or loop label (`'a`).
    Lifetime,
    /// Punctuation; multi-character operators are merged (`::`, `+=`).
    Punct,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Exact source text.
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (bytes).
    pub col: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A line comment (`//`-style), with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Full comment text including the leading slashes.
    pub text: String,
    /// 1-based line.
    pub line: u32,
}

/// The lexed form of one source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Line comments in source order (block comments are discarded).
    pub comments: Vec<Comment>,
}

/// Multi-character operators merged into single punctuation tokens, in
/// longest-match-first order. Shifts (`<<`, `>>`) are deliberately left
/// split so `Vec<Vec<u8>>` lexes as four `>`-free tokens.
const MULTI_PUNCT: [&str; 17] = [
    "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "..",
];

/// Lexes `src` into tokens and line comments.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    // Advances over `n` bytes, maintaining line/col.
    macro_rules! advance {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }
    while i < b.len() {
        let c = b[i];
        let (tline, tcol) = (line, col);
        // Whitespace.
        if c.is_ascii_whitespace() {
            advance!(1);
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() {
            if b[i + 1] == b'/' {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    advance!(1);
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line: tline,
                });
                continue;
            }
            if b[i + 1] == b'*' {
                advance!(2);
                let mut depth = 1;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        advance!(2);
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        advance!(2);
                    } else {
                        advance!(1);
                    }
                }
                continue;
            }
        }
        // Raw / byte string literals: r"", r#""#, b"", br#""#.
        if c == b'r' || c == b'b' {
            if let Some(len) = raw_or_byte_string_len(&src[i..]) {
                out.tokens.push(Tok {
                    kind: TokKind::Lit,
                    text: src[i..i + len].to_string(),
                    line: tline,
                    col: tcol,
                });
                advance!(len);
                continue;
            }
        }
        // Identifiers and keywords.
        if c == b'_' || c.is_ascii_alphabetic() {
            let start = i;
            while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                advance!(1);
            }
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text: src[start..i].to_string(),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Numbers (incl. exponents `1e9`, `1.5e-3`, separators, radix
        // prefixes, and type suffixes — all folded into one token).
        if c.is_ascii_digit() {
            let start = i;
            advance!(1);
            while i < b.len() {
                let d = b[i];
                let ok = d == b'_'
                    || d.is_ascii_alphanumeric()
                    || (d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit())
                    || ((d == b'+' || d == b'-')
                        && matches!(b[i - 1], b'e' | b'E')
                        && src[start..i].chars().next().map(|f| f.is_ascii_digit()) == Some(true));
                if !ok {
                    break;
                }
                advance!(1);
            }
            out.tokens.push(Tok {
                kind: TokKind::Num,
                text: src[start..i].to_string(),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Plain string literals.
        if c == b'"' {
            let start = i;
            advance!(1);
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    advance!(1);
                }
                advance!(1);
            }
            advance!(1); // closing quote
            out.tokens.push(Tok {
                kind: TokKind::Lit,
                text: src[start..i].to_string(),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Char literal vs. lifetime.
        if c == b'\'' {
            let start = i;
            // A lifetime is `'` ident-start not followed by a closing
            // quote (so `'a'` is a char but `'a` is a lifetime).
            let is_lifetime = i + 1 < b.len()
                && (b[i + 1] == b'_' || b[i + 1].is_ascii_alphabetic())
                && !(i + 2 < b.len() && b[i + 2] == b'\'');
            if is_lifetime {
                advance!(1);
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    advance!(1);
                }
                out.tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[start..i].to_string(),
                    line: tline,
                    col: tcol,
                });
            } else {
                advance!(1);
                while i < b.len() && b[i] != b'\'' {
                    if b[i] == b'\\' {
                        advance!(1);
                    }
                    advance!(1);
                }
                advance!(1);
                out.tokens.push(Tok {
                    kind: TokKind::Lit,
                    text: src[start..i].to_string(),
                    line: tline,
                    col: tcol,
                });
            }
            continue;
        }
        // Punctuation, longest multi-char operator first.
        let rest = &src[i..];
        let multi = MULTI_PUNCT.iter().find(|op| rest.starts_with(**op));
        let len = multi.map_or(1, |op| op.len());
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text: src[i..i + len].to_string(),
            line: tline,
            col: tcol,
        });
        advance!(len);
    }
    out
}

/// Length of a raw/byte string literal starting at the head of `s`, or
/// `None` if `s` does not start one. Handles `r"…"`, `r#"…"#` (any
/// number of hashes), `b"…"`, `br#"…"#`, and `rb` orderings.
fn raw_or_byte_string_len(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let mut j = 0usize;
    let mut raw = false;
    while j < 2 && j < b.len() && (b[j] == b'r' || b[j] == b'b') {
        if b[j] == b'r' {
            raw = true;
        }
        j += 1;
    }
    if j == 0 {
        return None;
    }
    let hashes_start = j;
    if raw {
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
    }
    let hashes = j - hashes_start;
    if j >= b.len() || b[j] != b'"' {
        return None;
    }
    j += 1;
    // Find the closing quote (followed by `hashes` hashes when raw).
    while j < b.len() {
        if b[j] == b'\\' && !raw {
            j += 2;
            continue;
        }
        if b[j] == b'"' {
            let close = &s[j + 1..];
            if !raw
                || close.len() >= hashes && close.as_bytes()[..hashes].iter().all(|&h| h == b'#')
            {
                return Some(j + 1 + hashes);
            }
        }
        j += 1;
    }
    Some(s.len())
}

/// Index of the bracket matching `toks[open_idx]` (which must be
/// `open`), or `toks.len()` when unclosed.
pub(crate) fn match_bracket(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// Index just past a `<...>` group starting at `open` (angle counting;
/// shifts are lexed split so nesting balances).
pub(crate) fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn merges_paths_and_compound_operators() {
        assert_eq!(
            texts("a::b += c -> d"),
            vec!["a", "::", "b", "+=", "c", "->", "d"]
        );
    }

    #[test]
    fn keeps_generics_unmerged() {
        assert_eq!(
            texts("Vec<Vec<u8>>"),
            vec!["Vec", "<", "Vec", "<", "u8", ">", ">"]
        );
    }

    #[test]
    fn numbers_with_exponents_are_single_tokens() {
        assert_eq!(
            texts("1e9 1.5e-3 0x1F 1_000u64"),
            vec!["1e9", "1.5e-3", "0x1F", "1_000u64"]
        );
    }

    #[test]
    fn ranges_do_not_eat_numbers() {
        assert_eq!(texts("0..10"), vec!["0", "..", "10"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let x = "Instant::now()"; y"#);
        assert!(l.tokens.iter().all(|t| t.text != "Instant"));
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Lit));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r###"let x = r#"a "quoted" HashMap"#; z"###);
        assert!(l.tokens.iter().all(|t| t.text != "HashMap"));
        assert!(l.tokens.iter().any(|t| t.is_ident("z")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'y'; }");
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text == "'y'"));
    }

    #[test]
    fn line_comments_are_captured_with_lines() {
        let l = lex("let a = 1;\n// lint: allow(D1, why)\nlet b = 2;");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].line, 2);
        assert!(l.comments[0].text.starts_with("// lint:"));
    }

    #[test]
    fn block_comments_nest_and_vanish() {
        let l = lex("a /* x /* y */ Instant::now */ b");
        assert_eq!(
            l.tokens.iter().map(|t| &t.text[..]).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }
}
