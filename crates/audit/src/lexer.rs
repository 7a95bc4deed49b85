//! A line/column-tracking tokenizer over raw Rust source.
//!
//! This is deliberately *not* a full Rust lexer: it recognizes exactly
//! the token shapes the audit rules need to be sound — identifiers,
//! numeric literals (with a float/int distinction), string/char
//! literals in all their raw/byte spellings, lifetimes, comments
//! (with the doc/non-doc distinction), and multi-character operators.
//! Everything the rules match on (`HashMap`, `Instant::now`, `==`,
//! `as f32`, …) must never be confused with the same characters inside a string
//! literal or a comment, and every token must carry an exact
//! `line:col` so findings are clickable; those two properties are the
//! whole point of hand-rolling this instead of substring search.
//!
//! The lexer never panics on malformed input: an unterminated string
//! or comment simply ends at end-of-file, and any byte it does not
//! recognize becomes a one-character [`TokenKind::Punct`] token.

/// What a token is, as far as the audit rules care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `pub`, `fn`, `r#async`, …).
    Ident,
    /// An integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// A floating-point literal (`0.0`, `1e-9`, `2.5f32`).
    Float,
    /// A string literal of any spelling (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A line comment; `doc` is true for `///` and `//!`.
    LineComment {
        /// Whether this is a doc comment (`///` or `//!`).
        doc: bool,
    },
    /// A block comment; `doc` is true for `/** */` and `/*! */`.
    BlockComment {
        /// Whether this is a doc comment (`/** */` or `/*! */`).
        doc: bool,
    },
    /// Punctuation — multi-character operators (`::`, `==`, `..=`, `->`)
    /// are a single token.
    Punct,
}

/// One token with its exact source location and text.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification of this token.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True when this token is any kind of comment.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
        )
    }

    /// True when this token is a doc comment (`///`, `//!`, `/** */`, `/*! */`).
    pub fn is_doc_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment { doc: true } | TokenKind::BlockComment { doc: true }
        )
    }
}

/// Multi-character operators, longest first so maximal munch works.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "->", "=>", "..",
];

/// Tokenize `source`, returning every token including comments.
///
/// The returned stream is lossless enough for the rule engine: only
/// whitespace is dropped, and positions are exact. This function never
/// panics, whatever bytes it is fed.
pub fn tokenize(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consume one character, keeping line/col in sync.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment(line, col);
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment(line, col);
            } else if is_ident_start(c) {
                self.ident_or_prefixed_literal(line, col);
            } else if c.is_ascii_digit() {
                self.number(line, col);
            } else if c == '"' {
                self.string_literal(line, col);
            } else if c == '\'' {
                self.char_or_lifetime(line, col);
            } else {
                self.operator(line, col);
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        let text: String = self.chars[start..self.pos].iter().collect();
        self.out.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn line_comment(&mut self, line: u32, col: u32) {
        let start = self.pos;
        self.bump();
        self.bump();
        // `///` (but not `////`) and `//!` are doc comments.
        let doc = match self.peek(0) {
            Some('/') => self.peek(1) != Some('/'),
            Some('!') => true,
            _ => false,
        };
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        self.push(TokenKind::LineComment { doc }, start, line, col);
    }

    fn block_comment(&mut self, line: u32, col: u32) {
        let start = self.pos;
        self.bump();
        self.bump();
        let doc = match self.peek(0) {
            // `/**/` is an empty non-doc comment; `/**x` is doc.
            Some('*') => self.peek(1) != Some('/'),
            Some('!') => true,
            _ => false,
        };
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.push(TokenKind::BlockComment { doc }, start, line, col);
    }

    /// An identifier — or one of the identifier-prefixed literal forms
    /// (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"`, `r#ident`).
    fn ident_or_prefixed_literal(&mut self, line: u32, col: u32) {
        let start = self.pos;
        let first = self.peek(0).unwrap_or(' ');

        // Raw strings and raw identifiers: r"…", r#"…"#, br"…", r#keyword.
        if (first == 'r' || first == 'b' || first == 'c') && self.raw_or_prefixed(start, line, col)
        {
            return;
        }

        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, start, line, col);
    }

    /// Try to lex a prefixed literal starting at the current position.
    /// Returns true if one was consumed.
    fn raw_or_prefixed(&mut self, start: usize, line: u32, col: u32) -> bool {
        let first = self.peek(0).unwrap_or(' ');
        // b'x' byte char
        if first == 'b' && self.peek(1) == Some('\'') {
            self.bump();
            self.char_body();
            self.push(TokenKind::Char, start, line, col);
            return true;
        }
        // b"…" / c"…" byte & C strings
        if (first == 'b' || first == 'c') && self.peek(1) == Some('"') {
            self.bump();
            self.cooked_string_body();
            self.push(TokenKind::Str, start, line, col);
            return true;
        }
        // br"…", br#"…"#
        if first == 'b' && self.peek(1) == Some('r') {
            let mut hashes = 0usize;
            while self.peek(2 + hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(2 + hashes) == Some('"') {
                self.bump();
                self.bump();
                self.raw_string_body(hashes);
                self.push(TokenKind::Str, start, line, col);
                return true;
            }
            return false;
        }
        if first == 'r' {
            let mut hashes = 0usize;
            while self.peek(1 + hashes) == Some('#') {
                hashes += 1;
            }
            match self.peek(1 + hashes) {
                // r"…" / r#"…"#
                Some('"') => {
                    self.bump();
                    self.raw_string_body(hashes);
                    self.push(TokenKind::Str, start, line, col);
                    true
                }
                // r#ident — a raw identifier; lex it as a plain ident.
                Some(c) if hashes == 1 && is_ident_start(c) => {
                    self.bump();
                    self.bump();
                    while let Some(c) = self.peek(0) {
                        if is_ident_continue(c) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Ident, start, line, col);
                    true
                }
                _ => false,
            }
        } else {
            false
        }
    }

    /// Body of a raw string after the `r`/`br` prefix: consumes the
    /// `#…"` opener and everything through the matching `"#…`.
    fn raw_string_body(&mut self, hashes: usize) {
        for _ in 0..hashes {
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
    }

    /// Body of a cooked string starting at the opening quote.
    fn cooked_string_body(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == '"' {
                break;
            }
        }
    }

    fn string_literal(&mut self, line: u32, col: u32) {
        let start = self.pos;
        self.cooked_string_body();
        self.push(TokenKind::Str, start, line, col);
    }

    /// Body of a char literal starting at the opening quote.
    fn char_body(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == '\'' {
                break;
            }
        }
    }

    /// `'a'` is a char literal, `'a` (no closing quote) is a lifetime.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        let start = self.pos;
        // Lifetime: 'ident not followed by a closing quote.
        if self
            .peek(1)
            .map(|c| is_ident_start(c) && c != '\\')
            .unwrap_or(false)
        {
            // Find where the ident run ends; if the next char is ', it
            // was a char literal like 'a'.
            let mut i = 2;
            while self.peek(i).map(is_ident_continue).unwrap_or(false) {
                i += 1;
            }
            if self.peek(i) != Some('\'') {
                self.bump(); // '
                for _ in 1..i {
                    self.bump();
                }
                self.push(TokenKind::Lifetime, start, line, col);
                return;
            }
        }
        self.char_body();
        self.push(TokenKind::Char, start, line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let start = self.pos;
        let mut float = false;
        // Integer part (also covers 0x/0b/0o digits and `_`).
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                // An exponent inside a decimal number marks a float:
                // 1e9, 2.5e-3. Hex digits also include 'e', so only
                // treat it as an exponent when followed by a digit or
                // sign and the literal is not hex.
                if (c == 'e' || c == 'E') && !starts_with_radix_prefix(&self.chars[start..]) {
                    let next = self.peek(1);
                    if matches!(next, Some('+') | Some('-'))
                        && self.peek(2).map(|d| d.is_ascii_digit()).unwrap_or(false)
                    {
                        float = true;
                        self.bump(); // e
                        self.bump(); // sign
                        continue;
                    }
                    if next.map(|d| d.is_ascii_digit()).unwrap_or(false) {
                        float = true;
                    }
                }
                self.bump();
            } else if c == '.' {
                // `1..10` is int + range; `1.max()` is int + method
                // call; `1.5` and trailing `1.` are floats.
                match self.peek(1) {
                    Some('.') => break,
                    Some(d) if is_ident_start(d) => break,
                    _ => {
                        float = true;
                        self.bump();
                    }
                }
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let kind = if float || text.ends_with("f32") || text.ends_with("f64") {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, start, line, col);
    }

    fn operator(&mut self, line: u32, col: u32) {
        let start = self.pos;
        let remaining: String = self.chars.iter().skip(self.pos).take(3).collect();
        for op in OPERATORS {
            if remaining.starts_with(op) {
                for _ in 0..op.chars().count() {
                    self.bump();
                }
                self.push(TokenKind::Punct, start, line, col);
                return;
            }
        }
        self.bump();
        self.push(TokenKind::Punct, start, line, col);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn starts_with_radix_prefix(chars: &[char]) -> bool {
    chars.first() == Some(&'0')
        && matches!(
            chars.get(1),
            Some('x') | Some('X') | Some('b') | Some('B') | Some('o') | Some('O')
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("foo.unwrap()");
        assert_eq!(toks[0], (TokenKind::Ident, "foo".into()));
        assert_eq!(toks[1], (TokenKind::Punct, ".".into()));
        assert_eq!(toks[2], (TokenKind::Ident, "unwrap".into()));
    }

    #[test]
    fn multichar_operators_are_single_tokens() {
        let toks = kinds("a == b != c ..= d :: e");
        let ops: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ops, vec!["==", "!=", "..=", "::"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "x.unwrap() == 0.0";"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || t != "unwrap"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"embedded "quote" here"#; x"###);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
        assert_eq!(toks.last().map(|(_, t)| t.as_str()), Some("x"));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("let c: char = 'a'; fn f<'a>(x: &'a str) {}");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            1
        );
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::Lifetime)
                .count(),
            2
        );
    }

    #[test]
    fn float_vs_int_vs_range() {
        let toks = kinds("0.0 1e-9 2.5f32 42 0..n 0xFF");
        let floats: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, vec!["0.0", "1e-9", "2.5f32"]);
        let ints: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Int)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ints, vec!["42", "0", "0xFF"]);
    }

    #[test]
    fn doc_comments_are_distinguished() {
        let toks = tokenize("/// doc\n// plain\n//! inner\n/** block doc */\n/* plain */");
        let docs: Vec<bool> = toks.iter().map(Token::is_doc_comment).collect();
        assert_eq!(docs, vec![true, false, true, true, false]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ after");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "after".into()));
    }

    #[test]
    fn positions_are_one_based_and_exact() {
        let toks = tokenize("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* open", "r#\"open", "'x", "b\"", "1."] {
            let _ = tokenize(src);
        }
    }
}
