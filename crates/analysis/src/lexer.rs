//! A minimal hand-rolled Rust lexer.
//!
//! The build environment has no registry access, so `dft-analyze` cannot
//! lean on `syn` or `proc-macro2`; instead this module tokenises Rust
//! source just accurately enough for the schema pass: identifiers,
//! punctuation, numeric literals (with float detection), every string
//! shape (plain, raw `r#"…"#`, byte, char — including the char-vs-lifetime
//! ambiguity), and line/nested-block comments, which are skipped.  Tokens
//! carry 1-based line numbers.
//!
//! The lexer is deliberately lossless about *placement* (lines) and lossy
//! about *content* it does not need: string and char literals become a
//! single [`TokenKind::Str`] token with no text, which is exactly what
//! stops `"wire_struct!(…)"` inside a diagnostic message from reading as a
//! declaration.

/// What a token is, as far as the rules need to know.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`self`, `for`, `HashMap`, …).
    Ident,
    /// A lifetime (`'a`) — kept distinct so `'a` never looks like a char.
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e-3`, `1f64`) — the float-arithmetic rule
    /// keys off this.
    Float,
    /// Any string-shaped literal: `"…"`, `r#"…"#`, `b"…"`, `'c'`.
    Str,
    /// One punctuation character (`.`, `:`, `[`, `!`, …).
    Punct(char),
}

/// One token with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Identifier or numeric-literal text (empty for every other kind —
    /// the rules match identifier spellings and the wire-schema parser
    /// reads tag/version literal values).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A lexed file: its token stream (comments, doc comments included, leave
/// no token).
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
}

/// Tokenises `source`.  Unterminated literals and comments are tolerated
/// (the remainder of the file becomes one literal/comment): the analyzer
/// must degrade gracefully on code it cannot parse, never panic.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Lexed,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slices are start..self.pos with pos <= len by the scan loop invariant"
)]
impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    self.string_body('"');
                    self.push(TokenKind::Str, String::new(), line);
                }
                'r' | 'b' if self.raw_or_byte_literal() => {}
                '\'' => self.char_or_lifetime(),
                _ if c == '_' || c.is_alphabetic() => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct(c), String::new(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        // Nested /* */ per the Rust grammar.
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                continue;
            }
            if c == '*' && self.peek(1) == Some('/') {
                self.bump();
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
                continue;
            }
            self.bump();
        }
    }

    /// Consumes a string/char body after the opening delimiter, honouring
    /// backslash escapes, up to `close`.
    fn string_body(&mut self, close: char) {
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == close {
                break;
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `b'…'`.  Returns
    /// false when the leading `r`/`b` is just an identifier start.
    fn raw_or_byte_literal(&mut self) -> bool {
        let line = self.line;
        let mut ahead = 1; // past the r/b
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            ahead = 2;
        }
        // b'x'
        if self.peek(0) == Some('b') && self.peek(1) == Some('\'') {
            self.bump();
            self.bump();
            self.string_body('\'');
            self.push(TokenKind::Str, String::new(), line);
            return true;
        }
        let mut hashes = 0;
        while self.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(ahead + hashes) != Some('"') {
            return false;
        }
        let raw = ahead + hashes > 1 || (ahead == 1 && self.peek(0) == Some('r'));
        for _ in 0..=(ahead + hashes) {
            self.bump(); // prefix, hashes and opening quote
        }
        if raw && self.peek(0).is_some() {
            // Raw string: scan for `"` followed by `hashes` hashes, no
            // escapes.
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for i in 0..hashes {
                        if self.peek(i) != Some('#') {
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
        } else {
            self.string_body('"');
        }
        self.push(TokenKind::Str, String::new(), line);
        true
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the opening quote
        let first = self.peek(0);
        let second = self.peek(1);
        // `'a` / `'static` are lifetimes; `'x'` (ident-ish char followed by
        // a closing quote) and `'\n'` are char literals.
        let is_lifetime =
            matches!(first, Some(f) if f == '_' || f.is_alphabetic()) && second != Some('\'');
        if is_lifetime {
            let start = self.pos;
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    self.bump();
                } else {
                    break;
                }
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            self.push(TokenKind::Lifetime, text, line);
        } else {
            self.string_body('\'');
            self.push(TokenKind::Str, String::new(), line);
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        // `r"` / `b"` literals are routed here only when raw_or_byte_literal
        // declined, so this really is an identifier.
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let radix_prefixed =
            self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('b') | Some('o'));
        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(c) = self.peek(0) {
            match c {
                '0'..='9' | '_' => {
                    self.bump();
                }
                'a'..='f' | 'A'..='F' | 'x' | 'o' if radix_prefixed => {
                    self.bump();
                }
                // `1.0` consumes the dot; `1..n` and `1.max(2)` do not.
                '.' if !saw_dot
                    && !radix_prefixed
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit()) =>
                {
                    saw_dot = true;
                    self.bump();
                }
                'e' | 'E' if !radix_prefixed && !saw_exp => {
                    // Exponent only when followed by digits (else `1e` is a
                    // malformed literal we leave to rustc).
                    let sign = matches!(self.peek(1), Some('+') | Some('-'));
                    let digit_at = if sign { 2 } else { 1 };
                    if self.peek(digit_at).is_some_and(|d| d.is_ascii_digit()) {
                        saw_exp = true;
                        self.bump();
                        if sign {
                            self.bump();
                        }
                    } else {
                        break;
                    }
                }
                // Type suffixes: `1u64`, `1f32` — consume the whole suffix.
                _ if c == '_' || c.is_alphanumeric() => {
                    self.bump();
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let float = !radix_prefixed
            && (saw_dot || saw_exp || text.ends_with("f32") || text.ends_with("f64"));
        // Numeric literals keep their text: the wire-schema parser reads
        // enum tag values (`out.push(3)`, `match r.u8()? { 3 => … }`) and
        // the `WIRE_VERSION` constant out of the token stream.
        self.push(
            if float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            text,
            line,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_punct() {
        let lexed = lex("let x = a.unwrap();");
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["let", "x", "", "a", "", "unwrap", "", "", ""]);
        assert!(lexed.tokens[4].is_punct('.'));
        assert!(lexed.tokens[5].is_ident("unwrap"));
    }

    #[test]
    fn string_contents_are_not_code() {
        // `.unwrap()` inside the string must not produce an `unwrap` ident.
        assert_eq!(idents(r#"warn(".unwrap() is bad")"#), vec!["warn"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        assert_eq!(
            idents(r##"let s = r#"quote " inside, even .unwrap()"#; done"##),
            vec!["let", "s", "done"]
        );
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(idents(r#"f(b"panic!()", b'x')"#), vec!["f"]);
        assert_eq!(idents(r###"g(br##"raw "# bytes"##)"###), vec!["g"]);
    }

    #[test]
    fn comments_are_collected_not_tokenised() {
        assert_eq!(
            idents("// has unwrap in text\nlet x = 1; /* block\nspanning */ y"),
            vec!["let", "x", "y"]
        );
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(
            idents("/* outer /* inner */ still comment */ code"),
            vec!["code"]
        );
    }

    #[test]
    fn doc_comments_hide_examples() {
        // Doctest code must never look like library code to the rules.
        assert_eq!(
            idents("/// let y = x.unwrap();\nfn real() {}"),
            vec!["fn", "real"]
        );
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").tokens;
        let lifetimes: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
    }

    #[test]
    fn escaped_chars_and_quotes() {
        assert_eq!(
            idents(r"let c = '\''; let d = '\\'; after"),
            vec!["let", "c", "let", "d", "after"]
        );
    }

    #[test]
    fn nested_generics_lex_cleanly() {
        // The `>>` at the end must come out as two Punct('>') tokens, and
        // every type name must survive as an ident.
        let names = idents("queues: HashMap<usize, HashMap<usize, Vec<M>>>");
        assert_eq!(
            names,
            vec!["queues", "HashMap", "usize", "HashMap", "usize", "Vec", "M"]
        );
        let ks = kinds(">>");
        assert_eq!(ks, vec![TokenKind::Punct('>'), TokenKind::Punct('>')]);
    }

    #[test]
    fn float_vs_int_vs_range_vs_method() {
        assert_eq!(kinds("1.0"), vec![TokenKind::Float]);
        assert_eq!(kinds("2e-3"), vec![TokenKind::Float]);
        assert_eq!(kinds("1f64"), vec![TokenKind::Float]);
        assert_eq!(kinds("0x1E"), vec![TokenKind::Int]);
        // `0..n` is int, range punct, ident — not a float.
        assert_eq!(
            kinds("0..n"),
            vec![
                TokenKind::Int,
                TokenKind::Punct('.'),
                TokenKind::Punct('.'),
                TokenKind::Ident
            ]
        );
        // `1.max(2)` is a method call on an integer literal.
        assert_eq!(
            kinds("1.max"),
            vec![TokenKind::Int, TokenKind::Punct('.'), TokenKind::Ident]
        );
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        lex("\"unterminated");
        lex("/* unterminated");
        lex("r#\"unterminated");
        lex("'");
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let lexed = lex("a\n\"two\nline string\"\nb");
        let a = &lexed.tokens[0];
        let s = &lexed.tokens[1];
        let b = &lexed.tokens[2];
        assert_eq!((a.line, s.line, b.line), (1, 2, 4));
    }
}
