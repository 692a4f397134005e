//! A recursive-descent layer over the token stream: bracket-matched token
//! trees, `impl Wire for T` discovery, and the literal/constant readers the
//! structural analyses need.
//!
//! The lexer ([`crate::lexer`]) stays deliberately flat; this module adds
//! just enough structure on top for the wire-schema analysis:
//! a [`Tree`] is either a single token or a `(…)` / `[…]` / `{…}` group of
//! trees, so "the body of this `fn`" or "the arms of this `match`" become
//! slice walks instead of index arithmetic.  Like the lexer, everything
//! here degrades gracefully on malformed input — a stray closing bracket
//! ends the innermost open group, and an unclosed group runs to end of
//! file — because the analyzer must never panic on code it cannot parse.

use crate::lexer::{Token, TokenKind};

/// One node of the bracket-matched parse: a token, or a delimited group.
#[derive(Clone, Debug)]
pub enum Tree {
    /// A single non-bracket token.
    Leaf(Token),
    /// A `(…)`, `[…]` or `{…}` group.
    Group {
        /// The opening delimiter: `(`, `[` or `{`.
        open: char,
        /// 1-based line of the opening delimiter.
        line: usize,
        /// The trees between the delimiters.
        trees: Vec<Tree>,
    },
}

impl Tree {
    /// The 1-based source line this tree starts on.
    pub fn line(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group { line, .. } => *line,
        }
    }

    /// Whether this tree is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tree::Leaf(t) if t.is_ident(name))
    }

    /// Whether this tree is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Leaf(t) if t.is_punct(c))
    }

    /// The identifier text, if this is an identifier leaf.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) if t.kind == TokenKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// The contained trees, if this is a group opened by `open`.
    pub fn group(&self, want: char) -> Option<&[Tree]> {
        match self {
            Tree::Group { open, trees, .. } if *open == want => Some(trees),
            _ => None,
        }
    }
}

/// Parses a token stream into bracket-matched trees.
pub fn parse(tokens: &[Token]) -> Vec<Tree> {
    let mut pos = 0;
    let mut top = Vec::new();
    while pos < tokens.len() {
        match parse_one(tokens, &mut pos, None) {
            Some(tree) => top.push(tree),
            // A stray closer at top level: consume and drop it.
            None => pos += 1,
        }
    }
    top
}

/// The delimiter that closes a group opened by `open`.
pub fn closer_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Parses one tree at `pos`, or returns `None` (without consuming) when the
/// next token closes the enclosing group — including a *mismatched* closer,
/// which ends every group up to the one it actually matches.
fn parse_one(tokens: &[Token], pos: &mut usize, close: Option<char>) -> Option<Tree> {
    let token = tokens.get(*pos)?;
    match token.kind {
        TokenKind::Punct(open @ ('(' | '[' | '{')) => {
            let line = token.line;
            *pos += 1;
            let want = closer_of(open);
            let mut trees = Vec::new();
            while let Some(next) = tokens.get(*pos) {
                if let TokenKind::Punct(c @ (')' | ']' | '}')) = next.kind {
                    if c == want {
                        *pos += 1; // the matching closer
                    }
                    // A mismatched closer stays put for an outer group.
                    break;
                }
                match parse_one(tokens, pos, Some(want)) {
                    Some(tree) => trees.push(tree),
                    None => break,
                }
            }
            Some(Tree::Group { open, line, trees })
        }
        TokenKind::Punct(')' | ']' | '}') if close.is_some() => None,
        _ => {
            *pos += 1;
            Some(Tree::Leaf(token.clone()))
        }
    }
}

/// Evaluates a Rust integer-literal's text (`42`, `0xFF`, `1_000u64`).
pub fn int_value(text: &str) -> Option<u64> {
    let mut clean: String = text.chars().filter(|c| *c != '_').collect();
    // Type suffixes start with `u`/`i`, which are never digits in any radix
    // the lexer accepts, so suffix stripping cannot eat literal digits.
    for suffix in [
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ] {
        if clean.len() > suffix.len() && clean.ends_with(suffix) {
            clean.truncate(clean.len() - suffix.len());
            break;
        }
    }
    let (radix, digits) = match clean.split_at_checked(2) {
        Some(("0x" | "0X", rest)) => (16, rest),
        Some(("0b" | "0B", rest)) => (2, rest),
        Some(("0o" | "0O", rest)) => (8, rest),
        _ => (10, clean.as_str()),
    };
    u64::from_str_radix(digits, radix).ok()
}

/// The canonical type name for a tuple impl of the given arity: `Unit` for
/// `()`, `Tuple2` for `(A, B)`, and so on — the name a test must use for a
/// tuple codec.
fn tuple_type_name(arity: usize) -> String {
    if arity == 0 {
        "Unit".to_string()
    } else {
        format!("Tuple{arity}")
    }
}

/// One `impl Wire for T` block (including qualified trait paths like
/// `impl dft_sim::shard::Wire for T` and tuple impls).
#[derive(Clone, Debug)]
pub struct WireImpl {
    /// Canonical implemented-type name (`NodeId`, `Vec`, `Tuple2`, …).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
}

/// Collects every `impl … Wire for T` in the trees, recursing into module
/// bodies.  `is_test` filters out impls inside test regions by line.
pub fn wire_impls(trees: &[Tree], is_test: &dyn Fn(usize) -> bool) -> Vec<WireImpl> {
    let mut out = Vec::new();
    collect_impls(trees, is_test, &mut out);
    out
}

fn collect_impls(trees: &[Tree], is_test: &dyn Fn(usize) -> bool, out: &mut Vec<WireImpl>) {
    let mut i = 0;
    while let Some(tree) = trees.get(i) {
        if tree.is_ident("impl") && !is_test(tree.line()) {
            if let Some((imp, next)) = parse_wire_impl(trees, i) {
                out.push(imp);
                i = next;
                continue;
            }
        }
        if let Tree::Group { trees: inner, .. } = tree {
            collect_impls(inner, is_test, out);
        }
        i += 1;
    }
}

/// Parses an impl header starting at the `impl` keyword at `i`.  Returns
/// the impl and the index just past its body when it is a `Wire` impl.
fn parse_wire_impl(trees: &[Tree], i: usize) -> Option<(WireImpl, usize)> {
    let line = trees.get(i)?.line();
    let mut k = i + 1;
    skip_generics(trees, &mut k);
    // The trait path: identifiers and `::`, ending at `for`.  The impl is
    // interesting only when the path's last segment is `Wire`.
    let mut last_segment: Option<&str> = None;
    loop {
        let tree = trees.get(k)?;
        if tree.is_ident("for") {
            break;
        }
        match tree {
            Tree::Leaf(t) if t.kind == TokenKind::Ident => last_segment = Some(&t.text),
            Tree::Leaf(t) if t.is_punct(':') => {}
            // Anything else (an inherent impl's `{`, generics on the trait,
            // lifetimes) — not the shape we are after.
            _ => return None,
        }
        k += 1;
    }
    if last_segment != Some("Wire") {
        return None;
    }
    k += 1; // past `for`
    let type_name = parse_self_type(trees, &mut k)?;
    // The body is the next `{` group.
    loop {
        let tree = trees.get(k)?;
        if tree.group('{').is_some() {
            return Some((WireImpl { type_name, line }, k + 1));
        }
        k += 1;
    }
}

/// Skips `<…>` impl generics at `k` (if present), leaving `k` just past
/// the closing `>`.
fn skip_generics(trees: &[Tree], k: &mut usize) {
    if !trees.get(*k).is_some_and(|t| t.is_punct('<')) {
        return;
    }
    let mut depth = 0usize;
    while let Some(tree) = trees.get(*k) {
        *k += 1;
        if tree.is_punct('<') {
            depth += 1;
        } else if tree.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return;
            }
        }
    }
}

/// Parses the implemented type at `k` (after `for`), producing its
/// canonical name: tuples become `Unit` / `Tuple2` / …, paths keep their
/// last segment, and generic arguments are dropped (`Outgoing<M>` →
/// `Outgoing`).
fn parse_self_type(trees: &[Tree], k: &mut usize) -> Option<String> {
    if let Some(elems) = trees.get(*k).and_then(|t| t.group('(')) {
        *k += 1;
        return Some(tuple_type_name(tuple_arity(elems)));
    }
    let mut last: Option<String> = None;
    let mut depth = 0usize;
    while let Some(tree) = trees.get(*k) {
        match tree {
            Tree::Leaf(t) if t.is_punct('<') => depth += 1,
            Tree::Leaf(t) if t.is_punct('>') => depth = depth.saturating_sub(1),
            Tree::Leaf(t) if t.kind == TokenKind::Ident && depth == 0 => {
                if t.text == "where" {
                    break;
                }
                last = Some(t.text.clone());
            }
            Tree::Group { open: '{', .. } => break,
            _ => {}
        }
        *k += 1;
    }
    last
}

/// Number of elements in a tuple type's tree list (`()` → 0, `(A, B)` → 2),
/// tolerating trailing commas.
fn tuple_arity(elems: &[Tree]) -> usize {
    let mut arity = 0;
    let mut in_element = false;
    for tree in elems {
        if tree.is_punct(',') {
            in_element = false;
        } else if !in_element {
            arity += 1;
            in_element = true;
        }
    }
    arity
}

/// The workspace's `WIRE_VERSION` constant (`pub const WIRE_VERSION: u16 =
/// N;`), if this token stream declares it.
pub fn wire_version_const(tokens: &[Token]) -> Option<u64> {
    for (i, token) in tokens.iter().enumerate() {
        if !token.is_ident("WIRE_VERSION") {
            continue;
        }
        if i == 0 || !tokens.get(i - 1).is_some_and(|t| t.is_ident("const")) {
            continue;
        }
        for k in i + 1..tokens.len().min(i + 8) {
            if !tokens.get(k).is_some_and(|t| t.is_punct('=')) {
                continue;
            }
            if let Some(value) = tokens.get(k + 1) {
                if value.kind == TokenKind::Int {
                    return int_value(&value.text);
                }
            }
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn trees(src: &str) -> Vec<Tree> {
        parse(&lex(src).tokens)
    }

    fn impls(src: &str) -> Vec<WireImpl> {
        wire_impls(&trees(src), &|_| false)
    }

    #[test]
    fn groups_nest_and_tolerate_mismatches() {
        let t = trees("fn f(a: &[u8]) { g(x); }");
        assert_eq!(t.len(), 4, "fn, f, params, body");
        assert!(t[3].group('{').is_some());
        // Malformed input must not panic and must keep later trees.
        let t = trees(") } after");
        assert!(t.iter().any(|t| t.is_ident("after")));
        let t = trees("( [ ) after");
        assert!(!t.is_empty());
    }

    #[test]
    fn int_values() {
        assert_eq!(int_value("42"), Some(42));
        assert_eq!(int_value("0xFF"), Some(255));
        assert_eq!(int_value("0b101"), Some(5));
        assert_eq!(int_value("1_000u64"), Some(1000));
        assert_eq!(int_value("7usize"), Some(7));
        assert_eq!(int_value("0xAu8"), Some(10));
        assert_eq!(int_value("banana"), None);
    }

    #[test]
    fn finds_plain_and_generic_impls() {
        let found = impls(
            "impl Wire for NodeId { fn encode(&self, out: &mut Vec<u8>) {} }\n\
             impl<M: Wire> Wire for Outgoing<M> { fn decode(r: &mut WireReader<'_>) -> X { todo() } }",
        );
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].type_name, "NodeId");
        assert_eq!(found[1].type_name, "Outgoing");
    }

    #[test]
    fn finds_qualified_tuple_and_nested_impls() {
        let found = impls(
            "impl dft_sim::shard::Wire for SignedValue { }\n\
             impl Wire for () { }\n\
             impl<A: Wire, B: Wire> Wire for (A, B) { }\n\
             mod wire_impls { impl Wire for RumorMap { } }\n\
             impl Display for NotWire { }",
        );
        let names: Vec<&str> = found.iter().map(|i| i.type_name.as_str()).collect();
        assert_eq!(names, vec!["SignedValue", "Unit", "Tuple2", "RumorMap"]);
    }

    #[test]
    fn bounded_generics_are_skipped() {
        let found = impls("impl<V: JoinValue + Wire> Wire for AeaMsg<Box<V>> { }");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].type_name, "AeaMsg");
    }

    #[test]
    fn test_regions_are_excluded() {
        let lexed = lex("impl Wire for Real { }\nimpl Wire for TestOnly { }");
        let found = wire_impls(&parse(&lexed.tokens), &|line| line == 2);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].type_name, "Real");
    }

    #[test]
    fn wire_version_is_read_from_the_const() {
        let lexed = lex("pub const WIRE_VERSION: u16 = 7;\n\
             fn check(v: u16) -> bool { v != WIRE_VERSION }");
        assert_eq!(wire_version_const(&lexed.tokens), Some(7));
        assert_eq!(
            wire_version_const(&lex("let x = WIRE_VERSION;").tokens),
            None
        );
    }
}
