//! Test-region detection: which lines of a file are test code.
//!
//! A codec declared inside test code is not part of the wire schema, and an
//! identifier inside test code is evidence that a wire type is tested, so
//! the schema pass must know where `#[cfg(test)]` modules and `#[test]`
//! functions live.  Detection is token-based (comments and strings can
//! never open a region) and brace-matched: an attribute marking a test item
//! covers everything from the attribute's line to the item's closing brace.
//!
//! Whole files can also be test code: integration-test trees (`tests/`
//! directories) and `tests.rs` modules included via `#[cfg(test)] mod
//! tests;` are classified by path in [`crate::walk`], not here.

use crate::lexer::{Token, TokenKind};

/// Inclusive line ranges that are test code.
#[derive(Debug, Default)]
pub struct TestRegions {
    ranges: Vec<(usize, usize)>,
}

impl TestRegions {
    /// Whether `line` (1-based) falls inside any test region.
    pub fn contains(&self, line: usize) -> bool {
        self.ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }
}

/// Finds the test regions of a token stream.
#[expect(
    clippy::indexing_slicing,
    reason = "the token cursor is guarded by explicit `< tokens.len()` checks in the same \
              expression or loop head"
)]
pub fn test_regions(tokens: &[Token]) -> TestRegions {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        let mut j = i + 1;
        let inner = j < tokens.len() && tokens[j].is_punct('!');
        if inner {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('[') {
            i += 1;
            continue;
        }
        let Some((names, end)) = attribute_idents(tokens, j) else {
            i += 1;
            continue;
        };
        i = end + 1;
        if !is_test_attribute(&names) {
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            ranges.push((1, usize::MAX));
            continue;
        }
        if let Some(close_line) = item_end_line(tokens, i) {
            ranges.push((attr_line, close_line));
        }
    }
    TestRegions { ranges }
}

/// Collects the identifiers inside the attribute whose `[` is at `open`,
/// returning them plus the index of the matching `]`.
fn attribute_idents(tokens: &[Token], open: usize) -> Option<(Vec<&str>, usize)> {
    let mut depth = 0usize;
    let mut names = Vec::new();
    for (k, token) in tokens.iter().enumerate().skip(open) {
        match token.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((names, k));
                }
            }
            TokenKind::Ident => names.push(token.text.as_str()),
            _ => {}
        }
    }
    None
}

/// Whether an attribute's identifier list marks a test item: `#[test]`
/// (with or without qualifiers like `tokio::test`) or `#[cfg(test)]` — but
/// not `#[cfg(not(test))]`, which marks *production-only* code.
fn is_test_attribute(names: &[&str]) -> bool {
    match names.first() {
        Some(&"test") => true,
        Some(&"cfg") => names.contains(&"test") && !names.contains(&"not"),
        _ => names.last() == Some(&"test"),
    }
}

/// Finds the line of the `}` closing the item that starts after an
/// attribute at token index `from`.  Returns `None` for brace-less items
/// (`#[cfg(test)] mod tests;` — the out-of-line file is handled by path).
#[expect(
    clippy::indexing_slicing,
    reason = "the token cursor is guarded by explicit `< tokens.len()` checks in the same \
              expression or loop head"
)]
fn item_end_line(tokens: &[Token], from: usize) -> Option<usize> {
    let mut k = from;
    // Skip any further attributes between the test attribute and the item.
    while k < tokens.len() && tokens[k].is_punct('#') {
        if k + 1 < tokens.len() && tokens[k + 1].is_punct('[') {
            let (_, end) = attribute_idents(tokens, k + 1)?;
            k = end + 1;
        } else {
            break;
        }
    }
    // Find the item's opening brace; a `;` first means there is no body.
    while k < tokens.len() {
        match tokens[k].kind {
            TokenKind::Punct(';') => return None,
            TokenKind::Punct('{') => break,
            _ => k += 1,
        }
    }
    let mut depth = 0usize;
    while k < tokens.len() {
        match tokens[k].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(tokens[k].line);
                }
            }
            _ => {}
        }
        k += 1;
    }
    // Unbalanced braces: treat the region as running to end of file rather
    // than silently scanning test code with production rules.
    Some(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions(src: &str) -> TestRegions {
        test_regions(&lex(src).tokens)
    }

    #[test]
    fn cfg_test_module_is_a_region() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn lib2() {}\n";
        let r = regions(src);
        assert!(!r.contains(1));
        assert!(r.contains(2));
        assert!(r.contains(4));
        assert!(r.contains(5));
        assert!(!r.contains(6));
    }

    #[test]
    fn test_fn_is_a_region() {
        let src = "#[test]\nfn t() {\n  body();\n}\nfn prod() {}\n";
        let r = regions(src);
        assert!(r.contains(3));
        assert!(!r.contains(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let r = regions("#[cfg(not(test))]\nfn prod() {\n  body();\n}\n");
        assert!(!r.contains(2));
    }

    #[test]
    fn modless_cfg_test_declaration_has_no_region() {
        let r = regions("#[cfg(test)]\nmod tests;\nfn prod() {}\n");
        assert!(!r.contains(3));
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let r = regions("#![cfg(test)]\nfn anything() {}\n");
        assert!(r.contains(1));
        assert!(r.contains(999));
    }

    #[test]
    fn stacked_attributes_before_the_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n  fn x() {}\n}\n";
        assert!(regions(src).contains(4));
    }

    #[test]
    fn braces_in_strings_do_not_end_regions() {
        let src =
            "#[cfg(test)]\nmod tests {\n  const S: &str = \"}\";\n  fn x() {}\n}\nfn prod() {}\n";
        let r = regions(src);
        assert!(r.contains(4));
        assert!(!r.contains(6));
    }
}
