//! The rule engine: token-level determinism and panic-hygiene checks.
//!
//! Every rule exists because its hazard class can silently break the
//! repo's headline invariant — parallel (`--jobs N`) and sharded
//! (`--shards N`) runs byte-identical to serial — or turn a malformed
//! frame into a process abort.  The dynamic E1–E11 diff suite catches a
//! hazard only when a quick-scale run happens to trip it; these checks
//! catch the whole class at review time.  See `DESIGN.md` §"Determinism
//! invariants" for the rule-by-rule rationale and the split between this
//! static pass and the dynamic diffs.
//!
//! Rules are heuristic by design (a hand-rolled lexer has no type
//! information): they over-approximate, and intentional sites live in
//! `ANALYSIS_baseline.json` with a one-line justification each.

use std::collections::BTreeSet;
use std::path::Path;

use crate::findings::{normalize_snippet, Finding};
use crate::layering;
use crate::lexer::{lex, Token, TokenKind};
use crate::regions::{test_regions, TestRegions};
use crate::schema;
use crate::walk::{self, FileKind, SourceFile};

/// Iteration over `HashMap`/`HashSet` whose order is not locally fixed.
pub const RULE_HASH_ITER: &str = "nondet-hash-iter";
/// Wall-clock sources (`Instant`, `SystemTime`, `UNIX_EPOCH`).
pub const RULE_TIME: &str = "nondet-time";
/// Thread identity (`thread::current()`, `ThreadId`).
pub const RULE_THREAD_ID: &str = "nondet-thread-id";
/// Ambient randomness (`thread_rng`, `OsRng`, `from_entropy`).
pub const RULE_RAND: &str = "nondet-rand";
/// Float arithmetic in protocol logic (`crates/core`).
pub const RULE_FLOAT: &str = "float-protocol";
/// `.unwrap()` in library code.
pub const RULE_UNWRAP: &str = "panic-unwrap";
/// `.expect(…)` in library code.
pub const RULE_EXPECT: &str = "panic-expect";
/// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in library code.
pub const RULE_PANIC_MACRO: &str = "panic-macro";
/// Slice/array indexing in library code (per-file bucket in the baseline).
pub const RULE_INDEX: &str = "index-slicing";
/// Frame decoding that bypasses `open_frame`'s `WIRE_VERSION` check.
pub const RULE_WIRE_VERSION: &str = "wire-version";
/// A wire type (declared or leaf) no test names — unpinned wire format.
pub const RULE_WIRE_UNTESTED: &str = "wire-untested";
/// `#[allow(…)]` without an adjacent justification comment.
pub const RULE_ALLOW: &str = "allow-unjustified";
/// `std::net` / `std::io` / `std::thread` inside a layer the
/// [`crate::layering`] map declares sans-I/O: round semantics must stay
/// pure state transitions, with all I/O and threading owned by the
/// backends.
pub const RULE_SANS_IO: &str = "sans-io-boundary";
/// A first-party crate root without `#![forbid(unsafe_code)]`.
pub const RULE_UNSAFE: &str = "unsafe-forbid";

pub use crate::layering::RULE_LAYER;
pub use crate::schema::RULE_WIRE_HANDWRITTEN;

/// Every rule, for documentation and validation.
pub const RULES: &[&str] = &[
    RULE_HASH_ITER,
    RULE_TIME,
    RULE_THREAD_ID,
    RULE_RAND,
    RULE_FLOAT,
    RULE_UNWRAP,
    RULE_EXPECT,
    RULE_PANIC_MACRO,
    RULE_INDEX,
    RULE_WIRE_VERSION,
    RULE_WIRE_UNTESTED,
    RULE_ALLOW,
    RULE_SANS_IO,
    RULE_LAYER,
    RULE_UNSAFE,
    RULE_WIRE_HANDWRITTEN,
];

/// Methods that iterate a hash collection in allocation order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Analyzes every scannable file under `root` and returns the findings,
/// sorted by `(file, line, rule)`.
///
/// # Errors
///
/// Returns a message for filesystem failures (unreadable tree or file).
pub fn analyze(root: &Path) -> Result<Vec<Finding>, String> {
    let files = walk::discover(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    let mut prepared = Vec::with_capacity(files.len());
    for file in files {
        let bytes = std::fs::read(&file.path)
            .map_err(|e| format!("cannot read {}: {e}", file.path.display()))?;
        let source = String::from_utf8_lossy(&bytes).into_owned();
        prepared.push(Prepared::new(file, source));
    }

    // Pass 1: the wire-coverage corpus — every identifier that appears in
    // test code anywhere in the workspace.
    let mut corpus: BTreeSet<String> = BTreeSet::new();
    for p in &prepared {
        for token in &p.lexed.tokens {
            if token.kind == TokenKind::Ident && p.is_test(token.line) {
                corpus.insert(token.text.clone());
            }
        }
    }

    // Pass 2: per-file rules.
    let mut findings = Vec::new();
    for p in &prepared {
        if p.file.kind != FileKind::Test {
            check_file(p, &mut findings);
        }
    }

    // Pass 3: the wire schema — hand-written composite codecs, and every
    // wire type (declared or leaf) that no test names.
    let extraction = schema::extract_schema(root)
        .map_err(|e| format!("cannot extract wire schema under {}: {e}", root.display()))?;
    findings.extend(extraction.problems);
    for site in extraction.sites {
        if !corpus.contains(&site.name) {
            findings.push(Finding {
                message: format!(
                    "the `Wire` codec of `{0}` has no test naming `{0}` (roundtrip / \
                     version-compat)",
                    site.name
                ),
                file: site.file,
                line: site.line,
                rule: RULE_WIRE_UNTESTED,
                snippet: site.snippet,
            });
        }
    }

    // One deterministic order for the report and every `--json` line,
    // independent of rule registration order.
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// A lexed file with its line table and test regions.
struct Prepared {
    file: SourceFile,
    lines: Vec<String>,
    lexed: crate::lexer::Lexed,
    regions: TestRegions,
}

impl Prepared {
    fn new(file: SourceFile, source: String) -> Self {
        let lexed = lex(&source);
        let regions = test_regions(&lexed.tokens);
        Prepared {
            file,
            lines: source.lines().map(str::to_string).collect(),
            lexed,
            regions,
        }
    }

    fn is_test(&self, line: usize) -> bool {
        self.file.kind == FileKind::Test || self.regions.contains(line)
    }

    fn snippet(&self, line: usize) -> String {
        normalize_snippet(self.lines.get(line.saturating_sub(1)).map_or("", |l| l))
    }

    fn finding(&self, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.file.rel.clone(),
            line,
            rule,
            message,
            snippet: self.snippet(line),
        }
    }
}

fn check_file(p: &Prepared, out: &mut Vec<Finding>) {
    let tokens = &p.lexed.tokens;
    let hash_names = hash_collection_names(tokens);
    let in_core = p.file.rel.starts_with("crates/core/src");
    let lib_code = p.file.kind == FileKind::Lib;
    let is_codec_module = p.file.rel.ends_with("shard/wire.rs");

    // The declared layer map: first-party imports per layer, plus the
    // sans-I/O `std::{net, io, thread}` check in layers marked pure.
    for site in layering::check(&p.file.rel, tokens) {
        if !p.is_test(site.line) {
            out.push(p.finding(site.line, site.rule, site.message));
        }
    }

    // Every first-party crate root forbids `unsafe` outright; the rest of
    // the hazard rules assume it (no raw-pointer escape hatches).
    if is_crate_root(&p.file.rel) && !forbids_unsafe(tokens) {
        out.push(
            p.finding(
                1,
                RULE_UNSAFE,
                "crate root lacks `#![forbid(unsafe_code)]`; first-party code stays safe Rust"
                    .to_string(),
            ),
        );
    }

    for (i, token) in tokens.iter().enumerate() {
        if p.is_test(token.line) {
            continue;
        }
        let line = token.line;
        match token.kind {
            TokenKind::Ident => {
                let name = token.text.as_str();
                // Wall clocks.
                if matches!(name, "Instant" | "SystemTime" | "UNIX_EPOCH") {
                    out.push(p.finding(
                        line,
                        RULE_TIME,
                        format!("`{name}` reads the wall clock; replay is not byte-identical"),
                    ));
                }
                // Thread identity.
                if name == "ThreadId"
                    || (name == "thread" && next_path_segment(tokens, i) == Some("current"))
                {
                    out.push(p.finding(
                        line,
                        RULE_THREAD_ID,
                        "thread identity varies across runs and schedulers".to_string(),
                    ));
                }
                // Ambient randomness.
                if matches!(name, "thread_rng" | "OsRng" | "from_entropy")
                    || (name == "rand" && next_path_segment(tokens, i) == Some("random"))
                {
                    out.push(p.finding(
                        line,
                        RULE_RAND,
                        "unseeded randomness; use the run's seeded ChaCha streams".to_string(),
                    ));
                }
                // Floats in protocol logic.
                if in_core && matches!(name, "f32" | "f64") {
                    out.push(
                        p.finding(
                            line,
                            RULE_FLOAT,
                            "float type in protocol logic; rounding must not steer protocol state"
                                .to_string(),
                        ),
                    );
                }
                // Panic macros.
                if lib_code
                    && matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                    && matches!(tokens.get(i + 1), Some(t) if t.is_punct('!'))
                {
                    out.push(p.finding(
                        line,
                        RULE_PANIC_MACRO,
                        format!("`{name}!` aborts the process in library code"),
                    ));
                }
                // Frame decodes outside the codec module.  `from_bytes(…)`
                // and the turbofish `from_bytes::<T>(…)` both count.
                let from_bytes_call = name == "from_bytes"
                    && (matches!(tokens.get(i + 1), Some(t) if t.is_punct('('))
                        || (tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                            && tokens.get(i + 3).is_some_and(|t| t.is_punct('<'))));
                if !is_codec_module
                    && (from_bytes_call
                        || name == "WireReader" && next_path_segment(tokens, i) == Some("new"))
                {
                    out.push(
                        p.finding(
                            line,
                            RULE_WIRE_VERSION,
                            "frame decode outside `open_frame` skips the WIRE_VERSION check"
                                .to_string(),
                        ),
                    );
                }
                // `for … in <hash collection>`.
                if name == "for" {
                    if let Some(hash_name) = for_loop_over_hash(tokens, i, &hash_names) {
                        out.push(p.finding(
                            line,
                            RULE_HASH_ITER,
                            format!("`for … in {hash_name}` iterates in allocation order"),
                        ));
                    }
                }
            }
            TokenKind::Float if in_core => {
                out.push(
                    p.finding(
                        line,
                        RULE_FLOAT,
                        "float literal in protocol logic; rounding must not steer protocol state"
                            .to_string(),
                    ),
                );
            }
            TokenKind::Punct('.') => {
                // `<hash collection>.iter()` and friends; `.unwrap()`;
                // `.expect(…)`.
                let Some(method) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                    continue;
                };
                let called = matches!(tokens.get(i + 2), Some(t) if t.is_punct('('));
                if !called {
                    continue;
                }
                if HASH_ITER_METHODS.contains(&method.text.as_str())
                    && !iteration_is_locally_sorted(tokens, i)
                {
                    if let Some(recv) = tokens.get(i.wrapping_sub(1)) {
                        if recv.kind == TokenKind::Ident && hash_names.contains(&recv.text) {
                            out.push(p.finding(
                                line,
                                RULE_HASH_ITER,
                                format!(
                                    "`{}.{}()` iterates a hash collection in allocation order",
                                    recv.text, method.text
                                ),
                            ));
                        }
                    }
                }
                if lib_code && matches!(method.text.as_str(), "unwrap" | "unwrap_err") {
                    out.push(p.finding(
                        line,
                        RULE_UNWRAP,
                        format!(
                            "`.{}()` in library code; return an error or `.expect(…)` a named \
                             invariant",
                            method.text
                        ),
                    ));
                }
                if lib_code && matches!(method.text.as_str(), "expect" | "expect_err") {
                    out.push(p.finding(
                        line,
                        RULE_EXPECT,
                        format!(
                            "`.{}(…)` in library code; panics must be baselined invariants",
                            method.text
                        ),
                    ));
                }
            }
            // Indexing: `expr[…]` — `[` directly after an identifier, `)`
            // or `]`.  Attributes (`#[…]`), macro brackets (`vec![…]`),
            // types and array literals are preceded by other punctuation
            // and never match.
            TokenKind::Punct('[')
                if lib_code
                    && matches!(
                        tokens.get(i.wrapping_sub(1)),
                        Some(prev) if i > 0
                            && (prev.kind == TokenKind::Ident && !is_keyword(&prev.text)
                                || prev.is_punct(')')
                                || prev.is_punct(']'))
                    ) =>
            {
                out.push(p.finding(
                    line,
                    RULE_INDEX,
                    "slice indexing panics when out of bounds".to_string(),
                ));
            }
            TokenKind::Punct('#') => {
                // `#[allow(…)]` / `#![allow(…)]` justification audit.
                if let Some(attr_line) = unjustified_allow(p, tokens, i) {
                    out.push(p.finding(
                        attr_line,
                        RULE_ALLOW,
                        "`#[allow(…)]` without an adjacent justification comment".to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = …`, `return [x]`, `in [..]`, …).
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "let" | "return" | "in" | "else" | "match" | "if" | "while" | "break" | "mut" | "ref"
    )
}

/// If `tokens[i]` starts a `name::segment` path, returns the segment.
fn next_path_segment(tokens: &[Token], i: usize) -> Option<&str> {
    if tokens.get(i + 1)?.is_punct(':') && tokens.get(i + 2)?.is_punct(':') {
        let seg = tokens.get(i + 3)?;
        if seg.kind == TokenKind::Ident {
            return Some(&seg.text);
        }
    }
    None
}

/// Identifiers declared as `HashMap`/`HashSet` in this file: annotated
/// bindings/fields/params (`name: [path::]HashMap<…>`) and constructor
/// assignments (`name = HashMap::new()`).
fn hash_collection_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, token) in tokens.iter().enumerate() {
        if !(token.is_ident("HashMap") || token.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std :: collections ::` path prefix.
        let mut k = i;
        while k >= 3
            && tokens[k - 1].is_punct(':')
            && tokens[k - 2].is_punct(':')
            && tokens[k - 3].kind == TokenKind::Ident
        {
            k -= 3;
        }
        if k == 0 {
            continue;
        }
        let before = &tokens[k - 1];
        // `name : HashMap` (field, binding or parameter annotation) — a
        // single colon, not a path separator.
        if before.is_punct(':')
            && k >= 2
            && !tokens[k - 2].is_punct(':')
            && tokens[k - 2].kind == TokenKind::Ident
        {
            names.insert(tokens[k - 2].text.clone());
        }
        // `name = HashMap::…(…)` (constructor assignment).
        if before.is_punct('=') && k >= 2 && tokens[k - 2].kind == TokenKind::Ident {
            names.insert(tokens[k - 2].text.clone());
        }
    }
    names
}

/// For a `for` token at `i`, returns the hash-collection name iterated
/// over, if the `in` expression mentions one.
fn for_loop_over_hash(tokens: &[Token], i: usize, names: &BTreeSet<String>) -> Option<String> {
    // `for<'a>` in higher-ranked bounds is not a loop.
    if matches!(tokens.get(i + 1), Some(t) if t.is_punct('<')) {
        return None;
    }
    // Find the pattern's `in`, then scan the iterable expression up to the
    // loop body's `{` (paren/bracket depth tracked so closures and index
    // expressions do not end the scan early).
    let mut j = i + 1;
    while j < tokens.len() && !tokens[j].is_ident("in") {
        if tokens[j].is_punct('{') || tokens[j].is_punct(';') || j > i + 40 {
            return None; // malformed or not actually a loop header
        }
        j += 1;
    }
    let mut depth = 0i32;
    let mut k = j + 1;
    while let Some(t) = tokens.get(k) {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('{') if depth == 0 => return None,
            // `for i in 0..queues.len()` is not map iteration: a method
            // call on the collection is judged by the method rule instead,
            // so only a *bare* mention (`for x in &queues {`) counts here.
            TokenKind::Ident
                if names.contains(&t.text)
                    && !matches!(tokens.get(k + 1), Some(next) if next.is_punct('.')) =>
            {
                return Some(t.text.clone());
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Chain consumers whose result cannot depend on iteration order.
const ORDER_INSENSITIVE_SINKS: &[&str] = &["sum", "count", "min", "max", "all", "any"];

/// Whether the hash-collection iteration whose `.` token is at `dot` is a
/// locally-sorted (or order-insensitive) context:
///
/// * the statement's chain ends in an order-insensitive reduction
///   (`.sum()`, `.count()`, …);
/// * the chain collects into an ordered collection (`BTreeMap`/`BTreeSet`,
///   in a turbofish or in the binding's type annotation);
/// * the statement binds a name (`let mut v = map.keys()….collect();`) that
///   is sorted shortly after (`v.sort…()`).
fn iteration_is_locally_sorted(tokens: &[Token], dot: usize) -> bool {
    // Statement start: walk back to the nearest `;`, `{` or `}`.  A `let
    // [mut] name` right after it is the binding; `BTree` anywhere in the
    // lookback span is an ordered type annotation.
    let mut start = dot;
    while start > 0 {
        let t = &tokens[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    let mut binding: Option<&str> = None;
    if tokens.get(start).is_some_and(|t| t.is_ident("let")) {
        let name = match tokens.get(start + 1) {
            Some(t) if t.is_ident("mut") => tokens.get(start + 2),
            other => other,
        };
        if let Some(t) = name.filter(|t| t.kind == TokenKind::Ident) {
            binding = Some(&t.text);
        }
    }
    let annotated_ordered = tokens[start..dot]
        .iter()
        .any(|t| t.text.starts_with("BTree"));

    // Forward over the rest of the chain, to the statement's `;` (or an
    // opening `{` at depth 0 — e.g. the chain is a `for` iterable).
    let mut depth = 0i32;
    let mut k = dot;
    let mut end = tokens.len();
    while let Some(t) = tokens.get(k) {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct(';') if depth <= 0 => {
                end = k;
                break;
            }
            TokenKind::Punct('{') if depth <= 0 => {
                end = k;
                break;
            }
            TokenKind::Punct('.') if depth == 0 => {
                if let Some(m) = tokens.get(k + 1).filter(|t| t.kind == TokenKind::Ident) {
                    if ORDER_INSENSITIVE_SINKS.contains(&m.text.as_str()) {
                        return true;
                    }
                    if m.text == "collect" {
                        // `collect::<BTreeSet<_>>()` or an annotated `let`.
                        let turbofish_ordered = tokens[k..tokens.len().min(k + 8)]
                            .iter()
                            .any(|t| t.text.starts_with("BTree"));
                        if turbofish_ordered || annotated_ordered {
                            return true;
                        }
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }

    // `let mut v = …collect();` followed closely by `v.sort…()`.
    if let Some(name) = binding {
        let horizon = tokens.len().min(end + 120);
        for k in end..horizon {
            if tokens[k].is_ident(name)
                && tokens.get(k + 1).is_some_and(|t| t.is_punct('.'))
                && tokens
                    .get(k + 2)
                    .is_some_and(|t| t.text.starts_with("sort"))
            {
                return true;
            }
        }
    }
    false
}

/// Whether `rel` is a crate root: the workspace's own `src/lib.rs`, a
/// member crate's `src/lib.rs` / `src/main.rs`, or a `src/bin/` target.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || rel.contains("/src/bin/")
}

/// Whether the tokens contain a `forbid(unsafe_code)` attribute (the
/// crate-root `#![forbid(unsafe_code)]` form).
fn forbids_unsafe(tokens: &[Token]) -> bool {
    tokens.iter().enumerate().any(|(i, t)| {
        t.is_ident("forbid")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("unsafe_code"))
    })
}

/// For a `#` token at `i` opening an `allow` attribute, returns the
/// attribute's line when no comment sits on it or the line above.
fn unjustified_allow(p: &Prepared, tokens: &[Token], i: usize) -> Option<usize> {
    let mut k = i + 1;
    if matches!(tokens.get(k), Some(t) if t.is_punct('!')) {
        k += 1;
    }
    if !matches!(tokens.get(k), Some(t) if t.is_punct('[')) {
        return None;
    }
    if !matches!(tokens.get(k + 1), Some(t) if t.is_ident("allow")) {
        return None;
    }
    let line = tokens[i].line;
    let justified = [line, line.saturating_sub(1)]
        .iter()
        .any(|l| has_prose_comment(p, *l));
    if justified {
        None
    } else {
        Some(line)
    }
}

/// Whether the comment on `line` contains actual prose (at least one word
/// of three or more letters — `// x` does not count as a justification).
fn has_prose_comment(p: &Prepared, line: usize) -> bool {
    p.lexed.comments.get(&line).is_some_and(|text| {
        text.split(|c: char| !c.is_alphabetic())
            .any(|word| word.len() >= 3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(src: &str) -> BTreeSet<String> {
        hash_collection_names(&lex(src).tokens)
    }

    #[test]
    fn hash_names_from_annotations_and_constructors() {
        let found = names(
            "struct S { queues: HashMap<usize, Vec<M>> }\n\
             fn f(seen: std::collections::HashSet<u64>) {\n\
                 let mut cache = HashMap::new();\n\
                 let sorted: BTreeMap<u32, u32> = BTreeMap::new();\n\
             }",
        );
        assert!(found.contains("queues"));
        assert!(found.contains("seen"));
        assert!(found.contains("cache"));
        assert!(!found.contains("sorted"), "BTreeMap is deterministic");
    }

    #[test]
    fn path_separator_is_not_an_annotation() {
        // `collections::HashMap` must not record `collections`.
        let found = names("use std::collections::HashMap;");
        assert!(found.is_empty());
    }

    fn sorted_at(src: &str) -> bool {
        let toks = lex(src).tokens;
        let dot = toks
            .iter()
            .enumerate()
            .position(|(k, t)| {
                t.is_punct('.')
                    && toks
                        .get(k + 1)
                        .is_some_and(|m| HASH_ITER_METHODS.contains(&m.text.as_str()))
            })
            .expect("an iteration method in the source");
        iteration_is_locally_sorted(&toks, dot)
    }

    #[test]
    fn order_insensitive_sinks_are_locally_sorted() {
        assert!(sorted_at(
            "let n = self.queues.values().map(HashMap::len).sum();"
        ));
        assert!(sorted_at("if seen.iter().any(|v| *v > 3) { x(); }"));
        assert!(!sorted_at("let v: Vec<_> = map.keys().collect();"));
        assert!(!sorted_at("for v in map.values() { emit(v); }"));
    }

    #[test]
    fn ordered_collects_are_locally_sorted() {
        assert!(sorted_at(
            "let ks = map.keys().copied().collect::<BTreeSet<u64>>();"
        ));
        assert!(sorted_at(
            "let ks: BTreeSet<u64> = map.keys().copied().collect();"
        ));
        assert!(!sorted_at(
            "let ks: HashSet<u64> = map.keys().copied().collect();"
        ));
    }

    #[test]
    fn collect_then_sort_is_locally_sorted() {
        assert!(sorted_at(
            "let mut ks: Vec<u64> = map.keys().copied().collect();\nks.sort_unstable();"
        ));
        assert!(!sorted_at(
            "let mut ks: Vec<u64> = map.keys().copied().collect();\nks.reverse();"
        ));
    }
}
