//! Wire-schema extraction: the declared layouts, dumped and ratcheted.
//!
//! The shard wire format is the one contract tying serial runs, `--shards`
//! workers and the `dft-node` TCP cluster to byte-identical decision
//! tables.  A type made of fields or of tagged variants declares its layout
//! once, with `wire_struct!` / `wire_enum!` (`dft_sim::shard::wire`), and
//! the compiler derives both `encode` and `decode` from that list — so the
//! two directions agreeing, every field and variant being on the wire, and
//! every nested type having a codec are compile errors, not findings.  What
//! is left for this pass:
//!
//! * record every declaration as its `decl`: the invocation's own tokens,
//!   canonically spaced — `Outgoing<M: Wire> { to: NodeId, msg: M }`,
//!   `AeaMsg<V: JoinValue + Wire> { 0 = Rumor(V), 1 = Decision(V) }` — so
//!   the schema is the declaration itself (order, tags, generic arguments
//!   and bounds included), not a rendering that could lose part of it;
//! * list the hand-written leaf codecs the declarations bottom out in
//!   (`LEAVES`) with `decl: "leaf"` — their byte layout is pinned by the
//!   golden-bytes tests next to them, not by this file;
//! * report any other hand-written `impl Wire for T` as
//!   [`RULE_WIRE_HANDWRITTEN`], so "every composite type is declared once"
//!   is itself enforced;
//! * report every entry, declared or leaf, whose name no test mentions as
//!   [`RULE_WIRE_UNTESTED`]: a codec nothing round-trips is an unpinned
//!   wire format.
//!
//! Neither problem has an exception mechanism; both fail the run whatever
//! the committed file says.  The schema itself is committed as
//! `WIRE_SCHEMA.json` and ratcheted: a change without a `WIRE_VERSION` bump
//! fails `dft-analyze schema --ci`, turning a wire-format break from silent
//! cross-process corruption into an explicit reviewed event.  See DESIGN.md
//! §"Wire schema ratchet".

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::findings::{normalize_snippet, Finding};
use crate::json::{self, Json};
use crate::lexer::{lex, TokenKind};
use crate::parser::{self, Tree};
use crate::regions::test_regions;
use crate::walk::{self, FileKind};

/// Rule identifier for a composite `Wire` impl written by hand.
pub const RULE_WIRE_HANDWRITTEN: &str = "wire-handwritten";
/// Rule identifier for a wire type (declared or leaf) no test names.
pub const RULE_WIRE_UNTESTED: &str = "wire-untested";

/// The `"schema"` format number of `WIRE_SCHEMA.json` this module writes
/// and reads.
const FORMAT: usize = 2;

/// The hand-written codecs, by file: primitives and containers, the memo
/// cell that is deliberately not on the wire, the two identifier newtypes
/// whose fields are private to their modules, and the two value types whose
/// decoders bound allocations and accept only canonical forms.  Everything
/// else is declared.
const LEAVES: &[(&str, &[&str])] = &[
    (
        "crates/sim/src/shard/wire.rs",
        &[
            "Unit", "bool", "u8", "u16", "u32", "u64", "usize", "Vec", "Tuple2", "Tuple3", "Arc",
            "OnceLock", "NodeId", "Round",
        ],
    ),
    ("crates/core/src/wire.rs", &["BitVector", "ExtantSet"]),
];

// ---------------------------------------------------------------------------
// Reading declarations
// ---------------------------------------------------------------------------

/// One `wire_struct!(…)` / `wire_enum!(…)` invocation, or a leaf impl.
struct Declaration {
    name: String,
    line: usize,
    decl: String,
}

/// Collects every declaration in the trees, recursing into module bodies.
/// The macros' own recursive calls (`wire_enum!(@variant …)`) do not open
/// with a type name and are skipped.
fn declarations(trees: &[Tree], is_test: &dyn Fn(usize) -> bool, out: &mut Vec<Declaration>) {
    for (i, tree) in trees.iter().enumerate() {
        if let Tree::Group { trees: inner, .. } = tree {
            declarations(inner, is_test, out);
            continue;
        }
        if !(tree.is_ident("wire_enum") || tree.is_ident("wire_struct")) || is_test(tree.line()) {
            continue;
        }
        if !trees.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        let Some(Tree::Group { trees: args, .. }) = trees.get(i + 2) else {
            continue;
        };
        let Some(name) = args.first().and_then(Tree::ident) else {
            continue;
        };
        let mut decl = String::new();
        render(args, &mut decl);
        out.push(Declaration {
            name: name.to_string(),
            line: tree.line(),
            decl,
        });
    }
}

/// Writes `trees` as source text with one canonical spacing, so that two
/// layouts of the same tokens give the same string: a space after `,` and
/// after a lone `:`, around `=` and `+`, between words and before `{`
/// (whose contents are padded); none inside `(…)`, `[…]`, `<…>` or `::`.  A
/// trailing comma before a closer is dropped.
fn render(trees: &[Tree], out: &mut String) {
    let trees = match trees.split_last() {
        Some((last, rest)) if last.is_punct(',') => rest,
        _ => trees,
    };
    let spaced = |t: &Tree| t.is_punct('=') || t.is_punct('+');
    let word = |t: &Tree| matches!(t, Tree::Leaf(t) if !matches!(t.kind, TokenKind::Punct(_)));
    for (i, tree) in trees.iter().enumerate() {
        let colon = |at: Option<usize>| {
            at.and_then(|j| trees.get(j))
                .is_some_and(|t| t.is_punct(':'))
        };
        if let Some(prev) = i.checked_sub(1).and_then(|j| trees.get(j)) {
            let lone_colon = prev.is_punct(':') && !colon(i.checked_sub(2)) && !colon(Some(i));
            if tree.group('{').is_some()
                || spaced(tree)
                || spaced(prev)
                || prev.is_punct(',')
                || lone_colon
                || (word(prev) && word(tree))
            {
                out.push(' ');
            }
        }
        match tree {
            Tree::Leaf(token) => match token.kind {
                TokenKind::Punct(c) => out.push(c),
                _ => out.push_str(&token.text),
            },
            Tree::Group { open, trees, .. } => {
                let pad = if *open == '{' && !trees.is_empty() {
                    " "
                } else {
                    ""
                };
                out.push(*open);
                out.push_str(pad);
                render(trees, out);
                out.push_str(pad);
                out.push(parser::closer_of(*open));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Schema model, extraction, persistence
// ---------------------------------------------------------------------------

/// One wire type in the canonical schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaType {
    /// Canonical type name (`NodeId`, `Tuple2`, …).
    pub name: String,
    /// Root-relative file the codec lives in.
    pub file: String,
    /// The declaration's own text, or `leaf` for a hand-written codec.
    pub decl: String,
}

/// The full wire schema: every codec plus the wire version it describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// The workspace `WIRE_VERSION` the schema was extracted under.
    pub wire_version: Option<u64>,
    /// All codecs, sorted by name.
    pub types: Vec<SchemaType>,
}

/// Extraction result: the schema and any problems.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The canonical schema.
    pub schema: Schema,
    /// Hand-written composite impls, duplicate names and entries no test
    /// names, sorted by `(file, line)`.
    pub problems: Vec<Finding>,
}

/// How an extracted schema relates to the committed one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaStatus {
    /// Byte-for-byte the same contract.
    Match,
    /// Versions differ — the committed file needs regenerating.
    Stale {
        /// `wire_version` in the committed file.
        committed: Option<u64>,
        /// `WIRE_VERSION` in the tree.
        extracted: Option<u64>,
    },
    /// Same version but different content: a wire change shipped without
    /// a `WIRE_VERSION` bump.
    Drift {
        /// Human-readable per-type differences.
        details: Vec<String>,
    },
}

/// Extracts the wire schema under `root`: every declaration, every leaf
/// codec, a problem for every other hand-written `impl Wire for T`, and a
/// problem for every entry whose name appears in no test code under `root`.
pub fn extract_schema(root: &Path) -> io::Result<Extraction> {
    let mut wire_version = None;
    let mut types = Vec::new();
    // One untested-codec finding per entry, dropped again below if the
    // identifiers of the tree's test code name the entry.
    let mut unnamed: Vec<(String, Finding)> = Vec::new();
    let mut test_idents = BTreeSet::new();
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    for file in walk::discover(root)? {
        let content = std::fs::read_to_string(&file.path)?;
        let lexed = lex(&content);
        let regions = test_regions(&lexed.tokens);
        let is_test = |line: usize| file.kind == FileKind::Test || regions.contains(line);
        test_idents.extend(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Ident && is_test(t.line))
                .map(|t| t.text.clone()),
        );
        if file.kind == FileKind::Test {
            continue;
        }
        if wire_version.is_none() {
            wire_version = parser::wire_version_const(&lexed.tokens);
        }
        let trees = parser::parse(&lexed.tokens);
        let mut found = Vec::new();
        declarations(&trees, &is_test, &mut found);
        let is_leaf = |name: &str| {
            LEAVES
                .iter()
                .any(|(leaf_file, names)| *leaf_file == file.rel && names.contains(&name))
        };
        let snippet = |line: usize| {
            normalize_snippet(content.lines().nth(line.saturating_sub(1)).unwrap_or(""))
        };
        let finding = |rule: &'static str, line: usize, message: String| Finding {
            file: file.rel.clone(),
            line,
            rule,
            message,
            snippet: snippet(line),
        };
        let problem = |line, message| finding(RULE_WIRE_HANDWRITTEN, line, message);
        for imp in parser::wire_impls(&trees, &is_test) {
            if is_leaf(&imp.type_name) {
                found.push(Declaration {
                    name: imp.type_name,
                    line: imp.line,
                    decl: "leaf".to_string(),
                });
            } else {
                problems.push(problem(
                    imp.line,
                    format!(
                        "`impl Wire for {}` is written by hand; declare it with `wire_struct!` / \
                         `wire_enum!` (hand-written leaf codecs are listed in \
                         crates/analysis/src/schema.rs)",
                        imp.type_name
                    ),
                ));
            }
        }
        for decl in found {
            if !seen.insert(decl.name.clone()) {
                problems.push(problem(
                    decl.line,
                    format!(
                        "`{}` has a second `Wire` codec; the schema is keyed by type name",
                        decl.name
                    ),
                ));
                continue;
            }
            let untested = format!(
                "the `Wire` codec of `{0}` has no test naming `{0}` (roundtrip / version-compat)",
                decl.name
            );
            unnamed.push((
                decl.name.clone(),
                finding(RULE_WIRE_UNTESTED, decl.line, untested),
            ));
            types.push(SchemaType {
                name: decl.name,
                file: file.rel.clone(),
                decl: decl.decl,
            });
        }
    }
    types.sort_by(|a, b| a.name.cmp(&b.name));
    problems.extend(
        unnamed
            .into_iter()
            .filter(|(name, _)| !test_idents.contains(name))
            .map(|(_, finding)| finding),
    );
    problems.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Extraction {
        schema: Schema {
            wire_version,
            types,
        },
        problems,
    })
}

impl Schema {
    /// The canonical committed representation (`WIRE_SCHEMA.json`).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": {FORMAT},\n");
        match self.wire_version {
            Some(v) => {
                let _ = writeln!(out, "  \"wire_version\": {v},");
            }
            None => out.push_str("  \"wire_version\": null,\n"),
        }
        out.push_str("  \"types\": [");
        for (i, ty) in self.types.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"file\": \"{}\", \"decl\": \"{}\"}}",
                json::escape(&ty.name),
                json::escape(&ty.file),
                json::escape(&ty.decl)
            );
        }
        if !self.types.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a committed `WIRE_SCHEMA.json`.  A file in another format
    /// (format 1 recorded a lossy rendering of each declaration) says
    /// nothing this reader can compare: it parses as version-less and
    /// empty, which [`compare`] reports stale, so `--update` regenerates it.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let root =
            json::parse(text).map_err(|e| format!("WIRE_SCHEMA.json is not valid JSON: {e}"))?;
        if root.get("schema").and_then(Json::as_usize) != Some(FORMAT) {
            return Ok(Schema {
                wire_version: None,
                types: Vec::new(),
            });
        }
        let wire_version = root
            .get("wire_version")
            .and_then(Json::as_usize)
            .map(|v| v as u64);
        let mut types = Vec::new();
        for entry in root.get("types").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |key: &str| -> Result<String, String> {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("type entry is missing `{key}`"))
            };
            types.push(SchemaType {
                name: field("name")?,
                file: field("file")?,
                decl: field("decl")?,
            });
        }
        types.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Schema {
            wire_version,
            types,
        })
    }
}

/// Compares an extracted schema against the committed one.
pub fn compare(extracted: &Schema, committed: &Schema) -> SchemaStatus {
    if extracted.wire_version != committed.wire_version {
        return SchemaStatus::Stale {
            committed: committed.wire_version,
            extracted: extracted.wire_version,
        };
    }
    if extracted == committed {
        return SchemaStatus::Match;
    }
    let mut details = Vec::new();
    fn find<'a>(schema: &'a Schema, name: &str) -> Option<&'a SchemaType> {
        schema.types.iter().find(|t| t.name == name)
    }
    for ty in &extracted.types {
        let name = &ty.name;
        match find(committed, name) {
            None => details.push(format!("`{name}` is new (not in the committed schema)")),
            Some(old) if old.decl != ty.decl => details.push(format!(
                "`{name}` changed: committed `{}` vs extracted `{}`",
                old.decl, ty.decl
            )),
            Some(old) if old.file != ty.file => {
                details.push(format!("`{name}` moved from {} to {}", old.file, ty.file));
            }
            Some(_) => {}
        }
    }
    for old in &committed.types {
        if find(extracted, &old.name).is_none() {
            details.push(format!("`{}` was removed", old.name));
        }
    }
    SchemaStatus::Drift { details }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn declared(src: &str) -> Vec<(String, String)> {
        let mut found = Vec::new();
        declarations(&parse(&lex(src).tokens), &|_| false, &mut found);
        found.into_iter().map(|d| (d.name, d.decl)).collect()
    }

    fn decl_of(src: &str) -> String {
        let found = declared(src);
        assert_eq!(found.len(), 1, "one declaration in {src}");
        found.into_iter().next().map(|d| d.1).unwrap_or_default()
    }

    #[test]
    fn a_declaration_is_recorded_verbatim_with_canonical_spacing() {
        assert_eq!(
            decl_of("wire_struct!(Outgoing<M:Wire>{to:NodeId,msg:M});"),
            "Outgoing<M: Wire> { to: NodeId, msg: M }"
        );
        // Paths, generic arguments at any depth and a trailing comma.
        assert_eq!(
            decl_of(
                "dft_sim::shard::wire_struct!(SignedValue {\n    source: crate::keys::SignerId,\n    \
                 signatures: Vec<Option<Signature>>,\n});"
            ),
            "SignedValue { source: crate::keys::SignerId, signatures: Vec<Option<Signature>> }"
        );
        assert_eq!(
            decl_of("wire_struct!(DsBatch(Vec<SignedValue>));"),
            "DsBatch(Vec<SignedValue>)"
        );
        assert_eq!(
            decl_of("wire_struct!(Table { rows: Map<K, V>, len: u8 });"),
            "Table { rows: Map<K, V>, len: u8 }"
        );
    }

    #[test]
    fn enums_keep_every_variant_shape_in_declared_order() {
        assert_eq!(
            decl_of(
                "wire_enum!(GossipMsg {
                    2 = Extant(Arc<ExtantSet>),
                    0 = Inquiry,
                    1 = Pair { node: u64, rumor: u64 },
                });"
            ),
            "GossipMsg { 2 = Extant(Arc<ExtantSet>), 0 = Inquiry, 1 = Pair { node: u64, rumor: u64 } }"
        );
    }

    #[test]
    fn bounds_and_qualified_invocations_are_read() {
        assert_eq!(
            declared(
                "crate::wire_enum!(AeaMsg<V: JoinValue+Wire> { 0 = Rumor(V), 1 = Decision(V) });\n\
                 mod inner { wire_struct! { Pair<A: Wire, B: Wire> { a: A, b: B } } }",
            ),
            vec![
                (
                    "AeaMsg".to_string(),
                    "AeaMsg<V: JoinValue + Wire> { 0 = Rumor(V), 1 = Decision(V) }".to_string()
                ),
                (
                    "Pair".to_string(),
                    "Pair<A: Wire, B: Wire> { a: A, b: B }".to_string()
                ),
            ]
        );
    }

    #[test]
    fn macro_definitions_and_test_regions_are_not_declarations() {
        assert!(declared(
            "macro_rules! wire_enum {
                ($name:ident { $($v:tt)+ }) => { $crate::wire_enum!(@variant ($name) () $($v)+); };
            }"
        )
        .is_empty());
        let lexed = lex("wire_struct!(Real(u8));\nwire_struct!(TestOnly(u8));");
        let mut found = Vec::new();
        declarations(&parse(&lexed.tokens), &|line| line == 2, &mut found);
        assert_eq!(found.len(), 1);
        assert_eq!(found.first().map(|d| d.name.as_str()), Some("Real"));
    }

    fn one_type(version: u64, decl: &str) -> Schema {
        Schema {
            wire_version: Some(version),
            types: vec![SchemaType {
                name: "Outgoing".to_string(),
                file: "crates/sim/src/shard/wire.rs".to_string(),
                decl: decl.to_string(),
            }],
        }
    }

    #[test]
    fn schema_json_round_trips_and_an_older_format_is_stale() {
        let schema = one_type(3, "Outgoing<M: Wire> { to: NodeId, msg: M }");
        let json = schema.to_json();
        let parsed = Schema::parse(&json).expect("round trip");
        assert_eq!(parsed, schema);
        assert_eq!(compare(&schema, &parsed), SchemaStatus::Match);
        let format_1 = json.replace("\"schema\": 2", "\"schema\": 1");
        assert_ne!(format_1, json);
        let old = Schema::parse(&format_1).expect("still JSON");
        assert!(matches!(
            compare(&schema, &old),
            SchemaStatus::Stale {
                committed: None,
                ..
            }
        ));
    }

    #[test]
    fn compare_detects_stale_and_drift() {
        let base = one_type(1, "Outgoing { to: Arc<A> }");
        assert!(matches!(
            compare(&one_type(2, "Outgoing { to: Arc<A> }"), &base),
            SchemaStatus::Stale { .. }
        ));
        // A generic argument is part of the contract.
        match compare(&one_type(1, "Outgoing { to: Arc<B> }"), &base) {
            SchemaStatus::Drift { details } => {
                assert!(
                    details.iter().any(|d| d.contains("Outgoing")),
                    "{details:?}"
                );
            }
            other => panic!("expected drift, got {other:?}"),
        }
    }
}
