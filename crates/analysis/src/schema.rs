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
//! * read every declaration (via [`crate::parser`]) and render it as one
//!   `ops` string per type: `from:NodeId msg:M` for a struct,
//!   `match{0=Rumor(V); 1=Decision(V)}` for an enum, types by their last
//!   path segment;
//! * list the hand-written leaf codecs the declarations bottom out in
//!   (`LEAVES`) with `ops: "leaf"` — their byte layout is pinned by the
//!   golden-bytes tests next to them, not by this file;
//! * report any other hand-written `impl Wire for T` as
//!   [`RULE_WIRE_HANDWRITTEN`], so "every composite type is declared once"
//!   is itself enforced.
//!
//! The result is committed as `WIRE_SCHEMA.json` and ratcheted like
//! `ANALYSIS_baseline.json`: a schema change without a `WIRE_VERSION` bump
//! fails `dft-analyze schema --ci`, turning a wire-format break from silent
//! cross-process corruption into an explicit reviewed event.  See DESIGN.md
//! §"Wire schema ratchet".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::findings::{normalize_snippet, Finding};
use crate::json::{self, Json};
use crate::lexer::lex;
use crate::parser::{self, top_level_elements, Tree};
use crate::regions::test_regions;
use crate::walk::{self, FileKind};

/// Rule identifier for a composite `Wire` impl written by hand.
pub const RULE_WIRE_HANDWRITTEN: &str = "wire-handwritten";

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

/// One `wire_struct!(…)` / `wire_enum!(…)` invocation.
struct Declaration {
    name: String,
    generics: Vec<String>,
    line: usize,
    ops: String,
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
        let is_enum = tree.is_ident("wire_enum");
        if !(is_enum || tree.is_ident("wire_struct")) || is_test(tree.line()) {
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
        let mut k = 1;
        let generics = parser::parse_generics(args, &mut k);
        let ops = match args.get(k) {
            Some(Tree::Group {
                open: '(', trees, ..
            }) => type_name(trees),
            Some(Tree::Group { trees, .. }) if is_enum => variants(trees),
            Some(Tree::Group { trees, .. }) => fields(trees),
            _ => continue,
        };
        out.push(Declaration {
            name: name.to_string(),
            generics,
            line: tree.line(),
            ops,
        });
    }
}

/// A type by its last path segment, generic arguments dropped
/// (`Arc<Vec<SignedValue>>` → `Arc`, `dft_auth::Signature` → `Signature`).
fn type_name(ty: &[Tree]) -> String {
    parser::parse_self_type(ty, &mut 0).unwrap_or_else(|| "?".to_string())
}

/// `name: Type, …` as `name:Type …`.
fn fields(body: &[Tree]) -> String {
    let rendered: Vec<String> = top_level_elements(body)
        .into_iter()
        .map(|field| {
            let name = field.first().and_then(Tree::ident).unwrap_or("?");
            format!("{name}:{}", type_name(field.get(2..).unwrap_or_default()))
        })
        .collect();
    rendered.join(" ")
}

/// `tag = Variant, tag = Variant(Type), tag = Variant { name: Type }` as
/// `match{tag=Variant; tag=Variant(Type); tag=Variant(name:Type)}`, by tag.
fn variants(body: &[Tree]) -> String {
    let mut arms: Vec<(Option<u64>, String)> = top_level_elements(body)
        .into_iter()
        .map(|variant| {
            let tag = variant.first().and_then(Tree::int);
            let mut arm = tag.map_or("_".to_string(), |t| t.to_string());
            let _ = write!(
                arm,
                "={}",
                variant.get(2).and_then(Tree::ident).unwrap_or("?")
            );
            match variant.get(3) {
                Some(Tree::Group {
                    open: '(', trees, ..
                }) => {
                    let _ = write!(arm, "({})", type_name(trees));
                }
                Some(Tree::Group { trees, .. }) => {
                    let _ = write!(arm, "({})", fields(trees));
                }
                _ => {}
            }
            (tag, arm)
        })
        .collect();
    arms.sort();
    let arms: Vec<String> = arms.into_iter().map(|(_, arm)| arm).collect();
    format!("match{{{}}}", arms.join("; "))
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
    /// Generic parameters of the codec.
    pub generics: Vec<String>,
    /// The declared layout, or `leaf` for a hand-written codec.
    pub ops: String,
}

/// The full wire schema: every codec plus the wire version it describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// The workspace `WIRE_VERSION` the schema was extracted under.
    pub wire_version: Option<u64>,
    /// All codecs, sorted by name.
    pub types: Vec<SchemaType>,
}

/// Where one schema entry is written, for findings about it.
#[derive(Clone, Debug)]
pub struct Site {
    /// The entry's type name.
    pub name: String,
    /// Root-relative file.
    pub file: String,
    /// 1-based line of the declaration or `impl`.
    pub line: usize,
    /// That line, normalized.
    pub snippet: String,
}

/// Extraction result: the schema, where each entry is, and any problems.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The canonical schema.
    pub schema: Schema,
    /// One site per schema entry.
    pub sites: Vec<Site>,
    /// Hand-written composite impls and duplicate names.
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
/// codec, and a problem for every other hand-written `impl Wire for T`.
pub fn extract_schema(root: &Path) -> io::Result<Extraction> {
    let mut wire_version = None;
    let mut types = Vec::new();
    let mut sites = Vec::new();
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    for file in walk::discover(root)? {
        if file.kind == FileKind::Test {
            continue;
        }
        let content = std::fs::read_to_string(&file.path)?;
        let lexed = lex(&content);
        let regions = test_regions(&lexed.tokens);
        let is_test = |line: usize| regions.contains(line);
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
        let problem = |line: usize, message: String| Finding {
            file: file.rel.clone(),
            line,
            rule: RULE_WIRE_HANDWRITTEN,
            message,
            snippet: snippet(line),
        };
        for imp in parser::wire_impls(&trees, &is_test) {
            if is_leaf(&imp.type_name) {
                found.push(Declaration {
                    name: imp.type_name,
                    generics: imp.generics,
                    line: imp.line,
                    ops: "leaf".to_string(),
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
            sites.push(Site {
                name: decl.name.clone(),
                file: file.rel.clone(),
                line: decl.line,
                snippet: snippet(decl.line),
            });
            types.push(SchemaType {
                name: decl.name,
                file: file.rel.clone(),
                generics: decl.generics,
                ops: decl.ops,
            });
        }
    }
    types.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Extraction {
        schema: Schema {
            wire_version,
            types,
        },
        sites,
        problems,
    })
}

impl Schema {
    /// The canonical committed representation (`WIRE_SCHEMA.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n");
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
            let generics: Vec<String> = ty
                .generics
                .iter()
                .map(|g| format!("\"{}\"", json::escape(g)))
                .collect();
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"file\": \"{}\", \"generics\": [{}], \
                 \"ops\": \"{}\"}}",
                json::escape(&ty.name),
                json::escape(&ty.file),
                generics.join(", "),
                json::escape(&ty.ops)
            );
        }
        if !self.types.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a committed `WIRE_SCHEMA.json`.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let root =
            json::parse(text).map_err(|e| format!("WIRE_SCHEMA.json is not valid JSON: {e}"))?;
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
            let mut generics = Vec::new();
            for g in entry.get("generics").and_then(Json::as_arr).unwrap_or(&[]) {
                generics.push(
                    g.as_str()
                        .ok_or("generic parameter must be a string")?
                        .to_string(),
                );
            }
            types.push(SchemaType {
                name: field("name")?,
                file: field("file")?,
                generics,
                ops: field("ops")?,
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
    let committed_by_name: BTreeMap<&str, &SchemaType> = committed
        .types
        .iter()
        .map(|t| (t.name.as_str(), t))
        .collect();
    let extracted_by_name: BTreeMap<&str, &SchemaType> = extracted
        .types
        .iter()
        .map(|t| (t.name.as_str(), t))
        .collect();
    for (name, ty) in &extracted_by_name {
        match committed_by_name.get(name) {
            None => details.push(format!("`{name}` is new (not in the committed schema)")),
            Some(old) if old.ops != ty.ops => details.push(format!(
                "`{name}` changed: committed `{}` vs extracted `{}`",
                old.ops, ty.ops
            )),
            Some(old) if **old != **ty => {
                details.push(format!("`{name}` moved or changed its generics"));
            }
            Some(_) => {}
        }
    }
    for name in committed_by_name.keys() {
        if !extracted_by_name.contains_key(name) {
            details.push(format!("`{name}` was removed"));
        }
    }
    SchemaStatus::Drift { details }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn declared(src: &str) -> Vec<(String, Vec<String>, String)> {
        let mut found = Vec::new();
        declarations(&parse(&lex(src).tokens), &|_| false, &mut found);
        found
            .into_iter()
            .map(|d| (d.name, d.generics, d.ops))
            .collect()
    }

    fn ops_of(src: &str) -> String {
        let found = declared(src);
        assert_eq!(found.len(), 1, "one declaration in {src}");
        found.into_iter().next().map(|d| d.2).unwrap_or_default()
    }

    #[test]
    fn structs_render_fields_in_declared_order() {
        assert_eq!(
            ops_of("wire_struct!(Outgoing<M: Wire> { to: NodeId, msg: M });"),
            "to:NodeId msg:M"
        );
        assert_eq!(
            ops_of("dft_sim::shard::wire_struct!(SignedValue { source: crate::keys::SignerId, signatures: Vec<Signature>, });"),
            "source:SignerId signatures:Vec"
        );
        assert_eq!(ops_of("wire_struct!(DsBatch(Vec<SignedValue>));"), "Vec");
        // A comma between angle brackets does not end a field.
        assert_eq!(
            ops_of("wire_struct!(Table { rows: Map<K, V>, len: u8 });"),
            "rows:Map len:u8"
        );
    }

    #[test]
    fn enums_render_every_variant_shape_by_tag() {
        assert_eq!(
            ops_of(
                "wire_enum!(GossipMsg {
                    2 = Extant(Arc<ExtantSet>),
                    0 = Inquiry,
                    1 = Pair { node: u64, rumor: u64 },
                });"
            ),
            "match{0=Inquiry; 1=Pair(node:u64 rumor:u64); 2=Extant(Arc)}"
        );
    }

    #[test]
    fn generics_and_qualified_invocations_are_read() {
        let found = declared(
            "crate::wire_enum!(AeaMsg<V: JoinValue + Wire> { 0 = Rumor(V), 1 = Decision(V) });\n\
             mod inner { wire_struct! { Pair<A: Wire, B: Wire> { a: A, b: B } } }",
        );
        assert_eq!(
            found,
            vec![
                (
                    "AeaMsg".to_string(),
                    vec!["V".to_string()],
                    "match{0=Rumor(V); 1=Decision(V)}".to_string()
                ),
                (
                    "Pair".to_string(),
                    vec!["A".to_string(), "B".to_string()],
                    "a:A b:B".to_string()
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

    #[test]
    fn schema_json_round_trips() {
        let schema = Schema {
            wire_version: Some(3),
            types: vec![SchemaType {
                name: "Outgoing".to_string(),
                file: "crates/sim/src/shard/wire.rs".to_string(),
                generics: vec!["M".to_string()],
                ops: "to:NodeId msg:M".to_string(),
            }],
        };
        let parsed = Schema::parse(&schema.to_json()).expect("round trip");
        assert_eq!(parsed, schema);
        assert_eq!(compare(&schema, &parsed), SchemaStatus::Match);
    }

    #[test]
    fn compare_detects_stale_and_drift() {
        let base = Schema {
            wire_version: Some(1),
            types: vec![SchemaType {
                name: "Round".to_string(),
                file: "w.rs".to_string(),
                generics: Vec::new(),
                ops: "u64".to_string(),
            }],
        };
        let mut bumped = base.clone();
        bumped.wire_version = Some(2);
        assert!(matches!(
            compare(&bumped, &base),
            SchemaStatus::Stale { .. }
        ));
        let mut drifted = base.clone();
        if let Some(ty) = drifted.types.first_mut() {
            ty.ops = "len".to_string();
        }
        match compare(&drifted, &base) {
            SchemaStatus::Drift { details } => {
                assert!(details.iter().any(|d| d.contains("Round")), "{details:?}");
            }
            other => panic!("expected drift, got {other:?}"),
        }
    }
}
