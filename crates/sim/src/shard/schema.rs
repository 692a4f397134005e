//! The wire schema, as the types state it.
//!
//! Every [`Wire`] type describes itself ([`Wire::describe`]).  A type declared
//! with [`wire_struct!`](crate::wire_struct) / [`wire_enum!`](crate::wire_enum)
//! records the declaration's own text — `stringify!` of it, with all
//! whitespace removed, so order, tags, generic arguments at any depth and
//! bounds are all part of the entry — and then declares each field type.  A
//! hand-written leaf codec records itself with [`Schema::leaf`] (its name must
//! be on a `LEAVES` list: [`super::wire::LEAVES`] and `dft_core::wire::LEAVES`)
//! and declares its element types.  Walking from the roots — the field types
//! the serve loops read and write ([`super::describe_shard`],
//! [`super::describe_mesh`]) — visits every type that reaches the wire and
//! nothing else.
//!
//! [`Schema::render`] writes the result as `WIRE_SCHEMA.json` (format 3: the
//! format and the [`WIRE_VERSION`], then one `{"name", "decl"}` line per entry,
//! sorted by name), and [`Schema::verdict`] compares it with the committed
//! file line by line.  `crates/bench/tests/wire_schema.rs` walks every
//! measured protocol's roots and acts on the verdict; DESIGN.md, "Wire schema
//! ratchet", has the policy.  Only tests call any of this.

use std::collections::{BTreeMap, BTreeSet};

use super::wire::Wire;
use super::WIRE_VERSION;

/// The `"schema"` format number [`Schema::render`] writes.
const FORMAT: u32 = 3;

/// The wire types reached from the roots declared so far.
pub struct Schema {
    /// Names a hand-written codec may record as a leaf.
    leaves: Vec<&'static str>,
    /// Concrete types already described, by `std::any::type_name`.
    visited: BTreeSet<&'static str>,
    /// Entry name → declaration text without whitespace (`leaf` for a leaf).
    entries: BTreeMap<String, String>,
    /// What makes the schema unusable: a name with two layouts, a leaf that
    /// is on no list.
    problems: Vec<String>,
}

/// How the derived schema relates to the committed file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The committed file is exactly the rendering.
    Match,
    /// The committed file states another format or [`WIRE_VERSION`], is
    /// missing, or lays out the same lines differently: the rendering to
    /// replace it with.
    Stale(String),
    /// Same format and version, different entries: a wire change without a
    /// [`WIRE_VERSION`] bump.  Each differing line, committed and derived.
    Drift(Vec<String>),
}

impl Schema {
    /// An empty schema whose leaves may be any name on one of `leaves`.
    pub fn new(leaves: &[&[&'static str]]) -> Self {
        Schema {
            leaves: leaves.concat(),
            visited: BTreeSet::new(),
            entries: BTreeMap::new(),
            problems: Vec::new(),
        }
    }

    /// Describes `T` unless this concrete type was described already.
    pub fn declare<T: Wire>(&mut self) {
        if self.visited.insert(std::any::type_name::<T>()) {
            T::describe(self);
        }
    }

    /// Records entry `name` with the declaration `decl`, whitespace removed
    /// and a trailing comma before a closer dropped.  One name may arrive
    /// many times (once per instantiation of a generic type), but always
    /// with one text: a second layout under the same name is a problem.
    pub fn record(&mut self, name: &str, decl: &str) {
        let mut text = String::with_capacity(decl.len());
        for c in decl.chars().filter(|c| !c.is_whitespace()) {
            if matches!(c, ')' | ']' | '}' | '>') && text.ends_with(',') {
                text.pop();
            }
            text.push(c);
        }
        match self.entries.get(name) {
            Some(known) if *known != text => self.problems.push(format!(
                "`{name}` has two `Wire` layouts, `{known}` and `{text}`; the schema is keyed by \
                 type name"
            )),
            Some(_) => {}
            None => {
                self.entries.insert(name.to_string(), text);
            }
        }
    }

    /// Records entry `name` as a hand-written leaf codec; a name on no
    /// `LEAVES` list is a problem (declare the type instead).
    pub fn leaf(&mut self, name: &str) {
        if self.leaves.contains(&name) {
            self.record(name, "leaf");
        } else {
            self.problems.push(format!(
                "`{name}` calls itself a leaf codec but is on no `LEAVES` list; declare it with \
                 `wire_struct!` / `wire_enum!`"
            ));
        }
    }

    /// `WIRE_SCHEMA.json`, format 3.
    ///
    /// # Errors
    ///
    /// Returns every problem met while describing: such a schema describes
    /// no one wire format.
    pub fn render(&self) -> Result<String, Vec<String>> {
        if !self.problems.is_empty() {
            return Err(self.problems.clone());
        }
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|(name, decl)| format!("    {{\"name\": {name:?}, \"decl\": {decl:?}}}"))
            .collect();
        Ok(format!(
            "{{\n  \"schema\": {FORMAT},\n  \"wire_version\": {WIRE_VERSION},\n  \"types\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        ))
    }

    /// Compares the rendering with the `committed` text, line by line.  A
    /// file stating another format or version, or the same lines in another
    /// layout, is stale; any other difference is drift.
    ///
    /// # Errors
    ///
    /// As [`Schema::render`].
    pub fn verdict(&self, committed: &str) -> Result<Verdict, Vec<String>> {
        let rendered = self.render()?;
        if rendered == committed {
            return Ok(Verdict::Match);
        }
        let lines = |text: &str| -> BTreeSet<String> {
            let trimmed = text.lines().map(|line| line.trim().trim_end_matches(','));
            trimmed.map(str::to_string).collect()
        };
        let (derived, known) = (lines(&rendered), lines(committed));
        let in_header = |line: &String| {
            line.starts_with("\"schema\":") || line.starts_with("\"wire_version\":")
        };
        let mut changed = known.symmetric_difference(&derived).peekable();
        if changed.peek().is_none() || changed.any(in_header) {
            return Ok(Verdict::Stale(rendered));
        }
        let committed_only = known
            .difference(&derived)
            .map(|line| format!("committed {line}"));
        let derived_only = derived
            .difference(&known)
            .map(|line| format!("derived   {line}"));
        Ok(Verdict::Drift(committed_only.chain(derived_only).collect()))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::shard::wire::{WireReader, WireResult, LEAVES};

    /// One layout of each toy type, and below it another under the same name.
    mod before {
        use std::sync::Arc;

        use crate::shard::Wire;

        pub struct Toy {
            pub a: u64,
            pub b: bool,
        }
        crate::wire_struct!(Toy { a: u64, b: bool });

        pub struct Holder(pub Arc<u64>);
        crate::wire_struct!(Holder(Arc<u64>));

        pub enum Shapes<V> {
            Unit,
            One(V),
            Named { v: V, n: u8 },
        }
        crate::wire_enum!(Shapes<V: Clone + Wire> {
            2 = Named { v: V, n: u8, },
            0 = Unit,
            1 = One(V),
        });
    }

    mod after {
        use std::sync::Arc;

        pub struct Toy {
            pub a: u64,
            pub b: bool,
        }
        crate::wire_struct!(Toy { b: bool, a: u64 });

        pub struct Holder(pub Arc<bool>);
        crate::wire_struct!(Holder(Arc<bool>));
    }

    /// A composite written by hand that calls itself a leaf.
    struct Pair(u64, u64);

    impl Wire for Pair {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
            self.1.encode(out);
        }

        fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
            Ok(Pair(u64::decode(r)?, u64::decode(r)?))
        }

        fn describe(schema: &mut Schema) {
            schema.leaf("Pair");
        }
    }

    fn schema_of<T: Wire>() -> Schema {
        let mut schema = Schema::new(&[LEAVES]);
        schema.declare::<T>();
        schema
    }

    fn rendered<T: Wire>() -> String {
        schema_of::<T>().render().expect("a consistent schema")
    }

    fn drift(verdict: Result<Verdict, Vec<String>>) -> String {
        match verdict {
            Ok(Verdict::Drift(details)) => details.join("\n"),
            other => panic!("expected drift, got {other:?}"),
        }
    }

    #[test]
    fn a_declaration_is_recorded_without_whitespace() {
        let schema = schema_of::<crate::message::Delivered<before::Toy>>();
        // The walk reaches every field type, leaves included, and no more.
        let entries: Vec<(&str, &str)> = schema
            .entries
            .iter()
            .map(|(n, d)| (n.as_str(), d.as_str()))
            .collect();
        assert_eq!(
            entries,
            [
                ("Delivered", "Delivered<M:Wire>{from:NodeId,msg:M}"),
                ("NodeId", "leaf"),
                ("Toy", "Toy{a:u64,b:bool}"),
                ("bool", "leaf"),
                ("u64", "leaf"),
            ]
        );
    }

    #[test]
    fn enums_keep_every_variant_shape_in_declared_order() {
        let schema = schema_of::<before::Shapes<u16>>();
        assert_eq!(
            schema.entries.get("Shapes").map(String::as_str),
            Some("Shapes<V:Clone+Wire>{2=Named{v:V,n:u8},0=Unit,1=One(V)}")
        );
        assert!(schema.entries.contains_key("u16"));
    }

    #[test]
    fn reordered_fields_without_version_bump_are_drift() {
        let committed = rendered::<before::Toy>();
        assert_eq!(
            schema_of::<before::Toy>().verdict(&committed),
            Ok(Verdict::Match)
        );
        let details = drift(schema_of::<after::Toy>().verdict(&committed));
        assert_eq!(
            details,
            "committed {\"name\": \"Toy\", \"decl\": \"Toy{a:u64,b:bool}\"}\n\
             derived   {\"name\": \"Toy\", \"decl\": \"Toy{b:bool,a:u64}\"}"
        );
    }

    #[test]
    fn changed_generic_argument_without_version_bump_is_drift() {
        let committed = rendered::<before::Holder>();
        let details = drift(schema_of::<after::Holder>().verdict(&committed));
        assert!(
            details.contains("committed {\"name\": \"Holder\", \"decl\": \"Holder(Arc<u64>)\"}"),
            "{details}"
        );
        assert!(
            details.contains("derived   {\"name\": \"Holder\", \"decl\": \"Holder(Arc<bool>)\"}"),
            "{details}"
        );
    }

    #[test]
    fn a_composite_calling_itself_a_leaf_is_an_error() {
        let problems = schema_of::<Vec<Pair>>()
            .render()
            .expect_err("Pair is no leaf");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("`Pair` calls itself a leaf"),
            "{problems:?}"
        );
        let mut listed = Schema::new(&[LEAVES, &["Pair"]]);
        listed.declare::<Vec<Pair>>();
        assert!(listed.render().is_ok(), "a leaf once a list names it");
    }

    #[test]
    fn two_layouts_under_one_name_are_an_error() {
        let mut schema = schema_of::<before::Toy>();
        schema.declare::<after::Toy>();
        let problems = schema.verdict("").expect_err("two layouts of Toy");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("`Toy` has two `Wire` layouts"),
            "{problems:?}"
        );
        // One generic type at two arguments is one layout.
        let mut generic = schema_of::<Arc<u64>>();
        generic.declare::<Arc<bool>>();
        assert!(generic.render().is_ok());
    }

    #[test]
    fn version_bump_turns_the_same_change_into_stale() {
        let committed = rendered::<before::Toy>();
        let schema = schema_of::<after::Toy>();
        let stale = Ok(Verdict::Stale(rendered::<after::Toy>()));
        let version = format!("\"wire_version\": {WIRE_VERSION},");
        let older = committed.replace(
            &version,
            &format!("\"wire_version\": {},", WIRE_VERSION - 1),
        );
        assert_ne!(older, committed);
        assert_eq!(schema.verdict(&older), stale);
        // Another format, or no file at all, is stale the same way.
        assert_eq!(
            schema.verdict(&committed.replace("\"schema\": 3,", "\"schema\": 2,")),
            stale
        );
        assert_eq!(schema.verdict(""), stale);
    }
}
