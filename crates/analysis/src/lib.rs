//! `dft-analysis`: the wire-schema ratchet.
//!
//! The shard wire format is the one contract a compiler cannot see across:
//! a reordered field list or a payload type changed inside `Arc<…>` still
//! round-trips and passes every codec test, and then corrupts a peer built
//! from another revision.  `dft-analyze schema` walks every non-vendored
//! source file with a hand-rolled Rust lexer (the build has no registry
//! access, so no `syn`), records the text of every `wire_struct!` /
//! `wire_enum!` declaration and the list of hand-written leaf codecs
//! ([`schema`]), and compares the result against the committed
//! `WIRE_SCHEMA.json`: a change without a `WIRE_VERSION` bump fails.  Two
//! checks ride along, neither with an exception mechanism: a composite
//! codec written by hand instead of declared (`wire-handwritten`), and a
//! wire type no test names (`wire-untested`).
//!
//! Everything else this crate once scanned for — hash-order iteration, wall
//! clocks, library panics, indexing, unversioned decodes, layering — is
//! clippy's, typed, from `[workspace.lints]` in the root `Cargo.toml`, with
//! each intended site's reason in an `#[expect]` beside it; allocation on
//! the per-round paths is measured, and `run_experiments --bench-compare`
//! gates the counts exactly.  See `DESIGN.md` §"Determinism invariants" and
//! §"Wire schema ratchet", and `CONTRIBUTING.md` for the regeneration
//! workflow.
//!
//! [`json`] is also the workspace's one JSON reader: `dft-bench` parses its
//! `BENCH_*.json` baselines with it.

pub mod findings;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod regions;
pub mod schema;
pub mod walk;

pub use findings::Finding;
pub use schema::{extract_schema, SchemaStatus};
