//! `dft-analysis`: determinism & panic-hygiene static analysis.
//!
//! The workspace's headline guarantee — parallel (`--jobs N`) and sharded
//! (`--shards N`) runs byte-identical to serial — is enforced dynamically
//! by the E1–E11 diff suite, which only catches a hazard a quick-scale run
//! happens to exercise.  This crate is the *static* half of the contract:
//! `dft-analyze` walks every non-vendored source file with a hand-rolled
//! Rust lexer (the build has no registry access, so no `syn`) and reports
//! `file:line` diagnostics for whole hazard classes:
//!
//! * **nondeterminism** — unordered `HashMap`/`HashSet` iteration, wall
//!   clocks, thread identity, ambient randomness, float arithmetic in
//!   protocol logic;
//! * **panic hygiene** — `unwrap`/`expect`/`panic!`/indexing in library
//!   code;
//! * **wire-format completeness** — every wire type (declared or leaf,
//!   tuples included) named by a test, every frame decode routed through
//!   the `WIRE_VERSION` check, and — via the [`schema`] pass — every
//!   composite codec declared rather than hand-written, with the
//!   declarations ratcheted verbatim by the committed `WIRE_SCHEMA.json`;
//! * **layering** — a declared layer map ([`layering`]) of which
//!   first-party crates each layer may import, generalizing the old
//!   one-off sans-I/O boundary check;
//! * **unsafe hygiene** — every first-party crate root carries
//!   `#![forbid(unsafe_code)]`;
//! * **lint-suppression audit** — every `#[allow(…)]` justified by an
//!   adjacent comment.
//!
//! Findings diff against the committed [`ANALYSIS_baseline.json`]
//! (`baseline`), so CI (`dft-analyze --ci`) fails only on *new* findings;
//! intentional exceptions carry one-line justifications.  The wire schema
//! has its own ratchet: `dft-analyze schema --ci` fails when the extracted
//! schema drifts from `WIRE_SCHEMA.json` without a `WIRE_VERSION` bump.
//! Allocation on the per-round paths is not a static pass: it is measured,
//! and `run_experiments --bench-compare` gates the counts exactly.
//! See `DESIGN.md` §"Determinism invariants" and §"Wire schema ratchet"
//! for how these passes and the dynamic diffs split the enforcement, and
//! `CONTRIBUTING.md` for both regeneration workflows.
//!
//! [`json`] is also the workspace's one JSON reader: `dft-bench` parses its
//! `BENCH_*.json` baselines with it.
//!
//! [`ANALYSIS_baseline.json`]: baseline::Baseline

#![forbid(unsafe_code)]

pub mod baseline;
pub mod findings;
pub mod json;
pub mod layering;
pub mod lexer;
pub mod parser;
pub mod regions;
pub mod rules;
pub mod schema;
pub mod walk;

pub use baseline::Baseline;
pub use findings::Finding;
pub use rules::analyze;
pub use schema::{extract_schema, SchemaStatus};
