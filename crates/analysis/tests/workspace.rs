//! The analyzer against the real workspace it lives in.
//!
//! These tests are the in-repo twin of the CI gates: the committed
//! `WIRE_SCHEMA.json` must match what the extractor derives from the
//! tree (so `dft-analyze schema --ci` passes), and the walker must keep
//! covering every first-party crate — a crate silently dropping out of
//! the walk would disable every rule for it.

use std::path::PathBuf;

use dft_analysis::extract_schema;
use dft_analysis::schema::{compare, Schema, SchemaStatus};
use dft_analysis::walk;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn committed_wire_schema_matches_the_tree() {
    let root = workspace_root();
    let extraction = extract_schema(&root).expect("extract workspace schema");
    assert!(
        extraction.problems.is_empty(),
        "every composite wire codec in the workspace must be declared:\n{}",
        extraction
            .problems
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let committed_path = root.join("WIRE_SCHEMA.json");
    let text = std::fs::read_to_string(&committed_path).expect("read WIRE_SCHEMA.json");
    let committed = Schema::parse(&text).expect("parse WIRE_SCHEMA.json");
    assert_eq!(
        compare(&extraction.schema, &committed),
        SchemaStatus::Match,
        "WIRE_SCHEMA.json is out of date; bump WIRE_VERSION if the wire \
         changed, then run `dft-analyze schema --update`"
    );
}

#[test]
fn walk_covers_every_first_party_crate() {
    let files = walk::discover(&workspace_root()).expect("walk workspace");
    let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
    for expected in [
        "src/lib.rs",
        "crates/analysis/src/lib.rs",
        "crates/auth/src/lib.rs",
        "crates/baselines/src/lib.rs",
        "crates/bench/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/node/src/main.rs",
        "crates/overlay/src/lib.rs",
        "crates/sim/src/lib.rs",
    ] {
        assert!(
            rels.contains(&expected),
            "walk no longer discovers {expected}; its crate would go unanalyzed"
        );
    }
}
