//! The analyzer against the real workspace it lives in.
//!
//! These tests are the in-repo twin of the CI gates: the committed
//! `WIRE_SCHEMA.json` must match what the extractor derives from the
//! tree (so `dft-analyze schema --ci` passes), the walker must keep
//! covering every first-party crate, and every first-party manifest must
//! opt in to `[workspace.lints]` — a crate silently dropping out of either
//! would switch its checks off.

#![expect(
    clippy::expect_used,
    reason = "helpers of a test target: a panic here is a failing test"
)]

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
        "every composite wire codec in the workspace must be declared and tested:\n{}",
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

/// The hazard policy is `[workspace.lints]` in the root manifest, and a
/// member is under it only if its own manifest says so.  The vendored
/// stand-ins are third-party code and stay outside it.
#[test]
fn every_first_party_manifest_inherits_the_workspace_lints() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("a `members = [...]` list in the root manifest");
    let members: Vec<&str> = members
        .split(',')
        .map(|entry| entry.trim().trim_matches('"'))
        .filter(|entry| !entry.is_empty())
        .collect();
    assert!(members.len() >= 11, "members list misread: {members:?}");
    // The root package is a member of its own workspace.
    for member in members.into_iter().chain(["."]) {
        let text = std::fs::read_to_string(root.join(member).join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("{member}/Cargo.toml: {e}"));
        let inherits = text
            .split_once("\n[lints]\n")
            .is_some_and(|(_, rest)| rest.trim_start().starts_with("workspace = true"));
        assert_eq!(
            inherits,
            !member.starts_with("vendor/"),
            "{member}/Cargo.toml: first-party crates carry `[lints] workspace = true`, \
             vendored stand-ins do not"
        );
    }
}
