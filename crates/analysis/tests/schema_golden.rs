//! Golden tests for the wire-schema ratchet over the seeded fixture trees.
//!
//! `fixtures/schema/ok` matches its committed `WIRE_SCHEMA.json`;
//! `fixtures/schema/drift-nobump` reordered a declaration's fields and
//! `fixtures/schema/drift-generic-arg` changed a payload type inside
//! `Arc<…>`, both without bumping `WIRE_VERSION`, and must be reported as
//! drift; `fixtures/schema/handwritten` writes a composite codec by hand
//! and `fixtures/schema/untested` is the `ok` tree without the test that
//! names its type, which both fail before any comparison.  Together they
//! pin the ways the ratchet can say no.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::path::PathBuf;

use dft_analysis::extract_schema;
use dft_analysis::schema::{compare, Schema, SchemaStatus};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/schema")
        .join(name)
}

fn committed(name: &str) -> Schema {
    let path = fixture(name).join("WIRE_SCHEMA.json");
    let text = std::fs::read_to_string(&path).expect("read committed fixture schema");
    Schema::parse(&text).expect("parse committed fixture schema")
}

#[test]
fn ok_tree_matches_its_committed_schema() {
    let extraction = extract_schema(&fixture("ok")).expect("extract ok tree");
    assert!(
        extraction.problems.is_empty(),
        "ok tree must extract cleanly: {:?}",
        extraction.problems
    );
    assert_eq!(extraction.schema.wire_version, Some(3));
    assert_eq!(
        compare(&extraction.schema, &committed("ok")),
        SchemaStatus::Match
    );
}

/// Extracts the fixture tree, which must be a valid set of codecs — only an
/// unversioned change against its committed file — and returns the one
/// drift detail the comparison reports.
fn only_drift_detail(name: &str) -> String {
    let extraction = extract_schema(&fixture(name)).expect("extract drift tree");
    assert!(
        extraction.problems.is_empty(),
        "{name} must extract cleanly: {:?}",
        extraction.problems
    );
    match compare(&extraction.schema, &committed(name)) {
        SchemaStatus::Drift { mut details } => {
            assert_eq!(details.len(), 1, "one changed type: {details:?}");
            details.pop().expect("one drift detail")
        }
        other => panic!("{name}: expected drift, got {other:?}"),
    }
}

#[test]
fn reordered_fields_without_version_bump_are_drift() {
    let detail = only_drift_detail("drift-nobump");
    assert!(detail.contains("Frame"), "detail names the type: {detail}");
}

/// The miss of the format-1 schema: it kept `Arc` and dropped what was
/// inside, so this change read as a match.
#[test]
fn changed_generic_argument_without_version_bump_is_drift() {
    let detail = only_drift_detail("drift-generic-arg");
    assert!(detail.contains("Frame"), "detail names the type: {detail}");
    assert!(
        detail.contains("Arc<Words>") && detail.contains("Arc<Bits>"),
        "detail shows both payload types: {detail}"
    );
}

#[test]
fn version_bump_turns_the_same_change_into_stale() {
    // Same extraction as the ok tree, compared against a committed file
    // recording an older version: stale, regenerate with `--update`.
    let extraction = extract_schema(&fixture("ok")).expect("extract ok tree");
    let mut old = committed("ok");
    old.wire_version = Some(2);
    assert_eq!(
        compare(&extraction.schema, &old),
        SchemaStatus::Stale {
            committed: Some(2),
            extracted: Some(3),
        }
    );
}

#[test]
fn handwritten_composite_codec_fails_before_any_comparison() {
    let extraction = extract_schema(&fixture("handwritten")).expect("extract handwritten tree");
    assert_eq!(
        extraction.problems.len(),
        1,
        "exactly the hand-written impl: {:?}",
        extraction.problems
    );
    let finding = extraction.problems.first().expect("one finding");
    assert_eq!(finding.rule, "wire-handwritten");
    assert_eq!(finding.file, "crates/sim/src/shard/wire.rs");
    assert!(
        finding.message.contains("Frame"),
        "finding names the impl: {}",
        finding.message
    );
    assert!(
        extraction.schema.types.is_empty(),
        "a hand-written composite codec is not a schema entry"
    );
}

#[test]
fn a_declared_type_no_test_names_fails_before_any_comparison() {
    let extraction = extract_schema(&fixture("untested")).expect("extract untested tree");
    // Nothing else is wrong with the tree: the schema is the `ok` tree's.
    assert_eq!(
        compare(&extraction.schema, &committed("untested")),
        SchemaStatus::Match
    );
    assert_eq!(
        extraction.problems.len(),
        1,
        "exactly the untested declaration: {:?}",
        extraction.problems
    );
    let finding = extraction.problems.first().expect("one finding");
    assert_eq!(finding.rule, "wire-untested");
    assert_eq!(finding.file, "crates/sim/src/shard/wire.rs");
    assert!(
        finding.message.contains("Frame"),
        "finding names the type: {}",
        finding.message
    );
}
