//! The workspace's manifests against the hazard policy: every first-party
//! member must opt in to `[workspace.lints]`, or a crate silently dropping
//! out would switch clippy's checks off for it.

#![expect(
    clippy::expect_used,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
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
    assert!(members.len() >= 10, "members list misread: {members:?}");
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
