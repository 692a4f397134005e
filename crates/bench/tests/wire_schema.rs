//! `WIRE_SCHEMA.json` against what the types say about themselves.
//!
//! [`dft_bench::describe_wire`] walks every measured protocol's wire roots
//! (and `dft-node`'s mesh) through [`dft_sim::shard::Wire::describe`]; the
//! committed file must be exactly that walk's rendering.  The three
//! verdicts, as DESIGN.md "Wire schema ratchet" states them:
//!
//! * **match** passes;
//! * **stale** — the file states another `WIRE_VERSION` or format, is
//!   missing, or lays out the same lines differently — writes the
//!   regenerated file and fails, so the new contract is reviewed and
//!   committed, never adopted silently;
//! * **drift** — same version, other entries: a wire change without a
//!   `WIRE_VERSION` bump — fails with every differing entry and writes
//!   nothing.

use dft_sim::shard::{Schema, Verdict};

#[test]
fn committed_wire_schema_matches_the_tree() {
    let mut schema = Schema::new(&[dft_sim::shard::wire::LEAVES, dft_core::wire::LEAVES]);
    dft_bench::describe_wire(&mut schema);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../WIRE_SCHEMA.json");
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    match schema.verdict(&committed) {
        Ok(Verdict::Match) => {}
        Ok(Verdict::Stale(regenerated)) => {
            std::fs::write(path, regenerated).expect("write WIRE_SCHEMA.json");
            panic!(
                "WIRE_SCHEMA.json described another WIRE_VERSION or file format; it has been \
                 regenerated from the types: review and commit it"
            );
        }
        Ok(Verdict::Drift(details)) => panic!(
            "the wire changed at the same WIRE_VERSION; bump it in crates/sim/src/shard/mod.rs \
             (and the golden-bytes tests' assertions), then rerun this test to regenerate \
             WIRE_SCHEMA.json:\n{}",
            details.join("\n")
        ),
        Err(problems) => panic!(
            "the wire types do not describe one schema:\n{}",
            problems.join("\n")
        ),
    }
}
