//! Golden tests over the seeded fixture trees.
//!
//! `fixtures/dirty` mirrors real workspace paths (`crates/core/src/…`,
//! `crates/sim/src/…`) and seeds at least one violation of every rule; the
//! test pins the exact `(file, rule)` multiset so a rule that silently
//! stops firing — or starts over-firing — is a test failure, not a quiet
//! coverage regression.  `fixtures/clean` writes the same shapes the
//! approved way and must produce zero findings.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dft_analysis::analyze;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn clean_tree_has_zero_findings() {
    let findings = analyze(&fixture("clean")).expect("scan clean tree");
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(
        findings.is_empty(),
        "clean fixture tree must be clean, got:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn dirty_tree_trips_every_rule() {
    let findings = analyze(&fixture("dirty")).expect("scan dirty tree");

    // Count findings per (file, rule).
    let mut got: BTreeMap<(String, &str), usize> = BTreeMap::new();
    for f in &findings {
        *got.entry((f.file.clone(), f.rule)).or_insert(0) += 1;
    }

    let core = "crates/core/src/protocol.rs";
    let sim = "crates/sim/src/shard_client.rs";
    let sim_root = "crates/sim/src/lib.rs";
    let driver = "crates/sim/src/driver.rs";
    let expected: &[(&str, &str, usize)] = &[
        // Two hash iterations: the `for` loop and `.iter().next()`.
        (core, "nondet-hash-iter", 2),
        (core, "nondet-time", 1),
        (core, "nondet-thread-id", 1),
        // `n as f64 * 0.66`: the type *and* the literal each count.
        (core, "float-protocol", 2),
        // `std::thread::current()` in worker_tag: `crates/core` is part of
        // the sans-I/O layer, so the boundary rule fires alongside the
        // thread-id rule.
        (core, "sans-io-boundary", 1),
        // `use dft_sim::parallel::ChunkPlan`: the layer map lets core name
        // the sim root, adversary and shard surfaces — not the partition.
        (core, "layer-boundary", 1),
        // `std::io` twice (use + return type), `std::net`, `std::thread`.
        (driver, "sans-io-boundary", 4),
        (sim, "nondet-rand", 1),
        (sim, "panic-unwrap", 1),
        (sim, "panic-expect", 1),
        (sim, "panic-macro", 1),
        (sim, "index-slicing", 1),
        (sim, "wire-version", 1),
        // `Unpinned` is declared, but no test names it.
        (sim, "wire-untested", 1),
        (sim, "allow-unjustified", 1),
        // `Skewed` writes `encode` and `decode` by hand.
        (sim, "wire-handwritten", 1),
        // The dirty crate root misses `#![forbid(unsafe_code)]`.
        (sim_root, "unsafe-forbid", 1),
    ];

    let mut want: BTreeMap<(String, &str), usize> = BTreeMap::new();
    for &(file, rule, count) in expected {
        want.insert((file.to_string(), rule), count);
    }

    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert_eq!(
        got,
        want,
        "dirty fixture findings drifted; full report:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn dirty_findings_carry_lines_and_snippets() {
    let findings = analyze(&fixture("dirty")).expect("scan dirty tree");
    for f in &findings {
        assert!(f.line > 0, "finding without a line: {}", f.render());
        assert!(
            !f.snippet.trim().is_empty(),
            "finding without a snippet: {}",
            f.render()
        );
        // Findings must render as clickable file:line diagnostics.
        assert!(
            f.render().starts_with(&format!("{}:{}:", f.file, f.line)),
            "render shape drifted: {}",
            f.render()
        );
    }
}
