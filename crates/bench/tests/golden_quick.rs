//! Golden tests for the quick-scale experiment tables.
//!
//! Every quick table is pinned byte for byte against
//! `golden_quick_tables.txt`, and every measured row must meet its spec:
//! a change to delivery order, crash application or metric accounting
//! fails loudly here.

use dft_bench::{measure_few_crashes, measure_linear_consensus, Workload};

/// Determinism: running the same fixed-seed workload twice yields the same
/// measurement, byte for byte.
#[test]
fn fixed_seed_measurements_are_deterministic() {
    let w = Workload::full_budget(60, 7, 17);
    assert_eq!(measure_few_crashes(&w), measure_few_crashes(&w));
    let w = Workload::full_budget(50, 6, 37);
    assert_eq!(measure_linear_consensus(&w), measure_linear_consensus(&w));
}

/// Every quick-scale table, E1–E11, as `run_experiments --scale quick
/// --jobs 1 | tail -n +2` printed it at the parent of the PR that last
/// re-blessed the file: a change that is meant to leave the tables alone is
/// checked against this, not by diffing two checkouts by hand.  Every row
/// measured must also meet its spec (`dft_sim::check`): E1's table has no
/// agreement column, so the text alone would not show a violation there.
#[test]
fn quick_tables_match_the_committed_golden() {
    let golden = include_str!("golden_quick_tables.txt");
    let mut printed = String::from("\n");
    let mut violations = Vec::new();
    for table in dft_bench::experiments::all_experiments(dft_bench::experiments::Scale::Quick) {
        printed.push_str(&table.render());
        printed.push('\n');
        violations.extend(table.violations);
    }
    assert_eq!(violations, Vec::<String>::new());
    for (line, (ours, theirs)) in printed.lines().zip(golden.lines()).enumerate() {
        assert_eq!(ours, theirs, "line {} of the quick tables", line + 1);
    }
    assert_eq!(printed, golden);
}
