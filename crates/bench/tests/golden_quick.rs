//! Golden differential tests for the batched round engines.
//!
//! The engine rebuild (shared batched-delivery core, incremental
//! alive/crashed sets, sparse port map) must be observationally equivalent
//! to the seed engines.  These tests pin the fixed-seed E1 and E8 workloads
//! to the exact `rounds` / `messages` / `bits` the seed engines produced
//! (captured from the pre-refactor `run_experiments` output), so any drift
//! in delivery order, crash application or metric accounting fails loudly.

use dft_bench::{
    measure_ab_consensus, measure_checkpointing, measure_few_crashes, measure_gossip,
    measure_linear_consensus, measure_parallel_ds, Measurement, Workload,
};

fn assert_golden(m: &Measurement, rounds: u64, messages: u64, label: &str) {
    assert_eq!(m.rounds, rounds, "{label}: rounds drifted from seed engine");
    assert_eq!(
        m.messages, messages,
        "{label}: messages drifted from seed engine"
    );
    assert_eq!(m.verdict, Ok(()), "{label}: the spec broke");
}

/// E1 at `Scale::Quick` (seed 7): the four Table-1 rows per system size.
#[test]
fn e1_fixed_seed_workloads_match_seed_engine() {
    let cases: [(&str, usize, usize, u64, u64); 8] = [
        ("consensus", 60, 10, 69, 7594),
        ("gossip", 60, 1, 84, 1530),
        ("checkpointing", 60, 1, 97, 2538),
        ("ab-consensus", 60, 7, 15, 4443),
        ("consensus", 120, 17, 107, 15358),
        ("gossip", 120, 2, 112, 7959),
        ("checkpointing", 120, 2, 131, 10339),
        ("ab-consensus", 120, 10, 19, 9240),
    ];
    for (problem, n, t, rounds, messages) in cases {
        let m = match problem {
            "consensus" => measure_few_crashes(&Workload::full_budget(n, t, 7)),
            "gossip" => measure_gossip(&Workload::full_budget(n, t, 7)),
            "checkpointing" => measure_checkpointing(&Workload::full_budget(n, t, 7)),
            _ => measure_ab_consensus(&Workload::fault_free(n, t, 7)),
        };
        assert_golden(&m, rounds, messages, &format!("E1 {problem} n={n}"));
    }
}

/// E8 at `Scale::Quick` (seed 31): authenticated-Byzantine consensus and the
/// parallel Dolev–Strong baseline, including exact bit counts (signature
/// chains make bits sensitive to any change in relay or verification order).
#[test]
fn e8_fixed_seed_workloads_match_seed_engine() {
    let cases: [(bool, usize, usize, u64, u64, u64); 4] = [
        (true, 50, 7, 15, 4265, 144_045_120),
        (false, 50, 7, 8, 4900, 47_040_000),
        (true, 100, 10, 19, 8904, 601_248_256),
        (false, 100, 10, 11, 19800, 380_160_000),
    ];
    for (ours, n, t, rounds, messages, bits) in cases {
        let w = Workload::fault_free(n, t, 31);
        let (label, m) = if ours {
            ("ab-consensus", measure_ab_consensus(&w))
        } else {
            ("parallel-ds", measure_parallel_ds(&w))
        };
        assert_golden(&m, rounds, messages, &format!("E8 {label} n={n}"));
        assert_eq!(m.bits, bits, "E8 {label} n={n}: bits drifted");
    }
}

/// E9's fixed-seed single-port workload (seed 37): the sparse-port-map
/// engine reproduces the dense seed engine's rounds/messages/bits.
#[test]
fn e9_fixed_seed_single_port_matches_seed_engine() {
    let cases: [(usize, usize, u64, u64); 2] = [(50, 6, 1552, 3923), (100, 12, 3438, 10615)];
    for (n, t, rounds, messages) in cases {
        let m = measure_linear_consensus(&Workload::full_budget(n, t, 37));
        assert_golden(&m, rounds, messages, &format!("E9 n={n}"));
        assert_eq!(m.bits, messages, "E9 sends one-bit messages");
    }
}

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
/// checked against this, not by diffing two checkouts by hand.
#[test]
fn quick_tables_match_the_committed_golden() {
    let golden = include_str!("golden_quick_tables.txt");
    let mut printed = String::from("\n");
    for table in dft_bench::experiments::all_experiments(dft_bench::experiments::Scale::Quick) {
        printed.push_str(&table.render());
        printed.push('\n');
    }
    for (line, (ours, theirs)) in printed.lines().zip(golden.lines()).enumerate() {
        assert_eq!(ours, theirs, "line {} of the quick tables", line + 1);
    }
    assert_eq!(printed, golden);
}
