//! Crash storm: `Many-Crashes-Consensus` surviving the loss of 70% of the
//! cluster — the regime where the few-crashes algorithm does not even apply.
//!
//! Run with: `cargo run --release --example crash_storm_consensus`

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "a demo's helpers abort on a bad setup; nothing here is library code"
)]

use linear_dft::core::{many_crashes_for_all_nodes, SystemConfig};
use linear_dft::sim::{RandomCrashes, Runner};

fn main() {
    let n = 120;
    let t = 84; // alpha = 0.7
    let config = SystemConfig::new(n, t).expect("t < n").with_seed(99);

    // Only a handful of nodes start with value 1; validity still allows
    // deciding 0 or 1, and agreement must hold among all survivors.
    let inputs: Vec<bool> = (0..n).map(|i| i < 5).collect();

    let nodes = many_crashes_for_all_nodes(&config, &inputs).expect("config");
    let rounds = nodes[0].total_rounds();

    let adversary = RandomCrashes::new(n, t, rounds / 2, 3);
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).expect("runner");
    let report = runner.run(rounds + 2);

    let survivors = report.non_faulty().len();
    println!("=== Many-Crashes-Consensus under a crash storm (Theorem 8) ===");
    println!(
        "nodes:            {n}   fault bound: {t} (alpha = {:.2})",
        t as f64 / n as f64
    );
    println!("crashes injected: {}", report.metrics.crashes);
    println!("survivors:        {survivors}");
    println!(
        "rounds:           {} (bound: n + 3(1+lg n) = {})",
        report.metrics.rounds,
        n + 3 * (1 + (n as f64).log2().ceil() as usize)
    );
    println!("messages:         {}", report.metrics.messages);
    println!("agreement:        {}", report.non_faulty_deciders_agree());
    println!("decision:         {:?}", report.agreed_value());

    assert!(report.all_non_faulty_decided());
    assert!(report.non_faulty_deciders_agree());
}
