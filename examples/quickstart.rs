//! Quickstart: binary consensus among 100 nodes with 12 random crashes.
//!
//! Run with: `cargo run --release --example quickstart`

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "a demo's helpers abort on a bad setup; nothing here is library code"
)]

use linear_dft::core::{bounds, FewCrashesConsensus, SystemConfig};
use linear_dft::sim::{check, RandomCrashes, Runner};

fn main() {
    let n = 100;
    let t = 12;
    let config = SystemConfig::new(n, t)
        .expect("valid parameters")
        .with_seed(2024);

    // Half the nodes propose 1, the other half 0.
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();

    let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).expect("t < n/5");
    let rounds = nodes[0].total_rounds();

    // An adversary that crashes up to t random nodes during the first 30 rounds.
    let adversary = RandomCrashes::new(n, t, 30, 7);
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).expect("runner");
    let report = runner.run(rounds + 2);

    println!("=== Few-Crashes-Consensus (Theorem 7) ===");
    println!("nodes:              {n}");
    println!("fault bound t:      {t}");
    println!("crashes injected:   {}", report.metrics.crashes);
    println!("rounds:             {}", report.metrics.rounds);
    println!("messages:           {}", report.metrics.messages);
    println!("bits:               {}", report.metrics.bits);
    println!("decision:           {:?}", report.agreed_value());

    // Termination, agreement, validity, and Theorem 7's bounds.
    let verdict = check(&report, &bounds::few_crashes(&config, &inputs));
    println!("spec:               {verdict:?}");
    verdict.expect("Theorem 7's spec holds");
}
