//! Quickstart: binary consensus among 100 nodes with 12 random crashes.
//!
//! Run with: `cargo run --release --example quickstart`

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "a demo's helpers abort on a bad setup; nothing here is library code"
)]

use linear_dft::core::{FewCrashesConsensus, SystemConfig};
use linear_dft::sim::{RandomCrashes, Runner};

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
    println!("all decided:        {}", report.all_non_faulty_decided());
    println!("agreement:          {}", report.non_faulty_deciders_agree());
    println!("decision:           {:?}", report.agreed_value());

    assert!(report.all_non_faulty_decided());
    assert!(report.non_faulty_deciders_agree());
}
