//! Single-port consensus: `Linear-Consensus` (Section 8) where every node may
//! send one message and poll one buffered port per round.
//!
//! Run with: `cargo run --release --example single_port_consensus`

#![expect(
    clippy::expect_used,
    reason = "a demo's helpers abort on a bad setup; nothing here is library code"
)]

use linear_dft::core::{bounds, linear_consensus_for_all_nodes, SystemConfig};
use linear_dft::sim::{check, RandomCrashes, SinglePortRunner};

fn main() {
    let n = 80;
    let t = 10;
    let config = SystemConfig::new(n, t).expect("t < n/5").with_seed(77);
    let inputs: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();

    let (nodes, sp_rounds) = linear_consensus_for_all_nodes(&config, &inputs).expect("config");

    let adversary = RandomCrashes::new(n, t, sp_rounds / 4, 13);
    let mut runner =
        SinglePortRunner::with_adversary(nodes, Box::new(adversary), t).expect("runner");
    let report = runner.run(sp_rounds + 4);

    println!("=== Linear-Consensus in the single-port model (Theorem 12) ===");
    println!("nodes:             {n}   fault bound: {t}");
    println!(
        "single-port rounds:{} (schedule length {sp_rounds})",
        report.metrics.rounds
    );
    println!("messages:          {}", report.metrics.messages);
    println!(
        "node-rounds called:{} of {} (the rest were quiet)",
        runner.active_node_rounds(),
        n as u64 * report.metrics.rounds
    );
    println!("bits:              {}", report.metrics.bits);
    println!(
        "peak msgs/round:   {} (<= n, one send per node per round)",
        report.metrics.peak_messages_in_a_round()
    );
    println!("decision:          {:?}", report.agreed_value());

    let verdict = check(&report, &bounds::linear_consensus(&config, &inputs));
    println!("spec:              {verdict:?}");
    verdict.expect("Theorem 12's spec holds");
    assert!(report.metrics.peak_messages_in_a_round() <= n as u64);
}
