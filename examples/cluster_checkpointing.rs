//! Cluster checkpointing: agree on the exact membership of a cluster after a
//! wave of crashes, using gossip plus `n` combined consensus instances.
//!
//! Run with: `cargo run --release --example cluster_checkpointing`

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "a demo's helpers abort on a bad setup; nothing here is library code"
)]

use linear_dft::core::{bounds, Checkpointing, SystemConfig};
use linear_dft::sim::{check, FixedCrashSchedule, NodeId, Runner};

fn main() {
    let n = 80;
    let t = 10;
    let config = SystemConfig::new(n, t).expect("t < n/5").with_seed(5);

    let nodes = Checkpointing::for_all_nodes(&config).expect("config");
    let rounds = nodes[0].total_rounds();

    // Nodes 3 and 4 die before sending anything; nodes 20..23 die later.
    let adversary = FixedCrashSchedule::new()
        .crash_all_at(0, [NodeId::new(3), NodeId::new(4)])
        .crash_all_at(12, (20..23).map(NodeId::new));
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).expect("runner");
    let report = runner.run(rounds + 2);

    let checkpoint = report.agreed_value().cloned().expect("agreed checkpoint");
    println!("=== Checkpointing (Theorem 10) ===");
    println!("nodes:            {n}");
    println!("rounds:           {}", report.metrics.rounds);
    println!("messages:         {}", report.metrics.messages);
    println!("checkpoint size:  {}", checkpoint.len());
    println!(
        "excluded early crashers 3, 4: {}",
        !checkpoint.contains(&3) && !checkpoint.contains(&4)
    );

    // One checkpoint everywhere, holding every operational node, within
    // Theorem 10's bounds.
    let verdict = check(&report, &bounds::checkpointing(&config));
    println!("spec:             {verdict:?}");
    verdict.expect("Theorem 10's spec holds");
    assert!(!checkpoint.contains(&3) && !checkpoint.contains(&4));
}
