//! Cross-crate integration tests for gossip and checkpointing: the paper's
//! extant-set conditions checked end to end under crash schedules.

use linear_dft::core::{bounds, Checkpointing, Gossip, SystemConfig};
use linear_dft::sim::{check, FixedCrashSchedule, NodeId, RandomCrashes, Runner};

#[test]
fn gossip_extant_sets_respect_both_conditions() {
    let n = 90;
    let t = 11;
    let config = SystemConfig::new(n, t).unwrap().with_seed(14);
    let rumors: Vec<u64> = (0..n as u64).map(|i| 7_000 + i).collect();
    let nodes = Gossip::for_all_nodes(&config, &rumors).unwrap();
    let rounds = nodes[0].total_rounds();
    // Crash some little nodes before they speak, and some other nodes later.
    let adversary = FixedCrashSchedule::new()
        .crash_all_at(0, [NodeId::new(0), NodeId::new(1)])
        .crash_all_at(8, (40..44).map(NodeId::new));
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
    let report = runner.run(rounds + 2);

    // Termination, condition (2), genuine rumors and Theorem 9's bound.
    assert_eq!(check(&report, &bounds::gossip(&config, &rumors)), Ok(()));
    for id in report.non_faulty().iter() {
        let set = report.output_of(id).unwrap();
        // Condition (1): nodes crashed at round 0 (before sending) are absent.
        assert!(!set.is_present(0), "node 0 crashed before sending");
        assert!(!set.is_present(1), "node 1 crashed before sending");
    }
}

#[test]
fn checkpointing_reaches_identical_checkpoints_under_random_crashes() {
    let n = 80;
    let t = 9;
    for seed in 0..2u64 {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let nodes = Checkpointing::for_all_nodes(&config).unwrap();
        let rounds = nodes[0].total_rounds();
        let adversary = RandomCrashes::new(n, t, 25, seed + 100);
        let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
        let report = runner.run(rounds + 2);

        // One checkpoint everywhere, holding every non-faulty node, within
        // Theorem 10's bound.
        assert_eq!(check(&report, &bounds::checkpointing(&config)), Ok(()));
    }
}

#[test]
fn checkpointing_is_cheaper_than_naive_baseline_in_messages_per_round() {
    let n = 100;
    let t = 12;
    let config = SystemConfig::new(n, t).unwrap().with_seed(4);
    let nodes = Checkpointing::for_all_nodes(&config).unwrap();
    let rounds = nodes[0].total_rounds();
    let mut runner = Runner::new(nodes).unwrap();
    let ours = runner.run(rounds + 2);
    assert_eq!(check(&ours, &bounds::checkpointing(&config)), Ok(()));

    let baseline_nodes = linear_dft::baselines::NaiveCheckpointing::for_all_nodes(n, t);
    let mut baseline_runner = Runner::new(baseline_nodes).unwrap();
    let baseline = baseline_runner.run(t as u64 + 3);
    assert_eq!(check(&baseline, &bounds::checkpoint_conditions(n)), Ok(()));

    let ours_per_round = ours.metrics.messages as f64 / ours.metrics.rounds as f64;
    let baseline_per_round = baseline.metrics.messages as f64 / baseline.metrics.rounds as f64;
    assert!(
        ours_per_round < baseline_per_round,
        "per-round traffic {ours_per_round:.0} should beat the naive baseline {baseline_per_round:.0}"
    );
}
