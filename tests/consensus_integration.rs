//! Cross-crate integration tests: the paper's consensus algorithms driven by
//! the simulator under a variety of adversaries, checking the three consensus
//! conditions (validity, agreement, termination) end to end.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::sync::Arc;

use linear_dft::auth::KeyDirectory;
use linear_dft::core::{
    linear_consensus_for_all_nodes, many_crashes_for_all_nodes, AbConsensus, FewCrashesConsensus,
    SystemConfig,
};
use linear_dft::sim::adversary::byzantine::{ReplayByzantine, SilentByzantine};
use linear_dft::sim::shard::ShardedRunner;
use linear_dft::sim::{
    CrashAdversary, FixedCrashSchedule, NoFaults, NodeId, Participant, RandomCrashes, Runner,
    SinglePortRunner, TargetedCrashes,
};

fn run_few_crashes(
    n: usize,
    t: usize,
    inputs: &[bool],
    adversary: Box<dyn CrashAdversary>,
    seed: u64,
) -> linear_dft::sim::ExecutionReport<bool> {
    let config = SystemConfig::new(n, t)
        .expect("valid (n, t)")
        .with_seed(seed);
    let nodes = FewCrashesConsensus::for_all_nodes(&config, inputs).expect("valid config");
    let rounds = nodes[0].total_rounds();
    let mut runner = Runner::with_adversary(nodes, adversary, t).expect("runner");
    runner.run(rounds + 2)
}

#[test]
fn few_crashes_consensus_across_seeds_and_adversaries() {
    let n = 90;
    let t = 11;
    for seed in 0..3u64 {
        let inputs: Vec<bool> = (0..n)
            .map(|i| (i as u64 + seed).is_multiple_of(3))
            .collect();
        let adversaries: Vec<Box<dyn CrashAdversary>> = vec![
            Box::new(NoFaults),
            Box::new(RandomCrashes::new(n, t, 40, seed)),
            Box::new(TargetedCrashes::one_per_round(
                (0..t).map(NodeId::new).collect(),
            )),
        ];
        for adversary in adversaries {
            let report = run_few_crashes(n, t, &inputs, adversary, seed);
            assert_eq!(report.consensus_violation(|v| inputs.contains(v)), None);
        }
    }
}

#[test]
fn few_crashes_decision_is_deterministic_for_fixed_seed() {
    let n = 70;
    let t = 9;
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
    let a = run_few_crashes(n, t, &inputs, Box::new(RandomCrashes::new(n, t, 30, 5)), 3);
    let b = run_few_crashes(n, t, &inputs, Box::new(RandomCrashes::new(n, t, 30, 5)), 3);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.metrics.messages, b.metrics.messages);
    assert_eq!(a.metrics.rounds, b.metrics.rounds);
}

#[test]
fn many_crashes_consensus_with_heavy_crash_schedule() {
    // Half the cluster crashes (alpha = 0.5): the full consensus conditions
    // must hold.
    let n = 64;
    let t = 32;
    let config = SystemConfig::new(n, t).expect("valid (n, t)").with_seed(8);
    let inputs: Vec<bool> = (0..n).map(|i| i >= 60).collect();
    let nodes = many_crashes_for_all_nodes(&config, &inputs).unwrap();
    let rounds = nodes[0].total_rounds();
    let adversary = RandomCrashes::new(n, t, rounds / 2, 21);
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
    let report = runner.run(rounds + 2);
    assert_eq!(report.consensus_violation(|v| inputs.contains(v)), None);
}

#[test]
fn many_crashes_consensus_safety_at_extreme_fault_fraction() {
    // At alpha ≈ 0.63 with the practical overlay degrees, a few survivors may
    // stay undecided under late crashes (documented limitation, see
    // EXPERIMENTS.md E5); safety — agreement and validity among deciders —
    // must still hold unconditionally.
    let n = 64;
    let t = 40;
    let config = SystemConfig::new(n, t).expect("valid (n, t)").with_seed(8);
    let inputs: Vec<bool> = (0..n).map(|i| i >= 60).collect();
    let nodes = many_crashes_for_all_nodes(&config, &inputs).unwrap();
    let rounds = nodes[0].total_rounds();
    let adversary = RandomCrashes::new(n, t, rounds / 2, 21);
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
    let report = runner.run(rounds + 2);
    assert!(report.non_faulty_deciders_agree(), "agreement violated");
    if let Some(v) = report.agreed_value() {
        assert!(inputs.contains(v), "validity violated");
    }
    // The overwhelming majority of survivors still decide.
    let survivors = report.non_faulty().len();
    let deciders = report.non_faulty_deciders().len();
    assert!(
        deciders * 2 >= survivors,
        "only {deciders} of {survivors} survivors decided"
    );
}

#[test]
fn crash_exactly_when_little_nodes_notify() {
    // Crash a batch of little nodes exactly at the AEA notification round to
    // attack the hand-off between stages.
    let n = 75;
    let t = 9;
    let config = SystemConfig::new(n, t).expect("valid (n, t)").with_seed(4);
    let inputs = vec![true; n];
    let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).unwrap();
    let rounds = nodes[0].total_rounds();
    let aea_rounds = linear_dft::core::AeaConfig::from_system(&config)
        .unwrap()
        .total_rounds();
    let adversary = FixedCrashSchedule::new().crash_all_at(aea_rounds - 1, (0..t).map(NodeId::new));
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
    let report = runner.run(rounds + 2);
    assert_eq!(report.consensus_violation(|v| inputs.contains(v)), None);
    assert_eq!(report.agreed_value(), Some(&true));
}

#[test]
fn single_port_and_multi_port_agree_on_the_same_inputs() {
    let n = 60;
    let t = 7;
    let inputs: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();

    let multi = run_few_crashes(n, t, &inputs, Box::new(NoFaults), 2);
    assert_eq!(multi.consensus_violation(|v| inputs.contains(v)), None);

    let config = SystemConfig::new(n, t).expect("valid (n, t)").with_seed(2);
    let (nodes, sp_rounds) = linear_consensus_for_all_nodes(&config, &inputs).unwrap();
    let mut runner = SinglePortRunner::new(nodes).unwrap();
    let single = runner.run(sp_rounds + 4);
    assert!(single.all_non_faulty_decided());
    assert!(single.non_faulty_deciders_agree());

    // Fault-free, both port models must reach the same decision.
    assert_eq!(multi.agreed_value(), single.agreed_value());
}

#[test]
fn consensus_message_complexity_beats_flooding_baseline() {
    let n = 150;
    let t = 18;
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let ours = run_few_crashes(n, t, &inputs, Box::new(NoFaults), 6);
    let baseline_nodes = linear_dft::baselines::FloodingConsensus::for_all_nodes(n, t, &inputs);
    let mut baseline_runner = Runner::new(baseline_nodes).unwrap();
    let baseline = baseline_runner.run(t as u64 + 3);
    assert!(baseline.non_faulty_deciders_agree());
    assert!(
        ours.metrics.messages < baseline.metrics.messages,
        "paper algorithm ({}) should send fewer messages than flooding ({})",
        ours.metrics.messages,
        baseline.metrics.messages
    );
}

/// `AB-Consensus` with a silent and a replaying Byzantine node on both hosts
/// of the round loop: inline, and on two shard workers behind the wire
/// codec.  The common set carries its own verdict from node
/// to node inside one process and arrives without one across the codec; the
/// report must not be able to tell.
#[test]
fn authenticated_consensus_agrees_across_hosts_with_byzantine_nodes() {
    let (n, t) = (40, 4);
    let config = SystemConfig::new(n, t).expect("valid (n, t)").with_seed(17);
    let directory = Arc::new(KeyDirectory::generate(n, 17));
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + (i * 13) % 37).collect();
    let participants = || {
        let nodes =
            AbConsensus::for_all_nodes(&config, &inputs, Arc::clone(&directory)).expect("t < n/2");
        let mut participants: Vec<_> = nodes.into_iter().map(Participant::Honest).collect();
        // A little node that says nothing, and a node outside the little set
        // that echoes whatever it is sent — common sets included.
        participants[3] = Participant::Byzantine(Box::new(SilentByzantine));
        participants[26] = Participant::Byzantine(Box::new(ReplayByzantine::new(n, 4, 5)));
        participants
    };
    let rounds = AbConsensus::for_all_nodes(&config, &inputs, Arc::clone(&directory))
        .expect("t < n/2")[0]
        .total_rounds()
        + 2;

    let mut serial = Runner::with_participants(participants(), Box::new(NoFaults), 0).unwrap();
    let report = serial.run(rounds);
    let little = config.little_count();
    let valid = |v: &u64| inputs[..little].contains(v);
    assert_eq!(report.consensus_violation(valid), None);

    let mut sharded = ShardedRunner::in_process(participants(), Box::new(NoFaults), 0, 2).unwrap();
    let sharded = sharded.run(rounds).expect("no shard worker fails");
    assert_eq!(sharded, report, "two shard workers against inline");
}
