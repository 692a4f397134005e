//! Workspace-wiring smoke test: instantiates one protocol (or primitive)
//! from each member crate strictly through the `linear_dft::` facade
//! re-exports, proving the inter-crate dependency graph and the facade
//! aliases (`core`, `sim`, `overlay`, `auth`, `baselines`) are wired
//! correctly.

use linear_dft::auth::{KeyDirectory, SignedValue};
use linear_dft::baselines::FloodingConsensus;
use linear_dft::core::{bounds, FewCrashesConsensus, SystemConfig};
use linear_dft::overlay::{build, properties};
use linear_dft::sim::{check, NoFaults, RandomCrashes, Runner, Spec};

/// `dft-core` + `dft-sim`: a full consensus execution through the facade.
#[test]
fn facade_runs_core_consensus_on_sim_runner() {
    let n = 40;
    let t = 5;
    let config = SystemConfig::new(n, t).unwrap().with_seed(13);
    let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).unwrap();
    let rounds = nodes[0].total_rounds();
    let adversary = RandomCrashes::new(n, t, rounds, 2);
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
    let report = runner.run(rounds + 2);
    assert_eq!(
        check(&report, &bounds::few_crashes(&config, &inputs)),
        Ok(())
    );
}

/// `dft-overlay`: construction and fault-tolerance properties.
#[test]
fn facade_builds_overlay_and_checks_properties() {
    let graph = build::random_regular(64, 8, 7).unwrap();
    assert_eq!(graph.num_vertices(), 64);
    let candidate = vec![true; 64];
    let core = properties::survival_subset(&graph, &candidate, 2);
    assert!(properties::is_survival_subset(&graph, &candidate, &core, 2));
}

/// `dft-auth`: key directory, signing chains, verification.
#[test]
fn facade_signs_and_verifies_through_auth() {
    let directory = KeyDirectory::generate(6, 99);
    let mut signed = SignedValue::originate(&directory.signer(0), 42);
    assert!(signed.countersign(&directory.signer(1)));
    assert!(signed.verify_chain(&directory));
    assert_eq!(signed.chain_len(), 2);
}

/// `dft-baselines` + `dft-sim`: the flooding baseline runs fault-free.
#[test]
fn facade_runs_baseline_flooding_consensus() {
    let n = 24;
    let t = 3;
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let nodes = FloodingConsensus::for_all_nodes(n, t, &inputs);
    let rounds = FloodingConsensus::total_rounds(t);
    let mut runner = Runner::with_adversary(nodes, Box::new(NoFaults), t).unwrap();
    let report = runner.run(rounds + 1);
    assert_eq!(check(&report, &Spec::consensus(&inputs)), Ok(()));
}
