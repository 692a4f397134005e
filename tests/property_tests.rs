//! Property-based tests (proptest): protocol safety invariants and overlay
//! substrate invariants over randomly drawn parameters and crash schedules.

use linear_dft::core::{bounds, FewCrashesConsensus, Gossip, SystemConfig};
use linear_dft::overlay::{build, properties};
use linear_dft::sim::{check, RandomCrashes, Runner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Consensus safety (agreement + validity) holds for arbitrary system
    /// sizes, fault bounds, input patterns and random crash schedules.
    #[test]
    fn consensus_safety_under_random_parameters(
        n in 30usize..90,
        t_frac in 6usize..12,
        input_bits in any::<u64>(),
        crash_seed in any::<u64>(),
        overlay_seed in any::<u64>(),
    ) {
        let t = (n / t_frac).max(1);
        let config = SystemConfig::new(n, t).unwrap().with_seed(overlay_seed);
        let inputs: Vec<bool> = (0..n).map(|i| (input_bits >> (i % 64)) & 1 == 1).collect();
        let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).unwrap();
        let rounds = nodes[0].total_rounds();
        let adversary = RandomCrashes::new(n, t, rounds, crash_seed);
        let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
        let report = runner.run(rounds + 2);

        // Termination, agreement, validity, and Theorem 7's bound.
        prop_assert_eq!(check(&report, &bounds::few_crashes(&config, &inputs)), Ok(()));
    }

    /// Gossip never invents rumors: every proper pair in a decided extant set
    /// is the actual rumor of that node, and the decider's own pair is there.
    #[test]
    fn gossip_never_invents_rumors(
        n in 30usize..80,
        crash_seed in any::<u64>(),
    ) {
        let t = (n / 8).max(1);
        let config = SystemConfig::new(n, t).unwrap().with_seed(5);
        let rumors: Vec<u64> = (0..n as u64).map(|i| 40_000 + i * 3).collect();
        let nodes = Gossip::for_all_nodes(&config, &rumors).unwrap();
        let rounds = nodes[0].total_rounds();
        let adversary = RandomCrashes::new(n, t, rounds, crash_seed);
        let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
        let report = runner.run(rounds + 2);

        // Genuineness (and completeness, which includes each node's own
        // pair), within Theorem 9's bound.
        prop_assert_eq!(check(&report, &bounds::gossip(&config, &rumors)), Ok(()));
    }

    /// The survival-subset peeling operator returns a set in which every
    /// member keeps at least `delta` neighbours, and it is monotone in the
    /// candidate set.
    #[test]
    fn survival_subset_invariants(
        n in 50usize..200,
        d in 6usize..12,
        delta in 2usize..5,
        removed in 0usize..30,
        seed in any::<u64>(),
    ) {
        let graph = build::random_regular(n, d, seed).unwrap();
        let survivors: Vec<usize> = (removed..n).collect();
        let candidate = graph.mask(&survivors);
        let core = properties::survival_subset(&graph, &candidate, delta);
        prop_assert!(properties::is_survival_subset(&graph, &candidate, &core, delta));
        // Monotonicity: a larger candidate yields a superset core.
        let full = vec![true; n];
        let full_core = properties::survival_subset(&graph, &full, delta);
        for v in 0..n {
            if core[v] {
                prop_assert!(full_core[v], "core must be monotone in the candidate set");
            }
        }
    }

    /// Seeded overlay construction is deterministic and respects the degree
    /// cap.
    #[test]
    fn overlay_construction_is_deterministic(
        n in 20usize..150,
        d in 4usize..10,
        seed in any::<u64>(),
    ) {
        let a = build::capped_regular(n, d, seed);
        let b = build::capped_regular(n, d, seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.max_degree() <= d.max(n - 1));
        prop_assert_eq!(a.num_vertices(), n);
    }
}
