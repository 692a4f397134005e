//! `Many-Crashes-Consensus` (Section 4.4, Figure 4, Theorem 8, Corollary 1).
//!
//! Binary consensus for an arbitrary bound `t ≤ n − 1` on the number of
//! crashes (`α = t/n`).  Three parts over the full-network Ramanujan overlay
//! `G(n, d(α))`:
//!
//! 1. **Broadcasting** (`n − 1` rounds): rumor `1` floods along `G`.
//! 2. **Local probing** (`2 + ⌈lg n⌉` rounds): survivors decide their rumor.
//! 3. **Inquiring** (`1 + ⌈lg((1+3α)n/4)⌉` two-round phases): undecided
//!    nodes inquire along per-phase overlays `G_i` of doubling degree and
//!    adopt any response.
//!
//! Parts 1–2 are `Almost-Everywhere-Agreement`'s with every node little, on
//! `G`; Part 3 is `Spread-Common-Value`'s inquiry part with no broadcast
//! before it.  So the algorithm is a [`FewCrashesConsensus`] configuration,
//! not a protocol of its own.  Theorem 8: at most `n + 3(1 + lg n)` rounds
//! ([`crate::bounds`]) and `(5/(1−α))⁸ · n·lg n` one-bit messages.

use std::sync::Arc;

use crate::aea::AeaConfig;
use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::few_crashes::{FewCrashesConfig, FewCrashesConsensus};
use crate::inquiries::{Inquiries, Targets};
use crate::scv::ScvConfig;

/// The composite's configuration for `Many-Crashes-Consensus` (any `t < n`):
/// AEA with `little = n` on `G(n, d(α))`, then SCV's inquiry phases along
/// the many-crashes family from SCV's round 0.  SCV's broadcast part has
/// no rounds, so its `H` (here `G` again) is never read.
#[expect(
    clippy::float_arithmetic,
    reason = "the paper's alpha-aware probing threshold sizes a constant from the \
              configuration: a pure function of (n, t), no cross-node divergence"
)]
pub(crate) fn many_crashes_config(config: &SystemConfig) -> FewCrashesConfig {
    let params = config.full_params();
    let graph = config.full_graph();
    // The probing threshold is halved relative to the generic overlay
    // parameters and additionally made α-aware: `Many-Crashes-Consensus`
    // must keep a surviving core even when the fault fraction approaches
    // 1, where the adversary can remove most of every neighbourhood.  The
    // paper compensates with the enormous degree `(4/(1−α))⁸` while
    // keeping `δ(d)` fixed; at practical degrees the α-dependence has to
    // live in `δ` instead.  A node's expected operational degree after
    // all `t = αn` crashes is `(1 − α)·d`, so the threshold is capped at
    // half of that — with the paper-mode `δ/2` kept as an upper bound so
    // low fault fractions behave exactly as before.  Without the cap,
    // probing at `α ≥ 0.9` and `n ≥ 1000` has *zero* survivors: nobody
    // decides in Part 2, so Part 3's inquiries go unanswered and the
    // schedule ends with undecided correct nodes (the old E5 failure).
    let alive_degree = (1.0 - config.alpha()) * params.degree as f64;
    let alpha_cap = ((alive_degree / 2.0).floor() as usize).max(1);
    let delta = (params.delta / 2)
        .min(alpha_cap)
        .clamp(1, graph.min_degree().max(1));
    let family = config.many_crashes_family();
    FewCrashesConfig {
        aea: AeaConfig {
            n: config.n,
            little: config.n,
            graph: Arc::clone(&graph),
            delta,
            gamma: params.gamma as u64,
            part1_rounds: (config.n as u64).saturating_sub(1).max(1),
        },
        scv: ScvConfig {
            h_graph: graph,
            part2: Inquiries::two_round(0, Targets::Family(Arc::clone(&family))),
            family,
        },
    }
}

/// Builds `Many-Crashes-Consensus` state machines for all nodes from
/// per-node binary inputs.
///
/// # Errors
///
/// None today: every `t < n` a [`SystemConfig`] admits is in range.
///
/// # Panics
///
/// Panics if `inputs.len() != config.n`.
pub fn many_crashes_for_all_nodes(
    config: &SystemConfig,
    inputs: &[bool],
) -> CoreResult<Vec<FewCrashesConsensus<bool>>> {
    assert_eq!(inputs.len(), config.n, "one input per node required");
    let shared = many_crashes_config(config);
    Ok(inputs
        .iter()
        .enumerate()
        .map(|(me, &input)| FewCrashesConsensus::new(shared.clone(), me, input))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::round_budget_for;
    use dft_sim::{NoFaults, RandomCrashes, Runner};

    fn run_mc(
        n: usize,
        t: usize,
        inputs: &[bool],
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
        seed: u64,
    ) -> dft_sim::ExecutionReport<bool> {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let nodes = many_crashes_for_all_nodes(&config, inputs).unwrap();
        let total = nodes[0].total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        runner.run(total + 2)
    }

    #[test]
    fn fault_free_unanimous_and_mixed() {
        let n = 60;
        for (label, inputs) in [
            ("ones", vec![true; n]),
            ("zeros", vec![false; n]),
            ("mixed", (0..n).map(|i| i % 5 == 0).collect::<Vec<_>>()),
        ] {
            let report = run_mc(n, 10, &inputs, Box::new(NoFaults), 0, 1);
            assert_eq!(report.consensus_violation(|v| inputs.contains(v)), None);
            if label == "ones" {
                assert_eq!(report.agreed_value(), Some(&true));
            }
            if label == "zeros" {
                assert_eq!(report.agreed_value(), Some(&false));
            }
        }
    }

    #[test]
    fn tolerates_nearly_half_crashes() {
        let n = 60;
        let t = 25;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let adversary = RandomCrashes::new(n, t, 30, 13);
        let report = run_mc(n, t, &inputs, Box::new(adversary), t, 2);
        assert_eq!(report.consensus_violation(|v| inputs.contains(v)), None);
    }

    #[test]
    fn tolerates_majority_crashes() {
        // t up to n - 1 is allowed; use a heavy fraction.
        let n = 50;
        let t = 35;
        let inputs = vec![true; n];
        let adversary = RandomCrashes::new(n, t, 40, 17);
        let report = run_mc(n, t, &inputs, Box::new(adversary), t, 3);
        assert!(report.non_faulty_deciders_agree());
        assert!(report.all_non_faulty_decided());
        assert_eq!(report.agreed_value(), Some(&true));
    }

    /// Regression for the old E5 failure: at α = 0.9 and n ≥ 1000 the
    /// pre-α-aware probing threshold left local probing with *zero*
    /// survivors, so Part 3's inquiries were never answered and correct
    /// nodes finished the schedule undecided.  With the α-aware δ every
    /// correct node must decide within the stated round budget.
    #[test]
    fn decides_at_alpha_09_n_1000_within_budget() {
        let n = 1000;
        let t = 900;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let horizon = round_budget_for(n, t);
        let adversary = RandomCrashes::new(n, t, horizon, 19);
        let report = run_mc(n, t, &inputs, Box::new(adversary), t, 19);
        assert_eq!(report.consensus_violation(|v| inputs.contains(v)), None);
        assert!(
            report.metrics.rounds <= horizon,
            "rounds {} exceed the alpha-aware budget {horizon}",
            report.metrics.rounds
        );
    }

    #[test]
    fn message_bound_is_n_log_n_shaped() {
        let n = 150;
        let t = 30;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let report = run_mc(n, t, &inputs, Box::new(NoFaults), 0, 4);
        let n_log_n = n as f64 * (n as f64).log2();
        assert!(
            (report.metrics.messages as f64) < 40.0 * n_log_n,
            "{} messages",
            report.metrics.messages
        );
    }
}
