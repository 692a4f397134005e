//! The paper's complexity bounds as functions of the configuration, each
//! named after the theorem that states it.

use crate::config::SystemConfig;

/// Theorem 8 / Corollary 1: the α-aware round budget of
/// `Many-Crashes-Consensus` for `n` nodes and fault bound `t`, in closed
/// form (no overlay graph is built).  With `α = t/n` it is
/// `(n − 1) + (2 + ⌈lg n⌉) + 2·(1 + ⌈lg((1+3α)n/4)⌉)`: Part 1's broadcast,
/// local probing, and two rounds per inquiry phase.  The constant is the
/// schedule itself — every correct node decides by the last round — and it
/// is the schedule the many-crashes configuration derives
/// (`budget_formula_matches_config` pins the two against each other).
#[expect(
    clippy::float_arithmetic,
    reason = "the paper's round budget is a logarithm of configuration values: a pure function of \
              (n, t), no cross-node divergence"
)]
pub fn round_budget_for(n: usize, t: usize) -> u64 {
    let part1 = (n as u64).saturating_sub(1).max(1);
    let gamma = 2 + (n.max(1) as f64).log2().ceil() as u64;
    let alpha = t as f64 / n.max(1) as f64;
    let m = (1.0 + 3.0 * alpha) * n as f64 / 4.0;
    let phases = (1.0 + m.log2().ceil()).max(1.0) as u64;
    part1 + gamma + 2 * phases
}

/// Theorem 8: `Many-Crashes-Consensus` ends within `n + 3(1 + ⌈lg n⌉)`
/// rounds, constant 3 on the logarithm.  This is [`round_budget_for`] at
/// the worst case α → 1, where the phase count reaches `1 + ⌈lg n⌉`; for
/// smaller α the budget is strictly shorter.
pub fn theorem8_round_bound(n: usize) -> u64 {
    n as u64 + 3 * (1 + (n.max(2) as f64).log2().ceil() as u64)
}

/// Theorem 11: `AB-Consensus` ends after `t + 3 + b + 2` rounds, `b` being
/// [`SystemConfig::scv_broadcast_rounds`]: `t + 1` Dolev–Strong rounds, the
/// endorsement round and the notify round, `b` rounds of broadcast over `H`,
/// and one two-round inquiry phase.  Every correct node decides by the last
/// of them; `theorem11_rounds_is_the_ab_consensus_schedule` pins this
/// against the schedule.
pub fn theorem11_rounds(config: &SystemConfig) -> u64 {
    config.t as u64 + 3 + config.scv_broadcast_rounds() + 2
}

/// Theorem 11: non-faulty nodes running `AB-Consensus` send at most
/// `L²·(t + 3) + 20n` messages, `L` the number of little nodes (`5t`).
/// Per part:
/// - Part 1, `t + 1` Dolev–Strong rounds and the endorsement round: at most
///   one message per ordered pair of little nodes a round, `(t + 2)·L(L − 1)`;
/// - Part 2, one notification per node that is not little: `n − L`;
/// - Part 3, one forward of the set per node over `H` (degree ≤ 16): `16n`;
/// - Part 4, at most `2(L − 1)` messages per node still without a set (its
///   inquiries and their answers).  What the bound leaves after Parts 1–3,
///   `L² + (t + 3)·L + 3n`, pays for `L/2 + 1.5·n/L` such nodes; a
///   fault-free run has none.
pub fn theorem11_messages(config: &SystemConfig) -> u64 {
    let little = config.little_count() as u64;
    little * little * (config.t as u64 + 3) + 20 * config.n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab_consensus::{AbConfig, AbConsensus};
    use crate::many_crashes::many_crashes_config;
    use std::sync::Arc;

    #[test]
    fn round_bound_matches_theorem_8() {
        let n = 200;
        let config = SystemConfig::new(n, 50).unwrap();
        let mc = many_crashes_config(&config);
        let bound =
            n as u64 + 3 * (1 + (n as f64).log2().ceil() as u64) + 2 * mc.scv.part2.phases();
        assert!(
            mc.total_rounds() <= bound + 8,
            "{} vs {bound}",
            mc.total_rounds()
        );
    }

    /// The closed-form budget matches the schedule a materialised
    /// configuration derives, across fault fractions and sizes.
    #[test]
    fn budget_formula_matches_config() {
        for n in [60usize, 200, 500] {
            for t in [1, n / 10, n / 2, (9 * n) / 10, n - 1] {
                let config = SystemConfig::new(n, t).unwrap();
                let mc = many_crashes_config(&config);
                assert_eq!(
                    mc.total_rounds(),
                    round_budget_for(n, t),
                    "n={n} t={t}: schedule-derived and closed-form budgets drifted"
                );
            }
        }
    }

    /// The α-aware budget is monotone in α and never exceeds Theorem 8's
    /// closed form `n + 3(1 + ⌈lg n⌉)`.
    #[test]
    fn round_budget_stays_within_theorem_8() {
        for n in [100usize, 1000, 4096] {
            let mut last = 0;
            for t in [1, n / 10, n / 2, (9 * n) / 10, n - 1] {
                let budget = round_budget_for(n, t);
                assert!(budget >= last, "budget shrank as alpha grew");
                last = budget;
                assert!(
                    budget <= theorem8_round_bound(n),
                    "n={n} t={t}: budget {budget} exceeds theorem bound {}",
                    theorem8_round_bound(n)
                );
            }
        }
    }

    /// Theorem 11's closed form is the schedule `AB-Consensus` runs, on
    /// both sides of `t² ≤ n`.
    #[test]
    fn theorem11_rounds_is_the_ab_consensus_schedule() {
        for (n, t) in [(10, 1), (50, 7), (100, 10), (120, 40), (301, 150)] {
            let config = SystemConfig::new(n, t).unwrap();
            let directory = Arc::new(dft_auth::KeyDirectory::generate(n, 3));
            let node = AbConsensus::new(AbConfig::from_system(&config, directory).unwrap(), 0, 1);
            assert_eq!(
                node.total_rounds(),
                theorem11_rounds(&config),
                "n={n} t={t}"
            );
        }
    }
}
