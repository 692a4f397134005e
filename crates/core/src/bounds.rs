//! The paper's theorems as checkable specs: each problem's conditions
//! (`dft_sim::Spec`) with the bound its theorem puts on rounds, messages
//! and bits, as functions of the configuration.
//!
//! Each bound is derived part by part from the schedule and the fan-outs
//! the configuration constructs, never fitted to a measurement: a part's
//! count is the most its send sites can emit under any crash pattern.
//! Where a proof step rests on an earlier theorem's guarantee (Theorem 6's
//! precondition that `⌈3n/5⌉` nodes hold the value, supplied in Theorem 7
//! by Theorem 5), the bound uses it, and the earlier theorem's spec checks
//! that guarantee on its own rows.  Each round bound is the schedule its
//! configuration derives, and the tests below pin the two together.
//!
//! Notation shared by the derivations: `L` little nodes (`5t`), `d` the
//! little overlay's degree cap, `γ` the probing length (`2 + ⌈lg L⌉`),
//! `b` Spread-Common-Value's broadcast rounds, `h ≤ 16` the degree of `H`,
//! and `deg_i` the degree of inquiry phase `i`.

use dft_sim::{Bound, NodeId, NodeSet, Spec, Violation};

use crate::checkpointing::Checkpoint;
use crate::config::SystemConfig;
use crate::values::{ExtantSet, Rumor};

/// `⌈lg x⌉` for `x ≥ 1` (0 for `x ≤ 1`).
fn lg_ceil(x: usize) -> u64 {
    u64::from(usize::BITS - x.saturating_sub(1).leading_zeros())
}

/// Nodes that may still be undecided when Spread-Common-Value starts, given
/// Theorem 6's precondition that at least `⌈3n/5⌉` hold the value.
fn scv_inquirers(n: usize) -> u64 {
    (n - (3 * n).div_ceil(5)) as u64
}

/// The parts every bound is made of, added stage by stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Parts {
    rounds: u64,
    messages: u64,
    bits: u64,
}

impl Parts {
    /// A part whose messages each carry `width` bits.
    fn of(rounds: u64, messages: u64, width: u64) -> Self {
        let bits = messages * width;
        Parts {
            rounds,
            messages,
            bits,
        }
    }

    fn then(self, next: Parts) -> Parts {
        Parts {
            rounds: self.rounds + next.rounds,
            messages: self.messages + next.messages,
            bits: self.bits + next.bits,
        }
    }

    fn stated(self, theorem: &'static str, config: &SystemConfig, bits: bool) -> Bound {
        Bound {
            theorem,
            n: config.n,
            t: config.t,
            rounds: self.rounds,
            messages: self.messages,
            bits: bits.then_some(self.bits),
        }
    }
}

/// The little overlay `G(L, d)` as the configuration builds it: `L`, and
/// the cap `d` on its degree (`capped_regular` builds a graph of maximum
/// degree at most `min(d, L − 1)`).
fn little_overlay(config: &SystemConfig) -> (u64, u64, u64) {
    let little = config.little_count();
    let params = config.little_params();
    let degree = params.degree.min(little.saturating_sub(1));
    (little as u64, degree as u64, params.gamma as u64)
}

/// Almost-Everywhere-Agreement's parts for a value that floods at most
/// `floods` times per little node:
/// - Part 1, `max(5t − 1, 1)` rounds: a little node floods its candidate
///   to its `≤ d` neighbours only when the candidate is new, `floods`
///   times at most: `L·d·floods`;
/// - Part 2, `γ` rounds of probing, each to every neighbour: `γ·L·d`;
/// - Part 3, one round if some node is not little: each such node is
///   related to exactly one little node, which notifies it once: `n − L`.
fn aea_parts(config: &SystemConfig, floods: u64, width: u64) -> Parts {
    let (little, d, gamma) = little_overlay(config);
    let part1 = ((5 * config.t).saturating_sub(1)).max(1) as u64;
    let notify = u64::from(little < config.n as u64);
    let messages = little * d * (floods + gamma) + (config.n as u64 - little);
    Parts::of(part1 + gamma + notify, messages, width)
}

/// Spread-Common-Value's parts, with `inquirers` nodes undecided when it
/// starts and `targets[i]` the inquiries one of them sends in phase `i`:
/// - Part 1, `b` rounds over `H`: a node forwards the value once, when it
///   adopts it: `n·h`;
/// - Part 2, two rounds per phase: an undecided node inquires in every
///   phase until a phase brings a response, and then decides, so it sends
///   `Σ targets` inquiries and draws at most `max targets` responses.
fn scv_parts(config: &SystemConfig, inquirers: u64, targets: &[u64], width: u64) -> Parts {
    let n = config.n as u64;
    let h = 16.min(n - 1);
    let (sum, max) = (targets.iter().sum::<u64>(), targets.iter().max().copied());
    let messages = n * h + inquirers * (sum + max.unwrap_or(0));
    let rounds = config.scv_broadcast_rounds() + 2 * targets.len() as u64;
    Parts::of(rounds, messages, width)
}

/// Whom Spread-Common-Value's Part 2 asks, per phase: the other little
/// nodes in one phase if `t² ≤ n` (at most `L`), else the `G_i` neighbours
/// along the Lemma 5 family; each capped at `cap`.
fn scv_targets(config: &SystemConfig, family: bool, cap: u64) -> Vec<u64> {
    if !family && config.t * config.t <= config.n {
        return vec![(config.little_count() as u64).min(cap)];
    }
    let family = dft_overlay::InquiryFamily::spread_common_value(config.n, config.t, 0);
    (1..=family.phases())
        .map(|i| (family.degree(i) as u64).min(cap))
        .collect()
}

/// Theorem 5, Almost-Everywhere-Agreement on one bit: `O(t)` rounds and
/// `O(n)` one-bit messages.  A bit's candidate changes at most once (0 to
/// 1), and a node floods on a 1 input or on that change, never both, so
/// Part 1 floods once: rounds `max(5t − 1, 1) + γ + 1` and messages
/// `L·d·(1 + γ) + (n − L)` (see `aea_parts`), bits the same.  The constant
/// on `n` is `5·d·(1 + γ)·t/n + 1`.
pub fn theorem5(config: &SystemConfig) -> Bound {
    aea_parts(config, 1, 1).stated("Theorem 5", config, true)
}

/// Theorem 6, Spread-Common-Value on one bit, given `⌈3n/5⌉` initialized
/// nodes: `O(log t)` rounds.  Rounds `b + 2·phases`; messages
/// `n·h + ⌊2n/5⌋·(Σ targets + max targets)` (see `scv_parts`), bits the
/// same.  Part 1 alone is `h·n`, linear in `n` whatever `t`.
pub fn theorem6(config: &SystemConfig) -> Bound {
    let targets = scv_targets(config, false, u64::MAX);
    let inquirers = scv_inquirers(config.n);
    scv_parts(config, inquirers, &targets, 1).stated("Theorem 6", config, true)
}

/// Theorem 7, Few-Crashes-Consensus on one bit: Theorem 5's parts, then
/// Theorem 6's, entered with Theorem 5's `⌈3n/5⌉` deciders.  `O(t + log n)`
/// rounds, `O(n + t log t)` one-bit messages.
pub fn theorem7(config: &SystemConfig) -> Bound {
    let targets = scv_targets(config, false, u64::MAX);
    let scv = scv_parts(config, scv_inquirers(config.n), &targets, 1);
    aea_parts(config, 1, 1)
        .then(scv)
        .stated("Theorem 7", config, true)
}

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

/// Theorem 8, Many-Crashes-Consensus: rounds [`round_budget_for`] and
/// one-bit messages, part by part on `G(n, d(α))` (degree cap `d_α`,
/// probing length `γ_n`):
/// - Parts 1–2, Almost-Everywhere-Agreement with every node little and no
///   notification round: `n·d_α·(1 + γ_n)`;
/// - Part 3, the inquiry phases along the many-crashes family: every node
///   may enter them undecided (no quorum is owed at `α` near 1), and each
///   sends `Σ deg_i` inquiries and draws `max deg_i` responses at most.
///
/// The count is below the theorem's `(5/(1−α))⁸·n·lg n` at every
/// `n < 5⁸`.
pub fn theorem8(config: &SystemConfig) -> Bound {
    let n = config.n as u64;
    let params = config.full_params();
    let d = params.degree.min(config.n - 1) as u64;
    let family = config.many_crashes_family();
    let degrees = (1..=family.phases()).map(|i| family.degree(i) as u64);
    let (sum, max) = degrees.fold((0, 0), |(sum, max), d| (sum + d, max.max(d)));
    let messages = n * d * (1 + params.gamma as u64) + n * (sum + max);
    let rounds = round_budget_for(config.n, config.t);
    Parts::of(rounds, messages, 1).stated("Theorem 8", config, true)
}

/// Theorem 9, Gossip: `O(log n log t)` rounds, `O(n + t log n log t)`
/// messages.  Two parts of `P = ⌈lg n⌉` phases of `2 + γ` rounds each;
/// phase `i < P` inquires along `G_i` (the last family graph past its end),
/// and phase `P` every other node, so `Σ deg_i` counts `n − 1` for it.
/// Per little node, of which there are `L`:
/// - Part 1 inquiries: only to nodes missing from its extant set, and a
///   node that answers is never missing again, so each node is asked at
///   most once unless it crashed, and then once per phase:
///   `min(Σ deg_i, (n − 1) + (P − 1)·t)`, one bit each;
/// - Part 1 pairs: each node answers it at most once: `min(Σ deg_i, n − 1)`,
///   128 bits each;
/// - Part 2 pushes: only to nodes outside its completion set, which it
///   then joins: `min(Σ deg_i, n − 1)` extant sets;
/// - probing, `γ` rounds a phase in both parts, to `≤ d` neighbours:
///   `2·P·γ·d`, an extant set in Part 1 and a completion set in Part 2.
///
/// An extant set is at most `n + 64n` bits, a completion set `n`.  The
/// probing term, `10·d·γ·P·t`, is the constant the theorem's
/// `t·lg n·lg t` hides: `10·d·γ/lg t` with `γ ≈ lg t + 4.3`.
pub fn theorem9(config: &SystemConfig) -> Bound {
    gossip_parts(config).stated("Theorem 9", config, true)
}

fn gossip_parts(config: &SystemConfig) -> Parts {
    let (n, t) = (config.n as u64, config.t as u64);
    let (little, d, gamma) = little_overlay(config);
    let phases = lg_ceil(config.n).max(1);
    let family = dft_overlay::InquiryFamily::spread_common_value(config.n, config.t, 0);
    // The last phase reaches every other node.
    let degrees = (1..phases).map(|i| family.degree(i as usize) as u64);
    let degree_sum = degrees.sum::<u64>() + n - 1;
    let inquiries = degree_sum.min(n - 1 + (phases - 1) * t);
    let pairs = degree_sum.min(n - 1);
    let pushes = degree_sum.min(n - 1);
    let probes = phases * gamma * d;
    let extant_bits = 65 * n;
    let messages = little * (inquiries + pairs + pushes + 2 * probes);
    let bits =
        little * (inquiries + 128 * pairs + extant_bits * pushes + probes * (extant_bits + n));
    Parts {
        rounds: 2 * phases * (2 + gamma),
        messages,
        bits,
    }
}

/// Theorem 10, Checkpointing: Theorem 9's parts, then Few-Crashes-Consensus
/// on `n`-bit membership vectors.  A vector's candidate grows one bit at a
/// time at worst, so a little node floods at most `min(5t − 1, n)` times
/// in Part 1; otherwise the parts are Theorem 7's, each message `n` bits.
/// `O(t + log n log t)` rounds, `O(n + t log n log t)` messages.
pub fn theorem10(config: &SystemConfig) -> Bound {
    let n = config.n as u64;
    let floods = ((5 * config.t).saturating_sub(1) as u64).clamp(1, n);
    let targets = scv_targets(config, false, u64::MAX);
    let scv = scv_parts(config, scv_inquirers(config.n), &targets, n);
    gossip_parts(config)
        .then(aea_parts(config, floods, n))
        .then(scv)
        .stated("Theorem 10", config, true)
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

/// Theorem 11, AB-Consensus: [`theorem11_rounds`] and
/// [`theorem11_messages`]; the theorem does not bound bits (signature
/// chains grow with the round).
pub fn theorem11(config: &SystemConfig) -> Bound {
    let (rounds, messages) = (theorem11_rounds(config), theorem11_messages(config));
    Parts::of(rounds, messages, 0).stated("Theorem 11", config, false)
}

/// Theorem 12, Linear-Consensus: Few-Crashes-Consensus compiled to the
/// single-port model, every multi-port round `r` taking `2·slots(r)`
/// single-port rounds, with `slots` the round's widest fan-out:
/// - Almost-Everywhere-Agreement Parts 1–2: `d`; Part 3: `⌈n/L⌉`;
/// - Spread-Common-Value Part 1: `h`; each inquiry phase: `deg_i` capped
///   at `3t + 1` (the inquiries always go along `G_i`: a polling schedule
///   may not depend on the data).
///
/// Messages are Theorem 7's with that cap (a slot budget only drops
/// messages), one bit each.  `O(t + log n)` rounds, `O(n + t log n)` bits.
pub fn theorem12(config: &SystemConfig) -> Bound {
    let n = config.n as u64;
    let (little, d, gamma) = little_overlay(config);
    let cap = 3 * (little / 5).max(1) + 1;
    let targets = scv_targets(config, true, cap);
    let aea = aea_parts(config, 1, 1);
    let scv = scv_parts(config, scv_inquirers(config.n), &targets, 1);
    let part1 = aea.rounds - gamma - u64::from(little < n);
    let notify = u64::from(little < n) * 2 * n.div_ceil(little);
    let phases: u64 = targets.iter().map(|&width| 2 * 2 * width.max(1)).sum();
    let h = 16.min(n - 1);
    let rounds =
        2 * d.max(1) * (part1 + gamma) + notify + 2 * h * config.scv_broadcast_rounds() + phases;
    let messages = aea.messages + scv.messages;
    Parts::of(rounds, messages, 1).stated("Theorem 12", config, true)
}

/// Almost-everywhere agreement (Theorem 5): at least `⌈3n/5⌉` non-faulty
/// nodes decide, those that decide decide one input, within
/// [`theorem5`].
pub fn aea<'a>(config: &SystemConfig, inputs: &'a [bool]) -> Spec<'a, bool> {
    let quorum = (3 * config.n).div_ceil(5);
    Spec::consensus(inputs)
        .at_least(quorum)
        .within(theorem5(config))
}

/// Spread-Common-Value (Theorem 6): every non-faulty node decides the
/// common value, within [`theorem6`].
pub fn scv<'a>(config: &SystemConfig, common: &'a [bool]) -> Spec<'a, bool> {
    Spec::consensus(common).within(theorem6(config))
}

/// Few-Crashes-Consensus (Theorem 7): consensus on one of the inputs,
/// within [`theorem7`].
pub fn few_crashes<'a>(config: &SystemConfig, inputs: &'a [bool]) -> Spec<'a, bool> {
    Spec::consensus(inputs).within(theorem7(config))
}

/// Many-Crashes-Consensus (Theorem 8): consensus on one of the inputs,
/// within [`theorem8`].
pub fn many_crashes<'a>(config: &SystemConfig, inputs: &'a [bool]) -> Spec<'a, bool> {
    Spec::consensus(inputs).within(theorem8(config))
}

/// Gossip (Theorem 9): [`gossip_conditions`] on extant sets, within
/// [`theorem9`].
pub fn gossip<'a>(config: &SystemConfig, rumors: &'a [Rumor]) -> Spec<'a, ExtantSet> {
    gossip_conditions(rumors, ExtantSet::rumor_of).within(theorem9(config))
}

/// Gossip's conditions with no bound, on any decided set whose rumor for
/// node `i` `rumor_of(set, i)` reads: every non-faulty node decides a set
/// that holds every non-faulty node (completeness) and only the rumors the
/// nodes started with (genuineness).  Decided sets need not be equal.
pub fn gossip_conditions<'a, S: PartialEq + 'a>(
    rumors: &'a [Rumor],
    rumor_of: impl Fn(&S, usize) -> Option<Rumor> + 'a,
) -> Spec<'a, S> {
    Spec::decisions(move |node: NodeId, set: &S, non_faulty: &NodeSet| {
        let node = node.index();
        let mut alive = non_faulty.iter().map(NodeId::index);
        if let Some(missing) = alive.find(|&i| rumor_of(set, i).is_none()) {
            return Err(Violation::Completeness(node, missing));
        }
        let forged = |&i: &usize| rumor_of(set, i).is_some_and(|r| rumors.get(i) != Some(&r));
        let of = (0..rumors.len()).find(forged);
        of.map_or(Ok(()), |of| Err(Violation::Genuineness(node, of)))
    })
}

/// Checkpointing (Theorem 10): [`checkpoint_conditions`] within
/// [`theorem10`].
pub fn checkpointing(config: &SystemConfig) -> Spec<'static, Checkpoint> {
    checkpoint_conditions(config.n).within(theorem10(config))
}

/// Checkpointing's conditions on `n` nodes, with no bound: every non-faulty
/// node decides one checkpoint, which holds every non-faulty node
/// (completeness) and only node indices (validity).
pub fn checkpoint_conditions(n: usize) -> Spec<'static, Checkpoint> {
    Spec::decisions(
        move |node: NodeId, checkpoint: &Checkpoint, non_faulty: &NodeSet| {
            let node = node.index();
            if let Some(missing) = non_faulty
                .iter()
                .find(|id| !checkpoint.contains(&id.index()))
            {
                let missing = missing.index();
                return Err(Violation::Completeness(node, missing));
            }
            match checkpoint.iter().all(|&i| i < n) {
                true => Ok(()),
                false => Err(Violation::Validity(node)),
            }
        },
    )
    .agreed()
}

/// AB-Consensus (Theorem 11): consensus among the non-faulty nodes on one
/// of `valid`, within [`theorem11`].
pub fn ab_consensus<'a>(config: &SystemConfig, valid: &'a [u64]) -> Spec<'a, u64> {
    Spec::consensus(valid).within(theorem11(config))
}

/// Linear-Consensus (Theorem 12): consensus on one of the inputs, within
/// [`theorem12`].
pub fn linear_consensus<'a>(config: &SystemConfig, inputs: &'a [bool]) -> Spec<'a, bool> {
    Spec::consensus(inputs).within(theorem12(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab_consensus::{AbConfig, AbConsensus};
    use crate::checkpointing::CheckpointConfig;
    use crate::few_crashes::FewCrashesConfig;
    use crate::gossip::GossipConfig;
    use crate::many_crashes::many_crashes_config;
    use crate::single_port::linear_consensus_for_all_nodes;
    use dft_sim::{check, Cost, ExecutionReport, Metrics, Termination};
    use std::sync::Arc;

    /// The closed-form budget matches the schedule a materialised
    /// configuration derives, across fault fractions and sizes.
    #[test]
    fn budget_formula_matches_config() {
        for n in [60usize, 200, 500] {
            for t in [1, n / 10, n / 4, n / 2, (9 * n) / 10, n - 1] {
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
        for n in [100usize, 200, 1000, 4096] {
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

    /// Every other round bound is the schedule its configuration derives,
    /// on both sides of `t² ≤ n`, and the degree cap the message bounds use
    /// caps the little overlay the configuration builds.  Theorem 12's slot
    /// widths are the built graphs' maximum degrees, which edge collisions
    /// can leave below their caps: there the bound exceeds the schedule by
    /// the missing slots, and equals it otherwise.
    #[test]
    fn every_round_bound_is_the_schedule() {
        for (n, t) in [(20, 1), (60, 8), (100, 10), (120, 20), (301, 50)] {
            let config = SystemConfig::new(n, t).unwrap().with_seed(5);
            let cap = little_overlay(&config).1;
            let little = config.little_graph().max_degree() as u64;
            assert!(little <= cap);
            let h = config.h_graph().max_degree();
            let widest = little == cap && h == 16.min(n - 1);
            let few = FewCrashesConfig::from_system(&config).unwrap();
            let gossip = GossipConfig::from_system(&config).unwrap();
            let checkpointing = CheckpointConfig::from_system(&config).unwrap();
            let (_, sp_rounds) = linear_consensus_for_all_nodes(&config, &vec![false; n]).unwrap();
            let schedules = [
                (theorem5(&config), few.aea.total_rounds()),
                (theorem6(&config), few.scv.total_rounds()),
                (theorem7(&config), few.total_rounds()),
                (
                    theorem8(&config),
                    many_crashes_config(&config).total_rounds(),
                ),
                (theorem9(&config), gossip.total_rounds()),
                (theorem10(&config), checkpointing.total_rounds()),
                (theorem12(&config), sp_rounds),
            ];
            for (bound, schedule) in schedules {
                let label = format!("{} n={n} t={t}", bound.theorem);
                match bound.theorem {
                    "Theorem 12" if !widest => assert!(schedule < bound.rounds, "{label}"),
                    _ => assert_eq!(bound.rounds, schedule, "{label}"),
                }
            }
        }
    }

    type Row = (String, Result<(), Violation>, Result<(), Violation>);

    /// A report in which every node decided `outputs[i]` and the run spent
    /// exactly what `spec` allows.
    fn at_the_bound<O: PartialEq>(
        outputs: Vec<Option<O>>,
        spec: &Spec<'_, O>,
    ) -> ExecutionReport<O> {
        let n = outputs.len();
        let bound = spec.bound().expect("a theorem's spec");
        let mut metrics = Metrics::new();
        metrics.rounds = bound.rounds;
        metrics.record_messages(0, bound.messages, bound.bits.unwrap_or(0));
        ExecutionReport {
            outputs,
            crashed_at: vec![None; n],
            halted_at: vec![None; n],
            byzantine: NodeSet::empty(n),
            metrics,
            termination: Termination::AllHalted,
        }
    }

    /// `report` holds; one more round, message or bit breaks the bound on
    /// it, and the violation carries the bound and the measured count.
    fn bound_rows<O: Clone + PartialEq>(
        report: &ExecutionReport<O>,
        spec: &Spec<'_, O>,
    ) -> Vec<Row> {
        let bound = *spec.bound().expect("a theorem's spec");
        let mut rows = vec![(
            format!("{} at its bound", bound.theorem),
            check(report, spec),
            Ok(()),
        )];
        for cost in [Cost::Rounds, Cost::Messages, Cost::Bits] {
            let Some(limit) = bound.limit(cost) else {
                continue;
            };
            let mut over = report.clone();
            *match cost {
                Cost::Rounds => &mut over.metrics.rounds,
                Cost::Messages => &mut over.metrics.messages,
                Cost::Bits => &mut over.metrics.bits,
            } += 1;
            let measured = limit + 1;
            let broken = Err(Violation::Exceeds(cost, measured, bound));
            rows.push((
                format!("{} {cost:?} + 1", bound.theorem),
                check(&over, spec),
                broken,
            ));
        }
        rows
    }

    /// Every spec's every bound, and every condition its constructor adds,
    /// fires on a seeded mutation of a report that holds, and names what it
    /// found.
    #[test]
    fn every_bound_and_condition_fires_on_a_seeded_mutation() {
        let (n, t) = (60, 8);
        let config = SystemConfig::new(n, t).unwrap();
        let rumors: Vec<Rumor> = (0..n as u64).map(|i| 1_000 + i).collect();
        let everyone = |value: bool| vec![Some(value); n];
        let mut rows: Vec<Row> = Vec::new();

        let aea = aea(&config, &[true]);
        let holds = at_the_bound(everyone(true), &aea);
        rows.extend(bound_rows(&holds, &aea));
        let mut short = holds.clone();
        short.outputs[(3 * n).div_ceil(5) - 1..].fill(None);
        let quorum = Violation::Quorum(35, 36);
        rows.push(("Theorem 5 quorum".into(), check(&short, &aea), Err(quorum)));

        for spec in [
            scv(&config, &[true]),
            few_crashes(&config, &[true]),
            many_crashes(&config, &[true]),
            linear_consensus(&config, &[true]),
        ] {
            let holds = at_the_bound(everyone(true), &spec);
            rows.extend(bound_rows(&holds, &spec));
            let invalid = at_the_bound(everyone(false), &spec);
            let theorem = spec.bound().map_or("", |bound| bound.theorem);
            let validity = Err(Violation::Validity(0));
            rows.push((
                format!("{theorem} validity"),
                check(&invalid, &spec),
                validity,
            ));
        }

        let ab = ab_consensus(&config, &[5]);
        rows.extend(bound_rows(&at_the_bound(vec![Some(5); n], &ab), &ab));

        let gossip = gossip(&config, &rumors);
        let mut full = ExtantSet::nil(n);
        rumors.iter().enumerate().for_each(|(i, &rumor)| {
            full.update(i, rumor);
        });
        let holds = at_the_bound(vec![Some(full.clone()); n], &gossip);
        rows.extend(bound_rows(&holds, &gossip));
        // Node 5 undecided, missing node 9's pair, or holding a forged one.
        let mutated = |set: Option<ExtantSet>| {
            let mut report = holds.clone();
            report.outputs[5] = set;
            check(&report, &gossip)
        };
        let mut dropped = ExtantSet::nil(n);
        let mut forged = ExtantSet::nil(n);
        for (i, rumor) in full.pairs() {
            forged.update(i, if i == 9 { 7 } else { rumor });
            if i != 9 {
                dropped.update(i, rumor);
            }
        }
        let (node, missing, of) = (5, 9, 9);
        rows.push((
            "gossip termination".into(),
            mutated(None),
            Err(Violation::Termination(node)),
        ));
        let completeness = Err(Violation::Completeness(node, missing));
        rows.push((
            "gossip completeness".into(),
            mutated(Some(dropped)),
            completeness,
        ));
        let genuineness = Err(Violation::Genuineness(node, of));
        rows.push((
            "gossip genuineness".into(),
            mutated(Some(forged)),
            genuineness,
        ));

        let checkpointing = checkpointing(&config);
        let all: Checkpoint = (0..n).collect();
        let holds = at_the_bound(vec![Some(all.clone()); n], &checkpointing);
        rows.extend(bound_rows(&holds, &checkpointing));
        let everyone_decides = |checkpoint: Checkpoint| {
            let mut report = holds.clone();
            report.outputs.fill(Some(checkpoint));
            check(&report, &checkpointing)
        };
        let without_9: Checkpoint = all.iter().copied().filter(|&i| i != 9).collect();
        let completeness = Err(Violation::Completeness(0, 9));
        rows.push((
            "checkpoint completeness".into(),
            everyone_decides(without_9.clone()),
            completeness,
        ));
        let beyond: Checkpoint = (0..=n).collect();
        let validity = Err(Violation::Validity(0));
        rows.push((
            "checkpoint validity".into(),
            everyone_decides(beyond),
            validity,
        ));
        let mut split = holds.clone();
        split.outputs[5] = Some(without_9);
        let agreement = Err(Violation::Agreement(0, 5));
        rows.push((
            "checkpoint agreement".into(),
            check(&split, &checkpointing),
            agreement,
        ));

        // Three rows for each of Theorems 5-10 and 12, two for Theorem 11.
        assert!(rows.len() >= 8 * 3 + 2 * 4 + 7, "{} rows", rows.len());
        for (label, verdict, expected) in rows {
            assert_eq!(verdict, expected, "{label}");
        }
    }
}
