//! `Few-Crashes-Consensus` (Section 4.3, Figure 3, Theorem 7).
//!
//! For `t < n/5`, consensus is solved by composing the two previous
//! algorithms: `Almost-Everywhere-Agreement` establishes the same decision at
//! `≥ 3/5·n` nodes, and `Spread-Common-Value` spreads that decision to every
//! non-faulty node.  Theorem 7: `O(t + log n)` rounds and `O(n + t log t)`
//! one-bit messages.
//!
//! The composition is [`Then`], generic over [`JoinValue`]: the scalar
//! instance (`bool`) is the paper's binary consensus, and the
//! [`crate::BitVector`] instance is the "n concurrent instances with combined
//! messages" used by checkpointing (Section 6).

use std::marker::PhantomData;

use dft_sim::SyncProtocol;

use crate::aea::{AeaConfig, AeaMsg, AlmostEverywhereAgreement};
use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::scv::{ScvConfig, ScvMsg, SpreadCommonValue, TrustAll};
use crate::then::{Staged, Stages, Then};
use crate::values::JoinValue;

/// Combined configuration of the two stages.
#[derive(Clone, Debug)]
pub struct FewCrashesConfig {
    /// Stage 1 configuration.
    pub aea: AeaConfig,
    /// Stage 2 configuration.
    pub scv: ScvConfig,
}

impl FewCrashesConfig {
    /// Derives both stage configurations from a [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/5`.
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        Ok(FewCrashesConfig {
            aea: AeaConfig::from_system(config)?,
            scv: ScvConfig::from_system(config)?,
        })
    }

    /// Total number of rounds (AEA followed by SCV).
    pub fn total_rounds(&self) -> u64 {
        self.aea.total_rounds() + self.scv.total_rounds()
    }
}

/// Messages of `Few-Crashes-Consensus`: either stage's message under its
/// stage's tag.
pub type FcMsg<V> = Staged<AeaMsg<V>, ScvMsg<V>>;

/// The parts of `Few-Crashes-Consensus`: the agreement stage's decision (or
/// null) is the value this node enters the spreading stage with.
#[derive(Clone, Debug)]
pub struct AeaThenScv<V> {
    scv: ScvConfig,
    me: usize,
    value: PhantomData<V>,
}

impl<V: JoinValue> Stages for AeaThenScv<V> {
    type First = AlmostEverywhereAgreement<V>;
    type Second = SpreadCommonValue<V>;
    type Output = V;

    fn second(&self, first: &Self::First) -> Self::Second {
        SpreadCommonValue::new(self.scv.clone(), self.me, first.output(), TrustAll)
    }

    fn output(second: V) -> V {
        second
    }
}

/// Per-node state machine for `Few-Crashes-Consensus`.
pub type FewCrashesConsensus<V> = Then<AeaThenScv<V>>;

impl<V: JoinValue> FewCrashesConsensus<V> {
    /// Creates the state machine for node `me` with the given consensus
    /// input.
    pub fn new(config: FewCrashesConfig, me: usize, input: V) -> Self {
        let (aea_rounds, scv_rounds) = (config.aea.total_rounds(), config.scv.total_rounds());
        let stages = AeaThenScv {
            scv: config.scv,
            me,
            value: PhantomData,
        };
        let aea = AlmostEverywhereAgreement::new(config.aea, me, input);
        Then::compose(stages, aea, aea_rounds, scv_rounds)
    }

    /// Builds state machines for all nodes from per-node inputs.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (requires `t < n/5`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != config.n`.
    pub fn for_all_nodes(config: &SystemConfig, inputs: &[V]) -> CoreResult<Vec<Self>> {
        assert_eq!(inputs.len(), config.n, "one input per node required");
        let shared = FewCrashesConfig::from_system(config)?;
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(me, input)| Self::new(shared.clone(), me, input.clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dft_sim::{
        check, ExecutionReport, NoFaults, NodeId, RandomCrashes, Runner, Spec, TargetedCrashes,
        Violation,
    };

    fn run_consensus(
        n: usize,
        t: usize,
        inputs: &[bool],
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
        seed: u64,
    ) -> (ExecutionReport<bool>, Result<(), Violation>) {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let nodes = FewCrashesConsensus::for_all_nodes(&config, inputs).unwrap();
        let total = FewCrashesConfig::from_system(&config)
            .unwrap()
            .total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        let report = runner.run(total + 2);
        let verdict = check(&report, &bounds::few_crashes(&config, inputs));
        (report, verdict)
    }

    #[test]
    fn fault_free_unanimous_inputs() {
        let n = 80;
        for value in [false, true] {
            let (_, verdict) = run_consensus(n, 10, &vec![value; n], Box::new(NoFaults), 0, 1);
            assert_eq!(verdict, Ok(()));
        }
    }

    #[test]
    fn fault_free_mixed_inputs() {
        let n = 100;
        let inputs: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let (_, verdict) = run_consensus(n, 12, &inputs, Box::new(NoFaults), 0, 2);
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn random_crashes_within_budget() {
        let n = 120;
        let t = 20;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        for seed in 0..4u64 {
            let adversary = RandomCrashes::new(n, t, 60, seed);
            let (_, verdict) = run_consensus(n, t, &inputs, Box::new(adversary), t, 3 + seed);
            assert_eq!(verdict, Ok(()));
        }
    }

    #[test]
    fn targeted_crashes_on_little_nodes() {
        let n = 120;
        let t = 15;
        let inputs = vec![true; n];
        let victims: Vec<NodeId> = (0..t).map(NodeId::new).collect();
        let adversary = TargetedCrashes::one_per_round(victims);
        let (_, verdict) = run_consensus(n, t, &inputs, Box::new(adversary), t, 4);
        assert_eq!(verdict, Ok(()), "validity with unanimous 1");
    }

    #[test]
    fn rounds_and_messages_scale_linearly() {
        let n = 300;
        let t = 30;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
        let (report, verdict) = run_consensus(n, t, &inputs, Box::new(NoFaults), 0, 5);
        // Theorem 7's bound holds, and its rounds are O(t + log n).
        assert_eq!(verdict, Ok(()));
        let bound = bounds::theorem7(&SystemConfig::new(n, t).unwrap());
        assert!(bound.rounds <= 8 * t as u64 + 12 * (n as f64).log2().ceil() as u64 + 20);
        // Bits: O(n + t log t) with a generous practical constant (the
        // probing term t·log t·d dominates at this scale); the point is to
        // stay far below the all-to-all n² = 90 000.
        let bits = report.metrics.bits;
        assert!(bits < 250 * n as u64, "{bits} bits");
    }

    #[test]
    fn one_crash_delays_by_constant_rounds() {
        // The protocol has a fixed round schedule, so crashes cannot extend
        // it; this checks the schedule is identical with and without a crash.
        let n = 80;
        let t = 8;
        let inputs = vec![true; n];
        let (clean, _) = run_consensus(n, t, &inputs, Box::new(NoFaults), 0, 6);
        let adversary = RandomCrashes::new(n, 1, 5, 1);
        let (crashed, _) = run_consensus(n, t, &inputs, Box::new(adversary), t, 6);
        assert_eq!(clean.metrics.rounds, crashed.metrics.rounds);
    }

    #[test]
    fn vectorised_consensus_for_checkpointing() {
        use crate::values::BitVector;
        let n = 60;
        let t = 7;
        let config = SystemConfig::new(n, t).unwrap().with_seed(9);
        let inputs: Vec<BitVector> = (0..n)
            .map(|i| BitVector::from_set_bits(n, [i, (i + 1) % n]))
            .collect();
        let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).unwrap();
        let total = FewCrashesConfig::from_system(&config)
            .unwrap()
            .total_rounds();
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(total + 2);
        let agreed = Spec::decisions(|_, _: &BitVector, _| Ok(())).agreed();
        assert_eq!(check(&report, &agreed), Ok(()));
    }

    #[test]
    fn no_inquiry_phase_is_built_when_everyone_decides_before_part_2() {
        let (n, t) = (120, 20);
        let config = SystemConfig::new(n, t).unwrap().with_seed(8);
        let shared = FewCrashesConfig::from_system(&config).unwrap();
        assert!(shared.scv.part2.phases() > 1, "t² > n: a phase per G_i");
        let nodes = (0..n)
            .map(|me| FewCrashesConsensus::new(shared.clone(), me, true))
            .collect();
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(shared.total_rounds() + 2);
        assert_eq!(
            check(&report, &bounds::few_crashes(&config, &[true])),
            Ok(())
        );
        assert_eq!(shared.scv.family.built_phases(), 0);
    }

    #[test]
    fn config_rejects_large_t() {
        let config = SystemConfig::new(50, 10).unwrap();
        assert!(FewCrashesConfig::from_system(&config).is_err());
    }
}
