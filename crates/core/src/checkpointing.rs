//! `Checkpointing` (Section 6, Figure 6, Theorem 10).
//!
//! Every non-faulty node must decide on the *same* extant set of node names,
//! excluding nodes that crashed before sending anything and including every
//! node that halts operational.  The paper's construction is:
//!
//! 1. **Part 1** — run [`Gossip`] with a dummy rumor, so every
//!    node learns (a superset of) the operational nodes;
//! 2. **Part 2** — run `n` concurrent instances of
//!    [`FewCrashesConsensus`], instance `i`
//!    having input 1 at `p` iff node `i` is present in `p`'s gossip output;
//!    per-link messages of all instances are combined into one big message.
//!
//! The combined-message optimisation is exactly the
//! [`BitVector`] instantiation of the generic consensus
//! stack, so Part 2 is a single `FewCrashesConsensus<BitVector>` run, and the
//! whole algorithm is gossip, [`Then`] that run.
//!
//! Theorem 10: `O(t + log n·log t)` rounds and `O(n + t·log n·log t)`
//! messages.

use dft_sim::SyncProtocol;

use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::few_crashes::{FcMsg, FewCrashesConfig, FewCrashesConsensus};
use crate::gossip::{Gossip, GossipConfig, GossipMsg};
use crate::then::{Staged, Stages, Then};
use crate::values::BitVector;

/// Combined configuration of the two parts.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Part 1 configuration.
    pub gossip: GossipConfig,
    /// Part 2 configuration.
    pub consensus: FewCrashesConfig,
}

impl CheckpointConfig {
    /// Derives both part configurations from a [`SystemConfig`].  The little
    /// overlay and the inquiry family are built once and shared by the parts.
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/5`.
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        let consensus = FewCrashesConfig::from_system(config)?;
        let (graph, family) = (consensus.aea.graph.clone(), consensus.scv.family.clone());
        let gossip = GossipConfig::on_overlays(config, graph, family);
        Ok(CheckpointConfig { gossip, consensus })
    }

    /// Total number of rounds (gossip followed by the combined consensus).
    pub fn total_rounds(&self) -> u64 {
        self.gossip.total_rounds() + self.consensus.total_rounds()
    }
}

/// Messages of `Checkpointing`: a Part 1 gossip message, or a Part 2
/// combined-consensus message (bit-vector payloads), under its part's tag.
pub type CheckpointMsg = Staged<GossipMsg, FcMsg<BitVector>>;

/// The decided checkpoint: the agreed set of node indices.
pub type Checkpoint = Vec<usize>;

/// The parts of `Checkpointing`: instance `i` of the combined consensus has
/// input 1 at this node iff node `i` is in its gossip output (a node gossip
/// left undecided vouches for itself only), and the decided vector is read
/// back as the list of its indices.
#[derive(Clone, Debug)]
pub struct GossipThenConsensus {
    consensus: FewCrashesConfig,
    me: usize,
}

impl Stages for GossipThenConsensus {
    type First = Gossip;
    type Second = FewCrashesConsensus<BitVector>;
    type Output = Checkpoint;

    fn second(&self, first: &Gossip) -> FewCrashesConsensus<BitVector> {
        let n = self.consensus.aea.n;
        let membership = match first.output() {
            Some(extant) => BitVector::from_set_bits(n, extant.present_nodes()),
            None => BitVector::from_set_bits(n, [self.me]),
        };
        FewCrashesConsensus::new(self.consensus.clone(), self.me, membership)
    }

    fn output(second: BitVector) -> Checkpoint {
        second.ones()
    }
}

/// Per-node state machine for `Checkpointing`.
pub type Checkpointing = Then<GossipThenConsensus>;

impl Checkpointing {
    /// Creates the state machine for node `me`.
    pub fn new(config: CheckpointConfig, me: usize) -> Self {
        let (gossip_rounds, consensus_rounds) = (
            config.gossip.total_rounds(),
            config.consensus.total_rounds(),
        );
        let stages = GossipThenConsensus {
            consensus: config.consensus,
            me,
        };
        // Dummy rumor: the value is irrelevant, only presence matters.
        let gossip = Gossip::new(config.gossip, me, 1);
        Then::compose(stages, gossip, gossip_rounds, consensus_rounds)
    }

    /// Builds state machines for all nodes.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (requires `t < n/5`).
    pub fn for_all_nodes(config: &SystemConfig) -> CoreResult<Vec<Self>> {
        let shared = CheckpointConfig::from_system(config)?;
        Ok((0..config.n)
            .map(|me| Self::new(shared.clone(), me))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dft_sim::{check, FixedCrashSchedule, NoFaults, NodeId, RandomCrashes, Runner};

    /// Runs Checkpointing and asserts Theorem 10's spec holds.
    fn run_checkpointing(
        n: usize,
        t: usize,
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
        seed: u64,
    ) -> dft_sim::ExecutionReport<Checkpoint> {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let nodes = Checkpointing::for_all_nodes(&config).unwrap();
        let total = CheckpointConfig::from_system(&config)
            .unwrap()
            .total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        let report = runner.run(total + 2);
        assert_eq!(check(&report, &bounds::checkpointing(&config)), Ok(()));
        report
    }

    #[test]
    fn fault_free_checkpoint_is_everyone() {
        let n = 50;
        let t = 6;
        let report = run_checkpointing(n, t, Box::new(NoFaults), 0, 1);
        assert_eq!(report.agreed_value().expect("agreed").len(), n);
    }

    #[test]
    fn early_crashes_are_excluded_and_survivors_included() {
        let n = 60;
        let t = 8;
        // Crash nodes 1 and 2 at round 0 before they send anything.
        let adversary = FixedCrashSchedule::new().crash_all_at(0, [NodeId::new(1), NodeId::new(2)]);
        let report = run_checkpointing(n, t, Box::new(adversary), t, 2);
        // Condition (1): nodes that crashed before sending any message are
        // not in the decided checkpoint.
        let checkpoint = report.agreed_value().expect("agreed");
        assert!(!checkpoint.contains(&1));
        assert!(!checkpoint.contains(&2));
    }

    #[test]
    fn random_crashes_keep_agreement_on_checkpoint() {
        let n = 70;
        let t = 10;
        let adversary = RandomCrashes::new(n, t, 15, 33);
        run_checkpointing(n, t, Box::new(adversary), t, 3);
    }

    #[test]
    fn the_parts_share_one_little_overlay_and_one_inquiry_family() {
        let config = SystemConfig::new(60, 8).unwrap().with_seed(5);
        let cp = CheckpointConfig::from_system(&config).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            &cp.gossip.graph,
            &cp.consensus.aea.graph
        ));
        assert!(std::sync::Arc::ptr_eq(
            &cp.gossip.family,
            &cp.consensus.scv.family
        ));
        // Sharing changed nothing a part can see.
        let alone = FewCrashesConfig::from_system(&config).unwrap();
        assert_eq!(*cp.consensus.aea.graph, *alone.aea.graph);
        assert_eq!(cp.consensus.aea.delta, alone.aea.delta);
        assert_eq!(cp.consensus.total_rounds(), alone.total_rounds());
    }

    #[test]
    fn the_nodes_share_a_fully_built_inquiry_family() {
        let config = SystemConfig::new(60, 8).unwrap().with_seed(5);
        let nodes = Checkpointing::for_all_nodes(&config).unwrap();
        let family = &nodes[0].stages().consensus.scv.family;
        assert_eq!(family.built_phases(), family.phases());
        assert!(nodes
            .iter()
            .all(|node| std::sync::Arc::ptr_eq(&node.stages().consensus.scv.family, family)));
    }

    #[test]
    fn rounds_are_linear_in_t_plus_polylog() {
        let config = SystemConfig::new(1000, 150).unwrap();
        let cp = CheckpointConfig::from_system(&config).unwrap();
        let log_n = (1000f64).log2().ceil() as u64;
        let log_t = (150f64).log2().ceil() as u64;
        let bound = 6 * 150 + 8 * log_n * (log_t + 6) + 80;
        assert!(
            cp.total_rounds() <= bound,
            "{} vs {bound}",
            cp.total_rounds()
        );
    }
}
