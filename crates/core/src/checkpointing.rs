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
//! stack, so Part 2 is a single `FewCrashesConsensus<BitVector>` run.
//!
//! Theorem 10: `O(t + log n·log t)` rounds and `O(n + t·log n·log t)`
//! messages.

use dft_sim::{Delivered, Outgoing, Payload, Round, SyncProtocol};

use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::few_crashes::{FcMsg, FewCrashesConfig, FewCrashesConsensus};
use crate::gossip::{Gossip, GossipConfig, GossipMsg};
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
    /// Derives both part configurations from a [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/5`.
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        Ok(CheckpointConfig {
            gossip: GossipConfig::from_system(config)?,
            consensus: FewCrashesConfig::from_system(config)?,
        })
    }

    /// Total number of rounds (gossip followed by the combined consensus).
    pub fn total_rounds(&self) -> u64 {
        self.gossip.total_rounds() + self.consensus.total_rounds()
    }
}

/// Messages of `Checkpointing`: part-tagged wrappers.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointMsg {
    /// A Part 1 gossip message.
    Gossip(GossipMsg),
    /// A Part 2 combined-consensus message (bit-vector payloads).
    Consensus(FcMsg<BitVector>),
}

impl Payload for CheckpointMsg {
    fn bit_len(&self) -> u64 {
        match self {
            CheckpointMsg::Gossip(m) => m.bit_len(),
            CheckpointMsg::Consensus(m) => m.bit_len(),
        }
    }

    fn share_key(&self) -> Option<usize> {
        match self {
            CheckpointMsg::Gossip(m) => m.share_key(),
            CheckpointMsg::Consensus(_) => None,
        }
    }
}

/// The decided checkpoint: the agreed set of node indices.
pub type Checkpoint = Vec<usize>;

/// Per-node state machine for `Checkpointing`.
#[derive(Clone, Debug)]
pub struct Checkpointing {
    gossip: Gossip,
    consensus: Option<FewCrashesConsensus<BitVector>>,
    consensus_config: FewCrashesConfig,
    me: usize,
    n: usize,
    gossip_rounds: u64,
    decided: Option<Checkpoint>,
    /// Send/receive scratch for the wrapped protocols, kept across rounds
    /// so relabelling inner messages never allocates at steady state.
    gossip_out: Vec<Outgoing<GossipMsg>>,
    consensus_out: Vec<Outgoing<FcMsg<BitVector>>>,
    gossip_in: Vec<Delivered<GossipMsg>>,
    consensus_in: Vec<Delivered<FcMsg<BitVector>>>,
}

impl Checkpointing {
    /// Creates the state machine for node `me`.
    pub fn new(config: CheckpointConfig, me: usize) -> Self {
        let n = config.gossip.n;
        let gossip_rounds = config.gossip.total_rounds();
        Checkpointing {
            // Dummy rumor: the value is irrelevant, only presence matters.
            gossip: Gossip::new(config.gossip, me, 1),
            consensus: None,
            consensus_config: config.consensus,
            me,
            n,
            gossip_rounds,
            decided: None,
            gossip_out: Vec::new(),
            consensus_out: Vec::new(),
            gossip_in: Vec::new(),
            consensus_in: Vec::new(),
        }
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

    /// Total rounds this protocol runs for.
    pub fn total_rounds(&self) -> u64 {
        self.gossip_rounds + self.consensus_config.total_rounds()
    }

    fn ensure_transition(&mut self) {
        if self.consensus.is_none() {
            let membership = match self.gossip.output() {
                Some(extant) => BitVector::from_set_bits(self.n, extant.present_nodes()),
                None => BitVector::from_set_bits(self.n, [self.me]),
            };
            self.consensus = Some(FewCrashesConsensus::new(
                self.consensus_config.clone(),
                self.me,
                membership,
            ));
        }
    }
}

impl SyncProtocol for Checkpointing {
    type Msg = CheckpointMsg;
    type Output = Checkpoint;

    #[expect(
        clippy::expect_used,
        reason = "`ensure_transition` on the line above installed the consensus phase"
    )]
    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<CheckpointMsg>>) {
        let r = round.as_u64();
        if r < self.gossip_rounds {
            self.gossip_out.clear();
            self.gossip.send(Round::new(r), &mut self.gossip_out);
            out.extend(
                self.gossip_out
                    .drain(..)
                    .map(|o| Outgoing::new(o.to, CheckpointMsg::Gossip(o.msg))),
            );
        } else {
            self.ensure_transition();
            self.consensus_out.clear();
            self.consensus
                .as_mut()
                .expect("transitioned")
                .send(Round::new(r - self.gossip_rounds), &mut self.consensus_out);
            out.extend(
                self.consensus_out
                    .drain(..)
                    .map(|o| Outgoing::new(o.to, CheckpointMsg::Consensus(o.msg))),
            );
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "this arm is only reached at a consensus round, after `send` installed the \
                  consensus phase"
    )]
    fn receive(&mut self, round: Round, inbox: &[Delivered<CheckpointMsg>]) {
        let r = round.as_u64();
        if r < self.gossip_rounds {
            self.gossip_in.clear();
            self.gossip_in
                .extend(inbox.iter().filter_map(|d| match &d.msg {
                    CheckpointMsg::Gossip(m) => Some(Delivered::new(d.from, m.clone())),
                    CheckpointMsg::Consensus(_) => None,
                }));
            self.gossip.receive(Round::new(r), &self.gossip_in);
        } else {
            self.ensure_transition();
            self.consensus_in.clear();
            self.consensus_in
                .extend(inbox.iter().filter_map(|d| match &d.msg {
                    CheckpointMsg::Consensus(m) => Some(Delivered::new(d.from, m.clone())),
                    CheckpointMsg::Gossip(_) => None,
                }));
            let consensus = self.consensus.as_mut().expect("transitioned");
            consensus.receive(Round::new(r - self.gossip_rounds), &self.consensus_in);
            if self.decided.is_none() {
                if let Some(vector) = consensus.output() {
                    self.decided = Some(vector.ones());
                }
            }
        }
    }

    fn output(&self) -> Option<Checkpoint> {
        self.decided.clone()
    }

    fn has_halted(&self) -> bool {
        self.consensus
            .as_ref()
            .is_some_and(|consensus| consensus.has_halted())
    }

    /// The running part's hint, in this protocol's rounds; the first round
    /// of Part 2 is never slept through (it builds the consensus instance
    /// from the gossip decision).
    fn quiet_until(&self, now: Round) -> Option<Round> {
        let handover = Round::new(self.gossip_rounds);
        if now < handover {
            return self.gossip.quiet_until(now).map(|r| r.min(handover));
        }
        let consensus_now = Round::new(now.as_u64() - self.gossip_rounds);
        let wake = self.consensus.as_ref()?.quiet_until(consensus_now)?;
        Some(wake + self.gossip_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::{FixedCrashSchedule, NoFaults, NodeId, RandomCrashes, Runner};

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
        runner.run(total + 2)
    }

    #[test]
    fn fault_free_checkpoint_is_everyone() {
        let n = 50;
        let t = 6;
        let report = run_checkpointing(n, t, Box::new(NoFaults), 0, 1);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree(), "all decided sets equal");
        let checkpoint = report.agreed_value().expect("agreed");
        assert_eq!(checkpoint.len(), n);
    }

    #[test]
    fn early_crashes_are_excluded_and_survivors_included() {
        let n = 60;
        let t = 8;
        // Crash nodes 1 and 2 at round 0 before they send anything.
        let adversary = FixedCrashSchedule::new().crash_all_at(0, [NodeId::new(1), NodeId::new(2)]);
        let report = run_checkpointing(n, t, Box::new(adversary), t, 2);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        let checkpoint = report.agreed_value().expect("agreed");
        // Condition (1): nodes that crashed before sending any message are
        // not in the decided checkpoint.
        assert!(!checkpoint.contains(&1));
        assert!(!checkpoint.contains(&2));
        // Condition (2): every node that halted operational is included.
        for id in report.non_faulty().iter() {
            assert!(
                checkpoint.contains(&id.index()),
                "operational node {} missing",
                id.index()
            );
        }
    }

    #[test]
    fn random_crashes_keep_agreement_on_checkpoint() {
        let n = 70;
        let t = 10;
        let adversary = RandomCrashes::new(n, t, 15, 33);
        let report = run_checkpointing(n, t, Box::new(adversary), t, 3);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        let checkpoint = report.agreed_value().expect("agreed");
        for id in report.non_faulty().iter() {
            assert!(checkpoint.contains(&id.index()));
        }
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
