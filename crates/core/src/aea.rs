//! `Almost-Everywhere-Agreement` (Section 4.1, Figure 1, Theorem 5).
//!
//! With `t < n/5`, the `5t` nodes with the smallest names (the *little
//! nodes*) run three parts:
//!
//! 1. **Broadcasting** (`5t − 1` rounds): little nodes flood the non-bottom
//!    candidate value along the little-node overlay `G` (in the paper,
//!    rumor `1`; generically, any change produced by the join).
//! 2. **Local probing** (`2 + ⌈lg 5t⌉` rounds): little nodes probe `G`;
//!    survivors decide on their candidate value.
//! 3. **Notification** (1 round): little deciders notify their *related*
//!    nodes (same name modulo `5t`), which adopt the decision.  With every
//!    node little (`Many-Crashes-Consensus`) no node is related to another,
//!    and the part has no round.
//!
//! Theorem 5: at least `3/5·n` nodes decide the same valid value, in `O(t)`
//! rounds with `O(n)` one-bit messages.
//!
//! The implementation is generic over [`JoinValue`] so that the same state
//! machine runs the paper's binary instance (`bool`, join = OR) and the
//! vectorised instance used by checkpointing ([`crate::BitVector`]).

use std::sync::Arc;

use dft_overlay::{Graph, Neighbors};
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::{related_nodes, SystemConfig};
use crate::error::CoreResult;
use crate::local_probing::LocalProbing;
use crate::values::JoinValue;

/// Static configuration shared by every node running
/// [`AlmostEverywhereAgreement`].
#[derive(Clone, Debug)]
pub struct AeaConfig {
    /// Number of nodes in the system.
    pub n: usize,
    /// Number of little nodes (`5t`, clamped to `[1, n]`; `n` in
    /// `Many-Crashes-Consensus`).
    pub little: usize,
    /// The little-node overlay graph (vertex `i` is the node with index `i`).
    pub graph: Arc<Graph>,
    /// Survival threshold `δ` for local probing.
    pub delta: usize,
    /// Local-probing duration `γ`.
    pub gamma: u64,
    /// Length of the broadcasting part (the paper uses `5t − 1`).
    pub part1_rounds: u64,
}

impl AeaConfig {
    /// Derives the configuration from a [`SystemConfig`].
    ///
    /// The probing threshold `δ` is clamped to the overlay's minimum degree
    /// so that a fault-free execution always has survivors (relevant only for
    /// degenerate, very small overlays; see `DESIGN.md`).
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/5`.
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        config.require_few_crashes()?;
        let little = config.little_count();
        let params = config.little_params();
        let graph = config.little_graph();
        let delta = params.delta.min(graph.min_degree());
        Ok(AeaConfig {
            n: config.n,
            little,
            graph,
            delta,
            gamma: params.gamma as u64,
            part1_rounds: (5 * config.t).saturating_sub(1).max(1) as u64,
        })
    }

    /// Total number of rounds of the protocol (Parts 1–3; Part 3 only if
    /// some node is not little).
    pub fn total_rounds(&self) -> u64 {
        self.part1_rounds + self.gamma + u64::from(self.little < self.n)
    }

    /// First round of the local-probing part.
    fn probing_start(&self) -> u64 {
        self.part1_rounds
    }

    /// The single notification round (Part 3).
    fn notify_round(&self) -> u64 {
        self.part1_rounds + self.gamma
    }
}

/// Messages of `Almost-Everywhere-Agreement`.
///
/// The paper's messages carry a single bit; the role (rumor vs decision) is
/// determined by the round in which the message is sent, so the wire cost of
/// a variant is just the value's width.
#[derive(Clone, Debug, PartialEq)]
pub enum AeaMsg<V> {
    /// A candidate value flooded in Parts 1–2.
    Rumor(V),
    /// A decision notified to related nodes in Part 3.
    Decision(V),
}

impl<V: JoinValue> Payload for AeaMsg<V> {
    fn bit_len(&self) -> u64 {
        match self {
            AeaMsg::Rumor(v) | AeaMsg::Decision(v) => v.bit_len(),
        }
    }
}

/// Per-node state machine for `Almost-Everywhere-Agreement`.
#[derive(Clone, Debug)]
pub struct AlmostEverywhereAgreement<V: JoinValue> {
    config: AeaConfig,
    me: usize,
    candidate: V,
    pending_flood: bool,
    probe: LocalProbing,
    decided: Option<V>,
    halted: bool,
}

impl<V: JoinValue> AlmostEverywhereAgreement<V> {
    /// Creates the state machine for node `me` with the given input value.
    pub fn new(config: AeaConfig, me: usize, input: V) -> Self {
        let is_little = me < config.little;
        let pending_flood = is_little && !input.is_bottom();
        let probe = LocalProbing::new(config.delta, config.gamma, is_little);
        AlmostEverywhereAgreement {
            config,
            me,
            candidate: input,
            pending_flood,
            probe,
            decided: None,
            halted: false,
        }
    }

    /// Builds the state machines for all `n` nodes from a system
    /// configuration and per-node inputs.
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
        let shared = AeaConfig::from_system(config)?;
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(me, input)| Self::new(shared.clone(), me, input.clone()))
            .collect())
    }

    /// Total rounds this protocol runs for.
    pub fn total_rounds(&self) -> u64 {
        self.config.total_rounds()
    }

    /// Whether this node is a little node.
    pub fn is_little(&self) -> bool {
        self.me < self.config.little
    }

    fn little_neighbors(&self) -> Neighbors<'_> {
        if self.is_little() {
            self.config.graph.neighbors(self.me)
        } else {
            Neighbors::default()
        }
    }
}

impl<V: JoinValue> SyncProtocol for AlmostEverywhereAgreement<V> {
    type Msg = AeaMsg<V>;
    type Output = V;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<AeaMsg<V>>>) {
        let r = round.as_u64();
        if r < self.config.probing_start() {
            // Part 1: flood the candidate when it is new.
            if self.is_little() && self.pending_flood {
                self.pending_flood = false;
                let rumor =
                    |v| Outgoing::new(NodeId::new(v), AeaMsg::Rumor(self.candidate.clone()));
                out.extend(self.little_neighbors().map(rumor));
            }
        } else if r < self.config.notify_round() {
            // Part 2: local probing — send to every neighbour unless paused.
            if self.probe.should_send() {
                let rumor =
                    |v| Outgoing::new(NodeId::new(v), AeaMsg::Rumor(self.candidate.clone()));
                out.extend(self.little_neighbors().map(rumor));
            }
        } else if r == self.config.notify_round() {
            // Part 3: little deciders notify their related nodes.
            if self.is_little() {
                if let Some(decision) = &self.decided {
                    let related = related_nodes(self.config.n, self.config.little, self.me);
                    out.extend(related.map(|v| {
                        Outgoing::new(NodeId::new(v), AeaMsg::Decision(decision.clone()))
                    }));
                }
            }
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<AeaMsg<V>>]) {
        let r = round.as_u64();
        if r < self.config.probing_start() {
            for msg in inbox {
                if let AeaMsg::Rumor(v) = &msg.msg {
                    if self.candidate.join_in_place(v) {
                        self.pending_flood = true;
                    }
                }
            }
        } else if r < self.config.notify_round() {
            let mut received = 0;
            for msg in inbox {
                if let AeaMsg::Rumor(v) = &msg.msg {
                    received += 1;
                    self.candidate.join_in_place(v);
                }
            }
            self.probe.observe_round(received);
            if r + 1 == self.config.notify_round() && self.is_little() && self.probe.survived() {
                self.decided = Some(self.candidate.clone());
            }
        } else if r == self.config.notify_round() {
            for msg in inbox {
                if let AeaMsg::Decision(v) = &msg.msg {
                    if self.decided.is_none() {
                        self.decided = Some(v.clone());
                    }
                }
            }
            self.halted = true;
        }
    }

    fn output(&self) -> Option<V> {
        self.decided.clone()
    }

    fn has_halted(&self) -> bool {
        self.halted
    }

    /// Only little nodes ever speak before the notification round, and in
    /// Part 1 only when a rumor gave them something new to flood: everyone
    /// else waits for a message or for the next part of the schedule.
    /// During probing a little node sends (or counts silence) every round
    /// and keeps the default.
    fn quiet_until(&self, now: Round) -> Option<Round> {
        if !self.is_little() {
            // Skipped probing rounds leave `probe` behind, which nothing
            // reads at a node that sits probing out.
            return Some(Round::new(self.config.notify_round()));
        }
        let flooding_over = now.as_u64() + 1 >= self.config.probing_start();
        (!self.pending_flood && !flooding_over).then(|| Round::new(self.config.probing_start()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dft_sim::{check, NoFaults, RandomCrashes, Runner, TargetedCrashes, Violation};

    /// Runs AEA on `inputs` and judges the run by Theorem 5's spec, with
    /// `valid` as the values a decision may take.
    fn run_aea(
        n: usize,
        t: usize,
        inputs: &[bool],
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
        valid: &[bool],
    ) -> Result<(), Violation> {
        let config = SystemConfig::new(n, t).unwrap().with_seed(11);
        let nodes = AlmostEverywhereAgreement::for_all_nodes(&config, inputs).unwrap();
        let total = AeaConfig::from_system(&config).unwrap().total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        check(&runner.run(total + 2), &bounds::aea(&config, valid))
    }

    #[test]
    fn all_ones_fault_free_everyone_decides_one() {
        let n = 60;
        let verdict = run_aea(n, 8, &vec![true; n], Box::new(NoFaults), 0, &[true]);
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn all_zeros_decides_zero() {
        let n = 60;
        let verdict = run_aea(n, 8, &vec![false; n], Box::new(NoFaults), 0, &[false]);
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn mixed_inputs_agree_on_some_input_value() {
        let n = 80;
        let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let verdict = run_aea(n, 10, &inputs, Box::new(NoFaults), 0, &inputs);
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn survives_random_crashes_within_budget() {
        let n = 100;
        let t = 15;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let adversary = RandomCrashes::new(n, t, 40, 77);
        let verdict = run_aea(n, t, &inputs, Box::new(adversary), t, &inputs);
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn targeted_crashes_on_little_nodes_do_not_break_agreement() {
        let n = 100;
        let t = 12;
        let inputs = vec![true; n];
        // Crash little nodes one per round from the start — the worst place
        // to attack Part 1.
        let victims: Vec<NodeId> = (0..t).map(NodeId::new).collect();
        let adversary = TargetedCrashes::one_per_round(victims);
        let verdict = run_aea(n, t, &inputs, Box::new(adversary), t, &[true]);
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn message_count_is_linear_in_n() {
        let n = 200;
        let t = 20;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let verdict = run_aea(n, t, &inputs, Box::new(NoFaults), 0, &inputs);
        assert_eq!(verdict, Ok(()));
        // Theorem 5's bound itself stays far below the all-to-all n².
        let bound = bounds::theorem5(&SystemConfig::new(n, t).unwrap());
        assert!(bound.messages < (n * n) as u64, "{bound:?}");
    }

    #[test]
    fn rounds_are_linear_in_t() {
        let config = SystemConfig::new(500, 40).unwrap();
        let aea = AeaConfig::from_system(&config).unwrap();
        assert!(aea.total_rounds() <= 5 * 40 + aea.gamma + 2);
    }

    #[test]
    fn vectorised_instance_agrees_per_coordinate() {
        use crate::values::BitVector;
        let n = 50;
        let t = 6;
        let config = SystemConfig::new(n, t).unwrap().with_seed(3);
        let inputs: Vec<BitVector> = (0..n).map(|i| BitVector::from_set_bits(n, [i])).collect();
        let nodes = AlmostEverywhereAgreement::for_all_nodes(&config, &inputs).unwrap();
        let total = AeaConfig::from_system(&config).unwrap().total_rounds();
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(total + 2);
        let agreed = report.agreed_value().expect("deciders exist and agree");
        // The decision is the join of the little nodes' inputs (Part 1 floods
        // only among little nodes), so every little-node bit must be present
        // and nothing outside the union of all inputs may appear.
        let little = config.little_count();
        for bit in 0..little {
            assert!(agreed.get(bit), "little-node bit {bit} missing");
        }
        assert!(agreed.count_ones() <= n);
    }

    #[test]
    fn rejects_too_many_crashes() {
        let config = SystemConfig::new(20, 5).unwrap();
        assert!(AlmostEverywhereAgreement::<bool>::for_all_nodes(&config, &[false; 20]).is_err());
    }
}
