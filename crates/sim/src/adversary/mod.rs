//! Fault adversaries.
//!
//! The paper's adversary controls *when* nodes fail (Section 2).  For crash
//! failures the adversary picks, per round, which nodes crash and — for a
//! node crashing mid-round — which subset of its outgoing messages still gets
//! delivered.  For authenticated Byzantine faults the adversary replaces a
//! node's state machine entirely (see [`byzantine`]), subject to the
//! constraint, enforced by the `dft-auth` substrate, that it cannot forge
//! other nodes' signatures.

mod crash;

pub mod byzantine;

pub use crash::{
    AdaptiveSplitAdversary, CrashAdversary, CrashDirective, DeliveryFilter, FixedCrashSchedule,
    NoFaults, RandomCrashes, TargetedCrashes,
};

use crate::node::{NodeId, NodeSet};
use crate::round::Round;

/// What an adversary is allowed to observe before deciding this round's
/// crashes.
///
/// The paper's adversary is adaptive and omniscient: it sees the full state
/// of the system.  We expose the alive set and every node's intended message
/// destinations (and, in the single-port model, poll choices), which is what
/// the adaptive strategies in this repository need — notably the
/// information-splitting adversary from the Theorem 13 lower bound.
///
/// Only a runner that holds the whole round in this process shows the two
/// intent views: it lends its core's own per-node slices.  A host that
/// holds no intents (the sharded runners, a mesh node) shows empty slices,
/// and accepts only an adversary that declares it never reads them
/// ([`CrashAdversary::oblivious`]).
#[derive(Debug)]
pub struct AdversaryView<'a> {
    /// The round being planned.
    pub round: Round,
    /// Nodes that are operational at the start of this round.
    pub alive: &'a NodeSet,
    /// Nodes that have already crashed in earlier rounds.
    pub crashed: &'a NodeSet,
    /// For every node (indexed by node id), the destinations it intends to
    /// send to this round.  Crashed and halted nodes have empty intent lists.
    pub send_intents: &'a [Vec<NodeId>],
    /// The port each node (indexed by node id) intends to poll this round.
    ///
    /// Per-model meaning: in the **single-port** model this is each node's
    /// poll choice (`None` when idle; crashed and halted nodes are `None`).
    /// In the **multi-port** model there is no polling, but the runner still
    /// supplies one `None` slot per node so adversaries may index
    /// `poll_intents[node]` without checking which model they run under.
    pub poll_intents: &'a [Option<NodeId>],
    /// How many more crashes the fault budget allows.
    pub remaining_budget: usize,
}

impl<'a> AdversaryView<'a> {
    /// Number of nodes in the system.
    pub fn n(&self) -> usize {
        self.alive.universe()
    }

    /// Whether a node can still be crashed this round (alive and budget
    /// remaining).
    pub fn can_crash(&self, node: NodeId) -> bool {
        self.remaining_budget > 0 && self.alive.contains(node)
    }
}
