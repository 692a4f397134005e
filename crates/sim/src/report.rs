//! Execution reports produced by the runners.

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::Metrics;
use crate::node::{NodeId, NodeSet};
use crate::round::Round;

/// Why an execution ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Every non-faulty node halted voluntarily.
    AllHalted,
    /// The round cap was reached before every non-faulty node halted.
    RoundLimit,
}

/// The outcome of a simulated execution.
///
/// Indexed views (`outputs`, `crashed_at`, `halted_at`) are per node.  The
/// helper methods implement the checks the paper's correctness definitions
/// need: which nodes decided, whether all deciders agree, and so on.
///
/// Reports compare by value (given comparable outputs); the determinism
/// suite relies on this to assert that serial and parallel executions of the
/// same seeded workload are indistinguishable.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionReport<O> {
    /// Per-node decision value, if the node decided.
    pub outputs: Vec<Option<O>>,
    /// Per-node crash round, if the node crashed.
    pub crashed_at: Vec<Option<Round>>,
    /// Per-node voluntary halt round, if the node halted.
    pub halted_at: Vec<Option<Round>>,
    /// Which nodes were Byzantine (empty set for crash-only executions).
    pub byzantine: NodeSet,
    /// Communication and runtime metrics.
    pub metrics: Metrics,
    /// Why the execution stopped.
    pub termination: Termination,
}

#[expect(
    clippy::indexing_slicing,
    reason = "the per-node vectors are sized n by the runner that produced the report, and ids \
              come from 0..n or the report's own NodeSets"
)]
impl<O: Clone + PartialEq + fmt::Debug> ExecutionReport<O> {
    /// Number of nodes in the execution.
    pub fn n(&self) -> usize {
        self.outputs.len()
    }

    /// Nodes that crashed.
    pub fn crashed(&self) -> NodeSet {
        NodeSet::from_iter(
            self.n(),
            self.crashed_at
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .map(|(i, _)| NodeId::new(i)),
        )
    }

    /// Nodes that are non-faulty: neither crashed nor Byzantine.
    pub fn non_faulty(&self) -> NodeSet {
        NodeSet::from_iter(
            self.n(),
            (0..self.n()).map(NodeId::new).filter(|&id| {
                self.crashed_at[id.index()].is_none() && !self.byzantine.contains(id)
            }),
        )
    }

    /// Nodes that decided (produced an output), including ones that later
    /// crashed.
    pub fn deciders(&self) -> NodeSet {
        NodeSet::from_iter(
            self.n(),
            self.outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_some())
                .map(|(i, _)| NodeId::new(i)),
        )
    }

    /// Non-faulty nodes that decided.
    pub fn non_faulty_deciders(&self) -> NodeSet {
        let mut set = self.deciders();
        set.intersect_with(&self.non_faulty());
        set
    }

    /// The decision of `node`, if any.
    pub fn output_of(&self, node: NodeId) -> Option<&O> {
        self.outputs[node.index()].as_ref()
    }

    /// Whether every pair of deciding nodes decided on the same value
    /// (the paper's *agreement* condition restricted to deciders).
    pub fn deciders_agree(&self) -> bool {
        let mut first: Option<&O> = None;
        for output in self.outputs.iter().flatten() {
            match first {
                None => first = Some(output),
                Some(v) if v == output => {}
                Some(_) => return false,
            }
        }
        true
    }

    /// Whether every pair of *non-faulty* deciding nodes agrees.
    pub fn non_faulty_deciders_agree(&self) -> bool {
        let non_faulty = self.non_faulty();
        let mut first: Option<&O> = None;
        for (i, output) in self.outputs.iter().enumerate() {
            if !non_faulty.contains(NodeId::new(i)) {
                continue;
            }
            if let Some(output) = output {
                match first {
                    None => first = Some(output),
                    Some(v) if v == output => {}
                    Some(_) => return false,
                }
            }
        }
        true
    }

    /// Whether every non-faulty node decided (the paper's *termination*
    /// condition for consensus, gossiping and checkpointing).
    pub fn all_non_faulty_decided(&self) -> bool {
        let non_faulty = self.non_faulty();
        let all_decided = non_faulty
            .iter()
            .all(|id| self.outputs[id.index()].is_some());
        all_decided
    }

    /// The unique decision value of non-faulty deciders, if they agree and at
    /// least one decided.
    pub fn agreed_value(&self) -> Option<&O> {
        if !self.non_faulty_deciders_agree() {
            return None;
        }
        let non_faulty = self.non_faulty();
        self.outputs
            .iter()
            .enumerate()
            .filter(|(i, _)| non_faulty.contains(NodeId::new(*i)))
            .find_map(|(_, o)| o.as_ref())
    }

    /// The first of consensus's three conditions this execution breaks:
    /// `"termination"` (a non-faulty node did not decide), `"agreement"`
    /// (two non-faulty deciders differ) or `"validity"` (`valid` rejects
    /// the value they agree on).  `None` when all three hold.
    pub fn consensus_violation(&self, valid: impl Fn(&O) -> bool) -> Option<&'static str> {
        if !self.all_non_faulty_decided() {
            Some("termination")
        } else if !self.non_faulty_deciders_agree() {
            Some("agreement")
        } else if self.agreed_value().is_some_and(|v| !valid(v)) {
            Some("validity")
        } else {
            None
        }
    }

    /// Histogram of decision values among non-faulty deciders (useful when
    /// checking almost-everywhere agreement, where a minority may be
    /// undecided but deciders must agree).
    pub fn decision_histogram(&self) -> BTreeMap<String, usize>
    where
        O: fmt::Debug,
    {
        let mut hist = BTreeMap::new();
        let non_faulty = self.non_faulty();
        for (i, output) in self.outputs.iter().enumerate() {
            if !non_faulty.contains(NodeId::new(i)) {
                continue;
            }
            if let Some(o) = output {
                *hist.entry(format!("{o:?}")).or_insert(0) += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(outputs: Vec<Option<u8>>, crashed: Vec<Option<Round>>) -> ExecutionReport<u8> {
        let n = outputs.len();
        ExecutionReport {
            outputs,
            crashed_at: crashed,
            halted_at: vec![None; n],
            byzantine: NodeSet::empty(n),
            metrics: Metrics::new(),
            termination: Termination::AllHalted,
        }
    }

    #[test]
    fn agreement_checks() {
        let r = report(
            vec![Some(1), Some(1), None, Some(1)],
            vec![None, None, Some(Round::new(2)), None],
        );
        assert!(r.deciders_agree());
        assert!(r.non_faulty_deciders_agree());
        assert_eq!(r.deciders().len(), 3);
        assert_eq!(r.non_faulty().len(), 3);
        assert!(r.all_non_faulty_decided());
        assert_eq!(r.agreed_value(), Some(&1));
    }

    #[test]
    fn disagreement_detected() {
        let r = report(vec![Some(1), Some(0)], vec![None, None]);
        assert!(!r.deciders_agree());
        assert!(!r.non_faulty_deciders_agree());
        assert_eq!(r.agreed_value(), None);
    }

    #[test]
    fn faulty_disagreement_ignored() {
        // Node 1 crashed after deciding differently; non-faulty deciders still agree.
        let r = report(vec![Some(1), Some(0)], vec![None, Some(Round::new(0))]);
        assert!(!r.deciders_agree());
        assert!(r.non_faulty_deciders_agree());
        assert_eq!(r.agreed_value(), Some(&1));
    }

    #[test]
    fn histogram_counts_non_faulty_only() {
        let r = report(
            vec![Some(1), Some(1), Some(0)],
            vec![None, None, Some(Round::new(1))],
        );
        let hist = r.decision_histogram();
        assert_eq!(hist.get("1"), Some(&2));
        assert_eq!(hist.get("0"), None);
    }

    #[test]
    fn consensus_violation_names_the_first_condition_broken() {
        let valid = |v: &u8| *v <= 1;
        let crashed = Some(Round::new(1));
        let holds = report(vec![Some(1), Some(1), Some(2)], vec![None, None, crashed]);
        assert_eq!(holds.consensus_violation(valid), None);
        let undecided = report(vec![Some(1), Some(0), None], vec![None; 3]);
        assert_eq!(undecided.consensus_violation(valid), Some("termination"));
        let split = report(vec![Some(1), Some(0)], vec![None; 2]);
        assert_eq!(split.consensus_violation(valid), Some("agreement"));
        let invalid = report(vec![Some(2), Some(2)], vec![None; 2]);
        assert_eq!(invalid.consensus_violation(valid), Some("validity"));
    }

    #[test]
    fn undecided_non_faulty_blocks_termination() {
        let r = report(vec![Some(1), None], vec![None, None]);
        assert!(!r.all_non_faulty_decided());
    }
}
