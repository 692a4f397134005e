//! Execution reports produced by the runners.

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
/// helper methods answer queries (which nodes are non-faulty, which
/// decided, on what); [`check`] is the verdict against a [`Spec`].
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
impl<O> ExecutionReport<O> {
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

    /// The decision of `node`, if any.
    pub fn output_of(&self, node: NodeId) -> Option<&O> {
        self.outputs[node.index()].as_ref()
    }

    /// The unique decision value of non-faulty deciders, if they agree and at
    /// least one decided.  A query, not a verdict: [`check`] judges a run.
    pub fn agreed_value(&self) -> Option<&O>
    where
        O: PartialEq,
    {
        let non_faulty = self.non_faulty();
        let mut decisions = non_faulty.iter().filter_map(|id| self.output_of(id));
        let first = decisions.next()?;
        decisions.all(|other| other == first).then_some(first)
    }
}

/// The cost a [`Bound`] limits, named as [`Metrics`] names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cost {
    /// Rounds.
    Rounds,
    /// Messages.
    Messages,
    /// Bits.
    Bits,
}

/// What a theorem allows a run of one configuration to spend: the bound
/// half of a [`Spec`], derived from the proof (`dft_core::bounds`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bound {
    /// The theorem stating it, e.g. `"Theorem 9"`.
    pub theorem: &'static str,
    /// System size of the configuration.
    pub n: usize,
    /// Fault bound of the configuration.
    pub t: usize,
    /// Most rounds.
    pub rounds: u64,
    /// Most messages.
    pub messages: u64,
    /// Most bits, where the theorem bounds them.
    pub bits: Option<u64>,
}

impl Bound {
    /// The bound on `cost`, if there is one.
    pub fn limit(&self, cost: Cost) -> Option<u64> {
        match cost {
            Cost::Rounds => Some(self.rounds),
            Cost::Messages => Some(self.messages),
            Cost::Bits => self.bits,
        }
    }
}

/// How a run breaks its [`Spec`]: the first broken condition or bound
/// [`check`] finds, with the nodes or numbers that show it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Termination: non-faulty node `.0` did not decide.
    Termination(usize),
    /// Agreement: non-faulty deciders `.0` and `.1` decided differently.
    Agreement(usize, usize),
    /// Almost-everywhere agreement: `.0` non-faulty nodes decided, fewer
    /// than the `.1` required.
    Quorum(usize, usize),
    /// Validity: non-faulty node `.0` decided a value the spec does not
    /// allow.
    Validity(usize),
    /// Completeness: node `.0`'s decided set misses non-faulty node `.1`.
    Completeness(usize, usize),
    /// Genuineness: node `.0`'s decided set holds a pair for node `.1`
    /// that is not `.1`'s rumor.
    Genuineness(usize, usize),
    /// Cost `.0`: the run spent `.1`, over its bound `.2`.
    Exceeds(Cost, u64, Bound),
}

/// `value` with its digits in groups of three, as `16 646 803`.
fn grouped(value: u64) -> String {
    let digits = value.to_string();
    let mut out = String::new();
    for (i, digit) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(digit);
    }
    out
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::Termination(node) => write!(f, "termination: node {node} did not decide"),
            Violation::Agreement(a, b) => write!(f, "agreement: nodes {a} and {b} differ"),
            Violation::Quorum(had, needed) => write!(f, "quorum: {had} deciders < {needed}"),
            Violation::Validity(node) => write!(f, "validity: node {node} decided no valid value"),
            Violation::Completeness(node, of) => write!(f, "completeness: node {node} lacks {of}"),
            Violation::Genuineness(node, of) => write!(f, "genuineness: node {node} forged {of}"),
            Violation::Exceeds(cost, spent, bound) => {
                let limit = grouped(bound.limit(cost).unwrap_or(0));
                let (theorem, n, t) = (bound.theorem, bound.n, bound.t);
                let cost = format!("{cost:?}").to_lowercase();
                let spent = grouped(spent);
                write!(f, "{cost} {spent} > {limit} ({theorem}, n = {n}, t = {t})")
            }
        }
    }
}

/// Judges one non-faulty node's decision, given the non-faulty nodes.
type Judge<'a, O> = dyn Fn(NodeId, &O, &NodeSet) -> Result<(), Violation> + 'a;

/// What a run must meet: a problem's conditions and, where a theorem bounds
/// its cost, that bound.  [`Spec::consensus`] and [`Spec::decisions`] state
/// a problem; `dft_core::bounds` adds each theorem's bound.
pub struct Spec<'a, O> {
    /// `Some(k)`: only `k` non-faulty nodes need decide; `None`: all.
    quorum: Option<usize>,
    /// Whether the non-faulty deciders must decide one value.
    agree: bool,
    judge: Box<Judge<'a, O>>,
    bound: Option<Bound>,
}

impl<'a, O: PartialEq + 'a> Spec<'a, O> {
    /// Consensus: every non-faulty node decides (termination), all decide
    /// one value (agreement), and it is one of `valid` (validity).
    pub fn consensus(valid: &'a [O]) -> Self {
        let judge = move |node: NodeId, value: &O, _: &NodeSet| match valid.contains(value) {
            true => Ok(()),
            false => Err(Violation::Validity(node.index())),
        };
        Spec::decisions(judge).agreed()
    }

    /// Every non-faulty node decides, and `judge` accepts each decision on
    /// its own: decisions need not agree (gossip's need not).
    pub fn decisions(judge: impl Fn(NodeId, &O, &NodeSet) -> Result<(), Violation> + 'a) -> Self {
        let judge = Box::new(judge);
        let (quorum, agree, bound) = (None, false, None);
        Spec {
            quorum,
            agree,
            judge,
            bound,
        }
    }

    /// The non-faulty deciders must also decide one value (judged once).
    #[must_use]
    pub fn agreed(self) -> Self {
        Spec {
            agree: true,
            ..self
        }
    }

    /// Only `quorum` non-faulty nodes need decide: almost-everywhere
    /// agreement.
    #[must_use]
    pub fn at_least(self, quorum: usize) -> Self {
        let quorum = Some(quorum);
        Spec { quorum, ..self }
    }

    /// The run must also stay within `bound`.
    #[must_use]
    pub fn within(self, bound: Bound) -> Self {
        let bound = Some(bound);
        Spec { bound, ..self }
    }

    /// The spec's bound, if it has one.
    pub fn bound(&self) -> Option<&Bound> {
        self.bound.as_ref()
    }
}

/// The one verdict on a run: `Ok` when `report` meets `spec`, else the
/// first violation in this order: termination (or the quorum's count),
/// agreement, each decision's judge, then rounds, messages and bits.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check<O: PartialEq>(
    report: &ExecutionReport<O>,
    spec: &Spec<'_, O>,
) -> Result<(), Violation> {
    let non_faulty = report.non_faulty();
    let decisions = || {
        non_faulty
            .iter()
            .filter_map(|id| Some((id, report.output_of(id)?)))
    };
    let undecided = non_faulty.iter().find(|&id| report.output_of(id).is_none());
    if let (None, Some(node)) = (spec.quorum, undecided) {
        return Err(Violation::Termination(node.index()));
    }
    let mut all = decisions();
    if let (true, Some((first, value))) = (spec.agree, all.next()) {
        if let Some((second, _)) = all.find(|&(_, other)| other != value) {
            return Err(Violation::Agreement(first.index(), second.index()));
        }
    }
    let deciders = decisions().count();
    match spec.quorum {
        Some(needed) if deciders < needed => return Err(Violation::Quorum(deciders, needed)),
        _ => {}
    }
    // Agreeing decisions are one value: judging the first judges them all.
    let judged = if spec.agree { 1 } else { deciders };
    for (node, value) in decisions().take(judged) {
        (spec.judge)(node, value, &non_faulty)?;
    }
    let Some(bound) = spec.bound else {
        return Ok(());
    };
    let spent = [
        (Cost::Rounds, report.metrics.rounds),
        (Cost::Messages, report.metrics.messages),
        (Cost::Bits, report.metrics.bits),
    ];
    let over = spent
        .into_iter()
        .find(|&(cost, spent)| bound.limit(cost).is_some_and(|limit| spent > limit));
    over.map_or(Ok(()), |(cost, spent)| {
        Err(Violation::Exceeds(cost, spent, bound))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report on `outputs`, with `crashed` nodes crashed.
    fn report(outputs: &[Option<u8>], crashed: &[usize]) -> ExecutionReport<u8> {
        let n = outputs.len();
        let crashed_at = (0..n).map(|i| crashed.contains(&i).then(|| Round::new(1)));
        ExecutionReport {
            outputs: outputs.to_vec(),
            crashed_at: crashed_at.collect(),
            halted_at: vec![None; n],
            byzantine: NodeSet::empty(n),
            metrics: Metrics::new(),
            termination: Termination::AllHalted,
        }
    }

    #[test]
    fn agreement_checks() {
        let r = report(&[Some(1), Some(1), None, Some(1)], &[2]);
        assert_eq!(check(&r, &Spec::consensus(&[1])), Ok(()));
        assert_eq!(r.non_faulty().len(), 3);
        assert_eq!(r.agreed_value(), Some(&1));
    }

    #[test]
    fn disagreement_detected() {
        let r = report(&[Some(1), Some(0)], &[]);
        let split = Err(Violation::Agreement(0, 1));
        assert_eq!(check(&r, &Spec::consensus(&[0, 1])), split);
        assert_eq!(r.agreed_value(), None);
    }

    #[test]
    fn faulty_disagreement_ignored() {
        // Node 1 crashed after deciding differently; non-faulty deciders still agree.
        let r = report(&[Some(1), Some(0)], &[1]);
        assert_eq!(check(&r, &Spec::consensus(&[1])), Ok(()));
        assert_eq!(r.agreed_value(), Some(&1));
    }

    #[test]
    fn undecided_non_faulty_blocks_termination() {
        let r = report(&[Some(1), None], &[]);
        let undecided = Err(Violation::Termination(1));
        assert_eq!(check(&r, &Spec::consensus(&[1])), undecided);
    }

    /// Every condition and every bound of the checker, each on a report
    /// mutated to break it (and one that breaks nothing), with the first
    /// violation and its numbers asserted.
    #[test]
    fn check_names_the_first_condition_broken() {
        let bits = Some(1_000);
        let (theorem, n, t, rounds, messages) = ("Theorem 0", 3, 1, 10, 100);
        let bound = Bound {
            theorem,
            n,
            t,
            rounds,
            messages,
            bits,
        };
        let spent = |rounds, messages, bits| {
            let mut r = report(&[Some(1), Some(1), Some(2)], &[2]);
            r.metrics.rounds = rounds;
            r.metrics.record_messages(0, messages, bits);
            r
        };
        let over = |cost, spent| Err(Violation::Exceeds(cost, spent, bound));
        let c = &Spec::consensus(&[0, 1]).within(bound);
        let aea = &Spec::consensus(&[0, 1]).at_least(2);
        let (y, z, u) = (Some(1), Some(0), None);
        use Violation::{Agreement, Quorum, Termination, Validity};
        let rows = [
            ("holds", spent(10, 100, 1_000), c, Ok(())),
            ("undecided", report(&[y, z, u], &[]), c, Err(Termination(2))),
            ("split", report(&[y, y, z], &[]), c, Err(Agreement(0, 2))),
            (
                "invalid",
                report(&[Some(2), Some(2)], &[]),
                c,
                Err(Validity(0)),
            ),
            ("quorum met", report(&[y, u, y], &[]), aea, Ok(())),
            (
                "quorum missed",
                report(&[y, u, y], &[2]),
                aea,
                Err(Quorum(1, 2)),
            ),
            ("late", spent(11, 100, 1_000), c, over(Cost::Rounds, 11)),
            (
                "chatty",
                spent(10, 101, 1_000),
                c,
                over(Cost::Messages, 101),
            ),
            ("wordy", spent(10, 100, 1_001), c, over(Cost::Bits, 1_001)),
        ];
        for (label, report, spec, verdict) in rows {
            assert_eq!(check(&report, spec), verdict, "{label}");
        }
        let wordy = Violation::Exceeds(Cost::Messages, 16_646_803, bound).to_string();
        assert_eq!(wordy, "messages 16 646 803 > 100 (Theorem 0, n = 3, t = 1)");
    }
}
