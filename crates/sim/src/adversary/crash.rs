//! Crash adversaries and concrete crash schedules.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::AdversaryView;
use crate::node::NodeId;

/// Which of a crashing node's outgoing messages are still delivered in the
/// round it crashes.
///
/// The paper allows a node to crash "at a round", stopping activity in the
/// following rounds; a node crashing while sending may reach an arbitrary
/// subset of its recipients, and the adversary chooses that subset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeliveryFilter {
    /// Every message the node attempted this round is delivered (the node
    /// crashes "after sending").
    All,
    /// No message is delivered (the node crashes "before sending").
    None,
    /// Only the first `k` messages, in the order the protocol emitted them,
    /// are delivered.
    Prefix(usize),
    /// Only messages to the listed destinations are delivered.
    Only(Vec<NodeId>),
}

impl DeliveryFilter {
    /// Whether the `index`-th outgoing message, addressed to `to`, survives.
    pub fn allows(&self, index: usize, to: NodeId) -> bool {
        match self {
            DeliveryFilter::All => true,
            DeliveryFilter::None => false,
            DeliveryFilter::Prefix(k) => index < *k,
            DeliveryFilter::Only(dests) => dests.contains(&to),
        }
    }
}

/// A single crash decision: which node crashes this round and which of its
/// in-flight messages still get through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashDirective {
    /// The node to crash.
    pub node: NodeId,
    /// Which of its outgoing messages (this round) are still delivered.
    pub deliver: DeliveryFilter,
}

impl CrashDirective {
    /// Crash `node` before it manages to send anything this round.
    pub fn silent(node: NodeId) -> Self {
        CrashDirective {
            node,
            deliver: DeliveryFilter::None,
        }
    }

    /// Crash `node` after all of its round messages have been sent.
    pub fn after_send(node: NodeId) -> Self {
        CrashDirective {
            node,
            deliver: DeliveryFilter::All,
        }
    }
}

/// An adversary controlling crash failures.
///
/// The runner calls [`CrashAdversary::plan_round`] once per round, before
/// messages are delivered, and enforces the global fault budget `t`:
/// directives beyond the budget are ignored in the order returned.
///
/// An adversary is *adaptive* unless it declares itself
/// [`oblivious`](CrashAdversary::oblivious).  Only a runner that holds the
/// whole round in this process ([`crate::Runner`],
/// [`crate::SinglePortRunner`]) can show an adaptive one the intents it
/// reads; the sharded runners and a mesh node refuse it.
pub trait CrashAdversary {
    /// Decide which nodes crash in the round described by `view`.
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective>;

    /// Whether [`CrashAdversary::plan_round`] reads neither
    /// `view.send_intents` nor `view.poll_intents`: its directives follow
    /// from the round, the alive and crashed sets and the budget alone, so
    /// a host that cannot show the round's intents may leave them empty.
    fn oblivious(&self) -> bool {
        false
    }
}

/// The fault-free adversary: nobody ever crashes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl CrashAdversary for NoFaults {
    fn plan_round(&mut self, _view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        Vec::new()
    }

    fn oblivious(&self) -> bool {
        true
    }
}

/// A fixed crash schedule: a map from round number to the directives applied
/// in that round.
///
/// # Examples
///
/// ```
/// use dft_sim::{CrashDirective, FixedCrashSchedule, NodeId};
///
/// let schedule = FixedCrashSchedule::new()
///     .crash_at(2, CrashDirective::silent(NodeId::new(0)))
///     .crash_at(2, CrashDirective::after_send(NodeId::new(1)))
///     .crash_at(5, CrashDirective::silent(NodeId::new(2)));
/// assert_eq!(schedule.planned_crashes(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FixedCrashSchedule {
    by_round: BTreeMap<u64, Vec<CrashDirective>>,
}

impl FixedCrashSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a directive for the given round, returning the schedule for
    /// chaining.
    pub fn crash_at(mut self, round: u64, directive: CrashDirective) -> Self {
        self.by_round.entry(round).or_default().push(directive);
        self
    }

    /// Crashes all listed nodes silently at the given round.
    pub fn crash_all_at<I: IntoIterator<Item = NodeId>>(mut self, round: u64, nodes: I) -> Self {
        let entry = self.by_round.entry(round).or_default();
        entry.extend(nodes.into_iter().map(CrashDirective::silent));
        self
    }

    /// Total number of crashes in the schedule.
    pub fn planned_crashes(&self) -> usize {
        self.by_round.values().map(Vec::len).sum()
    }
}

impl CrashAdversary for FixedCrashSchedule {
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        self.by_round
            .remove(&view.round.as_u64())
            .unwrap_or_default()
    }

    fn oblivious(&self) -> bool {
        true
    }
}

/// Crashes up to `budget` random nodes, each in a uniformly random round of
/// `[0, horizon)`, with a random delivery filter.  Deterministic for a fixed
/// seed.
#[derive(Clone, Debug)]
pub struct RandomCrashes {
    schedule: FixedCrashSchedule,
}

impl RandomCrashes {
    /// Plans `budget` crashes among `n` nodes across the first `horizon`
    /// rounds using the given seed.
    pub fn new(n: usize, budget: usize, horizon: u64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut victims: Vec<usize> = (0..n).collect();
        victims.shuffle(&mut rng);
        victims.truncate(budget.min(n));
        let mut schedule = FixedCrashSchedule::new();
        for victim in victims {
            let round = rng.gen_range(0..horizon.max(1));
            let deliver = match rng.gen_range(0..3u8) {
                0 => DeliveryFilter::All,
                1 => DeliveryFilter::None,
                _ => DeliveryFilter::Prefix(rng.gen_range(0..8)),
            };
            schedule = schedule.crash_at(
                round,
                CrashDirective {
                    node: NodeId::new(victim),
                    deliver,
                },
            );
        }
        RandomCrashes { schedule }
    }

    /// The planned crashes, in round order.  The victims are distinct, so a
    /// run whose fault budget is at least `budget` applies every one whose
    /// round it reaches.
    pub fn planned(&self) -> impl Iterator<Item = (u64, &CrashDirective)> + '_ {
        let by_round = self.schedule.by_round.iter();
        by_round.flat_map(|(round, directives)| directives.iter().map(|d| (*round, d)))
    }
}

impl CrashAdversary for RandomCrashes {
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        self.schedule.plan_round(view)
    }

    fn oblivious(&self) -> bool {
        true
    }
}

/// Crashes a specific set of victims spread evenly over a window of rounds —
/// used to attack the algorithms where it hurts most (e.g. crash little
/// nodes during Part 1 of `Almost-Everywhere-Agreement`, or crash one node
/// per round to stretch an early-stopping execution).
#[derive(Clone, Debug)]
pub struct TargetedCrashes {
    victims: Vec<NodeId>,
    start_round: u64,
    per_round: usize,
    next: usize,
}

impl TargetedCrashes {
    /// Crashes the `victims` starting at `start_round`, `per_round` of them
    /// in each consecutive round.
    ///
    /// # Panics
    ///
    /// Panics if `per_round` is zero.
    pub fn new(victims: Vec<NodeId>, start_round: u64, per_round: usize) -> Self {
        assert!(per_round > 0, "per_round must be positive");
        TargetedCrashes {
            victims,
            start_round,
            per_round,
            next: 0,
        }
    }

    /// One victim per round starting at round 0 — the classic schedule that
    /// forces `f + 1`-style round lower bounds.
    pub fn one_per_round(victims: Vec<NodeId>) -> Self {
        Self::new(victims, 0, 1)
    }
}

impl CrashAdversary for TargetedCrashes {
    #[expect(
        clippy::indexing_slicing,
        reason = "sliced from `next`, checked below the list's length on entry, to an end clamped \
                  to that length"
    )]
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        if view.round.as_u64() < self.start_round || self.next >= self.victims.len() {
            return Vec::new();
        }
        let end = (self.next + self.per_round).min(self.victims.len());
        let batch = self.victims[self.next..end]
            .iter()
            .map(|&v| CrashDirective::silent(v))
            .collect();
        self.next = end;
        batch
    }

    fn oblivious(&self) -> bool {
        true
    }
}

/// The adaptive adversary used in the proof of Theorem 13 (single-port lower
/// bound): it watches a distinguished node `v` and, every round, crashes the
/// node `v` sends to and the node `v` polls, so that no information ever
/// crosses between `v` and the rest of the system, for as long as the fault
/// budget lasts.
#[derive(Clone, Debug)]
pub struct AdaptiveSplitAdversary {
    victim_watch: NodeId,
}

impl AdaptiveSplitAdversary {
    /// Creates the adversary isolating node `victim_watch`.
    pub fn new(victim_watch: NodeId) -> Self {
        AdaptiveSplitAdversary { victim_watch }
    }

    /// The node whose communication is being cut.
    pub fn watched(&self) -> NodeId {
        self.victim_watch
    }
}

impl CrashAdversary for AdaptiveSplitAdversary {
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        let mut directives = Vec::new();
        let v = self.victim_watch;
        // Crash whoever v would talk to this round, before any message flows.
        if let Some(dests) = view.send_intents.get(v.index()) {
            for &dest in dests {
                if view.can_crash(dest) && directives.len() < view.remaining_budget {
                    directives.push(CrashDirective::silent(dest));
                }
            }
        }
        if let Some(Some(port)) = view.poll_intents.get(v.index()) {
            if view.can_crash(*port)
                && directives.len() < view.remaining_budget
                && !directives.iter().any(|d| d.node == *port)
            {
                directives.push(CrashDirective::silent(*port));
            }
        }
        // Also suppress anyone trying to send *to* v this round.
        for (sender, dests) in view.send_intents.iter().enumerate() {
            let sender = NodeId::new(sender);
            if sender == v {
                continue;
            }
            if dests.contains(&v)
                && view.can_crash(sender)
                && directives.len() < view.remaining_budget
                && !directives.iter().any(|d| d.node == sender)
            {
                directives.push(CrashDirective::silent(sender));
            }
        }
        directives
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSet;
    use crate::round::Round;

    fn view<'a>(
        round: u64,
        alive: &'a NodeSet,
        crashed: &'a NodeSet,
        intents: &'a [Vec<NodeId>],
        polls: &'a [Option<NodeId>],
        budget: usize,
    ) -> AdversaryView<'a> {
        AdversaryView {
            round: Round::new(round),
            alive,
            crashed,
            send_intents: intents,
            poll_intents: polls,
            remaining_budget: budget,
        }
    }

    #[test]
    fn delivery_filter_semantics() {
        assert!(DeliveryFilter::All.allows(10, NodeId::new(0)));
        assert!(!DeliveryFilter::None.allows(0, NodeId::new(0)));
        assert!(DeliveryFilter::Prefix(2).allows(1, NodeId::new(9)));
        assert!(!DeliveryFilter::Prefix(2).allows(2, NodeId::new(9)));
        let only = DeliveryFilter::Only(vec![NodeId::new(3)]);
        assert!(only.allows(7, NodeId::new(3)));
        assert!(!only.allows(0, NodeId::new(4)));
    }

    #[test]
    fn fixed_schedule_fires_once() {
        let mut sched = FixedCrashSchedule::new()
            .crash_at(1, CrashDirective::silent(NodeId::new(0)))
            .crash_at(1, CrashDirective::after_send(NodeId::new(1)));
        let alive = NodeSet::full(4);
        let crashed = NodeSet::empty(4);
        let intents = vec![Vec::new(); 4];
        let polls: Vec<Option<NodeId>> = Vec::new();
        let v0 = view(0, &alive, &crashed, &intents, &polls, 4);
        assert!(sched.plan_round(&v0).is_empty());
        let v1 = view(1, &alive, &crashed, &intents, &polls, 4);
        assert_eq!(sched.plan_round(&v1).len(), 2);
        let v1b = view(1, &alive, &crashed, &intents, &polls, 4);
        assert!(sched.plan_round(&v1b).is_empty(), "schedule consumed");
    }

    #[test]
    fn random_crashes_respect_budget_and_are_deterministic() {
        let a = RandomCrashes::new(50, 10, 20, 42);
        let b = RandomCrashes::new(50, 10, 20, 42);
        assert_eq!(a.schedule.planned_crashes(), 10);
        assert_eq!(
            format!("{:?}", a.schedule.by_round),
            format!("{:?}", b.schedule.by_round),
            "same seed gives same schedule"
        );
        let c = RandomCrashes::new(50, 10, 20, 43);
        assert_ne!(
            format!("{:?}", a.schedule.by_round),
            format!("{:?}", c.schedule.by_round),
            "different seed gives different schedule"
        );
    }

    #[test]
    fn targeted_crashes_batch_per_round() {
        let victims: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let mut adv = TargetedCrashes::new(victims, 2, 2);
        let alive = NodeSet::full(8);
        let crashed = NodeSet::empty(8);
        let intents = vec![Vec::new(); 8];
        let polls: Vec<Option<NodeId>> = Vec::new();
        assert!(adv
            .plan_round(&view(0, &alive, &crashed, &intents, &polls, 8))
            .is_empty());
        assert_eq!(
            adv.plan_round(&view(2, &alive, &crashed, &intents, &polls, 8))
                .len(),
            2
        );
        assert_eq!(
            adv.plan_round(&view(3, &alive, &crashed, &intents, &polls, 8))
                .len(),
            2
        );
        assert_eq!(
            adv.plan_round(&view(4, &alive, &crashed, &intents, &polls, 8))
                .len(),
            1
        );
        assert!(adv
            .plan_round(&view(5, &alive, &crashed, &intents, &polls, 8))
            .is_empty());
    }

    #[test]
    fn adaptive_split_cuts_both_directions() {
        let mut adv = AdaptiveSplitAdversary::new(NodeId::new(0));
        let alive = NodeSet::full(4);
        let crashed = NodeSet::empty(4);
        // Node 0 sends to node 1; node 3 sends to node 0; node 0 polls node 2.
        let intents = vec![
            vec![NodeId::new(1)],
            Vec::new(),
            Vec::new(),
            vec![NodeId::new(0)],
        ];
        let polls = vec![Some(NodeId::new(2)), None, None, None];
        let directives = adv.plan_round(&view(0, &alive, &crashed, &intents, &polls, 10));
        let crashed_nodes: Vec<NodeId> = directives.iter().map(|d| d.node).collect();
        assert!(crashed_nodes.contains(&NodeId::new(1)));
        assert!(crashed_nodes.contains(&NodeId::new(2)));
        assert!(crashed_nodes.contains(&NodeId::new(3)));
        assert_eq!(crashed_nodes.len(), 3);
    }

    /// Each adversary that declares itself oblivious plans the same rounds
    /// whether it is shown no intents at all or every node's, so a host
    /// that cannot show them loses it nothing.  The adaptive one is the
    /// control: shown intents, it plans differently.
    #[test]
    fn an_oblivious_adversary_plans_the_same_without_intents() {
        const N: usize = 8;
        let oblivious: [fn() -> Box<dyn CrashAdversary>; 4] = [
            || Box::new(NoFaults),
            || {
                Box::new(
                    FixedCrashSchedule::new()
                        .crash_at(1, CrashDirective::silent(NodeId::new(2)))
                        .crash_at(3, CrashDirective::after_send(NodeId::new(5))),
                )
            },
            || Box::new(RandomCrashes::new(N, 3, 5, 9)),
            || {
                Box::new(TargetedCrashes::new(
                    (0..5).map(NodeId::new).collect(),
                    1,
                    2,
                ))
            },
        ];
        let adaptive =
            || -> Box<dyn CrashAdversary> { Box::new(AdaptiveSplitAdversary::new(NodeId::new(0))) };
        let alive = NodeSet::full(N);
        let crashed = NodeSet::empty(N);
        // Every node sends to the next two and polls the one before it,
        // shifted by the round.
        let intents = |r: usize| -> Vec<Vec<NodeId>> {
            let to = |i: usize, k: usize| NodeId::new((i + r + k) % N);
            (0..N).map(|i| vec![to(i, 1), to(i, 2)]).collect()
        };
        let polls = |r: usize| -> Vec<Option<NodeId>> {
            (0..N)
                .map(|i| Some(NodeId::new((i + N - 1 + r) % N)))
                .collect()
        };
        let plans = |mut adversary: Box<dyn CrashAdversary>, shown: bool| {
            (0..6)
                .map(|r| {
                    let (intents, polls) = if shown {
                        (intents(r), polls(r))
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    let view = view(r as u64, &alive, &crashed, &intents, &polls, N - 1);
                    adversary.plan_round(&view)
                })
                .collect::<Vec<_>>()
        };
        for build in oblivious {
            assert!(build().oblivious());
            let blind = plans(build(), false);
            assert_eq!(blind, plans(build(), true), "{blind:?}");
        }
        assert!(!adaptive().oblivious());
        assert_ne!(plans(adaptive(), false), plans(adaptive(), true));
    }

    #[test]
    fn adaptive_split_respects_budget() {
        let mut adv = AdaptiveSplitAdversary::new(NodeId::new(0));
        let alive = NodeSet::full(4);
        let crashed = NodeSet::empty(4);
        let intents = vec![
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ];
        let polls: Vec<Option<NodeId>> = vec![None; 4];
        let directives = adv.plan_round(&view(0, &alive, &crashed, &intents, &polls, 2));
        assert_eq!(directives.len(), 2, "budget of 2 caps the directives");
    }
}
