//! The multi-port synchronous runner.
//!
//! Drives a set of protocol state machines through lock-step rounds under a
//! crash adversary and/or Byzantine participants, collecting the metrics the
//! paper reports: rounds until all non-faulty nodes halt, messages and bits
//! sent by non-faulty nodes.
//!
//! [`Runner`] is a configuration, not a loop: the round of
//! [`crate::coordinator`] over the in-process host, which is one sans-I/O
//! [`RoundCore`] of [`crate::driver`] owning every node.  One execution is
//! one thread: each phase is a direct call on the caller's.  This module
//! holds the constructors and that host, for both models — how each phase
//! reaches the core and how its outputs come back in node order.

use std::convert::Infallible;

use crate::adversary::byzantine::ByzantineStrategy;
use crate::adversary::{CrashAdversary, DeliveryFilter, NoFaults};
use crate::coordinator::{Coordinator, Host, Staged};
use crate::driver::{ChunkCore, NodeEvent, RoundCore};
use crate::error::SimResult;
use crate::node::{NodeId, NodeSet};
use crate::protocol::SyncProtocol;
use crate::report::ExecutionReport;
use crate::round::Round;

/// A participant in an execution: either an honest node running the protocol
/// under test or a Byzantine node running an arbitrary strategy.
///
/// Byzantine strategies are boxed with a `Send` bound so a shard worker
/// thread may own them; every strategy in this repository is plain data.
pub enum Participant<P: SyncProtocol> {
    /// An honest node executing the protocol.
    Honest(P),
    /// A Byzantine node executing an adversarial strategy over the same
    /// message type.
    Byzantine(Box<dyn ByzantineStrategy<P::Msg> + Send>),
}

impl<P: SyncProtocol> Participant<P> {
    pub(crate) fn is_byzantine(&self) -> bool {
        matches!(self, Participant::Byzantine(_))
    }

    /// The Byzantine members of `participants`, as the coordinator and the
    /// report want them.
    pub(crate) fn byzantine_set(participants: &[Self]) -> NodeSet {
        let byzantine = participants.iter().enumerate();
        NodeSet::from_iter(
            participants.len(),
            byzantine
                .filter(|(_, p)| p.is_byzantine())
                .map(|(i, _)| NodeId::new(i)),
        )
    }
}

impl<P: SyncProtocol> std::fmt::Debug for Participant<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Participant::Honest(_) => write!(f, "Honest"),
            Participant::Byzantine(_) => write!(f, "Byzantine"),
        }
    }
}

/// Multi-port synchronous runner.
///
/// Messages addressed to nodes that have crashed **or halted** are dropped
/// at delivery time (they are still counted against the sender): a halted
/// node no longer participates in the protocol.  Both models share this
/// rule — see `SinglePortRunner` for the buffered-port variant.
///
/// # Examples
///
/// Running a toy protocol in which every node halts immediately:
///
/// ```
/// use dft_sim::{check, Delivered, Outgoing, Round, Runner, Spec, SyncProtocol};
///
/// struct Halt;
/// impl SyncProtocol for Halt {
///     type Msg = bool;
///     type Output = bool;
///     fn send(&mut self, _: Round, _: &mut Vec<Outgoing<bool>>) {}
///     fn receive(&mut self, _: Round, _: &[Delivered<bool>]) {}
///     fn output(&self) -> Option<bool> { Some(true) }
///     fn has_halted(&self) -> bool { true }
/// }
///
/// let mut runner = Runner::new((0..4).map(|_| Halt).collect()).unwrap();
/// let report = runner.run(10);
/// assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
/// assert_eq!(report.metrics.rounds, 1);
/// ```
pub type Runner<P> = Coordinator<RoundCore<P>>;

impl<P: SyncProtocol> Runner<P> {
    /// Creates a runner over honest nodes only, with no faults.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::EmptySystem`] if `protocols` is empty.
    pub fn new(protocols: Vec<P>) -> SimResult<Self> {
        Self::with_adversary(protocols, Box::new(NoFaults), 0)
    }

    /// Creates a runner over honest nodes with a crash adversary limited to
    /// `fault_budget` crashes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::EmptySystem`] if `protocols` is empty, or
    /// [`crate::SimError::InvalidConfig`] if the budget is not smaller than
    /// the number of nodes.
    pub fn with_adversary(
        protocols: Vec<P>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        let participants = protocols.into_iter().map(Participant::Honest).collect();
        Self::with_participants(participants, adversary, fault_budget)
    }

    /// Creates a runner over a mix of honest and Byzantine participants.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::EmptySystem`] if `participants` is empty,
    /// or [`crate::SimError::InvalidConfig`] if the crash budget is not
    /// smaller than the number of nodes.
    pub fn with_participants(
        participants: Vec<Participant<P>>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        let byzantine = Participant::byzantine_set(&participants);
        let central = Self::central(participants.len(), byzantine, adversary, fault_budget)?;
        Ok(Coordinator::assemble(
            central,
            RoundCore::new(0, participants),
        ))
    }

    /// Node-rounds in which a node was called at all, so far (see
    /// [`RoundCore::active_node_rounds`]).  A diagnostic of the in-process
    /// runner: it is not part of the report and no table may depend on it.
    pub fn active_node_rounds(&self) -> u64 {
        self.host.active_node_rounds()
    }
}

/// [`Host::outcome`] for a host that cannot fail.
pub(crate) fn never_fails<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

// The in-process host of both models is the runner's one core.  It owns
// every node from base 0, so a global node index *is* the core-local one,
// and it holds the whole round, so it shows the adversary every intent.
impl<C: ChunkCore> Host for C {
    type Output = C::Output;
    type Error = Infallible;
    type Outcome<T> = T;

    const SHOWS_INTENTS: bool = true;

    fn outcome<T>(result: Result<T, Infallible>) -> T {
        never_fails(result)
    }

    fn output(&self, node: usize) -> Option<&C::Output> {
        ChunkCore::output(self, node)
    }

    fn set_halted(&mut self, node: usize) {
        ChunkCore::set_halted(self, node);
    }

    fn begin_round(&mut self, round: Round) -> Result<(), Infallible> {
        ChunkCore::begin_round(self, round);
        Ok(())
    }

    /// The core's own per-node slices, lent as they stand.
    fn intents(&self) -> (&[Vec<NodeId>], &[Option<NodeId>]) {
        ChunkCore::intents(self)
    }

    fn deliver(
        &mut self,
        round: Round,
        crashed: &[(usize, DeliveryFilter)],
    ) -> Result<Staged, Infallible> {
        for (victim, _) in crashed {
            self.set_crashed(*victim, round);
        }
        // One core owns every node, so it routes as it delivers.
        Ok(self.deliver_direct(crashed))
    }

    fn finalize(&mut self, round: Round, events: &mut Vec<NodeEvent>) -> Result<(), Infallible> {
        ChunkCore::finalize(self, round);
        events.extend_from_slice(self.events());
        Ok(())
    }
}

/// Convenience: runs `protocols` under `adversary` with budget `t` for at
/// most `max_rounds` rounds and returns the report.
///
/// # Errors
///
/// Propagates construction errors from [`Runner::with_adversary`].
pub fn run_with_crashes<P: SyncProtocol>(
    protocols: Vec<P>,
    adversary: Box<dyn CrashAdversary>,
    fault_budget: usize,
    max_rounds: u64,
) -> SimResult<ExecutionReport<P::Output>> {
    let mut runner = Runner::with_adversary(protocols, adversary, fault_budget)?;
    Ok(runner.run(max_rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryView, CrashDirective, FixedCrashSchedule};
    use crate::message::{Delivered, Outgoing};
    use crate::report::{check, Spec, Termination};
    use crate::SimError;

    /// Every node floods its input to all nodes each round; decides on the OR
    /// of everything seen after 3 rounds.
    struct FloodOr {
        n: usize,
        value: bool,
        decided: Option<bool>,
        rounds_seen: u64,
    }

    impl FloodOr {
        fn new(n: usize, value: bool) -> Self {
            FloodOr {
                n,
                value,
                decided: None,
                rounds_seen: 0,
            }
        }
    }

    impl SyncProtocol for FloodOr {
        type Msg = bool;
        type Output = bool;

        fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
            out.extend((0..self.n).map(|i| Outgoing::new(NodeId::new(i), self.value)));
        }

        fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
            for msg in inbox {
                self.value |= msg.msg;
            }
            self.rounds_seen += 1;
            if self.rounds_seen >= 3 {
                self.decided = Some(self.value);
            }
        }

        fn output(&self) -> Option<bool> {
            self.decided
        }

        fn has_halted(&self) -> bool {
            self.decided.is_some()
        }
    }

    #[test]
    fn rejects_empty_system() {
        let protocols: Vec<FloodOr> = Vec::new();
        assert_eq!(Runner::new(protocols).err(), Some(SimError::EmptySystem));
    }

    #[test]
    fn rejects_budget_not_below_n() {
        let protocols = vec![FloodOr::new(2, false), FloodOr::new(2, true)];
        let err = Runner::with_adversary(protocols, Box::new(NoFaults), 2).err();
        assert!(matches!(err, Some(SimError::InvalidConfig(_))));
    }

    #[test]
    fn flood_or_reaches_agreement_without_faults() {
        let n = 8;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 3)).collect();
        let mut runner = Runner::new(protocols).unwrap();
        runner.enable_trace();
        let report = runner.run(10);
        assert_eq!(report.termination, Termination::AllHalted);
        assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
        assert_eq!(report.metrics.rounds, 3);
        // Every node sends n messages in each of 3 rounds.
        assert_eq!(report.metrics.messages, (n * n * 3) as u64);
        assert_eq!(report.metrics.bits, (n * n * 3) as u64);
        assert!(!runner.trace().is_empty());
    }

    #[test]
    fn silent_crash_suppresses_messages() {
        let n = 4;
        // Only node 0 holds `true`; it crashes silently in round 0, so nobody
        // ever learns the value and all decide `false`.
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        let adversary =
            FixedCrashSchedule::new().crash_at(0, CrashDirective::silent(NodeId::new(0)));
        let report = run_with_crashes(protocols, Box::new(adversary), 1, 10).unwrap();
        assert_eq!(report.metrics.crashes, 1);
        assert_eq!(check(&report, &Spec::consensus(&[false])), Ok(()));
        assert_eq!(report.non_faulty().len(), n - 1);
    }

    #[test]
    fn after_send_crash_still_delivers() {
        let n = 4;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        let adversary =
            FixedCrashSchedule::new().crash_at(0, CrashDirective::after_send(NodeId::new(0)));
        let report = run_with_crashes(protocols, Box::new(adversary), 1, 10).unwrap();
        assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
    }

    #[test]
    fn prefix_crash_delivers_partial_output() {
        use crate::adversary::DeliveryFilter;
        let n = 6;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        // Node 0 reaches only its first two destinations (nodes 0 and 1) before crashing.
        let adversary = FixedCrashSchedule::new().crash_at(
            0,
            CrashDirective {
                node: NodeId::new(0),
                deliver: DeliveryFilter::Prefix(2),
            },
        );
        let report = run_with_crashes(protocols, Box::new(adversary), 1, 10).unwrap();
        // Node 1 got the value and re-floods it, so everyone still decides true.
        assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
    }

    #[test]
    fn fault_budget_is_enforced() {
        let n = 5;
        let protocols: Vec<FloodOr> = (0..n).map(|_| FloodOr::new(n, false)).collect();
        let adversary = FixedCrashSchedule::new().crash_all_at(0, (0..4).map(NodeId::new));
        let report = run_with_crashes(protocols, Box::new(adversary), 2, 10).unwrap();
        assert_eq!(
            report.metrics.crashes, 2,
            "only budget-many crashes applied"
        );
    }

    #[test]
    fn byzantine_messages_not_counted() {
        use crate::adversary::byzantine::FloodByzantine;
        let n = 4;
        let mut participants: Vec<Participant<FloodOr>> = (1..n)
            .map(|i| Participant::Honest(FloodOr::new(n, i == 1)))
            .collect();
        participants.insert(
            0,
            Participant::Byzantine(Box::new(FloodByzantine::<bool>::new(n))),
        );
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(10);
        assert!(report.byzantine.contains(NodeId::new(0)));
        assert_eq!(report.non_faulty().len(), n - 1);
        // Honest nodes: 3 nodes * n messages * 3 rounds.
        assert_eq!(report.metrics.messages, (3 * n * 3) as u64);
        assert!(report.metrics.byzantine_messages > 0);
        assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
    }

    /// A finished execution runs no further round: running it again, for
    /// any number of rounds, returns the first report.
    #[test]
    fn a_finished_run_runs_again_unchanged() {
        let n = 4;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        let mut runner = Runner::new(protocols).unwrap();
        let first = runner.run(10);
        assert_eq!(first.termination, Termination::AllHalted);
        assert_eq!(first.metrics.rounds, 3);
        assert_eq!(runner.run(10), first);
        assert_eq!(runner.run(0), first);
    }

    /// With no honest participant there is nobody to wait for: the
    /// execution is over before round 0.
    #[test]
    fn an_execution_of_byzantine_participants_only_runs_no_round() {
        use crate::adversary::byzantine::FloodByzantine;
        let participants: Vec<Participant<FloodOr>> = (0..3)
            .map(|_| Participant::Byzantine(Box::new(FloodByzantine::<bool>::new(3)) as _))
            .collect();
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(10);
        assert_eq!(report.termination, Termination::AllHalted);
        assert_eq!(report.metrics.rounds, 0);
        assert_eq!(report.metrics.byzantine_messages, 0);
    }

    #[test]
    fn round_limit_reported() {
        // A protocol that never halts.
        struct Never;
        impl SyncProtocol for Never {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, _: Round, _: &mut Vec<Outgoing<bool>>) {}
            fn receive(&mut self, _: Round, _: &[Delivered<bool>]) {}
            fn output(&self) -> Option<bool> {
                None
            }
            fn has_halted(&self) -> bool {
                false
            }
        }
        let mut runner = Runner::new(vec![Never, Never]).unwrap();
        let report = runner.run(5);
        assert_eq!(report.termination, Termination::RoundLimit);
        assert_eq!(report.metrics.rounds, 5);
    }

    /// Sends one message per round to a fixed target and counts how many
    /// messages it has ever received; never halts on its own.
    struct CountingSender {
        target: usize,
        received: u64,
        halt_after: Option<u64>,
        rounds: u64,
    }

    impl SyncProtocol for CountingSender {
        type Msg = bool;
        type Output = u64;

        fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
            out.push(Outgoing::new(NodeId::new(self.target), true));
        }

        fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
            self.received += inbox.len() as u64;
            self.rounds += 1;
        }

        fn output(&self) -> Option<u64> {
            Some(self.received)
        }

        fn has_halted(&self) -> bool {
            self.halt_after.is_some_and(|h| self.rounds >= h)
        }
    }

    /// Regression test for the halted-destination rule: once a node halts,
    /// messages addressed to it are dropped (but still counted against the
    /// sender), exactly like messages to a crashed node.
    #[test]
    fn messages_to_halted_nodes_are_counted_but_dropped() {
        // Node 1 halts after its first round; node 0 keeps sending to it.
        let nodes = vec![
            CountingSender {
                target: 1,
                received: 0,
                halt_after: None,
                rounds: 0,
            },
            CountingSender {
                target: 0,
                received: 0,
                halt_after: Some(1),
                rounds: 0,
            },
        ];
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(5);
        assert_eq!(report.halted_at[1], Some(Round::new(0)));
        // All 5 of node 0's sends are counted, plus node 1's single send.
        assert_eq!(report.metrics.messages, 6);
        // Node 1 received exactly one message (round 0) before halting.
        assert_eq!(report.output_of(NodeId::new(1)), Some(&1));
    }

    /// Nodes 0 and 3 send to nodes that cannot take a message.  In round
    /// 0, node 0 sends to index n, which does not exist, and both send to
    /// node 1, which crashes silently that round.  In round 1, node 0 sends
    /// to node 2, which halted in round 0, and to node 3, which takes it.
    /// Each node halts with the number of messages it got as its output.
    struct Misaddressed {
        me: usize,
        n: usize,
        received: u64,
        halted: bool,
    }

    impl SyncProtocol for Misaddressed {
        type Msg = bool;
        type Output = u64;

        fn send(&mut self, round: Round, out: &mut Vec<Outgoing<bool>>) {
            let to: &[usize] = match (self.me, round.as_u64()) {
                (0, 0) => &[self.n, 1],
                (3, 0) => &[1],
                (0, 1) => &[2, 3],
                _ => &[],
            };
            out.extend(to.iter().map(|&to| Outgoing::new(NodeId::new(to), true)));
        }

        fn receive(&mut self, round: Round, inbox: &[Delivered<bool>]) {
            self.received += inbox.len() as u64;
            self.halted = self.me == 2 || round.as_u64() >= 1;
        }

        fn output(&self) -> Option<u64> {
            self.halted.then_some(self.received)
        }

        fn has_halted(&self) -> bool {
            self.halted
        }
    }

    /// A message to a node that does not exist, to one crashed this round
    /// and to one halted is counted against its sender and dropped, and the
    /// serial host agrees with the sharded one.  Over two shards (nodes
    /// 0–1 and 2–3) node 3's message to the crashing node 1 and node 0's
    /// to the halted node 2 cross to the other chunk, so the receiving
    /// worker's core is the only place that drops them.
    #[test]
    fn misaddressed_messages_are_counted_and_dropped_by_every_host() {
        let n = 4;
        let nodes = || {
            (0..n)
                .map(|me| {
                    Participant::Honest(Misaddressed {
                        me,
                        n,
                        received: 0,
                        halted: false,
                    })
                })
                .collect::<Vec<_>>()
        };
        let crash = || {
            let crash = CrashDirective::silent(NodeId::new(1));
            Box::new(FixedCrashSchedule::new().crash_at(0, crash))
        };
        let serial = Runner::with_participants(nodes(), crash(), 1)
            .unwrap()
            .run(5);
        let sharded = crate::shard::ShardedRunner::in_process(nodes(), crash(), 1, 2)
            .unwrap()
            .run(5)
            .unwrap();
        assert_eq!(serial.termination, Termination::AllHalted);
        assert_eq!(serial.metrics.messages, 5, "all five sends are counted");
        assert_eq!(serial.crashed_at[1], Some(Round::new(0)));
        assert_eq!(serial.halted_at[2], Some(Round::new(0)));
        let received = [0, 2, 3].map(|i| serial.output_of(NodeId::new(i)).copied());
        assert_eq!(received, [Some(0), Some(0), Some(1)], "only node 3 got one");
        assert_eq!(serial, sharded);
    }

    /// Regression test: the multi-port runner hands the adversary one poll
    /// slot per node (all `None`), so adversaries written for the
    /// single-port model may index `poll_intents[node]` without panicking.
    #[test]
    fn adversary_view_has_one_poll_slot_per_node() {
        struct IndexesPolls;
        impl CrashAdversary for IndexesPolls {
            fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
                // Direct indexing, as `AdaptiveSplitAdversary` effectively
                // does; this panicked when the view carried an empty slice.
                for node in 0..view.n() {
                    assert_eq!(view.poll_intents[node], None);
                }
                assert_eq!(view.poll_intents.len(), view.n());
                // Crash node 0 so the report proves plan_round actually ran
                // (and its assertions executed).
                vec![CrashDirective::silent(NodeId::new(0))]
            }
        }
        let n = 4;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        let mut runner = Runner::with_adversary(protocols, Box::new(IndexesPolls), 1).unwrap();
        let report = runner.run(5);
        assert_eq!(report.metrics.crashes, 1, "the adversary was consulted");
        assert_eq!(report.termination, Termination::AllHalted);
    }
}
