//! The one round loop.
//!
//! The paper defines a synchronous round once (§2: send → the adversary
//! crashes some senders with partial delivery → deliver → receive; §8
//! restricts it to one send and one poll per node, a message waiting on its
//! destination's in-port until that port is polled).  The sans-I/O cores of
//! [`crate::driver`] implement what a round does to *one chunk* of nodes,
//! its nodes' single-port in-ports included; this module implements, once
//! for both models, everything that is order-sensitive *across* chunks —
//! the backend obligations every execution style has to meet:
//!
//! 1. **Central crash phase.**  The adversary contract hands one mutable
//!    strategy a coherent view of the whole round, and [`Central`] runs it
//!    once and mirrors the verdicts into the chunks.  Only a host that holds
//!    the whole round ([`Host::SHOWS_INTENTS`]: the one core of an
//!    in-process run) shows every node's intents (its destinations and,
//!    single-port, its polled port), and it lends the view its core's own
//!    per-node slices ([`Host::intents`]).  A host that does not, shard
//!    workers or a mesh node, shows empty slices and runs only an adversary
//!    that never reads them ([`CrashAdversary::oblivious`]);
//!    [`Coordinator::central`] refuses any other before a worker or a link
//!    is touched.
//! 2. **Deliver, then count in node order; each host routes, and the
//!    destination core's `accept` drops or buffers.**  Every chunk
//!    delivers, routes its survivors to their destinations' cores in sender
//!    order, and reports only its counts; the host adds them up and the
//!    coordinator records the sum, whose chunk order cannot show.  The
//!    receiving core's `accept`
//!    ([`crate::RoundCore::accept`], [`crate::SinglePortCore::accept`]) is
//!    the one drop rule: a destination no longer running takes no part, and
//!    the message is counted and dropped.  A multi-port core puts the rest
//!    in its inboxes; a single-port core buffers it on the `(destination,
//!    sender)` port, which its node drains when it polls that port.  A port
//!    has one sender, which sends at most once a round, so its contents are
//!    in round order whichever chunk routes first.
//! 3. **Finalize, then replay in node order.**  All chunks `finalize`
//!    before any halt is applied; decisions and halts are replayed in
//!    ascending node order, so traces cannot depend on which chunk finished
//!    first.
//!
//! A [`Coordinator`] is generic (static dispatch) over *where the chunks
//! live*: a [`Host`] only answers "run phase X on every chunk and give me
//! its outputs".  Four hosts exist — one core holding every node, called
//! directly on this thread ([`crate::RoundCore`], [`crate::SinglePortCore`]);
//! [`crate::shard::Framed`], which speaks frames to shard workers; and
//! [`crate::shard::mesh::Mesh`], one node's core with a link to every peer,
//! run by each node of a mesh for itself — and the five public runners are
//! type aliases that pick a host: the serial runs, `--shards` and
//! `dft-node`'s TCP cluster are configurations of the loop below, not loops
//! of their own.
//!
//! [`Central`] is the execution's one record of the round: the alive and
//! crashed sets the adversary is lent, each node's crash and halt rounds
//! (a node runs while it has neither), the metrics (the crash count
//! included) and the trace.  The chunks keep only what their phase bodies
//! need, mirrored from it.
//!
//! The host trait is public only so the aliases can name it; the module is
//! private, so no other crate can implement a host.

use std::fmt;

use crate::adversary::{AdversaryView, CrashAdversary, DeliveryFilter};
use crate::driver::NodeEvent;
use crate::error::{SimError, SimResult};
use crate::metrics::Metrics;
use crate::node::{NodeId, NodeSet};
use crate::report::{ExecutionReport, Termination};
use crate::round::Round;
use crate::trace::{Event, Trace};

/// The counts of a delivery phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Staged {
    /// Messages sent by non-Byzantine senders this round.
    pub messages: u64,
    /// Total bits carried by those messages.
    pub bits: u64,
    /// Messages sent by Byzantine senders (counted apart).
    pub byzantine_messages: u64,
}

/// Where an execution's chunks live, and the phases it runs on every chunk.
pub trait Host {
    /// What a node decides.
    type Output: Clone + fmt::Debug;
    /// How running a phase can fail: [`std::convert::Infallible`] when the
    /// chunks are in this process, [`crate::SimError`] behind a transport.
    type Error;
    /// What a fallible operation hands the caller: `T` itself for a host
    /// that cannot fail, `SimResult<T>` otherwise.
    type Outcome<T>;

    /// Whether [`Host::intents`] lends the adversary every node's intents.
    /// A host that does not shows empty slices and runs only an oblivious
    /// adversary.
    const SHOWS_INTENTS: bool;

    /// Converts a result into this host's [`Host::Outcome`].
    fn outcome<T>(result: Result<T, Self::Error>) -> Self::Outcome<T>;

    /// A node's first output, once it has decided.
    fn output(&self, node: usize) -> Option<&Self::Output>;

    /// Mirrors a replayed voluntary halt into the owning chunk.
    fn set_halted(&mut self, node: usize);

    /// Ends the execution on the host's side (shard workers are told to
    /// exit; chunks in this process have nothing to end).
    fn shutdown(&mut self) {}

    /// Phase 1: `begin_round` everywhere.  A host that does not
    /// [show intents](Host::SHOWS_INTENTS) may run the phase when its
    /// chunks next hear from it.
    fn begin_round(&mut self, round: Round) -> Result<(), Self::Error>;

    /// What the adversary is shown of this round, between
    /// [`Host::begin_round`] and [`Host::deliver`]: every node's
    /// destinations and its polled port, one slot per node (always `None`
    /// in the multi-port model).  A host that does not
    /// [show intents](Host::SHOWS_INTENTS) keeps this default: two empty
    /// slices.
    fn intents(&self) -> (&[Vec<NodeId>], &[Option<NodeId>]) {
        (&[], &[])
    }

    /// Phase 3: mirrors this round's crashes (global index, delivery
    /// filter) into the owning chunks, runs `deliver` everywhere, routes
    /// each survivor to its destination's core, and returns the chunks'
    /// counts, added up.
    fn deliver(
        &mut self,
        round: Round,
        crashed: &[(usize, DeliveryFilter)],
    ) -> Result<Staged, Self::Error>;

    /// Phase 4: `finalize` everywhere; appends the decision/halt events in
    /// node order.
    fn finalize(&mut self, round: Round, events: &mut Vec<NodeEvent>) -> Result<(), Self::Error>;
}

/// The order-sensitive state of an execution, each fact kept once: the
/// adversary and the sets it is lent, every node's crash and halt round (a
/// node runs while it has neither), the metrics, the trace and the event
/// replay.
pub struct Central {
    adversary: Box<dyn CrashAdversary>,
    /// Nodes that have not crashed (running or halted), lent to the
    /// adversary and updated on each crash.
    alive: NodeSet,
    /// Nodes that have crashed, this round included.
    crashed: NodeSet,
    crashed_at: Vec<Option<Round>>,
    halted_at: Vec<Option<Round>>,
    byzantine: NodeSet,
    /// Maximum number of crashes the adversary may cause; the crashes so
    /// far are `metrics.crashes`.
    fault_budget: usize,
    /// Non-Byzantine nodes still running.  Byzantine participants never
    /// halt, so "every non-faulty node has halted" is `running == 0`, in
    /// O(1).
    running: usize,
    /// The round being executed (the next one, between rounds).
    round: Round,
    metrics: Metrics,
    trace: Trace,
    /// This round's crashes with their delivery filters (reused).
    struck: Vec<(usize, DeliveryFilter)>,
    /// This round's decision/halt events (reused).
    events: Vec<NodeEvent>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "per-node vectors are sized n at construction; the crash phase range-checks the \
              adversary's directive and every other index is a chunk's own node"
)]
impl Central {
    /// The state of an execution of `n` nodes before round 0 — the one
    /// place a system's size and budget are validated.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptySystem`] for zero nodes, [`SimError::InvalidConfig`]
    /// unless the budget is smaller than the number of nodes.
    fn new(
        n: usize,
        byzantine: NodeSet,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        if n == 0 {
            return Err(SimError::EmptySystem);
        }
        if fault_budget >= n {
            return Err(SimError::InvalidConfig(format!(
                "fault budget {fault_budget} must be smaller than the number of nodes {n}"
            )));
        }
        Ok(Central {
            adversary,
            alive: NodeSet::full(n),
            crashed: NodeSet::empty(n),
            crashed_at: vec![None; n],
            halted_at: vec![None; n],
            running: n - byzantine.len(),
            byzantine,
            fault_budget,
            round: Round::ZERO,
            metrics: Metrics::new(),
            trace: Trace::disabled(),
            struck: Vec::new(),
            events: Vec::new(),
        })
    }

    fn n(&self) -> usize {
        self.crashed_at.len()
    }

    fn is_running(&self, idx: usize) -> bool {
        self.crashed_at[idx].is_none() && self.halted_at[idx].is_none()
    }

    /// Executes the current round on `host`.
    fn step<H: Host>(&mut self, host: &mut H) -> Result<(), H::Error> {
        let round = self.round;
        host.begin_round(round)?;

        // Obligation 1: the adversary sees the whole round once, in the
        // host's own per-node slices.
        let (send_intents, poll_intents) = host.intents();
        self.crash_phase(send_intents, poll_intents);

        // Obligation 2: every host routes; only the counts come back.
        let counts = host.deliver(round, &self.struck)?;
        self.metrics
            .record_messages(round.as_u64(), counts.messages, counts.bits);
        self.metrics.byzantine_messages += counts.byzantine_messages;

        // Obligation 3: replay this round's events in node order, then
        // close the round.
        let mut events = std::mem::take(&mut self.events);
        host.finalize(round, &mut events)?;
        for event in events.drain(..) {
            if event.decided {
                if let Some(output) = host.output(event.node) {
                    self.record_decision(event.node, output);
                }
            }
            if event.halted {
                self.mark_halted(event.node);
                host.set_halted(event.node);
            }
        }
        self.events = events;
        self.finish_round();
        Ok(())
    }

    /// Shows the adversary the round, applies its directives up to the
    /// fault budget, and records the delivery filter of each node crashed
    /// this round.
    fn crash_phase(&mut self, send_intents: &[Vec<NodeId>], poll_intents: &[Option<NodeId>]) {
        let round = self.round;
        let spent = self.metrics.crashes as usize;
        let directives = self.adversary.plan_round(&AdversaryView {
            round,
            alive: &self.alive,
            crashed: &self.crashed,
            send_intents,
            poll_intents,
            remaining_budget: self.fault_budget - spent,
        });
        for directive in directives {
            if self.metrics.crashes as usize >= self.fault_budget {
                break;
            }
            let (node, idx) = (directive.node, directive.node.index());
            if idx >= self.n() || self.crashed_at[idx].is_some() {
                continue;
            }
            if self.is_running(idx) && !self.byzantine.contains(node) {
                self.running -= 1;
            }
            self.crashed_at[idx] = Some(round);
            self.alive.remove(node);
            self.crashed.insert(node);
            self.metrics.record_crash();
            self.trace.record(Event::Crashed { round, node });
            self.struck.push((idx, directive.deliver));
        }
    }

    /// Marks a node as voluntarily halted in the current round.
    fn mark_halted(&mut self, idx: usize) {
        if self.is_running(idx) {
            self.running -= 1;
        }
        self.halted_at[idx] = Some(self.round);
        self.trace.record(Event::Halted {
            round: self.round,
            node: NodeId::new(idx),
        });
    }

    /// Traces a node's first decision (the value is only rendered when
    /// tracing is enabled).
    fn record_decision<O: fmt::Debug>(&mut self, idx: usize, value: &O) {
        if self.trace.is_enabled() {
            self.trace.record(Event::Decided {
                round: self.round,
                node: NodeId::new(idx),
                value: format!("{value:?}"),
            });
        }
    }

    /// Clears this round's crashes and advances the round.
    fn finish_round(&mut self) {
        self.struck.clear();
        self.metrics.rounds = self.round.as_u64() + 1;
        self.round = self.round.next();
    }
}

/// One execution: the round loop over a host's chunks.
///
/// Use it through the aliases that fix the host:
/// [`crate::Runner`], [`crate::SinglePortRunner`],
/// [`crate::shard::ShardedRunner`], [`crate::shard::SpShardedRunner`] and
/// [`crate::shard::mesh::MeshRunner`].
/// A fallible operation returns the host's `Outcome`: the value itself from
/// the in-process runners, a [`SimResult`] from the sharded ones.
pub struct Coordinator<H: Host> {
    central: Central,
    pub(crate) host: H,
}

impl<H: Host> Coordinator<H> {
    /// The one constructor check all five runners share, made before the
    /// host is built.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptySystem`] for zero nodes, [`SimError::InvalidConfig`]
    /// unless `fault_budget < n`, or when the adversary is adaptive and the
    /// host cannot [show it the round's intents](Host::SHOWS_INTENTS).
    pub(crate) fn central(
        n: usize,
        byzantine: NodeSet,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Central> {
        let central = Central::new(n, byzantine, adversary, fault_budget)?;
        if !H::SHOWS_INTENTS && !central.adversary.oblivious() {
            return Err(SimError::InvalidConfig(
                "an adaptive crash adversary reads every node's intents, which only an \
                 in-process runner holds; run it there, or pass an oblivious one"
                    .to_owned(),
            ));
        }
        Ok(central)
    }

    pub(crate) fn assemble(central: Central, host: H) -> Self {
        Coordinator { central, host }
    }

    /// Enables coarse-grained event tracing (crashes, decisions, halts).
    pub fn enable_trace(&mut self) -> &mut Self {
        self.central.trace = Trace::enabled();
        self
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.central.trace
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.central.n()
    }

    /// The current round (the next one to be executed).
    pub fn round(&self) -> Round {
        self.central.round
    }

    /// The metrics accumulated so far (also part of the report).
    pub fn metrics(&self) -> &Metrics {
        &self.central.metrics
    }

    /// Whether every node that has not crashed has halted voluntarily.
    /// O(1): running nodes are counted incrementally.
    pub fn all_non_faulty_halted(&self) -> bool {
        self.central.running == 0
    }

    /// Executes one synchronous round.
    pub fn step(&mut self) -> H::Outcome<()> {
        H::outcome(self.central.step(&mut self.host))
    }

    /// Runs rounds until every non-faulty node has halted or `max_rounds`
    /// rounds have been executed, and returns the execution report.
    ///
    /// The in-process runners can be run again to continue the execution
    /// (a finished one runs no further round and reports the same again);
    /// a sharded run shuts its workers down and is single-shot.
    ///
    /// # Errors
    ///
    /// Sharded runners return [`crate::SimError::Shard`] the first time a
    /// worker dies or answers with a malformed frame.
    pub fn run(&mut self, max_rounds: u64) -> H::Outcome<ExecutionReport<H::Output>> {
        H::outcome(self.try_run(max_rounds))
    }

    fn try_run(&mut self, max_rounds: u64) -> Result<ExecutionReport<H::Output>, H::Error> {
        for _ in 0..max_rounds {
            if self.all_non_faulty_halted() {
                break;
            }
            self.central.step(&mut self.host)?;
        }
        let termination = if self.all_non_faulty_halted() {
            Termination::AllHalted
        } else {
            Termination::RoundLimit
        };
        self.host.shutdown();
        let central = &self.central;
        Ok(ExecutionReport {
            outputs: (0..central.n())
                .map(|node| self.host.output(node).cloned())
                .collect(),
            crashed_at: central.crashed_at.clone(),
            halted_at: central.halted_at.clone(),
            byzantine: central.byzantine.clone(),
            metrics: central.metrics.clone(),
            termination,
        })
    }
}

impl<H: Host> fmt::Debug for Coordinator<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("n", &self.central.n())
            .field("round", &self.central.round)
            .field("crashes", &self.central.metrics.crashes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::adversary::{CrashDirective, FixedCrashSchedule};

    /// The state of an execution of `n` honest nodes under `adversary`.
    fn central(n: usize, budget: usize, adversary: impl CrashAdversary + 'static) -> Central {
        Central::new(n, NodeSet::empty(n), Box::new(adversary), budget).unwrap()
    }

    #[test]
    fn core_tracks_crashes_incrementally() {
        let adversary = FixedCrashSchedule::new()
            .crash_at(0, CrashDirective::silent(NodeId::new(1)))
            .crash_at(1, CrashDirective::silent(NodeId::new(2)))
            .crash_at(1, CrashDirective::silent(NodeId::new(3)));
        let mut core = central(4, 2, adversary);
        let intents = vec![Vec::new(); 4];
        let polls = vec![None; 4];

        core.crash_phase(&intents, &polls);
        assert_eq!(core.struck, [(1, DeliveryFilter::None)]);
        assert!(core.crashed_at[1].is_some());
        core.finish_round();
        assert!(core.struck.is_empty(), "crashes cleared");

        // Round 1 wants two crashes but only one budget slot remains.
        core.crash_phase(&intents, &polls);
        assert_eq!(core.crashed.len(), 2);
        assert!(core.crashed_at[2].is_some());
        assert!(core.crashed_at[3].is_none(), "budget exhausted");
        assert_eq!(core.metrics.crashes, 2);
        core.finish_round();
        assert_eq!(core.round, Round::new(2));
        assert_eq!(core.metrics.rounds, 2);
    }

    #[test]
    fn core_view_matches_maintained_sets() {
        /// An adversary that asserts the view's sets are consistent with
        /// incremental maintenance.
        struct Checking {
            expect_alive: Rc<Cell<usize>>,
        }
        impl CrashAdversary for Checking {
            fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
                let expect_alive = self.expect_alive.get();
                assert_eq!(view.alive.len(), expect_alive);
                assert_eq!(view.crashed.len(), view.n() - expect_alive);
                if expect_alive == 3 {
                    vec![CrashDirective::silent(NodeId::new(0))]
                } else {
                    Vec::new()
                }
            }
        }
        let expect_alive = Rc::new(Cell::new(3));
        let adversary = Checking {
            expect_alive: Rc::clone(&expect_alive),
        };
        let mut core = central(3, 1, adversary);
        let intents = vec![Vec::new(); 3];
        let polls = vec![None; 3];
        core.crash_phase(&intents, &polls);
        core.finish_round();
        expect_alive.set(2);
        core.crash_phase(&intents, &polls);
    }

    #[test]
    fn halted_nodes_stay_in_alive_set() {
        // `alive` means "not crashed": halted nodes still belong, matching
        // the per-round sets the seed engines derived from the status vector.
        struct Expect;
        impl CrashAdversary for Expect {
            fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
                assert_eq!(view.alive.len(), 2);
                Vec::new()
            }
        }
        let mut core = central(2, 1, Expect);
        core.mark_halted(0);
        let intents = vec![Vec::new(); 2];
        let polls = vec![None; 2];
        core.crash_phase(&intents, &polls);
    }

    #[test]
    fn running_count_tracks_crashes_and_halts() {
        let adversary = FixedCrashSchedule::new()
            .crash_at(0, CrashDirective::silent(NodeId::new(0)))
            .crash_at(0, CrashDirective::silent(NodeId::new(1)));
        let mut core = central(4, 2, adversary);
        assert_eq!(core.running, 4);
        core.mark_halted(0);
        assert_eq!(core.running, 3);
        // Re-halting an already-halted node must not double-count.
        core.mark_halted(0);
        assert_eq!(core.running, 3);
        let intents = vec![Vec::new(); 4];
        let polls = vec![None; 4];
        // Node 0 is halted (not running) when crashed: only node 1's crash
        // takes a running node away.
        core.crash_phase(&intents, &polls);
        assert_eq!(core.running, 2);
        assert_eq!(core.metrics.crashes, 2);
    }
}
