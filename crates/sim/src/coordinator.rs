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
//!    in-process run) fills the view with every node's intents (its
//!    destinations and, single-port, its polled port).  A host that does
//!    not, shard workers or a mesh node, runs only an adversary that never
//!    reads them ([`CrashAdversary::oblivious`]); [`Coordinator::central`]
//!    refuses any other before a worker or a link is touched.
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
//! The host trait is public only so the aliases can name it; the module is
//! private, so no other crate can implement a host.

use std::fmt;

use crate::adversary::{CrashAdversary, DeliveryFilter};
use crate::delivery::EngineCore;
use crate::driver::NodeEvent;
use crate::error::{SimError, SimResult};
use crate::metrics::Metrics;
use crate::node::{NodeId, NodeSet};
use crate::report::{ExecutionReport, Termination};
use crate::round::Round;
use crate::trace::Trace;

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

    /// Whether [`Host::begin_round`] fills the adversary's view with every
    /// node's intents.  A host that does not leaves the view's slots empty
    /// and runs only an oblivious adversary.
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

    /// Phase 1: `begin_round` everywhere.  A host that
    /// [shows intents](Host::SHOWS_INTENTS) puts each node's destinations
    /// in its `send_intents` slot and, single-port, its polled port in its
    /// `polls` slot (a multi-port host leaves every `polls` slot `None`);
    /// one that does not leaves every slot alone, and may run the phase
    /// when its chunks next hear from it.
    fn begin_round(
        &mut self,
        round: Round,
        send_intents: &mut [Vec<NodeId>],
        polls: &mut [Option<NodeId>],
    ) -> Result<(), Self::Error>;

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

/// The order-sensitive state of an execution: the engine core, the
/// adversary and the flat per-node views it is shown, the Byzantine
/// survivor count and the event replay.
pub struct Central {
    engine: EngineCore,
    adversary: Box<dyn CrashAdversary>,
    /// Per-node intended destinations (reused; capacity is all that
    /// survives a round).
    send_intents: Vec<Vec<NodeId>>,
    /// Per-node polled port; always `None` in the multi-port model, whose
    /// adversaries may still index one slot per node.
    poll_intents: Vec<Option<NodeId>>,
    byzantine: NodeSet,
    /// Byzantine participants still running — they never halt, so "every
    /// non-faulty node has halted" is `running == byz_running`, in O(1).
    byz_running: usize,
    /// This round's decision/halt events (reused).
    events: Vec<NodeEvent>,
}

impl Central {
    /// Executes the current round on `host`.
    fn step<H: Host>(&mut self, host: &mut H) -> Result<(), H::Error> {
        let round = self.engine.round;
        host.begin_round(round, &mut self.send_intents, &mut self.poll_intents)?;

        // Obligation 1: the adversary sees the whole round once.
        let engine = &mut self.engine;
        engine.apply_crash_phase(&mut *self.adversary, &self.send_intents, &self.poll_intents);
        for &(idx, _) in engine.crashed_this_round() {
            if self.byzantine.contains(NodeId::new(idx)) {
                self.byz_running -= 1;
            }
        }

        // Obligation 2: every host routes; only the counts come back.
        let counts = host.deliver(round, engine.crashed_this_round())?;
        let metrics = &mut engine.metrics;
        metrics.record_messages(round.as_u64(), counts.messages, counts.bits);
        metrics.byzantine_messages += counts.byzantine_messages;

        // Obligation 3: replay this round's events in node order, then
        // close the round.
        host.finalize(round, &mut self.events)?;
        for event in self.events.drain(..) {
            if event.decided {
                if let Some(output) = host.output(event.node) {
                    engine.record_decision(event.node, output);
                }
            }
            if event.halted {
                engine.mark_halted(event.node);
                host.set_halted(event.node);
            }
        }
        engine.finish_round();
        Ok(())
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
        let engine = EngineCore::new(n, fault_budget)?;
        if !H::SHOWS_INTENTS && !adversary.oblivious() {
            return Err(SimError::InvalidConfig(
                "an adaptive crash adversary reads every node's intents, which only an \
                 in-process runner holds; run it there, or pass an oblivious one"
                    .to_owned(),
            ));
        }
        Ok(Central {
            engine,
            adversary,
            send_intents: (0..n).map(|_| Vec::new()).collect(),
            poll_intents: vec![None; n],
            byz_running: byzantine.len(),
            byzantine,
            events: Vec::new(),
        })
    }

    pub(crate) fn assemble(central: Central, host: H) -> Self {
        Coordinator { central, host }
    }

    /// Enables coarse-grained event tracing (crashes, decisions, halts).
    pub fn enable_trace(&mut self) -> &mut Self {
        self.central.engine.trace = Trace::enabled();
        self
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.central.engine.trace
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.central.engine.n()
    }

    /// The current round (the next one to be executed).
    pub fn round(&self) -> Round {
        self.central.engine.round
    }

    /// The metrics accumulated so far (also part of the report).
    pub fn metrics(&self) -> &Metrics {
        &self.central.engine.metrics
    }

    /// Whether every node that has not crashed has halted voluntarily.
    /// O(1): running nodes are counted incrementally.
    pub fn all_non_faulty_halted(&self) -> bool {
        self.central.engine.running_nodes() == self.central.byz_running
    }

    /// Executes one synchronous round.
    pub fn step(&mut self) -> H::Outcome<()> {
        H::outcome(self.central.step(&mut self.host))
    }

    /// Runs rounds until every non-faulty node has halted or `max_rounds`
    /// rounds have been executed, and returns the execution report.
    ///
    /// The in-process runners can be run again to continue the execution;
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
        let mut termination = Termination::RoundLimit;
        for _ in 0..max_rounds {
            self.central.step(&mut self.host)?;
            if self.all_non_faulty_halted() {
                termination = Termination::AllHalted;
                break;
            }
        }
        self.host.shutdown();
        let engine = &self.central.engine;
        Ok(ExecutionReport {
            outputs: (0..engine.n())
                .map(|node| self.host.output(node).cloned())
                .collect(),
            crashed_at: engine.crashed_at.clone(),
            halted_at: engine.halted_at.clone(),
            byzantine: self.central.byzantine.clone(),
            metrics: engine.metrics.clone(),
            termination,
        })
    }
}

impl<H: Host> fmt::Debug for Coordinator<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("n", &self.central.engine.n())
            .field("round", &self.central.engine.round)
            .field("crashes", &self.central.engine.crashes)
            .finish_non_exhaustive()
    }
}
