//! The one round loop per communication model.
//!
//! The paper defines a synchronous round once (§2: send → the adversary
//! crashes some senders with partial delivery → deliver → receive; §8
//! restricts it to one send and one poll per node).  The sans-I/O cores of
//! [`crate::driver`] implement what a round does to *one chunk* of nodes;
//! this module implements, once per model, everything that is
//! order-sensitive *across* chunks — the backend obligations every
//! execution style has to meet:
//!
//! 1. **Central crash phase.**  The adversary contract hands one mutable
//!    strategy a coherent view of the whole round, so [`Central`] gathers
//!    every node's intents into flat per-node views, runs the adversary
//!    once, and mirrors the verdicts into the chunks.
//! 2. **Deliver, then count in node order; each host routes and the
//!    core's `accept` drops.**  Every chunk delivers, routes its survivors
//!    to their destinations' cores in sender order, and reports only its
//!    counts, which the coordinator adds in ascending chunk order.  The
//!    receiving core's [`crate::RoundCore::accept`] is the one drop rule: a
//!    destination no longer running takes no part, and the message is
//!    counted and dropped.
//! 3. **Finalize, then replay in node order.**  All chunks `finalize`
//!    before any halt is applied; decisions and halts are replayed in
//!    ascending node order, so traces cannot depend on which chunk finished
//!    first.
//! 4. **Single-port: the coordinator owns the ports.**  Enqueue in sender
//!    order; walk the destinations that hold a buffered message and
//!    pre-drain the polled port of each that runs and polls, handing the
//!    contents to its chunk (every other poller's port is empty and is
//!    handed nothing); drop a destination's queues when it crashes or
//!    halts.
//!
//! A [`Coordinator`] is generic (static dispatch) over *where the chunks
//! live*: a [`Host`] only answers "run phase X on every chunk and give me
//! its outputs".  Three hosts exist — one core holding every node, called
//! directly on this thread ([`crate::RoundCore`], [`crate::SinglePortCore`]);
//! [`crate::shard::Framed`], which speaks frames to shard workers; and
//! [`crate::shard::mesh::Mesh`], one node's core with a link to every peer,
//! run by each node of a mesh for itself — and the five public runners are
//! type aliases that pick a model and a host: the serial run, `--shards` and
//! `dft-node`'s TCP cluster are configurations of the loops below, not
//! loops of their own.
//!
//! The host traits are public only so the aliases can name them; the
//! module is private, so no other crate can implement a host.

use std::fmt;

use crate::adversary::{CrashAdversary, DeliveryFilter};
use crate::delivery::{EngineCore, PortMap};
use crate::driver::NodeEvent;
use crate::error::SimResult;
use crate::message::{Outgoing, Payload};
use crate::metrics::Metrics;
use crate::node::{NodeId, NodeSet};
use crate::report::{ExecutionReport, Termination};
use crate::round::Round;
use crate::trace::Trace;

/// Where an execution's chunks live, as far as both models care.
pub trait Host {
    /// What a node decides.
    type Output: Clone + fmt::Debug;
    /// How running a phase can fail: [`std::convert::Infallible`] when the
    /// chunks are in this process, [`crate::SimError`] behind a transport.
    type Error;
    /// What a fallible operation hands the caller: `T` itself for a host
    /// that cannot fail, `SimResult<T>` otherwise.
    type Outcome<T>;

    /// Converts a result into this host's [`Host::Outcome`].
    fn outcome<T>(result: Result<T, Self::Error>) -> Self::Outcome<T>;

    /// A node's first output, once it has decided.
    fn output(&self, node: usize) -> Option<&Self::Output>;

    /// Mirrors a replayed voluntary halt into the owning chunk.
    fn set_halted(&mut self, node: usize);

    /// Ends the execution on the host's side (shard workers are told to
    /// exit; chunks in this process have nothing to end).
    fn shutdown(&mut self) {}
}

/// One chunk's counts from a multi-port delivery phase.
#[derive(Clone, Copy, Debug)]
pub struct Staged {
    /// Messages sent by the chunk's non-Byzantine senders this round.
    pub messages: u64,
    /// Total bits carried by those messages.
    pub bits: u64,
    /// Messages sent by the chunk's Byzantine senders (counted apart).
    pub byzantine_messages: u64,
}

/// The phases a multi-port host runs on every chunk.
pub trait MultiPortHost: Host {
    /// Phase 1: `begin_round` everywhere; each node's destinations land in
    /// its `send_intents` slot.
    fn begin_round(
        &mut self,
        round: Round,
        send_intents: &mut [Vec<NodeId>],
    ) -> Result<(), Self::Error>;

    /// Phase 3: mirrors this round's crashes (global index, delivery
    /// filter) into the owning chunks, runs `deliver` everywhere, routes
    /// each survivor to its destination's core, and pushes one [`Staged`]
    /// per chunk, in chunk order, onto `staged`.
    fn deliver(
        &mut self,
        round: Round,
        crashed: Vec<(usize, DeliveryFilter)>,
        staged: &mut Vec<Staged>,
    ) -> Result<(), Self::Error>;

    /// Phase 4: `finalize` everywhere; appends the decision/halt events in
    /// node order.
    fn finalize(&mut self, round: Round, events: &mut Vec<NodeEvent>) -> Result<(), Self::Error>;
}

/// The phases a single-port host runs on every chunk.  The coordinator
/// keeps the ports: it takes the sends ([`SinglePortHost::drain_sends`])
/// and hands back the contents of each polled port that held messages
/// ([`SinglePortHost::set_drained`]); a poller it hands nothing polled an
/// empty port.
pub trait SinglePortHost: Host {
    /// What nodes send each other.
    type Msg: Payload;

    /// Phase 1: `begin_round` everywhere; each node's destination (if it
    /// sends) and polled port land in its slots.
    fn begin_round(
        &mut self,
        round: Round,
        send_intents: &mut [Vec<NodeId>],
        polls: &mut [Option<NodeId>],
    ) -> Result<(), Self::Error>;

    /// Mirrors a crash verdict into the owning chunk.
    fn set_crashed(&mut self, node: usize, round: Round);

    /// Moves poll buffers the chunks emptied last round into `out`, for
    /// reuse by the port map (a host whose buffers arrive off the wire has
    /// none to give).
    fn take_spares(&mut self, _out: &mut Vec<Vec<Self::Msg>>) {}

    /// Hands every pending send to `enqueue`, in sender order.
    fn drain_sends(&mut self, enqueue: impl FnMut(usize, Outgoing<Self::Msg>));

    /// Hands a running poller the messages drained from its polled port
    /// this round (never empty).  Called only for pollers whose port held
    /// something; every other poller's port is empty.
    fn set_drained(&mut self, node: usize, msgs: Vec<Self::Msg>);

    /// Phase 4: `finalize` everywhere; appends the decision/halt events in
    /// node order.
    fn finalize(&mut self, round: Round, events: &mut Vec<NodeEvent>) -> Result<(), Self::Error>;
}

/// The order-sensitive state both models share: the engine core, the
/// adversary and the flat per-node views it is shown, the Byzantine
/// survivor count, and the event replay.
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
    /// The one constructor check all four runners share.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::EmptySystem`] for zero nodes,
    /// [`crate::SimError::InvalidConfig`] unless `fault_budget < n`.
    pub(crate) fn new(
        n: usize,
        byzantine: NodeSet,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        Ok(Central {
            engine: EngineCore::new(n, fault_budget)?,
            adversary,
            send_intents: (0..n).map(|_| Vec::new()).collect(),
            poll_intents: vec![None; n],
            byz_running: byzantine.len(),
            byzantine,
            events: Vec::new(),
        })
    }

    /// Obligation 1: the adversary sees the whole round once.
    fn crash_phase(&mut self) {
        self.engine
            .apply_crash_phase(&mut *self.adversary, &self.send_intents, &self.poll_intents);
        for &idx in self.engine.crashed_this_round() {
            if self.byzantine.contains(NodeId::new(idx)) {
                self.byz_running -= 1;
            }
        }
    }

    /// Obligation 3: replays this round's events in node order, then
    /// closes the round.
    fn replay<H: Host>(&mut self, host: &mut H, mut on_halt: impl FnMut(usize)) {
        for event in self.events.drain(..) {
            if event.decided {
                if let Some(output) = host.output(event.node) {
                    self.engine.record_decision(event.node, output);
                }
            }
            if event.halted {
                self.engine.mark_halted(event.node);
                host.set_halted(event.node);
                on_halt(event.node);
            }
        }
        self.engine.finish_round();
    }
}

/// One model's round, written against a host.
pub trait Model<H: Host>: Default {
    /// Executes the current round.
    fn step(&mut self, central: &mut Central, host: &mut H) -> Result<(), H::Error>;
}

/// The multi-port round (§2): any number of sends per node, everything
/// addressed to a running node arrives in the same round.
#[derive(Debug, Default)]
pub struct MultiPort {
    /// Per-chunk delivery counts (reused).
    staged: Vec<Staged>,
}

impl<H: MultiPortHost> Model<H> for MultiPort {
    fn step(&mut self, central: &mut Central, host: &mut H) -> Result<(), H::Error> {
        let round = central.engine.round;
        host.begin_round(round, &mut central.send_intents)?;
        central.crash_phase();

        let engine = &mut central.engine;
        let crashed = engine
            .crashed_this_round()
            .iter()
            .filter_map(|&idx| Some((idx, engine.filter(idx)?.clone())))
            .collect();
        self.staged.clear();
        host.deliver(round, crashed, &mut self.staged)?;
        for chunk in &self.staged {
            engine
                .metrics
                .record_messages(round.as_u64(), chunk.messages, chunk.bits);
            engine.metrics.byzantine_messages += chunk.byzantine_messages;
        }

        host.finalize(round, &mut central.events)?;
        central.replay(host, |_| {});
        Ok(())
    }
}

/// The single-port round (§8): one send and one poll per node; a message
/// waits on its destination's in-port until that port is polled.
pub struct SinglePort<M> {
    /// Sparse `(destination, sender)` port buffers.
    ports: PortMap<M>,
    /// Ferries emptied poll buffers from the host back into the port map
    /// (reused; empty between rounds).
    spares: Vec<Vec<M>>,
}

impl<M> Default for SinglePort<M> {
    fn default() -> Self {
        SinglePort {
            ports: PortMap::new(),
            spares: Vec::new(),
        }
    }
}

impl<M: Payload, H: SinglePortHost<Msg = M>> Model<H> for SinglePort<M> {
    #[expect(
        clippy::indexing_slicing,
        reason = "single-port pre-drain: every occupied destination was pushed to as a running \
                  node's index, below n, the length of both per-node vectors"
    )]
    fn step(&mut self, central: &mut Central, host: &mut H) -> Result<(), H::Error> {
        let round = central.engine.round;
        host.begin_round(round, &mut central.send_intents, &mut central.poll_intents)?;
        central.crash_phase();
        for &victim in central.engine.crashed_this_round() {
            // A crashed node never polls again; free its buffered ports.
            self.ports.drop_destination(victim);
            host.set_crashed(victim, round);
        }

        // Last round's emptied poll buffers go back first, so this round's
        // pushes and drains reuse them.
        host.take_spares(&mut self.spares);
        self.ports.reclaim(&mut self.spares);
        let (engine, polls, ports) = (&mut central.engine, &central.poll_intents, &mut self.ports);
        host.drain_sends(|sender, out| {
            if engine.filter(sender).is_some_and(|f| !f.allows(0, out.to)) {
                return;
            }
            engine
                .metrics
                .record_message(round.as_u64(), out.msg.bit_len());
            // A halted node never polls again either, so buffering onto its
            // ports could only leak: counted, then dropped.
            let dest = out.to.index();
            if engine.status.get(dest).is_some_and(|s| s.is_running()) {
                ports.push(dest, sender, out.msg);
            }
        });
        // `receive` never touches the port map and each drain touches only
        // the poller's own in-ports, so draining up front, in any order,
        // equals draining inside the receive loop.  Only the few occupied
        // destinations are visited: every other poller's port is empty and
        // is handed nothing, which is what lets a core answer an idle poll.
        ports.drain_polled(
            |node| {
                polls[node]
                    .filter(|_| engine.status[node].is_running())
                    .map(NodeId::index)
            },
            |node, msgs| host.set_drained(node, msgs),
        );
        host.finalize(round, &mut central.events)?;
        central.replay(host, |halted| self.ports.drop_destination(halted));
        Ok(())
    }
}

/// One execution: a model's round loop over a host's chunks.
///
/// Use it through the aliases that fix the two parameters:
/// [`crate::Runner`], [`crate::SinglePortRunner`],
/// [`crate::shard::ShardedRunner`], [`crate::shard::SpShardedRunner`] and
/// [`crate::shard::mesh::MeshRunner`].
/// A fallible operation returns the host's `Outcome`: the value itself from
/// the in-process runners, a [`SimResult`] from the sharded ones.
pub struct Coordinator<H: Host, X> {
    central: Central,
    pub(crate) host: H,
    model: X,
}

impl<H: Host, X: Model<H>> Coordinator<H, X> {
    pub(crate) fn assemble(central: Central, host: H) -> Self {
        Coordinator {
            central,
            host,
            model: X::default(),
        }
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
        H::outcome(self.model.step(&mut self.central, &mut self.host))
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
            self.model.step(&mut self.central, &mut self.host)?;
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

impl<H: Host, M> Coordinator<H, SinglePort<M>> {
    /// Total sent-but-not-yet-polled messages currently buffered on ports.
    /// With [`Coordinator::ports_in_use`] this is the engine's memory
    /// footprint: both are `O(live messages)`, never `O(n²)`.
    pub fn buffered_messages(&self) -> usize {
        self.model.ports.buffered_messages()
    }

    /// Number of ports currently buffering at least one message.
    pub fn ports_in_use(&self) -> usize {
        self.model.ports.ports_in_use()
    }
}

impl<H: Host, X> fmt::Debug for Coordinator<H, X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("n", &self.central.engine.n())
            .field("round", &self.central.engine.round)
            .field("crashes", &self.central.engine.crashes)
            .finish_non_exhaustive()
    }
}
