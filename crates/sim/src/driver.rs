//! The sans-I/O round cores every execution backend drives.
//!
//! A [`RoundCore`] (multi-port) or [`SinglePortCore`] (single-port) owns a
//! contiguous range of one execution's protocol state machines and exposes
//! the four phase bodies of a synchronous round as pure state transitions:
//!
//! 1. [`RoundCore::begin_round`] — collect outgoing messages and the
//!    per-node intents the adversary may be shown;
//! 2. (the crash phase happens *outside* the core — see below);
//! 3. [`RoundCore::deliver`] — apply crash delivery filters, count surviving
//!    messages, and stage them in sender order for the backend to route to
//!    their destinations' cores ([`RoundCore::accept`]; a core that owns
//!    every node routes them itself);
//! 4. [`RoundCore::finalize`] — drive `receive_owned`, record decisions and
//!    halts, and return a [`RoundOutcome`].
//!
//! A [`SinglePortCore`] runs the same four phases and also owns its nodes'
//! in-ports: its `accept` buffers a message on the `(destination, sender)`
//! port, and its `finalize` drains each polled port before calling anyone.
//!
//! The core knows nothing about threads, pipes, or sockets, and nothing
//! about the other cores of its execution.  Everything order-sensitive
//! *across* cores — the three backend obligations: central crash phase;
//! deliver, then count in node order; finalize, then replay in node order —
//! is implemented once in `crate::coordinator`, over a host that only
//! decides where the cores live: in this process (one core, on the
//! caller's thread), behind shard transports (whose workers drive a core
//! per chunk from decoded frames, see [`crate::shard`]), or one node per
//! process of a mesh, where every node runs the coordinator for itself
//! ([`crate::shard::mesh`], the `dft-node` TCP cluster).  In every case
//! the *same* struct runs the phase bodies, which is what keeps every
//! backend byte-identical: the round semantics live here exactly once.
//!
//! This module is private to `dft-sim` (backends outside the crate use the
//! root re-exports), and the clock, thread and socket types are
//! `disallowed-types` workspace-wide (`clippy.toml`): a module that does
//! I/O says so with an `#![expect]`, and this one does not.
//!
//! # Idle nodes are not called
//!
//! The paper's algorithms are phase-scheduled, so most node-rounds carry
//! nothing.  A protocol may say so ([`SyncProtocol::quiet_until`],
//! [`SinglePortProtocol::quiet_until`]); each core keeps the round every
//! node asked to be woken at and, until then, calls neither half of its
//! round — a multi-port node is woken early by a message
//! ([`RoundCore::accept`]).  Byzantine participants are never skipped.
//! A multi-port core files each sleeper in a wake calendar and visits only
//! the nodes due or woken, so a round costs O(called + woken) plus a heap
//! push and a later pop per node that goes to sleep, not a pass over every
//! node.
//! A single-port node may also state the planned polls in which it only
//! listens ([`SinglePortProtocol::idle_polls`]); the core answers those
//! itself and calls the node only when the drained port holds a message.
//! Only the ports that hold messages are drained (walking the occupied
//! destinations; [`SinglePortCore::set_drained`] records a probed node a
//! port is handed to), so [`SinglePortCore::finalize`] visits the nodes it
//! called and those, and an idle poll of an empty port costs nothing after
//! `begin_round`.  Every per-node slice a backend reads (`send_intents()`,
//! `sends()`, `polls()`) keeps its length; a skipped node's entry is simply
//! empty, and an idle poll shows its planned port.
//! With `debug_assertions` the skipped calls are still made and must come
//! back empty (for idle polls, in a checking pass over every one answered),
//! which is how the hint is checked (`DESIGN.md`, "The
//! activity contract").
//!
//! # The crash phase stays outside
//!
//! The crash adversary's contract ([`crate::CrashAdversary`]) hands one
//! mutable strategy a coherent view of the *whole* round, so the phase can
//! never be split across cores.  The coordinator runs it centrally (in a
//! mesh, every node runs the same seeded adversary for itself) and mirrors
//! its verdicts into each core with [`RoundCore::set_crashed`]; the
//! resulting delivery filters are passed to [`RoundCore::deliver`].
//! Only the in-process host, whose one core holds every node, shows the
//! adversary the intents `begin_round` collected: it lends the core's own
//! per-node slices ([`ChunkCore::intents`]), so nothing is copied.  A
//! shard worker or a mesh node shows none, and its coordinator accepts
//! only an oblivious adversary, which plans without them.

#![expect(
    clippy::indexing_slicing,
    reason = "core-local parallel vectors share one length fixed at construction; local indices \
              are the core's own 0..len() loops or come from the backend's chunk arithmetic"
)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::adversary::DeliveryFilter;
use crate::coordinator::Staged;
use crate::delivery::PortMap;
use crate::message::{Delivered, Outgoing, Payload};
use crate::node::NodeId;
use crate::protocol::{NodeStatus, SinglePortProtocol, SyncProtocol};
use crate::round::Round;
use crate::runner::Participant;

/// A decision/halt event produced by a core's [`RoundCore::finalize`] (or
/// [`SinglePortCore::finalize`]): the global node index, whether the node
/// produced its first output this round, and whether it voluntarily halted.
///
/// Backends replay these in node-index order so traces and statuses update
/// exactly as in a serial run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeEvent {
    /// The node the event concerns (global index).
    pub node: usize,
    /// The node produced its first output this round.
    pub decided: bool,
    /// The node voluntarily halted this round.
    pub halted: bool,
}

/// What one core's round produced: the decision/halt events of
/// [`RoundCore::finalize`] plus the metric deltas counted by
/// [`RoundCore::deliver`] (zero for a single-port core driven through its
/// pre-drain API, which never delivers).
#[derive(Debug)]
pub struct RoundOutcome<'c> {
    /// Decision/halt events in node-index order.
    pub events: &'c [NodeEvent],
    /// Messages sent by this core's non-Byzantine senders this round
    /// (surviving their crash filters; destinations' fates don't matter).
    pub messages: u64,
    /// Total bits carried by those messages.
    pub bits: u64,
    /// Messages sent by this core's Byzantine senders this round (counted
    /// separately; the paper excludes them from communication totals).
    pub byzantine_messages: u64,
}

/// What a host asks of a core, whichever model it runs: the in-process
/// host (`crate::runner`) calls it directly on its one core, a shard
/// worker (`crate::shard`) from decoded frames.  Each method is the phase
/// body of the same name (`local` indexes from the core's base).  Public
/// only so that host can name it: this module is private, so no other
/// crate can implement or call it.
pub trait ChunkCore {
    type Msg: Payload;
    type Output: Clone + fmt::Debug;

    fn base(&self) -> usize;
    fn len(&self) -> usize;
    fn begin_round(&mut self, round: Round);
    /// What the last `begin_round` collected for the adversary, one slot
    /// per node (index `i` is node `base + i`'s): each node's destinations
    /// and its polled port (always `None` in the multi-port model).
    fn intents(&self) -> (&[Vec<NodeId>], &[Option<NodeId>]);
    fn set_crashed(&mut self, local: usize, round: Round);
    fn set_halted(&mut self, local: usize);
    /// The survivor loop of both delivery phases: applies the crash filters
    /// (`filters`, globally indexed, of the nodes that crashed this round)
    /// to this round's sends, in sender order, counts the messages that
    /// survive, hands each to `sink` with its global destination, and
    /// returns the counts.
    fn survivors(
        &mut self,
        filters: &[(usize, DeliveryFilter)],
        sink: impl FnMut(&mut Self, usize, Delivered<Self::Msg>),
    ) -> Staged;
    fn delivered(&mut self) -> &mut Vec<(usize, Delivered<Self::Msg>)>;
    fn accept(&mut self, local: usize, msg: Delivered<Self::Msg>);
    fn finalize(&mut self, round: Round);
    /// The decision/halt events of the last `finalize`.
    fn events(&self) -> &[NodeEvent];
    fn output(&self, local: usize) -> Option<&Self::Output>;

    /// Phase 3: stages the survivors, tagged with their global destination,
    /// for the backend to route to their destinations' `accept`.
    fn deliver(&mut self, filters: &[(usize, DeliveryFilter)]) -> Staged {
        self.delivered().clear();
        self.survivors(filters, |core, dest, msg| {
            core.delivered().push((dest, msg))
        })
    }

    /// Phase 3 for a core that owns every node of its execution (base 0,
    /// so a destination is a local index): each survivor goes straight to
    /// `accept`, in sender order, and one addressed past the last node is
    /// dropped.  Nothing is staged.
    fn deliver_direct(&mut self, filters: &[(usize, DeliveryFilter)]) -> Staged {
        self.survivors(filters, |core, dest, msg| {
            if dest < core.len() {
                core.accept(dest, msg);
            }
        })
    }
}

/// The multi-port sans-I/O core: one backend-agnostic slice of an
/// execution, owning nodes `base .. base + len()`.
///
/// The scratch fields (`delivered`, `events`, the metric counters and every
/// per-node queue) persist across rounds: a serial runner keeps its one
/// core on its own thread, a shard worker holds one for the execution's
/// lifetime, and a `dft-node` process drives a single-node core over TCP —
/// in every case buffer capacity survives instead of being reallocated per
/// phase.
pub struct RoundCore<P: SyncProtocol> {
    /// Global index of the first node in this core.
    pub(crate) base: usize,
    pub(crate) participants: Vec<Participant<P>>,
    /// Core-local status of each node, kept in sync with the coordinator
    /// via [`RoundCore::set_crashed`] and the event replay.
    pub(crate) status: Vec<NodeStatus>,
    /// Core-local mirror of the Byzantine mask.
    pub(crate) byz: Vec<bool>,
    pub(crate) outgoing: Vec<Vec<Outgoing<P::Msg>>>,
    pub(crate) send_intents: Vec<Vec<NodeId>>,
    /// One `None` per node: the multi-port model has no polls, but the
    /// adversary's view has a poll slot per node.
    pub(crate) polls: Vec<Option<NodeId>>,
    pub(crate) inboxes: Vec<Vec<Delivered<P::Msg>>>,
    pub(crate) byz_inboxes: Vec<Vec<Delivered<P::Msg>>>,
    pub(crate) outputs: Vec<Option<P::Output>>,
    /// Delivery scratch: surviving messages in sender order, tagged with
    /// their global destination for the backend to route (left empty by
    /// [`ChunkCore::deliver_direct`]).
    pub(crate) delivered: Vec<(usize, Delivered<P::Msg>)>,
    /// Receive scratch: decision/halt events for the backend's replay.
    pub(crate) events: Vec<NodeEvent>,
    /// Messages / bits sent by non-Byzantine senders this round.
    pub(crate) msgs: u64,
    pub(crate) bits: u64,
    /// Messages sent by Byzantine senders this round (counted separately).
    pub(crate) byz_msgs: u64,
    /// Per node, the first round it has to be called in again unprompted
    /// (its last [`SyncProtocol::quiet_until`]); 0 while it is awake.
    pub(crate) wake: Vec<u64>,
    /// The nodes the last [`RoundCore::begin_round`] called, ascending —
    /// the only ones with a send queue or intents to look at — and, once
    /// [`RoundCore::accept`] ran, the ones a message woke, appended.
    pub(crate) called: Vec<usize>,
    /// The nodes to call next round: filed by [`RoundCore::finalize`],
    /// joined by the calendar's entries that fall due.
    pub(crate) due: Vec<usize>,
    /// `(wake round, node)` for each node asleep past next round, earliest
    /// first.  An entry is live only while `wake[node]` still equals its
    /// round; a message and a new hint leave the old one behind, stale.
    pub(crate) calendar: BinaryHeap<Reverse<(u64, usize)>>,
    /// Node-rounds in which a node was called at all.
    pub(crate) active: u64,
}

/// Panics unless a node the core skipped kept the promise of its
/// `quiet_until`: no first decision and no halt while quiet.
fn assert_still_quiet(node: usize, round: Round, decided: bool, halted: bool) {
    assert!(
        !decided && !halted,
        "node {node} claimed to be quiet through round {round} but changed state \
         (first output: {decided}, halted: {halted})"
    );
}

impl<P: SyncProtocol> RoundCore<P> {
    /// A fresh core at the start of an execution (every node `Running`,
    /// all scratch empty) — how a shard worker or cluster node starts
    /// before round 0.
    pub fn new(base: usize, participants: Vec<Participant<P>>) -> Self {
        let len = participants.len();
        let byz = participants.iter().map(Participant::is_byzantine).collect();
        RoundCore {
            base,
            participants,
            status: vec![NodeStatus::Running; len],
            byz,
            outgoing: (0..len).map(|_| Vec::new()).collect(),
            send_intents: (0..len).map(|_| Vec::new()).collect(),
            polls: vec![None; len],
            inboxes: (0..len).map(|_| Vec::new()).collect(),
            byz_inboxes: (0..len).map(|_| Vec::new()).collect(),
            outputs: (0..len).map(|_| None).collect(),
            delivered: Vec::new(),
            events: Vec::new(),
            msgs: 0,
            bits: 0,
            byz_msgs: 0,
            wake: vec![0; len],
            called: Vec::new(),
            due: (0..len).collect(),
            calendar: BinaryHeap::new(),
            active: 0,
        }
    }

    /// Global index of the first node in this core.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of nodes this core owns.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// Whether this core owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// Node-rounds in which this core called a node at all — `send`, or a
    /// `receive` a message woke it for — since the execution began.  The
    /// effort measure of Dwork–Halpern–Waarts; a diagnostic, never part of
    /// a report.
    pub fn active_node_rounds(&self) -> u64 {
        self.active
    }

    /// Phase 1: collect sends and adversary-visible intents for this
    /// core's nodes that are due, in ascending node order.
    pub fn begin_round(&mut self, round: Round) {
        let r = round.as_u64();
        // Only last round's callers can have left intents behind.
        for &i in &self.called {
            self.send_intents[i].clear();
        }
        self.called.clear();
        while let Some(&Reverse((at, i))) = self.calendar.peek() {
            if at > r {
                break;
            }
            self.calendar.pop();
            if self.wake[i] == at {
                self.due.push(i);
            }
        }
        self.due.sort_unstable();
        self.due.dedup();
        for &i in &self.due {
            if !self.status[i].is_running() {
                continue;
            }
            // The queue doubles as the node's send scratch: cleared and
            // filled by the protocol here, drained by `deliver` — its
            // capacity is the only thing that survives the round.
            let queue = &mut self.outgoing[i];
            match &mut self.participants[i] {
                Participant::Honest(p) => {
                    self.wake[i] = 0;
                    queue.clear();
                    p.send(round, queue);
                }
                // Byzantine nodes act on last round's inbox when sending.
                Participant::Byzantine(b) => *queue = b.act(round, &self.byz_inboxes[i]),
            }
            self.send_intents[i].extend(queue.iter().map(|m| m.to));
            self.called.push(i);
        }
        self.due.clear();
        if cfg!(debug_assertions) {
            // Whoever is asleep was skipped: make its call anyway.
            let queues = self.outgoing.iter_mut().zip(&self.status).zip(&self.wake);
            for (i, (participant, ((queue, status), &wake))) in
                self.participants.iter_mut().zip(queues).enumerate()
            {
                if let Participant::Honest(p) = participant {
                    if wake > r && status.is_running() {
                        p.send(round, queue);
                        assert!(
                            queue.is_empty(),
                            "node {} claimed to be quiet until round {wake} but sends in round {round}",
                            self.base + i,
                        );
                    }
                }
            }
        }
        self.active += self.called.len() as u64;
    }

    /// The per-node destination lists collected by the last
    /// [`RoundCore::begin_round`] — what the crash adversary is shown.
    pub fn send_intents(&self) -> &[Vec<NodeId>] {
        &self.send_intents
    }

    /// Mirrors a crash verdict from the backend's central crash phase into
    /// this core (`local` indexes from [`RoundCore::base`]).
    pub fn set_crashed(&mut self, local: usize, round: Round) {
        self.status[local] = NodeStatus::Crashed(round);
    }

    /// Mirrors a voluntary halt into this core's status (backends that
    /// replay events centrally use this; [`RoundCore::finalize`] does not
    /// mark halts itself so the replay order stays with the backend).
    pub fn set_halted(&mut self, local: usize) {
        self.status[local] = NodeStatus::Halted;
    }

    /// A node's current status as this core sees it.
    pub fn status(&self, local: usize) -> NodeStatus {
        self.status[local]
    }

    /// Phase 3: scan this round's senders into the delivery scratch
    /// (surviving messages in sender order plus message / bit / Byzantine
    /// counters).  `filters` holds the delivery filters of nodes that
    /// crashed this round (globally indexed; almost always empty).  The
    /// destination's core checks its status in [`RoundCore::accept`].
    /// Inboxes are not touched: [`RoundCore::finalize`] empties each one
    /// right after its node's `receive`, so every inbox is empty here.
    pub fn deliver(&mut self, filters: &[(usize, DeliveryFilter)]) {
        ChunkCore::deliver(self, filters);
    }

    /// The surviving messages staged by the last [`RoundCore::deliver`], in
    /// sender order, tagged with their global destination.  The backend
    /// routes each entry to its destination core's [`RoundCore::accept`],
    /// which drops it if the destination is no longer running.
    pub fn delivered(&self) -> &[(usize, Delivered<P::Msg>)] {
        &self.delivered
    }

    /// Routes one inbound message into a node's inbox for the current
    /// round (`local` indexes from [`RoundCore::base`]).  A message to a
    /// node that is not running is dropped: it would never be read.
    pub fn accept(&mut self, local: usize, msg: Delivered<P::Msg>) {
        if !self.status[local].is_running() {
            return;
        }
        self.inboxes[local].push(msg);
        // A message ends a node's quiet: it was skipped in `begin_round`,
        // and `finalize` now calls it after all.
        let wake = &mut self.wake[local];
        if *wake != 0 {
            *wake = 0;
            self.active += 1;
            self.called.push(local);
        }
    }

    /// Phase 4: drive [`SyncProtocol::receive_owned`] for the nodes called
    /// this round and the ones a message woke, in node order, each moving
    /// what it wants out of its inbox; empty their inboxes; record first
    /// decisions and voluntary halts; ask each how long it stays quiet and
    /// file it for next round or in the calendar; and return the round's
    /// outcome.
    ///
    /// The core does **not** advance its own status on a halt: the backend
    /// replays the returned events in global node order (and only then
    /// mirrors statuses back), so cross-core event ordering — and therefore
    /// traces — cannot depend on which core finalized first.
    pub fn finalize(&mut self, round: Round) -> RoundOutcome<'_> {
        self.events.clear();
        let r = round.as_u64();
        // `accept` appended the nodes it woke.
        self.called.sort_unstable();
        if cfg!(debug_assertions) {
            // Whoever is still asleep was skipped: make its call anyway.
            let state = self.status.iter().zip(&self.wake).zip(&self.outputs);
            for (i, (participant, ((status, &wake), first_output))) in
                self.participants.iter_mut().zip(state).enumerate()
            {
                if let Participant::Honest(p) = participant {
                    if wake > r && status.is_running() {
                        p.receive_owned(round, &mut Vec::new());
                        let decided = first_output.is_none() && p.output().is_some();
                        assert_still_quiet(self.base + i, round, decided, p.has_halted());
                    }
                }
            }
        }
        for &i in &self.called {
            let inbox = &mut self.inboxes[i];
            if !self.status[i].is_running() {
                // Crashed after its `send`; nothing was accepted for it.
                continue;
            }
            match &mut self.participants[i] {
                Participant::Honest(p) => {
                    p.receive_owned(round, inbox);
                    inbox.clear();
                    let mut decided = false;
                    if let Some(output) = p.output() {
                        let first_output = &mut self.outputs[i];
                        if first_output.is_none() {
                            *first_output = Some(output);
                            decided = true;
                        }
                    }
                    let halted = p.has_halted();
                    if decided || halted {
                        self.events.push(NodeEvent {
                            node: self.base + i,
                            decided,
                            halted,
                        });
                    }
                    let wake = p.quiet_until(round).map_or(0, Round::as_u64);
                    self.wake[i] = wake;
                    if wake > r + 1 {
                        self.calendar.push(Reverse((wake, i)));
                        continue;
                    }
                }
                // Byzantine nodes just remember their inbox for next round.
                Participant::Byzantine(_) => {
                    std::mem::swap(&mut self.byz_inboxes[i], inbox);
                    inbox.clear();
                }
            }
            self.due.push(i);
        }
        if self.calendar.len() > 2 * self.len() {
            // Mostly stale entries and duplicates by now: keep one entry per
            // live wake round, so the calendar stays O(n) however often
            // messages cut a node's sleep short.
            let wake = &self.wake;
            let mut entries = std::mem::take(&mut self.calendar).into_vec();
            entries.retain(|&Reverse((at, i))| wake[i] == at);
            entries.sort_unstable();
            entries.dedup();
            self.calendar = entries.into();
        }
        RoundOutcome {
            events: &self.events,
            messages: self.msgs,
            bits: self.bits,
            byzantine_messages: self.byz_msgs,
        }
    }

    /// A node's first output, if it has decided (`local` indexes from
    /// [`RoundCore::base`]).
    pub fn output(&self, local: usize) -> Option<&P::Output> {
        self.outputs[local].as_ref()
    }
}

impl<P: SyncProtocol> ChunkCore for RoundCore<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn base(&self) -> usize {
        self.base
    }
    fn len(&self) -> usize {
        self.participants.len()
    }
    fn begin_round(&mut self, round: Round) {
        RoundCore::begin_round(self, round);
    }
    fn intents(&self) -> (&[Vec<NodeId>], &[Option<NodeId>]) {
        (&self.send_intents, &self.polls)
    }
    fn set_crashed(&mut self, local: usize, round: Round) {
        RoundCore::set_crashed(self, local, round);
    }
    fn set_halted(&mut self, local: usize) {
        RoundCore::set_halted(self, local);
    }
    fn survivors(
        &mut self,
        filters: &[(usize, DeliveryFilter)],
        mut sink: impl FnMut(&mut Self, usize, Delivered<P::Msg>),
    ) -> Staged {
        self.msgs = 0;
        self.bits = 0;
        self.byz_msgs = 0;
        // Only the senders: `accept` appends the nodes it wakes behind them.
        for k in 0..self.called.len() {
            let i = self.called[k];
            // Lent out so `sink` may take the core; handed back drained.
            let mut queue = std::mem::take(&mut self.outgoing[i]);
            let sender_idx = self.base + i;
            let sender = NodeId::new(sender_idx);
            let is_byzantine = self.byz[i];
            let filter = filters
                .iter()
                .find(|(node, _)| *node == sender_idx)
                .map(|(_, filter)| filter);
            for (msg_idx, out) in queue.drain(..).enumerate() {
                if let Some(filter) = filter {
                    if !filter.allows(msg_idx, out.to) {
                        continue;
                    }
                }
                if is_byzantine {
                    self.byz_msgs += 1;
                } else {
                    self.msgs += 1;
                    self.bits += out.msg.bit_len();
                }
                sink(self, out.to.index(), Delivered::new(sender, out.msg));
            }
            self.outgoing[i] = queue;
        }
        Staged {
            messages: self.msgs,
            bits: self.bits,
            byzantine_messages: self.byz_msgs,
        }
    }
    fn delivered(&mut self) -> &mut Vec<(usize, Delivered<P::Msg>)> {
        &mut self.delivered
    }
    fn accept(&mut self, local: usize, msg: Delivered<P::Msg>) {
        RoundCore::accept(self, local, msg);
    }
    fn finalize(&mut self, round: Round) {
        RoundCore::finalize(self, round);
    }
    fn events(&self) -> &[NodeEvent] {
        &self.events
    }
    fn output(&self, local: usize) -> Option<&P::Output> {
        RoundCore::output(self, local)
    }
}

/// A node's last statement of idle polls ([`SinglePortProtocol::idle_polls`])
/// as a core keeps it: the run covers rounds `start .. end`, and the node
/// is called again in `resume`.  The ports are not copied: the core asks
/// again with the round the run was stated in.  The default is no run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdleRun {
    stated: u64,
    start: u64,
    end: u64,
    resume: u64,
}

impl IdleRun {
    /// What `node` states at the end of round `now`, whose hint wakes it in
    /// `wake` (0: next round).
    fn stated<P: SinglePortProtocol>(node: &P, now: u64, wake: u64) -> Self {
        let Some(idle) = node.idle_polls(Round::new(now)) else {
            return IdleRun::default();
        };
        let start = wake.max(now + 1);
        IdleRun {
            stated: now,
            start,
            end: start + idle.ports.len() as u64,
            resume: idle.resume.as_u64(),
        }
    }

    /// The port `node` planned for `round` of this run, if its statement
    /// still names one.
    fn port<P: SinglePortProtocol>(&self, node: &P, round: u64) -> Option<NodeId> {
        let idle = node.idle_polls(Round::new(self.stated))?;
        let k = usize::try_from(round.checked_sub(self.start)?).ok()?;
        idle.ports.get(k).copied()
    }
}

/// Makes the calls of an idle poll of `port` in `round` — `send`, `poll`,
/// `receive` — and panics if the node sends or polls another port.
fn call_idle_poll<P: SinglePortProtocol>(
    node: &mut P,
    global: usize,
    round: Round,
    port: NodeId,
    msgs: &mut Vec<P::Msg>,
) {
    let sent = node.send(round).is_some();
    let polled = node.poll(round);
    assert!(
        !sent && polled == Some(port),
        "node {global} stated an idle poll of port {port:?} in round {round} but sends: {sent}, \
         polls: {polled:?}"
    );
    node.receive(round, port, msgs);
}

/// The single-port sans-I/O core: one backend-agnostic slice of a
/// single-port execution, owning nodes `base .. base + len()` and their
/// in-ports.
///
/// A round is the multi-port core's: [`SinglePortCore::begin_round`]
/// collects each node's single send and poll intent,
/// [`SinglePortCore::deliver`] filters, counts and stages the sends for the
/// backend to route to their destinations' [`SinglePortCore::accept`], which
/// buffers each on its port, and [`SinglePortCore::finalize`] drains every
/// polled port that holds something before it calls a node.  A caller that
/// keeps the ports itself skips `deliver` and `accept`: it takes the sends
/// ([`SinglePortCore::take_send`]) and hands each poller its port
/// ([`SinglePortCore::set_drained`]), and the core's own ports stay empty.
pub struct SinglePortCore<P: SinglePortProtocol> {
    /// Global index of the first node in this core.
    pub(crate) base: usize,
    pub(crate) nodes: Vec<P>,
    /// Core-local status of each node, kept in sync with the coordinator.
    pub(crate) status: Vec<NodeStatus>,
    /// Per-node single send for the current round.
    pub(crate) sends: Vec<Option<Outgoing<P::Msg>>>,
    /// Per-node poll intent for the current round.
    pub(crate) polls: Vec<Option<NodeId>>,
    /// Per-node destination of the current round's send, as the list the
    /// adversary's view holds: empty, or the one destination.
    pub(crate) dests: Vec<Vec<NodeId>>,
    /// Per-node drained poll results: `Some` only for the nodes listed
    /// in `handed`, between the drain (or [`SinglePortCore::set_drained`]) and
    /// [`SinglePortCore::finalize`].
    pub(crate) drained: Vec<Option<Vec<P::Msg>>>,
    /// The nodes handed a non-empty port this round, in hand-over order.
    pub(crate) handed: Vec<usize>,
    /// The in-ports of this core's nodes, keyed by `(local destination,
    /// global sender)`.  Its pool of emptied buffers is where
    /// [`SinglePortCore::finalize`] recycles each consumed poll buffer,
    /// capped at one buffer per node.
    pub(crate) ports: PortMap<P::Msg>,
    /// Delivery scratch: surviving sends in sender order, tagged with their
    /// global destination for the backend to route (left empty by
    /// [`ChunkCore::deliver_direct`]).
    pub(crate) delivered: Vec<(usize, Delivered<P::Msg>)>,
    /// Messages / bits sent this round.
    pub(crate) msgs: u64,
    pub(crate) bits: u64,
    pub(crate) outputs: Vec<Option<P::Output>>,
    /// Receive scratch: decision/halt events for the backend's replay.
    pub(crate) events: Vec<NodeEvent>,
    /// Per node, the first round the core has to act for it in again —
    /// call it, or answer its next idle poll; 0 while it is awake.
    pub(crate) wake: Vec<u64>,
    /// Per node, its last statement of idle polls.
    pub(crate) runs: Vec<IdleRun>,
    /// The nodes the last [`SinglePortCore::begin_round`] called, ascending
    /// — the only ones that can have a send this round — and, once
    /// [`SinglePortCore::finalize`] ran, the probed ones it called too.
    pub(crate) called: Vec<usize>,
    /// The nodes whose idle poll the last [`SinglePortCore::begin_round`]
    /// answered, ascending: a poll and nothing else.
    pub(crate) probed: Vec<usize>,
    /// Node-rounds in which a node was called.
    pub(crate) active: u64,
    /// Idle polls answered without a call.
    pub(crate) answered: u64,
    /// Polled ports handed over holding messages.
    pub(crate) full_ports: u64,
}

impl<P: SinglePortProtocol> SinglePortCore<P> {
    /// A fresh core at the start of an execution (every node `Running`,
    /// all scratch empty).
    pub fn new(base: usize, nodes: Vec<P>) -> Self {
        let len = nodes.len();
        SinglePortCore {
            base,
            nodes,
            status: vec![NodeStatus::Running; len],
            sends: (0..len).map(|_| None).collect(),
            polls: vec![None; len],
            dests: (0..len).map(|_| Vec::new()).collect(),
            drained: (0..len).map(|_| None).collect(),
            handed: Vec::new(),
            ports: PortMap::new(),
            delivered: Vec::new(),
            msgs: 0,
            bits: 0,
            outputs: (0..len).map(|_| None).collect(),
            events: Vec::new(),
            wake: vec![0; len],
            runs: vec![IdleRun::default(); len],
            called: Vec::new(),
            probed: Vec::new(),
            active: 0,
            answered: 0,
            full_ports: 0,
        }
    }

    /// Global index of the first node in this core.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of nodes this core owns.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether this core owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node-rounds in which this core called a node (`send` and `poll`)
    /// since the execution began; see [`RoundCore::active_node_rounds`].
    /// An idle poll the core answers itself
    /// ([`SinglePortProtocol::idle_polls`]) is not a call.
    pub fn active_node_rounds(&self) -> u64 {
        self.active
    }

    /// Planned idle polls this core answered without calling the node,
    /// since the execution began: every idle poll whose port was handed
    /// nothing (a poll by a node that crashed in the same round included).
    pub fn answered_idle_polls(&self) -> u64 {
        self.answered
    }

    /// Polled ports that held messages when they were drained (or handed
    /// to this core with [`SinglePortCore::set_drained`]), since the
    /// execution began.
    pub fn full_ports_drained(&self) -> u64 {
        self.full_ports
    }

    /// Phase 1: collect the single send and poll intent of each running
    /// node that is awake, and show the planned port of each idle poll.
    pub fn begin_round(&mut self, round: Round) {
        // Only last round's callers can have left a send behind, and only
        // they and last round's probes a poll.
        for &i in &self.called {
            self.sends[i] = None;
            self.polls[i] = None;
            self.dests[i].clear();
        }
        for &i in &self.probed {
            self.polls[i] = None;
        }
        self.called.clear();
        self.probed.clear();
        let r = round.as_u64();
        let intents = self
            .sends
            .iter_mut()
            .zip(&mut self.polls)
            .zip(&mut self.dests);
        let state = self
            .status
            .iter()
            .zip(self.wake.iter_mut().zip(&mut self.runs));
        let per_node = self.nodes.iter_mut().zip(intents).zip(state);
        for (i, ((node, ((send, poll), dests)), (status, (wake, run)))) in per_node.enumerate() {
            if *wake > r {
                if cfg!(debug_assertions) && status.is_running() {
                    let (sent, polled) = (node.send(round).is_some(), node.poll(round).is_some());
                    assert!(
                        !sent && !polled,
                        "node {} claimed to be quiet until round {wake} but in round {round} \
                         sends: {sent}, polls: {polled}",
                        self.base + i,
                    );
                }
                continue;
            }
            if !status.is_running() {
                continue;
            }
            if r < run.end {
                // An idle poll: `finalize` calls the node only if the port
                // holds a message.
                if let Some(port) = run.port(node, r) {
                    *poll = Some(port);
                    *wake = if r + 1 < run.end { r + 1 } else { run.resume };
                    self.probed.push(i);
                    continue;
                }
                *run = IdleRun::default();
            }
            *send = node.send(round);
            *poll = node.poll(round);
            dests.extend(send.as_ref().map(|out| out.to));
            self.called.push(i);
        }
        self.active += self.called.len() as u64;
    }

    /// Phase 3: applies the crash filters (`filters`, globally indexed, of
    /// the nodes that crashed this round) to this round's sends, in sender
    /// order, counts the ones that survive and stages each with its global
    /// destination.  The destination's core checks its status in
    /// [`SinglePortCore::accept`].
    pub fn deliver(&mut self, filters: &[(usize, DeliveryFilter)]) {
        ChunkCore::deliver(self, filters);
    }

    /// Buffers one inbound message on its port (`local` indexes the
    /// destination from [`SinglePortCore::base`]; the port is the sender's).
    /// A message to a node that is not running is dropped: a crashed or
    /// halted node never polls again, so buffering it could only leak.
    pub fn accept(&mut self, local: usize, msg: Delivered<P::Msg>) {
        if self.status[local].is_running() {
            self.ports.push(local, msg.from.index(), msg.msg);
        }
    }

    /// The per-node sends collected by the last
    /// [`SinglePortCore::begin_round`].
    pub fn sends(&self) -> &[Option<Outgoing<P::Msg>>] {
        &self.sends
    }

    /// Moves a node's pending send out of the core (a caller that keeps
    /// the ports itself enqueues it onto the destination's port, applying
    /// crash filters and counting).
    pub fn take_send(&mut self, local: usize) -> Option<Outgoing<P::Msg>> {
        self.sends[local].take()
    }

    /// The per-node poll intents collected by the last
    /// [`SinglePortCore::begin_round`], idle polls included.
    pub fn polls(&self) -> &[Option<NodeId>] {
        &self.polls
    }

    /// Hands a node the contents a caller that keeps the ports itself
    /// drained from its polled port this round, between
    /// [`SinglePortCore::begin_round`] and [`SinglePortCore::finalize`].
    /// `None` (the node did not poll or is not running) and an empty port
    /// mean the same, so a caller may hand over only the ports that hold
    /// messages and leave every other poller alone.  A node whose idle poll
    /// is handed a message is called after all.
    pub fn set_drained(&mut self, local: usize, msgs: Option<Vec<P::Msg>>) {
        match msgs {
            Some(msgs) if !msgs.is_empty() => {
                self.full_ports += 1;
                if self.drained[local].replace(msgs).is_none() {
                    self.handed.push(local);
                }
            }
            empty => {
                self.drained[local] = None;
                if let Some(buf) = empty {
                    self.ports.recycle(buf, self.nodes.len());
                }
            }
        }
    }

    /// Moves the emptied poll buffers the core pooled into `out` (for a
    /// caller that keeps the ports itself to reuse).
    pub fn take_spares(&mut self, out: &mut Vec<Vec<P::Msg>>) {
        self.ports.take_spares(out);
    }

    /// Mirrors a crash verdict from the backend's central crash phase and
    /// drops the node's ports: it never polls again.
    pub fn set_crashed(&mut self, local: usize, round: Round) {
        self.status[local] = NodeStatus::Crashed(round);
        self.ports.drop_destination(local);
    }

    /// Mirrors a voluntary halt into this core's status and drops the
    /// node's ports, as [`SinglePortCore::set_crashed`] does.
    pub fn set_halted(&mut self, local: usize) {
        self.status[local] = NodeStatus::Halted;
        self.ports.drop_destination(local);
    }

    /// Messages buffered on this core's ports, sent but not yet polled.
    /// With [`SinglePortCore::ports_in_use`] this is the core's port
    /// memory: both are `O(live messages)`, never `O(n²)`.
    pub fn buffered_messages(&self) -> usize {
        self.ports.buffered_messages()
    }

    /// Ports of this core's nodes currently buffering at least one message.
    pub fn ports_in_use(&self) -> usize {
        self.ports.ports_in_use()
    }

    /// A node's current status as this core sees it.
    pub fn status(&self, local: usize) -> NodeStatus {
        self.status[local]
    }

    /// Phase 4: drain the polled port of each running poller that holds
    /// something, call each probed node whose port held a message, hand
    /// the drained polls to the nodes called this round, advance their
    /// outputs, ask each how long it stays quiet and which idle polls it
    /// states, and return the round's outcome.  Only the called nodes and
    /// the ones handed a port are visited; the other idle polls are
    /// answered by not calling their nodes.
    pub fn finalize(&mut self, round: Round) -> RoundOutcome<'_> {
        self.events.clear();
        let r = round.as_u64();
        let spare_cap = self.nodes.len();
        // Every send of the round was routed before this drain, and
        // `receive` never touches a port, so draining here, in the order
        // the destinations became occupied, equals draining in the receive
        // loop.  Only the few occupied destinations are visited.
        let (polls, status) = (&self.polls, &self.status);
        let (drained, handed, full_ports) =
            (&mut self.drained, &mut self.handed, &mut self.full_ports);
        self.ports.drain_polled(
            |to| {
                polls[to]
                    .filter(|_| status[to].is_running())
                    .map(NodeId::index)
            },
            |to, msgs| {
                *full_ports += 1;
                if drained[to].replace(msgs).is_none() {
                    handed.push(to);
                }
            },
        );
        // A message on an idle poll's port: the node is called after all.
        // Called and probed nodes are disjoint, so each joins `called` once.
        self.handed.sort_unstable();
        self.handed.dedup();
        let called_before = self.called.len();
        for &i in &self.handed {
            let probed = self.probed.binary_search(&i).is_ok();
            if probed && self.drained[i].is_some() && self.status[i].is_running() {
                self.called.push(i);
                self.wake[i] = 0;
            }
        }
        let woken = self.called.len() - called_before;
        self.answered += (self.probed.len() - woken) as u64;
        if woken > 0 {
            self.active += woken as u64;
            self.called.sort_unstable();
        }
        if cfg!(debug_assertions) {
            // Every idle poll answered on an empty port is made anyway and
            // must change nothing.
            for &i in &self.probed {
                if !self.status[i].is_running() || self.drained[i].is_some() {
                    continue;
                }
                let (node, global) = (&mut self.nodes[i], self.base + i);
                let mut msgs = Vec::new();
                if let Some(port) = self.polls[i] {
                    call_idle_poll(node, global, round, port, &mut msgs);
                }
                let decided = self.outputs[i].is_none() && node.output().is_some();
                let halted = node.has_halted();
                assert!(
                    !decided && !halted,
                    "node {global} stated an idle poll in round {round} but changed state on an \
                     empty port (first output: {decided}, halted: {halted})"
                );
            }
            // Whoever is asleep now was skipped in `begin_round` too.
            let state = self.status.iter().zip(&self.wake).zip(&self.outputs);
            for (i, (node, ((status, &wake), first_output))) in
                self.nodes.iter().zip(state).enumerate()
            {
                if wake > r && status.is_running() {
                    let decided = first_output.is_none() && node.output().is_some();
                    assert_still_quiet(self.base + i, round, decided, node.has_halted());
                }
            }
        }
        for &i in &self.called {
            if !self.status[i].is_running() {
                continue;
            }
            let node = &mut self.nodes[i];
            if let Some(port) = self.polls[i] {
                let mut msgs = self.drained[i].take().unwrap_or_default();
                if r < self.runs[i].end {
                    call_idle_poll(node, self.base + i, round, port, &mut msgs);
                } else {
                    node.receive(round, port, &mut msgs);
                }
                // Recycle whatever the protocol left behind.
                self.ports.recycle(msgs, spare_cap);
            }
            let mut decided = false;
            if let Some(output) = node.output() {
                let first_output = &mut self.outputs[i];
                if first_output.is_none() {
                    *first_output = Some(output);
                    decided = true;
                }
            }
            let halted = node.has_halted();
            if decided || halted {
                self.events.push(NodeEvent {
                    node: self.base + i,
                    decided,
                    halted,
                });
            }
            let wake = node.quiet_until(round).map_or(0, Round::as_u64);
            self.wake[i] = wake;
            self.runs[i] = IdleRun::stated(node, r, wake);
        }
        // A port handed to a node that was not called (it crashed, or did
        // not poll) is dropped unread.
        for &i in &self.handed {
            if let Some(msgs) = self.drained[i].take() {
                self.ports.recycle(msgs, spare_cap);
            }
        }
        self.handed.clear();
        RoundOutcome {
            events: &self.events,
            messages: self.msgs,
            bits: self.bits,
            byzantine_messages: 0,
        }
    }

    /// A node's first output, if it has decided.
    pub fn output(&self, local: usize) -> Option<&P::Output> {
        self.outputs[local].as_ref()
    }
}

impl<P: SinglePortProtocol> ChunkCore for SinglePortCore<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn base(&self) -> usize {
        self.base
    }
    fn len(&self) -> usize {
        self.nodes.len()
    }
    fn begin_round(&mut self, round: Round) {
        SinglePortCore::begin_round(self, round);
    }
    fn intents(&self) -> (&[Vec<NodeId>], &[Option<NodeId>]) {
        (&self.dests, &self.polls)
    }
    fn set_crashed(&mut self, local: usize, round: Round) {
        SinglePortCore::set_crashed(self, local, round);
    }
    fn set_halted(&mut self, local: usize) {
        SinglePortCore::set_halted(self, local);
    }
    /// A single-port send is a send queue of at most one message, so a
    /// crash filter judges it as the multi-port core judges a queue's first
    /// message.
    fn survivors(
        &mut self,
        filters: &[(usize, DeliveryFilter)],
        mut sink: impl FnMut(&mut Self, usize, Delivered<P::Msg>),
    ) -> Staged {
        self.msgs = 0;
        self.bits = 0;
        for k in 0..self.called.len() {
            let i = self.called[k];
            let Some(out) = self.sends[i].take() else {
                continue;
            };
            let sender = self.base + i;
            let filter = filters.iter().find(|(node, _)| *node == sender);
            if filter.is_some_and(|(_, filter)| !filter.allows(0, out.to)) {
                continue;
            }
            self.msgs += 1;
            self.bits += out.msg.bit_len();
            sink(
                self,
                out.to.index(),
                Delivered::new(NodeId::new(sender), out.msg),
            );
        }
        Staged {
            messages: self.msgs,
            bits: self.bits,
            byzantine_messages: 0,
        }
    }
    fn delivered(&mut self) -> &mut Vec<(usize, Delivered<P::Msg>)> {
        &mut self.delivered
    }
    fn accept(&mut self, local: usize, msg: Delivered<P::Msg>) {
        SinglePortCore::accept(self, local, msg);
    }
    fn finalize(&mut self, round: Round) {
        SinglePortCore::finalize(self, round);
    }
    fn events(&self) -> &[NodeEvent] {
        &self.events
    }
    fn output(&self, local: usize) -> Option<&P::Output> {
        SinglePortCore::output(self, local)
    }
}
