//! The sans-I/O round cores every execution backend drives.
//!
//! A [`RoundCore`] (multi-port) or [`SinglePortCore`] (single-port) owns a
//! contiguous range of one execution's protocol state machines and exposes
//! the four phase bodies of a synchronous round as pure state transitions:
//!
//! 1. [`RoundCore::begin_round`] — collect outgoing messages and
//!    adversary-visible intents;
//! 2. (the crash phase happens *outside* the core — see below);
//! 3. [`RoundCore::deliver`] — apply crash delivery filters, count surviving
//!    messages, and stage them in sender order;
//! 4. [`RoundCore::finalize`] — drive `receive`, record decisions and halts,
//!    and return a [`RoundOutcome`].
//!
//! The core knows nothing about threads, pipes, or sockets, and nothing
//! about the other cores of its execution.  Everything order-sensitive
//! *across* cores — the four backend obligations: central crash phase;
//! deliver, then merge in node order; finalize, then replay in node order;
//! the backend owns the single-port ports — is implemented once per model
//! in `crate::coordinator`, over a host that only decides where the cores
//! live: in this process (one core, on the caller's thread) or behind shard
//! transports (whose workers drive a core per chunk from decoded frames,
//! see [`crate::shard`]).  The `dft-node` TCP cluster is the one backend
//! outside that coordinator: a mesh of single-node cores with a
//! pre-extracted crash schedule has no central process to run it.  In
//! every case the *same* struct runs the phase bodies, which is what keeps
//! every backend byte-identical: the round semantics live here exactly
//! once.
//!
//! This module is a layer boundary enforced by `dft-analyze`'s
//! `sans-io-boundary` rule: no `std::net`, `std::io` or `std::thread`
//! imports may appear here or in `crates/core`.
//!
//! # The crash phase stays outside
//!
//! The crash adversary's contract ([`crate::CrashAdversary`]) hands one
//! mutable strategy a coherent view of the *whole* round, so the phase can
//! never be split across cores.  The coordinator runs it centrally (the
//! cluster launcher: before spawning) and mirrors its verdicts into each
//! core with [`RoundCore::set_crashed`]; the resulting delivery filters are
//! passed to [`RoundCore::deliver`].  Because the shipped adversaries are
//! deterministic functions of `(seed, round)`, every backend derives the
//! same crash schedule independently.

use crate::adversary::DeliveryFilter;
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
/// [`RoundCore::deliver`].
///
/// Single-port cores report zero message counters — in that model the
/// backend owns the port buffers and counts sends itself.
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
    /// Core-local mirror of the backend's status vector, kept in sync via
    /// [`RoundCore::set_crashed`] and the event replay.
    pub(crate) status: Vec<NodeStatus>,
    /// Core-local mirror of the Byzantine mask.
    pub(crate) byz: Vec<bool>,
    pub(crate) outgoing: Vec<Vec<Outgoing<P::Msg>>>,
    pub(crate) send_intents: Vec<Vec<NodeId>>,
    pub(crate) inboxes: Vec<Vec<Delivered<P::Msg>>>,
    pub(crate) byz_inboxes: Vec<Vec<Delivered<P::Msg>>>,
    pub(crate) outputs: Vec<Option<P::Output>>,
    /// Delivery scratch: surviving messages in sender order, tagged with
    /// their global destination for the backend's merge.
    pub(crate) delivered: Vec<(usize, Delivered<P::Msg>)>,
    /// Receive scratch: decision/halt events for the backend's replay.
    pub(crate) events: Vec<NodeEvent>,
    /// Messages / bits sent by non-Byzantine senders this round.
    pub(crate) msgs: u64,
    pub(crate) bits: u64,
    /// Messages sent by Byzantine senders this round (counted separately).
    pub(crate) byz_msgs: u64,
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
            inboxes: (0..len).map(|_| Vec::new()).collect(),
            byz_inboxes: (0..len).map(|_| Vec::new()).collect(),
            outputs: (0..len).map(|_| None).collect(),
            delivered: Vec::new(),
            events: Vec::new(),
            msgs: 0,
            bits: 0,
            byz_msgs: 0,
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

    /// Phase 1: collect sends and adversary-visible intents for this
    /// core's nodes.
    pub fn begin_round(&mut self, round: Round) {
        for (i, participant) in self.participants.iter_mut().enumerate() {
            match (&self.status[i], participant) {
                (NodeStatus::Running, Participant::Honest(p)) => {
                    // The queue doubles as the node's send scratch: cleared
                    // here, filled by the protocol, drained by `deliver` —
                    // its capacity is the only thing that survives the
                    // round.
                    self.outgoing[i].clear();
                    p.send(round, &mut self.outgoing[i]);
                }
                (NodeStatus::Running, Participant::Byzantine(b)) => {
                    // Byzantine nodes act on last round's inbox when sending.
                    self.outgoing[i] = b.act(round, &self.byz_inboxes[i]);
                }
                // Clear-don't-drop: a crashed/halted sender keeps its (long
                // empty) queue instead of swapping in a fresh one per round.
                _ => self.outgoing[i].clear(),
            }
            self.send_intents[i].clear();
            let intents = self.outgoing[i].iter().map(|m| m.to);
            self.send_intents[i].extend(intents);
        }
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

    /// Phase 3: scan this core's senders into the delivery scratch
    /// (surviving messages in sender order plus message / bit / Byzantine
    /// counters).  `filters` holds the delivery filters of nodes that
    /// crashed this round (globally indexed; almost always empty).  The
    /// destination-status check happens in the backend during the merge,
    /// which also clears this core's inboxes for the new round — done here,
    /// while the core is exclusively owned by its driver.
    pub fn deliver(&mut self, filters: &[(usize, DeliveryFilter)]) {
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        self.delivered.clear();
        self.msgs = 0;
        self.bits = 0;
        self.byz_msgs = 0;
        for (i, queue) in self.outgoing.iter_mut().enumerate() {
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
                self.delivered
                    .push((out.to.index(), Delivered::new(sender, out.msg)));
            }
        }
    }

    /// The surviving messages staged by the last [`RoundCore::deliver`], in
    /// sender order, tagged with their global destination.  The backend
    /// routes each entry to its destination core with
    /// [`RoundCore::accept`] (dropping entries whose destination is no
    /// longer running).
    pub fn delivered(&self) -> &[(usize, Delivered<P::Msg>)] {
        &self.delivered
    }

    /// Routes one inbound message into a node's inbox for the current
    /// round (`local` indexes from [`RoundCore::base`]).
    pub fn accept(&mut self, local: usize, msg: Delivered<P::Msg>) {
        self.inboxes[local].push(msg);
    }

    /// Phase 4: drive `receive` for this core's nodes, record first
    /// decisions and voluntary halts, and return the round's outcome.
    ///
    /// The core does **not** advance its own status on a halt: the backend
    /// replays the returned events in global node order (and only then
    /// mirrors statuses back), so cross-core event ordering — and therefore
    /// traces — cannot depend on which core finalized first.
    pub fn finalize(&mut self, round: Round) -> RoundOutcome<'_> {
        self.events.clear();
        for (i, participant) in self.participants.iter_mut().enumerate() {
            if !self.status[i].is_running() {
                continue;
            }
            match participant {
                Participant::Honest(p) => {
                    p.receive(round, &self.inboxes[i]);
                    let mut decided = false;
                    if let Some(output) = p.output() {
                        if self.outputs[i].is_none() {
                            self.outputs[i] = Some(output);
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
                }
                Participant::Byzantine(_) => {
                    // Byzantine nodes just remember their inbox for next round.
                    std::mem::swap(&mut self.byz_inboxes[i], &mut self.inboxes[i]);
                }
            }
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

/// The single-port sans-I/O core: one backend-agnostic slice of a
/// single-port execution, owning nodes `base .. base + len()`.
///
/// Port buffers are shared, order-sensitive state and therefore live in the
/// backend (the runners' sparse `PortMap`, the shard coordinator's parent
/// side): the core only collects each node's single send and poll intent
/// ([`SinglePortCore::begin_round`]) and consumes backend-pre-drained port
/// contents ([`SinglePortCore::finalize`]).
pub struct SinglePortCore<P: SinglePortProtocol> {
    /// Global index of the first node in this core.
    pub(crate) base: usize,
    pub(crate) nodes: Vec<P>,
    /// Core-local mirror of the backend's status vector.
    pub(crate) status: Vec<NodeStatus>,
    /// Per-node single send for the current round.
    pub(crate) sends: Vec<Option<Outgoing<P::Msg>>>,
    /// Per-node poll intent for the current round.
    pub(crate) polls: Vec<Option<NodeId>>,
    /// Per-node pre-drained poll results (`Some` only for running nodes
    /// that polled this round; filled by the backend).
    pub(crate) drained: Vec<Option<Vec<P::Msg>>>,
    /// Emptied poll buffers waiting to be recycled.  [`SinglePortCore::finalize`]
    /// clears each consumed `drained` buffer into this pool instead of
    /// dropping it; in-process backends reclaim it into their `PortMap`
    /// every round ([`SinglePortCore::take_spares`]), and backends that
    /// cannot (a shard worker's buffers arrive off the wire) are protected
    /// by the `len()` cap in `finalize` — at most one retained buffer per
    /// node, so memory stays `O(n)` either way.
    pub(crate) spare: Vec<Vec<P::Msg>>,
    pub(crate) outputs: Vec<Option<P::Output>>,
    /// Receive scratch: decision/halt events for the backend's replay.
    pub(crate) events: Vec<NodeEvent>,
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
            drained: (0..len).map(|_| None).collect(),
            spare: Vec::new(),
            outputs: (0..len).map(|_| None).collect(),
            events: Vec::new(),
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

    /// Phase 1: collect each running node's single send and poll intent.
    pub fn begin_round(&mut self, round: Round) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if self.status[i].is_running() {
                self.sends[i] = node.send(round);
                self.polls[i] = node.poll(round);
            } else {
                self.sends[i] = None;
                self.polls[i] = None;
            }
        }
    }

    /// The per-node sends collected by the last
    /// [`SinglePortCore::begin_round`].
    pub fn sends(&self) -> &[Option<Outgoing<P::Msg>>] {
        &self.sends
    }

    /// Moves a node's pending send out of the core (the backend enqueues
    /// it onto the destination's port, applying crash filters and
    /// counting).
    pub fn take_send(&mut self, local: usize) -> Option<Outgoing<P::Msg>> {
        self.sends[local].take()
    }

    /// The per-node poll intents collected by the last
    /// [`SinglePortCore::begin_round`].
    pub fn polls(&self) -> &[Option<NodeId>] {
        &self.polls
    }

    /// Hands a node the contents the backend drained from its polled port
    /// (`None` when the node did not poll or is not running).
    pub fn set_drained(&mut self, local: usize, msgs: Option<Vec<P::Msg>>) {
        self.drained[local] = msgs;
    }

    /// Moves the emptied poll buffers the last [`SinglePortCore::finalize`]
    /// retained into `out` (for the backend to recycle into its port
    /// buffers).
    pub fn take_spares(&mut self, out: &mut Vec<Vec<P::Msg>>) {
        out.append(&mut self.spare);
    }

    /// Mirrors a crash verdict from the backend's central crash phase.
    pub fn set_crashed(&mut self, local: usize, round: Round) {
        self.status[local] = NodeStatus::Crashed(round);
    }

    /// Mirrors a voluntary halt into this core's status.
    pub fn set_halted(&mut self, local: usize) {
        self.status[local] = NodeStatus::Halted;
    }

    /// A node's current status as this core sees it.
    pub fn status(&self, local: usize) -> NodeStatus {
        self.status[local]
    }

    /// Phase 4: deliver pre-drained polls, advance outputs, and return the
    /// round's outcome (message counters are zero — the backend counts
    /// single-port sends as it enqueues them).
    pub fn finalize(&mut self, round: Round) -> RoundOutcome<'_> {
        self.events.clear();
        let spare_cap = self.nodes.len();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !self.status[i].is_running() {
                continue;
            }
            if let Some(port) = self.polls[i] {
                let mut msgs = self.drained[i].take().unwrap_or_default();
                node.receive(round, port, &mut msgs);
                // Recycle whatever the protocol left behind (capped so a
                // backend that never reclaims holds at most one buffer per
                // node).
                if self.spare.len() < spare_cap {
                    msgs.clear();
                    self.spare.push(msgs);
                }
            }
            let mut decided = false;
            if let Some(output) = node.output() {
                if self.outputs[i].is_none() {
                    self.outputs[i] = Some(output);
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
        }
        RoundOutcome {
            events: &self.events,
            messages: 0,
            bits: 0,
            byzantine_messages: 0,
        }
    }

    /// A node's first output, if it has decided.
    pub fn output(&self, local: usize) -> Option<&P::Output> {
        self.outputs[local].as_ref()
    }
}
