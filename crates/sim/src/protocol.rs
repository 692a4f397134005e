//! Protocol state-machine traits for the multi-port and single-port models.

use crate::message::{Delivered, Outgoing, Payload};
use crate::node::NodeId;
use crate::round::Round;

/// A deterministic protocol state machine for the **multi-port** synchronous
/// model (Section 2 of the paper): in every round a node may send a message
/// to any set of nodes and receives all messages addressed to it in that
/// round.
///
/// The runner drives each node through rounds:
///
/// 1. [`SyncProtocol::send`] is called once to collect the node's outgoing
///    messages for the round;
/// 2. the adversary may crash nodes, possibly suppressing part of a crashing
///    node's output;
/// 3. [`SyncProtocol::receive_owned`] (by default [`SyncProtocol::receive`])
///    is called once with every message delivered to the node in this round;
/// 4. the node may record a decision ([`SyncProtocol::output`]) and/or halt
///    ([`SyncProtocol::has_halted`]).
///
/// Implementations must be deterministic: the paper's algorithms are
/// deterministic and the test-suite relies on reproducible executions.
///
/// Protocols are `Send + 'static` (and outputs `Send + 'static`) so a
/// sharded runner may hand disjoint groups of nodes to its shard workers,
/// threads that outlive any single borrow; state machines are plain owned
/// data, so both bounds are auto-derived.  Determinism is unaffected: the
/// coordinator takes per-worker results in fixed node-index order (see
/// `DESIGN.md`).
///
/// # Examples
///
/// A trivial protocol in which every node decides on its input in round 0 and
/// halts:
///
/// ```
/// use dft_sim::{Delivered, NodeId, Outgoing, Round, SyncProtocol};
///
/// struct Trivial {
///     input: bool,
///     decided: Option<bool>,
/// }
///
/// impl SyncProtocol for Trivial {
///     type Msg = bool;
///     type Output = bool;
///
///     fn send(&mut self, _round: Round, _out: &mut Vec<Outgoing<bool>>) {}
///
///     fn receive(&mut self, _round: Round, _inbox: &[Delivered<bool>]) {
///         self.decided = Some(self.input);
///     }
///
///     fn output(&self) -> Option<bool> {
///         self.decided
///     }
///
///     fn has_halted(&self) -> bool {
///         self.decided.is_some()
///     }
/// }
/// ```
pub trait SyncProtocol: Send + 'static {
    /// Payload type of messages exchanged by this protocol.
    type Msg: Payload;
    /// Decision value or other terminal output of a node.
    type Output: Clone + std::fmt::Debug + Send + 'static;

    /// Collects the messages this node sends at the beginning of `round`
    /// into `out`.
    ///
    /// `out` arrives empty and is the node's per-round scratch: the runner
    /// keeps one buffer per node alive across rounds (clear-don't-drop), so
    /// pushing into it directly — rather than returning a freshly collected
    /// `Vec` — is what keeps the send phase allocation-free at steady
    /// state.  Implementations that wrap an inner protocol should keep
    /// their own scratch buffer for the inner call, for the same reason.
    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<Self::Msg>>);

    /// Processes all messages delivered to this node during `round`.
    fn receive(&mut self, round: Round, inbox: &[Delivered<Self::Msg>]);

    /// [`SyncProtocol::receive`] for a caller that owns the inbox, which is
    /// how the round cores call a node: the messages are the callee's to
    /// move out (`drain`, `mem::take`), and whatever it leaves behind the
    /// caller clears.  The default lends the vector to `receive`.  A
    /// protocol that re-wraps what it receives (`dft_core::Then` relabels a
    /// stage's messages) overrides it to move each message instead of
    /// cloning it.
    ///
    /// A wrapper that does not forward this method (the benchmark's
    /// `Timed<P>`, the tests' `Tap` and `AlwaysAwake`) falls back to the
    /// borrowed path: its inner protocol is handed the same messages
    /// through `receive`, so the two paths must agree on everything a node
    /// does.
    fn receive_owned(&mut self, round: Round, inbox: &mut Vec<Delivered<Self::Msg>>) {
        self.receive(round, inbox);
    }

    /// The node's decision, if it has made one.
    ///
    /// Once `Some`, the value must never change (decisions are irrevocable,
    /// Section 2).  The runners assert this in debug builds.
    fn output(&self) -> Option<Self::Output>;

    /// Whether the node has voluntarily halted.
    ///
    /// A halted node no longer sends or receives messages and is considered
    /// non-faulty for the rest of the execution.
    fn has_halted(&self) -> bool;

    /// The activity hint: asked after [`SyncProtocol::receive`] of round
    /// `now`, `Some(r)` says "absent an inbox message I send nothing, and
    /// neither [`SyncProtocol::output`] nor [`SyncProtocol::has_halted`]
    /// changes, before round `r` — and I do not need to be called until
    /// then".  A round core then skips the node's `send` and `receive`
    /// until round `r`, or until a message lands in its inbox, whichever
    /// comes first (the node then sees that round's `receive` without its
    /// `send`, and is asked again).  `None`, the default, and any `r` not
    /// after `now + 1` mean "call me next round".
    ///
    /// The statement is checked, not trusted: with `debug_assertions` the
    /// cores still make every call they would have skipped and panic on a
    /// message, a decision or a halt (see `DESIGN.md`, "The activity
    /// contract").  State it only where the protocol's schedule makes it
    /// obvious; a wrapper that does not forward it merely keeps its inner
    /// protocol awake.
    fn quiet_until(&self, now: Round) -> Option<Round> {
        let _ = now;
        None
    }
}

/// A deterministic protocol state machine for the **single-port** model
/// (Section 8): in every round a node may send at most one message and may
/// poll at most one of its in-ports, retrieving the messages buffered there.
///
/// Ports are buffered and give no delivery signal: a node must decide which
/// port to poll without knowing whether anything is waiting there.
///
/// Like [`SyncProtocol`], implementations are `Send + 'static` so a
/// sharded runner may hand disjoint node groups to its shard workers.
pub trait SinglePortProtocol: Send + 'static {
    /// Payload type of messages exchanged by this protocol.
    type Msg: Payload;
    /// Decision value or other terminal output of a node.
    type Output: Clone + std::fmt::Debug + Send + 'static;

    /// The at-most-one message this node sends at the beginning of `round`.
    fn send(&mut self, round: Round) -> Option<Outgoing<Self::Msg>>;

    /// The in-port (identified by the sending node) this node polls in
    /// `round`, or `None` to stay idle.
    fn poll(&mut self, round: Round) -> Option<NodeId>;

    /// Processes the messages drained from the polled port.
    ///
    /// Called only when [`SinglePortProtocol::poll`] returned `Some`; `msgs`
    /// may be empty if nothing was buffered on that port — except in an idle
    /// poll ([`SinglePortProtocol::idle_polls`]), where an empty port means
    /// the node is not called at all.
    ///
    /// The buffer is lent, not given: take what you need (iterate, `drain`,
    /// or `mem::take` the whole `Vec`), and the runner clears and recycles
    /// whatever capacity is left behind.  This is what keeps single-port
    /// delivery allocation-free at steady state — a per-round `Vec` handed
    /// to each poller by value would be constructed and dropped `n` times a
    /// round.
    fn receive(&mut self, round: Round, from: NodeId, msgs: &mut Vec<Self::Msg>);

    /// The node's decision, if it has made one.
    fn output(&self) -> Option<Self::Output>;

    /// Whether the node has voluntarily halted.
    fn has_halted(&self) -> bool;

    /// The activity hint, as [`SyncProtocol::quiet_until`]: asked at the
    /// end of a round in which the node was called, `Some(r)` says "I send
    /// nothing and poll nothing, and neither `output()` nor `has_halted()`
    /// changes, before round `r`, and I do not need to be called until
    /// then".  Nothing wakes a single-port node early — it learns of a
    /// message only by polling — so the statement is unconditional.
    fn quiet_until(&self, now: Round) -> Option<Round> {
        let _ = now;
        None
    }

    /// The idle polls, stated beside the hint: asked right after
    /// [`SinglePortProtocol::quiet_until`] of round `now`, `Some` says "in
    /// round `w + k`, where `w` is the round that hint wakes me in, I poll
    /// `ports[k]` and send nothing, and if that port is empty the call
    /// changes nothing — state, `output()`, `has_halted()`, hint; after the
    /// run I send nothing and poll nothing before `resume`, and I must be
    /// called then".  A round core then answers those polls itself: it
    /// shows the planned port in `polls()` and calls the node (`send`,
    /// `poll`, `receive`, in that order) only in a round whose port holds a
    /// message, after which the node states its hint and its idle polls
    /// afresh.  A poll the core answers is not a call.
    ///
    /// Because nothing changes while the node is not called, the core may
    /// ask again with the same `now` to read the next port, so the ports
    /// are lent, not copied.  `None`, the default, states no idle polls.
    /// Checked like the hint: with `debug_assertions` the core still makes
    /// every call it leaves out and panics if the node sends, polls another
    /// port, decides or halts.
    fn idle_polls(&self, now: Round) -> Option<IdlePolls<'_>> {
        let _ = now;
        None
    }
}

/// A run of idle polls ([`SinglePortProtocol::idle_polls`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdlePolls<'a> {
    /// The planned ports, one per round from the hint's wake round on.
    pub ports: &'a [NodeId],
    /// The round the node must be called in after the run.
    pub resume: Round,
}

/// Blanket helper: the status of a node as seen by a runner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// The node is operational and still participating.
    Running,
    /// The node halted voluntarily (non-faulty).
    Halted,
    /// The node crashed (faulty) at the recorded round.
    Crashed(Round),
}

impl NodeStatus {
    /// Whether the node is still operational (running, not crashed and not
    /// halted).
    pub fn is_running(self) -> bool {
        matches!(self, NodeStatus::Running)
    }

    /// Whether the node crashed.
    pub fn is_crashed(self) -> bool {
        matches!(self, NodeStatus::Crashed(_))
    }

    /// Whether the node halted voluntarily.
    pub fn is_halted(self) -> bool {
        matches!(self, NodeStatus::Halted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_status_predicates() {
        assert!(NodeStatus::Running.is_running());
        assert!(!NodeStatus::Running.is_crashed());
        assert!(NodeStatus::Halted.is_halted());
        assert!(NodeStatus::Crashed(Round::new(3)).is_crashed());
        assert!(!NodeStatus::Crashed(Round::new(3)).is_running());
    }
}
