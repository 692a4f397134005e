//! The batched-delivery core shared by both round engines.
//!
//! [`Runner`](crate::Runner) and [`SinglePortRunner`](crate::SinglePortRunner)
//! drive different communication models but share the same round loop:
//! collect intents from running nodes, let the crash adversary pick this
//! round's victims, deliver the surviving messages, then advance node
//! statuses.  [`EngineCore`] holds the state that loop needs across rounds
//! and keeps it *incremental*: the alive/crashed [`NodeSet`]s handed to the
//! adversary are updated on each crash instead of being re-derived from the
//! status vector every round, and the round's crashes with their delivery
//! filters are a reused buffer rather than a fresh allocation per round.
//!
//! [`PortMap`] is the sparse replacement for the single-port engine's dense
//! `n × n` port matrix, kept by the single-port core for the nodes it owns:
//! it stores only ports that currently buffer messages, so memory stays
//! `O(n + live messages)` at paper-scale `n`.

use std::collections::hash_map::{DefaultHasher, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;

use crate::adversary::{AdversaryView, CrashAdversary, DeliveryFilter};
use crate::error::{SimError, SimResult};
use crate::metrics::Metrics;
use crate::node::{NodeId, NodeSet};
use crate::protocol::NodeStatus;
use crate::round::Round;
use crate::trace::{Event, Trace};

/// Round-engine state shared by the multi-port and single-port runners:
/// statuses, incremental alive/crashed sets, crash bookkeeping, metrics and
/// tracing.
pub(crate) struct EngineCore {
    /// Per-node status.
    pub status: Vec<NodeStatus>,
    /// Nodes that have not crashed (running or halted) — maintained
    /// incrementally, matching what the seed engines re-derived per round.
    alive: NodeSet,
    /// Nodes that crashed in earlier rounds (or this one).
    crashed: NodeSet,
    /// Per-node voluntary halt round.
    pub halted_at: Vec<Option<Round>>,
    /// Per-node crash round.
    pub crashed_at: Vec<Option<Round>>,
    /// Maximum number of crashes the adversary may cause.
    pub fault_budget: usize,
    /// Crashes caused so far.
    pub crashes: usize,
    /// The round currently being executed (the next one, between rounds).
    pub round: Round,
    /// Communication counters.
    pub metrics: Metrics,
    /// Coarse-grained event trace.
    pub trace: Trace,
    /// Nodes crashed in the current round, with their delivery filters
    /// (reused).
    struck: Vec<(usize, DeliveryFilter)>,
    /// Number of nodes still [`NodeStatus::Running`] — maintained on every
    /// crash/halt transition so the runners' per-round "has everyone
    /// halted?" check is O(1) instead of an O(n) status scan (single-port
    /// executions run for tens of thousands of rounds).
    running: usize,
}

#[expect(
    clippy::indexing_slicing,
    reason = "per-node vectors are sized n at construction; the crash phase range-checks the \
              adversary's directive and every other index is the coordinator's own enumeration of \
              0..n"
)]
impl EngineCore {
    /// Creates core state for `n` nodes with the given crash budget — the
    /// one place a system's size and budget are validated.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptySystem`] for zero nodes, [`SimError::InvalidConfig`]
    /// unless the budget is smaller than the number of nodes.
    pub fn new(n: usize, fault_budget: usize) -> SimResult<Self> {
        if n == 0 {
            return Err(SimError::EmptySystem);
        }
        if fault_budget >= n {
            return Err(SimError::InvalidConfig(format!(
                "fault budget {fault_budget} must be smaller than the number of nodes {n}"
            )));
        }
        Ok(EngineCore {
            status: vec![NodeStatus::Running; n],
            alive: NodeSet::full(n),
            crashed: NodeSet::empty(n),
            halted_at: vec![None; n],
            crashed_at: vec![None; n],
            fault_budget,
            crashes: 0,
            round: Round::ZERO,
            metrics: Metrics::new(),
            trace: Trace::disabled(),
            struck: Vec::new(),
            running: n,
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.status.len()
    }

    /// Number of nodes still running (neither crashed nor halted).
    pub fn running_nodes(&self) -> usize {
        self.running
    }

    /// Runs the crash-adversary phase of the current round: builds the
    /// adversary's view from the incrementally maintained sets, applies its
    /// directives up to the fault budget, and records the delivery filters
    /// of nodes crashing mid-round.
    pub fn apply_crash_phase(
        &mut self,
        adversary: &mut dyn CrashAdversary,
        send_intents: &[Vec<NodeId>],
        poll_intents: &[Option<NodeId>],
    ) {
        let round = self.round;
        let directives = adversary.plan_round(&AdversaryView {
            round,
            alive: &self.alive,
            crashed: &self.crashed,
            send_intents,
            poll_intents,
            remaining_budget: self.fault_budget - self.crashes,
        });
        for directive in directives {
            if self.crashes >= self.fault_budget {
                break;
            }
            let idx = directive.node.index();
            if idx >= self.n() || self.status[idx].is_crashed() {
                continue;
            }
            if self.status[idx].is_running() {
                self.running -= 1;
            }
            self.status[idx] = NodeStatus::Crashed(round);
            self.crashed_at[idx] = Some(round);
            self.alive.remove(directive.node);
            self.crashed.insert(directive.node);
            self.crashes += 1;
            self.metrics.record_crash();
            self.trace.record(Event::Crashed {
                round,
                node: directive.node,
            });
            self.struck.push((idx, directive.deliver));
        }
    }

    /// Nodes crashed during the current round, with their delivery filters.
    pub fn crashed_this_round(&self) -> &[(usize, DeliveryFilter)] {
        &self.struck
    }

    /// Marks a node as voluntarily halted in the current round.
    pub fn mark_halted(&mut self, idx: usize) {
        if self.status[idx].is_running() {
            self.running -= 1;
        }
        self.status[idx] = NodeStatus::Halted;
        self.halted_at[idx] = Some(self.round);
        self.trace.record(Event::Halted {
            round: self.round,
            node: NodeId::new(idx),
        });
    }

    /// Traces a node's first decision (the value is only rendered when
    /// tracing is enabled).
    pub fn record_decision<O: fmt::Debug>(&mut self, idx: usize, value: &O) {
        if self.trace.is_enabled() {
            self.trace.record(Event::Decided {
                round: self.round,
                node: NodeId::new(idx),
                value: format!("{value:?}"),
            });
        }
    }

    /// Finishes the current round: clears this round's crashes and
    /// advances the round counter and metrics.
    pub fn finish_round(&mut self) {
        self.struck.clear();
        self.metrics.rounds = self.round.as_u64() + 1;
        self.round = self.round.next();
    }
}

/// A sparse map of buffered single-port message queues, keyed by
/// `(destination, sender)`: the in-ports of the nodes a
/// [`crate::SinglePortCore`] owns.
///
/// The seed engine kept a dense `n × n` matrix of [`std::collections::VecDeque`]s —
/// `O(n²)` memory before a single message moved, which is what ruled out
/// paper-scale `n`.  Only ports that currently hold at least one undelivered
/// message occupy an entry here; draining a port removes its entry, and a
/// destination's queues are dropped wholesale when it crashes or halts, so
/// memory stays proportional to live traffic.
///
/// The destinations that hold anything are also kept in a list, so a round
/// drains polled ports by walking the few occupied destinations
/// ([`PortMap::drain_polled`]), not every poller: most pollers poll an
/// empty port, and those cost nothing.
pub(crate) struct PortMap<M> {
    /// Indexed by destination (grown on first use), then keyed by sender.
    /// Dropping a destination's queues when it crashes or halts clears one
    /// inner map, not a scan of every occupied port.  The hasher is the
    /// same in every process, so where entries land, and with it when a
    /// map grows and what it allocates, repeats from run to run.
    queues: Vec<HashMap<usize, Vec<M>, BuildHasherDefault<DefaultHasher>>>,
    /// The destinations whose inner map is not empty, in the order their
    /// first buffered message arrived.
    occupied: Vec<usize>,
    buffered: usize,
    /// Emptied queue buffers waiting for reuse.  Drained queues leave the
    /// map (that is what keeps it sparse), so without recycling every
    /// drain/push cycle of a port would drop one `Vec` and construct
    /// another; the core returns each finished poll buffer here
    /// ([`PortMap::recycle`]) and `push` takes from the pool first.
    spares: Vec<Vec<M>>,
    /// Buffers the last drain handed out that have not come back yet.
    lent: usize,
}

impl<M> PortMap<M> {
    /// Creates an empty port map.
    pub fn new() -> Self {
        PortMap {
            queues: Vec::new(),
            occupied: Vec::new(),
            buffered: 0,
            spares: Vec::new(),
            lent: 0,
        }
    }

    /// Buffers `msg` on destination `to`'s in-port from `from`.
    pub fn push(&mut self, to: usize, from: usize, msg: M) {
        if to >= self.queues.len() {
            self.queues.resize_with(to + 1, HashMap::default);
        }
        let spares = &mut self.spares;
        if let Some(ports) = self.queues.get_mut(to) {
            if ports.is_empty() {
                self.occupied.push(to);
            }
            ports
                .entry(from)
                .or_insert_with(|| spares.pop().unwrap_or_default())
                .push(msg);
            self.buffered += 1;
        }
    }

    /// Drains the polled port of every occupied destination, in the order
    /// the destinations became occupied: `port_of(to)` names the port `to`
    /// polls this round (`None`: it does not poll, or is not running), and
    /// each port that holds messages is handed to `hand` in arrival order.
    /// A destination left with nothing buffered leaves the occupied list.
    pub fn drain_polled(
        &mut self,
        mut port_of: impl FnMut(usize) -> Option<usize>,
        mut hand: impl FnMut(usize, Vec<M>),
    ) {
        let (queues, buffered, lent) = (&mut self.queues, &mut self.buffered, &mut self.lent);
        *lent = 0;
        self.occupied.retain(|&to| {
            let Some(ports) = queues.get_mut(to) else {
                return false;
            };
            if let Some(msgs) = port_of(to).and_then(|from| ports.remove(&from)) {
                *buffered -= msgs.len();
                *lent += 1;
                hand(to, msgs);
            }
            !ports.is_empty()
        });
    }

    /// Keeps a finished poll buffer for a later `push`, emptied, unless it
    /// never held anything.  The pool takes back as many buffers as the
    /// last drain handed out, and `cap` others at most: a caller that hands
    /// the core buffers of its own, and never takes them back, is held to
    /// `cap`.
    pub fn recycle(&mut self, mut buf: Vec<M>, cap: usize) {
        if buf.capacity() == 0 {
            return;
        }
        if self.lent > 0 {
            self.lent -= 1;
        } else if self.spares.len() >= cap {
            return;
        }
        buf.clear();
        self.spares.push(buf);
    }

    /// Moves the pooled buffers into `out`.
    pub fn take_spares(&mut self, out: &mut Vec<Vec<M>>) {
        out.append(&mut self.spares);
    }

    /// Drops every queue addressed to `to` (the node crashed or halted and
    /// will never poll again).
    #[expect(
        clippy::disallowed_methods,
        reason = "the drained queues are only counted (a sum of lengths), so hash order cannot show"
    )]
    pub fn drop_destination(&mut self, to: usize) {
        if let Some(ports) = self.queues.get_mut(to).filter(|ports| !ports.is_empty()) {
            self.buffered -= ports.drain().map(|(_, msgs)| msgs.len()).sum::<usize>();
            self.occupied.retain(|&dest| dest != to);
        }
    }

    /// Total number of buffered (sent but not yet polled) messages.
    pub fn buffered_messages(&self) -> usize {
        self.buffered
    }

    /// Number of ports currently holding at least one message.
    pub fn ports_in_use(&self) -> usize {
        self.queues.iter().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashDirective, FixedCrashSchedule, NoFaults};

    #[test]
    fn core_tracks_crashes_incrementally() {
        let mut core = EngineCore::new(4, 2).unwrap();
        let mut adversary = FixedCrashSchedule::new()
            .crash_at(0, CrashDirective::silent(NodeId::new(1)))
            .crash_at(1, CrashDirective::silent(NodeId::new(2)))
            .crash_at(1, CrashDirective::silent(NodeId::new(3)));
        let intents = vec![Vec::new(); 4];
        let polls = vec![None; 4];

        core.apply_crash_phase(&mut adversary, &intents, &polls);
        assert_eq!(core.crashed_this_round(), &[(1, DeliveryFilter::None)]);
        assert!(core.status[1].is_crashed());
        core.finish_round();
        assert!(core.crashed_this_round().is_empty(), "crashes cleared");

        // Round 1 wants two crashes but only one budget slot remains.
        core.apply_crash_phase(&mut adversary, &intents, &polls);
        assert_eq!(core.crashes, 2);
        assert!(core.status[2].is_crashed());
        assert!(!core.status[3].is_crashed(), "budget exhausted");
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
            expect_alive: usize,
        }
        impl CrashAdversary for Checking {
            fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
                assert_eq!(view.alive.len(), self.expect_alive);
                assert_eq!(view.crashed.len(), view.n() - self.expect_alive);
                if self.expect_alive == 3 {
                    vec![CrashDirective::silent(NodeId::new(0))]
                } else {
                    Vec::new()
                }
            }
        }
        let mut core = EngineCore::new(3, 1).unwrap();
        let intents = vec![Vec::new(); 3];
        let polls = vec![None; 3];
        let mut adversary = Checking { expect_alive: 3 };
        core.apply_crash_phase(&mut adversary, &intents, &polls);
        core.finish_round();
        adversary.expect_alive = 2;
        core.apply_crash_phase(&mut adversary, &intents, &polls);
    }

    #[test]
    fn halted_nodes_stay_in_alive_set() {
        // `alive` means "not crashed": halted nodes still belong, matching
        // the per-round sets the seed engines derived from the status vector.
        let mut core = EngineCore::new(2, 1).unwrap();
        core.mark_halted(0);
        let intents = vec![Vec::new(); 2];
        let polls = vec![None; 2];
        struct Expect;
        impl CrashAdversary for Expect {
            fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
                assert_eq!(view.alive.len(), 2);
                Vec::new()
            }
        }
        core.apply_crash_phase(&mut Expect, &intents, &polls);
        let _ = NoFaults;
    }

    #[test]
    fn running_count_tracks_crashes_and_halts() {
        let mut core = EngineCore::new(4, 2).unwrap();
        assert_eq!(core.running_nodes(), 4);
        core.mark_halted(0);
        assert_eq!(core.running_nodes(), 3);
        // Re-halting an already-halted node must not double-count.
        core.mark_halted(0);
        assert_eq!(core.running_nodes(), 3);
        let mut adversary = FixedCrashSchedule::new()
            .crash_at(0, CrashDirective::silent(NodeId::new(0)))
            .crash_at(0, CrashDirective::silent(NodeId::new(1)));
        let intents = vec![Vec::new(); 4];
        let polls = vec![None; 4];
        // Node 0 is halted (not running) when crashed: only node 1's crash
        // takes a running node away.
        core.apply_crash_phase(&mut adversary, &intents, &polls);
        assert_eq!(core.running_nodes(), 2);
        assert_eq!(core.crashes, 2);
    }

    /// Drains `to`'s in-port from `from`, as a round in which `to` is the
    /// only poller.
    fn drain<M>(ports: &mut PortMap<M>, to: usize, from: usize) -> Option<Vec<M>> {
        let mut got = None;
        ports.drain_polled(
            |dest| (dest == to).then_some(from),
            |_, msgs| got = Some(msgs),
        );
        got
    }

    #[test]
    fn port_map_buffers_and_drains_sparsely() {
        let mut ports: PortMap<u32> = PortMap::new();
        assert_eq!(ports.buffered_messages(), 0);
        assert_eq!(ports.ports_in_use(), 0);
        ports.push(1, 0, 10);
        ports.push(1, 0, 11);
        ports.push(2, 0, 20);
        assert_eq!(ports.buffered_messages(), 3);
        assert_eq!(ports.ports_in_use(), 2);
        assert_eq!(drain(&mut ports, 1, 0), Some(vec![10, 11]));
        assert_eq!(drain(&mut ports, 1, 0), None, "drained port empty");
        assert_eq!(
            drain(&mut ports, 3, 0),
            None,
            "a destination never pushed to"
        );
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
    }

    #[test]
    fn port_map_drops_destinations() {
        let mut ports: PortMap<u8> = PortMap::new();
        ports.push(0, 1, 1);
        ports.push(0, 2, 2);
        ports.push(1, 0, 3);
        ports.drop_destination(0);
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
        assert_eq!(drain(&mut ports, 1, 0), Some(vec![3]));
        assert_eq!(
            drain(&mut ports, 0, 1),
            None,
            "dropped with its destination"
        );
    }

    #[test]
    fn port_map_lists_occupied_destinations_in_first_push_order() {
        let mut ports: PortMap<u8> = PortMap::new();
        ports.push(3, 0, 1);
        ports.push(1, 0, 2);
        ports.push(3, 2, 3);
        ports.push(5, 4, 4);
        ports.push(1, 0, 5);
        assert_eq!(ports.occupied, [3, 1, 5]);
        // Everybody polls: the ports are handed over in the list's order.
        let mut handed = Vec::new();
        ports.drain_polled(|_| Some(0), |to, msgs| handed.push((to, msgs)));
        assert_eq!(handed, [(3, vec![1]), (1, vec![2, 5])]);
        // Node 3 still holds the port from node 2, and keeps its place.
        assert_eq!(ports.occupied, [3, 5]);
        ports.push(1, 0, 6);
        assert_eq!(ports.occupied, [3, 5, 1], "re-occupied: at the end");
    }

    #[test]
    fn emptied_crashed_and_halted_destinations_leave_the_occupied_list() {
        let mut ports: PortMap<u8> = PortMap::new();
        for to in 0..4 {
            ports.push(to, 9, to as u8);
        }
        assert_eq!(drain(&mut ports, 2, 9), Some(vec![2]), "emptied");
        // A crash and a halt look the same to the port map.
        ports.drop_destination(0);
        ports.drop_destination(3);
        ports.drop_destination(3);
        ports.drop_destination(7);
        assert_eq!(ports.occupied, [1]);
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
    }

    #[test]
    fn an_unpolled_port_stays_buffered_and_counted() {
        let mut ports: PortMap<u8> = PortMap::new();
        ports.push(2, 0, 7);
        // Node 2 does not poll, then polls another port: nothing is handed.
        let mut handed = 0;
        ports.drain_polled(|_| None, |_, _| handed += 1);
        ports.drain_polled(|_| Some(1), |_, _| handed += 1);
        assert_eq!(handed, 0);
        assert_eq!(ports.occupied, [2]);
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
        assert_eq!(drain(&mut ports, 2, 0), Some(vec![7]), "found when polled");
        assert_eq!(ports.buffered_messages(), 0);
        assert!(ports.occupied.is_empty());
    }
}
