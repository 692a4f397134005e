//! The batched-delivery core shared by both round engines.
//!
//! [`Runner`](crate::Runner) and [`SinglePortRunner`](crate::SinglePortRunner)
//! drive different communication models but share the same round skeleton:
//! collect intents from running nodes, let the crash adversary pick this
//! round's victims, deliver the surviving messages, then advance node
//! statuses.  [`EngineCore`] holds the state both engines need across rounds
//! and keeps it *incremental*: the alive/crashed [`NodeSet`]s handed to the
//! adversary are updated on each crash instead of being re-derived from the
//! status vector every round, and the per-node delivery-filter slots are
//! reused flat buffers rather than a fresh allocation per round.
//!
//! [`PortMap`] is the sparse replacement for the single-port engine's dense
//! `n × n` port matrix: it stores only ports that currently buffer messages,
//! so memory stays `O(n + live messages)` at paper-scale `n`.

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
    /// Reusable per-node delivery-filter slots for the current round; only
    /// the indices listed in `struck` are ever `Some`.
    filters: Vec<Option<DeliveryFilter>>,
    /// Nodes crashed in the current round (indices into `filters`).
    struck: Vec<usize>,
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
            filters: vec![None; n],
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
            self.filters[idx] = Some(directive.deliver);
            self.struck.push(idx);
        }
    }

    /// The delivery filter of a node that crashed this round, if any.
    pub fn filter(&self, idx: usize) -> Option<&DeliveryFilter> {
        self.filters[idx].as_ref()
    }

    /// Nodes crashed during the current round.
    pub fn crashed_this_round(&self) -> &[usize] {
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

    /// Finishes the current round: clears this round's filter slots and
    /// advances the round counter and metrics.
    pub fn finish_round(&mut self) {
        for &idx in &self.struck {
            self.filters[idx] = None;
        }
        self.struck.clear();
        self.metrics.rounds = self.round.as_u64() + 1;
        self.round = self.round.next();
    }
}

/// A sparse map of buffered single-port message queues, keyed by
/// `(destination, sender)`.
///
/// The seed engine kept a dense `n × n` matrix of [`std::collections::VecDeque`]s —
/// `O(n²)` memory before a single message moved, which is what ruled out
/// paper-scale `n`.  Only ports that currently hold at least one undelivered
/// message occupy an entry here; draining a port removes its entry, and a
/// destination's queues are dropped wholesale when it crashes or halts, so
/// memory stays proportional to live traffic.
pub(crate) struct PortMap<M> {
    /// Indexed by destination (grown on first use), then keyed by sender.
    /// Almost every poll finds nothing, and for those a destination with
    /// no buffered port costs an index and an emptiness check, no hashing;
    /// dropping a destination's queues when it crashes or halts clears one
    /// inner map, not a scan of every occupied port.  The hasher is the
    /// same in every process, so where entries land, and with it when a
    /// map grows and what it allocates, repeats from run to run.
    queues: Vec<HashMap<usize, Vec<M>, BuildHasherDefault<DefaultHasher>>>,
    buffered: usize,
    /// Emptied queue buffers waiting for reuse.  Drained queues leave the
    /// map (that is what keeps it sparse), so without recycling every
    /// drain/push cycle of a port would drop one `Vec` and construct
    /// another; backends return finished poll buffers here each round (see
    /// [`PortMap::reclaim`]) and `push`/`drain` take from the pool first.
    /// Growth is bounded: at most one buffer per node enters per round and
    /// steady-state traffic takes them right back out.
    spares: Vec<Vec<M>>,
}

impl<M> PortMap<M> {
    /// Creates an empty port map.
    pub fn new() -> Self {
        PortMap {
            queues: Vec::new(),
            buffered: 0,
            spares: Vec::new(),
        }
    }

    /// Buffers `msg` on destination `to`'s in-port from `from`.
    pub fn push(&mut self, to: usize, from: usize, msg: M) {
        if to >= self.queues.len() {
            self.queues.resize_with(to + 1, HashMap::default);
        }
        let spares = &mut self.spares;
        if let Some(ports) = self.queues.get_mut(to) {
            ports
                .entry(from)
                .or_insert_with(|| spares.pop().unwrap_or_default())
                .push(msg);
            self.buffered += 1;
        }
    }

    /// Drains destination `to`'s in-port from `from`, in arrival order.
    ///
    /// An empty port still yields a buffer — the poller's `receive` runs
    /// either way — but it comes from the spare pool, not a fresh
    /// construction.
    pub fn drain(&mut self, to: usize, from: usize) -> Vec<M> {
        let ports = self.queues.get_mut(to).filter(|ports| !ports.is_empty());
        match ports.and_then(|ports| ports.remove(&from)) {
            Some(msgs) => {
                self.buffered -= msgs.len();
                msgs
            }
            None => self.spares.pop().unwrap_or_default(),
        }
    }

    /// Moves the emptied poll buffers in `bufs` into the spare pool for
    /// reuse by later `push`/`drain` calls.  Buffers must already be empty
    /// (the cores clear them as part of recycling).
    pub fn reclaim(&mut self, bufs: &mut Vec<Vec<M>>) {
        debug_assert!(bufs.iter().all(Vec::is_empty));
        self.spares.append(bufs);
    }

    /// Drops every queue addressed to `to` (the node crashed or halted and
    /// will never poll again).
    #[expect(
        clippy::disallowed_methods,
        reason = "the drained queues are only counted (a sum of lengths), so hash order cannot show"
    )]
    pub fn drop_destination(&mut self, to: usize) {
        if let Some(ports) = self.queues.get_mut(to) {
            self.buffered -= ports.drain().map(|(_, msgs)| msgs.len()).sum::<usize>();
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
        assert_eq!(core.crashed_this_round(), &[1]);
        assert!(core.filter(1).is_some());
        assert!(core.status[1].is_crashed());
        core.finish_round();
        assert!(core.filter(1).is_none(), "filter slot cleared");

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
        assert_eq!(ports.drain(1, 0), vec![10, 11]);
        assert_eq!(ports.drain(1, 0), Vec::<u32>::new(), "drained port empty");
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
        assert_eq!(ports.drain(1, 0), vec![3]);
    }
}
