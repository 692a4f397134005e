//! The benchmark's own reference coordinators: plain round loops written
//! against the public `RoundCore` / `SinglePortCore` API (the loops
//! `crates/bench/tests/determinism.rs` pins as sufficient for a backend),
//! with a [`PhaseClock`] around every phase body.
//!
//! They serve two purposes.  Timed, they attribute an execution's wall time
//! to the core's phases and the coordinator's own work without touching the
//! program.  Untimed, they are the yardstick `runner.ref_ratio` compares
//! the production runners against.  Either way their full transcript must
//! equal the production backend's — the benchmark fails the operation
//! otherwise.

use std::time::Instant;

use dft_sim::{
    AdversaryView, CrashAdversary, Delivered, DeliveryFilter, ExecutionReport, NodeId, NodeSet,
    Participant, Payload, Round, RoundCore, SinglePortCore, SinglePortProtocol, SyncProtocol,
    Termination,
};

use crate::probe::{alloc, PhaseClock};

/// Everything an execution produces, flattened for comparison between a
/// production backend and a reference coordinator.
#[derive(Debug, PartialEq)]
pub struct Transcript<O> {
    pub outputs: Vec<Option<O>>,
    pub crashed_at: Vec<Option<Round>>,
    pub halted_at: Vec<Option<Round>>,
    pub byzantine: Vec<bool>,
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub crashes: u64,
    pub all_halted: bool,
}

impl<O: Clone + PartialEq + std::fmt::Debug> Transcript<O> {
    pub fn of(report: &ExecutionReport<O>) -> Self {
        Transcript {
            outputs: report.outputs.clone(),
            crashed_at: report.crashed_at.clone(),
            halted_at: report.halted_at.clone(),
            byzantine: (0..report.n())
                .map(|i| report.byzantine.contains(NodeId::new(i)))
                .collect(),
            rounds: report.metrics.rounds,
            messages: report.metrics.messages,
            bits: report.metrics.bits,
            crashes: report.metrics.crashes,
            all_halted: report.termination == Termination::AllHalted,
        }
    }
}

impl<O> Transcript<O> {
    /// Whether `node` is non-faulty: neither crashed nor Byzantine.
    pub fn non_faulty(&self, node: usize) -> bool {
        self.crashed_at[node].is_none() && !self.byzantine[node]
    }
}

/// Counts taken where the coordinator does the work.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordCounts {
    /// Messages that survived their sender's crash filter (counted or
    /// Byzantine) and were offered for routing.
    pub offered: u64,
    /// Offered messages whose destination was still running.
    pub accepted: u64,
    /// Single-port: polls by running nodes, and those that found a message.
    pub polls: u64,
    pub useful_polls: u64,
    /// Allocator counters at the end of round [`ALLOC_WARMUP_ROUNDS`] and at
    /// the end of the execution, and the rounds between them.
    pub steady_allocs: u64,
    pub steady_bytes: u64,
    pub steady_rounds: u64,
}

/// Rounds excluded from `alloc.per_round`: the first rounds grow every
/// per-node queue to its working capacity.
const ALLOC_WARMUP_ROUNDS: u64 = 8;

/// Span names of the phases (the per-layer metrics are sums over them).
pub mod phase {
    pub const BEGIN_ROUND: &str = "driver.begin_round";
    pub const DELIVER: &str = "driver.deliver";
    pub const FINALIZE: &str = "driver.finalize";
    pub const SP_BEGIN_ROUND: &str = "spcore.begin_round";
    pub const SP_FINALIZE: &str = "spcore.finalize";
    pub const CRASH: &str = "coord.crash_phase";
    pub const ROUTE: &str = "coord.route";
    pub const PORTS: &str = "coord.port";
    pub const REPLAY: &str = "coord.replay";
}

/// Backend bookkeeping shared by both coordinators: the status sets the
/// adversary is shown and the crash-acceptance rules every backend must
/// replicate (budget cut-off, re-crash immunity, halted nodes crashable).
struct Backend {
    alive: NodeSet,
    crashed: NodeSet,
    crashed_at: Vec<Option<Round>>,
    halted_at: Vec<Option<Round>>,
    byzantine: Vec<bool>,
    budget: usize,
    crashes: usize,
    /// Nodes neither crashed nor halted, and how many of them are Byzantine
    /// (those never halt, so the execution ends when only they run).
    running: usize,
    byz_running: usize,
    send_intents: Vec<Vec<NodeId>>,
    poll_intents: Vec<Option<NodeId>>,
    filters: Vec<(usize, DeliveryFilter)>,
}

impl Backend {
    fn new(byzantine: Vec<bool>, budget: usize) -> Self {
        let n = byzantine.len();
        Backend {
            alive: NodeSet::full(n),
            crashed: NodeSet::empty(n),
            crashed_at: vec![None; n],
            halted_at: vec![None; n],
            byz_running: byzantine.iter().filter(|&&b| b).count(),
            byzantine,
            budget,
            crashes: 0,
            running: n,
            send_intents: vec![Vec::new(); n],
            poll_intents: vec![None; n],
            filters: Vec::new(),
        }
    }

    fn is_running(&self, node: usize) -> bool {
        self.crashed_at[node].is_none() && self.halted_at[node].is_none()
    }

    /// The central crash phase: shows the adversary the whole round and
    /// applies its directives, leaving this round's `(victim, filter)`
    /// pairs in `self.filters`.
    fn crash_phase(&mut self, adversary: &mut dyn CrashAdversary, round: Round) {
        self.filters.clear();
        let directives = adversary.plan_round(&AdversaryView {
            round,
            alive: &self.alive,
            crashed: &self.crashed,
            send_intents: &self.send_intents,
            poll_intents: &self.poll_intents,
            remaining_budget: self.budget - self.crashes,
        });
        for directive in directives {
            if self.crashes >= self.budget {
                break;
            }
            let idx = directive.node.index();
            if idx >= self.crashed_at.len() || self.crashed_at[idx].is_some() {
                continue;
            }
            if self.halted_at[idx].is_none() {
                self.running -= 1;
                if self.byzantine[idx] {
                    self.byz_running -= 1;
                }
            }
            self.crashed_at[idx] = Some(round);
            self.alive.remove(directive.node);
            self.crashed.insert(directive.node);
            self.crashes += 1;
            self.filters.push((idx, directive.deliver));
        }
    }

    fn mark_halted(&mut self, node: usize, round: Round) {
        self.halted_at[node] = Some(round);
        self.running -= 1;
    }

    fn finished(&self) -> bool {
        self.running == self.byz_running
    }

    fn transcript<O>(
        self,
        outputs: Vec<Option<O>>,
        rounds: u64,
        messages: u64,
        bits: u64,
    ) -> Transcript<O> {
        Transcript {
            outputs,
            crashed_at: self.crashed_at,
            halted_at: self.halted_at,
            byzantine: self.byzantine,
            rounds,
            messages,
            bits,
            crashes: self.crashes as u64,
            all_halted: self.running == self.byz_running,
        }
    }
}

/// Tracks `alloc.per_round`: snapshots the allocator once the warm-up
/// rounds are over and again at the end.
struct SteadyAllocs {
    mark: Option<(u64, u64, u64)>,
}

impl SteadyAllocs {
    fn after_round(&mut self, round: u64) {
        if round + 1 == ALLOC_WARMUP_ROUNDS {
            let (allocs, bytes) = alloc::snapshot();
            self.mark = Some((allocs, bytes, round + 1));
        }
    }

    fn finish(&self, rounds: u64, counts: &mut CoordCounts) {
        if let Some((allocs, bytes, since)) = self.mark {
            let (now_allocs, now_bytes) = alloc::snapshot();
            counts.steady_allocs = now_allocs - allocs;
            counts.steady_bytes = now_bytes - bytes;
            counts.steady_rounds = rounds - since;
        }
    }
}

/// Runs one multi-port execution to termination (or `max_rounds`) on a
/// single `RoundCore`, clocking each phase with `clock`.
///
/// `capture` collects every `capture_every`-th routed message (for the wire
/// kernels) when `capture_every` is non-zero.
pub fn run_multi_port<P: SyncProtocol>(
    participants: Vec<Participant<P>>,
    mut adversary: Box<dyn CrashAdversary>,
    budget: usize,
    max_rounds: u64,
    clock: &mut PhaseClock<'_>,
    capture_every: u64,
    capture: &mut Vec<P::Msg>,
) -> (Transcript<P::Output>, CoordCounts) {
    let n = participants.len();
    let byzantine = participants
        .iter()
        .map(|p| matches!(p, Participant::Byzantine(_)))
        .collect();
    let mut backend = Backend::new(byzantine, budget);
    let mut core = RoundCore::new(0, participants);
    let mut staged: Vec<(usize, Delivered<P::Msg>)> = Vec::new();
    let mut counts = CoordCounts::default();
    let mut steady = SteadyAllocs { mark: None };
    let (mut rounds, mut messages, mut bits) = (0u64, 0u64, 0u64);

    for r in 0..max_rounds {
        let round = Round::new(r);
        clock.time(phase::BEGIN_ROUND, || core.begin_round(round));
        clock.time(phase::CRASH, || {
            for (slot, intents) in backend.send_intents.iter_mut().zip(core.send_intents()) {
                slot.clear();
                slot.extend_from_slice(intents);
            }
            backend.crash_phase(&mut *adversary, round);
            for &(victim, _) in &backend.filters {
                core.set_crashed(victim, round);
            }
        });
        clock.time(phase::DELIVER, || core.deliver(&backend.filters));
        clock.time(phase::ROUTE, || {
            // `delivered()` borrows the core that `accept` mutates, so the
            // round's messages are staged through a scratch buffer (one
            // `Arc` bump per message; the buffer's capacity persists).
            staged.clear();
            staged.extend_from_slice(core.delivered());
            counts.offered += staged.len() as u64;
            for (dest, msg) in staged.drain(..) {
                if dest < n && backend.is_running(dest) {
                    if capture_every > 0 && counts.accepted % capture_every == 0 {
                        capture.push(msg.msg.clone());
                    }
                    counts.accepted += 1;
                    core.accept(dest, msg);
                }
            }
        });
        let outcome = clock.time(phase::FINALIZE, || {
            let outcome = core.finalize(round);
            (outcome.messages, outcome.bits, outcome.events.to_vec())
        });
        clock.time(phase::REPLAY, || {
            messages += outcome.0;
            bits += outcome.1;
            for event in &outcome.2 {
                if event.halted {
                    backend.mark_halted(event.node, round);
                    core.set_halted(event.node);
                }
            }
        });
        rounds = r + 1;
        steady.after_round(r);
        if backend.finished() {
            break;
        }
    }
    steady.finish(rounds, &mut counts);
    let outputs = (0..n).map(|i| core.output(i).cloned()).collect();
    (backend.transcript(outputs, rounds, messages, bits), counts)
}

/// Buffered in-ports of the single-port reference backend: per destination,
/// the senders with undelivered messages.  A node's ports hold a handful of
/// entries at most (its overlay neighbours), so a linear scan beats a map.
struct Ports<M> {
    by_dest: Vec<Vec<(usize, Vec<M>)>>,
    spare: Vec<Vec<M>>,
}

impl<M> Ports<M> {
    fn push(&mut self, dest: usize, sender: usize, msg: M) {
        let ports = &mut self.by_dest[dest];
        match ports.iter_mut().find(|(from, _)| *from == sender) {
            Some((_, queue)) => queue.push(msg),
            None => {
                let mut queue = self.spare.pop().unwrap_or_default();
                queue.push(msg);
                ports.push((sender, queue));
            }
        }
    }

    fn drain(&mut self, dest: usize, sender: usize) -> Vec<M> {
        let ports = &mut self.by_dest[dest];
        match ports.iter().position(|(from, _)| *from == sender) {
            Some(at) => ports.swap_remove(at).1,
            None => self.spare.pop().unwrap_or_default(),
        }
    }

    /// A crashed or halted node never polls again: free its ports.
    fn drop_destination(&mut self, dest: usize) {
        self.by_dest[dest].clear();
    }
}

/// Runs one single-port execution to termination (or `max_rounds`) on a
/// single `SinglePortCore`; the port buffers live here, as the core's
/// contract requires.
pub fn run_single_port<P: SinglePortProtocol>(
    nodes: Vec<P>,
    mut adversary: Box<dyn CrashAdversary>,
    budget: usize,
    max_rounds: u64,
    clock: &mut PhaseClock<'_>,
    capture_every: u64,
    capture: &mut Vec<P::Msg>,
) -> (Transcript<P::Output>, CoordCounts) {
    let n = nodes.len();
    let mut backend = Backend::new(vec![false; n], budget);
    let mut core = SinglePortCore::new(0, nodes);
    let mut ports = Ports {
        by_dest: (0..n).map(|_| Vec::new()).collect(),
        spare: Vec::new(),
    };
    let mut counts = CoordCounts::default();
    let mut steady = SteadyAllocs { mark: None };
    let (mut rounds, mut messages, mut bits) = (0u64, 0u64, 0u64);

    for r in 0..max_rounds {
        let round = Round::new(r);
        clock.time(phase::SP_BEGIN_ROUND, || core.begin_round(round));
        clock.time(phase::CRASH, || {
            for (i, send) in core.sends().iter().enumerate() {
                backend.send_intents[i].clear();
                backend.send_intents[i].extend(send.iter().map(|out| out.to));
            }
            backend.poll_intents.copy_from_slice(core.polls());
            backend.crash_phase(&mut *adversary, round);
            for &(victim, _) in &backend.filters {
                core.set_crashed(victim, round);
                ports.drop_destination(victim);
            }
        });
        clock.time(phase::PORTS, || {
            core.take_spares(&mut ports.spare);
            // Enqueue in sender order, filtering and counting as the
            // backend must; then pre-drain polled ports in poller order.
            for sender in 0..n {
                let Some(out) = core.take_send(sender) else {
                    continue;
                };
                if let Some((_, filter)) = backend.filters.iter().find(|(v, _)| *v == sender) {
                    if !filter.allows(0, out.to) {
                        continue;
                    }
                }
                messages += 1;
                bits += out.msg.bit_len();
                counts.offered += 1;
                let dest = out.to.index();
                if dest < n && backend.is_running(dest) {
                    if capture_every > 0 && counts.accepted % capture_every == 0 {
                        capture.push(out.msg.clone());
                    }
                    counts.accepted += 1;
                    ports.push(dest, sender, out.msg);
                }
            }
            for poller in 0..n {
                let drained = match core.polls()[poller] {
                    Some(port) if backend.is_running(poller) => {
                        let msgs = ports.drain(poller, port.index());
                        counts.polls += 1;
                        counts.useful_polls += u64::from(!msgs.is_empty());
                        Some(msgs)
                    }
                    _ => None,
                };
                core.set_drained(poller, drained);
            }
        });
        let events = clock.time(phase::SP_FINALIZE, || core.finalize(round).events.to_vec());
        clock.time(phase::REPLAY, || {
            for event in &events {
                if event.halted {
                    backend.mark_halted(event.node, round);
                    ports.drop_destination(event.node);
                    core.set_halted(event.node);
                }
            }
        });
        rounds = r + 1;
        steady.after_round(r);
        if backend.finished() {
            break;
        }
    }
    steady.finish(rounds, &mut counts);
    let outputs = (0..n).map(|i| core.output(i).cloned()).collect();
    (backend.transcript(outputs, rounds, messages, bits), counts)
}

/// Wall seconds of `body`.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = body();
    (value, start.elapsed().as_secs_f64())
}
