//! Determinism suite: every host of an execution must be byte-identical to
//! the serial run.
//!
//! An execution is one thread unless it is sharded, and sharding only
//! changes wall-clock time, never results: the coordinator keeps everything
//! order-sensitive and merges the chunks in fixed node-index order.  This
//! suite pins that promise at three levels:
//!
//! * the sharding layer: full experiment tables at `--shards 2` diffed
//!   against serial ones;
//! * property tests over random crash schedules comparing full sharded
//!   transcripts (report + trace) with serial `Runner` /
//!   `SinglePortRunner` ones — every message through the wire codec;
//! * a reference backend written against the public round-core API,
//!   compared with the runners.
//!
//! (`--jobs` only fans independent experiments out; `tests/cli_usage.rs`
//! diffs the binary's output across job counts.)

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use dft_bench::experiments::{
    experiment_byzantine, experiment_many_crashes, experiment_table1, Scale, SweepConfig,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dft_sim::{
    AdaptiveSplitAdversary, AdversaryView, CrashAdversary, CrashDirective, Delivered,
    DeliveryFilter, ExecutionReport, FixedCrashSchedule, IdlePolls, NodeEvent, NodeId, NodeSet,
    Outgoing, Participant, Payload, Round, RoundCore, Runner, SinglePortCore, SinglePortProtocol,
    SinglePortRunner, SyncProtocol, Termination,
};
use proptest::prelude::*;

fn cfg(shards: usize) -> SweepConfig {
    SweepConfig {
        shards,
        ..SweepConfig::new(Scale::Quick)
    }
}

type ExperimentFn = fn(&SweepConfig) -> dft_bench::Table;

/// Fixed-seed E1/E5/E8 tables must be byte-identical between a serial run
/// and one sharded across two shard workers behind the wire codec.
#[test]
fn e1_e5_e8_tables_are_byte_identical_across_shards() {
    let experiments: [(&str, ExperimentFn); 3] = [
        ("E1", experiment_table1),
        ("E5", experiment_many_crashes),
        ("E8", experiment_byzantine),
    ];
    for (id, experiment) in experiments {
        let serial = experiment(&cfg(1)).render();
        let sharded = experiment(&cfg(2)).render();
        assert_eq!(serial, sharded, "{id} tables drifted with --shards 2");
    }
}

/// Every remaining experiment kind, sharded: E2–E4, E6, E7 and the
/// single-port E9/E10 cover the measurement kinds E1/E5/E8 do not (AEA,
/// SCV, the three quadratic baselines, linear consensus), so together with
/// the test above every measurement's payload types are diffed against
/// serial output after crossing the codec.
#[test]
fn remaining_tables_are_byte_identical_across_shards() {
    use dft_bench::experiments::{
        experiment_aea, experiment_checkpointing, experiment_few_crashes, experiment_gossip,
        experiment_lower_bound, experiment_scv, experiment_single_port,
    };
    let experiments: [(&str, ExperimentFn); 7] = [
        ("E2", experiment_aea),
        ("E3", experiment_scv),
        ("E4", experiment_few_crashes),
        ("E6", experiment_gossip),
        ("E7", experiment_checkpointing),
        ("E9", experiment_single_port),
        ("E10", experiment_lower_bound),
    ];
    for (id, experiment) in experiments {
        let serial = experiment(&cfg(1)).render();
        let sharded = experiment(&cfg(2)).render();
        assert_eq!(serial, sharded, "{id} tables drifted with --shards 2");
    }
}

/// Every node floods the OR of everything seen and decides after a few
/// rounds — enough traffic that delivery order and metric merging matter.
struct FloodOr {
    n: usize,
    value: bool,
    rounds: u64,
    decided: Option<bool>,
}

impl SyncProtocol for FloodOr {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
        out.extend((0..self.n).map(|i| Outgoing::new(NodeId::new(i), self.value)));
    }

    fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
        for m in inbox {
            self.value |= m.msg;
        }
        self.rounds += 1;
        if self.rounds >= 4 {
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

/// A token ring for the single-port model: node `i` sends its OR to
/// `i + 1` and polls `i − 1`, deciding after `2n` receives.
struct Ring {
    me: usize,
    n: usize,
    value: bool,
    rounds: u64,
    decided: Option<bool>,
}

impl SinglePortProtocol for Ring {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
        Some(Outgoing::new(
            NodeId::new((self.me + 1) % self.n),
            self.value,
        ))
    }

    fn poll(&mut self, _round: Round) -> Option<NodeId> {
        Some(NodeId::new((self.me + self.n - 1) % self.n))
    }

    fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
        for m in msgs.drain(..) {
            self.value |= m;
        }
        self.rounds += 1;
        if self.rounds >= 2 * self.n as u64 {
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

/// `n` ring nodes; the one after `seed`'s residue starts with the token.
fn rings(n: usize, seed: u64) -> Vec<Ring> {
    (0..n)
        .map(|me| Ring {
            me,
            n,
            value: me as u64 == seed % n as u64,
            rounds: 0,
            decided: None,
        })
        .collect()
}

/// The ring with one sender a round: node `i` sends its OR to `i + 1` only
/// in rounds `≡ i (mod n)`, polls `i − 1` in every round and decides in
/// round `2n`.  Between its own sends it states the polls as idle polls
/// ([`SinglePortProtocol::idle_polls`]), so the core answers most of them
/// without a call and calls the node when the port holds the token.
struct IdleRing {
    me: usize,
    n: usize,
    value: bool,
    decided: Option<bool>,
    /// Port `i − 1` once per round of the longest possible idle run.
    ports: Vec<NodeId>,
}

impl IdleRing {
    /// The round after `now` in which the node must be called: its next
    /// send, or the decision round if that comes first.
    fn next_call(&self, now: u64) -> u64 {
        let (n, me) = (self.n as u64, self.me as u64);
        let next_send = now + 1 + (me + n - (now + 1) % n) % n;
        next_send.min((2 * n).max(now + 1))
    }
}

impl SinglePortProtocol for IdleRing {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
        (round.as_u64() % self.n as u64 == self.me as u64)
            .then(|| Outgoing::new(NodeId::new((self.me + 1) % self.n), self.value))
    }

    fn poll(&mut self, _round: Round) -> Option<NodeId> {
        Some(NodeId::new((self.me + self.n - 1) % self.n))
    }

    fn receive(&mut self, round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
        for m in msgs.drain(..) {
            self.value |= m;
        }
        if round.as_u64() >= 2 * self.n as u64 {
            self.decided = Some(self.value);
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }

    fn idle_polls(&self, now: Round) -> Option<IdlePolls<'_>> {
        let now = now.as_u64();
        let resume = self.next_call(now);
        let len = usize::try_from(resume - now - 1).expect("a run shorter than n");
        let ports = self.ports.get(..len).filter(|ports| !ports.is_empty())?;
        Some(IdlePolls {
            ports,
            resume: Round::new(resume),
        })
    }
}

/// `n` idle-polling ring nodes, seeded as [`rings`].
fn idle_rings(n: usize, seed: u64) -> Vec<IdleRing> {
    (0..n)
        .map(|me| IdleRing {
            me,
            n,
            value: me as u64 == seed % n as u64,
            decided: None,
            ports: vec![NodeId::new((me + n - 1) % n); n],
        })
        .collect()
}

/// Builds a crash schedule from sampled bits: up to five directives with
/// varying rounds, victims and delivery filters.
fn schedule_from(n: usize, seed: u64, crashes: usize) -> (FixedCrashSchedule, usize) {
    let mut schedule = FixedCrashSchedule::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let budget = crashes.clamp(1, 5);
    for _ in 0..budget {
        let round = next() % 6;
        let node = NodeId::new((next() % n as u64) as usize);
        let deliver = match next() % 4 {
            0 => DeliveryFilter::All,
            1 => DeliveryFilter::None,
            2 => DeliveryFilter::Prefix((next() % n as u64) as usize),
            _ => DeliveryFilter::Only(vec![NodeId::new((next() % n as u64) as usize)]),
        };
        schedule = schedule.crash_at(round, CrashDirective { node, deliver });
    }
    (schedule, budget)
}

/// What a crash adversary was shown in one round: every node's
/// destinations and its polled port.
type View = (Vec<Vec<NodeId>>, Vec<Option<NodeId>>);

/// An adversary that records each view it is shown, then plans as `inner`.
struct Recorded {
    inner: Box<dyn CrashAdversary>,
    views: Rc<RefCell<Vec<View>>>,
}

impl CrashAdversary for Recorded {
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        let shown = (view.send_intents.to_vec(), view.poll_intents.to_vec());
        self.views.borrow_mut().push(shown);
        self.inner.plan_round(view)
    }
}

/// `seed`'s adversary over `n` nodes, recorded, with its budget: the crash
/// schedule of [`schedule_from`], or with `adaptive` Theorem 13's
/// adversary, which reads every intent, watching the node `seed` draws.
fn adversary_from(
    n: usize,
    seed: u64,
    crashes: usize,
    adaptive: bool,
) -> (Recorded, usize, Rc<RefCell<Vec<View>>>) {
    let (inner, budget): (Box<dyn CrashAdversary>, usize) = if adaptive {
        let watched = NodeId::new((seed % n as u64) as usize);
        (
            Box::new(AdaptiveSplitAdversary::new(watched)),
            crashes.clamp(1, 5),
        )
    } else {
        let (schedule, budget) = schedule_from(n, seed, crashes);
        (Box::new(schedule), budget)
    };
    let views = Rc::new(RefCell::new(Vec::new()));
    let recorded = Recorded {
        inner,
        views: Rc::clone(&views),
    };
    (recorded, budget, views)
}

/// `n` flooding nodes, their inputs drawn from `seed`.
fn flood_nodes(n: usize, seed: u64) -> Vec<FloodOr> {
    (0..n)
        .map(|i| FloodOr {
            n,
            value: (i as u64).wrapping_mul(seed).is_multiple_of(7),
            rounds: 0,
            decided: None,
        })
        .collect()
}

/// The flooding execution on the serial runner under
/// [`adversary_from`]'s adversary: its report, its trace and the views
/// the adversary was shown.
fn flood_run(
    n: usize,
    seed: u64,
    crashes: usize,
    adaptive: bool,
) -> (ExecutionReport<bool>, String, Vec<View>) {
    let (adversary, budget, views) = adversary_from(n, seed, crashes, adaptive);
    let mut runner =
        Runner::with_adversary(flood_nodes(n, seed), Box::new(adversary), budget).expect("runner");
    runner.enable_trace();
    let report = runner.run(12);
    let trace = format!("{:?}", runner.trace().events());
    (report, trace, views.take())
}

/// A single-port execution of `nodes` on the serial runner, as
/// [`flood_run`].
fn sp_run<P>(
    nodes: Vec<P>,
    seed: u64,
    crashes: usize,
    adaptive: bool,
) -> (ExecutionReport<bool>, String, Vec<View>)
where
    P: SinglePortProtocol<Msg = bool, Output = bool>,
{
    let n = nodes.len();
    let (adversary, budget, views) = adversary_from(n, seed, crashes, adaptive);
    let mut runner =
        SinglePortRunner::with_adversary(nodes, Box::new(adversary), budget).expect("runner");
    runner.enable_trace();
    let report = runner.run(3 * n as u64);
    let trace = format!("{:?}", runner.trace().events());
    (report, trace, views.take())
}

/// In-process sharded execution of the flooding workload (full wire
/// protocol over channel transports), for transcript comparison.
fn flood_run_sharded(
    n: usize,
    seed: u64,
    crashes: usize,
    shards: usize,
) -> (ExecutionReport<bool>, String) {
    let participants: Vec<Participant<FloodOr>> = flood_nodes(n, seed)
        .into_iter()
        .map(Participant::Honest)
        .collect();
    let (schedule, budget) = schedule_from(n, seed, crashes);
    let mut runner = dft_sim::shard::ShardedRunner::<bool, bool>::in_process(
        participants,
        Box::new(schedule),
        budget,
        shards,
    )
    .expect("sharded runner");
    runner.enable_trace();
    let report = runner.run(12).expect("sharded run");
    let trace = format!("{:?}", runner.trace().events());
    (report, trace)
}

/// [`sp_run`] in process over `shards` shard workers.
fn sp_run_sharded<P>(
    nodes: Vec<P>,
    seed: u64,
    crashes: usize,
    shards: usize,
) -> (ExecutionReport<bool>, String)
where
    P: SinglePortProtocol<Msg = bool, Output = bool> + Send + 'static,
{
    let n = nodes.len();
    let (schedule, budget) = schedule_from(n, seed, crashes);
    let mut runner = dft_sim::shard::SpShardedRunner::<bool, bool>::in_process(
        nodes,
        Box::new(schedule),
        budget,
        shards,
    )
    .expect("sharded runner");
    runner.enable_trace();
    let report = runner.run(3 * n as u64).expect("sharded run");
    let trace = format!("{:?}", runner.trace().events());
    (report, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random crash schedules through the shard wire protocol (in-process
    /// channel backend — every message, intent, event and metric delta
    /// crosses the full codec): transcripts match serial execution.
    #[test]
    fn sharded_multi_port_transcripts_match_under_random_crashes(
        n in 40usize..90,
        seed in any::<u64>(),
        crashes in 1usize..6,
        shards in 2usize..5,
    ) {
        let (serial_report, serial_trace, _) = flood_run(n, seed, crashes, false);
        let (sharded_report, sharded_trace) = flood_run_sharded(n, seed, crashes, shards);
        prop_assert_eq!(&serial_report, &sharded_report);
        prop_assert_eq!(serial_trace, sharded_trace);
    }

    /// The single-port variant of the property above.
    #[test]
    fn sharded_single_port_transcripts_match_under_random_crashes(
        n in 40usize..90,
        seed in any::<u64>(),
        crashes in 1usize..6,
        shards in 2usize..5,
    ) {
        let (serial_report, serial_trace, _) = sp_run(rings(n, seed), seed, crashes, false);
        let (sharded_report, sharded_trace) = sp_run_sharded(rings(n, seed), seed, crashes, shards);
        prop_assert_eq!(&serial_report, &sharded_report);
        prop_assert_eq!(serial_trace, sharded_trace);
    }
}

// ---------------------------------------------------------------------------
// Sans-I/O core conformance (PR 7): a reference backend written against the
// *public* `RoundCore` / `SinglePortCore` API — no threads, no pipes, no
// access to runner internals — must reproduce the runners' executions
// byte for byte.  This pins the core API as sufficient for new backends
// (the shard workers and the `dft-node` TCP cluster are exactly such
// backends) and pins the backend contract the driver docs spell out:
// central crash phase, deliver-then-merge, finalize-then-replay.
// ---------------------------------------------------------------------------

/// Everything a backend's execution produces, flattened for byte-for-byte
/// comparison between a runner and the reference driver.
#[derive(Debug, PartialEq)]
struct Transcript {
    outputs: Vec<Option<bool>>,
    crashed_at: Vec<Option<Round>>,
    halted_at: Vec<Option<Round>>,
    rounds: u64,
    messages: u64,
    bits: u64,
    crashes: u64,
    all_halted: bool,
}

fn transcript_of(report: &ExecutionReport<bool>) -> Transcript {
    Transcript {
        outputs: report.outputs.clone(),
        crashed_at: report.crashed_at.clone(),
        halted_at: report.halted_at.clone(),
        rounds: report.metrics.rounds,
        messages: report.metrics.messages,
        bits: report.metrics.bits,
        crashes: report.metrics.crashes,
        all_halted: report.termination == Termination::AllHalted,
    }
}

/// Shared backend bookkeeping for the reference drivers: status sets for
/// the adversary view plus the crash-acceptance rules every backend must
/// replicate (budget cut-off, re-crash immunity, halted nodes crashable).
struct RefBackend {
    alive: NodeSet,
    crashed: NodeSet,
    crashed_at: Vec<Option<Round>>,
    halted_at: Vec<Option<Round>>,
    budget: usize,
    crashes: usize,
    running: usize,
}

impl RefBackend {
    fn new(n: usize, budget: usize) -> Self {
        RefBackend {
            alive: NodeSet::full(n),
            crashed: NodeSet::empty(n),
            crashed_at: vec![None; n],
            halted_at: vec![None; n],
            budget,
            crashes: 0,
            running: n,
        }
    }

    fn is_running(&self, node: usize) -> bool {
        self.crashed_at[node].is_none() && self.halted_at[node].is_none()
    }

    /// Runs the central crash phase: consults the adversary over the whole
    /// round's intents and applies its directives under the acceptance
    /// rules, returning this round's `(victim, filter)` pairs.
    fn crash_phase(
        &mut self,
        adversary: &mut dyn CrashAdversary,
        round: Round,
        send_intents: &[Vec<NodeId>],
        poll_intents: &[Option<NodeId>],
    ) -> Vec<(usize, DeliveryFilter)> {
        let directives = adversary.plan_round(&AdversaryView {
            round,
            alive: &self.alive,
            crashed: &self.crashed,
            send_intents,
            poll_intents,
            remaining_budget: self.budget - self.crashes,
        });
        let n = self.crashed_at.len();
        let mut filters = Vec::new();
        for directive in directives {
            if self.crashes >= self.budget {
                break;
            }
            let idx = directive.node.index();
            if idx >= n || self.crashed_at[idx].is_some() {
                continue;
            }
            if self.halted_at[idx].is_none() {
                self.running -= 1;
            }
            self.crashed_at[idx] = Some(round);
            self.alive.remove(directive.node);
            self.crashed.insert(directive.node);
            self.crashes += 1;
            filters.push((idx, directive.deliver));
        }
        filters
    }

    fn mark_halted(&mut self, node: usize, round: Round) {
        self.halted_at[node] = Some(round);
        self.running -= 1;
    }
}

/// Splits `n` nodes into `core_count` contiguous chunks (remainder spread
/// over the leading chunks) and returns each chunk's range.  The partition
/// is deliberately *not* the runners' `ChunkPlan`: identity must hold for
/// any partition a backend picks.
fn partition(n: usize, core_count: usize) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut base = 0;
    for ci in 0..core_count {
        let len = n / core_count + usize::from(ci < n % core_count);
        ranges.push(base..base + len);
        base += len;
    }
    ranges
}

/// The reference multi-port backend: drives `RoundCore`s through the four
/// documented phases, entirely through the public API, under
/// [`adversary_from`]'s adversary, which it shows a view gathered from
/// every core's `send_intents()`.  Returns the transcript and the views.
fn reference_flood_run(
    n: usize,
    seed: u64,
    crashes: usize,
    adaptive: bool,
    core_count: usize,
) -> (Transcript, Vec<View>) {
    let (mut adversary, budget, views) = adversary_from(n, seed, crashes, adaptive);
    let ranges = partition(n, core_count);
    let mut owner = vec![0usize; n];
    let mut cores: Vec<RoundCore<FloodOr>> = Vec::new();
    let mut nodes = flood_nodes(n, seed).into_iter().map(Participant::Honest);
    for (ci, range) in ranges.iter().enumerate() {
        for node in range.clone() {
            owner[node] = ci;
        }
        let participants = nodes.by_ref().take(range.len()).collect();
        cores.push(RoundCore::new(range.start, participants));
    }

    let mut backend = RefBackend::new(n, budget);
    let poll_intents = vec![None; n];
    let (mut rounds, mut messages, mut bits) = (0u64, 0u64, 0u64);
    let mut all_halted = false;
    for r in 0..12u64 {
        let round = Round::new(r);
        // Phase 1: collect sends and intents.
        for core in &mut cores {
            core.begin_round(round);
        }
        let mut send_intents: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for core in &cores {
            for (i, intents) in core.send_intents().iter().enumerate() {
                send_intents[core.base() + i] = intents.clone();
            }
        }
        // Phase 2 (central): crash adversary; mirror verdicts into cores.
        let filters = backend.crash_phase(&mut adversary, round, &send_intents, &poll_intents);
        for &(victim, _) in &filters {
            let core = &mut cores[owner[victim]];
            core.set_crashed(victim - core.base(), round);
        }
        // Phase 3: deliver in every core, then merge in ascending core
        // (= sender-index) order, dropping dead destinations.
        for core in &mut cores {
            core.deliver(&filters);
        }
        for ci in 0..cores.len() {
            let staged: Vec<(usize, Delivered<bool>)> = cores[ci].delivered().to_vec();
            for (dest, msg) in staged {
                if dest < n && backend.is_running(dest) {
                    let core = &mut cores[owner[dest]];
                    core.accept(dest - core.base(), msg);
                }
            }
        }
        // Phase 4: finalize every core, then replay events in ascending
        // core order so halts land in node-index order.
        let mut all_events: Vec<Vec<NodeEvent>> = Vec::new();
        for core in &mut cores {
            let outcome = core.finalize(round);
            messages += outcome.messages;
            bits += outcome.bits;
            all_events.push(outcome.events.to_vec());
        }
        for events in &all_events {
            for event in events {
                if event.halted {
                    backend.mark_halted(event.node, round);
                    let core = &mut cores[owner[event.node]];
                    core.set_halted(event.node - core.base());
                }
            }
        }
        rounds = r + 1;
        if backend.running == 0 {
            all_halted = true;
            break;
        }
    }

    let mut outputs = vec![None; n];
    for core in &cores {
        for i in 0..core.len() {
            outputs[core.base() + i] = core.output(i).cloned();
        }
    }
    let transcript = Transcript {
        outputs,
        crashed_at: backend.crashed_at,
        halted_at: backend.halted_at,
        rounds,
        messages,
        bits,
        crashes: backend.crashes as u64,
        all_halted,
    };
    (transcript, views.take())
}

/// The reference single-port backend: port buffers live here (a plain
/// ordered map keyed by `(destination, sender)` — the backend owns
/// order-sensitive state), the cores only collect intents and receive
/// pre-drained contents.  The adversary's view is gathered from every
/// core's `sends()` and `polls()`; returned as [`reference_flood_run`].
fn reference_single_port_run<P>(
    nodes: Vec<P>,
    seed: u64,
    crashes: usize,
    adaptive: bool,
    core_count: usize,
) -> (Transcript, Vec<View>)
where
    P: SinglePortProtocol<Msg = bool, Output = bool>,
{
    let n = nodes.len();
    let (mut adversary, budget, views) = adversary_from(n, seed, crashes, adaptive);
    let ranges = partition(n, core_count);
    let mut owner = vec![0usize; n];
    let mut cores: Vec<SinglePortCore<P>> = Vec::new();
    let mut nodes = nodes.into_iter();
    for (ci, range) in ranges.iter().enumerate() {
        for node in range.clone() {
            owner[node] = ci;
        }
        let chunk = nodes.by_ref().take(range.len()).collect();
        cores.push(SinglePortCore::new(range.start, chunk));
    }

    let mut backend = RefBackend::new(n, budget);
    let mut ports: BTreeMap<(usize, usize), Vec<bool>> = BTreeMap::new();
    let (mut rounds, mut messages, mut bits) = (0u64, 0u64, 0u64);
    let mut all_halted = false;
    for r in 0..3 * n as u64 {
        let round = Round::new(r);
        // Phase 1: collect each node's single send and poll intent.
        for core in &mut cores {
            core.begin_round(round);
        }
        let mut send_intents: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut poll_intents: Vec<Option<NodeId>> = vec![None; n];
        for core in &cores {
            for (i, send) in core.sends().iter().enumerate() {
                send_intents[core.base() + i].extend(send.iter().map(|o| o.to));
                poll_intents[core.base() + i] = core.polls()[i];
            }
        }
        // Phase 2 (central): crash adversary; a crashed node never polls
        // again, so its buffered ports are freed immediately.
        let filters = backend.crash_phase(&mut adversary, round, &send_intents, &poll_intents);
        for &(victim, _) in &filters {
            let core = &mut cores[owner[victim]];
            core.set_crashed(victim - core.base(), round);
            ports.retain(|&(dest, _), _| dest != victim);
        }
        // Phase 3 (serial by contract): enqueue onto destination ports in
        // sender-index order, filtering and counting as the backend must.
        for core in &mut cores {
            let (base, len) = (core.base(), core.len());
            for i in 0..len {
                let Some(out) = core.take_send(i) else {
                    continue;
                };
                let sender = base + i;
                if let Some((_, filter)) = filters.iter().find(|(v, _)| *v == sender) {
                    if !filter.allows(0, out.to) {
                        continue;
                    }
                }
                messages += 1;
                bits += out.msg.bit_len();
                let dest = out.to.index();
                if dest < n && backend.is_running(dest) {
                    ports.entry((dest, sender)).or_default().push(out.msg);
                }
            }
        }
        // Pre-drain the polled port of every running poller in node-index
        // order, an empty one as `Some(vec![])`, as a backend that does not
        // track which ports hold messages would.
        for core in &mut cores {
            for i in 0..core.len() {
                let global = core.base() + i;
                let drained = if backend.is_running(global) {
                    core.polls()[i]
                        .map(|port| ports.remove(&(global, port.index())).unwrap_or_default())
                } else {
                    None
                };
                core.set_drained(i, drained);
            }
        }
        // Phase 4: finalize every core, then replay halts (freeing the
        // halted node's buffered ports) in ascending core order.
        let mut all_events: Vec<Vec<NodeEvent>> = Vec::new();
        for core in &mut cores {
            all_events.push(core.finalize(round).events.to_vec());
        }
        for events in &all_events {
            for event in events {
                if event.halted {
                    backend.mark_halted(event.node, round);
                    ports.retain(|&(dest, _), _| dest != event.node);
                    let core = &mut cores[owner[event.node]];
                    core.set_halted(event.node - core.base());
                }
            }
        }
        rounds = r + 1;
        if backend.running == 0 {
            all_halted = true;
            break;
        }
    }

    let mut outputs = vec![None; n];
    for core in &cores {
        for i in 0..core.len() {
            outputs[core.base() + i] = core.output(i).cloned();
        }
    }
    let transcript = Transcript {
        outputs,
        crashed_at: backend.crashed_at,
        halted_at: backend.halted_at,
        rounds,
        messages,
        bits,
        crashes: backend.crashes as u64,
        all_halted,
    };
    (transcript, views.take())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random crash schedules, Theorem 13's adaptive adversary, and
    /// arbitrary core partitions: the reference multi-port backend written
    /// against the public `RoundCore` API reproduces the `Runner`'s
    /// execution byte for byte — outputs, crash and halt rounds,
    /// message/bit totals, round count and termination — and shows the
    /// adversary the same view every round.
    #[test]
    fn reference_round_core_backend_matches_runner_under_random_crashes(
        n in 20usize..60,
        seed in any::<u64>(),
        crashes in 1usize..6,
        core_count in 1usize..4,
    ) {
        for adaptive in [false, true] {
            let (runner_report, _, runner_views) = flood_run(n, seed, crashes, adaptive);
            let (reference, reference_views) =
                reference_flood_run(n, seed, crashes, adaptive, core_count);
            prop_assert_eq!(transcript_of(&runner_report), reference);
            prop_assert_eq!(runner_views, reference_views);
        }
    }

    /// The single-port variant: the reference backend (port buffers in a
    /// plain ordered map on the backend side) reproduces the
    /// `SinglePortRunner`'s execution byte for byte, and its view.  A
    /// destination the runner's core kept from an earlier round shows
    /// here.
    #[test]
    fn reference_single_port_core_backend_matches_runner_under_random_crashes(
        n in 10usize..30,
        seed in any::<u64>(),
        crashes in 1usize..6,
        core_count in 1usize..4,
    ) {
        for adaptive in [false, true] {
            let (runner_report, _, runner_views) =
                sp_run(rings(n, seed), seed, crashes, adaptive);
            let (reference, reference_views) =
                reference_single_port_run(rings(n, seed), seed, crashes, adaptive, core_count);
            prop_assert_eq!(transcript_of(&runner_report), reference);
            prop_assert_eq!(runner_views, reference_views);
        }
    }

    /// The same with idle polls: the reference backend hands every poller
    /// its port, empty ones included, the runner hands over only the ports
    /// that hold messages, and the shard workers get them through frames.
    /// All three run the same execution.
    #[test]
    fn reference_single_port_core_backend_matches_runners_with_idle_polls(
        n in 10usize..30,
        seed in any::<u64>(),
        crashes in 1usize..6,
        core_count in 1usize..4,
        shards in 2usize..4,
    ) {
        let (runner_report, runner_trace, runner_views) =
            sp_run(idle_rings(n, seed), seed, crashes, false);
        let (reference, reference_views) =
            reference_single_port_run(idle_rings(n, seed), seed, crashes, false, core_count);
        prop_assert_eq!(transcript_of(&runner_report), reference);
        prop_assert_eq!(runner_views, reference_views);
        let (sharded_report, sharded_trace) =
            sp_run_sharded(idle_rings(n, seed), seed, crashes, shards);
        prop_assert_eq!(&runner_report, &sharded_report);
        prop_assert_eq!(runner_trace, sharded_trace);
    }
}
