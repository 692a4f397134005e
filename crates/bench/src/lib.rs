//! # dft-bench — experiment harness
//!
//! Regenerates the paper's Table 1 and the per-theorem complexity claims as
//! measured tables (see `DESIGN.md`, "Per-experiment index", and
//! `EXPERIMENTS.md` for paper-vs-measured discussion).  The harness exposes
//! one `measure_*` function per algorithm/baseline — each runs a full
//! simulated execution and returns a [`Measurement`] — plus one `experiment_*`
//! function per experiment id (E1–E11) returning a printable [`Table`].
//!
//! `cargo run -p dft-bench --bin run_experiments` prints every table, and
//! with `--timings --samples K` times each one (see [`stats`]).

#![warn(missing_docs)]

pub mod baseline;
pub mod diag;
pub mod experiments;
mod json;
pub mod stats;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use dft_auth::KeyDirectory;
use dft_baselines::{
    AllToAllGossip, FloodingConsensus, NaiveCheckpointing, ParallelDsConsensus, RumorMap,
};
use dft_core::{
    bounds, linear_consensus_for_all_nodes, many_crashes_for_all_nodes, AbConsensus,
    AlmostEverywhereAgreement, Checkpoint, Checkpointing, ExtantSet, FewCrashesConsensus, Gossip,
    SpreadCommonValue, SystemConfig,
};
use dft_sim::shard::{Schema, ShardedRunner, SpShardedRunner, Wire, WireOutput, WireStats};
use dft_sim::{
    check, CrashAdversary, ExecutionReport, Participant, RandomCrashes, Runner, SinglePortProtocol,
    SinglePortRunner, Spec, SyncProtocol, Violation,
};

/// One measured execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Rounds until all non-faulty nodes halted (or the cap).
    pub rounds: u64,
    /// Messages sent by non-faulty nodes.
    pub messages: u64,
    /// Bits sent by non-faulty nodes.
    pub bits: u64,
    /// The run judged against its kind's spec: the problem's conditions
    /// and, for the paper's algorithms, its theorem's bounds.
    pub verdict: Result<(), Violation>,
    /// Fraction of nodes that decided (relevant for almost-everywhere
    /// agreement).
    pub decider_fraction: f64,
}

impl Measurement {
    fn from_report<O>(report: &ExecutionReport<O>, verdict: Result<(), Violation>) -> Self {
        let deciders = report.outputs.iter().filter(|output| output.is_some());
        Measurement {
            rounds: report.metrics.rounds,
            messages: report.metrics.messages,
            bits: report.metrics.bits,
            verdict,
            decider_fraction: deciders.count() as f64 / report.n() as f64,
        }
    }
}

/// A workload: system size, fault budget and how many of the budgeted
/// crashes the adversary actually uses.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Number of nodes.
    pub n: usize,
    /// Fault bound `t`.
    pub t: usize,
    /// Crashes actually injected (`≤ t`).
    pub crashes: usize,
    /// Seed for overlays, inputs and crash schedules.
    pub seed: u64,
    /// In-process shard workers behind the wire codec the execution is
    /// partitioned across (1 = no codec: the runner holds the nodes).  It
    /// never changes a measurement — sharded ones are byte-identical to
    /// local ones, and the determinism suite pins this.
    pub shards: usize,
}

impl Workload {
    /// A crash-free workload.
    pub fn fault_free(n: usize, t: usize, seed: u64) -> Self {
        Workload {
            n,
            t,
            crashes: 0,
            seed,
            shards: 1,
        }
    }

    /// A workload that uses the full crash budget.
    pub fn full_budget(n: usize, t: usize, seed: u64) -> Self {
        Workload {
            n,
            t,
            crashes: t,
            seed,
            shards: 1,
        }
    }

    /// Sets the number of in-process shard workers (see [`dft_sim::shard`];
    /// `0` and `1` both mean "no sharding").
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    fn adversary(&self, horizon: u64) -> Box<dyn CrashAdversary> {
        if self.crashes == 0 {
            Box::new(dft_sim::NoFaults)
        } else {
            Box::new(RandomCrashes::new(self.n, self.crashes, horizon, self.seed))
        }
    }

    /// The deterministic mixed boolean inputs every execution path derives
    /// from `(n, seed)` alone — `measure_*` and the `dft-node` cluster both
    /// call this so a process can rebuild its input without any input
    /// wiring on the command line.
    pub fn mixed_inputs(&self) -> Vec<bool> {
        (0..self.n)
            .map(|i| (i + self.seed as usize).is_multiple_of(2))
            .collect()
    }
}

/// The harness's one way to give up.
#[track_caller]
#[expect(
    clippy::expect_used,
    reason = "a failed construction from the static tables is a harness bug and a shard error \
              mid-measurement invalidates the benchmark: abort with the error"
)]
pub(crate) fn must<T, E: std::fmt::Debug>(result: Result<T, E>, what: &str) -> T {
    result.expect(what)
}

fn config(w: &Workload) -> SystemConfig {
    must(SystemConfig::new(w.n, w.t), "valid workload").with_seed(w.seed)
}

/// A deterministically constructed node set, the protocol's round budget,
/// and the verdict on a run of it: its kind's spec, holding the inputs.
pub(crate) struct BuiltNodes<P, V> {
    pub(crate) nodes: Vec<P>,
    pub(crate) rounds: u64,
    pub(crate) verdict: V,
}

/// What a [`BuiltNodes`] judges its run with.
pub(crate) trait Verdict<O>: FnOnce(&ExecutionReport<O>) -> Result<(), Violation> {}

impl<O, V: FnOnce(&ExecutionReport<O>) -> Result<(), Violation>> Verdict<O> for V {}

/// The nodes, with `verdict` judging their run against `spec(inputs)`.
fn built<P, O: PartialEq, I>(
    nodes: Vec<P>,
    rounds: u64,
    inputs: I,
    spec: impl Fn(&I) -> Spec<'_, O>,
) -> BuiltNodes<P, impl Verdict<O>> {
    let verdict = move |report: &ExecutionReport<O>| check(report, &spec(&inputs));
    BuiltNodes {
        nodes,
        rounds,
        verdict,
    }
}

pub(crate) fn build_aea(
    w: &Workload,
) -> BuiltNodes<AlmostEverywhereAgreement<bool>, impl Verdict<bool>> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let nodes = must(
        AlmostEverywhereAgreement::for_all_nodes(&cfg, &inputs),
        "config",
    );
    let rounds = nodes.first().map_or(0, |node| node.total_rounds());
    built(nodes, rounds, inputs, move |inputs| {
        bounds::aea(&cfg, inputs)
    })
}

pub(crate) fn build_scv(w: &Workload) -> BuiltNodes<SpreadCommonValue<bool>, impl Verdict<bool>> {
    let cfg = config(w);
    let initialized = 3 * w.n / 5 + 1;
    let initials: Vec<Option<bool>> = (0..w.n)
        .map(|i| (i >= w.n - initialized).then_some(true))
        .collect();
    let nodes = must(SpreadCommonValue::for_all_nodes(&cfg, &initials), "config");
    let rounds = nodes.first().map_or(0, |node| node.total_rounds());
    built(nodes, rounds, (), move |()| bounds::scv(&cfg, &[true]))
}

pub(crate) fn build_few_crashes(
    w: &Workload,
) -> BuiltNodes<FewCrashesConsensus<bool>, impl Verdict<bool>> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let nodes = must(FewCrashesConsensus::for_all_nodes(&cfg, &inputs), "config");
    let rounds = nodes.first().map_or(0, |node| node.total_rounds());
    built(nodes, rounds, inputs, move |inputs| {
        bounds::few_crashes(&cfg, inputs)
    })
}

pub(crate) fn build_many_crashes(
    w: &Workload,
) -> BuiltNodes<FewCrashesConsensus<bool>, impl Verdict<bool>> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let nodes = must(many_crashes_for_all_nodes(&cfg, &inputs), "config");
    let rounds = nodes.first().map_or(0, |node| node.total_rounds());
    built(nodes, rounds, inputs, move |inputs| {
        bounds::many_crashes(&cfg, inputs)
    })
}

pub(crate) fn build_gossip(w: &Workload) -> BuiltNodes<Gossip, impl Verdict<ExtantSet>> {
    let cfg = config(w);
    let rumors: Vec<u64> = (0..w.n as u64).map(|i| 1_000 + i).collect();
    let nodes = must(Gossip::for_all_nodes(&cfg, &rumors), "config");
    let rounds = nodes.first().map_or(0, |node| node.total_rounds());
    built(nodes, rounds, rumors, move |rumors| {
        bounds::gossip(&cfg, rumors)
    })
}

pub(crate) fn build_checkpointing(
    w: &Workload,
) -> BuiltNodes<Checkpointing, impl Verdict<Checkpoint>> {
    let cfg = config(w);
    let nodes = must(Checkpointing::for_all_nodes(&cfg), "config");
    let rounds = nodes.first().map_or(0, |node| node.total_rounds());
    built(nodes, rounds, (), move |()| bounds::checkpointing(&cfg))
}

pub(crate) fn build_ab_consensus(w: &Workload) -> BuiltNodes<AbConsensus, impl Verdict<u64>> {
    let cfg = config(w);
    let directory = Arc::new(KeyDirectory::generate(w.n, w.seed));
    let inputs: Vec<u64> = (0..w.n as u64).collect();
    let nodes = must(
        AbConsensus::for_all_nodes(&cfg, &inputs, directory),
        "config",
    );
    let rounds = nodes.first().map_or(0, |node| node.total_rounds());
    built(nodes, rounds, inputs, move |inputs| {
        bounds::ab_consensus(&cfg, inputs)
    })
}

pub(crate) fn build_linear_consensus(
    w: &Workload,
) -> BuiltNodes<dft_core::LinearConsensus<bool>, impl Verdict<bool>> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let (nodes, sp_rounds) = must(linear_consensus_for_all_nodes(&cfg, &inputs), "config");
    built(nodes, sp_rounds, inputs, move |inputs| {
        bounds::linear_consensus(&cfg, inputs)
    })
}

pub(crate) fn build_flooding(w: &Workload) -> BuiltNodes<FloodingConsensus, impl Verdict<bool>> {
    let inputs = w.mixed_inputs();
    let nodes = FloodingConsensus::for_all_nodes(w.n, w.t, &inputs);
    let rounds = FloodingConsensus::total_rounds(w.t);
    built(nodes, rounds, inputs, |inputs| Spec::consensus(inputs))
}

pub(crate) fn build_all_to_all_gossip(
    w: &Workload,
) -> BuiltNodes<AllToAllGossip, impl Verdict<RumorMap>> {
    let rumors: Vec<u64> = (0..w.n as u64).map(|i| 1_000 + i).collect();
    let nodes = AllToAllGossip::for_all_nodes(w.n, w.t, &rumors);
    let rounds = AllToAllGossip::total_rounds(w.t);
    let slot = |map: &RumorMap, i: usize| map.0.get(i).copied().flatten();
    built(nodes, rounds, rumors, move |rumors| {
        bounds::gossip_conditions(rumors, slot)
    })
}

pub(crate) fn build_naive_checkpointing(
    w: &Workload,
) -> BuiltNodes<NaiveCheckpointing, impl Verdict<Checkpoint>> {
    let nodes = NaiveCheckpointing::for_all_nodes(w.n, w.t);
    let rounds = NaiveCheckpointing::total_rounds(w.t);
    built(nodes, rounds, w.n, |&n| bounds::checkpoint_conditions(n))
}

pub(crate) fn build_parallel_ds(
    w: &Workload,
) -> BuiltNodes<ParallelDsConsensus, impl Verdict<u64>> {
    let directory = Arc::new(KeyDirectory::generate(w.n, w.seed));
    let inputs: Vec<u64> = (0..w.n as u64).collect();
    let nodes = ParallelDsConsensus::for_all_nodes(w.n, w.t, &inputs, directory);
    let rounds = ParallelDsConsensus::total_rounds(w.t);
    built(nodes, rounds, inputs, |inputs| Spec::consensus(inputs))
}

/// The part of a measurement that depends on the round model: which runner
/// executes the nodes directly and which one coordinates them across shard
/// workers.  Everything else about a measurement — local or sharded — is
/// written once, generically over this trait.
pub(crate) trait RoundModel<P> {
    type Output: WireOutput;
    /// Rounds allowed beyond the protocol's own budget.
    const ROUND_SLACK: u64;

    fn run(nodes: Vec<P>, terms: Terms) -> ExecutionReport<Self::Output>;

    /// The same execution with the nodes on `shards` in-process shard
    /// workers, every message through the wire codec; also returns what
    /// the coordinator counted on the transports.
    fn run_sharded(
        nodes: Vec<P>,
        terms: Terms,
        shards: usize,
    ) -> (ExecutionReport<Self::Output>, WireStats);

    /// Declares what [`RoundModel::run_sharded`] puts on the wire.
    fn describe(schema: &mut Schema);
}

/// What an execution runs under: the crash adversary, its fault budget and
/// the round cap.
pub(crate) struct Terms {
    adversary: Box<dyn CrashAdversary>,
    budget: usize,
    max_rounds: u64,
}

/// Section 2's model: `Runner` / `ShardedRunner`.
pub(crate) struct MultiPort;

/// Section 8's model: `SinglePortRunner` / `SpShardedRunner`.
pub(crate) struct SinglePort;

impl<P: SyncProtocol> RoundModel<P> for MultiPort
where
    P::Msg: Wire,
    P::Output: WireOutput,
{
    type Output = P::Output;
    const ROUND_SLACK: u64 = 2;

    fn run(nodes: Vec<P>, terms: Terms) -> ExecutionReport<P::Output> {
        let runner = Runner::with_adversary(nodes, terms.adversary, terms.budget);
        let mut runner = must(runner, "runner");
        let report = runner.run(terms.max_rounds);
        TOTAL_ACTIVE.fetch_add(runner.active_node_rounds(), Ordering::Relaxed);
        report
    }

    fn run_sharded(
        nodes: Vec<P>,
        terms: Terms,
        shards: usize,
    ) -> (ExecutionReport<P::Output>, WireStats) {
        let nodes = nodes.into_iter().map(Participant::Honest).collect();
        let runner = ShardedRunner::in_process(nodes, terms.adversary, terms.budget, shards);
        let mut runner = must(runner, "sharded coordinator");
        let report = must(runner.run(terms.max_rounds), "sharded execution");
        (report, runner.wire_stats().clone())
    }

    fn describe(schema: &mut Schema) {
        dft_sim::shard::describe_shard::<P::Msg, P::Output>(schema);
    }
}

impl<P: SinglePortProtocol> RoundModel<P> for SinglePort
where
    P::Msg: Wire,
    P::Output: WireOutput,
{
    type Output = P::Output;
    const ROUND_SLACK: u64 = 4;

    fn run(nodes: Vec<P>, terms: Terms) -> ExecutionReport<P::Output> {
        let runner = SinglePortRunner::with_adversary(nodes, terms.adversary, terms.budget);
        let mut runner = must(runner, "runner");
        let report = runner.run(terms.max_rounds);
        TOTAL_ACTIVE.fetch_add(runner.active_node_rounds(), Ordering::Relaxed);
        TOTAL_ANSWERED.fetch_add(runner.answered_idle_polls(), Ordering::Relaxed);
        TOTAL_FULL_PORTS.fetch_add(runner.full_ports_drained(), Ordering::Relaxed);
        report
    }

    fn run_sharded(
        nodes: Vec<P>,
        terms: Terms,
        shards: usize,
    ) -> (ExecutionReport<P::Output>, WireStats) {
        let runner = SpShardedRunner::in_process(nodes, terms.adversary, terms.budget, shards);
        let mut runner = must(runner, "sharded coordinator");
        let report = must(runner.run(terms.max_rounds), "sharded execution");
        (report, runner.wire_stats().clone())
    }

    fn describe(schema: &mut Schema) {
        dft_sim::shard::describe_shard::<P::Msg, P::Output>(schema);
    }
}

static TOTAL_ACTIVE: AtomicU64 = AtomicU64::new(0);
static TOTAL_ANSWERED: AtomicU64 = AtomicU64::new(0);
static TOTAL_FULL_PORTS: AtomicU64 = AtomicU64::new(0);

/// What the round cores did, accumulated over every unsharded measurement
/// this process ran — the effort measure of Dwork–Halpern–Waarts
/// (`run_experiments --timings` prints each experiment's share as an
/// `[active]` line; never gated, never in a table).  A sharded
/// measurement's cores live in its workers and are not counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Activity {
    /// Node-rounds in which a round core called a node at all.
    pub node_rounds: u64,
    /// Single-port planned idle polls answered without a call.
    pub answered_idle_polls: u64,
    /// Single-port polled ports that held messages when drained.
    pub full_ports: u64,
}

impl Activity {
    /// What was counted after `earlier`, a total read before this one.
    #[must_use]
    pub fn since(self, earlier: Activity) -> Activity {
        Activity {
            node_rounds: self.node_rounds - earlier.node_rounds,
            answered_idle_polls: self.answered_idle_polls - earlier.answered_idle_polls,
            full_ports: self.full_ports - earlier.full_ports,
        }
    }
}

/// The [`Activity`] totals so far.
pub fn activity_totals() -> Activity {
    Activity {
        node_rounds: TOTAL_ACTIVE.load(Ordering::Relaxed),
        answered_idle_polls: TOTAL_ANSWERED.load(Ordering::Relaxed),
        full_ports: TOTAL_FULL_PORTS.load(Ordering::Relaxed),
    }
}

static TOTAL_WIRE: Mutex<WireStats> = Mutex::new(WireStats::new());

/// Frames and bytes per shard frame tag, accumulated over every sharded
/// measurement this process ran (`run_experiments --timings` prints them as
/// `[wire]` lines; never gated).
pub fn wire_totals() -> WireStats {
    let totals = TOTAL_WIRE.lock().unwrap_or_else(PoisonError::into_inner);
    totals.clone()
}

/// Declares the wire roots of the round model `X` for the protocol `build`
/// constructs (`build` is passed only for its type, never called).
fn describe_kind<X: RoundModel<P>, P, V>(
    schema: &mut Schema,
    _build: fn(&Workload) -> BuiltNodes<P, V>,
) {
    X::describe(schema);
}

/// Runs one measurement and judges it: the runner holds the nodes, or —
/// `w.shards > 1` — shard workers do, byte-identically.
fn run_measurement<X: RoundModel<P>, P, V: Verdict<X::Output>>(
    kind: MeasureKind,
    w: &Workload,
    built: BuiltNodes<P, V>,
) -> Measurement {
    let terms = kind.terms::<X, P>(w, built.rounds);
    let report = if w.shards <= 1 {
        X::run(built.nodes, terms)
    } else {
        let (report, wire) = X::run_sharded(built.nodes, terms, w.shards);
        let mut totals = TOTAL_WIRE.lock().unwrap_or_else(PoisonError::into_inner);
        totals.absorb(&wire);
        report
    };
    let verdict = (built.verdict)(&report);
    Measurement::from_report(&report, verdict)
}

/// The one table of measurements.  A row gives the kind, the public entry
/// point, the node builder (which names the protocol type), the round
/// model, and whether the execution runs under the workload's crash
/// adversary (the authenticated-Byzantine measurements run fault-free with
/// budget 0: their cost side counts non-faulty messages, which is maximal
/// when everyone is honest).  Everything that must agree per kind is
/// generated from it.
macro_rules! measure_kinds {
    ($($(#[$doc:meta])* $kind:ident, $measure:ident, $build:ident, $model:ident, $crashes:literal;)*) => {
        /// Which measurement to run.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum MeasureKind {
            $($(#[$doc])* $kind,)*
        }

        impl MeasureKind {
            fn uses_crash_adversary(self) -> bool {
                match self {
                    $(MeasureKind::$kind => $crashes,)*
                }
            }

            /// Runs the measurement: in the runner, or — `w.shards > 1` —
            /// partitioned across in-process shard workers behind the wire
            /// codec, byte-identically.
            pub fn measure(self, w: &Workload) -> Measurement {
                match self {
                    $(MeasureKind::$kind => run_measurement::<$model, _, _>(self, w, $build(w)),)*
                }
            }
        }

        $(
            $(#[$doc])*
            pub fn $measure(w: &Workload) -> Measurement {
                MeasureKind::$kind.measure(w)
            }
        )*

        /// Declares to `schema` everything an execution can put on the
        /// wire: each kind's round-model roots at its message and output
        /// types, and `dft-node`'s mesh, which runs [`FloodingConsensus`].
        /// A new row is in `WIRE_SCHEMA.json` by construction
        /// (`tests/wire_schema.rs`).
        pub fn describe_wire(schema: &mut Schema) {
            $(describe_kind::<$model, _, _>(schema, $build);)*
            dft_sim::shard::describe_mesh::<<FloodingConsensus as SyncProtocol>::Msg>(schema);
        }
    };
}

measure_kinds! {
    /// `Almost-Everywhere-Agreement` (Theorem 5).
    Aea, measure_aea, build_aea, MultiPort, true;
    /// `Spread-Common-Value` (Theorem 6) with 3/5·n initialized nodes.
    Scv, measure_scv, build_scv, MultiPort, true;
    /// `Few-Crashes-Consensus` (Theorem 7).
    FewCrashes, measure_few_crashes, build_few_crashes, MultiPort, true;
    /// `Many-Crashes-Consensus` (Theorem 8 / Corollary 1).
    ManyCrashes, measure_many_crashes, build_many_crashes, MultiPort, true;
    /// `Gossip` (Theorem 9).
    Gossip, measure_gossip, build_gossip, MultiPort, true;
    /// `Checkpointing` (Theorem 10).
    Checkpointing, measure_checkpointing, build_checkpointing, MultiPort, true;
    /// `AB-Consensus` (Theorem 11) with all-honest participants.
    AbConsensus, measure_ab_consensus, build_ab_consensus, MultiPort, false;
    /// Single-port `Linear-Consensus` (Theorem 12).
    LinearConsensus, measure_linear_consensus, build_linear_consensus, SinglePort, true;
    /// The flooding-consensus baseline.
    Flooding, measure_flooding, build_flooding, MultiPort, true;
    /// The all-to-all gossip baseline.
    AllToAllGossip, measure_all_to_all_gossip, build_all_to_all_gossip, MultiPort, true;
    /// The naive checkpointing baseline.
    NaiveCheckpointing, measure_naive_checkpointing, build_naive_checkpointing, MultiPort, true;
    /// The parallel Dolev–Strong Byzantine baseline.
    ParallelDs, measure_parallel_ds, build_parallel_ds, MultiPort, false;
}

impl MeasureKind {
    /// What the measurement runs under, given its protocol's round budget.
    fn terms<X: RoundModel<P>, P>(self, w: &Workload, rounds: u64) -> Terms {
        let (adversary, budget) = if self.uses_crash_adversary() {
            (w.adversary(rounds), w.t)
        } else {
            (Box::new(dft_sim::NoFaults) as Box<dyn CrashAdversary>, 0)
        };
        Terms {
            adversary,
            budget,
            max_rounds: rounds + X::ROUND_SLACK,
        }
    }
}

/// A labelled table of measurement rows, printable as aligned text.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment identifier (e.g. `"E4 thm7_few_crashes"`).
    pub id: String,
    /// What the paper claims for this experiment.
    pub paper_claim: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells, already rendered as strings.
    pub rows: Vec<Vec<String>>,
    /// The violations of the rows' measurements, each naming its row; not
    /// rendered.
    pub violations: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, paper_claim: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            paper_claim: paper_claim.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a row measured by `m`, keeping `m`'s violation, if any.
    pub fn push_judged(&mut self, cells: Vec<String>, m: &Measurement) {
        if let Err(violation) = m.verdict {
            let row = cells.iter().take(3).map(String::as_str);
            let row = row.collect::<Vec<_>>().join(" ");
            let id = &self.id;
            self.violations.push(format!("{id} [{row}]: {violation}"));
        }
        self.push_row(cells);
    }

    /// Sums the parseable integer cells of the column named `name`, if the
    /// table has one.  This is how the perf baseline (`--bench-json`) reads
    /// message/bit totals out of an experiment without every experiment
    /// having to thread counters through separately; non-numeric cells
    /// (e.g. `yes`/`no`) contribute nothing.
    pub fn column_sum(&self, name: &str) -> Option<u64> {
        let index = self.columns.iter().position(|c| c == name)?;
        Some(
            self.rows
                .iter()
                .filter_map(|row| row.get(index))
                .filter_map(|cell| cell.parse::<u64>().ok())
                .sum(),
        )
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.id));
        out.push_str(&format!("paper: {}\n", self.paper_claim));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, width)| format!("{:width$}", c, width = *width))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload::full_budget(60, 8, 3)
    }

    #[test]
    fn consensus_measurements_report_agreement() {
        let m = measure_few_crashes(&small());
        assert_eq!(m.verdict, Ok(()));
        assert!(m.rounds > 0 && m.messages > 0);
    }

    #[test]
    fn aea_measurement_reports_decider_fraction() {
        let m = measure_aea(&small());
        assert_eq!(m.verdict, Ok(()));
        assert!(m.decider_fraction >= 0.6);
    }

    #[test]
    fn baselines_are_more_expensive_in_messages() {
        let w = Workload::fault_free(80, 10, 5);
        let ours = measure_few_crashes(&w);
        let flooding = measure_flooding(&w);
        assert!(
            flooding.messages > ours.messages,
            "{} vs {}",
            flooding.messages,
            ours.messages
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let mut table = Table::new("T", "claim", &["a", "b"]);
        table.push_row(vec!["1".into(), "2".into()]);
        table.push_row(vec!["333".into(), "4".into()]);
        let text = table.render();
        assert!(text.contains("claim"));
        assert!(text.contains("333"));
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    fn column_sum_totals_numeric_cells_only() {
        let mut table = Table::new("T", "claim", &["n", "messages", "agreement"]);
        table.push_row(vec!["60".into(), "100".into(), "yes".into()]);
        table.push_row(vec!["120".into(), "250".into(), "no".into()]);
        assert_eq!(table.column_sum("messages"), Some(350));
        assert_eq!(table.column_sum("agreement"), Some(0), "no numeric cells");
        assert_eq!(table.column_sum("bits"), None, "no such column");
    }

    #[test]
    fn byzantine_kinds_run_fault_free() {
        let w = small();
        for (kind, budget) in [
            (MeasureKind::AbConsensus, 0),
            (MeasureKind::ParallelDs, 0),
            (MeasureKind::Gossip, w.t),
        ] {
            let terms = kind.terms::<MultiPort, Gossip>(&w, 10);
            assert_eq!((terms.budget, terms.max_rounds), (budget, 12), "{kind:?}");
        }
        let terms = MeasureKind::LinearConsensus
            .terms::<SinglePort, dft_core::LinearConsensus<bool>>(&w, 10);
        assert_eq!(terms.max_rounds, 14, "single-port slack");
    }

    #[test]
    fn workload_constructors() {
        let w = Workload::fault_free(10, 1, 0);
        assert_eq!(w.crashes, 0);
        let w = Workload::full_budget(10, 1, 0);
        assert_eq!(w.crashes, 1);
    }
}
