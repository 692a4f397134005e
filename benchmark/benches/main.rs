//! The repository's benchmark: one run of one workload.
//!
//! ```text
//! dft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Closed loop, one execution at a time.  An *iteration* builds the
//! workload's inputs from the seed (timed: set-up) and runs them to
//! termination (timed: execution), checking every execution against the
//! paper's correctness conditions.  One warm-up iteration is discarded, then
//! iterations repeat while another one fits into `--seconds` (see
//! [`Budget`]; at least [`MIN_ITERATIONS`]).  The reported times are medians
//! over the timed iterations; quartiles and sample count are printed beside
//! them.  With `--trace 1` every iteration also drives the same inputs
//! through the benchmark's own reference coordinator, untimed and traced,
//! and the per-layer metrics (medians over iterations) are reported instead.
//!
//! Which metrics a run reports, and their units, is read from
//! `BENCHMARK.json` in the working directory — the repository root.  The last
//! line of standard output is the result object the benchmark contract asks
//! for; the lines above it are for people.  `suite.py` runs all five
//! workloads and the repeatability checks.

mod kernels;
mod model;
mod probe;
mod reference;
mod stats;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dft_core::{ExtantSet, Gossip, GossipMsg};
use dft_sim::shard::ShardedRunner;
use dft_sim::Participant;

use model::{Backend, Instrumented, Model, MultiPort, SinglePort, SHARDS};
use probe::{PhaseClock, Probe, Recorder, Sampler, TransportStats};
use reference::{phase, timed, Transcript};
use stats::{median, quartiles, Metric};
use workloads::{Built, Kernel, Plan, Spec, SPECS};

/// Fewest timed iterations of a run, however short `--seconds` is.
const MIN_ITERATIONS: usize = 5;
/// A traced iteration executes everything three times (7-10 s on the two
/// largest workloads), so a third one does not always fit.
const MIN_TRACED_ITERATIONS: usize = 2;
/// How often the sampling profiler looks at a serial execution: a few
/// thousand samples resolve a share to about a percent, and the second core
/// is idle.  Twenty times faster slowed every workload by 25-65 %.
const SAMPLE_SERIAL: Duration = Duration::from_micros(500);
/// ... and at a sharded one, whose two workers and coordinator already fill
/// both cores: at 500 us the sampler's wake-ups made the traced run 25 %
/// slower than the untraced one, at 5 ms they cannot be told from noise.
const SAMPLE_SHARDED: Duration = Duration::from_millis(5);
/// Messages captured from a traced execution for the wire kernels.
const CAPTURED_MSGS: u64 = 256;

const USAGE: &str =
    "usage: dft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: crash_sparse checkpoint_dense byzantine_auth single_port gossip_sharded";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 24.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The paper's own costs of one or more executions, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Sim {
    rounds: u64,
    messages: u64,
    bits: u64,
}

/// What one iteration measured.
#[derive(Default)]
struct Iteration {
    setup_s: f64,
    exec_s: f64,
    sim: Sim,
    attempted: u64,
    failed: u64,
    /// Per-layer sums of a traced iteration (`raw.*` keys are inputs of the
    /// derived metrics and are not reported).
    layers: BTreeMap<&'static str, f64>,
}

impl Iteration {
    /// Books one execution — one operation — and reports its failures.
    fn record<O>(&mut self, label: &str, produced: &Produced<O>) {
        self.setup_s += produced.setup_s;
        self.exec_s += produced.exec_s;
        self.sim.rounds += produced.transcript.rounds;
        self.sim.messages += produced.transcript.messages;
        self.sim.bits += produced.transcript.bits;
        self.attempted += 1;
        self.failed += u64::from(!produced.failures.is_empty());
        for failure in &produced.failures {
            eprintln!("FAILED {label}: {failure}");
        }
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_default() += value;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }
}

/// Sets an execution up `repeats` times back to back and keeps the last:
/// returns the runner, its plan, the mean seconds of one set-up, and the
/// seconds the last runner construction took.
fn set_up<B, N, O>(repeats: usize, build: &dyn Fn() -> Built<N, O>) -> (B, Plan<O>, f64, f64)
where
    B: Backend<N, O>,
{
    let mut total_s = 0.0;
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let built = build();
        let built_at = Instant::now();
        let runner = B::construct(built.nodes, built.adversary, built.budget);
        let end = Instant::now();
        total_s += (end - start).as_secs_f64();
        // Replacing `last` drops the previous set-up outside the clocks.
        last = Some((runner, built.plan, (end - built_at).as_secs_f64()));
    }
    let (runner, plan, runner_s) = last.expect("at least one set-up");
    (runner, plan, total_s / repeats as f64, runner_s)
}

/// What a production backend did with one execution.
struct Produced<O> {
    transcript: Transcript<O>,
    plan: Plan<O>,
    setup_s: f64,
    runner_s: f64,
    exec_s: f64,
    drop_s: f64,
    failures: Vec<String>,
}

/// Sets up and runs one execution on production backend `B`, and applies
/// the workload's oracle to its transcript.
fn produce<B, N, O>(spec: &Spec, build: &dyn Fn() -> Built<N, O>) -> Produced<O>
where
    B: Backend<N, O>,
    O: Clone + PartialEq + Debug,
{
    let (mut runner, plan, setup_s, runner_s) = set_up::<B, N, O>(spec.setup_repeats, build);
    let ((report, mut failures), exec_s) = timed(|| runner.run(plan.max_rounds));
    let ((), drop_s) = timed(|| drop(runner));
    let transcript = Transcript::of(&report);
    failures.extend((plan.check)(&transcript));
    Produced {
        transcript,
        plan,
        setup_s,
        runner_s,
        exec_s,
        drop_s,
        failures,
    }
}

/// State a traced run keeps across executions.
struct Tracer {
    recorder: Recorder,
    next_exec: u32,
    /// Whether the workload runs the wire kernels: over messages captured
    /// from its first traced execution.
    capture: bool,
    wire: Option<kernels::WireKernel>,
}

/// One traced execution of model `M`: the production runner (untraced, the
/// yardstick), the reference coordinator untimed, and the reference
/// coordinator with every phase clocked and the protocol calls sampled.
/// All three transcripts must be equal.  Returns the production run and the
/// wall seconds of the traced one.
fn traced_op<M, P>(
    spec: &Spec,
    build: &dyn Fn() -> Built<<M as Model<P>>::Nodes, <M as Model<P>>::Output>,
    tracer: &mut Tracer,
    iteration: &mut Iteration,
) -> (Produced<<M as Model<P>>::Output>, f64)
where
    M: Instrumented<P>,
{
    let mut produced = produce::<<M as Model<P>>::Runner, _, _>(spec, build);
    let max_rounds = produced.plan.max_rounds;

    let built = build();
    let ((plain, _), ref_s) = timed(|| {
        <M as Model<P>>::reference(
            built.nodes,
            built.adversary,
            built.budget,
            max_rounds,
            &mut PhaseClock::off(),
            0,
            &mut Vec::new(),
        )
    });
    if plain != produced.transcript {
        let failure = "the untimed reference coordinator's transcript differs";
        produced.failures.push(failure.to_string());
    }

    let built = build();
    let probe = Arc::new(Probe::default());
    let nodes = M::timed(built.nodes, &probe);
    let exec = tracer.next_exec;
    tracer.next_exec += 1;
    let capture_every = if tracer.capture && tracer.wire.is_none() {
        (produced.transcript.messages / CAPTURED_MSGS).max(1)
    } else {
        0
    };
    let mut captured = Vec::new();
    let sampler = Sampler::start(std::slice::from_ref(&probe), SAMPLE_SERIAL);
    let start = Instant::now();
    let root = tracer.recorder.open("execution", exec, start);
    let (traced, counts) = <M as Model<probe::Timed<P>>>::reference(
        nodes,
        built.adversary,
        built.budget,
        max_rounds,
        &mut PhaseClock::on(&mut tracer.recorder, root, exec),
        capture_every,
        &mut captured,
    );
    tracer.recorder.close(root, Instant::now());
    let core = sampler.finish().pop().expect("one reading per probe");
    if traced != produced.transcript {
        let failure = "the traced reference coordinator's transcript differs";
        produced.failures.push(failure.to_string());
    }
    if capture_every > 0 {
        tracer.wire = Some(kernels::wire(&captured));
    }

    let recorder = &tracer.recorder;
    let mut phases_s = 0.0;
    for (span, metric) in [
        (phase::BEGIN_ROUND, "driver.begin_round_s"),
        (phase::DELIVER, "driver.deliver_s"),
        (phase::FINALIZE, "driver.finalize_s"),
        (phase::SP_BEGIN_ROUND, "spcore.begin_round_s"),
        (phase::SP_FINALIZE, "spcore.finalize_s"),
        (phase::CRASH, "coord.crash_phase_s"),
        (phase::ROUTE, "coord.route_s"),
        (phase::PORTS, "coord.port_s"),
        (phase::REPLAY, "coord.replay_s"),
    ] {
        let seconds = recorder.total_s(root, span);
        phases_s += seconds;
        iteration.add(metric, seconds);
    }
    iteration.add("core.send_s", core.send_s);
    iteration.add("core.receive_s", core.receive_s);
    iteration.add("core.send_calls", core.send_calls);
    iteration.add("core.msgs_sent", core.msgs_sent);
    iteration.add("core.inbox_msgs", core.inbox_msgs);
    iteration.add("driver.rounds", traced.rounds as f64);
    iteration.add("coord.crashes", traced.crashes as f64);
    iteration.add(
        "coord.dropped_msgs",
        (counts.offered - counts.accepted) as f64,
    );
    iteration.add("spcore.polls", counts.polls as f64);
    iteration.add("setup.config_s", produced.plan.config_s);
    iteration.add("setup.nodes_s", produced.plan.nodes_s);
    iteration.add("setup.runner_s", produced.runner_s);
    iteration.add("setup.drop_s", produced.drop_s);
    iteration.add("raw.offered", counts.offered as f64);
    iteration.add("raw.accepted", counts.accepted as f64);
    iteration.add("raw.useful_polls", counts.useful_polls as f64);
    iteration.add("raw.steady_allocs", counts.steady_allocs as f64);
    iteration.add("raw.steady_bytes", counts.steady_bytes as f64);
    iteration.add("raw.steady_rounds", counts.steady_rounds as f64);
    iteration.add("raw.serial_exec_s", produced.exec_s);
    let traced_s = recorder.duration_s(root);
    iteration.add("raw.ref_s", ref_s);
    iteration.add("raw.ref_traced_s", traced_s);
    iteration.add("raw.phases_s", phases_s);
    (produced, traced_s)
}

/// One execution of a workload whose own backend is the serial runner of
/// model `M`: untraced, or traced — in which case the traced reference run
/// is also the workload's traced run.
fn serial_op<M, P>(
    spec: &Spec,
    label: &str,
    build: &dyn Fn() -> Built<<M as Model<P>>::Nodes, <M as Model<P>>::Output>,
    tracer: Option<&mut Tracer>,
    iteration: &mut Iteration,
) where
    M: Instrumented<P>,
{
    let produced = match tracer {
        None => produce::<<M as Model<P>>::Runner, _, _>(spec, build),
        Some(tracer) => {
            let (produced, traced_s) = traced_op::<M, P>(spec, build, tracer, iteration);
            iteration.add("raw.exec_s", produced.exec_s);
            iteration.add("raw.traced_s", traced_s);
            produced
        }
    };
    iteration.record(label, &produced);
}

/// The traced `gossip_sharded` execution: the serial path three ways (as
/// any multi-port workload), then the sharded backend untraced (the
/// workload's own execution) and traced.  All five transcripts must agree.
fn traced_sharded_op(
    spec: &Spec,
    label: &str,
    build: &dyn Fn() -> Built<Vec<Participant<Gossip>>, ExtantSet>,
    tracer: &mut Tracer,
    iteration: &mut Iteration,
) {
    let (serial, _) = traced_op::<MultiPort, Gossip>(spec, build, tracer, iteration);
    let mut sharded = produce::<ShardedRunner<GossipMsg, ExtantSet>, _, _>(spec, build);
    if sharded.transcript != serial.transcript {
        let failure = "the sharded transcript differs from the serial one";
        sharded.failures.push(failure.to_string());
    }
    sharded.failures.extend(serial.failures);

    let built = build();
    let stats = Arc::new(TransportStats::default());
    let probes: Vec<Arc<Probe>> = (0..dft_sim::shard::shard_count(spec.n, SHARDS))
        .map(|_| Arc::new(Probe::default()))
        .collect();
    let max_rounds = sharded.plan.max_rounds;
    let exec = tracer.next_exec;
    tracer.next_exec += 1;
    let (allocs_before, bytes_before) = probe::alloc::snapshot();
    let sampler = Sampler::start(&probes, SAMPLE_SHARDED);
    let start = Instant::now();
    let (report, backend_failures) = model::with_traced_shards(
        built.nodes,
        built.adversary,
        built.budget,
        &stats,
        &probes,
        |mut runner| Backend::run(&mut runner, max_rounds),
    );
    let end = Instant::now();
    let (allocs, bytes) = probe::alloc::snapshot();
    tracer
        .recorder
        .push("execution.sharded", None, exec, start, end);
    sharded.failures.extend(backend_failures);
    if Transcript::of(&report) != sharded.transcript {
        let failure = "the traced sharded transcript differs";
        sharded.failures.push(failure.to_string());
    }

    let traced_s = (end - start).as_secs_f64();
    let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed) as f64;
    let worker_core_s: f64 = sampler
        .finish()
        .iter()
        .map(|core| core.send_s + core.receive_s)
        .sum();
    iteration.add("transport.frames", load(&stats.frames));
    iteration.add("transport.bytes", load(&stats.bytes));
    iteration.add("transport.coord_send_s", load(&stats.send_ns) / 1e9);
    iteration.add("transport.coord_wait_s", load(&stats.recv_ns) / 1e9);
    iteration.add("shard.worker_core_s", worker_core_s);
    iteration.add("raw.exec_s", sharded.exec_s);
    iteration.add("raw.traced_s", traced_s);
    // The sharded coordinator's rounds cannot be told apart from outside,
    // so its allocations are averaged over the whole execution.
    iteration.set("raw.steady_allocs", (allocs - allocs_before) as f64);
    iteration.set("raw.steady_bytes", (bytes - bytes_before) as f64);
    iteration.set("raw.steady_rounds", report.metrics.rounds as f64);
    iteration.record(label, &sharded);
}

/// Runs one iteration of the workload: every execution it consists of.
fn iterate(spec: &Spec, seed: u64, mut tracer: Option<&mut Tracer>) -> Iteration {
    let mut iteration = Iteration::default();
    let it = &mut iteration;
    match spec.name {
        "crash_sparse" => {
            for (label, faulty) in [("full-budget crashes", true), ("fault-free", false)] {
                let build = || workloads::few_crashes(spec, seed, faulty);
                serial_op::<MultiPort, _>(spec, label, &build, tracer.as_deref_mut(), it);
            }
        }
        "checkpoint_dense" => {
            for (label, lose_a_rumor) in [("a rumor lost", true), ("every rumor out", false)] {
                let build = || workloads::checkpointing(spec, seed, lose_a_rumor);
                serial_op::<MultiPort, _>(spec, label, &build, tracer.as_deref_mut(), it);
            }
        }
        "byzantine_auth" => {
            for (label, byzantine) in [("all honest", false), ("t Byzantine", true)] {
                let build = || workloads::ab_consensus(spec, seed, byzantine);
                serial_op::<MultiPort, _>(spec, label, &build, tracer.as_deref_mut(), it);
            }
        }
        "single_port" => {
            let build = || workloads::linear_consensus(spec, seed);
            serial_op::<SinglePort, _>(spec, "full-budget crashes", &build, tracer, it);
        }
        "gossip_sharded" => {
            let build = || workloads::gossip(spec, seed);
            let label = "full-budget crashes, 2 shards";
            match tracer {
                None => it.record(label, &produce::<ShardedRunner<_, _>, _, _>(spec, &build)),
                Some(tracer) => traced_sharded_op(spec, label, &build, tracer, it),
            }
        }
        other => unreachable!("{other} is not in SPECS"),
    }
    iteration
}

/// A run's values by metric name.
type Measured = BTreeMap<&'static str, f64>;

/// The iterations of a run and what they add up to.
struct Run {
    iterations: Vec<Iteration>,
    attempted: u64,
    failed: u64,
}

/// The time a run may take: `--seconds` from the start of the process, with
/// everything counted against it — warm-up, kernels and iterations alike.
struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Whether an iteration as long as the longest so far would still end
    /// within the budget.
    fn fits(&self, longest_s: f64) -> bool {
        self.start.elapsed().as_secs_f64() + longest_s <= self.seconds
    }
}

/// Repeats `iterate` while another iteration fits into `budget`, and until
/// at least `min_iterations` are in; the paper's costs must repeat exactly.
fn measure(budget: &Budget, min_iterations: usize, mut iterate: impl FnMut() -> Iteration) -> Run {
    let mut run = Run {
        iterations: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut longest_s = 0.0_f64;
    while run.iterations.len() < min_iterations || budget.fits(longest_s) {
        let (iteration, wall_s) = timed(&mut iterate);
        longest_s = longest_s.max(wall_s);
        run.attempted += iteration.attempted;
        run.failed += iteration.failed;
        if let Some(first) = run.iterations.first() {
            if first.sim != iteration.sim {
                eprintln!(
                    "FAILED: iteration {} cost {:?}, iteration 0 cost {:?}",
                    run.iterations.len(),
                    iteration.sim,
                    first.sim
                );
                run.failed += 1;
            }
        }
        run.iterations.push(iteration);
    }
    run
}

fn print_samples(name: &str, unit: &str, samples: &[f64]) {
    let (q1, q3) = quartiles(samples);
    println!(
        "{name:<10} {unit:<3} median {:<12.6} q1 {q1:<12.6} q3 {q3:<12.6} samples {}",
        median(samples),
        samples.len()
    );
    let listed: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
    println!("  each {name}: {}", listed.join(" "));
}

/// The untraced run: the six end-to-end metrics.
fn run_untraced(spec: &Spec, args: &Args, budget: &Budget) -> (Run, Measured) {
    // The first iteration of a process pays for page faults and allocator
    // growth the later ones do not (a cold n = 4000 build measured 2.07 s
    // against 0.78 s warm), so it is run and checked but not timed.
    let warm_up = iterate(spec, args.seed, None);
    let mut run = measure(budget, MIN_ITERATIONS, || iterate(spec, args.seed, None));
    run.attempted += warm_up.attempted;
    run.failed += warm_up.failed;
    let sim = run.iterations[0].sim;
    if warm_up.sim != sim {
        eprintln!(
            "FAILED: the warm-up iteration cost {:?}, iteration 0 cost {sim:?}",
            warm_up.sim
        );
        run.failed += 1;
    }
    let setup: Vec<f64> = run.iterations.iter().map(|i| i.setup_s).collect();
    let exec: Vec<f64> = run.iterations.iter().map(|i| i.exec_s).collect();
    print_samples("setup_s", "s", &setup);
    print_samples("exec_s", "s", &exec);
    let n = spec.n as f64;
    let measured = Measured::from([
        ("setup_s", median(&setup)),
        ("exec_s", median(&exec)),
        ("peak_rss_mib", stats::peak_rss_mib()),
        ("sim_rounds", sim.rounds as f64),
        ("sim_msgs_per_node", sim.messages as f64 / n),
        ("sim_bits_per_node", sim.bits as f64 / n),
    ]);
    (run, measured)
}

/// Completes a traced iteration's sums with the metrics derived from them.
fn derive_layers(iteration: &mut Iteration) {
    let ratio = |over: f64, under: f64| if under > 0.0 { over / under } else { 0.0 };
    let get = |name: &str| iteration.get(name);
    let single_port = get("spcore.begin_round_s") > 0.0;
    let (send_s, receive_s) = (get("core.send_s"), get("core.receive_s"));
    // The self times subtract an estimate (scaled from the clocked calls)
    // from a measurement; where the calls take nanoseconds the estimate can
    // exceed it by its own error, which is not negative time.
    let own = |total: f64, inner: f64| (total - inner).max(0.0);
    let on = |applies: bool, value: f64| if applies { value } else { 0.0 };
    let derived = [
        (
            "driver.begin_round_self_s",
            on(!single_port, own(get("driver.begin_round_s"), send_s)),
        ),
        (
            "driver.finalize_self_s",
            on(!single_port, own(get("driver.finalize_s"), receive_s)),
        ),
        (
            "spcore.begin_round_self_s",
            on(single_port, own(get("spcore.begin_round_s"), send_s)),
        ),
        (
            "spcore.finalize_self_s",
            on(single_port, own(get("spcore.finalize_s"), receive_s)),
        ),
        (
            "coord.useful_delivery_ratio",
            ratio(get("raw.accepted"), get("raw.offered")),
        ),
        (
            "spcore.useful_poll_ratio",
            ratio(get("raw.useful_polls"), get("spcore.polls")),
        ),
        (
            "runner.ref_ratio",
            ratio(get("raw.serial_exec_s"), get("raw.ref_s")),
        ),
        (
            "transport.bytes_per_msg",
            ratio(get("transport.bytes"), get("raw.offered")),
        ),
        (
            "shard.codec_share",
            if get("transport.frames") > 0.0 {
                1.0 - ratio(get("raw.serial_exec_s"), get("raw.exec_s"))
            } else {
                0.0
            },
        ),
        (
            "alloc.per_round",
            ratio(get("raw.steady_allocs"), get("raw.steady_rounds")),
        ),
        (
            "alloc.bytes_per_round",
            ratio(get("raw.steady_bytes"), get("raw.steady_rounds")),
        ),
        ("trace.wall_s", get("raw.traced_s")),
        (
            "trace.overhead_pct",
            100.0 * (ratio(get("raw.traced_s"), get("raw.exec_s")) - 1.0),
        ),
        (
            "trace.clock_overhead_pct",
            100.0 * (ratio(get("raw.ref_traced_s"), get("raw.ref_s")) - 1.0),
        ),
        (
            "trace.accounted_pct",
            100.0 * ratio(get("raw.phases_s"), get("raw.ref_traced_s")),
        ),
    ];
    iteration.layers.extend(derived);
}

/// Writes the spans of the last traced iteration — one array per span, its
/// position being its id and its name an index into `names` — and returns
/// the path.
fn write_trace(spec: &Spec, seed: u64, recorder: &Recorder) -> std::io::Result<String> {
    let dir = "benchmark/out";
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{}.json", spec.name);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let mut names: Vec<&str> = Vec::new();
    for span in recorder.spans() {
        if !names.contains(&span.name) {
            names.push(span.name);
        }
    }
    writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"names\": {names:?},\n\
         \"columns\": [\"name\", \"parent\", \"execution\", \"start_ns\", \"end_ns\"],\n\
         \"spans\": [",
        spec.name
    )?;
    for (id, span) in recorder.spans().iter().enumerate() {
        let name = names.iter().position(|&n| n == span.name).expect("listed");
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if id + 1 == recorder.spans().len() {
            ""
        } else {
            ","
        };
        writeln!(
            out,
            "[{name},{parent},{},{},{}]{comma}",
            span.exec, span.start_ns, span.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()?;
    Ok(path)
}

/// The traced run: every per-layer metric.
fn run_traced(spec: &Spec, args: &Args, budget: &Budget) -> (Run, Measured) {
    let mut measured = Measured::new();
    let has = |kernel: Kernel| spec.kernels.contains(&kernel);
    if has(Kernel::Overlay) {
        let overlay = kernels::overlay(spec.n, spec.t, args.seed);
        measured.extend([
            ("overlay.family_build_s", overlay.family_build_s),
            ("overlay.edges", overlay.edges as f64),
        ]);
    }
    if has(Kernel::Extant) {
        let extant = kernels::extant(spec.n);
        measured.extend([
            ("extant.merge_dense_ns", extant.merge_dense_ns),
            ("extant.merge_sparse_ns", extant.merge_sparse_ns),
            ("extant.clone_ns", extant.clone_ns),
        ]);
    }
    if has(Kernel::Auth) {
        let auth = kernels::auth(spec.n, spec.t, args.seed);
        measured.extend([
            ("auth.verify_chain_ns", auth.verify_chain_ns),
            ("auth.sign_ns", auth.sign_ns),
            ("auth.keygen_s", auth.keygen_s),
        ]);
    }

    probe::alloc::set_counting(true);
    let mut tracer = Tracer {
        recorder: Recorder::new(),
        next_exec: 0,
        capture: has(Kernel::Wire),
        wire: None,
    };
    let mut run = measure(budget, MIN_TRACED_ITERATIONS, || {
        // Only the last iteration's spans are kept for the trace file.
        tracer.recorder = Recorder::new();
        let mut iteration = iterate(spec, args.seed, Some(&mut tracer));
        derive_layers(&mut iteration);
        iteration
    });
    probe::alloc::set_counting(false);
    if let Some(wire) = tracer.wire.take() {
        measured.extend([
            ("wire.encode_ns_per_msg", wire.encode_ns_per_msg),
            ("wire.decode_ns_per_msg", wire.decode_ns_per_msg),
            ("wire.bytes_per_msg", wire.bytes_per_msg),
        ]);
    }
    match write_trace(spec, args.seed, &tracer.recorder) {
        Ok(path) => println!("spans of the last iteration: {path}"),
        Err(err) => {
            eprintln!("FAILED: writing the trace file: {err}");
            run.failed += 1;
        }
    }

    let names: BTreeSet<&'static str> = run
        .iterations
        .iter()
        .flat_map(|i| i.layers.keys().copied())
        .filter(|name| !name.starts_with("raw."))
        .collect();
    for name in names {
        let samples: Vec<f64> = run.iterations.iter().map(|i| i.get(name)).collect();
        measured.insert(name, median(&samples));
    }
    (run, measured)
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares for this kind of run:
/// the only list of metrics there is.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("BENCHMARK.json (run from the repository root): {err}"))?;
    stats::declared(&text, if trace { "per_layer" } else { "end_to_end" })
}

/// Pairs the declared metrics with the values the run measured.  A measured
/// value that is not declared fails the run, as does an end-to-end metric
/// without a value; a per-layer metric without one belongs to a layer this
/// workload does not touch and reads 0.
fn report(
    declared: Vec<(String, String)>,
    trace: bool,
    measured: &Measured,
) -> Result<Vec<Metric>, String> {
    if let Some(stray) = measured
        .keys()
        .find(|name| !declared.iter().any(|(declared, _)| declared == *name))
    {
        return Err(format!("BENCHMARK.json does not declare {stray}"));
    }
    declared
        .into_iter()
        .map(|(name, unit)| {
            let value = match measured.get(name.as_str()) {
                Some(&value) => value,
                None if trace => 0.0,
                None => return Err(format!("nothing measures {name}")),
            };
            println!("{name:<28} {unit:<9} {value:.6}");
            Ok(Metric { name, unit, value })
        })
        .collect()
}

fn main() -> ExitCode {
    let budget_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("dft-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|spec| spec.name == args.workload) else {
        eprintln!("dft-benchmark: no workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let declared = match declared_metrics(args.trace) {
        Ok(declared) => declared,
        Err(message) => {
            eprintln!("dft-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{} n={} t={} seed={} trace={} (closed loop, one execution at a time, jobs=1)",
        spec.name, spec.n, spec.t, args.seed, args.trace as u8
    );
    let budget = Budget {
        start: budget_start,
        seconds: args.seconds,
    };
    let (mut run, measured) = if args.trace {
        run_traced(spec, &args, &budget)
    } else {
        run_untraced(spec, &args, &budget)
    };
    let metrics = match report(declared, args.trace, &measured) {
        Ok(metrics) => metrics,
        Err(message) => {
            eprintln!("dft-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "operations: attempted {} failed {} ({} timed iterations, {:.1} s)",
        run.attempted,
        run.failed,
        run.iterations.len(),
        budget_start.elapsed().as_secs_f64()
    );
    let correct = run.failed == 0;
    // A failure that is not one execution's (costs that do not repeat, a
    // trace file that cannot be written) is booked as one more failed
    // operation; the count still may not exceed the attempts.
    run.failed = run.failed.min(run.attempted);
    println!(
        "{}",
        stats::result_line(correct, run.attempted, run.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
