//! Regenerates every experiment table (E1–E11) and prints them to stdout.
//!
//! Usage:
//!
//! ```text
//! run_experiments [--scale quick|full|paper] [--n N] [--t T] [--seed S]
//!                 [--jobs J] [--shards S] [--samples K] [--timings]
//!                 [--bench-json PATH] [--bench-compare BASELINE]
//!                 [--diag-json PATH]
//! ```
//!
//! * `--scale` picks the size tier (`quick` is the CI default, `full` the
//!   sizes recorded in `EXPERIMENTS.md`, `paper` the n = 10^3–10^4 sizes of
//!   the slow suite);
//! * `--n`, `--t`, `--seed` override system size, fault bound and base seed
//!   for every experiment (see `SweepConfig`; out-of-range `--t` overrides
//!   are clamped per experiment with a warning on stderr);
//! * `--jobs J` (default: available parallelism; `--jobs 1` is the fully
//!   serial harness) runs up to `J` *experiments* at once, heaviest first,
//!   and nothing else: an execution is one thread, so a `J` beyond the
//!   experiment count buys nothing and one beyond the core count only adds
//!   scheduling overhead.  Tables are byte-identical at any setting and
//!   always print in canonical E1–E11 order — `tests/cli_usage.rs` diffs
//!   `--jobs 1` against `--jobs 3`, and CI `--jobs 1` against `--jobs 4`;
//! * `--shards S` partitions every measurement's execution across `S`
//!   in-process shard workers behind the wire codec (threads of the
//!   coordinator's own, connected by channels; see `dft_sim::shard` and the
//!   sharding section of `DESIGN.md`), so every message, intent and
//!   decision of every experiment crosses the codec.  The crash-adversary
//!   phase and the deterministic merge stay with the coordinator, so tables
//!   remain byte-identical to unsharded runs — CI diffs them.  The two
//!   flags are independent: `--shards 2 --jobs 8` runs up to 8 experiments
//!   at once, each measurement split over 2 workers.  A worker that fails,
//!   or a frame that does not check out, aborts the run with the shard
//!   error; nothing is retried;
//! * `--samples K` measures each experiment `K` times (tables are printed
//!   from the first sample; `K > 1` implies `--timings`, which is the only
//!   consumer of the extra runs);
//! * `--timings` appends one `[time] Ek: …s` line per experiment so perf
//!   regressions show up in CI logs; with `--samples K > 1` the line becomes
//!   the `[min mean max] trimmed …` summary with IQR outlier rejection
//!   (`dft_bench::stats`).  When the experiments ran one at a time
//!   (`--jobs 1`) an `[alloc] Ek: … allocs, … bytes, … allocs/round` line
//!   follows: heap allocations and bytes of the first sample, plus the last
//!   sample's allocations divided by the table's total round count — the
//!   steady-state signal, exact from run to run, that `--bench-compare`
//!   gates.  The counters are process-global, so concurrent experiments
//!   could not be attributed, and under `--shards` they include the shard
//!   workers' and the codec's allocations (the workers are threads of this
//!   process).  An unsharded `--jobs 1` run adds an `[active] Ek: …
//!   node-rounds called, … per message` line: how many node-rounds the
//!   round cores actually called a state machine in (the rest were quiet,
//!   see `SyncProtocol::quiet_until`), and that effort per message sent;
//!   a single-port experiment's line also counts the planned idle polls the
//!   core answered without a call and the polled ports that held messages.  A
//!   `--shards` run also ends with `[wire] TAG: … frames, … bytes` lines,
//!   the coordinator's traffic per shard frame tag, and every run with one
//!   `[rss] peak … MiB` line, the process's peak resident set (`VmHWM`;
//!   omitted where `/proc/self/status` is unreadable);
//! * `--bench-json PATH` writes the machine-readable perf baseline
//!   (`dft_bench::baseline::BenchReport`): per-experiment wall / trimmed
//!   timings, message and bit totals, the allocation counts above when
//!   the run was `--jobs 1` (`null` otherwise), the run configuration
//!   including the git revision, and the peak resident set (recorded, not
//!   gated);
//! * `--bench-compare BASELINE` loads a committed baseline JSON and exits
//!   non-zero if any experiment's trimmed-mean wall time regressed more
//!   than 2× against the baseline's (with one sample the trimmed mean *is*
//!   the single wall sample, so compare with the same `--samples` the
//!   baseline was captured with; baselines under the 10 ms noise floor are
//!   never gated), or if its allocations per round — its allocations,
//!   where the table has no rounds column — differ from the baseline's at
//!   all: the counts repeat exactly, so there is no tolerance, and the
//!   cure is to fix the allocation or recapture.  Comparing against a
//!   baseline captured under a different workload (`--shards` included),
//!   or one that has counts against a run without them (`--jobs` above 1),
//!   is an error, not a pass;
//! * `--diag-json PATH` additionally writes every buffered stderr
//!   diagnostic as one JSON object per line (`tool` / `level` /
//!   `experiment` / `message`), in the same canonical E1–E11 flush order as
//!   stderr (see `dft_bench::diag`).
//!
//! Every measured row is judged with `dft_sim::check` against its kind's
//! spec (the problem's conditions and, for the paper's algorithms, its
//! theorem's bounds); after the tables, each violation is printed on
//! stderr and the run exits 1.

#![expect(
    clippy::disallowed_types,
    reason = "wall-clock timing is the harness's product (perf tables); it never feeds protocol \
              state"
)]

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use dft_bench::baseline::{self, BenchConfig, BenchReport, ExperimentBench};
use dft_bench::experiments::{experiment_catalog, ExperimentFn, Scale, SweepConfig};
use dft_bench::stats::{format_summary, summarize, Summary};
use dft_bench::Table;

const USAGE: &str = "usage: run_experiments [--scale quick|full|paper] [--n N] [--t T] \
                     [--seed S] [--jobs J] [--shards S] [--samples K] [--timings] \
                     [--bench-json PATH] [--bench-compare BASELINE] [--diag-json PATH]";

fn fail(message: &str) -> ExitCode {
    eprintln!("run_experiments: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// The counting global allocator behind the `[alloc]` lines.
///
/// Always installed (swapping allocators at runtime is impossible) and
/// always counting: two relaxed atomic increments per allocation, which is
/// noise next to the allocation itself.  Counters are process-global, which
/// is why they are only read when experiments run one at a time: deltas
/// taken around one experiment's samples then belong to that experiment
/// alone.
#[expect(
    unsafe_code,
    reason = "one of the workspace's two exceptions: a counting GlobalAlloc cannot be written without \
              `unsafe impl`, and this one forwards verbatim to System"
)]
mod alloc_stats {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Delegates every call to [`System`], counting as it goes.
    struct Counting;

    // SAFETY: every method forwards verbatim to `System`, which upholds the
    // `GlobalAlloc` contract; the counters are relaxed atomics that never
    // influence what is returned.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: same layout contract as our own caller's.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` via the methods here.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            // SAFETY: `ptr` came from `System`; layout/new_size forwarded.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// The (allocation count, byte count) totals so far.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

/// One experiment's outcome: its rendered table, its timed samples, and
/// the stderr diagnostics it emitted (buffered per experiment so fan-out
/// cannot interleave them; flushed in canonical E1–E11 order).
struct Outcome {
    table: Table,
    /// The first sample's wall time.
    first: Duration,
    /// All samples, summarised.
    summary: Summary,
    stderr: Vec<String>,
    /// Per-sample `(allocations, bytes)` deltas; empty unless the
    /// experiments ran one at a time.
    alloc_samples: Vec<(u64, u64)>,
    /// What the round cores did during the first sample; `None` unless
    /// the experiments ran one at a time, all 0 where the cores were not
    /// this process's (`--shards`) or nothing executed.
    activity: Option<dft_bench::Activity>,
}

/// Derived allocation numbers for one experiment (the `[alloc]` line).
struct AllocSummary {
    /// Allocations during the first sample (includes the build phase).
    allocs: u64,
    /// Bytes requested during the first sample.
    bytes: u64,
    /// Last sample's allocations divided by the table's total `rounds`
    /// column — allocations per protocol round, the steady-state churn
    /// signal.  `None` when the table has no usable rounds column.
    per_round: Option<u64>,
}

impl Outcome {
    fn alloc_summary(&self) -> Option<AllocSummary> {
        let &(allocs, bytes) = self.alloc_samples.first()?;
        let &(last, _) = self.alloc_samples.last()?;
        let per_round = self
            .table
            .column_sum("rounds")
            .filter(|&rounds| rounds > 0)
            .map(|rounds| last / rounds);
        Some(AllocSummary {
            allocs,
            bytes,
            per_round,
        })
    }
}

/// The order experiments are *started* in: heaviest first (weights from the
/// paper-scale n = 1000 capture in `EXPERIMENTS.md`), so a long experiment
/// is never stranded last on an otherwise idle pool — the classic
/// longest-processing-time heuristic.  Printing stays in canonical E1–E11
/// order regardless.
fn execution_order(catalog_len: usize) -> Vec<usize> {
    // Canonical ids by descending measured weight: E7 E6 E1 E8 E10 E9 E5
    // E3 E4 E2 E11 (indices are id - 1).
    const HEAVIEST_FIRST: [usize; 11] = [6, 5, 0, 7, 9, 8, 4, 2, 3, 1, 10];
    let mut order: Vec<usize> = HEAVIEST_FIRST
        .iter()
        .copied()
        .filter(|&i| i < catalog_len)
        .collect();
    for index in 0..catalog_len {
        if !order.contains(&index) {
            order.push(index);
        }
    }
    order
}

/// Runs the whole catalogue, up to `jobs` independent experiments at once.
/// Results land in catalogue order regardless of which worker computed
/// them, so the printed output is identical to a serial harness run.
///
/// # Errors
///
/// An experiment without an outcome: `samples` was 0 (refused when the
/// arguments are parsed).
fn run_catalog(
    cfg: &SweepConfig,
    jobs: usize,
    samples: usize,
) -> Result<Vec<(&'static str, Outcome)>, String> {
    let catalog = experiment_catalog();
    let slots: Vec<Mutex<Option<Outcome>>> = catalog.iter().map(|_| Mutex::new(None)).collect();
    // Each experiment with the slot its outcome goes to, in starting order.
    let queue: Vec<_> = execution_order(catalog.len())
        .into_iter()
        .filter_map(|index| Some((catalog.get(index)?.1, slots.get(index)?)))
        .collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.clamp(1, catalog.len());
    // The allocation and activity counters are process-global: a delta
    // belongs to an experiment only when nothing else runs meanwhile.
    let count_allocs = workers == 1;
    let run_one = |&(experiment, slot): &(ExperimentFn, &Mutex<Option<Outcome>>)| {
        let mut times = Vec::with_capacity(samples);
        let mut alloc_samples = Vec::new();
        let mut activity = None;
        let mut table = None;
        let ((), stderr) = dft_bench::diag::capture(|| {
            for _ in 0..samples {
                let before = count_allocs.then(alloc_stats::snapshot);
                let activity0 = dft_bench::activity_totals();
                let start = Instant::now();
                let result = experiment(cfg);
                times.push(start.elapsed());
                if let Some((allocs0, bytes0)) = before {
                    let (allocs1, bytes1) = alloc_stats::snapshot();
                    alloc_samples.push((allocs1 - allocs0, bytes1 - bytes0));
                    activity.get_or_insert(dft_bench::activity_totals().since(activity0));
                }
                table.get_or_insert(result);
            }
        });
        let outcome = table
            .zip(times.first().copied())
            .zip(summarize(&times))
            .map(|((table, first), summary)| Outcome {
                table,
                first,
                summary,
                stderr,
                alloc_samples,
                activity,
            });
        // A slot is only ever assigned whole, so a poisoned one still holds
        // a valid value; the panic that poisoned it resurfaces when the
        // scope below joins its threads.
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = outcome;
    };
    if workers == 1 {
        queue.iter().for_each(run_one);
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(job) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                        run_one(job);
                    }
                });
            }
        });
    }
    catalog
        .into_iter()
        .zip(slots)
        .map(|((id, _), slot)| {
            let outcome = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            Ok((
                id,
                outcome.ok_or_else(|| format!("{id}: no sample was taken"))?,
            ))
        })
        .collect()
}

/// Builds the machine-readable baseline from a finished catalogue run.
fn bench_report(
    cfg: &SweepConfig,
    jobs: usize,
    shards: usize,
    samples: usize,
    outcomes: &[(&'static str, Outcome)],
    total_wall: Duration,
) -> BenchReport {
    let experiments = outcomes
        .iter()
        .map(|(id, outcome)| {
            let summary = &outcome.summary;
            let alloc = outcome.alloc_summary();
            ExperimentBench {
                id: (*id).to_string(),
                wall_s: outcome.first.as_secs_f64(),
                trimmed_mean_s: summary.trimmed_mean.as_secs_f64(),
                min_s: summary.min.as_secs_f64(),
                max_s: summary.max.as_secs_f64(),
                messages: outcome.table.column_sum("messages"),
                bits: outcome.table.column_sum("bits"),
                allocs: alloc.as_ref().map(|a| a.allocs),
                alloc_bytes: alloc.as_ref().map(|a| a.bytes),
                allocs_per_round: alloc.as_ref().and_then(|a| a.per_round),
            }
        })
        .collect();
    BenchReport {
        config: BenchConfig {
            scale: format!("{:?}", cfg.scale).to_ascii_lowercase(),
            n: cfg.n.map(|n| n as u64),
            t: cfg.t.map(|t| t as u64),
            seed: cfg.seed,
            jobs: jobs as u64,
            shards: shards as u64,
            samples: samples as u64,
            git_rev: baseline::git_revision(),
        },
        experiments,
        total_wall_s: total_wall.as_secs_f64(),
        peak_rss_mib: baseline::peak_rss_mib(),
    }
}

fn main() -> ExitCode {
    let mut cfg = SweepConfig::default();
    let mut timings = false;
    let mut jobs = dft_sim::available_jobs();
    let mut shards = 1usize;
    let mut samples = 1usize;
    let mut bench_json: Option<String> = None;
    let mut bench_compare: Option<String> = None;
    let mut diag_json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--timings" => timings = true,
            "--scale" => {
                let Some(name) = args.next() else {
                    return fail("--scale needs a value");
                };
                let Some(scale) = Scale::parse(&name) else {
                    return fail(&format!("unknown scale {name:?}"));
                };
                cfg.scale = scale;
            }
            "--n" => match args.next().as_deref().map(str::parse) {
                // Below ~20 nodes the per-experiment parameter formulas
                // (t < n/5 boundaries, overlay degrees) degenerate.
                Some(Ok(n)) if n >= 20 => cfg.n = Some(n),
                _ => return fail("--n needs an integer >= 20"),
            },
            "--t" => match args.next().as_deref().map(str::parse) {
                Some(Ok(t)) => cfg.t = Some(t),
                _ => return fail("--t needs an integer"),
            },
            "--seed" => match args.next().as_deref().map(str::parse) {
                Some(Ok(seed)) => cfg.seed = Some(seed),
                _ => return fail("--seed needs an integer"),
            },
            "--jobs" => match args.next().as_deref().map(str::parse) {
                Some(Ok(j)) if j >= 1 => jobs = j,
                // `0` must be a usage error, not a silent "pick for me".
                _ => return fail("--jobs needs an integer >= 1"),
            },
            "--shards" => match args.next().as_deref().map(str::parse) {
                Some(Ok(s)) if s >= 1 => shards = s,
                _ => return fail("--shards needs an integer >= 1"),
            },
            "--samples" => match args.next().as_deref().map(str::parse) {
                Some(Ok(k)) if k >= 1 => samples = k,
                _ => return fail("--samples needs an integer >= 1"),
            },
            "--bench-json" => match args.next() {
                Some(path) => bench_json = Some(path),
                None => return fail("--bench-json needs a path"),
            },
            "--bench-compare" => match args.next() {
                Some(path) => bench_compare = Some(path),
                None => return fail("--bench-compare needs a path"),
            },
            "--diag-json" => match args.next() {
                Some(path) => diag_json = Some(path),
                None => return fail("--diag-json needs a path"),
            },
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }
    // --samples exists to feed the timing summary; without --timings the
    // extra runs would be measured and thrown away.
    if samples > 1 {
        timings = true;
    }
    cfg.shards = shards;

    // The shard count only appears in the header when sharding is active,
    // so `--shards 1` output stays byte-identical to historical captures
    // (and the CI diffs strip the header line anyway).
    let sharding = if shards > 1 {
        format!(", shards: {shards}")
    } else {
        String::new()
    };
    println!(
        "linear-dft experiment harness (scale: {:?}, jobs: {jobs}{sharding})\n",
        cfg.scale
    );
    let start = Instant::now();
    let outcomes = match run_catalog(&cfg, jobs, samples) {
        Ok(outcomes) => outcomes,
        Err(error) => return fail(&error),
    };
    let total_wall = start.elapsed();
    // Flush buffered per-experiment diagnostics in canonical E1-E11 order,
    // so stderr is stable under any --jobs/--shards fan-out.
    for (_, outcome) in &outcomes {
        for line in &outcome.stderr {
            eprintln!("{line}");
        }
    }
    // Machine-readable escape hatch for the same diagnostics: one JSON
    // object per line, same canonical order as the stderr flush above.
    if let Some(path) = &diag_json {
        let mut out = String::new();
        for (id, outcome) in &outcomes {
            for line in &outcome.stderr {
                out.push_str(&dft_bench::diag::json_line(
                    "run_experiments",
                    "warn",
                    id,
                    line,
                ));
                out.push('\n');
            }
        }
        if let Err(error) = std::fs::write(path, out) {
            return fail(&format!("cannot write {path}: {error}"));
        }
    }
    for (id, outcome) in &outcomes {
        println!("{}", outcome.table.render());
        if timings {
            if outcome.summary.samples == 1 {
                println!("[time] {id}: {:.2}s\n", outcome.first.as_secs_f64());
            } else {
                println!("[time] {id}: {}\n", format_summary(&outcome.summary));
            }
            if let Some(alloc) = outcome.alloc_summary() {
                let per_round = alloc
                    .per_round
                    .map_or_else(|| "-".to_string(), |v| v.to_string());
                println!(
                    "[alloc] {id}: {} allocs, {} bytes, {per_round} allocs/round\n",
                    alloc.allocs, alloc.bytes,
                );
            }
            if let Some(activity) = outcome.activity.filter(|a| a.node_rounds > 0) {
                let active = activity.node_rounds;
                let per_message = outcome
                    .table
                    .column_sum("messages")
                    .filter(|&messages| messages > 0)
                    .map_or_else(
                        || "-".to_string(),
                        |messages| format!("{:.2}", active as f64 / messages as f64),
                    );
                // Single-port experiments also say how their planned polls
                // went: answered by the core, or handed a full port.
                let polls = if activity.answered_idle_polls + activity.full_ports > 0 {
                    format!(
                        ", {} idle polls answered, {} polled ports held messages",
                        activity.answered_idle_polls, activity.full_ports
                    )
                } else {
                    String::new()
                };
                println!(
                    "[active] {id}: {active} node-rounds called, {per_message} per message{polls}\n"
                );
            }
        }
    }

    // Where a sharded run's bytes went, per frame tag (coordinator side,
    // all experiments together).  Substrate counters: printed, never gated.
    let wire = dft_bench::wire_totals();
    let total = wire.total();
    if timings && total.frames > 0 {
        for (tag, count) in wire.tags() {
            println!(
                "[wire] {}: {} frames, {} bytes",
                dft_sim::shard::tag_name(tag),
                count.frames,
                count.bytes
            );
        }
        println!(
            "[wire] total: {} frames, {} bytes\n",
            total.frames, total.bytes
        );
    }
    // The whole run's peak resident set: printed, never gated.
    if let Some(peak) = baseline::peak_rss_mib().filter(|_| timings) {
        println!("[rss] peak {peak:.1} MiB\n");
    }

    let mut verdict = ExitCode::SUCCESS;
    for violation in outcomes.iter().flat_map(|(_, o)| &o.table.violations) {
        eprintln!("run_experiments: violation: {violation}");
        verdict = ExitCode::FAILURE;
    }
    if bench_json.is_none() && bench_compare.is_none() {
        return verdict;
    }
    let report = bench_report(&cfg, jobs, shards, samples, &outcomes, total_wall);
    if let Some(path) = bench_json {
        if let Err(error) = std::fs::write(&path, report.to_json()) {
            eprintln!("run_experiments: cannot write {path}: {error}");
            return ExitCode::from(2);
        }
        eprintln!("run_experiments: wrote perf baseline to {path}");
    }
    if let Some(path) = bench_compare {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("run_experiments: cannot read baseline {path}: {error}");
                return ExitCode::from(2);
            }
        };
        let committed = match BenchReport::parse(&text) {
            Ok(committed) => committed,
            Err(error) => {
                eprintln!("run_experiments: malformed baseline {path}: {error}");
                return ExitCode::from(2);
            }
        };
        match committed.regressions_in(&report, baseline::DEFAULT_REGRESSION_FACTOR) {
            Ok(regressions) if regressions.is_empty() => {
                eprintln!(
                    "run_experiments: no regressions > {:.1}x and no allocation count moved \
                     against {path} (rev {})",
                    baseline::DEFAULT_REGRESSION_FACTOR,
                    committed.config.git_rev,
                );
            }
            Ok(regressions) => {
                for line in &regressions {
                    eprintln!("run_experiments: regression: {line}");
                }
                return ExitCode::FAILURE;
            }
            Err(error) => {
                eprintln!("run_experiments: cannot compare against {path}: {error}");
                return ExitCode::from(2);
            }
        }
    }
    verdict
}
