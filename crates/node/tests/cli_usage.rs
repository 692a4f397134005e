//! CLI argument-validation regression tests for `dft-node`.
//!
//! Mirrors the `run_experiments` suite: every malformed invocation must be
//! a usage error (exit code 2, `usage:` line on stderr, nothing on stdout)
//! — never a panic, a silent default, or a node process blocking on a mesh
//! handshake that can never complete.

#![expect(
    clippy::expect_used,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dft-node"))
        .args(args)
        .output()
        .expect("spawn dft-node")
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
        stderr.contains("usage: dft-node"),
        "{args:?} stderr missing usage line: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{args:?} printed output despite the usage error"
    );
}

#[test]
fn missing_or_conflicting_modes_are_usage_errors() {
    assert_usage_error(&[]);
    assert_usage_error(&["--cluster", "5", "--me", "0"]);
    assert_usage_error(&["--frobnicate"]);
    // `--bench-json` is `run_experiments`'s flag; the launcher has none.
    assert_usage_error(&["--cluster", "5", "--bench-json", "out.json"]);
    assert_usage_error(&["--seed", "abc", "--cluster", "5"]);
}

#[test]
fn bad_addresses_are_usage_errors() {
    // An unparseable peer address must fail before any socket is touched —
    // otherwise the node would sit in the connect-retry loop for seconds.
    assert_usage_error(&["--me", "0", "--peers", "not-an-address,127.0.0.1:9001"]);
    assert_usage_error(&["--me", "0", "--peers", "127.0.0.1:9001,127.0.0.1"]);
    assert_usage_error(&["--me", "0", "--peers", "127.0.0.1:9001,127.0.0.1:hi"]);
}

#[test]
fn zero_or_too_few_peers_are_usage_errors() {
    assert_usage_error(&["--me", "0", "--peers", ""]);
    assert_usage_error(&["--me", "0", "--peers", "127.0.0.1:9001"]);
    assert_usage_error(&["--me", "0"]);
}

#[test]
fn out_of_range_ids_and_budgets_are_usage_errors() {
    assert_usage_error(&["--me", "2", "--peers", "127.0.0.1:9001,127.0.0.1:9002"]);
    assert_usage_error(&[
        "--me",
        "0",
        "--peers",
        "127.0.0.1:9001,127.0.0.1:9002",
        "--t",
        "2",
    ]);
    assert_usage_error(&["--cluster", "0"]);
    assert_usage_error(&["--cluster", "1"]);
    assert_usage_error(&["--cluster", "5", "--t", "5"]);
    assert_usage_error(&["--cluster", "5", "--t", "2", "--crashes", "3"]);
    assert_usage_error(&[
        "--me",
        "0",
        "--peers",
        "127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003",
        "--t",
        "1",
        "--crashes",
        "2",
    ]);
}

#[test]
fn malformed_kill_specs_are_usage_errors() {
    // Shape errors: missing value, missing '@', non-numeric parts.
    assert_usage_error(&["--cluster", "5", "--t", "3", "--kill"]);
    assert_usage_error(&["--cluster", "5", "--t", "3", "--kill", "2"]);
    assert_usage_error(&["--cluster", "5", "--t", "3", "--kill", "x@3"]);
    assert_usage_error(&["--cluster", "5", "--t", "3", "--kill", "2@x"]);
    // Range and budget errors: node out of range, round past the horizon,
    // no crash budget left for the kill (crashes + 1 > t).
    assert_usage_error(&["--cluster", "5", "--t", "3", "--kill", "5@3"]);
    assert_usage_error(&["--cluster", "5", "--t", "3", "--kill", "2@999"]);
    assert_usage_error(&[
        "--cluster",
        "5",
        "--t",
        "2",
        "--crashes",
        "2",
        "--kill",
        "2@3",
    ]);
    // Mode mix-ups: --kill is launcher-only, --die-at is node-only.
    assert_usage_error(&[
        "--me",
        "0",
        "--peers",
        "127.0.0.1:9001,127.0.0.1:9002",
        "--kill",
        "1@2",
    ]);
    assert_usage_error(&["--cluster", "5", "--t", "3", "--die-at", "2"]);
}

#[test]
fn missing_values_are_usage_errors() {
    assert_usage_error(&["--cluster"]);
    assert_usage_error(&["--cluster", "5", "--seed"]);
    assert_usage_error(&["--cluster", "5", "--out"]);
    assert_usage_error(&["--me", "0", "--peers"]);
}
