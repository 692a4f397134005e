//! End-to-end socket-cluster smoke test: the acceptance gate of the
//! sans-I/O refactor, run against the real binary.
//!
//! Spawns the launcher, which itself spawns 5 node processes on localhost,
//! injects 2 crashes from the seeded `RandomCrashes` schedule, and diffs
//! the cluster decision table against a serial in-process run.  The
//! launcher exits non-zero on any divergence, so this test is the
//! byte-identity check — CI's `cluster-smoke` job runs the same command.

#![expect(
    clippy::expect_used,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::process::Command;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One cluster at a time: the launcher derives its port range from the seed,
/// two of these tests share seed 7, and the test harness runs them on
/// parallel threads — two launchers that probe the same free range at the
/// same moment hand their nodes the same ports, and a node whose peers
/// lost that race gives up accepting after 10 s, naming the peers that
/// never connected, and fails the test.
fn one_cluster_at_a_time() -> MutexGuard<'static, ()> {
    static CLUSTER: Mutex<()> = Mutex::new(());
    // A failed test must not fail the others through the lock.
    CLUSTER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_cluster(extra: &[&str]) -> std::process::Output {
    let _alone = one_cluster_at_a_time();
    Command::new(env!("CARGO_BIN_EXE_dft-node"))
        .args(["--cluster", "5", "--t", "2", "--crashes", "2"])
        .args(extra)
        .output()
        .expect("spawn dft-node launcher")
}

#[test]
fn five_process_cluster_matches_serial_run() {
    let output = run_cluster(&["--seed", "7"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "launcher failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("cluster and serial decision tables are byte-identical"),
        "launcher did not report byte identity:\n{stdout}"
    );
    // The decision table itself is on stdout: every node row accounted for.
    for node in 0..5 {
        assert!(
            stdout
                .lines()
                .any(|line| line.starts_with(&node.to_string())),
            "missing row for node {node}:\n{stdout}"
        );
    }
}

/// The graceful-degradation gate: node 2's process is killed at the top of
/// round 3 — *without* the other nodes being told via the schedule — and
/// the survivors must suspect it through their links and still produce the
/// serial decision table byte for byte (the serial run models the kill as
/// one more scheduled crash with an empty delivery filter).
#[test]
fn killed_node_is_suspected_and_tables_stay_identical() {
    let _alone = one_cluster_at_a_time();
    let output = Command::new(env!("CARGO_BIN_EXE_dft-node"))
        .args(["--cluster", "5", "--t", "3", "--crashes", "2"])
        .args(["--seed", "7", "--kill", "2@3"])
        .output()
        .expect("spawn dft-node launcher");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "launcher failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("cluster and serial decision tables are byte-identical"),
        "launcher did not report byte identity:\n{stdout}"
    );
    assert!(
        stderr.contains("suspecting it"),
        "no survivor reported a suspicion:\n{stderr}"
    );
    assert!(
        stderr.contains("peer suspicion(s) recorded"),
        "launcher did not sum the suspicions:\n{stderr}"
    );
    // The victim's row shows the kill round as its crash round.
    let row: Vec<String> = stdout
        .lines()
        .find(|line| line.starts_with('2'))
        .expect("row for node 2")
        .split_whitespace()
        .map(str::to_string)
        .collect();
    assert_eq!(row[3], "3", "node 2 should be recorded crashed at round 3");
}

#[test]
fn written_cluster_and_serial_tables_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("dft_node_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let table = dir.join("cluster_table.txt");
    let serial = dir.join("serial_table.txt");
    let output = run_cluster(&[
        "--seed",
        "42",
        "--out",
        table.to_str().expect("utf-8 path"),
        "--serial-out",
        serial.to_str().expect("utf-8 path"),
    ]);
    assert!(
        output.status.success(),
        "launcher failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let cluster_table = std::fs::read_to_string(&table).expect("cluster table written");
    let serial_table = std::fs::read_to_string(&serial).expect("serial table written");
    assert_eq!(
        cluster_table, serial_table,
        "written tables must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}
