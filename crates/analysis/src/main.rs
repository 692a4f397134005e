//! `dft-analyze`: the CLI over [`dft_analysis`].
//!
//! ```text
//! dft-analyze [--root DIR] [--baseline PATH] [--ci] [--all]
//!             [--json PATH] [--update-baseline]
//! dft-analyze schema [--root DIR] [--schema PATH] [--ci] [--update]
//! ```
//!
//! * `--root DIR` — workspace to scan (default: current directory; CI runs
//!   from the checkout root);
//! * `--baseline PATH` — baseline file (default: `ANALYSIS_baseline.json`
//!   under the root; a missing file means an empty baseline);
//! * `--ci` — quiet on success, exit 1 on any unbaselined finding (the CI
//!   gate);
//! * `--all` — also list baselined findings (marked as such);
//! * `--json PATH` — additionally write every finding as one JSON object
//!   per line (the shared diagnostics idiom: `tool` / `level` / `message`
//!   keys, same shape as `run_experiments --diag-json`);
//! * `--update-baseline` — rewrite the baseline to cover exactly the
//!   current findings, preserving existing justifications and stamping
//!   `TODO: justify` on new entries for review.
//!
//! The `schema` subcommand runs the wire-schema ratchet: it takes the text
//! of every `wire_struct!` / `wire_enum!` declaration, lists the leaf
//! codecs, and compares the result against the committed
//! `WIRE_SCHEMA.json` (`--schema PATH` to override the location).  A
//! composite codec written by hand always fails; a content change at the
//! same `WIRE_VERSION` fails until the version is bumped;
//! `--update` regenerates the file after a bump (and refuses to paper
//! over an unbumped change).
//!
//! Exit codes: 0 clean, 1 unbaselined findings / schema drift, 2 usage or
//! I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use dft_analysis::schema::{compare, Schema, SchemaStatus};
use dft_analysis::{analyze, extract_schema, Baseline};

const USAGE: &str = "usage: dft-analyze [--root DIR] [--baseline PATH] [--ci] [--all] \
                     [--json PATH] [--update-baseline]\n       \
                     dft-analyze schema [--root DIR] [--schema PATH] [--ci] [--update]";

fn fail(message: &str) -> ExitCode {
    eprintln!("dft-analyze: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn schema_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut schema_path: Option<PathBuf> = None;
    let mut ci = false;
    let mut update = false;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return fail("--root needs a directory"),
            },
            "--schema" => match args.next() {
                Some(path) => schema_path = Some(PathBuf::from(path)),
                None => return fail("--schema needs a path"),
            },
            "--ci" => ci = true,
            "--update" => update = true,
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }
    let schema_path = schema_path.unwrap_or_else(|| root.join("WIRE_SCHEMA.json"));

    let extraction = match extract_schema(&root) {
        Ok(extraction) => extraction,
        Err(error) => return fail(&format!("cannot extract wire schema: {error}")),
    };
    // A hand-written composite codec fails regardless of the committed
    // file: it is outside the schema at any version.
    if !extraction.problems.is_empty() {
        for finding in &extraction.problems {
            println!("NEW {}", finding.render());
        }
        eprintln!(
            "dft-analyze: {} wire-schema problem(s); declare the types before ratcheting",
            extraction.problems.len()
        );
        return ExitCode::FAILURE;
    }

    if !schema_path.exists() {
        if update {
            return write_schema(&schema_path, &extraction.schema);
        }
        eprintln!(
            "dft-analyze: no committed schema at {}; run `dft-analyze schema --update`",
            schema_path.display()
        );
        return ExitCode::FAILURE;
    }
    let committed = match std::fs::read_to_string(&schema_path) {
        Ok(text) => match Schema::parse(&text) {
            Ok(schema) => schema,
            Err(error) => return fail(&format!("malformed {}: {error}", schema_path.display())),
        },
        Err(error) => return fail(&format!("cannot read {}: {error}", schema_path.display())),
    };

    match compare(&extraction.schema, &committed) {
        SchemaStatus::Match => {
            if update {
                // Re-render anyway: normalizes hand-edited formatting.
                return write_schema(&schema_path, &extraction.schema);
            }
            if !ci {
                println!(
                    "dft-analyze: wire schema clean — {} type(s) at wire version {}",
                    extraction.schema.types.len(),
                    version_label(extraction.schema.wire_version),
                );
            }
            ExitCode::SUCCESS
        }
        SchemaStatus::Stale {
            committed,
            extracted,
        } => {
            if update {
                return write_schema(&schema_path, &extraction.schema);
            }
            eprintln!(
                "dft-analyze: {} records wire version {} (a file in an older format reads as \
                 <none>) but the tree is at {}; run `dft-analyze schema --update` to \
                 regenerate it",
                schema_path.display(),
                version_label(committed),
                version_label(extracted),
            );
            ExitCode::FAILURE
        }
        SchemaStatus::Drift { details } => {
            for detail in &details {
                eprintln!("dft-analyze: schema drift: {detail}");
            }
            eprintln!(
                "dft-analyze: the wire schema changed without a WIRE_VERSION bump ({} \
                 difference(s) at version {}); bump WIRE_VERSION in \
                 crates/sim/src/shard/mod.rs, then run `dft-analyze schema --update`",
                details.len(),
                version_label(extraction.schema.wire_version),
            );
            // --update deliberately refuses here: regenerating the file
            // would hide an unversioned wire break.
            ExitCode::FAILURE
        }
    }
}

fn version_label(version: Option<u64>) -> String {
    match version {
        Some(v) => v.to_string(),
        None => "<none>".to_string(),
    }
}

fn write_schema(path: &PathBuf, schema: &Schema) -> ExitCode {
    if let Err(error) = std::fs::write(path, schema.to_json()) {
        return fail(&format!("cannot write {}: {error}", path.display()));
    }
    println!(
        "dft-analyze: wrote {} ({} type(s) at wire version {})",
        path.display(),
        schema.types.len(),
        version_label(schema.wire_version),
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().is_some_and(|a| a == "schema") {
        return schema_main(args.skip(1));
    }
    scan_main(args)
}

/// The main scan: run the analysis, diff it against (or rewrite) the
/// committed baseline, report, and exit 1 on new findings.
fn scan_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut ci = false;
    let mut all = false;
    let mut json_out: Option<PathBuf> = None;
    let mut update = false;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return fail("--root needs a directory"),
            },
            "--baseline" => match args.next() {
                Some(path) => baseline_path = Some(PathBuf::from(path)),
                None => return fail("--baseline needs a path"),
            },
            "--ci" => ci = true,
            "--all" => all = true,
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => return fail("--json needs a path"),
            },
            "--update-baseline" => update = true,
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("ANALYSIS_baseline.json"));

    let findings = match analyze(&root) {
        Ok(findings) => findings,
        Err(error) => return fail(&error),
    };
    let baseline = if baseline_path.exists() {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(error) => {
                return fail(&format!("cannot read {}: {error}", baseline_path.display()))
            }
        };
        match Baseline::parse(&text) {
            Ok(baseline) => baseline,
            Err(error) => {
                return fail(&format!(
                    "malformed baseline {}: {error}",
                    baseline_path.display()
                ))
            }
        }
    } else {
        if !ci && !update {
            eprintln!(
                "dft-analyze: no baseline at {} (treating as empty)",
                baseline_path.display()
            );
        }
        Baseline::default()
    };

    if update {
        let updated = baseline.updated(&findings);
        if let Err(error) = std::fs::write(&baseline_path, updated.to_json()) {
            return fail(&format!(
                "cannot write {}: {error}",
                baseline_path.display()
            ));
        }
        let todo = updated
            .entries
            .iter()
            .filter(|e| e.why.starts_with("TODO"))
            .count();
        println!(
            "dft-analyze: baseline {} updated: {} entries covering {} findings ({todo} TODO \
             justification{})",
            baseline_path.display(),
            updated.entries.len(),
            findings.len(),
            if todo == 1 { "" } else { "s" },
        );
        return ExitCode::SUCCESS;
    }

    let diff = baseline.diff(&findings);
    if let Some(path) = json_out {
        let mut out = String::new();
        for finding in &findings {
            let is_new = diff.new.iter().any(|f| std::ptr::eq(*f, finding));
            out.push_str(&finding.to_json(!is_new));
            out.push('\n');
        }
        if let Err(error) = std::fs::write(&path, out) {
            return fail(&format!("cannot write {}: {error}", path.display()));
        }
    }

    if all {
        for finding in &findings {
            let is_new = diff.new.iter().any(|f| std::ptr::eq(*f, finding));
            let marker = if is_new { "NEW " } else { "baselined " };
            println!("{marker}{}", finding.render());
        }
    } else {
        for finding in &diff.new {
            println!("NEW {}", finding.render());
        }
    }
    for (entry, matched) in &diff.stale {
        eprintln!(
            "dft-analyze: stale baseline entry: {} [{}] {:?} allows {} but only {matched} \
             found — run --update-baseline to tighten",
            entry.file, entry.rule, entry.snippet, entry.count,
        );
    }
    if diff.new.is_empty() {
        if !ci {
            println!(
                "dft-analyze: clean — {} finding(s), all baselined ({} stale allowance(s))",
                findings.len(),
                diff.stale.len(),
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dft-analyze: {} unbaselined finding(s); fix them or justify in {}",
            diff.new.len(),
            baseline_path.display(),
        );
        ExitCode::FAILURE
    }
}
