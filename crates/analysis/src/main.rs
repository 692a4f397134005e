//! `dft-analyze`: the CLI over [`dft_analysis`].
//!
//! ```text
//! dft-analyze schema [--root DIR] [--schema PATH] [--ci] [--update]
//! ```
//!
//! The one subcommand runs the wire-schema ratchet: it takes the text of
//! every `wire_struct!` / `wire_enum!` declaration, lists the leaf codecs,
//! and compares the result against the committed `WIRE_SCHEMA.json`.
//!
//! * `--root DIR` — workspace to scan (default: current directory; CI runs
//!   from the checkout root);
//! * `--schema PATH` — the committed file (default: `WIRE_SCHEMA.json`
//!   under the root);
//! * `--ci` — quiet on success;
//! * `--update` — regenerate the file after a `WIRE_VERSION` bump (it
//!   refuses to paper over an unbumped change).
//!
//! A composite codec written by hand, or a wire type no test names, always
//! fails; a content change at the same `WIRE_VERSION` fails until the
//! version is bumped.
//!
//! Exit codes: 0 clean, 1 wire-schema problems or drift, 2 usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use dft_analysis::extract_schema;
use dft_analysis::schema::{compare, Schema, SchemaStatus};

const USAGE: &str = "usage: dft-analyze schema [--root DIR] [--schema PATH] [--ci] [--update]";

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
    // A hand-written composite codec or an untested wire type fails
    // regardless of the committed file: neither has an exception.
    if !extraction.problems.is_empty() {
        for finding in &extraction.problems {
            println!("{}", finding.render());
        }
        eprintln!(
            "dft-analyze: {} wire-schema problem(s); declare and test the types before ratcheting",
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
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("schema") => schema_main(args),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown argument {other:?}")),
        None => fail("a subcommand is required"),
    }
}
