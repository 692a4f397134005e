//! Workspace discovery: which `.rs` files to scan, and as what.
//!
//! The walk is recursive with sorted directory entries, so the file order —
//! and therefore finding order — is deterministic.  `vendor/` and `target/`
//! are third-party/generated and skipped outright; `fixtures/` trees are
//! the analyzer's own seeded-violation corpora and must never leak into a
//! real scan.
//!
//! Classification is path-based:
//! * files under a `tests/` directory, or named `tests.rs` (the
//!   `#[cfg(test)] mod tests;` out-of-line idiom), are **test** files —
//!   they declare no wire type, and their identifiers are the evidence
//!   that a wire type is tested;
//! * files under `benches/` or `examples/` are neither library code nor
//!   test evidence and are skipped;
//! * everything else, binaries included, is **library** code.

use std::io;
use std::path::{Path, PathBuf};

/// How a discovered file participates in the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library or binary code: may declare wire types.
    Lib,
    /// Test code: declares nothing; names the wire types that are tested.
    Test,
}

/// One file to scan.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Root-relative path with forward slashes, for reporting.
    pub rel: String,
    /// Participation.
    pub kind: FileKind,
}

const SKIP_DIRS: &[&str] = &[
    "vendor", "target", ".git", "fixtures", "benches", "examples",
];

/// Discovers every scannable `.rs` file under `root`, deterministically
/// ordered.
///
/// # Errors
///
/// Propagates filesystem errors (an unreadable tree must fail the run, not
/// silently shrink it).
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk_dir(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                kind: classify(&rel),
                path,
                rel,
            });
        }
    }
    Ok(())
}

fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    let name = parts.last().copied().unwrap_or_default();
    if parts.contains(&"tests") || name == "tests.rs" {
        FileKind::Test
    } else {
        FileKind::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/sim/src/runner.rs"), FileKind::Lib);
        assert_eq!(classify("crates/sim/src/shard/tests.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/tests/cli_usage.rs"), FileKind::Test);
        assert_eq!(classify("tests/facade_smoke.rs"), FileKind::Test);
        assert_eq!(
            classify("crates/bench/src/bin/run_experiments.rs"),
            FileKind::Lib
        );
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    }
}
