//! The `hot` pass: allocation sites reachable from the declared hot-entry
//! set (`dft-analyze hot`).
//!
//! The round cores run every simulated round, so a stray per-round
//! allocation there is pure steady-state churn — the kind of perf drift
//! `--bench-compare` only catches once it exceeds the 2× wall-clock gate.
//! This pass catches the class statically: it builds the workspace call
//! graph ([`crate::callgraph`]), marks everything reachable from
//! [`HOT_ENTRIES`] as hot, and flags the allocating constructs the ROADMAP
//! names (owned-container construction and cloning) inside hot functions.
//! Findings ratchet against `ALLOC_baseline.json` exactly like the main
//! scan's `ANALYSIS_baseline.json`.
//!
//! Two escape hatches, in preference order:
//!
//! 1. a `// hot-ok: <why>` comment on the site's line (or the line above)
//!    suppresses the finding at the source, keeping the justification next
//!    to the code;
//! 2. a baseline entry (via `dft-analyze hot --update-baseline`) records
//!    the justification centrally, for sites where a comment would repeat
//!    itself (e.g. a rule-wide `Arc` refcount-bump clone).
//!
//! Like every pass in this crate, the analysis is heuristic: no type
//! information means `.clone()` cannot distinguish an `Arc` bump from a
//! deep copy, and method-call resolution over-approximates (see
//! `callgraph`).  Over-approximation is the safe direction — a wrongly-hot
//! finding is triaged once, a wrongly-cold function hides regressions
//! forever.

use std::collections::BTreeMap;
use std::path::Path;

use crate::callgraph::{CallGraph, FnNode};
use crate::findings::{normalize_snippet, sort_findings, Finding};
use crate::lexer::{lex, Lexed};
use crate::parser::{fn_items, parse, Tree};
use crate::regions::test_regions;
use crate::walk::{self, FileKind};

/// Owned-container construction in a hot function (`Vec::new`, `vec![…]`,
/// `with_capacity`, `Box::new`, `String::from`, `format!`, `.to_vec()`,
/// `.collect()`).
pub const RULE_HOT_ALLOC: &str = "hot-alloc";
/// `.clone()` in a hot function (no type info: `Arc` refcount bumps must be
/// suppressed or baselined with that justification).
pub const RULE_HOT_CLONE: &str = "hot-clone";

/// The declared hot-entry set: the phase bodies both round engines drive
/// every round, delivery batching, rumor-set merging, the signature
/// chain-verify loop (the ROADMAP's "hot trio" wall) and the two functions
/// `AB-Consensus` was measured to spend its time in.  Matched against the
/// inventory by `(self type, method)` name, so the fixture trees can
/// exercise the pass by declaring the same shapes.
pub const HOT_ENTRIES: &[(Option<&str>, &str)] = &[
    // dft_sim::driver::RoundCore — the multi-port phase bodies.
    (Some("RoundCore"), "begin_round"),
    (Some("RoundCore"), "deliver"),
    (Some("RoundCore"), "finalize"),
    // dft_sim::driver::SinglePortCore — the single-port intent/poll paths.
    (Some("SinglePortCore"), "begin_round"),
    (Some("SinglePortCore"), "take_send"),
    (Some("SinglePortCore"), "set_drained"),
    (Some("SinglePortCore"), "finalize"),
    // dft_sim::delivery — crash-phase filtering and port-queue batching.
    (Some("EngineCore"), "apply_crash_phase"),
    (Some("EngineCore"), "finish_round"),
    (Some("PortMap"), "push"),
    (Some("PortMap"), "drain"),
    // dft_core::values::ExtantSet — rumor-set merging (E6/E7 wall).
    (Some("ExtantSet"), "merge"),
    (Some("ExtantSet"), "update"),
    // dft_auth — the Dolev–Strong chain-verify loop (5 % of E8).
    (Some("SignedValue"), "verify_chain"),
    (Some("SignedValue"), "verify_chain_with_length"),
    // dft_core::ab_consensus — the measured E8 wall: checking a common set
    // (70 % before its verdict was remembered) and merging endorsements
    // (22 % before the signer bitsets).
    (Some("CommonSet"), "verify"),
    (Some("AbConsensus"), "merge_endorsements"),
];

/// A lexed file retained for snippet and suppression lookup.
struct HotFile {
    rel: String,
    lines: Vec<String>,
    lexed: Lexed,
}

/// Analyzes every scannable file under `root` and returns the hot-path
/// allocation findings, sorted by `(file, line, rule)`.
///
/// # Errors
///
/// Returns a message for filesystem failures (unreadable tree or file).
pub fn analyze_hot(root: &Path) -> Result<Vec<Finding>, String> {
    let files = walk::discover(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    let mut prepared = Vec::new();
    let mut nodes = Vec::new();
    for file in files {
        if file.kind == FileKind::Test {
            continue;
        }
        let bytes = std::fs::read(&file.path)
            .map_err(|e| format!("cannot read {}: {e}", file.path.display()))?;
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let lexed = lex(&source);
        let regions = test_regions(&lexed.tokens);
        let trees = parse(&lexed.tokens);
        for item in fn_items(&trees, &|line| regions.contains(line)) {
            nodes.push(FnNode {
                file: file.rel.clone(),
                item,
            });
        }
        prepared.push(HotFile {
            rel: file.rel.clone(),
            lines: source.lines().map(str::to_string).collect(),
            lexed,
        });
    }
    let by_rel: BTreeMap<&str, &HotFile> = prepared.iter().map(|p| (p.rel.as_str(), p)).collect();

    let graph = CallGraph::build(nodes);
    let hot_from = graph.mark_hot(HOT_ENTRIES);

    let mut findings = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(entry) = &hot_from[i] else { continue };
        let Some(file) = by_rel.get(node.file.as_str()) else {
            continue;
        };
        let mut sites = Vec::new();
        alloc_sites(&node.item.body, &mut sites);
        for site in sites {
            if hot_ok(file, site.line) {
                continue;
            }
            findings.push(Finding {
                file: file.rel.clone(),
                line: site.line,
                rule: site.rule,
                message: format!(
                    "{} in hot fn `{}` (reachable from {entry})",
                    site.what,
                    node.label(),
                ),
                snippet: normalize_snippet(
                    file.lines
                        .get(site.line.saturating_sub(1))
                        .map_or("", |l| l),
                ),
            });
        }
    }
    sort_findings(&mut findings);
    Ok(findings)
}

/// One allocation site inside a function body.
struct Site {
    line: usize,
    rule: &'static str,
    what: String,
}

/// Qualified constructors that always allocate an owned container.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Box", "new"),
    ("String", "from"),
    ("String", "new"),
];

/// Collects the allocating constructs in the trees, recursing into groups.
fn alloc_sites(trees: &[Tree], out: &mut Vec<Site>) {
    for (i, tree) in trees.iter().enumerate() {
        if let Tree::Group { trees: inner, .. } = tree {
            alloc_sites(inner, out);
            continue;
        }
        let Some(name) = tree.ident() else { continue };
        let line = tree.line();
        // Allocating macros: `vec![…]`, `format!(…)`.
        if matches!(name, "vec" | "format")
            && matches!(trees.get(i + 1), Some(t) if t.is_punct('!'))
            && matches!(trees.get(i + 2), Some(Tree::Group { .. }))
        {
            out.push(Site {
                line,
                rule: RULE_HOT_ALLOC,
                what: format!("{name}!"),
            });
            continue;
        }
        if !matches!(trees.get(i + 1), Some(t) if t.group('(').is_some()) {
            continue;
        }
        // Method-call allocators: `.to_vec()`, `.collect()`, `.clone()`.
        if i > 0 && trees[i - 1].is_punct('.') {
            match name {
                "to_vec" | "collect" => out.push(Site {
                    line,
                    rule: RULE_HOT_ALLOC,
                    what: format!(".{name}()"),
                }),
                "clone" => out.push(Site {
                    line,
                    rule: RULE_HOT_CLONE,
                    what: ".clone()".to_string(),
                }),
                _ => {}
            }
            continue;
        }
        // Qualified constructors: `Vec::new(…)`, `X::with_capacity(…)`.
        if i >= 2 && trees[i - 1].is_punct(':') && trees[i - 2].is_punct(':') {
            let seg = trees.get(i.wrapping_sub(3)).and_then(Tree::ident);
            if name == "with_capacity" {
                let seg = seg.unwrap_or("?");
                out.push(Site {
                    line,
                    rule: RULE_HOT_ALLOC,
                    what: format!("{seg}::with_capacity"),
                });
            } else if let Some(seg) = seg {
                if ALLOC_PATHS.contains(&(seg, name)) {
                    out.push(Site {
                        line,
                        rule: RULE_HOT_ALLOC,
                        what: format!("{seg}::{name}"),
                    });
                }
            }
        }
    }
}

/// Whether the site's line (or the one above) carries a `// hot-ok: <why>`
/// suppression with actual prose after the tag — a bare `// hot-ok:` is not
/// a justification, mirroring the `#[allow]` audit.
fn hot_ok(file: &HotFile, line: usize) -> bool {
    [line, line.saturating_sub(1)].iter().any(|l| {
        file.lexed.comments.get(l).is_some_and(|text| {
            text.split("hot-ok:").nth(1).is_some_and(|why| {
                why.split(|c: char| !c.is_alphabetic())
                    .any(|word| word.len() >= 3)
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites_of(src: &str) -> Vec<(usize, &'static str, String)> {
        let lexed = lex(src);
        let trees = parse(&lexed.tokens);
        let mut out = Vec::new();
        alloc_sites(&trees, &mut out);
        out.into_iter().map(|s| (s.line, s.rule, s.what)).collect()
    }

    #[test]
    fn alloc_sites_cover_the_declared_constructs() {
        let found = sites_of(
            "let a = Vec::new();\n\
             let b = vec![1, 2];\n\
             let c = HashMap::with_capacity(8);\n\
             let d = Box::new(a);\n\
             let e = String::from(\"x\");\n\
             let f = format!(\"{e}\");\n\
             let g = xs.to_vec();\n\
             let h: Vec<u8> = ys.iter().collect();\n\
             let i = arc.clone();",
        );
        let whats: Vec<&str> = found.iter().map(|(_, _, w)| w.as_str()).collect();
        assert_eq!(
            whats,
            vec![
                "Vec::new",
                "vec!",
                "HashMap::with_capacity",
                "Box::new",
                "String::from",
                "format!",
                ".to_vec()",
                ".collect()",
                ".clone()",
            ]
        );
        assert!(found[..8].iter().all(|(_, r, _)| *r == RULE_HOT_ALLOC));
        assert_eq!(found[8].1, RULE_HOT_CLONE);
    }

    #[test]
    fn non_allocating_shapes_stay_quiet() {
        let found = sites_of(
            "let a = xs.iter().sum();\n\
             let b = NodeId::new(3); // constructor of a Copy wrapper\n\
             xs.clear();\n\
             let v = Vec::len(&xs);",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn hot_ok_requires_prose_after_the_tag() {
        let with_prose = HotFile {
            rel: "x.rs".into(),
            lines: Vec::new(),
            lexed: lex("let a = Vec::new(); // hot-ok: filled once at startup"),
        };
        assert!(hot_ok(&with_prose, 1));
        assert!(hot_ok(&with_prose, 2), "line above also counts");
        let bare = HotFile {
            rel: "x.rs".into(),
            lines: Vec::new(),
            lexed: lex("let a = Vec::new(); // hot-ok:"),
        };
        assert!(!hot_ok(&bare, 1));
        let unrelated = HotFile {
            rel: "x.rs".into(),
            lines: Vec::new(),
            lexed: lex("let a = Vec::new(); // some other comment"),
        };
        assert!(!hot_ok(&unrelated, 1));
    }
}
