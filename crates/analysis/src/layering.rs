//! Declarative crate-layering analysis.
//!
//! The workspace's architecture is a strict layering: pure sans-I/O
//! protocol layers (`core`, `overlay`, `auth`, the `sim` driver module)
//! sit below the I/O-owning backends (`sim`'s shard workers and transports),
//! which sit below the executables (`bench`, `node`).  The old
//! `sans-io-boundary` rule pinned one corner of this (no `std::{net, io,
//! thread}` in the driver and `core`); this module generalizes it into a
//! declared `LAYERS` map checked from `use`/path tokens:
//!
//! * every first-party path a file mentions must be its own crate or a
//!   declared import of the file's layer ([`RULE_LAYER`] otherwise), so
//!   `core` cannot quietly reach into `sim`'s partition or sockets;
//! * layers marked `io: false` keep the original sans-I/O check: no
//!   `std::net`, `std::io` or `std::thread` anywhere in them.
//!
//! Allow-list entries: a bare crate name (`"dft_sim"`) permits only the
//! crate root (re-exports); `"dft_sim::shard"` permits that module and
//! everything under it; `"dft_sim::*"` permits the whole crate.  A
//! layer's own crate is implicitly allowed unless the layer declares
//! entries for it (the driver module does, to pin which `sim` internals
//! the sans-I/O round logic may touch).

use crate::lexer::Token;
use crate::parser::{self, top_level_elements, Tree};
use crate::rules::RULE_SANS_IO;

/// A first-party import outside the file's declared layer.
pub const RULE_LAYER: &str = "layer-boundary";

/// First-party crate roots recognized in paths.
const FIRST_PARTY: [&str; 8] = [
    "dft_analysis",
    "dft_auth",
    "dft_baselines",
    "dft_bench",
    "dft_core",
    "dft_overlay",
    "dft_sim",
    "linear_dft",
];

/// One layer of the declared map.
struct Layer {
    /// Display name used in findings.
    name: &'static str,
    /// Root-relative path prefixes the layer owns (first match wins, so
    /// file-specific entries come before their crate's).
    prefixes: &'static [&'static str],
    /// First-party paths the layer may import (see module docs for the
    /// entry grammar).
    allow: &'static [&'static str],
    /// Whether the layer may touch `std::{net, io, thread}`.
    io: bool,
}

/// The declared layer map, most-specific prefixes first.
const LAYERS: &[Layer] = &[
    // The driver module is sans-I/O *inside* an I/O-owning crate, and the
    // only layer that restricts its own crate: round semantics may touch
    // the simulation vocabulary but not the shard/transport backends.
    Layer {
        name: "sim-driver",
        prefixes: &["crates/sim/src/driver.rs"],
        allow: &[
            "dft_sim",
            "dft_sim::adversary",
            "dft_sim::message",
            "dft_sim::node",
            "dft_sim::protocol",
            "dft_sim::round",
            "dft_sim::runner",
        ],
        io: false,
    },
    Layer {
        name: "core",
        prefixes: &["crates/core/"],
        allow: &[
            "dft_auth",
            "dft_auth::*",
            "dft_overlay",
            "dft_overlay::*",
            "dft_sim",
            "dft_sim::adversary",
            "dft_sim::shard",
        ],
        io: false,
    },
    Layer {
        name: "overlay",
        prefixes: &["crates/overlay/"],
        allow: &[],
        io: false,
    },
    Layer {
        name: "auth",
        prefixes: &["crates/auth/"],
        allow: &["dft_sim", "dft_sim::shard"],
        io: false,
    },
    Layer {
        name: "baselines",
        prefixes: &["crates/baselines/"],
        allow: &["dft_auth", "dft_auth::*", "dft_sim", "dft_sim::shard"],
        io: false,
    },
    Layer {
        name: "sim",
        prefixes: &["crates/sim/"],
        allow: &[],
        io: true,
    },
    Layer {
        name: "bench",
        prefixes: &["crates/bench/"],
        allow: &[
            // The workspace's one JSON reader, and nothing else of the
            // analyser.
            "dft_analysis::json",
            "dft_auth",
            "dft_auth::*",
            "dft_baselines",
            "dft_baselines::*",
            "dft_core",
            "dft_core::*",
            "dft_overlay",
            "dft_overlay::*",
            "dft_sim",
            "dft_sim::*",
        ],
        io: true,
    },
    Layer {
        name: "node",
        prefixes: &["crates/node/"],
        allow: &[
            "dft_baselines",
            "dft_baselines::*",
            "dft_bench",
            "dft_bench::*",
            "dft_core",
            "dft_core::*",
            "dft_sim",
            "dft_sim::*",
        ],
        io: true,
    },
    Layer {
        name: "analysis",
        prefixes: &["crates/analysis/"],
        allow: &[],
        io: true,
    },
    // The facade crate re-exports the first-party roots, nothing deeper.
    Layer {
        name: "facade",
        prefixes: &["src/"],
        allow: &[
            "dft_auth",
            "dft_baselines",
            "dft_core",
            "dft_overlay",
            "dft_sim",
        ],
        io: false,
    },
];

/// One layering diagnostic (line + rule + message); the caller turns
/// these into [`crate::findings::Finding`]s with test-region filtering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Site {
    /// 1-based line of the offending path.
    pub line: usize,
    /// [`RULE_LAYER`] or [`crate::rules::RULE_SANS_IO`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Checks one file's tokens against the layer map.
pub fn check(rel: &str, tokens: &[Token]) -> Vec<Site> {
    let trees = parser::parse(tokens);
    let Some(layer) = LAYERS
        .iter()
        .find(|l| l.prefixes.iter().any(|p| rel == *p || rel.starts_with(p)))
    else {
        return vec![Site {
            line: 1,
            rule: RULE_LAYER,
            message: "file is not covered by the declared layer map; add it to a layer \
                      in crates/analysis/src/layering.rs"
                .to_string(),
        }];
    };
    let own = own_root(rel);
    let own_restricted = layer
        .allow
        .iter()
        .any(|entry| *entry == own || entry.starts_with(&format!("{own}::")));
    let mut refs = Vec::new();
    collect_refs(&trees, &own, &mut refs);
    let mut sites = Vec::new();
    for (path, line) in refs {
        if allowed(&path, layer, &own, own_restricted) {
            continue;
        }
        sites.push(Site {
            line,
            rule: RULE_LAYER,
            message: format!(
                "`{path}` is not a declared dependency of the `{}` layer (layer map: \
                 crates/analysis/src/layering.rs)",
                layer.name
            ),
        });
    }
    if !layer.io {
        collect_std_io(&trees, &mut sites);
    }
    sites.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    sites.dedup();
    sites
}

/// The first-party root a file's `crate::` paths normalize to.
fn own_root(rel: &str) -> String {
    match rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
    {
        Some(name) => format!("dft_{}", name.replace('-', "_")),
        None => "linear_dft".to_string(),
    }
}

fn allowed(path: &str, layer: &Layer, own: &str, own_restricted: bool) -> bool {
    if !own_restricted && (path == own || path.starts_with(&format!("{own}::"))) {
        return true;
    }
    layer.allow.iter().any(|entry| {
        if let Some(base) = entry.strip_suffix("::*") {
            path == base || path.starts_with(&format!("{base}::"))
        } else if entry.contains("::") {
            path == *entry || path.starts_with(&format!("{entry}::"))
        } else {
            path == *entry
        }
    })
}

/// Collects every first-party path prefix the trees mention, as
/// `(normalized path, line)` — `use` declarations, qualified expression
/// paths, and use-groups alike.
fn collect_refs(trees: &[Tree], own: &str, out: &mut Vec<(String, usize)>) {
    let mut i = 0;
    while i < trees.len() {
        let after_path_sep = i > 0 && trees.get(i - 1).is_some_and(|t| t.is_punct(':'));
        if let Some(name) = trees.get(i).and_then(Tree::ident) {
            if !after_path_sep {
                let base = if name == "crate" {
                    Some(own.to_string())
                } else if FIRST_PARTY.contains(&name) {
                    Some(name.to_string())
                } else {
                    None
                };
                if let Some(base) = base {
                    i = follow(trees, i, &base, out);
                    continue;
                }
            }
        }
        if let Some(Tree::Group { trees: inner, .. }) = trees.get(i) {
            collect_refs(inner, own, out);
        }
        i += 1;
    }
}

/// Follows a path starting at the root identifier at `i`, recording the
/// deepest module prefix reached (type names end a path; use-groups fan
/// out per element).  Returns the index just past the consumed path.
fn follow(trees: &[Tree], i: usize, base: &str, out: &mut Vec<(String, usize)>) -> usize {
    let line = trees.get(i).map(Tree::line).unwrap_or(1);
    let mut prefix = base.to_string();
    let mut j = i;
    loop {
        if !(trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 2).is_some_and(|t| t.is_punct(':')))
        {
            break;
        }
        let Some(next) = trees.get(j + 3) else { break };
        if next.is_punct('*') {
            out.push((prefix, line));
            return j + 4;
        }
        if let Some(seg) = next.ident() {
            if seg.chars().next().is_some_and(char::is_uppercase) {
                break;
            }
            prefix = format!("{prefix}::{seg}");
            j += 3;
            continue;
        }
        if let Some(inner) = next.group('{') {
            for element in top_level_elements(inner) {
                match element.first() {
                    Some(e) if e.is_ident("self") || e.is_punct('*') => {
                        out.push((prefix.clone(), e.line()));
                    }
                    Some(e) => match e.ident() {
                        Some(seg) if !seg.chars().next().is_some_and(char::is_uppercase) => {
                            follow(element, 0, &format!("{prefix}::{seg}"), out);
                        }
                        _ => out.push((prefix.clone(), e.line())),
                    },
                    None => {}
                }
            }
            return j + 4;
        }
        break;
    }
    out.push((prefix, line));
    j + 1
}

/// The original sans-I/O check: no `std::{net, io, thread}` in layers
/// declared `io: false`.
fn collect_std_io(trees: &[Tree], out: &mut Vec<Site>) {
    let mut i = 0;
    while i < trees.len() {
        if trees.get(i).is_some_and(|t| t.is_ident("std"))
            && trees.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && trees.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(next) = trees.get(i + 3) {
                if let Some(seg) = next.ident() {
                    push_io_site(next.line(), seg, out);
                } else if let Some(inner) = next.group('{') {
                    for element in top_level_elements(inner) {
                        if let Some(e) = element.first() {
                            if let Some(seg) = e.ident() {
                                push_io_site(e.line(), seg, out);
                            }
                        }
                    }
                }
            }
        }
        if let Some(Tree::Group { trees: inner, .. }) = trees.get(i) {
            collect_std_io(inner, out);
        }
        i += 1;
    }
}

fn push_io_site(line: usize, seg: &str, out: &mut Vec<Site>) {
    if matches!(seg, "net" | "io" | "thread") {
        out.push(Site {
            line,
            rule: RULE_SANS_IO,
            message: format!(
                "`std::{seg}` in the sans-I/O layer; I/O and threading belong to the backends"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sites(rel: &str, src: &str) -> Vec<Site> {
        check(rel, &lex(src).tokens)
    }

    #[test]
    fn own_crate_is_implicitly_allowed() {
        let found = sites(
            "crates/overlay/src/build.rs",
            "use crate::params::degree;\nuse dft_overlay::graph::Graph;",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn core_may_not_import_sim_internals() {
        let found = sites(
            "crates/core/src/protocol.rs",
            "use dft_sim::shard::Wire;\nuse dft_sim::parallel::ChunkPlan;",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found.first().map(|s| s.line), Some(2));
        assert!(found
            .first()
            .is_some_and(|s| s.message.contains("dft_sim::parallel")));
    }

    #[test]
    fn use_groups_fan_out_per_element() {
        let found = sites(
            "crates/core/src/protocol.rs",
            "use dft_sim::{shard::frame, parallel::available_jobs, NodeId};",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found
            .first()
            .is_some_and(|s| s.message.contains("dft_sim::parallel::available_jobs")));
    }

    #[test]
    fn driver_layer_restricts_its_own_crate() {
        let found = sites(
            "crates/sim/src/driver.rs",
            "use crate::round::Round;\nuse crate::shard::ShardTransport;",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found
            .first()
            .is_some_and(|s| s.message.contains("dft_sim::shard")));
    }

    #[test]
    fn sans_io_check_survives_in_io_false_layers() {
        let found = sites(
            "crates/core/src/protocol.rs",
            "use std::io::Write;\nuse std::mem;\nuse std::{thread, fmt};",
        );
        let rules: Vec<&str> = found.iter().map(|s| s.rule).collect();
        assert_eq!(rules, vec![RULE_SANS_IO, RULE_SANS_IO], "{found:?}");
        let io_layer = sites("crates/sim/src/shard/mod.rs", "use std::thread;");
        assert!(io_layer.is_empty(), "{io_layer:?}");
    }

    #[test]
    fn uncovered_files_are_flagged() {
        let found = sites("weird/place.rs", "fn main() {}");
        assert_eq!(found.len(), 1);
        assert_eq!(found.first().map(|s| s.rule), Some(RULE_LAYER));
    }

    #[test]
    fn glob_imports_record_the_prefix() {
        let found = sites("crates/core/src/protocol.rs", "use dft_sim::parallel::*;");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found
            .first()
            .is_some_and(|s| s.message.contains("dft_sim::parallel")));
    }
}
