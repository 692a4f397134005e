//! Machine-readable perf baselines (`BENCH_<scale>.json`).
//!
//! `run_experiments --bench-json PATH` serialises one [`BenchReport`] per
//! harness run: the sweep configuration (n, t, scale, jobs, seed, git
//! revision), per-experiment wall-clock timings (first sample plus the
//! IQR-trimmed summary when `--samples K > 1`) and the message/bit totals
//! read out of each experiment's table.  CI reruns the committed
//! `BENCH_quick.json` / `BENCH_paper.json` workloads and fails when an
//! experiment regresses more than [`DEFAULT_REGRESSION_FACTOR`]× against
//! them, or allocates a different number of times (`--bench-compare`).
//!
//! The build has no registry access and so no JSON crate: the emitter
//! below prints a stable layout by hand, and the reader is the harness's
//! JSON parser (`crate::json`), so any layout of the same document parses
//! to the same report.

use std::fmt::Write as _;

use crate::json::{self, Json};

/// Default regression gate: fail CI when an experiment's wall time grows
/// beyond this factor of the committed baseline.  Wall clocks on shared CI
/// runners are noisy; 2× is the agreed noise budget.
pub const DEFAULT_REGRESSION_FACTOR: f64 = 2.0;

/// Baselines below this are never gated: tens-of-milliseconds wall times
/// compare a dev capture against different CI hardware, where scheduler
/// noise alone exceeds the regression factor.  The experiments worth
/// gating (the quick tier's heavy ones, everything at paper scale) all
/// sit comfortably above it.
pub const GATE_FLOOR_S: f64 = 0.01;

/// The harness configuration a baseline was captured under.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchConfig {
    /// Scale tier (`quick`, `full` or `paper`).
    pub scale: String,
    /// `--n` override, if any.
    pub n: Option<u64>,
    /// `--t` override, if any.
    pub t: Option<u64>,
    /// `--seed` override, if any.
    pub seed: Option<u64>,
    /// `--jobs` as requested on the command line.
    pub jobs: u64,
    /// `--shards` as requested on the command line (0 in baselines captured
    /// before the sharding layer existed; 1 means "this process only").
    pub shards: u64,
    /// Timed samples per experiment.
    pub samples: u64,
    /// Git revision the binary was built from (`unknown` outside a repo).
    pub git_rev: String,
}

/// One experiment's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExperimentBench {
    /// Experiment id (`E1` … `E11`).
    pub id: String,
    /// Wall time of the first sample, seconds.
    pub wall_s: f64,
    /// IQR-trimmed mean over all samples, seconds (= `wall_s` for one
    /// sample).
    pub trimmed_mean_s: f64,
    /// Fastest sample, seconds.
    pub min_s: f64,
    /// Slowest sample, seconds.
    pub max_s: f64,
    /// Messages reported by the experiment's table (summed over rows), if
    /// the table has a `messages` column.
    pub messages: Option<u64>,
    /// Bits reported by the experiment's table, if it has a `bits` column.
    pub bits: Option<u64>,
    /// Heap allocations during the experiment's first sample (`--jobs 1`
    /// runs only, where a delta can be attributed; absent otherwise and in
    /// older baselines).  Gated exactly where the table has no rounds
    /// column to divide by.
    pub allocs: Option<u64>,
    /// Bytes requested by those allocations.
    pub alloc_bytes: Option<u64>,
    /// Allocations of the last sample divided by the table's total round
    /// count: the steady-state allocations-per-round signal.  The same
    /// binary on the same workload reproduces it to the unit, so
    /// [`BenchReport::regressions_in`] gates it exactly.
    pub allocs_per_round: Option<u64>,
}

/// A full baseline: configuration plus per-experiment measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Configuration of the capturing run.
    pub config: BenchConfig,
    /// Per-experiment measurements, in canonical E1–E11 order.
    pub experiments: Vec<ExperimentBench>,
    /// Wall time of the whole harness run, seconds.
    pub total_wall_s: f64,
    /// The process's peak resident set at the end of the run, MiB (see
    /// [`peak_rss_mib`]); `None` where that is unreadable and in older
    /// baselines.  Recorded, never gated: it depends on the allocator and
    /// the kernel as much as on the code.
    pub peak_rss_mib: Option<f64>,
}

/// This process's peak resident set so far, MiB: `VmHWM` from
/// `/proc/self/status`, or `None` where that is unreadable (not Linux, no
/// `/proc`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib as f64 / 1024.0)
}

fn json_opt(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

impl BenchReport {
    /// Renders the report as JSON (one config key and one experiment per
    /// line; a stable layout, so a recapture diffs line by line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": 1,\n  \"config\": {\n");
        let _ = writeln!(out, "    \"scale\": \"{}\",", self.config.scale);
        let _ = writeln!(out, "    \"n\": {},", json_opt(self.config.n));
        let _ = writeln!(out, "    \"t\": {},", json_opt(self.config.t));
        let _ = writeln!(out, "    \"seed\": {},", json_opt(self.config.seed));
        let _ = writeln!(out, "    \"jobs\": {},", self.config.jobs);
        let _ = writeln!(out, "    \"shards\": {},", self.config.shards);
        let _ = writeln!(out, "    \"samples\": {},", self.config.samples);
        let _ = writeln!(out, "    \"git_rev\": \"{}\"", self.config.git_rev);
        out.push_str("  },\n  \"experiments\": [\n");
        let last = self.experiments.len().saturating_sub(1);
        for (i, exp) in self.experiments.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"id\": \"{}\", \"wall_s\": {:.6}, \"trimmed_mean_s\": {:.6}, \
                 \"min_s\": {:.6}, \"max_s\": {:.6}, \"messages\": {}, \"bits\": {}, \
                 \"allocs\": {}, \"alloc_bytes\": {}, \"allocs_per_round\": {} }}{}",
                exp.id,
                exp.wall_s,
                exp.trimmed_mean_s,
                exp.min_s,
                exp.max_s,
                json_opt(exp.messages),
                json_opt(exp.bits),
                json_opt(exp.allocs),
                json_opt(exp.alloc_bytes),
                json_opt(exp.allocs_per_round),
                if i < last { "," } else { "" },
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"total_wall_s\": {:.6},", self.total_wall_s);
        let peak = self.peak_rss_mib;
        let peak = peak.map_or_else(|| "null".to_string(), |mib| format!("{mib:.1}"));
        let _ = writeln!(out, "  \"peak_rss_mib\": {peak}");
        out.push_str("}\n");
        out
    }

    /// Parses a report written by [`BenchReport::to_json`], in any layout.
    /// Unknown keys are ignored and absent ones take their defaults, so
    /// older and newer baselines keep parsing.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let config = root.get("config").ok_or("missing config")?;
        let experiments = root.get("experiments").and_then(Json::as_arr);
        let report = BenchReport {
            config: BenchConfig {
                scale: string(config, "scale"),
                n: int(config, "n")?,
                t: int(config, "t")?,
                seed: int(config, "seed")?,
                jobs: int(config, "jobs")?.unwrap_or(0),
                shards: int(config, "shards")?.unwrap_or(0),
                samples: int(config, "samples")?.unwrap_or(0),
                git_rev: string(config, "git_rev"),
            },
            experiments: experiments
                .unwrap_or(&[])
                .iter()
                .map(|exp| {
                    Ok(ExperimentBench {
                        id: string(exp, "id"),
                        wall_s: num(exp, "wall_s")?.unwrap_or(0.0),
                        trimmed_mean_s: num(exp, "trimmed_mean_s")?.unwrap_or(0.0),
                        min_s: num(exp, "min_s")?.unwrap_or(0.0),
                        max_s: num(exp, "max_s")?.unwrap_or(0.0),
                        messages: int(exp, "messages")?,
                        bits: int(exp, "bits")?,
                        allocs: int(exp, "allocs")?,
                        alloc_bytes: int(exp, "alloc_bytes")?,
                        allocs_per_round: int(exp, "allocs_per_round")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            total_wall_s: num(&root, "total_wall_s")?.unwrap_or(0.0),
            peak_rss_mib: num(&root, "peak_rss_mib")?,
        };
        if report.config.scale.is_empty() {
            return Err("missing config.scale".to_string());
        }
        if report.experiments.iter().any(|exp| exp.id.is_empty()) {
            return Err("experiment entry without id".to_string());
        }
        Ok(report)
    }

    /// Compares `current` against this baseline.  Reported as regression
    /// lines: every experiment whose trimmed-mean wall time exceeds
    /// `factor ×` the baseline's, and every experiment whose allocations
    /// per round (its allocations, where the table has no rounds column)
    /// differ from the baseline's **at all**, in either direction.  The
    /// counts have no tolerance because they have no noise: one binary on
    /// one workload allocates the same number of times on every run.  A
    /// baseline without counts (an older capture) skips that half.
    ///
    /// # Errors
    ///
    /// Returns an error when the two reports were captured under different
    /// workloads (scale / n / t / seed / shards), when the baseline carries
    /// allocation counts and the run has none (they are only taken at
    /// `--jobs 1`), **or when their experiment sets differ**: a run that
    /// drops a baseline experiment, or a baseline missing a newly added
    /// one, is a broken wiring, not a pass.
    pub fn regressions_in(
        &self,
        current: &BenchReport,
        factor: f64,
    ) -> Result<Vec<String>, String> {
        let workload = |c: &BenchConfig| {
            format!(
                "scale {}, n {:?}, t {:?}, seed {:?}, shards {}",
                c.scale, c.n, c.t, c.seed, c.shards
            )
        };
        let (base, now) = (workload(&self.config), workload(&current.config));
        if base != now {
            return Err(format!(
                "baseline workload ({base}) does not match the current run ({now})"
            ));
        }
        // The ids of `a`'s experiments that `b` lacks.
        let only_in = |a: &BenchReport, b: &BenchReport| -> Vec<String> {
            let ids = a.experiments.iter().map(|e| e.id.clone());
            ids.filter(|id| b.experiments.iter().all(|e| e.id != *id))
                .collect()
        };
        let mut parts = Vec::new();
        let dropped = only_in(self, current);
        if !dropped.is_empty() {
            parts.push(format!(
                "the current run is missing baseline experiment(s) {}",
                dropped.join(", ")
            ));
        }
        let unexpected = only_in(current, self);
        if !unexpected.is_empty() {
            parts.push(format!(
                "the baseline has no entry for experiment(s) {} — recapture it",
                unexpected.join(", ")
            ));
        }
        if !parts.is_empty() {
            return Err(parts.join("; "));
        }
        let mut regressions = Vec::new();
        for base in &self.experiments {
            // `only_in` above refused any id without a partner.
            let Some(now) = current.experiments.iter().find(|e| e.id == base.id) else {
                continue;
            };
            let (unit, was, is) = match base.allocs_per_round {
                Some(_) => ("allocs/round", base.allocs_per_round, now.allocs_per_round),
                None => ("allocs", base.allocs, now.allocs),
            };
            match (was, is) {
                (Some(was), Some(is)) if was != is => regressions.push(format!(
                    "{}: {is} {unit} vs baseline {was} — the count is exact: find what \
                     changed the allocations, or recapture the baseline if the change is meant",
                    base.id,
                )),
                (Some(_), None) => {
                    return Err(format!(
                        "the baseline has allocation counts for {} and the current run has \
                         none — they are only taken at --jobs 1",
                        base.id,
                    ))
                }
                _ => {}
            }
            let gated = base.trimmed_mean_s >= GATE_FLOOR_S;
            if gated && now.trimmed_mean_s > factor * base.trimmed_mean_s {
                regressions.push(format!(
                    "{}: {:.3}s vs baseline {:.3}s (> {factor:.1}x)",
                    base.id, now.trimmed_mean_s, base.trimmed_mean_s,
                ));
            }
        }
        Ok(regressions)
    }
}

/// `obj[key]` as a string; empty when absent.
fn string(obj: &Json, key: &str) -> String {
    let value = obj.get(key).and_then(Json::as_str);
    value.unwrap_or_default().to_string()
}

/// `obj[key]` as a number; `None` when absent or `null`.
fn num(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => match value.as_f64() {
            Some(n) => Ok(Some(n)),
            None => Err(format!("`{key}`: expected a number, got {value:?}")),
        },
    }
}

/// `obj[key]` as a non-negative integer.  The parser holds numbers as
/// `f64`, which stops holding every integer at 2^53: from there on the text
/// may have been rounded on the way in, and a count that may be off by one
/// is an error here, not a value.
fn int(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;
    match num(obj, key)? {
        Some(n) if n < 0.0 || n.fract() != 0.0 || n >= EXACT_BELOW => {
            Err(format!("`{key}`: expected an integer below 2^53, got {n}"))
        }
        n => Ok(n.map(|n| n as u64)),
    }
}

/// The git revision of the working tree, or `unknown`.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            config: BenchConfig {
                scale: "quick".to_string(),
                n: None,
                t: Some(4),
                seed: None,
                jobs: 4,
                shards: 1,
                samples: 3,
                git_rev: "abc1234".to_string(),
            },
            experiments: vec![
                ExperimentBench {
                    id: "E1".to_string(),
                    wall_s: 0.125,
                    trimmed_mean_s: 0.120,
                    min_s: 0.110,
                    max_s: 0.140,
                    messages: Some(123_456),
                    bits: Some(789_000),
                    allocs: Some(10_000),
                    alloc_bytes: Some(640_000),
                    allocs_per_round: Some(12),
                },
                ExperimentBench {
                    id: "E11".to_string(),
                    wall_s: 0.015,
                    trimmed_mean_s: 0.015,
                    min_s: 0.015,
                    max_s: 0.015,
                    ..ExperimentBench::default()
                },
            ],
            total_wall_s: 0.25,
            peak_rss_mib: Some(35.5),
        }
    }

    fn gate(baseline: &BenchReport, current: &BenchReport) -> Result<Vec<String>, String> {
        baseline.regressions_in(current, DEFAULT_REGRESSION_FACTOR)
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let json = report.to_json();
        let parsed = BenchReport::parse(&json).expect("parse own output");
        assert_eq!(parsed, report);
        // Spot-check the serialised form external tooling sees.
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"git_rev\": \"abc1234\""));
        assert!(json.contains("\"messages\": 123456"));
        assert!(json.contains("\"messages\": null"));
        assert!(json.contains("\"peak_rss_mib\": 35.5"));
    }

    /// The peak is recorded, absent where unreadable or in an older
    /// baseline, and never gated.
    #[test]
    fn peak_rss_is_optional_and_ungated() {
        let report = sample();
        let unread = BenchReport {
            peak_rss_mib: None,
            ..report.clone()
        };
        let json = unread.to_json();
        assert!(json.contains("\"peak_rss_mib\": null"));
        assert_eq!(BenchReport::parse(&json).unwrap(), unread);
        let legacy = json.replace(",\n  \"peak_rss_mib\": null", "");
        assert!(!legacy.contains("peak_rss"));
        assert_eq!(BenchReport::parse(&legacy).unwrap(), unread);
        let mut swollen = report.clone();
        swollen.peak_rss_mib = Some(10_000.0);
        assert_eq!(gate(&report, &swollen), Ok(Vec::new()));
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{}").is_err());
    }

    #[test]
    fn regression_gate_fires_beyond_factor() {
        let baseline = sample();
        let mut current = sample();
        // 1.9x: within the 2x budget.
        current.experiments[0].trimmed_mean_s = 0.120 * 1.9;
        assert!(gate(&baseline, &current).unwrap().is_empty());
        // 2.1x: regression.
        current.experiments[0].trimmed_mean_s = 0.120 * 2.1;
        let regressions = gate(&baseline, &current).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("E1:"));
    }

    #[test]
    fn regression_gate_ignores_below_floor_noise() {
        let mut baseline = sample();
        baseline.experiments[1].trimmed_mean_s = GATE_FLOOR_S * 0.9;
        let mut current = sample();
        current.experiments[1].trimmed_mean_s = 0.9; // 100x but meaningless
        assert!(gate(&baseline, &current).unwrap().is_empty());
        // At the floor the gate engages.
        baseline.experiments[1].trimmed_mean_s = GATE_FLOOR_S;
        assert_eq!(gate(&baseline, &current).unwrap().len(), 1);
    }

    /// A current run that *drops* a baseline experiment (or adds one the
    /// baseline has never seen) must fail the comparison with a clear
    /// message, not pass on the intersection.
    #[test]
    fn regression_gate_rejects_mismatched_experiment_sets() {
        let baseline = sample();
        // Current run dropped E11 entirely (e.g. a broken catalogue).
        let mut current = sample();
        current.experiments.retain(|e| e.id != "E11");
        let err = gate(&baseline, &current).unwrap_err();
        assert!(err.contains("missing baseline experiment(s) E11"), "{err}");
        // Current run grew an experiment the committed baseline predates.
        let mut current = sample();
        current.experiments.push(ExperimentBench {
            id: "E12".to_string(),
            ..ExperimentBench::default()
        });
        let err = gate(&baseline, &current).unwrap_err();
        assert!(err.contains("no entry for experiment(s) E12"), "{err}");
        assert!(err.contains("recapture"), "{err}");
    }

    #[test]
    fn shards_round_trips_and_defaults_to_zero_for_old_baselines() {
        let mut report = sample();
        report.config.shards = 2;
        let parsed = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.config.shards, 2);
        // A baseline captured before the sharding layer has no shards line.
        let legacy = report
            .to_json()
            .lines()
            .filter(|line| !line.contains("\"shards\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = BenchReport::parse(&legacy).unwrap();
        assert_eq!(parsed.config.shards, 0, "absent field defaults");
    }

    #[test]
    fn alloc_stats_round_trip_and_default_for_old_baselines() {
        let report = sample();
        let json = report.to_json();
        assert!(json.contains("\"allocs\": 10000"));
        assert!(json.contains("\"allocs_per_round\": 12"));
        let parsed = BenchReport::parse(&json).unwrap();
        assert_eq!(parsed.experiments[0].allocs, Some(10_000));
        assert_eq!(parsed.experiments[1].allocs, None, "null parses as absent");
        // A baseline captured before allocations were counted has no alloc
        // keys at all; everything else must still parse and the alloc
        // fields come back empty.
        let legacy = json
            .replace(
                ", \"allocs\": 10000, \"alloc_bytes\": 640000, \"allocs_per_round\": 12",
                "",
            )
            .replace(
                ", \"allocs\": null, \"alloc_bytes\": null, \"allocs_per_round\": null",
                "",
            );
        assert!(!legacy.contains("alloc"));
        let parsed = BenchReport::parse(&legacy).unwrap();
        assert_eq!(parsed.experiments[0].allocs, None);
        assert_eq!(parsed.experiments[0].messages, Some(123_456));
        assert_eq!(parsed.experiments[0].wall_s, 0.125);
        // … and the allocation half of the gate is skipped for it.
        let mut current = report.clone();
        current.experiments[0].allocs_per_round = Some(13);
        assert_eq!(gate(&parsed, &current), Ok(Vec::new()));
    }

    /// The counts are exact, so one allocation per round more *or fewer*
    /// is reported, with both numbers; E11's table has no rounds column, so
    /// its total is what is compared (E1's total moves too, and is not).
    #[test]
    fn allocation_gate_is_exact_in_both_directions() {
        let mut baseline = sample();
        baseline.experiments[1].allocs = Some(2_171);
        assert_eq!(gate(&baseline, &baseline), Ok(Vec::new()));
        for (exp, per_round, allocs, line) in [
            (0, Some(13), 1, "E1: 13 allocs/round vs baseline 12"),
            (0, Some(11), 1, "E1: 11 allocs/round vs baseline 12"),
            (1, None, 2_172, "E11: 2172 allocs vs baseline 2171"),
        ] {
            let mut current = baseline.clone();
            current.experiments[exp].allocs_per_round = per_round;
            current.experiments[exp].allocs = Some(allocs);
            let regressions = gate(&baseline, &current).unwrap();
            assert_eq!(regressions.len(), 1, "{regressions:?}");
            assert!(regressions[0].starts_with(line), "{regressions:?}");
            assert!(regressions[0].contains("recapture"), "{regressions:?}");
        }
    }

    /// A `--jobs 4` run has no counts; against a baseline that has them
    /// that is a comparison that cannot be made, not a pass.
    #[test]
    fn allocation_gate_rejects_a_run_without_counts() {
        let baseline = sample();
        let mut current = sample();
        for exp in &mut current.experiments {
            (exp.allocs, exp.alloc_bytes, exp.allocs_per_round) = (None, None, None);
        }
        let err = gate(&baseline, &current).unwrap_err();
        assert!(err.contains("E1") && err.contains("--jobs 1"), "{err}");
    }

    /// The one layout the line scanner read is not the only one: the
    /// committed quick baseline, one key per line, is the same report.
    #[test]
    fn committed_baseline_parses_in_any_layout() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quick.json");
        let committed = std::fs::read_to_string(path).expect("read BENCH_quick.json");
        let report = BenchReport::parse(&committed).unwrap();
        assert_eq!(report.experiments.len(), 11);
        assert_eq!(report.experiments[4].allocs_per_round, Some(8));
        let pretty = committed
            .replace("{ ", "{\n")
            .replace(" }", "\n}")
            .replace(", ", ",\n");
        assert!(pretty.lines().count() > 100, "one key per line");
        assert_eq!(BenchReport::parse(&pretty).unwrap(), report);
        assert_eq!(report.to_json(), committed, "the emitter's own layout");
        // An integer the parser's `f64` cannot hold exactly is refused.
        let e1_allocs = report.experiments[0].allocs.expect("captured at --jobs 1");
        let huge = committed.replace(
            &format!("\"allocs\": {e1_allocs},"),
            "\"allocs\": 9007199254740993,",
        );
        assert!(BenchReport::parse(&huge).unwrap_err().contains("allocs"));
    }

    #[test]
    fn regression_gate_rejects_mismatched_workloads() {
        let baseline = sample();
        let mut current = sample();
        current.config.n = Some(4000);
        assert!(gate(&baseline, &current).is_err());
        // A sharded run allocates for its workers and its frames: not the
        // serial baseline's workload.
        let mut current = sample();
        current.config.shards = 2;
        let err = gate(&baseline, &current).unwrap_err();
        assert!(
            err.contains("shards 1") && err.contains("shards 2"),
            "{err}"
        );
    }

    #[test]
    fn git_revision_is_nonempty() {
        assert!(!git_revision().is_empty());
    }
}
