//! Machine-readable perf baselines (`BENCH_<scale>.json`).
//!
//! `run_experiments --bench-json PATH` serialises one [`BenchReport`] per
//! harness run: the sweep configuration (n, t, scale, jobs, seed, git
//! revision), per-experiment wall-clock timings (first sample plus the
//! IQR-trimmed summary when `--samples K > 1`) and the message/bit totals
//! read out of each experiment's table.  The committed `BENCH_quick.json`
//! and `BENCH_paper.json` are the first points of the repo's perf
//! trajectory; CI regenerates them on every run and fails when an
//! experiment regresses more than [`DEFAULT_REGRESSION_FACTOR`]× against
//! the committed baseline (`--bench-compare`).
//!
//! The build has no registry access and so no JSON crate: the JSON is
//! written and read by this module itself.  The emitter prints one key per line; the
//! reader only promises to parse what the emitter writes (plus arbitrary
//! whitespace), which is all a self-produced baseline format needs.

use std::fmt::Write as _;

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
    /// older baselines).  Diagnostic only — never part of the regression
    /// gate.
    pub allocs: Option<u64>,
    /// Bytes requested by those allocations.
    pub alloc_bytes: Option<u64>,
    /// Allocations of the last sample divided by the table's total round
    /// count: the steady-state allocations-per-round signal the hot-path
    /// ratchet (`dft-analyze hot`) exists to drive down.
    pub allocs_per_round: Option<u64>,
}

/// A full baseline: configuration plus per-experiment measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Configuration of the capturing run.
    pub config: BenchConfig,
    /// Per-experiment measurements, in canonical E1–E11 order.
    pub experiments: Vec<ExperimentBench>,
    /// What the run did about peers that failed: zero for `run_experiments`
    /// (nothing there is recovered from) and absent in baselines captured
    /// before the block existed (parsed as zero).  Not part of the
    /// regression gate — it describes the run's fault history, not its
    /// performance.
    pub recovery: RecoveryTotals,
    /// Wall time of the whole harness run, seconds.
    pub total_wall_s: f64,
}

/// Run-wide recovery counters surfaced in `--bench-json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryTotals {
    /// Cluster peers marked suspected by `dft-node` runs feeding this
    /// report (always zero for `run_experiments`).
    pub suspected_peers: u64,
}

fn json_opt(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

impl BenchReport {
    /// Renders the report as JSON (one key per line; stable layout — the
    /// parser below and any external tooling may rely on it).
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
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                },
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"recovery\": {{ \"suspected_peers\": {} }},",
            self.recovery.suspected_peers,
        );
        let _ = writeln!(out, "  \"total_wall_s\": {:.6}", self.total_wall_s);
        out.push_str("}\n");
        out
    }

    /// Parses a report produced by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let mut report = BenchReport::default();
        let mut in_experiments = false;
        for raw in text.lines() {
            let line = raw.trim();
            if line.starts_with("\"experiments\"") {
                in_experiments = true;
                continue;
            }
            if in_experiments && line.starts_with('{') {
                report.experiments.push(parse_experiment(line)?);
                continue;
            }
            if line.starts_with(']') {
                in_experiments = false;
                continue;
            }
            if let Some(value) = field(line, "scale") {
                report.config.scale = unquote(value)?;
            } else if let Some(value) = field(line, "n") {
                report.config.n = parse_opt(value)?;
            } else if let Some(value) = field(line, "t") {
                report.config.t = parse_opt(value)?;
            } else if let Some(value) = field(line, "seed") {
                report.config.seed = parse_opt(value)?;
            } else if let Some(value) = field(line, "jobs") {
                report.config.jobs = parse_num(value)?;
            } else if let Some(value) = field(line, "shards") {
                report.config.shards = parse_num(value)?;
            } else if let Some(value) = field(line, "samples") {
                report.config.samples = parse_num(value)?;
            } else if let Some(value) = field(line, "git_rev") {
                report.config.git_rev = unquote(value)?;
            } else if let Some(value) = field(line, "recovery") {
                report.recovery = parse_recovery(value)?;
            } else if let Some(value) = field(line, "total_wall_s") {
                report.total_wall_s = parse_float(value)?;
            }
        }
        if report.config.scale.is_empty() {
            return Err("missing config.scale".to_string());
        }
        Ok(report)
    }

    /// Compares `current` against this baseline: every experiment whose
    /// trimmed-mean wall time exceeds `factor ×` the baseline's is reported
    /// as a regression line.
    ///
    /// # Errors
    ///
    /// Returns an error when the two reports were captured under different
    /// workloads (scale / n / t / seed) — comparing those wall times would
    /// be meaningless — **or when their experiment sets differ**: a run
    /// that drops an experiment present in the baseline (or a baseline
    /// missing a newly added one) is a broken wiring, not a pass.
    /// Comparing only the intersection used to let a silently-skipped
    /// experiment sail through the perf gate.
    pub fn regressions_in(
        &self,
        current: &BenchReport,
        factor: f64,
    ) -> Result<Vec<String>, String> {
        let same_workload = self.config.scale == current.config.scale
            && self.config.n == current.config.n
            && self.config.t == current.config.t
            && self.config.seed == current.config.seed;
        if !same_workload {
            return Err(format!(
                "baseline workload (scale {}, n {:?}, t {:?}, seed {:?}) does not match the \
                 current run (scale {}, n {:?}, t {:?}, seed {:?})",
                self.config.scale,
                self.config.n,
                self.config.t,
                self.config.seed,
                current.config.scale,
                current.config.n,
                current.config.t,
                current.config.seed,
            ));
        }
        let baseline_ids: Vec<&str> = self.experiments.iter().map(|e| e.id.as_str()).collect();
        let current_ids: Vec<&str> = current.experiments.iter().map(|e| e.id.as_str()).collect();
        let dropped: Vec<&str> = baseline_ids
            .iter()
            .filter(|id| !current_ids.contains(id))
            .copied()
            .collect();
        let unexpected: Vec<&str> = current_ids
            .iter()
            .filter(|id| !baseline_ids.contains(id))
            .copied()
            .collect();
        if !dropped.is_empty() || !unexpected.is_empty() {
            let mut parts = Vec::new();
            if !dropped.is_empty() {
                parts.push(format!(
                    "the current run is missing baseline experiment(s) {}",
                    dropped.join(", ")
                ));
            }
            if !unexpected.is_empty() {
                parts.push(format!(
                    "the baseline has no entry for experiment(s) {} — recapture it",
                    unexpected.join(", ")
                ));
            }
            return Err(parts.join("; "));
        }
        let mut regressions = Vec::new();
        for base in &self.experiments {
            let now = current
                .experiments
                .iter()
                .find(|e| e.id == base.id)
                .expect("experiment sets verified equal");
            if base.trimmed_mean_s < GATE_FLOOR_S {
                continue;
            }
            if now.trimmed_mean_s > factor * base.trimmed_mean_s {
                regressions.push(format!(
                    "{}: {:.3}s vs baseline {:.3}s (> {factor:.1}x)",
                    base.id, now.trimmed_mean_s, base.trimmed_mean_s,
                ));
            }
        }
        Ok(regressions)
    }
}

/// Extracts the raw value of `"key": value[,]` from a line, if it is one.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(&format!("\"{key}\":"))?;
    Some(rest.trim().trim_end_matches(','))
}

fn unquote(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected quoted string, got {value:?}"))
}

fn parse_num(value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("expected integer, got {value:?}"))
}

fn parse_float(value: &str) -> Result<f64, String> {
    value
        .parse()
        .map_err(|_| format!("expected number, got {value:?}"))
}

fn parse_opt(value: &str) -> Result<Option<u64>, String> {
    if value == "null" {
        Ok(None)
    } else {
        parse_num(value).map(Some)
    }
}

/// Parses the one-line `{ "suspected_peers": 0 }` recovery object; keys it
/// does not know (older files carry the retired shard-recovery counters)
/// are skipped.
fn parse_recovery(value: &str) -> Result<RecoveryTotals, String> {
    let body = value.trim_start_matches('{').trim_end_matches('}');
    let mut totals = RecoveryTotals::default();
    for part in body.split(", ") {
        if let Some(value) = field(part.trim(), "suspected_peers") {
            totals.suspected_peers = parse_num(value)?;
        }
    }
    Ok(totals)
}

/// Parses one `{ "id": "E1", ... }` experiment line.
fn parse_experiment(line: &str) -> Result<ExperimentBench, String> {
    let body = line
        .trim_start_matches('{')
        .trim_end_matches(',')
        .trim_end_matches('}');
    let mut exp = ExperimentBench::default();
    for part in body.split(", ") {
        let part = part.trim().trim_matches(|c| c == '{' || c == '}').trim();
        if let Some(value) = field(part, "id") {
            exp.id = unquote(value)?;
        } else if let Some(value) = field(part, "wall_s") {
            exp.wall_s = parse_float(value)?;
        } else if let Some(value) = field(part, "trimmed_mean_s") {
            exp.trimmed_mean_s = parse_float(value)?;
        } else if let Some(value) = field(part, "min_s") {
            exp.min_s = parse_float(value)?;
        } else if let Some(value) = field(part, "max_s") {
            exp.max_s = parse_float(value)?;
        } else if let Some(value) = field(part, "messages") {
            exp.messages = parse_opt(value)?;
        } else if let Some(value) = field(part, "bits") {
            exp.bits = parse_opt(value)?;
        } else if let Some(value) = field(part, "allocs") {
            exp.allocs = parse_opt(value)?;
        } else if let Some(value) = field(part, "alloc_bytes") {
            exp.alloc_bytes = parse_opt(value)?;
        } else if let Some(value) = field(part, "allocs_per_round") {
            exp.allocs_per_round = parse_opt(value)?;
        }
        // Unknown keys fall through untouched: older binaries reading newer
        // baselines (and vice versa) must keep parsing.
    }
    if exp.id.is_empty() {
        return Err(format!("experiment entry without id: {line:?}"));
    }
    Ok(exp)
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
                    messages: None,
                    bits: None,
                    allocs: None,
                    alloc_bytes: None,
                    allocs_per_round: None,
                },
            ],
            recovery: RecoveryTotals::default(),
            total_wall_s: 0.25,
        }
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
        assert!(baseline
            .regressions_in(&current, DEFAULT_REGRESSION_FACTOR)
            .unwrap()
            .is_empty());
        // 2.1x: regression.
        current.experiments[0].trimmed_mean_s = 0.120 * 2.1;
        let regressions = baseline
            .regressions_in(&current, DEFAULT_REGRESSION_FACTOR)
            .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("E1:"));
    }

    #[test]
    fn regression_gate_ignores_below_floor_noise() {
        let mut baseline = sample();
        baseline.experiments[1].trimmed_mean_s = GATE_FLOOR_S * 0.9;
        let mut current = sample();
        current.experiments[1].trimmed_mean_s = 0.9; // 100x but meaningless
        assert!(baseline
            .regressions_in(&current, DEFAULT_REGRESSION_FACTOR)
            .unwrap()
            .is_empty());
        // At the floor the gate engages.
        baseline.experiments[1].trimmed_mean_s = GATE_FLOOR_S;
        assert_eq!(
            baseline
                .regressions_in(&current, DEFAULT_REGRESSION_FACTOR)
                .unwrap()
                .len(),
            1
        );
    }

    /// Regression test for the intersection bug: a current run that
    /// *drops* a baseline experiment (or adds one the baseline has never
    /// seen) must fail the comparison with a clear message — it used to
    /// pass silently because only the intersection was compared.
    #[test]
    fn regression_gate_rejects_mismatched_experiment_sets() {
        let baseline = sample();
        // Current run dropped E11 entirely (e.g. a broken catalogue).
        let mut current = sample();
        current.experiments.retain(|e| e.id != "E11");
        let err = baseline
            .regressions_in(&current, DEFAULT_REGRESSION_FACTOR)
            .unwrap_err();
        assert!(err.contains("missing baseline experiment(s) E11"), "{err}");
        // Current run grew an experiment the committed baseline predates.
        let mut current = sample();
        current.experiments.push(ExperimentBench {
            id: "E12".to_string(),
            ..ExperimentBench::default()
        });
        let err = baseline
            .regressions_in(&current, DEFAULT_REGRESSION_FACTOR)
            .unwrap_err();
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
    fn recovery_totals_round_trip_and_default_for_old_baselines() {
        let mut report = sample();
        report.recovery = RecoveryTotals { suspected_peers: 2 };
        let json = report.to_json();
        assert!(json.contains("\"recovery\": { \"suspected_peers\": 2 },"));
        let parsed = BenchReport::parse(&json).unwrap();
        assert_eq!(parsed.recovery, report.recovery);
        // A file written while the shard-recovery counters existed still
        // loads: the three retired keys are skipped.
        let older = json.replace(
            "{ \"suspected_peers\"",
            "{ \"respawns\": 3, \"fallbacks\": 1, \"replayed_rounds\": 42, \"suspected_peers\"",
        );
        assert_ne!(older, json);
        let parsed = BenchReport::parse(&older).unwrap();
        assert_eq!(parsed.recovery, report.recovery);
        // A baseline captured before the recovery layer has no such line.
        let legacy = json
            .lines()
            .filter(|line| !line.contains("\"recovery\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = BenchReport::parse(&legacy).unwrap();
        assert_eq!(parsed.recovery, RecoveryTotals::default());
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
    }

    #[test]
    fn regression_gate_rejects_mismatched_workloads() {
        let baseline = sample();
        let mut current = sample();
        current.config.n = Some(4000);
        assert!(baseline
            .regressions_in(&current, DEFAULT_REGRESSION_FACTOR)
            .is_err());
    }

    #[test]
    fn git_revision_is_nonempty() {
        assert!(!git_revision().is_empty());
    }
}
