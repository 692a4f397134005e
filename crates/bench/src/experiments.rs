//! One function per experiment id (see `DESIGN.md`, per-experiment index).
//!
//! Every function returns a [`Table`] whose rows are measured executions; the
//! `run_experiments` binary prints them, and `EXPERIMENTS.md` records one
//! captured run next to the paper's claims.
//!
//! Experiments are parameterised by a [`SweepConfig`]: a [`Scale`] tier
//! picking the default size sweep, plus optional `--n` / `--t` / `--seed`
//! overrides wired through the `run_experiments` CLI.  At [`Scale::Paper`]
//! the quadratic baselines (flooding, all-to-all, naive checkpointing,
//! parallel Dolev–Strong) are skipped: they are Θ(n²·t) by construction and
//! exist to show the crossover at small `n`, not to be run at `n = 10^3`.

use dft_overlay::{build, properties, spectral};

use crate::{
    measure_ab_consensus, measure_aea, measure_all_to_all_gossip, measure_checkpointing,
    measure_few_crashes, measure_flooding, measure_gossip, measure_linear_consensus,
    measure_many_crashes, measure_naive_checkpointing, measure_parallel_ds, measure_scv, must,
    Measurement, Table, Workload,
};
use dft_sim::Violation;

/// The scale of an experiment sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for CI (seconds).
    #[default]
    Quick,
    /// The sizes used for `EXPERIMENTS.md` (minutes).
    Full,
    /// Paper-scale sizes, n = 10^3–10^4 (the slow CI job; quadratic
    /// baselines are skipped at this tier).
    Paper,
}

impl Scale {
    /// Parses a CLI scale name (`quick`, `full` or `paper`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    fn consensus_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![60, 120],
            Scale::Full => vec![128, 256, 512, 1024],
            Scale::Paper => vec![1000, 2000],
        }
    }

    fn heavy_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![50, 100],
            Scale::Full => vec![128, 256, 512],
            Scale::Paper => vec![1000],
        }
    }

    fn overlay_cases(self) -> Vec<(usize, usize)> {
        match self {
            Scale::Quick => vec![(200, 8), (400, 12)],
            Scale::Full => vec![(512, 8), (1024, 12), (2048, 16)],
            Scale::Paper => vec![(4096, 16), (8192, 16)],
        }
    }
}

/// Sweep parameters for one experiment run: the scale tier plus the optional
/// `--n` / `--t` / `--seed` CLI overrides.
///
/// With `n` set, every experiment runs at exactly that system size instead of
/// the tier's sweep; with `t` set, per-experiment fault-bound formulas and
/// fraction sweeps collapse to that single value (clamped to `[1, n-1]`);
/// with `seed` set, it replaces each experiment's fixed base seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepConfig {
    /// Scale tier supplying the default sweeps (`Quick` by default).
    pub scale: Scale,
    /// Override: run every experiment at exactly this system size.
    pub n: Option<usize>,
    /// Override: use exactly this fault bound instead of the per-experiment
    /// formulas.
    pub t: Option<usize>,
    /// Override: replace each experiment's fixed base seed.
    pub seed: Option<u64>,
    /// In-process shard workers behind the wire codec each measurement is
    /// partitioned across (`0` and `1` both mean "no sharding"; see
    /// `dft_sim::shard`).  Tables stay byte-identical at any setting.
    pub shards: usize,
}

impl SweepConfig {
    /// A configuration with no overrides at the given scale.
    pub fn new(scale: Scale) -> Self {
        SweepConfig {
            scale,
            ..Self::default()
        }
    }

    /// Whether the quadratic baselines run at this tier.
    pub fn include_baselines(&self) -> bool {
        self.scale != Scale::Paper
    }

    fn consensus_sizes(&self) -> Vec<usize> {
        self.n
            .map_or_else(|| self.scale.consensus_sizes(), |n| vec![n])
    }

    fn heavy_sizes(&self) -> Vec<usize> {
        self.n.map_or_else(|| self.scale.heavy_sizes(), |n| vec![n])
    }

    fn overlay_cases(&self) -> Vec<(usize, usize)> {
        self.n.map_or_else(
            || self.scale.overlay_cases(),
            // Degree capped so the regular-graph construction stays
            // realisable (`d + 1 < n`) at small overridden sizes.
            |n| vec![(n, 12.min(n.saturating_sub(2)).max(2))],
        )
    }

    /// Resolved shard count (`0` is normalised to 1).
    pub fn shards(&self) -> usize {
        self.shards.max(1)
    }

    /// The fault bound for size `n`: the override if set, otherwise the
    /// experiment's own `default`.  The override is clamped into
    /// `[1, bound - 1]`, where `bound` is the experiment's *exclusive*
    /// validity limit (`n/5` for the crash algorithms, `n/2` for
    /// authenticated Byzantine, `n` for many-crashes), so a `--t` chosen for
    /// one experiment cannot push another outside its configuration range.
    /// A clamp is reported on stderr so a paper-tier run cannot silently
    /// mislabel its parameters.
    fn t_or(&self, default: usize, bound: usize) -> usize {
        self.t.map_or(default, |t| self.clamp_t(t, bound))
    }

    /// A sweep of fault bounds, collapsed to the (clamped) override when
    /// `--t` was given.  `bound` is exclusive, as in [`SweepConfig::t_or`].
    fn t_sweep(&self, defaults: Vec<usize>, bound: usize) -> Vec<usize> {
        match self.t {
            Some(t) => vec![self.clamp_t(t, bound)],
            None => defaults,
        }
    }

    /// Clamps a `--t` override into an experiment's validity range, warning
    /// on stderr whenever the requested value was actually changed.
    fn clamp_t(&self, t: usize, bound: usize) -> usize {
        let clamped = t.clamp(1, bound.saturating_sub(1).max(1));
        if clamped != t {
            // Routed through the buffered sink so `--jobs`/`--shards`
            // fan-out cannot interleave warnings from different
            // experiments; the harness flushes them in E1-E11 order.
            crate::diag::warn(format!(
                "run_experiments: warning: --t {t} is outside an experiment's validity \
                 range (t < {bound}); using t = {clamped} for that experiment"
            ));
        }
        clamped
    }

    /// The seed for an experiment with fixed base seed `default`.
    fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

impl From<Scale> for SweepConfig {
    fn from(scale: Scale) -> Self {
        SweepConfig::new(scale)
    }
}

/// The `all_decided` and `agreement` cells, rendered from the verdict:
/// each reads `no` only when the run broke that condition first.
fn verdict_cells(m: &Measurement) -> [String; 2] {
    let holds = |broken: bool| if broken { "no" } else { "yes" }.to_string();
    let undecided = matches!(
        m.verdict,
        Err(Violation::Termination(..) | Violation::Quorum(..))
    );
    let split = matches!(m.verdict, Err(Violation::Agreement(..)));
    [holds(undecided), holds(split)]
}

fn fmt_measurement(m: &Measurement) -> Vec<String> {
    let mut cells = vec![
        m.rounds.to_string(),
        m.messages.to_string(),
        m.bits.to_string(),
    ];
    cells.extend(verdict_cells(m));
    cells
}

/// E1 — Table 1: the ranges of `t` for which time `O(t)` and communication
/// `O(n)` hold simultaneously; measured as messages-per-node at the claimed
/// boundary `t` for each problem.
pub fn experiment_table1(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E1 table1_optimality",
        "Table 1: consensus linear up to t=O(n/log n); gossip/checkpointing up to t=O(n/log^2 n); authenticated Byzantine up to t=O(sqrt n)",
        &["problem", "n", "t", "rounds", "messages", "msgs/node"],
    );
    for &n in &cfg.consensus_sizes() {
        let log_n = (n as f64).log2();
        let cases = [
            ("consensus", (n as f64 / log_n) as usize, 0usize),
            ("gossip", (n as f64 / (log_n * log_n)) as usize, 1),
            ("checkpointing", (n as f64 / (log_n * log_n)) as usize, 2),
            ("ab-consensus", (n as f64).sqrt() as usize, 3),
        ];
        for (problem, t_raw, kind) in cases {
            let cap = (n / 5).saturating_sub(1).max(1);
            let bound = if kind == 3 { n / 2 } else { n / 5 };
            let t = cfg.t_or(t_raw.clamp(1, cap), bound);
            let seed = cfg.seed_or(7);
            let w = Workload::full_budget(n, t, seed).with_shards(cfg.shards());
            let m = match kind {
                0 => measure_few_crashes(&w),
                1 => measure_gossip(&w),
                2 => measure_checkpointing(&w),
                _ => measure_ab_consensus(
                    &Workload::fault_free(n, t, seed).with_shards(cfg.shards()),
                ),
            };
            let row = vec![
                problem.to_string(),
                n.to_string(),
                t.to_string(),
                m.rounds.to_string(),
                m.messages.to_string(),
                format!("{:.1}", m.messages as f64 / n as f64),
            ];
            table.push_judged(row, &m);
        }
    }
    table
}

/// E2 — Theorem 5: almost-everywhere agreement decider fraction, rounds and
/// messages.
pub fn experiment_aea(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E2 thm5_aea",
        "Theorem 5: >= 3/5 n decide the same value, O(t) rounds, O(n) one-bit messages (t < n/5)",
        &[
            "n",
            "t",
            "rounds",
            "messages",
            "bits",
            "decider_frac",
            "agreement",
        ],
    );
    for &n in &cfg.consensus_sizes() {
        for t in cfg.t_sweep(vec![(n / 10).max(1), (n / 6).max(1)], n / 5) {
            let w = Workload::full_budget(n, t, cfg.seed_or(11)).with_shards(cfg.shards());
            let m = measure_aea(&w);
            let row = vec![
                n.to_string(),
                t.to_string(),
                m.rounds.to_string(),
                m.messages.to_string(),
                m.bits.to_string(),
                format!("{:.2}", m.decider_fraction),
                verdict_cells(&m)[1].clone(),
            ];
            table.push_judged(row, &m);
        }
    }
    table
}

/// E3 — Theorem 6: spread-common-value rounds and messages.
pub fn experiment_scv(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E3 thm6_scv",
        "Theorem 6: O(log t) rounds and O(t log t) messages",
        &[
            "n",
            "t",
            "rounds",
            "messages",
            "bits",
            "all_decided",
            "agreement",
        ],
    );
    for &n in &cfg.consensus_sizes() {
        for t in cfg.t_sweep(vec![(n / 12).max(1), (n / 6).max(1)], n / 5) {
            let m = measure_scv(
                &Workload::full_budget(n, t, cfg.seed_or(13)).with_shards(cfg.shards()),
            );
            let mut row = vec![n.to_string(), t.to_string()];
            row.extend(fmt_measurement(&m));
            table.push_judged(row, &m);
        }
    }
    table
}

/// E4 — Theorem 7: few-crashes consensus vs the flooding baseline.
pub fn experiment_few_crashes(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E4 thm7_few_crashes",
        "Theorem 7: O(t + log n) rounds, O(n + t log t) one-bit messages (t < n/5); flooding baseline is Theta(n^2) messages/round",
        &["algorithm", "n", "t", "rounds", "messages", "bits", "all_decided", "agreement"],
    );
    for &n in &cfg.consensus_sizes() {
        let t = cfg.t_or((n / 8).max(1), n / 5);
        let w = Workload::full_budget(n, t, cfg.seed_or(17)).with_shards(cfg.shards());
        let mut runs = vec![("few-crashes", measure_few_crashes(&w))];
        if cfg.include_baselines() {
            runs.push(("flooding", measure_flooding(&w)));
        }
        for (name, m) in runs {
            let mut row = vec![name.to_string(), n.to_string(), t.to_string()];
            row.extend(fmt_measurement(&m));
            table.push_judged(row, &m);
        }
    }
    table
}

/// E5 — Theorem 8 / Corollary 1: many-crashes consensus across fault
/// fractions.
pub fn experiment_many_crashes(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E5 thm8_many_crashes",
        "Theorem 8: <= n + 3(1+lg n) rounds and (5/(1-alpha))^8 n lg n one-bit messages for any t < n",
        &["n", "alpha", "t", "rounds", "budget", "thm8_bound", "messages", "all_decided", "agreement"],
    );
    for &n in &cfg.heavy_sizes() {
        let defaults: Vec<usize> = [10usize, 50, 90]
            .iter()
            .map(|alpha_pct| ((n * alpha_pct) / 100).clamp(1, n - 1))
            .collect();
        for t in cfg.t_sweep(defaults, n) {
            let m = measure_many_crashes(
                &Workload::full_budget(n, t, cfg.seed_or(19)).with_shards(cfg.shards()),
            );
            let mut row = vec![
                n.to_string(),
                format!("{:.2}", t as f64 / n as f64),
                t.to_string(),
                m.rounds.to_string(),
                // The α-aware budget is derived from the phase schedule; the
                // closed form of Theorem 8 is its α → 1 worst case.
                dft_core::round_budget_for(n, t).to_string(),
                dft_core::theorem8_round_bound(n).to_string(),
                m.messages.to_string(),
            ];
            row.extend(verdict_cells(&m));
            table.push_judged(row, &m);
        }
    }
    table
}

/// E6 — Theorem 9: gossip vs the all-to-all baseline.
pub fn experiment_gossip(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E6 thm9_gossip",
        "Theorem 9: O(log n log t) rounds, O(n + t log n log t) messages; all-to-all baseline is Theta(n^2 t)",
        &["algorithm", "n", "t", "rounds", "messages", "bits", "all_decided", "agreement"],
    );
    for &n in &cfg.heavy_sizes() {
        let t = cfg.t_or((n / 8).max(1), n / 5);
        let w = Workload::full_budget(n, t, cfg.seed_or(23)).with_shards(cfg.shards());
        let mut runs = vec![("gossip", measure_gossip(&w))];
        if cfg.include_baselines() {
            runs.push(("all-to-all", measure_all_to_all_gossip(&w)));
        }
        for (name, m) in runs {
            let mut row = vec![name.to_string(), n.to_string(), t.to_string()];
            row.extend(fmt_measurement(&m));
            table.push_judged(row, &m);
        }
    }
    table
}

/// E7 — Theorem 10: checkpointing vs the naive baseline.
pub fn experiment_checkpointing(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E7 thm10_checkpointing",
        "Theorem 10: O(t + log n log t) rounds, O(n + t log n log t) messages; naive baseline is Theta(n^2 t)",
        &["algorithm", "n", "t", "rounds", "messages", "bits", "all_decided", "agreement"],
    );
    for &n in &cfg.heavy_sizes() {
        let t = cfg.t_or((n / 8).max(1), n / 5);
        let w = Workload::full_budget(n, t, cfg.seed_or(29)).with_shards(cfg.shards());
        let mut runs = vec![("checkpointing", measure_checkpointing(&w))];
        if cfg.include_baselines() {
            runs.push(("naive", measure_naive_checkpointing(&w)));
        }
        for (name, m) in runs {
            let mut row = vec![name.to_string(), n.to_string(), t.to_string()];
            row.extend(fmt_measurement(&m));
            table.push_judged(row, &m);
        }
    }
    table
}

/// E8 — Theorem 11: authenticated-Byzantine consensus vs the parallel
/// Dolev–Strong baseline.
pub fn experiment_byzantine(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E8 thm11_byzantine",
        "Theorem 11: O(t) rounds and O(t^2 + n) messages from non-faulty nodes (t < n/2); baseline is Theta(n^2) per round",
        &["algorithm", "n", "t", "rounds", "messages", "bits", "all_decided", "agreement"],
    );
    for &n in &cfg.heavy_sizes() {
        let t = cfg.t_or(((n as f64).sqrt() as usize).max(1), n / 2);
        let w = Workload::fault_free(n, t, cfg.seed_or(31)).with_shards(cfg.shards());
        let mut runs = vec![("ab-consensus", measure_ab_consensus(&w))];
        if cfg.include_baselines() {
            runs.push(("parallel-ds", measure_parallel_ds(&w)));
        }
        for (name, m) in runs {
            let mut row = vec![name.to_string(), n.to_string(), t.to_string()];
            row.extend(fmt_measurement(&m));
            table.push_judged(row, &m);
        }
    }
    table
}

/// E9 — Theorem 12: the single-port adaptation.
pub fn experiment_single_port(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E9 thm12_single_port",
        "Theorem 12: single-port consensus in O(t + log n) rounds with O(n + t log n) bits",
        &[
            "n",
            "t",
            "sp_rounds",
            "messages",
            "bits",
            "all_decided",
            "agreement",
        ],
    );
    for &n in &cfg.heavy_sizes() {
        let t = cfg.t_or((n / 8).max(1), n / 5);
        let m = measure_linear_consensus(
            &Workload::full_budget(n, t, cfg.seed_or(37)).with_shards(cfg.shards()),
        );
        let mut row = vec![n.to_string(), t.to_string()];
        row.extend(fmt_measurement(&m));
        table.push_judged(row, &m);
    }
    table
}

/// E10 — Theorem 13: the single-port lower bound.  Runs single-port
/// Linear-Consensus under `Workload::full_budget`'s `RandomCrashes` (as E9
/// does, at other seeds and `t`) and reports the rounds needed as `t` and
/// `n` grow, beside `t + log n`.
///
/// Theorem 13's own adversary, `AdaptiveSplitAdversary`, is not run here.
/// It is adaptive: it reads every node's send and poll intents, so only the
/// in-process runners can run it, and a table that measures it must stay
/// serial even under `--shards`.
pub fn experiment_lower_bound(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E10 thm13_lower_bound",
        "Theorem 13: every single-port algorithm needs Omega(t + log n) rounds; measured rounds grow with both t and n",
        &["n", "t", "sp_rounds_measured", "t_plus_log_n"],
    );
    for &n in &cfg.heavy_sizes() {
        for t in cfg.t_sweep(vec![(n / 16).max(1), (n / 8).max(1)], n / 5) {
            let m = measure_linear_consensus(
                &Workload::full_budget(n, t, cfg.seed_or(41)).with_shards(cfg.shards()),
            );
            let row = vec![
                n.to_string(),
                t.to_string(),
                m.rounds.to_string(),
                (t as u64 + (n as f64).log2().ceil() as u64).to_string(),
            ];
            table.push_judged(row, &m);
        }
    }
    table
}

/// E11 — Section 3 (Theorems 1–4): overlay-graph properties — spectral gap,
/// Ramanujan bound, expansion sampling and the size of the survival subset
/// after removing `t` adversarial vertices.
pub fn experiment_overlay(cfg: &SweepConfig) -> Table {
    let mut table = Table::new(
        "E11 overlay_properties",
        "Theorems 1-4: Ramanujan overlays are l-expanding and (l, 3/4, delta)-compact; random regular graphs match the bound in practice",
        &["n", "d", "lambda", "ramanujan_bound", "expanding", "survival_frac_after_t_removed"],
    );
    for (n, d) in cfg.overlay_cases() {
        let graph = must(build::random_regular(n, d, cfg.seed_or(99)), "construction");
        let est = spectral::second_eigenvalue(&graph, 200, 5);
        let expanding = properties::sampled_expansion_check(&graph, n / 5, 30, 7);
        // Remove the t = n/5 highest-index vertices and peel with delta = d/4.
        let t = cfg.t_or(n / 5, n);
        let survivors: Vec<usize> = (0..n - t).collect();
        let candidate = graph.mask(&survivors);
        let core = properties::survival_subset(&graph, &candidate, d / 4);
        let frac = core.iter().filter(|&&b| b).count() as f64 / (n - t) as f64;
        table.push_row(vec![
            n.to_string(),
            d.to_string(),
            format!("{:.3}", est.lambda),
            format!("{:.3}", est.ramanujan_bound),
            if expanding { "yes" } else { "no" }.to_string(),
            format!("{:.3}", frac),
        ]);
    }
    table
}

/// An experiment entry point: builds one table from a sweep configuration.
pub type ExperimentFn = fn(&SweepConfig) -> Table;

/// The full experiment catalogue: `(short id, experiment function)` pairs in
/// E1–E11 order.  `run_experiments` iterates this to print per-experiment
/// wall times.
pub fn experiment_catalog() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("E1", experiment_table1 as ExperimentFn),
        ("E2", experiment_aea),
        ("E3", experiment_scv),
        ("E4", experiment_few_crashes),
        ("E5", experiment_many_crashes),
        ("E6", experiment_gossip),
        ("E7", experiment_checkpointing),
        ("E8", experiment_byzantine),
        ("E9", experiment_single_port),
        ("E10", experiment_lower_bound),
        ("E11", experiment_overlay),
    ]
}

/// Runs every experiment under the given configuration.
pub fn all_experiments_cfg(cfg: &SweepConfig) -> Vec<Table> {
    experiment_catalog()
        .into_iter()
        .map(|(_, f)| f(cfg))
        .collect()
}

/// Runs every experiment at the given scale with no overrides.
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    all_experiments_cfg(&scale.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_overlay_experiment_has_rows() {
        let table = experiment_overlay(&Scale::Quick.into());
        assert_eq!(table.rows.len(), 2);
        assert!(table.render().contains("lambda"));
    }

    #[test]
    fn quick_aea_experiment_reports_agreement() {
        let table = experiment_aea(&Scale::Quick.into());
        assert!(!table.rows.is_empty());
        assert_eq!(table.violations, Vec::<String>::new());
        for row in &table.rows {
            assert_eq!(row.last().map(String::as_str), Some("yes"));
        }
    }

    #[test]
    fn quick_few_crashes_vs_flooding_crossover() {
        let table = experiment_few_crashes(&Scale::Quick.into());
        // Rows alternate algorithm/baseline; the baseline sends more messages
        // at every size.
        for pair in table.rows.chunks(2) {
            let ours: u64 = pair[0][4].parse().unwrap();
            let baseline: u64 = pair[1][4].parse().unwrap();
            assert!(baseline > ours, "baseline {baseline} vs ours {ours}");
        }
    }

    #[test]
    fn scale_parse_accepts_tiers() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("Paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn overrides_collapse_sweeps() {
        let cfg = SweepConfig {
            scale: Scale::Quick,
            n: Some(40),
            t: Some(4),
            seed: Some(5),
            shards: 1,
        };
        assert_eq!(cfg.consensus_sizes(), vec![40]);
        assert_eq!(cfg.heavy_sizes(), vec![40]);
        assert_eq!(cfg.t_sweep(vec![2, 8], 40 / 5), vec![4]);
        assert_eq!(cfg.t_or(9, 40 / 5), 4);
        assert_eq!(cfg.seed_or(7), 5);
        let table = experiment_aea(&cfg);
        assert_eq!(table.rows.len(), 1, "n and t overrides give one row");
    }

    #[test]
    fn t_override_is_clamped_to_experiment_validity() {
        let cfg = SweepConfig {
            scale: Scale::Quick,
            n: Some(40),
            t: Some(39), // valid for many-crashes, far too big for t < n/5
            seed: None,
            shards: 1,
        };
        assert_eq!(cfg.t_or(5, 40 / 5), 7, "clamped below n/5");
        assert_eq!(cfg.t_sweep(vec![2], 40), vec![39], "full range kept");
        // The t < n/5 experiments must not panic on an oversized override.
        let table = experiment_aea(&cfg);
        assert_eq!(table.rows.len(), 1);
    }

    #[test]
    fn small_n_override_does_not_panic() {
        // n = 20 is the smallest size the CLI accepts; every experiment must
        // survive it (E1's t formulas and E11's overlay degree are the
        // delicate ones).
        let cfg = SweepConfig {
            scale: Scale::Quick,
            n: Some(20),
            t: None,
            seed: None,
            shards: 1,
        };
        for (_, experiment) in experiment_catalog() {
            let table = experiment(&cfg);
            assert!(!table.rows.is_empty());
        }
    }

    #[test]
    fn paper_scale_skips_baselines() {
        let cfg = SweepConfig {
            scale: Scale::Paper,
            ..Default::default()
        };
        assert!(!cfg.include_baselines());
        assert!(SweepConfig::new(Scale::Quick).include_baselines());
    }
}
