//! `Many-Crashes-Consensus` (Section 4.4, Figure 4, Theorem 8, Corollary 1).
//!
//! Binary consensus for an arbitrary bound `t ≤ n − 1` on the number of
//! crashes (`α = t/n`).  Three parts over the full-network Ramanujan overlay
//! `G(n, d(α))`:
//!
//! 1. **Broadcasting** (`n − 1` rounds): rumor `1` floods along `G`.
//! 2. **Local probing** (`2 + ⌈lg n⌉` rounds): survivors decide their rumor.
//! 3. **Inquiring** (`1 + ⌈lg((1+3α)n/4)⌉` two-round phases): undecided
//!    nodes inquire along per-phase overlays `G_i` of doubling degree and
//!    adopt any response.
//!
//! Theorem 8: at most `n + 3(1 + lg n)` rounds and
//! `(5/(1−α))⁸ · n·lg n` one-bit messages.

use std::sync::Arc;

use dft_overlay::Graph;
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::inquiries::{Inquiries, Step, Targets};
use crate::local_probing::LocalProbing;

/// Static configuration shared by every node running
/// [`ManyCrashesConsensus`].
#[derive(Clone, Debug)]
pub struct ManyCrashesConfig {
    /// The full-network overlay graph `G(n, d(α))`.
    pub graph: Arc<Graph>,
    /// Survival threshold `δ` for local probing.
    pub delta: usize,
    /// Local-probing duration (`2 + ⌈lg n⌉`).
    pub gamma: u64,
    /// Length of the broadcasting part (the paper uses `n − 1`).
    pub part1_rounds: u64,
    /// Part 3: two-round phases along the per-phase inquiry family, from
    /// the end of local probing.
    pub(crate) part3: Inquiries,
}

impl ManyCrashesConfig {
    /// Derives the configuration from a [`SystemConfig`] (any `t < n`).
    ///
    /// # Errors
    ///
    /// Propagates [`SystemConfig`]-level validation errors.
    #[expect(
        clippy::float_arithmetic,
        reason = "the paper's alpha-aware probing threshold sizes a constant from the \
                  configuration: a pure function of (n, t), no cross-node divergence"
    )]
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        let params = config.full_params();
        let graph = config.full_graph();
        // The probing threshold is halved relative to the generic overlay
        // parameters and additionally made α-aware: `Many-Crashes-Consensus`
        // must keep a surviving core even when the fault fraction approaches
        // 1, where the adversary can remove most of every neighbourhood.  The
        // paper compensates with the enormous degree `(4/(1−α))⁸` while
        // keeping `δ(d)` fixed; at practical degrees the α-dependence has to
        // live in `δ` instead.  A node's expected operational degree after
        // all `t = αn` crashes is `(1 − α)·d`, so the threshold is capped at
        // half of that — with the paper-mode `δ/2` kept as an upper bound so
        // low fault fractions behave exactly as before.  Without the cap,
        // probing at `α ≥ 0.9` and `n ≥ 1000` has *zero* survivors: nobody
        // decides in Part 2, so Part 3's inquiries go unanswered and the
        // schedule ends with undecided correct nodes (the old E5 failure).
        let alive_degree = (1.0 - config.alpha()) * params.degree as f64;
        let alpha_cap = ((alive_degree / 2.0).floor() as usize).max(1);
        let delta = (params.delta / 2)
            .min(alpha_cap)
            .clamp(1, graph.min_degree().max(1));
        let part1_rounds = (config.n as u64).saturating_sub(1).max(1);
        let (gamma, family) = (params.gamma as u64, config.many_crashes_family());
        Ok(ManyCrashesConfig {
            graph,
            delta,
            gamma,
            part1_rounds,
            part3: Inquiries::two_round(part1_rounds + gamma, Targets::Family(family)),
        })
    }

    /// Total number of rounds, the α-aware round budget within which every
    /// correct node decides: Part 1 (`n − 1` rounds) + local probing
    /// (`γ = 2 + ⌈lg n⌉`) + two rounds per inquiry phase
    /// (`1 + ⌈lg((1+3α)n/4)⌉` phases).
    ///
    /// Theorem 8's closed form `n + 3(1 + lg n)` is this schedule evaluated
    /// at the worst case α → 1, where the phase count reaches
    /// `1 + ⌈lg n⌉`; for smaller α the schedule is strictly shorter.  The
    /// budget therefore never exceeds `n + 3(1 + ⌈lg n⌉)` (pinned by
    /// `round_budget_stays_within_theorem_8`), and — unlike the closed form
    /// read with an exact `lg n` — it cannot be exhausted before the last
    /// inquiry phase completes at any fault fraction.
    pub fn total_rounds(&self) -> u64 {
        self.part3.end()
    }
}

/// The α-aware round budget of `Many-Crashes-Consensus` for a system of `n`
/// nodes with fault bound `t`, computed in closed form (no overlay graphs are
/// materialised): `(n − 1) + (2 + ⌈lg n⌉) + 2·(1 + ⌈lg((1+3α)n/4)⌉)` where
/// `α = t/n` — the same schedule [`ManyCrashesConfig::total_rounds`] derives
/// from a materialised configuration (`budget_formula_matches_config` pins
/// the two against each other).
#[expect(
    clippy::float_arithmetic,
    reason = "the paper's round budget is a logarithm of configuration values: a pure function of \
              (n, t), no cross-node divergence"
)]
pub fn round_budget_for(n: usize, t: usize) -> u64 {
    let part1 = (n as u64).saturating_sub(1).max(1);
    let gamma = 2 + (n.max(1) as f64).log2().ceil() as u64;
    let alpha = t as f64 / n.max(1) as f64;
    let m = (1.0 + 3.0 * alpha) * n as f64 / 4.0;
    let phases = (1.0 + m.log2().ceil()).max(1.0) as u64;
    part1 + gamma + 2 * phases
}

/// Theorem 8's closed-form round bound `n + 3(1 + ⌈lg n⌉)` — the α → 1
/// worst case of [`round_budget_for`].
pub fn theorem8_round_bound(n: usize) -> u64 {
    n as u64 + 3 * (1 + (n.max(2) as f64).log2().ceil() as u64)
}

/// Messages of `Many-Crashes-Consensus` (all carry at most one value bit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McMsg {
    /// A rumor flooded in Parts 1–2.
    Rumor(bool),
    /// An inquiry from an undecided node (Part 3).
    Inquiry,
    /// A response carrying the sender's decision (Part 3).
    Response(bool),
}

impl Payload for McMsg {
    fn bit_len(&self) -> u64 {
        1
    }
}

/// Per-node state machine for `Many-Crashes-Consensus`.
#[derive(Clone, Debug)]
pub struct ManyCrashesConsensus {
    graph: Arc<Graph>,
    /// Part 1 ends, and probing starts, in this round.
    part1_rounds: u64,
    me: usize,
    candidate: bool,
    pending_flood: bool,
    probe: LocalProbing,
    decided: Option<bool>,
    part3: Inquiries,
    halted: bool,
}

impl ManyCrashesConsensus {
    /// Creates the state machine for node `me` with binary input `input`.
    pub fn new(config: ManyCrashesConfig, me: usize, input: bool) -> Self {
        ManyCrashesConsensus {
            probe: LocalProbing::new(config.delta, config.gamma, true),
            part3: config.part3,
            graph: config.graph,
            part1_rounds: config.part1_rounds,
            me,
            candidate: input,
            pending_flood: input,
            decided: None,
            halted: false,
        }
    }

    /// Builds state machines for all nodes from per-node binary inputs.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != config.n`.
    pub fn for_all_nodes(config: &SystemConfig, inputs: &[bool]) -> CoreResult<Vec<Self>> {
        assert_eq!(inputs.len(), config.n, "one input per node required");
        let shared = ManyCrashesConfig::from_system(config)?;
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(me, &input)| Self::new(shared.clone(), me, input))
            .collect())
    }

    /// Total rounds this protocol runs for.
    pub fn total_rounds(&self) -> u64 {
        self.part3.end()
    }
}

impl SyncProtocol for ManyCrashesConsensus {
    type Msg = McMsg;
    type Output = bool;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<McMsg>>) {
        let r = round.as_u64();
        if r < self.part1_rounds {
            if self.pending_flood && self.candidate {
                self.pending_flood = false;
                out.extend(
                    self.graph
                        .neighbors(self.me)
                        .iter()
                        .map(|&v| Outgoing::new(NodeId::new(v), McMsg::Rumor(true))),
                );
            }
            return;
        }
        if r < self.part3.start() {
            if self.probe.should_send() {
                out.extend(
                    self.graph
                        .neighbors(self.me)
                        .iter()
                        .map(|&v| Outgoing::new(NodeId::new(v), McMsg::Rumor(self.candidate))),
                );
            }
            return;
        }
        match self.part3.at(r) {
            Some((phase, Step::Inquiry)) if self.decided.is_none() => {
                let targets = self.part3.targets(self.me, phase);
                out.extend(targets.map(|v| Outgoing::new(NodeId::new(v), McMsg::Inquiry)));
            }
            Some((_, Step::Response)) => {
                let response = self
                    .decided
                    .map(|decision| move || McMsg::Response(decision));
                self.part3.answer(response, out);
            }
            _ => {}
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<McMsg>]) {
        let r = round.as_u64();
        if r < self.part1_rounds {
            for msg in inbox {
                if matches!(msg.msg, McMsg::Rumor(true)) && !self.candidate {
                    self.candidate = true;
                    self.pending_flood = true;
                }
            }
        } else if r < self.part3.start() {
            let mut received = 0;
            for msg in inbox {
                if let McMsg::Rumor(value) = msg.msg {
                    received += 1;
                    if value {
                        self.candidate = true;
                    }
                }
            }
            self.probe.observe_round(received);
            if r + 1 == self.part3.start() && self.probe.survived() {
                self.decided = Some(self.candidate);
            }
        } else {
            match self.part3.at(r) {
                Some((_, Step::Inquiry)) => {
                    self.part3
                        .record(inbox, |d| matches!(d.msg, McMsg::Inquiry));
                }
                Some((_, Step::Response)) if self.decided.is_none() => {
                    self.decided = inbox.iter().find_map(|d| match d.msg {
                        McMsg::Response(value) => Some(value),
                        _ => None,
                    });
                }
                _ => {}
            }
        }
        if r + 1 >= self.part3.end() {
            self.halted = true;
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.halted
    }

    /// The two stretches where the schedule alone says a node is silent: in
    /// Part 1 a node with no fresh rumor `1` to flood waits for one or for
    /// probing to start, and once decided a node that owes nobody a
    /// response waits for an inquiry or for the last round.  Probing rounds
    /// and undecided inquirers keep the default.
    fn quiet_until(&self, now: Round) -> Option<Round> {
        let next = now.as_u64() + 1;
        if next < self.part1_rounds {
            let floods_next = self.pending_flood && self.candidate;
            return (!floods_next).then(|| Round::new(self.part1_rounds));
        }
        let idle = next >= self.part3.start() && self.decided.is_some() && !self.part3.owed();
        idle.then(|| Round::new(self.part3.end().saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::{NoFaults, RandomCrashes, Runner};

    fn run_mc(
        n: usize,
        t: usize,
        inputs: &[bool],
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
        seed: u64,
    ) -> dft_sim::ExecutionReport<bool> {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let nodes = ManyCrashesConsensus::for_all_nodes(&config, inputs).unwrap();
        let total = ManyCrashesConfig::from_system(&config)
            .unwrap()
            .total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        runner.run(total + 2)
    }

    fn assert_consensus(report: &dft_sim::ExecutionReport<bool>, inputs: &[bool]) {
        assert!(report.all_non_faulty_decided(), "termination");
        assert!(report.non_faulty_deciders_agree(), "agreement");
        let agreed = report.agreed_value().copied().expect("agreement value");
        assert!(inputs.contains(&agreed), "validity");
    }

    #[test]
    fn fault_free_unanimous_and_mixed() {
        let n = 60;
        for (label, inputs) in [
            ("ones", vec![true; n]),
            ("zeros", vec![false; n]),
            ("mixed", (0..n).map(|i| i % 5 == 0).collect::<Vec<_>>()),
        ] {
            let report = run_mc(n, 10, &inputs, Box::new(NoFaults), 0, 1);
            assert_consensus(&report, &inputs);
            if label == "ones" {
                assert_eq!(report.agreed_value(), Some(&true));
            }
            if label == "zeros" {
                assert_eq!(report.agreed_value(), Some(&false));
            }
        }
    }

    #[test]
    fn tolerates_nearly_half_crashes() {
        let n = 60;
        let t = 25;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let adversary = RandomCrashes::new(n, t, 30, 13);
        let report = run_mc(n, t, &inputs, Box::new(adversary), t, 2);
        assert_consensus(&report, &inputs);
    }

    #[test]
    fn tolerates_majority_crashes() {
        // t up to n - 1 is allowed; use a heavy fraction.
        let n = 50;
        let t = 35;
        let inputs = vec![true; n];
        let adversary = RandomCrashes::new(n, t, 40, 17);
        let report = run_mc(n, t, &inputs, Box::new(adversary), t, 3);
        assert!(report.non_faulty_deciders_agree());
        assert!(report.all_non_faulty_decided());
        assert_eq!(report.agreed_value(), Some(&true));
    }

    #[test]
    fn round_bound_matches_theorem_8() {
        let n = 200;
        let config = SystemConfig::new(n, 50).unwrap();
        let mc = ManyCrashesConfig::from_system(&config).unwrap();
        let bound = n as u64 + 3 * (1 + (n as f64).log2().ceil() as u64) + 2 * mc.part3.phases();
        assert!(
            mc.total_rounds() <= bound + 8,
            "{} vs {bound}",
            mc.total_rounds()
        );
    }

    /// The closed-form budget matches the schedule a materialised
    /// configuration derives, across fault fractions and sizes.
    #[test]
    fn budget_formula_matches_config() {
        for n in [60usize, 200, 500] {
            for t in [1, n / 10, n / 2, (9 * n) / 10, n - 1] {
                let config = SystemConfig::new(n, t).unwrap();
                let mc = ManyCrashesConfig::from_system(&config).unwrap();
                assert_eq!(
                    mc.total_rounds(),
                    round_budget_for(n, t),
                    "n={n} t={t}: schedule-derived and closed-form budgets drifted"
                );
            }
        }
    }

    /// The α-aware budget is monotone in α and never exceeds Theorem 8's
    /// closed form `n + 3(1 + ⌈lg n⌉)`.
    #[test]
    fn round_budget_stays_within_theorem_8() {
        for n in [100usize, 1000, 4096] {
            let mut last = 0;
            for t in [1, n / 10, n / 2, (9 * n) / 10, n - 1] {
                let budget = round_budget_for(n, t);
                assert!(budget >= last, "budget shrank as alpha grew");
                last = budget;
                assert!(
                    budget <= theorem8_round_bound(n),
                    "n={n} t={t}: budget {budget} exceeds theorem bound {}",
                    theorem8_round_bound(n)
                );
            }
        }
    }

    /// Regression for the old E5 failure: at α = 0.9 and n ≥ 1000 the
    /// pre-α-aware probing threshold left local probing with *zero*
    /// survivors, so Part 3's inquiries were never answered and correct
    /// nodes finished the schedule undecided.  With the α-aware δ every
    /// correct node must decide within the stated round budget.
    #[test]
    fn decides_at_alpha_09_n_1000_within_budget() {
        let n = 1000;
        let t = 900;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let horizon = round_budget_for(n, t);
        let adversary = RandomCrashes::new(n, t, horizon, 19);
        let report = run_mc(n, t, &inputs, Box::new(adversary), t, 19);
        assert_consensus(&report, &inputs);
        assert!(
            report.metrics.rounds <= horizon,
            "rounds {} exceed the alpha-aware budget {horizon}",
            report.metrics.rounds
        );
    }

    #[test]
    fn message_bound_is_n_log_n_shaped() {
        let n = 150;
        let t = 30;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let report = run_mc(n, t, &inputs, Box::new(NoFaults), 0, 4);
        let n_log_n = n as f64 * (n as f64).log2();
        assert!(
            (report.metrics.messages as f64) < 40.0 * n_log_n,
            "{} messages",
            report.metrics.messages
        );
    }
}
