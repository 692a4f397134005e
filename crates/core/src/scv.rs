//! `Spread-Common-Value` (Section 4.2, Figure 2, Theorem 6).
//!
//! Preconditions: `t < n/5` and at least `3/5·n` nodes are initialized with
//! the same non-null common value.  The algorithm makes every non-faulty
//! node decide on that value:
//!
//! 1. **Part 1 — slow broadcast** over the constant-degree graph `H` for
//!    `⌈log_{3/2}((2n/5)/max(t, n/t))⌉` rounds: decided nodes forward the
//!    value, receivers adopt it.
//! 2. **Part 2 — inquiries**: if `t² ≤ n`, every still-undecided node asks
//!    every little node and adopts the response; otherwise phase `i` has the
//!    undecided nodes inquire along the Lemma 5 graph `G_i` of degree
//!    `Θ(2^i)` and adopt any response.
//!
//! Theorem 6: `O(log t)` rounds and `O(t log t)` messages.

use std::sync::Arc;

use dft_overlay::{Graph, InquiryFamily};
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::values::JoinValue;

/// Static configuration shared by every node running [`SpreadCommonValue`].
#[derive(Clone, Debug)]
pub struct ScvConfig {
    /// Number of nodes.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Number of little nodes.
    pub little: usize,
    /// The constant-degree broadcast graph `H`.
    pub h_graph: Arc<Graph>,
    /// The per-phase inquiry family `G_i` of Lemma 5.
    pub family: Arc<InquiryFamily>,
    /// Number of broadcast rounds in Part 1.
    pub part1_rounds: u64,
    /// Forces the phase-based inquiry branch of Part 2 even when `t² ≤ n`.
    ///
    /// The single-port adaptation (Section 8) uses this: polling schedules
    /// must be data-independent, which the per-phase overlay graphs provide
    /// but the "ask every little node" broadcast does not.
    pub force_phase_inquiry: bool,
}

impl ScvConfig {
    /// Derives the configuration from a [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/5`.
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        config.require_few_crashes()?;
        Ok(ScvConfig {
            n: config.n,
            t: config.t,
            little: config.little_count(),
            h_graph: config.h_graph(),
            family: config.scv_family(),
            part1_rounds: config.scv_broadcast_rounds(),
            force_phase_inquiry: false,
        })
    }

    /// Whether Part 2 uses the direct "ask every little node" branch
    /// (`t² ≤ n`).
    pub fn direct_inquiry(&self) -> bool {
        self.t * self.t <= self.n && !self.force_phase_inquiry
    }

    /// Number of inquiry phases in Part 2 (each phase is two rounds).
    pub fn inquiry_phases(&self) -> u64 {
        if self.direct_inquiry() {
            1
        } else {
            self.family.phases() as u64
        }
    }

    /// Total number of rounds of the protocol.
    pub fn total_rounds(&self) -> u64 {
        self.part1_rounds + 2 * self.inquiry_phases()
    }
}

/// Messages of `Spread-Common-Value`.
#[derive(Clone, Debug, PartialEq)]
pub enum ScvMsg<V> {
    /// The common value, forwarded during Part 1 broadcast.
    Value(V),
    /// An inquiry from an undecided node (Part 2).
    Inquiry,
    /// A response carrying the common value (Part 2).
    Response(V),
}

impl<V: JoinValue> Payload for ScvMsg<V> {
    fn bit_len(&self) -> u64 {
        match self {
            ScvMsg::Value(v) | ScvMsg::Response(v) => v.wire_bits(),
            ScvMsg::Inquiry => 1,
        }
    }
}

/// Per-node state machine for `Spread-Common-Value`.
#[derive(Clone, Debug)]
pub struct SpreadCommonValue<V: JoinValue> {
    config: ScvConfig,
    me: usize,
    common: Option<V>,
    forward_pending: bool,
    inquirers: Vec<usize>,
    halted: bool,
}

impl<V: JoinValue> SpreadCommonValue<V> {
    /// Creates the state machine for node `me`.  `initial` is the common
    /// value for initialized nodes and `None` (null) for the rest.
    pub fn new(config: ScvConfig, me: usize, initial: Option<V>) -> Self {
        let forward_pending = initial.is_some();
        SpreadCommonValue {
            config,
            me,
            common: initial,
            forward_pending,
            inquirers: Vec::new(),
            halted: false,
        }
    }

    /// Builds state machines for all nodes; `initials[i]` is node `i`'s
    /// initial common value (or `None`).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (requires `t < n/5`).
    ///
    /// # Panics
    ///
    /// Panics if `initials.len() != config.n`.
    pub fn for_all_nodes(config: &SystemConfig, initials: &[Option<V>]) -> CoreResult<Vec<Self>> {
        assert_eq!(initials.len(), config.n, "one initial value per node");
        let shared = ScvConfig::from_system(config)?;
        Ok(initials
            .iter()
            .enumerate()
            .map(|(me, init)| Self::new(shared.clone(), me, init.clone()))
            .collect())
    }

    /// Total rounds this protocol runs for.
    pub fn total_rounds(&self) -> u64 {
        self.config.total_rounds()
    }

    /// The phase (1-based) of Part 2 containing relative round `r`, together
    /// with whether it is the inquiry (first) or response (second) round.
    fn phase_of(&self, r: u64) -> Option<(u64, bool)> {
        if r < self.config.part1_rounds {
            return None;
        }
        let offset = r - self.config.part1_rounds;
        let phase = offset / 2 + 1;
        if phase > self.config.inquiry_phases() {
            return None;
        }
        Some((phase, offset.is_multiple_of(2)))
    }
}

impl<V: JoinValue> SyncProtocol for SpreadCommonValue<V> {
    type Msg = ScvMsg<V>;
    type Output = V;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<ScvMsg<V>>>) {
        let r = round.as_u64();
        if r < self.config.part1_rounds {
            // Part 1: forward the value to H-neighbours when newly adopted.
            if self.forward_pending {
                self.forward_pending = false;
                if let Some(value) = &self.common {
                    out.extend(
                        self.config
                            .h_graph
                            .neighbors(self.me)
                            .iter()
                            .map(|&v| Outgoing::new(NodeId::new(v), ScvMsg::Value(value.clone()))),
                    );
                }
            }
            return;
        }
        let Some((phase, is_inquiry_round)) = self.phase_of(r) else {
            return;
        };
        if is_inquiry_round {
            // First round of the phase: undecided nodes inquire.
            if self.common.is_none() {
                let me = self.me;
                let inquiry =
                    |v: usize| (v != me).then(|| Outgoing::new(NodeId::new(v), ScvMsg::Inquiry));
                if self.config.direct_inquiry() {
                    out.extend((0..self.config.little).filter_map(inquiry));
                } else {
                    let graph = self.config.family.graph(phase as usize);
                    out.extend(graph.neighbors(self.me).iter().filter_map(|&v| inquiry(v)));
                }
            }
        } else {
            // Second round of the phase: decided nodes answer last round's
            // inquirers.
            if let Some(value) = &self.common {
                out.extend(
                    self.inquirers
                        .drain(..)
                        .map(|v| Outgoing::new(NodeId::new(v), ScvMsg::Response(value.clone()))),
                );
            } else {
                self.inquirers.clear();
            }
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<ScvMsg<V>>]) {
        let r = round.as_u64();
        if r < self.config.part1_rounds {
            for msg in inbox {
                if let ScvMsg::Value(v) = &msg.msg {
                    if self.common.is_none() {
                        self.common = Some(v.clone());
                        self.forward_pending = true;
                    }
                }
            }
        } else if let Some((_, is_inquiry_round)) = self.phase_of(r) {
            if is_inquiry_round {
                self.inquirers = inbox
                    .iter()
                    .filter(|m| matches!(m.msg, ScvMsg::Inquiry))
                    .map(|m| m.from.index())
                    .collect();
                // Little nodes answer inquiries only if decided; keep the
                // inquirer list regardless — `send` checks the decision.
            } else {
                for msg in inbox {
                    if let ScvMsg::Response(v) = &msg.msg {
                        if self.common.is_none() {
                            self.common = Some(v.clone());
                        }
                    }
                }
            }
        }
        if r + 1 >= self.config.total_rounds() {
            self.halted = true;
        }
    }

    fn output(&self) -> Option<V> {
        self.common.clone()
    }

    fn has_halted(&self) -> bool {
        self.halted
    }

    /// A node that holds the value, has nothing to forward and owes nobody
    /// a response has nothing left to do but halt in the last round; a node
    /// without the value is silent until the first inquiry round unless the
    /// value reaches it.  Either is woken by a message (the value, an
    /// inquiry).  An undecided node in Part 2 inquires every phase and
    /// keeps the default.
    fn quiet_until(&self, now: Round) -> Option<Round> {
        if self.common.is_none() {
            // Before Part 2 `inquirers` is still empty: only an
            // inquiry-round `receive` fills it.
            let part2 = Round::new(self.config.part1_rounds);
            return (now < part2).then_some(part2);
        }
        // Forwarding happens in Part 1 only.
        let forwards_next = self.forward_pending && now.as_u64() + 1 < self.config.part1_rounds;
        let idle = !forwards_next && self.inquirers.is_empty();
        idle.then(|| Round::new(self.config.total_rounds().saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::{NoFaults, RandomCrashes, Runner};

    fn run_scv(
        n: usize,
        t: usize,
        initialized: usize,
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
    ) -> dft_sim::ExecutionReport<bool> {
        let config = SystemConfig::new(n, t).unwrap().with_seed(21);
        // The `initialized` highest-index nodes know the value `true`; this
        // leaves little nodes uninitialised, exercising the inquiry path too.
        let initials: Vec<Option<bool>> = (0..n)
            .map(|i| (i >= n - initialized).then_some(true))
            .collect();
        let nodes = SpreadCommonValue::for_all_nodes(&config, &initials).unwrap();
        let total = ScvConfig::from_system(&config).unwrap().total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        runner.run(total + 2)
    }

    #[test]
    fn spreads_to_everyone_without_faults_small_t() {
        // t² ≤ n branch.
        let n = 100;
        let t = 8;
        let report = run_scv(n, t, 70, Box::new(NoFaults), 0);
        assert!(report.all_non_faulty_decided());
        assert_eq!(report.agreed_value(), Some(&true));
    }

    #[test]
    fn spreads_to_everyone_without_faults_large_t() {
        // t² > n branch (phase-based inquiries).
        let n = 120;
        let t = 20;
        let report = run_scv(n, t, 90, Box::new(NoFaults), 0);
        assert!(report.all_non_faulty_decided());
        assert_eq!(report.agreed_value(), Some(&true));
    }

    #[test]
    fn spreads_under_random_crashes() {
        let n = 150;
        let t = 18;
        let adversary = RandomCrashes::new(n, t, 10, 5);
        let report = run_scv(n, t, 110, Box::new(adversary), t);
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&true));
        // All non-faulty nodes that are not little decide; little nodes may be
        // left undecided only if nobody held the value near them — with 110
        // initialized nodes the broadcast reaches everyone.
        assert!(report.all_non_faulty_decided());
    }

    #[test]
    fn no_initial_value_means_no_decisions() {
        let n = 80;
        let t = 8;
        let report = run_scv(n, t, 0, Box::new(NoFaults), 0);
        assert!(report.deciders().is_empty());
        // Undecided nodes still sent inquiries; nobody answered.
        assert!(report.metrics.messages > 0);
        assert!(report.non_faulty_deciders_agree());
    }

    #[test]
    fn inquiry_phases_built_on_first_read_give_the_same_transcript_sharded() {
        use dft_sim::shard::ShardedRunner;
        use dft_sim::Participant;

        let (n, t) = (200, 30);
        let config = SystemConfig::new(n, t).unwrap().with_seed(4);
        // One initialised node and no Part 1 broadcast: the value travels by
        // inquiry only, so undecided nodes read G_1, G_2, … in turn.  Each
        // execution gets a fresh config, with no phase built yet.
        let fresh = || ScvConfig {
            part1_rounds: 0,
            ..ScvConfig::from_system(&config).unwrap()
        };
        let nodes = |scv: &ScvConfig| -> Vec<_> {
            (0..n)
                .map(|me| SpreadCommonValue::new(scv.clone(), me, (me == n - 1).then_some(true)))
                .collect()
        };
        let serial_config = fresh();
        assert_eq!(serial_config.family.built_phases(), 0);
        let rounds = serial_config.total_rounds() + 2;
        let mut serial = Runner::new(nodes(&serial_config)).unwrap();
        serial.enable_trace();
        let report = serial.run(rounds);
        assert!(report.all_non_faulty_decided());
        let built = serial_config.family.built_phases();
        assert!(built >= 2, "only {built} phase(s) read");

        let sharded_config = fresh();
        let participants = nodes(&sharded_config)
            .into_iter()
            .map(Participant::Honest)
            .collect();
        let mut sharded =
            ShardedRunner::in_process(participants, Box::new(NoFaults), 0, 2).unwrap();
        sharded.enable_trace();
        assert_eq!(sharded.run(rounds).unwrap(), report);
        assert_eq!(
            format!("{:?}", sharded.trace().events()),
            format!("{:?}", serial.trace().events())
        );
        assert_eq!(sharded_config.family.built_phases(), built);
    }

    #[test]
    fn rounds_are_logarithmic() {
        let config = SystemConfig::new(4000, 500).unwrap();
        let scv = ScvConfig::from_system(&config).unwrap();
        // O(log t): generous constant.
        assert!(scv.total_rounds() <= 6 * (500f64.log2().ceil() as u64) + 10);
    }

    #[test]
    fn message_count_is_moderate() {
        let n = 200;
        let t = 20;
        let report = run_scv(n, t, 140, Box::new(NoFaults), 0);
        // Theorem 6 charges O(t log t) to Part 2 plus O(n) for Part 1
        // forwarding over the constant-degree H.
        let bound = (40 * n) as u64;
        assert!(
            report.metrics.messages < bound,
            "{} messages exceeds {bound}",
            report.metrics.messages
        );
    }
}
