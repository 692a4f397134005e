//! `Gossip` (Section 5, Figure 5, Theorem 9).
//!
//! Every node starts with a *rumor*; every non-faulty node must decide on an
//! *extant set* of `(node, rumor)` pairs such that nodes that crashed before
//! sending anything are excluded and nodes that halt operational are included
//! in every decided set (decided sets need not be equal).
//!
//! The algorithm assumes `t < n/5` and works in two parts of `⌈lg n⌉` phases
//! each.  In Part 1 the little nodes *collect* rumors: in phase `i` each
//! surviving little node inquires the neighbours it is still missing along
//! the doubling-degree graph `G_i`, then the little nodes cross-pollinate
//! their extant sets during a local-probing instance on the little overlay
//! `G`.  In Part 2 the little nodes *disseminate*: each surviving little node
//! pushes its extant set to `G_i`-neighbours not yet in its completion set,
//! and probing keeps the little nodes' completion sets in sync.
//!
//! Theorem 9: `O(log n · log t)` rounds and `O(n + t·log n·log t)` messages.

use std::sync::Arc;

use dft_overlay::{Graph, InquiryFamily};
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::inquiries::{Inquiries, Step, Targets};
use crate::local_probing::LocalProbing;
use crate::values::{BitVector, ExtantSet, JoinValue, Rumor};

/// Static configuration shared by every node running [`Gossip`].
#[derive(Clone, Debug)]
pub struct GossipConfig {
    /// Number of nodes.
    pub n: usize,
    /// Number of little nodes.
    pub little: usize,
    /// Little-node overlay graph `G` used for local probing.
    pub graph: Arc<Graph>,
    /// Survival threshold `δ`.
    pub delta: usize,
    /// Local-probing duration per phase (`2 + ⌈lg 5t⌉`).
    pub gamma: u64,
    /// Doubling-degree inquiry family (`G_i`).
    pub family: Arc<InquiryFamily>,
    /// Part 1: `⌈lg n⌉` phases, each an inquiry round along `G_i`, a
    /// response round, then the probing window.  Part 2's phases repeat
    /// its schedule.
    pub(crate) part1: Inquiries,
}

impl GossipConfig {
    /// Derives the configuration from a [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/5`.
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        config.require_few_crashes()?;
        let (graph, family) = (config.little_graph(), config.scv_family());
        Ok(Self::on_overlays(config, graph, family))
    }

    /// As `from_system`, on the little overlay and the inquiry family that
    /// checkpointing's consensus part already built from its checked `config`.
    /// The little survivors inquire in every phase of both parts, so the
    /// whole family is built here.
    pub(crate) fn on_overlays(
        config: &SystemConfig,
        graph: Arc<Graph>,
        family: Arc<InquiryFamily>,
    ) -> Self {
        family.build_all();
        let params = config.little_params();
        let gamma = params.gamma as u64;
        // ⌈lg n⌉ of a configuration integer: computed once, identically on
        // every node (a conversion and a library call, so `float_arithmetic`
        // has nothing to flag).
        let phases = (config.n as f64).log2().ceil().max(1.0) as u64;
        GossipConfig {
            n: config.n,
            little: config.little_count(),
            delta: params.delta.min(graph.min_degree()),
            graph,
            gamma,
            part1: Inquiries::new(0, 2 + gamma, phases, Targets::Family(Arc::clone(&family))),
            family,
        }
    }

    /// Total number of rounds (two parts of `⌈lg n⌉` phases each).
    pub fn total_rounds(&self) -> u64 {
        2 * self.part1.end()
    }
}

/// Messages of `Gossip`.
///
/// The set-valued variants are [`Arc`]-wrapped: the same extant/completion
/// set is pushed to many neighbours per round, and sharing turns each
/// per-recipient copy into a reference-count bump.  Wire sizes are those of
/// the inner sets, so bit accounting is unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum GossipMsg {
    /// Part 1, phase round 1: a little node asks a neighbour for its pair.
    Inquiry,
    /// Part 1, phase round 2: the neighbour's `(index, rumor)` pair.
    Pair {
        /// Index of the responding node.
        node: u64,
        /// The responder's rumor.
        rumor: Rumor,
    },
    /// An extant set (probing payload in Part 1, push payload in Part 2).
    Extant(Arc<ExtantSet>),
    /// A completion set (probing payload in Part 2).
    Completion(Arc<BitVector>),
}

impl Payload for GossipMsg {
    fn bit_len(&self) -> u64 {
        match self {
            GossipMsg::Inquiry => 1,
            GossipMsg::Pair { .. } => 128,
            GossipMsg::Extant(set) => set.wire_bits(),
            GossipMsg::Completion(bits) => bits.bit_len(),
        }
    }

    /// The set-valued variants are nothing but their `Arc`.
    fn share_key(&self) -> Option<usize> {
        match self {
            GossipMsg::Inquiry | GossipMsg::Pair { .. } => None,
            GossipMsg::Extant(set) => Some(Arc::as_ptr(set).addr()),
            GossipMsg::Completion(bits) => Some(Arc::as_ptr(bits).addr()),
        }
    }
}

/// Which part of the algorithm a round belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Part 1: building extant sets at the little nodes.
    BuildExtant,
    /// Part 2: disseminating extant sets / building completion sets.
    BuildCompletion,
}

/// Per-node state machine for `Gossip`.
#[derive(Clone, Debug)]
pub struct Gossip {
    graph: Arc<Graph>,
    little: usize,
    me: usize,
    extant: ExtantSet,
    /// `extant` as last sent, kept while `extant` does not change: a round
    /// that sends the same set again hands out this allocation.
    extant_out: Option<Arc<ExtantSet>>,
    completion: BitVector,
    /// `completion` as last sent, on the same terms.
    completion_out: Option<Arc<BitVector>>,
    probe: LocalProbing,
    survived_last_phase: bool,
    /// Part 1's inquiries; Part 2 pushes to the same targets.
    part1: Inquiries,
    decided: Option<ExtantSet>,
    halted: bool,
}

impl Gossip {
    /// Creates the state machine for node `me` with rumor `rumor`.
    pub fn new(config: GossipConfig, me: usize, rumor: Rumor) -> Self {
        let mut extant = ExtantSet::nil(config.n);
        extant.update(me, rumor);
        let mut completion = BitVector::zeros(config.n);
        completion.set(me, true);
        let is_little = me < config.little;
        let probe = LocalProbing::new(config.delta, config.gamma, is_little);
        Gossip {
            part1: config.part1,
            graph: config.graph,
            little: config.little,
            me,
            extant,
            extant_out: None,
            completion,
            completion_out: None,
            probe,
            survived_last_phase: true,
            decided: None,
            halted: false,
        }
    }

    /// Builds state machines for all nodes from per-node rumors.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (requires `t < n/5`).
    ///
    /// # Panics
    ///
    /// Panics if `rumors.len() != config.n`.
    pub fn for_all_nodes(config: &SystemConfig, rumors: &[Rumor]) -> CoreResult<Vec<Self>> {
        assert_eq!(rumors.len(), config.n, "one rumor per node required");
        let shared = GossipConfig::from_system(config)?;
        Ok(rumors
            .iter()
            .enumerate()
            .map(|(me, &rumor)| Self::new(shared.clone(), me, rumor))
            .collect())
    }

    /// Total rounds this protocol runs for.
    pub fn total_rounds(&self) -> u64 {
        2 * self.part1.end()
    }

    fn is_little(&self) -> bool {
        self.me < self.little
    }

    /// Whom this little node reaches in `phase`: its `G_phase` neighbours,
    /// and in each part's last phase every other node.  The family ends
    /// after `⌈lg(t + 1)⌉` phases, and with few little nodes its last
    /// graph is too sparse for them to cover every node; the paper's
    /// doubling degree is `≥ n` by phase `⌈lg n⌉`, so completeness needs
    /// that last phase complete.
    fn targets(
        part1: &Inquiries,
        me: usize,
        n: usize,
        phase: u64,
    ) -> impl Iterator<Item = usize> + '_ {
        let last = phase == part1.phases();
        let family = part1.targets(me, phase).filter(move |_| !last);
        family.chain((0..n).filter(move |&v| last && v != me))
    }

    /// Decomposes a round into (stage, phase 1-based, step within the
    /// phase).
    fn locate(&self, r: u64) -> Option<(Stage, u64, Step)> {
        let per_part = self.part1.end();
        let (stage, within) = if r < per_part {
            (Stage::BuildExtant, r)
        } else {
            (Stage::BuildCompletion, r - per_part)
        };
        let (phase, step) = self.part1.at(within)?;
        Some((stage, phase, step))
    }

    /// The extant set as a message: the `Arc` last sent, unless the set has
    /// changed since.
    fn extant_msg(&mut self) -> GossipMsg {
        let extant = &self.extant;
        let set = self
            .extant_out
            .get_or_insert_with(|| Arc::new(extant.clone()));
        GossipMsg::Extant(Arc::clone(set))
    }

    /// The completion set as a message, on the terms of `extant_msg`.
    fn completion_msg(&mut self) -> GossipMsg {
        let completion = &self.completion;
        let bits = self
            .completion_out
            .get_or_insert_with(|| Arc::new(completion.clone()));
        GossipMsg::Completion(Arc::clone(bits))
    }

    /// Merges `set` into the extant set; a set that grew is sent afresh.
    fn absorb(&mut self, set: &ExtantSet) {
        if self.extant.merge(set) {
            self.extant_out = None;
        }
    }

    /// `msg` to every little-overlay neighbour; the caller checks that the
    /// probe sends this round before it builds `msg`.
    fn probing_sends(&self, msg: GossipMsg, out: &mut Vec<Outgoing<GossipMsg>>) {
        let neighbours = self.graph.neighbors(self.me);
        out.extend(neighbours.map(|v| Outgoing::new(NodeId::new(v), msg.clone())));
    }
}

impl SyncProtocol for Gossip {
    type Msg = GossipMsg;
    type Output = ExtantSet;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<GossipMsg>>) {
        let Some((stage, phase, step)) = self.locate(round.as_u64()) else {
            return;
        };
        match (stage, step) {
            // Phase round 1: little survivors reach out along G_i.
            (Stage::BuildExtant, Step::Inquiry) => {
                if self.is_little() && self.survived_last_phase {
                    let extant = &self.extant;
                    let n = extant.len();
                    let targets = Self::targets(&self.part1, self.me, n, phase);
                    out.extend(
                        targets
                            .filter(|&v| !extant.is_present(v))
                            .map(|v| Outgoing::new(NodeId::new(v), GossipMsg::Inquiry)),
                    );
                }
            }
            (Stage::BuildCompletion, Step::Inquiry) => {
                if self.is_little() && self.survived_last_phase {
                    // First pass stages the targets (marking as it goes),
                    // second pass attaches the shared payload; `out` itself
                    // is the staging area, so no side list is built.
                    let staged_from = out.len();
                    let n = self.completion.len();
                    for v in Self::targets(&self.part1, self.me, n, phase) {
                        if !self.completion.get(v) {
                            self.completion.set(v, true);
                            out.push(Outgoing::new(NodeId::new(v), GossipMsg::Inquiry));
                        }
                    }
                    if out.len() > staged_from {
                        self.completion_out = None;
                        let msg = self.extant_msg();
                        for staged in out.iter_mut().skip(staged_from) {
                            staged.msg = msg.clone();
                        }
                    }
                }
            }
            // Phase round 2: respond to inquiries (Part 1 only).
            (Stage::BuildExtant, Step::Response) => {
                let rumor = self.extant.rumor_of(self.me).unwrap_or_default();
                let node = self.me as u64;
                self.part1
                    .answer(Some(|| GossipMsg::Pair { node, rumor }), out);
            }
            (Stage::BuildCompletion, Step::Response) => {}
            // Probing rounds.
            (Stage::BuildExtant, Step::Other) => {
                if self.probe.should_send() {
                    let msg = self.extant_msg();
                    self.probing_sends(msg, out);
                }
            }
            (Stage::BuildCompletion, Step::Other) => {
                if self.probe.should_send() {
                    let msg = self.completion_msg();
                    self.probing_sends(msg, out);
                }
            }
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<GossipMsg>]) {
        let r = round.as_u64();
        if let Some((stage, _, step)) = self.locate(r) {
            match step {
                Step::Inquiry => {
                    if stage == Stage::BuildExtant {
                        self.part1
                            .record(inbox, |d| matches!(d.msg, GossipMsg::Inquiry));
                    }
                    // In Part 2, absorb pushed extant sets.
                    for msg in inbox {
                        if let GossipMsg::Extant(set) = &msg.msg {
                            self.absorb(set);
                        }
                    }
                }
                Step::Response => {
                    for msg in inbox {
                        match &msg.msg {
                            GossipMsg::Pair { node, rumor }
                                if self.extant.update(*node as usize, *rumor) =>
                            {
                                self.extant_out = None;
                            }
                            GossipMsg::Extant(set) => self.absorb(set),
                            _ => {}
                        }
                    }
                    // A fresh probing instance starts after the exchange
                    // rounds of each phase.
                    if self.is_little() {
                        self.probe.reset(self.survived_last_phase);
                    }
                }
                Step::Other => {
                    let mut received = 0;
                    for msg in inbox {
                        match &msg.msg {
                            GossipMsg::Extant(set) => {
                                received += 1;
                                self.absorb(set);
                            }
                            GossipMsg::Completion(bits) => {
                                received += 1;
                                if self.completion.join_in_place(bits) {
                                    self.completion_out = None;
                                }
                            }
                            _ => {}
                        }
                    }
                    self.probe.observe_round(received);
                    if self.probe.finished() && self.is_little() {
                        self.survived_last_phase = self.probe.survived();
                    }
                }
            }
        }
        if r + 1 >= self.total_rounds() {
            self.decided = Some(self.extant.clone());
            self.halted = true;
        }
    }

    fn output(&self) -> Option<ExtantSet> {
        self.decided.clone()
    }

    fn has_halted(&self) -> bool {
        self.halted
    }

    /// A node that is not little never initiates anything: it answers an
    /// inquiry, absorbs a pushed set, and decides in the last round — so
    /// with no inquirer to answer it sleeps until a message or that round.
    /// Little nodes inquire, push or probe in almost every round of every
    /// phase and keep the default.
    fn quiet_until(&self, _now: Round) -> Option<Round> {
        let idle = !self.is_little() && !self.part1.owed();
        idle.then(|| Round::new(self.total_rounds().saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dft_sim::{check, NoFaults, RandomCrashes, Runner, Violation};

    fn rumors(n: usize) -> Vec<Rumor> {
        (0..n).map(|i| 1000 + i as u64).collect()
    }

    fn run_gossip(
        n: usize,
        t: usize,
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
        seed: u64,
    ) -> dft_sim::ExecutionReport<ExtantSet> {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let rumors = rumors(n);
        let nodes = Gossip::for_all_nodes(&config, &rumors).unwrap();
        let total = GossipConfig::from_system(&config).unwrap().total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        let report = runner.run(total + 2);
        assert_eq!(check(&report, &bounds::gossip(&config, &rumors)), Ok(()));
        report
    }

    #[test]
    fn the_config_builds_every_inquiry_phase() {
        let config = SystemConfig::new(60, 8).unwrap().with_seed(3);
        let family = GossipConfig::from_system(&config).unwrap().family;
        assert_eq!(family.built_phases(), family.phases());
    }

    /// `set` with node `idx`'s pair dropped (`None`) or its rumor replaced.
    fn edited(set: &ExtantSet, idx: usize, rumor: Option<Rumor>) -> ExtantSet {
        let mut out = ExtantSet::nil(set.len());
        for (i, r) in set.pairs() {
            match (i == idx, rumor) {
                (false, _) => out.update(i, r),
                (true, Some(other)) => out.update(i, other),
                (true, None) => false,
            };
        }
        out
    }

    /// The verdict of [`bounds::gossip`] on a fault-free run's report with
    /// node 5's decision replaced by `set`.
    fn with_decision_of_5(
        set: impl FnOnce(&ExtantSet) -> Option<ExtantSet>,
    ) -> Result<(), Violation> {
        let (n, t, seed) = (60, 8, 1);
        let mut report = run_gossip(n, t, Box::new(NoFaults), 0, seed);
        report.outputs[5] = set(report.outputs[5].as_ref().expect("decided"));
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        check(&report, &bounds::gossip(&config, &rumors(n)))
    }

    #[test]
    fn fault_free_every_node_learns_every_rumor() {
        let n = 60;
        let report = run_gossip(n, 8, Box::new(NoFaults), 0, 1);
        assert!(report
            .outputs
            .iter()
            .flatten()
            .all(|set| set.present_count() == n));
    }

    #[test]
    fn crashed_before_sending_is_excluded_and_operational_included() {
        let n = 80;
        let t = 10;
        // Crash a batch of little nodes at round 0 before they send anything.
        let adversary =
            dft_sim::FixedCrashSchedule::new().crash_all_at(0, (0..5).map(dft_sim::NodeId::new));
        let report = run_gossip(n, t, Box::new(adversary), t, 2);
        // Gossip condition (1): no decided set holds a node that crashed
        // before it sent anything.
        for id in report.non_faulty().iter() {
            let set = report.output_of(id).expect("decided");
            assert!((0..5).all(|crashed| !set.is_present(crashed)));
        }
    }

    #[test]
    fn gossip_under_random_crashes_keeps_condition_two() {
        let n = 100;
        let t = 15;
        let adversary = RandomCrashes::new(n, t, 20, 9);
        run_gossip(n, t, Box::new(adversary), t, 3);
    }

    #[test]
    fn gossip_violation_fires_on_an_undecided_node() {
        let termination = Err(Violation::Termination(5));
        assert_eq!(with_decision_of_5(|_| None), termination);
    }

    #[test]
    fn gossip_violation_fires_on_a_dropped_pair() {
        let dropped = |set: &ExtantSet| Some(edited(set, 9, None));
        let completeness = Err(Violation::Completeness(5, 9));
        assert_eq!(with_decision_of_5(dropped), completeness);
    }

    #[test]
    fn gossip_violation_fires_on_a_corrupted_rumor() {
        let corrupted = |set: &ExtantSet| Some(edited(set, 9, Some(7)));
        let genuineness = Err(Violation::Genuineness(5, 9));
        assert_eq!(with_decision_of_5(corrupted), genuineness);
    }

    #[test]
    fn an_unchanged_set_is_sent_again_as_the_same_allocation() {
        let config = SystemConfig::new(60, 8).unwrap().with_seed(1);
        let gossip = GossipConfig::from_system(&config).unwrap();
        let delta = gossip.delta;
        let mut node = Gossip::new(gossip, 0, 1000);
        // Rounds 2, 3 and 4 are probing rounds of Part 1's first phase.
        let probe = |node: &mut Gossip, round: u64| {
            let mut out = Vec::new();
            node.send(Round::new(round), &mut out);
            let keys: Vec<_> = out.iter().map(|o| o.msg.share_key()).collect();
            assert!(!keys.is_empty() && keys.windows(2).all(|w| w[0] == w[1]));
            keys[0].expect("an extant set is shared")
        };
        // `delta` copies of `set` from neighbours keep the probe running.
        let inbox = |set: ExtantSet| {
            let msg = GossipMsg::Extant(Arc::new(set));
            let from = (1..=delta).map(NodeId::new);
            from.map(|v| Delivered::new(v, msg.clone()))
                .collect::<Vec<_>>()
        };
        let mut nothing_new = ExtantSet::nil(60);
        nothing_new.update(0, 1000);
        let first = probe(&mut node, 2);
        node.receive(Round::new(2), &inbox(nothing_new));
        assert_eq!(probe(&mut node, 3), first, "no change: the same `Arc`");
        // Kept alive, so the next set cannot land at this one's address.
        let _sent = node.extant_out.clone();
        let mut one_new = ExtantSet::nil(60);
        one_new.update(7, 1007);
        node.receive(Round::new(3), &inbox(one_new));
        assert_ne!(
            probe(&mut node, 4),
            first,
            "a merge added a pair: a new set"
        );
        assert_eq!(node.extant.rumor_of(7), Some(1007));
    }

    #[test]
    fn rounds_are_polylogarithmic() {
        let config = SystemConfig::new(2000, 200).unwrap();
        let gossip = GossipConfig::from_system(&config).unwrap();
        let log_n = (2000f64).log2().ceil() as u64;
        let log_t = (1000f64).log2().ceil() as u64 + 2;
        assert!(
            gossip.total_rounds() <= 4 * log_n * (log_t + 4),
            "{} rounds",
            gossip.total_rounds()
        );
    }

    #[test]
    fn message_count_matches_theorem_9_shape() {
        // Theorem 9: O(n + t·log n·log t) messages, with the overlay degree
        // and probing duration as the hidden constant.  The run meets the
        // derived bound, which stays within that shape: the probing term
        // dominates at laptop scale (the all-to-all baseline, by contrast,
        // grows with n² per round — see the E6 benchmark for the crossover).
        let n = 100;
        let t = 10;
        let config = SystemConfig::new(n, t).unwrap().with_seed(4);
        let gossip_cfg = GossipConfig::from_system(&config).unwrap();
        run_gossip(n, t, Box::new(NoFaults), 0, 4);
        let degree = gossip_cfg.graph.max_degree() as u64;
        let log_n = (n as f64).log2().ceil() as u64;
        let log_t = (5.0 * t as f64).log2().ceil() as u64 + 2;
        let shape = 10 * n as u64 + 4 * (5 * t as u64) * log_n * log_t * degree;
        let bound = bounds::theorem9(&config).messages;
        assert!(bound < shape, "derived {bound} vs shape {shape}");
    }
}
