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
//! Theorem 6: `O(log t)` rounds and `O(t log t)` messages.  What a node
//! believes of the values and inquiries it is sent is its [`Trust`]: all of
//! them in the crash model, only signed ones in `AB-Consensus` Parts 3–4.

use std::sync::Arc;

use dft_overlay::{Graph, InquiryFamily};
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::inquiries::{Inquiries, Step, Targets};

/// Static configuration shared by every node running [`SpreadCommonValue`].
#[derive(Clone, Debug)]
pub struct ScvConfig {
    /// The constant-degree broadcast graph `H`.
    pub h_graph: Arc<Graph>,
    /// The per-phase inquiry family `G_i` of Lemma 5.
    pub family: Arc<InquiryFamily>,
    /// Part 2, which starts when Part 1's broadcast ends: undecided nodes
    /// ask the little nodes if `t² ≤ n`, their `G_i` neighbours otherwise.
    /// The single-port adaptation (Section 8) always asks along `G_i`:
    /// polling schedules must be data-independent, which the per-phase
    /// graphs provide but the "ask every little node" broadcast does not.
    pub(crate) part2: Inquiries,
}

impl ScvConfig {
    /// Derives the configuration from a [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/5`.
    pub fn from_system(config: &SystemConfig) -> CoreResult<Self> {
        config.require_few_crashes()?;
        let family = config.scv_family();
        let targets = if config.t * config.t <= config.n {
            Targets::Little(config.little_count())
        } else {
            Targets::Family(Arc::clone(&family))
        };
        Ok(ScvConfig {
            h_graph: config.h_graph(),
            part2: Inquiries::two_round(config.scv_broadcast_rounds(), targets),
            family,
        })
    }

    /// Total number of rounds of the protocol.
    pub fn total_rounds(&self) -> u64 {
        self.part2.end()
    }
}

/// What a node running [`SpreadCommonValue`] believes: which values it
/// adopts, which inquiries it records, and what its own inquiry says.
pub trait Trust<V>: Clone + std::fmt::Debug + Send + 'static {
    /// What an inquiry carries.
    type Inquiry: Payload;
    /// Whether a value this node is sent is adopted.
    fn adopts(&self, value: &V) -> bool;
    /// Whether an inquiry from node `from` is recorded, to be answered.
    fn records(&self, from: usize, inquiry: &Self::Inquiry) -> bool;
    /// This node's own inquiry.
    fn inquiry(&self) -> Self::Inquiry;
}

/// The crash model's [`Trust`]: every value and every inquiry is genuine,
/// and an inquiry carries nothing.
#[derive(Clone, Copy, Debug)]
pub struct TrustAll;

impl<V> Trust<V> for TrustAll {
    type Inquiry = ();

    fn adopts(&self, _value: &V) -> bool {
        true
    }

    fn records(&self, _from: usize, _inquiry: &()) -> bool {
        true
    }

    fn inquiry(&self) {}
}

/// Messages of `Spread-Common-Value`.
#[derive(Clone, Debug, PartialEq)]
pub enum ScvMsg<V, I = ()> {
    /// The common value, forwarded during Part 1 broadcast.
    Value(V),
    /// An inquiry from an undecided node (Part 2).
    Inquiry(I),
    /// A response carrying the common value (Part 2).
    Response(V),
}

impl<V: Payload, I: Payload> Payload for ScvMsg<V, I> {
    fn bit_len(&self) -> u64 {
        match self {
            ScvMsg::Value(v) | ScvMsg::Response(v) => v.bit_len(),
            ScvMsg::Inquiry(inquiry) => inquiry.bit_len(),
        }
    }

    /// Only a `Value` is keyed: a replayed `Value` can meet a `Response`
    /// carrying the same shared value in one round, and one key must stand
    /// for one message.
    fn share_key(&self) -> Option<usize> {
        match self {
            ScvMsg::Value(v) => v.share_key(),
            ScvMsg::Inquiry(_) | ScvMsg::Response(_) => None,
        }
    }
}

/// Per-node state machine for `Spread-Common-Value`, believing what `A`
/// does.
#[derive(Clone, Debug)]
pub struct SpreadCommonValue<V, A = TrustAll> {
    h_graph: Arc<Graph>,
    me: usize,
    common: Option<V>,
    forward_pending: bool,
    part2: Inquiries,
    trust: A,
    halted: bool,
}

impl<V: Payload, A: Trust<V>> SpreadCommonValue<V, A> {
    /// Creates the state machine for node `me`.  `initial` is the common
    /// value for initialized nodes and `None` (null) for the rest.
    pub fn new(config: ScvConfig, me: usize, initial: Option<V>, trust: A) -> Self {
        SpreadCommonValue {
            part2: config.part2,
            h_graph: config.h_graph,
            me,
            forward_pending: initial.is_some(),
            common: initial,
            trust,
            halted: false,
        }
    }

    /// Total rounds this protocol runs for.
    pub fn total_rounds(&self) -> u64 {
        self.part2.end()
    }
}

impl<V: Payload> SpreadCommonValue<V> {
    /// Builds state machines for all nodes in the crash model; `initials[i]`
    /// is node `i`'s initial common value (or `None`).
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
            .map(|(me, init)| Self::new(shared.clone(), me, init.clone(), TrustAll))
            .collect())
    }
}

impl<V: Payload, A: Trust<V>> SyncProtocol for SpreadCommonValue<V, A> {
    type Msg = ScvMsg<V, A::Inquiry>;
    type Output = V;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<Self::Msg>>) {
        let r = round.as_u64();
        if r < self.part2.start() {
            // Part 1: forward the value to H-neighbours when newly adopted.
            if self.forward_pending {
                self.forward_pending = false;
                if let Some(value) = &self.common {
                    out.extend(
                        self.h_graph
                            .neighbors(self.me)
                            .map(|v| Outgoing::new(NodeId::new(v), ScvMsg::Value(value.clone()))),
                    );
                }
            }
            return;
        }
        match self.part2.at(r) {
            // First round of a phase: undecided nodes inquire.
            Some((phase, Step::Inquiry)) if self.common.is_none() => {
                let inquiry = self.trust.inquiry();
                let targets = self.part2.targets(self.me, phase);
                out.extend(
                    targets
                        .map(|v| Outgoing::new(NodeId::new(v), ScvMsg::Inquiry(inquiry.clone()))),
                );
            }
            // Second round: decided nodes answer last round's inquirers.
            Some((_, Step::Response)) => {
                let response = self.common.as_ref().map(|v| || ScvMsg::Response(v.clone()));
                self.part2.answer(response, out);
            }
            _ => {}
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<Self::Msg>]) {
        let r = round.as_u64();
        if r < self.part2.start() {
            for msg in inbox {
                if let ScvMsg::Value(v) = &msg.msg {
                    if self.common.is_none() && self.trust.adopts(v) {
                        self.common = Some(v.clone());
                        self.forward_pending = true;
                    }
                }
            }
        } else {
            match self.part2.at(r) {
                // Recorded with or without the value: `send` checks it.
                Some((_, Step::Inquiry)) => {
                    let trust = &self.trust;
                    self.part2.record(inbox, |d| {
                        matches!(&d.msg, ScvMsg::Inquiry(inquiry) if trust.records(d.from.index(), inquiry))
                    });
                }
                Some((_, Step::Response)) if self.common.is_none() => {
                    self.common = inbox.iter().find_map(|d| match &d.msg {
                        ScvMsg::Response(v) if self.trust.adopts(v) => Some(v.clone()),
                        _ => None,
                    });
                }
                _ => {}
            }
        }
        if r + 1 >= self.part2.end() {
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
        let part2 = Round::new(self.part2.start());
        if self.common.is_none() {
            // Before Part 2 nobody is owed an answer: only an inquiry-round
            // `receive` records inquirers.
            return (now < part2).then_some(part2);
        }
        // Forwarding happens in Part 1 only.
        let forwards_next = self.forward_pending && now + 1 < part2;
        let idle = !forwards_next && !self.part2.owed();
        idle.then(|| Round::new(self.part2.end().saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dft_sim::{check, ExecutionReport, NoFaults, RandomCrashes, Runner, Spec, Violation};

    fn run_scv(
        n: usize,
        t: usize,
        initialized: usize,
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
    ) -> (ExecutionReport<bool>, SystemConfig) {
        let config = SystemConfig::new(n, t).unwrap().with_seed(21);
        // The `initialized` highest-index nodes know the value `true`; this
        // leaves little nodes uninitialised, exercising the inquiry path too.
        let initials: Vec<Option<bool>> = (0..n)
            .map(|i| (i >= n - initialized).then_some(true))
            .collect();
        let nodes = SpreadCommonValue::for_all_nodes(&config, &initials).unwrap();
        let total = ScvConfig::from_system(&config).unwrap().total_rounds();
        let mut runner = Runner::with_adversary(nodes, adversary, budget).unwrap();
        (runner.run(total + 2), config)
    }

    /// Theorem 6's verdict on a run with at least `3n/5` nodes initialized.
    fn spreads(run: (ExecutionReport<bool>, SystemConfig)) -> Result<(), Violation> {
        let (report, config) = run;
        check(&report, &bounds::scv(&config, &[true]))
    }

    #[test]
    fn spreads_to_everyone_without_faults_small_t() {
        // t² ≤ n branch.
        assert_eq!(spreads(run_scv(100, 8, 70, Box::new(NoFaults), 0)), Ok(()));
    }

    #[test]
    fn spreads_to_everyone_without_faults_large_t() {
        // t² > n branch (phase-based inquiries).
        assert_eq!(spreads(run_scv(120, 20, 90, Box::new(NoFaults), 0)), Ok(()));
    }

    #[test]
    fn spreads_under_random_crashes() {
        let n = 150;
        let t = 18;
        let adversary = RandomCrashes::new(n, t, 10, 5);
        // With 110 initialized nodes the broadcast reaches everyone, little
        // nodes included.
        assert_eq!(spreads(run_scv(n, t, 110, Box::new(adversary), t)), Ok(()));
    }

    #[test]
    fn no_initial_value_means_no_decisions() {
        let n = 80;
        let t = 8;
        let (report, _) = run_scv(n, t, 0, Box::new(NoFaults), 0);
        assert!(report.outputs.iter().all(Option::is_none));
        // Undecided nodes still sent inquiries; nobody answered.
        assert!(report.metrics.messages > 0);
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
        let fresh = || {
            let scv = ScvConfig::from_system(&config).unwrap();
            let family = Targets::Family(Arc::clone(&scv.family));
            ScvConfig {
                part2: Inquiries::two_round(0, family),
                ..scv
            }
        };
        let nodes = |scv: &ScvConfig| -> Vec<_> {
            (0..n)
                .map(|me| {
                    let initial = (me == n - 1).then_some(true);
                    SpreadCommonValue::new(scv.clone(), me, initial, TrustAll)
                })
                .collect()
        };
        let serial_config = fresh();
        assert_eq!(serial_config.family.built_phases(), 0);
        let rounds = serial_config.total_rounds() + 2;
        let mut serial = Runner::new(nodes(&serial_config)).unwrap();
        serial.enable_trace();
        let report = serial.run(rounds);
        assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
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
        let run = run_scv(n, t, 140, Box::new(NoFaults), 0);
        // Theorem 6 charges O(t log t) to Part 2 plus O(n) for Part 1
        // forwarding over the constant-degree H.
        let messages = run.0.metrics.messages;
        assert!(messages < (40 * n) as u64, "{messages} messages");
        assert_eq!(spreads(run), Ok(()));
    }
}
