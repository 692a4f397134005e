//! The single-port adaptation (Section 8, Theorem 12): `Linear-Consensus`.
//!
//! In the single-port model a node may send at most one message and poll at
//! most one buffered in-port per round.  The paper adapts the multi-port
//! consensus by expanding every multi-port round into `2d` single-port
//! rounds: `d` rounds in which the node emits its queued messages one by one,
//! followed by `d` rounds in which it drains its (statically known) in-ports
//! one by one.  The polling schedule must be *data-independent*, which the
//! overlay graphs provide: in any given multi-port round, the ports worth
//! checking are exactly the node's neighbours in the overlay used by that
//! round.
//!
//! [`SinglePortAdapter`] implements that compilation generically for any
//! [`SyncProtocol`] given a [`PortPlan`] describing, per multi-port round,
//! how many slots to allot and which ports each node polls.
//! [`LinearConsensus`] instantiates it for
//! [`FewCrashesConsensus`], matching Theorem 12's
//! `O(t + log n)` running time and `O(n + t log n)` communication.

use std::sync::Arc;

use dft_overlay::Graph;
use dft_sim::{Delivered, NodeId, Outgoing, Round, SinglePortProtocol, SyncProtocol};

use crate::config::SystemConfig;
use crate::error::CoreResult;
use crate::few_crashes::{FewCrashesConfig, FewCrashesConsensus};
use crate::values::JoinValue;

/// A static communication plan: how a multi-port protocol's rounds map onto
/// single-port slots.  (`Send + 'static` so adapted protocols satisfy the
/// simulator's threading bounds: a sharded execution moves each chunk's
/// nodes onto a `'static` worker thread; plans are plain owned data.)
pub trait PortPlan: Clone + Send + 'static {
    /// Number of send slots (= number of poll slots) allotted to multi-port
    /// round `mp_round`.  Must be at least 1 and identical at every node.
    fn slots(&self, mp_round: u64) -> usize;

    /// The in-ports node `me` polls during multi-port round `mp_round`, in
    /// order; at most [`PortPlan::slots`] of them are used.
    fn poll_list(&self, me: usize, mp_round: u64) -> Vec<usize>;
}

/// Wraps a multi-port [`SyncProtocol`] into a [`SinglePortProtocol`] using a
/// [`PortPlan`].
///
/// Each multi-port round `r` becomes `2·slots(r)` single-port rounds: the
/// node first emits its queued messages (one per round, excess beyond the
/// slot budget is dropped — plans must budget for the worst-case fanout),
/// then polls its planned ports one per round.  The inner protocol's
/// `receive` is invoked once all slots of the round have elapsed.
#[derive(Clone, Debug)]
pub struct SinglePortAdapter<P: SyncProtocol, L: PortPlan> {
    inner: P,
    plan: L,
    me: usize,
    mp_round: u64,
    slot: usize,
    current_slots: usize,
    started: bool,
    pending: Vec<Outgoing<P::Msg>>,
    poll_ports: Vec<usize>,
    inbox: Vec<Delivered<P::Msg>>,
}

impl<P: SyncProtocol, L: PortPlan> SinglePortAdapter<P, L> {
    /// Wraps `inner` (running at node `me`) under `plan`.
    pub fn new(inner: P, plan: L, me: usize) -> Self {
        SinglePortAdapter {
            inner,
            plan,
            me,
            mp_round: 0,
            slot: 0,
            current_slots: 0,
            started: false,
            pending: Vec::new(),
            poll_ports: Vec::new(),
            inbox: Vec::new(),
        }
    }

    /// Number of single-port rounds needed to simulate `mp_rounds` multi-port
    /// rounds under `plan`.
    pub fn sp_rounds_for(plan: &L, mp_rounds: u64) -> u64 {
        (0..mp_rounds)
            .map(|r| 2 * plan.slots(r).max(1) as u64)
            .sum()
    }

    /// Access to the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn begin_round_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.current_slots = self.plan.slots(self.mp_round).max(1);
        self.pending.clear();
        self.inner
            .send(Round::new(self.mp_round), &mut self.pending);
        self.pending.truncate(self.current_slots);
        self.poll_ports = self.plan.poll_list(self.me, self.mp_round);
        self.poll_ports.truncate(self.current_slots);
    }

    fn advance_slot(&mut self) {
        self.slot += 1;
        if self.slot >= 2 * self.current_slots {
            // Ownership ping-pong so the inbox keeps its capacity.
            let inbox = std::mem::take(&mut self.inbox);
            self.inner.receive(Round::new(self.mp_round), &inbox);
            self.inbox = inbox;
            self.inbox.clear();
            self.mp_round += 1;
            self.slot = 0;
            self.started = false;
            self.pending.clear();
            self.poll_ports.clear();
        }
    }
}

impl<P: SyncProtocol, L: PortPlan> SinglePortProtocol for SinglePortAdapter<P, L> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, _round: Round) -> Option<Outgoing<P::Msg>> {
        if self.inner.has_halted() {
            return None;
        }
        self.begin_round_if_needed();
        if self.slot < self.current_slots {
            return self.pending.get(self.slot).cloned();
        }
        None
    }

    fn poll(&mut self, _round: Round) -> Option<NodeId> {
        if self.inner.has_halted() {
            return None;
        }
        self.begin_round_if_needed();
        let result = if self.slot >= self.current_slots {
            self.poll_ports
                .get(self.slot - self.current_slots)
                .map(|&p| NodeId::new(p))
        } else {
            None
        };
        self.advance_slot();
        result
    }

    fn receive(&mut self, _round: Round, from: NodeId, msgs: &mut Vec<P::Msg>) {
        for msg in msgs.drain(..) {
            self.inbox.push(Delivered::new(from, msg));
        }
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn has_halted(&self) -> bool {
        self.inner.has_halted()
    }
}

/// The communication plan of `Linear-Consensus`: one entry of slots and poll
/// ports per multi-port round of [`FewCrashesConsensus`].
#[derive(Clone, Debug)]
pub struct LinearConsensusPlan {
    n: usize,
    little: usize,
    aea_part1_and_2: u64,
    aea_total: u64,
    scv_part1: u64,
    scv_phases: u64,
    little_graph: Arc<Graph>,
    h_graph: Arc<Graph>,
    family: Arc<dft_overlay::InquiryFamily>,
    inquiry_cap: usize,
}

impl LinearConsensusPlan {
    /// Builds the plan from the composed consensus configuration.
    pub fn new(config: &FewCrashesConfig) -> Self {
        let t = (config.aea.little / 5).max(1);
        LinearConsensusPlan {
            n: config.aea.n,
            little: config.aea.little,
            aea_part1_and_2: config.aea.part1_rounds + config.aea.gamma,
            aea_total: config.aea.total_rounds(),
            scv_part1: config.scv.part1_rounds,
            scv_phases: config.scv.inquiry_phases(),
            little_graph: config.aea.graph.clone(),
            h_graph: config.scv.h_graph.clone(),
            family: config.scv.family.clone(),
            inquiry_cap: 3 * t + 1,
        }
    }

    /// Total multi-port rounds of the underlying consensus.
    pub fn mp_rounds(&self) -> u64 {
        self.aea_total + self.scv_part1 + 2 * self.scv_phases
    }

    fn scv_phase_of(&self, mp_round: u64) -> Option<(u64, bool)> {
        let start = self.aea_total + self.scv_part1;
        if mp_round < start {
            return None;
        }
        let offset = mp_round - start;
        let phase = offset / 2 + 1;
        if phase > self.scv_phases {
            return None;
        }
        Some((phase, offset.is_multiple_of(2)))
    }

    fn phase_degree(&self, phase: u64) -> usize {
        self.family
            .degree(phase as usize)
            .min(self.inquiry_cap)
            .max(1)
    }
}

impl PortPlan for LinearConsensusPlan {
    fn slots(&self, mp_round: u64) -> usize {
        if mp_round < self.aea_part1_and_2 {
            self.little_graph.max_degree().max(1)
        } else if mp_round < self.aea_total {
            // AEA Part 3: little nodes fan out to their related nodes.
            self.n.div_ceil(self.little.max(1)).max(1)
        } else if mp_round < self.aea_total + self.scv_part1 {
            self.h_graph.max_degree().max(1)
        } else if let Some((phase, _)) = self.scv_phase_of(mp_round) {
            self.phase_degree(phase)
        } else {
            1
        }
    }

    fn poll_list(&self, me: usize, mp_round: u64) -> Vec<usize> {
        if mp_round < self.aea_part1_and_2 {
            if me < self.little {
                self.little_graph.neighbors(me).to_vec()
            } else {
                Vec::new()
            }
        } else if mp_round < self.aea_total {
            if me >= self.little {
                vec![me % self.little.max(1)]
            } else {
                Vec::new()
            }
        } else if mp_round < self.aea_total + self.scv_part1 {
            self.h_graph.neighbors(me).to_vec()
        } else if let Some((phase, inquiry_round)) = self.scv_phase_of(mp_round) {
            // Inquiry round: decided nodes listen for inquiries from their
            // G_i neighbours.  Response round: undecided nodes listen for
            // responses from the same neighbours.
            let _ = inquiry_round;
            let mut ports = self.family.graph(phase as usize).neighbors(me).to_vec();
            ports.truncate(self.phase_degree(phase));
            ports
        } else {
            Vec::new()
        }
    }
}

/// `Linear-Consensus`: the single-port adaptation of
/// [`FewCrashesConsensus`].
pub type LinearConsensus<V> = SinglePortAdapter<FewCrashesConsensus<V>, LinearConsensusPlan>;

/// Builds `Linear-Consensus` state machines for all nodes, together with the
/// number of single-port rounds required to finish.
///
/// # Errors
///
/// Propagates configuration errors (requires `t < n/5`).
///
/// # Panics
///
/// Panics if `inputs.len() != config.n`.
pub fn linear_consensus_for_all_nodes<V: JoinValue>(
    config: &SystemConfig,
    inputs: &[V],
) -> CoreResult<(Vec<LinearConsensus<V>>, u64)> {
    assert_eq!(inputs.len(), config.n, "one input per node required");
    let mut shared = FewCrashesConfig::from_system(config)?;
    shared.scv.force_phase_inquiry = true;
    let plan = LinearConsensusPlan::new(&shared);
    let sp_rounds = SinglePortAdapter::<FewCrashesConsensus<V>, LinearConsensusPlan>::sp_rounds_for(
        &plan,
        plan.mp_rounds(),
    );
    let nodes = inputs
        .iter()
        .enumerate()
        .map(|(me, input)| {
            SinglePortAdapter::new(
                FewCrashesConsensus::new(shared.clone(), me, input.clone()),
                plan.clone(),
                me,
            )
        })
        .collect();
    Ok((nodes, sp_rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::{NoFaults, RandomCrashes, SinglePortRunner};

    fn run_linear(
        n: usize,
        t: usize,
        inputs: &[bool],
        adversary: Box<dyn dft_sim::CrashAdversary>,
        budget: usize,
        seed: u64,
    ) -> (dft_sim::ExecutionReport<bool>, u64) {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let (nodes, sp_rounds) = linear_consensus_for_all_nodes(&config, inputs).unwrap();
        let mut runner = SinglePortRunner::with_adversary(nodes, adversary, budget).unwrap();
        (runner.run(sp_rounds + 4), sp_rounds)
    }

    #[test]
    fn fault_free_single_port_consensus() {
        let n = 60;
        let t = 7;
        let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let (report, _) = run_linear(n, t, &inputs, Box::new(NoFaults), 0, 1);
        assert!(report.all_non_faulty_decided(), "termination");
        assert!(report.non_faulty_deciders_agree(), "agreement");
        let agreed = report.agreed_value().copied().unwrap();
        assert!(inputs.contains(&agreed), "validity");
    }

    #[test]
    fn single_port_consensus_under_crashes() {
        let n = 80;
        let t = 10;
        let inputs = vec![true; n];
        let adversary = RandomCrashes::new(n, t, 100, 3);
        let (report, _) = run_linear(n, t, &inputs, Box::new(adversary), t, 2);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&true));
    }

    #[test]
    fn each_node_sends_and_polls_at_most_once_per_round() {
        // Enforced structurally by the SinglePortProtocol trait; this checks
        // the per-round message count never exceeds n.
        let n = 40;
        let t = 5;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let (report, _) = run_linear(n, t, &inputs, Box::new(NoFaults), 0, 4);
        assert!(report.metrics.peak_messages_in_a_round() <= n as u64);
    }

    #[test]
    fn sp_round_count_is_linear_in_t_plus_log_n() {
        let n = 400;
        let t = 40;
        let config = SystemConfig::new(n, t).unwrap();
        let mut shared = FewCrashesConfig::from_system(&config).unwrap();
        shared.scv.force_phase_inquiry = true;
        let plan = LinearConsensusPlan::new(&shared);
        let sp_rounds = SinglePortAdapter::<FewCrashesConsensus<bool>, _>::sp_rounds_for(
            &plan,
            plan.mp_rounds(),
        );
        // Theorem 12: O(t + log n) with the overlay degree as the constant.
        let degree = plan.little_graph.max_degree() as u64;
        let log_n = (n as f64).log2().ceil() as u64;
        let bound = 2 * degree * (5 * t as u64 + 3 * log_n + 10)
            + 2 * (n as u64 / (5 * t as u64).max(1) + 1)
            + 2 * (3 * t as u64 + 1) * (2 * log_n + 4)
            + 2 * 16 * (2 * log_n + 6);
        assert!(sp_rounds <= bound, "{sp_rounds} vs {bound}");
    }

    #[test]
    fn adapter_truncates_excess_fanout() {
        // A plan with a single slot forces truncation without panicking.
        #[derive(Clone)]
        struct OneSlot;
        impl PortPlan for OneSlot {
            fn slots(&self, _mp_round: u64) -> usize {
                1
            }
            fn poll_list(&self, _me: usize, _mp_round: u64) -> Vec<usize> {
                vec![0]
            }
        }
        let config = SystemConfig::new(30, 3).unwrap();
        let shared = FewCrashesConfig::from_system(&config).unwrap();
        let inner = FewCrashesConsensus::<bool>::new(shared, 1, true);
        let mut adapted = SinglePortAdapter::new(inner, OneSlot, 1);
        for r in 0..10u64 {
            let _ = SinglePortProtocol::send(&mut adapted, Round::new(r));
            let _ = SinglePortProtocol::poll(&mut adapted, Round::new(r));
        }
        assert!(!adapted.has_halted());
    }
}
