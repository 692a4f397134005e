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
use crate::inquiries::{Inquiries, Targets};
use crate::values::JoinValue;

/// A static communication plan: how a multi-port protocol's rounds map onto
/// single-port slots.  (`Send + 'static` so adapted protocols satisfy the
/// simulator's threading bounds: a sharded execution moves each chunk's
/// nodes onto a `'static` worker thread; plans are plain owned data.)
pub trait PortPlan: Clone + Send + 'static {
    /// Number of send slots (= number of poll slots) allotted to multi-port
    /// round `mp_round`.  Must be at least 1 and identical at every node.
    fn slots(&self, mp_round: u64) -> usize;

    /// Appends to `ports` the in-ports node `me` polls during multi-port
    /// round `mp_round`, in order; at most [`PortPlan::slots`] of them are
    /// used.
    fn poll_list(&self, me: usize, mp_round: u64, ports: &mut Vec<usize>);
}

/// Wraps a multi-port [`SyncProtocol`] into a [`SinglePortProtocol`] using a
/// [`PortPlan`].
///
/// Each multi-port round `r` becomes `2·slots(r)` single-port rounds: the
/// node first emits its queued messages (one per round, excess beyond the
/// slot budget is dropped — plans must budget for the worst-case fanout),
/// then polls its planned ports one per round.  The inner protocol's
/// `receive` is invoked once all slots of the round have elapsed.
///
/// The adapter is driven by the round number, not by how often it is
/// called: the slot is the distance from the single-port round the current
/// multi-port round began in, so a runner may leave out every call
/// [`SinglePortProtocol::quiet_until`] says is idle.  Executions start at
/// round 0.
#[derive(Clone, Debug)]
pub struct SinglePortAdapter<P: SyncProtocol, L: PortPlan> {
    inner: P,
    plan: L,
    me: usize,
    mp_round: u64,
    /// The single-port round in which multi-port round `mp_round` began.
    mp_start: u64,
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
            mp_start: 0,
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

    /// The slot `round` is within the current multi-port round, opening
    /// that round (the inner `send`, this node's share of the plan) on its
    /// first slot.
    fn slot_at(&mut self, round: Round) -> usize {
        if !self.started {
            self.started = true;
            self.current_slots = self.plan.slots(self.mp_round).max(1);
            self.inner
                .send(Round::new(self.mp_round), &mut self.pending);
            self.pending.truncate(self.current_slots);
            self.plan
                .poll_list(self.me, self.mp_round, &mut self.poll_ports);
            self.poll_ports.truncate(self.current_slots);
        }
        let slot = (round.as_u64() - self.mp_start) as usize;
        debug_assert!(
            slot < 2 * self.current_slots,
            "called past the closing slot"
        );
        slot
    }

    /// Closes the current multi-port round: the inner `receive`, then the
    /// next one begins in single-port round `next_start`.
    fn close_mp_round(&mut self, next_start: u64) {
        // Ownership ping-pong so the inbox keeps its capacity.
        let inbox = std::mem::take(&mut self.inbox);
        self.inner.receive(Round::new(self.mp_round), &inbox);
        self.inbox = inbox;
        self.inbox.clear();
        self.mp_round += 1;
        self.mp_start = next_start;
        self.started = false;
        self.pending.clear();
        self.poll_ports.clear();
    }
}

impl<P: SyncProtocol, L: PortPlan> SinglePortProtocol for SinglePortAdapter<P, L> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round) -> Option<Outgoing<P::Msg>> {
        if self.inner.has_halted() {
            return None;
        }
        let slot = self.slot_at(round);
        // Send slots come first; `pending` is no longer than they are.
        self.pending.get(slot).cloned()
    }

    fn poll(&mut self, round: Round) -> Option<NodeId> {
        if self.inner.has_halted() {
            return None;
        }
        let slot = self.slot_at(round);
        let port = slot
            .checked_sub(self.current_slots)
            .and_then(|poll_slot| self.poll_ports.get(poll_slot))
            .map(|&p| NodeId::new(p));
        if slot + 1 == 2 * self.current_slots {
            // What this last poll finds arrives after the inner `receive`
            // and is carried into the next multi-port round's inbox.
            self.close_mp_round(round.as_u64() + 1);
        }
        port
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

    /// Within a multi-port round the adapter acts in three places only: the
    /// send slots it has a queued message for, the poll slots it has a
    /// planned port for, and the slot that closes the round; the round after
    /// that opens the next one.
    fn quiet_until(&self, now: Round) -> Option<Round> {
        if !self.started {
            return None;
        }
        let next = (now.as_u64() + 1 - self.mp_start) as usize;
        let polls_end = self.current_slots + self.poll_ports.len();
        let slot = if next < self.pending.len() {
            next
        } else if next < polls_end && !self.poll_ports.is_empty() {
            next.max(self.current_slots)
        } else {
            2 * self.current_slots - 1
        };
        Some(Round::new(self.mp_start + slot as u64))
    }
}

/// The communication plan of `Linear-Consensus`: one entry of slots and poll
/// ports per multi-port round of [`FewCrashesConsensus`].
///
/// Everything [`PortPlan::slots`] returns is computed once here: a slot
/// width is a maximum over a whole overlay graph, and the adapter asks for
/// it once per node per multi-port round.
#[derive(Clone, Debug)]
pub struct LinearConsensusPlan {
    little: usize,
    aea_part1_and_2: u64,
    aea_total: u64,
    /// SCV's inquiry phases, in SCV's rounds; its Part 1 ends where they
    /// start.
    scv: Inquiries,
    little_graph: Arc<Graph>,
    h_graph: Arc<Graph>,
    /// Slot width of AEA Parts 1–2: the little overlay's maximum degree.
    little_slots: usize,
    /// Slot width of AEA Part 3: a little node's fan-out to its related
    /// nodes.
    notify_slots: usize,
    /// Slot width of SCV Part 1: the maximum degree of `H`.
    h_slots: usize,
    /// Slot width of each SCV inquiry phase (`phase_slots[i]` for phase
    /// `i + 1`): the phase graph's degree, capped at `3t + 1`.
    phase_slots: Arc<[usize]>,
}

impl LinearConsensusPlan {
    /// Builds the plan from the composed consensus configuration.  Every
    /// node polls its `G_i` neighbours in every inquiry phase, so the whole
    /// inquiry family is built here.
    pub fn new(config: &FewCrashesConfig) -> Self {
        config.scv.family.build_all();
        let (n, little) = (config.aea.n, config.aea.little);
        let t = (little / 5).max(1);
        let inquiry_cap = 3 * t + 1;
        let scv = config.scv.part2.clone();
        let phase_slots = (1..=scv.phases())
            .map(|phase| {
                config
                    .scv
                    .family
                    .degree(phase as usize)
                    .clamp(1, inquiry_cap)
            })
            .collect();
        LinearConsensusPlan {
            little,
            aea_part1_and_2: config.aea.part1_rounds + config.aea.gamma,
            aea_total: config.aea.total_rounds(),
            scv,
            little_graph: config.aea.graph.clone(),
            h_graph: config.scv.h_graph.clone(),
            little_slots: config.aea.graph.max_degree().max(1),
            notify_slots: n.div_ceil(little.max(1)).max(1),
            h_slots: config.scv.h_graph.max_degree().max(1),
            phase_slots,
        }
    }

    /// Total multi-port rounds of the underlying consensus.
    pub fn mp_rounds(&self) -> u64 {
        self.aea_total + self.scv.end()
    }
}

impl PortPlan for LinearConsensusPlan {
    fn slots(&self, mp_round: u64) -> usize {
        if mp_round < self.aea_part1_and_2 {
            self.little_slots
        } else if mp_round < self.aea_total {
            self.notify_slots
        } else if mp_round < self.aea_total + self.scv.start() {
            self.h_slots
        } else if let Some((phase, _)) = self.scv.at(mp_round - self.aea_total) {
            let width = self.phase_slots.get(phase as usize - 1);
            width.copied().unwrap_or(1)
        } else {
            1
        }
    }

    fn poll_list(&self, me: usize, mp_round: u64, ports: &mut Vec<usize>) {
        if mp_round < self.aea_part1_and_2 {
            if me < self.little {
                ports.extend_from_slice(self.little_graph.neighbors(me));
            }
        } else if mp_round < self.aea_total {
            if me >= self.little {
                ports.push(me % self.little.max(1));
            }
        } else if mp_round < self.aea_total + self.scv.start() {
            ports.extend_from_slice(self.h_graph.neighbors(me));
        } else if let Some((phase, _)) = self.scv.at(mp_round - self.aea_total) {
            // Inquiry round: decided nodes listen for inquiries from whom
            // they would ask.  Response round: undecided nodes listen for
            // responses from the same nodes.
            ports.extend(self.scv.targets(me, phase).take(self.slots(mp_round)));
        }
    }
}

/// `Linear-Consensus`: the single-port adaptation of
/// [`FewCrashesConsensus`].
pub type LinearConsensus<V> = SinglePortAdapter<FewCrashesConsensus<V>, LinearConsensusPlan>;

/// The consensus configuration Theorem 12 adapts: SCV inquires along `G_i`
/// even when `t² ≤ n`, since a polling schedule must not depend on the data.
fn single_port_config(config: &SystemConfig) -> CoreResult<FewCrashesConfig> {
    let mut shared = FewCrashesConfig::from_system(config)?;
    let family = Targets::Family(Arc::clone(&shared.scv.family));
    shared.scv.part2 = Inquiries::two_round(shared.scv.part2.start(), family);
    Ok(shared)
}

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
    let shared = single_port_config(config)?;
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
        assert_eq!(report.consensus_violation(|v| inputs.contains(v)), None);
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
        let shared = single_port_config(&config).unwrap();
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
    fn the_plan_builds_every_inquiry_phase() {
        let config = SystemConfig::new(400, 40).unwrap().with_seed(2);
        let shared = FewCrashesConfig::from_system(&config).unwrap();
        let family = &shared.scv.family;
        assert_eq!(family.built_phases(), 0, "the config alone builds none");
        LinearConsensusPlan::new(&shared);
        assert_eq!(family.built_phases(), family.phases());
    }

    /// The slot widths and poll lists `LinearConsensusPlan` answered with
    /// when it scanned the overlay graphs on every call.
    fn scanned_slots(config: &FewCrashesConfig, mp_round: u64) -> usize {
        let (aea, scv) = (&config.aea, &config.scv);
        let inquiry_cap = 3 * (aea.little / 5).max(1) + 1;
        let scv_part2 = aea.total_rounds() + scv.part2.start();
        if mp_round < aea.part1_rounds + aea.gamma {
            aea.graph.max_degree().max(1)
        } else if mp_round < aea.total_rounds() {
            aea.n.div_ceil(aea.little.max(1)).max(1)
        } else if mp_round < scv_part2 {
            scv.h_graph.max_degree().max(1)
        } else {
            let phase = (mp_round - scv_part2) / 2 + 1;
            if phase > scv.part2.phases() {
                return 1;
            }
            scv.family.degree(phase as usize).min(inquiry_cap).max(1)
        }
    }

    #[test]
    fn plan_slot_widths_equal_the_per_call_scans() {
        for (n, t) in [(60, 7), (400, 40), (1600, 200)] {
            let config = SystemConfig::new(n, t).unwrap().with_seed(9);
            let shared = single_port_config(&config).unwrap();
            let plan = LinearConsensusPlan::new(&shared);
            assert_eq!(plan.mp_rounds(), shared.total_rounds(), "n = {n}");
            let mut ports = Vec::new();
            for mp_round in 0..plan.mp_rounds() + 3 {
                let slots = plan.slots(mp_round);
                assert_eq!(
                    slots,
                    scanned_slots(&shared, mp_round),
                    "n = {n}, round {mp_round}"
                );
                for me in [0, shared.aea.little - 1, shared.aea.little, n - 1] {
                    ports.clear();
                    plan.poll_list(me, mp_round, &mut ports);
                    let distinct: std::collections::BTreeSet<_> = ports.iter().collect();
                    assert_eq!(distinct.len(), ports.len(), "a port listed twice");
                    assert!(ports.iter().all(|&port| port < n && port != me));
                }
            }
        }
    }

    /// A scripted inner protocol: in multi-port round `r` it sends
    /// `r % 4` messages, logs every inbox it is handed, and halts after
    /// `rounds` rounds.
    #[derive(Clone, Debug)]
    struct Script {
        rounds: u64,
        received: Vec<(u64, Vec<(usize, u64)>)>,
        halted: bool,
    }

    impl SyncProtocol for Script {
        type Msg = u64;
        type Output = u64;

        fn send(&mut self, round: Round, out: &mut Vec<Outgoing<u64>>) {
            let r = round.as_u64();
            out.extend((0..r % 4).map(|k| Outgoing::new(NodeId::new(k as usize), 100 * r + k)));
        }

        fn receive(&mut self, round: Round, inbox: &[Delivered<u64>]) {
            let inbox = inbox.iter().map(|d| (d.from.index(), d.msg)).collect();
            self.received.push((round.as_u64(), inbox));
            self.halted = round.as_u64() + 1 >= self.rounds;
        }

        fn output(&self) -> Option<u64> {
            self.halted.then_some(self.received.len() as u64)
        }

        fn has_halted(&self) -> bool {
            self.halted
        }
    }

    /// A plan with a single slot, which truncates every fan-out above one.
    #[derive(Clone)]
    struct OneSlot;

    impl PortPlan for OneSlot {
        fn slots(&self, _mp_round: u64) -> usize {
            1
        }
        fn poll_list(&self, _me: usize, _mp_round: u64, ports: &mut Vec<usize>) {
            ports.push(0);
        }
    }

    /// A plan whose width changes from one multi-port round to the next and
    /// whose poll lists run from empty to longer than the width.
    #[derive(Clone)]
    struct Uneven;

    impl PortPlan for Uneven {
        fn slots(&self, mp_round: u64) -> usize {
            1 + (mp_round % 3) as usize * 2
        }
        fn poll_list(&self, _me: usize, mp_round: u64, ports: &mut Vec<usize>) {
            ports.extend(10..10 + (mp_round % 5) as usize);
        }
    }

    /// What an adapter did in one single-port round: its send and its poll.
    type SlotTrace = (Option<(usize, u64)>, Option<usize>);

    /// Drives an adapter for `sp_rounds` single-port rounds — every round,
    /// or only the rounds its own `quiet_until` names — feeding each poll
    /// the same synthetic port contents; returns the per-round trace, the
    /// inner protocol's log and the number of rounds it was called in.
    fn drive<L: PortPlan>(
        plan: L,
        sp_rounds: u64,
        only_when_asked: bool,
    ) -> (Vec<SlotTrace>, Script, u64) {
        let script = Script {
            rounds: 9,
            received: Vec::new(),
            halted: false,
        };
        let mut adapter = SinglePortAdapter::new(script, plan, 7);
        let (mut trace, mut wake, mut calls) = (Vec::new(), 0, 0);
        for r in 0..sp_rounds {
            if adapter.has_halted() {
                break;
            }
            if only_when_asked && r < wake {
                trace.push((None, None));
                continue;
            }
            calls += 1;
            let round = Round::new(r);
            let sent = SinglePortProtocol::send(&mut adapter, round);
            let polled = SinglePortProtocol::poll(&mut adapter, round);
            if let Some(port) = polled {
                // Every other poll finds two messages.
                let mut msgs = vec![1000 * r + port.index() as u64, r];
                msgs.truncate(2 * ((r + port.index() as u64) % 2) as usize);
                SinglePortProtocol::receive(&mut adapter, round, port, &mut msgs);
                assert!(msgs.is_empty(), "the adapter takes what it is lent");
            }
            wake = adapter.quiet_until(round).map_or(r + 1, Round::as_u64);
            trace.push((
                sent.map(|out| (out.to.index(), out.msg)),
                polled.map(NodeId::index),
            ));
        }
        (trace, adapter.inner().clone(), calls)
    }

    fn assert_same_when_called_only_when_asked<L: PortPlan>(plan: L) {
        let sp_rounds = SinglePortAdapter::<Script, L>::sp_rounds_for(&plan, 9) + 5;
        let (every_round, log, all_calls) = drive(plan.clone(), sp_rounds, false);
        let (when_asked, asked_log, calls) = drive(plan, sp_rounds, true);
        assert_eq!(when_asked, every_round, "sends and polls, round by round");
        assert_eq!(asked_log.received, log.received, "inner receive calls");
        assert_eq!(log.received.len(), 9, "every multi-port round closed");
        assert!(log.received.iter().any(|(_, inbox)| !inbox.is_empty()));
        assert!(calls <= all_calls);
    }

    #[test]
    fn adapter_called_only_when_it_asks_behaves_the_same() {
        assert_same_when_called_only_when_asked(OneSlot);
        assert_same_when_called_only_when_asked(Uneven);
        // The uneven plan has idle slots to leave out; the one-slot plan
        // acts in both of its slots.
        let sp_rounds = SinglePortAdapter::<Script, Uneven>::sp_rounds_for(&Uneven, 9);
        let (trace, _, calls) = drive(Uneven, sp_rounds, true);
        let acted = trace.iter().filter(|slot| **slot != (None, None)).count();
        assert!(calls < sp_rounds, "{calls} calls in {sp_rounds} rounds");
        assert!(acted as u64 <= calls);
    }

    #[test]
    fn adapter_truncates_excess_fanout() {
        // A plan with a single slot forces truncation without panicking.
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
