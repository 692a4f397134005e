//! Differential tests: the batched round engines against reference
//! transcriptions of the seed engines.
//!
//! The rebuilt engines (shared batched-delivery core, incremental
//! alive/crashed sets, reusable buffers, sparse port map) must produce
//! byte-identical reports to the seed behaviour.  Each reference runner here
//! is a literal transcription of the corresponding seed engine's `step` —
//! per-round `NodeSet` rebuilds, freshly allocated inboxes, dense `n × n`
//! port matrix and all — so any divergence in delivery order, crash
//! application, halting semantics or metric accounting shows up as a
//! mismatch.  Random crash schedules are property-tested over both round
//! models and, for each, over both hosts of the model's one round loop
//! (the inline core, in-process shard workers) — so the tier-1 suite
//! exercises the shard codec too.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::collections::VecDeque;

use linear_dft::sim::shard::{ShardedRunner, SpShardedRunner};
use linear_dft::sim::{
    AdversaryView, CrashAdversary, Delivered, DeliveryFilter, ExecutionReport, Metrics, NodeId,
    NodeSet, NodeStatus, Outgoing, Participant, Payload, RandomCrashes, Round, Runner,
    SinglePortProtocol, SinglePortRunner, SyncProtocol,
};
use proptest::prelude::*;

/// Everything a reference engine produces for comparison.
struct ReferenceOutcome<O> {
    outputs: Vec<Option<O>>,
    crashed_at: Vec<Option<Round>>,
    halted_at: Vec<Option<Round>>,
    metrics: Metrics,
}

impl<O: Clone + PartialEq + std::fmt::Debug> ReferenceOutcome<O> {
    fn assert_matches(&self, report: &ExecutionReport<O>) {
        assert_eq!(report.outputs, self.outputs, "outputs diverged");
        assert_eq!(report.crashed_at, self.crashed_at, "crash rounds diverged");
        assert_eq!(report.halted_at, self.halted_at, "halt rounds diverged");
        // `Metrics` equality covers rounds, messages, bits, crashes and the
        // per-round state (the latest recorded round, its count, the peak).
        assert_eq!(report.metrics, self.metrics, "metrics diverged");
        assert_eq!(
            report.metrics.peak_messages_in_a_round(),
            self.metrics.peak_messages_in_a_round()
        );
    }
}

/// Literal transcription of the seed multi-port engine (honest nodes only):
/// rebuilds the alive/crashed sets and allocates fresh inboxes every round.
fn reference_multi_port<P: SyncProtocol>(
    mut protocols: Vec<P>,
    mut adversary: Box<dyn CrashAdversary>,
    fault_budget: usize,
    max_rounds: u64,
) -> ReferenceOutcome<P::Output> {
    let n = protocols.len();
    let mut status = vec![NodeStatus::Running; n];
    let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
    let mut halted_at: Vec<Option<Round>> = vec![None; n];
    let mut crashed_at: Vec<Option<Round>> = vec![None; n];
    let mut crashes = 0usize;
    let mut metrics = Metrics::new();
    let mut round = Round::ZERO;

    for _ in 0..max_rounds {
        // Phase 1: collect sends from running nodes.
        let mut outgoing: Vec<Vec<Outgoing<P::Msg>>> = Vec::with_capacity(n);
        for (i, p) in protocols.iter_mut().enumerate() {
            if status[i].is_running() {
                let mut msgs = Vec::new();
                p.send(round, &mut msgs);
                outgoing.push(msgs);
            } else {
                outgoing.push(Vec::new());
            }
        }

        // Phase 2: crash adversary over per-round rebuilt sets.
        let alive = NodeSet::from_iter(
            n,
            status
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_crashed())
                .map(|(i, _)| NodeId::new(i)),
        );
        let crashed_set = NodeSet::from_iter(
            n,
            status
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_crashed())
                .map(|(i, _)| NodeId::new(i)),
        );
        let send_intents: Vec<Vec<NodeId>> = outgoing
            .iter()
            .map(|msgs| msgs.iter().map(|m| m.to).collect())
            .collect();
        let poll_intents: Vec<Option<NodeId>> = vec![None; n];
        let directives = adversary.plan_round(&AdversaryView {
            round,
            alive: &alive,
            crashed: &crashed_set,
            send_intents: &send_intents,
            poll_intents: &poll_intents,
            remaining_budget: fault_budget - crashes,
        });
        let mut filters: Vec<Option<DeliveryFilter>> = vec![None; n];
        for directive in directives {
            if crashes >= fault_budget {
                break;
            }
            let idx = directive.node.index();
            if idx >= n || status[idx].is_crashed() {
                continue;
            }
            status[idx] = NodeStatus::Crashed(round);
            crashed_at[idx] = Some(round);
            crashes += 1;
            metrics.record_crash();
            filters[idx] = Some(directive.deliver);
        }

        // Phase 3: deliver into freshly allocated inboxes.
        let mut inboxes: Vec<Vec<Delivered<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
        for (sender_idx, msgs) in outgoing.into_iter().enumerate() {
            for (msg_idx, out) in msgs.into_iter().enumerate() {
                if let Some(filter) = &filters[sender_idx] {
                    if !filter.allows(msg_idx, out.to) {
                        continue;
                    }
                }
                metrics.record_message(round.as_u64(), out.msg.bit_len());
                let dest = out.to.index();
                if dest < n && status[dest].is_running() {
                    inboxes[dest].push(Delivered::new(NodeId::new(sender_idx), out.msg));
                }
            }
        }

        // Phase 4: receive and update statuses.
        for (i, p) in protocols.iter_mut().enumerate() {
            if !status[i].is_running() {
                continue;
            }
            p.receive(round, &inboxes[i]);
            if let Some(output) = p.output() {
                if outputs[i].is_none() {
                    outputs[i] = Some(output);
                }
            }
            if p.has_halted() {
                status[i] = NodeStatus::Halted;
                halted_at[i] = Some(round);
            }
        }

        metrics.rounds = round.as_u64() + 1;
        round = round.next();
        if status
            .iter()
            .all(|s| matches!(s, NodeStatus::Halted | NodeStatus::Crashed(_)))
        {
            break;
        }
    }

    ReferenceOutcome {
        outputs,
        crashed_at,
        halted_at,
        metrics,
    }
}

/// Literal transcription of the seed single-port engine, dense `n × n`
/// `VecDeque` port matrix included.  (The seed buffered messages onto halted
/// nodes' ports; since a halted node never polls, that is unobservable in
/// reports — which this differential test demonstrates against the new
/// engine, which drops such messages.)
fn reference_single_port<P: SinglePortProtocol>(
    mut nodes: Vec<P>,
    mut adversary: Box<dyn CrashAdversary>,
    fault_budget: usize,
    max_rounds: u64,
) -> ReferenceOutcome<P::Output> {
    let n = nodes.len();
    let mut status = vec![NodeStatus::Running; n];
    let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
    let mut halted_at: Vec<Option<Round>> = vec![None; n];
    let mut crashed_at: Vec<Option<Round>> = vec![None; n];
    let mut crashes = 0usize;
    let mut metrics = Metrics::new();
    let mut round = Round::ZERO;
    let mut ports: Vec<Vec<VecDeque<P::Msg>>> = (0..n)
        .map(|_| (0..n).map(|_| VecDeque::new()).collect())
        .collect();

    for _ in 0..max_rounds {
        let mut sends: Vec<Option<Outgoing<P::Msg>>> = Vec::with_capacity(n);
        let mut polls: Vec<Option<NodeId>> = Vec::with_capacity(n);
        for (i, node) in nodes.iter_mut().enumerate() {
            if status[i].is_running() {
                sends.push(node.send(round));
                polls.push(node.poll(round));
            } else {
                sends.push(None);
                polls.push(None);
            }
        }

        let alive = NodeSet::from_iter(
            n,
            status
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_crashed())
                .map(|(i, _)| NodeId::new(i)),
        );
        let crashed_set = NodeSet::from_iter(
            n,
            status
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_crashed())
                .map(|(i, _)| NodeId::new(i)),
        );
        let send_intents: Vec<Vec<NodeId>> = sends
            .iter()
            .map(|s| s.iter().map(|o| o.to).collect())
            .collect();
        let directives = adversary.plan_round(&AdversaryView {
            round,
            alive: &alive,
            crashed: &crashed_set,
            send_intents: &send_intents,
            poll_intents: &polls,
            remaining_budget: fault_budget - crashes,
        });
        let mut filters: Vec<Option<DeliveryFilter>> = vec![None; n];
        for directive in directives {
            if crashes >= fault_budget {
                break;
            }
            let idx = directive.node.index();
            if idx >= n || status[idx].is_crashed() {
                continue;
            }
            status[idx] = NodeStatus::Crashed(round);
            crashed_at[idx] = Some(round);
            crashes += 1;
            metrics.record_crash();
            filters[idx] = Some(directive.deliver);
        }

        for (sender_idx, send) in sends.into_iter().enumerate() {
            let Some(out) = send else { continue };
            if let Some(filter) = &filters[sender_idx] {
                if !filter.allows(0, out.to) {
                    continue;
                }
            }
            metrics.record_message(round.as_u64(), out.msg.bit_len());
            let dest = out.to.index();
            // Seed semantics: only crashed destinations were skipped.
            if dest < n && !status[dest].is_crashed() {
                ports[dest][sender_idx].push_back(out.msg);
            }
        }

        for (i, node) in nodes.iter_mut().enumerate() {
            if !status[i].is_running() {
                continue;
            }
            if let Some(port) = polls[i] {
                let mut drained: Vec<P::Msg> = ports[i][port.index()].drain(..).collect();
                node.receive(round, port, &mut drained);
            }
            if let Some(output) = node.output() {
                if outputs[i].is_none() {
                    outputs[i] = Some(output);
                }
            }
            if node.has_halted() {
                status[i] = NodeStatus::Halted;
                halted_at[i] = Some(round);
            }
        }

        metrics.rounds = round.as_u64() + 1;
        round = round.next();
        if status.iter().all(|s| !s.is_running()) {
            break;
        }
    }

    ReferenceOutcome {
        outputs,
        crashed_at,
        halted_at,
        metrics,
    }
}

/// Multi-port workhorse: floods the OR of everything seen, decides after a
/// configurable number of rounds.
#[derive(Clone)]
struct FloodOr {
    n: usize,
    value: bool,
    horizon: u64,
    rounds_seen: u64,
    decided: Option<bool>,
}

impl SyncProtocol for FloodOr {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
        out.extend((0..self.n).map(|i| Outgoing::new(NodeId::new(i), self.value)));
    }

    fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
        for msg in inbox {
            self.value |= msg.msg;
        }
        self.rounds_seen += 1;
        if self.rounds_seen >= self.horizon {
            self.decided = Some(self.value);
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

fn flood_or_nodes(n: usize, input_bits: u64, horizon: u64) -> Vec<FloodOr> {
    (0..n)
        .map(|i| FloodOr {
            n,
            value: (input_bits >> (i % 64)) & 1 == 1,
            horizon,
            rounds_seen: 0,
            decided: None,
        })
        .collect()
}

/// Single-port workhorse: a token ring that decides after `2n` receives.
#[derive(Clone)]
struct Ring {
    me: usize,
    n: usize,
    value: bool,
    rounds: u64,
    decided: Option<bool>,
}

impl SinglePortProtocol for Ring {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
        Some(Outgoing::new(
            NodeId::new((self.me + 1) % self.n),
            self.value,
        ))
    }

    fn poll(&mut self, _round: Round) -> Option<NodeId> {
        Some(NodeId::new((self.me + self.n - 1) % self.n))
    }

    fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
        for m in msgs.drain(..) {
            self.value |= m;
        }
        self.rounds += 1;
        if self.rounds >= 2 * self.n as u64 {
            self.decided = Some(self.value);
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

fn ring_nodes(n: usize, input_bits: u64) -> Vec<Ring> {
    (0..n)
        .map(|me| Ring {
            me,
            n,
            value: (input_bits >> (me % 64)) & 1 == 1,
            rounds: 0,
            decided: None,
        })
        .collect()
}

#[test]
fn multi_port_engine_matches_reference_without_faults() {
    let n = 12;
    let nodes = flood_or_nodes(n, 0b1010, 3);
    let mut runner = Runner::new(nodes.clone().into_iter().collect()).unwrap();
    let report = runner.run(10);
    let reference = reference_multi_port(nodes, Box::new(linear_dft::sim::NoFaults), 0, 10);
    reference.assert_matches(&report);
}

#[test]
fn single_port_engine_matches_reference_without_faults() {
    let n = 9;
    let nodes = ring_nodes(n, 0b1);
    let mut runner = SinglePortRunner::new(nodes.clone()).unwrap();
    let report = runner.run(3 * n as u64);
    let reference = reference_single_port(
        ring_nodes(n, 0b1),
        Box::new(linear_dft::sim::NoFaults),
        0,
        3 * n as u64,
    );
    reference.assert_matches(&report);
}

/// One generated multi-port case at one size: the reference against both
/// hosts of the round loop — one core inline, and two in-process shard
/// workers behind the wire codec.
fn check_multi_port_hosts(n: usize, t_frac: usize, input_bits: u64, horizon: u64, crash_seed: u64) {
    let t = (n / t_frac).max(1).min(n - 1);
    let max_rounds = horizon + t as u64 + 4;
    let nodes = || flood_or_nodes(n, input_bits, horizon);
    let adversary = || Box::new(RandomCrashes::new(n, t, max_rounds, crash_seed));
    let reference = reference_multi_port(nodes(), adversary(), t, max_rounds);

    let mut serial = Runner::with_adversary(nodes(), adversary(), t).expect("a valid system");
    reference.assert_matches(&serial.run(max_rounds));
    let participants = nodes().into_iter().map(Participant::Honest).collect();
    let mut sharded =
        ShardedRunner::in_process(participants, adversary(), t, 2).expect("a valid system");
    reference.assert_matches(&sharded.run(max_rounds).expect("no shard worker fails"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random crash schedules through both hosts of the multi-port round
    /// loop and the seed-behaviour reference produce identical reports,
    /// including the full per-round message profile, at a small size and at
    /// one where every shard holds many nodes.
    #[test]
    fn multi_port_engine_matches_reference_under_random_crashes(
        n in 4usize..40,
        t_frac in 3usize..8,
        input_bits in any::<u64>(),
        horizon in 2u64..6,
        crash_seed in any::<u64>(),
    ) {
        check_multi_port_hosts(n, t_frac, input_bits, horizon, crash_seed);
        check_multi_port_hosts(128 + n, t_frac, input_bits, horizon, crash_seed);
    }

    /// The same property over the single-port round loop: the sparse port
    /// map reproduces the dense seed matrix byte for byte, whichever host
    /// holds the chunks.
    #[test]
    fn single_port_engine_matches_reference_under_random_crashes(
        n in 3usize..24,
        t_frac in 3usize..8,
        input_bits in any::<u64>(),
        crash_seed in any::<u64>(),
    ) {
        let t = (n / t_frac).max(1).min(n - 1);
        let max_rounds = 3 * n as u64;
        let nodes = || ring_nodes(n, input_bits);
        let adversary = || Box::new(RandomCrashes::new(n, t, max_rounds, crash_seed));
        let reference = reference_single_port(nodes(), adversary(), t, max_rounds);

        let mut serial = SinglePortRunner::with_adversary(nodes(), adversary(), t).unwrap();
        reference.assert_matches(&serial.run(max_rounds));
        let mut sharded = SpShardedRunner::in_process(nodes(), adversary(), t, 2).unwrap();
        reference.assert_matches(&sharded.run(max_rounds).unwrap());
    }
}
