//! # dft-baselines — comparison algorithms
//!
//! The baselines the paper's algorithms are measured against in the
//! benchmark harness:
//!
//! * [`FloodingConsensus`] — the textbook `t + 1`-round all-to-all flooding
//!   consensus: `Θ(n²)` messages per round, `Θ(n²·(t+1))` total.  This is the time-optimal but
//!   communication-hungry comparator for Theorems 7 and 8.
//! * [`AllToAllGossip`] — every node sends its rumor set to every node each
//!   round for `t + 1` rounds: `Θ(n²·t)` messages, the comparator for
//!   Theorem 9.
//! * [`NaiveCheckpointing`] — all-to-all membership exchange followed by
//!   flooding agreement on the membership vector, in the spirit of the
//!   `O(t·n)`-message checkpointing of De Prisco–Mayer–Yung; the comparator
//!   for Theorem 10.
//! * [`ParallelDsConsensus`] — Byzantine consensus by running a Dolev–Strong
//!   broadcast from *every* node and deciding on the maximum delivered value:
//!   `Θ(n²)` messages per round and `Θ(n²·t)` signatures, the comparator for
//!   Theorem 11 (the paper's `AB-Consensus` needs only `O(t² + n)`).

#![warn(missing_docs)]

use std::sync::Arc;

use dft_auth::KeyDirectory;
use dft_core::dolev_strong::{DsBatch, DsRelay};
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

/// The textbook flooding consensus: for `t + 1` rounds every node broadcasts
/// the set of values it has seen (here: the OR of binary values); after the
/// last round it decides on the OR.
#[derive(Clone, Debug)]
pub struct FloodingConsensus {
    n: usize,
    t: usize,
    value: bool,
    rounds_done: u64,
    decided: Option<bool>,
}

impl FloodingConsensus {
    /// Creates node `me` with its input.
    pub fn new(n: usize, t: usize, me: usize, input: bool) -> Self {
        let _ = me;
        FloodingConsensus {
            n,
            t,
            value: input,
            rounds_done: 0,
            decided: None,
        }
    }

    /// Builds every node, node `i` with input `inputs[i]`.
    pub fn for_all_nodes(n: usize, t: usize, inputs: &[bool]) -> Vec<Self> {
        inputs
            .iter()
            .enumerate()
            .map(|(me, &input)| Self::new(n, t, me, input))
            .collect()
    }

    /// Total rounds: `t + 1`.
    pub fn total_rounds(t: usize) -> u64 {
        t as u64 + 1
    }
}

impl SyncProtocol for FloodingConsensus {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
        if self.decided.is_some() {
            return;
        }
        out.extend((0..self.n).map(|p| Outgoing::new(NodeId::new(p), self.value)));
    }

    fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
        for msg in inbox {
            self.value |= msg.msg;
        }
        self.rounds_done += 1;
        if self.decided.is_none() && self.rounds_done > self.t as u64 {
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

/// A full extant map used by the gossip baselines: `entries[i]` is node `i`'s
/// rumor once learned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RumorMap(pub Vec<Option<u64>>);

impl Payload for RumorMap {
    fn bit_len(&self) -> u64 {
        self.0.len() as u64 + 64 * self.0.iter().filter(|e| e.is_some()).count() as u64
    }
}

/// All-to-all gossip: every node broadcasts everything it knows to everyone
/// for `t + 1` rounds, then decides on its rumor map.
#[derive(Clone, Debug)]
pub struct AllToAllGossip {
    n: usize,
    t: usize,
    known: RumorMap,
    rounds_done: u64,
    decided: Option<RumorMap>,
}

impl AllToAllGossip {
    /// Creates a node holding `rumor`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the rumor map is sized n on the line above and `me` is a node index below n"
    )]
    pub fn new(n: usize, t: usize, me: usize, rumor: u64) -> Self {
        let mut known = RumorMap(vec![None; n]);
        known.0[me] = Some(rumor);
        AllToAllGossip {
            n,
            t,
            known,
            rounds_done: 0,
            decided: None,
        }
    }

    /// Builds nodes for the whole system.
    pub fn for_all_nodes(n: usize, t: usize, rumors: &[u64]) -> Vec<Self> {
        rumors
            .iter()
            .enumerate()
            .map(|(me, &rumor)| Self::new(n, t, me, rumor))
            .collect()
    }

    /// Total rounds of the baseline.
    pub fn total_rounds(t: usize) -> u64 {
        t as u64 + 1
    }
}

impl SyncProtocol for AllToAllGossip {
    type Msg = Arc<RumorMap>;
    type Output = RumorMap;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<Arc<RumorMap>>>) {
        if self.decided.is_some() {
            return;
        }
        // One shared map, reference-counted per recipient instead of n deep
        // clones per round.
        let known = Arc::new(self.known.clone());
        out.extend((0..self.n).map(|p| Outgoing::new(NodeId::new(p), Arc::clone(&known))));
    }

    fn receive(&mut self, _round: Round, inbox: &[Delivered<Arc<RumorMap>>]) {
        for msg in inbox {
            for (slot, value) in self.known.0.iter_mut().zip(&msg.msg.0) {
                if slot.is_none() {
                    *slot = *value;
                }
            }
        }
        self.rounds_done += 1;
        if self.rounds_done > self.t as u64 {
            self.decided = Some(self.known.clone());
        }
    }

    fn output(&self) -> Option<RumorMap> {
        self.decided.clone()
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

/// Naive checkpointing: `t + 1` rounds of all-to-all membership exchange
/// (every node broadcasts the set of nodes it has heard from), after which
/// each node decides the set of nodes it heard from either directly or
/// transitively — `Θ(n²·t)` messages, in the spirit of the
/// De Prisco–Mayer–Yung `O(t·n)`-per-checkpoint scheme.
#[derive(Clone, Debug)]
pub struct NaiveCheckpointing {
    n: usize,
    t: usize,
    seen: Vec<bool>,
    rounds_done: u64,
    decided: Option<Vec<usize>>,
}

/// A membership vector carried by [`NaiveCheckpointing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Membership(pub Vec<bool>);

impl Payload for Membership {
    fn bit_len(&self) -> u64 {
        self.0.len() as u64
    }
}

impl NaiveCheckpointing {
    /// Creates a node.
    #[expect(
        clippy::indexing_slicing,
        reason = "`seen` is sized n on the line above and `me` is a node index below n"
    )]
    pub fn new(n: usize, t: usize, me: usize) -> Self {
        let mut seen = vec![false; n];
        seen[me] = true;
        NaiveCheckpointing {
            n,
            t,
            seen,
            rounds_done: 0,
            decided: None,
        }
    }

    /// Builds nodes for the whole system.
    pub fn for_all_nodes(n: usize, t: usize) -> Vec<Self> {
        (0..n).map(|me| Self::new(n, t, me)).collect()
    }

    /// Total rounds of the baseline.
    pub fn total_rounds(t: usize) -> u64 {
        t as u64 + 1
    }
}

impl SyncProtocol for NaiveCheckpointing {
    type Msg = Arc<Membership>;
    type Output = Vec<usize>;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<Arc<Membership>>>) {
        if self.decided.is_some() {
            return;
        }
        // One shared membership vector, reference-counted per recipient.
        let seen = Arc::new(Membership(self.seen.clone()));
        out.extend((0..self.n).map(|p| Outgoing::new(NodeId::new(p), Arc::clone(&seen))));
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`seen` is sized n at construction and `i` ranges over 0..n"
    )]
    fn receive(&mut self, _round: Round, inbox: &[Delivered<Arc<Membership>>]) {
        for msg in inbox {
            for (mine, theirs) in self.seen.iter_mut().zip(&msg.msg.0) {
                *mine |= *theirs;
            }
        }
        self.rounds_done += 1;
        if self.rounds_done > self.t as u64 {
            self.decided = Some((0..self.n).filter(|&i| self.seen[i]).collect());
        }
    }

    fn output(&self) -> Option<Vec<usize>> {
        self.decided.clone()
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

/// Byzantine consensus baseline: every node Dolev–Strong-broadcasts its input
/// to everyone (`n` parallel instances over the complete graph, `t + 1`
/// rounds) and decides on the maximum consistently delivered value —
/// `Θ(n²)` messages per round from non-faulty nodes, versus the paper's
/// `O(t² + n)`.
#[derive(Clone, Debug)]
pub struct ParallelDsConsensus {
    n: usize,
    t: usize,
    me: usize,
    input: u64,
    /// The Dolev–Strong state; every node is a source.
    relay: DsRelay,
    decided: Option<u64>,
}

impl ParallelDsConsensus {
    /// Creates a node with consensus input `input`.
    pub fn new(n: usize, t: usize, me: usize, input: u64, directory: Arc<KeyDirectory>) -> Self {
        ParallelDsConsensus {
            n,
            t,
            me,
            input,
            relay: DsRelay::new(directory.signer(me), directory, n),
            decided: None,
        }
    }

    /// Builds nodes for the whole system.
    pub fn for_all_nodes(
        n: usize,
        t: usize,
        inputs: &[u64],
        directory: Arc<KeyDirectory>,
    ) -> Vec<Self> {
        inputs
            .iter()
            .enumerate()
            .map(|(me, &input)| Self::new(n, t, me, input, directory.clone()))
            .collect()
    }

    /// Total rounds of the baseline.
    pub fn total_rounds(t: usize) -> u64 {
        t as u64 + 1
    }
}

impl SyncProtocol for ParallelDsConsensus {
    type Msg = Arc<DsBatch>;
    type Output = u64;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<Arc<DsBatch>>>) {
        let r = round.as_u64();
        if r > self.t as u64 {
            return;
        }
        if r == 0 {
            self.relay.originate(self.input);
        }
        // One shared batch for the n − 1 recipients, not a deep copy each.
        let Some(batch) = self.relay.take_batch() else {
            return;
        };
        out.extend(
            (0..self.n)
                .filter(|&p| p != self.me)
                .map(|p| Outgoing::new(NodeId::new(p), Arc::clone(&batch))),
        );
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<Arc<DsBatch>>]) {
        let r = round.as_u64();
        if r <= self.t as u64 {
            for delivered in inbox {
                self.relay.receive(r, &delivered.msg);
            }
        }
        if r >= self.t as u64 {
            let delivered = self.relay.resolutions().flatten();
            self.decided = Some(delivered.map(|chain| chain.value).max().unwrap_or(0));
        }
    }

    fn output(&self) -> Option<u64> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

/// Shard wire codecs for the baseline message/output types, so the
/// quadratic baselines can also run under `run_experiments --shards N`.
mod wire_impls {
    use super::{Membership, RumorMap};

    dft_sim::shard::wire_struct!(RumorMap(Vec<Option<u64>>));
    dft_sim::shard::wire_struct!(Membership(Vec<bool>));

    #[cfg(test)]
    mod tests {
        #![expect(
            clippy::disallowed_methods,
            reason = "codec tests round-trip bare values; there is no frame, so no version to check"
        )]
        use super::*;
        use dft_sim::shard::{decode_error_path_violations, from_bytes, to_bytes};

        #[test]
        fn baseline_payloads_round_trip() {
            let map = RumorMap(vec![Some(7), None, Some(9)]);
            assert_eq!(from_bytes::<RumorMap>(&to_bytes(&map)).unwrap(), map);
            let membership = Membership(vec![true, false, true]);
            assert_eq!(
                from_bytes::<Membership>(&to_bytes(&membership)).unwrap(),
                membership
            );
            assert_eq!(decode_error_path_violations(&map), Vec::<usize>::new());
            assert_eq!(
                decode_error_path_violations(&membership),
                Vec::<usize>::new()
            );
        }

        #[test]
        fn baseline_payloads_golden_bytes() {
            assert_eq!(dft_sim::shard::WIRE_VERSION, 9);
            assert_eq!(
                to_bytes(&RumorMap(vec![Some(7), None])),
                b"\x02\0\0\0\0\0\0\0\x01\x07\0\0\0\0\0\0\0\0"
            );
            assert_eq!(
                to_bytes(&Membership(vec![true, false, true])),
                b"\x03\0\0\0\0\0\0\0\x01\0\x01"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::{RandomCrashes, Runner};

    #[test]
    fn flooding_consensus_agrees_and_is_quadratic() {
        let n = 30;
        let t = 5;
        let inputs: Vec<bool> = (0..n).map(|i| i == 7).collect();
        let nodes = FloodingConsensus::for_all_nodes(n, t, &inputs);
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(FloodingConsensus::total_rounds(t) + 2);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&true));
        assert!(
            report.metrics.messages >= (n * n) as u64,
            "quadratic traffic"
        );
    }

    #[test]
    fn flooding_consensus_tolerates_crashes() {
        let n = 40;
        let t = 8;
        let inputs = vec![true; n];
        let nodes = FloodingConsensus::for_all_nodes(n, t, &inputs);
        let adversary = RandomCrashes::new(n, t, t as u64, 3);
        let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
        let report = runner.run(FloodingConsensus::total_rounds(t) + 2);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
    }

    #[test]
    fn all_to_all_gossip_collects_every_rumor() {
        let n = 25;
        let t = 4;
        let rumors: Vec<u64> = (0..n as u64).map(|i| 500 + i).collect();
        let nodes = AllToAllGossip::for_all_nodes(n, t, &rumors);
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(AllToAllGossip::total_rounds(t) + 1);
        assert!(report.all_non_faulty_decided());
        let map = report.outputs[0].as_ref().unwrap();
        assert!(map.0.iter().all(Option::is_some));
    }

    #[test]
    fn naive_checkpointing_agrees_without_faults() {
        let n = 25;
        let t = 4;
        let nodes = NaiveCheckpointing::for_all_nodes(n, t);
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(NaiveCheckpointing::total_rounds(t) + 1);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value().unwrap().len(), n);
    }

    #[test]
    fn parallel_ds_consensus_is_quadratic_but_correct() {
        let n = 16;
        let t = 3;
        let directory = Arc::new(KeyDirectory::generate(n, 9));
        let inputs: Vec<u64> = (0..n as u64).collect();
        let nodes = ParallelDsConsensus::for_all_nodes(n, t, &inputs, directory);
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(ParallelDsConsensus::total_rounds(t) + 2);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&(n as u64 - 1)));
        assert!(report.metrics.messages >= (n * (n - 1)) as u64);
    }

    #[test]
    fn parallel_ds_settles_an_equivocating_source_at_two_values() {
        let n = 8;
        let directory = Arc::new(KeyDirectory::generate(n, 9));
        let source = directory.signer(0);
        let signed = (100..140).map(|value| dft_auth::SignedValue::originate(&source, value));
        let inbox = [Delivered::new(
            NodeId::new(0),
            Arc::new(DsBatch(signed.collect())),
        )];
        let mut node = ParallelDsConsensus::new(n, 2, 1, 5, directory);
        node.receive(Round::ZERO, &inbox);
        assert_eq!(node.relay.accepted(0).len(), 2);
        let relayed = node
            .relay
            .take_batch()
            .expect("the two are owed to the peers");
        assert_eq!(relayed.0.len(), 2, "nothing past the second is relayed");
    }
}
