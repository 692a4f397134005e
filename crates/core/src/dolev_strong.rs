//! The Dolev–Strong authenticated broadcast (the `DS-Algorithm` of
//! Section 7, used as a sub-routine by `AB-Consensus`).
//!
//! One or more *sources* broadcast a value each.  Every relayed value carries
//! a growing chain of signatures; a value received in round `r` is accepted
//! only if its chain contains at least `r + 1` valid signatures from distinct
//! nodes starting with the source.  After `t + 1` rounds all non-faulty
//! participants have accepted the same value set per source; a source that
//! equivocated (or stayed silent) resolves to `None` (the paper's null).
//!
//! The implementation runs any number of parallel instances (one per source)
//! with per-pair messages combined into a single batch, exactly as
//! `AB-Consensus` Part 1 prescribes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dft_auth::{KeyDirectory, SignedValue, Signer, DECISIVE_VALUES};
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::SystemConfig;
use crate::error::{CoreError, CoreResult};

/// A batch of signed values exchanged in one round between one pair of nodes
/// (the "combined message" of the parallel executions).
#[derive(Clone, Debug, PartialEq)]
pub struct DsBatch(pub Vec<SignedValue>);

impl Payload for DsBatch {
    fn bit_len(&self) -> u64 {
        64 + self.0.iter().map(SignedValue::encoded_bits).sum::<u64>()
    }
}

/// Static configuration of a parallel Dolev–Strong broadcast.
#[derive(Clone, Debug)]
pub struct DolevStrongConfig {
    /// Fault bound `t` (the broadcast runs `t + 1` rounds).
    pub t: usize,
    /// Nodes participating in the broadcast (relays and receivers).
    pub participants: Arc<Vec<usize>>,
    /// The broadcasting sources, a subset of the participants.
    pub sources: Arc<Vec<usize>>,
    /// The key directory used to verify chains.
    pub directory: Arc<KeyDirectory>,
}

impl DolevStrongConfig {
    /// A broadcast among all `n` nodes with the given sources.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFaultBound`] if `t ≥ n`.
    pub fn all_nodes(
        config: &SystemConfig,
        sources: Vec<usize>,
        directory: Arc<KeyDirectory>,
    ) -> CoreResult<Self> {
        if config.t >= config.n {
            return Err(CoreError::InvalidFaultBound {
                n: config.n,
                t: config.t,
                requirement: "t < n",
            });
        }
        Ok(DolevStrongConfig {
            t: config.t,
            participants: Arc::new((0..config.n).collect()),
            sources: Arc::new(sources),
            directory,
        })
    }

    /// Number of rounds of the broadcast (`t + 1`).
    pub fn total_rounds(&self) -> u64 {
        self.t as u64 + 1
    }
}

/// Per-node state machine for parallel Dolev–Strong broadcast.
///
/// The output is one resolved value per source: `Some(v)` when exactly one
/// value was accepted for that source, `None` (null) otherwise.
#[derive(Clone, Debug)]
pub struct DolevStrong {
    config: DolevStrongConfig,
    me: usize,
    signer: Signer,
    /// My own input (used only if I am a source).
    input: u64,
    /// Whether I am one of `config.participants`.
    participating: bool,
    /// Each source's index into `config.sources`.
    source_index: BTreeMap<usize, usize>,
    /// Accepted values per source index, at most [`DECISIVE_VALUES`] each.
    accepted: Vec<BTreeSet<u64>>,
    /// Values accepted this round, to be relayed next round.
    relay_queue: Vec<SignedValue>,
    resolved: Option<Vec<Option<u64>>>,
    halted: bool,
}

impl DolevStrong {
    /// Creates the state machine for node `me` with broadcast input `input`
    /// (ignored unless `me` is a source).
    pub fn new(config: DolevStrongConfig, me: usize, input: u64) -> Self {
        let signer = config.directory.signer(me);
        let accepted = vec![BTreeSet::new(); config.sources.len()];
        let mut source_index = BTreeMap::new();
        for (index, &source) in config.sources.iter().enumerate() {
            source_index.entry(source).or_insert(index);
        }
        DolevStrong {
            participating: config.participants.contains(&me),
            source_index,
            config,
            me,
            signer,
            input,
            accepted,
            relay_queue: Vec::new(),
            resolved: None,
            halted: false,
        }
    }

    /// Builds state machines for all nodes of the system; `inputs[i]` is the
    /// value node `i` broadcasts if it is a source.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    #[expect(
        clippy::indexing_slicing,
        reason = "`me` ranges over 0..n, and the assert above holds `inputs` to n entries"
    )]
    pub fn for_all_nodes(
        config: &SystemConfig,
        sources: Vec<usize>,
        inputs: &[u64],
        directory: Arc<KeyDirectory>,
    ) -> CoreResult<Vec<Self>> {
        assert_eq!(inputs.len(), config.n, "one input per node required");
        let shared = DolevStrongConfig::all_nodes(config, sources, directory)?;
        Ok((0..config.n)
            .map(|me| Self::new(shared.clone(), me, inputs[me]))
            .collect())
    }

    /// The resolved per-source values (meaningful after `t + 1` rounds).
    pub fn resolution(&self) -> Option<&Vec<Option<u64>>> {
        self.resolved.as_ref()
    }

    /// Accepted value chains still queued for relay (exposed for
    /// `AB-Consensus`, which reuses them as endorsement evidence).
    #[expect(
        clippy::indexing_slicing,
        reason = "`accepted` has one set per source; AB-Consensus asks with indices below the \
                  source count"
    )]
    pub fn accepted_values(&self, source_index: usize) -> Vec<u64> {
        self.accepted[source_index].iter().copied().collect()
    }

    fn broadcast_targets(&self) -> Vec<usize> {
        self.config
            .participants
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect()
    }
}

impl SyncProtocol for DolevStrong {
    type Msg = DsBatch;
    type Output = Vec<Option<u64>>;

    #[expect(
        clippy::indexing_slicing,
        reason = "`source_index` maps a source to its position in the source list, which sized \
                  `accepted`"
    )]
    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<DsBatch>>) {
        let r = round.as_u64();
        if r >= self.config.total_rounds() || !self.participating {
            return;
        }
        let mut batch: Vec<SignedValue> = Vec::new();
        if r == 0 {
            if let Some(&idx) = self.source_index.get(&self.me) {
                let sv = SignedValue::originate(&self.signer, self.input);
                self.accepted[idx].insert(self.input);
                batch.push(sv);
            }
        }
        batch.append(&mut self.relay_queue);
        if batch.is_empty() {
            return;
        }
        out.extend(
            self.broadcast_targets()
                .into_iter()
                .map(|p| Outgoing::new(NodeId::new(p), DsBatch(batch.clone()))),
        );
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`source_index` maps a source to its position in the source list, which sized \
                  `accepted`; an unknown sender was skipped first"
    )]
    fn receive(&mut self, round: Round, inbox: &[Delivered<DsBatch>]) {
        let r = round.as_u64();
        if r < self.config.total_rounds() && self.participating {
            for delivered in inbox {
                for sv in &delivered.msg.0 {
                    let Some(&idx) = self.source_index.get(&sv.source) else {
                        continue;
                    };
                    // Skip settled sources and already-accepted values
                    // before paying for chain verification.  Acceptance:
                    // valid chain with at least r+1 signatures.
                    let accepted = &mut self.accepted[idx];
                    if accepted.len() >= DECISIVE_VALUES
                        || accepted.contains(&sv.value)
                        || !sv.verify_chain_with_length(&self.config.directory, r as usize + 1)
                    {
                        continue;
                    }
                    // Newly accepted: relay with our countersignature in the
                    // next round (if any remain).
                    accepted.insert(sv.value);
                    let mut relay = sv.clone();
                    relay.countersign(&self.signer);
                    self.relay_queue.push(relay);
                }
            }
        }
        if r + 1 >= self.config.total_rounds() {
            let resolution = self
                .accepted
                .iter()
                .map(|values| {
                    if values.len() == 1 {
                        values.iter().next().copied()
                    } else {
                        None
                    }
                })
                .collect();
            self.resolved = Some(resolution);
            self.halted = true;
        }
    }

    fn output(&self) -> Option<Vec<Option<u64>>> {
        self.resolved.clone()
    }

    fn has_halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::adversary::byzantine::ScriptedByzantine;
    use dft_sim::{NoFaults, Participant, Runner};

    fn directory(n: usize) -> Arc<KeyDirectory> {
        Arc::new(KeyDirectory::generate(n, 7))
    }

    #[test]
    fn honest_sources_deliver_to_everyone() {
        let n = 12;
        let config = SystemConfig::new(n, 3).unwrap();
        let dir = directory(n);
        let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
        let nodes =
            DolevStrong::for_all_nodes(&config, vec![0, 1, 2], &inputs, dir.clone()).unwrap();
        let total = nodes[0].config.total_rounds();
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(total + 1);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        let resolution = report.agreed_value().unwrap();
        assert_eq!(resolution, &vec![Some(100), Some(101), Some(102)]);
    }

    #[test]
    fn equivocating_source_resolves_to_null_consistently() {
        let n = 10;
        let t = 2;
        let config = SystemConfig::new(n, t).unwrap();
        let dir = directory(n);
        let inputs: Vec<u64> = vec![5; n];
        let shared = DolevStrongConfig::all_nodes(&config, vec![0, 1], dir.clone()).unwrap();

        // Node 0 is Byzantine: it sends value 7 to half the nodes and value 8
        // to the other half in round 0, each correctly signed by itself.
        let byz_signer = dir.signer(0);
        let strategy =
            ScriptedByzantine::new(move |round: Round, _inbox: &[Delivered<DsBatch>]| {
                if round.as_u64() != 0 {
                    return Vec::new();
                }
                (1..n)
                    .map(|p| {
                        let value = if p % 2 == 0 { 7 } else { 8 };
                        let sv = SignedValue::originate(&byz_signer, value);
                        Outgoing::new(NodeId::new(p), DsBatch(vec![sv]))
                    })
                    .collect()
            });

        let mut participants: Vec<Participant<DolevStrong>> = Vec::new();
        participants.push(Participant::Byzantine(Box::new(strategy)));
        for (me, &input) in inputs.iter().enumerate().skip(1) {
            participants.push(Participant::Honest(DolevStrong::new(
                shared.clone(),
                me,
                input,
            )));
        }
        let total = shared.total_rounds();
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(total + 1);
        assert!(report.non_faulty_deciders_agree());
        let resolution = report.agreed_value().unwrap();
        assert_eq!(resolution[0], None, "equivocating source resolves to null");
        assert_eq!(resolution[1], Some(5), "honest source still delivers");
    }

    #[test]
    fn silent_source_resolves_to_null() {
        let n = 8;
        let config = SystemConfig::new(n, 2).unwrap();
        let dir = directory(n);
        let inputs = vec![9; n];
        let shared = DolevStrongConfig::all_nodes(&config, vec![0], dir).unwrap();
        let mut participants: Vec<Participant<DolevStrong>> = Vec::new();
        participants.push(Participant::Byzantine(Box::new(
            dft_sim::adversary::byzantine::SilentByzantine,
        )));
        for (me, &input) in inputs.iter().enumerate().skip(1) {
            participants.push(Participant::Honest(DolevStrong::new(
                shared.clone(),
                me,
                input,
            )));
        }
        let total = shared.total_rounds();
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(total + 1);
        let resolution = report.agreed_value().unwrap();
        assert_eq!(resolution[0], None);
    }

    #[test]
    fn runs_t_plus_one_rounds() {
        let config = SystemConfig::new(20, 6).unwrap();
        let shared =
            DolevStrongConfig::all_nodes(&config, vec![0], Arc::new(KeyDirectory::generate(20, 1)))
                .unwrap();
        assert_eq!(shared.total_rounds(), 7);
    }

    #[test]
    fn a_source_is_settled_by_its_first_two_values() {
        let n = 8;
        let config = SystemConfig::new(n, 2).unwrap();
        let dir = directory(n);
        let shared = DolevStrongConfig::all_nodes(&config, vec![3, 0], dir.clone()).unwrap();
        let source = dir.signer(0);
        let signed = (100..140).map(|value| SignedValue::originate(&source, value));
        let inbox = [Delivered::new(NodeId::new(0), DsBatch(signed.collect()))];
        let mut node = DolevStrong::new(shared, 1, 5);
        node.receive(Round::ZERO, &inbox);
        assert_eq!(node.accepted_values(1), vec![100, 101]);
        assert_eq!(
            node.relay_queue.len(),
            2,
            "nothing past the second is relayed"
        );
        // One more value in the next round changes nothing: the source is
        // null already.
        let mut late = SignedValue::originate(&source, 7);
        late.countersign(&dir.signer(2));
        node.receive(
            Round::new(1),
            &[Delivered::new(NodeId::new(2), DsBatch(vec![late]))],
        );
        assert_eq!(node.accepted_values(1), vec![100, 101]);
        assert_eq!(node.accepted_values(0), Vec::<u64>::new());
    }

    #[test]
    fn membership_and_source_indices_are_those_of_the_lists() {
        let dir = directory(6);
        let config = DolevStrongConfig {
            t: 1,
            participants: Arc::new(vec![0, 2, 4]),
            sources: Arc::new(vec![4, 2, 4]),
            directory: dir,
        };
        let member = DolevStrong::new(config.clone(), 4, 9);
        assert!(member.participating);
        // A source listed twice keeps its first index, as a scan would find.
        assert_eq!(member.source_index.get(&4), Some(&0));
        assert_eq!(member.source_index.get(&2), Some(&1));
        assert_eq!(member.source_index.get(&0), None);
        let mut outsider = DolevStrong::new(config, 3, 9);
        assert!(!outsider.participating);
        let mut out = Vec::new();
        outsider.send(Round::ZERO, &mut out);
        assert!(out.is_empty());
    }
}
