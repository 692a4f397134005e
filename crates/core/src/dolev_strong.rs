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
//! The accept / countersign / relay rule is [`DsRelay`], which its owner
//! drives: [`DolevStrong`] here, `AB-Consensus` Part 1, the quadratic baseline.

use std::collections::BTreeMap;
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
        chains_bits(&self.0)
    }
}

/// Wire size in bits of a sequence of signed values: a length, then each.
pub(crate) fn chains_bits(chains: &[SignedValue]) -> u64 {
    64 + chains.iter().map(SignedValue::encoded_bits).sum::<u64>()
}

#[cfg(test)]
thread_local! {
    /// Chains this thread verified (the MAC work an acceptance costs).
    static CHAIN_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One node's state in a parallel Dolev–Strong broadcast: what it accepted
/// per source *slot* (the source's position in the owner's list) and what it
/// owes its peers next round.  Two accepted values already make a source
/// null, so at most [`DECISIVE_VALUES`] chains are kept per slot and nothing
/// past them is verified, stored or relayed.
#[derive(Clone, Debug)]
pub struct DsRelay {
    signer: Signer,
    directory: Arc<KeyDirectory>,
    /// Accepted chains per slot, as received, in order of acceptance.
    accepted: Vec<Vec<SignedValue>>,
    /// Values accepted since the last batch, countersigned.
    queue: Vec<SignedValue>,
}

impl DsRelay {
    /// The relay of the node `signer` signs for, over `slots` sources.
    pub fn new(signer: Signer, directory: Arc<KeyDirectory>, slots: usize) -> Self {
        DsRelay {
            signer,
            directory,
            accepted: vec![Vec::new(); slots],
            queue: Vec::new(),
        }
    }

    /// Signs `input` as the source of `slot`, accepts it and queues it.
    pub fn originate(&mut self, slot: usize, input: u64) {
        if let Some(accepted) = self.accepted.get_mut(slot) {
            let signed = SignedValue::originate(&self.signer, input);
            accepted.push(signed.clone());
            self.queue.push(signed);
        }
    }

    /// Everything queued since the last batch, as one allocation every
    /// recipient shares; `None` if there is nothing to say.
    pub fn take_batch(&mut self) -> Option<Arc<DsBatch>> {
        (!self.queue.is_empty()).then(|| Arc::new(DsBatch(std::mem::take(&mut self.queue))))
    }

    /// A batch delivered in round `r`: a value is accepted if its source has
    /// a slot (`slot_of`) that is not settled, the value is new there, and its
    /// chain verifies at length `r + 1` or more.  What is accepted is queued
    /// with this node's countersignature.
    pub fn receive(&mut self, r: u64, batch: &DsBatch, slot_of: impl Fn(usize) -> Option<usize>) {
        for sv in &batch.0 {
            let Some(accepted) = slot_of(sv.source).and_then(|slot| self.accepted.get_mut(slot))
            else {
                continue;
            };
            // Settled sources and known values — the common case in later
            // rounds — are passed over before paying for chain verification.
            if accepted.len() >= DECISIVE_VALUES || accepted.iter().any(|a| a.value == sv.value) {
                continue;
            }
            #[cfg(test)]
            CHAIN_CHECKS.with(|count| count.set(count.get() + 1));
            if !sv.verify_chain_with_length(&self.directory, r as usize + 1) {
                continue;
            }
            accepted.push(sv.clone());
            let mut relay = sv.clone();
            relay.countersign(&self.signer);
            self.queue.push(relay);
        }
    }

    /// The chains accepted for `slot` (none for a slot that does not exist).
    pub fn accepted(&self, slot: usize) -> &[SignedValue] {
        self.accepted.get(slot).map_or(&[], Vec::as_slice)
    }

    /// Per slot, the chain of the one value accepted for it, or `None` (the
    /// paper's null) for a source that equivocated or stayed silent.
    pub fn resolutions(&self) -> impl Iterator<Item = Option<&SignedValue>> {
        self.accepted
            .iter()
            .map(|accepted| match accepted.as_slice() {
                [only] => Some(only),
                _ => None,
            })
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
    /// My own input (used only if I am a source).
    input: u64,
    /// Whether I am one of `config.participants`.
    participating: bool,
    /// Each source's slot: its first position in `config.sources`.
    source_index: BTreeMap<usize, usize>,
    relay: DsRelay,
    resolved: Option<Vec<Option<u64>>>,
}

impl DolevStrong {
    /// Creates the state machine for node `me` with broadcast input `input`
    /// (ignored unless `me` is a source).
    pub fn new(config: DolevStrongConfig, me: usize, input: u64) -> Self {
        let mut source_index = BTreeMap::new();
        for (index, &source) in config.sources.iter().enumerate() {
            source_index.entry(source).or_insert(index);
        }
        let relay = DsRelay::new(
            config.directory.signer(me),
            Arc::clone(&config.directory),
            config.sources.len(),
        );
        DolevStrong {
            participating: config.participants.contains(&me),
            source_index,
            relay,
            config,
            me,
            input,
            resolved: None,
        }
    }

    /// Builds state machines for all nodes of the system; `inputs[i]` is the
    /// value node `i` broadcasts if it is a source.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn for_all_nodes(
        config: &SystemConfig,
        sources: Vec<usize>,
        inputs: &[u64],
        directory: Arc<KeyDirectory>,
    ) -> CoreResult<Vec<Self>> {
        assert_eq!(inputs.len(), config.n, "one input per node required");
        let shared = DolevStrongConfig::all_nodes(config, sources, directory)?;
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(me, &input)| Self::new(shared.clone(), me, input))
            .collect())
    }
}

impl SyncProtocol for DolevStrong {
    type Msg = Arc<DsBatch>;
    type Output = Vec<Option<u64>>;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<Arc<DsBatch>>>) {
        let r = round.as_u64();
        if r >= self.config.total_rounds() || !self.participating {
            return;
        }
        if r == 0 {
            if let Some(&slot) = self.source_index.get(&self.me) {
                self.relay.originate(slot, self.input);
            }
        }
        let Some(batch) = self.relay.take_batch() else {
            return;
        };
        let peers = self.config.participants.iter().filter(|&&p| p != self.me);
        out.extend(peers.map(|&p| Outgoing::new(NodeId::new(p), Arc::clone(&batch))));
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<Arc<DsBatch>>]) {
        let r = round.as_u64();
        if r < self.config.total_rounds() && self.participating {
            for delivered in inbox {
                let slot_of = |source| self.source_index.get(&source).copied();
                self.relay.receive(r, &delivered.msg, slot_of);
            }
        }
        if r + 1 >= self.config.total_rounds() {
            let values = self.relay.resolutions().map(|chain| Some(chain?.value));
            self.resolved = Some(values.collect());
        }
    }

    fn output(&self) -> Option<Vec<Option<u64>>> {
        self.resolved.clone()
    }

    fn has_halted(&self) -> bool {
        self.resolved.is_some()
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
            ScriptedByzantine::new(move |round: Round, _inbox: &[Delivered<Arc<DsBatch>>]| {
                if round.as_u64() != 0 {
                    return Vec::new();
                }
                (1..n)
                    .map(|p| {
                        let value = if p % 2 == 0 { 7 } else { 8 };
                        let sv = SignedValue::originate(&byz_signer, value);
                        Outgoing::new(NodeId::new(p), Arc::new(DsBatch(vec![sv])))
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

    fn chain_checks() -> usize {
        CHAIN_CHECKS.with(std::cell::Cell::get)
    }

    /// Node 1's relay in a system of 8 whose two slots are sources 1 and 0.
    fn relay_of_node_one(dir: &Arc<KeyDirectory>) -> (DsRelay, impl Fn(usize) -> Option<usize>) {
        let relay = DsRelay::new(dir.signer(1), Arc::clone(dir), 2);
        (relay, |source| [1, 0].iter().position(|&s| s == source))
    }

    fn values(chains: &[SignedValue]) -> Vec<u64> {
        chains.iter().map(|chain| chain.value).collect()
    }

    #[test]
    fn a_source_is_settled_by_its_first_two_values() {
        let dir = directory(8);
        let (mut relay, slot_of) = relay_of_node_one(&dir);
        let source = dir.signer(0);
        let signed = (100..140).map(|value| SignedValue::originate(&source, value));
        let before = chain_checks();
        relay.receive(0, &DsBatch(signed.collect()), &slot_of);
        assert_eq!(values(relay.accepted(1)), vec![100, 101]);
        assert_eq!(chain_checks() - before, 2, "the other 38 cost nothing");
        // One more value in the next round changes nothing: the source is
        // null already.
        let mut late = SignedValue::originate(&source, 7);
        late.countersign(&dir.signer(2));
        relay.receive(1, &DsBatch(vec![late]), &slot_of);
        assert_eq!(values(relay.accepted(1)), vec![100, 101]);
        assert!(relay.accepted(0).is_empty());
        assert_eq!(relay.resolutions().collect::<Vec<_>>(), vec![None, None]);
        // Nothing past the second is relayed, and both carry our signature.
        let batch = relay.take_batch().expect("two relays are owed");
        assert_eq!(values(&batch.0), vec![100, 101]);
        assert!(batch.0.iter().all(|chain| chain.signers() == vec![0, 1]));
        assert!(relay.take_batch().is_none(), "a batch is handed out once");
    }

    #[test]
    fn a_short_chain_a_repeated_signer_and_a_stranger_are_refused() {
        let dir = directory(8);
        let (mut relay, slot_of) = relay_of_node_one(&dir);
        let source = dir.signer(0);
        // Round 1 asks for two signatures; the source's alone is too few.
        let bare = SignedValue::originate(&source, 40);
        // Twice the same countersigner is still one distinct signer.
        let mut padded = SignedValue::originate(&source, 41);
        padded.countersign(&dir.signer(5));
        let repeat = padded.signatures[1];
        padded.signatures.push(repeat);
        // Node 6 is nobody's source here, however well it signs.
        let mut stranger = SignedValue::originate(&dir.signer(6), 42);
        stranger.countersign(&dir.signer(5));
        relay.receive(1, &DsBatch(vec![bare, padded, stranger]), &slot_of);
        assert!(relay.accepted(1).is_empty());
        assert!(relay.take_batch().is_none());
        // The same value with a chain of two is accepted in that round, and
        // resolves its slot.
        let mut relayed = SignedValue::originate(&source, 40);
        relayed.countersign(&dir.signer(5));
        relay.receive(1, &DsBatch(vec![relayed.clone()]), &slot_of);
        assert_eq!(
            relay.resolutions().collect::<Vec<_>>(),
            vec![None, Some(&relayed)]
        );
    }

    #[test]
    fn an_accepted_value_is_skipped_without_a_mac_check() {
        let dir = directory(8);
        let (mut relay, slot_of) = relay_of_node_one(&dir);
        // Our own value and one we accepted.
        relay.originate(0, 9);
        let accepted = SignedValue::originate(&dir.signer(0), 50);
        relay.receive(0, &DsBatch(vec![accepted.clone()]), &slot_of);
        assert_eq!(relay.take_batch().map(|batch| batch.0.len()), Some(2));
        // Both come back round after round from every peer, countersigned.
        let before = chain_checks();
        let mut echo = accepted;
        echo.countersign(&dir.signer(4));
        let mut own_echo = relay.accepted(0)[0].clone();
        own_echo.countersign(&dir.signer(4));
        relay.receive(1, &DsBatch(vec![echo, own_echo]), &slot_of);
        assert_eq!(chain_checks(), before, "no chain was verified");
        assert!(relay.take_batch().is_none(), "and nothing is relayed twice");
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
        let mut member = DolevStrong::new(config.clone(), 4, 9);
        assert!(member.participating);
        // A source listed twice keeps its first index, as a scan would find.
        assert_eq!(member.source_index.get(&4), Some(&0));
        assert_eq!(member.source_index.get(&2), Some(&1));
        assert_eq!(member.source_index.get(&0), None);
        // One batch for the two peers, not a copy each.
        let mut out = Vec::new();
        member.send(Round::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        assert!(Arc::ptr_eq(&out[0].msg, &out[1].msg));
        assert_eq!(
            member.relay.accepted(0).len(),
            1,
            "its own value, in slot 0"
        );
        let mut outsider = DolevStrong::new(config, 3, 9);
        assert!(!outsider.participating);
        out.clear();
        outsider.send(Round::ZERO, &mut out);
        assert!(out.is_empty());
    }
}
