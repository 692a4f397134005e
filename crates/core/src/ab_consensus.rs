//! `AB-Consensus`: consensus with authenticated Byzantine faults
//! (Section 7, Figure 7, Theorem 11).
//!
//! For `t < n/2` Byzantine nodes with authentication, the algorithm reaches
//! consensus in `O(t)` rounds while non-faulty nodes send `O(t² + n)`
//! messages:
//!
//! 1. **Part 1** — the `5t` little nodes run parallel Dolev–Strong broadcasts
//!    of their inputs (`t + 1` rounds, messages combined per pair), then one
//!    endorsement round in which the little nodes cross-sign their resolved
//!    value set, producing an *authenticated common set of values*: one entry
//!    per little source, each carrying at least `little − t` little-node
//!    signatures.
//! 2. **Part 2** — little nodes hand the set to their related nodes.
//! 3. **Part 3** — slow propagation of the set along the constant-degree
//!    graph `H`; every hop verifies the signatures before adopting.
//! 4. **Part 4** — nodes still missing the set send signed inquiries to all
//!    little nodes, which respond with the set.
//!
//! Every node finally decides on the maximum value of its authenticated set.

use std::collections::BTreeMap;
use std::sync::Arc;

use dft_auth::{KeyDirectory, Signature, SignedValue, Signer};
use dft_overlay::Graph;
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::SystemConfig;
use crate::dolev_strong::DsBatch;
use crate::error::CoreResult;

/// The sentinel encoding of the paper's *null* value for a Byzantine source
/// that equivocated or stayed silent.
pub const NULL_VALUE: u64 = u64::MAX;

/// An authenticated common set of values: one entry per little source, each
/// endorsed by a quorum of little-node signatures.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonSet {
    /// One signed entry per little source, indexed by source.
    pub entries: Vec<SignedValue>,
}

impl CommonSet {
    /// Verifies the set: one entry per little source in order, every
    /// signature valid over its entry, signers pairwise distinct, and at
    /// least `threshold` little-node signers per entry.
    pub fn verify(&self, directory: &KeyDirectory, little: usize, threshold: usize) -> bool {
        if self.entries.len() != little {
            return false;
        }
        self.entries.iter().enumerate().all(|(source, entry)| {
            if entry.source != source {
                return false;
            }
            let digest = dft_auth::value_digest(entry.source, entry.value);
            let mut seen: Vec<usize> = Vec::new();
            for signature in &entry.signatures {
                if seen.contains(&signature.signer) || !directory.verify_digest(signature, digest) {
                    return false;
                }
                seen.push(signature.signer);
            }
            seen.iter().filter(|&&s| s < little).count() >= threshold
        })
    }

    /// The decision derived from the set: the maximum non-null value, or 0 if
    /// every entry is null.
    pub fn decision(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.value)
            .filter(|&v| v != NULL_VALUE)
            .max()
            .unwrap_or(0)
    }

    /// Wire size in bits.
    pub fn encoded_bits(&self) -> u64 {
        64 + self
            .entries
            .iter()
            .map(SignedValue::encoded_bits)
            .sum::<u64>()
    }
}

/// Messages of `AB-Consensus`.
///
/// The bulky variants are [`Arc`]-wrapped: the same batch, endorsement list
/// or common set is broadcast to many destinations each round, and sharing
/// makes the per-recipient copy a reference-count bump instead of a deep
/// clone of a signature chain.  Wire sizes ([`Payload::bit_len`]) are those
/// of the inner values, so the paper's bit accounting is unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum AbMsg {
    /// Part 1: a batch of Dolev–Strong relays.
    Ds(Arc<DsBatch>),
    /// Part 1 endorsement round: a little node's endorsed entries.
    Endorse(Arc<Vec<SignedValue>>),
    /// Parts 2–4: the authenticated common set of values.
    CommonSet(Arc<CommonSet>),
    /// Part 4: an authenticated inquiry (signature over the inquirer's id).
    Inquiry(Signature),
}

impl Payload for AbMsg {
    fn bit_len(&self) -> u64 {
        match self {
            AbMsg::Ds(batch) => batch.bit_len(),
            AbMsg::Endorse(entries) => {
                64 + entries.iter().map(SignedValue::encoded_bits).sum::<u64>()
            }
            AbMsg::CommonSet(set) => set.encoded_bits(),
            AbMsg::Inquiry(_) => Signature::BIT_LEN,
        }
    }

    /// The bulky variants are nothing but their `Arc`.
    fn share_key(&self) -> Option<usize> {
        match self {
            AbMsg::Ds(batch) => Some(Arc::as_ptr(batch).addr()),
            AbMsg::Endorse(entries) => Some(Arc::as_ptr(entries).addr()),
            AbMsg::CommonSet(set) => Some(Arc::as_ptr(set).addr()),
            AbMsg::Inquiry(_) => None,
        }
    }
}

/// Static configuration shared by every node running [`AbConsensus`].
#[derive(Clone, Debug)]
pub struct AbConfig {
    /// Number of nodes.
    pub n: usize,
    /// Fault bound (`t < n/2`).
    pub t: usize,
    /// Number of little nodes.
    pub little: usize,
    /// Minimum little-node signatures per entry of a valid common set.
    pub threshold: usize,
    /// The broadcast graph `H` of Part 3.
    pub h_graph: Arc<Graph>,
    /// Number of Part 3 propagation rounds.
    pub part3_rounds: u64,
    /// Key directory.
    pub directory: Arc<KeyDirectory>,
}

impl AbConfig {
    /// Derives the configuration from a [`SystemConfig`] and key directory.
    ///
    /// # Errors
    ///
    /// Returns an error unless `t < n/2`.
    pub fn from_system(config: &SystemConfig, directory: Arc<KeyDirectory>) -> CoreResult<Self> {
        config.require_byzantine_minority()?;
        let little = config.little_count();
        Ok(AbConfig {
            n: config.n,
            t: config.t,
            little,
            threshold: little.saturating_sub(config.t).max(1),
            h_graph: config.h_graph(),
            part3_rounds: config.scv_broadcast_rounds(),
            directory,
        })
    }

    /// Rounds of Part 1: `t + 1` Dolev–Strong rounds plus the endorsement
    /// round.
    pub fn part1_rounds(&self) -> u64 {
        self.t as u64 + 2
    }

    /// Total number of rounds (Parts 1–4).
    pub fn total_rounds(&self) -> u64 {
        self.part1_rounds() + 1 + self.part3_rounds + 2
    }

    fn endorse_round(&self) -> u64 {
        self.t as u64 + 1
    }

    fn notify_round(&self) -> u64 {
        self.part1_rounds()
    }

    fn part3_start(&self) -> u64 {
        self.notify_round() + 1
    }

    fn inquiry_round(&self) -> u64 {
        self.part3_start() + self.part3_rounds
    }

    fn response_round(&self) -> u64 {
        self.inquiry_round() + 1
    }
}

/// Per-node state machine for `AB-Consensus`.
#[derive(Clone, Debug)]
pub struct AbConsensus {
    config: AbConfig,
    me: usize,
    signer: Signer,
    input: u64,
    /// Dolev–Strong state: accepted values per little source.
    accepted: Vec<BTreeMap<u64, SignedValue>>,
    relay_queue: Vec<SignedValue>,
    /// Merged endorsement chains per source, keyed by resolved value.
    endorsed: Vec<Option<SignedValue>>,
    common: Option<Arc<CommonSet>>,
    forward_pending: bool,
    inquirers: Vec<usize>,
    decided: Option<u64>,
    halted: bool,
}

impl AbConsensus {
    /// Creates the state machine for node `me` with consensus input `input`.
    pub fn new(config: AbConfig, me: usize, input: u64) -> Self {
        let signer = config.directory.signer(me);
        let accepted = vec![BTreeMap::new(); config.little];
        let endorsed = vec![None; config.little];
        AbConsensus {
            config,
            me,
            signer,
            input,
            accepted,
            relay_queue: Vec::new(),
            endorsed,
            common: None,
            forward_pending: false,
            inquirers: Vec::new(),
            decided: None,
            halted: false,
        }
    }

    /// Builds state machines for all nodes from per-node inputs.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (requires `t < n/2`).
    pub fn for_all_nodes(
        config: &SystemConfig,
        inputs: &[u64],
        directory: Arc<KeyDirectory>,
    ) -> CoreResult<Vec<Self>> {
        assert_eq!(inputs.len(), config.n, "one input per node required");
        let shared = AbConfig::from_system(config, directory)?;
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(me, &input)| Self::new(shared.clone(), me, input))
            .collect())
    }

    /// Total rounds this protocol runs for.
    pub fn total_rounds(&self) -> u64 {
        self.config.total_rounds()
    }

    fn is_little(&self) -> bool {
        self.me < self.config.little
    }

    fn little_peers(&self) -> Vec<usize> {
        (0..self.config.little).filter(|&p| p != self.me).collect()
    }

    fn related_nodes(&self) -> Vec<usize> {
        (0..self.config.n)
            .skip(self.me + self.config.little)
            .step_by(self.config.little.max(1))
            .collect()
    }

    fn adopt(&mut self, set: &Arc<CommonSet>) {
        // Check the cheap guard before the (expensive) chain verification:
        // once a node holds a verified set, further copies carry no news.
        if self.common.is_none()
            && set.verify(
                &self.config.directory,
                self.config.little,
                self.config.threshold,
            )
        {
            self.common = Some(Arc::clone(set));
            self.forward_pending = true;
        }
    }

    /// Builds this little node's endorsed entries after Dolev–Strong
    /// resolution.
    fn build_endorsements(&mut self) -> Vec<SignedValue> {
        let mut entries = Vec::with_capacity(self.config.little);
        for source in 0..self.config.little {
            let resolved: Option<(u64, SignedValue)> = if self.accepted[source].len() == 1 {
                self.accepted[source]
                    .iter()
                    .next()
                    .map(|(v, sv)| (*v, sv.clone()))
            } else {
                None
            };
            let mut entry = match resolved {
                Some((_, mut sv)) => {
                    sv.countersign(&self.signer);
                    sv
                }
                None => SignedValue {
                    source,
                    value: NULL_VALUE,
                    signatures: vec![self
                        .signer
                        .sign_digest(dft_auth::value_digest(source, NULL_VALUE))],
                },
            };
            entry.source = source;
            self.endorsed[source] = Some(entry.clone());
            entries.push(entry);
        }
        entries
    }

    /// Merges a peer's endorsements into our own chains (same source and
    /// value only).
    fn merge_endorsements(&mut self, entries: &[SignedValue]) {
        for entry in entries {
            let Some(Some(own)) = self.endorsed.get_mut(entry.source) else {
                continue;
            };
            if own.value != entry.value {
                continue;
            }
            let digest = dft_auth::value_digest(entry.source, entry.value);
            for signature in &entry.signatures {
                if own.signatures.iter().any(|s| s.signer == signature.signer) {
                    continue;
                }
                if self.config.directory.verify_digest(signature, digest) {
                    own.signatures.push(*signature);
                }
            }
        }
    }

    fn finalize_common_set(&mut self) {
        if self.common.is_some() {
            return;
        }
        let entries: Vec<SignedValue> = self
            .endorsed
            .iter()
            .cloned()
            .map(|e| e.expect("endorsements built before finalization"))
            .collect();
        let set = CommonSet { entries };
        if set.verify(
            &self.config.directory,
            self.config.little,
            self.config.threshold,
        ) {
            self.common = Some(Arc::new(set));
        }
    }
}

impl SyncProtocol for AbConsensus {
    type Msg = AbMsg;
    type Output = u64;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<AbMsg>>) {
        let r = round.as_u64();
        let cfg = &self.config;
        if r < cfg.endorse_round() {
            // Part 1: Dolev–Strong rounds (little nodes only).
            if !self.is_little() {
                return;
            }
            let mut batch: Vec<SignedValue> = Vec::new();
            if r == 0 {
                let sv = SignedValue::originate(&self.signer, self.input);
                self.accepted[self.me].insert(self.input, sv.clone());
                batch.push(sv);
            }
            batch.append(&mut self.relay_queue);
            if batch.is_empty() {
                return;
            }
            let batch = Arc::new(DsBatch(batch));
            out.extend(
                self.little_peers()
                    .into_iter()
                    .map(|p| Outgoing::new(NodeId::new(p), AbMsg::Ds(Arc::clone(&batch)))),
            );
            return;
        }
        if r == cfg.endorse_round() {
            if !self.is_little() {
                return;
            }
            let entries = Arc::new(self.build_endorsements());
            out.extend(
                self.little_peers()
                    .into_iter()
                    .map(|p| Outgoing::new(NodeId::new(p), AbMsg::Endorse(Arc::clone(&entries)))),
            );
            return;
        }
        if r == cfg.notify_round() {
            // Part 2: little nodes notify related nodes.
            if self.is_little() {
                self.finalize_common_set();
                if let Some(set) = &self.common {
                    self.forward_pending = true;
                    out.extend(
                        self.related_nodes().into_iter().map(|p| {
                            Outgoing::new(NodeId::new(p), AbMsg::CommonSet(Arc::clone(set)))
                        }),
                    );
                }
            }
            return;
        }
        if r < cfg.inquiry_round() {
            // Part 3: propagate over H when newly adopted.
            if self.forward_pending {
                self.forward_pending = false;
                if let Some(set) = &self.common {
                    out.extend(cfg.h_graph.neighbors(self.me).iter().map(|&p| {
                        Outgoing::new(NodeId::new(p), AbMsg::CommonSet(Arc::clone(set)))
                    }));
                }
            }
            return;
        }
        if r == cfg.inquiry_round() {
            // Part 4, first round: signed inquiries from nodes without a set.
            if self.common.is_none() {
                let signature = self
                    .signer
                    .sign_digest(dft_auth::hash::hash_words(&[0x1D_u64, self.me as u64]));
                out.extend(
                    (0..cfg.little)
                        .filter(|&p| p != self.me)
                        .map(|p| Outgoing::new(NodeId::new(p), AbMsg::Inquiry(signature))),
                );
            }
            return;
        }
        if r == cfg.response_round() && self.is_little() {
            if let Some(set) = &self.common {
                let inquirers = std::mem::take(&mut self.inquirers);
                out.extend(
                    inquirers
                        .into_iter()
                        .map(|p| Outgoing::new(NodeId::new(p), AbMsg::CommonSet(Arc::clone(set)))),
                );
            }
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<AbMsg>]) {
        let r = round.as_u64();
        let cfg = self.config.clone();
        if r < cfg.endorse_round() {
            if self.is_little() {
                for delivered in inbox {
                    if let AbMsg::Ds(batch) = &delivered.msg {
                        for sv in &batch.0 {
                            // Skip already-accepted values before paying for
                            // chain verification: relays of known values are
                            // the common case in later Dolev–Strong rounds.
                            if sv.source >= cfg.little
                                || self.accepted[sv.source].contains_key(&sv.value)
                                || !sv.verify_chain_with_length(&cfg.directory, r as usize + 1)
                            {
                                continue;
                            }
                            let mut relay = sv.clone();
                            relay.countersign(&self.signer);
                            self.accepted[sv.source].insert(sv.value, sv.clone());
                            self.relay_queue.push(relay);
                        }
                    }
                }
            }
        } else if r == cfg.endorse_round() {
            if self.is_little() {
                // Our own endorsements were built in `send`; merge peers'.
                for delivered in inbox {
                    if let AbMsg::Endorse(entries) = &delivered.msg {
                        self.merge_endorsements(entries);
                    }
                }
            }
        } else {
            for delivered in inbox {
                match &delivered.msg {
                    AbMsg::CommonSet(set) => self.adopt(set),
                    AbMsg::Inquiry(signature) => {
                        let digest =
                            dft_auth::hash::hash_words(&[0x1D_u64, delivered.from.index() as u64]);
                        if signature.signer == delivered.from.index()
                            && cfg.directory.verify_digest(signature, digest)
                        {
                            self.inquirers.push(delivered.from.index());
                        }
                    }
                    _ => {}
                }
            }
        }
        if r + 1 >= cfg.total_rounds() {
            if let Some(set) = &self.common {
                self.decided = Some(set.decision());
            }
            self.halted = true;
        }
    }

    fn output(&self) -> Option<u64> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::adversary::byzantine::{ScriptedByzantine, SilentByzantine};
    use dft_sim::{NoFaults, Participant, Runner};

    fn setup(n: usize, t: usize, seed: u64) -> (SystemConfig, Arc<KeyDirectory>) {
        let config = SystemConfig::new(n, t).unwrap().with_seed(seed);
        let directory = Arc::new(KeyDirectory::generate(n, seed));
        (config, directory)
    }

    fn run_honest(n: usize, t: usize, inputs: &[u64]) -> dft_sim::ExecutionReport<u64> {
        let (config, directory) = setup(n, t, 3);
        let nodes = AbConsensus::for_all_nodes(&config, inputs, directory).unwrap();
        let total = nodes[0].total_rounds();
        let mut runner = Runner::new(nodes).unwrap();
        runner.run(total + 2)
    }

    #[test]
    fn all_honest_decide_max_little_input() {
        let n = 40;
        let t = 4;
        let inputs: Vec<u64> = (0..n as u64).collect();
        let report = run_honest(n, t, &inputs);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        // Little nodes are 0..20; the maximum little input is 19.
        assert_eq!(report.agreed_value(), Some(&19));
    }

    #[test]
    fn silent_byzantine_little_nodes_tolerated() {
        let n = 30;
        let t = 3;
        let (config, directory) = setup(n, t, 5);
        let inputs: Vec<u64> = vec![7; n];
        let shared = AbConfig::from_system(&config, directory).unwrap();
        let mut participants: Vec<Participant<AbConsensus>> = Vec::new();
        for me in 0..n {
            if me < t {
                participants.push(Participant::Byzantine(Box::new(SilentByzantine)));
            } else {
                participants.push(Participant::Honest(AbConsensus::new(shared.clone(), me, 7)));
            }
        }
        let total = shared.total_rounds();
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(total + 2);
        assert!(
            report.all_non_faulty_decided(),
            "termination despite silent Byzantine nodes"
        );
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&7));
        let _ = inputs;
    }

    #[test]
    fn equivocating_little_source_cannot_split_decisions() {
        let n = 30;
        let t = 3;
        let (config, directory) = setup(n, t, 9);
        let shared = AbConfig::from_system(&config, directory.clone()).unwrap();
        let little = shared.little;
        let byz_signer = directory.signer(0);
        let strategy = ScriptedByzantine::new(move |round: Round, _inbox: &[Delivered<AbMsg>]| {
            if round.as_u64() != 0 {
                return Vec::new();
            }
            (1..little)
                .map(|p| {
                    let value = if p % 2 == 0 { 100 } else { 200 };
                    let sv = SignedValue::originate(&byz_signer, value);
                    Outgoing::new(NodeId::new(p), AbMsg::Ds(Arc::new(DsBatch(vec![sv]))))
                })
                .collect()
        });
        let mut participants: Vec<Participant<AbConsensus>> = Vec::new();
        participants.push(Participant::Byzantine(Box::new(strategy)));
        for me in 1..n {
            participants.push(Participant::Honest(AbConsensus::new(shared.clone(), me, 5)));
        }
        let total = shared.total_rounds();
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(total + 2);
        assert!(
            report.non_faulty_deciders_agree(),
            "agreement under equivocation"
        );
        assert!(report.all_non_faulty_decided());
        // The equivocator resolves to null, so the decision is the maximum of
        // the honest little inputs (5), never 100 or 200.
        assert_eq!(report.agreed_value(), Some(&5));
    }

    #[test]
    fn message_complexity_is_quadratic_in_t_not_n() {
        let n = 80;
        let t = 4;
        let inputs: Vec<u64> = vec![1; n];
        let report = run_honest(n, t, &inputs);
        // Theorem 11: O(t² + n) messages from non-faulty nodes.  With little
        // = 5t = 20 the dominant Part 1 term is ~ (5t)²·(t+1); check we stay
        // well below n² rounds of all-to-all traffic.
        let little = 5 * t as u64;
        let bound = little * little * (t as u64 + 3) + 20 * n as u64;
        assert!(
            report.metrics.messages <= bound,
            "{} messages exceeds {bound}",
            report.metrics.messages
        );
    }

    #[test]
    fn rejects_t_at_least_half() {
        let (config, directory) = setup(20, 10, 1);
        assert!(AbConsensus::for_all_nodes(&config, &[0; 20], directory).is_err());
    }

    #[test]
    fn common_set_verification_rejects_thin_quorums() {
        let directory = KeyDirectory::generate(10, 4);
        let entry = SignedValue::originate(&directory.signer(0), 3);
        let set = CommonSet {
            entries: vec![entry],
        };
        assert!(set.verify(&directory, 1, 1));
        assert!(!set.verify(&directory, 1, 2), "needs two little signatures");
        assert!(!set.verify(&directory, 2, 1), "wrong number of entries");
    }
}
