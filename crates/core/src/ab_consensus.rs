//! `AB-Consensus`: consensus with authenticated Byzantine faults
//! (Section 7, Figure 7, Theorem 11).
//!
//! For `t < n/2` Byzantine nodes with authentication, the algorithm reaches
//! consensus in `O(t)` rounds while non-faulty nodes send `O(t² + n)`
//! messages.  It has the shape of `Few-Crashes-Consensus`, with Dolev–Strong
//! in place of `Almost-Everywhere-Agreement`, and is the same [`Then`]:
//!
//! 1. [`AbAgreement`], rounds `0..=t+2`.  **Part 1**: the `5t` little nodes
//!    run parallel Dolev–Strong broadcasts of their inputs (`t + 1` rounds,
//!    messages combined per pair), then one endorsement round in which they
//!    cross-sign their resolved value set, producing an *authenticated
//!    common set of values*: one entry per little source, each carrying at
//!    least `little − t` little-node signatures.  **Part 2**: little nodes
//!    hand the set to their related nodes.
//! 2. [`SpreadCommonValue`] of the set, believing what [`Authenticated`]
//!    does.  **Part 3**: slow propagation of the set along the
//!    constant-degree graph `H`; every hop verifies the signatures before
//!    adopting.  **Part 4**: nodes still missing the set send signed
//!    inquiries to all little nodes, which respond with the set.
//!
//! Every node finally decides on the maximum value of its authenticated set.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use dft_auth::{KeyDirectory, Signature, SignedValue, Signer, SignerSet};
use dft_sim::shard::wire_struct;
use dft_sim::{Delivered, NodeId, Outgoing, Payload, Round, SyncProtocol};

use crate::config::{related_nodes, SystemConfig};
use crate::dolev_strong::{chains_bits, DsBatch, DsRelay};
use crate::error::CoreResult;
use crate::inquiries::{Inquiries, Targets};
use crate::scv::{ScvConfig, ScvMsg, SpreadCommonValue, Trust};
use crate::then::{Staged, Stages, Then};

/// The sentinel encoding of the paper's *null* value for a Byzantine source
/// that equivocated or stayed silent.
pub const NULL_VALUE: u64 = u64::MAX;

/// An authenticated common set of values: one entry per little source, each
/// endorsed by a quorum of little-node signatures.
///
/// A set is immutable once built and travels as one shared [`Arc`]: a little
/// node hands the same allocation to its related nodes and `H` forwards it
/// on, so most of the n nodes that must check a set check the *same object*.
/// The set therefore remembers its own verdict (see [`verify`](Self::verify)).
/// That is sound because nothing can change the entries after the verdict
/// exists — they are private, and there is no mutating method — and because
/// only `verify` writes the memo: a set that is built, cloned from an
/// unjudged set or decoded from the wire starts without one.
#[derive(Clone)]
pub struct CommonSet {
    entries: Vec<SignedValue>,
    verdict: OnceLock<Verdict>,
}

/// Everything a verdict on a set depends on apart from the set's entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Question {
    /// [`KeyDirectory::fingerprint`] of the directory to judge by.
    directory: u64,
    little: usize,
    threshold: usize,
}

/// What [`CommonSet::verify`] found, beside the question it answers.
#[derive(Clone, Copy, Debug)]
struct Verdict {
    asked: Question,
    valid: bool,
}

// The memo is no part of the value: it is not on the wire (the `OnceLock`
// codec writes nothing and reads an unset cell), and two sets are equal when
// their entries are.
wire_struct!(CommonSet {
    entries: Vec<SignedValue>,
    verdict: OnceLock<Verdict>,
});

impl PartialEq for CommonSet {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl std::fmt::Debug for CommonSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommonSet")
            .field("entries", &self.entries)
            .finish()
    }
}

#[cfg(test)]
thread_local! {
    /// Verdicts this thread worked out in full for a caller (the debug
    /// cross-check of a remembered verdict is not one).
    static FULL_VERIFICATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl CommonSet {
    /// A set of the given entries, not yet judged.
    pub fn new(entries: Vec<SignedValue>) -> Self {
        CommonSet {
            entries,
            verdict: OnceLock::new(),
        }
    }

    /// The entries, one per little source, indexed by source.
    pub fn entries(&self) -> &[SignedValue] {
        &self.entries
    }

    /// Verifies the set: one entry per little source in order, every
    /// signature valid over its entry, signers pairwise distinct, and at
    /// least `threshold` little-node signers per entry.
    ///
    /// The first call works the verdict out and stores it in the set with
    /// what it was asked under — the directory (by fingerprint), `little`
    /// and `threshold`; the same question asked again of this object, by
    /// whichever node or thread, is answered from there.  Another question
    /// is worked out in full and not stored.  The verdict is a pure function
    /// of the entries and the question, so who asks first changes nothing;
    /// debug builds check exactly that on every remembered answer.
    pub fn verify(&self, directory: &KeyDirectory, little: usize, threshold: usize) -> bool {
        let full = || {
            #[cfg(test)]
            FULL_VERIFICATIONS.with(|count| count.set(count.get() + 1));
            self.verdict_in_full(directory, little, threshold)
        };
        let asked = Question {
            directory: directory.fingerprint(),
            little,
            threshold,
        };
        let mut remembered = true;
        let verdict = self.verdict.get_or_init(|| {
            remembered = false;
            Verdict {
                asked,
                valid: full(),
            }
        });
        if verdict.asked != asked {
            return full();
        }
        debug_assert!(
            !remembered || verdict.valid == self.verdict_in_full(directory, little, threshold),
            "a remembered verdict differs from the verification it stands for"
        );
        verdict.valid
    }

    fn verdict_in_full(&self, directory: &KeyDirectory, little: usize, threshold: usize) -> bool {
        if self.entries.len() != little {
            return false;
        }
        let mut signers = SignerSet::default();
        self.entries.iter().enumerate().all(|(source, entry)| {
            entry.source == source
                && entry.verify_signatures(directory, &mut signers)
                && signers.count_below(little) >= threshold
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
}

impl Payload for CommonSet {
    fn bit_len(&self) -> u64 {
        chains_bits(&self.entries)
    }
}

/// A little node's endorsement list: its entry for every little source,
/// countersigned, sent to every little peer in the endorsement round.
///
/// Like a [`CommonSet`] the list is immutable and travels as one shared
/// [`Arc`], so all `little − 1` receivers merge the *same object*, and it
/// remembers which of its signatures verify under the same contract: the
/// entries are private with no mutating method, and only the judging
/// function (`judged`) writes the memo, so a list that is built or decoded
/// from the wire starts without one.
pub struct Endorsements {
    entries: Vec<SignedValue>,
    verified: OnceLock<Verified>,
}

/// The signatures of an endorsement list that verify over their entry's
/// `value_digest(source, value)`, flat: entry `i`'s are
/// `signatures[ends[i - 1]..ends[i]]`, in the order the entry holds them.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Verified {
    /// [`KeyDirectory::fingerprint`] of the directory they verify under.
    directory: u64,
    signatures: Vec<Signature>,
    ends: Vec<usize>,
}

// As for `CommonSet`: the memo is neither on the wire nor part of the value.
wire_struct!(Endorsements {
    entries: Vec<SignedValue>,
    verified: OnceLock<Verified>,
});

impl PartialEq for Endorsements {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl std::fmt::Debug for Endorsements {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endorsements")
            .field("entries", &self.entries)
            .finish()
    }
}

#[cfg(test)]
thread_local! {
    /// Endorsement lists this thread judged in full for a caller (the debug
    /// cross-check of a remembered judgement is not one).
    static FULL_JUDGEMENTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Verified {
    fn judge(entries: &[SignedValue], directory: &KeyDirectory) -> Self {
        let mut verified = Verified {
            directory: directory.fingerprint(),
            signatures: Vec::new(),
            ends: Vec::with_capacity(entries.len()),
        };
        for entry in entries {
            let digest = dft_auth::value_digest(entry.source, entry.value);
            let valid = entry
                .signatures
                .iter()
                .filter(|signature| directory.verify_digest(signature, digest));
            verified.signatures.extend(valid);
            verified.ends.push(verified.signatures.len());
        }
        verified
    }

    /// Each entry's verified signatures, in entry order.
    fn per_entry(&self) -> impl Iterator<Item = &[Signature]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| self.signatures.get(start..end).unwrap_or_default())
    }
}

impl Endorsements {
    /// A list of the given entries, not yet judged.
    pub fn new(entries: Vec<SignedValue>) -> Self {
        Endorsements {
            entries,
            verified: OnceLock::new(),
        }
    }

    /// The entries, one per little source, indexed by source.
    pub fn entries(&self) -> &[SignedValue] {
        &self.entries
    }

    /// The signatures of each entry that verify under `directory`.
    ///
    /// The first call works them out and stores them in the list beside the
    /// directory's fingerprint; a later call under the same keys, by
    /// whichever node or thread, reads them from there.  Under other keys
    /// they are worked out in full and not stored.  They are a pure function
    /// of the entries and the keys, so who asks first changes nothing; debug
    /// builds check exactly that on every remembered answer.
    fn judged(&self, directory: &KeyDirectory) -> Cow<'_, Verified> {
        let full = || {
            #[cfg(test)]
            FULL_JUDGEMENTS.with(|count| count.set(count.get() + 1));
            Verified::judge(&self.entries, directory)
        };
        let mut remembered = true;
        let memo = self.verified.get_or_init(|| {
            remembered = false;
            full()
        });
        if memo.directory != directory.fingerprint() {
            return Cow::Owned(full());
        }
        debug_assert!(
            !remembered || *memo == Verified::judge(&self.entries, directory),
            "remembered signatures differ from the judgement they stand for"
        );
        Cow::Borrowed(memo)
    }
}

/// Messages of [`AbAgreement`], Parts 1–2.
///
/// The variants are [`Arc`]-wrapped: the same batch, endorsement list or
/// common set goes to many destinations each round, and sharing makes the
/// per-recipient copy a reference-count bump instead of a deep clone of a
/// signature chain.  Wire sizes ([`Payload::bit_len`]) are those of the
/// inner values, so the paper's bit accounting is unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum AgreementMsg {
    /// Part 1: a batch of Dolev–Strong relays.
    Ds(Arc<DsBatch>),
    /// Part 1 endorsement round: a little node's endorsed entries.
    Endorse(Arc<Endorsements>),
    /// Part 2: a little node's common set, to its related nodes.
    Notify(Arc<CommonSet>),
}

impl Payload for AgreementMsg {
    fn bit_len(&self) -> u64 {
        match self {
            AgreementMsg::Ds(batch) => batch.bit_len(),
            AgreementMsg::Endorse(list) => chains_bits(list.entries()),
            AgreementMsg::Notify(set) => set.bit_len(),
        }
    }

    /// A batch or an endorsement list is nothing but its `Arc`.  A notified
    /// set is not keyed: a related node that replays it sends it in the
    /// round its little node forwards the same `Arc` as Part 3's `Value`,
    /// and one key must stand for one message.
    fn share_key(&self) -> Option<usize> {
        match self {
            AgreementMsg::Ds(batch) => Some(Arc::as_ptr(batch).addr()),
            AgreementMsg::Endorse(list) => Some(Arc::as_ptr(list).addr()),
            AgreementMsg::Notify(_) => None,
        }
    }
}

/// Messages of `AB-Consensus`: Parts 1–2's, then `Spread-Common-Value`'s
/// with signed inquiries.
pub type AbMsg = Staged<AgreementMsg, ScvMsg<Arc<CommonSet>, Signature>>;

/// What a Part 4 inquiry from node `from` signs.
fn inquiry_digest(from: usize) -> u64 {
    dft_auth::hash::hash_words(&[0x1D_u64, from as u64])
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
    /// Key directory.
    pub directory: Arc<KeyDirectory>,
    /// Parts 3–4: the broadcast over `H`, then one inquiry phase to the
    /// little nodes, even when `t² > n` (this algorithm admits `t < n/2`).
    pub scv: ScvConfig,
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
        let part4 = Targets::Little(little);
        Ok(AbConfig {
            n: config.n,
            t: config.t,
            little,
            threshold: little.saturating_sub(config.t).max(1),
            directory,
            scv: ScvConfig {
                h_graph: config.h_graph(),
                family: config.scv_family(),
                part2: Inquiries::two_round(config.scv_broadcast_rounds(), part4),
            },
        })
    }

    /// Rounds of Parts 1–2: `t + 1` Dolev–Strong rounds, the endorsement
    /// round and the notify round.
    fn agreement_rounds(&self) -> u64 {
        self.t as u64 + 3
    }

    /// Total number of rounds (Parts 1–4).
    pub fn total_rounds(&self) -> u64 {
        self.agreement_rounds() + self.scv.total_rounds()
    }
}

/// What an `AB-Consensus` node believes in Parts 3–4.
#[derive(Clone, Debug)]
pub struct Authenticated {
    directory: Arc<KeyDirectory>,
    little: usize,
    threshold: usize,
    signer: Signer,
}

impl Trust<Arc<CommonSet>> for Authenticated {
    type Inquiry = Signature;

    /// A set that verifies.
    fn adopts(&self, set: &Arc<CommonSet>) -> bool {
        set.verify(&self.directory, self.little, self.threshold)
    }

    /// An inquiry its sender signed, and only at a little node.  No honest
    /// node asks another; but were every holder of the set to answer, a
    /// Byzantine node asking all n would draw n sets, and t of them t·n,
    /// past Theorem 11's `O(t² + n)`.
    fn records(&self, from: usize, signature: &Signature) -> bool {
        self.signer.id() < self.little
            && signature.signer == from
            && self
                .directory
                .verify_digest(signature, inquiry_digest(from))
    }

    fn inquiry(&self) -> Signature {
        self.signer.sign_digest(inquiry_digest(self.signer.id()))
    }
}

/// One source's resolved entry while endorsements are merged into it.
#[derive(Clone, Debug)]
struct Endorsement {
    entry: SignedValue,
    /// The little nodes among the entry's signers.  Only their signatures
    /// count towards a quorum, so only theirs are merged, and the set is
    /// `little` bits wide.
    signers: SignerSet,
}

impl Endorsement {
    /// `entry`, with room for every little node's signature: the merge into
    /// it never regrows the list.
    fn new(entry: &SignedValue, little: usize) -> Self {
        let mut signers = SignerSet::new(little);
        for signature in &entry.signatures {
            signers.insert(signature.signer);
        }
        let missing = little - signers.count_below(little);
        let mut signatures = Vec::with_capacity(entry.signatures.len() + missing);
        signatures.extend_from_slice(&entry.signatures);
        Endorsement {
            entry: SignedValue {
                source: entry.source,
                value: entry.value,
                signatures,
            },
            signers,
        }
    }
}

/// `AB-Consensus` Parts 1–2 at one node: `Almost-Everywhere-Agreement`'s
/// Parts 1–3 with Dolev–Strong and an endorsement round among the little
/// nodes in place of flooding and probing.  In the notify round a little
/// node finalizes its set and sends it to its related nodes, and every node
/// adopts a set that verifies; the set held is the output.
#[derive(Clone, Debug)]
pub struct AbAgreement {
    n: usize,
    endorse_round: u64,
    trust: Authenticated,
    me: usize,
    input: u64,
    /// Part 1's Dolev–Strong state, one slot per little source; a node
    /// outside the little set sits Part 1 out and has no slots.
    relay: DsRelay,
    /// Merged endorsement chains per source, from the endorsement round
    /// until they become the common set.
    endorsed: Vec<Endorsement>,
    common: Option<Arc<CommonSet>>,
}

impl AbAgreement {
    fn new(config: &AbConfig, me: usize, input: u64) -> Self {
        let signer = config.directory.signer(me);
        let slots = if me < config.little { config.little } else { 0 };
        let directory = Arc::clone(&config.directory);
        AbAgreement {
            n: config.n,
            endorse_round: config.t as u64 + 1,
            relay: DsRelay::new(signer.clone(), Arc::clone(&directory), slots),
            trust: Authenticated {
                directory,
                little: config.little,
                threshold: config.threshold,
                signer,
            },
            me,
            input,
            endorsed: Vec::new(),
            common: None,
        }
    }

    fn is_little(&self) -> bool {
        self.me < self.trust.little
    }

    /// `msg` to every little node but this one (a copy is a reference-count
    /// bump).
    fn to_little_peers(&self, msg: &AgreementMsg, out: &mut Vec<Outgoing<AgreementMsg>>) {
        let peers = (0..self.trust.little).filter(|&p| p != self.me);
        out.extend(peers.map(|p| Outgoing::new(NodeId::new(p), msg.clone())));
    }

    /// Builds this little node's endorsed entries after Dolev–Strong
    /// resolution.
    fn build_endorsements(&mut self) -> Vec<SignedValue> {
        let little = self.trust.little;
        let mut entries = Vec::with_capacity(little);
        self.endorsed = Vec::with_capacity(little);
        for (source, resolved) in self.relay.resolutions().enumerate() {
            let entry = match resolved {
                Some(chain) => {
                    let mut entry = chain.clone();
                    entry.countersign(&self.trust.signer);
                    entry
                }
                None => SignedValue {
                    source,
                    value: NULL_VALUE,
                    signatures: vec![self
                        .trust
                        .signer
                        .sign_digest(dft_auth::value_digest(source, NULL_VALUE))],
                },
            };
            self.endorsed.push(Endorsement::new(&entry, little));
            entries.push(entry);
        }
        entries
    }

    /// Merges a peer's endorsements into our own chains (same source and
    /// value only): each little node's signature once, if it verifies.
    /// Which signatures verify is read off the list, judged once for all
    /// its receivers.
    fn merge_endorsements(&mut self, list: &Endorsements) {
        let verified = list.judged(&self.trust.directory);
        for (entry, signatures) in list.entries().iter().zip(verified.per_entry()) {
            let Some(own) = self.endorsed.get_mut(entry.source) else {
                continue;
            };
            if own.entry.value != entry.value {
                continue;
            }
            for signature in signatures {
                if own.signers.insert(signature.signer) {
                    own.entry.signatures.push(*signature);
                }
            }
        }
    }

    /// The merged chains become the set; nothing reads them afterwards.
    /// (Had they not been built, the empty set fails its own check.)
    fn finalize_common_set(&mut self) {
        let merged = std::mem::take(&mut self.endorsed);
        let set = Arc::new(CommonSet::new(
            merged.into_iter().map(|e| e.entry).collect(),
        ));
        self.common = self.trust.adopts(&set).then_some(set);
    }
}

impl SyncProtocol for AbAgreement {
    type Msg = AgreementMsg;
    type Output = Arc<CommonSet>;

    /// Only little nodes speak in Parts 1–2.
    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<AgreementMsg>>) {
        let r = round.as_u64();
        if !self.is_little() {
            return;
        }
        if r < self.endorse_round {
            if r == 0 {
                self.relay.originate(self.input);
            }
            if let Some(batch) = self.relay.take_batch() {
                self.to_little_peers(&AgreementMsg::Ds(batch), out);
            }
        } else if r == self.endorse_round {
            let list = Arc::new(Endorsements::new(self.build_endorsements()));
            self.to_little_peers(&AgreementMsg::Endorse(list), out);
        } else {
            self.finalize_common_set();
            if let Some(set) = &self.common {
                let related = related_nodes(self.n, self.trust.little, self.me);
                let notify =
                    |p| Outgoing::new(NodeId::new(p), AgreementMsg::Notify(Arc::clone(set)));
                out.extend(related.map(notify));
            }
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<AgreementMsg>]) {
        let (r, little) = (round.as_u64(), self.is_little());
        for delivered in inbox {
            match &delivered.msg {
                AgreementMsg::Ds(batch) if little && r < self.endorse_round => {
                    self.relay.receive(r, batch);
                }
                // Our own endorsements were built in `send`; merge peers'.
                AgreementMsg::Endorse(list) if little && r == self.endorse_round => {
                    self.merge_endorsements(list);
                }
                // The cheap guards before the (expensive) chain verification.
                AgreementMsg::Notify(set)
                    if r > self.endorse_round
                        && self.common.is_none()
                        && self.trust.adopts(set) =>
                {
                    self.common = Some(Arc::clone(set));
                }
                _ => {}
            }
        }
    }

    fn output(&self) -> Option<Arc<CommonSet>> {
        self.common.clone()
    }

    /// [`Then`] ends this stage after the notify round.
    fn has_halted(&self) -> bool {
        false
    }
}

/// The parts of `AB-Consensus`: the set [`AbAgreement`] ends with, or none,
/// is what this node enters `Spread-Common-Value` with, and the decision is
/// read off the set that stage holds.
#[derive(Clone, Debug)]
pub struct AgreeThenSpread {
    scv: ScvConfig,
    me: usize,
}

impl Stages for AgreeThenSpread {
    type First = AbAgreement;
    type Second = SpreadCommonValue<Arc<CommonSet>, Authenticated>;
    type Output = u64;

    fn second(&self, first: &AbAgreement) -> Self::Second {
        let trust = first.trust.clone();
        SpreadCommonValue::new(self.scv.clone(), self.me, first.output(), trust)
    }

    fn output(set: Arc<CommonSet>) -> u64 {
        set.decision()
    }
}

/// Per-node state machine for `AB-Consensus`.
pub type AbConsensus = Then<AgreeThenSpread>;

impl AbConsensus {
    /// Creates the state machine for node `me` with consensus input `input`.
    pub fn new(config: AbConfig, me: usize, input: u64) -> Self {
        let (first_rounds, second_rounds) = (config.agreement_rounds(), config.scv.total_rounds());
        let first = AbAgreement::new(&config, me, input);
        let stages = AgreeThenSpread {
            scv: config.scv,
            me,
        };
        Then::compose(stages, first, first_rounds, second_rounds)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{theorem11_messages, theorem11_rounds};
    use dft_sim::adversary::byzantine::{ScriptedByzantine, SilentByzantine};
    use dft_sim::{NoFaults, Participant, Runner};
    use std::sync::Mutex;

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

    /// In Part 1 a little node hands every little peer one shared batch,
    /// not a copy each; a node outside the little set sits it out.
    #[test]
    fn a_dolev_strong_batch_is_one_allocation_for_every_recipient() {
        let (config, directory) = setup(30, 3, 2);
        let shared = AbConfig::from_system(&config, directory).unwrap();
        let mut out = Vec::new();
        AbConsensus::new(shared.clone(), 4, 9).send(Round::ZERO, &mut out);
        assert_eq!(out.len(), shared.little - 1);
        let Staged::First(AgreementMsg::Ds(first)) = &out[0].msg else {
            panic!("a Dolev–Strong batch: {:?}", out[0].msg);
        };
        assert!(out.iter().all(|o| matches!(
            &o.msg,
            Staged::First(AgreementMsg::Ds(batch)) if Arc::ptr_eq(batch, first)
        )));
        out.clear();
        AbConsensus::new(shared.clone(), shared.little, 9).send(Round::ZERO, &mut out);
        assert!(out.is_empty());
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

    /// What an honest node sends, shown to a test every round.
    type Watch = Box<dyn FnMut(&[Outgoing<AbMsg>]) + Send>;

    /// An honest node whose outgoing messages a test watches.
    struct Observed {
        node: AbConsensus,
        watch: Watch,
    }

    impl SyncProtocol for Observed {
        type Msg = AbMsg;
        type Output = u64;

        fn send(&mut self, round: Round, out: &mut Vec<Outgoing<AbMsg>>) {
            self.node.send(round, out);
            (self.watch)(out);
        }

        fn receive(&mut self, round: Round, inbox: &[Delivered<AbMsg>]) {
            self.node.receive(round, inbox);
        }

        fn output(&self) -> Option<u64> {
            self.node.output()
        }

        fn has_halted(&self) -> bool {
            self.node.has_halted()
        }
    }

    /// What an honest little node held about source 0 when it endorsed:
    /// how many of its values it had accepted, and the entry it resolved to.
    type SourceZero = Arc<Mutex<Vec<(usize, u64)>>>;

    /// Reads source 0 off a little node's messages: it relays each value it
    /// accepts once, and endorses the entry it resolved to.
    fn watch_source_zero(views: &SourceZero) -> Watch {
        let (views, mut relayed) = (Arc::clone(views), 0);
        Box::new(move |out| match out.first().map(|o| &o.msg) {
            // Every peer is sent the same batch.
            Some(Staged::First(AgreementMsg::Ds(batch))) => {
                relayed += batch.0.iter().filter(|chain| chain.source == 0).count();
            }
            Some(Staged::First(AgreementMsg::Endorse(list))) => {
                views
                    .lock()
                    .unwrap()
                    .push((relayed, list.entries()[0].value));
            }
            _ => {}
        })
    }

    /// n = 30, t = 3, everyone's input 5; little node 0 is Byzantine and in
    /// round 0 sends each other little node `p` its signature on every value
    /// of `values_for(p)`.
    fn run_with_equivocating_source(
        values_for: impl Fn(usize) -> Vec<u64> + Send + 'static,
    ) -> (dft_sim::ExecutionReport<u64>, Vec<(usize, u64)>) {
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
                    let signed = values_for(p)
                        .into_iter()
                        .map(|value| SignedValue::originate(&byz_signer, value))
                        .collect();
                    let batch = AgreementMsg::Ds(Arc::new(DsBatch(signed)));
                    Outgoing::new(NodeId::new(p), Staged::First(batch))
                })
                .collect()
        });
        let views = SourceZero::default();
        let mut participants: Vec<Participant<Observed>> = Vec::new();
        participants.push(Participant::Byzantine(Box::new(strategy)));
        for me in 1..n {
            participants.push(Participant::Honest(Observed {
                node: AbConsensus::new(shared.clone(), me, 5),
                watch: watch_source_zero(&views),
            }));
        }
        let total = shared.total_rounds();
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(total + 2);
        let views = views.lock().unwrap().clone();
        assert_eq!(views.len(), little - 1, "one view per honest little node");
        (report, views)
    }

    #[test]
    fn equivocating_little_source_cannot_split_decisions() {
        let (report, views) =
            run_with_equivocating_source(|p| vec![if p % 2 == 0 { 100 } else { 200 }]);
        assert!(
            report.non_faulty_deciders_agree(),
            "agreement under equivocation"
        );
        assert!(report.all_non_faulty_decided());
        // The equivocator resolves to null, so the decision is the maximum of
        // the honest little inputs (5), never 100 or 200.
        assert_eq!(report.agreed_value(), Some(&5));
        assert!(views.iter().all(|&view| view == (2, NULL_VALUE)));
    }

    /// A source that signs 40 values costs the honest nodes what a source
    /// that signs two does: two values settle it, and nobody accepts,
    /// stores or relays a third.
    #[test]
    fn a_source_signing_many_values_is_settled_by_the_first_two() {
        let (two, _) = run_with_equivocating_source(|p| vec![if p % 2 == 0 { 100 } else { 200 }]);
        let (many, views) = run_with_equivocating_source(|_| (100..140).collect());
        assert!(
            views.iter().all(|&view| view == (2, NULL_VALUE)),
            "{views:?}"
        );
        assert!(many.all_non_faulty_decided());
        assert!(many.non_faulty_deciders_agree());
        assert_eq!(many.agreed_value(), two.agreed_value());
        assert_eq!(many.agreed_value(), Some(&5));
        // Within 5 % of the two-value run, where the 40 values would
        // otherwise each be relayed by every honest little node.
        assert!(
            many.metrics.bits <= two.metrics.bits + two.metrics.bits / 20,
            "{} bits against {} for two values",
            many.metrics.bits,
            two.metrics.bits
        );
        assert!(many.metrics.messages <= two.metrics.messages);
    }

    #[test]
    fn message_complexity_is_quadratic_in_t_not_n() {
        let n = 80;
        let t = 4;
        let inputs: Vec<u64> = vec![1; n];
        let report = run_honest(n, t, &inputs);
        // Theorem 11: O(t² + n) messages from non-faulty nodes, well below
        // n² rounds of all-to-all traffic.
        let bound = theorem11_messages(&SystemConfig::new(n, t).unwrap());
        assert!(
            report.metrics.messages <= bound,
            "{} messages exceeds {bound}",
            report.metrics.messages
        );
    }

    /// A Byzantine node outside the little set signs its own inquiry and
    /// sends it to every node in Part 4's inquiry round.  Exactly the honest
    /// little nodes answer it, and the honest nodes' messages stay within
    /// Theorem 11's bound.
    #[test]
    fn only_little_nodes_answer_an_inquiry() {
        let (n, t) = (60, 3);
        let (config, directory) = setup(n, t, 13);
        let shared = AbConfig::from_system(&config, directory.clone()).unwrap();
        let byzantine = n - 1;
        let inquiry_round = theorem11_rounds(&config) - 2;
        let signature = directory
            .signer(byzantine)
            .sign_digest(inquiry_digest(byzantine));
        let strategy = ScriptedByzantine::new(move |round: Round, _inbox: &[Delivered<AbMsg>]| {
            let everyone = (0..byzantine).filter(|_| round.as_u64() == inquiry_round);
            let inquiry =
                |p| Outgoing::new(NodeId::new(p), Staged::Second(ScvMsg::Inquiry(signature)));
            everyone.map(inquiry).collect()
        });
        let answered = Arc::new(Mutex::new(Vec::new()));
        let mut participants: Vec<Participant<Observed>> = (0..byzantine)
            .map(|me| {
                let answered = Arc::clone(&answered);
                let watch = move |out: &[Outgoing<AbMsg>]| {
                    let answers = |o: &Outgoing<AbMsg>| {
                        o.to.index() == byzantine
                            && matches!(o.msg, Staged::Second(ScvMsg::Response(_)))
                    };
                    if out.iter().any(answers) {
                        answered.lock().unwrap().push(me);
                    }
                };
                let node = AbConsensus::new(shared.clone(), me, me as u64);
                Participant::Honest(Observed {
                    node,
                    watch: Box::new(watch),
                })
            })
            .collect();
        participants.push(Participant::Byzantine(Box::new(strategy)));
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(shared.total_rounds() + 2);
        let largest_little_input = shared.little as u64 - 1;
        assert_eq!(
            report.consensus_violation(|&v| v == largest_little_input),
            None
        );
        let little: Vec<usize> = (0..shared.little).collect();
        assert_eq!(*answered.lock().unwrap(), little);
        assert!(report.metrics.messages <= theorem11_messages(&config));
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
        let set = CommonSet::new(vec![entry]);
        assert!(set.verify(&directory, 1, 1));
        assert!(!set.verify(&directory, 1, 2), "needs two little signatures");
        assert!(!set.verify(&directory, 2, 1), "wrong number of entries");
    }

    fn full_verifications() -> usize {
        FULL_VERIFICATIONS.with(std::cell::Cell::get)
    }

    /// `little` entries, each signed by its source and the `quorum - 1`
    /// little nodes after it.
    fn endorsed_entries(
        directory: &KeyDirectory,
        little: usize,
        quorum: usize,
    ) -> Vec<SignedValue> {
        (0..little)
            .map(|source| {
                let mut entry =
                    SignedValue::originate(&directory.signer(source), 10 + source as u64);
                for k in 1..quorum {
                    entry.countersign(&directory.signer((source + k) % little));
                }
                entry
            })
            .collect()
    }

    /// The verdict of `entries` as a set asked `(little 5, threshold 3)`:
    /// on the first call, from the memo, on a copy of the judged set and on
    /// a copy taken before it was judged — all four must be one answer.
    fn verdict_every_way(directory: &KeyDirectory, entries: Vec<SignedValue>) -> bool {
        let set = CommonSet::new(entries);
        let unjudged = set.clone();
        let first = set.verify(directory, 5, 3);
        assert_eq!(set.verify(directory, 5, 3), first, "second call");
        assert_eq!(set.clone().verify(directory, 5, 3), first, "judged copy");
        assert_eq!(unjudged.verify(directory, 5, 3), first, "unjudged copy");
        first
    }

    #[test]
    fn forged_sets_are_rejected_on_every_call() {
        type Forgery = fn(&mut Vec<SignedValue>);
        let forgeries: [(&str, Forgery); 8] = [
            ("one flipped tag", |e| e[2].signatures[1].tag ^= 1),
            ("a duplicated signer", |e| {
                let repeat = e[1].signatures[0];
                e[1].signatures.push(repeat);
            }),
            ("one entry one signature short", |e| {
                e[3].signatures.pop();
            }),
            ("a quorum with a node that is not little", |e| {
                e[3].signatures.pop();
                let outsider = KeyDirectory::generate(12, 4).signer(9);
                assert!(e[3].countersign(&outsider));
            }),
            ("entries swapped", |e| e.swap(0, 1)),
            ("an entry missing", |e| {
                e.pop();
            }),
            ("an entry too many", |e| {
                let extra = e[4].clone();
                e.push(extra);
            }),
            ("a signer the directory does not know", |e| {
                e[0].signatures.push(Signature { signer: 12, tag: 7 });
            }),
        ];
        let directory = KeyDirectory::generate(12, 4);
        assert!(verdict_every_way(
            &directory,
            endorsed_entries(&directory, 5, 3)
        ));
        for (what, forge) in forgeries {
            let mut entries = endorsed_entries(&directory, 5, 3);
            forge(&mut entries);
            assert!(!verdict_every_way(&directory, entries), "{what}");
        }
    }

    #[test]
    fn another_question_is_judged_again_not_answered_from_the_memo() {
        let directory = KeyDirectory::generate(12, 4);
        let set = CommonSet::new(endorsed_entries(&directory, 5, 3));
        let before = full_verifications();
        assert!(set.verify(&directory, 5, 3));
        assert!(set.verify(&directory, 5, 3));
        assert_eq!(full_verifications() - before, 1, "asked twice, judged once");
        assert!(
            !set.verify(&directory, 5, 4),
            "the quorums are three strong"
        );
        assert!(!set.verify(&directory, 4, 3), "five entries, not four");
        let other_keys = KeyDirectory::generate(12, 5);
        assert!(!set.verify(&other_keys, 5, 3));
        assert_eq!(full_verifications() - before, 4, "each judged in full");
        // The remembered answer is still there, and belongs to the keys, not
        // to the directory object that happened to hold them.
        assert!(set.verify(&directory, 5, 3));
        assert!(set.verify(&KeyDirectory::generate(12, 4), 5, 3));
        assert_eq!(full_verifications() - before, 4);
        // A set first asked a question it fails still passes the one it meets.
        let strict_first = CommonSet::new(endorsed_entries(&directory, 5, 3));
        assert!(!strict_first.verify(&directory, 5, 4));
        assert!(strict_first.verify(&directory, 5, 3));
        assert!(!strict_first.verify(&directory, 5, 4));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a bare CommonSet round trip; there is no frame, so no version to check"
    )]
    fn the_memo_is_neither_compared_printed_nor_sent() {
        let directory = KeyDirectory::generate(12, 4);
        let judged = CommonSet::new(endorsed_entries(&directory, 5, 3));
        let fresh = judged.clone();
        assert!(judged.verify(&directory, 5, 3));
        assert_eq!(judged, fresh);
        assert_eq!(format!("{judged:?}"), format!("{fresh:?}"));
        let bytes = dft_sim::shard::to_bytes(&judged);
        assert_eq!(bytes, dft_sim::shard::to_bytes(&fresh));
        // What arrives has no verdict: the receiver judges it for itself.
        let received: CommonSet = dft_sim::shard::from_bytes(&bytes).unwrap();
        assert_eq!(received.entries(), judged.entries());
        let before = full_verifications();
        assert!(received.verify(&directory, 5, 3));
        assert_eq!(full_verifications() - before, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Any one signature of a valid set, changed in any one bit of its
        /// tag or in a low bit of its signer, invalidates the set — asked
        /// once or twice.
        #[test]
        fn one_mutated_signature_invalidates_a_set(
            entry in 0usize..5,
            signature in 0usize..3,
            bit in 0u32..64,
            in_tag in proptest::any::<bool>(),
        ) {
            let directory = KeyDirectory::generate(12, 4);
            let mut entries = endorsed_entries(&directory, 5, 3);
            let target = &mut entries[entry].signatures[signature];
            if in_tag {
                target.tag ^= 1 << bit;
            } else {
                target.signer ^= 1 << (bit % 5);
            }
            assert!(!verdict_every_way(&directory, entries));
        }
    }

    /// A Byzantine little node hands every node outside the little set a
    /// forged common set in the notify round — its own related nodes among
    /// them, who get no other set in Part 2.  Nobody adopts it: every honest
    /// node decides the honest value, the related nodes through Parts 3–4.
    #[test]
    fn a_forged_common_set_is_adopted_by_nobody() {
        let n = 60;
        let t = 3;
        let byzantine = 2;
        let (config, directory) = setup(n, t, 11);
        let shared = AbConfig::from_system(&config, directory.clone()).unwrap();
        let (little, notify_round) = (shared.little, shared.agreement_rounds() - 1);
        let signer = directory.signer(byzantine);
        let forged = Arc::new(CommonSet::new(
            (0..little)
                .map(|source| {
                    // Its own genuine signature, and the rest of a quorum
                    // claimed for the other little nodes.
                    let mut entry = SignedValue {
                        source,
                        value: 999,
                        signatures: vec![signer.sign_digest(dft_auth::value_digest(source, 999))],
                    };
                    let claimed = (0..little).filter(|&p| p != byzantine);
                    entry.signatures.extend(claimed.map(|p| Signature {
                        signer: p,
                        tag: 0xF0 + p as u64,
                    }));
                    entry
                })
                .collect(),
        ));
        assert_eq!(forged.decision(), 999, "an adopter would decide 999");
        let strategy = ScriptedByzantine::new(move |round: Round, _inbox: &[Delivered<AbMsg>]| {
            if round.as_u64() != notify_round {
                return Vec::new();
            }
            let notify = || Staged::First(AgreementMsg::Notify(Arc::clone(&forged)));
            (little..n)
                .map(|p| Outgoing::new(NodeId::new(p), notify()))
                .collect()
        });
        let mut participants: Vec<Participant<AbConsensus>> = (0..n)
            .map(|me| Participant::Honest(AbConsensus::new(shared.clone(), me, me as u64)))
            .collect();
        participants[byzantine] = Participant::Byzantine(Box::new(strategy));
        let related = related_nodes(n, little, byzantine);
        assert_eq!(related.collect::<Vec<_>>(), vec![17, 32, 47]);
        let total = shared.total_rounds();
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(total + 2);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        // The largest input of an honest little node.
        assert_eq!(report.agreed_value(), Some(&(little as u64 - 1)));
    }

    fn full_judgements() -> usize {
        FULL_JUDGEMENTS.with(std::cell::Cell::get)
    }

    /// Little node 0 of `little`, in the endorsement round, whose merged
    /// chains are `own` as `build_endorsements` leaves them.
    fn receiver(directory: &Arc<KeyDirectory>, little: usize, own: &[SignedValue]) -> AbAgreement {
        let signer = directory.signer(0);
        AbAgreement {
            n: directory.len(),
            endorse_round: 1,
            relay: DsRelay::new(signer.clone(), Arc::clone(directory), 0),
            trust: Authenticated {
                directory: Arc::clone(directory),
                little,
                threshold: 1,
                signer,
            },
            me: 0,
            input: 0,
            endorsed: own.iter().map(|e| Endorsement::new(e, little)).collect(),
            common: None,
        }
    }

    /// The merge as it was before lists were judged: every receiver checks
    /// each signature of a signer it has not merged yet.  The oracle of the
    /// memo merge.
    fn merge_signature_by_signature(node: &mut AbAgreement, entries: &[SignedValue]) {
        let directory = Arc::clone(&node.trust.directory);
        for entry in entries {
            let Some(own) = node.endorsed.get_mut(entry.source) else {
                continue;
            };
            if own.entry.value != entry.value {
                continue;
            }
            let digest = dft_auth::value_digest(entry.source, entry.value);
            for signature in &entry.signatures {
                if !own.signers.contains(signature.signer)
                    && directory.verify_digest(signature, digest)
                    && own.signers.insert(signature.signer)
                {
                    own.entry.signatures.push(*signature);
                }
            }
        }
    }

    fn merged(node: &AbAgreement) -> Vec<SignedValue> {
        node.endorsed.iter().map(|e| e.entry.clone()).collect()
    }

    /// A receiver's own entries: source `s` holds value `10 + s`, signed by
    /// `s` and up to two other nodes of the directory, little or not.
    fn random_own_entries(
        rng: &mut impl rand::Rng,
        directory: &KeyDirectory,
        little: usize,
    ) -> Vec<SignedValue> {
        (0..little)
            .map(|source| {
                let mut entry =
                    SignedValue::originate(&directory.signer(source), 10 + source as u64);
                for _ in 0..rng.gen_range(0..3) {
                    entry.countersign(&directory.signer(rng.gen_range(0..directory.len())));
                }
                entry
            })
            .collect()
    }

    /// Up to seven entries, some for a source without a slot (`little` or
    /// `little + 1`) or with a value the receivers do not hold (99), each
    /// signed by up to six nodes of the directory, little or not; a
    /// signature may carry a wrong tag, claim a signer the directory does
    /// not know, or repeat the one before it.
    fn random_list(
        rng: &mut impl rand::Rng,
        directory: &KeyDirectory,
        little: usize,
    ) -> Vec<SignedValue> {
        let keys = directory.len();
        (0..rng.gen_range(0..8))
            .map(|_| {
                let source = rng.gen_range(0..little + 2);
                let value = if rng.gen_bool(0.8) {
                    10 + source as u64
                } else {
                    99
                };
                let digest = dft_auth::value_digest(source, value);
                let mut signatures: Vec<Signature> = Vec::new();
                for _ in 0..rng.gen_range(0..7) {
                    let mut signature =
                        directory.signer(rng.gen_range(0..keys)).sign_digest(digest);
                    match rng.gen_range(0..4) {
                        0 => signature.tag ^= 1,
                        1 => signature.signer += keys,
                        2 => signature = signatures.last().copied().unwrap_or(signature),
                        _ => {}
                    }
                    signatures.push(signature);
                }
                SignedValue {
                    source,
                    value,
                    signatures,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A list with one signature changed in any one bit of its tag or in
        /// a low bit of its signer: no receiver merges that signature — the
        /// first, which judges the fresh list, nor the four that read the
        /// judgement — and each merges exactly what checking every
        /// signature itself would.
        #[test]
        fn a_mutated_endorsement_is_merged_by_no_receiver(
            entry in 0usize..5,
            signature in 0usize..3,
            bit in 0u32..64,
            in_tag in proptest::any::<bool>(),
        ) {
            let directory = Arc::new(KeyDirectory::generate(12, 4));
            let mut entries = endorsed_entries(&directory, 5, 3);
            let target = &mut entries[entry].signatures[signature];
            if in_tag {
                target.tag ^= 1 << bit;
            } else {
                target.signer ^= 1 << (bit % 5);
            }
            let mutated = *target;
            let list = Endorsements::new(entries);
            let own = endorsed_entries(&directory, 5, 1);
            let before = full_judgements();
            for _ in 0..5 {
                let mut by_memo = receiver(&directory, 5, &own);
                let mut by_oracle = receiver(&directory, 5, &own);
                by_memo.merge_endorsements(&list);
                merge_signature_by_signature(&mut by_oracle, list.entries());
                let memo_merged = merged(&by_memo);
                assert!(memo_merged.iter().all(|e| !e.signatures.contains(&mutated)));
                assert_eq!(memo_merged, merged(&by_oracle));
            }
            assert_eq!(full_judgements() - before, 1, "judged by the first receiver only");
        }

        /// The memo merge leaves every own entry with the signatures, in the
        /// order, that checking each signature at each receiver leaves —
        /// over lists with duplicated signers, wrong tags, signers the
        /// directory does not know, signers outside the little set,
        /// mismatched values and sources without a slot.  Two receivers
        /// merge each list: the first judges it, the second reads the memo.
        #[test]
        fn the_memo_merge_equals_the_signature_by_signature_merge(seed in proptest::any::<u64>()) {
            use rand::SeedableRng;
            let directory = Arc::new(KeyDirectory::generate(12, 4));
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut receivers: Vec<(AbAgreement, AbAgreement)> = (0..2)
                .map(|_| {
                    let own = random_own_entries(&mut rng, &directory, 5);
                    (receiver(&directory, 5, &own), receiver(&directory, 5, &own))
                })
                .collect();
            for _ in 0..3 {
                let list = Arc::new(Endorsements::new(random_list(&mut rng, &directory, 5)));
                for (by_memo, by_oracle) in &mut receivers {
                    by_memo.merge_endorsements(&list);
                    merge_signature_by_signature(by_oracle, list.entries());
                }
            }
            for (by_memo, by_oracle) in &receivers {
                assert_eq!(merged(by_memo), merged(by_oracle));
                let signers = |node: &AbAgreement| -> Vec<SignerSet> {
                    node.endorsed.iter().map(|e| e.signers.clone()).collect()
                };
                assert_eq!(signers(by_memo), signers(by_oracle));
            }
        }
    }

    #[test]
    fn a_list_judged_under_other_keys_is_judged_again_not_read_from_the_memo() {
        let directory = Arc::new(KeyDirectory::generate(12, 4));
        let other_keys = KeyDirectory::generate(12, 5);
        let list = Endorsements::new(endorsed_entries(&directory, 5, 3));
        let before = full_judgements();
        let judged = list.judged(&directory).into_owned();
        assert_eq!(judged.signatures.len(), 15, "every signature verifies");
        assert!(matches!(list.judged(&directory), Cow::Borrowed(_)));
        assert_eq!(full_judgements() - before, 1, "asked twice, judged once");
        for _ in 0..2 {
            let elsewhere = list.judged(&other_keys);
            assert!(
                elsewhere.signatures.is_empty(),
                "none verify under other keys"
            );
            assert_eq!(elsewhere.ends, vec![0; 5]);
        }
        assert_eq!(full_judgements() - before, 3, "each judged in full");
        // The memo belongs to the keys, not to the directory object.
        assert_eq!(
            *list.judged(&KeyDirectory::generate(12, 4)),
            judged,
            "same keys, another directory object"
        );
        assert_eq!(full_judgements() - before, 3);
        // A list first judged under other keys holds their judgement, and a
        // receiver under the real keys still merges every signature.
        let first_elsewhere = Endorsements::new(endorsed_entries(&directory, 5, 3));
        assert!(first_elsewhere.judged(&other_keys).signatures.is_empty());
        let own = endorsed_entries(&directory, 5, 1);
        let mut node = receiver(&directory, 5, &own);
        node.merge_endorsements(&first_elsewhere);
        assert_eq!(merged(&node), first_elsewhere.entries());
        assert_eq!(full_judgements() - before, 5);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a bare Endorsements round trip; there is no frame, so no version to check"
    )]
    fn the_endorsement_memo_is_neither_compared_printed_nor_sent() {
        let directory = KeyDirectory::generate(12, 4);
        let judged = Endorsements::new(endorsed_entries(&directory, 5, 3));
        let fresh = Endorsements::new(endorsed_entries(&directory, 5, 3));
        assert_eq!(judged.judged(&directory).signatures.len(), 15);
        assert_eq!(judged, fresh);
        assert_eq!(format!("{judged:?}"), format!("{fresh:?}"));
        let bytes = dft_sim::shard::to_bytes(&judged);
        assert_eq!(bytes, dft_sim::shard::to_bytes(&fresh));
        assert_eq!(bytes, dft_sim::shard::to_bytes(&judged.entries));
        // What arrives is unjudged: the receiver judges it for itself.
        let received: Endorsements = dft_sim::shard::from_bytes(&bytes).unwrap();
        assert_eq!(received.entries(), judged.entries());
        let before = full_judgements();
        assert_eq!(*received.judged(&directory), *judged.judged(&directory));
        assert_eq!(full_judgements() - before, 1);
    }

    /// Each little node's list is judged by the first peer to merge it; the
    /// other `little − 2` read the judgement.
    #[test]
    fn each_endorsement_list_is_judged_once() {
        let (n, t) = (40, 4);
        let little = SystemConfig::new(n, t).unwrap().little_count();
        let before = full_judgements();
        let inputs: Vec<u64> = (0..n as u64).collect();
        let report = run_honest(n, t, &inputs);
        assert!(report.all_non_faulty_decided());
        let full = full_judgements() - before;
        assert!(
            (1..=little).contains(&full),
            "{full} full judgements for {little} little nodes (n = {n})"
        );
    }

    /// Every little node judges the set it built; everyone else is handed
    /// one of those objects and reads the verdict off it.
    #[test]
    fn each_common_set_is_verified_once() {
        let (n, t) = (40, 4);
        let little = SystemConfig::new(n, t).unwrap().little_count();
        let before = full_verifications();
        let inputs: Vec<u64> = (0..n as u64).collect();
        let report = run_honest(n, t, &inputs);
        assert!(report.all_non_faulty_decided());
        let full = full_verifications() - before;
        assert!(
            (1..=little).contains(&full),
            "{full} full verifications for {little} little nodes (n = {n})"
        );
    }

    /// The counts behind "verified once" and "judged once" at the
    /// benchmark's scale: n = 1000, t = 31, with t Byzantine nodes
    /// alternately silent and replaying.  A replayed list is an `Arc` an
    /// honest little node made, so the lists judged are at most `little`.
    #[test]
    #[ignore = "paper scale; run with --release -- --ignored"]
    fn paper_scale_full_verifications_stay_below_little_plus_byzantine() {
        use dft_sim::adversary::byzantine::ReplayByzantine;
        let (n, t) = (1000, 31);
        let (config, directory) = setup(n, t, 7);
        let inputs: Vec<u64> = (0..n as u64).map(|i| 1 + (i * 7919) % 1_000_003).collect();
        let nodes = AbConsensus::for_all_nodes(&config, &inputs, directory).unwrap();
        let total = nodes[0].total_rounds();
        let little = config.little_count();
        let mut participants: Vec<_> = nodes.into_iter().map(Participant::Honest).collect();
        for k in 0..t {
            let victim = (k * 613 + 29) % n;
            participants[victim] = if k % 2 == 0 {
                Participant::Byzantine(Box::new(SilentByzantine))
            } else {
                Participant::Byzantine(Box::new(ReplayByzantine::new(n, 4, k as u64)))
            };
        }
        let (before, lists_before) = (full_verifications(), full_judgements());
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(total + 2);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        let full = full_verifications() - before;
        let lists = full_judgements() - lists_before;
        println!(
            "{full} full verifications, {lists} endorsement lists judged \
             (little = {little}, Byzantine = {t}, n = {n})"
        );
        assert!((1..=little + t).contains(&full));
        assert!((1..=little).contains(&lists));
    }
}
