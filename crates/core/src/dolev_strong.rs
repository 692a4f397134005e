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
//! Any number of parallel instances (one per source) run with per-pair
//! messages combined into a single batch, exactly as `AB-Consensus` Part 1
//! prescribes.  The accept / countersign / relay rule is [`DsRelay`], which
//! its owner drives: `AB-Consensus` Part 1 and the quadratic baseline.

use std::sync::Arc;

use dft_auth::{KeyDirectory, SignedValue, Signer, DECISIVE_VALUES};
use dft_sim::Payload;

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

/// One node's state in a parallel Dolev–Strong broadcast whose sources are
/// nodes `0..sources`: what it accepted per source and what it owes its peers
/// next round.  Two accepted values already make a source null, so at most
/// [`DECISIVE_VALUES`] chains are kept per source and nothing past them is
/// verified, stored or relayed.
#[derive(Clone, Debug)]
pub struct DsRelay {
    signer: Signer,
    directory: Arc<KeyDirectory>,
    /// Accepted chains per source, as received, in order of acceptance.
    accepted: Vec<Vec<SignedValue>>,
    /// Values accepted since the last batch, countersigned.
    queue: Vec<SignedValue>,
}

impl DsRelay {
    /// The relay of the node `signer` signs for, over sources `0..sources`.
    pub fn new(signer: Signer, directory: Arc<KeyDirectory>, sources: usize) -> Self {
        DsRelay {
            signer,
            directory,
            accepted: vec![Vec::new(); sources],
            queue: Vec::new(),
        }
    }

    /// Signs `input` as this node's own broadcast, accepts it and queues it
    /// (nothing, if this node is not a source).
    pub fn originate(&mut self, input: u64) {
        if let Some(accepted) = self.accepted.get_mut(self.signer.id()) {
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

    /// A batch delivered in round `r`: a value is accepted if its source is
    /// one of this broadcast's and not settled, the value is new there, and
    /// its chain verifies at length `r + 1` or more.  What is accepted is
    /// queued with this node's countersignature.
    pub fn receive(&mut self, r: u64, batch: &DsBatch) {
        for sv in &batch.0 {
            let Some(accepted) = self.accepted.get_mut(sv.source) else {
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

    /// The chains accepted for `source` (none for a node that is not one).
    pub fn accepted(&self, source: usize) -> &[SignedValue] {
        self.accepted.get(source).map_or(&[], Vec::as_slice)
    }

    /// Per source, the chain of the one value accepted for it, or `None` (the
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

#[cfg(test)]
mod tests {
    use super::*;

    fn directory(n: usize) -> Arc<KeyDirectory> {
        Arc::new(KeyDirectory::generate(n, 7))
    }

    fn chain_checks() -> usize {
        CHAIN_CHECKS.with(std::cell::Cell::get)
    }

    /// Node 1's relay in a system of 8 whose sources are nodes 0 and 1.
    fn relay_of_node_one(dir: &Arc<KeyDirectory>) -> DsRelay {
        DsRelay::new(dir.signer(1), Arc::clone(dir), 2)
    }

    fn values(chains: &[SignedValue]) -> Vec<u64> {
        chains.iter().map(|chain| chain.value).collect()
    }

    #[test]
    fn silent_source_resolves_to_null() {
        let dir = directory(8);
        let mut relay = relay_of_node_one(&dir);
        relay.originate(9);
        // Source 0 says nothing in any round.
        for r in 0..3 {
            relay.receive(r, &DsBatch(Vec::new()));
        }
        let resolved: Vec<_> = relay
            .resolutions()
            .map(|chain| Some(chain?.value))
            .collect();
        assert_eq!(resolved, vec![None, Some(9)]);
    }

    #[test]
    fn a_source_signing_two_values_resolves_to_null_beside_an_honest_one() {
        let dir = directory(8);
        let mut relay = DsRelay::new(dir.signer(3), Arc::clone(&dir), 3);
        // In round 0 source 1 signs 7 for us and 8 for node 4, and source 2
        // signs 5; in round 1 node 4 relays the 8.
        let (equivocator, honest) = (dir.signer(1), dir.signer(2));
        let seven = SignedValue::originate(&equivocator, 7);
        let five = SignedValue::originate(&honest, 5);
        relay.receive(0, &DsBatch(vec![seven, five.clone()]));
        let mut eight = SignedValue::originate(&equivocator, 8);
        eight.countersign(&dir.signer(4));
        relay.receive(1, &DsBatch(vec![eight]));
        assert_eq!(values(relay.accepted(1)), vec![7, 8]);
        assert_eq!(
            relay.resolutions().collect::<Vec<_>>(),
            vec![None, None, Some(&five)]
        );
    }

    #[test]
    fn a_source_is_settled_by_its_first_two_values() {
        let dir = directory(8);
        let mut relay = relay_of_node_one(&dir);
        let source = dir.signer(0);
        let signed = (100..140).map(|value| SignedValue::originate(&source, value));
        let before = chain_checks();
        relay.receive(0, &DsBatch(signed.collect()));
        assert_eq!(values(relay.accepted(0)), vec![100, 101]);
        assert_eq!(chain_checks() - before, 2, "the other 38 cost nothing");
        // One more value in the next round changes nothing: the source is
        // null already.
        let mut late = SignedValue::originate(&source, 7);
        late.countersign(&dir.signer(2));
        relay.receive(1, &DsBatch(vec![late]));
        assert_eq!(values(relay.accepted(0)), vec![100, 101]);
        assert!(relay.accepted(1).is_empty());
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
        let mut relay = relay_of_node_one(&dir);
        let source = dir.signer(0);
        // Round 1 asks for two signatures; the source's alone is too few.
        let bare = SignedValue::originate(&source, 40);
        // Twice the same countersigner is still one distinct signer.
        let mut padded = SignedValue::originate(&source, 41);
        padded.countersign(&dir.signer(5));
        let repeat = padded.signatures[1];
        padded.signatures.push(repeat);
        // Node 6 is no source here, however well it signs.
        let mut stranger = SignedValue::originate(&dir.signer(6), 42);
        stranger.countersign(&dir.signer(5));
        relay.receive(1, &DsBatch(vec![bare, padded, stranger]));
        assert!(relay.accepted(0).is_empty());
        assert!(relay.take_batch().is_none());
        // The same value with a chain of two is accepted in that round, and
        // resolves its source.
        let mut relayed = SignedValue::originate(&source, 40);
        relayed.countersign(&dir.signer(5));
        relay.receive(1, &DsBatch(vec![relayed.clone()]));
        assert_eq!(
            relay.resolutions().collect::<Vec<_>>(),
            vec![Some(&relayed), None]
        );
    }

    #[test]
    fn an_accepted_value_is_skipped_without_a_mac_check() {
        let dir = directory(8);
        let mut relay = relay_of_node_one(&dir);
        // Our own value and one we accepted.
        relay.originate(9);
        let accepted = SignedValue::originate(&dir.signer(0), 50);
        relay.receive(0, &DsBatch(vec![accepted.clone()]));
        assert_eq!(relay.take_batch().map(|batch| batch.0.len()), Some(2));
        // Both come back round after round from every peer, countersigned.
        let before = chain_checks();
        let mut echo = accepted;
        echo.countersign(&dir.signer(4));
        let mut own_echo = relay.accepted(1)[0].clone();
        own_echo.countersign(&dir.signer(4));
        relay.receive(1, &DsBatch(vec![echo, own_echo]));
        assert_eq!(chain_checks(), before, "no chain was verified");
        assert!(relay.take_batch().is_none(), "and nothing is relayed twice");
    }
}
