//! Signed values with signature chains, as used by the Dolev–Strong
//! broadcast and the authenticated consensus of Section 7.
//!
//! In Dolev–Strong (reference \[24\] in the paper), the source signs its value and every relayer adds
//! its own signature before forwarding; a value is accepted in round `k` only
//! if it carries `k` valid signatures from distinct nodes, the first being
//! the source.  [`SignedValue`] captures that structure: all signatures are
//! over the canonical digest of `(source, value)`, so a Byzantine node can
//! relay or drop a signed value but cannot alter the value, invent a new
//! source, or fabricate other nodes' endorsements.

use crate::hash::hash_words;
use crate::keys::{KeyDirectory, Signer, SignerId};
use crate::signature::Signature;
use crate::signer_set::SignerSet;

/// Canonical digest of a `(source, value)` pair, the object every signature
/// in a chain covers.
pub fn value_digest(source: SignerId, value: u64) -> u64 {
    hash_words(&[0x5167_u64, source as u64, value])
}

/// How many distinct values of one source a Dolev–Strong participant
/// accepts, countersigns and relays.  Two settle the source: it resolves to
/// null whatever else it signed, and every other participant learns as much
/// from the two relays.  Without the cap a source that signs k values makes
/// every non-faulty participant store and relay all k.
pub const DECISIVE_VALUES: usize = 2;

/// A broadcast value together with its chain of endorsing signatures.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SignedValue {
    /// The node that originated the value.
    pub source: SignerId,
    /// The value being broadcast (protocol values are encoded as `u64`).
    pub value: u64,
    /// Endorsing signatures; a valid chain starts with the source's own
    /// signature and contains no duplicate signers.
    pub signatures: Vec<Signature>,
}

dft_sim::shard::wire_struct!(SignedValue {
    source: SignerId,
    value: u64,
    signatures: Vec<Signature>,
});

impl SignedValue {
    /// Originates a new signed value: the source signs `(source, value)`.
    pub fn originate(signer: &Signer, value: u64) -> Self {
        let source = signer.id();
        let signature = signer.sign_digest(value_digest(source, value));
        SignedValue {
            source,
            value,
            signatures: vec![signature],
        }
    }

    /// Adds `signer`'s endorsement if it has not signed this value already.
    /// Returns `true` when a signature was appended.
    pub fn countersign(&mut self, signer: &Signer) -> bool {
        if self.signatures.iter().any(|s| s.signer == signer.id()) {
            return false;
        }
        self.signatures
            .push(signer.sign_digest(value_digest(self.source, self.value)));
        true
    }

    /// Number of signatures in the chain.
    pub fn chain_len(&self) -> usize {
        self.signatures.len()
    }

    /// The distinct signer identities endorsing this value.
    pub fn signers(&self) -> Vec<SignerId> {
        let mut ids: Vec<SignerId> = self.signatures.iter().map(|s| s.signer).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Whether every signature verifies against the canonical digest and no
    /// signer appears twice — the one walk behind every check of a signature
    /// list.  `seen` is reset first and holds the signers of the signatures
    /// walked, so a caller can count a quorum in it, and can hand the same
    /// set to the next value.
    pub fn verify_signatures(&self, directory: &KeyDirectory, seen: &mut SignerSet) -> bool {
        seen.reset(directory.len());
        let digest = value_digest(self.source, self.value);
        // The MAC comes first: only a signer the directory knows passes it,
        // so every id that reaches the set is below its capacity.
        self.signatures.iter().all(|signature| {
            directory.verify_digest(signature, digest) && seen.insert(signature.signer)
        })
    }

    /// Whether the chain is valid: every signature verifies against the
    /// canonical digest, signers are pairwise distinct, and the first
    /// signature is the source's.
    pub fn verify_chain(&self, directory: &KeyDirectory) -> bool {
        self.signatures
            .first()
            .is_some_and(|first| first.signer == self.source)
            && self.verify_signatures(directory, &mut SignerSet::default())
    }

    /// Whether the chain is valid *and* contains at least `required`
    /// distinct signatures — the acceptance test of Dolev–Strong round
    /// `required`.  The length is compared first: a chain that is too
    /// short is rejected without verifying a signature.
    pub fn verify_chain_with_length(&self, directory: &KeyDirectory, required: usize) -> bool {
        self.chain_len() >= required && self.verify_chain(directory)
    }

    /// Wire size in bits: source id, value and the signature chain.
    pub fn encoded_bits(&self) -> u64 {
        64 + 64 + self.signatures.len() as u64 * Signature::BIT_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> KeyDirectory {
        KeyDirectory::generate(5, 123)
    }

    #[test]
    fn originate_and_verify() {
        let dir = directory();
        let sv = SignedValue::originate(&dir.signer(2), 9);
        assert_eq!(sv.source, 2);
        assert_eq!(sv.chain_len(), 1);
        assert!(sv.verify_chain(&dir));
        assert!(sv.verify_chain_with_length(&dir, 1));
        assert!(!sv.verify_chain_with_length(&dir, 2));
    }

    #[test]
    fn wire_decode_error_paths_all_fail() {
        let dir = directory();
        let mut value = SignedValue::originate(&dir.signer(0), 31);
        value.countersign(&dir.signer(3));
        assert_eq!(
            dft_sim::shard::decode_error_path_violations(&value),
            Vec::<usize>::new(),
            "every truncated or oversized SignedValue frame must fail to decode"
        );
    }

    #[test]
    fn wire_golden_bytes() {
        assert_eq!(dft_sim::shard::WIRE_VERSION, 9);
        let value = SignedValue {
            source: 3,
            value: 31,
            signatures: vec![Signature { signer: 3, tag: 5 }],
        };
        assert_eq!(
            dft_sim::shard::to_bytes(&value),
            b"\x03\0\0\0\0\0\0\0\x1f\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\
              \x03\0\0\0\0\0\0\0\x05\0\0\0\0\0\0\0"
        );
    }

    #[test]
    fn countersigning_extends_chain_once_per_signer() {
        let dir = directory();
        let mut sv = SignedValue::originate(&dir.signer(0), 1);
        assert!(sv.countersign(&dir.signer(1)));
        assert!(sv.countersign(&dir.signer(2)));
        assert!(!sv.countersign(&dir.signer(1)), "duplicate signer rejected");
        assert_eq!(sv.chain_len(), 3);
        assert_eq!(sv.signers(), vec![0, 1, 2]);
        assert!(sv.verify_chain_with_length(&dir, 3));
    }

    #[test]
    fn signature_walk_leaves_the_signers_in_the_set() {
        let dir = directory();
        let mut sv = SignedValue::originate(&dir.signer(1), 4);
        sv.countersign(&dir.signer(4));
        let mut signers = SignerSet::new(2);
        signers.insert(0);
        assert!(sv.verify_signatures(&dir, &mut signers));
        assert!(!signers.contains(0), "the set is reset, whatever it held");
        assert!(signers.contains(1) && signers.contains(4));
        assert_eq!(signers.count_below(4), 1);
        // A repeated signer is caught by the set, wherever it sits.
        sv.signatures.push(sv.signatures[0]);
        assert!(!sv.verify_signatures(&dir, &mut signers));
        assert!(!sv.verify_chain(&dir));
        // A signer the directory does not know fails its MAC before it can
        // reach the set.
        sv.signatures[2] = Signature { signer: 5, tag: 0 };
        assert!(!sv.verify_signatures(&dir, &mut signers));
    }

    #[test]
    fn tampered_value_fails_verification() {
        let dir = directory();
        let mut sv = SignedValue::originate(&dir.signer(0), 1);
        sv.countersign(&dir.signer(1));
        sv.value = 2;
        assert!(!sv.verify_chain(&dir));
    }

    #[test]
    fn relabelled_source_fails_verification() {
        let dir = directory();
        let mut sv = SignedValue::originate(&dir.signer(0), 1);
        sv.source = 3;
        assert!(!sv.verify_chain(&dir));
    }

    #[test]
    fn chain_missing_source_signature_fails() {
        let dir = directory();
        let mut sv = SignedValue::originate(&dir.signer(0), 1);
        sv.countersign(&dir.signer(1));
        sv.signatures.remove(0);
        assert!(!sv.verify_chain(&dir));
    }

    #[test]
    fn byzantine_cannot_forge_foreign_chain() {
        let dir = directory();
        // A Byzantine node 4 only holds its own signer; it tries to fabricate
        // a value originated by node 0 by signing it itself.
        let byz_signer = dir.signer(4);
        let forged = SignedValue {
            source: 0,
            value: 7,
            signatures: vec![byz_signer.sign_digest(value_digest(0, 7))],
        };
        assert!(
            !forged.verify_chain(&dir),
            "first signature must be the source's"
        );
    }

    #[test]
    fn encoded_bits_grow_with_chain() {
        let dir = directory();
        let mut sv = SignedValue::originate(&dir.signer(0), 1);
        let one = sv.encoded_bits();
        sv.countersign(&dir.signer(1));
        assert_eq!(sv.encoded_bits(), one + Signature::BIT_LEN);
    }
}
