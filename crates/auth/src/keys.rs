//! Keys, signers and the trusted verification directory.
//!
//! The authenticated-Byzantine model (Section 2 and Section 7 of the paper)
//! assumes every node can sign its messages and every node can verify any
//! other node's signature, while a Byzantine node cannot forge signatures of
//! nodes it does not control.  We simulate this with per-node 64-bit secret
//! keys and keyed MACs:
//!
//! * a [`Signer`] holds one node's secret key and can produce [`Signature`](crate::Signature)s
//!   (see [`crate::signature`]);
//! * the [`KeyDirectory`] plays the role of the public-key infrastructure:
//!   it can *verify* any node's signature but is never handed to Byzantine
//!   strategies for signing on behalf of others — the runner only gives a
//!   Byzantine node its own [`Signer`].

use crate::hash::WordHasher;

/// Identifier of a signing node (the node's zero-based index).
pub type SignerId = usize;

/// A node's secret signing key, held in the form the MAC consumes.
///
/// A tag is `hash_words(&[material, id, digest])`, a byte-serial hash whose
/// first two words are the same for every tag of one signer.  The key is
/// therefore kept as the hasher that has already absorbed `[material, id]`:
/// signing and verifying resume from it and absorb only the digest, for the
/// same tag bit for bit.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(WordHasher);

impl SecretKey {
    fn new(material: u64, id: SignerId) -> Self {
        let mut prefix = WordHasher::new();
        prefix.write_u64(material).write_u64(id as u64);
        SecretKey(prefix)
    }

    /// The MAC tag of `digest` under this key.
    fn tag(self, digest: u64) -> u64 {
        let mut hasher = self.0;
        hasher.write_u64(digest).finish()
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// The signing capability of a single node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signer {
    id: SignerId,
    key: SecretKey,
}

impl Signer {
    /// The node this signer belongs to.
    pub fn id(&self) -> SignerId {
        self.id
    }

    /// Computes the MAC tag of a digest under this signer's key.
    pub(crate) fn tag(&self, digest: u64) -> u64 {
        self.key.tag(digest)
    }
}

/// The trusted key directory: generates all per-node keys and verifies tags.
///
/// # Examples
///
/// ```
/// use dft_auth::KeyDirectory;
///
/// let directory = KeyDirectory::generate(4, 99);
/// let signer = directory.signer(2);
/// let sig = signer.sign_digest(0xABCD);
/// assert!(directory.verify_digest(&sig, 0xABCD));
/// assert!(!directory.verify_digest(&sig, 0xABCE));
/// ```
#[derive(Clone, Debug)]
pub struct KeyDirectory {
    keys: Vec<SecretKey>,
    fingerprint: u64,
}

impl KeyDirectory {
    /// Deterministically generates keys for `n` nodes from a seed.
    pub fn generate(n: usize, seed: u64) -> Self {
        // Node `i`'s key material is `hash_words(&[seed, 0x5EED, i])`; the
        // two leading words are absorbed once for the whole table.
        let mut seeded = WordHasher::new();
        seeded.write_u64(seed).write_u64(0x5EED_u64);
        let mut fingerprint = WordHasher::new();
        fingerprint.write_u64(n as u64);
        let keys = (0..n)
            .map(|id| {
                let mut hasher = seeded;
                let material = hasher.write_u64(id as u64).finish();
                fingerprint.write_u64(material);
                SecretKey::new(material, id)
            })
            .collect();
        KeyDirectory {
            keys,
            fingerprint: fingerprint.finish(),
        }
    }

    /// Number of nodes with keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// A hash of the whole key table, computed once in
    /// [`generate`](Self::generate): two directories verify the same
    /// signatures exactly when they hold the same keys, so a verdict
    /// remembered under one directory's fingerprint is not an answer under
    /// another's.  (The directory's address would not do: addresses are
    /// reused.)
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The signer handed to node `id` (its own key only).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented to panic on an id outside the directory; the protocols pass the node \
                  indices the directory was generated for"
    )]
    pub fn signer(&self, id: SignerId) -> Signer {
        Signer {
            id,
            key: self.keys[id],
        }
    }

    /// Recomputes the expected tag of `digest` under node `signer`'s key.
    pub(crate) fn expected_tag(&self, signer: SignerId, digest: u64) -> Option<u64> {
        self.keys.get(signer).map(|key| key.tag(digest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_words;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = KeyDirectory::generate(5, 1);
        let b = KeyDirectory::generate(5, 1);
        let c = KeyDirectory::generate(5, 2);
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.keys, c.keys);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn keys_are_distinct_across_nodes() {
        let d = KeyDirectory::generate(100, 7);
        for i in 0..100 {
            for j in (i + 1)..100 {
                assert_ne!(d.keys[i], d.keys[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let d = KeyDirectory::generate(1, 3);
        assert_eq!(format!("{:?}", d.keys[0]), "SecretKey(..)");
    }

    /// The tags the parent of the prefix-state MAC produced, and the
    /// definition they come from: a key kept as a resumed hasher signs what
    /// the three-word hash signs.
    #[test]
    fn tags_are_those_of_the_three_word_hash() {
        let captured: [(u64, usize, SignerId, u64, u64); 6] = [
            (0x7, 1000, 0, 0x0, 0xc960_3d51_bb6e_8838),
            (0x7, 1000, 154, 0xabcd, 0xb27a_6281_7e66_03ed),
            (0x7, 1000, 999, u64::MAX, 0x70e1_3c63_b83a_462c),
            (0x63, 4, 2, 0xabcd, 0xbc3b_ba33_f81a_e0dc),
            (0x0, 1, 0, 0x1, 0x6644_1325_34dd_7e23),
            (
                u64::MAX,
                70,
                64,
                0x0123_4567_89ab_cdef,
                0x7453_ea6e_088b_74fa,
            ),
        ];
        for (seed, n, id, digest, tag) in captured {
            let directory = KeyDirectory::generate(n, seed);
            let material = hash_words(&[seed, 0x5EED, id as u64]);
            assert_eq!(tag, hash_words(&[material, id as u64, digest]));
            assert_eq!(directory.signer(id).tag(digest), tag);
            assert_eq!(directory.expected_tag(id, digest), Some(tag));
        }
    }

    #[test]
    fn fingerprint_names_the_key_table() {
        let a = KeyDirectory::generate(5, 1);
        assert_eq!(a.fingerprint(), KeyDirectory::generate(5, 1).fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), KeyDirectory::generate(5, 2).fingerprint());
        assert_ne!(a.fingerprint(), KeyDirectory::generate(6, 1).fingerprint());
        assert_ne!(
            KeyDirectory::generate(0, 1).fingerprint(),
            KeyDirectory::generate(1, 1).fingerprint()
        );
    }

    #[test]
    fn signer_tags_depend_on_key_and_digest() {
        let d = KeyDirectory::generate(3, 11);
        let s0 = d.signer(0);
        let s1 = d.signer(1);
        assert_ne!(s0.tag(42), s1.tag(42));
        assert_ne!(s0.tag(42), s0.tag(43));
        assert_eq!(d.expected_tag(0, 42), Some(s0.tag(42)));
        assert_eq!(d.expected_tag(9, 42), None);
    }
}
