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

use crate::hash::hash_words;

/// Identifier of a signing node (the node's zero-based index).
pub type SignerId = usize;

/// A node's secret signing key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(u64);

impl SecretKey {
    /// Raw key material (used only inside this crate's MAC computation and
    /// in tests).
    pub(crate) fn material(self) -> u64 {
        self.0
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
        hash_words(&[self.key.material(), self.id as u64, digest])
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
}

impl KeyDirectory {
    /// Deterministically generates keys for `n` nodes from a seed.
    pub fn generate(n: usize, seed: u64) -> Self {
        let keys = (0..n)
            .map(|i| SecretKey(hash_words(&[seed, 0x5EED_u64, i as u64])))
            .collect();
        KeyDirectory { keys }
    }

    /// Number of nodes with keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The signer handed to node `id` (its own key only).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signer(&self, id: SignerId) -> Signer {
        Signer {
            id,
            key: self.keys[id],
        }
    }

    /// Recomputes the expected tag of `digest` under node `signer`'s key.
    pub(crate) fn expected_tag(&self, signer: SignerId, digest: u64) -> Option<u64> {
        self.keys
            .get(signer)
            .map(|key| hash_words(&[key.material(), signer as u64, digest]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
