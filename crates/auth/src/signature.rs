//! Signatures over message digests.

use crate::keys::{KeyDirectory, Signer, SignerId};

/// A signature: the signer's identity plus a MAC tag over a 64-bit message
/// digest.
///
/// Signatures are produced by [`Signer::sign_digest`] and verified by
/// [`KeyDirectory::verify_digest`]; only the holder of the signer's secret
/// key can produce a tag that verifies, which is exactly the unforgeability
/// property the authenticated-Byzantine model requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The claimed signer.
    pub signer: SignerId,
    /// MAC tag over the digest under the signer's key.
    pub tag: u64,
}

impl Signature {
    /// Size of a signature on the wire, in bits (signer id + tag).
    pub const BIT_LEN: u64 = 64 + 64;
}

impl dft_sim::Payload for Signature {
    fn bit_len(&self) -> u64 {
        Signature::BIT_LEN
    }
}

dft_sim::shard::wire_struct!(Signature {
    signer: SignerId,
    tag: u64
});

impl Signer {
    /// Signs a 64-bit message digest.
    ///
    /// # Examples
    ///
    /// ```
    /// use dft_auth::KeyDirectory;
    ///
    /// let directory = KeyDirectory::generate(3, 7);
    /// let sig = directory.signer(1).sign_digest(1234);
    /// assert_eq!(sig.signer, 1);
    /// assert!(directory.verify_digest(&sig, 1234));
    /// ```
    pub fn sign_digest(&self, digest: u64) -> Signature {
        Signature {
            signer: self.id(),
            tag: self.tag(digest),
        }
    }
}

impl KeyDirectory {
    /// Verifies that `signature` is a valid signature of `digest` by the
    /// claimed signer.
    pub fn verify_digest(&self, signature: &Signature, digest: u64) -> bool {
        self.expected_tag(signature.signer, digest)
            .is_some_and(|expected| expected == signature.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let directory = KeyDirectory::generate(4, 5);
        for id in 0..4 {
            let sig = directory.signer(id).sign_digest(777);
            assert!(directory.verify_digest(&sig, 777));
            assert!(!directory.verify_digest(&sig, 778));
        }
    }

    #[test]
    fn wire_decode_error_paths_all_fail() {
        let directory = KeyDirectory::generate(4, 5);
        let signature = directory.signer(1).sign_digest(55);
        assert_eq!(
            dft_sim::shard::decode_error_path_violations(&signature),
            Vec::<usize>::new(),
            "every truncated or oversized Signature frame must fail to decode"
        );
    }

    #[test]
    fn wire_golden_bytes() {
        assert_eq!(dft_sim::shard::WIRE_VERSION, 14);
        let signature = Signature {
            signer: 2,
            tag: 0x0102_0304_0506_0708,
        };
        assert_eq!(
            dft_sim::shard::to_bytes(&signature),
            b"\x02\0\0\0\0\0\0\0\x08\x07\x06\x05\x04\x03\x02\x01"
        );
    }

    #[test]
    fn forged_signer_id_fails_verification() {
        let directory = KeyDirectory::generate(4, 5);
        let mut sig = directory.signer(0).sign_digest(100);
        // A Byzantine node relabelling its own signature as node 1's.
        sig.signer = 1;
        assert!(!directory.verify_digest(&sig, 100));
    }

    #[test]
    fn guessed_tag_fails_verification() {
        let directory = KeyDirectory::generate(4, 5);
        let forged = Signature {
            signer: 2,
            tag: 0xDEAD_BEEF,
        };
        assert!(!directory.verify_digest(&forged, 100));
    }

    #[test]
    fn unknown_signer_fails_verification() {
        let directory = KeyDirectory::generate(2, 5);
        let sig = directory.signer(0).sign_digest(1);
        let forged = Signature {
            signer: 7,
            tag: sig.tag,
        };
        assert!(!directory.verify_digest(&forged, 1));
    }

    #[test]
    fn signature_bit_length_is_fixed() {
        assert_eq!(Signature::BIT_LEN, 128);
    }
}
