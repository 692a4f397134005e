//! A small deterministic hash used by the simulated signature scheme.
//!
//! This is FNV-1a with a 64-bit state plus a finalization mix.  It is **not**
//! cryptographically secure and is not meant to be: inside a closed
//! simulation the only property the authenticated-Byzantine model needs is
//! that a Byzantine node cannot produce a valid tag for a key it does not
//! hold, and the runner never gives it other nodes' keys.  See `DESIGN.md`
//! for the substitution rationale.

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with FNV-1a and a final avalanche mix.
///
/// # Examples
///
/// ```
/// use dft_auth::hash::fnv1a_64;
///
/// let a = fnv1a_64(b"hello");
/// let b = fnv1a_64(b"hello");
/// let c = fnv1a_64(b"hellp");
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut state = FNV_OFFSET;
    for &byte in bytes {
        state ^= u64::from(byte);
        state = state.wrapping_mul(FNV_PRIME);
    }
    mix(state)
}

/// Hashes a sequence of 64-bit words (convenience for fixed-layout records).
pub fn hash_words(words: &[u64]) -> u64 {
    let mut state = FNV_OFFSET;
    for &word in words {
        for byte in word.to_le_bytes() {
            state ^= u64::from(byte);
            state = state.wrapping_mul(FNV_PRIME);
        }
    }
    mix(state)
}

/// A 64-bit finalization mix (xorshift-multiply avalanche, as in
/// splitmix64) so nearby inputs produce unrelated outputs.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An incremental hasher over 64-bit words, used to build message digests
/// without allocating intermediate buffers.
///
/// The state is one word, so a hasher that has absorbed a fixed prefix is a
/// value to copy and resume from: a [`SecretKey`](crate::SecretKey) is one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        WordHasher { state: FNV_OFFSET }
    }

    /// Absorbs one 64-bit word.
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Finishes and returns the digest.
    pub fn finish(&self) -> u64 {
        mix(self.state)
    }
}

impl Default for WordHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(fnv1a_64(b"abc"), fnv1a_64(b"abc"));
        assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abd"));
        assert_ne!(fnv1a_64(b""), fnv1a_64(b"\0"));
    }

    #[test]
    fn word_hashing_matches_incremental() {
        let words = [1u64, 2, 3, u64::MAX];
        let direct = hash_words(&words);
        let mut hasher = WordHasher::new();
        for w in words {
            hasher.write_u64(w);
        }
        assert_eq!(direct, hasher.finish());
    }

    #[test]
    fn word_order_matters() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
    }

    #[test]
    fn bytes_and_default_hasher() {
        let mut h = WordHasher::default();
        h.write_bytes(b"xyz");
        assert_eq!(h.finish(), fnv1a_64(b"xyz"));
    }
}
