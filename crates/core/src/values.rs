//! Protocol value types: joinable candidate values, extant sets and
//! completion sets.

use dft_sim::Payload;

/// A value that can only grow under a join (least-upper-bound) operation.
///
/// The paper's crash-tolerant algorithms flood information monotonically:
/// binary consensus floods rumor `1` (the join is logical OR), and the
/// checkpointing construction runs `n` such instances at once, which is the
/// coordinate-wise OR of a bit vector.  Making the agreement protocols
/// generic over this trait lets one implementation serve both the scalar and
/// the vectorised ("combined message") cases.
/// (A [`Payload`], so a value states its own wire size in bits, and
/// protocols generic over a join value satisfy the simulator's threading
/// bounds: a sharded execution moves each chunk's nodes onto a `'static`
/// worker thread; every value type here is plain owned data.)
pub trait JoinValue: Payload + PartialEq {
    /// Joins `other` into `self`; returns `true` if `self` changed.
    fn join_in_place(&mut self, other: &Self) -> bool;

    /// Whether this is the bottom element (nothing to flood).
    fn is_bottom(&self) -> bool;
}

impl JoinValue for bool {
    fn join_in_place(&mut self, other: &Self) -> bool {
        let changed = !*self && *other;
        *self |= *other;
        changed
    }

    fn is_bottom(&self) -> bool {
        !*self
    }
}

/// A fixed-width bit vector joined by coordinate-wise OR — the "combined
/// message" of `n` concurrent consensus instances used by checkpointing
/// (Section 6).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    bits: Vec<u64>,
    len: usize,
}

impl BitVector {
    /// An all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVector {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a vector from an iterator of set positions.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn from_set_bits<I: IntoIterator<Item = usize>>(len: usize, set: I) -> Self {
        let mut v = Self::zeros(len);
        for idx in set {
            v.set(idx, true);
        }
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero width.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "follows the assert that `idx < len`, and `bits` holds `len` bits"
    )]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Sets bit `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "follows the assert that `idx < len`, and `bits` holds `len` bits"
    )]
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        if value {
            self.bits[idx / 64] |= 1 << (idx % 64);
        } else {
            self.bits[idx / 64] &= !(1 << (idx % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.get(i)).collect()
    }

    /// The backing 64-bit words (for the shard wire codec).
    pub(crate) fn raw_words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a vector from its backing words: `None` unless there is one
    /// word per 64 bits and no bit past `len` is set, so a decoded vector is
    /// canonical and re-encodes to the words it came from.
    pub(crate) fn from_raw_words(len: usize, bits: Vec<u64>) -> Option<Self> {
        let canonical = bits.len() == len.div_ceil(64) && clear_past(&bits, len);
        canonical.then_some(BitVector { bits, len })
    }
}

impl std::fmt::Debug for BitVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVector[{}/{}]", self.count_ones(), self.len)
    }
}

impl JoinValue for BitVector {
    fn join_in_place(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let joined = *a | *b;
            if joined != *a {
                changed = true;
                *a = joined;
            }
        }
        changed
    }

    fn is_bottom(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

impl Payload for BitVector {
    /// One bit per instance.
    fn bit_len(&self) -> u64 {
        self.len as u64
    }
}

/// A rumor: the opaque input value a node contributes to gossiping.
pub type Rumor = u64;

/// An extant set: for every node, either the node's rumor (a *proper pair*)
/// or `nil` (Section 5).
///
/// Gossip and checkpointing executions merge millions of extant sets, so
/// presence is kept apart from the rumors: one bit per slot in 64-slot
/// words, beside a flat rumor array that holds 0 wherever the slot is nil
/// (so the derived equality compares content, not history).  A merge reads
/// the presence words of each 64 slots first and skips the block when
/// `other` has nothing `self` lacks — the digest comparison of push-pull
/// anti-entropy, a word at a time — copies the 64 rumors as one slice when
/// `self` lacks all of them, and otherwise visits only the slots it lacks.
/// The number of proper pairs is cached, so [`ExtantSet::wire_bits`] is
/// O(1) for every message copy and a merge into a full set returns at once.
#[derive(Clone, PartialEq, Eq)]
pub struct ExtantSet {
    /// Bit `i % 64` of word `i / 64` is set iff node `i` is present; bits
    /// past the last slot stay clear.
    mask: Vec<u64>,
    /// Node `i`'s rumor where it is present, 0 where it is nil.
    rumors: Vec<Rumor>,
    /// Number of proper pairs (cached).
    present: usize,
}

impl ExtantSet {
    /// An extant set of `n` nil pairs.
    pub fn nil(n: usize) -> Self {
        ExtantSet {
            mask: vec![0; n.div_ceil(64)],
            rumors: vec![0; n],
            present: 0,
        }
    }

    /// Number of slots (the system size `n`).
    pub fn len(&self) -> usize {
        self.rumors.len()
    }

    /// Whether the set has zero slots.
    pub fn is_empty(&self) -> bool {
        self.rumors.is_empty()
    }

    /// Whether node `idx` is *present* (has a proper pair).
    pub fn is_present(&self, idx: usize) -> bool {
        let word = self.mask.get(idx / 64).copied().unwrap_or(0);
        word & (1 << (idx % 64)) != 0
    }

    /// The rumor recorded for node `idx`, if present.
    pub fn rumor_of(&self, idx: usize) -> Option<Rumor> {
        let rumor = self.rumors.get(idx).copied();
        rumor.filter(|_| self.is_present(idx))
    }

    /// Records `(idx, rumor)` if node `idx` is currently absent; returns
    /// `true` if the set changed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn update(&mut self, idx: usize, rumor: Rumor) -> bool {
        assert!(idx < self.len(), "node {idx} out of range");
        let bit = 1 << (idx % 64);
        match (self.mask.get_mut(idx / 64), self.rumors.get_mut(idx)) {
            (Some(word), Some(slot)) if *word & bit == 0 => {
                *word |= bit;
                *slot = rumor;
                self.present += 1;
                true
            }
            _ => false,
        }
    }

    /// Merges every proper pair of `other` into `self`; returns `true` if
    /// anything changed.
    ///
    /// First rumor wins, exactly as repeated [`ExtantSet::update`] calls: a
    /// slot already present in `self` is never overwritten.  A full `self`
    /// (or an empty `other`) short-circuits without touching the slots.
    ///
    /// # Panics
    ///
    /// Panics if the sets cover different system sizes — a silent
    /// truncating zip would drop rumors on a wiring bug instead of
    /// surfacing it.
    pub fn merge(&mut self, other: &ExtantSet) -> bool {
        assert_eq!(
            self.len(),
            other.len(),
            "merging extant sets of different system sizes"
        );
        if self.present == self.len() || other.present == 0 {
            return false;
        }
        let mut taken = 0;
        let words = self.mask.iter_mut().zip(&other.mask);
        let blocks = self.rumors.chunks_mut(64).zip(other.rumors.chunks(64));
        for ((word, &theirs), (dst, src)) in words.zip(blocks) {
            let gaps = theirs & !*word;
            if gaps == 0 {
                continue;
            }
            if gaps == u64::MAX {
                dst.copy_from_slice(src);
            } else {
                for bit in set_bits(gaps) {
                    if let (Some(dst), Some(&src)) = (dst.get_mut(bit), src.get(bit)) {
                        *dst = src;
                    }
                }
            }
            *word |= gaps;
            taken += gaps.count_ones() as usize;
        }
        self.present += taken;
        taken > 0
    }

    /// Number of present nodes.
    pub fn present_count(&self) -> usize {
        self.present
    }

    /// The proper pairs `(index, rumor)`, in ascending index order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, Rumor)> + '_ {
        let blocks = self.mask.iter().zip(self.rumors.chunks(64)).enumerate();
        blocks.flat_map(|(w, (&word, block))| {
            set_bits(word).filter_map(move |bit| block.get(bit).map(|&r| (64 * w + bit, r)))
        })
    }

    /// The set of present node indices.
    pub fn present_nodes(&self) -> Vec<usize> {
        self.pairs().map(|(idx, _)| idx).collect()
    }

    /// Wire size in bits: one presence bit per slot plus 64 bits per proper
    /// pair.
    pub fn wire_bits(&self) -> u64 {
        self.len() as u64 + 64 * self.present_count() as u64
    }

    /// The presence words and the rumor array (for the shard wire codec).
    pub(crate) fn raw_parts(&self) -> (&[u64], &[Rumor]) {
        (&self.mask, &self.rumors)
    }

    /// Rebuilds a set from its presence words and rumor array, counting the
    /// proper pairs afresh: `None` unless there is one word per 64 slots and
    /// no presence bit past the last slot.  The caller leaves every nil
    /// slot's rumor 0.
    pub(crate) fn from_raw_parts(mask: Vec<u64>, rumors: Vec<Rumor>) -> Option<Self> {
        if mask.len() != rumors.len().div_ceil(64) || !clear_past(&mask, rumors.len()) {
            return None;
        }
        let present = mask.iter().map(|w| w.count_ones() as usize).sum();
        let set = ExtantSet {
            mask,
            rumors,
            present,
        };
        debug_assert!(
            (set.rumors.iter().enumerate()).all(|(idx, &rumor)| rumor == 0 || set.is_present(idx)),
            "a nil slot holds a rumor"
        );
        Some(set)
    }
}

/// Whether `words`, holding `len` bits, has no bit set past the last.
fn clear_past(words: &[u64], len: usize) -> bool {
    let used = len % 64;
    used == 0 || words.last().is_none_or(|&last| last >> used == 0)
}

/// The positions of `word`'s set bits, ascending.
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

impl std::fmt::Debug for ExtantSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExtantSet[{}/{}]", self.present_count(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_join_is_or() {
        let mut v = false;
        assert!(!v.join_in_place(&false));
        assert!(v.is_bottom());
        assert!(v.join_in_place(&true));
        assert!(!v.join_in_place(&true));
        assert!(!v.is_bottom());
        assert_eq!(true.bit_len(), 1);
    }

    #[test]
    fn bit_vector_join_and_accessors() {
        let mut a = BitVector::from_set_bits(130, [0, 64, 129]);
        let b = BitVector::from_set_bits(130, [1, 64]);
        assert!(a.join_in_place(&b));
        assert!(!a.join_in_place(&b));
        assert_eq!(a.count_ones(), 4);
        assert_eq!(a.ones(), vec![0, 1, 64, 129]);
        assert!(a.get(129));
        assert!(!a.get(2));
        assert!(!a.is_bottom());
        assert!(BitVector::zeros(10).is_bottom());
        assert_eq!(a.bit_len(), 130);
        a.set(0, false);
        assert!(!a.get(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_vector_rejects_out_of_range() {
        let v = BitVector::zeros(4);
        let _ = v.get(4);
    }

    #[test]
    fn extant_set_updates_and_merges() {
        let mut a = ExtantSet::nil(5);
        assert_eq!(a.present_count(), 0);
        assert!(a.update(2, 77));
        assert!(!a.update(2, 99), "first rumor wins");
        assert_eq!(a.rumor_of(2), Some(77));
        let mut b = ExtantSet::nil(5);
        b.update(0, 11);
        b.update(2, 99);
        assert!(a.merge(&b));
        assert_eq!(a.present_nodes(), vec![0, 2]);
        assert_eq!(a.rumor_of(2), Some(77), "merge does not overwrite");
        assert!(!a.merge(&b));
        assert_eq!(a.wire_bits(), 5 + 128);
    }

    #[test]
    fn extant_set_present_count_stays_exact() {
        // The cached count must track updates and merges exactly, including
        // the full-set and empty-other short-circuits.
        let mut a = ExtantSet::nil(3);
        let mut b = ExtantSet::nil(3);
        assert!(!a.merge(&b), "empty other is a no-op");
        for i in 0..3 {
            b.update(i, i as Rumor + 10);
        }
        a.update(1, 99);
        assert!(a.merge(&b));
        assert_eq!(a.present_count(), 3);
        assert_eq!(a.rumor_of(1), Some(99), "first rumor wins across merge");
        assert_eq!(a.wire_bits(), 3 + 64 * 3);
        // `a` is full: merging anything more is an O(1) no-op.
        assert!(!a.merge(&b));
        assert_eq!(
            a.present_count(),
            (0..a.len()).filter(|&i| a.is_present(i)).count(),
            "cache matches a recount"
        );
    }

    #[test]
    #[should_panic(expected = "different system sizes")]
    fn extant_set_merge_rejects_mismatched_sizes() {
        let mut a = ExtantSet::nil(3);
        let mut b = ExtantSet::nil(5);
        b.update(4, 7);
        a.merge(&b);
    }

    #[test]
    fn extant_set_merge_crosses_word_boundaries() {
        // Slots straddling several 64-bit mask words, filled from both
        // sides, with a conflicting slot where the first rumor must win.
        let mut a = ExtantSet::nil(200);
        let mut b = ExtantSet::nil(200);
        for idx in [0usize, 63, 64, 127, 128, 199] {
            b.update(idx, idx as Rumor);
        }
        a.update(64, 7);
        assert!(a.merge(&b));
        assert_eq!(a.present_count(), 6);
        assert_eq!(a.rumor_of(64), Some(7), "existing slot kept");
        assert_eq!(a.rumor_of(63), Some(63));
        assert_eq!(a.rumor_of(199), Some(199));
        assert_eq!(a.rumor_of(198), None);
        assert_eq!(a.present_nodes(), vec![0, 63, 64, 127, 128, 199]);
        // Identical content built by different operation orders compares
        // equal (absent slots are canonical).
        let mut c = ExtantSet::nil(200);
        c.update(64, 7);
        for idx in [199usize, 128, 127, 63, 0] {
            c.update(idx, idx as Rumor);
        }
        assert_eq!(a, c);
    }

    #[test]
    fn extant_set_merge_matches_slotwise_updates_around_word_edges() {
        // Sizes below, at and past a multiple of the 64-slot word, and gap
        // patterns that leave a word with no gap, all gaps, or a few: the
        // merge must equal `update` called slot by slot, count included.
        for n in [1, 7, 63, 64, 65, 127, 128, 129, 200] {
            for (keep, give) in [(1, 1), (2, 3), (3, 2), (8, 1), (1, 8), (9, 5), (n, 1)] {
                let mut merged = ExtantSet::nil(n);
                let mut other = ExtantSet::nil(n);
                for idx in 0..n {
                    if idx % keep != 0 {
                        merged.update(idx, 1000 + idx as Rumor);
                    }
                    if idx % give == 0 {
                        other.update(idx, idx as Rumor);
                    }
                }
                let mut slotwise = merged.clone();
                let mut expect_change = false;
                for (idx, rumor) in other.pairs() {
                    expect_change |= slotwise.update(idx, rumor);
                }
                assert_eq!(merged.merge(&other), expect_change, "n={n} {keep}/{give}");
                assert_eq!(merged, slotwise, "n={n} {keep}/{give}");
                assert_eq!(merged.present_count(), merged.pairs().count());
                assert!(!merged.merge(&other), "a second merge adds nothing");
            }
        }
    }

    #[test]
    fn extant_set_debug_is_compact() {
        let mut a = ExtantSet::nil(3);
        a.update(1, 5);
        assert_eq!(format!("{a:?}"), "ExtantSet[1/3]");
    }
}
