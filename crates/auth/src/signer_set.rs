//! A set of signer identities as a bitset.
//!
//! "No signer appears twice" is part of every signature-list check; asked of
//! a list it costs a scan per signature, asked of a [`SignerSet`] it costs
//! one bit.  One set is reset and reused, so walking the 5t entries of an
//! authenticated common set allocates nothing per entry.

use crate::keys::SignerId;

/// A set of signer ids below a fixed capacity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SignerSet {
    capacity: usize,
    words: Vec<u64>,
}

impl SignerSet {
    /// An empty set able to hold the ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        SignerSet {
            capacity,
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Empties the set and sets its capacity; the words it already owns are
    /// reused.
    pub fn reset(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: SignerId) -> bool {
        id < self.capacity
            && self
                .words
                .get(id / 64)
                .is_some_and(|word| word & (1 << (id % 64)) != 0)
    }

    /// Adds `id`.  Returns `false` — and leaves the set as it was — if `id`
    /// was already present or is not below the capacity.
    pub fn insert(&mut self, id: SignerId) -> bool {
        if id >= self.capacity {
            return false;
        }
        let Some(word) = self.words.get_mut(id / 64) else {
            return false;
        };
        let bit = 1 << (id % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// How many members are below `bound`.
    pub fn count_below(&self, bound: usize) -> usize {
        let bound = bound.min(self.capacity);
        let whole = self.words.iter().take(bound / 64);
        let partial = self
            .words
            .get(bound / 64)
            .map_or(0, |word| word & ((1 << (bound % 64)) - 1));
        whole
            .chain(&[partial])
            .map(|word| word.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_sight_only() {
        let mut set = SignerSet::new(10);
        assert!(!set.contains(3));
        assert!(set.insert(3));
        assert!(set.contains(3));
        assert!(!set.insert(3), "second insert of the same id");
        set.reset(4);
        assert!(!set.contains(3));
        assert!(set.insert(3));
        assert!(!set.insert(4), "the new capacity holds");
        set.reset(70);
        assert!(!set.contains(3));
        assert!(set.insert(69));
        assert_eq!(set, {
            let mut fresh = SignerSet::new(70);
            fresh.insert(69);
            fresh
        });
    }

    #[test]
    fn word_boundaries() {
        for capacity in [63, 64, 65, 128, 129] {
            let mut set = SignerSet::new(capacity);
            for id in [0, 62, 63, 64, 65, 127, 128] {
                let fits = id < capacity;
                assert_eq!(set.insert(id), fits, "capacity {capacity}, id {id}");
                assert_eq!(set.contains(id), fits, "capacity {capacity}, id {id}");
            }
            let members: Vec<usize> = (0..200).filter(|&id| set.contains(id)).collect();
            for bound in [0, 1, 63, 64, 65, 66, 128, 129, 1000] {
                let expected = members.iter().filter(|&&id| id < bound).count();
                assert_eq!(
                    set.count_below(bound),
                    expected,
                    "capacity {capacity}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_ids_are_refused_not_a_panic() {
        let mut set = SignerSet::new(64);
        for id in [64, 65, 1 << 20, usize::MAX] {
            assert!(!set.insert(id));
            assert!(!set.contains(id));
        }
        assert_eq!(set.count_below(usize::MAX), 0);
        let mut empty = SignerSet::new(0);
        assert!(!empty.insert(0));
        assert_eq!(empty.count_below(5), 0);
    }
}
