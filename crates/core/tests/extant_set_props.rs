//! Property tests for `ExtantSet` against a naive reference: one
//! `Option<Rumor>` per slot, no presence words, no cached count and no
//! short-circuits.
//!
//! `ExtantSet` keeps presence as 64-slot words beside a rumor array and
//! caches its number of proper pairs.  Its merge skips a word with nothing
//! to add, copies a word it lacks entirely as one slice, and visits the
//! set bits of the rest.  Each path is easy to get subtly wrong — a
//! drifting cache corrupts `wire_bits` (message accounting), a slice copy
//! over a partly present word overwrites a first rumor, a stray bit past
//! the last slot breaks equality — so every operation sequence here is
//! mirrored on the model, over several words and a partial last one, and
//! the two must agree exactly: slots, pairs, counts, wire sizes, equality
//! and each operation's `changed` return value.

#![expect(
    clippy::indexing_slicing,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use dft_core::{ExtantSet, Rumor};
use proptest::prelude::*;

/// The naive reference: plain slots, no cached count, no short-circuits.
#[derive(Clone, Debug, PartialEq)]
struct NaiveExtant {
    entries: Vec<Option<Rumor>>,
}

impl NaiveExtant {
    fn nil(n: usize) -> Self {
        NaiveExtant {
            entries: vec![None; n],
        }
    }

    fn update(&mut self, idx: usize, rumor: Rumor) -> bool {
        if self.entries[idx].is_none() {
            self.entries[idx] = Some(rumor);
            true
        } else {
            false
        }
    }

    fn merge(&mut self, other: &NaiveExtant) -> bool {
        let mut changed = false;
        for (dst, src) in self.entries.iter_mut().zip(&other.entries) {
            if dst.is_none() && src.is_some() {
                *dst = *src;
                changed = true;
            }
        }
        changed
    }

    fn pairs(&self) -> Vec<(usize, Rumor)> {
        let slots = self.entries.iter().enumerate();
        slots
            .filter_map(|(idx, slot)| slot.map(|rumor| (idx, rumor)))
            .collect()
    }

    fn present_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    fn wire_bits(&self) -> u64 {
        self.entries.len() as u64 + 64 * self.present_count() as u64
    }
}

fn assert_matches_model(set: &ExtantSet, model: &NaiveExtant) {
    let n = model.entries.len();
    assert_eq!(set.present_count(), model.present_count(), "cached count");
    assert_eq!(set.wire_bits(), model.wire_bits(), "wire size");
    for (idx, slot) in model.entries.iter().enumerate() {
        assert_eq!(set.rumor_of(idx), *slot, "slot {idx}");
        assert_eq!(set.is_present(idx), slot.is_some(), "presence {idx}");
    }
    for idx in n..n.next_multiple_of(64) + 64 {
        assert!(!set.is_present(idx), "slot {idx} past the last of {n}");
        assert_eq!(set.rumor_of(idx), None, "slot {idx} past the last of {n}");
    }
    assert_eq!(set.pairs().collect::<Vec<_>>(), model.pairs(), "pairs");
    // The same pairs recorded in the opposite order make an equal set.
    let mut reversed = ExtantSet::nil(n);
    for (idx, rumor) in model.pairs().into_iter().rev() {
        reversed.update(idx, rumor);
    }
    assert_eq!(*set, reversed, "equality is by content, not by history");
}

/// Deterministic operation stream derived from sampled bits.
fn op_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Interleaved updates, whole-word fills and merges, over one to four
    /// presence words: the cached present-count, the wire size, every slot,
    /// the pairs, equality and every operation's `changed` flag agree with
    /// the naive model throughout.
    #[test]
    fn interleaved_updates_and_merges_match_the_naive_model(
        n in 1usize..200,
        seed in any::<u64>(),
        ops in 1usize..80,
    ) {
        let mut next = op_stream(seed);
        let mut set = ExtantSet::nil(n);
        let mut model = NaiveExtant::nil(n);
        // A pool of donor sets (real + model) built up as we go, so merges
        // see sets of varying fullness — including empty and full ones.
        let mut donors: Vec<(ExtantSet, NaiveExtant)> =
            vec![(ExtantSet::nil(n), NaiveExtant::nil(n))];
        for _ in 0..ops {
            match next() % 5 {
                // Insert into the main set.
                0 | 1 => {
                    let idx = (next() % n as u64) as usize;
                    let rumor = next();
                    prop_assert_eq!(set.update(idx, rumor), model.update(idx, rumor));
                }
                // Insert into a donor (so the donor pool isn't all-nil).
                2 => {
                    let donor = (next() % donors.len() as u64) as usize;
                    let idx = (next() % n as u64) as usize;
                    let rumor = next();
                    let (d_set, d_model) = &mut donors[donor];
                    prop_assert_eq!(d_set.update(idx, rumor), d_model.update(idx, rumor));
                }
                // Fill one whole presence word of a donor (the last one may
                // be partial), so merges meet dense words: a word the main
                // set lacks entirely is copied as one slice.
                3 => {
                    let donor = (next() % donors.len() as u64) as usize;
                    let word = (next() % n.div_ceil(64) as u64) as usize;
                    let (d_set, d_model) = &mut donors[donor];
                    for idx in 64 * word..n.min(64 * word + 64) {
                        let rumor = next();
                        prop_assert_eq!(d_set.update(idx, rumor), d_model.update(idx, rumor));
                    }
                    assert_matches_model(d_set, d_model);
                }
                // Merge a donor into the main set (exercises the empty-other
                // short-circuit whenever the donor is still nil, and the
                // full-self one once the main set fills up).
                _ => {
                    let donor = (next() % donors.len() as u64) as usize;
                    let (d_set, d_model) = &donors[donor];
                    prop_assert_eq!(set.merge(d_set), model.merge(d_model));
                }
            }
            assert_matches_model(&set, &model);
            for (d_set, d_model) in &donors {
                prop_assert_eq!(set == *d_set, model == *d_model, "equality");
            }
            if donors.len() < 4 {
                donors.push((set.clone(), model.clone()));
            }
        }
    }

    /// The short-circuit boundary cases, forced explicitly: merging into a
    /// full set, merging an empty other, and both at once must all be
    /// no-ops with `changed = false` and an exact cache.
    #[test]
    fn merge_short_circuits_are_exact(
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut next = op_stream(seed);
        // Build a full set and a partially filled one.
        let mut full = ExtantSet::nil(n);
        let mut full_model = NaiveExtant::nil(n);
        for idx in 0..n {
            let rumor = next();
            full.update(idx, rumor);
            full_model.update(idx, rumor);
        }
        let mut partial = ExtantSet::nil(n);
        let mut partial_model = NaiveExtant::nil(n);
        for idx in 0..n {
            if next().is_multiple_of(2) {
                let rumor = next();
                partial.update(idx, rumor);
                partial_model.update(idx, rumor);
            }
        }
        let empty = ExtantSet::nil(n);
        let empty_model = NaiveExtant::nil(n);

        // Full self: no merge may change it, whatever the other side is.
        for (other, other_model) in [(&partial, &partial_model), (&empty, &empty_model)] {
            let mut self_set = full.clone();
            let mut self_model = full_model.clone();
            prop_assert_eq!(self_set.merge(other), self_model.merge(other_model));
            assert_matches_model(&self_set, &self_model);
            prop_assert_eq!(self_set.present_count(), n);
        }
        // Empty other: a no-op into any self.
        for (target, target_model) in [(&full, &full_model), (&partial, &partial_model)] {
            let mut self_set = target.clone();
            let mut self_model = target_model.clone();
            prop_assert_eq!(self_set.merge(&empty), self_model.merge(&empty_model));
            assert_matches_model(&self_set, &self_model);
        }
        // Both: full self, empty other.
        let mut self_set = full.clone();
        let mut self_model = full_model.clone();
        prop_assert_eq!(self_set.merge(&empty), self_model.merge(&empty_model));
        assert_matches_model(&self_set, &self_model);
        // And the merges that genuinely move data still agree: a partial set
        // into an empty one, and a full one (every word copied whole) into
        // an empty and into a partial one.
        for (other, other_model) in [(&partial, &partial_model), (&full, &full_model)] {
            for (target, target_model) in [(&empty, &empty_model), (&partial, &partial_model)] {
                let mut self_set = target.clone();
                let mut self_model = target_model.clone();
                prop_assert_eq!(self_set.merge(other), self_model.merge(other_model));
                assert_matches_model(&self_set, &self_model);
            }
        }
    }
}
