//! Per-phase inquiry graph families.
//!
//! Two of the paper's algorithms spread a decision to the remaining undecided
//! nodes by having them inquire along overlay graphs whose degree doubles
//! each phase:
//!
//! * `Spread-Common-Value`, Part 2 (Lemma 5): phase `i` uses a graph `G_i`
//!   of degree `Θ(2^i)` in which any set of `C·(t+1)/2^i` vertices has at
//!   least `2(t+1)` external neighbours;
//! * `Many-Crashes-Consensus`, Part 3 (Section 4.4): phase `i` uses a
//!   Ramanujan graph `G(n, d_i)` with `d_i = 64/(3(1−α)(1+3α)) · 2^i`.
//!
//! [`InquiryFamily`] fixes every phase's degree, capped at `n − 1` (complete
//! graph) as documented in `DESIGN.md`, and builds phase `i`'s seeded graph
//! the first time a node reads it: only nodes still undecided after phase
//! `i − 1` do, so a phase nobody reaches costs nothing.  A reader that reads
//! every phase whatever the data calls [`InquiryFamily::build_all`] when it
//! is constructed, which keeps that cost in set-up.

use std::sync::OnceLock;

use crate::build;
use crate::graph::Graph;

/// A family of per-phase overlay graphs with geometrically growing degree,
/// each built on its first read.
#[derive(Clone, Debug)]
pub struct InquiryFamily {
    n: usize,
    seed: u64,
    /// `degrees[i]` is phase `i + 1`'s capped degree, and `graphs[i]` its
    /// graph once something has read it.
    degrees: Vec<usize>,
    graphs: Vec<OnceLock<Graph>>,
}

impl InquiryFamily {
    /// Builds the `Spread-Common-Value` family for `n` nodes and fault bound
    /// `t`: one graph per phase `i = 1 … ⌈lg(t+1)⌉`, with target degree
    /// `10·2^i`, capped at `n − 1`.
    pub fn spread_common_value(n: usize, t: usize, seed: u64) -> Self {
        let phases = ((t + 1) as f64).log2().ceil().max(1.0) as usize;
        Self::new(n, phases, |i| 10.0 * 2f64.powi(i as i32), seed)
    }

    /// Builds the `Many-Crashes-Consensus` Part 3 family for `n` nodes and
    /// fault fraction `alpha = t/n`: one graph per phase
    /// `i = 1 … 1 + ⌈lg((1+3α)n/4)⌉`, with target degree
    /// `64/(3(1−α)(1+3α))·2^i`, capped at `n − 1`.
    pub fn many_crashes(n: usize, alpha: f64, seed: u64) -> Self {
        let m = (1.0 + 3.0 * alpha) * n as f64 / 4.0;
        let phases = (1.0 + m.log2().ceil()).max(1.0) as usize;
        let base = 64.0 / (3.0 * (1.0 - alpha) * (1.0 + 3.0 * alpha));
        Self::new(n, phases, move |i| base * 2f64.powi(i as i32), seed)
    }

    fn new(n: usize, phases: usize, degree_of_phase: impl Fn(usize) -> f64, seed: u64) -> Self {
        let degrees = (1..=phases)
            .map(|i| (degree_of_phase(i).ceil().max(1.0) as usize).min(n.saturating_sub(1)))
            .collect();
        let graphs = (1..=phases).map(|_| OnceLock::new()).collect();
        InquiryFamily {
            n,
            seed,
            degrees,
            graphs,
        }
    }

    /// Builds every phase's graph now, for a reader that reads them all.
    pub fn build_all(&self) {
        for phase in 1..=self.phases() {
            self.graph(phase);
        }
    }

    /// Number of phases in the family.
    pub fn phases(&self) -> usize {
        self.degrees.len()
    }

    /// How many phases' graphs have been built so far.
    pub fn built_phases(&self) -> usize {
        self.graphs
            .iter()
            .filter(|graph| graph.get().is_some())
            .count()
    }

    /// The graph used in phase `i` (1-based, clamped to the last phase),
    /// built on its first read: `build::capped_regular(n, degree(i), seed + i)`.
    ///
    /// # Panics
    ///
    /// Panics if the family is empty (it never is: constructors always build
    /// at least one phase).
    #[expect(
        clippy::indexing_slicing,
        reason = "the phase is clamped into 1..=len first (documented to panic on an empty family, \
                  which no constructor builds)"
    )]
    pub fn graph(&self, phase: usize) -> &Graph {
        let i = self.index(phase);
        self.graphs[i].get_or_init(|| {
            build::capped_regular(
                self.n,
                self.degrees[i],
                self.seed.wrapping_add(i as u64 + 1),
            )
        })
    }

    /// The capped degree used in phase `i` (1-based, clamped).
    #[expect(
        clippy::indexing_slicing,
        reason = "the phase is clamped into 1..=len first; every constructor builds at least one \
                  phase"
    )]
    pub fn degree(&self, phase: usize) -> usize {
        self.degrees[self.index(phase)]
    }

    /// The 0-based index of phase `phase`, clamped into `1..=phases`.
    fn index(&self, phase: usize) -> usize {
        phase.max(1).min(self.degrees.len()) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scv_family_degrees_double_until_cap() {
        let family = InquiryFamily::spread_common_value(1000, 63, 5);
        assert_eq!(family.phases(), 6);
        assert_eq!(family.degree(1), 20);
        assert_eq!(family.degree(2), 40);
        assert!(family.degree(6) <= 999);
        for phase in 1..=family.phases() {
            assert_eq!(family.graph(phase).num_vertices(), 1000);
        }
    }

    #[test]
    fn scv_family_caps_at_complete_graph() {
        let family = InquiryFamily::spread_common_value(20, 15, 5);
        let last = family.phases();
        assert_eq!(family.degree(last), 19);
        assert!(family.graph(last).is_regular(19), "complete graph fallback");
    }

    #[test]
    fn many_crashes_family_has_expected_phase_count() {
        let n = 256;
        let alpha = 0.5;
        let family = InquiryFamily::many_crashes(n, alpha, 3);
        // 1 + ⌈lg((1+3α)n/4)⌉ = 1 + ⌈lg 160⌉ = 9.
        assert_eq!(family.phases(), 9);
        assert!(family.degree(1) >= 1);
        assert!(family.degree(9) < n);
    }

    #[test]
    fn phase_index_is_clamped() {
        let family = InquiryFamily::spread_common_value(100, 7, 1);
        assert_eq!(family.degree(0), family.degree(1));
        assert_eq!(family.degree(100), family.degree(family.phases()));
    }

    /// Both constructors at a few `(n, t or α)` points, with the seed each
    /// was built from.
    fn families() -> Vec<(usize, u64, InquiryFamily)> {
        let scv = [(1000, 63, 5), (20, 15, 5), (300, 40, 9)]
            .map(|(n, t, seed)| (n, seed, InquiryFamily::spread_common_value(n, t, seed)));
        let many = [(256, 0.5, 3), (200, 0.9, 1), (64, 0.1, 8)]
            .map(|(n, alpha, seed)| (n, seed, InquiryFamily::many_crashes(n, alpha, seed)));
        scv.into_iter().chain(many).collect()
    }

    #[test]
    fn every_phase_built_lazily_equals_the_eager_recipe() {
        for (n, seed, family) in families() {
            for phase in 1..=family.phases() {
                let eager = build::capped_regular(n, family.degree(phase), seed + phase as u64);
                // `Graph`'s equality is on adjacency lists: the same edge
                // sets in the same neighbour order.
                assert_eq!(*family.graph(phase), eager, "n = {n}, phase {phase}");
            }
            assert_eq!(family.built_phases(), family.phases());
        }
    }

    #[test]
    fn reading_a_phase_builds_that_phase_only() {
        for (n, _, family) in families() {
            for phase in 1..=family.phases() {
                let fresh = family.clone();
                assert_eq!(fresh.built_phases(), 0, "n = {n}");
                fresh.graph(phase);
                fresh.graph(phase);
                assert_eq!(fresh.built_phases(), 1, "n = {n}, phase {phase}");
                assert!(fresh.graphs[phase - 1].get().is_some());
            }
        }
    }

    #[test]
    fn clamped_reads_build_only_the_phase_they_clamp_to() {
        for (n, _, family) in families() {
            let last = family.phases();
            let below = family.clone();
            assert_eq!(*below.graph(0), *family.clone().graph(1), "n = {n}");
            assert_eq!(below.built_phases(), 1);
            assert!(below.graphs[0].get().is_some());
            let above = family.clone();
            above.graph(last + 5);
            assert_eq!(above.built_phases(), 1);
            assert!(above.graphs[last - 1].get().is_some());
        }
    }

    #[test]
    fn build_all_builds_every_phase() {
        for (_, _, family) in families() {
            family.build_all();
            assert_eq!(family.built_phases(), family.phases());
        }
    }
}
