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
//! [`InquiryFamily`] materialises these families with seeded constructions,
//! capping each degree at `n − 1` (complete graph) as documented in
//! `DESIGN.md`.

use crate::build;
use crate::graph::Graph;

/// How the per-phase degrees of an [`InquiryFamily`] are derived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FamilyKind {
    /// The `Spread-Common-Value` family of Lemma 5: degree `10·2^i` in
    /// phase `i` (1-based).
    SpreadCommonValue,
    /// The `Many-Crashes-Consensus` Part 3 family: degree
    /// `64/(3(1−α)(1+3α))·2^i` where `α = t/n`.
    ManyCrashes {
        /// The fault fraction `α = t/n` scaled by 1000 (kept integral so the
        /// family stays `Eq`-comparable and serializable without float
        /// caveats).
        alpha_milli: u32,
    },
}

/// A family of per-phase overlay graphs with geometrically growing degree.
#[derive(Clone, Debug)]
pub struct InquiryFamily {
    graphs: Vec<Graph>,
    degrees: Vec<usize>,
    kind: FamilyKind,
}

impl InquiryFamily {
    /// Builds the `Spread-Common-Value` family for `n` nodes and fault bound
    /// `t`: one graph per phase `i = 1 … ⌈lg(t+1)⌉`, with target degree
    /// `10·2^i`, capped at `n − 1`.
    pub fn spread_common_value(n: usize, t: usize, seed: u64) -> Self {
        let phases = ((t + 1) as f64).log2().ceil().max(1.0) as usize;
        Self::build(
            n,
            phases,
            |i| 10.0 * 2f64.powi(i as i32),
            seed,
            FamilyKind::SpreadCommonValue,
        )
    }

    /// Builds the `Many-Crashes-Consensus` Part 3 family for `n` nodes and
    /// fault fraction `alpha = t/n`: one graph per phase
    /// `i = 1 … 1 + ⌈lg((1+3α)n/4)⌉`, with target degree
    /// `64/(3(1−α)(1+3α))·2^i`, capped at `n − 1`.
    pub fn many_crashes(n: usize, alpha: f64, seed: u64) -> Self {
        let m = (1.0 + 3.0 * alpha) * n as f64 / 4.0;
        let phases = (1.0 + m.log2().ceil()).max(1.0) as usize;
        let base = 64.0 / (3.0 * (1.0 - alpha) * (1.0 + 3.0 * alpha));
        Self::build(
            n,
            phases,
            move |i| base * 2f64.powi(i as i32),
            seed,
            FamilyKind::ManyCrashes {
                alpha_milli: (alpha * 1000.0).round() as u32,
            },
        )
    }

    fn build(
        n: usize,
        phases: usize,
        degree_of_phase: impl Fn(usize) -> f64,
        seed: u64,
        kind: FamilyKind,
    ) -> Self {
        let mut graphs = Vec::with_capacity(phases);
        let mut degrees = Vec::with_capacity(phases);
        for i in 1..=phases {
            let target = degree_of_phase(i).ceil().max(1.0) as usize;
            let degree = target.min(n.saturating_sub(1));
            graphs.push(build::capped_regular(
                n,
                degree,
                seed.wrapping_add(i as u64),
            ));
            degrees.push(degree);
        }
        InquiryFamily {
            graphs,
            degrees,
            kind,
        }
    }

    /// Number of phases in the family.
    pub fn phases(&self) -> usize {
        self.graphs.len()
    }

    /// The graph used in phase `i` (1-based, clamped to the last phase).
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
        let idx = phase.max(1).min(self.graphs.len()) - 1;
        &self.graphs[idx]
    }

    /// The capped degree used in phase `i` (1-based, clamped).
    #[expect(
        clippy::indexing_slicing,
        reason = "the phase is clamped into 1..=len first; every constructor builds at least one \
                  phase"
    )]
    pub fn degree(&self, phase: usize) -> usize {
        let idx = phase.max(1).min(self.degrees.len()) - 1;
        self.degrees[idx]
    }

    /// Which family this is.
    pub fn kind(&self) -> FamilyKind {
        self.kind
    }

    /// Total of all phase degrees — proportional to the worst-case number of
    /// inquiry messages a single undecided node can send across all phases.
    pub fn total_degree(&self) -> usize {
        self.degrees.iter().sum()
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
        assert_eq!(family.kind(), FamilyKind::SpreadCommonValue);
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
        assert!(matches!(
            family.kind(),
            FamilyKind::ManyCrashes { alpha_milli: 500 }
        ));
        assert!(family.degree(1) >= 1);
        assert!(family.degree(9) < n);
    }

    #[test]
    fn phase_index_is_clamped() {
        let family = InquiryFamily::spread_common_value(100, 7, 1);
        assert_eq!(family.degree(0), family.degree(1));
        assert_eq!(family.degree(100), family.degree(family.phases()));
    }

    #[test]
    fn total_degree_bounds_inquiry_cost() {
        let family = InquiryFamily::spread_common_value(500, 31, 2);
        assert_eq!(
            family.total_degree(),
            (1..=family.phases())
                .map(|i| family.degree(i))
                .sum::<usize>()
        );
    }
}
