//! System-wide protocol configuration and overlay construction.

use std::sync::Arc;

use dft_overlay::{build, Graph, InquiryFamily, OverlayParams};

use crate::error::{CoreError, CoreResult};

/// The nodes *related* to little node `me`: every node index congruent to
/// `me` modulo the number of little nodes, other than `me` itself.
pub(crate) fn related_nodes(n: usize, little: usize, me: usize) -> impl Iterator<Item = usize> {
    (0..n).skip(me + little).step_by(little.max(1))
}

/// The system-level parameters shared by every protocol: the number of nodes
/// `n`, the fault bound `t` and a seed for the deterministic overlay
/// constructions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of nodes.
    pub n: usize,
    /// Upper bound on the number of faults.
    pub t: usize,
    /// Seed for overlay construction and key generation.
    pub seed: u64,
}

impl SystemConfig {
    /// Creates a configuration, validating `n ≥ 2` and `t < n`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SystemTooSmall`] or
    /// [`CoreError::InvalidFaultBound`] when the parameters are infeasible.
    pub fn new(n: usize, t: usize) -> CoreResult<Self> {
        if n < 2 {
            return Err(CoreError::SystemTooSmall { n, minimum: 2 });
        }
        if t >= n {
            return Err(CoreError::InvalidFaultBound {
                n,
                t,
                requirement: "t < n",
            });
        }
        Ok(SystemConfig {
            n,
            t,
            seed: 0xD15C0,
        })
    }

    /// Sets the seed used for overlays and keys.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the few-crashes assumption `t < n/5`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFaultBound`] if violated.
    pub fn require_few_crashes(&self) -> CoreResult<()> {
        if 5 * self.t >= self.n {
            return Err(CoreError::InvalidFaultBound {
                n: self.n,
                t: self.t,
                requirement: "t < n/5",
            });
        }
        Ok(())
    }

    /// Validates the authenticated-Byzantine assumption `t < n/2`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFaultBound`] if violated.
    pub fn require_byzantine_minority(&self) -> CoreResult<()> {
        if 2 * self.t >= self.n {
            return Err(CoreError::InvalidFaultBound {
                n: self.n,
                t: self.t,
                requirement: "t < n/2",
            });
        }
        Ok(())
    }

    /// The fault fraction `α = t/n`.
    #[expect(
        clippy::float_arithmetic,
        reason = "the fault fraction is a ratio of two configuration integers, computed \
                  identically on every node"
    )]
    pub fn alpha(&self) -> f64 {
        self.t as f64 / self.n as f64
    }

    /// Number of *little nodes*: the `5t` smallest names (at least 1, at
    /// most `n`).
    pub fn little_count(&self) -> usize {
        (5 * self.t).clamp(1, self.n)
    }

    /// Overlay parameters for the little-node graph `G(5t, d)` (the paper
    /// uses `d = 5⁸`, which exceeds any sub-network that can be simulated;
    /// see `DESIGN.md`, substitution notes).
    pub fn little_params(&self) -> OverlayParams {
        let m = self.little_count();
        OverlayParams::practical(m, self.t.min(m))
    }

    /// The little-node overlay graph, with vertex `i` mapped to the node of
    /// index `i`.
    pub fn little_graph(&self) -> Arc<Graph> {
        let m = self.little_count();
        let params = self.little_params();
        Arc::new(build::capped_regular(m, params.degree, self.seed ^ 0xA1))
    }

    /// Overlay parameters for the full-network graph `G(n, d(α))` used by
    /// `Many-Crashes-Consensus`.
    pub fn full_params(&self) -> OverlayParams {
        OverlayParams::practical(self.n, self.t)
    }

    /// The full-network overlay graph for `Many-Crashes-Consensus`.
    pub fn full_graph(&self) -> Arc<Graph> {
        let params = self.full_params();
        Arc::new(build::capped_regular(
            self.n,
            params.degree,
            self.seed ^ 0xB2,
        ))
    }

    /// The constant-degree broadcast graph `H` (degree 64 in the paper, 16
    /// here) used by `Spread-Common-Value` Part 1 and `AB-Consensus` Part 3.
    pub fn h_graph(&self) -> Arc<Graph> {
        Arc::new(build::capped_regular(
            self.n,
            16.min(self.n - 1),
            self.seed ^ 0xC3,
        ))
    }

    /// The per-phase inquiry family of Lemma 5 used by `Spread-Common-Value`
    /// Part 2.
    pub fn scv_family(&self) -> Arc<InquiryFamily> {
        Arc::new(InquiryFamily::spread_common_value(
            self.n,
            self.t,
            self.seed ^ 0xD4,
        ))
    }

    /// The per-phase inquiry family used by `Many-Crashes-Consensus` Part 3.
    pub fn many_crashes_family(&self) -> Arc<InquiryFamily> {
        Arc::new(InquiryFamily::many_crashes(
            self.n,
            self.alpha(),
            self.seed ^ 0xE5,
        ))
    }

    /// Number of rounds of Part 1 of `Spread-Common-Value`:
    /// `⌈log_{3/2}((2n/5) / max(t, n/t))⌉` (at least 1).
    #[expect(
        clippy::float_arithmetic,
        reason = "the paper's broadcast length is a logarithm of configuration values: computed \
                  once at config time, never in round logic"
    )]
    pub fn scv_broadcast_rounds(&self) -> u64 {
        let t = self.t.max(1) as f64;
        let n = self.n as f64;
        let denom = t.max(n / t).max(1.0);
        let ratio = (0.4 * n / denom).max(1.0);
        (ratio.log(1.5).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rules() {
        assert!(SystemConfig::new(1, 0).is_err());
        assert!(SystemConfig::new(10, 10).is_err());
        let cfg = SystemConfig::new(100, 10).unwrap();
        assert!(cfg.require_few_crashes().is_ok());
        assert!(cfg.require_byzantine_minority().is_ok());
        let cfg = SystemConfig::new(100, 30).unwrap();
        assert!(cfg.require_few_crashes().is_err());
        assert!(cfg.require_byzantine_minority().is_ok());
        let cfg = SystemConfig::new(100, 60).unwrap();
        assert!(cfg.require_byzantine_minority().is_err());
    }

    #[test]
    fn little_count_is_five_t_clamped() {
        let cfg = SystemConfig::new(100, 10).unwrap();
        assert_eq!(cfg.little_count(), 50);
        let cfg = SystemConfig::new(100, 0).unwrap();
        assert_eq!(cfg.little_count(), 1);
        let cfg = SystemConfig::new(100, 90).unwrap();
        assert_eq!(cfg.little_count(), 100);
    }

    #[test]
    fn overlays_have_expected_sizes() {
        let cfg = SystemConfig::new(200, 20).unwrap().with_seed(7);
        assert_eq!(cfg.little_graph().num_vertices(), 100);
        assert_eq!(cfg.full_graph().num_vertices(), 200);
        assert_eq!(cfg.h_graph().num_vertices(), 200);
        assert!(cfg.scv_family().phases() >= 1);
        assert!(cfg.many_crashes_family().phases() >= 1);
        assert!(cfg.scv_broadcast_rounds() >= 1);
    }

    #[test]
    fn seeds_give_deterministic_overlays() {
        let a = SystemConfig::new(150, 12).unwrap().with_seed(3);
        let b = SystemConfig::new(150, 12).unwrap().with_seed(3);
        assert_eq!(*a.little_graph(), *b.little_graph());
        assert_eq!(*a.full_graph(), *b.full_graph());
    }

    #[test]
    fn alpha_and_broadcast_rounds() {
        let cfg = SystemConfig::new(1000, 100).unwrap();
        assert!((cfg.alpha() - 0.1).abs() < 1e-9);
        assert!(cfg.scv_broadcast_rounds() <= 2 * 10 + 4);
    }
}
