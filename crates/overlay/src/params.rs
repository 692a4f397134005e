//! The paper's overlay parameter formulas and their practical scaling.
//!
//! Section 3 defines, for a `d`-regular Ramanujan graph on `n` vertices,
//!
//! * `ℓ(n, d) = 4 n d^{-1/8}` — the expansion/compactness threshold,
//! * `δ(d) = ½ (d^{7/8} − d^{5/8})` — the survival-subset degree,
//!
//! and the algorithms pick `d` so that `ℓ` matches the number of non-faulty
//! vertices they need to keep connected (for example `d = 5⁸` in
//! `Almost-Everywhere-Agreement`, giving `ℓ = 4t` on the `5t` little nodes).
//! Those degrees exceed any laptop-scale sub-network (capped at the
//! sub-network size they make every overlay complete), so the formulas stand
//! here as the paper states them, with its own examples as tests, and
//! [`OverlayParams::practical`] is the scaling the protocols run: it
//! preserves the *structure* (a constant-degree expander plus the peeling
//! threshold `δ` and probing radius `γ`) at sizes where the simulation can
//! actually run.  The substitution is documented in `DESIGN.md` and
//! evaluated in experiment E11.

/// `ℓ(n, d) = 4 n d^{-1/8}`, the minimum set size for which expansion and
/// compactness of a Ramanujan graph are guaranteed (Section 3).
pub fn ell(n: usize, d: usize) -> f64 {
    4.0 * n as f64 * (d as f64).powf(-1.0 / 8.0)
}

/// `δ(d) = ½ (d^{7/8} − d^{5/8})`, the survival-subset degree threshold used
/// by local probing (Section 3).
pub fn delta(d: usize) -> f64 {
    0.5 * ((d as f64).powf(7.0 / 8.0) - (d as f64).powf(5.0 / 8.0))
}

/// The paper's degree choice for `Many-Crashes-Consensus`:
/// `d(α) = (4 / (1 − α))⁸` where `α = t/n` (Section 4.4).
pub fn many_crashes_degree(alpha: f64) -> f64 {
    (4.0 / (1.0 - alpha)).powi(8)
}

/// The paper's probing radius `γ(m) = 2 + ⌈lg m⌉` for a sub-network of `m`
/// vertices (Theorem 3 and the pseudocode of Sections 4–5).
pub fn probing_radius(m: usize) -> usize {
    2 + (m.max(1) as f64).log2().ceil() as usize
}

/// Parameters of one overlay instance: the graph degree, the local-probing
/// radius `γ` and the survival threshold `δ`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlayParams {
    /// Vertex degree of the overlay graph (capped at `m − 1` by the
    /// constructions).
    pub degree: usize,
    /// Local-probing duration / neighbourhood radius `γ`.
    pub gamma: usize,
    /// Survival-subset degree threshold `δ`.
    pub delta: usize,
}

impl OverlayParams {
    /// A laptop-scale configuration for a sub-network of `m` vertices
    /// tolerating up to `faults` crashes among them.
    ///
    /// The degree is chosen so the expander retains a large connected core
    /// after removing `faults` vertices (empirically, degree
    /// `max(8, ⌈4·faults/m·degree-margin⌉)` suffices; we use a simple rule
    /// `clamp(8 + 8·faults·8/m, 8, m−1)`), `γ` keeps the paper's
    /// `2 + ⌈lg m⌉`, and `δ` is a small constant fraction of the degree so
    /// that peeling under `faults` crashes leaves most of the graph intact.
    pub fn practical(m: usize, faults: usize) -> Self {
        if m <= 2 {
            return OverlayParams {
                degree: m.saturating_sub(1).max(1),
                gamma: 1,
                delta: 1,
            };
        }
        let fault_fraction = faults as f64 / m as f64;
        let degree = ((8.0 + 64.0 * fault_fraction).ceil() as usize)
            .min(m - 1)
            .max(1);
        let delta = ((degree as f64 * 0.25).floor() as usize)
            .clamp(1, degree)
            .max(1);
        OverlayParams {
            degree,
            gamma: probing_radius(m),
            delta,
        }
    }

    /// Duration of one local-probing instance in rounds.
    pub fn probing_rounds(&self) -> u64 {
        self.gamma as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ell_matches_paper_examples() {
        // For the little-node graph G(5t, 5^8): ℓ = 4·5t·(5^8)^{-1/8} = 4t.
        let t = 100usize;
        let value = ell(5 * t, 5usize.pow(8));
        assert!((value - 4.0 * t as f64).abs() < 1e-6, "ell = {value}");
    }

    #[test]
    fn many_crashes_degree_matches_paper_example() {
        // ℓ(n, d(α)) should equal (1 − α)·n.
        let n = 1000usize;
        let alpha = 0.5;
        let d = many_crashes_degree(alpha);
        let value = 4.0 * n as f64 * d.powf(-1.0 / 8.0);
        assert!((value - (1.0 - alpha) * n as f64).abs() < 1e-6);
    }

    #[test]
    fn delta_is_positive_and_growing() {
        assert!(delta(64) > 0.0);
        assert!(delta(256) > delta(64));
    }

    #[test]
    fn probing_radius_is_two_plus_log() {
        assert_eq!(probing_radius(1), 2);
        assert_eq!(probing_radius(8), 5);
        assert_eq!(probing_radius(1000), 12);
    }

    #[test]
    fn practical_params_are_runnable() {
        let p = OverlayParams::practical(500, 90);
        assert!(p.degree >= 8 && p.degree < 500);
        assert!(p.delta >= 2 && p.delta <= p.degree);
        assert_eq!(p.gamma, probing_radius(500));
        let tiny = OverlayParams::practical(2, 0);
        assert_eq!(tiny.degree, 1);
        // Small sub-networks (e.g. 5 little nodes when t = 1) must still
        // produce a feasible degree below the vertex count.
        let small = OverlayParams::practical(5, 1);
        assert!(small.degree >= 1 && small.degree < 5);
        assert!(small.delta >= 1 && small.delta <= small.degree);
    }

    #[test]
    fn practical_degree_grows_with_fault_fraction() {
        let light = OverlayParams::practical(1000, 10);
        let heavy = OverlayParams::practical(1000, 190);
        assert!(heavy.degree > light.degree);
    }
}
