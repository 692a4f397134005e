//! Spectral estimates: the second eigenvalue and the Ramanujan property.
//!
//! For a `d`-regular graph with adjacency eigenvalues
//! `λ₁ ≥ λ₂ ≥ … ≥ λ_n` (so `λ₁ = d`), the paper works with
//! `λ = max(|λ₂|, |λ_n|)` and calls the graph *Ramanujan* when
//! `λ ≤ 2√(d−1)` (Section 3).  This module estimates `λ` by power iteration
//! on the adjacency operator with the all-ones direction deflated, which is
//! exact in the limit for regular graphs and a good estimate for the
//! near-regular graphs produced by [`crate::build::random_regular`].

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::graph::Graph;

/// Result of a spectral estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralEstimate {
    /// Estimated `λ = max(|λ₂|, |λ_n|)`.
    pub lambda: f64,
    /// Average degree of the graph (equals `d` for `d`-regular graphs).
    pub average_degree: f64,
    /// The Ramanujan bound `2√(d̄ − 1)` computed from the average degree.
    pub ramanujan_bound: f64,
}

impl SpectralEstimate {
    /// Whether the estimate satisfies the Ramanujan bound within `tolerance`
    /// (a small positive slack absorbs power-iteration error).
    pub fn is_ramanujan(&self, tolerance: f64) -> bool {
        self.lambda <= self.ramanujan_bound + tolerance
    }

    /// The spectral gap `d̄ − λ`, which lower-bounds twice the edge expansion
    /// via Cheeger's inequality (`h(G) ≥ (d − λ₂)/2`).
    pub fn spectral_gap(&self) -> f64 {
        self.average_degree - self.lambda
    }
}

/// Estimates `λ = max(|λ₂|, |λ_n|)` by power iteration with the uniform
/// vector deflated.
///
/// `iterations` in the low hundreds is plenty for the graph sizes used in the
/// experiments; the estimate is deterministic for a fixed `seed`.
///
/// Returns an estimate of zero for graphs with fewer than two vertices.
#[expect(
    clippy::indexing_slicing,
    reason = "the iterate is sized n alongside the graph it measures, and `w` is one of that \
              graph's vertices"
)]
pub fn second_eigenvalue(graph: &Graph, iterations: usize, seed: u64) -> SpectralEstimate {
    let n = graph.num_vertices();
    let average_degree = if n == 0 {
        0.0
    } else {
        2.0 * graph.num_edges() as f64 / n as f64
    };
    let ramanujan_bound = if average_degree > 1.0 {
        2.0 * (average_degree - 1.0).sqrt()
    } else {
        average_degree
    };
    if n < 2 {
        return SpectralEstimate {
            lambda: 0.0,
            average_degree,
            ramanujan_bound,
        };
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    deflate_uniform(&mut v);
    normalize(&mut v);

    let mut lambda = 0.0;
    for _ in 0..iterations.max(1) {
        let mut next = vec![0.0; n];
        for (u, next_u) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for w in graph.neighbors(u) {
                acc += v[w];
            }
            *next_u = acc;
        }
        deflate_uniform(&mut next);
        let norm = l2(&next);
        if norm < 1e-12 {
            lambda = 0.0;
            break;
        }
        lambda = norm;
        for x in &mut next {
            *x /= norm;
        }
        v = next;
    }

    SpectralEstimate {
        lambda,
        average_degree,
        ramanujan_bound,
    }
}

/// Whether the graph satisfies the Ramanujan bound `λ ≤ 2√(d−1)` up to a 2%
/// relative tolerance, using a default estimator configuration.
pub fn is_ramanujan(graph: &Graph) -> bool {
    let estimate = second_eigenvalue(graph, 200, 0xD1F7);
    estimate.is_ramanujan(0.02 * estimate.ramanujan_bound.max(1.0))
}

fn deflate_uniform(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

fn normalize(v: &mut [f64]) {
    let norm = l2(v);
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    #[test]
    fn complete_graph_lambda_is_one() {
        // K_n has eigenvalues n-1 and -1 (multiplicity n-1), so λ = 1.
        let g = build::complete(30);
        let est = second_eigenvalue(&g, 300, 1);
        assert!((est.lambda - 1.0).abs() < 0.05, "lambda = {}", est.lambda);
        assert!(est.is_ramanujan(0.05));
    }

    #[test]
    fn cycle_lambda_is_close_to_two() {
        // C_n has λ₂ = 2cos(2π/n) → 2, far above the Ramanujan bound for d=2.
        let g = build::cycle(100);
        let est = second_eigenvalue(&g, 500, 2);
        assert!(est.lambda > 1.9, "lambda = {}", est.lambda);
        assert!(est.spectral_gap() < 0.2);
    }

    #[test]
    fn random_regular_is_near_ramanujan() {
        let g = build::random_regular(300, 8, 5).unwrap();
        let est = second_eigenvalue(&g, 300, 3);
        // Ramanujan bound for d=8 is 2√7 ≈ 5.29; random regular graphs sit
        // close to it.  Allow generous slack — we only need a clear gap.
        assert!(est.lambda < 6.5, "lambda = {}", est.lambda);
        assert!(est.spectral_gap() > 1.0);
    }

    #[test]
    fn is_ramanujan_helper_accepts_complete_rejects_disconnected() {
        assert!(is_ramanujan(&build::complete(20)));
        // Two disjoint copies of K_10: λ₂ = 9 for a 9-regular graph, far above
        // the Ramanujan bound 2√8 ≈ 5.66.
        let clique = (0..10).flat_map(|u| (u + 1..10).map(move |v| (u, v)));
        let edges: Vec<_> = clique
            .flat_map(|(u, v)| [(u, v), (u + 10, v + 10)])
            .collect();
        let disconnected = Graph::from_edges(20, &edges).unwrap();
        assert!(!is_ramanujan(&disconnected));
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let est = second_eigenvalue(&Graph::from_edges(0, &[]).unwrap(), 10, 0);
        assert_eq!(est.lambda, 0.0);
        let est = second_eigenvalue(&Graph::from_edges(1, &[]).unwrap(), 10, 0);
        assert_eq!(est.lambda, 0.0);
    }
}
