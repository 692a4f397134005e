//! Fault-tolerance properties of overlay graphs (Section 3 of the paper).
//!
//! * **Survival subsets and compactness** (Theorem 2) — given a set `B` of
//!   operational vertices, the constructive `F`-operator from the proof
//!   iteratively discards vertices with fewer than `δ` neighbours among the
//!   survivors; the fixed point is a `δ`-survival subset.  Local probing
//!   (Proposition 1) guarantees that every member of such a subset survives.
//! * **Dense neighbourhoods** (Theorem 3) — the `(γ, δ)`-dense-neighbourhood
//!   of a vertex characterises exactly which vertices survive local probing.
//! * **Expansion** (Theorem 1, Theorem 4) — any two large enough vertex sets
//!   are connected by an edge; checked here both exhaustively (small sets)
//!   and by seeded sampling.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::graph::{Graph, VertexId};

/// Computes the maximal `δ`-survival subset of `candidate` in `graph`:
/// the largest `C ⊆ candidate` such that every vertex of `C` has at least
/// `delta` neighbours inside `C`.
///
/// This is the fixed point of the paper's `F_B` operator (proof of
/// Theorem 2), computed by repeatedly peeling vertices of in-set degree
/// below `delta`.  The result may be empty.
#[expect(
    clippy::indexing_slicing,
    reason = "`inside` and `degree` are sized n, and every index is a vertex of the validated \
              Graph (0..n or one of its adjacency entries)"
)]
pub fn survival_subset(graph: &Graph, candidate: &[bool], delta: usize) -> Vec<bool> {
    let n = graph.num_vertices();
    let mut inside: Vec<bool> = (0..n).map(|v| candidate.get(v) == Some(&true)).collect();
    let mut degree: Vec<usize> = (0..n)
        .map(|v| {
            if inside[v] {
                graph.degree_within(v, &inside)
            } else {
                0
            }
        })
        .collect();
    let mut queue: Vec<VertexId> = (0..n).filter(|&v| inside[v] && degree[v] < delta).collect();
    while let Some(v) = queue.pop() {
        if !inside[v] {
            continue;
        }
        inside[v] = false;
        for u in graph.neighbors(v) {
            if inside[u] {
                degree[u] -= 1;
                if degree[u] < delta {
                    queue.push(u);
                }
            }
        }
    }
    inside
}

/// Whether `subset` is a `δ`-survival subset for `candidate`: it is contained
/// in `candidate` and every member has at least `delta` neighbours inside
/// `subset`.
pub fn is_survival_subset(
    graph: &Graph,
    candidate: &[bool],
    subset: &[bool],
    delta: usize,
) -> bool {
    let n = graph.num_vertices();
    (0..n).all(|v| {
        if subset.get(v) != Some(&true) {
            return true;
        }
        candidate.get(v) == Some(&true) && graph.degree_within(v, subset) >= delta
    })
}

/// Checks `(ℓ, ε, δ)`-compactness of a graph on a specific candidate set:
/// returns the survival subset if it contains at least `ε·ℓ` vertices, and
/// `None` otherwise.
///
/// Theorem 2 states that Ramanujan graphs are `(ℓ(n,d), 3/4, δ(d))`-compact:
/// *every* candidate set of at least `ℓ` vertices admits such a subset; the
/// experiment harness samples candidate sets and applies this check.
pub fn compact_survival_subset(
    graph: &Graph,
    candidate: &[bool],
    ell: usize,
    epsilon: f64,
    delta: usize,
) -> Option<Vec<bool>> {
    let members = candidate.iter().filter(|&&b| b).count();
    if members < ell {
        return None;
    }
    let subset = survival_subset(graph, candidate, delta);
    let survivors = subset.iter().filter(|&&b| b).count();
    if survivors as f64 + 1e-9 >= epsilon * ell as f64 {
        Some(subset)
    } else {
        None
    }
}

/// Computes the maximal `(γ, δ)`-dense neighbourhood of `vertex` inside the
/// vertex set `within`: the largest `S ⊆ N^γ(vertex) ∩ within` such that
/// every vertex of `S ∩ N^{γ-1}(vertex)` has at least `delta` neighbours in
/// `S`.
///
/// Returns the membership mask of `S`.  By Proposition 1, `vertex` survives
/// local probing on the subgraph induced by `within` if and only if it
/// belongs to such a set (and, being within distance `γ−1 ≥ 0` of itself,
/// has `δ` neighbours in it).
#[expect(
    clippy::indexing_slicing,
    reason = "`inside` and `dist` are sized n, and every index ranges over the validated Graph's \
              0..n"
)]
pub fn dense_neighborhood(
    graph: &Graph,
    vertex: VertexId,
    gamma: usize,
    delta: usize,
    within: &[bool],
) -> Vec<bool> {
    let n = graph.num_vertices();
    if vertex >= n || within.get(vertex) != Some(&true) || gamma == 0 {
        return vec![false; n];
    }
    let dist = graph.bfs_distances(vertex, Some(within));
    let mut inside: Vec<bool> = (0..n)
        .map(|v| dist[v].is_some_and(|d| d <= gamma))
        .collect();
    // Iteratively remove inner vertices (distance ≤ γ−1) with fewer than δ
    // neighbours inside the current set.
    loop {
        let mut removed = false;
        for v in 0..n {
            if inside[v]
                && dist[v].is_some_and(|d| d < gamma)
                && graph.degree_within(v, &inside) < delta
            {
                inside[v] = false;
                removed = true;
            }
        }
        if !removed {
            break;
        }
    }
    inside
}

/// Whether `vertex` has a `(γ, δ)`-dense neighbourhood inside `within` — the
/// condition under which it survives local probing (Proposition 1).
pub fn has_dense_neighborhood(
    graph: &Graph,
    vertex: VertexId,
    gamma: usize,
    delta: usize,
    within: &[bool],
) -> bool {
    let hood = dense_neighborhood(graph, vertex, gamma, delta, within);
    hood.get(vertex) == Some(&true) && graph.degree_within(vertex, &hood) >= delta
}

/// The edge-expansion ratio of a specific vertex set: `|∂W| / |W|`.
///
/// Returns `f64::INFINITY` for an empty set.
pub fn expansion_of_set(graph: &Graph, w: &[bool]) -> f64 {
    let size = w.iter().filter(|&&b| b).count();
    if size == 0 {
        return f64::INFINITY;
    }
    graph.edge_boundary(w) as f64 / size as f64
}

/// Samples `samples` pairs of disjoint vertex sets of size `ell` and reports
/// whether every sampled pair is connected by an edge — a randomized check of
/// the paper's `ℓ`-expansion property (Theorem 1).  Deterministic for a fixed
/// seed.
#[expect(
    clippy::indexing_slicing,
    reason = "`vertices` holds n entries and the early return above left 2 * ell <= n"
)]
pub fn sampled_expansion_check(graph: &Graph, ell: usize, samples: usize, seed: u64) -> bool {
    let n = graph.num_vertices();
    if 2 * ell > n || ell == 0 {
        return true;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vertices: Vec<VertexId> = (0..n).collect();
    for _ in 0..samples {
        vertices.shuffle(&mut rng);
        let a = graph.mask(&vertices[0..ell]);
        let b = graph.mask(&vertices[ell..2 * ell]);
        if graph.edges_between(&a, &b) == 0 {
            return false;
        }
    }
    true
}

/// Verifies the Expander Mixing Lemma inequality
/// `|e(A,B) − d·|A|·|B|/n| ≤ λ √(|A|·|B|)` for a specific pair of sets,
/// given a bound `lambda` on the second eigenvalue.
pub fn expander_mixing_holds(graph: &Graph, a: &[bool], b: &[bool], lambda: f64) -> bool {
    let n = graph.num_vertices();
    if n == 0 {
        return true;
    }
    let d = 2.0 * graph.num_edges() as f64 / n as f64;
    let size_a = a.iter().filter(|&&x| x).count() as f64;
    let size_b = b.iter().filter(|&&x| x).count() as f64;
    let e_ab = graph.edges_between(a, b) as f64;
    (e_ab - d * size_a * size_b / n as f64).abs() <= lambda * (size_a * size_b).sqrt() + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    #[test]
    fn survival_subset_peels_low_degree_vertices() {
        // A triangle with a pendant vertex: with δ = 2 the pendant (and only
        // the pendant) is peeled.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let all = vec![true; 4];
        let surv = survival_subset(&g, &all, 2);
        assert_eq!(surv, vec![true, true, true, false]);
        assert!(is_survival_subset(&g, &all, &surv, 2));
    }

    #[test]
    fn survival_subset_can_be_empty() {
        let g = build::cycle(6);
        let all = vec![true; 6];
        let surv = survival_subset(&g, &all, 3);
        assert!(surv.iter().all(|&b| !b), "cycle has no 3-core");
    }

    #[test]
    fn survival_subset_respects_candidate_restriction() {
        let g = build::complete(6);
        let candidate = g.mask(&[0, 1, 2]);
        let surv = survival_subset(&g, &candidate, 2);
        assert_eq!(surv.iter().filter(|&&b| b).count(), 3);
        assert!(is_survival_subset(&g, &candidate, &surv, 2));
        // δ larger than the candidate's internal degree empties it.
        let surv = survival_subset(&g, &candidate, 3);
        assert!(surv.iter().all(|&b| !b));
    }

    #[test]
    fn compactness_on_complete_graph() {
        // K_20 with any 10-vertex candidate set: every vertex keeps 9 in-set
        // neighbours, so the survival subset is the whole candidate set.
        let g = build::complete(20);
        let candidate = g.mask(&(0..10).collect::<Vec<_>>());
        let subset = compact_survival_subset(&g, &candidate, 10, 0.75, 5).unwrap();
        assert_eq!(subset.iter().filter(|&&b| b).count(), 10);
        // Candidate smaller than ℓ yields None.
        assert!(compact_survival_subset(&g, &candidate, 11, 0.75, 5).is_none());
    }

    #[test]
    fn dense_neighborhood_on_complete_graph_is_everything() {
        let g = build::complete(12);
        let all = vec![true; 12];
        assert!(has_dense_neighborhood(&g, 0, 2, 5, &all));
        let hood = dense_neighborhood(&g, 0, 2, 5, &all);
        assert_eq!(hood.iter().filter(|&&b| b).count(), 12);
    }

    #[test]
    fn dense_neighborhood_fails_for_high_delta_on_sparse_graph() {
        let g = build::cycle(12);
        let all = vec![true; 12];
        assert!(has_dense_neighborhood(&g, 0, 3, 2, &all));
        assert!(!has_dense_neighborhood(&g, 0, 3, 3, &all));
    }

    #[test]
    fn dense_neighborhood_excluded_vertex_is_empty() {
        let g = build::complete(8);
        let mut within = vec![true; 8];
        within[0] = false;
        assert!(!has_dense_neighborhood(&g, 0, 2, 3, &within));
    }

    #[test]
    fn expansion_checks_on_expander_and_edgeless_graph() {
        let g = build::random_regular(200, 8, 9).unwrap();
        assert!(sampled_expansion_check(&g, 40, 50, 1));
        // A graph with no edges at all cannot connect any pair of sets.
        let edgeless = Graph::from_edges(40, &[]).unwrap();
        assert!(!sampled_expansion_check(&edgeless, 10, 5, 2));
        // Degenerate parameters are vacuously expanding.
        assert!(sampled_expansion_check(&edgeless, 0, 5, 2));
        assert!(sampled_expansion_check(&edgeless, 30, 5, 2));
    }

    #[test]
    fn expansion_of_set_values() {
        let g = build::cycle(8);
        let half = g.mask(&[0, 1, 2, 3]);
        assert!((expansion_of_set(&g, &half) - 0.5).abs() < 1e-9);
        assert_eq!(expansion_of_set(&g, &[false; 8]), f64::INFINITY);
    }

    #[test]
    fn expander_mixing_lemma_holds_on_random_regular() {
        let g = build::random_regular(300, 10, 17).unwrap();
        let est = crate::spectral::second_eigenvalue(&g, 200, 5);
        let a = g.mask(&(0..60).collect::<Vec<_>>());
        let b = g.mask(&(60..150).collect::<Vec<_>>());
        assert!(expander_mixing_holds(&g, &a, &b, est.lambda * 1.2 + 1.0));
    }
}
