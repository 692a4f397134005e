//! Constructions of overlay graphs.
//!
//! The paper uses constant-degree Ramanujan graphs as overlays (Section 3).
//! Explicit Ramanujan families (Lubotzky–Phillips–Sarnak) exist only for
//! special parameter pairs and the paper's degrees (for example `d = 5⁸`)
//! exceed any laptop-scale vertex count, so this module provides the
//! practical catalogue documented in `DESIGN.md`:
//!
//! * [`random_regular`] — seeded union-of-random-cycles construction whose
//!   measured spectral gap is near-Ramanujan with overwhelming probability;
//!   the experiment harness verifies `λ ≤ 2√(d−1)` explicitly.
//! * [`complete`], [`cycle`] — reference topologies: the complete graph is
//!   the degree-capped fallback when a sub-network is smaller than the
//!   requested degree, and the cycle is the non-expanding comparison point
//!   of the property and spectral tests.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::error::{OverlayError, OverlayResult};
use crate::graph::{check_vertex_count, Graph};

/// The complete graph `K_n`, stored implicitly (see [`Graph::complete`]).
pub fn complete(n: usize) -> Graph {
    Graph::complete(n)
}

/// The cycle `C_n`.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`.
#[expect(
    clippy::expect_used,
    reason = "each edge joins u < n to (u + 1) mod n, which is all `from_edges` checks besides n \
              itself; a cycle past u32::MAX vertices is a documented panic"
)]
pub fn cycle(n: usize) -> Graph {
    let edges: Vec<_> = if n >= 2 {
        (0..n).map(|u| (u, (u + 1) % n)).collect()
    } else {
        Vec::new()
    };
    Graph::from_edges(n, &edges).expect("a cycle's endpoints are in range")
}

/// A seeded random `d`-regular-style graph built as the union of `⌈d/2⌉`
/// random Hamiltonian cycles (plus a perfect matching for odd `d` and even
/// `n`).
///
/// The result is exactly `d`-regular when no two cycles share an edge; edge
/// collisions (rare for `d ≪ n`) lower individual degrees by at most the
/// number of collisions at that vertex.  Such graphs are expanders with
/// overwhelming probability and their measured second eigenvalue is close to
/// the Ramanujan bound `2√(d−1)`; the benchmark suite checks this.
///
/// Each cycle gives every vertex two endpoints and the matching at most
/// one, so every vertex's row is written straight into a slot of
/// `2·⌊d/2⌋ + d mod 2` entries, then sorted, deduplicated and slid down
/// in place: `O(n·d log d)`, no edge list, and the finished graph holds
/// one `u32` per endpoint.
///
/// # Errors
///
/// Returns [`OverlayError::InvalidParameters`] if `d >= n` or `d == 0` or
/// `n < 3`, and [`OverlayError::TooManyVertices`] if `n` exceeds
/// `u32::MAX`.
#[expect(
    clippy::indexing_slicing,
    reason = "`order` is a permutation of 0..n indexed modulo n and `chunks_exact(2)` yields \
              pairs, so every endpoint is below n; a vertex gets two endpoints per cycle and at \
              most one from the matching, which is its slot's width, and `fill` has n + 1 entries"
)]
pub fn random_regular(n: usize, d: usize, seed: u64) -> OverlayResult<Graph> {
    if n < 3 {
        return Err(OverlayError::InvalidParameters(format!(
            "need at least 3 vertices, got {n}"
        )));
    }
    if d == 0 || d >= n {
        return Err(OverlayError::InvalidParameters(format!(
            "degree {d} must satisfy 1 <= d < n = {n}"
        )));
    }
    check_vertex_count(n)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let width = 2 * (d / 2) + d % 2;
    let mut rows = vec![0; n * width];
    // `fill[v + 1]` counts the endpoints written into v's slot so far.
    let mut fill = vec![0; n + 1];
    let mut link = |u: u32, v: u32| {
        for (from, to) in [(u, v), (v, u)] {
            let from = from as usize;
            rows[from * width + fill[from + 1]] = to;
            fill[from + 1] += 1;
        }
    };
    // Shuffling ids as `u32` draws what shuffling them as `usize` does: the
    // draws depend on the slice length alone.
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut shuffle = |order: &mut Vec<u32>| {
        order.clear();
        order.extend(0..n as u32);
        order.shuffle(&mut rng);
    };
    for _ in 0..d / 2 {
        shuffle(&mut order);
        for i in 0..n {
            link(order[i], order[(i + 1) % n]);
        }
    }
    if d % 2 == 1 {
        // Add a random perfect matching (drop one vertex if n is odd).
        shuffle(&mut order);
        for pair in order.chunks_exact(2) {
            link(pair[0], pair[1]);
        }
    }
    Ok(Graph::compact(n, rows, fill, Some(width)))
}

/// The degree-capped overlay the protocols actually use: a seeded
/// random-regular graph of degree `min(d, n-1)`, falling back to the
/// complete graph when the requested degree cannot be realised on `n`
/// vertices.
///
/// This is the substitution documented in `DESIGN.md`: the paper's Ramanujan
/// degrees (for example `5⁸`) are far larger than any practical sub-network,
/// in which case the complete graph trivially provides the expansion and
/// compactness the algorithms rely on.
pub fn capped_regular(n: usize, d: usize, seed: u64) -> Graph {
    if n <= 2 || d + 1 >= n {
        return complete(n);
    }
    random_regular(n, d, seed).unwrap_or_else(|_| complete(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_has_all_edges() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        assert!(g.is_regular(4));
    }

    #[test]
    fn cycle_is_two_regular() {
        let g = cycle(7);
        assert!(g.is_regular(2));
        assert!(g.is_connected(None));
    }

    #[test]
    fn random_regular_is_regular_and_deterministic() {
        let g = random_regular(100, 6, 7).unwrap();
        assert_eq!(g.max_degree(), 6);
        assert!(g.min_degree() >= 4, "collisions are rare and bounded");
        assert!(g.is_connected(None));
        let h = random_regular(100, 6, 7).unwrap();
        assert_eq!(g, h, "same seed, same graph");
        let k = random_regular(100, 6, 8).unwrap();
        assert_ne!(g, k, "different seed, different graph");
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        assert!(random_regular(2, 1, 0).is_err());
        assert!(random_regular(10, 0, 0).is_err());
        assert!(random_regular(10, 10, 0).is_err());
    }

    #[test]
    fn capped_regular_falls_back_to_complete() {
        let g = capped_regular(6, 1000, 3);
        assert_eq!(g.num_edges(), 15, "complete graph fallback");
        let g = capped_regular(200, 8, 3);
        assert_eq!(g.max_degree(), 8);
    }
}
