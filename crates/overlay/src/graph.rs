//! The core undirected simple-graph type used for overlay networks.

#![expect(
    clippy::indexing_slicing,
    reason = "the adjacency table has one list per vertex and `from_edges` / `add_edge` refuse an \
              endpoint >= n, so every stored neighbour indexes it; per-vertex scratch vectors \
              are sized n beside it, and a caller's vertex out of range is a documented panic"
)]

use std::collections::VecDeque;

use crate::error::{OverlayError, OverlayResult};

/// Index of a vertex in an overlay graph.
///
/// Overlay graphs are independent of the simulator's node identities; the
/// protocols map overlay vertices onto network nodes (for example, vertex `i`
/// of the "little nodes" overlay is the node with the `i`-th smallest name).
pub type VertexId = usize;

/// An undirected simple graph stored as sorted adjacency lists.
///
/// This is the representation of the paper's overlay networks: nodes are
/// vertices and messages are only sent along edges (Section 2, "Overlay
/// graphs").
///
/// # Examples
///
/// ```
/// use dft_overlay::Graph;
///
/// let mut g = Graph::empty(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<VertexId>>,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Creates a graph from an explicit edge list.
    ///
    /// Self-loops and duplicate edges are ignored.  Adjacency lists are
    /// built in bulk — pushed unsorted, then sorted and deduplicated once
    /// per vertex — so construction is `O(E log E)` instead of the
    /// `O(E · degree)` that repeated [`Graph::add_edge`] sorted insertions
    /// cost.  The result is identical to inserting the edges one at a time
    /// (same edge set, same sorted lists); the bulk path is what keeps
    /// paper-scale high-degree overlays (the inquiry families' near-complete
    /// graphs at `n = 4 · 10^3`) affordable to build.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::VertexOutOfRange`] if an endpoint is ≥ `n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> OverlayResult<Self> {
        let mut adjacency: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(OverlayError::VertexOutOfRange {
                    vertex: u.max(v),
                    n,
                });
            }
            if u == v {
                continue;
            }
            adjacency[u].push(v);
            adjacency[v].push(u);
        }
        let mut endpoint_count = 0;
        for adj in &mut adjacency {
            adj.sort_unstable();
            adj.dedup();
            endpoint_count += adj.len();
        }
        Ok(Graph {
            adjacency,
            num_edges: endpoint_count / 2,
        })
    }

    /// The complete graph `K_n`, built directly (each adjacency list is
    /// `0..n` minus the vertex itself, already sorted) — `O(n²)`, versus the
    /// cubic cost of inserting the edges one at a time.
    pub fn complete(n: usize) -> Self {
        let adjacency: Vec<Vec<VertexId>> = (0..n)
            .map(|u| (0..n).filter(|&v| v != u).collect())
            .collect();
        Graph {
            adjacency,
            num_edges: if n < 2 { 0 } else { n * (n - 1) / 2 },
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds the undirected edge `{u, v}`; self-loops and duplicates are
    /// ignored.  Returns `true` if the edge was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        assert!(
            u < n && v < n,
            "edge ({u},{v}) out of range for {n} vertices"
        );
        if u == v {
            return false;
        }
        // Adjacency lists are kept sorted, so the binary search doubles as
        // the membership test: `Ok` means the edge already exists.
        let pos_u = match self.adjacency[u].binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        let pos_v = match self.adjacency[v].binary_search(&u) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        self.adjacency[u].insert(pos_u, v);
        self.adjacency[v].insert(pos_v, u);
        self.num_edges += 1;
        true
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adjacency
            .get(u)
            .is_some_and(|adj| adj.binary_search(&v).is_ok())
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[v]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v].len()
    }

    /// Maximum vertex degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum vertex degree (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Whether every vertex has exactly degree `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.adjacency.iter().all(|adj| adj.len() == d)
    }

    /// Iterates over all edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, adj)| adj.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Number of edges with both endpoints inside `set` — the paper's
    /// `vol(S)` (Section 3).
    pub fn volume(&self, set: &[bool]) -> usize {
        self.edges()
            .filter(|&(u, v)| set.get(u) == Some(&true) && set.get(v) == Some(&true))
            .count()
    }

    /// Number of edges connecting `a` with `b` — the paper's `e(A, B)`.
    ///
    /// The sets are membership masks over the vertex range; they need not be
    /// disjoint, but shared vertices contribute nothing (self-pairs are not
    /// edges).
    pub fn edges_between(&self, a: &[bool], b: &[bool]) -> usize {
        self.edges()
            .filter(|&(u, v)| {
                let ua = a.get(u) == Some(&true);
                let ub = b.get(u) == Some(&true);
                let va = a.get(v) == Some(&true);
                let vb = b.get(v) == Some(&true);
                (ua && vb) || (va && ub)
            })
            .count()
    }

    /// Size of the edge boundary `∂W`: edges with exactly one endpoint in `w`.
    pub fn edge_boundary(&self, w: &[bool]) -> usize {
        self.edges()
            .filter(|&(u, v)| (w.get(u) == Some(&true)) != (w.get(v) == Some(&true)))
            .count()
    }

    /// Degree of `v` counting only neighbours inside `set`.
    pub fn degree_within(&self, v: VertexId, set: &[bool]) -> usize {
        self.adjacency[v]
            .iter()
            .filter(|&&u| set.get(u) == Some(&true))
            .count()
    }

    /// Breadth-first distances from `source`, `None` for unreachable
    /// vertices.  Only vertices for which `allowed` is true are traversed
    /// (pass `None` to allow all).
    #[expect(
        clippy::expect_used,
        reason = "BFS pushes a vertex only after recording its distance"
    )]
    pub fn bfs_distances(&self, source: VertexId, allowed: Option<&[bool]>) -> Vec<Option<usize>> {
        let n = self.num_vertices();
        let mut dist = vec![None; n];
        let permitted = |v: VertexId| allowed.is_none_or(|a| a.get(v) == Some(&true));
        if source >= n || !permitted(source) {
            return dist;
        }
        dist[source] = Some(0);
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued vertices have distances");
            for &v in &self.adjacency[u] {
                if dist[v].is_none() && permitted(v) {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The generalized neighbourhood `N^i_G(W)`: all vertices at distance at
    /// most `radius` from some vertex of `sources` (Section 2).
    pub fn generalized_neighborhood(&self, sources: &[VertexId], radius: usize) -> Vec<bool> {
        let n = self.num_vertices();
        let mut reached = vec![false; n];
        let mut frontier: Vec<VertexId> = Vec::new();
        for &s in sources {
            if s < n && !reached[s] {
                reached[s] = true;
                frontier.push(s);
            }
        }
        for _ in 0..radius {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &self.adjacency[u] {
                    if !reached[v] {
                        reached[v] = true;
                        next.push(v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        reached
    }

    /// Connected components of the subgraph induced by `allowed` (all
    /// vertices when `None`); returns one vertex list per component.
    pub fn connected_components(&self, allowed: Option<&[bool]>) -> Vec<Vec<VertexId>> {
        let n = self.num_vertices();
        let permitted = |v: VertexId| allowed.is_none_or(|a| a.get(v) == Some(&true));
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] || !permitted(start) {
                continue;
            }
            let mut component = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(u) = queue.pop_front() {
                component.push(u);
                for &v in &self.adjacency[u] {
                    if !seen[v] && permitted(v) {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
            components.push(component);
        }
        components
    }

    /// Whether the subgraph induced by `allowed` is connected (an empty
    /// induced subgraph counts as connected).
    pub fn is_connected(&self, allowed: Option<&[bool]>) -> bool {
        self.connected_components(allowed).len() <= 1
    }

    /// The subgraph induced by the vertex mask `keep`, preserving vertex
    /// indices (vertices outside the mask become isolated).
    pub fn induced_subgraph(&self, keep: &[bool]) -> Graph {
        let mut sub = Graph::empty(self.num_vertices());
        for (u, v) in self.edges() {
            if keep.get(u) == Some(&true) && keep.get(v) == Some(&true) {
                sub.add_edge(u, v);
            }
        }
        sub
    }

    /// Builds a membership mask from a vertex list.
    pub fn mask(&self, vertices: &[VertexId]) -> Vec<bool> {
        let mut mask = vec![false; self.num_vertices()];
        for &v in vertices {
            if v < mask.len() {
                mask[v] = true;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn add_edge_deduplicates_and_ignores_loops() {
        let mut g = Graph::empty(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate ignored");
        assert!(!g.add_edge(2, 2), "self-loop ignored");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            OverlayError::VertexOutOfRange { vertex: 5, n: 2 }
        ));
    }

    #[test]
    fn degrees_and_regularity() {
        let g = path(4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert!(!g.is_regular(2));
        let cycle = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(cycle.is_regular(2));
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = path(5);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn volume_boundary_and_between() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let left = g.mask(&[0, 1, 2]);
        let right = g.mask(&[3, 4, 5]);
        assert_eq!(g.volume(&left), 2);
        assert_eq!(g.edge_boundary(&left), 2);
        assert_eq!(g.edges_between(&left, &right), 2);
        assert_eq!(g.degree_within(1, &left), 2);
        assert_eq!(g.degree_within(2, &left), 1);
    }

    #[test]
    fn bfs_and_neighborhoods() {
        let g = path(6);
        let dist = g.bfs_distances(0, None);
        assert_eq!(dist[5], Some(5));
        let blocked = {
            let mut mask = vec![true; 6];
            mask[3] = false;
            mask
        };
        let dist = g.bfs_distances(0, Some(&blocked));
        assert_eq!(dist[2], Some(2));
        assert_eq!(dist[4], None, "path cut at the blocked vertex");
        let hood = g.generalized_neighborhood(&[0], 2);
        assert_eq!(hood.iter().filter(|&&b| b).count(), 3);
    }

    #[test]
    fn components_and_connectivity() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let comps = g.connected_components(None);
        assert_eq!(comps.len(), 3);
        assert!(!g.is_connected(None));
        let mask = g.mask(&[0, 1]);
        assert!(g.is_connected(Some(&mask)));
    }

    #[test]
    fn induced_subgraph_preserves_indices() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let keep = g.mask(&[1, 2, 3]);
        let sub = g.induced_subgraph(&keep);
        assert_eq!(sub.num_vertices(), 4);
        assert!(!sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(sub.has_edge(2, 3));
    }
}
