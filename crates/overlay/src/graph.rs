//! The core undirected simple-graph type used for overlay networks.

#![expect(
    clippy::indexing_slicing,
    reason = "a row graph's offsets hold n + 1 entries and every stored neighbour is below n (the \
              builders refuse any other endpoint), so each row and per-vertex scratch slot \
              indexes in bounds; a caller's vertex out of range is a documented panic"
)]

use std::collections::VecDeque;
use std::iter::FusedIterator;
use std::ops::Range;

use crate::error::{OverlayError, OverlayResult};

/// Index of a vertex in an overlay graph.
///
/// Overlay graphs are independent of the simulator's node identities; the
/// protocols map overlay vertices onto network nodes (for example, vertex `i`
/// of the "little nodes" overlay is the node with the `i`-th smallest name).
pub type VertexId = usize;

/// An undirected simple graph with sorted neighbour rows.
///
/// This is the representation of the paper's overlay networks: nodes are
/// vertices and messages are only sent along edges (Section 2, "Overlay
/// graphs").  A graph is stored one of two ways, invisible to its readers:
///
/// * as one compressed-sparse-row adjacency: `n + 1` row offsets into a
///   single `Vec<u32>` of neighbours, each row sorted and free of
///   duplicates, so an explicit graph holds at most `u32::MAX` vertices;
/// * as the implicit complete graph `K_n`, which stores nothing: vertex
///   `v`'s row is `0..v` then `v + 1..n`.  The degree-capped overlays fall
///   back to it (see [`crate::build::capped_regular`]).
///
/// Equality is by content: an implicit `K_n` equals an explicit one.
///
/// # Examples
///
/// ```
/// use dft_overlay::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1).collect::<Vec<_>>(), [0, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    num_edges: usize,
    adjacency: Adjacency,
}

#[derive(Clone, Debug)]
enum Adjacency {
    /// Row `v` is `targets[offsets[v]..offsets[v + 1]]`.
    Rows {
        offsets: Vec<usize>,
        targets: Vec<u32>,
    },
    /// Every vertex is adjacent to every other.
    Complete,
}

impl Graph {
    /// Creates a graph from an explicit edge list.
    ///
    /// Self-loops and duplicate edges are ignored.  The rows are built in
    /// bulk: each vertex's endpoints are counted, written into its row and
    /// the row sorted and deduplicated once, `O(n + E log E)` in all.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::TooManyVertices`] if `n` exceeds `u32::MAX`
    /// (before anything is allocated), and
    /// [`OverlayError::VertexOutOfRange`] if an endpoint is ≥ `n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> OverlayResult<Self> {
        check_vertex_count(n)?;
        if let Some(&(u, v)) = edges.iter().find(|&&(u, v)| u >= n || v >= n) {
            return Err(OverlayError::VertexOutOfRange {
                vertex: u.max(v),
                n,
            });
        }
        let links = || edges.iter().filter(|(u, v)| u != v);
        // Degrees, shifted one up: `offsets[v + 1]` counts v's endpoints...
        let mut offsets = vec![0; n + 1];
        for &(u, v) in links() {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        // ...then, as prefix sums, where row v starts: v's write cursor, which
        // each endpoint written moves one on, so a filled row v ends at
        // `offsets[v + 1]`.
        let mut start = 0;
        for slot in offsets.iter_mut().skip(1) {
            (start, *slot) = (start + *slot, start);
        }
        let mut targets = vec![0; start];
        for &(u, v) in links() {
            for (from, to) in [(u, v), (v, u)] {
                targets[offsets[from + 1]] = vertex_id(to);
                offsets[from + 1] += 1;
            }
        }
        Ok(Graph::compact(n, targets, offsets, None))
    }

    /// Builds a graph from rows filled in place, sorting, deduplicating and
    /// sliding each row down over the gaps before it.
    ///
    /// On entry `offsets[v + 1]` is where row `v` ends, its rows packed end
    /// to end (`stride` `None`), or how many endpoints row `v` holds at the
    /// start of its `stride`-wide slot `v · stride` (`Some(stride)`).  The
    /// endpoints are below `n` and never `v` itself, and each edge's two
    /// endpoints are both written.  On return `offsets` are the rows'
    /// offsets and `targets` holds the rows and nothing else.
    pub(crate) fn compact(
        n: usize,
        mut targets: Vec<u32>,
        mut offsets: Vec<usize>,
        stride: Option<usize>,
    ) -> Graph {
        let mut end = 0;
        let mut packed = 0;
        for v in 0..n {
            let entry = offsets[v + 1];
            let row = match stride {
                Some(stride) => v * stride..v * stride + entry,
                None => packed..entry,
            };
            packed = row.end;
            let start = row.start;
            let row = &mut targets[row];
            row.sort_unstable();
            let mut kept = 0;
            for i in 0..row.len() {
                if kept == 0 || row[kept - 1] != row[i] {
                    row[kept] = row[i];
                    kept += 1;
                }
            }
            targets.copy_within(start..start + kept, end);
            end += kept;
            offsets[v + 1] = end;
        }
        targets.truncate(end);
        targets.shrink_to_fit();
        Graph {
            n,
            num_edges: end / 2,
            adjacency: Adjacency::Rows { offsets, targets },
        }
    }

    /// The complete graph `K_n`, which stores nothing: any `n` is fine, and
    /// building it is `O(1)`.
    pub fn complete(n: usize) -> Self {
        Graph {
            n,
            num_edges: if n < 2 { 0 } else { n * (n - 1) / 2 },
            adjacency: Adjacency::Complete,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        match &self.adjacency {
            Adjacency::Rows { offsets, targets } => {
                let row = &targets[offsets[u]..offsets[u + 1]];
                row.binary_search(&vertex_id(v)).is_ok()
            }
            Adjacency::Complete => u != v,
        }
    }

    /// The neighbours of `v`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        assert!(
            v < self.n,
            "vertex {v} out of range for {} vertices",
            self.n
        );
        let walk = match &self.adjacency {
            Adjacency::Rows { offsets, targets } => {
                Walk::Row(targets[offsets[v]..offsets[v + 1]].iter())
            }
            Adjacency::Complete => Walk::AllBut {
                below: 0..v,
                above: v + 1..self.n,
            },
        };
        Neighbors(walk)
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Every vertex's degree, in vertex order.
    fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).map(|v| self.degree(v))
    }

    /// Maximum vertex degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// Minimum vertex degree (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.degrees().min().unwrap_or(0)
    }

    /// Whether every vertex has exactly degree `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.degrees().all(|degree| degree == d)
    }

    /// Iterates over all edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
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
        self.neighbors(v)
            .filter(|&u| set.get(u) == Some(&true))
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
            for v in self.neighbors(u) {
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
                for v in self.neighbors(u) {
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
                for v in self.neighbors(u) {
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
    ///
    /// # Panics
    ///
    /// Panics if it keeps an edge of an implicit `K_n` whose `n` exceeds
    /// `u32::MAX`, which no row graph can hold.
    pub fn induced_subgraph(&self, keep: &[bool]) -> Graph {
        let kept = |v: VertexId| keep.get(v) == Some(&true);
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for v in 0..self.n {
            if kept(v) {
                let row = self.neighbors(v).filter(|&u| kept(u));
                targets.extend(row.map(vertex_id));
            }
            offsets.push(targets.len());
        }
        Graph {
            n: self.n,
            num_edges: targets.len() / 2,
            adjacency: Adjacency::Rows { offsets, targets },
        }
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

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n || self.num_edges != other.num_edges {
            return false;
        }
        match (&self.adjacency, &other.adjacency) {
            (Adjacency::Complete, Adjacency::Complete) => true,
            // Rows are sorted, deduplicated and packed, so equal contents
            // are equal vectors.
            (
                Adjacency::Rows { offsets, targets },
                Adjacency::Rows {
                    offsets: other_offsets,
                    targets: other_targets,
                },
            ) => offsets == other_offsets && targets == other_targets,
            _ => (0..self.n).all(|v| self.neighbors(v).eq(other.neighbors(v))),
        }
    }
}

impl Eq for Graph {}

/// Refuses a vertex count whose ids do not fit a row's `u32`.
pub(crate) fn check_vertex_count(n: usize) -> OverlayResult<()> {
    match u32::try_from(n) {
        Ok(_) => Ok(()),
        Err(_) => Err(OverlayError::TooManyVertices { n }),
    }
}

/// A vertex as a row stores it.
///
/// # Panics
///
/// Panics if `v` exceeds `u32::MAX`; every builder of rows refuses such a
/// vertex count first (see [`check_vertex_count`]).
#[expect(
    clippy::expect_used,
    reason = "the row builders refuse n > u32::MAX before they store a vertex; only \
              `induced_subgraph` of a larger implicit K_n reaches this, a documented panic"
)]
pub(crate) fn vertex_id(v: VertexId) -> u32 {
    u32::try_from(v).expect("row graphs hold at most u32::MAX vertices")
}

/// The neighbours of one vertex, in ascending order (see
/// [`Graph::neighbors`]).
#[derive(Clone, Debug, Default)]
pub struct Neighbors<'a>(Walk<'a>);

#[derive(Clone, Debug)]
enum Walk<'a> {
    /// A stored row.
    Row(std::slice::Iter<'a, u32>),
    /// `K_n`'s row of `v`: every vertex but `v`.
    AllBut {
        below: Range<usize>,
        above: Range<usize>,
    },
}

/// An empty walk, for a vertex with no neighbours to visit.
impl Default for Walk<'_> {
    fn default() -> Self {
        Walk::Row([].iter())
    }
}

impl Iterator for Neighbors<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match &mut self.0 {
            Walk::Row(row) => row.next().map(|&v| v as VertexId),
            Walk::AllBut { below, above } => below.next().or_else(|| above.next()),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.0 {
            Walk::Row(row) => row.len(),
            Walk::AllBut { below, above } => below.len() + above.len(),
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl FusedIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn from_edges_deduplicates_and_ignores_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [1]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), [0]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn rows_are_sorted_whatever_the_edge_order() {
        let g = Graph::from_edges(5, &[(4, 0), (0, 2), (3, 0), (1, 0), (2, 4)]).unwrap();
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert_eq!(g.neighbors(4).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(g.neighbors(0).len(), 4);
    }

    #[test]
    fn implicit_complete_graph_walks_every_other_vertex() {
        let k = Graph::complete(4);
        assert_eq!(k.neighbors(0).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(k.neighbors(2).collect::<Vec<_>>(), [0, 1, 3]);
        let mut walk = k.neighbors(3);
        assert_eq!(walk.len(), 3);
        walk.next();
        assert_eq!(walk.len(), 2);
        assert!(k.has_edge(1, 3) && !k.has_edge(3, 3) && !k.has_edge(0, 4));
        assert_eq!((k.min_degree(), k.max_degree(), k.num_edges()), (3, 3, 6));
        assert_eq!(Graph::complete(1).neighbors(0).count(), 0);
        assert_eq!(Graph::complete(0).max_degree(), 0);
    }

    #[test]
    fn equality_is_by_content() {
        let pairs: Vec<_> = (0..5)
            .flat_map(|u| (u + 1..5).map(move |v| (u, v)))
            .collect();
        let explicit = Graph::from_edges(5, &pairs).unwrap();
        assert_eq!(Graph::complete(5), explicit);
        assert_eq!(explicit, Graph::complete(5));
        assert_ne!(Graph::complete(5), path(5));
        assert_ne!(Graph::complete(4), Graph::complete(5));
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
