//! Node identities and dense node sets.
//!
//! The paper models a system of `n` nodes with unique integer names in
//! `[n] = {1, …, n}`.  Internally we use zero-based indices; [`NodeId::name`]
//! recovers the one-based paper name when printing or comparing against the
//! pseudocode (for example "little nodes are those with name at most `5t`").

use std::fmt;

/// Identity of a node in a synchronous network of `n` nodes.
///
/// `NodeId` is a zero-based index; the paper's one-based *name* is available
/// via [`NodeId::name`].
///
/// # Examples
///
/// ```
/// use dft_sim::NodeId;
///
/// let id = NodeId::new(0);
/// assert_eq!(id.index(), 0);
/// assert_eq!(id.name(), 1); // the paper's smallest node name
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node identity from a zero-based index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Creates a node identity from a one-based paper name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is zero.
    pub fn from_name(name: usize) -> Self {
        assert!(name >= 1, "paper node names are one-based");
        NodeId(name - 1)
    }

    /// Zero-based index of this node.
    pub const fn index(self) -> usize {
        self.0
    }

    /// One-based name as used in the paper's pseudocode.
    pub const fn name(self) -> usize {
        self.0 + 1
    }

    /// Whether this node is a *little node*, i.e. has one of the `count`
    /// smallest names (the paper uses the `5t` smallest names).
    pub const fn is_little(self, count: usize) -> bool {
        self.0 < count
    }

    /// The little node this node is *related to*: the one whose name is
    /// congruent to this node's name modulo `little_count` (Section 4.1,
    /// Part 3 of `Almost-Everywhere-Agreement`).
    ///
    /// Little nodes are related to themselves.
    ///
    /// # Panics
    ///
    /// Panics if `little_count` is zero.
    pub fn related_little(self, little_count: usize) -> NodeId {
        assert!(little_count > 0, "little_count must be positive");
        NodeId(self.0 % little_count)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// A dense set of nodes over a fixed universe `{0, …, n-1}`, stored as a
/// bitmap.
///
/// Used throughout the runners and protocols to track alive nodes, deciders,
/// completion sets and extant sets without per-element allocation.
///
/// # Examples
///
/// ```
/// use dft_sim::{NodeId, NodeSet};
///
/// let mut alive = NodeSet::full(4);
/// alive.remove(NodeId::new(2));
/// assert_eq!(alive.len(), 3);
/// assert!(!alive.contains(NodeId::new(2)));
/// assert!(alive.contains(NodeId::new(0)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    universe: usize,
}

#[expect(
    clippy::indexing_slicing,
    reason = "the words cover `universe` bits, and every indexed access follows an assert that the \
              NodeId is inside the universe"
)]
impl NodeSet {
    /// Creates an empty set over a universe of `universe` nodes.
    pub fn empty(universe: usize) -> Self {
        NodeSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Creates the full set `{0, …, universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut set = Self::empty(universe);
        for i in 0..universe {
            set.insert(NodeId::new(i));
        }
        set
    }

    /// Builds a set from an iterator of node identities.
    ///
    /// # Panics
    ///
    /// Panics if any node index is outside the universe.
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(universe: usize, nodes: I) -> Self {
        let mut set = Self::empty(universe);
        for node in nodes {
            set.insert(node);
        }
        set
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether `node` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if the node index is outside the universe.
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.universe,
            "node {i} outside universe {}",
            self.universe
        );
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Inserts `node`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the node index is outside the universe.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.universe,
            "node {i} outside universe {}",
            self.universe
        );
        let fresh = self.words[i / 64] & (1 << (i % 64)) == 0;
        self.words[i / 64] |= 1 << (i % 64);
        fresh
    }

    /// Removes `node`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if the node index is outside the universe.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.universe,
            "node {i} outside universe {}",
            self.universe
        );
        let present = self.words[i / 64] & (1 << (i % 64)) != 0;
        self.words[i / 64] &= !(1 << (i % 64));
        present
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.universe)
            .map(NodeId::new)
            .filter(move |&id| self.contains(id))
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Set difference `self \ other`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn subtract(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Whether `self` is a subset of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Collects the members into a vector of node identities.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Builds a set whose universe is one past the largest member.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let nodes: Vec<NodeId> = iter.into_iter().collect();
        let universe = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        NodeSet::from_iter(universe, nodes)
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for node in iter {
            self.insert(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_name_round_trip() {
        for i in 0..10 {
            let id = NodeId::new(i);
            assert_eq!(NodeId::from_name(id.name()), id);
        }
    }

    #[test]
    fn little_nodes_are_smallest_names() {
        assert!(NodeId::new(0).is_little(5));
        assert!(NodeId::new(4).is_little(5));
        assert!(!NodeId::new(5).is_little(5));
    }

    #[test]
    fn related_little_is_mod_class() {
        // With 5 little nodes, node index 7 is related to little node 7 % 5 = 2.
        assert_eq!(NodeId::new(7).related_little(5), NodeId::new(2));
        // A little node is related to itself.
        assert_eq!(NodeId::new(3).related_little(5), NodeId::new(3));
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn from_name_rejects_zero() {
        let _ = NodeId::from_name(0);
    }

    #[test]
    fn node_set_basic_operations() {
        let mut set = NodeSet::empty(130);
        assert!(set.is_empty());
        assert!(set.insert(NodeId::new(0)));
        assert!(set.insert(NodeId::new(129)));
        assert!(!set.insert(NodeId::new(129)));
        assert_eq!(set.len(), 2);
        assert!(set.contains(NodeId::new(129)));
        assert!(set.remove(NodeId::new(0)));
        assert!(!set.remove(NodeId::new(0)));
        assert_eq!(set.to_vec(), vec![NodeId::new(129)]);
    }

    #[test]
    fn node_set_full_and_algebra() {
        let full = NodeSet::full(10);
        assert_eq!(full.len(), 10);
        let mut evens = NodeSet::from_iter(10, (0..10).step_by(2).map(NodeId::new));
        let odds = NodeSet::from_iter(10, (1..10).step_by(2).map(NodeId::new));
        assert!(evens.is_subset(&full));
        let mut union = evens.clone();
        union.union_with(&odds);
        assert_eq!(union, full);
        evens.intersect_with(&odds);
        assert!(evens.is_empty());
        let mut diff = full.clone();
        diff.subtract(&odds);
        assert_eq!(diff.len(), 5);
    }

    #[test]
    fn node_set_from_iterator_universe() {
        let set: NodeSet = [NodeId::new(3), NodeId::new(7)].into_iter().collect();
        assert_eq!(set.universe(), 8);
        assert_eq!(set.len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn node_set_rejects_out_of_universe() {
        let set = NodeSet::empty(4);
        let _ = set.contains(NodeId::new(4));
    }
}
