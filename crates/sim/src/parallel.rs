//! Deterministic parallel-execution helpers for the in-process host.
//!
//! With a job count above one the in-process host (`crate::in_process`)
//! splits the per-node phase loops (send collection, delivery, receive)
//! across the persistent worker pool in [`crate::pool`].  The parallel
//! schedule is *deterministic by construction*: nodes are partitioned into
//! contiguous index chunks, each chunk is pinned to one pool worker, and
//! every cross-chunk effect (delivered messages, metric counters, decision
//! and halt events) is staged per chunk and merged by the coordinator in
//! fixed node-index order.  Serial and parallel executions of the same
//! seeded workload therefore produce byte-identical reports, traces and
//! experiment tables.
//!
//! The crash-adversary phase is *never* parallelised: the adversary contract
//! ([`crate::CrashAdversary`]) hands a single mutable strategy a coherent
//! view of the whole round, so the coordinator runs it between the send and
//! delivery phases.

/// Number of worker threads worth spawning on this machine: the standard
/// library's available-parallelism estimate, with a fallback of 1 when the
/// estimate is unavailable (e.g. restricted sandboxes).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Below this node count the per-round dispatch overhead outweighs any
/// speedup; the host keeps its single inline core (which is
/// observationally identical, so the cutoff is invisible to callers).
///
/// This is the multi-port threshold: a multi-port round moves
/// `O(n · degree)` messages, so even modest systems amortise the ~µs cost
/// of handing the phase closures to the persistent pool.
pub(crate) const MIN_NODES_PER_FORK: usize = 128;

/// The single-port fork threshold: a single-port round is one send and one
/// poll per node — `O(n)` work with a tiny constant — so the pool's two
/// handoffs per round (~30 µs, ~14 % of a serial n = 1024 round) only pay
/// off from paper-scale systems up (measured in
/// `crates/bench/benches/pool_handoff.rs`).
pub(crate) const MIN_NODES_PER_FORK_SINGLE_PORT: usize = 1024;

/// Normalises a requested job count: `0` means "pick for me"
/// ([`available_jobs`]), anything else is used as given.
pub(crate) fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// The contiguous partition of `n` nodes across at most `jobs` workers.
///
/// `chunk_len` is the ceiling division `⌈n / jobs⌉`, which can leave the
/// trailing workers with *zero* nodes (e.g. `n = 9, jobs = 8` gives eight
/// 2-node chunks worth of length but only five non-empty chunks).  `chunks`
/// is therefore the number of **non-empty** chunks — the pool spawns
/// exactly that many workers, never an idle trailing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkPlan {
    /// Nodes per chunk (the last non-empty chunk may be shorter).
    pub chunk_len: usize,
    /// Number of non-empty chunks = number of pool workers to use.
    pub chunks: usize,
}

impl ChunkPlan {
    /// Plans the partition of `n` nodes across at most `jobs` workers.
    pub fn new(n: usize, jobs: usize) -> Self {
        let chunk_len = n.div_ceil(jobs.max(1)).max(1);
        ChunkPlan {
            chunk_len,
            chunks: n.div_ceil(chunk_len).max(1),
        }
    }

    /// The chunk owning node `node` and the node's index within it.
    pub fn locate(&self, node: usize) -> (usize, usize) {
        (node / self.chunk_len, node % self.chunk_len)
    }

    /// The node range of chunk `index` within an `n`-node system.
    pub fn range(&self, index: usize, n: usize) -> std::ops::Range<usize> {
        let start = index * self.chunk_len;
        start..((start + self.chunk_len).min(n))
    }
}

/// Whether a runner over `n` nodes with this job setting and fork threshold
/// should take the parallel path.
pub(crate) fn should_fork(n: usize, jobs: usize, threshold: usize) -> bool {
    jobs > 1 && n >= threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn chunk_plan_covers_all_nodes_without_empty_chunks() {
        for n in [1usize, 5, 9, 127, 128, 1000] {
            for jobs in [1usize, 2, 3, 4, 8, 16] {
                let plan = ChunkPlan::new(n, jobs);
                assert!(plan.chunk_len >= 1);
                // Never more chunks than jobs, and never an empty chunk.
                assert!(plan.chunks <= jobs.max(1), "n={n} jobs={jobs}");
                for chunk in 0..plan.chunks {
                    let range = plan.range(chunk, n);
                    assert!(!range.is_empty(), "empty chunk {chunk} n={n} jobs={jobs}");
                }
                // The ranges tile 0..n exactly and `locate` is their
                // inverse.
                let mut covered = 0;
                for chunk in 0..plan.chunks {
                    for node in plan.range(chunk, n) {
                        assert_eq!(node, covered, "contiguous coverage");
                        let local = node - plan.range(chunk, n).start;
                        assert_eq!(plan.locate(node), (chunk, local));
                        covered += 1;
                    }
                }
                assert_eq!(covered, n);
            }
        }
    }

    /// The regression the clamp exists for: `⌈n / jobs⌉`-length chunks can
    /// satisfy all of `0..n` before the worker count runs out, and the pool
    /// must not spawn (or park) the leftover workers at all.
    #[test]
    fn trailing_zero_node_workers_are_never_planned() {
        let plan = ChunkPlan::new(9, 8);
        assert_eq!(plan.chunk_len, 2);
        assert_eq!(plan.chunks, 5, "three trailing workers clamped away");
        let plan = ChunkPlan::new(65, 64);
        assert_eq!(plan.chunk_len, 2);
        assert_eq!(plan.chunks, 33);
        // Exact division plans every worker.
        assert_eq!(
            ChunkPlan::new(64, 4),
            ChunkPlan {
                chunk_len: 16,
                chunks: 4
            }
        );
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn forking_needs_both_jobs_and_scale() {
        assert!(!should_fork(10000, 1, MIN_NODES_PER_FORK));
        assert!(!should_fork(10, 4, MIN_NODES_PER_FORK));
        assert!(should_fork(MIN_NODES_PER_FORK, 2, MIN_NODES_PER_FORK));
        assert!(!should_fork(
            MIN_NODES_PER_FORK,
            4,
            MIN_NODES_PER_FORK_SINGLE_PORT
        ));
        assert!(should_fork(
            MIN_NODES_PER_FORK_SINGLE_PORT,
            4,
            MIN_NODES_PER_FORK_SINGLE_PORT
        ));
    }
}
