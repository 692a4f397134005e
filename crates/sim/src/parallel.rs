//! How one execution's nodes are partitioned, and how many executions a
//! machine can run at once.
//!
//! An in-process execution is one thread.  Two things here concern more
//! than one: `ChunkPlan`, the contiguous index partition the framed host
//! ([`crate::shard`]) cuts an execution's nodes into — one chunk per shard
//! worker, counted and replayed in fixed node-index order, which is
//! what keeps a sharded run byte-identical to the serial one — and
//! [`available_jobs`], the default for a harness that fans *independent*
//! executions out (`run_experiments --jobs`).

/// Number of executions worth running at once on this machine: the
/// standard library's available-parallelism estimate, with a fallback of 1
/// when the estimate is unavailable (e.g. restricted sandboxes).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The contiguous partition of `n` nodes across at most `workers` shard
/// workers.
///
/// `chunk_len` is the ceiling division `⌈n / workers⌉`, which can leave the
/// trailing workers with *zero* nodes (e.g. `n = 9, workers = 8` gives
/// eight 2-node chunks worth of length but only five non-empty chunks).
/// `chunks` is therefore the number of **non-empty** chunks — exactly that
/// many workers are spawned, never an idle trailing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkPlan {
    /// Nodes per chunk (the last non-empty chunk may be shorter).
    pub chunk_len: usize,
    /// Number of non-empty chunks = number of workers to use.
    pub chunks: usize,
}

impl ChunkPlan {
    /// Plans the partition of `n` nodes across at most `workers` workers.
    pub fn new(n: usize, workers: usize) -> Self {
        let chunk_len = n.div_ceil(workers.max(1)).max(1);
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
            for workers in [1usize, 2, 3, 4, 8, 16] {
                let plan = ChunkPlan::new(n, workers);
                assert!(plan.chunk_len >= 1);
                // Never more chunks than workers, and never an empty chunk.
                assert!(plan.chunks <= workers, "n={n} workers={workers}");
                for chunk in 0..plan.chunks {
                    let range = plan.range(chunk, n);
                    assert!(!range.is_empty(), "empty chunk {chunk} n={n}");
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

    /// The regression the clamp exists for: `⌈n / workers⌉`-length chunks
    /// can satisfy all of `0..n` before the worker count runs out, and the
    /// leftover workers must not be spawned at all.
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
}
