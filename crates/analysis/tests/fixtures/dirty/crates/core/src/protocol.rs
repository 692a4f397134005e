//! Seeded violations for the golden test: nondeterminism hazards and float
//! arithmetic inside a `crates/core/src` path.  Every marked line must be
//! reported by `dft-analyze`; the golden test pins the (line, rule) pairs.

use std::collections::{HashMap, HashSet};

// layer-boundary: `dft_sim::parallel` is the simulator's chunk partition;
// the core layer may only name the sim root, adversary and shard surfaces.
use dft_sim::parallel::ChunkPlan;

pub struct State {
    pub votes: HashMap<usize, u64>,
    pub seen: HashSet<usize>,
}

impl State {
    pub fn tally(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (_, v) in &self.votes {
            // nondet-hash-iter: order-sensitive body.
            out.push(*v);
        }
        out
    }

    pub fn first_seen(&self) -> Option<usize> {
        // nondet-hash-iter: `.iter().next()` depends on allocation order.
        self.seen.iter().next().copied()
    }

    pub fn threshold(&self, n: usize) -> usize {
        // float-protocol: rounding steers a protocol quantity.
        (n as f64 * 0.66) as usize
    }

    pub fn deadline_passed(&self) -> bool {
        // nondet-time: wall clock in protocol logic.
        std::time::Instant::now().elapsed().as_millis() > 10
    }

    pub fn worker_tag(&self) -> String {
        // nondet-thread-id: thread identity leaks into state.
        format!("{:?}", std::thread::current().id())
    }
}
