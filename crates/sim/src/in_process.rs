//! The in-process host: the chunks are sans-I/O cores held by this
//! process.
//!
//! With one core (the default) a phase is a direct call on this thread.
//! With more than one configured job, and a system at or above the fork
//! threshold, the nodes are dealt out over one core per worker and a phase
//! moves every core to its pinned [`WorkerPool`] worker and back (see
//! [`crate::pool`]).  Either way the coordinator sees the same outputs in
//! the same order, so the job count is invisible in reports and traces.
//!
//! [`InProcess`] holds what the two models share — the cores, the
//! partition, the pool, the job knobs; the model-specific halves of the
//! host live beside the cores' runners in [`crate::runner`] and
//! [`crate::single_port`].

use std::convert::Infallible;
use std::ops::Range;

use crate::coordinator::{Coordinator, Host};
use crate::parallel::{self, ChunkPlan};
use crate::pool::WorkerPool;

/// A core type [`InProcess`] can re-deal when the partition changes.
pub trait Chunk: Sized + Send + 'static {
    /// Deals the per-node state of `cores` (one execution's nodes, in
    /// order, between two rounds) back out, one new core per node range.
    fn regroup(cores: Vec<Self>, ranges: impl Iterator<Item = Range<usize>>) -> Vec<Self>;
}

/// Cores in this process, driven inline or through the worker pool.
pub struct InProcess<C> {
    /// One core per chunk of `plan`, in ascending node order.
    pub(crate) cores: Vec<C>,
    pub(crate) plan: ChunkPlan,
    n: usize,
    /// Worker threads for the per-node phase loops (1 = inline).
    jobs: usize,
    /// Node count from which `jobs > 1` engages the pool.
    fork_threshold: usize,
    /// Spawned on the first forked round, kept for the host's lifetime.
    pool: Option<WorkerPool>,
}

impl<C: Chunk> InProcess<C> {
    /// A host over one core owning all `n` nodes.
    pub(crate) fn new(core: C, n: usize, fork_threshold: usize) -> Self {
        InProcess {
            cores: vec![core],
            plan: ChunkPlan::new(n, 1),
            n,
            jobs: 1,
            fork_threshold,
            pool: None,
        }
    }

    /// Brings the partition in line with the job setting; called at the
    /// top of every round.
    pub(crate) fn prepare(&mut self) {
        let forked = parallel::should_fork(self.n, self.jobs, self.fork_threshold);
        let plan = ChunkPlan::new(self.n, if forked { self.jobs } else { 1 });
        if plan == self.plan {
            return;
        }
        if plan.chunks > 1 && self.pool.as_ref().map(WorkerPool::workers) != Some(plan.chunks) {
            self.pool = Some(WorkerPool::new(plan.chunks));
        }
        let ranges = (0..plan.chunks).map(|ci| plan.range(ci, self.n));
        self.cores = C::regroup(std::mem::take(&mut self.cores), ranges);
        self.plan = plan;
    }

    /// Runs one phase body on every core: inline on this thread with one
    /// core, on the pool (core `i` on worker `i`) otherwise.
    pub(crate) fn run_phase(&mut self, phase: impl Fn(&mut C) + Clone + Send + 'static) {
        match &self.pool {
            Some(pool) if self.cores.len() > 1 => pool.run_phase(&mut self.cores, phase),
            _ => self.cores.iter_mut().for_each(phase),
        }
    }
}

/// [`Host::outcome`] for a host that cannot fail.
pub(crate) fn never_fails<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

impl<C, X> Coordinator<InProcess<C>, X>
where
    InProcess<C>: Host,
{
    /// Sets the number of worker threads for the per-node phase loops.
    ///
    /// `1` (the default) keeps the single inline core; `0` means "pick for
    /// me" ([`parallel::available_jobs`]).  Parallel execution is
    /// deterministic — reports, metrics and traces are byte-identical to a
    /// serial run — so this is purely a performance knob.  Systems below
    /// the fork threshold stay on the single-core path regardless.
    pub fn set_jobs(&mut self, jobs: usize) -> &mut Self {
        self.host.jobs = parallel::effective_jobs(jobs);
        self
    }

    /// Builder-style variant of [`Coordinator::set_jobs`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.host.jobs
    }

    /// Overrides the node count from which `jobs > 1` engages the worker
    /// pool (defaults: `parallel::MIN_NODES_PER_FORK` multi-port,
    /// `parallel::MIN_NODES_PER_FORK_SINGLE_PORT` single-port).  Both
    /// paths are byte-identical; this only trades dispatch overhead
    /// against parallel speedup, e.g. for rounds that do unusually heavy
    /// per-node work.
    pub fn set_fork_threshold(&mut self, nodes: usize) -> &mut Self {
        self.host.fork_threshold = nodes.max(1);
        self
    }
}
