//! A persistent, deterministic worker pool for the in-process host.
//!
//! A runner with more than one job (see [`crate::parallel`]) spawns its
//! workers **once**, lazily, on the first round that crosses the fork
//! threshold, and hands them phase work over per-worker channels; between
//! phases the workers block on their queue (a futex wait — parked, not
//! spinning), so a phase handoff costs about a microsecond of channel
//! traffic, not a thread spawn.  Single-port executions run for
//! Θ(t + log n) rounds — tens of thousands at paper scale — which is why
//! the cost per handoff, not per run, is what matters.
//!
//! # Ownership-shuttle design (why there is no `unsafe` here)
//!
//! A persistent pool has no scope to borrow from, and this crate forbids
//! `unsafe`, so nothing is ever *lent* to a worker.  The host partitions
//! the per-node state into owned cores (one per worker, contiguous node
//! ranges).  A phase dispatch **moves** each core into a boxed closure,
//! sends it to the core's dedicated worker, and the closure sends the core
//! back through a per-phase result channel when done.  Moving a core moves
//! a few `Vec` headers, not node state, and the core's scratch buffers
//! (outgoing queues, delivered-message scratch, event lists, metric
//! counters) persist across rounds inside it.
//!
//! Determinism: core `i` always covers the same contiguous node range and
//! always runs on worker `i`, and [`WorkerPool::run_phase`] puts the cores
//! back in their old order, so the coordinator merges them in node-index
//! order whichever worker finished first.  The conformance tables in
//! `crates/sim/src/tests/conformance.rs` pin byte-identical reports and
//! traces against serial runs.
//!
//! # Panic behaviour
//!
//! If a phase closure panics, its worker thread unwinds and the closure's
//! clone of the result sender is dropped without a send.  The dispatcher
//! drops its own sender before collecting, so the receiver disconnects
//! instead of deadlocking and the main thread panics with a clear message.
//!
//! The module is public so `crates/bench/benches/pool_handoff.rs` can put a
//! number on the handoff itself; the in-process host and the in-process
//! shard spawner remain the only in-tree dispatchers.

use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of phase work: owns everything it touches (see the module docs),
/// so it can cross into the pool's `'static` worker threads.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent set of worker threads, one job queue per worker.
///
/// Workers are identified by index; a dispatch always sends chunk `i` to
/// worker `i`, which keeps the chunk's cache footprint on one thread across
/// rounds and makes the assignment deterministic by construction.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one), each blocking on its own
    /// job queue until the pool is dropped.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = std::sync::mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(format!("dft-sim-worker-{index}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool { senders, handles }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Queues `job` on worker `index`'s channel; the worker runs jobs in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Panics if the worker died (which only happens after a previous job
    /// panicked) or `index` is out of range.
    pub fn submit(&self, index: usize, job: Job) {
        self.senders[index]
            .send(job)
            .expect("pool worker died (a previous phase job panicked)");
    }

    /// One full phase dispatch of the ownership-shuttle protocol: moves
    /// each chunk in `chunks` to its pinned worker (chunk `i` to worker
    /// `i`), runs `phase` on it there, and waits for every chunk to come
    /// home, in its old position.  Every pooled phase of every model goes
    /// through here, so the dispatch/panic protocol lives in exactly one
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if a phase closure panicked on a worker: the closure's
    /// result sender is dropped without a send, the receiver disconnects,
    /// and the panic is re-raised here on the main thread.
    pub fn run_phase<C: Send + 'static>(
        &self,
        chunks: &mut Vec<C>,
        phase: impl Fn(&mut C) + Clone + Send + 'static,
    ) {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, C)>();
        let count = chunks.len();
        for (ci, mut chunk) in chunks.drain(..).enumerate() {
            let tx = tx.clone();
            let phase = phase.clone();
            self.submit(
                ci,
                Box::new(move || {
                    phase(&mut chunk);
                    tx.send((ci, chunk)).ok();
                }),
            );
        }
        drop(tx);
        let mut home: Vec<(usize, C)> = (0..count)
            .map(|_| rx.recv().expect("phase worker panicked"))
            .collect();
        home.sort_unstable_by_key(|(ci, _)| *ci);
        chunks.extend(home.into_iter().map(|(_, chunk)| chunk));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queues lets each worker's `recv` loop end; joining
        // bounds teardown.  A worker that panicked already unwound — its
        // `Err` join result carries nothing we can recover here.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// One dispatch round in miniature: move owned state out, mutate it on
    /// the workers, collect it back in deterministic (index-merged) order.
    #[test]
    fn jobs_shuttle_owned_state_and_results_merge_in_index_order() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let (tx, rx) = mpsc::channel::<(usize, Vec<u64>)>();
        for index in 0..pool.workers() {
            let tx = tx.clone();
            let mut chunk: Vec<u64> = vec![index as u64; 4];
            pool.submit(
                index,
                Box::new(move || {
                    for value in &mut chunk {
                        *value += 10;
                    }
                    tx.send((index, chunk)).ok();
                }),
            );
        }
        drop(tx);
        let mut slots: Vec<Option<Vec<u64>>> = vec![None; pool.workers()];
        for _ in 0..pool.workers() {
            let (index, chunk) = rx.recv().expect("worker panicked");
            slots[index] = Some(chunk);
        }
        for (index, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.unwrap(), vec![index as u64 + 10; 4]);
        }
    }

    /// Workers persist across dispatches: scratch capacity moved into a job
    /// comes back and can be reused by the next round's job.
    #[test]
    fn scratch_capacity_survives_across_dispatches() {
        let pool = WorkerPool::new(1);
        let mut scratch: Vec<u64> = Vec::with_capacity(1024);
        let mut seen_ptr = None;
        for round in 0..3u64 {
            let (tx, rx) = mpsc::channel();
            let mut owned = std::mem::take(&mut scratch);
            pool.submit(
                0,
                Box::new(move || {
                    owned.clear();
                    owned.push(round);
                    tx.send(owned).ok();
                }),
            );
            scratch = rx.recv().expect("worker panicked");
            assert_eq!(scratch, vec![round]);
            assert!(scratch.capacity() >= 1024, "capacity persists");
            let ptr = scratch.as_ptr();
            if let Some(previous) = seen_ptr {
                assert_eq!(previous, ptr, "no reallocation across rounds");
            }
            seen_ptr = Some(ptr);
        }
    }

    /// A panicking job disconnects the result channel instead of
    /// deadlocking the dispatcher.
    #[test]
    fn panicking_job_is_observed_as_disconnect() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel::<usize>();
        let tx_ok = tx.clone();
        pool.submit(0, Box::new(move || tx_ok.send(0).map_or((), drop)));
        pool.submit(1, Box::new(|| panic!("phase job failed")));
        drop(tx);
        let mut received = 0;
        while rx.recv().is_ok() {
            received += 1;
        }
        assert_eq!(received, 1, "only the healthy worker reported");
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for index in 0..4 {
            let tx = tx.clone();
            pool.submit(index, Box::new(move || tx.send(index).map_or((), drop)));
        }
        drop(tx);
        let mut ids: Vec<usize> = rx.iter().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        drop(pool); // must not hang
    }
}
