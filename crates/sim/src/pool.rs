//! The threads shard workers run on.
//!
//! [`crate::shard`]'s in-process spawner serves each chunk of a sharded
//! execution on one worker of a [`WorkerPool`] the runner owns: the threads
//! are spawned once per runner, each blocks on its own job queue, and
//! dropping the pool (with the runner) closes the queues and joins them.
//! An in-process execution that is not sharded never touches this module —
//! it is one thread, the caller's.
//!
//! This crate forbids `unsafe` and a persistent thread has no scope to
//! borrow from, so nothing is ever *lent* to a worker: a [`Job`] owns
//! everything it touches (a shard worker's job owns its chunk's state
//! machines and its end of the transport).
//!
//! # Panic behaviour
//!
//! If a job panics, its worker thread unwinds and whatever the job owned is
//! dropped — for a shard worker that includes its transport end, so the
//! coordinator sees a disconnect (a `SimError::Shard`) instead of
//! deadlocking.

use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of work: owns everything it touches (see the module docs), so it
/// can cross into the pool's `'static` worker threads.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent set of worker threads, one job queue per worker.
///
/// Workers are identified by index: chunk `i` of a sharded execution is
/// served on worker `i` for the execution's lifetime.
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
            .expect("pool worker died (a previous job panicked)");
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

    /// A panicking job disconnects what it owned instead of deadlocking
    /// whoever waits on it.
    #[test]
    fn panicking_job_is_observed_as_disconnect() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel::<usize>();
        let tx_ok = tx.clone();
        pool.submit(0, Box::new(move || tx_ok.send(0).map_or((), drop)));
        pool.submit(1, Box::new(|| panic!("job failed")));
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
