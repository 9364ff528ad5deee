//! # fj-par — a std-only scoped worker pool
//!
//! The model build fans embarrassingly-parallel work (per-key frequency
//! profiling, per-group binning, per-table model fits) across cores, and
//! so does every incremental update (per-table estimator inserts, per-key
//! statistics). The build environment has no registry access, so this is
//! the same philosophy as `fj-service`'s request pool — plain
//! `std::thread` — but *scoped*: workers borrow the caller's data for the
//! duration of one fan-out instead of owning `Arc`s for the life of a
//! service.
//!
//! The scheduling contract is what makes parallel training safe to adopt:
//!
//! * **Determinism.** Tasks are indexed `0..n`; workers *steal* indices from
//!   a shared atomic counter in any order, but results are returned in index
//!   order and each task computes from its index alone — so the output is
//!   bit-identical regardless of thread count or interleaving.
//! * **Panic propagation.** A panicking task panics the whole
//!   [`WorkerPool::run_indexed`] call after every worker has stopped (scoped
//!   threads are always joined), instead of silently losing a worker.
//! * **The caller works.** A fan-out to N workers spawns N − 1 threads; the
//!   calling thread is the N-th and steals tasks like the others, so it
//!   does not sit idle while the fan-out runs.
//! * **Inline fast path.** One thread, zero or one task, or a pool of one
//!   runs the tasks inline on the caller's stack — no spawn cost, and the
//!   serial path is *the same code* as the parallel one.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width scoped worker pool (see crate docs).
///
/// The pool is a value, not a set of live threads: threads are spawned per
/// [`WorkerPool::run_indexed`] call inside a [`std::thread::scope`], so the
/// borrow checker proves tasks cannot outlive the data they borrow.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers. `0` means "all available cores"
    /// ([`std::thread::available_parallelism`], 1 when unknown).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        WorkerPool { threads }
    }

    /// Worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs tasks `0..n` across the pool and returns their results in
    /// index order. `task` must be a pure function of its index (plus
    /// whatever shared state it reads) for the determinism contract to
    /// hold; the pool guarantees placement, not purity.
    pub fn run_indexed<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(task).collect();
        }
        // Work stealing: each worker pulls the next unclaimed index. Results
        // are collected per worker and stitched back in index order, so the
        // steal order never leaks into the output. The calling thread is
        // one of the workers: it spawns the other `workers - 1`.
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(n));
        let work = || {
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, task(i)));
            }
            done.lock().expect("pool results lock").extend(local);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        let mut indexed = done.into_inner().expect("pool results lock");
        indexed.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(indexed.len(), n, "every task ran exactly once");
        indexed.into_iter().map(|(_, t)| t).collect()
    }

    /// Maps `f` over a slice through the pool, preserving order.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run_indexed(items.len(), |i| f(&items[i]))
    }
}

impl Default for WorkerPool {
    /// All available cores.
    fn default() -> Self {
        WorkerPool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_means_available_cores() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(WorkerPool::default().threads(), pool.threads());
    }

    #[test]
    fn empty_and_single_task_run_inline() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(3);
        let items: Vec<String> = (0..20).map(|i| format!("v{i}")).collect();
        let out = pool.map(&items, |s| s.len());
        assert_eq!(out, items.iter().map(String::len).collect::<Vec<_>>());
    }
}
