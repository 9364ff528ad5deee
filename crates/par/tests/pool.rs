//! Contract tests of the scoped worker pool: the determinism, panic, and
//! thread-safety guarantees parallel training is built on.

use fj_par::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Work stealing must never leak into results: whatever order workers claim
/// tasks in, the output equals the serial run. Tasks take deliberately
/// uneven time so fast workers overtake slow ones and the claim order
/// differs from the index order.
#[test]
fn output_is_independent_of_stealing_order() {
    let serial: Vec<u64> = WorkerPool::new(1).run_indexed(64, uneven_task);
    for threads in [2, 3, 4, 8, 16] {
        let parallel = WorkerPool::new(threads).run_indexed(64, uneven_task);
        assert_eq!(parallel, serial, "{threads} threads diverged from serial");
    }
}

fn uneven_task(i: usize) -> u64 {
    // Index-dependent spin so task durations differ by ~100×.
    let rounds = ((i * 7919) % 97 + 1) * 200;
    let mut x = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..rounds {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    std::hint::black_box(x)
}

/// Every index is claimed exactly once across workers.
#[test]
fn each_task_runs_exactly_once() {
    let counts: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
    let out = WorkerPool::new(6).run_indexed(200, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
        i
    });
    assert_eq!(out.len(), 200);
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            1,
            "task {i} ran a wrong number of times"
        );
    }
}

/// A panicking task must fail the whole fan-out, not silently drop a
/// worker: the panic propagates out of `run_indexed` after every scoped
/// thread has been joined.
#[test]
fn task_panic_propagates_to_the_caller() {
    for threads in [1usize, 4] {
        let result = std::panic::catch_unwind(|| {
            WorkerPool::new(threads).run_indexed(32, |i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
                i
            })
        });
        assert!(result.is_err(), "{threads} threads: panic was swallowed");
    }
}

/// Non-panicking tasks still complete when a sibling panics mid-run (the
/// scope joins all workers before resuming the unwind), so shared side
/// effects are never left half-applied by surviving workers.
#[test]
fn surviving_workers_drain_their_tasks_on_sibling_panic() {
    let ran = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(|| {
        WorkerPool::new(4).run_indexed(64, |i| {
            if i == 0 {
                panic!("first task panics");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        })
    });
    assert!(result.is_err());
    assert_eq!(ran.load(Ordering::Relaxed), 63, "surviving tasks all ran");
}

// Compile-time thread-safety contract, mirroring
// crates/core/tests/send_sync.rs: the pool itself crosses threads (it is
// copied into benchmark/training configs), so it must stay Send + Sync.
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn pool_is_send_sync() {
    assert_send_sync::<WorkerPool>();
}

/// The calling thread is one of the pool's N workers: N tasks that all
/// wait at one `Barrier(N)` can only pass it if N distinct threads run
/// them at once, and with N − 1 spawned threads one of those must be the
/// caller.
#[test]
fn the_caller_is_one_of_the_workers() {
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    for threads in [2usize, 3, 4] {
        let barrier = Barrier::new(threads);
        let ids: Vec<ThreadId> = WorkerPool::new(threads).run_indexed(threads, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), threads, "{threads} workers: {ids:?}");
        assert!(
            ids.contains(&std::thread::current().id()),
            "{threads} workers: the caller ran no task"
        );
    }
}
