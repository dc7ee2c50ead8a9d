//! Deterministic multi-core execution layer for Fusion-3D.
//!
//! The simulator's hot paths — frame rendering, training steps, and
//! scene-level experiment sweeps — are embarrassingly parallel, but a
//! research codebase lives or dies on reproducibility. This crate
//! provides a scoped worker [`Pool`] built on `std::thread::scope` and
//! crossbeam work-stealing deques with a hard determinism contract:
//!
//! **the results of [`Pool::parallel_chunks`] and [`Pool::run_tasks`]
//! are bitwise-identical for any thread count, including 1.**
//!
//! Both entry points share one dispatch, and three rules make the
//! contract hold:
//!
//! 1. *Work decomposition never looks at the thread count.* Chunk
//!    boundaries depend only on the input length and the chunk size,
//!    and tasks only on the caller's states.
//! 2. *Each task writes to its own index-addressed slot.* Workers
//!    race over which task they grab next (stealing balances load),
//!    but never over where a result lands.
//! 3. *Results come back in task-index order.* Floating-point
//!    accumulation is not associative, so callers fold the results on
//!    the calling thread in that order, whatever the completion order.
//!
//! Thread count comes from the `FUSION3D_THREADS` environment
//! variable (default: [`std::thread::available_parallelism`]), with a
//! process-wide programmatic override ([`set_thread_override`]) for
//! benchmarks that sweep thread counts.

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::Mutex;

/// Environment variable controlling the worker count (`0` or unset
/// means "use all available cores").
pub const THREADS_ENV: &str = "FUSION3D_THREADS";

/// `0` = no override; otherwise the forced thread count.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the thread count for every subsequently created [`Pool`],
/// taking precedence over [`THREADS_ENV`]. Pass `None` to clear.
/// Intended for benchmarks that sweep thread counts within one
/// process; tests and applications should prefer the environment
/// variable.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// Resolves the effective thread count: programmatic override, then
/// [`THREADS_ENV`], then [`std::thread::available_parallelism`].
/// Always at least 1.
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    // The pool's determinism contract makes every dispatch
    // thread-count-invariant, so this env read cannot affect results.
    // lint: allow(d2): worker count never affects results
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            if parsed > 0 {
                return parsed;
            }
        }
    }
    thread::available_parallelism().map_or(1, usize::from)
}

/// A scoped worker pool. Creating one is cheap (no threads are kept
/// alive between calls); each dispatch spins up a `thread::scope` for
/// its duration, which also propagates worker panics to the caller.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// A pool sized by [`current_threads`] (override, then env, then
    /// available parallelism).
    pub fn new() -> Self {
        Pool { threads: current_threads() }
    }

    /// A pool with an explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// The number of worker threads this pool dispatches to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..len` into contiguous chunks of `chunk_size` (the
    /// last may be shorter), runs `work(chunk_index, range)` for each
    /// across the pool, and returns the per-chunk results **in chunk
    /// order**. Chunk boundaries are independent of the thread count,
    /// so the output is identical for any pool size.
    pub fn parallel_chunks<T, F>(&self, len: usize, chunk_size: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let chunk_size = chunk_size.max(1);
        // Unit scratch per thread; a `Vec` of `()` never allocates.
        let mut workers = vec![(); self.threads];
        self.dispatch(len.div_ceil(chunk_size), &mut workers, |index, ()| {
            let start = index * chunk_size;
            work(index, start..(start + chunk_size).min(len))
        })
    }

    /// Runs one task per item of `states`, handing task `i` the `i`-th
    /// item (typically a `&mut` shard struct or a disjoint output
    /// slice) and the scratch of the worker that runs it. Results come
    /// back in task-index order, so callers can keep one accumulator
    /// per shard and merge them in shard order afterwards. At most
    /// `workers.len()` threads run, each holding one element of
    /// `workers` for the whole call; the caller keeps them across calls.
    ///
    /// Determinism contract: stealing makes the task→worker assignment
    /// depend on timing, so a task's result and writes must be a pure
    /// function of its index and state, never of what an earlier task
    /// left in the scratch (which may carry capacity, never values).
    /// Under that contract the output is bitwise-identical for any
    /// thread count and any number of scratches.
    ///
    /// # Panics
    ///
    /// Panics if there are tasks but `workers` is empty.
    pub fn run_tasks<S, W, T, I, F>(&self, states: I, workers: &mut [W], work: F) -> Vec<T>
    where
        I: IntoIterator<Item = S>,
        S: Send,
        W: Send,
        T: Send,
        F: Fn(usize, S, &mut W) -> T + Sync,
    {
        // A Mutex slot per state lets any worker take it; each index
        // runs once, so no lock is contended.
        let slots: Vec<Mutex<Option<S>>> =
            states.into_iter().map(|s| Mutex::new(Some(s))).collect();
        assert!(slots.is_empty() || !workers.is_empty(), "run_tasks needs a worker scratch");
        self.dispatch(slots.len(), workers, |index, worker| match slots[index].lock().take() {
            Some(state) => work(index, state, worker),
            // lint: allow(p1): invariant — the dispatch runs each task index once
            None => unreachable!("task {index} ran twice"),
        })
    }

    /// The one dispatch: executes `task(0..count)` on at most
    /// `min(threads, count, workers.len())` threads and collects the
    /// results into index-addressed slots. Each thread owns one
    /// element of `workers` and hands it to every task it runs. Work
    /// distribution (round-robin seeding + stealing) affects only
    /// *who* runs a task, never *where* its result lands.
    fn dispatch<W, T, F>(&self, count: usize, workers: &mut [W], task: F) -> Vec<T>
    where
        W: Send,
        T: Send,
        F: Fn(usize, &mut W) -> T + Sync,
    {
        let threads = self.threads.min(count).min(workers.len());
        if threads <= 1 {
            // Inline fast path: no scope, no deques, no locking. No
            // worker means no task (both callers guarantee that).
            return match workers.first_mut() {
                Some(worker) => (0..count).map(|index| task(index, worker)).collect(),
                None => Vec::new(),
            };
        }

        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let locals: Vec<Worker<usize>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<usize>> = locals.iter().map(Worker::stealer).collect();
        // Seed round-robin so every thread starts with local work;
        // stealing rebalances if task costs are skewed.
        for (index, local) in (0..count).zip(locals.iter().cycle()) {
            local.push(index);
        }

        thread::scope(|scope| {
            let (slots, stealers, task) = (&slots, &stealers, &task);
            for (local, worker) in locals.into_iter().zip(workers.iter_mut()) {
                scope.spawn(move || {
                    while let Some(index) = next_task(&local, stealers) {
                        *slots[index].lock() = Some(task(index, worker));
                    }
                });
            }
        });

        slots
            .into_iter()
            // The deque seeding hands every index to exactly one
            // thread before the scope joins, so every slot is filled.
            // lint: allow(p1): invariant — every task index ran exactly once
            .map(|slot| slot.into_inner().expect("every task index ran exactly once"))
            .collect()
    }
}

/// Find-task loop: the thread's own deque first, then stealing from
/// its siblings until every deque is empty.
fn next_task(local: &Worker<usize>, stealers: &[Stealer<usize>]) -> Option<usize> {
    local.pop().or_else(|| {
        std::iter::repeat_with(|| stealers.iter().map(Stealer::steal).collect::<Steal<usize>>())
            .find(|steal| !steal.is_retry())
            .and_then(Steal::success)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(range: Range<usize>) -> f32 {
        // Deliberately order-sensitive accumulation (f32 addition is
        // non-associative) to catch any reduction-order drift.
        range.map(|i| 1.0f32 / (i as f32 + 1.0)).sum()
    }

    #[test]
    fn chunk_results_are_identical_across_thread_counts() {
        let reference: Vec<f32> =
            Pool::with_threads(1).parallel_chunks(1000, 37, |_, range| weights(range));
        for threads in [2, 3, 4, 8, 16] {
            let got =
                Pool::with_threads(threads).parallel_chunks(1000, 37, |_, range| weights(range));
            assert_eq!(reference.len(), got.len());
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn run_tasks_gives_each_task_its_own_state() {
        let mut states = vec![0u64; 13];
        let mut workers = vec![0usize; 4];
        let results =
            Pool::with_threads(4).run_tasks(&mut states, &mut workers, |index, state, ran| {
                *state = index as u64 + 1;
                *ran += 1;
                index * 10
            });
        assert_eq!(results, (0..13).map(|i| i * 10).collect::<Vec<usize>>());
        assert_eq!(states, (1..=13).collect::<Vec<u64>>());
        assert_eq!(workers.iter().sum::<usize>(), 13, "every task ran on one worker scratch");
    }

    #[test]
    fn run_tasks_uses_no_more_threads_than_scratches() {
        // Eight threads, two scratches: at most two threads run, and
        // every task lands in exactly one scratch's log.
        let mut logs = vec![Vec::new(); 2];
        let out = Pool::with_threads(8).run_tasks(0..40, &mut logs, |index, item, log| {
            log.push(index);
            item * 2
        });
        assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<usize>>());
        let mut all: Vec<usize> = logs.concat();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<usize>>());
        assert!(Pool::with_threads(3)
            .run_tasks(0..0, &mut [(); 0], |i, _: usize, ()| i)
            .is_empty());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let pool = Pool::with_threads(8);
        assert!(pool.parallel_chunks(0, 4, |_, r| r.len()).is_empty());
        assert_eq!(pool.parallel_chunks(3, 100, |_, r| r.len()), vec![3]);
        assert_eq!(pool.parallel_chunks(4, 0, |_, r| r.len()), vec![1; 4]);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(4).parallel_chunks(64, 1, |index, _| {
                assert!(index != 17, "boom");
                index
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn thread_override_takes_effect() {
        set_thread_override(Some(3));
        assert_eq!(Pool::new().threads(), 3);
        set_thread_override(None);
        assert!(Pool::new().threads() >= 1);
    }
}
