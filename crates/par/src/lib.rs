//! Deterministic multi-core execution layer for Fusion-3D.
//!
//! The simulator's hot paths — frame rendering, training steps, and
//! scene-level experiment sweeps — are embarrassingly parallel, but a
//! research codebase lives or dies on reproducibility. This crate
//! provides a scoped worker [`Pool`] built on `std::thread::scope` and
//! crossbeam work-stealing deques with a hard determinism contract:
//!
//! **the result of every combinator is bitwise-identical for any
//! thread count, including 1.**
//!
//! Three rules make that hold:
//!
//! 1. *Work decomposition never looks at the thread count.* Chunk
//!    boundaries depend only on the input length and the requested
//!    chunk size, so the same call produces the same chunks whether
//!    one worker or sixteen execute them.
//! 2. *Each chunk writes to its own index-addressed slot.* Workers
//!    race over which chunk they grab next (stealing balances load),
//!    but never over where a result lands.
//! 3. *Reduction runs on the calling thread in chunk-index order.*
//!    Floating-point accumulation is not associative, so the merge
//!    order is fixed regardless of completion order.
//!
//! Thread count comes from the `FUSION3D_THREADS` environment
//! variable (default: [`std::thread::available_parallelism`]), with a
//! process-wide programmatic override ([`set_thread_override`]) for
//! benchmarks that sweep thread counts.

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
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
    // The pool's determinism contract makes every combinator
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
/// alive between calls); each combinator spins up a `thread::scope`
/// for its duration, which also propagates worker panics to the
/// caller.
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
        self.parallel_chunks_with(len, chunk_size, || (), |index, range, ()| work(index, range))
    }

    /// [`Pool::parallel_chunks`] with worker-local scratch: `init`
    /// builds one scratch value per worker thread, and every chunk
    /// that worker executes receives `&mut` access to it. This is how
    /// the batched NeRF kernels reuse their SoA buffers across rays
    /// without allocating per chunk.
    ///
    /// Determinism contract: `work` must treat the scratch as working
    /// memory only — every output must be a pure function of the chunk
    /// (the scratch may carry capacity, never values that leak into
    /// results). Under that contract the output is bitwise-identical
    /// for any thread count, because chunk geometry and result slots
    /// never depend on which worker ran a chunk.
    pub fn parallel_chunks_with<T, S, I, F>(
        &self,
        len: usize,
        chunk_size: usize,
        init: I,
        work: F,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, Range<usize>, &mut S) -> T + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let ranges: Vec<Range<usize>> =
            (0..len.div_ceil(chunk_size)).map(|i| chunk_range(i, chunk_size, len)).collect();
        self.run_indexed_with(ranges.len(), init, |index, state| {
            work(index, ranges[index].clone(), state)
        })
    }

    /// [`Pool::parallel_chunks`] followed by a fixed-order fold on the
    /// calling thread: chunks map in parallel, then reduce strictly in
    /// chunk-index order, so non-associative (floating-point)
    /// reductions stay deterministic.
    pub fn parallel_map_reduce<T, A, F, R>(
        &self,
        len: usize,
        chunk_size: usize,
        work: F,
        init: A,
        reduce: R,
    ) -> A
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
        R: FnMut(A, T) -> A,
    {
        self.parallel_chunks(len, chunk_size, work).into_iter().fold(init, reduce)
    }

    /// [`Pool::parallel_chunks`] where each chunk yields a `Vec`,
    /// flattened in chunk order into one output vector.
    pub fn parallel_flat_map<T, F>(&self, len: usize, chunk_size: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> Vec<T> + Sync,
    {
        self.parallel_flat_map_with(len, chunk_size, || (), |index, range, ()| work(index, range))
    }

    /// [`Pool::parallel_chunks_with`] where each chunk yields a `Vec`,
    /// flattened in chunk order into one output vector. The scratch
    /// contract of [`Pool::parallel_chunks_with`] applies.
    pub fn parallel_flat_map_with<T, S, I, F>(
        &self,
        len: usize,
        chunk_size: usize,
        init: I,
        work: F,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, Range<usize>, &mut S) -> Vec<T> + Sync,
    {
        let chunks = self.parallel_chunks_with(len, chunk_size, init, work);
        let total = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }

    /// Runs one task per item of `states`, handing task `i` the `i`-th
    /// item (typically a `&mut` shard struct or a disjoint output
    /// slice) and the scratch of the worker that runs it. Results come
    /// back in task-index order. This is the shard primitive: callers
    /// keep one accumulator per shard, merge them in shard order
    /// afterwards, and keep their working memory in `workers`, which
    /// persists across calls.
    ///
    /// At most `workers.len()` threads run the tasks, and each holds
    /// one element of `workers` for the whole call. The scratch
    /// contract of [`Pool::parallel_chunks_with`] applies: a task's
    /// result and writes must not depend on what an earlier task left
    /// in its worker's scratch.
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
        // Wrap each state in a Mutex slot so tasks can be stolen by
        // any worker; the index-per-task discipline means every lock
        // is uncontended.
        let slots: Vec<Mutex<Option<S>>> =
            states.into_iter().map(|s| Mutex::new(Some(s))).collect();
        assert!(slots.is_empty() || !workers.is_empty(), "run_tasks needs a worker scratch");
        // Each worker thread takes the next scratch once, at start-up,
        // so no two threads share one.
        let pool = Pool::with_threads(self.threads.min(workers.len()));
        let scratch = Mutex::new(workers.iter_mut());
        pool.run_indexed_with(
            slots.len(),
            || scratch.lock().next(),
            |index, worker| match (slots[index].lock().take(), worker) {
                (Some(state), Some(worker)) => work(index, state, worker),
                // lint: allow(p1): invariant — each task index runs once,
                // and no more threads start than there are scratches
                _ => unreachable!("task {index} ran twice or without a scratch"),
            },
        )
    }

    /// [`Pool::parallel_chunks_with`] that also reports per-worker
    /// scheduling statistics for the dispatch. The chunk results obey
    /// the usual determinism contract; the [`DispatchStats`] do **not**
    /// (work stealing makes the task→worker assignment depend on
    /// timing), so treat them as diagnostic only.
    pub fn parallel_chunks_with_stats<T, S, I, F>(
        &self,
        len: usize,
        chunk_size: usize,
        init: I,
        work: F,
    ) -> (Vec<T>, DispatchStats)
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, Range<usize>, &mut S) -> T + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let ranges: Vec<Range<usize>> =
            (0..len.div_ceil(chunk_size)).map(|i| chunk_range(i, chunk_size, len)).collect();
        self.run_indexed_with_stats(ranges.len(), init, |index, state| {
            work(index, ranges[index].clone(), state)
        })
    }

    /// Core dispatch: executes `task(0..count)` across the pool and
    /// collects results into index-addressed slots. Work distribution
    /// (round-robin seeding + stealing) affects only *who* runs a
    /// task, never *where* its result lands. Each worker thread builds
    /// one scratch value with `init` and hands it to every task it
    /// executes; results must not depend on the scratch's history (see
    /// [`Pool::parallel_chunks_with`]).
    fn run_indexed_with<T, S, I, F>(&self, count: usize, init: I, task: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        self.run_indexed_with_stats(count, init, task).0
    }

    /// [`Pool::run_indexed_with`] plus per-worker task counts. The
    /// counting is one local `u64` increment per task — noise next to
    /// any real chunk — so the plain combinators share this path.
    fn run_indexed_with_stats<T, S, I, F>(
        &self,
        count: usize,
        init: I,
        task: F,
    ) -> (Vec<T>, DispatchStats)
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        if count == 0 {
            return (Vec::new(), DispatchStats::default());
        }
        let workers = self.threads.min(count);
        if workers <= 1 {
            // Inline fast path: no scope, no deques, no locking.
            let mut state = init();
            let out = (0..count).map(|index| task(index, &mut state)).collect();
            return (out, DispatchStats { tasks_per_worker: vec![count as u64] });
        }

        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let counts: Vec<Mutex<u64>> = (0..workers).map(|_| Mutex::new(0)).collect();
        let injector = Injector::new();
        let locals: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<usize>> = locals.iter().map(Worker::stealer).collect();
        // Seed round-robin so every worker starts with local work;
        // stealing rebalances if chunk costs are skewed.
        for (index, local) in (0..count).zip(locals.iter().cycle()) {
            local.push(index);
        }

        thread::scope(|scope| {
            let (slots, counts) = (&slots, &counts);
            let (injector, stealers) = (&injector, &stealers);
            let (init, task) = (&init, &task);
            for (worker, local) in locals.into_iter().enumerate() {
                scope.spawn(move || {
                    let local = local;
                    let mut state = init();
                    let mut done: u64 = 0;
                    while let Some(index) = next_task(&local, injector, stealers) {
                        *slots[index].lock() = Some(task(index, &mut state));
                        done += 1;
                    }
                    *counts[worker].lock() = done;
                });
            }
        });

        let stats =
            DispatchStats { tasks_per_worker: counts.into_iter().map(Mutex::into_inner).collect() };
        let out = slots
            .into_iter()
            // The deque seeding hands every index to exactly one
            // worker before the scope joins, so every slot is filled.
            // lint: allow(p1): invariant — every task index ran exactly once
            .map(|slot| slot.into_inner().expect("every task index ran exactly once"))
            .collect();
        (out, stats)
    }
}

/// Per-worker scheduling statistics from one pool dispatch.
///
/// **Diagnostic only.** The task→worker assignment comes from work
/// stealing, so these numbers vary run to run and with the thread
/// count; they are deliberately excluded from the determinism
/// contract. Record them through the `obs`-feature
/// `DispatchStats::record`, which flags every entry diagnostic so it
/// stays out of `fusion3d_obs::Report::deterministic_jsonl`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Number of tasks each worker thread executed, indexed by worker.
    pub tasks_per_worker: Vec<u64>,
}

impl DispatchStats {
    /// Number of worker threads that participated in the dispatch.
    pub fn workers(&self) -> usize {
        self.tasks_per_worker.len()
    }

    /// Total tasks executed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().copied().fold(0u64, u64::saturating_add)
    }

    /// Load balance in `[0, 1]`: mean worker load over the busiest
    /// worker's load (1.0 = perfectly even). Empty dispatches report
    /// 1.0.
    pub fn balance(&self) -> f64 {
        let max = self.tasks_per_worker.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.total_tasks() as f64 / self.workers() as f64;
        mean / max as f64
    }

    /// Records the dispatch as **diagnostic** metrics under
    /// `{prefix}.`: per-worker task counters
    /// (`{prefix}.worker.{i}.tasks`), the worker count, and the
    /// [`DispatchStats::balance`] gauge. Diagnostic because the values
    /// are scheduling-dependent; they never appear in the
    /// deterministic export stream.
    #[cfg(feature = "obs")]
    pub fn record(&self, prefix: &str, metrics: &mut fusion3d_obs::Metrics) {
        for (worker, &tasks) in self.tasks_per_worker.iter().enumerate() {
            metrics.diagnostic_counter_add(
                &format!("{prefix}.worker.{worker}.tasks"),
                "tasks",
                tasks,
            );
        }
        metrics.diagnostic_counter_add(
            &format!("{prefix}.workers"),
            "threads",
            self.workers() as u64,
        );
        metrics.diagnostic_gauge_set(&format!("{prefix}.balance"), "ratio", self.balance());
    }
}

/// Fixed chunk geometry: chunk `i` covers
/// `[i * chunk_size, min((i + 1) * chunk_size, len))`.
fn chunk_range(index: usize, chunk_size: usize, len: usize) -> Range<usize> {
    let start = index * chunk_size;
    start..((start + chunk_size).min(len))
}

/// Standard crossbeam find-task loop: local deque first, then the
/// global injector, then stealing from siblings.
fn next_task(
    local: &Worker<usize>,
    injector: &Injector<usize>,
    stealers: &[Stealer<usize>],
) -> Option<usize> {
    local.pop().or_else(|| {
        std::iter::repeat_with(|| {
            injector
                .steal_batch_and_pop(local)
                .or_else(|| stealers.iter().map(Stealer::steal).collect())
        })
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
    fn dispatch_stats_cover_every_task_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let (out, stats) = Pool::with_threads(threads).parallel_chunks_with_stats(
                1000,
                37,
                || (),
                |_, range, ()| weights(range),
            );
            assert_eq!(out.len(), 1000usize.div_ceil(37));
            assert_eq!(stats.total_tasks(), out.len() as u64, "threads={threads}");
            assert!(stats.workers() <= threads);
            let balance = stats.balance();
            assert!((0.0..=1.0).contains(&balance), "balance={balance}");
        }
    }

    #[test]
    fn dispatch_stats_results_stay_deterministic() {
        let reference: Vec<f32> =
            Pool::with_threads(1).parallel_chunks(1000, 37, |_, range| weights(range));
        let (got, _stats) = Pool::with_threads(4).parallel_chunks_with_stats(
            1000,
            37,
            || (),
            |_, range, ()| weights(range),
        );
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_dispatch_stats_are_benign() {
        let stats = DispatchStats::default();
        assert_eq!(stats.total_tasks(), 0);
        assert_eq!(stats.workers(), 0);
        assert_eq!(stats.balance(), 1.0);
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
    fn map_reduce_is_bitwise_stable() {
        let reference = Pool::with_threads(1).parallel_map_reduce(
            5000,
            61,
            |_, r| weights(r),
            0.0f32,
            |a, x| a + x,
        );
        for threads in [2, 4, 7] {
            let got = Pool::with_threads(threads).parallel_map_reduce(
                5000,
                61,
                |_, r| weights(r),
                0.0f32,
                |a, x| a + x,
            );
            assert_eq!(reference.to_bits(), got.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn flat_map_preserves_element_order() {
        let out = Pool::with_threads(4)
            .parallel_flat_map(100, 7, |_, range| range.collect::<Vec<usize>>());
        assert_eq!(out, (0..100).collect::<Vec<usize>>());
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
    fn chunks_with_scratch_are_identical_across_thread_counts() {
        // Worker-local scratch (a reused buffer) must not perturb
        // results: each chunk overwrites the part of the scratch it
        // reads, so outputs stay a pure function of the chunk.
        let run = |threads: usize| {
            Pool::with_threads(threads).parallel_chunks_with(
                997,
                23,
                Vec::<f32>::new,
                |_, range, scratch| {
                    scratch.clear();
                    scratch.extend(range.map(|i| 1.0f32 / (i as f32 + 1.0)));
                    scratch.iter().sum::<f32>()
                },
            )
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            let got = run(threads);
            assert_eq!(reference.len(), got.len());
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn flat_map_with_scratch_preserves_element_order() {
        let out = Pool::with_threads(4).parallel_flat_map_with(
            100,
            7,
            || 0usize,
            |_, range, seen| {
                *seen += range.len();
                range.collect::<Vec<usize>>()
            },
        );
        assert_eq!(out, (0..100).collect::<Vec<usize>>());
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
