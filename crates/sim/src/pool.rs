//! A std-only parallel sweep pool.
//!
//! Campaign-level parallelism used to shard work one-thread-per-site,
//! which caps the usable cores at the site count and leaves threads idle
//! behind the slowest site. This module replaces that with a shared
//! work queue: tasks are claimed dynamically off an [`AtomicUsize`]
//! cursor by `std::thread::scope` workers, so many small tasks
//! (e.g. one *(satellite × window)* pass prediction each) balance across
//! every core regardless of how uneven their durations are.
//!
//! Results come back in input order, so callers that merge sequentially
//! (and campaigns that must stay bit-for-bit deterministic) see exactly
//! the ordering a serial loop would produce — only wall-clock changes.
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be pinned with [`set_thread_count`] (values `>= 1`; `1`
//! forces a serial in-place run). Campaign entry points wire the
//! `SATIOT_THREADS` environment variable through here via
//! `satiot_core::RunOptions::from_env().apply()` — this module itself
//! never reads the environment.
//!
//! ```
//! use satiot_sim::pool;
//!
//! let squares = pool::parallel_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use satiot_obs::metrics::{Counter, Gauge, Histogram, TIMER_BOUNDS_S};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Tasks executed across all pool invocations (metrics).
static TASKS_EXECUTED: Counter = Counter::new("sim.pool.tasks_executed");
/// Workers spawned across all pool invocations (metrics).
static WORKERS_SPAWNED: Counter = Counter::new("sim.pool.workers_spawned");
/// Worker count of the most recent pool invocation (metrics).
static WORKERS: Gauge = Gauge::new("sim.pool.workers");
/// Per-task execution time (metrics).
static TASK_S: Histogram = Histogram::new("sim.pool.task_s", TIMER_BOUNDS_S);
/// Per-worker idle time: wall-clock inside the scope minus time spent
/// executing tasks — queue-drained tail waiting (metrics).
static WORKER_IDLE_S: Histogram = Histogram::new("sim.pool.worker_idle_s", TIMER_BOUNDS_S);

/// Pinned worker count; `0` means "not pinned, use the machine".
static PINNED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Pin the pool's worker count process-wide (`Some(n)` with `n >= 1`),
/// or restore the machine default with `None`. Typed campaign options
/// (`satiot_core::RunOptions`) call this from `apply()`.
pub fn set_thread_count(threads: Option<usize>) {
    PINNED_THREADS.store(threads.unwrap_or(0), Relaxed);
}

/// The pool's worker count: the value pinned via [`set_thread_count`]
/// when set, otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    match PINNED_THREADS.load(Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Map `f` over `items` on the shared work queue with [`thread_count`]
/// workers, returning results in input order. `f` receives the item's
/// index alongside the item.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, thread_count(), f)
}

/// [`parallel_map`] with an explicit worker count (benches pin it to
/// compare sharding strategies; `threads <= 1` runs serially in place).
pub fn parallel_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        TASKS_EXECUTED.add(items.len() as u64);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let workers = threads.min(items.len());
    WORKERS.set(workers as i64);
    WORKERS_SPAWNED.add(workers as u64);

    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let born = Instant::now();
                    let mut busy = Duration::ZERO;
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        local.push((i, f(i, &items[i])));
                        let dt = t0.elapsed();
                        busy += dt;
                        TASKS_EXECUTED.inc();
                        TASK_S.record(dt.as_secs_f64());
                    }
                    WORKER_IDLE_S.record(born.elapsed().saturating_sub(busy).as_secs_f64());
                    local
                })
            })
            .collect();
        for h in handles {
            buckets.push(h.join().expect("pool worker panicked"));
        }
    });

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("work queue claimed every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_with(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let serial = parallel_map_with(&items, 1, |_, &x| {
            x.wrapping_mul(0x9E37_79B9).rotate_left(7)
        });
        let parallel = parallel_map_with(&items, 6, |_, &x| {
            x.wrapping_mul(0x9E37_79B9).rotate_left(7)
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let runs: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        parallel_map_with(&runs, 4, |_, cell| cell.fetch_add(1, Relaxed));
        for cell in &runs {
            assert_eq!(cell.load(Relaxed), 1);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn pinned_thread_count_round_trips() {
        set_thread_count(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_count(None);
        assert!(thread_count() >= 1);
    }
}
