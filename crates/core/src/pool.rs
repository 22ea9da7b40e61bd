//! Scoped worker pool for the per-block ADM-G sub-problem phases.
//!
//! The paper's reformulation (13) makes the λ-step separable per front-end
//! and the μ/ν/a-steps separable per datacenter, so each prediction phase is
//! an embarrassingly parallel map over independent blocks. [`WorkerPool`]
//! fans such a map across scoped OS threads (no `'static` bounds, no
//! channels, no external dependencies) with a **sharded gather**: every
//! worker accumulates its contiguous chunk's results in its own shard
//! vector, and the shards are concatenated in spawn order after the join.
//! There is no shared result buffer, no coordinator channel, and no
//! per-item synchronization — at scaled instance sizes (thousands of
//! blocks per phase) the gather cost is one `memcpy` per shard instead of
//! one slot write + hole check per block. Because shard order equals chunk
//! order equals input order, results come back in input order no matter how
//! the OS schedules the workers, which is what makes parallel ADM-G runs
//! bit-identical to sequential ones. The calling thread processes the first
//! shard itself while the spawned workers chew on theirs, so a width-`k`
//! fan-out spawns only `k − 1` threads.
//!
//! Two callers fan out through it: the in-process solver's node phases,
//! and the inline fleet behind `ufc_distsim`'s lockstep engine, which maps
//! each command fan-out over the nodes it addresses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A fixed-width scoped-thread pool.
///
/// The pool itself is stateless apart from telemetry counters (threads are
/// spawned per call and joined before returning); what it provides is the
/// deterministic chunked fan-out used by [`crate::AdmgSolver`] and the
/// distributed lockstep engine's inline fleet.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
    /// Telemetry: items dispatched through [`WorkerPool::map_mut`].
    tasks: AtomicU64,
    /// Telemetry: [`WorkerPool::map_mut`] fan-outs run.
    maps: AtomicU64,
}

impl Clone for WorkerPool {
    /// Clones the pool *width*; the telemetry counters start at the values
    /// observed at clone time (a snapshot, since counters are per-pool).
    fn clone(&self) -> Self {
        WorkerPool {
            threads: self.threads,
            tasks: AtomicU64::new(self.tasks.load(Ordering::Relaxed)),
            maps: AtomicU64::new(self.maps.load(Ordering::Relaxed)),
        }
    }
}

impl WorkerPool {
    /// Creates a pool with the given width. `0` means "use all available
    /// cores" (via [`std::thread::available_parallelism`]); `1` runs every
    /// map inline on the calling thread. Widths beyond the machine's
    /// available parallelism are clamped down to it: the sub-problem maps
    /// are CPU-bound, so oversubscribing cores only adds spawn/join
    /// overhead, and because parallel runs are bit-identical to sequential
    /// ones the clamp can never change a result.
    ///
    /// The core count is read once per process and cached: std reads the
    /// cgroup CPU quota files on every query, which would otherwise cost
    /// every solve and every inline fleet tens of microseconds.
    #[must_use]
    pub fn new(num_threads: usize) -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let threads = if num_threads == 0 {
            cores
        } else {
            num_threads.min(cores)
        };
        WorkerPool::with_width(threads)
    }

    fn with_width(threads: usize) -> Self {
        WorkerPool {
            threads,
            tasks: AtomicU64::new(0),
            maps: AtomicU64::new(0),
        }
    }

    /// A pool of exactly `threads` workers, skipping the core-count clamp.
    /// Test-only: lets the chunked spawn path run even on small machines
    /// (crate-visible so the workspace/engine bit-identity tests can drive
    /// real multi-thread gathers regardless of the host's core count).
    #[cfg(test)]
    pub(crate) fn exact(threads: usize) -> Self {
        WorkerPool::with_width(threads)
    }

    /// Effective worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Telemetry: items dispatched through [`WorkerPool::map_mut`] since
    /// construction.
    #[must_use]
    pub fn tasks_dispatched(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Telemetry: [`WorkerPool::map_mut`] fan-outs run since construction.
    #[must_use]
    pub fn maps_run(&self) -> u64 {
        self.maps.load(Ordering::Relaxed)
    }

    /// Applies `f` to every item (receiving the item index and a mutable
    /// borrow), splitting the index space across up to `threads()` scoped
    /// threads. Each worker gathers its chunk's results into its own shard
    /// vector (no shared result buffer); the shards are concatenated in
    /// chunk order after the join, so results are returned in input order
    /// regardless of scheduling, and each invocation of `f` observes
    /// exactly the same inputs as a sequential run — parallel output is
    /// bit-identical to `items.iter_mut().enumerate().map(...)`.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        self.maps.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(items.len() as u64, Ordering::Relaxed);
        let threads = self.threads.min(items.len()).max(1);
        if threads <= 1 {
            return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = items.len().div_ceil(threads);
        let mut results: Vec<R> = Vec::with_capacity(items.len());
        std::thread::scope(|scope| {
            // Carve one disjoint contiguous chunk per worker. The first
            // chunk stays on the calling thread; the rest are spawned
            // before it runs so all shards execute concurrently.
            let (first, mut rest_items) = items.split_at_mut(chunk);
            let mut start = first.len();
            let mut handles = Vec::new();
            while !rest_items.is_empty() {
                let take = chunk.min(rest_items.len());
                let (head, tail) = rest_items.split_at_mut(take);
                rest_items = tail;
                let begin = start;
                start += take;
                let fref = &f;
                handles.push(scope.spawn(move || {
                    let mut shard = Vec::with_capacity(head.len());
                    for (off, item) in head.iter_mut().enumerate() {
                        shard.push(fref(begin + off, item));
                    }
                    shard
                }));
            }
            // Shard 0, inline. Index origin 0 ⇒ same arguments as the
            // sequential path.
            for (off, item) in first.iter_mut().enumerate() {
                results.push(f(off, item));
            }
            // Sharded gather: join in spawn order and splice each shard —
            // spawn order is chunk order is input order.
            for h in handles {
                results.append(&mut h.join().expect("worker thread panicked"));
            }
        });
        results
    }
}

impl Default for WorkerPool {
    /// A single-threaded (inline) pool.
    fn default() -> Self {
        WorkerPool::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_mutates_in_place() {
        let mut items: Vec<usize> = (0..37).collect();
        let out = WorkerPool::exact(4).map_mut(&mut items, |i, x| {
            assert_eq!(i, *x);
            *x += 100;
            *x * 2
        });
        assert_eq!(out, (0..37).map(|x| (x + 100) * 2).collect::<Vec<_>>());
        assert_eq!(items, (100..137).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let work = |i: usize, x: &mut f64| {
            // Non-trivial float arithmetic: parallel must match bit-for-bit.
            *x = (*x + i as f64).sin() * 1e6;
            (*x).to_bits()
        };
        for threads in [2, 4, 8] {
            let mut seq: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
            let mut par = seq.clone();
            let a = WorkerPool::new(1).map_mut(&mut seq, work);
            let b = WorkerPool::exact(threads).map_mut(&mut par, work);
            assert_eq!(a, b, "{threads} threads diverged");
            assert_eq!(seq, par);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut empty: Vec<i32> = vec![];
        let out: Vec<i32> = WorkerPool::exact(4).map_mut(&mut empty, |_, &mut x| x);
        assert!(out.is_empty());
        let mut one = vec![7];
        let out = WorkerPool::exact(16).map_mut(&mut one, |_, x| *x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn counts_maps_and_tasks() {
        let pool = WorkerPool::exact(2);
        let mut items = vec![0u32; 5];
        pool.map_mut(&mut items, |_, x| *x += 1);
        pool.map_mut(&mut items, |_, x| *x += 1);
        assert_eq!(pool.maps_run(), 2);
        assert_eq!(pool.tasks_dispatched(), 10);
        assert_eq!(pool.clone().tasks_dispatched(), 10, "clone snapshots");
    }

    #[test]
    fn width_resolution() {
        let cores = WorkerPool::new(0).threads();
        assert!(cores >= 1);
        // Explicit widths are honored up to the core count, then clamped.
        assert_eq!(WorkerPool::new(3).threads(), 3.min(cores));
        assert_eq!(WorkerPool::new(1).threads(), 1);
        assert_eq!(WorkerPool::default().threads(), 1);
    }
}
