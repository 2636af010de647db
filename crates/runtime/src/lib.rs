//! Deterministic worker-pool runtime for batch solves.
//!
//! Every hot loop in this workspace — PSO generation evaluation, the
//! IBP→CROWN→exact verifier ladder, QoS admission sweeps — consists of
//! *independent* work items. This crate provides the one seam they all
//! share: scoped-thread fan-out with results reassembled in input order,
//! so the output of a parallel run is **bit-identical** to the serial run
//! whenever the per-item computation is itself deterministic.
//!
//! Design rules that make determinism hold by construction:
//!
//! * results are collected per item index and reassembled in input order —
//!   never in completion order;
//! * work distribution affects only *which thread* computes an item, not
//!   what the item computation sees (callers derive per-item RNG streams
//!   with [`seed_stream`] instead of sharing one generator);
//! * `workers == 1` bypasses thread spawn entirely and runs inline, so
//!   the serial path is the exact same code as one parallel worker.
//!
//! Worker counts resolve through [`resolve_workers`]: `0` means "auto" —
//! the `RCR_WORKERS` environment variable if set, else `1` (serial).
//! `RCR_WORKERS=auto` resolves to [`std::thread::available_parallelism`].
//! The conservative default keeps library behaviour unchanged for existing
//! callers; opting into parallelism is an explicit settings-field or
//! environment decision.
//!
//! Long-running callers (the `rcr-serve` batcher, repeated bench
//! iterations) can avoid re-spawning threads for every batch with a
//! [`WorkerPool`]: the same ordered fan-out contract as [`parallel_map`],
//! but over a fixed set of long-lived worker threads reused across
//! batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Environment variable consulted by [`resolve_workers`] when a caller
/// passes `0` ("auto").
pub const WORKERS_ENV: &str = "RCR_WORKERS";

/// Resolves a requested worker count to an effective one.
///
/// * `requested > 0` → used as-is;
/// * `requested == 0` ("auto") → `RCR_WORKERS` if set to a positive
///   integer or to the literal `auto` (case-insensitive, resolved via
///   [`std::thread::available_parallelism`]), else `1` (serial).
///
/// The auto default is deliberately serial: parallelism is opt-in, and
/// results do not depend on the choice (see crate docs), so a conservative
/// default costs nothing but predictability.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| parse_workers_spec(&v))
        .unwrap_or(1)
}

/// Parses one `RCR_WORKERS` value: a positive integer, or `auto` for the
/// machine's available parallelism. Anything else (including `0`) is
/// rejected so [`resolve_workers`] falls back to serial.
fn parse_workers_spec(value: &str) -> Option<usize> {
    let value = value.trim();
    if value.eq_ignore_ascii_case("auto") {
        // rcr-lint: allow(determinism-taint, reason = "worker count feeds scheduling only; parallel_map is order-deterministic for any worker count (PR1 invariant)")
        return std::thread::available_parallelism().ok().map(|n| n.get());
    }
    value.parse::<usize>().ok().filter(|&n| n > 0)
}

/// Derives the seed for an independent per-item RNG stream from a base
/// seed and the item's index.
///
/// SplitMix64 over `base ⊕ φ·(index+1)` decorrelates streams even for
/// adjacent indices and small bases; the same `(base, index)` pair always
/// yields the same stream regardless of worker count or scheduling.
pub fn seed_stream(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f` to every item, fanning out across `workers` scoped threads,
/// and returns the results **in input order**.
///
/// `workers` is used as given (callers resolve "auto" via
/// [`resolve_workers`] first). With `workers <= 1` or fewer than two
/// items, runs inline with no thread spawned. Items are claimed from a
/// shared atomic counter, so uneven item costs balance automatically; the
/// claim order never influences results because each result lands in its
/// item's slot.
///
/// Panics in `f` propagate to the caller after the scope unwinds.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let n = items.len();
    let threads = workers.min(n);
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                collected
                    .lock()
                    .expect("runtime: worker poisoned result mutex")
                    .extend(local);
            });
        }
    });

    let mut pairs = collected
        .into_inner()
        // rcr-lint: allow(no-unwrap-in-lib, reason = "mutex poisoning means a worker already panicked; propagating that panic is the bounded response")
        .expect("runtime: result mutex poisoned after scope");
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Mutates every item in place, fanning contiguous chunks across
/// `workers` scoped threads.
///
/// The slice is split into `workers` nearly-equal contiguous chunks, one
/// per thread — each item is visited exactly once, and `f` receives the
/// item's index in the original slice. With `workers <= 1` or fewer than
/// two items, runs inline.
pub fn parallel_map_mut<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if workers <= 1 || n < 2 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    let threads = workers.min(n);
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, piece) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (j, item) in piece.iter_mut().enumerate() {
                    f(c * chunk + j, item);
                }
            });
        }
    });
}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of long-lived worker threads reused across batches.
///
/// [`parallel_map`] spawns scoped threads per call, which is fine for the
/// coarse offline workloads it serves but wasteful for a service draining
/// many small batches per second. `WorkerPool` keeps `workers` threads
/// parked on a shared queue; [`WorkerPool::execute`] fans a batch across
/// them with the exact ordered-reassembly contract of [`parallel_map`]:
/// results land by item index, so output never depends on scheduling.
///
/// A pool with `workers <= 1` spawns no threads at all and executes
/// inline — the serial path stays the same code as one parallel worker.
/// Dropping the pool closes the queue and joins every thread.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    sender: Option<mpsc::Sender<PoolJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool of `workers` long-lived threads (`0` is resolved
    /// via [`resolve_workers`]; the result is clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = resolve_workers(workers).max(1);
        if workers == 1 {
            return WorkerPool {
                workers,
                sender: None,
                handles: Vec::new(),
            };
        }
        let (sender, receiver) = mpsc::channel::<PoolJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    let job = {
                        let guard = receiver.lock().expect("runtime: pool queue mutex poisoned");
                        guard.recv()
                    };
                    match job {
                        // A panicking job must not take the whole pool
                        // down with it; `execute` re-raises on collect.
                        Ok(job) => {
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        Err(_) => break, // pool dropped: queue closed
                    }
                })
            })
            .collect();
        WorkerPool {
            workers,
            sender: Some(sender),
            handles,
        }
    }

    /// The number of worker threads (1 means inline execution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item on the pool and returns the results in
    /// input order — the persistent-pool counterpart of [`parallel_map`].
    ///
    /// Items are claimed from a shared counter exactly as in
    /// [`parallel_map`], so uneven costs balance across threads while the
    /// output stays bit-identical to the serial run for deterministic
    /// `f`. The `'static` bounds exist because the threads outlive the
    /// call; `execute` itself blocks until the whole batch is done.
    ///
    /// # Panics
    /// Propagates (as a panic) any panic raised by `f`.
    pub fn execute<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let Some(sender) = (if n >= 2 { self.sender.as_ref() } else { None }) else {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        };

        let items = Arc::new(items);
        let f = Arc::new(f);
        let next = Arc::new(AtomicUsize::new(0));
        let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();
        for _ in 0..self.workers.min(n) {
            let items = Arc::clone(&items);
            let f = Arc::clone(&f);
            let next = Arc::clone(&next);
            let result_tx = result_tx.clone();
            let job: PoolJob = Box::new(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                if result_tx.send((i, r)).is_err() {
                    break;
                }
            });
            sender
                .send(job)
                // rcr-lint: allow(no-unwrap-in-lib, reason = "send only fails when every worker died, which itself carries a panic; fail loudly, not silently")
                .expect("runtime: pool worker threads exited early");
        }
        drop(result_tx);

        let mut pairs: Vec<(usize, R)> = Vec::with_capacity(n);
        while let Ok(pair) = result_rx.recv() {
            pairs.push(pair);
        }
        assert_eq!(
            pairs.len(),
            n,
            "runtime: a pool task panicked before completing its items"
        );
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.sender.take(); // closes the queue; workers observe RecvError
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 3, 8, 200] {
            let out = parallel_map(&items, workers, |i, &x| (i as u64) * 1000 + x * x);
            let expect: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as u64) * 1000 + x * x)
                .collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn map_mut_visits_each_item_once_with_correct_index() {
        let mut items: Vec<(usize, u32)> = (0..57).map(|i| (i, 0)).collect();
        parallel_map_mut(&mut items, 4, |i, slot| {
            assert_eq!(slot.0, i);
            slot.1 += 1;
        });
        assert!(items.iter().all(|&(_, count)| count == 1));
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7], 4, |_, &x| x * 2), vec![14]);
        let mut one = [3i32];
        parallel_map_mut(&mut one, 4, |_, x| *x += 1);
        assert_eq!(one, [4]);
    }

    #[test]
    fn seed_streams_are_stable_and_distinct() {
        let a = seed_stream(42, 0);
        assert_eq!(a, seed_stream(42, 0));
        let streams: Vec<u64> = (0..64).map(|i| seed_stream(42, i)).collect();
        let mut dedup = streams.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), streams.len(), "stream collision");
        assert_ne!(seed_stream(42, 0), seed_stream(43, 0));
    }

    #[test]
    fn resolve_workers_explicit_wins() {
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(resolve_workers(1), 1);
        // `0` consults the environment; without RCR_WORKERS it is serial.
        // (Not asserting the env-set branch here to keep tests
        // environment-independent.)
        if std::env::var(WORKERS_ENV).is_err() {
            assert_eq!(resolve_workers(0), 1);
        }
    }

    #[test]
    fn workers_spec_parses_integers_and_auto() {
        assert_eq!(parse_workers_spec("3"), Some(3));
        assert_eq!(parse_workers_spec(" 8 "), Some(8));
        assert_eq!(parse_workers_spec("0"), None);
        assert_eq!(parse_workers_spec("-2"), None);
        assert_eq!(parse_workers_spec("many"), None);
        assert_eq!(parse_workers_spec(""), None);
        let auto = parse_workers_spec("auto");
        assert_eq!(
            auto,
            std::thread::available_parallelism().ok().map(|n| n.get())
        );
        assert_eq!(parse_workers_spec("AUTO"), auto);
        assert_eq!(parse_workers_spec(" Auto "), auto);
        if let Some(n) = auto {
            assert!(n >= 1);
        }
    }

    #[test]
    fn pool_matches_parallel_map_across_batches() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        // The same pool handle serves many batches of different shapes.
        for len in [0usize, 1, 2, 7, 64, 257] {
            let items: Vec<u64> = (0..len as u64).collect();
            let via_pool = pool.execute(items.clone(), |i, &x| x * 3 + i as u64);
            let via_map = parallel_map(&items, 4, |i, &x| x * 3 + i as u64);
            assert_eq!(via_pool, via_map, "len = {len}");
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let out = pool.execute(vec![1i32, 2, 3], |i, &x| x + i as i32);
        assert_eq!(out, vec![1, 3, 5]);
    }
}
