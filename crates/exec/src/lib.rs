//! The shared parallel execution layer for ringrt's hot paths.
//!
//! Every compute-bound loop in the workspace — Monte-Carlo ABU sampling,
//! service `ABU` fan-out, experiment sweeps — runs on one primitive: a
//! [`Pool`] of `threads − 1` long-lived helper threads that work beside
//! the calling thread. The helpers start on the pool's first parallel
//! [`Pool::map`] and are joined when the pool is dropped, so no call
//! spawns a thread.
//!
//! A `map` publishes a job. The caller and any idle helper claim chunks
//! of indices from the job's one atomic counter, and each chunk's results
//! land in that chunk's slot. When the counter runs out, the caller
//! withdraws the job, waits for the helpers still inside it, and joins
//! the slots in index order.
//!
//! # Determinism
//!
//! `map(n, f)` always returns `f(0), f(1), …, f(n-1)` **in index order**,
//! whatever the thread count or which thread ran which chunk. Combined
//! with per-index seed derivation ([`splitmix64`]) this is what lets
//! `BreakdownEstimator` promise bit-identical estimates at any width.
//!
//! # Nested parallelism
//!
//! A `map` issued from inside another map's item publishes its own job
//! and works it on the calling thread; helpers that are idle join in.
//! A caller waits only for helpers inside its own job, and they are
//! running its items, so nesting cannot deadlock: the worst case is
//! serial execution on the calling thread.
//!
//! # Thread-count policy
//!
//! [`Pool::from_env`] honors the `RINGRT_THREADS` environment variable
//! (clamped to ≥ 1) and falls back to
//! [`std::thread::available_parallelism`]. Set `RINGRT_THREADS=1` to force
//! every parallel path through its serial fallback — CI runs the whole
//! test suite under `RINGRT_THREADS=1`, `2`, and `4`.

#![warn(missing_docs)]

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use ringrt_obs::Recorder;

/// Environment variable overriding the worker thread count.
pub const THREADS_ENV: &str = "RINGRT_THREADS";

/// SplitMix64's finalizing mix: a bijective avalanche of all 64 bits.
///
/// Used to turn structured inputs (a master seed, a sample index, one word
/// of a parent RNG stream) into decorrelated per-task seeds. The constants
/// are Vigna's reference SplitMix64 — the same mixer the vendored
/// `rand::rngs::StdRng` uses to expand its seed.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `k`-th task seed from a master seed: the splitmix-style
/// stream `splitmix64(master + k·GOLDEN)`, statistically independent
/// across both `k` and nearby master seeds.
#[must_use]
pub fn derive_seed(master: u64, k: u64) -> u64 {
    splitmix64(master ^ splitmix64(k))
}

/// Parses a thread-count override string: `Some(n ≥ 1)` for a valid
/// positive integer, `None` otherwise (empty, garbage, or zero).
#[must_use]
pub fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The configured worker thread count: `RINGRT_THREADS` if set to a
/// positive integer, else the machine's available parallelism, else 1.
#[must_use]
pub fn configured_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .as_deref()
        .and_then(parse_threads)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cumulative counters for one pool: how much work ran and how it was
/// split. Cheap relaxed atomics, bumped once per call or chunk.
#[derive(Debug, Default)]
struct PoolCounters {
    parallel_runs: AtomicU64,
    serial_runs: AtomicU64,
    items: AtomicU64,
    chunks: AtomicU64,
}

/// A snapshot of a pool's lifetime counters (see [`Pool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured thread count: the caller plus `threads − 1` helpers.
    pub threads: usize,
    /// `map` calls published to the helpers.
    pub parallel_runs: u64,
    /// `map` calls answered inline (1 thread or ≤ 1 item).
    pub serial_runs: u64,
    /// Items processed across all calls.
    pub items: u64,
    /// Chunks claimed across all parallel calls.
    pub chunks: u64,
}

/// A work pool: a thread-count policy, usage counters, and `threads − 1`
/// helper threads started on the first parallel [`Pool::map`].
///
/// The pool is `Sync`; one instance can serve any number of concurrent
/// `map` calls, which share its helpers.
///
/// # Examples
///
/// ```
/// use ringrt_exec::Pool;
///
/// let pool = Pool::new(4);
/// let squares = pool.map(10, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
pub struct Pool {
    threads: usize,
    counters: PoolCounters,
    recorder: Arc<Recorder>,
    /// Fixed chunk size override (`None` = auto: ~4 claims per thread).
    chunk: Option<usize>,
    helpers: OnceLock<Helpers>,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("chunk", &self.chunk)
            .field("helpers_started", &self.helpers.get().is_some())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// A pool running `map` on the caller plus `threads − 1` helpers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero — need at least one worker thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        Pool {
            threads,
            counters: PoolCounters::default(),
            recorder: Arc::new(Recorder::disabled()),
            chunk: None,
            helpers: OnceLock::new(),
        }
    }

    /// Attaches a flight recorder: subsequent [`Pool::map`] calls emit an
    /// `exec`/`map` span per call and an `exec`/`chunk` span per claimed
    /// chunk (parallel runs), so pool fan-out shows up alongside the
    /// service and registry stages in `TRACE` output.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Overrides the per-claim chunk size (`0` restores the automatic
    /// policy of roughly four claims per thread). Exists so property
    /// tests can sweep pathological chunkings.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = (chunk > 0).then_some(chunk);
        self
    }

    /// A single-threaded pool: every `map` runs inline on the caller.
    #[must_use]
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// A pool sized by [`configured_threads`] (`RINGRT_THREADS` override,
    /// else available parallelism).
    #[must_use]
    pub fn from_env() -> Self {
        Pool::new(configured_threads())
    }

    /// The configured thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime usage counters, read in a single pass. Each field is an
    /// independent monotone counter, so the snapshot is internally
    /// consistent up to in-flight increments.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let c = &self.counters;
        PoolStats {
            threads: self.threads,
            parallel_runs: c.parallel_runs.load(Ordering::Relaxed),
            serial_runs: c.serial_runs.load(Ordering::Relaxed),
            items: c.items.load(Ordering::Relaxed),
            chunks: c.chunks.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every index in `0..n` and returns the results in
    /// index order, on the calling thread and the pool's helpers.
    ///
    /// Chunks of `(n / (4·threads)).max(1)` indices (or the
    /// [`Pool::with_chunk_size`] override) are claimed from one atomic
    /// counter, so a slow item delays only its own chunk.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of `f`, on the caller, once every chunk
    /// that was claimed has ended; no chunk is claimed after a panic.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.counters.items.fetch_add(n as u64, Ordering::Relaxed);
        let _map_span = self.recorder.span("exec", "map");
        if self.threads <= 1 || n <= 1 {
            self.counters.serial_runs.fetch_add(1, Ordering::Relaxed);
            return (0..n).map(f).collect();
        }
        self.counters.parallel_runs.fetch_add(1, Ordering::Relaxed);
        let chunk = self
            .chunk
            .unwrap_or_else(|| (n / (4 * self.threads)).max(1));
        let job = Job {
            f: &f,
            n,
            chunk,
            next: AtomicUsize::new(0),
            slots: (0..n.div_ceil(chunk)).map(|_| Mutex::new(None)).collect(),
            panic: Mutex::new(None),
            inside: AtomicUsize::new(0),
            pool: self,
        };
        let helpers = self
            .helpers
            .get_or_init(|| Helpers::start(self.threads - 1));
        let work: &(dyn Work + '_) = &job;
        // SAFETY: this only erases the borrow's lifetime; the type and the
        // pointer stay as they are. Helpers reach `job` only through the
        // queue entry published here. The `Published` guard, declared
        // after `job` and so dropped before it, also on unwind, removes
        // that entry and then waits, under the queue's lock, until no
        // helper is inside the job. A helper enters under that lock and
        // leaves through a guard that takes it, also on unwind, so once
        // the wait ends no thread holds the reference, and `job` (with
        // `f` and the slots it borrows) outlives every use.
        let work: &'static (dyn Work + 'static) =
            unsafe { std::mem::transmute::<&(dyn Work + '_), &'static (dyn Work + 'static)>(work) };
        let published = helpers.publish(work);
        job.run();
        drop(published);
        if let Some(payload) = lock(&job.panic).take() {
            panic::resume_unwind(payload);
        }
        let mut out = Vec::with_capacity(n);
        for slot in job.slots {
            out.extend(
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every chunk ran"),
            );
        }
        out
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(helpers) = self.helpers.take() {
            helpers.stop();
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A published `map` call, as the helpers see it.
trait Work: Sync {
    /// Claims and runs chunks until none are left.
    fn run(&self);
    /// Whether a chunk is left to claim.
    fn has_work(&self) -> bool;
    /// The helpers currently inside [`Work::run`], changed only under the
    /// queue's lock.
    fn inside(&self) -> &AtomicUsize;
}

/// One `map` call's state, on the caller's stack.
struct Job<'a, T, F> {
    f: &'a F,
    n: usize,
    chunk: usize,
    /// The first index not yet claimed.
    next: AtomicUsize,
    /// Each chunk's results, in index order.
    slots: Vec<Mutex<Option<Vec<T>>>>,
    /// The first panic of `f`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    inside: AtomicUsize,
    pool: &'a Pool,
}

impl<T, F> Work for Job<'_, T, F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fn run(&self) {
        loop {
            let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if lo >= self.n {
                return;
            }
            let hi = (lo + self.chunk).min(self.n);
            self.pool.counters.chunks.fetch_add(1, Ordering::Relaxed);
            let _chunk_span = self.pool.recorder.span("exec", "chunk");
            match panic::catch_unwind(AssertUnwindSafe(|| (lo..hi).map(self.f).collect())) {
                Ok(part) => *lock(&self.slots[lo / self.chunk]) = Some(part),
                Err(payload) => {
                    // Claim nothing more; the caller re-raises the panic.
                    self.next.store(self.n, Ordering::Relaxed);
                    lock(&self.panic).get_or_insert(payload);
                    return;
                }
            }
        }
    }

    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    fn inside(&self) -> &AtomicUsize {
        &self.inside
    }
}

/// The helper threads and the queue of published jobs they serve.
struct Helpers {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is published or the pool stops.
    published: Condvar,
    /// Signalled when a helper leaves a job.
    left: Condvar,
}

struct Queue {
    jobs: Vec<&'static (dyn Work + 'static)>,
    stop: bool,
}

impl Helpers {
    fn start(count: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: Vec::new(),
                stop: false,
            }),
            published: Condvar::new(),
            left: Condvar::new(),
        });
        let threads = (0..count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ringrt-exec-{i}"))
                    .spawn(move || shared.serve())
                    .expect("spawn an exec helper thread")
            })
            .collect();
        Helpers { shared, threads }
    }

    /// Queues `job` for the helpers until the returned guard drops.
    fn publish(&self, job: &'static (dyn Work + 'static)) -> Published<'_> {
        lock(&self.shared.queue).jobs.push(job);
        self.shared.published.notify_all();
        Published {
            shared: &self.shared,
            job,
        }
    }

    fn stop(self) {
        lock(&self.shared.queue).stop = true;
        self.shared.published.notify_all();
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// A published job: dropping it removes the job from the queue and waits
/// until no helper is inside it.
struct Published<'a> {
    shared: &'a Shared,
    job: &'static (dyn Work + 'static),
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        let mut queue = lock(&self.shared.queue);
        queue.jobs.retain(|j| !std::ptr::addr_eq(*j, self.job));
        while self.job.inside().load(Ordering::Relaxed) > 0 {
            queue = self
                .shared
                .left
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A helper inside a job: dropping it leaves the job under the queue's
/// lock and wakes the caller waiting for that.
struct Inside<'a> {
    shared: &'a Shared,
    job: &'static (dyn Work + 'static),
}

impl Drop for Inside<'_> {
    fn drop(&mut self) {
        let _queue = lock(&self.shared.queue);
        self.job.inside().fetch_sub(1, Ordering::Relaxed);
        self.shared.left.notify_all();
    }
}

impl Shared {
    /// A helper's life: run whichever published job has chunks left,
    /// sleep when none has, return when the pool stops.
    fn serve(&self) {
        let mut queue = lock(&self.queue);
        loop {
            if queue.stop {
                return;
            }
            let Some(&job) = queue.jobs.iter().find(|job| job.has_work()) else {
                queue = self
                    .published
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            job.inside().fetch_add(1, Ordering::Relaxed);
            let inside = Inside { shared: self, job };
            drop(queue);
            job.run();
            drop(inside);
            queue = lock(&self.queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    #[test]
    fn map_preserves_index_order() {
        let pool = Pool::new(8);
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let out = pool.map(n, |i| i * 3);
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn map_matches_serial_for_any_thread_count() {
        let serial = Pool::serial().map(123, |i| (i as u64).wrapping_mul(0x9E37));
        for threads in [2, 3, 5, 16] {
            let parallel = Pool::new(threads).map(123, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn map_actually_uses_multiple_threads() {
        let pool = Pool::new(4);
        let ids = Mutex::new(HashSet::new());
        // A short sleep per item keeps the caller from draining every
        // chunk before a helper wakes.
        pool.map(64, |_| {
            std::thread::sleep(Duration::from_micros(200));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(ids.lock().unwrap().len() > 1, "expected fan-out");
    }

    #[test]
    fn helpers_start_once_and_serve_every_later_map() {
        let pool = Pool::new(3);
        let helpers = Mutex::new(HashSet::new());
        let caller = std::thread::current().id();
        for _ in 0..20 {
            pool.map(16, |_| {
                std::thread::sleep(Duration::from_micros(100));
                let id = std::thread::current().id();
                if id != caller {
                    helpers.lock().unwrap().insert(id);
                }
            });
        }
        // Twenty maps, and never more than the two helpers started once.
        assert!(helpers.lock().unwrap().len() <= 2, "{helpers:?}");
        assert_eq!(pool.stats().parallel_runs, 20);
    }

    #[test]
    fn uneven_item_costs_rebalance() {
        // One slow item delays only its own chunk: the other threads
        // claim the rest from the counter meanwhile.
        let pool = Pool::new(4);
        let out = pool.map(32, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn stats_accumulate() {
        let pool = Pool::new(2);
        let _ = pool.map(10, |i| i);
        let _ = pool.map(0, |i| i);
        let s = pool.stats();
        assert_eq!(s.threads, 2);
        assert_eq!(s.items, 10);
        assert_eq!((s.parallel_runs, s.serial_runs), (1, 1));
        assert_eq!(s.chunks, 10, "auto chunks of (10 / 8).max(1) items");
    }

    #[test]
    fn nested_maps_finish_and_match_serial() {
        for threads in [2, 4] {
            let pool = &Pool::new(threads);
            let out = pool.map(6, |i| {
                std::thread::sleep(Duration::from_millis(1));
                pool.map(8, move |j| pool.map(3, move |k| i * 100 + j * 10 + k))
            });
            let serial: Vec<Vec<Vec<usize>>> = (0..6)
                .map(|i| {
                    (0..8)
                        .map(|j| (0..3).map(|k| i * 100 + j * 10 + k).collect())
                        .collect()
                })
                .collect();
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn maps_from_four_threads_at_once_match_serial() {
        let pool = Pool::new(3);
        let f = |salt: u64| move |i: usize| splitmix64(salt ^ i as u64);
        std::thread::scope(|scope| {
            for salt in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..25 {
                        let n = 50 + round * 7;
                        let serial: Vec<u64> = (0..n).map(f(salt)).collect();
                        assert_eq!(pool.map(n, f(salt)), serial, "salt {salt} round {round}");
                    }
                });
            }
        });
        assert_eq!(pool.stats().parallel_runs, 100);
    }

    #[test]
    fn chunk_override_still_matches_serial() {
        let serial = Pool::serial().map(97, |i| (i as u64).wrapping_mul(31));
        for chunk in [1usize, 2, 7, 97, 4096] {
            let pool = Pool::new(4).with_chunk_size(chunk);
            assert_eq!(
                pool.map(97, |i| (i as u64).wrapping_mul(31)),
                serial,
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        let caller = std::thread::current().id();
        let ran_on = pool.map(4, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
        assert_eq!(pool.stats().serial_runs, 1);
        assert!(
            pool.helpers.get().is_none(),
            "a serial pool starts no thread"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn splitmix_mixes_and_derive_decorrelates() {
        // Bijective mixer: distinct inputs stay distinct.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        // Neighboring (master, k) pairs land far apart.
        let s: Vec<u64> = (0..4).map(|k| derive_seed(7, k)).collect();
        for i in 0..s.len() {
            for j in 0..i {
                assert_ne!(s[i], s[j]);
                assert!((s[i] ^ s[j]).count_ones() > 8, "weak mixing");
            }
        }
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn attached_recorder_sees_map_and_chunk_spans() {
        let rec = Arc::new(Recorder::new());
        let pool = Pool::new(4).with_recorder(Arc::clone(&rec));
        let _ = pool.map(64, |i| i);
        let events = rec.drain(1024);
        assert!(
            events.iter().any(|e| e.cat == "exec" && e.name == "map"),
            "{events:?}"
        );
        assert!(
            events.iter().any(|e| e.cat == "exec" && e.name == "chunk"),
            "{events:?}"
        );
    }

    #[test]
    fn default_pool_records_nothing() {
        let pool = Pool::new(2);
        let _ = pool.map(16, |i| i);
        // The built-in recorder is disabled: no retained events.
        assert!(!pool.recorder.is_enabled());
        assert!(pool.recorder.drain(16).is_empty());
    }

    #[test]
    fn a_panic_reaches_the_caller_after_every_claimed_chunk_ends() {
        let pool = Pool::new(4).with_chunk_size(1);
        let (started, ended) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(64, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                assert!(i != 5, "boom");
                ended.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = result.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // Every item that started, bar the one that panicked, ended
        // before `map` returned, and claiming stopped at the panic.
        let (started, ended) = (started.into_inner(), ended.into_inner());
        assert_eq!(ended + 1, started);
        assert!(started < 64, "{started} items ran after the panic");
        // The pool still serves.
        assert_eq!(pool.map(8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_outside_the_items_still_withdraws_the_job() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        /// A panic payload whose first drop panics.
        struct Bomb;
        static ARMED: AtomicBool = AtomicBool::new(true);
        impl Drop for Bomb {
            fn drop(&mut self) {
                assert!(!ARMED.swap(false, Ordering::SeqCst), "a payload's drop");
            }
        }

        // Both items panic at once, on the caller and on the helper. The
        // second payload is dropped outside `catch_unwind`, and its drop
        // panics on whichever thread that is.
        let pool = Pool::new(2).with_chunk_size(1);
        let both = Barrier::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(2, |_| {
                both.wait();
                panic::panic_any(Bomb);
            })
        }));
        assert!(result.is_err());
        assert!(!ARMED.load(Ordering::SeqCst), "the second drop ran");
        // The job was withdrawn, and the pool still serves.
        assert_eq!(pool.map(8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_a_pool_joins_its_helpers() {
        use std::sync::atomic::AtomicBool;

        /// Set when the thread that holds it exits.
        struct OnExit(Arc<AtomicBool>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
        }

        let pool = Pool::new(3);
        let caller = std::thread::current().id();
        let flags = Mutex::new(Vec::new());
        pool.map(64, |_| {
            std::thread::sleep(Duration::from_micros(300));
            if std::thread::current().id() != caller {
                EXIT.with(|exit| {
                    exit.borrow_mut().get_or_insert_with(|| {
                        let flag = Arc::new(AtomicBool::new(false));
                        flags.lock().unwrap().push(Arc::clone(&flag));
                        OnExit(flag)
                    });
                });
            }
        });
        let flags = flags.into_inner().unwrap();
        assert!(!flags.is_empty(), "a helper ran items");
        assert!(flags.iter().all(|f| !f.load(Ordering::SeqCst)));
        drop(pool);
        assert!(
            flags.iter().all(|f| f.load(Ordering::SeqCst)),
            "every helper exited before drop returned"
        );
    }
}
