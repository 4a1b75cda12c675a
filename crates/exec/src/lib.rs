//! The shared parallel execution layer for ringrt's hot paths.
//!
//! Every compute-bound loop in the workspace — Monte-Carlo ABU sampling,
//! service `ABU`/`BATCH` fan-out, experiment sweeps — runs on the same primitive: a **sharded, work-stealing,
//! scoped pool** built from nothing but `std::thread::scope` and one
//! atomic word per worker group. There is no persistent thread pool and
//! no channel machinery: a [`Pool`] is a thread-count policy plus an
//! arbitration counter, and each [`Pool::map`] call spawns scoped
//! workers, seeds each with its own contiguous index range (a
//! shard packed into one `AtomicU64`), and lets idle
//! workers steal half-ranges from the busiest victim when their own
//! shard runs dry.
//!
//! Compared to the original single shared cursor, the common case —
//! evenly priced items — touches only the worker's *own* cache line,
//! and the uncommon case — one pathologically slow item — rebalances by
//! splitting the straggler's remaining range instead of serializing
//! behind it.
//!
//! # Determinism
//!
//! `map(n, f)` always returns `f(0), f(1), …, f(n-1)` **in index order**
//! regardless of thread count, stealing, or scheduling: workers collect
//! `(start, results)` runs locally and the runs are merge-sorted by
//! start index before returning. Combined with per-index seed derivation
//! ([`splitmix64`]) this is what lets `BreakdownEstimator` promise
//! bit-identical estimates at any thread count — with stealing active.
//!
//! # Nested parallelism
//!
//! A `map` issued from *inside* a pool worker (a huge analytic job
//! splitting its sample work) is arbitrated against the pool's live
//! worker count: it may claim only idle slots plus the caller's own
//! (the caller parks while the scope runs), and when nothing is idle it
//! degrades to an inline serial loop. Arbitration never blocks waiting
//! for slots, so nesting can never deadlock — the worst case is serial
//! execution on the calling thread. Top-level calls arbitrate the same
//! way, so concurrent `BATCH` fan-out cannot oversubscribe the machine.
//!
//! # Affinity
//!
//! Workers are spawned affinity-aware: worker *g* is pinned (best
//! effort, via a thin `sched_setaffinity` FFI shim mirroring
//! `ringrt-net`'s epoll module) to CPU `g mod ncpus`. Pinning failures
//! — and non-Linux targets, where the shim reports `Unsupported` — are
//! silently ignored; the pool is correct unpinned.
//!
//! # Thread-count policy
//!
//! [`Pool::from_env`] honors the `RINGRT_THREADS` environment variable
//! (clamped to ≥ 1) and falls back to
//! [`std::thread::available_parallelism`]. Set `RINGRT_THREADS=1` to force
//! every parallel path through its serial fallback — CI runs the whole
//! test suite under `RINGRT_THREADS=1`, `2`, and `4`.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod affinity;
mod shard;

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ringrt_obs::Recorder;
use shard::RangeShard;

/// Environment variable overriding the worker thread count.
pub const THREADS_ENV: &str = "RINGRT_THREADS";

thread_local! {
    /// How many pool scopes enclose the current thread: 0 on ordinary
    /// threads, ≥ 1 inside a pool worker. Drives nested-map arbitration.
    static POOL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

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

/// Cumulative counters for one pool: how much work ran and how it spread
/// over workers. Cheap relaxed atomics, bumped once per chunk/steal.
#[derive(Debug, Default)]
struct PoolCounters {
    /// `map` invocations that actually spawned threads.
    parallel_runs: AtomicU64,
    /// `map` invocations served on the calling thread.
    serial_runs: AtomicU64,
    /// Total items processed.
    items: AtomicU64,
    /// Total chunks claimed by workers (parallel runs only).
    chunks: AtomicU64,
    /// Rounds in which a worker went looking for a victim shard.
    steal_attempts: AtomicU64,
    /// Steals that actually transferred a half-range.
    steals_ok: AtomicU64,
    /// `map` calls issued from inside a worker that fanned out again.
    nested_splits: AtomicU64,
}

/// A snapshot of a pool's lifetime counters (see [`Pool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured worker thread count.
    pub threads: usize,
    /// `map` calls that fanned out across scoped threads.
    pub parallel_runs: u64,
    /// `map` calls answered serially (1 thread, ≤ 1 item, or no idle
    /// slots to arbitrate onto).
    pub serial_runs: u64,
    /// Items processed across all calls.
    pub items: u64,
    /// Chunks claimed across all parallel calls.
    pub chunks: u64,
    /// Victim-search rounds (every worker performs at least one as it
    /// drains — a zero here means no parallel run ever happened).
    pub steal_attempts: u64,
    /// Successful half-range transfers between worker shards.
    pub steals_ok: u64,
    /// Nested `map` calls that split across idle workers.
    pub nested_splits: u64,
}

/// The deterministic steal-injection hook: called once per worker
/// scheduling round with `(worker_index, round)`; returning `true`
/// forces that worker to attempt a steal before touching its own shard.
/// Test-only machinery for driving the take/steal race on demand.
pub type StealInjector = dyn Fn(usize, u64) -> bool + Send + Sync;

/// A scoped work pool: a thread-count policy plus usage counters and a
/// live-worker arbitration count.
///
/// Cloning or sharing: the pool is `Sync`; one instance can serve any
/// number of concurrent `map` calls. Calls arbitrate over the same slot
/// budget, so simultaneous maps share the machine instead of
/// oversubscribing it.
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
    /// Worker slots currently reserved by in-flight `map` calls.
    active: AtomicUsize,
    /// Pin worker *g* to CPU `g % ncpus` (best effort).
    affinity: bool,
    /// Fixed chunk size override (`None` = auto: ~4 claims per worker).
    chunk: Option<usize>,
    steal_injector: Option<Arc<StealInjector>>,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("affinity", &self.affinity)
            .field("chunk", &self.chunk)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// A pool running up to `threads` workers per `map` call.
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
            active: AtomicUsize::new(0),
            affinity: true,
            chunk: None,
            steal_injector: None,
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

    /// Enables or disables best-effort worker CPU pinning (default on;
    /// a no-op off Linux or when `sched_setaffinity` fails).
    #[must_use]
    pub fn with_affinity(mut self, enabled: bool) -> Self {
        self.affinity = enabled;
        self
    }

    /// Overrides the per-claim chunk size (`0` restores the automatic
    /// policy of roughly four claims per worker). Exists so property
    /// tests can sweep pathological chunkings.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = (chunk > 0).then_some(chunk);
        self
    }

    /// Installs a deterministic steal-injection hook (see
    /// [`StealInjector`]): a forced-steal schedule for tests that need
    /// to exercise the take/steal race or prove stealing leaves results
    /// bit-identical. Production pools leave this unset.
    #[must_use]
    pub fn with_steal_injection<F>(mut self, decide: F) -> Self
    where
        F: Fn(usize, u64) -> bool + Send + Sync + 'static,
    {
        self.steal_injector = Some(Arc::new(decide));
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

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime usage counters, read in a single pass. Each field is an
    /// independent monotone counter, so the snapshot is internally
    /// consistent up to in-flight increments (no torn multi-shard
    /// reads: every counter lives in one atomic word).
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let c = &self.counters;
        PoolStats {
            threads: self.threads,
            parallel_runs: c.parallel_runs.load(Ordering::Relaxed),
            serial_runs: c.serial_runs.load(Ordering::Relaxed),
            items: c.items.load(Ordering::Relaxed),
            chunks: c.chunks.load(Ordering::Relaxed),
            steal_attempts: c.steal_attempts.load(Ordering::Relaxed),
            steals_ok: c.steals_ok.load(Ordering::Relaxed),
            nested_splits: c.nested_splits.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every index in `0..n` and returns the results in
    /// index order, fanning the work across idle worker slots (up to
    /// `self.threads()`).
    ///
    /// Work distribution is sharded stealing: each worker is seeded with
    /// a contiguous range shard and drains it chunk-by-chunk off the
    /// front; a worker whose shard runs dry steals the upper half of the
    /// busiest victim's remaining range, banks the excess in its own
    /// shard (re-stealable), and keeps going. A slow item therefore
    /// cannot leave the other workers idle behind a static partition,
    /// and evenly priced items never contend on a shared cursor.
    ///
    /// Results are reassembled in index order, making the output
    /// independent of thread count, stealing, and scheduling.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the surrounding scope re-raises it).
    /// Panics if `n` exceeds `u32::MAX` (ranges are packed per shard).
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.counters.items.fetch_add(n as u64, Ordering::Relaxed);
        let _map_span = self.recorder.span("exec", "map");
        let depth = POOL_DEPTH.with(Cell::get);

        // Arbitrate: claim idle slots (plus the caller's own when the
        // caller *is* a parked worker). Never waits — zero idle slots
        // just means an inline serial run, so nesting cannot deadlock.
        let (workers, reserved) = loop {
            let cur = self.active.load(Ordering::Acquire);
            let idle = self.threads.saturating_sub(cur);
            let budget = if depth > 0 { idle + 1 } else { idle.max(1) };
            let want = budget.min(n);
            if want <= 1 {
                break (1usize, 0usize);
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + want,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break (want, want),
                Err(_) => continue,
            }
        };
        if workers <= 1 {
            self.counters.serial_runs.fetch_add(1, Ordering::Relaxed);
            return (0..n).map(f).collect();
        }
        assert!(u32::try_from(n).is_ok(), "map range exceeds u32::MAX items");
        self.counters.parallel_runs.fetch_add(1, Ordering::Relaxed);
        if depth > 0 {
            self.counters.nested_splits.fetch_add(1, Ordering::Relaxed);
        }
        let _release = ReleaseSlots(&self.active, reserved);

        let chunk = self.chunk.unwrap_or_else(|| (n / (4 * workers)).max(1));
        // Balanced static partition seeds the shards; stealing handles
        // whatever imbalance the items themselves introduce.
        let shards: Vec<RangeShard> = (0..workers)
            .map(|g| {
                let (base, rem) = (n / workers, n % workers);
                let lo = g * base + g.min(rem);
                RangeShard::new(lo, lo + base + usize::from(g < rem))
            })
            .collect();
        let ncpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let injector = self.steal_injector.as_deref();
        let runs: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let (shards, runs, f) = (&shards, &runs, &f);
            for g in 0..workers {
                let pin = self.affinity;
                scope.spawn(move || {
                    if pin {
                        // Best effort: failure means the OS scheduler
                        // keeps placing this worker.
                        let _ = affinity::pin_current_thread(g % ncpus);
                    }
                    POOL_DEPTH.with(|d| d.set(depth + 1));
                    let mut local: Vec<(usize, Vec<T>)> = Vec::new();
                    self.worker_loop(g, shards, chunk, injector, f, &mut local);
                    if !local.is_empty() {
                        runs.lock()
                            .expect("exec result buffer poisoned")
                            .extend(local);
                    }
                });
            }
        });
        let mut runs = runs.into_inner().expect("exec result buffer poisoned");
        runs.sort_unstable_by_key(|(lo, _)| *lo);
        let mut out = Vec::with_capacity(n);
        for (_, part) in runs {
            out.extend(part);
        }
        debug_assert_eq!(out.len(), n);
        out
    }

    /// One worker's schedule: drain own shard off the front; when dry
    /// (or when the steal injector forces it), split the busiest
    /// victim's remaining range off the back.
    fn worker_loop<T, F>(
        &self,
        g: usize,
        shards: &[RangeShard],
        chunk: usize,
        injector: Option<&StealInjector>,
        f: &F,
        local: &mut Vec<(usize, Vec<T>)>,
    ) where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut round: u64 = 0;
        loop {
            round += 1;
            let forced = injector.is_some_and(|inj| inj(g, round));
            if !forced {
                if let Some((lo, hi)) = shards[g].take(chunk) {
                    self.run_chunk(f, local, lo, hi);
                    continue;
                }
            }
            // Own shard dry (or a forced-steal round): pick the victim
            // with the most remaining work. The remaining() reads race
            // with the victims' own progress — stale choices only cost
            // an extra round, never correctness.
            self.counters.steal_attempts.fetch_add(1, Ordering::Relaxed);
            let victim = shards
                .iter()
                .enumerate()
                .filter(|&(v, _)| v != g)
                .map(|(v, s)| (s.remaining(), v))
                .max()
                .filter(|&(rem, _)| rem > 0)
                .map(|(_, v)| v);
            let Some(victim) = victim else {
                // Nothing stealable. Forced rounds fall back to their
                // own shard; a genuinely dry worker is done.
                if let Some((lo, hi)) = shards[g].take(chunk) {
                    self.run_chunk(f, local, lo, hi);
                    continue;
                }
                break;
            };
            if let Some((lo, hi)) = shards[victim].steal_half() {
                self.counters.steals_ok.fetch_add(1, Ordering::Relaxed);
                if shards[g].remaining() == 0 {
                    // Bank everything past the first chunk in our own
                    // (empty, hence inert) shard so other idle workers
                    // can re-steal from us.
                    let split = (lo + chunk).min(hi);
                    if split < hi {
                        shards[g].put(split, hi);
                    }
                    self.run_chunk(f, local, lo, split);
                } else {
                    // Forced steal while our shard still holds work: the
                    // banked-slot invariant (put only into an empty
                    // shard) forbids banking, so run the range inline.
                    let mut cur = lo;
                    while cur < hi {
                        let end = (cur + chunk).min(hi);
                        self.run_chunk(f, local, cur, end);
                        cur = end;
                    }
                }
            }
        }
    }

    fn run_chunk<T, F>(&self, f: &F, local: &mut Vec<(usize, Vec<T>)>, lo: usize, hi: usize)
    where
        F: Fn(usize) -> T,
    {
        self.counters.chunks.fetch_add(1, Ordering::Relaxed);
        let _chunk_span = self.recorder.span("exec", "chunk");
        local.push((lo, (lo..hi).map(f).collect()));
    }
}

/// Panic-safe release of arbitration slots: runs even when a worker
/// panic unwinds out of the scope, so a poisoned `map` cannot leak
/// reserved width and wedge later calls into serial mode.
struct ReleaseSlots<'a>(&'a AtomicUsize, usize);

impl Drop for ReleaseSlots<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(self.1, Ordering::AcqRel);
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = Pool::new(4);
        let ids = Mutex::new(HashSet::new());
        // Enough items that the four workers all claim at least one chunk;
        // a short sleep keeps the first worker from draining everything
        // before the others start.
        pool.map(64, |_| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(ids.lock().unwrap().len() > 1, "expected fan-out");
    }

    #[test]
    fn uneven_item_costs_rebalance() {
        // One pathologically slow item must not serialize the rest: the
        // other workers drain their shards and then steal the slow
        // worker's banked remainder out from under it.
        let pool = Pool::new(4);
        let out = pool.map(32, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn stats_accumulate() {
        let pool = Pool::new(2);
        let _ = pool.map(10, |i| i);
        let _ = pool.map(0, |i| i);
        let s = pool.stats();
        assert_eq!(s.threads, 2);
        assert_eq!(s.items, 10);
        assert_eq!(s.parallel_runs + s.serial_runs, 2);
    }

    #[test]
    fn every_parallel_run_ends_in_a_victim_search() {
        // A worker only exits after one failed steal round, so a
        // parallel map always contributes at least `workers` attempts.
        let pool = Pool::new(3);
        let _ = pool.map(300, |i| i);
        let s = pool.stats();
        if s.parallel_runs == 1 {
            assert!(s.steal_attempts >= 3, "{s:?}");
        }
    }

    #[test]
    fn forced_steals_transfer_work_and_preserve_results() {
        // Worker 1 is forced to steal every round; worker 0 is slow
        // enough that its shard is still populated when the steal lands.
        let pool = Pool::new(2).with_steal_injection(|g, _round| g == 1);
        let out = pool.map(16, |i| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            i * 7
        });
        assert_eq!(out, (0..16).map(|i| i * 7).collect::<Vec<_>>());
        let s = pool.stats();
        assert!(s.steals_ok >= 1, "forced schedule must steal: {s:?}");
    }

    #[test]
    fn nested_map_splits_across_idle_workers() {
        let pool = Pool::new(4);
        // Outer width 2 leaves two idle slots; each inner map may claim
        // idle slots + the parked caller's own.
        let out = pool.map(2, |i| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            pool.map(8, move |j| i * 100 + j)
        });
        assert_eq!(out[0], (0..8).collect::<Vec<_>>());
        assert_eq!(out[1], (0..8).map(|j| 100 + j).collect::<Vec<_>>());
        // At least one of the inner maps should have found idle width.
        assert!(pool.stats().nested_splits >= 1, "{:?}", pool.stats());
    }

    #[test]
    fn nested_map_on_a_saturated_pool_runs_serial_not_deadlocked() {
        let pool = Pool::new(2);
        // Outer map claims both slots; inner maps see zero idle slots
        // plus their own parked one → inline serial. Completion at all
        // is the deadlock-freedom assertion.
        let out = pool.map(2, |i| pool.map(64, move |j| i * 1000 + j).len());
        assert_eq!(out, vec![64, 64]);
    }

    #[test]
    fn arbitration_releases_slots_between_runs() {
        let pool = Pool::new(4);
        let _ = pool.map(64, |i| i);
        let _ = pool.map(64, |i| i);
        // Both runs saw a fully idle pool, so both fanned out.
        assert_eq!(pool.stats().parallel_runs, 2, "{:?}", pool.stats());
        assert_eq!(pool.active.load(Ordering::Relaxed), 0);
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
    fn panic_in_worker_propagates_and_releases_slots() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(result.is_err());
        // The slot guard ran during unwinding: the pool is not wedged.
        assert_eq!(pool.active.load(Ordering::Relaxed), 0);
    }
}
