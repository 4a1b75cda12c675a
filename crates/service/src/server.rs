//! The TCP server: bounded admission queue, worker pool, and graceful
//! shutdown, behind one epoll connection loop.
//!
//! # Threading model
//!
//! ```text
//! listener ─accept─▶ event loop (epoll) ──analyses──▶ queue ──▶ workers
//!                     │  │   ▲                          ▲        │
//!                     │  │   └── completions + waker ◀──┼────────┤
//!                     │  └──ring commands──▶ registry thread ────┘
//!                     │          ▲   │ publishes
//!                     │          │   ▼
//!                     ├─ reads ─────▶ registry view ◀── ship / follower
//!                     └─ inline: PING / STATS / cache hits /      threads
//!                                CHECK misses within the work budget
//! ```
//!
//! * One `ringrt-loop` thread (`event.rs`) owns the listener and
//!   every client socket: it accepts (shedding past `--max-conns` with one
//!   `BUSY max_conns=…` line), parses newline-framed requests out of
//!   whatever fragments arrive, and writes replies in request order. This
//!   is the shape that holds 10⁴–10⁵ mostly idle station controllers.
//! * Cheap requests (PING, STATS, SHUTDOWN, malformed lines, cache hits)
//!   are answered on the loop without touching the queue, and so is a
//!   cache-missing `CHECK` whose analysis fits in
//!   `INLINE_CHECK_BUDGET` demand terms: its hand-off to a worker would
//!   cost more than the test. Each connection spends at most one budget
//!   per loop pass, so a pipelined burst or a `BATCH` of `CHECK`s queues
//!   the rest, and none in a pass where other connections are ready too:
//!   then a worker on another core runs the analysis while the loop
//!   serves them. Other analysis work goes through the bounded queue, and
//!   a full queue sheds load with an immediate `BUSY` line — the client is
//!   never left hanging, inside a `BATCH` or not.
//! * The `ringrt-registry` thread owns the [`RingRegistry`] (which is not
//!   `Sync`) and runs every registry job in arrival order: the stored-ring
//!   commands (`REGISTER ADMIT REMOVE UNREGISTER COMPACT`, `SHOW ring=`,
//!   `CHECK ring=`, a `SIMULATE`/`SATURATION ring=` the cache misses),
//!   `PROMOTE`, `STATS RESET`, SYNC subscriptions and the follower's
//!   applies. After each job, before its reply is released, it publishes
//!   an immutable `RegistryView`, which every other thread reads instead
//!   of waiting on registry work. A ring command's connection is not read
//!   until its reply is back, so its next request sees the effect.
//! * Workers pop jobs; a job that waited past its deadline is answered
//!   `ERR deadline expired` without being executed. Finished replies go
//!   onto the server's completion queue, and a pipe wakes the loop.
//! * Request code runs inside `catch_unwind` on the loop (the parse
//!   included), the workers and the registry thread: a panic answers
//!   `ERR internal`, counts `panics`, and the thread keeps serving.
//! * Shutdown (`SHUTDOWN` request or [`ServerHandle::shutdown`]) closes the
//!   listener, lets workers **drain** everything already queued, and
//!   closes each connection once its replies are written — in-flight
//!   requests still get their answers.
//!
//! The loop needs Linux epoll; elsewhere [`spawn`] fails with
//! [`std::io::ErrorKind::Unsupported`].

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringrt_core::rm::{Budget, Unfinished};
use ringrt_exec::Pool;
use ringrt_obs::{trace::render_chrome_trace, Measured, Recorder};
use ringrt_registry::{
    AdmissionOutcome, FailpointFs, RegistryError, RegistryMetrics, ReplicatedApply, RingRegistry,
    RingSpec, RingState, StoreOptions, DEFAULT_SEGMENT_BYTES,
};

use ringrt_net::{Token, Waker};

use crate::cache::{CacheKey, ResultCache};
use crate::engine;
use crate::event::EventLoop;
use crate::metrics::{Metrics, Stage};
use crate::protocol::{self, parse_request, AnalysisRequest, CommandKind, Request};
use crate::replication::{self, ReplicationState, ShipFrame};

/// How long ship streams and the follower block before they re-check for
/// shutdown, and the event loop's wait while a deadline is armed.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long shutdown waits for in-flight replies before force-closing
/// their connections.
pub(crate) const EXECUTION_GRACE: Duration = Duration::from_secs(60);

/// Demand terms (see [`Budget`]) the event loop may spend, per connection
/// and uncontended loop pass, answering cache-missing `CHECK`s itself; a
/// `CHECK` whose analysis needs more is queued for a worker, and so is
/// every one in a pass where other connections wait too. On a 2-vCPU
/// x86-64 host a call that used up this budget took at most 28 µs over
/// 2 700 random sets, one to two cache hits' worth of loop time, while
/// every `CHECK` of perfbench's check-miss mix (≤ 1 000 terms) fits
/// (DESIGN §5g).
pub(crate) const INLINE_CHECK_BUDGET: u64 = 2_048;

/// The reply to a request whose code panicked.
const INTERNAL_ERROR: &str = "ERR internal";

/// Test builds panic where request code runs for a request with this queue
/// deadline — how the tests reach the panic containment without a wire
/// command for it.
#[cfg(test)]
const PANIC_DEADLINE_MS: u64 = 424_242;

#[cfg(test)]
fn injected_panic(deadline_ms: Option<u64>) {
    assert_ne!(deadline_ms, Some(PANIC_DEADLINE_MS), "injected panic");
}

/// Test builds panic inside the parse of this request line.
#[cfg(test)]
const PANIC_LINE: &str = "PING injected-parse-panic";

/// A gate test builds park the registry thread on: a `CHECK ring=` with
/// this queue deadline waits inside its job until the test opens the
/// server's gate.
#[cfg(test)]
mod park {
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

    pub(super) const DEADLINE_MS: u64 = 424_243;

    /// One server's gate: `(parked, open)`.
    #[derive(Default)]
    pub(super) struct Gate {
        state: Mutex<(bool, bool)>,
        moved: Condvar,
    }

    impl Gate {
        fn lock(&self) -> MutexGuard<'_, (bool, bool)> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Called by the registry thread: parks there if `deadline_ms` asks.
        pub(super) fn here(&self, deadline_ms: Option<u64>) {
            if deadline_ms != Some(DEADLINE_MS) {
                return;
            }
            let mut gate = self.lock();
            gate.0 = true;
            self.moved.notify_all();
            let mut gate =
                (self.moved.wait_while(gate, |g| !g.1)).unwrap_or_else(PoisonError::into_inner);
            *gate = (false, false);
        }

        /// Waits until the registry thread is parked.
        pub(super) fn await_parked(&self) {
            let gate = self.lock();
            drop(self.moved.wait_while(gate, |g| !g.0));
        }

        /// Lets the parked registry thread go on.
        pub(super) fn open(&self) {
            self.lock().1 = true;
            self.moved.notify_all();
        }
    }
}

/// Runs request code so that a panic in it costs one `ERR internal` reply,
/// not the thread: the panic is counted and `None` returned.
fn contained<T>(shared: &Shared, run: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(value) => Some(value),
        Err(_) => {
            shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Cap on the diagnostic `SLEEP` command, milliseconds.
const MAX_SLEEP_MS: u64 = 10_000;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:7400` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads executing analyses (min 1).
    pub workers: usize,
    /// Bounded queue depth; a full queue answers `BUSY` (min 1).
    pub queue_depth: usize,
    /// Default per-request queue deadline, milliseconds.
    pub default_deadline_ms: u64,
    /// Directory for the persistent ring registry's journal and snapshot;
    /// `None` keeps the registry in memory only.
    pub state_dir: Option<PathBuf>,
    /// Total result-cache entry cap (LRU-evicted beyond it).
    pub cache_entries: usize,
    /// Width of the shared execution pool that `SATURATION` and `ABU`
    /// requests fan their inner work across; `None` reads the
    /// `RINGRT_THREADS` override and falls back to the machine's
    /// parallelism.
    pub exec_threads: Option<usize>,
    /// Whether the flight recorder captures spans (the `TRACE` command
    /// returns nothing when off). Per-span cost when on is two clock reads
    /// and one nearly-uncontended mutex push; `exp_trace_overhead`
    /// measures the end-to-end impact. The recorder keeps
    /// [`ringrt_obs::DEFAULT_SHARD_CAPACITY`] events per shard and
    /// overwrites the oldest, never blocking on them.
    pub trace_enabled: bool,
    /// Log any request line slower than this many milliseconds (from its
    /// arrival to its reply) to stderr. `None` disables the log.
    pub slow_ms: Option<u64>,
    /// Run as a warm standby replicating the primary at this address:
    /// replay its journal continuously, answer reads, redirect mutations
    /// with `READONLY`, and promote on `PROMOTE` (or primary-loss
    /// timeout). Requires `state_dir`.
    pub follow: Option<String>,
    /// Journal segment rotation threshold in bytes; `None` uses
    /// [`DEFAULT_SEGMENT_BYTES`].
    pub segment_bytes: Option<u64>,
    /// A follower that has heard nothing from the primary for this long
    /// promotes itself. `None` (the default) promotes only on an explicit
    /// `PROMOTE`.
    pub promote_timeout_ms: Option<u64>,
    /// Open-connection cap; an accept beyond it is answered
    /// `BUSY max_conns=<n>` and closed. `0` means the loop's own table
    /// bound (65 536).
    pub max_conns: usize,
    /// Close a connection with no complete request for this long. `None`
    /// (the default) keeps idle clients forever — the population the
    /// event loop exists to hold cheaply.
    pub idle_timeout_ms: Option<u64>,
    /// Close a connection holding a *partial* request line (bytes but no
    /// newline) for this long — the slow-loris guard. `0` disables it.
    pub read_deadline_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            default_deadline_ms: 2_000,
            state_dir: None,
            cache_entries: crate::cache::DEFAULT_CAPACITY,
            exec_threads: None,
            trace_enabled: true,
            slow_ms: None,
            follow: None,
            segment_bytes: None,
            promote_timeout_ms: None,
            max_conns: 0,
            idle_timeout_ms: None,
            read_deadline_ms: 30_000,
        }
    }
}

/// Where a queued request's reply goes: a connection and the reply slot
/// within it. The token is generation-stamped, so a reply for a
/// connection that closed meanwhile misses the loop's table and is
/// dropped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyTo {
    pub(crate) conn: Token,
    pub(crate) slot: u64,
}

/// A finished reply on its way back to the event loop.
pub(crate) struct Completion {
    pub(crate) reply: ReplyTo,
    pub(crate) text: String,
}

/// One queued unit of work.
struct Job {
    request: Request,
    cache_key: Option<CacheKey>,
    reply: ReplyTo,
    enqueued: Instant,
    deadline: Duration,
}

/// Work for the registry thread: a client's command ([`submit_ring`]) or
/// another thread's call ([`on_registry`]). Each job contains its own
/// panics and publishes the view it leaves before it hands anything back.
type RegistryJob = Box<dyn FnOnce(&Shared, &RingRegistry) + Send>;

/// A FIFO of handed-off jobs and the threads that run them.
///
/// Jobs leave in arrival order. Each push wakes one idle thread, if any
/// waits, so two long jobs run side by side; the thread it wakes is the
/// one that went idle last. Idle threads wait on a stack, each on its own
/// condvar, so a lone client's jobs keep landing on one warm thread, and
/// its allocator caches, instead of cycling through every worker's.
struct JobQueue<T> {
    jobs: Mutex<Pending<T>>,
    /// One condvar per thread; thread `i` waits only on `wakers[i]`.
    wakers: Vec<Condvar>,
}

/// The jobs waiting, the threads idle, and whether the threads that run
/// jobs have stopped.
struct Pending<T> {
    jobs: VecDeque<T>,
    /// Idle threads, the most recently idle last. A thread leaves the
    /// stack only when a push or [`JobQueue::wake_all`] takes it off.
    idle: Vec<usize>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// A queue served by `threads` threads, numbered from 0.
    fn new(threads: usize) -> Self {
        JobQueue {
            jobs: Mutex::new(Pending {
                jobs: VecDeque::new(),
                idle: Vec::with_capacity(threads),
                closed: false,
            }),
            wakers: (0..threads).map(|_| Condvar::new()).collect(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Pending<T>> {
        self.jobs.lock().expect("job queue poisoned")
    }

    /// Appends `job` unless `cap` jobs already wait or the queue's threads
    /// have stopped; returns the new depth. A job it takes is run.
    fn push(&self, job: T, cap: usize) -> Option<usize> {
        let mut q = self.lock();
        if q.closed || q.jobs.len() >= cap {
            return None;
        }
        q.jobs.push_back(job);
        let depth = q.jobs.len();
        let wake = q.idle.pop();
        drop(q);
        if let Some(thread) = wake {
            self.wakers[thread].notify_one();
        }
        Some(depth)
    }

    /// The next job for thread `me`, waiting for one; `None` once `stop`
    /// is set and the queue is empty, which closes it.
    ///
    /// `release` hands off what the thread's last job produced. It runs
    /// once, without the lock, and only after `me` is on the idle stack
    /// when no job waits: a client that answers a reply with its next
    /// request then finds this thread idle on top.
    fn pop(&self, stop: &AtomicBool, me: usize, release: impl FnOnce()) -> Option<T> {
        let mut q = self.lock();
        if q.jobs.is_empty() && !stop.load(Ordering::SeqCst) {
            q.idle.push(me);
        }
        drop(q);
        release();
        let mut q = self.lock();
        loop {
            // Woken only by whoever takes `me` off the stack; any other
            // return from `wait` is spurious.
            while q.idle.contains(&me) {
                q = self.wakers[me].wait(q).expect("job queue poisoned");
            }
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if stop.load(Ordering::SeqCst) {
                q.closed = true;
                return None;
            }
            q.idle.push(me);
        }
    }

    fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Wakes every idle thread to re-check `stop`. Taking the lock orders
    /// the wakeup after any check already made under it.
    fn wake_all(&self) {
        let mut q = self.lock();
        for thread in q.idle.drain(..) {
            self.wakers[thread].notify_one();
        }
    }
}

/// What every thread but the registry thread reads of the registry,
/// published by the registry thread after every job.
#[derive(Debug)]
pub(crate) struct RegistryView {
    pub(crate) epoch: u64,
    pub(crate) cluster: u64,
    pub(crate) next_seq: u64,
    /// Each ring's name and mutation generation, sorted by name.
    rings: Vec<(String, u64)>,
    pub(crate) metrics: RegistryMetrics,
}

impl RegistryView {
    fn of(registry: &RingRegistry) -> RegistryView {
        RegistryView {
            epoch: registry.epoch(),
            cluster: registry.cluster_id(),
            next_seq: registry.next_seq(),
            rings: registry.ring_generations(),
            metrics: registry.metrics(),
        }
    }

    /// The cache key of a stored ring's `SIMULATE` or `SATURATION`, keyed
    /// by the ring's generation; `None` for a ring that is not registered.
    fn cache_key(&self, request: &Request) -> Option<CacheKey> {
        let Request::RingAnalysis {
            command,
            ring,
            seconds,
            async_load,
            seed,
            ..
        } = request
        else {
            return None;
        };
        let at = self
            .rings
            .binary_search_by(|(name, _)| name.as_str().cmp(ring));
        let generation = self.rings[at.ok()?].1;
        Some(CacheKey::for_ring(
            *command,
            *seconds,
            *async_load,
            *seed,
            generation,
        ))
    }
}

/// State shared by every thread of one server instance.
pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    queue: JobQueue<Job>,
    /// Registry jobs, run in arrival order by the registry thread.
    ring_jobs: JobQueue<RegistryJob>,
    /// The registry view last published, swapped whole under the lock.
    view: Mutex<Arc<RegistryView>>,
    /// Replies workers finished, collected by the event loop when
    /// [`Shared::waker`] fires.
    completions: Mutex<Vec<Completion>>,
    /// Interrupts the event loop's `epoll_wait`.
    pub(crate) waker: Waker,
    pub(crate) metrics: Metrics,
    pub(crate) cache: ResultCache,
    /// Execution pool for intra-request parallelism (`ABU` sample
    /// fan-out). Stateless between calls, so all workers share one.
    pub(crate) exec: Pool,
    /// Flight recorder shared with the exec pool and the registry journal;
    /// drained by the `TRACE` command.
    pub(crate) recorder: Arc<Recorder>,
    /// Replication role, lag, and peer counters (`SYNC`/`PROMOTE`/
    /// `REPLICATION`); the durable epoch itself lives in the registry
    /// (and its view).
    pub(crate) replication: ReplicationState,
    shutdown: AtomicBool,
    #[cfg(test)]
    park: park::Gate,
    pub(crate) inflight: AtomicU64,
    pub(crate) started: Instant,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.wake_all();
        self.ring_jobs.wake_all();
        self.waker.wake();
    }

    /// Pushes a job unless the queue is full. Jobs are still accepted
    /// during shutdown drain so already-connected clients finish cleanly.
    fn try_enqueue(&self, job: Job) -> bool {
        let Some(depth) = self.queue.push(job, self.config.queue_depth) else {
            return false;
        };
        self.metrics.note_queue_depth(depth);
        true
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The registry view last published.
    pub(crate) fn view(&self) -> Arc<RegistryView> {
        Arc::clone(&self.view.lock().expect("registry view poisoned"))
    }

    /// Publishes what `registry` holds now (on the registry thread).
    fn publish(&self, registry: &RingRegistry) {
        let view = Arc::new(RegistryView::of(registry));
        // The old view is dropped after the lock is released.
        let _old = std::mem::replace(
            &mut *self.view.lock().expect("registry view poisoned"),
            view,
        );
    }

    /// Hands a worker's reply to the event loop. Only the push that finds
    /// the queue empty wakes the loop: the loop drains the wakeup pipe
    /// before it takes the queue, so every later push is collected by a
    /// wakeup already on its way.
    fn complete(&self, reply: ReplyTo, text: String) {
        let mut done = self.completions.lock().expect("completion queue poisoned");
        let was_empty = done.is_empty();
        done.push(Completion { reply, text });
        drop(done);
        if was_empty {
            self.waker.wake();
        }
    }

    /// Moves every finished reply into `into` (which must be empty), so
    /// the two vectors trade allocations instead of growing new ones.
    pub(crate) fn take_completions(&self, into: &mut Vec<Completion>) {
        std::mem::swap(
            &mut *self.completions.lock().expect("completion queue poisoned"),
            into,
        );
    }

    /// The `STATS RESET` implementation: zeroes every accumulated counter
    /// and histogram across the metrics, cache, registry, and recorder,
    /// then re-seeds the windowed high-water marks — `queue_peak` with the
    /// live queue depth, the replication-lag peak with the live lag — so a
    /// new window never reads below the level it started at. Gauges
    /// (queue depth, cache occupancy, `exec_threads`, registry sizes) are
    /// untouched.
    fn reset_stats(&self, registry: &RingRegistry) {
        self.metrics.reset();
        self.metrics.note_queue_depth(self.queue_len());
        self.replication.reset_window();
        self.cache.reset_counters();
        registry.reset_counters();
        self.recorder.reset_stats();
    }
}

/// A running server. Dropping the handle signals shutdown but does not
/// block; call [`ServerHandle::join`] to wait for a full drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals graceful shutdown: stop accepting, drain the queue, answer
    /// everything in flight. Returns immediately.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Signals shutdown and waits for every thread — event loop, workers —
    /// to finish.
    pub fn join(self) {
        self.shared.begin_shutdown();
        self.wait();
    }

    /// Waits (without signaling) until shutdown is triggered — by a client's
    /// `SHUTDOWN` request or a concurrent [`ServerHandle::shutdown`] — then
    /// drains every thread. This is how `ringrt serve` blocks.
    pub fn wait(mut self) {
        // The loop drains its connections (waiting for in-flight worker
        // replies) before the workers are joined — workers keep popping the
        // queue until it is empty, so every completion the loop waits on
        // arrives.
        if let Some(l) = self.event_loop.take() {
            let _ = l.join();
        }
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
    }
}

/// Binds the listener and spawns the event loop and worker threads.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission, …), and
/// fails with [`ErrorKind::Unsupported`] off Linux.
pub fn spawn(mut config: ServiceConfig) -> std::io::Result<ServerHandle> {
    config.workers = config.workers.max(1);
    config.queue_depth = config.queue_depth.max(1);
    if config.follow.is_some() && config.state_dir.is_none() {
        return Err(std::io::Error::other(
            "--follow requires a state dir: the standby re-journals every shipped record",
        ));
    }
    // The wakeup pipe comes first: off Linux it fails with `Unsupported`
    // before any state is opened.
    let waker = Waker::new()?;
    let storage = |e: RegistryError| std::io::Error::other(e.to_string());
    let registry = match &config.state_dir {
        Some(dir) => {
            let options = StoreOptions {
                segment_bytes: config.segment_bytes.unwrap_or(DEFAULT_SEGMENT_BYTES).max(1),
                fs: FailpointFs::new(),
            };
            RingRegistry::open_with(dir, options).map_err(storage)?
        }
        None => RingRegistry::in_memory(),
    };
    // A primary serves under a nonzero epoch from its first boot so that
    // followers always have something to fence against, and stamps its
    // journal with a cluster identity, which lets the SYNC handshake
    // refuse shipping between unrelated journals (see `handle_sync`).
    // Followers adopt (and persist) the primary's at SYNC time instead.
    if config.state_dir.is_some() && config.follow.is_none() {
        if registry.epoch() == 0 {
            registry.set_epoch(1).map_err(storage)?;
        }
        if registry.cluster_id() == 0 {
            registry
                .set_cluster_id(generate_cluster_id())
                .map_err(storage)?;
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let recorder = Arc::new(if config.trace_enabled {
        Recorder::new()
    } else {
        Recorder::disabled()
    });
    registry.attach_recorder(Arc::clone(&recorder));
    let cache_entries = config.cache_entries;
    let shared = Arc::new(Shared {
        config: config.clone(),
        queue: JobQueue::new(config.workers),
        ring_jobs: JobQueue::new(1),
        view: Mutex::new(Arc::new(RegistryView::of(&registry))),
        completions: Mutex::new(Vec::new()),
        waker,
        metrics: Metrics::with_workers(config.workers),
        cache: ResultCache::with_capacity(cache_entries),
        exec: config
            .exec_threads
            .map_or_else(Pool::from_env, |n| Pool::new(n.max(1)))
            .with_recorder(Arc::clone(&recorder)),
        recorder,
        replication: ReplicationState::new(config.follow.clone()),
        shutdown: AtomicBool::new(false),
        #[cfg(test)]
        park: park::Gate::default(),
        inflight: AtomicU64::new(0),
        started: Instant::now(),
    });
    // The epoll instance is created here so fd exhaustion surfaces as a
    // spawn-time error, not a dead loop.
    let event_loop = EventLoop::new(Arc::clone(&shared), listener)?;

    let mut workers: Vec<JoinHandle<()>> = (0..config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ringrt-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn worker thread")
        })
        .collect();
    {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name("ringrt-registry".to_owned())
                .spawn(move || registry_loop(&shared, &registry))
                .expect("spawn registry thread"),
        );
    }
    if config.follow.is_some() {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name("ringrt-follower".to_owned())
                .spawn(move || follower_loop(&shared))
                .expect("spawn follower thread"),
        );
    }
    let event_loop = std::thread::Builder::new()
        .name("ringrt-loop".to_owned())
        .spawn(move || event_loop.run())
        .expect("spawn event-loop thread");

    Ok(ServerHandle {
        addr,
        shared,
        event_loop: Some(event_loop),
        workers,
    })
}

/// A 32-bit, nonzero journal identity for a never-stamped primary. Only
/// uniqueness across independently bootstrapped clusters matters, so
/// clock nanoseconds xor'd with the pid are entropy enough — no RNG
/// dependency needed.
fn generate_cluster_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
    let mixed = (nanos ^ (u64::from(std::process::id()).rotate_left(17))) & 0xffff_ffff;
    mixed.max(1)
}

/// A response line, a connection-closing line, a batch header asking the
/// event loop to collect the next `n` responses into one write, or a
/// journal subscription turning the connection into a ship stream.
pub(crate) enum Response {
    Line(String),
    /// A cache-hit line on the zero-span fast path: same wire format as
    /// [`Response::Line`], but write paths skip the per-response
    /// `respond` span (the sampled `hit` span in [`run_cached`] already
    /// covers the whole parse→reply interval).
    Hit(String),
    Close,
    Batch(usize),
    /// An admitted `SYNC`: a ship stream resuming at this sequence.
    Ship(u64),
}

impl Response {
    pub(crate) fn into_text(self) -> String {
        match self {
            Response::Line(s) | Response::Hit(s) => s,
            Response::Close => "OK cmd=shutdown".to_owned(),
            Response::Batch(_) => unreachable!("batch headers are framed, not rendered"),
            Response::Ship(_) => unreachable!("ship streams are served, not rendered"),
        }
    }
}

/// What handling one request line produced: an immediate response, or a
/// job handed off whose reply will arrive as a [`Completion`] for the
/// line's [`ReplyTo`]. `Queued` carries what the loop needs to record the
/// latency when the reply lands (stored-ring commands other than
/// `CHECK ring=` keep no latency histogram).
pub(crate) enum Handled {
    Ready(Response),
    Queued {
        command: Option<CommandKind>,
        started: Instant,
        /// A stored-ring command on the registry thread: the connection
        /// must serve nothing more until its reply lands, so the next
        /// request sees its effect.
        ordered: bool,
    },
}

/// Handles one request line: everything answerable inline is answered
/// inline; queue-bound work is submitted with `reply` as its reply target.
/// A cache-missing `CHECK` is answered inline when its analysis fits in
/// what is left of `budget`, the connection's work budget for this loop
/// pass (none when the pass is contended).
pub(crate) fn handle_request(
    line: &str,
    shared: &Arc<Shared>,
    reply: ReplyTo,
    budget: &mut Budget,
) -> Handled {
    let ready = |response: Response| Handled::Ready(response);
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    // Parse is timed with plain clock reads, not an eager span: the
    // cacheable commands defer parse-stage recording into `run_cached`,
    // which skips it entirely on a cache hit (the zero-span fast path)
    // and records it together with the cache stage on a miss.
    let t0 = Instant::now();
    let parsed = contained(shared, || {
        #[cfg(test)]
        assert_ne!(line, PANIC_LINE, "injected panic");
        parse_request(line)
    });
    let parse_dur = t0.elapsed();
    let refuse = |text: String| {
        record_parse(shared, t0, parse_dur);
        Handled::Ready(Response::Line(text))
    };
    let request = match parsed {
        Some(Ok(r)) => r,
        Some(Err(msg)) => return refuse(format!("ERR {msg}")),
        None => return refuse(INTERNAL_ERROR.to_owned()),
    };
    let defers_parse = matches!(request, Request::Abu(_) | Request::Analysis(_))
        || matches!(
            request,
            Request::RingAnalysis { command, .. } if command != CommandKind::Check
        );
    if !defers_parse {
        record_parse(shared, t0, parse_dur);
    }
    // A warm standby redirects mutations instead of erroring: the client
    // learns where the primary is and under which epoch it serves. Inside
    // a BATCH this runs per frame, so only the mutating positions are
    // redirected.
    if shared.replication.is_follower() {
        if let Some(cmd) = mutation_command(&request) {
            return ready(Response::Line(format!(
                "READONLY cmd={cmd} primary={} epoch={}",
                shared.replication.source().unwrap_or("-"),
                shared.view().epoch,
            )));
        }
    }
    match request {
        Request::Ping => ready(Response::Line("OK cmd=ping".to_owned())),
        Request::Stats => ready(Response::Line(shared.render_stats())),
        Request::Metrics => {
            let body = shared.render_metrics();
            let body = body.trim_end();
            ready(Response::Line(format!(
                "OK cmd=metrics lines={}\n{body}",
                body.lines().count()
            )))
        }
        Request::Trace { count } => {
            let events = shared.recorder.drain(count);
            let json = render_chrome_trace(&events);
            ready(Response::Line(format!(
                "OK cmd=trace events={}\n{json}",
                events.len()
            )))
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            ready(Response::Close)
        }
        Request::Sync {
            epoch,
            seq,
            cluster,
        } => ready(handle_sync(shared, epoch, seq, cluster)),
        Request::Replication => {
            let mut out = "OK cmd=replication".to_owned();
            shared.replication.render(shared.view().epoch, &mut out);
            ready(Response::Line(out))
        }
        Request::Batch { count } => ready(Response::Batch(count)),
        Request::Evict => ready(Response::Line(format!(
            "OK cmd=evict evicted={}",
            shared.cache.clear()
        ))),
        Request::Show { ring: None, .. } => {
            let view = shared.view();
            let names: Vec<&str> = view.rings.iter().map(|(name, _)| name.as_str()).collect();
            ready(Response::Line(format!(
                "OK cmd=show rings={} names={}",
                names.len(),
                if names.is_empty() {
                    "-".to_owned()
                } else {
                    names.join(",")
                }
            )))
        }
        request @ (Request::Register { .. }
        | Request::Admit { .. }
        | Request::Remove { .. }
        | Request::Unregister { .. }
        | Request::Compact
        | Request::Show { .. }
        | Request::StatsReset
        | Request::Promote
        | Request::RingAnalysis {
            command: CommandKind::Check,
            ..
        }) => submit_ring(shared, request, reply, t0),
        request @ Request::RingAnalysis { .. } => {
            // A hit is answered from the view without touching the ring; a
            // miss, or a ring the view does not list, goes to the registry
            // thread to be resolved.
            let key = shared.view().cache_key(&request);
            run_cached(shared, request, key, reply, (t0, parse_dur), budget)
        }
        Request::Sleep { ms, deadline_ms } => submit(
            shared,
            Request::Sleep { ms, deadline_ms },
            None,
            CommandKind::Sleep,
            deadline_ms,
            reply,
        ),
        Request::Abu(req) => {
            let key = Some(CacheKey::for_abu(&req));
            run_cached(
                shared,
                Request::Abu(req),
                key,
                reply,
                (t0, parse_dur),
                budget,
            )
        }
        Request::Analysis(req) => {
            let key = CacheKey::for_request(&req);
            run_cached(
                shared,
                Request::Analysis(req),
                key,
                reply,
                (t0, parse_dur),
                budget,
            )
        }
    }
}

/// Records the parse stage from an already-measured interval (span plus
/// stage histogram) — the non-fast-path equivalent of the eager span the
/// parse stage used to open.
fn record_parse(shared: &Shared, t0: Instant, dur: Duration) {
    shared.recorder.record("request", "parse", t0, dur);
    shared.metrics.record_stage(Stage::Parse, dur);
}

/// Cache-checks one queueable request, then answers it inline or submits
/// it (a stored ring's analysis to the registry thread, which resolves it).
///
/// `parse` carries the request's arrival instant and measured parse
/// duration. On a cache **hit** this is the zero-span fast path: no
/// per-stage spans, no stage-histogram locks — two relaxed counter adds
/// ([`Metrics::note_hit`]), the per-command latency record, and (one hit
/// in [`crate::metrics::HIT_SPAN_SAMPLE`]) a single sampled
/// `request`/`hit` span covering the whole parse→reply interval. A
/// **missing** inline-set `CHECK` then runs on the loop if it fits what is
/// left of `budget` ([`check_inline`]). Otherwise the deferred parse stage
/// and the cache probe are recorded together in one recorder round trip
/// before the job is submitted.
fn run_cached(
    shared: &Arc<Shared>,
    request: Request,
    key: Option<CacheKey>,
    reply: ReplyTo,
    parse: (Instant, Duration),
    budget: &mut Budget,
) -> Handled {
    let (command, deadline_ms) = match &request {
        Request::Analysis(req) => (req.command, req.deadline_ms),
        Request::Abu(req) => (CommandKind::Abu, req.deadline_ms),
        Request::RingAnalysis {
            command,
            deadline_ms,
            ..
        } => (*command, *deadline_ms),
        other => unreachable!("only analyses are cached: {other:?}"),
    };
    let (t0, parse_dur) = parse;
    if let Some(k) = &key {
        let cache_start = Instant::now();
        let found = shared.cache.get(k);
        if let Some(body) = found {
            let elapsed = t0.elapsed();
            shared.metrics.record_latency(command, elapsed);
            if shared.metrics.note_hit(elapsed) {
                shared.recorder.record("request", "hit", t0, elapsed);
            }
            return Handled::Ready(Response::Hit(format!("{body} cached=true")));
        }
        let cache_dur = cache_start.elapsed();
        let stages = [
            Measured {
                cat: "request",
                name: "parse",
                start: t0,
                dur: parse_dur,
            },
            Measured {
                cat: "request",
                name: "cache",
                start: cache_start,
                dur: cache_dur,
            },
        ];
        if let Request::Analysis(req) = &request {
            if req.command == CommandKind::Check {
                if let Some(text) = check_inline(shared, req, k, budget, stages) {
                    return Handled::Ready(Response::Line(text));
                }
            }
        }
        shared.recorder.record_many(&stages);
        shared.metrics.record_stage(Stage::Parse, parse_dur);
        shared.metrics.record_stage(Stage::Cache, cache_dur);
    } else {
        // Uncacheable (e.g. explicitly seeded) analyses skip the probe;
        // only the deferred parse stage is owed.
        record_parse(shared, t0, parse_dur);
    }
    match request {
        Request::RingAnalysis { .. } => submit_ring(shared, request, reply, t0),
        _ => submit(shared, request, key, command, deadline_ms, reply),
    }
}

/// Answers a cache-missing `CHECK` on the event loop — analysis, cache
/// insert and all — if its analysis fits in what is left of `budget`.
/// `None` means it did not, and the request goes to the queue. `stages`
/// are the request's parse and cache spans, recorded here together with
/// the execute span (an inline request has no `queue_wait`).
fn check_inline(
    shared: &Arc<Shared>,
    req: &AnalysisRequest,
    key: &CacheKey,
    budget: &mut Budget,
    stages: [Measured; 2],
) -> Option<String> {
    let exec_started = Instant::now();
    let outcome = contained(shared, || {
        #[cfg(test)]
        injected_panic(req.deadline_ms);
        engine::execute_check(req, budget).map(|body| finish_cacheable(shared, body, Some(key)))
    });
    let text = match outcome {
        Some(Ok(text)) => {
            shared.metrics.inline_checks.fetch_add(1, Ordering::Relaxed);
            text
        }
        Some(Err(Unfinished)) => {
            shared
                .metrics
                .inline_budget_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        None => INTERNAL_ERROR.to_owned(),
    };
    let busy = exec_started.elapsed();
    let [parse, cache] = stages;
    shared.recorder.record_many(&[
        parse,
        cache,
        Measured {
            cat: "request",
            name: "execute",
            start: exec_started,
            dur: busy,
        },
    ]);
    shared.metrics.record_stage(Stage::Parse, parse.dur);
    shared.metrics.record_stage(Stage::Cache, cache.dur);
    shared.metrics.record_stage(Stage::Execute, busy);
    record_completed(shared, CommandKind::Check, parse.start, &text);
    Some(text)
}

fn fmt_stations(stations: Option<usize>) -> String {
    stations.map_or_else(|| "-".to_owned(), |n| n.to_string())
}

fn render_admission(cmd: &str, ring: &str, stream: &str, out: &AdmissionOutcome) -> String {
    format!(
        "OK cmd={cmd} ring={ring} stream={stream} schedulable={} admitted={} incremental={} \
         evaluations={} streams={}",
        out.check.schedulable,
        out.applied,
        out.check.incremental,
        out.check.evaluations,
        out.streams,
    )
}

/// Renders one ring's full state. Deterministic down to the byte: stream
/// order is admission order and every float uses Rust's round-trip `{}`
/// formatting, so the output is identical before and after a server
/// restart — the property the persistence integration test pins down.
fn render_show(ring: &str, state: &RingState) -> String {
    let spec: &RingSpec = &state.spec;
    let mut out = format!(
        "OK cmd=show ring={ring} protocol={} mbps={} stations={} streams={}",
        spec.protocol,
        spec.mbps,
        fmt_stations(spec.stations),
        state.len(),
    );
    out.push_str(" set=");
    if state.is_empty() {
        out.push('-');
        return out;
    }
    for (i, (name, stream)) in state.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        push_stream(&mut out, name, &stream);
    }
    out
}

/// One `name:period_ms,bits[,deadline_ms]` entry — the `set=` grammar
/// shared by the unpaged and paged SHOW renderers.
fn push_stream(out: &mut String, name: &str, stream: &ringrt_model::SyncStream) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{}:{},{}",
        name,
        stream.period().as_millis(),
        stream.length_bits().as_u64(),
    );
    if !stream.has_implicit_deadline() {
        let _ = write!(out, ",{}", stream.relative_deadline().as_millis());
    }
}

/// Renders one page of a ring's admitted set. Same `set=` grammar as
/// [`render_show`], but the header carries the page window (`shown=`,
/// `offset=`) alongside the ring-wide stream count, so clients can walk
/// a 100k-stream ring without ever receiving a 100k-entry line.
fn render_show_page(ring: &str, page: &ringrt_registry::RingPage) -> String {
    let spec: &RingSpec = &page.spec;
    let mut out = format!(
        "OK cmd=show ring={ring} protocol={} mbps={} stations={} streams={} shown={} offset={}",
        spec.protocol,
        spec.mbps,
        fmt_stations(spec.stations),
        page.streams,
        page.page.len(),
        page.offset,
    );
    out.push_str(" set=");
    if page.page.is_empty() {
        out.push('-');
        return out;
    }
    for (i, (name, stream)) in page.page.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        push_stream(&mut out, name, stream);
    }
    out
}

/// Records latency only for completed (`OK`) requests, so BUSY fast-rejects
/// and errors do not skew the per-command histograms.
pub(crate) fn record_completed(
    shared: &Arc<Shared>,
    command: CommandKind,
    started: Instant,
    text: &str,
) {
    if text.starts_with("OK") {
        shared.metrics.record_latency(command, started.elapsed());
    }
}

/// Queues a job whose reply goes to `reply`, or sheds it with `BUSY` when
/// the queue is full — inside a `BATCH` too: the loop has no thread to
/// spare for running overflow inline, and one client's `BATCH` of `ABU`s
/// must not stall every other connection.
fn submit(
    shared: &Arc<Shared>,
    request: Request,
    cache_key: Option<CacheKey>,
    command: CommandKind,
    deadline_ms: Option<u64>,
    reply: ReplyTo,
) -> Handled {
    let started = Instant::now();
    match enqueue(shared, request, cache_key, deadline_ms, reply, started) {
        None => Handled::Queued {
            command: Some(command),
            started,
            ordered: false,
        },
        Some(busy) => Handled::Ready(Response::Line(busy)),
    }
}

/// Puts a job on the worker queue, its deadline counting from `enqueued`;
/// returns the `BUSY` reply when the queue is full.
fn enqueue(
    shared: &Shared,
    request: Request,
    cache_key: Option<CacheKey>,
    deadline_ms: Option<u64>,
    reply: ReplyTo,
    enqueued: Instant,
) -> Option<String> {
    let deadline = Duration::from_millis(deadline_ms.unwrap_or(shared.config.default_deadline_ms));
    let job = Job {
        request,
        cache_key,
        reply,
        enqueued,
        deadline,
    };
    let queued = shared.try_enqueue(job);
    (!queued).then(|| format!("BUSY queue_capacity={}", shared.config.queue_depth))
}

/// Hands a client command to the registry thread. Never shed. All but a
/// stored ring's `SIMULATE`/`SATURATION` are ordered: the loop reads
/// nothing more from the connection until the reply lands, so each
/// connection has at most one waiting.
fn submit_ring(shared: &Shared, request: Request, reply: ReplyTo, received: Instant) -> Handled {
    let (command, ordered) = match &request {
        Request::RingAnalysis { command, .. } => (Some(*command), *command == CommandKind::Check),
        _ => (None, true),
    };
    let job: RegistryJob = Box::new(move |shared, registry| {
        let text = contained(shared, || {
            #[cfg(test)]
            if let Request::RingAnalysis { deadline_ms, .. } = &request {
                injected_panic(*deadline_ms);
                shared.park.here(*deadline_ms);
            }
            execute_ring(shared, registry, request, reply, received)
        })
        .unwrap_or_else(|| Some(INTERNAL_ERROR.to_owned()));
        shared.publish(registry);
        if let Some(text) = text {
            shared.complete(reply, text);
        }
    });
    // Refused only once the registry thread has stopped at shutdown.
    let _ = shared.ring_jobs.push(job, usize::MAX);
    Handled::Queued {
        command,
        started: Instant::now(),
        ordered,
    }
}

/// Runs `call` on the registry thread, in order with every other job, and
/// waits for its result (handed back after the view is published). `None`
/// when `call` panicked or the registry thread has stopped at shutdown,
/// so no caller waits on a thread that is gone.
fn on_registry<T: Send + 'static>(
    shared: &Shared,
    call: impl FnOnce(&Shared, &RingRegistry) -> T + Send + 'static,
) -> Option<T> {
    // Empty until the job has run; then the call's result, or `None`
    // after a panic.
    let slot = Arc::new((Mutex::new(None), Condvar::new()));
    let filled = Arc::clone(&slot);
    let job: RegistryJob = Box::new(move |shared, registry| {
        let result = contained(shared, || call(shared, registry));
        shared.publish(registry);
        *filled.0.lock().expect("registry call poisoned") = Some(result);
        filled.1.notify_one();
    });
    shared.ring_jobs.push(job, usize::MAX)?;
    let (result, ran) = &*slot;
    let result = result.lock().expect("registry call poisoned");
    let mut result = ran
        .wait_while(result, |r| r.is_none())
        .expect("registry call poisoned");
    result.take().flatten()
}

/// The registry thread: owns the registry, and runs registry jobs in
/// arrival order until shutdown has drained them.
fn registry_loop(shared: &Arc<Shared>, registry: &RingRegistry) {
    while let Some(job) = shared.ring_jobs.pop(&shared.shutdown, 0, || {}) {
        job(shared, registry);
    }
}

/// Executes one command [`submit_ring`] handed off. `None` means a worker
/// owes the reply.
fn execute_ring(
    shared: &Shared,
    registry: &RingRegistry,
    request: Request,
    reply: ReplyTo,
    received: Instant,
) -> Option<String> {
    let text = match request {
        Request::Compact => match registry.compact() {
            Ok(()) => {
                let m = registry.metrics();
                format!(
                    "OK cmd=compact journal_bytes={} snapshot_bytes={}",
                    m.journal_bytes, m.snapshot_bytes
                )
            }
            Err(e) => format!("ERR {e}"),
        },
        Request::Register { ring, spec } => match registry.register(&ring, spec) {
            Ok(()) => format!(
                "OK cmd=register ring={ring} protocol={} mbps={} stations={}",
                spec.protocol,
                spec.mbps,
                fmt_stations(spec.stations),
            ),
            Err(e) => format!("ERR {e}"),
        },
        Request::Admit {
            ring,
            stream,
            candidate,
        } => match registry.admit(&ring, &stream, candidate) {
            Ok(out) => render_admission("admit", &ring, &stream, &out),
            Err(e) => format!("ERR {e}"),
        },
        Request::Remove { ring, stream } => match registry.remove(&ring, &stream) {
            Ok(out) => render_admission("remove", &ring, &stream, &out),
            Err(e) => format!("ERR {e}"),
        },
        Request::Unregister { ring } => match registry.unregister(&ring) {
            Ok(()) => format!("OK cmd=unregister ring={ring}"),
            Err(e) => format!("ERR {e}"),
        },
        Request::Show {
            ring: Some(ring),
            limit,
            offset,
        } if limit.is_some() || offset.is_some() => {
            let offset = offset.unwrap_or(0);
            let limit = limit.unwrap_or(usize::MAX);
            match registry.ring_page(&ring, offset, limit) {
                Ok(page) => render_show_page(&ring, &page),
                Err(e) => format!("ERR {e}"),
            }
        }
        Request::Show {
            ring: Some(ring), ..
        } => match registry.ring_state(&ring) {
            Ok(state) => render_show(&ring, &state),
            Err(e) => format!("ERR {e}"),
        },
        // The counted full test — the baseline the STATS evaluation
        // counters compare ADMIT against.
        Request::RingAnalysis {
            command: CommandKind::Check,
            ring,
            ..
        } => match registry.check_full(&ring) {
            Ok(check) => format!(
                "OK cmd=check ring={ring} protocol={} mbps={} stations={} streams={} \
                 utilization={:.6} schedulable={} evaluations={}",
                check.spec.protocol,
                check.spec.mbps,
                check.spec.effective_stations(check.streams),
                check.streams,
                check.utilization,
                check.schedulable,
                check.evaluations,
            ),
            Err(e) => format!("ERR {e}"),
        },
        // A stored ring's `SIMULATE` or `SATURATION` the cache missed: a
        // worker job, keyed by the ring's current generation.
        Request::RingAnalysis {
            command,
            ring,
            seconds,
            async_load,
            seed,
            deadline_ms,
        } => {
            let (state, generation) = match registry.ring_snapshot(&ring) {
                Ok(s) => s,
                Err(e) => return Some(format!("ERR {e}")),
            };
            let Some(set) = state.message_set() else {
                return Some(format!("ERR ring `{ring}` has no streams"));
            };
            let stations = state.spec.effective_stations(set.len());
            if command == CommandKind::Simulate {
                if let Err(e) = protocol::check_stations(stations) {
                    return Some(format!("ERR {e}"));
                }
            }
            let req = AnalysisRequest {
                command,
                protocol: state.spec.protocol,
                mbps: state.spec.mbps,
                stations: Some(stations),
                set,
                seconds,
                async_load,
                seed,
                deadline_ms,
            };
            let key = CacheKey::for_ring(command, seconds, async_load, seed, generation);
            let request = Request::Analysis(req);
            return enqueue(shared, request, Some(key), deadline_ms, reply, received);
        }
        Request::Promote => handle_promote(shared, registry),
        Request::StatsReset => {
            shared.reset_stats(registry);
            "OK cmd=stats_reset".to_owned()
        }
        _ => unreachable!("only registry commands reach the registry thread"),
    };
    Some(text)
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    // The last job's reply, sent once this worker is back on the idle
    // stack (see `JobQueue::pop`).
    let mut done: Option<(ReplyTo, String)> = None;
    let release = |done: &mut Option<(ReplyTo, String)>| {
        if let Some((reply, text)) = done.take() {
            shared.complete(reply, text);
        }
    };
    // Ends once shutdown is requested and the queue is drained.
    while let Some(job) = shared
        .queue
        .pop(&shared.shutdown, index, || release(&mut done))
    {
        // Every popped job's queue wait is recorded — expired jobs
        // included, since their wait is exactly the signal the stage
        // histogram exists to expose.
        let waited = job.enqueued.elapsed();
        shared.metrics.record_stage(Stage::QueueWait, waited);
        if waited > job.deadline {
            shared
                .recorder
                .record("request", "queue_wait", job.enqueued, waited);
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            done = Some((
                job.reply,
                format!(
                    "ERR deadline expired after {} ms in queue",
                    waited.as_millis()
                ),
            ));
            continue;
        }
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        let exec_started = Instant::now();
        let text = contained(shared, || {
            #[cfg(test)]
            injected_panic(u64::try_from(job.deadline.as_millis()).ok());
            execute_request(shared, &job.request, job.cache_key.as_ref())
        })
        .unwrap_or_else(|| INTERNAL_ERROR.to_owned());
        let busy = exec_started.elapsed();
        // Both finished stages go into the recorder under one shard lock.
        shared.recorder.record_many(&[
            Measured {
                cat: "request",
                name: "queue_wait",
                start: job.enqueued,
                dur: waited,
            },
            Measured {
                cat: "request",
                name: "execute",
                start: exec_started,
                dur: busy,
            },
        ]);
        shared.metrics.record_stage(Stage::Execute, busy);
        shared.metrics.record_worker(index, busy);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        done = Some((job.reply, text));
    }
}

/// Executes one queueable request body on a worker.
fn execute_request(
    shared: &Arc<Shared>,
    request: &Request,
    cache_key: Option<&CacheKey>,
) -> String {
    match request {
        Request::Sleep { ms, .. } => {
            let ms = (*ms).min(MAX_SLEEP_MS);
            std::thread::sleep(Duration::from_millis(ms));
            format!("OK cmd=sleep ms={ms}")
        }
        Request::Analysis(req) => {
            finish_cacheable(shared, engine::execute_with(req, &shared.exec), cache_key)
        }
        Request::Abu(req) => {
            finish_cacheable(shared, engine::execute_abu(req, &shared.exec), cache_key)
        }
        other => format!("ERR internal: non-queueable request {other:?}"),
    }
}

/// Stores a successful body under its cache key and stamps the cache
/// marker the client sees.
fn finish_cacheable(shared: &Arc<Shared>, body: String, cache_key: Option<&CacheKey>) -> String {
    if !body.starts_with("OK") {
        return body;
    }
    if let Some(key) = cache_key {
        shared.cache.insert(key.clone(), body.clone());
    }
    format!("{body} cached=false")
}

/// The command token of a state-mutating request, or `None` for reads.
/// `COMPACT` counts as a mutation: a standby's journal is the primary's
/// shipped history, and folding it locally would fork the layouts.
fn mutation_command(request: &Request) -> Option<&'static str> {
    match request {
        Request::Register { .. } => Some("register"),
        Request::Admit { .. } => Some("admit"),
        Request::Remove { .. } => Some("remove"),
        Request::Unregister { .. } => Some("unregister"),
        Request::Compact => Some("compact"),
        _ => None,
    }
}

/// `SYNC epoch=<e> seq=<n> cluster=<c>`: fence the requester's epoch and
/// journal identity against the view, then hand the connection to a ship
/// thread. A primary's epoch and cluster id never change once it serves,
/// and a promotion publishes its epoch before the node stops following.
fn handle_sync(shared: &Shared, epoch: u64, seq: u64, cluster: u64) -> Response {
    if shared.replication.is_follower() {
        return Response::Line(
            "ERR cmd=sync a follower does not ship its journal (SYNC the primary)".to_owned(),
        );
    }
    let view = shared.view();
    let (serving, ours) = (view.epoch, view.cluster);
    if serving == 0 {
        return Response::Line(
            "ERR cmd=sync journal shipping requires a persistent state dir".to_owned(),
        );
    }
    // Cluster fencing: a nonzero requester identity names the journal
    // lineage its history belongs to. A mismatch means the follower
    // replicated a *different* cluster — epochs and sequence numbers from
    // unrelated histories collide freely, so shipping would interleave
    // two journals. Identity 0 is a fresh journal that adopts ours.
    if cluster != 0 && cluster != ours {
        return Response::Line(format!(
            "ERR cmd=sync cluster mismatch requester_cluster={cluster} cluster={ours}"
        ));
    }
    // Epoch fencing: a nonzero requester epoch is a claim about whose
    // history its journal extends. Lower means it replicated a superseded
    // primary (its tail may diverge from ours); higher means *we* are the
    // stale one. Either way shipping would risk split-brain, so refuse.
    // Epoch 0 is a fresh follower with nothing to fence.
    if epoch != 0 && epoch != serving {
        return Response::Line(format!(
            "ERR cmd=sync fenced requester_epoch={epoch} epoch={serving}"
        ));
    }
    Response::Ship(seq)
}

/// `PROMOTE`, on the registry thread: flip a follower to primary under a
/// freshly fenced epoch.
fn handle_promote(shared: &Shared, registry: &RingRegistry) -> String {
    if !shared.replication.is_follower() {
        return format!("ERR cmd=promote already primary epoch={}", registry.epoch());
    }
    match promote_self(shared, registry) {
        Ok(epoch) => format!(
            "OK cmd=promote epoch={epoch} applied_seq={}",
            registry.next_seq().saturating_sub(1)
        ),
        Err(e) => format!("ERR cmd=promote {e}"),
    }
}

/// Durably publishes the next epoch, then the view carrying it, then
/// flips the role. Epoch first: if the fence never hits disk the node must
/// stay a follower, or a restart would resurrect it under the old
/// primary's epoch. View before role: whoever sees a primary sees its
/// epoch. Every later frame job of the old stream is fenced
/// ([`apply_frame`]).
fn promote_self(shared: &Shared, registry: &RingRegistry) -> Result<u64, RegistryError> {
    let epoch = registry.epoch().saturating_add(1).max(2);
    registry.set_epoch(epoch)?;
    shared.publish(registry);
    shared.replication.promote();
    Ok(epoch)
}

/// Serves one admitted `SYNC`: subscribes on the registry thread, writes
/// the snapshot (if any) and backlog in one write, then live records as
/// they commit, with periodic pings carrying the current head so the
/// follower can measure its lag.
pub(crate) fn serve_ship(writer: &mut TcpStream, from_seq: u64, shared: &Shared) {
    let sub = match on_registry(shared, move |_, registry| registry.subscribe(from_seq)) {
        Some(Ok(sub)) => sub,
        Some(Err(e)) => {
            let refusal = format!("ERR {e}");
            shared.metrics.count_response(&refusal);
            let _ = writer.write_all(format!("{refusal}\n").as_bytes());
            return;
        }
        // Shutdown stopped the registry thread first.
        None => return,
    };
    let header = replication::sync_header(
        sub.epoch,
        sub.head,
        sub.snapshot.is_some(),
        sub.backlog.len(),
        sub.cluster,
    );
    shared.metrics.count_response(&header);
    let mut out = String::new();
    out.push_str(&header);
    out.push('\n');
    if let Some((seq, text)) = &sub.snapshot {
        out.push_str(&replication::render_snapshot(
            *seq,
            text.lines().count() as u64,
        ));
        out.push('\n');
        for line in text.lines() {
            out.push_str(line);
            out.push('\n');
        }
    }
    for record in &sub.backlog {
        out.push_str(&replication::render_record(record));
        out.push('\n');
        shared.replication.note_shipped();
    }
    if writer
        .write_all(out.as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return;
    }
    shared.replication.follower_attached();
    let mut last_ping = Instant::now();
    loop {
        match sub.live.recv_timeout(POLL_INTERVAL * 10) {
            Ok(record) => {
                let ship_span = shared.recorder.span("registry", "journal_ship");
                let ok = writer
                    .write_all(format!("{}\n", replication::render_record(&record)).as_bytes())
                    .and_then(|()| writer.flush())
                    .is_ok();
                drop(ship_span);
                if !ok {
                    break;
                }
                shared.replication.note_shipped();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutting_down() {
                    break;
                }
                if last_ping.elapsed() >= Duration::from_secs(1) {
                    let view = shared.view();
                    let ping =
                        replication::render_ping(view.epoch, view.next_seq.saturating_sub(1));
                    if writer
                        .write_all(format!("{ping}\n").as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                    last_ping = Instant::now();
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    shared.replication.follower_detached();
}

/// Why one follower connection attempt ended.
enum FollowEnd {
    /// Reconnect and resubscribe from the current `next_seq`.
    Retry,
    /// Stop following: shutdown, or this node is no longer a follower.
    Stop,
}

/// The warm standby's replay thread: connect, `SYNC`, apply every `SHIP`
/// frame through the registry, reconnect (resubscribing from the exact
/// sequence it needs next) on any gap or stream loss, and auto-promote if
/// the primary stays silent past `promote_timeout_ms`.
fn follower_loop(shared: &Arc<Shared>) {
    let Some(source) = shared.replication.source().map(str::to_owned) else {
        return;
    };
    let promote_after = shared.config.promote_timeout_ms.map(Duration::from_millis);
    let mut last_contact = Instant::now();
    loop {
        if stop_following(shared) {
            return;
        }
        match follow_once(shared, &source, promote_after, &mut last_contact) {
            FollowEnd::Stop => return,
            FollowEnd::Retry => {
                shared.replication.set_connected(false);
                if promote_if_silent(shared, promote_after, last_contact) {
                    return;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

fn stop_following(shared: &Arc<Shared>) -> bool {
    shared.shutting_down() || !shared.replication.is_follower()
}

/// Fires the promote timeout if the primary has been silent too long.
/// Returns true when this node just became primary.
fn promote_if_silent(
    shared: &Arc<Shared>,
    promote_after: Option<Duration>,
    last_contact: Instant,
) -> bool {
    let Some(after) = promote_after else {
        return false;
    };
    if last_contact.elapsed() < after {
        return false;
    }
    // In sequence with the applies, so no frame lands after the fence.
    match on_registry(shared, promote_self) {
        Some(Ok(epoch)) => {
            eprintln!(
                "ringrt-service: primary silent for {} ms; promoted to epoch {epoch}",
                last_contact.elapsed().as_millis()
            );
            true
        }
        Some(Err(e)) => {
            eprintln!("ringrt-service: auto-promotion failed: {e}");
            false
        }
        None => false,
    }
}

/// One connect → SYNC → replay cycle against the primary.
fn follow_once(
    shared: &Arc<Shared>,
    source: &str,
    promote_after: Option<Duration>,
    last_contact: &mut Instant,
) -> FollowEnd {
    let Ok(stream) = TcpStream::connect(source) else {
        return FollowEnd::Retry;
    };
    if stream.set_read_timeout(Some(POLL_INTERVAL * 10)).is_err() {
        return FollowEnd::Retry;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return FollowEnd::Retry;
    };
    let view = shared.view();
    let hello = replication::sync_request(view.epoch, view.next_seq.max(1), view.cluster);
    if writer
        .write_all(format!("{hello}\n").as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return FollowEnd::Retry;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Header first; everything after it is SHIP frames applied under the
    // epoch the header carried.
    let mut stream_epoch: Option<u64> = None;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return FollowEnd::Retry,
            Ok(_) => {
                let frame = line.trim_end().to_owned();
                line.clear();
                *last_contact = Instant::now();
                // A promotion (PROMOTE command or silence timeout) can
                // land between frames; the moment this node stops being a
                // follower, nothing further from the old primary may be
                // applied.
                if stop_following(shared) {
                    return FollowEnd::Stop;
                }
                let Some(epoch) = stream_epoch else {
                    match replication::parse_sync_header(&frame) {
                        Ok(header) => {
                            if !adopt_header(shared, source, &header) {
                                shared.replication.note_resync();
                                return FollowEnd::Retry;
                            }
                            shared.replication.note_head(header.head);
                            shared.replication.set_connected(true);
                            stream_epoch = Some(header.epoch);
                        }
                        Err(refusal) => {
                            eprintln!("ringrt-service: SYNC refused by {source}: {refusal}");
                            shared.replication.note_resync();
                            return FollowEnd::Retry;
                        }
                    }
                    continue;
                };
                match apply_ship_frame(shared, &frame, epoch, &mut reader) {
                    Ok(()) => {}
                    Err(()) => {
                        shared.replication.note_resync();
                        return FollowEnd::Retry;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop_following(shared) {
                    return FollowEnd::Stop;
                }
                if promote_if_silent(shared, promote_after, *last_contact) {
                    return FollowEnd::Stop;
                }
            }
            Err(_) => return FollowEnd::Retry,
        }
    }
}

/// Checks a `SYNC` header against the view, then adopts the primary's
/// journal identity and epoch. `false` refuses the stream.
fn adopt_header(shared: &Shared, source: &str, header: &replication::SyncHeader) -> bool {
    let view = shared.view();
    // A head behind our own journal means the primary never produced
    // records we hold: diverged histories, not a lagging follower. Refuse
    // rather than let the overlap be misread as duplicates.
    if header.head.saturating_add(1) < view.next_seq {
        eprintln!(
            "ringrt-service: {source} advertises head {} behind our journal (next_seq {}); \
             refusing divergent stream",
            header.head, view.next_seq
        );
        return false;
    }
    // Refuse a stream whose identity conflicts with the one we already
    // replicated under (the primary should have fenced us, but an old
    // primary may not know the cluster= key); adopt it on first contact.
    if header.cluster != 0 && view.cluster != 0 && header.cluster != view.cluster {
        eprintln!(
            "ringrt-service: {source} ships cluster {} but this journal belongs to cluster {}; \
             refusing",
            header.cluster, view.cluster
        );
        return false;
    }
    let header = *header;
    let adopted = on_registry(shared, move |_, registry| {
        if header.cluster != 0 {
            registry.set_cluster_id(header.cluster)?;
        }
        if header.epoch > registry.epoch() {
            registry.set_epoch(header.epoch)?;
        }
        Ok::<(), RegistryError>(())
    });
    matches!(adopted, Some(Ok(())))
}

/// Applies one ship frame on the follower under the epoch the stream
/// synced at. `Err(())` forces a resync — the reconnect path resubscribes
/// from exactly `next_seq`, so dropped, duplicated, and reordered frames
/// all converge back to the primary's history.
fn apply_ship_frame(
    shared: &Arc<Shared>,
    frame: &str,
    stream_epoch: u64,
    reader: &mut BufReader<TcpStream>,
) -> Result<(), ()> {
    let frame = replication::parse_ship_frame(frame).map_err(|e| {
        eprintln!("ringrt-service: unparseable ship frame: {e}");
    })?;
    let body = match frame {
        ShipFrame::Snapshot { lines, .. } => read_snapshot_body(shared, reader, lines).ok_or(())?,
        ShipFrame::Record(_) => String::new(),
        ShipFrame::Ping { epoch, head } => {
            // A ping from a different epoch than the stream synced at
            // means either side changed identity mid-stream; drop the
            // connection and let the SYNC fence sort it out.
            if epoch != stream_epoch {
                eprintln!(
                    "ringrt-service: ping epoch {epoch} does not match stream epoch \
                     {stream_epoch}; dropping connection"
                );
                return Err(());
            }
            shared.replication.note_head(head);
            return Ok(());
        }
    };
    on_registry(shared, move |shared, registry| {
        let _replay_span = shared.recorder.span("registry", "journal_replay");
        apply_frame(registry, &shared.replication, &frame, &body, stream_epoch)
    })
    .unwrap_or(Err(()))
}

/// A record or snapshot frame's job on the registry thread (`body`: the
/// snapshot text). Jobs run in order, so once `PROMOTE` has moved the
/// epoch past the stream's, no frame of that stream reaches the journal,
/// not even one read before the promotion.
pub(crate) fn apply_frame(
    registry: &RingRegistry,
    replication: &ReplicationState,
    frame: &ShipFrame,
    body: &str,
    stream_epoch: u64,
) -> Result<(), ()> {
    let serving = registry.epoch();
    if serving != stream_epoch {
        eprintln!(
            "ringrt-service: replication stream fenced: stream epoch {stream_epoch}, \
             local epoch {serving}"
        );
        return Err(());
    }
    match frame {
        ShipFrame::Record(record) => match registry.apply_replicated(record) {
            Ok(ReplicatedApply::Applied { seq }) => {
                replication.note_head(seq);
                replication.note_applied(seq);
                Ok(())
            }
            // Replays after a reconnect overlap the tail we already hold;
            // duplicates are the protocol working as designed.
            Ok(ReplicatedApply::Duplicate { .. }) => Ok(()),
            Ok(ReplicatedApply::Gap { .. }) => Err(()),
            Err(e) => {
                eprintln!("ringrt-service: shipped record refused: {e}");
                Err(())
            }
        },
        ShipFrame::Snapshot { seq, .. } => match registry.install_snapshot(body) {
            Ok(_) => {
                replication.note_head(*seq);
                replication.note_snapshot(*seq);
                Ok(())
            }
            Err(e) => {
                eprintln!("ringrt-service: shipped snapshot rejected: {e}");
                Err(())
            }
        },
        ShipFrame::Ping { .. } => Ok(()),
    }
}

/// Reads the `lines` raw snapshot lines following a snapshot frame.
fn read_snapshot_body(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    lines: u64,
) -> Option<String> {
    let mut text = String::new();
    let mut line = String::new();
    let mut got = 0u64;
    while got < lines {
        match reader.read_line(&mut line) {
            Ok(0) => return None,
            Ok(_) => {
                text.push_str(&line);
                if !line.ends_with('\n') {
                    text.push('\n');
                }
                line.clear();
                got += 1;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutting_down() {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_LINE_BYTES;
    use std::io::Read;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            let writer = stream.try_clone().expect("clone");
            Client {
                reader: BufReader::new(stream),
                writer,
            }
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
            let mut resp = String::new();
            self.reader.read_line(&mut resp).expect("recv");
            resp.trim_end().to_owned()
        }
    }

    fn test_server(workers: usize, queue_depth: usize) -> ServerHandle {
        spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_depth,
            ..ServiceConfig::default()
        })
        .expect("spawn server")
    }

    #[test]
    fn ping_and_malformed_lines() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        assert!(c.roundtrip("NONSENSE").starts_with("ERR"));
        assert!(c.roundtrip("").starts_with("ERR"));
        server.join();
    }

    #[test]
    fn check_roundtrip_and_cache() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        let first = c.roundtrip("CHECK mbps=16 set=20,20000;50,60000");
        assert!(first.contains("schedulable=true"), "{first}");
        assert!(first.ends_with("cached=false"), "{first}");
        let second = c.roundtrip("CHECK mbps=16 set=50,60000;20,20000"); // reordered
        assert!(second.ends_with("cached=true"), "{second}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert!(stats.contains("cache_entries=1"), "{stats}");
        server.join();
    }

    #[test]
    fn busy_when_queue_full() {
        let server = test_server(1, 1);
        let addr = server.addr();
        // Occupy the single worker…
        let blocker = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=600")
        });
        std::thread::sleep(Duration::from_millis(150));
        // …fill the one queue slot…
        let filler = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=100")
        });
        std::thread::sleep(Duration::from_millis(150));
        // …and the next request must be shed, not left hanging.
        let mut c = Client::connect(addr);
        let resp = c.roundtrip("SLEEP ms=1");
        assert!(resp.starts_with("BUSY"), "{resp}");
        assert!(resp.contains("queue_capacity=1"), "{resp}");
        assert_eq!(blocker.join().unwrap(), "OK cmd=sleep ms=600");
        assert_eq!(filler.join().unwrap(), "OK cmd=sleep ms=100");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("busy=1"), "{stats}");
        server.join();
    }

    #[test]
    fn graceful_shutdown_answers_in_flight_work() {
        let server = test_server(1, 4);
        let addr = server.addr();
        let inflight = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=300")
        });
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        assert_eq!(inflight.join().unwrap(), "OK cmd=sleep ms=300");
        server.join();
    }

    #[test]
    fn shutdown_command_closes_and_stops_accepting() {
        let server = test_server(1, 4);
        let addr = server.addr();
        let mut c = Client::connect(addr);
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK cmd=shutdown");
        server.join();
        assert!(TcpStream::connect(addr).is_err(), "still accepting");
    }

    #[test]
    fn registry_commands_roundtrip() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(
            c.roundtrip("REGISTER ring=lab protocol=fddi mbps=100 stations=16"),
            "OK cmd=register ring=lab protocol=fddi mbps=100 stations=16"
        );
        assert!(c
            .roundtrip("REGISTER ring=lab protocol=fddi mbps=100")
            .starts_with("ERR ring `lab` is already registered"));
        let admit = c.roundtrip("ADMIT ring=lab stream=cam period_ms=20 bits=100000");
        assert!(admit.contains("schedulable=true admitted=true"), "{admit}");
        assert!(admit.contains("streams=1"), "{admit}");
        // Duplicate stream names are rejected with a structured error.
        let dup = c.roundtrip("ADMIT ring=lab stream=cam period_ms=30 bits=1000");
        assert_eq!(dup, "ERR duplicate stream `cam` in ring `lab`");
        let admit2 = c.roundtrip("ADMIT ring=lab stream=mic period_ms=50 bits=200000");
        assert!(admit2.contains("incremental=true"), "{admit2}");
        let show = c.roundtrip("SHOW ring=lab");
        assert!(
            show.starts_with("OK cmd=show ring=lab protocol=fddi"),
            "{show}"
        );
        assert!(show.contains("set=cam:20,100000;mic:50,200000"), "{show}");
        assert_eq!(c.roundtrip("SHOW"), "OK cmd=show rings=1 names=lab");
        let check = c.roundtrip("CHECK ring=lab");
        assert!(check.contains("schedulable=true"), "{check}");
        assert!(check.contains("evaluations="), "{check}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("rings=1"), "{stats}");
        assert!(stats.contains("registry_streams=2"), "{stats}");
        assert!(stats.contains("incremental_tests=1"), "{stats}");
        let rm = c.roundtrip("REMOVE ring=lab stream=cam");
        assert!(rm.contains("streams=1"), "{rm}");
        assert_eq!(
            c.roundtrip("UNREGISTER ring=lab"),
            "OK cmd=unregister ring=lab"
        );
        assert!(c.roundtrip("SHOW ring=lab").starts_with("ERR unknown ring"));
        server.join();
    }

    #[test]
    fn unschedulable_admit_not_applied() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=r protocol=fddi mbps=100 stations=8");
        c.roundtrip("ADMIT ring=r stream=ok period_ms=20 bits=100000");
        let hog = c.roundtrip("ADMIT ring=r stream=hog period_ms=100 bits=12000000");
        assert!(hog.contains("schedulable=false admitted=false"), "{hog}");
        assert!(hog.contains("streams=1"), "{hog}");
        // The hog can be retried under another name; the ring is intact.
        let show = c.roundtrip("SHOW ring=r");
        assert!(show.contains("streams=1"), "{show}");
        server.join();
    }

    #[test]
    fn batch_answers_in_order_with_one_write() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        // One write carrying the header and all three pipelined requests.
        c.writer
            .write_all(b"BATCH 3\nPING\nCHECK mbps=16 set=20,20000\nPING\n")
            .expect("send batch");
        let mut responses = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            responses.push(r.trim_end().to_owned());
        }
        assert_eq!(responses[0], "OK cmd=ping");
        assert!(responses[1].contains("cmd=check"), "{}", responses[1]);
        assert_eq!(responses[2], "OK cmd=ping");
        // Nested batches are refused but do not kill the connection.
        c.writer
            .write_all(b"BATCH 2\nBATCH 2\nPING\n")
            .expect("send nested");
        let mut nested = Vec::new();
        for _ in 0..2 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            nested.push(r.trim_end().to_owned());
        }
        assert!(nested[0].starts_with("ERR nested BATCH"), "{}", nested[0]);
        assert_eq!(nested[1], "OK cmd=ping");
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        server.join();
    }

    #[test]
    fn batch_overlaps_sleeps_and_answers_in_submission_order() {
        let server = test_server(4, 16);
        let mut c = Client::connect(server.addr());
        // Four 200 ms sleeps: serial execution would need ≥800 ms; the
        // parallel batch path should finish in roughly one sleep.
        let started = Instant::now();
        c.writer
            .write_all(b"BATCH 5\nSLEEP ms=200\nSLEEP ms=200\nPING\nSLEEP ms=200\nSLEEP ms=200\n")
            .expect("send batch");
        let mut responses = Vec::new();
        for _ in 0..5 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            responses.push(r.trim_end().to_owned());
        }
        let elapsed = started.elapsed();
        assert_eq!(responses[0], "OK cmd=sleep ms=200");
        assert_eq!(responses[1], "OK cmd=sleep ms=200");
        assert_eq!(responses[2], "OK cmd=ping");
        assert_eq!(responses[3], "OK cmd=sleep ms=200");
        assert_eq!(responses[4], "OK cmd=sleep ms=200");
        assert!(
            elapsed < Duration::from_millis(700),
            "batch took {elapsed:?}, sleeps did not overlap"
        );
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("queue_peak="), "{stats}");
        assert!(stats.contains("worker_jobs="), "{stats}");
        server.join();
    }

    #[test]
    fn batch_overflow_answers_busy_per_position() {
        // One worker, one queue slot. Once the worker is busy, a six-deep
        // batch finds one free queue slot: the first position queues, the
        // other five answer BUSY, and all six come back in order in one
        // write.
        let server = test_server(1, 1);
        let addr = server.addr();
        let blocker = std::thread::spawn(move || Client::connect(addr).roundtrip("SLEEP ms=400"));
        let mut c = Client::connect(addr);
        await_contains(&mut c, "STATS", " inflight=1 ");
        let mut batch = String::from("BATCH 6\n");
        for _ in 0..6 {
            batch.push_str("SLEEP ms=10\n");
        }
        c.writer.write_all(batch.as_bytes()).expect("send batch");
        let mut first_read = vec![0u8; 4096];
        let n = c.reader.get_mut().read(&mut first_read).expect("recv");
        let replies = String::from_utf8_lossy(&first_read[..n]).into_owned();
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(
            lines.len(),
            6,
            "one write carries all six replies: {replies:?}"
        );
        assert_eq!(lines[0], "OK cmd=sleep ms=10");
        for (i, line) in lines.iter().enumerate().skip(1) {
            assert_eq!(*line, "BUSY queue_capacity=1", "position {i}");
        }
        assert_eq!(blocker.join().unwrap(), "OK cmd=sleep ms=400");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains(" busy=5 "), "{stats}");
        server.join();
    }

    #[test]
    fn abu_roundtrip_is_cached_and_deterministic() {
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 8,
            exec_threads: Some(4),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        let line = "ABU mbps=100 stations=8 samples=20 seed=5 protocol=fddi deadline_ms=30000";
        let first = c.roundtrip(line);
        assert!(first.starts_with("OK cmd=abu"), "{first}");
        assert!(first.contains(" abu_mean="), "{first}");
        assert!(first.ends_with("cached=false"), "{first}");
        let second = c.roundtrip(line);
        assert!(second.ends_with("cached=true"), "{second}");
        // The cached body is the first body verbatim: pool-width
        // determinism is what makes ABU cacheable at all.
        assert_eq!(
            first.trim_end_matches("cached=false"),
            second.trim_end_matches("cached=true")
        );
        let other_seed = c
            .roundtrip("ABU mbps=100 stations=8 samples=20 seed=6 protocol=fddi deadline_ms=30000");
        assert!(other_seed.ends_with("cached=false"), "{other_seed}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("exec_threads=4"), "{stats}");
        // Two executed requests plus one cache hit, all latency-counted.
        assert!(stats.contains("abu_count=3"), "{stats}");
        server.join();
    }

    #[test]
    fn ring_mutation_invalidates_cached_ring_analyses() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=r protocol=fddi mbps=100 stations=8");
        c.roundtrip("ADMIT ring=r stream=a period_ms=20 bits=100000");
        let first = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(first.ends_with("cached=false"), "{first}");
        let hit = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(hit.ends_with("cached=true"), "{hit}");
        // Remove and re-admit the *identical* stream: the set is unchanged
        // but the ring's generation moved, so the entry must be stale —
        // without any EVICT.
        c.roundtrip("REMOVE ring=r stream=a");
        c.roundtrip("ADMIT ring=r stream=a period_ms=20 bits=100000");
        let after = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(after.ends_with("cached=false"), "{after}");
        // Stability: the re-admitted state caches normally from here on.
        let again = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(again.ends_with("cached=true"), "{again}");
        server.join();
    }

    #[test]
    fn evict_clears_cache_and_counts() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        c.roundtrip("CHECK mbps=16 set=20,20000");
        c.roundtrip("CHECK mbps=16 set=20,30000");
        assert_eq!(c.roundtrip("EVICT"), "OK cmd=evict evicted=2");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("cache_entries=0"), "{stats}");
        assert!(stats.contains("cache_capacity="), "{stats}");
        // The next identical CHECK is a miss again.
        let again = c.roundtrip("CHECK mbps=16 set=20,20000");
        assert!(again.ends_with("cached=false"), "{again}");
        server.join();
    }

    #[test]
    fn saturation_on_stored_ring() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=r protocol=fddi mbps=100 stations=8");
        c.roundtrip("ADMIT ring=r stream=a period_ms=20 bits=100000");
        let sat = c.roundtrip("SATURATION ring=r");
        assert!(sat.contains("cmd=saturation"), "{sat}");
        assert!(sat.contains(" scale="), "{sat}");
        assert!(c
            .roundtrip("SATURATION ring=ghost")
            .starts_with("ERR unknown ring"));
        server.join();
    }

    fn temp_state_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ringrt-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Spawns a persistent primary and a follower replicating it.
    fn replicated_pair(tag: &str) -> (ServerHandle, ServerHandle, PathBuf, PathBuf) {
        let primary_dir = temp_state_dir(&format!("{tag}-p"));
        let follower_dir = temp_state_dir(&format!("{tag}-f"));
        let primary = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 8,
            state_dir: Some(primary_dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn primary");
        let follower = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 8,
            state_dir: Some(follower_dir.clone()),
            follow: Some(primary.addr().to_string()),
            ..ServiceConfig::default()
        })
        .expect("spawn follower");
        (primary, follower, primary_dir, follower_dir)
    }

    /// Polls `line` against the follower until `want` appears (replication
    /// is asynchronous) or five seconds pass.
    fn await_contains(c: &mut Client, line: &str, want: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = c.roundtrip(line);
            if got.contains(want) {
                return got;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {want:?}; last answer: {got}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    #[test]
    fn follower_redirects_mutations_and_answers_reads() {
        let (primary, follower, pd, fd) = replicated_pair("redirect");
        let mut p = Client::connect(primary.addr());
        let mut f = Client::connect(follower.addr());
        p.roundtrip("REGISTER ring=lab protocol=fddi mbps=100 stations=8");
        p.roundtrip("ADMIT ring=lab stream=cam period_ms=20 bits=100000");
        // The standby catches up and answers the same CHECK the primary does.
        let on_follower = await_contains(&mut f, "CHECK ring=lab", "schedulable=true");
        assert_eq!(on_follower, p.roundtrip("CHECK ring=lab"));
        // A single mutation is redirected, not erred.
        let redirect = f.roundtrip("ADMIT ring=lab stream=mic period_ms=50 bits=1000");
        assert_eq!(
            redirect,
            format!("READONLY cmd=admit primary={} epoch=1", primary.addr())
        );
        // In a BATCH, only the mutating frame is redirected.
        f.writer
            .write_all(b"BATCH 3\nPING\nREMOVE ring=lab stream=cam\nSHOW ring=lab\n")
            .expect("send batch");
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            f.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "OK cmd=ping");
        assert!(
            got[1].starts_with("READONLY cmd=remove primary="),
            "{}",
            got[1]
        );
        assert!(got[2].contains("set=cam:20,100000"), "{}", got[2]);
        // The redirects are visible as their own counter, not as errors.
        let stats = f.roundtrip("STATS");
        assert!(stats.contains(" readonly=2"), "{stats}");
        assert!(stats.contains(" role=follower"), "{stats}");
        let rep = f.roundtrip("REPLICATION");
        assert!(rep.contains("role=follower"), "{rep}");
        assert!(rep.contains("epoch=1"), "{rep}");
        // STATS RESET re-seeds the lag window with the live lag.
        assert_eq!(f.roundtrip("STATS RESET"), "OK cmd=stats_reset");
        let after = f.roundtrip("REPLICATION");
        assert!(after.contains(" lag=0 lag_peak=0"), "{after}");
        follower.join();
        primary.join();
        let _ = std::fs::remove_dir_all(pd);
        let _ = std::fs::remove_dir_all(fd);
    }

    #[test]
    fn sync_from_a_stale_epoch_is_fenced() {
        let dir = temp_state_dir("fence");
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 4,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        // Serving epoch is 1 (first boot). A requester claiming any other
        // nonzero epoch replicated some other history: refuse with the
        // fencing error, naming both epochs.
        assert_eq!(
            c.roundtrip("SYNC epoch=99 seq=1"),
            "ERR cmd=sync fenced requester_epoch=99 epoch=1"
        );
        // The connection stays usable after a refused SYNC.
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        // SYNC cannot hide inside a BATCH: the stream would swallow the
        // remaining framed replies.
        c.writer
            .write_all(b"BATCH 2\nSYNC seq=1\nPING\n")
            .expect("send batch");
        let mut got = Vec::new();
        for _ in 0..2 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "ERR SYNC is not allowed inside BATCH");
        assert_eq!(got[1], "OK cmd=ping");
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn in_memory_server_refuses_sync_and_promote() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(
            c.roundtrip("SYNC seq=1"),
            "ERR cmd=sync journal shipping requires a persistent state dir"
        );
        assert_eq!(
            c.roundtrip("PROMOTE"),
            "ERR cmd=promote already primary epoch=0"
        );
        let rep = c.roundtrip("REPLICATION");
        assert!(rep.contains("role=primary"), "{rep}");
        assert!(rep.contains("source=-"), "{rep}");
        server.join();
    }

    #[test]
    fn promote_fences_a_new_epoch_and_enables_mutations() {
        let (primary, follower, pd, fd) = replicated_pair("promote");
        let mut p = Client::connect(primary.addr());
        p.roundtrip("REGISTER ring=ring protocol=fddi mbps=100 stations=8");
        p.roundtrip("ADMIT ring=ring stream=a period_ms=20 bits=100000");
        let mut f = Client::connect(follower.addr());
        await_contains(&mut f, "SHOW ring=ring", "streams=1");
        // Primary dies; the operator promotes the standby.
        assert_eq!(p.roundtrip("SHUTDOWN"), "OK cmd=shutdown");
        primary.join();
        let promoted = f.roundtrip("PROMOTE");
        assert_eq!(promoted, "OK cmd=promote epoch=2 applied_seq=2");
        assert_eq!(
            f.roundtrip("PROMOTE"),
            "ERR cmd=promote already primary epoch=2"
        );
        // Mutations now apply locally instead of redirecting.
        let admit = f.roundtrip("ADMIT ring=ring stream=b period_ms=50 bits=200000");
        assert!(admit.contains("admitted=true"), "{admit}");
        let rep = f.roundtrip("REPLICATION");
        assert!(rep.contains("role=primary"), "{rep}");
        assert!(rep.contains("epoch=2"), "{rep}");
        assert!(rep.contains("promotions=1"), "{rep}");
        follower.join();
        let _ = std::fs::remove_dir_all(pd);
        let _ = std::fs::remove_dir_all(fd);
    }

    /// Spawns a server with arbitrary config tweaks on top of the test
    /// defaults (two workers, queue depth 8, ephemeral port).
    fn custom_server(mutate: impl FnOnce(&mut ServiceConfig)) -> ServerHandle {
        let mut config = ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 8,
            ..ServiceConfig::default()
        };
        mutate(&mut config);
        spawn(config).expect("spawn server")
    }

    #[test]
    fn loop_roundtrips_inline_and_queued_requests() {
        let server = custom_server(|_| {});
        let mut c = Client::connect(server.addr());
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        let first = c.roundtrip("CHECK mbps=16 set=20,20000;50,60000");
        assert!(first.contains("schedulable=true"), "{first}");
        assert!(first.ends_with("cached=false"), "{first}");
        let second = c.roundtrip("CHECK mbps=16 set=50,60000;20,20000");
        assert!(second.ends_with("cached=true"), "{second}");
        // Registry mutations round-trip through the registry thread.
        assert_eq!(
            c.roundtrip("REGISTER ring=ev protocol=fddi mbps=100 stations=8"),
            "OK cmd=register ring=ev protocol=fddi mbps=100 stations=8"
        );
        let admit = c.roundtrip("ADMIT ring=ev stream=a period_ms=20 bits=100000");
        assert!(admit.contains("admitted=true"), "{admit}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("connections_open=1"), "{stats}");
        assert!(stats.contains("loop_wakeups="), "{stats}");
        server.join();
    }

    #[test]
    fn pipelined_replies_keep_request_order() {
        let server = custom_server(|_| {});
        let mut c = Client::connect(server.addr());
        // Two queue-bound analyses and an inline PING in one write: the
        // replies must come back in submission order even though the
        // analyses overlap on the worker pool.
        c.writer
            .write_all(b"CHECK mbps=16 set=20,20000\nPING\nCHECK mbps=16 set=50,60000\n")
            .expect("send pipeline");
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert!(got[0].starts_with("OK cmd=check"), "{}", got[0]);
        assert_eq!(got[1], "OK cmd=ping");
        assert!(got[2].starts_with("OK cmd=check"), "{}", got[2]);
        server.join();
    }

    #[test]
    fn batch_with_queued_positions_answers_in_order() {
        let server = custom_server(|_| {});
        let mut c = Client::connect(server.addr());
        c.writer
            .write_all(b"BATCH 3\nSLEEP ms=80\nPING\nCHECK mbps=16 set=20,20000\n")
            .expect("send batch");
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "OK cmd=sleep ms=80");
        assert_eq!(got[1], "OK cmd=ping");
        assert!(got[2].starts_with("OK cmd=check"), "{}", got[2]);
        // Nested framing is refused per-position.
        c.writer
            .write_all(b"BATCH 2\nBATCH 2\nPING\n")
            .expect("send nested");
        let mut got = Vec::new();
        for _ in 0..2 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "ERR nested BATCH is not allowed");
        assert_eq!(got[1], "OK cmd=ping");
        server.join();
    }

    #[test]
    fn sheds_beyond_max_conns() {
        let server = custom_server(|c| c.max_conns = 1);
        let mut first = Client::connect(server.addr());
        assert_eq!(first.roundtrip("PING"), "OK cmd=ping");
        // The shed connection gets one definite BUSY line, then EOF.
        let shed = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(shed);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read BUSY line");
        assert_eq!(line.trim_end(), "BUSY max_conns=1");
        line.clear();
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "shed connection must be closed, got {line:?}");
        // The stats record the shed and still count one open connection.
        let stats = first.roundtrip("STATS");
        assert!(stats.contains(" max_conns=1"), "{stats}");
        assert!(stats.contains("accept_shed=1"), "{stats}");
        assert!(stats.contains("connections_open=1"), "{stats}");
        server.join();
    }

    #[test]
    fn closes_partial_line_at_read_deadline() {
        let server = custom_server(|c| c.read_deadline_ms = 100);
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        // A slow loris: bytes trickle in but the newline never comes.
        writer.write_all(b"CHE").expect("partial write");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read ERR line");
        assert_eq!(
            line.trim_end(),
            "ERR read deadline: partial line idle for 100 ms"
        );
        line.clear();
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "stalled connection must be closed");
        let mut c = Client::connect(server.addr());
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("read_deadline_closed=1"), "{stats}");
        server.join();
    }

    #[test]
    fn closes_idle_connections() {
        let server = custom_server(|c| c.idle_timeout_ms = Some(100));
        let idle = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(idle);
        let mut line = String::new();
        // No request ever sent: the idle wheel reaps the connection.
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "idle connection must be closed, got {line:?}");
        let mut c = Client::connect(server.addr());
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("idle_closed=1"), "{stats}");
        server.join();
    }

    #[test]
    fn rejects_oversized_lines() {
        let server = test_server(1, 4);
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let blob = vec![b'A'; MAX_LINE_BYTES + 64];
        writer.write_all(&blob).expect("send oversized");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read ERR line");
        assert_eq!(
            line.trim_end(),
            format!("ERR line exceeds {MAX_LINE_BYTES} bytes")
        );
        line.clear();
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "oversized-line connection must be closed");
        let mut c = Client::connect(server.addr());
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("oversized_rejected=1"), "{stats}");
        server.join();
    }

    #[test]
    fn half_closed_client_still_gets_queued_replies() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        c.writer
            .write_all(b"SLEEP ms=50\nPING\n")
            .expect("send requests");
        c.writer
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = String::new();
        c.reader.read_to_string(&mut rest).expect("read to EOF");
        assert_eq!(rest, "OK cmd=sleep ms=50\nOK cmd=ping\n");
        server.join();
    }

    #[test]
    fn pipelined_ring_commands_see_earlier_effects() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        // One write: each line must see the effect of the ring commands
        // before it, although those run on the registry thread and the
        // SIMULATE snapshots the ring on the loop.
        c.writer
            .write_all(
                b"REGISTER ring=p protocol=modified mbps=16 stations=8\n\
                  ADMIT ring=p stream=a period_ms=20 bits=20000\n\
                  SIMULATE ring=p seconds=0.1 seed=1\n\
                  BATCH 3\n\
                  REMOVE ring=p stream=a\n\
                  SIMULATE ring=p seconds=0.1 seed=1\n\
                  SHOW ring=p\n",
            )
            .expect("send pipeline");
        let mut replies = Vec::new();
        for _ in 0..6 {
            let mut line = String::new();
            c.reader.read_line(&mut line).expect("reply");
            replies.push(line.trim_end().to_owned());
        }
        assert!(
            replies[0].starts_with("OK cmd=register ring=p"),
            "{replies:?}"
        );
        assert!(replies[1].contains("admitted=true"), "{replies:?}");
        assert!(replies[2].starts_with("OK cmd=simulate"), "{replies:?}");
        assert!(
            replies[3].starts_with("OK cmd=remove ring=p stream=a"),
            "{replies:?}"
        );
        assert_eq!(replies[4], "ERR ring `p` has no streams");
        assert!(replies[5].ends_with(" streams=0 set=-"), "{replies:?}");
        server.join();
    }

    #[test]
    fn ring_work_leaves_other_connections_served() {
        const STREAMS: usize = 500;
        const CHECKS: usize = 1000;
        let server = test_server(1, 4);
        let mut a = Client::connect(server.addr());
        let mut b = Client::connect(server.addr());
        a.roundtrip("REGISTER ring=big protocol=fddi mbps=100 stations=600");
        let mut admits = format!("BATCH {STREAMS}\n");
        for i in 0..STREAMS {
            admits.push_str(&format!(
                "ADMIT ring=big stream=s{i} period_ms={} bits=64\n",
                10_000 + i
            ));
        }
        a.writer.write_all(admits.as_bytes()).expect("send admits");
        let mut line = String::new();
        for _ in 0..STREAMS {
            line.clear();
            a.reader.read_line(&mut line).expect("admit reply");
            assert!(line.contains("admitted=true"), "{line}");
        }
        b.roundtrip("STATS RESET");
        let checks = format!("BATCH {CHECKS}\n{}", "CHECK ring=big\n".repeat(CHECKS));
        a.writer.write_all(checks.as_bytes()).expect("send checks");
        // While the registry thread runs A's full tests, B is answered:
        // some STATS reply lands with A's batch part-way done.
        let full_tests = |stats: &str| -> usize {
            stats
                .split_whitespace()
                .find_map(|f| f.strip_prefix("full_tests="))
                .and_then(|v| v.parse().ok())
                .expect("full_tests in STATS")
        };
        let mut seen = 0;
        while seen == 0 {
            seen = full_tests(&b.roundtrip("STATS"));
        }
        assert!(seen < CHECKS, "B waited for all of A's batch");
        for _ in 0..CHECKS {
            line.clear();
            a.reader.read_line(&mut line).expect("check reply");
            assert!(line.starts_with("OK cmd=check ring=big "), "{line}");
        }
        server.join();
    }

    #[test]
    fn unread_replies_pause_reading_until_drained() {
        // A client pipelines large SHOW replies without reading them. The
        // loop must stop reading it once the unflushed replies pass the
        // output cap, keep serving other connections meanwhile, and hand
        // over every reply, in order, once the client reads.
        let server = test_server(1, 4);
        let mut setup = Client::connect(server.addr());
        setup.roundtrip("REGISTER ring=big protocol=fddi mbps=100 stations=8");
        for i in 0..200 {
            let admit = setup.roundtrip(&format!(
                "ADMIT ring=big stream=s{i:03} period_ms=1000 bits=1000"
            ));
            assert!(admit.contains("admitted=true"), "{admit}");
        }
        const N: usize = 8_000;
        let slow = Client::connect(server.addr());
        let mut writer = slow.writer.try_clone().expect("clone");
        let pipeline = std::thread::spawn(move || {
            for i in 0..N {
                let line = format!("SHOW ring=big offset={} limit=200\n", i % 100);
                writer.write_all(line.as_bytes()).expect("pipeline");
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let stats = loop {
            let stats = setup.roundtrip("STATS");
            let paused = stats
                .split_whitespace()
                .find_map(|f| f.strip_prefix("read_paused="))
                .and_then(|v| v.parse::<u64>().ok());
            if paused.is_some_and(|p| p > 0) {
                break stats;
            }
            assert!(Instant::now() < deadline, "reading never paused: {stats}");
            std::thread::sleep(Duration::from_millis(25));
        };
        assert!(stats.contains("connections_open=2"), "{stats}");
        assert_eq!(setup.roundtrip("PING"), "OK cmd=ping");
        let mut reader = slow.reader;
        let mut line = String::new();
        for i in 0..N {
            line.clear();
            reader.read_line(&mut line).expect("reply");
            let offset = format!(" offset={} ", i % 100);
            assert!(
                line.starts_with("OK cmd=show ring=big") && line.contains(&offset),
                "reply {i}: {}",
                &line[..line.len().min(120)]
            );
        }
        pipeline.join().expect("pipeline thread");
        // A batch whose replies outgrow the cap is still read to its last
        // line and answered in full.
        let mut c = Client::connect(server.addr());
        // A loop that stops reading inside the batch never answers it.
        c.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut batch = String::from("BATCH 40\n");
        for _ in 0..40 {
            batch.push_str("SHOW ring=big\n");
        }
        c.writer.write_all(batch.as_bytes()).expect("send batch");
        for i in 0..40 {
            line.clear();
            c.reader.read_line(&mut line).expect("batch reply");
            assert!(line.contains("streams=200 "), "position {i}");
        }
        server.join();
    }

    #[test]
    fn every_stats_key_has_a_metrics_series() {
        use ringrt_obs::prom::parse_exposition;
        // STATS keys with no METRICS counterpart, and why.
        const STATS_ONLY: &[(&str, &str)] =
            &[("source", "string-valued: the followed primary's address")];
        let server = test_server(2, 4);
        let mut c = Client::connect(server.addr());
        c.roundtrip("CHECK mbps=16 set=20,20000");
        let stats = c.roundtrip("STATS");
        let header = c.roundtrip("METRICS");
        let lines: usize = header
            .strip_prefix("OK cmd=metrics lines=")
            .expect("metrics header")
            .parse()
            .expect("line count");
        let body: Vec<String> = (0..lines)
            .map(|_| {
                let mut l = String::new();
                c.reader.read_line(&mut l).expect("metrics line");
                l
            })
            .collect();
        let samples = parse_exposition(&body.concat()).expect("exposition parses");
        let has = |name: &str, label: Option<(&str, &str)>| {
            samples
                .iter()
                .any(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
        };
        let latency = |key: &str| {
            CommandKind::ALL.into_iter().find(|cmd| {
                ["_count", "_p50_us", "_p99_us"]
                    .iter()
                    .any(|suffix| key == format!("{}{suffix}", cmd.token()))
            })
        };
        let keys: Vec<&str> = stats
            .split_whitespace()
            .skip(2)
            .filter_map(|field| field.split_once('=').map(|(k, _)| k))
            .collect();
        assert!(keys.len() > 50, "{stats}");
        for key in keys {
            if STATS_ONLY.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let found = if let Some(row) = crate::report::SCALARS.iter().find(|r| r.stats == key) {
                has(row.metric, row.label)
            } else if let Some(cmd) = latency(key) {
                has(
                    "ringrt_request_latency_seconds_count",
                    Some(("command", cmd.token())),
                )
            } else if key == "worker_jobs" {
                has("ringrt_worker_jobs_total", None)
            } else if key == "worker_busy_us" {
                has("ringrt_worker_busy_seconds_total", None)
            } else {
                has(&format!("ringrt_replication_{key}"), None)
                    || has(&format!("ringrt_replication_{key}_total"), None)
            };
            assert!(found, "STATS key `{key}` has no METRICS series");
        }
        server.join();
    }

    #[test]
    fn every_scalar_renders_its_own_source_in_both_formats() {
        use ringrt_obs::prom::parse_exposition;
        let server = custom_server(|c| {
            c.workers = 3;
            c.queue_depth = 5;
            c.max_conns = 11;
        });
        let shared = &server.shared;
        let m = &shared.metrics;
        // A distinct value per source, so a row that reads the wrong one
        // renders the wrong number. No client connects: the loop stays
        // asleep and nothing else moves these between the two renders.
        let sources: [(&str, &AtomicU64); 19] = [
            ("requests", &m.requests),
            ("ok", &m.ok),
            ("errors", &m.errors),
            ("busy", &m.busy),
            ("readonly", &m.readonly),
            ("deadline_expired", &m.deadline_expired),
            ("inline_checks", &m.inline_checks),
            ("inline_budget_exceeded", &m.inline_budget_exceeded),
            ("panics", &m.panics),
            ("inflight", &shared.inflight),
            ("connections_open", &m.conns.open),
            ("connections_accepted", &m.conns.accepted),
            ("accept_shed", &m.conns.accept_shed),
            ("loop_wakeups", &m.conns.loop_wakeups),
            ("loop_ready_events", &m.conns.loop_ready_events),
            ("idle_closed", &m.conns.idle_closed),
            ("read_deadline_closed", &m.conns.read_deadline_closed),
            ("oversized_rejected", &m.conns.oversized_rejected),
            ("read_paused", &m.conns.read_paused),
        ];
        let mut expected: Vec<(&str, f64)> = Vec::new();
        for (value, (key, source)) in (101..).zip(sources) {
            source.store(value, Ordering::Relaxed);
            expected.push((key, value as f64));
        }
        m.note_queue_depth(4);
        m.note_hit(Duration::from_micros(2500));
        expected.extend([
            ("queue_peak", 4.0),
            ("hit_fast", 1.0),
            ("hit_fast_us", 2500.0),
            ("workers", 3.0),
            ("queue_capacity", 5.0),
            ("max_conns", 11.0),
        ]);
        let stats = shared.render_stats();
        let samples = parse_exposition(&shared.render_metrics()).expect("exposition parses");
        let stats_value = |key: &str| -> f64 {
            stats
                .split_whitespace()
                .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or_else(|| panic!("STATS lacks `{key}`: {stats}"))
                .parse()
                .unwrap_or_else(|_| panic!("STATS `{key}` is not a number: {stats}"))
        };
        let metric_value = |row: &crate::report::Scalar| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == row.metric && row.label.is_none_or(|(k, v)| s.label(k) == Some(v))
                })
                .unwrap_or_else(|| panic!("METRICS lacks the series for `{}`", row.stats))
                .value
        };
        let row = |key: &str| {
            crate::report::SCALARS
                .iter()
                .find(|r| r.stats == key)
                .unwrap_or_else(|| panic!("no table row for `{key}`"))
        };
        for (key, want) in expected {
            assert_eq!(stats_value(key), want, "STATS `{key}`");
            let row = row(key);
            assert_eq!(metric_value(row), want * row.scale, "METRICS for `{key}`");
        }
        // Every other row agrees across the two formats too, scaled as the
        // row says (STATS prints non-integers to three decimals).
        for row in crate::report::SCALARS {
            if row.stats == "uptime_ms" {
                continue; // moves between the two renders
            }
            let (stats, metric) = (stats_value(row.stats), metric_value(row));
            assert!(
                (stats * row.scale - metric).abs() <= 5e-4 * row.scale,
                "`{}`: STATS {stats} vs METRICS {metric}",
                row.stats
            );
        }
        shared.inflight.store(0, Ordering::Relaxed);
        m.conns.open.store(0, Ordering::Relaxed);
        server.join();
    }

    #[test]
    fn sync_refuses_a_mismatched_cluster_identity() {
        let dir = temp_state_dir("cluster-mismatch");
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 4,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        // The primary stamped its journal at boot; STATS exposes the id.
        let stats = c.roundtrip("STATS");
        let cluster: u64 = stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix("cluster="))
            .expect("cluster= field in STATS")
            .parse()
            .expect("numeric cluster id");
        assert_ne!(cluster, 0, "primary must stamp a nonzero cluster id");
        // A requester whose journal carries a different identity is
        // replicating some other cluster's history: refuse to ship.
        let other = cluster ^ 1;
        assert_eq!(
            c.roundtrip(&format!("SYNC epoch=1 seq=1 cluster={other}")),
            format!("ERR cmd=sync cluster mismatch requester_cluster={other} cluster={cluster}")
        );
        // The connection survives the refusal.
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        // A fresh journal (cluster=0, also the pre-cluster wire default)
        // is allowed in and learns the identity from the header.
        let mut f = Client::connect(server.addr());
        let header = f.roundtrip("SYNC epoch=1 seq=1 cluster=0");
        assert!(header.starts_with("OK cmd=sync"), "{header}");
        assert!(header.contains(&format!("cluster={cluster}")), "{header}");
        drop(f);
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sync_detaches_a_ship_thread() {
        let dir = temp_state_dir("event-sync");
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 4,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=s protocol=fddi mbps=100 stations=8");
        let mut f = Client::connect(server.addr());
        let header = f.roundtrip("SYNC epoch=1 seq=1");
        assert!(header.starts_with("OK cmd=sync epoch=1"), "{header}");
        assert!(header.contains("cluster="), "{header}");
        // The stream now ships the snapshot the registry journaled.
        let mut frame = String::new();
        f.reader.read_line(&mut frame).expect("first ship frame");
        assert!(frame.starts_with("SHIP"), "{frame}");
        drop(f);
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn deadline_expires_in_queue() {
        let server = test_server(1, 4);
        let addr = server.addr();
        let blocker = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=300")
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut c = Client::connect(addr);
        // Work that still queues: a small CHECK would be answered on the
        // loop, where no queue deadline applies.
        let resp = c.roundtrip("SLEEP ms=1 deadline_ms=50");
        assert!(resp.starts_with("ERR deadline expired"), "{resp}");
        blocker.join().unwrap();
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("deadline_expired=1"), "{stats}");
        server.join();
    }

    /// A `CHECK` request line for the modified protocol over `streams`
    /// light streams with periods from 20 ms up: schedulable, and costing
    /// about `8·n + n²` demand terms (two response-time iterations per
    /// rank), so its size picks which side of the inline budget it lands.
    fn check_line(streams: usize, bits: usize) -> String {
        let set: Vec<String> = (0..streams).map(|i| format!("{},{bits}", 20 + i)).collect();
        format!("CHECK mbps=16 protocol=modified set={}", set.join(";"))
    }

    fn analysis(line: &str) -> AnalysisRequest {
        match parse_request(line).expect("parses") {
            Request::Analysis(req) => req,
            other => panic!("not an analysis: {other:?}"),
        }
    }

    fn stat(stats: &str, key: &str) -> u64 {
        stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("STATS lacks `{key}`: {stats}"))
            .parse()
            .expect("numeric STATS value")
    }

    /// Waits until every worker of `server` is back on the idle stack.
    fn await_idle_workers(server: &ServerHandle, workers: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.shared.queue.lock().idle.len() < workers {
            assert!(Instant::now() < deadline, "workers never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_lone_connections_jobs_run_on_one_worker() {
        let server = test_server(4, 16);
        let mut c = Client::connect(server.addr());
        await_idle_workers(&server, 4);
        // A worker is back on the idle stack before its reply goes out,
        // so each next request finds it on top. An ABU fans out on the
        // exec pool's scoped threads in between, which must not disturb
        // the choice of worker.
        for k in 0..30 {
            let line = if k % 5 == 2 {
                format!("ABU mbps=100 stations=8 samples=4 seed={k} protocol=fddi")
            } else {
                "SLEEP ms=1".to_owned()
            };
            assert!(c.roundtrip(&line).starts_with("OK"), "{line}");
        }
        let stats = c.roundtrip("STATS");
        let jobs = stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix("worker_jobs="))
            .expect("worker_jobs");
        let mut per_worker: Vec<u64> = jobs.split(',').map(|n| n.parse().unwrap()).collect();
        per_worker.sort_unstable();
        assert_eq!(per_worker, [0, 0, 0, 30], "{stats}");
        server.join();
    }

    #[test]
    fn two_long_jobs_run_on_two_workers() {
        let server = test_server(4, 16);
        let addr = server.addr();
        let mut c = Client::connect(addr);
        // Make one worker the hot one first.
        assert_eq!(c.roundtrip("SLEEP ms=1"), "OK cmd=sleep ms=1");
        await_idle_workers(&server, 4);
        let started = Instant::now();
        let other = std::thread::spawn(move || Client::connect(addr).roundtrip("SLEEP ms=400"));
        assert_eq!(c.roundtrip("SLEEP ms=400"), "OK cmd=sleep ms=400");
        assert_eq!(other.join().unwrap(), "OK cmd=sleep ms=400");
        assert!(
            started.elapsed() < Duration::from_millis(750),
            "the two jobs ran one after the other: {:?}",
            started.elapsed()
        );
        let stats = c.roundtrip("STATS");
        let busy = stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix("worker_jobs="))
            .expect("worker_jobs")
            .split(',')
            .filter(|n| *n != "0")
            .count();
        assert_eq!(busy, 2, "{stats}");
        server.join();
    }

    #[test]
    fn shutdown_wakes_idle_workers() {
        let server = test_server(4, 16);
        let mut c = Client::connect(server.addr());
        assert_eq!(c.roundtrip("SLEEP ms=1"), "OK cmd=sleep ms=1");
        await_idle_workers(&server, 4);
        // `wait` does not signal shutdown itself: the request must reach
        // every worker parked on the idle stack.
        let (done, stopped) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            server.wait();
            let _ = done.send(());
        });
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK cmd=shutdown");
        stopped
            .recv_timeout(Duration::from_secs(5))
            .expect("the idle workers did not stop within 5 s");
        waiter.join().expect("waiter thread");
    }

    #[test]
    fn small_check_is_answered_while_the_queue_is_full() {
        let server = test_server(1, 1);
        let addr = server.addr();
        let blocker = std::thread::spawn(move || Client::connect(addr).roundtrip("SLEEP ms=400"));
        let mut c = Client::connect(addr);
        await_contains(&mut c, "STATS", " inflight=1 ");
        let filler = std::thread::spawn(move || Client::connect(addr).roundtrip("SLEEP ms=10"));
        await_contains(&mut c, "STATS", " queue_len=1 ");
        assert_eq!(c.roundtrip("SLEEP ms=1"), "BUSY queue_capacity=1");
        let check = c.roundtrip("CHECK mbps=16 set=20,20000;50,60000");
        assert!(check.starts_with("OK cmd=check"), "{check}");
        assert!(check.ends_with("schedulable=true cached=false"), "{check}");
        let stats = c.roundtrip("STATS");
        assert_eq!(stat(&stats, "inline_checks"), 1, "{stats}");
        assert_eq!(stat(&stats, "busy"), 1, "{stats}");
        assert_eq!(blocker.join().unwrap(), "OK cmd=sleep ms=400");
        assert_eq!(filler.join().unwrap(), "OK cmd=sleep ms=10");
        server.join();
    }

    #[test]
    fn check_over_the_budget_is_queued_with_the_same_bytes() {
        let line = check_line(60, 100);
        let req = analysis(&line);
        assert_eq!(
            engine::execute_check(&req, &mut Budget::terms(INLINE_CHECK_BUDGET)),
            Err(Unfinished),
            "the set must need more than one budget"
        );
        let expected = engine::execute_check(&req, &mut Budget::unlimited()).unwrap();
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(c.roundtrip(&line), format!("{expected} cached=false"));
        let stats = c.roundtrip("STATS");
        assert_eq!(stat(&stats, "inline_budget_exceeded"), 1, "{stats}");
        assert_eq!(stat(&stats, "inline_checks"), 0, "{stats}");
        assert!(stats.contains(" worker_jobs=1 "), "{stats}");
        // Cached by the worker: the repeat is a hit with the same body.
        assert_eq!(c.roundtrip(&line), format!("{expected} cached=true"));
        server.join();
    }

    #[test]
    fn batch_of_checks_spends_at_most_one_budget_on_the_loop() {
        let lines: Vec<String> = (0..10).map(|k| check_line(15, 100 + k)).collect();
        // What one budget pays for, replayed in-process: every CHECK runs
        // until the budget is spent, the rest are queued.
        let mut budget = Budget::terms(INLINE_CHECK_BUDGET);
        let mut expected = Vec::new();
        let mut inline = 0u64;
        for line in &lines {
            let req = analysis(line);
            if engine::execute_check(&req, &mut budget).is_ok() {
                inline += 1;
            }
            let body = engine::execute_check(&req, &mut Budget::unlimited()).unwrap();
            expected.push(format!("{body} cached=false"));
        }
        assert!(
            (1..lines.len() as u64).contains(&inline),
            "one budget must pay for some but not all: {inline}"
        );
        let server = test_server(2, 16);
        let mut c = Client::connect(server.addr());
        let batch = format!("BATCH {}\n{}\n", lines.len(), lines.join("\n"));
        c.writer.write_all(batch.as_bytes()).expect("send batch");
        for want in &expected {
            let mut got = String::new();
            c.reader.read_line(&mut got).expect("recv");
            assert_eq!(got.trim_end(), want);
        }
        let stats = c.roundtrip("STATS");
        assert_eq!(stat(&stats, "inline_checks"), inline, "{stats}");
        assert_eq!(
            stat(&stats, "inline_budget_exceeded"),
            lines.len() as u64 - inline,
            "{stats}"
        );
        server.join();
    }

    #[test]
    fn checks_in_a_contended_pass_go_to_the_workers() {
        let server = test_server(2, 8);
        let (mut a, mut b, mut c) = (
            Client::connect(server.addr()),
            Client::connect(server.addr()),
            Client::connect(server.addr()),
        );
        assert_eq!(a.roundtrip("PING"), "OK cmd=ping");
        assert_eq!(b.roundtrip("PING"), "OK cmd=ping");
        // Stall the loop on the ring-command queue's lock while two other
        // connections send, so its next pass finds both ready at once.
        let held = server.shared.ring_jobs.lock();
        c.writer.write_all(b"SHOW ring=none\n").expect("send");
        std::thread::sleep(Duration::from_millis(200));
        a.writer
            .write_all(b"CHECK mbps=16 set=20,20000;50,60000\n")
            .expect("send");
        b.writer.write_all(b"PING\n").expect("send");
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        let mut reply = String::new();
        a.reader.read_line(&mut reply).expect("recv");
        assert!(reply.trim_end().ends_with("cached=false"), "{reply}");
        let mut reply = String::new();
        b.reader.read_line(&mut reply).expect("recv");
        assert_eq!(reply.trim_end(), "OK cmd=ping");
        let mut reply = String::new();
        c.reader.read_line(&mut reply).expect("recv");
        assert!(reply.starts_with("ERR "), "{reply}");
        let stats = a.roundtrip("STATS");
        assert_eq!(stat(&stats, "inline_checks"), 0, "{stats}");
        assert_eq!(stat(&stats, "inline_budget_exceeded"), 1, "{stats}");
        assert!(stats.contains(" worker_jobs=1,0 ") || stats.contains(" worker_jobs=0,1 "));
        // Alone in its pass, the same kind of request runs on the loop.
        let alone = a.roundtrip("CHECK mbps=16 set=20,20000;50,60001");
        assert!(alone.ends_with("cached=false"), "{alone}");
        assert_eq!(stat(&a.roundtrip("STATS"), "inline_checks"), 1);
        server.join();
    }

    #[test]
    fn panics_in_request_code_are_contained() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        c.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let trigger = format!("deadline_ms={PANIC_DEADLINE_MS}");
        // On the event loop: an inline CHECK.
        assert_eq!(
            c.roundtrip(&format!("CHECK mbps=16 set=20,20000 {trigger}")),
            INTERNAL_ERROR
        );
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        // On the only worker: it must survive to run the next job.
        assert_eq!(
            c.roundtrip(&format!("SLEEP ms=1 {trigger}")),
            INTERNAL_ERROR
        );
        assert_eq!(c.roundtrip("SLEEP ms=1"), "OK cmd=sleep ms=1");
        // On the registry thread: later ring commands still run.
        assert!(c
            .roundtrip("REGISTER ring=lab protocol=fddi mbps=100 stations=4")
            .starts_with("OK"));
        assert!(c
            .roundtrip("ADMIT ring=lab stream=a period_ms=20 bits=1000")
            .contains("admitted=true"));
        assert_eq!(
            c.roundtrip(&format!("CHECK ring=lab {trigger}")),
            INTERNAL_ERROR
        );
        assert!(c.roundtrip("CHECK ring=lab").contains("schedulable=true"));
        let stats = c.roundtrip("STATS");
        assert_eq!(stat(&stats, "panics"), 3, "{stats}");
        assert_eq!(stat(&stats, "inflight"), 0, "{stats}");
        assert_eq!(stat(&stats, "workers"), 1, "{stats}");
        assert!(stats.contains(" worker_jobs=2 "), "{stats}");
        let (header, body) = {
            let header = c.roundtrip("METRICS");
            let lines: usize = header.rsplit('=').next().unwrap().parse().unwrap();
            let body: Vec<String> = (0..lines)
                .map(|_| {
                    let mut l = String::new();
                    c.reader.read_line(&mut l).expect("recv");
                    l.trim_end().to_owned()
                })
                .collect();
            (header, body)
        };
        assert!(
            body.iter().any(|l| l == "ringrt_panics_total 3"),
            "{header}: {body:?}"
        );
        server.join();
    }

    /// Sends one wire input that used to panic a thread and checks it is
    /// refused with `ERR` and that this connection and a new one are still
    /// served.
    fn refused_then_served(config: impl FnOnce(&mut ServiceConfig), line: &str) {
        let server = custom_server(config);
        let mut c = Client::connect(server.addr());
        c.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reply = c.roundtrip(line);
        assert!(reply.starts_with("ERR "), "{line} -> {reply}");
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping", "after {line}");
        let mut other = Client::connect(server.addr());
        assert_eq!(other.roundtrip("PING"), "OK cmd=ping", "after {line}");
        let stats = c.roundtrip("STATS");
        assert_eq!(stat(&stats, "panics"), 0, "{stats}");
        assert_eq!(stat(&stats, "rings"), 0, "{stats}");
        server.join();
    }

    #[test]
    fn check_with_a_bandwidth_that_overflows_is_refused() {
        refused_then_served(|_| {}, "CHECK mbps=1e308 set=20,1000");
    }

    #[test]
    fn check_with_a_station_count_that_overflows_is_refused() {
        for protocol in ["802.5", "modified", "fddi"] {
            refused_then_served(
                |_| {},
                &format!(
                    "CHECK mbps=16 set=20,1000 protocol={protocol} stations=18446744073709551615"
                ),
            );
        }
    }

    #[test]
    fn abu_past_the_station_limit_is_refused() {
        // Used to pass parsing and abort the process allocating 10^17
        // streams per sample.
        refused_then_served(|_| {}, "ABU mbps=100 stations=100000000000000000 samples=1");
    }

    #[test]
    fn simulate_past_the_station_limit_is_refused() {
        // Used to panic a worker: the ring's token rotation overflows the
        // simulator's picosecond clock.
        refused_then_served(
            |_| {},
            "SIMULATE mbps=16 set=20,1000 stations=100000000000000000 seconds=0.01",
        );
    }

    #[test]
    fn durations_that_killed_the_event_loop_are_refused() {
        // Each used to panic inside `parse_request`, which runs on the
        // event loop outside `catch_unwind`: `NaN` reached
        // `Seconds::from_millis`, and a deadline of 5e-324 ms (or a set's
        // period of 1e-323 ms) passed the parser's own `> 0` check but is
        // 0 s, which `with_relative_deadline` (or `SyncStream::new`)
        // asserted against.
        for line in [
            "ADMIT ring=r stream=a period_ms=NaN bits=1000",
            "ADMIT ring=r stream=a period_ms=20 bits=1000 deadline_ms=NaN",
            "ADMIT ring=r stream=a period_ms=20 bits=1000 deadline_ms=5e-324",
            "SIMULATE mbps=16 set=20,1000 seconds=NaN",
            "CHECK mbps=16 set=20,1000;1e-323,100",
        ] {
            refused_then_served(|_| {}, line);
        }
    }

    #[test]
    fn simulate_times_past_the_clock_are_refused() {
        // Each used to panic a worker converting a ring, stream or frame
        // time to the simulator's picosecond clock.
        for line in [
            "SIMULATE mbps=1e-300 set=20,1000 seconds=0.1",
            "SIMULATE mbps=1e-300 set=20,1000 seconds=0.1 protocol=fddi",
            "SIMULATE mbps=16 set=1e300,1000 seconds=0.1",
            "SIMULATE mbps=16 set=20,1000 seconds=0.1 async_load=1e-300",
            "SIMULATE mbps=16 set=20,18446744073709551615 seconds=0.1 protocol=fddi",
        ] {
            refused_then_served(|_| {}, line);
        }
    }

    #[test]
    fn simulate_ring_with_a_period_past_the_clock_is_refused() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        let register = c.roundtrip("REGISTER ring=p protocol=modified mbps=16");
        assert!(register.starts_with("OK"), "{register}");
        let admit = c.roundtrip("ADMIT ring=p stream=a period_ms=1e300 bits=1000");
        assert!(admit.contains("admitted=true"), "{admit}");
        let reply = c.roundtrip("SIMULATE ring=p");
        assert!(reply.starts_with("ERR the longest period"), "{reply}");
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        assert_eq!(stat(&c.roundtrip("STATS"), "panics"), 0);
        server.join();
    }

    #[test]
    fn simulate_ring_past_the_station_limit_is_refused() {
        // A stored ring may pin more stations than a simulation may run
        // on; `SIMULATE ring=` checks the count it resolves.
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        let register = c.roundtrip(&format!(
            "REGISTER ring=big protocol=modified mbps=16 stations={}",
            crate::MAX_STATIONS + 1
        ));
        assert!(register.starts_with("OK"), "{register}");
        let admit = c.roundtrip("ADMIT ring=big stream=s period_ms=1000 bits=1000");
        assert!(admit.contains("admitted=true"), "{admit}");
        let reply = c.roundtrip("SIMULATE ring=big seconds=0.01");
        assert!(reply.starts_with("ERR "), "{reply}");
        assert!(reply.contains("server limit"), "{reply}");
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        let check = c.roundtrip("CHECK ring=big");
        assert!(check.contains("schedulable=true"), "{check}");
        assert_eq!(stat(&c.roundtrip("STATS"), "panics"), 0);
        server.join();
    }

    #[test]
    fn register_with_a_bandwidth_that_overflows_is_refused_and_not_journaled() {
        let dir = temp_state_dir("overflow-mbps");
        let state = dir.clone();
        refused_then_served(
            move |c| c.state_dir = Some(state),
            "REGISTER ring=a protocol=fddi mbps=1e308",
        );
        // Nothing reached the journal: the directory reopens with no rings.
        let reopened = RingRegistry::open(&dir).expect("state dir reopens");
        assert!(reopened.ring_names().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn register_with_a_station_count_that_overflows_is_refused_and_not_journaled() {
        let dir = temp_state_dir("overflow-stations");
        let state = dir.clone();
        refused_then_served(
            move |c| c.state_dir = Some(state),
            "REGISTER ring=b protocol=modified mbps=16 stations=18446744073709551615",
        );
        let reopened = RingRegistry::open(&dir).expect("state dir reopens");
        assert!(reopened.ring_names().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_panic_inside_the_parse_is_contained() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(c.roundtrip(PANIC_LINE), INTERNAL_ERROR);
        // The loop survived: this connection and a new one are served.
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        let mut other = Client::connect(server.addr());
        assert_eq!(other.roundtrip("PING"), "OK cmd=ping");
        assert_eq!(stat(&other.roundtrip("STATS"), "panics"), 1);
        server.join();
    }

    /// Sends `line` without reading its reply.
    fn send(c: &mut Client, line: &str) {
        c.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    /// Reads one reply line.
    fn recv(c: &mut Client) -> String {
        let mut line = String::new();
        c.reader.read_line(&mut line).expect("recv");
        line.trim_end().to_owned()
    }

    /// Parks the registry thread inside a `CHECK ring=` on a connection of
    /// its own, which is returned to read the reply from.
    fn park_registry(server: &ServerHandle, ring: &str) -> Client {
        let mut parked = Client::connect(server.addr());
        send(
            &mut parked,
            &format!("CHECK ring={ring} deadline_ms={}", park::DEADLINE_MS),
        );
        server.shared.park.await_parked();
        parked
    }

    /// Waits until `n` registry jobs are queued behind the running one.
    fn await_registry_jobs(server: &ServerHandle, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.shared.ring_jobs.len() < n {
            assert!(Instant::now() < deadline, "{n} registry jobs never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn loop_side_requests_answer_while_the_registry_thread_is_parked() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=lab protocol=fddi mbps=100 stations=8");
        c.roundtrip("ADMIT ring=lab stream=a period_ms=20 bits=100000");
        let simulate = "SIMULATE ring=lab seconds=0.01 seed=1";
        let first = c.roundtrip(simulate);
        assert!(first.ends_with("cached=false"), "{first}");
        let mut parked = park_registry(&server, "lab");
        // Nothing the loop answers needs the registry thread.
        let mut other = Client::connect(server.addr());
        for (line, want) in [
            ("PING", "OK cmd=ping"),
            ("STATS", "OK cmd=stats "),
            ("METRICS", "OK cmd=metrics lines="),
            ("SHOW", "OK cmd=show rings=1 names=lab"),
            ("REPLICATION", "OK cmd=replication role=primary"),
            ("CHECK mbps=16 set=20,20000", "OK cmd=check "),
            (simulate, "OK cmd=simulate "),
        ] {
            let started = Instant::now();
            let reply = other.roundtrip(line);
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "{line} waited on the registry thread"
            );
            assert!(reply.starts_with(want), "{line} -> {reply}");
            if line == "METRICS" {
                let lines: usize = reply.rsplit('=').next().unwrap().parse().unwrap();
                for _ in 0..lines {
                    recv(&mut other);
                }
            }
            if line == simulate {
                assert!(reply.ends_with("cached=true"), "{reply}");
            }
        }
        server.shared.park.open();
        assert!(recv(&mut parked).starts_with("OK cmd=check ring=lab "));
        // One connection's ADMIT then SIMULATE ring=: the SIMULATE sees the
        // admission (a new generation, two streams).
        other
            .writer
            .write_all(
                format!("ADMIT ring=lab stream=b period_ms=50 bits=100000\n{simulate}\n")
                    .as_bytes(),
            )
            .expect("send pipeline");
        assert!(recv(&mut other).contains(" admitted=true "));
        let after = recv(&mut other);
        assert!(after.contains(" streams=2 "), "{after}");
        assert!(after.ends_with("cached=false"), "{after}");
        server.join();
    }

    /// Journal record lines and a snapshot from a real primary journal:
    /// `REGISTER lab`, then `ADMIT lab cam`, then the compacted state.
    fn primary_frames(tag: &str) -> (Vec<String>, (u64, String)) {
        let dir = temp_state_dir(tag);
        let source = RingRegistry::open(&dir).expect("open source journal");
        let spec = RingSpec {
            protocol: crate::ProtocolKind::Fddi,
            mbps: 100.0,
            stations: Some(8),
        };
        source.register("lab", spec).unwrap();
        let cam = ringrt_model::SyncStream::new(
            ringrt_units::Seconds::from_millis(20.0),
            ringrt_units::Bits::new(100_000),
        );
        source.admit("lab", "cam", cam).unwrap();
        let records = source.subscribe(1).unwrap().backlog;
        source.compact().unwrap();
        let snapshot = source.subscribe(1).unwrap().snapshot.expect("compacted");
        drop(source);
        let _ = std::fs::remove_dir_all(dir);
        (records, snapshot)
    }

    #[test]
    fn frames_of_a_superseded_stream_never_reach_the_journal() {
        let (records, (snap_seq, snapshot)) = primary_frames("fence-source");
        let old_stream = [
            format!("{}\n", replication::render_record(&records[1])),
            format!(
                "{}\n{snapshot}",
                replication::render_snapshot(snap_seq, snapshot.lines().count() as u64)
            ),
        ];
        for (i, frame) in old_stream.iter().enumerate() {
            // A stand-in primary serving epoch 1 ships `REGISTER lab`.
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let dir = temp_state_dir(&format!("fence-{i}"));
            let follower = custom_server(|c| {
                c.state_dir = Some(dir.clone());
                c.follow = Some(listener.local_addr().unwrap().to_string());
            });
            let (mut primary, _) = listener.accept().expect("follower connects");
            let mut hello = String::new();
            BufReader::new(primary.try_clone().unwrap())
                .read_line(&mut hello)
                .expect("SYNC");
            assert!(hello.starts_with("SYNC "), "{hello}");
            let header = replication::sync_header(1, 2, false, 1, 0);
            let first = replication::render_record(&records[0]);
            primary
                .write_all(format!("{header}\n{first}\n").as_bytes())
                .expect("ship");
            let mut c = Client::connect(follower.addr());
            await_contains(&mut c, "REPLICATION", " applied_seq=1 ");
            // PROMOTE queues while the registry thread is parked, and the
            // old stream's next frame queues behind it.
            let mut parked = park_registry(&follower, "lab");
            send(&mut c, "PROMOTE");
            await_registry_jobs(&follower, 1);
            primary.write_all(frame.as_bytes()).expect("ship");
            await_registry_jobs(&follower, 2);
            follower.shared.park.open();
            assert!(recv(&mut parked).starts_with("ERR "), "the ring is empty");
            assert_eq!(recv(&mut c), "OK cmd=promote epoch=2 applied_seq=1");
            let rep = c.roundtrip("REPLICATION");
            assert!(rep.contains(" role=primary epoch=2 "), "{rep}");
            assert!(rep.contains(" applied_seq=1 "), "{rep}");
            assert!(rep.contains(" snapshots_installed=0 "), "{rep}");
            follower.join();
            // Nothing of the frame reached the journal or the snapshot.
            let reopened = RingRegistry::open(&dir).expect("reopen");
            assert_eq!(reopened.next_seq(), 2, "frame {i}");
            assert!(reopened.ring_state("lab").unwrap().is_empty(), "frame {i}");
            assert!(!dir.join("snapshot.dat").exists(), "frame {i}");
            drop(reopened);
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn sync_subscriptions_beside_compactions_never_hit_a_storage_error() {
        // Tiny segments, so every few admits seal a segment and each
        // compaction deletes files the subscriptions read.
        let dir = temp_state_dir("sync-compact");
        let server = custom_server(|c| {
            c.state_dir = Some(dir.clone());
            c.segment_bytes = Some(96);
        });
        let addr = server.addr();
        Client::connect(addr).roundtrip("REGISTER ring=r protocol=fddi mbps=100 stations=64");
        let compactor = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            for i in 0..40 {
                let admit = c.roundtrip(&format!(
                    "ADMIT ring=r stream=s{i} period_ms={} bits=1000",
                    20 + i
                ));
                assert!(admit.contains(" admitted=true "), "{admit}");
                let compact = c.roundtrip("COMPACT");
                assert!(compact.starts_with("OK cmd=compact "), "{compact}");
            }
        });
        let mut subscriptions = 0;
        while !compactor.is_finished() {
            let mut f = Client::connect(addr);
            let header = f.roundtrip("SYNC epoch=0 seq=1");
            assert!(header.starts_with("OK cmd=sync "), "{header}");
            subscriptions += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        compactor.join().expect("compactor");
        assert!(subscriptions > 0);
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Joins `server` on another thread and checks it returns within five
    /// seconds of `release` running.
    fn joins_promptly(server: ServerHandle, release: impl FnOnce()) {
        let (done, joined) = mpsc::channel();
        let joiner = std::thread::spawn(move || {
            server.join();
            let _ = done.send(());
        });
        release();
        joined
            .recv_timeout(Duration::from_secs(5))
            .expect("join did not return within 5 s");
        joiner.join().expect("joiner thread");
    }

    #[test]
    fn join_returns_while_a_follower_catches_up() {
        const STREAMS: usize = 400;
        let primary_dir = temp_state_dir("join-catchup-p");
        let follower_dir = temp_state_dir("join-catchup-f");
        let primary = custom_server(|c| c.state_dir = Some(primary_dir.clone()));
        let mut p = Client::connect(primary.addr());
        p.roundtrip("REGISTER ring=big protocol=fddi mbps=100 stations=600");
        let mut admits = format!("BATCH {STREAMS}\n");
        for i in 0..STREAMS {
            admits.push_str(&format!(
                "ADMIT ring=big stream=s{i} period_ms={} bits=64\n",
                10_000 + i
            ));
        }
        p.writer.write_all(admits.as_bytes()).expect("send admits");
        for _ in 0..STREAMS {
            assert!(recv(&mut p).contains("admitted=true"));
        }
        let follower = custom_server(|c| {
            c.state_dir = Some(follower_dir.clone());
            c.follow = Some(primary.addr().to_string());
        });
        let mut f = Client::connect(follower.addr());
        await_contains(&mut f, "REPLICATION", " connected=true ");
        joins_promptly(follower, || {});
        primary.join();
        let _ = std::fs::remove_dir_all(primary_dir);
        let _ = std::fs::remove_dir_all(follower_dir);
    }

    #[test]
    fn join_returns_while_a_ship_thread_waits_for_its_subscription() {
        let dir = temp_state_dir("join-ship");
        let server = custom_server(|c| c.state_dir = Some(dir.clone()));
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=lab protocol=fddi mbps=100 stations=8");
        let mut parked = park_registry(&server, "lab");
        let mut f = Client::connect(server.addr());
        send(&mut f, "SYNC epoch=0 seq=1");
        // The fences passed on the loop; the ship thread now waits for its
        // subscription behind the parked job.
        await_registry_jobs(&server, 1);
        let shared = Arc::clone(&server.shared);
        joins_promptly(server, || shared.park.open());
        assert!(recv(&mut parked).starts_with("ERR "), "the ring is empty");
        assert!(recv(&mut f).starts_with("OK cmd=sync "));
        let _ = std::fs::remove_dir_all(dir);
    }
}
