//! Server observability: request/outcome counters, per-command latency
//! histograms, and per-stage request timing.
//!
//! Latencies reuse [`ringrt_des::stats::DurationHistogram`] — the same
//! log₂-bucketed structure the simulator uses for response times — so the
//! `STATS` quantiles carry the identical "upper edge of the bucket"
//! semantics documented there, and the `METRICS` Prometheus exposition
//! reuses the exact same bucket edges as its `le` labels. Counters are
//! lock-free atomics; each histogram sits behind its own mutex, touched
//! once per completed request (or stage).
//!
//! `queue_peak` is a **windowed** high-water mark: it tracks the deepest
//! the admission queue has been since the last `STATS RESET` (or server
//! start), not over the process lifetime, so load experiments can take
//! clean per-window deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ringrt_des::stats::DurationHistogram;
use ringrt_obs::prom::PromWriter;
use ringrt_obs::{HighWater, ShardedCounter};
use ringrt_units::SimDuration;

use crate::protocol::CommandKind;

/// Converts a wall-clock duration to the simulator's picosecond duration,
/// saturating at the (≈213-day) representable maximum.
#[must_use]
pub fn sim_duration(d: Duration) -> SimDuration {
    let ps = d.as_nanos().saturating_mul(1000);
    SimDuration::from_picos(u64::try_from(ps).unwrap_or(u64::MAX))
}

/// One command's latency record.
#[derive(Debug, Default)]
struct CommandStats {
    histogram: Mutex<DurationHistogram>,
}

/// One fast-path hit span is sampled per this many hits (per counter
/// shard): enough to keep hits visible in `TRACE` output while the
/// recorder's per-event cost disappears into the noise (<0.5% instead
/// of the ~2% a span per hit would cost on a ~2 µs hit).
pub const HIT_SPAN_SAMPLE: u64 = 64;

/// A request-lifecycle stage timed by the server.
///
/// Every request passes through `parse → cache → queue_wait → execute →
/// respond`; cache hits skip the queue and execute stages — and skip
/// per-stage recording entirely: the hit fast path aggregates into
/// [`Metrics::note_hit`]'s sharded counters instead. Each stage has
/// its own latency histogram so the `METRICS` exposition (and the `TRACE`
/// flight recorder, which uses the same stage names as span names) can
/// attribute end-to-end latency to a pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Request-line parsing (`parse_request`).
    Parse,
    /// Result-cache probe (hit or miss).
    Cache,
    /// Time spent queued before a worker claimed the job.
    QueueWait,
    /// Worker-side engine execution.
    Execute,
    /// Serializing and writing the response line.
    Respond,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Parse,
        Stage::Cache,
        Stage::QueueWait,
        Stage::Execute,
        Stage::Respond,
    ];

    /// Stable lowercase token (metric label / span name).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Cache => "cache",
            Stage::QueueWait => "queue_wait",
            Stage::Execute => "execute",
            Stage::Respond => "respond",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Cache => 1,
            Stage::QueueWait => 2,
            Stage::Execute => 3,
            Stage::Respond => 4,
        }
    }
}

/// One worker thread's utilization record.
#[derive(Debug, Default)]
struct WorkerStats {
    /// Jobs this worker completed.
    jobs: AtomicU64,
    /// Microseconds this worker spent executing jobs.
    busy_us: AtomicU64,
}

/// Connection counters kept by the event loop.
///
/// `open` is a **gauge** — it tracks present state (currently connected
/// clients) and therefore survives `STATS RESET`, unlike the accumulated
/// counters around it.
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Connections currently open (gauge; not reset).
    pub open: AtomicU64,
    /// Connections accepted since the last reset.
    pub accepted: AtomicU64,
    /// Connections shed at accept time by the `max_conns` guard.
    pub accept_shed: AtomicU64,
    /// Event-loop poll returns (wakeups).
    pub loop_wakeups: AtomicU64,
    /// Readiness events delivered across all wakeups; divide by
    /// `loop_wakeups` for the events-per-wakeup batching factor.
    pub loop_ready_events: AtomicU64,
    /// Connections closed for exceeding the idle timeout.
    pub idle_closed: AtomicU64,
    /// Connections closed for stalling mid-line past the read deadline
    /// (the slow-loris guard).
    pub read_deadline_closed: AtomicU64,
    /// Request lines rejected for exceeding the line-length cap.
    pub oversized_rejected: AtomicU64,
    /// Times a connection stopped being read because its unflushed
    /// replies passed the loop's output cap (a client not reading its
    /// replies).
    pub read_paused: AtomicU64,
}

/// All server counters and histograms.
#[derive(Debug)]
pub struct Metrics {
    /// Request lines received (including malformed ones).
    pub requests: AtomicU64,
    /// `OK` responses sent.
    pub ok: AtomicU64,
    /// `ERR` responses sent.
    pub errors: AtomicU64,
    /// `BUSY` responses sent (queue full, load shed).
    pub busy: AtomicU64,
    /// `READONLY` redirects sent (mutation against a follower).
    pub readonly: AtomicU64,
    /// Requests answered `ERR` because they overstayed their queue deadline.
    pub deadline_expired: AtomicU64,
    /// Cache-missing `CHECK`s the event loop answered itself, within its
    /// work budget.
    pub inline_checks: AtomicU64,
    /// Cache-missing `CHECK`s that did not fit the event loop's work
    /// budget — used up, or not granted in a contended loop pass — and were
    /// queued for a worker instead.
    pub inline_budget_exceeded: AtomicU64,
    /// Panics caught where request code runs — the event loop, a worker,
    /// the registry thread — each answered `ERR internal`.
    pub panics: AtomicU64,
    /// Deepest the admission queue has been since the last `STATS RESET`
    /// (windowed high-water mark).
    pub queue_peak: HighWater,
    /// Accept-path and event-loop counters.
    pub conns: ConnCounters,
    /// Cache hits answered on the zero-span fast path (pre-aggregated
    /// sharded counter; see [`Metrics::note_hit`]).
    hit_fast: ShardedCounter,
    /// Cumulative fast-path hit latency (parse→reply), microseconds.
    hit_fast_us: ShardedCounter,
    per_command: [CommandStats; CommandKind::ALL.len()],
    per_stage: [CommandStats; Stage::ALL.len()],
    per_worker: Vec<WorkerStats>,
}

impl Metrics {
    /// Creates zeroed metrics with no per-worker slots (unit tests; real
    /// servers use [`Metrics::with_workers`]).
    #[must_use]
    pub fn new() -> Self {
        Metrics::with_workers(0)
    }

    /// Creates zeroed metrics with one utilization slot per worker thread.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            readonly: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            inline_checks: AtomicU64::new(0),
            inline_budget_exceeded: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            queue_peak: HighWater::new(),
            conns: ConnCounters::default(),
            hit_fast: ShardedCounter::new(),
            hit_fast_us: ShardedCounter::new(),
            per_command: Default::default(),
            per_stage: Default::default(),
            per_worker: (0..workers).map(|_| WorkerStats::default()).collect(),
        }
    }

    /// Raises the queue high-water mark to `depth` if it is deeper than
    /// anything seen in the current measurement window.
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_peak.observe(depth as u64);
    }

    /// Records one zero-span fast-path cache hit: two relaxed sharded
    /// adds (count and parse→reply microseconds), no clock reads, no
    /// locks. Returns `true` roughly once per [`HIT_SPAN_SAMPLE`] hits
    /// per counter shard — the caller's cue to emit the *one* sampled
    /// `request`/`hit` span that keeps hits visible in `TRACE` output.
    pub fn note_hit(&self, elapsed: Duration) -> bool {
        self.hit_fast_us
            .add(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        self.hit_fast.add(1).is_multiple_of(HIT_SPAN_SAMPLE)
    }

    /// Fast-path hit totals: `(hits, cumulative_micros)`, each summed
    /// across counter shards in one pass.
    #[must_use]
    pub fn hit_fast_totals(&self) -> (u64, u64) {
        (self.hit_fast.sum(), self.hit_fast_us.sum())
    }

    /// Records one stage's elapsed time in that stage's histogram.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        let mut h = self.per_stage[stage.index()]
            .histogram
            .lock()
            .expect("metrics histogram poisoned");
        h.push(sim_duration(elapsed));
    }

    /// Zeroes every counter and clears every histogram, starting a fresh
    /// measurement window.
    ///
    /// This is the `STATS RESET` implementation: request/outcome counters,
    /// per-command and per-stage latency histograms, per-worker job and
    /// busy-time tallies, and the `queue_peak` high-water mark all return
    /// to zero. Gauges owned by other components (live queue depth,
    /// inflight connections, `exec_threads`, cache occupancy) are *not*
    /// touched — they describe present state, not accumulated history.
    /// The caller should immediately re-seed `queue_peak` with the current
    /// queue depth via [`Metrics::note_queue_depth`] so the new window's
    /// peak never reads below the live depth.
    pub fn reset(&self) {
        for c in [
            &self.requests,
            &self.ok,
            &self.errors,
            &self.busy,
            &self.readonly,
            &self.deadline_expired,
            &self.inline_checks,
            &self.inline_budget_exceeded,
            &self.panics,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        // Every accumulated connection counter restarts; `conns.open` is a
        // gauge describing present state and is deliberately left alone.
        for c in [
            &self.conns.accepted,
            &self.conns.accept_shed,
            &self.conns.loop_wakeups,
            &self.conns.loop_ready_events,
            &self.conns.idle_closed,
            &self.conns.read_deadline_closed,
            &self.conns.oversized_rejected,
            &self.conns.read_paused,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.queue_peak.reset(0);
        self.hit_fast.reset();
        self.hit_fast_us.reset();
        for stats in self.per_command.iter().chain(self.per_stage.iter()) {
            stats
                .histogram
                .lock()
                .expect("metrics histogram poisoned")
                .clear();
        }
        for w in &self.per_worker {
            w.jobs.store(0, Ordering::Relaxed);
            w.busy_us.store(0, Ordering::Relaxed);
        }
    }

    /// Credits worker `index` with one completed job of the given busy time.
    pub fn record_worker(&self, index: usize, busy: Duration) {
        if let Some(w) = self.per_worker.get(index) {
            w.jobs.fetch_add(1, Ordering::Relaxed);
            w.busy_us
                .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
        }
    }

    /// Appends the `worker_jobs` and `worker_busy_us` fields to a `STATS`
    /// response body. The per-worker lists are comma-joined in worker
    /// order so a skewed pool (one hot worker, the rest idle) is visible at
    /// a glance.
    ///
    /// Every worker's `(jobs, busy_us)` pair is sampled in **one pass**
    /// before any formatting, so the two rendered lists describe the
    /// same instant. (The old two-sweep rendering could show a worker's
    /// busy time from milliseconds after its job count — a torn gauge
    /// under load.)
    pub fn render_workers(&self, out: &mut String) {
        use std::fmt::Write as _;
        if self.per_worker.is_empty() {
            return;
        }
        let snapshot: Vec<(u64, u64)> = self
            .per_worker
            .iter()
            .map(|w| {
                (
                    w.jobs.load(Ordering::Relaxed),
                    w.busy_us.load(Ordering::Relaxed),
                )
            })
            .collect();
        let join = |f: &dyn Fn(&(u64, u64)) -> u64| {
            snapshot
                .iter()
                .map(|pair| f(pair).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = write!(
            out,
            " worker_jobs={} worker_busy_us={}",
            join(&|&(jobs, _)| jobs),
            join(&|&(_, busy_us)| busy_us),
        );
    }

    /// Records a completed request's end-to-end latency.
    pub fn record_latency(&self, command: CommandKind, elapsed: Duration) {
        let mut h = self.per_command[command.index()]
            .histogram
            .lock()
            .expect("metrics histogram poisoned");
        h.push(sim_duration(elapsed));
    }

    /// Classifies a response line into the ok/err/busy/readonly counters.
    pub fn count_response(&self, response: &str) {
        let counter = if response.starts_with("OK") {
            &self.ok
        } else if response.starts_with("BUSY") {
            &self.busy
        } else if response.starts_with("READONLY") {
            &self.readonly
        } else {
            &self.errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends `<cmd>_count / <cmd>_p50_us / <cmd>_p99_us` fields for every
    /// command to a `STATS` response body.
    pub fn render_latencies(&self, out: &mut String) {
        use std::fmt::Write as _;
        for cmd in CommandKind::ALL {
            let h = self.per_command[cmd.index()]
                .histogram
                .lock()
                .expect("metrics histogram poisoned");
            let name = cmd.token();
            let _ = write!(out, " {name}_count={}", h.count());
            for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
                match h.quantile(q) {
                    Some(d) => {
                        let us = d.as_picos() as f64 / 1e6;
                        let _ = write!(out, " {name}_{label}_us={us:.1}");
                    }
                    None => {
                        let _ = write!(out, " {name}_{label}_us=nan");
                    }
                }
            }
        }
    }

    /// Emits the per-worker counters and the latency histograms into a
    /// Prometheus text exposition writer.
    ///
    /// Histograms are labelled by command or stage and reuse the log₂
    /// bucket edges of [`ringrt_des::stats::DurationHistogram`], expressed
    /// in seconds. The scalars are rendered from the server's one table
    /// (`crate::report`).
    pub fn render_prometheus(&self, w: &mut PromWriter) {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        for (i, worker) in self.per_worker.iter().enumerate() {
            let id = i.to_string();
            w.counter(
                "ringrt_worker_jobs_total",
                "Jobs completed, per worker thread.",
                &[("worker", &id)],
                c(&worker.jobs),
            );
            w.counter(
                "ringrt_worker_busy_seconds_total",
                "Time spent executing jobs, per worker thread.",
                &[("worker", &id)],
                c(&worker.busy_us) / 1e6,
            );
        }
        for cmd in CommandKind::ALL {
            let h = self.per_command[cmd.index()]
                .histogram
                .lock()
                .expect("metrics histogram poisoned");
            w.histogram(
                "ringrt_request_latency_seconds",
                "End-to-end request latency, by command.",
                &[("command", cmd.token())],
                &h,
            );
        }
        for stage in Stage::ALL {
            let h = self.per_stage[stage.index()]
                .histogram
                .lock()
                .expect("metrics histogram poisoned");
            w.histogram(
                "ringrt_stage_latency_seconds",
                "Per-stage request latency across the service pipeline.",
                &[("stage", stage.token())],
                &h,
            );
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversion() {
        assert_eq!(sim_duration(Duration::from_micros(3)).as_picos(), 3_000_000);
        assert_eq!(sim_duration(Duration::ZERO).as_picos(), 0);
        // Far beyond the picosecond range: saturates instead of panicking.
        assert_eq!(
            sim_duration(Duration::from_secs(1 << 40)).as_picos(),
            u64::MAX
        );
    }

    #[test]
    fn response_classification() {
        let m = Metrics::new();
        m.count_response("OK cmd=ping");
        m.count_response("ERR nope");
        m.count_response("BUSY queue_capacity=4");
        m.count_response("READONLY cmd=admit primary=127.0.0.1:7777 epoch=2");
        m.count_response("garbage");
        assert_eq!(m.ok.load(Ordering::Relaxed), 1);
        assert_eq!(m.errors.load(Ordering::Relaxed), 2);
        assert_eq!(m.busy.load(Ordering::Relaxed), 1);
        assert_eq!(m.readonly.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_fields_render() {
        let m = Metrics::with_workers(3);
        m.note_queue_depth(2);
        m.note_queue_depth(7);
        m.note_queue_depth(4); // peak must not regress
        assert_eq!(m.queue_peak.peak(), 7);
        m.record_worker(0, Duration::from_micros(150));
        m.record_worker(0, Duration::from_micros(50));
        m.record_worker(2, Duration::from_micros(30));
        m.record_worker(9, Duration::from_micros(1)); // out of range: ignored
        let mut out = String::new();
        m.render_workers(&mut out);
        assert!(out.contains(" worker_jobs=2,0,1"), "{out}");
        assert!(out.contains(" worker_busy_us=200,0,30"), "{out}");
        // Workerless metrics omit the empty lists.
        let mut bare = String::new();
        Metrics::new().render_workers(&mut bare);
        assert!(bare.is_empty(), "{bare}");
    }

    #[test]
    fn latency_fields_render() {
        let m = Metrics::new();
        m.record_latency(CommandKind::Check, Duration::from_micros(100));
        m.record_latency(CommandKind::Check, Duration::from_micros(200));
        let mut out = String::new();
        m.render_latencies(&mut out);
        assert!(out.contains(" check_count=2"));
        assert!(out.contains(" check_p50_us="));
        assert!(out.contains(" simulate_count=0"));
        assert!(out.contains(" simulate_p50_us=nan"));
        // p50 upper bucket edge for ~100–200 µs samples stays in range.
        let p50: f64 = out
            .split(" check_p50_us=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((100.0..=600.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn reset_zeroes_counters_histograms_and_peak() {
        let m = Metrics::with_workers(2);
        m.requests.fetch_add(5, Ordering::Relaxed);
        m.count_response("OK cmd=ping");
        m.count_response("BUSY queue_capacity=4");
        m.deadline_expired.fetch_add(1, Ordering::Relaxed);
        m.note_queue_depth(9);
        m.record_worker(1, Duration::from_micros(40));
        m.record_latency(CommandKind::Check, Duration::from_micros(100));
        m.record_stage(Stage::Parse, Duration::from_micros(3));
        m.count_response("READONLY cmd=admit primary=127.0.0.1:7777 epoch=2");
        m.reset();
        assert_eq!(m.requests.load(Ordering::Relaxed), 0);
        assert_eq!(m.ok.load(Ordering::Relaxed), 0);
        assert_eq!(m.busy.load(Ordering::Relaxed), 0);
        assert_eq!(m.readonly.load(Ordering::Relaxed), 0);
        assert_eq!(m.deadline_expired.load(Ordering::Relaxed), 0);
        assert_eq!(m.queue_peak.peak(), 0);
        let mut out = String::new();
        m.render_workers(&mut out);
        m.render_latencies(&mut out);
        assert!(out.contains(" worker_jobs=0,0"), "{out}");
        assert!(out.contains(" check_count=0"), "{out}");
        // A new window accumulates from scratch.
        m.note_queue_depth(3);
        assert_eq!(m.queue_peak.peak(), 3);
    }

    #[test]
    fn open_connection_gauge_survives_reset() {
        let m = Metrics::new();
        m.conns.open.store(3, Ordering::Relaxed);
        m.conns.accepted.store(7, Ordering::Relaxed);
        m.conns.accept_shed.store(2, Ordering::Relaxed);
        m.conns.loop_wakeups.store(10, Ordering::Relaxed);
        m.conns.read_paused.store(4, Ordering::Relaxed);
        m.reset();
        // The gauge describes present state and survives; counters restart.
        assert_eq!(m.conns.open.load(Ordering::Relaxed), 3);
        assert_eq!(m.conns.accepted.load(Ordering::Relaxed), 0);
        assert_eq!(m.conns.accept_shed.load(Ordering::Relaxed), 0);
        assert_eq!(m.conns.loop_wakeups.load(Ordering::Relaxed), 0);
        assert_eq!(m.conns.read_paused.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn prometheus_rendering_is_parseable_and_complete() {
        use ringrt_obs::prom::parse_exposition;
        let m = Metrics::with_workers(2);
        m.record_worker(0, Duration::from_micros(250));
        m.record_latency(CommandKind::Check, Duration::from_micros(120));
        m.record_stage(Stage::Execute, Duration::from_micros(80));
        let mut w = PromWriter::new();
        m.render_prometheus(&mut w);
        let text = w.finish();
        let samples = parse_exposition(&text).expect("exposition must parse");
        let find = |name: &str| {
            samples
                .iter()
                .filter(|s| s.name == name)
                .collect::<Vec<_>>()
        };
        assert_eq!(find("ringrt_worker_jobs_total").len(), 2);
        // One histogram series per command and per stage.
        let counts = find("ringrt_request_latency_seconds_count");
        assert_eq!(counts.len(), CommandKind::ALL.len(), "{text}");
        let stage_counts = find("ringrt_stage_latency_seconds_count");
        assert_eq!(stage_counts.len(), Stage::ALL.len(), "{text}");
        assert!(stage_counts
            .iter()
            .any(|s| s.label("stage") == Some("execute") && s.value == 1.0));
    }
}
