//! `STATS` and `METRICS` rendered from one table.
//!
//! Every scalar the server reports — counter or gauge — is one row of
//! [`SCALARS`]: its `STATS` key, its Prometheus series, and the one
//! function that reads it. Both renderers walk the table, so a value
//! cannot appear in one format and be missing or stale in the other.
//! Latency histograms, the per-worker lists, and the replication block
//! keep their own renderers ([`crate::metrics`], [`crate::replication`]):
//! they are not scalars.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ringrt_exec::PoolStats;
use ringrt_obs::prom::PromWriter;
use ringrt_obs::RecorderStats;

use crate::server::{RegistryView, Shared};

/// Whether a scalar only grows between `STATS RESET`s or describes
/// present state.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    Counter,
    Gauge,
}

/// One scalar, as both formats show it.
pub(crate) struct Scalar {
    /// `STATS` key.
    pub(crate) stats: &'static str,
    /// `METRICS` family name.
    pub(crate) metric: &'static str,
    /// The one label that tells this row apart from the rest of its
    /// family, if the family has several rows.
    pub(crate) label: Option<(&'static str, &'static str)>,
    help: &'static str,
    kind: Kind,
    /// `METRICS` value = `STATS` value × `scale` (milli- or microseconds
    /// to seconds).
    pub(crate) scale: f64,
    read: fn(&Snapshot<'_>) -> f64,
}

impl Scalar {
    const fn new(
        kind: Kind,
        stats: &'static str,
        metric: &'static str,
        help: &'static str,
        read: fn(&Snapshot<'_>) -> f64,
    ) -> Scalar {
        Scalar {
            stats,
            metric,
            label: None,
            help,
            kind,
            scale: 1.0,
            read,
        }
    }

    const fn label(mut self, key: &'static str, value: &'static str) -> Scalar {
        self.label = Some((key, value));
        self
    }

    const fn scale(mut self, scale: f64) -> Scalar {
        self.scale = scale;
        self
    }
}

const fn counter(
    stats: &'static str,
    metric: &'static str,
    help: &'static str,
    read: fn(&Snapshot<'_>) -> f64,
) -> Scalar {
    Scalar::new(Kind::Counter, stats, metric, help, read)
}

const fn gauge(
    stats: &'static str,
    metric: &'static str,
    help: &'static str,
    read: fn(&Snapshot<'_>) -> f64,
) -> Scalar {
    Scalar::new(Kind::Gauge, stats, metric, help, read)
}

/// Everything one render reads, with the multi-field sources sampled
/// once so the fields of one reply describe the same instant. The
/// registry's numbers come from the view its thread last published.
pub(crate) struct Snapshot<'a> {
    s: &'a Shared,
    view: Arc<RegistryView>,
    exec: PoolStats,
    trace: RecorderStats,
    hits: (u64, u64),
}

impl<'a> Snapshot<'a> {
    fn of(s: &'a Shared) -> Snapshot<'a> {
        Snapshot {
            s,
            view: s.view(),
            exec: s.exec.stats(),
            trace: s.recorder.stats(),
            hits: s.metrics.hit_fast_totals(),
        }
    }
}

fn load(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

const RESPONSES: &str = "Responses sent, by status line.";
const TESTS: &str = "Admission schedulability tests run, by strategy.";
const EVALUATIONS: &str = "Theorem evaluations performed by admission tests, by strategy.";
const TIMED_OUT: &str = "Connections closed by a server-side timeout, by reason.";

/// Every scalar in `STATS` order. The keys perfbench reads (`ok errors
/// busy cache_* incremental_tests full_tests journal_bytes
/// registry_streams exec_threads`) must stay byte-identical.
#[rustfmt::skip]
pub(crate) const SCALARS: &[Scalar] = &[
    gauge("uptime_ms", "ringrt_uptime_seconds", "Time since the server started.",
        |x| x.s.started.elapsed().as_millis() as f64).scale(1e-3),
    counter("requests", "ringrt_requests_total", "Request lines received, including malformed ones.",
        |x| load(&x.s.metrics.requests)),
    counter("ok", "ringrt_responses_total", RESPONSES, |x| load(&x.s.metrics.ok)).label("status", "ok"),
    counter("errors", "ringrt_responses_total", RESPONSES, |x| load(&x.s.metrics.errors)).label("status", "err"),
    counter("busy", "ringrt_responses_total", RESPONSES, |x| load(&x.s.metrics.busy)).label("status", "busy"),
    counter("readonly", "ringrt_responses_total", RESPONSES,
        |x| load(&x.s.metrics.readonly)).label("status", "readonly"),
    counter("deadline_expired", "ringrt_deadline_expired_total",
        "Requests answered ERR because they overstayed their queue deadline.",
        |x| load(&x.s.metrics.deadline_expired)),
    counter("inline_checks", "ringrt_inline_checks_total",
        "Cache-missing CHECKs the event loop answered itself within its work budget.",
        |x| load(&x.s.metrics.inline_checks)),
    counter("inline_budget_exceeded", "ringrt_inline_budget_exceeded_total",
        "Cache-missing CHECKs that did not fit the event loop's work budget and were queued instead.",
        |x| load(&x.s.metrics.inline_budget_exceeded)),
    counter("panics", "ringrt_panics_total",
        "Panics caught where request code runs; each request was answered ERR internal.",
        |x| load(&x.s.metrics.panics)),
    counter("cache_hits", "ringrt_cache_hits_total", "Result-cache hits.", |x| x.s.cache.hits() as f64),
    counter("cache_misses", "ringrt_cache_misses_total", "Result-cache misses.", |x| x.s.cache.misses() as f64),
    gauge("cache_entries", "ringrt_cache_entries", "Distinct result-cache entries currently stored.",
        |x| x.s.cache.entries() as f64),
    counter("cache_evictions", "ringrt_cache_evictions_total", "Entries evicted by the LRU policy.",
        |x| x.s.cache.evictions() as f64),
    gauge("cache_capacity", "ringrt_cache_capacity", "Total result-cache entry capacity.",
        |x| x.s.cache.capacity() as f64),
    counter("hit_fast", "ringrt_hit_fastpath_total", "Cache hits answered on the zero-span fast path.",
        |x| x.hits.0 as f64),
    counter("hit_fast_us", "ringrt_hit_fastpath_seconds_total",
        "Cumulative parse-to-reply time of fast-path cache hits.", |x| x.hits.1 as f64).scale(1e-6),
    gauge("rings", "ringrt_registry_rings", "Rings currently registered.", |x| x.view.metrics.rings as f64),
    gauge("registry_streams", "ringrt_registry_streams", "Streams admitted across all rings.",
        |x| x.view.metrics.streams as f64),
    gauge("journal_bytes", "ringrt_registry_journal_bytes", "Size of the registry's append-only journal.",
        |x| x.view.metrics.journal_bytes as f64),
    gauge("snapshot_bytes", "ringrt_registry_snapshot_bytes",
        "Size of the registry's last compaction snapshot.", |x| x.view.metrics.snapshot_bytes as f64),
    gauge("replay_ms", "ringrt_registry_replay_seconds", "Time the startup journal replay took.",
        |x| x.view.metrics.replay_ms).scale(1e-3),
    gauge("replayed_streams", "ringrt_registry_replayed_streams", "Streams restored by the startup replay.",
        |x| x.view.metrics.replayed_streams as f64),
    counter("incremental_tests", "ringrt_registry_tests_total", TESTS,
        |x| x.view.metrics.incremental_tests as f64).label("kind", "incremental"),
    counter("full_tests", "ringrt_registry_tests_total", TESTS,
        |x| x.view.metrics.full_tests as f64).label("kind", "full"),
    counter("incremental_evaluations", "ringrt_registry_evaluations_total", EVALUATIONS,
        |x| x.view.metrics.incremental_evaluations as f64).label("kind", "incremental"),
    counter("full_evaluations", "ringrt_registry_evaluations_total", EVALUATIONS,
        |x| x.view.metrics.full_evaluations as f64).label("kind", "full"),
    gauge("index_rebuilds", "ringrt_store_index_rebuilds",
        "Sequence-domain index rebuilds performed by the stream stores.", |x| x.view.metrics.index_rebuilds as f64),
    gauge("store_bytes", "ringrt_store_bytes", "Approximate resident bytes of the columnar stream stores.",
        |x| x.view.metrics.store_bytes as f64),
    gauge("workers", "ringrt_workers", "Worker threads executing analyses.", |x| x.s.config.workers as f64),
    gauge("queue_capacity", "ringrt_queue_capacity", "Bounded admission-queue depth; overflow answers BUSY.",
        |x| x.s.config.queue_depth as f64),
    gauge("queue_len", "ringrt_queue_len", "Jobs currently waiting in the admission queue.",
        |x| x.s.queue_len() as f64),
    gauge("queue_peak", "ringrt_queue_peak", "Deepest the admission queue has been since the last STATS RESET.",
        |x| x.s.metrics.queue_peak.peak() as f64),
    gauge("inflight", "ringrt_inflight", "Jobs currently executing on workers.", |x| load(&x.s.inflight)),
    gauge("exec_threads", "ringrt_exec_threads", "Width of the shared intra-request execution pool.",
        |x| x.exec.threads as f64),
    counter("exec_parallel_runs", "ringrt_exec_parallel_runs_total", "Pool maps that fanned out across workers.",
        |x| x.exec.parallel_runs as f64),
    counter("exec_serial_runs", "ringrt_exec_serial_runs_total", "Pool maps that ran inline on the caller.",
        |x| x.exec.serial_runs as f64),
    counter("exec_items", "ringrt_exec_items_total", "Items mapped through the pool.", |x| x.exec.items as f64),
    counter("exec_chunks", "ringrt_exec_chunks_total", "Chunks claimed by pool workers.", |x| x.exec.chunks as f64),
    counter("exec_steal_attempts", "ringrt_exec_steal_attempts_total", "Victim searches by idle pool workers.",
        |x| x.exec.steal_attempts as f64),
    counter("exec_steals_ok", "ringrt_exec_steals_ok_total", "Victim searches that transferred work.",
        |x| x.exec.steals_ok as f64),
    counter("exec_nested_splits", "ringrt_exec_nested_splits_total", "Nested maps that split across idle workers.",
        |x| x.exec.nested_splits as f64),
    gauge("max_conns", "ringrt_max_conns", "Configured open-connection cap; 0 means the loop's table bound.",
        |x| x.s.config.max_conns as f64),
    gauge("cluster", "ringrt_cluster_id", "Journal lineage identity; 0 until a primary stamps it.",
        |x| x.view.cluster as f64),
    gauge("connections_open", "ringrt_connections_open", "Client connections currently open.",
        |x| load(&x.s.metrics.conns.open)),
    counter("connections_accepted", "ringrt_connections_accepted_total", "Client connections accepted.",
        |x| load(&x.s.metrics.conns.accepted)),
    counter("accept_shed", "ringrt_accept_shed_total", "Connections shed at accept time by the max_conns guard.",
        |x| load(&x.s.metrics.conns.accept_shed)),
    counter("loop_wakeups", "ringrt_loop_wakeups_total", "Event-loop poll returns.",
        |x| load(&x.s.metrics.conns.loop_wakeups)),
    counter("loop_ready_events", "ringrt_loop_ready_events_total",
        "Readiness events delivered across all event-loop wakeups.", |x| load(&x.s.metrics.conns.loop_ready_events)),
    counter("idle_closed", "ringrt_connections_timed_out_total", TIMED_OUT,
        |x| load(&x.s.metrics.conns.idle_closed)).label("reason", "idle"),
    counter("read_deadline_closed", "ringrt_connections_timed_out_total", TIMED_OUT,
        |x| load(&x.s.metrics.conns.read_deadline_closed)).label("reason", "read_deadline"),
    counter("oversized_rejected", "ringrt_oversized_lines_total",
        "Request lines rejected for exceeding the line-length cap.", |x| load(&x.s.metrics.conns.oversized_rejected)),
    counter("read_paused", "ringrt_read_paused_total",
        "Times a connection stopped being read because its unflushed replies passed the output cap.",
        |x| load(&x.s.metrics.conns.read_paused)),
    gauge("trace_enabled", "ringrt_trace_enabled", "Whether the flight recorder is capturing spans.",
        |x| f64::from(u8::from(x.trace.enabled))),
    gauge("trace_capacity", "ringrt_trace_capacity", "Span events retained across all recorder shards.",
        |x| x.trace.capacity as f64),
    counter("trace_spans_recorded", "ringrt_trace_spans_recorded_total",
        "Span events written to the flight recorder.", |x| x.trace.recorded as f64),
    counter("trace_spans_dropped", "ringrt_trace_spans_dropped_total",
        "Span events overwritten before being drained.", |x| x.trace.dropped as f64),
];

impl Shared {
    /// The `STATS` reply: one `key=value` per table row, then the
    /// replication block, the per-worker lists, and the latency quantiles.
    pub(crate) fn render_stats(&self) -> String {
        let snap = Snapshot::of(self);
        let mut out = "OK cmd=stats".to_owned();
        for row in SCALARS {
            let v = (row.read)(&snap);
            let _ = if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(out, " {}={}", row.stats, v as i64)
            } else {
                write!(out, " {}={v:.3}", row.stats)
            };
        }
        self.replication.render(snap.view.epoch, &mut out);
        self.metrics.render_workers(&mut out);
        self.metrics.render_latencies(&mut out);
        out
    }

    /// The `METRICS` body: the table rows, then the replication series,
    /// the per-worker counters, and the latency histograms.
    pub(crate) fn render_metrics(&self) -> String {
        let snap = Snapshot::of(self);
        let mut w = PromWriter::new();
        for row in SCALARS {
            let v = (row.read)(&snap) * row.scale;
            let labels: &[(&str, &str)] = match &row.label {
                Some(label) => std::slice::from_ref(label),
                None => &[],
            };
            match row.kind {
                Kind::Counter => w.counter(row.metric, row.help, labels, v),
                Kind::Gauge => w.gauge(row.metric, row.help, labels, v),
            }
        }
        self.replication.render_prometheus(snap.view.epoch, &mut w);
        self.metrics.render_prometheus(&mut w);
        w.finish()
    }
}
