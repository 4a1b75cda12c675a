//! Flight-recorder observability for the ringrt service stack.
//!
//! The crate is deliberately std-only and lock-light so it can sit on the
//! hot paths of the admission service, the journaled registry, and the
//! exec pool without perturbing the latencies it measures:
//!
//! - [`Recorder`] keeps recent [`SpanEvent`]s in sharded fixed-capacity
//!   ring buffers (a "flight recorder"): pushes never allocate, never
//!   block on a contended lock in the common case, and overwrite the
//!   oldest events when full instead of growing.
//! - [`Span`] is a drop guard created by [`Recorder::span`]; when the
//!   recorder is disabled the guard is inert and the cost is one relaxed
//!   atomic load plus one clock read.
//! - [`trace`] renders drained events as Chrome trace-event JSON, loadable
//!   in Perfetto / `chrome://tracing`.
//! - [`prom`] renders counters, gauges, and [`ringrt_des::stats::DurationHistogram`]
//!   latency histograms in Prometheus text exposition format, reusing the
//!   histogram's power-of-two picosecond bucket edges as `le` labels.
//! - [`json`] is a minimal JSON reader used to validate the trace export
//!   shape in tests without external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod highwater;
pub mod json;
pub mod prom;
mod recorder;
pub mod trace;

pub use highwater::HighWater;
pub use recorder::{Measured, Recorder, RecorderStats, Span, SpanEvent, DEFAULT_SHARD_CAPACITY};
