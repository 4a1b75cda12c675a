//! Optional event tracing for the MAC simulators.
//!
//! Tracing is off by default (simulations allocate nothing for it); enable
//! it with [`SimConfig::with_trace`](crate::SimConfig::with_trace) to
//! capture a bounded, time-ordered log of protocol-level events — token
//! movements, frame transmissions, message completions, faults — for
//! debugging a schedule or teaching how the MACs behave.
//!
//! # Examples
//!
//! ```
//! use ringrt_model::{MessageSet, RingConfig, SyncStream};
//! use ringrt_sim::{SimConfig, TraceKind, TtpSimulator};
//! use ringrt_units::{Bandwidth, Bits, Seconds};
//!
//! let ring = RingConfig::fddi(2, Bandwidth::from_mbps(100.0));
//! let set = MessageSet::new(vec![
//!     SyncStream::new(Seconds::from_millis(20.0), Bits::new(10_000)),
//! ])?;
//! let config = SimConfig::new(ring, Seconds::from_millis(5.0)).with_trace(1_000);
//! let report = TtpSimulator::from_analysis(&set, config)?.run();
//! assert!(report.trace.iter().any(|e| matches!(e.kind, TraceKind::TokenArrive { .. })));
//! assert!(report.trace.iter().any(|e| matches!(e.kind, TraceKind::MessageComplete { .. })));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::fmt;

use ringrt_units::SimTime;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceKind {
    /// The (free) token arrived at a station.
    TokenArrive {
        /// Station index.
        station: usize,
    },
    /// A station began transmitting.
    FrameStart {
        /// Station index.
        station: usize,
        /// `true` for synchronous payload, `false` for asynchronous.
        synchronous: bool,
        /// Payload bits in this transmission.
        bits: u64,
    },
    /// A synchronous message finished transmission.
    MessageComplete {
        /// Sourcing stream/station index.
        stream: usize,
        /// Whether it finished past its deadline.
        late: bool,
    },
    /// The free token was lost (fault injection).
    TokenLost,
    /// The ring recovered and a fresh token appeared.
    TokenRecovered,
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.at)?;
        match self.kind {
            TraceKind::TokenArrive { station } => write!(f, "token → station {station}"),
            TraceKind::FrameStart {
                station,
                synchronous,
                bits,
            } => write!(
                f,
                "station {station} sends {} bits ({})",
                bits,
                if synchronous { "sync" } else { "async" }
            ),
            TraceKind::MessageComplete { stream, late } => write!(
                f,
                "stream {stream} message complete{}",
                if late { " (LATE)" } else { "" }
            ),
            TraceKind::TokenLost => write!(f, "token LOST"),
            TraceKind::TokenRecovered => write!(f, "token recovered"),
        }
    }
}

/// A bounded trace recorder: keeps the first `capacity` events and counts
/// the overflow.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder keeping at most `capacity` events (0 disables tracing).
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event (cheap no-op when disabled or full).
    pub fn record(&mut self, at: SimTime, kind: TraceKind) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent { at, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// Records `count` events, the `k`-th at and of `event(k)`, in the
    /// same way as `count` calls of [`TraceRecorder::record`], but in
    /// O(1) once the recorder is full or when it is disabled.
    pub fn record_many(&mut self, count: u64, event: impl Fn(u64) -> (SimTime, TraceKind)) {
        if self.capacity == 0 {
            return;
        }
        let room = (self.capacity - self.events.len()) as u64;
        for k in 0..count.min(room) {
            let (at, kind) = event(k);
            self.events.push(TraceEvent { at, kind });
        }
        self.dropped += count.saturating_sub(room);
    }

    /// Consumes the recorder, returning the captured events.
    pub fn into_events(self) -> (Vec<TraceEvent>, u64) {
        (self.events, self.dropped)
    }
}

/// Renders a trace as a plain-text timeline, one event per line.
#[must_use]
pub fn render_timeline(events: &[TraceEvent]) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    for e in events {
        let _ = writeln!(out, "{e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_respects_capacity() {
        let mut r = TraceRecorder::new(2);
        for i in 0..5 {
            r.record(SimTime::from_picos(i), TraceKind::TokenLost);
        }
        let (events, dropped) = r.into_events();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 3);
        assert_eq!(events[0].at, SimTime::from_picos(0));
    }

    #[test]
    fn record_many_equals_single_records() {
        for capacity in [0, 3, 10] {
            let (mut one, mut many) = (TraceRecorder::new(capacity), TraceRecorder::new(capacity));
            for k in 0..7 {
                one.record(
                    SimTime::from_picos(k),
                    TraceKind::TokenArrive { station: 1 },
                );
            }
            many.record_many(7, |k| {
                (
                    SimTime::from_picos(k),
                    TraceKind::TokenArrive { station: 1 },
                )
            });
            assert_eq!(one.into_events(), many.into_events());
        }
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut r = TraceRecorder::new(0);
        r.record(SimTime::ZERO, TraceKind::TokenLost);
        let (events, dropped) = r.into_events();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn display_formats() {
        let cases = [
            (TraceKind::TokenArrive { station: 3 }, "token → station 3"),
            (
                TraceKind::FrameStart {
                    station: 1,
                    synchronous: true,
                    bits: 512,
                },
                "512 bits (sync)",
            ),
            (
                TraceKind::MessageComplete {
                    stream: 2,
                    late: true,
                },
                "(LATE)",
            ),
            (TraceKind::TokenLost, "LOST"),
            (TraceKind::TokenRecovered, "recovered"),
        ];
        for (kind, needle) in cases {
            let e = TraceEvent {
                at: SimTime::from_picos(1),
                kind,
            };
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn timeline_renders_lines() {
        let events = vec![
            TraceEvent {
                at: SimTime::ZERO,
                kind: TraceKind::TokenArrive { station: 0 },
            },
            TraceEvent {
                at: SimTime::from_picos(10),
                kind: TraceKind::TokenLost,
            },
        ];
        let text = render_timeline(&events);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("station 0"));
    }
}
