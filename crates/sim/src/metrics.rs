//! Simulation results.

use core::fmt;

use ringrt_des::stats::{DurationHistogram, DurationTally};
use ringrt_units::{SimDuration, SimTime};

/// Per-stream outcome counters.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Messages fully transmitted.
    pub completed: u64,
    /// Completed messages that finished after their deadline, plus messages
    /// still incomplete at their deadline when the run ended.
    pub deadline_misses: u64,
    /// Response times (arrival → completion) of completed messages.
    pub response: DurationTally,
    /// Log-bucketed response-time distribution, for percentile queries.
    pub response_histogram: DurationHistogram,
}

impl StreamStats {
    /// Worst observed response time, if any message completed.
    #[must_use]
    pub fn worst_response(&self) -> Option<SimDuration> {
        self.response.max()
    }

    /// An upper bound on the `q`-quantile of the response time (half-octave
    /// histogram resolution, clamped by the exact observed maximum), if any
    /// message completed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q ≤ 1`.
    #[must_use]
    pub fn response_quantile(&self, q: f64) -> Option<SimDuration> {
        let bucket_bound = self.response_histogram.quantile(q)?;
        let exact_max = self.response.max()?;
        Some(bucket_bound.min(exact_max))
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Protocol label ("IEEE 802.5", "Modified IEEE 802.5", "FDDI").
    pub protocol: &'static str,
    /// Simulated time span.
    pub simulated: SimDuration,
    /// Per-stream statistics, in station order.
    pub per_stream: Vec<StreamStats>,
    /// Observed token rotation times (at station 0).
    pub rotations: DurationTally,
    /// Total asynchronous frames transmitted.
    pub async_frames_sent: u64,
    /// Queueing delays (arrival → transmission start) of asynchronous
    /// frames.
    pub async_waits: DurationTally,
    /// Token losses injected (and recovered from) during the run.
    pub token_losses: u64,
    /// Fraction of the run the medium spent transmitting (payload plus
    /// overhead bits).
    pub medium_utilization: f64,
    /// Total events processed (progress/perf metric).
    pub events: u64,
    /// Captured protocol trace (empty unless enabled via
    /// [`SimConfig::with_trace`](crate::SimConfig::with_trace)).
    pub trace: Vec<crate::TraceEvent>,
    /// Trace events dropped once the capture bound was reached.
    pub trace_dropped: u64,
}

impl SimReport {
    /// Total completed messages across streams.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.per_stream.iter().map(|s| s.completed).sum()
    }

    /// Total deadline misses across streams.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.per_stream.iter().map(|s| s.deadline_misses).sum()
    }

    /// `true` if no stream missed a deadline.
    #[must_use]
    pub fn all_deadlines_met(&self) -> bool {
        self.deadline_misses() == 0
    }

    /// Worst observed token rotation time, if the token rotated at all.
    #[must_use]
    pub fn max_rotation(&self) -> Option<SimDuration> {
        self.rotations.max()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} simulation over {}: {} messages completed, {} deadline misses, medium {:.1} % busy",
            self.protocol,
            self.simulated,
            self.completed(),
            self.deadline_misses(),
            self.medium_utilization * 100.0
        )?;
        if self.token_losses > 0 {
            writeln!(f, "  token losses recovered: {}", self.token_losses)?;
        }
        writeln!(f, "  token rotations: {}", self.rotations)?;
        for (i, s) in self.per_stream.iter().enumerate() {
            write!(
                f,
                "  S{}: {} done, {} missed",
                i + 1,
                s.completed,
                s.deadline_misses
            )?;
            if let Some(w) = s.worst_response() {
                write!(f, ", worst response {w}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Internal helper tracking medium busy time and deadline accounting shared
/// by both simulators.
#[derive(Debug, Clone)]
pub(crate) struct MetricsCollector {
    pub per_stream: Vec<StreamStats>,
    pub rotations: DurationTally,
    pub async_frames_sent: u64,
    pub async_waits: DurationTally,
    pub token_losses: u64,
    busy: ringrt_des::stats::BusyTime,
    /// The end of the run.
    horizon: SimTime,
    last_rotation_mark: Option<SimTime>,
}

impl MetricsCollector {
    pub fn new(streams: usize, horizon: SimTime) -> Self {
        MetricsCollector {
            per_stream: vec![StreamStats::default(); streams],
            rotations: DurationTally::new(),
            async_frames_sent: 0,
            async_waits: DurationTally::new(),
            token_losses: 0,
            busy: ringrt_des::stats::BusyTime::new(),
            horizon,
            last_rotation_mark: None,
        }
    }

    /// Books the medium busy from `from` (never past the horizon: no event
    /// after it runs) until `until`, cut at the horizon. A frame or token
    /// visit that starts in the run can end after it, and only the run's
    /// own time counts toward [`MetricsCollector::medium_utilization`].
    pub fn medium_busy(&mut self, from: SimTime, until: SimTime) {
        self.busy.set_busy(from);
        self.busy.set_idle(until.min(self.horizon));
    }

    /// The medium's busy share of the run, at most one.
    pub fn medium_utilization(&self) -> f64 {
        self.busy.utilization(self.horizon)
    }

    /// Records the token passing its rotation reference point (station 0).
    pub fn mark_rotation(&mut self, now: SimTime) {
        if let Some(prev) = self.last_rotation_mark {
            self.rotations.push(now.duration_since(prev));
        }
        self.last_rotation_mark = Some(now);
    }

    /// Records a completed message for stream `i`.
    pub fn message_done(
        &mut self,
        stream: usize,
        arrival: SimTime,
        deadline: SimTime,
        now: SimTime,
    ) {
        let s = &mut self.per_stream[stream];
        s.completed += 1;
        let response = now.duration_since(arrival);
        s.response.push(response);
        s.response_histogram.push(response);
        if now > deadline {
            s.deadline_misses += 1;
        }
    }

    /// At end of run: messages still queued past their deadline count as
    /// misses.
    pub fn account_unfinished(&mut self, stream: usize, pending_past_deadline: u64) {
        self.per_stream[stream].deadline_misses += pending_past_deadline;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_marks_produce_tally() {
        let mut m = MetricsCollector::new(1, SimTime::from_picos(1_000));
        m.mark_rotation(SimTime::from_picos(0));
        m.mark_rotation(SimTime::from_picos(100));
        m.mark_rotation(SimTime::from_picos(250));
        assert_eq!(m.rotations.count(), 2);
        assert_eq!(m.rotations.max(), Some(SimDuration::from_picos(150)));
    }

    #[test]
    fn message_done_classifies_misses() {
        let mut m = MetricsCollector::new(1, SimTime::from_picos(1_000));
        let t0 = SimTime::ZERO;
        let dl = SimTime::from_picos(100);
        m.message_done(0, t0, dl, SimTime::from_picos(90)); // on time
        m.message_done(0, t0, dl, SimTime::from_picos(150)); // late
        assert_eq!(m.per_stream[0].completed, 2);
        assert_eq!(m.per_stream[0].deadline_misses, 1);
        // The histogram sees the same samples as the tally.
        assert_eq!(m.per_stream[0].response_histogram.count(), 2);
        let p100 = m.per_stream[0].response_quantile(1.0).unwrap();
        assert!(p100 >= SimDuration::from_picos(150));
        assert!(m.per_stream[0].response_quantile(0.01).unwrap() < p100 * 2);
        m.account_unfinished(0, 3);
        assert_eq!(m.per_stream[0].deadline_misses, 4);
    }

    #[test]
    fn busy_time_past_the_horizon_does_not_count() {
        let mut m = MetricsCollector::new(1, SimTime::from_picos(1_000));
        m.medium_busy(SimTime::from_picos(200), SimTime::from_picos(400));
        m.medium_busy(SimTime::from_picos(900), SimTime::from_picos(5_000));
        assert!((m.medium_utilization() - 0.3).abs() < 1e-12);
        m.medium_busy(SimTime::from_picos(1_000), SimTime::from_picos(2_000));
        assert!((m.medium_utilization() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates() {
        let mut m = MetricsCollector::new(2, SimTime::from_picos(1_000));
        m.message_done(
            0,
            SimTime::ZERO,
            SimTime::from_picos(10),
            SimTime::from_picos(5),
        );
        m.message_done(
            1,
            SimTime::ZERO,
            SimTime::from_picos(10),
            SimTime::from_picos(50),
        );
        let report = SimReport {
            protocol: "FDDI",
            simulated: SimDuration::from_millis(1),
            per_stream: m.per_stream.clone(),
            rotations: m.rotations,
            async_frames_sent: 0,
            async_waits: DurationTally::new(),
            token_losses: 0,
            medium_utilization: 0.5,
            events: 42,
            trace: Vec::new(),
            trace_dropped: 0,
        };
        assert_eq!(report.completed(), 2);
        assert_eq!(report.deadline_misses(), 1);
        assert!(!report.all_deadlines_met());
        assert!(report.max_rotation().is_none());
        let text = report.to_string();
        assert!(text.contains("FDDI"));
        assert!(text.contains("S1"));
        assert!(text.contains("worst response"));
    }
}
