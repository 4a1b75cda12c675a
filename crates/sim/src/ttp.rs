//! Frame-level simulator of the timed token (FDDI) MAC.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ringrt_core::ttp::TtpAnalyzer;
use ringrt_des::EventQueue;
use ringrt_model::MessageSet;
use ringrt_units::{Bits, Seconds, SimDuration, SimTime};

use crate::config::check_span;
use crate::metrics::MetricsCollector;
use crate::trace::TraceRecorder;
use crate::traffic::{AsyncTraffic, SyncTraffic};
use crate::{SimConfig, SimError, SimReport, TraceKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The token arrives at a station (tagged with its generation so that
    /// tokens invalidated by a loss are discarded in flight).
    TokenArrive(usize, u32),
    /// A synchronous stream releases its next message.
    SyncArrival(usize),
    /// An asynchronous frame is queued at a station.
    AsyncArrival(usize),
    /// Fault injection: the free token is lost (if not currently held).
    TokenLoss,
}

/// Frame-level simulator of the FDDI timed token protocol.
///
/// Implements the MAC timer rules the analysis abstracts:
///
/// * per-station token rotation timers (TRT) with late counters:
///   an early token grants asynchronous transmission for exactly the
///   earliness; a late token clears the late count and grants none;
/// * synchronous transmission capped at the station's bandwidth `h_i` per
///   visit (one frame of `h_i − F_ovhd` payload time, as the paper sizes
///   synchronous frames);
/// * asynchronous overrun: a frame begun inside the allowance completes.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct TtpSimulator {
    config: SimConfig,
    ttrt: SimDuration,
    allocations: Vec<SimDuration>,
    frame_overhead: SimDuration,
    async_frame_time: SimDuration,
    hop_latency: SimDuration,
    token_time: SimDuration,
    sync: Vec<SyncTraffic>,
    asynchronous: Vec<AsyncTraffic>,
    /// TRT restart instant per station.
    trt_started: Vec<SimTime>,
    /// Generation of the live token; arrivals from older generations are
    /// stale (the token was lost while they were in flight).
    token_gen: u32,
    /// The medium is held (visit in progress) until this instant; losses
    /// cannot hit a held token.
    busy_until: SimTime,
    rng: StdRng,
    queue: EventQueue<Event>,
    metrics: MetricsCollector,
    trace: TraceRecorder,
}

impl TtpSimulator {
    /// Builds a simulator using the paper's protocol parameters: TTRT from
    /// the `√(Θ'·P_min)` heuristic and synchronous bandwidths from the
    /// local scheme, exactly as [`TtpAnalyzer::with_defaults`] would
    /// compute them for `config.ring()`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InfeasibleAllocation`] if any stream gets no
    /// usable bandwidth (`q_i < 2`).
    pub fn from_analysis(set: &MessageSet, config: SimConfig) -> Result<Self, SimError> {
        let analyzer = TtpAnalyzer::with_defaults(*config.ring());
        let report = analyzer.analyze(set);
        let allocations: Vec<Seconds> = report.per_stream.iter().map(|s| s.allocation).collect();
        Self::with_allocations(set, config, report.ttrt, &allocations)
    }

    /// Builds a simulator with an explicit TTRT and explicit synchronous
    /// bandwidths (one per stream).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AllocationCountMismatch`] on a length
    /// mismatch and [`SimError::InfeasibleAllocation`] if a stream with
    /// a non-empty message has a zero or overhead-only allocation.
    pub fn with_allocations(
        set: &MessageSet,
        config: SimConfig,
        ttrt: Seconds,
        allocations: &[Seconds],
    ) -> Result<Self, SimError> {
        if allocations.len() != set.len() {
            return Err(SimError::AllocationCountMismatch {
                got: allocations.len(),
                expected: set.len(),
            });
        }
        let bw = config.ring().bandwidth();
        let frame_overhead = bw.transmission_time(Bits::new(112)).to_sim_duration();
        let ttrt = check_span("TTRT", ttrt)?;
        let allocations = allocations
            .iter()
            .map(|&h| check_span("synchronous bandwidth allocation", h))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(i) = allocations.iter().position(|&h| h <= frame_overhead) {
            return Err(SimError::InfeasibleAllocation { stream: i });
        }

        let async_payload = config.async_payload_bits();
        let async_frame_time = bw
            .transmission_time(Bits::new(async_payload + 112))
            .to_sim_duration();
        let sync = SyncTraffic::build(set, config.phasing());
        let asynchronous = AsyncTraffic::build(
            config.ring().stations(),
            config.async_load(),
            async_payload,
            bw.as_bps(),
        );
        let stations = config.ring().stations();
        Ok(TtpSimulator {
            ttrt,
            allocations,
            frame_overhead,
            async_frame_time,
            hop_latency: config.ring().hop_latency().to_sim_duration(),
            token_time: config.ring().token_time().to_sim_duration(),
            sync,
            asynchronous,
            trt_started: vec![SimTime::ZERO; stations],
            token_gen: 0,
            busy_until: SimTime::ZERO,
            rng: StdRng::seed_from_u64(config.seed()),
            queue: EventQueue::new(),
            metrics: MetricsCollector::new(set.len(), SimTime::ZERO + config.duration()),
            trace: TraceRecorder::new(config.trace_capacity()),
            config,
        })
    }

    /// The negotiated TTRT.
    #[must_use]
    pub fn ttrt(&self) -> Seconds {
        self.ttrt.as_seconds()
    }

    /// The per-station synchronous bandwidths.
    #[must_use]
    pub fn allocations(&self) -> Vec<Seconds> {
        self.allocations.iter().map(|h| h.as_seconds()).collect()
    }

    /// Runs the simulation to the configured horizon and reports.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        let end = SimTime::ZERO + self.config.duration();
        // Prime arrivals and the token.
        for (i, s) in self.sync.iter().enumerate() {
            self.queue
                .schedule_at(s.first_arrival(), Event::SyncArrival(i));
        }
        for st in 0..self.asynchronous.len() {
            if self.asynchronous[st].is_active() {
                let gap = self.asynchronous[st]
                    .next_gap(&mut self.rng)
                    .expect("active source");
                self.queue
                    .schedule_at(SimTime::ZERO + gap, Event::AsyncArrival(st));
            }
        }
        self.queue
            .schedule_at(SimTime::ZERO, Event::TokenArrive(0, 0));
        if let Some(at) = self
            .config
            .next_token_loss(&mut self.rng, SimTime::ZERO, end)
        {
            self.queue.schedule_at(at, Event::TokenLoss);
        }

        while let Some((now, event)) = self.queue.pop_until(end) {
            match event {
                Event::SyncArrival(stream) => {
                    let next = self.sync[stream].arrive(now);
                    self.queue.schedule_at(next, Event::SyncArrival(stream));
                }
                Event::AsyncArrival(st) => {
                    self.asynchronous[st].arrive(now);
                    let gap = self.asynchronous[st]
                        .next_gap(&mut self.rng)
                        .expect("active source");
                    self.queue.schedule_at(now + gap, Event::AsyncArrival(st));
                }
                Event::TokenArrive(st, gen) => {
                    if gen == self.token_gen {
                        self.token_visit(st, now);
                    }
                    // Stale generations die silently: that token is gone.
                }
                Event::TokenLoss => self.token_loss(now, end),
            }
        }

        self.finish(end)
    }

    /// Handles one token visit at station `st`, then schedules the arrival
    /// at the next station.
    fn token_visit(&mut self, st: usize, now: SimTime) {
        self.trace
            .record(now, TraceKind::TokenArrive { station: st });
        if st == 0 {
            self.metrics.mark_rotation(now);
        }

        // --- TRT/late-count bookkeeping -------------------------------
        let elapsed = now.saturating_duration_since(self.trt_started[st]);
        let async_allowance = if elapsed >= self.ttrt {
            // Token is late: the TRT already expired once and restarted
            // (raising the late count, which this arrival clears). No
            // asynchronous transmission this visit.
            self.trt_started[st] += self.ttrt;
            SimDuration::ZERO
        } else {
            // Early token: asynchronous transmission for the earliness.
            self.trt_started[st] = now;
            self.ttrt - elapsed
        };

        let mut visit_time = SimDuration::ZERO;

        // --- Synchronous window: up to h_i ----------------------------
        if st < self.sync.len() && self.sync[st].has_backlog() {
            let h = self.allocations[st];
            let usable = h.saturating_sub(self.frame_overhead);
            let bw = self.config.ring().bandwidth();
            let budget_bits = bw.bits_in(usable.as_seconds());
            let mut remaining_budget = budget_bits;
            let mut consumed = Bits::ZERO;
            let mut completions = Vec::new();
            while !remaining_budget.is_zero() && self.sync[st].has_backlog() {
                let (taken, done) = self.sync[st].consume(remaining_budget);
                remaining_budget -= taken;
                consumed += taken;
                if let Some(msg) = done {
                    completions.push(msg);
                } else {
                    break; // head not finished: budget exhausted
                }
            }
            if !consumed.is_zero() {
                self.trace.record(
                    now,
                    TraceKind::FrameStart {
                        station: st,
                        synchronous: true,
                        bits: consumed.as_u64(),
                    },
                );
                let tx = bw.transmission_time(consumed).to_sim_duration() + self.frame_overhead;
                visit_time += tx;
                let done_at = now + visit_time;
                for msg in completions {
                    self.trace.record(
                        done_at,
                        TraceKind::MessageComplete {
                            stream: st,
                            late: done_at > msg.deadline,
                        },
                    );
                    self.metrics
                        .message_done(st, msg.arrival, msg.deadline, done_at);
                }
            }
        }

        // --- Asynchronous window: the earliness, with overrun ----------
        let mut allowance = async_allowance;
        while allowance > SimDuration::ZERO && self.asynchronous[st].queued() > 0 {
            let wait = self.asynchronous[st].take_frame(now + visit_time);
            self.trace.record(
                now + visit_time,
                TraceKind::FrameStart {
                    station: st,
                    synchronous: false,
                    bits: self.config.async_payload_bits(),
                },
            );
            self.metrics.async_waits.push(wait);
            self.metrics.async_frames_sent += 1;
            visit_time += self.async_frame_time;
            allowance = allowance.saturating_sub(self.async_frame_time);
        }

        // --- Release ---------------------------------------------------
        if !visit_time.is_zero() {
            self.metrics.medium_busy(now, now + visit_time);
            // Transmitting stations strip the token and emit a fresh one.
            visit_time += self.token_time;
        }
        self.busy_until = now + visit_time;
        let next = (st + 1) % self.config.ring().stations();
        self.queue.schedule_at(
            now + visit_time + self.hop_latency,
            Event::TokenArrive(next, self.token_gen),
        );
    }

    /// Handles a token-loss event: if the token is free (not held by a
    /// transmitting station), it vanishes and the ring runs its recovery
    /// (claim) process before a fresh token appears at station 0 with all
    /// rotation timers reset.
    fn token_loss(&mut self, now: SimTime, end: SimTime) {
        if let Some(at) = self.config.next_token_loss(&mut self.rng, now, end) {
            self.queue.schedule_at(at, Event::TokenLoss);
        }
        if now < self.busy_until {
            return; // token currently held: cannot be lost on the wire
        }
        self.token_gen = self.token_gen.wrapping_add(1);
        self.metrics.token_losses += 1;
        self.trace.record(now, TraceKind::TokenLost);
        let recovery_at = now + self.config.token_recovery().to_sim_duration();
        self.trace.record(recovery_at, TraceKind::TokenRecovered);
        for t in &mut self.trt_started {
            *t = recovery_at;
        }
        self.queue
            .schedule_at(recovery_at, Event::TokenArrive(0, self.token_gen));
    }

    fn finish(mut self, end: SimTime) -> SimReport {
        #[allow(unused_assignments)]
        let mut trace_dropped = 0u64;
        for (i, s) in self.sync.iter().enumerate() {
            // Unfinished messages whose deadline has passed are misses.
            let mut late = 0;
            let mut cursor = s.clone();
            while let Some(head) = cursor.head() {
                if head.deadline < end {
                    late += 1;
                }
                let _ = cursor.consume(Bits::new(u64::MAX >> 1));
            }
            self.metrics.account_unfinished(i, late);
        }
        let medium_utilization = self.metrics.medium_utilization();
        SimReport {
            protocol: "FDDI",
            simulated: end.duration_since(SimTime::ZERO),
            per_stream: self.metrics.per_stream,
            rotations: self.metrics.rotations,
            async_frames_sent: self.metrics.async_frames_sent,
            async_waits: self.metrics.async_waits,
            token_losses: self.metrics.token_losses,
            medium_utilization,
            events: self.queue.events_processed(),
            trace: {
                let (events, dropped) = self.trace.into_events();
                trace_dropped = dropped;
                events
            },
            trace_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_model::{RingConfig, SyncStream};
    use ringrt_units::Bandwidth;

    fn ring() -> RingConfig {
        RingConfig::fddi(4, Bandwidth::from_mbps(100.0))
    }

    fn light_set() -> MessageSet {
        MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(50_000)),
            SyncStream::new(Seconds::from_millis(40.0), Bits::new(100_000)),
            SyncStream::new(Seconds::from_millis(80.0), Bits::new(100_000)),
            SyncStream::new(Seconds::from_millis(160.0), Bits::new(200_000)),
        ])
        .unwrap()
    }

    #[test]
    fn schedulable_set_meets_all_deadlines() {
        let config = SimConfig::new(ring(), Seconds::new(1.0));
        let report = TtpSimulator::from_analysis(&light_set(), config)
            .unwrap()
            .run();
        assert_eq!(report.deadline_misses(), 0, "{report}");
        // 1 s with a 20 ms fastest stream: ≥ 40 completions there alone.
        assert!(report.completed() >= 80, "{report}");
    }

    #[test]
    fn rotation_never_exceeds_twice_ttrt() {
        let config = SimConfig::new(ring(), Seconds::new(1.0)).with_async_load(0.4);
        let sim = TtpSimulator::from_analysis(&light_set(), config).unwrap();
        let ttrt = sim.ttrt();
        let report = sim.run();
        let max_rot = report.max_rotation().expect("token rotated");
        // Sevcik–Johnson: inter-visit time ≤ 2·TTRT (tiny slop for the
        // final asynchronous overrun frame).
        let bound = 2.0 * ttrt.as_secs_f64() + 1e-4;
        assert!(
            max_rot.as_seconds().as_secs_f64() <= bound,
            "max rotation {} vs 2·TTRT {}",
            max_rot,
            2.0 * ttrt.as_secs_f64()
        );
    }

    #[test]
    fn async_traffic_flows_only_in_slack() {
        let quiet = SimConfig::new(ring(), Seconds::new(0.5));
        let busy = quiet.with_async_load(0.3);
        let r_quiet = TtpSimulator::from_analysis(&light_set(), quiet)
            .unwrap()
            .run();
        let r_busy = TtpSimulator::from_analysis(&light_set(), busy)
            .unwrap()
            .run();
        assert_eq!(r_quiet.async_frames_sent, 0);
        assert!(
            r_busy.async_frames_sent > 100,
            "{}",
            r_busy.async_frames_sent
        );
        // Async load must not cause sync misses for a schedulable set.
        assert_eq!(r_busy.deadline_misses(), 0, "{r_busy}");
        // Utilization rises with background traffic.
        assert!(r_busy.medium_utilization > r_quiet.medium_utilization);
    }

    #[test]
    fn overload_misses_deadlines() {
        // ≈ 250 % utilization: impossible.
        let heavy = MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(2_500_000)),
            SyncStream::new(Seconds::from_millis(40.0), Bits::new(5_000_000)),
        ])
        .unwrap();
        let ring = RingConfig::fddi(2, Bandwidth::from_mbps(100.0));
        let config = SimConfig::new(ring, Seconds::new(0.5));
        // from_analysis refuses (allocation infeasible), so drive it with
        // explicit allocations matching a plausible-but-doomed setup.
        let ttrt = Seconds::from_millis(5.0);
        let h = vec![Seconds::from_millis(2.0), Seconds::from_millis(2.0)];
        let report = TtpSimulator::with_allocations(&heavy, config, ttrt, &h)
            .unwrap()
            .run();
        assert!(report.deadline_misses() > 0, "{report}");
    }

    #[test]
    fn allocation_validation() {
        let set = light_set();
        let config = SimConfig::new(ring(), Seconds::new(0.1));
        assert!(matches!(
            TtpSimulator::with_allocations(&set, config, Seconds::from_millis(5.0), &[]),
            Err(SimError::AllocationCountMismatch {
                got: 0,
                expected: 4
            })
        ));
        let zero = vec![Seconds::ZERO; 4];
        assert!(matches!(
            TtpSimulator::with_allocations(&set, config, Seconds::from_millis(5.0), &zero),
            Err(SimError::InfeasibleAllocation { stream: 0 })
        ));
        let e = SimError::InfeasibleAllocation { stream: 2 };
        assert!(e.to_string().contains("stream 2"));
    }

    #[test]
    fn staggered_phasing_also_meets_deadlines() {
        let config =
            SimConfig::new(ring(), Seconds::new(0.5)).with_phasing(crate::Phasing::Staggered);
        let report = TtpSimulator::from_analysis(&light_set(), config)
            .unwrap()
            .run();
        assert_eq!(report.deadline_misses(), 0, "{report}");
    }

    #[test]
    fn token_loss_counted_and_recovered() {
        let config = SimConfig::new(ring(), Seconds::new(1.0))
            .with_token_loss(20.0, Seconds::from_millis(2.0));
        let report = TtpSimulator::from_analysis(&light_set(), config)
            .unwrap()
            .run();
        assert!(report.token_losses > 5, "losses: {}", report.token_losses);
        // The ring keeps delivering after every recovery.
        assert!(report.completed() > 50, "{report}");
    }

    #[test]
    fn brutal_token_loss_causes_misses() {
        // Loss every ~10 ms with 15 ms recovery: the ring is down most of
        // the time; the 20 ms stream cannot survive.
        let config = SimConfig::new(ring(), Seconds::new(1.0))
            .with_token_loss(100.0, Seconds::from_millis(15.0));
        let report = TtpSimulator::from_analysis(&light_set(), config)
            .unwrap()
            .run();
        assert!(report.deadline_misses() > 0, "{report}");
    }

    #[test]
    fn zero_loss_rate_is_identical_to_no_injection() {
        let base = SimConfig::new(ring(), Seconds::new(0.5)).with_async_load(0.2);
        let with_zero = base.with_token_loss(0.0, Seconds::from_millis(1.0));
        let a = TtpSimulator::from_analysis(&light_set(), base)
            .unwrap()
            .run();
        let b = TtpSimulator::from_analysis(&light_set(), with_zero)
            .unwrap()
            .run();
        assert_eq!(a.completed(), b.completed());
        assert_eq!(b.token_losses, 0);
    }

    #[test]
    fn trace_captures_protocol_events() {
        use crate::TraceKind;
        let config = SimConfig::new(ring(), Seconds::new(0.05))
            .with_async_load(0.2)
            .with_trace(200_000);
        let report = TtpSimulator::from_analysis(&light_set(), config)
            .unwrap()
            .run();
        assert_eq!(report.trace_dropped, 0, "raise capacity: trace truncated");
        assert!(!report.trace.is_empty());
        // Timestamps are nondecreasing.
        assert!(report.trace.windows(2).all(|w| w[0].at <= w[1].at));
        let arrivals = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TokenArrive { .. }))
            .count();
        let frames = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::FrameStart { .. }))
            .count();
        let completes = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::MessageComplete { late: false, .. }))
            .count();
        assert!(arrivals > frames, "token visits outnumber transmissions");
        assert_eq!(completes as u64, report.completed());
        // A tiny capacity truncates and counts the overflow.
        let tiny = SimConfig::new(ring(), Seconds::new(0.05)).with_trace(5);
        let r = TtpSimulator::from_analysis(&light_set(), tiny)
            .unwrap()
            .run();
        assert_eq!(r.trace.len(), 5);
        assert!(r.trace_dropped > 0);
        // Tracing off by default.
        let off = SimConfig::new(ring(), Seconds::new(0.05));
        let r = TtpSimulator::from_analysis(&light_set(), off)
            .unwrap()
            .run();
        assert!(r.trace.is_empty());
        assert_eq!(r.trace_dropped, 0);
        // Timeline rendering mentions stations.
        let text = crate::render_timeline(&report.trace[..20.min(report.trace.len())]);
        assert!(text.contains("station"));
    }

    #[test]
    fn deterministic_runs() {
        let config = SimConfig::new(ring(), Seconds::new(0.3))
            .with_async_load(0.2)
            .with_seed(5);
        let a = TtpSimulator::from_analysis(&light_set(), config)
            .unwrap()
            .run();
        let b = TtpSimulator::from_analysis(&light_set(), config)
            .unwrap()
            .run();
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.async_frames_sent, b.async_frames_sent);
        assert_eq!(a.events, b.events);
    }
}
