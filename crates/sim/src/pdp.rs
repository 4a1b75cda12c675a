//! Frame-level simulator of the priority-driven (IEEE 802.5) MAC.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ringrt_core::pdp::PdpVariant;
use ringrt_des::EventQueue;
use ringrt_model::{FrameFormat, MessageSet};
use ringrt_units::{Bits, SimDuration, SimTime};

use crate::metrics::MetricsCollector;
use crate::trace::TraceRecorder;
use crate::traffic::{AsyncTraffic, SyncTraffic};
use crate::{SimConfig, SimReport, TraceKind};

/// Priority rank used by asynchronous frames: below every synchronous
/// stream.
const ASYNC_RANK: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The free token arrives at a station (tagged with its generation so
    /// that tokens invalidated by a loss are discarded in flight).
    TokenArrive(usize, u32),
    /// A station finishes one frame's effective medium occupancy.
    FrameDone(usize),
    /// A synchronous stream releases its next message.
    SyncArrival(usize),
    /// An asynchronous frame is queued at a station.
    AsyncArrival(usize),
    /// Fault injection: the free token is lost (if not currently held).
    TokenLoss,
}

/// Frame-level simulator of the IEEE 802.5 priority token MAC running the
/// rate-monotonic policy of the paper's §4.
///
/// Mechanics mirrored from the analysis:
///
/// * messages split into fixed-size frames; one frame per token capture
///   (standard variant) or consecutive frames while the station remains the
///   highest-priority contender (modified variant);
/// * each frame occupies the medium for `max(F, Θ)` — the transmitter must
///   see its header (with the other stations' reservation bids) return
///   before the medium is reusable;
/// * on release, the token priority is set to the highest pending priority
///   on the ring (the steady state the reservation field converges to) and
///   the token walks hop-by-hop to the next claimant, so the `Θ/2` average
///   circulation overhead — and blocking by passed-by stations — emerge
///   naturally rather than being assumed;
/// * asynchronous frames contend at a rank below every synchronous stream.
///
/// # Examples
///
/// ```
/// use ringrt_core::pdp::PdpVariant;
/// use ringrt_model::{FrameFormat, MessageSet, RingConfig, SyncStream};
/// use ringrt_sim::{PdpSimulator, SimConfig};
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let ring = RingConfig::ieee_802_5(2, Bandwidth::from_mbps(4.0));
/// let set = MessageSet::new(vec![
///     SyncStream::new(Seconds::from_millis(20.0), Bits::new(4_000)),
///     SyncStream::new(Seconds::from_millis(40.0), Bits::new(8_000)),
/// ])?;
/// let config = SimConfig::new(ring, Seconds::new(1.0));
/// let report = PdpSimulator::new(&set, config, FrameFormat::paper_default(), PdpVariant::Standard)
///     .run();
/// assert_eq!(report.deadline_misses(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PdpSimulator {
    config: SimConfig,
    frame: FrameFormat,
    variant: PdpVariant,
    /// Rate-monotonic priority rank per station (0 = highest).
    rank: Vec<usize>,
    theta: SimDuration,
    hop_latency: SimDuration,
    token_time: SimDuration,
    async_frame_bits: u64,
    sync: Vec<SyncTraffic>,
    asynchronous: Vec<AsyncTraffic>,
    /// Current free-token priority level (capture needs `rank ≤ level`).
    token_level: usize,
    /// Generation of the live token; stale arrivals are discarded.
    token_gen: u32,
    /// The medium is held (frame in progress) until this instant.
    busy_until: SimTime,
    rng: StdRng,
    queue: EventQueue<Event>,
    metrics: MetricsCollector,
    trace: TraceRecorder,
}

impl PdpSimulator {
    /// Builds a simulator for `set` over `config.ring()` with the given
    /// frame format and protocol variant. Stream priorities follow the
    /// rate-monotonic order of `set`.
    #[must_use]
    pub fn new(
        set: &MessageSet,
        config: SimConfig,
        frame: FrameFormat,
        variant: PdpVariant,
    ) -> Self {
        let order = set.rm_order();
        let mut rank = vec![0usize; set.len()];
        for (r, &station) in order.iter().enumerate() {
            rank[station] = r;
        }
        let bw = config.ring().bandwidth();
        let stations = config.ring().stations();
        PdpSimulator {
            frame,
            variant,
            rank,
            theta: config.ring().token_circulation_time().to_sim_duration(),
            hop_latency: config.ring().hop_latency().to_sim_duration(),
            token_time: config.ring().token_time().to_sim_duration(),
            async_frame_bits: config.async_payload_bits(),
            sync: SyncTraffic::build(set, config.phasing()),
            asynchronous: AsyncTraffic::build(
                stations,
                config.async_load(),
                config.async_payload_bits(),
                bw.as_bps(),
            ),
            token_level: ASYNC_RANK,
            token_gen: 0,
            busy_until: SimTime::ZERO,
            rng: StdRng::seed_from_u64(config.seed()),
            queue: EventQueue::new(),
            metrics: MetricsCollector::new(set.len(), SimTime::ZERO + config.duration()),
            trace: TraceRecorder::new(config.trace_capacity()),
            config,
        }
    }

    /// The protocol variant simulated.
    #[must_use]
    pub fn variant(&self) -> PdpVariant {
        self.variant
    }

    /// Restricts arbitration to `levels` hardware priority classes (802.5
    /// has 8): streams are mapped onto levels in deadline-monotonic order
    /// and same-level stations win by ring position, as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    #[must_use]
    pub fn with_priority_levels(mut self, levels: usize) -> Self {
        let n = self.rank.len();
        let quantized = ringrt_core::pdp::quantize_ranks(n, levels);
        // self.rank maps station → unique dm rank; remap through the
        // quantization (rank r → level quantized[r]).
        for r in &mut self.rank {
            *r = quantized[*r];
        }
        self
    }

    /// Runs the simulation to the configured horizon and reports.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        let end = SimTime::ZERO + self.config.duration();
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
                        self.token_arrive(st, now);
                    }
                }
                Event::FrameDone(st) => self.frame_done(st, now),
                Event::TokenLoss => self.token_loss(now, end),
            }
        }

        self.finish(end)
    }

    /// The priority rank of the best pending frame at station `st`
    /// (synchronous beats asynchronous), or `None` if it has nothing
    /// to send.
    fn station_bid(&self, st: usize) -> Option<usize> {
        if st < self.sync.len() && self.sync[st].has_backlog() {
            Some(self.rank[st])
        } else if self.asynchronous[st].queued() > 0 {
            Some(ASYNC_RANK)
        } else {
            None
        }
    }

    /// The best (numerically smallest) pending rank on the whole ring —
    /// the value the reservation field converges to.
    fn best_pending_rank(&self) -> usize {
        (0..self.config.ring().stations())
            .filter_map(|st| self.station_bid(st))
            .min()
            .unwrap_or(ASYNC_RANK)
    }

    fn token_arrive(&mut self, st: usize, now: SimTime) {
        self.trace
            .record(now, TraceKind::TokenArrive { station: st });
        if st == 0 {
            self.metrics.mark_rotation(now);
        }
        let captures = matches!(self.station_bid(st), Some(bid) if bid <= self.token_level);
        if captures {
            self.start_frame(st, now);
        } else {
            let next = (st + 1) % self.config.ring().stations();
            self.queue.schedule_at(
                now + self.hop_latency,
                Event::TokenArrive(next, self.token_gen),
            );
        }
    }

    /// Handles a token-loss event: a free token vanishes and the active
    /// monitor regenerates one (at the lowest priority, per the standard)
    /// after the configured recovery time.
    fn token_loss(&mut self, now: SimTime, end: SimTime) {
        if let Some(at) = self.config.next_token_loss(&mut self.rng, now, end) {
            self.queue.schedule_at(at, Event::TokenLoss);
        }
        if now < self.busy_until {
            return; // a station holds the ring: no free token to lose
        }
        self.token_gen = self.token_gen.wrapping_add(1);
        self.metrics.token_losses += 1;
        self.trace.record(now, TraceKind::TokenLost);
        self.token_level = ASYNC_RANK; // regenerated tokens start unreserved
        let recovery_at = now + self.config.token_recovery().to_sim_duration();
        self.trace.record(recovery_at, TraceKind::TokenRecovered);
        self.queue
            .schedule_at(recovery_at, Event::TokenArrive(0, self.token_gen));
    }

    /// Begins transmitting one frame at `st`; schedules its completion
    /// after the effective occupancy `max(frame time, Θ)`.
    fn start_frame(&mut self, st: usize, now: SimTime) {
        let bw = self.config.ring().bandwidth();
        let is_sync = self.sync[st].has_backlog();
        let (payload_bits, completion) = if is_sync {
            let head = *self.sync[st].head().expect("backlog");
            let payload = head.remaining.min(self.frame.payload());
            let (taken, done) = self.sync[st].consume(payload);
            debug_assert_eq!(taken, payload);
            (payload, done)
        } else {
            let wait = self.asynchronous[st].take_frame(now);
            self.metrics.async_waits.push(wait);
            self.metrics.async_frames_sent += 1;
            (Bits::new(self.async_frame_bits), None)
        };
        self.trace.record(
            now,
            TraceKind::FrameStart {
                station: st,
                synchronous: is_sync,
                bits: payload_bits.as_u64(),
            },
        );
        let tx_time = bw
            .transmission_time(payload_bits + self.frame.overhead())
            .to_sim_duration();
        self.metrics.medium_busy(now, now + tx_time);
        if let Some(msg) = completion {
            // The message is delivered when its last bit is transmitted.
            self.trace.record(
                now + tx_time,
                TraceKind::MessageComplete {
                    stream: st,
                    late: now + tx_time > msg.deadline,
                },
            );
            self.metrics
                .message_done(st, msg.arrival, msg.deadline, now + tx_time);
        }
        let occupancy = tx_time.max(self.theta);
        self.busy_until = now + occupancy;
        self.queue
            .schedule_at(now + occupancy, Event::FrameDone(st));
    }

    fn frame_done(&mut self, st: usize, now: SimTime) {
        if self.variant == PdpVariant::Modified {
            // Keep transmitting while still the strictly highest-priority
            // contender on the ring.
            if let Some(bid) = self.station_bid(st) {
                let others_best = (0..self.config.ring().stations())
                    .filter(|&s| s != st)
                    .filter_map(|s| self.station_bid(s))
                    .min()
                    .unwrap_or(ASYNC_RANK);
                if bid < others_best {
                    self.start_frame(st, now);
                    return;
                }
            }
        }
        // Release a fresh token carrying the highest pending priority.
        self.token_level = self.best_pending_rank();
        let next = (st + 1) % self.config.ring().stations();
        self.queue.schedule_at(
            now + self.token_time + self.hop_latency,
            Event::TokenArrive(next, self.token_gen),
        );
    }

    fn finish(mut self, end: SimTime) -> SimReport {
        #[allow(unused_assignments)]
        let mut trace_dropped = 0u64;
        for (i, s) in self.sync.iter().enumerate() {
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
            protocol: self.variant.label(),
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
    use ringrt_units::{Bandwidth, Seconds};

    fn ring(mbps: f64) -> RingConfig {
        RingConfig::ieee_802_5(4, Bandwidth::from_mbps(mbps))
    }

    fn light_set() -> MessageSet {
        MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(4_000)),
            SyncStream::new(Seconds::from_millis(40.0), Bits::new(8_000)),
            SyncStream::new(Seconds::from_millis(80.0), Bits::new(16_000)),
            SyncStream::new(Seconds::from_millis(160.0), Bits::new(16_000)),
        ])
        .unwrap()
    }

    #[test]
    fn schedulable_set_meets_deadlines_both_variants() {
        for variant in [PdpVariant::Standard, PdpVariant::Modified] {
            let config = SimConfig::new(ring(4.0), Seconds::new(1.0));
            let report =
                PdpSimulator::new(&light_set(), config, FrameFormat::paper_default(), variant)
                    .run();
            assert_eq!(report.deadline_misses(), 0, "{variant:?}: {report}");
            assert!(report.completed() >= 80, "{variant:?}: {report}");
        }
    }

    #[test]
    fn overload_misses_deadlines() {
        // ≈ 300 % utilization at 1 Mbps.
        let heavy = MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(10.0), Bits::new(20_000)),
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(20_000)),
        ])
        .unwrap();
        let ring = RingConfig::ieee_802_5(2, Bandwidth::from_mbps(1.0));
        let config = SimConfig::new(ring, Seconds::new(0.5));
        let report = PdpSimulator::new(
            &heavy,
            config,
            FrameFormat::paper_default(),
            PdpVariant::Modified,
        )
        .run();
        assert!(report.deadline_misses() > 0, "{report}");
        // Medium saturated.
        assert!(report.medium_utilization > 0.8, "{report}");
    }

    #[test]
    fn high_priority_stream_protected_under_overload() {
        // Stream 0 (shortest period) must survive even when the ring is
        // swamped by a lower-priority stream.
        let set = MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(2_000)),
            SyncStream::new(Seconds::from_millis(50.0), Bits::new(200_000)), // hopeless at 1 Mbps
        ])
        .unwrap();
        let ring = RingConfig::ieee_802_5(2, Bandwidth::from_mbps(1.0));
        let config = SimConfig::new(ring, Seconds::new(1.0));
        let report = PdpSimulator::new(
            &set,
            config,
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )
        .run();
        assert_eq!(report.per_stream[0].deadline_misses, 0, "{report}");
        assert!(report.per_stream[1].deadline_misses > 0, "{report}");
    }

    #[test]
    fn modified_variant_is_at_least_as_fast() {
        let config = SimConfig::new(ring(4.0), Seconds::new(1.0));
        let std = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )
        .run();
        let modv = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Modified,
        )
        .run();
        let worst = |r: &SimReport| {
            r.per_stream
                .iter()
                .filter_map(|s| s.worst_response())
                .max()
                .unwrap()
        };
        assert!(
            worst(&modv) <= worst(&std),
            "modified worst {} vs standard worst {}",
            worst(&modv),
            worst(&std)
        );
    }

    #[test]
    fn async_traffic_is_strictly_background() {
        let quiet = SimConfig::new(ring(4.0), Seconds::new(0.5));
        let busy = quiet.with_async_load(0.3);
        let r_quiet = PdpSimulator::new(
            &light_set(),
            quiet,
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )
        .run();
        let r_busy = PdpSimulator::new(
            &light_set(),
            busy,
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )
        .run();
        assert_eq!(r_quiet.async_frames_sent, 0);
        assert!(r_busy.async_frames_sent > 50);
        assert_eq!(r_busy.deadline_misses(), 0, "{r_busy}");
    }

    #[test]
    fn deterministic_runs() {
        let config = SimConfig::new(ring(4.0), Seconds::new(0.4))
            .with_async_load(0.2)
            .with_seed(11);
        let a = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Modified,
        )
        .run();
        let b = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Modified,
        )
        .run();
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn token_loss_recovers_and_hurts_under_pressure() {
        let config = SimConfig::new(ring(4.0), Seconds::new(1.0))
            .with_token_loss(20.0, Seconds::from_millis(2.0));
        let report = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )
        .run();
        assert!(report.token_losses > 5, "losses: {}", report.token_losses);
        assert!(report.completed() > 50, "{report}");

        // Brutal losses break the fast stream.
        let config = SimConfig::new(ring(4.0), Seconds::new(1.0))
            .with_token_loss(100.0, Seconds::from_millis(15.0));
        let report = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )
        .run();
        assert!(report.deadline_misses() > 0, "{report}");
    }

    #[test]
    fn trace_captures_pdp_events() {
        use crate::TraceKind;
        let config = SimConfig::new(ring(4.0), Seconds::new(0.1))
            .with_async_load(0.2)
            .with_trace(500_000);
        let report = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )
        .run();
        assert_eq!(report.trace_dropped, 0, "raise capacity: trace truncated");
        assert!(!report.trace.is_empty());
        assert!(report.trace.windows(2).all(|w| w[0].at <= w[1].at));
        // Both traffic classes show up.
        let sync_frames = report
            .trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::FrameStart {
                        synchronous: true,
                        ..
                    }
                )
            })
            .count();
        let async_frames = report
            .trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::FrameStart {
                        synchronous: false,
                        ..
                    }
                )
            })
            .count();
        assert!(sync_frames > 0);
        assert!(async_frames as u64 == report.async_frames_sent);
        let completes = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::MessageComplete { .. }))
            .count();
        assert_eq!(completes as u64, report.completed());
    }

    #[test]
    fn quantized_levels_degrade_the_fast_stream() {
        // With a single level the MAC falls back to position-arbitrated,
        // frame-granular round robin. That is *milder* than the
        // conservative one-whole-message-per-peer analysis (which rejects
        // this set at one level — see the core tests), but it must still
        // cost the fast stream: its worst response cannot beat the
        // prioritized run's.
        let set = MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(2_000)),
            SyncStream::new(Seconds::from_millis(50.0), Bits::new(200_000)),
        ])
        .unwrap();
        let ring = RingConfig::ieee_802_5(2, Bandwidth::from_mbps(1.0));
        let config = SimConfig::new(ring, Seconds::new(1.0));
        let build = |levels: Option<usize>| {
            let sim = PdpSimulator::new(
                &set,
                config,
                FrameFormat::paper_default(),
                PdpVariant::Standard,
            );
            match levels {
                Some(k) => sim.with_priority_levels(k),
                None => sim,
            }
            .run()
        };
        let prioritized = build(None);
        assert_eq!(
            prioritized.per_stream[0].deadline_misses, 0,
            "{prioritized}"
        );
        let flattened = build(Some(1));
        let w_pri = prioritized.per_stream[0].worst_response().unwrap();
        let w_flat = flattened.per_stream[0].worst_response().unwrap();
        assert!(
            w_flat >= w_pri,
            "round robin cannot beat dedicated priority: {w_flat} < {w_pri}"
        );
        // Two levels behave exactly like unlimited for a two-stream set.
        let restored = build(Some(2));
        assert_eq!(restored.per_stream[0].deadline_misses, 0, "{restored}");
        assert_eq!(
            restored.per_stream[0].worst_response(),
            prioritized.per_stream[0].worst_response()
        );
    }

    #[test]
    fn variant_accessor() {
        let config = SimConfig::new(ring(4.0), Seconds::new(0.1));
        let sim = PdpSimulator::new(
            &light_set(),
            config,
            FrameFormat::paper_default(),
            PdpVariant::Modified,
        );
        assert_eq!(sim.variant(), PdpVariant::Modified);
    }
}
