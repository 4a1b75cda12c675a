//! Traffic sources: periodic synchronous messages and Poisson asynchronous
//! background frames.

use std::collections::VecDeque;

use rand::Rng;

use ringrt_model::MessageSet;
use ringrt_units::{Bits, Seconds, SimDuration, SimTime};

use crate::config::MAX_SPAN;
use crate::Phasing;

/// One in-flight synchronous message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingMessage {
    /// Arrival instant.
    pub arrival: SimTime,
    /// Absolute deadline (arrival + period).
    pub deadline: SimTime,
    /// Payload bits still to transmit.
    pub remaining: Bits,
}

/// Per-station synchronous traffic state: the periodic source and its FIFO
/// backlog of incomplete messages.
///
/// The simulator registers an arrival on every period boundary and
/// consumes payload head-of-line, FIFO within the stream.
#[derive(Debug, Clone)]
pub struct SyncTraffic {
    period: SimDuration,
    /// Relative deadline (= period in the paper's model).
    deadline: SimDuration,
    message_bits: Bits,
    first_arrival: SimTime,
    queue: VecDeque<PendingMessage>,
}

impl SyncTraffic {
    /// Builds one source per stream of `set`, phased per `phasing`.
    #[must_use]
    pub fn build(set: &MessageSet, phasing: Phasing) -> Vec<SyncTraffic> {
        let n = set.len();
        set.iter()
            .enumerate()
            .map(|(i, s)| {
                let period = s.period().to_sim_duration();
                let first_arrival = match phasing {
                    Phasing::Synchronized => SimTime::ZERO,
                    Phasing::Staggered => {
                        SimTime::ZERO
                            + SimDuration::from_picos(period.as_picos() / n as u64 * i as u64)
                    }
                };
                SyncTraffic {
                    period,
                    deadline: s.relative_deadline().to_sim_duration(),
                    message_bits: s.length_bits(),
                    first_arrival,
                    queue: VecDeque::new(),
                }
            })
            .collect()
    }

    /// The instant of the first message arrival.
    #[must_use]
    pub fn first_arrival(&self) -> SimTime {
        self.first_arrival
    }

    /// The message period.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The relative deadline.
    #[must_use]
    pub fn relative_deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Registers the arrival at `now`; returns the next arrival instant.
    pub(crate) fn arrive(&mut self, now: SimTime) -> SimTime {
        self.queue.push_back(PendingMessage {
            arrival: now,
            deadline: now + self.deadline,
            remaining: self.message_bits,
        });
        now + self.period
    }

    /// `true` if any message payload is waiting.
    #[must_use]
    pub fn has_backlog(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Total queued payload bits.
    #[must_use]
    pub fn backlog_bits(&self) -> Bits {
        self.queue.iter().map(|m| m.remaining).sum()
    }

    /// Head-of-line message, if any.
    pub(crate) fn head(&self) -> Option<&PendingMessage> {
        self.queue.front()
    }

    /// Consumes up to `budget` payload bits from the head of the queue
    /// (head-of-line only: messages complete in FIFO order). Returns the
    /// bits consumed and, if the head message finished, its record.
    pub(crate) fn consume(&mut self, budget: Bits) -> (Bits, Option<PendingMessage>) {
        let Some(head) = self.queue.front_mut() else {
            return (Bits::ZERO, None);
        };
        let taken = head.remaining.min(budget);
        head.remaining -= taken;
        if head.remaining.is_zero() {
            let done = self.queue.pop_front();
            (taken, done)
        } else {
            (taken, None)
        }
    }
}

/// Per-station asynchronous background traffic: a Poisson frame source and
/// its FIFO queue.
///
/// Only the queue depth matters to the MACs (asynchronous frames have no
/// deadlines); the source exists to exercise the protocols' asynchronous
/// machinery — token priority floors for the PDP, THT/late-count rules and
/// overrun for the TTP.
#[derive(Debug, Clone)]
pub struct AsyncTraffic {
    /// Mean inter-arrival time; `None` disables the source.
    mean_interarrival: Option<SimDuration>,
    queue: VecDeque<SimTime>,
    sent_frames: u64,
}

impl AsyncTraffic {
    /// The mean time between one station's frames when the fleet offers
    /// `load` fraction of `bandwidth_bps` in `frame_bits`-payload frames,
    /// split evenly across `stations`; `None` without load.
    pub(crate) fn mean_interarrival(
        stations: usize,
        load: f64,
        frame_bits: u64,
        bandwidth_bps: f64,
    ) -> Option<Seconds> {
        (load > 0.0).then(|| {
            // Per-station frame rate: load·BW / (frame_bits · stations).
            let rate = load * bandwidth_bps / (frame_bits as f64 * stations as f64);
            Seconds::new(1.0 / rate)
        })
    }

    /// Builds per-station sources so the fleet offers `load` fraction of
    /// `bandwidth_bps` in `frame_bits`-payload frames, split evenly across
    /// `stations`.
    #[must_use]
    pub fn build(
        stations: usize,
        load: f64,
        frame_bits: u64,
        bandwidth_bps: f64,
    ) -> Vec<AsyncTraffic> {
        let mean = Self::mean_interarrival(stations, load, frame_bits, bandwidth_bps)
            .map(SimDuration::from_seconds);
        (0..stations)
            .map(|_| AsyncTraffic {
                mean_interarrival: mean,
                queue: VecDeque::new(),
                sent_frames: 0,
            })
            .collect()
    }

    /// `true` if this source generates traffic at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.mean_interarrival.is_some()
    }

    /// Draws the next exponential inter-arrival gap. A draw past
    /// [`MAX_SPAN`] lands past any run's horizon, so it is cut to
    /// `MAX_SPAN` to keep the arrival on the clock.
    pub(crate) fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<SimDuration> {
        let mean = self.mean_interarrival?;
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        let gap = -u.ln() * mean.as_picos() as f64;
        Some(SimDuration::from_picos(gap.max(1.0) as u64).min(MAX_SPAN))
    }

    /// Registers one frame arrival at `now`.
    pub(crate) fn arrive(&mut self, now: SimTime) {
        self.queue.push_back(now);
    }

    /// Number of queued frames.
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Number of frames transmitted so far.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent_frames
    }

    /// Dequeues one frame for transmission at `now`; returns how long the
    /// frame waited since its arrival.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub(crate) fn take_frame(&mut self, now: SimTime) -> SimDuration {
        let arrival = self
            .queue
            .pop_front()
            .expect("no asynchronous frame queued");
        self.sent_frames += 1;
        now.saturating_duration_since(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ringrt_model::SyncStream;
    use ringrt_units::Seconds;

    fn set() -> MessageSet {
        MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(10.0), Bits::new(1_000)),
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(2_000)),
        ])
        .unwrap()
    }

    #[test]
    fn synchronized_phasing_starts_at_zero() {
        let sources = SyncTraffic::build(&set(), Phasing::Synchronized);
        assert!(sources.iter().all(|s| s.first_arrival() == SimTime::ZERO));
    }

    #[test]
    fn staggered_phasing_spreads_starts() {
        let sources = SyncTraffic::build(&set(), Phasing::Staggered);
        assert_eq!(sources[0].first_arrival(), SimTime::ZERO);
        // Station 1 starts at 1·P_1/2 = 10 ms.
        assert_eq!(
            sources[1].first_arrival(),
            SimTime::ZERO + SimDuration::from_millis(10)
        );
    }

    #[test]
    fn arrivals_queue_and_schedule_next() {
        let mut s = SyncTraffic::build(&set(), Phasing::Synchronized).remove(0);
        assert!(!s.has_backlog());
        let next = s.arrive(SimTime::ZERO);
        assert_eq!(next, SimTime::ZERO + SimDuration::from_millis(10));
        assert!(s.has_backlog());
        assert_eq!(s.backlog_bits(), Bits::new(1_000));
        let head = s.head().unwrap();
        assert_eq!(head.deadline, SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn consume_partial_then_complete() {
        let mut s = SyncTraffic::build(&set(), Phasing::Synchronized).remove(0);
        s.arrive(SimTime::ZERO);
        let (taken, done) = s.consume(Bits::new(600));
        assert_eq!(taken, Bits::new(600));
        assert!(done.is_none());
        let (taken, done) = s.consume(Bits::new(600));
        assert_eq!(taken, Bits::new(400));
        let done = done.unwrap();
        assert_eq!(done.arrival, SimTime::ZERO);
        assert!(!s.has_backlog());
        // Consuming from an empty queue is a no-op.
        assert_eq!(s.consume(Bits::new(100)).0, Bits::ZERO);
    }

    #[test]
    fn constrained_deadline_propagates_to_messages() {
        let set = MessageSet::new(vec![SyncStream::new(
            Seconds::from_millis(20.0),
            Bits::new(500),
        )
        .with_relative_deadline(Seconds::from_millis(5.0))])
        .unwrap();
        let mut s = SyncTraffic::build(&set, Phasing::Synchronized).remove(0);
        assert_eq!(s.relative_deadline(), SimDuration::from_millis(5));
        let next = s.arrive(SimTime::ZERO);
        // Deadline 5 ms after arrival, next arrival still one period later.
        assert_eq!(
            s.head().unwrap().deadline,
            SimTime::ZERO + SimDuration::from_millis(5)
        );
        assert_eq!(next, SimTime::ZERO + SimDuration::from_millis(20));
    }

    #[test]
    fn fifo_across_messages() {
        let mut s = SyncTraffic::build(&set(), Phasing::Synchronized).remove(0);
        s.arrive(SimTime::ZERO);
        s.arrive(SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(s.backlog_bits(), Bits::new(2_000));
        // One big budget drains only the head message.
        let (taken, done) = s.consume(Bits::new(5_000));
        assert_eq!(taken, Bits::new(1_000));
        assert!(done.is_some());
        assert!(s.has_backlog());
    }

    #[test]
    fn async_load_zero_is_inactive() {
        let sources = AsyncTraffic::build(4, 0.0, 512, 1e8);
        assert!(sources.iter().all(|a| !a.is_active()));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sources[0].next_gap(&mut rng).is_none());
    }

    #[test]
    fn async_gap_mean_matches_load() {
        let sources = AsyncTraffic::build(2, 0.5, 512, 1e8);
        // Per station: 0.5·1e8/(512·2) ≈ 48 828 frames/s → mean ≈ 20.48 µs.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| sources[0].next_gap(&mut rng).unwrap().as_picos())
            .sum();
        let mean_us = total as f64 / n as f64 / 1e6;
        assert!((mean_us - 20.48).abs() < 0.6, "mean {mean_us} µs");
    }

    #[test]
    fn async_queue_accounting_and_waits() {
        let mut a = AsyncTraffic::build(1, 0.1, 512, 1e8).remove(0);
        a.arrive(SimTime::from_picos(100));
        a.arrive(SimTime::from_picos(200));
        assert_eq!(a.queued(), 2);
        // FIFO: the first-arrived frame goes out first, with its own wait.
        let w = a.take_frame(SimTime::from_picos(500));
        assert_eq!(w, SimDuration::from_picos(400));
        assert_eq!(a.queued(), 1);
        assert_eq!(a.sent(), 1);
        let w = a.take_frame(SimTime::from_picos(500));
        assert_eq!(w, SimDuration::from_picos(300));
    }

    #[test]
    #[should_panic(expected = "no asynchronous frame")]
    fn take_from_empty_panics() {
        AsyncTraffic::build(1, 0.1, 512, 1e8)
            .remove(0)
            .take_frame(SimTime::ZERO);
    }
}
