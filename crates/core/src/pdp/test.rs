//! The Theorem 4.1 schedulability test for the priority-driven protocol.

use core::fmt;

use ringrt_model::{FrameFormat, MessageSet, RingConfig, SetView, StreamId};
use ringrt_units::Seconds;

use crate::protocol::Rescale;
use crate::rm::{self, Budget, RmTask, ScaledRta, Unfinished};
use crate::{ScalingProbe, SchedulabilityTest};

use super::levels::{is_schedulable_quantized, quantize_ranks, quantized_response_time};
use super::overhead::FrameGeometry;
use super::{blocking_bound, PdpVariant};

/// Schedulability analyzer for the priority-driven protocol
/// (paper Theorem 4.1).
///
/// Messages are assigned rate-monotonic priorities (shorter period = higher
/// priority); each message's augmented length `C'_i` folds in the protocol
/// overheads of the chosen [`PdpVariant`], and the blocking bound
/// `B = 2·max(F, Θ)` covers priority inversion from lower-priority and
/// asynchronous frames.
///
/// # Examples
///
/// ```
/// use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
/// use ringrt_core::SchedulabilityTest;
/// use ringrt_model::{FrameFormat, MessageSet, RingConfig, SyncStream};
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let ring = RingConfig::ieee_802_5(3, Bandwidth::from_mbps(4.0));
/// let pdp = PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Modified);
/// let set = MessageSet::new(vec![
///     SyncStream::new(Seconds::from_millis(20.0), Bits::new(8_000)),
///     SyncStream::new(Seconds::from_millis(40.0), Bits::new(16_000)),
///     SyncStream::new(Seconds::from_millis(80.0), Bits::new(32_000)),
/// ])?;
/// let report = pdp.analyze(&set);
/// assert!(report.schedulable);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdpAnalyzer {
    ring: RingConfig,
    frame: FrameFormat,
    variant: PdpVariant,
    /// Hardware priority levels available for arbitration; `None` models
    /// the paper's idealized one-level-per-stream assumption.
    priority_levels: Option<usize>,
}

impl PdpAnalyzer {
    /// Creates an analyzer for the given ring, frame format, and protocol
    /// variant.
    #[must_use]
    pub fn new(ring: RingConfig, frame: FrameFormat, variant: PdpVariant) -> Self {
        PdpAnalyzer {
            ring,
            frame,
            variant,
            priority_levels: None,
        }
    }

    /// Returns a copy restricted to `levels` hardware priority classes
    /// (IEEE 802.5 provides 8). Streams are mapped onto levels in
    /// deadline-monotonic order, as evenly as possible; same-level streams
    /// cannot preempt each other and are charged as mutual interference.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    #[must_use]
    pub fn with_priority_levels(mut self, levels: usize) -> Self {
        assert!(levels > 0, "need at least one priority level");
        self.priority_levels = Some(levels);
        self
    }

    /// The hardware priority-level limit, if any.
    #[must_use]
    pub fn priority_levels(&self) -> Option<usize> {
        self.priority_levels
    }

    /// The ring configuration under analysis.
    #[must_use]
    pub fn ring(&self) -> &RingConfig {
        &self.ring
    }

    /// The frame format under analysis.
    #[must_use]
    pub fn frame(&self) -> &FrameFormat {
        &self.frame
    }

    /// The protocol variant under analysis.
    #[must_use]
    pub fn variant(&self) -> PdpVariant {
        self.variant
    }

    /// The blocking bound `B = 2·max(F, Θ)` for this configuration.
    #[must_use]
    pub fn blocking(&self) -> Seconds {
        blocking_bound(&self.ring, &self.frame)
    }

    /// Builds the fixed-priority task view of `set`: augmented costs in
    /// deadline-monotonic priority order (rate-monotonic for the paper's
    /// implicit-deadline sets), together with the permutation of station
    /// indices.
    fn rm_view(&self, set: &MessageSet) -> (Vec<RmTask>, Vec<usize>) {
        let order = set.dm_order();
        let geometry = self.geometry();
        let tasks = order
            .iter()
            .map(|&i| {
                let s = set.stream(StreamId(i));
                RmTask::with_deadline(
                    geometry.augmented_length(s.length_bits()),
                    s.period(),
                    s.relative_deadline(),
                )
            })
            .collect();
        (tasks, order)
    }

    fn geometry(&self) -> FrameGeometry {
        FrameGeometry::new(&self.ring, &self.frame, self.variant)
    }

    /// The quantized level of each task (in priority order), or one level
    /// per task when unrestricted.
    fn level_map(&self, n: usize) -> Vec<usize> {
        match self.priority_levels {
            Some(k) => quantize_ranks(n, k),
            None => (0..n).collect(),
        }
    }

    /// Full diagnostic analysis of a message set under Theorem 4.1.
    #[must_use]
    pub fn analyze(&self, set: &MessageSet) -> PdpReport {
        let (tasks, order) = self.rm_view(set);
        let blocking = self.blocking();
        let levels = self.level_map(tasks.len());
        let response: Vec<Option<Seconds>> = if self.priority_levels.is_some() {
            (0..tasks.len())
                .map(|i| quantized_response_time(&tasks, &levels, i, blocking))
                .collect()
        } else {
            rm::response_times(&tasks, blocking)
        };

        let mut per_stream: Vec<PdpStreamReport> = Vec::with_capacity(tasks.len());
        for (rank, (&station, task)) in order.iter().zip(&tasks).enumerate() {
            per_stream.push(PdpStreamReport {
                stream: StreamId(station),
                priority_rank: rank,
                augmented_cost: task.cost,
                response_time: response[rank],
                schedulable: response[rank].is_some(),
            });
        }
        let schedulable = per_stream.iter().all(|s| s.schedulable);
        PdpReport {
            variant: self.variant,
            blocking,
            per_stream,
            schedulable,
        }
    }

    /// Verdict via the literal scheduling-point form of Theorem 4.1
    /// (equation 4). Slower than [`SchedulabilityTest::is_schedulable`]
    /// (which uses response-time analysis) but textually faithful to the
    /// paper; the two verdicts always agree.
    #[must_use]
    pub fn is_schedulable_by_points(&self, set: &MessageSet) -> bool {
        let (tasks, _) = self.rm_view(set);
        rm::is_schedulable_points(&tasks, self.blocking())
    }

    /// Deadline-monotonic rank (0 = highest priority) of `stream` in `set`.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range for `set`.
    #[must_use]
    pub fn priority_rank(&self, set: &MessageSet, stream: StreamId) -> usize {
        assert!(stream.0 < set.len(), "stream index out of range");
        set.dm_order()
            .iter()
            .position(|&i| i == stream.0)
            .expect("dm_order is a permutation")
    }

    /// Response-time verdict restricted to deadline-monotonic ranks
    /// `from_rank..n`, counting fixed-point demand evaluations.
    ///
    /// Admitting a stream leaves every higher-priority stream's response
    /// time untouched (interference only flows downward and the blocking
    /// bound is configuration-only), so an admission engine that knows the
    /// previous set was schedulable only needs to re-test from the new
    /// stream's rank on — the Lehoczky scheduling-point structure of
    /// Theorem 4.1. `from_rank = 0` is a full check; its verdict equals
    /// [`SchedulabilityTest::is_schedulable`].
    ///
    /// # Panics
    ///
    /// Panics if `from_rank >= set.len()`, or if this analyzer restricts
    /// hardware priority levels (quantized levels couple streams across
    /// ranks, so partial re-tests would be unsound).
    #[must_use]
    pub fn check_from_rank(&self, set: &MessageSet, from_rank: usize) -> CountedCheck {
        assert!(from_rank < set.len(), "from_rank out of range");
        let (tasks, _) = self.rm_view(set);
        self.check_tasks_from_rank(tasks, from_rank, &mut Budget::unlimited())
            .expect("an unlimited budget never runs out")
    }

    /// Demand terms [`PdpAnalyzer::check_within`] charges per stream for
    /// the set-up before response-time analysis: the deadline-monotonic
    /// sort, building each `C'_i`, and the utilization pre-check. On
    /// random sets of 10–400 streams that set-up took 72–111 ns per stream
    /// (10th–90th percentile) against 8–13 ns per demand term.
    pub const SETUP_TERMS_PER_STREAM: u64 = 10;

    /// The full Theorem 4.1 verdict of
    /// [`SchedulabilityTest::is_schedulable`] within a work `budget`:
    /// [`PdpAnalyzer::SETUP_TERMS_PER_STREAM`] per stream up front, then
    /// one term per demand product of the response-time analysis.
    ///
    /// # Errors
    ///
    /// [`Unfinished`] when the budget runs out first; the set-up is not
    /// started when the budget cannot pay for it.
    ///
    /// # Panics
    ///
    /// Panics if this analyzer restricts hardware priority levels.
    pub fn check_within(
        &self,
        set: &MessageSet,
        budget: &mut Budget,
    ) -> Result<CountedCheck, Unfinished> {
        budget.spend((set.len() as u64).saturating_mul(Self::SETUP_TERMS_PER_STREAM))?;
        let (tasks, _) = self.rm_view(set);
        self.check_tasks_from_rank(tasks, 0, budget)
    }

    /// [`PdpAnalyzer::check_from_rank`] over a [`SetView`], without
    /// materializing a `MessageSet`. Bit-identical to the set path when the
    /// view iterates the same streams: the tasks are built from
    /// [`SetView::dm_streams`] (the same deadline-monotonic order
    /// `rm_view` sorts into), so the utilization quick-check and every
    /// fixed-point iteration perform the same float operations in the same
    /// order.
    ///
    /// # Panics
    ///
    /// Same contract as [`PdpAnalyzer::check_from_rank`].
    #[must_use]
    pub fn check_from_rank_view(&self, view: &dyn SetView, from_rank: usize) -> CountedCheck {
        assert!(from_rank < view.view_len(), "from_rank out of range");
        let geometry = self.geometry();
        let tasks: Vec<RmTask> = view
            .dm_streams()
            .map(|s| {
                RmTask::with_deadline(
                    geometry.augmented_length(s.length_bits()),
                    s.period(),
                    s.relative_deadline(),
                )
            })
            .collect();
        self.check_tasks_from_rank(tasks, from_rank, &mut Budget::unlimited())
            .expect("an unlimited budget never runs out")
    }

    fn check_tasks_from_rank(
        &self,
        tasks: Vec<RmTask>,
        from_rank: usize,
        budget: &mut Budget,
    ) -> Result<CountedCheck, Unfinished> {
        assert!(
            self.priority_levels.is_none(),
            "counted partial checks require the unquantized analyzer"
        );
        // Same quick necessary condition as `rm::is_schedulable_rta`: the
        // lowest-priority task (always within any suffix) diverges when
        // utilization exceeds 1.
        let u: f64 = tasks.iter().map(RmTask::utilization).sum();
        if u > 1.0 + 1e-9 {
            return Ok(CountedCheck {
                schedulable: false,
                evaluations: 0,
            });
        }
        let blocking = self.blocking();
        let mut evaluations = 0u64;
        for i in from_rank..tasks.len() {
            let (response, evals) = rm::response_time_counted(&tasks, i, blocking, budget)?;
            evaluations += evals;
            if response.is_none() {
                return Ok(CountedCheck {
                    schedulable: false,
                    evaluations,
                });
            }
        }
        Ok(CountedCheck {
            schedulable: true,
            evaluations,
        })
    }
}

/// Outcome of a counted (possibly partial) response-time check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedCheck {
    /// Whether every tested rank meets its deadline.
    pub schedulable: bool,
    /// Fixed-point demand evaluations performed.
    pub evaluations: u64,
}

impl SchedulabilityTest for PdpAnalyzer {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        let (tasks, _) = self.rm_view(set);
        match self.priority_levels {
            Some(_) => {
                let levels = self.level_map(tasks.len());
                is_schedulable_quantized(&tasks, &levels, self.blocking())
            }
            None => rm::is_schedulable_rta(&tasks, self.blocking()),
        }
    }

    fn protocol_name(&self) -> &'static str {
        self.variant.label()
    }

    /// Without hardware priority levels, a probe that fixes the
    /// deadline-monotonic order, periods, deadlines, blocking bound and
    /// frame geometry once and rebuilds only `C'_i(α)` per probe; a rank
    /// that a utilization bound clears is not iterated, and any other
    /// starts from its response time at the last schedulable `α`. With
    /// levels, the default.
    fn scaling_probe<'a>(&'a self, set: &'a MessageSet) -> Box<dyn ScalingProbe + 'a> {
        if self.priority_levels.is_some() {
            return Box::new(Rescale { test: self, set });
        }
        let geometry = self.geometry();
        Box::new(ScaledRta::new(
            set,
            &set.dm_order(),
            self.blocking(),
            move |bits| geometry.augmented_length(bits),
        ))
    }
}

/// Diagnostic output of [`PdpAnalyzer::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct PdpReport {
    /// Variant that was analyzed.
    pub variant: PdpVariant,
    /// Blocking bound `B = 2·max(F, Θ)` applied to every stream.
    pub blocking: Seconds,
    /// Per-stream verdicts, in rate-monotonic priority order.
    pub per_stream: Vec<PdpStreamReport>,
    /// `true` iff every stream meets its deadline.
    pub schedulable: bool,
}

impl fmt::Display for PdpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} schedulability: {} (B = {})",
            self.variant,
            if self.schedulable { "PASS" } else { "FAIL" },
            self.blocking
        )?;
        for s in &self.per_stream {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// Verdict for a single stream under the priority-driven protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdpStreamReport {
    /// The stream (= sourcing station index).
    pub stream: StreamId,
    /// Rate-monotonic priority rank (0 = highest priority).
    pub priority_rank: usize,
    /// Augmented message length `C'_i`.
    pub augmented_cost: Seconds,
    /// Worst-case response time, if the stream is schedulable.
    pub response_time: Option<Seconds>,
    /// Whether the stream always meets its deadline.
    pub schedulable: bool,
}

impl fmt::Display for PdpStreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.response_time {
            Some(r) => write!(
                f,
                "{} (priority {}): C' = {}, R = {} — ok",
                self.stream, self.priority_rank, self.augmented_cost, r
            ),
            None => write!(
                f,
                "{} (priority {}): C' = {} — deadline miss",
                self.stream, self.priority_rank, self.augmented_cost
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdp::augmented_length;
    use ringrt_model::SyncStream;
    use ringrt_units::{Bandwidth, Bits};

    fn set(streams: &[(f64, u64)]) -> MessageSet {
        MessageSet::new(
            streams
                .iter()
                .map(|&(p, c)| SyncStream::new(Seconds::from_millis(p), Bits::new(c)))
                .collect(),
        )
        .unwrap()
    }

    fn analyzer(mbps: f64, variant: PdpVariant) -> PdpAnalyzer {
        PdpAnalyzer::new(
            RingConfig::ieee_802_5(100, Bandwidth::from_mbps(mbps)),
            FrameFormat::paper_default(),
            variant,
        )
    }

    #[test]
    fn budgeted_check_charges_set_up_then_gives_the_full_verdict() {
        let a = analyzer(16.0, PdpVariant::Modified);
        let m = set(&[(20.0, 1_000), (40.0, 2_000), (100.0, 5_000), (150.0, 500)]);
        let mut unlimited = Budget::unlimited();
        let full = a.check_within(&m, &mut unlimited).unwrap();
        assert_eq!(full.schedulable, a.is_schedulable(&m));
        assert_eq!(full, a.check_from_rank(&m, 0));
        let cost = u64::MAX - unlimited.left();
        let set_up = 4 * PdpAnalyzer::SETUP_TERMS_PER_STREAM;
        assert!(
            cost > set_up,
            "response-time terms follow the set-up charge"
        );
        assert_eq!(a.check_within(&m, &mut Budget::terms(cost)), Ok(full));
        assert_eq!(
            a.check_within(&m, &mut Budget::terms(cost - 1)),
            Err(Unfinished)
        );
        // A budget below the set-up charge does no work at all.
        let mut tiny = Budget::terms(set_up - 1);
        assert_eq!(a.check_within(&m, &mut tiny), Err(Unfinished));
    }

    #[test]
    fn light_load_schedulable_heavy_load_not() {
        let a = analyzer(4.0, PdpVariant::Standard);
        // ~1 % utilization.
        let light = set(&[(100.0, 4_000), (200.0, 4_000)]);
        assert!(a.is_schedulable(&light));
        // >100 % utilization.
        let heavy = set(&[(10.0, 30_000), (10.0, 30_000)]);
        assert!(!a.is_schedulable(&heavy));
    }

    #[test]
    fn rta_and_point_test_agree() {
        for mbps in [1.0, 4.0, 16.0] {
            for variant in [PdpVariant::Standard, PdpVariant::Modified] {
                let a = analyzer(mbps, variant);
                for scale in [1_u64, 4, 8, 12, 16, 24] {
                    let m = set(&[
                        (20.0, 1_000 * scale),
                        (40.0, 2_000 * scale),
                        (100.0, 5_000 * scale),
                    ]);
                    assert_eq!(
                        a.is_schedulable(&m),
                        a.is_schedulable_by_points(&m),
                        "disagreement at {mbps} Mbps, scale {scale}, {variant:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn modified_dominates_standard() {
        // Any set schedulable under the standard variant must also be
        // schedulable under the modified one (C' only shrinks).
        for scale in 1..30 {
            let m = set(&[
                (20.0, 800 * scale),
                (50.0, 2_000 * scale),
                (120.0, 4_000 * scale),
            ]);
            let std = analyzer(4.0, PdpVariant::Standard).is_schedulable(&m);
            let modv = analyzer(4.0, PdpVariant::Modified).is_schedulable(&m);
            if std {
                assert!(modv, "standard schedulable but modified not, scale {scale}");
            }
        }
    }

    #[test]
    fn analyze_reports_per_stream_details() {
        let a = analyzer(4.0, PdpVariant::Modified);
        let m = set(&[(100.0, 4_000), (20.0, 2_000)]);
        let report = a.analyze(&m);
        assert!(report.schedulable);
        assert_eq!(report.per_stream.len(), 2);
        // Station 1 (20 ms period) gets priority rank 0.
        assert_eq!(report.per_stream[0].stream, StreamId(1));
        assert_eq!(report.per_stream[0].priority_rank, 0);
        assert!(report.per_stream[0].response_time.is_some());
        // Response times are nondecreasing with rank in this simple case.
        let r0 = report.per_stream[0].response_time.unwrap();
        let r1 = report.per_stream[1].response_time.unwrap();
        assert!(r1 >= r0);
        // Display contains the verdict.
        assert!(report.to_string().contains("PASS"));
    }

    #[test]
    fn unschedulable_report_marks_victims() {
        let a = analyzer(1.0, PdpVariant::Standard);
        // High-frequency stream with big messages at 1 Mbps: hopeless.
        let m = set(&[(5.0, 20_000), (50.0, 1_000)]);
        let report = a.analyze(&m);
        assert!(!report.schedulable);
        assert!(report.per_stream.iter().any(|s| !s.schedulable));
        assert!(report.to_string().contains("FAIL"));
        assert!(report.to_string().contains("deadline miss"));
    }

    #[test]
    fn blocking_applies_even_to_highest_priority() {
        // A single stream that exactly fits without blocking must fail once
        // the blocking term is added.
        let a = analyzer(4.0, PdpVariant::Modified);
        let ring = a.ring();
        let bw = ring.bandwidth();
        // Choose a period barely above C' for a one-frame message.
        let m_bits = 512;
        let s = SyncStream::new(Seconds::from_millis(1.0), Bits::new(m_bits));
        let c_prime = augmented_length(&s, ring, a.frame(), PdpVariant::Modified);
        let b = a.blocking();
        // Period between C' and C' + B → unschedulable due to blocking alone.
        let p = c_prime + b / 2.0;
        let m = MessageSet::new(vec![SyncStream::new(p, Bits::new(m_bits))]).unwrap();
        assert!(!a.is_schedulable(&m));
        // Period beyond C' + B → schedulable.
        let p = c_prime + b * 1.01;
        let m = MessageSet::new(vec![SyncStream::new(p, Bits::new(m_bits))]).unwrap();
        assert!(a.is_schedulable(&m));
        let _ = bw;
    }

    #[test]
    fn constrained_deadline_changes_verdict_and_priorities() {
        let a = analyzer(4.0, PdpVariant::Modified);
        // Schedulable with implicit deadlines…
        let relaxed = set(&[(50.0, 20_000), (100.0, 40_000)]);
        assert!(a.is_schedulable(&relaxed));
        // …but squeezing stream 2's deadline below its own service time
        // breaks it.
        let streams: Vec<SyncStream> = relaxed
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 1 {
                    s.with_relative_deadline(Seconds::from_millis(8.0))
                } else {
                    *s
                }
            })
            .collect();
        let tight = MessageSet::new(streams).unwrap();
        assert!(!a.is_schedulable(&tight));
        // The tight-deadline stream is now the highest priority.
        let report = a.analyze(&tight);
        assert_eq!(report.per_stream[0].stream, StreamId(1));
        // Both exact tests agree on the constrained set too.
        assert_eq!(a.is_schedulable(&tight), a.is_schedulable_by_points(&tight));
    }

    #[test]
    fn priority_level_limit_only_hurts() {
        let a = analyzer(4.0, PdpVariant::Modified);
        for scale in (1..25).map(|k| k as u64 * 1_500) {
            let m = set(&[
                (20.0, scale),
                (35.0, scale),
                (60.0, 2 * scale),
                (90.0, 2 * scale),
                (140.0, 3 * scale),
                (180.0, 3 * scale),
            ]);
            let limited = a.with_priority_levels(2).is_schedulable(&m);
            let full = a.is_schedulable(&m);
            if limited {
                assert!(
                    full,
                    "2 levels schedulable but unlimited not, scale {scale}"
                );
            }
        }
        // With as many levels as streams the verdicts coincide.
        let m = set(&[(20.0, 8_000), (40.0, 16_000), (80.0, 24_000)]);
        assert_eq!(
            a.with_priority_levels(3).is_schedulable(&m),
            a.is_schedulable(&m)
        );
        assert_eq!(a.priority_levels(), None);
        assert_eq!(a.with_priority_levels(8).priority_levels(), Some(8));
    }

    #[test]
    fn single_level_is_round_robin_like() {
        // One level: everyone interferes with everyone — much weaker.
        let a = analyzer(4.0, PdpVariant::Modified);
        let m = set(&[(20.0, 14_000), (40.0, 28_000), (80.0, 56_000)]);
        assert!(a.is_schedulable(&m));
        assert!(!a.with_priority_levels(1).is_schedulable(&m));
    }

    #[test]
    fn accessors() {
        let a = analyzer(4.0, PdpVariant::Standard);
        assert_eq!(a.variant(), PdpVariant::Standard);
        assert_eq!(a.ring().stations(), 100);
        assert_eq!(a.frame().payload().as_u64(), 512);
        assert_eq!(a.protocol_name(), "IEEE 802.5");
    }
}
