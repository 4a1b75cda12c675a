//! Synchronous message streams and message sets (paper §3.2).

use core::fmt;

use ringrt_units::{Bandwidth, Bits, Seconds};

use crate::ModelError;

/// Identifier of a synchronous stream, which is also the index of the ring
/// station that sources it (the paper assumes exactly one stream per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub usize);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0 + 1)
    }
}

/// One periodic synchronous message stream `S_i` (paper §3.2).
///
/// Messages arrive every `period` seconds; each message carries
/// `length_bits` payload bits and must finish transmission by its relative
/// deadline — the end of the period in the paper's model (the default), or
/// an explicit earlier deadline set with [`SyncStream::with_relative_deadline`]
/// (the constrained-deadline extension, `D_i ≤ P_i`).
///
/// # Examples
///
/// ```
/// use ringrt_model::SyncStream;
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let s = SyncStream::new(Seconds::from_millis(100.0), Bits::new(51_200));
/// // C_i = C_i^b / BW (paper eq. 2)
/// let c = s.transmission_time(Bandwidth::from_mbps(10.0));
/// assert!((c.as_millis() - 5.12).abs() < 1e-9);
/// assert!((s.utilization(Bandwidth::from_mbps(10.0)) - 0.0512).abs() < 1e-9);
/// // Paper model: deadline = period.
/// assert_eq!(s.relative_deadline(), s.period());
/// // Constrained-deadline extension:
/// let tight = s.with_relative_deadline(Seconds::from_millis(40.0));
/// assert_eq!(tight.relative_deadline(), Seconds::from_millis(40.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncStream {
    period: Seconds,
    length_bits: Bits,
    /// Explicit relative deadline; `None` means "end of period".
    deadline: Option<Seconds>,
}

impl SyncStream {
    /// Creates a stream with the given period `P_i` and payload length
    /// `C_i^b` in bits.
    ///
    /// # Panics
    ///
    /// Panics if the period is not finite and strictly positive, or the
    /// length is zero. Use [`SyncStream::try_new`] for fallible
    /// construction.
    #[must_use]
    pub fn new(period: Seconds, length_bits: Bits) -> Self {
        Self::try_new(period, length_bits).expect("invalid synchronous stream")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPeriod`] for a non-positive or
    /// non-finite period and [`ModelError::EmptyMessage`] for a zero-length
    /// message (index 0 is reported; set-level validation rewrites it).
    pub fn try_new(period: Seconds, length_bits: Bits) -> Result<Self, ModelError> {
        if !(period.is_finite() && period > Seconds::ZERO) {
            return Err(ModelError::InvalidPeriod {
                index: 0,
                period_secs: period.as_secs_f64(),
            });
        }
        if length_bits.is_zero() {
            return Err(ModelError::EmptyMessage { index: 0 });
        }
        Ok(SyncStream {
            period,
            length_bits,
            deadline: None,
        })
    }

    /// Returns a copy with an explicit relative deadline `D_i`
    /// (constrained-deadline extension).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < deadline ≤ period`. Use
    /// [`SyncStream::try_with_relative_deadline`] for fallible
    /// construction.
    #[must_use]
    pub fn with_relative_deadline(&self, deadline: Seconds) -> SyncStream {
        self.try_with_relative_deadline(deadline)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SyncStream::with_relative_deadline`].
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidDeadline`] unless `0 < deadline ≤ period`.
    pub fn try_with_relative_deadline(&self, deadline: Seconds) -> Result<SyncStream, ModelError> {
        if !(deadline > Seconds::ZERO && deadline <= self.period) {
            return Err(ModelError::InvalidDeadline {
                deadline_secs: deadline.as_secs_f64(),
                period_secs: self.period.as_secs_f64(),
            });
        }
        Ok(SyncStream {
            deadline: Some(deadline),
            ..*self
        })
    }

    /// The relative deadline `D_i`: the explicit one if set, otherwise the
    /// period (the paper's model).
    #[must_use]
    pub fn relative_deadline(&self) -> Seconds {
        self.deadline.unwrap_or(self.period)
    }

    /// The period (and relative deadline) `P_i`.
    #[must_use]
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// The payload length `C_i^b` in bits.
    #[must_use]
    pub fn length_bits(&self) -> Bits {
        self.length_bits
    }

    /// The raw transmission time `C_i = C_i^b / BW` (paper eq. 2), with no
    /// protocol overheads.
    #[must_use]
    pub fn transmission_time(&self, bandwidth: Bandwidth) -> Seconds {
        bandwidth.transmission_time(self.length_bits)
    }

    /// The stream's utilization `C_i / P_i` at a given bandwidth.
    #[must_use]
    pub fn utilization(&self, bandwidth: Bandwidth) -> f64 {
        self.transmission_time(bandwidth) / self.period
    }

    /// Whether this stream uses the paper's implicit deadline (= period).
    #[must_use]
    pub fn has_implicit_deadline(&self) -> bool {
        self.deadline.is_none()
    }

    /// Returns a copy with the payload length multiplied by `factor` and
    /// rounded to the nearest bit (minimum one bit).
    ///
    /// Used by the breakdown-utilization search, which scales all message
    /// lengths by a common factor to find the saturation boundary.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn with_scaled_length(&self, factor: f64) -> SyncStream {
        SyncStream {
            length_bits: self.scaled_length(factor),
            ..*self
        }
    }

    /// The payload length [`SyncStream::with_scaled_length`] gives: times
    /// `factor`, rounded to the nearest bit, at least one bit.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scaled_length(&self, factor: f64) -> Bits {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        let scaled = (self.length_bits.as_f64() * factor).round().max(1.0);
        Bits::new(scaled as u64)
    }

    /// Returns a copy with a different payload length.
    #[must_use]
    pub fn with_length(&self, length_bits: Bits) -> SyncStream {
        SyncStream {
            length_bits,
            ..*self
        }
    }
}

impl fmt::Display for SyncStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(P = {}, C = {})", self.period, self.length_bits)
    }
}

/// A synchronous message set `M = {S_1, …, S_n}` (paper eq. 1).
///
/// Stream `i` is sourced by ring station `i`; the set preserves the
/// station order it was built with. Use [`MessageSet::rm_order`] to obtain
/// the rate-monotonic priority permutation without disturbing station
/// placement.
///
/// # Examples
///
/// ```
/// use ringrt_model::{MessageSet, SyncStream};
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let set = MessageSet::new(vec![
///     SyncStream::new(Seconds::from_millis(80.0), Bits::new(1_000)),
///     SyncStream::new(Seconds::from_millis(20.0), Bits::new(2_000)),
/// ])?;
/// assert_eq!(set.len(), 2);
/// // Shorter period first under RM:
/// assert_eq!(set.rm_order(), vec![1, 0]);
/// # Ok::<(), ringrt_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MessageSet {
    streams: Vec<SyncStream>,
}

impl MessageSet {
    /// Builds a message set from streams in station order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptySet`] for an empty vector; period/length
    /// violations are reported with the offending stream index.
    pub fn new(streams: Vec<SyncStream>) -> Result<Self, ModelError> {
        if streams.is_empty() {
            return Err(ModelError::EmptySet);
        }
        for (index, s) in streams.iter().enumerate() {
            if !(s.period.is_finite() && s.period > Seconds::ZERO) {
                return Err(ModelError::InvalidPeriod {
                    index,
                    period_secs: s.period.as_secs_f64(),
                });
            }
            if s.length_bits.is_zero() {
                return Err(ModelError::EmptyMessage { index });
            }
        }
        Ok(MessageSet { streams })
    }

    /// Number of streams (= number of sourcing stations), `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Always `false`: construction rejects empty sets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The stream sourced by station `id`.
    #[must_use]
    pub fn stream(&self, id: StreamId) -> &SyncStream {
        &self.streams[id.0]
    }

    /// Iterates over streams in station order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &SyncStream> + '_ {
        self.streams.iter()
    }

    /// The streams as a slice, in station order.
    #[must_use]
    pub fn as_slice(&self) -> &[SyncStream] {
        &self.streams
    }

    /// Total utilization `U(M) = Σ C_i / P_i` (paper eq. 3).
    #[must_use]
    pub fn utilization(&self, bandwidth: Bandwidth) -> f64 {
        self.streams.iter().map(|s| s.utilization(bandwidth)).sum()
    }

    /// The shortest period `P_min` in the set.
    #[must_use]
    pub fn min_period(&self) -> Seconds {
        self.streams
            .iter()
            .map(SyncStream::period)
            .fold(Seconds::new(f64::INFINITY), Seconds::min)
    }

    /// The longest period `P_max` in the set.
    #[must_use]
    pub fn max_period(&self) -> Seconds {
        self.streams
            .iter()
            .map(SyncStream::period)
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Station indices sorted into rate-monotonic priority order (shortest
    /// period first; ties broken by station index for determinism).
    #[must_use]
    pub fn rm_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.streams.len()).collect();
        order.sort_by(|&a, &b| {
            self.streams[a]
                .period
                .total_cmp(&self.streams[b].period)
                .then(a.cmp(&b))
        });
        order
    }

    /// Station indices sorted into deadline-monotonic priority order
    /// (shortest relative deadline first; ties by period, then station
    /// index). Coincides with [`MessageSet::rm_order`] when every stream
    /// uses the paper's implicit deadline, and is the optimal static
    /// priority order for the constrained-deadline extension.
    #[must_use]
    pub fn dm_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.streams.len()).collect();
        order.sort_by(|&a, &b| {
            self.streams[a]
                .relative_deadline()
                .total_cmp(&self.streams[b].relative_deadline())
                .then(self.streams[a].period.total_cmp(&self.streams[b].period))
                .then(a.cmp(&b))
        });
        order
    }

    /// The shortest relative deadline `D_min` in the set.
    #[must_use]
    pub fn min_deadline(&self) -> Seconds {
        self.streams
            .iter()
            .map(SyncStream::relative_deadline)
            .fold(Seconds::new(f64::INFINITY), Seconds::min)
    }

    /// Returns a copy with every message length multiplied by `factor`
    /// (rounded to the nearest bit, minimum one bit per message).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn with_scaled_lengths(&self, factor: f64) -> MessageSet {
        MessageSet {
            streams: self
                .streams
                .iter()
                .map(|s| s.with_scaled_length(factor))
                .collect(),
        }
    }

    /// Returns a copy with stream `id`'s length replaced.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `length_bits` is zero.
    #[must_use]
    pub fn with_stream_length(&self, id: StreamId, length_bits: Bits) -> MessageSet {
        assert!(!length_bits.is_zero(), "message length must be non-zero");
        let mut streams = self.streams.clone();
        streams[id.0] = streams[id.0].with_length(length_bits);
        MessageSet { streams }
    }
}

impl<'a> IntoIterator for &'a MessageSet {
    type Item = &'a SyncStream;
    type IntoIter = std::slice::Iter<'a, SyncStream>;
    fn into_iter(self) -> Self::IntoIter {
        self.streams.iter()
    }
}

impl fmt::Display for MessageSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.streams.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", StreamId(i), s)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(period_ms: f64, bits: u64) -> SyncStream {
        SyncStream::new(Seconds::from_millis(period_ms), Bits::new(bits))
    }

    #[test]
    fn stream_utilization_eq3() {
        let s = ms(100.0, 1_000_000);
        let bw = Bandwidth::from_mbps(100.0);
        // C = 1e6 bits / 1e8 bps = 10 ms; U = 10/100 = 0.1.
        assert!((s.utilization(bw) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn set_utilization_sums() {
        let set = MessageSet::new(vec![ms(100.0, 1_000_000), ms(50.0, 500_000)]).unwrap();
        let bw = Bandwidth::from_mbps(100.0);
        assert!((set.utilization(bw) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(MessageSet::new(vec![]), Err(ModelError::EmptySet)));
        assert!(matches!(
            SyncStream::try_new(Seconds::ZERO, Bits::new(1)),
            Err(ModelError::InvalidPeriod { .. })
        ));
        assert!(matches!(
            SyncStream::try_new(Seconds::from_millis(1.0), Bits::ZERO),
            Err(ModelError::EmptyMessage { .. })
        ));
        // Set-level validation reports the right index.
        let bad = vec![
            ms(10.0, 100),
            SyncStream {
                period: Seconds::from_millis(5.0),
                length_bits: Bits::ZERO,
                deadline: None,
            },
        ];
        match MessageSet::new(bad) {
            Err(ModelError::EmptyMessage { index }) => assert_eq!(index, 1),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rm_order_sorts_by_period_with_stable_ties() {
        let set =
            MessageSet::new(vec![ms(30.0, 1), ms(10.0, 1), ms(30.0, 1), ms(20.0, 1)]).unwrap();
        assert_eq!(set.rm_order(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn min_max_period() {
        let set = MessageSet::new(vec![ms(30.0, 1), ms(10.0, 1), ms(20.0, 1)]).unwrap();
        assert_eq!(set.min_period(), Seconds::from_millis(10.0));
        assert_eq!(set.max_period(), Seconds::from_millis(30.0));
    }

    #[test]
    fn scaling_rounds_and_clamps() {
        let set = MessageSet::new(vec![ms(10.0, 100), ms(10.0, 3)]).unwrap();
        let scaled = set.with_scaled_lengths(0.5);
        assert_eq!(scaled.stream(StreamId(0)).length_bits(), Bits::new(50));
        // 3 * 0.5 = 1.5 → rounds to 2.
        assert_eq!(scaled.stream(StreamId(1)).length_bits(), Bits::new(2));
        // Scaling by ~zero clamps at one bit.
        let tiny = set.with_scaled_lengths(1e-9);
        assert_eq!(tiny.stream(StreamId(0)).length_bits(), Bits::new(1));
        // Periods untouched.
        assert_eq!(
            scaled.stream(StreamId(0)).period(),
            Seconds::from_millis(10.0)
        );
    }

    #[test]
    fn with_stream_length_replaces_one() {
        let set = MessageSet::new(vec![ms(10.0, 100), ms(20.0, 200)]).unwrap();
        let new = set.with_stream_length(StreamId(1), Bits::new(250));
        assert_eq!(new.stream(StreamId(0)).length_bits(), Bits::new(100));
        assert_eq!(new.stream(StreamId(1)).length_bits(), Bits::new(250));
    }

    #[test]
    fn deadlines_default_to_period() {
        let s = ms(50.0, 100);
        assert!(s.has_implicit_deadline());
        assert_eq!(s.relative_deadline(), Seconds::from_millis(50.0));
        let tight = s.with_relative_deadline(Seconds::from_millis(20.0));
        assert!(!tight.has_implicit_deadline());
        assert_eq!(tight.relative_deadline(), Seconds::from_millis(20.0));
        assert_eq!(tight.period(), Seconds::from_millis(50.0));
        // Deadline survives scaling and length changes.
        assert_eq!(
            tight.with_scaled_length(2.0).relative_deadline(),
            Seconds::from_millis(20.0)
        );
        assert_eq!(
            tight.with_length(Bits::new(7)).relative_deadline(),
            Seconds::from_millis(20.0)
        );
    }

    #[test]
    #[should_panic(expected = "0 < D ≤ P")]
    fn deadline_beyond_period_rejected() {
        let _ = ms(50.0, 100).with_relative_deadline(Seconds::from_millis(60.0));
    }

    #[test]
    fn fallible_deadline_refuses_outside_zero_to_period() {
        let s = ms(50.0, 100);
        assert_eq!(
            s.try_with_relative_deadline(Seconds::from_millis(50.0)),
            Ok(s.with_relative_deadline(Seconds::from_millis(50.0)))
        );
        // A positive deadline in ms that is zero in seconds is refused
        // too: the rule is checked on the value the stream stores.
        for d_ms in [60.0, f64::INFINITY, 0.0, -5.0, 5e-324] {
            let err = s
                .try_with_relative_deadline(Seconds::from_millis(d_ms))
                .unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidDeadline { .. }),
                "{d_ms}: {err}"
            );
            assert!(err.to_string().contains("0 < D ≤ P"), "{err}");
        }
    }

    #[test]
    fn dm_order_uses_deadlines() {
        let streams = vec![
            ms(30.0, 1),                                                    // D = 30
            ms(50.0, 1).with_relative_deadline(Seconds::from_millis(10.0)), // D = 10
            ms(20.0, 1),                                                    // D = 20
        ];
        let set = MessageSet::new(streams).unwrap();
        assert_eq!(set.dm_order(), vec![1, 2, 0]);
        assert_eq!(set.rm_order(), vec![2, 0, 1]);
        assert_eq!(set.min_deadline(), Seconds::from_millis(10.0));
    }

    #[test]
    fn dm_order_matches_rm_order_for_implicit_deadlines() {
        let set = MessageSet::new(vec![ms(30.0, 1), ms(10.0, 1), ms(20.0, 1)]).unwrap();
        assert_eq!(set.dm_order(), set.rm_order());
        assert_eq!(set.min_deadline(), set.min_period());
    }

    #[test]
    fn display_and_iteration() {
        let set = MessageSet::new(vec![ms(10.0, 100)]).unwrap();
        assert!(set.to_string().contains("S1"));
        assert_eq!(set.iter().count(), 1);
        assert_eq!((&set).into_iter().count(), 1);
        assert_eq!(set.as_slice().len(), 1);
        assert!(!set.is_empty());
    }
}
