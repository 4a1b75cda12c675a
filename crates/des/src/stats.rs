//! Measurement utilities for simulations.

use core::fmt;

use ringrt_units::{SimDuration, SimTime};

/// A plain event counter.
///
/// # Examples
///
/// ```
/// use ringrt_des::stats::Counter;
///
/// let mut misses = Counter::new("deadline misses");
/// misses.incr();
/// misses.add(2);
/// assert_eq!(misses.value(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: &'static str,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Counter { name, value: 0 }
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The counter's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

/// Accumulates total busy time of a binary resource (e.g. "the medium is
/// transmitting"), yielding utilization over any observation window.
///
/// # Examples
///
/// ```
/// use ringrt_des::stats::BusyTime;
/// use ringrt_units::{SimDuration, SimTime};
///
/// let mut medium = BusyTime::new();
/// medium.set_busy(SimTime::from_picos(0));
/// medium.set_idle(SimTime::from_picos(600));
/// let u = medium.utilization(SimTime::from_picos(1_000));
/// assert!((u - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusyTime {
    accumulated: SimDuration,
    busy_since: Option<SimTime>,
}

impl BusyTime {
    /// Creates an idle accumulator.
    #[must_use]
    pub fn new() -> Self {
        BusyTime::default()
    }

    /// Marks the resource busy from `t` (no-op if already busy).
    pub fn set_busy(&mut self, t: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(t);
        }
    }

    /// Marks the resource idle at `t`, accumulating the elapsed busy span.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the instant the resource became busy.
    pub fn set_idle(&mut self, t: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.accumulated += t.duration_since(since);
        }
    }

    /// Total busy time up to `now` (counting an open busy interval).
    #[must_use]
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.accumulated + now.saturating_duration_since(since),
            None => self.accumulated,
        }
    }

    /// Busy fraction of `[0, now]`.
    #[must_use]
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.busy_time(now).as_seconds() / now.as_seconds()
        }
    }
}

/// A tally of duration samples: count, mean, extremes.
///
/// Used for response times and token rotation times, where the simulator
/// needs means and worst cases but not full histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurationTally {
    count: u64,
    total: SimDuration,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
}

impl DurationTally {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        DurationTally::default()
    }

    /// Records one sample.
    pub fn push(&mut self, d: SimDuration) {
        self.count += 1;
        self.total += d;
        self.min = Some(match self.min {
            Some(m) => m.min(d),
            None => d,
        });
        self.max = Some(match self.max {
            Some(m) => m.max(d),
            None => d,
        });
    }

    /// Records `k` samples equal to `d` in O(1): the same tally as `k`
    /// calls of [`DurationTally::push`].
    pub fn push_n(&mut self, d: SimDuration, k: u64) {
        if k == 0 {
            return;
        }
        self.count += k;
        self.total += d * k;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<SimDuration> {
        self.total
            .as_picos()
            .checked_div(self.count)
            .map(SimDuration::from_picos)
    }

    /// Smallest sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<SimDuration> {
        self.max
    }
}

impl fmt::Display for DurationTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mean(), self.min, self.max) {
            (Some(mean), Some(min), Some(max)) => write!(
                f,
                "n = {}, mean = {mean}, min = {min}, max = {max}",
                self.count
            ),
            _ => write!(f, "n = 0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new("x");
        assert_eq!(c.value(), 0);
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(c.name(), "x");
        assert_eq!(c.to_string(), "x = 5");
    }

    #[test]
    fn busy_time_accumulates_disjoint_intervals() {
        let mut b = BusyTime::new();
        b.set_busy(SimTime::from_picos(100));
        b.set_idle(SimTime::from_picos(200));
        b.set_busy(SimTime::from_picos(300));
        b.set_idle(SimTime::from_picos(450));
        assert_eq!(
            b.busy_time(SimTime::from_picos(500)),
            SimDuration::from_picos(250)
        );
        assert!((b.utilization(SimTime::from_picos(500)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn busy_time_open_interval_counts() {
        let mut b = BusyTime::new();
        b.set_busy(SimTime::from_picos(100));
        assert_eq!(
            b.busy_time(SimTime::from_picos(150)),
            SimDuration::from_picos(50)
        );
    }

    #[test]
    fn busy_idempotent_transitions() {
        let mut b = BusyTime::new();
        b.set_busy(SimTime::from_picos(10));
        b.set_busy(SimTime::from_picos(20)); // ignored: already busy
        b.set_idle(SimTime::from_picos(30));
        b.set_idle(SimTime::from_picos(40)); // ignored: already idle
        assert_eq!(
            b.busy_time(SimTime::from_picos(40)),
            SimDuration::from_picos(20)
        );
    }

    #[test]
    fn utilization_at_time_zero_is_zero() {
        assert_eq!(BusyTime::new().utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn tally_moments() {
        let mut t = DurationTally::new();
        assert!(t.mean().is_none());
        for ps in [10, 20, 30] {
            t.push(SimDuration::from_picos(ps));
        }
        assert_eq!(t.count(), 3);
        assert_eq!(t.mean(), Some(SimDuration::from_picos(20)));
        assert_eq!(t.min(), Some(SimDuration::from_picos(10)));
        assert_eq!(t.max(), Some(SimDuration::from_picos(30)));
        assert!(t.to_string().contains("n = 3"));
        assert_eq!(DurationTally::new().to_string(), "n = 0");
    }

    #[test]
    fn push_n_equals_repeated_pushes() {
        let mut bulk = DurationTally::new();
        let mut each = DurationTally::new();
        for (ps, k) in [(40, 3), (10, 0), (25, 1), (70, 5)] {
            bulk.push_n(SimDuration::from_picos(ps), k);
            for _ in 0..k {
                each.push(SimDuration::from_picos(ps));
            }
            assert_eq!(bulk, each);
        }
        assert_eq!(bulk.count(), 9);
    }
}

/// A log-scaled latency histogram over simulator durations.
///
/// Buckets are powers of two in picoseconds (bucket `k` covers
/// `[2^k, 2^(k+1))` ps), trading resolution for O(1) memory across the
/// twelve decades a `SimDuration` can span. Good enough for p95/p99
/// reporting on response times, where half-octave accuracy is ample.
///
/// # Examples
///
/// ```
/// use ringrt_des::stats::DurationHistogram;
/// use ringrt_units::SimDuration;
///
/// let mut h = DurationHistogram::new();
/// for us in 1..=100u64 {
///     h.push(SimDuration::from_micros(us));
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// // True median is 50 µs; the histogram answers within its bucket.
/// assert!(p50.as_picos() >= 32_000_000 && p50.as_picos() <= 128_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationHistogram {
    /// counts[k] = samples with floor(log2(ps)) == k; counts[0] also holds
    /// zero-duration samples.
    counts: Vec<u64>,
    total: u64,
}

impl DurationHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        DurationHistogram {
            counts: vec![0; 64],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn push(&mut self, d: SimDuration) {
        let ps = d.as_picos();
        let bucket = if ps == 0 {
            0
        } else {
            63 - ps.leading_zeros() as usize
        };
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// An upper bound on the `q`-quantile (0 < q ≤ 1): the top edge of the
    /// bucket containing it. `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q <= 1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if k >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                };
                return Some(SimDuration::from_picos(upper));
            }
        }
        None
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Per-bucket sample counts; `bucket_counts()[k]` is the number of
    /// samples whose duration fell in `[2^k, 2^(k+1))` picoseconds
    /// (bucket 0 also holds zero-duration samples).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Inclusive upper edge of bucket `k` in picoseconds — the same edge
    /// [`quantile`](Self::quantile) reports, so exporters (e.g. Prometheus
    /// `le` labels) agree bit-for-bit with quantile output.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    #[must_use]
    pub fn bucket_upper_bound_picos(k: usize) -> u64 {
        assert!(k < 64, "bucket index {k} out of range");
        if k >= 63 {
            u64::MAX
        } else {
            (1u64 << (k + 1)) - 1
        }
    }

    /// Resets the histogram to empty without reallocating.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram::new()
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = DurationHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn single_sample_quantiles() {
        let mut h = DurationHistogram::new();
        h.push(SimDuration::from_picos(1000)); // bucket 9: [512, 1024)
        for q in [0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap().as_picos();
            assert!((1000..2048).contains(&v), "q={q}: {v}");
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = DurationHistogram::new();
        for i in 1..=1000u64 {
            h.push(SimDuration::from_picos(i * i));
        }
        let mut prev = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap().as_picos();
            assert!(v >= prev, "quantile regressed at q={q}");
            prev = v;
        }
    }

    #[test]
    fn tail_quantile_bounds_max() {
        let mut h = DurationHistogram::new();
        for us in [1u64, 10, 100, 1000] {
            h.push(SimDuration::from_micros(us));
        }
        // p100 upper bound is at least the max sample.
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= SimDuration::from_micros(1000));
        // p25 is within a bucket of the smallest sample.
        let p25 = h.quantile(0.25).unwrap();
        assert!(p25 < SimDuration::from_micros(2));
    }

    #[test]
    fn zero_duration_goes_to_bucket_zero() {
        let mut h = DurationHistogram::new();
        h.push(SimDuration::ZERO);
        assert_eq!(h.quantile(1.0).unwrap().as_picos(), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DurationHistogram::new();
        let mut b = DurationHistogram::new();
        a.push(SimDuration::from_picos(10));
        b.push(SimDuration::from_picos(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0).unwrap() >= SimDuration::from_picos(1_000_000));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn zero_q_rejected() {
        let _ = DurationHistogram::new().quantile(0.0);
    }

    #[test]
    fn bucket_edges_match_quantile_edges() {
        let mut h = DurationHistogram::new();
        h.push(SimDuration::from_picos(1000)); // bucket 9
        let k = h
            .bucket_counts()
            .iter()
            .position(|&c| c > 0)
            .expect("one bucket populated");
        assert_eq!(k, 9);
        assert_eq!(
            DurationHistogram::bucket_upper_bound_picos(k),
            h.quantile(1.0).unwrap().as_picos()
        );
        assert_eq!(DurationHistogram::bucket_upper_bound_picos(63), u64::MAX);
    }

    #[test]
    fn clear_resets_counts() {
        let mut h = DurationHistogram::new();
        h.push(SimDuration::from_micros(3));
        h.clear();
        assert_eq!(h.count(), 0);
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
        assert_eq!(h, DurationHistogram::new());
    }
}
