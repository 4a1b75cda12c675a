//! Scaling a message set to the schedulability boundary.

use ringrt_core::{Boundary, ScalingProbe, SchedulabilityTest};
use ringrt_model::MessageSet;
use ringrt_units::Bandwidth;

/// Binary search for the saturation boundary of a message set under a
/// schedulability test.
///
/// Schedulability is monotone in the common length factor `α` (every
/// criterion's demand side grows with message lengths), so the largest
/// schedulable `α*` is well defined; `α*·M` belongs to the paper's
/// *saturated schedulable class* up to the search tolerance.
///
/// # Examples
///
/// ```
/// use ringrt_core::ttp::TtpAnalyzer;
/// use ringrt_model::{MessageSet, RingConfig, SyncStream};
/// use ringrt_breakdown::SaturationSearch;
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let ring = RingConfig::fddi(2, Bandwidth::from_mbps(100.0));
/// let analyzer = TtpAnalyzer::with_defaults(ring);
/// let set = MessageSet::new(vec![
///     SyncStream::new(Seconds::from_millis(20.0), Bits::new(10_000)),
///     SyncStream::new(Seconds::from_millis(50.0), Bits::new(10_000)),
/// ])?;
/// let sat = SaturationSearch::default()
///     .saturate(&analyzer, &set, ring.bandwidth())
///     .expect("some positive load is schedulable");
/// assert!(sat.utilization > 0.0 && sat.utilization <= 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationSearch {
    /// Relative width of the final `α` bracket; the reported utilization is
    /// accurate to roughly this relative error.
    pub tolerance: f64,
    /// Cap on bracket-expansion and bisection steps.
    pub max_iterations: u32,
}

impl Default for SaturationSearch {
    fn default() -> Self {
        SaturationSearch {
            tolerance: 1e-4,
            max_iterations: 200,
        }
    }
}

impl SaturationSearch {
    /// Creates a search with a custom relative tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < 1`.
    #[must_use]
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must be in (0, 1), got {tolerance}"
        );
        SaturationSearch {
            tolerance,
            ..SaturationSearch::default()
        }
    }

    /// Scales `set` to the schedulability boundary of `test`.
    ///
    /// Returns `None` when no positive scaling is schedulable (for example
    /// a timed-token configuration where some stream has `q_i < 2` at the
    /// negotiated TTRT, or a priority-driven configuration whose blocking
    /// term alone exceeds a period): such sets contribute no saturated
    /// sample and the estimator counts them separately.
    ///
    /// The probes go through [`SchedulabilityTest::scaling_probe`]. The
    /// search brackets the boundary from a start factor, widening the
    /// step each time, and bisects the bracket to the tolerance. It starts
    /// at `α = 1` with steps of 2× (doubling or halving); when the probe
    /// gives the boundary in closed form (Theorem 5.1 under the local
    /// scheme), it starts there with a step of half the tolerance, so two
    /// probes — one each side — usually settle it. The closed form is
    /// exact for real-valued lengths; whole-bit rounding moves the
    /// boundary a little, and the widening steps follow it.
    #[must_use]
    pub fn saturate<T: SchedulabilityTest + ?Sized>(
        &self,
        test: &T,
        set: &MessageSet,
        bandwidth: Bandwidth,
    ) -> Option<SaturatedSet> {
        let mut probe = test.scaling_probe(set);
        let (start, step) = match probe.boundary() {
            Boundary::Infeasible => return None,
            Boundary::At(alpha) => (alpha, 0.5 * self.tolerance),
            Boundary::Search => (1.0, 1.0),
        };
        let scale = self.search(probe.as_mut(), start, step)?;
        let saturated = set.with_scaled_lengths(scale);
        let utilization = saturated.utilization(bandwidth);
        Some(SaturatedSet {
            set: saturated,
            scale,
            utilization,
        })
    }

    /// Brackets the boundary from `start`, moving by a factor `1 + step`
    /// that doubles its excess each time up to 2×, and bisects the
    /// bracket: the largest schedulable factor found, or `None` when none
    /// is.
    fn search(&self, probe: &mut dyn ScalingProbe, start: f64, mut step: f64) -> Option<f64> {
        let mut widen = || {
            let ratio = 1.0 + step;
            step = (2.0 * step).min(1.0);
            ratio
        };
        // Establish a bracket [lo, hi] with schedulable(lo) ∧ ¬schedulable(hi).
        let mut lo;
        let mut hi;
        if probe.schedulable_at(start) {
            lo = start;
            hi = lo * widen();
            let mut steps = 0;
            while probe.schedulable_at(hi) {
                lo = hi;
                hi = lo * widen();
                steps += 1;
                if steps > self.max_iterations {
                    // Pathological: the test accepts unbounded load.
                    return None;
                }
            }
        } else {
            hi = start;
            lo = hi / widen();
            let mut steps = 0;
            while !probe.schedulable_at(lo) {
                hi = lo;
                lo = hi / widen();
                steps += 1;
                if steps > self.max_iterations || lo < 1e-12 {
                    return None;
                }
            }
        }

        // Bisect to the requested relative tolerance.
        let mut steps = 0;
        while (hi - lo) / lo > self.tolerance && steps < self.max_iterations {
            let mid = 0.5 * (lo + hi);
            if probe.schedulable_at(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
            steps += 1;
        }
        Some(lo)
    }
}

/// A message set scaled to the schedulability boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatedSet {
    /// The scaled (saturated) message set.
    pub set: MessageSet,
    /// The boundary scale factor `α*` applied to the original lengths.
    pub scale: f64,
    /// The saturated set's utilization — one breakdown-utilization sample.
    pub utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
    use ringrt_core::ttp::TtpAnalyzer;
    use ringrt_model::{FrameFormat, RingConfig, SyncStream};
    use ringrt_units::{Bits, Seconds};

    fn base_set() -> MessageSet {
        MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(10_000)),
            SyncStream::new(Seconds::from_millis(60.0), Bits::new(30_000)),
            SyncStream::new(Seconds::from_millis(150.0), Bits::new(60_000)),
        ])
        .unwrap()
    }

    #[test]
    fn saturated_set_is_on_the_boundary_ttp() {
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let sat = SaturationSearch::default()
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        use ringrt_core::SchedulabilityTest;
        assert!(a.is_schedulable(&sat.set));
        // Slightly above the boundary must fail.
        let above = sat.set.with_scaled_lengths(1.0 + 10.0 * 1e-4);
        assert!(!a.is_schedulable(&above));
        assert!(sat.utilization > 0.0 && sat.utilization <= 1.0);
    }

    #[test]
    fn saturated_set_is_on_the_boundary_pdp() {
        let ring = RingConfig::ieee_802_5(3, Bandwidth::from_mbps(4.0));
        let a = PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Modified);
        let sat = SaturationSearch::default()
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        use ringrt_core::SchedulabilityTest;
        assert!(a.is_schedulable(&sat.set));
        let above = sat.set.with_scaled_lengths(1.0 + 10.0 * 1e-4);
        assert!(!a.is_schedulable(&above));
    }

    #[test]
    fn starts_from_unschedulable_sets_too() {
        // Grossly overloaded initial set: the search must scale down.
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let heavy = base_set().with_scaled_lengths(1_000.0);
        let sat = SaturationSearch::default()
            .saturate(&a, &heavy, ring.bandwidth())
            .unwrap();
        assert!(sat.scale < 1.0);
        assert!(sat.utilization > 0.0 && sat.utilization <= 1.0);
    }

    #[test]
    fn impossible_configuration_returns_none() {
        // Force q < 2 with a fixed, over-long TTRT: no scaling helps.
        use ringrt_core::ttp::TtrtPolicy;
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring)
            .with_ttrt_policy(TtrtPolicy::Fixed(Seconds::from_millis(500.0)));
        assert!(SaturationSearch::default()
            .saturate(&a, &base_set(), ring.bandwidth())
            .is_none());
    }

    #[test]
    fn tolerance_shrinks_bracket() {
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let coarse = SaturationSearch::with_tolerance(0.05)
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        let fine = SaturationSearch::with_tolerance(1e-6)
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        // Both land near the same boundary; the fine one from below.
        assert!((coarse.scale - fine.scale).abs() / fine.scale < 0.06);
        assert!(fine.scale <= coarse.scale * (1.0 + 0.05));
    }

    /// Counts the probes a search makes through the analyzer's own probe.
    struct Counting<'a> {
        inner: &'a dyn SchedulabilityTest,
        probes: std::cell::Cell<u32>,
    }

    impl SchedulabilityTest for Counting<'_> {
        fn is_schedulable(&self, set: &MessageSet) -> bool {
            self.inner.is_schedulable(set)
        }
        fn protocol_name(&self) -> &'static str {
            self.inner.protocol_name()
        }
        fn scaling_probe<'a>(&'a self, set: &'a MessageSet) -> Box<dyn ScalingProbe + 'a> {
            struct Counted<'a>(Box<dyn ScalingProbe + 'a>, &'a std::cell::Cell<u32>);
            impl ScalingProbe for Counted<'_> {
                fn schedulable_at(&mut self, alpha: f64) -> bool {
                    self.1.set(self.1.get() + 1);
                    self.0.schedulable_at(alpha)
                }
                fn boundary(&self) -> Boundary {
                    self.0.boundary()
                }
            }
            Box::new(Counted(self.inner.scaling_probe(set), &self.probes))
        }
    }

    #[test]
    fn closed_form_settles_in_two_probes() {
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let counting = Counting {
            inner: &a,
            probes: std::cell::Cell::new(0),
        };
        for set in [base_set(), base_set().with_scaled_lengths(1_000.0)] {
            counting.probes.set(0);
            let sat = SaturationSearch::default()
                .saturate(&counting, &set, ring.bandwidth())
                .unwrap();
            assert_eq!(counting.probes.get(), 2, "one probe each side of α*");
            let Boundary::At(alpha) = a.scaling_boundary(&set) else {
                panic!("Theorem 5.1 under the local scheme has a closed form");
            };
            assert!((sat.scale - alpha).abs() <= 1e-4 * alpha);
        }
        // q < 2 needs no probe at all.
        use ringrt_core::ttp::TtrtPolicy;
        let fixed = a.with_ttrt_policy(TtrtPolicy::Fixed(Seconds::from_millis(500.0)));
        let counting = Counting {
            inner: &fixed,
            probes: std::cell::Cell::new(0),
        };
        assert!(SaturationSearch::default()
            .saturate(&counting, &base_set(), ring.bandwidth())
            .is_none());
        assert_eq!(counting.probes.get(), 0);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn bad_tolerance_rejected() {
        let _ = SaturationSearch::with_tolerance(0.0);
    }
}
