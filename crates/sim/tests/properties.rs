//! Property tests of the frame-level simulators: conservation laws,
//! determinism, and protocol invariants over random message sets.

use proptest::prelude::*;

use ringrt_core::pdp::PdpVariant;
use ringrt_core::ProtocolKind;
use ringrt_model::{FrameFormat, MessageSet, RingConfig, SyncStream};
use ringrt_sim::{PdpSimulator, Phasing, SimConfig, TtpSimulator};
use ringrt_units::{Bandwidth, Bits, Seconds};

/// A small random message set with bounded utilization so simulations stay
/// fast.
fn arb_set() -> impl Strategy<Value = MessageSet> {
    prop::collection::vec((10.0f64..200.0, 1_000u64..100_000), 1..5).prop_map(|specs| {
        MessageSet::new(
            specs
                .into_iter()
                .map(|(p_ms, bits)| SyncStream::new(Seconds::from_millis(p_ms), Bits::new(bits)))
                .collect(),
        )
        .expect("valid")
    })
}

/// A set that overloads a 4 Mbps ring: 1–4 streams of 5–50 ms periods
/// carrying 50 000–2 000 000 bits, 0.25–100 times its bandwidth each.
fn arb_overloaded_set() -> impl Strategy<Value = MessageSet> {
    prop::collection::vec((5.0f64..50.0, 50_000u64..2_000_000), 1..5).prop_map(|specs| {
        MessageSet::new(
            specs
                .into_iter()
                .map(|(p_ms, bits)| SyncStream::new(Seconds::from_millis(p_ms), Bits::new(bits)))
                .collect(),
        )
        .expect("valid")
    })
}

/// Expected message arrivals within `horizon` for synchronized phasing.
fn expected_arrivals(set: &MessageSet, horizon: Seconds) -> u64 {
    set.iter()
        .map(|s| (horizon / s.period()).ceil() as u64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: completions never exceed arrivals; medium utilization
    /// stays in [0, 1]; rotations are positive.
    #[test]
    fn pdp_conservation_laws(set in arb_set(), load in 0.0f64..0.4, modified in any::<bool>()) {
        let variant = if modified { PdpVariant::Modified } else { PdpVariant::Standard };
        let horizon = Seconds::new(0.3);
        let ring = RingConfig::ieee_802_5(set.len(), Bandwidth::from_mbps(16.0));
        let config = SimConfig::new(ring, horizon)
            .with_phasing(Phasing::Synchronized)
            .with_async_load(load);
        let report = PdpSimulator::new(&set, config, FrameFormat::paper_default(), variant).run();
        prop_assert!(report.completed() <= expected_arrivals(&set, horizon));
        prop_assert!(report.medium_utilization >= 0.0 && report.medium_utilization <= 1.0 + 1e-9);
        if let Some(min_rot) = report.rotations.min() {
            prop_assert!(min_rot.as_picos() > 0);
        }
        // Per-stream accounting is self-consistent.
        for s in &report.per_stream {
            prop_assert!(s.response.count() == s.completed);
            prop_assert_eq!(s.response_histogram.count(), s.completed);
        }
    }

    /// Same conservation laws for the timed token simulator.
    #[test]
    fn ttp_conservation_laws(set in arb_set(), load in 0.0f64..0.4) {
        let horizon = Seconds::new(0.3);
        let ring = RingConfig::fddi(set.len(), Bandwidth::from_mbps(100.0));
        let config = SimConfig::new(ring, horizon)
            .with_phasing(Phasing::Synchronized)
            .with_async_load(load);
        prop_assume!(TtpSimulator::from_analysis(&set, config).is_ok());
        let report = TtpSimulator::from_analysis(&set, config).unwrap().run();
        prop_assert!(report.completed() <= expected_arrivals(&set, horizon));
        prop_assert!(report.medium_utilization >= 0.0 && report.medium_utilization <= 1.0 + 1e-9);
    }

    /// Bit-for-bit determinism: identical configs give identical reports.
    #[test]
    fn runs_are_deterministic(set in arb_set(), seed in any::<u64>()) {
        let ring = RingConfig::fddi(set.len(), Bandwidth::from_mbps(100.0));
        let config = SimConfig::new(ring, Seconds::new(0.2))
            .with_async_load(0.2)
            .with_seed(seed);
        prop_assume!(TtpSimulator::from_analysis(&set, config).is_ok());
        let a = TtpSimulator::from_analysis(&set, config).unwrap().run();
        let b = TtpSimulator::from_analysis(&set, config).unwrap().run();
        prop_assert_eq!(a.completed(), b.completed());
        prop_assert_eq!(a.deadline_misses(), b.deadline_misses());
        prop_assert_eq!(a.async_frames_sent, b.async_frames_sent);
        prop_assert_eq!(a.events, b.events);
    }

    /// Longer horizons only add work: completions grow, utilization stays
    /// comparable.
    #[test]
    fn longer_runs_complete_more(set in arb_set()) {
        let ring = RingConfig::fddi(set.len(), Bandwidth::from_mbps(100.0));
        let short = SimConfig::new(ring, Seconds::new(0.2));
        let long = SimConfig::new(ring, Seconds::new(0.6));
        prop_assume!(TtpSimulator::from_analysis(&set, short).is_ok());
        let a = TtpSimulator::from_analysis(&set, short).unwrap().run();
        let b = TtpSimulator::from_analysis(&set, long).unwrap().run();
        prop_assert!(b.completed() >= a.completed());
        prop_assert!(b.events >= a.events);
    }

    /// Medium utilization stays at most one when the offered load is far
    /// above the ring's bandwidth, so the medium is busy at the horizon and
    /// the last frame or token visit runs past it.
    #[test]
    fn overload_never_reads_above_full_utilization(
        set in arb_overloaded_set(),
        protocol in 0usize..3,
        tenths in 1u32..4,
    ) {
        let kind = ProtocolKind::ALL[protocol];
        let ring = kind.ring(set.len(), Bandwidth::from_mbps(4.0));
        let config = SimConfig::new(ring, Seconds::new(f64::from(tenths) / 10.0));
        if let Ok(report) = ringrt_sim::simulate(kind, &set, config) {
            prop_assert!(
                (0.0..=1.0).contains(&report.medium_utilization),
                "{kind}: {report}"
            );
        }
    }
}
