//! Property: parallel ABU estimation is bit-identical to the serial path.
//!
//! The estimator's contract (see `BreakdownEstimator::estimate_parallel`)
//! is that the per-sample SplitMix64 seed stream — not the thread
//! schedule — defines the estimate, so any pool width must reproduce the
//! serial result byte for byte. This is what makes ABU responses
//! cacheable in `ringrt-service` regardless of `RINGRT_THREADS`. Randomize
//! over master seeds, population sizes, and sample counts, and compare the
//! full `BreakdownEstimate` (mean, CI, extremes, infeasible count) across
//! pool widths 1, 2, 4, and 8 — including a pool with one-sample chunks,
//! the most claims the pool's shared counter can interleave.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ringrt_breakdown::{BreakdownEstimator, SaturationSearch};
use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_exec::Pool;
use ringrt_model::{FrameFormat, RingConfig};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

proptest! {
    // Each case runs 4 × (samples) saturation searches; keep the case
    // count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TTP: serial `estimate` == `estimate_parallel` at widths 1, 2, 8.
    #[test]
    fn ttp_parallel_estimate_matches_serial_bit_for_bit(
        seed in any::<u64>(),
        stations in 4usize..16,
        samples in 2usize..8,
        chunk in 1usize..5,
    ) {
        let ring = RingConfig::fddi(stations, Bandwidth::from_mbps(100.0));
        let analyzer = TtpAnalyzer::with_defaults(ring);
        let estimator =
            BreakdownEstimator::new(MessageSetGenerator::paper_population(stations), samples)
                .with_search(SaturationSearch::with_tolerance(1e-3));
        let serial =
            estimator.estimate(&analyzer, ring.bandwidth(), &mut StdRng::seed_from_u64(seed));
        for threads in [1, 2, 4, 8] {
            // The randomized chunk size, then one-sample chunks.
            let pools = [
                Pool::new(threads).with_chunk_size(chunk),
                Pool::new(threads).with_chunk_size(1),
            ];
            for pool in &pools {
                let pooled =
                    estimator.estimate_parallel(&analyzer, ring.bandwidth(), seed, pool);
                prop_assert_eq!(
                    &serial, &pooled,
                    "seed {} stations {} samples {} threads {} chunk {}",
                    seed, stations, samples, threads, chunk
                );
            }
        }
    }

    /// PDP (modified): same bit-identity law on the other protocol family.
    #[test]
    fn pdp_parallel_estimate_matches_serial_bit_for_bit(
        seed in any::<u64>(),
        stations in 4usize..12,
        samples in 2usize..6,
        chunk in 1usize..5,
    ) {
        let ring = RingConfig::ieee_802_5(stations, Bandwidth::from_mbps(16.0));
        let analyzer =
            PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Modified);
        let estimator =
            BreakdownEstimator::new(MessageSetGenerator::paper_population(stations), samples)
                .with_search(SaturationSearch::with_tolerance(1e-3));
        let serial =
            estimator.estimate(&analyzer, ring.bandwidth(), &mut StdRng::seed_from_u64(seed));
        for threads in [1, 2, 4, 8] {
            let pools = [
                Pool::new(threads).with_chunk_size(chunk),
                Pool::new(threads).with_chunk_size(1),
            ];
            for pool in &pools {
                let pooled =
                    estimator.estimate_parallel(&analyzer, ring.bandwidth(), seed, pool);
                prop_assert_eq!(
                    &serial, &pooled,
                    "seed {} stations {} samples {} threads {} chunk {}",
                    seed, stations, samples, threads, chunk
                );
            }
        }
    }
}
