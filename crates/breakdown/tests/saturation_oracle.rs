//! Property: the saturation search's cheap probes land where plain
//! bisection does.
//!
//! `SaturationSearch::saturate` asks the analyzer for a scaling probe:
//! Theorem 5.1 under the local scheme answers with the boundary in closed
//! form, and Theorem 4.1 and ideal RM with warm-started response-time
//! probes. The oracle is the same `saturate` over a wrapper that forwards
//! only `is_schedulable`, so it gets the default probe — rescale the set,
//! run the whole test — and bisects exactly as the search always did.
//!
//! On random paper-population sets of 5–100 streams at 1–1000 Mbps, on
//! IEEE 802.5, modified 802.5, FDDI and ideal RM, the new `α*` must be
//! schedulable, the set at `(1 + 20·tol)·α*` must not be, and `α*` must
//! lie within `2·tol` of the oracle's. Run it in release, where the
//! kernels' debug assertions compile out:
//!
//! ```text
//! cargo test --release -p ringrt-breakdown --test saturation_oracle -- --nocapture
//! ```
//!
//! It prints its master seed and, per protocol, how many `α*` are
//! bit-identical to the oracle's; a failure names the case's seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_breakdown::sweep::default_bandwidths_mbps;
use ringrt_breakdown::SaturationSearch;
use ringrt_core::rm::IdealRmAnalyzer;
use ringrt_core::{ProtocolKind, SchedulabilityTest};
use ringrt_model::MessageSet;
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

/// The master seed; case `k` draws from `StdRng::seed_from_u64(SEED + k)`.
const SEED: u64 = 0x5a7_0c1e;

/// Cases per protocol: bounded, and smaller in debug builds, where one
/// 100-stream Theorem 4.1 bisection takes tens of milliseconds.
fn cases() -> u64 {
    if cfg!(debug_assertions) {
        16
    } else {
        160
    }
}

/// A wrapper that overrides only `is_schedulable`, as a counting or
/// timing wrapper does: it gets the default probe, which is bisection.
struct Bisect<'a>(&'a dyn SchedulabilityTest);

impl SchedulabilityTest for Bisect<'_> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        self.0.is_schedulable(set)
    }

    fn protocol_name(&self) -> &'static str {
        self.0.protocol_name()
    }
}

/// The analyzer under test for case `k`: one of the three protocols on
/// its paper ring, or ideal RM.
fn analyzer(k: u64, stations: usize, bw: Bandwidth) -> Box<dyn SchedulabilityTest + Sync> {
    match k % 4 {
        3 => Box::new(IdealRmAnalyzer::new(bw)),
        p => {
            let protocol = ProtocolKind::ALL[p as usize];
            protocol.analyzer(protocol.ring(stations, bw))
        }
    }
}

#[test]
fn probes_agree_with_bisection() {
    let search = SaturationSearch::default();
    let tol = search.tolerance;
    let grid = default_bandwidths_mbps();
    println!(
        "saturation oracle: master seed {SEED:#x}, {} cases",
        4 * cases()
    );
    // Per analyzer: (cases, both None, bit-identical α*).
    let mut tally = [(0u32, 0u32, 0u32); 4];
    for k in 0..4 * cases() {
        let seed = SEED + k;
        let mut rng = StdRng::seed_from_u64(seed);
        let streams = rng.gen_range(5..=100);
        let mbps = grid[rng.gen_range(0..grid.len())];
        let bw = Bandwidth::from_mbps(mbps);
        let set = MessageSetGenerator::paper_population(streams).generate(&mut rng);
        let test = analyzer(k, streams, bw);
        let name = test.protocol_name();
        let case = format!("seed {seed}: {name}, {streams} streams at {mbps} Mbps");

        let fast = search.saturate(test.as_ref(), &set, bw);
        let oracle = search.saturate(&Bisect(test.as_ref()), &set, bw);
        let row = &mut tally[(k % 4) as usize];
        row.0 += 1;
        let (fast, oracle) = match (fast, oracle) {
            (None, None) => {
                row.1 += 1;
                continue;
            }
            (Some(f), Some(o)) => (f.scale, o.scale),
            (f, o) => panic!(
                "{case}: probes {:?} but bisection {:?}",
                f.map(|s| s.scale),
                o.map(|s| s.scale)
            ),
        };
        assert!(
            test.is_schedulable(&set.with_scaled_lengths(fast)),
            "{case}: α* = {fast} is not schedulable"
        );
        let above = fast * (1.0 + 20.0 * tol);
        assert!(
            !test.is_schedulable(&set.with_scaled_lengths(above)),
            "{case}: {above} (20 tolerances above α* = {fast}) is still schedulable"
        );
        let rel = (fast - oracle).abs() / oracle;
        assert!(
            rel <= 2.0 * tol,
            "{case}: α* = {fast} but bisection found {oracle} (relative gap {rel:e})"
        );
        if fast.to_bits() == oracle.to_bits() {
            row.2 += 1;
        }
    }
    for (k, (cases, none, identical)) in tally.iter().enumerate() {
        let name = analyzer(k as u64, 10, Bandwidth::from_mbps(10.0)).protocol_name();
        println!(
            "  {name}: {cases} cases, {none} infeasible on both sides, \
             {identical} of {} α* bit-identical to bisection",
            cases - none
        );
    }
}
