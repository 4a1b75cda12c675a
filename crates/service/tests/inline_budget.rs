//! The event loop answers a cache-missing `CHECK` itself when its analysis
//! fits a work budget, and a worker answers it otherwise. Both go through
//! `engine::execute_check`; this property holds them to the same bytes: a
//! budgeted run either reports `Unfinished` or renders exactly what the
//! worker's unbudgeted `engine::execute` renders.
//!
//! The vendored proptest does not shrink, so every assertion names the
//! case's seed; `case(seed)` replays it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_core::rm::{Budget, Unfinished};
use ringrt_service::engine::{execute, execute_check};
use ringrt_service::{AnalysisRequest, CommandKind, ProtocolKind};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

/// What one case saw: verdicts among finished runs, and how many budgeted
/// runs finished or ran out.
#[derive(Default)]
struct Seen {
    schedulable: usize,
    unschedulable: usize,
    finished: usize,
    unfinished: usize,
}

/// One random set of 1–300 streams, scaled to a log-uniform utilization
/// of 0.01–1 so both verdicts occur, checked on every protocol under an empty, a
/// small, the server's (2 048-term) and a large budget.
fn case(seed: u64, seen: &mut Seen) {
    let mut rng = StdRng::seed_from_u64(seed);
    let streams = rng.gen_range(1..=300);
    let mbps = [1.0, 4.0, 16.0, 100.0][rng.gen_range(0..4)];
    let set = MessageSetGenerator::paper_population(streams).generate(&mut rng);
    let target = 10f64.powf(rng.gen_range(-2.0..0.0));
    let set = set.with_scaled_lengths(target / set.utilization(Bandwidth::from_mbps(mbps)));
    let budgets = [
        0,
        rng.gen_range(1..2_000),
        2_048,
        rng.gen_range(2_048..200_000),
    ];
    for protocol in [
        ProtocolKind::Ieee8025,
        ProtocolKind::Modified,
        ProtocolKind::Fddi,
    ] {
        let req = AnalysisRequest {
            command: CommandKind::Check,
            protocol,
            mbps,
            set: set.clone(),
            stations: None,
            seconds: 0.5,
            async_load: 0.0,
            seed: 1,
            deadline_ms: None,
        };
        let worker = execute(&req);
        if worker.ends_with("schedulable=true") {
            seen.schedulable += 1;
        } else {
            seen.unschedulable += 1;
        }
        for terms in budgets {
            match execute_check(&req, &mut Budget::terms(terms)) {
                Ok(inline) => {
                    seen.finished += 1;
                    assert_eq!(
                        inline, worker,
                        "seed {seed}: {protocol} with {streams} streams at {mbps} Mbps, \
                         budget {terms}"
                    );
                }
                Err(Unfinished) => seen.unfinished += 1,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn budgeted_check_is_unfinished_or_byte_identical(seed in any::<u64>()) {
        case(seed, &mut Seen::default());
    }
}

/// The drawn sets cover what the property needs: both verdicts, and
/// budgets that both finish and run out.
#[test]
fn the_cases_reach_both_verdicts_and_both_outcomes() {
    let mut seen = Seen::default();
    for seed in 0..24 {
        case(seed, &mut seen);
    }
    assert!(seen.schedulable > 0 && seen.unschedulable > 0);
    assert!(seen.finished > 0 && seen.unfinished > 0);
}
