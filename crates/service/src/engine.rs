//! Request execution: maps a parsed [`AnalysisRequest`] onto the analysis
//! kernels and renders the response body.
//!
//! Kept free of any server state so the verdict logic is unit-testable and
//! provably identical to calling the analyzers directly — the service
//! integration tests rely on that equivalence.

use std::fmt::Write as _;

use ringrt_breakdown::{BreakdownEstimator, SaturationSearch};
use ringrt_core::pdp::PdpAnalyzer;
use ringrt_core::rm::{Budget, Unfinished};
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_exec::Pool;
use ringrt_model::FrameFormat;
use ringrt_sim::{Phasing, SimConfig};
use ringrt_units::{Bandwidth, Seconds};
use ringrt_workload::MessageSetGenerator;

use crate::protocol::{AbuRequest, AnalysisRequest, CommandKind};

/// The reply prefix every analysis command shares.
fn header(req: &AnalysisRequest, bw: Bandwidth, stations: usize) -> String {
    format!(
        "OK cmd={} protocol={} mbps={} stations={stations} streams={} utilization={:.6}",
        req.command.token(),
        req.protocol,
        req.mbps,
        req.set.len(),
        req.set.utilization(bw),
    )
}

/// Runs one analysis request to completion and renders the response body.
///
/// The body uses the same canonical field names as `ringrt check
/// --format csv` (`protocol`, `mbps`, `stations`, `streams`,
/// `utilization`, `schedulable`); the server appends `cached=…` before
/// sending.
#[must_use]
pub fn execute(req: &AnalysisRequest) -> String {
    execute_with(req, &Pool::serial())
}

/// Renders a `CHECK` reply body within a work `budget` (see
/// [`Budget`]), or reports [`Unfinished`] when the Theorem 4.1 / 5.1 test
/// needs more. The server's event loop calls it with the budget its
/// connection has left, and the workers — through [`execute_with`] —
/// with an unlimited one, so a `CHECK` gets the same bytes wherever it
/// runs.
///
/// # Errors
///
/// [`Unfinished`] when the budget runs out before the verdict.
pub fn execute_check(req: &AnalysisRequest, budget: &mut Budget) -> Result<String, Unfinished> {
    let bw = Bandwidth::from_mbps(req.mbps);
    let stations = req.effective_stations();
    let ring = req.protocol.ring(stations, bw);
    let verdict = match req.protocol.pdp_variant() {
        Some(variant) => {
            PdpAnalyzer::new(ring, FrameFormat::paper_default(), variant)
                .check_within(&req.set, budget)?
                .schedulable
        }
        None => TtpAnalyzer::with_defaults(ring).is_schedulable_within(&req.set, budget)?,
    };
    let mut body = header(req, bw, stations);
    let _ = write!(body, " schedulable={verdict}");
    Ok(body)
}

/// [`execute`] for a caller that holds an execution pool. No analysis
/// command fans out any more — a `SATURATION` search takes a few cheap
/// probes (see [`SaturationSearch::saturate`]) — so the reply is
/// [`execute`]'s at any pool width.
#[must_use]
pub fn execute_with(req: &AnalysisRequest, _pool: &Pool) -> String {
    let bw = Bandwidth::from_mbps(req.mbps);
    let stations = req.effective_stations();
    let set = &req.set;
    match req.command {
        CommandKind::Check => execute_check(req, &mut Budget::unlimited())
            .expect("an unlimited budget never runs out"),
        CommandKind::Saturation => {
            let analyzer = req.protocol.analyzer(req.protocol.ring(stations, bw));
            let verdict = analyzer.is_schedulable(set);
            let mut body = header(req, bw, stations);
            let _ = write!(body, " schedulable={verdict}");
            match SaturationSearch::default().saturate(analyzer.as_ref(), set, bw) {
                Some(sat) => {
                    let _ = write!(
                        body,
                        " scale={:.6} breakdown_util={:.6}",
                        sat.scale, sat.utilization
                    );
                }
                None => {
                    let _ = write!(body, " scale=nan breakdown_util=nan");
                }
            }
            body
        }
        CommandKind::Simulate => match simulate(req, bw, stations) {
            Ok(extra) => header(req, bw, stations) + &extra,
            Err(msg) => format!("ERR {msg}"),
        },
        CommandKind::Abu => unreachable!("ABU has its own request type"),
        CommandKind::Sleep => unreachable!("SLEEP is not an analysis command"),
    }
}

/// Runs one `ABU` request: Monte-Carlo average-breakdown-utilization
/// estimation over the paper's population for the requested station count,
/// with the samples fanned across `pool`. The response body is a pure
/// function of the request — the per-sample seed-derivation scheme makes
/// the estimate bit-identical at any pool width — so the server caches it.
#[must_use]
pub fn execute_abu(req: &AbuRequest, pool: &Pool) -> String {
    let bw = Bandwidth::from_mbps(req.mbps);
    let analyzer = req.protocol.analyzer(req.protocol.ring(req.stations, bw));
    let estimator = BreakdownEstimator::new(
        MessageSetGenerator::paper_population(req.stations),
        req.samples,
    );
    let est = estimator.estimate_parallel(analyzer.as_ref(), bw, req.seed, pool);
    format!(
        "OK cmd=abu protocol={} mbps={} stations={} samples={} seed={} \
         abu_mean={:.6} abu_ci95={:.6} infeasible_sets={}",
        req.protocol,
        req.mbps,
        req.stations,
        req.samples,
        req.seed,
        est.mean,
        est.ci95,
        est.infeasible_sets,
    )
}

fn simulate(req: &AnalysisRequest, bw: Bandwidth, stations: usize) -> Result<String, String> {
    let config = SimConfig::new(req.protocol.ring(stations, bw), Seconds::new(req.seconds))
        .with_phasing(Phasing::Synchronized)
        .with_async_load(req.async_load)
        .with_seed(req.seed);
    let report = ringrt_sim::simulate(req.protocol, &req.set, config).map_err(|e| e.to_string())?;
    Ok(format!(
        " seconds={} seed={} schedulable={} completed={} deadline_misses={} \
         medium_utilization={:.6} events={}",
        req.seconds,
        req.seed,
        report.all_deadlines_met(),
        report.completed(),
        report.deadline_misses(),
        report.medium_utilization,
        report.events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use ringrt_core::pdp::PdpVariant;
    use ringrt_core::SchedulabilityTest;
    use ringrt_model::RingConfig;

    fn exec(line: &str) -> String {
        match parse_request(line).unwrap() {
            Request::Analysis(a) => execute(&a),
            other => panic!("not an analysis request: {other:?}"),
        }
    }

    #[test]
    fn check_matches_direct_analyzer_call() {
        let set = ringrt_model::parse_message_set("20, 20000\n50, 60000\n").unwrap();
        let bw = Bandwidth::from_mbps(16.0);
        let direct = PdpAnalyzer::new(
            RingConfig::ieee_802_5(2, bw),
            FrameFormat::paper_default(),
            PdpVariant::Modified,
        )
        .is_schedulable(&set);
        let body = exec("CHECK mbps=16 set=20,20000;50,60000 protocol=modified");
        assert!(body.contains(&format!("schedulable={direct}")), "{body}");
        assert!(
            body.starts_with("OK cmd=check protocol=modified mbps=16 stations=2"),
            "{body}"
        );
    }

    #[test]
    fn saturation_reports_boundary() {
        let body = exec("SATURATION mbps=100 set=20,20000;50,60000 protocol=fddi");
        assert!(body.contains(" scale="), "{body}");
        assert!(body.contains(" breakdown_util="), "{body}");
        let scale: f64 = body
            .split(" scale=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // This light set at 100 Mbps has lots of headroom.
        assert!(scale > 1.0, "{body}");
    }

    #[test]
    fn simulate_runs_and_reports() {
        let body = exec("SIMULATE mbps=4 set=20,4000;40,8000 seconds=0.2 seed=7");
        assert!(body.contains(" completed="), "{body}");
        assert!(body.contains(" deadline_misses=0"), "{body}");
        assert!(body.contains(" seed=7"), "{body}");
    }

    #[test]
    fn medium_utilization_never_exceeds_one() {
        // Overloaded sets: the last token visit or frame of each run goes
        // on past the horizon, and only the run's own time counts.
        for line in [
            "SIMULATE mbps=16 set=20,200000000;40,1000 seconds=0.1 protocol=fddi",
            "SIMULATE mbps=1 set=10,60000;10,60000 protocol=fddi",
            "SIMULATE mbps=1 set=10,60000;10,60000 protocol=modified",
        ] {
            let body = exec(line);
            let utilization: f64 = body
                .split(" medium_utilization=")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|u| u.parse().ok())
                .unwrap_or_else(|| panic!("{body}"));
            assert!((0.0..=1.0).contains(&utilization), "{line}: {body}");
        }
    }

    #[test]
    fn unschedulable_set_says_so() {
        // 120 % utilization at 1 Mbps: hopeless.
        let body = exec("CHECK mbps=1 set=10,60000;10,60000");
        assert!(body.contains("schedulable=false"), "{body}");
    }

    #[test]
    fn saturation_is_identical_at_any_pool_width() {
        let req = match parse_request("SATURATION mbps=100 set=20,20000;50,60000 protocol=fddi")
            .unwrap()
        {
            Request::Analysis(a) => a,
            other => panic!("unexpected {other:?}"),
        };
        let scale_of = |body: &str| -> f64 {
            body.split(" scale=")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let serial = execute(&req);
        assert!(scale_of(&serial) > 1.0, "{serial}");
        for threads in [2, 4] {
            assert_eq!(execute_with(&req, &Pool::new(threads)), serial);
        }
    }

    #[test]
    fn abu_is_bit_identical_at_any_pool_width() {
        let req = match parse_request("ABU mbps=100 stations=8 samples=20 seed=5 protocol=fddi")
            .unwrap()
        {
            Request::Abu(a) => a,
            other => panic!("unexpected {other:?}"),
        };
        let serial = execute_abu(&req, &Pool::serial());
        assert!(serial.contains("cmd=abu"), "{serial}");
        assert!(serial.contains(" abu_mean="), "{serial}");
        assert_eq!(serial, execute_abu(&req, &Pool::new(4)));
        assert_eq!(serial, execute_abu(&req, &Pool::new(8)));
        // A different seed must produce a different sample stream.
        let reseeded = AbuRequest { seed: 6, ..req };
        assert_ne!(serial, execute_abu(&reseeded, &Pool::serial()));
    }
}
