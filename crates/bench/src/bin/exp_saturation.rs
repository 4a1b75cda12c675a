//! SATURATION-PROBES — what one saturation search costs, per protocol.
//!
//! Every Figure-1 sample scales a random set to its schedulability
//! boundary (`SaturationSearch::saturate`). The search asks the analyzer
//! for a scaling probe: Theorem 5.1 under the local scheme gives the
//! boundary in closed form, Theorem 4.1 and ideal RM fix what does not
//! depend on the length factor and warm-start each probe. This binary
//! draws paper-population sets over the 13 Figure-1 bandwidths and, for
//! IEEE 802.5, modified 802.5, FDDI and ideal RM, prints schedulability
//! tests per sample and search time per sample, beside plain bisection
//! (the same search over a wrapper that forwards only `is_schedulable`,
//! which gets the default probe).
//!
//! ```text
//! cargo run --release -p ringrt-bench --bin exp_saturation -- [--quick] [--stations N] [--samples N]
//! ```
//!
//! With `--latency` it instead times the service's `SATURATION` path:
//! `engine::execute_with` on a 2-thread pool over 50 paper-population
//! `SATURATION` requests of `--stations` streams on 802.5, modified 802.5
//! and FDDI, in 5 rounds, and prints the median, mean and p90 per
//! request.

use std::cell::Cell;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_bench::{banner, wire_set, ExpOptions};
use ringrt_breakdown::sweep::default_bandwidths_mbps;
use ringrt_breakdown::table::{cell, Table};
use ringrt_breakdown::SaturationSearch;
use ringrt_core::rm::IdealRmAnalyzer;
use ringrt_core::{Boundary, ProtocolKind, ScalingProbe, SchedulabilityTest};
use ringrt_exec::Pool;
use ringrt_model::MessageSet;
use ringrt_service::engine::execute_with;
use ringrt_service::{parse_request, Request};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

/// Counts the probes a search makes, through the analyzer's own probe.
struct Probes<'a> {
    inner: &'a dyn SchedulabilityTest,
    count: Cell<u64>,
}

impl SchedulabilityTest for Probes<'_> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        self.inner.is_schedulable(set)
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn scaling_probe<'a>(&'a self, set: &'a MessageSet) -> Box<dyn ScalingProbe + 'a> {
        Box::new(Counted {
            inner: self.inner.scaling_probe(set),
            count: &self.count,
        })
    }
}

struct Counted<'a> {
    inner: Box<dyn ScalingProbe + 'a>,
    count: &'a Cell<u64>,
}

impl ScalingProbe for Counted<'_> {
    fn schedulable_at(&mut self, alpha: f64) -> bool {
        self.count.set(self.count.get() + 1);
        self.inner.schedulable_at(alpha)
    }

    fn boundary(&self) -> Boundary {
        self.inner.boundary()
    }
}

/// Counts whole tests and overrides nothing else, so the search bisects.
struct Bisect<'a> {
    inner: &'a dyn SchedulabilityTest,
    count: Cell<u64>,
}

impl SchedulabilityTest for Bisect<'_> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        self.count.set(self.count.get() + 1);
        self.inner.is_schedulable(set)
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }
}

/// One protocol's totals over every sample: tests and seconds, for the
/// probes and for bisection.
#[derive(Default)]
struct Totals {
    samples: u64,
    tests: (u64, u64),
    secs: (f64, f64),
}

fn analyzers(stations: usize, bw: Bandwidth) -> Vec<Box<dyn SchedulabilityTest + Sync>> {
    let mut all: Vec<Box<dyn SchedulabilityTest + Sync>> = ProtocolKind::ALL
        .iter()
        .map(|p| p.analyzer(p.ring(stations, bw)))
        .collect();
    all.push(Box::new(IdealRmAnalyzer::new(bw)));
    all
}

fn probes(opts: &ExpOptions) {
    banner(
        "SATURATION-PROBES",
        "schedulability tests and time per saturation search, probes vs bisection",
        opts,
    );
    let search = SaturationSearch::default();
    let generator = MessageSetGenerator::paper_population(opts.stations);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut totals: Vec<Totals> = (0..4).map(|_| Totals::default()).collect();
    let mut names = Vec::new();
    for mbps in default_bandwidths_mbps() {
        let bw = Bandwidth::from_mbps(mbps);
        let tests = analyzers(opts.stations, bw);
        names = tests.iter().map(|t| t.protocol_name()).collect();
        for _ in 0..opts.samples {
            let set = generator.generate(&mut rng);
            for (test, total) in tests.iter().zip(&mut totals) {
                let fast = Probes {
                    inner: test.as_ref(),
                    count: Cell::new(0),
                };
                let start = Instant::now();
                let a = search.saturate(&fast, &set, bw);
                let fast_secs = start.elapsed().as_secs_f64();
                let slow = Bisect {
                    inner: test.as_ref(),
                    count: Cell::new(0),
                };
                let start = Instant::now();
                let b = search.saturate(&slow, &set, bw);
                let slow_secs = start.elapsed().as_secs_f64();
                std::hint::black_box((a, b));
                total.samples += 1;
                total.tests.0 += fast.count.get();
                total.tests.1 += slow.count.get();
                total.secs.0 += fast_secs;
                total.secs.1 += slow_secs;
            }
        }
    }
    let mut table = Table::new(&[
        "protocol",
        "samples",
        "tests_per_sample",
        "bisection_tests_per_sample",
        "us_per_sample",
        "bisection_us_per_sample",
        "speedup",
    ]);
    for (name, t) in names.iter().zip(&totals) {
        let n = t.samples as f64;
        table.push_row(&[
            (*name).to_owned(),
            t.samples.to_string(),
            cell(t.tests.0 as f64 / n, 2),
            cell(t.tests.1 as f64 / n, 2),
            cell(1e6 * t.secs.0 / n, 1),
            cell(1e6 * t.secs.1 / n, 1),
            cell(t.secs.1 / t.secs.0.max(1e-12), 2),
        ]);
    }
    print!("{}", table.to_csv());
}

fn latency(opts: &ExpOptions) {
    banner(
        "SATURATION-LATENCY",
        "engine::execute_with on a 2-thread pool, paper-population SATURATION requests",
        opts,
    );
    let grid = default_bandwidths_mbps();
    let generator = MessageSetGenerator::paper_population(opts.stations);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let requests: Vec<_> = (0..50)
        .map(|k| {
            let protocol = ProtocolKind::ALL[k % 3];
            let mbps = grid[rng.gen_range(0..grid.len())];
            let set = generator.generate(&mut rng);
            let line = format!(
                "SATURATION mbps={mbps} protocol={protocol} set={}",
                wire_set(&set)
            );
            match parse_request(&line) {
                Ok(Request::Analysis(req)) => req,
                other => panic!("not a SATURATION request: {other:?}"),
            }
        })
        .collect();
    let pool = Pool::new(2);
    let rounds = if opts.quick { 2 } else { 5 };
    let mut micros = Vec::with_capacity(rounds * requests.len());
    for _ in 0..rounds {
        for req in &requests {
            let start = Instant::now();
            let body = execute_with(req, &pool);
            micros.push(start.elapsed().as_secs_f64() * 1e6);
            assert!(body.starts_with("OK cmd=saturation"), "{body}");
        }
    }
    micros.sort_by(f64::total_cmp);
    let at = |q: f64| micros[((micros.len() - 1) as f64 * q).round() as usize];
    let mean = micros.iter().sum::<f64>() / micros.len() as f64;
    println!(
        "requests={} rounds={rounds} median_us={:.1} mean_us={mean:.1} p90_us={:.1}",
        requests.len(),
        at(0.5),
        at(0.9)
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let latency_mode = raw.iter().any(|a| a == "--latency");
    let opts = match ExpOptions::parse(raw.into_iter().filter(|a| a != "--latency")) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if latency_mode {
        latency(&opts);
    } else {
        probes(&opts);
    }
}
