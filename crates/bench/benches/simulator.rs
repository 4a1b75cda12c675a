//! Criterion benchmarks of the frame-level simulators: events per second
//! of simulated ring time, for both MACs, quiet and loaded, and the time
//! of one `SIMULATE` shaped like perfbench abu-sim's, per protocol.
//!
//! ```text
//! cargo bench -p ringrt-bench --bench simulator
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rand::Rng;
use ringrt_breakdown::sweep::default_bandwidths_mbps;
use ringrt_core::pdp::PdpVariant;
use ringrt_core::ProtocolKind;
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_sim::{PdpSimulator, SimConfig, TtpSimulator};
use ringrt_units::{Bandwidth, Seconds};
use ringrt_workload::MessageSetGenerator;

fn sample_set(stations: usize) -> MessageSet {
    MessageSetGenerator::paper_population(stations)
        .generate(&mut StdRng::seed_from_u64(3))
        .with_scaled_lengths(0.3)
}

fn bench_ttp_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("ttp_simulator_100ms");
    group.sample_size(10);
    let n = 20;
    let set = sample_set(n);
    let ring = RingConfig::fddi(n, Bandwidth::from_mbps(100.0));
    for (label, load) in [("quiet", 0.0), ("async_30pct", 0.3)] {
        let config = SimConfig::new(ring, Seconds::from_millis(100.0)).with_async_load(load);
        group.bench_function(label, |b| {
            b.iter(|| {
                let sim = TtpSimulator::from_analysis(black_box(&set), config)
                    .expect("feasible allocation");
                black_box(sim.run().completed())
            })
        });
    }
    group.finish();
}

fn bench_pdp_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("pdp_simulator_100ms");
    group.sample_size(10);
    let n = 20;
    let set = sample_set(n);
    let ring = RingConfig::ieee_802_5(n, Bandwidth::from_mbps(4.0));
    let config = SimConfig::new(ring, Seconds::from_millis(100.0));
    for variant in [PdpVariant::Standard, PdpVariant::Modified] {
        group.bench_function(variant.label(), |b| {
            b.iter(|| {
                let sim = PdpSimulator::new(
                    black_box(&set),
                    config,
                    FrameFormat::paper_default(),
                    variant,
                );
                black_box(sim.run().completed())
            })
        });
    }
    group.finish();
}

/// One set per Figure-1 bandwidth, drawn as perfbench abu-sim draws its
/// `SIMULATE`s: 10–50 paper-population streams scaled to 20–50 %
/// utilization at that bandwidth.
fn abu_sim_sets(seed: u64) -> Vec<(f64, MessageSet)> {
    let mut rng = StdRng::seed_from_u64(seed);
    default_bandwidths_mbps()
        .into_iter()
        .map(|mbps| {
            let streams = rng.gen_range(10..=50);
            let set = MessageSetGenerator::paper_population(streams).generate(&mut rng);
            let target = rng.gen_range(0.2..0.5);
            let bw = Bandwidth::from_mbps(mbps);
            (mbps, set.with_scaled_lengths(target / set.utilization(bw)))
        })
        .collect()
}

fn abu_sim_simulate(protocol: ProtocolKind, mbps: f64, set: &MessageSet) -> u64 {
    let ring = protocol.ring(set.len(), Bandwidth::from_mbps(mbps));
    let config = SimConfig::new(ring, Seconds::new(1.0)).with_seed(7);
    ringrt_sim::simulate(protocol, set, config)
        .expect("20-50 % sets are feasible")
        .events
}

/// The mean time of one one-second `SIMULATE` per protocol, over one set
/// at each of the 13 Figure-1 bandwidths (`thrpt` counts `SIMULATE`s).
fn bench_abu_sim(c: &mut Criterion) {
    let sets = abu_sim_sets(26);
    let mut group = c.benchmark_group("abu_sim_simulate_1s");
    group.sample_size(5);
    group.throughput(criterion::Throughput::Elements(sets.len() as u64));
    for protocol in ProtocolKind::ALL {
        let events: u64 = sets
            .iter()
            .map(|(mbps, set)| abu_sim_simulate(protocol, *mbps, set))
            .sum();
        println!(
            "{protocol}: {} model events per SIMULATE",
            events / sets.len() as u64
        );
        group.bench_function(protocol.token(), |b| {
            b.iter(|| {
                sets.iter()
                    .map(|(mbps, set)| abu_sim_simulate(protocol, *mbps, black_box(set)))
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ttp_sim, bench_pdp_sim, bench_abu_sim);
criterion_main!(benches);
