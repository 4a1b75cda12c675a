//! Property: skipping the free token's idle walk changes nothing a run
//! reports.
//!
//! Both simulators move a released token to the station that captures
//! it in one event. The oracle is the same simulator built with
//! `hop_by_hop()`, which moves the token one station per event as the
//! simulators always did. On random paper-population sets (1–12 streams,
//! up to 3 extra stations, 1–1000 Mbps, 5–130% utilization), on IEEE
//! 802.5, modified 802.5 (also with 1–4 hardware priority levels) and
//! FDDI (Theorem 5.1's allocation, or a random TTRT and allocation that
//! make late and overloaded tokens), with and without asynchronous load
//! and token loss, synchronized and staggered, with tracing off, on, and
//! on with a capacity that truncates, every `SimReport` field must be
//! equal: `events`, `rotations`, `trace` and `trace_dropped` included.
//! Run it in release, where the simulators' debug assertions compile
//! out:
//!
//! ```text
//! cargo test --release -p ringrt-sim --test walk_oracle -- --nocapture
//! ```
//!
//! It prints its master seed and the model events its cases ran; a
//! failure names the case's seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ringrt_core::pdp::PdpVariant;
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_sim::{PdpSimulator, Phasing, SimConfig, SimReport, TtpSimulator};
use ringrt_units::{Bandwidth, Seconds};
use ringrt_workload::MessageSetGenerator;

/// The master seed; case `k` draws from `StdRng::seed_from_u64(SEED + k)`.
const SEED: u64 = 0x0070_6b3e;

/// Cases per protocol and the longest run: bounded, and smaller in
/// debug builds.
fn cases() -> (u64, f64) {
    if cfg!(debug_assertions) {
        (24, 0.05)
    } else {
        (300, 0.25)
    }
}

const GRID_MBPS: [f64; 7] = [1.0, 4.0, 16.0, 31.6, 100.0, 316.2, 1000.0];

/// A random set on a random ring, and the run's configuration.
fn draw(rng: &mut StdRng, fddi: bool) -> (MessageSet, SimConfig) {
    let streams = rng.gen_range(1..=12);
    let stations = streams + rng.gen_range(0..=3);
    let bw = Bandwidth::from_mbps(GRID_MBPS[rng.gen_range(0..GRID_MBPS.len())]);
    let set = MessageSetGenerator::paper_population(streams).generate(rng);
    let set = set.with_scaled_lengths(rng.gen_range(0.05..1.3) / set.utilization(bw));
    let ring = if fddi {
        RingConfig::fddi(stations, bw)
    } else {
        RingConfig::ieee_802_5(stations, bw)
    };
    let mut config = SimConfig::new(ring, Seconds::new(rng.gen_range(0.01..cases().1)))
        .with_seed(rng.gen())
        .with_phasing(if rng.gen_bool(0.5) {
            Phasing::Synchronized
        } else {
            Phasing::Staggered
        });
    if rng.gen_bool(0.5) {
        config = config.with_async_load(rng.gen_range(0.02..0.5));
    }
    if rng.gen_bool(0.4) {
        let recovery = Seconds::from_millis(rng.gen_range(0.01..5.0));
        config = config.with_token_loss(rng.gen_range(5.0..300.0), recovery);
    }
    config = match rng.gen_range(0..3) {
        0 => config,
        1 => config.with_trace(1 << 22),
        _ => config.with_trace(rng.gen_range(1..2_000)),
    };
    (set, config)
}

/// Every field of two reports, compared exactly.
fn assert_same(skip: &SimReport, oracle: &SimReport, what: &str) {
    assert_eq!(skip.protocol, oracle.protocol, "{what}");
    assert_eq!(skip.simulated, oracle.simulated, "{what}");
    assert_eq!(skip.per_stream, oracle.per_stream, "{what}");
    assert_eq!(skip.rotations, oracle.rotations, "{what}");
    assert_eq!(skip.async_frames_sent, oracle.async_frames_sent, "{what}");
    assert_eq!(skip.async_waits, oracle.async_waits, "{what}");
    assert_eq!(skip.token_losses, oracle.token_losses, "{what}");
    assert_eq!(
        skip.medium_utilization.to_bits(),
        oracle.medium_utilization.to_bits(),
        "{what}"
    );
    assert_eq!(skip.events, oracle.events, "{what}");
    assert_eq!(skip.trace_dropped, oracle.trace_dropped, "{what}");
    assert_eq!(skip.trace.len(), oracle.trace.len(), "{what}");
    if let Some(k) = (0..skip.trace.len()).find(|&k| skip.trace[k] != oracle.trace[k]) {
        panic!(
            "{what}: trace record {k} is {} against the oracle's {}",
            skip.trace[k], oracle.trace[k]
        );
    }
}

#[test]
fn skipped_walks_report_what_the_hop_walk_reports() {
    println!(
        "walk oracle: master seed {SEED:#x}, {} cases per protocol",
        cases().0
    );
    let mut events = 0;
    for protocol in 0..4u64 {
        for k in 0..cases().0 {
            let seed = SEED + protocol * 1_000_000 + k;
            let rng = &mut StdRng::seed_from_u64(seed);
            let (set, config) = draw(rng, protocol == 3);
            let what = format!("protocol {protocol}, case seed {seed}");
            let (skip, oracle) = match protocol {
                0..=2 => {
                    let variant = if protocol == 0 {
                        PdpVariant::Standard
                    } else {
                        PdpVariant::Modified
                    };
                    let levels = (protocol == 2).then(|| rng.gen_range(1..=4));
                    let build = || {
                        let sim =
                            PdpSimulator::new(&set, config, FrameFormat::paper_default(), variant);
                        match levels {
                            Some(levels) => sim.with_priority_levels(levels),
                            None => sim,
                        }
                    };
                    (build().run(), build().hop_by_hop().run())
                }
                _ => {
                    let explicit = rng.gen_bool(0.5).then(|| {
                        let ttrt = Seconds::from_millis(rng.gen_range(0.02..8.0));
                        let h: Vec<Seconds> = (0..set.len())
                            .map(|_| Seconds::from_millis(rng.gen_range(0.01..2.0)))
                            .collect();
                        (ttrt, h)
                    });
                    let build = || match &explicit {
                        Some((ttrt, h)) => TtpSimulator::with_allocations(&set, config, *ttrt, h),
                        None => TtpSimulator::from_analysis(&set, config),
                    };
                    let Ok(sim) = build() else { continue };
                    (sim.run(), build().expect("built once").hop_by_hop().run())
                }
            };
            assert_same(&skip, &oracle, &what);
            events += oracle.events;
        }
    }
    println!("walk oracle: {events} model events, equal in every report");
}
