//! VALID-SIM — analysis ↔ simulation agreement (our addition; the paper's
//! criteria are analytical and were published without an executable
//! artifact).
//!
//! For random message sets scaled to their analytic saturation boundary:
//!
//! * at 97 % of the boundary, the frame-level simulator must observe **zero
//!   deadline misses** under critical-instant phasing with asynchronous
//!   background traffic (the analyses guarantee this);
//! * well past the raw capacity (utilization > 100 %), the simulator must
//!   observe misses (no analysis can save an overloaded ring).

use rand::rngs::StdRng;
use rand::SeedableRng;

use ringrt_bench::{banner, ExpOptions};
use ringrt_breakdown::table::{cell, Table};
use ringrt_breakdown::SaturationSearch;
use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_sim::{PdpSimulator, Phasing, SimConfig, TtpSimulator};
use ringrt_units::{Bandwidth, Seconds};
use ringrt_workload::MessageSetGenerator;

fn main() {
    let mut opts = ExpOptions::from_env();
    // Simulation is the expensive leg: use a moderate station count, and
    // say so in the banner.
    opts.stations = opts.stations.min(30);
    banner(
        "VALID-SIM",
        "schedulability analysis validated against frame-level simulation",
        &opts,
    );
    let stations = opts.stations;
    let sets = if opts.quick { 5 } else { 10 };
    let horizon = Seconds::new(1.5);
    let search = SaturationSearch::with_tolerance(1e-3);
    let generator = MessageSetGenerator::paper_population(stations);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let mut table = Table::new(&[
        "protocol",
        "bandwidth_mbps",
        "set",
        "boundary_util",
        "misses_at_97pct",
        "misses_overloaded",
    ]);
    let mut safe_violations = 0u32;
    let mut overload_silent = 0u32;
    let mut runs = 0u32;

    for k in 0..sets {
        // --- FDDI at 100 Mbps -----------------------------------------
        {
            let bw = Bandwidth::from_mbps(100.0);
            let ring = RingConfig::fddi(stations, bw);
            let analyzer = TtpAnalyzer::with_defaults(ring);
            let base = generator.generate(&mut rng);
            if let Some(sat) = search.saturate(&analyzer, &base, bw) {
                let config = SimConfig::new(ring, horizon)
                    .with_phasing(Phasing::Synchronized)
                    .with_async_load(0.2)
                    .with_seed(opts.seed ^ k as u64);
                let safe_set = sat.set.with_scaled_lengths(0.97);
                let safe = TtpSimulator::from_analysis(&safe_set, config)
                    .expect("schedulable set is feasible")
                    .run();
                let over_scale = (1.1 / sat.utilization).max(1.3);
                let over_set = sat.set.with_scaled_lengths(over_scale);
                let over = TtpSimulator::from_analysis(&over_set, config)
                    .map(|s| s.run().deadline_misses())
                    .unwrap_or(u64::MAX); // infeasible allocation counts as a miss verdict
                runs += 1;
                if safe.deadline_misses() > 0 {
                    safe_violations += 1;
                }
                if over == 0 {
                    overload_silent += 1;
                }
                table.push_row(&[
                    "FDDI".into(),
                    "100".into(),
                    k.to_string(),
                    cell(sat.utilization, 4),
                    safe.deadline_misses().to_string(),
                    if over == u64::MAX {
                        "infeasible".into()
                    } else {
                        over.to_string()
                    },
                ]);
            }
        }
        // --- Modified 802.5 at 4 Mbps -----------------------------------
        {
            let bw = Bandwidth::from_mbps(4.0);
            let ring = RingConfig::ieee_802_5(stations, bw);
            let frame = FrameFormat::paper_default();
            let analyzer = PdpAnalyzer::new(ring, frame, PdpVariant::Modified);
            let base = generator.generate(&mut rng);
            if let Some(sat) = search.saturate(&analyzer, &base, bw) {
                let config = SimConfig::new(ring, horizon)
                    .with_phasing(Phasing::Synchronized)
                    .with_async_load(0.2)
                    .with_seed(opts.seed ^ (k as u64) << 8);
                let safe_set = sat.set.with_scaled_lengths(0.97);
                let safe = PdpSimulator::new(&safe_set, config, frame, PdpVariant::Modified).run();
                let over_scale = (1.1 / sat.utilization).max(1.3);
                let over_set: MessageSet = sat.set.with_scaled_lengths(over_scale);
                let over = PdpSimulator::new(&over_set, config, frame, PdpVariant::Modified).run();
                runs += 1;
                if safe.deadline_misses() > 0 {
                    safe_violations += 1;
                }
                if over.deadline_misses() == 0 {
                    overload_silent += 1;
                }
                table.push_row(&[
                    "Modified 802.5".into(),
                    "4".into(),
                    k.to_string(),
                    cell(sat.utilization, 4),
                    safe.deadline_misses().to_string(),
                    over.deadline_misses().to_string(),
                ]);
            }
        }
    }

    print!("{}", table.to_csv());
    println!();
    println!(
        "# {} validation runs: {} safe-side violations (must be 0), {} silent overloads (should be 0)",
        runs, safe_violations, overload_silent
    );
    if safe_violations > 0 {
        println!("# !!! analysis accepted a set that missed deadlines in simulation — BUG");
        std::process::exit(1);
    }
}
