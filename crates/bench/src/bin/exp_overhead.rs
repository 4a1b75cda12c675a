//! OVHD — sensitivity of Figure 1 to the frame-overhead assumption.
//!
//! The paper's evaluation fixes `F_ovhd^b = 112` bits for both protocols.
//! The standards' actual fixed framing overheads are larger: 168 bits for
//! an IEEE 802.5 data frame and 224 bits for an FDDI frame
//! ([`FrameFormat::ieee_802_5`] and [`FrameFormat::fddi`]). This experiment
//! re-runs the bandwidth sweep at the real overheads to check whether the
//! paper's qualitative conclusions hinge on the 112-bit choice.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ringrt_bench::{banner, ExpOptions};
use ringrt_breakdown::table::{cell, Table};
use ringrt_breakdown::{BreakdownEstimator, SaturationSearch};
use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_model::{FrameFormat, RingConfig};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

fn main() {
    let opts = ExpOptions::from_env();
    banner(
        "OVHD",
        "ABU with the paper's 112-bit overhead vs the standards' real overheads",
        &opts,
    );

    let estimator = BreakdownEstimator::new(
        MessageSetGenerator::paper_population(opts.stations),
        opts.samples,
    )
    .with_search(SaturationSearch::with_tolerance(if opts.quick {
        3e-3
    } else {
        1e-3
    }));

    let mut table = Table::new(&[
        "bandwidth_mbps",
        "mod_802_5_paper112",
        "mod_802_5_real168",
        "fddi_paper112",
        "fddi_real224",
    ]);
    // Each row's ABUs as the table prints them: modified 802.5 at 112 and
    // 168 bits, then FDDI at 112 and 224 bits.
    let mut rows: Vec<[String; 4]> = Vec::new();
    for (i, mbps) in BANDWIDTHS_MBPS.into_iter().enumerate() {
        let bw = Bandwidth::from_mbps(mbps);
        let seed = opts.seed ^ i as u64;

        let ring = RingConfig::ieee_802_5(opts.stations, bw);
        let paper_frame = FrameFormat::paper_default();
        let real_frame = FrameFormat::ieee_802_5();
        let pdp_paper = estimator.estimate(
            &PdpAnalyzer::new(ring, paper_frame, PdpVariant::Modified),
            bw,
            &mut StdRng::seed_from_u64(seed),
        );
        let pdp_real = estimator.estimate(
            &PdpAnalyzer::new(ring, real_frame, PdpVariant::Modified),
            bw,
            &mut StdRng::seed_from_u64(seed),
        );

        let ring = RingConfig::fddi(opts.stations, bw);
        let fddi_frame = FrameFormat::fddi();
        let ttp_paper = estimator.estimate(
            &TtpAnalyzer::with_defaults(ring),
            bw,
            &mut StdRng::seed_from_u64(seed),
        );
        let ttp_real = estimator.estimate(
            &TtpAnalyzer::new(
                ring,
                ringrt_core::ttp::TtrtPolicy::SqrtHeuristic,
                ringrt_core::ttp::SbaScheme::Local,
                fddi_frame.overhead(),
                fddi_frame.total(),
            ),
            bw,
            &mut StdRng::seed_from_u64(seed),
        );

        let abu = [pdp_paper, pdp_real, ttp_paper, ttp_real].map(|e| cell(e.mean, 4));
        let mut row = vec![cell(mbps, 3)];
        row.extend(abu.iter().cloned());
        table.push_row(&row);
        rows.push(abu);
    }
    print!("{}", table.to_csv());
    println!();
    let abu: Vec<[f64; 4]> = rows
        .iter()
        .map(|row| row.each_ref().map(|c| c.parse().expect("a printed number")))
        .collect();
    for (overhead, pdp, fddi) in [
        ("the paper's 112-bit overhead", 0, 2),
        ("the standards' overheads", 1, 3),
    ] {
        println!(
            "# with {overhead}, modified 802.5's ABU first falls below FDDI's {}",
            crossover(&abu, pdp, fddi)
        );
    }
    for (protocol, paper, real) in [("modified 802.5", 0, 1), ("FDDI", 2, 3)] {
        let (mbps, loss) = BANDWIDTHS_MBPS
            .into_iter()
            .zip(abu.iter().map(|row| row[paper] - row[real]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a swept bandwidth");
        println!(
            "# {protocol} loses at most {loss:.4} ABU to its standard's overhead, at {mbps} Mbps"
        );
    }
}

/// The swept bandwidths, in Mbps.
const BANDWIDTHS_MBPS: [f64; 6] = [2.0, 5.623, 10.0, 31.62, 100.0, 1000.0];

/// Where column `pdp` first drops below column `fddi` along the sweep.
fn crossover(abu: &[[f64; 4]], pdp: usize, fddi: usize) -> String {
    match abu.iter().position(|row| row[pdp] < row[fddi]) {
        None => format!("nowhere up to {} Mbps", BANDWIDTHS_MBPS[abu.len() - 1]),
        Some(0) => format!("already at {} Mbps", BANDWIDTHS_MBPS[0]),
        Some(i) => format!(
            "between {} and {} Mbps",
            BANDWIDTHS_MBPS[i - 1],
            BANDWIDTHS_MBPS[i]
        ),
    }
}
