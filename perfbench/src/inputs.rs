//! Seeded request generation.
//!
//! Every request line of a run is a pure function of `(workload, seed,
//! seconds)` and is generated before the server starts, so generation
//! never competes with the server for the CPU and the server receives
//! nothing but the generated lines.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_breakdown::sweep::default_bandwidths_mbps;
use ringrt_model::MessageSet;
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

/// One traffic mix the benchmark can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated `CHECK`s answered from the result cache.
    CheckHit,
    /// Fresh `CHECK`s that miss the cache and run Theorem 4.1 / 5.1.
    CheckMiss,
    /// `ADMIT`/`REMOVE` pairs plus reads on two journaled rings.
    AdmitChurn,
    /// Figure-1 `ABU` estimations plus frame-level `SIMULATE`s.
    AbuSim,
}

impl Workload {
    /// Every workload the benchmark can drive.
    pub const ALL: [Workload; 4] = [
        Workload::CheckHit,
        Workload::CheckMiss,
        Workload::AdmitChurn,
        Workload::AbuSim,
    ];

    /// The name used on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckHit => "check-hit",
            Workload::CheckMiss => "check-miss",
            Workload::AdmitChurn => "admit-churn",
            Workload::AbuSim => "abu-sim",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the server needs a state directory (journal on).
    #[must_use]
    pub fn journaled(self) -> bool {
        self == Workload::AdmitChurn
    }
}

/// The three protocols as the wire spells them.
pub const PROTOCOLS: [&str; 3] = ["802.5", "modified", "fddi"];
/// Distinct `CHECK` requests of check-hit; they fit the server's default
/// 4 096-entry cache, so after warm-up every request hits.
pub const HIT_DISTINCT: usize = 1024;
/// Distinct `CHECK`s check-miss sends before timing. More than the
/// default cache capacity, so every one of its 16 shards ends up full
/// and every timed insert evicts.
pub const MISS_PREFILL: usize = 5000;
/// Timed check-miss requests generated per second of the window. When
/// the server is faster the pool restarts from its beginning; the pool
/// holds at least 25 times the cache capacity, so a restarted request
/// was evicted long before and still misses.
pub const MISS_POOL_PER_SECOND: usize = 10_000;
/// The large FDDI ring of admit-churn (ROADMAP item 1's ring size).
pub const FDDI_RING: &str = "fddi10k";
/// Streams on [`FDDI_RING`]; its pinned station count is above it.
pub const FDDI_STREAMS: usize = 10_000;
/// The modified-802.5 ring of admit-churn.
pub const PDP_RING: &str = "pdp100";
/// Streams on [`PDP_RING`].
pub const PDP_STREAMS: usize = 100;
/// admit-churn operations sent during set-up, after the rings are
/// populated, to warm the server before timing.
pub const CHURN_WARMUP_OPS: usize = 500;
/// admit-churn operations generated per second of the window; the run
/// fails rather than repeat an operation.
pub const CHURN_POOL_PER_SECOND: usize = 25_000;
/// Streams per paged `SHOW` of the large ring.
pub const SHOW_PAGE: usize = 32;
/// Stations (and streams per sampled set) of every `ABU` request.
pub const ABU_STATIONS: usize = 100;
/// Monte-Carlo samples per `ABU` request on the two 802.5 variants, and on
/// FDDI. Theorem 5.1 costs about a twentieth of Theorem 4.1 per sample,
/// so FDDI takes twenty times the samples: every `ABU` then costs about
/// the same, and both reported percentiles fall inside that one dense
/// cluster of latencies instead of between the clusters of a mix.
pub const ABU_SAMPLES: (usize, usize) = (22, 440);
/// abu-sim requests sent during set-up to warm the server.
pub const ABU_WARMUP: usize = 12;
/// abu-sim requests generated per second of the window; the run fails
/// rather than repeat one.
pub const ABU_POOL_PER_SECOND: usize = 500;
/// Rows per `BATCH` when populating a ring.
pub const POPULATE_BATCH: usize = 1000;

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Every distinct request line.
    pub lines: Vec<String>,
    /// Set-up steps in order, as indices into `lines`: a one-element step
    /// is sent as a plain line, a longer one as one `BATCH`.
    pub setup: Vec<Vec<usize>>,
    /// Timed requests in order, as indices into `lines`.
    pub timed: Vec<usize>,
    /// Whether the timed sequence may restart once used up; only where a
    /// repeat keeps the workload's property.
    pub wraps: bool,
}

impl Inputs {
    /// The `k`-th timed request line, or `None` past the end of a
    /// sequence that does not wrap.
    #[must_use]
    pub fn timed_line(&self, k: usize) -> Option<usize> {
        if k < self.timed.len() {
            Some(self.timed[k])
        } else if self.wraps {
            Some(self.timed[k % self.timed.len()])
        } else {
            None
        }
    }
}

/// Generates the inputs of `workload` for `seed`, sized for a timed
/// window of `seconds`.
#[must_use]
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    // Each workload draws from its own stream, so the same seed gives
    // unrelated inputs to different workloads.
    let salt = match workload {
        Workload::CheckHit => 0x11,
        Workload::CheckMiss => 0x22,
        Workload::AdmitChurn => 0x33,
        Workload::AbuSim => 0x44,
    };
    let mut rng = StdRng::seed_from_u64(ringrt_exec::splitmix64(seed ^ salt));
    let seconds = usize::try_from(seconds.max(1)).expect("window length fits usize");
    match workload {
        Workload::CheckHit => check_hit(&mut rng),
        Workload::CheckMiss => check_miss(&mut rng, seconds),
        Workload::AdmitChurn => admit_churn(&mut rng, seconds),
        Workload::AbuSim => abu_sim(&mut rng, seconds),
    }
}

fn check_hit(rng: &mut StdRng) -> Inputs {
    let lines: Vec<String> = (0..HIT_DISTINCT).map(|_| check_line(rng)).collect();
    // Warm-up sends every line twice: the first pass fills the cache,
    // the second proves every entry is resident before timing starts.
    let setup = (0..HIT_DISTINCT)
        .chain(0..HIT_DISTINCT)
        .map(|i| vec![i])
        .collect();
    let timed = (0..64 * HIT_DISTINCT)
        .map(|_| rng.gen_range(0..HIT_DISTINCT))
        .collect();
    Inputs {
        lines,
        setup,
        timed,
        wraps: true,
    }
}

fn check_miss(rng: &mut StdRng, seconds: usize) -> Inputs {
    let pool = MISS_POOL_PER_SECOND * seconds;
    let lines: Vec<String> = (0..MISS_PREFILL + pool).map(|_| check_line(rng)).collect();
    Inputs {
        lines,
        setup: (0..MISS_PREFILL).map(|i| vec![i]).collect(),
        timed: (MISS_PREFILL..MISS_PREFILL + pool).collect(),
        wraps: true,
    }
}

/// One `CHECK` of a fresh 10–100-stream set from the paper's population
/// at a Figure-1 bandwidth, on one of the three protocols.
fn check_line(rng: &mut StdRng) -> String {
    let grid = default_bandwidths_mbps();
    let streams = rng.gen_range(10..=100);
    let set = MessageSetGenerator::paper_population(streams).generate(rng);
    let mbps = grid[rng.gen_range(0..grid.len())];
    let protocol = PROTOCOLS[rng.gen_range(0..PROTOCOLS.len())];
    format!(
        "CHECK mbps={mbps} protocol={protocol} set={}",
        render_set(&set)
    )
}

/// The wire's inline set: `period_ms,bits` pairs joined by `;`.
fn render_set(set: &MessageSet) -> String {
    let mut out = String::with_capacity(16 * set.len());
    for (i, s) in set.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(
            out,
            "{:.3},{}",
            s.period().as_millis(),
            s.length_bits().as_u64()
        );
    }
    out
}

fn admit_churn(rng: &mut StdRng, seconds: usize) -> Inputs {
    let mut lines = vec![
        format!("REGISTER ring={FDDI_RING} protocol=fddi mbps=100 stations=12000"),
        format!("REGISTER ring={PDP_RING} protocol=modified mbps=16 stations=128"),
    ];
    let mut setup = vec![vec![0], vec![1]];
    let mut live: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut fresh = [0usize; 2];
    let mut admit = |ring: usize, rng: &mut StdRng, live: &mut [Vec<String>; 2]| {
        let (name, line) = admit_line(ring, fresh[ring], rng);
        fresh[ring] += 1;
        live[ring].push(name);
        line
    };
    for (ring, count) in [(0, FDDI_STREAMS), (1, PDP_STREAMS)] {
        let first = lines.len();
        for _ in 0..count {
            let line = admit(ring, rng, &mut live);
            lines.push(line);
        }
        let rows: Vec<usize> = (first..lines.len()).collect();
        setup.extend(rows.chunks(POPULATE_BATCH).map(<[usize]>::to_vec));
    }
    // Blocks of five: two ADMIT/REMOVE pairs, each on one ring so both
    // rings keep their size, then one read.
    let total = CHURN_WARMUP_OPS + CHURN_POOL_PER_SECOND * seconds;
    let first_op = lines.len();
    while lines.len() - first_op < total {
        for _ in 0..2 {
            let ring = rng.gen_range(0..2);
            let line = admit(ring, rng, &mut live);
            lines.push(line);
            let victim = live[ring].swap_remove(rng.gen_range(0..live[ring].len()));
            lines.push(format!("REMOVE ring={} stream={victim}", ring_name(ring)));
        }
        if rng.gen_bool(0.5) {
            let offset = rng.gen_range(0..=FDDI_STREAMS - SHOW_PAGE);
            lines.push(format!(
                "SHOW ring={FDDI_RING} limit={SHOW_PAGE} offset={offset}"
            ));
        } else {
            lines.push(format!("CHECK ring={PDP_RING}"));
        }
    }
    lines.truncate(first_op + total);
    let warm_end = first_op + CHURN_WARMUP_OPS;
    setup.extend((first_op..warm_end).map(|i| vec![i]));
    Inputs {
        timed: (warm_end..lines.len()).collect(),
        lines,
        setup,
        wraps: false,
    }
}

fn ring_name(ring: usize) -> &'static str {
    if ring == 0 {
        FDDI_RING
    } else {
        PDP_RING
    }
}

/// An `ADMIT` of stream number `k` on ring 0 (FDDI: 10 s periods, 100-bit
/// messages) or ring 1 (modified 802.5: 100–1000 ms periods, 2 000-bit
/// messages). Both rings stay far from saturation, so every admit passes.
fn admit_line(ring: usize, k: usize, rng: &mut StdRng) -> (String, String) {
    let (name, period_ms, bits) = if ring == 0 {
        (format!("f{k}"), 10_000.0, 100)
    } else {
        (format!("p{k}"), rng.gen_range(100.0..1000.0), 2000)
    };
    let line = format!(
        "ADMIT ring={} stream={name} period_ms={period_ms:.3} bits={bits}",
        ring_name(ring)
    );
    (name, line)
}

fn abu_sim(rng: &mut StdRng, seconds: usize) -> Inputs {
    let grid = default_bandwidths_mbps();
    let points: Vec<(f64, &str)> = grid
        .iter()
        .flat_map(|&mbps| PROTOCOLS.iter().map(move |&p| (mbps, p)))
        .collect();
    // ABUs and SIMULATEs each walk the 39 grid points in seeded order, so
    // every stretch of a run holds the same mix of points.
    let mut abu_walk = Vec::new();
    let mut sim_walk = Vec::new();
    let next_point = |walk: &mut Vec<(f64, &'static str)>, rng: &mut StdRng| {
        if walk.is_empty() {
            *walk = points.clone();
            for i in (1..walk.len()).rev() {
                walk.swap(i, rng.gen_range(0..=i));
            }
        }
        walk.pop().expect("a refilled walk is not empty")
    };
    let total = ABU_WARMUP + ABU_POOL_PER_SECOND * seconds;
    let lines: Vec<String> = (0..total)
        .map(|k| {
            if k % 4 == 3 {
                let point = next_point(&mut sim_walk, rng);
                simulate_line(rng, point)
            } else {
                let (mbps, protocol) = next_point(&mut abu_walk, rng);
                let samples = if protocol == "fddi" {
                    ABU_SAMPLES.1
                } else {
                    ABU_SAMPLES.0
                };
                let seed: u64 = rng.gen();
                format!(
                    "ABU mbps={mbps} stations={ABU_STATIONS} samples={samples} \
                     seed={seed} protocol={protocol}"
                )
            }
        })
        .collect();
    Inputs {
        setup: (0..ABU_WARMUP).map(|i| vec![i]).collect(),
        timed: (ABU_WARMUP..lines.len()).collect(),
        lines,
        wraps: false,
    }
}

/// A one-simulated-second `SIMULATE` of a fresh 10–50-stream set from
/// the paper's population at a Figure-1 point, scaled to 20–50 %
/// utilization there so the synchronous allocation always exists.
fn simulate_line(rng: &mut StdRng, (mbps, protocol): (f64, &str)) -> String {
    let streams = rng.gen_range(10..=50);
    let set = MessageSetGenerator::paper_population(streams).generate(rng);
    let target = rng.gen_range(0.2..0.5);
    let set = set.with_scaled_lengths(target / set.utilization(Bandwidth::from_mbps(mbps)));
    let seed: u64 = rng.gen();
    format!(
        "SIMULATE mbps={mbps} protocol={protocol} seconds=1 seed={seed} set={}",
        render_set(&set)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for w in Workload::ALL {
            assert_eq!(generate(w, 7, 1), generate(w, 7, 1), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_lines() {
        for w in Workload::ALL {
            let a = generate(w, 7, 1);
            let b = generate(w, 8, 1);
            assert_ne!(a.lines, b.lines, "{}", w.name());
        }
    }

    #[test]
    fn check_miss_never_repeats_within_its_pool() {
        let inputs = generate(Workload::CheckMiss, 3, 1);
        let mut seen = std::collections::HashSet::new();
        for &i in inputs.setup.iter().flatten().chain(&inputs.timed) {
            assert!(
                seen.insert(&inputs.lines[i]),
                "repeated {}",
                inputs.lines[i]
            );
        }
    }

    #[test]
    fn churn_pairs_keep_both_rings_at_size() {
        let inputs = generate(Workload::AdmitChurn, 5, 1);
        let mut sizes = std::collections::HashMap::new();
        for line in &inputs.lines {
            let ring = line
                .split("ring=")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap();
            let delta = if line.starts_with("ADMIT") {
                1
            } else if line.starts_with("REMOVE") {
                -1
            } else {
                0
            };
            *sizes.entry(ring.to_owned()).or_insert(0i64) += delta;
        }
        let expected = [(FDDI_RING, FDDI_STREAMS), (PDP_RING, PDP_STREAMS)];
        for (ring, streams) in expected {
            let size = sizes[ring];
            // The pool may end between the ADMIT and REMOVE of one pair.
            assert!(
                size == streams as i64 || size == streams as i64 + 1,
                "{ring}: {size}"
            );
        }
    }

    #[test]
    fn abu_sim_walks_every_grid_point_with_every_fourth_a_simulate() {
        let inputs = generate(Workload::AbuSim, 9, 1);
        for (k, line) in inputs.lines.iter().enumerate() {
            assert_eq!(line.starts_with("SIMULATE"), k % 4 == 3, "{k}: {line}");
        }
        for kind in ["ABU", "SIMULATE"] {
            let first_walk: std::collections::HashSet<(&str, &str)> = inputs
                .lines
                .iter()
                .filter(|l| l.starts_with(kind))
                .take(39)
                .map(|l| {
                    let field = |key: &str| l.split(key).nth(1).unwrap().split(' ').next().unwrap();
                    (field("mbps="), field("protocol="))
                })
                .collect();
            assert_eq!(first_walk.len(), 39, "{kind}");
        }
    }
}
