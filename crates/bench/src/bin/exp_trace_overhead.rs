//! TRACE-OVERHEAD — cost of the flight recorder on service throughput
//! (engineering benchmark).
//!
//! The `ringrt-obs` recorder sits on every request's hot path (parse,
//! cache, queue-wait, execute, respond spans), so its cost must be
//! demonstrably negligible. This harness spawns two otherwise identical
//! in-process servers — recorder on and recorder off — and drives both
//! with the same workloads, in two phases:
//!
//! * **analysis** — distinct `CHECK` requests, each a real schedulability
//!   analysis through the full queue/worker pipeline. This is the
//!   service's actual workload and the phase the **< 2 %** overhead
//!   target applies to.
//! * **cachehit** — one warm request list replayed, so every answer is a
//!   cache hit. These are the *cheapest* requests the server can answer,
//!   making any fixed per-request recorder cost maximally visible. Hits
//!   travel the zero-span fast path (two pre-aggregated counters +
//!   one sampled span per 64 hits — see `run_cached`), so this phase is
//!   held to its own **< 0.5 %** overhead target.
//!
//! Shared machines drift: CPU steal and frequency ramps swing wall-clock
//! throughput by tens of percent over hundreds of milliseconds, which
//! dwarfs a sub-microsecond per-request cost. The harness neutralises
//! that by **fine interleaving**: each measured round slices the request
//! list into small `BATCH` frames and alternates slice-by-slice between
//! the two servers (a few milliseconds apart), accumulating each
//! server's total busy time. Both servers therefore sample the same
//! noise spectrum and the ratio of totals isolates the recorder cost.
//! Rounds repeat and the median round overhead is reported.
//!
//! Besides the usual CSV on stdout, writes `BENCH_trace.json` to the
//! current directory for CI artifact upload.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ringrt_bench::{banner, ExpOptions};
use ringrt_breakdown::table::{cell, Table};
use ringrt_service::{spawn, ServerHandle, ServiceConfig};

const OUT_PATH: &str = "BENCH_trace.json";

/// Requests per `BATCH` frame — one interleaving slice. Small enough
/// that machine-level drift is sampled equally by both servers (a slice
/// is a few milliseconds), large enough to amortise the socket round
/// trip out of the per-request cost.
const SLICE: usize = 200;

fn spawn_server(trace_enabled: bool, queue_depth: usize) -> ServerHandle {
    spawn(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: ringrt_exec::configured_threads().max(2),
        queue_depth,
        default_deadline_ms: 60_000,
        trace_enabled,
        ..ServiceConfig::default()
    })
    .expect("spawn service")
}

/// A distinct (never cache-hitting across rounds) analysis request over
/// a paper-scale 12-stream set — the source experiments analyse sets of
/// tens of streams, not toy pairs, and the overhead target is judged
/// against that realistic per-request cost.
///
/// The payload perturbation must stay small: the closed-form tests cost
/// the same for any *schedulable* set, so as long as utilisation stays
/// well under 1 every request does identical work and rounds compare
/// apples to apples (`salt + i` stays below ~200 k for any sane round
/// count, and only the first stream carries the perturbation).
fn analysis_line(i: usize, salt: usize) -> String {
    let mut set = format!("set=20,{}", 20_000 + (salt + i));
    for j in 1..12usize {
        // Periods 25..80 ms, payloads 4..15 kbit: per-stream utilisation
        // stays near 1 %, the whole set near 15 % — comfortably feasible.
        let period_ms = 20 + 5 * j;
        let bits = 4_000 + 1_000 * j;
        set.push_str(&format!(";{period_ms},{bits}"));
    }
    format!("CHECK mbps=16 {set}")
}

/// One persistent connection to one server.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// Sends one slice as a `BATCH` frame, reads every response, and
    /// returns the wall time the exchange took.
    fn drive_slice(&mut self, lines: &[String]) -> Duration {
        let mut frame = format!("BATCH {}\n", lines.len());
        for line in lines {
            frame.push_str(line);
            frame.push('\n');
        }
        let started = Instant::now();
        self.writer.write_all(frame.as_bytes()).expect("send");
        let mut resp = String::new();
        for _ in lines {
            resp.clear();
            self.reader.read_line(&mut resp).expect("recv");
            assert!(resp.starts_with("OK"), "unexpected response: {resp}");
        }
        started.elapsed()
    }
}

struct RoundOutcome {
    rps_on: f64,
    rps_off: f64,
    overhead_pct: f64,
}

/// One measured round: alternates `SLICE`-sized frames between the two
/// servers (order flipping every slice), driving both through the
/// **same** request list, and compares accumulated busy time.
///
/// Each slice yields a *paired* `(t_on, t_off)` sample taken a few
/// milliseconds apart. Before summing, the pairs with the most extreme
/// on-minus-off differences (10 % at each end) are discarded: a
/// scheduler stall or steal burst that lands inside exactly one
/// server's slice produces an outlier difference, and trimming removes
/// it symmetrically without biasing the estimate.
fn run_round(on: &mut Client, off: &mut Client, lines: &[String]) -> RoundOutcome {
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for (k, slice) in lines.chunks(SLICE).enumerate() {
        let (t_on, t_off) = if k % 2 == 0 {
            let a = on.drive_slice(slice);
            let b = off.drive_slice(slice);
            (a, b)
        } else {
            let b = off.drive_slice(slice);
            let a = on.drive_slice(slice);
            (a, b)
        };
        pairs.push((t_on.as_secs_f64(), t_off.as_secs_f64()));
    }
    pairs.sort_by(|x, y| {
        let dx = x.0 - x.1;
        let dy = y.0 - y.1;
        dx.partial_cmp(&dy).expect("finite slice times")
    });
    let cut = pairs.len() / 5;
    let kept = &pairs[cut..pairs.len() - cut];
    let busy_on: f64 = kept.iter().map(|p| p.0).sum();
    let busy_off: f64 = kept.iter().map(|p| p.1).sum();
    let n = (kept.len() * SLICE) as f64;
    let rps_on = n / busy_on.max(1e-9);
    let rps_off = n / busy_off.max(1e-9);
    RoundOutcome {
        rps_on,
        rps_off,
        overhead_pct: 100.0 * (1.0 - rps_on / rps_off.max(1e-9)),
    }
}

struct PhaseOutcome {
    median_on: f64,
    median_off: f64,
    overhead_pct: f64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Runs `rounds` interleaved rounds and reports the median round; the
/// median discards the minority of rounds a noise burst lands in.
fn run_phase(
    on: &mut Client,
    off: &mut Client,
    rounds: usize,
    mut make_lines: impl FnMut(usize) -> Vec<String>,
) -> PhaseOutcome {
    let mut rates_on = Vec::with_capacity(rounds);
    let mut rates_off = Vec::with_capacity(rounds);
    let mut overheads = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let lines = make_lines(round);
        let r = run_round(on, off, &lines);
        println!(
            "#   round {round}: rps_on={:.0} rps_off={:.0} overhead={:.2}%",
            r.rps_on, r.rps_off, r.overhead_pct
        );
        rates_on.push(r.rps_on);
        rates_off.push(r.rps_off);
        overheads.push(r.overhead_pct);
    }
    PhaseOutcome {
        median_on: median(&mut rates_on),
        median_off: median(&mut rates_off),
        overhead_pct: median(&mut overheads),
    }
}

fn main() {
    let opts = ExpOptions::from_env();
    banner(
        "TRACE-OVERHEAD",
        "service throughput with the flight recorder on vs off",
        &opts,
    );

    // Rounds must be long (tens of thousands of requests) for the
    // ~100 ns/span recorder cost to rise above residual timing jitter;
    // rounded to whole slices so every paired sample covers exactly
    // `SLICE` requests.
    let total = (opts.samples * 240).max(4_000).div_ceil(SLICE) * SLICE;
    // Odd round counts so the median is an actual observed round.
    // Quick mode keeps the shorter request list but not fewer rounds:
    // the cache-hit phase is gated at 0.5 %, which sits near the noise
    // floor of a 5-round median on a busy host — 9 rounds tighten it.
    let rounds = 9;

    let on_server = spawn_server(true, 4 * SLICE);
    let off_server = spawn_server(false, 4 * SLICE);
    println!(
        "# recorder-on server {} / recorder-off server {}, {total} requests × {rounds} rounds \
         per phase, interleaved {SLICE}-request slices",
        on_server.addr(),
        off_server.addr()
    );
    let mut on = Client::connect(on_server.addr());
    let mut off = Client::connect(off_server.addr());

    // Phase 1 — analysis: every request distinct per server lifetime, so
    // each one runs the real admission analysis through the pipeline.
    // Both servers get the *same* list (each for the first time), making
    // the comparison exact. One unmeasured warm-up round lets allocators,
    // branch predictors, and the frequency governor settle first.
    let mut salt = 0;
    let mut fresh_lines = |_| {
        salt += total;
        (0..total)
            .map(|i| analysis_line(i, salt))
            .collect::<Vec<_>>()
    };
    let _ = run_round(&mut on, &mut off, &fresh_lines(0));
    let analysis = run_phase(&mut on, &mut off, rounds, &mut fresh_lines);

    // Phase 2 — cachehit: one fixed list, primed once per server, then
    // replayed so every answer is served from the result cache.
    let warm: Vec<String> = (0..total).map(|i| analysis_line(i % 16, 0)).collect();
    let _ = run_round(&mut on, &mut off, &warm);
    let cachehit = run_phase(&mut on, &mut off, rounds, |_| warm.clone());

    let mut table = Table::new(&[
        "phase",
        "requests",
        "rounds",
        "rps_recorder_off",
        "rps_recorder_on",
        "overhead_pct",
    ]);
    for (phase, r) in [("analysis", &analysis), ("cachehit", &cachehit)] {
        table.push_row(&[
            phase.into(),
            total.to_string(),
            rounds.to_string(),
            cell(r.median_off, 1),
            cell(r.median_on, 1),
            cell(r.overhead_pct, 2),
        ]);
    }
    print!("{}", table.to_csv());

    // `rps_delta_pct` is the signed throughput delta of recorder-on vs
    // recorder-off (positive = faster with the recorder, i.e. overhead
    // below jitter); `overhead_pct` is its negation, kept for the CI gate.
    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"requests_per_round\": {total},\n  \
         \"rounds\": {rounds},\n  \"slice\": {SLICE},\n  \"phases\": [\n    \
         {{\"phase\": \"analysis\", \"rps_recorder_on\": {:.3}, \"rps_recorder_off\": {:.3}, \
         \"overhead_pct\": {:.3}, \"rps_delta_pct\": {:.3}, \
         \"target_overhead_pct\": 2.0, \"target_applies\": true}},\n    \
         {{\"phase\": \"cachehit\", \"rps_recorder_on\": {:.3}, \"rps_recorder_off\": {:.3}, \
         \"overhead_pct\": {:.3}, \"rps_delta_pct\": {:.3}, \
         \"target_overhead_pct\": 0.5, \"target_applies\": true}}\n  ]\n}}\n",
        analysis.median_on,
        analysis.median_off,
        analysis.overhead_pct,
        -analysis.overhead_pct,
        cachehit.median_on,
        cachehit.median_off,
        cachehit.overhead_pct,
        -cachehit.overhead_pct,
    );
    if let Err(e) = std::fs::write(OUT_PATH, &json) {
        eprintln!("warning: could not write {OUT_PATH}: {e}");
    } else {
        println!();
        println!(
            "# wrote {OUT_PATH} (analysis overhead {:.2}% vs 2% target; cache-hit \
             {:.2}% vs 0.5% target)",
            analysis.overhead_pct, cachehit.overhead_pct
        );
    }
    println!("# overheads are medians over slice-interleaved same-workload rounds; a small");
    println!("# negative value means the recorder cost sits below residual timing jitter.");
    println!("# cache-hit requests are the cheapest the server answers; their zero-span");
    println!("# fast path (two counters + 1-in-64 sampled spans) is held to <0.5%.");

    drop(on);
    drop(off);
    on_server.join();
    off_server.join();
}
