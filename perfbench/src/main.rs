//! End-to-end and per-layer benchmark of the `ringrt` admission service.
//!
//! ```text
//! perfbench --workload <check-hit|check-miss|admit-churn|abu-sim> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! It builds `ringrt` from the repository, starts `ringrt serve` as its
//! own process with the server's default settings, and drives one
//! workload from one client thread over one TCP connection in a closed
//! loop. Every reply is checked against the library afterwards. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! replays the same seeded inputs through each layer's public functions
//! in this process and prints the per-layer metrics. The last line of
//! standard output is one JSON object with the result.
//! See `README.md` next to this crate for the metrics and workloads.

mod inputs;
mod server;
mod stats;
mod trace;
mod verify;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{Inputs, Workload};
use crate::server::{Client, Server};
use crate::trace::{name, Tracer};
use crate::verify::Reference;

const USAGE: &str = "usage: perfbench --workload <check-hit|check-miss|admit-churn|abu-sim> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Server start-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Equal slices of the traced run's window, alternately untraced and
/// traced, so that drift in the host's speed hits both alike.
const SLICES: usize = 10;
/// `PING`s timed on the benchmark's connection in the traced run.
const PINGS: usize = 2000;
/// Timed requests each in-process replay runs for its own workload, and
/// for another workload whose layer it measures (a probe).
const REPLAY_CHECK: (usize, usize) = (20_000, 1_000);
const REPLAY_CHURN: (usize, usize) = (5_000, 1_000);
const REPLAY_ABU: (usize, usize) = (16, 4);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| {
        flags
            .remove(flag)
            .ok_or_else(|| format!("{flag} is required"))
    };
    let workload = take("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = take("--seed")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?;
    let seconds = take("--seconds")?;
    let seconds = match seconds.parse() {
        Ok(s) if (1..=600).contains(&s) => s,
        _ => return Err(format!("--seconds must be 1..=600, got `{seconds}`")),
    };
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
    note: String,
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for m in &report.metrics {
                println!(
                    "metric {} = {} {} (n={}{})",
                    m.name, m.value, m.unit, m.samples, m.note
                );
            }
            println!("{}", report_json(&report));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} requests failed",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<Report, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark crate has no parent directory")?
        .to_path_buf();
    let work = repo.join(".perfbench");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let bin = server::build_server(&repo)?;
    let inputs = inputs::generate(args.workload, args.seed, args.seconds);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} server={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bin.display()
    );
    println!(
        "inputs: {} distinct request lines, {} set-up requests, {} timed requests in the pool{}",
        inputs.lines.len(),
        inputs.setup.iter().map(Vec::len).sum::<usize>(),
        inputs.timed.len(),
        if inputs.wraps {
            " (restarts when used up)"
        } else {
            ""
        }
    );
    let bench = Bench {
        args,
        bin: &bin,
        work: &work,
        inputs: &inputs,
    };
    let report = if args.trace {
        bench.traced()?
    } else {
        bench.untraced()?
    };
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
    }
    Ok(report)
}

/// One server process and the conversation held with it.
struct Session {
    server: Server,
    client: Client,
    state_dir: Option<PathBuf>,
    /// `(line index, reply)` of every request sent, in order.
    log: Vec<(usize, String)>,
    /// Requests that are not generated inputs (final full listings).
    extra: Vec<(String, String)>,
}

/// Per-session verification result.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

struct Bench<'a> {
    args: &'a Args,
    bin: &'a Path,
    work: &'a Path,
    inputs: &'a Inputs,
}

impl Bench<'_> {
    /// Starts a server and runs the workload's set-up; returns the
    /// session and the seconds from spawn to ready.
    fn start(&self, k: usize) -> Result<(Session, f64), String> {
        let state_dir = self
            .args
            .workload
            .journaled()
            .then(|| self.work.join(format!("state-{}-{k}", std::process::id())));
        if let Some(dir) = &state_dir {
            remove_dir(dir);
        }
        let spawned = Instant::now();
        let server =
            Server::spawn(self.bin, state_dir.as_deref()).map_err(|e| format!("spawn: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let lines = &self.inputs.lines;
        let mut log = Vec::with_capacity(self.inputs.setup.len());
        for step in &self.inputs.setup {
            if let [i] = step.as_slice() {
                let reply = client
                    .call(&lines[*i])
                    .map_err(|e| format!("set-up: {e}"))?;
                log.push((*i, reply));
            } else {
                let batch: Vec<&str> = step.iter().map(|&i| lines[i].as_str()).collect();
                let replies = client.batch(&batch).map_err(|e| format!("set-up: {e}"))?;
                log.extend(step.iter().copied().zip(replies));
            }
        }
        let setup_s = spawned.elapsed().as_secs_f64();
        let session = Session {
            server,
            client,
            state_dir,
            log,
            extra: Vec::new(),
        };
        Ok((session, setup_s))
    }

    /// Sends timed requests from position `*next` until `seconds` pass.
    /// Returns each request's latency (µs) and completion offset (s);
    /// with a tracer, also records one client-side span per request.
    fn window(
        &self,
        session: &mut Session,
        next: &mut usize,
        seconds: f64,
        mut spans: Option<&mut Tracer>,
    ) -> Result<(Vec<f64>, Vec<f64>), String> {
        let mut latencies = Vec::new();
        let mut done = Vec::new();
        let mut reply = String::new();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        loop {
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            let Some(i) = self.inputs.timed_line(*next) else {
                return Err(format!(
                    "the timed pool ran out after {} requests; enlarge it in inputs.rs",
                    *next
                ));
            };
            session
                .client
                .call_into(&self.inputs.lines[i], &mut reply)
                .map_err(|e| format!("timed request {}: {e}", *next))?;
            let t1 = Instant::now();
            latencies.push((t1 - t0).as_secs_f64() * 1e6);
            done.push((t1 - start).as_secs_f64());
            session.log.push((i, std::mem::take(&mut reply)));
            if let Some(tracer) = spans.as_deref_mut() {
                tracer.record("tcp.request", *next as u64, None, t0, t1);
            }
            *next += 1;
        }
        Ok((latencies, done))
    }

    /// Asks for the rings' full listings (admit-churn), shuts the server
    /// down and checks every reply of the session.
    fn finish(&self, mut session: Session) -> Result<Tally, String> {
        if self.args.workload == Workload::AdmitChurn {
            for ring in [inputs::FDDI_RING, inputs::PDP_RING] {
                let line = format!("SHOW ring={ring}");
                let reply = session
                    .client
                    .call(&line)
                    .map_err(|e| format!("{line}: {e}"))?;
                session.extra.push((line, reply));
            }
        }
        let Session {
            server,
            client,
            state_dir,
            log,
            extra,
        } = session;
        server
            .shutdown(client)
            .map_err(|e| format!("shutdown: {e}"))?;
        if let Some(dir) = &state_dir {
            remove_dir(dir);
        }
        Ok(self.verify(&log, &extra))
    }

    /// Checks a session's replies in order against the library. The
    /// stateless part (parsing, recomputing analyses) runs in parallel a
    /// chunk at a time; check-hit prepares each of its repeated lines once.
    fn verify(&self, log: &[(usize, String)], extra: &[(String, String)]) -> Tally {
        let recompute = self.recompute_sample(log);
        let pool = ringrt_exec::Pool::new(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        );
        let mut memo: BTreeMap<usize, verify::Prepared> = BTreeMap::new();
        let mut reference = Reference::default();
        let mut tally = Tally::default();
        let mut shown = 0;
        let mut note = |line: &str, reply: &str, why: String| {
            if shown < 5 {
                shown += 1;
                eprintln!("perfbench: request failed: {line}\n  reply: {reply}\n  {why}");
            }
        };
        for (c, chunk) in log.chunks(4096).enumerate() {
            let base = c * 4096;
            let prepared: Vec<verify::Prepared> = if self.args.workload == Workload::CheckHit {
                chunk
                    .iter()
                    .map(|(i, _)| {
                        memo.entry(*i)
                            .or_insert_with(|| verify::prepare(&self.inputs.lines[*i], true))
                            .clone()
                    })
                    .collect()
            } else {
                pool.map(chunk.len(), |k| {
                    let line = &self.inputs.lines[chunk[k].0];
                    let all = recompute.as_ref().is_none_or(|s| s.contains(&(base + k)));
                    verify::prepare(line, all)
                })
            };
            for (p, (i, reply)) in prepared.into_iter().zip(chunk) {
                tally.attempted += 1;
                if let Err(why) = reference.check(p, reply) {
                    tally.failed += 1;
                    note(&self.inputs.lines[*i], reply, why);
                }
            }
        }
        for (line, reply) in extra {
            tally.attempted += 1;
            if let Err(why) = reference.check(verify::prepare(line, true), reply) {
                tally.failed += 1;
                note(line, reply, why);
            }
        }
        tally
    }

    /// Fails the run when the server's own counters show the window did
    /// not have the workload's defining property: check-hit answered
    /// every request from the cache, check-miss and abu-sim none, and
    /// admit-churn never touched the cache.
    fn check_property(
        &self,
        before: &BTreeMap<String, String>,
        after: &BTreeMap<String, String>,
    ) -> Result<(), String> {
        let delta = |k: &str| -> i64 {
            let v = |m: &BTreeMap<String, String>| m.get(k).and_then(|v| v.parse::<i64>().ok());
            v(after).unwrap_or(0) - v(before).unwrap_or(0)
        };
        let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
        let holds = match self.args.workload {
            Workload::CheckHit => misses == 0 && hits > 0,
            Workload::CheckMiss => hits == 0 && delta("cache_evictions") == misses,
            Workload::AbuSim => hits == 0,
            Workload::AdmitChurn => hits == 0 && misses == 0,
        };
        if holds {
            Ok(())
        } else {
            Err(format!(
                "{} lost its defining cache property over the window: \
                 cache_hits=+{hits} cache_misses=+{misses}",
                self.args.workload.name()
            ))
        }
    }

    /// Log positions whose analysis is recomputed; `None` for all of them.
    /// On abu-sim, where each recomputation costs as much as the request,
    /// one seed-chosen timed `ABU` per Figure-1 grid point and 13
    /// seed-chosen timed `SIMULATE`s.
    fn recompute_sample(&self, log: &[(usize, String)]) -> Option<HashSet<usize>> {
        if self.args.workload != Workload::AbuSim {
            return None;
        }
        let setup = self.inputs.setup.len();
        let mut by_point: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut simulates = Vec::new();
        for (k, (i, _)) in log.iter().enumerate().skip(setup) {
            let line = &self.inputs.lines[*i];
            if line.starts_with("ABU") {
                let field = |key: &str| line.split(key).nth(1).and_then(|v| v.split(' ').next());
                let point = format!("{:?}/{:?}", field(" mbps="), field(" protocol="));
                by_point.entry(point).or_default().push(k);
            } else {
                simulates.push(k);
            }
        }
        let mut rng = StdRng::seed_from_u64(self.args.seed ^ 0x5eed);
        let mut chosen: HashSet<usize> = by_point
            .values()
            .map(|ks| ks[rng.gen_range(0..ks.len())])
            .collect();
        for _ in 0..13.min(simulates.len()) {
            let k = simulates.swap_remove(rng.gen_range(0..simulates.len()));
            chosen.insert(k);
        }
        Some(chosen)
    }

    fn untraced(&self) -> Result<Report, String> {
        let mut tally = Tally::default();
        let mut setups = Vec::with_capacity(SETUPS);
        for k in 0..SETUPS - 1 {
            let (session, setup_s) = self.start(k)?;
            setups.push(setup_s);
            tally.add(self.finish(session)?);
        }
        let (mut session, setup_s) = self.start(SETUPS - 1)?;
        setups.push(setup_s);
        let before = stats_map(&mut session.client)?;
        let cpu0 = session.server.cpu_us().map_err(|e| format!("cpu: {e}"))?;
        let mut next = 0;
        let seconds = self.args.seconds as f64;
        let (latencies, done) = self.window(&mut session, &mut next, seconds, None)?;
        let cpu1 = session.server.cpu_us().map_err(|e| format!("cpu: {e}"))?;
        let rss_mb = session
            .server
            .rss_peak_mb()
            .map_err(|e| format!("rss: {e}"))?;
        let after = stats_map(&mut session.client)?;
        print_stats_delta(&before, &after);
        self.check_property(&before, &after)?;
        tally.add(self.finish(session)?);
        if latencies.is_empty() {
            return Err("no request completed in the timed window".to_owned());
        }
        let n = latencies.len() as u64;
        let lat = stats::summarize(&latencies);
        let note_setups = format!(
            "; median of {}",
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let metrics = vec![
            metric(
                "throughput_rps",
                "1/s",
                window_rate(&done),
                n,
                format!("; over {seconds} s"),
            ),
            metric("latency_p50_us", "us", lat.p50, n, String::new()),
            metric("latency_p90_us", "us", lat.p90, n, String::new()),
            metric(
                "server_cpu_us_per_req",
                "us",
                (cpu1 - cpu0) / n as f64,
                n,
                format!("; {:.3} s user+sys over the window", (cpu1 - cpu0) / 1e6),
            ),
            metric("server_rss_peak_mb", "MiB", rss_mb, 1, String::new()),
            metric(
                "setup_s",
                "s",
                stats::median(&setups),
                SETUPS as u64,
                note_setups,
            ),
            metric(
                "success_share",
                "share",
                1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
                tally.attempted,
                format!("; {} failed", tally.failed),
            ),
        ];
        Ok(tally.report(metrics))
    }

    fn traced(&self) -> Result<Report, String> {
        let (mut session, _) = self.start(0)?;
        let before = stats_map(&mut session.client)?;
        let width: usize = before
            .get("exec_threads")
            .and_then(|v| v.parse().ok())
            .ok_or("STATS has no exec_threads")?;
        // Alternate untraced and traced slices so drift hits both alike.
        let mut tcp = Tracer::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut next = 0;
        let slice = self.args.seconds as f64 / SLICES as f64;
        for k in 0..SLICES {
            if k % 2 == 0 {
                plain.extend(self.window(&mut session, &mut next, slice, None)?.0);
            } else {
                traced.extend(
                    self.window(&mut session, &mut next, slice, Some(&mut tcp))?
                        .0,
                );
            }
        }
        let after = stats_map(&mut session.client)?;
        self.check_property(&before, &after)?;
        let mut pings = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t0 = Instant::now();
            let reply = session
                .client
                .call("PING")
                .map_err(|e| format!("PING: {e}"))?;
            pings.push(t0.elapsed().as_secs_f64() * 1e6);
            if reply != "OK cmd=ping" {
                return Err(format!("PING answered `{reply}`"));
            }
        }
        let tally = self.finish(session)?;
        if plain.is_empty() || traced.is_empty() {
            return Err("no request completed in a timed slice".to_owned());
        }

        // The workload's own replay first; then short probes of the other
        // replays, so every layer metric has a value in every traced run.
        let seed = self.args.seed;
        let own = self.args.workload;
        let mut groups = vec![(own, self.replay(own, self.inputs, true, width)?)];
        for home in [Workload::CheckMiss, Workload::AdmitChurn, Workload::AbuSim] {
            if group_of(home) != group_of(own) {
                let inputs = inputs::generate(home, seed, 1);
                groups.push((home, self.replay(home, &inputs, false, width)?));
            }
        }

        let plain_mean = stats::mean(&plain);
        let traced_mean = stats::mean(&traced);
        let ping = stats::summarize(&pings);
        let own = &groups[0].1;
        let on_path = own.on_path_us_per_request();
        let residual = plain_mean - ping.mean - on_path;
        println!(
            "trace: untraced client mean {plain_mean:.3} us (n={}), traced {traced_mean:.3} us \
             (n={}), PING mean {:.3} us, in-process request path {on_path:.3} us/request \
             (n={}), residual {residual:.3} us",
            plain.len(),
            traced.len(),
            ping.mean,
            own.timed_requests()
        );
        let mut metrics = vec![
            metric(
                "service.server.ping_rtt_us_p50",
                "us",
                ping.p50,
                ping.n as u64,
                String::new(),
            ),
            metric(
                "service.server.residual_us_mean",
                "us",
                residual,
                plain.len() as u64,
                format!(
                    "; client {plain_mean:.3} - PING {:.3} - layers {on_path:.3}",
                    ping.mean
                ),
            ),
        ];
        for &(metric_name, unit) in LAYER_METRICS {
            let (g, home, value, n) = groups
                .iter()
                .enumerate()
                .find_map(|(g, (home, tr))| {
                    layer_value(tr, metric_name).map(|(v, n)| (g, *home, v, n))
                })
                .ok_or_else(|| format!("no replay measured {metric_name}"))?;
            let source = if g == 0 {
                String::new()
            } else {
                format!("; probe on a {} replay", home.name())
            };
            metrics.push(metric(metric_name, unit, value, n, source));
        }
        metrics.push(metric(
            "trace.overhead_share",
            "share",
            (traced_mean - plain_mean) / plain_mean,
            traced.len() as u64,
            String::new(),
        ));

        let mut all = tcp;
        for (_, tr) in &groups {
            all.absorb_spans(tr);
        }
        let path = self
            .work
            .join(format!("spans-{}.json", self.args.workload.name()));
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {seed}",
            self.args.workload.name()
        );
        all.write_json(&path, &header)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", all.span_count(), path.display());
        Ok(tally.report(metrics))
    }

    /// Replays `inputs` (of a workload whose replay is `home`'s) in this
    /// process: in full for the run's own workload, as a short probe for
    /// another one.
    fn replay(
        &self,
        home: Workload,
        inputs: &Inputs,
        own: bool,
        width: usize,
    ) -> Result<Tracer, String> {
        let size = |(full, probe): (usize, usize)| if own { full } else { probe };
        let mut tr = Tracer::default();
        match group_of(home) {
            Workload::AdmitChurn => {
                let dir = self.work.join(format!("replay-{}", std::process::id()));
                remove_dir(&dir);
                let replayed = trace::replay_registry(&mut tr, inputs, size(REPLAY_CHURN), &dir);
                remove_dir(&dir);
                replayed?;
            }
            Workload::AbuSim => trace::replay_abu(&mut tr, inputs, size(REPLAY_ABU), width)?,
            _ => trace::replay_check(&mut tr, inputs, size(REPLAY_CHECK)),
        }
        Ok(tr)
    }
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn report(self, metrics: Vec<Metric>) -> Report {
        Report {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Which replay measures a workload's own layers.
fn group_of(w: Workload) -> Workload {
    match w {
        Workload::CheckHit | Workload::CheckMiss => Workload::CheckMiss,
        other => other,
    }
}

/// Per-layer metrics read off a replay, in `BENCHMARK.json` order (the
/// PING, residual and overhead metrics come from the TCP passes).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("service.protocol.parse_us_mean", "us"),
    ("service.protocol.request_bytes_mean", "bytes"),
    ("service.cache.key_us_mean", "us"),
    ("service.cache.get_us_mean", "us"),
    ("service.cache.insert_us_mean", "us"),
    ("service.cache.evictions_per_insert", "count"),
    ("service.cache.hit_share", "share"),
    ("service.engine.check_us_mean", "us"),
    ("core.pdp.test_us_mean", "us"),
    ("core.ttp.test_us_mean", "us"),
    ("core.schedulable_share", "share"),
    ("registry.admit_us_mean", "us"),
    ("registry.remove_us_mean", "us"),
    ("registry.read_us_mean", "us"),
    ("registry.journal_us_mean", "us"),
    ("registry.evaluations_per_admit", "count"),
    ("registry.incremental_share", "share"),
    ("registry.journal_bytes_per_mutation", "bytes"),
    ("store.bytes_per_stream", "bytes"),
    ("workload.generate_us_mean", "us"),
    ("breakdown.saturate_ms_mean", "ms"),
    ("breakdown.tests_per_sample", "count"),
    ("exec.abu_serial_ms_mean", "ms"),
    ("exec.abu_parallel_ms_mean", "ms"),
    ("exec.speedup", "x"),
    ("sim.simulate_ms_mean", "ms"),
    ("sim.events_per_request", "count"),
    ("sim.ns_per_event", "ns"),
];

/// A layer metric's value and sample count in one replay, or `None` when
/// the replay did not run that layer.
fn layer_value(tr: &Tracer, metric: &str) -> Option<(f64, u64)> {
    let mean = |span: &str, scale: f64| {
        let a = tr.acc(span);
        (a.n > 0).then(|| (a.mean() / scale, a.n))
    };
    match metric {
        "service.protocol.parse_us_mean" => mean(name::PARSE, 1e3),
        "service.protocol.request_bytes_mean" => mean(name::REQUEST_BYTES, 1.0),
        "service.cache.key_us_mean" => mean(name::CACHE_KEY, 1e3),
        "service.cache.get_us_mean" => mean(name::CACHE_GET, 1e3),
        "service.cache.insert_us_mean" => mean(name::CACHE_INSERT, 1e3),
        "service.cache.evictions_per_insert" => mean(name::CACHE_EVICTIONS, 1.0),
        "service.cache.hit_share" => mean(name::CACHE_HIT, 1.0),
        "service.engine.check_us_mean" => mean(name::ENGINE_CHECK, 1e3),
        "core.pdp.test_us_mean" => mean(name::PDP_TEST, 1e3),
        "core.ttp.test_us_mean" => mean(name::TTP_TEST, 1e3),
        "core.schedulable_share" => mean(name::SCHEDULABLE, 1.0),
        "registry.admit_us_mean" => mean(name::REG_ADMIT, 1e3),
        "registry.remove_us_mean" => mean(name::REG_REMOVE, 1e3),
        "registry.read_us_mean" => mean(name::REG_READ, 1e3),
        "registry.journal_us_mean" => mean(name::JOURNAL_NS, 1e3),
        "registry.evaluations_per_admit" => mean(name::EVALUATIONS, 1.0),
        "registry.incremental_share" => mean(name::INCREMENTAL, 1.0),
        "workload.generate_us_mean" => mean(name::GENERATE, 1e3),
        "breakdown.saturate_ms_mean" => mean(name::SATURATE, 1e6),
        "breakdown.tests_per_sample" => mean(name::TESTS, 1.0),
        "exec.abu_serial_ms_mean" => mean(name::ABU_SERIAL, 1e6),
        "exec.abu_parallel_ms_mean" => mean(name::ABU_PARALLEL, 1e6),
        "exec.speedup" => {
            let (serial, n) = mean(name::ABU_SERIAL, 1.0)?;
            let (parallel, _) = mean(name::ABU_PARALLEL, 1.0)?;
            Some((serial / parallel, n))
        }
        "sim.simulate_ms_mean" => mean(name::SIMULATE, 1e6),
        "sim.events_per_request" => mean(name::EVENTS, 1.0),
        derived => tr.derived(derived),
    }
}

fn metric(
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
    note: String,
) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
        note,
    }
}

/// Completed requests per second over the window: the requests after
/// the first completion over the time from the first completion to the
/// last, so no partial request at either edge is counted.
fn window_rate(done: &[f64]) -> f64 {
    match (done.first(), done.last()) {
        (Some(first), Some(last)) if last > first => (done.len() - 1) as f64 / (last - first),
        _ => 0.0,
    }
}

fn stats_map(client: &mut Client) -> Result<BTreeMap<String, String>, String> {
    let reply = client.call("STATS").map_err(|e| format!("STATS: {e}"))?;
    Ok(reply
        .split_whitespace()
        .filter_map(|w| w.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect())
}

/// Prints what the server itself counted over the window: the workload's
/// properties as the server saw them.
fn print_stats_delta(before: &BTreeMap<String, String>, after: &BTreeMap<String, String>) {
    let num = |m: &BTreeMap<String, String>, k: &str| -> f64 {
        m.get(k).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    };
    let mut line = "server over the window:".to_owned();
    for key in [
        "ok",
        "errors",
        "busy",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "incremental_tests",
        "full_tests",
        "journal_bytes",
    ] {
        let _ = write!(line, " {key}=+{}", num(after, key) - num(before, key));
    }
    for key in [
        "cache_entries",
        "cache_capacity",
        "registry_streams",
        "exec_threads",
    ] {
        let _ = write!(line, " {key}={}", num(after, key));
    }
    println!("{line}");
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}
