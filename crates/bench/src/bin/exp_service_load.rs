//! SERVICE-LOAD — throughput and tail latency of the admission-control
//! server (`ringrt-service`) under concurrent clients.
//!
//! Spawns the server in-process on an ephemeral port, drives it with
//! concurrent TCP clients issuing a mix of CHECK and SATURATION requests,
//! and reports throughput plus p50/p99 request latency for two phases:
//!
//! * **cold** — every request is distinct, so each one runs a real
//!   analysis (all cache misses);
//! * **warm** — the same request list replayed, so each verdict is served
//!   from the canonicalizing result cache;
//! * **warm-batch** — the warm list again, but framed as `BATCH <n>`
//!   pipelines so each chunk crosses the socket in one write per
//!   direction.
//!
//! The cold→warm gap is the cache's value; the warm→warm-batch gap is
//! pure per-request syscall and wakeup overhead, since both phases serve
//! every verdict from the cache.
//!
//! With `--mixed` the binary instead runs the **mixed-traffic phase**:
//! two closed-loop clients replaying cache-warm `CHECK`s
//! beside one client sending fresh `CHECK`s (perfbench check-miss's
//! shape), and with `--writer` a fourth client cycling journaled
//! `ADMIT`/`REMOVE` pairs. It prints hits/s, hit p50/p99, misses/s and
//! miss p50/p99 from the raw samples, and exits 1 on any non-`OK` reply
//! or a `cached=` flag the traffic rules out. `--addr HOST:PORT` drives an
//! already running `ringrt serve` (with `--state-dir` for `--writer`)
//! instead of an in-process server, so two builds can be compared with
//! the same client.
//!
//! With `--registry` the binary instead runs the **registry-reads phase**:
//! it registers a journaled 5 000-stream FDDI ring (8 000 stations, its
//! `ADMIT`s sent in `BATCH`es), then times `PING`, `STATS`, `SHOW`,
//! `REPLICATION` and a cached `SIMULATE ring=` with the registry idle,
//! beside a client looping `CHECK ring=`, and beside one looping
//! `COMPACT`. It prints p50 and p99 per command from the raw samples, and
//! exits 1 on any non-`OK` reply or a `SIMULATE` reply without
//! `cached=true`. `--addr` drives a running `ringrt serve --state-dir …`;
//! without it the phase spawns a journaled server of its own.
//!
//! With `--memory --server <ringrt binary>` the binary instead runs the
//! **memory probe**: it starts that binary as `serve --addr 127.0.0.1:0`
//! in a process of its own and sends it perfbench abu-sim's mix — `ABU
//! stations=100` walking the 39 Figure-1 points with fresh seeds (22
//! samples on 802.5, 440 on FDDI), every fourth request a one-second
//! `SIMULATE` of a fresh 10–50-stream set at 20–50 % utilization — one
//! request at a time on one connection. It reads the server's `VmHWM`
//! from `/proc/<pid>/status` at every 10 % of the run and prints the KiB
//! per request over the last two thirds, the final `worker_jobs` and the
//! server's live threads (the entries of `/proc/<pid>/task`); it exits 1
//! on any non-`OK` reply. `--requests N` sets the run's length: 1 500
//! requests by default, 300 with `--quick`. A server twice as fast
//! serves twice the requests in one perfbench window, so compare builds
//! at the request counts each serves in that window.
//!
//! With `--connections` the binary instead runs the **connection-count
//! sweep**: the server's event loop is loaded with 1k/10k/50k *idle*
//! connections (held open by re-exec'd holder subprocesses, since one
//! process would exhaust its own fd budget racing the server for
//! descriptors) while 4 active clients replay cache-warm `CHECK`s. The
//! claim under test is that p99 active latency stays bounded — within 2×
//! the 1k-connection baseline — because epoll readiness scales with
//! *active* fds, not open ones. The rows run in interleaved rounds (the
//! baseline, then each idle count), and the verdict is the median of the
//! rounds' worst-row p99 ratios: one row's p99 is a single tail sample
//! of a host whose speed moves between runs. The binary exits 1 when the
//! median is past the bound. Results land in `BENCH_connections.json`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_bench::{banner, wire_set, ExpOptions};
use ringrt_breakdown::sweep::default_bandwidths_mbps;
use ringrt_breakdown::table::{cell, Table};
use ringrt_service::{spawn, ServiceConfig};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

/// Builds one request line; `unique` differentiates the payload so the
/// cold phase cannot hit the cache.
fn request_line(i: usize, unique: usize) -> String {
    let protocol = ["modified", "802.5", "fddi"][i % 3];
    let mbps = if protocol == "fddi" { 100.0 } else { 16.0 };
    let bits_a = 20_000 + 8 * unique;
    let bits_b = 60_000 + 8 * unique;
    let set = format!("20,{bits_a};50,{bits_b}");
    if i.is_multiple_of(4) {
        format!("SATURATION mbps={mbps} set={set} protocol={protocol}")
    } else {
        format!("CHECK mbps={mbps} set={set} protocol={protocol}")
    }
}

struct PhaseResult {
    /// Every request's latency in nanoseconds, sorted.
    samples: Vec<u64>,
    requests: u64,
    errors: u64,
    elapsed_s: f64,
}

/// Joins the per-client worker threads into one merged phase result.
fn collect(
    handles: Vec<std::thread::JoinHandle<(Vec<u64>, u64, u64)>>,
    started: Instant,
) -> PhaseResult {
    let mut samples = Vec::new();
    let mut requests = 0;
    let mut errors = 0;
    for h in handles {
        let (client, n, e) = h.join().expect("client thread");
        samples.extend(client);
        requests += n;
        errors += e;
    }
    samples.sort_unstable();
    PhaseResult {
        samples,
        requests,
        errors,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Runs `clients` concurrent connections, each sending its share of
/// `lines` one request per write, and collects every request's latency.
fn run_phase(addr: SocketAddr, clients: usize, lines: &[String]) -> PhaseResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let my_lines: Vec<String> = lines.iter().skip(c).step_by(clients).cloned().collect();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut samples = Vec::with_capacity(my_lines.len());
                let mut errors = 0u64;
                let mut resp = String::new();
                for line in &my_lines {
                    let t0 = Instant::now();
                    writer
                        .write_all(format!("{line}\n").as_bytes())
                        .expect("send");
                    resp.clear();
                    reader.read_line(&mut resp).expect("recv");
                    samples.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    if !resp.starts_with("OK") {
                        errors += 1;
                    }
                }
                (samples, my_lines.len() as u64, errors)
            })
        })
        .collect();
    collect(handles, started)
}

/// Like [`run_phase`], but each client frames its share as `BATCH <n>`
/// pipelines of up to `chunk` requests: one `write` carries the whole
/// chunk out and the server answers it with one `write` back. Latency is
/// recorded per request, amortized across its chunk.
fn run_batched_phase(
    addr: SocketAddr,
    clients: usize,
    lines: &[String],
    chunk: usize,
) -> PhaseResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let my_lines: Vec<String> = lines.iter().skip(c).step_by(clients).cloned().collect();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut samples = Vec::with_capacity(my_lines.len());
                let mut errors = 0u64;
                let mut resp = String::new();
                for batch in my_lines.chunks(chunk) {
                    let mut frame = format!("BATCH {}\n", batch.len());
                    for line in batch {
                        frame.push_str(line);
                        frame.push('\n');
                    }
                    let t0 = Instant::now();
                    writer.write_all(frame.as_bytes()).expect("send");
                    for _ in batch {
                        resp.clear();
                        reader.read_line(&mut resp).expect("recv");
                        if !resp.starts_with("OK") {
                            errors += 1;
                        }
                    }
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    samples.extend(std::iter::repeat_n(ns / batch.len() as u64, batch.len()));
                }
                (samples, my_lines.len() as u64, errors)
            })
        })
        .collect();
    collect(handles, started)
}

fn stats_field(addr: SocketAddr, key: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"STATS\n").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    resp.split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{key}=")[..]))
        .unwrap_or("?")
        .to_owned()
}

/// Cache-hit clients in the mixed phase.
const MIXED_HIT_CLIENTS: usize = 2;

/// Distinct lines each hit client replays: few enough that a hit client
/// refreshes each of its entries long before the fresh client's inserts
/// could make it its shard's least recently used.
const HIT_LINES_PER_CLIENT: usize = 64;

/// Fresh lines generated per second of window, above what one closed-loop
/// client reaches on the development host, so the pool outlasts the
/// window (a client that runs out stops early; its rate uses its own
/// elapsed time).
const FRESH_LINES_PER_SECOND: usize = 15_000;

/// One `CHECK` as perfbench's check-miss draws them: a fresh 10–100-stream
/// set from the paper's population at a Figure-1 bandwidth, on one of the
/// three protocols.
fn fresh_check_line(rng: &mut StdRng, grid: &[f64]) -> String {
    let set = MessageSetGenerator::paper_population(rng.gen_range(10..=100)).generate(rng);
    format!(
        "CHECK mbps={} protocol={} set={}",
        grid[rng.gen_range(0..grid.len())],
        ["802.5", "modified", "fddi"][rng.gen_range(0..3)],
        wire_set(&set)
    )
}

/// What one closed-loop client of the mixed phase measured.
struct ClientRun {
    /// Per-request latency, nanoseconds, in send order.
    samples: Vec<u64>,
    /// Replies the traffic rules out, with the request that drew them.
    errors: Vec<String>,
    /// Start of the window to the client's last reply, seconds.
    elapsed_s: f64,
}

/// Sends `lines` (cycled when `cycle`) one at a time until `window` has
/// passed, timing each reply and checking it with `expect`. The window starts for
/// every client at once, when `start` releases.
fn closed_loop(
    stream: TcpStream,
    lines: &[String],
    cycle: bool,
    expect: impl Fn(&str, &str) -> bool,
    start: &Barrier,
    window: Duration,
) -> ClientRun {
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut run = ClientRun {
        samples: Vec::new(),
        errors: Vec::new(),
        elapsed_s: 0.0,
    };
    let mut resp = String::new();
    start.wait();
    let started = Instant::now();
    let mut next = lines.iter();
    while started.elapsed() < window {
        let line = match next.next() {
            Some(line) => line,
            None if cycle => {
                next = lines.iter();
                continue;
            }
            None => break,
        };
        let t0 = Instant::now();
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        resp.clear();
        reader.read_line(&mut resp).expect("recv");
        run.samples
            .push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let reply = resp.trim_end();
        if !expect(line, reply) && run.errors.len() < 8 {
            run.errors.push(format!("{reply}  <-  {line:.120}"));
        }
    }
    run.elapsed_s = started.elapsed().as_secs_f64();
    run
}

/// Exact nearest-rank percentile of raw samples (nanoseconds), in µs.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// The mixed-traffic phase (see the module docs). Returns whether every
/// reply was the one the traffic calls for.
fn mixed_phase(opts: &ExpOptions, target: Option<&str>, writer: bool) -> bool {
    let window = Duration::from_secs(if opts.quick { 1 } else { 4 });
    let state_dir = std::env::temp_dir().join(format!("ringrt-mixed-{}", std::process::id()));
    let server = match target {
        Some(_) => None,
        None => {
            let _ = std::fs::remove_dir_all(&state_dir);
            Some(
                spawn(ServiceConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    state_dir: writer.then(|| state_dir.clone()),
                    ..ServiceConfig::default()
                })
                .expect("spawn service"),
            )
        }
    };
    let addr = match (target, &server) {
        (Some(addr), _) => addr.to_owned(),
        (None, Some(server)) => server.addr().to_string(),
        (None, None) => unreachable!("a server is spawned when no address is given"),
    };
    let connect = || TcpStream::connect(&addr).expect("connect to the server");

    let grid = default_bandwidths_mbps();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let hit_lines: Vec<Vec<String>> = (0..MIXED_HIT_CLIENTS)
        .map(|_| {
            (0..HIT_LINES_PER_CLIENT)
                .map(|_| fresh_check_line(&mut rng, &grid))
                .collect()
        })
        .collect();
    let fresh_lines: Vec<String> = (0..FRESH_LINES_PER_SECOND * window.as_secs() as usize)
        .map(|_| fresh_check_line(&mut rng, &grid))
        .collect();
    println!(
        "# mixed: {MIXED_HIT_CLIENTS} cache-hit clients + 1 fresh-CHECK client{}, {} s window, \
         server {addr}",
        if writer {
            " + 1 journaled ADMIT/REMOVE writer"
        } else {
            ""
        },
        window.as_secs()
    );

    let start = Arc::new(Barrier::new(MIXED_HIT_CLIENTS + 1 + usize::from(writer)));
    let ok_with = |cached: &'static str| {
        move |_: &str, reply: &str| reply.starts_with("OK cmd=check ") && reply.ends_with(cached)
    };
    let mut hit_handles = Vec::new();
    for lines in hit_lines {
        // Warm-up on the client's own connection fills the cache.
        let stream = connect();
        let warm = closed_loop(
            stream.try_clone().expect("clone"),
            &lines,
            false,
            |_, reply| reply.starts_with("OK cmd=check "),
            &Barrier::new(1),
            Duration::MAX,
        );
        let start = Arc::clone(&start);
        hit_handles.push(std::thread::spawn(move || {
            let mut run = closed_loop(
                stream,
                &lines,
                true,
                ok_with(" cached=true"),
                &start,
                window,
            );
            run.errors.extend(warm.errors);
            run
        }));
    }
    let fresh = {
        let (stream, start) = (connect(), Arc::clone(&start));
        std::thread::spawn(move || {
            closed_loop(
                stream,
                &fresh_lines,
                false,
                ok_with(" cached=false"),
                &start,
                window,
            )
        })
    };
    let writes = writer.then(|| {
        let ring = format!("mixed-{}", std::process::id());
        let mut setup = BufReader::new(connect());
        let register = format!("REGISTER ring={ring} protocol=fddi mbps=100 stations=64\n");
        setup
            .get_mut()
            .write_all(register.as_bytes())
            .expect("send");
        let mut reply = String::new();
        setup.read_line(&mut reply).expect("recv");
        assert!(reply.starts_with("OK"), "REGISTER refused: {reply}");
        let lines = [
            format!("ADMIT ring={ring} stream=w period_ms=20 bits=1000"),
            format!("REMOVE ring={ring} stream=w"),
        ];
        let (stream, start) = (setup.into_inner(), Arc::clone(&start));
        std::thread::spawn(move || {
            let expect = |line: &str, reply: &str| {
                if line.starts_with("ADMIT") {
                    reply.starts_with("OK cmd=admit ") && reply.contains(" admitted=true ")
                } else {
                    reply.starts_with("OK cmd=remove ")
                }
            };
            closed_loop(stream, &lines, true, expect, &start, window)
        })
    });

    let hits: Vec<ClientRun> = hit_handles
        .into_iter()
        .map(|h| h.join().expect("hit client"))
        .collect();
    let fresh = fresh.join().expect("fresh client");
    let writes = writes.map(|h| h.join().expect("writer"));

    let mut hit_samples: Vec<u64> = hits.iter().flat_map(|r| r.samples.clone()).collect();
    hit_samples.sort_unstable();
    let hits_per_s: f64 = hits
        .iter()
        .map(|r| r.samples.len() as f64 / r.elapsed_s)
        .sum();
    let mut miss_samples = fresh.samples.clone();
    miss_samples.sort_unstable();
    let errors: Vec<&String> = hits
        .iter()
        .chain(std::iter::once(&fresh))
        .chain(writes.iter())
        .flat_map(|r| r.errors.iter())
        .collect();
    let mut table = Table::new(&[
        "phase",
        "hit_clients",
        "writer",
        "hits",
        "hits_per_s",
        "hit_p50_us",
        "hit_p99_us",
        "misses",
        "misses_per_s",
        "miss_p50_us",
        "miss_p99_us",
        "writes",
        "errors",
    ]);
    table.push_row(&[
        "mixed".into(),
        MIXED_HIT_CLIENTS.to_string(),
        if writer { "journaled" } else { "none" }.into(),
        hit_samples.len().to_string(),
        cell(hits_per_s, 1),
        cell(percentile_us(&hit_samples, 0.5), 1),
        cell(percentile_us(&hit_samples, 0.99), 1),
        miss_samples.len().to_string(),
        cell(miss_samples.len() as f64 / fresh.elapsed_s, 1),
        cell(percentile_us(&miss_samples, 0.5), 1),
        cell(percentile_us(&miss_samples, 0.99), 1),
        writes.as_ref().map_or(0, |w| w.samples.len()).to_string(),
        errors.len().to_string(),
    ]);
    println!();
    print!("{}", table.to_csv());
    for error in &errors {
        eprintln!("unexpected reply: {error}");
    }
    if let Some(server) = server {
        server.join();
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    errors.is_empty()
}

/// Streams the registry-reads phase admits to its ring.
const REGISTRY_STREAMS: usize = 5_000;

/// `ADMIT` lines per `BATCH` while the registry-reads phase fills its ring.
const ADMIT_BATCH: usize = 500;

/// The requests the registry-reads phase times; `{ring}` is its ring.
const REGISTRY_READS: [&str; 5] = [
    "PING",
    "STATS",
    "SHOW",
    "REPLICATION",
    "SIMULATE ring={ring} seconds=0.01 seed=1",
];

/// One connection's request/reply round trip.
struct Line {
    reader: BufReader<TcpStream>,
}

impl Line {
    fn connect(addr: &str) -> Line {
        Line {
            reader: BufReader::new(TcpStream::connect(addr).expect("connect to the server")),
        }
    }

    fn send(&mut self, text: &str) {
        self.reader
            .get_mut()
            .write_all(text.as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_owned()
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.send(&format!("{request}\n"));
        self.recv()
    }
}

/// Loops `request` on a connection of its own until `stop` is set, and
/// returns the replies that were not `OK`, with how many it sent.
fn background(
    addr: &str,
    request: String,
    stop: Arc<AtomicBool>,
) -> JoinHandle<(u64, Vec<String>)> {
    let mut line = Line::connect(addr);
    std::thread::spawn(move || {
        let (mut sent, mut errors) = (0, Vec::new());
        while !stop.load(Ordering::Relaxed) {
            let reply = line.roundtrip(&request);
            sent += 1;
            if !reply.starts_with("OK") && errors.len() < 8 {
                errors.push(format!("{reply:.160}  <-  {request}"));
            }
        }
        (sent, errors)
    })
}

/// The registry-reads phase (see the module docs). Returns whether every
/// reply was the one it should be.
fn registry_phase(opts: &ExpOptions, target: Option<&str>) -> bool {
    let samples = if opts.quick { 200 } else { 2_000 };
    let state_dir = std::env::temp_dir().join(format!("ringrt-registry-{}", std::process::id()));
    let server = target.is_none().then(|| {
        let _ = std::fs::remove_dir_all(&state_dir);
        spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: Some(state_dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn service")
    });
    let addr = match (target, &server) {
        (Some(addr), _) => addr.to_owned(),
        (None, Some(server)) => server.addr().to_string(),
        (None, None) => unreachable!("a server is spawned when no address is given"),
    };
    let ring = format!("reads-{}", std::process::id());
    let mut errors: Vec<String> = Vec::new();
    let mut expect = |reply: String, request: &str, ok: bool| {
        if !ok && errors.len() < 16 {
            errors.push(format!("{reply:.160}  <-  {request:.80}"));
        }
    };

    let mut client = Line::connect(&addr);
    let register = format!("REGISTER ring={ring} protocol=fddi mbps=100 stations=8000");
    let reply = client.roundtrip(&register);
    let registered = reply.starts_with("OK");
    expect(reply, &register, registered);
    let setup = Instant::now();
    for first in (0..REGISTRY_STREAMS).step_by(ADMIT_BATCH) {
        let last = (first + ADMIT_BATCH).min(REGISTRY_STREAMS);
        let mut batch = format!("BATCH {}\n", last - first);
        for i in first..last {
            batch.push_str(&format!(
                "ADMIT ring={ring} stream=s{i} period_ms={} bits=64\n",
                10_000 + i
            ));
        }
        client.send(&batch);
        for _ in first..last {
            let reply = client.recv();
            let admitted = reply.contains(" admitted=true ");
            expect(reply, "ADMIT", admitted);
        }
    }
    let requests: Vec<String> = REGISTRY_READS
        .iter()
        .map(|r| r.replace("{ring}", &ring))
        .collect();
    let simulate = &requests[requests.len() - 1];
    let warm = client.roundtrip(simulate);
    let warmed = warm.starts_with("OK cmd=simulate ");
    expect(warm, simulate, warmed);
    println!(
        "# registry reads: {REGISTRY_STREAMS}-stream journaled FDDI ring `{ring}` set up in {:.1} s, \
         {samples} samples per command and condition, server {addr}",
        setup.elapsed().as_secs_f64()
    );

    let mut table = Table::new(&[
        "condition",
        "command",
        "samples",
        "p50_us",
        "p99_us",
        "beside",
    ]);
    for (condition, loop_request) in [
        ("idle", None),
        ("check-loop", Some(format!("CHECK ring={ring}"))),
        ("compact-loop", Some("COMPACT".to_owned())),
    ] {
        let stop = Arc::new(AtomicBool::new(false));
        let looping = loop_request.map(|r| background(&addr, r, Arc::clone(&stop)));
        let mut timings: Vec<Vec<u64>> = vec![Vec::with_capacity(samples); requests.len()];
        for _ in 0..samples {
            for (request, times) in requests.iter().zip(&mut timings) {
                let t0 = Instant::now();
                let reply = client.roundtrip(request);
                times.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                let ok = reply.starts_with("OK")
                    && (request != simulate || reply.ends_with(" cached=true"));
                expect(reply, request, ok);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let beside = match looping.map(|h| h.join().expect("background client")) {
            Some((sent, loop_errors)) => {
                for e in loop_errors {
                    expect(e, "background", false);
                }
                sent.to_string()
            }
            None => "-".to_owned(),
        };
        for (request, mut times) in requests.iter().zip(timings) {
            times.sort_unstable();
            let command = request.split(' ').next().unwrap_or(request);
            table.push_row(&[
                condition.into(),
                if command == "SIMULATE" {
                    "SIMULATE-cached"
                } else {
                    command
                }
                .into(),
                times.len().to_string(),
                cell(percentile_us(&times, 0.5), 1),
                cell(percentile_us(&times, 0.99), 1),
                beside.clone(),
            ]);
        }
    }
    let reply = client.roundtrip(&format!("UNREGISTER ring={ring}"));
    let unregistered = reply.starts_with("OK");
    expect(reply, "UNREGISTER", unregistered);
    println!();
    print!("{}", table.to_csv());
    for error in &errors {
        eprintln!("unexpected reply: {error}");
    }
    if let Some(server) = server {
        server.join();
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    errors.is_empty()
}

/// Most idle connections one holder subprocess keeps open; beyond this we
/// shard across children so no single process nears its own fd limit.
const HOLDER_CAP: usize = 15_000;

/// Descriptors reserved for everything that is not a held connection:
/// the server's own ends live in *this* process, plus stdio, the
/// listener, wakeup pipes, and the active-load clients.
const FD_MARGIN: u64 = 2_000;

/// Hidden holder mode (`--hold-idle N --target ADDR`): opens `N`
/// connections, reports `HELD <n>` on stdout, and keeps them open until a
/// line arrives on stdin. Never returns.
fn hold_idle(count: usize, target: &str) -> ! {
    let _ = ringrt_net::rlimit::raise_nofile_to_hard();
    let addr: SocketAddr = target.parse().expect("--target ADDR");
    let mut held: Vec<TcpStream> = Vec::with_capacity(count);
    let mut failures = 0u32;
    while held.len() < count {
        match TcpStream::connect(addr) {
            Ok(s) => {
                held.push(s);
                failures = 0;
                // Pace the connect storm so the listener's accept backlog
                // never overflows.
                if held.len().is_multiple_of(256) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Err(e) => {
                failures += 1;
                if failures > 20 {
                    eprintln!("holder: giving up at {} conns: {e}", held.len());
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    println!("HELD {}", held.len());
    std::io::stdout().flush().expect("flush");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    drop(held);
    std::process::exit(0);
}

struct Holder {
    child: Child,
    held: usize,
}

/// Spawns holder subprocesses until `target` connections are open against
/// `addr`, reading each child's `HELD <n>` handshake.
fn spawn_holders(addr: SocketAddr, target: usize) -> Vec<Holder> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut holders = Vec::new();
    let mut remaining = target;
    while remaining > 0 {
        let want = remaining.min(HOLDER_CAP);
        let mut child = Command::new(&exe)
            .arg("--hold-idle")
            .arg(want.to_string())
            .arg("--target")
            .arg(addr.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn holder");
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().expect("holder stdout"))
            .read_line(&mut line)
            .expect("holder handshake");
        let held: usize = line
            .trim()
            .strip_prefix("HELD ")
            .and_then(|n| n.parse().ok())
            .expect("HELD <n> handshake");
        holders.push(Holder { child, held });
        remaining -= want;
    }
    holders
}

/// Releases the held connections and reaps the holder children.
fn release_holders(holders: Vec<Holder>) {
    for mut holder in holders {
        let _ = holder
            .child
            .stdin
            .as_mut()
            .expect("holder stdin")
            .write_all(b"DONE\n");
        let _ = holder.child.wait();
    }
}

/// One abu-sim request as perfbench draws them: an `ABU` at the next
/// Figure-1 point of `walk`, or (every fourth) a one-second `SIMULATE` of
/// a fresh 10–50-stream set scaled to 20–50 % utilization there.
fn abu_sim_line(k: usize, rng: &mut StdRng, walks: &mut [Vec<(f64, &'static str)>; 2]) -> String {
    let walk = &mut walks[usize::from(k % 4 == 3)];
    if walk.is_empty() {
        *walk = default_bandwidths_mbps()
            .into_iter()
            .flat_map(|mbps| ["802.5", "modified", "fddi"].map(|p| (mbps, p)))
            .collect();
        for i in (1..walk.len()).rev() {
            walk.swap(i, rng.gen_range(0..=i));
        }
    }
    let (mbps, protocol) = walk.pop().expect("a refilled walk is not empty");
    if k % 4 == 3 {
        let set = MessageSetGenerator::paper_population(rng.gen_range(10..=50)).generate(rng);
        let target = rng.gen_range(0.2..0.5);
        let set = set.with_scaled_lengths(target / set.utilization(Bandwidth::from_mbps(mbps)));
        format!(
            "SIMULATE mbps={mbps} protocol={protocol} seconds=1 seed={} set={}",
            rng.gen::<u64>(),
            wire_set(&set)
        )
    } else {
        let samples = if protocol == "fddi" { 440 } else { 22 };
        format!(
            "ABU mbps={mbps} stations=100 samples={samples} seed={} protocol={protocol}",
            rng.gen::<u64>()
        )
    }
}

/// The `VmHWM` of process `pid`, KiB.
fn vm_hwm_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/<pid>/status")
}

/// The memory probe: abu-sim's mix against a `ringrt serve` child, its
/// peak RSS read at every tenth of the run.
fn memory_probe(opts: &ExpOptions, server: &str, requests: Option<usize>) -> bool {
    banner(
        "SERVICE-MEMORY",
        "server peak RSS growth per request under abu-sim's mix, one connection",
        opts,
    );
    let total = requests.unwrap_or(if opts.quick { 300 } else { 1_500 });
    assert!(total >= 10, "--requests must be at least 10");
    let mut child = Command::new(server)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {server}: {e}"));
    let mut banner_line = String::new();
    BufReader::new(child.stdout.take().expect("server stdout"))
        .read_line(&mut banner_line)
        .expect("server banner");
    let addr: SocketAddr = banner_line
        .split_whitespace()
        .find_map(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no address in `{banner_line}`"));
    let pid = child.id();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut walks = [Vec::new(), Vec::new()];
    let mut table = Table::new(&["requests", "vm_hwm_kib"]);
    let mut marks = vec![(0usize, vm_hwm_kib(pid))];
    let mut errors = 0usize;
    let mut reply = String::new();
    let started = Instant::now();
    for k in 0..total {
        let line = abu_sim_line(k, &mut rng, &mut walks);
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        reply.clear();
        reader.read_line(&mut reply).expect("recv");
        if !reply.starts_with("OK") {
            errors += 1;
            eprintln!("non-OK reply to `{line}`: {}", reply.trim_end());
        }
        if (k + 1) % (total / 10) == 0 {
            marks.push((k + 1, vm_hwm_kib(pid)));
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    for &(n, kib) in &marks {
        table.push_row(&[n.to_string(), kib.to_string()]);
    }
    print!("{}", table.to_csv());
    let third = marks[marks.len() / 3];
    let last = marks[marks.len() - 1];
    let per_request = (last.1 as f64 - third.1 as f64) / (last.0 - third.0) as f64;
    writer.write_all(b"STATS\n").expect("send");
    reply.clear();
    reader.read_line(&mut reply).expect("recv");
    let jobs = reply
        .split_whitespace()
        .find_map(|f| f.strip_prefix("worker_jobs="))
        .unwrap_or("?")
        .to_owned();
    let threads = std::fs::read_dir(format!("/proc/{pid}/task")).map_or(0, Iterator::count);
    writer.write_all(b"SHUTDOWN\n").expect("send");
    reply.clear();
    let _ = reader.read_line(&mut reply);
    let _ = child.wait();
    println!(
        "# {total} requests in {elapsed:.1} s; VmHWM {} -> {} KiB; {per_request:.3} KiB per \
         request over requests {}..{}; worker_jobs={jobs}; threads={threads}; {errors} non-OK \
         replies",
        marks[0].1, last.1, third.0, last.0
    );
    errors == 0
}

/// Interleaved rounds of the connection sweep.
const SWEEP_ROUNDS: usize = 5;

struct SweepRow {
    round: usize,
    target: usize,
    held: usize,
    gauge: String,
    result: PhaseResult,
    wakeups: String,
    ready_events: String,
    accept_shed: String,
}

/// The connection-count sweep: for each target, park that many idle
/// connections on an event-front server and measure active cache-warm
/// CHECK latency alongside them, in [`SWEEP_ROUNDS`] interleaved rounds.
/// Returns whether the median round's worst p99 ratio is within bound.
fn connection_sweep(opts: &ExpOptions) -> bool {
    banner(
        "SERVICE-LOAD/CONNECTIONS",
        "active-request tail latency vs idle connection count",
        opts,
    );

    let soft = ringrt_net::rlimit::raise_nofile_to_hard().unwrap_or(1024);
    let budget = usize::try_from(soft.saturating_sub(FD_MARGIN)).unwrap_or(usize::MAX);
    let targets: Vec<usize> = if opts.quick {
        vec![100, 1_000]
    } else {
        vec![1_000, 10_000, 50_000]
    };
    let clients = 4;
    let per_client = (opts.samples * 10).clamp(200, 2_000);
    let workers = ringrt_exec::configured_threads().max(4);
    println!(
        "# fd soft limit {soft} (budget {budget} held conns), \
         {clients} active clients × {per_client} warm CHECKs per row, \
         {SWEEP_ROUNDS} rounds"
    );

    let warm_lines: Vec<String> = (0..clients * per_client)
        .map(|i| request_line(i, 0))
        .collect();
    let mut rows: Vec<SweepRow> = Vec::new();
    for (round, &want) in (0..SWEEP_ROUNDS).flat_map(|r| targets.iter().map(move |t| (r, t))) {
        let target = want.min(budget);
        if target < want && round == 0 {
            println!("# clamping {want} -> {target} idle conns (fd soft limit {soft})");
        }
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_depth: 4 * warm_lines.len().max(16),
            default_deadline_ms: 60_000,
            ..ServiceConfig::default()
        })
        .expect("spawn service");
        let addr = server.addr();
        let holders = spawn_holders(addr, target);
        let held: usize = holders.iter().map(|h| h.held).sum();

        let _prime = run_phase(addr, clients, &warm_lines);
        let result = run_phase(addr, clients, &warm_lines);
        let row = SweepRow {
            round,
            target,
            held,
            gauge: stats_field(addr, "connections_open"),
            result,
            wakeups: stats_field(addr, "loop_wakeups"),
            ready_events: stats_field(addr, "loop_ready_events"),
            accept_shed: stats_field(addr, "accept_shed"),
        };
        release_holders(holders);
        server.join();
        rows.push(row);
    }

    let mut table = Table::new(&[
        "round",
        "idle_conns",
        "held",
        "gauge",
        "requests",
        "errors",
        "throughput_rps",
        "p50_us",
        "p99_us",
        "loop_wakeups",
        "ready_events",
    ]);
    for row in &rows {
        table.push_row(&[
            row.round.to_string(),
            row.target.to_string(),
            row.held.to_string(),
            row.gauge.clone(),
            row.result.requests.to_string(),
            row.result.errors.to_string(),
            cell(row.result.requests as f64 / row.result.elapsed_s, 1),
            cell(percentile_us(&row.result.samples, 0.5), 1),
            cell(percentile_us(&row.result.samples, 0.99), 1),
            row.wakeups.clone(),
            row.ready_events.clone(),
        ]);
    }
    println!();
    print!("{}", table.to_csv());
    println!();

    // The claim is that p99 stays bounded at *every* scale, so each round
    // judges its worst row against its own baseline, not just the largest.
    let p99 = |row: &SweepRow| percentile_us(&row.result.samples, 0.99);
    let ratios: Vec<f64> = rows
        .chunks(targets.len())
        .map(|round| {
            let worst = round[1..]
                .iter()
                .map(p99)
                .reduce(f64::max)
                .unwrap_or_else(|| p99(&round[0]));
            worst / p99(&round[0]).max(f64::MIN_POSITIVE)
        })
        .collect();
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let ratio = sorted[sorted.len() / 2];
    let bound = 2.0;
    let per_round: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
    println!(
        "# worst-row p99 over the {}-conn baseline, per round: {}; median {ratio:.2}x \
         (bound {bound}x): {}",
        rows[0].held,
        per_round.join(" "),
        if ratio <= bound { "PASS" } else { "FAIL" },
    );

    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"SERVICE-LOAD/CONNECTIONS\",\n");
    json.push_str(&format!("  \"fd_soft_limit\": {soft},\n"));
    json.push_str(&format!("  \"active_clients\": {clients},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"round\": {}, \"target\": {}, \"held\": {}, \"connections_open\": \"{}\", \
             \"requests\": {}, \"errors\": {}, \"rps\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"loop_wakeups\": \"{}\", \"loop_ready_events\": \"{}\", \
             \"accept_shed\": \"{}\"}}{}\n",
            row.round,
            row.target,
            row.held,
            row.gauge,
            row.result.requests,
            row.result.errors,
            row.result.requests as f64 / row.result.elapsed_s,
            percentile_us(&row.result.samples, 0.5),
            percentile_us(&row.result.samples, 0.99),
            row.wakeups,
            row.ready_events,
            row.accept_shed,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    let per_round: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    json.push_str(&format!(
        "  \"p99_ratios_per_round\": [{}],\n",
        per_round.join(", ")
    ));
    json.push_str(&format!("  \"p99_ratio_median\": {ratio:.3},\n"));
    json.push_str(&format!("  \"bound\": {bound:.1},\n"));
    json.push_str(&format!("  \"within_bound\": {}\n", ratio <= bound));
    json.push_str("}\n");
    std::fs::write("BENCH_connections.json", &json).expect("write BENCH_connections.json");
    println!("# wrote BENCH_connections.json");
    ratio <= bound
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = raw.iter().position(|a| a == "--hold-idle") {
        let count: usize = raw
            .get(i + 1)
            .and_then(|n| n.parse().ok())
            .expect("--hold-idle N");
        let target = raw
            .iter()
            .position(|a| a == "--target")
            .and_then(|t| raw.get(t + 1))
            .expect("--target ADDR");
        hold_idle(count, target);
    }
    let memory = raw.iter().any(|a| a == "--memory");
    let server = raw
        .iter()
        .position(|a| a == "--server")
        .map(|i| raw.get(i + 1).cloned().expect("--server <ringrt binary>"));
    let requests = raw.iter().position(|a| a == "--requests").map(|i| {
        raw.get(i + 1)
            .and_then(|n| n.parse::<usize>().ok())
            .expect("--requests N")
    });
    let connections = raw.iter().any(|a| a == "--connections");
    let mixed = raw.iter().any(|a| a == "--mixed");
    let registry = raw.iter().any(|a| a == "--registry");
    let writer = raw.iter().any(|a| a == "--writer");
    let target = raw
        .iter()
        .position(|a| a == "--addr")
        .map(|i| raw.get(i + 1).cloned().expect("--addr HOST:PORT"));
    let mut filtered = Vec::new();
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connections" | "--mixed" | "--writer" | "--registry" | "--memory" => {}
            "--addr" | "--server" | "--requests" => {
                args.next();
            }
            _ => filtered.push(arg),
        }
    }
    let opts = match ExpOptions::parse(filtered) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if memory {
        let server = server.expect("--memory needs --server <ringrt binary>");
        if !memory_probe(&opts, &server, requests) {
            std::process::exit(1);
        }
        return;
    }
    if connections {
        if !connection_sweep(&opts) {
            std::process::exit(1);
        }
        return;
    }
    if mixed {
        if !mixed_phase(&opts, target.as_deref(), writer) {
            std::process::exit(1);
        }
        return;
    }
    if registry {
        if !registry_phase(&opts, target.as_deref()) {
            std::process::exit(1);
        }
        return;
    }
    banner(
        "SERVICE-LOAD",
        "admission service throughput and latency, cold vs cache-warm",
        &opts,
    );

    let clients = if opts.quick { 4 } else { 8 };
    let per_client = opts.samples.max(10);
    let total = clients * per_client;
    let workers = ringrt_exec::configured_threads().max(4);

    let server = spawn(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: 4 * total.max(16),
        default_deadline_ms: 60_000,
        ..ServiceConfig::default()
    })
    .expect("spawn service");
    let addr = server.addr();
    println!("# server on {addr}, {workers} workers, {clients} clients × {per_client} requests");

    // Cold: every request distinct. Warm: one fixed list, replayed twice so
    // the second pass is all cache hits.
    let cold_lines: Vec<String> = (0..total).map(|i| request_line(i, i + 1)).collect();
    let warm_lines: Vec<String> = (0..total).map(|i| request_line(i, 0)).collect();

    let mut table = Table::new(&[
        "phase",
        "clients",
        "requests",
        "errors",
        "secs",
        "throughput_rps",
        "p50_us",
        "p99_us",
        "cache_hits",
    ]);
    let mut push = |phase: &str, r: &PhaseResult| {
        table.push_row(&[
            phase.into(),
            clients.to_string(),
            r.requests.to_string(),
            r.errors.to_string(),
            cell(r.elapsed_s, 3),
            cell(r.requests as f64 / r.elapsed_s, 1),
            cell(percentile_us(&r.samples, 0.5), 1),
            cell(percentile_us(&r.samples, 0.99), 1),
            stats_field(addr, "cache_hits"),
        ]);
    };

    let batch_chunk = 32;
    let cold = run_phase(addr, clients, &cold_lines);
    push("cold", &cold);
    let _prime = run_phase(addr, clients, &warm_lines);
    let warm = run_phase(addr, clients, &warm_lines);
    push("warm", &warm);
    let batched = run_batched_phase(addr, clients, &warm_lines, batch_chunk);
    push(&format!("warm-batch{batch_chunk}"), &batched);

    println!();
    print!("{}", table.to_csv());
    println!();
    let cold_rps = cold.requests as f64 / cold.elapsed_s;
    let warm_rps = warm.requests as f64 / warm.elapsed_s;
    let batched_rps = batched.requests as f64 / batched.elapsed_s;
    println!(
        "# warm throughput is {:.1}x cold (cache short-circuits the analysis pipeline)",
        warm_rps / cold_rps.max(f64::MIN_POSITIVE)
    );
    println!(
        "# BATCH {batch_chunk} is {:.1}x warm line-at-a-time (saved per-request \
         write/read syscalls)",
        batched_rps / warm_rps.max(f64::MIN_POSITIVE)
    );
    println!(
        "# final server stats: requests={} ok={} busy={}",
        stats_field(addr, "requests"),
        stats_field(addr, "ok"),
        stats_field(addr, "busy"),
    );
    server.join();
}
