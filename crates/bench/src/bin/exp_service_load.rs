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
//! With `--connections` the binary instead runs the **connection-count
//! sweep**: the server's event loop is loaded with 1k/10k/50k *idle*
//! connections (held open by re-exec'd holder subprocesses, since one
//! process would exhaust its own fd budget racing the server for
//! descriptors) while 4 active clients replay cache-warm `CHECK`s. The
//! claim under test is that p99 active latency stays bounded — within 2×
//! the 1k-connection baseline — because epoll readiness scales with
//! *active* fds, not open ones. Results land in `BENCH_connections.json`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ringrt_bench::{banner, ExpOptions};
use ringrt_breakdown::table::{cell, Table};
use ringrt_des::stats::DurationHistogram;
use ringrt_service::{spawn, ServiceConfig};
use ringrt_units::SimDuration;

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
    histogram: DurationHistogram,
    requests: u64,
    errors: u64,
    elapsed_s: f64,
}

/// Joins the per-client worker threads into one merged phase result.
fn collect(
    handles: Vec<std::thread::JoinHandle<(DurationHistogram, u64, u64)>>,
    started: Instant,
) -> PhaseResult {
    let mut histogram = DurationHistogram::new();
    let mut requests = 0;
    let mut errors = 0;
    for h in handles {
        let (hist, n, e) = h.join().expect("client thread");
        histogram.merge(&hist);
        requests += n;
        errors += e;
    }
    PhaseResult {
        histogram,
        requests,
        errors,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Runs `clients` concurrent connections, each sending its share of
/// `lines` one request per write, and collects the merged latency
/// histogram.
fn run_phase(addr: SocketAddr, clients: usize, lines: &[String]) -> PhaseResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let my_lines: Vec<String> = lines.iter().skip(c).step_by(clients).cloned().collect();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut hist = DurationHistogram::new();
                let mut errors = 0u64;
                let mut resp = String::new();
                for line in &my_lines {
                    let t0 = Instant::now();
                    writer
                        .write_all(format!("{line}\n").as_bytes())
                        .expect("send");
                    resp.clear();
                    reader.read_line(&mut resp).expect("recv");
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    hist.push(SimDuration::from_picos(ns.saturating_mul(1000)));
                    if !resp.starts_with("OK") {
                        errors += 1;
                    }
                }
                (hist, my_lines.len() as u64, errors)
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
                let mut hist = DurationHistogram::new();
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
                    let per = ns / batch.len() as u64;
                    for _ in batch {
                        hist.push(SimDuration::from_picos(per.saturating_mul(1000)));
                    }
                }
                (hist, my_lines.len() as u64, errors)
            })
        })
        .collect();
    collect(handles, started)
}

fn quantile_us(h: &DurationHistogram, q: f64) -> f64 {
    h.quantile(q)
        .map_or(f64::NAN, |d| d.as_picos() as f64 / 1e6)
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

struct SweepRow {
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
/// CHECK latency alongside them.
fn connection_sweep(opts: &ExpOptions) {
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
         {clients} active clients × {per_client} warm CHECKs per row"
    );

    let warm_lines: Vec<String> = (0..clients * per_client)
        .map(|i| request_line(i, 0))
        .collect();
    let mut rows: Vec<SweepRow> = Vec::new();
    for &want in &targets {
        let target = want.min(budget);
        if target < want {
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
            row.target.to_string(),
            row.held.to_string(),
            row.gauge.clone(),
            row.result.requests.to_string(),
            row.result.errors.to_string(),
            cell(row.result.requests as f64 / row.result.elapsed_s, 1),
            cell(quantile_us(&row.result.histogram, 0.5), 1),
            cell(quantile_us(&row.result.histogram, 0.99), 1),
            row.wakeups.clone(),
            row.ready_events.clone(),
        ]);
    }
    println!();
    print!("{}", table.to_csv());
    println!();

    // The claim is that p99 stays bounded at *every* scale, so judge the
    // worst row against the baseline, not just the largest.
    let base_p99 = quantile_us(&rows[0].result.histogram, 0.99);
    let worst = rows
        .iter()
        .skip(1)
        .max_by(|a, b| {
            quantile_us(&a.result.histogram, 0.99)
                .total_cmp(&quantile_us(&b.result.histogram, 0.99))
        })
        .unwrap_or(&rows[0]);
    let ratio = quantile_us(&worst.result.histogram, 0.99) / base_p99.max(f64::MIN_POSITIVE);
    let bound = 2.0;
    println!(
        "# worst p99 ({} idle conns) is {ratio:.2}x the {}-conn baseline (bound {bound}x): {}",
        worst.held,
        rows[0].held,
        if ratio <= bound { "PASS" } else { "FAIL" },
    );

    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"SERVICE-LOAD/CONNECTIONS\",\n");
    json.push_str(&format!("  \"fd_soft_limit\": {soft},\n"));
    json.push_str(&format!("  \"active_clients\": {clients},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"target\": {}, \"held\": {}, \"connections_open\": \"{}\", \
             \"requests\": {}, \"errors\": {}, \"rps\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"loop_wakeups\": \"{}\", \"loop_ready_events\": \"{}\", \
             \"accept_shed\": \"{}\"}}{}\n",
            row.target,
            row.held,
            row.gauge,
            row.result.requests,
            row.result.errors,
            row.result.requests as f64 / row.result.elapsed_s,
            quantile_us(&row.result.histogram, 0.5),
            quantile_us(&row.result.histogram, 0.99),
            row.wakeups,
            row.ready_events,
            row.accept_shed,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"p99_ratio_vs_baseline\": {ratio:.3},\n"));
    json.push_str(&format!("  \"bound\": {bound:.1},\n"));
    json.push_str(&format!("  \"within_bound\": {}\n", ratio <= bound));
    json.push_str("}\n");
    std::fs::write("BENCH_connections.json", &json).expect("write BENCH_connections.json");
    println!("# wrote BENCH_connections.json");
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
    let connections = raw.iter().any(|a| a == "--connections");
    let filtered = raw.into_iter().filter(|a| a != "--connections");
    let opts = match ExpOptions::parse(filtered) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if connections {
        connection_sweep(&opts);
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
            cell(quantile_us(&r.histogram, 0.5), 1),
            cell(quantile_us(&r.histogram, 0.99), 1),
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
