//! End-to-end tests for the observability surface of a live server: the
//! `METRICS` Prometheus text exposition, the `TRACE` flight-recorder
//! export, and the `STATS RESET` measurement window.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use ringrt_des::stats::DurationHistogram;
use ringrt_obs::prom::{parse_exposition, Sample};
use ringrt_obs::trace::validate_chrome_trace;
use ringrt_service::{spawn, ServerHandle, ServiceConfig};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn read_line(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_owned()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line()
    }

    /// Sends `METRICS`, returning the header line and the `lines=<n>`
    /// exposition lines it announces.
    fn metrics(&mut self) -> (String, Vec<String>) {
        let header = self.roundtrip("METRICS");
        let count: usize = header
            .split(" lines=")
            .nth(1)
            .unwrap_or_else(|| panic!("no lines= in header: {header}"))
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .expect("count parses");
        let body = (0..count).map(|_| self.read_line()).collect();
        (header, body)
    }

    /// Sends a `TRACE` line, returning the header and the single JSON
    /// body line that always follows it.
    fn trace(&mut self, line: &str) -> (String, String) {
        let header = self.roundtrip(line);
        assert!(header.starts_with("OK cmd=trace events="), "{header}");
        (header, self.read_line())
    }
}

fn test_server() -> ServerHandle {
    spawn(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 8,
        ..ServiceConfig::default()
    })
    .expect("spawn server")
}

fn fetch_metrics(c: &mut Client) -> Vec<Sample> {
    let (header, body) = c.metrics();
    assert!(header.starts_with("OK cmd=metrics lines="), "{header}");
    parse_exposition(&body.join("\n")).expect("exposition must parse")
}

fn find<'a>(samples: &'a [Sample], name: &str) -> Vec<&'a Sample> {
    samples.iter().filter(|s| s.name == name).collect()
}

#[test]
fn metrics_exposition_is_wellformed_and_buckets_are_cumulative() {
    let server = test_server();
    let mut c = Client::connect(server.addr());
    let check = c.roundtrip("CHECK mbps=16 set=20,20000;50,60000");
    assert!(check.contains("schedulable=true"), "{check}");
    let samples = fetch_metrics(&mut c);

    // The headline families are all present with sane values.
    assert!(find(&samples, "ringrt_requests_total")[0].value >= 1.0);
    assert_eq!(find(&samples, "ringrt_workers")[0].value, 2.0);
    assert!(find(&samples, "ringrt_cache_misses_total")[0].value >= 1.0);
    assert!(!find(&samples, "ringrt_trace_enabled").is_empty());

    // Per-command histograms: for every labelled series the buckets are
    // cumulative, end at +Inf, and agree with the series' _count.
    let check_label = |s: &&Sample| s.label("command") == Some("check");
    let buckets: Vec<&Sample> = find(&samples, "ringrt_request_latency_seconds_bucket")
        .into_iter()
        .filter(check_label)
        .collect();
    assert!(!buckets.is_empty(), "no check buckets");
    let mut last = 0.0;
    for b in &buckets {
        assert!(
            b.value >= last,
            "bucket counts must be cumulative: {} < {last}",
            b.value
        );
        last = b.value;
    }
    let inf = buckets.last().unwrap();
    assert_eq!(inf.label("le"), Some("+Inf"));
    let count = find(&samples, "ringrt_request_latency_seconds_count")
        .into_iter()
        .find(check_label)
        .expect("check _count");
    assert_eq!(inf.value, count.value);
    assert!(count.value >= 1.0, "the CHECK must have been counted");

    // Every finite `le` edge is exactly a DurationHistogram bucket upper
    // bound expressed in seconds — the exposition reuses the simulator's
    // log2 edges rather than inventing its own.
    let mut finite_edges = 0;
    for b in &buckets {
        let le = b.label("le").expect("bucket has le");
        if le == "+Inf" {
            continue;
        }
        let le: f64 = le.parse().expect("finite le parses");
        let matches_edge =
            (0..64).any(|k| DurationHistogram::bucket_upper_bound_picos(k) as f64 * 1e-12 == le);
        assert!(matches_edge, "le={le} is not a DurationHistogram edge");
        finite_edges += 1;
    }
    assert!(finite_edges > 0, "expected at least one finite bucket edge");
    server.join();
}

#[test]
fn trace_captures_the_request_lifecycle_stages() {
    let server = test_server();
    let mut c = Client::connect(server.addr());
    // One uncached analysis: parse → cache miss → execute, on the loop.
    let check = c.roundtrip("CHECK mbps=16 set=20,20000");
    assert!(check.ends_with("cached=false"), "{check}");
    // One request that queues: queue wait → execute on a worker.
    assert_eq!(c.roundtrip("SLEEP ms=1"), "OK cmd=sleep ms=1");
    let (_header, json) = c.trace("TRACE 4096");
    let events = validate_chrome_trace(&json).expect("valid Chrome trace JSON");
    assert!(events > 0, "no events captured");
    for stage in ["parse", "cache", "queue_wait", "execute"] {
        assert!(
            json.contains(&format!("\"name\":\"{stage}\"")),
            "missing {stage} span in {json}"
        );
    }
    server.join();
}

#[test]
fn stats_reset_starts_a_fresh_window() {
    let server = test_server();
    let mut c = Client::connect(server.addr());
    c.roundtrip("CHECK mbps=16 set=20,20000");
    // The CHECK is answered on the loop; a SLEEP still passes the queue.
    c.roundtrip("SLEEP ms=1");
    let before = c.roundtrip("STATS");
    assert!(before.contains(" check_count=1"), "{before}");
    assert!(before.contains(" cache_misses=1"), "{before}");
    assert!(before.contains(" queue_peak=1"), "{before}");
    assert_eq!(c.roundtrip("STATS RESET"), "OK cmd=stats_reset");
    let after = c.roundtrip("STATS");
    // Only the STATS request itself has been counted in the new window.
    assert!(after.contains(" requests=1 "), "{after}");
    assert!(after.contains(" check_count=0"), "{after}");
    assert!(after.contains(" cache_misses=0"), "{after}");
    assert!(after.contains(" queue_peak=0"), "{after}");
    // Gauges survive the reset: the cached entry is still warm…
    assert!(after.contains(" cache_entries=1"), "{after}");
    // …and the next identical CHECK proves it by hitting.
    let hit = c.roundtrip("CHECK mbps=16 set=20,20000");
    assert!(hit.ends_with("cached=true"), "{hit}");
    let resumed = c.roundtrip("STATS");
    assert!(resumed.contains(" cache_hits=1"), "{resumed}");
    server.join();
}

#[test]
fn trace_disabled_server_returns_empty_trace() {
    let server = spawn(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 4,
        trace_enabled: false,
        ..ServiceConfig::default()
    })
    .expect("spawn server");
    let mut c = Client::connect(server.addr());
    c.roundtrip("CHECK mbps=16 set=20,20000");
    let (header, json) = c.trace("TRACE");
    assert_eq!(header, "OK cmd=trace events=0");
    // Still a valid, loadable trace document — just with no events.
    assert_eq!(validate_chrome_trace(&json), Ok(0), "{json}");
    server.join();
}
