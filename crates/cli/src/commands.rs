//! Command execution.

use std::io::Write;
use std::path::Path;

use ringrt_breakdown::SaturationSearch;
use ringrt_core::pdp::PdpAnalyzer;
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_core::ProtocolKind;
use ringrt_model::{FrameFormat, MessageSet, SyncStream};
use ringrt_registry::{RingRegistry, RingSpec};
use ringrt_service::ServiceConfig;
use ringrt_sim::{Phasing, SimConfig};
use ringrt_units::{Bandwidth, Bits, Seconds};

use crate::args::{RegistryAction, USAGE};
use crate::{Cli, Command, ExitCode, OutputFormat};

/// Executes a parsed command line, writing human-readable output to `out`.
///
/// Returns the process exit code. I/O errors on `out` are ignored (the
/// caller is a CLI writing to stdout).
pub fn run<W: Write>(cli: &Cli, out: &mut W) -> ExitCode {
    match &cli.command {
        Command::Help => {
            let _ = writeln!(out, "{USAGE}");
            ExitCode::Success
        }
        Command::Check {
            file,
            mbps,
            protocol,
            stations,
            format,
        } => with_set(file, out, |set, out| {
            check(set, *mbps, *protocol, *stations, *format, out)
        }),
        Command::Simulate {
            file,
            mbps,
            protocol,
            stations,
            seconds,
            async_load,
            seed,
        } => with_set(file, out, |set, out| {
            simulate(
                set,
                *mbps,
                *protocol,
                *stations,
                *seconds,
                *async_load,
                *seed,
                out,
            )
        }),
        Command::Sweep { file, mbps } => with_set(file, out, |set, out| sweep(set, mbps, out)),
        Command::Abu {
            mbps,
            stations,
            samples,
            seed,
        } => abu(*mbps, *stations, *samples, *seed, out),
        Command::Serve(config) => serve(config, out),
        Command::Trace { addr, events } => trace(addr, *events, out),
        Command::Promote { addr } => remote_line(addr, "PROMOTE", out),
        Command::Replication { addr } => remote_line(addr, "REPLICATION", out),
        Command::Registry { state_dir, action } => registry(state_dir, action, out),
    }
}

fn serve<W: Write>(config: &ServiceConfig, out: &mut W) -> ExitCode {
    let server = match ringrt_service::spawn(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(out, "error: cannot bind `{}`: {e}", config.addr);
            return ExitCode::UsageError;
        }
    };
    let (workers, queue_depth) = (config.workers, config.queue_depth);
    let _ = match &config.follow {
        Some(primary) => writeln!(
            out,
            "listening on {} as a standby of {primary} ({workers} workers, queue depth \
             {queue_depth}); send PROMOTE to take over, SHUTDOWN to stop",
            server.addr()
        ),
        None => writeln!(
            out,
            "listening on {} ({workers} workers, queue depth {queue_depth}); send SHUTDOWN to stop",
            server.addr(),
        ),
    };
    let _ = out.flush();
    server.wait();
    let _ = writeln!(out, "shut down cleanly");
    ExitCode::Success
}

/// Connects to a running server, drains up to `events` recent span events
/// from its flight recorder, and prints the Chrome trace-event JSON
/// document — redirect it to a file and load it in Perfetto or
/// `chrome://tracing`.
fn trace<W: Write>(addr: &str, events: usize, out: &mut W) -> ExitCode {
    use std::io::{BufRead, BufReader};
    let fail = |out: &mut W, msg: String| {
        let _ = writeln!(out, "error: {msg}");
        ExitCode::UsageError
    };
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return fail(out, format!("cannot connect to `{addr}`: {e}")),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return fail(out, format!("cannot clone connection: {e}")),
    };
    if let Err(e) = writer
        .write_all(format!("TRACE {events}\n").as_bytes())
        .and_then(|()| writer.flush())
    {
        return fail(out, format!("cannot send TRACE: {e}"));
    }
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    if let Err(e) = reader.read_line(&mut header) {
        return fail(out, format!("cannot read TRACE response: {e}"));
    }
    if !header.starts_with("OK cmd=trace") {
        return fail(out, format!("server refused TRACE: {}", header.trim_end()));
    }
    let mut json = String::new();
    if let Err(e) = reader.read_line(&mut json) {
        return fail(out, format!("cannot read trace document: {e}"));
    }
    let _ = writeln!(out, "{}", json.trim_end());
    ExitCode::Success
}

/// Sends one request line (`PROMOTE`, `REPLICATION`) to a running server
/// and prints its one-line answer. Exit code follows the response status.
fn remote_line<W: Write>(addr: &str, line: &str, out: &mut W) -> ExitCode {
    use std::io::{BufRead, BufReader};
    let fail = |out: &mut W, msg: String| {
        let _ = writeln!(out, "error: {msg}");
        ExitCode::UsageError
    };
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return fail(out, format!("cannot connect to `{addr}`: {e}")),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return fail(out, format!("cannot clone connection: {e}")),
    };
    if let Err(e) = writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
    {
        return fail(out, format!("cannot send {line}: {e}"));
    }
    let mut reply = String::new();
    if let Err(e) = BufReader::new(stream).read_line(&mut reply) {
        return fail(out, format!("cannot read {line} response: {e}"));
    }
    let reply = reply.trim_end();
    let _ = writeln!(out, "{reply}");
    if reply.starts_with("OK") {
        ExitCode::Success
    } else {
        ExitCode::UsageError
    }
}

fn registry<W: Write>(state_dir: &str, action: &RegistryAction, out: &mut W) -> ExitCode {
    let reg = match RingRegistry::open(Path::new(state_dir)) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: cannot open state dir `{state_dir}`: {e}");
            return ExitCode::UsageError;
        }
    };
    match action {
        RegistryAction::Register {
            ring,
            mbps,
            protocol,
            stations,
        } => {
            let spec = RingSpec {
                protocol: *protocol,
                mbps: *mbps,
                stations: *stations,
            };
            match reg.register(ring, spec) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "registered ring `{ring}`: protocol={} mbps={mbps} stations={}",
                        protocol.token(),
                        stations.map_or("-".to_owned(), |s| s.to_string()),
                    );
                    ExitCode::Success
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                    ExitCode::UsageError
                }
            }
        }
        RegistryAction::Admit {
            ring,
            stream,
            period_ms,
            bits,
            deadline_ms,
        } => {
            let candidate = SyncStream::try_new(Seconds::from_millis(*period_ms), Bits::new(*bits))
                .and_then(|s| match deadline_ms {
                    None => Ok(s),
                    Some(d) => s.try_with_relative_deadline(Seconds::from_millis(*d)),
                });
            let candidate = match candidate {
                Ok(s) => s,
                Err(e) => {
                    let _ = writeln!(out, "error: invalid stream: {e}");
                    return ExitCode::UsageError;
                }
            };
            match reg.admit(ring, stream, candidate) {
                Ok(outcome) => {
                    let verdict = if outcome.applied {
                        "admitted"
                    } else {
                        "rejected (unschedulable)"
                    };
                    let _ = writeln!(
                        out,
                        "{verdict} `{stream}` into ring `{ring}`: {} test, \
                         {} evaluations, {} streams now admitted",
                        if outcome.check.incremental {
                            "incremental"
                        } else {
                            "full"
                        },
                        outcome.check.evaluations,
                        outcome.streams,
                    );
                    if outcome.applied {
                        ExitCode::Success
                    } else {
                        ExitCode::Unschedulable
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                    ExitCode::UsageError
                }
            }
        }
        RegistryAction::Remove { ring, stream } => match reg.remove(ring, stream) {
            Ok(outcome) => {
                let _ = writeln!(
                    out,
                    "removed `{stream}` from ring `{ring}`: {} streams remain \
                     (remaining set schedulable={})",
                    outcome.streams, outcome.check.schedulable,
                );
                ExitCode::Success
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                ExitCode::UsageError
            }
        },
        RegistryAction::Unregister { ring } => match reg.unregister(ring) {
            Ok(()) => {
                let _ = writeln!(out, "unregistered ring `{ring}`");
                ExitCode::Success
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                ExitCode::UsageError
            }
        },
        RegistryAction::Show { ring: Some(ring) } => match reg.ring_state(ring) {
            Ok(state) => {
                let _ = writeln!(
                    out,
                    "ring `{ring}`: protocol={} mbps={} stations={} streams={}",
                    state.spec.protocol.token(),
                    state.spec.mbps,
                    state
                        .spec
                        .stations
                        .map_or("-".to_owned(), |s| s.to_string()),
                    state.len(),
                );
                for (name, stream) in state.iter() {
                    let _ = writeln!(
                        out,
                        "  {}: period_ms={} bits={} deadline_ms={}",
                        name,
                        stream.period().as_millis(),
                        stream.length_bits().as_u64(),
                        stream.relative_deadline().as_millis(),
                    );
                }
                if let Ok(check) = reg.check_full(ring) {
                    let _ = writeln!(
                        out,
                        "  schedulable={} utilization={:.6} evaluations={}",
                        check.schedulable, check.utilization, check.evaluations,
                    );
                }
                ExitCode::Success
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                ExitCode::UsageError
            }
        },
        RegistryAction::Show { ring: None } => {
            let names = reg.ring_names();
            let _ = writeln!(out, "{} ring(s) in `{state_dir}`", names.len());
            for name in names {
                if let Ok(state) = reg.ring_state(&name) {
                    let _ = writeln!(
                        out,
                        "  {name}: protocol={} mbps={} streams={}",
                        state.spec.protocol.token(),
                        state.spec.mbps,
                        state.len(),
                    );
                }
            }
            ExitCode::Success
        }
        RegistryAction::Compact => match reg.compact() {
            Ok(()) => {
                let m = reg.metrics();
                let _ = writeln!(
                    out,
                    "compacted: journal_bytes={} snapshot_bytes={}",
                    m.journal_bytes, m.snapshot_bytes,
                );
                ExitCode::Success
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                ExitCode::UsageError
            }
        },
    }
}

fn abu<W: Write>(mbps: f64, stations: usize, samples: usize, seed: u64, out: &mut W) -> ExitCode {
    use ringrt_breakdown::BreakdownEstimator;
    use ringrt_workload::MessageSetGenerator;

    if stations == 0 || samples == 0 {
        let _ = writeln!(out, "error: --stations and --samples must be at least 1");
        return ExitCode::UsageError;
    }
    let bw = Bandwidth::from_mbps(mbps);
    let estimator =
        BreakdownEstimator::new(MessageSetGenerator::paper_population(stations), samples);
    let _ = writeln!(
        out,
        "average breakdown utilization at {bw}, {stations} stations, {samples} samples:"
    );
    let pool = ringrt_exec::Pool::from_env();
    for protocol in ProtocolKind::ALL {
        let name = protocol.token();
        let analyzer = protocol.analyzer(protocol.ring(stations, bw));
        let est = estimator.estimate_parallel(&*analyzer, bw, seed, &pool);
        let _ = writeln!(out, "  {name:<9} {:.4} ± {:.4}", est.mean, est.ci95);
    }
    ExitCode::Success
}

fn with_set<W: Write>(
    file: &str,
    out: &mut W,
    body: impl FnOnce(&MessageSet, &mut W) -> ExitCode,
) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            let _ = writeln!(out, "error: cannot read `{file}`: {e}");
            return ExitCode::UsageError;
        }
    };
    match crate::parse_message_set(&text) {
        Ok(set) => body(&set, out),
        Err(e) => {
            let _ = writeln!(out, "error: `{file}`: {e}");
            ExitCode::UsageError
        }
    }
}

fn check<W: Write>(
    set: &MessageSet,
    mbps: f64,
    protocol: ProtocolKind,
    stations: Option<usize>,
    format: OutputFormat,
    out: &mut W,
) -> ExitCode {
    let bw = Bandwidth::from_mbps(mbps);
    let stations = stations.unwrap_or(set.len()).max(set.len());
    let ring = protocol.ring(stations, bw);
    if format == OutputFormat::Plain {
        let _ = writeln!(
            out,
            "{} streams, U = {:.4} at {bw}, ring of {stations} stations",
            set.len(),
            set.utilization(bw)
        );
    }
    let schedulable = match protocol.pdp_variant() {
        Some(variant) => {
            let report = PdpAnalyzer::new(ring, FrameFormat::paper_default(), variant).analyze(set);
            if format == OutputFormat::Plain {
                let _ = write!(out, "{report}");
            }
            report.schedulable
        }
        None => {
            let report = TtpAnalyzer::with_defaults(ring).analyze(set);
            if format == OutputFormat::Plain {
                let _ = write!(out, "{report}");
            }
            report.schedulable
        }
    };
    if format == OutputFormat::Csv {
        let _ = writeln!(
            out,
            "protocol,mbps,stations,streams,utilization,schedulable"
        );
        let _ = writeln!(
            out,
            "{},{mbps},{stations},{},{:.6},{schedulable}",
            protocol.token(),
            set.len(),
            set.utilization(bw),
        );
    }
    if schedulable {
        ExitCode::Success
    } else {
        ExitCode::Unschedulable
    }
}

#[allow(clippy::too_many_arguments)]
fn simulate<W: Write>(
    set: &MessageSet,
    mbps: f64,
    protocol: ProtocolKind,
    stations: Option<usize>,
    seconds: f64,
    async_load: f64,
    seed: u64,
    out: &mut W,
) -> ExitCode {
    if let Err(e) = SimConfig::check_run(Seconds::new(seconds), async_load) {
        let _ = writeln!(out, "error: {e}");
        return ExitCode::UsageError;
    }
    let bw = Bandwidth::from_mbps(mbps);
    let stations = stations.unwrap_or(set.len()).max(set.len());
    let config = SimConfig::new(protocol.ring(stations, bw), Seconds::new(seconds))
        .with_phasing(Phasing::Synchronized)
        .with_async_load(async_load)
        .with_seed(seed);
    let report = match ringrt_sim::simulate(protocol, set, config) {
        Ok(report) => report,
        Err(e) => {
            let _ = writeln!(
                out,
                "FDDI cannot even allocate synchronous bandwidth for this set: {e}"
            );
            return ExitCode::Unschedulable;
        }
    };
    let _ = write!(out, "{report}");
    if report.all_deadlines_met() {
        ExitCode::Success
    } else {
        ExitCode::Unschedulable
    }
}

fn sweep<W: Write>(set: &MessageSet, mbps_list: &[f64], out: &mut W) -> ExitCode {
    let search = SaturationSearch::default();
    let _ = writeln!(
        out,
        "headroom = largest factor the workload can grow before the criterion breaks"
    );
    let _ = writeln!(out, "mbps,protocol,schedulable,headroom,breakdown_util");
    for &mbps in mbps_list {
        let bw = Bandwidth::from_mbps(mbps);
        for protocol in ProtocolKind::ALL {
            let name = protocol.token();
            let analyzer = protocol.analyzer(protocol.ring(set.len(), bw));
            let verdict = analyzer.is_schedulable(set);
            match search.saturate(analyzer.as_ref(), set, bw) {
                Some(sat) => {
                    let _ = writeln!(
                        out,
                        "{mbps},{name},{verdict},{:.3},{:.4}",
                        sat.scale, sat.utilization
                    );
                }
                None => {
                    let _ = writeln!(out, "{mbps},{name},{verdict},-,-");
                }
            }
        }
    }
    ExitCode::Success
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_set(contents: &str) -> (tempdir::TempDirGuard, String) {
        tempdir::write_temp("ringrt-cli-test", contents)
    }

    /// Minimal temp-file helper (std-only).
    mod tempdir {
        use std::path::PathBuf;

        pub struct TempDirGuard(PathBuf);
        impl Drop for TempDirGuard {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        pub fn write_temp(prefix: &str, contents: &str) -> (TempDirGuard, String) {
            let unique = format!(
                "{prefix}-{}-{:p}.txt",
                std::process::id(),
                &contents as *const _
            );
            let path = std::env::temp_dir().join(unique);
            std::fs::write(&path, contents).expect("write temp set file");
            let s = path.to_string_lossy().into_owned();
            (TempDirGuard(path), s)
        }
    }

    fn run_cli(args: &[&str]) -> (ExitCode, String) {
        let cli = Cli::parse(args.iter().map(|s| (*s).to_owned())).expect("parse");
        let mut out = Vec::new();
        let code = run(&cli, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn check_schedulable_set() {
        let (_g, path) = write_set("20, 20000\n50, 60000\n");
        let (code, out) = run_cli(&["check", &path, "--mbps", "16"]);
        assert_eq!(code, ExitCode::Success);
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn check_unschedulable_set() {
        let (_g, path) = write_set("10, 60000\n10, 60000\n"); // 120 % at 1 Mbps
        let (code, out) = run_cli(&["check", &path, "--mbps", "1"]);
        assert_eq!(code, ExitCode::Unschedulable);
        assert!(out.contains("FAIL"), "{out}");
    }

    #[test]
    fn check_fddi_protocol() {
        let (_g, path) = write_set("20, 200000\n50, 500000\n");
        let (code, out) = run_cli(&["check", &path, "--mbps", "100", "--protocol", "fddi"]);
        assert_eq!(code, ExitCode::Success);
        assert!(out.contains("TTRT"), "{out}");
    }

    #[test]
    fn simulate_reports_misses() {
        let (_g, path) = write_set("10, 30000\n10, 30000\n"); // hopeless at 1 Mbps
        let (code, out) = run_cli(&[
            "simulate",
            &path,
            "--mbps",
            "1",
            "--protocol",
            "802.5",
            "--seconds",
            "0.3",
        ]);
        assert_eq!(code, ExitCode::Unschedulable);
        assert!(out.contains("deadline misses"), "{out}");
    }

    #[test]
    fn simulate_clean_run() {
        let (_g, path) = write_set("20, 4000\n40, 8000\n");
        let (code, out) = run_cli(&["simulate", &path, "--mbps", "4", "--seconds", "0.5"]);
        assert_eq!(code, ExitCode::Success);
        assert!(out.contains("0 deadline misses"), "{out}");
    }

    #[test]
    fn sweep_outputs_csv() {
        let (_g, path) = write_set("20, 20000\n100, 100000\n");
        let (code, out) = run_cli(&["sweep", &path, "--mbps", "4,100"]);
        assert_eq!(code, ExitCode::Success);
        assert!(out.contains("4,802.5,"), "{out}");
        assert!(out.contains("100,fddi,"), "{out}");
    }

    #[test]
    fn check_csv_format() {
        let (_g, path) = write_set("20, 20000\n50, 60000\n");
        let (code, out) = run_cli(&["check", &path, "--mbps", "16", "--format", "csv"]);
        assert_eq!(code, ExitCode::Success);
        let mut lines = out.lines();
        assert_eq!(
            lines.next(),
            Some("protocol,mbps,stations,streams,utilization,schedulable")
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("modified,16,2,2,"), "{row}");
        assert!(row.ends_with(",true"), "{row}");
        assert_eq!(lines.next(), None, "csv mode must print nothing else");
    }

    #[test]
    fn check_csv_unschedulable_row() {
        let (_g, path) = write_set("10, 60000\n10, 60000\n");
        let (code, out) = run_cli(&[
            "check",
            &path,
            "--mbps",
            "1",
            "--protocol",
            "802.5",
            "--format",
            "csv",
        ]);
        assert_eq!(code, ExitCode::Unschedulable);
        assert!(out.contains("802.5,1,2,2,"), "{out}");
        assert!(out.trim_end().ends_with(",false"), "{out}");
    }

    #[test]
    fn check_csv_agrees_with_the_wire_check() {
        use ringrt_service::{engine, parse_request, Request};

        let aliases: [(ProtocolKind, &[&str]); 3] = [
            (
                ProtocolKind::Ieee8025,
                &["802.5", "8025", "ieee802.5", "standard", "STANDARD"],
            ),
            (ProtocolKind::Modified, &["modified", "mod", "Mod"]),
            (ProtocolKind::Fddi, &["fddi", "ttp", "timed-token", "TTP"]),
        ];
        // Schedulable everywhere, unschedulable everywhere (120 % at
        // 1 Mbps), and one set the protocols disagree on.
        let cases = [
            ("20,20000;50,60000", "16", None),
            ("10,60000;10,60000", "1", None),
            ("20,400000;40,800000", "100", Some("50")),
        ];
        let field = |line: &str, key: &str| -> String {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or_else(|| panic!("no {key} in {line}"))
                .to_owned()
        };
        let mut verdicts = std::collections::BTreeSet::new();
        for (protocol, names) in aliases {
            for alias in names {
                for (set, mbps, stations) in cases {
                    let (_g, path) = write_set(&set.replace(';', "\n"));
                    let mut args = vec![
                        "check",
                        &path,
                        "--mbps",
                        mbps,
                        "--protocol",
                        alias,
                        "--format",
                        "csv",
                    ];
                    let mut line = format!("CHECK mbps={mbps} set={set} protocol={alias}");
                    if let Some(n) = stations {
                        args.extend(["--stations", n]);
                        line.push_str(&format!(" stations={n}"));
                    }
                    let (_, csv) = run_cli(&args);
                    let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
                    let reply = match parse_request(&line).unwrap() {
                        Request::Analysis(req) => engine::execute(&req),
                        other => panic!("unexpected {other:?}"),
                    };
                    assert_eq!(row[0], protocol.token(), "{alias}");
                    for (column, key) in [
                        (0, "protocol"),
                        (2, "stations"),
                        (4, "utilization"),
                        (5, "schedulable"),
                    ] {
                        assert_eq!(row[column], field(&reply, key), "{line} vs {csv}");
                    }
                    verdicts.insert((set, row[5].to_owned()));
                }
            }
        }
        assert_eq!(
            verdicts.len(),
            4,
            "one set splits the protocols: {verdicts:?}"
        );
    }

    #[test]
    fn serve_runs_until_shutdown() {
        use std::io::{BufRead, BufReader};
        use std::net::TcpStream;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let cli = Cli::parse(
            ["serve", "--addr", "127.0.0.1:0", "--workers", "1"]
                .iter()
                .map(|s| (*s).to_owned()),
        )
        .unwrap();
        let mut thread_out = buf.clone();
        let handle = std::thread::spawn(move || run(&cli, &mut thread_out));

        // Wait for the "listening on …" line to learn the ephemeral port.
        let addr = loop {
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            if let Some(rest) = text.strip_prefix("listening on ") {
                break rest.split_whitespace().next().unwrap().to_owned();
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let stream = TcpStream::connect(&addr).expect("connect to served port");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        writeln!(writer, "CHECK mbps=16 set=20,20000;50,60000").unwrap();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("schedulable=true"), "{resp}");
        resp.clear();
        writeln!(writer, "SHUTDOWN").unwrap();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("shutdown"), "{resp}");

        assert_eq!(handle.join().unwrap(), ExitCode::Success);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("shut down cleanly"), "{text}");
    }

    #[test]
    fn trace_cli_drains_a_running_server() {
        use std::io::{BufRead, BufReader};
        use std::net::TcpStream;

        let server = ringrt_service::spawn(ringrt_service::ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 4,
            ..Default::default()
        })
        .expect("spawn server");
        let addr = server.addr().to_string();
        // One uncached analysis (answered on the loop) and one request
        // that queues, so the recorder has every lifecycle span.
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "CHECK mbps=16 set=20,20000").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("schedulable=true"), "{resp}");
        writeln!(writer, "SLEEP ms=1").unwrap();
        resp.clear();
        reader.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "OK cmd=sleep ms=1");

        let (code, out) = run_cli(&["trace", "--addr", &addr, "--events", "64"]);
        assert_eq!(code, ExitCode::Success, "{out}");
        let json = out.trim_end();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        for stage in ["parse", "cache", "queue_wait", "execute"] {
            assert!(json.contains(&format!("\"name\":\"{stage}\"")), "{json}");
        }
        server.join();
        // Against a dead server the command fails with a usage error.
        let (code, out) = run_cli(&["trace", "--addr", &addr]);
        assert_eq!(code, ExitCode::UsageError, "{out}");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn registry_cli_roundtrip_persists_across_invocations() {
        let dir = std::env::temp_dir().join(format!("ringrt-cli-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().into_owned();

        let (code, out) = run_cli(&[
            "registry",
            "register",
            "lab",
            "--state-dir",
            &d,
            "--mbps",
            "16",
        ]);
        assert_eq!(code, ExitCode::Success, "{out}");
        assert!(out.contains("registered ring `lab`"), "{out}");

        let (code, out) = run_cli(&[
            "registry",
            "admit",
            "lab",
            "video",
            "--state-dir",
            &d,
            "--period-ms",
            "20",
            "--bits",
            "20000",
        ]);
        assert_eq!(code, ExitCode::Success, "{out}");
        assert!(out.contains("admitted `video`"), "{out}");

        // Duplicate stream names are a structured error, not a crash.
        let (code, out) = run_cli(&[
            "registry",
            "admit",
            "lab",
            "video",
            "--state-dir",
            &d,
            "--period-ms",
            "50",
            "--bits",
            "1000",
        ]);
        assert_eq!(code, ExitCode::UsageError, "{out}");
        assert!(out.contains("duplicate stream"), "{out}");

        // Each invocation reopens the store: the state survived.
        let (code, out) = run_cli(&["registry", "show", "lab", "--state-dir", &d]);
        assert_eq!(code, ExitCode::Success, "{out}");
        assert!(out.contains("video: period_ms=20 bits=20000"), "{out}");
        assert!(out.contains("schedulable=true"), "{out}");

        let (code, out) = run_cli(&["registry", "compact", "--state-dir", &d]);
        assert_eq!(code, ExitCode::Success, "{out}");
        assert!(out.contains("journal_bytes=0"), "{out}");

        let (code, out) = run_cli(&["registry", "remove", "lab", "video", "--state-dir", &d]);
        assert_eq!(code, ExitCode::Success, "{out}");
        assert!(out.contains("0 streams remain"), "{out}");

        let (code, out) = run_cli(&["registry", "show", "--state-dir", &d]);
        assert_eq!(code, ExitCode::Success, "{out}");
        assert!(
            out.contains("lab: protocol=modified mbps=16 streams=0"),
            "{out}"
        );

        let (code, out) = run_cli(&["registry", "unregister", "lab", "--state-dir", &d]);
        assert_eq!(code, ExitCode::Success, "{out}");
        let (_, out) = run_cli(&["registry", "show", "--state-dir", &d]);
        assert!(out.contains("0 ring(s)"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_rejected_admit_exits_unschedulable() {
        let dir = std::env::temp_dir().join(format!("ringrt-cli-rej-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().into_owned();

        let (code, _) = run_cli(&[
            "registry",
            "register",
            "slow",
            "--state-dir",
            &d,
            "--mbps",
            "1",
        ]);
        assert_eq!(code, ExitCode::Success);
        // 60 kbit every 10 ms at 1 Mbps is a 600 % load: rejected.
        let (code, out) = run_cli(&[
            "registry",
            "admit",
            "slow",
            "hog",
            "--state-dir",
            &d,
            "--period-ms",
            "10",
            "--bits",
            "60000",
        ]);
        assert_eq!(code, ExitCode::Unschedulable, "{out}");
        assert!(out.contains("rejected"), "{out}");
        // The rejected stream was not stored.
        let (_, out) = run_cli(&["registry", "show", "slow", "--state-dir", &d]);
        assert!(out.contains("streams=0"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_admit_refuses_a_deadline_outside_its_period() {
        let dir = std::env::temp_dir().join(format!("ringrt-cli-dl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().into_owned();
        let (code, _) = run_cli(&[
            "registry",
            "register",
            "lab",
            "--state-dir",
            &d,
            "--mbps",
            "16",
        ]);
        assert_eq!(code, ExitCode::Success);
        for deadline in ["25", "0", "-1"] {
            let (code, out) = run_cli(&[
                "registry",
                "admit",
                "lab",
                "late",
                "--state-dir",
                &d,
                "--period-ms",
                "20",
                "--bits",
                "1000",
                "--deadline-ms",
                deadline,
            ]);
            assert_eq!(code, ExitCode::UsageError, "{deadline}: {out}");
            assert!(out.contains("0 < D ≤ P"), "{deadline}: {out}");
        }
        let (_, out) = run_cli(&["registry", "show", "lab", "--state-dir", &d]);
        assert!(out.contains("streams=0"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_usage_error() {
        let (code, out) = run_cli(&["check", "/nonexistent/set.txt", "--mbps", "4"]);
        assert_eq!(code, ExitCode::UsageError);
        assert!(out.contains("cannot read"), "{out}");
    }

    #[test]
    fn bad_set_file_is_usage_error() {
        let (_g, path) = write_set("not a set\n");
        let (code, out) = run_cli(&["check", &path, "--mbps", "4"]);
        assert_eq!(code, ExitCode::UsageError);
        assert!(out.contains("line 1"), "{out}");
    }

    #[test]
    fn simulate_validates_flags() {
        let (_g, path) = write_set("20, 4000\n");
        let (code, _) = run_cli(&["simulate", &path, "--mbps", "4", "--seconds", "-1"]);
        assert_eq!(code, ExitCode::UsageError);
        let (code, _) = run_cli(&["simulate", &path, "--mbps", "4", "--async-load", "1.5"]);
        assert_eq!(code, ExitCode::UsageError);
    }

    #[test]
    fn abu_estimates_three_protocols() {
        let cli = Cli::parse(
            ["abu", "--mbps", "100", "--stations", "8", "--samples", "4"]
                .iter()
                .map(|s| (*s).to_owned()),
        )
        .unwrap();
        let mut out = Vec::new();
        let code = run(&cli, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, ExitCode::Success);
        assert!(text.contains("802.5"), "{text}");
        assert!(text.contains("fddi"), "{text}");
        assert!(text.contains("±"), "{text}");
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_cli(&["help"]);
        assert_eq!(code, ExitCode::Success);
        assert!(out.contains("USAGE"));
    }
}
