//! Argument parsing (hand-rolled; the surface is small enough that a CLI
//! framework dependency is not warranted).

use std::path::PathBuf;

use ringrt_core::ProtocolKind;
use ringrt_service::ServiceConfig;

/// Output mode for `check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable report (the default).
    #[default]
    Plain,
    /// One machine-readable CSV row with the same canonical field names
    /// the admission service's wire protocol uses.
    Csv,
}

impl OutputFormat {
    fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "plain" | "text" => Ok(OutputFormat::Plain),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!("unknown format `{other}` (expected plain or csv)")),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// The `ringrt` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Analyze a message set under one protocol.
    Check {
        /// Path of the message-set file.
        file: String,
        /// Ring bandwidth in Mbps.
        mbps: f64,
        /// Protocol to test.
        protocol: ProtocolKind,
        /// Ring stations (defaults to the stream count).
        stations: Option<usize>,
        /// Output mode.
        format: OutputFormat,
    },
    /// Simulate a message set under one protocol.
    Simulate {
        /// Path of the message-set file.
        file: String,
        /// Ring bandwidth in Mbps.
        mbps: f64,
        /// Protocol to simulate.
        protocol: ProtocolKind,
        /// Ring stations (defaults to the stream count).
        stations: Option<usize>,
        /// Simulated seconds.
        seconds: f64,
        /// Offered asynchronous load fraction.
        async_load: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Monte-Carlo average-breakdown-utilization estimate for the paper's
    /// random population at one bandwidth, all three protocols.
    Abu {
        /// Ring bandwidth in Mbps.
        mbps: f64,
        /// Ring stations / streams per set.
        stations: usize,
        /// Monte-Carlo samples.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Report all three protocols' headroom for a set across bandwidths.
    Sweep {
        /// Path of the message-set file.
        file: String,
        /// Bandwidth list in Mbps.
        mbps: Vec<f64>,
    },
    /// Run the online admission-control service (`ringrt-service`).
    Serve(ServiceConfig),
    /// Drain a running server's flight recorder as Chrome trace JSON.
    Trace {
        /// Server address (`host:port`).
        addr: String,
        /// Maximum span events to drain.
        events: usize,
    },
    /// Promote a running follower to primary under a fresh epoch.
    Promote {
        /// Follower address (`host:port`).
        addr: String,
    },
    /// Print a running server's one-line replication status.
    Replication {
        /// Server address (`host:port`).
        addr: String,
    },
    /// Operate directly on a persistent ring-registry state directory.
    Registry {
        /// Directory holding the journal and snapshot.
        state_dir: String,
        /// What to do to the registry.
        action: RegistryAction,
    },
    /// Print usage.
    Help,
}

/// The `ringrt registry <action>` verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryAction {
    /// Create a named ring.
    Register {
        /// Ring name.
        ring: String,
        /// Ring bandwidth in Mbps.
        mbps: f64,
        /// Protocol the ring runs.
        protocol: ProtocolKind,
        /// Pinned station count (defaults to the stream count).
        stations: Option<usize>,
    },
    /// Admit one stream into a ring (incremental schedulability test).
    Admit {
        /// Ring name.
        ring: String,
        /// Stream name.
        stream: String,
        /// Stream period in milliseconds.
        period_ms: f64,
        /// Payload bits per period.
        bits: u64,
        /// Relative deadline in milliseconds (defaults to the period).
        deadline_ms: Option<f64>,
    },
    /// Remove one stream from a ring.
    Remove {
        /// Ring name.
        ring: String,
        /// Stream name.
        stream: String,
    },
    /// Delete a ring and its admitted streams.
    Unregister {
        /// Ring name.
        ring: String,
    },
    /// List rings, or show one ring's spec and admitted streams.
    Show {
        /// Ring to show (all rings when omitted).
        ring: Option<String>,
    },
    /// Fold the journal into a fresh snapshot.
    Compact,
}

/// Usage text.
pub const USAGE: &str = "\
ringrt — real-time token ring schedulability toolkit (Kamat & Zhao, ICDCS 1993)

USAGE:
  ringrt check    <set-file> --mbps <N> [--protocol 802.5|modified|fddi] [--stations N]
                  [--format plain|csv]
  ringrt simulate <set-file> --mbps <N> [--protocol 802.5|modified|fddi] [--stations N]
                  [--seconds S] [--async-load X] [--seed N]
  ringrt sweep    <set-file> --mbps <N>[,<N>...]
  ringrt abu      --mbps <N> [--stations N] [--samples N] [--seed N]
  ringrt serve    [--addr HOST:PORT] [--workers N] [--queue-depth N] [--deadline-ms N]
                  [--state-dir DIR] [--cache-entries N] [--slow-ms N] [--trace on|off]
                  [--segment-bytes N] [--follow HOST:PORT] [--promote-timeout-ms N]
                  [--max-conns N] [--idle-timeout-ms N] [--read-deadline-ms N]
  ringrt trace    [--addr HOST:PORT] [--events N]
  ringrt promote     [--addr HOST:PORT]
  ringrt replication [--addr HOST:PORT]
  ringrt registry register   <ring> --state-dir DIR --mbps <N>
                             [--protocol 802.5|modified|fddi] [--stations N]
  ringrt registry admit      <ring> <stream> --state-dir DIR --period-ms <N> --bits <N>
                             [--deadline-ms N]
  ringrt registry remove     <ring> <stream> --state-dir DIR
  ringrt registry unregister <ring> --state-dir DIR
  ringrt registry show       [<ring>] --state-dir DIR
  ringrt registry compact    --state-dir DIR
  ringrt help

SET FILE: one `period_ms, payload_bits` pair per line; `#` comments allowed.

EXIT CODES: 0 schedulable/success · 1 unschedulable/misses · 2 usage error";

impl Cli {
    /// Parses the given arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// A human-readable message describing the first problem found.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut it = args.into_iter().peekable();
        let sub = it.next().ok_or_else(|| USAGE.to_owned())?;
        match sub.as_str() {
            "help" | "--help" | "-h" => Ok(Cli {
                command: Command::Help,
            }),
            "check" => {
                let (file, flags) = split_flags(&mut it)?;
                let mbps = required_f64(&flags, "--mbps")?;
                Ok(Cli {
                    command: Command::Check {
                        file,
                        mbps,
                        protocol: optional_protocol(&flags)?,
                        stations: optional_usize(&flags, "--stations")?,
                        format: optional_format(&flags)?,
                    },
                })
            }
            "simulate" => {
                let (file, flags) = split_flags(&mut it)?;
                let mbps = required_f64(&flags, "--mbps")?;
                Ok(Cli {
                    command: Command::Simulate {
                        file,
                        mbps,
                        protocol: optional_protocol(&flags)?,
                        stations: optional_usize(&flags, "--stations")?,
                        seconds: optional_f64(&flags, "--seconds")?.unwrap_or(1.0),
                        async_load: optional_f64(&flags, "--async-load")?.unwrap_or(0.0),
                        seed: optional_u64(&flags, "--seed")?.unwrap_or(1),
                    },
                })
            }
            "abu" => {
                // No positional file: flags only.
                let flags = flags_only(&mut it)?;
                let mbps = required_f64(&flags, "--mbps")?;
                Ok(Cli {
                    command: Command::Abu {
                        mbps,
                        stations: optional_usize(&flags, "--stations")?.unwrap_or(100),
                        samples: optional_usize(&flags, "--samples")?.unwrap_or(50),
                        seed: optional_u64(&flags, "--seed")?.unwrap_or(1),
                    },
                })
            }
            "sweep" => {
                let (file, flags) = split_flags(&mut it)?;
                let raw = flag_value(&flags, "--mbps")
                    .ok_or_else(|| "sweep requires --mbps <N>[,<N>...]".to_owned())?;
                let mbps: Result<Vec<f64>, _> = raw.split(',').map(str::parse::<f64>).collect();
                let mbps = mbps.map_err(|_| format!("cannot parse bandwidth list `{raw}`"))?;
                if mbps.is_empty() || mbps.iter().any(|&m| !(m.is_finite() && m > 0.0)) {
                    return Err("bandwidths must be positive numbers".into());
                }
                Ok(Cli {
                    command: Command::Sweep { file, mbps },
                })
            }
            "serve" => {
                let flags = flags_only(&mut it)?;
                known_flags(&flags, SERVE_FLAGS)?;
                let defaults = ServiceConfig::default();
                let config = ServiceConfig {
                    addr: flag_value(&flags, "--addr")
                        .unwrap_or("127.0.0.1:7400")
                        .to_owned(),
                    workers: optional_usize(&flags, "--workers")?.unwrap_or(defaults.workers),
                    queue_depth: optional_usize(&flags, "--queue-depth")?
                        .unwrap_or(defaults.queue_depth),
                    default_deadline_ms: optional_u64(&flags, "--deadline-ms")?
                        .unwrap_or(defaults.default_deadline_ms),
                    state_dir: flag_value(&flags, "--state-dir")
                        .map(PathBuf::from)
                        .or(defaults.state_dir),
                    cache_entries: optional_usize(&flags, "--cache-entries")?
                        .unwrap_or(defaults.cache_entries),
                    slow_ms: optional_u64(&flags, "--slow-ms")?.or(defaults.slow_ms),
                    trace_enabled: optional_switch(&flags, "--trace")?
                        .unwrap_or(defaults.trace_enabled),
                    follow: flag_value(&flags, "--follow")
                        .map(str::to_owned)
                        .or(defaults.follow),
                    segment_bytes: optional_u64(&flags, "--segment-bytes")?
                        .or(defaults.segment_bytes),
                    promote_timeout_ms: optional_u64(&flags, "--promote-timeout-ms")?
                        .or(defaults.promote_timeout_ms),
                    max_conns: optional_usize(&flags, "--max-conns")?.unwrap_or(defaults.max_conns),
                    idle_timeout_ms: optional_u64(&flags, "--idle-timeout-ms")?
                        .or(defaults.idle_timeout_ms),
                    read_deadline_ms: optional_u64(&flags, "--read-deadline-ms")?
                        .unwrap_or(defaults.read_deadline_ms),
                    ..defaults
                };
                if config.workers == 0 || config.queue_depth == 0 {
                    return Err("--workers and --queue-depth must be at least 1".into());
                }
                Ok(Cli {
                    command: Command::Serve(config),
                })
            }
            "trace" => {
                let flags = flags_only(&mut it)?;
                let events = optional_usize(&flags, "--events")?.unwrap_or(256);
                if events == 0 {
                    return Err("--events must be at least 1".into());
                }
                Ok(Cli {
                    command: Command::Trace {
                        addr: flag_value(&flags, "--addr")
                            .unwrap_or("127.0.0.1:7400")
                            .to_owned(),
                        events,
                    },
                })
            }
            "promote" | "replication" => {
                let flags = flags_only(&mut it)?;
                let addr = flag_value(&flags, "--addr")
                    .unwrap_or("127.0.0.1:7400")
                    .to_owned();
                Ok(Cli {
                    command: if sub == "promote" {
                        Command::Promote { addr }
                    } else {
                        Command::Replication { addr }
                    },
                })
            }
            "registry" => {
                let action = it.next().ok_or_else(|| {
                    format!(
                        "registry needs an action \
                         (register, admit, remove, unregister, show, compact)\n\n{USAGE}"
                    )
                })?;
                let (positionals, flags) = positionals_and_flags(&mut it)?;
                let state_dir = flag_value(&flags, "--state-dir")
                    .ok_or_else(|| "registry commands require --state-dir <DIR>".to_owned())?
                    .to_owned();
                let action = registry_action(&action, &positionals, &flags)?;
                Ok(Cli {
                    command: Command::Registry { state_dir, action },
                })
            }
            other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
        }
    }
}

fn registry_action(
    action: &str,
    positionals: &[String],
    flags: &Flags,
) -> Result<RegistryAction, String> {
    match action {
        "register" => {
            let [ring] = fixed_positionals(positionals, "registry register", &["<ring>"])?;
            Ok(RegistryAction::Register {
                ring,
                mbps: required_f64(flags, "--mbps")?,
                protocol: optional_protocol(flags)?,
                stations: optional_usize(flags, "--stations")?,
            })
        }
        "admit" => {
            let [ring, stream] =
                fixed_positionals(positionals, "registry admit", &["<ring>", "<stream>"])?;
            Ok(RegistryAction::Admit {
                ring,
                stream,
                period_ms: required_f64(flags, "--period-ms")?,
                bits: optional_u64(flags, "--bits")?
                    .ok_or_else(|| "--bits is required".to_owned())?,
                deadline_ms: optional_f64(flags, "--deadline-ms")?,
            })
        }
        "remove" => {
            let [ring, stream] =
                fixed_positionals(positionals, "registry remove", &["<ring>", "<stream>"])?;
            Ok(RegistryAction::Remove { ring, stream })
        }
        "unregister" => {
            let [ring] = fixed_positionals(positionals, "registry unregister", &["<ring>"])?;
            Ok(RegistryAction::Unregister { ring })
        }
        "show" => match positionals {
            [] => Ok(RegistryAction::Show { ring: None }),
            [ring] => Ok(RegistryAction::Show {
                ring: Some(ring.clone()),
            }),
            more => Err(format!(
                "registry show takes at most one ring name, got {}",
                more.len()
            )),
        },
        "compact" => {
            if positionals.is_empty() {
                Ok(RegistryAction::Compact)
            } else {
                Err("registry compact takes no positional arguments".into())
            }
        }
        other => Err(format!(
            "unknown registry action `{other}` \
             (expected register, admit, remove, unregister, show, or compact)"
        )),
    }
}

/// Demands exactly `N` positional arguments, named in the error message.
fn fixed_positionals<const N: usize>(
    positionals: &[String],
    what: &str,
    names: &[&str; N],
) -> Result<[String; N], String> {
    <[String; N]>::try_from(positionals.to_vec())
        .map_err(|_| format!("{what} takes exactly: {}", names.join(" ")))
}

type Flags = Vec<(String, String)>;

/// Splits `<positional>* (--flag value)*`; positionals must come first.
fn positionals_and_flags<I: Iterator<Item = String>>(
    it: &mut I,
) -> Result<(Vec<String>, Flags), String> {
    let mut positionals = Vec::new();
    let mut flags = Vec::new();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {arg} needs a value"))?;
            flags.push((arg, value));
        } else if flags.is_empty() {
            positionals.push(arg);
        } else {
            return Err(format!(
                "unexpected positional argument `{arg}` after flags"
            ));
        }
    }
    Ok((positionals, flags))
}

/// The flags `serve` understands.
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--queue-depth",
    "--deadline-ms",
    "--state-dir",
    "--cache-entries",
    "--slow-ms",
    "--trace",
    "--follow",
    "--segment-bytes",
    "--promote-timeout-ms",
    "--max-conns",
    "--idle-timeout-ms",
    "--read-deadline-ms",
];

/// Rejects any flag outside `known`, so a removed or misspelled flag is an
/// error instead of being silently ignored.
fn known_flags(flags: &Flags, known: &[&str]) -> Result<(), String> {
    match flags
        .iter()
        .find(|(flag, _)| !known.contains(&flag.as_str()))
    {
        Some((flag, _)) => Err(format!("unknown flag `{flag}`")),
        None => Ok(()),
    }
}

/// Collects `(--flag value)*` for subcommands without a positional file.
fn flags_only<I: Iterator<Item = String>>(it: &mut I) -> Result<Flags, String> {
    let mut flags = Vec::new();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected positional argument `{flag}`"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        flags.push((flag, value));
    }
    Ok(flags)
}

/// Splits `<file> (--flag value)*` into the positional file and flag pairs.
fn split_flags<I: Iterator<Item = String>>(it: &mut I) -> Result<(String, Flags), String> {
    let file = it
        .next()
        .filter(|f| !f.starts_with("--"))
        .ok_or_else(|| "expected a message-set file path".to_owned())?;
    let mut flags = Vec::new();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected positional argument `{flag}`"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        flags.push((flag, value));
    }
    Ok((file, flags))
}

fn flag_value<'a>(flags: &'a Flags, name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| f == name)
        .map(|(_, v)| v.as_str())
}

fn required_f64(flags: &Flags, name: &str) -> Result<f64, String> {
    optional_f64(flags, name)?.ok_or_else(|| format!("{name} is required"))
}

/// Parses a number flag; `NaN` is refused, as no quantity holds one.
fn optional_f64(flags: &Flags, name: &str) -> Result<Option<f64>, String> {
    flag_value(flags, name)
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| !x.is_nan())
                .ok_or_else(|| format!("invalid value `{v}` for {name}"))
        })
        .transpose()
}

fn optional_u64(flags: &Flags, name: &str) -> Result<Option<u64>, String> {
    flag_value(flags, name)
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("invalid value `{v}` for {name}"))
        })
        .transpose()
}

/// Parses an `on`/`off` switch flag.
fn optional_switch(flags: &Flags, name: &str) -> Result<Option<bool>, String> {
    flag_value(flags, name)
        .map(|v| match v.to_ascii_lowercase().as_str() {
            "on" | "true" | "1" => Ok(true),
            "off" | "false" | "0" => Ok(false),
            other => Err(format!(
                "invalid value `{other}` for {name} (expected on or off)"
            )),
        })
        .transpose()
}

fn optional_usize(flags: &Flags, name: &str) -> Result<Option<usize>, String> {
    flag_value(flags, name)
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("invalid value `{v}` for {name}"))
        })
        .transpose()
}

fn optional_protocol(flags: &Flags) -> Result<ProtocolKind, String> {
    flag_value(flags, "--protocol")
        .map(ProtocolKind::parse)
        .transpose()
        .map(Option::unwrap_or_default)
}

fn optional_format(flags: &Flags) -> Result<OutputFormat, String> {
    flag_value(flags, "--format")
        .map(OutputFormat::parse)
        .transpose()
        .map(Option::unwrap_or_default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn check_command() {
        let cli = parse(&["check", "set.txt", "--mbps", "16", "--protocol", "fddi"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Check {
                file: "set.txt".into(),
                mbps: 16.0,
                protocol: ProtocolKind::Fddi,
                stations: None,
                format: OutputFormat::Plain,
            }
        );
    }

    #[test]
    fn check_format_flag() {
        let cli = parse(&["check", "set.txt", "--mbps", "4", "--format", "csv"]).unwrap();
        match cli.command {
            Command::Check { format, .. } => assert_eq!(format, OutputFormat::Csv),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&["check", "f", "--mbps", "4", "--format", "xml"]).is_err());
    }

    #[test]
    fn serve_command() {
        let cli = parse(&["serve"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve(ServiceConfig {
                addr: "127.0.0.1:7400".into(),
                workers: 4,
                queue_depth: 64,
                default_deadline_ms: 2_000,
                state_dir: None,
                cache_entries: ringrt_service::cache::DEFAULT_CAPACITY,
                exec_threads: None,
                slow_ms: None,
                trace_enabled: true,
                follow: None,
                segment_bytes: None,
                promote_timeout_ms: None,
                max_conns: 0,
                idle_timeout_ms: None,
                read_deadline_ms: 30_000,
            })
        );
        let cli = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "2",
            "--queue-depth",
            "8",
            "--deadline-ms",
            "500",
            "--state-dir",
            "/tmp/rings",
            "--cache-entries",
            "128",
            "--slow-ms",
            "250",
            "--trace",
            "off",
            "--follow",
            "10.0.0.9:7400",
            "--segment-bytes",
            "65536",
            "--promote-timeout-ms",
            "3000",
            "--max-conns",
            "20000",
            "--idle-timeout-ms",
            "60000",
            "--read-deadline-ms",
            "5000",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve(ServiceConfig {
                addr: "0.0.0.0:9000".into(),
                workers: 2,
                queue_depth: 8,
                default_deadline_ms: 500,
                state_dir: Some("/tmp/rings".into()),
                cache_entries: 128,
                exec_threads: None,
                slow_ms: Some(250),
                trace_enabled: false,
                follow: Some("10.0.0.9:7400".into()),
                segment_bytes: Some(65536),
                promote_timeout_ms: Some(3000),
                max_conns: 20000,
                idle_timeout_ms: Some(60000),
                read_deadline_ms: 5000,
            })
        );
        assert!(parse(&["serve", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "stray"]).is_err());
        assert!(parse(&["serve", "--trace", "maybe"]).is_err());
        // The event loop is the only front end: the flags that picked
        // another, or several loops, are gone.
        for removed in [["--frontend", "event"], ["--event-loops", "1"]] {
            let err = parse(&["serve", removed[0], removed[1]]).unwrap_err();
            assert_eq!(err, format!("unknown flag `{}`", removed[0]));
        }
    }

    #[test]
    fn promote_and_replication_commands() {
        assert_eq!(
            parse(&["promote"]).unwrap().command,
            Command::Promote {
                addr: "127.0.0.1:7400".into()
            }
        );
        assert_eq!(
            parse(&["promote", "--addr", "10.0.0.2:7401"])
                .unwrap()
                .command,
            Command::Promote {
                addr: "10.0.0.2:7401".into()
            }
        );
        assert_eq!(
            parse(&["replication", "--addr", "10.0.0.2:7401"])
                .unwrap()
                .command,
            Command::Replication {
                addr: "10.0.0.2:7401".into()
            }
        );
        assert!(parse(&["promote", "stray"]).is_err());
    }

    #[test]
    fn trace_command() {
        let cli = parse(&["trace"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Trace {
                addr: "127.0.0.1:7400".into(),
                events: 256,
            }
        );
        let cli = parse(&["trace", "--addr", "10.0.0.1:7401", "--events", "64"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Trace {
                addr: "10.0.0.1:7401".into(),
                events: 64,
            }
        );
        assert!(parse(&["trace", "--events", "0"]).is_err());
        assert!(parse(&["trace", "stray"]).is_err());
    }

    #[test]
    fn registry_register() {
        let cli = parse(&[
            "registry",
            "register",
            "lab",
            "--state-dir",
            "/tmp/s",
            "--mbps",
            "16",
            "--protocol",
            "fddi",
            "--stations",
            "12",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Registry {
                state_dir: "/tmp/s".into(),
                action: RegistryAction::Register {
                    ring: "lab".into(),
                    mbps: 16.0,
                    protocol: ProtocolKind::Fddi,
                    stations: Some(12),
                },
            }
        );
    }

    #[test]
    fn registry_admit_takes_two_positionals() {
        let cli = parse(&[
            "registry",
            "admit",
            "lab",
            "video",
            "--state-dir",
            "/tmp/s",
            "--period-ms",
            "20",
            "--bits",
            "20000",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Registry {
                state_dir: "/tmp/s".into(),
                action: RegistryAction::Admit {
                    ring: "lab".into(),
                    stream: "video".into(),
                    period_ms: 20.0,
                    bits: 20_000,
                    deadline_ms: None,
                },
            }
        );
        // Missing the stream positional.
        let err = parse(&[
            "registry",
            "admit",
            "lab",
            "--state-dir",
            "/tmp/s",
            "--period-ms",
            "20",
            "--bits",
            "1",
        ])
        .unwrap_err();
        assert!(err.contains("<ring> <stream>"), "{err}");
    }

    #[test]
    fn registry_show_and_compact() {
        let cli = parse(&["registry", "show", "--state-dir", "/tmp/s"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Registry {
                state_dir: "/tmp/s".into(),
                action: RegistryAction::Show { ring: None },
            }
        );
        let cli = parse(&["registry", "show", "lab", "--state-dir", "/tmp/s"]).unwrap();
        match cli.command {
            Command::Registry {
                action: RegistryAction::Show { ring },
                ..
            } => assert_eq!(ring.as_deref(), Some("lab")),
            other => panic!("unexpected {other:?}"),
        }
        let cli = parse(&["registry", "compact", "--state-dir", "/tmp/s"]).unwrap();
        match cli.command {
            Command::Registry { action, .. } => assert_eq!(action, RegistryAction::Compact),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn registry_errors() {
        assert!(parse(&["registry"]).unwrap_err().contains("action"));
        assert!(parse(&["registry", "frob", "--state-dir", "/tmp/s"])
            .unwrap_err()
            .contains("unknown registry action"));
        assert!(parse(&["registry", "show"])
            .unwrap_err()
            .contains("--state-dir"));
        assert!(parse(&["registry", "compact", "x", "--state-dir", "/tmp/s"]).is_err());
        assert!(parse(&[
            "registry",
            "admit",
            "lab",
            "v",
            "--state-dir",
            "/tmp/s",
            "--period-ms",
            "20"
        ])
        .unwrap_err()
        .contains("--bits"));
        assert!(parse(&[
            "registry",
            "admit",
            "lab",
            "v",
            "--state-dir",
            "/tmp/s",
            "--period-ms",
            "20",
            "--bits",
            "1",
            "--deadline-ms",
            "NaN"
        ])
        .unwrap_err()
        .contains("--deadline-ms"));
        // Positionals after flags are rejected.
        assert!(parse(&["registry", "remove", "lab", "--state-dir", "/tmp/s", "v"]).is_err());
    }

    #[test]
    fn simulate_defaults() {
        let cli = parse(&["simulate", "set.txt", "--mbps", "4"]).unwrap();
        match cli.command {
            Command::Simulate {
                protocol,
                seconds,
                async_load,
                seed,
                stations,
                ..
            } => {
                assert_eq!(protocol, ProtocolKind::Modified);
                assert_eq!(seconds, 1.0);
                assert_eq!(async_load, 0.0);
                assert_eq!(seed, 1);
                assert_eq!(stations, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sweep_list() {
        let cli = parse(&["sweep", "set.txt", "--mbps", "1,10,100"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Sweep {
                file: "set.txt".into(),
                mbps: vec![1.0, 10.0, 100.0],
            }
        );
    }

    #[test]
    fn protocol_aliases() {
        for (alias, want) in [
            ("802.5", ProtocolKind::Ieee8025),
            ("standard", ProtocolKind::Ieee8025),
            ("mod", ProtocolKind::Modified),
            ("TTP", ProtocolKind::Fddi),
        ] {
            let cli = parse(&["check", "f", "--mbps", "1", "--protocol", alias]).unwrap();
            match cli.command {
                Command::Check { protocol, .. } => assert_eq!(protocol, want, "{alias}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["check"]).is_err());
        assert!(parse(&["check", "f"]).unwrap_err().contains("--mbps"));
        assert!(parse(&["check", "f", "--mbps", "NaNx"]).is_err());
        assert!(parse(&["check", "f", "--mbps", "NaN"]).is_err());
        assert!(parse(&["simulate", "f", "--mbps", "1", "--seconds", "nan"]).is_err());
        assert!(parse(&["check", "f", "--mbps", "1", "--protocol", "atm"]).is_err());
        assert!(parse(&["sweep", "f", "--mbps", "1,-2"]).is_err());
        assert!(parse(&["check", "f", "--mbps"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["check", "f", "--mbps", "1", "stray"]).is_err());
    }

    #[test]
    fn abu_command() {
        let cli = parse(&[
            "abu",
            "--mbps",
            "100",
            "--stations",
            "20",
            "--samples",
            "10",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Abu {
                mbps: 100.0,
                stations: 20,
                samples: 10,
                seed: 1,
            }
        );
        assert!(parse(&["abu"]).unwrap_err().contains("--mbps"));
        assert!(parse(&["abu", "positional"]).is_err());
    }

    #[test]
    fn help() {
        assert_eq!(parse(&["help"]).unwrap().command, Command::Help);
        assert_eq!(parse(&["--help"]).unwrap().command, Command::Help);
        assert!(USAGE.contains("ringrt check"));
    }

    #[test]
    fn last_flag_wins() {
        let cli = parse(&["check", "f", "--mbps", "1", "--mbps", "2"]).unwrap();
        match cli.command {
            Command::Check { mbps, .. } => assert_eq!(mbps, 2.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display() {
        assert_eq!(ProtocolKind::Fddi.to_string(), "fddi");
        assert_eq!(ProtocolKind::Ieee8025.to_string(), "802.5");
        assert_eq!(ProtocolKind::default(), ProtocolKind::Modified);
    }
}
