//! Checks the server's replies against the library it serves.
//!
//! A [`Reference`] replays one server's conversation in order through the
//! library: the analysis engine for `CHECK`/`SIMULATE`/`ABU`, a
//! [`ResultCache`] of the server's default capacity for the `cached=`
//! flag (the server's cache is the same type, fed the same lookups in the
//! same order over one connection), and an in-memory [`RingRegistry`] for
//! the ring commands.

use ringrt_exec::Pool;
use ringrt_registry::{AdmissionOutcome, RingRegistry, RingSpec};
use ringrt_service::engine::{execute, execute_abu};
use ringrt_service::{parse_request, CacheKey, CommandKind, Request, ResultCache};

/// What the library says about one request line before any server state
/// is involved: computed independently per line (so in parallel), then
/// applied in order by [`Reference::check`].
#[derive(Debug, Clone)]
pub enum Prepared {
    /// A cacheable analysis: its command, cache key, and the engine's
    /// body when it was recomputed.
    Analysis {
        /// Wire command token.
        cmd: &'static str,
        /// The server's cache key for the request.
        key: CacheKey,
        /// The engine's reply body, if recomputed.
        expected: Option<String>,
    },
    /// A ring command, applied to the reference registry in order.
    Ring(Request),
    /// A line the library refuses.
    Invalid(String),
}

/// Parses `line` and, for an analysis when `recompute` is set, runs the
/// engine on it. With `recompute` false an analysis is not re-run (it
/// costs as much as the request); its reply is then only checked for the
/// command, the `OK` status and the `cached=` flag.
#[must_use]
pub fn prepare(line: &str, recompute: bool) -> Prepared {
    match parse_request(line) {
        Ok(Request::Analysis(req)) => match CacheKey::for_request(&req) {
            Some(key) => Prepared::Analysis {
                cmd: req.command.token(),
                key,
                expected: recompute.then(|| execute(&req)),
            },
            None => Prepared::Invalid("uncacheable analysis".to_owned()),
        },
        Ok(Request::Abu(req)) => Prepared::Analysis {
            cmd: "abu",
            key: CacheKey::for_abu(&req),
            expected: recompute.then(|| execute_abu(&req, &Pool::serial())),
        },
        Ok(other) => Prepared::Ring(other),
        Err(e) => Prepared::Invalid(format!("unparseable request: {e}")),
    }
}

/// The library's view of one server's state, advanced request by request.
pub struct Reference {
    cache: ResultCache,
    registry: RingRegistry,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            cache: ResultCache::new(),
            registry: RingRegistry::in_memory(),
        }
    }
}

impl Reference {
    /// Advances the reference by one prepared request and compares `reply`
    /// with what the library answers.
    ///
    /// # Errors
    ///
    /// A description of the first difference.
    pub fn check(&mut self, prepared: Prepared, reply: &str) -> Result<(), String> {
        match prepared {
            Prepared::Analysis { cmd, key, expected } => {
                self.check_cached(cmd, key, expected, reply)
            }
            Prepared::Invalid(why) => Err(why),
            Prepared::Ring(request) => self.check_ring(request, reply),
        }
    }

    fn check_ring(&mut self, request: Request, reply: &str) -> Result<(), String> {
        match request {
            Request::Register { ring, spec } => {
                self.registry
                    .register(&ring, spec)
                    .map_err(|e| format!("reference register failed: {e}"))?;
                let mut want = vec![("cmd", "register".to_owned()), ("ring", ring)];
                want.extend(spec_fields(&spec));
                match_fields(reply, &want)
            }
            Request::Admit {
                ring,
                stream,
                candidate,
            } => {
                let out = self
                    .registry
                    .admit(&ring, &stream, candidate)
                    .map_err(|e| format!("reference admit failed: {e}"))?;
                match_fields(reply, &admission_fields("admit", ring, stream, &out))
            }
            Request::Remove { ring, stream } => {
                let out = self
                    .registry
                    .remove(&ring, &stream)
                    .map_err(|e| format!("reference remove failed: {e}"))?;
                match_fields(reply, &admission_fields("remove", ring, stream, &out))
            }
            Request::Show {
                ring: Some(ring),
                limit,
                offset,
            } => self.check_show(ring, limit, offset, reply),
            Request::RingAnalysis {
                command: CommandKind::Check,
                ring,
                ..
            } => {
                let c = self
                    .registry
                    .check_full(&ring)
                    .map_err(|e| format!("reference check failed: {e}"))?;
                match_fields(
                    reply,
                    &[
                        ("cmd", "check".to_owned()),
                        ("ring", ring),
                        ("protocol", c.spec.protocol.to_string()),
                        ("mbps", c.spec.mbps.to_string()),
                        ("stations", c.spec.effective_stations(c.streams).to_string()),
                        ("streams", c.streams.to_string()),
                        ("utilization", format!("{:.6}", c.utilization)),
                        ("schedulable", c.schedulable.to_string()),
                        ("evaluations", c.evaluations.to_string()),
                    ],
                )
            }
            other => Err(format!("the benchmark never sends {other:?}")),
        }
    }

    /// Mirrors the server's lookup-then-insert on its result cache and
    /// compares the reply with `expected` plus the mirrored `cached=` flag.
    fn check_cached(
        &mut self,
        cmd: &str,
        key: CacheKey,
        expected: Option<String>,
        reply: &str,
    ) -> Result<(), String> {
        let hit = self.cache.get(&key).is_some();
        if !hit && expected.as_ref().is_none_or(|body| body.starts_with("OK")) {
            self.cache.insert(key, String::new());
        }
        let flag = format!(" cached={hit}");
        match expected {
            Some(body) => {
                let want = format!("{body}{flag}");
                if reply == want {
                    Ok(())
                } else {
                    Err(format!("expected `{want}`"))
                }
            }
            None if reply.starts_with(&format!("OK cmd={cmd} ")) && reply.ends_with(&flag) => {
                Ok(())
            }
            None => Err(format!("expected an `OK cmd={cmd}` reply ending `{flag}`")),
        }
    }

    fn check_show(
        &mut self,
        ring: String,
        limit: Option<usize>,
        offset: Option<usize>,
        reply: &str,
    ) -> Result<(), String> {
        let mut want = vec![("cmd", "show".to_owned()), ("ring", ring.clone())];
        let rows: Vec<(String, ringrt_model::SyncStream)> = if limit.is_some() || offset.is_some() {
            let page = self
                .registry
                .ring_page(&ring, offset.unwrap_or(0), limit.unwrap_or(usize::MAX))
                .map_err(|e| format!("reference page failed: {e}"))?;
            want.extend(spec_fields(&page.spec));
            want.push(("streams", page.streams.to_string()));
            want.push(("shown", page.page.len().to_string()));
            want.push(("offset", page.offset.to_string()));
            page.page
        } else {
            let state = self
                .registry
                .ring_state(&ring)
                .map_err(|e| format!("reference show failed: {e}"))?;
            want.extend(spec_fields(&state.spec));
            want.push(("streams", state.len().to_string()));
            state.iter().map(|(n, s)| (n.to_owned(), s)).collect()
        };
        want.push(("set", render_rows(&rows)));
        match_fields(reply, &want)
    }
}

fn spec_fields(spec: &RingSpec) -> [(&'static str, String); 3] {
    [
        ("protocol", spec.protocol.to_string()),
        ("mbps", spec.mbps.to_string()),
        (
            "stations",
            spec.stations
                .map_or_else(|| "-".to_owned(), |n| n.to_string()),
        ),
    ]
}

fn admission_fields(
    cmd: &str,
    ring: String,
    stream: String,
    out: &AdmissionOutcome,
) -> Vec<(&'static str, String)> {
    vec![
        ("cmd", cmd.to_owned()),
        ("ring", ring),
        ("stream", stream),
        ("schedulable", out.check.schedulable.to_string()),
        ("admitted", out.applied.to_string()),
        ("incremental", out.check.incremental.to_string()),
        ("evaluations", out.check.evaluations.to_string()),
        ("streams", out.streams.to_string()),
    ]
}

/// A listing's `set=` value: `name:period_ms,bits[,deadline_ms]` joined by
/// `;`, or `-` when empty.
fn render_rows(rows: &[(String, ringrt_model::SyncStream)]) -> String {
    if rows.is_empty() {
        return "-".to_owned();
    }
    let entries: Vec<String> = rows
        .iter()
        .map(|(name, s)| {
            let mut entry = format!(
                "{name}:{},{}",
                s.period().as_millis(),
                s.length_bits().as_u64()
            );
            if !s.has_implicit_deadline() {
                entry.push_str(&format!(",{}", s.relative_deadline().as_millis()));
            }
            entry
        })
        .collect();
    entries.join(";")
}

/// Requires an `OK` reply carrying every `want` field with exactly the
/// wanted value. Fields the reference does not define are ignored, so a
/// reply may grow new fields without failing the benchmark.
fn match_fields(reply: &str, want: &[(&str, String)]) -> Result<(), String> {
    let mut words = reply.split_whitespace();
    if words.next() != Some("OK") {
        return Err("expected an OK reply".to_owned());
    }
    let got: Vec<(&str, &str)> = words.filter_map(|w| w.split_once('=')).collect();
    for (key, value) in want {
        match got.iter().find(|(k, _)| k == key) {
            Some((_, v)) if v == value => {}
            Some((_, v)) => return Err(format!("{key}={v}, reference says {key}={value}")),
            None => return Err(format!("missing {key}=, reference says {key}={value}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Client;

    /// Drives `lines` through an in-process server with default settings
    /// and returns the replies.
    fn converse(lines: &[&str]) -> Vec<String> {
        let server = ringrt_service::spawn(ringrt_service::ServiceConfig::default())
            .expect("in-process server starts");
        let mut client = Client::connect(server.addr()).expect("connects");
        let replies = lines
            .iter()
            .map(|l| client.call(l).expect("reply"))
            .collect();
        drop(client);
        server.shutdown();
        server.join();
        replies
    }

    fn failures(lines: &[&str], replies: &[String]) -> Vec<usize> {
        let mut reference = Reference::default();
        lines
            .iter()
            .zip(replies)
            .enumerate()
            .filter(|(_, (l, r))| reference.check(prepare(l, true), r).is_err())
            .map(|(k, _)| k)
            .collect()
    }

    const LINES: [&str; 10] = [
        "CHECK mbps=16 protocol=modified set=20,20000;50,60000",
        "CHECK mbps=1 protocol=fddi set=10,60000;10,60000",
        "CHECK mbps=16 protocol=modified set=50,60000;20,20000",
        "REGISTER ring=lab protocol=modified mbps=16 stations=8",
        "ADMIT ring=lab stream=a period_ms=20 bits=20000",
        "ADMIT ring=lab stream=b period_ms=50 bits=60000",
        "SHOW ring=lab limit=1 offset=1",
        "CHECK ring=lab",
        "REMOVE ring=lab stream=a",
        "SHOW ring=lab",
    ];

    #[test]
    fn true_replies_pass() {
        let replies = converse(&LINES);
        assert_eq!(
            failures(&LINES, &replies),
            Vec::<usize>::new(),
            "{replies:#?}"
        );
        // The reordered set hits the entry the first CHECK stored.
        assert!(replies[2].ends_with("cached=true"), "{}", replies[2]);
    }

    #[test]
    fn an_altered_reply_is_caught() {
        let replies = converse(&LINES);
        let alterations: [(usize, &str, &str); 6] = [
            (0, "schedulable=true", "schedulable=false"),
            (2, "cached=true", "cached=false"),
            (5, "evaluations=", "evaluations=9"),
            (6, "b:50,60000", "b:50,60001"),
            (7, "utilization=", "utilization=1"),
            (9, "streams=1", "streams=2"),
        ];
        for (k, from, to) in alterations {
            assert!(replies[k].contains(from), "{}", replies[k]);
            let mut altered = replies.clone();
            altered[k] = altered[k].replacen(from, to, 1);
            assert_eq!(
                failures(&LINES, &altered),
                vec![k],
                "altered {}",
                altered[k]
            );
        }
    }

    #[test]
    fn unchecked_analyses_still_need_ok_and_the_cached_flag() {
        let line = "ABU mbps=100 stations=4 samples=2 seed=3 protocol=fddi";
        let busy = "BUSY queue_capacity=64";
        assert!(Reference::default()
            .check(prepare(line, false), busy)
            .is_err());
        let mut reference = Reference::default();
        let ok = "OK cmd=abu protocol=fddi cached=false";
        assert!(reference.check(prepare(line, false), ok).is_ok());
        // The same request again must be answered from the cache.
        assert!(reference.check(prepare(line, false), ok).is_err());
    }
}
