//! The traced run's in-process replay.
//!
//! Each replay sends a workload's seeded request lines through the same
//! public library calls the server makes for them, in the same order, on
//! one thread, and records a span around every call: one root span per
//! request (carrying its request id) and one child span per layer call.
//! Spans stay in memory and are written out once, when the run ends.
//! Counts are recorded at the same call sites, so every ratio is measured
//! where its work happens.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use ringrt_breakdown::SaturationSearch;
use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_core::SchedulabilityTest;
use ringrt_exec::Pool;
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_registry::RingRegistry;
use ringrt_service::engine::{execute, execute_abu, execute_with};
use ringrt_service::{
    parse_request, AbuRequest, AnalysisRequest, CacheKey, ProtocolKind, Request, ResultCache,
};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

use crate::inputs::Inputs;

/// Span and count names, one per layer call or counted outcome.
pub mod name {
    pub const PARSE: &str = "service.protocol.parse";
    pub const REQUEST_BYTES: &str = "service.protocol.request_bytes";
    pub const CACHE_KEY: &str = "service.cache.key";
    pub const CACHE_GET: &str = "service.cache.get";
    pub const CACHE_INSERT: &str = "service.cache.insert";
    pub const CACHE_HIT: &str = "service.cache.hit";
    pub const CACHE_EVICTIONS: &str = "service.cache.evictions";
    pub const ENGINE_CHECK: &str = "service.engine.check";
    pub const PDP_TEST: &str = "core.pdp.test";
    pub const TTP_TEST: &str = "core.ttp.test";
    pub const SCHEDULABLE: &str = "core.schedulable";
    pub const REG_ADMIT: &str = "registry.admit";
    pub const REG_REMOVE: &str = "registry.remove";
    pub const REG_READ: &str = "registry.read";
    pub const REG_JOURNALED: &str = "registry.journaled_op";
    pub const JOURNAL_NS: &str = "registry.journal_ns";
    pub const EVALUATIONS: &str = "registry.evaluations";
    pub const INCREMENTAL: &str = "registry.incremental";
    pub const GENERATE: &str = "workload.generate";
    pub const SATURATE: &str = "breakdown.saturate";
    pub const TESTS: &str = "breakdown.tests";
    pub const ABU_SERIAL: &str = "exec.abu_serial";
    pub const ABU_PARALLEL: &str = "exec.abu_parallel";
    pub const SIMULATE: &str = "sim.simulate";
    pub const EVENTS: &str = "sim.events";
}

/// The calls of the server's own request path. Their per-request sum is
/// what the residual subtracts; every other span re-measures part of one
/// of them, or runs beside it, and is left out of the sum.
const ON_PATH: [&str; 11] = [
    name::PARSE,
    name::CACHE_KEY,
    name::CACHE_GET,
    name::ENGINE_CHECK,
    name::CACHE_INSERT,
    name::REG_ADMIT,
    name::REG_REMOVE,
    name::REG_READ,
    name::JOURNAL_NS,
    name::ABU_PARALLEL,
    name::SIMULATE,
];

/// Root span of a timed request.
pub const REQUEST: &str = "request";
/// Root span of a set-up request.
pub const SETUP: &str = "setup";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (or root) name.
    pub name: &'static str,
    /// Id of the request the span belongs to.
    pub request: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// A sum and the number of values in it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Acc {
    /// Values summed.
    pub n: u64,
    /// Their sum.
    pub sum: f64,
}

impl Acc {
    fn add(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
    }

    /// The mean, `0.0` when empty.
    #[must_use]
    pub fn mean(self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Spans plus per-(phase, name) sums of durations and counts.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    acc: BTreeMap<(&'static str, &'static str), Acc>,
    derived: BTreeMap<&'static str, (f64, u64)>,
    phase: &'static str,
    requests: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            acc: BTreeMap::new(),
            derived: BTreeMap::new(),
            phase: REQUEST,
            requests: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens the root span of request `id` in `phase` ([`REQUEST`] or
    /// [`SETUP`]); layer calls until the next root accumulate under it.
    pub fn root(&mut self, phase: &'static str, id: u64) -> usize {
        self.phase = phase;
        *self.requests.entry(phase).or_default() += 1;
        let now = Instant::now();
        self.record(phase, id, None, now, now)
    }

    /// Closes a root span.
    pub fn close(&mut self, root: usize) {
        self.spans[root].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a child span of `parent` named `name`, adding its
    /// duration to the layer's sum.
    pub fn call<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(parent, name, start, Instant::now());
        out
    }

    /// Records an already-timed child span of `parent` and adds its
    /// duration to the layer's sum.
    pub fn span(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let request = self.spans[parent].request;
        self.add(name, (end - start).as_nanos() as f64);
        self.record(name, request, Some(parent), start, end)
    }

    /// Adds one value to the current phase's sum for `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.acc.entry((self.phase, name)).or_default().add(value);
    }

    /// Sets a metric computed once for the whole replay.
    pub fn derive(&mut self, name: &'static str, value: f64, n: u64) {
        self.derived.insert(name, (value, n));
    }

    /// A derived metric, if set.
    #[must_use]
    pub fn derived(&self, name: &str) -> Option<(f64, u64)> {
        self.derived.get(name).copied()
    }

    /// The sum for `name` over timed requests, or over set-up requests
    /// when the layer only runs during set-up (check-hit's misses).
    #[must_use]
    pub fn acc(&self, name: &str) -> Acc {
        let timed = self.acc.get(&(REQUEST, name)).copied().unwrap_or_default();
        if timed.n > 0 {
            timed
        } else {
            self.acc.get(&(SETUP, name)).copied().unwrap_or_default()
        }
    }

    /// Timed requests replayed.
    #[must_use]
    pub fn timed_requests(&self) -> u64 {
        self.requests.get(REQUEST).copied().unwrap_or(0)
    }

    /// Mean time per timed request spent in the server's own request path,
    /// in microseconds.
    #[must_use]
    pub fn on_path_us_per_request(&self) -> f64 {
        let n = self.timed_requests();
        if n == 0 {
            return 0.0;
        }
        let total_ns: f64 = ON_PATH
            .iter()
            .filter_map(|name| self.acc.get(&(REQUEST, *name)))
            .map(|a| a.sum)
            .sum();
        total_ns / n as f64 / 1e3
    }

    /// Appends `other`'s spans (shifted onto this tracer's clock) so one
    /// file holds every replay of a run.
    pub fn absorb_spans(&mut self, other: &Tracer) {
        let shift = self.ns(other.epoch);
        let base = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s.clone()
        }));
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as JSON: one object per line inside `spans`.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write_json(&self, path: &Path, header: &str) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header}, \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

fn lines(inputs: &Inputs, timed: usize) -> impl Iterator<Item = &str> + '_ {
    (0..timed).map_while(|k| inputs.timed_line(k).map(|i| inputs.lines[i].as_str()))
}

/// Replays check-hit or check-miss: set-up requests (check-hit's misses,
/// check-miss's cache fill) then `timed` timed requests, through
/// `parse_request`, `CacheKey::for_request`, `ResultCache::get`, and on a
/// miss `engine::execute_with` and `ResultCache::insert`. Each miss also
/// runs the protocol's analyzer directly, built the way the engine builds
/// it, to time Theorem 4.1 / 5.1 alone.
pub fn replay_check(tr: &mut Tracer, inputs: &Inputs, timed: usize) {
    let cache = ResultCache::new();
    let serial = Pool::serial();
    let setup = inputs
        .setup
        .iter()
        .flatten()
        .map(|&i| inputs.lines[i].as_str());
    for (id, line) in setup.enumerate() {
        let root = tr.root(SETUP, id as u64);
        serve_check(tr, root, &cache, &serial, line);
        tr.close(root);
    }
    for (id, line) in lines(inputs, timed).enumerate() {
        let root = tr.root(REQUEST, id as u64);
        serve_check(tr, root, &cache, &serial, line);
        tr.close(root);
    }
}

fn serve_check(tr: &mut Tracer, root: usize, cache: &ResultCache, pool: &Pool, line: &str) {
    let parsed = tr.call(root, name::PARSE, || parse_request(line));
    tr.add(name::REQUEST_BYTES, line.len() as f64);
    let Ok(Request::Analysis(req)) = parsed else {
        panic!("generated CHECK line does not parse: {line}");
    };
    let key = tr
        .call(root, name::CACHE_KEY, || CacheKey::for_request(&req))
        .expect("CHECK is cacheable");
    let hit = tr.call(root, name::CACHE_GET, || cache.get(&key)).is_some();
    tr.add(name::CACHE_HIT, f64::from(u8::from(hit)));
    if hit {
        return;
    }
    let body = tr.call(root, name::ENGINE_CHECK, || execute_with(&req, pool));
    insert(tr, root, cache, key, body);
    time_analyzer(tr, root, &req);
}

fn insert(tr: &mut Tracer, root: usize, cache: &ResultCache, key: CacheKey, body: String) {
    let before = cache.evictions();
    tr.call(root, name::CACHE_INSERT, || cache.insert(key, body));
    tr.add(name::CACHE_EVICTIONS, (cache.evictions() - before) as f64);
}

/// The analyzer the engine builds for a request.
fn analyzer(protocol: ProtocolKind, stations: usize, bw: Bandwidth) -> Box<dyn Test> {
    match protocol {
        ProtocolKind::Ieee8025 => Box::new(PdpAnalyzer::new(
            RingConfig::ieee_802_5(stations, bw),
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        )),
        ProtocolKind::Modified => Box::new(PdpAnalyzer::new(
            RingConfig::ieee_802_5(stations, bw),
            FrameFormat::paper_default(),
            PdpVariant::Modified,
        )),
        ProtocolKind::Fddi => Box::new(TtpAnalyzer::with_defaults(RingConfig::fddi(stations, bw))),
    }
}

trait Test: SchedulabilityTest + Sync {}
impl<T: SchedulabilityTest + Sync> Test for T {}

fn test_name(protocol: ProtocolKind) -> &'static str {
    if protocol == ProtocolKind::Fddi {
        name::TTP_TEST
    } else {
        name::PDP_TEST
    }
}

fn time_analyzer(tr: &mut Tracer, root: usize, req: &AnalysisRequest) {
    let bw = Bandwidth::from_mbps(req.mbps);
    let test = analyzer(req.protocol, req.effective_stations(), bw);
    let verdict = tr.call(root, test_name(req.protocol), || {
        test.is_schedulable(&req.set)
    });
    tr.add(name::SCHEDULABLE, f64::from(u8::from(verdict)));
}

/// Replays admit-churn: the rings are registered and populated untimed on
/// an in-memory registry and on a journaled one in `state_dir`, then
/// `timed` operations run on both. The in-memory call is the registry
/// layer (`admit`, `remove`, `ring_page`, `check_full`); the journaled
/// call's extra time is the journal layer.
///
/// # Errors
///
/// When the journaled registry cannot be opened or an operation fails.
pub fn replay_registry(
    tr: &mut Tracer,
    inputs: &Inputs,
    timed: usize,
    state_dir: &Path,
) -> Result<(), String> {
    let memory = RingRegistry::in_memory();
    let journaled = RingRegistry::open(state_dir).map_err(|e| e.to_string())?;
    for &i in inputs.setup.iter().flatten() {
        let request = parse_request(&inputs.lines[i]).map_err(|e| e.to_string())?;
        for registry in [&memory, &journaled] {
            registry_op(registry, &request)?;
        }
    }
    let bytes_before = journaled.metrics().journal_bytes;
    let mut mutations = 0u64;
    for (id, line) in lines(inputs, timed).enumerate() {
        let root = tr.root(REQUEST, id as u64);
        let request = tr
            .call(root, name::PARSE, || parse_request(line))
            .map_err(|e| format!("{line}: {e}"))?;
        tr.add(name::REQUEST_BYTES, line.len() as f64);
        let layer = match &request {
            Request::Admit { .. } => name::REG_ADMIT,
            Request::Remove { .. } => name::REG_REMOVE,
            _ => name::REG_READ,
        };
        let start = Instant::now();
        let outcome = registry_op(&memory, &request)?;
        let end = Instant::now();
        tr.span(root, layer, start, end);
        if let Some(out) = outcome {
            mutations += 1;
            let disk_start = Instant::now();
            registry_op(&journaled, &request)?;
            let disk_end = Instant::now();
            tr.record(
                name::REG_JOURNALED,
                id as u64,
                Some(root),
                disk_start,
                disk_end,
            );
            let journal =
                (disk_end - disk_start).as_nanos() as f64 - (end - start).as_nanos() as f64;
            tr.add(name::JOURNAL_NS, journal);
            tr.add(
                name::INCREMENTAL,
                f64::from(u8::from(out.check.incremental)),
            );
            if layer == name::REG_ADMIT {
                tr.add(name::EVALUATIONS, out.check.evaluations as f64);
            }
        }
        tr.close(root);
    }
    let after = journaled.metrics();
    if mutations > 0 {
        tr.derive(
            "registry.journal_bytes_per_mutation",
            (after.journal_bytes - bytes_before) as f64 / mutations as f64,
            mutations,
        );
    }
    let m = memory.metrics();
    tr.derive(
        "store.bytes_per_stream",
        m.store_bytes as f64 / m.streams.max(1) as f64,
        m.streams as u64,
    );
    Ok(())
}

/// Applies one ring command; returns the outcome of a mutation.
fn registry_op(
    registry: &RingRegistry,
    request: &Request,
) -> Result<Option<ringrt_registry::AdmissionOutcome>, String> {
    let err = |e: ringrt_registry::RegistryError| e.to_string();
    match request {
        Request::Register { ring, spec } => registry.register(ring, *spec).map_err(err)?,
        Request::Admit {
            ring,
            stream,
            candidate,
        } => {
            return registry
                .admit(ring, stream, *candidate)
                .map(Some)
                .map_err(err)
        }
        Request::Remove { ring, stream } => {
            return registry.remove(ring, stream).map(Some).map_err(err)
        }
        Request::Show {
            ring: Some(ring),
            limit,
            offset,
        } => {
            let page = registry
                .ring_page(ring, offset.unwrap_or(0), limit.unwrap_or(usize::MAX))
                .map_err(err)?;
            std::hint::black_box(page);
        }
        Request::RingAnalysis { ring, .. } => {
            std::hint::black_box(registry.check_full(ring).map_err(err)?);
        }
        other => return Err(format!("not a ring command: {other:?}")),
    }
    Ok(None)
}

/// Replays abu-sim's first `timed` timed requests through `parse_request`,
/// the cache calls and, for `ABU`, `engine::execute_abu` on a pool of the
/// server's width; for `SIMULATE`, `engine::execute`. Beside the request
/// path, each `ABU` also runs on `Pool::serial()` (which must give the
/// same body), and its samples are redrawn and saturated one by one
/// through `MessageSetGenerator::generate` and `SaturationSearch::saturate`
/// around a counting `SchedulabilityTest`.
///
/// # Errors
///
/// When a line does not parse, or the serial and parallel bodies differ.
pub fn replay_abu(
    tr: &mut Tracer,
    inputs: &Inputs,
    timed: usize,
    width: usize,
) -> Result<(), String> {
    let cache = ResultCache::new();
    let parallel = Pool::new(width.max(1));
    let serial = Pool::serial();
    let mut sim_ns = 0.0;
    let mut events = 0.0;
    for (id, line) in lines(inputs, timed).enumerate() {
        let root = tr.root(REQUEST, id as u64);
        let parsed = tr
            .call(root, name::PARSE, || parse_request(line))
            .map_err(|e| format!("{line}: {e}"))?;
        tr.add(name::REQUEST_BYTES, line.len() as f64);
        match parsed {
            Request::Abu(req) => {
                let key = tr.call(root, name::CACHE_KEY, || CacheKey::for_abu(&req));
                let hit = tr.call(root, name::CACHE_GET, || cache.get(&key)).is_some();
                tr.add(name::CACHE_HIT, f64::from(u8::from(hit)));
                let body = tr.call(root, name::ABU_PARALLEL, || execute_abu(&req, &parallel));
                let serial_body = tr.call(root, name::ABU_SERIAL, || execute_abu(&req, &serial));
                if body != serial_body {
                    return Err(format!("serial and pooled ABU differ for {line}"));
                }
                insert(tr, root, &cache, key, body);
                resample(tr, root, &req);
            }
            Request::Analysis(req) => {
                let key = tr
                    .call(root, name::CACHE_KEY, || CacheKey::for_request(&req))
                    .expect("SIMULATE is cacheable");
                let hit = tr.call(root, name::CACHE_GET, || cache.get(&key)).is_some();
                tr.add(name::CACHE_HIT, f64::from(u8::from(hit)));
                let start = Instant::now();
                let body = tr.call(root, name::SIMULATE, || execute(&req));
                sim_ns += start.elapsed().as_nanos() as f64;
                let n: f64 = body
                    .split(" events=")
                    .nth(1)
                    .and_then(|v| v.split_whitespace().next())
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("no events= in `{body}`"))?;
                events += n;
                tr.add(name::EVENTS, n);
                insert(tr, root, &cache, key, body);
            }
            other => return Err(format!("unexpected abu-sim request {other:?}")),
        }
        tr.close(root);
    }
    if events > 0.0 {
        tr.derive("sim.ns_per_event", sim_ns / events, events as u64);
    }
    Ok(())
}

/// Counts and times every schedulability test a saturation search makes.
struct Counting<'a> {
    inner: &'a dyn Test,
    calls: RefCell<Vec<(Instant, Instant, bool)>>,
}

impl SchedulabilityTest for Counting<'_> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        let start = Instant::now();
        let verdict = self.inner.is_schedulable(set);
        self.calls
            .borrow_mut()
            .push((start, Instant::now(), verdict));
        verdict
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }
}

/// Redraws an `ABU` request's samples exactly as the estimator does (one
/// SplitMix64-mixed seed per sample from the request seed) and saturates
/// each one serially.
fn resample(tr: &mut Tracer, root: usize, req: &AbuRequest) {
    let bw = Bandwidth::from_mbps(req.mbps);
    let test = analyzer(req.protocol, req.stations, bw);
    let generator = MessageSetGenerator::paper_population(req.stations);
    let search = SaturationSearch::default();
    let mut master = StdRng::seed_from_u64(req.seed);
    let seeds: Vec<u64> = (0..req.samples)
        .map(|_| ringrt_exec::splitmix64(master.next_u64()))
        .collect();
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = tr.call(root, name::GENERATE, || generator.generate(&mut rng));
        let counting = Counting {
            inner: test.as_ref(),
            calls: RefCell::new(Vec::new()),
        };
        let start = Instant::now();
        let sat = search.saturate(&counting, &set, bw);
        let end = Instant::now();
        std::hint::black_box(sat);
        let parent = tr.span(root, name::SATURATE, start, end);
        let calls = counting.calls.into_inner();
        tr.add(name::TESTS, calls.len() as f64);
        for (s, e, verdict) in calls {
            tr.span(parent, test_name(req.protocol), s, e);
            tr.add(name::SCHEDULABLE, f64::from(u8::from(verdict)));
        }
    }
}
