//! The connection front end: one epoll readiness loop that owns the
//! listener and every client socket.
//!
//! The loop accepts connections, parses newline-framed requests out of
//! whatever byte fragments arrive, answers cheap requests inline
//! ([`handle_request`]), and hands analysis work to the shared worker
//! queue and stored-ring commands to the registry thread; both push the
//! finished text onto the server's completion queue and wake the loop
//! through a pipe.
//!
//! # fd ownership
//!
//! A socket is owned by exactly one party at a time: the loop's connection
//! table from `accept` on, and — for a connection that issues `SYNC` — a
//! dedicated ship thread after the loop deregisters the fd and flips it
//! back to blocking. Closing is always by drop of the owning
//! [`TcpStream`]; the loop deregisters from epoll first so a recycled fd
//! number cannot surface stale readiness (and the generation-stamped
//! [`ConnTable`] tokens make any already-drained stale event miss).
//!
//! # Ordering
//!
//! Pipelined requests on one connection are answered in arrival order: the
//! per-connection reply queue holds one entry per request (a `BATCH`
//! collapses to one entry, written in one go), and only the *front* entry
//! may flush. A slow analysis therefore delays later replies on its own
//! connection while other connections proceed.
//!
//! Analyses are pure, so pipelined ones may run concurrently. Stored-ring
//! commands are not: a connection whose command is on the registry thread
//! is neither read nor parsed until that reply lands, so its next request
//! — an `ADMIT` after a `REGISTER`, a `SIMULATE ring=` after an `ADMIT` —
//! sees the effect, exactly as if the loop had run it inline.
//!
//! # Backpressure
//!
//! A client that pipelines requests without reading the replies would make
//! the loop buffer replies without bound. Once a connection's unflushed
//! reply bytes reach [`OUT_CAP`], the loop stops reading and parsing its
//! input (`read_paused` counts each pause) until the replies have drained.
//! A `BATCH` is the one exception: it is read to its last line, since its
//! replies leave only together; `MAX_BATCH` bounds what it can hold.
//!
//! # Shutdown
//!
//! On shutdown the loop closes the listener and stops reading; it keeps
//! pumping until every connection has no reply in flight and no unflushed
//! bytes, closing each as it drains (workers drain the queue fully, so
//! every awaited completion arrives). Connections still waiting after
//! [`EXECUTION_GRACE`] are force-closed. The loop thread exits once its
//! table is empty, after joining the ship threads it detached.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringrt_net::{ConnTable, Event, IdleWheel, Interest, LineBuffer, Poller, Token, WriteBuffer};
use ringrt_registry::ShipSubscription;

use crate::metrics::Stage;
use crate::protocol::{CommandKind, MAX_LINE_BYTES};
use crate::server::{
    handle_request, record_completed, serve_ship, Completion, Handled, ReplyTo, Response, Shared,
    EXECUTION_GRACE, POLL_INTERVAL,
};

/// Reserved tokens for the wakeup pipe and the listener; connection tokens
/// are `(generation << 32) | index` and can never collide with them.
const WAKE_TOKEN: Token = Token(u64::MAX);
const LISTEN_TOKEN: Token = Token(u64::MAX - 1);
/// Readiness events collected per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 1024;
/// Read granularity per readiness event.
const READ_CHUNK: usize = 16 * 1024;
/// Reads taken per readable event before yielding to other connections;
/// level-triggered epoll re-reports anything left unread.
const MAX_READS_PER_EVENT: usize = 4;
/// Accepts taken per listener event before serving other connections.
const MAX_ACCEPTS_PER_EVENT: usize = 64;
/// Unflushed reply bytes at which a connection stops being read: far above
/// what a client that reads its replies leaves between two flushes, and
/// small enough that thousands of stalled clients stay affordable.
pub(crate) const OUT_CAP: usize = 64 * 1024;
/// Timer-wheel shape: 64 slots × 100 ms ≈ 6.4 s horizon; longer deadlines
/// surface early and re-arm (lazy revalidation).
const WHEEL_SLOTS: usize = 64;
const WHEEL_GRANULARITY: Duration = Duration::from_millis(100);
/// Connection-table bound when `--max-conns` is unlimited.
const DEFAULT_TABLE_CAP: usize = 65_536;

/// One reply position: already rendered, or awaiting a worker.
enum Part {
    Ready(String),
    Waiting {
        slot: u64,
        /// The latency histogram the reply is recorded in, if any.
        command: Option<CommandKind>,
        started: Instant,
        /// The request line, kept only while the `--slow-ms` log is on.
        request: Option<Box<str>>,
    },
}

/// A request line's arrival and text, taken only while the `--slow-ms` log
/// is on.
type SlowProbe = Option<(Instant, Box<str>)>;

/// The `--slow-ms` log: one stderr line per request slower than the limit.
fn log_if_slow(shared: &Shared, started: Instant, request: &str) {
    if let Some(limit_ms) = shared.config.slow_ms {
        let elapsed = started.elapsed();
        if elapsed >= Duration::from_millis(limit_ms) {
            eprintln!(
                "ringrt-service: slow request ({} ms >= {limit_ms} ms): {request}",
                elapsed.as_millis()
            );
        }
    }
}

impl Part {
    /// Reply bytes this position holds (the text and its newline).
    fn held(&self) -> usize {
        match self {
            Part::Ready(text) => text.len() + 1,
            Part::Waiting { .. } => 0,
        }
    }
}

/// One entry in a connection's in-order reply queue. A `BATCH` is a single
/// entry so its replies leave in one write.
enum Entry {
    Single(Part),
    Batch { parts: Vec<Part>, waiting: usize },
}

/// A `BATCH n` whose `n` request lines have not all arrived yet.
struct BatchInProgress {
    expected: usize,
    parts: Vec<Part>,
    waiting: usize,
}

/// Per-connection state owned by the loop.
struct Conn {
    stream: TcpStream,
    input: LineBuffer,
    out: WriteBuffer,
    /// Whether `out` holds a reply the `respond` stage times. A cache hit
    /// does not count: its one sampled `hit` span already covers the
    /// whole reply (the zero-span fast path).
    out_timed: bool,
    /// Rendered reply bytes parked in `queue` or `batch` behind a reply a
    /// worker still owes.
    held: usize,
    queue: VecDeque<Entry>,
    batch: Option<BatchInProgress>,
    /// Next reply-slot id; completions match on `(token, slot)`.
    next_slot: u64,
    last_activity: Instant,
    /// When the currently buffered partial line started (slow-loris clock).
    partial_since: Option<Instant>,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Unflushed replies reached [`OUT_CAP`]: input is neither read nor
    /// parsed until they drain.
    paused: bool,
    /// The reply slot of a stored-ring command still on the registry
    /// thread: input is neither read nor parsed until it lands, so the
    /// connection's next request sees the command's effect.
    ordered: Option<u64>,
    /// The peer finished sending: lines already buffered are still
    /// served, then the connection closes once its replies are written.
    eof: bool,
    /// Close once the queue and write buffer drain (`SHUTDOWN` reply,
    /// oversized line, refused `SYNC`, peer EOF, server shutdown).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            input: LineBuffer::new(MAX_LINE_BYTES),
            out: WriteBuffer::new(),
            out_timed: false,
            held: 0,
            queue: VecDeque::new(),
            batch: None,
            next_slot: 0,
            last_activity: now,
            partial_since: None,
            interest: Interest::READ,
            paused: false,
            ordered: None,
            eof: false,
            closing: false,
        }
    }

    fn reading(&self) -> bool {
        !self.paused && self.ordered.is_none() && !self.eof && !self.closing
    }

    fn unflushed(&self) -> usize {
        self.out.pending_bytes() + self.held
    }

    /// Everything owed has been written.
    fn drained(&self) -> bool {
        self.queue.is_empty() && self.batch.is_none() && self.out.is_empty()
    }

    /// Replies still owed by workers (queue entries plus the open batch).
    fn waiting_replies(&self) -> usize {
        let queued: usize = self
            .queue
            .iter()
            .map(|entry| match entry {
                Entry::Single(Part::Waiting { .. }) => 1,
                Entry::Single(Part::Ready(_)) => 0,
                Entry::Batch { waiting, .. } => *waiting,
            })
            .sum();
        queued + self.batch.as_ref().map_or(0, |b| b.waiting)
    }

    /// Stops serving input for good: an unfinished batch and a partial
    /// line are dropped, and the connection closes once drained.
    fn finish(&mut self) {
        self.closing = true;
        self.partial_since = None;
        if let Some(batch) = self.batch.take() {
            self.held -= batch.parts.iter().map(Part::held).sum::<usize>();
        }
    }

    /// Counts a reply and appends it to the write buffer.
    fn emit(&mut self, shared: &Shared, text: &str, timed: bool) {
        shared.metrics.count_response(text);
        self.out.push(text.as_bytes());
        self.out.push(b"\n");
        self.out_timed |= timed;
    }

    /// Appends a rendered reply: straight into the write buffer when
    /// nothing is owed ahead of it, else in order behind the queue.
    fn push_ready(&mut self, shared: &Shared, text: String, timed: bool) {
        if self.batch.is_none() && self.queue.is_empty() {
            self.emit(shared, &text, timed);
        } else {
            self.held += text.len() + 1;
            self.push_part(Part::Ready(text));
        }
    }

    /// Queues a reply position: into the open batch (which becomes one
    /// queue entry once its last line has arrived), or as its own entry.
    fn push_part(&mut self, part: Part) {
        let Some(batch) = self.batch.as_mut() else {
            self.queue.push_back(Entry::Single(part));
            return;
        };
        if matches!(part, Part::Waiting { .. }) {
            batch.waiting += 1;
        }
        batch.parts.push(part);
        if batch.parts.len() >= batch.expected {
            let done = self.batch.take().expect("batch checked above");
            self.queue.push_back(Entry::Batch {
                parts: done.parts,
                waiting: done.waiting,
            });
        }
    }

    /// Files one handled request line's outcome in reply order. A `SYNC`
    /// subscription outside a batch is handed back for the caller to
    /// detach.
    fn place(
        &mut self,
        shared: &Shared,
        handled: Handled,
        slot: u64,
        slow: SlowProbe,
    ) -> Option<Box<ShipSubscription>> {
        let (text, timed) = match handled {
            Handled::Queued {
                command,
                started,
                ordered,
            } => {
                self.next_slot += 1;
                if ordered {
                    self.ordered = Some(slot);
                }
                self.push_part(Part::Waiting {
                    slot,
                    command,
                    started,
                    request: slow.map(|(_, request)| request),
                });
                return None;
            }
            Handled::Ready(Response::Batch(expected)) if self.batch.is_none() => {
                self.batch = Some(BatchInProgress {
                    expected: expected.max(1),
                    parts: Vec::with_capacity(expected.max(1)),
                    waiting: 0,
                });
                return None;
            }
            Handled::Ready(Response::Ship(sub)) if self.batch.is_none() => return Some(sub),
            // One framing level is enough; nesting would let a client
            // demand unbounded buffering.
            Handled::Ready(Response::Batch(_)) => {
                ("ERR nested BATCH is not allowed".to_owned(), true)
            }
            // A ship stream takes over the whole connection; it cannot
            // share one with framed batch replies.
            Handled::Ready(Response::Ship(_)) => {
                ("ERR SYNC is not allowed inside BATCH".to_owned(), true)
            }
            Handled::Ready(Response::Close) => {
                self.closing = true;
                (Response::Close.into_text(), true)
            }
            Handled::Ready(Response::Line(text)) => (text, true),
            Handled::Ready(Response::Hit(text)) => (text, false),
        };
        if let Some((started, request)) = slow {
            log_if_slow(shared, started, &request);
        }
        self.push_ready(shared, text, timed);
        None
    }

    /// Fills the reply position waiting on `slot`, recording the request's
    /// latency. `false` means no position waits on it (a stale completion
    /// for a recycled connection slot — dropped).
    fn fill(&mut self, shared: &Arc<Shared>, slot: u64, text: String) -> bool {
        let waits = |p: &Part| matches!(p, Part::Waiting { slot: s, .. } if *s == slot);
        let mut found: Option<(&mut Part, Option<&mut usize>)> = None;
        for entry in &mut self.queue {
            match entry {
                Entry::Single(part) if waits(part) => {
                    found = Some((part, None));
                    break;
                }
                Entry::Batch { parts, waiting } => {
                    if let Some(part) = parts.iter_mut().find(|p| waits(p)) {
                        found = Some((part, Some(waiting)));
                        break;
                    }
                }
                Entry::Single(_) => {}
            }
        }
        if found.is_none() {
            if let Some(batch) = self.batch.as_mut() {
                if let Some(part) = batch.parts.iter_mut().find(|p| waits(p)) {
                    found = Some((part, Some(&mut batch.waiting)));
                }
            }
        }
        let Some((part, waiting)) = found else {
            return false;
        };
        if let Part::Waiting {
            command,
            started,
            request,
            ..
        } = part
        {
            if let Some(command) = command {
                record_completed(shared, *command, *started, &text);
            }
            if let Some(request) = request {
                log_if_slow(shared, *started, request);
            }
        }
        if let Some(waiting) = waiting {
            *waiting -= 1;
        }
        self.held += text.len() + 1;
        *part = Part::Ready(text);
        if self.ordered == Some(slot) {
            self.ordered = None;
        }
        true
    }

    /// Moves every fully ready front-of-queue entry into the write buffer.
    fn pump(&mut self, shared: &Shared) {
        while let Some(front) = self.queue.front() {
            let ready = matches!(
                front,
                Entry::Single(Part::Ready(_)) | Entry::Batch { waiting: 0, .. }
            );
            if !ready {
                break;
            }
            match self.queue.pop_front() {
                Some(Entry::Single(part)) => self.emit_part(shared, part),
                Some(Entry::Batch { parts, .. }) => {
                    for part in parts {
                        self.emit_part(shared, part);
                    }
                }
                None => unreachable!("front checked above"),
            }
        }
    }

    /// Moves one parked reply into the write buffer.
    fn emit_part(&mut self, shared: &Shared, part: Part) {
        self.held -= part.held();
        let Part::Ready(text) = part else {
            unreachable!("a ready entry has no waiting part")
        };
        self.emit(shared, &text, true);
    }
}

#[cfg(unix)]
fn raw_fd(fd: &impl std::os::unix::io::AsRawFd) -> i32 {
    fd.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_fd: &T) -> i32 {
    // Unreachable in practice: `Waker::new` already failed with
    // `Unsupported` on non-unix targets, so no loop is ever built.
    -1
}

/// The server's one event loop.
pub(crate) struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    /// `None` once shutdown began.
    listener: Option<TcpListener>,
    /// Set after `accept` failed hard (fd exhaustion): the listener is out
    /// of the poller until then, so its readiness cannot spin the loop.
    accept_paused_until: Option<Instant>,
    table: ConnTable<Conn>,
    wheel: IdleWheel,
    /// The one read buffer every connection reads into, allocated once.
    read_buf: Vec<u8>,
    /// Completions taken from the server, reused across wakeups.
    completed: Vec<Completion>,
    /// Detached `SYNC` ship threads, joined when the loop exits.
    ships: Vec<JoinHandle<()>>,
}

impl EventLoop {
    /// Builds the loop around `listener`. Runs on the spawning thread, so
    /// fd exhaustion is a spawn-time error, not a dead loop.
    pub(crate) fn new(shared: Arc<Shared>, listener: TcpListener) -> std::io::Result<EventLoop> {
        // Best effort: the loop exists to hold more sockets than the
        // default soft fd limit allows.
        let _ = ringrt_net::rlimit::raise_nofile_to_hard();
        let poller = Poller::new(EVENTS_PER_WAIT)?;
        shared.waker.register(&poller, WAKE_TOKEN)?;
        poller.register(raw_fd(&listener), LISTEN_TOKEN, Interest::READ)?;
        let capacity = match shared.config.max_conns {
            0 => DEFAULT_TABLE_CAP,
            cap => cap,
        };
        Ok(EventLoop {
            shared,
            poller,
            listener: Some(listener),
            accept_paused_until: None,
            table: ConnTable::new(capacity),
            wheel: IdleWheel::new(WHEEL_SLOTS, WHEEL_GRANULARITY, Instant::now()),
            read_buf: vec![0; READ_CHUNK],
            completed: Vec::new(),
            ships: Vec::new(),
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(EVENTS_PER_WAIT);
        let mut due: Vec<u64> = Vec::new();
        let mut shutdown_since: Option<Instant> = None;
        loop {
            // With no deadline armed the loop sleeps until an event: shutdown
            // and completions arrive through the waker. Leaving the wait
            // untimed also spares the kernel a timer per wakeup.
            let timed = !self.wheel.is_empty()
                || self.accept_paused_until.is_some()
                || shutdown_since.is_some();
            let n = self
                .poller
                .wait(&mut events, timed.then_some(POLL_INTERVAL))
                .unwrap_or(0);
            if n > 0 {
                let conns = &self.shared.metrics.conns;
                conns.loop_wakeups.fetch_add(1, Ordering::Relaxed);
                conns
                    .loop_ready_events
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            let mut woken = false;
            for event in &events {
                match event.token {
                    WAKE_TOKEN => woken = true,
                    LISTEN_TOKEN => self.accept_ready(),
                    token => self.handle_event(token, event),
                }
            }
            if woken {
                // Pipe first, then queue: a completion pushed after the
                // drain re-arms the pipe, so none is stranded.
                self.shared.waker.drain();
                self.drain_completions();
            }
            self.sweep_timers(&mut due);
            if self
                .accept_paused_until
                .is_some_and(|t| Instant::now() >= t)
            {
                self.accept_paused_until = None;
                if let Some(listener) = &self.listener {
                    let _ = self
                        .poller
                        .register(raw_fd(listener), LISTEN_TOKEN, Interest::READ);
                }
            }
            if self.shared.shutting_down() {
                let since = match shutdown_since {
                    Some(since) => since,
                    None => {
                        self.stop_accepting();
                        *shutdown_since.insert(Instant::now())
                    }
                };
                self.drain_shutdown(since);
                if self.table.is_empty() {
                    break;
                }
            }
        }
        for ship in self.ships.drain(..) {
            let _ = ship.join();
        }
    }

    fn handle_event(&mut self, token: Token, event: &Event) {
        let Some(conn) = self.table.get_mut(token) else {
            return;
        };
        if conn.reading() {
            // A hangup still lets `read` drain buffered bytes and then
            // return 0/error, which is the close path.
            if event.readable && !self.read_ready(token) {
                return;
            }
        } else if event.hangup {
            // Not reading, so epoll reports only a full hangup or an
            // error: the peer can take no more replies.
            self.close(token);
            return;
        }
        self.service(token);
    }

    /// Reads whatever is available (bounded per event) into the
    /// connection's line buffer. Returns `false` when the connection was
    /// closed.
    fn read_ready(&mut self, token: Token) -> bool {
        let Some(conn) = self.table.get_mut(token) else {
            return false;
        };
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.input.extend(&self.read_buf[..n]);
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
        conn.last_activity = Instant::now();
        true
    }

    /// Serves complete request lines until the input runs dry or the
    /// connection's unflushed replies reach [`OUT_CAP`]; returns `true` in
    /// the second case.
    fn parse_lines(&mut self, token: Token) -> bool {
        loop {
            let Some(conn) = self.table.get_mut(token) else {
                return false;
            };
            if conn.paused || conn.closing || conn.ordered.is_some() {
                return false;
            }
            // An open batch is never cut short: its replies leave only once
            // its last line is in, so stopping inside it could not drain.
            if conn.batch.is_none() && conn.unflushed() >= OUT_CAP {
                return true;
            }
            let slot = conn.next_slot;
            let (handled, slow) = match conn.input.next_line() {
                Ok(Some(line)) => {
                    let slow =
                        (self.shared.config.slow_ms).map(|_| (Instant::now(), Box::from(&*line)));
                    let reply = ReplyTo { conn: token, slot };
                    (handle_request(&line, &self.shared, reply), slow)
                }
                Ok(None) => {
                    if conn.eof {
                        conn.finish();
                    } else if !conn.input.has_partial() {
                        conn.partial_since = None;
                    } else if conn.partial_since.is_none() {
                        // The slow-loris clock starts when a partial line
                        // appears and resets on completion.
                        conn.partial_since = Some(Instant::now());
                        if let Some(deadline) = next_deadline(&self.shared, conn) {
                            self.wheel.schedule(token.0, deadline);
                        }
                    }
                    return false;
                }
                Err(err) => {
                    self.shared
                        .metrics
                        .conns
                        .oversized_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    conn.finish();
                    let text = format!("ERR line exceeds {} bytes", err.max);
                    conn.push_ready(&self.shared, text, true);
                    return false;
                }
            };
            conn.partial_since = None;
            if let Some(sub) = conn.place(&self.shared, handled, slot, slow) {
                self.detach_for_ship(token, *sub);
            }
        }
    }

    /// Serves buffered input, writes every ready reply, applies the
    /// output cap, and brings the poller interest in line. Returns `false`
    /// when the connection was closed.
    fn service(&mut self, token: Token) -> bool {
        loop {
            let capped = self.parse_lines(token);
            let Some(conn) = self.table.get_mut(token) else {
                return false;
            };
            conn.pump(&self.shared);
            if !self.flush(token) {
                return false;
            }
            let Some(conn) = self.table.get_mut(token) else {
                return false;
            };
            let unflushed = conn.unflushed();
            if unflushed >= OUT_CAP && conn.batch.is_none() {
                if !conn.paused {
                    conn.paused = true;
                    self.shared
                        .metrics
                        .conns
                        .read_paused
                        .fetch_add(1, Ordering::Relaxed);
                }
            } else if conn.paused && unflushed == 0 {
                // Drained: serve the lines that arrived before the pause.
                conn.paused = false;
                continue;
            } else if capped && !conn.paused {
                continue;
            }
            break;
        }
        let Some(conn) = self.table.get_mut(token) else {
            return false;
        };
        if conn.closing && conn.drained() {
            self.close(token);
            return false;
        }
        let want = Interest {
            readable: conn.reading(),
            writable: !conn.out.is_empty(),
        };
        if want != conn.interest {
            if self
                .poller
                .reregister(raw_fd(&conn.stream), token, want)
                .is_err()
            {
                self.close(token);
                return false;
            }
            conn.interest = want;
        }
        true
    }

    /// Writes as much buffered reply text as the socket takes. Returns
    /// `false` when the write failed and the connection was closed.
    fn flush(&mut self, token: Token) -> bool {
        let Some(conn) = self.table.get_mut(token) else {
            return false;
        };
        if conn.out.is_empty() {
            return true;
        }
        let result = if conn.out_timed {
            let span = self.shared.recorder.span("request", "respond");
            let result = conn.out.flush_to(&mut conn.stream);
            self.shared
                .metrics
                .record_stage(Stage::Respond, span.finish());
            result
        } else {
            conn.out.flush_to(&mut conn.stream)
        };
        match result {
            Ok(drained) => {
                conn.out_timed &= !drained;
                true
            }
            Err(_) => {
                self.close(token);
                false
            }
        }
    }

    /// Accepts pending connections, shedding beyond the connection cap.
    fn accept_ready(&mut self) {
        for _ in 0..MAX_ACCEPTS_PER_EVENT {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => {
                    let _ = self.poller.deregister(raw_fd(listener));
                    self.accept_paused_until = Some(Instant::now() + POLL_INTERVAL);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, mut stream: TcpStream) {
        let conns = &self.shared.metrics.conns;
        conns.accepted.fetch_add(1, Ordering::Relaxed);
        // Beyond the cap the client gets one definite BUSY line instead of
        // a connection that silently degrades everyone else. Ship streams
        // hold a gauge slot but no table slot, so checking the gauge also
        // guarantees the insert below finds room.
        let cap = self.table.capacity();
        if conns.open.load(Ordering::Relaxed) as usize >= cap {
            conns.accept_shed.fetch_add(1, Ordering::Relaxed);
            let _ = stream.write_all(format!("BUSY max_conns={cap}\n").as_bytes());
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = raw_fd(&stream);
        let now = Instant::now();
        let Ok(token) = self.table.insert(Conn::new(stream, now)) else {
            return;
        };
        if self.poller.register(fd, token, Interest::READ).is_err() {
            self.table.remove(token);
            return;
        }
        conns.open.fetch_add(1, Ordering::Relaxed);
        let conn = self.table.get_mut(token).expect("just inserted");
        if let Some(deadline) = next_deadline(&self.shared, conn) {
            self.wheel.schedule(token.0, deadline);
        }
    }

    /// Hands the socket to a dedicated blocking ship thread (the `SYNC`
    /// path). Refused when replies are still pipelined ahead: the stream
    /// would interleave with framed responses.
    fn detach_for_ship(&mut self, token: Token, sub: ShipSubscription) {
        {
            let Some(conn) = self.table.get_mut(token) else {
                return;
            };
            if !conn.queue.is_empty() || !conn.out.is_empty() {
                conn.finish();
                let refusal = "ERR SYNC cannot be pipelined behind other requests";
                conn.push_ready(&self.shared, refusal.to_owned(), true);
                return;
            }
        }
        let Some(conn) = self.table.remove(token) else {
            return;
        };
        let _ = self.poller.deregister(raw_fd(&conn.stream));
        let shared = Arc::clone(&self.shared);
        let spawned = conn.stream.set_nonblocking(false).and_then(|()| {
            std::thread::Builder::new()
                .name("ringrt-ship".to_owned())
                .spawn(move || {
                    let mut conn = conn;
                    serve_ship(&mut conn.stream, sub, &shared);
                    // The ship thread owned the gauge slot from here on.
                    shared.metrics.conns.open.fetch_sub(1, Ordering::Relaxed);
                })
        });
        match spawned {
            Ok(handle) => self.ships.push(handle),
            Err(_) => {
                self.shared
                    .metrics
                    .conns
                    .open
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Matches worker completions back to their waiting reply slots.
    fn drain_completions(&mut self) {
        let mut completed = std::mem::take(&mut self.completed);
        self.shared.take_completions(&mut completed);
        for Completion { reply, text } in completed.drain(..) {
            let Some(conn) = self.table.get_mut(reply.conn) else {
                // The connection closed while the job executed; the reply
                // has nowhere to go (generation-stamped token went stale).
                continue;
            };
            if conn.fill(&self.shared, reply.slot, text) {
                self.service(reply.conn);
            }
        }
        self.completed = completed;
    }

    /// Advances the timer wheel and revalidates every surfaced candidate:
    /// enforce the partial-line read deadline (slow loris) and the idle
    /// timeout, or lazily re-arm at the connection's true next deadline.
    fn sweep_timers(&mut self, due: &mut Vec<u64>) {
        enum Verdict {
            ReadDeadline(u64),
            Idle,
            Rearm(Option<Instant>),
        }
        let now = Instant::now();
        due.clear();
        self.wheel.advance(now, due);
        for &id in due.iter() {
            let token = Token(id);
            let verdict = {
                let Some(conn) = self.table.get_mut(token) else {
                    continue; // closed since scheduling: entry is stale
                };
                let rd = self.shared.config.read_deadline_ms;
                let read_expired = rd > 0
                    && conn
                        .partial_since
                        .is_some_and(|s| now.duration_since(s) >= Duration::from_millis(rd));
                let idle_expired = self.shared.config.idle_timeout_ms.is_some_and(|idle| {
                    now.duration_since(conn.last_activity) >= Duration::from_millis(idle)
                        && conn.waiting_replies() == 0
                        && conn.out.is_empty()
                        && conn.queue.is_empty()
                });
                if read_expired {
                    Verdict::ReadDeadline(rd)
                } else if idle_expired {
                    Verdict::Idle
                } else {
                    Verdict::Rearm(next_deadline(&self.shared, conn))
                }
            };
            match verdict {
                Verdict::ReadDeadline(rd) => {
                    self.shared
                        .metrics
                        .conns
                        .read_deadline_closed
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = self.table.get_mut(token) {
                        let _ = conn.stream.write_all(
                            format!("ERR read deadline: partial line idle for {rd} ms\n")
                                .as_bytes(),
                        );
                    }
                    self.close(token);
                }
                Verdict::Idle => {
                    self.shared
                        .metrics
                        .conns
                        .idle_closed
                        .fetch_add(1, Ordering::Relaxed);
                    self.close(token);
                }
                Verdict::Rearm(Some(deadline)) => self.wheel.schedule(id, deadline),
                Verdict::Rearm(None) => {}
            }
        }
    }

    /// The first step of shutdown: close the listener (new connects are
    /// refused) and stop reading every connection.
    fn stop_accepting(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(raw_fd(&listener));
        }
        for token in self.table.tokens() {
            if let Some(conn) = self.table.get_mut(token) {
                conn.closing = true;
            }
        }
    }

    /// During shutdown: write what is ready, close every connection that
    /// no longer owes anything, and force-close stragglers once the
    /// execution grace expires.
    fn drain_shutdown(&mut self, since: Instant) {
        let force = since.elapsed() >= EXECUTION_GRACE;
        for token in self.table.tokens() {
            if !self.service(token) {
                continue; // closed while servicing
            }
            let done = self
                .table
                .get_mut(token)
                .is_some_and(|conn| force || (conn.waiting_replies() == 0 && conn.out.is_empty()));
            if done {
                self.close(token);
            }
        }
    }

    /// Tears a connection down: out of epoll, out of the table (bumping
    /// the slot generation so stale events and completions miss), gauge
    /// decremented, fd closed by drop.
    fn close(&mut self, token: Token) {
        if let Some(conn) = self.table.remove(token) {
            let _ = self.poller.deregister(raw_fd(&conn.stream));
            self.shared
                .metrics
                .conns
                .open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The earliest instant at which `conn` needs revalidation — its partial-
/// line read deadline or its idle deadline — or `None` when neither
/// applies.
fn next_deadline(shared: &Shared, conn: &Conn) -> Option<Instant> {
    let idle = shared
        .config
        .idle_timeout_ms
        .map(|ms| conn.last_activity + Duration::from_millis(ms));
    let rd = shared.config.read_deadline_ms;
    let read = conn
        .partial_since
        .filter(|_| rd > 0)
        .map(|since| since + Duration::from_millis(rd));
    match (idle, read) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}
