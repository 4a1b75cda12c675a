//! Journal-shipping replication: roles, the `SHIP` frame codec, and the
//! shared replication status block.
//!
//! A `ringrt serve` process runs in one of two roles:
//!
//! * **primary** — owns the journal, applies mutations, and serves `SYNC`
//!   connections by streaming every committed journal record (and, when a
//!   follower's resume point predates the compaction floor, a snapshot)
//!   as `SHIP` frames;
//! * **follower** (`serve --follow <addr>`) — a warm standby that replays
//!   the primary's frames continuously through
//!   [`RingRegistry::apply_replicated`](ringrt_registry::RingRegistry),
//!   answers read-only commands, redirects mutations with `READONLY`, and
//!   becomes primary on `PROMOTE` (or primary-loss timeout) under a
//!   freshly fenced epoch.
//!
//! The wire format deliberately reuses the journal's own CRC-framed
//! record lines as the frame payload: the follower re-journals each line
//! byte-for-byte, so a promoted standby's journal replays to exactly the
//! state the primary's journal would — the invariant the fault-injection
//! harness (`tests/replication.rs`) checks under dropped, duplicated,
//! reordered, and torn frames.
//!
//! Frames, one per line, after the `OK cmd=sync …` header:
//!
//! ```text
//! SHIP snapshot seq=<n> lines=<k>   # followed by k raw snapshot lines
//! SHIP record <journal-record-line>
//! SHIP ping epoch=<e> head=<h>      # keepalive + replication-lag probe
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use ringrt_obs::HighWater;

/// Which side of the replication stream this node is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Owns the journal and ships it to followers.
    Primary,
    /// Replays a primary's journal; mutations are redirected.
    Follower,
}

impl Role {
    /// Stable lowercase token used in status lines and metrics.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }
}

/// Lock-free replication status shared between the serving threads, the
/// follower replay thread, and the `REPLICATION`/`STATS`/`METRICS`
/// renderers.
///
/// The **replication-lag high-water mark** has the same windowed
/// semantics as the queue-depth peak: `STATS RESET` re-seeds it with the
/// *current* lag rather than zero, so a window opened mid-catch-up never
/// reports a peak below the live lag.
#[derive(Debug)]
pub struct ReplicationState {
    role: AtomicU8,
    source: Option<String>,
    connected: AtomicBool,
    applied_seq: AtomicU64,
    head_seq: AtomicU64,
    lag_peak: HighWater,
    frames_applied: AtomicU64,
    frames_shipped: AtomicU64,
    snapshots_installed: AtomicU64,
    resyncs: AtomicU64,
    followers: AtomicU64,
    promotions: AtomicU64,
}

impl ReplicationState {
    /// A primary when `follow` is `None`, otherwise a follower of that
    /// address.
    #[must_use]
    pub fn new(follow: Option<String>) -> Self {
        ReplicationState {
            role: AtomicU8::new(u8::from(follow.is_some())),
            source: follow,
            connected: AtomicBool::new(false),
            applied_seq: AtomicU64::new(0),
            head_seq: AtomicU64::new(0),
            lag_peak: HighWater::new(),
            frames_applied: AtomicU64::new(0),
            frames_shipped: AtomicU64::new(0),
            snapshots_installed: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            followers: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        }
    }

    /// Current role.
    #[must_use]
    pub fn role(&self) -> Role {
        if self.role.load(Ordering::Acquire) == 0 {
            Role::Primary
        } else {
            Role::Follower
        }
    }

    /// True while this node redirects mutations.
    #[must_use]
    pub fn is_follower(&self) -> bool {
        self.role() == Role::Follower
    }

    /// Flips a follower to primary (after the fenced epoch is durably
    /// published) and counts the promotion.
    pub fn promote(&self) {
        self.role.store(0, Ordering::Release);
        self.connected.store(false, Ordering::Relaxed);
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// The `--follow` address this node replicates from, if any.
    #[must_use]
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Marks the follower's upstream connection up or down.
    pub fn set_connected(&self, up: bool) {
        self.connected.store(up, Ordering::Relaxed);
    }

    /// Whether the follower currently holds a live `SYNC` stream.
    #[must_use]
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    /// Records a locally applied journal sequence and folds the implied
    /// lag into the high-water mark.
    pub fn note_applied(&self, seq: u64) {
        self.applied_seq.fetch_max(seq, Ordering::Relaxed);
        self.frames_applied.fetch_add(1, Ordering::Relaxed);
        self.lag_peak.observe(self.lag());
    }

    /// Records the primary's advertised head sequence (from the `SYNC`
    /// header or a ping) and folds the implied lag into the high-water
    /// mark.
    pub fn note_head(&self, head: u64) {
        self.head_seq.fetch_max(head, Ordering::Relaxed);
        self.lag_peak.observe(self.lag());
    }

    /// Records a snapshot installation: everything up to `seq` is applied.
    pub fn note_snapshot(&self, seq: u64) {
        self.snapshots_installed.fetch_add(1, Ordering::Relaxed);
        self.applied_seq.fetch_max(seq, Ordering::Relaxed);
        self.lag_peak.observe(self.lag());
    }

    /// Counts one frame shipped to some follower.
    pub fn note_shipped(&self) {
        self.frames_shipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a forced resubscription (sequence gap or stream error).
    pub fn note_resync(&self) {
        self.resyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// A follower stream attached to this primary.
    pub fn follower_attached(&self) {
        self.followers.fetch_add(1, Ordering::Relaxed);
    }

    /// A follower stream detached from this primary.
    pub fn follower_detached(&self) {
        self.followers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Live `SYNC` streams this primary is feeding.
    #[must_use]
    pub fn followers(&self) -> u64 {
        self.followers.load(Ordering::Relaxed)
    }

    /// Records behind the advertised primary head (0 on a primary or a
    /// fully caught-up follower).
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.head_seq
            .load(Ordering::Relaxed)
            .saturating_sub(self.applied_seq.load(Ordering::Relaxed))
    }

    /// Deepest lag observed in the current measurement window.
    #[must_use]
    pub fn lag_peak(&self) -> u64 {
        self.lag_peak.peak()
    }

    /// Highest journal sequence applied locally via replication.
    #[must_use]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Relaxed)
    }

    /// `STATS RESET`: start a fresh lag window seeded with the *current*
    /// lag (same windowed semantics as the queue-depth peak).
    pub fn reset_window(&self) {
        self.lag_peak.reset(self.lag());
    }

    /// Appends the replication fields shared by `REPLICATION` and `STATS`
    /// to `out`. `epoch` comes from the registry (the durable value).
    pub fn render(&self, epoch: u64, out: &mut String) {
        use std::fmt::Write as _;
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let _ = write!(
            out,
            " role={} epoch={epoch} connected={} source={} applied_seq={} head_seq={} lag={} \
             lag_peak={} followers={} frames_shipped={} frames_applied={} \
             snapshots_installed={} resyncs={} promotions={}",
            self.role().token(),
            self.connected(),
            self.source.as_deref().unwrap_or("-"),
            c(&self.applied_seq),
            c(&self.head_seq),
            self.lag(),
            self.lag_peak(),
            c(&self.followers),
            c(&self.frames_shipped),
            c(&self.frames_applied),
            c(&self.snapshots_installed),
            c(&self.resyncs),
            c(&self.promotions),
        );
    }

    /// Emits replication gauges and counters into a Prometheus writer.
    pub fn render_prometheus(&self, epoch: u64, w: &mut ringrt_obs::prom::PromWriter) {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        w.gauge(
            "ringrt_replication_role",
            "0 = primary, 1 = follower.",
            &[],
            f64::from(u8::from(self.is_follower())),
        );
        w.gauge(
            "ringrt_replication_epoch",
            "Durable fencing epoch this node serves under.",
            &[],
            epoch as f64,
        );
        w.gauge(
            "ringrt_replication_connected",
            "1 while the follower holds a live SYNC stream.",
            &[],
            f64::from(u8::from(self.connected())),
        );
        w.gauge(
            "ringrt_replication_applied_seq",
            "Last journal record this follower applied.",
            &[],
            c(&self.applied_seq),
        );
        w.gauge(
            "ringrt_replication_head_seq",
            "Primary journal head last advertised to this follower.",
            &[],
            c(&self.head_seq),
        );
        w.gauge(
            "ringrt_replication_lag",
            "Journal records behind the advertised primary head.",
            &[],
            self.lag() as f64,
        );
        w.gauge(
            "ringrt_replication_lag_peak",
            "Deepest replication lag since the last STATS RESET.",
            &[],
            self.lag_peak() as f64,
        );
        w.gauge(
            "ringrt_replication_followers",
            "Live SYNC streams this primary is feeding.",
            &[],
            c(&self.followers),
        );
        w.counter(
            "ringrt_replication_frames_shipped_total",
            "SHIP record frames sent to followers.",
            &[],
            c(&self.frames_shipped),
        );
        w.counter(
            "ringrt_replication_frames_applied_total",
            "SHIP record frames applied locally.",
            &[],
            c(&self.frames_applied),
        );
        w.counter(
            "ringrt_replication_snapshots_installed_total",
            "Snapshots installed from the primary's SYNC stream.",
            &[],
            c(&self.snapshots_installed),
        );
        w.counter(
            "ringrt_replication_resyncs_total",
            "Forced resubscriptions after a gap or stream error.",
            &[],
            c(&self.resyncs),
        );
        w.counter(
            "ringrt_replication_promotions_total",
            "Follower-to-primary promotions performed by this process.",
            &[],
            c(&self.promotions),
        );
    }
}

/// The follower→primary subscription line. `cluster=0` means "my journal
/// has no identity yet; I will adopt yours".
#[must_use]
pub(crate) fn sync_request(epoch: u64, seq: u64, cluster: u64) -> String {
    format!("SYNC epoch={epoch} seq={seq} cluster={cluster}")
}

/// The primary's `OK` header opening a ship stream.
#[must_use]
pub(crate) fn sync_header(
    epoch: u64,
    head: u64,
    snapshot: bool,
    backlog: usize,
    cluster: u64,
) -> String {
    format!(
        "OK cmd=sync epoch={epoch} head={head} snapshot={} backlog={backlog} cluster={cluster}",
        u8::from(snapshot)
    )
}

/// Parsed form of the `OK cmd=sync …` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SyncHeader {
    pub epoch: u64,
    pub head: u64,
    pub snapshot: bool,
    pub backlog: u64,
    pub cluster: u64,
}

fn field(line: &str, key: &str) -> Result<u64, String> {
    let tag = format!("{key}=");
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(&tag))
        .ok_or_else(|| format!("sync header missing {key}=: {line:?}"))?
        .parse()
        .map_err(|e| format!("sync header {key}= unparseable ({e}): {line:?}"))
}

/// Like [`field`], but a missing key yields `default` — used for keys
/// added after the wire format first shipped, so a newer follower can
/// still parse an older primary's header.
fn field_or(line: &str, key: &str, default: u64) -> Result<u64, String> {
    let tag = format!("{key}=");
    match line.split_whitespace().find_map(|w| w.strip_prefix(&tag)) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|e| format!("sync header {key}= unparseable ({e}): {line:?}")),
    }
}

/// Parses the primary's response to `SYNC`. A non-`OK` line (fencing
/// refusal, cluster mismatch, follower refusing to ship, …) comes back as
/// the error.
pub(crate) fn parse_sync_header(line: &str) -> Result<SyncHeader, String> {
    if !line.starts_with("OK cmd=sync") {
        return Err(line.to_owned());
    }
    Ok(SyncHeader {
        epoch: field(line, "epoch")?,
        head: field(line, "head")?,
        snapshot: field(line, "snapshot")? != 0,
        backlog: field(line, "backlog")?,
        cluster: field_or(line, "cluster", 0)?,
    })
}

/// One frame of the ship stream, after the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ShipFrame {
    /// A raw journal record line to re-journal and apply.
    Record(String),
    /// A snapshot header: the next `lines` raw lines are the snapshot
    /// text covering everything up to `seq`.
    Snapshot { seq: u64, lines: u64 },
    /// Keepalive carrying the primary's epoch and head.
    Ping { epoch: u64, head: u64 },
}

/// Renders a record frame around a journal record line (no newline).
#[must_use]
pub(crate) fn render_record(record: &str) -> String {
    format!("SHIP record {record}")
}

/// Renders the snapshot frame header.
#[must_use]
pub(crate) fn render_snapshot(seq: u64, lines: u64) -> String {
    format!("SHIP snapshot seq={seq} lines={lines}")
}

/// Renders a keepalive frame.
#[must_use]
pub(crate) fn render_ping(epoch: u64, head: u64) -> String {
    format!("SHIP ping epoch={epoch} head={head}")
}

/// Parses one ship-stream line into a frame.
pub(crate) fn parse_ship_frame(line: &str) -> Result<ShipFrame, String> {
    let body = line
        .strip_prefix("SHIP ")
        .ok_or_else(|| format!("expected a SHIP frame, got {line:?}"))?;
    if let Some(record) = body.strip_prefix("record ") {
        return Ok(ShipFrame::Record(record.to_owned()));
    }
    if body.starts_with("snapshot ") {
        return Ok(ShipFrame::Snapshot {
            seq: field(body, "seq")?,
            lines: field(body, "lines")?,
        });
    }
    if body.starts_with("ping ") {
        return Ok(ShipFrame::Ping {
            epoch: field(body, "epoch")?,
            head: field(body, "head")?,
        });
    }
    Err(format!("unknown SHIP frame: {line:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_and_promotion() {
        let primary = ReplicationState::new(None);
        assert_eq!(primary.role(), Role::Primary);
        assert!(!primary.is_follower());
        let follower = ReplicationState::new(Some("127.0.0.1:4410".into()));
        assert!(follower.is_follower());
        assert_eq!(follower.source(), Some("127.0.0.1:4410"));
        follower.promote();
        assert_eq!(follower.role(), Role::Primary);
        let mut out = String::new();
        follower.render(3, &mut out);
        assert!(out.contains(" role=primary"), "{out}");
        assert!(out.contains(" epoch=3"), "{out}");
        assert!(out.contains(" promotions=1"), "{out}");
    }

    #[test]
    fn lag_window_reseeds_with_current_lag() {
        let st = ReplicationState::new(Some("x".into()));
        st.note_head(10);
        assert_eq!(st.lag_peak(), 10, "a bare head advertises 10 unapplied");
        st.note_applied(4);
        assert_eq!(st.lag(), 6);
        st.note_applied(9);
        assert_eq!(st.lag(), 1);
        assert_eq!(st.lag_peak(), 10, "peak must not regress with progress");
        // STATS RESET semantics: the new window starts at the live lag,
        // not zero.
        st.reset_window();
        assert_eq!(st.lag_peak(), 1);
        st.note_applied(10);
        st.reset_window();
        assert_eq!(st.lag_peak(), 0);
    }

    #[test]
    fn frame_codec_round_trips() {
        assert_eq!(
            parse_ship_frame(&render_record("0a1b2c3d 7 admit ring=r")).unwrap(),
            ShipFrame::Record("0a1b2c3d 7 admit ring=r".to_owned())
        );
        assert_eq!(
            parse_ship_frame(&render_snapshot(42, 5)).unwrap(),
            ShipFrame::Snapshot { seq: 42, lines: 5 }
        );
        assert_eq!(
            parse_ship_frame(&render_ping(2, 99)).unwrap(),
            ShipFrame::Ping { epoch: 2, head: 99 }
        );
        assert!(parse_ship_frame("SHIP wat").is_err());
        assert!(parse_ship_frame("OK cmd=ping").is_err());
    }

    #[test]
    fn sync_header_round_trips_and_rejects_refusals() {
        let h = parse_sync_header(&sync_header(4, 17, true, 9, 0xfeed)).unwrap();
        assert_eq!(
            h,
            SyncHeader {
                epoch: 4,
                head: 17,
                snapshot: true,
                backlog: 9,
                cluster: 0xfeed
            }
        );
        // A header from before cluster identity shipped still parses.
        let legacy = parse_sync_header("OK cmd=sync epoch=1 head=2 snapshot=0 backlog=0").unwrap();
        assert_eq!(legacy.cluster, 0);
        let refused = parse_sync_header("ERR cmd=sync fenced requester_epoch=1 epoch=2");
        assert!(refused.unwrap_err().contains("fenced"));
    }
}
