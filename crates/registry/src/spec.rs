//! Ring specifications, named streams, in-memory ring state, and the
//! registry error type.

use core::fmt;
use std::collections::BTreeMap;

use ringrt_model::{MessageSet, ModelError, RingConfig, SyncStream};
use ringrt_store::StreamStore;
use ringrt_units::Bandwidth;

/// Protocol selector shared by the registry, the admission service's wire
/// protocol, and the CLI. The canonical tokens (`802.5`, `modified`,
/// `fddi`) are what `ringrt check --format csv` emits and what the journal
/// persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtocolKind {
    /// Standard IEEE 802.5 priority-driven protocol.
    Ieee8025,
    /// The paper's modified (token-holding) 802.5 variant.
    #[default]
    Modified,
    /// FDDI timed token protocol with the local allocation scheme.
    Fddi,
}

impl ProtocolKind {
    /// Parses the same aliases the CLI accepts.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unrecognized token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "802.5" | "8025" | "ieee802.5" | "standard" => Ok(ProtocolKind::Ieee8025),
            "modified" | "mod" => Ok(ProtocolKind::Modified),
            "fddi" | "ttp" | "timed-token" => Ok(ProtocolKind::Fddi),
            other => Err(format!(
                "unknown protocol `{other}` (expected 802.5, modified, or fddi)"
            )),
        }
    }

    /// The paper's evaluation ring for this protocol: the IEEE 802.5
    /// preset for both priority-driven variants, the FDDI preset for the
    /// timed token protocol.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidRing`] for a station count the ring model
    /// cannot hold (zero, or a ring latency that overflows).
    pub fn try_ring(self, stations: usize, bandwidth: Bandwidth) -> Result<RingConfig, ModelError> {
        match self {
            ProtocolKind::Ieee8025 | ProtocolKind::Modified => {
                RingConfig::try_ieee_802_5(stations, bandwidth)
            }
            ProtocolKind::Fddi => RingConfig::try_fddi(stations, bandwidth),
        }
    }

    /// The canonical wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            ProtocolKind::Ieee8025 => "802.5",
            ProtocolKind::Modified => "modified",
            ProtocolKind::Fddi => "fddi",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The long-lived configuration of one registered ring: protocol,
/// bandwidth, and (optionally pinned) station count.
///
/// Pinning `stations` above the expected stream count keeps the ring's
/// overhead terms (`Θ`, and hence the PDP blocking bound and the TTP
/// `Θ'`) constant while streams come and go — the precondition for the
/// registry's incremental admission path. With `stations = None` the
/// effective count tracks the stream count (the service's stateless
/// semantics) and every admission falls back to a full recomputation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingSpec {
    /// Protocol the ring runs.
    pub protocol: ProtocolKind,
    /// Ring bandwidth in Mbps.
    pub mbps: f64,
    /// Ring stations; `None` tracks the stream count.
    pub stations: Option<usize>,
}

impl RingSpec {
    /// Validates the spec's numeric fields by building the ring they
    /// describe, so every rule the unit and ring constructors enforce —
    /// including overflow of the derived ring latency — is checked here
    /// too.
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidSpec`] for a bandwidth that is not finite
    /// and positive in bits per second, or a pinned station count the
    /// ring model cannot hold.
    pub fn validate(&self) -> Result<(), RegistryError> {
        self.build_ring(self.stations.unwrap_or(1)).map(|_| ())
    }

    /// The ring this spec describes while it carries `streams` streams,
    /// at [`RingSpec::effective_stations`].
    ///
    /// # Errors
    ///
    /// As [`RingSpec::validate`].
    pub fn ring_config(&self, streams: usize) -> Result<RingConfig, RegistryError> {
        self.build_ring(self.effective_stations(streams))
    }

    fn build_ring(&self, stations: usize) -> Result<RingConfig, RegistryError> {
        let invalid = |reason: String| RegistryError::InvalidSpec { reason };
        let bandwidth = Bandwidth::try_from_mbps(self.mbps)
            .map_err(|e| invalid(format!("mbps out of range: {e}")))?;
        self.protocol
            .try_ring(stations, bandwidth)
            .map_err(|e| invalid(e.to_string()))
    }

    /// Effective station count for a ring currently carrying `streams`
    /// streams: the pinned count, but never below the stream count
    /// (one sourcing station per stream).
    #[must_use]
    pub fn effective_stations(&self, streams: usize) -> usize {
        self.stations.unwrap_or(streams).max(streams).max(1)
    }

    /// The ring bandwidth as a typed quantity.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::from_mbps(self.mbps)
    }
}

/// A stream registered under a client-chosen name.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedStream {
    /// Registry-unique (per ring) stream name.
    pub name: String,
    /// The periodic message stream itself.
    pub stream: SyncStream,
}

/// The replayable state of one ring: its spec plus the admitted streams,
/// held in a columnar [`StreamStore`] whose admission order *is* station
/// order.
///
/// Equality compares the spec and the `(name, stream)` sequence in
/// admission order — physical row placement and sequence numbering inside
/// the store are ignored, so a journal-replayed state equals the live one.
#[derive(Debug, Clone, PartialEq)]
pub struct RingState {
    /// The ring's configuration.
    pub spec: RingSpec,
    /// Admitted streams, columnar with maintained indexes.
    pub store: StreamStore,
}

impl RingState {
    /// An empty ring with the given spec.
    #[must_use]
    pub fn new(spec: RingSpec) -> Self {
        RingState {
            spec,
            store: StreamStore::new(),
        }
    }

    /// Number of admitted streams.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` while the ring holds no streams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Streams as `(name, stream)` pairs in admission (= station) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, SyncStream)> + '_ {
        self.store.iter().map(|(_, name, stream)| (name, stream))
    }

    /// The admitted streams as a [`MessageSet`] (station order = admission
    /// order), or `None` while the ring is empty.
    #[must_use]
    pub fn message_set(&self) -> Option<MessageSet> {
        self.store
            .message_set()
            .expect("admitted streams are individually validated")
    }

    /// Station index of the named stream, if present (O(log n)).
    #[must_use]
    pub fn stream_index(&self, name: &str) -> Option<usize> {
        self.store.station_index(name)
    }
}

/// All rings by name. `BTreeMap` gives deterministic iteration for
/// snapshots and `SHOW`.
pub type Rings = BTreeMap<String, RingState>;

/// Maximum length of a ring or stream name.
pub const MAX_NAME_LEN: usize = 64;

/// Validates a ring or stream name: 1–[`MAX_NAME_LEN`] characters drawn
/// from `[A-Za-z0-9._-]`. The restriction keeps journal records and wire
/// responses unambiguous (no whitespace, `=`, `;`, `,`, or `:`).
///
/// # Errors
///
/// [`RegistryError::InvalidName`] describing the violation.
pub fn validate_name(name: &str) -> Result<(), RegistryError> {
    if name.is_empty() || name.len() > MAX_NAME_LEN {
        return Err(RegistryError::InvalidName {
            name: name.to_owned(),
            reason: "must be 1-64 characters",
        });
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(RegistryError::InvalidName {
            name: name.to_owned(),
            reason: "allowed characters are A-Z a-z 0-9 . _ -",
        });
    }
    Ok(())
}

/// Everything that can go wrong talking to the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No ring with that name is registered.
    UnknownRing {
        /// The requested ring name.
        ring: String,
    },
    /// A ring with that name already exists.
    DuplicateRing {
        /// The conflicting ring name.
        ring: String,
    },
    /// The ring has no stream with that name.
    UnknownStream {
        /// The ring that was searched.
        ring: String,
        /// The missing stream name.
        stream: String,
    },
    /// The ring already has a stream with that name; admitting it again
    /// would silently shadow the existing one.
    DuplicateStream {
        /// The ring holding the conflict.
        ring: String,
        /// The conflicting stream name.
        stream: String,
    },
    /// A ring or stream name violates the naming rules.
    InvalidName {
        /// The offending name.
        name: String,
        /// What rule it broke.
        reason: &'static str,
    },
    /// A ring spec or stream parameter is out of range.
    InvalidSpec {
        /// What is wrong with it.
        reason: String,
    },
    /// The ring exists but holds no streams, so there is nothing to check.
    EmptyRing {
        /// The empty ring.
        ring: String,
    },
    /// Journal or snapshot I/O / integrity failure.
    Storage {
        /// What failed, with context.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownRing { ring } => write!(f, "unknown ring `{ring}`"),
            RegistryError::DuplicateRing { ring } => {
                write!(f, "ring `{ring}` is already registered")
            }
            RegistryError::UnknownStream { ring, stream } => {
                write!(f, "unknown stream `{stream}` in ring `{ring}`")
            }
            RegistryError::DuplicateStream { ring, stream } => {
                write!(f, "duplicate stream `{stream}` in ring `{ring}`")
            }
            RegistryError::InvalidName { name, reason } => {
                write!(f, "invalid name `{name}`: {reason}")
            }
            RegistryError::InvalidSpec { reason } => write!(f, "invalid spec: {reason}"),
            RegistryError::EmptyRing { ring } => write!(f, "ring `{ring}` has no streams"),
            RegistryError::Storage { reason } => write!(f, "storage failure: {reason}"),
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_units::{Bits, Seconds};

    #[test]
    fn protocol_tokens_round_trip() {
        for p in [
            ProtocolKind::Ieee8025,
            ProtocolKind::Modified,
            ProtocolKind::Fddi,
        ] {
            assert_eq!(ProtocolKind::parse(p.token()).unwrap(), p);
            assert_eq!(p.to_string(), p.token());
        }
        assert!(ProtocolKind::parse("atm").is_err());
        assert_eq!(ProtocolKind::default(), ProtocolKind::Modified);
    }

    #[test]
    fn effective_stations_floor() {
        let pinned = RingSpec {
            protocol: ProtocolKind::Fddi,
            mbps: 100.0,
            stations: Some(8),
        };
        assert_eq!(pinned.effective_stations(3), 8);
        assert_eq!(pinned.effective_stations(12), 12); // never below streams
        let auto = RingSpec {
            stations: None,
            ..pinned
        };
        assert_eq!(auto.effective_stations(0), 1);
        assert_eq!(auto.effective_stations(5), 5);
    }

    #[test]
    fn spec_validation() {
        let ok = RingSpec {
            protocol: ProtocolKind::Modified,
            mbps: 16.0,
            stations: None,
        };
        assert!(ok.validate().is_ok());
        assert!(RingSpec { mbps: 0.0, ..ok }.validate().is_err());
        assert!(RingSpec {
            mbps: f64::NAN,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RingSpec {
            stations: Some(0),
            ..ok
        }
        .validate()
        .is_err());
        // Finite in Mbps but infinite in bit/s, and a station count whose
        // ring latency overflows: both used to pass and then panic the
        // first analysis of the ring.
        let huge_bw = RingSpec { mbps: 1e308, ..ok }.validate().unwrap_err();
        assert!(
            huge_bw.to_string().contains("mbps out of range"),
            "{huge_bw}"
        );
        for protocol in [
            ProtocolKind::Ieee8025,
            ProtocolKind::Modified,
            ProtocolKind::Fddi,
        ] {
            let spec = RingSpec {
                protocol,
                stations: Some(usize::MAX),
                ..ok
            };
            let err = spec.validate().unwrap_err();
            assert!(err.to_string().contains("overflow"), "{protocol}: {err}");
        }
        assert_eq!(
            ok.ring_config(3).unwrap(),
            RingConfig::ieee_802_5(3, ok.bandwidth())
        );
    }

    #[test]
    fn name_rules() {
        assert!(validate_name("lab-ring.1_a").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("has space").is_err());
        assert!(validate_name("semi;colon").is_err());
        assert!(validate_name("k=v").is_err());
        assert!(validate_name(&"x".repeat(65)).is_err());
        assert!(validate_name(&"x".repeat(64)).is_ok());
    }

    #[test]
    fn ring_state_set_and_lookup() {
        let mut st = RingState::new(RingSpec {
            protocol: ProtocolKind::Modified,
            mbps: 16.0,
            stations: Some(4),
        });
        assert!(st.message_set().is_none());
        assert!(st.is_empty());
        st.store.admit(
            "a",
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(1_000)),
        );
        st.store.admit(
            "b",
            SyncStream::new(Seconds::from_millis(40.0), Bits::new(2_000)),
        );
        let set = st.message_set().unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(st.len(), 2);
        assert_eq!(st.stream_index("b"), Some(1));
        assert_eq!(st.stream_index("c"), None);
        let names: Vec<&str> = st.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn error_messages_are_structured() {
        let e = RegistryError::DuplicateStream {
            ring: "lab".into(),
            stream: "s1".into(),
        };
        assert_eq!(e.to_string(), "duplicate stream `s1` in ring `lab`");
        assert!(RegistryError::UnknownRing { ring: "r".into() }
            .to_string()
            .contains("unknown ring"));
    }
}
