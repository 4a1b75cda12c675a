//! The three protocols the paper compares, and the common interface over
//! their analyses.

use core::fmt;

use ringrt_model::{FrameFormat, MessageSet, ModelError, RingConfig};
use ringrt_units::Bandwidth;

use crate::pdp::{PdpAnalyzer, PdpVariant};
use crate::ttp::TtpAnalyzer;

/// A protocol-specific schedulability criterion.
///
/// Implementors decide whether a synchronous message set can be
/// *guaranteed* — every message of every stream always transmitted before
/// its deadline — under worst-case phasing and asynchronous interference.
/// The Monte-Carlo breakdown-utilization estimator drives this trait
/// generically over both protocols.
pub trait SchedulabilityTest {
    /// Returns `true` iff the message set is guaranteed by the protocol.
    fn is_schedulable(&self, set: &MessageSet) -> bool;

    /// Human-readable protocol name (Figure 1 legend style).
    fn protocol_name(&self) -> &'static str;
}

impl<T: SchedulabilityTest + ?Sized> SchedulabilityTest for &T {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        (**self).is_schedulable(set)
    }
    fn protocol_name(&self) -> &'static str {
        (**self).protocol_name()
    }
}

impl<T: SchedulabilityTest + ?Sized> SchedulabilityTest for Box<T> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        (**self).is_schedulable(set)
    }
    fn protocol_name(&self) -> &'static str {
        (**self).protocol_name()
    }
}

/// One of the three protocols Kamat and Zhao compare. Each is fixed by a
/// ring preset ([`ProtocolKind::try_ring`]), a frame accounting — the
/// standard or modified `C'` of Theorem 4.1 ([`ProtocolKind::pdp_variant`])
/// — and a test, Theorem 4.1 or 5.1 ([`ProtocolKind::analyzer`]).
///
/// The canonical tokens (`802.5`, `modified`, `fddi`) are what the
/// admission service's replies and `ringrt check --format csv` print, and
/// what the registry journal persists.
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
    /// Every protocol, in the order reports list them.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Ieee8025,
        ProtocolKind::Modified,
        ProtocolKind::Fddi,
    ];

    /// Parses a canonical token or one of its aliases, case-insensitively.
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

    /// The canonical token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            ProtocolKind::Ieee8025 => "802.5",
            ProtocolKind::Modified => "modified",
            ProtocolKind::Fddi => "fddi",
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

    /// [`ProtocolKind::try_ring`] for a station count the caller has
    /// already validated.
    ///
    /// # Panics
    ///
    /// Where [`ProtocolKind::try_ring`] returns an error.
    #[must_use]
    pub fn ring(self, stations: usize, bandwidth: Bandwidth) -> RingConfig {
        self.try_ring(stations, bandwidth)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The priority-driven variant this protocol runs, which fixes its
    /// Theorem 4.1 frame accounting; `None` for the timed token protocol.
    #[must_use]
    pub fn pdp_variant(self) -> Option<PdpVariant> {
        match self {
            ProtocolKind::Ieee8025 => Some(PdpVariant::Standard),
            ProtocolKind::Modified => Some(PdpVariant::Modified),
            ProtocolKind::Fddi => None,
        }
    }

    /// This protocol's test on `ring`: Theorem 4.1 with the paper's frame
    /// format for the priority-driven variants, Theorem 5.1 with the
    /// default TTRT policy and local allocation for FDDI.
    #[must_use]
    pub fn analyzer(self, ring: RingConfig) -> Box<dyn SchedulabilityTest + Sync> {
        match self.pdp_variant() {
            Some(variant) => Box::new(PdpAnalyzer::new(
                ring,
                FrameFormat::paper_default(),
                variant,
            )),
            None => Box::new(TtpAnalyzer::with_defaults(ring)),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_in_output_order() {
        assert_eq!(
            ProtocolKind::ALL.map(ProtocolKind::token),
            ["802.5", "modified", "fddi"]
        );
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(p.token()).unwrap(), p);
            assert_eq!(p.to_string(), p.token());
        }
        assert!(ProtocolKind::parse("atm").is_err());
        assert_eq!(ProtocolKind::default(), ProtocolKind::Modified);
    }

    #[test]
    fn analyzer_matches_the_concrete_test() {
        let bw = Bandwidth::from_mbps(16.0);
        for p in ProtocolKind::ALL {
            let ring = p.try_ring(4, bw).unwrap();
            let name = p.analyzer(ring).protocol_name();
            let want = match p.pdp_variant() {
                Some(variant) => {
                    PdpAnalyzer::new(ring, FrameFormat::paper_default(), variant).protocol_name()
                }
                None => TtpAnalyzer::with_defaults(ring).protocol_name(),
            };
            assert_eq!(name, want, "{p}");
        }
    }

    #[test]
    fn trait_object_safe() {
        // The trait must remain usable as `&dyn SchedulabilityTest`.
        fn _takes_dyn(_t: &dyn SchedulabilityTest) {}
    }
}
