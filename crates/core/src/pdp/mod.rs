//! Schedulability of the priority-driven protocol (paper §4).
//!
//! The priority-driven protocol (PDP) is the IEEE 802.5 style MAC: the
//! token carries a priority field, stations bid through the reservation
//! field of passing frame headers, and the station with the highest-priority
//! pending message transmits next. With rate-monotonic message priorities
//! and a one-frame token-holding time, the ring approximates preemptive RM
//! scheduling at frame granularity.
//!
//! The paper's Theorem 4.1 reduces schedulability to the Lehoczky–Sha–Ding
//! exact test applied to **augmented message lengths** `C'_i` (accounting
//! for per-frame overhead, header-return stalls, and token circulation) plus
//! a **blocking term** `B = 2·max(F, Θ)` that bounds priority inversion.
//!
//! Two implementation variants are analyzed:
//!
//! * [`PdpVariant::Standard`] — literal IEEE 802.5: a free token is issued
//!   after every frame, so the `Θ/2` average token-circulation overhead is
//!   paid **per frame**;
//! * [`PdpVariant::Modified`] — the paper's more efficient version: the
//!   transmitting station keeps transmitting while it remains the
//!   highest-priority active station, so `Θ/2` is paid **once per message**.

mod levels;
mod overhead;
mod test;

pub use levels::quantize_ranks;
pub use overhead::{augmented_length, blocking_bound};
pub use test::{CountedCheck, PdpAnalyzer, PdpReport, PdpStreamReport};

/// Which implementation of the priority-driven protocol is analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdpVariant {
    /// Standard IEEE 802.5: token released (and `Θ/2` paid) after every
    /// frame.
    Standard,
    /// Modified protocol: consecutive frames without re-issuing the token;
    /// `Θ/2` paid once per message.
    Modified,
}

impl PdpVariant {
    /// Short human-readable protocol name, matching the Figure 1 legend.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PdpVariant::Standard => "IEEE 802.5",
            PdpVariant::Modified => "Modified IEEE 802.5",
        }
    }
}

impl core::fmt::Display for PdpVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PdpVariant::Standard.label(), "IEEE 802.5");
        assert_eq!(PdpVariant::Modified.to_string(), "Modified IEEE 802.5");
    }
}
