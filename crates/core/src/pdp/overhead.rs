//! Overhead accounting for the priority-driven protocol (paper §4.3).
//!
//! The effective medium time consumed by a message exceeds its raw
//! transmission time `C_i` because of
//!
//! * per-frame overhead bits (`F_ovhd`),
//! * header-return stalls: after sending a frame the transmitter must see
//!   the frame header come back around the ring (with the reservation bids
//!   of the other stations) before the medium is reusable, so when the
//!   frame time `F` is shorter than the token circulation time `Θ` each
//!   frame effectively occupies `Θ`;
//! * token circulation: issuing a free token and having it claimed costs
//!   `Θ/2` on average — per frame in standard IEEE 802.5, per message in
//!   the modified variant.

use ringrt_model::{FrameFormat, RingConfig, SyncStream};
use ringrt_units::{Bandwidth, Bits, Seconds};

use super::PdpVariant;

/// The blocking bound `B = 2·max(F, Θ)` of Lemma 4.1.
///
/// During the active interval of any message, lower-priority traffic
/// (including asynchronous frames) can block higher-priority messages for
/// at most two effective frame times: one frame already in flight when the
/// message arrives, plus one more won through the distributed arbitration
/// race.
#[must_use]
pub fn blocking_bound(ring: &RingConfig, frame: &FrameFormat) -> Seconds {
    let f = frame.frame_time(ring.bandwidth());
    let theta = ring.token_circulation_time();
    2.0 * f.max(theta)
}

/// The augmented message length `C'_i` of Theorem 4.1: the total effective
/// medium time to deliver one message of stream `stream`, including frame
/// overheads, header-return stalls, and token circulation.
///
/// With `K` = total frames, `L` = full frames, `F` = full-frame time and
/// `Θ` = token circulation time:
///
/// | regime | standard IEEE 802.5 | modified |
/// |---|---|---|
/// | `F ≤ Θ` | `K·Θ + K·Θ/2` | `K·Θ + Θ/2` |
/// | `F > Θ` | `L·F + K·Θ/2 + (K−L)·max(C−L·F_info+F_ovhd, Θ)` | `L·F + Θ/2 + (K−L)·max(…)` |
///
/// # Examples
///
/// ```
/// use ringrt_core::pdp::{augmented_length, PdpVariant};
/// use ringrt_model::{FrameFormat, RingConfig, SyncStream};
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let ring = RingConfig::ieee_802_5(100, Bandwidth::from_mbps(4.0));
/// let frame = FrameFormat::paper_default();
/// let s = SyncStream::new(Seconds::from_millis(50.0), Bits::new(5_120));
/// let c_std = augmented_length(&s, &ring, &frame, PdpVariant::Standard);
/// let c_mod = augmented_length(&s, &ring, &frame, PdpVariant::Modified);
/// // The modified variant pays the token overhead once, so it never loses.
/// assert!(c_mod <= c_std);
/// // Both exceed the raw transmission time.
/// assert!(c_mod > s.transmission_time(ring.bandwidth()));
/// ```
#[must_use]
pub fn augmented_length(
    stream: &SyncStream,
    ring: &RingConfig,
    frame: &FrameFormat,
    variant: PdpVariant,
) -> Seconds {
    FrameGeometry::new(ring, frame, variant).augmented_length(stream.length_bits())
}

/// What [`augmented_length`] reads of a ring and a frame format, worked
/// out once for every stream of a set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameGeometry {
    bandwidth: Bandwidth,
    frame: FrameFormat,
    variant: PdpVariant,
    /// Full-frame time `F`.
    frame_time: Seconds,
    /// Token circulation time `Θ`.
    theta: Seconds,
    /// One frame's overhead time `F_ovhd`.
    overhead_time: Seconds,
}

impl FrameGeometry {
    pub(crate) fn new(ring: &RingConfig, frame: &FrameFormat, variant: PdpVariant) -> Self {
        let bandwidth = ring.bandwidth();
        FrameGeometry {
            bandwidth,
            frame: *frame,
            variant,
            frame_time: frame.frame_time(bandwidth),
            theta: ring.token_circulation_time(),
            overhead_time: frame.overhead_time(bandwidth),
        }
    }

    /// `C'` of a message of `bits` payload bits (see [`augmented_length`]).
    pub(crate) fn augmented_length(&self, bits: Bits) -> Seconds {
        let split = self.frame.split(bits);
        let k = split.total_frames as f64;
        let l = split.full_frames as f64;
        let (f, theta) = (self.frame_time, self.theta);
        let half_theta = theta / 2.0;

        let token_overhead = match self.variant {
            PdpVariant::Standard => half_theta * k,
            PdpVariant::Modified => half_theta,
        };

        if f <= theta {
            // Every frame is stalled until its header returns: effective time Θ.
            theta * k + token_overhead
        } else {
            // With `K = L + 1` the last frame carries `C − L·F_info` of
            // payload time plus overhead, and the transmitter still needs
            // its header back before releasing: it takes
            // `max(C − L·F_info + F_ovhd, Θ)` (paper §4.3 case 2). An exact
            // split (`K = L`) has no such frame.
            let last = if split.is_exact() {
                Seconds::ZERO
            } else {
                (self.bandwidth.transmission_time(split.last_payload) + self.overhead_time)
                    .max(theta)
            };
            f * l + token_overhead + (k - l) * last
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_units::{Bandwidth, Bits};

    fn stream(period_ms: f64, bits: u64) -> SyncStream {
        SyncStream::new(Seconds::from_millis(period_ms), Bits::new(bits))
    }

    /// A tiny ring whose Θ is far below the frame time at 1 Mbps, so the
    /// `F > Θ` regime applies.
    fn low_speed_ring() -> RingConfig {
        RingConfig::ieee_802_5(2, Bandwidth::from_mbps(1.0))
    }

    /// The paper's 100-station ring at 100 Mbps, where Θ ≫ F.
    fn high_speed_ring() -> RingConfig {
        RingConfig::ieee_802_5(100, Bandwidth::from_mbps(100.0))
    }

    #[test]
    fn regime_f_le_theta_charges_theta_per_frame() {
        let ring = high_speed_ring();
        let frame = FrameFormat::paper_default();
        let theta = ring.token_circulation_time();
        let f = frame.frame_time(ring.bandwidth());
        assert!(f <= theta, "test needs the F ≤ Θ regime");

        // Exactly 3 full frames.
        let s = stream(100.0, 512 * 3);
        let std = augmented_length(&s, &ring, &frame, PdpVariant::Standard);
        let modv = augmented_length(&s, &ring, &frame, PdpVariant::Modified);
        let expect_std = theta * 3.0 + (theta / 2.0) * 3.0;
        let expect_mod = theta * 3.0 + theta / 2.0;
        assert!((std.as_secs_f64() - expect_std.as_secs_f64()).abs() < 1e-15);
        assert!((modv.as_secs_f64() - expect_mod.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn regime_f_gt_theta_exact_split() {
        let ring = low_speed_ring();
        let frame = FrameFormat::paper_default();
        let theta = ring.token_circulation_time();
        let f = frame.frame_time(ring.bandwidth());
        assert!(f > theta, "test needs the F > Θ regime");

        // Exactly 2 full frames: C' = 2F + token overhead.
        let s = stream(100.0, 1024);
        let std = augmented_length(&s, &ring, &frame, PdpVariant::Standard);
        let modv = augmented_length(&s, &ring, &frame, PdpVariant::Modified);
        let expect_std = f * 2.0 + (theta / 2.0) * 2.0;
        let expect_mod = f * 2.0 + theta / 2.0;
        assert!((std.as_secs_f64() - expect_std.as_secs_f64()).abs() < 1e-15);
        assert!((modv.as_secs_f64() - expect_mod.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn regime_f_gt_theta_partial_last_frame() {
        let ring = low_speed_ring();
        let frame = FrameFormat::paper_default();
        let theta = ring.token_circulation_time();
        let f = frame.frame_time(ring.bandwidth());
        let bw = ring.bandwidth();

        // 2 full frames plus a 100-bit remainder.
        let s = stream(100.0, 1024 + 100);
        let last_time = bw.transmission_time(Bits::new(100 + 112));
        let expected_last = last_time.max(theta);
        let std = augmented_length(&s, &ring, &frame, PdpVariant::Standard);
        let expect = f * 2.0 + (theta / 2.0) * 3.0 + expected_last;
        assert!((std.as_secs_f64() - expect.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn tiny_last_frame_clamped_to_theta() {
        // Make the remainder so small that its frame time is below Θ even
        // though a full frame is above: the effective time must clamp at Θ.
        let ring = RingConfig::ieee_802_5(100, Bandwidth::from_mbps(2.0));
        let frame = FrameFormat::with_payload(Bits::new(4096)).unwrap();
        let theta = ring.token_circulation_time();
        let f = frame.frame_time(ring.bandwidth());
        assert!(f > theta);
        let s = stream(100.0, 4096 + 1); // one bit of remainder
        let modv = augmented_length(&s, &ring, &frame, PdpVariant::Modified);
        let expect = f + theta / 2.0 + theta;
        assert!((modv.as_secs_f64() - expect.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn modified_never_exceeds_standard() {
        for mbps in [1.0, 4.0, 16.0, 100.0, 1000.0] {
            let ring = RingConfig::ieee_802_5(100, Bandwidth::from_mbps(mbps));
            let frame = FrameFormat::paper_default();
            for bits in [1, 512, 513, 5_120, 51_200] {
                let s = stream(100.0, bits);
                let std = augmented_length(&s, &ring, &frame, PdpVariant::Standard);
                let modv = augmented_length(&s, &ring, &frame, PdpVariant::Modified);
                assert!(
                    modv <= std,
                    "modified worse at {mbps} Mbps, {bits} bits: {modv} vs {std}"
                );
            }
        }
    }

    #[test]
    fn augmented_exceeds_raw_transmission_time() {
        for mbps in [1.0, 10.0, 100.0] {
            let ring = RingConfig::ieee_802_5(100, Bandwidth::from_mbps(mbps));
            let frame = FrameFormat::paper_default();
            let s = stream(100.0, 10_240);
            let raw = s.transmission_time(ring.bandwidth());
            for v in [PdpVariant::Standard, PdpVariant::Modified] {
                assert!(augmented_length(&s, &ring, &frame, v) > raw);
            }
        }
    }

    #[test]
    fn blocking_is_two_max_f_theta() {
        let ring = low_speed_ring();
        let frame = FrameFormat::paper_default();
        let f = frame.frame_time(ring.bandwidth());
        assert_eq!(blocking_bound(&ring, &frame), 2.0 * f);

        let ring = high_speed_ring();
        let theta = ring.token_circulation_time();
        assert_eq!(blocking_bound(&ring, &frame), 2.0 * theta);
    }

    #[test]
    fn single_frame_message() {
        let ring = low_speed_ring();
        let frame = FrameFormat::paper_default();
        let theta = ring.token_circulation_time();
        let bw = ring.bandwidth();
        // 10-bit message: K = 1, L = 0.
        let s = stream(100.0, 10);
        let std = augmented_length(&s, &ring, &frame, PdpVariant::Standard);
        let last = (bw.transmission_time(Bits::new(10 + 112))).max(theta);
        let expect = theta / 2.0 + last;
        assert!((std.as_secs_f64() - expect.as_secs_f64()).abs() < 1e-15);
    }
}
