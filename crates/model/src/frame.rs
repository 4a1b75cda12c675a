//! Frame geometry for the priority-driven protocol (paper §4.2).

use core::fmt;

use ringrt_units::{Bandwidth, Bits, Bytes, Seconds};

use crate::ModelError;

/// The fixed frame format used by the priority-driven protocol.
///
/// Messages are divided into frames of `payload` information bits
/// (`F_info^b`) each carrying `overhead` extra bits (`F_ovhd^b`) of
/// header/trailer. The paper's evaluation uses 64-byte payloads and a
/// 112-bit overhead.
///
/// # Examples
///
/// ```
/// use ringrt_model::FrameFormat;
/// use ringrt_units::{Bandwidth, Bits};
///
/// let f = FrameFormat::paper_default();
/// assert_eq!(f.payload(), Bits::new(512));
/// assert_eq!(f.overhead(), Bits::new(112));
/// assert_eq!(f.total(), Bits::new(624));
///
/// // A 1300-bit message splits into K = 3 frames, L = 2 of them full.
/// let split = f.split(Bits::new(1300));
/// assert_eq!((split.full_frames, split.total_frames), (2, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameFormat {
    payload: Bits,
    overhead: Bits,
}

impl FrameFormat {
    /// Creates a frame format with `payload` information bits and
    /// `overhead` header/trailer bits per frame.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFrame`] if the payload is zero bits.
    pub fn new(payload: Bits, overhead: Bits) -> Result<Self, ModelError> {
        if payload.is_zero() {
            return Err(ModelError::InvalidFrame {
                parameter: "payload",
                reason: "frame payload must be at least one bit".into(),
            });
        }
        Ok(FrameFormat { payload, overhead })
    }

    /// The paper's evaluation format: 64-byte payload, 112-bit overhead.
    #[must_use]
    pub fn paper_default() -> Self {
        FrameFormat {
            payload: Bytes::new(64).to_bits(),
            overhead: Bits::new(112),
        }
    }

    /// The IEEE 802.5 standard's fixed data-frame framing around a 64-byte
    /// payload: SD + AC + FC + DA(6) + SA(6) + FCS(4) + ED + FS = 21
    /// octets = 168 overhead bits, against the paper's 112.
    #[must_use]
    pub fn ieee_802_5() -> Self {
        FrameFormat {
            payload: Bytes::new(64).to_bits(),
            overhead: Bytes::new(21).to_bits(),
        }
    }

    /// The FDDI standard's fixed data-frame framing around a 64-byte
    /// payload: PA(8) + SD + FC + DA(6) + SA(6) + FCS(4) + ED + FS = 28
    /// octets = 224 overhead bits.
    #[must_use]
    pub fn fddi() -> Self {
        FrameFormat {
            payload: Bytes::new(64).to_bits(),
            overhead: Bytes::new(28).to_bits(),
        }
    }

    /// Same 112-bit overhead with a different payload size (used by the
    /// frame-size trade-off experiment).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFrame`] if the payload is zero bits.
    pub fn with_payload(payload: Bits) -> Result<Self, ModelError> {
        FrameFormat::new(payload, Bits::new(112))
    }

    /// Information bits per frame, `F_info^b`.
    #[must_use]
    pub fn payload(&self) -> Bits {
        self.payload
    }

    /// Overhead bits per frame, `F_ovhd^b`.
    #[must_use]
    pub fn overhead(&self) -> Bits {
        self.overhead
    }

    /// Total frame length `F^b = F_info^b + F_ovhd^b`.
    #[must_use]
    pub fn total(&self) -> Bits {
        self.payload + self.overhead
    }

    /// Time to transmit one full frame, `F = F^b / BW`.
    #[must_use]
    pub fn frame_time(&self, bandwidth: Bandwidth) -> Seconds {
        bandwidth.transmission_time(self.total())
    }

    /// Time to transmit one frame's payload only, `F_info`.
    #[must_use]
    pub fn payload_time(&self, bandwidth: Bandwidth) -> Seconds {
        bandwidth.transmission_time(self.payload)
    }

    /// Time to transmit one frame's overhead only, `F_ovhd`.
    #[must_use]
    pub fn overhead_time(&self, bandwidth: Bandwidth) -> Seconds {
        bandwidth.transmission_time(self.overhead)
    }

    /// Splits a message of `message_bits` payload bits into frames,
    /// computing the paper's `L_i` and `K_i`.
    #[must_use]
    pub fn split(&self, message_bits: Bits) -> FrameSplit {
        let full_frames = message_bits.div_floor(self.payload);
        let total_frames = message_bits.div_ceil(self.payload);
        let last_payload = if total_frames > full_frames {
            message_bits - self.payload * full_frames
        } else {
            // Message is an exact multiple: the last frame is full.
            if total_frames > 0 {
                self.payload
            } else {
                Bits::ZERO
            }
        };
        FrameSplit {
            full_frames,
            total_frames,
            last_payload,
        }
    }

    /// Total bits on the wire for a `message_bits` message, including the
    /// per-frame overheads: `C^b + K·F_ovhd^b`.
    #[must_use]
    pub fn wire_bits(&self, message_bits: Bits) -> Bits {
        message_bits + self.overhead * self.split(message_bits).total_frames
    }
}

impl fmt::Display for FrameFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame({} payload + {} overhead)",
            self.payload, self.overhead
        )
    }
}

/// The decomposition of a message into frames.
///
/// * `full_frames` — the paper's `L_i`: frames carrying a full payload;
/// * `total_frames` — the paper's `K_i`: total frames (`L_i` or `L_i + 1`);
/// * `last_payload` — payload bits in the final frame (equal to the frame
///   payload when the message divides evenly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameSplit {
    /// Number of maximum-length frames, `L_i`.
    pub full_frames: u64,
    /// Total number of frames, `K_i`.
    pub total_frames: u64,
    /// Payload bits in the last frame.
    pub last_payload: Bits,
}

impl FrameSplit {
    /// `true` when the message divides evenly into full frames
    /// (`K_i = L_i`).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.full_frames == self.total_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_dimensions() {
        let f = FrameFormat::paper_default();
        assert_eq!(f.total(), Bits::new(624));
        let bw = Bandwidth::from_mbps(1.0);
        assert!((f.frame_time(bw).as_micros() - 624.0).abs() < 1e-9);
        assert!((f.payload_time(bw).as_micros() - 512.0).abs() < 1e-9);
        assert!((f.overhead_time(bw).as_micros() - 112.0).abs() < 1e-9);
    }

    #[test]
    fn standard_presets_carry_the_standards_overheads() {
        let (ring, fddi) = (FrameFormat::ieee_802_5(), FrameFormat::fddi());
        assert_eq!(
            (ring.payload(), ring.overhead()),
            (Bits::new(512), Bits::new(168))
        );
        assert_eq!(
            (fddi.payload(), fddi.overhead()),
            (Bits::new(512), Bits::new(224))
        );
        // The paper's 112-bit figure undercuts both standards; the OVHD
        // experiment measures what that costs in ABU.
        let paper = FrameFormat::paper_default().overhead();
        assert!(ring.overhead() > paper && fddi.overhead() > paper);
    }

    #[test]
    fn split_partial_last_frame() {
        let f = FrameFormat::paper_default();
        let s = f.split(Bits::new(1300));
        assert_eq!(s.full_frames, 2);
        assert_eq!(s.total_frames, 3);
        assert_eq!(s.last_payload, Bits::new(1300 - 1024));
        assert!(!s.is_exact());
    }

    #[test]
    fn split_exact_multiple() {
        let f = FrameFormat::paper_default();
        let s = f.split(Bits::new(1024));
        assert_eq!(s.full_frames, 2);
        assert_eq!(s.total_frames, 2);
        assert_eq!(s.last_payload, Bits::new(512));
        assert!(s.is_exact());
    }

    #[test]
    fn split_sub_frame_message() {
        let f = FrameFormat::paper_default();
        let s = f.split(Bits::new(10));
        assert_eq!(s.full_frames, 0);
        assert_eq!(s.total_frames, 1);
        assert_eq!(s.last_payload, Bits::new(10));
    }

    #[test]
    fn split_zero_message() {
        let f = FrameFormat::paper_default();
        let s = f.split(Bits::ZERO);
        assert_eq!(s.total_frames, 0);
        assert_eq!(s.last_payload, Bits::ZERO);
        assert!(s.is_exact());
    }

    #[test]
    fn wire_bits_accounts_per_frame_overhead() {
        let f = FrameFormat::paper_default();
        // 3 frames → 3 × 112 bits of overhead.
        assert_eq!(f.wire_bits(Bits::new(1300)), Bits::new(1300 + 3 * 112));
        assert_eq!(f.wire_bits(Bits::new(512)), Bits::new(512 + 112));
    }

    #[test]
    fn rejects_zero_payload() {
        assert!(matches!(
            FrameFormat::new(Bits::ZERO, Bits::new(112)),
            Err(ModelError::InvalidFrame { .. })
        ));
    }

    #[test]
    fn with_payload_keeps_paper_overhead() {
        let f = FrameFormat::with_payload(Bits::new(4096)).unwrap();
        assert_eq!(f.overhead(), Bits::new(112));
        assert_eq!(f.payload(), Bits::new(4096));
    }

    #[test]
    fn display() {
        let f = FrameFormat::paper_default();
        assert!(f.to_string().contains("512"));
        assert!(f.to_string().contains("112"));
    }
}
