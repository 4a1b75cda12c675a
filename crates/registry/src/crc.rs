//! The IEEE CRC-32 that frames every journal record, snapshot, epoch and
//! cluster stamp.
//!
//! Polynomial `0x04C11DB7`, reflected, initial value `0xFFFF_FFFF`, final
//! XOR `0xFFFF_FFFF` — the classic "CRC-32" of IEEE 802 frame check
//! sequences, Ethernet and zlib.

/// The reflected CRC-32 polynomial (bit-reversed `0x04C11DB7`).
const POLY_REFLECTED: u32 = 0xEDB8_8320;

/// A 256-entry lookup table computed at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the IEEE CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// use ringrt_registry::crc::crc32;
///
/// // The canonical check value.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let state = data.iter().fold(0xFFFF_FFFF_u32, |state, &byte| {
        (state >> 8) ^ TABLE[((state ^ u32::from(byte)) & 0xFF) as usize]
    });
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"synchronous message payload".to_vec();
        let original = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), original, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
