//! CRC-32 (IEEE 802.3 polynomial, reflected), as used by the STUN
//! FINGERPRINT attribute (RFC 5389 §15.5).

/// Computes the IEEE CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// assert_eq!(pdn_crypto::crc32::crc32(b"123456789"), 0xcbf43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb88320 & mask);
        }
    }
    !crc
}

/// The STUN FINGERPRINT value: CRC-32 of the message XOR'd with `0x5354554e`
/// ("STUN" in ASCII), per RFC 5389 §15.5.
pub fn stun_fingerprint(data: &[u8]) -> u32 {
    crc32(data) ^ 0x5354_554e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The standard CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
    }

    #[test]
    fn known_values() {
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fingerprint_xors_stun_constant() {
        let data = b"stun message";
        assert_eq!(stun_fingerprint(data), crc32(data) ^ 0x5354_554e);
        assert_ne!(stun_fingerprint(data), crc32(data));
    }
}
