//! CRC-32 (IEEE 802.3 polynomial, reflected), as used by the STUN
//! FINGERPRINT attribute (RFC 5389 §15.5).
//!
//! Every STUN message a world sends or receives carries a FINGERPRINT, and
//! a relayed world wraps each DTLS record in a TURN Send or Data
//! indication, so the CRC runs over every relayed byte twice per hop. It
//! is computed slicing-by-8: eight 256-entry tables, built by a `const fn`
//! at compile time, fold eight input bytes per step with eight
//! independent lookups, where the bit-at-a-time definition needs eight
//! shift-and-mask rounds per byte. The tail (fewer than eight bytes) uses
//! the first table a byte at a time. No hardware carry-less multiply is
//! used, so the module needs no `unsafe`. The bitwise definition is kept
//! as `pdn_oracle::reference::crc32`, the oracle the differential tests
//! and `crypto_bench` compare this against.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xedb8_8320;

/// The slicing-by-8 tables: `TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight bit-rounds, and `TABLES[k][b]` is that
/// register after `k` more zero bytes, so the eight bytes of one step can
/// be looked up independently and XORed together.
const TABLES: &[[u32; 256]; 8] = &build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the IEEE CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// assert_eq!(pdn_crypto::crc32::crc32(b"123456789"), 0xcbf43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xff) as usize];
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

    /// The first table is the classic byte-at-a-time table: a few of its
    /// published entries, and the entry for `0x80` is the polynomial.
    #[test]
    fn byte_table_matches_published_entries() {
        assert_eq!(TABLES[0][0], 0);
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][0x80], POLY);
        assert_eq!(TABLES[0][255], 0x2d02_ef8d);
    }
}
