//! Differential tests: the fast SHA-256, the midstate HMAC path and the
//! slicing-by-8 CRC-32 must be bit-identical to the pre-optimization
//! reference oracle (`pdn_oracle::reference`) for every key and message.

use pdn_crypto::crc32;
use pdn_crypto::hmac::{hmac_sha256, hmac_sha256_keyed, HmacKey};
use pdn_crypto::sha256;
use pdn_oracle::reference;
use proptest::prelude::*;

#[test]
fn matches_reference_across_lengths() {
    // Cross-check the unrolled compressor against the naive implementation
    // around every buffer/padding boundary.
    let data: Vec<u8> = (0..300u32)
        .map(|i| (i.wrapping_mul(31) % 256) as u8)
        .collect();
    for len in 0..data.len() {
        assert_eq!(
            sha256::digest(&data[..len]),
            reference::digest(&data[..len]),
            "length {len}"
        );
    }
}

/// Every length up to a full-size STUN Data indication, at every start
/// offset modulo the 8-byte step, so each split between the sliced body
/// and the byte-at-a-time tail is compared with the bitwise oracle.
#[test]
fn crc32_matches_reference_at_every_length_and_offset() {
    let data: Vec<u8> = (0..1300u32 + 8)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
        .collect();
    for start in 0..8 {
        for len in 0..=1300 {
            let slice = &data[start..start + len];
            assert_eq!(
                crc32::crc32(slice),
                reference::crc32(slice),
                "start {start}, length {len}"
            );
        }
    }
}

#[test]
fn crc32_check_value_matches_reference() {
    // The standard CRC-32/ISO-HDLC check value.
    assert_eq!(crc32::crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(reference::crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(
        crc32::stun_fingerprint(b"123456789"),
        0xcbf4_3926 ^ 0x5354_554e
    );
}

proptest! {
    #[test]
    fn fast_crc32_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
    ) {
        prop_assert_eq!(crc32::crc32(&data), reference::crc32(&data));
    }

    #[test]
    fn fast_hmac_matches_reference(
        key in proptest::collection::vec(any::<u8>(), 0..200),
        msg in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        // Key range crosses BLOCK_LEN so the pre-hash branch is hit.
        let want = reference::hmac_sha256(&key, &msg);
        prop_assert_eq!(hmac_sha256(&key, &msg), want);
        let k = HmacKey::new(&key);
        prop_assert_eq!(hmac_sha256_keyed(&k, &[&msg]), want);
    }

    #[test]
    fn scatter_gather_matches_reference(
        key in proptest::collection::vec(any::<u8>(), 0..80),
        a in proptest::collection::vec(any::<u8>(), 0..100),
        b in proptest::collection::vec(any::<u8>(), 0..100),
        c in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        concat.extend_from_slice(&c);
        let k = HmacKey::new(&key);
        prop_assert_eq!(
            hmac_sha256_keyed(&k, &[&a, &b, &c]),
            reference::hmac_sha256(&key, &concat)
        );
    }

    #[test]
    fn fast_sha256_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..700),
    ) {
        prop_assert_eq!(
            sha256::digest(&data),
            reference::digest(&data)
        );
    }
}
