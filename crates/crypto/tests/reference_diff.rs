//! Differential tests: the fast SHA-256 and the midstate HMAC path must be
//! bit-identical to the pre-optimization reference oracle
//! (`pdn_oracle::reference`) for every key and message.

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

proptest! {
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
