//! # pdn-crypto
//!
//! Cryptographic primitives for the `stealthy-peers` PDN security-analysis
//! framework, implemented from scratch (no crypto crates are available in
//! the offline dependency set):
//!
//! - [`aes_gcm`] — AES-128-GCM (FIPS 197, SP 800-38D), the DTLS record
//!   cipher of WebRTC's mandatory suite, with a runtime-detected
//!   AES-NI/PCLMULQDQ path and a portable table-based path.
//! - [`sha256`] — SHA-256 (FIPS 180-4) with an unrolled compression function,
//!   a runtime-detected SHA-NI hardware path, and midstate capture, for
//!   integrity metadata, HMAC and DTLS key derivation.
//! - [`hmac`] — HMAC-SHA256 (RFC 2104), for JWT HS256 and SIM signatures;
//!   [`hmac::HmacKey`] caches the ipad/opad midstates so repeated MACs under
//!   one key skip the key schedule.
//! - [`base64url`] — unpadded base64url (RFC 4648 §5), for JWT transport.
//! - [`jwt`] — compact HS256 JSON Web Tokens (RFC 7515/7519), implementing
//!   the paper's disposable video-binding token (§V-A, Listing 1).
//! - [`crc32`] — CRC-32 for the STUN FINGERPRINT attribute.
//!
//! All primitives are validated against published test vectors. They are
//! intended for *simulation and research*, not production hardening: the
//! implementations are constant-time only where the paper's defenses require
//! it (MAC comparison via [`ct_eq`]).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use pdn_crypto::{hmac::hmac_sha256, sha256};
//!
//! let im = sha256::digest(b"segment-bytes || video-id || position");
//! let sim = hmac_sha256(b"pdn-server-key", &im);
//! assert_eq!(sim.len(), 32);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the hardware backends in `sha256::ni` (SHA-NI) and
// `aes_gcm::ni` (AES-NI + PCLMULQDQ) are the two sanctioned exceptions (CPU
// intrinsics require `unsafe`); each opts in with a scoped
// `#[allow(unsafe_code)]`, and `scripts/check.sh` rejects the attribute
// anywhere else.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes_gcm;
pub mod base64url;
pub mod crc32;
pub mod hmac;
pub mod jwt;
pub mod sha256;

/// Constant-time equality of two byte slices.
///
/// Returns `false` immediately on length mismatch (length is public), then
/// compares every byte without early exit.
///
/// # Examples
///
/// ```
/// assert!(pdn_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!pdn_crypto::ct_eq(b"abc", b"abd"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Lowercase hexadecimal rendering of a byte slice.
///
/// # Examples
///
/// ```
/// assert_eq!(pdn_crypto::hex(&[0xde, 0xad]), "dead");
/// ```
pub fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_length_mismatch() {
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(hex(&[]), "");
        assert_eq!(hex(&[0x00, 0xff, 0x0a]), "00ff0a");
    }
}

#[cfg(test)]
mod prop_tests {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn base64url_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let enc = crate::base64url::encode(&data);
            prop_assert_eq!(crate::base64url::decode(&enc).unwrap(), data);
        }

        #[test]
        fn sha256_incremental_equivalence(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            split in 0usize..512,
        ) {
            let split = split.min(data.len());
            let mut h = crate::sha256::Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), crate::sha256::digest(&data));
        }

        #[test]
        fn hmac_distinct_keys_distinct_tags(
            msg in proptest::collection::vec(any::<u8>(), 1..128),
            k1 in proptest::collection::vec(any::<u8>(), 1..64),
            k2 in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            prop_assume!(k1 != k2);
            let t1 = crate::hmac::hmac_sha256(&k1, &msg);
            let t2 = crate::hmac::hmac_sha256(&k2, &msg);
            prop_assert_ne!(t1, t2);
        }

        #[test]
        fn jwt_roundtrip_arbitrary_payload(s in "[a-zA-Z0-9 ]{0,64}", n in any::<u32>()) {
            #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
            struct C { s: String, n: u32 }
            let c = C { s, n };
            let token = crate::jwt::sign(&c, b"key").unwrap();
            let back: C = crate::jwt::verify(&token, b"key").unwrap();
            prop_assert_eq!(back, c);
        }

        #[test]
        fn ct_eq_matches_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                            b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assert_eq!(crate::ct_eq(&a, &b), a == b);
        }
    }
}
