//! HMAC-SHA256 as specified by RFC 2104 / FIPS 198-1.
//!
//! Used for JWT HS256 signatures (the disposable video-binding token of §V-A),
//! for signed integrity metadata (SIM) in the peer-assisted integrity
//! checking defense (§V-B), and for STUN MESSAGE-INTEGRITY in the WebRTC
//! substrate.
//!
//! The fast path is [`HmacKey`]: it pads the key and compresses the ipad and
//! opad blocks exactly once, caching both SHA-256 midstates. Every MAC under
//! that key afterwards ([`HmacSha256::from_key`], [`hmac_sha256_keyed`])
//! clones a midstate instead of re-running the key schedule, cutting two of
//! the four compressions a short one-shot MAC costs. Hot callers — the STUN
//! connectivity-check storm, JWT validation, SIM verification, DTLS key
//! derivation and Finished MACs — hold one `HmacKey` per secret and reuse
//! it.

use crate::sha256::{Midstate, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, msg)`.
///
/// Runs the full key schedule on every call; callers MACing repeatedly under
/// one key should hold an [`HmacKey`] and use [`hmac_sha256_keyed`] instead.
///
/// Keys longer than the SHA-256 block size are hashed first, per RFC 2104.
///
/// # Examples
///
/// ```
/// let mac = pdn_crypto::hmac::hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     pdn_crypto::hex(&mac),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(msg);
    mac.finalize()
}

/// One-shot HMAC-SHA256 over scatter-gather input under a precomputed key.
///
/// MACs the concatenation of `parts` without materializing it, so callers
/// composing a message from several parts (DTLS Finished label +
/// transcript, JWT `head.body` signing input, STUN attributes) need no
/// intermediate buffer.
///
/// # Examples
///
/// ```
/// use pdn_crypto::hmac::{hmac_sha256, hmac_sha256_keyed, HmacKey};
///
/// let key = HmacKey::new(b"secret");
/// let tag = hmac_sha256_keyed(&key, &[b"hello ", b"world"]);
/// assert_eq!(tag, hmac_sha256(b"secret", b"hello world"));
/// ```
pub fn hmac_sha256_keyed(key: &HmacKey, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::from_key(key);
    for part in parts {
        mac.update(part);
    }
    mac.finalize()
}

/// A precomputed HMAC-SHA256 key: the ipad and opad SHA-256 midstates.
///
/// Construction costs the full RFC 2104 key schedule (pad or pre-hash the
/// key, XOR both pads, two compressions); every subsequent MAC under the key
/// is two midstate clones. The key material itself is not retained.
///
/// # Examples
///
/// ```
/// use pdn_crypto::hmac::{hmac_sha256, HmacKey, HmacSha256};
///
/// let key = HmacKey::new(b"secret");
/// let mut mac = HmacSha256::from_key(&key);
/// mac.update(b"msg");
/// assert_eq!(mac.finalize(), hmac_sha256(b"secret", b"msg"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmacKey {
    inner: Midstate,
    outer: Midstate,
}

impl HmacKey {
    /// Precomputes the ipad/opad midstates for `key`.
    ///
    /// Keys longer than the SHA-256 block size are hashed first, per
    /// RFC 2104, so MACs under an `HmacKey` are bit-identical to
    /// [`hmac_sha256`] with the same key bytes.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = crate::sha256::digest(key);
            key_block[..DIGEST_LEN].copy_from_slice(&hashed);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut pad = [0u8; BLOCK_LEN];
        for (p, k) in pad.iter_mut().zip(key_block.iter()) {
            *p = k ^ 0x36;
        }
        let mut inner = Sha256::new();
        inner.update(&pad);
        for (p, k) in pad.iter_mut().zip(key_block.iter()) {
            *p = k ^ 0x5c;
        }
        let mut outer = Sha256::new();
        outer.update(&pad);
        HmacKey {
            inner: inner.midstate(),
            outer: outer.midstate(),
        }
    }
}

/// Incremental HMAC-SHA256.
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Midstate,
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key`, running the full key schedule.
    pub fn new(key: &[u8]) -> Self {
        Self::from_key(&HmacKey::new(key))
    }

    /// Creates a MAC from a precomputed [`HmacKey`] — no key-schedule work,
    /// just midstate clones.
    pub fn from_key(key: &HmacKey) -> Self {
        HmacSha256 {
            inner: Sha256::from_midstate(key.inner, BLOCK_LEN as u64),
            outer: key.outer,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, msg: &[u8]) {
        self.inner.update(msg);
    }

    /// Consumes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::from_midstate(self.outer, BLOCK_LEN as u64);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Verifies `tag` against the absorbed message in constant time.
    pub fn verify(self, tag: &[u8]) -> bool {
        crate::ct_eq(&self.finalize(), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131]; // longer than block size, must be pre-hashed
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn keyed_path_matches_rfc4231_vectors() {
        // The same four vectors through HmacKey / hmac_sha256_keyed.
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0bu8; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaau8; 20],
                &[0xddu8; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaau8; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, msg, want) in cases {
            let k = HmacKey::new(key);
            assert_eq!(hex(&hmac_sha256_keyed(&k, &[msg])), want);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"secret");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"secret", b"hello world"));
    }

    #[test]
    fn key_reuse_matches_fresh_schedule() {
        let key = HmacKey::new(b"reused-key");
        for msg in [&b"first"[..], b"second", b"", b"a longer third message"] {
            assert_eq!(
                hmac_sha256_keyed(&key, &[msg]),
                hmac_sha256(b"reused-key", msg)
            );
        }
    }

    #[test]
    fn scatter_gather_matches_concat() {
        let key = HmacKey::new(b"k");
        let whole = hmac_sha256(b"k", b"abcdefghij");
        assert_eq!(hmac_sha256_keyed(&key, &[b"abcdefghij"]), whole);
        assert_eq!(hmac_sha256_keyed(&key, &[b"abcde", b"fghij"]), whole);
        assert_eq!(
            hmac_sha256_keyed(&key, &[b"a", b"", b"bcd", b"efghi", b"j"]),
            whole
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        let mac = HmacSha256::new(b"k");
        let mut mac2 = mac.clone();
        mac2.update(b"m");
        assert!(mac2.verify(&tag));
        let mut mac3 = HmacSha256::new(b"k");
        mac3.update(b"m'");
        assert!(!mac3.verify(&tag));
    }
}
