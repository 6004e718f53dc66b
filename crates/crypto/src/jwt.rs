//! Minimal JSON Web Token (RFC 7519) with the HS256 algorithm (RFC 7515).
//!
//! The paper's proposed free-riding defense (§V-A) transmits a disposable,
//! video-binding token as a JWT signed with HMAC-SHA256; the example token in
//! Listing 1 encodes to 283 bytes. This module provides exactly that:
//! `base64url(header) . base64url(payload) . base64url(HMAC-SHA256(...))`.

use serde::{de::DeserializeOwned, Serialize};

use crate::base64url;
use crate::hmac::{hmac_sha256, hmac_sha256_keyed, HmacKey};

/// The fixed JOSE header used by this implementation:
/// `{"alg":"HS256","typ":"JWT"}`.
pub const HEADER_JSON: &str = r#"{"alg":"HS256","typ":"JWT"}"#;

/// Error returned when decoding or verifying a JWT fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyJwtError {
    /// The compact serialization did not have exactly three dot-separated parts.
    Malformed,
    /// A part was not valid base64url.
    InvalidEncoding,
    /// The header was not the expected HS256 header.
    UnsupportedHeader,
    /// The signature did not verify under the provided key.
    BadSignature,
    /// The payload was not valid JSON for the requested claims type.
    InvalidClaims(String),
}

impl std::fmt::Display for VerifyJwtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyJwtError::Malformed => write!(f, "token is not a three-part compact JWT"),
            VerifyJwtError::InvalidEncoding => write!(f, "token part is not valid base64url"),
            VerifyJwtError::UnsupportedHeader => write!(f, "token header is not HS256"),
            VerifyJwtError::BadSignature => write!(f, "token signature verification failed"),
            VerifyJwtError::InvalidClaims(e) => write!(f, "token claims are invalid: {e}"),
        }
    }
}

impl std::error::Error for VerifyJwtError {}

/// Signs `claims` into a compact HS256 JWT.
///
/// # Examples
///
/// ```
/// # use serde::{Serialize, Deserialize};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// #[derive(Serialize, Deserialize, PartialEq, Debug)]
/// struct Claims { customer_id: String }
///
/// let token = pdn_crypto::jwt::sign(&Claims { customer_id: "xx.yy".into() }, b"secret")?;
/// let back: Claims = pdn_crypto::jwt::verify(&token, b"secret")?;
/// assert_eq!(back.customer_id, "xx.yy");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns a serialization error if `claims` cannot be encoded as JSON.
pub fn sign<T: Serialize>(claims: &T, key: &[u8]) -> Result<String, serde_json::Error> {
    let payload = serde_json::to_vec(claims)?;
    Ok(sign_raw(&payload, key))
}

/// Signs a raw JSON payload (already serialized) into a compact HS256 JWT.
pub fn sign_raw(payload_json: &[u8], key: &[u8]) -> String {
    let head = base64url::encode(HEADER_JSON.as_bytes());
    let body = base64url::encode(payload_json);
    let signing_input = format!("{head}.{body}");
    let sig = hmac_sha256(key, signing_input.as_bytes());
    format!("{signing_input}.{}", base64url::encode(&sig))
}

/// Verifies `token` under `key` and deserializes its claims.
///
/// # Errors
///
/// See [`VerifyJwtError`] for each failure mode. Signature verification runs
/// in constant time.
pub fn verify<T: DeserializeOwned>(token: &str, key: &[u8]) -> Result<T, VerifyJwtError> {
    let payload = verify_raw(token, key)?;
    serde_json::from_slice(&payload).map_err(|e| VerifyJwtError::InvalidClaims(e.to_string()))
}

/// Verifies `token` under `key` and returns its raw JSON payload bytes.
///
/// # Errors
///
/// See [`VerifyJwtError`].
pub fn verify_raw(token: &str, key: &[u8]) -> Result<Vec<u8>, VerifyJwtError> {
    verify_raw_keyed(token, &HmacKey::new(key))
}

/// Verifies `token` under a precomputed [`HmacKey`] and deserializes its
/// claims. Validators checking many tokens under one provider secret hold
/// the key once instead of re-running the HMAC key schedule per token.
///
/// # Errors
///
/// See [`VerifyJwtError`]. Signature verification runs in constant time.
pub fn verify_keyed<T: DeserializeOwned>(token: &str, key: &HmacKey) -> Result<T, VerifyJwtError> {
    let payload = verify_raw_keyed(token, key)?;
    serde_json::from_slice(&payload).map_err(|e| VerifyJwtError::InvalidClaims(e.to_string()))
}

/// Verifies `token` under a precomputed [`HmacKey`] and returns its raw JSON
/// payload bytes. The signing input is MACed scatter-gather — no
/// `head.body` concatenation is allocated.
///
/// # Errors
///
/// See [`VerifyJwtError`].
pub fn verify_raw_keyed(token: &str, key: &HmacKey) -> Result<Vec<u8>, VerifyJwtError> {
    let mut parts = token.split('.');
    let (head, body, sig) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(h), Some(b), Some(s), None) => (h, b, s),
        _ => return Err(VerifyJwtError::Malformed),
    };
    let header_bytes = base64url::decode(head).map_err(|_| VerifyJwtError::InvalidEncoding)?;
    if header_bytes != HEADER_JSON.as_bytes() {
        return Err(VerifyJwtError::UnsupportedHeader);
    }
    let sig_bytes = base64url::decode(sig).map_err(|_| VerifyJwtError::InvalidEncoding)?;
    let expect = hmac_sha256_keyed(key, &[head.as_bytes(), b".", body.as_bytes()]);
    if !crate::ct_eq(&expect, &sig_bytes) {
        return Err(VerifyJwtError::BadSignature);
    }
    base64url::decode(body).map_err(|_| VerifyJwtError::InvalidEncoding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Claims {
        sub: String,
        n: u64,
    }

    fn claims() -> Claims {
        Claims {
            sub: "peer-1".into(),
            n: 42,
        }
    }

    #[test]
    fn roundtrip() {
        let token = sign(&claims(), b"k").unwrap();
        let back: Claims = verify(&token, b"k").unwrap();
        assert_eq!(back, claims());
    }

    #[test]
    fn wrong_key_rejected() {
        let token = sign(&claims(), b"k").unwrap();
        assert_eq!(
            verify::<Claims>(&token, b"other").unwrap_err(),
            VerifyJwtError::BadSignature
        );
    }

    #[test]
    fn tampered_payload_rejected() {
        let token = sign(&claims(), b"k").unwrap();
        let mut parts: Vec<&str> = token.split('.').collect();
        let forged = base64url::encode(br#"{"sub":"peer-1","n":43}"#);
        parts[1] = &forged;
        let tampered = parts.join(".");
        assert_eq!(
            verify::<Claims>(&tampered, b"k").unwrap_err(),
            VerifyJwtError::BadSignature
        );
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(
            verify::<Claims>("a.b", b"k").unwrap_err(),
            VerifyJwtError::Malformed
        );
        assert_eq!(
            verify::<Claims>("a.b.c.d", b"k").unwrap_err(),
            VerifyJwtError::Malformed
        );
    }

    #[test]
    fn foreign_header_rejected() {
        // alg:none downgrade must not be accepted.
        let head = base64url::encode(br#"{"alg":"none","typ":"JWT"}"#);
        let body = base64url::encode(br#"{"sub":"x","n":1}"#);
        let token = format!("{head}.{body}.");
        assert_eq!(
            verify::<Claims>(&token, b"k").unwrap_err(),
            VerifyJwtError::UnsupportedHeader
        );
    }

    #[test]
    fn keyed_sign_and_verify_match_byte_key_path() {
        let key = HmacKey::new(b"k");
        let token = sign(&claims(), b"k").unwrap();
        // A token signed under the byte key verifies under the keyed path
        // and under the byte key.
        let back: Claims = verify_keyed(&token, &key).unwrap();
        assert_eq!(back, claims());
        let back2: Claims = verify(&token, b"k").unwrap();
        assert_eq!(back2, claims());
        assert_eq!(
            verify_keyed::<Claims>(&token, &HmacKey::new(b"other")).unwrap_err(),
            VerifyJwtError::BadSignature
        );
    }

    #[test]
    fn compact_form_structure() {
        let token = sign(&claims(), b"k").unwrap();
        assert_eq!(token.matches('.').count(), 2);
        // Header decodes to the canonical JSON.
        let head = token.split('.').next().unwrap();
        assert_eq!(base64url::decode(head).unwrap(), HEADER_JSON.as_bytes());
    }
}
