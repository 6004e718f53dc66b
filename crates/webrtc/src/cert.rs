//! Self-signed certificates and fingerprints for the DTLS simulation.
//!
//! WebRTC authenticates the DTLS handshake against the certificate
//! fingerprint carried in the signaled SDP (RFC 8826). The paper's threat
//! model (§IV) includes an attacker who installs a *self-signed root
//! certificate* on a peer under their control to decrypt proxied traffic —
//! trivially modeled here because certificates are just key material plus a
//! fingerprint.

use pdn_crypto::sha256;
use pdn_simnet::SimRng;

/// A self-signed certificate: 32 bytes of key material and its fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    secret: [u8; 32],
}

impl Certificate {
    /// Generates a certificate from the given RNG.
    pub fn generate(rng: &mut SimRng) -> Self {
        let mut secret = [0u8; 32];
        for chunk in secret.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        Certificate { secret }
    }

    /// SHA-256 fingerprint of the certificate, as signaled in SDP
    /// (`a=fingerprint:sha-256 …`).
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint(sha256::digest(&self.secret))
    }
}

/// A certificate fingerprint (SHA-256).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Fingerprint(pub [u8; 32]);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Colon-separated hex like real SDP fingerprints, truncated pairs.
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{b:02X}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let mut rng = SimRng::seed(1);
        let a = Certificate::generate(&mut rng);
        let b = Certificate::generate(&mut rng);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn same_seed_regenerates_the_same_certificate() {
        let a = Certificate::generate(&mut SimRng::seed(7));
        let b = Certificate::generate(&mut SimRng::seed(7));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// The fingerprint is the SHA-256 of the key material.
    #[test]
    fn fingerprint_is_sha256_of_the_secret() {
        let cert = Certificate::generate(&mut SimRng::seed(8));
        assert_eq!(cert.fingerprint().0, sha256::digest(&cert.secret));
    }

    #[test]
    fn display_is_uppercase_hex() {
        let fp = Fingerprint([0xab; 32]).to_string();
        assert!(fp.starts_with("AB:AB:"));
        assert_eq!(fp.len(), 32 * 3 - 1);
    }

    #[test]
    fn display_format() {
        let mut rng = SimRng::seed(2);
        let fp = Certificate::generate(&mut rng).fingerprint().to_string();
        assert_eq!(fp.split(':').count(), 32);
        assert!(fp.split(':').all(|p| p.len() == 2));
    }
}
