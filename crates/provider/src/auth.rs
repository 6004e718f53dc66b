//! Peer/customer authentication: static API keys, domain allowlists,
//! temporary tokens, and the paper's proposed disposable video-binding JWT.
//!
//! §IV-B: public PDN services authenticate peers with a *persistent API
//! key statically embedded in the customer's page* — retrievable by anyone,
//! enabling service free riding. The optional domain allowlist checks the
//! `Origin`/`Referer` headers, which a proxy can spoof. §V-A proposes the
//! fix implemented in [`PdnToken`]: a disposable token bound to specific
//! video streams with TTL and usage limits, signed as a JWT (Listing 1).

use std::collections::{HashMap, HashSet};

use pdn_crypto::hmac::HmacKey;
use pdn_crypto::jwt;
use pdn_media::VideoId;
use pdn_simnet::SimTime;

/// Synthetic Unix timestamp of simulation start (the paper's example token
/// was issued around this time).
pub const SIM_UNIX_EPOCH: u64 = 1_619_814_000;

/// Converts simulation time to a Unix timestamp for token fields.
pub fn unix_time(now: SimTime) -> u64 {
    SIM_UNIX_EPOCH + now.as_secs_f64() as u64
}

/// A customer account registered with a PDN provider.
#[derive(Debug, Clone)]
pub struct CustomerAccount {
    /// Stable customer identifier (e.g. `"xx.yy"`).
    pub customer_id: String,
    /// The static API key embedded in the customer's pages.
    pub api_key: String,
    /// Domains registered for this customer (used when the allowlist is on).
    pub domains: HashSet<String>,
    /// Whether the key has expired (4 of the 44 extracted keys had, §IV-B).
    pub expired: bool,
    /// Whether this customer enabled the domain allowlist.
    pub allowlist_enabled: bool,
}

impl CustomerAccount {
    /// Creates an active account for `customer_id` serving `domains`.
    pub fn new(
        customer_id: impl Into<String>,
        api_key: impl Into<String>,
        domains: impl IntoIterator<Item = String>,
    ) -> Self {
        CustomerAccount {
            customer_id: customer_id.into(),
            api_key: api_key.into(),
            domains: domains.into_iter().collect(),
            expired: false,
            allowlist_enabled: false,
        }
    }
}

/// Why a join was denied.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AuthError {
    /// No account matches the presented API key.
    UnknownKey,
    /// The key exists but has expired.
    ExpiredKey,
    /// The allowlist is enabled and the presented origin is not registered.
    OriginNotAllowed,
    /// Token authentication failed (bad signature, expired, wrong video,
    /// usage exhausted).
    InvalidToken(String),
    /// No credentials presented at all.
    MissingCredentials,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::UnknownKey => write!(f, "unknown API key"),
            AuthError::ExpiredKey => write!(f, "expired API key"),
            AuthError::OriginNotAllowed => write!(f, "origin not in domain allowlist"),
            AuthError::InvalidToken(r) => write!(f, "invalid token: {r}"),
            AuthError::MissingCredentials => write!(f, "no credentials presented"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The registry of customer accounts held by a provider.
#[derive(Debug, Default)]
pub struct AccountRegistry {
    by_key: HashMap<String, CustomerAccount>,
}

impl AccountRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an account.
    pub fn register(&mut self, account: CustomerAccount) {
        self.by_key.insert(account.api_key.clone(), account);
    }

    /// Looks up by API key.
    pub fn by_key(&self, api_key: &str) -> Option<&CustomerAccount> {
        self.by_key.get(api_key)
    }

    /// Mutable lookup by API key.
    #[cfg(test)]
    pub(crate) fn by_key_mut(&mut self, api_key: &str) -> Option<&mut CustomerAccount> {
        self.by_key.get_mut(api_key)
    }

    /// Validates a static-key join: the §IV-B authentication mechanism.
    ///
    /// `origin` is the (spoofable) `Origin` header the peer's browser sent.
    ///
    /// # Errors
    ///
    /// See [`AuthError`].
    pub fn authenticate_key(
        &self,
        api_key: &str,
        origin: &str,
    ) -> Result<&CustomerAccount, AuthError> {
        let account = self.by_key.get(api_key).ok_or(AuthError::UnknownKey)?;
        if account.expired {
            return Err(AuthError::ExpiredKey);
        }
        if account.allowlist_enabled && !account.domains.contains(origin) {
            return Err(AuthError::OriginNotAllowed);
        }
        Ok(account)
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Iterates over accounts.
    pub fn iter(&self) -> impl Iterator<Item = &CustomerAccount> {
        self.by_key.values()
    }
}

/// The disposable, video-binding token of §V-A (Listing 1).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PdnToken {
    /// Customer identifier assigned by the provider.
    pub customer_id: String,
    /// Per-peer identifier assigned by the customer's server.
    pub pdn_peer_id: String,
    /// Video stream URLs this token is valid for.
    pub video_ids: Vec<String>,
    /// Issuance time (Unix seconds).
    pub timestamp: u64,
    /// Time to live in seconds since issuance.
    pub ttl: u64,
    /// Maximum number of joins permitted under this token.
    pub usage_limit: u32,
}

impl PdnToken {
    /// Signs the token into its compact JWT form.
    pub fn sign(&self, key: &[u8]) -> String {
        jwt::sign(self, key).expect("token serializes to JSON")
    }
}

/// Server-side verifier for [`PdnToken`]s, tracking per-token usage.
#[derive(Debug)]
pub struct TokenValidator {
    /// Precomputed HMAC key schedule — the per-join key hashing is paid once
    /// at construction, not per `validate` call.
    key: HmacKey,
    /// Uses consumed per (customer, peer, timestamp) token identity.
    uses: HashMap<(String, String, u64), u32>,
}

impl TokenValidator {
    /// Creates a validator holding the provider's signing key.
    pub fn new(key: impl Into<Vec<u8>>) -> Self {
        TokenValidator {
            key: HmacKey::new(&key.into()),
            uses: HashMap::new(),
        }
    }

    /// Verifies `token_jwt` for joining `video` at time `now`, consuming one
    /// use on success.
    ///
    /// # Errors
    ///
    /// [`AuthError::InvalidToken`] with the failed check's name.
    pub fn validate(
        &mut self,
        token_jwt: &str,
        video: &VideoId,
        now: SimTime,
    ) -> Result<PdnToken, AuthError> {
        let token: PdnToken = jwt::verify_keyed(token_jwt, &self.key)
            .map_err(|e| AuthError::InvalidToken(e.to_string()))?;
        let now_unix = unix_time(now);
        if now_unix < token.timestamp {
            return Err(AuthError::InvalidToken("issued in the future".into()));
        }
        if now_unix > token.timestamp + token.ttl {
            return Err(AuthError::InvalidToken("expired".into()));
        }
        if !token.video_ids.contains(&video.0) {
            return Err(AuthError::InvalidToken("video not bound".into()));
        }
        let key = (
            token.customer_id.clone(),
            token.pdn_peer_id.clone(),
            token.timestamp,
        );
        let used = self.uses.entry(key).or_insert(0);
        if *used >= token.usage_limit {
            return Err(AuthError::InvalidToken("usage limit exhausted".into()));
        }
        *used += 1;
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> AccountRegistry {
        let mut r = AccountRegistry::new();
        r.register(CustomerAccount::new(
            "example",
            "key-example",
            ["www.example.com".to_string()],
        ));
        r
    }

    #[test]
    fn default_settings_accept_any_origin() {
        // Peer5/Streamroot default: no allowlist — the cross-domain attack.
        let r = registry();
        assert!(r
            .authenticate_key("key-example", "www.attacker.com")
            .is_ok());
    }

    #[test]
    fn allowlist_blocks_cross_domain() {
        let mut r = registry();
        r.by_key_mut("key-example").unwrap().allowlist_enabled = true;
        assert_eq!(
            r.authenticate_key("key-example", "www.attacker.com")
                .unwrap_err(),
            AuthError::OriginNotAllowed
        );
        // …but a spoofed Origin header sails through: the server cannot
        // distinguish it (that check happens at the caller with spoofed
        // input, which is the point of the domain-spoofing attack).
        assert!(r.authenticate_key("key-example", "www.example.com").is_ok());
    }

    #[test]
    fn unknown_and_expired_keys_rejected() {
        let mut r = registry();
        assert_eq!(
            r.authenticate_key("nope", "www.example.com").unwrap_err(),
            AuthError::UnknownKey
        );
        r.by_key_mut("key-example").unwrap().expired = true;
        assert_eq!(
            r.authenticate_key("key-example", "www.example.com")
                .unwrap_err(),
            AuthError::ExpiredKey
        );
    }

    fn listing1_token() -> PdnToken {
        PdnToken {
            customer_id: "xx.yy".into(),
            pdn_peer_id: "1".into(),
            video_ids: vec![
                "https://xx.yy/zz.m3u8".into(),
                "https://xx.yy/hh.m3u8".into(),
            ],
            timestamp: unix_time(SimTime::ZERO),
            ttl: 60,
            usage_limit: 1,
        }
    }

    #[test]
    fn listing1_token_size_is_283_bytes() {
        // §V-A: "the example token along with its HMAC-SHA256 signature will
        // result in an encoded JWT of 283 bytes."
        let jwt = listing1_token().sign(b"provider-secret");
        // Field ordering/whitespace may differ from the authors' encoder;
        // require the same magnitude (± 15%).
        assert!(
            (240..=330).contains(&jwt.len()),
            "token length {} out of expected band",
            jwt.len()
        );
    }

    #[test]
    fn token_roundtrip_and_binding() {
        let mut v = TokenValidator::new(b"k".to_vec());
        let jwt = listing1_token().sign(b"k");
        let ok = v.validate(&jwt, &VideoId::new("https://xx.yy/zz.m3u8"), SimTime::ZERO);
        assert!(ok.is_ok());
        // Not valid for an unbound video — the attacker cannot reuse it for
        // their own stream, which kills the free-riding economics.
        let err = v
            .validate(&jwt, &VideoId::new("https://evil.tv/x.m3u8"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, AuthError::InvalidToken(ref m) if m.contains("video")));
    }

    #[test]
    fn token_usage_limit_enforced() {
        let mut v = TokenValidator::new(b"k".to_vec());
        let jwt = listing1_token().sign(b"k");
        let video = VideoId::new("https://xx.yy/zz.m3u8");
        assert!(v.validate(&jwt, &video, SimTime::ZERO).is_ok());
        // Replay: usage_limit = 1, second join rejected.
        let err = v.validate(&jwt, &video, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, AuthError::InvalidToken(ref m) if m.contains("usage")));
    }

    #[test]
    fn token_ttl_enforced() {
        let mut v = TokenValidator::new(b"k".to_vec());
        let jwt = listing1_token().sign(b"k");
        let video = VideoId::new("https://xx.yy/zz.m3u8");
        let err = v
            .validate(&jwt, &video, SimTime::from_secs(61))
            .unwrap_err();
        assert!(matches!(err, AuthError::InvalidToken(ref m) if m.contains("expired")));
    }

    #[test]
    fn forged_token_rejected() {
        let mut v = TokenValidator::new(b"real-key".to_vec());
        let jwt = listing1_token().sign(b"attacker-key");
        let err = v
            .validate(&jwt, &VideoId::new("https://xx.yy/zz.m3u8"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, AuthError::InvalidToken(_)));
    }
}
