//! Provider profiles: the per-service security postures observed in §IV.
//!
//! Every vulnerability in Table V is a property of a provider
//! *configuration*: whether the domain allowlist is on by default, whether
//! origin checks rely on spoofable headers, how deep the slow start goes,
//! whether segments are integrity-checked, whether tokens bind to videos.
//! A [`ProviderProfile`] captures those switches; the analyzer in
//! `pdn-core` evaluates each attack against each profile and reassembles
//! the table.

use crate::billing::BillingModel;

/// Public (multi-tenant SaaS) vs private (single-platform) service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ProviderKind {
    /// Subscription service with an SDK embedded by many customers.
    Public,
    /// Proprietary in-house PDN of one video platform.
    Private,
}

/// Cellular-data policy pushed to mobile SDKs (§IV-D resource squatting:
/// three Peer5 apps allowed cellular upload + download).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CellularPolicy {
    /// Never use P2P on cellular links.
    Disabled,
    /// Download from peers but never upload ("leech mode").
    LeechOnly,
    /// Upload and download over cellular (the costly configuration).
    UploadAndDownload,
}

/// The authentication scheme a provider runs.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AuthScheme {
    /// Persistent static API key embedded in pages (all public providers).
    StaticApiKey,
    /// Temporary per-peer token minted by the platform, optionally bound to
    /// the requested video source URL. Mango TV: `video_bound = false`;
    /// Tencent Video also observed unbound (§IV-B).
    TempToken {
        /// Whether the token is tied to the video source.
        video_bound: bool,
    },
    /// The §V-A defense: disposable video-binding JWT with TTL and usage
    /// limit.
    DisposableJwt,
    /// Microsoft eCDN after the Peer5 acquisition: tenant-wide key that is
    /// not publicly visible (§VI).
    TenantKey,
}

/// A provider's complete security posture.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProviderProfile {
    /// Display name, e.g. `"Peer5"`.
    pub name: String,
    /// Public SaaS or private in-house.
    pub kind: ProviderKind,
    /// Authentication scheme.
    pub auth: AuthScheme,
    /// Whether new customers get the domain allowlist by default.
    /// (Viblast: yes — "requires setting up the domain allowlist before
    /// enabling the PDN service"; Peer5/Streamroot: no.)
    pub allowlist_default: bool,
    /// Number of initial segments every viewer fetches straight from the
    /// CDN (the "slow start" that defeats *direct* content pollution).
    pub slow_start_segments: u64,
    /// Whether swarm membership is keyed on the manifest the peer reports
    /// (the consistency check that detects whole-stream replacement).
    pub manifest_consistency_check: bool,
    /// Whether segments received from peers are verified against integrity
    /// metadata. `false` for every service in the paper — the video segment
    /// pollution vulnerability.
    pub segment_integrity_check: bool,
    /// How the provider charges.
    pub billing: BillingModel,
    /// Cellular policy the SDK ships with.
    pub cellular: CellularPolicy,
    /// Whether P2P connections are relayed through TURN (the §V-C privacy
    /// mitigation; observed only on the two adult platforms).
    pub relay_via_turn: bool,
}

impl ProviderProfile {
    /// Peer5 as measured in the paper.
    pub fn peer5() -> Self {
        ProviderProfile {
            name: "Peer5".into(),
            kind: ProviderKind::Public,
            auth: AuthScheme::StaticApiKey,
            allowlist_default: false,
            slow_start_segments: 3,
            manifest_consistency_check: true,
            segment_integrity_check: false,
            billing: BillingModel::peer5(),
            cellular: CellularPolicy::LeechOnly,
            relay_via_turn: false,
        }
    }

    /// Streamroot as measured in the paper.
    pub fn streamroot() -> Self {
        ProviderProfile {
            name: "Streamroot".into(),
            kind: ProviderKind::Public,
            auth: AuthScheme::StaticApiKey,
            allowlist_default: false,
            slow_start_segments: 2,
            manifest_consistency_check: true,
            segment_integrity_check: false,
            billing: BillingModel::streamroot(),
            cellular: CellularPolicy::LeechOnly,
            relay_via_turn: false,
        }
    }

    /// Viblast as measured in the paper: allowlist required up front.
    pub fn viblast() -> Self {
        ProviderProfile {
            name: "Viblast".into(),
            kind: ProviderKind::Public,
            auth: AuthScheme::StaticApiKey,
            allowlist_default: true,
            slow_start_segments: 3,
            manifest_consistency_check: true,
            segment_integrity_check: false,
            billing: BillingModel::viblast(),
            cellular: CellularPolicy::LeechOnly,
            relay_via_turn: false,
        }
    }

    /// A private PDN in the style of Mango TV: temporary tokens *not* bound
    /// to the video source (§IV-B), hence free-ridable.
    pub fn private_mango_tv() -> Self {
        ProviderProfile {
            name: "MangoTV(private)".into(),
            kind: ProviderKind::Private,
            auth: AuthScheme::TempToken { video_bound: false },
            allowlist_default: false,
            slow_start_segments: 3,
            manifest_consistency_check: true,
            // Private services gate on their own video sources
            // (DRM-ish); modeled by the manifest consistency check.
            segment_integrity_check: false,
            billing: BillingModel::PerP2pTraffic { usd_per_tb: 0.0 },
            cellular: CellularPolicy::LeechOnly,
            relay_via_turn: false,
        }
    }

    /// Microsoft eCDN after acquiring Peer5 (§VI): tenant key, not public.
    pub fn microsoft_ecdn() -> Self {
        ProviderProfile {
            name: "Microsoft eCDN".into(),
            kind: ProviderKind::Public,
            auth: AuthScheme::TenantKey,
            allowlist_default: true,
            slow_start_segments: 3,
            manifest_consistency_check: true,
            segment_integrity_check: false,
            billing: BillingModel::PerViewerHour { usd_per_hour: 0.0 },
            cellular: CellularPolicy::Disabled,
            relay_via_turn: false,
        }
    }

    /// The hardened configuration the paper proposes: disposable JWT auth
    /// (§V-A) plus peer-assisted integrity checking (§V-B).
    pub fn hardened(base: &ProviderProfile) -> Self {
        ProviderProfile {
            name: format!("{}+defenses", base.name),
            auth: AuthScheme::DisposableJwt,
            segment_integrity_check: true,
            ..base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_defaults_match_paper() {
        assert!(!ProviderProfile::peer5().allowlist_default);
        assert!(!ProviderProfile::streamroot().allowlist_default);
        assert!(ProviderProfile::viblast().allowlist_default);
    }

    #[test]
    fn nobody_checks_segment_integrity() {
        for p in [
            ProviderProfile::peer5(),
            ProviderProfile::streamroot(),
            ProviderProfile::viblast(),
            ProviderProfile::private_mango_tv(),
        ] {
            assert!(!p.segment_integrity_check, "{}", p.name);
            assert!(p.manifest_consistency_check, "{}", p.name);
            assert!(p.slow_start_segments > 0, "{}", p.name);
        }
    }

    #[test]
    fn mango_tv_tokens_are_unbound() {
        assert_eq!(
            ProviderProfile::private_mango_tv().auth,
            AuthScheme::TempToken { video_bound: false }
        );
    }

    #[test]
    fn hardened_flips_the_two_defenses() {
        let h = ProviderProfile::hardened(&ProviderProfile::peer5());
        assert_eq!(h.auth, AuthScheme::DisposableJwt);
        assert!(h.segment_integrity_check);
        assert_eq!(h.slow_start_segments, 3, "other fields preserved");
    }

    #[test]
    fn serde_roundtrip() {
        let p = ProviderProfile::viblast();
        let json = serde_json::to_string(&p).unwrap();
        let back: ProviderProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
