//! PDN SDK signatures (§III-C).
//!
//! The paper fingerprints PDN customers with "URL patterns (e.g.,
//! `api.peer5.com/peer5.js?id=*`), unique namespaces (e.g.,
//! `com.viblast.android`), and meta-data in the Android manifest file (e.g.
//! `io.streamroot.dna.StreamrootKey`)". The same signature database drives
//! both the website crawler and the APK scanner here.

/// Which provider a signature attributes to.
///
/// The derived `Ord` (declaration order) is the canonical sort order for
/// hit lists everywhere in the detector.
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum ProviderTag {
    /// Peer5.
    Peer5,
    /// Streamroot.
    Streamroot,
    /// Viblast.
    Viblast,
    /// Generic WebRTC machinery without a known provider — the candidate
    /// set from which private PDN services are confirmed (§III-D).
    GenericWebRtc,
}

impl std::fmt::Display for ProviderTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProviderTag::Peer5 => "Peer5",
            ProviderTag::Streamroot => "Streamroot",
            ProviderTag::Viblast => "Viblast",
            ProviderTag::GenericWebRtc => "WebRTC(generic)",
        };
        f.write_str(s)
    }
}

/// Where a signature is searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureKind {
    /// Substring of a page's HTML/JS (URL patterns, namespaces).
    PageContent,
    /// Key in an Android manifest.
    AndroidManifest,
    /// Java/Kotlin package namespace inside an APK.
    AndroidNamespace,
}

/// One signature.
#[derive(Debug, Clone)]
pub struct Signature {
    /// Attributed provider.
    pub provider: ProviderTag,
    /// Where to search.
    pub kind: SignatureKind,
    /// The needle. `*` in URL patterns is handled by substring matching on
    /// the invariant prefix.
    pub needle: &'static str,
}

/// The built-in signature database from §III-C.
///
/// One entry per SDK artifact the paper's crawler fingerprints: loader
/// URLs, bundle names, global objects, key attributes, manifest keys, and
/// code namespaces — across the historical SDK versions of each provider
/// (the paper's database spans years of shipped SDKs, which is exactly the
/// regime where per-needle scanning stops scaling; see [`crate::matcher`]).
pub fn builtin_signatures() -> Vec<Signature> {
    use ProviderTag::*;
    use SignatureKind::*;
    vec![
        // ---- Peer5 ----
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "api.peer5.com/peer5.js?id=",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "window.peer5",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "cdn.peer5.com/peer5.min.js",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "api.peer5.com/analytics",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.js?auto=",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5-client",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5sdk",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.adapter",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5_config",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.Downloader",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.hlsjs",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.dashjs",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.videojs",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.silverlight",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "data-peer5-id=",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5loader",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.azureedge.net",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "api.peer5.com/stats",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.bootstrap",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.reporter",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.swarm",
        },
        Signature {
            provider: Peer5,
            kind: PageContent,
            needle: "peer5.jwplayer",
        },
        Signature {
            provider: Peer5,
            kind: AndroidNamespace,
            needle: "com.peer5.sdk",
        },
        Signature {
            provider: Peer5,
            kind: AndroidNamespace,
            needle: "com.peer5.embedded",
        },
        Signature {
            provider: Peer5,
            kind: AndroidManifest,
            needle: "com.peer5.ApiKey",
        },
        Signature {
            provider: Peer5,
            kind: AndroidManifest,
            needle: "com.peer5.sdk.LicenseKey",
        },
        // ---- Streamroot ----
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "cdn.streamroot.io/dna",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamrootkey",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "cdn.streamroot.io/dist",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "cdn.streamroot.io/mesh",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "window.Streamroot",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "data-streamroot-key=",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot-wrapper",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.hlsjs",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.shaka",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.dashjs",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamrootPropertyId",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.mesh",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamrootPeerAgent",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.io/lumen",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.config",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamrootDnaDebug",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.bootstrap",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.tracker",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.jwplayer",
        },
        Signature {
            provider: Streamroot,
            kind: PageContent,
            needle: "streamroot.analytics",
        },
        Signature {
            provider: Streamroot,
            kind: AndroidManifest,
            needle: "io.streamroot.dna.StreamrootKey",
        },
        Signature {
            provider: Streamroot,
            kind: AndroidManifest,
            needle: "io.streamroot.dna.DnaPropertyId",
        },
        Signature {
            provider: Streamroot,
            kind: AndroidNamespace,
            needle: "io.streamroot.dna",
        },
        Signature {
            provider: Streamroot,
            kind: AndroidNamespace,
            needle: "io.streamroot.lumen",
        },
        // ---- Viblast ----
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.com/pdn/player.js",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast(",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "cdn.viblast.com",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast-player.js",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast-key=",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.pdn",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblastLicense",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.setup",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast_endpoint",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.hls",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.talkback",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.swarm",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.bootstrap",
        },
        Signature {
            provider: Viblast,
            kind: PageContent,
            needle: "viblast.dash",
        },
        Signature {
            provider: Viblast,
            kind: AndroidNamespace,
            needle: "com.viblast.android",
        },
        Signature {
            provider: Viblast,
            kind: AndroidNamespace,
            needle: "com.viblast.player",
        },
        // ---- Generic WebRTC (private PDN candidates, §III-D) ----
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "RTCPeerConnection",
        },
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "createDataChannel",
        },
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "webkitRTCPeerConnection",
        },
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "mozRTCPeerConnection",
        },
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "ondatachannel",
        },
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "RTCDataChannel",
        },
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "peerConnection.createDataChannel",
        },
        Signature {
            provider: GenericWebRtc,
            kind: PageContent,
            needle: "RTCPeerConnection.generateCertificate",
        },
    ]
}

/// Extracts a Peer5/Streamroot/Viblast-style API key from page content via
/// the regular-expression-like prefix matching of §IV-B. Returns `None`
/// for obfuscated or dynamically-loaded keys.
pub fn extract_api_key(content: &str) -> Option<String> {
    for marker in ["peer5.js?id=", "data-sr-key=\"", "viblast-key=\""] {
        if let Some(pos) = content.find(marker) {
            let rest = &content[pos + marker.len()..];
            let key: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            if !key.is_empty() {
                return Some(key);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_extraction() {
        assert_eq!(
            extract_api_key(r#"src="https://api.peer5.com/peer5.js?id=abcDEF123""#),
            Some("abcDEF123".into())
        );
        assert_eq!(
            extract_api_key(r#"<div data-sr-key="sr-key-42">"#),
            Some("sr-key-42".into())
        );
        // Obfuscated keys do not match the extractor.
        assert_eq!(extract_api_key("_0x101f38[_0x2c4aeb(0x234)]"), None);
    }

    #[test]
    fn key_ends_at_the_first_non_key_character() {
        assert_eq!(
            extract_api_key("peer5.js?id=k-1_2&auto=1"),
            Some("k-1".into())
        );
        assert_eq!(
            extract_api_key(r#"<video viblast-key="vb-77">"#),
            Some("vb-77".into())
        );
    }

    /// A marker with an empty value does not end the search: the next
    /// marker's key is still found.
    #[test]
    fn empty_key_falls_through_to_the_next_marker() {
        let page = r#"peer5.js?id=" data-sr-key="sr-9""#;
        assert_eq!(extract_api_key(page), Some("sr-9".into()));
        assert_eq!(extract_api_key("peer5.js?id="), None);
    }

    #[test]
    fn every_needle_is_unique() {
        let sigs = builtin_signatures();
        let mut needles: Vec<&str> = sigs.iter().map(|s| s.needle).collect();
        needles.sort_unstable();
        let before = needles.len();
        needles.dedup();
        assert_eq!(needles.len(), before);
    }

    /// Each public provider is findable both on websites and in APKs.
    #[test]
    fn public_providers_have_page_and_android_signatures() {
        let sigs = builtin_signatures();
        for tag in [
            ProviderTag::Peer5,
            ProviderTag::Streamroot,
            ProviderTag::Viblast,
        ] {
            let kinds: Vec<SignatureKind> = sigs
                .iter()
                .filter(|s| s.provider == tag)
                .map(|s| s.kind)
                .collect();
            assert!(kinds.contains(&SignatureKind::PageContent), "{tag}");
            assert!(
                kinds.iter().any(|k| *k != SignatureKind::PageContent),
                "{tag}"
            );
        }
    }

    #[test]
    fn provider_tags_sort_in_declaration_order() {
        let mut tags = [
            ProviderTag::GenericWebRtc,
            ProviderTag::Viblast,
            ProviderTag::Peer5,
            ProviderTag::Streamroot,
        ];
        tags.sort();
        let names: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
        assert_eq!(names, ["Peer5", "Streamroot", "Viblast", "WebRTC(generic)"]);
    }
}
