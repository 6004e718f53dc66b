//! The naive signature matcher and serial scan: the specification
//! `pdn-detector`'s compiled Aho–Corasick [`SignatureMatcher`] and its
//! sharded [`Scanner::scan`] are differentially tested against, and the
//! baseline `scan_bench` times them against.
//!
//! [`SignatureMatcher`]: pdn_detector::matcher::SignatureMatcher

use pdn_detector::corpus::Ecosystem;
use pdn_detector::scanner::{AppDetection, ScanOutcome, ScanStats, SiteDetection};
use pdn_detector::signatures::{extract_api_key, ProviderTag, Signature, SignatureKind};
use pdn_detector::Scanner;

/// Result of matching `content` against the database.
///
/// O(signatures × content) with per-call lowercasing: every page-content
/// needle is searched for on its own.
pub fn match_page(signatures: &[Signature], content: &str) -> Vec<ProviderTag> {
    // ASCII folding to match the byte-level automaton; the needles are all
    // ASCII, so Unicode-only case mappings cannot change the outcome on
    // either side.
    let lower = content.to_ascii_lowercase();
    let mut hits: Vec<ProviderTag> = signatures
        .iter()
        .filter(|s| s.kind == SignatureKind::PageContent)
        .filter(|s| lower.contains(&s.needle.to_ascii_lowercase()))
        .map(|s| s.provider.clone())
        .collect();
    // Known-provider hits subsume generic WebRTC hits.
    if hits.iter().any(|p| *p != ProviderTag::GenericWebRtc) {
        hits.retain(|p| *p != ProviderTag::GenericWebRtc);
    }
    // Sort before dedup: `dedup` only removes *adjacent* duplicates, so a
    // page matching one provider via two non-adjacent signatures would
    // otherwise report it twice.
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// Matches APK artifacts (manifest keys + namespaces): substring match on
/// manifest keys, prefix match on namespaces.
pub fn match_apk(
    signatures: &[Signature],
    manifest_keys: &[String],
    namespaces: &[String],
) -> Vec<ProviderTag> {
    let mut hits: Vec<ProviderTag> = signatures
        .iter()
        .filter_map(|s| match s.kind {
            SignatureKind::AndroidManifest => manifest_keys
                .iter()
                .any(|k| k.contains(s.needle))
                .then(|| s.provider.clone()),
            SignatureKind::AndroidNamespace => namespaces
                .iter()
                .any(|n| n.starts_with(s.needle))
                .then(|| s.provider.clone()),
            SignatureKind::PageContent => None,
        })
        .collect();
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// Serial scan of `eco` through [`match_page`]/[`match_apk`] over
/// `scanner`'s signature database. Must produce the same outcome as
/// [`Scanner::scan`].
pub fn scan_naive(scanner: &Scanner, eco: &Ecosystem) -> ScanOutcome {
    let signatures = scanner.signatures();
    let mut stats = ScanStats::default();
    let mut sites = Vec::new();
    for site in &eco.websites {
        if site.video_category || site.in_source_index {
            stats.domains_scanned += 1;
        }
        if !site.video_category && !site.in_source_index {
            continue;
        }
        let homepage = site.page_content(0);
        stats.pages_fetched += 1;
        let descend = homepage.contains("<video") || site.in_source_index;
        let depths: &[u32] = if descend { &[0, 1, 2, 3] } else { &[0] };
        let mut best = None;
        for &d in depths {
            let fetched;
            let content: &str = if d == 0 {
                &homepage
            } else {
                stats.pages_fetched += 1;
                fetched = site.page_content(d);
                &fetched
            };
            let hits = match_page(signatures, content);
            if !hits.is_empty() {
                best = Some((d, hits, extract_api_key(content)));
                break;
            }
        }
        if let Some((matched_depth, providers, extracted_key)) = best {
            sites.push(SiteDetection {
                domain: site.domain.clone(),
                providers,
                extracted_key,
                rank: site.rank,
                monthly_visits: site.monthly_visits,
                matched_depth,
            });
        }
    }
    let mut apps = Vec::new();
    for app in &eco.apps {
        stats.apks_scanned += 1;
        let providers = match_apk(signatures, &app.manifest_keys, &app.namespaces);
        if !providers.is_empty() {
            apps.push(AppDetection {
                package: app.package.clone(),
                providers,
                apk_versions: app.apk_versions,
                downloads: app.downloads,
            });
        }
    }
    ScanOutcome { sites, apps, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_detector::signatures::builtin_signatures;

    #[test]
    fn page_matching_attributes_providers() {
        let sigs = builtin_signatures();
        let html = r#"<script src="https://api.peer5.com/peer5.js?id=abc123"></script>"#;
        assert_eq!(match_page(&sigs, html), vec![ProviderTag::Peer5]);
        let html = r#"<script src="https://cdn.streamroot.io/dna/latest.js"></script>"#;
        assert_eq!(match_page(&sigs, html), vec![ProviderTag::Streamroot]);
        assert!(match_page(&sigs, "<html>plain page</html>").is_empty());
    }

    #[test]
    fn known_provider_subsumes_generic() {
        let sigs = builtin_signatures();
        let html = "new RTCPeerConnection(); api.peer5.com/peer5.js?id=x";
        assert_eq!(match_page(&sigs, html), vec![ProviderTag::Peer5]);
        let html = "pc = new RTCPeerConnection(); pc.createDataChannel('x')";
        assert_eq!(match_page(&sigs, html), vec![ProviderTag::GenericWebRtc]);
    }

    #[test]
    fn apk_matching() {
        let sigs = builtin_signatures();
        let tags = match_apk(
            &sigs,
            &["io.streamroot.dna.StreamrootKey".to_string()],
            &["com.example.app".to_string()],
        );
        assert_eq!(tags, vec![ProviderTag::Streamroot]);
        let tags = match_apk(&sigs, &[], &["com.viblast.android.player".to_string()]);
        assert_eq!(tags, vec![ProviderTag::Viblast]);
        assert!(match_apk(&sigs, &[], &[]).is_empty());
    }
}
