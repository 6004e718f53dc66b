//! The signature-based static scanner (§III-C).
//!
//! Mirrors the paper's crawler: for every video-related or source-indexed
//! domain it walks subpages to depth 3 (with a page budget standing in for
//! the 10-minute timeout), matching the signature database against the
//! rendered content; APKs are unpacked into manifest keys and namespaces
//! and matched the same way.
//!
//! The hot path is built for corpus scale: signatures are compiled once
//! into a [`SignatureMatcher`] (Aho–Corasick, see [`crate::matcher`]), and
//! [`Scanner::scan`] shards the corpus across a [`WorldPool`].
//! Sharding is by contiguous index ranges and results are concatenated in
//! shard order, so the outcome is byte-identical for any worker count.

use pdn_simnet::shard::WorldPool;

use crate::corpus::{AndroidApp, Ecosystem, Website};
use crate::matcher::{Scratch, SignatureMatcher};
use crate::signatures::{builtin_signatures, extract_api_key, ProviderTag, Signature};

/// Worker count used when the caller doesn't pick one: the host-sized
/// [`WorldPool::auto`] count.
pub fn default_workers() -> usize {
    WorldPool::auto().workers()
}

/// Splits `len` items into at most `workers` contiguous index ranges.
fn chunk_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// A website flagged as a potential PDN customer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteDetection {
    /// The domain.
    pub domain: String,
    /// Providers whose signatures matched.
    pub providers: Vec<ProviderTag>,
    /// API key recovered by regex extraction, if any.
    pub extracted_key: Option<String>,
    /// Tranco-style rank.
    pub rank: u32,
    /// Monthly visits, if known.
    pub monthly_visits: Option<u64>,
    /// Depth at which the first signature matched.
    pub matched_depth: u32,
}

/// An app flagged as a potential PDN customer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppDetection {
    /// Package name.
    pub package: String,
    /// Providers whose signatures matched.
    pub providers: Vec<ProviderTag>,
    /// Historical APK versions carrying the SDK.
    pub apk_versions: u32,
    /// Downloads, if listed.
    pub downloads: Option<u64>,
}

/// Scanner statistics (the §III-C funnel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Domains considered (video-related + source-indexed).
    pub domains_scanned: usize,
    /// Pages fetched across all crawls.
    pub pages_fetched: u64,
    /// APKs unpacked.
    pub apks_scanned: usize,
}

impl ScanStats {
    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &ScanStats) {
        self.domains_scanned += other.domains_scanned;
        self.pages_fetched += other.pages_fetched;
        self.apks_scanned += other.apks_scanned;
    }
}

/// Output of a full static scan.
#[derive(Debug, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Flagged websites.
    pub sites: Vec<SiteDetection>,
    /// Flagged apps.
    pub apps: Vec<AppDetection>,
    /// Funnel statistics.
    pub stats: ScanStats,
}

/// The static scanner.
///
/// Holds the signature database *and* its compiled form: the Aho–Corasick
/// [`SignatureMatcher`] is built once in [`Scanner::new`] and reused for
/// every page and APK, so the per-page cost is a single pass over the
/// content with no allocation.
#[derive(Debug)]
pub struct Scanner {
    signatures: Vec<Signature>,
    matcher: SignatureMatcher,
}

impl Default for Scanner {
    fn default() -> Self {
        Self::new()
    }
}

impl Scanner {
    /// Creates a scanner with the built-in signature database.
    pub fn new() -> Self {
        let signatures = builtin_signatures();
        let matcher = SignatureMatcher::new(&signatures);
        Scanner {
            signatures,
            matcher,
        }
    }

    /// The signature database this scanner was compiled from.
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// Crawls one website; returns a detection if any signature matches
    /// within the depth limit. The shard loop reuses one matcher
    /// [`Scratch`] per worker.
    pub fn scan_site_in(
        &self,
        scratch: &mut Scratch,
        site: &Website,
        stats: &mut ScanStats,
    ) -> Option<SiteDetection> {
        // The paper's filter: category engines say video, or the domain
        // came from the source-code search engines.
        if !site.video_category && !site.in_source_index {
            return None;
        }
        // The crawler only descends when the homepage has a <video> tag
        // (or the site is source-indexed).
        let homepage = site.page_content(0);
        stats.pages_fetched += 1;
        let descend = homepage.contains("<video") || site.in_source_index;
        let mut best: Option<(u32, Vec<ProviderTag>, Option<String>)> = None;
        let depths: &[u32] = if descend { &[0, 1, 2, 3] } else { &[0] };
        for &d in depths {
            // Borrow the already-fetched homepage at depth 0 instead of
            // cloning it; deeper pages are fetched into `fetched`.
            let fetched;
            let content: &str = if d == 0 {
                &homepage
            } else {
                stats.pages_fetched += 1;
                fetched = site.page_content(d);
                &fetched
            };
            let hits = self.matcher.match_page_in(scratch, content);
            if !hits.is_empty() {
                let key = extract_api_key(content);
                best = Some((d, hits, key));
                break;
            }
        }
        let (matched_depth, providers, extracted_key) = best?;
        Some(SiteDetection {
            domain: site.domain.clone(),
            providers,
            extracted_key,
            rank: site.rank,
            monthly_visits: site.monthly_visits,
            matched_depth,
        })
    }

    /// Unpacks one APK and matches signatures.
    pub fn scan_app(&self, app: &AndroidApp, stats: &mut ScanStats) -> Option<AppDetection> {
        stats.apks_scanned += 1;
        let providers = self.matcher.match_apk(&app.manifest_keys, &app.namespaces);
        if providers.is_empty() {
            return None;
        }
        Some(AppDetection {
            package: app.package.clone(),
            providers,
            apk_versions: app.apk_versions,
            downloads: app.downloads,
        })
    }

    /// Scans the whole ecosystem, sharded across [`default_workers`]
    /// threads. Equivalent to `scan_with_workers(eco, default_workers())`.
    pub fn scan(&self, eco: &Ecosystem) -> ScanOutcome {
        self.scan_with_workers(eco, default_workers())
    }

    /// Scans the whole ecosystem with an explicit worker count.
    ///
    /// Websites and apps are partitioned into contiguous index shards, one
    /// per worker; each worker produces its shard's detections plus a
    /// private [`ScanStats`], and the shards are concatenated (and stats
    /// summed) in shard order at join. Because every site/app is scanned
    /// independently, the result is identical for any `workers` value.
    pub fn scan_with_workers(&self, eco: &Ecosystem, workers: usize) -> ScanOutcome {
        let site_chunks = chunk_ranges(eco.websites.len(), workers);
        let app_chunks = chunk_ranges(eco.apps.len(), workers);
        let shards = site_chunks.len().max(app_chunks.len());
        let results = WorldPool::new(workers).run(shards, |i| {
            let sites = site_chunks
                .get(i)
                .map_or(&[][..], |r| &eco.websites[r.clone()]);
            let apps = app_chunks.get(i).map_or(&[][..], |r| &eco.apps[r.clone()]);
            self.scan_shard(sites, apps)
        });
        let mut out = ScanOutcome {
            sites: Vec::new(),
            apps: Vec::new(),
            stats: ScanStats::default(),
        };
        for (sites, apps, stats) in results {
            out.sites.extend(sites);
            out.apps.extend(apps);
            out.stats.merge(&stats);
        }
        out
    }

    /// Scans one shard: a slice of the website corpus plus a slice of the
    /// app corpus, with shard-local stats.
    fn scan_shard(
        &self,
        websites: &[Website],
        apps: &[AndroidApp],
    ) -> (Vec<SiteDetection>, Vec<AppDetection>, ScanStats) {
        let mut stats = ScanStats::default();
        let mut scratch = Scratch::default();
        let mut site_dets = Vec::new();
        for site in websites {
            if site.video_category || site.in_source_index {
                stats.domains_scanned += 1;
            }
            if let Some(d) = self.scan_site_in(&mut scratch, site, &mut stats) {
                site_dets.push(d);
            }
        }
        let mut app_dets = Vec::new();
        for app in apps {
            if let Some(d) = self.scan_app(app, &mut stats) {
                app_dets.push(d);
            }
        }
        (site_dets, app_dets, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig, Plant, TABLE1_PLAN};
    use pdn_simnet::SimRng;

    fn outcome() -> (crate::corpus::Ecosystem, ScanOutcome) {
        let mut rng = SimRng::seed(3);
        let eco = generate(
            CorpusConfig {
                website_haystack: 500,
                app_haystack: 500,
                video_fraction: 0.4,
            },
            &mut rng,
        );
        let out = Scanner::new().scan(&eco);
        (eco, out)
    }

    #[test]
    fn finds_exactly_the_visible_public_plants() {
        let (eco, out) = outcome();
        for (provider, pot_sites, ..) in TABLE1_PLAN {
            let found = out
                .sites
                .iter()
                .filter(|s| s.providers.contains(provider))
                .count();
            // Every planted public site is statically visible in the
            // default corpus (depth ≤ 3, not dynamic).
            assert_eq!(found, *pot_sites, "{provider}");
        }
        // No haystack false positives.
        for s in &out.sites {
            let truth = eco.websites.iter().find(|w| w.domain == s.domain).unwrap();
            assert!(truth.plant.is_some(), "false positive on {}", s.domain);
        }
    }

    #[test]
    fn app_scan_matches_table1_potentials() {
        let (_, out) = outcome();
        for (provider, _, _, pot_apps, _, pot_apks, _) in TABLE1_PLAN {
            let (apps, versions) = out
                .apps
                .iter()
                .filter(|a| a.providers.contains(provider))
                .fold((0usize, 0u32), |(n, v), a| (n + 1, v + a.apk_versions));
            assert_eq!(apps, *pot_apps, "{provider} apps");
            assert_eq!(versions, *pot_apks, "{provider} APKs");
        }
    }

    #[test]
    fn extracts_exactly_the_unobfuscated_keys() {
        let (eco, out) = outcome();
        let extracted: Vec<&SiteDetection> = out
            .sites
            .iter()
            .filter(|s| s.extracted_key.is_some())
            .collect();
        assert_eq!(extracted.len(), 44, "§IV-B: 44 keys extracted");
        for d in extracted {
            let truth = eco.websites.iter().find(|w| w.domain == d.domain).unwrap();
            let Some(Plant::Public { api_key, .. }) = &truth.plant else {
                panic!("extracted key from non-public site");
            };
            assert_eq!(d.extracted_key.as_ref(), Some(api_key));
        }
    }

    #[test]
    fn generic_webrtc_candidates_found() {
        let (_, out) = outcome();
        let generic = out
            .sites
            .iter()
            .filter(|s| s.providers.contains(&ProviderTag::GenericWebRtc))
            .count();
        // 10 private + 2 adult + 3 tracking + 42 + 328 = 385 (§III-D).
        assert_eq!(generic, 385);
    }

    #[test]
    fn parallel_scan_is_deterministic_across_worker_counts() {
        let scanner = Scanner::new();
        for seed in [3u64, 7, 2024] {
            let mut rng = SimRng::seed(seed);
            let eco = generate(
                CorpusConfig {
                    website_haystack: 300,
                    app_haystack: 200,
                    video_fraction: 0.4,
                },
                &mut rng,
            );
            let serial = scanner.scan_with_workers(&eco, 1);
            for workers in [2usize, 8] {
                let parallel = scanner.scan_with_workers(&eco, workers);
                assert_eq!(serial, parallel, "seed {seed}, {workers} workers");
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, workers) in [(0usize, 4usize), (1, 4), (7, 3), (8, 8), (10, 16), (100, 7)] {
            let ranges = chunk_ranges(len, workers);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len, "len {len}, workers {workers}");
            assert!(ranges.len() <= workers.max(1));
        }
    }

    #[test]
    fn non_video_unindexed_sites_skipped() {
        let scanner = Scanner::new();
        let mut stats = ScanStats::default();
        let site = crate::corpus::Website {
            domain: "news.example".into(),
            rank: 10,
            video_category: false,
            in_source_index: false,
            monthly_visits: None,
            plant: None,
            visibility: crate::corpus::Visibility {
                depth: 0,
                dynamic: false,
            },
            trigger: crate::corpus::Trigger::Always,
        };
        assert!(scanner
            .scan_site_in(&mut Scratch::default(), &site, &mut stats)
            .is_none());
        assert_eq!(stats.pages_fetched, 0);
    }

    #[test]
    fn dynamic_plants_evade_static_scan() {
        let scanner = Scanner::new();
        let mut stats = ScanStats::default();
        let site = crate::corpus::Website {
            domain: "dyn.example".into(),
            rank: 10,
            video_category: true,
            in_source_index: false,
            monthly_visits: None,
            plant: Some(Plant::Public {
                provider: ProviderTag::Peer5,
                api_key: "k".into(),
                key_obfuscated: false,
                key_expired: false,
                allowlist_enabled: false,
            }),
            visibility: crate::corpus::Visibility {
                depth: 1,
                dynamic: true,
            },
            trigger: crate::corpus::Trigger::Always,
        };
        assert!(
            scanner
                .scan_site_in(&mut Scratch::default(), &site, &mut stats)
                .is_none(),
            "runtime-loaded signatures are invisible statically"
        );
    }
}
