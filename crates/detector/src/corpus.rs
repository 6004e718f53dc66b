//! Synthetic ecosystem corpus.
//!
//! The paper crawls the Tranco top-300K (filtered to 68,713 video-related
//! domains plus 44 source-search hits) and samples 1.5M Androzoo apps
//! (§III-C). Neither corpus can be fetched here, so this module generates a
//! synthetic ecosystem with the same *ground truth structure*: planted PDN
//! customers with realistic embedding (signature depth, obfuscated keys,
//! dynamic loading), trigger constraints (geo restrictions, subscriptions,
//! subpage-only), popularity metadata, and a configurable haystack of
//! innocuous sites and apps. The detector pipeline then has to *recover*
//! the plants — Tables I–IV are its output, not a transcription.
//!
//! The named, publicly-reported customers of Tables II–IV are seeded
//! verbatim (domains, providers, popularity) since they are published
//! findings; which of them the pipeline confirms is up to the pipeline.

use pdn_simnet::SimRng;

use crate::signatures::ProviderTag;

/// When a planted PDN actually produces traffic (§III-C "challenges in
/// triggering the service").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Triggers from any vantage.
    Always,
    /// Only triggers from a vantage in this country (e.g. Douyu: CN).
    GeoRestricted(&'static str),
    /// Requires a paid subscription the analyzer does not have.
    SubscriptionRequired,
    /// Only enabled on subpages the dynamic driver misses.
    SubpageOnly,
}

/// What a generic-WebRTC site actually uses WebRTC for (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebRtcUse {
    /// TURN-relayed streaming (the two adult platforms).
    TurnRelayed,
    /// Web tracking via WebRTC APIs.
    Tracking,
    /// Could not be triggered / unknown.
    Unknown,
}

/// Ground truth planted on a website or app.
#[derive(Debug, Clone)]
pub enum Plant {
    /// Customer of a public PDN provider.
    Public {
        /// Which provider.
        provider: ProviderTag,
        /// The embedded API key.
        api_key: String,
        /// Key unreadable by regex extraction (obfuscated / runtime-loaded).
        key_obfuscated: bool,
        /// Key expired at the provider.
        key_expired: bool,
        /// Customer enabled the domain allowlist.
        allowlist_enabled: bool,
    },
    /// Proprietary private PDN with its own signaling server.
    Private {
        /// The signaling endpoint (Table IV column 2).
        server_domain: String,
    },
    /// Generic WebRTC usage that is not a public-provider PDN.
    WebRtcOther(WebRtcUse),
}

/// How visible the planted SDK is to a static crawler.
#[derive(Debug, Clone, Copy)]
pub struct Visibility {
    /// Page depth at which the signature appears (crawler goes to 3).
    pub depth: u32,
    /// Signature only materializes at runtime (static scan misses it).
    pub dynamic: bool,
}

/// A website in the corpus.
#[derive(Debug, Clone)]
pub struct Website {
    /// Domain name.
    pub domain: String,
    /// Tranco-style rank (1 = most popular).
    pub rank: u32,
    /// Categorized as video-related by the category engines.
    pub video_category: bool,
    /// Indexed by the source-code search engines (NerdyData/PublicWWW).
    pub in_source_index: bool,
    /// Monthly visits (SimilarWeb), when known.
    pub monthly_visits: Option<u64>,
    /// Planted PDN, if any.
    pub plant: Option<Plant>,
    /// Visibility of the plant.
    pub visibility: Visibility,
    /// Trigger condition of the plant.
    pub trigger: Trigger,
}

impl Website {
    /// Renders the page content at `depth` (lazy generation: only crawled
    /// pages materialize). The signature snippet appears at the plant's
    /// depth, near the end of the document as on real sites; the rest is
    /// innocuous video-site boilerplate at a realistic page weight
    /// (Tranco-ranked video pages average tens of kilobytes of markup).
    pub fn page_content(&self, depth: u32) -> String {
        // Deterministic size in [12 KiB, 24 KiB), varying per site/depth.
        let lines = 128
            + (self.rank as usize)
                .wrapping_mul(31)
                .wrapping_add(depth as usize)
                % 128;
        let mut html = String::with_capacity(lines * 100 + 512);
        html.push_str("<html><head><title>");
        html.push_str(&self.domain);
        html.push_str("</title></head><body>");
        if self.video_category && depth == 0 {
            html.push_str("<video src=\"stream.m3u8\" controls></video>");
        }
        for i in 0..lines {
            html.push_str("<div class=\"row\"><a href=\"/watch?v=");
            push_decimal(&mut html, (i * 7919 + depth as usize) % 1_000_000);
            html.push_str("\">Episode listing — full catalog, subtitles, schedule</a></div>\n");
        }
        if let Some(plant) = &self.plant {
            if depth == self.visibility.depth && !self.visibility.dynamic {
                html.push_str(&plant_snippet(plant));
            }
        }
        html.push_str("</body></html>");
        html
    }
}

/// Appends `n` in decimal without going through `format!` (page rendering
/// is on the scan benches' critical path).
fn push_decimal(out: &mut String, n: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

fn plant_snippet(plant: &Plant) -> String {
    match plant {
        Plant::Public {
            provider,
            api_key,
            key_obfuscated,
            ..
        } => {
            let key_text = if *key_obfuscated {
                "_0x101f38[_0x2c4aeb(0x234)]".to_string()
            } else {
                api_key.clone()
            };
            match provider {
                ProviderTag::Peer5 => format!(
                    r#"<script src="https://api.peer5.com/peer5.js?id={key_text}"></script>"#
                ),
                ProviderTag::Streamroot => format!(
                    r#"<script src="https://cdn.streamroot.io/dna/latest.js"></script><div data-sr-key="{key_text}" streamrootkey></div>"#
                ),
                ProviderTag::Viblast => format!(
                    r#"<script src="https://viblast.com/pdn/player.js"></script><script>viblast({{key:viblast-key="{key_text}"}})</script>"#
                ),
                ProviderTag::GenericWebRtc => "new RTCPeerConnection()".to_string(),
            }
        }
        Plant::Private { server_domain } => format!(
            r#"<script>var pc = new RTCPeerConnection(); var ws = new WebSocket("wss://{server_domain}/signal"); pc.createDataChannel("pdn");</script>"#
        ),
        Plant::WebRtcOther(_) => {
            r#"<script>var pc = new RTCPeerConnection(); pc.createDataChannel("x");</script>"#
                .to_string()
        }
    }
}

/// An Android app in the corpus.
#[derive(Debug, Clone)]
pub struct AndroidApp {
    /// Package name.
    pub package: String,
    /// Google Play downloads, when listed.
    pub downloads: Option<u64>,
    /// Number of historical APK versions carrying the plant.
    pub apk_versions: u32,
    /// Android manifest meta-data keys.
    pub manifest_keys: Vec<String>,
    /// Bundled code namespaces.
    pub namespaces: Vec<String>,
    /// Planted PDN, if any.
    pub plant: Option<Plant>,
    /// Trigger condition.
    pub trigger: Trigger,
    /// Cellular policy pushed by the customer configuration (§IV-D:
    /// "3 apps allowed the use of cellular data for both uploading and
    /// downloading").
    pub cellular_upload: bool,
}

/// Corpus size configuration.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Innocuous websites in the haystack.
    pub website_haystack: usize,
    /// Innocuous apps in the haystack.
    pub app_haystack: usize,
    /// Fraction of haystack sites that are video-related.
    pub video_fraction: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            website_haystack: 5_000,
            app_haystack: 20_000,
            video_fraction: 0.25,
        }
    }
}

/// The generated ecosystem.
#[derive(Debug)]
pub struct Ecosystem {
    /// All websites (haystack + plants), shuffled.
    pub websites: Vec<Website>,
    /// All apps (haystack + plants), shuffled.
    pub apps: Vec<AndroidApp>,
}

/// Table II verbatim: (domain, provider, monthly visits).
pub const CONFIRMED_WEBSITES: &[(&str, ProviderTag, Option<u64>)] = &[
    ("rt.com", ProviderTag::Streamroot, Some(117_000_000)),
    ("clarin.com", ProviderTag::Peer5, Some(69_000_000)),
    ("rtve.es", ProviderTag::Peer5, Some(35_000_000)),
    ("jn.pt", ProviderTag::Peer5, Some(12_000_000)),
    ("ojogo.pt", ProviderTag::Peer5, Some(8_000_000)),
    ("dn.pt", ProviderTag::Peer5, Some(6_000_000)),
    ("servustv.com", ProviderTag::Peer5, Some(4_000_000)),
    ("www.popcornflix.com", ProviderTag::Peer5, Some(1_000_000)),
    ("tsf.pt", ProviderTag::Peer5, Some(1_000_000)),
    ("dinheirovivo.pt", ProviderTag::Peer5, Some(1_000_000)),
    ("www.sliver.tv", ProviderTag::Peer5, None),
    ("hdo.tv", ProviderTag::Peer5, None),
    ("www.souvenirsfromearth.tv", ProviderTag::Peer5, None),
    ("www.severestudios.com", ProviderTag::Peer5, None),
    ("www.performancevetsupply.com", ProviderTag::Peer5, None),
    ("www.schoolfordesign.net", ProviderTag::Peer5, None),
    ("9uu.com", ProviderTag::Peer5, None),
];

/// Table III verbatim: (package, provider, downloads, cellular upload).
pub const CONFIRMED_APPS: &[(&str, ProviderTag, Option<u64>, bool)] = &[
    (
        "iflix.play",
        ProviderTag::Streamroot,
        Some(50_000_000),
        false,
    ),
    (
        "fr.francetv.pluzz",
        ProviderTag::Streamroot,
        Some(10_000_000),
        false,
    ),
    (
        "com.nousguide.android.rbtv",
        ProviderTag::Peer5,
        Some(10_000_000),
        false,
    ),
    (
        "com.portonics.mygp",
        ProviderTag::Peer5,
        Some(10_000_000),
        true,
    ),
    ("mivo.tv", ProviderTag::Peer5, Some(10_000_000), false),
    (
        "com.bongo.bioscope",
        ProviderTag::Peer5,
        Some(5_000_000),
        true,
    ),
    ("tv.fubo.mobile", ProviderTag::Peer5, Some(5_000_000), false),
    (
        "com.rt.mobile.english",
        ProviderTag::Streamroot,
        Some(1_000_000),
        false,
    ),
    (
        "vn.com.vega.clipvn",
        ProviderTag::Peer5,
        Some(1_000_000),
        false,
    ),
    (
        "com.flipps.fitetv",
        ProviderTag::Peer5,
        Some(1_000_000),
        false,
    ),
    // The paper's Table III lists vn.com.vega.clipvn twice; reproduced as a
    // distinct row so counts match (18 rows).
    (
        "vn.com.vega.clipvn.row2",
        ProviderTag::Peer5,
        Some(1_000_000),
        false,
    ),
    (
        "com.arenacloudtv.android",
        ProviderTag::Peer5,
        Some(500_000),
        true,
    ),
    (
        "com.televisions.burma",
        ProviderTag::Peer5,
        Some(50_000),
        false,
    ),
    ("com.totalaccesstv.live", ProviderTag::Peer5, None, false),
    ("dev.hw.app.tgnd", ProviderTag::Peer5, None, false),
    ("tv.almighty.apk", ProviderTag::Peer5, None, false),
    ("com.rvcomx.brpro", ProviderTag::Peer5, None, false),
    ("com.lts.cricingif", ProviderTag::Peer5, None, false),
];

/// Table IV verbatim: (domain, signaling server, monthly visits, trigger).
pub const PRIVATE_PDN_SITES: &[(&str, &str, u64, Trigger)] = &[
    (
        "bilibili.com",
        "hw-v2-web-player-tracker.biliapi.net",
        911_000_000,
        Trigger::Always,
    ),
    ("ok.ru", "vm.mycdn.me", 662_000_000, Trigger::Always),
    (
        "douyu.com",
        "wsproxy.douyu.com",
        95_000_000,
        Trigger::GeoRestricted("CN"),
    ),
    (
        "v.qq.com",
        "webrtcpunch.video.qq.com",
        92_000_000,
        Trigger::GeoRestricted("CN"),
    ),
    (
        "iqiyi.com",
        "broker-qx-ws2.iqiyi.com",
        82_000_000,
        Trigger::GeoRestricted("CN"),
    ),
    ("huya.com", "wsapi.huya.com", 61_000_000, Trigger::Always),
    (
        "youku.com",
        "ws.mmstat.com",
        60_000_000,
        Trigger::GeoRestricted("CN"),
    ),
    (
        "tudou.com",
        "ws.mmstat.com",
        44_000_000,
        Trigger::GeoRestricted("CN"),
    ),
    (
        "mgtv.com",
        "signal.api.mgtv.com",
        42_000_000,
        Trigger::Always,
    ),
    (
        "younow.com",
        "signaling.younow-prod.video.propsproject.com",
        1_000_000,
        Trigger::Always,
    ),
];

/// Per-provider plant totals from Table I:
/// (provider, potential sites, confirmed sites, potential apps, confirmed
/// apps, potential APKs, confirmed APKs).
pub const TABLE1_PLAN: &[(ProviderTag, usize, usize, usize, usize, u32, u32)] = &[
    (ProviderTag::Peer5, 60, 16, 31, 15, 548, 199),
    (ProviderTag::Streamroot, 53, 1, 6, 3, 68, 53),
    (ProviderTag::Viblast, 21, 0, 1, 0, 11, 0),
];

/// Key-extraction ground truth from §IV-B: per provider
/// (extractable keys, expired among them, valid-without-allowlist).
/// 44 extracted = 40 valid + 4 expired; valid split 36/1/3; 11 Peer5 keys
/// lack the allowlist.
const KEY_PLAN: &[(ProviderTag, usize, usize, usize)] = &[
    (ProviderTag::Peer5, 39, 3, 11),
    (ProviderTag::Streamroot, 2, 1, 0),
    (ProviderTag::Viblast, 3, 0, 0),
];

/// Generates the ecosystem.
pub fn generate(cfg: CorpusConfig, rng: &mut SimRng) -> Ecosystem {
    let mut websites = Vec::new();
    let mut apps = Vec::new();

    // ---------------- haystack ----------------
    for i in 0..cfg.website_haystack {
        websites.push(Website {
            domain: format!("site-{i}.example"),
            rank: rng.range(1..300_000u32),
            video_category: rng.chance(cfg.video_fraction),
            in_source_index: false,
            monthly_visits: None,
            plant: None,
            visibility: Visibility {
                depth: 0,
                dynamic: false,
            },
            trigger: Trigger::Always,
        });
    }
    for i in 0..cfg.app_haystack {
        apps.push(AndroidApp {
            package: format!("com.haystack.app{i}"),
            downloads: None,
            apk_versions: rng.range(1..20u32),
            manifest_keys: vec!["android.permission.INTERNET".into()],
            namespaces: vec![format!("com.haystack.app{i}")],
            plant: None,
            trigger: Trigger::Always,
            cellular_upload: false,
        });
    }

    // ---------------- public-provider websites ----------------
    for (provider, pot_sites, conf_sites, _pa, _ca, _pv, _cv) in TABLE1_PLAN {
        let (extractable, expired, no_allowlist) = key_plan(provider);
        let mut extractable_left = extractable;
        let mut expired_left = expired;
        let mut no_allowlist_left = no_allowlist;
        let confirmed_names: Vec<&str> = CONFIRMED_WEBSITES
            .iter()
            .filter(|(_, p, _)| p == provider)
            .map(|(d, _, _)| *d)
            .collect();
        debug_assert_eq!(confirmed_names.len(), *conf_sites);
        for i in 0..*pot_sites {
            let confirmed = i < *conf_sites;
            let domain = match confirmed_names.get(i) {
                Some(name) => name.to_string(),
                None => format!("{}-cust-{i}.tv", provider.to_string().to_lowercase()),
            };
            let visits = CONFIRMED_WEBSITES
                .iter()
                .find(|(d, _, _)| *d == domain)
                .and_then(|(_, _, v)| *v);
            // Keys: extractable ones first; §IV-B stats derive from these.
            let key_obfuscated = extractable_left == 0;
            let key_expired = !key_obfuscated && {
                // Spread expirations across the *unconfirmed* plants.
                let take = expired_left > 0 && !confirmed;
                if take {
                    expired_left -= 1;
                }
                take
            };
            let allowlist_enabled = if key_obfuscated || key_expired {
                true
            } else if no_allowlist_left > 0 {
                no_allowlist_left -= 1;
                false
            } else {
                true
            };
            extractable_left = extractable_left.saturating_sub(1);
            let trigger = if confirmed {
                Trigger::Always
            } else {
                match i % 3 {
                    0 => Trigger::GeoRestricted("RS"),
                    1 => Trigger::SubscriptionRequired,
                    _ => Trigger::SubpageOnly,
                }
            };
            websites.push(Website {
                domain: domain.clone(),
                rank: rng.range(100..250_000u32),
                video_category: true,
                in_source_index: i % 4 == 0,
                monthly_visits: visits,
                plant: Some(Plant::Public {
                    provider: provider.clone(),
                    // Keys are alphanumeric-with-dashes (dots would stop
                    // the regex extractor prematurely).
                    api_key: format!("key-{}", domain.replace('.', "-")),
                    key_obfuscated,
                    key_expired,
                    allowlist_enabled,
                }),
                visibility: Visibility {
                    depth: rng.range(0..3u32),
                    dynamic: false,
                },
                trigger,
            });
        }
    }

    // ---------------- private PDN + other WebRTC websites ----------------
    for (domain, server, visits, trigger) in PRIVATE_PDN_SITES {
        websites.push(Website {
            domain: domain.to_string(),
            rank: rng.range(1..5_000u32), // all are top-10K
            video_category: true,
            in_source_index: false,
            monthly_visits: Some(*visits),
            plant: Some(Plant::Private {
                server_domain: server.to_string(),
            }),
            visibility: Visibility {
                depth: 0,
                dynamic: false,
            },
            trigger: *trigger,
        });
    }
    // 2 adult TURN-relayed platforms + 3 tracking + 42 untriggerable in the
    // top-10K (57 total generic hits there), plus 328 below top-10K.
    let add_webrtc = |websites: &mut Vec<Website>,
                      n: usize,
                      usage: WebRtcUse,
                      top10k: bool,
                      rng: &mut SimRng| {
        for i in 0..n {
            websites.push(Website {
                domain: format!("webrtc-{usage:?}-{i}.example").to_lowercase(),
                rank: if top10k {
                    rng.range(1..10_000u32)
                } else {
                    rng.range(10_000..300_000u32)
                },
                video_category: true,
                in_source_index: false,
                monthly_visits: None,
                plant: Some(Plant::WebRtcOther(usage)),
                visibility: Visibility {
                    depth: 0,
                    dynamic: false,
                },
                trigger: match usage {
                    WebRtcUse::Unknown => Trigger::SubscriptionRequired,
                    _ => Trigger::Always,
                },
            });
        }
    };
    add_webrtc(&mut websites, 2, WebRtcUse::TurnRelayed, true, rng);
    add_webrtc(&mut websites, 3, WebRtcUse::Tracking, true, rng);
    add_webrtc(&mut websites, 42, WebRtcUse::Unknown, true, rng);
    add_webrtc(&mut websites, 328, WebRtcUse::Unknown, false, rng);

    // ---------------- public-provider apps ----------------
    for (provider, _ps, _cs, pot_apps, conf_apps, pot_apks, conf_apks) in TABLE1_PLAN {
        let confirmed_pkgs: Vec<(&str, Option<u64>, bool)> = CONFIRMED_APPS
            .iter()
            .filter(|(_, p, _, _)| p == provider)
            .map(|(d, _, v, c)| (*d, *v, *c))
            .collect();
        debug_assert_eq!(confirmed_pkgs.len(), *conf_apps);
        let conf_versions = spread(*conf_apks, *conf_apps);
        let unconf_versions = spread(pot_apks - conf_apks, pot_apps - conf_apps);
        for i in 0..*pot_apps {
            let confirmed = i < *conf_apps;
            let (package, downloads, cellular) = if confirmed {
                confirmed_pkgs[i]
            } else {
                // Leak the borrow by allocating the name up front.
                ("", None, false)
            };
            let package = if confirmed {
                package.to_string()
            } else {
                format!("{}.app{i}", provider.to_string().to_lowercase())
            };
            let apk_versions = if confirmed {
                conf_versions[i]
            } else {
                unconf_versions[i - conf_apps]
            };
            let (manifest_keys, namespaces) = match provider {
                ProviderTag::Peer5 => (
                    vec!["com.peer5.ApiKey".to_string()],
                    vec!["com.peer5.sdk".to_string(), package.clone()],
                ),
                ProviderTag::Streamroot => (
                    vec!["io.streamroot.dna.StreamrootKey".to_string()],
                    vec!["io.streamroot.dna".to_string(), package.clone()],
                ),
                ProviderTag::Viblast => (
                    vec![],
                    vec!["com.viblast.android".to_string(), package.clone()],
                ),
                ProviderTag::GenericWebRtc => (vec![], vec![package.clone()]),
            };
            apps.push(AndroidApp {
                package: package.clone(),
                downloads,
                apk_versions,
                manifest_keys,
                namespaces,
                plant: Some(Plant::Public {
                    provider: provider.clone(),
                    api_key: format!("key-{package}"),
                    key_obfuscated: true, // app keys need static analysis
                    key_expired: false,
                    allowlist_enabled: true,
                }),
                trigger: if confirmed {
                    Trigger::Always
                } else {
                    Trigger::SubscriptionRequired
                },
                cellular_upload: cellular,
            });
        }
    }

    rng.shuffle(&mut websites);
    rng.shuffle(&mut apps);
    Ecosystem { websites, apps }
}

fn key_plan(provider: &ProviderTag) -> (usize, usize, usize) {
    KEY_PLAN
        .iter()
        .find(|(p, ..)| p == provider)
        .map(|(_, a, b, c)| (*a, *b, *c))
        .unwrap_or((0, 0, 0))
}

/// Distributes `total` across `n` buckets as evenly as possible.
fn spread(total: u32, n: usize) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    let base = total / n as u32;
    let extra = (total % n as u32) as usize;
    (0..n)
        .map(|i| base + if i < extra { 1 } else { 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ecosystem {
        let mut rng = SimRng::seed(1);
        generate(
            CorpusConfig {
                website_haystack: 100,
                app_haystack: 100,
                video_fraction: 0.5,
            },
            &mut rng,
        )
    }

    #[test]
    fn plant_counts_match_table1_plan() {
        let eco = small();
        for (provider, pot_sites, _, pot_apps, _, pot_apks, _) in TABLE1_PLAN {
            let sites = eco
                .websites
                .iter()
                .filter(|w| matches!(&w.plant, Some(Plant::Public { provider: p, .. }) if p == provider))
                .count();
            assert_eq!(sites, *pot_sites, "{provider} sites");
            let (apps, apks) = eco
                .apps
                .iter()
                .filter(|a| matches!(&a.plant, Some(Plant::Public { provider: p, .. }) if p == provider))
                .fold((0usize, 0u32), |(n, v), a| (n + 1, v + a.apk_versions));
            assert_eq!(apps, *pot_apps, "{provider} apps");
            assert_eq!(apks, *pot_apks, "{provider} APK versions");
        }
    }

    #[test]
    fn key_plan_counts() {
        let eco = small();
        let mut extracted = 0;
        let mut expired = 0;
        let mut no_allow = 0;
        for w in &eco.websites {
            if let Some(Plant::Public {
                key_obfuscated,
                key_expired,
                allowlist_enabled,
                ..
            }) = &w.plant
            {
                if !key_obfuscated {
                    extracted += 1;
                    if *key_expired {
                        expired += 1;
                    } else if !allowlist_enabled {
                        no_allow += 1;
                    }
                }
            }
        }
        assert_eq!(extracted, 44, "44 extractable keys");
        assert_eq!(expired, 4, "4 expired keys");
        assert_eq!(no_allow, 11, "11 valid keys without allowlist");
    }

    #[test]
    fn private_sites_present_with_servers() {
        let eco = small();
        let privates: Vec<&Website> = eco
            .websites
            .iter()
            .filter(|w| matches!(w.plant, Some(Plant::Private { .. })))
            .collect();
        assert_eq!(privates.len(), 10);
        assert!(privates.iter().all(|w| w.rank < 10_000));
    }

    #[test]
    fn page_content_contains_signature_at_plant_depth() {
        let eco = small();
        let site = eco
            .websites
            .iter()
            .find(|w| {
                matches!(
                    &w.plant,
                    Some(Plant::Public {
                        provider: ProviderTag::Peer5,
                        key_obfuscated: false,
                        ..
                    })
                )
            })
            .unwrap();
        let page = site.page_content(site.visibility.depth);
        assert!(page.contains("api.peer5.com/peer5.js?id="));
        // Other depths are clean.
        let other = site.page_content(site.visibility.depth + 1);
        assert!(!other.contains("peer5.js"));
    }

    #[test]
    fn obfuscated_keys_not_in_page_text() {
        let eco = small();
        for w in &eco.websites {
            if let Some(Plant::Public {
                api_key,
                key_obfuscated: true,
                ..
            }) = &w.plant
            {
                let page = w.page_content(w.visibility.depth);
                assert!(!page.contains(api_key.as_str()), "{}", w.domain);
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let mut r1 = SimRng::seed(9);
        let mut r2 = SimRng::seed(9);
        let a = generate(CorpusConfig::default(), &mut r1);
        let b = generate(CorpusConfig::default(), &mut r2);
        assert_eq!(a.websites.len(), b.websites.len());
        assert_eq!(a.websites[0].domain, b.websites[0].domain);
        assert_eq!(a.apps[17].package, b.apps[17].package);
    }

    #[test]
    fn spread_sums() {
        assert_eq!(spread(10, 3), vec![4, 3, 3]);
        assert_eq!(spread(0, 2), vec![0, 0]);
        assert!(spread(5, 0).is_empty());
    }
}
