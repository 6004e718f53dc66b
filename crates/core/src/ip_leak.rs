//! Peer IP leakage (§IV-D) and the §V-C matching mitigations.
//!
//! Two granularities:
//!
//! - [`ip_leak_basic`] — the paper's controlled two-peer test: start two
//!   remote peers on the test website and check whether each learns the
//!   other's real IP from the ICE exchange (Table V row "IP leak").
//! - [`run_wild`] — the *in-the-wild* harvest: a controlled peer sits in a
//!   live channel for a week while viewers churn through, and every
//!   candidate address it is handed is recorded. Reproduces the 7,740-IP
//!   harvest with its public/bogon breakdown and country mix, and the
//!   §V-C reduction under same-country / same-ISP matching.
//!
//! The wild experiment drives the real [`SignalingServer`] with a synthetic
//! viewer population — full data-plane simulation of thousands of peers is
//! unnecessary because the leak happens entirely in signaling.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::net::Ipv4Addr;

use bytes::Bytes;
use pdn_provider::world::{PdnWorld, ViewerSpec};
use pdn_provider::{
    AgentConfig, CustomerAccount, MatchingPolicy, ProviderProfile, SignalMsg, SignalingServer,
};
use pdn_simnet::{Addr, CountryMix, GeoInfo, GeoIpService, IpClass, SimRng, SimTime};
use pdn_webrtc::{Candidate, CandidateKind, SessionDescription};

use crate::WorldPool;

/// The basic two-peer leak test: do peers learn each other's IPs?
pub fn ip_leak_basic(profile: &ProviderProfile, seed: u64) -> bool {
    let mut world = PdnWorld::new(profile.clone(), seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new("c", "k", []));
    world.publish_video(pdn_media::VideoSource::vod(
        "v",
        vec![500_000],
        std::time::Duration::from_secs(4),
        10,
    ));
    let mut cfg = AgentConfig::new("v", "k", "site.tv");
    cfg.vod_end = Some(10);
    let us = world.spawn_viewer(ViewerSpec {
        geo: GeoInfo::new("US", 1, "AS7922"),
        nat: None,
        link: pdn_simnet::LinkSpec::residential(),
        config: cfg.clone(),
    });
    world.run_until(SimTime::from_secs(5));
    let cn = world.spawn_viewer(ViewerSpec {
        geo: GeoInfo::new("CN", 1, "AS4134"),
        nat: None,
        link: pdn_simnet::LinkSpec::residential(),
        config: cfg,
    });
    world.run_until(SimTime::from_secs(60));
    let cn_ip = world.net().public_ip(cn);
    let us_ip = world.net().public_ip(us);
    let us_sees_cn = world
        .agent(us)
        .harvested_addrs()
        .iter()
        .any(|a| a.ip == cn_ip);
    let cn_sees_us = world
        .agent(cn)
        .harvested_addrs()
        .iter()
        .any(|a| a.ip == us_ip);
    us_sees_cn && cn_sees_us
}

/// A viewer population for the wild harvest.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Label, e.g. `"Huya TV"`.
    pub name: &'static str,
    /// Country mix of the audience.
    pub mix: CountryMix,
    /// Distinct city labels per country.
    pub cities_per_country: u16,
    /// Mean viewer arrivals per hour.
    pub arrivals_per_hour: f64,
    /// Mean session length in seconds.
    pub mean_session_secs: f64,
}

/// The Huya TV live-channel audience (§IV-D: 98% CN, 7,055 uniques/week).
pub fn huya_population() -> PopulationSpec {
    PopulationSpec {
        name: "Huya TV",
        mix: CountryMix::new(vec![
            ("CN", 0.98),
            ("JP", 0.008),
            ("KR", 0.006),
            ("VN", 0.006),
        ]),
        cities_per_country: 80,
        arrivals_per_hour: 52.0,
        mean_session_secs: 300.0,
    }
}

/// The RT News live-channel audience (§IV-D: 259 cities in 56 countries,
/// US 35% / GB 17% / CA 13%, 685 uniques/week).
pub fn rt_news_population() -> PopulationSpec {
    let mut mix = vec![("US", 0.35), ("GB", 0.17), ("CA", 0.13)];
    // 53 further countries sharing the remaining 35%.
    const REST: &[&str] = &[
        "DE", "FR", "ES", "PT", "IT", "NL", "RU", "PL", "AT", "CH", "SE", "BR", "AR", "MX", "CL",
        "CO", "PE", "IN", "BD", "ID", "TH", "MM", "PK", "PH", "AU", "JP", "KR", "VN", "ZA", "EG",
        "NG", "KE", "TR", "GR", "RO", "BG", "HU", "CZ", "SK", "FI", "NO", "DK", "IE", "BE", "UA",
        "RS", "HR", "LT", "LV", "EE", "IS", "NZ", "MY",
    ];
    for c in REST {
        mix.push((c, 0.35 / REST.len() as f64));
    }
    PopulationSpec {
        name: "RT News",
        mix: CountryMix::new(mix),
        cities_per_country: 5,
        arrivals_per_hour: 5.0,
        mean_session_secs: 420.0,
    }
}

/// Result of a wild harvest run.
#[derive(Debug, Clone)]
pub struct IpLeakWildResult {
    /// Population label.
    pub name: &'static str,
    /// Total viewer arrivals during the run.
    pub arrivals: usize,
    /// Unique IPs collected by the controlled peer.
    pub unique_ips: usize,
    /// Public among them.
    pub public_ips: usize,
    /// Bogons (non-public).
    pub bogons: usize,
    /// Bogons in RFC 1918 space.
    pub bogon_private: usize,
    /// Bogons in CGNAT space (RFC 6598).
    pub bogon_cgnat: usize,
    /// Reserved-range bogons.
    pub bogon_reserved: usize,
    /// Public IP count per country.
    pub countries: BTreeMap<String, usize>,
    /// Distinct (country, city) pairs observed.
    pub cities: usize,
}

impl IpLeakWildResult {
    /// Share of public IPs in the most common country.
    pub fn top_country_share(&self) -> f64 {
        if self.public_ips == 0 {
            return 0.0;
        }
        let top = self.countries.values().copied().max().unwrap_or(0);
        top as f64 / self.public_ips as f64
    }
}

#[derive(PartialEq)]
struct Departure(u64, Addr);

impl Eq for Departure {}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0) // min-heap on time
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs the wild harvest: a controlled peer (in `observer_country`) sits in
/// the channel for `days` while the population churns.
pub fn run_wild(
    spec: &PopulationSpec,
    matching: MatchingPolicy,
    observer_country: &str,
    days: f64,
    seed: u64,
) -> IpLeakWildResult {
    let mut rng = SimRng::seed(seed);
    let mut geoip = GeoIpService::new();
    let mut server = SignalingServer::new(ProviderProfile::private_mango_tv(), seed);
    server.set_matching(matching);
    // Live-channel trackers introduce generously (the paper observed >10
    // concurrent connections to a single controlled peer, §IV-C).
    server.set_max_neighbors(8);

    // The controlled peer.
    let observer_geo = GeoInfo::new(observer_country, 0, "AS-observer");
    let observer_ip = geoip.allocate(&observer_geo);
    let observer = Addr::from_ip(observer_ip, 40_000);
    let token = server.mint_temp_token(None);
    let join = |token: String, sdp: SessionDescription| SignalMsg::Join {
        api_key: None,
        token: Some(token),
        origin: "platform".into(),
        video: "live-channel".into(),
        manifest_hash: "live".into(),
        sdp,
    };
    // Each join is encoded once and admitted as a frame; one reply buffer
    // is reused across the whole churn loop.
    let mut replies: Vec<(Addr, Bytes)> = Vec::new();
    server.handle_frame_into(
        observer,
        &join(token, synth_sdp(observer, None, &mut rng)).encode(),
        SimTime::ZERO,
        &geoip,
        &mut replies,
    );

    // Churn loop.
    let total_secs = (days * 86_400.0) as u64;
    let mut harvested: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let harvest_sdp = |sdp: &SessionDescription, harvested: &mut BTreeSet<Ipv4Addr>| {
        for a in sdp.candidate_addrs() {
            harvested.insert(a.ip);
        }
    };
    let mut departures: BinaryHeap<Departure> = BinaryHeap::new();
    let mut t = 0f64;
    let mut arrivals = 0usize;
    while (t as u64) < total_secs {
        t += rng.exp(3600.0 / spec.arrivals_per_hour);
        let now_secs = t as u64;
        // Process departures due before this arrival.
        while let Some(Departure(dt, _)) = departures.peek() {
            if *dt > now_secs {
                break;
            }
            let Departure(dt, addr) = departures.pop().expect("peeked");
            server.remove_peer_by_addr(addr, SimTime::from_secs(dt));
        }
        if now_secs >= total_secs {
            break;
        }
        arrivals += 1;

        // Sample the viewer.
        let country = spec.mix.sample(&mut rng);
        let city = rng.range(0..spec.cities_per_country);
        let geo = GeoInfo::new(country, city, &format!("AS-{country}-{}", city % 8));
        let public_ip = geoip.allocate(&geo);
        let wire = Addr::from_ip(public_ip, 41_000);
        let host_ip = sample_host_candidate(&mut rng);
        let token = server.mint_temp_token(None);
        let sdp = synth_sdp(wire, Some(host_ip), &mut rng);
        replies.clear();
        server.handle_frame_into(
            wire,
            &join(token, sdp).encode(),
            SimTime::from_secs(now_secs),
            &geoip,
            &mut replies,
        );
        // Whatever reaches the observer is harvested; only those frames
        // are decoded.
        for (to, frame) in &replies {
            if *to != observer {
                continue;
            }
            if let Some(SignalMsg::PeerJoined { sdp, .. }) = SignalMsg::decode(frame) {
                harvest_sdp(&sdp, &mut harvested);
            }
        }
        // And whatever the newcomer was told about the observer leaks the
        // observer's own IP symmetrically (not counted — the paper counts
        // what *its* peer collected).
        let session = rng.exp(spec.mean_session_secs) as u64 + 30;
        departures.push(Departure(now_secs + session, wire));
    }

    // Classify.
    let mut result = IpLeakWildResult {
        name: spec.name,
        arrivals,
        unique_ips: harvested.len(),
        public_ips: 0,
        bogons: 0,
        bogon_private: 0,
        bogon_cgnat: 0,
        bogon_reserved: 0,
        countries: BTreeMap::new(),
        cities: 0,
    };
    let mut cities = BTreeSet::new();
    for ip in &harvested {
        match IpClass::of(*ip) {
            IpClass::Public => {
                result.public_ips += 1;
                if let Some(geo) = geoip.lookup(*ip) {
                    *result.countries.entry(geo.country.clone()).or_insert(0) += 1;
                    cities.insert((geo.country.clone(), geo.city));
                }
            }
            IpClass::Private => {
                result.bogons += 1;
                result.bogon_private += 1;
            }
            IpClass::CgNat => {
                result.bogons += 1;
                result.bogon_cgnat += 1;
            }
            IpClass::Reserved => {
                result.bogons += 1;
                result.bogon_reserved += 1;
            }
        }
    }
    result.cities = cities.len();
    result
}

/// One wild-harvest trial: a population observed under a matching policy.
///
/// Trials are independent simulated worlds, so a batch of them is the
/// natural unit for [`run_wild_trials`] to fan out across a
/// [`WorldPool`].
#[derive(Debug, Clone)]
pub struct WildTrial {
    /// Viewer population to churn through the channel.
    pub spec: PopulationSpec,
    /// Peer-matching policy the signaling server enforces.
    pub matching: MatchingPolicy,
    /// Country the controlled observer peer sits in.
    pub observer_country: String,
    /// Harvest duration in days.
    pub days: f64,
    /// World seed.
    pub seed: u64,
}

/// Runs a batch of wild-harvest trials across a [`WorldPool`].
///
/// Results come back in trial order and are byte-identical to calling
/// [`run_wild`] serially on each trial, at any worker count — each trial's
/// randomness is fully determined by its own `seed`.
pub fn run_wild_trials(trials: &[WildTrial], pool: &WorldPool) -> Vec<IpLeakWildResult> {
    pool.run(trials.len(), |i| {
        let t = &trials[i];
        run_wild(&t.spec, t.matching, &t.observer_country, t.days, t.seed)
    })
}

/// Builds a viewer session description: srflx (public) candidate plus,
/// usually, the private host candidate that becomes a bogon in the harvest.
fn synth_sdp(wire: Addr, host_ip: Option<Ipv4Addr>, rng: &mut SimRng) -> SessionDescription {
    let mut rng2 = rng.fork(u32::from(wire.ip) as u64);
    let cert = pdn_webrtc::Certificate::generate(&mut rng2);
    let mut candidates = vec![Candidate::new(CandidateKind::ServerReflexive, wire)];
    if let Some(host) = host_ip {
        candidates.insert(
            0,
            Candidate::new(CandidateKind::Host, Addr::from_ip(host, 4000)),
        );
    }
    SessionDescription {
        ice_ufrag: format!("u{:x}", rng.next_u64()),
        ice_pwd: format!("p{:x}", rng.next_u64()),
        fingerprint: cert.fingerprint(),
        candidates,
    }
}

/// Samples a host-candidate IP from realistic home address pools. RFC 1918
/// space is heavily reused across households, which is why the paper's
/// 581 bogons collapse to ~543 distinct private addresses; a small
/// fraction of hosts sit directly on CGNAT or produce reserved-range
/// errors during traversal.
fn sample_host_candidate(rng: &mut SimRng) -> Ipv4Addr {
    let roll = rng.f64();
    if roll < 0.004 {
        // CGNAT-numbered host interface.
        Ipv4Addr::new(100, 64, 0, rng.range(1..40u16) as u8)
    } else if roll < 0.0045 {
        // NAT-traversal error artifacts.
        const RESERVED: [Ipv4Addr; 5] = [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(169, 254, 1, 1),
            Ipv4Addr::new(224, 0, 0, 1),
            Ipv4Addr::new(240, 0, 0, 1),
            Ipv4Addr::new(255, 255, 255, 255),
        ];
        *rng.choose(&RESERVED).expect("non-empty")
    } else {
        // Common home subnets: a few hundred distinct addresses total.
        match rng.range(0..3u8) {
            0 => Ipv4Addr::new(192, 168, 0, rng.range(2..250u16) as u8),
            1 => Ipv4Addr::new(192, 168, 1, rng.range(2..250u16) as u8),
            _ => Ipv4Addr::new(10, 0, 0, rng.range(2..120u16) as u8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_leak_on_all_measured_profiles() {
        for p in [
            ProviderProfile::peer5(),
            ProviderProfile::streamroot(),
            ProviderProfile::viblast(),
            ProviderProfile::private_mango_tv(),
        ] {
            // Private profiles need token auth the world handles via keys;
            // only run the public ones end-to-end here.
            if p.kind == pdn_provider::ProviderKind::Private {
                continue;
            }
            assert!(ip_leak_basic(&p, 77), "{} leaks peer IPs", p.name);
        }
    }

    #[test]
    fn huya_week_harvest_shape() {
        let r = run_wild(&huya_population(), MatchingPolicy::Global, "US", 7.0, 1);
        assert!(r.arrivals > 5_000, "arrivals {}", r.arrivals);
        assert!(
            r.unique_ips > 4_000,
            "harvest should reach thousands, got {}",
            r.unique_ips
        );
        assert!(
            r.top_country_share() > 0.95,
            "~98% CN, got {:.3}",
            r.top_country_share()
        );
        // Bogon share in the single-digit percent range (581/7740 ≈ 7.5%).
        let share = r.bogons as f64 / r.unique_ips as f64;
        assert!(share > 0.02 && share < 0.15, "bogon share {share:.3}");
        assert!(r.bogon_private > r.bogon_cgnat);
        assert!(r.bogon_cgnat > r.bogon_reserved);
    }

    #[test]
    fn rt_news_week_harvest_shape() {
        let r = run_wild(&rt_news_population(), MatchingPolicy::Global, "US", 7.0, 2);
        assert!(
            r.unique_ips > 300 && r.unique_ips < 2_000,
            "{}",
            r.unique_ips
        );
        assert!(
            r.countries.len() > 30,
            "many countries: {}",
            r.countries.len()
        );
        assert!(r.cities > 100, "many cities: {}", r.cities);
        // US is the top country at roughly a third.
        let us = *r.countries.get("US").unwrap_or(&0) as f64 / r.public_ips as f64;
        assert!(us > 0.25 && us < 0.45, "US share {us:.3}");
    }

    #[test]
    fn same_country_matching_cuts_the_leak() {
        let baseline = run_wild(&rt_news_population(), MatchingPolicy::Global, "US", 2.0, 3);
        let mitigated = run_wild(
            &rt_news_population(),
            MatchingPolicy::SameCountry,
            "US",
            2.0,
            3,
        );
        assert!(
            (mitigated.unique_ips as f64) < baseline.unique_ips as f64 * 0.6,
            "mitigated {} vs baseline {}",
            mitigated.unique_ips,
            baseline.unique_ips
        );
        // Only same-country peers remain visible.
        assert!(mitigated.countries.keys().all(|c| c == "US"));
    }

    /// Pins the harvest itself, not only its shape: the exact counts a
    /// short run yields at the bench seed (`pdn_bench::SEED`) for both
    /// audiences, under open and same-country matching. Any change to how
    /// joins reach the tracker or how introductions reach the observer
    /// moves at least one of these.
    #[test]
    fn short_harvest_counts_are_pinned_at_the_bench_seed() {
        const SEED: u64 = 20_240_624;
        // (arrivals, unique, public, bogons, private, cgnat, reserved,
        // countries, cities)
        let pin = |r: &IpLeakWildResult| {
            (
                r.arrivals,
                r.unique_ips,
                r.public_ips,
                r.bogons,
                r.bogon_private,
                r.bogon_cgnat,
                r.bogon_reserved,
                r.countries.len(),
                r.cities,
            )
        };
        let huya = run_wild(&huya_population(), MatchingPolicy::Global, "US", 1.0, SEED);
        assert_eq!(
            pin(&huya),
            (1236, 1665, 1161, 504, 497, 7, 0, 4, 99),
            "Huya TV"
        );
        let rt = run_wild(
            &rt_news_population(),
            MatchingPolicy::Global,
            "US",
            3.0,
            SEED,
        );
        assert_eq!(
            pin(&rt),
            (349, 610, 349, 261, 255, 6, 0, 51, 111),
            "RT News"
        );
        let rt_us = run_wild(
            &rt_news_population(),
            MatchingPolicy::SameCountry,
            "US",
            3.0,
            SEED,
        );
        assert_eq!(
            pin(&rt_us),
            (349, 247, 129, 118, 116, 2, 0, 1, 5),
            "RT News, same country"
        );
    }

    #[test]
    fn huya_with_same_country_matching_hides_everyone_from_us_observer() {
        let r = run_wild(
            &huya_population(),
            MatchingPolicy::SameCountry,
            "US",
            1.0,
            4,
        );
        assert_eq!(
            r.public_ips, 0,
            "a US observer sees no CN viewers under same-country matching"
        );
    }
}
