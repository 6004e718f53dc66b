//! Geolocation of simulated hosts and an IPinfo-like lookup service.
//!
//! The paper geolocates harvested viewer IPs through IPinfo (§IV-D) to
//! report country/city distributions, and its privacy mitigation (§V-C)
//! matches candidate peers by country or ISP. [`GeoIpService`] plays the
//! IPinfo role over the simulator's synthetic address plan: each country is
//! assigned IP blocks, and lookups recover the registration.

use std::hash::BuildHasher;
use std::net::Ipv4Addr;
use std::time::Duration;

use crate::addr::IpClass;
use crate::fxhash::{FxBuildHasher, FxHashMap};
use crate::rng::SimRng;

/// ISO-3166-ish country code (e.g. `"US"`, `"CN"`).
pub type CountryCode = &'static str;

/// Continent groups used for the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Continent {
    /// North + South America.
    America,
    /// Europe (incl. Russia west).
    Europe,
    /// Asia-Pacific.
    Asia,
    /// Everything else / unknown.
    Other,
}

/// The countries the latency model places on a continent; every other
/// code is [`Continent::Other`].
const CONTINENTS: [([u8; 2], Continent); 32] = [
    (*b"US", Continent::America),
    (*b"CA", Continent::America),
    (*b"BR", Continent::America),
    (*b"AR", Continent::America),
    (*b"MX", Continent::America),
    (*b"CL", Continent::America),
    (*b"CO", Continent::America),
    (*b"PE", Continent::America),
    (*b"GB", Continent::Europe),
    (*b"FR", Continent::Europe),
    (*b"DE", Continent::Europe),
    (*b"ES", Continent::Europe),
    (*b"PT", Continent::Europe),
    (*b"IT", Continent::Europe),
    (*b"NL", Continent::Europe),
    (*b"RU", Continent::Europe),
    (*b"PL", Continent::Europe),
    (*b"AT", Continent::Europe),
    (*b"CH", Continent::Europe),
    (*b"SE", Continent::Europe),
    (*b"CN", Continent::Asia),
    (*b"JP", Continent::Asia),
    (*b"KR", Continent::Asia),
    (*b"IN", Continent::Asia),
    (*b"BD", Continent::Asia),
    (*b"ID", Continent::Asia),
    (*b"VN", Continent::Asia),
    (*b"TH", Continent::Asia),
    (*b"MM", Continent::Asia),
    (*b"PK", Continent::Asia),
    (*b"PH", Continent::Asia),
    (*b"AU", Continent::Asia),
];

/// The row of `country` in [`CONTINENTS`].
fn continent_row(country: &str) -> Option<usize> {
    let code: [u8; 2] = country.as_bytes().try_into().ok()?;
    CONTINENTS.iter().position(|&(c, _)| c == code)
}

/// Maps a country code to its continent group.
#[cfg(test)]
fn continent_of(country: &str) -> Continent {
    continent_row(country).map_or(Continent::Other, |row| CONTINENTS[row].1)
}

/// Geographic + network registration of a host.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct GeoInfo {
    /// Country code, e.g. `"CN"`.
    pub country: String,
    /// City index within the country (synthetic; distinct values model
    /// distinct cities for the "259 cities" style statistics).
    pub city: u16,
    /// Autonomous-system-like ISP label, e.g. `"AS4134"`.
    pub isp: String,
}

impl GeoInfo {
    /// Creates a registration.
    pub fn new(country: &str, city: u16, isp: &str) -> Self {
        GeoInfo {
            country: country.to_string(),
            city,
            isp: isp.to_string(),
        }
    }
}

/// A registration's place in the latency model, interned once when the
/// registration is first seen so the per-frame rule compares integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GeoKey {
    /// Dense id of the country code (equal ids ⇔ equal codes): its row
    /// in [`CONTINENTS`], or an id past the table for other codes.
    country: u32,
    city: u16,
    continent: Continent,
}

impl GeoKey {
    /// One-way backbone latency between two registrations: same city,
    /// same country, same continent, or intercontinental.
    #[inline]
    pub(crate) fn backbone_latency(self, other: GeoKey) -> Duration {
        if self.country == other.country {
            if self.city == other.city {
                Duration::from_millis(3)
            } else {
                Duration::from_millis(12)
            }
        } else if self.continent == other.continent {
            Duration::from_millis(35)
        } else {
            Duration::from_millis(110)
        }
    }
}

/// Dense id of an interned [`GeoInfo`] in a [`GeoIpService`].
pub(crate) type RegId = u32;

/// The first /16 handed out: clearly-public space, 11.0.0.0 upward.
const FIRST_BLOCK: u16 = 11 << 8;

/// Hosts per /16: `.0.1` through `.255.254`.
const LAST_HOST: u16 = u16::MAX - 1;

#[derive(Debug)]
struct Registration {
    geo: GeoInfo,
    key: GeoKey,
    /// The registration's one open block and the next host number in it.
    open: Option<(u16, u16)>,
    /// The next older registration whose `GeoInfo` has the same hash.
    same_hash: Option<RegId>,
}

/// A synthetic regional internet registry: allocates public IPv4 space per
/// registration and answers reverse lookups, like IPinfo in the paper.
///
/// Each distinct [`GeoInfo`] is interned once. A registration owns at most
/// one open /16 at a time and fills it sequentially before taking the next
/// fresh /16, and blocks are handed out in address order, so allocation
/// and lookup are O(1) and the address plan depends only on the sequence
/// of requests.
#[derive(Debug)]
pub struct GeoIpService {
    regs: Vec<Registration>,
    /// Hash of a `GeoInfo` → the newest registration with that hash. The
    /// `GeoInfo` itself is stored once, in `regs`.
    by_hash: FxHashMap<u64, RegId>,
    /// Ids of country codes outside [`CONTINENTS`], for [`GeoKey`].
    other_countries: FxHashMap<String, u32>,
    /// Owner of the /16 `FIRST_BLOCK + i`, for every block handed out or
    /// skipped so far (skipped bogon blocks have no owner).
    owners: Vec<Option<RegId>>,
}

impl Default for GeoIpService {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoIpService {
    /// Creates an empty registry.
    pub fn new() -> Self {
        GeoIpService {
            regs: Vec::new(),
            by_hash: FxHashMap::default(),
            other_countries: FxHashMap::default(),
            owners: Vec::new(),
        }
    }

    /// Allocates a fresh public IP registered to `geo`.
    ///
    /// Addresses with the same registration share a /16 until it is full,
    /// which keeps the synthetic address plan realistic for
    /// /16-granularity geolocation.
    pub fn allocate(&mut self, geo: &GeoInfo) -> Ipv4Addr {
        let hash = FxBuildHasher::default().hash_one(geo);
        let reg = self
            .find(geo, hash)
            .unwrap_or_else(|| self.intern(geo.clone(), hash));
        self.allocate_in(reg)
    }

    /// The registration of `geo`, whose hash is `hash`, if interned.
    fn find(&self, geo: &GeoInfo, hash: u64) -> Option<RegId> {
        let mut next = self.by_hash.get(&hash).copied();
        while let Some(id) = next {
            let reg = &self.regs[id as usize];
            if reg.geo == *geo {
                return Some(id);
            }
            next = reg.same_hash;
        }
        None
    }

    /// Interns `geo`, returning its registration id. Registering allocates
    /// no address space.
    pub(crate) fn register(&mut self, geo: GeoInfo) -> RegId {
        let hash = FxBuildHasher::default().hash_one(&geo);
        self.find(&geo, hash)
            .unwrap_or_else(|| self.intern(geo, hash))
    }

    /// Adds `geo`, which `find` did not know, under `hash`.
    fn intern(&mut self, geo: GeoInfo, hash: u64) -> RegId {
        let id = self.regs.len() as RegId;
        let (country, continent) = match continent_row(&geo.country) {
            Some(row) => (row as u32, CONTINENTS[row].1),
            None => {
                let next = (CONTINENTS.len() + self.other_countries.len()) as u32;
                let country = *self
                    .other_countries
                    .entry(geo.country.clone())
                    .or_insert(next);
                (country, Continent::Other)
            }
        };
        let key = GeoKey {
            country,
            city: geo.city,
            continent,
        };
        let same_hash = self.by_hash.insert(hash, id);
        self.regs.push(Registration {
            geo,
            key,
            open: None,
            same_hash,
        });
        id
    }

    /// Allocates the next address of registration `reg`.
    pub(crate) fn allocate_in(&mut self, reg: RegId) -> Ipv4Addr {
        let (prefix, host) = match self.regs[reg as usize].open {
            Some(block) => block,
            None => (self.fresh_prefix(reg), 1),
        };
        self.regs[reg as usize].open = (host < LAST_HOST).then_some((prefix, host + 1));
        let [a, b] = prefix.to_be_bytes();
        let [c, d] = host.to_be_bytes();
        let ip = Ipv4Addr::new(a, b, c, d);
        debug_assert_eq!(IpClass::of(ip), IpClass::Public, "allocated bogon {ip}");
        ip
    }

    /// The registration `reg` was interned from.
    pub(crate) fn registration(&self, reg: RegId) -> &GeoInfo {
        &self.regs[reg as usize].geo
    }

    /// The latency-model key of registration `reg`.
    pub(crate) fn key(&self, reg: RegId) -> GeoKey {
        self.regs[reg as usize].key
    }

    fn fresh_prefix(&mut self, reg: RegId) -> u16 {
        loop {
            assert!(
                self.owners.len() <= usize::from(u16::MAX),
                "public IPv4 space exhausted"
            );
            let p = FIRST_BLOCK.wrapping_add(self.owners.len() as u16);
            let [a, b] = p.to_be_bytes();
            let public = IpClass::of(Ipv4Addr::new(a, b, 0, 1)) == IpClass::Public;
            self.owners.push(public.then_some(reg));
            if public {
                return p;
            }
        }
    }

    /// Looks up the registration of `ip` (the IPinfo query of §IV-D).
    ///
    /// Returns `None` for bogons and for public space this registry never
    /// allocated.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&GeoInfo> {
        if IpClass::of(ip).is_bogon() {
            return None;
        }
        let [a, b, _, _] = ip.octets();
        let offset = u16::from_be_bytes([a, b]).wrapping_sub(FIRST_BLOCK);
        let reg = (*self.owners.get(usize::from(offset))?)?;
        Some(self.registration(reg))
    }

    /// Number of distinct allocated blocks.
    #[cfg(test)]
    fn block_count(&self) -> usize {
        self.owners.iter().flatten().count()
    }
}

/// A weighted country mix for generating viewer populations.
///
/// # Examples
///
/// ```
/// use pdn_simnet::{CountryMix, SimRng};
///
/// // RT News-style audience (§IV-D): US 35%, GB 17%, CA 13%, the rest spread.
/// let mix = CountryMix::new(vec![("US", 0.35), ("GB", 0.17), ("CA", 0.13), ("DE", 0.35)]);
/// let mut rng = SimRng::seed(1);
/// let c = mix.sample(&mut rng);
/// assert!(["US", "GB", "CA", "DE"].contains(&c));
/// ```
#[derive(Debug, Clone)]
pub struct CountryMix {
    entries: Vec<(CountryCode, f64)>,
}

impl CountryMix {
    /// Creates a mix from `(country, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are non-positive.
    pub fn new(entries: Vec<(CountryCode, f64)>) -> Self {
        assert!(
            entries.iter().any(|(_, w)| *w > 0.0),
            "country mix must have at least one positive weight"
        );
        CountryMix { entries }
    }

    /// Samples a country.
    pub fn sample(&self, rng: &mut SimRng) -> CountryCode {
        let weights: Vec<f64> = self.entries.iter().map(|(_, w)| *w).collect();
        let idx = rng
            .choose_weighted(&weights)
            .expect("mix validated non-empty");
        self.entries[idx].0
    }

    /// The countries in this mix.
    pub fn countries(&self) -> impl Iterator<Item = CountryCode> + '_ {
        self.entries.iter().map(|(c, _)| *c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_lookup() {
        let mut svc = GeoIpService::new();
        let geo = GeoInfo::new("CN", 1, "AS4134");
        let ip = svc.allocate(&geo);
        assert_eq!(svc.lookup(ip), Some(&geo));
    }

    #[test]
    fn same_registration_shares_block() {
        let mut svc = GeoIpService::new();
        let geo = GeoInfo::new("US", 3, "AS7922");
        let a = svc.allocate(&geo);
        let b = svc.allocate(&geo);
        assert_eq!(a.octets()[..2], b.octets()[..2]);
        assert_ne!(a, b);
    }

    #[test]
    fn different_registrations_get_different_blocks() {
        let mut svc = GeoIpService::new();
        let a = svc.allocate(&GeoInfo::new("US", 1, "AS1"));
        let b = svc.allocate(&GeoInfo::new("CN", 1, "AS2"));
        assert_ne!(a.octets()[..2], b.octets()[..2]);
        assert_eq!(svc.block_count(), 2);
    }

    #[test]
    fn bogons_do_not_resolve() {
        let svc = GeoIpService::new();
        assert!(svc.lookup(Ipv4Addr::new(192, 168, 1, 1)).is_none());
        assert!(svc.lookup(Ipv4Addr::new(100, 64, 0, 1)).is_none());
    }

    #[test]
    fn unallocated_public_space_does_not_resolve() {
        let svc = GeoIpService::new();
        assert!(svc.lookup(Ipv4Addr::new(93, 184, 216, 34)).is_none());
    }

    #[test]
    fn country_mix_distribution_roughly_matches() {
        let mix = CountryMix::new(vec![("CN", 0.98), ("US", 0.02)]);
        let mut rng = SimRng::seed(5);
        let n = 10_000;
        let cn = (0..n).filter(|_| mix.sample(&mut rng) == "CN").count();
        let frac = cn as f64 / n as f64;
        assert!(frac > 0.96 && frac < 1.0, "CN fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_mix_panics() {
        CountryMix::new(vec![]);
    }

    #[test]
    fn colliding_hashes_keep_registrations_apart() {
        let mut svc = GeoIpService::new();
        let geos: Vec<GeoInfo> = ["US", "CN", "DE"]
            .iter()
            .map(|c| GeoInfo::new(c, 1, "AS1"))
            .collect();
        let ids: Vec<RegId> = geos.iter().map(|g| svc.intern(g.clone(), 7)).collect();
        assert_eq!(ids, [0, 1, 2]);
        for (g, &id) in geos.iter().zip(&ids) {
            assert_eq!(svc.find(g, 7), Some(id));
            assert_eq!(svc.registration(id), g);
        }
        assert_eq!(svc.find(&GeoInfo::new("GB", 1, "AS1"), 7), None);
    }

    #[test]
    fn full_block_rolls_into_a_fresh_block() {
        let mut svc = GeoIpService::new();
        let geo = GeoInfo::new("US", 1, "AS7922");
        let first = svc.allocate(&geo);
        let mut last = first;
        for _ in 1..usize::from(LAST_HOST) {
            last = svc.allocate(&geo);
        }
        // 65,534 hosts (.0.1 through .255.254) fill the first /16.
        assert_eq!(first.octets()[2..], [0, 1]);
        assert_eq!(last.octets()[..2], first.octets()[..2]);
        assert_eq!(last.octets()[2..], [255, 254]);
        assert_eq!(svc.block_count(), 1);
        let rolled = svc.allocate(&geo);
        assert_ne!(rolled.octets()[..2], first.octets()[..2]);
        assert_eq!(rolled.octets()[2..], [0, 1]);
        assert_eq!(svc.block_count(), 2);
        assert_eq!(svc.lookup(first), Some(&geo));
        assert_eq!(svc.lookup(last), Some(&geo));
        assert_eq!(svc.lookup(rolled), Some(&geo));
    }

    #[test]
    fn same_request_sequence_gives_same_address_plan() {
        let regs: Vec<GeoInfo> = (0..12u16)
            .map(|i| GeoInfo::new(["US", "CN", "DE", "BR"][usize::from(i % 4)], i / 4, "AS1"))
            .collect();
        let mut rng = SimRng::seed(11);
        // Registration 0 takes most requests, so it fills a block and
        // rolls over while the others still hold their first one.
        let seq: Vec<usize> = (0..90_000)
            .map(|_| {
                if rng.chance(0.8) {
                    0
                } else {
                    rng.range(1..regs.len() as u64) as usize
                }
            })
            .collect();
        let plan = |seq: &[usize]| {
            let mut svc = GeoIpService::new();
            seq.iter()
                .map(|&r| (r, svc.allocate(&regs[r])))
                .collect::<Vec<_>>()
        };
        let a = plan(&seq);
        assert_eq!(a, plan(&seq));
        // Each registration fills one open block at a time, in order: its
        // next address is the next host of the same /16, or host 1 of a
        // /16 above every block handed out before it.
        let mut last: Vec<Option<u32>> = vec![None; regs.len()];
        let mut highest_block = 0u32;
        for &(r, ip) in &a {
            let ip = u32::from(ip);
            match last[r] {
                Some(prev) if prev & 0xffff < u32::from(LAST_HOST) => assert_eq!(ip, prev + 1),
                _ => {
                    assert_eq!(ip & 0xffff, 1, "{}", Ipv4Addr::from(ip));
                    assert!(ip >> 16 > highest_block);
                    highest_block = ip >> 16;
                }
            }
            last[r] = Some(ip);
        }
        assert!(
            a.iter().filter(|&&(r, _)| r == 0).count() > usize::from(LAST_HOST),
            "registration 0 must roll over"
        );
    }

    /// The pre-interning rule: compares country strings and runs
    /// `continent_of` on both sides.
    fn string_rule(a: &GeoInfo, b: &GeoInfo) -> Duration {
        if a.country == b.country {
            if a.city == b.city {
                Duration::from_millis(3)
            } else {
                Duration::from_millis(12)
            }
        } else if continent_of(&a.country) == continent_of(&b.country) {
            Duration::from_millis(35)
        } else {
            Duration::from_millis(110)
        }
    }

    #[test]
    fn interned_backbone_latency_matches_string_rule() {
        let codes: Vec<&str> = CONTINENTS
            .iter()
            .map(|(code, _)| std::str::from_utf8(code).expect("ASCII code"))
            .chain(["ZZ", "XX"])
            .collect();
        let mut svc = GeoIpService::new();
        for &a in &codes {
            for &b in &codes {
                for city_b in [1, 2] {
                    let ga = GeoInfo::new(a, 1, "AS1");
                    let gb = GeoInfo::new(b, city_b, "AS2");
                    let (ka, kb) = (svc.register(ga.clone()), svc.register(gb.clone()));
                    assert_eq!(
                        svc.key(ka).backbone_latency(svc.key(kb)),
                        string_rule(&ga, &gb),
                        "{a}/1 -> {b}/{city_b}"
                    );
                }
            }
        }
        assert_eq!(svc.block_count(), 0, "registering allocates no space");
    }

    #[test]
    fn continents() {
        assert_eq!(continent_of("US"), Continent::America);
        assert_eq!(continent_of("CN"), Continent::Asia);
        assert_eq!(continent_of("GB"), Continent::Europe);
        assert_eq!(continent_of("ZZ"), Continent::Other);
    }
}
