//! The pre-refactor swarm-state structures.
//!
//! [`BaselineSignalingServer`] is the generic-collection implementation of
//! the signaling server that the swarm-state engine replaced: swarms in a
//! `HashMap` keyed by `(video: String, manifest_hash: String)`, peers in a
//! `HashMap` probed by linear scan on address, IM reports in nested
//! `HashMap`s, and the `remove_from_swarms` full-table scan. It is
//! wire-compatible with `pdn_provider::SignalingServer`: the
//! `state_differential` tests drive both with the same message sequence
//! and assert byte-identical reply streams.
//!
//! [`BaselineAvail`] is the old per-agent `have_map` (`HashMap<peer,
//! HashSet<(rendition, seq)>>`) with the "collect + sort because map order
//! is random" holder selection the scheduler used.

use std::collections::{HashMap, HashSet};

use pdn_crypto::hmac::{hmac_sha256_keyed, HmacKey};
use pdn_media::{OriginServer, SegmentId, VideoId};
use pdn_simnet::{Addr, GeoIpService, SimRng, SimTime};

use pdn_provider::auth::{AccountRegistry, AuthError, TokenValidator};
use pdn_provider::billing::UsageMeter;
use pdn_provider::profiles::{AuthScheme, ProviderProfile};
use pdn_provider::proto::SignalMsg;
use pdn_provider::signaling::{compute_im, DefenseStats, MatchingPolicy};

#[derive(Debug, Clone)]
struct Member {
    peer_id: u64,
    addr: Addr,
    sdp: pdn_webrtc::SessionDescription,
    country: Option<String>,
    isp: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SwarmKey {
    video: String,
    manifest_hash: String,
}

#[derive(Debug)]
struct PeerInfo {
    addr: Addr,
    customer_id: String,
    last_seen: SimTime,
}

#[derive(Debug, Default)]
struct ImEntry {
    /// im -> reporting peer IDs
    reports: HashMap<[u8; 32], Vec<u64>>,
    sim: Option<([u8; 32], [u8; 32])>,
}

/// The old generic-collection signaling server. See the [module docs](self).
pub struct BaselineSignalingServer {
    profile: ProviderProfile,
    accounts: AccountRegistry,
    token_validator: Option<TokenValidator>,
    temp_tokens: HashMap<String, Option<VideoId>>,
    matching: MatchingPolicy,
    max_neighbors: usize,
    swarms: HashMap<SwarmKey, Vec<Member>>,
    peers: HashMap<u64, PeerInfo>,
    meters: HashMap<String, UsageMeter>,
    next_peer_id: u64,
    im_reporters: usize,
    im_state: HashMap<(String, u8, u64), ImEntry>,
    blacklist: HashSet<u64>,
    blacklist_addrs: HashSet<Addr>,
    sim_hmac: HmacKey,
    origin: Option<OriginServer>,
    defense_stats: DefenseStats,
    rng: SimRng,
}

impl BaselineSignalingServer {
    /// Creates a baseline server for `profile` (same seeding as the real
    /// server, so the two mint identical temp tokens).
    pub fn new(profile: ProviderProfile, seed: u64) -> Self {
        let token_validator = matches!(profile.auth, AuthScheme::DisposableJwt)
            .then(|| TokenValidator::new(b"pdn-provider-jwt-key".to_vec()));
        BaselineSignalingServer {
            profile,
            accounts: AccountRegistry::new(),
            token_validator,
            temp_tokens: HashMap::new(),
            matching: MatchingPolicy::Global,
            max_neighbors: 4,
            swarms: HashMap::new(),
            peers: HashMap::new(),
            meters: HashMap::new(),
            next_peer_id: 1,
            im_reporters: 3,
            im_state: HashMap::new(),
            blacklist: HashSet::new(),
            blacklist_addrs: HashSet::new(),
            sim_hmac: HmacKey::new(b"pdn-server-sim-key"),
            origin: None,
            defense_stats: DefenseStats::default(),
            rng: SimRng::seed(seed ^ 0x51_6e_a1),
        }
    }

    /// Customer account registry.
    pub fn accounts_mut(&mut self) -> &mut AccountRegistry {
        &mut self.accounts
    }

    /// Sets the neighbor matching policy.
    pub fn set_matching(&mut self, policy: MatchingPolicy) {
        self.matching = policy;
    }

    /// Sets the IM reporter quorum.
    pub fn set_im_reporters(&mut self, k: usize) {
        self.im_reporters = k.max(1);
    }

    /// Sets the maximum neighbors introduced per join.
    pub fn set_max_neighbors(&mut self, n: usize) {
        self.max_neighbors = n;
    }

    /// Gives the server CDN origin access for IM conflict resolution.
    pub fn attach_origin(&mut self, origin: OriginServer) {
        self.origin = Some(origin);
    }

    /// Mints a temporary token.
    pub fn mint_temp_token(&mut self, video: Option<VideoId>) -> String {
        let token = format!("tt-{:016x}", self.rng.next_u64());
        let bound = match self.profile.auth {
            AuthScheme::TempToken { video_bound: true } => video,
            _ => None,
        };
        self.temp_tokens.insert(token.clone(), bound);
        token
    }

    /// Usage meter of a customer.
    pub fn meter(&self, customer_id: &str) -> UsageMeter {
        self.meters.get(customer_id).copied().unwrap_or_default()
    }

    /// Defense activity counters.
    pub fn defense_stats(&self) -> DefenseStats {
        self.defense_stats
    }

    /// Whether `peer_id` is blacklisted.
    pub fn is_blacklisted(&self, peer_id: u64) -> bool {
        self.blacklist.contains(&peer_id)
    }

    /// Number of live peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Handles one signaling message; returns `(destination, reply)` pairs.
    pub fn handle(
        &mut self,
        from: Addr,
        msg: SignalMsg,
        now: SimTime,
        geoip: &GeoIpService,
    ) -> Vec<(Addr, SignalMsg)> {
        match msg {
            SignalMsg::Join {
                api_key,
                token,
                origin,
                video,
                manifest_hash,
                sdp,
            } => self.admit_join(
                from,
                api_key,
                token,
                origin,
                video,
                manifest_hash,
                sdp,
                now,
                geoip,
            ),
            SignalMsg::StatsReport {
                p2p_up_bytes,
                p2p_down_bytes,
            } => {
                self.on_stats(from, p2p_up_bytes, p2p_down_bytes, now);
                Vec::new()
            }
            SignalMsg::ImReport {
                video,
                rendition,
                seq,
                im,
            } => self.on_im_report(from, video, rendition, seq, im),
            SignalMsg::Leave => {
                self.remove_peer_by_addr(from, now);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn admit_join(
        &mut self,
        from: Addr,
        api_key: Option<String>,
        token: Option<String>,
        origin: String,
        video: String,
        manifest_hash: String,
        sdp: pdn_webrtc::SessionDescription,
        now: SimTime,
        geoip: &GeoIpService,
    ) -> Vec<(Addr, SignalMsg)> {
        let deny = |reason: String| vec![(from, SignalMsg::JoinDenied { reason })];

        if self.blacklist_addrs.contains(&from) {
            return deny("peer is blacklisted".into());
        }
        let customer_id = match self.authenticate(&api_key, &token, &origin, &video, now) {
            Ok(id) => id,
            Err(e) => return deny(e.to_string()),
        };

        let peer_id = self.next_peer_id;
        self.next_peer_id += 1;

        let geo = geoip.lookup(from.ip);
        let member = Member {
            peer_id,
            addr: from,
            sdp: sdp.clone(),
            country: geo.map(|g| g.country.clone()),
            isp: geo.map(|g| g.isp.clone()),
        };

        let key = SwarmKey {
            video: video.clone(),
            manifest_hash,
        };
        let swarm = self.swarms.entry(key).or_default();

        let mut candidates: Vec<&Member> = swarm
            .iter()
            .filter(|m| !self.blacklist.contains(&m.peer_id))
            .filter(|m| match self.matching {
                MatchingPolicy::Global => true,
                MatchingPolicy::SameCountry => m.country.is_some() && m.country == member.country,
                MatchingPolicy::SameIsp => m.isp.is_some() && m.isp == member.isp,
            })
            .collect();
        candidates.reverse();
        candidates.truncate(self.max_neighbors);
        let neighbors: Vec<(u64, pdn_webrtc::SessionDescription)> = candidates
            .iter()
            .map(|m| (m.peer_id, m.sdp.clone()))
            .collect();
        let notify: Vec<Addr> = candidates.iter().map(|m| m.addr).collect();

        swarm.push(member);
        self.peers.insert(
            peer_id,
            PeerInfo {
                addr: from,
                customer_id: customer_id.clone(),
                last_seen: now,
            },
        );
        let meter = self.meters.entry(customer_id).or_default();
        meter.add_join();

        let mut out = vec![(from, SignalMsg::JoinOk { peer_id, neighbors })];
        for addr in notify {
            out.push((
                addr,
                SignalMsg::PeerJoined {
                    peer_id,
                    sdp: sdp.clone(),
                },
            ));
        }
        out
    }

    fn authenticate(
        &mut self,
        api_key: &Option<String>,
        token: &Option<String>,
        origin: &str,
        video: &str,
        now: SimTime,
    ) -> Result<String, AuthError> {
        match &self.profile.auth {
            AuthScheme::StaticApiKey | AuthScheme::TenantKey => {
                let key = api_key.as_deref().ok_or(AuthError::MissingCredentials)?;
                let account = self.accounts.authenticate_key(key, origin)?;
                Ok(account.customer_id.clone())
            }
            AuthScheme::TempToken { .. } => {
                let t = token.as_deref().ok_or(AuthError::MissingCredentials)?;
                match self.temp_tokens.get(t) {
                    None => Err(AuthError::InvalidToken("unknown temp token".into())),
                    Some(None) => Ok("platform".into()),
                    Some(Some(bound)) if bound.0 == video => Ok("platform".into()),
                    Some(Some(_)) => Err(AuthError::InvalidToken(
                        "token bound to another video".into(),
                    )),
                }
            }
            AuthScheme::DisposableJwt => {
                let t = token.as_deref().ok_or(AuthError::MissingCredentials)?;
                let validator = self
                    .token_validator
                    .as_mut()
                    .expect("validator exists for DisposableJwt");
                let tok = validator.validate(t, &VideoId::new(video), now)?;
                Ok(tok.customer_id)
            }
        }
    }

    fn on_stats(&mut self, from: Addr, up: u64, down: u64, now: SimTime) {
        let Some((_, info)) = self.peers.iter_mut().find(|(_, p)| p.addr == from) else {
            return;
        };
        let watched = now.saturating_since(info.last_seen);
        info.last_seen = now;
        let customer = info.customer_id.clone();
        let meter = self.meters.entry(customer).or_default();
        meter.add_p2p_bytes(up + down);
        meter.add_viewer_time(watched);
    }

    fn on_im_report(
        &mut self,
        from: Addr,
        video: String,
        rendition: u8,
        seq: u64,
        im_hex: String,
    ) -> Vec<(Addr, SignalMsg)> {
        if !self.profile.segment_integrity_check {
            return Vec::new();
        }
        let Some(peer_id) = self
            .peers
            .iter()
            .find(|(_, p)| p.addr == from)
            .map(|(id, _)| *id)
        else {
            return Vec::new();
        };
        if self.blacklist.contains(&peer_id) {
            return Vec::new();
        }
        let Some(im) = parse_hex32(&im_hex) else {
            return Vec::new();
        };

        let entry = self
            .im_state
            .entry((video.clone(), rendition, seq))
            .or_default();
        if entry.sim.is_some() {
            return Vec::new();
        }
        entry.reports.entry(im).or_default().push(peer_id);

        let distinct = entry.reports.len();
        let total_reports: usize = entry.reports.values().map(Vec::len).sum();

        let authentic_im: Option<[u8; 32]> = if distinct > 1 {
            self.defense_stats.im_conflicts += 1;
            let authentic = self.authentic_im(&video, rendition, seq);
            if authentic.is_some() {
                self.defense_stats.cdn_refetches += 1;
            }
            authentic
        } else if total_reports >= self.im_reporters {
            Some(im)
        } else {
            None
        };

        let Some(authentic) = authentic_im else {
            return Vec::new();
        };

        let entry = self
            .im_state
            .get_mut(&(video.clone(), rendition, seq))
            .expect("entry exists");
        let mut liars = Vec::new();
        for (reported, reporters) in &entry.reports {
            if *reported != authentic {
                liars.extend(reporters.iter().copied());
            }
        }
        liars.sort_unstable();
        let sig = hmac_sha256_keyed(&self.sim_hmac, &[&authentic]);
        entry.sim = Some((authentic, sig));
        self.defense_stats.sims_issued += 1;

        let mut out = Vec::new();
        for liar in liars {
            if self.blacklist.insert(liar) {
                self.defense_stats.blacklisted_peers += 1;
                if let Some(info) = self.peers.get(&liar) {
                    self.blacklist_addrs.insert(info.addr);
                    out.push((
                        info.addr,
                        SignalMsg::Blacklisted {
                            reason: "fake integrity metadata".into(),
                        },
                    ));
                }
                self.remove_from_swarms(liar);
            }
        }

        let sim_msg = SignalMsg::SimBroadcast {
            video: video.clone(),
            rendition,
            seq,
            im: pdn_crypto::hex(&authentic),
            sig: pdn_crypto::hex(&sig),
        };
        let mut seen = HashSet::new();
        let mut keys: Vec<&SwarmKey> = self.swarms.keys().filter(|k| k.video == video).collect();
        keys.sort_by(|a, b| a.manifest_hash.cmp(&b.manifest_hash));
        for key in keys {
            for m in &self.swarms[key] {
                if self.blacklist.contains(&m.peer_id) || !seen.insert(m.peer_id) {
                    continue;
                }
                out.push((m.addr, sim_msg.clone()));
            }
        }
        out
    }

    fn authentic_im(&mut self, video: &str, rendition: u8, seq: u64) -> Option<[u8; 32]> {
        let origin = self.origin.as_ref()?;
        let seg = origin.segment(&SegmentId {
            video: VideoId::new(video),
            rendition,
            seq,
        })?;
        self.defense_stats.cdn_refetch_bytes += seg.len() as u64;
        Some(compute_im(&seg.data, video, rendition, seq))
    }

    /// Removes the peer that joined from `addr`, accruing its watch time.
    pub fn remove_peer_by_addr(&mut self, addr: Addr, now: SimTime) {
        let Some(peer_id) = self
            .peers
            .iter()
            .find(|(_, p)| p.addr == addr)
            .map(|(id, _)| *id)
        else {
            return;
        };
        if let Some(info) = self.peers.remove(&peer_id) {
            let watched = now.saturating_since(info.last_seen);
            self.meters
                .entry(info.customer_id)
                .or_default()
                .add_viewer_time(watched);
        }
        self.remove_from_swarms(peer_id);
    }

    /// The O(all-swarms) removal scan this PR's reverse index replaced.
    fn remove_from_swarms(&mut self, peer_id: u64) {
        for members in self.swarms.values_mut() {
            members.retain(|m| m.peer_id != peer_id);
        }
    }
}

/// The old per-agent availability map: `peer -> {(rendition, seq)}` with
/// holder selection by "collect + sort" (map iteration is random).
#[derive(Debug, Default)]
pub struct BaselineAvail {
    have_map: HashMap<u64, HashSet<(u8, u64)>>,
}

impl BaselineAvail {
    /// Creates an empty map.
    pub fn new() -> Self {
        BaselineAvail::default()
    }

    /// Records that `peer` advertised `(rendition, seq)`.
    pub fn insert(&mut self, peer: u64, rendition: u8, seq: u64) {
        self.have_map
            .entry(peer)
            .or_default()
            .insert((rendition, seq));
    }

    /// True if `peer` advertised `(rendition, seq)`.
    pub fn contains(&self, peer: u64, rendition: u8, seq: u64) -> bool {
        self.have_map
            .get(&peer)
            .is_some_and(|s| s.contains(&(rendition, seq)))
    }

    /// Holder selection exactly as the old scheduler did it: filter the
    /// map, then sort because iteration order is nondeterministic.
    pub fn holders(&self, rendition: u8, seq: u64, established: &[u64]) -> Vec<u64> {
        let mut holders: Vec<u64> = self
            .have_map
            .iter()
            .filter(|(peer, seqs)| seqs.contains(&(rendition, seq)) && established.contains(*peer))
            .map(|(peer, _)| *peer)
            .collect();
        holders.sort_unstable();
        holders
    }
}

/// Parses 64 hex digits into 32 bytes; `None` on any other input.
fn parse_hex32(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, o) in out.iter_mut().enumerate() {
        *o = u8::from_str_radix(s.get(i * 2..i * 2 + 2)?, 16).ok()?;
    }
    Some(out)
}
