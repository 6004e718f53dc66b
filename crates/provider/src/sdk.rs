//! The client-side PDN SDK agent.
//!
//! This is the Rust analogue of the JavaScript SDK a PDN customer embeds in
//! its player page (§III-A): it fetches the manifest over HTTP, joins the
//! swarm through the signaling server, builds WebRTC connections to the
//! neighbors it is introduced to, and schedules each segment from either
//! the CDN or a peer — with the provider's *slow start* (first K segments
//! always from the CDN) and optional §V-B integrity verification.
//!
//! The agent is sans-IO: every entry point returns a list of [`AgentOut`]
//! actions that the world harness carries out. That keeps the agent
//! testable in isolation and the whole simulation deterministic. Entry
//! points that can receive or play a segment also borrow the world's
//! [`SegmentDigests`]: every IM the agent reports or verifies, and every
//! fingerprint its player takes, is looked up there.
//!
//! Security posture notes:
//! - the agent is *honest*: attacks in `pdn-core` are mounted by MITM'ing
//!   its traffic (fake CDN, spoofed headers) exactly as in the paper —
//!   a polluted segment enters through the agent's own CDN path and is
//!   then served onward in good faith;
//! - everything the agent learns about other peers is recorded in
//!   [`PdnAgent::harvested_addrs`]; run on an attacker's node, that *is*
//!   the IP-leak harvest.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use pdn_media::{
    DeliverySource, MediaPlaylist, Player, Segment, SegmentDigests, SegmentId, VideoId,
};
use pdn_simnet::{Addr, SimRng, SimTime};
use pdn_webrtc::{
    dtls, stun, Certificate, DataChannel, DtlsEndpoint, IceAgent, IceEvent, SessionDescription,
};

use crate::proto::{HttpRequest, HttpResponse, P2pMsg, SignalMsg};
use crate::state::{AvailMap, VecMap};
use crate::wire::{self, InternTable, P2pRef, P2pView};

/// Well-known local ports of a peer.
pub mod ports {
    /// TCP socket to the signaling server.
    pub const SIGNAL: u16 = 1000;
    /// TCP socket to the CDN.
    pub const HTTP: u16 = 2000;
    /// UDP media port (ICE/DTLS).
    pub const MEDIA: u16 = 4000;
}

/// Resource cost constants (calibrated so Figure 4's +15% CPU / +10%
/// memory shape reproduces; see EXPERIMENTS.md).
pub mod costs {
    use std::time::Duration;

    /// CPU per second of video playback (fraction of a core).
    pub const PLAYBACK_CPU: f64 = 0.30;
    /// CPU nanoseconds per byte encrypted or decrypted (DTLS records).
    /// Calibrated against Figure 4's +15% CPU for a ~2 Mbps stream served
    /// P2P (browser JS + DTLS + SCTP overhead, not raw AES).
    pub const CRYPTO_NS_PER_BYTE: u64 = 165;
    /// CPU nanoseconds per byte hashed (IM calculation/verification):
    /// ~85 MB/s SHA-256, which puts the sender+receiver IM overhead for a
    /// 3 MB segment at ≈72 ms (the paper's Table VI delta is 73 ms).
    pub const HASH_NS_PER_BYTE: u64 = 12;
    /// Baseline player memory (bytes).
    pub const BASE_MEM: u64 = 200 << 20;
    /// Fixed extra memory for the PDN SDK runtime.
    pub const SDK_MEM: u64 = 4 << 20;
    /// P2P serving cache capacity (bytes).
    pub const CACHE_CAP: u64 = 16 << 20;
    /// Scheduler tick interval.
    pub const TICK: Duration = Duration::from_millis(500);
    /// Stats report interval.
    pub const STATS_INTERVAL: Duration = Duration::from_secs(5);
    /// Peer request timeout before falling back to the CDN.
    pub const P2P_TIMEOUT: Duration = Duration::from_secs(3);
}

/// Static configuration of one viewer's SDK instance.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// The video to watch.
    pub video: VideoId,
    /// Initial rendition index (ABR moves it when `abr_max_rendition`
    /// is set).
    pub rendition: u8,
    /// The `Origin` the embedding page presents (spoofable upstream).
    pub origin: String,
    /// Static API key, if the provider uses keys.
    pub api_key: Option<String>,
    /// Temp/JWT token, if the provider uses tokens.
    pub token: Option<String>,
    /// Whether the PDN SDK is active at all (`false` = pure-CDN control
    /// group, the paper's *no peer* baseline).
    pub pdn_enabled: bool,
    /// Segments always fetched from the CDN at session start.
    pub slow_start_segments: u64,
    /// §V-B integrity checking on peer-delivered segments.
    pub integrity_check: bool,
    /// Key to verify SIM signatures (shared by the provider).
    pub sim_key: Vec<u8>,
    /// Whether this peer uploads to others (leech mode / cellular policy).
    pub upload_enabled: bool,
    /// Segments of look-ahead buffer to maintain.
    pub buffer_target: u64,
    /// Highest sequence number available (VOD length), if known.
    pub vod_end: Option<u64>,
    /// How long to wait for a peer to advertise a segment before paying
    /// the CDN (jittered ±50% per segment; zero = always fetch eagerly,
    /// i.e. behave as a seed peer).
    pub cdn_patience: Duration,
    /// TURN service address when the provider relays all P2P traffic
    /// (§V-C mitigation): the agent allocates a relayed address, signals
    /// only the relay candidate (no host/srflx — nothing to leak), and
    /// wraps every media packet in TURN Send indications.
    pub relay: Option<Addr>,
    /// Adaptive bitrate (§II): when set, the agent switches renditions —
    /// down on a stall, up after a sustained healthy buffer — within
    /// `0..=max_rendition`. `None` pins `rendition` for the session.
    pub abr_max_rendition: Option<u8>,
}

impl AgentConfig {
    /// A reasonable default configuration for tests and examples.
    pub fn new(
        video: impl Into<VideoId>,
        api_key: impl Into<String>,
        origin: impl Into<String>,
    ) -> Self {
        AgentConfig {
            video: video.into(),
            rendition: 0,
            origin: origin.into(),
            api_key: Some(api_key.into()),
            token: None,
            pdn_enabled: true,
            slow_start_segments: 3,
            integrity_check: false,
            sim_key: Vec::new(),
            upload_enabled: true,
            buffer_target: 3,
            vod_end: None,
            cdn_patience: Duration::from_millis(1500),
            relay: None,
            abr_max_rendition: None,
        }
    }
}

/// An action the agent asks the harness to carry out.
#[derive(Debug)]
pub enum AgentOut {
    /// Send a signaling message to the PDN server.
    Signal(SignalMsg),
    /// Send an HTTP request to the CDN.
    Http(HttpRequest),
    /// Send raw bytes from the media port.
    UdpSend {
        /// Destination.
        to: Addr,
        /// Payload (STUN or DTLS bytes).
        data: Bytes,
    },
    /// Send several datagrams to the same destination from the media port
    /// (one multi-record channel message); the simnet delivers them as a
    /// batch, resolving the route once.
    UdpBurst {
        /// Destination.
        to: Addr,
        /// The DTLS records, in order.
        frames: Vec<Bytes>,
    },
    /// Charge CPU time to this node's resource model.
    ChargeCpu(Duration),
    /// Allocate resident memory.
    AllocMem(u64),
    /// Release resident memory.
    FreeMem(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnRole {
    /// We joined and were introduced to this (older) peer: we initiate.
    Initiator,
    /// A newer peer was introduced to us: we answer.
    Responder,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestVia {
    Cdn,
    Peer(u64),
}

#[derive(Debug)]
struct Conn {
    remote_peer: u64,
    role: ConnRole,
    ice: IceAgent,
    remote_sdp: SessionDescription,
    remote_media: Option<Addr>,
    dtls: Option<DtlsEndpoint>,
    chan: Option<DataChannel>,
    queued: Vec<P2pMsg>,
    check_retries: u32,
    /// ClientHello bytes kept for loss-recovery retransmission.
    client_hello: Option<Bytes>,
    /// Segments this neighbor has advertised (HAVE), one bit each.
    avail: AvailMap,
}

impl Conn {
    fn is_established(&self) -> bool {
        self.chan.is_some()
    }
}

/// The PDN SDK agent. See the [module docs](self).
pub struct PdnAgent {
    config: AgentConfig,
    /// Precomputed HMAC schedule for `config.sim_key`; SIM verification on
    /// every broadcast reuses it instead of rehashing the key.
    sim_hmac: pdn_crypto::hmac::HmacKey,
    cert: Certificate,
    rng: SimRng,
    player: Player,
    manifest: Option<MediaPlaylist>,
    manifest_hash: String,
    // Gathering state
    stun_server: Addr,
    gatherer: IceAgent,
    /// Pending TURN Allocate transaction (relay mode).
    allocate_txid: Option<[u8; 12]>,
    join_sent: bool,
    peer_id: Option<u64>,
    // Connections
    conns: Vec<Conn>,
    /// Connection indices sorted by remote peer id (connections are never
    /// removed), so holder scans walk peers in ascending-id order without
    /// sorting — the order the RNG pick is pinned to.
    conns_by_peer: Vec<u32>,
    // Segment scheduling. These tables are sorted-Vec maps
    // ([`crate::state::VecMap`]): iteration is ascending by key, so every
    // walk below is deterministic with no collect-and-sort pass.
    cache: VecMap<u64, Segment>,
    cache_order: VecDeque<u64>,
    cache_bytes: u64,
    requested: VecMap<u64, (RequestVia, SimTime)>,
    /// When each sequence was first wanted (drives the brief wait for a
    /// peer to advertise it before falling back to the CDN).
    first_wanted: VecMap<u64, SimTime>,
    /// Rendition currently being requested (ABR moves it; equals
    /// `config.rendition` when ABR is off).
    current_rendition: u8,
    /// Stall count at the previous ABR evaluation.
    abr_last_stalls: usize,
    /// Consecutive healthy-buffer ticks.
    abr_healthy_ticks: u32,
    /// Healthy ticks required before the next upgrade (doubles on every
    /// stall-triggered downgrade — upgrade hysteresis).
    abr_backoff: u32,
    sims: VecMap<(u8, u64), ([u8; 32], [u8; 32])>,
    /// Peer-delivered segments awaiting a SIM: seq -> (segment, held since).
    held: VecMap<u64, (Segment, SimTime)>,
    session_start_seq: Option<u64>,
    // Stats
    p2p_up: u64,
    p2p_down: u64,
    cdn_down: u64,
    /// Running sum/count of request→delivery latencies for peer-served
    /// segments. The only consumer (Table VI) needs the mean, so an
    /// unbounded `Vec<Duration>` here was pure memory growth — ~16 bytes
    /// per delivered segment per agent, forever.
    p2p_lat_sum: Duration,
    p2p_lat_count: u64,
    reported_up: u64,
    reported_down: u64,
    last_stats: SimTime,
    polluted_rejections: u64,
    blacklisted: bool,
    started_playback_charging: bool,
    last_playlist_fetch: SimTime,
    /// Reusable encode scratch for outgoing P2P frames (the PR 3
    /// `seal_into` pattern): zero allocations per message steady-state.
    wire_scratch: BytesMut,
    /// Deterministic intern table for P2P frames, seeded with this agent's
    /// own video id at construction (both ends of any data channel watch
    /// the same video, so the tables always agree; see [`crate::wire`]).
    intern: InternTable,
}

impl std::fmt::Debug for PdnAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PdnAgent")
            .field("video", &self.config.video)
            .field("peer_id", &self.peer_id)
            .field("conns", &self.conns.len())
            .finish()
    }
}

impl PdnAgent {
    /// Creates an agent for a viewer whose media socket is `host_addr`
    /// (the node's own address — private when behind NAT).
    pub fn new(config: AgentConfig, host_addr: Addr, stun_server: Addr, rng: &mut SimRng) -> Self {
        let mut rng = rng.fork(u32::from(host_addr.ip) as u64);
        let config_rendition = config.rendition;
        let mut intern = InternTable::new();
        intern.intern(&config.video.0);
        let cert = Certificate::generate(&mut rng);
        let mut gatherer = IceAgent::new(ports::MEDIA, &mut rng);
        if config.relay.is_none() {
            gatherer.add_host_candidate(host_addr);
        }
        PdnAgent {
            sim_hmac: pdn_crypto::hmac::HmacKey::new(&config.sim_key),
            config,
            cert,
            player: Player::new(0),
            manifest: None,
            manifest_hash: String::new(),
            stun_server,
            gatherer,
            allocate_txid: None,
            join_sent: false,
            peer_id: None,
            conns: Vec::new(),
            conns_by_peer: Vec::new(),
            cache: VecMap::new(),
            cache_order: VecDeque::new(),
            cache_bytes: 0,
            requested: VecMap::new(),
            first_wanted: VecMap::new(),
            current_rendition: config_rendition,
            abr_last_stalls: 0,
            abr_healthy_ticks: 0,
            abr_backoff: 10,
            sims: VecMap::new(),
            held: VecMap::new(),
            session_start_seq: None,
            p2p_up: 0,
            p2p_down: 0,
            cdn_down: 0,
            p2p_lat_sum: Duration::ZERO,
            p2p_lat_count: 0,
            reported_up: 0,
            reported_down: 0,
            last_stats: SimTime::ZERO,
            polluted_rejections: 0,
            blacklisted: false,
            started_playback_charging: false,
            last_playlist_fetch: SimTime::ZERO,
            wire_scratch: BytesMut::with_capacity(256),
            intern,
            rng,
        }
    }

    /// Starts the session: fetch the playlist; begin ICE gathering.
    pub fn start(&mut self) -> Vec<AgentOut> {
        let mut out = vec![
            AgentOut::AllocMem(costs::BASE_MEM),
            AgentOut::Http(HttpRequest::GetPlaylist {
                video: self.config.video.clone(),
                rendition: self.config.rendition,
                from: 0,
                to: self.config.vod_end.unwrap_or(u64::MAX),
            }),
        ];
        if self.config.pdn_enabled {
            out.push(AgentOut::AllocMem(costs::SDK_MEM));
            match self.config.relay {
                Some(turn) => {
                    // Relay mode: allocate a relayed address; never gather
                    // host/srflx candidates (nothing to leak).
                    let mut txid = [0u8; 12];
                    txid[..8].copy_from_slice(&self.rng.next_u64().to_le_bytes());
                    self.allocate_txid = Some(txid);
                    out.push(AgentOut::UdpSend {
                        to: turn,
                        data: pdn_webrtc::turn::allocate_request(txid),
                    });
                }
                None => {
                    for ev in self.gatherer.gather_srflx(self.stun_server) {
                        if let IceEvent::SendTo { to, data } = ev {
                            out.push(AgentOut::UdpSend { to, data });
                        }
                    }
                }
            }
        }
        out
    }

    /// Handles an HTTP response from the CDN plane.
    pub fn on_http(
        &mut self,
        resp: HttpResponse,
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        match resp {
            HttpResponse::Playlist { text } => {
                let Ok(playlist) = MediaPlaylist::parse(&text) else {
                    return Vec::new();
                };
                // VOD swarms group by manifest content (the consistency
                // check that isolates direct pollution); live playlists
                // slide constantly, so live swarms group by channel.
                self.manifest_hash = if playlist.ended {
                    pdn_crypto::hex(&pdn_crypto::sha256::digest(text.as_bytes()))
                } else {
                    "live".to_string()
                };
                let start = playlist.media_sequence;
                self.manifest = Some(playlist);
                if self.session_start_seq.is_none() {
                    self.session_start_seq = Some(start);
                    self.player = Player::new(start);
                }
                self.maybe_join()
            }
            HttpResponse::Segment {
                video,
                rendition,
                seq,
                duration_ms,
                data,
            } => {
                if video != self.config.video {
                    return Vec::new();
                }
                self.requested.remove(seq);
                let segment = Segment {
                    id: SegmentId {
                        video,
                        rendition,
                        seq,
                    },
                    duration: Duration::from_millis(duration_ms as u64),
                    data,
                };
                self.cdn_down += segment.len() as u64;
                let mut out = Vec::new();
                // §V-B: CDN-fetched segments get their IM computed and
                // reported (reporter selection is enforced server-side).
                if self.config.integrity_check && self.config.pdn_enabled {
                    let im = digests.im(&segment);
                    out.push(AgentOut::ChargeCpu(hash_cost(segment.len())));
                    out.push(AgentOut::Signal(SignalMsg::ImReport {
                        video: self.config.video.0.clone(),
                        rendition,
                        seq,
                        im: pdn_crypto::hex(&im),
                    }));
                }
                out.extend(self.accept_segment(segment, DeliverySource::Cdn, now, digests));
                out
            }
            HttpResponse::NotFound => Vec::new(),
        }
    }

    /// Handles a signaling message from the PDN server.
    pub fn on_signal(
        &mut self,
        msg: SignalMsg,
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        match msg {
            SignalMsg::JoinOk { peer_id, neighbors } => {
                self.peer_id = Some(peer_id);
                let mut out = Vec::new();
                for (remote_id, sdp) in neighbors {
                    out.extend(self.open_conn(remote_id, sdp, ConnRole::Initiator));
                }
                out
            }
            SignalMsg::JoinDenied { .. } => Vec::new(),
            SignalMsg::PeerJoined { peer_id, sdp } => {
                self.open_conn(peer_id, sdp, ConnRole::Responder)
            }
            SignalMsg::SimBroadcast {
                video,
                rendition,
                seq,
                im,
                sig,
            } => {
                if video != self.config.video.0 {
                    return Vec::new();
                }
                let (Some(im), Some(sig)) = (parse_hex32(&im), parse_hex32(&sig)) else {
                    return Vec::new();
                };
                if !crate::signaling::SignalingServer::verify_sim_keyed(&self.sim_hmac, &im, &sig) {
                    return Vec::new();
                }
                self.sims.insert((rendition, seq), (im, sig));
                // Process any held segment awaiting this SIM.
                if self
                    .held
                    .get(seq)
                    .is_some_and(|(seg, _)| seg.id.rendition == rendition)
                {
                    let (segment, _since) = self.held.remove(seq).expect("checked");
                    return self.verify_and_accept_peer_segment(segment, now, digests);
                }
                Vec::new()
            }
            SignalMsg::Blacklisted { .. } => {
                self.blacklisted = true;
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Handles a UDP packet on the media port.
    pub fn on_udp(
        &mut self,
        from: Addr,
        data: &[u8],
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        if stun::is_stun(data) {
            if self.config.relay.is_some() {
                if let Some(out) = self.on_turn(data, now, digests) {
                    return out;
                }
            }
            return self.on_stun(from, data);
        }
        if dtls::is_dtls(data) {
            return self.on_dtls(from, data, now, digests);
        }
        Vec::new()
    }

    /// Relay-mode TURN handling: Allocate responses and Data indications.
    /// Returns `None` for STUN messages that are not TURN traffic.
    fn on_turn(
        &mut self,
        data: &[u8],
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Option<Vec<AgentOut>> {
        use pdn_webrtc::stun::{Attribute, Class, Message, Method};
        let msg = Message::decode(data).ok()?;
        match (msg.class, msg.method) {
            (Class::Success, Method::Allocate) => {
                if self.allocate_txid != Some(msg.transaction_id) {
                    return Some(Vec::new());
                }
                self.allocate_txid = None;
                let relayed = msg.attributes.iter().find_map(|a| match a {
                    Attribute::XorRelayedAddress(r) => Some(*r),
                    _ => None,
                })?;
                self.gatherer.add_relay_candidate(relayed);
                self.gatherer.finish_gathering();
                Some(self.maybe_join())
            }
            (Class::Indication, Method::Data) => {
                let peer = msg.attributes.iter().find_map(|a| match a {
                    Attribute::XorPeerAddress(p) => Some(*p),
                    _ => None,
                })?;
                let payload = msg.attributes.iter().find_map(|a| match a {
                    Attribute::Data(d) => Some(d.clone()),
                    _ => None,
                })?;
                // The logical source is the sender's *relayed* address —
                // the only identity relay-mode peers ever see.
                if dtls::is_dtls(&payload) {
                    return Some(self.on_dtls(peer, &payload, now, digests));
                }
                Some(Vec::new())
            }
            _ => None,
        }
    }

    /// Scheduler tick: drive playback, request segments, handle timeouts,
    /// emit stats.
    pub fn on_tick(&mut self, now: SimTime, digests: &mut SegmentDigests) -> Vec<AgentOut> {
        let mut out = Vec::new();
        self.player.tick(now, digests);

        // Playback CPU baseline while media is flowing.
        if !self.player.played().is_empty() {
            if !self.started_playback_charging {
                self.started_playback_charging = true;
            }
            out.push(AgentOut::ChargeCpu(Duration::from_secs_f64(
                costs::TICK.as_secs_f64() * costs::PLAYBACK_CPU,
            )));
        }

        // Retry gathering → join if the playlist raced ahead of STUN.
        out.extend(self.maybe_join());

        // ICE check retransmission for pending connections (hole punching
        // through restricted NATs needs retries), and DTLS ClientHello
        // retransmission for flights lost to UDP drops.
        const MAX_CHECK_RETRIES: u32 = 20;
        let mut retransmits: Vec<(Addr, Bytes)> = Vec::new();
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.chan.is_some() {
                continue;
            }
            if conn.ice.selected_remote().is_none() && self.config.relay.is_none() {
                if conn.check_retries >= MAX_CHECK_RETRIES {
                    continue;
                }
                conn.check_retries += 1;
                for ev in conn.ice.retransmit_checks() {
                    if let IceEvent::SendTo { to, data } = ev {
                        out.push(AgentOut::UdpSend { to, data });
                    }
                }
            } else if conn.role == ConnRole::Initiator && conn.dtls.is_some() {
                if let (Some(hello), Some(remote)) = (conn.client_hello.clone(), conn.remote_media)
                {
                    retransmits.push((remote, hello));
                }
            }
        }
        for (remote, hello) in retransmits {
            let action = self.udp_out(remote, hello);
            out.push(action);
        }

        // Adaptive bitrate (§II): down on a fresh stall, up after 10
        // consecutive healthy-buffer ticks.
        if let Some(max) = self.config.abr_max_rendition {
            let stalls = self.player.stalls().len();
            if stalls > self.abr_last_stalls {
                self.abr_last_stalls = stalls;
                self.abr_healthy_ticks = 0;
                if self.current_rendition > 0 {
                    self.current_rendition -= 1;
                    // Hysteresis: each failed rung doubles the patience
                    // before the next upgrade attempt.
                    self.abr_backoff = (self.abr_backoff * 2).min(600);
                }
            } else if self.player.buffered_media()
                >= Duration::from_secs(4) * self.config.buffer_target as u32 / 2
            {
                self.abr_healthy_ticks += 1;
                if self.abr_healthy_ticks >= self.abr_backoff && self.current_rendition < max {
                    self.current_rendition += 1;
                    self.abr_healthy_ticks = 0;
                }
            } else {
                self.abr_healthy_ticks = 0;
            }
        }

        // Live playlists slide: refetch periodically until ENDLIST.
        if self.manifest.as_ref().is_some_and(|m| !m.ended)
            && now.saturating_since(self.last_playlist_fetch) >= Duration::from_secs(2)
        {
            self.last_playlist_fetch = now;
            out.push(AgentOut::Http(HttpRequest::GetPlaylist {
                video: self.config.video.clone(),
                rendition: self.config.rendition,
                from: 0,
                to: self.config.vod_end.unwrap_or(u64::MAX),
            }));
        }

        // Request scheduling.
        out.extend(self.schedule_requests(now));

        // Held segments whose SIM never formed → verify-or-CDN fallback.
        // `held` iterates ascending by sequence, so no post-sort is needed
        // (and steady-state the filter matches nothing and allocates
        // nothing).
        let expired_holds: Vec<u64> = self
            .held
            .iter()
            .filter(|(_, (_, since))| now.saturating_since(*since) > costs::P2P_TIMEOUT)
            .map(|(seq, _)| seq)
            .collect();
        for seq in expired_holds {
            let (segment, _) = self.held.remove(seq).expect("collected above");
            if self.sims.contains_key((segment.id.rendition, seq)) {
                out.extend(self.verify_and_accept_peer_segment(segment, now, digests));
            } else {
                self.requested.insert(seq, (RequestVia::Cdn, now));
                out.push(AgentOut::Http(HttpRequest::GetSegment {
                    video: self.config.video.clone(),
                    rendition: self.current_rendition,
                    seq,
                }));
            }
        }

        // P2P request timeouts → CDN fallback (ascending by construction).
        let timed_out: Vec<u64> = self
            .requested
            .iter()
            .filter(|(_, (via, at))| {
                matches!(via, RequestVia::Peer(_)) && now.saturating_since(*at) > costs::P2P_TIMEOUT
            })
            .map(|(seq, _)| seq)
            .collect();
        for seq in timed_out {
            self.requested.insert(seq, (RequestVia::Cdn, now));
            out.push(AgentOut::Http(HttpRequest::GetSegment {
                video: self.config.video.clone(),
                rendition: self.current_rendition,
                seq,
            }));
        }

        // Stats reporting.
        if self.config.pdn_enabled
            && self.peer_id.is_some()
            && now.saturating_since(self.last_stats) >= costs::STATS_INTERVAL
        {
            self.last_stats = now;
            let up = self.p2p_up - self.reported_up;
            let down = self.p2p_down - self.reported_down;
            self.reported_up = self.p2p_up;
            self.reported_down = self.p2p_down;
            out.push(AgentOut::Signal(SignalMsg::StatsReport {
                p2p_up_bytes: up,
                p2p_down_bytes: down,
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // Accessors for experiments
    // ------------------------------------------------------------------

    /// The player (playback records, stalls, offload ratio).
    pub fn player(&self) -> &Player {
        &self.player
    }

    /// `(p2p_up, p2p_down, cdn_down)` byte counters.
    pub fn traffic(&self) -> (u64, u64, u64) {
        (self.p2p_up, self.p2p_down, self.cdn_down)
    }

    /// `(sum, count)` of request→delivery latencies of peer-served
    /// segments (§V-B Table VI; includes modeled IM hash time when
    /// integrity checking is on). Kept as running totals so the agent's
    /// steady-state footprint stays flat regardless of session length.
    pub fn p2p_latency_stats(&self) -> (Duration, u64) {
        (self.p2p_lat_sum, self.p2p_lat_count)
    }

    /// Segments rejected by integrity verification.
    pub fn polluted_rejections(&self) -> u64 {
        self.polluted_rejections
    }

    /// Whether the server expelled this peer.
    pub fn is_blacklisted(&self) -> bool {
        self.blacklisted
    }

    /// The rendition currently being requested (moves under ABR).
    pub fn current_rendition(&self) -> u8 {
        self.current_rendition
    }

    /// Server-assigned peer ID, once joined.
    pub fn peer_id(&self) -> Option<u64> {
        self.peer_id
    }

    /// Number of established P2P connections.
    pub fn established_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_established()).count()
    }

    /// Every remote transport address this agent has learned — candidates
    /// from signaling plus observed STUN sources. On an attacker's node
    /// this is the §IV-D IP harvest.
    pub fn harvested_addrs(&self) -> Vec<Addr> {
        let mut set = HashSet::new();
        for c in &self.conns {
            set.extend(c.ice.remote_addrs_seen().iter().copied());
            set.extend(c.remote_sdp.candidate_addrs());
        }
        let mut v: Vec<Addr> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// The agent's certificate fingerprint (signaled in its SDP).
    pub fn fingerprint(&self) -> pdn_webrtc::Fingerprint {
        self.cert.fingerprint()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn maybe_join(&mut self) -> Vec<AgentOut> {
        if !self.config.pdn_enabled
            || self.join_sent
            || self.manifest.is_none()
            || !self.gatherer.is_gathering_complete()
        {
            return Vec::new();
        }
        self.join_sent = true;
        let sdp = self.gatherer.local_description(self.cert.fingerprint());
        vec![AgentOut::Signal(SignalMsg::Join {
            api_key: self.config.api_key.clone(),
            token: self.config.token.clone(),
            origin: self.config.origin.clone(),
            video: self.config.video.0.clone(),
            manifest_hash: self.manifest_hash.clone(),
            sdp,
        })]
    }

    fn open_conn(
        &mut self,
        remote_peer: u64,
        sdp: SessionDescription,
        role: ConnRole,
    ) -> Vec<AgentOut> {
        let slot = match self
            .conns_by_peer
            .binary_search_by_key(&remote_peer, |&i| self.conns[i as usize].remote_peer)
        {
            Ok(_) => return Vec::new(),
            Err(slot) => slot,
        };
        let (ufrag, pwd) = self.gatherer.credentials();
        let mut ice = IceAgent::with_credentials(
            ports::MEDIA,
            ufrag.to_string(),
            pwd.to_string(),
            self.rng.fork(remote_peer),
        );
        for cand in self.gatherer.candidates() {
            ice.add_candidate(*cand);
        }
        ice.set_remote(sdp.clone());
        let mut out = Vec::new();
        let relay_remote = self.config.relay.and_then(|_| {
            sdp.candidates
                .iter()
                .find(|c| c.kind == pdn_webrtc::CandidateKind::Relay)
                .map(|c| c.addr)
        });
        if relay_remote.is_none() {
            // Both sides run checks (full ICE): the responder's checks are
            // what open its NAT mapping toward the initiator for cone NATs.
            for ev in ice.start_checks() {
                if let IceEvent::SendTo { to, data } = ev {
                    out.push(AgentOut::UdpSend { to, data });
                }
            }
        }
        self.conns_by_peer.insert(slot, self.conns.len() as u32);
        self.conns.push(Conn {
            remote_peer,
            role,
            ice,
            remote_sdp: sdp,
            remote_media: relay_remote,
            dtls: None,
            chan: None,
            queued: Vec::new(),
            check_retries: 0,
            client_hello: None,
            avail: AvailMap::new(),
        });
        if relay_remote.is_some() {
            // Relay mode skips ICE entirely: the relayed addresses are
            // already reachable, so go straight to DTLS.
            out.extend(self.on_ice_connected(self.conns.len() - 1));
        }
        out
    }

    fn on_stun(&mut self, from: Addr, data: &[u8]) -> Vec<AgentOut> {
        // Peer-reflexive learning: an inbound check's USERNAME is
        // "local_ufrag:remote_ufrag", so the sender's connection can be
        // identified even when the packet arrives from an address it never
        // signaled (symmetric NATs map per-destination).
        if let Ok(msg) = stun::Message::decode(data) {
            if msg.class == stun::Class::Request {
                if let Some(remote_ufrag) = msg.username().and_then(|u| u.split(':').nth(1)) {
                    if let Some(conn) = self
                        .conns
                        .iter_mut()
                        .find(|c| c.remote_sdp.ice_ufrag == remote_ufrag)
                    {
                        conn.remote_media.get_or_insert(from);
                    }
                }
            }
        }
        // Gathering responses first.
        let evs = self.gatherer.handle_packet(from, data);
        if !evs.is_empty() {
            let mut out = Vec::new();
            for ev in evs {
                match ev {
                    IceEvent::SendTo { to, data } => out.push(AgentOut::UdpSend { to, data }),
                    IceEvent::GatheringComplete => out.extend(self.maybe_join()),
                    IceEvent::Connected { .. } => {}
                }
            }
            return out;
        }
        // Then per-connection agents: prefer the conn that signaled `from`
        // as a candidate, fall back to the first conn that reacts.
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..self.conns.len()).collect();
            idx.sort_by_key(|&i| {
                let owns = self.conns[i]
                    .remote_sdp
                    .candidate_addrs()
                    .any(|a| a == from)
                    || self.conns[i].remote_media == Some(from);
                if owns {
                    0
                } else {
                    1
                }
            });
            idx
        };
        let mut out = Vec::new();
        for i in order {
            let evs = self.conns[i].ice.handle_packet(from, data);
            if evs.is_empty() {
                continue;
            }
            let mut connected = false;
            for ev in evs {
                match ev {
                    IceEvent::SendTo { to, data } => out.push(AgentOut::UdpSend { to, data }),
                    IceEvent::Connected { remote } => {
                        self.conns[i].remote_media = Some(remote);
                        connected = true;
                    }
                    IceEvent::GatheringComplete => {}
                }
            }
            if connected {
                out.extend(self.on_ice_connected(i));
            }
            break;
        }
        out
    }

    fn on_ice_connected(&mut self, idx: usize) -> Vec<AgentOut> {
        let conn = &mut self.conns[idx];
        if conn.dtls.is_some() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut hello_to_send: Option<(Addr, Bytes)> = None;
        match conn.role {
            ConnRole::Initiator => {
                let (ep, hello) = DtlsEndpoint::client(
                    self.cert.clone(),
                    Some(conn.remote_sdp.fingerprint),
                    &mut self.rng,
                );
                conn.dtls = Some(ep);
                conn.client_hello = Some(hello.clone());
                if let Some(remote) = conn.remote_media {
                    hello_to_send = Some((remote, hello));
                }
            }
            ConnRole::Responder => {
                let ep = DtlsEndpoint::server(
                    self.cert.clone(),
                    Some(conn.remote_sdp.fingerprint),
                    &mut self.rng,
                );
                conn.dtls = Some(ep);
            }
        }
        if let Some((remote, hello)) = hello_to_send {
            out.push(self.udp_out(remote, hello));
        }
        out
    }

    fn on_dtls(
        &mut self,
        from: Addr,
        data: &[u8],
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        let Some(idx) = self.conns.iter().position(|c| {
            c.remote_media == Some(from)
                || (c.remote_media.is_none() && c.remote_sdp.candidate_addrs().any(|a| a == from))
        }) else {
            return Vec::new();
        };
        // A responder may see the ClientHello before its own ICE agent
        // processed the final check response; set up the endpoint lazily.
        if self.conns[idx].dtls.is_none() {
            self.conns[idx].remote_media = Some(from);
            let _ = self.on_ice_connected(idx);
        }
        let conn = &mut self.conns[idx];
        conn.remote_media.get_or_insert(from);

        let mut out = Vec::new();
        if conn.chan.is_none() {
            let Some(ep) = conn.dtls.as_mut() else {
                return out;
            };
            // Implicit completion: a responder whose Finished never arrived
            // can complete the handshake from a valid data record.
            if data.first() == Some(&23) {
                let Ok(frame) = ep.open(data) else {
                    return out;
                };
                debug_assert!(ep.is_established(), "open promotes the endpoint");
                let ep = conn.dtls.take().expect("checked");
                let mut chan = DataChannel::new(ep);
                let msg = chan.ingest_plaintext(&frame).ok().flatten();
                conn.chan = Some(chan);
                // The retransmit loop skips established connections, so
                // the saved ClientHello can never be needed again.
                conn.client_hello = None;
                out.extend(self.flush_conn(idx, now));
                if let Some(bytes) = msg {
                    let remote_peer = self.conns[idx].remote_peer;
                    out.extend(self.on_p2p_frame(remote_peer, &bytes, now, digests));
                }
                return out;
            }
            // Handshake phase.
            let flight = match ep.handle_handshake(data, &mut self.rng) {
                Ok(f) => f,
                Err(_) => return out,
            };
            if conn.dtls.as_ref().is_some_and(DtlsEndpoint::is_established) {
                let ep = conn.dtls.take().expect("checked");
                conn.chan = Some(DataChannel::new(ep));
                conn.client_hello = None; // established; no retransmit ahead
                if let Some(f) = flight {
                    out.push(self.udp_out(from, f));
                }
                out.extend(self.flush_conn(idx, now));
            } else if let Some(f) = flight {
                out.push(self.udp_out(from, f));
            }
            return out;
        }
        // Data phase.
        let chan = conn.chan.as_mut().expect("data phase");
        out.push(AgentOut::ChargeCpu(crypto_cost(data.len())));
        let bytes = match chan.receive_record(data) {
            Ok(Some(bytes)) => Some(bytes),
            Ok(None) | Err(_) => None,
        };
        if let Some(bytes) = bytes {
            let remote_peer = conn.remote_peer;
            out.extend(self.on_p2p_frame(remote_peer, &bytes, now, digests));
        }
        out
    }

    fn flush_conn(&mut self, idx: usize, _now: SimTime) -> Vec<AgentOut> {
        let mut out = Vec::new();
        // Announce our cache to the new neighbor, grouped by rendition.
        // The cache iterates ascending by sequence, so each bucket is born
        // sorted; the rendition list itself is a tiny sorted Vec.
        let mut by_rendition: Vec<(u8, Vec<u64>)> = Vec::new();
        for seg in self.cache.values() {
            let i = match by_rendition.binary_search_by_key(&seg.id.rendition, |(r, _)| *r) {
                Ok(i) => i,
                Err(i) => {
                    by_rendition.insert(i, (seg.id.rendition, Vec::new()));
                    i
                }
            };
            by_rendition[i].1.push(seg.id.seq);
        }
        let queued = std::mem::take(&mut self.conns[idx].queued);
        let PdnAgent {
            conns,
            wire_scratch,
            intern,
            rng,
            config,
            p2p_up,
            ..
        } = self;
        let conn = &mut conns[idx];
        for (rendition, seqs) in by_rendition {
            P2pTx {
                conn,
                scratch: wire_scratch,
                intern,
                relay: config.relay,
                rng,
                p2p_up,
            }
            .send(
                &P2pRef::Have {
                    video: &config.video.0,
                    rendition,
                    seqs: &seqs,
                },
                &mut out,
            );
        }
        for msg in &queued {
            P2pTx {
                conn,
                scratch: wire_scratch,
                intern,
                relay: config.relay,
                rng,
                p2p_up,
            }
            .send(&P2pRef::from(msg), &mut out);
        }
        out
    }

    /// Handles one P2P frame from an established channel. Decoding borrows
    /// from the frame: the video id is checked against the intern table
    /// without materialising a `String`, HAVE sequence numbers stream
    /// straight off the wire, and a delivered segment's payload is a
    /// zero-copy slice of the record.
    fn on_p2p_frame(
        &mut self,
        from_peer: u64,
        frame: &Bytes,
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        let Some(view) = wire::decode_p2p_view(frame) else {
            return Vec::new();
        };
        match view {
            P2pView::Have {
                video,
                rendition,
                seqs,
            } => {
                if video.matches(&self.intern, &self.config.video.0) {
                    if let Some(i) = self.conn_idx_by_peer(from_peer) {
                        let avail = &mut self.conns[i].avail;
                        for s in seqs {
                            avail.insert(rendition, s);
                        }
                    }
                }
                Vec::new()
            }
            P2pView::RequestSegment {
                video,
                rendition,
                seq,
            } => {
                if !self.config.upload_enabled || !video.matches(&self.intern, &self.config.video.0)
                {
                    return Vec::new();
                }
                self.reply_segment(from_peer, rendition, seq)
            }
            P2pView::SegmentData {
                video,
                rendition,
                seq,
                duration_ms,
                data,
                sim,
            } => {
                if !video.matches(&self.intern, &self.config.video.0) {
                    return Vec::new();
                }
                let segment = Segment {
                    id: SegmentId {
                        video: self.config.video.clone(),
                        rendition,
                        seq,
                    },
                    duration: Duration::from_millis(duration_ms as u64),
                    data,
                };
                self.on_segment_data(segment, sim, now, digests)
            }
        }
    }

    /// Resolves the connection to `peer` via the sorted-by-peer index.
    #[inline]
    fn conn_idx_by_peer(&self, peer: u64) -> Option<usize> {
        self.conns_by_peer
            .binary_search_by_key(&peer, |&i| self.conns[i as usize].remote_peer)
            .ok()
            .map(|slot| self.conns_by_peer[slot] as usize)
    }

    /// Serves a cached segment to a requesting neighbor; the payload is
    /// borrowed all the way into the encode scratch (no segment clone).
    fn reply_segment(&mut self, from_peer: u64, rendition: u8, seq: u64) -> Vec<AgentOut> {
        let Some(segment) = self.cache.get(seq) else {
            return Vec::new();
        };
        if segment.id.rendition != rendition {
            return Vec::new();
        }
        let Some(idx) = self.conn_idx_by_peer(from_peer) else {
            return Vec::new();
        };
        let duration_ms = segment.duration.as_millis() as u32;
        let data = segment.data.clone();
        let sim = self.sims.get((rendition, seq)).copied();
        let mut out = Vec::new();
        let PdnAgent {
            conns,
            wire_scratch,
            intern,
            rng,
            config,
            p2p_up,
            ..
        } = self;
        P2pTx {
            conn: &mut conns[idx],
            scratch: wire_scratch,
            intern,
            relay: config.relay,
            rng,
            p2p_up,
        }
        .send(
            &P2pRef::SegmentData {
                video: &config.video.0,
                rendition,
                seq,
                duration_ms,
                data: &data,
                sim,
            },
            &mut out,
        );
        out
    }

    fn on_segment_data(
        &mut self,
        segment: Segment,
        sim: Option<([u8; 32], [u8; 32])>,
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        let (rendition, seq) = (segment.id.rendition, segment.id.seq);
        if let Some((RequestVia::Peer(_), at)) = self.requested.remove(seq) {
            // Request→delivery latency; with the §V-B defense the
            // IM calculation (sender) and verification (receiver)
            // add their hash time on top (Table VI's latency).
            let mut lat = now.saturating_since(at);
            if self.config.integrity_check {
                lat += hash_cost(segment.len()) * 2;
            }
            self.p2p_lat_sum += lat;
            self.p2p_lat_count += 1;
        }
        self.p2p_down += segment.len() as u64;
        if let Some((im, sig)) = sim {
            self.sims.or_insert_with((rendition, seq), || (im, sig));
        }
        if self.config.integrity_check {
            if self.sims.contains_key((rendition, seq)) {
                self.verify_and_accept_peer_segment(segment, now, digests)
            } else {
                // Hold until the SIM arrives; the tick handler
                // falls back to the CDN if none forms in time.
                self.held.insert(seq, (segment, now));
                Vec::new()
            }
        } else {
            // The measured behaviour of every provider: accept
            // whatever the peer sent (the pollution vulnerability).
            self.accept_segment(segment, DeliverySource::Peer, now, digests)
        }
    }

    fn verify_and_accept_peer_segment(
        &mut self,
        segment: Segment,
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        let seq = segment.id.seq;
        let rendition = segment.id.rendition;
        let mut out = vec![AgentOut::ChargeCpu(hash_cost(segment.len()))];
        let Some((im, sig)) = self.sims.get((rendition, seq)) else {
            return Vec::new();
        };
        let computed = digests.im(&segment);
        let sig_ok = crate::signaling::SignalingServer::verify_sim_keyed(&self.sim_hmac, im, sig);
        if !sig_ok || computed != *im {
            // Polluted: reject and refetch from the CDN.
            self.polluted_rejections += 1;
            self.requested.insert(seq, (RequestVia::Cdn, now));
            out.push(AgentOut::Http(HttpRequest::GetSegment {
                video: self.config.video.clone(),
                rendition: self.current_rendition,
                seq,
            }));
            return out;
        }
        out.extend(self.accept_segment(segment, DeliverySource::Peer, now, digests));
        out
    }

    fn accept_segment(
        &mut self,
        segment: Segment,
        source: DeliverySource,
        now: SimTime,
        digests: &mut SegmentDigests,
    ) -> Vec<AgentOut> {
        let seq = segment.id.seq;
        let segment_rendition = segment.id.rendition;
        let mut out = Vec::new();
        self.player.deliver(now, segment.clone(), source, digests);

        if self.config.pdn_enabled && !self.cache.contains_key(seq) {
            let len = segment.len() as u64;
            self.cache.insert(seq, segment);
            self.cache_order.push_back(seq);
            self.cache_bytes += len;
            out.push(AgentOut::AllocMem(len));
            while self.cache_bytes > costs::CACHE_CAP && self.cache_order.len() > 1 {
                let evict = self.cache_order.pop_front().expect("len > 1");
                if let Some(old) = self.cache.remove(evict) {
                    self.cache_bytes -= old.len() as u64;
                    out.push(AgentOut::FreeMem(old.len() as u64));
                }
            }
            // Leech-mode peers never serve, so advertising would only
            // waste their neighbors' request timeouts.
            if !self.config.upload_enabled {
                return out;
            }
            // Advertise to established neighbors (no video clone: the
            // HAVE borrows the config's id, interned to one byte).
            let seqs = [seq];
            let PdnAgent {
                conns,
                wire_scratch,
                intern,
                rng,
                config,
                p2p_up,
                ..
            } = self;
            for conn in conns.iter_mut().filter(|c| c.is_established()) {
                P2pTx {
                    conn,
                    scratch: wire_scratch,
                    intern,
                    relay: config.relay,
                    rng,
                    p2p_up,
                }
                .send(
                    &P2pRef::Have {
                        video: &config.video.0,
                        rendition: segment_rendition,
                        seqs: &seqs,
                    },
                    &mut out,
                );
            }
        }
        out
    }

    fn schedule_requests(&mut self, now: SimTime) -> Vec<AgentOut> {
        let Some(manifest) = &self.manifest else {
            return Vec::new();
        };
        let start = self.session_start_seq.unwrap_or(0);
        let end = manifest.media_sequence + manifest.entries.len() as u64;
        let next = self.player.next_needed_seq();
        let mut out = Vec::new();
        for seq in next..(next + self.config.buffer_target).min(end) {
            if self.cache.contains_key(seq)
                || self.requested.contains_key(seq)
                || self.held.contains_key(seq)
            {
                continue;
            }
            let in_slow_start = seq < start + self.config.slow_start_segments;
            let rendition = self.current_rendition;
            let peer_with_seg = (!in_slow_start && self.config.pdn_enabled && !self.blacklisted)
                .then(|| {
                    // `conns_by_peer` walks connections in ascending peer-id
                    // order and each availability probe is a bitmap test, so
                    // the candidate list reaches the RNG already sorted — no
                    // per-segment sort pass.
                    let holders: Vec<u64> = self
                        .conns_by_peer
                        .iter()
                        .filter_map(|&i| {
                            let c = &self.conns[i as usize];
                            (c.is_established() && c.avail.contains(rendition, seq))
                                .then_some(c.remote_peer)
                        })
                        .collect();
                    self.rng.choose(&holders).copied()
                })
                .flatten();
            match peer_with_seg {
                Some(peer) => {
                    self.first_wanted.remove(seq);
                    self.requested.insert(seq, (RequestVia::Peer(peer), now));
                    let idx = self.conn_idx_by_peer(peer).expect("holder is connected");
                    let PdnAgent {
                        conns,
                        wire_scratch,
                        intern,
                        rng,
                        config,
                        p2p_up,
                        ..
                    } = &mut *self;
                    P2pTx {
                        conn: &mut conns[idx],
                        scratch: wire_scratch,
                        intern,
                        relay: config.relay,
                        rng,
                        p2p_up,
                    }
                    .send(
                        &P2pRef::RequestSegment {
                            video: &config.video.0,
                            rendition,
                            seq,
                        },
                        &mut out,
                    );
                }
                None => {
                    // P2P patience: with live neighbors connected, wait a
                    // beat for a Have announcement before paying the CDN.
                    // The deadline is jittered per segment so exactly one
                    // swarm member gives up first and seeds the others —
                    // this is what concentrates load on seed peers (Fig 5).
                    let base = self.config.cdn_patience;
                    let deadline = match self.first_wanted.get(seq) {
                        Some(d) => *d,
                        None => {
                            let jitter_ns = if base.is_zero() {
                                0
                            } else {
                                let span = base.as_nanos() as u64;
                                self.rng.range(span / 2..=span * 3 / 2)
                            };
                            let d = now + Duration::from_nanos(jitter_ns);
                            self.first_wanted.insert(seq, d);
                            d
                        }
                    };
                    let can_wait = !in_slow_start
                        && self.config.pdn_enabled
                        && !self.blacklisted
                        && self.conns.iter().any(Conn::is_established)
                        && now < deadline;
                    if can_wait {
                        continue;
                    }
                    self.first_wanted.remove(seq);
                    self.requested.insert(seq, (RequestVia::Cdn, now));
                    out.push(AgentOut::Http(HttpRequest::GetSegment {
                        video: self.config.video.clone(),
                        rendition,
                        seq,
                    }));
                }
            }
        }
        out
    }
}

impl PdnAgent {
    /// Emits a media-plane send, wrapping it in a TURN Send indication when
    /// the provider relays P2P traffic (§V-C).
    fn udp_out(&mut self, to: Addr, data: Bytes) -> AgentOut {
        media_out(self.config.relay, &mut self.rng, to, data)
    }
}

/// The disjoint borrows of [`PdnAgent`] the P2P send path needs. Built by
/// destructuring `&mut self`, which lets the message borrow *other* agent
/// fields (the config's video id, a cached segment's payload) while the
/// scratch and connection are mutated.
struct P2pTx<'a> {
    conn: &'a mut Conn,
    scratch: &'a mut BytesMut,
    intern: &'a InternTable,
    relay: Option<Addr>,
    rng: &'a mut SimRng,
    p2p_up: &'a mut u64,
}

impl P2pTx<'_> {
    /// Encodes `msg`'s header into the reused scratch and frames it, with
    /// the segment bytes as a second part, onto the channel: the segment is
    /// copied only into the sealed records. Multi-record messages leave as
    /// one [`AgentOut::UdpBurst`]. Queues an owned copy if the channel is
    /// not established yet.
    fn send(&mut self, msg: &P2pRef<'_>, out: &mut Vec<AgentOut>) {
        let Some(remote) = self.conn.remote_media else {
            self.conn.queued.push(msg.to_owned_msg());
            return;
        };
        let Some(chan) = self.conn.chan.as_mut() else {
            self.conn.queued.push(msg.to_owned_msg());
            return;
        };
        self.scratch.clear();
        let tail = wire::encode_p2p_header_into(msg, self.intern, self.scratch);
        let records = match chan.send_message(&[&self.scratch[..], tail]) {
            Ok(records) => records,
            Err(_) => return,
        };
        if let P2pRef::SegmentData { data, .. } = msg {
            *self.p2p_up += data.len() as u64;
        }
        // Charged on the whole encoded message, header and payload.
        out.push(AgentOut::ChargeCpu(crypto_cost(
            self.scratch.len() + tail.len(),
        )));
        push_media_records(self.relay, self.rng, remote, records, out);
    }
}

/// One media-plane datagram, TURN-wrapped when the provider relays.
fn media_out(relay: Option<Addr>, rng: &mut SimRng, to: Addr, data: Bytes) -> AgentOut {
    match relay {
        Some(turn) => {
            let mut txid = [0u8; 12];
            txid[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            AgentOut::UdpSend {
                to: turn,
                data: pdn_webrtc::turn::send_indication(txid, to, data),
            }
        }
        None => AgentOut::UdpSend { to, data },
    }
}

/// Emits DTLS records for one channel message: a single record stays an
/// [`AgentOut::UdpSend`]; several become one [`AgentOut::UdpBurst`] so the
/// simnet resolves the route once for the whole message.
fn push_media_records(
    relay: Option<Addr>,
    rng: &mut SimRng,
    to: Addr,
    records: Vec<Bytes>,
    out: &mut Vec<AgentOut>,
) {
    if records.len() <= 1 {
        for r in records {
            out.push(media_out(relay, rng, to, r));
        }
        return;
    }
    match relay {
        Some(turn) => {
            let frames = records
                .into_iter()
                .map(|r| {
                    let mut txid = [0u8; 12];
                    txid[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                    pdn_webrtc::turn::send_indication(txid, to, r)
                })
                .collect();
            out.push(AgentOut::UdpBurst { to: turn, frames });
        }
        None => out.push(AgentOut::UdpBurst {
            to,
            frames: records,
        }),
    }
}

fn crypto_cost(bytes: usize) -> Duration {
    Duration::from_nanos(bytes as u64 * costs::CRYPTO_NS_PER_BYTE)
}

fn hash_cost(bytes: usize) -> Duration {
    Duration::from_nanos(bytes as u64 * costs::HASH_NS_PER_BYTE)
}

fn parse_hex32(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for i in 0..32 {
        out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).ok()?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> PdnAgent {
        let mut rng = SimRng::seed(1);
        PdnAgent::new(
            AgentConfig::new("v", "key", "site.tv"),
            Addr::new(10, 0, 0, 1, ports::MEDIA),
            Addr::new(30, 0, 0, 1, 3478),
            &mut rng,
        )
    }

    fn playlist_text() -> String {
        let src = pdn_media::VideoSource::vod("v", vec![400_000], Duration::from_secs(4), 10);
        MediaPlaylist::for_source(&src, 0, 0, 10).encode()
    }

    /// Inline-size ceilings for the structs every simulated viewer pays
    /// for. These are tracked budgets, not aspirations: growing one is
    /// fine when deliberate — bump the bound in the same change and say
    /// why. (The aggregate-swarm peer has the hard <1 KB diet; see
    /// `crate::swarm::CompactPeer`.)
    #[test]
    fn hot_struct_sizes_stay_budgeted() {
        assert!(
            std::mem::size_of::<Conn>() <= 2048,
            "Conn grew past 2 KB inline (now {}): a full-fidelity agent \
             pays this per neighbor connection",
            std::mem::size_of::<Conn>()
        );
        assert!(
            std::mem::size_of::<PdnAgent>() <= 1536,
            "PdnAgent inline size grew (now {})",
            std::mem::size_of::<PdnAgent>()
        );
        assert!(
            std::mem::size_of::<pdn_media::Player>() <= 128,
            "Player inline size grew (now {})",
            std::mem::size_of::<pdn_media::Player>()
        );
    }

    #[test]
    fn start_emits_playlist_fetch_and_gathering() {
        let mut a = agent();
        let outs = a.start();
        assert!(outs
            .iter()
            .any(|o| matches!(o, AgentOut::Http(HttpRequest::GetPlaylist { .. }))));
        assert!(outs.iter().any(|o| matches!(o, AgentOut::UdpSend { .. })));
        assert!(outs.iter().any(|o| matches!(o, AgentOut::AllocMem(_))));
    }

    #[test]
    fn join_waits_for_both_playlist_and_gathering() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.start();
        // Playlist alone is not enough.
        let outs = a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
        );
        assert!(!outs
            .iter()
            .any(|o| matches!(o, AgentOut::Signal(SignalMsg::Join { .. }))));
        // Completing gathering triggers the join.
        a.gatherer_complete_for_tests();
        let outs = a.on_tick(SimTime::from_millis(500), &mut d);
        assert!(outs
            .iter()
            .any(|o| matches!(o, AgentOut::Signal(SignalMsg::Join { .. }))));
    }

    #[test]
    fn slow_start_segments_always_from_cdn() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.start();
        a.gatherer_complete_for_tests();
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
        );
        let outs = a.on_tick(SimTime::from_millis(500), &mut d);
        let cdn_reqs: Vec<u64> = outs
            .iter()
            .filter_map(|o| match o {
                AgentOut::Http(HttpRequest::GetSegment { seq, .. }) => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(cdn_reqs, vec![0, 1, 2], "buffer_target=3 all in slow start");
    }

    #[test]
    fn pdn_disabled_agent_never_signals() {
        let mut d = SegmentDigests::new();
        let mut rng = SimRng::seed(2);
        let mut cfg = AgentConfig::new("v", "key", "site.tv");
        cfg.pdn_enabled = false;
        let mut a = PdnAgent::new(
            cfg,
            Addr::new(10, 0, 0, 2, ports::MEDIA),
            Addr::new(30, 0, 0, 1, 3478),
            &mut rng,
        );
        let outs = a.start();
        assert!(!outs.iter().any(|o| matches!(o, AgentOut::UdpSend { .. })));
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
        );
        let outs = a.on_tick(SimTime::from_millis(500), &mut d);
        assert!(!outs.iter().any(|o| matches!(o, AgentOut::Signal(_))));
        assert!(outs
            .iter()
            .any(|o| matches!(o, AgentOut::Http(HttpRequest::GetSegment { .. }))));
    }

    #[test]
    fn cdn_segment_delivery_reaches_player() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.start();
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
        );
        a.on_tick(SimTime::from_millis(500), &mut d);
        let src = pdn_media::VideoSource::vod("v", vec![400_000], Duration::from_secs(4), 10);
        let seg = src.segment(0, 0).unwrap();
        a.on_http(
            HttpResponse::Segment {
                video: VideoId::new("v"),
                rendition: 0,
                seq: 0,
                duration_ms: 4000,
                data: seg.data.clone(),
            },
            SimTime::from_secs(1),
            &mut d,
        );
        assert_eq!(a.player().played().len(), 1);
        let (_, _, cdn) = a.traffic();
        assert_eq!(cdn, seg.len() as u64);
    }

    #[test]
    fn integrity_check_reports_im_for_cdn_segments() {
        let mut d = SegmentDigests::new();
        let mut rng = SimRng::seed(3);
        let mut cfg = AgentConfig::new("v", "key", "site.tv");
        cfg.integrity_check = true;
        cfg.sim_key = b"k".to_vec();
        let mut a = PdnAgent::new(
            cfg,
            Addr::new(10, 0, 0, 3, ports::MEDIA),
            Addr::new(30, 0, 0, 1, 3478),
            &mut rng,
        );
        a.start();
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
        );
        let src = pdn_media::VideoSource::vod("v", vec![400_000], Duration::from_secs(4), 10);
        let outs = a.on_http(
            HttpResponse::Segment {
                video: VideoId::new("v"),
                rendition: 0,
                seq: 0,
                duration_ms: 4000,
                data: src.segment(0, 0).unwrap().data,
            },
            SimTime::from_secs(1),
            &mut d,
        );
        assert!(outs
            .iter()
            .any(|o| matches!(o, AgentOut::Signal(SignalMsg::ImReport { seq: 0, .. }))));
    }

    impl PdnAgent {
        /// Test helper: mark gathering finished without a STUN roundtrip.
        pub fn gatherer_complete_for_tests(&mut self) {
            self.gatherer.finish_gathering();
        }
    }
}
