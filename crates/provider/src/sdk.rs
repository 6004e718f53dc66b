//! The client-side PDN SDK agent.
//!
//! This is the Rust analogue of the JavaScript SDK a PDN customer embeds in
//! its player page (§III-A): it fetches the manifest over HTTP, joins the
//! swarm through the signaling server, builds WebRTC connections to the
//! neighbors it is introduced to, and schedules each segment from either
//! the CDN or a peer — with the provider's *slow start* (first K segments
//! always from the CDN) and optional §V-B integrity verification.
//!
//! The agent is sans-IO: every entry point appends [`AgentOut`] actions to
//! a buffer the caller owns (and reuses), and the world harness carries
//! them out. That keeps the agent testable in isolation and the whole
//! simulation deterministic. Entry
//! points that can receive or play a segment also borrow the world's
//! [`SegmentDigests`]: every IM the agent reports or verifies, and every
//! fingerprint its player takes in a world that audits playback, is
//! looked up there.
//!
//! Security posture notes:
//! - the agent is *honest*: attacks in `pdn-core` are mounted by MITM'ing
//!   its traffic (fake CDN, spoofed headers) exactly as in the paper —
//!   a polluted segment enters through the agent's own CDN path and is
//!   then served onward in good faith;
//! - everything the agent learns about other peers is recorded in
//!   [`PdnAgent::harvested_addrs`]; run on an attacker's node, that *is*
//!   the IP-leak harvest.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use pdn_media::{
    DeliverySource, MediaPlaylist, Player, Segment, SegmentDigests, SegmentId, VideoId,
};
use pdn_simnet::{Addr, SimRng, SimTime};
use pdn_webrtc::{
    dtls, stun, Certificate, CheckList, DataChannel, DtlsEndpoint, IceAgent, IceEvent,
    SessionDescription,
};

use crate::proto::{HttpRequest, HttpResponse, SignalMsg};
use crate::sched;
use crate::signaling::parse_hex32;
use crate::state::{AvailMap, VecMap};
use crate::wire::{self, P2pRef, P2pView};

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
    /// Segments of look-ahead buffer the scheduler maintains.
    pub const BUFFER_TARGET: u64 = 3;
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

struct Conn {
    remote_peer: u64,
    role: ConnRole,
    /// The neighbor's signaled description and our checks toward it.
    checks: CheckList,
    link: Link,
    /// Segments this neighbor has advertised (HAVE), one bit each.
    avail: AvailMap,
}

/// A connection's media link: ICE checks (`media` may be learned early
/// from a peer-reflexive check), then the DTLS handshake (an initiator
/// keeps its ClientHello to retransmit), then the data channel. Only
/// `Handshaking` holds an endpoint or a ClientHello.
enum Link {
    Checking {
        media: Option<Addr>,
        retries: u32,
    },
    Handshaking {
        media: Addr,
        ep: DtlsEndpoint,
        client_hello: Option<Bytes>,
    },
    /// `legacy_draw_due` holds until the first DTLS record arrives (see
    /// [`Conn::legacy_endpoint_draw`]).
    Established {
        media: Addr,
        chan: DataChannel,
        legacy_draw_due: bool,
    },
}

impl Link {
    /// A link before its first ICE check.
    const NEW: Link = Link::Checking {
        media: None,
        retries: 0,
    };

    /// The remote media address, once known.
    fn media(&self) -> Option<Addr> {
        match *self {
            Link::Checking { media, .. } => media,
            Link::Handshaking { media, .. } | Link::Established { media, .. } => Some(media),
        }
    }
}

impl Conn {
    fn is_established(&self) -> bool {
        matches!(self.link, Link::Established { .. })
    }

    /// The remote media address and the data channel, once the DTLS
    /// handshake completed: the only state a P2P message is sent on.
    fn established(&mut self) -> Option<(Addr, &mut DataChannel)> {
        match &mut self.link {
            Link::Established { media, chan, .. } => Some((*media, chan)),
            _ => None,
        }
    }

    /// A fresh DTLS endpoint for this connection's role; an initiator's
    /// comes with its ClientHello.
    fn new_endpoint(&self, cert: &Certificate, rng: &mut SimRng) -> (DtlsEndpoint, Option<Bytes>) {
        let peer = Some(self.checks.remote().fingerprint);
        match self.role {
            ConnRole::Initiator => {
                let (ep, hello) = DtlsEndpoint::client(cert.clone(), peer, rng);
                (ep, Some(hello))
            }
            ConnRole::Responder => (DtlsEndpoint::server(cert.clone(), peer, rng), None),
        }
    }

    /// The RNG draws of an endpoint build that every established link
    /// still makes on its first DTLS record, whatever the record's type:
    /// a [`Conn::new_endpoint`] whose output is dropped, plus the TURN
    /// transaction id an initiator's ClientHello takes in relay mode. The
    /// draws shift every later one, so Table VI, Fig. 4 and Fig. 5 depend
    /// on them. ROADMAP item 5 deletes its one call.
    fn legacy_endpoint_draw(&self, cert: &Certificate, relay: Option<Addr>, rng: &mut SimRng) {
        let (_, hello) = self.new_endpoint(cert, rng);
        if hello.is_some() && relay.is_some() {
            turn_txid(rng);
        }
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
    /// The viewer's one ICE agent: it gathers, and it answers every
    /// connection's inbound checks.
    ice: IceAgent,
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
    /// segments (Table VI needs only the mean).
    p2p_lat_sum: Duration,
    p2p_lat_count: u64,
    reported_up: u64,
    reported_down: u64,
    last_stats: SimTime,
    polluted_rejections: u64,
    blacklisted: bool,
    last_playlist_fetch: SimTime,
    /// Reusable encode scratch for outgoing P2P frames: zero allocations
    /// per message steady-state.
    wire_scratch: BytesMut,
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
        let cert = Certificate::generate(&mut rng);
        let mut ice = IceAgent::new(ports::MEDIA, &mut rng);
        if config.relay.is_none() {
            ice.add_host_candidate(host_addr);
        }
        PdnAgent {
            sim_hmac: pdn_crypto::hmac::HmacKey::new(&config.sim_key),
            config,
            cert,
            player: Player::new(0),
            manifest: None,
            manifest_hash: String::new(),
            stun_server,
            ice,
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
            last_playlist_fetch: SimTime::ZERO,
            wire_scratch: BytesMut::with_capacity(256),
            rng,
        }
    }

    /// Starts the session: fetch the playlist; begin ICE gathering.
    pub fn start(&mut self, out: &mut Vec<AgentOut>) {
        out.push(AgentOut::AllocMem(costs::BASE_MEM));
        out.push(self.playlist_request());
        if self.config.pdn_enabled {
            out.push(AgentOut::AllocMem(costs::SDK_MEM));
            match self.config.relay {
                Some(turn) => {
                    // Relay mode: allocate a relayed address; never gather
                    // host/srflx candidates (nothing to leak).
                    let txid = turn_txid(&mut self.rng);
                    self.allocate_txid = Some(txid);
                    out.push(AgentOut::UdpSend {
                        to: turn,
                        data: pdn_webrtc::turn::allocate_request(txid),
                    });
                }
                None => {
                    push_udp_sends([self.ice.gather_srflx(self.stun_server)], out);
                }
            }
        }
    }

    /// Handles an HTTP response from the CDN plane.
    pub fn on_http(
        &mut self,
        resp: HttpResponse,
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
        match resp {
            HttpResponse::Playlist { text } => {
                let Ok(playlist) = MediaPlaylist::parse(&text) else {
                    return;
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
                self.maybe_join(out);
            }
            HttpResponse::Segment {
                video,
                rendition,
                seq,
                duration_ms,
                data,
            } => {
                if video != self.config.video {
                    return;
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
                self.accept_segment(segment, DeliverySource::Cdn, now, digests, out);
            }
            HttpResponse::NotFound => {}
        }
    }

    /// Handles a signaling message from the PDN server.
    pub fn on_signal(
        &mut self,
        msg: SignalMsg,
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
        match msg {
            SignalMsg::JoinOk { peer_id, neighbors } => {
                self.peer_id = Some(peer_id);
                for (remote_id, sdp) in neighbors {
                    self.open_conn(remote_id, sdp, ConnRole::Initiator, out);
                }
            }
            SignalMsg::PeerJoined { peer_id, sdp } => {
                self.open_conn(peer_id, sdp, ConnRole::Responder, out);
            }
            SignalMsg::SimBroadcast {
                video,
                rendition,
                seq,
                im,
                sig,
            } => {
                if video != self.config.video.0 {
                    return;
                }
                let (Some(im), Some(sig)) = (parse_hex32(&im), parse_hex32(&sig)) else {
                    return;
                };
                if !crate::signaling::SignalingServer::verify_sim_keyed(&self.sim_hmac, &im, &sig) {
                    return;
                }
                self.sims.insert((rendition, seq), (im, sig));
                // Process any held segment awaiting this SIM.
                if self
                    .held
                    .get(seq)
                    .is_some_and(|(seg, _)| seg.id.rendition == rendition)
                {
                    let (segment, _since) = self.held.remove(seq).expect("checked");
                    self.verify_and_accept_peer_segment(segment, now, digests, out);
                }
            }
            SignalMsg::Blacklisted { .. } => self.blacklisted = true,
            _ => {}
        }
    }

    /// Handles a UDP packet on the media port.
    pub fn on_udp(
        &mut self,
        from: Addr,
        data: &[u8],
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
        if stun::is_stun(data) {
            if self.config.relay.is_none() || !self.on_turn(data, now, digests, out) {
                self.on_stun(from, data, out);
            }
        } else if dtls::is_dtls(data) {
            self.on_dtls(from, data, now, digests, out);
        }
    }

    /// Relay-mode TURN handling: Allocate responses and Data indications.
    /// Returns `false` for STUN messages that are not TURN traffic.
    fn on_turn(
        &mut self,
        data: &[u8],
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) -> bool {
        use pdn_webrtc::stun::{Attribute, Class, Message, Method};
        let Ok(msg) = Message::decode(data) else {
            return false;
        };
        match (msg.class, msg.method) {
            (Class::Success, Method::Allocate) => {
                if self.allocate_txid != Some(msg.transaction_id) {
                    return true;
                }
                self.allocate_txid = None;
                let Some(relayed) = msg.attributes.iter().find_map(|a| match a {
                    Attribute::XorRelayedAddress(r) => Some(*r),
                    _ => None,
                }) else {
                    return false;
                };
                self.ice.add_relay_candidate(relayed);
                self.ice.finish_gathering();
                self.maybe_join(out);
                true
            }
            (Class::Indication, Method::Data) => {
                let peer = msg.attributes.iter().find_map(|a| match a {
                    Attribute::XorPeerAddress(p) => Some(*p),
                    _ => None,
                });
                let payload = msg.attributes.iter().find_map(|a| match a {
                    Attribute::Data(d) => Some(d.clone()),
                    _ => None,
                });
                let (Some(peer), Some(payload)) = (peer, payload) else {
                    return false;
                };
                // The logical source is the sender's *relayed* address —
                // the only identity relay-mode peers ever see.
                if dtls::is_dtls(&payload) {
                    self.on_dtls(peer, &payload, now, digests, out);
                }
                true
            }
            _ => false,
        }
    }

    /// Scheduler tick: drive playback, request segments, handle timeouts,
    /// emit stats.
    pub fn on_tick(&mut self, now: SimTime, digests: &mut SegmentDigests, out: &mut Vec<AgentOut>) {
        self.player.tick(now, digests);

        // Playback CPU baseline while media is flowing.
        if !self.player.played().is_empty() {
            out.push(AgentOut::ChargeCpu(Duration::from_secs_f64(
                costs::TICK.as_secs_f64() * costs::PLAYBACK_CPU,
            )));
        }

        // Retry gathering → join if the playlist raced ahead of STUN.
        self.maybe_join(out);

        // ICE check retransmission (hole punching through restricted NATs
        // needs retries; relay mode skips ICE), and ClientHello
        // retransmission for flights lost to UDP drops.
        const MAX_CHECK_RETRIES: u32 = 20;
        let mut retransmits: Vec<(Addr, Bytes)> = Vec::new();
        let local_ufrag = self.ice.credentials().0;
        for conn in &mut self.conns {
            match &mut conn.link {
                Link::Checking { retries, .. } => {
                    if self.config.relay.is_none() && *retries < MAX_CHECK_RETRIES {
                        *retries += 1;
                        push_udp_sends(conn.checks.retransmit(local_ufrag), out);
                    }
                }
                Link::Handshaking {
                    media,
                    client_hello: Some(hello),
                    ..
                } => retransmits.push((*media, hello.clone())),
                Link::Handshaking { .. } | Link::Established { .. } => {}
            }
        }
        for (remote, hello) in retransmits {
            self.udp_out(remote, hello, out);
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
                >= Duration::from_secs(4) * costs::BUFFER_TARGET as u32 / 2
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
            out.push(self.playlist_request());
        }

        // Request scheduling.
        self.schedule_requests(now, out);

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
                self.verify_and_accept_peer_segment(segment, now, digests, out);
            } else {
                self.fetch_from_cdn(seq, now, out);
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
            self.fetch_from_cdn(seq, now, out);
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

    /// Every remote transport address this agent has learned: the
    /// candidates its neighbors signaled. On an attacker's node this is
    /// the §IV-D IP harvest.
    pub fn harvested_addrs(&self) -> Vec<Addr> {
        let mut v = Vec::new();
        for c in &self.conns {
            v.extend(c.checks.remote().candidate_addrs());
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn maybe_join(&mut self, out: &mut Vec<AgentOut>) {
        if !self.config.pdn_enabled
            || self.join_sent
            || self.manifest.is_none()
            || !self.ice.is_gathering_complete()
        {
            return;
        }
        self.join_sent = true;
        let sdp = self.ice.local_description(self.cert.fingerprint());
        out.push(AgentOut::Signal(SignalMsg::Join {
            api_key: self.config.api_key.clone(),
            token: self.config.token.clone(),
            origin: self.config.origin.clone(),
            video: self.config.video.0.clone(),
            manifest_hash: self.manifest_hash.clone(),
            sdp,
        }));
    }

    fn open_conn(
        &mut self,
        remote_peer: u64,
        sdp: SessionDescription,
        role: ConnRole,
        out: &mut Vec<AgentOut>,
    ) {
        let Err(slot) = self
            .conns_by_peer
            .binary_search_by_key(&remote_peer, |&i| self.conns[i as usize].remote_peer)
        else {
            return;
        };
        let mut checks = CheckList::new(sdp, self.rng.fork(remote_peer));
        let relay_remote = self.config.relay.and_then(|_| {
            checks
                .remote()
                .candidates
                .iter()
                .find(|c| c.kind == pdn_webrtc::CandidateKind::Relay)
                .map(|c| c.addr)
        });
        if relay_remote.is_none() {
            // Both sides run checks (full ICE): the responder's checks are
            // what open its NAT mapping toward the initiator for cone NATs.
            push_udp_sends(checks.start(self.ice.credentials().0), out);
        }
        self.conns_by_peer.insert(slot, self.conns.len() as u32);
        self.conns.push(Conn {
            remote_peer,
            role,
            checks,
            link: Link::NEW,
            avail: AvailMap::new(),
        });
        if let Some(remote) = relay_remote {
            // Relay mode skips ICE entirely: the relayed addresses are
            // already reachable, so go straight to DTLS.
            self.on_ice_connected(self.conns.len() - 1, remote, out);
        }
    }

    fn on_stun(&mut self, from: Addr, data: &[u8], out: &mut Vec<AgentOut>) {
        // Peer-reflexive learning: an inbound check's USERNAME is
        // "local_ufrag:remote_ufrag", so the sender's connection can be
        // identified even when the packet arrives from an address it never
        // signaled (symmetric NATs map per-destination).
        let Ok(msg) = stun::Message::decode(data) else {
            return;
        };
        let sender = msg.username().and_then(|u| u.split(':').nth(1));
        if let (stun::Class::Request, Some(ufrag)) = (msg.class, sender) {
            let conn = self
                .conns
                .iter_mut()
                .find(|c| c.checks.remote().ice_ufrag == ufrag);
            if let Some(Link::Checking { media, .. }) = conn.map(|c| &mut c.link) {
                media.get_or_insert(from);
            }
        }
        // The viewer's agent answers every check and takes the gathering
        // response; any other success answers one connection's check, and
        // only the list that sent its transaction id reacts.
        match self.ice.handle(from, &msg) {
            Some(IceEvent::SendTo { to, data }) => out.push(AgentOut::UdpSend { to, data }),
            Some(IceEvent::GatheringComplete) => self.maybe_join(out),
            None => {
                let selected = self
                    .conns
                    .iter_mut()
                    .enumerate()
                    .find_map(|(i, c)| Some((i, c.checks.on_response(&msg)?)));
                if let Some((i, remote)) = selected {
                    self.on_ice_connected(i, remote, out);
                }
            }
        }
    }

    /// The link to conn `idx` reaches the peer at `remote`: a checking
    /// link starts its DTLS handshake there (an initiator sends its
    /// ClientHello), and a later link takes `remote` as its address.
    fn on_ice_connected(&mut self, idx: usize, remote: Addr, out: &mut Vec<AgentOut>) {
        let conn = &mut self.conns[idx];
        match &mut conn.link {
            Link::Checking { .. } => {
                let (ep, client_hello) = conn.new_endpoint(&self.cert, &mut self.rng);
                conn.link = Link::Handshaking {
                    media: remote,
                    ep,
                    client_hello: client_hello.clone(),
                };
                if let Some(hello) = client_hello {
                    self.udp_out(remote, hello, out);
                }
            }
            Link::Handshaking { media, .. } | Link::Established { media, .. } => *media = remote,
        }
    }

    fn on_dtls(
        &mut self,
        from: Addr,
        data: &[u8],
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
        let Some(idx) = self.conns.iter().position(|c| match c.link.media() {
            Some(media) => media == from,
            None => c.checks.remote().candidate_addrs().any(|a| a == from),
        }) else {
            return;
        };
        // A responder may see the ClientHello before its own ICE agent
        // processed the final check response: set up the endpoint lazily.
        // An initiator's ClientHello goes nowhere here; the next tick's
        // retransmit sends it.
        if let Link::Checking { .. } = self.conns[idx].link {
            self.on_ice_connected(idx, from, &mut Vec::new());
        }
        let conn = &mut self.conns[idx];
        let ep = match &mut conn.link {
            Link::Checking { .. } => unreachable!("set up above"),
            Link::Handshaking { ep, .. } => ep,
            Link::Established {
                legacy_draw_due, ..
            } => {
                if std::mem::take(legacy_draw_due) {
                    // ROADMAP item 5: deleting this call is the fix.
                    conn.legacy_endpoint_draw(&self.cert, self.config.relay, &mut self.rng);
                }
                out.push(AgentOut::ChargeCpu(crypto_cost(data.len())));
                if let Some((_, chan)) = conn.established() {
                    if let Ok(Some(bytes)) = chan.receive_record(data) {
                        self.on_p2p_frame(idx, &bytes, now, digests, out);
                    }
                }
                return;
            }
        };
        // Implicit completion: a responder whose Finished never arrived
        // can complete the handshake from a valid data record.
        let (flight, frame) = if data.first() == Some(&23) {
            (None, ep.open(data).ok())
        } else {
            let Ok(flight) = ep.handle_handshake(data, &mut self.rng) else {
                return;
            };
            (flight, None)
        };
        let established = ep.is_established();
        let mut msg = None;
        if established {
            if let Link::Handshaking { media, ep, .. } =
                std::mem::replace(&mut conn.link, Link::NEW)
            {
                let mut chan = DataChannel::new(ep);
                msg = frame.and_then(|f| chan.ingest_plaintext(&f).ok().flatten());
                conn.link = Link::Established {
                    media,
                    chan,
                    legacy_draw_due: true,
                };
            }
        }
        if let Some(f) = flight {
            self.udp_out(from, f, out);
        }
        if established {
            self.announce_cache(idx, out);
        }
        if let Some(bytes) = msg {
            self.on_p2p_frame(idx, &bytes, now, digests, out);
        }
    }

    /// Announces the cache to a newly established neighbor, one HAVE per
    /// rendition in ascending order, each listing its sequences ascending.
    fn announce_cache(&mut self, idx: usize, out: &mut Vec<AgentOut>) {
        let mut cached: Vec<(u8, u64)> = self
            .cache
            .values()
            .map(|s| (s.id.rendition, s.id.seq))
            .collect();
        cached.sort_unstable();
        let (conns, mut tx) = self.p2p_tx();
        let Some((remote, chan)) = conns[idx].established() else {
            return;
        };
        for run in cached.chunk_by(|a, b| a.0 == b.0) {
            let seqs: Vec<u64> = run.iter().map(|&(_, seq)| seq).collect();
            let have = P2pRef::Have {
                video: tx.video,
                rendition: run[0].0,
                seqs: &seqs,
            };
            tx.send(remote, chan, &have, out);
        }
    }

    /// Handles one P2P frame from conn `idx`'s channel. Decoding borrows
    /// from the frame: the video id is checked against the channel's video
    /// without materialising a `String`, HAVE sequence numbers stream
    /// straight off the wire, and a delivered segment's payload is a
    /// zero-copy slice of the record.
    fn on_p2p_frame(
        &mut self,
        idx: usize,
        frame: &Bytes,
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
        let Some(view) = wire::decode_p2p_view(frame) else {
            return;
        };
        match view {
            P2pView::Have {
                video,
                rendition,
                seqs,
            } => {
                if video.matches(&self.config.video.0) {
                    let avail = &mut self.conns[idx].avail;
                    for s in seqs {
                        avail.insert(rendition, s);
                    }
                }
            }
            P2pView::RequestSegment {
                video,
                rendition,
                seq,
            } => {
                if self.config.upload_enabled && video.matches(&self.config.video.0) {
                    self.reply_segment(idx, rendition, seq, out);
                }
            }
            P2pView::SegmentData {
                video,
                rendition,
                seq,
                duration_ms,
                data,
                sim,
            } => {
                if !video.matches(&self.config.video.0) {
                    return;
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
                self.on_segment_data(segment, sim, now, digests, out);
            }
        }
    }

    /// Serves a cached segment to a requesting neighbor; the payload is
    /// borrowed all the way into the sealed records (no segment copy).
    fn reply_segment(&mut self, idx: usize, rendition: u8, seq: u64, out: &mut Vec<AgentOut>) {
        let Some(segment) = self.cache.get(seq) else {
            return;
        };
        if segment.id.rendition != rendition {
            return;
        }
        let duration_ms = segment.duration.as_millis() as u32;
        let data = segment.data.clone();
        let sim = self.sims.get((rendition, seq)).copied();
        let (conns, mut tx) = self.p2p_tx();
        if let Some((remote, chan)) = conns[idx].established() {
            let segment = P2pRef::SegmentData {
                video: tx.video,
                rendition,
                seq,
                duration_ms,
                data: &data,
                sim,
            };
            tx.send(remote, chan, &segment, out);
        }
    }

    fn on_segment_data(
        &mut self,
        segment: Segment,
        sim: Option<([u8; 32], [u8; 32])>,
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
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
        if !self.config.integrity_check {
            // The measured behaviour of every provider: accept
            // whatever the peer sent (the pollution vulnerability).
            self.accept_segment(segment, DeliverySource::Peer, now, digests, out);
        } else if self.sims.contains_key((rendition, seq)) {
            self.verify_and_accept_peer_segment(segment, now, digests, out);
        } else {
            // Hold until the SIM arrives; the tick handler
            // falls back to the CDN if none forms in time.
            self.held.insert(seq, (segment, now));
        }
    }

    fn verify_and_accept_peer_segment(
        &mut self,
        segment: Segment,
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
        let seq = segment.id.seq;
        let rendition = segment.id.rendition;
        let Some((im, sig)) = self.sims.get((rendition, seq)) else {
            return;
        };
        out.push(AgentOut::ChargeCpu(hash_cost(segment.len())));
        let computed = digests.im(&segment);
        let sig_ok = crate::signaling::SignalingServer::verify_sim_keyed(&self.sim_hmac, im, sig);
        if !sig_ok || computed != *im {
            // Polluted: reject and refetch from the CDN.
            self.polluted_rejections += 1;
            self.fetch_from_cdn(seq, now, out);
            return;
        }
        self.accept_segment(segment, DeliverySource::Peer, now, digests, out);
    }

    fn accept_segment(
        &mut self,
        segment: Segment,
        source: DeliverySource,
        now: SimTime,
        digests: &mut SegmentDigests,
        out: &mut Vec<AgentOut>,
    ) {
        let seq = segment.id.seq;
        let segment_rendition = segment.id.rendition;
        self.player.deliver(now, segment.clone(), source, digests);

        if !self.config.pdn_enabled || self.cache.contains_key(seq) {
            return;
        }
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
            return;
        }
        // Advertise to established neighbors (no video clone: the HAVE
        // borrows the config's id, which encodes as one byte).
        let seqs = [seq];
        let (conns, mut tx) = self.p2p_tx();
        for (remote, chan) in conns.iter_mut().filter_map(Conn::established) {
            let have = P2pRef::Have {
                video: tx.video,
                rendition: segment_rendition,
                seqs: &seqs,
            };
            tx.send(remote, chan, &have, out);
        }
    }

    fn schedule_requests(&mut self, now: SimTime, out: &mut Vec<AgentOut>) {
        let Some(manifest) = &self.manifest else {
            return;
        };
        let start = self.session_start_seq.unwrap_or(0);
        let end = manifest.media_sequence + manifest.entries.len() as u64;
        let next = self.player.next_needed_seq();
        let policy = sched::Policy {
            window: costs::BUFFER_TARGET,
            in_flight: costs::BUFFER_TARGET,
            slow_start: self.config.slow_start_segments,
        };
        let p2p = self.config.pdn_enabled && !self.blacklisted;
        sched::plan(&mut Fetch(self, now, out), policy, start, next, end, p2p);
    }

    /// Requests `seq` from the CDN at the current rendition.
    fn fetch_from_cdn(&mut self, seq: u64, now: SimTime, out: &mut Vec<AgentOut>) {
        self.requested.insert(seq, (RequestVia::Cdn, now));
        out.push(AgentOut::Http(HttpRequest::GetSegment {
            video: self.config.video.clone(),
            rendition: self.current_rendition,
            seq,
        }));
    }

    /// The (re)fetch of the playlist, whole VOD range.
    fn playlist_request(&self) -> AgentOut {
        AgentOut::Http(HttpRequest::GetPlaylist {
            video: self.config.video.clone(),
            rendition: self.config.rendition,
            from: 0,
            to: self.config.vod_end.unwrap_or(u64::MAX),
        })
    }

    /// Emits a media-plane datagram (see [`via_relay`]).
    fn udp_out(&mut self, to: Addr, data: Bytes, out: &mut Vec<AgentOut>) {
        let (to, data) = via_relay(self.config.relay, &mut self.rng, to, data);
        out.push(AgentOut::UdpSend { to, data });
    }

    /// Splits the agent into its connections and the P2P send path, so a
    /// message can borrow the config's video id while a connection's
    /// channel and the encode scratch are mutated.
    fn p2p_tx(&mut self) -> (&mut [Conn], P2pTx<'_>) {
        let PdnAgent {
            conns,
            wire_scratch,
            rng,
            config,
            p2p_up,
            ..
        } = self;
        let tx = P2pTx {
            scratch: wire_scratch,
            video: &config.video.0,
            relay: config.relay,
            rng,
            p2p_up,
        };
        (&mut conns[..], tx)
    }
}

/// The agent as the segment planner sees it: one pass at `now`.
struct Fetch<'a>(&'a mut PdnAgent, SimTime, &'a mut Vec<AgentOut>);

impl sched::Fetcher for Fetch<'_> {
    type Peer = usize;

    // Segments the player already buffered are not busy here, so they
    // may be fetched again: the re-requests of ROADMAP item 5.
    fn busy(&self, seq: u64) -> bool {
        let a = &self.0;
        a.cache.contains_key(seq) || a.requested.contains_key(seq) || a.held.contains_key(seq)
    }

    // Ascending peer-id order (`conns_by_peer`): the order the RNG pick
    // is pinned to.
    fn pick(&mut self, seq: u64) -> Option<usize> {
        let a = &mut *self.0;
        // Counting the holders and drawing the k-th is the same draw as
        // `rng.choose` over a collected list (`gen_range(0..len)`), without
        // the list.
        let holds = |i: &u32| {
            let c = &a.conns[*i as usize];
            c.is_established() && c.avail.contains(a.current_rendition, seq)
        };
        let n = a.conns_by_peer.iter().filter(|i| holds(i)).count();
        if n == 0 {
            return None;
        }
        let k = a.rng.range(0..n);
        a.conns_by_peer
            .iter()
            .filter(|i| holds(i))
            .nth(k)
            .map(|&i| i as usize)
    }

    // P2P patience: with live neighbors connected, wait a beat for a Have
    // announcement before paying the CDN. The deadline is jittered per
    // segment so exactly one swarm member gives up first and seeds the
    // others — this is what concentrates load on seed peers (Fig 5).
    fn wait(&mut self, seq: u64) -> bool {
        let (a, now) = (&mut *self.0, self.1);
        let deadline = *a.first_wanted.or_insert_with(seq, || {
            let span = a.config.cdn_patience.as_nanos() as u64;
            let jitter = (span > 0).then(|| a.rng.range(span / 2..=span * 3 / 2));
            now + Duration::from_nanos(jitter.unwrap_or(0))
        });
        a.conns.iter().any(Conn::is_established) && now < deadline
    }

    fn fetch(&mut self, seq: u64, peer: Option<usize>) {
        let Fetch(a, now, out) = self;
        a.first_wanted.remove(seq);
        let Some(idx) = peer else {
            return a.fetch_from_cdn(seq, *now, out);
        };
        let rendition = a.current_rendition;
        let via = RequestVia::Peer(a.conns[idx].remote_peer);
        a.requested.insert(seq, (via, *now));
        let (conns, mut tx) = a.p2p_tx();
        if let Some((remote, chan)) = conns[idx].established() {
            let request = P2pRef::RequestSegment {
                video: tx.video,
                rendition,
                seq,
            };
            tx.send(remote, chan, &request, out);
        }
    }
}

/// The P2P send path: the agent fields every message send touches,
/// borrowed apart from its connections (see [`PdnAgent::p2p_tx`]).
struct P2pTx<'a> {
    scratch: &'a mut BytesMut,
    /// The channel video: this agent's own, which both ends of every
    /// channel watch.
    video: &'a str,
    relay: Option<Addr>,
    rng: &'a mut SimRng,
    p2p_up: &'a mut u64,
}

impl P2pTx<'_> {
    /// Encodes `msg`'s header into the reused scratch and frames it, with
    /// the segment bytes as a second part, onto the established channel to
    /// `remote`: the segment is copied only into the sealed records.
    fn send(
        &mut self,
        remote: Addr,
        chan: &mut DataChannel,
        msg: &P2pRef<'_>,
        out: &mut Vec<AgentOut>,
    ) {
        self.scratch.clear();
        let tail = wire::encode_p2p_header_into(msg, self.video, self.scratch);
        let Ok(records) = chan.send_message(&[&self.scratch[..], tail]) else {
            return;
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

/// Emits the STUN sends of the ICE agent or a check list.
fn push_udp_sends(sends: impl IntoIterator<Item = (Addr, Bytes)>, out: &mut Vec<AgentOut>) {
    for (to, data) in sends {
        out.push(AgentOut::UdpSend { to, data });
    }
}

/// A fresh TURN transaction id: one RNG draw.
fn turn_txid(rng: &mut SimRng) -> [u8; 12] {
    let mut txid = [0u8; 12];
    txid[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
    txid
}

/// Where a media-plane datagram for `to` goes, and its bytes: wrapped in a
/// TURN Send indication to the relay when the provider relays P2P traffic
/// (§V-C), untouched otherwise.
fn via_relay(relay: Option<Addr>, rng: &mut SimRng, to: Addr, data: Bytes) -> (Addr, Bytes) {
    match relay {
        Some(turn) => (
            turn,
            pdn_webrtc::turn::send_indication(turn_txid(rng), to, data),
        ),
        None => (to, data),
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
            let (to, data) = via_relay(relay, rng, to, r);
            out.push(AgentOut::UdpSend { to, data });
        }
        return;
    }
    let frames = records
        .into_iter()
        .map(|r| via_relay(relay, rng, to, r).1)
        .collect();
    out.push(AgentOut::UdpBurst {
        to: relay.unwrap_or(to),
        frames,
    });
}

fn crypto_cost(bytes: usize) -> Duration {
    Duration::from_nanos(bytes as u64 * costs::CRYPTO_NS_PER_BYTE)
}

fn hash_cost(bytes: usize) -> Duration {
    Duration::from_nanos(bytes as u64 * costs::HASH_NS_PER_BYTE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_webrtc::turn::{TurnAction, TurnServer};

    fn agent() -> PdnAgent {
        let mut rng = SimRng::seed(1);
        PdnAgent::new(
            AgentConfig::new("v", "key", "site.tv"),
            Addr::new(10, 0, 0, 1, ports::MEDIA),
            Addr::new(30, 0, 0, 1, 3478),
            &mut rng,
        )
    }

    /// The actions one entry point appends to an empty buffer.
    fn run(f: impl FnOnce(&mut Vec<AgentOut>)) -> Vec<AgentOut> {
        let mut out = Vec::new();
        f(&mut out);
        out
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
            std::mem::size_of::<Conn>() <= 608,
            "Conn grew past 608 B inline (now {}): a full-fidelity agent \
             pays this per neighbor connection",
            std::mem::size_of::<Conn>()
        );
        assert!(
            std::mem::size_of::<PdnAgent>() <= 1064,
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
        let outs = run(|o| a.start(o));
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
        a.start(&mut Vec::new());
        // Playlist alone is not enough.
        let outs = run(|o| {
            a.on_http(
                HttpResponse::Playlist {
                    text: playlist_text(),
                },
                SimTime::ZERO,
                &mut d,
                o,
            )
        });
        assert!(!outs
            .iter()
            .any(|o| matches!(o, AgentOut::Signal(SignalMsg::Join { .. }))));
        // Completing gathering triggers the join.
        a.gathering_complete_for_tests();
        let outs = run(|o| a.on_tick(SimTime::from_millis(500), &mut d, o));
        assert!(outs
            .iter()
            .any(|o| matches!(o, AgentOut::Signal(SignalMsg::Join { .. }))));
    }

    #[test]
    fn slow_start_segments_always_from_cdn() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.start(&mut Vec::new());
        a.gathering_complete_for_tests();
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        let outs = run(|o| a.on_tick(SimTime::from_millis(500), &mut d, o));
        let cdn_reqs: Vec<u64> = outs
            .iter()
            .filter_map(|o| match o {
                AgentOut::Http(HttpRequest::GetSegment { seq, .. }) => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(
            cdn_reqs,
            vec![0, 1, 2],
            "BUFFER_TARGET = 3, all in slow start"
        );
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
        let outs = run(|o| a.start(o));
        assert!(!outs.iter().any(|o| matches!(o, AgentOut::UdpSend { .. })));
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        let outs = run(|o| a.on_tick(SimTime::from_millis(500), &mut d, o));
        assert!(!outs.iter().any(|o| matches!(o, AgentOut::Signal(_))));
        assert!(outs
            .iter()
            .any(|o| matches!(o, AgentOut::Http(HttpRequest::GetSegment { .. }))));
    }

    #[test]
    fn cdn_segment_delivery_reaches_player() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.start(&mut Vec::new());
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        a.on_tick(SimTime::from_millis(500), &mut d, &mut Vec::new());
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
            &mut Vec::new(),
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
        a.start(&mut Vec::new());
        a.on_http(
            HttpResponse::Playlist {
                text: playlist_text(),
            },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        let src = pdn_media::VideoSource::vod("v", vec![400_000], Duration::from_secs(4), 10);
        let outs = run(|o| {
            a.on_http(
                HttpResponse::Segment {
                    video: VideoId::new("v"),
                    rendition: 0,
                    seq: 0,
                    duration_ms: 4000,
                    data: src.segment(0, 0).unwrap().data,
                },
                SimTime::from_secs(1),
                &mut d,
                o,
            )
        });
        assert!(outs
            .iter()
            .any(|o| matches!(o, AgentOut::Signal(SignalMsg::ImReport { seq: 0, .. }))));
    }

    /// A SIM broadcast whose IM is 64 bytes but not 64 characters is
    /// dropped without a panic and without recording a SIM.
    #[test]
    fn sim_broadcast_with_multibyte_im_is_ignored() {
        let mut d = SegmentDigests::new();
        let mut rng = SimRng::seed(4);
        let mut cfg = AgentConfig::new("v", "key", "site.tv");
        cfg.integrity_check = true;
        cfg.sim_key = b"k".to_vec();
        let mut a = PdnAgent::new(
            cfg,
            Addr::new(10, 0, 0, 4, ports::MEDIA),
            Addr::new(30, 0, 0, 1, 3478),
            &mut rng,
        );
        a.start(&mut Vec::new());
        let im = format!("€{}", "0".repeat(61));
        assert_eq!(im.len(), 64);
        let outs = run(|o| {
            a.on_signal(
                SignalMsg::SimBroadcast {
                    video: "v".into(),
                    rendition: 0,
                    seq: 0,
                    im,
                    sig: "00".repeat(32),
                },
                SimTime::ZERO,
                &mut d,
                o,
            )
        });
        assert!(outs.is_empty());
        assert!(a.sims.is_empty());
    }

    /// Two agents paired by hand, `a` (index 0) initiating to `b`, with
    /// their media datagrams carried FIFO between them, through a TURN
    /// relay in relay mode. Signaling, HTTP and STUN-server traffic is
    /// dropped.
    struct Pair {
        agents: [PdnAgent; 2],
        hosts: [Addr; 2],
        turn: Option<TurnServer>,
        queue: VecDeque<(usize, AgentOut)>,
        digests: SegmentDigests,
    }

    const TURN_ADDR: Addr = Addr::new(50, 0, 0, 1, 3478);

    impl Pair {
        fn new(relay: bool) -> Pair {
            let hosts = [
                Addr::new(10, 0, 0, 1, ports::MEDIA),
                Addr::new(10, 0, 0, 2, ports::MEDIA),
            ];
            let mut rng = SimRng::seed(5);
            let agents = hosts.map(|host| {
                let mut cfg = AgentConfig::new("v", "key", "site.tv");
                cfg.relay = relay.then_some(TURN_ADDR);
                PdnAgent::new(cfg, host, Addr::new(30, 0, 0, 1, 3478), &mut rng)
            });
            let mut pair = Pair {
                agents,
                hosts,
                turn: relay.then(|| TurnServer::new(std::net::Ipv4Addr::new(50, 0, 0, 1))),
                queue: VecDeque::new(),
                digests: SegmentDigests::new(),
            };
            // Relay mode: start() allocates, and the relayed address is
            // the agent's only candidate.
            for i in 0..2 {
                let mut out = Vec::new();
                pair.agents[i].start(&mut out);
                pair.push(i, out);
            }
            while pair.step() {}
            let [sdp_a, sdp_b] = pair
                .agents
                .each_ref()
                .map(|a| a.ice.local_description(a.cert.fingerprint()));
            let mut out = Vec::new();
            pair.agents[0].open_conn(2, sdp_b, ConnRole::Initiator, &mut out);
            pair.push(0, out);
            let mut out = Vec::new();
            pair.agents[1].open_conn(1, sdp_a, ConnRole::Responder, &mut out);
            pair.push(1, out);
            pair
        }

        fn push(&mut self, from: usize, out: Vec<AgentOut>) {
            self.queue.extend(out.into_iter().map(|o| (from, o)));
        }

        /// Carries the next queued datagram; `false` once none is left.
        fn step(&mut self) -> bool {
            let Some((from, o)) = self.queue.pop_front() else {
                return false;
            };
            let frames = match o {
                AgentOut::UdpSend { to, data } => vec![(to, data)],
                AgentOut::UdpBurst { to, frames } => frames.into_iter().map(|f| (to, f)).collect(),
                _ => Vec::new(),
            };
            for (to, data) in frames {
                let hops = match &mut self.turn {
                    Some(turn) if to == TURN_ADDR => turn
                        .handle_packet(self.hosts[from], &data)
                        .into_iter()
                        .map(|TurnAction::SendTo { to, data }| {
                            // A relayed address hairpins to its owner.
                            let dest = turn.owner_of(to.port).filter(|_| to.ip == TURN_ADDR.ip);
                            (TURN_ADDR, dest.unwrap_or(to), data)
                        })
                        .collect(),
                    _ => vec![(self.hosts[from], to, data)],
                };
                for (src, dst, data) in hops {
                    let Some(i) = self.hosts.iter().position(|&h| h == dst) else {
                        continue;
                    };
                    let mut out = Vec::new();
                    self.agents[i].on_udp(src, &data, SimTime::ZERO, &mut self.digests, &mut out);
                    self.push(i, out);
                }
            }
            true
        }

        fn phases(&self) -> [&'static str; 2] {
            self.agents.each_ref().map(|a| match a.conns[0].link {
                Link::Checking { .. } => "checking",
                Link::Handshaking { .. } => "handshaking",
                Link::Established { .. } => "established",
            })
        }

        /// Whether any of `out`'s datagrams carries a DTLS handshake
        /// record (a TURN Send indication is unwrapped first).
        fn carries_handshake(out: &[AgentOut]) -> bool {
            out.iter().any(|o| {
                let AgentOut::UdpSend { data, .. } = o else {
                    return false;
                };
                let payload = match stun::Message::decode(data) {
                    Ok(msg) => msg.attributes.into_iter().find_map(|a| match a {
                        stun::Attribute::Data(d) => Some(d),
                        _ => None,
                    }),
                    Err(_) => Some(data.clone()),
                };
                payload.is_some_and(|p| dtls::is_dtls(&p) && p[0] == 22)
            })
        }

        fn tick(&mut self, i: usize) -> Vec<AgentOut> {
            let mut out = Vec::new();
            self.agents[i].on_tick(SimTime::ZERO, &mut self.digests, &mut out);
            out
        }

        /// Queues one HAVE from agent `from` on its established channel.
        fn send_have(&mut self, from: usize, seq: u64) {
            let mut out = Vec::new();
            let (conns, mut tx) = self.agents[from].p2p_tx();
            let (remote, chan) = conns[0].established().expect("established");
            let have = P2pRef::Have {
                video: tx.video,
                rendition: 0,
                seqs: &[seq],
            };
            tx.send(remote, chan, &have, &mut out);
            self.push(from, out);
        }
    }

    /// Both sides walk checking → handshaking → established (relay mode
    /// skips ICE, so its links are handshaking as they open); the
    /// initiator re-sends its ClientHello while handshaking and never
    /// after; and each side's first DTLS record after establishment, and
    /// only that one, makes the legacy endpoint draw.
    fn lifecycle(relay: bool) {
        let mut pair = Pair::new(relay);
        let mut seen = vec![pair.phases()];
        let mut hello_resent = false;
        while pair.step() {
            let phases = pair.phases();
            if phases[0] == "handshaking" && !hello_resent {
                // Dropped, as if lost: the handshake goes on without it.
                hello_resent = Pair::carries_handshake(&pair.tick(0));
                assert!(
                    hello_resent,
                    "a handshaking initiator re-sends its ClientHello"
                );
            }
            if seen.last() != Some(&phases) {
                seen.push(phases);
            }
        }
        for side in 0..2 {
            let walk: Vec<&str> = seen.iter().map(|p| p[side]).fold(Vec::new(), |mut w, p| {
                if w.last() != Some(&p) {
                    w.push(p);
                }
                w
            });
            let want: &[&str] = if relay {
                &["handshaking", "established"]
            } else {
                &["checking", "handshaking", "established"]
            };
            assert_eq!(walk, want, "side {side} (relay {relay})");
        }
        for side in 0..2 {
            assert!(!Pair::carries_handshake(&pair.tick(side)));
        }
        for (from, to) in [(0, 1), (1, 0)] {
            let agent = &pair.agents[to];
            let conn = &agent.conns[0];
            let mut want = agent.rng.clone();
            conn.legacy_endpoint_draw(&agent.cert, agent.config.relay, &mut want);
            pair.send_have(from, 1);
            while pair.step() {}
            let drawn = pair.agents[to].rng.clone();
            assert_eq!(
                drawn.clone().next_u64(),
                want.next_u64(),
                "first record draws"
            );
            pair.send_have(from, 2);
            while pair.step() {}
            assert_eq!(
                pair.agents[to].rng.clone().next_u64(),
                drawn.clone().next_u64(),
                "later records draw nothing"
            );
            assert!(pair.agents[to].conns[0].avail.contains(0, 2));
        }
    }

    #[test]
    fn direct_link_walks_checking_handshaking_established() {
        lifecycle(false);
    }

    #[test]
    fn relayed_link_walks_handshaking_established() {
        lifecycle(true);
    }

    /// A second agent at `10.0.0.2`, gathered (host candidate only in
    /// direct mode), whose SDP the tests below introduce to `agent()`.
    fn remote_sdp() -> SessionDescription {
        let mut b = PdnAgent::new(
            AgentConfig::new("v", "key", "site.tv"),
            Addr::new(10, 0, 0, 2, ports::MEDIA),
            Addr::new(30, 0, 0, 1, 3478),
            &mut SimRng::seed(9),
        );
        b.gathering_complete_for_tests();
        b.ice.local_description(b.cert.fingerprint())
    }

    fn udp_targets(out: &[AgentOut]) -> Vec<Addr> {
        out.iter()
            .filter_map(|o| match o {
                AgentOut::UdpSend { to, .. } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn join_ok_records_peer_id_and_initiates_to_neighbors() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let sdp = remote_sdp();
        let host_b = sdp.candidates[0].addr;
        let outs = run(|o| {
            a.on_signal(
                SignalMsg::JoinOk {
                    peer_id: 5,
                    neighbors: vec![(2, sdp)],
                },
                SimTime::ZERO,
                &mut d,
                o,
            )
        });
        assert_eq!(a.peer_id(), Some(5));
        assert_eq!(a.conns.len(), 1);
        assert_eq!(a.conns[0].role, ConnRole::Initiator);
        assert!(matches!(
            a.conns[0].link,
            Link::Checking {
                media: None,
                retries: 0
            }
        ));
        assert_eq!(udp_targets(&outs), vec![host_b], "one check per candidate");
        assert_eq!(a.established_conns(), 0);
    }

    #[test]
    fn peer_joined_opens_a_responder_conn() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let outs = run(|o| {
            a.on_signal(
                SignalMsg::PeerJoined {
                    peer_id: 8,
                    sdp: remote_sdp(),
                },
                SimTime::ZERO,
                &mut d,
                o,
            )
        });
        assert_eq!(a.conns[0].role, ConnRole::Responder);
        assert_eq!(a.conns[0].remote_peer, 8);
        assert_eq!(
            udp_targets(&outs).len(),
            1,
            "full ICE: responders check too"
        );
    }

    #[test]
    fn repeated_introduction_keeps_the_first_conn() {
        let mut a = agent();
        let sdp = remote_sdp();
        a.open_conn(2, sdp.clone(), ConnRole::Initiator, &mut Vec::new());
        let outs = run(|o| a.open_conn(2, sdp, ConnRole::Responder, o));
        assert!(outs.is_empty());
        assert_eq!(a.conns.len(), 1);
        assert_eq!(a.conns_by_peer, vec![0]);
        assert_eq!(a.conns[0].role, ConnRole::Initiator);
    }

    #[test]
    fn conns_by_peer_stays_sorted_by_remote_id() {
        let mut a = agent();
        let sdp = remote_sdp();
        for peer in [7, 3, 9, 1] {
            a.open_conn(peer, sdp.clone(), ConnRole::Responder, &mut Vec::new());
        }
        let by_peer: Vec<u64> = a
            .conns_by_peer
            .iter()
            .map(|&i| a.conns[i as usize].remote_peer)
            .collect();
        assert_eq!(by_peer, vec![1, 3, 7, 9]);
    }

    #[test]
    fn checking_link_retransmits_checks_at_most_twenty_ticks() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.open_conn(2, remote_sdp(), ConnRole::Initiator, &mut Vec::new());
        let candidates = &a.conns[0].checks.remote().candidates;
        let (host_b, per_tick) = (candidates[0].addr, candidates.len());
        let mut sent = 0;
        for _ in 0..25 {
            let targets = udp_targets(&run(|o| a.on_tick(SimTime::ZERO, &mut d, o)));
            assert!(targets.iter().all(|&to| to == host_b));
            sent += targets.len();
        }
        assert_eq!(sent, 20 * per_tick);
        assert!(matches!(
            a.conns[0].link,
            Link::Checking { retries: 20, .. }
        ));
    }

    #[test]
    fn relay_mode_checking_link_never_retransmits_checks() {
        let mut d = SegmentDigests::new();
        let mut cfg = AgentConfig::new("v", "key", "site.tv");
        cfg.relay = Some(TURN_ADDR);
        let mut a = PdnAgent::new(
            cfg,
            Addr::new(10, 0, 0, 1, ports::MEDIA),
            Addr::new(30, 0, 0, 1, 3478),
            &mut SimRng::seed(1),
        );
        // The remote offers no relay candidate, so the link checks.
        let outs = run(|o| a.open_conn(2, remote_sdp(), ConnRole::Initiator, o));
        assert_eq!(udp_targets(&outs).len(), 1);
        for _ in 0..3 {
            let outs = run(|o| a.on_tick(SimTime::ZERO, &mut d, o));
            assert!(udp_targets(&outs).is_empty());
        }
        assert!(matches!(a.conns[0].link, Link::Checking { retries: 0, .. }));
    }

    /// An inbound check names its sender's ufrag, so a checking link
    /// learns its media address from it, even from an address the peer
    /// never signaled; the first address learned sticks.
    #[test]
    fn peer_reflexive_check_teaches_a_checking_link_its_media() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let sdp = remote_sdp();
        let username = format!("{}:{}", a.ice.credentials().0, sdp.ice_ufrag);
        a.open_conn(2, sdp, ConnRole::Responder, &mut Vec::new());
        let mapped = [Addr::new(99, 0, 0, 9, 5555), Addr::new(99, 0, 0, 9, 6666)];
        for (i, from) in mapped.into_iter().enumerate() {
            let check = stun::Message::binding_request([i as u8; 12])
                .with(stun::Attribute::Username(username.clone()))
                .encode();
            a.on_udp(from, &check, SimTime::ZERO, &mut d, &mut Vec::new());
        }
        assert!(matches!(a.conns[0].link, Link::Checking { .. }));
        assert_eq!(a.conns[0].link.media(), Some(mapped[0]));
    }

    #[test]
    fn check_naming_an_unknown_ufrag_teaches_nothing() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.open_conn(2, remote_sdp(), ConnRole::Responder, &mut Vec::new());
        let check = stun::Message::binding_request([3; 12])
            .with(stun::Attribute::Username("x:stranger".into()))
            .encode();
        a.on_udp(
            Addr::new(99, 0, 0, 9, 5555),
            &check,
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        assert_eq!(a.conns[0].link.media(), None);
    }

    /// The viewer's one ICE agent answers a check meant for any of its
    /// connections, reflecting the address the check came from.
    #[test]
    fn viewer_agent_answers_a_conns_check_with_the_mapped_address() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let sdp = remote_sdp();
        let (ufrag, pwd) = a.ice.credentials();
        let check = stun::Message::binding_request([5; 12])
            .with(stun::Attribute::Username(format!(
                "{ufrag}:{}",
                sdp.ice_ufrag
            )))
            .with_integrity(&pdn_crypto::hmac::HmacKey::new(pwd.as_bytes()))
            .encode();
        a.open_conn(2, sdp, ConnRole::Responder, &mut Vec::new());
        let from = Addr::new(99, 0, 0, 9, 5555);
        let outs = run(|o| a.on_udp(from, &check, SimTime::ZERO, &mut d, o));
        let [AgentOut::UdpSend { to, data }] = &outs[..] else {
            panic!("expected one reply, got {outs:?}");
        };
        let reply = stun::Message::decode(data).unwrap();
        assert_eq!(*to, from);
        assert_eq!(reply.class, stun::Class::Success);
        assert_eq!(reply.mapped_address(), Some(from));
    }

    /// A check response moves only the connection whose check list sent
    /// its transaction id, whichever connection comes first.
    #[test]
    fn check_response_selects_only_the_conn_that_sent_it() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let mut other = remote_sdp();
        other.ice_ufrag = "u-other".into();
        other.candidates[0].addr = Addr::new(10, 0, 0, 3, ports::MEDIA);
        a.open_conn(2, remote_sdp(), ConnRole::Initiator, &mut Vec::new());
        let outs = run(|o| a.open_conn(3, other, ConnRole::Initiator, o));
        let [AgentOut::UdpSend { to, data }] = &outs[..] else {
            panic!("expected one check, got {outs:?}");
        };
        let txid = stun::Message::decode(data).unwrap().transaction_id;
        let resp = stun::Message::binding_success(txid, Addr::new(99, 0, 0, 9, 5555)).encode();
        a.on_udp(*to, &resp, SimTime::ZERO, &mut d, &mut Vec::new());
        assert!(matches!(a.conns[0].link, Link::Checking { .. }));
        assert!(matches!(a.conns[1].link, Link::Handshaking { media, .. } if media == *to));
    }

    /// A DTLS record that beats ICE to a checking link sets the endpoint
    /// up there; an initiator's ClientHello is held back and goes out on
    /// the next tick, to the record's source.
    #[test]
    fn dtls_before_ice_defers_the_client_hello_to_the_next_tick() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let sdp = remote_sdp();
        let host_b = sdp.candidates[0].addr;
        a.open_conn(2, sdp, ConnRole::Initiator, &mut Vec::new());
        let mut rng = SimRng::seed(11);
        let (_, stray) = DtlsEndpoint::client(Certificate::generate(&mut rng), None, &mut rng);
        let outs = run(|o| a.on_udp(host_b, &stray, SimTime::ZERO, &mut d, o));
        assert!(!Pair::carries_handshake(&outs));
        assert!(matches!(
            a.conns[0].link,
            Link::Handshaking {
                client_hello: Some(_),
                ..
            }
        ));
        assert_eq!(a.conns[0].link.media(), Some(host_b));
        let outs = run(|o| a.on_tick(SimTime::ZERO, &mut d, o));
        assert!(Pair::carries_handshake(&outs));
        assert_eq!(udp_targets(&outs), vec![host_b]);
    }

    #[test]
    fn dtls_from_an_unknown_address_is_dropped() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.open_conn(2, remote_sdp(), ConnRole::Responder, &mut Vec::new());
        let mut rng = SimRng::seed(12);
        let (_, hello) = DtlsEndpoint::client(Certificate::generate(&mut rng), None, &mut rng);
        let before = a.rng.clone().next_u64();
        let outs = run(|o| {
            a.on_udp(
                Addr::new(77, 0, 0, 7, 4000),
                &hello,
                SimTime::ZERO,
                &mut d,
                o,
            )
        });
        assert!(outs.is_empty());
        assert!(matches!(a.conns[0].link, Link::Checking { .. }));
        assert_eq!(a.rng.clone().next_u64(), before, "no endpoint was built");
    }

    /// ICE may re-select a pair after the handshake: an established
    /// link moves to the new address and keeps its channel.
    #[test]
    fn ice_connected_moves_an_established_link() {
        let mut pair = Pair::new(false);
        while pair.step() {}
        let moved = Addr::new(10, 0, 0, 2, 4444);
        let outs = run(|o| pair.agents[0].on_ice_connected(0, moved, o));
        assert!(outs.is_empty());
        assert!(pair.agents[0].conns[0].is_established());
        assert_eq!(pair.agents[0].conns[0].link.media(), Some(moved));
    }

    #[test]
    fn established_pair_counts_one_conn_per_side() {
        let mut pair = Pair::new(false);
        assert_eq!(
            pair.agents.each_ref().map(|a| a.established_conns()),
            [0, 0]
        );
        while pair.step() {}
        assert_eq!(
            pair.agents.each_ref().map(|a| a.established_conns()),
            [1, 1]
        );
    }

    /// §IV-D: a direct connection hands each side the other's host
    /// address.
    #[test]
    fn direct_pair_harvests_the_peer_host_address() {
        let mut pair = Pair::new(false);
        while pair.step() {}
        assert!(pair.agents[0].harvested_addrs().contains(&pair.hosts[1]));
        assert!(pair.agents[1].harvested_addrs().contains(&pair.hosts[0]));
    }

    /// §V-C: through a TURN relay each side learns only relayed
    /// addresses, never the other's host.
    #[test]
    fn relayed_pair_harvests_only_relay_addresses() {
        let mut pair = Pair::new(true);
        while pair.step() {}
        for (side, agent) in pair.agents.iter().enumerate() {
            let harvest = agent.harvested_addrs();
            assert!(!harvest.is_empty());
            assert!(
                harvest.iter().all(|a| a.ip == TURN_ADDR.ip),
                "side {side} harvested {harvest:?}"
            );
        }
    }

    #[test]
    fn blacklisted_signal_marks_the_agent() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        assert!(!a.is_blacklisted());
        a.on_signal(
            SignalMsg::Blacklisted {
                reason: "polluter".into(),
            },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        assert!(a.is_blacklisted());
    }

    #[test]
    fn stats_report_every_interval_once_joined() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let stats_at = |a: &mut PdnAgent, d: &mut SegmentDigests, secs: u64| {
            run(|o| a.on_tick(SimTime::from_secs(secs), d, o))
                .iter()
                .filter(|o| matches!(o, AgentOut::Signal(SignalMsg::StatsReport { .. })))
                .count()
        };
        assert_eq!(stats_at(&mut a, &mut d, 5), 0, "no report before joining");
        a.on_signal(
            SignalMsg::JoinOk {
                peer_id: 1,
                neighbors: Vec::new(),
            },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        assert_eq!(stats_at(&mut a, &mut d, 5), 1);
        assert_eq!(stats_at(&mut a, &mut d, 9), 0);
        assert_eq!(stats_at(&mut a, &mut d, 10), 1);
    }

    #[test]
    fn live_playlist_is_refetched_every_two_seconds() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        let src = pdn_media::VideoSource::live("v", vec![400_000], Duration::from_secs(4));
        let text = MediaPlaylist::for_source(&src, 0, 0, 3).encode();
        a.on_http(
            HttpResponse::Playlist { text },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        assert_eq!(a.manifest_hash, "live");
        let refetches = |a: &mut PdnAgent, d: &mut SegmentDigests, ms: u64| {
            run(|o| a.on_tick(SimTime::from_millis(ms), d, o))
                .iter()
                .filter(|o| matches!(o, AgentOut::Http(HttpRequest::GetPlaylist { .. })))
                .count()
        };
        assert_eq!(refetches(&mut a, &mut d, 1500), 0);
        assert_eq!(refetches(&mut a, &mut d, 2000), 1);
        assert_eq!(refetches(&mut a, &mut d, 3500), 0);
        assert_eq!(refetches(&mut a, &mut d, 4000), 1);
    }

    #[test]
    fn segment_for_another_video_is_ignored() {
        let mut d = SegmentDigests::new();
        let mut a = agent();
        a.on_http(
            HttpResponse::Segment {
                video: VideoId::new("other"),
                rendition: 0,
                seq: 0,
                duration_ms: 4000,
                data: Bytes::from_static(b"not ours"),
            },
            SimTime::ZERO,
            &mut d,
            &mut Vec::new(),
        );
        assert_eq!(a.traffic(), (0, 0, 0));
        assert!(a.player().played().is_empty());
    }

    impl PdnAgent {
        /// Test helper: mark gathering finished without a STUN roundtrip.
        pub fn gathering_complete_for_tests(&mut self) {
            self.ice.finish_gathering();
        }
    }
}
