//! The simulation world: wires the PDN service, CDN, STUN server and
//! viewers onto the `pdn-simnet` fabric and runs the event loop.
//!
//! This plays the role of the paper's test deployment (§IV-A): "we rent an
//! AWS EC2 instance with Wowza Streaming Engine deployed … and we utilize
//! Amazon CloudFront as our CDN", plus one Docker container per peer. The
//! analyzer in `pdn-core` builds attack scenarios by spawning viewers here
//! and installing taps on their nodes.

use std::time::Duration;

use pdn_media::{Cdn, DigestStats, OriginServer, SegmentDigests, VideoSource};
use pdn_simnet::profile::{phase, Phase};
use pdn_simnet::{Addr, Event, GeoInfo, LinkSpec, NatKind, Network, NodeId, SimTime, Transport};
use pdn_webrtc::{stun, turn::TurnServer};

use crate::profiles::ProviderProfile;
use crate::proto::{HttpRequest, HttpResponse, SignalMsg};
use crate::sdk::{ports, AgentConfig, AgentOut, PdnAgent};
use crate::signaling::SignalingServer;

/// Timer token: per-viewer scheduler tick.
const TOKEN_TICK: u64 = 1;
/// Timer token: global per-second resource sampling.
const TOKEN_SAMPLE: u64 = 2;

/// Specification of one viewer to spawn.
#[derive(Debug, Clone)]
pub struct ViewerSpec {
    /// Geographic registration.
    pub geo: GeoInfo,
    /// NAT in front of the viewer, if any.
    pub nat: Option<NatKind>,
    /// Access link.
    pub link: LinkSpec,
    /// SDK configuration.
    pub config: AgentConfig,
}

impl ViewerSpec {
    /// A US residential viewer with the given SDK config.
    pub fn residential(config: AgentConfig) -> Self {
        ViewerSpec {
            geo: GeoInfo::new("US", 1, "AS7922"),
            nat: None,
            link: LinkSpec::residential(),
            config,
        }
    }
}

/// The assembled simulation world. See the [module docs](self).
pub struct PdnWorld {
    net: Network,
    server: SignalingServer,
    cdn: Cdn,
    turn: TurnServer,
    stun_node: NodeId,
    stun_addr: Addr,
    signal_node: NodeId,
    signal_addr: Addr,
    cdn_node: NodeId,
    cdn_addr: Addr,
    turn_node: NodeId,
    turn_addr: Addr,
    /// Viewer agents in a slab indexed by `NodeId` (node ids are dense and
    /// sequential): packet dispatch is an array index, not a hash probe.
    viewers: Vec<Option<PdnAgent>>,
    /// Reused reply buffer for signaling frame handling.
    signal_out: Vec<(Addr, bytes::Bytes)>,
    /// IMs and playback fingerprints of the segments in this world, lent
    /// to every viewer's agent and player.
    digests: SegmentDigests,
}

impl std::fmt::Debug for PdnWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PdnWorld")
            .field("now", &self.net.now())
            .field("viewers", &self.viewers.iter().flatten().count())
            .finish()
    }
}

impl PdnWorld {
    /// Builds a world running `profile`, deterministically seeded.
    pub fn new(profile: ProviderProfile, seed: u64) -> Self {
        let mut net = Network::new(seed);
        let infra_geo = GeoInfo::new("US", 0, "AS16509");
        let stun_node = net.add_public_host(infra_geo.clone(), LinkSpec::datacenter());
        let signal_node = net.add_public_host(infra_geo.clone(), LinkSpec::datacenter());
        let cdn_node = net.add_public_host(infra_geo.clone(), LinkSpec::datacenter());
        let turn_node = net.add_public_host(infra_geo, LinkSpec::datacenter());
        let stun_addr = Addr::from_ip(net.ip(stun_node), 3478);
        let signal_addr = Addr::from_ip(net.ip(signal_node), 443);
        let cdn_addr = Addr::from_ip(net.ip(cdn_node), 80);
        let turn_addr = Addr::from_ip(net.ip(turn_node), 3478);
        let turn = TurnServer::new(net.ip(turn_node));
        let server = SignalingServer::new(profile, seed);
        let cdn = Cdn::new(OriginServer::new(), 256 << 20);
        // Arm the per-second resource sampler.
        net.set_timer(stun_node, Duration::from_secs(1), TOKEN_SAMPLE);
        PdnWorld {
            net,
            server,
            cdn,
            turn,
            stun_node,
            stun_addr,
            signal_node,
            signal_addr,
            cdn_node,
            cdn_addr,
            turn_node,
            turn_addr,
            viewers: Vec::new(),
            signal_out: Vec::new(),
            digests: SegmentDigests::new(),
        }
    }

    /// Publishes a video on the CDN origin (and, when the profile runs the
    /// §V-B defense, gives the signaling server origin access for conflict
    /// resolution).
    pub fn publish_video(&mut self, source: VideoSource) {
        if self.server.profile().segment_integrity_check {
            let mut origin = OriginServer::new();
            origin.publish(source.clone());
            self.server.attach_origin(origin);
        }
        self.cdn.origin_mut().publish(source);
    }

    /// Spawns a viewer; returns its node ID.
    ///
    /// When the provider profile relays P2P via TURN (§V-C), the viewer's
    /// SDK is configured for relay mode automatically.
    pub fn spawn_viewer(&mut self, mut spec: ViewerSpec) -> NodeId {
        if self.server.profile().relay_via_turn && spec.config.relay.is_none() {
            spec.config.relay = Some(self.turn_addr);
        }
        let node = match spec.nat {
            Some(kind) => {
                let nat = self.net.add_nat(kind, &spec.geo);
                self.net.add_host_behind(nat, spec.geo, spec.link)
            }
            None => self.net.add_public_host(spec.geo, spec.link),
        };
        let host_addr = Addr::from_ip(self.net.ip(node), ports::MEDIA);
        let stun_addr = self.stun_addr;
        let mut rng = self.net.rng().fork(node.0 as u64 ^ 0xa6e47);
        let mut agent = PdnAgent::new(spec.config, host_addr, stun_addr, &mut rng);
        let outs = agent.start();
        let idx = node.0 as usize;
        if idx >= self.viewers.len() {
            self.viewers.resize_with(idx + 1, || None);
        }
        self.viewers[idx] = Some(agent);
        self.apply_outs(node, outs);
        self.net
            .set_timer(node, crate::sdk::costs::TICK, TOKEN_TICK);
        node
    }

    /// Runs the event loop until virtual time `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.net.next_event_at() {
            if at > deadline {
                break;
            }
            let (at, ev) = self.net.step().expect("peeked event exists");
            self.dispatch(at, ev);
        }
        if self.net.now() < deadline {
            self.net.advance_to(deadline);
        }
    }

    /// Runs the event loop for `d` more virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.net.now() + d;
        self.run_until(deadline);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The SDK agent of a viewer.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a viewer.
    pub fn agent(&self, node: NodeId) -> &PdnAgent {
        self.viewers
            .get(node.0 as usize)
            .and_then(Option::as_ref)
            .expect("node is a viewer")
    }

    /// The signaling server (meters, defense stats, policies).
    pub fn server(&self) -> &SignalingServer {
        &self.server
    }

    /// Mutable signaling server access (register accounts, set policies).
    pub fn server_mut(&mut self) -> &mut SignalingServer {
        &mut self.server
    }

    /// The CDN (billing, cache stats).
    pub fn cdn(&self) -> &Cdn {
        &self.cdn
    }

    /// The network fabric (taps, captures, resources).
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable network access (install taps, capture, inject faults).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Address of the signaling server.
    pub fn signal_addr(&self) -> Addr {
        self.signal_addr
    }

    /// Address of the CDN front end.
    pub fn cdn_addr(&self) -> Addr {
        self.cdn_addr
    }

    /// Address of the STUN server.
    pub fn stun_addr(&self) -> Addr {
        self.stun_addr
    }

    /// Address of the TURN relay service.
    pub fn turn_addr(&self) -> Addr {
        self.turn_addr
    }

    /// How the world's segment digests were answered: SHA-256 IMs and
    /// playback fingerprints computed, and repeats answered from the memo.
    pub fn digest_stats(&self) -> DigestStats {
        self.digests.stats()
    }

    /// The TURN relay (allocation counts, relayed-byte cost).
    pub fn turn(&self) -> &TurnServer {
        &self.turn
    }

    fn dispatch(&mut self, at: SimTime, ev: Event) {
        match ev {
            Event::Packet { to, dgram } => {
                if to == self.stun_node {
                    self.on_stun_server(dgram);
                } else if to == self.signal_node {
                    let _g = phase(Phase::Signal);
                    let mut replies = std::mem::take(&mut self.signal_out);
                    replies.clear();
                    self.server.handle_frame_into(
                        dgram.src,
                        &dgram.payload,
                        at,
                        self.net.geoip(),
                        &mut replies,
                    );
                    for (addr, reply) in replies.drain(..) {
                        self.net
                            .send(self.signal_node, 443, addr, Transport::Tcp, reply);
                    }
                    self.signal_out = replies;
                } else if to == self.cdn_node {
                    let _g = phase(Phase::Http);
                    self.on_cdn(dgram);
                } else if to == self.turn_node {
                    self.on_turn(dgram);
                } else if self.viewers.get(to.0 as usize).is_some_and(Option::is_some) {
                    self.on_viewer_packet(to, dgram, at);
                }
            }
            // One queue event; each datagram is handled like a lone packet.
            Event::Burst { to, dgrams } => {
                for dgram in dgrams {
                    self.dispatch(at, Event::Packet { to, dgram });
                }
            }
            Event::Timer { node, token } => match token {
                TOKEN_SAMPLE => {
                    self.net.sample_resources();
                    self.net
                        .set_timer(self.stun_node, Duration::from_secs(1), TOKEN_SAMPLE);
                    let _ = node;
                }
                TOKEN_TICK => {
                    let _g = phase(Phase::Tick);
                    if let Some(agent) = self
                        .viewers
                        .get_mut(node.0 as usize)
                        .and_then(Option::as_mut)
                    {
                        let outs = agent.on_tick(at, &mut self.digests);
                        self.apply_outs(node, outs);
                        self.net
                            .set_timer(node, crate::sdk::costs::TICK, TOKEN_TICK);
                    }
                }
                _ => {}
            },
        }
    }

    fn on_stun_server(&mut self, dgram: pdn_simnet::Datagram) {
        let Ok(msg) = stun::Message::decode(&dgram.payload) else {
            return;
        };
        if msg.class == stun::Class::Request && msg.method == stun::Method::Binding {
            // Reflect the wire source — through a NAT this is the mapping,
            // which is exactly what srflx candidates are.
            let resp = stun::Message::binding_success(msg.transaction_id, dgram.src);
            self.net.send(
                self.stun_node,
                3478,
                dgram.src,
                Transport::Udp,
                resp.encode(),
            );
        }
    }

    fn on_cdn(&mut self, dgram: pdn_simnet::Datagram) {
        let Some(req) = HttpRequest::decode(&dgram.payload) else {
            return;
        };
        let frame = match req {
            HttpRequest::GetMaster { video } => match self.cdn.serve_master(&video) {
                Some(text) => HttpResponse::Playlist { text },
                None => HttpResponse::NotFound,
            }
            .encode(),
            HttpRequest::GetPlaylist {
                video,
                rendition,
                from,
                to,
            } => {
                let window = self.cdn.origin().source(&video).map(|src| {
                    match src.total_segments() {
                        Some(total) => (from.min(total), to.min(total)),
                        None => {
                            // Live: serve the sliding window behind the edge.
                            let edge =
                                src.live_edge(self.net.now().saturating_since(SimTime::ZERO));
                            let start = from.max(edge.saturating_sub(6));
                            (start.min(edge), to.min(edge))
                        }
                    }
                });
                match window {
                    Some((from, end)) => {
                        match self.cdn.serve_playlist(&video, rendition, from, end) {
                            Some(text) => HttpResponse::Playlist { text },
                            None => HttpResponse::NotFound,
                        }
                    }
                    None => HttpResponse::NotFound,
                }
                .encode()
            }
            HttpRequest::GetSegment {
                video,
                rendition,
                seq,
            } => {
                let id = pdn_media::SegmentId {
                    video,
                    rendition,
                    seq,
                };
                // Cached segments answer with the edge's shared frame.
                match self
                    .cdn
                    .serve_segment_frame(&id, &HttpResponse::encode_segment)
                {
                    Some(frame) => frame,
                    None => HttpResponse::NotFound.encode(),
                }
            }
        };
        self.net
            .send(self.cdn_node, 80, dgram.src, Transport::Tcp, frame);
    }

    fn on_turn(&mut self, dgram: pdn_simnet::Datagram) {
        use pdn_webrtc::turn::TurnAction;
        let actions = if dgram.dst.port == 3478 {
            self.turn.handle_packet(dgram.src, &dgram.payload)
        } else {
            self.turn
                .handle_relayed(dgram.dst.port, dgram.src, &dgram.payload)
        };
        for TurnAction::SendTo { to, data } in actions {
            // A target on the relay's own IP is another client's relayed
            // address: hairpin straight to the owning client.
            let dest = if to.ip == self.net.ip(self.turn_node) {
                match self.turn.owner_of(to.port) {
                    Some(owner) => owner,
                    None => continue,
                }
            } else {
                to
            };
            self.net
                .send(self.turn_node, 3478, dest, Transport::Udp, data);
        }
    }

    fn on_viewer_packet(&mut self, node: NodeId, dgram: pdn_simnet::Datagram, at: SimTime) {
        let agent = self
            .viewers
            .get_mut(node.0 as usize)
            .and_then(Option::as_mut)
            .expect("checked by caller");
        let outs = match dgram.dst.port {
            ports::SIGNAL => {
                let _g = phase(Phase::Signal);
                match SignalMsg::decode(&dgram.payload) {
                    Some(msg) => agent.on_signal(msg, at, &mut self.digests),
                    None => Vec::new(),
                }
            }
            ports::HTTP => {
                let _g = phase(Phase::Http);
                match HttpResponse::decode(&dgram.payload) {
                    Some(resp) => agent.on_http(resp, at, &mut self.digests),
                    None => Vec::new(),
                }
            }
            ports::MEDIA => {
                let _g = phase(Phase::P2p);
                agent.on_udp(dgram.src, &dgram.payload, at, &mut self.digests)
            }
            _ => Vec::new(),
        };
        self.apply_outs(node, outs);
    }

    fn apply_outs(&mut self, node: NodeId, outs: Vec<AgentOut>) {
        for out in outs {
            match out {
                AgentOut::Signal(msg) => {
                    self.net.send(
                        node,
                        ports::SIGNAL,
                        self.signal_addr,
                        Transport::Tcp,
                        msg.encode(),
                    );
                }
                AgentOut::Http(req) => {
                    self.net.send(
                        node,
                        ports::HTTP,
                        self.cdn_addr,
                        Transport::Tcp,
                        req.encode(),
                    );
                }
                AgentOut::UdpSend { to, data } => {
                    self.net.send(node, ports::MEDIA, to, Transport::Udp, data);
                }
                AgentOut::UdpBurst { to, frames } => {
                    self.net
                        .send_burst(node, ports::MEDIA, to, Transport::Udp, frames);
                }
                AgentOut::ChargeCpu(d) => self.net.resources_mut(node).charge_cpu(d),
                AgentOut::AllocMem(b) => self.net.resources_mut(node).alloc_mem(b),
                AgentOut::FreeMem(b) => self.net.resources_mut(node).free_mem(b),
            }
        }
    }
}

/// Convenience: a complete two-viewer world on a published VOD, used by
/// many tests and examples.
pub fn demo_world(seed: u64) -> (PdnWorld, Vec<NodeId>) {
    use crate::auth::CustomerAccount;

    let mut world = PdnWorld::new(ProviderProfile::peer5(), seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new(
            "demo-customer",
            "demo-key",
            ["demo.tv".to_string()],
        ));
    world.publish_video(VideoSource::vod(
        "demo-video",
        vec![1_000_000],
        Duration::from_secs(4),
        30,
    ));
    let mut cfg = AgentConfig::new("demo-video", "demo-key", "demo.tv");
    cfg.vod_end = Some(30);
    let a = world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
    // Stagger the second viewer so the first has cached segments to serve.
    let spawn_b_at = SimTime::from_secs(10);
    world.run_until(spawn_b_at);
    let b = world.spawn_viewer(ViewerSpec::residential(cfg));
    (world, vec![a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes as _Bytes;

    #[test]
    fn end_to_end_playback_and_p2p_offload() {
        let (mut world, viewers) = demo_world(11);
        world.run_until(SimTime::from_secs(140));
        let (a, b) = (viewers[0], viewers[1]);

        // Both viewers joined the swarm and played the whole VOD.
        assert!(world.agent(a).peer_id().is_some());
        assert!(world.agent(b).peer_id().is_some());
        assert_eq!(world.agent(a).player().played().len(), 30, "A finished");
        assert_eq!(world.agent(b).player().played().len(), 30, "B finished");

        // B (the latecomer) pulled some segments from A.
        assert!(
            world.agent(b).player().p2p_offload_ratio() > 0.2,
            "offload {} too low",
            world.agent(b).player().p2p_offload_ratio()
        );
        let (_, b_down, _) = world.agent(b).traffic();
        assert!(b_down > 0, "P2P bytes flowed");

        // And played content is authentic (no pollution without attack).
        let src = VideoSource::vod("demo-video", vec![1_000_000], Duration::from_secs(4), 30);
        for rec in world.agent(b).player().played() {
            let authentic = src.segment(0, rec.id.seq).unwrap();
            assert_eq!(
                rec.content_hash,
                pdn_media::content_fingerprint(&authentic.data),
                "segment {} authentic",
                rec.id.seq
            );
        }
    }

    #[test]
    fn viewer_hours_and_p2p_traffic_are_billed() {
        let (mut world, _) = demo_world(12);
        world.run_until(SimTime::from_secs(120));
        let meter = world.server().meter("demo-customer");
        assert_eq!(meter.joins, 2);
        assert!(meter.p2p_bytes > 0, "P2P traffic metered");
        assert!(meter.viewer_seconds > 0, "viewer time metered");
    }

    #[test]
    fn natted_viewers_connect_and_srflx_candidates_signal_public_ip() {
        let mut world = PdnWorld::new(ProviderProfile::peer5(), 21);
        world
            .server_mut()
            .accounts_mut()
            .register(crate::auth::CustomerAccount::new("c", "k", []));
        world.publish_video(VideoSource::vod(
            "v",
            vec![500_000],
            Duration::from_secs(4),
            20,
        ));
        let mut cfg = AgentConfig::new("v", "k", "site.tv");
        cfg.vod_end = Some(20);
        let mk = |world: &mut PdnWorld, cfg: &AgentConfig| {
            world.spawn_viewer(ViewerSpec {
                geo: GeoInfo::new("US", 2, "AS7922"),
                nat: Some(NatKind::FullCone),
                link: LinkSpec::residential(),
                config: cfg.clone(),
            })
        };
        let a = mk(&mut world, &cfg);
        world.run_until(SimTime::from_secs(8));
        let b = mk(&mut world, &cfg);
        world.run_until(SimTime::from_secs(100));
        assert_eq!(world.agent(a).player().played().len(), 20);
        assert_eq!(world.agent(b).player().played().len(), 20);
        assert!(world.agent(b).established_conns() >= 1, "P2P through NAT");
        // The IP harvest on B contains A's *public* NAT ip (srflx) and A's
        // *private* host candidate (the bogon leak).
        let harvested = world.agent(b).harvested_addrs();
        let a_public = world.net().public_ip(a);
        let a_private = world.net().ip(a);
        assert!(harvested.iter().any(|x| x.ip == a_public));
        assert!(harvested.iter().any(|x| x.ip == a_private));
    }

    #[test]
    fn no_peer_baseline_uses_cdn_only() {
        let mut world = PdnWorld::new(ProviderProfile::peer5(), 31);
        world
            .server_mut()
            .accounts_mut()
            .register(crate::auth::CustomerAccount::new("c", "k", []));
        world.publish_video(VideoSource::vod(
            "v",
            vec![500_000],
            Duration::from_secs(4),
            10,
        ));
        let mut cfg = AgentConfig::new("v", "k", "site.tv");
        cfg.pdn_enabled = false;
        cfg.vod_end = Some(10);
        let a = world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
        let b = world.spawn_viewer(ViewerSpec::residential(cfg));
        world.run_until(SimTime::from_secs(60));
        for v in [a, b] {
            assert_eq!(world.agent(v).player().played().len(), 10);
            let (up, down, cdn) = world.agent(v).traffic();
            assert_eq!(up + down, 0, "no P2P traffic");
            assert!(cdn > 0);
            assert_eq!(world.agent(v).player().p2p_offload_ratio(), 0.0);
        }
        assert_eq!(world.server().peer_count(), 0);
    }

    #[test]
    fn capture_contains_stun_then_dtls_the_detector_signature() {
        let (mut world, _) = demo_world(41);
        world.net_mut().set_capture(true);
        world.run_until(SimTime::from_secs(60));
        let frames = world.net().capture();
        let stun_at = frames
            .iter()
            .position(|f| pdn_webrtc::stun::is_stun(&f.payload));
        let dtls_at = frames
            .iter()
            .position(|f| pdn_webrtc::dtls::is_dtls(&f.payload));
        let (Some(s), Some(d)) = (stun_at, dtls_at) else {
            panic!("capture must contain both STUN and DTLS frames");
        };
        assert!(s < d, "STUN binding precedes the DTLS handshake");
        let _unused: Option<_Bytes> = None;
    }

    #[test]
    fn abr_upgrades_on_healthy_buffer_and_downgrades_on_stalls() {
        use std::time::Duration;
        // Ladder: 1 Mbps and 8 Mbps renditions.
        let ladder = vec![1_000_000, 8_000_000];
        let build = |down_bps: u64, seed: u64| {
            let mut world = PdnWorld::new(ProviderProfile::peer5(), seed);
            world
                .server_mut()
                .accounts_mut()
                .register(crate::auth::CustomerAccount::new("c", "k", []));
            world.publish_video(VideoSource::vod(
                "v",
                ladder.clone(),
                Duration::from_secs(4),
                40,
            ));
            let mut cfg = AgentConfig::new("v", "k", "site.tv");
            cfg.vod_end = Some(40);
            cfg.abr_max_rendition = Some(1);
            let v = world.spawn_viewer(ViewerSpec {
                geo: GeoInfo::new("US", 1, "AS7922"),
                nat: None,
                link: LinkSpec {
                    down_bps,
                    ..LinkSpec::residential()
                },
                config: cfg,
            });
            world.run_until(SimTime::from_secs(260));
            (world, v)
        };
        // Plenty of downlink: the viewer climbs to the top rendition and
        // finishes.
        let (world, v) = build(100_000_000, 61);
        assert_eq!(world.agent(v).current_rendition(), 1, "upgraded");
        assert_eq!(world.agent(v).player().played().len(), 40);
        // Constrained downlink (3 Mbps < the 8 Mbps top rung): upgrade
        // attempts stall, ABR steps back down with growing hysteresis, so
        // the session is dominated by the sustainable rung.
        let (world, v) = build(3_000_000, 62);
        let played = world.agent(v).player().played();
        let low = played.iter().filter(|r| r.id.rendition == 0).count();
        assert!(
            low as f64 > played.len() as f64 * 0.6,
            "most segments at the sustainable rendition: {low}/{}",
            played.len()
        );
        assert!(played.len() >= 30, "kept playing: {}", played.len());
    }

    #[test]
    fn deterministic_worlds() {
        let run = |seed| {
            let (mut world, viewers) = demo_world(seed);
            world.run_until(SimTime::from_secs(120));
            let (up, down, cdn) = world.agent(viewers[1]).traffic();
            (up, down, cdn, world.cdn().bill().egress_bytes)
        };
        assert_eq!(run(5), run(5));
    }
}
