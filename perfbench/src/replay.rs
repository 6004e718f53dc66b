//! The tracker layer replay: the traffic of one `run_service` call,
//! regenerated from the same config and seed and driven through the
//! public layer calls with a span around each one.
//!
//! It is the open-loop serving loop of `pdn_provider::service::harness`
//! spelled out against public APIs — the same node layout, `RatePlan`
//! arrivals through `PoissonArrivals`, Join/Leave/StatsReport/ImReport and
//! greeter frames, 5 ms tick and unit budget, and the same RNG streams —
//! so its counts track the real run's, and any drift between the two is
//! reported as `replay.*_delta_pct`.
//!
//! Spans read a monotonic clock around every call into a layer:
//! `BoundedInboxes::offer` and `drain_tick` (inbox),
//! `SignalingServer::handle_frames_batch_into` and `handle_frame_into`
//! (signaling), `SignalMsg::decode` (wire), `Cdn::serve_segment` (cdn) and
//! `Network::send` + `step` (net). The calibrated cost of an empty span is
//! subtracted from every span.

use std::time::{Duration, Instant};

use bytes::Bytes;
use pdn_media::{Cdn, OriginServer, SegmentId, VideoId, VideoSource};
use pdn_provider::service::{is_leave_frame, Admit, BoundedInboxes, ServiceConfig};
use pdn_provider::signaling::{AdmissionBatch, SignalingServer};
use pdn_provider::{CustomerAccount, ProviderProfile, SignalMsg};
use pdn_simnet::{
    Addr, Datagram, Event, GeoInfo, LinkSpec, Network, NodeId, PoissonArrivals, RatePlan, SimRng,
    SimTime, Transport,
};
use pdn_webrtc::{Candidate, CandidateKind, Certificate, SessionDescription};

/// How far, in percent, the replay's admitted and refused counts may
/// drift from the real run's before the benchmark fails the check.
pub const TOLERANCE_PCT: f64 = 1.0;

const TOK_TICK: u64 = 0;
const TOK_ARRIVAL: u64 = 1;
const TOK_GREETER: u64 = 2;
const TOK_SESSION_END: u64 = 1;
const TOK_STATS: u64 = 2;
const ATTACKERS: usize = 4;
const CLIENT_PORT: u16 = 5000;
const IM_HEX: &str = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff";

/// Accumulated span time and call count of one layer call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
}

impl Span {
    /// Mean nanoseconds per `per` (calls, frames, joins…), with the
    /// calibrated empty-span cost removed per call.
    pub fn mean_ns(&self, per: u64, empty_ns: f64) -> f64 {
        let net = self.ns as f64 - empty_ns * self.calls as f64;
        net.max(0.0) / per.max(1) as f64
    }
}

#[inline]
fn span<T>(s: &mut Span, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    s.ns += t.elapsed().as_nanos() as u64;
    s.calls += 1;
    out
}

/// Measured cost of one empty [`span`], in nanoseconds.
pub fn empty_span_ns() -> f64 {
    const N: u64 = 200_000;
    let mut s = Span::default();
    for _ in 0..1_000 {
        span(&mut s, || ());
    }
    let mut s = Span::default();
    let t = Instant::now();
    for _ in 0..N {
        span(&mut s, || std::hint::black_box(()));
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Spans and counts of one replay.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub offer: Span,
    pub drain: Span,
    pub admit: Span,
    pub other: Span,
    pub decode: Span,
    pub serve: Span,
    pub send: Span,
    pub step: Span,
    /// Frames offered to the inbox.
    pub offered: u64,
    /// Frames the inbox refused (denied, shed or backpressured).
    pub refused: u64,
    /// Join frames handed to the batched admission path.
    pub joins_admitted: u64,
    /// Admission-batch memo hits.
    pub batch_hits: u64,
    /// Datagrams sent through the network.
    pub frames_sent: u64,
    /// Sessions that received `JoinOk` / `JoinDenied`.
    pub joins_ok: u64,
    pub joins_denied: u64,
    /// Arrivals offered by the plan.
    pub arrivals: u64,
    /// Arrivals turned away at the client-pool cap.
    pub turned_away: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Joining,
    Fetching,
    Watching,
}

#[derive(Clone, Copy)]
struct Client {
    state: State,
    session: u64,
}

/// One replay world. See the [module docs](self).
pub struct Replay {
    cfg: ServiceConfig,
    net: Network,
    server: NodeId,
    cdn_node: NodeId,
    attackers: Vec<NodeId>,
    server_addr: Addr,
    cdn_addr: Addr,
    first_client: u32,
    sig: SignalingServer,
    cdn: Cdn,
    seg_id: SegmentId,
    join_frame: Bytes,
    overload_deny: Bytes,
    leave_frame: Bytes,
    stats_frame: Bytes,
    greeter_frame: Bytes,
    inbox: BoundedInboxes,
    batch: AdmissionBatch,
    arrivals: PoissonArrivals,
    greeters: Option<PoissonArrivals>,
    rng: SimRng,
    clients: Vec<Client>,
    free: Vec<u32>,
    im_seq: u64,
    run_end: SimTime,
    hard_end: SimTime,
    tick_joins: Vec<(Addr, Bytes)>,
    tick_other: Vec<(Addr, Bytes)>,
    tick_out: Vec<(Addr, Bytes)>,
    layers: Layers,
}

impl Replay {
    /// Builds the replay world for `cfg`, laid out like `ServiceWorld`.
    pub fn new(cfg: &ServiceConfig) -> Self {
        let mut net = Network::new(cfg.seed);
        net.set_capture(true);
        net.set_capture_limit(cfg.capture_limit);
        let server = net.add_public_host(GeoInfo::new("US", 1, "AS-PDN"), LinkSpec::datacenter());
        let cdn_link = LinkSpec {
            latency: Duration::from_millis(2),
            jitter: Duration::from_millis(1),
            up_bps: 100_000_000_000,
            down_bps: 100_000_000_000,
            loss: 0.0,
        };
        let cdn_node = net.add_public_host(GeoInfo::new("US", 1, "AS-CDN"), cdn_link);
        let attackers: Vec<NodeId> = (0..ATTACKERS)
            .map(|i| {
                net.add_public_host(
                    GeoInfo::new("RU", 1 + i as u16, "AS-GREET"),
                    LinkSpec::residential(),
                )
            })
            .collect();
        let server_addr = Addr::from_ip(net.ip(server), 443);
        let cdn_addr = Addr::from_ip(net.ip(cdn_node), 80);
        net.set_capture_filter(Box::new(move |_, d| d.dst == server_addr));

        let mut profile = ProviderProfile::peer5();
        profile.segment_integrity_check = true;
        let mut sig = SignalingServer::new(profile, cfg.seed);
        sig.accounts_mut().register(CustomerAccount::new(
            "svc",
            "svc-key",
            ["svc.example".to_string()],
        ));
        let mut origin = OriginServer::new();
        origin.publish(VideoSource::vod(
            "v",
            vec![1_600_000],
            Duration::from_millis(500),
            16,
        ));
        let join_frame = SignalMsg::Join {
            api_key: Some("svc-key".into()),
            token: None,
            origin: "svc.example".into(),
            video: "v".into(),
            manifest_hash: "m0".into(),
            sdp: template_sdp(cfg.seed),
        }
        .encode();

        let mut arrivals = PoissonArrivals::new(cfg.plan.clone(), cfg.seed);
        let mut greeters = (cfg.greeter_per_sec > 0.0).then(|| {
            PoissonArrivals::new(
                RatePlan::Steady {
                    per_sec: cfg.greeter_per_sec,
                },
                cfg.seed ^ 0x9e37_79b9,
            )
        });
        let run_end = SimTime::ZERO + cfg.run_for;
        net.set_timer(server, cfg.tick, TOK_TICK);
        let first = arrivals.next_arrival();
        if first <= run_end {
            net.set_timer(server, first.saturating_since(SimTime::ZERO), TOK_ARRIVAL);
        }
        if let Some(g) = greeters.as_mut() {
            let at = g.next_arrival();
            if at <= run_end {
                net.set_timer(server, at.saturating_since(SimTime::ZERO), TOK_GREETER);
            }
        }

        Replay {
            cfg: cfg.clone(),
            net,
            server,
            cdn_node,
            attackers,
            server_addr,
            cdn_addr,
            first_client: 2 + ATTACKERS as u32,
            sig,
            cdn: Cdn::new(origin, 64 << 20),
            seg_id: SegmentId {
                video: VideoId::new("v"),
                rendition: 0,
                seq: 0,
            },
            join_frame,
            overload_deny: SignalMsg::JoinDenied {
                reason: "overloaded".into(),
            }
            .encode(),
            leave_frame: SignalMsg::Leave.encode(),
            stats_frame: SignalMsg::StatsReport {
                p2p_up_bytes: 1_000,
                p2p_down_bytes: 3_000,
            }
            .encode(),
            greeter_frame: Bytes::from_static(b"HELLO-PDN-GREETER/1.0 who-has-segments?"),
            inbox: BoundedInboxes::new(cfg.inbox),
            batch: AdmissionBatch::new(),
            arrivals,
            greeters,
            rng: SimRng::seed(cfg.seed ^ 0x5e71_1ce5),
            clients: Vec::new(),
            free: Vec::new(),
            im_seq: 0,
            run_end,
            hard_end: run_end + cfg.mean_session * 2 + Duration::from_secs(5),
            tick_joins: Vec::new(),
            tick_other: Vec::new(),
            tick_out: Vec::new(),
            layers: Layers::default(),
        }
    }

    /// Runs the replay to the same hard end as the real run.
    pub fn run(mut self) -> Layers {
        while let Some((now, ev)) = span(&mut self.layers.step, || self.net.step()) {
            if now > self.hard_end {
                break;
            }
            self.dispatch(now, ev);
        }
        self.layers.batch_hits = self.batch.hits();
        self.layers
    }

    fn send(&mut self, node: NodeId, port: u16, dst: Addr, frame: Bytes) {
        let net = &mut self.net;
        span(&mut self.layers.send, || {
            net.send(node, port, dst, Transport::Tcp, frame)
        });
        self.layers.frames_sent += 1;
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Timer { node, token } if node == self.server => match token {
                TOK_TICK => self.on_tick(now),
                TOK_ARRIVAL => {
                    self.layers.arrivals += 1;
                    self.start_session();
                    let at = self.arrivals.next_arrival();
                    if at <= self.run_end {
                        self.net
                            .set_timer(self.server, at.saturating_since(now), TOK_ARRIVAL);
                    }
                }
                TOK_GREETER => self.on_greeter(now),
                _ => {}
            },
            Event::Timer { node, token } => self.on_client_timer(node, token),
            Event::Packet { to, dgram } if to == self.server => self.on_server_packet(now, dgram),
            Event::Packet { to, dgram } if to == self.cdn_node => {
                let (cdn, seg_id) = (&mut self.cdn, &self.seg_id);
                if let Some(seg) = span(&mut self.layers.serve, || cdn.serve_segment(seg_id)) {
                    self.send(self.cdn_node, 80, dgram.src, seg.data);
                }
            }
            Event::Packet { to, dgram } => self.on_client_packet(to, dgram),
            Event::Burst { .. } => {}
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        self.tick_joins.clear();
        self.tick_other.clear();
        self.tick_out.clear();
        let (inbox, joins, other) = (&mut self.inbox, &mut self.tick_joins, &mut self.tick_other);
        let budget = self.cfg.tick_budget;
        span(&mut self.layers.drain, || {
            inbox.drain_tick(budget, joins, other)
        });
        self.layers.joins_admitted += self.tick_joins.len() as u64;
        let (sig, geoip) = (&mut self.sig, self.net.geoip());
        let (batch, out) = (&mut self.batch, &mut self.tick_out);
        span(&mut self.layers.admit, || {
            sig.handle_frames_batch_into(&self.tick_joins, now, geoip, batch, out)
        });
        for (from, frame) in &self.tick_other {
            span(&mut self.layers.other, || {
                sig.handle_frame_into(*from, frame, now, geoip, out)
            });
        }
        let mut replies = std::mem::take(&mut self.tick_out);
        for (dst, frame) in replies.drain(..) {
            self.send(self.server, 443, dst, frame);
        }
        self.tick_out = replies;
        if now < self.hard_end {
            self.net.set_timer(self.server, self.cfg.tick, TOK_TICK);
        }
    }

    fn start_session(&mut self) {
        let slot = self.free.pop().or_else(|| {
            (self.clients.len() < self.cfg.max_clients).then(|| {
                self.clients.push(Client {
                    state: State::Idle,
                    session: 0,
                });
                let idx = self.clients.len() as u32 - 1;
                self.net
                    .add_public_host(client_geo(idx), LinkSpec::residential());
                idx
            })
        });
        let Some(idx) = slot else {
            self.layers.turned_away += 1;
            return;
        };
        let c = &mut self.clients[idx as usize];
        c.session += 1;
        c.state = State::Joining;
        let node = NodeId(self.first_client + idx);
        self.send(node, CLIENT_PORT, self.server_addr, self.join_frame.clone());
    }

    fn on_greeter(&mut self, now: SimTime) {
        let Some(g) = self.greeters.as_ref() else {
            return;
        };
        let attacker = self.attackers[(g.now().as_secs_f64() * 1e3) as usize % ATTACKERS];
        self.send(attacker, 4444, self.server_addr, self.greeter_frame.clone());
        let at = self
            .greeters
            .as_mut()
            .expect("checked above")
            .next_arrival();
        if at <= self.run_end {
            self.net
                .set_timer(self.server, at.saturating_since(now), TOK_GREETER);
        }
    }

    fn on_client_timer(&mut self, node: NodeId, token: u64) {
        let idx = (node.0 - self.first_client) as usize;
        let (kind, session) = (token & 0b11, token >> 2);
        let c = self.clients[idx];
        if c.session != session || c.state != State::Watching {
            return;
        }
        match kind {
            TOK_SESSION_END => {
                self.send(
                    node,
                    CLIENT_PORT,
                    self.server_addr,
                    self.leave_frame.clone(),
                );
                self.clients[idx].state = State::Idle;
                self.free.push(idx as u32);
            }
            TOK_STATS => {
                self.send(
                    node,
                    CLIENT_PORT,
                    self.server_addr,
                    self.stats_frame.clone(),
                );
                self.net
                    .set_timer(node, self.cfg.stats_every, (session << 2) | TOK_STATS);
            }
            _ => {}
        }
    }

    fn on_server_packet(&mut self, now: SimTime, dgram: Datagram) {
        self.layers.offered += 1;
        let inbox = &mut self.inbox;
        let admit = span(&mut self.layers.offer, || {
            inbox.offer(dgram.src, dgram.payload.clone())
        });
        match admit {
            Admit::Enqueued => {}
            Admit::Backpressure | Admit::Shed => self.layers.refused += 1,
            Admit::DenyJoin => {
                self.layers.refused += 1;
                if is_leave_frame(&dgram.payload) {
                    self.sig.remove_peer_by_addr(dgram.src, now);
                } else {
                    self.send(self.server, 443, dgram.src, self.overload_deny.clone());
                }
            }
        }
    }

    fn on_client_packet(&mut self, to: NodeId, dgram: Datagram) {
        if to.0 < self.first_client {
            return;
        }
        let idx = (to.0 - self.first_client) as usize;
        match self.clients[idx].state {
            State::Joining => {
                let payload = &dgram.payload;
                let msg = span(&mut self.layers.decode, || SignalMsg::decode(payload));
                match msg {
                    Some(SignalMsg::JoinOk { .. }) => {
                        self.layers.joins_ok += 1;
                        self.clients[idx].state = State::Fetching;
                        self.send(
                            to,
                            CLIENT_PORT,
                            self.cdn_addr,
                            Bytes::from_static(b"GET /v/0/0"),
                        );
                    }
                    Some(SignalMsg::JoinDenied { .. }) => {
                        self.layers.joins_denied += 1;
                        self.clients[idx].state = State::Idle;
                        self.free.push(idx as u32);
                    }
                    _ => {}
                }
            }
            State::Fetching if dgram.src == self.cdn_addr => {
                let session = self.clients[idx].session;
                let len = self.cfg.mean_session.mul_f64(self.rng.range(0.5..1.5));
                self.clients[idx].state = State::Watching;
                self.net
                    .set_timer(to, len, (session << 2) | TOK_SESSION_END);
                self.net
                    .set_timer(to, self.cfg.stats_every, (session << 2) | TOK_STATS);
                self.im_seq += 1;
                let report = SignalMsg::ImReport {
                    video: "v".into(),
                    rendition: 0,
                    seq: self.im_seq,
                    im: IM_HEX.into(),
                }
                .encode();
                self.send(to, CLIENT_PORT, self.server_addr, report);
            }
            _ => {}
        }
    }
}

/// The harness's shared client SDP: identity is the transport address.
fn template_sdp(seed: u64) -> SessionDescription {
    let mut rng = SimRng::seed(seed ^ 0x5d9);
    SessionDescription {
        ice_ufrag: "svc-u".into(),
        ice_pwd: "svc-p".into(),
        fingerprint: Certificate::generate(&mut rng).fingerprint(),
        candidates: vec![Candidate::new(
            CandidateKind::Host,
            Addr::new(198, 51, 100, 1, CLIENT_PORT),
        )],
    }
}

/// The harness's deterministic global audience mix.
fn client_geo(idx: u32) -> GeoInfo {
    const MIX: [(&str, &str); 6] = [
        ("US", "AS7922"),
        ("DE", "AS3320"),
        ("BR", "AS28573"),
        ("JP", "AS4713"),
        ("IN", "AS45609"),
        ("GB", "AS2856"),
    ];
    let (country, isp) = MIX[idx as usize % MIX.len()];
    GeoInfo::new(country, (1 + (idx / MIX.len() as u32) % 7) as u16, isp)
}
