//! The open-loop service harness: live Poisson load against one
//! signaling server + CDN origin on simnet virtual time.
//!
//! Closed-loop worlds ([`crate::world`], [`crate::swarm`]) spawn N
//! viewers and run to a deadline — each viewer politely waits for the
//! server, so the server is never *behind*. A serving story needs the
//! opposite: clients arrive on their own clock ([`PoissonArrivals`]),
//! keep arriving whether or not the server keeps up, and the server
//! survives by queueing ([`BoundedInboxes`]), shedding, and explicitly
//! rejecting — never by slowing the world down.
//!
//! One run wires up, on a deterministic [`Network`]:
//!
//! - the **signaling server** behind bounded, class-prioritized inboxes,
//!   drained every `tick` under a unit budget, joins batched through
//!   [`SignalingServer::handle_frames_batch_into`];
//! - a **CDN edge** (one fat node standing in for the edge fleet)
//!   serving the first segment of the stream;
//! - a pool of **thin clients** — join, fetch first segment, gossip
//!   stats, leave — recycled across sessions so memory stays bounded at
//!   any overload factor;
//! - optionally a **greeter flood** (§IV-B): attacker nodes spraying
//!   undecodable junk the inbox must classify and shed.
//!
//! The same world is one region of a federation
//! ([`super::run_federation`]): it implements [`ShardWorld`], so K regions
//! run as conservative-PDES shards. Its [`Region`] state routes fresh
//! arrivals past an overloaded (or dead) tracker to the next region, kills
//! the tracker at a failover instant, hands its live sessions off, and
//! takes in what its neighbor sends. A plain [`run_service`] world is
//! region 0 of 1, where none of that ever acts; single-tracker and
//! federated runs share one dispatcher.
//!
//! Everything is virtual-time deterministic: the same
//! [`ServiceConfig`] always produces the same [`ServiceReport`], down to
//! every histogram bucket.

use std::time::Duration;

use bytes::Bytes;
use pdn_media::{Cdn, OriginServer, SegmentId, VideoId, VideoSource};
use pdn_simnet::shard::ShardWorld;
use pdn_simnet::{
    Addr, Event, GeoInfo, LatencyHistogram, LinkSpec, Network, NodeId, PoissonArrivals, RatePlan,
    SimRng, SimTime, Transport,
};
use pdn_webrtc::{Candidate, CandidateKind, Certificate, SessionDescription};

use super::federation::{FederationConfig, HandoffRecord};
use super::inbox::{is_leave_frame, Admit, BoundedInboxes, InboxConfig, MsgClass, ShedStats};
use crate::auth::CustomerAccount;
use crate::profiles::ProviderProfile;
use crate::proto::SignalMsg;
use crate::signaling::{AdmissionBatch, SignalingServer};

/// Every timer the world sets, on the server node or a client node. The
/// network carries it as an opaque `u64` token: the kind in the low
/// [`Timer::KIND_BITS`] bits, its argument above them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// Server drain period.
    Tick,
    /// The next plan arrival.
    Arrival,
    /// The next greeter-flood frame.
    Greeter,
    /// The failover instant: this region's tracker dies.
    Fail,
    /// A cross-region message parked in this slab slot is due.
    Deliver(usize),
    /// A watching client's session ends. The argument is the session
    /// generation, so a recycled node ignores its predecessor's timers.
    SessionEnd(u64),
    /// A watching client's gossip period (same generation argument).
    Stats(u64),
}

impl Timer {
    const KIND_BITS: u32 = 3;

    fn encode(self) -> u64 {
        let (kind, arg) = match self {
            Timer::Tick => (0, 0),
            Timer::Arrival => (1, 0),
            Timer::Greeter => (2, 0),
            Timer::Fail => (3, 0),
            Timer::Deliver(slot) => (4, slot as u64),
            Timer::SessionEnd(session) => (5, session),
            Timer::Stats(session) => (6, session),
        };
        (arg << Self::KIND_BITS) | kind
    }

    fn decode(token: u64) -> Self {
        let arg = token >> Self::KIND_BITS;
        match token & ((1 << Self::KIND_BITS) - 1) {
            0 => Timer::Tick,
            1 => Timer::Arrival,
            2 => Timer::Greeter,
            3 => Timer::Fail,
            4 => Timer::Deliver(arg as usize),
            5 => Timer::SessionEnd(arg),
            6 => Timer::Stats(arg),
            kind => unreachable!("timer kind {kind} is never encoded"),
        }
    }
}

/// Number of attacker nodes sourcing the greeter flood.
const ATTACKERS: usize = 4;
/// Client source port.
const CLIENT_PORT: u16 = 5000;

/// Everything one service run needs to know. Construct with
/// [`ServiceConfig::new`] and override fields.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// World seed; the report is a pure function of the whole config.
    pub seed: u64,
    /// Viewer arrival schedule.
    pub plan: RatePlan,
    /// How long arrivals keep coming (virtual time). In-flight sessions
    /// get a grace period to finish after this.
    pub run_for: Duration,
    /// Server drain period.
    pub tick: Duration,
    /// Work units one tick may spend (see [`MsgClass::cost`]).
    pub tick_budget: u32,
    /// Inbox capacities.
    pub inbox: InboxConfig,
    /// Greeter-flood rate (junk frames per second); 0 disables the flood.
    pub greeter_per_sec: f64,
    /// Mean session length; actual lengths draw uniformly from
    /// 0.5×..1.5× this.
    pub mean_session: Duration,
    /// Gossip period of a watching client.
    pub stats_every: Duration,
    /// Hard cap on distinct client nodes (the memory bound); arrivals
    /// beyond it are turned away at the harness and counted.
    pub max_clients: usize,
    /// Capture-ring cap in frames; overflow counts as tail drops.
    pub capture_limit: usize,
    /// Warmup excluded from the `*_measured` counters: completions at or
    /// before `ramp` (and after `run_for`) don't count toward measured
    /// goodput, so short quick-gate runs and long full runs measure the
    /// same steady-state window instead of diluting the ramp differently.
    pub ramp: Duration,
    /// What the bounded capture ring records (scenarios that only assert
    /// on signaling needn't pay ring churn for CDN/P2P frames).
    pub capture: CaptureScope,
}

/// Which datagrams the capture ring keeps. Narrowing the scope turns
/// capture-ring drops from noise (everything overflowing the ring) into a
/// signal about the traffic a scenario actually asserts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureScope {
    /// Every datagram (the historical default).
    Everything,
    /// Only signaling-plane frames addressed to the tracker.
    ServerSignaling,
}

impl ServiceConfig {
    /// A config with serving-scale defaults for `plan`.
    pub fn new(plan: RatePlan) -> Self {
        ServiceConfig {
            seed: 1,
            plan,
            run_for: Duration::from_secs(12),
            tick: Duration::from_millis(5),
            tick_budget: 160,
            inbox: InboxConfig::default(),
            greeter_per_sec: 0.0,
            mean_session: Duration::from_secs(10),
            stats_every: Duration::from_secs(5),
            max_clients: 80_000,
            capture_limit: 4_096,
            ramp: Duration::from_secs(1),
            capture: CaptureScope::Everything,
        }
    }

    /// The measured steady-state window: `run_for` minus the ramp.
    pub fn measured_window(&self) -> Duration {
        self.run_for.saturating_sub(self.ramp)
    }

    /// Joins per second one tick budget can admit if every unit went to
    /// joins — the analytic serving capacity (gossip and integrity
    /// traffic eat into it in practice).
    pub fn nominal_capacity_per_sec(&self) -> f64 {
        (self.tick_budget as f64 / MsgClass::JoinCritical.cost() as f64)
            / self.tick.as_secs_f64().max(1e-9)
    }
}

/// Counters and latency histograms from one service run. Deterministic
/// per [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Viewer arrivals offered by the plan (including turned-away ones).
    pub arrivals: u64,
    /// Sessions that received `JoinOk`.
    pub joins_ok: u64,
    /// Sessions that received `JoinDenied` (auth or overload).
    pub joins_denied: u64,
    /// Sessions that received their first segment — the goodput unit.
    pub first_segments: u64,
    /// `first_segments` completed inside the measured window
    /// `(ramp, run_for]` — the ramp-normalized goodput numerator.
    pub first_segments_measured: u64,
    /// `joins_ok` received inside the measured window — the
    /// ramp-normalized admission-rate numerator (the knee unit).
    pub joins_ok_measured: u64,
    /// Sessions that completed and left.
    pub leaves: u64,
    /// Arrivals dropped at the harness because the client pool was at
    /// `max_clients` (bounded-memory backstop, not server shedding).
    pub turned_away: u64,
    /// Frames the server actually drained and processed.
    pub served_frames: u64,
    /// Admission-batch memo hits across all ticks.
    pub batch_hits: u64,
    /// Join-to-first-segment latency (ns).
    pub jtfs: LatencyHistogram,
    /// Signaling round-trip (join sent → `JoinOk` received, ns).
    pub rtt: LatencyHistogram,
    /// Inbox shedding / backpressure counters.
    pub shed: ShedStats,
    /// Distinct client nodes ever allocated (≤ `max_clients`).
    pub peak_clients: u64,
    /// Frames lost to the bounded capture ring (tail drops).
    pub capture_dropped: u64,
    /// Frames rejected by the capture filter.
    pub capture_filtered: u64,
    /// Frames the ring actually kept (the drop-rate denominator's third
    /// leg: kept + dropped + filtered = observed).
    pub capture_kept: u64,
    /// Segment requests served by the CDN edge.
    pub cdn_requests: u64,
    /// Bytes the CDN egressed.
    pub cdn_egress_bytes: u64,
    /// Total simulator events processed.
    pub net_events: u64,
}

impl ServiceReport {
    /// Completed first-segment deliveries per offered second — the
    /// goodput the overload scenarios must hold onto.
    pub fn goodput_per_sec(&self, run_for: Duration) -> f64 {
        self.first_segments as f64 / run_for.as_secs_f64().max(1e-9)
    }

    /// Ramp-normalized goodput: first segments completed inside
    /// `(ramp, run_for]` over the window length. Comparable between quick
    /// (short) and full (long) runs, unlike [`Self::goodput_per_sec`]
    /// whose denominator dilutes the ramp proportionally to run length.
    pub fn measured_goodput_per_sec(&self, cfg: &ServiceConfig) -> f64 {
        self.first_segments_measured as f64 / cfg.measured_window().as_secs_f64().max(1e-9)
    }

    /// Ramp-normalized admission rate (`JoinOk` per second inside the
    /// measured window) — the knee unit for capacity sweeps.
    pub fn measured_joins_ok_per_sec(&self, cfg: &ServiceConfig) -> f64 {
        self.joins_ok_measured as f64 / cfg.measured_window().as_secs_f64().max(1e-9)
    }

    /// Share of capture-observed frames lost to the bounded ring, in
    /// percent (kept + dropped + filtered = observed).
    pub fn capture_drop_pct(&self) -> f64 {
        let observed = self.capture_kept + self.capture_dropped + self.capture_filtered;
        if observed == 0 {
            return 0.0;
        }
        self.capture_dropped as f64 * 100.0 / observed as f64
    }

    /// Merges `other`'s counters and histograms into `self` (federation
    /// aggregates per-region reports with this).
    pub fn merge(&mut self, other: &ServiceReport) {
        self.arrivals += other.arrivals;
        self.joins_ok += other.joins_ok;
        self.joins_denied += other.joins_denied;
        self.first_segments += other.first_segments;
        self.first_segments_measured += other.first_segments_measured;
        self.joins_ok_measured += other.joins_ok_measured;
        self.leaves += other.leaves;
        self.turned_away += other.turned_away;
        self.served_frames += other.served_frames;
        self.batch_hits += other.batch_hits;
        self.jtfs.merge(&other.jtfs);
        self.rtt.merge(&other.rtt);
        self.shed.merge(&other.shed);
        self.peak_clients += other.peak_clients;
        self.capture_dropped += other.capture_dropped;
        self.capture_filtered += other.capture_filtered;
        self.capture_kept += other.capture_kept;
        self.cdn_requests += other.cdn_requests;
        self.cdn_egress_bytes += other.cdn_egress_bytes;
        self.net_events += other.net_events;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Idle,
    Joining { sent: SimTime },
    Fetching { sent: SimTime },
    Watching,
}

/// A session carried into this tracker from a failed region: the peer's
/// old global id, the failover instant (handoff-latency origin), and the
/// remaining watch time, if the session had already drawn one.
#[derive(Debug, Clone, Copy)]
struct CarriedSession {
    old_global: u64,
    t0: SimTime,
    remaining: Option<Duration>,
}

#[derive(Debug, Clone, Copy)]
struct Client {
    state: ClientState,
    /// Session generation; stale timers from a previous occupant of this
    /// node carry an older generation and are ignored.
    session: u64,
    /// Tracker-assigned peer id of the current session (0 until JoinOk).
    peer_id: u64,
    /// Pre-determined session length (handoff re-joins carry their
    /// remaining watch time); `None` draws from the RNG as usual.
    fixed_len: Option<Duration>,
    /// Set while a handoff re-join is in flight; cleared at JoinOk.
    carried: Option<CarriedSession>,
}

const IDLE_CLIENT: Client = Client {
    state: ClientState::Idle,
    session: 0,
    peer_id: 0,
    fixed_len: None,
    carried: None,
};

/// Region tag bits in a global peer id: `(region << 56) | local`.
const REGION_SHIFT: u32 = 56;

/// Turns a region-local peer id into a global one (0 stays 0: "session
/// had no id yet"). Locals are monotone per tracker and regions are
/// fixed, so no global id is ever recycled.
fn globalize(region: usize, local: u64) -> u64 {
    if local == 0 {
        0
    } else {
        ((region as u64) << REGION_SHIFT) | local
    }
}

/// A cross-region message: a spilled arrival or a session handoff, stamped
/// with its arrival time at the destination tracker.
#[derive(Debug, Clone, Copy)]
pub struct FedMsg {
    at: SimTime,
    payload: FedPayload,
}

#[derive(Debug, Clone, Copy)]
enum FedPayload {
    /// A fresh viewer spilled from an overloaded (or dead) home region.
    Arrival,
    /// A live session migrating off a failed tracker. `old_global` is
    /// already globalized by the source region.
    Handoff(CarriedSession),
}

/// Spill and hand-off counters of one region, read once at run end.
#[derive(Debug, Default)]
pub(super) struct RegionLedger {
    /// Fresh arrivals this region routed to its neighbor.
    pub(super) spilled_out: u64,
    /// Sessions extracted from this (failed) tracker.
    pub(super) migrated_out: u64,
    /// Handoff re-joins this tracker admitted, in admission order.
    pub(super) handoffs: Vec<HandoffRecord>,
    /// Handoff re-joins denied here (an explicit answer, not a loss).
    pub(super) handoffs_denied: u64,
    /// Handoff re-joins dropped here at the client-pool cap.
    pub(super) handoffs_turned_away: u64,
    /// Sessions that migrated with no live sibling to go to (K=1).
    pub(super) handoffs_stranded: u64,
    /// Server-bound frames dropped because the tracker is dead.
    pub(super) dead_dropped: u64,
}

/// This world's place in a federation: index, sibling count, the routing
/// parameters, the slab of parked deliveries and the ledger. Region 0 of 1
/// (a plain [`run_service`]) never spills, never fails and is never
/// delivered to.
#[derive(Default)]
struct Region {
    index: usize,
    k: usize,
    /// Every cross-region message is stamped exactly this far ahead (the
    /// conservative lookahead).
    latency: Duration,
    /// Home join-queue depth at which a fresh arrival spills.
    spill_threshold: usize,
    /// Payloads parked between [`ShardWorld::deliver`] and their delivery
    /// timer firing; slot-addressed so stamps, not insertion order, decide
    /// processing order.
    slab: Vec<Option<FedPayload>>,
    free_slots: Vec<usize>,
    /// Set at the failover instant: the tracker stops draining, inbound
    /// server traffic is dropped and counted, live sessions migrate.
    dead: bool,
    ledger: RegionLedger,
}

impl Region {
    /// Ships `payload` to the next region, one inter-region latency ahead.
    fn send(&self, now: SimTime, payload: FedPayload, outbox: &mut Vec<(usize, FedMsg)>) {
        let next = (self.index + 1) % self.k;
        outbox.push((
            next,
            FedMsg {
                at: now + self.latency,
                payload,
            },
        ));
    }

    /// Globalizes and ships one migrating session to the next region. A
    /// lone region has no live sibling: the session strands (the honest
    /// K=1 failover outcome — re-joining the dead tracker itself would
    /// recycle client slots under stale in-flight replies).
    fn hand_off(&mut self, mut h: CarriedSession, now: SimTime, outbox: &mut Vec<(usize, FedMsg)>) {
        self.ledger.migrated_out += 1;
        if self.k == 1 {
            self.ledger.handoffs_stranded += 1;
            return;
        }
        h.old_global = globalize(self.index, h.old_global);
        self.send(now, FedPayload::Handoff(h), outbox);
    }
}

/// One open-loop service world: the tracker + CDN + client pool of
/// [`run_service`], and one region of a federation (see the
/// [module docs](self)). [`ServiceWorld::run`] pumps its network serially;
/// the shard runner drives it through [`ShardWorld`]. Both route every
/// event through the same dispatcher.
pub struct ServiceWorld {
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
    report: ServiceReport,
    run_end: SimTime,
    hard_end: SimTime,
    ramp_end: SimTime,
    // Reused tick scratch.
    tick_joins: Vec<(Addr, Bytes)>,
    tick_other: Vec<(Addr, Bytes)>,
    tick_out: Vec<(Addr, Bytes)>,
    region: Region,
}

impl ServiceWorld {
    /// Builds a single-tracker world: nodes, server state, pre-encoded
    /// frames, primed timers.
    pub fn new(cfg: &ServiceConfig) -> Self {
        Self::build(
            cfg,
            Region {
                k: 1,
                ..Region::default()
            },
        )
    }

    /// Builds region `index` of the federation `fed`, with its failover
    /// timer set if it is the region that fails.
    pub(super) fn region(fed: &FederationConfig, index: usize) -> Self {
        let region = Region {
            index,
            k: fed.regions,
            latency: fed.inter_region_latency,
            spill_threshold: fed.spill_threshold,
            ..Region::default()
        };
        let mut world = Self::build(&fed.region_cfg(index), region);
        if let Some((r, at)) = fed.fail_region {
            if r == index {
                world.net.set_timer(world.server, at, Timer::Fail.encode());
            }
        }
        world
    }

    fn build(cfg: &ServiceConfig, region: Region) -> Self {
        let mut net = Network::new(cfg.seed);
        net.set_capture(true);
        net.set_capture_limit(cfg.capture_limit);

        let server = net.add_public_host(GeoInfo::new("US", 1, "AS-PDN"), LinkSpec::datacenter());
        // One fat node stands in for the CDN edge fleet.
        let cdn_link = LinkSpec {
            latency: Duration::from_millis(2),
            jitter: Duration::from_millis(1),
            up_bps: 100_000_000_000,
            down_bps: 100_000_000_000,
            loss: 0.0,
        };
        let cdn_node = net.add_public_host(GeoInfo::new("US", 1, "AS-CDN"), cdn_link);
        let mut attackers = Vec::with_capacity(ATTACKERS);
        for i in 0..ATTACKERS {
            attackers.push(net.add_public_host(
                GeoInfo::new("RU", 1 + i as u16, "AS-GREET"),
                LinkSpec::residential(),
            ));
        }
        let server_addr = Addr::from_ip(net.ip(server), 443);
        let cdn_addr = Addr::from_ip(net.ip(cdn_node), 80);
        if cfg.capture == CaptureScope::ServerSignaling {
            net.set_capture_filter(Box::new(move |_, d| d.dst == server_addr));
        }
        // Client node ids start right after the fixed nodes.
        let first_client = 2 + ATTACKERS as u32;

        let mut profile = ProviderProfile::peer5();
        profile.segment_integrity_check = true;
        let mut sig = SignalingServer::new(profile, cfg.seed);
        sig.accounts_mut().register(CustomerAccount::new(
            "svc",
            "svc-key",
            ["svc.example".to_string()],
        ));

        let mut origin = OriginServer::new();
        // 1.6 Mbps × 500 ms ≈ 100 KB first segment.
        origin.publish(VideoSource::vod(
            "v",
            vec![1_600_000],
            Duration::from_millis(500),
            16,
        ));
        let cdn = Cdn::new(origin, 64 << 20);
        let seg_id = SegmentId {
            video: VideoId::new("v"),
            rendition: 0,
            seq: 0,
        };

        // Every arrival sends the same join (clients are interchangeable;
        // identity is the transport address), so the frame encodes once.
        let join_frame = SignalMsg::Join {
            api_key: Some("svc-key".into()),
            token: None,
            origin: "svc.example".into(),
            video: "v".into(),
            manifest_hash: "m0".into(),
            sdp: template_sdp(cfg.seed),
        }
        .encode();
        let overload_deny = SignalMsg::JoinDenied {
            reason: "overloaded".into(),
        }
        .encode();

        let inbox = BoundedInboxes::new(cfg.inbox);
        let mut arrivals = PoissonArrivals::new(cfg.plan.clone(), cfg.seed);
        let mut greeters = (cfg.greeter_per_sec > 0.0).then(|| {
            PoissonArrivals::new(
                RatePlan::Steady {
                    per_sec: cfg.greeter_per_sec,
                },
                cfg.seed ^ 0x9e37_79b9,
            )
        });
        let rng = SimRng::seed(cfg.seed ^ 0x5e71_1ce5);

        let report = ServiceReport {
            arrivals: 0,
            joins_ok: 0,
            joins_denied: 0,
            first_segments: 0,
            first_segments_measured: 0,
            joins_ok_measured: 0,
            leaves: 0,
            turned_away: 0,
            served_frames: 0,
            batch_hits: 0,
            jtfs: LatencyHistogram::new(),
            rtt: LatencyHistogram::new(),
            shed: ShedStats::default(),
            peak_clients: 0,
            capture_dropped: 0,
            capture_filtered: 0,
            capture_kept: 0,
            cdn_requests: 0,
            cdn_egress_bytes: 0,
            net_events: 0,
        };

        let run_end = SimTime::ZERO + cfg.run_for;
        let hard_end = run_end + cfg.mean_session * 2 + Duration::from_secs(5);
        let ramp_end = SimTime::ZERO + cfg.ramp;

        // Prime the self-rescheduling timers.
        net.set_timer(server, cfg.tick, Timer::Tick.encode());
        let first = arrivals.next_arrival();
        if first <= run_end {
            net.set_timer(
                server,
                first.saturating_since(SimTime::ZERO),
                Timer::Arrival.encode(),
            );
        }
        if let Some(g) = greeters.as_mut() {
            let at = g.next_arrival();
            if at <= run_end {
                net.set_timer(
                    server,
                    at.saturating_since(SimTime::ZERO),
                    Timer::Greeter.encode(),
                );
            }
        }

        ServiceWorld {
            cfg: cfg.clone(),
            net,
            server,
            cdn_node,
            attackers,
            server_addr,
            cdn_addr,
            first_client,
            sig,
            cdn,
            seg_id,
            join_frame,
            overload_deny,
            leave_frame: SignalMsg::Leave.encode(),
            stats_frame: SignalMsg::StatsReport {
                p2p_up_bytes: 1_000,
                p2p_down_bytes: 3_000,
            }
            .encode(),
            greeter_frame: Bytes::from_static(b"HELLO-PDN-GREETER/1.0 who-has-segments?"),
            inbox,
            batch: AdmissionBatch::new(),
            arrivals,
            greeters,
            rng,
            clients: Vec::new(),
            free: Vec::new(),
            im_seq: 0,
            report,
            run_end,
            hard_end,
            ramp_end,
            tick_joins: Vec::new(),
            tick_other: Vec::new(),
            tick_out: Vec::new(),
            region,
        }
    }

    /// Pumps the network to completion and returns the report.
    pub fn run(mut self) -> ServiceReport {
        // A lone region never spills or hands off, so this stays empty.
        let mut outbox = Vec::new();
        while let Some((now, ev)) = self.net.step() {
            if now > self.hard_end {
                break;
            }
            self.dispatch(now, ev, &mut outbox);
        }
        debug_assert!(outbox.is_empty());
        self.finish().0
    }

    /// The last instant the world processes events: `run_for` plus a
    /// grace period for in-flight sessions.
    pub(super) fn deadline(&self) -> SimTime {
        self.hard_end
    }

    /// Routes one event to its handler. Messages for other regions (spilled
    /// arrivals, hand-offs) go to `outbox` as they arise.
    fn dispatch(&mut self, now: SimTime, ev: Event, outbox: &mut Vec<(usize, FedMsg)>) {
        self.report.net_events += 1;
        match ev {
            Event::Timer { node, token } => match Timer::decode(token) {
                Timer::Tick => self.on_tick(now),
                Timer::Arrival => self.on_arrival(now, outbox),
                Timer::Greeter => self.on_greeter(now),
                Timer::Fail => self.fail_tracker(now, outbox),
                Timer::Deliver(slot) => self.on_delivery(now, slot),
                timer => self.on_client_timer(node, timer),
            },
            Event::Packet { to, dgram } if to == self.server => self.on_server_packet(now, dgram),
            Event::Packet { to, dgram } if to == self.cdn_node => {
                if let Some(seg) = self.cdn.serve_segment(&self.seg_id) {
                    self.net.send(
                        self.cdn_node,
                        80,
                        dgram.src,
                        Transport::Tcp,
                        seg.data.clone(),
                    );
                }
            }
            Event::Packet { to, dgram } => self.on_client_packet(now, to, dgram, outbox),
            Event::Burst { .. } => {}
        }
    }

    /// Folds end-of-run state (inbox, batch, capture, CDN bill) into the
    /// report and returns it with the region's ledger.
    pub(super) fn finish(mut self) -> (ServiceReport, RegionLedger) {
        self.report.shed = self.inbox.stats();
        self.report.batch_hits = self.batch.hits();
        self.report.peak_clients = self.clients.len() as u64;
        self.report.capture_dropped = self.net.capture_dropped();
        self.report.capture_filtered = self.net.capture_filtered();
        self.report.capture_kept = self.net.capture().len() as u64;
        let bill = self.cdn.bill();
        self.report.cdn_requests = bill.requests;
        self.report.cdn_egress_bytes = bill.egress_bytes;
        (self.report, self.region.ledger)
    }

    fn on_tick(&mut self, now: SimTime) {
        if self.region.dead {
            return; // dead tracker: no drain, no reschedule
        }
        self.tick_joins.clear();
        self.tick_other.clear();
        self.tick_out.clear();
        self.inbox.drain_tick(
            self.cfg.tick_budget,
            &mut self.tick_joins,
            &mut self.tick_other,
        );
        self.report.served_frames += (self.tick_joins.len() + self.tick_other.len()) as u64;
        self.sig.handle_frames_batch_into(
            &self.tick_joins,
            now,
            self.net.geoip(),
            &mut self.batch,
            &mut self.tick_out,
        );
        for (from, frame) in &self.tick_other {
            self.sig
                .handle_frame_into(*from, frame, now, self.net.geoip(), &mut self.tick_out);
        }
        for (dst, frame) in self.tick_out.drain(..) {
            self.net.send(self.server, 443, dst, Transport::Tcp, frame);
        }
        if now < self.hard_end {
            self.net
                .set_timer(self.server, self.cfg.tick, Timer::Tick.encode());
        }
    }

    /// One plan arrival, routed by region affinity: the home tracker takes
    /// it unless its join queue is past the spill point or it is dead, and
    /// then the viewer goes to the next region (a lone region keeps
    /// everyone). Re-arms the arrival timer if the next plan arrival lands
    /// before `run_end`.
    fn on_arrival(&mut self, now: SimTime, outbox: &mut Vec<(usize, FedMsg)>) {
        self.report.arrivals += 1;
        let r = &mut self.region;
        if r.k > 1 && (r.dead || self.inbox.join_depth() >= r.spill_threshold) {
            r.ledger.spilled_out += 1;
            r.send(now, FedPayload::Arrival, outbox);
        } else {
            self.start_session(now, None);
        }
        let at = self.arrivals.next_arrival();
        if at <= self.run_end {
            self.net.set_timer(
                self.server,
                at.saturating_since(now),
                Timer::Arrival.encode(),
            );
        }
    }

    /// A parked cross-region message is due: a spilled viewer (counted as
    /// an arrival at its home region) joins here without re-spilling, or a
    /// hand-off re-joins.
    fn on_delivery(&mut self, now: SimTime, slot: usize) {
        let payload = self.region.slab[slot]
            .take()
            .expect("federation delivery slot");
        self.region.free_slots.push(slot);
        match payload {
            FedPayload::Arrival => {
                self.start_session(now, None);
            }
            FedPayload::Handoff(h) => {
                if !self.start_session(now, Some(h)) {
                    self.region.ledger.handoffs_turned_away += 1;
                }
            }
        }
    }

    /// Starts one viewer session: allocate/recycle a client slot and send
    /// the join. `carried` marks a failover handoff re-join. Returns
    /// `false` when the pool is exhausted (counted as turned away).
    fn start_session(&mut self, now: SimTime, carried: Option<CarriedSession>) -> bool {
        let slot = self.free.pop().or_else(|| {
            (self.clients.len() < self.cfg.max_clients).then(|| {
                self.clients.push(IDLE_CLIENT);
                let idx = self.clients.len() as u32 - 1;
                let geo = client_geo(idx);
                let node = self.net.add_public_host(geo, LinkSpec::residential());
                debug_assert_eq!(node.0, self.first_client + idx);
                idx
            })
        });
        match slot {
            None => {
                self.report.turned_away += 1;
                false
            }
            Some(idx) => {
                let c = &mut self.clients[idx as usize];
                c.session += 1;
                c.state = ClientState::Joining { sent: now };
                c.peer_id = 0;
                c.fixed_len = carried.and_then(|h| h.remaining);
                c.carried = carried;
                let node = NodeId(self.first_client + idx);
                self.net.send(
                    node,
                    CLIENT_PORT,
                    self.server_addr,
                    Transport::Tcp,
                    self.join_frame.clone(),
                );
                true
            }
        }
    }

    fn on_greeter(&mut self, now: SimTime) {
        if let Some(g) = self.greeters.as_mut() {
            let attacker = self.attackers[(g.now().as_secs_f64() * 1e3) as usize % ATTACKERS];
            self.net.send(
                attacker,
                4444,
                self.server_addr,
                Transport::Tcp,
                self.greeter_frame.clone(),
            );
            let at = g.next_arrival();
            if at <= self.run_end {
                self.net.set_timer(
                    self.server,
                    at.saturating_since(now),
                    Timer::Greeter.encode(),
                );
            }
        }
    }

    /// A session-end or gossip timer on a client node.
    fn on_client_timer(&mut self, node: NodeId, timer: Timer) {
        let (Timer::SessionEnd(session) | Timer::Stats(session)) = timer else {
            unreachable!("{timer:?} is a server timer");
        };
        let idx = (node.0 - self.first_client) as usize;
        let c = &mut self.clients[idx];
        if c.session != session || c.state != ClientState::Watching {
            return; // stale timer from a recycled session
        }
        match timer {
            Timer::SessionEnd(_) => {
                if !self.region.dead {
                    self.net.send(
                        node,
                        CLIENT_PORT,
                        self.server_addr,
                        Transport::Tcp,
                        self.leave_frame.clone(),
                    );
                }
                self.report.leaves += 1;
                c.state = ClientState::Idle;
                self.free.push(idx as u32);
            }
            _ => {
                if !self.region.dead {
                    self.net.send(
                        node,
                        CLIENT_PORT,
                        self.server_addr,
                        Transport::Tcp,
                        self.stats_frame.clone(),
                    );
                }
                self.net
                    .set_timer(node, self.cfg.stats_every, Timer::Stats(session).encode());
            }
        }
    }

    fn on_server_packet(&mut self, now: SimTime, dgram: pdn_simnet::Datagram) {
        if self.region.dead {
            self.region.ledger.dead_dropped += 1;
            return;
        }
        match self.inbox.offer(dgram.src, dgram.payload.clone()) {
            Admit::Enqueued | Admit::Backpressure | Admit::Shed => {}
            Admit::DenyJoin => {
                if is_leave_frame(&dgram.payload) {
                    // Leaves are O(1); apply inline rather than leak the
                    // peer.
                    self.sig.remove_peer_by_addr(dgram.src, now);
                } else {
                    self.net.send(
                        self.server,
                        443,
                        dgram.src,
                        Transport::Tcp,
                        self.overload_deny.clone(),
                    );
                }
            }
        }
    }

    fn on_client_packet(
        &mut self,
        now: SimTime,
        to: NodeId,
        dgram: pdn_simnet::Datagram,
        outbox: &mut Vec<(usize, FedMsg)>,
    ) {
        if to.0 < self.first_client {
            return; // attacker nodes ignore replies
        }
        let idx = (to.0 - self.first_client) as usize;
        let c = &mut self.clients[idx];
        match c.state {
            ClientState::Joining { sent } => match SignalMsg::decode(&dgram.payload) {
                Some(SignalMsg::JoinOk { peer_id, .. }) => {
                    self.report.joins_ok += 1;
                    if now > self.ramp_end && now <= self.run_end {
                        self.report.joins_ok_measured += 1;
                    }
                    self.report
                        .rtt
                        .record(now.saturating_since(sent).as_nanos() as u64);
                    c.peer_id = peer_id;
                    if let Some(h) = c.carried.take() {
                        self.region.ledger.handoffs.push(HandoffRecord {
                            old_global: h.old_global,
                            new_global: globalize(self.region.index, peer_id),
                            migrated_at: h.t0,
                            completed_at: now,
                        });
                    }
                    c.state = ClientState::Fetching { sent };
                    self.net.send(
                        to,
                        CLIENT_PORT,
                        self.cdn_addr,
                        Transport::Tcp,
                        Bytes::from_static(b"GET /v/0/0"),
                    );
                }
                Some(SignalMsg::JoinDenied { .. }) => {
                    self.report.joins_denied += 1;
                    if c.carried.take().is_some() {
                        self.region.ledger.handoffs_denied += 1;
                    }
                    c.state = ClientState::Idle;
                    self.free.push(idx as u32);
                }
                _ => {} // PeerJoined / SimBroadcast chatter
            },
            ClientState::Fetching { sent } => {
                if dgram.src == self.cdn_addr {
                    self.report.first_segments += 1;
                    if now > self.ramp_end && now <= self.run_end {
                        self.report.first_segments_measured += 1;
                    }
                    self.report
                        .jtfs
                        .record(now.saturating_since(sent).as_nanos() as u64);
                    let session = c.session;
                    let len = match c.fixed_len.take() {
                        Some(len) => len,
                        None => self.cfg.mean_session.mul_f64(self.rng.range(0.5..1.5)),
                    };
                    if self.region.dead {
                        // The fetch outlived the tracker: the session
                        // must re-home instead of watching against a
                        // dead rendezvous.
                        let peer_id = c.peer_id;
                        c.state = ClientState::Idle;
                        self.free.push(idx as u32);
                        let h = CarriedSession {
                            old_global: peer_id,
                            t0: now,
                            remaining: Some(len),
                        };
                        self.region.hand_off(h, now, outbox);
                        return;
                    }
                    c.state = ClientState::Watching;
                    self.net
                        .set_timer(to, len, Timer::SessionEnd(session).encode());
                    self.net
                        .set_timer(to, self.cfg.stats_every, Timer::Stats(session).encode());
                    // One integrity report per session (distinct seq:
                    // exercises the class without quorums).
                    self.im_seq += 1;
                    self.net.send(
                        to,
                        CLIENT_PORT,
                        self.server_addr,
                        Transport::Tcp,
                        SignalMsg::ImReport {
                            video: "v".into(),
                            rendition: 0,
                            seq: self.im_seq,
                            im: IM_HEX.into(),
                        }
                        .encode(),
                    );
                }
            }
            ClientState::Watching | ClientState::Idle => {}
        }
    }

    /// The failover instant: marks the tracker dead and hands off every
    /// live session. Joining and watching sessions leave now; fetching
    /// sessions leave when their CDN reply lands (see
    /// [`ServiceWorld::on_client_packet`]).
    fn fail_tracker(&mut self, now: SimTime, outbox: &mut Vec<(usize, FedMsg)>) {
        self.region.dead = true;
        for (idx, c) in self.clients.iter_mut().enumerate() {
            let old_global = match c.state {
                // The join is sitting in (or flying toward) a dead inbox;
                // it will never be answered. Re-home with no peer id and
                // no drawn length.
                ClientState::Joining { .. } => {
                    c.carried = None;
                    0
                }
                // Remaining watch time is re-drawn at the target:
                // session-end timers are not introspectable here.
                ClientState::Watching => c.peer_id,
                ClientState::Fetching { .. } | ClientState::Idle => continue,
            };
            c.state = ClientState::Idle;
            self.free.push(idx as u32);
            let h = CarriedSession {
                old_global,
                t0: now,
                remaining: None,
            };
            self.region.hand_off(h, now, outbox);
        }
    }
}

impl ShardWorld for ServiceWorld {
    type Msg = FedMsg;

    fn next_at(&self) -> Option<SimTime> {
        self.net.next_event_at()
    }

    fn run_window(&mut self, end: SimTime, outbox: &mut Vec<(usize, FedMsg)>) {
        while let Some(at) = self.net.next_event_at() {
            if at >= end {
                break;
            }
            let (now, ev) = self.net.step().expect("peeked event exists");
            self.dispatch(now, ev, outbox);
        }
    }

    fn deliver(&mut self, msg: FedMsg) {
        // Park the payload in a slot and burn a timer for it; the stamp
        // decides processing order, not barrier insertion order.
        let r = &mut self.region;
        let slot = r.free_slots.pop().unwrap_or_else(|| {
            r.slab.push(None);
            r.slab.len() - 1
        });
        r.slab[slot] = Some(msg.payload);
        let delay = msg.at.saturating_since(self.net.now());
        self.net
            .set_timer(self.server, delay, Timer::Deliver(slot).encode());
    }

    fn stamp(msg: &FedMsg) -> SimTime {
        msg.at
    }
}

/// Runs one open-loop service scenario to completion. See the
/// [module docs](self).
pub fn run_service(cfg: &ServiceConfig) -> ServiceReport {
    ServiceWorld::new(cfg).run()
}

/// A fixed honest-looking IM hex string (64 nibbles); sessions report
/// distinct sequence numbers, so no quorum or conflict ever forms.
const IM_HEX: &str = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff";

/// One SDP template shared by every client; identity lives in the
/// transport address, so the certificate only needs to parse.
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

/// Deterministic geo mix for client `idx` (a rough global audience).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(per_sec: f64) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(RatePlan::Steady { per_sec });
        cfg.run_for = Duration::from_secs(4);
        cfg.mean_session = Duration::from_secs(2);
        cfg.stats_every = Duration::from_secs(1);
        cfg
    }

    #[test]
    fn steady_light_load_serves_everyone() {
        let report = run_service(&tiny(50.0));
        assert!(report.arrivals > 100, "arrivals {}", report.arrivals);
        assert_eq!(report.joins_denied, 0);
        assert_eq!(report.turned_away, 0);
        assert_eq!(report.joins_ok, report.first_segments);
        assert!(report.joins_ok as f64 >= report.arrivals as f64 * 0.95);
        assert!(report.batch_hits > 0, "join bursts should hit the memo");
        // JTFS is sane: above one RTT (~34 ms), below a second.
        assert!(report.jtfs.quantile(0.5) > 30_000_000);
        assert!(report.jtfs.quantile(0.999) < 1_000_000_000);
        assert!(report.leaves > 0);
    }

    #[test]
    fn identical_configs_produce_identical_reports() {
        let mut cfg = tiny(80.0);
        cfg.greeter_per_sec = 40.0;
        let a = run_service(&cfg);
        let b = run_service(&cfg);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.joins_ok, b.joins_ok);
        assert_eq!(a.first_segments, b.first_segments);
        assert_eq!(a.served_frames, b.served_frames);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.jtfs.count(), b.jtfs.count());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.jtfs.quantile(q), b.jtfs.quantile(q));
            assert_eq!(a.rtt.quantile(q), b.rtt.quantile(q));
        }
        // A different seed draws a different arrival stream. (Quantiles
        // alone can collide: the global geo mix pins the median bucket.)
        let c = run_service(&ServiceConfig {
            seed: 2,
            ..cfg.clone()
        });
        assert!(
            a.arrivals != c.arrivals || a.jtfs.mean() != c.jtfs.mean(),
            "seed must matter"
        );
    }

    #[test]
    fn overload_degrades_by_explicit_denial_not_collapse() {
        // ~10 joins/s of capacity, offered 100/s.
        let mut cfg = tiny(100.0);
        cfg.tick_budget = 4;
        cfg.tick = Duration::from_millis(100);
        cfg.inbox.join_cap = 16;
        let report = run_service(&cfg);
        assert!(
            report.joins_denied > 0,
            "join queue must overflow into denials"
        );
        // Everyone got *an* answer: ok, denied, or turned away at the pool.
        assert!(report.joins_ok + report.joins_denied + report.turned_away >= report.arrivals / 2);
        // Those admitted still finished.
        assert!(report.first_segments > 0);
        // The join queue never grew past its cap (bounded memory).
        assert!(
            report.shed.peak_depth
                <= (16 + cfg.inbox.integrity_cap + cfg.inbox.gossip_cap + cfg.inbox.greeter_cap)
                    as u64
        );
    }

    #[test]
    fn greeter_flood_is_shed_without_hurting_joins() {
        // 20k junk/s from 4 addresses: far past what the per-connection
        // cap and a small greeter queue will accept.
        let mut cfg = tiny(40.0);
        cfg.greeter_per_sec = 20_000.0;
        cfg.inbox.greeter_cap = 16;
        let report = run_service(&cfg);
        assert!(
            report.shed.shed_greeter + report.shed.backpressured > 1_000,
            "flood should mostly shed: {:?}",
            report.shed
        );
        assert_eq!(report.joins_denied, 0, "joins ride above the flood");
        assert!(report.joins_ok as f64 >= report.arrivals as f64 * 0.95);
    }
}
