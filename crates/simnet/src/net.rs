//! The discrete-event network fabric.
//!
//! [`Network`] plays the role that the Internet plus Docker's virtual
//! networking plays in the paper's PDN analyzer (§IV-A, Figure 2): it moves
//! opaque datagrams between simulated hosts with realistic latency,
//! bandwidth contention, loss, and NAT behaviour, while offering exactly the
//! three interposition points the analyzer relies on —
//!
//! 1. **capture** ([`Network::capture`]): every frame on the wire, like
//!    `tcpdump` on `docker0`;
//! 2. **taps** ([`Network::install_tap`]): per-node middleboxes that
//!    forward or rewrite traffic, like the analyzer's MITM proxy;
//! 3. **resource stats** ([`Network::resources`]): per-node CPU/memory/IO
//!    counters, like the Docker Engine stats API.
//!
//! Protocol logic lives in higher layers (`pdn-webrtc`, `pdn-provider`);
//! this module only transports bytes.

use std::net::Ipv4Addr;
use std::time::Duration;

use bytes::Bytes;

use crate::addr::Addr;
use crate::fxhash::FxHashMap;
use crate::geo::{GeoInfo, GeoIpService, GeoKey, RegId};
use crate::nat::{Nat, NatKind};
use crate::queue::CalendarQueue;
use crate::resources::ResourceModel;
use crate::rng::SimRng;
use crate::route::{Route, RouteTable};
use crate::time::SimTime;

/// Identifier of a simulated host.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a NAT box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NatId(pub u32);

/// Transport protocol tag carried on each datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Transport {
    /// Unreliable datagram (STUN, DTLS, media).
    Udp,
    /// Stream segment (HTTP, WebSocket signaling). The simulator does not
    /// model retransmission; `Tcp` frames are simply never lost.
    Tcp,
}

/// A packet on the wire.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Source address as seen by the recipient (post-NAT).
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Transport tag.
    pub transport: Transport,
    /// Opaque payload bytes.
    pub payload: Bytes,
}

/// Access-link characteristics of a host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation latency of the access link.
    pub latency: Duration,
    /// Maximum random jitter added per packet.
    pub jitter: Duration,
    /// Uplink capacity in bits per second.
    pub up_bps: u64,
    /// Downlink capacity in bits per second.
    pub down_bps: u64,
    /// Packet loss probability for UDP frames.
    pub loss: f64,
}

impl LinkSpec {
    /// A typical residential broadband link: 100/20 Mbps, 15 ms, light loss.
    pub fn residential() -> Self {
        LinkSpec {
            latency: Duration::from_millis(15),
            jitter: Duration::from_millis(5),
            up_bps: 20_000_000,
            down_bps: 100_000_000,
            loss: 0.001,
        }
    }

    /// A well-provisioned datacenter link: 1 Gbps symmetric, 2 ms.
    pub fn datacenter() -> Self {
        LinkSpec {
            latency: Duration::from_millis(2),
            jitter: Duration::from_millis(1),
            up_bps: 1_000_000_000,
            down_bps: 1_000_000_000,
            loss: 0.0,
        }
    }

    /// A constrained mobile link: 20/5 Mbps, 40 ms, lossier.
    pub fn cellular() -> Self {
        LinkSpec {
            latency: Duration::from_millis(40),
            jitter: Duration::from_millis(15),
            up_bps: 5_000_000,
            down_bps: 20_000_000,
            loss: 0.005,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::residential()
    }
}

/// Direction of a frame relative to a tapped node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDirection {
    /// The node is sending the frame.
    Outbound,
    /// The node is about to receive the frame.
    Inbound,
}

/// Verdict returned by a tap for one frame.
#[derive(Debug, Clone)]
pub enum TapVerdict {
    /// Let the frame pass unchanged.
    Forward,
    /// Forward the frame with this payload in place of its own.
    Replace(Bytes),
}

/// A middlebox function observing one node's traffic.
pub type TapFn = Box<dyn FnMut(TapDirection, &Datagram) -> TapVerdict + Send>;

/// A capture-time filter: return `true` to record the frame.
///
/// Runs *before* the frame is cloned into the capture ring, so attack
/// tests that only care about (say) UDP media frames stop paying clone
/// and memory costs for the traffic they would post-filter away.
pub type CaptureFilter = Box<dyn FnMut(SimTime, &Datagram) -> bool + Send>;

/// A frame recorded by the capture facility (one `tcpdump` line).
#[derive(Debug, Clone)]
pub struct CapturedFrame {
    /// Transmission time.
    pub at: SimTime,
    /// Wire source (post-NAT).
    pub src: Addr,
    /// Wire destination.
    pub dst: Addr,
    /// Transport tag.
    pub transport: Transport,
    /// Full payload.
    pub payload: Bytes,
}

/// An event delivered by [`Network::step`]. `T` is the world's timer
/// type, carried by value in the queue (see [`Network`]).
#[derive(Debug, Clone)]
pub enum Event<T = u64> {
    /// A datagram arriving at a node.
    Packet {
        /// Receiving node.
        to: NodeId,
        /// The datagram, with `dst` translated back to the node's own
        /// address realm when behind NAT.
        dgram: Datagram,
    },
    /// A batch of datagrams from one [`Network::send_burst`] call arriving
    /// at a node as a single unit, scheduled when the last frame finishes
    /// reception (receive-side aggregation, as a NIC's GRO does). Frames
    /// are in send order; per-frame loss, jitter, capture, and bandwidth
    /// accounting are identical to sequential [`Network::send`] calls.
    Burst {
        /// Receiving node.
        to: NodeId,
        /// The surviving datagrams, each translated like a
        /// [`Event::Packet`] delivery.
        dgrams: Vec<Datagram>,
    },
    /// A timer set via [`Network::set_timer`] firing.
    Timer {
        /// The node the timer belongs to.
        node: NodeId,
        /// The timer the world set.
        token: T,
    },
}

/// Why a send did not result in a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No host or NAT owns the destination IP.
    Unroutable,
    /// Random loss on the path.
    Loss,
    /// The destination NAT's filtering policy rejected the frame.
    NatFiltered,
    /// Source or destination host is down.
    NodeDown,
}

/// Result of [`Network::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Scheduled for delivery at the given time.
    Sent {
        /// Arrival time at the destination application.
        deliver_at: SimTime,
    },
    /// Dropped; no delivery will occur.
    Dropped(DropReason),
}

/// The per-node record the frame path reads and writes. Everything else
/// about a node lives in cold side tables: its [`GeoInfo`] in the
/// registry (by `reg`), its [`LinkSpec`] in the deduplicated link table
/// (by `link`), its [`ResourceModel`] in `Network::res`.
#[derive(Debug, Clone, Copy)]
struct Node {
    up_free_at: SimTime,
    down_free_at: SimTime,
    ip: Ipv4Addr,
    nat: Option<u32>,
    link: u32,
    reg: RegId,
    geo: GeoKey,
    alive: bool,
    tapped: bool,
}

/// Bit-exact identity of a [`LinkSpec`], for deduplicating the link table.
type LinkBits = (Duration, Duration, u64, u64, u64);

fn link_bits(l: &LinkSpec) -> LinkBits {
    (l.latency, l.jitter, l.up_bps, l.down_bps, l.loss.to_bits())
}

/// Default cap on the capture ring (frames); see
/// [`Network::set_capture_limit`].
pub const DEFAULT_CAPTURE_LIMIT: usize = 1 << 20;

/// The capture facility: a preallocated frame buffer with a hard capacity
/// and an optional capture-time filter. Like a pcap kernel ring, a full
/// buffer drops new frames (and counts them) rather than growing without
/// bound.
struct CaptureRing {
    buf: Vec<CapturedFrame>,
    limit: usize,
    enabled: bool,
    filter: Option<CaptureFilter>,
    filtered: u64,
    dropped: u64,
}

impl CaptureRing {
    fn new() -> Self {
        CaptureRing {
            buf: Vec::new(),
            limit: DEFAULT_CAPTURE_LIMIT,
            enabled: false,
            filter: None,
            filtered: 0,
            dropped: 0,
        }
    }
}

/// The simulated network fabric. See the crate-level documentation for the
/// overall model.
///
/// `T` is the world's timer type: [`Network::set_timer`] schedules a `T`
/// and [`Event::Timer`] hands it back, so a world matches on its own enum
/// (payload included) instead of packing timers into integers. The `u64`
/// default serves worlds with plain numeric tokens.
pub struct Network<T = u64> {
    now: SimTime,
    rng: SimRng,
    geoip: GeoIpService,
    nodes: Vec<Node>,
    res: Vec<ResourceModel>,
    links: Vec<LinkSpec>,
    link_ids: FxHashMap<LinkBits, u32>,
    nats: Vec<Nat>,
    // wire IP -> owner
    public_routes: RouteTable<Route>,
    private_routes: RouteTable<NodeId>,
    next_private: u32,
    queue: CalendarQueue<Event<T>>,
    taps: FxHashMap<NodeId, TapFn>,
    capture: CaptureRing,
}

impl<T> std::fmt::Debug for Network<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("nats", &self.nats.len())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl<T> Network<T> {
    /// Creates an empty network seeded deterministically.
    pub fn new(seed: u64) -> Self {
        Network {
            now: SimTime::ZERO,
            rng: SimRng::seed(seed),
            geoip: GeoIpService::new(),
            nodes: Vec::new(),
            res: Vec::new(),
            links: Vec::new(),
            link_ids: FxHashMap::default(),
            nats: Vec::new(),
            public_routes: RouteTable::new(),
            private_routes: RouteTable::new(),
            next_private: 1,
            queue: CalendarQueue::new(),
            taps: FxHashMap::default(),
            capture: CaptureRing::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The registry used to geolocate public addresses (the IPinfo stand-in).
    pub fn geoip(&self) -> &GeoIpService {
        &self.geoip
    }

    /// Deterministic RNG shared by the simulation (fork children from it
    /// rather than consuming it directly in application code).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Adds a host with its own public IP.
    pub fn add_public_host(&mut self, geo: GeoInfo, link: LinkSpec) -> NodeId {
        let reg = self.geoip.register(geo);
        let ip = self.geoip.allocate_in(reg);
        let id = self.push_node(ip, None, reg, link);
        self.public_routes.insert(ip, Route::Host(id));
        id
    }

    /// Adds a NAT box with a public IP in `geo`.
    pub fn add_nat(&mut self, kind: NatKind, geo: &GeoInfo) -> NatId {
        let ip = self.geoip.allocate(geo);
        let idx = self.nats.len() as u32;
        self.nats.push(Nat::new(kind, ip));
        self.public_routes.insert(ip, Route::Nat(idx));
        NatId(idx)
    }

    fn push_node(&mut self, ip: Ipv4Addr, nat: Option<u32>, reg: RegId, link: LinkSpec) -> NodeId {
        let next_link = self.links.len() as u32;
        let link_id = *self.link_ids.entry(link_bits(&link)).or_insert(next_link);
        if link_id == next_link {
            self.links.push(link);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            up_free_at: SimTime::ZERO,
            down_free_at: SimTime::ZERO,
            ip,
            nat,
            link: link_id,
            reg,
            geo: self.geoip.key(reg),
            alive: true,
            tapped: false,
        });
        self.res.push(ResourceModel::new());
        id
    }

    /// Adds a host behind `nat`, with a unique RFC 1918 address.
    ///
    /// The host inherits no public IP of its own; its wire identity is the
    /// NAT's public IP with per-flow ports.
    pub fn add_host_behind(&mut self, nat: NatId, geo: GeoInfo, link: LinkSpec) -> NodeId {
        let n = self.next_private;
        self.next_private += 1;
        // Unique 10.x.y.z per host keeps demo topologies unambiguous. Real
        // realms overlap, but overlapping space adds nothing to the modeled
        // attacks.
        let ip = Ipv4Addr::new(
            10,
            ((n >> 16) & 0xff) as u8,
            ((n >> 8) & 0xff) as u8,
            (n & 0xff) as u8,
        );
        let reg = self.geoip.register(geo);
        let id = self.push_node(ip, Some(nat.0), reg, link);
        self.private_routes.insert(ip, id);
        id
    }

    /// The node's own IP (private when behind NAT).
    pub fn ip(&self, node: NodeId) -> Ipv4Addr {
        self.node(node).ip
    }

    /// The node's public wire IP: its own IP, or its NAT's public IP.
    pub fn public_ip(&self, node: NodeId) -> Ipv4Addr {
        let info = self.node(node);
        match info.nat {
            Some(idx) => self.nats[idx as usize].public_ip(),
            None => info.ip,
        }
    }

    /// Geographic registration of the node.
    pub fn geo(&self, node: NodeId) -> &GeoInfo {
        self.geoip.registration(self.node(node).reg)
    }

    /// Immutable resource counters of the node.
    pub fn resources(&self, node: NodeId) -> &ResourceModel {
        &self.res[node.0 as usize]
    }

    /// Mutable resource counters (application layers charge CPU/memory here).
    pub fn resources_mut(&mut self, node: NodeId) -> &mut ResourceModel {
        &mut self.res[node.0 as usize]
    }

    /// Takes a resource sample of every node at the current time.
    pub fn sample_resources(&mut self) {
        let now = self.now;
        for r in &mut self.res {
            r.sample(now);
        }
    }

    /// Marks a node up or down (failure injection).
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.nodes[node.0 as usize].alive = alive;
    }

    /// Installs (or replaces) the middlebox tap on `node`.
    pub fn install_tap(&mut self, node: NodeId, tap: TapFn) {
        self.nodes[node.0 as usize].tapped = true;
        self.taps.insert(node, tap);
    }

    /// Enables or disables frame capture. Enabling preallocates the ring
    /// so steady-state capture starts without reallocation.
    pub fn set_capture(&mut self, enabled: bool) {
        self.capture.enabled = enabled;
        if enabled && self.capture.buf.capacity() == 0 {
            self.capture.buf.reserve(self.capture.limit.min(4_096));
        }
    }

    /// Caps the capture ring at `limit` frames. Once full, further frames
    /// are dropped and counted in [`Network::capture_dropped`] — the
    /// behaviour of a full pcap kernel buffer.
    pub fn set_capture_limit(&mut self, limit: usize) {
        self.capture.limit = limit.max(1);
    }

    /// Installs a capture-time filter: only frames for which it returns
    /// `true` enter the ring. Filtered frames are never cloned and count
    /// in [`Network::capture_filtered`].
    pub fn set_capture_filter(&mut self, filter: CaptureFilter) {
        self.capture.filter = Some(filter);
    }

    /// Frames rejected by the capture filter so far.
    pub fn capture_filtered(&self) -> u64 {
        self.capture.filtered
    }

    /// Frames lost to a full capture ring so far.
    pub fn capture_dropped(&self) -> u64 {
        self.capture.dropped
    }

    /// All frames captured so far.
    pub fn capture(&self) -> &[CapturedFrame] {
        &self.capture.buf
    }

    /// Schedules `token` to fire at `node` after `delay`. A set timer
    /// always fires; a world ignores one it no longer wants.
    pub fn set_timer(&mut self, node: NodeId, delay: Duration, token: T) {
        let at = self.now + delay;
        self.queue.push(at, Event::Timer { node, token });
    }

    /// Sends `payload` from `node` (source port `src_port`) to `dst`.
    ///
    /// Applies, in order: the sender's tap (may rewrite), NAT egress,
    /// routing, loss, NAT ingress filtering, the receiver's tap (may
    /// rewrite), then schedules delivery honouring both access links'
    /// bandwidth.
    pub fn send(
        &mut self,
        node: NodeId,
        src_port: u16,
        dst: Addr,
        transport: Transport,
        payload: Bytes,
    ) -> SendOutcome {
        let sender_has_tap = self.node(node).tapped;
        self.send_inner(
            node,
            src_port,
            dst,
            transport,
            payload,
            sender_has_tap,
            &mut None,
            None,
        )
    }

    /// Sends several datagrams from `node` to the same destination as one
    /// batch (e.g. the DTLS records of a multi-record channel message).
    ///
    /// Per-frame behaviour — taps, NAT egress state, capture, loss and
    /// jitter draws, bandwidth chaining — is *identical* to calling
    /// [`Network::send`] once per frame, in order; the batch hoists the
    /// per-send bookkeeping: the sender's tap lookup happens once, and
    /// route resolution (public table + NAT ingress + private table) is
    /// computed once and reused for every frame.
    ///
    /// Delivery is aggregated: the frames surviving to one destination
    /// arrive together as a single [`Event::Burst`] scheduled at the
    /// moment the *last* of them finishes reception (a lone survivor
    /// degrades to a plain [`Event::Packet`]). One queue event carries the
    /// whole burst; the receiver still handles each datagram on its own.
    pub fn send_burst(
        &mut self,
        node: NodeId,
        src_port: u16,
        dst: Addr,
        transport: Transport,
        frames: Vec<Bytes>,
    ) -> Vec<SendOutcome> {
        let sender_has_tap = self.node(node).tapped;
        let mut route_cache = None;
        let mut pending: Vec<(SimTime, NodeId, Datagram)> = Vec::new();
        let outcomes: Vec<SendOutcome> = frames
            .into_iter()
            .map(|payload| {
                self.send_inner(
                    node,
                    src_port,
                    dst,
                    transport,
                    payload,
                    sender_has_tap,
                    &mut route_cache,
                    Some(&mut pending),
                )
            })
            .collect();
        // Every surviving frame went to the one routed destination, in send
        // order; they become one event at the last one's delivery (which is
        // the latest: reception chains on `down_free_at`).
        if let Some(&(at, to, _)) = pending.last() {
            let mut dgrams: Vec<Datagram> = pending.into_iter().map(|(_, _, d)| d).collect();
            if dgrams.len() == 1 {
                let dgram = dgrams.pop().expect("length checked");
                self.queue.push(at, Event::Packet { to, dgram });
            } else {
                self.queue.push(at, Event::Burst { to, dgrams });
            }
        }
        outcomes
    }

    #[allow(clippy::too_many_arguments)] // internal: the two send entry points above fan in here
    fn send_inner(
        &mut self,
        node: NodeId,
        src_port: u16,
        dst: Addr,
        transport: Transport,
        payload: Bytes,
        sender_has_tap: bool,
        route_cache: &mut Option<(NodeId, Addr)>,
        burst_buf: Option<&mut Vec<(SimTime, NodeId, Datagram)>>,
    ) -> SendOutcome {
        let src = *self.node(node);
        if !src.alive {
            return SendOutcome::Dropped(DropReason::NodeDown);
        }
        let src_internal = Addr::from_ip(src.ip, src_port);
        let mut dgram = Datagram {
            src: src_internal,
            dst,
            transport,
            payload,
        };

        // Sender-side tap (the analyzer's proxy client).
        if sender_has_tap {
            if let Some(TapVerdict::Replace(p)) =
                self.apply_tap(node, TapDirection::Outbound, &dgram)
            {
                dgram.payload = p;
            }
        }

        // NAT egress: rewrite the wire source. Runs per frame even in a
        // burst — the NAT records every contacted remote (its filtering
        // state), so skipping calls would diverge from sequential sends.
        if let Some(nat_idx) = src.nat {
            dgram.src = self.nats[nat_idx as usize].egress(src_internal, dgram.dst);
        }

        let len = dgram.payload.len().max(64) as u64; // 64-byte minimum frame

        // Routing. Route resolution is pure (NAT ingress does not mutate),
        // so the frames of a burst reuse the first frame's result.
        let (dest_node, final_dst) = match *route_cache {
            Some(pair) => pair,
            None => match self.route(&dgram, node) {
                Ok(pair) => {
                    *route_cache = Some(pair);
                    pair
                }
                Err(reason) => {
                    self.capture_frame(&dgram);
                    return SendOutcome::Dropped(reason);
                }
            },
        };
        let dst = *self.node(dest_node);
        if !dst.alive {
            self.capture_frame(&dgram);
            return SendOutcome::Dropped(DropReason::NodeDown);
        }

        self.capture_frame(&dgram);

        let src_link = self.links[src.link as usize];
        let dst_link = self.links[dst.link as usize];
        // Loss applies to UDP only (TCP models retransmission).
        if dgram.transport == Transport::Udp && self.rng.chance(src_link.loss + dst_link.loss) {
            return SendOutcome::Dropped(DropReason::Loss);
        }

        // Receiver-side tap. The wire frame becomes the delivered one (the
        // payload `Bytes` moves, it is not copied); only a rewriting tap
        // allocates.
        let mut delivered_dgram = Datagram {
            dst: final_dst,
            ..dgram
        };
        if dst.tapped {
            if let Some(TapVerdict::Replace(p)) =
                self.apply_tap(dest_node, TapDirection::Inbound, &delivered_dgram)
            {
                delivered_dgram.payload = p;
            }
        }

        // Transmission + propagation + reception scheduling.
        let tx_start = self.now.max(src.up_free_at);
        let tx_dur = Self::serialization(len, src_link.up_bps);
        let tx_end = tx_start + tx_dur;
        self.nodes[node.0 as usize].up_free_at = tx_end;

        let prop = src_link.latency
            + dst_link.latency
            + src.geo.backbone_latency(dst.geo)
            + self.jitter(src_link.jitter + dst_link.jitter);

        let rx_start = (tx_end + prop).max(dst.down_free_at);
        let rx_dur = Self::serialization(len, dst_link.down_bps);
        let deliver_at = rx_start + rx_dur;
        self.nodes[dest_node.0 as usize].down_free_at = deliver_at;

        self.res[node.0 as usize].record_tx(len);
        self.res[dest_node.0 as usize].record_rx(len);

        match burst_buf {
            // Burst sends defer enqueueing so the caller can aggregate
            // all survivors to one destination into a single event.
            Some(buf) => buf.push((deliver_at, dest_node, delivered_dgram)),
            None => {
                self.queue.push(
                    deliver_at,
                    Event::Packet {
                        to: dest_node,
                        dgram: delivered_dgram,
                    },
                );
            }
        }
        SendOutcome::Sent { deliver_at }
    }

    /// Pops the next event, advancing virtual time to it.
    ///
    /// Returns `None` when the queue is empty.
    pub fn step(&mut self) -> Option<(SimTime, Event<T>)> {
        let (at, ev) = self.queue.pop()?;
        crate::profile::count_event();
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        Some((at, ev))
    }

    /// Pops the next event only if it is scheduled strictly before `end`,
    /// advancing virtual time to it; otherwise leaves the queue and the
    /// clock untouched. The one event pump of every world: drain with
    /// `while let Some((at, ev)) = net.step_before(end)`. Exclusive like
    /// [`crate::CalendarQueue::pop_before`]; pass `deadline + 1 ns` to
    /// include events stamped exactly on a deadline.
    pub fn step_before(&mut self, end: SimTime) -> Option<(SimTime, Event<T>)> {
        let (at, ev) = self.queue.pop_before(end)?;
        crate::profile::count_event();
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        Some((at, ev))
    }

    /// Advances time to `at` without processing events.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot advance into the past");
        self.now = at;
        self.queue.advance_time(at);
    }

    /// Time of the next queued event, if any (without popping it).
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.next_at()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn serialization(bytes: u64, bps: u64) -> Duration {
        Duration::from_nanos(bytes.saturating_mul(8).saturating_mul(1_000_000_000) / bps.max(1))
    }

    fn jitter(&mut self, max: Duration) -> Duration {
        if max.is_zero() {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.rng.range(0..max.as_nanos() as u64))
    }

    fn route(&self, dgram: &Datagram, src_node: NodeId) -> Result<(NodeId, Addr), DropReason> {
        match self.public_routes.get(dgram.dst.ip).copied() {
            Some(Route::Host(id)) => Ok((id, dgram.dst)),
            Some(Route::Nat(idx)) => {
                let internal = self.nats[idx as usize]
                    .ingress(dgram.dst.port, dgram.src)
                    .ok_or(DropReason::NatFiltered)?;
                let node = *self
                    .private_routes
                    .get(internal.ip)
                    .ok_or(DropReason::Unroutable)?;
                Ok((node, internal))
            }
            None => {
                // Private addresses are only reachable from hosts in the
                // same NAT realm; from anywhere else they are bogons.
                match self.private_routes.get(dgram.dst.ip) {
                    Some(&node)
                        if self.node(src_node).nat.is_some()
                            && self.node(src_node).nat == self.node(node).nat =>
                    {
                        Ok((node, dgram.dst))
                    }
                    _ => Err(DropReason::Unroutable),
                }
            }
        }
    }

    fn apply_tap(
        &mut self,
        node: NodeId,
        dir: TapDirection,
        dgram: &Datagram,
    ) -> Option<TapVerdict> {
        let tap = self.taps.get_mut(&node)?;
        Some(tap(dir, dgram))
    }

    fn capture_frame(&mut self, dgram: &Datagram) {
        if !self.capture.enabled {
            return;
        }
        let _g = crate::profile::phase(crate::profile::Phase::Capture);
        if let Some(filter) = &mut self.capture.filter {
            if !filter(self.now, dgram) {
                self.capture.filtered += 1;
                return;
            }
        }
        if self.capture.buf.len() >= self.capture.limit {
            self.capture.dropped += 1;
            return;
        }
        self.capture.buf.push(CapturedFrame {
            at: self.now,
            src: dgram.src,
            dst: dgram.dst,
            transport: dgram.transport,
            payload: dgram.payload.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(c: &str) -> GeoInfo {
        GeoInfo::new(c, 1, "AS1")
    }

    fn two_public_hosts<T>(net: &mut Network<T>) -> (NodeId, NodeId) {
        let a = net.add_public_host(geo("US"), LinkSpec::residential());
        let b = net.add_public_host(geo("US"), LinkSpec::residential());
        (a, b)
    }

    #[test]
    fn hot_node_record_fits_a_cache_line() {
        assert!(
            std::mem::size_of::<Node>() <= 64,
            "Node is {} B; the frame path reads two per send",
            std::mem::size_of::<Node>()
        );
    }

    #[test]
    fn links_are_deduplicated() {
        let mut net: Network = Network::new(1);
        for _ in 0..3 {
            net.add_public_host(geo("US"), LinkSpec::residential());
            net.add_public_host(geo("DE"), LinkSpec::datacenter());
        }
        assert_eq!(net.links.len(), 2);
    }

    #[test]
    fn basic_delivery() {
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        let dst = Addr::from_ip(net.ip(b), 80);
        let out = net.send(a, 5000, dst, Transport::Tcp, Bytes::from_static(b"hi"));
        assert!(matches!(out, SendOutcome::Sent { .. }));
        let (at, ev) = net.step().expect("one event");
        match ev {
            Event::Packet { to, dgram } => {
                assert_eq!(to, b);
                assert_eq!(&dgram.payload[..], b"hi");
                assert_eq!(dgram.src.ip, net.ip(a));
                assert_eq!(dgram.dst, dst);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(at > SimTime::ZERO);
    }

    #[test]
    fn non_rewrite_send_path_never_copies_the_payload() {
        // The payload `Bytes` must be shared by refcount from send through
        // capture to delivery: same backing allocation, zero copies, as
        // long as no tap rewrites it.
        let mut net: Network = Network::new(1);
        net.set_capture(true);
        let (a, b) = two_public_hosts(&mut net);
        let dst = Addr::from_ip(net.ip(b), 80);
        let payload = Bytes::from(vec![0xAB; 1024]);
        let sent_ptr = payload.as_ptr();
        let out = net.send(a, 5000, dst, Transport::Tcp, payload);
        assert!(matches!(out, SendOutcome::Sent { .. }));
        let captured = &net.capture()[0];
        assert_eq!(
            captured.payload.as_ptr(),
            sent_ptr,
            "capture ring must share the sender's allocation"
        );
        let (_, ev) = net.step().expect("one event");
        let Event::Packet { dgram, .. } = ev else {
            panic!("unexpected event {ev:?}");
        };
        assert_eq!(
            dgram.payload.as_ptr(),
            sent_ptr,
            "delivered datagram must share the sender's allocation"
        );
    }

    #[test]
    fn unroutable_dropped() {
        let mut net: Network = Network::new(1);
        let (a, _) = two_public_hosts(&mut net);
        let out = net.send(
            a,
            1,
            Addr::new(203, 0, 114, 1, 9),
            Transport::Udp,
            Bytes::new(),
        );
        assert_eq!(out, SendOutcome::Dropped(DropReason::Unroutable));
    }

    #[test]
    fn dead_nodes_cannot_send_or_receive() {
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        let dst = Addr::from_ip(net.ip(b), 80);
        net.set_alive(a, false);
        assert_eq!(
            net.send(a, 1, dst, Transport::Tcp, Bytes::new()),
            SendOutcome::Dropped(DropReason::NodeDown)
        );
        net.set_alive(a, true);
        net.set_alive(b, false);
        assert_eq!(
            net.send(a, 1, dst, Transport::Tcp, Bytes::new()),
            SendOutcome::Dropped(DropReason::NodeDown)
        );
    }

    #[test]
    fn nat_egress_rewrites_source_and_filters_ingress() {
        let mut net: Network = Network::new(1);
        let server = net.add_public_host(geo("US"), LinkSpec::datacenter());
        let nat = net.add_nat(NatKind::PortRestrictedCone, &geo("US"));
        let client = net.add_host_behind(nat, geo("US"), LinkSpec::residential());

        let server_addr = Addr::from_ip(net.ip(server), 3478);
        let out = net.send(
            client,
            7000,
            server_addr,
            Transport::Udp,
            Bytes::from_static(b"req"),
        );
        assert!(matches!(out, SendOutcome::Sent { .. }));
        let (_, ev) = net.step().unwrap();
        let observed_src = match ev {
            Event::Packet { to, dgram } => {
                assert_eq!(to, server);
                // Server sees the NAT's public IP, not the private realm.
                assert_eq!(dgram.src.ip, net.public_ip(client));
                assert_ne!(dgram.src.ip, net.ip(client));
                dgram.src
            }
            other => panic!("unexpected {other:?}"),
        };

        // Reply to the mapping succeeds (same ip+port).
        let back = net.send(
            server,
            3478,
            observed_src,
            Transport::Udp,
            Bytes::from_static(b"ok"),
        );
        assert!(matches!(back, SendOutcome::Sent { .. }));
        let (_, ev) = net.step().unwrap();
        match ev {
            Event::Packet { to, dgram } => {
                assert_eq!(to, client);
                // Delivered with the client's internal address.
                assert_eq!(dgram.dst, Addr::from_ip(net.ip(client), 7000));
            }
            other => panic!("unexpected {other:?}"),
        }

        // A stranger hitting the same mapping is filtered (port-restricted).
        let stranger = net.add_public_host(geo("US"), LinkSpec::residential());
        let out = net.send(stranger, 1, observed_src, Transport::Udp, Bytes::new());
        assert_eq!(out, SendOutcome::Dropped(DropReason::NatFiltered));
    }

    #[test]
    fn bandwidth_serializes_back_to_back_sends() {
        let mut net: Network = Network::new(1);
        let slow = LinkSpec {
            up_bps: 8_000_000, // 1 MB/s
            ..LinkSpec::residential()
        };
        let a = net.add_public_host(geo("US"), slow);
        let b = net.add_public_host(geo("US"), LinkSpec::datacenter());
        let dst = Addr::from_ip(net.ip(b), 80);
        let megabyte = Bytes::from(vec![0u8; 1_000_000]);
        let t1 = match net.send(a, 1, dst, Transport::Tcp, megabyte.clone()) {
            SendOutcome::Sent { deliver_at } => deliver_at,
            o => panic!("{o:?}"),
        };
        let t2 = match net.send(a, 1, dst, Transport::Tcp, megabyte) {
            SendOutcome::Sent { deliver_at } => deliver_at,
            o => panic!("{o:?}"),
        };
        // Second send must wait for the first 1s-long transmission.
        assert!(t2 > t1);
        assert!((t2 - t1) >= Duration::from_millis(900));
    }

    #[test]
    fn events_ordered_by_time() {
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        let dst = Addr::from_ip(net.ip(b), 80);
        net.set_timer(a, Duration::from_secs(10), 42);
        net.send(a, 1, dst, Transport::Tcp, Bytes::from_static(b"x"));
        let (t1, ev1) = net.step().unwrap();
        let (t2, ev2) = net.step().unwrap();
        assert!(t1 <= t2);
        assert!(matches!(ev1, Event::Packet { .. }));
        assert!(matches!(ev2, Event::Timer { node, token: 42 } if node == a));
    }

    #[test]
    fn capture_records_wire_addresses() {
        let mut net: Network = Network::new(1);
        let server = net.add_public_host(geo("US"), LinkSpec::datacenter());
        let nat = net.add_nat(NatKind::FullCone, &geo("US"));
        let client = net.add_host_behind(nat, geo("US"), LinkSpec::residential());
        net.set_capture(true);
        let dst = Addr::from_ip(net.ip(server), 443);
        net.send(client, 1, dst, Transport::Tcp, Bytes::from_static(b"GET"));
        assert_eq!(net.capture().len(), 1);
        let f = &net.capture()[0];
        assert_eq!(f.src.ip, net.public_ip(client));
        assert_eq!(f.dst, dst);
    }

    #[test]
    fn outbound_tap_can_rewrite() {
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        net.install_tap(
            a,
            Box::new(|dir, d| {
                if dir == TapDirection::Outbound && d.dst.port == 80 {
                    TapVerdict::Replace(Bytes::from_static(b"polluted"))
                } else {
                    TapVerdict::Forward
                }
            }),
        );
        let dst = Addr::from_ip(net.ip(b), 80);
        net.send(a, 1, dst, Transport::Tcp, Bytes::from_static(b"orig"));
        let (_, ev) = net.step().unwrap();
        match ev {
            Event::Packet { to, dgram } => {
                assert_eq!(to, b, "delivered to the original destination");
                assert_eq!(&dgram.payload[..], b"polluted");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resource_io_counters_update() {
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        let dst = Addr::from_ip(net.ip(b), 80);
        net.send(a, 1, dst, Transport::Tcp, Bytes::from(vec![0u8; 5000]));
        assert_eq!(net.resources(a).total_tx(), 5000);
        assert_eq!(net.resources(b).total_rx(), 5000);
    }

    #[test]
    fn cross_continent_latency_exceeds_domestic() {
        let mut net: Network = Network::new(1);
        let us1 = net.add_public_host(geo("US"), LinkSpec::datacenter());
        let us2 = net.add_public_host(geo("US"), LinkSpec::datacenter());
        let cn = net.add_public_host(geo("CN"), LinkSpec::datacenter());
        let d_us = Addr::from_ip(net.ip(us2), 1);
        let d_cn = Addr::from_ip(net.ip(cn), 1);
        let t_us = match net.send(us1, 1, d_us, Transport::Tcp, Bytes::from_static(b"x")) {
            SendOutcome::Sent { deliver_at } => deliver_at,
            o => panic!("{o:?}"),
        };
        let t_cn = match net.send(us1, 1, d_cn, Transport::Tcp, Bytes::from_static(b"x")) {
            SendOutcome::Sent { deliver_at } => deliver_at,
            o => panic!("{o:?}"),
        };
        assert!(t_cn.saturating_since(SimTime::ZERO) > t_us.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn capture_filter_rejects_at_capture_time() {
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        net.set_capture(true);
        // Keep only UDP frames; TCP signaling never enters the ring.
        net.set_capture_filter(Box::new(|_, d| d.transport == Transport::Udp));
        let dst = Addr::from_ip(net.ip(b), 80);
        net.send(a, 1, dst, Transport::Tcp, Bytes::from_static(b"http"));
        net.send(a, 1, dst, Transport::Udp, Bytes::from_static(b"media"));
        assert_eq!(net.capture().len(), 1);
        assert_eq!(net.capture()[0].transport, Transport::Udp);
        assert_eq!(net.capture_filtered(), 1);
        // Without a filter (a fresh network) every frame is recorded.
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        net.set_capture(true);
        let dst = Addr::from_ip(net.ip(b), 80);
        net.send(a, 1, dst, Transport::Tcp, Bytes::from_static(b"http"));
        net.send(a, 1, dst, Transport::Udp, Bytes::from_static(b"media"));
        assert_eq!(net.capture().len(), 2);
        assert_eq!(net.capture_filtered(), 0);
    }

    #[test]
    fn capture_ring_drops_when_full() {
        let mut net: Network = Network::new(1);
        let (a, b) = two_public_hosts(&mut net);
        net.set_capture(true);
        net.set_capture_limit(3);
        let dst = Addr::from_ip(net.ip(b), 80);
        for _ in 0..5 {
            net.send(a, 1, dst, Transport::Tcp, Bytes::from_static(b"x"));
        }
        assert_eq!(net.capture().len(), 3);
        assert_eq!(net.capture_dropped(), 2);
    }

    #[test]
    fn timers_fire_in_order_with_typed_tokens() {
        #[derive(Debug, PartialEq)]
        enum Tick {
            Early,
            Late(&'static str),
        }
        let mut net = Network::new(1);
        let (a, _) = two_public_hosts(&mut net);
        net.set_timer(a, Duration::from_secs(2), Tick::Late("payload"));
        net.set_timer(a, Duration::from_secs(1), Tick::Early);
        let fired: Vec<Tick> = std::iter::from_fn(|| net.step())
            .map(|(_, ev)| match ev {
                Event::Timer { token, .. } => token,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(fired, vec![Tick::Early, Tick::Late("payload")]);
    }

    #[test]
    fn step_before_is_exclusive_and_only_moves_time_to_popped_events() {
        let mut net: Network = Network::new(1);
        let (a, _) = two_public_hosts(&mut net);
        net.set_timer(a, Duration::from_millis(3), 1);
        net.set_timer(a, Duration::from_millis(5), 2);
        let end = SimTime::from_millis(5);
        let (at, ev) = net.step_before(end).expect("3 ms timer is before the end");
        assert_eq!(at, SimTime::from_millis(3));
        assert!(matches!(ev, Event::Timer { token: 1, .. }));
        assert_eq!(net.now(), at);
        assert!(
            net.step_before(end).is_none(),
            "an event stamped exactly at `end` stays queued"
        );
        assert_eq!(
            net.now(),
            SimTime::from_millis(3),
            "a refused pop leaves the clock"
        );
        assert_eq!(net.next_event_at(), Some(end));
        let (at, _) = net
            .step_before(end + Duration::from_nanos(1))
            .expect("one nanosecond past the stamp includes it");
        assert_eq!((at, net.now()), (end, end));
        assert!(net.step_before(SimTime::from_secs(60)).is_none());
        assert_eq!(net.now(), end, "an empty queue leaves the clock too");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut net: Network = Network::new(seed);
            let (a, b) = two_public_hosts(&mut net);
            let dst = Addr::from_ip(net.ip(b), 80);
            let mut times = Vec::new();
            for _ in 0..20 {
                if let SendOutcome::Sent { deliver_at } =
                    net.send(a, 1, dst, Transport::Udp, Bytes::from(vec![0u8; 1200]))
                {
                    times.push(deliver_at.as_nanos());
                }
            }
            times
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A burst must be indistinguishable from the equivalent sequence of
    /// individual sends: same outcomes, byte-identical capture ring, and
    /// byte-identical delivered datagrams (the route cache and hoisted tap
    /// check are pure bookkeeping).
    #[test]
    fn burst_delivery_is_byte_identical_to_sequential_sends() {
        let build = |seed| {
            let mut net: Network = Network::new(seed);
            let geo = GeoInfo::new("US", 1, "AS1");
            let server = net.add_public_host(geo.clone(), LinkSpec::datacenter());
            let nat = net.add_nat(NatKind::PortRestrictedCone, &geo);
            let client = net.add_host_behind(nat, geo, LinkSpec::residential());
            net.set_capture(true);
            let dst = Addr::from_ip(net.ip(server), 443);
            (net, client, dst)
        };
        let frames: Vec<Bytes> = (0..6u8)
            .map(|i| Bytes::from(vec![i; 50 + usize::from(i) * 400]))
            .collect();

        let (mut seq_net, client, dst) = build(123);
        let seq_outcomes: Vec<SendOutcome> = frames
            .iter()
            .map(|f| seq_net.send(client, 4000, dst, Transport::Udp, f.clone()))
            .collect();

        let (mut burst_net, client2, dst2) = build(123);
        let burst_outcomes = burst_net.send_burst(client2, 4000, dst2, Transport::Udp, frames);

        assert_eq!(seq_outcomes, burst_outcomes);

        let snapshot = |frames: &[CapturedFrame]| {
            frames
                .iter()
                .map(|f| (f.at, f.src, f.dst, f.transport, f.payload.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            snapshot(seq_net.capture()),
            snapshot(burst_net.capture()),
            "capture rings must match byte for byte"
        );

        // The sequential net delivers N packets; the burst net must
        // deliver the *same* datagrams as one Event::Burst scheduled at
        // the last sequential delivery time (receive-side aggregation).
        let mut seq_deliveries = Vec::new();
        while let Some((at, ev)) = seq_net.step() {
            match ev {
                Event::Packet { to, dgram } => seq_deliveries.push((at, to, dgram)),
                other => panic!("unexpected sequential event: {other:?}"),
            }
        }
        assert!(
            seq_deliveries.len() >= 2,
            "seed must deliver enough frames to form a burst"
        );
        let (at, ev) = burst_net.step().expect("the burst arrives as one event");
        match ev {
            Event::Burst { to, dgrams } => {
                let (last_at, seq_to, _) = *seq_deliveries.last().expect("non-empty");
                assert_eq!(at, last_at, "burst lands when its last frame finishes");
                assert_eq!(to, seq_to);
                assert_eq!(dgrams.len(), seq_deliveries.len());
                for ((_, _, sd), bd) in seq_deliveries.iter().zip(&dgrams) {
                    assert_eq!(sd.src, bd.src);
                    assert_eq!(sd.dst, bd.dst);
                    assert_eq!(sd.payload, bd.payload);
                }
            }
            other => panic!("expected a burst event, got {other:?}"),
        }
        assert!(burst_net.step().is_none(), "no further burst-net events");
    }

    #[test]
    fn single_survivor_burst_degrades_to_packet() {
        let mut net: Network = Network::new(7);
        let geo = GeoInfo::new("US", 1, "AS1");
        let a = net.add_public_host(geo.clone(), LinkSpec::datacenter());
        let b = net.add_public_host(geo, LinkSpec::datacenter());
        let dst = Addr::from_ip(net.ip(b), 443);
        let outcomes = net.send_burst(
            a,
            4000,
            dst,
            Transport::Udp,
            vec![Bytes::from_static(b"one")],
        );
        assert!(matches!(outcomes[0], SendOutcome::Sent { .. }));
        let (_, ev) = net.step().expect("delivered");
        assert!(
            matches!(ev, Event::Packet { .. }),
            "a lone frame arrives as a plain packet, not a burst"
        );
    }
}
