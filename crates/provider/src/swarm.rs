//! Space-sharded million-peer swarm world.
//!
//! [`crate::world::PdnWorld`] is the protocol-fidelity harness: full
//! ICE/DTLS handshakes, wire codecs, NATs, MITM taps. That fidelity costs
//! kilobytes and many events per peer, and its single `Network` consumes
//! one shared RNG in global send order — inherently serial. Population-
//! scale questions (does offload hold at 100k viewers? how do stalls
//! distribute across regions as swarms grow?) need the *swarm dynamics*
//! — tracker introduction, availability gossip, request/deliver timing,
//! bandwidth contention, CDN fallback — at a per-peer cost measured in
//! bytes, not kilobytes.
//!
//! [`SwarmWorld`] is that abstraction: peers are fixed-size
//! [`CompactPeer`] records (no heap allocation per peer — the
//! interned-id/slab/bitmap diet of [`crate::state`] taken to its limit),
//! segments are bits in a `u64`, and the world is partitioned into
//! spatial **regions** that map wholly onto shards executed by
//! [`pdn_simnet::shard::run_sharded`].
//!
//! # Determinism at any shard count
//!
//! Result tables are byte-identical at K = 1, 2, 4, 8 shards, threaded or
//! inline. Three rules make that hold:
//!
//! - **Region-stable partitioning.** `region(p) = p % regions`, and
//!   `shard(p) = region(p) % K`. Because `regions` is a multiple of 8,
//!   every supported K divides it, so a region's peers always share a
//!   shard and same-region traffic never crosses a shard boundary.
//! - **Content-derived event keys.** Every message carries tie-break key
//!   `(origin << 32) | origin_counter`, and queues order by
//!   `(time, key)` via [`pdn_simnet::CalendarQueue::push_keyed`] — pop
//!   order is a function of the events themselves, never of which shard
//!   or window pushed them first.
//! - **Counter-keyed randomness.** Jitter draws hash `(seed, origin,
//!   counter)`; there is no shared RNG stream to consume in send order.
//!
//! State mutated while processing an event is owned by the event's
//! destination (receiver-side bandwidth chaining included), so event
//! processing commutes across peers and only the per-peer order — which
//! the keys fix globally — matters.
//!
//! # Lookahead
//!
//! Cross-shard messages travel either peer↔tracker (`tracker_latency`) or
//! cross-region (`far_latency`), so the conservative window is
//! [`SwarmConfig::lookahead`] `= min(far_latency, tracker_latency)`.
//! Same-region latency may be arbitrarily small: it never crosses shards.

use std::time::Duration;

use pdn_simnet::shard::{run_sharded, ShardMode, ShardRunReport, ShardWorld};
use pdn_simnet::{splitmix64_finalize, CalendarQueue, SimTime};

/// Neighbor slots per peer. Fixed so [`CompactPeer`] stays heap-free.
pub const MAX_NEIGHBORS: usize = 6;

/// Destination id of the tracker (lives on shard 0).
const TRACKER: u32 = u32::MAX;

/// Empty neighbor slot marker.
const EMPTY: u32 = u32::MAX;

/// "No request in flight" marker for [`CompactPeer::pending_seq`].
const NO_SEQ: u8 = u8::MAX;

/// Peer lifecycle states.
const IDLE: u8 = 0;
const JOINING: u8 = 1;
const STREAMING: u8 = 2;
const DONE: u8 = 3;

/// Uploads queue at most this far past "now" before a request is Nacked.
const UP_BACKLOG_CAP_NS: u64 = 2_000_000_000;

/// SplitMix64 over `(seed, origin, ctr)` — the swarm's only randomness.
/// A pure function of message content, so draws are identical no matter
/// which shard evaluates them or in which window.
fn mix(seed: u64, origin: u32, ctr: u32) -> u64 {
    let ident = ((origin as u64) << 32) | ctr as u64;
    splitmix64_finalize(seed ^ ident.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Nanoseconds to serialize `bytes` at `bps` (ceiling, min 1 ns).
fn ser_ns(bytes: u64, bps: u64) -> u64 {
    (bytes.saturating_mul(8).saturating_mul(1_000_000_000))
        .div_ceil(bps.max(1))
        .max(1)
}

/// Configuration of a [`SwarmWorld`].
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Total peers (rounded up to a multiple of `regions` by
    /// [`SwarmWorld::new`]).
    pub peers: u32,
    /// Spatial regions; must be a multiple of 8 so shard counts 1/2/4/8
    /// all divide it (region↔shard mapping stays K-invariant).
    pub regions: u16,
    /// Segments in the VOD (≤ 64: availability is a `u64` bitmap).
    pub segments: u8,
    /// Bytes per segment.
    pub seg_bytes: u32,
    /// Playback consumes one segment every this many ticks.
    pub seg_ticks: u8,
    /// Base seed for all counter-keyed randomness.
    pub seed: u64,
    /// Peers join uniformly across this window from t=0.
    pub join_window: Duration,
    /// Simulation deadline.
    pub duration: Duration,
    /// Agent tick interval (jittered per tick).
    pub tick: Duration,
    /// Same-region one-way latency (intra-shard at every K).
    pub near_latency: Duration,
    /// Cross-region one-way latency (may cross shards).
    pub far_latency: Duration,
    /// Peer ↔ tracker one-way latency (may cross shards).
    pub tracker_latency: Duration,
    /// Max additive latency jitter (counter-keyed).
    pub jitter: Duration,
    /// Peer uplink bandwidth.
    pub up_bps: u64,
    /// Peer downlink bandwidth.
    pub down_bps: u64,
    /// CDN request round-trip before the body starts arriving.
    pub cdn_rtt: Duration,
    /// Median ticks a needed segment may be P2P-unavailable before
    /// falling back to the CDN. Each peer draws its own patience in
    /// `1..=2×cdn_patience+1` (counter-keyed, deterministic): if every
    /// peer fell back after the same wait, whole regions would reach the
    /// swarm frontier together and fetch the same segment from the CDN in
    /// parallel — impatient peers become the frontier fetchers, patient
    /// peers catch the availability gossip and fetch peer-to-peer.
    pub cdn_patience: u8,
    /// Fetch-ahead buffer in segments. Fetching pauses once this many
    /// segments past the playhead are in flight or held, so followers
    /// stay behind their predecessors' frontier and fetch peer-to-peer
    /// instead of racing everyone to the CDN.
    pub buffer_segs: u8,
    /// In-flight P2P request timeout before retry/fallback.
    pub p2p_timeout: Duration,
    /// Neighbor slots actually used (≤ [`MAX_NEIGHBORS`]).
    pub max_neighbors: u8,
}

impl SwarmConfig {
    /// A realistic VOD swarm at the given scale: 40 regions, 64×4 s
    /// segments at 500 kbps, residential asymmetric links.
    pub fn scale(peers: u32) -> Self {
        SwarmConfig {
            peers,
            regions: 40,
            segments: 64,
            seg_bytes: 250_000,
            seg_ticks: 4,
            seed: 1,
            join_window: Duration::from_secs(60),
            duration: Duration::from_secs(420),
            tick: Duration::from_secs(1),
            near_latency: Duration::from_millis(10),
            far_latency: Duration::from_millis(60),
            tracker_latency: Duration::from_millis(60),
            jitter: Duration::from_millis(5),
            up_bps: 8_000_000,
            down_bps: 25_000_000,
            cdn_rtt: Duration::from_millis(100),
            cdn_patience: 2,
            buffer_segs: 3,
            p2p_timeout: Duration::from_secs(3),
            max_neighbors: MAX_NEIGHBORS as u8,
        }
    }

    /// A small fast configuration for tests and `--quick` gates.
    pub fn quick(peers: u32) -> Self {
        let mut cfg = Self::scale(peers);
        cfg.segments = 32;
        cfg.join_window = Duration::from_secs(20);
        cfg.duration = Duration::from_secs(200);
        cfg
    }

    /// The conservative lookahead window: the minimum latency of any link
    /// that can cross a shard boundary. Same-region links are always
    /// intra-shard, so only far and tracker latency constrain it.
    pub fn lookahead(&self) -> Duration {
        self.far_latency.min(self.tracker_latency)
    }

    /// Validated copy: peers rounded up to a whole number of regions,
    /// neighbor count clamped. Panics if `regions` is not a positive
    /// multiple of 8 or `segments` exceeds 64.
    fn normalized(&self) -> SwarmConfig {
        let mut cfg = self.clone();
        assert!(
            cfg.regions > 0 && cfg.regions.is_multiple_of(8),
            "regions must be a positive multiple of 8 (got {})",
            cfg.regions
        );
        assert!(
            cfg.segments >= 1 && cfg.segments <= 64,
            "segments must be 1..=64 (got {})",
            cfg.segments
        );
        let r = cfg.regions as u32;
        cfg.peers = cfg.peers.max(1).div_ceil(r) * r;
        cfg.max_neighbors = cfg.max_neighbors.clamp(1, MAX_NEIGHBORS as u8);
        cfg.seg_ticks = cfg.seg_ticks.max(1);
        cfg.buffer_segs = cfg.buffer_segs.max(1);
        cfg
    }
}

/// One peer, fixed-size and heap-free: availability and in-flight state
/// are bitmaps, neighbors are inline arrays, bandwidth chaining is two
/// timestamps. The compile-time audit below pins the footprint.
#[derive(Debug, Clone)]
pub struct CompactPeer {
    /// Segments held (bit per segment).
    have: u64,
    /// Segments with a fetch in flight (P2P or CDN).
    requested: u64,
    /// Last announced availability of each neighbor slot.
    avail: [u64; MAX_NEIGHBORS],
    /// Neighbor peer ids ([`EMPTY`] = free slot).
    neighbors: [u32; MAX_NEIGHBORS],
    /// Uplink is serialized until this simulation time.
    up_free_ns: u64,
    /// Downlink is serialized until this simulation time.
    down_free_ns: u64,
    /// When the in-flight P2P request was issued (timeout base).
    pending_at_ns: u64,
    /// Monotone message counter: tie-break keys and jitter draws.
    send_ctr: u32,
    /// Spatial region (fixes shard assignment and link latency).
    region: u16,
    /// Occupied neighbor slots.
    n_neighbors: u8,
    /// Lifecycle: IDLE → JOINING → STREAMING → DONE.
    state: u8,
    /// Next segment playback will consume.
    play_pos: u8,
    /// Ticks accumulated toward the next playback advance.
    play_ticks: u8,
    /// Ticks the current needed segment has been P2P-unavailable.
    wait_ticks: u8,
    /// Segment of the in-flight request ([`NO_SEQ`] = none).
    pending_seq: u8,
    /// Availability changed since the last HAVE announcement.
    dirty: bool,
}

// Compile-time memory-diet audit: the scale target (million-peer worlds
// in container memory) rests on these bounds, so a field addition that
// breaks them should fail the build, not the bench.
const _: () = assert!(std::mem::size_of::<CompactPeer>() <= 128);
const _: () = assert!(std::mem::size_of::<SwarmMsg>() <= 56);

impl CompactPeer {
    fn new(region: u16) -> Self {
        CompactPeer {
            have: 0,
            requested: 0,
            avail: [0; MAX_NEIGHBORS],
            neighbors: [EMPTY; MAX_NEIGHBORS],
            up_free_ns: 0,
            down_free_ns: 0,
            pending_at_ns: 0,
            send_ctr: 0,
            region,
            n_neighbors: 0,
            state: IDLE,
            play_pos: 0,
            play_ticks: 0,
            wait_ticks: 0,
            pending_seq: NO_SEQ,
            dirty: false,
        }
    }

    fn neighbor_slot(&self, id: u32) -> Option<usize> {
        self.neighbors[..self.n_neighbors as usize]
            .iter()
            .position(|&n| n == id)
    }

    fn add_neighbor(&mut self, id: u32, cap: u8) -> bool {
        if self.neighbor_slot(id).is_some() {
            return false;
        }
        let cap = (cap as usize).min(MAX_NEIGHBORS);
        if (self.n_neighbors as usize) < cap {
            self.neighbors[self.n_neighbors as usize] = id;
            self.avail[self.n_neighbors as usize] = 0;
            self.n_neighbors += 1;
            true
        } else {
            false
        }
    }
}

/// A cross-shard (or local) swarm event: arrival stamp, content-derived
/// tie-break key, destination, payload.
#[derive(Debug, Clone, Copy)]
pub struct SwarmMsg {
    at_ns: u64,
    key: u64,
    to: u32,
    kind: MsgKind,
}

#[derive(Debug, Clone, Copy)]
enum MsgKind {
    /// Local agent timer.
    Tick,
    /// Peer → tracker: announce presence, request neighbors.
    Join { from: u32 },
    /// Tracker → peer: neighbor candidates ([`EMPTY`]-padded).
    Neighbors { list: [u32; MAX_NEIGHBORS] },
    /// Peer → peer: open a neighbor edge.
    Hello { from: u32 },
    /// Peer → peer: edge accepted (or tolerated), with availability.
    HelloAck { from: u32, have: u64 },
    /// Peer → peer: availability gossip (full bitmap).
    Have { from: u32, have: u64 },
    /// Peer → peer: fetch one segment.
    Request { from: u32, seq: u8 },
    /// Peer → peer: segment bytes (stamped at upload-serialize + latency).
    Deliver { seq: u8 },
    /// Peer → peer: request refused (missing segment or uplink backlog).
    Nack { from: u32, seq: u8 },
    /// Local: CDN fetch finished serializing onto the downlink.
    CdnDone { seq: u8 },
    /// Local: P2P delivery finished serializing onto the downlink.
    SegDone { seq: u8 },
}

/// Per-region aggregates, summed across the region's peers. Every field
/// is a sum of per-peer contributions, so totals are shard-count
/// invariant as long as each peer's history is.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionStats {
    /// Peers assigned to the region.
    pub peers: u64,
    /// Peers that finished playback.
    pub completed: u64,
    /// Segments received from peers.
    pub p2p_rx: u64,
    /// Segments uploaded to peers.
    pub p2p_tx: u64,
    /// Segments fetched from the CDN.
    pub cdn_rx: u64,
    /// Refused upload requests.
    pub nacks: u64,
    /// Playback stall ticks (after startup).
    pub stalls: u64,
    /// Sum of completion times in ms (for mean time-to-done).
    pub sum_done_ms: u64,
}

impl RegionStats {
    fn absorb(&mut self, s: &RegionStats) {
        self.peers += s.peers;
        self.completed += s.completed;
        self.p2p_rx += s.p2p_rx;
        self.cdn_rx += s.cdn_rx;
        self.p2p_tx += s.p2p_tx;
        self.nacks += s.nacks;
        self.stalls += s.stalls;
        self.sum_done_ms += s.sum_done_ms;
    }
}

/// The tracker: per-region and global recent-joiner rings. Lives on
/// shard 0; all its events arrive through shard 0's queue, so its state
/// evolves in global `(time, key)` order at any K.
#[derive(Debug)]
struct Tracker {
    region_rings: Vec<[u32; 4]>,
    region_cursors: Vec<u8>,
    global_ring: [u32; 8],
    global_cursor: u8,
    send_ctr: u32,
    joins: u64,
}

impl Tracker {
    fn new(regions: u16) -> Self {
        Tracker {
            region_rings: vec![[EMPTY; 4]; regions as usize],
            region_cursors: vec![0; regions as usize],
            global_ring: [EMPTY; 8],
            global_cursor: 0,
            send_ctr: 0,
            joins: 0,
        }
    }

    /// Neighbor candidates for a joiner: same-region recents first (the
    /// paper's locality-aware matching), globals as filler, then record
    /// the joiner in both rings.
    fn join(&mut self, from: u32, region: u16, cap: u8) -> [u32; MAX_NEIGHBORS] {
        let mut list = [EMPTY; MAX_NEIGHBORS];
        let mut n = 0usize;
        let cap = (cap as usize).min(MAX_NEIGHBORS);
        let ring = self.region_rings[region as usize];
        for cand in ring.iter().chain(self.global_ring.iter()) {
            if n >= cap {
                break;
            }
            if *cand == EMPTY || *cand == from || list[..n].contains(cand) {
                continue;
            }
            list[n] = *cand;
            n += 1;
        }
        let rc = &mut self.region_cursors[region as usize];
        self.region_rings[region as usize][*rc as usize] = from;
        *rc = (*rc + 1) % 4;
        self.global_ring[self.global_cursor as usize] = from;
        self.global_cursor = (self.global_cursor + 1) % 8;
        self.joins += 1;
        list
    }

    fn mem_bytes(&self) -> usize {
        self.region_rings.capacity() * std::mem::size_of::<[u32; 4]>()
            + self.region_cursors.capacity()
            + std::mem::size_of::<Self>()
    }
}

/// One spatial shard: the peers of every region `r` with
/// `r % K == index`, their calendar queue, and (on shard 0) the tracker.
#[derive(Debug)]
pub struct SwarmShard {
    index: usize,
    k: usize,
    cfg: SwarmConfig,
    peers: Vec<CompactPeer>,
    queue: CalendarQueue<SwarmMsg>,
    tracker: Option<Tracker>,
    regions: Vec<RegionStats>,
    events: u64,
}

impl SwarmShard {
    fn regions_per_shard(&self) -> usize {
        self.cfg.regions as usize / self.k
    }

    /// Local index of a peer this shard owns.
    fn local_of(&self, p: u32) -> usize {
        let r = (p as usize) % self.cfg.regions as usize;
        debug_assert_eq!(r % self.k, self.index, "peer {p} not on shard");
        (p as usize / self.cfg.regions as usize) * self.regions_per_shard() + r / self.k
    }

    /// Global id of a local peer index (inverse of [`Self::local_of`]).
    fn global_of(&self, local: usize) -> u32 {
        let rps = self.regions_per_shard();
        let row = local / rps;
        let r = (local % rps) * self.k + self.index;
        (row * self.cfg.regions as usize + r) as u32
    }

    fn region_of(&self, p: u32) -> u16 {
        (p % self.cfg.regions as u32) as u16
    }

    fn shard_of(&self, p: u32) -> usize {
        if p == TRACKER {
            0
        } else {
            (p as usize % self.cfg.regions as usize) % self.k
        }
    }

    /// Local region-stats slot for a region this shard owns.
    fn stats_of(&mut self, region: u16) -> &mut RegionStats {
        let i = region as usize / self.k;
        &mut self.regions[i]
    }

    /// Base one-way latency between two endpoints (before jitter).
    fn latency_ns(&self, from: u32, to: u32) -> u64 {
        if from == TRACKER || to == TRACKER {
            self.cfg.tracker_latency.as_nanos() as u64
        } else if self.region_of(from) == self.region_of(to) {
            self.cfg.near_latency.as_nanos() as u64
        } else {
            self.cfg.far_latency.as_nanos() as u64
        }
    }

    /// Emits a message from `origin` (counter `ctr`) to `to`, departing
    /// at `depart_ns`: stamps arrival with base latency + counter-keyed
    /// jitter, routes locally or into the barrier outbox.
    #[allow(clippy::too_many_arguments)]
    fn post(
        &mut self,
        outbox: &mut Vec<(usize, SwarmMsg)>,
        depart_ns: u64,
        origin: u32,
        ctr: u32,
        to: u32,
        kind: MsgKind,
    ) {
        let jitter_cap = self.cfg.jitter.as_nanos() as u64;
        let jitter = if jitter_cap == 0 {
            0
        } else {
            mix(self.cfg.seed, origin, ctr) % (jitter_cap + 1)
        };
        let msg = SwarmMsg {
            at_ns: depart_ns + self.latency_ns(origin, to) + jitter,
            key: ((origin as u64) << 32) | ctr as u64,
            to,
            kind,
        };
        let dst = self.shard_of(to);
        if dst == self.index {
            self.queue
                .push_keyed(SimTime::from_nanos(msg.at_ns), msg.key, msg);
        } else {
            outbox.push((dst, msg));
        }
    }

    /// Schedules a local event (tick, serialization completion) for a
    /// peer this shard owns.
    fn post_local(&mut self, at_ns: u64, origin: u32, ctr: u32, to: u32, kind: MsgKind) {
        let msg = SwarmMsg {
            at_ns,
            key: ((origin as u64) << 32) | ctr as u64,
            to,
            kind,
        };
        self.queue
            .push_keyed(SimTime::from_nanos(msg.at_ns), msg.key, msg);
    }

    fn process(&mut self, at_ns: u64, msg: SwarmMsg, outbox: &mut Vec<(usize, SwarmMsg)>) {
        self.events += 1;
        if msg.to == TRACKER {
            self.process_tracker(at_ns, msg, outbox);
        } else {
            self.process_peer(at_ns, msg, outbox);
        }
    }

    fn process_tracker(&mut self, at_ns: u64, msg: SwarmMsg, outbox: &mut Vec<(usize, SwarmMsg)>) {
        let MsgKind::Join { from } = msg.kind else {
            return;
        };
        let region = self.region_of(from);
        let cap = self.cfg.max_neighbors;
        let tracker = self.tracker.as_mut().expect("tracker lives on shard 0");
        let list = tracker.join(from, region, cap);
        let ctr = tracker.send_ctr;
        tracker.send_ctr += 1;
        self.post(
            outbox,
            at_ns,
            TRACKER,
            ctr,
            from,
            MsgKind::Neighbors { list },
        );
    }

    fn process_peer(&mut self, at_ns: u64, msg: SwarmMsg, outbox: &mut Vec<(usize, SwarmMsg)>) {
        let local = self.local_of(msg.to);
        let me = msg.to;
        match msg.kind {
            MsgKind::Tick => self.on_tick(at_ns, local, me, outbox),
            MsgKind::Join { .. } => {}
            MsgKind::Neighbors { list } => {
                let cap = self.cfg.max_neighbors;
                let p = &mut self.peers[local];
                if p.state == JOINING {
                    p.state = STREAMING;
                }
                let mut hellos: [u32; MAX_NEIGHBORS] = [EMPTY; MAX_NEIGHBORS];
                let mut n = 0;
                for &cand in list.iter() {
                    if cand != EMPTY && p.add_neighbor(cand, cap) {
                        hellos[n] = cand;
                        n += 1;
                    }
                }
                for &cand in &hellos[..n] {
                    let ctr = self.peers[local].send_ctr;
                    self.peers[local].send_ctr += 1;
                    self.post(outbox, at_ns, me, ctr, cand, MsgKind::Hello { from: me });
                }
            }
            MsgKind::Hello { from } => {
                let cap = self.cfg.max_neighbors;
                let regions = self.cfg.regions as u32;
                let my_region = (me % regions) as u16;
                let same_region = (from % regions) as u16 == my_region;
                let p = &mut self.peers[local];
                if !p.add_neighbor(from, cap) && same_region {
                    // Table already full of earlier (mostly cross-region)
                    // greeters: evict one stranger for the region-mate.
                    // Region cliques are the offload backbone — a peer that
                    // never links its region-mates can only see stale
                    // HelloAck snapshots and falls back to the CDN for
                    // every frontier segment.
                    if let Some(slot) = (0..p.n_neighbors as usize)
                        .find(|&i| (p.neighbors[i] % regions) as u16 != my_region)
                    {
                        p.neighbors[slot] = from;
                        p.avail[slot] = 0;
                    }
                }
                let have = p.have;
                let ctr = p.send_ctr;
                p.send_ctr += 1;
                self.post(
                    outbox,
                    at_ns,
                    me,
                    ctr,
                    from,
                    MsgKind::HelloAck { from: me, have },
                );
            }
            MsgKind::HelloAck { from, have } | MsgKind::Have { from, have } => {
                let p = &mut self.peers[local];
                if let Some(slot) = p.neighbor_slot(from) {
                    p.avail[slot] = have;
                }
            }
            MsgKind::Request { from, seq } => self.on_request(at_ns, local, me, from, seq, outbox),
            MsgKind::Deliver { seq } => {
                let down_bps = self.cfg.down_bps;
                let seg = self.cfg.seg_bytes as u64;
                let p = &mut self.peers[local];
                if p.have & (1 << seq) != 0 {
                    return; // raced a CDN fallback; already held
                }
                let done = at_ns.max(p.down_free_ns) + ser_ns(seg, down_bps);
                p.down_free_ns = done;
                let ctr = p.send_ctr;
                p.send_ctr += 1;
                self.post_local(done, me, ctr, me, MsgKind::SegDone { seq });
            }
            MsgKind::Nack { from, seq } => {
                let p = &mut self.peers[local];
                if let Some(slot) = p.neighbor_slot(from) {
                    p.avail[slot] &= !(1 << seq); // they said no; stop asking
                }
                if p.pending_seq == seq {
                    p.pending_seq = NO_SEQ;
                    p.requested &= !(1 << seq);
                    p.wait_ticks = p.wait_ticks.saturating_add(1);
                }
                let region = p.region;
                self.stats_of(region).nacks += 1;
            }
            MsgKind::CdnDone { seq } => self.on_acquired(at_ns, local, seq, false),
            MsgKind::SegDone { seq } => self.on_acquired(at_ns, local, seq, true),
        }
    }

    /// A segment finished arriving (P2P or CDN): record it, free the
    /// in-flight slot, mark availability dirty for the next gossip tick.
    fn on_acquired(&mut self, _at_ns: u64, local: usize, seq: u8, p2p: bool) {
        let p = &mut self.peers[local];
        if p.have & (1 << seq) != 0 {
            return;
        }
        p.have |= 1 << seq;
        p.requested &= !(1 << seq);
        if p.pending_seq == seq {
            p.pending_seq = NO_SEQ;
        }
        p.wait_ticks = 0;
        p.dirty = true;
        let region = p.region;
        let s = self.stats_of(region);
        if p2p {
            s.p2p_rx += 1;
        } else {
            s.cdn_rx += 1;
        }
    }

    /// An upload request: serve if the segment is held and the uplink
    /// backlog is tolerable, chaining the upload serialization onto
    /// `up_free_ns`; Nack otherwise.
    fn on_request(
        &mut self,
        at_ns: u64,
        local: usize,
        me: u32,
        from: u32,
        seq: u8,
        outbox: &mut Vec<(usize, SwarmMsg)>,
    ) {
        let seg = self.cfg.seg_bytes as u64;
        let up_bps = self.cfg.up_bps;
        let p = &mut self.peers[local];
        let has = p.have & (1 << seq) != 0;
        let backlog = p.up_free_ns.saturating_sub(at_ns);
        if !has || backlog > UP_BACKLOG_CAP_NS {
            let ctr = p.send_ctr;
            p.send_ctr += 1;
            self.post(
                outbox,
                at_ns,
                me,
                ctr,
                from,
                MsgKind::Nack { from: me, seq },
            );
            return;
        }
        let tx_done = at_ns.max(p.up_free_ns) + ser_ns(seg, up_bps);
        p.up_free_ns = tx_done;
        let ctr = p.send_ctr;
        p.send_ctr += 1;
        let region = p.region;
        self.stats_of(region).p2p_tx += 1;
        self.post(outbox, tx_done, me, ctr, from, MsgKind::Deliver { seq });
    }

    fn on_tick(&mut self, at_ns: u64, local: usize, me: u32, outbox: &mut Vec<(usize, SwarmMsg)>) {
        let cfg_segments = self.cfg.segments;
        let seg_ticks = self.cfg.seg_ticks;
        let timeout_ns = self.cfg.p2p_timeout.as_nanos() as u64;
        let tick_ns = self.cfg.tick.as_nanos() as u64;
        let seed = self.cfg.seed;
        // Per-peer CDN patience (constant per peer, keyed off a counter
        // value no real message ever uses).
        let spread = 2 * self.cfg.cdn_patience as u64 + 1;
        let patience = (1 + mix(seed, me, u32::MAX - 1) % spread) as u8;

        // 1. Join on first tick.
        if self.peers[local].state == IDLE {
            let p = &mut self.peers[local];
            p.state = JOINING;
            let ctr = p.send_ctr;
            p.send_ctr += 1;
            self.post(outbox, at_ns, me, ctr, TRACKER, MsgKind::Join { from: me });
        }

        // 2. Playback clock: one segment per `seg_ticks` ticks; a due
        // segment that is absent is a stall tick (after startup).
        let mut finished = false;
        {
            let p = &mut self.peers[local];
            if p.state == STREAMING {
                p.play_ticks = p.play_ticks.saturating_add(1);
                if p.play_ticks >= seg_ticks {
                    if p.have & (1 << p.play_pos) != 0 {
                        p.play_pos += 1;
                        p.play_ticks = 0;
                        if p.play_pos >= cfg_segments {
                            p.state = DONE;
                            finished = true;
                        }
                    } else if p.play_pos > 0 {
                        let region = p.region;
                        self.stats_of(region).stalls += 1;
                    }
                }
            }
        }
        if finished {
            let region = self.peers[local].region;
            let s = self.stats_of(region);
            s.completed += 1;
            s.sum_done_ms += at_ns / 1_000_000;
            // A finished peer stops ticking but keeps serving uploads
            // (a seed); announce its final availability first.
            self.announce_if_dirty(at_ns, local, me, outbox);
            return;
        }

        // 3. Fetch pump (single outstanding request).
        if self.peers[local].state == STREAMING {
            // Expire a stuck P2P request.
            {
                let p = &mut self.peers[local];
                if p.pending_seq != NO_SEQ && at_ns.saturating_sub(p.pending_at_ns) > timeout_ns {
                    p.requested &= !(1 << p.pending_seq);
                    p.pending_seq = NO_SEQ;
                    p.wait_ticks = p.wait_ticks.saturating_add(1);
                }
            }
            if self.peers[local].pending_seq == NO_SEQ {
                let buffer = self.cfg.buffer_segs;
                let p = &self.peers[local];
                let window_end = (p.play_pos as u16 + buffer as u16).min(cfg_segments as u16) as u8;
                let target = (p.play_pos..window_end)
                    .find(|&s| p.have & (1 << s) == 0 && p.requested & (1 << s) == 0);
                if let Some(seq) = target {
                    // Prefer a neighbor advertising the segment; rotate
                    // the starting slot by a counter-keyed draw so load
                    // spreads without a shared RNG.
                    let n = p.n_neighbors as usize;
                    let supplier = if n > 0 {
                        let start = (mix(seed, me, p.send_ctr) as usize) % n;
                        (0..n)
                            .map(|i| (start + i) % n)
                            .find(|&i| p.avail[i] & (1 << seq) != 0)
                            .map(|i| p.neighbors[i])
                    } else {
                        None
                    };
                    if let Some(neighbor) = supplier {
                        let p = &mut self.peers[local];
                        p.requested |= 1 << seq;
                        p.pending_seq = seq;
                        p.pending_at_ns = at_ns;
                        let ctr = p.send_ctr;
                        p.send_ctr += 1;
                        self.post(
                            outbox,
                            at_ns,
                            me,
                            ctr,
                            neighbor,
                            MsgKind::Request { from: me, seq },
                        );
                    } else {
                        let p = &mut self.peers[local];
                        p.wait_ticks = p.wait_ticks.saturating_add(1);
                        if p.wait_ticks > patience {
                            // CDN fallback: RTT + downlink serialization,
                            // chained on the receiver's downlink.
                            let cdn_rtt = self.cfg.cdn_rtt.as_nanos() as u64;
                            let seg = self.cfg.seg_bytes as u64;
                            let down_bps = self.cfg.down_bps;
                            let p = &mut self.peers[local];
                            let done = at_ns.max(p.down_free_ns) + cdn_rtt + ser_ns(seg, down_bps);
                            p.down_free_ns = done;
                            p.requested |= 1 << seq;
                            p.pending_seq = seq;
                            p.pending_at_ns = done; // completes exactly then
                            p.wait_ticks = 0;
                            let ctr = p.send_ctr;
                            p.send_ctr += 1;
                            self.post_local(done, me, ctr, me, MsgKind::CdnDone { seq });
                        }
                    }
                }
            }
        }

        // 4. Availability gossip.
        self.announce_if_dirty(at_ns, local, me, outbox);

        // 5. Next tick (jittered, counter-keyed).
        let p = &mut self.peers[local];
        let ctr = p.send_ctr;
        p.send_ctr += 1;
        let jitter = mix(seed, me, ctr) % (tick_ns / 8 + 1);
        self.post_local(at_ns + tick_ns + jitter, me, ctr, me, MsgKind::Tick);
    }

    fn announce_if_dirty(
        &mut self,
        at_ns: u64,
        local: usize,
        me: u32,
        outbox: &mut Vec<(usize, SwarmMsg)>,
    ) {
        if !self.peers[local].dirty {
            return;
        }
        self.peers[local].dirty = false;
        let have = self.peers[local].have;
        let n = self.peers[local].n_neighbors as usize;
        for i in 0..n {
            let neighbor = self.peers[local].neighbors[i];
            // Skip neighbors already known to hold everything we do.
            if self.peers[local].avail[i] & have == have {
                continue;
            }
            let p = &mut self.peers[local];
            let ctr = p.send_ctr;
            p.send_ctr += 1;
            self.post(
                outbox,
                at_ns,
                me,
                ctr,
                neighbor,
                MsgKind::Have { from: me, have },
            );
        }
    }

    /// Approximate heap + inline footprint of this shard in bytes.
    fn mem_bytes(&self) -> usize {
        self.peers.capacity() * std::mem::size_of::<CompactPeer>()
            + self.queue.mem_bytes()
            + self.regions.capacity() * std::mem::size_of::<RegionStats>()
            + self.tracker.as_ref().map_or(0, |t| t.mem_bytes())
    }
}

impl ShardWorld for SwarmShard {
    type Msg = SwarmMsg;

    fn next_at(&self) -> Option<SimTime> {
        self.queue.next_at()
    }

    fn run_window(&mut self, end: SimTime, outbox: &mut Vec<(usize, SwarmMsg)>) {
        while let Some((at, msg)) = self.queue.pop_before(end) {
            self.process(at.as_nanos(), msg, outbox);
        }
    }

    fn deliver(&mut self, msg: SwarmMsg) {
        self.queue
            .push_keyed(SimTime::from_nanos(msg.at_ns), msg.key, msg);
    }

    fn stamp(msg: &SwarmMsg) -> SimTime {
        SimTime::from_nanos(msg.at_ns)
    }
}

/// A swarm world partitioned into K spatial shards. See the module docs
/// for the determinism contract.
#[derive(Debug)]
pub struct SwarmWorld {
    shards: Vec<SwarmShard>,
    cfg: SwarmConfig,
    k: usize,
}

impl SwarmWorld {
    /// Builds the world with `k` shards. Panics unless `k` divides
    /// `cfg.regions` (1, 2, 4 and 8 always work).
    pub fn new(cfg: &SwarmConfig, k: usize) -> Self {
        let cfg = cfg.normalized();
        let k = k.max(1);
        assert!(
            (cfg.regions as usize).is_multiple_of(k),
            "shard count {k} must divide regions {}",
            cfg.regions
        );
        let mut shards: Vec<SwarmShard> = (0..k)
            .map(|index| SwarmShard {
                index,
                k,
                cfg: cfg.clone(),
                peers: Vec::new(),
                queue: CalendarQueue::new(),
                tracker: (index == 0).then(|| Tracker::new(cfg.regions)),
                regions: vec![RegionStats::default(); cfg.regions as usize / k],
                events: 0,
            })
            .collect();
        let n = cfg.peers;
        let locals_per_shard = (n as usize / cfg.regions as usize) * (cfg.regions as usize / k);
        for shard in &mut shards {
            shard.peers.reserve_exact(locals_per_shard);
        }
        let join_ns = cfg.join_window.as_nanos() as u64;
        for shard in shards.iter_mut() {
            for local in 0..locals_per_shard {
                let p = shard.global_of(local);
                let region = shard.region_of(p);
                shard.peers.push(CompactPeer::new(region));
                shard.stats_of(region).peers += 1;
                // Staggered, jittered join; counter 0 is the first tick.
                let join_at = join_ns * p as u64 / n as u64
                    + mix(cfg.seed, p, u32::MAX) % (cfg.tick.as_nanos() as u64)
                    + 1;
                shard.peers[local].send_ctr = 1;
                shard.post_local(join_at, p, 0, p, MsgKind::Tick);
            }
        }
        SwarmWorld { shards, cfg, k }
    }

    /// Runs the world to its configured deadline.
    pub fn run(&mut self, mode: ShardMode) -> ShardRunReport {
        run_sharded(
            &mut self.shards,
            self.cfg.lookahead(),
            SimTime::from_nanos(self.cfg.duration.as_nanos() as u64),
            mode,
        )
    }

    /// Peers actually simulated (after rounding to whole regions).
    pub fn peers(&self) -> u32 {
        self.cfg.peers
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.k
    }

    /// Total events processed across shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Approximate resident footprint of the world in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.mem_bytes()).sum()
    }

    /// The per-region result table — the byte-compared determinism
    /// artifact. Regions are merged across shards in region-index order
    /// (index-derived, like `WorldPool`), never completion order.
    pub fn table(&self) -> String {
        let mut out = String::with_capacity(64 * (self.cfg.regions as usize + 3));
        out.push_str(
            "region  peers  completed  p2p_rx  cdn_rx  p2p_tx  nacks  stalls  offload  avg_done_s\n",
        );
        let mut total = RegionStats::default();
        for r in 0..self.cfg.regions {
            let shard = &self.shards[r as usize % self.k];
            let s = shard.regions[r as usize / self.k];
            total.absorb(&s);
            out.push_str(&Self::row(&r.to_string(), &s));
        }
        out.push_str(&Self::row("TOTAL", &total));
        out
    }

    /// World-wide counter totals (the TOTAL row of [`table`](Self::table)
    /// as numbers — the bench reads offload and completion from here).
    pub fn totals(&self) -> RegionStats {
        let mut total = RegionStats::default();
        for shard in &self.shards {
            for s in &shard.regions {
                total.absorb(s);
            }
        }
        total
    }

    fn row(label: &str, s: &RegionStats) -> String {
        let fetched = s.p2p_rx + s.cdn_rx;
        let offload_pct = (s.p2p_rx * 1000).checked_div(fetched).unwrap_or(0);
        let avg_done_s = s.sum_done_ms.checked_div(s.completed).unwrap_or(0) / 100;
        format!(
            "{label:>6}  {:>5}  {:>9}  {:>6}  {:>6}  {:>6}  {:>5}  {:>6}  {:>4}.{}%  {:>8}.{}\n",
            s.peers,
            s.completed,
            s.p2p_rx,
            s.cdn_rx,
            s.p2p_tx,
            s.nacks,
            s.stalls,
            offload_pct / 10,
            offload_pct % 10,
            avg_done_s / 10,
            avg_done_s % 10,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SwarmConfig {
        let mut cfg = SwarmConfig::quick(160);
        cfg.segments = 16;
        cfg.duration = Duration::from_secs(150);
        cfg
    }

    #[test]
    fn swarm_streams_and_offloads() {
        let cfg = tiny();
        let mut world = SwarmWorld::new(&cfg, 1);
        world.run(ShardMode::Inline);
        let table = world.table();
        let total = table.lines().last().unwrap().to_string();
        assert!(
            total.starts_with(" TOTAL"),
            "table ends with totals: {table}"
        );
        // Every peer finishes well inside the deadline…
        let completed: u64 = world
            .shards
            .iter()
            .map(|s| s.regions.iter().map(|r| r.completed).sum::<u64>())
            .sum();
        assert_eq!(
            completed,
            world.peers() as u64,
            "all peers complete\n{table}"
        );
        // …and meaningful P2P offload happened (the PDN premise).
        let p2p: u64 = world
            .shards
            .iter()
            .flat_map(|s| s.regions.iter())
            .map(|r| r.p2p_rx)
            .sum();
        let cdn: u64 = world
            .shards
            .iter()
            .flat_map(|s| s.regions.iter())
            .map(|r| r.cdn_rx)
            .sum();
        assert!(
            p2p * 2 > cdn,
            "P2P carries a meaningful share (p2p {p2p} vs cdn {cdn})\n{table}"
        );
    }

    #[test]
    fn tables_byte_identical_across_shard_counts() {
        let cfg = tiny();
        let reference = {
            let mut w = SwarmWorld::new(&cfg, 1);
            w.run(ShardMode::Inline);
            w.table()
        };
        for k in [2usize, 4, 8] {
            for mode in [ShardMode::Inline, ShardMode::Threaded] {
                let mut w = SwarmWorld::new(&cfg, k);
                let report = w.run(mode);
                assert_eq!(w.table(), reference, "k={k} mode={mode:?}");
                assert_eq!(report.shards, k);
                if k > 1 {
                    assert!(report.exchanged > 0, "cross-region traffic crosses shards");
                }
            }
        }
    }

    #[test]
    fn event_totals_match_across_shard_counts() {
        let cfg = tiny();
        let mut a = SwarmWorld::new(&cfg, 1);
        a.run(ShardMode::Inline);
        let mut b = SwarmWorld::new(&cfg, 4);
        b.run(ShardMode::Inline);
        assert_eq!(a.total_events(), b.total_events());
    }

    #[test]
    fn steady_state_memory_is_under_a_kilobyte_per_peer() {
        // Enough peers that per-peer cost dominates the fixed wheel and
        // tracker overhead the small determinism worlds amortize badly.
        let mut cfg = SwarmConfig::quick(2000);
        cfg.segments = 8;
        cfg.duration = Duration::from_secs(80);
        let mut world = SwarmWorld::new(&cfg, 2);
        world.run(ShardMode::Inline);
        let per_peer = world.mem_bytes() / world.peers() as usize;
        assert!(
            per_peer < 1024,
            "steady-state footprint {per_peer} B/peer exceeds the 1 KB diet"
        );
    }

    #[test]
    fn lookahead_is_the_min_cross_shard_latency() {
        let mut cfg = SwarmConfig::scale(100);
        cfg.far_latency = Duration::from_millis(80);
        cfg.tracker_latency = Duration::from_millis(30);
        assert_eq!(cfg.lookahead(), Duration::from_millis(30));
    }

    #[test]
    fn peer_rounding_and_mapping_are_consistent() {
        let cfg = SwarmConfig::quick(1000).normalized();
        assert_eq!(cfg.peers % cfg.regions as u32, 0);
        let world = SwarmWorld::new(&cfg, 8);
        for shard in &world.shards {
            for local in 0..shard.peers.len() {
                let p = shard.global_of(local);
                assert_eq!(shard.local_of(p), local, "mapping round-trips");
                assert_eq!(shard.shard_of(p), shard.index);
            }
        }
    }
}
