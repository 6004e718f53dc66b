//! The PDN signaling server (tracker).
//!
//! This is the "trusted 3rd party" that distinguishes PDN from classic
//! P2P-CDNs (§III-A): it authenticates joins, groups viewers into swarms by
//! the video (and manifest) they watch, introduces neighbors, meters usage
//! for billing — and, in hardened configurations, runs the §V-B
//! peer-assisted integrity checking with conflict resolution and a peer
//! blacklist, and the §V-C geo-constrained peer matching.
//!
//! # Swarm-state engine
//!
//! Server state is held in purpose-built structures rather than generic
//! string-keyed maps (see `DESIGN.md`, "Swarm-state engine"):
//!
//! - video ids, manifest hashes, customer keys, and geo strings are
//!   interned to dense `u32`s ([`pdn_simnet::Interner`]), so swarm lookup
//!   hashes two integers instead of two heap strings;
//! - peers live in a slab (`Vec<Option<PeerSlot>>`) indexed directly by
//!   the sequential, never-reused peer id the wire already exposes, with an
//!   `addr -> peer` index replacing the old linear scans in the stats /
//!   IM-report / leave paths, and a peer → swarm back-pointer replacing the
//!   old remove-from-every-swarm scan;
//! - per-video swarm lists are kept sorted by manifest hash at insertion,
//!   so SIM broadcasts walk them in deterministic order with no per-call
//!   key sort;
//! - IM-report state is bounded (entry, distinct-IM, and reporters-per-IM
//!   caps) so attack-driven reports cannot grow server memory without
//!   bound; evictions are counted in [`DefenseStats::im_evictions`].
//!
//! # One path per frame
//!
//! Every entry point runs one per-frame body: a binary join goes to the
//! zero-copy admission in `on_join_frame`, anything else is decoded and
//! handled. [`SignalingServer::handle_frame_into`] runs it per frame,
//! [`SignalingServer::handle_frames_batch_into`] per burst with an
//! [`AdmissionBatch`], and the owned [`SignalingServer::handle`] encodes
//! its message and decodes the replies around `handle_frame_into`.
//!
//! The pre-refactor generic-collection server lives on as a test oracle
//! in the `pdn-oracle` crate, and the `state_differential` integration
//! tests pin all three entry points to its reply streams, byte for byte.

use std::collections::VecDeque;

use pdn_crypto::hmac::{hmac_sha256_keyed, HmacKey};
pub use pdn_media::compute_im;
use pdn_media::{OriginServer, SegmentId, VideoId};
use pdn_simnet::{Addr, FxHashMap, FxHashSet, GeoIpService, Interner, SimRng, SimTime};

use crate::auth::{AccountRegistry, AuthError, TokenValidator};
use crate::billing::UsageMeter;
use crate::profiles::{AuthScheme, ProviderProfile};
use crate::proto::SignalMsg;

/// Cap on distinct `(video, rendition, seq)` entries in the IM-report
/// table; beyond it the oldest entry is evicted FIFO.
const MAX_IM_ENTRIES: usize = 65_536;
/// Cap on distinct IM values recorded per segment entry.
const MAX_DISTINCT_IMS: usize = 64;
/// Cap on reporter ids recorded per distinct IM value.
const MAX_REPORTERS_PER_IM: usize = 1_024;

/// How the server picks neighbor candidates (§V-C mitigation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MatchingPolicy {
    /// Introduce any swarm member (the measured default — maximal leak).
    Global,
    /// Only members whose public IP geolocates to the same country.
    SameCountry,
    /// Only members on the same ISP.
    SameIsp,
}

/// A member of a swarm as the server sees it. Country/ISP are interned ids
/// so the matching policy compares integers.
///
/// The SDP is stored as its *encoded wire fragment* ([`bytes::Bytes`]), not
/// a parsed [`pdn_webrtc::SessionDescription`]: a binary join interns a
/// zero-copy slice of the incoming frame, and `JoinOk`/`PeerJoined` replies
/// splice the fragment straight into the outgoing frame
/// ([`crate::wire::encode_join_ok_spliced`]) — the per-neighbor-per-join
/// `SessionDescription` clone the old assembly paid is gone entirely.
#[derive(Debug, Clone)]
struct Member {
    peer_id: u64,
    addr: Addr,
    sdp_wire: bytes::Bytes,
    country: Option<u32>,
    isp: Option<u32>,
}

/// One swarm: members in join order (candidate selection walks them
/// youngest-first). Removal tombstones the slot in place — the position
/// index lives in [`PeerSlot::swarm_pos`], so a leave is O(1) instead of
/// a scan of the whole membership (the old `position()` scan turned
/// high-churn service runs with 100k-member swarms quadratic). Iteration
/// order of live members is join order, exactly as before; the dead share
/// is compacted once it exceeds the live population.
#[derive(Debug, Default)]
struct Swarm {
    members: Vec<Option<Member>>,
    live: u32,
}

/// Slab entry for a live peer. `swarm`/`swarm_pos` are the back-pointers
/// that make removal O(1) instead of O(all swarms) / O(one swarm).
#[derive(Debug)]
struct PeerSlot {
    addr: Addr,
    customer: u32,
    last_seen: SimTime,
    swarm: u32,
    swarm_pos: u32,
}

/// State of integrity metadata for one segment (§V-B). Distinct IMs are
/// few (honest + attacker variants), so they live in a `Vec` in first-seen
/// order — which is also the deterministic iteration order the liar scan
/// needs (the old `HashMap` version had to sort afterwards).
#[derive(Debug, Default)]
struct ImEntry {
    /// (im, reporting peer IDs), in first-report order.
    reports: Vec<([u8; 32], Vec<u64>)>,
    /// Signed authentic IM, once established.
    sim: Option<([u8; 32], [u8; 32])>,
}

/// Counters describing server-side defense activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DefenseStats {
    /// IM conflicts detected.
    pub im_conflicts: u64,
    /// Authoritative CDN refetches performed to resolve conflicts.
    pub cdn_refetches: u64,
    /// Bytes refetched from the CDN (the attacker-inflicted overhead).
    pub cdn_refetch_bytes: u64,
    /// Peers blacklisted for reporting fake IMs.
    pub blacklisted_peers: u64,
    /// SIMs issued.
    pub sims_issued: u64,
    /// IM-report records dropped by the state caps (entry FIFO evictions
    /// plus reports discarded at the distinct-IM / per-IM caps).
    pub im_evictions: u64,
}

/// Batch-local admission memos for draining an arrival burst in one
/// server tick.
///
/// An open-loop tick hands the server a run of `Join` frames that
/// overwhelmingly target the same video/manifest and present the same
/// customer key (a flash crowd is by definition many arrivals to one
/// stream). The batch caches the last swarm resolution and the last
/// *successful* static-key authentication so the burst costs one
/// interner/registry pass instead of one per frame. Purely an
/// accelerator: a batch rides the same per-frame body as
/// [`SignalingServer::handle_frame_into`], and replies and server state
/// are byte-identical with and without one (`batch_matches_sequential`
/// here; `state_differential` checks both against the baseline oracle
/// under random batch splits).
#[derive(Debug, Default)]
pub struct AdmissionBatch {
    /// (video, manifest_hash) -> swarm slot.
    swarm_memo: Option<(String, String, u32)>,
    /// (api_key, origin) -> customer_id; only `StaticApiKey` / `TenantKey`
    /// successes (token schemes mutate validator state, so they always
    /// take the full path).
    auth_memo: Option<(String, String, String)>,
    /// Rolling neighbor-candidate window for the memoized swarm: one
    /// candidate pass per `(swarm, tick)` feeds every join in the burst.
    /// Only valid under [`MatchingPolicy::Global`] (geo policies make the
    /// candidate set joiner-dependent) and invalidated by any non-join
    /// frame in the burst (a leave or blacklist could mutate membership).
    neighbor_memo: Option<NeighborMemo>,
    /// Memo hits (observability for the service harness).
    hits: u64,
}

/// See [`AdmissionBatch::neighbor_memo`]. Candidates are youngest-first —
/// exactly the order the per-join slab walk produces — so serving a join
/// from the memo, then pushing the joiner on the front, reproduces the
/// sequential walk byte-for-byte.
#[derive(Debug)]
struct NeighborMemo {
    slot: u32,
    cands: VecDeque<(u64, Addr, bytes::Bytes)>,
}

impl AdmissionBatch {
    /// Creates an empty batch scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the memos; call between ticks when reusing the allocation.
    pub fn clear(&mut self) {
        self.swarm_memo = None;
        self.auth_memo = None;
        self.neighbor_memo = None;
    }

    /// Memo hits since construction (across `clear` calls).
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// The PDN signaling server. See the [module docs](self).
pub struct SignalingServer {
    profile: ProviderProfile,
    accounts: AccountRegistry,
    token_validator: Option<TokenValidator>,
    /// Temp tokens (private profiles): token -> optional bound video.
    temp_tokens: FxHashMap<String, Option<VideoId>>,
    matching: MatchingPolicy,
    max_neighbors: usize,
    // --- swarm-state engine ---
    /// Video-id strings -> dense u32.
    videos: Interner,
    /// Manifest-hash strings -> dense u32.
    manifests: Interner,
    /// Customer-id strings -> dense u32 (indexes `meters`).
    customers: Interner,
    /// Country/ISP strings -> dense u32 (matching-policy compares).
    geos: Interner,
    /// Swarm slab; slots are never reused (swarms persist for the session).
    swarms: Vec<Swarm>,
    /// (video, manifest) -> swarm slot.
    swarm_index: FxHashMap<(u32, u32), u32>,
    /// video -> swarm slots, sorted by manifest-hash string (the SIM
    /// broadcast order).
    video_swarms: FxHashMap<u32, Vec<u32>>,
    /// Peer slab indexed by `peer_id - 1`; peer ids are sequential and
    /// never reused (they are wire-visible in `JoinOk`).
    peers: Vec<Option<PeerSlot>>,
    live_peers: usize,
    /// Wire address -> peer id (latest join wins).
    addr_index: FxHashMap<Addr, u64>,
    /// Usage meters indexed by interned customer id.
    meters: Vec<UsageMeter>,
    next_peer_id: u64,
    // §V-B defense state
    im_reporters: usize,
    im_state: FxHashMap<(u32, u8, u64), ImEntry>,
    /// FIFO of `im_state` keys for bounded eviction.
    im_order: VecDeque<(u32, u8, u64)>,
    blacklist: FxHashSet<u64>,
    blacklist_addrs: FxHashSet<Addr>,
    sim_key: Vec<u8>,
    /// Precomputed HMAC schedule for `sim_key`; every SIM signature reuses
    /// the cached ipad/opad midstates instead of rehashing the key.
    sim_hmac: HmacKey,
    origin: Option<OriginServer>,
    /// IMs and sizes of authentic segments already taken from `origin`, so
    /// each is generated and hashed once; emptied when it reaches
    /// `MAX_IM_ENTRIES`.
    origin_ims: FxHashMap<SegmentId, ([u8; 32], u64)>,
    defense_stats: DefenseStats,
    rng: SimRng,
    /// Reused reply buffer for the frame path (the per-agent scratch
    /// `BytesMut` pattern): no per-frame `Vec<(Addr, SignalMsg)>` alloc.
    reply_scratch: Vec<(Addr, SignalMsg)>,
    /// Reused neighbor-pick buffer for the zero-copy join path.
    neighbor_scratch: Vec<(u64, Addr, bytes::Bytes)>,
}

impl std::fmt::Debug for SignalingServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignalingServer")
            .field("provider", &self.profile.name)
            .field("swarms", &self.swarms.len())
            .field("peers", &self.live_peers)
            .finish()
    }
}

impl SignalingServer {
    /// Creates a server for `profile`.
    pub fn new(profile: ProviderProfile, seed: u64) -> Self {
        let token_validator = matches!(profile.auth, AuthScheme::DisposableJwt)
            .then(|| TokenValidator::new(b"pdn-provider-jwt-key".to_vec()));
        SignalingServer {
            profile,
            accounts: AccountRegistry::new(),
            token_validator,
            temp_tokens: FxHashMap::default(),
            matching: MatchingPolicy::Global,
            max_neighbors: 4,
            videos: Interner::new(),
            manifests: Interner::new(),
            customers: Interner::new(),
            geos: Interner::new(),
            swarms: Vec::new(),
            swarm_index: FxHashMap::default(),
            video_swarms: FxHashMap::default(),
            peers: Vec::new(),
            live_peers: 0,
            addr_index: FxHashMap::default(),
            meters: Vec::new(),
            next_peer_id: 1,
            im_reporters: 3,
            im_state: FxHashMap::default(),
            im_order: VecDeque::new(),
            blacklist: FxHashSet::default(),
            blacklist_addrs: FxHashSet::default(),
            sim_key: b"pdn-server-sim-key".to_vec(),
            sim_hmac: HmacKey::new(b"pdn-server-sim-key"),
            origin: None,
            origin_ims: FxHashMap::default(),
            defense_stats: DefenseStats::default(),
            rng: SimRng::seed(seed ^ 0x51_6e_a1),
            reply_scratch: Vec::new(),
            neighbor_scratch: Vec::new(),
        }
    }

    /// The provider profile this server runs.
    pub fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    /// Customer account registry (register victims and attackers here).
    pub fn accounts_mut(&mut self) -> &mut AccountRegistry {
        &mut self.accounts
    }

    /// Read access to accounts.
    pub fn accounts(&self) -> &AccountRegistry {
        &self.accounts
    }

    /// Sets the neighbor matching policy (§V-C).
    pub fn set_matching(&mut self, policy: MatchingPolicy) {
        self.matching = policy;
    }

    /// Sets the number of IM reporters per segment (§V-B parameter).
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

    /// Mints a temporary token (private profiles). Bound to `video` when
    /// the profile says so.
    pub fn mint_temp_token(&mut self, video: Option<VideoId>) -> String {
        let token = format!("tt-{:016x}", self.rng.next_u64());
        let bound = match self.profile.auth {
            AuthScheme::TempToken { video_bound: true } => video,
            _ => None,
        };
        self.temp_tokens.insert(token.clone(), bound);
        token
    }

    /// The JWT signing key (for customer servers minting §V-A tokens).
    pub fn jwt_key(&self) -> &[u8] {
        b"pdn-provider-jwt-key"
    }

    /// Usage meter of a customer (free-riding evidence).
    pub fn meter(&self, customer_id: &str) -> UsageMeter {
        self.customers
            .get(customer_id)
            .and_then(|id| self.meters.get(id as usize).copied())
            .unwrap_or_default()
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
        self.live_peers
    }

    fn meter_mut(&mut self, customer: u32) -> &mut UsageMeter {
        let idx = customer as usize;
        if idx >= self.meters.len() {
            self.meters.resize_with(idx + 1, UsageMeter::default);
        }
        &mut self.meters[idx]
    }

    fn peer(&self, peer_id: u64) -> Option<&PeerSlot> {
        self.peers
            .get(peer_id as usize - 1)
            .and_then(Option::as_ref)
    }

    /// Resolves the live peer that joined from `addr` (latest join wins).
    fn peer_by_addr(&self, addr: Addr) -> Option<u64> {
        self.addr_index.get(&addr).copied()
    }

    /// Decodes one signaling frame, handles it, and encodes the replies
    /// into `out` (appended). This is the world harness's hot path: the
    /// intermediate reply list is a reused per-server scratch, and a
    /// broadcast (e.g. §V-B [`SignalMsg::SimBroadcast`]) fans one identical
    /// message out to the whole swarm, so a reply equal to the previous one
    /// reuses its encoded frame — a refcount bump instead of a
    /// per-recipient re-encode. Undecodable frames are skipped.
    pub fn handle_frame_into(
        &mut self,
        from: Addr,
        frame: &bytes::Bytes,
        now: SimTime,
        geoip: &GeoIpService,
        out: &mut Vec<(Addr, bytes::Bytes)>,
    ) {
        self.frame_into(from, frame, now, geoip, None, out);
    }

    /// Handles a burst of raw frames as one admission batch.
    ///
    /// Frames are processed strictly in order with batch-local memos
    /// ([`AdmissionBatch`]) carrying swarm resolution and static-key
    /// authentication across the burst. Reply bytes and server state are
    /// identical to calling [`SignalingServer::handle_frame_into`] once per
    /// frame; only the cost differs.
    pub fn handle_frames_batch_into(
        &mut self,
        frames: &[(Addr, bytes::Bytes)],
        now: SimTime,
        geoip: &GeoIpService,
        batch: &mut AdmissionBatch,
        out: &mut Vec<(Addr, bytes::Bytes)>,
    ) {
        batch.clear();
        for (from, frame) in frames {
            self.frame_into(*from, frame, now, geoip, Some(batch), out);
        }
    }

    /// Owned convenience over [`SignalingServer::handle_frame_into`]:
    /// encodes `msg`, handles the frame, and decodes the replies.
    pub fn handle(
        &mut self,
        from: Addr,
        msg: SignalMsg,
        now: SimTime,
        geoip: &GeoIpService,
    ) -> Vec<(Addr, SignalMsg)> {
        let mut out = Vec::new();
        self.handle_frame_into(from, &msg.encode(), now, geoip, &mut out);
        out.into_iter()
            .map(|(addr, frame)| {
                let reply = SignalMsg::decode(&frame).expect("server replies decode");
                (addr, reply)
            })
            .collect()
    }

    /// The per-frame body of both frame entry points. A binary join takes
    /// the zero-copy admission path; any other frame is decoded, handled,
    /// and its replies encoded, a reply equal to its predecessor reusing
    /// the predecessor's frame.
    fn frame_into(
        &mut self,
        from: Addr,
        frame: &bytes::Bytes,
        now: SimTime,
        geoip: &GeoIpService,
        batch: Option<&mut AdmissionBatch>,
        out: &mut Vec<(Addr, bytes::Bytes)>,
    ) {
        if let Some(view) = crate::wire::decode_join_view(frame) {
            self.on_join_frame(from, &view, frame, now, geoip, batch, out);
            return;
        }
        // Anything that is not a join may mutate membership (leave,
        // blacklist via IM report), so the rolling neighbor window cannot
        // survive it.
        if let Some(b) = batch {
            b.neighbor_memo = None;
        }
        let Some(msg) = SignalMsg::decode(frame) else {
            return;
        };
        let mut replies = std::mem::take(&mut self.reply_scratch);
        replies.clear();
        self.handle_msg(from, msg, now, &mut replies);
        let mut prev: Option<bytes::Bytes> = None;
        for i in 0..replies.len() {
            let (addr, reply) = &replies[i];
            let encoded = match (&prev, i.checked_sub(1)) {
                (Some(bytes), Some(j)) if replies[j].1 == *reply => bytes.clone(),
                _ => reply.encode(),
            };
            prev = Some(encoded.clone());
            out.push((*addr, encoded));
        }
        replies.clear();
        self.reply_scratch = replies;
    }

    /// Handles a decoded non-join message, appending `(destination,
    /// reply)` pairs to `out`. Joins never get here: every binary join
    /// frame is admitted by [`SignalingServer::on_join_frame`].
    fn handle_msg(
        &mut self,
        from: Addr,
        msg: SignalMsg,
        now: SimTime,
        out: &mut Vec<(Addr, SignalMsg)>,
    ) {
        match msg {
            SignalMsg::StatsReport {
                p2p_up_bytes,
                p2p_down_bytes,
            } => self.on_stats(from, p2p_up_bytes, p2p_down_bytes, now),
            SignalMsg::ImReport {
                video,
                rendition,
                seq,
                im,
            } => self.on_im_report(from, video, rendition, seq, im, out),
            SignalMsg::Leave => self.remove_peer_by_addr(from, now),
            // Server-originated messages arriving at the server are ignored.
            _ => {}
        }
    }

    /// Join admission, the only one: a blacklisted address or failed
    /// authentication is denied; otherwise the joiner is introduced to up
    /// to `max_neighbors` live members youngest-first under the matching
    /// policy, and each of them is told about the joiner.
    ///
    /// Nothing is materialised: credentials stay `&str` views into the
    /// frame, the joiner's SDP is interned as a zero-copy slice of the
    /// datagram, and replies are assembled by splicing the stored SDP
    /// fragments of the selected neighbors straight into the output frame.
    /// With a batch, neighbor selection additionally rides the rolling
    /// [`NeighborMemo`] — one slab walk per `(swarm, tick)` instead of one
    /// per join.
    #[allow(clippy::too_many_arguments)]
    fn on_join_frame(
        &mut self,
        from: Addr,
        view: &crate::wire::JoinView<'_>,
        frame: &bytes::Bytes,
        now: SimTime,
        geoip: &GeoIpService,
        mut batch: Option<&mut AdmissionBatch>,
        out: &mut Vec<(Addr, bytes::Bytes)>,
    ) {
        let deny = |reason: String| SignalMsg::JoinDenied { reason }.encode();
        // §V-B: peer identity binds to the transport address so expelled
        // peers cannot simply rejoin.
        if self.blacklist_addrs.contains(&from) {
            out.push((from, deny("peer is blacklisted".into())));
            return;
        }
        let customer_id = match self.authenticate_memo(
            view.api_key,
            view.token,
            view.origin,
            view.video,
            now,
            batch.as_deref_mut(),
        ) {
            Ok(id) => id,
            Err(e) => {
                out.push((from, deny(e.to_string())));
                return;
            }
        };

        let peer_id = self.next_peer_id;
        self.next_peer_id += 1;

        let geo = geoip.lookup(from.ip);
        let (country, isp) = match geo {
            Some(g) => (
                Some(self.geos.intern(&g.country)),
                Some(self.geos.intern(&g.isp)),
            ),
            None => (None, None),
        };

        let slot = self.resolve_swarm(view.video, view.manifest_hash, batch.as_deref_mut());

        // Neighbor pick: memo window when possible, slab walk otherwise.
        let mut picked = std::mem::take(&mut self.neighbor_scratch);
        picked.clear();
        let memo_ok = matches!(self.matching, MatchingPolicy::Global);
        let memo_hit = memo_ok
            && batch
                .as_deref()
                .and_then(|b| b.neighbor_memo.as_ref())
                .is_some_and(|m| m.slot == slot);
        if memo_hit {
            let b = batch.as_deref_mut().expect("memo_hit implies batch");
            b.hits += 1;
            let m = b.neighbor_memo.as_ref().expect("memo_hit implies memo");
            picked.extend(m.cands.iter().cloned());
        } else {
            for m in self.swarms[slot as usize].members.iter().rev().flatten() {
                if picked.len() == self.max_neighbors {
                    break;
                }
                if self.blacklist.contains(&m.peer_id) {
                    continue;
                }
                let matches = match self.matching {
                    MatchingPolicy::Global => true,
                    MatchingPolicy::SameCountry => m.country.is_some() && m.country == country,
                    MatchingPolicy::SameIsp => m.isp.is_some() && m.isp == isp,
                };
                if !matches {
                    continue;
                }
                picked.push((m.peer_id, m.addr, m.sdp_wire.clone()));
            }
            if memo_ok {
                if let Some(b) = batch.as_deref_mut() {
                    b.neighbor_memo = Some(NeighborMemo {
                        slot,
                        cands: picked.iter().cloned().collect(),
                    });
                }
            }
        }

        // Register the joiner: swarm membership with its SDP interned as a
        // zero-copy slice of the frame (the fragment was validated by
        // `decode_join_view`), peer slab, address index, join meter.
        let sdp_wire = frame.slice(view.sdp_range.clone());
        let swarm = &mut self.swarms[slot as usize];
        let swarm_pos = swarm.members.len() as u32;
        swarm.members.push(Some(Member {
            peer_id,
            addr: from,
            sdp_wire: sdp_wire.clone(),
            country,
            isp,
        }));
        swarm.live += 1;
        let customer = self.customers.intern(&customer_id);
        debug_assert_eq!(self.peers.len() as u64, peer_id - 1);
        self.peers.push(Some(PeerSlot {
            addr: from,
            customer,
            last_seen: now,
            swarm: slot,
            swarm_pos,
        }));
        self.live_peers += 1;
        self.addr_index.insert(from, peer_id);
        self.meter_mut(customer).add_join();
        // Roll the joiner into the memo window: it is now the youngest
        // candidate the next join in the burst must see.
        if memo_ok {
            if let Some(m) = batch.and_then(|b| b.neighbor_memo.as_mut()) {
                if m.slot == slot {
                    m.cands.push_front((peer_id, from, sdp_wire.clone()));
                    m.cands.truncate(self.max_neighbors);
                }
            }
        }

        let mut buf = bytes::BytesMut::with_capacity(
            16 + picked.iter().map(|(_, _, s)| 8 + s.len()).sum::<usize>(),
        );
        crate::wire::encode_join_ok_spliced(
            peer_id,
            picked.len(),
            picked.iter().map(|(id, _, s)| (*id, &s[..])),
            &mut buf,
        );
        out.push((from, buf.freeze()));
        if !picked.is_empty() {
            let mut buf = bytes::BytesMut::with_capacity(16 + sdp_wire.len());
            crate::wire::encode_peer_joined_spliced(peer_id, &sdp_wire, &mut buf);
            let notify = buf.freeze();
            for (_, addr, _) in &picked {
                out.push((*addr, notify.clone()));
            }
        }

        picked.clear();
        self.neighbor_scratch = picked;
    }

    /// Resolves `(video, manifest)` to a swarm slot, creating the swarm on
    /// first sight. With a batch, consecutive joins to the same stream hit
    /// the memo instead of the interners + index.
    fn resolve_swarm(
        &mut self,
        video: &str,
        manifest_hash: &str,
        batch: Option<&mut AdmissionBatch>,
    ) -> u32 {
        if let Some(b) = &batch {
            if let Some((v, m, slot)) = &b.swarm_memo {
                if v == video && m == manifest_hash {
                    let slot = *slot;
                    if let Some(b) = batch {
                        b.hits += 1;
                    }
                    return slot;
                }
            }
        }
        let video_id = self.videos.intern(video);
        let manifest_id = self.manifests.intern(manifest_hash);
        let slot = match self.swarm_index.get(&(video_id, manifest_id)) {
            Some(&slot) => slot,
            None => {
                let slot = self.swarms.len() as u32;
                self.swarms.push(Swarm::default());
                self.swarm_index.insert((video_id, manifest_id), slot);
                // Keep the per-video slot list sorted by manifest-hash
                // string: the SIM broadcast iterates it in this order.
                let list = self.video_swarms.entry(video_id).or_default();
                let pos = list
                    .binary_search_by(|&s| {
                        let (_, m) = slot_key(&self.swarm_index, s);
                        self.manifests.resolve(m).cmp(manifest_hash)
                    })
                    .unwrap_or_else(|p| p);
                list.insert(pos, slot);
                slot
            }
        };
        if let Some(b) = batch {
            b.swarm_memo = Some((video.to_string(), manifest_hash.to_string(), slot));
        }
        slot
    }

    /// [`SignalingServer::authenticate`] behind the batch's auth memo.
    /// Only static-key schemes are memoizable (the account registry is
    /// read-only under them); token schemes mutate validator state, and
    /// failures must re-run to produce their exact error, so both always
    /// take the full path.
    fn authenticate_memo(
        &mut self,
        api_key: Option<&str>,
        token: Option<&str>,
        origin: &str,
        video: &str,
        now: SimTime,
        batch: Option<&mut AdmissionBatch>,
    ) -> Result<String, AuthError> {
        let memoizable = matches!(
            self.profile.auth,
            AuthScheme::StaticApiKey | AuthScheme::TenantKey
        );
        if memoizable {
            if let (Some(b), Some(key)) = (&batch, api_key) {
                if let Some((k, o, customer)) = &b.auth_memo {
                    if k == key && o == origin {
                        let customer = customer.clone();
                        if let Some(b) = batch {
                            b.hits += 1;
                        }
                        return Ok(customer);
                    }
                }
            }
        }
        let result = self.authenticate(api_key, token, origin, video, now);
        if memoizable {
            if let (Some(b), Some(key), Ok(customer)) = (batch, api_key, &result) {
                b.auth_memo = Some((key.to_string(), origin.to_string(), customer.clone()));
            }
        }
        result
    }

    fn authenticate(
        &mut self,
        api_key: Option<&str>,
        token: Option<&str>,
        origin: &str,
        video: &str,
        now: SimTime,
    ) -> Result<String, AuthError> {
        match &self.profile.auth {
            AuthScheme::StaticApiKey | AuthScheme::TenantKey => {
                let key = api_key.ok_or(AuthError::MissingCredentials)?;
                let account = self.accounts.authenticate_key(key, origin)?;
                Ok(account.customer_id.clone())
            }
            AuthScheme::TempToken { .. } => {
                let t = token.ok_or(AuthError::MissingCredentials)?;
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
                let t = token.ok_or(AuthError::MissingCredentials)?;
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
        // Attribute to the peer that joined from this address.
        let Some(peer_id) = self.peer_by_addr(from) else {
            return;
        };
        let Some(info) = self
            .peers
            .get_mut(peer_id as usize - 1)
            .and_then(Option::as_mut)
        else {
            return;
        };
        let watched = now.saturating_since(info.last_seen);
        info.last_seen = now;
        let customer = info.customer;
        let meter = self.meter_mut(customer);
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
        out: &mut Vec<(Addr, SignalMsg)>,
    ) {
        if !self.profile.segment_integrity_check {
            return;
        }
        let Some(peer_id) = self.peer_by_addr(from) else {
            return;
        };
        if self.blacklist.contains(&peer_id) {
            return;
        }
        let Some(im) = parse_hex32(&im_hex) else {
            return;
        };

        let video_id = self.videos.intern(&video);
        let key = (video_id, rendition, seq);
        if !self.im_state.contains_key(&key) {
            // Bounded table: evict the oldest entry FIFO once full.
            if self.im_state.len() >= MAX_IM_ENTRIES {
                if let Some(oldest) = self.im_order.pop_front() {
                    self.im_state.remove(&oldest);
                    self.defense_stats.im_evictions += 1;
                }
            }
            self.im_state.insert(key, ImEntry::default());
            self.im_order.push_back(key);
        }
        let entry = self.im_state.get_mut(&key).expect("inserted above");
        if entry.sim.is_some() {
            return; // already resolved
        }
        match entry.reports.iter_mut().find(|(i, _)| *i == im) {
            Some((_, reporters)) => {
                if reporters.len() >= MAX_REPORTERS_PER_IM {
                    self.defense_stats.im_evictions += 1;
                    return;
                }
                reporters.push(peer_id);
            }
            None => {
                if entry.reports.len() >= MAX_DISTINCT_IMS {
                    self.defense_stats.im_evictions += 1;
                    return;
                }
                entry.reports.push((im, vec![peer_id]));
            }
        }

        let distinct = entry.reports.len();
        let total_reports: usize = entry.reports.iter().map(|(_, r)| r.len()).sum();

        let authentic_im: Option<[u8; 32]> = if distinct > 1 {
            // Conflict: fetch the authoritative segment from the CDN
            // (server overhead the attacker inflicts, §V-B).
            self.defense_stats.im_conflicts += 1;
            let authentic = self.origin_segment_im(&video, rendition, seq);
            if let Some((_, len)) = authentic {
                self.defense_stats.cdn_refetches += 1;
                self.defense_stats.cdn_refetch_bytes += len;
            }
            authentic.map(|(im, _)| im)
        } else if total_reports >= self.im_reporters {
            // Unanimous quorum.
            Some(im)
        } else {
            None
        };

        let Some(authentic) = authentic_im else {
            return;
        };

        // Blacklist every peer that reported a different IM. Reports are
        // already in deterministic first-seen order; sorting reporter ids
        // matches the baseline's post-sort exactly.
        let entry = self.im_state.get_mut(&key).expect("entry exists");
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

        for liar in liars {
            if self.blacklist.insert(liar) {
                self.defense_stats.blacklisted_peers += 1;
                if let Some(info) = self.peer(liar) {
                    let addr = info.addr;
                    self.blacklist_addrs.insert(addr);
                    out.push((
                        addr,
                        SignalMsg::Blacklisted {
                            reason: "fake integrity metadata".into(),
                        },
                    ));
                }
                self.remove_from_swarms(liar);
            }
        }

        // Broadcast the SIM to every member of swarms for this video. The
        // per-video slot list is kept sorted by manifest hash, so this
        // walks in the same order the baseline's key-sort produced.
        let sim_msg = SignalMsg::SimBroadcast {
            video: video.clone(),
            rendition,
            seq,
            im: pdn_crypto::hex(&authentic),
            sig: pdn_crypto::hex(&sig),
        };
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        if let Some(slots) = self.video_swarms.get(&video_id) {
            for &slot in slots {
                for m in self.swarms[slot as usize].members.iter().flatten() {
                    if self.blacklist.contains(&m.peer_id) || !seen.insert(m.peer_id) {
                        continue;
                    }
                    out.push((m.addr, sim_msg.clone()));
                }
            }
        }
    }

    /// Verifies a SIM signature (what honest peers do on receipt) under a
    /// precomputed [`HmacKey`]: peers verifying many SIM broadcasts pay the
    /// key schedule once instead of per signature.
    pub fn verify_sim_keyed(key: &HmacKey, im: &[u8; 32], sig: &[u8; 32]) -> bool {
        pdn_crypto::ct_eq(&hmac_sha256_keyed(key, &[im]), sig)
    }

    /// The server's SIM key (shared with peers for verification; in a real
    /// deployment this would be an asymmetric signature).
    pub fn sim_key(&self) -> &[u8] {
        &self.sim_key
    }

    /// The IM of the origin's authentic segment `(video, rendition, seq)`,
    /// the value IM conflicts are resolved against; `None` without an
    /// origin or for a segment it does not have. Each segment is generated
    /// and hashed once and then remembered. Unlike a conflict, a lookup
    /// here bills no CDN refetch.
    pub fn origin_im(&mut self, video: &str, rendition: u8, seq: u64) -> Option<[u8; 32]> {
        self.origin_segment_im(video, rendition, seq)
            .map(|(im, _)| im)
    }

    /// The IM and size of the origin's authentic segment, from the memo or
    /// computed once.
    fn origin_segment_im(
        &mut self,
        video: &str,
        rendition: u8,
        seq: u64,
    ) -> Option<([u8; 32], u64)> {
        let id = SegmentId {
            video: VideoId::new(video),
            rendition,
            seq,
        };
        if let Some(&known) = self.origin_ims.get(&id) {
            return Some(known);
        }
        let seg = self.origin.as_ref()?.segment(&id)?;
        let known = (
            compute_im(&seg.data, video, rendition, seq),
            seg.len() as u64,
        );
        if self.origin_ims.len() >= MAX_IM_ENTRIES {
            self.origin_ims.clear();
        }
        self.origin_ims.insert(id, known);
        Some(known)
    }

    /// Removes the peer that joined from `addr`, accruing its watch time.
    pub fn remove_peer_by_addr(&mut self, addr: Addr, now: SimTime) {
        let Some(peer_id) = self.peer_by_addr(addr) else {
            return;
        };
        if let Some(info) = self
            .peers
            .get_mut(peer_id as usize - 1)
            .and_then(Option::take)
        {
            self.live_peers -= 1;
            // Drop the address mapping only if it still points at this
            // peer (a newer join from the same address wins).
            if self.addr_index.get(&addr) == Some(&peer_id) {
                self.addr_index.remove(&addr);
            }
            let watched = now.saturating_since(info.last_seen);
            self.meter_mut(info.customer).add_viewer_time(watched);
            self.remove_member(info.swarm, info.swarm_pos, peer_id);
        }
    }

    /// Removes a (possibly still live) peer from its swarm via the
    /// reverse indexes — O(1) instead of the old membership scan.
    fn remove_from_swarms(&mut self, peer_id: u64) {
        if let Some((slot, pos)) = self.peer(peer_id).map(|p| (p.swarm, p.swarm_pos)) {
            self.remove_member(slot, pos, peer_id);
        }
    }

    /// Tombstones the member at `pos` if it is still `peer_id` (a
    /// compaction may have moved it; a blacklist removal may already have
    /// cleared it), then compacts the swarm once tombstones outnumber
    /// live members.
    fn remove_member(&mut self, slot: u32, pos: u32, peer_id: u64) {
        let swarm = &mut self.swarms[slot as usize];
        match swarm.members.get_mut(pos as usize) {
            Some(m @ Some(_)) if m.as_ref().is_some_and(|m| m.peer_id == peer_id) => {
                *m = None;
                swarm.live -= 1;
            }
            _ => return,
        }
        let dead = swarm.members.len() - swarm.live as usize;
        if dead > (swarm.live as usize).max(32) {
            self.compact_swarm(slot);
        }
    }

    /// Drops tombstones from a swarm, preserving join order, and rewrites
    /// the `swarm_pos` back-pointers of the surviving members.
    fn compact_swarm(&mut self, slot: u32) {
        let swarm = &mut self.swarms[slot as usize];
        swarm.members.retain(Option::is_some);
        for (pos, m) in swarm.members.iter().enumerate() {
            let peer_id = m.as_ref().expect("tombstones retained out").peer_id;
            if let Some(p) = self
                .peers
                .get_mut(peer_id as usize - 1)
                .and_then(Option::as_mut)
            {
                p.swarm_pos = pos as u32;
            }
        }
    }
}

/// Resolves a swarm slot back to its `(video, manifest)` interned key.
/// Slots are few per video, so the reverse walk over the index is cheaper
/// than storing the key twice.
fn slot_key(index: &FxHashMap<(u32, u32), u32>, slot: u32) -> (u32, u32) {
    index
        .iter()
        .find_map(|(k, &s)| (s == slot).then_some(*k))
        .expect("slot registered")
}

/// Parses 64 hex digits into 32 bytes; `None` on any other input. Total:
/// a peer-supplied string with a multi-byte character yields `None`, never
/// a panic on a non-boundary slice.
pub(crate) fn parse_hex32(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, o) in out.iter_mut().enumerate() {
        *o = u8::from_str_radix(s.get(i * 2..i * 2 + 2)?, 16).ok()?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::CustomerAccount;
    use pdn_simnet::{GeoInfo, SimRng};
    use pdn_webrtc::{Candidate, CandidateKind, Certificate, SessionDescription};

    fn sdp(seed: u64) -> SessionDescription {
        let mut rng = SimRng::seed(seed);
        SessionDescription {
            ice_ufrag: format!("u{seed}"),
            ice_pwd: format!("p{seed}"),
            fingerprint: Certificate::generate(&mut rng).fingerprint(),
            candidates: vec![Candidate::new(
                CandidateKind::Host,
                Addr::new(20, 0, 0, seed as u8, 4000),
            )],
        }
    }

    fn join(origin: &str, video: &str, key: &str, seed: u64) -> SignalMsg {
        SignalMsg::Join {
            api_key: Some(key.into()),
            token: None,
            origin: origin.into(),
            video: video.into(),
            manifest_hash: "m0".into(),
            sdp: sdp(seed),
        }
    }

    fn server() -> (SignalingServer, GeoIpService) {
        let mut s = SignalingServer::new(ProviderProfile::peer5(), 1);
        s.accounts_mut().register(CustomerAccount::new(
            "victim",
            "key-victim",
            ["victim.tv".to_string()],
        ));
        (s, GeoIpService::new())
    }

    fn addr(d: u8) -> Addr {
        Addr::new(40, 0, 0, d, 6000)
    }

    #[test]
    fn join_and_neighbor_introduction() {
        let (mut s, geo) = server();
        let replies = s.handle(
            addr(1),
            join("victim.tv", "v", "key-victim", 1),
            SimTime::ZERO,
            &geo,
        );
        assert!(matches!(
            replies[..],
            [(_, SignalMsg::JoinOk { peer_id: 1, ref neighbors })] if neighbors.is_empty()
        ));
        let replies = s.handle(
            addr(2),
            join("victim.tv", "v", "key-victim", 2),
            SimTime::ZERO,
            &geo,
        );
        // Second peer gets the first as a neighbor, first gets PeerJoined.
        assert_eq!(replies.len(), 2);
        assert!(matches!(
            &replies[0],
            (a, SignalMsg::JoinOk { neighbors, .. }) if *a == addr(2) && neighbors.len() == 1
        ));
        assert!(matches!(
            &replies[1],
            (a, SignalMsg::PeerJoined { .. }) if *a == addr(1)
        ));
    }

    #[test]
    fn cross_domain_join_accepted_by_default() {
        // Peer5 default: no allowlist — the free-riding vulnerability.
        let (mut s, geo) = server();
        let replies = s.handle(
            addr(9),
            join("attacker.example", "v", "key-victim", 9),
            SimTime::ZERO,
            &geo,
        );
        assert!(matches!(replies[..], [(_, SignalMsg::JoinOk { .. })]));
        assert_eq!(s.meter("victim").joins, 1, "the victim is billed");
    }

    #[test]
    fn allowlist_blocks_but_spoofed_origin_passes() {
        let (mut s, geo) = server();
        s.accounts_mut()
            .by_key_mut("key-victim")
            .unwrap()
            .allowlist_enabled = true;
        let denied = s.handle(
            addr(9),
            join("attacker.example", "v", "key-victim", 9),
            SimTime::ZERO,
            &geo,
        );
        assert!(matches!(denied[..], [(_, SignalMsg::JoinDenied { .. })]));
        // The domain-spoofing attack: proxy rewrote the Origin header.
        let spoofed = s.handle(
            addr(9),
            join("victim.tv", "v", "key-victim", 9),
            SimTime::ZERO,
            &geo,
        );
        assert!(matches!(spoofed[..], [(_, SignalMsg::JoinOk { .. })]));
    }

    #[test]
    fn different_manifest_hash_isolates_swarms() {
        // The slow-start/manifest consistency that defeats *direct*
        // pollution: a peer with a doctored manifest never meets victims.
        let (mut s, geo) = server();
        s.handle(
            addr(1),
            join("victim.tv", "v", "key-victim", 1),
            SimTime::ZERO,
            &geo,
        );
        let mut msg = join("victim.tv", "v", "key-victim", 2);
        if let SignalMsg::Join { manifest_hash, .. } = &mut msg {
            *manifest_hash = "DOCTORED".into();
        }
        let replies = s.handle(addr(2), msg, SimTime::ZERO, &geo);
        assert!(matches!(
            &replies[..],
            [(_, SignalMsg::JoinOk { neighbors, .. })] if neighbors.is_empty()
        ));
    }

    #[test]
    fn stats_reports_bill_the_key_owner() {
        let (mut s, geo) = server();
        s.handle(
            addr(1),
            join("x", "v", "key-victim", 1),
            SimTime::ZERO,
            &geo,
        );
        s.handle(
            addr(1),
            SignalMsg::StatsReport {
                p2p_up_bytes: 1_000_000,
                p2p_down_bytes: 2_000_000,
            },
            SimTime::from_secs(60),
            &geo,
        );
        let m = s.meter("victim");
        assert_eq!(m.p2p_bytes, 3_000_000);
        assert_eq!(m.viewer_seconds, 60);
    }

    #[test]
    fn leave_accrues_watch_time_and_frees_the_slot() {
        let (mut s, geo) = server();
        s.handle(
            addr(1),
            join("x", "v", "key-victim", 1),
            SimTime::ZERO,
            &geo,
        );
        assert_eq!(s.peer_count(), 1);
        s.handle(addr(1), SignalMsg::Leave, SimTime::from_secs(30), &geo);
        assert_eq!(s.peer_count(), 0);
        assert_eq!(s.meter("victim").viewer_seconds, 30);
        // A rejoin from the same address gets a fresh, never-reused id.
        let r = s.handle(
            addr(1),
            join("x", "v", "key-victim", 2),
            SimTime::from_secs(31),
            &geo,
        );
        assert!(matches!(r[..], [(_, SignalMsg::JoinOk { peer_id: 2, .. })]));
    }

    #[test]
    fn same_country_matching_filters_neighbors() {
        let mut s = SignalingServer::new(ProviderProfile::peer5(), 1);
        s.accounts_mut()
            .register(CustomerAccount::new("c", "k", []));
        s.set_matching(MatchingPolicy::SameCountry);
        let mut geo = GeoIpService::new();
        let cn = geo.allocate(&GeoInfo::new("CN", 1, "AS4134"));
        let us = geo.allocate(&GeoInfo::new("US", 1, "AS7922"));
        let cn2 = geo.allocate(&GeoInfo::new("CN", 2, "AS4135"));
        let a_cn = Addr::from_ip(cn, 1);
        let a_us = Addr::from_ip(us, 1);
        let a_cn2 = Addr::from_ip(cn2, 1);
        s.handle(a_cn, join("x", "v", "k", 1), SimTime::ZERO, &geo);
        // US viewer sees no CN neighbor.
        let r = s.handle(a_us, join("x", "v", "k", 2), SimTime::ZERO, &geo);
        assert!(matches!(
            &r[..],
            [(_, SignalMsg::JoinOk { neighbors, .. })] if neighbors.is_empty()
        ));
        // Another CN viewer is introduced to the first.
        let r = s.handle(a_cn2, join("x", "v", "k", 3), SimTime::ZERO, &geo);
        assert!(matches!(
            &r[..],
            [(_, SignalMsg::JoinOk { neighbors, .. }), _] if neighbors.len() == 1
        ));
    }

    fn hardened_server_with_origin() -> (SignalingServer, GeoIpService, pdn_media::VideoSource) {
        let profile = ProviderProfile::hardened(&ProviderProfile::peer5());
        // Use static keys for join simplicity: rebuild with integrity only.
        let mut profile = profile;
        profile.auth = AuthScheme::StaticApiKey;
        let mut s = SignalingServer::new(profile, 7);
        s.accounts_mut()
            .register(CustomerAccount::new("c", "k", []));
        s.set_im_reporters(2);
        let src =
            pdn_media::VideoSource::vod("v", vec![400_000], std::time::Duration::from_secs(4), 10);
        let mut origin = OriginServer::new();
        origin.publish(src.clone());
        s.attach_origin(origin);
        (s, GeoIpService::new(), src)
    }

    #[test]
    fn unanimous_im_reports_yield_sim() {
        let (mut s, geo, src) = hardened_server_with_origin();
        s.handle(addr(1), join("x", "v", "k", 1), SimTime::ZERO, &geo);
        s.handle(addr(2), join("x", "v", "k", 2), SimTime::ZERO, &geo);
        let seg = src.segment(0, 5).unwrap();
        let im = compute_im(&seg.data, "v", 0, 5);
        let report = |s: &mut SignalingServer, from: Addr| {
            s.handle(
                from,
                SignalMsg::ImReport {
                    video: "v".into(),
                    rendition: 0,
                    seq: 5,
                    im: pdn_crypto::hex(&im),
                },
                SimTime::ZERO,
                &geo,
            )
        };
        assert!(
            report(&mut s, addr(1)).is_empty(),
            "below quorum: no SIM yet"
        );
        let out = report(&mut s, addr(2));
        // Quorum reached: SIM broadcast to both members.
        let sims = out
            .iter()
            .filter(|(_, m)| matches!(m, SignalMsg::SimBroadcast { .. }))
            .count();
        assert_eq!(sims, 2);
        assert_eq!(s.defense_stats().sims_issued, 1);
        assert_eq!(s.defense_stats().im_conflicts, 0);
    }

    /// 64 bytes that are not 64 characters: a multi-byte character first.
    fn multibyte_hex() -> String {
        let s = format!("€{}", "0".repeat(61));
        assert_eq!(s.len(), 64);
        s
    }

    #[test]
    fn parse_hex32_is_total() {
        assert_eq!(parse_hex32(&multibyte_hex()), None);
        assert_eq!(parse_hex32(&format!("{}€", "0".repeat(61))), None);
        assert_eq!(parse_hex32(&"0g".repeat(32)), None);
        assert_eq!(parse_hex32(&"ab".repeat(31)), None);
        assert_eq!(parse_hex32(&"ab".repeat(32)), Some([0xab; 32]));
    }

    /// Any joined peer can put any string in an IM report: a frame whose
    /// IM is not hex is dropped without a panic and without touching the
    /// integrity state.
    #[test]
    fn im_report_with_multibyte_im_is_ignored() {
        let (mut s, geo, _) = hardened_server_with_origin();
        s.handle(addr(1), join("x", "v", "k", 1), SimTime::ZERO, &geo);
        let frame = SignalMsg::ImReport {
            video: "v".into(),
            rendition: 0,
            seq: 5,
            im: multibyte_hex(),
        }
        .encode();
        let before = s.defense_stats();
        let mut out = Vec::new();
        s.handle_frame_into(addr(1), &frame, SimTime::ZERO, &geo, &mut out);
        assert!(out.is_empty());
        assert_eq!(s.defense_stats(), before);
        assert!(s.im_state.is_empty() && s.im_order.is_empty());
        assert!(!s.is_blacklisted(1));
    }

    #[test]
    fn conflicting_im_blacklists_the_liar() {
        let (mut s, geo, src) = hardened_server_with_origin();
        s.handle(addr(1), join("x", "v", "k", 1), SimTime::ZERO, &geo);
        s.handle(addr(2), join("x", "v", "k", 2), SimTime::ZERO, &geo);
        let seg = src.segment(0, 5).unwrap();
        let honest_im = compute_im(&seg.data, "v", 0, 5);
        let fake_im = [0xeeu8; 32];
        s.handle(
            addr(1),
            SignalMsg::ImReport {
                video: "v".into(),
                rendition: 0,
                seq: 5,
                im: pdn_crypto::hex(&honest_im),
            },
            SimTime::ZERO,
            &geo,
        );
        let out = s.handle(
            addr(2),
            SignalMsg::ImReport {
                video: "v".into(),
                rendition: 0,
                seq: 5,
                im: pdn_crypto::hex(&fake_im),
            },
            SimTime::ZERO,
            &geo,
        );
        // Conflict: server refetched from CDN, blacklisted peer 2, and the
        // SIM carries the honest IM.
        let stats = s.defense_stats();
        assert_eq!(stats.im_conflicts, 1);
        assert_eq!(stats.cdn_refetches, 1);
        assert!(stats.cdn_refetch_bytes > 0);
        assert_eq!(stats.blacklisted_peers, 1);
        assert!(s.is_blacklisted(2));
        assert!(out
            .iter()
            .any(|(a, m)| matches!(m, SignalMsg::Blacklisted { .. }) && *a == addr(2)));
        let sim_ok = out.iter().any(|(_, m)| {
            matches!(m, SignalMsg::SimBroadcast { im, .. } if *im == pdn_crypto::hex(&honest_im))
        });
        assert!(sim_ok, "broadcast SIM must carry the authentic IM");
    }

    /// An authentic segment is generated and hashed once: a conflict on a
    /// segment whose IM the server already took from the origin resolves
    /// from the memo (here with the origin detached), and still bills the
    /// whole segment's refetch.
    #[test]
    fn authentic_im_is_computed_once_and_every_conflict_bills() {
        let (mut s, geo, src) = hardened_server_with_origin();
        s.handle(addr(1), join("x", "v", "k", 1), SimTime::ZERO, &geo);
        s.handle(addr(2), join("x", "v", "k", 2), SimTime::ZERO, &geo);
        let seg = src.segment(0, 5).unwrap();
        let honest_im = compute_im(&seg.data, "v", 0, 5);
        assert_eq!(s.origin_im("v", 0, 5), Some(honest_im));
        assert_eq!(s.origin_im("v", 0, 5), Some(honest_im));
        assert_eq!(s.origin_im("v", 9, 5), None, "no such rendition");
        assert_eq!(s.origin_ims.len(), 1);
        assert_eq!(
            s.defense_stats(),
            DefenseStats::default(),
            "lookups bill nothing"
        );

        s.origin = None;
        for (from, im) in [(1, honest_im), (2, [0xeeu8; 32])] {
            let report = SignalMsg::ImReport {
                video: "v".into(),
                rendition: 0,
                seq: 5,
                im: pdn_crypto::hex(&im),
            };
            s.handle(addr(from), report, SimTime::ZERO, &geo);
        }
        let stats = s.defense_stats();
        assert_eq!((stats.im_conflicts, stats.cdn_refetches), (1, 1));
        assert_eq!(stats.cdn_refetch_bytes, seg.len() as u64);
        assert!(s.is_blacklisted(2) && !s.is_blacklisted(1));
        assert_eq!(s.origin_ims.len(), 1);
    }

    #[test]
    fn blacklisted_address_cannot_rejoin() {
        let (mut s, geo, src) = hardened_server_with_origin();
        s.handle(addr(1), join("x", "v", "k", 1), SimTime::ZERO, &geo);
        s.handle(addr(2), join("x", "v", "k", 2), SimTime::ZERO, &geo);
        let seg = src.segment(0, 5).unwrap();
        let honest = compute_im(&seg.data, "v", 0, 5);
        s.handle(
            addr(1),
            SignalMsg::ImReport {
                video: "v".into(),
                rendition: 0,
                seq: 5,
                im: pdn_crypto::hex(&honest),
            },
            SimTime::ZERO,
            &geo,
        );
        s.handle(
            addr(2),
            SignalMsg::ImReport {
                video: "v".into(),
                rendition: 0,
                seq: 5,
                im: pdn_crypto::hex(&[9u8; 32]),
            },
            SimTime::ZERO,
            &geo,
        );
        assert!(s.is_blacklisted(2));
        // The expelled address is refused at the door.
        let r = s.handle(addr(2), join("x", "v", "k", 3), SimTime::from_secs(1), &geo);
        assert!(
            matches!(&r[..], [(_, SignalMsg::JoinDenied { reason })] if reason.contains("blacklist"))
        );
    }

    #[test]
    fn im_is_position_bound() {
        // The replay-attack resistance: same content at a different
        // position yields a different IM.
        let data = b"segment-bytes";
        let a = compute_im(data, "v", 0, 1);
        let b = compute_im(data, "v", 0, 2);
        let c = compute_im(data, "w", 0, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn im_state_caps_bound_memory_and_count_evictions() {
        let (mut s, geo, _src) = hardened_server_with_origin();
        // Detach the origin so conflicts never resolve and reports pile up.
        s.origin = None;
        s.set_im_reporters(usize::MAX >> 1);
        s.handle(addr(1), join("x", "v", "k", 1), SimTime::ZERO, &geo);
        // Far more distinct IMs for one segment than the per-entry cap.
        for i in 0..(MAX_DISTINCT_IMS as u32 + 40) {
            let mut im = [0u8; 32];
            im[..4].copy_from_slice(&i.to_be_bytes());
            s.handle(
                addr(1),
                SignalMsg::ImReport {
                    video: "v".into(),
                    rendition: 0,
                    seq: 0,
                    im: pdn_crypto::hex(&im),
                },
                SimTime::ZERO,
                &geo,
            );
        }
        let entry = &s.im_state[&(s.videos.get("v").unwrap(), 0, 0)];
        assert_eq!(entry.reports.len(), MAX_DISTINCT_IMS);
        assert_eq!(s.defense_stats().im_evictions, 40);
        // And far more segment entries than the table cap.
        for seq in 0..(MAX_IM_ENTRIES as u64 + 10) {
            s.handle(
                addr(1),
                SignalMsg::ImReport {
                    video: "v".into(),
                    rendition: 1,
                    seq,
                    im: pdn_crypto::hex(&[7u8; 32]),
                },
                SimTime::ZERO,
                &geo,
            );
        }
        assert!(s.im_state.len() <= MAX_IM_ENTRIES);
        assert!(s.defense_stats().im_evictions >= 50);
    }

    #[test]
    fn temp_token_binding_matters() {
        // Mango TV-style (unbound): token minted for any video works for
        // the attacker's own stream — free-ridable.
        let mut mango = SignalingServer::new(ProviderProfile::private_mango_tv(), 1);
        let geo = GeoIpService::new();
        let t = mango.mint_temp_token(Some(VideoId::new("platform-video")));
        let j = SignalMsg::Join {
            api_key: None,
            token: Some(t),
            origin: "attacker.example".into(),
            video: "attacker-video".into(),
            manifest_hash: "m".into(),
            sdp: sdp(1),
        };
        let r = mango.handle(addr(1), j, SimTime::ZERO, &geo);
        assert!(matches!(r[..], [(_, SignalMsg::JoinOk { .. })]));

        // A bound variant rejects the attacker's video.
        let mut profile = ProviderProfile::private_mango_tv();
        profile.auth = AuthScheme::TempToken { video_bound: true };
        let mut bound = SignalingServer::new(profile, 1);
        let t = bound.mint_temp_token(Some(VideoId::new("platform-video")));
        let j = SignalMsg::Join {
            api_key: None,
            token: Some(t),
            origin: "attacker.example".into(),
            video: "attacker-video".into(),
            manifest_hash: "m".into(),
            sdp: sdp(1),
        };
        let r = bound.handle(addr(1), j, SimTime::ZERO, &geo);
        assert!(matches!(r[..], [(_, SignalMsg::JoinDenied { .. })]));
    }

    /// A batched burst must be indistinguishable from per-frame handling:
    /// identical reply bytes in identical order, identical server state.
    #[test]
    fn batch_matches_sequential() {
        let (mut seq, geo) = server();
        let (mut bat, _) = server();

        let mut frames: Vec<(Addr, bytes::Bytes)> = Vec::new();
        // A join burst to one stream (memo hits), a second stream, a bad
        // key (denied, never memoized), a stats report, a leave, junk.
        for d in 1..=20u8 {
            frames.push((
                addr(d),
                join("victim.tv", "v", "key-victim", d as u64).encode(),
            ));
        }
        frames.push((
            addr(21),
            join("victim.tv", "other", "key-victim", 21).encode(),
        ));
        frames.push((addr(22), join("victim.tv", "v", "wrong-key", 22).encode()));
        frames.push((
            addr(3),
            SignalMsg::StatsReport {
                p2p_up_bytes: 10,
                p2p_down_bytes: 20,
            }
            .encode(),
        ));
        frames.push((addr(4), SignalMsg::Leave.encode()));
        frames.push((addr(23), bytes::Bytes::from_static(b"not a frame")));
        frames.push((addr(24), join("victim.tv", "v", "key-victim", 24).encode()));

        let now = SimTime::from_secs(5);
        let mut seq_out = Vec::new();
        for (from, frame) in &frames {
            seq.handle_frame_into(*from, frame, now, &geo, &mut seq_out);
        }

        let mut batch = AdmissionBatch::new();
        let mut bat_out = Vec::new();
        bat.handle_frames_batch_into(&frames, now, &geo, &mut batch, &mut bat_out);

        assert_eq!(seq_out, bat_out, "reply streams diverged");
        assert!(batch.hits() > 0, "burst should hit the memos");
        assert_eq!(seq.peer_count(), bat.peer_count());
        assert_eq!(seq.meter("victim"), bat.meter("victim"));
    }

    /// The rolling neighbor window must survive a join burst (each joiner
    /// becomes the next join's youngest candidate) and die on interleaved
    /// leaves — a leave mid-burst mutates membership under the memo.
    #[test]
    fn neighbor_memo_rolls_and_invalidates_on_leave() {
        let now = SimTime::from_secs(1);
        let mut frames: Vec<(Addr, bytes::Bytes)> = (1..=6u8)
            .map(|d| {
                (
                    addr(d),
                    join("victim.tv", "v", "key-victim", d as u64).encode(),
                )
            })
            .collect();
        // Leave of the youngest member, then more joins: the post-leave
        // joins must not be offered the departed peer.
        frames.push((addr(6), SignalMsg::Leave.encode()));
        frames.push((addr(7), join("victim.tv", "v", "key-victim", 7).encode()));

        let (mut bat, geo) = server();
        let mut batch = AdmissionBatch::new();
        let mut bat_out = Vec::new();
        bat.handle_frames_batch_into(&frames, now, &geo, &mut batch, &mut bat_out);

        let (mut seq, _) = server();
        let mut seq_out = Vec::new();
        for (from, frame) in &frames {
            seq.handle_frame_into(*from, frame, now, &geo, &mut seq_out);
        }
        assert_eq!(bat_out, seq_out, "memo changed selection semantics");
        // The last join's JoinOk (first reply of the last join's group)
        // must introduce peers 2..=5, not the departed peer 6.
        let last_join_ok = bat_out
            .iter()
            .rev()
            .find(|(a, _)| *a == addr(7))
            .expect("join ok for last joiner");
        let Some(SignalMsg::JoinOk { neighbors, .. }) = SignalMsg::decode(&last_join_ok.1) else {
            panic!("expected JoinOk");
        };
        let ids: Vec<u64> = neighbors.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![5, 4, 3, 2], "youngest-first survivors");
    }

    /// Heavy join/leave churn through the tombstoned membership: the
    /// compactor must keep `swarm_pos` back-pointers valid and neighbor
    /// introduction must only ever offer live peers.
    #[test]
    fn churn_keeps_membership_consistent() {
        let (mut s, geo) = server();
        for d in 1..=120u8 {
            s.handle(
                addr(d),
                join("victim.tv", "v", "key-victim", d as u64),
                SimTime::ZERO,
                &geo,
            );
        }
        assert_eq!(s.peer_count(), 120);
        // Leave in a scattered order to exercise tombstones + compaction.
        for d in (1..=100u8).rev() {
            s.handle(addr(d), SignalMsg::Leave, SimTime::from_secs(1), &geo);
        }
        assert_eq!(s.peer_count(), 20);
        // Double-leave is a no-op.
        s.handle(addr(50), SignalMsg::Leave, SimTime::from_secs(1), &geo);
        assert_eq!(s.peer_count(), 20);

        let replies = s.handle(
            addr(200),
            join("victim.tv", "v", "key-victim", 200),
            SimTime::from_secs(2),
            &geo,
        );
        let (_, SignalMsg::JoinOk { neighbors, .. }) = &replies[0] else {
            panic!("expected JoinOk, got {replies:?}");
        };
        assert_eq!(neighbors.len(), 4, "full neighbor set from survivors");
        for (peer_id, _) in neighbors {
            // Survivors are peers 101..=120; the leavers must never be
            // offered.
            assert!(
                (101..=120).contains(peer_id),
                "introduced dead peer {peer_id}"
            );
        }
        // Leave everyone, rejoin, and the swarm still works.
        for d in 101..=120u8 {
            s.handle(addr(d), SignalMsg::Leave, SimTime::from_secs(3), &geo);
        }
        s.handle(addr(200), SignalMsg::Leave, SimTime::from_secs(3), &geo);
        assert_eq!(s.peer_count(), 0);
        let replies = s.handle(
            addr(201),
            join("victim.tv", "v", "key-victim", 201),
            SimTime::from_secs(4),
            &geo,
        );
        assert!(matches!(
            replies[..],
            [(_, SignalMsg::JoinOk { ref neighbors, .. })] if neighbors.is_empty()
        ));
    }
}
