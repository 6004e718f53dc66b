//! Versioned compact binary wire codec for the signaling and P2P planes.
//!
//! Every message the analyzer observes — joins, neighbor introductions,
//! HAVE/REQUEST exchange, segment delivery, integrity broadcasts — used to
//! round-trip through `serde_json` (signaling) or a fixed-width handwritten
//! format (P2P) with a fresh allocation and a full payload copy per
//! message. This module replaces both hot paths with a varint-framed binary
//! codec that encodes into a reusable [`bytes::BytesMut`] scratch and
//! decodes by *borrowing* from the incoming [`Bytes`] datagram: strings
//! come back as `&str` views, sequence lists as an iterator over the frame,
//! and segment payloads as zero-copy [`Bytes::slice`] handles.
//!
//! The tracker reads a join only as a borrowed [`JoinView`]
//! ([`decode_join_view`], which accepts exactly the frames
//! [`decode_signal`] reads as a `Join`). The joiner's SDP stays a slice of
//! its frame, and `JoinOk`/`PeerJoined` replies splice the stored slices
//! in ([`encode_join_ok_spliced`], [`encode_peer_joined_spliced`]); no SDP
//! is decoded or re-encoded on the way.
//!
//! # Frame layouts
//!
//! Binary signaling frame (the `TLS|` marker is kept so passive-sniffer
//! classification and plane opacity are unchanged):
//!
//! ```text
//! +-----------+----------+-----+------------------------------------+
//! | "TLS|"    | 0xB1     | tag | fields (varints, len-prefixed str) |
//! | marker ×4 | version  | u8  |                                    |
//! +-----------+----------+-----+------------------------------------+
//! ```
//!
//! The decoders accept only frames carrying the version byte. The retired
//! JSON signaling body (first byte `{` = 0x7B) and the fixed-width P2P
//! format (first byte = tag 1–3) therefore decode to `None`, and the
//! service inbox classifies them as greeter traffic.
//!
//! Binary P2P frame:
//!
//! ```text
//! +----------+-----+--------------+------------------------------+
//! | 0xC1     | tag | video        | fields (varints; payload is  |
//! | version  | u8  | str-field    | a trailing len-prefixed blob)|
//! +----------+-----+--------------+------------------------------+
//! ```
//!
//! # Intern-table semantics
//!
//! A P2P *str-field* starts with a varint discriminant: `0` means an inline
//! literal follows (varint length + UTF-8 bytes); `n > 0` means slot `n-1`
//! of the channel's [`InternTable`]. Tables are **deterministic and seeded
//! out-of-band**: each agent interns its own swarm's video id at
//! construction, and both ends of a data channel watch the same video
//! because the signaling server only introduces same-swarm neighbors.
//! Received frames never grow the table — UDP loss and reordering therefore
//! cannot desynchronise the two ends, unlike HPACK-style dynamic tables.
//! Peer ids need no table: they are varints and small by construction.
//!
//! The old codecs live on as test oracles in the `pdn-oracle` crate:
//! integration tests assert binary↔oracle equivalence for every message
//! variant, and `wire_bench` measures the binary codec against them.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_media::VideoId;
use pdn_simnet::wire::{get_uvarint, put_uvarint};
use pdn_simnet::Addr;
use pdn_webrtc::{Candidate, CandidateKind, Fingerprint, SessionDescription};

use crate::proto::{P2pMsg, SignalMsg, TLS_MARKER};

/// Version byte of binary signaling frames (follows the `TLS|` marker).
/// Distinct from `{` (0x7B), the first byte of a retired JSON body.
pub const SIGNAL_BIN_VERSION: u8 = 0xB1;

/// Version byte of binary P2P frames. Retired fixed-width P2P frames began
/// with their tag byte (1–3), so they never carry it.
pub const P2P_BIN_VERSION: u8 = 0xC1;

// ---------------------------------------------------------------------
// Intern table
// ---------------------------------------------------------------------

/// Deterministic string intern table for P2P frames (see the
/// [module docs](self) for the desynchronisation argument).
#[derive(Debug, Clone, Default)]
pub struct InternTable {
    entries: Vec<String>,
}

impl InternTable {
    /// A table with no entries; every str-field encodes inline.
    pub const EMPTY: InternTable = InternTable {
        entries: Vec::new(),
    };

    /// An empty table.
    pub fn new() -> Self {
        InternTable::default()
    }

    /// Adds `s` (deduplicating) and returns its slot.
    pub fn intern(&mut self, s: &str) -> u16 {
        if let Some(slot) = self.slot_of(s) {
            return slot;
        }
        assert!(self.entries.len() < u16::MAX as usize, "intern table full");
        self.entries.push(s.to_string());
        (self.entries.len() - 1) as u16
    }

    /// Slot of `s`, if interned. Linear scan: tables hold a handful of ids.
    pub fn slot_of(&self, s: &str) -> Option<u16> {
        self.entries.iter().position(|e| e == s).map(|i| i as u16)
    }

    /// The string stored in `slot`.
    pub fn resolve(&self, slot: u16) -> Option<&str> {
        self.entries.get(slot as usize).map(String::as_str)
    }
}

// ---------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------

/// A borrowed string field of a decoded P2P frame: either an inline
/// literal view into the datagram or an intern-table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrRef<'a> {
    /// Literal bytes borrowed from the frame.
    Inline(&'a str),
    /// Slot into the receiver's [`InternTable`].
    Slot(u16),
}

impl<'a> StrRef<'a> {
    /// Whether this field denotes `other` under `table` — the hot-path
    /// check (`video == config.video`) without materialising a `String`.
    pub fn matches(&self, table: &InternTable, other: &str) -> bool {
        match self {
            StrRef::Inline(s) => *s == other,
            StrRef::Slot(n) => table.resolve(*n) == Some(other),
        }
    }

    /// Resolves to a `&str`, borrowing from the frame or the table.
    pub fn resolve<'t: 'a>(&self, table: &'t InternTable) -> Option<&'a str> {
        match self {
            StrRef::Inline(s) => Some(s),
            StrRef::Slot(n) => table.resolve(*n),
        }
    }
}

fn put_str_field<B: BufMut>(buf: &mut B, s: &str, table: &InternTable) {
    match table.slot_of(s) {
        Some(slot) => put_uvarint(buf, u64::from(slot) + 1),
        None => {
            put_uvarint(buf, 0);
            put_inline_str(buf, s);
        }
    }
}

fn get_str_field<'a>(data: &'a [u8], off: &mut usize) -> Option<StrRef<'a>> {
    match get_uvarint(data, off)? {
        0 => Some(StrRef::Inline(get_inline_str(data, off)?)),
        n => u16::try_from(n - 1).ok().map(StrRef::Slot),
    }
}

fn put_inline_str<B: BufMut>(buf: &mut B, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_inline_str<'a>(data: &'a [u8], off: &mut usize) -> Option<&'a str> {
    let len = usize::try_from(get_uvarint(data, off)?).ok()?;
    let end = off.checked_add(len)?;
    if end > data.len() {
        return None;
    }
    let s = std::str::from_utf8(&data[*off..end]).ok()?;
    *off = end;
    Some(s)
}

fn put_opt_str<B: BufMut>(buf: &mut B, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.put_u8(1);
            put_inline_str(buf, s);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_str(data: &[u8], off: &mut usize) -> Option<Option<String>> {
    match get_u8(data, off)? {
        0 => Some(None),
        1 => Some(Some(get_inline_str(data, off)?.to_owned())),
        _ => None,
    }
}

fn get_u8(data: &[u8], off: &mut usize) -> Option<u8> {
    let b = *data.get(*off)?;
    *off += 1;
    Some(b)
}

fn get_array<const N: usize>(data: &[u8], off: &mut usize) -> Option<[u8; N]> {
    let end = off.checked_add(N)?;
    let arr: [u8; N] = data.get(*off..end)?.try_into().ok()?;
    *off = end;
    Some(arr)
}

fn put_sdp<B: BufMut>(buf: &mut B, sdp: &SessionDescription) {
    put_inline_str(buf, &sdp.ice_ufrag);
    put_inline_str(buf, &sdp.ice_pwd);
    buf.put_slice(&sdp.fingerprint.0);
    put_uvarint(buf, sdp.candidates.len() as u64);
    for c in &sdp.candidates {
        buf.put_u8(match c.kind {
            CandidateKind::Relay => 0,
            CandidateKind::ServerReflexive => 1,
            CandidateKind::Host => 2,
        });
        buf.put_slice(&c.addr.ip.octets());
        buf.put_u16(c.addr.port);
        put_uvarint(buf, u64::from(c.priority));
    }
}

fn get_sdp(data: &[u8], off: &mut usize) -> Option<SessionDescription> {
    let ice_ufrag = get_inline_str(data, off)?.to_owned();
    let ice_pwd = get_inline_str(data, off)?.to_owned();
    let fingerprint = Fingerprint(get_array::<32>(data, off)?);
    let n = usize::try_from(get_uvarint(data, off)?).ok()?;
    let mut candidates = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let kind = match get_u8(data, off)? {
            0 => CandidateKind::Relay,
            1 => CandidateKind::ServerReflexive,
            2 => CandidateKind::Host,
            _ => return None,
        };
        let ip = get_array::<4>(data, off)?;
        let port = u16::from_be_bytes(get_array::<2>(data, off)?);
        let priority = u32::try_from(get_uvarint(data, off)?).ok()?;
        candidates.push(Candidate {
            kind,
            addr: Addr::new(ip[0], ip[1], ip[2], ip[3], port),
            priority,
        });
    }
    Some(SessionDescription {
        ice_ufrag,
        ice_pwd,
        fingerprint,
        candidates,
    })
}

/// Validates and skips one encoded SDP inside `data`, advancing `off` past
/// it. Applies exactly the checks [`get_sdp`] applies, so a skipped range
/// is guaranteed to decode later — this is what lets the tracker intern the
/// raw fragment instead of materialising a [`SessionDescription`].
fn skip_sdp(data: &[u8], off: &mut usize) -> Option<()> {
    get_inline_str(data, off)?; // ice_ufrag
    get_inline_str(data, off)?; // ice_pwd
    get_array::<32>(data, off)?; // fingerprint
    let n = usize::try_from(get_uvarint(data, off)?).ok()?;
    for _ in 0..n {
        if get_u8(data, off)? > 2 {
            return None;
        }
        get_array::<4>(data, off)?; // ip
        get_array::<2>(data, off)?; // port
        u32::try_from(get_uvarint(data, off)?).ok()?; // priority
    }
    Some(())
}

fn get_opt_str_ref<'a>(data: &'a [u8], off: &mut usize) -> Option<Option<&'a str>> {
    match get_u8(data, off)? {
        0 => Some(None),
        1 => Some(Some(get_inline_str(data, off)?)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Signaling codec
// ---------------------------------------------------------------------

const SIG_JOIN: u8 = 1;
const SIG_JOIN_OK: u8 = 2;
const SIG_JOIN_DENIED: u8 = 3;
const SIG_PEER_JOINED: u8 = 4;
const SIG_STATS: u8 = 5;
const SIG_IM_REPORT: u8 = 6;
const SIG_SIM_BROADCAST: u8 = 7;
const SIG_BLACKLISTED: u8 = 8;
const SIG_LEAVE: u8 = 9;

/// Encodes a signaling message in the binary format, appending to `out`.
/// Allocation-free once `out` has warmed to the message size.
pub fn encode_signal_into(msg: &SignalMsg, out: &mut BytesMut) {
    out.put_slice(TLS_MARKER);
    out.put_u8(SIGNAL_BIN_VERSION);
    match msg {
        SignalMsg::Join {
            api_key,
            token,
            origin,
            video,
            manifest_hash,
            sdp,
        } => {
            out.put_u8(SIG_JOIN);
            put_opt_str(out, api_key.as_deref());
            put_opt_str(out, token.as_deref());
            put_inline_str(out, origin);
            put_inline_str(out, video);
            put_inline_str(out, manifest_hash);
            put_sdp(out, sdp);
        }
        SignalMsg::JoinOk { peer_id, neighbors } => {
            out.put_u8(SIG_JOIN_OK);
            put_uvarint(out, *peer_id);
            put_uvarint(out, neighbors.len() as u64);
            for (id, sdp) in neighbors {
                put_uvarint(out, *id);
                put_sdp(out, sdp);
            }
        }
        SignalMsg::JoinDenied { reason } => {
            out.put_u8(SIG_JOIN_DENIED);
            put_inline_str(out, reason);
        }
        SignalMsg::PeerJoined { peer_id, sdp } => {
            out.put_u8(SIG_PEER_JOINED);
            put_uvarint(out, *peer_id);
            put_sdp(out, sdp);
        }
        SignalMsg::StatsReport {
            p2p_up_bytes,
            p2p_down_bytes,
        } => {
            out.put_u8(SIG_STATS);
            put_uvarint(out, *p2p_up_bytes);
            put_uvarint(out, *p2p_down_bytes);
        }
        SignalMsg::ImReport {
            video,
            rendition,
            seq,
            im,
        } => {
            out.put_u8(SIG_IM_REPORT);
            put_inline_str(out, video);
            out.put_u8(*rendition);
            put_uvarint(out, *seq);
            put_inline_str(out, im);
        }
        SignalMsg::SimBroadcast {
            video,
            rendition,
            seq,
            im,
            sig,
        } => {
            out.put_u8(SIG_SIM_BROADCAST);
            put_inline_str(out, video);
            out.put_u8(*rendition);
            put_uvarint(out, *seq);
            put_inline_str(out, im);
            put_inline_str(out, sig);
        }
        SignalMsg::Blacklisted { reason } => {
            out.put_u8(SIG_BLACKLISTED);
            put_inline_str(out, reason);
        }
        SignalMsg::Leave => {
            out.put_u8(SIG_LEAVE);
        }
    }
}

/// Encodes a signaling message into a fresh binary frame.
pub fn encode_signal(msg: &SignalMsg) -> Bytes {
    let mut out = BytesMut::with_capacity(64);
    encode_signal_into(msg, &mut out);
    out.freeze()
}

/// Decodes a binary signaling frame (marker + version + tag + fields).
/// Total over arbitrary bytes; `None` for anything else, including the
/// retired JSON format.
pub fn decode_signal(frame: &[u8]) -> Option<SignalMsg> {
    let body = frame.strip_prefix(TLS_MARKER.as_slice())?;
    let mut off = 0usize;
    if get_u8(body, &mut off)? != SIGNAL_BIN_VERSION {
        return None;
    }
    match get_u8(body, &mut off)? {
        SIG_JOIN => Some(SignalMsg::Join {
            api_key: get_opt_str(body, &mut off)?,
            token: get_opt_str(body, &mut off)?,
            origin: get_inline_str(body, &mut off)?.to_owned(),
            video: get_inline_str(body, &mut off)?.to_owned(),
            manifest_hash: get_inline_str(body, &mut off)?.to_owned(),
            sdp: get_sdp(body, &mut off)?,
        }),
        SIG_JOIN_OK => {
            let peer_id = get_uvarint(body, &mut off)?;
            let n = usize::try_from(get_uvarint(body, &mut off)?).ok()?;
            let mut neighbors = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                let id = get_uvarint(body, &mut off)?;
                neighbors.push((id, get_sdp(body, &mut off)?));
            }
            Some(SignalMsg::JoinOk { peer_id, neighbors })
        }
        SIG_JOIN_DENIED => Some(SignalMsg::JoinDenied {
            reason: get_inline_str(body, &mut off)?.to_owned(),
        }),
        SIG_PEER_JOINED => Some(SignalMsg::PeerJoined {
            peer_id: get_uvarint(body, &mut off)?,
            sdp: get_sdp(body, &mut off)?,
        }),
        SIG_STATS => Some(SignalMsg::StatsReport {
            p2p_up_bytes: get_uvarint(body, &mut off)?,
            p2p_down_bytes: get_uvarint(body, &mut off)?,
        }),
        SIG_IM_REPORT => Some(SignalMsg::ImReport {
            video: get_inline_str(body, &mut off)?.to_owned(),
            rendition: get_u8(body, &mut off)?,
            seq: get_uvarint(body, &mut off)?,
            im: get_inline_str(body, &mut off)?.to_owned(),
        }),
        SIG_SIM_BROADCAST => Some(SignalMsg::SimBroadcast {
            video: get_inline_str(body, &mut off)?.to_owned(),
            rendition: get_u8(body, &mut off)?,
            seq: get_uvarint(body, &mut off)?,
            im: get_inline_str(body, &mut off)?.to_owned(),
            sig: get_inline_str(body, &mut off)?.to_owned(),
        }),
        SIG_BLACKLISTED => Some(SignalMsg::Blacklisted {
            reason: get_inline_str(body, &mut off)?.to_owned(),
        }),
        SIG_LEAVE => Some(SignalMsg::Leave),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Borrowed join path (tracker hot path)
// ---------------------------------------------------------------------

/// Borrowed decode of a binary `Join` frame: credential and id fields stay
/// `&str` views into the datagram, and the SDP comes back as the byte
/// *range* of its encoded fragment so the tracker can intern
/// `frame.slice(range)` zero-copy instead of parsing candidates into an
/// owned [`SessionDescription`].
#[derive(Debug, Clone)]
pub struct JoinView<'a> {
    /// Static API key, if present.
    pub api_key: Option<&'a str>,
    /// Tenant/JWT token, if present.
    pub token: Option<&'a str>,
    /// Claimed page origin.
    pub origin: &'a str,
    /// Video id.
    pub video: &'a str,
    /// Manifest hash.
    pub manifest_hash: &'a str,
    /// Byte range of the encoded SDP within the whole frame. The range is
    /// validated (`skip_sdp` applies the same checks as `get_sdp`), so a
    /// reply that splices the slice in decodes.
    pub sdp_range: std::ops::Range<usize>,
}

/// Decodes a binary `Join` frame into a borrowed [`JoinView`]. Returns
/// `Some` for exactly the frames [`decode_signal`] reads as a
/// [`SignalMsg::Join`], with the same fields; `None` for any other tag or
/// malformed input.
pub fn decode_join_view(frame: &[u8]) -> Option<JoinView<'_>> {
    let body = frame.strip_prefix(TLS_MARKER.as_slice())?;
    let mut off = 0usize;
    if get_u8(body, &mut off)? != SIGNAL_BIN_VERSION || get_u8(body, &mut off)? != SIG_JOIN {
        return None;
    }
    let api_key = get_opt_str_ref(body, &mut off)?;
    let token = get_opt_str_ref(body, &mut off)?;
    let origin = get_inline_str(body, &mut off)?;
    let video = get_inline_str(body, &mut off)?;
    let manifest_hash = get_inline_str(body, &mut off)?;
    let sdp_start = off;
    skip_sdp(body, &mut off)?;
    let base = TLS_MARKER.len();
    Some(JoinView {
        api_key,
        token,
        origin,
        video,
        manifest_hash,
        sdp_range: base + sdp_start..base + off,
    })
}

/// Encodes a `JoinOk` by splicing pre-encoded SDP fragments straight into
/// the frame — byte-identical to [`encode_signal`] on the equivalent
/// [`SignalMsg::JoinOk`], without materialising a single
/// [`SessionDescription`]. `count` must equal the iterator's length.
pub fn encode_join_ok_spliced<'a>(
    peer_id: u64,
    count: usize,
    neighbors: impl Iterator<Item = (u64, &'a [u8])>,
    out: &mut BytesMut,
) {
    out.put_slice(TLS_MARKER);
    out.put_u8(SIGNAL_BIN_VERSION);
    out.put_u8(SIG_JOIN_OK);
    put_uvarint(out, peer_id);
    put_uvarint(out, count as u64);
    let mut seen = 0usize;
    for (id, sdp) in neighbors {
        put_uvarint(out, id);
        out.put_slice(sdp);
        seen += 1;
    }
    debug_assert_eq!(seen, count, "neighbor count mismatch in spliced JoinOk");
}

/// Encodes a `PeerJoined` notification from an interned SDP fragment —
/// byte-identical to [`encode_signal`] on the equivalent message.
pub fn encode_peer_joined_spliced(peer_id: u64, sdp: &[u8], out: &mut BytesMut) {
    out.put_slice(TLS_MARKER);
    out.put_u8(SIGNAL_BIN_VERSION);
    out.put_u8(SIG_PEER_JOINED);
    put_uvarint(out, peer_id);
    out.put_slice(sdp);
}

// ---------------------------------------------------------------------
// P2P codec
// ---------------------------------------------------------------------

const P2P_HAVE: u8 = 1;
const P2P_REQUEST: u8 = 2;
const P2P_SEGMENT: u8 = 3;

/// Borrowed form of [`P2pMsg`]: what the SDK hot path encodes without
/// cloning video ids, sequence lists, or segment payloads.
#[derive(Debug, Clone, Copy)]
pub enum P2pRef<'a> {
    /// Advertise possession of segments.
    Have {
        /// Video id.
        video: &'a str,
        /// Rendition.
        rendition: u8,
        /// Sequence numbers held.
        seqs: &'a [u64],
    },
    /// Request one segment.
    RequestSegment {
        /// Video id.
        video: &'a str,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
    },
    /// Deliver one segment.
    SegmentData {
        /// Video id.
        video: &'a str,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
        /// Play duration in milliseconds.
        duration_ms: u32,
        /// Media payload.
        data: &'a Bytes,
        /// `(im, server_sig)` if SIM is attached.
        sim: Option<([u8; 32], [u8; 32])>,
    },
}

impl<'a> From<&'a P2pMsg> for P2pRef<'a> {
    fn from(msg: &'a P2pMsg) -> Self {
        match msg {
            P2pMsg::Have {
                video,
                rendition,
                seqs,
            } => P2pRef::Have {
                video: &video.0,
                rendition: *rendition,
                seqs,
            },
            P2pMsg::RequestSegment {
                video,
                rendition,
                seq,
            } => P2pRef::RequestSegment {
                video: &video.0,
                rendition: *rendition,
                seq: *seq,
            },
            P2pMsg::SegmentData {
                video,
                rendition,
                seq,
                duration_ms,
                data,
                sim,
            } => P2pRef::SegmentData {
                video: &video.0,
                rendition: *rendition,
                seq: *seq,
                duration_ms: *duration_ms,
                data,
                sim: *sim,
            },
        }
    }
}

impl P2pRef<'_> {
    /// Clones into an owned [`P2pMsg`] (only the rare queued-send path
    /// pays this).
    pub fn to_owned_msg(&self) -> P2pMsg {
        match *self {
            P2pRef::Have {
                video,
                rendition,
                seqs,
            } => P2pMsg::Have {
                video: VideoId::new(video),
                rendition,
                seqs: seqs.to_vec(),
            },
            P2pRef::RequestSegment {
                video,
                rendition,
                seq,
            } => P2pMsg::RequestSegment {
                video: VideoId::new(video),
                rendition,
                seq,
            },
            P2pRef::SegmentData {
                video,
                rendition,
                seq,
                duration_ms,
                data,
                sim,
            } => P2pMsg::SegmentData {
                video: VideoId::new(video),
                rendition,
                seq,
                duration_ms,
                data: data.clone(),
                sim,
            },
        }
    }
}

/// Encodes a P2P message in the binary format, appending to `out`.
/// Allocation-free once `out` has warmed to the message size.
pub fn encode_p2p_into(msg: &P2pRef<'_>, table: &InternTable, out: &mut BytesMut) {
    let tail = encode_p2p_header_into(msg, table, out);
    out.put_slice(tail);
}

/// Encodes all of a P2P message but its trailing payload, appending to
/// `out`, and returns that payload: the segment bytes of a `SegmentData`,
/// empty otherwise. `out` followed by the returned slice is exactly the
/// [`encode_p2p_into`] frame, so a sender can hand both to the data
/// channel as parts and never copy the segment into a frame buffer.
pub fn encode_p2p_header_into<'m>(
    msg: &P2pRef<'m>,
    table: &InternTable,
    out: &mut BytesMut,
) -> &'m [u8] {
    out.put_u8(P2P_BIN_VERSION);
    match *msg {
        P2pRef::Have {
            video,
            rendition,
            seqs,
        } => {
            out.put_u8(P2P_HAVE);
            put_str_field(out, video, table);
            out.put_u8(rendition);
            put_uvarint(out, seqs.len() as u64);
            for s in seqs {
                put_uvarint(out, *s);
            }
            &[]
        }
        P2pRef::RequestSegment {
            video,
            rendition,
            seq,
        } => {
            out.put_u8(P2P_REQUEST);
            put_str_field(out, video, table);
            out.put_u8(rendition);
            put_uvarint(out, seq);
            &[]
        }
        P2pRef::SegmentData {
            video,
            rendition,
            seq,
            duration_ms,
            data,
            sim,
        } => {
            out.put_u8(P2P_SEGMENT);
            put_str_field(out, video, table);
            out.put_u8(rendition);
            put_uvarint(out, seq);
            put_uvarint(out, u64::from(duration_ms));
            match sim {
                Some((im, sig)) => {
                    out.put_u8(1);
                    out.put_slice(&im);
                    out.put_slice(&sig);
                }
                None => out.put_u8(0),
            }
            put_uvarint(out, data.len() as u64);
            data
        }
    }
}

/// Encodes a P2P message into a fresh binary frame using `table`.
pub fn encode_p2p(msg: &P2pMsg, table: &InternTable) -> Bytes {
    let mut out = BytesMut::with_capacity(32);
    encode_p2p_into(&P2pRef::from(msg), table, &mut out);
    out.freeze()
}

/// Iterator over the sequence numbers of a decoded `Have` frame; borrows
/// the frame, allocates nothing. The bounds were validated at decode time,
/// so iteration is infallible.
#[derive(Debug, Clone)]
pub struct SeqIter<'a> {
    data: &'a [u8],
    off: usize,
    remaining: usize,
}

impl Iterator for SeqIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        get_uvarint(self.data, &mut self.off)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SeqIter<'_> {}

/// Borrowed decode of a P2P frame: strings stay views, sequence numbers
/// stream from the frame, and the segment payload is a zero-copy slice of
/// the datagram's backing storage.
#[derive(Debug, Clone)]
pub enum P2pView<'a> {
    /// Advertise possession of segments.
    Have {
        /// Video id field.
        video: StrRef<'a>,
        /// Rendition.
        rendition: u8,
        /// Sequence numbers held.
        seqs: SeqIter<'a>,
    },
    /// Request one segment.
    RequestSegment {
        /// Video id field.
        video: StrRef<'a>,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
    },
    /// Deliver one segment.
    SegmentData {
        /// Video id field.
        video: StrRef<'a>,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
        /// Play duration in milliseconds.
        duration_ms: u32,
        /// Media payload (zero-copy slice of the frame).
        data: Bytes,
        /// `(im, server_sig)` if SIM is attached.
        sim: Option<([u8; 32], [u8; 32])>,
    },
}

/// Decodes a binary P2P frame into a borrowed view.
/// Total over arbitrary bytes; `None` on any malformation.
pub fn decode_p2p_view(frame: &Bytes) -> Option<P2pView<'_>> {
    let data: &[u8] = frame;
    let mut off = 0usize;
    if get_u8(data, &mut off)? != P2P_BIN_VERSION {
        return None;
    }
    let tag = get_u8(data, &mut off)?;
    let video = get_str_field(data, &mut off)?;
    let rendition = get_u8(data, &mut off)?;
    match tag {
        P2P_HAVE => {
            let n = usize::try_from(get_uvarint(data, &mut off)?).ok()?;
            let start = off;
            // Validate the whole list now so SeqIter can be infallible.
            for _ in 0..n {
                get_uvarint(data, &mut off)?;
            }
            Some(P2pView::Have {
                video,
                rendition,
                seqs: SeqIter {
                    data,
                    off: start,
                    remaining: n,
                },
            })
        }
        P2P_REQUEST => Some(P2pView::RequestSegment {
            video,
            rendition,
            seq: get_uvarint(data, &mut off)?,
        }),
        P2P_SEGMENT => {
            let seq = get_uvarint(data, &mut off)?;
            let duration_ms = u32::try_from(get_uvarint(data, &mut off)?).ok()?;
            let sim = match get_u8(data, &mut off)? {
                1 => Some((
                    get_array::<32>(data, &mut off)?,
                    get_array::<32>(data, &mut off)?,
                )),
                0 => None,
                _ => return None,
            };
            let len = usize::try_from(get_uvarint(data, &mut off)?).ok()?;
            let end = off.checked_add(len)?;
            if end > data.len() {
                return None;
            }
            Some(P2pView::SegmentData {
                video,
                rendition,
                seq,
                duration_ms,
                data: frame.slice(off..end),
                sim,
            })
        }
        _ => None,
    }
}

/// Decodes a binary P2P frame into an owned [`P2pMsg`], resolving
/// intern-table slots against `table`. The segment payload stays a
/// zero-copy slice of `frame`.
pub fn decode_p2p(frame: &Bytes, table: &InternTable) -> Option<P2pMsg> {
    match decode_p2p_view(frame)? {
        P2pView::Have {
            video,
            rendition,
            seqs,
        } => Some(P2pMsg::Have {
            video: VideoId::new(video.resolve(table)?),
            rendition,
            seqs: seqs.collect(),
        }),
        P2pView::RequestSegment {
            video,
            rendition,
            seq,
        } => Some(P2pMsg::RequestSegment {
            video: VideoId::new(video.resolve(table)?),
            rendition,
            seq,
        }),
        P2pView::SegmentData {
            video,
            rendition,
            seq,
            duration_ms,
            data,
            sim,
        } => Some(P2pMsg::SegmentData {
            video: VideoId::new(video.resolve(table)?),
            rendition,
            seq,
            duration_ms,
            data,
            sim,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sdp(nc: usize) -> SessionDescription {
        SessionDescription {
            ice_ufrag: "ufrag01".into(),
            ice_pwd: "pwd-secret".into(),
            fingerprint: Fingerprint([7u8; 32]),
            candidates: (0..nc)
                .map(|i| Candidate {
                    kind: match i % 3 {
                        0 => CandidateKind::Host,
                        1 => CandidateKind::ServerReflexive,
                        _ => CandidateKind::Relay,
                    },
                    addr: Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8, 4000 + i as u16),
                    priority: 1 << (i % 31),
                })
                .collect(),
        }
    }

    /// An SDP encoded on its own: the fragment a join frame embeds.
    fn fragment(sdp: &SessionDescription) -> Bytes {
        let mut out = BytesMut::new();
        put_sdp(&mut out, sdp);
        out.freeze()
    }

    /// Both join decoders on `frame`: the borrowed view must exist exactly
    /// when the owned decoder reads a `Join`, with equal fields, and its
    /// SDP range spliced into a reply must carry the owned SDP.
    fn join_decoders_agree(frame: &[u8]) -> Result<(), TestCaseError> {
        let view = decode_join_view(frame);
        let Some(SignalMsg::Join {
            api_key,
            token,
            origin,
            video,
            manifest_hash,
            sdp,
        }) = decode_signal(frame)
        else {
            prop_assert!(view.is_none(), "view of a frame that is no join");
            return Ok(());
        };
        let Some(view) = view else {
            return Err(TestCaseError::fail("a decodable join has no view"));
        };
        prop_assert_eq!(view.api_key, api_key.as_deref());
        prop_assert_eq!(view.token, token.as_deref());
        prop_assert_eq!(view.origin, origin.as_str());
        prop_assert_eq!(view.video, video.as_str());
        prop_assert_eq!(view.manifest_hash, manifest_hash.as_str());
        let mut out = BytesMut::new();
        encode_peer_joined_spliced(1, &frame[view.sdp_range], &mut out);
        prop_assert_eq!(
            decode_signal(&out),
            Some(SignalMsg::PeerJoined { peer_id: 1, sdp })
        );
        Ok(())
    }

    fn every_signal_variant() -> Vec<SignalMsg> {
        vec![
            SignalMsg::Join {
                api_key: Some("key".into()),
                token: None,
                origin: "site.tv".into(),
                video: "v.m3u8".into(),
                manifest_hash: "abcd".into(),
                sdp: sdp(3),
            },
            SignalMsg::JoinOk {
                peer_id: 1 << 40,
                neighbors: vec![(1, sdp(2)), (99, sdp(0))],
            },
            SignalMsg::JoinDenied {
                reason: "bad key".into(),
            },
            SignalMsg::PeerJoined {
                peer_id: 7,
                sdp: sdp(1),
            },
            SignalMsg::StatsReport {
                p2p_up_bytes: u64::MAX,
                p2p_down_bytes: 0,
            },
            SignalMsg::ImReport {
                video: "v".into(),
                rendition: 2,
                seq: 300,
                im: "00ff".repeat(16),
            },
            SignalMsg::SimBroadcast {
                video: "v".into(),
                rendition: 0,
                seq: 12,
                im: "aa".repeat(32),
                sig: "bb".repeat(32),
            },
            SignalMsg::Blacklisted {
                reason: "fake reports".into(),
            },
            SignalMsg::Leave,
        ]
    }

    fn every_p2p_variant() -> Vec<P2pMsg> {
        vec![
            P2pMsg::Have {
                video: VideoId::new("v.m3u8"),
                rendition: 1,
                seqs: vec![0, 1, 127, 128, 1 << 40],
            },
            P2pMsg::RequestSegment {
                video: VideoId::new("v.m3u8"),
                rendition: 0,
                seq: 42,
            },
            P2pMsg::SegmentData {
                video: VideoId::new("v.m3u8"),
                rendition: 3,
                seq: 9,
                duration_ms: 4000,
                data: Bytes::from_static(b"\x47segment-bytes"),
                sim: Some(([1u8; 32], [2u8; 32])),
            },
            P2pMsg::SegmentData {
                video: VideoId::new("v.m3u8"),
                rendition: 0,
                seq: 10,
                duration_ms: 4000,
                data: Bytes::from_static(b""),
                sim: None,
            },
        ]
    }

    #[test]
    fn binary_signal_roundtrips_every_variant() {
        for msg in every_signal_variant() {
            let frame = encode_signal(&msg);
            assert!(frame.starts_with(TLS_MARKER), "marker preserved");
            assert_eq!(frame[4], SIGNAL_BIN_VERSION);
            assert_eq!(decode_signal(&frame), Some(msg));
        }
    }

    #[test]
    fn join_view_borrows_fields_and_sdp_range_decodes() {
        let msg = SignalMsg::Join {
            api_key: Some("key".into()),
            token: None,
            origin: "site.tv".into(),
            video: "v.m3u8".into(),
            manifest_hash: "abcd".into(),
            sdp: sdp(3),
        };
        let frame = encode_signal(&msg);
        let view = decode_join_view(&frame).expect("join decodes");
        assert_eq!(view.api_key, Some("key"));
        assert_eq!(view.token, None);
        assert_eq!(view.origin, "site.tv");
        assert_eq!(view.video, "v.m3u8");
        assert_eq!(view.manifest_hash, "abcd");
        // The range covers exactly the trailing SDP fragment, which equals
        // the standalone encoding — interning the slice is
        // indistinguishable from re-encoding.
        assert_eq!(view.sdp_range.end, frame.len());
        assert_eq!(&frame[view.sdp_range], &fragment(&sdp(3))[..]);
        // Non-join frames fall through.
        assert!(decode_join_view(&encode_signal(&SignalMsg::Leave)).is_none());
    }

    #[test]
    fn spliced_replies_match_encode_signal_bytes() {
        let n1 = fragment(&sdp(2));
        let n2 = fragment(&sdp(0));
        let mut out = BytesMut::new();
        encode_join_ok_spliced(
            1 << 40,
            2,
            [(1u64, &n1[..]), (99u64, &n2[..])].into_iter(),
            &mut out,
        );
        let reference = encode_signal(&SignalMsg::JoinOk {
            peer_id: 1 << 40,
            neighbors: vec![(1, sdp(2)), (99, sdp(0))],
        });
        assert_eq!(&out[..], &reference[..], "spliced JoinOk diverges");

        let mut out = BytesMut::new();
        encode_peer_joined_spliced(7, &fragment(&sdp(1)), &mut out);
        let reference = encode_signal(&SignalMsg::PeerJoined {
            peer_id: 7,
            sdp: sdp(1),
        });
        assert_eq!(&out[..], &reference[..], "spliced PeerJoined diverges");
    }

    #[test]
    fn interned_video_encodes_as_one_slot_byte() {
        let mut table = InternTable::new();
        assert_eq!(table.intern("v.m3u8"), 0);
        assert_eq!(table.intern("v.m3u8"), 0, "dedup");
        let msg = P2pMsg::RequestSegment {
            video: VideoId::new("v.m3u8"),
            rendition: 0,
            seq: 5,
        };
        let interned = encode_p2p(&msg, &table);
        let inline = encode_p2p(&msg, &InternTable::EMPTY);
        assert_eq!(
            inline.len() - interned.len(),
            "v.m3u8".len() + 1,
            "slot replaces the literal and its length byte"
        );
        // A slot against the wrong table fails closed rather than
        // resolving to the wrong video.
        assert_eq!(decode_p2p(&interned, &InternTable::EMPTY), None);
        assert_eq!(decode_p2p(&interned, &table), Some(msg));
    }

    #[test]
    fn header_and_tail_concatenate_to_the_frame() {
        let mut table = InternTable::new();
        table.intern("v.m3u8");
        for msg in every_p2p_variant() {
            let r = P2pRef::from(&msg);
            let mut header = BytesMut::new();
            let tail = encode_p2p_header_into(&r, &table, &mut header);
            let whole = [&header[..], tail].concat();
            assert_eq!(&whole[..], &encode_p2p(&msg, &table)[..], "{msg:?}");
            let payload_len = match &msg {
                P2pMsg::SegmentData { data, .. } => data.len(),
                _ => 0,
            };
            assert_eq!(tail.len(), payload_len, "{msg:?}");
        }
    }

    #[test]
    fn segment_payload_decodes_zero_copy() {
        let payload = Bytes::from(vec![0x47u8; 4096]);
        let msg = P2pMsg::SegmentData {
            video: VideoId::new("v"),
            rendition: 0,
            seq: 1,
            duration_ms: 4000,
            data: payload,
            sim: None,
        };
        let frame = encode_p2p(&msg, &InternTable::EMPTY);
        let Some(P2pView::SegmentData { data, .. }) = decode_p2p_view(&frame) else {
            panic!("decodes");
        };
        // Zero-copy: the decoded payload points into the frame itself.
        assert_eq!(
            data.as_ptr() as usize - frame.as_ptr() as usize,
            frame.len() - 4096
        );
        assert_eq!(&data[..], &[0x47u8; 4096][..]);
    }

    #[test]
    fn view_matches_and_streams_without_table_access() {
        let mut table = InternTable::new();
        table.intern("v");
        let msg = P2pMsg::Have {
            video: VideoId::new("v"),
            rendition: 2,
            seqs: vec![5, 6, 700],
        };
        let frame = encode_p2p(&msg, &table);
        let Some(P2pView::Have {
            video,
            rendition,
            seqs,
        }) = decode_p2p_view(&frame)
        else {
            panic!("decodes");
        };
        assert!(video.matches(&table, "v"));
        assert!(!video.matches(&InternTable::EMPTY, "v"), "fails closed");
        assert_eq!(rendition, 2);
        assert_eq!(seqs.len(), 3);
        assert_eq!(seqs.collect::<Vec<_>>(), vec![5, 6, 700]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Fuzz: truncations of valid binary frames never panic and never
        /// decode (mirrors the DTLS record truncation proptests).
        #[test]
        fn truncated_binary_frames_rejected(cut_seed in any::<u64>()) {
            for msg in every_signal_variant() {
                let frame = encode_signal(&msg);
                let cut = 1 + (cut_seed as usize % (frame.len() - 1));
                prop_assert_eq!(decode_signal(&frame[..cut]), None, "signal cut at {}", cut);
                prop_assert!(decode_join_view(&frame[..cut]).is_none(), "join view cut at {}", cut);
            }
            let mut table = InternTable::new();
            table.intern("v.m3u8");
            for msg in every_p2p_variant() {
                let frame = encode_p2p(&msg, &table);
                if frame.len() < 2 { continue; }
                let cut = 1 + (cut_seed as usize % (frame.len() - 1));
                prop_assert_eq!(decode_p2p(&frame.slice(..cut), &table), None, "p2p cut at {}", cut);
            }
        }

        /// Fuzz: arbitrary garbage and bit-flipped frames never panic any
        /// decoder (a flip may still decode to a *different valid* message;
        /// totality is the property, not tamper-evidence — DTLS provides
        /// that one layer down).
        #[test]
        fn decoders_total_under_bitflips(
            garbage in proptest::collection::vec(any::<u8>(), 0..512),
            flip_byte in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let _ = decode_signal(&garbage);
            let _ = SignalMsg::decode(&garbage);
            let _ = decode_p2p_view(&Bytes::from(garbage.clone()));
            let _ = P2pMsg::decode(&Bytes::from(garbage.clone()));
            for msg in every_p2p_variant() {
                let frame = encode_p2p(&msg, &InternTable::EMPTY);
                let mut bent = frame.to_vec();
                let i = flip_byte % bent.len();
                bent[i] ^= 1 << flip_bit;
                let bent = Bytes::from(bent);
                let _ = decode_p2p_view(&bent);
                let _ = P2pMsg::decode(&bent);
            }
            for msg in every_signal_variant() {
                let frame = encode_signal(&msg);
                let mut bent = frame.to_vec();
                let i = flip_byte % bent.len();
                bent[i] ^= 1 << flip_bit;
                let _ = SignalMsg::decode(&bent);
                join_decoders_agree(&bent)?;
            }
        }

        /// The tracker admits only frames the borrowed join decoder
        /// accepts; that loses no join the owned decoder would read, over
        /// garbage, bit-flipped and truncated joins, and a join header
        /// followed by garbage.
        #[test]
        fn join_view_accepts_exactly_the_decodable_joins(
            garbage in proptest::collection::vec(any::<u8>(), 0..256),
            flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
            cut in any::<usize>(),
            nc in 0usize..5,
            creds in 0u8..4,
        ) {
            let join = encode_signal(&SignalMsg::Join {
                api_key: (creds & 1 == 1).then(|| "key".into()),
                token: (creds & 2 == 2).then(|| "tok".into()),
                origin: "site.tv".into(),
                video: "v.m3u8".into(),
                manifest_hash: "abcd".into(),
                sdp: sdp(nc),
            });
            join_decoders_agree(&join)?;
            join_decoders_agree(&garbage)?;
            let mut bent = join.to_vec();
            for &(byte, bit) in &flips {
                let i = byte % bent.len();
                bent[i] ^= 1 << bit;
            }
            join_decoders_agree(&bent)?;
            join_decoders_agree(&join[..cut % (join.len() + 1)])?;
            let header = TLS_MARKER.len() + 2;
            join_decoders_agree(&[&join[..header], &garbage[..]].concat())?;
        }
    }
}
