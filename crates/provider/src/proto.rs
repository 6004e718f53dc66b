//! Wire formats of the PDN system.
//!
//! Three planes, mirroring Figure 1 of the paper:
//!
//! 1. **Signaling** (peer ↔ PDN server): messages inside a TLS-marked
//!    envelope. A passive capture sees only that TLS flows to the PDN
//!    server; the analyzer's MITM proxy (peer-side tap with a self-signed
//!    root, per the threat model) reads and rewrites the messages.
//! 2. **HTTP** (peer ↔ CDN): binary request/response frames for manifests
//!    and segments.
//! 3. **P2P** (peer ↔ peer): compact binary messages that travel *inside*
//!    DTLS data-channel records — request/offer/deliver segments, plus the
//!    signed-integrity-metadata extension of the §V-B defense.
//!
//! The signaling and P2P planes encode via the versioned binary codec in
//! [`crate::wire`] (varint-framed, zero-copy decode), which also holds the
//! P2P message forms: the borrowed [`crate::wire::P2pRef`] the SDK sends
//! and the [`crate::wire::P2pView`] it decodes. The decoders accept only
//! that format: the retired JSON / fixed-width formats and the owned P2P
//! message type live on as test oracles outside the production crates.

use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use pdn_media::{SegmentId, VideoId};
use pdn_webrtc::SessionDescription;

use crate::wire;

/// Marker prefix for TLS-protected signaling frames.
pub const TLS_MARKER: &[u8; 4] = b"TLS|";
/// Marker prefix for HTTP frames.
pub const HTTP_MARKER: &[u8; 4] = b"HTP|";

/// Signaling messages (peer ↔ PDN server).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SignalMsg {
    /// Peer requests to join the swarm for `video`.
    Join {
        /// Static API key, if the provider uses one.
        api_key: Option<String>,
        /// Temporary or JWT token, if the provider uses one.
        token: Option<String>,
        /// The `Origin` header of the embedding page (spoofable).
        origin: String,
        /// Video being watched.
        video: String,
        /// Hash of the manifest the peer fetched (hex), for swarm grouping.
        manifest_hash: String,
        /// The peer's session description (candidates = the IP leak).
        sdp: SessionDescription,
    },
    /// Join accepted; the server assigns an ID and introduces neighbors.
    JoinOk {
        /// Server-assigned peer ID.
        peer_id: u64,
        /// Existing swarm members to connect to.
        neighbors: Vec<(u64, SessionDescription)>,
    },
    /// Join rejected.
    JoinDenied {
        /// Human-readable reason.
        reason: String,
    },
    /// Notifies an existing member that a new peer joined.
    PeerJoined {
        /// The new peer's ID.
        peer_id: u64,
        /// Its session description.
        sdp: SessionDescription,
    },
    /// SDK usage report used for billing (§IV-B: providers charge on
    /// reported P2P traffic).
    StatsReport {
        /// Bytes uploaded to peers since the last report.
        p2p_up_bytes: u64,
        /// Bytes downloaded from peers since the last report.
        p2p_down_bytes: u64,
    },
    /// §V-B defense: a reporter peer submits integrity metadata for a
    /// segment it fetched from the CDN.
    ImReport {
        /// Video.
        video: String,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
        /// Hex SHA-256 of (content ‖ video ‖ position).
        im: String,
    },
    /// §V-B defense: the server broadcasts signed integrity metadata.
    SimBroadcast {
        /// Video.
        video: String,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
        /// Hex IM.
        im: String,
        /// Hex HMAC signature by the PDN server.
        sig: String,
    },
    /// The server expelled a peer (fake IM reports, §V-B blacklist).
    Blacklisted {
        /// Reason string.
        reason: String,
    },
    /// Peer leaves the swarm (tab closed / churn).
    Leave,
}

impl SignalMsg {
    /// Encodes into a TLS-marked binary signaling frame.
    pub fn encode(&self) -> Bytes {
        wire::encode_signal(self)
    }

    /// Decodes a TLS-marked binary signaling frame; `None` for anything
    /// else, including the retired JSON format.
    pub fn decode(frame: &[u8]) -> Option<SignalMsg> {
        wire::decode_signal(frame)
    }
}

/// HTTP-plane requests (peer → CDN).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpRequest {
    /// Fetch the master playlist of a video.
    GetMaster {
        /// Video.
        video: VideoId,
    },
    /// Fetch a media playlist window.
    GetPlaylist {
        /// Video.
        video: VideoId,
        /// Rendition.
        rendition: u8,
        /// First sequence (inclusive).
        from: u64,
        /// Last sequence (exclusive).
        to: u64,
    },
    /// Fetch one segment.
    GetSegment {
        /// Video.
        video: VideoId,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
    },
}

/// HTTP-plane responses (CDN → peer).
#[derive(Debug, Clone, PartialEq)]
pub enum HttpResponse {
    /// Playlist text (master or media).
    Playlist {
        /// M3U8 text.
        text: String,
    },
    /// Segment bytes.
    Segment {
        /// Video.
        video: VideoId,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
        /// Play duration in milliseconds.
        duration_ms: u32,
        /// Media payload.
        data: Bytes,
    },
    /// 404.
    NotFound,
}

fn put_str(out: &mut impl BufMut, s: &str) {
    out.put_u16(s.len() as u16);
    out.put_slice(s.as_bytes());
}

fn take_str<'a>(data: &'a [u8], off: &mut usize) -> Option<&'a str> {
    if *off + 2 > data.len() {
        return None;
    }
    let len = u16::from_be_bytes([data[*off], data[*off + 1]]) as usize;
    *off += 2;
    if *off + len > data.len() {
        return None;
    }
    let s = std::str::from_utf8(&data[*off..*off + len]).ok()?;
    *off += len;
    Some(s)
}

fn take_u64(data: &[u8], off: &mut usize) -> Option<u64> {
    if *off + 8 > data.len() {
        return None;
    }
    let v = u64::from_be_bytes(data[*off..*off + 8].try_into().ok()?);
    *off += 8;
    Some(v)
}

fn take_u32(data: &[u8], off: &mut usize) -> Option<u32> {
    if *off + 4 > data.len() {
        return None;
    }
    let v = u32::from_be_bytes(data[*off..*off + 4].try_into().ok()?);
    *off += 4;
    Some(v)
}

fn take_u8(data: &[u8], off: &mut usize) -> Option<u8> {
    let v = *data.get(*off)?;
    *off += 1;
    Some(v)
}

impl HttpRequest {
    /// Encodes into an HTTP-marked frame.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_slice(HTTP_MARKER);
        match self {
            HttpRequest::GetMaster { video } => {
                out.put_u8(1);
                put_str(&mut out, &video.0);
            }
            HttpRequest::GetPlaylist {
                video,
                rendition,
                from,
                to,
            } => {
                out.put_u8(2);
                put_str(&mut out, &video.0);
                out.put_u8(*rendition);
                out.put_u64(*from);
                out.put_u64(*to);
            }
            HttpRequest::GetSegment {
                video,
                rendition,
                seq,
            } => {
                out.put_u8(3);
                put_str(&mut out, &video.0);
                out.put_u8(*rendition);
                out.put_u64(*seq);
            }
        }
        out.freeze()
    }

    /// Decodes an HTTP-marked request frame.
    pub fn decode(frame: &[u8]) -> Option<HttpRequest> {
        let body = frame.strip_prefix(HTTP_MARKER.as_slice())?;
        let mut off = 0usize;
        match take_u8(body, &mut off)? {
            1 => Some(HttpRequest::GetMaster {
                video: VideoId::new(take_str(body, &mut off)?),
            }),
            2 => Some(HttpRequest::GetPlaylist {
                video: VideoId::new(take_str(body, &mut off)?),
                rendition: take_u8(body, &mut off)?,
                from: take_u64(body, &mut off)?,
                to: take_u64(body, &mut off)?,
            }),
            3 => Some(HttpRequest::GetSegment {
                video: VideoId::new(take_str(body, &mut off)?),
                rendition: take_u8(body, &mut off)?,
                seq: take_u64(body, &mut off)?,
            }),
            _ => None,
        }
    }
}

/// Starts a `Segment` response frame: its header, in a buffer with
/// capacity for the `len` body bytes that follow it.
fn segment_frame_header(
    video: &VideoId,
    rendition: u8,
    seq: u64,
    duration_ms: u32,
    len: usize,
) -> Vec<u8> {
    let body = HTTP_MARKER.len() + 1 + 2 + video.0.len() + 1 + 8 + 4 + 4;
    let mut out = Vec::with_capacity(body + len);
    out.put_slice(HTTP_MARKER);
    out.put_u8(102);
    put_str(&mut out, &video.0);
    out.put_u8(rendition);
    out.put_u64(seq);
    out.put_u32(duration_ms);
    out.put_u32(len as u32);
    debug_assert_eq!(out.len(), body);
    out
}

impl HttpResponse {
    /// Encodes into an HTTP-marked frame.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_slice(HTTP_MARKER);
        match self {
            HttpResponse::Playlist { text } => {
                out.put_u8(101);
                out.put_u32(text.len() as u32);
                out.put_slice(text.as_bytes());
            }
            HttpResponse::Segment {
                video,
                rendition,
                seq,
                duration_ms,
                data,
            } => {
                let mut frame =
                    segment_frame_header(video, *rendition, *seq, *duration_ms, data.len());
                frame.extend_from_slice(data);
                return Bytes::from(frame);
            }
            HttpResponse::NotFound => {
                out.put_u8(104);
            }
        }
        out.freeze()
    }

    /// Starts the `Segment` response for segment `id` of `duration` and
    /// `len` bytes: the frame's header, with capacity for the segment bytes
    /// that follow it. This is the [`pdn_media::FrameHeader`] the CDN edge
    /// builds its frames with ([`pdn_media::Cdn::serve_segment_frame`]).
    pub fn segment_header(id: &SegmentId, duration: Duration, len: usize) -> Vec<u8> {
        segment_frame_header(
            &id.video,
            id.rendition,
            id.seq,
            duration.as_millis() as u32,
            len,
        )
    }

    /// Decodes an HTTP-marked response frame. Takes the whole datagram as
    /// [`Bytes`] so a segment body decodes as a zero-copy slice of it.
    pub fn decode(frame: &Bytes) -> Option<HttpResponse> {
        let body = frame.strip_prefix(HTTP_MARKER.as_slice())?;
        let mut off = 0usize;
        match take_u8(body, &mut off)? {
            101 => {
                let len = take_u32(body, &mut off)? as usize;
                if off + len > body.len() {
                    return None;
                }
                let text = std::str::from_utf8(&body[off..off + len]).ok()?.to_owned();
                Some(HttpResponse::Playlist { text })
            }
            102 => {
                let video = VideoId::new(take_str(body, &mut off)?);
                let rendition = take_u8(body, &mut off)?;
                let seq = take_u64(body, &mut off)?;
                let duration_ms = take_u32(body, &mut off)?;
                let len = take_u32(body, &mut off)? as usize;
                if off + len > body.len() {
                    return None;
                }
                // `body` starts at byte 4 of `frame` (after "HTP|").
                Some(HttpResponse::Segment {
                    video,
                    rendition,
                    seq,
                    duration_ms,
                    data: frame.slice(4 + off..4 + off + len),
                })
            }
            104 => Some(HttpResponse::NotFound),
            _ => None,
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn http_request_roundtrip(video in "[a-zA-Z0-9:/._-]{1,60}", rendition in any::<u8>(), seq in any::<u64>()) {
            let r = HttpRequest::GetSegment { video: VideoId::new(video), rendition, seq };
            prop_assert_eq!(HttpRequest::decode(&r.encode()), Some(r));
        }

        #[test]
        fn segment_response_roundtrip(
            video in "[a-zA-Z0-9:/._-]{1,60}",
            rendition in any::<u8>(),
            seq in any::<u64>(),
            duration_ms in any::<u32>(),
            data in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            let r = HttpResponse::Segment {
                video: VideoId::new(video), rendition, seq, duration_ms,
                data: Bytes::from(data),
            };
            prop_assert_eq!(HttpResponse::decode(&r.encode()), Some(r));
        }

        /// Arbitrary byte garbage never panics any decoder.
        #[test]
        fn decoders_are_total(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = SignalMsg::decode(&garbage);
            let _ = HttpRequest::decode(&garbage);
            let frame = Bytes::from(garbage);
            let _ = HttpResponse::decode(&frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_roundtrip_and_marker() {
        let msg = SignalMsg::StatsReport {
            p2p_up_bytes: 123,
            p2p_down_bytes: 456,
        };
        let frame = msg.encode();
        assert!(frame.starts_with(TLS_MARKER));
        assert_eq!(SignalMsg::decode(&frame), Some(msg));
        assert!(SignalMsg::decode(b"not a frame").is_none());
    }

    #[test]
    fn http_request_roundtrips() {
        let reqs = [
            HttpRequest::GetMaster {
                video: VideoId::new("v.m3u8"),
            },
            HttpRequest::GetPlaylist {
                video: VideoId::new("v.m3u8"),
                rendition: 2,
                from: 5,
                to: 10,
            },
            HttpRequest::GetSegment {
                video: VideoId::new("v.m3u8"),
                rendition: 1,
                seq: 42,
            },
        ];
        for r in reqs {
            assert_eq!(HttpRequest::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn http_response_roundtrips() {
        let resps = [
            HttpResponse::Playlist {
                text: "#EXTM3U\n".into(),
            },
            HttpResponse::Segment {
                video: VideoId::new("v"),
                rendition: 0,
                seq: 7,
                duration_ms: 10_000,
                data: Bytes::from_static(b"\x47media"),
            },
            HttpResponse::NotFound,
        ];
        for r in resps {
            assert_eq!(HttpResponse::decode(&r.encode()), Some(r));
        }
    }

    /// The response the edge answers `id` with, built from the origin.
    fn expected_response(cdn: &pdn_media::Cdn, id: &pdn_media::SegmentId) -> HttpResponse {
        let seg = cdn.origin().segment(id).unwrap();
        HttpResponse::Segment {
            video: seg.id.video,
            rendition: seg.id.rendition,
            seq: seg.id.seq,
            duration_ms: seg.duration.as_millis() as u32,
            data: seg.data,
        }
    }

    /// Every frame the CDN edge serves — a segment generated inside a new
    /// frame, a cached clone, a frame rebuilt after eviction, and the
    /// uncached oversize path — is byte-identical to
    /// `HttpResponse::Segment { .. }.encode()` of the origin's segment, and
    /// decodes to a zero-copy slice of itself. Both renditions' segments
    /// (93,812 and 281,436 bytes) are not a multiple of 8 long, so the fill
    /// routine's tail lands in every frame, and the edge's cached segment
    /// is a slice of its frame.
    #[test]
    fn cdn_segment_frames_match_response_encode() {
        use pdn_media::{Cdn, OriginServer, SegmentId, VideoSource};

        let long_id = format!("https://cdn.example/{}/master.m3u8", "x".repeat(3000));
        let cdn_with = |cache_bytes: usize| {
            let mut origin = OriginServer::new();
            for id in ["v", long_id.as_str()] {
                origin.publish(VideoSource::vod(
                    id,
                    vec![300_000, 900_000],
                    Duration::from_millis(2_500),
                    5,
                ));
            }
            Cdn::new(origin, cache_bytes)
        };
        let ids: Vec<SegmentId> = ["v", long_id.as_str()]
            .iter()
            .flat_map(|video| {
                (0..2u8).flat_map(move |rendition| {
                    (0..5).map(move |seq| SegmentId {
                        video: VideoId::new(*video),
                        rendition,
                        seq,
                    })
                })
            })
            .collect();
        let seg_len = |cdn: &Cdn, i: usize| cdn.origin().segment(&ids[i]).unwrap().len();

        let check = |cdn: &mut Cdn, id: &SegmentId| -> Bytes {
            let frame = cdn
                .serve_segment_frame(id, &HttpResponse::segment_header)
                .unwrap();
            let expected = expected_response(cdn, id);
            assert_eq!(frame, expected.encode(), "frame of {id}");
            let decoded = HttpResponse::decode(&frame);
            assert_eq!(decoded.as_ref(), Some(&expected), "decoded frame of {id}");
            let Some(HttpResponse::Segment { data, .. }) = decoded else {
                unreachable!("checked above");
            };
            let offset = data.as_ptr() as usize - frame.as_ptr() as usize;
            assert_eq!(offset + data.len(), frame.len(), "zero-copy body of {id}");
            frame
        };

        // A cache that holds everything: first builds, then cached clones.
        let mut roomy = cdn_with(64 << 20);
        let first: Vec<Bytes> = ids.iter().map(|id| check(&mut roomy, id)).collect();
        for (id, frame) in ids.iter().zip(&first) {
            assert_eq!(check(&mut roomy, id).as_ptr(), frame.as_ptr());
            let cached = roomy.serve_segment(id).unwrap();
            assert_eq!(cached.len() % 8, 4, "{id} ends in a partial word");
            let body = frame.len() - cached.len();
            assert_eq!(
                cached.data.as_ptr(),
                frame[body..].as_ptr(),
                "the edge's copy of {id} is its frame's body"
            );
        }

        // A cache of two high-rendition segments: refills rebuild frames.
        let mut tight = cdn_with(2 * seg_len(&roomy, 5));
        for id in ids.iter().chain(ids.iter().rev()) {
            check(&mut tight, id);
        }

        // A cache smaller than any segment: encoded on every request.
        let mut tiny = cdn_with(seg_len(&roomy, 0) - 1);
        for id in &ids {
            let a = check(&mut tiny, id);
            assert_ne!(a.as_ptr(), check(&mut tiny, id).as_ptr());
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        assert!(HttpRequest::decode(
            &HttpRequest::GetMaster {
                video: VideoId::new("v")
            }
            .encode()[..5]
        )
        .is_none());
    }

    #[test]
    fn signaling_is_opaque_without_marker_knowledge() {
        // A passive sniffer classifies but cannot confuse planes.
        let sig = SignalMsg::StatsReport {
            p2p_up_bytes: 0,
            p2p_down_bytes: 0,
        }
        .encode();
        let http = HttpRequest::GetMaster {
            video: VideoId::new("v"),
        }
        .encode();
        assert!(sig.starts_with(TLS_MARKER));
        assert!(!http.starts_with(TLS_MARKER));
        assert!(HttpRequest::decode(&sig).is_none());
    }
}
