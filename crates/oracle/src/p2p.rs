//! The owned P2P message and its whole-frame codec: the test reference for
//! the SDK's borrowed one.
//!
//! Production never materialises a P2P message. The SDK encodes borrowed
//! [`P2pRef`]s into a reused scratch and reads [`P2pView`]s borrowed from
//! the record, checking the video field against its own. [`P2pMsg`] and
//! [`encode_p2p`]/[`decode_p2p`] wrap that codec in owned values, so the
//! differential, known-answer and retired-format tests and `wire_bench`
//! can compare frames message for message.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_media::VideoId;
use pdn_provider::wire::{self, P2pRef, P2pView, StrRef};

/// Peer-to-peer messages carried inside DTLS data-channel records.
#[derive(Debug, Clone, PartialEq)]
pub enum P2pMsg {
    /// Advertise possession of segments.
    Have {
        /// Video.
        video: VideoId,
        /// Rendition.
        rendition: u8,
        /// Sequence numbers held.
        seqs: Vec<u64>,
    },
    /// Request one segment.
    RequestSegment {
        /// Video.
        video: VideoId,
        /// Rendition.
        rendition: u8,
        /// Sequence.
        seq: u64,
    },
    /// Deliver one segment, optionally with its signed integrity metadata
    /// (the §V-B defense).
    SegmentData {
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
        /// `(im, server_sig)` if SIM is attached.
        sim: Option<([u8; 32], [u8; 32])>,
    },
}

impl P2pMsg {
    /// The borrowed form the production encoder takes.
    pub fn borrowed(&self) -> P2pRef<'_> {
        match self {
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

/// Appends the whole frame of `msg`, as sent on a channel watching
/// `channel_video`, to `out`: the production header followed by the
/// payload it hands back. Allocation-free once `out` has warmed.
pub fn encode_p2p_into(msg: &P2pRef<'_>, channel_video: &str, out: &mut BytesMut) {
    let tail = wire::encode_p2p_header_into(msg, channel_video, out);
    out.put_slice(tail);
}

/// Encodes `msg` into a fresh frame, as sent on a channel watching
/// `channel_video`: one slot byte for that video, any other inline.
pub fn encode_p2p(msg: &P2pMsg, channel_video: &str) -> Bytes {
    let mut out = BytesMut::with_capacity(32);
    encode_p2p_into(&msg.borrowed(), channel_video, &mut out);
    out.freeze()
}

/// Decodes a frame received on a channel watching `channel_video`: slot 0
/// resolves to that video, any other slot fails. The segment payload stays
/// a zero-copy slice of `frame`.
pub fn decode_p2p(frame: &Bytes, channel_video: &str) -> Option<P2pMsg> {
    let video = |field: StrRef<'_>| match field {
        StrRef::Inline(s) => Some(VideoId::new(s)),
        StrRef::Slot(0) => Some(VideoId::new(channel_video)),
        StrRef::Slot(_) => None,
    };
    match wire::decode_p2p_view(frame)? {
        P2pView::Have {
            video: v,
            rendition,
            seqs,
        } => Some(P2pMsg::Have {
            video: video(v)?,
            rendition,
            seqs: seqs.collect(),
        }),
        P2pView::RequestSegment {
            video: v,
            rendition,
            seq,
        } => Some(P2pMsg::RequestSegment {
            video: video(v)?,
            rendition,
            seq,
        }),
        P2pView::SegmentData {
            video: v,
            rendition,
            seq,
            duration_ms,
            data,
            sim,
        } => Some(P2pMsg::SegmentData {
            video: video(v)?,
            rendition,
            seq,
            duration_ms,
            data,
            sim,
        }),
    }
}
