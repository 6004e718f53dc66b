//! The pre-binary wire codecs: `TLS|` + JSON signaling frames and the
//! fixed-width P2P format, exactly as they shipped before the varint codec
//! in `pdn_provider::wire` replaced them.
//!
//! The production decoders reject both formats, so this module carries its
//! own legacy P2P decoder. `pdn-provider`'s `wire_differential` tests hold
//! the binary codec message-for-message equivalent to these, the
//! `retired_formats` tests check that production treats their frames as
//! junk, and `wire_bench` measures the binary codec against them.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_media::VideoId;
use pdn_provider::proto::TLS_MARKER;
use pdn_provider::wire::SIGNAL_BIN_VERSION;
use pdn_provider::SignalMsg;

use crate::p2p::P2pMsg;

/// Encodes a signaling message as `TLS|` + JSON (the old hot path).
pub fn encode_signal(msg: &SignalMsg) -> Bytes {
    let json = serde_json::to_vec(msg).expect("signal messages serialize");
    let mut out = BytesMut::with_capacity(4 + json.len());
    out.put_slice(TLS_MARKER);
    out.put_slice(&json);
    out.freeze()
}

/// Decodes a `TLS|` + JSON signaling frame only (binary frames return
/// `None`).
pub fn decode_signal(frame: &[u8]) -> Option<SignalMsg> {
    let body = frame.strip_prefix(TLS_MARKER.as_slice())?;
    if body.first() == Some(&SIGNAL_BIN_VERSION) {
        return None;
    }
    serde_json::from_slice(body).ok()
}

/// Encodes a P2P message in the legacy fixed-width format.
pub fn encode_p2p(msg: &P2pMsg) -> Bytes {
    let mut out = BytesMut::new();
    fn put_str(out: &mut BytesMut, s: &str) {
        out.put_u16(s.len() as u16);
        out.put_slice(s.as_bytes());
    }
    match msg {
        P2pMsg::Have {
            video,
            rendition,
            seqs,
        } => {
            out.put_u8(1);
            put_str(&mut out, &video.0);
            out.put_u8(*rendition);
            out.put_u32(seqs.len() as u32);
            for s in seqs {
                out.put_u64(*s);
            }
        }
        P2pMsg::RequestSegment {
            video,
            rendition,
            seq,
        } => {
            out.put_u8(2);
            put_str(&mut out, &video.0);
            out.put_u8(*rendition);
            out.put_u64(*seq);
        }
        P2pMsg::SegmentData {
            video,
            rendition,
            seq,
            duration_ms,
            data,
            sim,
        } => {
            out.put_u8(3);
            put_str(&mut out, &video.0);
            out.put_u8(*rendition);
            out.put_u64(*seq);
            out.put_u32(*duration_ms);
            match sim {
                Some((im, sig)) => {
                    out.put_u8(1);
                    out.put_slice(im);
                    out.put_slice(sig);
                }
                None => out.put_u8(0),
            }
            out.put_u32(data.len() as u32);
            out.put_slice(data);
        }
    }
    out.freeze()
}

/// Decodes a legacy fixed-width P2P frame; the segment payload is a
/// zero-copy slice of `frame`. `None` on any malformation.
pub fn decode_p2p(frame: &Bytes) -> Option<P2pMsg> {
    let mut r = Reader {
        data: frame,
        off: 0,
    };
    let tag = r.array::<1>()?[0];
    let video = VideoId::new(r.str()?);
    let rendition = r.array::<1>()?[0];
    match tag {
        1 => {
            let n = u32::from_be_bytes(r.array()?) as usize;
            let mut seqs = Vec::with_capacity(n.min(r.remaining() / 8));
            for _ in 0..n {
                seqs.push(u64::from_be_bytes(r.array()?));
            }
            Some(P2pMsg::Have {
                video,
                rendition,
                seqs,
            })
        }
        2 => Some(P2pMsg::RequestSegment {
            video,
            rendition,
            seq: u64::from_be_bytes(r.array()?),
        }),
        3 => {
            let seq = u64::from_be_bytes(r.array()?);
            let duration_ms = u32::from_be_bytes(r.array()?);
            let sim = match r.array::<1>()?[0] {
                1 => Some((r.array()?, r.array()?)),
                0 => None,
                _ => return None,
            };
            let len = u32::from_be_bytes(r.array()?) as usize;
            let end = r.off.checked_add(len)?;
            if end > frame.len() {
                return None;
            }
            Some(P2pMsg::SegmentData {
                video,
                rendition,
                seq,
                duration_ms,
                data: frame.slice(r.off..end),
                sim,
            })
        }
        _ => None,
    }
}

/// Bounds-checked big-endian cursor over a legacy frame.
struct Reader<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.off
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.off.checked_add(N)?;
        let out = self.data.get(self.off..end)?.try_into().ok()?;
        self.off = end;
        Some(out)
    }

    /// A u16-length-prefixed UTF-8 string.
    fn str(&mut self) -> Option<&'a str> {
        let len = usize::from(u16::from_be_bytes(self.array()?));
        let end = self.off.checked_add(len)?;
        let s = std::str::from_utf8(self.data.get(self.off..end)?).ok()?;
        self.off = end;
        Some(s)
    }
}
