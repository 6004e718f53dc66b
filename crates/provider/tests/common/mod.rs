//! Message fixtures shared by the wire integration tests.

#![allow(dead_code)]

use bytes::Bytes;
use pdn_media::VideoId;
use pdn_oracle::p2p::P2pMsg;
use pdn_provider::SignalMsg;
use pdn_simnet::Addr;
use pdn_webrtc::{Candidate, CandidateKind, Fingerprint, SessionDescription};

/// A session description with `nc` candidates cycling through every kind.
pub fn sdp(nc: usize) -> SessionDescription {
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

/// One message of every signaling variant.
pub fn every_signal_variant() -> Vec<SignalMsg> {
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

/// The video every fixture P2P message names.
pub const VIDEO: &str = "v.m3u8";

/// One message of every P2P variant (segments with and without SIM), each
/// naming [`VIDEO`].
pub fn every_p2p_variant() -> Vec<P2pMsg> {
    vec![
        P2pMsg::Have {
            video: VideoId::new(VIDEO),
            rendition: 1,
            seqs: vec![0, 1, 127, 128, 1 << 40],
        },
        P2pMsg::RequestSegment {
            video: VideoId::new(VIDEO),
            rendition: 0,
            seq: 42,
        },
        P2pMsg::SegmentData {
            video: VideoId::new(VIDEO),
            rendition: 3,
            seq: 9,
            duration_ms: 4000,
            data: Bytes::from_static(b"\x47segment-bytes"),
            sim: Some(([1u8; 32], [2u8; 32])),
        },
        P2pMsg::SegmentData {
            video: VideoId::new(VIDEO),
            rendition: 0,
            seq: 10,
            duration_ms: 4000,
            data: Bytes::from_static(b""),
            sim: None,
        },
    ]
}
