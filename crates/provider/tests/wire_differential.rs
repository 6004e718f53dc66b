//! Differential tests: the binary codec agrees message-for-message with
//! the retired JSON signaling and fixed-width P2P codecs, kept as test
//! oracles in `pdn_oracle::json_baseline`, and the P2P frames the SDK
//! encodes stay byte-identical to known answers. The owned P2P message
//! and its whole-frame codec are the oracle's (`pdn_oracle::p2p`); they
//! wrap the production borrowed encoder and view decoder.

mod common;

use bytes::Bytes;
use common::{every_p2p_variant, every_signal_variant, sdp, VIDEO};
use pdn_media::VideoId;
use pdn_oracle::json_baseline;
use pdn_oracle::p2p::{decode_p2p, encode_p2p, P2pMsg};
use pdn_provider::wire::{decode_p2p_view, decode_signal, encode_signal, P2pView, StrRef};
use pdn_provider::SignalMsg;
use pdn_simnet::wire::put_uvarint;
use proptest::prelude::*;

/// A channel watching some other video: every id in the fixtures encodes
/// inline on it.
const FOREIGN: &str = "other.m3u8";

fn hex(frame: &[u8]) -> String {
    frame.iter().map(|b| format!("{b:02x}")).collect()
}

/// The video field of a decoded P2P frame.
fn video_field(frame: &Bytes) -> Option<StrRef<'_>> {
    Some(match decode_p2p_view(frame)? {
        P2pView::Have { video, .. }
        | P2pView::RequestSegment { video, .. }
        | P2pView::SegmentData { video, .. } => video,
    })
}

#[test]
fn binary_and_json_agree_on_every_signal_variant() {
    for msg in every_signal_variant() {
        let bin = decode_signal(&encode_signal(&msg));
        let json = json_baseline::decode_signal(&json_baseline::encode_signal(&msg));
        assert_eq!(bin, json, "codecs disagree on {msg:?}");
        assert_eq!(bin, Some(msg));
    }
}

#[test]
fn binary_and_legacy_agree_on_every_p2p_variant() {
    for msg in every_p2p_variant() {
        for channel_video in [VIDEO, FOREIGN] {
            let bin = decode_p2p(&encode_p2p(&msg, channel_video), channel_video);
            let legacy = json_baseline::decode_p2p(&json_baseline::encode_p2p(&msg));
            assert_eq!(bin, legacy, "codecs disagree on {msg:?}");
            assert_eq!(bin, Some(msg.clone()));
        }
    }
}

/// Frames of every fixture variant, in `every_p2p_variant` order, as the
/// intern-table codec encoded them before the one-slot rule replaced it:
/// on the channel of their own video (one slot byte) and on a channel of
/// another video (the id inline).
const OWN_VIDEO_FRAMES: [&str; 4] = [
    "c10101010500017f8001808080808020",
    "c10201002a",
    concat!(
        "c103010309a01f01",
        "0101010101010101010101010101010101010101010101010101010101010101",
        "0202020202020202020202020202020202020202020202020202020202020202",
        "0e477365676d656e742d6279746573",
    ),
    "c10301000aa01f0000",
];
const FOREIGN_VIDEO_FRAMES: [&str; 4] = [
    "c1010006762e6d337538010500017f8001808080808020",
    "c1020006762e6d337538002a",
    concat!(
        "c1030006762e6d3375380309a01f01",
        "0101010101010101010101010101010101010101010101010101010101010101",
        "0202020202020202020202020202020202020202020202020202020202020202",
        "0e477365676d656e742d6279746573",
    ),
    "c1030006762e6d337538000aa01f0000",
];

#[test]
fn p2p_frames_match_known_answers() {
    for (channel_video, known) in [(VIDEO, OWN_VIDEO_FRAMES), (FOREIGN, FOREIGN_VIDEO_FRAMES)] {
        for (msg, want) in every_p2p_variant().into_iter().zip(known) {
            let frame = encode_p2p(&msg, channel_video);
            assert_eq!(hex(&frame), want, "{msg:?} on {channel_video}");
            assert_eq!(decode_p2p(&frame, channel_video), Some(msg));
        }
    }
}

#[test]
fn p2p_roundtrips() {
    let msgs = [
        P2pMsg::Have {
            video: VideoId::new("v"),
            rendition: 0,
            seqs: vec![1, 2, 3],
        },
        P2pMsg::RequestSegment {
            video: VideoId::new("v"),
            rendition: 0,
            seq: 9,
        },
        P2pMsg::SegmentData {
            video: VideoId::new("v"),
            rendition: 0,
            seq: 9,
            duration_ms: 4000,
            data: Bytes::from_static(b"\x47data"),
            sim: None,
        },
        P2pMsg::SegmentData {
            video: VideoId::new("v"),
            rendition: 0,
            seq: 9,
            duration_ms: 4000,
            data: Bytes::from_static(b"\x47data"),
            sim: Some(([1u8; 32], [2u8; 32])),
        },
    ];
    for m in msgs {
        assert_eq!(decode_p2p(&encode_p2p(&m, FOREIGN), FOREIGN), Some(m));
    }
}

#[test]
fn truncated_p2p_frames_rejected() {
    let m = P2pMsg::SegmentData {
        video: VideoId::new("v"),
        rendition: 0,
        seq: 9,
        duration_ms: 4000,
        data: Bytes::from_static(b"payload-bytes"),
        sim: None,
    };
    let enc = encode_p2p(&m, FOREIGN);
    for cut in [1, 5, 10, enc.len() - 1] {
        assert!(
            decode_p2p(&enc.slice(..cut), FOREIGN).is_none(),
            "cut at {cut}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Differential: binary and JSON stacks agree on arbitrary
    /// signaling messages (strings, ids, candidate lists).
    #[test]
    fn signal_differential(
        origin in "[a-z.]{1,20}",
        video in "[a-zA-Z0-9:/._-]{1,40}",
        peer_id in any::<u64>(),
        up in any::<u64>(),
        down in any::<u64>(),
        nc in 0usize..5,
    ) {
        let msgs = [
            SignalMsg::Join {
                api_key: None,
                token: Some(origin.clone()),
                origin,
                video: video.clone(),
                manifest_hash: "h".into(),
                sdp: sdp(nc),
            },
            SignalMsg::JoinOk { peer_id, neighbors: vec![(peer_id ^ 1, sdp(nc))] },
            SignalMsg::StatsReport { p2p_up_bytes: up, p2p_down_bytes: down },
            SignalMsg::ImReport { video, rendition: (nc % 256) as u8, seq: down, im: "cc".repeat(32) },
        ];
        for msg in msgs {
            let bin = decode_signal(&encode_signal(&msg));
            let json = json_baseline::decode_signal(&json_baseline::encode_signal(&msg));
            prop_assert_eq!(bin.clone(), json);
            prop_assert_eq!(bin, Some(msg));
        }
    }

    /// Differential: binary and legacy stacks agree on arbitrary P2P
    /// messages, on a channel of their own video and of another.
    #[test]
    fn p2p_differential(
        video in "[a-zA-Z0-9:/._-]{1,40}",
        rendition in any::<u8>(),
        seqs in proptest::collection::vec(any::<u64>(), 0..64),
        seq in any::<u64>(),
        duration_ms in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        with_sim in any::<bool>(),
    ) {
        let foreign = format!("not {video}");
        let vid = VideoId::new(video);
        let msgs = [
            P2pMsg::Have { video: vid.clone(), rendition, seqs },
            P2pMsg::RequestSegment { video: vid.clone(), rendition, seq },
            P2pMsg::SegmentData {
                video: vid.clone(), rendition, seq, duration_ms,
                data: Bytes::from(data),
                sim: with_sim.then_some(([3u8; 32], [4u8; 32])),
            },
        ];
        for msg in msgs {
            let legacy = json_baseline::decode_p2p(&json_baseline::encode_p2p(&msg));
            let inline = decode_p2p(&encode_p2p(&msg, &foreign), &foreign);
            let own = decode_p2p(&encode_p2p(&msg, &vid.0), &vid.0);
            prop_assert_eq!(legacy, Some(msg.clone()));
            prop_assert_eq!(inline, Some(msg.clone()));
            prop_assert_eq!(own, Some(msg));
        }
    }

    /// A frame from a peer names the receiver's video only by slot 0 or by
    /// its id inline: any other slot, and any other inline id, is never
    /// accepted as it (the SDK drops such a HAVE, REQUEST or segment).
    #[test]
    fn foreign_video_fields_never_match_the_channel(
        own in "[a-zA-Z0-9:/._-]{1,40}",
        other in "[a-zA-Z0-9:/._-]{0,40}",
        slot in 1u64..=u64::from(u16::MAX),
        variant in 0usize..4,
    ) {
        let msg = &every_p2p_variant()[variant];
        // Slot n >= 1: the own-video frame with its one slot byte swapped
        // for discriminant n + 1.
        let frame = encode_p2p(msg, VIDEO);
        prop_assert_eq!(frame[2], 1);
        let mut slotted = frame[..2].to_vec();
        put_uvarint(&mut slotted, slot + 1);
        slotted.extend_from_slice(&frame[3..]);
        let slotted = Bytes::from(slotted);
        prop_assert_eq!(video_field(&slotted), Some(StrRef::Slot(slot as u16)));
        prop_assert!(!StrRef::Slot(slot as u16).matches(&own));
        prop_assert_eq!(decode_p2p(&slotted, &own), None);

        // A foreign id inline.
        prop_assume!(other != own);
        let foreign = match msg.clone() {
            P2pMsg::Have { rendition, seqs, .. } =>
                P2pMsg::Have { video: VideoId::new(&other), rendition, seqs },
            P2pMsg::RequestSegment { rendition, seq, .. } =>
                P2pMsg::RequestSegment { video: VideoId::new(&other), rendition, seq },
            P2pMsg::SegmentData { rendition, seq, duration_ms, data, sim, .. } =>
                P2pMsg::SegmentData { video: VideoId::new(&other), rendition, seq, duration_ms, data, sim },
        };
        let frame = encode_p2p(&foreign, &own);
        let field = video_field(&frame);
        prop_assert_eq!(field, Some(StrRef::Inline(other.as_str())));
        prop_assert!(!field.unwrap().matches(&own));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn p2p_roundtrip(
        video in "[a-zA-Z0-9:/._-]{1,60}",
        rendition in any::<u8>(),
        seqs in proptest::collection::vec(any::<u64>(), 0..200),
        with_sim in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let vid = VideoId::new(video);
        let have = P2pMsg::Have { video: vid.clone(), rendition, seqs };
        prop_assert_eq!(decode_p2p(&encode_p2p(&have, FOREIGN), FOREIGN), Some(have));
        let seg = P2pMsg::SegmentData {
            video: vid, rendition, seq: 9, duration_ms: 4000,
            data: Bytes::from(data),
            sim: with_sim.then_some(([1u8; 32], [2u8; 32])),
        };
        prop_assert_eq!(decode_p2p(&encode_p2p(&seg, FOREIGN), FOREIGN), Some(seg));
    }
}
