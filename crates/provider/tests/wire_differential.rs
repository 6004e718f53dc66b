//! Differential tests: the binary codec agrees message-for-message with
//! the retired JSON signaling and fixed-width P2P codecs, kept as test
//! oracles in `pdn_oracle::json_baseline`.

mod common;

use bytes::Bytes;
use common::{every_p2p_variant, every_signal_variant, sdp};
use pdn_media::VideoId;
use pdn_oracle::json_baseline;
use pdn_provider::wire::{decode_p2p, decode_signal, encode_p2p, encode_signal, InternTable};
use pdn_provider::{P2pMsg, SignalMsg};
use proptest::prelude::*;

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
    let mut table = InternTable::new();
    table.intern("v.m3u8");
    for msg in every_p2p_variant() {
        for t in [&InternTable::EMPTY, &table] {
            let bin = decode_p2p(&encode_p2p(&msg, t), t);
            let legacy = json_baseline::decode_p2p(&json_baseline::encode_p2p(&msg));
            assert_eq!(bin, legacy, "codecs disagree on {msg:?}");
            assert_eq!(bin, Some(msg.clone()));
        }
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
    /// messages, with and without the video interned.
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
        let mut table = InternTable::new();
        table.intern(&video);
        let vid = VideoId::new(video);
        let msgs = [
            P2pMsg::Have { video: vid.clone(), rendition, seqs },
            P2pMsg::RequestSegment { video: vid.clone(), rendition, seq },
            P2pMsg::SegmentData {
                video: vid, rendition, seq, duration_ms,
                data: Bytes::from(data),
                sim: with_sim.then_some(([3u8; 32], [4u8; 32])),
            },
        ];
        for msg in msgs {
            let legacy = json_baseline::decode_p2p(&json_baseline::encode_p2p(&msg));
            let inline = decode_p2p(&encode_p2p(&msg, &InternTable::EMPTY), &InternTable::EMPTY);
            let interned = decode_p2p(&encode_p2p(&msg, &table), &table);
            prop_assert_eq!(legacy, Some(msg.clone()));
            prop_assert_eq!(inline, Some(msg.clone()));
            prop_assert_eq!(interned, Some(msg));
        }
    }
}
