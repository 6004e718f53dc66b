//! The production decoders are binary-only: a frame in the retired JSON
//! signaling or fixed-width P2P format (produced here by the
//! `pdn_oracle::json_baseline` encoders) must decode to nothing on every
//! production entry point, and the service inbox must treat it as greeter
//! junk rather than as membership, integrity or gossip traffic.

mod common;

use bytes::Bytes;
use common::{every_p2p_variant, every_signal_variant, sdp};
use pdn_media::VideoId;
use pdn_oracle::json_baseline;
use pdn_oracle::p2p::P2pMsg;
use pdn_provider::service::MsgClass;
use pdn_provider::wire::{decode_join_view, decode_p2p_view};
use pdn_provider::SignalMsg;
use proptest::prelude::*;

/// Why `frame` is not rejected by every production decoder, if it is not.
fn accepted_by_production(frame: &Bytes) -> Option<&'static str> {
    if SignalMsg::decode(frame).is_some() {
        return Some("SignalMsg::decode");
    }
    if decode_p2p_view(frame).is_some() {
        return Some("decode_p2p_view");
    }
    if decode_join_view(frame).is_some() {
        return Some("decode_join_view");
    }
    if MsgClass::of_frame(frame) != MsgClass::Greeter {
        return Some("MsgClass::of_frame");
    }
    None
}

/// Encodes every message in both retired formats' oracle encoders and
/// checks the oracle still reads its own frame back (so the frame really
/// is a well-formed retired frame) while production rejects it.
fn check(signals: &[SignalMsg], p2p: &[P2pMsg]) -> Result<(), TestCaseError> {
    for msg in signals {
        let frame = json_baseline::encode_signal(msg);
        prop_assert_eq!(json_baseline::decode_signal(&frame), Some(msg.clone()));
        prop_assert_eq!(accepted_by_production(&frame), None, "JSON {:?}", msg);
    }
    for msg in p2p {
        let frame = json_baseline::encode_p2p(msg);
        prop_assert_eq!(json_baseline::decode_p2p(&frame), Some(msg.clone()));
        prop_assert_eq!(accepted_by_production(&frame), None, "legacy {:?}", msg);
    }
    Ok(())
}

#[test]
fn fixture_variants_in_retired_formats_are_rejected() {
    check(&every_signal_variant(), &every_p2p_variant()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_variant_in_retired_formats_is_rejected(
        text in "[a-zA-Z0-9:/._-]{0,40}",
        id in any::<u64>(),
        small in any::<u8>(),
        nc in 0usize..4,
        seqs in proptest::collection::vec(any::<u64>(), 0..32),
        duration_ms in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
        with_sim in any::<bool>(),
    ) {
        let signals = [
            SignalMsg::Join {
                api_key: with_sim.then(|| text.clone()),
                token: (!with_sim).then(|| text.clone()),
                origin: text.clone(),
                video: text.clone(),
                manifest_hash: text.clone(),
                sdp: sdp(nc),
            },
            SignalMsg::JoinOk { peer_id: id, neighbors: vec![(id ^ 1, sdp(nc)); nc] },
            SignalMsg::JoinDenied { reason: text.clone() },
            SignalMsg::PeerJoined { peer_id: id, sdp: sdp(nc) },
            SignalMsg::StatsReport { p2p_up_bytes: id, p2p_down_bytes: !id },
            SignalMsg::ImReport {
                video: text.clone(), rendition: small, seq: id, im: text.clone(),
            },
            SignalMsg::SimBroadcast {
                video: text.clone(), rendition: small, seq: id,
                im: text.clone(), sig: text.clone(),
            },
            SignalMsg::Blacklisted { reason: text.clone() },
            SignalMsg::Leave,
        ];
        let video = VideoId::new(text);
        let p2p = [
            P2pMsg::Have { video: video.clone(), rendition: small, seqs },
            P2pMsg::RequestSegment { video: video.clone(), rendition: small, seq: id },
            P2pMsg::SegmentData {
                video, rendition: small, seq: id, duration_ms,
                data: Bytes::from(data),
                sim: with_sim.then_some(([small; 32], [!small; 32])),
            },
        ];
        check(&signals, &p2p)?;
    }
}
