//! # pdn-media
//!
//! The HTTP-adaptive-streaming substrate of the `stealthy-peers` framework:
//! video sources with deterministic segment content, an M3U8 manifest codec
//! (HLS subset), a CDN (origin + LRU edge cache + egress billing), and a
//! player model with buffer/stall/QoE accounting.
//!
//! The paper's testbed (§IV-A) is a Wowza origin fronted by CloudFront,
//! serving HLS to browser players; every experiment in §IV exercises those
//! pieces. This crate rebuilds them so that pollution, free-riding and
//! offload economics operate on real manifests, segments and bills.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use pdn_media::{Cdn, OriginServer, VideoSource, SegmentId, VideoId};
//!
//! let mut origin = OriginServer::new();
//! origin.publish(VideoSource::vod("demo.m3u8", vec![1_000_000], Duration::from_secs(10), 6));
//! let mut cdn = Cdn::new(origin, 64 << 20);
//!
//! let seg = cdn.serve_segment(&SegmentId {
//!     video: VideoId::new("demo.m3u8"),
//!     rendition: 0,
//!     seq: 0,
//! }).expect("published segment");
//! assert_eq!(seg.data[0], 0x47); // MPEG-TS sync byte
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdn;
mod digest;
mod manifest;
mod player;
mod source;

pub use cdn::{Cdn, CdnBill, EdgeCache, FrameHeader, OriginServer};
pub use digest::{compute_im, content_fingerprint, DigestCounts, DigestStats, SegmentDigests};
pub use manifest::{ManifestEntry, MasterPlaylist, MediaPlaylist, ParseManifestError};
pub use player::{DeliverySource, PlaybackRecord, Player, StallEvent};
pub use source::{Segment, SegmentId, VideoId, VideoSource};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Manifest encode/parse is lossless for arbitrary windows.
        #[test]
        fn media_playlist_roundtrip(
            from in 0u64..500,
            len in 0u64..50,
            dur in 1u64..30,
            live in any::<bool>(),
        ) {
            let total = from + len;
            let src = if live {
                VideoSource::live("ch", vec![1_000_000], Duration::from_secs(dur))
            } else {
                VideoSource::vod("ch", vec![1_000_000], Duration::from_secs(dur), total.max(1))
            };
            let m = MediaPlaylist::for_source(&src, 0, from, total);
            let back = MediaPlaylist::parse(&m.encode()).unwrap();
            prop_assert_eq!(back, m);
        }

        /// Segment generation is pure: same id, same bytes; and segment size
        /// is consistent with the declared bitrate.
        #[test]
        fn segment_determinism_and_size(
            bitrate in 100_000u64..2_000_000,
            dur in 1u64..8,
            seq in 0u64..100,
        ) {
            let s1 = VideoSource::vod("v", vec![bitrate], Duration::from_secs(dur), 100);
            let s2 = VideoSource::vod("v", vec![bitrate], Duration::from_secs(dur), 100);
            let a = s1.segment(0, seq).unwrap();
            let b = s2.segment(0, seq).unwrap();
            prop_assert_eq!(&a, &b);
            let expect = ((bitrate * dur / 8) as usize).div_ceil(188) * 188;
            prop_assert!((a.len() as i64 - expect as i64).abs() <= 188);
        }

        /// The edge cache never exceeds its byte capacity and always returns
        /// exactly the segment that was stored.
        #[test]
        fn edge_cache_capacity_invariant(
            ops in proptest::collection::vec((0u64..30, any::<bool>()), 1..120),
            cap_segments in 1usize..6,
        ) {
            let src = VideoSource::vod("v", vec![200_000], Duration::from_secs(2), 30);
            let seg_size = src.segment_size(0);
            let mut cache = EdgeCache::new(seg_size * cap_segments);
            for (seq, is_put) in ops {
                if is_put {
                    cache.put(src.segment(0, seq).unwrap());
                } else if let Some(seg) = cache.get(&SegmentId {
                    video: VideoId::new("v"),
                    rendition: 0,
                    seq,
                }) {
                    prop_assert_eq!(Some(seg), src.segment(0, seq));
                }
                prop_assert!(cache.used_bytes() <= seg_size * cap_segments);
            }
        }

        /// Players never play out of order, never play a sequence twice, and
        /// always play a contiguous prefix.
        #[test]
        fn player_order_invariant(arrivals in proptest::collection::vec((0u64..20, 0u64..40), 1..40)) {
            use pdn_simnet::SimTime;
            let src = VideoSource::vod("v", vec![100_000], Duration::from_secs(4), 20);
            let mut p = Player::new(0);
            let mut d = SegmentDigests::new();
            let mut sorted = arrivals.clone();
            sorted.sort_by_key(|(_, t)| *t);
            for (seq, t) in sorted {
                let seg = src.segment(0, seq).unwrap();
                p.deliver(SimTime::from_secs(t), seg, DeliverySource::Cdn, &mut d);
            }
            p.tick(SimTime::from_secs(1000), &mut d);
            let seqs: Vec<u64> = p.played().iter().map(|r| r.id.seq).collect();
            let expect: Vec<u64> = (0..seqs.len() as u64).collect();
            prop_assert_eq!(seqs, expect, "contiguous in-order playback");
        }
    }
}
