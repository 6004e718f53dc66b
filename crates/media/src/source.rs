//! Video sources and segments.
//!
//! HTTP adaptive streaming (HLS/DASH, §II of the paper) splits a video into
//! small TS segments at several bitrates, tracked by a manifest. This module
//! models the content itself: a [`VideoSource`] deterministically generates
//! the bytes of every [`Segment`], so any two simulated hosts (origin CDN,
//! fake CDN, peers) agree on what the *authentic* content is — which is what
//! makes pollution detectable.

use bytes::Bytes;
use std::time::Duration;

use crate::cdn::FrameHeader;

/// Identifier of a video or live channel (the paper composes video IDs from
/// fully-qualified manifest URLs, §V-A).
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct VideoId(pub String);

impl VideoId {
    /// Creates an ID from anything string-like.
    pub fn new(id: impl Into<String>) -> Self {
        VideoId(id.into())
    }
}

impl std::fmt::Display for VideoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for VideoId {
    fn from(s: &str) -> Self {
        VideoId(s.to_string())
    }
}

/// Identifies one segment of one rendition of one video.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct SegmentId {
    /// The video.
    pub video: VideoId,
    /// Index into the bitrate ladder.
    pub rendition: u8,
    /// Media sequence number.
    pub seq: u64,
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/r{}/s{}.ts", self.video, self.rendition, self.seq)
    }
}

/// A video segment: identity plus payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Which segment this is.
    pub id: SegmentId,
    /// Play duration.
    pub duration: Duration,
    /// The media bytes (MPEG-TS-like: 188-byte packets with 0x47 sync).
    pub data: Bytes,
}

impl Segment {
    /// Segment size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the segment carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A video (VOD asset or live channel) with a bitrate ladder.
#[derive(Debug, Clone)]
pub struct VideoSource {
    id: VideoId,
    /// Bits per second of each rendition, ascending.
    ladder: Vec<u64>,
    segment_duration: Duration,
    /// Total segments for VOD; `None` for an endless live channel.
    total_segments: Option<u64>,
    content_seed: u64,
}

impl VideoSource {
    /// Creates a VOD source with `total_segments` segments per rendition.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty, unsorted, or the segment duration is
    /// zero.
    pub fn vod(
        id: impl Into<VideoId>,
        ladder: Vec<u64>,
        segment_duration: Duration,
        total_segments: u64,
    ) -> Self {
        Self::build(id.into(), ladder, segment_duration, Some(total_segments))
    }

    /// Creates an endless live channel.
    pub fn live(id: impl Into<VideoId>, ladder: Vec<u64>, segment_duration: Duration) -> Self {
        Self::build(id.into(), ladder, segment_duration, None)
    }

    fn build(
        id: VideoId,
        ladder: Vec<u64>,
        segment_duration: Duration,
        total_segments: Option<u64>,
    ) -> Self {
        assert!(!ladder.is_empty(), "bitrate ladder must not be empty");
        assert!(
            ladder.windows(2).all(|w| w[0] <= w[1]),
            "bitrate ladder must be ascending"
        );
        assert!(
            !segment_duration.is_zero(),
            "segment duration must be positive"
        );
        // Content seed derives from the ID so all parties generate identical
        // authentic bytes.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in id.0.as_bytes() {
            seed ^= *b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        VideoSource {
            id,
            ladder,
            segment_duration,
            total_segments,
            content_seed: seed,
        }
    }

    /// The video's ID.
    pub fn id(&self) -> &VideoId {
        &self.id
    }

    /// The bitrate ladder (bits per second, ascending).
    pub fn ladder(&self) -> &[u64] {
        &self.ladder
    }

    /// Duration of each segment.
    pub fn segment_duration(&self) -> Duration {
        self.segment_duration
    }

    /// Number of segments for VOD, `None` for live.
    pub fn total_segments(&self) -> Option<u64> {
        self.total_segments
    }

    /// Whether this is a live channel.
    pub fn is_live(&self) -> bool {
        self.total_segments.is_none()
    }

    /// Size in bytes of one segment of `rendition`.
    pub fn segment_size(&self, rendition: u8) -> usize {
        let bps = self.ladder[rendition as usize];
        let raw = (bps as f64 * self.segment_duration.as_secs_f64() / 8.0) as usize;
        // Round up to whole 188-byte TS packets.
        raw.div_ceil(188) * 188
    }

    /// Generates the authentic segment `(rendition, seq)`.
    ///
    /// Returns `None` for out-of-range renditions or past-the-end VOD
    /// sequence numbers.
    pub fn segment(&self, rendition: u8, seq: u64) -> Option<Segment> {
        let bare = |_: &SegmentId, _: Duration, len: usize| Vec::with_capacity(len);
        self.segment_in_frame(rendition, seq, &bare)
            .map(|(segment, _)| segment)
    }

    /// Generates the authentic segment `(rendition, seq)` inside its
    /// response frame: `header` starts the frame, the segment's bytes are
    /// appended behind the header (no zero-fill, no copy), and the
    /// segment's data is a slice of the returned frame.
    ///
    /// Returns `None`, without calling `header`, for out-of-range
    /// renditions or past-the-end VOD sequence numbers.
    pub fn segment_in_frame(
        &self,
        rendition: u8,
        seq: u64,
        header: FrameHeader<'_>,
    ) -> Option<(Segment, Bytes)> {
        if rendition as usize >= self.ladder.len()
            || self.total_segments.is_some_and(|total| seq >= total)
        {
            return None;
        }
        let id = SegmentId {
            video: self.id.clone(),
            rendition,
            seq,
        };
        let mut frame = header(&id, self.segment_duration, self.segment_size(rendition));
        let body = frame.len();
        self.append_segment(rendition, seq, &mut frame);
        let frame = Bytes::from(frame);
        let segment = Segment {
            id,
            duration: self.segment_duration,
            data: frame.slice(body..),
        };
        Some((segment, frame))
    }

    /// The one fill routine: appends segment `(rendition, seq)`'s bytes to
    /// `out`, growing it at most once.
    fn append_segment(&self, rendition: u8, seq: u64, out: &mut Vec<u8>) {
        let size = self.segment_size(rendition);
        let start = out.len();
        out.reserve_exact(size);
        // Counter-mode multiply-xorshift fill: every 8-byte word mixes an
        // independent counter value, so the loop has no carried dependency
        // and generation runs near memory speed. Content only has to be
        // deterministic and well-spread (all parties re-derive it from the
        // same seed so hashes agree); it is not a security boundary.
        let mut ctr =
            self.content_seed ^ (rendition as u64) << 56 ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut word = || {
            ctr = ctr.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = ctr.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ z >> 31).to_le_bytes()
        };
        // Whole 64-byte blocks first: each append then covers eight words,
        // so the per-append capacity check is paid once per block.
        let mut block = [0u8; 64];
        for _ in 0..size / 64 {
            for w in block.chunks_exact_mut(8) {
                w.copy_from_slice(&word());
            }
            out.extend_from_slice(&block);
        }
        for _ in 0..size % 64 / 8 {
            out.extend_from_slice(&word());
        }
        out.extend_from_slice(&word()[..size % 8]);
        for sync in out[start..].iter_mut().step_by(188) {
            *sync = 0x47; // MPEG-TS sync byte
        }
    }

    /// The highest media sequence published by time `elapsed` for a live
    /// channel (or the VOD end).
    pub fn live_edge(&self, elapsed: Duration) -> u64 {
        let seq = (elapsed.as_secs_f64() / self.segment_duration.as_secs_f64()) as u64;
        match self.total_segments {
            Some(total) => seq.min(total),
            None => seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> VideoSource {
        VideoSource::vod(
            "https://cdn.test/video.m3u8",
            vec![1_000_000, 3_000_000],
            Duration::from_secs(10),
            10,
        )
    }

    #[test]
    fn deterministic_content() {
        let a = src().segment(0, 3).unwrap();
        let b = src().segment(0, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_segments_differ() {
        let s = src();
        assert_ne!(s.segment(0, 1).unwrap().data, s.segment(0, 2).unwrap().data);
        assert_ne!(s.segment(0, 1).unwrap().data, s.segment(1, 1).unwrap().data);
    }

    #[test]
    fn size_matches_bitrate() {
        let s = src();
        // 1 Mbps * 10s / 8 = 1.25 MB, rounded to TS packets.
        let seg = s.segment(0, 0).unwrap();
        let expect = 1_250_000usize.div_ceil(188) * 188;
        assert_eq!(seg.len(), expect);
        // Higher rendition is proportionally larger.
        assert!(s.segment(1, 0).unwrap().len() > seg.len() * 2);
    }

    #[test]
    fn ts_sync_bytes_present() {
        let seg = src().segment(0, 0).unwrap();
        for (i, packet) in seg.data.chunks(188).enumerate() {
            assert_eq!(packet[0], 0x47, "packet {i} missing sync byte");
        }
    }

    #[test]
    fn bounds_checked() {
        let s = src();
        assert!(s.segment(2, 0).is_none(), "rendition out of range");
        assert!(s.segment(0, 10).is_none(), "seq past VOD end");
        assert!(s.segment(0, 9).is_some());
    }

    #[test]
    fn live_edge_advances() {
        let live = VideoSource::live("ch", vec![2_000_000], Duration::from_secs(4));
        assert_eq!(live.live_edge(Duration::from_secs(0)), 0);
        assert_eq!(live.live_edge(Duration::from_secs(9)), 2);
        assert!(live.segment(0, 1_000_000).is_some(), "live never ends");
    }

    /// The generated bytes are pinned: every party re-derives them, and
    /// the IMs and fingerprints worlds compare are functions of them, so
    /// these digests must never be re-taken to fit a new generator. The
    /// three sizes leave 40, 36 and 60 bytes after the last whole 64-byte
    /// block, so the block loop, the word loop and the byte tail are all
    /// covered.
    #[test]
    fn content_is_pinned() {
        for (bps, secs, len, sha) in [
            (
                2_400_000,
                10,
                3_000_104,
                "17d5257a35449f9af057340d2e1b1910a85bacd3b03244f5548f3a2db024f6b1",
            ),
            (
                300_000,
                3,
                112_612,
                "4b2c481d0d0583faefe2482da4a1b5be598799e9cdc56305febe9d7dac740911",
            ),
            (
                1_000,
                1,
                188,
                "b2190715d8cab8eedc9ccd33f5cb76fef2a72fce2dd89672bf40194926e9be5d",
            ),
        ] {
            let src = VideoSource::vod(
                "https://cdn.test/v.m3u8",
                vec![bps],
                Duration::from_secs(secs),
                9,
            );
            let seg = src.segment(0, 7).unwrap();
            assert_eq!(seg.len(), len);
            assert_eq!(
                pdn_crypto::hex(&pdn_crypto::sha256::digest(&seg.data)),
                sha,
                "{bps} b/s"
            );
        }
    }

    /// A segment built behind a frame header is the same segment, a slice
    /// of the frame, with the header left in front of it.
    #[test]
    fn segment_in_frame_appends_behind_the_header() {
        let s = src();
        let header = |_: &SegmentId, _: Duration, len: usize| {
            let mut frame = Vec::with_capacity(4 + len);
            frame.extend_from_slice(b"hdr:");
            frame
        };
        for (rendition, seq) in [(0, 0), (1, 4), (0, 9)] {
            let (seg, frame) = s.segment_in_frame(rendition, seq, &header).unwrap();
            let plain = s.segment(rendition, seq).unwrap();
            assert_eq!(seg, plain);
            assert_eq!(&frame[..4], b"hdr:");
            assert_eq!(frame.slice(4..), plain.data);
            assert_eq!(
                seg.data.as_ptr(),
                frame[4..].as_ptr(),
                "a slice of the frame"
            );
        }
        assert!(s.segment_in_frame(2, 0, &header).is_none());
        assert!(s.segment_in_frame(0, 10, &header).is_none());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_ladder_panics() {
        VideoSource::vod("x", vec![2, 1], Duration::from_secs(1), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_ladder_panics() {
        VideoSource::vod("x", vec![], Duration::from_secs(1), 1);
    }
}
