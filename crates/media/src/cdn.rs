//! The CDN substrate: origin server, edge cache, and egress cost accounting.
//!
//! The paper's testbed is a Wowza origin fronted by Amazon CloudFront
//! (§IV-A). PDN economics — the 95% bandwidth-offload claim, the free-riding
//! overcharge, the refetch cost of the IM-conflict defense — all hinge on
//! *who pays for which byte*, so the CDN tracks egress bytes and dollars.
//!
//! Like a real edge, the cache keeps whole response objects, and builds
//! each one in place. On a miss, [`Cdn::serve_segment_frame`] has the
//! caller write the response header only (a [`FrameHeader`], so this crate
//! stays unaware of the wire format); the origin appends the segment's
//! bytes behind it in one exact-size buffer, with no zero-fill and no
//! second copy, and the cached `Segment.data` is a slice of that frame.
//! Every later request sends a refcounted clone of the frame. A segment
//! cached without a frame (by [`Cdn::serve_segment`]) gets one on its
//! first framed request: the header, then one copy of its bytes. Evicting
//! the entry drops the edge's hold on the frame; billing, hit/miss counts
//! and eviction order do not depend on whether a frame was built.

use std::time::Duration;

use bytes::Bytes;
use pdn_simnet::FxHashMap;

use crate::manifest::{MasterPlaylist, MediaPlaylist};
use crate::source::{Segment, SegmentId, VideoId, VideoSource};

/// Stores authoritative video sources (the Wowza role).
#[derive(Debug, Default)]
pub struct OriginServer {
    sources: FxHashMap<VideoId, VideoSource>,
}

impl OriginServer {
    /// Creates an empty origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a video source.
    pub fn publish(&mut self, source: VideoSource) {
        self.sources.insert(source.id().clone(), source);
    }

    /// Looks up a published source.
    pub fn source(&self, video: &VideoId) -> Option<&VideoSource> {
        self.sources.get(video)
    }

    /// Generates the authentic segment for `id`, if published and in range.
    pub fn segment(&self, id: &SegmentId) -> Option<Segment> {
        self.sources.get(&id.video)?.segment(id.rendition, id.seq)
    }
}

/// Starts the response frame of segment `id`, of play time `duration` and
/// `len` bytes: returns a buffer holding the frame's header, with capacity
/// for the `len` segment bytes that follow it.
pub type FrameHeader<'a> = &'a dyn Fn(&SegmentId, Duration, usize) -> Vec<u8>;

/// One cached segment.
#[derive(Debug)]
struct EdgeEntry {
    /// The segment; once `frame` is built, `segment.data` is a slice of it.
    segment: Segment,
    /// The encoded response frame, built on the first frame request.
    frame: Option<Bytes>,
    /// Clock value of the last use (unique, so it alone picks the LRU).
    used: u64,
}

/// Builds the frame of a segment cached without one — its header, then a
/// copy of its bytes — and re-points `segment.data` into it, so the pair
/// holds one buffer.
fn attach_frame(segment: &mut Segment, header: FrameHeader<'_>) -> Bytes {
    let mut frame = header(&segment.id, segment.duration, segment.len());
    let body = frame.len();
    frame.extend_from_slice(&segment.data);
    let frame = Bytes::from(frame);
    segment.data = frame.slice(body..);
    frame
}

/// An LRU edge cache keyed by segment, with byte-capacity eviction.
#[derive(Debug)]
pub struct EdgeCache {
    capacity_bytes: usize,
    used_bytes: usize,
    entries: FxHashMap<SegmentId, EdgeEntry>,
    clock: u64,
    #[cfg(test)]
    hits: u64,
    #[cfg(test)]
    misses: u64,
}

impl EdgeCache {
    /// Creates a cache holding at most `capacity_bytes` of segment data.
    pub fn new(capacity_bytes: usize) -> Self {
        EdgeCache {
            capacity_bytes,
            used_bytes: 0,
            entries: FxHashMap::default(),
            clock: 0,
            #[cfg(test)]
            hits: 0,
            #[cfg(test)]
            misses: 0,
        }
    }

    /// Looks `id` up, refreshing its LRU stamp (and, in tests, counting a
    /// hit or miss).
    fn touch(&mut self, id: &SegmentId) -> Option<&mut EdgeEntry> {
        self.clock += 1;
        let entry = self.entries.get_mut(id);
        #[cfg(test)]
        match entry {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        let entry = entry?;
        entry.used = self.clock;
        Some(entry)
    }

    /// Fetches from cache.
    pub fn get(&mut self, id: &SegmentId) -> Option<Segment> {
        self.touch(id).map(|entry| entry.segment.clone())
    }

    /// Fetches the response frame of a cached segment, recording a hit or
    /// miss. A hit on an entry without a frame builds it once, starting
    /// with `header`. Returns the frame and the segment's length.
    fn get_frame(&mut self, id: &SegmentId, header: FrameHeader<'_>) -> Option<(Bytes, usize)> {
        let entry = self.touch(id)?;
        let frame = entry
            .frame
            .get_or_insert_with(|| attach_frame(&mut entry.segment, header))
            .clone();
        Some((frame, entry.segment.len()))
    }

    /// Inserts a segment, evicting least-recently-used entries as needed.
    ///
    /// Segments larger than the whole cache are not cached.
    pub fn put(&mut self, segment: Segment) {
        self.insert(segment, None);
    }

    /// Caches `segment` as `put` would, with `frame`, its response frame
    /// (of which `segment.data` is a slice).
    fn insert(&mut self, segment: Segment, frame: Option<Bytes>) {
        let size = segment.len();
        if size > self.capacity_bytes {
            return;
        }
        self.clock += 1;
        if let Some(old) = self.entries.remove(&segment.id) {
            self.used_bytes -= old.segment.len();
        }
        while self.used_bytes + size > self.capacity_bytes {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.used)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity implies at least one entry");
            let evicted = self.entries.remove(&lru).expect("lru key exists");
            self.used_bytes -= evicted.segment.len();
        }
        self.used_bytes += size;
        self.entries.insert(
            segment.id.clone(),
            EdgeEntry {
                segment,
                frame,
                used: self.clock,
            },
        );
    }

    /// `(hits, misses)` so far.
    #[cfg(test)]
    fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Bytes currently cached.
    #[cfg(test)]
    pub(crate) fn used_bytes(&self) -> usize {
        self.used_bytes
    }
}

/// Egress accounting of a CDN distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct CdnBill {
    /// Total bytes served to clients.
    pub egress_bytes: u64,
    /// Number of segment requests served.
    pub requests: u64,
    /// Accumulated egress charge in dollars.
    pub cost_usd: f64,
}

/// The CDN facade: origin + edge cache + billing (the CloudFront role).
#[derive(Debug)]
pub struct Cdn {
    origin: OriginServer,
    edge: EdgeCache,
    bill: CdnBill,
}

impl Cdn {
    /// CloudFront-like default egress price.
    pub const DEFAULT_COST_PER_GB: f64 = 0.085;

    /// Creates a CDN over `origin` with an edge cache of `cache_bytes`.
    pub fn new(origin: OriginServer, cache_bytes: usize) -> Self {
        Cdn {
            origin,
            edge: EdgeCache::new(cache_bytes),
            bill: CdnBill::default(),
        }
    }

    /// Read access to the origin.
    pub fn origin(&self) -> &OriginServer {
        &self.origin
    }

    /// Mutable access to the origin (publishing new sources).
    pub fn origin_mut(&mut self) -> &mut OriginServer {
        &mut self.origin
    }

    /// Serves a segment request, billing egress.
    ///
    /// Misses populate the edge cache from the origin.
    pub fn serve_segment(&mut self, id: &SegmentId) -> Option<Segment> {
        let seg = match self.edge.get(id) {
            Some(seg) => seg,
            None => {
                let seg = self.origin.segment(id)?;
                self.edge.put(seg.clone());
                seg
            }
        };
        self.bill_segment(seg.len());
        Some(seg)
    }

    /// Serves a segment request as its response frame, billing egress
    /// exactly as [`Cdn::serve_segment`] does. `header` writes the frame's
    /// header; the segment's bytes follow it.
    ///
    /// A miss generates the segment inside its frame and populates the edge
    /// with both (one buffer); a cached segment's frame is built at most
    /// once and then cloned per request. Only a segment larger than the
    /// whole cache is generated per request.
    pub fn serve_segment_frame(
        &mut self,
        id: &SegmentId,
        header: FrameHeader<'_>,
    ) -> Option<Bytes> {
        let (frame, len) = match self.edge.get_frame(id, header) {
            Some(hit) => hit,
            None => {
                let source = self.origin.source(&id.video)?;
                let (seg, frame) = source.segment_in_frame(id.rendition, id.seq, header)?;
                let len = seg.len();
                self.edge.insert(seg, Some(frame.clone()));
                (frame, len)
            }
        };
        self.bill_segment(len);
        Some(frame)
    }

    fn bill_segment(&mut self, len: usize) {
        self.bill.requests += 1;
        self.bill.egress_bytes += len as u64;
        self.bill.cost_usd += len as f64 / 1e9 * Self::DEFAULT_COST_PER_GB;
    }

    /// Serves the master playlist of `video`.
    pub fn serve_master(&mut self, video: &VideoId) -> Option<String> {
        let src = self.origin.source(video)?;
        let text = MasterPlaylist::for_source(src).encode();
        self.bill.egress_bytes += text.len() as u64;
        Some(text)
    }

    /// Serves a media playlist covering `[from, to)` of `rendition`.
    pub fn serve_playlist(
        &mut self,
        video: &VideoId,
        rendition: u8,
        from: u64,
        to: u64,
    ) -> Option<String> {
        let src = self.origin.source(video)?;
        let text = MediaPlaylist::for_source(src, rendition, from, to).encode();
        self.bill.egress_bytes += text.len() as u64;
        Some(text)
    }

    /// The current bill.
    pub fn bill(&self) -> CdnBill {
        self.bill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cdn() -> Cdn {
        let mut origin = OriginServer::new();
        origin.publish(VideoSource::vod(
            "v",
            vec![800_000],
            Duration::from_secs(4),
            20,
        ));
        Cdn::new(origin, 64 * 1024 * 1024)
    }

    fn sid(seq: u64) -> SegmentId {
        SegmentId {
            video: VideoId::new("v"),
            rendition: 0,
            seq,
        }
    }

    #[test]
    fn serves_authentic_segments() {
        let mut c = cdn();
        let seg = c.serve_segment(&sid(0)).unwrap();
        let authentic = c.origin().source(&VideoId::new("v")).unwrap().segment(0, 0);
        assert_eq!(Some(seg), authentic);
    }

    #[test]
    fn cache_hit_on_second_request() {
        let mut c = cdn();
        c.serve_segment(&sid(0));
        c.serve_segment(&sid(0));
        let (hits, misses) = c.edge.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn billing_accumulates() {
        let mut c = cdn();
        let seg = c.serve_segment(&sid(0)).unwrap();
        c.serve_segment(&sid(1));
        let bill = c.bill();
        assert_eq!(bill.requests, 2);
        assert_eq!(bill.egress_bytes, seg.len() as u64 * 2);
        assert!(bill.cost_usd > 0.0);
    }

    #[test]
    fn unknown_video_is_none() {
        let mut c = cdn();
        assert!(c
            .serve_segment(&SegmentId {
                video: VideoId::new("nope"),
                rendition: 0,
                seq: 0
            })
            .is_none());
        assert!(c.serve_master(&VideoId::new("nope")).is_none());
    }

    #[test]
    fn lru_evicts_oldest() {
        let seg_size = {
            let c = cdn();
            c.origin()
                .source(&VideoId::new("v"))
                .unwrap()
                .segment_size(0)
        };
        let mut origin = OriginServer::new();
        origin.publish(VideoSource::vod(
            "v",
            vec![800_000],
            Duration::from_secs(4),
            20,
        ));
        // Cache fits exactly two segments.
        let mut c = Cdn::new(origin, seg_size * 2);
        c.serve_segment(&sid(0));
        c.serve_segment(&sid(1));
        c.serve_segment(&sid(0)); // touch 0, making 1 the LRU
        c.serve_segment(&sid(2)); // evicts 1
        c.serve_segment(&sid(0)); // still cached
        c.serve_segment(&sid(1)); // miss again
        let (hits, misses) = c.edge.stats();
        assert_eq!(hits, 2, "seq 0 hit twice");
        assert_eq!(misses, 4);
    }

    #[test]
    fn playlists_served_and_parse() {
        let mut c = cdn();
        let master = c.serve_master(&VideoId::new("v")).unwrap();
        assert!(MasterPlaylist::parse(&master).is_ok());
        let media = c.serve_playlist(&VideoId::new("v"), 0, 0, 20).unwrap();
        let parsed = MediaPlaylist::parse(&media).unwrap();
        assert_eq!(parsed.entries.len(), 20);
        assert!(parsed.ended);
    }

    /// A stand-in for the HTTP header: a line naming the segment, its
    /// duration and length, with room for the body.
    fn test_header(id: &SegmentId, duration: Duration, len: usize) -> Vec<u8> {
        let header = format!("hdr:{id}:{}ms:{len}|", duration.as_millis());
        let mut frame = Vec::with_capacity(header.len() + len);
        frame.extend_from_slice(header.as_bytes());
        frame
    }

    /// The frame `test_header` starts for `seg`, built the obvious way.
    fn test_frame(seg: &Segment) -> Bytes {
        let mut frame = test_header(&seg.id, seg.duration, seg.len());
        frame.extend_from_slice(&seg.data);
        Bytes::from(frame)
    }

    /// Whether `inner` is a view into the allocation of `outer`.
    fn points_inside(inner: &Bytes, outer: &Bytes) -> bool {
        let (start, end) = (
            outer.as_ptr() as usize,
            outer.as_ptr() as usize + outer.len(),
        );
        let p = inner.as_ptr() as usize;
        start <= p && p + inner.len() <= end
    }

    fn cached(c: &Cdn, seq: u64) -> &EdgeEntry {
        c.edge.entries.get(&sid(seq)).expect("segment is cached")
    }

    #[test]
    fn repeat_requests_share_one_frame() {
        let mut c = cdn();
        let first = c.serve_segment_frame(&sid(3), &test_header).unwrap();
        let second = c.serve_segment_frame(&sid(3), &test_header).unwrap();
        assert_eq!(first.as_ptr(), second.as_ptr(), "one frame, cloned");
        let authentic = c.origin().segment(&sid(3)).unwrap();
        assert_eq!(first, test_frame(&authentic));
        let entry = cached(&c, 3);
        assert_eq!(entry.frame.as_ref().unwrap().as_ptr(), first.as_ptr());
        assert!(
            points_inside(&entry.segment.data, &first),
            "the cached segment is a slice of its frame, not a second buffer"
        );
        assert_eq!(entry.segment, authentic);
        assert_eq!(c.edge.stats(), (1, 1));
    }

    #[test]
    fn frame_is_built_once_for_a_segment_cached_without_one() {
        let mut c = cdn();
        let seg = c.serve_segment(&sid(0)).unwrap();
        assert!(cached(&c, 0).frame.is_none());
        let first = c.serve_segment_frame(&sid(0), &test_header).unwrap();
        let second = c.serve_segment_frame(&sid(0), &test_header).unwrap();
        assert_eq!(first.as_ptr(), second.as_ptr());
        assert_eq!(first, test_frame(&seg));
        assert!(points_inside(&cached(&c, 0).segment.data, &first));
        // The plain path now hands out the same bytes from the frame.
        let again = c.serve_segment(&sid(0)).unwrap();
        assert_eq!(again, seg);
        assert!(points_inside(&again.data, &first));
        assert_eq!(c.edge.stats(), (3, 1));
    }

    #[test]
    fn evicted_frame_is_rebuilt_on_refill() {
        let seg_size = cdn().origin().segment(&sid(0)).unwrap().len();
        let mut origin = OriginServer::new();
        origin.publish(VideoSource::vod(
            "v",
            vec![800_000],
            Duration::from_secs(4),
            20,
        ));
        let mut c = Cdn::new(origin, seg_size * 2);
        let before = c.serve_segment_frame(&sid(0), &test_header).unwrap();
        c.serve_segment_frame(&sid(1), &test_header);
        c.serve_segment_frame(&sid(2), &test_header); // evicts 0
        assert!(!c.edge.entries.contains_key(&sid(0)));
        let after = c.serve_segment_frame(&sid(0), &test_header).unwrap();
        assert_ne!(
            before.as_ptr(),
            after.as_ptr(),
            "a fresh frame after refill"
        );
        assert_eq!(before, after);
        assert!(points_inside(&cached(&c, 0).segment.data, &after));
        assert_eq!(c.edge.used_bytes(), seg_size * 2);
    }

    #[test]
    fn oversize_segment_is_encoded_per_request_and_never_cached() {
        let seg_size = cdn().origin().segment(&sid(0)).unwrap().len();
        let mut origin = OriginServer::new();
        origin.publish(VideoSource::vod(
            "v",
            vec![800_000],
            Duration::from_secs(4),
            20,
        ));
        let mut c = Cdn::new(origin, seg_size - 1);
        let a = c.serve_segment_frame(&sid(0), &test_header).unwrap();
        let b = c.serve_segment_frame(&sid(0), &test_header).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.as_ptr(), b.as_ptr(), "no shared frame when uncached");
        assert_eq!(c.edge.used_bytes(), 0);
        assert_eq!(c.edge.stats(), (0, 2));
        assert_eq!(c.bill().egress_bytes, seg_size as u64 * 2);
    }

    /// The LRU edge as a recency-ordered list (front = least recent): the
    /// reference the frame cache's accounting is compared against.
    #[derive(Default)]
    struct LruModel {
        order: Vec<SegmentId>,
        used: usize,
        hits: u64,
        misses: u64,
        bill: CdnBill,
    }

    impl LruModel {
        fn serve(&mut self, origin: &OriginServer, cap: usize, id: &SegmentId) -> Option<usize> {
            if let Some(at) = self.order.iter().position(|k| k == id) {
                self.hits += 1;
                let k = self.order.remove(at);
                self.order.push(k);
            } else {
                self.misses += 1;
                let size = origin.segment(id)?.len();
                if size <= cap {
                    while self.used + size > cap {
                        let lru = self.order.remove(0);
                        self.used -= origin.segment(&lru).unwrap().len();
                    }
                    self.used += size;
                    self.order.push(id.clone());
                }
            }
            let len = origin.segment(id).unwrap().len();
            self.bill.requests += 1;
            self.bill.egress_bytes += len as u64;
            self.bill.cost_usd += len as f64 / 1e9 * Cdn::DEFAULT_COST_PER_GB;
            Some(len)
        }
    }

    fn two_rendition_origin() -> OriginServer {
        let mut origin = OriginServer::new();
        origin.publish(VideoSource::vod(
            "v",
            vec![200_000, 500_000],
            Duration::from_secs(2),
            8,
        ));
        origin
    }

    /// A scripted request mix with two segment sizes: the frame path and
    /// the plain path share one bill, hit/miss count, byte count and
    /// eviction order, all equal to the reference LRU.
    #[test]
    fn scripted_requests_keep_bill_stats_and_eviction_order() {
        let small = two_rendition_origin().segment(&sid(0)).unwrap().len();
        let cap = small * 6;
        let mut c = Cdn::new(two_rendition_origin(), cap);
        let mut model = LruModel::default();
        let reference = two_rendition_origin();
        let script: [(u8, u64, bool); 12] = [
            (0, 0, true),
            (0, 1, false),
            (1, 0, true),
            (0, 0, true),
            (0, 2, true),
            (1, 1, false),
            (0, 1, true),
            (0, 0, false),
            (1, 0, true),
            (0, 9, true),
            (0, 3, true),
            (0, 0, true),
        ];
        for (rendition, seq, framed) in script {
            let id = SegmentId {
                video: VideoId::new("v"),
                rendition,
                seq,
            };
            let expect = model.serve(&reference, cap, &id);
            let got = if framed {
                c.serve_segment_frame(&id, &test_header).map(|f| f.len())
            } else {
                c.serve_segment(&id).map(|s| s.len())
            };
            assert_eq!(got.is_some(), expect.is_some());
            assert_eq!(c.bill(), model.bill);
            assert_eq!(c.edge.stats(), (model.hits, model.misses));
            assert_eq!(c.edge.used_bytes(), model.used);
            let mut resident: Vec<_> = c.edge.entries.iter().collect();
            resident.sort_by_key(|(_, e)| e.used);
            let resident: Vec<SegmentId> = resident.into_iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(resident, model.order, "LRU order after {id}");
        }
        assert_eq!(c.edge.stats(), (3, 9));
    }

    mod lru_prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any mix of plain and framed requests over two segment sizes
            /// keeps the reference LRU's accounting, and every frame is the
            /// encoding of the authentic segment.
            #[test]
            fn framed_requests_match_reference_lru(
                ops in proptest::collection::vec((0u8..2, 0u64..10, any::<bool>()), 1..80),
                cap_small in 1usize..8,
            ) {
                let small = two_rendition_origin().segment(&sid(0)).unwrap().len();
                let cap = small * cap_small;
                let mut c = Cdn::new(two_rendition_origin(), cap);
                let mut model = LruModel::default();
                let reference = two_rendition_origin();
                for (rendition, seq, framed) in ops {
                    let id = SegmentId { video: VideoId::new("v"), rendition, seq };
                    let expect = model.serve(&reference, cap, &id);
                    if framed {
                        let frame = c.serve_segment_frame(&id, &test_header);
                        let authentic = reference.segment(&id).map(|s| test_frame(&s));
                        prop_assert_eq!(frame, authentic);
                    } else {
                        prop_assert_eq!(c.serve_segment(&id), reference.segment(&id));
                    }
                    prop_assert_eq!(expect.is_some(), reference.segment(&id).is_some());
                    prop_assert_eq!(c.bill(), model.bill);
                    prop_assert_eq!(c.edge.stats(), (model.hits, model.misses));
                    prop_assert_eq!(c.edge.used_bytes(), model.used);
                    let mut resident: Vec<_> = c.edge.entries.iter().collect();
                    resident.sort_by_key(|(_, e)| e.used);
                    let resident: Vec<SegmentId> =
                        resident.into_iter().map(|(k, _)| k.clone()).collect();
                    prop_assert_eq!(&resident, &model.order);
                }
            }
        }
    }
}
