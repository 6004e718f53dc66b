//! Segment digests: the two pure functions of segment bytes a world
//! computes — §V-B integrity metadata ([`compute_im`]) and the playback
//! fingerprint ([`content_fingerprint`]) — and [`SegmentDigests`], the
//! world-scoped memo that computes each of them once per segment.
//!
//! In a PDN world every CDN-fetching reporter hashes each segment for its
//! IM report and every receiver hashes its P2P copy again to verify it.
//! Most of those inputs are bytes the world has already hashed: the edge
//! cache hands every viewer clones of one frame, and honest peers forward
//! identical copies. The memo answers those repeats from the first result
//! and computes everything else — including any copy whose bytes differ —
//! directly, so every answer equals a direct computation over the same
//! inputs.
//!
//! Who fingerprints: only the players of a world that asked for a
//! playback audit ([`SegmentDigests::audit_playback`]). The §IV-C
//! pollution analysis is the one reader of what a viewer played, so its
//! worlds turn the audit on and every played segment's record carries a
//! fingerprint; in every other world (Table VI, Fig. 4/5, the economics,
//! the ablations) a record's hash is `None` and no played byte is read.

use std::collections::VecDeque;

use bytes::Bytes;
use pdn_simnet::FxHashMap;

use crate::source::{Segment, SegmentId};

/// Computes integrity metadata for a segment: the hash of the tuple
/// (content, video identifier, position) — §V-B's replay-resistant IM.
///
/// Worlds look IMs up through [`SegmentDigests::im`], which calls this
/// once per segment id and distinct bytes.
pub fn compute_im(data: &[u8], video: &str, rendition: u8, seq: u64) -> [u8; 32] {
    let mut h = pdn_crypto::sha256::Sha256::new();
    h.update(data);
    h.update(video.as_bytes());
    h.update(&[rendition]);
    h.update(&seq.to_be_bytes());
    h.finalize()
}

/// A fast 256-bit content fingerprint of segment bytes.
///
/// Pollution analysis only ever compares the fingerprint of *played* bytes
/// against the fingerprint of the *authentic* bytes (both recomputed with
/// this same function), so the analyzer needs collision resistance against
/// accidental and attack-model corruption — not against an adversary
/// targeting the hash itself. Four independent multiply-rotate lanes with a
/// murmur-style finalizer give that at memory-bandwidth speed, where a
/// cryptographic hash per played segment used to dominate the player's
/// tick cost.
///
/// Players look fingerprints up through
/// [`SegmentDigests::fingerprint`], which reuses the first result for
/// clones of the same bytes.
pub fn content_fingerprint(data: &[u8]) -> [u8; 32] {
    const MUL: u64 = 0x2545_f491_4f6c_dd1d;
    let mut lanes: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0x6a09_e667_f3bc_c909,
        0xbb67_ae85_84ca_a73b,
        0x3c6e_f372_fe94_f82b,
    ];
    let absorb = |stripe: &[u8; 32], lanes: &mut [u64; 4]| {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(stripe[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(MUL).rotate_left(27);
        }
    };
    let mut stripes = data.chunks_exact(32);
    for stripe in &mut stripes {
        absorb(stripe.try_into().expect("32-byte stripe"), &mut lanes);
    }
    let rest = stripes.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 32];
        tail[..rest.len()].copy_from_slice(rest);
        absorb(&tail, &mut lanes);
    }
    // Cross-mix the lanes (plus the length, so padding in the tail stripe
    // cannot alias a shorter input) through a murmur-style finalizer.
    let mut acc = (data.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = [0u8; 32];
    for i in 0..4 {
        acc = acc.rotate_left(31) ^ lanes[i];
        let mut x = acc.wrapping_add(lanes[(i + 1) % 4]);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        out[i * 8..i * 8 + 8].copy_from_slice(&x.to_le_bytes());
    }
    out
}

/// How the lookups of one digest kind were answered.
///
/// Every lookup is exactly one of `computed`, `identity_hits` or
/// `equal_hits`; `mismatches` is the subset of `computed` whose bytes
/// differed from the memo's first-seen copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestCounts {
    /// Lookups that ran the digest function.
    pub computed: u64,
    /// Lookups answered because the bytes were the memo's own allocation.
    pub identity_hits: u64,
    /// Lookups answered after a byte-for-byte compare with the memo's copy
    /// (IM only).
    pub equal_hits: u64,
    /// Computed lookups whose bytes differed from the first-seen copy of
    /// the same segment id (IM only: a polluted, truncated or resized
    /// copy).
    pub mismatches: u64,
}

/// Counters of a [`SegmentDigests`] memo, per digest kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestStats {
    /// [`compute_im`] lookups (SHA-256).
    pub im: DigestCounts,
    /// [`content_fingerprint`] lookups.
    pub fingerprint: DigestCounts,
}

/// Most segment ids one memo remembers; the oldest-inserted entry makes
/// room for a new one. A paper world touches at most a few dozen.
pub(crate) const CAPACITY: usize = 128;

#[derive(Debug)]
struct Entry {
    /// The first bytes seen for this id. Holding the clone keeps the
    /// allocation alive, so a later `Bytes` with the same pointer and
    /// length is this same immutable content.
    data: Bytes,
    fingerprint: Option<[u8; 32]>,
    im: Option<[u8; 32]>,
}

impl Entry {
    fn is_same_allocation(&self, data: &Bytes) -> bool {
        self.data.as_ptr() == data.as_ptr() && self.data.len() == data.len()
    }
}

/// A world's memo of segment digests, keyed by [`SegmentId`].
///
/// `(video, rendition, seq)` are exactly the non-byte inputs of
/// [`compute_im`], so an entry needs only the bytes to decide whether a
/// lookup is a repeat:
///
/// - both digests hit when the lookup's bytes are the entry's own
///   allocation (same pointer and length);
/// - the IM also hits when the bytes compare equal — a memory compare is
///   several times cheaper than SHA-256, while it is no cheaper than the
///   fingerprint, so the fingerprint does not try it;
/// - anything else is computed directly and never replaces the first-seen
///   entry.
///
/// The memo holds at most a fixed number of ids. It is owned by one world
/// and lent to the agents and players in it; nothing is shared across
/// worlds or threads.
#[derive(Debug, Default)]
pub struct SegmentDigests {
    entries: FxHashMap<SegmentId, Entry>,
    /// Insertion order, for oldest-first eviction.
    order: VecDeque<SegmentId>,
    stats: DigestStats,
    /// Whether players fingerprint the segments they play.
    audit_playback: bool,
}

impl SegmentDigests {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes the players lent this memo fingerprint every segment they
    /// play, for an analysis that compares played bytes with the authentic
    /// ones. Off by default: nothing else reads a played segment's hash.
    pub fn audit_playback(&mut self) {
        self.audit_playback = true;
    }

    /// The playback hash of `segment`, which is starting to play: its
    /// [`content_fingerprint`] when playback is audited, else `None`
    /// without reading a byte.
    pub fn playback_hash(&mut self, segment: &Segment) -> Option<[u8; 32]> {
        self.audit_playback.then(|| self.fingerprint(segment))
    }

    /// [`compute_im`] of `segment`'s bytes, id and position.
    pub fn im(&mut self, segment: &Segment) -> [u8; 32] {
        let direct = || {
            let id = &segment.id;
            compute_im(&segment.data, &id.video.0, id.rendition, id.seq)
        };
        let Self {
            entries,
            order,
            stats,
            ..
        } = self;
        let counts = &mut stats.im;
        let Some(entry) = entries.get_mut(&segment.id) else {
            counts.computed += 1;
            let im = direct();
            insert(entries, order, segment).im = Some(im);
            return im;
        };
        if entry.is_same_allocation(&segment.data) {
            if let Some(im) = entry.im {
                counts.identity_hits += 1;
                return im;
            }
        } else if entry.data == segment.data {
            if let Some(im) = entry.im {
                counts.equal_hits += 1;
                return im;
            }
        } else {
            counts.computed += 1;
            counts.mismatches += 1;
            return direct();
        }
        // The entry holds these very bytes but no IM yet.
        counts.computed += 1;
        let im = direct();
        entry.im = Some(im);
        im
    }

    /// [`content_fingerprint`] of `segment`'s bytes.
    pub fn fingerprint(&mut self, segment: &Segment) -> [u8; 32] {
        let Self {
            entries,
            order,
            stats,
            ..
        } = self;
        let counts = &mut stats.fingerprint;
        let Some(entry) = entries.get_mut(&segment.id) else {
            counts.computed += 1;
            let fp = content_fingerprint(&segment.data);
            insert(entries, order, segment).fingerprint = Some(fp);
            return fp;
        };
        if !entry.is_same_allocation(&segment.data) {
            counts.computed += 1;
            return content_fingerprint(&segment.data);
        }
        if let Some(fp) = entry.fingerprint {
            counts.identity_hits += 1;
            return fp;
        }
        counts.computed += 1;
        let fp = content_fingerprint(&segment.data);
        entry.fingerprint = Some(fp);
        fp
    }

    /// The lookup counters so far.
    pub fn stats(&self) -> DigestStats {
        self.stats
    }
}

/// Adds a first-seen entry for `segment` (absent from the memo), evicting
/// the oldest entry when the memo is full.
fn insert<'a>(
    entries: &'a mut FxHashMap<SegmentId, Entry>,
    order: &mut VecDeque<SegmentId>,
    segment: &Segment,
) -> &'a mut Entry {
    if order.len() == CAPACITY {
        let oldest = order.pop_front().expect("memo is full");
        entries.remove(&oldest);
    }
    order.push_back(segment.id.clone());
    entries.entry(segment.id.clone()).or_insert(Entry {
        data: segment.data.clone(),
        fingerprint: None,
        im: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VideoSource;
    use proptest::prelude::*;
    use std::time::Duration;

    fn seg(seq: u64) -> Segment {
        VideoSource::vod("v", vec![400_000], Duration::from_secs(2), 400)
            .segment(0, seq)
            .unwrap()
    }

    fn im_of(s: &Segment) -> [u8; 32] {
        compute_im(&s.data, &s.id.video.0, s.id.rendition, s.id.seq)
    }

    #[test]
    fn clone_of_first_seen_bytes_hits_on_identity() {
        let mut memo = SegmentDigests::new();
        let a = seg(3);
        assert_eq!(memo.im(&a), im_of(&a));
        assert_eq!(memo.im(&a.clone()), im_of(&a));
        assert_eq!(memo.fingerprint(&a), content_fingerprint(&a.data));
        assert_eq!(memo.fingerprint(&a.clone()), content_fingerprint(&a.data));
        let s = memo.stats();
        assert_eq!((s.im.computed, s.im.identity_hits), (1, 1));
        // The first fingerprint fills the existing entry lazily.
        assert_eq!(
            (s.fingerprint.computed, s.fingerprint.identity_hits),
            (1, 1)
        );
        assert_eq!(memo.entries.len(), 1);
    }

    #[test]
    fn byte_equal_copy_hits_the_im_but_not_the_fingerprint() {
        let mut memo = SegmentDigests::new();
        let a = seg(1);
        let copy = Segment {
            data: Bytes::from(a.data.to_vec()),
            ..a.clone()
        };
        memo.im(&a);
        memo.fingerprint(&a);
        assert_eq!(memo.im(&copy), im_of(&a));
        assert_eq!(memo.fingerprint(&copy), content_fingerprint(&a.data));
        let s = memo.stats();
        assert_eq!(s.im.equal_hits, 1);
        assert_eq!(
            s.fingerprint.computed, 2,
            "fingerprints hit on identity only"
        );
        assert_eq!(s.im.mismatches + s.fingerprint.mismatches, 0);
    }

    #[test]
    fn differing_bytes_are_computed_and_never_replace_the_first_entry() {
        let mut memo = SegmentDigests::new();
        let a = seg(2);
        let mut polluted = a.data.to_vec();
        polluted[100] ^= 0xff;
        let polluted = Segment {
            data: Bytes::from(polluted),
            ..a.clone()
        };
        memo.im(&a);
        assert_eq!(memo.im(&polluted), im_of(&polluted));
        assert_eq!(memo.im(&polluted), im_of(&polluted));
        assert_eq!(memo.im(&a), im_of(&a), "first-seen entry still answers");
        let s = memo.stats().im;
        assert_eq!((s.computed, s.mismatches, s.identity_hits), (3, 2, 1));
    }

    #[test]
    fn oldest_entry_is_evicted_at_the_cap() {
        let mut memo = SegmentDigests::new();
        let first = seg(0);
        memo.fingerprint(&first);
        for seq in 1..=CAPACITY as u64 {
            memo.fingerprint(&seg(seq));
        }
        assert_eq!(memo.entries.len(), CAPACITY);
        // Seq 0 was evicted: even its own allocation computes again.
        let before = memo.stats().fingerprint;
        memo.fingerprint(&first);
        let after = memo.stats().fingerprint;
        assert_eq!(after.computed, before.computed + 1);
        assert_eq!(after.identity_hits, before.identity_hits);
        assert_eq!(memo.entries.len(), CAPACITY);
    }

    /// The variant of a base segment a lookup presents.
    fn variant(base: &Segment, kind: u8, offset: usize) -> Segment {
        let len = base.data.len();
        let data = match kind {
            // The base allocation itself.
            0 => base.data.clone(),
            // A byte-equal copy in a fresh allocation.
            1 => Bytes::from(base.data.to_vec()),
            // One flipped byte.
            2 => {
                let mut v = base.data.to_vec();
                v[offset % len] ^= 1 << (offset % 8);
                Bytes::from(v)
            }
            // A truncated copy.
            3 => Bytes::from(base.data[..offset % len].to_vec()),
            // An extended copy.
            4 => {
                let mut v = base.data.to_vec();
                v.push(offset as u8);
                Bytes::from(v)
            }
            // A prefix of the base allocation: same pointer, shorter.
            _ => base.data.slice(..offset % len),
        };
        Segment {
            data,
            ..base.clone()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every answer equals a direct computation over the same inputs,
        /// whatever mix of shared, copied, altered and resized bytes the
        /// memo sees, and the memo never holds more than its cap.
        #[test]
        fn answers_equal_direct_computation(
            ops in proptest::collection::vec(
                ((0u8..6, any::<bool>()), 0u64..CAPACITY as u64 + 40, 0u8..3, any::<u32>()),
                1..600,
            ),
        ) {
            let sources = [
                VideoSource::vod("v", vec![8_000], Duration::from_secs(1), 1_000),
                VideoSource::vod("w", vec![8_000, 16_000], Duration::from_secs(1), 1_000),
            ];
            // Base segments stay alive for the whole case, so kind 0 really
            // presents the first allocation again.
            let mut bases: FxHashMap<(u8, u64), Segment> = FxHashMap::default();
            let mut memo = SegmentDigests::new();
            let (mut ims, mut fps) = (0u64, 0u64);
            for ((kind, is_im), seq, source, offset) in ops {
                // Half the lookups hit a handful of hot ids; the rest sweep
                // past the cap.
                let seq = if offset % 2 == 0 { seq } else { seq % 4 };
                let (video, rendition) = match source {
                    0 => (0, 0),
                    1 => (1, 0),
                    _ => (1, 1),
                };
                let base = bases
                    .entry((source, seq))
                    .or_insert_with(|| sources[video].segment(rendition, seq).unwrap());
                let seg = variant(base, kind, offset as usize);
                if is_im {
                    ims += 1;
                    prop_assert_eq!(memo.im(&seg), im_of(&seg));
                } else {
                    fps += 1;
                    prop_assert_eq!(memo.fingerprint(&seg), content_fingerprint(&seg.data));
                }
                prop_assert!(memo.entries.len() <= CAPACITY);
            }
            let stats = memo.stats();
            let lookups = |c: DigestCounts| c.computed + c.identity_hits + c.equal_hits;
            prop_assert_eq!(lookups(stats.im), ims);
            prop_assert_eq!(lookups(stats.fingerprint), fps);
            prop_assert!(stats.im.mismatches <= stats.im.computed);
            prop_assert_eq!(stats.fingerprint.equal_hits + stats.fingerprint.mismatches, 0);
        }
    }
}
