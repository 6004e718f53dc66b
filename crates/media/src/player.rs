//! A video player model: buffer, stalls, and QoE accounting.
//!
//! The analyzer's peer containers run a "web driver" that opens a video page
//! and plays a stream (§IV-A). This model reproduces the part that matters
//! for the experiments: how much buffered media a viewer holds, when
//! playback stalls, and which segments were *played* (so pollution tests
//! can check whether altered segments reached the screen).

use std::collections::BTreeMap;
use std::time::Duration;

use pdn_simnet::SimTime;

use crate::digest::SegmentDigests;
use crate::source::{Segment, SegmentId};

/// Where a delivered segment came from, for offload accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DeliverySource {
    /// Downloaded from the CDN.
    Cdn,
    /// Received from another peer over the PDN.
    Peer,
}

/// A played-out segment record.
#[derive(Debug, Clone)]
pub struct PlaybackRecord {
    /// The segment identity.
    pub id: SegmentId,
    /// When play-out of this segment started.
    pub started_at: SimTime,
    /// Where the bytes came from.
    pub source: DeliverySource,
    /// [`content_fingerprint`](crate::content_fingerprint) of the bytes
    /// actually played (pollution checks compare this against the
    /// authentic fingerprint).
    pub content_hash: [u8; 32],
}

/// A stall (rebuffering) event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallEvent {
    /// When playback stalled.
    pub at: SimTime,
    /// How long it stayed stalled.
    pub duration: Duration,
}

/// Player state machine, driven by segment arrivals and `tick`s.
#[derive(Debug)]
pub struct Player {
    /// Buffered, not-yet-played segments keyed by sequence number.
    buffer: BTreeMap<u64, (Segment, DeliverySource)>,
    next_play_seq: u64,
    /// Virtual position: when the current buffer run will be exhausted.
    playhead_exhausted_at: SimTime,
    stalled_since: Option<SimTime>,
    played: Vec<PlaybackRecord>,
    stalls: Vec<StallEvent>,
    started: bool,
}

impl Player {
    /// Creates a player that will start playing at sequence `first_seq`.
    pub fn new(first_seq: u64) -> Self {
        Player {
            buffer: BTreeMap::new(),
            next_play_seq: first_seq,
            playhead_exhausted_at: SimTime::ZERO,
            stalled_since: None,
            played: Vec::new(),
            stalls: Vec::new(),
            started: false,
        }
    }

    /// Delivers a segment to the player buffer at time `at`.
    ///
    /// Out-of-order arrivals are fine; stale (already played) segments are
    /// dropped. Segments that start playing are fingerprinted through the
    /// world's `digests`.
    pub fn deliver(
        &mut self,
        at: SimTime,
        segment: Segment,
        source: DeliverySource,
        digests: &mut SegmentDigests,
    ) {
        if segment.id.seq < self.next_play_seq {
            return;
        }
        self.buffer.insert(segment.id.seq, (segment, source));
        self.advance(at, digests);
    }

    /// Advances playback to time `now`, consuming buffered segments.
    pub fn tick(&mut self, now: SimTime, digests: &mut SegmentDigests) {
        self.advance(now, digests);
    }

    fn advance(&mut self, now: SimTime, digests: &mut SegmentDigests) {
        // Consume contiguous segments whose play-out fits before `now`.
        loop {
            let head_ready = self.buffer.contains_key(&self.next_play_seq);
            if !head_ready {
                // Buffer under-run: if the playhead caught up, we stall.
                if self.started && now >= self.playhead_exhausted_at && self.stalled_since.is_none()
                {
                    self.stalled_since = Some(self.playhead_exhausted_at.max(SimTime::ZERO));
                }
                return;
            }
            // Next segment is available: resolve any ongoing stall.
            let start_at = if let Some(since) = self.stalled_since.take() {
                self.stalls.push(StallEvent {
                    at: since,
                    duration: now.saturating_since(since),
                });
                now
            } else if self.started {
                self.playhead_exhausted_at
            } else {
                now
            };
            if self.started && start_at > now {
                // The current run extends beyond `now`; nothing to do yet.
                return;
            }
            let (seg, source) = self
                .buffer
                .remove(&self.next_play_seq)
                .expect("checked contains_key");
            let hash = digests.fingerprint(&seg);
            self.played.push(PlaybackRecord {
                id: seg.id.clone(),
                started_at: start_at,
                source,
                content_hash: hash,
            });
            self.playhead_exhausted_at = start_at + seg.duration;
            self.next_play_seq += 1;
            self.started = true;
        }
    }

    /// Seconds of media currently buffered ahead of the playhead.
    pub fn buffered_media(&self) -> Duration {
        self.buffer.values().map(|(s, _)| s.duration).sum()
    }

    /// Segments played out so far, in order.
    pub fn played(&self) -> &[PlaybackRecord] {
        &self.played
    }

    /// Stall events so far.
    pub fn stalls(&self) -> &[StallEvent] {
        &self.stalls
    }

    /// The next sequence number the player needs.
    pub fn next_needed_seq(&self) -> u64 {
        self.next_play_seq
    }

    /// Fraction of played segments delivered by peers (the PDN offload
    /// ratio a provider dashboard would report).
    pub fn p2p_offload_ratio(&self) -> f64 {
        if self.played.is_empty() {
            return 0.0;
        }
        let peers = self
            .played
            .iter()
            .filter(|r| r.source == DeliverySource::Peer)
            .count();
        peers as f64 / self.played.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content_fingerprint;
    use crate::source::VideoSource;

    fn seg(seq: u64) -> Segment {
        VideoSource::vod("v", vec![100_000], Duration::from_secs(4), 100)
            .segment(0, seq)
            .unwrap()
    }

    #[test]
    fn plays_in_order() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        p.deliver(SimTime::from_secs(1), seg(1), DeliverySource::Cdn, &mut d);
        assert!(p.played().is_empty(), "cannot start at seq 1");
        p.deliver(SimTime::from_secs(2), seg(0), DeliverySource::Cdn, &mut d);
        // Segment 0 starts immediately; segment 1 starts when 0 finishes.
        assert_eq!(p.played().len(), 1);
        p.tick(SimTime::from_secs(10), &mut d);
        assert_eq!(p.played().len(), 2);
        assert_eq!(p.played()[0].id.seq, 0);
        assert_eq!(p.played()[1].id.seq, 1);
    }

    #[test]
    fn stale_segments_dropped() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        p.deliver(SimTime::from_secs(1), seg(0), DeliverySource::Cdn, &mut d);
        p.tick(SimTime::from_secs(10), &mut d);
        p.deliver(SimTime::from_secs(11), seg(0), DeliverySource::Peer, &mut d);
        assert_eq!(p.played().len(), 1);
        assert_eq!(p.buffered_media(), Duration::ZERO);
    }

    #[test]
    fn stall_detected_and_resolved() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        p.deliver(SimTime::from_secs(0), seg(0), DeliverySource::Cdn, &mut d);
        // Segment 0 plays 0..4s. Nothing arrives until t=10: stall at 4s.
        p.tick(SimTime::from_secs(10), &mut d);
        p.deliver(SimTime::from_secs(10), seg(1), DeliverySource::Cdn, &mut d);
        assert_eq!(p.stalls().len(), 1);
        let stall = p.stalls()[0];
        assert_eq!(stall.at, SimTime::from_secs(4));
        assert_eq!(stall.duration, Duration::from_secs(6));
        assert_eq!(p.played().len(), 2);
        // Playback resumed at t=10.
        assert_eq!(p.played()[1].started_at, SimTime::from_secs(10));
    }

    #[test]
    fn no_stall_when_buffer_keeps_up() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        for i in 0..5 {
            p.deliver(SimTime::from_secs(i), seg(i), DeliverySource::Cdn, &mut d);
        }
        p.tick(SimTime::from_secs(19), &mut d);
        assert!(p.stalls().is_empty());
        assert_eq!(p.played().len(), 5);
    }

    #[test]
    fn offload_ratio() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        p.deliver(SimTime::from_secs(0), seg(0), DeliverySource::Cdn, &mut d);
        p.deliver(SimTime::from_secs(1), seg(1), DeliverySource::Peer, &mut d);
        p.deliver(SimTime::from_secs(2), seg(2), DeliverySource::Peer, &mut d);
        p.tick(SimTime::from_secs(8), &mut d);
        assert!((p.p2p_offload_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn content_hash_distinguishes_pollution() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        let authentic = seg(0);
        let mut polluted_data = authentic.data.to_vec();
        polluted_data[100] ^= 0xff;
        let polluted = Segment {
            data: polluted_data.into(),
            ..authentic.clone()
        };
        p.deliver(SimTime::ZERO, polluted, DeliverySource::Peer, &mut d);
        let played_hash = p.played()[0].content_hash;
        assert_ne!(played_hash, content_fingerprint(&authentic.data));
    }

    #[test]
    fn never_started_player_does_not_stall() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        p.tick(SimTime::from_secs(100), &mut d);
        p.deliver(SimTime::from_secs(101), seg(0), DeliverySource::Cdn, &mut d);
        assert!(p.stalls().is_empty());
        assert_eq!(p.played()[0].started_at, SimTime::from_secs(101));
        assert_eq!(p.p2p_offload_ratio(), 0.0);
    }

    #[test]
    fn segments_before_the_first_sequence_are_dropped() {
        let mut p = Player::new(5);
        let mut d = SegmentDigests::new();
        p.deliver(SimTime::ZERO, seg(3), DeliverySource::Cdn, &mut d);
        assert_eq!(p.buffered_media(), Duration::ZERO);
        p.deliver(SimTime::ZERO, seg(5), DeliverySource::Peer, &mut d);
        assert_eq!(p.played()[0].id.seq, 5);
        assert_eq!(p.next_needed_seq(), 6);
        assert_eq!(p.p2p_offload_ratio(), 1.0);
    }

    /// A stall is recorded when it ends, once, however many ticks it
    /// spans.
    #[test]
    fn a_stall_spanning_many_ticks_is_recorded_once() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        p.deliver(SimTime::ZERO, seg(0), DeliverySource::Cdn, &mut d);
        for t in [5, 10, 15] {
            p.tick(SimTime::from_secs(t), &mut d);
            assert!(p.stalls().is_empty(), "t={t}");
        }
        p.deliver(SimTime::from_secs(20), seg(1), DeliverySource::Cdn, &mut d);
        p.tick(SimTime::from_secs(21), &mut d);
        assert_eq!(
            p.stalls(),
            &[StallEvent {
                at: SimTime::from_secs(4),
                duration: Duration::from_secs(16),
            }]
        );
    }

    #[test]
    fn buffered_media_accounts_pending() {
        let mut p = Player::new(0);
        let mut d = SegmentDigests::new();
        p.deliver(SimTime::ZERO, seg(2), DeliverySource::Cdn, &mut d);
        p.deliver(SimTime::ZERO, seg(3), DeliverySource::Cdn, &mut d);
        assert_eq!(p.buffered_media(), Duration::from_secs(8));
        assert_eq!(p.next_needed_seq(), 0);
    }
}
