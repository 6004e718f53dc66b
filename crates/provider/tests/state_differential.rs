//! Differential tests: the interned/slab/bitmap swarm-state engine vs the
//! generic-collection baseline oracle (`pdn_oracle::state_baseline`).
//!
//! Both servers are driven with the same message sequences and must produce
//! identical reply streams — same destinations, same messages, same order —
//! because the refactor's claim is that only the data-structure costs
//! changed, never the wire behavior. `SignalMsg` is `PartialEq` over every
//! field, so structural equality here pins byte-identical encodings. The
//! engine is driven through each of its entry points — the owned `handle`,
//! per-frame `handle_frame_into` and batched `handle_frames_batch_into` —
//! and the frame paths are compared byte for byte with the baseline's
//! replies, encoded.

use bytes::Bytes;
use pdn_media::{OriginServer, VideoSource};
use pdn_oracle::state_baseline::{BaselineAvail, BaselineSignalingServer};
use pdn_provider::proto::SignalMsg;
use pdn_provider::signaling::{AdmissionBatch, MatchingPolicy, SignalingServer};
use pdn_provider::state::AvailMap;
use pdn_provider::{compute_im, CustomerAccount, ProviderProfile};
use pdn_simnet::{Addr, GeoInfo, GeoIpService, SimRng, SimTime};
use pdn_webrtc::{Candidate, CandidateKind, Certificate, SessionDescription};
use proptest::prelude::*;
use std::time::Duration;

fn sdp(seed: u64) -> SessionDescription {
    let mut rng = SimRng::seed(seed);
    SessionDescription {
        ice_ufrag: format!("u{seed}"),
        ice_pwd: format!("p{seed}"),
        fingerprint: Certificate::generate(&mut rng).fingerprint(),
        candidates: vec![Candidate::new(
            CandidateKind::Host,
            Addr::new(20, 0, 0, (seed % 250) as u8, 4000),
        )],
    }
}

fn join(video: &str, manifest: &str, key: &str, seed: u64) -> SignalMsg {
    SignalMsg::Join {
        api_key: Some(key.into()),
        token: None,
        origin: "site.tv".into(),
        video: video.into(),
        manifest_hash: manifest.into(),
        sdp: sdp(seed),
    }
}

/// Drives the same message through both servers and asserts identical
/// replies.
fn step(
    new_s: &mut SignalingServer,
    old_s: &mut BaselineSignalingServer,
    from: Addr,
    msg: SignalMsg,
    now: SimTime,
    geo: &GeoIpService,
) -> Vec<(Addr, SignalMsg)> {
    let a = new_s.handle(from, msg.clone(), now, geo);
    let b = old_s.handle(from, msg, now, geo);
    assert_eq!(a, b, "reply streams diverged");
    a
}

fn pair_of_servers(
    profile: ProviderProfile,
    seed: u64,
) -> (SignalingServer, BaselineSignalingServer) {
    let mut new_s = SignalingServer::new(profile.clone(), seed);
    let mut old_s = BaselineSignalingServer::new(profile, seed);
    let account = CustomerAccount::new("c", "k", ["site.tv".to_string()]);
    new_s.accounts_mut().register(account.clone());
    old_s.accounts_mut().register(account);
    (new_s, old_s)
}

/// The baseline and three engine servers, one per entry point, driven
/// with the same traffic.
struct Rig {
    old_s: BaselineSignalingServer,
    /// Driven through the owned `handle`.
    owned_s: SignalingServer,
    /// Driven through `handle_frame_into`, one frame at a time.
    frame_s: SignalingServer,
    /// Driven by [`Rig::replay_batched`] through `handle_frames_batch_into`.
    batch_s: SignalingServer,
    /// Every frame sent, with the tick (batch) it belongs to.
    frames: Vec<(u64, Addr, Bytes)>,
    /// The baseline's replies, encoded, in order.
    want: Vec<(Addr, Bytes)>,
    /// `frame_s`'s replies, in order.
    frame_out: Vec<(Addr, Bytes)>,
}

impl Rig {
    fn new(profile: ProviderProfile, seed: u64, configure: impl Fn(&mut SignalingServer)) -> Self {
        let (mut owned_s, old_s) = pair_of_servers(profile.clone(), seed);
        let (mut frame_s, _) = pair_of_servers(profile.clone(), seed);
        let (mut batch_s, _) = pair_of_servers(profile, seed);
        for s in [&mut owned_s, &mut frame_s, &mut batch_s] {
            configure(s);
        }
        Rig {
            old_s,
            owned_s,
            frame_s,
            batch_s,
            frames: Vec::new(),
            want: Vec::new(),
            frame_out: Vec::new(),
        }
    }

    /// Sends `msg` in `tick` (its virtual second) through the baseline,
    /// the owned path and the per-frame path, and asserts all three agree.
    fn step(
        &mut self,
        from: Addr,
        msg: SignalMsg,
        tick: u64,
        geo: &GeoIpService,
    ) -> Vec<(Addr, SignalMsg)> {
        let now = SimTime::from_secs(tick);
        let frame = msg.encode();
        let want = self.old_s.handle(from, msg.clone(), now, geo);
        let got = self.owned_s.handle(from, msg, now, geo);
        assert_eq!(got, want, "owned reply stream diverged");
        let start = self.want.len();
        self.want
            .extend(want.iter().map(|(to, m)| (*to, m.encode())));
        self.frame_s
            .handle_frame_into(from, &frame, now, geo, &mut self.frame_out);
        assert_eq!(
            self.frame_out[start..],
            self.want[start..],
            "per-frame reply bytes diverged"
        );
        self.frames.push((tick, from, frame));
        want
    }

    /// Replays every frame through `handle_frames_batch_into`, one batch
    /// per tick, and asserts the reply bytes equal the baseline's.
    fn replay_batched(&mut self, geo: &GeoIpService) {
        let mut batch = AdmissionBatch::new();
        let mut out = Vec::new();
        for run in self.frames.chunk_by(|a, b| a.0 == b.0) {
            let frames: Vec<(Addr, Bytes)> = run.iter().map(|(_, a, f)| (*a, f.clone())).collect();
            let now = SimTime::from_secs(run[0].0);
            self.batch_s
                .handle_frames_batch_into(&frames, now, geo, &mut batch, &mut out);
        }
        assert_eq!(out, self.want, "batched reply bytes diverged");
    }

    /// Asserts every engine server ended in the baseline's state.
    fn assert_same_state(&self, customer: &str) {
        for s in [&self.owned_s, &self.frame_s, &self.batch_s] {
            assert_eq!(s.peer_count(), self.old_s.peer_count());
            assert_eq!(s.defense_stats(), self.old_s.defense_stats());
            assert_eq!(s.meter(customer), self.old_s.meter(customer));
        }
    }
}

/// A join burst to one stream (the neighbor memo rolls), a second stream,
/// a bad key (denied, never memoized), a leave, then one more join, at one
/// tick: the zero-copy frame paths, per frame and batched, against the
/// baseline.
#[test]
fn join_burst_matches_baseline_on_every_entry_point() {
    let geo = GeoIpService::new();
    let mut rig = Rig::new(ProviderProfile::peer5(), 5, |_| {});
    let addr = |d: u8| Addr::new(40, 0, 0, d, 6000);
    for d in 1..=20u8 {
        rig.step(addr(d), join("v", "m0", "k", d as u64), 5, &geo);
    }
    rig.step(addr(21), join("other", "m0", "k", 21), 5, &geo);
    rig.step(addr(22), join("v", "m0", "wrong-key", 22), 5, &geo);
    rig.step(addr(4), SignalMsg::Leave, 5, &geo);
    rig.step(addr(24), join("v", "m0", "k", 24), 5, &geo);
    rig.replay_batched(&geo);
    rig.assert_same_state("c");
    assert_eq!(rig.owned_s.peer_count(), 21);
}

/// Satellite (a): 10k peers joining and leaving across 100 swarms. The
/// slab registry + peer→swarm reverse index must produce the same replies
/// and end state as the baseline's full-table scans.
#[test]
fn churn_10k_peers_across_100_swarms_byte_identical() {
    let (mut new_s, mut old_s) = pair_of_servers(ProviderProfile::peer5(), 42);
    new_s.set_max_neighbors(4);
    old_s.set_max_neighbors(4);

    let mut geo = GeoIpService::new();
    let infos = [
        GeoInfo::new("US", 1, "AS7922"),
        GeoInfo::new("CN", 2, "AS4134"),
        GeoInfo::new("DE", 3, "AS3320"),
    ];

    // Deterministic LCG so the churn pattern is reproducible.
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };

    let mut live: Vec<Addr> = Vec::new();
    let mut replies = 0usize;
    for i in 0..10_000u64 {
        let ip = geo.allocate(&infos[(i % 3) as usize]);
        let from = Addr::from_ip(ip, 5000 + (i % 1000) as u16);
        let swarm = next() % 100;
        let video = format!("v{}", swarm % 20);
        let manifest = format!("m{}", swarm / 20);
        let now = SimTime::from_secs(i / 10);
        let out = step(
            &mut new_s,
            &mut old_s,
            from,
            join(&video, &manifest, "k", i),
            now,
            &geo,
        );
        replies += out.len();
        live.push(from);

        // Churn: about half the peers leave again, picked pseudo-randomly,
        // so swarms keep shrinking and growing.
        if next() % 2 == 0 {
            let idx = (next() as usize) % live.len();
            let leaver = live.swap_remove(idx);
            step(&mut new_s, &mut old_s, leaver, SignalMsg::Leave, now, &geo);
        }
    }

    assert_eq!(new_s.peer_count(), old_s.peer_count());
    assert_eq!(new_s.peer_count(), live.len());
    assert_eq!(new_s.meter("c").joins, old_s.meter("c").joins);
    assert!(replies > 10_000, "joins produced neighbor introductions");
}

/// A profile with the §V-B integrity defense enabled but simple API-key
/// auth, so IM consensus / conflict / blacklist paths are reachable without
/// JWT minting.
fn integrity_profile() -> ProviderProfile {
    let mut p = ProviderProfile::peer5();
    p.segment_integrity_check = true;
    p
}

fn origin_with_video() -> OriginServer {
    let mut origin = OriginServer::new();
    origin.publish(VideoSource::vod(
        "v0",
        vec![50_000],
        Duration::from_secs(1),
        8,
    ));
    origin
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite (c): random interleavings of every client-originated
    /// `SignalMsg` variant — joins (valid and denied), leaves, stats
    /// reports, IM reports reaching consensus, conflict resolution against
    /// the origin, and blacklisting — agree reply-for-reply between the new
    /// engine and the baseline, under every matching policy.
    #[test]
    fn signaling_differential_over_message_variants(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..12, any::<u8>(), any::<u64>()),
            1..80,
        ),
        policy in 0u8..3,
        cuts in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let policy = match policy {
            0 => MatchingPolicy::Global,
            1 => MatchingPolicy::SameCountry,
            _ => MatchingPolicy::SameIsp,
        };
        let mut rig = Rig::new(integrity_profile(), 7, |s| {
            s.set_matching(policy);
            s.set_im_reporters(3);
            s.attach_origin(origin_with_video());
        });
        rig.old_s.set_matching(policy);
        rig.old_s.set_im_reporters(3);
        rig.old_s.attach_origin(origin_with_video());

        // A fixed pool of addresses across two geo registrations plus a few
        // unregistered (geo-unknown) ones, so the country/ISP matching
        // filters see both Some and None.
        let mut geo = GeoIpService::new();
        let infos = [GeoInfo::new("US", 1, "AS7922"), GeoInfo::new("CN", 2, "AS4134")];
        let addrs: Vec<Addr> = (0..12u16)
            .map(|i| {
                if i < 8 {
                    Addr::from_ip(geo.allocate(&infos[(i % 2) as usize]), 6000 + i)
                } else {
                    Addr::new(40, 0, 0, i as u8, 6000 + i)
                }
            })
            .collect();

        let origin = origin_with_video();
        let authentic: Vec<[u8; 32]> = (0..4u64)
            .map(|seq| {
                let seg = origin
                    .segment(&pdn_media::SegmentId {
                        video: pdn_media::VideoId::new("v0"),
                        rendition: 0,
                        seq,
                    })
                    .expect("published segment");
                compute_im(&seg.data, "v0", 0, seq)
            })
            .collect();

        // One signaling session per address, as the SDK maintains: a client
        // that reconnects sends Leave before its next Join. A second Join
        // from a live address is undefined in the baseline too (its linear
        // scan over a randomly-ordered HashMap picks an arbitrary session),
        // so the generator models reconnects rather than double-joins.
        //
        // The clock advances where `cuts` says; each tick's frames are one
        // batch in the batched replay.
        let mut live = [false; 12];
        let mut tick = 0u64;
        for (t, (op, a, x, y)) in ops.into_iter().enumerate() {
            let from = addrs[a as usize];
            let v = (x >> 4) % 3;
            if cuts[t] {
                tick = t as u64;
            }
            let msg = match op {
                0 => {
                    if live[a as usize] {
                        rig.step(from, SignalMsg::Leave, tick, &geo);
                        live[a as usize] = false;
                    }
                    let key = if x % 8 == 7 { "wrong-key" } else { "k" };
                    join(&format!("v{v}"), &format!("m{}", x % 2), key, y)
                }
                1 => SignalMsg::Leave,
                2 => SignalMsg::StatsReport {
                    p2p_up_bytes: y % 10_000,
                    p2p_down_bytes: y % 8_000,
                },
                _ => {
                    let seq = y % 4;
                    let im = match x % 3 {
                        0 => authentic[seq as usize],
                        1 => [0xAA; 32],
                        _ => [0xBB; 32],
                    };
                    SignalMsg::ImReport {
                        video: "v0".into(),
                        rendition: 0,
                        seq,
                        im: pdn_crypto::hex(&im),
                    }
                }
            };
            let is_join = matches!(msg, SignalMsg::Join { .. });
            let is_leave = matches!(msg, SignalMsg::Leave);
            let out = rig.step(from, msg, tick, &geo);
            if is_join {
                live[a as usize] = out
                    .iter()
                    .any(|(to, m)| *to == from && matches!(m, SignalMsg::JoinOk { .. }));
            } else if is_leave {
                live[a as usize] = false;
            }
            // IM resolution may evict any reporter, not just the sender.
            for (to, m) in &out {
                if matches!(m, SignalMsg::Blacklisted { .. }) {
                    if let Some(i) = addrs.iter().position(|ad| ad == to) {
                        live[i] = false;
                    }
                }
            }
        }

        rig.replay_batched(&geo);
        rig.assert_same_state("c");
    }

    /// Satellite (c): the bitmap availability map agrees with the old
    /// `HashMap<peer, HashSet<(rendition, seq)>>` on membership and on
    /// holder selection order — the ascending-peer walk over the new
    /// structures reproduces the baseline's collect-then-sort exactly,
    /// including sequences far outside the dense bitmap window (spill
    /// list).
    #[test]
    fn avail_map_matches_baseline_membership_and_holders(
        inserts in proptest::collection::vec(
            (0u64..12, 0u8..3, 0u64..600),
            0..300,
        ),
        far in proptest::collection::vec((0u64..12, 0u64..50), 0..10),
        established in proptest::collection::vec(0u64..12, 0..12),
    ) {
        let mut baseline = BaselineAvail::new();
        let mut maps: std::collections::BTreeMap<u64, AvailMap> =
            std::collections::BTreeMap::new();
        for &(peer, rendition, seq) in &inserts {
            baseline.insert(peer, rendition, seq);
            maps.entry(peer).or_default().insert(rendition, seq);
        }
        // Adversarial far-out-of-window sequences: SeqBits must spill, not
        // grow, and still answer membership exactly.
        for &(peer, off) in &far {
            let seq = (1u64 << 40) + off * 97;
            baseline.insert(peer, 0, seq);
            maps.entry(peer).or_default().insert(0, seq);
            prop_assert!(maps[&peer].contains(0, seq));
        }

        for peer in 0..12u64 {
            for rendition in 0..3u8 {
                for seq in (0..600).step_by(7) {
                    let want = baseline.contains(peer, rendition, seq);
                    let got = maps
                        .get(&peer)
                        .is_some_and(|m| m.contains(rendition, seq));
                    prop_assert_eq!(got, want, "membership {} {} {}", peer, rendition, seq);
                }
            }
        }

        let mut established = established;
        established.sort_unstable();
        established.dedup();
        for rendition in 0..3u8 {
            for seq in (0..600).step_by(11) {
                let want = baseline.holders(rendition, seq, &established);
                // The new path: walk connections ascending by peer id (the
                // scheduler's `conns_by_peer` order) and test the bitmap.
                let got: Vec<u64> = established
                    .iter()
                    .copied()
                    .filter(|p| {
                        maps.get(p).is_some_and(|m| m.contains(rendition, seq))
                    })
                    .collect();
                prop_assert_eq!(got, want, "holders {} {}", rendition, seq);
            }
        }
    }
}
