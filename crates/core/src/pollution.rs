//! Content pollution attacks (§IV-C, Figure 3).
//!
//! The attack runs a proxy between a *controlled peer* and the real CDN:
//! the proxy acts as a fake CDN that downloads the original files and
//! alters them before forwarding. The controlled peer itself is an
//! unmodified SDK — it caches and serves the polluted bytes in good faith,
//! which is what makes the attack require no knowledge of PDN protocols
//! and no access to browser storage.
//!
//! - **Direct content pollution**: replace the manifest and every segment.
//!   Fails everywhere: the doctored manifest lands the attacker in its own
//!   swarm (the provider's slow-start/manifest-consistency check), so no
//!   victim ever connects.
//! - **Video segment pollution**: keep the manifest and the first
//!   slow-start segments intact, alter later segments. Succeeds against
//!   every measured provider; defeated only by the §V-B peer-assisted
//!   integrity checking.

use std::time::Duration;

use bytes::Bytes;
use pdn_media::{DigestStats, SegmentId, VideoId, VideoSource};
use pdn_provider::sdk::ports;
use pdn_provider::world::{PdnWorld, ViewerSpec};
use pdn_provider::{AgentConfig, CustomerAccount, HttpResponse, ProviderProfile};
use pdn_simnet::{NodeId, SimTime, TapDirection, TapVerdict};

/// Which pollution variant to mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollutionMode {
    /// Replace manifest + all segments (the detected variant).
    Direct,
    /// Replace only segments with `seq >= from_seq` (the stealthy variant).
    FromSeq(u64),
}

/// Result of one pollution experiment.
#[derive(Debug, Clone)]
pub struct PollutionResult {
    /// Provider under test.
    pub provider: String,
    /// Attack variant.
    pub mode: PollutionMode,
    /// Segments the victim *played* that differ from the authentic bytes.
    pub victim_polluted_played: usize,
    /// Total segments the victim played.
    pub victim_total_played: usize,
    /// Whether the attacker ended up alone in its swarm (attack detected
    /// by the manifest-consistency check).
    pub attacker_isolated: bool,
    /// Peer-delivered segments the victim's SDK rejected (defense active).
    pub victim_rejections: u64,
    /// Whether the server blacklisted the attacker (defense active).
    pub attacker_blacklisted: bool,
    /// How the world's segment-digest memo answered its lookups.
    pub digests: DigestStats,
}

impl PollutionResult {
    /// The paper's verdict: did polluted content reach a victim's screen?
    pub fn attack_succeeded(&self) -> bool {
        self.victim_polluted_played > 0
    }
}

const VIDEO: &str = "popular-stream";
const SEGMENTS: u64 = 15;

/// The fake CDN's rewrite of a segment response: the same response with
/// its segment deterministically corrupted (same length, every TS sync
/// byte kept), written behind the response header in one pass into one
/// exact-size buffer.
fn polluted_frame(video: VideoId, rendition: u8, seq: u64, duration_ms: u32, data: &[u8]) -> Bytes {
    let id = SegmentId {
        video,
        rendition,
        seq,
    };
    let duration = Duration::from_millis(duration_ms.into());
    let mut frame = HttpResponse::segment_header(&id, duration, data.len());
    for packet in data.chunks(188) {
        frame.push(packet[0]);
        frame.extend(packet[1..].iter().map(|b| b ^ 0x5a));
    }
    Bytes::from(frame)
}

/// Installs the fake-CDN tap on the controlled peer.
fn install_fake_cdn(world: &mut PdnWorld, node: NodeId, mode: PollutionMode) {
    world.net_mut().install_tap(
        node,
        Box::new(move |dir, dgram| {
            // The proxy rewrites CDN *responses* on their way into the
            // controlled peer (Figure 3's redirect-to-fake-CDN collapses to
            // an in-path rewrite in the simulator).
            if dir != TapDirection::Inbound || dgram.dst.port != ports::HTTP {
                return TapVerdict::Forward;
            }
            let Some(resp) = HttpResponse::decode(&dgram.payload) else {
                return TapVerdict::Forward;
            };
            match (mode, resp) {
                (PollutionMode::Direct, HttpResponse::Playlist { text }) => {
                    // The fake CDN serves its own (doctored) manifest.
                    let doctored = format!("{text}#EXT-X-FAKE-CDN:1\n");
                    TapVerdict::Replace(HttpResponse::Playlist { text: doctored }.encode())
                }
                (
                    PollutionMode::Direct,
                    HttpResponse::Segment {
                        video,
                        rendition,
                        seq,
                        duration_ms,
                        data,
                    },
                ) => TapVerdict::Replace(polluted_frame(video, rendition, seq, duration_ms, &data)),
                (
                    PollutionMode::FromSeq(from),
                    HttpResponse::Segment {
                        video,
                        rendition,
                        seq,
                        duration_ms,
                        data,
                    },
                ) if seq >= from => {
                    TapVerdict::Replace(polluted_frame(video, rendition, seq, duration_ms, &data))
                }
                _ => TapVerdict::Forward,
            }
        }),
    );
}

/// Runs one pollution experiment: a controlled peer behind a fake CDN,
/// then `victims` honest viewers joining and pulling from the swarm.
pub fn run_pollution(
    profile: &ProviderProfile,
    mode: PollutionMode,
    victims: usize,
    seed: u64,
) -> PollutionResult {
    let mut world = PdnWorld::new(profile.clone(), seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new(
            "customer",
            "key",
            ["site.tv".to_string()],
        ));
    if profile.segment_integrity_check {
        world.server_mut().set_im_reporters(2);
    }
    let source = VideoSource::vod(VIDEO, vec![1_000_000], Duration::from_secs(4), SEGMENTS);
    world.publish_video(source.clone());

    let mut cfg = AgentConfig::new(VIDEO, "key", "site.tv");
    cfg.vod_end = Some(SEGMENTS);
    cfg.slow_start_segments = profile.slow_start_segments;
    cfg.integrity_check = profile.segment_integrity_check;
    if profile.segment_integrity_check {
        cfg.sim_key = b"pdn-server-sim-key".to_vec();
    }

    // Victims' playback is judged by what they played.
    world.audit_playback();

    // The controlled peer joins first and fills its cache via the fake CDN.
    let attacker = world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
    install_fake_cdn(&mut world, attacker, mode);
    world.run_until(SimTime::from_secs(70));

    // Victims arrive and pull the tail of the stream from the swarm.
    let mut victim_nodes = Vec::new();
    for i in 0..victims {
        let v = world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
        victim_nodes.push(v);
        world.run_until(SimTime::from_secs(70 + 3 * (i as u64 + 1)));
    }
    world.run_until(SimTime::from_secs(220));

    // Evaluate. Authentic fingerprints are memoized per (rendition, seq):
    // every victim plays the same window, and regenerating + fingerprinting
    // a segment per played record would dominate the analysis.
    let mut authentic_fp: std::collections::HashMap<(u8, u64), [u8; 32]> =
        std::collections::HashMap::new();
    let mut polluted = 0usize;
    let mut total = 0usize;
    let mut rejections = 0u64;
    for &v in &victim_nodes {
        for rec in world.agent(v).player().played() {
            total += 1;
            let fp = *authentic_fp
                .entry((rec.id.rendition, rec.id.seq))
                .or_insert_with(|| {
                    let authentic = source
                        .segment(rec.id.rendition, rec.id.seq)
                        .expect("in range");
                    pdn_media::content_fingerprint(&authentic.data)
                });
            if rec.content_hash != Some(fp) {
                polluted += 1;
            }
        }
        rejections += world.agent(v).polluted_rejections();
    }
    // Isolation: in the Direct variant the attacker's manifest hash differs
    // so no victim ever connects to it.
    let attacker_isolated = world.agent(attacker).established_conns() == 0;
    let attacker_blacklisted = world.agent(attacker).is_blacklisted()
        || world
            .agent(attacker)
            .peer_id()
            .is_some_and(|id| world.server().is_blacklisted(id));

    PollutionResult {
        provider: profile.name.clone(),
        mode,
        victim_polluted_played: polluted,
        victim_total_played: total,
        attacker_isolated,
        victim_rejections: rejections,
        attacker_blacklisted,
        digests: world.digest_stats(),
    }
}

/// One sample of the propagation curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationPoint {
    /// Sample time.
    pub at: SimTime,
    /// Fraction of victims that have *played* at least one polluted
    /// segment by this time.
    pub affected_fraction: f64,
}

/// The §IV-C propagation study: a single controlled peer behind a fake CDN
/// in a swarm of `victims`, sampled every 10 simulated seconds.
///
/// The paper (citing Wang et al.) notes a pollution attack "will quickly
/// propagate to 47% of viewers in the initial stage even when the initial
/// number of polluters is small"; this reproduces the curve in our swarm.
pub fn propagation_study(
    profile: &ProviderProfile,
    victims: usize,
    seed: u64,
) -> Vec<PropagationPoint> {
    let mut world = PdnWorld::new(profile.clone(), seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new("customer", "key", []));
    world.server_mut().set_max_neighbors(6);
    world.audit_playback();
    let source = VideoSource::vod(VIDEO, vec![1_000_000], Duration::from_secs(4), SEGMENTS);
    world.publish_video(source.clone());

    let mut cfg = AgentConfig::new(VIDEO, "key", "site.tv");
    cfg.vod_end = Some(SEGMENTS);
    cfg.slow_start_segments = profile.slow_start_segments;
    let attacker = world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
    install_fake_cdn(
        &mut world,
        attacker,
        PollutionMode::FromSeq(profile.slow_start_segments),
    );
    world.run_until(SimTime::from_secs(70));
    let mut victim_nodes = Vec::new();
    for i in 0..victims {
        victim_nodes.push(world.spawn_viewer(ViewerSpec::residential(cfg.clone())));
        world.run_until(SimTime::from_secs(70 + 2 * (i as u64 + 1)));
    }

    let authentic: Vec<Option<[u8; 32]>> = (0..SEGMENTS)
        .map(|s| {
            let data = source.segment(0, s).expect("in range").data;
            Some(pdn_media::content_fingerprint(&data))
        })
        .collect();
    let mut curve = Vec::new();
    let start = world.now().as_millis() / 1000;
    for t in (start..start + 120).step_by(10) {
        world.run_until(SimTime::from_secs(t));
        let affected = victim_nodes
            .iter()
            .filter(|v| {
                world
                    .agent(**v)
                    .player()
                    .played()
                    .iter()
                    .any(|rec| rec.content_hash != authentic[rec.id.seq as usize])
            })
            .count();
        curve.push(PropagationPoint {
            at: world.now(),
            affected_fraction: affected as f64 / victims.max(1) as f64,
        });
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_reaches_large_fractions_fast() {
        let curve = propagation_study(&ProviderProfile::peer5(), 6, 99);
        let peak = curve
            .iter()
            .map(|p| p.affected_fraction)
            .fold(0.0, f64::max);
        assert!(
            peak >= 0.5,
            "a single polluter should reach ≥50% of a small swarm, got {peak}"
        );
        // The curve is monotone (once affected, always affected).
        for w in curve.windows(2) {
            assert!(w[1].affected_fraction >= w[0].affected_fraction);
        }
    }

    #[test]
    fn direct_pollution_fails_via_manifest_isolation() {
        let r = run_pollution(&ProviderProfile::peer5(), PollutionMode::Direct, 2, 10);
        assert!(!r.attack_succeeded(), "direct pollution must be contained");
        assert!(r.attacker_isolated, "attacker lands in its own swarm");
        assert!(r.victim_total_played > 0, "victims still stream fine");
    }

    #[test]
    fn segment_pollution_succeeds_against_measured_providers() {
        for profile in [
            ProviderProfile::peer5(),
            ProviderProfile::streamroot(),
            ProviderProfile::viblast(),
        ] {
            let from = profile.slow_start_segments;
            let r = run_pollution(&profile, PollutionMode::FromSeq(from), 2, 11);
            assert!(
                r.attack_succeeded(),
                "{}: polluted {} of {}",
                profile.name,
                r.victim_polluted_played,
                r.victim_total_played
            );
            assert!(!r.attacker_isolated, "same manifest, same swarm");
        }
    }

    #[test]
    fn integrity_defense_stops_segment_pollution() {
        let hardened = {
            let mut p = ProviderProfile::hardened(&ProviderProfile::peer5());
            p.auth = pdn_provider::AuthScheme::StaticApiKey; // isolate the IM defense
            p
        };
        let from = hardened.slow_start_segments;
        let r = run_pollution(&hardened, PollutionMode::FromSeq(from), 2, 12);
        assert!(
            !r.attack_succeeded(),
            "defense must keep polluted segments off the screen (polluted {} / {})",
            r.victim_polluted_played,
            r.victim_total_played
        );
        assert!(
            r.victim_rejections > 0 || r.attacker_blacklisted,
            "either SIM verification rejected segments or the liar was expelled"
        );
        assert!(
            r.victim_total_played > 0,
            "victims still play (CDN fallback)"
        );
    }

    /// The attacker reports first, so the memo's first-seen copy of each
    /// polluted segment is the polluted one: every authentic copy a victim
    /// verifies or refetches afterwards differs from it and is hashed
    /// directly, at least once per rejection.
    #[test]
    fn integrity_memo_hashes_every_differing_copy() {
        let mut hardened = ProviderProfile::hardened(&ProviderProfile::peer5());
        hardened.auth = pdn_provider::AuthScheme::StaticApiKey;
        let from = hardened.slow_start_segments;
        let r = run_pollution(&hardened, PollutionMode::FromSeq(from), 2, 12);
        // The victims' rejection count before the memo existed.
        assert_eq!(r.victim_rejections, 11);
        let im = r.digests.im;
        assert!(im.mismatches >= r.victim_rejections, "{im:?}");
        assert!(im.mismatches <= im.computed);
    }

    /// The corruption the fake CDN applies, written the obvious way: XOR
    /// every byte but each 188-byte packet's sync byte.
    fn pollute_bytes(data: &Bytes) -> Bytes {
        let mut v = data.to_vec();
        for (i, b) in v.iter_mut().enumerate() {
            if i % 188 != 0 {
                *b ^= 0x5a;
            }
        }
        Bytes::from(v)
    }

    /// The frame the tap writes in place is byte-identical to polluting a
    /// copy of the segment and encoding the response around it, for a
    /// whole number of packets, a partial last packet and an empty body.
    #[test]
    fn polluted_frame_equals_pollute_then_encode() {
        let src = VideoSource::vod("v", vec![400_000, 1_000_000], Duration::from_secs(4), 2);
        let mut bodies: Vec<(u8, Bytes)> = (0..2)
            .map(|r| (r, src.segment(r, 1).unwrap().data))
            .collect();
        bodies.push((0, bodies[1].1.slice(..1000)));
        bodies.push((1, Bytes::new()));
        for (rendition, data) in bodies {
            let frame = polluted_frame(VideoId::new("v"), rendition, 1, 4_000, &data);
            let expected = HttpResponse::Segment {
                video: VideoId::new("v"),
                rendition,
                seq: 1,
                duration_ms: 4_000,
                data: pollute_bytes(&data),
            }
            .encode();
            assert_eq!(frame, expected, "{} bytes", data.len());
        }
    }

    #[test]
    fn polluted_bytes_differ_but_keep_length() {
        let src = VideoSource::vod("v", vec![400_000], Duration::from_secs(4), 2);
        let seg = src.segment(0, 0).unwrap();
        let frame = polluted_frame(VideoId::new("v"), 0, 0, 4_000, &seg.data);
        let Some(HttpResponse::Segment { data: bad, .. }) = HttpResponse::decode(&frame) else {
            panic!("the polluted frame decodes as a segment");
        };
        assert_eq!(bad.len(), seg.data.len());
        assert_ne!(bad, seg.data);
        assert_eq!(bad[0], 0x47, "sync byte preserved");
    }
}
