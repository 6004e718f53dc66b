//! Dynamic analysis: drive a watch session and sniff for PDN traffic.
//!
//! For each potential customer the paper "randomly selected 3 video links
//! and watched them for 15 minutes so as to capture the traffic" (§III-C).
//! Here a watch session against a planted site synthesizes the capture the
//! analyzer's tcpdump would have produced — using the *real* STUN/DTLS wire
//! encoders, so [`crate::traffic::analyze_capture`] exercises the same
//! parsing path as against live `pdn-provider` worlds — and the confirm
//! verdict is whatever the capture analysis says.

use bytes::Bytes;
use pdn_simnet::shard::WorldPool;
use pdn_simnet::{splitmix64_finalize, Addr, CapturedFrame, SimRng, SimTime, Transport};
use pdn_webrtc::stun;

use crate::corpus::{Plant, Trigger, WebRtcUse, Website};
use crate::traffic::{analyze_capture, TrafficReport};

/// A vantage point the dynamic analysis can run from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vantage {
    /// Country code of the analysis host.
    pub country: &'static str,
}

/// The paper's vantage set: a US analysis server plus a China vantage
/// (needed for Douyu-style geo-restricted services).
pub fn paper_vantages() -> Vec<Vantage> {
    vec![Vantage { country: "US" }, Vantage { country: "CN" }]
}

/// Whether the plant produces traffic from any of `vantages`.
pub fn triggers(site: &Website, vantages: &[Vantage]) -> bool {
    match site.trigger {
        Trigger::Always => true,
        Trigger::GeoRestricted(c) => vantages.iter().any(|v| v.country == c),
        Trigger::SubscriptionRequired | Trigger::SubpageOnly => false,
    }
}

/// Outcome of a dynamic session against one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicOutcome {
    /// The capture-analysis report.
    pub report: TrafficReport,
    /// Classification of what the session observed.
    pub verdict: DynamicVerdict,
}

/// What the dynamic analysis concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicVerdict {
    /// STUN + DTLS between candidate peers: a confirmed PDN customer.
    PdnConfirmed,
    /// WebRTC traffic relayed via TURN (the adult platforms of §III-D).
    TurnRelayed,
    /// WebRTC APIs used for tracking only (STUN, no peer DTLS).
    TrackingOnly,
    /// No PDN-shaped traffic observed.
    NoTraffic,
}

/// Runs watch sessions for a batch of independent candidates, one
/// [`WorldPool`] job per candidate across `workers` threads.
///
/// Each candidate's RNG is derived from `base_seed` and its index, so the
/// outcomes — including the synthesized addresses — are identical for any
/// worker count, and results come back in input order.
pub fn watch_sessions(
    sites: &[&Website],
    vantages: &[Vantage],
    base_seed: u64,
    workers: usize,
) -> Vec<DynamicOutcome> {
    WorldPool::new(workers).run(sites.len(), |idx| {
        let mut rng = SimRng::seed(session_seed(base_seed, idx));
        watch_session(sites[idx], vantages, &mut rng)
    })
}

/// Mixes `base_seed` with a candidate index into an independent stream
/// seed (SplitMix64-style finalizer, so neighbouring indices decorrelate).
fn session_seed(base_seed: u64, index: usize) -> u64 {
    splitmix64_finalize(base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Runs one simulated watch session against `site`.
pub fn watch_session(site: &Website, vantages: &[Vantage], rng: &mut SimRng) -> DynamicOutcome {
    let frames = synthesize_session_capture(site, vantages, rng);
    let stun_server = Addr::new(30, 0, 0, 1, 3478);
    let turn_server = Addr::new(30, 0, 0, 2, 3478);
    let report = analyze_capture(&frames, &[stun_server.ip, turn_server.ip]);
    // Classification is purely capture-driven: peer-pair DTLS confirms a
    // PDN; DTLS without a candidate pair (every flow terminates at the
    // relay) is TURN-relayed streaming; bare STUN is tracking.
    let verdict = if report.pdn_confirmed {
        DynamicVerdict::PdnConfirmed
    } else if report.dtls_frames > 0 && report.stun_binding_requests > 0 {
        DynamicVerdict::TurnRelayed
    } else if report.stun_binding_requests > 0 {
        DynamicVerdict::TrackingOnly
    } else {
        DynamicVerdict::NoTraffic
    };
    DynamicOutcome { report, verdict }
}

/// Builds the frames a 15-minute watch of `site` would put on the wire.
fn synthesize_session_capture(
    site: &Website,
    vantages: &[Vantage],
    rng: &mut SimRng,
) -> Vec<CapturedFrame> {
    let mut frames = Vec::new();
    let us = Addr::new(
        11,
        200,
        rng.range(0..250u16) as u8,
        rng.range(1..250u16) as u8,
        4000 + rng.range(0..1000u16),
    );
    let cdn = Addr::new(30, 0, 0, 9, 80);
    let stun_server = Addr::new(30, 0, 0, 1, 3478);
    let turn_server = Addr::new(30, 0, 0, 2, 3478);
    let mut t = 0u64;
    let mut push = |frames: &mut Vec<CapturedFrame>, src, dst, payload: Bytes| {
        frames.push(CapturedFrame {
            at: SimTime::from_millis(t),
            src,
            dst,
            transport: Transport::Udp,
            payload,
        });
        t += 50;
    };

    // Ordinary playback traffic is always present.
    push(
        &mut frames,
        us,
        cdn,
        Bytes::from_static(b"HTP|\x03get-manifest"),
    );
    push(
        &mut frames,
        cdn,
        us,
        Bytes::from_static(b"HTP|\x65#EXTM3U..."),
    );

    if !triggers(site, vantages) {
        return frames;
    }

    match &site.plant {
        None => frames,
        Some(Plant::WebRtcOther(WebRtcUse::Tracking)) => {
            // STUN binding to learn the client's IP; no peer connection.
            let txid = txid(rng);
            push(
                &mut frames,
                us,
                stun_server,
                stun::Message::binding_request(txid).encode(),
            );
            push(
                &mut frames,
                stun_server,
                us,
                stun::Message::binding_success(txid, us).encode(),
            );
            frames
        }
        Some(Plant::WebRtcOther(WebRtcUse::Unknown)) => frames,
        Some(Plant::WebRtcOther(WebRtcUse::TurnRelayed)) => {
            // Allocation + relayed DTLS: the peers only ever talk to the
            // relay, so the "pair" is client <-> relayed address.
            let relayed = Addr::from_ip(turn_server.ip, 49_152);
            let peer_via_relay = Addr::new(30, 0, 0, 2, 49_153);
            let txid1 = txid(rng);
            push(
                &mut frames,
                us,
                turn_server,
                stun::Message::binding_request(txid1).encode(),
            );
            push(
                &mut frames,
                turn_server,
                us,
                stun::Message::binding_success(txid1, relayed).encode(),
            );
            push(&mut frames, us, peer_via_relay, dtls_handshake_bytes());
            push(&mut frames, peer_via_relay, us, dtls_handshake_bytes());
            frames
        }
        Some(Plant::Public { .. }) | Some(Plant::Private { .. }) => {
            // Full PDN session: srflx gathering, checks with a remote peer,
            // DTLS handshake, then media records.
            let peer = Addr::new(
                12,
                rng.range(0..200u16) as u8,
                rng.range(0..250u16) as u8,
                rng.range(1..250u16) as u8,
                40_000 + rng.range(0..1000u16),
            );
            let t1 = txid(rng);
            push(
                &mut frames,
                us,
                stun_server,
                stun::Message::binding_request(t1).encode(),
            );
            push(
                &mut frames,
                stun_server,
                us,
                stun::Message::binding_success(t1, us).encode(),
            );
            let t2 = txid(rng);
            push(
                &mut frames,
                us,
                peer,
                stun::Message::binding_request(t2).encode(),
            );
            push(
                &mut frames,
                peer,
                us,
                stun::Message::binding_success(t2, us).encode(),
            );
            push(&mut frames, us, peer, dtls_handshake_bytes());
            push(&mut frames, peer, us, dtls_handshake_bytes());
            for _ in 0..5 {
                push(&mut frames, peer, us, dtls_appdata_bytes(rng));
            }
            frames
        }
    }
}

fn txid(rng: &mut SimRng) -> [u8; 12] {
    let mut id = [0u8; 12];
    let a = rng.next_u64().to_le_bytes();
    id[..8].copy_from_slice(&a);
    id
}

fn dtls_handshake_bytes() -> Bytes {
    Bytes::from_static(&[22, 0xfe, 0xfd, 1, 0, 0, 0])
}

fn dtls_appdata_bytes(rng: &mut SimRng) -> Bytes {
    let mut v = vec![23, 0xfe, 0xfd];
    for _ in 0..32 {
        v.push(rng.range(0..=255u16) as u8);
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Visibility;
    use crate::signatures::ProviderTag;

    fn site(plant: Option<Plant>, trigger: Trigger) -> Website {
        Website {
            domain: "test.example".into(),
            rank: 100,
            video_category: true,
            in_source_index: false,
            monthly_visits: None,
            plant,
            visibility: Visibility {
                depth: 0,
                dynamic: false,
            },
            trigger,
        }
    }

    fn public_plant() -> Plant {
        Plant::Public {
            provider: ProviderTag::Peer5,
            api_key: "k".into(),
            key_obfuscated: false,
            key_expired: false,
            allowlist_enabled: false,
        }
    }

    #[test]
    fn triggered_public_site_confirms() {
        let mut rng = SimRng::seed(1);
        let s = site(Some(public_plant()), Trigger::Always);
        let out = watch_session(&s, &paper_vantages(), &mut rng);
        assert_eq!(out.verdict, DynamicVerdict::PdnConfirmed);
        assert!(out.report.stun_binding_requests >= 2);
        assert!(!out.report.peer_ips.is_empty());
    }

    #[test]
    fn geo_restriction_honoured() {
        let mut rng = SimRng::seed(2);
        let s = site(Some(public_plant()), Trigger::GeoRestricted("CN"));
        // With the CN vantage: confirmed.
        let out = watch_session(&s, &paper_vantages(), &mut rng);
        assert_eq!(out.verdict, DynamicVerdict::PdnConfirmed);
        // US-only vantage: nothing.
        let out = watch_session(&s, &[Vantage { country: "US" }], &mut rng);
        assert_eq!(out.verdict, DynamicVerdict::NoTraffic);
    }

    #[test]
    fn subscription_gate_blocks() {
        let mut rng = SimRng::seed(3);
        let s = site(Some(public_plant()), Trigger::SubscriptionRequired);
        let out = watch_session(&s, &paper_vantages(), &mut rng);
        assert_eq!(out.verdict, DynamicVerdict::NoTraffic);
    }

    #[test]
    fn tracking_classified_separately() {
        let mut rng = SimRng::seed(4);
        let s = site(
            Some(Plant::WebRtcOther(WebRtcUse::Tracking)),
            Trigger::Always,
        );
        let out = watch_session(&s, &paper_vantages(), &mut rng);
        assert_eq!(out.verdict, DynamicVerdict::TrackingOnly);
    }

    #[test]
    fn turn_relay_classified_separately() {
        let mut rng = SimRng::seed(5);
        let s = site(
            Some(Plant::WebRtcOther(WebRtcUse::TurnRelayed)),
            Trigger::Always,
        );
        let out = watch_session(&s, &paper_vantages(), &mut rng);
        assert_eq!(out.verdict, DynamicVerdict::TurnRelayed);
    }

    #[test]
    fn batched_sessions_identical_for_any_worker_count() {
        // A mixed batch: public plants, tracking, TURN, plain.
        let sites: Vec<Website> = vec![
            site(Some(public_plant()), Trigger::Always),
            site(
                Some(Plant::WebRtcOther(WebRtcUse::Tracking)),
                Trigger::Always,
            ),
            site(
                Some(Plant::WebRtcOther(WebRtcUse::TurnRelayed)),
                Trigger::Always,
            ),
            site(None, Trigger::Always),
            site(Some(public_plant()), Trigger::GeoRestricted("CN")),
            site(Some(public_plant()), Trigger::SubscriptionRequired),
            site(Some(public_plant()), Trigger::Always),
        ];
        let refs: Vec<&Website> = sites.iter().collect();
        let vantages = paper_vantages();
        let serial = watch_sessions(&refs, &vantages, 42, 1);
        for workers in [2usize, 8] {
            let parallel = watch_sessions(&refs, &vantages, 42, workers);
            assert_eq!(serial, parallel, "{workers} workers");
        }
        assert_eq!(serial[0].verdict, DynamicVerdict::PdnConfirmed);
        assert_eq!(serial[1].verdict, DynamicVerdict::TrackingOnly);
        assert_eq!(serial[2].verdict, DynamicVerdict::TurnRelayed);
        assert_eq!(serial[3].verdict, DynamicVerdict::NoTraffic);
    }

    #[test]
    fn plain_site_shows_no_traffic() {
        let mut rng = SimRng::seed(6);
        let s = site(None, Trigger::Always);
        let out = watch_session(&s, &paper_vantages(), &mut rng);
        assert_eq!(out.verdict, DynamicVerdict::NoTraffic);
    }
}
