//! Cross-crate integration: a heterogeneous swarm — public hosts plus all
//! four NAT types — streams a VOD to completion, with P2P offload flowing
//! wherever traversal is possible and CDN fallback everywhere else.

use pdn_media::VideoSource;
use pdn_provider::world::{PdnWorld, ViewerSpec};
use pdn_provider::{AgentConfig, CustomerAccount, ProviderProfile};
use pdn_simnet::{GeoInfo, LinkSpec, NatKind, SimTime};
use std::time::Duration;

const SEGMENTS: u64 = 20;

/// Each viewer's NAT, in spawn order.
const NATS: [Option<NatKind>; 7] = [
    None,
    Some(NatKind::FullCone),
    Some(NatKind::RestrictedCone),
    Some(NatKind::PortRestrictedCone),
    Some(NatKind::Symmetric),
    None,
    Some(NatKind::FullCone),
];

fn build(seed: u64) -> (PdnWorld, Vec<pdn_simnet::NodeId>) {
    let mut world = PdnWorld::new(ProviderProfile::peer5(), seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new("c", "k", []));
    world.server_mut().set_max_neighbors(6);
    world.audit_playback();
    world.publish_video(VideoSource::vod(
        "v",
        vec![800_000],
        Duration::from_secs(4),
        SEGMENTS,
    ));
    let mut cfg = AgentConfig::new("v", "k", "site.tv");
    cfg.vod_end = Some(SEGMENTS);

    let mut viewers = Vec::new();
    for (i, nat) in NATS.into_iter().enumerate() {
        let v = world.spawn_viewer(ViewerSpec {
            geo: GeoInfo::new("US", (i % 3) as u16, "AS7922"),
            nat,
            link: LinkSpec::residential(),
            config: cfg.clone(),
        });
        viewers.push(v);
        world.run_until(SimTime::from_secs(4 * (i as u64 + 1)));
    }
    world.run_until(SimTime::from_secs(180));
    (world, viewers)
}

#[test]
fn heterogeneous_swarm_completes_playback() {
    let (world, viewers) = build(5);
    for (&v, nat) in viewers.iter().zip(NATS) {
        let agent = world.agent(v);
        assert_eq!(
            agent.player().played().len(),
            SEGMENTS as usize,
            "viewer {v} (nat {nat:?}) finished"
        );
        // Whatever the path, content is authentic.
        let src = VideoSource::vod("v", vec![800_000], Duration::from_secs(4), SEGMENTS);
        for rec in agent.player().played() {
            let auth = src.segment(0, rec.id.seq).unwrap();
            assert_eq!(
                rec.content_hash,
                Some(pdn_media::content_fingerprint(&auth.data))
            );
        }
    }
    // Meaningful P2P happened somewhere.
    let total_p2p: u64 = viewers.iter().map(|&v| world.agent(v).traffic().1).sum();
    assert!(
        total_p2p > 1_000_000,
        "swarm exchanged {total_p2p} bytes P2P"
    );
}

#[test]
fn swarm_run_is_deterministic() {
    let run = |seed| {
        let (world, viewers) = build(seed);
        viewers
            .iter()
            .map(|&v| world.agent(v).traffic())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(6), run(6));
}

#[test]
fn offload_reduces_cdn_egress() {
    // The economic premise of PDN (§I: Peer5 claims 95% offload): CDN
    // egress with P2P must be well below the pure-CDN control.
    let egress = |pdn: bool| {
        let mut world = PdnWorld::new(ProviderProfile::peer5(), 9);
        world
            .server_mut()
            .accounts_mut()
            .register(CustomerAccount::new("c", "k", []));
        world.publish_video(VideoSource::vod(
            "v",
            vec![800_000],
            Duration::from_secs(4),
            SEGMENTS,
        ));
        let mut cfg = AgentConfig::new("v", "k", "site.tv");
        cfg.pdn_enabled = pdn;
        cfg.vod_end = Some(SEGMENTS);
        for i in 0..4 {
            world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
            world.run_until(SimTime::from_secs(6 * (i + 1)));
        }
        world.run_until(SimTime::from_secs(180));
        world.cdn().bill().egress_bytes
    };
    let with_pdn = egress(true);
    let without = egress(false);
    assert!(
        (with_pdn as f64) < without as f64 * 0.6,
        "PDN egress {with_pdn} should be well under control {without}"
    );
}
