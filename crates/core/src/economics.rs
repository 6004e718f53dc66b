//! PDN economics: the offload curve behind the §I claims and the
//! free-riding cost amplification sweep.
//!
//! Two framing numbers from the paper: Peer5 "claims to be able to offload
//! 95% bandwidth cost for its customers" (§I), and the free-riding attack
//! lets an attacker "generate a significant volume of P2P traffic … which
//! would increase the PDN cost of the victim customer" (§IV-B). This
//! module measures both: CDN egress as swarm size grows, and the victim's
//! bill as the attacker adds peers.

use std::time::Duration;

use pdn_media::VideoSource;
use pdn_provider::world::{PdnWorld, ViewerSpec};
use pdn_provider::{AgentConfig, CustomerAccount, ProviderProfile};
use pdn_simnet::SimTime;

use crate::WorldPool;

const VIDEO: &str = "econ-video";
const SEGMENTS: u64 = 20;

/// One point of the offload curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadPoint {
    /// Number of concurrent viewers.
    pub viewers: usize,
    /// Total CDN egress bytes with the PDN on.
    pub cdn_egress_pdn: u64,
    /// Total CDN egress bytes with the PDN off (control).
    pub cdn_egress_control: u64,
}

impl OffloadPoint {
    /// Fraction of CDN egress the PDN saved.
    pub fn offload_ratio(&self) -> f64 {
        1.0 - self.cdn_egress_pdn as f64 / self.cdn_egress_control.max(1) as f64
    }
}

fn run_swarm(profile: &ProviderProfile, viewers: usize, pdn: bool, seed: u64) -> u64 {
    let mut world = PdnWorld::new(profile.clone(), seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new("c", "k", []));
    world.server_mut().set_max_neighbors(8);
    world.publish_video(VideoSource::vod(
        VIDEO,
        vec![800_000],
        Duration::from_secs(4),
        SEGMENTS,
    ));
    let mut cfg = AgentConfig::new(VIDEO, "k", "site.tv");
    cfg.pdn_enabled = pdn;
    cfg.vod_end = Some(SEGMENTS);
    for i in 0..viewers {
        world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
        world.run_until(SimTime::from_secs(4 * (i as u64 + 1)));
    }
    world.run_until(SimTime::from_secs(4 * viewers as u64 + 140));
    world.cdn().bill().egress_bytes
}

/// Measures the offload curve for swarm sizes in `sizes`. Each (size,
/// pdn/control) swarm is an independent world on `pool`, merged in index
/// order, so the curve is identical at any worker count.
pub fn offload_curve_pooled(
    profile: &ProviderProfile,
    sizes: &[usize],
    seed: u64,
    pool: &WorldPool,
) -> Vec<OffloadPoint> {
    let egress = pool.run(sizes.len() * 2, |j| {
        let n = sizes[j / 2];
        if j % 2 == 0 {
            run_swarm(profile, n, true, seed + n as u64)
        } else {
            run_swarm(profile, n, false, seed + 1000 + n as u64)
        }
    });
    sizes
        .iter()
        .zip(egress.chunks_exact(2))
        .map(|(&n, pair)| OffloadPoint {
            viewers: n,
            cdn_egress_pdn: pair[0],
            cdn_egress_control: pair[1],
        })
        .collect()
}

/// One point of the cost amplification sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplificationPoint {
    /// Attacker peers free-riding under the victim's key.
    pub attacker_peers: usize,
    /// P2P bytes metered to the victim.
    pub victim_metered_bytes: u64,
    /// The victim's bill in USD.
    pub victim_bill_usd: f64,
}

/// Sweeps the §IV-B cost amplification: 2..=`max_peers` attacker peers
/// streaming the attacker's video under the victim's subscription. One
/// world per fleet size on `pool`, merged in index order.
pub fn cost_amplification_pooled(
    profile: &ProviderProfile,
    max_peers: usize,
    seed: u64,
    pool: &WorldPool,
) -> Vec<AmplificationPoint> {
    let sizes: Vec<usize> = (2..=max_peers).collect();
    pool.run(sizes.len(), |j| {
        let n = sizes[j];
        let mut world = PdnWorld::new(profile.clone(), seed + n as u64);
        world
            .server_mut()
            .accounts_mut()
            .register(CustomerAccount::new("victim", "stolen-key", []));
        world.server_mut().set_max_neighbors(8);
        world.publish_video(VideoSource::vod(
            "attacker-own-stream",
            vec![800_000],
            Duration::from_secs(4),
            SEGMENTS,
        ));
        let mut cfg = AgentConfig::new("attacker-own-stream", "stolen-key", "www.test.com");
        cfg.vod_end = Some(SEGMENTS);
        for i in 0..n {
            world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
            world.run_until(SimTime::from_secs(4 * (i as u64 + 1)));
        }
        world.run_until(SimTime::from_secs(4 * n as u64 + 140));
        let meter = world.server().meter("victim");
        AmplificationPoint {
            attacker_peers: n,
            victim_metered_bytes: meter.p2p_bytes,
            victim_bill_usd: meter.cost_usd(profile.billing),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_ratio_is_the_saved_share_of_control_egress() {
        let point = |pdn, control| OffloadPoint {
            viewers: 1,
            cdn_egress_pdn: pdn,
            cdn_egress_control: control,
        };
        assert_eq!(point(25, 100).offload_ratio(), 0.75);
        assert_eq!(point(100, 100).offload_ratio(), 0.0);
        // An empty control run does not divide by zero.
        assert_eq!(point(0, 0).offload_ratio(), 1.0);
    }

    #[test]
    fn offload_grows_with_swarm_size() {
        let curve =
            offload_curve_pooled(&ProviderProfile::peer5(), &[2, 5], 500, &WorldPool::auto());
        for p in &curve {
            assert!(
                p.offload_ratio() > 0.3,
                "{} viewers: offload {:.2}",
                p.viewers,
                p.offload_ratio()
            );
            assert!(p.cdn_egress_pdn < p.cdn_egress_control);
        }
        // Larger swarms offload a larger fraction: more peers to serve the
        // tail once the first copies are in the swarm.
        assert!(
            curve[1].offload_ratio() > curve[0].offload_ratio(),
            "5 viewers ({:.2}) should beat 2 viewers ({:.2})",
            curve[1].offload_ratio(),
            curve[0].offload_ratio()
        );
    }

    #[test]
    fn amplification_grows_with_attacker_fleet() {
        let points =
            cost_amplification_pooled(&ProviderProfile::peer5(), 4, 501, &WorldPool::auto());
        assert!(points.iter().all(|p| p.victim_metered_bytes > 0));
        assert!(points.iter().all(|p| p.victim_bill_usd > 0.0));
        let first = points.first().expect("non-empty");
        let last = points.last().expect("non-empty");
        assert!(
            last.victim_metered_bytes > first.victim_metered_bytes,
            "more attacker peers, bigger victim bill: {} vs {}",
            last.victim_metered_bytes,
            first.victim_metered_bytes
        );
    }
}
