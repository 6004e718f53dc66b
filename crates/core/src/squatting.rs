//! Resource squatting (§IV-D): Figures 4 and 5 plus the cellular-policy
//! audit.
//!
//! The analyzer "runs a set of peer containers … the monitor records
//! through Docker Engine APIs the status of each container per second,
//! including the CPU usage, memory statics and network I/O". Here the
//! containers are simulator nodes and the monitor is
//! [`pdn_simnet::ResourceModel`]; the experiments reproduce:
//!
//! - **Figure 4** — CPU / memory / download / upload of two PDN peers vs a
//!   *no peer* control (pure CDN). Paper: +15% CPU, +10% memory.
//! - **Figure 5** — the seeder's upload traffic as neighbors grow (up to
//!   200% of its download at 3 peers, degradation past its uplink).

use std::time::Duration;

use pdn_media::VideoSource;
use pdn_provider::world::{PdnWorld, ViewerSpec};
use pdn_provider::{AgentConfig, CustomerAccount, ProviderProfile};
use pdn_simnet::{GeoInfo, LinkSpec, NodeId, ResourceSample, ResourceSummary, SimTime};

use crate::WorldPool;

const CHANNEL: &str = "live-channel";

fn live_world(profile: &ProviderProfile, seed: u64) -> PdnWorld {
    let mut world = PdnWorld::new(profile.clone(), seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new(
            "customer",
            "key",
            ["site.tv".to_string()],
        ));
    world.publish_video(VideoSource::live(
        CHANNEL,
        vec![2_000_000],
        Duration::from_secs(4),
    ));
    world
}

fn live_config(pdn: bool) -> AgentConfig {
    let mut cfg = AgentConfig::new(CHANNEL, "key", "site.tv");
    cfg.pdn_enabled = pdn;
    cfg
}

/// Per-viewer measurement from the Figure 4 experiment.
#[derive(Debug, Clone)]
pub struct PeerMeasurement {
    /// Label ("no peer", "Peer A", "Peer B").
    pub label: &'static str,
    /// Aggregate over the run.
    pub summary: ResourceSummary,
    /// The per-second series (the figure's x-axis).
    pub series: Vec<ResourceSample>,
    /// `(p2p_up, p2p_down, cdn_down)` bytes.
    pub traffic: (u64, u64, u64),
}

/// The Figure 4 experiment output.
#[derive(Debug, Clone)]
pub struct ResourceFigure {
    /// The pure-CDN control.
    pub no_peer: PeerMeasurement,
    /// First PDN peer (mostly uploads).
    pub peer_a: PeerMeasurement,
    /// Second PDN peer (mostly downloads).
    pub peer_b: PeerMeasurement,
}

impl ResourceFigure {
    /// Mean CPU of PDN peers relative to the control.
    pub fn cpu_overhead(&self) -> f64 {
        let pdn = (self.peer_a.summary.mean_cpu + self.peer_b.summary.mean_cpu) / 2.0;
        pdn / self.no_peer.summary.mean_cpu - 1.0
    }

    /// Mean memory of PDN peers relative to the control.
    pub fn mem_overhead(&self) -> f64 {
        let pdn = (self.peer_a.summary.mean_mem_bytes + self.peer_b.summary.mean_mem_bytes) / 2.0;
        pdn / self.no_peer.summary.mean_mem_bytes - 1.0
    }
}

fn measure(world: &PdnWorld, node: NodeId, label: &'static str) -> PeerMeasurement {
    let res = world.net().resources(node);
    PeerMeasurement {
        label,
        summary: res.summary(),
        series: res.series().to_vec(),
        traffic: world.agent(node).traffic(),
    }
}

/// Runs the Figure 4 experiment: Peer A + Peer B with the PDN enabled, and
/// a *no peer* control, all watching the same live channel for `secs`.
pub fn resource_consumption(profile: &ProviderProfile, secs: u64, seed: u64) -> ResourceFigure {
    let mut world = live_world(profile, seed);
    let no_peer = world.spawn_viewer(ViewerSpec::residential(live_config(false)));
    let peer_a = world.spawn_viewer(ViewerSpec::residential(live_config(true)));
    world.run_until(SimTime::from_secs(8));
    let peer_b = world.spawn_viewer(ViewerSpec::residential(live_config(true)));
    world.run_until(SimTime::from_secs(secs));
    ResourceFigure {
        no_peer: measure(&world, no_peer, "no peer"),
        peer_a: measure(&world, peer_a, "Peer A"),
        peer_b: measure(&world, peer_b, "Peer B"),
    }
}

/// One point of the Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct BandwidthPoint {
    /// Number of neighbor peers served by Peer A.
    pub neighbors: usize,
    /// Peer A upload bytes over the run.
    pub seeder_tx: u64,
    /// Peer A download bytes over the run.
    pub seeder_rx: u64,
    /// Stalls across the leech peers (QoS degradation past capacity).
    pub leech_stalls: usize,
    /// Mean P2P offload ratio of the leeches.
    pub leech_offload: f64,
}

impl BandwidthPoint {
    /// Upload as a fraction of download (the figure's headline ratio).
    pub fn upload_ratio(&self) -> f64 {
        self.seeder_tx as f64 / self.seeder_rx.max(1) as f64
    }
}

/// Runs the Figure 5 sweep: Peer A (seeder) serving 1..=`max_neighbors`
/// leech-mode peers on a live channel for `secs` per point.
///
/// Peer A's uplink is limited (8 Mbps) so that the degradation past ~4
/// neighbors the paper observed reproduces. One world per neighbor count
/// on `pool`, merged in index order.
pub fn bandwidth_scaling_pooled(
    profile: &ProviderProfile,
    max_neighbors: usize,
    secs: u64,
    seed: u64,
    pool: &WorldPool,
) -> Vec<BandwidthPoint> {
    pool.run(max_neighbors, |j| {
        let n = j + 1;
        let mut world = live_world(profile, seed + n as u64);
        world.server_mut().set_max_neighbors(8);
        let seeder_config = {
            let mut cfg = live_config(true);
            cfg.cdn_patience = Duration::ZERO; // Peer A fetches eagerly
            cfg
        };
        let seeder = world.spawn_viewer(ViewerSpec {
            geo: GeoInfo::new("US", 1, "AS7922"),
            nat: None,
            link: LinkSpec {
                up_bps: 8_000_000,
                ..LinkSpec::residential()
            },
            config: seeder_config,
        });
        world.run_until(SimTime::from_secs(6));
        let mut leeches = Vec::new();
        for _ in 0..n {
            let mut cfg = live_config(true);
            cfg.upload_enabled = false; // leech mode: only Peer A serves
            leeches.push(world.spawn_viewer(ViewerSpec::residential(cfg)));
        }
        world.run_until(SimTime::from_secs(secs));
        let res = world.net().resources(seeder);
        let (tx, rx) = (res.total_tx(), res.total_rx());
        let stalls: usize = leeches
            .iter()
            .map(|l| world.agent(*l).player().stalls().len())
            .sum();
        let offload: f64 = leeches
            .iter()
            .map(|l| world.agent(*l).player().p2p_offload_ratio())
            .sum::<f64>()
            / n as f64;
        BandwidthPoint {
            neighbors: n,
            seeder_tx: tx,
            seeder_rx: rx,
            leech_stalls: stalls,
            leech_offload: offload,
        }
    })
}

/// The §IV-D cellular-configuration audit over a detector corpus: apps
/// whose PDN configuration allows cellular upload *and* download.
pub fn cellular_upload_audit(eco: &pdn_detector::Ecosystem) -> Vec<(String, Option<u64>)> {
    let mut apps: Vec<(String, Option<u64>)> = eco
        .apps
        .iter()
        .filter(|a| a.plant.is_some() && a.cellular_upload)
        .map(|a| (a.package.clone(), a.downloads))
        .collect();
    apps.sort_by_key(|(_, downloads)| std::cmp::Reverse(*downloads));
    apps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_overheads_in_band() {
        let fig = resource_consumption(&ProviderProfile::peer5(), 120, 42);
        // Everyone actually streamed.
        assert!(fig.no_peer.summary.samples > 100);
        assert!(fig.peer_b.traffic.1 > 0, "Peer B downloaded from Peer A");
        // Paper: ~+15% CPU, ~+10% memory. Accept the band around it.
        let cpu = fig.cpu_overhead();
        assert!(cpu > 0.05 && cpu < 0.35, "cpu overhead {cpu:.3}");
        let mem = fig.mem_overhead();
        assert!(mem > 0.04 && mem < 0.20, "mem overhead {mem:.3}");
        // Control peer does no P2P.
        assert_eq!(fig.no_peer.traffic.0 + fig.no_peer.traffic.1, 0);
    }

    #[test]
    fn figure5_upload_grows_with_neighbors() {
        let points =
            bandwidth_scaling_pooled(&ProviderProfile::peer5(), 4, 90, 43, &WorldPool::auto());
        assert_eq!(points.len(), 4);
        // Upload ratio grows with neighbor count…
        assert!(
            points[2].upload_ratio() > points[0].upload_ratio() * 1.8,
            "ratio at 3 peers ({:.2}) should roughly triple 1 peer ({:.2})",
            points[2].upload_ratio(),
            points[0].upload_ratio()
        );
        // …and by 3 neighbors upload clearly exceeds download (paper: 200%).
        assert!(
            points[2].upload_ratio() > 1.2,
            "3-neighbor upload ratio {:.2}",
            points[2].upload_ratio()
        );
        // Download of the seeder stays roughly flat.
        let rx0 = points[0].seeder_rx as f64;
        let rx2 = points[2].seeder_rx as f64;
        assert!((rx2 / rx0) < 1.5, "seeder download flat: {rx0} -> {rx2}");
    }

    #[test]
    fn cellular_audit_finds_the_three_apps() {
        use pdn_simnet::SimRng;
        let mut rng = SimRng::seed(4);
        let eco = pdn_detector::corpus::generate(
            pdn_detector::corpus::CorpusConfig {
                website_haystack: 50,
                app_haystack: 50,
                video_fraction: 0.2,
            },
            &mut rng,
        );
        let apps = cellular_upload_audit(&eco);
        assert_eq!(apps.len(), 3, "three apps allow cellular upload");
        let names: Vec<&str> = apps.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"com.portonics.mygp"));
        assert!(names.contains(&"com.bongo.bioscope"));
        assert!(names.contains(&"com.arenacloudtv.android"));
        // Over 15M downloads in total.
        let total: u64 = apps.iter().filter_map(|(_, d)| *d).sum();
        assert!(total >= 15_000_000);
    }
}
