//! `swarm_100k`: the aggregate `SwarmWorld` with 100k peers on one shard,
//! inline, with a VOD short enough that one run lasts a few seconds. Its
//! ~40 MB peer table is far larger than a core's L2, so the calendar
//! queue, the compact peer state and the shard runner dominate.

use std::time::Duration;

use pdn_provider::swarm::{SwarmConfig, SwarmWorld};

/// The seed the swarm golden is pinned to.
pub const DEFAULT_SEED: u64 = 1;

/// Peers simulated.
pub const PEERS: u32 = 100_000;

/// `SwarmConfig::quick(100_000)` with a shorter VOD and join window.
pub fn config(seed: u64) -> SwarmConfig {
    let mut cfg = SwarmConfig::quick(PEERS);
    cfg.seed = seed;
    cfg.segments = 4;
    cfg.join_window = Duration::from_secs(5);
    cfg.duration = Duration::from_secs(28);
    cfg
}

/// What one swarm run leaves behind for checks and metrics.
pub struct Outcome {
    pub table: String,
    pub events: u64,
    pub peers: u32,
    pub completed: u64,
    pub nacks: u64,
    pub stalls: u64,
    pub offload_pct: f64,
    pub bytes_per_peer: f64,
    pub windows: u64,
    pub exchanged: u64,
    pub mode: &'static str,
}

impl Outcome {
    /// Share of peers that finished playback before the deadline.
    pub fn completed_share(&self) -> f64 {
        self.completed as f64 / self.peers.max(1) as f64
    }
}

/// Runs a built world to its deadline, inline on the calling thread.
pub fn run(mut world: SwarmWorld) -> Outcome {
    let report = world.run(pdn_simnet::shard::ShardMode::Inline);
    let totals = world.totals();
    let fetched = (totals.p2p_rx + totals.cdn_rx).max(1);
    Outcome {
        table: world.table(),
        events: world.total_events(),
        peers: world.peers(),
        completed: totals.completed,
        nacks: totals.nacks,
        stalls: totals.stalls,
        offload_pct: 100.0 * totals.p2p_rx as f64 / fetched as f64,
        bytes_per_peer: world.mem_bytes() as f64 / world.peers() as f64,
        windows: report.windows,
        exchanged: report.exchanged,
        mode: report.mode,
    }
}

/// The committed table hash at [`DEFAULT_SEED`].
pub const GOLDEN: &str = include_str!("../goldens/swarm_100k.txt");
