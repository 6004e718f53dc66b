//! Emits `BENCH_swarm.json`: throughput and memory numbers for the
//! space-sharded aggregate swarm (`pdn_provider::swarm`) — events/sec,
//! bytes/peer, and peers/GB at 10k and 100k peers (1M behind `--xl`),
//! plus a byte-identity check of the result table across shard counts.
//!
//! ```text
//! cargo run --release -p pdn-bench --bin swarm_scale_bench [-- --quick | --xl] [--seed N]
//! ```
//!
//! `--quick` runs the 10k-peer world at shard counts 1/2/4/8, fails on
//! any table divergence, enforces the peers/GB floor, and compares the
//! exact work (events and bytes/peer per shard count, then the result
//! table) with `tests/goldens/swarm_quick.txt`, which holds seed 1; at
//! any other `--seed` it prints the work and says no golden applies.
//! Events/sec is wall-clock and printed for information only: perfbench's
//! `swarm_100k` is the timing referee. No JSON is written in quick mode —
//! this is the `scripts/check.sh` guard.
//!
//! The recorded `mode` ("inline" or "threaded") is the path the shard
//! runner actually took on this host: 1-core containers collapse to the
//! inline degenerate loop, and wall-clock speedup gates skip honestly
//! there instead of measuring threads fighting for one core.

use std::time::Instant;

use pdn_bench::assert_matches_golden;
use pdn_provider::swarm::{SwarmConfig, SwarmWorld};
use pdn_simnet::shard::{host_parallelism, ShardMode};

/// The peers/GB floor: the per-peer diet target is <1 KB steady-state,
/// i.e. at least ~10^6 peers per GiB of world footprint.
const PEERS_PER_GB_FLOOR: f64 = 1_000_000.0;

/// The `--quick` work summary at the default seed: events and bytes/peer
/// at each shard count, then the shared result table.
const QUICK_GOLDEN_PATH: &str = "tests/goldens/swarm_quick.txt";
const QUICK_GOLDEN: &str = include_str!("../../../../tests/goldens/swarm_quick.txt");
const QUICK_GOLDEN_SEED: u64 = 1;

/// One measured scale point.
struct Point {
    label: &'static str,
    peers: u32,
    events: u64,
    events_per_sec: f64,
    bytes_per_peer: f64,
    peers_per_gb: f64,
    offload_pct: f64,
    completed_share: f64,
    mode: &'static str,
    shards: usize,
}

/// Largest of 1/2/4/8 not exceeding the host's parallelism — the shard
/// count a production run would pick (all divide the 40-region default).
fn auto_shards() -> usize {
    let host = host_parallelism();
    [8, 4, 2, 1].into_iter().find(|&k| k <= host).unwrap_or(1)
}

fn run_point(label: &'static str, cfg: SwarmConfig, shards: usize) -> (Point, String) {
    let mut world = SwarmWorld::new(&cfg, shards);
    let t = Instant::now();
    let report = world.run(ShardMode::Auto);
    let secs = t.elapsed().as_secs_f64();
    let events = world.total_events();
    let mem = world.mem_bytes() as f64;
    let peers = world.peers();
    let totals = world.totals();
    let fetched = (totals.p2p_rx + totals.cdn_rx).max(1);
    let point = Point {
        label,
        peers,
        events,
        events_per_sec: events as f64 / secs.max(1e-9),
        bytes_per_peer: mem / peers as f64,
        peers_per_gb: peers as f64 / (mem / (1u64 << 30) as f64),
        offload_pct: 100.0 * totals.p2p_rx as f64 / fetched as f64,
        completed_share: totals.completed as f64 / peers as f64,
        mode: report.mode,
        shards,
    };
    (point, world.table())
}

/// Value of a `--flag value` or `--flag=value` argument.
fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let xl = std::env::args().any(|a| a == "--xl");
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().expect("--seed takes a u64"))
        .unwrap_or(1);
    let host = host_parallelism();

    if quick {
        // Determinism gate: the 10k world's table must be byte-identical
        // at every shard count (the sharded engine's core contract).
        let mut cfg = SwarmConfig::quick(10_000);
        cfg.seed = seed;
        let mut reference: Option<String> = None;
        let mut work = String::new();
        for k in [1usize, 2, 4, 8] {
            let (p, table) = run_point("10k", cfg.clone(), k);
            match &reference {
                None => reference = Some(table),
                Some(r) => assert!(
                    *r == table,
                    "result table diverged between 1 and {k} shards"
                ),
            }
            println!(
                "swarm 10k x{k}: {:.0} ev/s (wall clock, information only), {:.0} peers/GB, \
                 offload {:.1}%, mode {}",
                p.events_per_sec, p.peers_per_gb, p.offload_pct, p.mode
            );
            assert!(
                p.peers_per_gb >= PEERS_PER_GB_FLOOR,
                "peers/GB fell below the floor ({:.0} < {PEERS_PER_GB_FLOOR:.0}; \
                 {:.0} bytes/peer)",
                p.peers_per_gb,
                p.bytes_per_peer
            );
            work.push_str(&format!(
                "shards {k}: {} events, {:.0} B/peer\n",
                p.events, p.bytes_per_peer
            ));
        }
        work.push_str(&reference.expect("four shard counts ran"));
        if seed == QUICK_GOLDEN_SEED {
            assert_matches_golden(QUICK_GOLDEN_PATH, QUICK_GOLDEN, &work);
            println!("work summary matches {QUICK_GOLDEN_PATH}");
        } else {
            print!("{work}");
            println!(
                "no golden applies at seed {seed} ({QUICK_GOLDEN_PATH} is seed \
                 {QUICK_GOLDEN_SEED}); work summary not compared"
            );
        }
        return;
    }

    let shards = auto_shards();
    let seeded = |peers: u32| {
        let mut cfg = SwarmConfig::scale(peers);
        cfg.seed = seed;
        cfg
    };
    let mut points = vec![
        run_point("10k", seeded(10_000), shards).0,
        run_point("100k", seeded(100_000), shards).0,
    ];
    if xl {
        points.push(run_point("1m", seeded(1_000_000), shards).0);
    }

    let mut json = format!(
        "{{\n  \"host_parallelism\": {host},\n  \"shards\": {shards},\n  \
         \"mode\": \"{}\",\n",
        points[0].mode
    );
    for p in &points {
        println!(
            "swarm {:>4}: {:>8} peers, {:>9} events, {:>10.0} ev/s, \
             {:>5.0} B/peer, {:>9.0} peers/GB, offload {:>5.1}%, \
             completed {:>5.1}%, {} x{}",
            p.label,
            p.peers,
            p.events,
            p.events_per_sec,
            p.bytes_per_peer,
            p.peers_per_gb,
            p.offload_pct,
            100.0 * p.completed_share,
            p.mode,
            p.shards
        );
        json.push_str(&format!(
            "  \"peers_{l}\": {},\n  \"events_{l}\": {},\n  \
             \"events_per_sec_{l}\": {:.0},\n  \"bytes_per_peer_{l}\": {:.0},\n  \
             \"peers_per_gb_{l}\": {:.0},\n  \"offload_pct_{l}\": {:.1},\n  \
             \"completed_share_{l}\": {:.3},\n",
            p.peers,
            p.events,
            p.events_per_sec,
            p.bytes_per_peer,
            p.peers_per_gb,
            p.offload_pct,
            p.completed_share,
            l = p.label
        ));
    }
    json.push_str(&format!(
        "  \"peers_per_gb_floor\": {PEERS_PER_GB_FLOOR:.0}\n}}\n"
    ));
    std::fs::write("BENCH_swarm.json", &json).expect("write BENCH_swarm.json");
    print!("{json}");

    for p in &points {
        assert!(
            p.peers_per_gb >= PEERS_PER_GB_FLOOR,
            "{}: peers/GB fell below the floor ({:.0} < {PEERS_PER_GB_FLOOR:.0})",
            p.label,
            p.peers_per_gb
        );
        assert!(
            p.completed_share > 0.95,
            "{}: only {:.1}% of peers finished playback within the deadline",
            p.label,
            100.0 * p.completed_share
        );
    }
}
