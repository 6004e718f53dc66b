//! The §IV-D resource-squatting experiments: Figure 4 (per-second CPU,
//! memory and network I/O of PDN peers vs a no-peer control) and Figure 5
//! (seeder upload vs neighbor count).
//!
//! ```sh
//! cargo run --release --example resource_monitor
//! ```

use pdn_core::squatting::{bandwidth_scaling_pooled, resource_consumption};
use pdn_core::WorldPool;
use pdn_provider::ProviderProfile;

fn main() {
    let profile = ProviderProfile::peer5();

    println!("== Figure 4: resource consumption of serving as a PDN peer ==\n");
    let fig = resource_consumption(&profile, 120, 1);
    println!(
        "{:<9} {:>8} {:>10} {:>10} {:>10}",
        "viewer", "cpu", "mem MB", "rx MB", "tx MB"
    );
    for m in [&fig.no_peer, &fig.peer_a, &fig.peer_b] {
        println!(
            "{:<9} {:>7.1}% {:>10.1} {:>10.1} {:>10.1}",
            m.label,
            m.summary.mean_cpu * 100.0,
            m.summary.mean_mem_bytes / 1e6,
            m.summary.total_rx as f64 / 1e6,
            m.summary.total_tx as f64 / 1e6,
        );
    }
    println!(
        "\nPDN overhead vs control: +{:.0}% CPU, +{:.0}% memory  (paper: +15% / +10%)",
        fig.cpu_overhead() * 100.0,
        fig.mem_overhead() * 100.0
    );

    // A glimpse of the per-second series the figure plots.
    println!("\nPeer B per-second samples (t=20..30s):");
    for s in fig
        .peer_b
        .series
        .iter()
        .filter(|s| (20..30).contains(&(s.at.as_millis() / 1000)))
    {
        println!(
            "  t={:>3}s cpu {:>5.1}% mem {:>6.1} MB rx {:>8} B/s tx {:>8} B/s",
            s.at.as_millis() / 1000,
            s.cpu * 100.0,
            s.mem_bytes as f64 / 1e6,
            s.rx_bytes,
            s.tx_bytes
        );
    }

    println!("\n== Figure 5: bandwidth of serving multiple peers ==\n");
    println!(
        "{:>9} {:>12} {:>12} {:>9} {:>8} {:>8}",
        "neighbors", "upload MB", "download MB", "up/down", "stalls", "offload"
    );
    for p in bandwidth_scaling_pooled(&profile, 5, 90, 2, &WorldPool::auto()) {
        println!(
            "{:>9} {:>12.1} {:>12.1} {:>8.2}x {:>8} {:>7.0}%",
            p.neighbors,
            p.seeder_tx as f64 / 1e6,
            p.seeder_rx as f64 / 1e6,
            p.upload_ratio(),
            p.leech_stalls,
            p.leech_offload * 100.0
        );
    }
    println!(
        "\n(the paper: upload reaches ~200% of download at 3 peers; QoS degrades past the uplink)"
    );
}
