//! The text of every reproduced table and figure, exactly as the `tables`
//! binary prints it and `tests/goldens/tables.txt` pins it.

use std::fmt::Write;

use pdn_core::WorldPool;
use pdn_detector::DetectionReport;

use crate::{
    detection_report, figure4, figure5, freeriding_study, ip_leak_wild_pooled,
    privacy_mitigation_pooled, table5_pooled, table6, token_defense,
};

/// Renders the artifacts `want` selects at `seed`, each followed by a
/// blank line, in this order: `table1 table2 table3 table4 freeriding
/// table5 table6 fig4 fig5 ipleak token mitigation`. The pooled artifacts
/// run on `pool`; the text is the same at any worker count.
pub fn render_tables(seed: u64, pool: &WorldPool, want: impl Fn(&str) -> bool) -> String {
    let mut s = String::new();
    // Writing into a `String` cannot fail.
    render_into(&mut s, seed, pool, want).expect("fmt::Write for String");
    s
}

fn render_into(
    s: &mut String,
    seed: u64,
    pool: &WorldPool,
    want: impl Fn(&str) -> bool,
) -> std::fmt::Result {
    if ["table1", "table2", "table3", "table4"]
        .iter()
        .any(|t| want(t))
    {
        let (_, report) = detection_report(seed);
        if want("table1") {
            writeln!(s, "{}", report.render_table1())?;
        }
        if want("table2") {
            let t = "TABLE II: Confirmed PDN websites";
            writeln!(
                s,
                "{}",
                DetectionReport::render_confirmed(&report.table2, t)
            )?;
        }
        if want("table3") {
            let t = "TABLE III: Confirmed PDN apps";
            writeln!(
                s,
                "{}",
                DetectionReport::render_confirmed(&report.table3, t)
            )?;
        }
        if want("table4") {
            writeln!(s, "{}", report.render_table4())?;
        }
    }

    if want("freeriding") {
        let f = freeriding_study(seed);
        writeln!(
            s,
            "§IV-B field study: {} keys extracted, {} valid, {} expired",
            f.tested, f.valid, f.expired
        )?;
        writeln!(
            s,
            "  cross-domain vulnerable: {} / {}    domain-spoofing vulnerable: {} / {}\n",
            f.cross_domain_vulnerable, f.valid, f.spoof_vulnerable, f.valid
        )?;
    }

    if want("table5") {
        writeln!(s, "{}", table5_pooled(seed, pool).render())?;
    }

    if want("table6") {
        writeln!(s, "{}", table6(300, seed).render())?;
    }

    if want("fig4") {
        let fig = figure4(120, seed);
        writeln!(s, "FIGURE 4: Resource consumption of serving as a PDN peer")?;
        writeln!(
            s,
            "{:<9} {:>8} {:>10} {:>10} {:>10}",
            "viewer", "cpu", "mem MB", "rx MB", "tx MB"
        )?;
        for m in [&fig.no_peer, &fig.peer_a, &fig.peer_b] {
            writeln!(
                s,
                "{:<9} {:>7.1}% {:>10.1} {:>10.1} {:>10.1}",
                m.label,
                m.summary.mean_cpu * 100.0,
                m.summary.mean_mem_bytes / 1e6,
                m.summary.total_rx as f64 / 1e6,
                m.summary.total_tx as f64 / 1e6
            )?;
        }
        writeln!(
            s,
            "overhead vs no-peer: +{:.0}% CPU, +{:.0}% memory (paper: +15% / +10%)\n",
            fig.cpu_overhead() * 100.0,
            fig.mem_overhead() * 100.0
        )?;
    }

    if want("fig5") {
        writeln!(
            s,
            "FIGURE 5: Bandwidth consumption of serving multiple peers"
        )?;
        writeln!(
            s,
            "{:>9} {:>12} {:>12} {:>9}",
            "neighbors", "upload MB", "download MB", "up/down"
        )?;
        for p in figure5(5, 90, seed, pool) {
            writeln!(
                s,
                "{:>9} {:>12.1} {:>12.1} {:>8.2}x",
                p.neighbors,
                p.seeder_tx as f64 / 1e6,
                p.seeder_rx as f64 / 1e6,
                p.upload_ratio()
            )?;
        }
        writeln!(s)?;
    }

    if want("ipleak") {
        let (huya, rt) = ip_leak_wild_pooled(7.0, seed, pool);
        writeln!(
            s,
            "§IV-D IP leak in the wild (one week, single controlled peer):"
        )?;
        for r in [&huya, &rt] {
            writeln!(
                s,
                "  {:<10} unique {:>6} (public {:>6}, bogons {:>4}: {} private / {} nat / {} reserved)  \
                 countries {:>3}  cities {:>4}  top share {:.0}%",
                r.name, r.unique_ips, r.public_ips, r.bogons, r.bogon_private, r.bogon_cgnat,
                r.bogon_reserved, r.countries.len(), r.cities, r.top_country_share() * 100.0
            )?;
        }
        writeln!(
            s,
            "  total: {} unique IPs (paper: 7,740)\n",
            huya.unique_ips + rt.unique_ips
        )?;
    }

    if want("token") {
        let t = token_defense(seed);
        writeln!(
            s,
            "§V-A token defense: legit={} cross-video-rejected={} replay-rejected={} \
             ttl-rejected={} token={}B (paper: 283B)\n",
            t.legit_flow_works,
            t.cross_video_rejected,
            t.replay_rejected,
            t.expired_rejected,
            t.token_bytes
        )?;
    }

    if want("mitigation") {
        let (huya_b, rt_b) = ip_leak_wild_pooled(2.0, seed, pool);
        let (huya_m, rt_m) = privacy_mitigation_pooled(2.0, seed, pool);
        writeln!(s, "§V-C same-country matching (2-day runs, US observer):")?;
        writeln!(
            s,
            "  Huya TV : {} → {} visible IPs (paper: none visible)",
            huya_b.unique_ips, huya_m.public_ips
        )?;
        writeln!(
            s,
            "  RT News : {} → {} visible IPs (paper: 35% remain)",
            rt_b.unique_ips, rt_m.unique_ips
        )?;
        let (p2p, relayed, leaked) = pdn_core::defense::privacy::evaluate_relay_world(seed);
        writeln!(
            s,
            "  TURN relay world: {} KB P2P through the relay ({} KB relayed), \
             real IPs leaked: {leaked}\n",
            p2p / 1000,
            relayed / 1000
        )?;
    }
    Ok(())
}
