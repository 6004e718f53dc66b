//! `paper_repro`: every artifact the `tables` binary prints (Tables I–VI,
//! Fig. 4–5, §IV-B/D, §V-A/C) plus the full ablation suite, serial.
//!
//! The artifacts are grouped by the `pdn_bench` entry point that computes
//! them; each group is rendered exactly as `tables` prints it and timed
//! on the process CPU clock. Set-up builds the detection corpus, which the
//! Tables I–IV pipeline then consumes (the other entry points regenerate
//! their own inputs from the seed, as they do in `tables`).

use pdn_bench::ablations::{ablation_suite, AblationConfig};
use pdn_bench::{
    figure4, ip_leak_wild_pooled, privacy_mitigation_pooled, table5_pooled, table6, token_defense,
};
use pdn_core::squatting::bandwidth_scaling_pooled;
use pdn_core::WorldPool;
use pdn_detector::{corpus, tables, DetectionReport};
use pdn_provider::ProviderProfile;
use pdn_simnet::{profile, SimRng};

use crate::sys::cpu_timed;

/// The seed the paper reproduction is pinned to.
pub const DEFAULT_SEED: u64 = pdn_bench::SEED;

/// Profiler phases reported by the traced run (inclusive, never summed:
/// crypto nests inside p2p and tick).
pub const PHASES: [profile::Phase; 5] = [
    profile::Phase::Http,
    profile::Phase::Crypto,
    profile::Phase::P2p,
    profile::Phase::Tick,
    profile::Phase::Signal,
];

/// The detection corpus and the RNG state right after generating it —
/// exactly what `pdn_bench::detection_report` builds before its pipeline.
pub struct Setup {
    eco: corpus::Ecosystem,
    rng: SimRng,
    seed: u64,
}

/// Builds the corpus (the set-up cost of this workload).
pub fn setup(seed: u64) -> Setup {
    let mut rng = SimRng::seed(seed);
    let eco = corpus::generate(corpus::CorpusConfig::default(), &mut rng);
    Setup { eco, rng, seed }
}

/// One rendered artifact group and the CPU its entry point took.
pub struct Artifact {
    pub name: &'static str,
    pub text: String,
    /// CPU seconds, passed through the caller's `scale`.
    pub cpu_s: f64,
}

/// Runs every artifact group once, serially, in `tables` order. Each
/// group's CPU time goes through `scale` right after the group ends (the
/// host-speed correction; pass the identity to keep raw seconds). The
/// group names are those of the per-layer `artifact.<name>.cpu_ms`
/// metrics.
pub fn run(setup: Setup, scale: &mut dyn FnMut(f64) -> f64) -> Vec<Artifact> {
    let Setup { eco, mut rng, seed } = setup;
    let serial = WorldPool::serial();
    let mut out = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> String| {
        let (text, cpu_s) = cpu_timed(f);
        out.push(Artifact {
            name,
            text,
            cpu_s: scale(cpu_s),
        });
    };
    timed("detect", &mut || {
        let report = tables::run_pipeline(&eco, &mut rng);
        let study = pdn_core::freeriding::key_field_study(&eco, &report.keys);
        let mut s = format!("{}\n", report.render_table1());
        s += &format!(
            "{}\n",
            DetectionReport::render_confirmed(&report.table2, "TABLE II: Confirmed PDN websites")
        );
        s += &format!(
            "{}\n",
            DetectionReport::render_confirmed(&report.table3, "TABLE III: Confirmed PDN apps")
        );
        s += &format!("{}\n", report.render_table4());
        s += &format!(
            "§IV-B field study: {} keys extracted, {} valid, {} expired\n",
            study.tested, study.valid, study.expired
        );
        s += &format!(
            "  cross-domain vulnerable: {} / {}    domain-spoofing vulnerable: {} / {}\n\n",
            study.cross_domain_vulnerable, study.valid, study.spoof_vulnerable, study.valid
        );
        s
    });
    timed("table5", &mut || {
        format!("{}\n", table5_pooled(seed, &serial).render())
    });
    timed("table6", &mut || {
        format!("{}\n", table6(300, seed).render())
    });
    timed("fig4", &mut || render_fig4(seed));
    timed("fig5", &mut || render_fig5(seed, &serial));
    timed("ipleak", &mut || render_ipleak(seed, &serial));
    timed("token", &mut || {
        let t = token_defense(seed);
        format!(
            "§V-A token defense: legit={} cross-video-rejected={} replay-rejected={} \
             ttl-rejected={} token={}B (paper: 283B)\n\n",
            t.legit_flow_works,
            t.cross_video_rejected,
            t.replay_rejected,
            t.expired_rejected,
            t.token_bytes
        )
    });
    timed("mitigation", &mut || render_mitigation(seed, &serial));
    timed("ablations", &mut || {
        ablation_suite(AblationConfig::full(), seed, &serial).render()
    });
    out
}

fn render_fig4(seed: u64) -> String {
    let fig = figure4(120, seed);
    let mut s = String::from("FIGURE 4: Resource consumption of serving as a PDN peer\n");
    s += &format!(
        "{:<9} {:>8} {:>10} {:>10} {:>10}\n",
        "viewer", "cpu", "mem MB", "rx MB", "tx MB"
    );
    for m in [&fig.no_peer, &fig.peer_a, &fig.peer_b] {
        s += &format!(
            "{:<9} {:>7.1}% {:>10.1} {:>10.1} {:>10.1}\n",
            m.label,
            m.summary.mean_cpu * 100.0,
            m.summary.mean_mem_bytes / 1e6,
            m.summary.total_rx as f64 / 1e6,
            m.summary.total_tx as f64 / 1e6
        );
    }
    s += &format!(
        "overhead vs no-peer: +{:.0}% CPU, +{:.0}% memory (paper: +15% / +10%)\n\n",
        fig.cpu_overhead() * 100.0,
        fig.mem_overhead() * 100.0
    );
    s
}

fn render_fig5(seed: u64, pool: &WorldPool) -> String {
    let mut s = String::from("FIGURE 5: Bandwidth consumption of serving multiple peers\n");
    s += &format!(
        "{:>9} {:>12} {:>12} {:>9}\n",
        "neighbors", "upload MB", "download MB", "up/down"
    );
    for p in bandwidth_scaling_pooled(&ProviderProfile::peer5(), 5, 90, seed, pool) {
        s += &format!(
            "{:>9} {:>12.1} {:>12.1} {:>8.2}x\n",
            p.neighbors,
            p.seeder_tx as f64 / 1e6,
            p.seeder_rx as f64 / 1e6,
            p.upload_ratio()
        );
    }
    s + "\n"
}

fn render_ipleak(seed: u64, pool: &WorldPool) -> String {
    let (huya, rt) = ip_leak_wild_pooled(7.0, seed, pool);
    let mut s = String::from("§IV-D IP leak in the wild (one week, single controlled peer):\n");
    for r in [&huya, &rt] {
        s += &format!(
            "  {:<10} unique {:>6} (public {:>6}, bogons {:>4}: {} private / {} nat / {} reserved)  \
             countries {:>3}  cities {:>4}  top share {:.0}%\n",
            r.name,
            r.unique_ips,
            r.public_ips,
            r.bogons,
            r.bogon_private,
            r.bogon_cgnat,
            r.bogon_reserved,
            r.countries.len(),
            r.cities,
            r.top_country_share() * 100.0
        );
    }
    s + &format!(
        "  total: {} unique IPs (paper: 7,740)\n\n",
        huya.unique_ips + rt.unique_ips
    )
}

fn render_mitigation(seed: u64, pool: &WorldPool) -> String {
    let (huya_b, rt_b) = ip_leak_wild_pooled(2.0, seed, pool);
    let (huya_m, rt_m) = privacy_mitigation_pooled(2.0, seed, pool);
    let mut s = String::from("§V-C same-country matching (2-day runs, US observer):\n");
    s += &format!(
        "  Huya TV : {} → {} visible IPs (paper: none visible)\n",
        huya_b.unique_ips, huya_m.public_ips
    );
    s += &format!(
        "  RT News : {} → {} visible IPs (paper: 35% remain)\n",
        rt_b.unique_ips, rt_m.unique_ips
    );
    let (p2p, relayed, leaked) = pdn_core::defense::privacy::evaluate_relay_world(seed);
    s + &format!(
        "  TURN relay world: {} KB P2P through the relay ({} KB relayed), \
         real IPs leaked: {leaked}\n\n",
        p2p / 1000,
        relayed / 1000
    )
}

/// `name hash` lines, one per artifact group — the golden file format.
pub fn golden_lines(artifacts: &[Artifact]) -> String {
    artifacts
        .iter()
        .map(|a| format!("{} {}\n", a.name, crate::short_hash(&a.text)))
        .collect()
}

/// The committed hashes at [`DEFAULT_SEED`].
pub const GOLDEN: &str = include_str!("../goldens/paper_repro.txt");

/// Phase totals of one profiled run: `(label, inclusive ms, entries)`.
pub fn profiled<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, f64, u64)>) {
    profile::calibrate_probe_cost();
    profile::reset();
    profile::set_enabled(true);
    let out = f();
    profile::set_enabled(false);
    let snap = profile::snapshot();
    let phases = PHASES
        .iter()
        .map(|&p| {
            let t = snap
                .iter()
                .find(|t| t.phase == p)
                .expect("every phase is in the snapshot");
            (p.label(), t.calibrated_nanos() as f64 / 1e6, t.count)
        })
        .collect();
    (out, phases)
}
