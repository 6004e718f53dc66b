//! Ablation sweeps as a pooled workload.
//!
//! This module runs the design-knob sweeps as a single flat list of
//! independent worlds so they can fan out across a [`WorldPool`] and
//! render to a deterministic report — the workload half of `sim_bench`
//! and the subject of the determinism test.

use pdn_core::defense::integrity;
use pdn_core::defense::privacy;
use pdn_core::ip_leak::{self, rt_news_population};
use pdn_core::pollution::{self, PollutionMode};
use pdn_core::worldpool::{derive_seed, WorldPool};
use pdn_provider::{MatchingPolicy, ProviderProfile};

/// Scope of an ablation run.
#[derive(Debug, Clone, Copy)]
pub struct AblationConfig {
    /// Wild-harvest duration per matching-policy point, in days.
    pub harvest_days: f64,
    /// Whether to include the (slow) TURN relay-mode world.
    pub include_relay: bool,
}

impl AblationConfig {
    /// The full sweep `sim_bench` times.
    pub fn full() -> Self {
        AblationConfig {
            harvest_days: 1.0,
            include_relay: true,
        }
    }

    /// A trimmed sweep for tests: shorter harvests, no relay world.
    pub fn quick() -> Self {
        AblationConfig {
            harvest_days: 0.25,
            include_relay: false,
        }
    }
}

/// One ablation sweep point: a label plus an independent world to run.
enum Point {
    Slowstart(u64),
    Matching(&'static str, MatchingPolicy),
    Flood(usize),
    Relay,
}

impl Point {
    fn run(&self, cfg: &AblationConfig, seed: u64) -> String {
        match self {
            Point::Slowstart(k) => {
                let mut profile = ProviderProfile::peer5();
                profile.slow_start_segments = *k;
                let r = pollution::run_pollution(&profile, PollutionMode::FromSeq(*k), 2, seed);
                format!(
                    "slowstart k={k}: polluted={} tainted={}/{}",
                    r.attack_succeeded(),
                    r.victim_polluted_played,
                    r.victim_total_played
                )
            }
            Point::Matching(label, policy) => {
                let r =
                    ip_leak::run_wild(&rt_news_population(), *policy, "US", cfg.harvest_days, seed);
                format!(
                    "matching {label}: uniques={} countries={} bogons={}",
                    r.unique_ips,
                    r.countries.len(),
                    r.bogons
                )
            }
            Point::Flood(attackers) => {
                let f = integrity::fake_im_flood(*attackers, 8);
                format!(
                    "im_flood n={attackers}: reports={} refetches={} blacklisted={}",
                    f.fake_reports, f.cdn_refetches, f.blacklisted
                )
            }
            Point::Relay => {
                let (p2p, relayed, leaked) = privacy::evaluate_relay_world(seed);
                format!("relay: p2p={p2p} relayed={relayed} leaked={leaked}")
            }
        }
    }
}

/// The rendered sweep: one line per point, in sweep order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationReport {
    /// One `"name: result"` line per sweep point.
    pub lines: Vec<String>,
}

impl AblationReport {
    /// Renders the whole sweep as one string (the determinism-test unit).
    pub fn render(&self) -> String {
        let mut out = String::from("ABLATIONS\n");
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// Runs every ablation sweep point as an independent world on `pool`.
///
/// Point `i` gets seed `derive_seed(seed, i)`, so the report is a pure
/// function of `(cfg, seed)` — identical at any worker count.
pub fn ablation_suite(cfg: AblationConfig, seed: u64, pool: &WorldPool) -> AblationReport {
    let mut points = vec![
        Point::Slowstart(1),
        Point::Slowstart(3),
        Point::Slowstart(6),
        Point::Matching("global", MatchingPolicy::Global),
        Point::Matching("country", MatchingPolicy::SameCountry),
        Point::Matching("isp", MatchingPolicy::SameIsp),
        Point::Flood(5),
        Point::Flood(20),
    ];
    if cfg.include_relay {
        points.push(Point::Relay);
    }
    let lines = pool.run(points.len(), |i| {
        points[i].run(&cfg, derive_seed(seed, i as u64))
    });
    AblationReport { lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_deterministic_and_labelled() {
        let a = ablation_suite(AblationConfig::quick(), 42, &WorldPool::serial());
        let b = ablation_suite(AblationConfig::quick(), 42, &WorldPool::new(4));
        assert_eq!(a.render(), b.render());
        assert_eq!(a.lines.len(), 8);
        assert!(a.render().contains("slowstart k=1"));
        assert!(a.render().contains("matching isp"));
    }
}
