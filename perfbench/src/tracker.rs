//! `tracker_knee` and `tracker_overload`: one open-loop `ServiceWorld`
//! (the `service_bench` base configuration) at the nominal join rate, and
//! at ten times it under a greeter flood.

use std::time::Duration;

use pdn_provider::service::{CaptureScope, InboxConfig, ServiceConfig, ServiceReport};
use pdn_simnet::RatePlan;

/// The seed the service goldens are pinned to.
pub const DEFAULT_SEED: u64 = 1;

/// Greeter-flood rate of the overload workload (junk frames per second).
const OVERLOAD_GREETERS_PER_SEC: f64 = 5_000.0;

/// `service_bench`'s base serving config: 10 virtual seconds, 5 ms tick,
/// 60-unit budget (3,000 joins/s nominal), signaling-only capture.
pub fn base(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(RatePlan::Steady { per_sec: 0.0 });
    cfg.seed = seed;
    cfg.run_for = Duration::from_secs(10);
    cfg.tick = Duration::from_millis(5);
    cfg.tick_budget = 60;
    cfg.inbox = InboxConfig::default();
    cfg.mean_session = Duration::from_secs(8);
    cfg.stats_every = Duration::from_secs(4);
    cfg.max_clients = 60_000;
    cfg.ramp = Duration::from_secs(1);
    cfg.capture = CaptureScope::ServerSignaling;
    cfg
}

/// Steady Poisson arrivals at the nominal capacity.
pub fn knee(seed: u64) -> ServiceConfig {
    let mut cfg = base(seed);
    cfg.plan = RatePlan::Steady {
        per_sec: cfg.nominal_capacity_per_sec(),
    };
    cfg
}

/// Ten times the nominal rate plus a greeter flood.
pub fn overload(seed: u64) -> ServiceConfig {
    let mut cfg = base(seed);
    cfg.plan = RatePlan::Steady {
        per_sec: cfg.nominal_capacity_per_sec() * 10.0,
    };
    cfg.greeter_per_sec = OVERLOAD_GREETERS_PER_SEC;
    cfg
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The deterministic result row: every count and virtual-time percentile
/// of a report. It must repeat byte for byte across repetitions.
pub fn row(r: &ServiceReport, cfg: &ServiceConfig) -> String {
    format!(
        "arrivals={} joins_ok={} joins_denied={} turned_away={} first_segments={} leaves={} \
         served_frames={} batch_hits={} net_events={} shed_greeter={} shed_gossip={} \
         shed_integrity={} denied_at_inbox={} backpressured={} inbox_peak_depth={} \
         capture_kept={} capture_dropped={} capture_filtered={} cdn_requests={} \
         goodput_per_s={:.1} jtfs_p50_ms={:.3} jtfs_p99_ms={:.3} jtfs_p999_ms={:.3} \
         rtt_p50_ms={:.3} rtt_p99_ms={:.3}",
        r.arrivals,
        r.joins_ok,
        r.joins_denied,
        r.turned_away,
        r.first_segments,
        r.leaves,
        r.served_frames,
        r.batch_hits,
        r.net_events,
        r.shed.shed_greeter,
        r.shed.shed_gossip,
        r.shed.shed_integrity,
        r.shed.denied_joins,
        r.shed.backpressured,
        r.shed.peak_depth,
        r.capture_kept,
        r.capture_dropped,
        r.capture_filtered,
        r.cdn_requests,
        r.measured_goodput_per_sec(cfg),
        ms(r.jtfs.quantile(0.50)),
        ms(r.jtfs.quantile(0.99)),
        ms(r.jtfs.quantile(0.999)),
        ms(r.rtt.quantile(0.50)),
        ms(r.rtt.quantile(0.99)),
    )
}

/// The committed rows at [`DEFAULT_SEED`].
pub const GOLDEN_KNEE: &str = include_str!("../goldens/tracker_knee.txt");
/// See [`GOLDEN_KNEE`].
pub const GOLDEN_OVERLOAD: &str = include_str!("../goldens/tracker_overload.txt");

/// The virtual-time outcome metrics of a report:
/// `(goodput_per_s, jtfs_p50_ms, jtfs_p99_ms, join_fail_pct)`.
pub fn outcome(r: &ServiceReport, cfg: &ServiceConfig) -> [f64; 4] {
    [
        r.measured_goodput_per_sec(cfg),
        ms(r.jtfs.quantile(0.50)),
        ms(r.jtfs.quantile(0.99)),
        100.0 * (r.joins_denied + r.turned_away) as f64 / r.arrivals.max(1) as f64,
    ]
}
