//! Differential, golden and property coverage for the federated tracker
//! plane.
//!
//! Three contracts: (1) a 1-region federation is *byte-identical* to the
//! single-tracker harness on the same seed and rate plan — the federation
//! adds nothing to the serial path; (2) the outcomes of three short
//! federated runs (K=1 steady, K=2 spill, K=4 failover) match a committed
//! golden line for line; (3) failover handoff conserves sessions — every
//! session extracted from a dead tracker is admitted, explicitly denied,
//! or turned away at the pool cap (never silently lost, never
//! duplicated), and peer ids are never recycled across the migration.

use std::collections::HashSet;
use std::time::Duration;

use pdn_provider::service::{
    run_federation, run_service, FederationConfig, FederationReport, ServiceConfig,
};
use pdn_simnet::shard::ShardMode;
use pdn_simnet::{RatePlan, SimTime};
use proptest::prelude::*;

fn base_cfg(seed: u64, plan: RatePlan) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(plan);
    cfg.seed = seed;
    cfg.run_for = Duration::from_secs(4);
    cfg.mean_session = Duration::from_secs(2);
    cfg
}

/// K=1 federation ≡ `run_service`, across every rate-plan shape the bench
/// sweeps, pinned on the full debug-formatted report (every counter and
/// histogram bucket).
#[test]
fn one_region_federation_is_byte_identical_to_run_service() {
    let plans = [
        RatePlan::Steady { per_sec: 400.0 },
        RatePlan::FlashCrowd {
            base_per_sec: 200.0,
            mult: 5.0,
            at: SimTime::from_secs(2),
            dur: Duration::from_secs(1),
        },
        RatePlan::Failover {
            base_per_sec: 200.0,
            mult: 2.0,
            at: SimTime::from_secs(2),
        },
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        for seed in [1u64, 77] {
            let cfg = base_cfg(seed, plan.clone());
            let single = run_service(&cfg);
            let mut fed = FederationConfig::new(1, plan.clone());
            fed.base = cfg.clone();
            fed.mode = ShardMode::Inline;
            let federated = run_federation(&fed);
            assert_eq!(
                format!("{:?}", federated.per_region[0]),
                format!("{single:?}"),
                "plan #{i} seed {seed}: K=1 diverged from the serial harness"
            );
            assert_eq!(federated.exchanged, 0, "K=1 has no cross-region traffic");
        }
    }
}

/// The same federated config must produce the same report run-to-run and
/// across inline/threaded shard scheduling (the check.sh identity gate in
/// library form), including under failover traffic.
#[test]
fn federation_reports_are_reproducible_across_modes_and_runs() {
    let mut fed = FederationConfig::new(4, RatePlan::Steady { per_sec: 250.0 });
    fed.base = base_cfg(9, RatePlan::Steady { per_sec: 250.0 });
    fed.fail_region = Some((1, Duration::from_secs(2)));
    fed.mode = ShardMode::Inline;
    let a = run_federation(&fed);
    let b = run_federation(&fed);
    fed.mode = ShardMode::Threaded;
    let c = run_federation(&fed);
    let key = |r: &pdn_provider::service::FederationReport| {
        format!("{:?}|{:?}|{:?}", r.per_region, r.handoffs, r.aggregate)
    };
    assert_eq!(key(&a), key(&b), "double run diverged");
    assert_eq!(key(&a), key(&c), "inline vs threaded diverged");
    assert_eq!(c.mode, "threaded");
}

/// Committed outcomes of three short federated runs: K=1 steady, K=2
/// under overload spill, K=4 with a failed region.
const FEDERATION_GOLDEN: &str = include_str!("goldens/federation.txt");

/// One line per region (every report counter, JTFS p50/p99) and one line
/// of federation counters, with the hand-off list folded into an FNV-1a
/// hash. The shard mode is left out: it names the host, not the outcome.
fn canonical(name: &str, rep: &FederationReport) -> String {
    let mut out = format!("# {name}\n");
    for (r, s) in rep.per_region.iter().enumerate() {
        out += &format!(
            "region {r} arrivals={} joins_ok={} joins_denied={} first_segments={} \
             first_segments_measured={} joins_ok_measured={} leaves={} turned_away={} \
             served_frames={} batch_hits={} peak_clients={} capture_dropped={} \
             capture_filtered={} capture_kept={} cdn_requests={} cdn_egress_bytes={} \
             net_events={} shed={:?} jtfs_n={} jtfs_p50={} jtfs_p99={} rtt_p50={}\n",
            s.arrivals,
            s.joins_ok,
            s.joins_denied,
            s.first_segments,
            s.first_segments_measured,
            s.joins_ok_measured,
            s.leaves,
            s.turned_away,
            s.served_frames,
            s.batch_hits,
            s.peak_clients,
            s.capture_dropped,
            s.capture_filtered,
            s.capture_kept,
            s.cdn_requests,
            s.cdn_egress_bytes,
            s.net_events,
            s.shed,
            s.jtfs.count(),
            s.jtfs.quantile(0.5),
            s.jtfs.quantile(0.99),
            s.rtt.quantile(0.5),
        );
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for h in &rep.handoffs {
        for word in [
            h.old_global,
            h.new_global,
            h.migrated_at.as_nanos(),
            h.completed_at.as_nanos(),
        ] {
            for b in word.to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    out += &format!(
        "federation migrated_out={} migrated_in={} handoffs_denied={} \
         handoffs_turned_away={} handoffs_stranded={} spilled={} dead_dropped={} \
         windows={} exchanged={} handoffs={} handoffs_fnv={hash:016x} \
         handoff_latency_p50={}\n",
        rep.migrated_out,
        rep.migrated_in,
        rep.handoffs_denied,
        rep.handoffs_turned_away,
        rep.handoffs_stranded,
        rep.spilled,
        rep.dead_dropped,
        rep.windows,
        rep.exchanged,
        rep.handoffs.len(),
        rep.handoff_latency.quantile(0.5),
    );
    out
}

/// The federation's virtual-time outcomes are pinned, not only "identical
/// across modes". A mismatch names the first differing line; after a
/// deliberate change of behaviour, replace
/// `crates/provider/tests/goldens/federation.txt` with the printed output
/// and say why it moved.
#[test]
fn federation_outcomes_match_golden() {
    let steady = RatePlan::Steady { per_sec: 400.0 };
    let mut k1 = FederationConfig::new(1, steady.clone());
    k1.base = base_cfg(3, steady);

    // Region capacity ~400 joins/s offered 1,500/s: the home join queue
    // passes the spill point and the router sheds load sideways.
    let hot = RatePlan::Steady { per_sec: 1_500.0 };
    let mut k2 = FederationConfig::new(2, hot.clone());
    k2.base = base_cfg(5, hot);
    k2.base.tick_budget = 8;
    k2.spill_threshold = 64;

    let light = RatePlan::Steady { per_sec: 250.0 };
    let mut k4 = FederationConfig::new(4, light.clone());
    k4.base = base_cfg(9, light);
    k4.fail_region = Some((1, Duration::from_secs(2)));

    let mut actual = String::new();
    for (name, mut fed) in [("k1_steady", k1), ("k2_spill", k2), ("k4_failover", k4)] {
        fed.mode = ShardMode::Inline;
        actual += &canonical(name, &run_federation(&fed));
    }
    if actual == FEDERATION_GOLDEN {
        return;
    }
    let first = FEDERATION_GOLDEN
        .lines()
        .zip(actual.lines())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| {
            FEDERATION_GOLDEN
                .lines()
                .count()
                .min(actual.lines().count())
        });
    panic!(
        "federation outcomes differ from the golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         full output:\n{actual}",
        first + 1,
        FEDERATION_GOLDEN.lines().nth(first),
        actual.lines().nth(first),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Failover handoff conservation, over random seeds, loads, region
    /// counts, and failover instants:
    ///
    /// - every migrated session is admitted, denied, or turned away;
    /// - no session is duplicated (old ids unique, new ids unique);
    /// - peer ids are never recycled (new global ids are disjoint from
    ///   every id the dead tracker handed out).
    #[test]
    fn handoff_conserves_sessions_and_never_recycles_ids(
        seed in 1u64..1_000,
        per_sec in 150u64..450,
        regions in 2usize..=4,
        fail_region in 0usize..4,
        fail_ms in 1_500u64..2_800,
    ) {
        let fail_region = fail_region % regions;
        let plan = RatePlan::Steady { per_sec: per_sec as f64 };
        let mut fed = FederationConfig::new(regions, plan.clone());
        fed.base = base_cfg(seed, plan);
        fed.fail_region = Some((fail_region, Duration::from_millis(fail_ms)));
        fed.mode = ShardMode::Inline;
        let rep = run_federation(&fed);

        prop_assert!(rep.migrated_out > 0, "failover at {fail_ms}ms migrated nothing");
        prop_assert_eq!(
            rep.migrated_out,
            rep.migrated_in + rep.handoffs_denied + rep.handoffs_turned_away,
            "sessions lost or invented across the migration"
        );
        prop_assert_eq!(rep.handoffs_stranded, 0, "K>=2 always has a live sibling");
        prop_assert_eq!(rep.migrated_in, rep.handoffs.len() as u64);
        prop_assert_eq!(rep.handoff_latency.count(), rep.migrated_in);

        // No duplication: a live session migrates exactly once.
        let old: Vec<u64> = rep
            .handoffs
            .iter()
            .map(|h| h.old_global)
            .filter(|&id| id != 0)
            .collect();
        let old_set: HashSet<u64> = old.iter().copied().collect();
        prop_assert_eq!(old.len(), old_set.len(), "a session completed two handoffs");

        // No recycling: target-assigned ids are fresh, globally.
        let new_set: HashSet<u64> = rep.handoffs.iter().map(|h| h.new_global).collect();
        prop_assert_eq!(
            new_set.len(),
            rep.handoffs.len(),
            "a target tracker recycled a peer id"
        );
        prop_assert!(
            new_set.is_disjoint(&old_set),
            "a migrated session was re-issued an old id"
        );
        for h in &rep.handoffs {
            let target = (h.new_global >> 56) as usize;
            prop_assert!(target < regions && target != fail_region,
                "handoff admitted by region {target}, which is dead or out of range");
            prop_assert!(h.completed_at >= h.migrated_at);
        }
    }
}
