//! Federated tracker plane: K shared-nothing regional trackers serving
//! one global audience under conservative-PDES.
//!
//! The paper's providers hang their whole audience off a handful of
//! signaling trackers — the same single-rendezvous bottleneck that limits
//! Snowflake's broker. This module scales the open-loop service harness
//! *out*: each region is a full [`ServiceWorld`] (signaling server +
//! bounded inboxes + pooled clients + its own CDN edge), which implements
//! [`pdn_simnet::shard::ShardWorld`] itself, run under
//! [`pdn_simnet::shard::run_sharded`]. A single-tracker run and a
//! federated one differ only in K. Regions exchange two kinds of
//! cross-shard traffic, both stamped one inter-region latency into the
//! future so the lookahead invariant holds by construction:
//!
//! - **Spilled arrivals** — the region-affinity admission router sends
//!   each viewer to its home tracker, but when the home join queue is
//!   already `spill_threshold` deep (or the home tracker is dead), the
//!   arrival re-routes to the next region instead of piling onto a queue
//!   that will deny it anyway. Routed arrivals never re-spill (no
//!   ping-pong).
//! - **Session handoffs** — a failover no longer just multiplies offered
//!   load ([`RatePlan::Failover`]): at the failover instant the dead
//!   tracker's live sessions *migrate*. Each carried session re-joins the
//!   next region with its old global peer id and (for watching sessions
//!   whose fetch completed post-failover) its remaining availability
//!   window; the target's `JoinOk` closes the handoff and its latency is
//!   recorded from the failover instant.
//!
//! This module holds the public configuration and report and builds the
//! K worlds; the routing itself lives in the world's one dispatcher, and
//! each region's counters come back through one end-of-run summary.
//!
//! Global peer ids are `(region << 56) | local_id`; locals are monotone
//! per tracker and regions are fixed, so no id is ever recycled — the
//! handoff property test pins that, along with conservation (every
//! migrated session is admitted, explicitly denied, or turned away at the
//! pool cap; none silently lost).
//!
//! Determinism: at K=1 the shard runner reduces to the serial loop and the
//! router never spills, so a 1-region federation is *byte-identical* to
//! [`run_service`] on the same config (pinned by
//! `tests/federation_differential.rs`). At any K the report is identical
//! across inline/threaded shard modes and across repeated runs, which the
//! bench double-runs and `check.sh` gate on.

use std::time::Duration;

use pdn_simnet::shard::{run_sharded, ShardMode};
use pdn_simnet::{LatencyHistogram, RatePlan, SimTime};

use super::harness::{ServiceConfig, ServiceReport, ServiceWorld};

/// Everything one federated run needs to know.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Per-region template. Region `r` runs this config with seed
    /// `base.seed + r·φ` (region 0 keeps the base seed, which is what
    /// makes the K=1 differential exact); every region gets the full
    /// `plan`, so aggregate offered load is K× the single-tracker load.
    pub base: ServiceConfig,
    /// Number of regional trackers (K ≥ 1).
    pub regions: usize,
    /// Minimum inter-region link latency — the conservative lookahead.
    /// Every cross-region message is stamped exactly this far ahead.
    pub inter_region_latency: Duration,
    /// Join-queue depth at which the admission router spills a fresh
    /// arrival to the next region instead of the home tracker.
    /// `usize::MAX` disables spilling. Ignored at K=1.
    pub spill_threshold: usize,
    /// Kill tracker `(region, at)`: it stops draining, inbound frames are
    /// dropped and counted, and live sessions migrate to the next region.
    pub fail_region: Option<(usize, Duration)>,
    /// How the shard runner maps regions onto threads.
    pub mode: ShardMode,
}

impl FederationConfig {
    /// A federation of `regions` trackers over a per-region `plan`, with
    /// service-scale defaults (30 ms inter-region links, spill at 4× the
    /// tick budget, no failover, honest auto threading).
    pub fn new(regions: usize, plan: RatePlan) -> Self {
        let base = ServiceConfig::new(plan);
        FederationConfig {
            spill_threshold: base.tick_budget as usize * 4,
            base,
            regions,
            inter_region_latency: Duration::from_millis(30),
            fail_region: None,
            mode: ShardMode::Auto,
        }
    }

    /// The config region `r` actually runs.
    pub fn region_cfg(&self, r: usize) -> ServiceConfig {
        let mut cfg = self.base.clone();
        cfg.seed = self
            .base
            .seed
            .wrapping_add((r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        cfg
    }
}

/// A completed cross-region handoff, in global peer-id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffRecord {
    /// Global peer id the session held on the failed tracker (0 if it
    /// died mid-join, before an id was assigned).
    pub old_global: u64,
    /// Global peer id assigned by the target tracker.
    pub new_global: u64,
    /// Failover instant the session left the dead region.
    pub migrated_at: SimTime,
    /// `JoinOk` instant at the target — `completed_at - migrated_at` is
    /// the handoff latency.
    pub completed_at: SimTime,
}

/// Counters and per-region reports from one federated run. Deterministic
/// per [`FederationConfig`], byte-identical across shard modes.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// One [`ServiceReport`] per region, region order.
    pub per_region: Vec<ServiceReport>,
    /// All regions merged — the aggregate-knee numerator.
    pub aggregate: ServiceReport,
    /// Every completed handoff, target-region admission order.
    pub handoffs: Vec<HandoffRecord>,
    /// Failover-to-`JoinOk` latency of completed handoffs (ns).
    pub handoff_latency: LatencyHistogram,
    /// Sessions extracted from a failed tracker and shipped out.
    pub migrated_out: u64,
    /// Handoff re-joins the target tracker admitted (`JoinOk`).
    pub migrated_in: u64,
    /// Handoff re-joins explicitly denied at the target (overload).
    pub handoffs_denied: u64,
    /// Handoff re-joins dropped at the target's client-pool cap.
    pub handoffs_turned_away: u64,
    /// Migrated sessions with no live region to go to (K=1 failover).
    pub handoffs_stranded: u64,
    /// Fresh arrivals re-routed off an overloaded or dead home region.
    pub spilled: u64,
    /// Server-bound frames dropped at dead trackers.
    pub dead_dropped: u64,
    /// Lookahead windows the shard runner executed.
    pub windows: u64,
    /// Cross-region messages exchanged at barriers.
    pub exchanged: u64,
    /// Execution path actually taken: `"inline"` or `"threaded"`.
    pub mode: &'static str,
    /// Region count.
    pub regions: usize,
}

/// Runs one federated scenario to completion. At `regions == 1` this is
/// byte-identical to [`run_service`] on `cfg.base` (modulo nothing — the
/// differential test compares debug-formatted reports).
pub fn run_federation(cfg: &FederationConfig) -> FederationReport {
    assert!(cfg.regions >= 1, "a federation needs at least one region");
    let mut worlds: Vec<ServiceWorld> = (0..cfg.regions)
        .map(|r| ServiceWorld::region(cfg, r))
        .collect();
    let deadline = worlds[0].deadline();
    let run = run_sharded(&mut worlds, cfg.inter_region_latency, deadline, cfg.mode);

    let mut per_region = Vec::with_capacity(cfg.regions);
    let mut handoffs = Vec::new();
    let mut handoff_latency = LatencyHistogram::new();
    let (mut migrated_out, mut handoffs_denied, mut handoffs_turned_away) = (0, 0, 0);
    let (mut handoffs_stranded, mut spilled, mut dead_dropped) = (0, 0, 0);
    for world in worlds {
        let (report, ledger) = world.finish();
        for h in &ledger.handoffs {
            handoff_latency
                .record(h.completed_at.saturating_since(h.migrated_at).as_nanos() as u64);
        }
        handoffs.extend(ledger.handoffs);
        migrated_out += ledger.migrated_out;
        handoffs_denied += ledger.handoffs_denied;
        handoffs_turned_away += ledger.handoffs_turned_away;
        handoffs_stranded += ledger.handoffs_stranded;
        spilled += ledger.spilled_out;
        dead_dropped += ledger.dead_dropped;
        per_region.push(report);
    }
    let mut aggregate = per_region[0].clone();
    for r in &per_region[1..] {
        aggregate.merge(r);
    }
    let migrated_in = handoffs.len() as u64;
    FederationReport {
        per_region,
        aggregate,
        handoffs,
        handoff_latency,
        migrated_out,
        migrated_in,
        handoffs_denied,
        handoffs_turned_away,
        handoffs_stranded,
        spilled,
        dead_dropped,
        windows: run.windows,
        exchanged: run.exchanged,
        mode: run.mode,
        regions: cfg.regions,
    }
}

#[cfg(test)]
mod tests {
    use super::super::harness::run_service;
    use super::*;

    fn small_base() -> ServiceConfig {
        let mut cfg = ServiceConfig::new(RatePlan::Steady { per_sec: 300.0 });
        cfg.run_for = Duration::from_secs(4);
        cfg.mean_session = Duration::from_secs(2);
        cfg
    }

    #[test]
    fn one_region_matches_run_service_exactly() {
        let base = small_base();
        let mut fed = FederationConfig::new(1, base.plan.clone());
        fed.base = base.clone();
        fed.mode = ShardMode::Inline;
        let single = run_service(&base);
        let federated = run_federation(&fed);
        assert_eq!(
            format!("{:?}", federated.per_region[0]),
            format!("{single:?}"),
            "K=1 federation must reduce to the serial harness"
        );
        assert_eq!(federated.exchanged, 0);
        assert_eq!(federated.spilled, 0);
        assert_eq!(federated.migrated_out, 0);
    }

    #[test]
    fn reports_identical_across_shard_modes() {
        let mut fed = FederationConfig::new(2, RatePlan::Steady { per_sec: 300.0 });
        fed.base = small_base();
        fed.fail_region = Some((0, Duration::from_secs(2)));
        fed.mode = ShardMode::Inline;
        let inline = run_federation(&fed);
        fed.mode = ShardMode::Threaded;
        let threaded = run_federation(&fed);
        assert_eq!(
            format!("{:?}", inline.per_region),
            format!("{:?}", threaded.per_region)
        );
        assert_eq!(inline.handoffs, threaded.handoffs);
        assert_eq!(inline.spilled, threaded.spilled);
        assert_eq!(inline.windows, threaded.windows);
        assert_eq!(threaded.mode, "threaded");
    }

    #[test]
    fn failover_migrates_live_sessions() {
        let mut fed = FederationConfig::new(2, RatePlan::Steady { per_sec: 300.0 });
        fed.base = small_base();
        fed.fail_region = Some((0, Duration::from_secs(2)));
        fed.mode = ShardMode::Inline;
        let rep = run_federation(&fed);
        assert!(
            rep.migrated_out > 0,
            "live sessions must migrate at failover"
        );
        assert_eq!(
            rep.migrated_out,
            rep.migrated_in
                + rep.handoffs_denied
                + rep.handoffs_turned_away
                + rep.handoffs_stranded,
            "every migrated session is admitted, denied, turned away, or stranded"
        );
        assert_eq!(rep.handoffs_stranded, 0, "K=2 always has a live sibling");
        assert!(rep.dead_dropped > 0, "dead tracker drops inbound frames");
        assert!(
            rep.handoff_latency.count() == rep.migrated_in,
            "one latency sample per completed handoff"
        );
    }

    #[test]
    fn overload_spills_to_neighbor() {
        let mut fed = FederationConfig::new(2, RatePlan::Steady { per_sec: 300.0 });
        fed.base = small_base();
        // Region 0 at 10× its knee: the home queue passes the spill
        // threshold and the router sheds load sideways.
        fed.base.plan = RatePlan::Steady { per_sec: 30_000.0 };
        fed.spill_threshold = 64;
        fed.mode = ShardMode::Inline;
        let rep = run_federation(&fed);
        assert!(
            rep.spilled > 0,
            "overload must spill arrivals to the neighbor"
        );
    }
}
