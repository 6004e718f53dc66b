//! Emits `BENCH_service.json`: the open-loop serving numbers for the
//! signaling/tracker plane (`pdn_provider::service`) — knee throughput,
//! p50/p99/p999 join-to-first-segment and signaling RTT per scenario,
//! goodput under 2x / 10x overload (which must plateau via explicit
//! denial, not collapse) — plus the federated tracker plane: a K=1/2/4
//! sweep over steady / flash-crowd / failover traffic with real
//! cross-region session handoff, aggregate-knee scaling, and the
//! wall CPU per admitted join on the batched admission path.
//!
//! ```text
//! cargo run --release -p pdn-bench --bin service_bench \
//!     [-- --quick | --federation] [--seed N]
//! ```
//!
//! Throughput and goodput are **ramp-normalized**: counters only count
//! completions inside `(ramp, run_for]`, so the short `--quick` runs and
//! the long full runs measure the same steady-state window and their
//! numbers are directly comparable (the raw whole-run rates diluted the
//! ramp proportionally to run length, which made the quick 2x goodput
//! read *higher* than the full-run plateau).
//!
//! Every scenario runs twice and the deterministic result row must come
//! back byte-identical; federation scenarios additionally run under both
//! inline and threaded shard scheduling and the rows must not differ by
//! one byte. Wall-clock throughput is reported separately and never
//! gated on.
//!
//! `--quick` runs a small three-point suite plus the federation gate
//! (K=4 aggregate knee >= 3x K=1, shard-mode identity; per-join CPU is
//! printed, not gated). It fails on an SLO breach, on a goodput collapse
//! at 2x, or when the three deterministic rows differ from
//! `tests/goldens/service_quick.txt` — an exact check, so a knee that
//! moves by one join fails it. No JSON is written in quick mode — this is
//! the `scripts/check.sh` guard. `--federation` runs only the federation
//! sweep and prints it (no JSON write — the focused dev loop).
//!
//! `--seed N` reruns everything under a different world seed (default 1;
//! the committed JSON and the quick golden are seed 1, so at any other
//! seed the quick rows are printed and not compared).

use std::time::{Duration, Instant};

use bytes::Bytes;
use pdn_bench::assert_matches_golden;
use pdn_provider::service::{
    run_federation, run_service, CaptureScope, FederationConfig, FederationReport, InboxConfig,
    ServiceConfig, ServiceReport,
};
use pdn_provider::signaling::{AdmissionBatch, SignalingServer};
use pdn_provider::{CustomerAccount, ProviderProfile, SignalMsg};
use pdn_simnet::shard::ShardMode;
use pdn_simnet::{Addr, GeoIpService, RatePlan, SimRng, SimTime};
use pdn_webrtc::{Candidate, CandidateKind, Certificate, SessionDescription};

/// p999 join-to-first-segment budget for a healthy (under-knee) load,
/// global audience against a single-region tracker.
const SLO_JTFS_P999_MS: f64 = 1_000.0;

/// Goodput at 10x overload must hold at least this share of goodput at
/// 2x — the plateau criterion (shedding, not collapsing).
const PLATEAU_10X_VS_2X: f64 = 0.7;

/// Quick-mode plateau: goodput at 2x overload vs the knee point.
const PLATEAU_2X_VS_KNEE: f64 = 0.6;

/// K=4 aggregate knee must reach this multiple of the K=1 knee in
/// virtual time (shared-nothing regions; spill and handoff are the only
/// couplings).
const FED_K4_SCALING_FLOOR: f64 = 3.0;

/// The three `--quick` rows at the default seed, one JSON row per line.
const QUICK_GOLDEN_PATH: &str = "tests/goldens/service_quick.txt";
const QUICK_GOLDEN: &str = include_str!("../../../../tests/goldens/service_quick.txt");
const QUICK_GOLDEN_SEED: u64 = 1;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One scenario's deterministic result row (everything but wall time).
struct Row {
    name: String,
    offered_per_sec: f64,
    json: String,
    report: ServiceReport,
    cfg: ServiceConfig,
}

impl Row {
    /// Ramp-normalized goodput (first segments inside the measured
    /// window per second).
    fn goodput(&self) -> f64 {
        self.report.measured_goodput_per_sec(&self.cfg)
    }

    /// Ramp-normalized admission rate — the knee unit.
    fn joins_ok_per_sec(&self) -> f64 {
        self.report.measured_joins_ok_per_sec(&self.cfg)
    }
}

/// Renders the deterministic JSON row for a report. Byte-identity of this
/// string across reruns (and shard modes) is the determinism gate.
fn render_row(name: &str, offered: f64, cfg: &ServiceConfig, r: &ServiceReport) -> String {
    format!(
        concat!(
            "{{\"name\": \"{}\", \"offered_per_sec\": {:.0}, \"arrivals\": {}, ",
            "\"joins_ok\": {}, \"joins_denied\": {}, \"turned_away\": {}, ",
            "\"first_segments\": {}, \"leaves\": {}, \"goodput_per_sec\": {:.1}, ",
            "\"measured_goodput_per_sec\": {:.1}, \"measured_joins_ok_per_sec\": {:.1}, ",
            "\"jtfs_p50_ms\": {:.3}, \"jtfs_p99_ms\": {:.3}, \"jtfs_p999_ms\": {:.3}, ",
            "\"rtt_p50_ms\": {:.3}, \"rtt_p99_ms\": {:.3}, \"rtt_p999_ms\": {:.3}, ",
            "\"shed_greeter\": {}, \"shed_gossip\": {}, \"shed_integrity\": {}, ",
            "\"denied_at_inbox\": {}, \"backpressured\": {}, ",
            "\"inbox_peak_depth\": {}, \"inbox_peak_bytes\": {}, ",
            "\"batch_hits\": {}, \"served_frames\": {}, \"peak_clients\": {}, ",
            "\"capture_kept\": {}, \"capture_dropped\": {}, \"capture_filtered\": {}, ",
            "\"capture_drop_pct\": {:.2}, ",
            "\"cdn_requests\": {}, \"cdn_egress_bytes\": {}}}"
        ),
        name,
        offered,
        r.arrivals,
        r.joins_ok,
        r.joins_denied,
        r.turned_away,
        r.first_segments,
        r.leaves,
        r.goodput_per_sec(cfg.run_for),
        r.measured_goodput_per_sec(cfg),
        r.measured_joins_ok_per_sec(cfg),
        ms(r.jtfs.quantile(0.50)),
        ms(r.jtfs.quantile(0.99)),
        ms(r.jtfs.quantile(0.999)),
        ms(r.rtt.quantile(0.50)),
        ms(r.rtt.quantile(0.99)),
        ms(r.rtt.quantile(0.999)),
        r.shed.shed_greeter,
        r.shed.shed_gossip,
        r.shed.shed_integrity,
        r.shed.denied_joins,
        r.shed.backpressured,
        r.shed.peak_depth,
        r.shed.peak_bytes,
        r.batch_hits,
        r.served_frames,
        r.peak_clients,
        r.capture_kept,
        r.capture_dropped,
        r.capture_filtered,
        r.capture_drop_pct(),
        r.cdn_requests,
        r.cdn_egress_bytes,
    )
}

/// Runs one scenario twice, asserts the deterministic row is
/// byte-identical, and returns the row plus the first run's wall seconds.
fn run_scenario(name: &str, offered: f64, cfg: &ServiceConfig) -> (Row, f64) {
    let t = Instant::now();
    let report = run_service(cfg);
    let wall = t.elapsed().as_secs_f64();
    let json = render_row(name, offered, cfg, &report);
    let rerun = render_row(name, offered, cfg, &run_service(cfg));
    assert!(
        json == rerun,
        "scenario {name} is nondeterministic:\n  {json}\n  {rerun}"
    );
    // Bounded memory: the pool cap held and the inboxes never outgrew
    // their configured queue caps.
    assert!(report.peak_clients <= cfg.max_clients as u64);
    let cap_total = (cfg.inbox.join_cap
        + cfg.inbox.integrity_cap
        + cfg.inbox.gossip_cap
        + cfg.inbox.greeter_cap) as u64;
    assert!(
        report.shed.peak_depth <= cap_total,
        "{name}: inbox depth {} exceeded the cap total {cap_total}",
        report.shed.peak_depth
    );
    (
        Row {
            name: name.to_string(),
            offered_per_sec: offered,
            json,
            report,
            cfg: cfg.clone(),
        },
        wall,
    )
}

/// The base serving config every scenario derives from. Scenarios only
/// assert on signaling-plane counters, so the capture ring records only
/// tracker-bound frames — CDN and reply traffic no longer churn the ring,
/// and `capture_drop_pct` reads on the traffic the assertions care about.
fn base(seed: u64) -> ServiceConfig {
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

/// The small suite `--quick` gates on; full mode runs it too so its
/// rows land in the committed JSON beside the full-length ones.
fn quick_suite(seed: u64) -> (Row, Row, Row) {
    let mut cfg = base(seed);
    cfg.run_for = Duration::from_secs(4);
    cfg.mean_session = Duration::from_secs(3);
    cfg.stats_every = Duration::from_secs(2);
    let nominal = cfg.nominal_capacity_per_sec();

    let mut light = cfg.clone();
    light.plan = RatePlan::Steady {
        per_sec: nominal * 0.4,
    };
    let (light_row, _) = run_scenario("quick_light", nominal * 0.4, &light);

    let mut knee = cfg.clone();
    knee.plan = RatePlan::Steady { per_sec: nominal };
    let (knee_row, _) = run_scenario("quick_knee", nominal, &knee);

    let mut over = cfg;
    over.plan = RatePlan::Steady {
        per_sec: nominal * 2.0,
    };
    let (over_row, _) = run_scenario("quick_2x", nominal * 2.0, &over);

    (light_row, knee_row, over_row)
}

// ---------------------------------------------------------------------
// Federation sweep
// ---------------------------------------------------------------------

/// One federated scenario's deterministic row plus its run report.
struct FedRow {
    json: String,
    rep: FederationReport,
    cfg_base: ServiceConfig,
}

impl FedRow {
    fn aggregate_joins_ok_per_sec(&self) -> f64 {
        self.rep.aggregate.measured_joins_ok_per_sec(&self.cfg_base)
    }
}

/// Renders the deterministic federation row: the merged aggregate columns
/// plus the cross-region story (spill, migration, handoff latency).
/// Shard mode and wall time are deliberately excluded — this string must
/// be byte-identical across inline/threaded runs.
fn render_fed_row(name: &str, fed: &FederationConfig, rep: &FederationReport) -> String {
    let agg = render_row(
        name,
        fed.base.plan.peak() * fed.regions as f64,
        &fed.base,
        &rep.aggregate,
    );
    // Splice the federation columns in before the closing brace.
    let body = agg.strip_suffix('}').expect("render_row ends with }");
    format!(
        concat!(
            "{}, \"regions\": {}, \"windows\": {}, \"exchanged\": {}, ",
            "\"spilled\": {}, \"migrated_out\": {}, \"migrated_in\": {}, ",
            "\"handoffs_denied\": {}, \"handoffs_turned_away\": {}, ",
            "\"handoffs_stranded\": {}, \"dead_dropped\": {}, ",
            "\"handoff_p50_ms\": {:.3}, \"handoff_p99_ms\": {:.3}}}"
        ),
        body,
        rep.regions,
        rep.windows,
        rep.exchanged,
        rep.spilled,
        rep.migrated_out,
        rep.migrated_in,
        rep.handoffs_denied,
        rep.handoffs_turned_away,
        rep.handoffs_stranded,
        rep.dead_dropped,
        ms(rep.handoff_latency.quantile(0.50)),
        ms(rep.handoff_latency.quantile(0.99)),
    )
}

/// Runs one federated scenario three ways — inline twice (double-run
/// determinism) and threaded once (shard-mode identity) — and asserts
/// all three rows byte-identical.
fn run_fed_scenario(name: &str, fed: &FederationConfig) -> (FedRow, f64) {
    let mut cfg = fed.clone();
    cfg.mode = ShardMode::Inline;
    let t = Instant::now();
    let rep = run_federation(&cfg);
    let wall = t.elapsed().as_secs_f64();
    let json = render_fed_row(name, &cfg, &rep);
    let rerun = render_fed_row(name, &cfg, &run_federation(&cfg));
    assert!(
        json == rerun,
        "federated scenario {name} is nondeterministic:\n  {json}\n  {rerun}"
    );
    cfg.mode = ShardMode::Threaded;
    let threaded = render_fed_row(name, &cfg, &run_federation(&cfg));
    assert!(
        json == threaded,
        "federated scenario {name} differs across shard modes:\n  {json}\n  {threaded}"
    );
    (
        FedRow {
            json,
            rep,
            cfg_base: fed.base.clone(),
        },
        wall,
    )
}

/// The per-region template for the federation sweep (shorter than the
/// single-tracker rows so the K x scenario x mode cross product stays
/// affordable; ramp normalization keeps the rates comparable anyway).
fn fed_base(seed: u64) -> ServiceConfig {
    let mut cfg = base(seed);
    cfg.run_for = Duration::from_secs(6);
    cfg.mean_session = Duration::from_secs(4);
    cfg.stats_every = Duration::from_secs(3);
    cfg
}

/// The K=1/2/4 x steady/flash-crowd/failover sweep. Returns the rows and
/// the (K=1 steady, K=4 steady) aggregate knees for the scaling gate.
fn federation_sweep(seed: u64) -> (Vec<FedRow>, f64, f64) {
    let template = fed_base(seed);
    let nominal = template.nominal_capacity_per_sec();
    let mut rows = Vec::new();
    let (mut k1_knee, mut k4_knee) = (0.0, 0.0);

    for k in [1usize, 2, 4] {
        // Steady at the per-region knee: the aggregate-scaling row.
        let mut fed = FederationConfig::new(k, RatePlan::Steady { per_sec: nominal });
        fed.base = template.clone();
        fed.base.plan = RatePlan::Steady { per_sec: nominal };
        let (row, wall) = run_fed_scenario(&format!("fed_k{k}_steady"), &fed);
        let agg = row.aggregate_joins_ok_per_sec();
        println!(
            "  {:>16}: {:>6.0} agg joins-ok/s across {k} region(s), {} windows, \
             {} exchanged, {:.1}s wall",
            format!("fed_k{k}_steady"),
            agg,
            row.rep.windows,
            row.rep.exchanged,
            wall
        );
        if k == 1 {
            k1_knee = agg;
        }
        if k == 4 {
            k4_knee = agg;
        }
        rows.push(row);

        // Flash crowd in every region at once, under a greeter flood.
        let mut fed = FederationConfig::new(
            k,
            RatePlan::FlashCrowd {
                base_per_sec: nominal * 0.5,
                mult: 6.0,
                at: SimTime::from_secs(2),
                dur: Duration::from_secs(2),
            },
        );
        fed.base = template.clone();
        fed.base.plan = RatePlan::FlashCrowd {
            base_per_sec: nominal * 0.5,
            mult: 6.0,
            at: SimTime::from_secs(2),
            dur: Duration::from_secs(2),
        };
        fed.base.greeter_per_sec = 2_000.0;
        // Flash spikes are exactly when spilling pays: joins queue past
        // the threshold at home while a neighbor still has headroom.
        fed.spill_threshold = fed.base.tick_budget as usize * 2;
        let (row, _) = run_fed_scenario(&format!("fed_k{k}_flash"), &fed);
        println!(
            "  {:>16}: spilled {} arrivals sideways, agg p999 JTFS {:>7.1} ms",
            format!("fed_k{k}_flash"),
            row.rep.spilled,
            ms(row.rep.aggregate.jtfs.quantile(0.999))
        );
        rows.push(row);

        // Real failover: region 0's tracker dies at t=3s; its sessions
        // migrate to the next region (at K=1 there is nowhere to go and
        // the row records exactly that).
        let mut fed = FederationConfig::new(
            k,
            RatePlan::Steady {
                per_sec: nominal * 0.6,
            },
        );
        fed.base = template.clone();
        fed.base.plan = RatePlan::Steady {
            per_sec: nominal * 0.6,
        };
        fed.fail_region = Some((0, Duration::from_secs(3)));
        let (row, _) = run_fed_scenario(&format!("fed_k{k}_failover"), &fed);
        println!(
            "  {:>16}: migrated {} out / {} in, handoff p99 {:>7.1} ms, dead-dropped {}",
            format!("fed_k{k}_failover"),
            row.rep.migrated_out,
            row.rep.migrated_in,
            ms(row.rep.handoff_latency.quantile(0.99)),
            row.rep.dead_dropped
        );
        rows.push(row);
    }
    (rows, k1_knee, k4_knee)
}

// ---------------------------------------------------------------------
// Per-join CPU A/B
// ---------------------------------------------------------------------

fn ab_sdp(seed: u64) -> SessionDescription {
    let mut rng = SimRng::seed(seed);
    SessionDescription {
        ice_ufrag: format!("u{seed}"),
        ice_pwd: format!("p{seed}"),
        fingerprint: Certificate::generate(&mut rng).fingerprint(),
        candidates: vec![Candidate::new(
            CandidateKind::Host,
            Addr::new(20, 0, 0, (seed % 250) as u8, 4000),
        )],
    }
}

fn ab_join_frame(seed: u64) -> Bytes {
    SignalMsg::Join {
        api_key: Some("key-svc".into()),
        token: None,
        origin: "svc.tv".into(),
        video: "v".into(),
        manifest_hash: "m0".into(),
        sdp: ab_sdp(seed),
    }
    .encode()
}

fn ab_addr(i: u32) -> Addr {
    Addr::new(40, (i >> 16) as u8, (i >> 8) as u8, i as u8, 6000)
}

fn ab_server() -> SignalingServer {
    let mut s = SignalingServer::new(ProviderProfile::peer5(), 1);
    s.accounts_mut().register(CustomerAccount::new(
        "svc",
        "key-svc",
        ["svc.tv".to_string()],
    ));
    s
}

/// Wall ns per admitted join through the batched admission path (one
/// `AdmissionBatch` per tick-sized chunk, like the harness drain loop),
/// warm server, best of three passes. Reported, not gated: the work gate
/// on the same path is `join_alloc`'s allocations-per-join bound.
fn per_join_cpu_ns(joins: u32) -> f64 {
    // Tick-sized chunks: the harness drains ~budget/4 joins per tick.
    let chunk = 32;
    let geo = GeoIpService::new();
    let mut s = ab_server();
    // Warm membership: every measured join is introduced to a full
    // neighbor set.
    let seeders: Vec<(Addr, Bytes)> = (1..=64u32)
        .map(|i| (ab_addr(i), ab_join_frame(i as u64)))
        .collect();
    let mut out = Vec::new();
    let mut batch = AdmissionBatch::new();
    s.handle_frames_batch_into(&seeders, SimTime::ZERO, &geo, &mut batch, &mut out);

    let mut best = f64::INFINITY;
    for pass in 0..3u32 {
        let first = 1_000 + pass * joins;
        let frames: Vec<(Addr, Bytes)> = (first..first + joins)
            .map(|i| (ab_addr(i), ab_join_frame(i as u64)))
            .collect();
        let now = SimTime::from_secs(1 + pass as u64);
        let t = Instant::now();
        for c in frames.chunks(chunk) {
            out.clear();
            s.handle_frames_batch_into(c, now, &geo, &mut batch, &mut out);
            std::hint::black_box(&out);
        }
        let ns = t.elapsed().as_nanos() as f64 / joins as f64;
        best = best.min(ns);
    }
    println!("  per-join CPU: {best:.0} ns (batched admission)");
    best
}

/// The `--quick` federation gate: K=4 aggregate knee floor vs K=1,
/// inline/threaded shard identity (inside `run_fed_scenario`), plus the
/// per-join CPU report. Small configs — this runs in check.sh.
fn quick_federation_gate(seed: u64) {
    let mut template = fed_base(seed);
    template.run_for = Duration::from_secs(3);
    template.mean_session = Duration::from_secs(2);
    let nominal = template.nominal_capacity_per_sec();
    template.plan = RatePlan::Steady { per_sec: nominal };

    let mut k1 = FederationConfig::new(1, template.plan.clone());
    k1.base = template.clone();
    let (r1, _) = run_fed_scenario("quick_fed_k1", &k1);
    let mut k4 = FederationConfig::new(4, template.plan.clone());
    k4.base = template.clone();
    let (r4, _) = run_fed_scenario("quick_fed_k4", &k4);
    let (a1, a4) = (
        r1.aggregate_joins_ok_per_sec(),
        r4.aggregate_joins_ok_per_sec(),
    );
    println!(
        "  federation quick: K=1 {a1:.0} -> K=4 {a4:.0} agg joins-ok/s ({:.2}x)",
        a4 / a1.max(1e-9)
    );
    assert!(
        a4 >= a1 * FED_K4_SCALING_FLOOR,
        "federation scaling collapsed: K=4 aggregate {a4:.0} joins-ok/s < \
         {FED_K4_SCALING_FLOOR}x K=1 {a1:.0}"
    );
    per_join_cpu_ns(2_000);
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
    let fed_only = std::env::args().any(|a| a == "--federation");
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().expect("--seed takes a u64"))
        .unwrap_or(1);

    if quick {
        let (light, knee, over) = quick_suite(seed);
        let p999 = ms(light.report.jtfs.quantile(0.999));
        println!(
            "service quick: knee {:.0} joins-ok/s, light p999 JTFS {:.1} ms, 2x goodput {:.0}/s",
            knee.joins_ok_per_sec(),
            p999,
            over.goodput()
        );
        assert!(
            p999 <= SLO_JTFS_P999_MS,
            "SLO breach: p999 join-to-first-segment {p999:.1} ms > budget {SLO_JTFS_P999_MS} ms"
        );
        assert!(
            over.goodput() >= knee.goodput() * PLATEAU_2X_VS_KNEE,
            "overload collapse: 2x goodput {:.0}/s fell below {:.0}% of knee {:.0}/s",
            over.goodput(),
            PLATEAU_2X_VS_KNEE * 100.0,
            knee.goodput()
        );
        let work = [&light, &knee, &over]
            .map(|r| format!("{}\n", r.json))
            .concat();
        if seed == QUICK_GOLDEN_SEED {
            assert_matches_golden(QUICK_GOLDEN_PATH, QUICK_GOLDEN, &work);
            println!("  quick rows match {QUICK_GOLDEN_PATH}");
        } else {
            print!("{work}");
            println!(
                "  no golden applies at seed {seed} ({QUICK_GOLDEN_PATH} is seed \
                 {QUICK_GOLDEN_SEED}); quick rows not compared"
            );
        }
        quick_federation_gate(seed);
        return;
    }

    if fed_only {
        let (_, k1, k4) = federation_sweep(seed);
        let cpu_ns = per_join_cpu_ns(5_000);
        println!(
            "federation: K=1 {k1:.0} -> K=4 {k4:.0} agg joins-ok/s ({:.2}x), per-join CPU \
             {cpu_ns:.0} ns; no JSON written",
            k4 / k1.max(1e-9)
        );
        return;
    }

    let cfg = base(seed);
    let nominal = cfg.nominal_capacity_per_sec();
    let mut rows: Vec<Row> = Vec::new();
    let mut knee_wall_msgs_per_sec = 0.0;

    // Knee sweep: steady loads bracketing the analytic capacity. Leaves
    // share the join-critical budget, so the measured knee sits well
    // under `nominal` — that is the point of measuring it.
    for mult in [0.4, 0.7, 1.0, 1.3] {
        let mut c = cfg.clone();
        c.plan = RatePlan::Steady {
            per_sec: nominal * mult,
        };
        let name = format!("steady_{:.0}", nominal * mult);
        let (row, wall) = run_scenario(&name, nominal * mult, &c);
        if mult == 1.0 {
            knee_wall_msgs_per_sec = row.report.served_frames as f64 / wall.max(1e-9);
        }
        println!(
            "  {:>16}: {:>6.0} offered/s -> {:>6.0} good/s, p999 JTFS {:>8.1} ms, denied {}",
            row.name,
            row.offered_per_sec,
            row.goodput(),
            ms(row.report.jtfs.quantile(0.999)),
            row.report.joins_denied
        );
        rows.push(row);
    }
    let knee_joins_ok = rows
        .iter()
        .map(Row::joins_ok_per_sec)
        .fold(0.0f64, f64::max);

    // Flash crowd: breaking news at t=4s, 6x for 3s, under a greeter
    // flood the whole time.
    let mut flash = cfg.clone();
    flash.plan = RatePlan::FlashCrowd {
        base_per_sec: nominal * 0.5,
        mult: 6.0,
        at: SimTime::from_secs(4),
        dur: Duration::from_secs(3),
    };
    flash.greeter_per_sec = 5_000.0;
    let (row, _) = run_scenario("flash_crowd_6x", nominal * 3.0, &flash);
    println!(
        "  {:>16}: spike p999 JTFS {:>8.1} ms, denied {}, junk refused {}",
        row.name,
        ms(row.report.jtfs.quantile(0.999)),
        row.report.joins_denied,
        row.report.shed.shed_greeter + row.report.shed.backpressured
    );
    rows.push(row);

    // Regional failover as extra offered load on one tracker (the
    // federated rows below model the migration itself).
    let mut failover = cfg.clone();
    failover.plan = RatePlan::Failover {
        base_per_sec: nominal * 0.6,
        mult: 2.5,
        at: SimTime::from_secs(5),
    };
    let (row, _) = run_scenario("failover_2p5x", nominal * 1.5, &failover);
    println!(
        "  {:>16}: post-failover goodput {:>6.0}/s, p999 JTFS {:>8.1} ms",
        row.name,
        row.goodput(),
        ms(row.report.jtfs.quantile(0.999))
    );
    rows.push(row);

    // Sustained overload: goodput must plateau via explicit denial.
    let mut over2 = cfg.clone();
    over2.plan = RatePlan::Steady {
        per_sec: nominal * 2.0,
    };
    let (row2x, _) = run_scenario("overload_2x", nominal * 2.0, &over2);
    let mut over10 = cfg.clone();
    over10.plan = RatePlan::Steady {
        per_sec: nominal * 10.0,
    };
    let (row10x, _) = run_scenario("overload_10x", nominal * 10.0, &over10);
    for r in [&row2x, &row10x] {
        println!(
            "  {:>16}: {:>6.0} offered/s -> {:>6.0} good/s, denied {}, capture drop {:.1}%",
            r.name,
            r.offered_per_sec,
            r.goodput(),
            r.report.joins_denied,
            r.report.capture_drop_pct()
        );
    }
    assert!(
        row10x.goodput() >= row2x.goodput() * PLATEAU_10X_VS_2X,
        "goodput collapsed under 10x overload: {:.0}/s vs {:.0}/s at 2x",
        row10x.goodput(),
        row2x.goodput()
    );
    let (goodput_2x, goodput_10x) = (row2x.goodput(), row10x.goodput());
    rows.push(row2x);
    rows.push(row10x);

    // The quick suite, so its rows sit in the JSON beside the full runs.
    let (q_light, q_knee, q_over) = quick_suite(seed);

    // The federated plane: K=1/2/4 x steady/flash/failover, with the
    // scaling gate and the per-join CPU report.
    println!("federation sweep:");
    let (fed_rows, fed_k1_knee, fed_k4_knee) = federation_sweep(seed);
    assert!(
        fed_k4_knee >= fed_k1_knee * FED_K4_SCALING_FLOOR,
        "federation scaling collapsed: K=4 aggregate {fed_k4_knee:.0} joins-ok/s < \
         {FED_K4_SCALING_FLOOR}x K=1 {fed_k1_knee:.0}"
    );
    let cpu_fast_ns = per_join_cpu_ns(5_000);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"service\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"nominal_capacity_per_sec\": {nominal:.0},\n"));
    out.push_str(&format!(
        "  \"knee_joins_ok_per_sec\": {knee_joins_ok:.1},\n"
    ));
    out.push_str(&format!(
        "  \"knee_wall_msgs_per_sec\": {knee_wall_msgs_per_sec:.0},\n"
    ));
    out.push_str(&format!("  \"goodput_2x_per_sec\": {goodput_2x:.1},\n"));
    out.push_str(&format!("  \"goodput_10x_per_sec\": {goodput_10x:.1},\n"));
    out.push_str(&format!("  \"slo_jtfs_p999_ms\": {SLO_JTFS_P999_MS:.0},\n"));
    out.push_str(&format!(
        "  \"quick_knee_joins_ok_per_sec\": {:.1},\n",
        q_knee.joins_ok_per_sec()
    ));
    out.push_str(&format!(
        "  \"quick_light_jtfs_p999_ms\": {:.3},\n",
        ms(q_light.report.jtfs.quantile(0.999))
    ));
    out.push_str(&format!(
        "  \"quick_goodput_2x_per_sec\": {:.1},\n",
        q_over.goodput()
    ));
    out.push_str(&format!(
        "  \"federation_k1_knee_joins_ok_per_sec\": {fed_k1_knee:.1},\n"
    ));
    out.push_str(&format!(
        "  \"federation_k4_knee_joins_ok_per_sec\": {fed_k4_knee:.1},\n"
    ));
    out.push_str(&format!(
        "  \"federation_scaling_x\": {:.2},\n",
        fed_k4_knee / fed_k1_knee.max(1e-9)
    ));
    out.push_str(&format!("  \"per_join_cpu_fast_ns\": {cpu_fast_ns:.0},\n"));
    out.push_str("  \"scenarios\": [\n");
    let all = rows
        .iter()
        .map(|r| format!("    {}", r.json))
        .chain(
            [q_light, q_knee, q_over]
                .iter()
                .map(|r| format!("    {}", r.json)),
        )
        .collect::<Vec<_>>()
        .join(",\n");
    out.push_str(&all);
    out.push_str("\n  ],\n");
    out.push_str("  \"federation\": [\n");
    let fed_all = fed_rows
        .iter()
        .map(|r| format!("    {}", r.json))
        .collect::<Vec<_>>()
        .join(",\n");
    out.push_str(&fed_all);
    out.push_str("\n  ]\n}\n");

    std::fs::write("BENCH_service.json", &out).expect("write BENCH_service.json");
    println!(
        "service: knee {knee_joins_ok:.0} joins-ok/s (nominal {nominal:.0}), \
         {knee_wall_msgs_per_sec:.0} wall msgs/s at the knee, goodput {goodput_2x:.0}/s @2x \
         -> {goodput_10x:.0}/s @10x; federation K=1 {fed_k1_knee:.0} -> K=4 {fed_k4_knee:.0} \
         agg joins-ok/s, per-join CPU {cpu_fast_ns:.0} ns; \
         wrote BENCH_service.json"
    );
}
