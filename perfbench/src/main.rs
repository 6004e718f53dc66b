//! The benchmark command.
//!
//! ```text
//! perfbench --workload <paper_repro|tracker_knee|tracker_overload|swarm_100k>
//!           [--seed N] [--seconds S] [--trace 0|1] [--print-golden]
//! ```
//!
//! An untraced run (`--trace 0`) builds the workload's inputs, runs one
//! untimed warm-up pass, then repeats set-up + pass until `--seconds`
//! have elapsed, checking every pass's output. It prints the end-to-end
//! metrics as medians over passes. A traced run (`--trace 1`) prints the
//! per-layer metrics instead (see `README.md`). The last line of standard
//! output is the JSON result; the lines before it are per-pass figures and
//! run diagnostics.
//!
//! `--print-golden` prints the workload's golden output at the given seed
//! (default: the workload's default seed) and exits; the files in
//! `goldens/` are made with it.

use std::time::{Duration, Instant};

use pdn_provider::service::{ServiceConfig, ServiceWorld};
use pdn_provider::swarm::SwarmWorld;
use perfbench::replay::{self, Replay};
use perfbench::{paper, short_hash, swarm, sys, tracker};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Every per-layer metric and its unit. A traced run prints all of them;
/// a metric of a layer the workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("artifact.detect.cpu_ms", "ms"),
    ("artifact.table5.cpu_ms", "ms"),
    ("artifact.table6.cpu_ms", "ms"),
    ("artifact.fig4.cpu_ms", "ms"),
    ("artifact.fig5.cpu_ms", "ms"),
    ("artifact.ipleak.cpu_ms", "ms"),
    ("artifact.token.cpu_ms", "ms"),
    ("artifact.mitigation.cpu_ms", "ms"),
    ("artifact.ablations.cpu_ms", "ms"),
    ("phase.http.incl_ms", "ms"),
    ("phase.crypto.incl_ms", "ms"),
    ("phase.p2p.incl_ms", "ms"),
    ("phase.tick.incl_ms", "ms"),
    ("phase.signal.incl_ms", "ms"),
    ("phase.http.entries", "count"),
    ("phase.crypto.entries", "count"),
    ("phase.p2p.entries", "count"),
    ("phase.tick.entries", "count"),
    ("phase.signal.entries", "count"),
    ("trace_overhead_pct", "%"),
    ("inbox.offer_ns", "ns"),
    ("inbox.drain_ns", "ns"),
    ("inbox.refused_pct", "%"),
    ("signaling.admit_ns", "ns"),
    ("signaling.other_ns", "ns"),
    ("signaling.batch_hit_pct", "%"),
    ("wire.decode_ns", "ns"),
    ("cdn.serve_ns", "ns"),
    ("net.send_step_ns", "ns"),
    ("net.events_per_join", "count"),
    ("served_frames_per_join", "count"),
    ("capture_drop_pct", "%"),
    ("replay.joins_ok_delta_pct", "%"),
    ("replay.refused_delta_pct", "%"),
    ("goodput_per_s", "1/s"),
    ("jtfs_p50_ms", "ms"),
    ("jtfs_p99_ms", "ms"),
    ("join_fail_pct", "%"),
    ("swarm.events_per_peer", "count"),
    ("swarm.nacks_per_peer", "count"),
    ("swarm.stalls_per_peer", "count"),
    ("shard.overhead_pct", "%"),
    ("shard.windows", "count"),
    ("shard.exchanged", "count"),
    ("offload_pct", "%"),
    ("bytes_per_peer", "B"),
];

/// Shard count of the swarm identity check and overhead measurement.
const SWARM_CHECK_SHARDS: usize = 4;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    print_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10,
        trace: false,
        print_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-golden" {
            args.print_golden = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Output checks; a failed check is a failed operation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("check failed: {}", what());
        }
    }

    /// Compares `got` with the determinism reference and, at the default
    /// seed, with the committed golden.
    fn output(&mut self, label: &str, got: &str, reference: &str, golden: Option<&str>) {
        self.check(got == reference, || {
            format!("{label}: output differs between repetitions:\n  {reference}\n  {got}")
        });
        if let Some(golden) = golden {
            self.golden(label, got, golden);
        }
    }

    fn golden(&mut self, label: &str, got: &str, golden: &str) {
        self.check(got.trim() == golden.trim(), || {
            format!(
                "{label}: output differs from the golden:\n  {}\n  {got}",
                golden.trim()
            )
        });
    }
}

/// Set-up CPU per build, and pass CPU, work done and peak heap per pass.
/// All CPU times are rescaled by [`sys::HostSpeed`].
struct Samples {
    speed: sys::HostSpeed,
    setup_s: Vec<f64>,
    cpu_s: Vec<f64>,
    ns_per_op: Vec<f64>,
    heap_mb: Vec<f64>,
}

impl Samples {
    fn new() -> Self {
        Samples {
            speed: sys::HostSpeed::new(),
            setup_s: Vec::new(),
            cpu_s: Vec::new(),
            ns_per_op: Vec::new(),
            heap_mb: Vec::new(),
        }
    }

    /// Starts a pass: builds the pass input `reps` times, timing every
    /// build, and keeps the last. Cheap set-ups build several times so
    /// that the set-up median rests on many samples. The pass's heap
    /// high-water mark starts here.
    fn setup<S>(&mut self, reps: usize, mut build: impl FnMut() -> S) -> S {
        sys::reset_peak_heap();
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let (s, cpu) = sys::cpu_timed(&mut build);
            self.setup_s.push(self.speed.scale_by_last(cpu));
            last = Some(s);
        }
        last.expect("at least one build")
    }

    /// Records one pass: its rescaled CPU, its ops and its peak heap.
    fn push(&mut self, cpu_s: f64, ops: u64, heap_mb: f64) {
        println!(
            "pass {}: setup_s={:.6} cpu_s={cpu_s:.6} ops={ops} peak_heap_mb={heap_mb:.3} \
             host_speed_factor={:.3}",
            self.cpu_s.len() + 1,
            self.setup_s.last().copied().unwrap_or(0.0),
            self.speed.last_factor(),
        );
        self.cpu_s.push(cpu_s);
        self.ns_per_op.push(cpu_s * 1e9 / ops.max(1) as f64);
        self.heap_mb.push(heap_mb);
    }

    fn end_to_end(&self) -> Vec<Metric> {
        println!(
            "diag passes={} host_speed_factor={:.3} peak_rss_mb={:.1}",
            self.cpu_s.len(),
            self.speed.median_factor(),
            sys::peak_rss_mb()
        );
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("cpu_s", median(&self.cpu_s), "s"),
            ("cpu_ns_per_op", median(&self.ns_per_op), "ns"),
            ("peak_heap_mb", median(&self.heap_mb), "MB"),
        ]
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Calls `pass` until `seconds` have elapsed and at least `min` passes ran.
fn repeat_for(seconds: u64, min: usize, mut pass: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut done = 0;
    while done < min || Instant::now() < deadline {
        pass();
        done += 1;
    }
}

/// Per-layer metric values, pre-filled with 0 for every catalog entry.
struct PerLayer(Vec<Metric>);

impl PerLayer {
    fn new() -> Self {
        PerLayer(PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalog"));
        slot.1 = value;
    }
}

// ---------------------------------------------------------------------
// paper_repro
// ---------------------------------------------------------------------

/// Corpus builds per pass.
const PAPER_SETUPS_PER_PASS: usize = 3;

/// Timed passes per run at least: one pass is ~13 s, longer than a run's
/// `--seconds`, and a single pass leaves the median at the mercy of one
/// host-speed swing.
const PAPER_MIN_PASSES: usize = 2;

fn paper_check(checks: &mut Checks, got: &str, reference: &str, golden: Option<&str>) {
    for (i, line) in got.lines().enumerate() {
        let want = reference.lines().nth(i).unwrap_or("");
        checks.output(
            "paper_repro",
            line,
            want,
            golden.and_then(|g| g.lines().nth(i)),
        );
    }
}

fn paper_repro(seed: u64, seconds: u64, trace: bool, checks: &mut Checks) -> Vec<Metric> {
    let golden = (seed == paper::DEFAULT_SEED).then_some(paper::GOLDEN);
    let warm = paper::golden_lines(&paper::run(paper::setup(seed), &mut |c| c));
    paper_check(checks, &warm, &warm, golden);
    println!(
        "diag pool_mode={} detector_workers={}",
        pdn_core::WorldPool::serial().mode(),
        pdn_detector::scanner::default_workers()
    );
    let total = |artifacts: &[paper::Artifact]| artifacts.iter().map(|a| a.cpu_s).sum::<f64>();

    let mut samples = Samples::new();
    if !trace {
        repeat_for(seconds, PAPER_MIN_PASSES, || {
            let setup = samples.setup(PAPER_SETUPS_PER_PASS, || paper::setup(seed));
            let speed = &mut samples.speed;
            let artifacts = paper::run(setup, &mut |c| speed.scale(c));
            let heap = sys::peak_heap_mb();
            paper_check(checks, &paper::golden_lines(&artifacts), &warm, golden);
            samples.push(total(&artifacts), artifacts.len() as u64, heap);
        });
        return samples.end_to_end();
    }

    let mut layers = PerLayer::new();
    let speed = &mut samples.speed;
    let artifacts = paper::run(paper::setup(seed), &mut |c| speed.scale(c));
    paper_check(checks, &paper::golden_lines(&artifacts), &warm, golden);
    let plain_cpu = total(&artifacts);
    for a in &artifacts {
        layers.set(&format!("artifact.{}.cpu_ms", a.name), a.cpu_s * 1e3);
    }
    let setup = paper::setup(seed);
    let (artifacts, phases) = paper::profiled(|| paper::run(setup, &mut |c| speed.scale(c)));
    paper_check(checks, &paper::golden_lines(&artifacts), &warm, golden);
    let traced_cpu = total(&artifacts);
    for (label, ms, entries) in phases {
        layers.set(&format!("phase.{label}.incl_ms"), ms);
        layers.set(&format!("phase.{label}.entries"), entries as f64);
    }
    println!("diag plain_cpu_s={plain_cpu:.3} traced_cpu_s={traced_cpu:.3}");
    layers.set(
        "trace_overhead_pct",
        100.0 * (traced_cpu - plain_cpu) / plain_cpu,
    );
    layers.0
}

// ---------------------------------------------------------------------
// tracker_knee / tracker_overload
// ---------------------------------------------------------------------

/// World builds per pass: one build takes well under a millisecond.
const TRACKER_SETUPS_PER_PASS: usize = 16;

fn tracker_run(
    cfg: &ServiceConfig,
    golden: Option<&str>,
    seconds: u64,
    trace: bool,
    checks: &mut Checks,
) -> Vec<Metric> {
    let warm = ServiceWorld::new(cfg).run();
    let reference = tracker::row(&warm, cfg);
    checks.output("tracker", &reference, &reference, golden);
    println!("diag row {reference}");

    if !trace {
        let mut samples = Samples::new();
        repeat_for(seconds, 3, || {
            let world = samples.setup(TRACKER_SETUPS_PER_PASS, || ServiceWorld::new(cfg));
            let (report, cpu) = sys::cpu_timed(|| world.run());
            let heap = sys::peak_heap_mb();
            checks.output("tracker", &tracker::row(&report, cfg), &reference, golden);
            let cpu = samples.speed.scale(cpu);
            samples.push(cpu, report.joins_ok, heap);
        });
        return samples.end_to_end();
    }

    let mut layers = PerLayer::new();
    let real = ServiceWorld::new(cfg).run();
    checks.output("tracker", &tracker::row(&real, cfg), &reference, golden);
    let joins = real.joins_ok.max(1) as f64;
    let [goodput, p50, p99, fail] = tracker::outcome(&real, cfg);
    layers.set("goodput_per_s", goodput);
    layers.set("jtfs_p50_ms", p50);
    layers.set("jtfs_p99_ms", p99);
    layers.set("join_fail_pct", fail);
    layers.set("net.events_per_join", real.net_events as f64 / joins);
    layers.set("served_frames_per_join", real.served_frames as f64 / joins);
    layers.set("capture_drop_pct", real.capture_drop_pct());

    let empty = replay::empty_span_ns();
    let mut speed = sys::HostSpeed::new();
    let r = Replay::new(cfg).run();
    // Span times are rescaled like every CPU time, by the reference
    // readings taken right before and after the replay.
    let k = speed.scale(1.0);
    println!("diag empty_span_ns={empty:.1} host_speed_factor={k:.3} replay {r:?}");
    let per = |s: &replay::Span, n: u64| k * s.mean_ns(n, empty);
    layers.set("inbox.offer_ns", per(&r.offer, r.offer.calls));
    layers.set("inbox.drain_ns", per(&r.drain, r.drain.calls));
    layers.set(
        "inbox.refused_pct",
        100.0 * r.refused as f64 / r.offered.max(1) as f64,
    );
    layers.set("signaling.admit_ns", per(&r.admit, r.joins_admitted));
    layers.set("signaling.other_ns", per(&r.other, r.other.calls));
    layers.set(
        "signaling.batch_hit_pct",
        100.0 * r.batch_hits as f64 / r.joins_admitted.max(1) as f64,
    );
    layers.set("wire.decode_ns", per(&r.decode, r.decode.calls));
    layers.set("cdn.serve_ns", per(&r.serve, r.serve.calls));
    let net = replay::Span {
        ns: r.send.ns + r.step.ns,
        calls: r.send.calls + r.step.calls,
    };
    layers.set("net.send_step_ns", per(&net, r.frames_sent));

    let delta = |replayed: u64, real: u64| {
        100.0 * (replayed as f64 - real as f64).abs() / real.max(1) as f64
    };
    let joins_delta = delta(r.joins_ok, real.joins_ok);
    let refused_delta = delta(r.refused, real.shed.total_refused());
    checks.check(joins_delta <= replay::TOLERANCE_PCT, || {
        format!("replay admitted {} vs real {}", r.joins_ok, real.joins_ok)
    });
    checks.check(refused_delta <= replay::TOLERANCE_PCT, || {
        format!(
            "replay refused {} vs real {}",
            r.refused,
            real.shed.total_refused()
        )
    });
    layers.set("replay.joins_ok_delta_pct", joins_delta);
    layers.set("replay.refused_delta_pct", refused_delta);
    layers.0
}

// ---------------------------------------------------------------------
// swarm_100k
// ---------------------------------------------------------------------

fn swarm_check(checks: &mut Checks, out: &swarm::Outcome, reference: &str, golden: Option<&str>) {
    checks.check(out.completed_share() > 0.95, || {
        format!(
            "swarm: only {:.1}% of peers completed",
            100.0 * out.completed_share()
        )
    });
    checks.output("swarm", &out.table, reference, None);
    if let Some(g) = golden {
        checks.golden("swarm", &short_hash(&out.table), g);
    }
}

fn swarm_100k(seed: u64, seconds: u64, trace: bool, checks: &mut Checks) -> Vec<Metric> {
    let cfg = swarm::config(seed);
    let golden = (seed == swarm::DEFAULT_SEED).then_some(swarm::GOLDEN);
    // The warm-up runs at K shards; every K=1 pass must match its table.
    let warm = swarm::run(SwarmWorld::new(&cfg, SWARM_CHECK_SHARDS));
    swarm_check(checks, &warm, &warm.table, golden);
    println!(
        "diag warm-up shards={SWARM_CHECK_SHARDS} shard_mode={} events={}",
        warm.mode, warm.events
    );

    let mut samples = Samples::new();
    if !trace {
        repeat_for(seconds, 3, || {
            let world = samples.setup(1, || SwarmWorld::new(&cfg, 1));
            let (out, cpu) = sys::cpu_timed(|| swarm::run(world));
            let heap = sys::peak_heap_mb();
            swarm_check(checks, &out, &warm.table, golden);
            let cpu = samples.speed.scale(cpu);
            samples.push(cpu, out.events, heap);
        });
        return samples.end_to_end();
    }

    let mut layers = PerLayer::new();
    let (mut k1_cpu, mut k4_cpu) = (Vec::new(), Vec::new());
    let mut k1 = None;
    let mut k4 = None;
    for _ in 0..2 {
        for (shards, cpus, keep) in [
            (1, &mut k1_cpu, &mut k1),
            (SWARM_CHECK_SHARDS, &mut k4_cpu, &mut k4),
        ] {
            let world = SwarmWorld::new(&cfg, shards);
            let (out, cpu) = sys::cpu_timed(|| swarm::run(world));
            swarm_check(checks, &out, &warm.table, golden);
            cpus.push(samples.speed.scale(cpu));
            *keep = Some(out);
        }
    }
    let (k1, k4) = (k1.expect("ran"), k4.expect("ran"));
    println!("diag k1_cpu_s={k1_cpu:?} k4_cpu_s={k4_cpu:?}");
    let peers = k1.peers.max(1) as f64;
    layers.set("swarm.events_per_peer", k1.events as f64 / peers);
    layers.set("swarm.nacks_per_peer", k1.nacks as f64 / peers);
    layers.set("swarm.stalls_per_peer", k1.stalls as f64 / peers);
    layers.set(
        "shard.overhead_pct",
        100.0 * (median(&k4_cpu) - median(&k1_cpu)) / median(&k1_cpu),
    );
    layers.set("shard.windows", k4.windows as f64);
    layers.set("shard.exchanged", k4.exchanged as f64);
    layers.set("offload_pct", k1.offload_pct);
    layers.set("bytes_per_peer", k1.bytes_per_peer);
    layers.0
}

// ---------------------------------------------------------------------

type Metric = (&'static str, f64, &'static str);

fn golden_text(workload: &str, seed: u64) -> Option<String> {
    Some(match workload {
        "paper_repro" => paper::golden_lines(&paper::run(paper::setup(seed), &mut |c| c)),
        "tracker_knee" => {
            let cfg = tracker::knee(seed);
            tracker::row(&ServiceWorld::new(&cfg).run(), &cfg) + "\n"
        }
        "tracker_overload" => {
            let cfg = tracker::overload(seed);
            tracker::row(&ServiceWorld::new(&cfg).run(), &cfg) + "\n"
        }
        "swarm_100k" => {
            short_hash(&swarm::run(SwarmWorld::new(&swarm::config(seed), 1)).table) + "\n"
        }
        _ => return None,
    })
}

fn default_seed(workload: &str) -> u64 {
    match workload {
        "paper_repro" => paper::DEFAULT_SEED,
        "swarm_100k" => swarm::DEFAULT_SEED,
        _ => tracker::DEFAULT_SEED,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // Before anything sizes a pool from the host: one allowed CPU makes
    // every executor take its inline path.
    let cpu = sys::pin_to_current_cpu();
    let seed = args.seed.unwrap_or_else(|| default_seed(&args.workload));

    if args.print_golden {
        match golden_text(&args.workload, seed) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("perfbench: unknown workload {:?}", args.workload);
                std::process::exit(2);
            }
        }
        return;
    }

    let diag = sys::Diagnostics::start(cpu);
    let mut checks = Checks::default();
    let (seconds, trace) = (args.seconds, args.trace);
    let metrics = match args.workload.as_str() {
        "paper_repro" => paper_repro(seed, seconds, trace, &mut checks),
        "tracker_knee" => {
            let golden = (seed == tracker::DEFAULT_SEED).then_some(tracker::GOLDEN_KNEE);
            tracker_run(&tracker::knee(seed), golden, seconds, trace, &mut checks)
        }
        "tracker_overload" => {
            let golden = (seed == tracker::DEFAULT_SEED).then_some(tracker::GOLDEN_OVERLOAD);
            tracker_run(
                &tracker::overload(seed),
                golden,
                seconds,
                trace,
                &mut checks,
            )
        }
        "swarm_100k" => swarm_100k(seed, seconds, trace, &mut checks),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "diag workload={} seed={seed} trace={} {}",
        args.workload,
        u8::from(trace),
        diag.finish()
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
