//! Emits `BENCH_sim.json`: wall-clock numbers for the simulation engine —
//! the calendar event queue vs the old heap+hashmap scheduler on a churn
//! microbench, and the pooled table5+ablations workload serial vs
//! parallel, with a byte-identity check across worker counts.
//!
//! ```text
//! cargo run --release -p pdn-oracle --bin sim_bench [-- --quick | --profile]
//! ```
//!
//! `--quick` runs the pooled workload once, serially, with the profiler
//! on, and compares its exact work — a hash of the rendered output, each
//! phase's entry count and the events its worlds popped — with
//! `tests/goldens/sim_quick.txt`; on a mismatch it prints golden vs
//! actual and the text to paste. It then runs the queue churn microbench
//! and asserts the calendar queue is >= 2x the heap+hashmap one: an
//! in-process ratio of interleaved runs, so both sides see the same host.
//! It is the CI guard `scripts/check.sh` uses. The workload's wall time
//! is printed for information only: perfbench's `paper_repro` is the
//! timing referee, and the same work done by slower code passes the work
//! gate. No JSON is written in quick mode.
//!
//! `--profile` runs the workload once, serially, with the simnet per-phase
//! profiler on, and prints the tick/signal/p2p/http/crypto/capture
//! breakdown (`pdn_simnet::profile`). No JSON is written.

use std::time::{Duration, Instant};

use pdn_bench::ablations::{ablation_suite, AblationConfig};
use pdn_bench::{assert_matches_golden, table5_pooled, SEED};
use pdn_core::WorldPool;
use pdn_oracle::queue::HeapMapQueue;
use pdn_simnet::{profile, CalendarQueue, Event, NodeId, SimRng, SimTime};

type EventQueue = CalendarQueue<Event>;

const RUNS: usize = 9;

/// The `--quick` work summary at the default seed.
const QUICK_GOLDEN_PATH: &str = "tests/goldens/sim_quick.txt";
const QUICK_GOLDEN: &str = include_str!("../../../../tests/goldens/sim_quick.txt");

/// Events pushed through each queue per timing run.
const CHURN_EVENTS: u64 = 400_000;

/// Steady-state events in flight during the churn.
const IN_FLIGHT: u64 = 4_096;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn timer(token: u64) -> Event {
    Event::Timer {
        node: NodeId(0),
        token,
    }
}

/// The churn workload both queues run: keep `IN_FLIGHT` events scheduled,
/// pop one / push one until `CHURN_EVENTS` have cycled. Delays mix the
/// near-term wheel band with occasional timers seconds out, in the coarse
/// wheel, like a streaming world's mix of packet deliveries and session
/// timers.
fn churn<Q>(
    q: &mut Q,
    push: fn(&mut Q, SimTime, Event),
    pop: fn(&mut Q) -> Option<(SimTime, Event)>,
) {
    let mut rng = SimRng::seed(7);
    let mut now = SimTime::ZERO;
    let mut token = 0u64;
    for _ in 0..IN_FLIGHT {
        push(
            q,
            now + Duration::from_nanos(rng.range(0..50_000_000)),
            timer(token),
        );
        token += 1;
    }
    while token < CHURN_EVENTS {
        let (at, _) = pop(q).expect("queue stays primed");
        now = at;
        let delay_ns = if rng.chance(0.95) {
            rng.range(0..50_000_000) // wheel band
        } else {
            rng.range(0..5_000_000_000) // coarse wheel
        };
        push(q, now + Duration::from_nanos(delay_ns), timer(token));
        token += 1;
    }
    while pop(q).is_some() {}
}

/// Runs one profiled serial workload pass and returns its wall ms, its
/// output, the phase totals and the events its worlds popped.
fn profiled_pass(
    workload: &impl Fn(&WorldPool) -> String,
) -> (f64, String, [profile::PhaseTotals; 6], u64) {
    profile::reset();
    profile::set_enabled(true);
    let t = Instant::now();
    let out = workload(&WorldPool::serial());
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    profile::set_enabled(false);
    (wall_ms, out, profile::snapshot(), profile::events_popped())
}

/// The `--quick` work summary: the first 16 hex digits of the output's
/// SHA-256, each profiler phase's entry count, then the events popped.
fn work_summary(out: &str, snap: &[profile::PhaseTotals; 6], events: u64) -> String {
    let hash: String = pdn_crypto::sha256::digest(out.as_bytes())[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let mut work = format!("table5+ablations sha256 {hash}\n");
    for t in snap {
        work.push_str(&format!("phase {} entries {}\n", t.phase.label(), t.count));
    }
    work.push_str(&format!("events popped {events}\n"));
    work
}

/// The queue churn microbench, EventQueue vs the old heap+hashmap
/// design: the median events/s of each over `RUNS` runs. Runs interleave
/// the two queues so slow host phases (this may share a single core)
/// penalize both sides alike.
fn queue_rates() -> (f64, f64) {
    let mut new_samples = Vec::new();
    let mut old_samples = Vec::new();
    for _ in 0..RUNS {
        new_samples.push(time_ms(|| {
            let mut q = EventQueue::new();
            churn(
                &mut q,
                |q, at, ev| {
                    q.push(at, ev);
                },
                EventQueue::pop,
            );
        }));
        old_samples.push(time_ms(|| {
            let mut q = HeapMapQueue::new();
            churn(&mut q, HeapMapQueue::push, HeapMapQueue::pop);
        }));
    }
    let new_eps = CHURN_EVENTS as f64 / (median(new_samples) / 1e3);
    let old_eps = CHURN_EVENTS as f64 / (median(old_samples) / 1e3);
    (new_eps, old_eps)
}

/// The queue gate: the calendar queue must stay >= 2x the heap+hashmap
/// scheduler on the churn microbench.
fn assert_queue_speedup(speedup: f64) {
    assert!(
        speedup >= 2.0,
        "calendar queue must be >=2x the heap+hashmap scheduler (got {speedup:.2}x)"
    );
}

fn main() {
    let workload = |pool: &WorldPool| {
        let mut out = table5_pooled(SEED, pool).render();
        out.push_str(&ablation_suite(AblationConfig::full(), SEED, pool).render());
        out
    };

    // `--profile`: one serial pass with phase accounting on; the report is
    // self-inclusive per phase (crypto nests inside tick/p2p).
    if std::env::args().any(|a| a == "--profile") {
        let probe_ns = profile::calibrate_probe_cost();
        let (wall_ms, _, snap, _) = profiled_pass(&workload);
        let overhead_ms = snap
            .iter()
            .map(|t| t.count)
            .sum::<u64>()
            .saturating_mul(probe_ns) as f64
            / 1e6;
        println!(
            "workload_serial_ms: {wall_ms:.2} (profiled; probe {probe_ns} ns/entry, \
             overhead {overhead_ms:.2} ms)"
        );
        for t in snap {
            println!(
                "  phase {:<8} {:>10.2} ms  ({} entries)",
                t.phase.label(),
                t.calibrated_nanos() as f64 / 1e6,
                t.count
            );
        }
        return;
    }

    // `--quick`: one profiled serial pass, whose exact work is a gate and
    // whose wall time is information only, then the queue ratio gate.
    if std::env::args().any(|a| a == "--quick") {
        let (wall_ms, out, snap, events) = profiled_pass(&workload);
        println!("workload_serial_ms: {wall_ms:.2} (profiled; wall clock, information only)");
        assert_matches_golden(
            QUICK_GOLDEN_PATH,
            QUICK_GOLDEN,
            &work_summary(&out, &snap, events),
        );
        println!("work summary matches {QUICK_GOLDEN_PATH}");
        let (new_eps, old_eps) = queue_rates();
        println!(
            "queue: new {new_eps:.0} ev/s, old {old_eps:.0} ev/s, speedup {:.2}x (gate: >= 2x)",
            new_eps / old_eps
        );
        assert_queue_speedup(new_eps / old_eps);
        return;
    }

    let (new_eps, old_eps) = queue_rates();

    // `sim_bench queue` stops after the microbench (no JSON written).
    if std::env::args().nth(1).as_deref() == Some("queue") {
        println!(
            "queue: new {new_eps:.0} ev/s, old {old_eps:.0} ev/s, speedup {:.2}x",
            new_eps / old_eps
        );
        return;
    }

    // --- Workload: table5 + full ablation suite, serial vs pooled. ---
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let reference = workload(&WorldPool::serial());
    let mut identical = true;
    for workers in [2, 4, 8] {
        identical &= workload(&WorldPool::new(workers)) == reference;
    }

    let serial_ms = median(
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(workload(&WorldPool::serial()));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    let parallel_ms = median(
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(workload(&WorldPool::new(8)));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );

    // One profiled pass for the per-phase attribution (wall time of this
    // pass is reported separately — the guards add measurement overhead).
    // Probe cost is calibrated first and subtracted per entry, so phases
    // with many cheap entries no longer overstate their share. Entry
    // counts are left out: `tests/goldens/sim_quick.txt` owns them.
    let probe_ns = profile::calibrate_probe_cost();
    let (profiled_ms, _, snap, _) = profiled_pass(&workload);
    let overhead_ms = snap
        .iter()
        .map(|t| t.count)
        .sum::<u64>()
        .saturating_mul(probe_ns) as f64
        / 1e6;
    let phase_json: Vec<String> = snap
        .iter()
        .map(|t| {
            format!(
                "\"{}\": {{\"ms\": {:.2}}}",
                t.phase.label(),
                t.calibrated_nanos() as f64 / 1e6
            )
        })
        .collect();

    // The execution mode the 8-worker pool actually picked on this host
    // ("inline" on 1-core hosts, where spawning threads only loses time).
    let pool_mode = WorldPool::new(8).mode();
    let json = format!(
        "{{\n  \"host_parallelism\": {host},\n  \"queue_churn_events\": {CHURN_EVENTS},\n  \
         \"queue_events_per_sec_new\": {new_eps:.0},\n  \"queue_events_per_sec_old\": {old_eps:.0},\n  \
         \"queue_speedup\": {:.2},\n  \"workload_serial_ms\": {serial_ms:.2},\n  \
         \"workload_parallel_ms\": {parallel_ms:.2},\n  \"workload_speedup\": {:.2},\n  \
         \"workload_profiled_ms\": {profiled_ms:.2},\n  \
         \"profiler_overhead_ms\": {overhead_ms:.2},\n  \"probe_cost_ns\": {probe_ns},\n  \
         \"phases\": {{{}}},\n  \
         \"workers\": 8,\n  \"pool_mode\": \"{pool_mode}\",\n  \
         \"identical_across_workers\": {identical}\n}}\n",
        new_eps / old_eps,
        serial_ms / parallel_ms,
        phase_json.join(", "),
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    print!("{json}");

    assert!(
        identical,
        "pooled workload must be byte-identical to serial"
    );
    assert_queue_speedup(new_eps / old_eps);
    // The 8-worker wall-time gate only means something with cores to run
    // on; on small hosts the pool degrades to threads fighting for one
    // core (same stance as scan_bench's single-core fallback).
    if host >= 4 {
        assert!(
            serial_ms / parallel_ms >= 3.0,
            "pooled workload must be >=3x serial at 8 workers (got {:.2}x)",
            serial_ms / parallel_ms
        );
    } else {
        eprintln!("note: host has {host} core(s); skipping the 8-worker >=3x wall-time gate");
    }
}
