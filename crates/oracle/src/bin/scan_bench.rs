//! Emits `BENCH_scan.json`: wall-clock numbers for the static-scan hot
//! path — naive serial baseline vs the compiled Aho–Corasick matcher,
//! serial and sharded — over a 10K-site corpus.
//!
//! ```text
//! cargo run --release --offline -p pdn-oracle --bin scan_bench
//! ```

use std::time::Instant;

use pdn_detector::corpus::{generate, CorpusConfig};
use pdn_detector::scanner::default_workers;
use pdn_detector::Scanner;
use pdn_oracle::naive_scan::scan_naive;
use pdn_simnet::SimRng;

const RUNS: usize = 5;

fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[RUNS / 2]
}

fn main() {
    let mut rng = SimRng::seed(11);
    let eco = generate(
        CorpusConfig {
            website_haystack: 10_000,
            app_haystack: 1_000,
            video_fraction: 0.4,
        },
        &mut rng,
    );
    let scanner = Scanner::new();
    let workers = default_workers();

    let reference = scan_naive(&scanner, &eco);
    assert_eq!(
        reference,
        scanner.scan(&eco),
        "hot path disagrees with the naive reference"
    );

    let naive_ms = median_ms(|| {
        std::hint::black_box(scan_naive(&scanner, &eco));
    });
    let serial_ms = median_ms(|| {
        std::hint::black_box(scanner.scan_with_workers(&eco, 1));
    });
    let sharded_ms = median_ms(|| {
        std::hint::black_box(scanner.scan_with_workers(&eco, workers));
    });

    let json = format!(
        "{{\n  \"corpus_sites\": {},\n  \"corpus_apps\": {},\n  \"detections\": {},\n  \
         \"workers\": {},\n  \"naive_serial_ms\": {:.2},\n  \"matcher_serial_ms\": {:.2},\n  \
         \"matcher_sharded_ms\": {:.2},\n  \"speedup_matcher\": {:.2},\n  \
         \"speedup_total\": {:.2}\n}}\n",
        eco.websites.len(),
        eco.apps.len(),
        reference.sites.len(),
        workers,
        naive_ms,
        serial_ms,
        sharded_ms,
        naive_ms / serial_ms,
        naive_ms / sharded_ms,
    );
    std::fs::write("BENCH_scan.json", &json).expect("write BENCH_scan.json");
    print!("{json}");
    // `scan()` picks the worker count itself, so both rows are the hot
    // path; judging the better one keeps the gate stable on single-core
    // hosts where sharding is pure thread overhead.
    let hot_ms = serial_ms.min(sharded_ms);
    assert!(
        naive_ms / hot_ms >= 5.0,
        "scan hot path must be >=5x the naive serial baseline (got {:.2}x)",
        naive_ms / hot_ms
    );
}
