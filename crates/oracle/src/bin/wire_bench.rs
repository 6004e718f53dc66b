//! Emits `BENCH_wire.json`: wall-clock numbers for the binary wire codec —
//! signaling encode+decode against the JSON baseline oracle and P2P
//! encode+decode against the legacy fixed-width framing
//! (`pdn_oracle::json_baseline`), measured in the same process, plus the
//! table5 world workload's serial time and its byte-identity across
//! worker counts.
//!
//! ```text
//! cargo run --release -p pdn-oracle --bin wire_bench [-- --quick]
//! ```
//!
//! `--quick` shrinks iteration counts and skips the end-to-end table5
//! section for CI smoke runs; the speedup and zero-allocation gates still
//! apply.
//!
//! Like `crypto_bench`, the binary installs a counting global allocator so
//! the "zero heap allocations per message in steady state" claim is
//! *measured*, not asserted from code reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use pdn_bench::{table5_pooled, SEED};
use pdn_core::WorldPool;
use pdn_media::VideoId;
use pdn_oracle::json_baseline;
use pdn_oracle::p2p::{self, P2pMsg};
use pdn_provider::wire::{self, P2pRef, P2pView};
use pdn_provider::SignalMsg;
use pdn_simnet::Addr;
use pdn_webrtc::{Candidate, CandidateKind, Fingerprint, SessionDescription};

/// Wraps the system allocator, counting every allocation. The steady-state
/// gate reads the counter around an encode+decode loop.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const RUNS: usize = 5;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn sdp(nc: usize) -> SessionDescription {
    SessionDescription {
        ice_ufrag: "ufrag01".into(),
        ice_pwd: "pwd-secret".into(),
        fingerprint: Fingerprint([7u8; 32]),
        candidates: (0..nc)
            .map(|i| Candidate {
                kind: match i % 3 {
                    0 => CandidateKind::Host,
                    1 => CandidateKind::ServerReflexive,
                    _ => CandidateKind::Relay,
                },
                addr: Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8, 4000 + i as u16),
                priority: 1 << (i % 31),
            })
            .collect(),
    }
}

/// The signaling corpus: every variant, weighted like a session (a Join
/// with a realistic candidate list, a JoinOk introducing neighbors, then
/// the steady-state report/broadcast traffic).
fn signal_corpus() -> Vec<SignalMsg> {
    vec![
        SignalMsg::Join {
            api_key: Some("customer-api-key".into()),
            token: Some("eyJ0.eyJj.sig".into()),
            origin: "https://videos.example".into(),
            video: "https://cdn.example/v/master.m3u8".into(),
            manifest_hash: "ab".repeat(16),
            sdp: sdp(4),
        },
        SignalMsg::JoinOk {
            peer_id: 1 << 40,
            neighbors: vec![(1, sdp(3)), (2, sdp(2)), (3, sdp(1))],
        },
        SignalMsg::JoinDenied {
            reason: "bad key".into(),
        },
        SignalMsg::PeerJoined {
            peer_id: 7,
            sdp: sdp(3),
        },
        SignalMsg::StatsReport {
            p2p_up_bytes: 123_456_789,
            p2p_down_bytes: 987_654,
        },
        SignalMsg::ImReport {
            video: "https://cdn.example/v/master.m3u8".into(),
            rendition: 2,
            seq: 300,
            im: "00ff".repeat(16),
        },
        SignalMsg::SimBroadcast {
            video: "https://cdn.example/v/master.m3u8".into(),
            rendition: 0,
            seq: 12,
            im: "aa".repeat(32),
            sig: "bb".repeat(32),
        },
        SignalMsg::Blacklisted {
            reason: "fake reports".into(),
        },
        SignalMsg::Leave,
    ]
}

/// The P2P corpus: the scheduler's steady-state mix — HAVE advertisements,
/// a request, and segment deliveries (one with a ~1 KiB payload and SIM
/// metadata attached).
fn p2p_corpus() -> Vec<P2pMsg> {
    let vid = VideoId::new("https://cdn.example/v/master.m3u8");
    vec![
        P2pMsg::Have {
            video: vid.clone(),
            rendition: 1,
            seqs: vec![40, 41, 42, 43, 44, 45, 46, 47],
        },
        P2pMsg::Have {
            video: vid.clone(),
            rendition: 1,
            seqs: vec![48],
        },
        P2pMsg::RequestSegment {
            video: vid.clone(),
            rendition: 1,
            seq: 48,
        },
        P2pMsg::SegmentData {
            video: vid,
            rendition: 1,
            seq: 48,
            duration_ms: 4000,
            data: Bytes::from((0..1024u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
            sim: Some(([1u8; 32], [2u8; 32])),
        },
    ]
}

/// Forces full consumption of a borrowed view (streams the seq list,
/// touches the payload) so the decoder can't be optimized away.
fn consume_view(view: &P2pView<'_>) -> u64 {
    match view {
        P2pView::Have { seqs, .. } => seqs.clone().sum(),
        P2pView::RequestSegment { seq, .. } => *seq,
        P2pView::SegmentData { seq, data, .. } => *seq + data.len() as u64,
    }
}

/// One timed binary-signaling run: each corpus message encoded into a warm
/// scratch and a pre-encoded frame decoded, `iters` corpus passes.
fn run_signal_binary(corpus: &[SignalMsg], iters: usize) -> f64 {
    let frames: Vec<Bytes> = corpus.iter().map(wire::encode_signal).collect();
    let mut scratch = BytesMut::with_capacity(4096);
    for (msg, frame) in corpus.iter().zip(&frames) {
        scratch.clear();
        wire::encode_signal_into(msg, &mut scratch);
        assert!(wire::decode_signal(frame).is_some());
    }
    let t = Instant::now();
    for _ in 0..iters {
        for (msg, frame) in corpus.iter().zip(&frames) {
            scratch.clear();
            wire::encode_signal_into(std::hint::black_box(msg), &mut scratch);
            std::hint::black_box(wire::decode_signal(std::hint::black_box(frame)));
        }
    }
    t.elapsed().as_secs_f64()
}

/// The same roundtrip through the JSON baseline codec.
fn run_signal_json(corpus: &[SignalMsg], iters: usize) -> f64 {
    let frames: Vec<Bytes> = corpus.iter().map(json_baseline::encode_signal).collect();
    for frame in &frames {
        assert!(json_baseline::decode_signal(frame).is_some());
    }
    let t = Instant::now();
    for _ in 0..iters {
        for (msg, frame) in corpus.iter().zip(&frames) {
            std::hint::black_box(json_baseline::encode_signal(std::hint::black_box(msg)));
            std::hint::black_box(json_baseline::decode_signal(std::hint::black_box(frame)));
        }
    }
    t.elapsed().as_secs_f64()
}

/// One timed binary-P2P run: the SDK hot path — borrowed [`P2pRef`] views
/// encoded into a warm scratch on a channel of their own video (a one-byte
/// video id), borrowed [`P2pView`] decodes of pre-encoded frames.
fn run_p2p_binary(corpus: &[P2pMsg], channel_video: &str, iters: usize) -> u64 {
    let refs: Vec<P2pRef<'_>> = corpus.iter().map(P2pMsg::borrowed).collect();
    let frames: Vec<Bytes> = corpus
        .iter()
        .map(|m| p2p::encode_p2p(m, channel_video))
        .collect();
    let mut scratch = BytesMut::with_capacity(2048);
    let mut sum = 0u64;
    for (r, frame) in refs.iter().zip(&frames) {
        scratch.clear();
        p2p::encode_p2p_into(r, channel_video, &mut scratch);
        sum += consume_view(&wire::decode_p2p_view(frame).expect("valid frame"));
    }
    for _ in 0..iters {
        for (r, frame) in refs.iter().zip(&frames) {
            scratch.clear();
            p2p::encode_p2p_into(std::hint::black_box(r), channel_video, &mut scratch);
            sum += consume_view(&wire::decode_p2p_view(std::hint::black_box(frame)).expect("ok"));
        }
    }
    sum
}

fn time_p2p_binary(corpus: &[P2pMsg], channel_video: &str, iters: usize) -> f64 {
    let t = Instant::now();
    std::hint::black_box(run_p2p_binary(corpus, channel_video, iters));
    t.elapsed().as_secs_f64()
}

/// The legacy owned path: fixed-width encode allocating a frame per
/// message, decode materializing an owned [`P2pMsg`].
fn run_p2p_legacy(corpus: &[P2pMsg], iters: usize) -> f64 {
    let frames: Vec<Bytes> = corpus.iter().map(json_baseline::encode_p2p).collect();
    for frame in &frames {
        assert!(json_baseline::decode_p2p(frame).is_some());
    }
    let t = Instant::now();
    for _ in 0..iters {
        for (msg, frame) in corpus.iter().zip(&frames) {
            std::hint::black_box(json_baseline::encode_p2p(std::hint::black_box(msg)));
            std::hint::black_box(json_baseline::decode_p2p(std::hint::black_box(frame)));
        }
    }
    t.elapsed().as_secs_f64()
}

/// Allocations per message across the steady-state binary hot path:
/// signaling encodes into a warm scratch plus P2P encode+view-decode.
fn allocs_per_msg(
    signals: &[SignalMsg],
    corpus: &[P2pMsg],
    channel_video: &str,
    iters: usize,
) -> f64 {
    let mut scratch = BytesMut::with_capacity(4096);
    let refs: Vec<P2pRef<'_>> = corpus.iter().map(P2pMsg::borrowed).collect();
    let frames: Vec<Bytes> = corpus
        .iter()
        .map(|m| p2p::encode_p2p(m, channel_video))
        .collect();
    let mut sum = 0u64;
    let pass = |sum: &mut u64, scratch: &mut BytesMut| {
        for msg in signals {
            scratch.clear();
            wire::encode_signal_into(msg, scratch);
        }
        for (r, frame) in refs.iter().zip(&frames) {
            scratch.clear();
            p2p::encode_p2p_into(r, channel_video, scratch);
            *sum += consume_view(&wire::decode_p2p_view(frame).expect("valid frame"));
        }
    };
    for _ in 0..4 {
        pass(&mut sum, &mut scratch);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..iters {
        pass(&mut sum, &mut scratch);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(sum);
    (after - before) as f64 / (iters * (signals.len() + corpus.len())) as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 8 } else { 1 };

    let signals = signal_corpus();
    let corpus = p2p_corpus();
    let channel_video = "https://cdn.example/v/master.m3u8";

    // --- Signaling: binary vs JSON roundtrip, interleaved runs. ---
    let sig_iters = (4_000 / scale).max(100);
    let mut bin_s = Vec::new();
    let mut json_s = Vec::new();
    for _ in 0..RUNS {
        bin_s.push(run_signal_binary(&signals, sig_iters));
        json_s.push(run_signal_json(&signals, sig_iters));
    }
    let n_sig = (sig_iters * signals.len()) as f64;
    let sig_bin_mps = n_sig / median(bin_s);
    let sig_json_mps = n_sig / median(json_s);
    let sig_speedup = sig_bin_mps / sig_json_mps;

    // --- P2P: borrowed hot path vs legacy owned path. ---
    let p2p_iters = (20_000 / scale).max(500);
    let mut bin_s = Vec::new();
    let mut old_s = Vec::new();
    for _ in 0..RUNS {
        bin_s.push(time_p2p_binary(&corpus, channel_video, p2p_iters));
        old_s.push(run_p2p_legacy(&corpus, p2p_iters));
    }
    let n_p2p = (p2p_iters * corpus.len()) as f64;
    let p2p_bin_mps = n_p2p / median(bin_s);
    let p2p_old_mps = n_p2p / median(old_s);
    let p2p_speedup = p2p_bin_mps / p2p_old_mps;

    let alloc_rate = allocs_per_msg(&signals, &corpus, channel_video, (2_000 / scale).max(50));

    // --- End-to-end: table5 at several worker counts. Skipped in --quick
    // (sim_bench --quick owns the workload regression gate there).
    let mut e2e = String::new();
    if !quick {
        let tables: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| table5_pooled(SEED, &WorldPool::new(w)).render())
            .collect();
        let t = Instant::now();
        std::hint::black_box(table5_pooled(SEED, &WorldPool::serial()).render());
        let bin_ms = t.elapsed().as_secs_f64() * 1e3;
        let workers_ok = tables.iter().all(|t| *t == tables[0]);
        e2e = format!(
            ",\n  \"tables_identical_across_workers\": {workers_ok},\n  \
             \"table5_serial_ms_binary\": {bin_ms:.2}"
        );
        assert!(
            workers_ok,
            "table5 must be byte-identical at workers 1/2/4/8"
        );
    }

    let json = format!(
        "{{\n  \"quick\": {quick},\n  \
         \"signal_msgs_per_sec_binary\": {sig_bin_mps:.0},\n  \
         \"signal_msgs_per_sec_json\": {sig_json_mps:.0},\n  \
         \"signal_speedup\": {sig_speedup:.2},\n  \
         \"p2p_msgs_per_sec_binary\": {p2p_bin_mps:.0},\n  \
         \"p2p_msgs_per_sec_legacy\": {p2p_old_mps:.0},\n  \
         \"p2p_speedup\": {p2p_speedup:.2},\n  \
         \"binary_allocs_per_msg_steady_state\": {alloc_rate:.3}{e2e}\n}}\n"
    );
    if !quick {
        std::fs::write("BENCH_wire.json", &json).expect("write BENCH_wire.json");
    }
    print!("{json}");

    assert!(
        alloc_rate == 0.0,
        "steady-state binary encode + view decode must not allocate \
         (got {alloc_rate:.3} allocs/msg)"
    );
    assert!(
        sig_speedup >= 4.0,
        "binary signaling encode+decode must be >=4x the JSON baseline \
         (got {sig_speedup:.2}x)"
    );
    // The legacy P2P framing was already binary (fixed-width); the varint
    // codec's margin there comes from the no-alloc borrowed paths, so the
    // gate is "measurably faster", not 4x.
    assert!(
        p2p_speedup > 1.0,
        "borrowed P2P hot path must beat the legacy owned path \
         (got {p2p_speedup:.2}x)"
    );
}
