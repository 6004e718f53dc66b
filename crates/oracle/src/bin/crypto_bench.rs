//! Emits `BENCH_crypto.json`: wall-clock numbers for the crypto fast path —
//! the zero-copy AES-128-GCM DTLS record layer against the naive baseline
//! oracles (`pdn_oracle::reference` + `pdn_oracle::dtls_v1`), a 3 MB
//! segment's round trip through a `DataChannel`, plus STUN
//! MESSAGE-INTEGRITY checks/sec and JWT verifies/sec old vs new, all
//! measured in the same process. The AES-GCM backend in use (`aes-ni`,
//! `vaes-avx512` or `portable`) is recorded with the numbers.
//!
//! ```text
//! cargo run --release -p pdn-oracle --bin crypto_bench [-- --quick]
//! ```
//!
//! `--quick` shrinks the iteration counts for CI smoke runs; the speedup
//! and zero-allocation gates still apply.
//!
//! The binary installs a counting global allocator so the "zero heap
//! allocations per sealed record in steady state" claim is *measured*, not
//! asserted from code reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::BytesMut;
use pdn_crypto::aes_gcm::Aes128Gcm;
use pdn_crypto::hmac::HmacKey;
use pdn_crypto::{base64url, ct_eq, jwt};
use pdn_oracle::{dtls_v1, reference};
use pdn_simnet::SimRng;
use pdn_webrtc::dtls::{handshake, DtlsEndpoint};
use pdn_webrtc::stun::Message;
use pdn_webrtc::{Certificate, DataChannel};

/// Wraps the system allocator, counting every allocation. The DTLS
/// steady-state gate reads the counter around a seal+open loop.
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

/// Fresh established client/server pair, deterministic.
fn dtls_pair(seed: u64) -> (DtlsEndpoint, DtlsEndpoint) {
    let mut rng = SimRng::seed(seed);
    let ccert = Certificate::generate(&mut rng);
    let scert = Certificate::generate(&mut rng);
    let (cfp, sfp) = (ccert.fingerprint(), scert.fingerprint());
    let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
    let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
    handshake(&mut c, hello, &mut s, &mut rng).expect("handshake");
    (c, s)
}

/// One timed fast-path run: `iters` records of `payload` sealed into and
/// opened from warm buffers. Returns elapsed seconds.
fn run_fast(payload: &[u8], iters: usize) -> f64 {
    let (mut c, mut s) = dtls_pair(17);
    let mut record = BytesMut::new();
    let mut plain = BytesMut::new();
    // Warm the buffers so the timed loop is steady-state.
    c.seal_into(payload, &mut record).expect("seal");
    s.open_into(&record, &mut plain).expect("open");
    let t = Instant::now();
    for _ in 0..iters {
        c.seal_into(payload, &mut record).expect("seal");
        s.open_into(&record, &mut plain).expect("open");
    }
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(&plain[..], payload, "fast path roundtrip");
    dt
}

/// One timed baseline run: the pre-fast-path record path (per-record
/// HMAC key schedule via `reference::hmac_sha256`, fresh allocations, v1
/// one-full-hash-per-32-bytes keystream).
fn run_baseline(payload: &[u8], iters: usize) -> f64 {
    let mac_key = pdn_crypto::sha256::digest(b"baseline record mac");
    let write_key = pdn_crypto::sha256::digest(b"baseline client write");
    let t = Instant::now();
    let mut last = None;
    for seq in 0..iters as u64 {
        let record = dtls_v1::seal_v1(&mac_key, &write_key, seq, payload);
        last = Some(dtls_v1::open_v1(&mac_key, &write_key, seq, &record).expect("open"));
    }
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(&last.expect("ran")[..], payload, "baseline roundtrip");
    dt
}

/// Size of the segment the channel row sends: Table VI's 3 MB.
const SEGMENT_BYTES: usize = 3_000_000;

/// One timed channel run: `iters` 3 MB messages, each sent as a header part
/// plus a segment part and received record by record, as the PDN SDK does.
/// Returns (messages/sec, records per message).
fn run_channel(segment: &[u8], iters: usize) -> (f64, usize) {
    let (c, s) = dtls_pair(17);
    let (mut tx, mut rx) = (DataChannel::new(c), DataChannel::new(s));
    let header = [0xc1u8; 24];
    let mut msgs = Vec::new();
    let mut round = |tx: &mut DataChannel, rx: &mut DataChannel| -> usize {
        let records = tx.send_message(&[&header, segment]).expect("send");
        msgs.clear();
        for r in &records {
            if let Some(m) = rx.receive_record(r).expect("open") {
                msgs.push(m);
            }
        }
        assert_eq!(msgs.len(), 1, "one message per send");
        records.len()
    };
    let records = round(&mut tx, &mut rx); // warm the scratch
    let t = Instant::now();
    for _ in 0..iters {
        round(&mut tx, &mut rx);
    }
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(&msgs[0][header.len()..], segment, "channel roundtrip");
    (iters as f64 / dt, records)
}

/// Allocations per record across a steady-state loop, counted separately
/// for `seal_into` and `open_into` (the data channel's per-record calls):
/// returns (seal, open).
fn allocs_per_record(payload: &[u8], iters: usize) -> (f64, f64) {
    let (mut c, mut s) = dtls_pair(23);
    let mut record = BytesMut::new();
    let mut plain = BytesMut::new();
    for _ in 0..4 {
        c.seal_into(payload, &mut record).expect("seal");
        s.open_into(&record, &mut plain).expect("open");
    }
    let (mut seal, mut open) = (0u64, 0u64);
    for _ in 0..iters {
        let before = ALLOCS.load(Ordering::Relaxed);
        c.seal_into(payload, &mut record).expect("seal");
        let mid = ALLOCS.load(Ordering::Relaxed);
        s.open_into(&record, &mut plain).expect("open");
        open += ALLOCS.load(Ordering::Relaxed) - mid;
        seal += mid - before;
    }
    (seal as f64 / iters as f64, open as f64 / iters as f64)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 8 } else { 1 };

    // --- DTLS record layer: seal + open, old vs new, per payload size. ---
    let sizes: &[(usize, usize)] = &[(64, 6000), (1200, 1500), (16_384, 150)];
    let mut dtls_rows = String::new();
    let mut worst_speedup = f64::INFINITY;
    for &(size, iters) in sizes {
        let iters = (iters / scale).max(10);
        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        // Interleave old/new runs so frequency scaling hits both equally.
        let mut new_s = Vec::new();
        let mut old_s = Vec::new();
        for _ in 0..RUNS {
            new_s.push(run_fast(&payload, iters));
            old_s.push(run_baseline(&payload, iters));
        }
        let new_dt = median(new_s);
        let old_dt = median(old_s);
        let new_rps = iters as f64 / new_dt;
        let old_rps = iters as f64 / old_dt;
        let new_mbps = (iters * size) as f64 / new_dt / 1e6;
        let old_mbps = (iters * size) as f64 / old_dt / 1e6;
        let speedup = new_rps / old_rps;
        worst_speedup = worst_speedup.min(speedup);
        dtls_rows.push_str(&format!(
            "    {{\"payload_bytes\": {size}, \"records_per_sec_new\": {new_rps:.0}, \
             \"records_per_sec_old\": {old_rps:.0}, \"mb_per_sec_new\": {new_mbps:.1}, \
             \"mb_per_sec_old\": {old_mbps:.1}, \"speedup\": {speedup:.2}}},\n"
        ));
    }
    dtls_rows.pop();
    dtls_rows.pop(); // trailing ",\n"

    let (seal_allocs, open_allocs) = allocs_per_record(&vec![7u8; 1200], (4000 / scale).max(50));

    // --- A 3 MB segment through the data channel: gathered send plus
    // per-record receive with in-place reassembly. ---
    let segment: Vec<u8> = (0..SEGMENT_BYTES).map(|i| (i % 251) as u8).collect();
    let mut channel_s = Vec::new();
    let mut records_per_msg = 0;
    for _ in 0..RUNS {
        let (rate, records) = run_channel(&segment, (40 / scale).max(3));
        channel_s.push(rate);
        records_per_msg = records;
    }
    let channel_msgs = median(channel_s);
    let channel_mbps = channel_msgs * SEGMENT_BYTES as f64 / 1e6;
    let channel_ms = 1e3 / channel_msgs;

    // --- STUN MESSAGE-INTEGRITY: checks/sec, per-check key schedule vs
    // cached HmacKey. ---
    let pwd = b"ice-password-benchmark";
    let key = HmacKey::new(pwd);
    let txid = [9u8; 12];
    let msg = Message::binding_request(txid).with_integrity(&key);
    let mac_ref = reference::hmac_sha256(pwd, &txid);
    let stun_iters = (200_000 / scale).max(1000);
    let mut new_s = Vec::new();
    let mut old_s = Vec::new();
    for _ in 0..RUNS {
        let t = Instant::now();
        for _ in 0..stun_iters {
            assert!(msg.verify_integrity(std::hint::black_box(&key)));
        }
        new_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..stun_iters {
            // The pre-PR check: full HMAC key schedule from the raw
            // password, naive SHA-256, every time.
            let mac = reference::hmac_sha256(std::hint::black_box(pwd), &txid);
            assert!(ct_eq(&mac, &mac_ref));
        }
        old_s.push(t.elapsed().as_secs_f64());
    }
    let stun_new = stun_iters as f64 / median(new_s);
    let stun_old = stun_iters as f64 / median(old_s);

    // --- JWT verifies/sec: keyed fast path vs a faithful replica of the
    // pre-PR verify (signing-input concat + naive HMAC per call). ---
    let jwt_key_bytes = b"pdn-provider-jwt-key";
    let jwt_key = HmacKey::new(jwt_key_bytes);
    let payload = br#"{"customer_id":"xx.yy","pdn_peer_id":"1","video_ids":["https://xx.yy/zz.m3u8"],"timestamp":1619814000,"ttl":60,"usage_limit":1}"#;
    let token = jwt::sign_raw(payload, jwt_key_bytes);
    let verify_old = |token: &str| -> Vec<u8> {
        let mut parts = token.split('.');
        let (head, body, sig) = (
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap(),
        );
        let signing_input = format!("{head}.{body}");
        let expected = reference::hmac_sha256(jwt_key_bytes, signing_input.as_bytes());
        let got = base64url::decode(sig).unwrap();
        assert!(ct_eq(&expected, &got));
        base64url::decode(body).unwrap()
    };
    let jwt_iters = (50_000 / scale).max(500);
    let mut new_s = Vec::new();
    let mut old_s = Vec::new();
    for _ in 0..RUNS {
        let t = Instant::now();
        for _ in 0..jwt_iters {
            jwt::verify_raw_keyed(std::hint::black_box(&token), &jwt_key).expect("valid");
        }
        new_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..jwt_iters {
            verify_old(std::hint::black_box(&token));
        }
        old_s.push(t.elapsed().as_secs_f64());
    }
    let jwt_new = jwt_iters as f64 / median(new_s);
    let jwt_old = jwt_iters as f64 / median(old_s);

    let sha_hw = pdn_crypto::sha256::hw_accelerated();
    let hw = pdn_crypto::aes_gcm::hw_accelerated();
    let backend = Aes128Gcm::new(&[0; 16]).backend();
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"sha_hw_accelerated\": {sha_hw},\n  \
         \"aes_gcm_hw_accelerated\": {hw},\n  \
         \"aes_gcm_backend\": \"{backend}\",\n  \
         \"dtls_seal_open\": [\n{dtls_rows}\n  ],\n  \
         \"dtls_seal_into_allocs_per_record\": {seal_allocs:.3},\n  \
         \"dtls_open_into_allocs_per_record\": {open_allocs:.3},\n  \
         \"channel_3mb_roundtrip\": {{\"message_bytes\": {SEGMENT_BYTES}, \
         \"records\": {records_per_msg}, \"ms_per_message\": {channel_ms:.3}, \
         \"mb_per_sec\": {channel_mbps:.1}}},\n  \
         \"stun_checks_per_sec_new\": {stun_new:.0},\n  \
         \"stun_checks_per_sec_old\": {stun_old:.0},\n  \
         \"stun_speedup\": {:.2},\n  \
         \"jwt_verifies_per_sec_new\": {jwt_new:.0},\n  \
         \"jwt_verifies_per_sec_old\": {jwt_old:.0},\n  \
         \"jwt_speedup\": {:.2},\n  \
         \"dtls_worst_speedup\": {worst_speedup:.2}\n}}\n",
        stun_new / stun_old,
        jwt_new / jwt_old,
    );
    if !quick {
        std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    }
    print!("{json}");

    assert!(
        seal_allocs == 0.0,
        "steady-state seal_into must not allocate (got {seal_allocs:.3} allocs/record)"
    );
    assert!(
        open_allocs == 0.0,
        "steady-state open_into must not allocate (got {open_allocs:.3} allocs/record)"
    );
    // The fast path's margin at large payloads comes from running
    // AES-128-GCM on the CPU's AES-NI and PCLMULQDQ units. Without them the
    // portable table backend still beats the baseline's hash-per-32-bytes
    // keystream, but by less, so the gate drops to "measurably faster"
    // (same stance as sim_bench's small-host guard).
    if hw {
        assert!(
            worst_speedup >= 3.0,
            "DTLS seal+open fast path must be >=3x the baseline at every \
             payload size (worst {worst_speedup:.2}x)"
        );
    } else {
        eprintln!("note: no AES-NI/PCLMULQDQ on this host; skipping the >=3x DTLS gate");
        assert!(
            worst_speedup > 1.0,
            "DTLS seal+open fast path must beat the baseline (worst {worst_speedup:.2}x)"
        );
    }
    assert!(
        stun_new > stun_old,
        "cached-key STUN checks must beat per-check key schedules"
    );
    assert!(
        jwt_new > jwt_old,
        "keyed JWT verifies must beat per-verify key schedules"
    );
}
