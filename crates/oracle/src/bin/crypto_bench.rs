//! Emits `BENCH_crypto.json`: wall-clock numbers for the crypto fast path —
//! one message per payload size sent and received through a `DataChannel`
//! (the AES-128-GCM DTLS record path every peer-served byte takes) against
//! the naive baseline oracles (`pdn_oracle::reference` +
//! `pdn_oracle::dtls_v1`), a 3 MB segment's round trip through a
//! `DataChannel` beside AES-GCM seal+open of the same bytes in record-sized
//! pieces (the cipher work alone), plus STUN MESSAGE-INTEGRITY checks/sec,
//! JWT verifies/sec and the CRC-32 of a 1,200-byte STUN Data indication
//! (slicing-by-8 tables vs the bitwise oracle) old vs new, all measured in
//! the same process. The AES-GCM backend in use (`aes-ni`, `vaes-avx512`
//! or `portable`) is recorded with the numbers.
//!
//! ```text
//! cargo run --release -p pdn-oracle --bin crypto_bench [-- --quick]
//! ```
//!
//! `--quick` shrinks the iteration counts for CI smoke runs; the speedup
//! and allocation gates still apply.
//!
//! The binary installs a counting global allocator to *measure* that a
//! channel receiving a multi-record message allocates nothing for the
//! records that neither start it (the message buffer) nor complete it (its
//! handle). The channel's exact per-message counts are pinned by
//! `pdn-webrtc`'s `channel_alloc` test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use pdn_crypto::aes_gcm::Aes128Gcm;
use pdn_crypto::hmac::HmacKey;
use pdn_crypto::{base64url, ct_eq, jwt};
use pdn_oracle::{dtls_v1, reference};
use pdn_simnet::{Addr, SimRng};
use pdn_webrtc::dtls::{handshake, DtlsEndpoint};
use pdn_webrtc::stun::Message;
use pdn_webrtc::turn;
use pdn_webrtc::{Certificate, DataChannel};

/// Wraps the system allocator, counting every allocation. The channel
/// receive gate reads the counter around each record.
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

/// Sends `payload` as one message and receives it record by record.
fn channel_roundtrip(tx: &mut DataChannel, rx: &mut DataChannel, payload: &[u8]) -> Bytes {
    let records = tx.send_message(&[payload]).expect("send");
    let mut msg = None;
    for r in &records {
        msg = rx.receive_record(r).expect("open").or(msg);
    }
    msg.expect("one message per send")
}

/// One timed fast-path run: `iters` messages of `payload` sent and
/// received through a data channel (one record each, two at 16 KB, where
/// the chunk header no longer fits). Returns elapsed seconds.
fn run_fast(payload: &[u8], iters: usize) -> f64 {
    let (c, s) = dtls_pair(17);
    let (mut tx, mut rx) = (DataChannel::new(c), DataChannel::new(s));
    let mut last = channel_roundtrip(&mut tx, &mut rx, payload);
    let t = Instant::now();
    for _ in 0..iters {
        last = channel_roundtrip(&mut tx, &mut rx, payload);
    }
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(&last[..], payload, "fast path roundtrip");
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

/// Payload of the CRC row's TURN Send indication: with the 20-byte
/// header, the 12-byte XOR-PEER-ADDRESS, the DATA attribute header and the
/// 8-byte FINGERPRINT it makes a 1,200-byte datagram.
const STUN_DATA_PAYLOAD: usize = 1156;

/// Size of the segment the channel row sends: Table VI's 3 MB.
const SEGMENT_BYTES: usize = 3_000_000;

/// Message bytes per channel record: a full record less the worst-case
/// chunk header (three 10-byte varints).
const CHUNK_BYTES: usize = pdn_webrtc::dtls::MAX_RECORD_PLAINTEXT - 30;

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

/// The cipher work of one channel round trip alone: `segment` sealed and
/// opened in record-sized pieces, each under its own nonce with a
/// record-header-sized AAD, into two preallocated buffers. Returns
/// messages/sec.
fn run_cipher(segment: &[u8], iters: usize) -> f64 {
    let gcm = Aes128Gcm::new(&[0x3c; 16]);
    let mut ct = vec![0u8; segment.len()];
    let mut pt = vec![0u8; segment.len()];
    let aad = [0x17u8; 13];
    let t = Instant::now();
    for _ in 0..iters {
        let pieces = segment
            .chunks(CHUNK_BYTES)
            .zip(ct.chunks_mut(CHUNK_BYTES))
            .zip(pt.chunks_mut(CHUNK_BYTES));
        for (seq, ((src, c), p)) in pieces.enumerate() {
            let mut nonce = [0u8; 12];
            nonce[4..].copy_from_slice(&(seq as u64).to_be_bytes());
            let mut seal = gcm.sealing(&nonce, &aad);
            seal.update(src, c);
            let tag = seal.finish();
            let mut open = gcm.opening(&nonce, &aad);
            open.update(c, p);
            assert!(open.finish(&tag));
        }
    }
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(pt, segment, "cipher roundtrip");
    iters as f64 / dt
}

/// Allocations per received record across warm 3 MB messages, counting
/// only the records that neither start a message (which reserves its
/// buffer) nor complete it (which wraps the buffer in its handle).
fn channel_receive_allocs_per_record(segment: &[u8], messages: usize) -> f64 {
    let (c, s) = dtls_pair(29);
    let (mut tx, mut rx) = (DataChannel::new(c), DataChannel::new(s));
    let (mut allocs, mut counted) = (0u64, 0u64);
    for m in 0..=messages {
        let records = tx.send_message(&[segment]).expect("send");
        let last = records.len() - 1;
        for (i, r) in records.iter().enumerate() {
            let before = ALLOCS.load(Ordering::Relaxed);
            let done = rx.receive_record(r).expect("open");
            // Message 0 warms the receiver's partial-message map.
            if m > 0 && i > 0 && i < last {
                allocs += ALLOCS.load(Ordering::Relaxed) - before;
                counted += 1;
            }
            assert_eq!(done.is_some(), i == last, "one message per send");
        }
    }
    allocs as f64 / counted as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 8 } else { 1 };

    // --- DTLS record path: a message sent and received through a data
    // channel vs the v1 record's seal + open, per payload size. ---
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
        let new_mps = iters as f64 / new_dt;
        let old_mps = iters as f64 / old_dt;
        let new_mbps = (iters * size) as f64 / new_dt / 1e6;
        let old_mbps = (iters * size) as f64 / old_dt / 1e6;
        let speedup = new_mps / old_mps;
        worst_speedup = worst_speedup.min(speedup);
        dtls_rows.push_str(&format!(
            "    {{\"payload_bytes\": {size}, \"messages_per_sec_new\": {new_mps:.0}, \
             \"messages_per_sec_old\": {old_mps:.0}, \"mb_per_sec_new\": {new_mbps:.1}, \
             \"mb_per_sec_old\": {old_mbps:.1}, \"speedup\": {speedup:.2}}},\n"
        ));
    }
    dtls_rows.pop();
    dtls_rows.pop(); // trailing ",\n"

    // --- A 3 MB segment through the data channel: gathered send plus
    // per-record receive with in-place reassembly. ---
    let segment: Vec<u8> = (0..SEGMENT_BYTES).map(|i| (i % 251) as u8).collect();
    let mut channel_s = Vec::new();
    let mut cipher_s = Vec::new();
    let mut records_per_msg = 0;
    for _ in 0..RUNS {
        let iters = (40 / scale).max(3);
        let (rate, records) = run_channel(&segment, iters);
        channel_s.push(rate);
        records_per_msg = records;
        cipher_s.push(run_cipher(&segment, iters));
    }
    let channel_msgs = median(channel_s);
    let channel_mbps = channel_msgs * SEGMENT_BYTES as f64 / 1e6;
    let channel_ms = 1e3 / channel_msgs;
    let cipher_ms = 1e3 / median(cipher_s);
    let channel_recv_allocs = channel_receive_allocs_per_record(&segment, 3);

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

    // --- CRC-32 over a relayed datagram: the FINGERPRINT input of a
    // 1,200-byte TURN indication (everything before the attribute), table
    // vs bitwise oracle. ---
    let indication = turn::send_indication(
        [3; 12],
        Addr::new(10, 0, 0, 2, 5000),
        (0..STUN_DATA_PAYLOAD)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>()
            .into(),
    );
    assert_eq!(indication.len(), 1200, "a 1,200-byte indication");
    let crc_input = &indication[..indication.len() - 8];
    assert_eq!(
        pdn_crypto::crc32::crc32(crc_input),
        reference::crc32(crc_input)
    );
    let crc_iters = (200_000 / scale).max(1000);
    let mut new_s = Vec::new();
    let mut old_s = Vec::new();
    for _ in 0..RUNS {
        let t = Instant::now();
        for _ in 0..crc_iters {
            std::hint::black_box(pdn_crypto::crc32::crc32(std::hint::black_box(crc_input)));
        }
        new_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..crc_iters {
            std::hint::black_box(reference::crc32(std::hint::black_box(crc_input)));
        }
        old_s.push(t.elapsed().as_secs_f64());
    }
    let crc_new = crc_iters as f64 / median(new_s);
    let crc_old = crc_iters as f64 / median(old_s);
    let crc_speedup = crc_new / crc_old;

    let sha_hw = pdn_crypto::sha256::hw_accelerated();
    let backend = Aes128Gcm::new(&[0; 16]).backend();
    let hw = backend != "portable";
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"sha_hw_accelerated\": {sha_hw},\n  \
         \"aes_gcm_hw_accelerated\": {hw},\n  \
         \"aes_gcm_backend\": \"{backend}\",\n  \
         \"dtls_seal_open\": [\n{dtls_rows}\n  ],\n  \
         \"channel_3mb_roundtrip\": {{\"message_bytes\": {SEGMENT_BYTES}, \
         \"records\": {records_per_msg}, \"ms_per_message\": {channel_ms:.3}, \
         \"mb_per_sec\": {channel_mbps:.1}, \
         \"cipher_seal_open_ms\": {cipher_ms:.3}}},\n  \
         \"channel_receive_allocs_per_record\": {channel_recv_allocs:.3},\n  \
         \"stun_checks_per_sec_new\": {stun_new:.0},\n  \
         \"stun_checks_per_sec_old\": {stun_old:.0},\n  \
         \"stun_speedup\": {:.2},\n  \
         \"jwt_verifies_per_sec_new\": {jwt_new:.0},\n  \
         \"jwt_verifies_per_sec_old\": {jwt_old:.0},\n  \
         \"jwt_speedup\": {:.2},\n  \
         \"crc32_1200b_per_sec_new\": {crc_new:.0},\n  \
         \"crc32_1200b_per_sec_old\": {crc_old:.0},\n  \
         \"crc32_speedup\": {crc_speedup:.2},\n  \
         \"dtls_worst_speedup\": {worst_speedup:.2}\n}}\n",
        stun_new / stun_old,
        jwt_new / jwt_old,
    );
    if !quick {
        std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    }
    print!("{json}");

    assert!(
        channel_recv_allocs == 0.0,
        "a channel record that neither starts nor completes a message must not \
         allocate (got {channel_recv_allocs:.3} allocs/record)"
    );
    // The fast path's margin at large payloads comes from running
    // AES-128-GCM on the CPU's AES-NI and PCLMULQDQ units. Without them the
    // portable table backend still beats the baseline's hash-per-32-bytes
    // keystream, but by less, so the gate drops to "measurably faster"
    // (same stance as sim_bench's small-host guard).
    if hw {
        assert!(
            worst_speedup >= 3.0,
            "the channel's DTLS record path must be >=3x the baseline at \
             every payload size (worst {worst_speedup:.2}x)"
        );
    } else {
        eprintln!("note: no AES-NI/PCLMULQDQ on this host; skipping the >=3x DTLS gate");
        assert!(
            worst_speedup > 1.0,
            "the channel's DTLS record path must beat the baseline (worst {worst_speedup:.2}x)"
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
    assert!(
        crc_speedup >= 3.0,
        "slicing-by-8 CRC-32 must be >=3x the bitwise oracle on a 1,200-byte \
         STUN indication (got {crc_speedup:.2}x)"
    );
}
