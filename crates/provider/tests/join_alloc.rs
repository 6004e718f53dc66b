//! Allocation pin for the warm join path, measured with a counting global
//! allocator (same stance as simnet's `hist_alloc`): admission (borrowed
//! `JoinView` decode, spliced replies, frame-slice SDP interning, batched
//! neighbor memo) must allocate a small constant per join, independent of
//! how many neighbors each `JoinOk` carries. A per-neighbor SDP decode and
//! clone (5+ allocations per neighbor) breaks the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use pdn_provider::proto::SignalMsg;
use pdn_provider::signaling::{AdmissionBatch, SignalingServer};
use pdn_provider::{CustomerAccount, ProviderProfile};
use pdn_simnet::{Addr, GeoIpService, SimRng, SimTime};
use pdn_webrtc::{Candidate, CandidateKind, Certificate, SessionDescription};

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
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn sdp(seed: u64) -> SessionDescription {
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

fn join_frame(seed: u64) -> Bytes {
    SignalMsg::Join {
        api_key: Some("key-svc".into()),
        token: None,
        origin: "svc.tv".into(),
        video: "v".into(),
        manifest_hash: "m0".into(),
        sdp: sdp(seed),
    }
    .encode()
}

fn server() -> SignalingServer {
    let mut s = SignalingServer::new(ProviderProfile::peer5(), 1);
    s.accounts_mut().register(CustomerAccount::new(
        "svc",
        "key-svc",
        ["svc.tv".to_string()],
    ));
    s
}

fn addr(i: u32) -> Addr {
    Addr::new(40, (i >> 16) as u8, (i >> 8) as u8, i as u8, 6000)
}

/// Runs `n` warm joins (server already has a full neighbor pool and hot
/// memos) through batched admission and returns total allocations inside
/// the admission calls alone.
fn warm_join_allocs(s: &mut SignalingServer, n: u32, first: u32) -> u64 {
    let geo = GeoIpService::new();
    let frames: Vec<(Addr, Bytes)> = (first..first + n)
        .map(|i| (addr(i), join_frame(i as u64)))
        .collect();
    let mut batch = AdmissionBatch::new();
    let mut out: Vec<(Addr, Bytes)> = Vec::with_capacity(frames.len() * 8);
    // One throwaway batch warms the per-tick memos and the reply vec.
    let warm: Vec<(Addr, Bytes)> = (0..32u32)
        .map(|i| (addr(first + n + i), join_frame((first + n + i) as u64)))
        .collect();
    s.handle_frames_batch_into(&warm, SimTime::from_secs(1), &geo, &mut batch, &mut out);
    out.clear();
    allocs(|| {
        s.handle_frames_batch_into(&frames, SimTime::from_secs(2), &geo, &mut batch, &mut out);
        std::hint::black_box(&out);
    })
}

#[test]
fn warm_join_path_allocates_a_small_constant_per_join() {
    const N: u32 = 200;

    // Seed the server so every measured join is introduced to a full
    // neighbor set (max_neighbors of them).
    let mut s = server();
    {
        let geo = GeoIpService::new();
        let seeders: Vec<(Addr, Bytes)> = (1..=64u32)
            .map(|i| (addr(i), join_frame(i as u64)))
            .collect();
        let mut out = Vec::new();
        let mut batch = AdmissionBatch::new();
        s.handle_frames_batch_into(&seeders, SimTime::ZERO, &geo, &mut batch, &mut out);
    }

    let per_join = warm_join_allocs(&mut s, N, 1_000) as f64 / N as f64;
    // A small constant outright: reply buffers and member-slab
    // bookkeeping, not per-neighbor payload copies. The join measures 5.1
    // allocations; the bound leaves ~2x headroom for drift, while an SDP
    // decode and clone per neighbor (6 allocations x 4 neighbors, 29.1 per
    // join) fails it.
    assert!(
        per_join <= 10.0,
        "warm join allocated {per_join:.1} times/join"
    );
}
