//! Allocation pin for the warm join path, measured with a counting global
//! allocator (same stance as simnet's `hist_alloc`): the zero-copy join
//! path (borrowed `JoinView` decode, spliced replies, frame-slice SDP
//! interning, batched neighbor memo) must allocate a small constant per
//! join — independent of how many neighbors each `JoinOk` carries —
//! while the public owned path (`SignalMsg::decode`, `handle_into`,
//! `encode`) pays per-neighbor `SessionDescription` clones.

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

/// Admits `frames` through the public owned path: decode each frame to a
/// `SignalMsg`, handle it, encode each reply.
fn owned_joins(
    s: &mut SignalingServer,
    frames: &[(Addr, Bytes)],
    now: SimTime,
    geo: &GeoIpService,
    replies: &mut Vec<(Addr, SignalMsg)>,
    out: &mut Vec<(Addr, Bytes)>,
) {
    for (from, frame) in frames {
        let msg = SignalMsg::decode(frame).expect("join frames decode");
        replies.clear();
        s.handle_into(*from, msg, now, geo, replies);
        out.extend(replies.iter().map(|(a, m)| (*a, m.encode())));
    }
}

/// Runs `n` warm joins (server already has a full neighbor pool and hot
/// memos) through the batched zero-copy path, or the owned path, and
/// returns total allocations inside the admission calls alone.
fn warm_join_allocs(s: &mut SignalingServer, zero_copy: bool, n: u32, first: u32) -> u64 {
    let geo = GeoIpService::new();
    let frames: Vec<(Addr, Bytes)> = (first..first + n)
        .map(|i| (addr(i), join_frame(i as u64)))
        .collect();
    let mut batch = AdmissionBatch::new();
    let mut out: Vec<(Addr, Bytes)> = Vec::with_capacity(frames.len() * 8);
    let mut replies = Vec::with_capacity(8);
    // One throwaway batch warms the per-tick memos and the reply vecs.
    let warm: Vec<(Addr, Bytes)> = (0..32u32)
        .map(|i| (addr(first + n + i), join_frame((first + n + i) as u64)))
        .collect();
    let mut admit = |frames: &[(Addr, Bytes)], now, out: &mut Vec<(Addr, Bytes)>| {
        if zero_copy {
            batch.clear();
            s.handle_frames_batch_into(frames, now, &geo, &mut batch, out);
        } else {
            owned_joins(s, frames, now, &geo, &mut replies, out);
        }
    };
    admit(&warm, SimTime::from_secs(1), &mut out);
    out.clear();
    allocs(|| {
        admit(&frames, SimTime::from_secs(2), &mut out);
        std::hint::black_box(&out);
    })
}

#[test]
fn warm_join_path_allocates_a_small_constant_per_join() {
    const N: u32 = 200;

    // Seed both servers with an identical membership so every measured
    // join is introduced to a full neighbor set (max_neighbors of them).
    let mut fast = server();
    let mut legacy = server();
    {
        let geo = GeoIpService::new();
        let seeders: Vec<(Addr, Bytes)> = (1..=64u32)
            .map(|i| (addr(i), join_frame(i as u64)))
            .collect();
        let mut out = Vec::new();
        let mut batch = AdmissionBatch::new();
        fast.handle_frames_batch_into(&seeders, SimTime::ZERO, &geo, &mut batch, &mut out);
        out.clear();
        let mut batch2 = AdmissionBatch::new();
        legacy.handle_frames_batch_into(&seeders, SimTime::ZERO, &geo, &mut batch2, &mut out);
    }

    let fast_total = warm_join_allocs(&mut fast, true, N, 1_000);
    let legacy_total = warm_join_allocs(&mut legacy, false, N, 1_000);
    let fast_per_join = fast_total as f64 / N as f64;
    let legacy_per_join = legacy_total as f64 / N as f64;

    // The zero-copy path must beat the owned path by a clear margin — the
    // owned path clones a SessionDescription (strings + candidate vec) per
    // neighbor per join, the fast path slices the request frame.
    assert!(
        fast_per_join * 1.5 <= legacy_per_join,
        "zero-copy join path no longer pays off: fast {fast_per_join:.1} \
         vs legacy {legacy_per_join:.1} allocs/join"
    );
    // And it must stay a small constant outright: reply buffers and
    // member-slab bookkeeping, not per-neighbor payload copies. The bound
    // has ~2x headroom over the measured value to absorb allocator-
    // agnostic drift without letting an SDP clone (5+ allocs x 5
    // neighbors) sneak back in.
    assert!(
        fast_per_join <= 30.0,
        "warm fast-path join allocated {fast_per_join:.1} times/join"
    );
}
