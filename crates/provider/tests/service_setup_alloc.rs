//! Set-up cost pin for the open-loop tracker: the bytes `ServiceWorld::new`
//! requests from the allocator, counted per thread by a counting global
//! allocator (same stance as `join_alloc`). The world primes its timers at
//! build time, so anything its event queue lays out on the first push is
//! part of this figure. A byte count is host-independent, unlike a timed
//! set-up, and grows with any structure built eagerly in `new()`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use pdn_provider::service::{CaptureScope, InboxConfig, ServiceConfig, ServiceWorld};
use pdn_simnet::RatePlan;

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes requested by this thread while `f` runs.
fn bytes_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (r, BYTES.with(Cell::get) - before)
}

/// `service_bench`'s base tracker config at the nominal join rate (the
/// perfbench `tracker_knee` world).
fn knee() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(RatePlan::Steady { per_sec: 0.0 });
    cfg.run_for = Duration::from_secs(10);
    cfg.tick = Duration::from_millis(5);
    cfg.tick_budget = 60;
    cfg.inbox = InboxConfig::default();
    cfg.mean_session = Duration::from_secs(8);
    cfg.stats_every = Duration::from_secs(4);
    cfg.max_clients = 60_000;
    cfg.ramp = Duration::from_secs(1);
    cfg.capture = CaptureScope::ServerSignaling;
    cfg.plan = RatePlan::Steady {
        per_sec: cfg.nominal_capacity_per_sec(),
    };
    cfg
}

/// Bytes `ServiceWorld::new(&knee())` requested with the slab-backed
/// queue, whose `new()` laid out 2,048 empty bucket `Vec`s (49,152 B).
const SLAB_QUEUE_SETUP_BYTES: u64 = 315_753;

#[test]
fn service_world_setup_requests_no_more_bytes_than_the_slab_queue_did() {
    let cfg = knee();
    // Warm any lazily built process-wide state outside the measurement.
    drop(ServiceWorld::new(&cfg));
    let (world, bytes) = bytes_of(|| ServiceWorld::new(&cfg));
    drop(world);
    println!("ServiceWorld::new requested {bytes} B");
    assert!(
        bytes <= SLAB_QUEUE_SETUP_BYTES,
        "ServiceWorld::new requested {bytes} B, more than the \
         {SLAB_QUEUE_SETUP_BYTES} B it took with the slab-backed queue"
    );
}
