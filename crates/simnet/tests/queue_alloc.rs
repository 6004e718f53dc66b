//! Allocation pins for the calendar queue, measured with a counting global
//! allocator (same stance as `hist_alloc`): an unused queue costs nothing,
//! the first push lays out no more than the bucket headers the queue used
//! to build eagerly, and warm churn at a constant live count allocates
//! nothing at all. Counts are per thread, so tests running side by side
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use pdn_simnet::{CalendarQueue, Event, NodeId, SimTime};

type EventQueue = CalendarQueue<Event>;

struct CountingAlloc;

thread_local! {
    /// (allocation calls, bytes requested) on this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
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

/// `(allocation calls, bytes requested)` by this thread while `f` runs.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (calls, bytes) = COUNTS.with(Cell::get);
    let r = f();
    let (calls_after, bytes_after) = COUNTS.with(Cell::get);
    (r, (calls_after - calls, bytes_after - bytes))
}

fn timer(token: u64) -> Event {
    Event::Timer {
        node: NodeId(0),
        token,
    }
}

/// What the slab-backed queue's `new()` allocated: 2,048 empty bucket
/// `Vec` headers of 24 B.
const EAGER_WHEEL_BYTES: u64 = 2_048 * 24;

#[test]
fn new_allocates_nothing() {
    let (q, (calls, bytes)) = allocs(EventQueue::new);
    assert_eq!((calls, bytes), (0, 0), "new() allocated {bytes} B");
    assert_eq!(q.mem_bytes(), 0);
}

#[test]
fn first_push_allocates_no_more_than_the_eager_wheel_did() {
    let mut q = EventQueue::new();
    let ((), (_, bytes)) = allocs(|| q.push(SimTime::from_millis(3), timer(0)));
    println!("first push allocated {bytes} B");
    assert!(
        bytes <= EAGER_WHEEL_BYTES,
        "first push allocated {bytes} B, more than the {EAGER_WHEEL_BYTES} B \
         the eager wheel took"
    );
    // Later pushes into the same page allocate nothing more.
    let ((), (calls, _)) = allocs(|| q.push(SimTime::from_millis(4), timer(1)));
    assert_eq!(calls, 0);
}

#[test]
fn warm_churn_at_a_constant_live_count_allocates_nothing() {
    // Each pop schedules one follow-up, cycling through delays from the
    // wheel band to past the horizon, so the live count stays at
    // `IN_FLIGHT` and the queue settles into a periodic state.
    const IN_FLIGHT: u64 = 4_096;
    const DELAYS_MS: [u64; 7] = [1, 3, 7, 20, 50, 300, 2_000];
    let mut q = EventQueue::new();
    for i in 0..IN_FLIGHT {
        q.push(SimTime::from_nanos(i * 9_973), timer(i));
    }
    let mut token = IN_FLIGHT;
    let mut churn = |q: &mut EventQueue, n: u64| {
        for _ in 0..n {
            let (at, _) = q.pop().expect("queue stays primed");
            let delay = DELAYS_MS[(token % DELAYS_MS.len() as u64) as usize];
            q.push(at + Duration::from_millis(delay), timer(token));
            token += 1;
        }
    };
    churn(&mut q, 200_000);
    let chunks = q.stats().chunks;
    let ((), (calls, bytes)) = allocs(|| churn(&mut q, 200_000));
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "warm churn allocated {calls} times ({bytes} B)"
    );
    assert_eq!(q.stats().chunks, chunks, "the chunk pool did not grow");
    assert_eq!(q.len() as u64, IN_FLIGHT);
}
