//! Lightweight per-phase wall-clock profiler for the simulation hot loop.
//!
//! The bench harness needs `workload_serial_ms` to be *attributable*: how
//! much of the pooled workload is agent tick work vs signaling vs P2P
//! delivery vs crypto vs frame capture. A sampling profiler is unavailable
//! in the container, so the hot loops mark themselves with [`phase`] guards.
//!
//! Disabled (the default), a guard is one relaxed atomic load and no clock
//! read — cheap enough to leave compiled into release builds. Enabled (via
//! `sim_bench --profile`), each guard reads a monotonic clock on entry and
//! drop, accumulating nanoseconds and entry counts.
//!
//! **Shard safety.** Accumulation is thread-local: each guard drop adds to
//! plain `Cell` counters owned by its thread, so concurrent shard workers
//! never contend on shared cache lines and per-guard cost stays flat as
//! worker count grows (keeping `probe_cost_ns` calibration valid under
//! sharding). Worker totals merge into the global counters via
//! [`flush_thread_local`], which the shard runner calls as each worker's
//! last act before the barrier join — a thread scope releases the
//! joiner when the closure *returns*, which can be before the thread's
//! TLS destructors run, so only an explicit in-closure flush is
//! guaranteed visible to the coordinator. (Thread exit still flushes as a
//! backstop for plain spawned threads.) Merging is pure addition of
//! disjoint per-thread sums, hence deterministic regardless of worker
//! scheduling. [`snapshot`] also folds in the calling thread's pending
//! counts, so single-threaded callers see their totals immediately.
//!
//! Phases may nest (crypto work happens inside tick and P2P handling); the
//! report therefore states self-inclusive times per phase, and `Crypto` in
//! particular overlaps its callers rather than partitioning them.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Hot-loop phases tracked by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Agent timer ticks (scheduling, cache maintenance, request pumps).
    Tick,
    /// Signaling server frame handling.
    Signal,
    /// Peer-to-peer datagram handling in agents.
    P2p,
    /// CDN/HTTP request + response handling.
    Http,
    /// DTLS sealing/opening and HMAC work (nested inside Tick/P2p).
    Crypto,
    /// Packet capture ring writes.
    Capture,
}

/// Number of phases (array sizing).
pub const PHASE_COUNT: usize = 6;

/// Phase order used by [`snapshot`] and reports.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::Tick,
    Phase::Signal,
    Phase::P2p,
    Phase::Http,
    Phase::Crypto,
    Phase::Capture,
];

impl Phase {
    /// Stable lowercase label (used as JSON key suffix).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Tick => "tick",
            Phase::Signal => "signal",
            Phase::P2p => "p2p",
            Phase::Http => "http",
            Phase::Crypto => "crypto",
            Phase::Capture => "capture",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            Phase::Tick => 0,
            Phase::Signal => 1,
            Phase::P2p => 2,
            Phase::Http => 3,
            Phase::Crypto => 4,
            Phase::Capture => 5,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
/// Merge target: sums of all exited (or flushed) threads' counters.
static NANOS: [AtomicU64; PHASE_COUNT] = [ZERO; PHASE_COUNT];
static COUNTS: [AtomicU64; PHASE_COUNT] = [ZERO; PHASE_COUNT];

/// Per-thread accumulators. Guard drops touch only these; shard workers
/// merge them into the globals with an explicit [`flush_thread_local`]
/// before the barrier, and the `Drop` impl flushes at thread exit as a
/// backstop for ordinary spawned threads.
struct LocalCells {
    nanos: [Cell<u64>; PHASE_COUNT],
    counts: [Cell<u64>; PHASE_COUNT],
}

impl LocalCells {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const C: Cell<u64> = Cell::new(0);
        LocalCells {
            nanos: [C; PHASE_COUNT],
            counts: [C; PHASE_COUNT],
        }
    }

    /// Moves this thread's pending counts into the globals, zeroing the
    /// cells so a double flush (explicit + thread exit) adds nothing.
    fn flush(&self) {
        for i in 0..PHASE_COUNT {
            let n = self.nanos[i].take();
            if n != 0 {
                NANOS[i].fetch_add(n, Ordering::Relaxed);
            }
            let c = self.counts[i].take();
            if c != 0 {
                COUNTS[i].fetch_add(c, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for LocalCells {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: LocalCells = const { LocalCells::new() };
}

/// Turns phase accounting on or off (global; affects all worlds/threads).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True if phase accounting is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all accumulated counters: the global merge target and the
/// calling thread's pending cells. Other live threads' pending counts are
/// unreachable from here; reset between runs from the coordinating thread
/// while no workers are active.
pub fn reset() {
    for i in 0..PHASE_COUNT {
        NANOS[i].store(0, Ordering::Relaxed);
        COUNTS[i].store(0, Ordering::Relaxed);
    }
    LOCAL.with(|l| {
        for i in 0..PHASE_COUNT {
            l.nanos[i].set(0);
            l.counts[i].set(0);
        }
    });
}

/// Merges the calling thread's pending counts into the global totals.
///
/// Scoped workers **must** call this before returning from their
/// closure: a thread scope unblocks the joiner as soon as the closure
/// returns, without waiting for the worker's TLS destructors, so counts
/// left to the exit-time flush can land after the coordinator has
/// already snapshotted. The shard runner and `WorldPool` do this for
/// their workers.
pub fn flush_thread_local() {
    LOCAL.with(|l| l.flush());
}

/// Accumulated totals for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Which phase.
    pub phase: Phase,
    /// Total wall-clock nanoseconds spent inside guards for this phase.
    pub nanos: u64,
    /// Number of guard entries.
    pub count: u64,
}

/// Snapshot of all phase totals, in [`PHASES`] order. Includes the calling
/// thread's pending counts (flushed first) plus every already-merged
/// worker; workers still running are not visible until they exit or flush.
pub fn snapshot() -> [PhaseTotals; PHASE_COUNT] {
    flush_thread_local();
    PHASES.map(|p| PhaseTotals {
        phase: p,
        nanos: NANOS[p.idx()].load(Ordering::Relaxed),
        count: COUNTS[p.idx()].load(Ordering::Relaxed),
    })
}

/// RAII guard accumulating elapsed time into its phase on drop.
pub struct PhaseGuard {
    start: Option<(Phase, Instant)>,
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((phase, start)) = self.start {
            let elapsed = start.elapsed().as_nanos() as u64;
            let i = phase.idx();
            LOCAL.with(|l| {
                l.nanos[i].set(l.nanos[i].get() + elapsed);
                l.counts[i].set(l.counts[i].get() + 1);
            });
        }
    }
}

/// Enters `phase` for the lifetime of the returned guard.
///
/// When profiling is disabled this is a single relaxed load and the guard
/// drop is a no-op.
#[inline]
pub fn phase(phase: Phase) -> PhaseGuard {
    if ENABLED.load(Ordering::Relaxed) {
        PhaseGuard {
            start: Some((phase, Instant::now())),
        }
    } else {
        PhaseGuard { start: None }
    }
}

/// Measured cost of one enabled guard entry+drop, in nanoseconds
/// (set by [`calibrate_probe_cost`]; zero until calibrated).
static PROBE_COST_NANOS: AtomicU64 = AtomicU64::new(0);

/// Measures the wall-clock cost of one enabled guard pair (clock read on
/// entry, clock read + two thread-local adds on drop) and stores it for
/// [`probe_cost_nanos`]. Run once before a profiled pass; the result lets
/// reports subtract probe overhead so high-entry cheap phases are not
/// overstated relative to an unprofiled run. Because accumulation is
/// thread-local, the cost measured here holds for every shard worker —
/// there is no cross-thread contention term that grows with worker count.
///
/// Returns the per-entry cost in nanoseconds.
pub fn calibrate_probe_cost() -> u64 {
    let was_enabled = enabled();
    set_enabled(true);
    // Warm the clock and the thread-local cells, then time a tight guard
    // loop. The loop is long enough to dominate the two boundary clock
    // reads.
    for _ in 0..1_000 {
        drop(phase(Phase::Capture));
    }
    const ITERS: u64 = 200_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        drop(phase(Phase::Capture));
    }
    let per_entry = (t0.elapsed().as_nanos() as u64) / ITERS;
    set_enabled(was_enabled);
    PROBE_COST_NANOS.store(per_entry, Ordering::Relaxed);
    per_entry
}

/// Last calibrated per-entry probe cost in nanoseconds (zero if
/// [`calibrate_probe_cost`] has not run).
pub fn probe_cost_nanos() -> u64 {
    PROBE_COST_NANOS.load(Ordering::Relaxed)
}

impl PhaseTotals {
    /// Nanoseconds with the calibrated probe cost removed: measured time
    /// minus `count` probe entries, saturating at zero. Phases with many
    /// cheap entries (P2p dispatch, Capture) otherwise overstate their
    /// share of a profiled run versus the unprofiled wall clock.
    pub fn calibrated_nanos(&self) -> u64 {
        self.nanos
            .saturating_sub(self.count.saturating_mul(probe_cost_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The profiler is global state; serialize the tests that toggle it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_guard_accumulates_nothing() {
        let _l = locked();
        set_enabled(false);
        reset();
        drop(phase(Phase::Tick));
        let snap = snapshot();
        assert_eq!(snap[0].count, 0);
        assert_eq!(snap[0].nanos, 0);
    }

    #[test]
    fn calibration_sets_probe_cost_and_calibrated_nanos_subtracts_it() {
        let _l = locked();
        let cost = calibrate_probe_cost();
        assert_eq!(probe_cost_nanos(), cost);
        let t = PhaseTotals {
            phase: Phase::P2p,
            nanos: 10 * cost.max(1),
            count: 4,
        };
        assert_eq!(
            t.calibrated_nanos(),
            t.nanos.saturating_sub(4 * cost),
            "probe cost is removed per entry"
        );
        let tiny = PhaseTotals {
            phase: Phase::Capture,
            nanos: 1,
            count: u64::MAX / 2,
        };
        assert_eq!(tiny.calibrated_nanos(), 0, "saturates at zero");
        PROBE_COST_NANOS.store(0, Ordering::Relaxed);
    }

    #[test]
    fn enabled_guard_counts_entries() {
        let _l = locked();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _g = phase(Phase::Signal);
        }
        {
            let _outer = phase(Phase::P2p);
            let _inner = phase(Phase::Crypto);
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap[1].count, 3);
        assert_eq!(snap[2].count, 1);
        assert_eq!(snap[4].count, 1);
        assert_eq!(snap[1].phase.label(), "signal");
    }

    #[test]
    fn worker_thread_counts_merge_at_join() {
        let _l = locked();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5 {
                        drop(phase(Phase::Tick));
                    }
                    // The barrier contract: flush before returning. The
                    // scope join does NOT wait for TLS destructors, so an
                    // exit-time flush can race the coordinator's snapshot.
                    flush_thread_local();
                });
            }
        });
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap[0].count, 10, "both workers' entries merged at join");
        reset();
    }

    #[test]
    fn explicit_flush_makes_pending_counts_visible() {
        let _l = locked();
        set_enabled(true);
        reset();
        drop(phase(Phase::Http));
        flush_thread_local();
        flush_thread_local(); // idempotent: cells were taken
        let n = COUNTS[Phase::Http.idx()].load(Ordering::Relaxed);
        set_enabled(false);
        assert_eq!(n, 1);
        reset();
    }
}
