//! Host probes: process CPU clocks, CPU pinning, the host-speed
//! correction, the heap high-water counter, and the `/proc` counters the
//! run diagnostics print (steal, run-queue wait, peak RSS, threads).
//!
//! Linux only. The clocks and the affinity call are plain libc symbols,
//! declared here so the benchmark needs no extra crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of a
    // 64-bit Linux target, and both clock ids are defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + system) used by every thread of this process.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Runs `f` and returns its result with the process CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = process_cpu_s();
    let out = f();
    (out, process_cpu_s() - start)
}

/// Pins the calling thread — and every thread it spawns later — to the
/// CPU it is running on, and returns that CPU.
///
/// Every "auto" executor in the library (`WorldPool::auto`, the detector's
/// worker count, `ShardMode::Auto`) sizes itself from
/// `available_parallelism`, which honours the affinity mask; one allowed
/// CPU makes them all take their inline path, so the measured CPU time is
/// the serial cost. Must run before anything probes the host.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads scheduler
    // state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).ok().filter(|&c| c < 1024)?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a 1024-bit cpu_set_t (16 × u64) that outlives the
    // call, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPU cost of the reference kernel on the nominal host the benchmark's
/// figures are rescaled to.
pub const NOMINAL_REFERENCE_S: f64 = 0.030;

/// Host-speed correction for CPU times.
///
/// On a shared VM the same code costs up to ~2× more CPU time in some
/// minutes than in others (sibling tenants' load, frequency). A fixed
/// reference kernel that uses none of the repository's code slows down
/// with the host nearly in step, so every CPU time the benchmark reports
/// is divided by the kernel's cost measured right around it and
/// multiplied by [`NOMINAL_REFERENCE_S`]: seconds on a host where the
/// kernel takes 30 ms. A change to the program cannot move the kernel.
pub struct HostSpeed {
    table: Vec<u32>,
    last: f64,
    factors: Vec<f64>,
}

impl HostSpeed {
    /// Builds the kernel's table and takes the first reference reading.
    pub fn new() -> Self {
        const N: u32 = 1 << 21;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..N)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x as u32) & (N - 1)
            })
            .collect();
        let mut speed = HostSpeed {
            table,
            last: 0.0,
            factors: Vec::new(),
        };
        speed.last = speed.reference();
        speed
    }

    /// One kernel run, in CPU seconds: a binary-heap event queue, hash-map
    /// inserts and lookups, frame-sized allocations and copies, and
    /// dependent loads over the table — the mix the simulations run.
    fn kernel(&self) -> f64 {
        let (_, cpu) = cpu_timed(|| {
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut heap = std::collections::BinaryHeap::with_capacity(4096);
            for i in 0..4096u64 {
                heap.push(std::cmp::Reverse((next() & 0xffff, i)));
            }
            for i in 0..150_000u64 {
                let std::cmp::Reverse((t, id)) = heap.pop().expect("primed");
                heap.push(std::cmp::Reverse((t + (next() & 0xfff), id ^ i)));
            }
            let mut map = std::collections::HashMap::new();
            for k in 0..40_000u64 {
                map.insert(next() & 0xf_ffff, k);
            }
            let mut hits = 0u64;
            for _ in 0..80_000 {
                hits += u64::from(map.contains_key(&(next() & 0xf_ffff)));
            }
            let frame = vec![7u8; 1500];
            let mut kept = Vec::new();
            for i in 0..20_000usize {
                let mut v = frame.clone();
                v[i % 1500] ^= 1;
                if i % 64 == 0 {
                    kept.push(v);
                }
            }
            let (mut j, mut acc) = (0u32, 0u64);
            for _ in 0..1_000_000 {
                j = self.table[j as usize];
                acc = acc.wrapping_mul(31).wrapping_add(u64::from(j));
            }
            std::hint::black_box((heap.len(), hits, kept.len(), acc))
        });
        cpu
    }

    /// Fastest of three kernel runs, in CPU seconds: a sustained slow
    /// phase slows all three, a passing disturbance only one or two.
    fn reference(&self) -> f64 {
        [self.kernel(), self.kernel(), self.kernel()]
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Rescales `cpu_s`, spent since the previous reading, by the mean of
    /// that reading and a new one taken now.
    pub fn scale(&mut self, cpu_s: f64) -> f64 {
        let now = self.reference();
        let factor = NOMINAL_REFERENCE_S / ((self.last + now) / 2.0);
        self.last = now;
        self.factors.push(factor);
        cpu_s * factor
    }

    /// Rescales a short `cpu_s` by the last reading alone.
    pub fn scale_by_last(&self, cpu_s: f64) -> f64 {
        cpu_s * NOMINAL_REFERENCE_S / self.last
    }

    /// The factor [`HostSpeed::scale`] applied last.
    pub fn last_factor(&self) -> f64 {
        self.factors.last().copied().unwrap_or(1.0)
    }

    /// Median rescaling factor so far (1 on the nominal host).
    pub fn median_factor(&self) -> f64 {
        let mut f = self.factors.clone();
        f.sort_by(f64::total_cmp);
        f.get(f.len() / 2).copied().unwrap_or(1.0)
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

/// The process allocator: the system allocator plus a live-byte count and
/// its high-water mark. The benchmark binary installs it; everything runs
/// on one thread, so plain loads and stores keep the count (a second
/// thread could only make it approximate, never unsound).
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters do not touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.store(
            LIVE.load(Ordering::Relaxed).saturating_sub(layout.size()),
            Ordering::Relaxed,
        );
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let live = LIVE.load(Ordering::Relaxed).saturating_sub(layout.size());
        LIVE.store(live, Ordering::Relaxed);
        grow(new_size);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn grow(size: usize) {
    let live = LIVE.load(Ordering::Relaxed) + size;
    LIVE.store(live, Ordering::Relaxed);
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.store(live, Ordering::Relaxed);
    }
}

/// Restarts the heap high-water mark at the bytes live now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap bytes since the last [`reset_peak_heap`], in MiB
/// (0 unless [`CountingAlloc`] is the global allocator).
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

/// A field of `/proc/self/status` in its own unit (kB for memory).
fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads currently alive in this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// `(steal, total)` jiffies of one CPU's line in `/proc/stat`.
fn cpu_jiffies(cpu: Option<usize>) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let total = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

/// Nanoseconds this thread has waited on a run queue (`schedstat`).
fn runq_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Host counters at the start of a run; [`Diagnostics::finish`] turns
/// their deltas into the diagnostic line.
pub struct Diagnostics {
    cpu: Option<usize>,
    wall: Instant,
    process_cpu: f64,
    thread_cpu: f64,
    jiffies: Option<(u64, u64)>,
    runq: Option<u64>,
}

impl Diagnostics {
    /// Starts the counters for the CPU the run is pinned to (or the whole
    /// host when unpinned).
    pub fn start(cpu: Option<usize>) -> Self {
        Diagnostics {
            cpu,
            wall: Instant::now(),
            process_cpu: process_cpu_s(),
            thread_cpu: thread_cpu_s(),
            jiffies: cpu_jiffies(cpu),
            runq: runq_wait_ns(),
        }
    }

    /// One `key=value` diagnostic line: wall seconds, steal share of the
    /// pinned CPU, run-queue wait, threads alive and the CPU other
    /// threads than this one used (zero when everything ran inline).
    pub fn finish(&self) -> String {
        let steal_pct = match (self.jiffies, cpu_jiffies(self.cpu)) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        let runq_ms = match (self.runq, runq_wait_ns()) {
            (Some(a), Some(b)) => (b.saturating_sub(a)) as f64 / 1e6,
            _ => 0.0,
        };
        let other_threads_cpu =
            (process_cpu_s() - self.process_cpu) - (thread_cpu_s() - self.thread_cpu);
        format!(
            "wall_s={:.3} steal_pct={steal_pct:.2} runq_wait_ms={runq_ms:.1} threads={} \
             other_threads_cpu_s={:.3} pinned_cpu={} available_parallelism={}",
            self.wall.elapsed().as_secs_f64(),
            threads(),
            other_threads_cpu.max(0.0),
            self.cpu.map_or("none".to_string(), |c| c.to_string()),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
    }
}
