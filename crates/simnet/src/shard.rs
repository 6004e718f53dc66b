//! The workspace's two thread executors, side by side so they share one
//! host probe ([`host_parallelism`]) and one profiler-flush discipline.
//!
//! [`WorldPool`] fans out across *independent* jobs (paper worlds, scan
//! shards, watch sessions); [`run_sharded`] parallelizes *inside* one
//! world by conservative parallel discrete-event execution. The world is partitioned into K
//! spatial shards, each owning a subset of agents and their calendar
//! queue ([`crate::CalendarQueue`]). Shards advance in lockstep through
//! **lookahead windows**: with L = the minimum latency of any cross-shard
//! link, every message a shard emits during window `[start, start+L)`
//! carries an arrival stamp `>= start + L` — at or past the window end —
//! so shards can drain their local queues through the window in parallel
//! without ever receiving an event from the past. At the window barrier
//! the coordinator exchanges the accumulated cross-shard batches and opens
//! the next window at the earliest pending event.
//!
//! **Determinism contract.** The runner produces byte-identical world
//! state at any shard-worker interleaving, provided the [`ShardWorld`]
//! implementation holds up its side:
//!
//! - outboxes are merged in *source shard index order* (like `WorldPool`'s
//!   index-ordered merge), never completion order;
//! - delivered messages enter the destination queue under a tie-break key
//!   derived from message content ([`crate::CalendarQueue::push_keyed`]),
//!   so pop order is independent of which window or batch position the
//!   message arrived in;
//! - any randomness is keyed by content (origin id, per-origin counter),
//!   never by global draw order.
//!
//! Under those rules K=1 with an inline loop and K=8 on worker threads
//! drain the exact same event sequence per shard, which
//! `tests/shard_determinism.rs` pins down byte-for-byte.
//!
//! The runner enforces the lookahead invariant at every barrier: a
//! message stamped before the window end is a hard error (it would have to
//! be delivered into a window that already ran), which the proptests lean
//! on with randomized latency configurations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::rng::splitmix64_finalize;
use crate::time::SimTime;

/// The host's available parallelism, probed once. Spawning scoped threads
/// on a 1-core host only adds spawn/join and cache-handoff overhead (the
/// measured 0.91x of BENCH_sim.json), so both `WorldPool` and the shard
/// runner collapse to inline execution there.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The fan-out executor across *independent* jobs: paper worlds, scan
/// shards, watch sessions. Each job is a pure function of its index (and a
/// seed from [`derive_seed`], never thread identity or completion order),
/// so `run(jobs, f)` returns exactly `(0..jobs).map(f).collect()` at every
/// worker count, byte for byte. Workers pull indices from a shared atomic
/// cursor (an early-bound job can't stall a long tail) and results are
/// sorted back into index order after the join.
#[derive(Debug, Clone, Copy)]
pub struct WorldPool {
    workers: usize,
}

impl WorldPool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorldPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the host: `available_parallelism`, capped at 16.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorldPool::new(n.min(16))
    }

    /// A single-worker pool that runs jobs inline on the calling thread.
    pub fn serial() -> Self {
        WorldPool::new(1)
    }

    /// Number of workers this pool was configured with (the requested
    /// count, before the 1-core inline fallback is applied).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of workers [`run`](Self::run) will actually use: the
    /// requested count, collapsed to 1 on hosts without real parallelism
    /// where spawning threads can only lose time.
    pub fn effective_workers(&self) -> usize {
        if host_parallelism() <= 1 {
            1
        } else {
            self.workers
        }
    }

    /// Execution mode `run` will pick: `"inline"` (calling thread, no
    /// spawn/merge) or `"threaded"` (scoped worker threads). Recorded in
    /// BENCH_sim.json so a benchmark result names the path it measured.
    pub fn mode(&self) -> &'static str {
        if self.effective_workers() <= 1 {
            "inline"
        } else {
            "threaded"
        }
    }

    /// Runs `f(0), f(1), …, f(jobs - 1)` across the pool and returns the
    /// results in index order, identical to a serial loop at any worker
    /// count.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let effective = self.effective_workers();
        if effective <= 1 || jobs <= 1 {
            return (0..jobs).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let workers = effective.min(jobs);
        let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            out.push((i, f(i)));
                        }
                        // As in `run_sharded`: the scope unblocks on
                        // closure return, before TLS destructors run.
                        crate::profile::flush_thread_local();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("world worker panicked"))
                .collect()
        });
        indexed.sort_unstable_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, v)| v).collect()
    }
}

impl Default for WorldPool {
    fn default() -> Self {
        WorldPool::auto()
    }
}

/// Derives the seed for world `index` from a base seed.
///
/// SplitMix64 finalizer over `base ^ GOLDEN·(index+1)` — a pure function
/// of `(base, index)`, so a world's randomness is fixed the moment the
/// job list is laid out, independent of which worker runs it or when.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64_finalize(base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)))
}

/// One spatial shard of a partitioned world.
///
/// The shard owns its agents and calendar queue. `run_window` drains
/// local events strictly before `end`, pushing any message addressed to
/// another shard into `outbox` instead of delivering it; `deliver`
/// schedules an incoming cross-shard message into the local queue (keyed
/// by content so arrival order is irrelevant).
pub trait ShardWorld {
    /// A cross-shard message. Carries its own arrival stamp.
    type Msg: Send;

    /// Time of the earliest pending local event, if any.
    fn next_at(&self) -> Option<SimTime>;

    /// Drains every local event scheduled strictly before `end`.
    /// Messages bound for other shards are appended to `outbox` as
    /// `(destination_shard, message)`; the runner exchanges them at the
    /// barrier. Events the shard schedules for itself go straight into
    /// its own queue.
    fn run_window(&mut self, end: SimTime, outbox: &mut Vec<(usize, Self::Msg)>);

    /// Schedules an incoming cross-shard message locally.
    fn deliver(&mut self, msg: Self::Msg);

    /// Arrival stamp of a message (used for the lookahead check).
    fn stamp(msg: &Self::Msg) -> SimTime;
}

/// How [`run_sharded`] maps shards onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Threaded when the host has ≥ 2 cores and there are ≥ 2 shards,
    /// inline otherwise — the honest default for benches.
    Auto,
    /// Always run shards sequentially on the calling thread.
    Inline,
    /// Always spawn scoped worker threads, even on a 1-core host — the
    /// determinism tests use this to compare both paths everywhere.
    Threaded,
}

/// What a [`run_sharded`] call did, for bench reporting and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRunReport {
    /// Number of lookahead windows executed.
    pub windows: u64,
    /// Cross-shard messages exchanged at barriers.
    pub exchanged: u64,
    /// Shard count the world was partitioned into.
    pub shards: usize,
    /// Execution path actually taken: `"inline"` or `"threaded"`.
    /// Recorded in BENCH_swarm.json so speedup gates can skip honestly on
    /// hosts where the threaded path never runs.
    pub mode: &'static str,
}

/// Runs `shards` to quiescence at `deadline`: every event stamped at or
/// before `deadline` is processed, on every shard, at any shard count,
/// in an order byte-equivalent to the serial K=1 loop.
///
/// `lookahead` must be at most the minimum cross-shard link latency of
/// the world (it is clamped to ≥ 1 ns so a degenerate configuration makes
/// progress one nanosecond at a time instead of spinning).
///
/// # Panics
///
/// Panics if any shard emits a cross-shard message stamped before the end
/// of the window that produced it (a lookahead violation — the
/// configuration lied about its minimum cross-shard latency), or if a
/// message addresses a shard index out of range.
pub fn run_sharded<W: ShardWorld + Send>(
    shards: &mut [W],
    lookahead: Duration,
    deadline: SimTime,
    mode: ShardMode,
) -> ShardRunReport {
    let k = shards.len();
    let threaded = match mode {
        ShardMode::Inline => false,
        ShardMode::Threaded => k > 1,
        ShardMode::Auto => k > 1 && host_parallelism() >= 2,
    };
    let lookahead_ns = (lookahead.as_nanos() as u64).max(1);
    // `pop_before` is exclusive, so the final window must end one
    // nanosecond past the deadline to include events stamped exactly on it.
    let cutoff = SimTime::from_nanos(deadline.as_nanos().saturating_add(1));

    let mut outboxes: Vec<Vec<(usize, W::Msg)>> = (0..k).map(|_| Vec::new()).collect();
    let mut report = ShardRunReport {
        windows: 0,
        exchanged: 0,
        shards: k,
        mode: if threaded { "threaded" } else { "inline" },
    };

    while let Some(start) = shards.iter().filter_map(|s| s.next_at()).min() {
        if start > deadline {
            break;
        }
        let end = SimTime::from_nanos(
            start
                .as_nanos()
                .saturating_add(lookahead_ns)
                .min(cutoff.as_nanos()),
        );
        report.windows += 1;

        if threaded {
            std::thread::scope(|scope| {
                for (shard, outbox) in shards.iter_mut().zip(outboxes.iter_mut()) {
                    scope.spawn(move || {
                        shard.run_window(end, outbox);
                        // Merge this worker's profiler counts before the
                        // join: the scope unblocks on closure return,
                        // without waiting for TLS destructors.
                        crate::profile::flush_thread_local();
                    });
                }
            });
        } else {
            for (shard, outbox) in shards.iter_mut().zip(outboxes.iter_mut()) {
                shard.run_window(end, outbox);
            }
        }

        // Barrier: exchange batches in source shard index order. Pop
        // order at the destination is fixed by content-derived keys, so
        // this ordering only needs to be *some* deterministic order — but
        // index order also makes any non-queue side effects reproducible.
        for (src, outbox) in outboxes.iter_mut().enumerate() {
            for (dst, msg) in outbox.drain(..) {
                let at = W::stamp(&msg);
                assert!(
                    at >= end,
                    "lookahead violation: shard {src} emitted a message for \
                     shard {dst} stamped {at:?}, before window end {end:?}"
                );
                assert!(dst < k, "shard {src} addressed out-of-range shard {dst}");
                shards[dst].deliver(msg);
                report.exchanged += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::CalendarQueue;

    #[test]
    fn results_are_index_ordered_at_any_worker_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for workers in [1, 2, 4, 8] {
            let pool = WorldPool::new(workers);
            assert_eq!(pool.run(97, |i| i * i), expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        let pool = WorldPool::new(8);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let s0 = derive_seed(7, 0);
        assert_eq!(s0, derive_seed(7, 0), "pure function of (base, index)");
        let seeds: std::collections::HashSet<u64> = (0..1_000).map(|i| derive_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1_000, "no collisions over a realistic sweep");
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1), "base matters");
    }

    #[test]
    fn workers_clamped_and_reported() {
        assert_eq!(WorldPool::new(0).workers(), 1);
        assert_eq!(WorldPool::serial().workers(), 1);
        assert!(WorldPool::auto().workers() >= 1);
    }

    #[test]
    fn one_core_hosts_collapse_to_inline_mode() {
        let pool = WorldPool::new(8);
        if host_parallelism() <= 1 {
            assert_eq!(pool.effective_workers(), 1, "no threads on a 1-core host");
            assert_eq!(pool.mode(), "inline");
        } else {
            assert_eq!(pool.effective_workers(), 8);
            assert_eq!(pool.mode(), "threaded");
        }
        // The requested count is still reported either way.
        assert_eq!(pool.workers(), 8);
        assert_eq!(WorldPool::serial().mode(), "inline");
    }

    /// A minimal token-passing world: each shard holds counters that ping
    /// a fixed partner (possibly on another shard) with a constant
    /// latency, recording every (time, token) it processes.
    struct PingShard {
        index: usize,
        shards: usize,
        queue: CalendarQueue<Ping>,
        log: Vec<(u64, u64)>,
        latency_ns: u64,
        /// Highest token that still forwards (content-based termination,
        /// so total hops are independent of how the ring is sharded).
        max_token: u64,
    }

    #[derive(Debug)]
    struct Ping {
        at: SimTime,
        token: u64,
    }

    impl ShardWorld for PingShard {
        type Msg = Ping;

        fn next_at(&self) -> Option<SimTime> {
            self.queue.next_at()
        }

        fn run_window(&mut self, end: SimTime, outbox: &mut Vec<(usize, Ping)>) {
            while let Some((at, ping)) = self.queue.pop_before(end) {
                self.log.push((at.as_nanos(), ping.token));
                if ping.token >= self.max_token {
                    continue;
                }
                let next = Ping {
                    at: SimTime::from_nanos(at.as_nanos() + self.latency_ns),
                    token: ping.token + 1,
                };
                let dst = (self.index + 1) % self.shards;
                if dst == self.index {
                    let key = next.token;
                    self.queue.push_keyed(next.at, key, next);
                } else {
                    outbox.push((dst, next));
                }
            }
        }

        fn deliver(&mut self, msg: Ping) {
            let key = msg.token;
            self.queue.push_keyed(msg.at, key, msg);
        }

        fn stamp(msg: &Ping) -> SimTime {
            msg.at
        }
    }

    fn ring(k: usize, latency_ns: u64, hops: u64) -> Vec<PingShard> {
        let mut shards: Vec<PingShard> = (0..k)
            .map(|index| PingShard {
                index,
                shards: k,
                queue: CalendarQueue::new(),
                log: Vec::new(),
                latency_ns,
                max_token: hops,
            })
            .collect();
        shards[0].deliver(Ping {
            at: SimTime::from_nanos(latency_ns),
            token: 0,
        });
        shards
    }

    /// Flattens per-shard logs into global event order `(at, token)`.
    fn full_log(shards: &[PingShard]) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = shards.iter().flat_map(|s| s.log.iter().copied()).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn k1_reduces_to_the_serial_loop() {
        let mut serial = ring(1, 1_000, 50);
        let rep = run_sharded(
            &mut serial,
            Duration::from_nanos(1_000),
            SimTime::from_secs(1),
            ShardMode::Auto,
        );
        assert_eq!(rep.mode, "inline", "one shard never spawns threads");
        assert_eq!(rep.shards, 1);
        assert_eq!(rep.exchanged, 0, "K=1 has no cross-shard traffic");
        assert_eq!(serial[0].log.len(), 51, "seed ping + 50 hops");
    }

    #[test]
    fn logs_identical_across_shard_counts_and_modes() {
        let reference = {
            let mut s = ring(1, 1_000, 64);
            run_sharded(
                &mut s,
                Duration::from_nanos(1_000),
                SimTime::from_secs(1),
                ShardMode::Inline,
            );
            full_log(&s)
        };
        for k in [2usize, 4, 8] {
            for mode in [ShardMode::Inline, ShardMode::Threaded] {
                let mut s = ring(k, 1_000, 64);
                let rep = run_sharded(
                    &mut s,
                    Duration::from_nanos(1_000),
                    SimTime::from_secs(1),
                    mode,
                );
                let got = full_log(&s);
                assert_eq!(got, reference, "k={k} mode={mode:?}");
                assert!(rep.exchanged > 0, "ring traffic crosses shards");
            }
        }
    }

    #[test]
    fn deadline_is_inclusive_and_later_events_stay_queued() {
        let mut shards = ring(2, 1_000, 10);
        // Hops land at 1000, 2000, …; deadline 3000 must process exactly
        // the pings stamped 1000..=3000.
        run_sharded(
            &mut shards,
            Duration::from_nanos(1_000),
            SimTime::from_nanos(3_000),
            ShardMode::Inline,
        );
        let processed = full_log(&shards);
        assert_eq!(
            processed.iter().map(|&(at, _)| at).collect::<Vec<_>>(),
            vec![1_000, 2_000, 3_000]
        );
        let pending: usize = shards.iter().map(|s| s.queue.len()).sum();
        assert_eq!(pending, 1, "the 4000 ns ping is still queued");
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn lying_about_lookahead_is_caught_at_the_barrier() {
        // Claim a 5000 ns lookahead while links are 1000 ns: the first
        // cross-shard ping lands inside the window that produced it.
        let mut shards = ring(2, 1_000, 4);
        run_sharded(
            &mut shards,
            Duration::from_nanos(5_000),
            SimTime::from_secs(1),
            ShardMode::Inline,
        );
    }
}
