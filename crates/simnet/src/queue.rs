//! The simulator's event scheduler: a slab-backed calendar queue.
//!
//! [`CalendarQueue`] replaces the original two-structure scheduler (a
//! `BinaryHeap<Reverse<(time, seq)>>` ordering index plus a side
//! `HashMap<seq, Event>` payload store) with a single indexed priority
//! queue that stores every payload inline:
//!
//! - **Timer-wheel front end.** Near-term events — the overwhelming
//!   majority in a streaming simulation, where deliveries land a few
//!   milliseconds out — go into one of [`WHEEL_BUCKETS`] calendar buckets
//!   of ~0.5 ms width. A push is a `Vec` push; a pop sorts the current
//!   bucket once and then drains it from the back.
//! - **Heap overflow tier.** Events beyond the wheel horizon (~1 s) wait
//!   in a small binary heap and migrate into the wheel as the cursor
//!   advances. Long timers pay two cheap moves instead of O(log n) sift
//!   costs against the whole near-term population.
//! - **Slab slot reuse.** Payloads live in a slab of `Option<T>` slots;
//!   only a 24-byte key (time, tie-break, slot) moves through the wheel
//!   and overflow tiers, so bucket sorts and migrations never move a
//!   payload. Popped slots are recycled through a free list, so
//!   steady-state churn allocates nothing.
//! - **Zero per-event hashing.** No `HashMap` anywhere: every lookup is an
//!   array index.
//!
//! A queued event always pops: a world that no longer wants a timer
//! ignores it when it fires (the service harness tags client timers with
//! a session generation for exactly this).
//!
//! Pop order is strictly `(time, sequence)`. With [`CalendarQueue::push`]
//! the sequence is an internal schedule counter — identical to the old
//! scheduler, which the `queue_differential` test pins down against that
//! design (kept as a test oracle in the `pdn-oracle` crate, and the
//! `sim_bench` baseline). [`CalendarQueue::push_keyed`] instead takes the
//! tie-break key from the caller, which is what the sharded runner needs:
//! a key derived from event *content* (origin node, per-origin counter)
//! pops in the same order no matter which shard pushed it first, making
//! merge results independent of shard count. The [`EventQueue`] alias
//! (payload = [`Event`] with `u64` timer tokens) is the default `Network`
//! scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::net::Event;
use crate::time::SimTime;

/// Log2 of the bucket width in nanoseconds (2^19 ns ≈ 0.52 ms).
const BUCKET_SHIFT: u32 = 19;

/// Number of calendar buckets (wheel horizon ≈ 1.07 s).
const WHEEL_BUCKETS: usize = 2048;

/// Ordering key of one queued event. Payloads stay in the slab; only this
/// 24-byte key moves through the wheel and overflow tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Occupancy counters of the queue, exposed for capacity assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Scheduled events not yet popped.
    pub live: usize,
    /// Slab slots ever allocated — bounds the queue's memory footprint.
    /// Stays at the high-water mark of concurrent events, not the total
    /// ever scheduled.
    pub slots: usize,
    /// Keys currently in the wheel tier.
    pub wheel: usize,
    /// Keys currently in the overflow tier.
    pub overflow: usize,
}

/// The indexed calendar queue, generic over its payload. See the module
/// docs for the design.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    wheel: Vec<Vec<Key>>,
    wheel_len: usize,
    /// Absolute bucket index the wheel is positioned at; only advances.
    cursor: u64,
    /// Whether the cursor bucket is sorted descending (drained from back).
    cursor_sorted: bool,
    overflow: BinaryHeap<Reverse<Key>>,
    len: usize,
    next_seq: u64,
}

/// The `Network` scheduler: a [`CalendarQueue`] carrying [`Event`]s.
pub type EventQueue = CalendarQueue<Event>;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            cursor: 0,
            cursor_sorted: false,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupancy counters.
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            live: self.len,
            slots: self.slots.len(),
            wheel: self.wheel_len,
            overflow: self.overflow.len(),
        }
    }

    /// Approximate heap footprint of the queue's own structures in bytes
    /// (slab, wheel buckets, overflow heap; excludes heap memory owned by
    /// payloads). Used by the scale bench's per-peer accounting.
    pub fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self
                .wheel
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<Key>())
                .sum::<usize>()
            + self.wheel.capacity() * std::mem::size_of::<Vec<Key>>()
            + self.overflow.capacity() * std::mem::size_of::<Reverse<Key>>()
    }

    /// Schedules `ev` at `at` with an internally assigned tie-break
    /// sequence (schedule order).
    pub fn push(&mut self, at: SimTime, ev: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(at, seq, ev)
    }

    /// Schedules `ev` at `at` with a caller-supplied tie-break key.
    ///
    /// Events popping at the same time are ordered by ascending `key`.
    /// Keys should be derived from event content (e.g. origin id and a
    /// per-origin counter) so pop order is independent of push order —
    /// the property the sharded runner's determinism rests on. Do not mix
    /// `push` and `push_keyed` on one queue: the internal sequence counter
    /// and caller keys share the tie-break space.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, ev: T) {
        self.push_with_seq(at, key, ev)
    }

    fn push_with_seq(&mut self, at: SimTime, seq: u64, ev: T) {
        let at_ns = at.as_nanos();
        let slot_idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(ev);
                i
            }
            None => {
                self.slots.push(Some(ev));
                (self.slots.len() - 1) as u32
            }
        };
        let key = Key {
            at: at_ns,
            seq,
            slot: slot_idx,
        };

        // An event never schedules before the cursor (time is monotone);
        // clamp defensively so a misuse degrades to FIFO, not a panic.
        let bucket = (at_ns >> BUCKET_SHIFT).max(self.cursor);
        if bucket - self.cursor < WHEEL_BUCKETS as u64 {
            let idx = (bucket % WHEEL_BUCKETS as u64) as usize;
            if bucket == self.cursor && self.cursor_sorted {
                // Keep the draining bucket sorted descending.
                let pos = self.wheel[idx].partition_point(|k| *k > key);
                self.wheel[idx].insert(pos, key);
            } else {
                self.wheel[idx].push(key);
            }
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
        self.len += 1;
    }

    /// Pops the earliest event (ties broken by ascending tie-break key,
    /// i.e. schedule order under [`CalendarQueue::push`]).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let mut idx = (self.cursor % WHEEL_BUCKETS as u64) as usize;
        // Fast path: keep draining an already-sorted cursor bucket.
        if !self.cursor_sorted || self.wheel[idx].is_empty() {
            let bucket = self.first_bucket()?;
            self.advance_cursor_to(bucket);
            idx = (self.cursor % WHEEL_BUCKETS as u64) as usize;
            if !self.cursor_sorted {
                self.wheel[idx].sort_unstable_by(|a, b| b.cmp(a));
                self.cursor_sorted = true;
            }
        }
        let key = self.wheel[idx].pop().expect("first_bucket is non-empty");
        self.wheel_len -= 1;
        self.len -= 1;
        let ev = self.slots[key.slot as usize]
            .take()
            .expect("live key has a payload");
        self.free.push(key.slot);
        Some((SimTime::from_nanos(key.at), ev))
    }

    /// Pops the earliest event only if it is scheduled strictly before
    /// `end`. The sharded runner's window drain: each shard consumes its
    /// queue up to the lookahead boundary and no further.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, T)> {
        if self.next_at()? < end {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest event without popping it.
    pub fn next_at(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            return self
                .overflow
                .peek()
                .map(|Reverse(k)| SimTime::from_nanos(k.at));
        }
        let mut b = self.cursor;
        loop {
            let bucket = &self.wheel[(b % WHEEL_BUCKETS as u64) as usize];
            if !bucket.is_empty() {
                let at = if b == self.cursor && self.cursor_sorted {
                    bucket.last().expect("non-empty").at
                } else {
                    bucket.iter().min().expect("non-empty").at
                };
                return Some(SimTime::from_nanos(at));
            }
            b += 1;
        }
    }

    /// Informs the queue that simulation time jumped to `now` without
    /// popping (e.g. `advance_to`). Repositions the wheel cursor so later
    /// pushes land in the right tier.
    pub fn advance_time(&mut self, now: SimTime) {
        let bucket = now.as_nanos() >> BUCKET_SHIFT;
        if bucket > self.cursor {
            // Every bucket strictly before `now`'s is empty (its whole
            // range is in the past), so the jump skips no events.
            if let Some(first) = self.first_bucket() {
                self.advance_cursor_to(first.min(bucket));
            } else {
                self.advance_cursor_to(bucket);
            }
        }
    }

    /// Absolute bucket index of the earliest event, if any.
    fn first_bucket(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            return self.overflow.peek().map(|Reverse(k)| k.at >> BUCKET_SHIFT);
        }
        let mut b = self.cursor;
        loop {
            if !self.wheel[(b % WHEEL_BUCKETS as u64) as usize].is_empty() {
                return Some(b);
            }
            b += 1;
        }
    }

    /// Moves the cursor forward to `bucket`, pulling overflow keys that
    /// fall inside the new horizon into the wheel. Callers must not jump
    /// past a non-empty bucket.
    fn advance_cursor_to(&mut self, bucket: u64) {
        debug_assert!(bucket >= self.cursor, "cursor went backwards");
        if bucket == self.cursor {
            return;
        }
        self.cursor = bucket;
        self.cursor_sorted = false;
        let horizon = self.cursor + WHEEL_BUCKETS as u64;
        while let Some(Reverse(k)) = self.overflow.peek() {
            if (k.at >> BUCKET_SHIFT) >= horizon {
                break;
            }
            let Reverse(k) = self.overflow.pop().expect("peeked");
            let b = k.at >> BUCKET_SHIFT;
            debug_assert!(b >= self.cursor, "overflow key behind cursor");
            self.wheel[(b % WHEEL_BUCKETS as u64) as usize].push(k);
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NodeId;

    fn timer(token: u64) -> Event {
        Event::Timer {
            node: NodeId(0),
            token,
        }
    }

    fn tok(ev: &Event) -> u64 {
        match ev {
            Event::Timer { token, .. } => *token,
            _ => unreachable!("tests use timers"),
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), timer(1));
        q.push(SimTime::from_millis(2), timer(2));
        q.push(SimTime::from_millis(5), timer(3));
        q.push(SimTime::from_secs(10), timer(4)); // overflow tier
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tok(&e))
            .collect();
        assert_eq!(order, vec![2, 1, 3, 4]);
    }

    #[test]
    fn next_at_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), timer(1)); // overflow only
        assert_eq!(q.next_at(), Some(SimTime::from_secs(3)));
        q.push(SimTime::from_millis(1), timer(2));
        assert_eq!(q.next_at(), Some(SimTime::from_millis(1)));
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_millis(1));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn slots_are_reused_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            for i in 0..16 {
                q.push(SimTime::from_millis(round + 1), timer(i));
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.stats().slots <= 16,
            "slab stays at the high-water mark, got {}",
            q.stats().slots
        );
    }

    #[test]
    fn push_into_sorted_draining_bucket_keeps_order() {
        let mut q = EventQueue::new();
        // Same-bucket events (bucket width ~0.5 ms; use nanosecond offsets).
        q.push(SimTime::from_nanos(100), timer(1));
        q.push(SimTime::from_nanos(300), timer(3));
        let (_, e) = q.pop().unwrap(); // sorts the bucket
        assert_eq!(tok(&e), 1);
        q.push(SimTime::from_nanos(200), timer(2));
        q.push(SimTime::from_nanos(300), timer(4)); // ties after 3
        assert_eq!(tok(&q.pop().unwrap().1), 2);
        assert_eq!(tok(&q.pop().unwrap().1), 3);
        assert_eq!(tok(&q.pop().unwrap().1), 4);
    }

    #[test]
    fn keyed_pop_order_is_push_order_independent() {
        // The sharded runner's determinism hinge: content-derived keys
        // make tie order a function of the events, not of who pushed
        // first. Pushing the same set in two different orders must drain
        // identically.
        let evs = [(5u64, 30u64), (5, 10), (5, 20), (2, 99), (5, 15)];
        let drain = |order: &[usize]| {
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            for &i in order {
                let (ms, key) = evs[i];
                q.push_keyed(SimTime::from_millis(ms), key, key);
            }
            std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
        };
        let a = drain(&[0, 1, 2, 3, 4]);
        let b = drain(&[4, 3, 2, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(|&(_, k)| k).collect::<Vec<_>>(),
            vec![99, 10, 15, 20, 30]
        );
    }

    #[test]
    fn pop_before_respects_the_window_boundary() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push_keyed(SimTime::from_millis(1), 0, 1);
        q.push_keyed(SimTime::from_millis(5), 1, 5);
        q.push_keyed(SimTime::from_millis(9), 2, 9);
        let end = SimTime::from_millis(5);
        let mut drained = Vec::new();
        while let Some((at, v)) = q.pop_before(end) {
            assert!(at < end, "window drain never crosses the boundary");
            drained.push(v);
        }
        assert_eq!(drained, vec![1], "the boundary event itself stays queued");
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_at(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn generic_payloads_work_with_stats() {
        let mut q: CalendarQueue<String> = CalendarQueue::new();
        q.push(SimTime::from_millis(1), "a".into());
        q.push(SimTime::from_millis(2), "b".into());
        assert_eq!(q.stats().live, 2);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.stats().live, 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }
}
