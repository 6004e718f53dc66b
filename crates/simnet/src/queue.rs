//! The simulator's event scheduler: a calendar queue whose entries ride
//! with their keys.
//!
//! [`CalendarQueue`] replaces the original two-structure scheduler (a
//! `BinaryHeap<Reverse<(time, seq)>>` ordering index plus a side
//! `HashMap<seq, Event>` payload store) with a single priority queue that
//! stores each `(time, tie-break, payload)` entry in one place:
//!
//! - **Timer-wheel front end.** Near-term events — the overwhelming
//!   majority in a streaming simulation, where deliveries land a few
//!   milliseconds out — go into one of [`WHEEL_BUCKETS`] calendar buckets
//!   of ~0.5 ms width. A bucket is a 12-byte `(head, tail, len)` header
//!   over a list of fixed 4-entry chunks; a push writes the entry into
//!   the tail chunk. The wheel is laid out on the first push, so an
//!   unused queue costs nothing.
//! - **Pooled chunks.** Chunks come from an arena of 64-entry pages and
//!   go back to the arena's free chain when their bucket drains, so
//!   steady-state churn allocates nothing and a page, once made, is never
//!   moved.
//! - **One drain vector.** When the cursor reaches a bucket, its entries
//!   move into a reused vector that is sorted once, descending, and
//!   popped from the back. The front of the queue is then the vector's
//!   last element: `pop_before` peeks at it, and a push into the bucket
//!   being drained is a sorted insert.
//! - **Heap overflow tier.** Events beyond the wheel horizon (~1 s) wait
//!   in a small binary heap of entries and migrate into the wheel as the
//!   cursor advances. Long timers pay two cheap moves instead of
//!   O(log n) sift costs against the whole near-term population.
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
//! merge results independent of shard count. A [`CalendarQueue`] of
//! [`Event`](crate::net::Event)s is the `Network` scheduler.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the bucket width in nanoseconds (2^19 ns ≈ 0.52 ms).
const BUCKET_SHIFT: u32 = 19;

/// Number of calendar buckets (wheel horizon ≈ 1.07 s).
const WHEEL_BUCKETS: usize = 2048;

/// Entries per bucket chunk.
const CHUNK_ENTRIES: usize = 4;

/// Chunks per arena page (64 entries).
const PAGE_CHUNKS: usize = 16;

/// End of a chunk chain.
const NIL: u32 = u32::MAX;

/// One queued event: its pop key `(at, seq)` and its payload, together.
#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    ev: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A fixed run of entries in a bucket's chain. A bucket of `len` entries
/// fills its chunks front to back, so only the tail chunk is partial.
/// Free chunks are chained through `next` too.
#[derive(Debug)]
struct Chunk<T> {
    entries: [Option<Entry<T>>; CHUNK_ENTRIES],
    next: u32,
}

/// One calendar bucket: the first and last chunk of its chain and its
/// entry count.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
    len: 0,
};

fn wheel_index(bucket: u64) -> usize {
    (bucket % WHEEL_BUCKETS as u64) as usize
}

/// Occupancy counters of the queue, exposed for capacity assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Scheduled events not yet popped.
    pub live: usize,
    /// Bucket chunks the arena has made — bounds the queue's memory
    /// footprint. Stays at the high-water mark of chunks in use at once,
    /// not the total ever filled.
    pub chunks: usize,
    /// Events currently in the wheel tier (bucket chunks plus the drain).
    pub wheel: usize,
    /// Events currently in the overflow tier.
    pub overflow: usize,
}

/// The calendar queue, generic over its payload. See the module docs for
/// the design.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Bucket headers; empty until the first push into the wheel.
    wheel: Vec<Bucket>,
    /// The chunk arena: chunk `i` is `pages[i / PAGE_CHUNKS][i % PAGE_CHUNKS]`.
    pages: Vec<Box<[Chunk<T>]>>,
    /// Head of the free chunk chain.
    free: u32,
    /// Entries in bucket chunks (excludes `drain` and `overflow`).
    wheel_len: usize,
    /// The cursor bucket's entries, sorted descending (popped from the
    /// back). While non-empty, the cursor bucket's chunk chain is empty.
    drain: Vec<Entry<T>>,
    /// Absolute bucket index the wheel is positioned at; only advances.
    cursor: u64,
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
    next_seq: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue positioned at time zero. Allocates nothing.
    pub fn new() -> Self {
        CalendarQueue {
            wheel: Vec::new(),
            pages: Vec::new(),
            free: NIL,
            wheel_len: 0,
            drain: Vec::new(),
            cursor: 0,
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
            chunks: self.pages.len() * PAGE_CHUNKS,
            wheel: self.wheel_len + self.drain.len(),
            overflow: self.overflow.len(),
        }
    }

    /// Approximate heap footprint of the queue's own structures in bytes
    /// (wheel headers, chunk arena, drain vector, overflow heap; excludes
    /// heap memory owned by payloads). Used by the scale bench's per-peer
    /// accounting.
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.wheel.capacity() * size_of::<Bucket>()
            + self.pages.capacity() * size_of::<Box<[Chunk<T>]>>()
            + self.pages.len() * PAGE_CHUNKS * size_of::<Chunk<T>>()
            + self.drain.capacity() * size_of::<Entry<T>>()
            + self.overflow.capacity() * size_of::<Reverse<Entry<T>>>()
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
        let entry = Entry {
            at: at.as_nanos(),
            seq,
            ev,
        };
        // An event never schedules before the cursor (time is monotone);
        // clamp defensively so a misuse degrades to FIFO, not a panic.
        let bucket = (entry.at >> BUCKET_SHIFT).max(self.cursor);
        if bucket - self.cursor >= WHEEL_BUCKETS as u64 {
            self.overflow.push(Reverse(entry));
        } else if bucket == self.cursor && !self.drain.is_empty() {
            // Keep the draining bucket sorted descending.
            let pos = self.drain.partition_point(|e| *e > entry);
            self.drain.insert(pos, entry);
        } else {
            self.push_to_bucket(bucket, entry);
        }
        self.len += 1;
    }

    /// Appends `entry` to the chunk chain of absolute bucket `bucket`.
    fn push_to_bucket(&mut self, bucket: u64, entry: Entry<T>) {
        if self.wheel.is_empty() {
            self.wheel = vec![EMPTY_BUCKET; WHEEL_BUCKETS];
        }
        let idx = wheel_index(bucket);
        let Bucket { tail, len, .. } = self.wheel[idx];
        let slot = len as usize % CHUNK_ENTRIES;
        let tail = if slot == 0 {
            let fresh = self.alloc_chunk();
            if len == 0 {
                self.wheel[idx].head = fresh;
            } else {
                self.chunk_mut(tail).next = fresh;
            }
            self.wheel[idx].tail = fresh;
            fresh
        } else {
            tail
        };
        self.chunk_mut(tail).entries[slot] = Some(entry);
        self.wheel[idx].len += 1;
        self.wheel_len += 1;
    }

    fn chunk(&self, id: u32) -> &Chunk<T> {
        &self.pages[id as usize / PAGE_CHUNKS][id as usize % PAGE_CHUNKS]
    }

    fn chunk_mut(&mut self, id: u32) -> &mut Chunk<T> {
        &mut self.pages[id as usize / PAGE_CHUNKS][id as usize % PAGE_CHUNKS]
    }

    /// Takes a chunk off the free chain, adding a page when it is empty.
    fn alloc_chunk(&mut self) -> u32 {
        if self.free == NIL {
            let first = (self.pages.len() * PAGE_CHUNKS) as u32;
            let last = first + PAGE_CHUNKS as u32 - 1;
            self.pages.push(
                (first..=last)
                    .map(|id| Chunk {
                        entries: [const { None }; CHUNK_ENTRIES],
                        next: if id == last { NIL } else { id + 1 },
                    })
                    .collect(),
            );
            self.free = first;
        }
        let id = self.free;
        self.free = self.chunk(id).next;
        id
    }

    /// Pops the earliest event (ties broken by ascending tie-break key,
    /// i.e. schedule order under [`CalendarQueue::push`]).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.drain.is_empty() {
            let bucket = self.first_bucket()?;
            self.load(bucket);
        }
        self.pop_drain()
    }

    /// Pops the earliest event only if it is scheduled strictly before
    /// `end`. The sharded runner's window drain: each shard consumes its
    /// queue up to the lookahead boundary and no further.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, T)> {
        let end = end.as_nanos();
        if self.drain.is_empty() {
            let bucket = self.first_bucket()?;
            // A bucket past the cursor holds no stamp before its start
            // (only the cursor bucket takes clamped pushes), so one
            // starting at or past `end` has nothing to pop: leave the
            // cursor short of it, where the coming window's pushes land.
            if bucket > self.cursor && bucket << BUCKET_SHIFT >= end {
                return None;
            }
            self.load(bucket);
        }
        if self.drain.last()?.at < end {
            self.pop_drain()
        } else {
            None
        }
    }

    fn pop_drain(&mut self) -> Option<(SimTime, T)> {
        let e = self.drain.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(e.at), e.ev))
    }

    /// Time of the earliest event without popping it.
    pub fn next_at(&self) -> Option<SimTime> {
        if let Some(e) = self.drain.last() {
            return Some(SimTime::from_nanos(e.at));
        }
        if self.wheel_len == 0 {
            return self
                .overflow
                .peek()
                .map(|Reverse(e)| SimTime::from_nanos(e.at));
        }
        let Bucket { head, len, .. } = self.wheel[wheel_index(self.first_bucket()?)];
        let (mut id, mut left) = (head, len as usize);
        let mut min = u64::MAX;
        while left > 0 {
            let chunk = self.chunk(id);
            let n = left.min(CHUNK_ENTRIES);
            for e in chunk.entries[..n].iter().flatten() {
                min = min.min(e.at);
            }
            left -= n;
            id = chunk.next;
        }
        Some(SimTime::from_nanos(min))
    }

    /// Informs the queue that simulation time jumped to `now` without
    /// popping (e.g. `advance_to`). Repositions the wheel cursor so later
    /// pushes land in the right tier.
    pub fn advance_time(&mut self, now: SimTime) {
        let bucket = now.as_nanos() >> BUCKET_SHIFT;
        // A non-empty drain holds the earliest events, in the cursor
        // bucket, so the cursor stays.
        if bucket > self.cursor && self.drain.is_empty() {
            // Every bucket strictly before `now`'s is empty (its whole
            // range is in the past), so the jump skips no events.
            let first = self.first_bucket().map_or(bucket, |b| b.min(bucket));
            self.advance_cursor_to(first);
        }
    }

    /// Absolute bucket index of the earliest event outside the drain, if
    /// any.
    fn first_bucket(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return self.overflow.peek().map(|Reverse(e)| e.at >> BUCKET_SHIFT);
        }
        let mut b = self.cursor;
        while self.wheel[wheel_index(b)].len == 0 {
            b += 1;
        }
        Some(b)
    }

    /// Moves the cursor to `bucket` and the bucket's chunks into the
    /// (empty) drain, sorted descending. The chunks return to the pool.
    fn load(&mut self, bucket: u64) {
        debug_assert!(self.drain.is_empty(), "drain holds an older bucket");
        self.advance_cursor_to(bucket);
        let idx = wheel_index(bucket);
        let Bucket { head, len, .. } = std::mem::replace(&mut self.wheel[idx], EMPTY_BUCKET);
        let (mut id, mut left) = (head, len as usize);
        while left > 0 {
            let chunk = &mut self.pages[id as usize / PAGE_CHUNKS][id as usize % PAGE_CHUNKS];
            let n = left.min(CHUNK_ENTRIES);
            for slot in &mut chunk.entries[..n] {
                self.drain
                    .push(slot.take().expect("a bucket's first len slots are full"));
            }
            let next = chunk.next;
            chunk.next = self.free;
            self.free = id;
            left -= n;
            id = next;
        }
        self.wheel_len -= len as usize;
        self.drain.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Moves the cursor forward to `bucket`, pulling overflow entries
    /// that fall inside the new horizon into the wheel. Callers must not
    /// jump past a non-empty bucket, and the drain must be empty.
    fn advance_cursor_to(&mut self, bucket: u64) {
        debug_assert!(bucket >= self.cursor, "cursor went backwards");
        if bucket == self.cursor {
            return;
        }
        self.cursor = bucket;
        let horizon = self.cursor + WHEEL_BUCKETS as u64;
        while let Some(Reverse(e)) = self.overflow.peek() {
            let b = e.at >> BUCKET_SHIFT;
            if b >= horizon {
                break;
            }
            debug_assert!(b >= self.cursor, "overflow entry behind cursor");
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.push_to_bucket(b, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Event, NodeId};

    type EventQueue = CalendarQueue<Event>;

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
    fn next_at_finds_the_minimum_of_an_unloaded_bucket() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // Six entries in one bucket span two chunks; the minimum is in
        // the second.
        for (i, ns) in [400u64, 300, 500, 350, 250, 100].into_iter().enumerate() {
            q.push(SimTime::from_nanos(ns), i as u32);
        }
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(100)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 5)));
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(250)));
    }

    #[test]
    fn chunk_pool_stays_at_its_high_water_mark_under_churn() {
        let mut q = EventQueue::new();
        let mut high_water = 0;
        for round in 0..1_000u64 {
            // 16 events over four buckets, one chunk each: the pool must
            // recycle them, not grow, across rounds.
            for i in 0..16 {
                q.push(SimTime::from_millis(round * 4 + i % 4 + 1), timer(i));
            }
            if round == 0 {
                high_water = q.stats().chunks;
            }
            while q.pop().is_some() {}
        }
        assert!(high_water > 0);
        assert_eq!(
            q.stats().chunks,
            high_water,
            "the pool grew past the first round's high-water mark"
        );
        assert_eq!(q.stats().chunks, PAGE_CHUNKS, "one page serves the churn");
    }

    #[test]
    fn mem_bytes_covers_every_live_entry() {
        let mut q = EventQueue::new();
        assert_eq!(q.mem_bytes(), 0, "a new queue owns nothing");
        let entry = std::mem::size_of::<Entry<Event>>();
        let mut now = 0u64;
        for i in 0..20_000u64 {
            // Mostly near-term, some past the wheel horizon.
            let delay = if i % 10 == 0 {
                3_000_000_000
            } else {
                i * 7_919 % 50_000_000
            };
            q.push(SimTime::from_nanos(now + delay), timer(i));
            if i % 3 == 0 {
                now = q.pop().unwrap().0.as_nanos();
            }
            assert!(
                q.mem_bytes() >= q.len() * entry,
                "{} B for {} live entries of {entry} B",
                q.mem_bytes(),
                q.len()
            );
        }
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
