//! The simulator's event scheduler: a calendar queue whose entries ride
//! with their keys.
//!
//! [`CalendarQueue`] replaces the original two-structure scheduler (a
//! binary-heap ordering index of `Reverse<(time, seq)>` plus a side
//! `HashMap<seq, Event>` payload store) with a single priority queue that
//! stores each `(time, tie-break, payload)` entry in one place, in a
//! two-level hierarchy of timing wheels (Varghese and Lauck, SOSP '87):
//!
//! - **Fine wheel.** Events less than one turn (~1.07 s) ahead of the
//!   cursor — near-term deliveries a few milliseconds out are the
//!   overwhelming majority in a streaming simulation — go into one of
//!   [`WHEEL_BUCKETS`] calendar buckets of ~0.5 ms width. A bucket is a 12-byte `(head, tail, len)`
//!   header over a list of fixed 4-entry chunks; a push writes the entry
//!   into the tail chunk. The wheel is laid out on the first push, so an
//!   unused queue costs nothing.
//! - **Coarse wheel.** Events a turn or more ahead, up to
//!   [`COARSE_SLOTS`] coarse slots on, are appended to their slot's chunk
//!   chain. A slot spans one full turn of the fine wheel (2^30 ns ≈
//!   1.07 s), so the horizon is ≈ 68.7 s: peer ticks, stats timers and
//!   session timeouts all land in O(1). When the cursor enters a slot,
//!   its entries move once into the fine wheel. A `u64` occupancy mask
//!   finds the next non-empty slot, and each slot keeps its earliest
//!   stamp for `next_at`.
//! - **Far list.** Events past the coarse horizon go into one unsorted
//!   chunk chain whose earliest stamp is kept; the whole list is re-filed
//!   when that stamp comes within the horizon. Simulated worlds push
//!   nothing this far ahead, so it only has to be correct.
//! - **Pooled chunks.** Every chain takes its chunks from one arena of
//!   64-entry pages and gives them back to the arena's free chain when it
//!   drains, so steady-state churn allocates nothing and a page, once
//!   made, is never moved.
//! - **One drain vector.** When the cursor reaches a bucket, its entries
//!   move into a reused vector that is sorted once, descending, and
//!   popped from the back. The front of the queue is then the vector's
//!   last element: `pop_before` peeks at it, and a push into the bucket
//!   being drained is a sorted insert.
//! - **No sifting, no hashing.** No heap and no `HashMap` anywhere: every
//!   push is an append and every lookup an array index.
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

use std::cmp::Ordering;

use crate::time::SimTime;

/// Log2 of the bucket width in nanoseconds (2^19 ns ≈ 0.52 ms).
const BUCKET_SHIFT: u32 = 19;

/// Log2 of the number of fine buckets, one coarse slot's worth.
const FINE_BITS: u32 = 11;

/// Number of fine calendar buckets (one turn ≈ 1.07 s).
const WHEEL_BUCKETS: usize = 1 << FINE_BITS;

/// Number of coarse slots, each one turn of the fine wheel (horizon ≈
/// 68.7 s). One `u64` mask bit per slot.
const COARSE_SLOTS: u64 = 64;

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

    /// The fine bucket this entry's stamp falls in.
    fn bucket(&self) -> u64 {
        self.at >> BUCKET_SHIFT
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

/// A fixed run of entries in a chain. A chain of `len` entries fills its
/// chunks front to back, so only the tail chunk is partial. Free chunks
/// are chained through `next` too.
#[derive(Debug)]
struct Chunk<T> {
    entries: [Option<Entry<T>>; CHUNK_ENTRIES],
    next: u32,
}

/// One chunk chain — a fine bucket, a coarse slot or the far list: its
/// first and last chunk and its entry count.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_CHAIN: Chain = Chain {
    head: NIL,
    tail: NIL,
    len: 0,
};

fn wheel_index(bucket: u64) -> usize {
    (bucket % WHEEL_BUCKETS as u64) as usize
}

/// The coarse slot (one fine-wheel turn) that fine bucket `bucket` is in.
fn coarse_of(bucket: u64) -> u64 {
    bucket >> FINE_BITS
}

/// Occupancy counters of the queue, exposed for capacity assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Scheduled events not yet popped.
    pub live: usize,
    /// Chunks the arena has made — bounds the queue's memory footprint.
    /// Stays at the high-water mark of chunks in use at once, not the
    /// total ever filled.
    pub chunks: usize,
    /// Events currently in the fine wheel (bucket chunks plus the drain).
    pub wheel: usize,
    /// Events currently in the coarse wheel.
    pub coarse: usize,
    /// Events currently in the far list, past the coarse horizon.
    pub far: usize,
}

/// The calendar queue, generic over its payload. See the module docs for
/// the design.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Fine bucket headers; empty until the first push into the wheel.
    wheel: Vec<Chain>,
    /// Coarse slot `c % COARSE_SLOTS` holds the events of coarse slot `c`,
    /// for `c` after the cursor's slot and within the horizon.
    coarse: [Chain; COARSE_SLOTS as usize],
    /// Earliest stamp in each coarse slot; `u64::MAX` when it is empty.
    coarse_min: [u64; COARSE_SLOTS as usize],
    /// Bit `i` set when `coarse[i]` is non-empty.
    coarse_mask: u64,
    /// Events past the coarse horizon, unsorted.
    far: Chain,
    /// Earliest stamp in `far`; `u64::MAX` when it is empty.
    far_min: u64,
    /// The chunk arena: chunk `i` is `pages[i / PAGE_CHUNKS][i % PAGE_CHUNKS]`.
    pages: Vec<Box<[Chunk<T>]>>,
    /// Head of the free chunk chain.
    free: u32,
    /// Entries in fine bucket chunks (excludes `drain`).
    wheel_len: usize,
    /// The cursor bucket's entries, sorted descending (popped from the
    /// back). While non-empty, the cursor bucket's chunk chain is empty.
    drain: Vec<Entry<T>>,
    /// Absolute fine bucket index the wheel is positioned at; only
    /// advances. The fine wheel holds the events of the turn that starts
    /// here.
    cursor: u64,
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
            coarse: [EMPTY_CHAIN; COARSE_SLOTS as usize],
            coarse_min: [u64::MAX; COARSE_SLOTS as usize],
            coarse_mask: 0,
            far: EMPTY_CHAIN,
            far_min: u64::MAX,
            pages: Vec::new(),
            free: NIL,
            wheel_len: 0,
            drain: Vec::new(),
            cursor: 0,
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
            coarse: self.coarse.iter().map(|c| c.len as usize).sum(),
            far: self.far.len as usize,
        }
    }

    /// Approximate heap footprint of the queue's own structures in bytes
    /// (fine wheel headers, chunk arena, drain vector; excludes heap
    /// memory owned by payloads). Every chain's entries live in the
    /// arena. Used by the scale bench's per-peer accounting.
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.wheel.capacity() * size_of::<Chain>()
            + self.pages.capacity() * size_of::<Box<[Chunk<T>]>>()
            + self.pages.len() * PAGE_CHUNKS * size_of::<Chunk<T>>()
            + self.drain.capacity() * size_of::<Entry<T>>()
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
        if entry.bucket() <= self.cursor && !self.drain.is_empty() {
            // Keep the draining bucket sorted descending.
            let pos = self.drain.partition_point(|e| *e > entry);
            self.drain.insert(pos, entry);
        } else {
            self.file(entry);
        }
        self.len += 1;
    }

    /// Puts `entry` in the tier its stamp calls for: the fine wheel within
    /// one turn of the cursor, a coarse slot within the horizon, the far
    /// list past it. An event never schedules before the cursor (time is
    /// monotone); a stamp behind it is clamped into the cursor bucket, so
    /// a misuse degrades to FIFO, not a panic.
    // `file`, `push_fine` and `append` are forced inline: left out of
    // line, each push paid calls that copied its entry again, a few
    // percent of a push/pop churn.
    #[inline(always)]
    fn file(&mut self, entry: Entry<T>) {
        let bucket = entry.bucket().max(self.cursor);
        if bucket - self.cursor < WHEEL_BUCKETS as u64 {
            self.push_fine(bucket, entry);
        } else if coarse_of(bucket) - coarse_of(self.cursor) < COARSE_SLOTS {
            // At least one turn ahead, so in a later coarse slot than the
            // cursor's.
            let slot = (coarse_of(bucket) % COARSE_SLOTS) as usize;
            self.coarse_min[slot] = self.coarse_min[slot].min(entry.at);
            self.coarse[slot] = self.append(self.coarse[slot], entry);
            self.coarse_mask |= 1 << slot;
        } else {
            self.far_min = self.far_min.min(entry.at);
            self.far = self.append(self.far, entry);
        }
    }

    /// Appends `entry` to fine bucket `bucket`, within one turn of the
    /// cursor.
    #[inline(always)]
    fn push_fine(&mut self, bucket: u64, entry: Entry<T>) {
        debug_assert!(bucket - self.cursor < WHEEL_BUCKETS as u64);
        if self.wheel.is_empty() {
            self.wheel = vec![EMPTY_CHAIN; WHEEL_BUCKETS];
        }
        let idx = wheel_index(bucket);
        self.wheel[idx] = self.append(self.wheel[idx], entry);
        self.wheel_len += 1;
    }

    /// Appends `entry` to `chain` and returns the chain's new header.
    #[inline(always)]
    fn append(&mut self, mut chain: Chain, entry: Entry<T>) -> Chain {
        let slot = chain.len as usize % CHUNK_ENTRIES;
        if slot == 0 {
            let fresh = self.alloc_chunk();
            if chain.len == 0 {
                chain.head = fresh;
            } else {
                self.chunk_mut(chain.tail).next = fresh;
            }
            chain.tail = fresh;
        }
        self.chunk_mut(chain.tail).entries[slot] = Some(entry);
        chain.len += 1;
        chain
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

    /// Hands the entries of the detached `chain` to `f` front to back,
    /// returning each chunk to the pool once it is emptied. `f` may append
    /// to other chains.
    fn drain_chain(&mut self, chain: Chain, mut f: impl FnMut(&mut Self, Entry<T>)) {
        let (mut id, mut left) = (chain.head, chain.len as usize);
        while left > 0 {
            let n = left.min(CHUNK_ENTRIES);
            for slot in 0..n {
                let entry = self.chunk_mut(id).entries[slot]
                    .take()
                    .expect("a chain's first len slots are full");
                f(self, entry);
            }
            let free = self.free;
            let next = std::mem::replace(&mut self.chunk_mut(id).next, free);
            self.free = id;
            left -= n;
            id = next;
        }
    }

    /// The earliest stamp in `chain`.
    fn chain_min(&self, chain: Chain) -> u64 {
        let (mut id, mut left) = (chain.head, chain.len as usize);
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
        min
    }

    /// Pops the earliest event (ties broken by ascending tie-break key,
    /// i.e. schedule order under [`CalendarQueue::push`]).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.drain.is_empty() {
            let bucket = self.next_bucket(u64::MAX)?;
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
            let bucket = self.next_bucket(end)?;
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
        if self.len == 0 {
            return None;
        }
        let fine = self
            .first_fine_before(self.cursor + WHEEL_BUCKETS as u64)
            .map_or(u64::MAX, |b| self.chain_min(self.wheel[wheel_index(b)]));
        let outer = match self.next_coarse_slot() {
            Some(slot) => self.coarse_min[(slot % COARSE_SLOTS) as usize],
            None => self.far_min,
        };
        Some(SimTime::from_nanos(fine.min(outer)))
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
            // range is in the past), and the jump stops at the first
            // queued bucket or coarse slot, so it skips no events.
            let outer = self.next_outer().unwrap_or(u64::MAX);
            let limit = bucket.min(outer);
            let first = self.first_fine_before(limit).unwrap_or(limit);
            self.advance_cursor_to(first);
        }
    }

    /// The first fine bucket of the next non-empty coarse slot, or else
    /// the far list's earliest bucket.
    fn next_outer(&self) -> Option<u64> {
        match self.next_coarse_slot() {
            Some(slot) => Some(slot << FINE_BITS),
            None => (self.far.len > 0).then_some(self.far_min >> BUCKET_SHIFT),
        }
    }

    /// Absolute index of the first non-empty fine bucket before `limit`.
    /// Fine events all lie within one turn of the cursor, so the scan
    /// stops there.
    fn first_fine_before(&self, limit: u64) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let limit = limit.min(self.cursor + WHEEL_BUCKETS as u64);
        (self.cursor..limit).find(|&b| self.wheel[wheel_index(b)].len > 0)
    }

    /// Absolute index of the next non-empty coarse slot after the
    /// cursor's, if any.
    fn next_coarse_slot(&self) -> Option<u64> {
        if self.coarse_mask == 0 {
            return None;
        }
        // The cursor's own slot bit is clear (its events are in the fine
        // wheel), so the first set bit after it is at most 63 slots on.
        let from = coarse_of(self.cursor) + 1;
        let skip = self
            .coarse_mask
            .rotate_right((from % COARSE_SLOTS) as u32)
            .trailing_zeros();
        Some(from + u64::from(skip))
    }

    /// The earliest non-empty fine bucket, after cascading the next coarse
    /// slot (or re-filing the far list) into the fine wheel when it starts
    /// first. `None` when nothing is queued outside the drain, or when the
    /// next bucket starts at or after `end`: a bucket past the cursor
    /// holds no stamp before its start (only the cursor bucket takes
    /// clamped pushes), so it has nothing to pop before `end`, and the
    /// cursor stays short of it, where the coming window's pushes land.
    fn next_bucket(&mut self, end: u64) -> Option<u64> {
        loop {
            let outer = self.next_outer();
            let fine = self.first_fine_before(outer.unwrap_or(u64::MAX));
            let start = fine.or(outer)?;
            if start > self.cursor && start << BUCKET_SHIFT >= end {
                return None;
            }
            if fine.is_some() {
                return fine;
            }
            self.advance_cursor_to(start);
        }
    }

    /// Moves the cursor to `bucket` and the bucket's chunks into the
    /// (empty) drain, sorted descending. The chunks return to the pool.
    fn load(&mut self, bucket: u64) {
        debug_assert!(self.drain.is_empty(), "drain holds an older bucket");
        self.advance_cursor_to(bucket);
        let chain = std::mem::replace(&mut self.wheel[wheel_index(bucket)], EMPTY_CHAIN);
        self.wheel_len -= chain.len as usize;
        self.drain_chain(chain, |q, e| q.drain.push(e));
        self.drain.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Moves the cursor forward to `bucket`. Entering a coarse slot moves
    /// its events into the fine wheel, and re-files the far list once its
    /// earliest event is within the new horizon. Callers must not jump
    /// past an event or into a non-empty coarse slot past its start, and
    /// the drain must be empty.
    fn advance_cursor_to(&mut self, bucket: u64) {
        debug_assert!(bucket >= self.cursor, "cursor went backwards");
        let (from, to) = (coarse_of(self.cursor), coarse_of(bucket));
        self.cursor = bucket;
        if to == from {
            return;
        }
        let slot = (to % COARSE_SLOTS) as usize;
        if self.coarse_mask & (1 << slot) != 0 {
            debug_assert!(to - from < COARSE_SLOTS, "jumped past a coarse slot");
            debug_assert_eq!(bucket, to << FINE_BITS, "entered a coarse slot late");
            let chain = std::mem::replace(&mut self.coarse[slot], EMPTY_CHAIN);
            self.coarse_mask &= !(1 << slot);
            self.coarse_min[slot] = u64::MAX;
            self.drain_chain(chain, |q, e| q.push_fine(e.bucket().max(q.cursor), e));
        }
        if self.far.len > 0 && coarse_of(self.far_min >> BUCKET_SHIFT) < to + COARSE_SLOTS {
            let chain = std::mem::replace(&mut self.far, EMPTY_CHAIN);
            self.far_min = u64::MAX;
            self.drain_chain(chain, Self::file);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Event, NodeId};
    use std::time::Duration;

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
        q.push(SimTime::from_secs(10), timer(4)); // coarse wheel
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tok(&e))
            .collect();
        assert_eq!(order, vec![2, 1, 3, 4]);
    }

    #[test]
    fn next_at_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(200), timer(0)); // far list only
        assert_eq!(q.next_at(), Some(SimTime::from_secs(200)));
        q.push(SimTime::from_secs(3), timer(1)); // coarse wheel
        assert_eq!(q.next_at(), Some(SimTime::from_secs(3)));
        q.push(SimTime::from_millis(1), timer(2)); // fine wheel
        assert_eq!(q.next_at(), Some(SimTime::from_millis(1)));
        let s = q.stats();
        assert_eq!((s.wheel, s.coarse, s.far), (1, 1, 1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(1));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(3));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(200)));
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
            // Mostly near-term, some in the coarse wheel.
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

    /// Width of one coarse slot in nanoseconds: one fine-wheel turn.
    const SLOT_NS: u64 = 1 << (BUCKET_SHIFT + FINE_BITS);

    #[test]
    fn pop_before_leaves_a_coarse_slot_starting_at_end_alone() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let slot_start = SimTime::from_nanos(3 * SLOT_NS);
        q.push_keyed(slot_start, 1, 1);
        assert_eq!(q.pop_before(slot_start), None);
        assert_eq!(q.stats().coarse, 1, "the slot stays in the coarse wheel");
        assert_eq!(q.cursor, 0, "the cursor stays short of the slot");
        // Later pushes, one just before the slot included, order against
        // the queued slot by their own stamps.
        q.push_keyed(slot_start, 0, 0);
        q.push_keyed(SimTime::from_nanos(3 * SLOT_NS - 1), 2, 2);
        let end = slot_start + Duration::from_nanos(1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_before(end).map(|(_, v)| v)).collect();
        assert_eq!(order, vec![2, 0, 1]);
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
