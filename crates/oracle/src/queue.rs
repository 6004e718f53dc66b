//! The simulator's original event scheduler.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use pdn_simnet::{Event, SimTime};

/// The original scheduler — a `BinaryHeap` ordering index plus a side
/// `HashMap` payload store, one heap op **and** one hash insert/remove per
/// event. `pdn-simnet`'s `queue_differential` test proves
/// `pdn_simnet::CalendarQueue` pops in the identical order, and `sim_bench`
/// measures the calendar queue's speedup against it.
#[derive(Debug, Default)]
pub struct HeapMapQueue {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    pending: HashMap<u64, Event>,
    next_seq: u64,
}

impl HeapMapQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `ev` at `at`.
    pub fn push(&mut self, at: SimTime, ev: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq, ev);
        self.queue.push(Reverse((at.as_nanos(), seq)));
    }

    /// Schedules `ev` at `at` under a caller-supplied tie-break key, like
    /// `CalendarQueue::push_keyed`. Keys must be unique on the queue (the
    /// key also indexes the payload), and `push` and `push_keyed` must not
    /// be mixed on one queue.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, ev: Event) {
        let clash = self.pending.insert(key, ev);
        assert!(clash.is_none(), "tie-break key {key} queued twice");
        self.queue.push(Reverse((at.as_nanos(), key)));
    }

    /// Pops the earliest event only if it is scheduled strictly before
    /// `end`.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, Event)> {
        let &Reverse((at, _)) = self.queue.peek()?;
        if at < end.as_nanos() {
            self.pop()
        } else {
            None
        }
    }

    /// Pops the earliest event (ties broken by schedule order).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse((at, seq)) = self.queue.pop()?;
        let ev = self
            .pending
            .remove(&seq)
            .expect("queued event has a pending entry");
        Some((SimTime::from_nanos(at), ev))
    }
}
