//! Differential tests: the calendar queue pops in exactly the order of the
//! original heap-plus-map scheduler, kept as a test oracle in `pdn-oracle`.

use std::time::Duration;

use pdn_oracle::queue::HeapMapQueue;
use pdn_simnet::{CalendarQueue, Event, NodeId, SimRng, SimTime};
use proptest::prelude::*;

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
fn agrees_with_heapmap_reference_under_random_churn() {
    let mut rng = SimRng::seed(99);
    let mut new_q = EventQueue::new();
    let mut old_q = HeapMapQueue::new();
    let mut now = SimTime::ZERO;
    let mut token = 0u64;
    for _ in 0..5_000 {
        if rng.chance(0.6) || new_q.is_empty() {
            // Mixed delays exercise all three tiers.
            let at = now + delay(&mut rng, now);
            new_q.push(at, timer(token));
            old_q.push(at, timer(token));
            token += 1;
        } else {
            let a = new_q.pop().expect("non-empty");
            let b = old_q.pop().expect("reference non-empty");
            assert_eq!(a.0, b.0, "pop times agree");
            assert_eq!(tok(&a.1), tok(&b.1), "pop payloads agree");
            now = a.0;
        }
    }
    while let Some(a) = new_q.pop() {
        let b = old_q.pop().expect("reference drains in step");
        assert_eq!((a.0, tok(&a.1)), (b.0, tok(&b.1)));
    }
    assert!(old_q.pop().is_none());
}

/// A delay after `from` mixing the fine wheel band, whole-millisecond
/// stamps (so ties at one instant are common), peer-tick timers just past
/// one fine-wheel turn, coarse slots, stamps exactly on coarse-slot edges
/// and on the coarse horizon ±1 bucket, and the far list out to ~300 s.
fn delay(rng: &mut SimRng, from: SimTime) -> Duration {
    let from = from.as_nanos();
    let slot_start = from / COARSE_NS * COARSE_NS;
    Duration::from_nanos(match rng.range(0..40u64) {
        0..=19 => rng.range(0..200_000_000u64),
        20..=27 => rng.range(0..20u64) * 1_000_000,
        28..=31 => rng.range(1_000_000_000..1_125_000_000u64),
        32..=33 => rng.range(0..5_000_000_000u64),
        34..=35 => slot_start + rng.range(1..70u64) * COARSE_NS - from,
        36..=37 => {
            slot_start + COARSE_HORIZON_NS - BUCKET_NS + rng.range(0..3u64) * BUCKET_NS - from
        }
        38 => rng.range(0..300_000_000_000u64),
        _ => rng.range(0..2 * COARSE_HORIZON_NS),
    })
}

/// The world pump's contract: drain a window with `pop_before(end)`
/// (exclusive), scheduling follow-ups at or after each popped event while
/// draining, then take a batch of pushes stamped at or after the window
/// end (a shard barrier's deliveries). Both queues must agree event for
/// event, including which events a window refuses; events stamped
/// exactly on a window's end are common.
#[test]
fn windowed_pops_agree_with_heapmap_reference() {
    let mut rng = SimRng::seed(7);
    let mut new_q = EventQueue::new();
    let mut old_q = HeapMapQueue::new();
    let mut end = SimTime::ZERO;
    let mut token = 0u64;
    let mut push = |at: SimTime, new_q: &mut EventQueue, old_q: &mut HeapMapQueue| {
        new_q.push(at, timer(token));
        old_q.push(at, timer(token));
        token += 1;
    };
    let mut popped = 0usize;
    for _ in 0..600 {
        // Some windows end exactly on a coarse-slot start.
        let next_end = if rng.chance(0.1) {
            SimTime::from_nanos((end.as_nanos() / COARSE_NS + 1) * COARSE_NS)
        } else {
            end + Duration::from_nanos(rng.range(0..300_000_000u64))
        };
        for _ in 0..rng.range(0..16u64) {
            // Some land exactly on the coming window's end, which must
            // refuse them.
            let at = if rng.chance(0.1) {
                next_end
            } else {
                end + delay(&mut rng, end)
            };
            push(at, &mut new_q, &mut old_q);
        }
        end = next_end;
        loop {
            match (new_q.pop_before(end), old_q.pop_before(end)) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert!(a.0 < end, "a window never pops at or past its end");
                    assert_eq!((a.0, tok(&a.1)), (b.0, tok(&b.1)), "window pops agree");
                    popped += 1;
                    if rng.chance(0.3) {
                        let at = if rng.chance(0.2) {
                            end
                        } else {
                            a.0 + delay(&mut rng, a.0)
                        };
                        push(at, &mut new_q, &mut old_q);
                    }
                }
                (a, b) => panic!("queues disagree at window end {end:?}: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(new_q.len(), old_q.len(), "refused events stay queued");
    }
    assert!(
        popped > 1_000,
        "windows must actually drain events: {popped}"
    );
    while let Some(a) = new_q.pop() {
        let b = old_q.pop().expect("reference drains in step");
        assert_eq!((a.0, tok(&a.1)), (b.0, tok(&b.1)));
    }
    assert!(old_q.pop().is_none());
}

/// Peer ticks: 10k timers at 1.0–1.125 s, each re-armed on its pop for
/// 20 turns, so most land just past one fine-wheel turn, in the coarse
/// wheel, and cross into the fine wheel slot by slot. They pop exactly as
/// the reference pops them. The same 20 turns then run again on the
/// drained queue, shifted by a whole number of coarse slots so every
/// stamp meets the wheels exactly as before: the second lap stays at the
/// chunk pool's high-water mark from the first.
#[test]
fn rearmed_tick_timers_pop_in_order_without_growing_the_pool() {
    const TIMERS: u64 = 10_000;
    const TURNS: u64 = 20;
    // Past the last stamp of a lap (20 turns of at most 1.125 s).
    const LAP_NS: u64 = 32 * COARSE_NS;
    let mut new_q = EventQueue::new();
    let mut old_q = HeapMapQueue::new();
    let mut high_water = None;
    for lap in 0..2 {
        let start = SimTime::from_nanos(lap * LAP_NS);
        new_q.advance_time(start);
        let mut rng = SimRng::seed(11);
        let mut tick = || Duration::from_nanos(rng.range(1_000_000_000..1_125_000_000u64));
        for token in 0..TIMERS {
            let at = start + tick();
            new_q.push(at, timer(token));
            old_q.push(at, timer(token));
        }
        let mut last = start;
        for popped in 0..TIMERS * TURNS {
            let a = new_q.pop().expect("every timer re-arms");
            let b = old_q.pop().expect("reference in step");
            assert_eq!((a.0, tok(&a.1)), (b.0, tok(&b.1)), "lap {lap} pop {popped}");
            assert!(a.0 >= last, "pops go forward in time");
            last = a.0;
            let (token, turn) = (tok(&a.1) % TIMERS, tok(&a.1) / TIMERS);
            if turn + 1 < TURNS {
                let at = a.0 + tick();
                let next = (turn + 1) * TIMERS + token;
                new_q.push(at, timer(next));
                old_q.push(at, timer(next));
            }
        }
        assert!(new_q.is_empty() && old_q.is_empty());
        assert!(last < SimTime::from_nanos((lap + 1) * LAP_NS));
        let chunks = new_q.stats().chunks;
        assert_eq!(
            *high_water.get_or_insert(chunks),
            chunks,
            "the second lap grew the chunk pool"
        );
    }
}

/// Width of one calendar bucket in nanoseconds (the queue's private
/// `BUCKET_SHIFT` of 19).
const BUCKET_NS: u64 = 1 << 19;

/// One turn of the fine wheel (2,048 buckets): the width of a coarse slot.
const COARSE_NS: u64 = 2_048 * BUCKET_NS;

/// The coarse wheel's horizon: 64 slots.
const COARSE_HORIZON_NS: u64 = 64 * COARSE_NS;

/// A push stamp relative to `now` that aims at one of the queue's edge
/// cases, picked by `kind`.
fn stamp(kind: u64, now: u64, r: u64) -> SimTime {
    let bucket_start = now / BUCKET_NS * BUCKET_NS;
    let slot_start = now / COARSE_NS * COARSE_NS;
    SimTime::from_nanos(match kind % 10 {
        // Near term, inside the fine wheel.
        0 => now + r % 200_000_000,
        // About one turn ahead or more: the coarse wheel.
        1 => now + COARSE_NS - BUCKET_NS + r % (3 * COARSE_NS),
        // Exactly on a bucket edge, near or past one turn.
        2 => bucket_start + (1 + r % 2_100) * BUCKET_NS,
        // Exactly on a coarse-slot edge, up to past the coarse horizon.
        6 => slot_start + (1 + r % 70) * COARSE_NS,
        // The coarse horizon ±1 bucket.
        7 => slot_start + COARSE_HORIZON_NS - BUCKET_NS + r % 3 * BUCKET_NS,
        // The far list, several horizons out (~300 s).
        8 => now + r % (300 * 1_000_000_000),
        // Inside the bucket being drained (at or after `now`).
        3 => now + r % (bucket_start + BUCKET_NS - now),
        // Behind `now`, so behind the cursor: clamped into its bucket.
        4 => now.saturating_sub(r % (4 * BUCKET_NS)),
        // A tie: whole milliseconds collide often.
        5 => (now / 1_000_000 + r % 4) * 1_000_000,
        // A peer tick: one second plus up to 125 ms of jitter.
        _ => now + 1_000_000_000 + r % 125_000_000,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random `push`/`push_keyed`/`pop`/`pop_before`/`advance_time`
    /// sequences pop exactly what the heap+hashmap reference pops, payload
    /// for payload. Each case uses either internal sequence numbers or
    /// caller keys (the two must not be mixed on one queue); the keys are
    /// a bijection of the payload, so they are unique but not in push
    /// order.
    #[test]
    fn random_operation_sequences_agree_with_heapmap_reference(
        keyed in any::<bool>(),
        ops in proptest::collection::vec((0u64..10, any::<u64>(), any::<u64>()), 1..400),
    ) {
        let mut new_q = EventQueue::new();
        let mut old_q = HeapMapQueue::new();
        let mut now = 0u64;
        let mut token = 0u64;
        for (op, a, b) in ops {
            match op {
                0..=4 => {
                    let at = stamp(a, now, b);
                    if keyed {
                        let key = token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        new_q.push_keyed(at, key, timer(token));
                        old_q.push_keyed(at, key, timer(token));
                    } else {
                        new_q.push(at, timer(token));
                        old_q.push(at, timer(token));
                    }
                    token += 1;
                }
                5 | 6 => {
                    let got = new_q.pop().map(|(at, e)| (at, tok(&e)));
                    let want = old_q.pop().map(|(at, e)| (at, tok(&e)));
                    prop_assert_eq!(got, want, "pop");
                    if let Some((at, _)) = got {
                        now = now.max(at.as_nanos());
                    }
                }
                7 | 8 => {
                    // The window ends on a bucket edge, on a stamp drawn
                    // like a push's, or anywhere near term; it pops one
                    // event or drains the window.
                    let end = SimTime::from_nanos(match a % 4 {
                        0 => (now / BUCKET_NS + b % 8) * BUCKET_NS,
                        1 => stamp(b, now, a).as_nanos(),
                        2 => (now / COARSE_NS + b % 3) * COARSE_NS,
                        _ => now + b % 50_000_000,
                    });
                    loop {
                        let got = new_q.pop_before(end).map(|(at, e)| (at, tok(&e)));
                        let want = old_q.pop_before(end).map(|(at, e)| (at, tok(&e)));
                        prop_assert_eq!(got, want, "pop_before({:?})", end);
                        match got {
                            Some((at, _)) => now = now.max(at.as_nanos()),
                            None => break,
                        }
                        if a % 2 == 0 {
                            break;
                        }
                    }
                }
                _ => {
                    // A clock jump, as `Network::advance_to` makes one;
                    // it may pass queued events, which must still pop.
                    now += b % (2 * COARSE_NS);
                    new_q.advance_time(SimTime::from_nanos(now));
                }
            }
            prop_assert_eq!(new_q.len(), old_q.len(), "live count");
        }
        loop {
            let got = new_q.pop().map(|(at, e)| (at, tok(&e)));
            let want = old_q.pop().map(|(at, e)| (at, tok(&e)));
            prop_assert_eq!(got, want, "final drain");
            if got.is_none() {
                break;
            }
        }
    }
}
