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
            // Mixed near/far delays exercise both tiers.
            let delay_ns = if rng.chance(0.8) {
                rng.range(0..200_000_000u64)
            } else {
                rng.range(0..5_000_000_000u64)
            };
            let at = now + Duration::from_nanos(delay_ns);
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

/// A delay mixing the wheel band, the overflow tier, and whole-millisecond
/// stamps (so ties at one instant are common).
fn delay(rng: &mut SimRng) -> Duration {
    match rng.range(0..10u64) {
        0..=5 => Duration::from_nanos(rng.range(0..200_000_000u64)),
        6..=7 => Duration::from_millis(rng.range(0..20u64)),
        _ => Duration::from_nanos(rng.range(0..5_000_000_000u64)),
    }
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
        let next_end = end + Duration::from_nanos(rng.range(0..300_000_000u64));
        for _ in 0..rng.range(0..16u64) {
            // Some land exactly on the coming window's end, which must
            // refuse them.
            let at = if rng.chance(0.1) {
                next_end
            } else {
                end + delay(&mut rng)
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
                            a.0 + delay(&mut rng)
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

/// Width of one calendar bucket in nanoseconds (the queue's private
/// `BUCKET_SHIFT` of 19).
const BUCKET_NS: u64 = 1 << 19;

/// The wheel's horizon in nanoseconds (2,048 buckets).
const HORIZON_NS: u64 = 2_048 * BUCKET_NS;

/// A push stamp relative to `now` that aims at one of the queue's edge
/// cases, picked by `kind`.
fn stamp(kind: u64, now: u64, r: u64) -> SimTime {
    let bucket_start = now / BUCKET_NS * BUCKET_NS;
    SimTime::from_nanos(match kind % 6 {
        // Near term, inside the wheel.
        0 => now + r % 200_000_000,
        // Past the wheel horizon: the overflow tier.
        1 => now + HORIZON_NS - BUCKET_NS + r % (3 * HORIZON_NS),
        // Exactly on a bucket edge, near or past the horizon.
        2 => bucket_start + (1 + r % 2_100) * BUCKET_NS,
        // Inside the bucket being drained (at or after `now`).
        3 => now + r % (bucket_start + BUCKET_NS - now),
        // Behind `now`, so behind the cursor: clamped into its bucket.
        4 => now.saturating_sub(r % (4 * BUCKET_NS)),
        // A tie: whole milliseconds collide often.
        _ => (now / 1_000_000 + r % 4) * 1_000_000,
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
                    let end = SimTime::from_nanos(match a % 3 {
                        0 => (now / BUCKET_NS + b % 8) * BUCKET_NS,
                        1 => stamp(b, now, a).as_nanos(),
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
                    now += b % (2 * HORIZON_NS);
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
