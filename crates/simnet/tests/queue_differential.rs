//! Differential test: the calendar queue pops in exactly the order of the
//! original heap-plus-map scheduler, kept as a test oracle in `pdn-oracle`.

use pdn_oracle::queue::HeapMapQueue;
use pdn_simnet::{Event, EventQueue, NodeId, SimRng, SimTime};

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
            let at = now + std::time::Duration::from_nanos(delay_ns);
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
