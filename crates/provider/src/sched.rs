//! The segment planner both worlds share: the SDK agent ([`crate::sdk`])
//! and the swarm model ([`crate::swarm`]). As the paper's SDKs do, a
//! session's first segments come from the CDN (slow start); after that a
//! peer holding the segment is preferred, with the CDN as fallback
//! (§IV-C, Table VI, Figs. 4–5). The planner owns the walk over the
//! window; each world keeps its pick, patience and plumbing ([`Fetcher`]).

/// The planner's knobs, built at each call site from the world's config.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Segments from the next needed one that the walk considers.
    pub window: u64,
    /// Decisions (fetches and waits) made in one pass at most.
    pub in_flight: u64,
    /// Segments from the session's start that always come from the CDN.
    pub slow_start: u64,
}

/// What the planner reads from a world and does to it.
pub trait Fetcher {
    /// How the world names the neighbor a request goes to.
    type Peer;
    /// Whether `seq` is already held or asked for.
    fn busy(&self, seq: u64) -> bool;
    /// A neighbor holding `seq`; asked only for a seq eligible for P2P.
    fn pick(&mut self, seq: u64) -> Option<Self::Peer>;
    /// Whether to wait for a holder of `seq` rather than pay the CDN now.
    /// Asked for every seq without a holder, eligible or not, so a rule
    /// that draws randomness keeps its draws; heeded only when eligible.
    fn wait(&mut self, seq: u64) -> bool;
    /// Requests `seq` from `peer`, or from the CDN when `None`.
    fn fetch(&mut self, seq: u64, peer: Option<Self::Peer>);
}

/// One pass over `[next, min(next + window, end))`: every seq that is not
/// busy is one decision, up to `policy.in_flight` of them. A seq is
/// eligible for P2P when `p2p` is on and `seq >= start + slow_start`.
pub fn plan<F: Fetcher>(f: &mut F, policy: Policy, start: u64, next: u64, end: u64, p2p: bool) {
    let mut left = policy.in_flight;
    for seq in next..(next + policy.window).min(end) {
        if left == 0 {
            return;
        }
        if f.busy(seq) {
            continue;
        }
        left -= 1;
        let eligible = p2p && seq >= start + policy.slow_start;
        match eligible.then(|| f.pick(seq)).flatten() {
            Some(peer) => f.fetch(seq, Some(peer)),
            None if f.wait(seq) && eligible => {}
            None => f.fetch(seq, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A world of bitmaps over seqs `0..64`, recording every call.
    #[derive(Default)]
    struct Mock {
        busy: u64,
        holders: u64,
        patient: u64,
        picked: Vec<u64>,
        waited: Vec<u64>,
        fetched: Vec<(u64, Option<u64>)>,
    }

    impl Fetcher for Mock {
        type Peer = u64;
        fn busy(&self, seq: u64) -> bool {
            self.busy & (1 << seq) != 0
        }
        fn pick(&mut self, seq: u64) -> Option<u64> {
            self.picked.push(seq);
            (self.holders & (1 << seq) != 0).then_some(seq)
        }
        fn wait(&mut self, seq: u64) -> bool {
            self.waited.push(seq);
            self.patient & (1 << seq) != 0
        }
        fn fetch(&mut self, seq: u64, peer: Option<u64>) {
            self.fetched.push((seq, peer));
        }
    }

    #[test]
    fn slow_start_and_p2p_off_go_to_the_cdn_and_still_ask_patience() {
        let policy = Policy {
            window: 4,
            in_flight: 4,
            slow_start: 2,
        };
        let mut m = Mock {
            holders: !0,
            patient: !0,
            ..Mock::default()
        };
        plan(&mut m, policy, 10, 10, 100, true);
        assert_eq!(m.picked, [12, 13]);
        assert_eq!(m.waited, [10, 11]);
        assert_eq!(
            m.fetched,
            [(10, None), (11, None), (12, Some(12)), (13, Some(13)),]
        );

        let mut off = Mock {
            holders: !0,
            patient: !0,
            ..Mock::default()
        };
        plan(&mut off, policy, 0, 20, 23, false);
        assert!(off.picked.is_empty());
        assert_eq!(off.waited, [20, 21, 22]);
        assert!(off.fetched.iter().all(|&(_, peer)| peer.is_none()));
    }

    #[test]
    fn one_decision_stops_at_the_first_free_seq_even_when_waiting() {
        let policy = Policy {
            window: 8,
            in_flight: 1,
            slow_start: 0,
        };
        let mut m = Mock {
            busy: 0b011,
            patient: !0,
            ..Mock::default()
        };
        plan(&mut m, policy, 0, 0, 64, true);
        assert_eq!(m.picked, [2]);
        assert_eq!(m.waited, [2]);
        assert!(m.fetched.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the busy set, holders, patience answers and policy:
        /// only free seqs inside the window are planned, at most
        /// `in_flight` decisions are made, only P2P-eligible seqs are
        /// picked for or sent to a peer, and an ineligible seq never
        /// waits.
        #[test]
        fn plans_stay_in_window_and_policy(
            sets in (any::<u64>(), any::<u64>(), any::<u64>()),
            knobs in (0u64..12, 0u64..12, 0u64..12),
            cursor in (0u64..24, 0u64..24, 0u64..64),
            p2p in any::<bool>(),
        ) {
            let (busy, holders, patient) = sets;
            let (window, in_flight, slow_start) = knobs;
            let (start, ahead, end) = cursor;
            let next = start + ahead;
            let policy = Policy { window, in_flight, slow_start };
            let mut m = Mock { busy, holders, patient, ..Mock::default() };
            plan(&mut m, policy, start, next, end, p2p);

            let in_window = |seq: u64| seq >= next && seq < (next + window).min(end);
            let eligible = |seq: u64| p2p && seq >= start + slow_start;
            let mut decided: Vec<u64> = m.picked.clone();
            decided.extend(&m.waited);
            decided.sort_unstable();
            decided.dedup();
            prop_assert!(decided.len() as u64 <= in_flight);
            prop_assert!(m.fetched.len() as u64 <= in_flight);
            for &seq in &decided {
                prop_assert!(busy & (1 << seq) == 0, "busy seq {} planned", seq);
                prop_assert!(in_window(seq), "seq {} outside the window", seq);
            }
            for &seq in &m.picked {
                prop_assert!(eligible(seq), "pick asked for ineligible seq {}", seq);
            }
            for &seq in m.waited.iter().filter(|&&seq| !eligible(seq)) {
                prop_assert!(m.fetched.contains(&(seq, None)), "ineligible seq {} waited", seq);
            }
            for &(seq, peer) in &m.fetched {
                prop_assert!(busy & (1 << seq) == 0, "busy seq {} fetched", seq);
                prop_assert!(in_window(seq), "seq {} fetched outside the window", seq);
                prop_assert!(peer.is_none() || eligible(seq), "ineligible seq {} sent to a peer", seq);
            }
        }
    }
}
