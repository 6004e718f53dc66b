//! Sans-IO ICE (RFC 8445 subset): one agent per viewer, one check list
//! per neighbor connection.
//!
//! The [`IceAgent`] owns the viewer's credentials and local candidates: it
//! gathers host and server-reflexive candidates, which signaling (the PDN
//! server's job in Figure 1) carries to every neighbor, and it answers
//! every inbound connectivity check, whichever connection it belongs to —
//! WebRTC shares one ufrag/pwd per session, so one responder suffices.
//! A [`CheckList`] holds one neighbor's signaled description and runs the
//! outbound checks toward it until a pair validates. Neither touches the
//! network: callers feed them decoded STUN messages and send the
//! `(destination, STUN payload)` pairs they return, which is what lets the
//! whole protocol run inside the deterministic simulator.
//!
//! Privacy note (§IV-D of the paper): a check list keeps the neighbor's
//! candidates ([`CheckList::remote`]) — run by an honest peer this is
//! bookkeeping, run by a malicious peer it is the IP-harvesting attack.

use bytes::Bytes;
use pdn_crypto::hmac::HmacKey;
use pdn_simnet::{Addr, SimRng};

use crate::cert::Fingerprint;
use crate::sdp::{Candidate, CandidateKind, SessionDescription};
use crate::stun::{Attribute, Class, Message, Method};

/// What [`IceAgent::handle`] makes of an inbound STUN message.
#[derive(Debug, Clone, PartialEq)]
pub enum IceEvent {
    /// Transmit `data` to `to` from the viewer's media port.
    SendTo {
        /// Destination address.
        to: Addr,
        /// STUN payload.
        data: Bytes,
    },
    /// Server-reflexive gathering finished (candidate list is final).
    GatheringComplete,
}

/// The viewer's ICE agent. See the [module docs](self).
#[derive(Debug)]
pub struct IceAgent {
    local_ufrag: String,
    local_pwd: String,
    /// Precomputed HMAC key of `local_pwd`, shared by every incoming-check
    /// verification.
    local_key: HmacKey,
    candidates: Vec<Candidate>,
    /// The server-reflexive gathering request in flight.
    gather_txid: Option<[u8; 12]>,
    gathering_done: bool,
    rng: SimRng,
}

impl IceAgent {
    /// Creates an agent listening on `local_port`, with fresh credentials.
    pub fn new(local_port: u16, rng: &mut SimRng) -> Self {
        let mut rng = rng.fork(local_port as u64 | 0x1ce0_0000);
        let local_ufrag = format!("u{:08x}", rng.next_u64() as u32);
        let local_pwd = format!("p{:016x}", rng.next_u64());
        IceAgent {
            local_key: HmacKey::new(local_pwd.as_bytes()),
            local_ufrag,
            local_pwd,
            candidates: Vec::new(),
            gather_txid: None,
            gathering_done: false,
            rng,
        }
    }

    /// Local ICE credentials `(ufrag, pwd)`.
    pub fn credentials(&self) -> (&str, &str) {
        (&self.local_ufrag, &self.local_pwd)
    }

    /// Adds the host candidate (the peer's own interface address).
    ///
    /// For NAT'd peers this is a private address; signaling it is the
    /// bogon-leak mechanism of §IV-D.
    pub fn add_host_candidate(&mut self, addr: Addr) {
        self.candidates
            .push(Candidate::new(CandidateKind::Host, addr));
    }

    /// Adds a relay candidate (allocated out-of-band on a TURN server).
    pub fn add_relay_candidate(&mut self, addr: Addr) {
        self.candidates
            .push(Candidate::new(CandidateKind::Relay, addr));
    }

    /// Starts server-reflexive gathering against `stun_server`: the
    /// Binding request to send there.
    pub fn gather_srflx(&mut self, stun_server: Addr) -> (Addr, Bytes) {
        let txid = fresh_txid(&mut self.rng);
        self.gather_txid = Some(txid);
        let request = Message::binding_request(txid)
            .with(Attribute::Software("pdn-sim-ice".into()))
            .encode();
        (stun_server, request)
    }

    /// Marks gathering complete without a STUN server (host-only).
    pub fn finish_gathering(&mut self) {
        self.gathering_done = true;
    }

    /// The local session description to signal.
    pub fn local_description(&self, fingerprint: Fingerprint) -> SessionDescription {
        SessionDescription {
            ice_ufrag: self.local_ufrag.clone(),
            ice_pwd: self.local_pwd.clone(),
            fingerprint,
            candidates: self.candidates.clone(),
        }
    }

    /// Processes a STUN message received from `from`: the gathering
    /// response completes gathering, and a connectivity check addressed to
    /// this viewer is answered. Anything else (check responses included —
    /// those belong to a [`CheckList`]) yields `None`.
    pub fn handle(&mut self, from: Addr, msg: &Message) -> Option<IceEvent> {
        match (msg.class, msg.method) {
            (Class::Success, Method::Binding) => self.on_gathered(msg),
            (Class::Request, Method::Binding) => self.on_check(from, msg),
            _ => None,
        }
    }

    fn on_gathered(&mut self, msg: &Message) -> Option<IceEvent> {
        if self.gather_txid != Some(msg.transaction_id) {
            return None;
        }
        self.gather_txid = None;
        if let Some(mapped) = msg.mapped_address() {
            // Only add a distinct srflx candidate if the mapping differs
            // from every host candidate.
            if !self.candidates.iter().any(|c| c.addr == mapped) {
                self.candidates
                    .push(Candidate::new(CandidateKind::ServerReflexive, mapped));
            }
        }
        self.gathering_done = true;
        Some(IceEvent::GatheringComplete)
    }

    fn on_check(&self, from: Addr, msg: &Message) -> Option<IceEvent> {
        // Verify the check is for us (USERNAME = local_ufrag:remote_ufrag)
        // and carries a MAC under our password; answer with the reflexive
        // address.
        if msg.username()?.split(':').next() != Some(self.local_ufrag.as_str()) {
            return None;
        }
        let resp = if msg.verify_integrity(&self.local_key) {
            Message::binding_success(msg.transaction_id, from)
        } else {
            Message::new(Class::Error, Method::Binding, msg.transaction_id)
                .with(Attribute::ErrorCode(401, "Unauthorized".into()))
        };
        Some(IceEvent::SendTo {
            to: from,
            data: resp.encode(),
        })
    }

    /// Whether candidate gathering finished.
    pub fn is_gathering_complete(&self) -> bool {
        self.gathering_done
    }
}

/// The outbound checks of one connection toward one neighbor. See the
/// [module docs](self).
#[derive(Debug)]
pub struct CheckList {
    remote: SessionDescription,
    /// Precomputed HMAC key of the remote password, reused across the
    /// whole connectivity-check storm.
    remote_key: HmacKey,
    rng: SimRng,
    /// Checks awaiting a response: transaction id and target. Emptied
    /// once a pair is selected.
    in_flight: Vec<([u8; 12], Addr)>,
    selected: bool,
}

impl CheckList {
    /// A check list toward the neighbor that signaled `remote`; `rng`
    /// draws its transaction ids.
    pub fn new(remote: SessionDescription, rng: SimRng) -> Self {
        CheckList {
            remote_key: HmacKey::new(remote.ice_pwd.as_bytes()),
            remote,
            rng,
            in_flight: Vec::new(),
            selected: false,
        }
    }

    /// The neighbor's signaled description: its credentials, fingerprint
    /// and candidates — the §IV-D harvest.
    pub fn remote(&self) -> &SessionDescription {
        &self.remote
    }

    /// Returns one connectivity check toward every distinct remote candidate
    /// address, highest priority first. `local_ufrag` is the viewer's.
    pub fn start(&mut self, local_ufrag: &str) -> Vec<(Addr, Bytes)> {
        let mut targets = self.remote.candidates.clone();
        targets.sort_by_key(|c| std::cmp::Reverse(c.priority));
        let mut probed: Vec<Addr> = Vec::with_capacity(targets.len());
        let mut out = Vec::new();
        for cand in targets {
            if probed.contains(&cand.addr) {
                continue;
            }
            probed.push(cand.addr);
            out.push(self.check(cand.addr, Some(cand.priority), local_ufrag));
        }
        out
    }

    /// Re-sends a check to every remote candidate (with fresh transaction
    /// IDs) until a pair is selected.
    ///
    /// ICE retransmits checks on a timer; in particular, hole punching
    /// through address-restricted NATs only succeeds on a retry *after*
    /// the other side's own check opened its mapping.
    pub fn retransmit(&mut self, local_ufrag: &str) -> Vec<(Addr, Bytes)> {
        if self.selected {
            return Vec::new();
        }
        (0..self.remote.candidates.len())
            .map(|i| self.check(self.remote.candidates[i].addr, None, local_ufrag))
            .collect()
    }

    /// A Binding request toward `to` (carrying `priority`, if given),
    /// recorded in flight.
    fn check(&mut self, to: Addr, priority: Option<u32>, local_ufrag: &str) -> (Addr, Bytes) {
        let txid = fresh_txid(&mut self.rng);
        self.in_flight.push((txid, to));
        let username = format!("{}:{}", self.remote.ice_ufrag, local_ufrag);
        let mut msg = Message::binding_request(txid).with(Attribute::Username(username));
        if let Some(priority) = priority {
            msg = msg.with(Attribute::Priority(priority));
        }
        (to, msg.with_integrity(&self.remote_key).encode())
    }

    /// Takes a STUN message that may answer one of this list's checks.
    /// Returns the remote address of the pair it selects — only the first
    /// success does; requests and unknown transaction ids are ignored.
    pub fn on_response(&mut self, msg: &Message) -> Option<Addr> {
        if (msg.class, msg.method) != (Class::Success, Method::Binding) || self.selected {
            return None;
        }
        let &(_, remote) = self
            .in_flight
            .iter()
            .find(|(txid, _)| *txid == msg.transaction_id)?;
        self.in_flight = Vec::new();
        self.selected = true;
        Some(remote)
    }
}

fn fresh_txid(rng: &mut SimRng) -> [u8; 12] {
    let mut id = [0u8; 12];
    let a = rng.next_u64().to_le_bytes();
    let b = rng.next_u64().to_le_bytes();
    id[..8].copy_from_slice(&a);
    id[8..].copy_from_slice(&b[..4]);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use pdn_crypto::hmac::hmac_sha256;

    fn agent(port: u16, seed: u64) -> IceAgent {
        let mut rng = SimRng::seed(seed);
        IceAgent::new(port, &mut rng)
    }

    fn fp(seed: u64) -> Fingerprint {
        let mut rng = SimRng::seed(seed);
        Certificate::generate(&mut rng).fingerprint()
    }

    fn decode((to, data): &(Addr, Bytes)) -> (Addr, Message) {
        (*to, Message::decode(data).unwrap())
    }

    /// The STUN reply in an agent's `SendTo`, decoded.
    fn reply(ev: Option<IceEvent>) -> (Addr, Message) {
        let Some(IceEvent::SendTo { to, data }) = ev else {
            panic!("expected SendTo, got {ev:?}");
        };
        decode(&(to, data))
    }

    /// A check list toward `remote` (its txids drawn from `seed`), with
    /// the first check it sends.
    fn list_with_first_check(remote: &IceAgent, seed: u64) -> (CheckList, Message) {
        let mut list = CheckList::new(remote.local_description(fp(4)), SimRng::seed(seed));
        let checks = list.start("me");
        assert_eq!(checks.len(), 1);
        let (_, check) = decode(&checks[0]);
        (list, check)
    }

    /// Two viewers on public addresses each run a check list toward the
    /// other; each viewer's agent answers the other's checks, and both
    /// lists select the other's address.
    #[test]
    fn two_agents_connect_via_checks() {
        let addr_a = Addr::new(20, 0, 0, 1, 5000);
        let addr_b = Addr::new(20, 0, 0, 2, 5000);
        let mut a = agent(5000, 1);
        let mut b = agent(5000, 2);
        a.add_host_candidate(addr_a);
        b.add_host_candidate(addr_b);
        a.finish_gathering();
        b.finish_gathering();
        let mut a_to_b = CheckList::new(b.local_description(fp(1)), SimRng::seed(3));
        let mut b_to_a = CheckList::new(a.local_description(fp(2)), SimRng::seed(4));

        // Ferry messages: (from_addr, to_addr, bytes) queue.
        let mut wire: Vec<(Addr, Addr, Bytes)> = Vec::new();
        let opening = [
            (addr_a, a_to_b.start(a.credentials().0)),
            (addr_b, b_to_a.start(b.credentials().0)),
        ];
        for (from, checks) in opening {
            wire.extend(checks.into_iter().map(|(to, data)| (from, to, data)));
        }
        let (mut a_selected, mut b_selected) = (None, None);
        let mut hops = 0;
        while let Some((from, to, data)) = wire.pop() {
            hops += 1;
            assert!(hops < 100, "ICE must converge");
            let (viewer, list, selected) = if to == addr_a {
                (&mut a, &mut a_to_b, &mut a_selected)
            } else {
                (&mut b, &mut b_to_a, &mut b_selected)
            };
            let msg = Message::decode(&data).unwrap();
            if let Some(IceEvent::SendTo { to: back, data }) = viewer.handle(from, &msg) {
                wire.push((to, back, data));
            }
            if let Some(remote) = list.on_response(&msg) {
                assert_eq!(selected.replace(remote), None, "a list selects once");
            }
        }
        assert_eq!(a_selected, Some(addr_b));
        assert_eq!(b_selected, Some(addr_a));
    }

    #[test]
    fn srflx_gathering_adds_candidate() {
        let mut a = agent(4000, 3);
        let stun = Addr::new(30, 0, 0, 1, 3478);
        let (to, req) = decode(&a.gather_srflx(stun));
        assert_eq!(to, stun);
        // The STUN server reflects the (NAT-mapped) source address.
        let mapped = Addr::new(99, 99, 99, 99, 41_000);
        let resp = Message::binding_success(req.transaction_id, mapped);
        assert_eq!(a.handle(stun, &resp), Some(IceEvent::GatheringComplete));
        assert!(a.is_gathering_complete());
        assert!(a
            .local_description(fp(3))
            .candidates
            .iter()
            .any(|c| c.kind == CandidateKind::ServerReflexive && c.addr == mapped));
        // A repeated response is not a second gathering.
        assert_eq!(a.handle(stun, &resp), None);
    }

    /// The viewer's agent answers a check sent by any connection's check
    /// list toward it, reflecting the address the check came from.
    #[test]
    fn agent_answers_any_connections_check_with_the_mapped_address() {
        let mut viewer = agent(4000, 12);
        viewer.add_host_candidate(Addr::new(20, 0, 0, 1, 4000));
        for seed in [21, 22] {
            let (_, check) = list_with_first_check(&viewer, seed);
            let mapped = Addr::new(77, 0, 0, seed as u8, 40_000);
            let (to, resp) = reply(viewer.handle(mapped, &check));
            assert_eq!(to, mapped);
            assert_eq!(resp.class, Class::Success);
            assert_eq!(resp.transaction_id, check.transaction_id);
            assert_eq!(resp.mapped_address(), Some(mapped));
        }
    }

    #[test]
    fn check_with_wrong_password_rejected() {
        let mut a = agent(4000, 4);
        a.add_host_candidate(Addr::new(20, 0, 0, 1, 4000));
        let striker = Addr::new(66, 6, 6, 6, 1000);
        let txid = [9u8; 12];
        let check = Message::binding_request(txid)
            .with(Attribute::Username(format!(
                "{}:attacker",
                a.credentials().0
            )))
            .with(Attribute::MessageIntegrity(hmac_sha256(b"wrongpwd", &txid)));
        let (to, resp) = reply(a.handle(striker, &check));
        assert_eq!(to, striker);
        assert_eq!(resp.class, Class::Error);
        assert!(resp
            .attributes
            .iter()
            .any(|at| matches!(at, Attribute::ErrorCode(401, _))));
    }

    #[test]
    fn check_for_other_agent_ignored() {
        let mut a = agent(4000, 5);
        let check =
            Message::binding_request([1; 12]).with(Attribute::Username("someoneelse:me".into()));
        assert_eq!(a.handle(Addr::new(1, 1, 1, 1, 1), &check), None);
    }

    #[test]
    fn remote_candidates_are_harvested() {
        // The privacy finding: merely *signaling* with a peer leaks all its
        // candidate addresses, before any media flows.
        let mut b = agent(4000, 7);
        b.add_host_candidate(Addr::new(10, 1, 2, 3, 4000)); // private!
        b.add_host_candidate(Addr::new(77, 1, 2, 3, 4000));
        let list = CheckList::new(b.local_description(fp(3)), SimRng::seed(6));
        let seen: Vec<Addr> = list.remote().candidate_addrs().collect();
        assert_eq!(seen.len(), 2);
        assert!(seen.contains(&Addr::new(10, 1, 2, 3, 4000)));
    }

    /// ICE reacts to Binding messages only: other STUN (a TURN Allocate
    /// carrying a matching username, its success) leaves the agent and a
    /// check list alone.
    #[test]
    fn non_binding_stun_ignored() {
        let mut a = agent(4000, 8);
        let username = format!("{}:x", a.credentials().0);
        let allocate = Message::new(Class::Request, Method::Allocate, [2; 12])
            .with(Attribute::Username(username));
        assert_eq!(a.handle(Addr::new(1, 1, 1, 1, 1), &allocate), None);
        let mut b = agent(5000, 13);
        b.add_host_candidate(Addr::new(50, 0, 0, 1, 5000));
        let (mut list, check) = list_with_first_check(&b, 11);
        let allocated = Message::new(Class::Success, Method::Allocate, check.transaction_id);
        assert_eq!(list.on_response(&allocated), None);
        // The list still takes its check's real answer.
        let resp = Message::binding_success(check.transaction_id, Addr::new(9, 9, 9, 9, 1));
        assert_eq!(list.on_response(&resp), Some(Addr::new(50, 0, 0, 1, 5000)));
    }

    /// A check list takes only success responses to its own checks: a
    /// request (even one reusing a check's transaction id) and an unknown
    /// transaction id select nothing.
    #[test]
    fn check_list_ignores_requests_and_unknown_txids() {
        let mut b = agent(5000, 14);
        b.add_host_candidate(Addr::new(50, 0, 0, 1, 5000));
        let (mut list, check) = list_with_first_check(&b, 11);
        assert_eq!(list.on_response(&check), None);
        let stranger = Message::binding_success([7; 12], Addr::new(9, 9, 9, 9, 1));
        assert_eq!(list.on_response(&stranger), None);
        // Neither selected: the check's own success still selects.
        let resp = Message::binding_success(check.transaction_id, Addr::new(9, 9, 9, 9, 1));
        assert_eq!(list.on_response(&resp), Some(Addr::new(50, 0, 0, 1, 5000)));
    }

    #[test]
    fn duplicate_success_selects_once() {
        let remote_addr = Addr::new(50, 0, 0, 1, 5000);
        let mut b = agent(5000, 10);
        b.add_host_candidate(remote_addr);
        let (mut list, check) = list_with_first_check(&b, 11);
        let resp = Message::binding_success(check.transaction_id, Addr::new(9, 9, 9, 9, 1));
        assert_eq!(list.on_response(&resp), Some(remote_addr));
        // Duplicate transaction: ignored.
        assert_eq!(list.on_response(&resp), None);
    }

    /// Retransmits re-probe every candidate with fresh transaction ids,
    /// and stop once a pair is selected.
    #[test]
    fn retransmits_stop_after_selection() {
        let mut b = agent(5000, 15);
        b.add_host_candidate(Addr::new(50, 0, 0, 1, 5000));
        b.add_host_candidate(Addr::new(60, 0, 0, 1, 5000));
        let mut list = CheckList::new(b.local_description(fp(5)), SimRng::seed(16));
        let first = list.start("me");
        let again = list.retransmit("me");
        assert_eq!((first.len(), again.len()), (2, 2));
        let (_, a) = decode(&first[0]);
        let (_, b) = decode(&again[0]);
        assert_ne!(a.transaction_id, b.transaction_id);
        let resp = Message::binding_success(b.transaction_id, Addr::new(9, 9, 9, 9, 1));
        assert!(list.on_response(&resp).is_some());
        assert!(list.retransmit("me").is_empty());
    }
}
