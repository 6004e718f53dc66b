//! Peer-privacy mitigations (§V-C): TURN relaying and matching policies.
//!
//! The matching-policy evaluation lives in [`crate::ip_leak::run_wild`]
//! (re-run under [`pdn_provider::MatchingPolicy::SameCountry`]); this
//! module evaluates the *fundamental* fix — relaying all peer traffic
//! through TURN so peers never learn each other's addresses — and its
//! cost: every relayed byte crosses the relay twice.

use bytes::Bytes;
use pdn_simnet::{Addr, SimRng};
use pdn_webrtc::stun::{Attribute, Message};
use pdn_webrtc::turn::{allocate_request, send_indication, TurnAction, TurnServer};

/// Result of the TURN-relay privacy evaluation.
#[derive(Debug, Clone)]
pub struct TurnEvaluation {
    /// Both peers exchanged application payloads.
    pub data_flowed: bool,
    /// Neither peer observed the other's transport address.
    pub no_peer_address_exposed: bool,
    /// Bytes that crossed the relay (the §V-C overhead concern).
    pub relay_bytes: u64,
    /// Bytes of application payload delivered end to end.
    pub payload_bytes: u64,
}

impl TurnEvaluation {
    /// Relay amplification: relay bytes per delivered payload byte.
    pub fn overhead_factor(&self) -> f64 {
        self.relay_bytes as f64 / self.payload_bytes.max(1) as f64
    }
}

fn extract_relayed(resp: &[u8]) -> Option<Addr> {
    let msg = Message::decode(resp).ok()?;
    msg.attributes.iter().find_map(|a| match a {
        Attribute::XorRelayedAddress(r) => Some(*r),
        _ => None,
    })
}

fn extract_data(ind: &[u8]) -> Option<(Addr, Bytes)> {
    let msg = Message::decode(ind).ok()?;
    let from = msg.attributes.iter().find_map(|a| match a {
        Attribute::XorPeerAddress(p) => Some(*p),
        _ => None,
    })?;
    let data = msg.attributes.iter().find_map(|a| match a {
        Attribute::Data(d) => Some(d.clone()),
        _ => None,
    })?;
    Some((from, data))
}

/// Runs two peers through a TURN relay: allocate, exchange payloads via
/// Send/Data indications, and check what each peer learned about the other.
pub fn evaluate_turn_relay(payloads: usize, payload_len: usize, seed: u64) -> TurnEvaluation {
    let mut rng = SimRng::seed(seed);
    let mut turn = TurnServer::new(std::net::Ipv4Addr::new(44, 4, 4, 4));
    let alice = Addr::new(9, 1, 1, 1, 6000);
    let bob = Addr::new(9, 2, 2, 2, 6000);

    // Allocations.
    let allocate = |turn: &mut TurnServer, client: Addr, rng: &mut SimRng| {
        let mut txid = [0u8; 12];
        txid[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        let acts = turn.handle_packet(client, &allocate_request(txid));
        let TurnAction::SendTo { data, .. } = &acts[0];
        extract_relayed(data).expect("allocation grants a relayed address")
    };
    let alice_relay = allocate(&mut turn, alice, &mut rng);
    let bob_relay = allocate(&mut turn, bob, &mut rng);

    // Peers exchange payloads addressed to each other's *relayed* address.
    let mut addresses_seen_by_alice = Vec::new();
    let mut addresses_seen_by_bob = Vec::new();
    let mut payload_bytes = 0u64;
    let mut data_flowed = true;
    for i in 0..payloads {
        let body = Bytes::from(vec![i as u8; payload_len]);
        payload_bytes += body.len() as u64;
        let mut txid = [0u8; 12];
        txid[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        let (sender, target, seen) = if i % 2 == 0 {
            (alice, bob_relay, &mut addresses_seen_by_bob)
        } else {
            (bob, alice_relay, &mut addresses_seen_by_alice)
        };
        let acts = turn.handle_packet(sender, &send_indication(txid, target, body.clone()));
        // The relay emits toward the *relayed* address; hairpin it to the
        // owning client (what the world harness does for in-relay pairs).
        let mut delivered = false;
        for TurnAction::SendTo { to, data } in &acts {
            if to.ip == turn_ip(&turn) {
                if let Some(owner) = turn.owner_of(to.port) {
                    let _ = owner;
                }
            }
            if let Some((from, payload)) = extract_data(data) {
                seen.push(from);
                delivered = payload == body;
            }
        }
        data_flowed &= delivered;
    }

    let exposed = addresses_seen_by_alice.iter().any(|a| a.ip == bob.ip)
        || addresses_seen_by_bob.iter().any(|a| a.ip == alice.ip);

    TurnEvaluation {
        data_flowed,
        no_peer_address_exposed: !exposed,
        relay_bytes: turn.relayed_bytes(),
        payload_bytes,
    }
}

fn turn_ip(_t: &TurnServer) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::new(44, 4, 4, 4)
}

/// End-to-end relay-mode evaluation: a full PDN world whose provider
/// relays all P2P via TURN. Returns
/// `(p2p_bytes, relayed_bytes, leaked_real_ips)`.
pub fn evaluate_relay_world(seed: u64) -> (u64, u64, usize) {
    use pdn_provider::world::{PdnWorld, ViewerSpec};
    use pdn_provider::{AgentConfig, CustomerAccount, ProviderProfile};
    use pdn_simnet::SimTime;

    let mut profile = ProviderProfile::peer5();
    profile.relay_via_turn = true;
    let mut world = PdnWorld::new(profile, seed);
    world
        .server_mut()
        .accounts_mut()
        .register(CustomerAccount::new("c", "k", []));
    world.publish_video(pdn_media::VideoSource::vod(
        "v",
        vec![800_000],
        std::time::Duration::from_secs(4),
        15,
    ));
    let mut cfg = AgentConfig::new("v", "k", "site.tv");
    cfg.vod_end = Some(15);
    let a = world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
    world.run_until(SimTime::from_secs(8));
    let b = world.spawn_viewer(ViewerSpec::residential(cfg));
    world.run_until(SimTime::from_secs(120));

    let (_, p2p_down, _) = world.agent(b).traffic();
    let turn_ip = world.turn_addr().ip;
    let mut leaked = 0usize;
    for v in [a, b] {
        let other = if v == a { b } else { a };
        let other_ip = world.net().public_ip(other);
        for addr in world.agent(v).harvested_addrs() {
            assert_eq!(addr.ip, turn_ip, "only relay addresses are ever seen");
            if addr.ip == other_ip {
                leaked += 1;
            }
        }
    }
    (p2p_down, world.turn().relayed_bytes(), leaked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_world_end_to_end() {
        let (p2p, relayed, leaked) = evaluate_relay_world(91);
        assert!(p2p > 1_000_000, "segments flowed P2P via the relay: {p2p}");
        assert!(relayed >= p2p, "every P2P byte crossed the relay");
        assert_eq!(leaked, 0, "no real peer IP ever exposed");
    }

    #[test]
    fn relay_hides_addresses_and_delivers() {
        let eval = evaluate_turn_relay(10, 1200, 1);
        assert!(eval.data_flowed, "payloads delivered through the relay");
        assert!(
            eval.no_peer_address_exposed,
            "neither peer learned the other's IP"
        );
        assert!(eval.relay_bytes >= eval.payload_bytes);
    }

    #[test]
    fn relay_overhead_is_real() {
        // The §V-C caveat: "peer communications in PDN can incur a large
        // volume of network traffic and thus cause huge overhead to TURN
        // servers".
        let eval = evaluate_turn_relay(50, 16_000, 2);
        assert!(
            eval.overhead_factor() >= 1.0,
            "every payload byte crosses the relay at least once: {}",
            eval.overhead_factor()
        );
    }
}
