//! A TURN relay (RFC 5766 subset) for the peer-privacy mitigation.
//!
//! §V-C of the paper: "a fundamental solution provided by WebRTC is to
//! relay traffic between peers through TURN servers … peers do not
//! communicate directly and thus prevent the peer IP leak risk", at the
//! price of relay bandwidth. [`TurnServer`] implements allocation and
//! forwarding as a sans-IO state machine; the framework's mitigation bench
//! measures both the leak reduction and the relay byte cost.

use std::collections::HashMap;

use bytes::Bytes;
use pdn_simnet::Addr;

use crate::stun::{Attribute, Class, Message, Method};

/// Action emitted by the relay in response to a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum TurnAction {
    /// Send `data` to `to`.
    SendTo {
        /// Destination.
        to: Addr,
        /// Payload.
        data: Bytes,
    },
}

/// A TURN server: allocates relayed ports and forwards indications.
#[derive(Debug)]
pub struct TurnServer {
    public_ip: std::net::Ipv4Addr,
    next_port: u16,
    /// relayed port -> client transport address
    allocations: HashMap<u16, Addr>,
    /// client transport address -> relayed port
    by_client: HashMap<Addr, u16>,
    relayed_bytes: u64,
}

impl TurnServer {
    /// Creates a relay that allocates ports on `public_ip`.
    pub fn new(public_ip: std::net::Ipv4Addr) -> Self {
        TurnServer {
            public_ip,
            next_port: 49_152,
            allocations: HashMap::new(),
            by_client: HashMap::new(),
            relayed_bytes: 0,
        }
    }

    /// Handles a packet arriving at the relay's service port.
    pub fn handle_packet(&mut self, from: Addr, data: &[u8]) -> Vec<TurnAction> {
        let Ok(msg) = Message::decode(data) else {
            return Vec::new();
        };
        match (msg.class, msg.method) {
            (Class::Request, Method::Allocate) => {
                let port = match self.by_client.get(&from) {
                    Some(&p) => p,
                    None => {
                        let p = self.next_port;
                        self.next_port = self.next_port.wrapping_add(1).max(49_152);
                        self.allocations.insert(p, from);
                        self.by_client.insert(from, p);
                        p
                    }
                };
                let relayed = Addr::from_ip(self.public_ip, port);
                let resp = Message::new(Class::Success, Method::Allocate, msg.transaction_id)
                    .with(Attribute::XorRelayedAddress(relayed))
                    .with(Attribute::XorMappedAddress(from));
                vec![TurnAction::SendTo {
                    to: from,
                    data: resp.encode(),
                }]
            }
            (Class::Indication, Method::Send) => {
                // Client asks the relay to forward DATA to XOR-PEER-ADDRESS.
                let Some(peer) = msg.attributes.iter().find_map(|a| match a {
                    Attribute::XorPeerAddress(p) => Some(*p),
                    _ => None,
                }) else {
                    return Vec::new();
                };
                let Some(payload) = msg.attributes.iter().find_map(|a| match a {
                    Attribute::Data(d) => Some(d.clone()),
                    _ => None,
                }) else {
                    return Vec::new();
                };
                // Only clients with an allocation may relay.
                if !self.by_client.contains_key(&from) {
                    return Vec::new();
                }
                self.relayed_bytes += payload.len() as u64;
                // Deliver as a Data indication appearing to come from the
                // relay — the peer never sees the sender's address.
                let relayed_port = self.by_client[&from];
                let ind = Message::new(Class::Indication, Method::Data, msg.transaction_id)
                    .with(Attribute::XorPeerAddress(Addr::from_ip(
                        self.public_ip,
                        relayed_port,
                    )))
                    .with(Attribute::Data(payload));
                vec![TurnAction::SendTo {
                    to: peer,
                    data: ind.encode(),
                }]
            }
            _ => Vec::new(),
        }
    }

    /// Handles a packet arriving at a relayed port from the open Internet:
    /// forward to the owning client as a Data indication.
    pub fn handle_relayed(
        &mut self,
        relayed_port: u16,
        from: Addr,
        data: &[u8],
    ) -> Vec<TurnAction> {
        let Some(&client) = self.allocations.get(&relayed_port) else {
            return Vec::new();
        };
        self.relayed_bytes += data.len() as u64;
        let ind = Message::new(Class::Indication, Method::Data, [0u8; 12])
            .with(Attribute::XorPeerAddress(from))
            .with(Attribute::Data(Bytes::copy_from_slice(data)));
        vec![TurnAction::SendTo {
            to: client,
            data: ind.encode(),
        }]
    }

    /// Total bytes relayed (the overhead cost §V-C warns about).
    pub fn relayed_bytes(&self) -> u64 {
        self.relayed_bytes
    }

    /// The client owning a relayed port (for in-relay hairpin delivery).
    pub fn owner_of(&self, relayed_port: u16) -> Option<Addr> {
        self.allocations.get(&relayed_port).copied()
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.allocations.len()
    }
}

/// Builds the client-side Allocate request.
pub fn allocate_request(txid: [u8; 12]) -> Bytes {
    Message::new(Class::Request, Method::Allocate, txid).encode()
}

/// Builds a client-side Send indication relaying `payload` to `peer`.
pub fn send_indication(txid: [u8; 12], peer: Addr, payload: Bytes) -> Bytes {
    Message::new(Class::Indication, Method::Send, txid)
        .with(Attribute::XorPeerAddress(peer))
        .with(Attribute::Data(payload))
        .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn allocation_returns_relayed_address() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let client = Addr::new(9, 9, 9, 9, 6000);
        let acts = turn.handle_packet(client, &allocate_request([1; 12]));
        assert_eq!(acts.len(), 1);
        let TurnAction::SendTo { to, data } = &acts[0];
        assert_eq!(*to, client);
        let resp = Message::decode(data).unwrap();
        let relayed = resp
            .attributes
            .iter()
            .find_map(|a| match a {
                Attribute::XorRelayedAddress(r) => Some(*r),
                _ => None,
            })
            .unwrap();
        assert_eq!(relayed.ip, Ipv4Addr::new(44, 4, 4, 4));
        assert_eq!(turn.allocation_count(), 1);
    }

    #[test]
    fn repeat_allocation_is_idempotent() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let client = Addr::new(9, 9, 9, 9, 6000);
        turn.handle_packet(client, &allocate_request([1; 12]));
        turn.handle_packet(client, &allocate_request([2; 12]));
        assert_eq!(turn.allocation_count(), 1);
    }

    #[test]
    fn relay_hides_sender_address() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let alice = Addr::new(9, 9, 9, 9, 6000);
        let bob = Addr::new(8, 8, 8, 8, 7000);
        turn.handle_packet(alice, &allocate_request([1; 12]));

        let acts = turn.handle_packet(
            alice,
            &send_indication([2; 12], bob, Bytes::from_static(b"hi")),
        );
        assert_eq!(acts.len(), 1);
        let TurnAction::SendTo { to, data } = &acts[0];
        assert_eq!(*to, bob);
        let ind = Message::decode(data).unwrap();
        // Bob sees the relay's address, never Alice's.
        let src = ind
            .attributes
            .iter()
            .find_map(|a| match a {
                Attribute::XorPeerAddress(p) => Some(*p),
                _ => None,
            })
            .unwrap();
        assert_eq!(src.ip, Ipv4Addr::new(44, 4, 4, 4));
        assert_ne!(src.ip, alice.ip);
        assert_eq!(turn.relayed_bytes(), 2);
    }

    #[test]
    fn unallocated_client_cannot_relay() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let rogue = Addr::new(6, 6, 6, 6, 1);
        let acts = turn.handle_packet(
            rogue,
            &send_indication([1; 12], Addr::new(8, 8, 8, 8, 1), Bytes::from_static(b"x")),
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn inbound_relayed_traffic_forwarded_to_client() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let client = Addr::new(9, 9, 9, 9, 6000);
        let acts = turn.handle_packet(client, &allocate_request([1; 12]));
        let TurnAction::SendTo { data, .. } = &acts[0];
        let resp = Message::decode(data).unwrap();
        let relayed = resp
            .attributes
            .iter()
            .find_map(|a| match a {
                Attribute::XorRelayedAddress(r) => Some(*r),
                _ => None,
            })
            .unwrap();

        let outside = Addr::new(7, 7, 7, 7, 1234);
        let acts = turn.handle_relayed(relayed.port, outside, b"payload");
        assert_eq!(acts.len(), 1);
        let TurnAction::SendTo { to, .. } = &acts[0];
        assert_eq!(*to, client);
    }

    #[test]
    fn distinct_clients_get_distinct_ports_mapped_back() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let clients = [Addr::new(9, 9, 9, 9, 6000), Addr::new(9, 9, 9, 9, 6001)];
        for c in clients {
            turn.handle_packet(c, &allocate_request([1; 12]));
        }
        assert_eq!(turn.allocation_count(), 2);
        assert_eq!(turn.owner_of(49_152), Some(clients[0]));
        assert_eq!(turn.owner_of(49_153), Some(clients[1]));
        assert_eq!(turn.owner_of(49_154), None);
    }

    #[test]
    fn relayed_bytes_count_both_directions() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let client = Addr::new(9, 9, 9, 9, 6000);
        turn.handle_packet(client, &allocate_request([1; 12]));
        turn.handle_packet(
            client,
            &send_indication([2; 12], Addr::new(8, 8, 8, 8, 1), Bytes::from(vec![0; 100])),
        );
        turn.handle_relayed(49_152, Addr::new(8, 8, 8, 8, 1), &[0; 40]);
        assert_eq!(turn.relayed_bytes(), 140);
    }

    #[test]
    fn inbound_to_an_unallocated_port_is_dropped() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        assert!(turn
            .handle_relayed(49_152, Addr::new(7, 7, 7, 7, 1), b"x")
            .is_empty());
        assert_eq!(turn.relayed_bytes(), 0);
    }

    #[test]
    fn send_indication_without_data_is_dropped() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let client = Addr::new(9, 9, 9, 9, 6000);
        turn.handle_packet(client, &allocate_request([1; 12]));
        let bare = Message::new(Class::Indication, Method::Send, [2; 12])
            .with(Attribute::XorPeerAddress(Addr::new(8, 8, 8, 8, 1)))
            .encode();
        assert!(turn.handle_packet(client, &bare).is_empty());
        assert_eq!(turn.relayed_bytes(), 0);
    }

    #[test]
    fn non_turn_traffic_gets_no_answer() {
        let mut turn = TurnServer::new(Ipv4Addr::new(44, 4, 4, 4));
        let client = Addr::new(9, 9, 9, 9, 6000);
        let binding = Message::binding_request([1; 12]).encode();
        assert!(turn.handle_packet(client, &binding).is_empty());
        assert!(turn.handle_packet(client, b"not stun").is_empty());
        assert_eq!(turn.allocation_count(), 0);
    }
}
