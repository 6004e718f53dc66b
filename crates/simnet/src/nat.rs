//! Network address translation boxes.
//!
//! PDN peers sit behind residential NATs, and the STUN/ICE machinery of the
//! WebRTC substrate exists precisely to traverse them. The four classic NAT
//! behaviours are modeled; the paper's bogon observations (§IV-D) arise when
//! traversal errors surface private/CGNAT candidates to remote peers.

use std::collections::HashMap;

use crate::addr::Addr;

/// The classic NAT behaviour taxonomy (RFC 3489 terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NatKind {
    /// Endpoint-independent mapping and filtering: anyone may send to the
    /// mapped address once it exists.
    FullCone,
    /// Endpoint-independent mapping, address-dependent filtering.
    RestrictedCone,
    /// Endpoint-independent mapping, address-and-port-dependent filtering.
    PortRestrictedCone,
    /// Address-and-port-dependent mapping: a new public port per remote
    /// endpoint. Direct hole punching between two of these fails.
    Symmetric,
}

impl NatKind {
    /// Whether hole punching between two NATs of these kinds can succeed
    /// without a relay.
    pub fn traversal_possible(self, other: NatKind) -> bool {
        // Symmetric<->Symmetric and Symmetric<->PortRestrictedCone fail:
        // the symmetric side's mapping toward the STUN server differs from
        // its mapping toward the peer, so the predicted candidate is wrong
        // and a port-restricted filter drops the unexpected source.
        !matches!(
            (self, other),
            (NatKind::Symmetric, NatKind::Symmetric)
                | (NatKind::Symmetric, NatKind::PortRestrictedCone)
                | (NatKind::PortRestrictedCone, NatKind::Symmetric)
        )
    }
}

/// Key identifying a mapping on the private side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MapKey {
    internal: Addr,
    /// For symmetric NATs, the remote endpoint; unused otherwise.
    remote: Option<Addr>,
}

/// A stateful NAT box translating between a private realm and one public IP.
#[derive(Debug)]
pub struct Nat {
    kind: NatKind,
    public_ip: std::net::Ipv4Addr,
    next_port: u16,
    outbound: HashMap<MapKey, u16>,
    /// public port -> internal address owning the mapping
    inbound: HashMap<u16, Addr>,
    /// (public port, remote) pairs the internal host has contacted,
    /// for filtering decisions.
    contacted: HashMap<u16, Vec<Addr>>,
}

impl Nat {
    /// Creates a NAT of the given behaviour owning `public_ip`.
    pub fn new(kind: NatKind, public_ip: std::net::Ipv4Addr) -> Self {
        Nat {
            kind,
            public_ip,
            next_port: 40_000,
            outbound: HashMap::new(),
            inbound: HashMap::new(),
            contacted: HashMap::new(),
        }
    }

    /// The NAT's public IP.
    pub fn public_ip(&self) -> std::net::Ipv4Addr {
        self.public_ip
    }

    /// Translates an outbound packet from `internal` toward `remote`,
    /// creating a mapping if needed. Returns the public source address.
    pub fn egress(&mut self, internal: Addr, remote: Addr) -> Addr {
        let key = match self.kind {
            NatKind::Symmetric => MapKey {
                internal,
                remote: Some(remote),
            },
            _ => MapKey {
                internal,
                remote: None,
            },
        };
        let port = match self.outbound.get(&key) {
            Some(&p) => p,
            None => {
                let p = self.next_port;
                self.next_port = self.next_port.wrapping_add(1).max(40_000);
                self.outbound.insert(key, p);
                self.inbound.insert(p, internal);
                p
            }
        };
        self.contacted.entry(port).or_default().push(remote);
        Addr::from_ip(self.public_ip, port)
    }

    /// Translates an inbound packet addressed to public `port` from `remote`.
    ///
    /// Returns the internal destination if the NAT's filtering policy admits
    /// the packet, `None` if it is dropped.
    pub fn ingress(&self, port: u16, remote: Addr) -> Option<Addr> {
        let internal = *self.inbound.get(&port)?;
        let contacted = self.contacted.get(&port);
        let admitted = match self.kind {
            NatKind::FullCone => true,
            NatKind::RestrictedCone => contacted
                .map(|v| v.iter().any(|a| a.ip == remote.ip))
                .unwrap_or(false),
            NatKind::PortRestrictedCone | NatKind::Symmetric => {
                contacted.map(|v| v.contains(&remote)).unwrap_or(false)
            }
        };
        admitted.then_some(internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(d: u8, port: u16) -> Addr {
        Addr::new(9, 9, 9, d, port)
    }

    fn internal(port: u16) -> Addr {
        Addr::new(192, 168, 1, 10, port)
    }

    #[test]
    fn full_cone_reuses_mapping_and_admits_anyone() {
        let mut nat = Nat::new(NatKind::FullCone, Ipv4Addr::new(5, 5, 5, 5));
        let pub1 = nat.egress(internal(1000), addr(1, 80));
        let pub2 = nat.egress(internal(1000), addr(2, 80));
        assert_eq!(pub1, pub2, "endpoint-independent mapping");
        // A third party that was never contacted may reach the mapping.
        assert_eq!(nat.ingress(pub1.port, addr(3, 9)), Some(internal(1000)));
    }

    #[test]
    fn restricted_cone_filters_by_ip() {
        let mut nat = Nat::new(NatKind::RestrictedCone, Ipv4Addr::new(5, 5, 5, 5));
        let p = nat.egress(internal(1000), addr(1, 80));
        // Same IP, different port: admitted.
        assert!(nat.ingress(p.port, addr(1, 9999)).is_some());
        // Different IP: dropped.
        assert!(nat.ingress(p.port, addr(2, 80)).is_none());
    }

    #[test]
    fn port_restricted_cone_filters_by_ip_and_port() {
        let mut nat = Nat::new(NatKind::PortRestrictedCone, Ipv4Addr::new(5, 5, 5, 5));
        let p = nat.egress(internal(1000), addr(1, 80));
        assert!(nat.ingress(p.port, addr(1, 80)).is_some());
        assert!(nat.ingress(p.port, addr(1, 81)).is_none());
    }

    #[test]
    fn symmetric_mapping_differs_per_remote() {
        let mut nat = Nat::new(NatKind::Symmetric, Ipv4Addr::new(5, 5, 5, 5));
        let p1 = nat.egress(internal(1000), addr(1, 80));
        let p2 = nat.egress(internal(1000), addr(2, 80));
        assert_ne!(p1.port, p2.port, "address-dependent mapping");
        // Each mapping only admits its own remote.
        assert!(nat.ingress(p1.port, addr(1, 80)).is_some());
        assert!(nat.ingress(p1.port, addr(2, 80)).is_none());
    }

    #[test]
    fn unknown_port_dropped() {
        let nat = Nat::new(NatKind::FullCone, Ipv4Addr::new(5, 5, 5, 5));
        assert!(nat.ingress(12345, addr(1, 80)).is_none());
    }

    #[test]
    fn traversal_matrix() {
        use NatKind::*;
        assert!(FullCone.traversal_possible(Symmetric));
        assert!(RestrictedCone.traversal_possible(Symmetric));
        assert!(!Symmetric.traversal_possible(Symmetric));
        assert!(!Symmetric.traversal_possible(PortRestrictedCone));
        assert!(!PortRestrictedCone.traversal_possible(Symmetric));
        assert!(PortRestrictedCone.traversal_possible(PortRestrictedCone));
    }

    #[test]
    fn distinct_internal_hosts_get_distinct_ports() {
        let mut nat = Nat::new(NatKind::FullCone, Ipv4Addr::new(5, 5, 5, 5));
        let p1 = nat.egress(Addr::new(192, 168, 1, 10, 1000), addr(1, 80));
        let p2 = nat.egress(Addr::new(192, 168, 1, 11, 1000), addr(1, 80));
        assert_ne!(p1.port, p2.port);
    }
}
