//! The network fabric at scale: a world of 100k public hosts plus NATed
//! hosts, one frame to each, every delivery and every wire source checked.
//! One registration takes more than a /16 holds, so its hosts span two
//! route blocks.

use bytes::Bytes;
use pdn_simnet::{
    Addr, Event, GeoInfo, IpClass, LinkSpec, NatKind, Network, NodeId, SendOutcome, Transport,
};

const PUBLIC_HOSTS: u32 = 100_000;
const NATS: u32 = 1_000;
const HOSTS_PER_NAT: u32 = 4;

fn registration(i: u32) -> GeoInfo {
    const OTHERS: [(&str, &str); 5] = [
        ("DE", "AS3320"),
        ("BR", "AS28573"),
        ("JP", "AS4713"),
        ("IN", "AS45609"),
        ("GB", "AS2856"),
    ];
    if i % 10 < 7 {
        GeoInfo::new("US", 1, "AS7922")
    } else {
        let (country, isp) = OTHERS[(i % 5) as usize];
        GeoInfo::new(country, (1 + i % 3) as u16, isp)
    }
}

fn tag(node: NodeId) -> Bytes {
    Bytes::copy_from_slice(&node.0.to_le_bytes())
}

fn untag(payload: &[u8]) -> NodeId {
    NodeId(u32::from_le_bytes(payload.try_into().expect("4-byte tag")))
}

#[test]
fn every_host_of_a_100k_world_gets_its_frame() {
    let mut net: Network = Network::new(5);
    let server = net.add_public_host(GeoInfo::new("US", 1, "AS-SRV"), LinkSpec::datacenter());
    let public: Vec<NodeId> = (0..PUBLIC_HOSTS)
        .map(|i| net.add_public_host(registration(i), LinkSpec::residential()))
        .collect();
    let kinds = [
        NatKind::FullCone,
        NatKind::RestrictedCone,
        NatKind::PortRestrictedCone,
        NatKind::Symmetric,
    ];
    let mut natted = Vec::new();
    for n in 0..NATS {
        let geo = registration(n);
        let nat = net.add_nat(kinds[(n % 4) as usize], &geo);
        for _ in 0..HOSTS_PER_NAT {
            natted.push(net.add_host_behind(nat, geo.clone(), LinkSpec::residential()));
        }
    }
    let prefixes: std::collections::BTreeSet<[u8; 2]> = public
        .iter()
        .filter(|&&h| net.geo(h).country == "US")
        .map(|&h| {
            let [a, b, _, _] = net.ip(h).octets();
            [a, b]
        })
        .collect();
    assert_eq!(prefixes.len(), 2, "the US registration spans two /16s");

    net.set_capture(true);
    let server_addr = Addr::from_ip(net.ip(server), 443);
    // NATed hosts speak first, opening their mappings; the server sees
    // each one from its NAT's public IP.
    for &c in &natted {
        let out = net.send(c, 5000, server_addr, Transport::Tcp, tag(c));
        assert!(matches!(out, SendOutcome::Sent { .. }));
    }
    let mut mapped = Vec::new();
    while let Some((_, ev)) = net.step() {
        let Event::Packet { to, dgram } = ev else {
            panic!("unexpected event {ev:?}");
        };
        let who = untag(&dgram.payload);
        assert_eq!(to, server);
        assert_eq!(dgram.src.ip, net.public_ip(who));
        assert_eq!(dgram.dst, server_addr);
        mapped.push((who, dgram.src));
    }
    assert_eq!(mapped.len(), natted.len());

    // Then the server sends one frame to every public host and one reply
    // to every mapping.
    for &h in &public {
        let dst = Addr::from_ip(net.ip(h), 80);
        let out = net.send(server, 443, dst, Transport::Tcp, tag(h));
        assert!(matches!(out, SendOutcome::Sent { .. }));
    }
    for &(c, dst) in &mapped {
        let out = net.send(server, 443, dst, Transport::Tcp, tag(c));
        assert!(matches!(out, SendOutcome::Sent { .. }));
    }
    let mut delivered = vec![0u32; 1 + public.len() + natted.len()];
    while let Some((_, ev)) = net.step() {
        let Event::Packet { to, dgram } = ev else {
            panic!("unexpected event {ev:?}");
        };
        let who = untag(&dgram.payload);
        assert_eq!(to, who);
        let port = if natted.contains(&who) { 5000 } else { 80 };
        assert_eq!(dgram.dst, Addr::from_ip(net.ip(who), port));
        assert_eq!(dgram.src, server_addr);
        delivered[who.0 as usize] += 1;
    }
    for &h in public.iter().chain(&natted) {
        assert_eq!(delivered[h.0 as usize], 1, "{h} got one frame");
    }

    // Wire sources: the server's own address outbound; a NATed host's
    // NAT IP, never its private address.
    let frames = net.capture();
    assert_eq!(frames.len(), public.len() + 2 * natted.len());
    for f in frames {
        assert_eq!(IpClass::of(f.src.ip), IpClass::Public);
        let who = untag(&f.payload);
        if f.dst == server_addr {
            assert_eq!(f.src.ip, net.public_ip(who));
            assert_ne!(f.src.ip, net.ip(who));
        } else {
            assert_eq!(f.src, server_addr);
        }
    }
}
