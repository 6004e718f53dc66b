//! Constant-time route lookup for the per-datagram hot path.
//!
//! Every datagram resolves its destination IP, and every new host or NAT
//! adds a route, so both must take a fixed number of steps at 100 hosts and
//! at 100k. The address plan makes a two-level table fit: the registry hands
//! out public hosts sequentially inside /16 blocks and the private 10/8
//! realm is numbered sequentially, so each /16 in use is a dense run of
//! low-16-bit host numbers. [`RouteTable`] keys a small hash map by the
//! /16 prefix and indexes a dense vector by the low 16 bits: insert is an
//! amortized push, lookup is one probe of a map with one entry per block
//! plus one index.

use std::net::Ipv4Addr;

use crate::fxhash::FxHashMap;
use crate::net::NodeId;

/// Where a public IP leads: a host that owns it, or a NAT box (by index)
/// that translates it into its private realm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    Host(NodeId),
    Nat(u32),
}

/// A map from IPv4 address to route target: /16 prefix → dense vector of
/// the block's hosts by low 16 bits.
#[derive(Debug)]
pub(crate) struct RouteTable<V> {
    blocks: FxHashMap<u16, Vec<Option<V>>>,
}

impl<V: Copy> RouteTable<V> {
    /// Creates an empty table (allocates nothing).
    pub(crate) fn new() -> Self {
        RouteTable {
            blocks: FxHashMap::default(),
        }
    }

    fn split(ip: Ipv4Addr) -> (u16, usize) {
        let [a, b, c, d] = ip.octets();
        (
            u16::from_be_bytes([a, b]),
            usize::from(u16::from_be_bytes([c, d])),
        )
    }

    /// Inserts a route, returning the previous target for `ip` if any.
    pub(crate) fn insert(&mut self, ip: Ipv4Addr, target: V) -> Option<V> {
        let (prefix, host) = Self::split(ip);
        let block = self.blocks.entry(prefix).or_default();
        if block.len() <= host {
            block.resize(host + 1, None);
        }
        block[host].replace(target)
    }

    /// Looks up the route target for `ip`.
    #[inline]
    pub(crate) fn get(&self, ip: Ipv4Addr) -> Option<&V> {
        let (prefix, host) = Self::split(ip);
        self.blocks.get(&prefix)?.get(host)?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap as HashMap;
    use proptest::prelude::*;

    #[test]
    fn insert_get_replace() {
        let mut t = RouteTable::new();
        assert_eq!(t.insert(Ipv4Addr::new(10, 0, 0, 2), 7u32), None);
        assert_eq!(t.insert(Ipv4Addr::new(10, 0, 0, 1), 5), None);
        assert_eq!(t.insert(Ipv4Addr::new(203, 0, 113, 9), 9), None);
        assert_eq!(t.get(Ipv4Addr::new(10, 0, 0, 1)), Some(&5));
        assert_eq!(t.get(Ipv4Addr::new(10, 0, 0, 2)), Some(&7));
        assert_eq!(t.get(Ipv4Addr::new(10, 0, 0, 3)), None);
        assert_eq!(t.get(Ipv4Addr::new(10, 0, 0, 0)), None);
        assert_eq!(t.get(Ipv4Addr::new(10, 1, 0, 1)), None);
        assert_eq!(t.insert(Ipv4Addr::new(10, 0, 0, 1), 6), Some(5));
        assert_eq!(t.get(Ipv4Addr::new(10, 0, 0, 1)), Some(&6));
    }

    /// The first and last host of a /16 share one block; the block
    /// grows to the highest host inserted and no further.
    #[test]
    fn block_edges_route_independently() {
        let mut t = RouteTable::new();
        assert_eq!(t.insert(Ipv4Addr::new(10, 7, 255, 255), 2u32), None);
        assert_eq!(t.insert(Ipv4Addr::new(10, 7, 0, 0), 1), None);
        assert_eq!(t.get(Ipv4Addr::new(10, 7, 0, 0)), Some(&1));
        assert_eq!(t.get(Ipv4Addr::new(10, 7, 255, 255)), Some(&2));
        assert_eq!(t.get(Ipv4Addr::new(10, 7, 128, 0)), None);
        assert_eq!(t.get(Ipv4Addr::new(10, 8, 0, 0)), None);
        assert_eq!(t.blocks.len(), 1);
        assert_eq!(t.blocks[&(10 << 8 | 7)].len(), 65_536);
    }

    #[test]
    fn route_slots_fit_the_old_entry_size() {
        // The sorted-vector table this replaced spent 24 B per route.
        assert!(std::mem::size_of::<Option<Route>>() <= 8);
        assert!(std::mem::size_of::<Option<NodeId>>() <= 8);
    }

    /// Public blocks sit in registry space (11.0/16 upward, plus a block
    /// far away); private ones in the 10/8 realm.
    fn addr(private: bool, block: u16, host: u16) -> Ipv4Addr {
        let prefix = if private {
            (10 << 8) | block
        } else {
            [11 << 8, (11 << 8) | 1, (11 << 8) | 2, 203 << 8, 93 << 8][usize::from(block)]
        };
        Ipv4Addr::from((u32::from(prefix) << 16) | u32::from(host))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Public (host and NAT targets) and private tables agree with a
        /// hash-map reference on every insert's return value and on every
        /// probe, hit or miss, under interleaved insert/replace/lookup.
        /// Each op inserts (or replaces) one route, then probes an address
        /// that may or may not be routed: probe block 4 is never inserted,
        /// and neither is any host above 599.
        #[test]
        fn agrees_with_hashmap_reference(
            ops in proptest::collection::vec(
                (
                    (any::<bool>(), 0u16..4, 0u16..600, any::<bool>()),
                    (0u32..1_000, 0u16..5, 0u16..700),
                ),
                1..400,
            )
        ) {
            let mut public = RouteTable::new();
            let mut private = RouteTable::new();
            let mut public_ref: HashMap<Ipv4Addr, Route> = HashMap::default();
            let mut private_ref: HashMap<Ipv4Addr, NodeId> = HashMap::default();
            for ((is_private, block, host, nat), (target, probe_block, probe_host)) in ops {
                let ip = addr(is_private, block, host);
                if is_private {
                    let node = NodeId(target);
                    prop_assert_eq!(private.insert(ip, node), private_ref.insert(ip, node));
                } else {
                    let route = if nat { Route::Nat(target) } else { Route::Host(NodeId(target)) };
                    prop_assert_eq!(public.insert(ip, route), public_ref.insert(ip, route));
                }
                for private_probe in [false, true] {
                    let probe = addr(private_probe, probe_block, probe_host);
                    prop_assert_eq!(public.get(probe), public_ref.get(&probe));
                    prop_assert_eq!(private.get(probe), private_ref.get(&probe));
                }
            }
            for (ip, route) in &public_ref {
                prop_assert_eq!(public.get(*ip), Some(route));
            }
            for (ip, node) in &private_ref {
                prop_assert_eq!(private.get(*ip), Some(node));
            }
        }
    }
}
