//! # pdn-simnet
//!
//! A deterministic discrete-event network simulator standing in for the
//! Internet + Docker substrate of the paper's PDN analyzer (§IV-A).
//!
//! The simulator transports opaque datagrams between simulated hosts with
//! realistic latency, bandwidth contention, packet loss, and NAT behaviour.
//! It exposes the three interposition points the PDN analyzer is built on:
//!
//! - **frame capture** like `tcpdump` on `docker0` ([`Network::capture`]);
//! - **MITM taps** like the analyzer's proxy server ([`Network::install_tap`]);
//! - **per-node resource stats** like the Docker Engine API
//!   ([`Network::resources`], [`ResourceModel`]).
//!
//! Protocol logic (STUN/ICE/DTLS, HLS, PDN signaling) lives in the crates
//! layered on top: `pdn-webrtc`, `pdn-media`, `pdn-provider`.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use pdn_simnet::{Addr, GeoInfo, LinkSpec, Network, Event, Transport};
//!
//! let mut net = Network::new(42);
//! let a = net.add_public_host(GeoInfo::new("US", 1, "AS1"), LinkSpec::residential());
//! let b = net.add_public_host(GeoInfo::new("US", 1, "AS1"), LinkSpec::residential());
//!
//! let dst = Addr::from_ip(net.ip(b), 8080);
//! net.send(a, 5000, dst, Transport::Udp, Bytes::from_static(b"ping"));
//!
//! if let Some((at, Event::Packet { to, dgram })) = net.step() {
//!     assert_eq!(to, b);
//!     assert_eq!(&dgram.payload[..], b"ping");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod arrival;
pub mod fxhash;
mod geo;
mod hist;
mod nat;
mod net;
pub mod profile;
mod queue;
mod resources;
mod rng;
mod route;
pub mod shard;
mod time;
pub mod wire;

pub use addr::{Addr, IpClass};
pub use arrival::{PoissonArrivals, RatePlan};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, Interner};
pub use geo::{continent_of, Continent, CountryCode, CountryMix, GeoInfo, GeoIpService};
pub use hist::{LatencyHistogram, RELATIVE_ERROR, SUB_BUCKETS};
pub use nat::{Nat, NatKind};
pub use net::{
    CaptureFilter, CapturedFrame, Datagram, DropReason, Event, LinkSpec, NatId, Network, NodeId,
    SendOutcome, TapDirection, TapFn, TapVerdict, TimerId, Transport, DEFAULT_CAPTURE_LIMIT,
};
pub use queue::{CalendarQueue, EventId, EventQueue, EventQueueStats};
pub use resources::{series_to_csv, ResourceModel, ResourceSample, ResourceSummary};
pub use rng::{splitmix64_finalize, SimRng};
pub use time::SimTime;
#[cfg(test)]
mod prop_tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Delivery time is always strictly after send time, regardless of
        /// payload size or link speeds.
        #[test]
        fn delivery_never_in_the_past(
            seed in any::<u64>(),
            len in 0usize..100_000,
            up in 1_000_000u64..1_000_000_000,
            down in 1_000_000u64..1_000_000_000,
        ) {
            let mut net = Network::new(seed);
            let link = LinkSpec { up_bps: up, down_bps: down, loss: 0.0, ..LinkSpec::residential() };
            let a = net.add_public_host(GeoInfo::new("US", 1, "AS1"), link);
            let b = net.add_public_host(GeoInfo::new("US", 1, "AS1"), link);
            let dst = Addr::from_ip(net.ip(b), 80);
            let before = net.now();
            if let SendOutcome::Sent { deliver_at } =
                net.send(a, 1, dst, Transport::Tcp, Bytes::from(vec![0u8; len]))
            {
                prop_assert!(deliver_at > before);
            } else {
                prop_assert!(false, "tcp send with zero loss must be scheduled");
            }
        }

        /// Events always pop in non-decreasing time order.
        #[test]
        fn event_order_monotone(seed in any::<u64>(), n in 1usize..50) {
            let mut net = Network::new(seed);
            let a = net.add_public_host(GeoInfo::new("US", 1, "AS1"), LinkSpec::residential());
            let b = net.add_public_host(GeoInfo::new("DE", 1, "AS2"), LinkSpec::residential());
            let dst = Addr::from_ip(net.ip(b), 80);
            for i in 0..n {
                net.send(a, 1, dst, Transport::Tcp, Bytes::from(vec![0u8; i * 100]));
                net.set_timer(a, std::time::Duration::from_millis((n - i) as u64 * 7), i as u64);
            }
            let mut last = SimTime::ZERO;
            while let Some((at, _)) = net.step() {
                prop_assert!(at >= last);
                last = at;
            }
        }

        /// NAT egress/ingress consistency: a reply to any observed mapping
        /// from the exact remote endpoint always reaches the internal host.
        #[test]
        fn nat_reply_path_always_works(
            kind_idx in 0usize..4,
            flows in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..40),
        ) {
            let kind = [
                NatKind::FullCone,
                NatKind::RestrictedCone,
                NatKind::PortRestrictedCone,
                NatKind::Symmetric,
            ][kind_idx];
            let mut nat = Nat::new(kind, std::net::Ipv4Addr::new(5, 5, 5, 5));
            for (host, local_port, remote_port) in flows {
                let internal = Addr::new(192, 168, 1, host.max(2), local_port.max(1));
                let remote = Addr::new(9, 9, 9, host ^ 0x55, remote_port.max(1));
                let mapped = nat.egress(internal, remote);
                prop_assert_eq!(nat.ingress(mapped.port, remote), Some(internal));
            }
        }

        /// NAT'd hosts never expose their private IP on the wire.
        #[test]
        fn natted_wire_source_is_public(seed in any::<u64>()) {
            let mut net = Network::new(seed);
            let geo = GeoInfo::new("CN", 1, "AS4134");
            let server = net.add_public_host(geo.clone(), LinkSpec::datacenter());
            let nat = net.add_nat(NatKind::FullCone, &geo);
            let client = net.add_host_behind(nat, geo, LinkSpec::residential());
            net.set_capture(true);
            let dst = Addr::from_ip(net.ip(server), 443);
            net.send(client, 999, dst, Transport::Tcp, Bytes::from_static(b"x"));
            for f in net.capture() {
                prop_assert_eq!(IpClass::of(f.src.ip), IpClass::Public);
            }
        }
    }
}
