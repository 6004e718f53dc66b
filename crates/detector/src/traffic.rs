//! Capture-based PDN traffic detection (§III-C "Detecting PDN traffic").
//!
//! "Our approach is based upon the observation that PDN utilizes the
//! plain-text STUN protocol to exchange IP information between peers …
//! we captured its network traffic, from which STUN binding requests can be
//! easily identified along with IP addresses of candidate peers. As WebRTC
//! enforces a DTLS handshake between peers, we then checked all the DTLS
//! connections that typically follow the STUN binding requests. If a DTLS
//! connection is observed between known candidate peer pairs, we consider
//! the respective website or app a confirmed PDN customer."
//!
//! [`analyze_capture`] implements exactly that rule over simulator frames —
//! the same function serves the large-scale detector and the PDN analyzer's
//! per-experiment verdicts.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use pdn_simnet::{Addr, CapturedFrame};
use pdn_webrtc::{dtls, stun};

/// What the capture analysis found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Number of STUN binding requests seen.
    pub stun_binding_requests: usize,
    /// Candidate peer transport addresses learned from STUN traffic
    /// (sources, destinations, and mapped addresses), infra excluded.
    pub candidate_peers: BTreeSet<Addr>,
    /// DTLS flows observed between candidate peers.
    pub dtls_pairs: BTreeSet<(Addr, Addr)>,
    /// Total DTLS frames seen, whether or not between candidates (relayed
    /// WebRTC shows DTLS but never a candidate pair).
    pub dtls_frames: usize,
    /// The §III-C verdict: a DTLS connection between known candidates.
    pub pdn_confirmed: bool,
    /// Distinct candidate-peer IPs (the §IV-D harvest).
    pub peer_ips: BTreeSet<Ipv4Addr>,
}

/// Analyzes a packet capture; `infra` lists server IPs (STUN, signaling,
/// CDN, TURN) that must not be mistaken for peers.
pub fn analyze_capture(frames: &[CapturedFrame], infra: &[Ipv4Addr]) -> TrafficReport {
    let is_infra = |a: &Addr| infra.contains(&a.ip);
    let mut report = TrafficReport::default();

    for f in frames {
        if !stun::is_stun(&f.payload) {
            continue;
        }
        let Ok(msg) = stun::Message::decode(&f.payload) else {
            continue;
        };
        if msg.class == stun::Class::Request && msg.method == stun::Method::Binding {
            report.stun_binding_requests += 1;
        }
        for addr in [f.src, f.dst].into_iter().chain(msg.mapped_address()) {
            if !is_infra(&addr) {
                report.candidate_peers.insert(addr);
            }
        }
    }

    for f in frames {
        if !dtls::is_dtls(&f.payload) {
            continue;
        }
        report.dtls_frames += 1;
        let pair_known =
            report.candidate_peers.contains(&f.src) && report.candidate_peers.contains(&f.dst);
        if pair_known && !is_infra(&f.src) && !is_infra(&f.dst) {
            let pair = if f.src <= f.dst {
                (f.src, f.dst)
            } else {
                (f.dst, f.src)
            };
            report.dtls_pairs.insert(pair);
        }
    }

    report.pdn_confirmed = !report.dtls_pairs.is_empty();
    report.peer_ips = report.candidate_peers.iter().map(|a| a.ip).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pdn_simnet::{SimTime, Transport};

    fn frame(src: Addr, dst: Addr, payload: Bytes) -> CapturedFrame {
        CapturedFrame {
            at: SimTime::ZERO,
            src,
            dst,
            transport: Transport::Udp,
            payload,
        }
    }

    fn dtls_record() -> Bytes {
        // Minimal application-data-looking record: content type + version.
        Bytes::from_static(&[23, 0xfe, 0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xaa])
    }

    #[test]
    fn stun_then_dtls_confirms_pdn() {
        let peer_a = Addr::new(20, 0, 0, 1, 4000);
        let peer_b = Addr::new(20, 0, 0, 2, 4000);
        let stun_srv = Addr::new(30, 0, 0, 1, 3478);
        let frames = vec![
            frame(
                peer_a,
                stun_srv,
                stun::Message::binding_request([1; 12]).encode(),
            ),
            frame(
                stun_srv,
                peer_a,
                stun::Message::binding_success([1; 12], peer_a).encode(),
            ),
            frame(
                peer_a,
                peer_b,
                stun::Message::binding_request([2; 12]).encode(),
            ),
            frame(
                peer_b,
                peer_a,
                stun::Message::binding_success([2; 12], peer_a).encode(),
            ),
            frame(peer_a, peer_b, dtls_record()),
        ];
        let report = analyze_capture(&frames, &[stun_srv.ip]);
        assert!(report.pdn_confirmed);
        assert!(report.stun_binding_requests >= 2);
        assert!(report.candidate_peers.contains(&peer_b));
        assert!(!report.peer_ips.contains(&stun_srv.ip), "infra excluded");
        assert!(report.peer_ips.contains(&peer_b.ip));
    }

    #[test]
    fn stun_alone_is_not_confirmed() {
        // WebRTC-based tracking: STUN to a server, no peer DTLS (§III-D).
        let peer = Addr::new(20, 0, 0, 1, 4000);
        let tracker = Addr::new(31, 0, 0, 1, 3478);
        let frames = vec![frame(
            peer,
            tracker,
            stun::Message::binding_request([1; 12]).encode(),
        )];
        let report = analyze_capture(&frames, &[]);
        assert!(!report.pdn_confirmed);
        assert_eq!(report.stun_binding_requests, 1);
    }

    #[test]
    fn dtls_to_unknown_endpoint_not_confirmed() {
        // A DTLS flow with no preceding STUN candidates (e.g. plain HTTPS
        // misclassified) must not confirm.
        let a = Addr::new(20, 0, 0, 1, 4000);
        let b = Addr::new(20, 0, 0, 2, 4000);
        let frames = vec![frame(a, b, dtls_record())];
        let report = analyze_capture(&frames, &[]);
        assert!(!report.pdn_confirmed);
    }

    #[test]
    fn http_noise_ignored() {
        let a = Addr::new(20, 0, 0, 1, 2000);
        let cdn = Addr::new(30, 0, 0, 2, 80);
        let frames = vec![
            frame(a, cdn, Bytes::from_static(b"HTP|\x03some-request")),
            frame(cdn, a, Bytes::from_static(b"HTP|\x66payload")),
        ];
        let report = analyze_capture(&frames, &[cdn.ip]);
        assert_eq!(report.stun_binding_requests, 0);
        assert!(report.candidate_peers.is_empty());
        assert!(!report.pdn_confirmed);
    }

    fn stun_pair(a: Addr, b: Addr) -> [CapturedFrame; 2] {
        [
            frame(a, b, stun::Message::binding_request([1; 12]).encode()),
            frame(b, a, stun::Message::binding_success([1; 12], a).encode()),
        ]
    }

    /// Both directions of one DTLS flow make a single pair.
    #[test]
    fn dtls_pairs_are_unordered() {
        let a = Addr::new(20, 0, 0, 1, 4000);
        let b = Addr::new(20, 0, 0, 2, 4000);
        let mut frames = stun_pair(a, b).to_vec();
        frames.push(frame(b, a, dtls_record()));
        frames.push(frame(a, b, dtls_record()));
        let report = analyze_capture(&frames, &[]);
        assert_eq!(report.dtls_pairs.len(), 1);
        assert!(report.dtls_pairs.contains(&(a, b)));
        assert_eq!(report.dtls_frames, 2);
    }

    /// Relayed WebRTC: DTLS flows only to the TURN server, so frames are
    /// counted but nothing is confirmed and no peer IP is learned.
    #[test]
    fn relayed_dtls_is_counted_but_not_confirmed() {
        let peer = Addr::new(20, 0, 0, 1, 4000);
        let turn = Addr::new(50, 0, 0, 1, 3478);
        let mut frames = stun_pair(peer, turn).to_vec();
        frames.push(frame(peer, turn, dtls_record()));
        let report = analyze_capture(&frames, &[turn.ip]);
        assert_eq!(report.dtls_frames, 1);
        assert!(!report.pdn_confirmed);
        assert_eq!(report.peer_ips.into_iter().collect::<Vec<_>>(), [peer.ip]);
    }

    /// A binding response's mapped address is harvested even when it
    /// never appears as a frame endpoint (the NAT's public side).
    #[test]
    fn mapped_address_is_harvested() {
        let private = Addr::new(192, 168, 1, 5, 4000);
        let public = Addr::new(77, 1, 2, 3, 50_000);
        let stun_srv = Addr::new(30, 0, 0, 1, 3478);
        let frames = vec![frame(
            stun_srv,
            private,
            stun::Message::binding_success([1; 12], public).encode(),
        )];
        let report = analyze_capture(&frames, &[stun_srv.ip]);
        assert!(report.candidate_peers.contains(&public));
        assert!(report.peer_ips.contains(&private.ip));
        assert_eq!(
            report.stun_binding_requests, 0,
            "responses are not requests"
        );
    }

    #[test]
    fn empty_capture() {
        let report = analyze_capture(&[], &[]);
        assert!(!report.pdn_confirmed);
        assert!(report.peer_ips.is_empty());
    }
}
