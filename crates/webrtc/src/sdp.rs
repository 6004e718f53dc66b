//! Session descriptions and ICE candidates.
//!
//! During Internet Connectivity Establishment the PDN SDK shares the peer's
//! network information — candidate IPs and ports — with the PDN server
//! (Figure 1, step 4 of the paper). That is exactly the information whose
//! leakage §IV-D measures: a [`SessionDescription`] carries every candidate
//! address a peer is willing to expose.

use pdn_simnet::Addr;

use crate::cert::Fingerprint;

/// Kind of ICE candidate, ordered by preference.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum CandidateKind {
    /// Relay candidate allocated on a TURN server (least preferred).
    Relay,
    /// Server-reflexive: the NAT mapping observed by a STUN server.
    ServerReflexive,
    /// Host: the peer's own interface address (most preferred; for a NAT'd
    /// host this is a *private* address — the bogons of §IV-D).
    Host,
}

/// One ICE candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Candidate {
    /// Candidate type.
    pub kind: CandidateKind,
    /// Transport address.
    pub addr: Addr,
    /// ICE priority (higher wins).
    pub priority: u32,
}

impl Candidate {
    /// Creates a candidate with the standard type-preference priority
    /// formula (RFC 8445 §5.1.2, component 1).
    pub fn new(kind: CandidateKind, addr: Addr) -> Self {
        let type_pref: u32 = match kind {
            CandidateKind::Host => 126,
            CandidateKind::ServerReflexive => 100,
            CandidateKind::Relay => 0,
        };
        Candidate {
            kind,
            addr,
            priority: (type_pref << 24) | (65_535 << 8) | 255,
        }
    }

    /// Renders the `a=candidate:` SDP line.
    pub fn to_sdp_line(&self) -> String {
        let typ = match self.kind {
            CandidateKind::Host => "host",
            CandidateKind::ServerReflexive => "srflx",
            CandidateKind::Relay => "relay",
        };
        format!(
            "a=candidate:1 1 udp {} {} {} typ {typ}",
            self.priority, self.addr.ip, self.addr.port
        )
    }
}

/// The signaled half of a WebRTC session: ICE credentials, certificate
/// fingerprint, and candidates.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionDescription {
    /// ICE username fragment.
    pub ice_ufrag: String,
    /// ICE password.
    pub ice_pwd: String,
    /// DTLS certificate fingerprint.
    pub fingerprint: Fingerprint,
    /// Candidates gathered so far.
    pub candidates: Vec<Candidate>,
}

impl SessionDescription {
    /// Renders an abbreviated SDP blob (for logging and signature matching).
    pub fn to_sdp(&self) -> String {
        let mut out = String::from("v=0\r\n");
        out.push_str(&format!("a=ice-ufrag:{}\r\n", self.ice_ufrag));
        out.push_str(&format!("a=ice-pwd:{}\r\n", self.ice_pwd));
        out.push_str(&format!("a=fingerprint:sha-256 {}\r\n", self.fingerprint));
        for c in &self.candidates {
            out.push_str(&c.to_sdp_line());
            out.push_str("\r\n");
        }
        out
    }

    /// All candidate addresses (what a malicious peer harvests in the IP
    /// leak attack).
    pub fn candidate_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.candidates.iter().map(|c| c.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_kinds() {
        let host = Candidate::new(CandidateKind::Host, Addr::new(10, 0, 0, 1, 1));
        let srflx = Candidate::new(CandidateKind::ServerReflexive, Addr::new(1, 2, 3, 4, 1));
        let relay = Candidate::new(CandidateKind::Relay, Addr::new(5, 6, 7, 8, 1));
        assert!(host.priority > srflx.priority);
        assert!(srflx.priority > relay.priority);
    }

    #[test]
    fn sdp_rendering_contains_addresses() {
        let mut rng = pdn_simnet::SimRng::seed(1);
        let cert = crate::cert::Certificate::generate(&mut rng);
        let sd = SessionDescription {
            ice_ufrag: "ufrag".into(),
            ice_pwd: "pwd".into(),
            fingerprint: cert.fingerprint(),
            candidates: vec![
                Candidate::new(CandidateKind::Host, Addr::new(10, 0, 0, 7, 4444)),
                Candidate::new(CandidateKind::ServerReflexive, Addr::new(9, 8, 7, 6, 40000)),
            ],
        };
        let sdp = sd.to_sdp();
        assert!(sdp.contains("10.0.0.7 4444 typ host"));
        assert!(sdp.contains("9.8.7.6 40000 typ srflx"));
        assert!(sdp.contains("a=fingerprint:sha-256"));
        assert_eq!(sd.candidate_addrs().count(), 2);
    }

    /// RFC 8445 §5.1.2 with local preference 65535, component 1.
    #[test]
    fn priority_follows_the_rfc_formula() {
        let a = Addr::new(10, 0, 0, 1, 1);
        assert_eq!(
            Candidate::new(CandidateKind::Host, a).priority,
            2_130_706_431
        );
        assert_eq!(
            Candidate::new(CandidateKind::ServerReflexive, a).priority,
            1_694_498_815
        );
        assert_eq!(Candidate::new(CandidateKind::Relay, a).priority, 16_777_215);
    }

    #[test]
    fn candidate_line_layout() {
        let c = Candidate::new(CandidateKind::Relay, Addr::new(50, 0, 0, 1, 49_152));
        assert_eq!(
            c.to_sdp_line(),
            "a=candidate:1 1 udp 16777215 50.0.0.1 49152 typ relay"
        );
    }

    /// Kinds order by preference, so sorting puts host candidates last.
    #[test]
    fn candidate_kinds_order_by_preference() {
        let mut kinds = [
            CandidateKind::Host,
            CandidateKind::Relay,
            CandidateKind::ServerReflexive,
        ];
        kinds.sort();
        assert_eq!(
            kinds,
            [
                CandidateKind::Relay,
                CandidateKind::ServerReflexive,
                CandidateKind::Host
            ]
        );
    }

    #[test]
    fn sdp_without_candidates_has_only_the_session_lines() {
        let mut rng = pdn_simnet::SimRng::seed(3);
        let cert = crate::cert::Certificate::generate(&mut rng);
        let sd = SessionDescription {
            ice_ufrag: "u".into(),
            ice_pwd: "p".into(),
            fingerprint: cert.fingerprint(),
            candidates: Vec::new(),
        };
        let sdp = sd.to_sdp();
        assert_eq!(sdp.lines().count(), 4);
        assert!(sdp.starts_with("v=0\r\na=ice-ufrag:u\r\na=ice-pwd:p\r\n"));
        assert!(!sdp.contains("a=candidate"));
        assert_eq!(sd.candidate_addrs().count(), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = pdn_simnet::SimRng::seed(2);
        let cert = crate::cert::Certificate::generate(&mut rng);
        let sd = SessionDescription {
            ice_ufrag: "u".into(),
            ice_pwd: "p".into(),
            fingerprint: cert.fingerprint(),
            candidates: vec![Candidate::new(
                CandidateKind::Host,
                Addr::new(10, 0, 0, 1, 1),
            )],
        };
        let json = serde_json::to_string(&sd).unwrap();
        let back: SessionDescription = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sd);
    }
}
