//! # pdn-webrtc
//!
//! A from-scratch, sans-IO WebRTC substrate for the `stealthy-peers`
//! framework: STUN codec (RFC 5389 subset), ICE agent (RFC 8445 subset),
//! certificate fingerprints + simulated DTLS with an AES-128-GCM record
//! layer (WebRTC's mandatory cipher, RFC 8827 §6.5), message-oriented data
//! channels, and a TURN relay (RFC 5766 subset).
//!
//! The paper's findings live at exactly these protocol layers:
//!
//! - the **dynamic PDN detector** (§III-C) recognises PDN traffic as
//!   *plain-text STUN binding requests followed by a DTLS handshake*
//!   ([`stun::is_stun`], [`dtls::is_dtls`]);
//! - the **IP leak** (§IV-D) is the candidate exchange of ICE
//!   ([`ice::CheckList::remote`]);
//! - the **content protections** the pollution attack must evade are DTLS
//!   encryption and fingerprint authentication ([`dtls`]);
//! - the **privacy mitigation** (§V-C) is TURN relaying ([`turn`]).
//!
//! Everything is sans-IO: state machines consume bytes and emit bytes, and
//! the `pdn-simnet` fabric carries them, keeping every run deterministic.
//!
//! # Examples
//!
//! ```
//! use pdn_simnet::SimRng;
//! use pdn_webrtc::{Certificate, DataChannel, DtlsEndpoint, dtls};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SimRng::seed(7);
//! let client_cert = Certificate::generate(&mut rng);
//! let server_cert = Certificate::generate(&mut rng);
//!
//! // Fingerprints are exchanged over signaling, then verified in-band.
//! let (mut client, hello) =
//!     DtlsEndpoint::client(client_cert, Some(server_cert.fingerprint()), &mut rng);
//! let mut server = DtlsEndpoint::server(server_cert, None, &mut rng);
//! dtls::handshake(&mut client, hello, &mut server, &mut rng)?;
//!
//! let (mut tx, mut rx) = (DataChannel::new(client), DataChannel::new(server));
//! let records = tx.send_message(&[b"video segment chunk"])?;
//! let message = rx.receive_record(&records[0])?.expect("a one-record message");
//! assert_eq!(&message[..], b"video segment chunk");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod dtls;
pub mod ice;
pub mod sdp;
pub mod stun;
pub mod turn;

mod cert;

pub use cert::{Certificate, Fingerprint};
pub use channel::DataChannel;
pub use dtls::{DtlsEndpoint, DtlsError};
pub use ice::{CheckList, IceAgent, IceEvent};
pub use sdp::{Candidate, CandidateKind, SessionDescription};
pub use turn::{TurnAction, TurnServer};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::dtls::seal_record;
    use bytes::Bytes;
    use pdn_simnet::{Addr, SimRng};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// STUN encode/decode round-trips arbitrary attribute sets.
        #[test]
        fn stun_roundtrip(
            txid in any::<[u8; 12]>(),
            user in "[a-zA-Z0-9:]{1,40}",
            port in any::<u16>(),
            ip in any::<[u8; 4]>(),
            prio in any::<u32>(),
        ) {
            use stun::{Attribute, Message};
            let addr = Addr::new(ip[0], ip[1], ip[2], ip[3], port);
            let m = Message::binding_request(txid)
                .with(Attribute::Username(user.clone()))
                .with(Attribute::XorMappedAddress(addr))
                .with(Attribute::Priority(prio));
            let back = Message::decode(&m.encode()).unwrap();
            prop_assert_eq!(back.transaction_id, txid);
            prop_assert_eq!(back.username(), Some(user.as_str()));
            prop_assert_eq!(back.mapped_address(), Some(addr));
        }

        /// Every DTLS payload round-trips; every single-bit corruption of a
        /// record is rejected.
        #[test]
        fn dtls_roundtrip_and_tamper(seed in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 1..2048), flip in any::<usize>()) {
            let mut rng = SimRng::seed(seed);
            let cc = Certificate::generate(&mut rng);
            let sc = Certificate::generate(&mut rng);
            let (mut c, hello) = DtlsEndpoint::client(cc, Some(sc.fingerprint()), &mut rng);
            let mut s = DtlsEndpoint::server(sc, None, &mut rng);
            dtls::handshake(&mut c, hello, &mut s, &mut rng).unwrap();
            let rec = seal_record(&mut c, &payload).unwrap();
            let mut tampered = rec.to_vec();
            let bit = flip % (tampered.len() * 8);
            tampered[bit / 8] ^= 1 << (bit % 8);
            // A tampered record must never decrypt successfully.
            prop_assert!(s.open(&tampered).is_err());
            // The original still decrypts afterwards.
            prop_assert_eq!(&s.open(&rec).unwrap()[..], payload.as_slice());
        }

        /// Anti-replay: across an arbitrary interleaving of records, each
        /// record decrypts exactly once; duplicates always fail.
        #[test]
        fn replay_window_exactly_once(
            seed in any::<u64>(),
            order in proptest::collection::vec(0usize..24, 1..96),
        ) {
            let mut rng = SimRng::seed(seed);
            let cc = Certificate::generate(&mut rng);
            let sc = Certificate::generate(&mut rng);
            let (mut c, hello) = DtlsEndpoint::client(cc, None, &mut rng);
            let mut s = DtlsEndpoint::server(sc, None, &mut rng);
            dtls::handshake(&mut c, hello, &mut s, &mut rng).unwrap();
            let records: Vec<_> = (0..24u8).map(|i| seal_record(&mut c, &[i]).unwrap()).collect();
            let mut opened = [false; 24];
            for idx in order {
                match s.open(&records[idx]) {
                    Ok(pt) => {
                        prop_assert!(!opened[idx], "record {idx} decrypted twice");
                        prop_assert_eq!(&pt[..], &[idx as u8]);
                        opened[idx] = true;
                    }
                    Err(e) => prop_assert_eq!(e, DtlsError::Replay),
                }
            }
        }

        /// Data-channel chunking reassembles arbitrary payloads delivered in
        /// order.
        #[test]
        fn channel_reassembly(seed in any::<u64>(), len in 0usize..200_000) {
            let mut rng = SimRng::seed(seed);
            let cc = Certificate::generate(&mut rng);
            let sc = Certificate::generate(&mut rng);
            let (mut c, hello) = DtlsEndpoint::client(cc, None, &mut rng);
            let mut s = DtlsEndpoint::server(sc, None, &mut rng);
            dtls::handshake(&mut c, hello, &mut s, &mut rng).unwrap();
            let mut tx = DataChannel::new(c);
            let mut rx = DataChannel::new(s);
            let payload: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
            let recs = tx.send_message(&[&payload]).unwrap();
            let mut out = None;
            for r in &recs {
                if let Some(m) = rx.receive_record(r).unwrap() {
                    out = Some(m);
                }
            }
            prop_assert_eq!(out, Some(Bytes::from(payload)));
        }
    }
}
