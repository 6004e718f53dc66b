//! A simulated DTLS layer: fingerprint-authenticated handshake and an
//! AES-128-GCM record layer.
//!
//! **This is not real DTLS.** It reproduces the *security properties* the
//! paper's analysis depends on (RFC 8826, §IV-C of the paper):
//!
//! - peer-to-peer payloads are confidential against passive capture (the
//!   dynamic detector can see *that* a DTLS connection exists — content
//!   type + version bytes are in clear — but not read segment bytes);
//! - each side authenticates the other against the certificate fingerprint
//!   signaled over the (TLS-protected) signaling channel, so a classic MITM
//!   with a different certificate is detected;
//! - records are integrity-protected and replay-rejected.
//!
//! Key agreement is a toy Diffie-Hellman over the Mersenne prime `2^61-1`
//! — adequate for a simulation whose adversaries are *inside* the model,
//! never for real use. The record cipher is the real one: AES-128-GCM
//! ([`pdn_crypto::aes_gcm`]), the AEAD of WebRTC's mandatory cipher suite
//! `TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256` (RFC 8827 §6.5).
//!
//! # Record layer
//!
//! An application-data record is `header ‖ ciphertext ‖ tag`: a 13-byte
//! header (content type, version, 8-byte sequence number, length), the
//! ciphertext (as long as the plaintext) and the full 16-byte GCM tag.
//!
//! - **Keys, one per direction.** Key derivation yields a 32-byte
//!   `"client write"` and `"server write"` secret; bytes 0..16 of each are
//!   that direction's AES-128 key and bytes 16..20 its 4-byte salt. An
//!   endpoint seals under its own direction's key and opens under its
//!   peer's, so a record reflected back to its sender fails authentication.
//! - **Nonce** = salt ‖ the record's 8-byte big-endian sequence number.
//! - **AAD** = the 13-byte header exactly as sent, so type, version,
//!   sequence number and length are all authenticated.
//! - **No explicit nonce.** Real DTLS 1.2 GCM records (RFC 5288 §3) carry
//!   an 8-byte explicit nonce after the header. Here the header's sequence
//!   number, never reused within a direction, is the per-record part of
//!   the nonce, so a record stays `13 + plaintext + 16` bytes: the record
//!   sizes every simulated delivery time, and so every paper table, is
//!   computed from.
//! - The `"record mac"` HMAC key authenticates only the Finished messages.
//!
//! Opening decrypts speculatively into the caller's buffer and releases the
//! plaintext only after the tag (compared in constant time) and the
//! anti-replay window both pass.
//!
//! # Record fast path
//!
//! Every peer-served byte crosses this layer, so each byte passes through
//! memory once per side:
//!
//! - [`DtlsEndpoint::seal_with`] encrypts each piece of a record's
//!   plaintext straight onto the end of a buffer of exactly the record's
//!   size, and [`DtlsEndpoint::open`] decrypts into a buffer of exactly the
//!   plaintext's size; no path stages the bytes in a second buffer (the
//!   data channel's exact allocation counts are pinned by its
//!   `channel_alloc` test);
//! - the AES key schedule and the GHASH key material are expanded once per
//!   session, into boxed session keys (one allocation per handshake, none
//!   per record, and the endpoint stays small inline);
//! - on CPUs with AES-NI and PCLMULQDQ the cipher keeps eight blocks in
//!   flight and reduces GHASH once per 128 bytes; with AVX-512, VAES and
//!   VPCLMULQDQ it runs sixteen blocks per 256-byte stride first;
//! - the data channel seals each record straight from the message's parts
//!   (`seal_with` hands a [`RecordWriter`] that encrypts each piece onto
//!   the record buffer), and opens each record straight into its
//!   reassembly slot (the crate-private `DtlsEndpoint::open_record` streams
//!   the plaintext to the destinations the channel picks, and its `finish`
//!   runs the tag and replay checks).
//!
//! The pre-AES record path (a SHA-256 keystream plus a per-record HMAC)
//! lives on as a test oracle in the `pdn-oracle` crate, the baseline
//! `crypto_bench` times this layer against.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_crypto::aes_gcm::{self, Aes128Gcm};
use pdn_crypto::hmac::{hmac_sha256_keyed, HmacKey};
use pdn_crypto::sha256::Sha256;
use pdn_simnet::SimRng;

use crate::cert::{Certificate, Fingerprint};

const DH_P: u128 = (1u128 << 61) - 1;
const DH_G: u128 = 3;

const CT_HANDSHAKE: u8 = 22;
const CT_APPDATA: u8 = 23;
const VERSION: [u8; 2] = [0xfe, 0xfd]; // DTLS 1.2

const HS_CLIENT_HELLO: u8 = 1;
const HS_SERVER_HELLO: u8 = 2;
const HS_CLIENT_FINISHED: u8 = 20;

/// Application-data record header: type (1) + version (2) + seq (8) + len (2).
const HEADER_LEN: usize = 13;

/// GCM tag length appended to each record.
const TAG_LEN: usize = aes_gcm::TAG_LEN;

/// Maximum plaintext bytes per record (TLS limit; larger messages are
/// chunked by the data-channel layer).
pub const MAX_RECORD_PLAINTEXT: usize = 16_384;

fn modpow(mut base: u128, mut exp: u64, modulus: u128) -> u128 {
    let mut acc = 1u128;
    base %= modulus;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % modulus;
        }
        base = base * base % modulus;
        exp >>= 1;
    }
    acc
}

/// Errors surfaced by the DTLS endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtlsError {
    /// Malformed or unexpected handshake message.
    Handshake(&'static str),
    /// The peer's certificate fingerprint did not match the signaled one.
    FingerprintMismatch,
    /// A record failed authentication.
    BadRecord,
    /// A record's sequence number was not fresh (replay).
    Replay,
    /// Plaintext exceeded the maximum record size ([`MAX_RECORD_PLAINTEXT`]).
    Oversize,
    /// Operation requires an established session.
    NotEstablished,
}

impl std::fmt::Display for DtlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtlsError::Handshake(m) => write!(f, "handshake failure: {m}"),
            DtlsError::FingerprintMismatch => write!(f, "certificate fingerprint mismatch"),
            DtlsError::BadRecord => write!(f, "record authentication failed"),
            DtlsError::Replay => write!(f, "replayed or reordered record"),
            DtlsError::NotEstablished => write!(f, "session not established"),
            DtlsError::Oversize => write!(f, "plaintext exceeds maximum record size"),
        }
    }
}

impl std::error::Error for DtlsError {}

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates the handshake (sends ClientHello).
    Client,
    /// Responds to a ClientHello.
    Server,
}

#[derive(Debug)]
enum State {
    /// Client: hello sent, awaiting ServerHello.
    AwaitServerHello {
        client_hello: Vec<u8>,
    },
    /// Server: awaiting ClientHello.
    AwaitClientHello,
    /// Server: hello sent, awaiting client Finished.
    AwaitClientFinished {
        transcript: [u8; 32],
    },
    Established,
    Failed,
}

/// A sans-IO DTLS endpoint. Feed it wire bytes, collect wire bytes.
#[derive(Debug)]
pub struct DtlsEndpoint {
    role: Role,
    cert: Certificate,
    expected_peer: Option<Fingerprint>,
    dh_secret: u64,
    state: State,
    /// Session keys once derived; boxed so the expanded AES-GCM contexts
    /// stay off the endpoint's inline size.
    keys: Option<Box<SessionKeys>>,
    send_seq: u64,
    replay: ReplayWindow,
    /// Last handshake flight sent, re-sent on duplicate requests (UDP loss
    /// recovery).
    last_flight: Option<Bytes>,
}

/// Anti-replay sliding window (RFC 6347 §4.1.2.6 style): accepts reordered
/// records within the window, rejects duplicates and stale records.
#[derive(Debug, Default)]
struct ReplayWindow {
    max: Option<u64>,
    /// Bit `i` set means `max - i` was received.
    bitmap: u64,
}

impl ReplayWindow {
    fn check_and_update(&mut self, seq: u64) -> bool {
        match self.max {
            None => {
                self.max = Some(seq);
                self.bitmap = 1;
                true
            }
            Some(max) if seq > max => {
                let shift = seq - max;
                self.bitmap = if shift >= 64 {
                    1
                } else {
                    (self.bitmap << shift) | 1
                };
                self.max = Some(seq);
                true
            }
            Some(max) => {
                let offset = max - seq;
                if offset >= 64 {
                    return false; // too old
                }
                let bit = 1u64 << offset;
                if self.bitmap & bit != 0 {
                    return false; // duplicate
                }
                self.bitmap |= bit;
                true
            }
        }
    }
}

/// One direction's record key: the expanded AES-128-GCM key and the
/// 4-byte salt that prefixes every nonce.
#[derive(Debug)]
struct RecordKey {
    gcm: Aes128Gcm,
    salt: [u8; 4],
}

impl RecordKey {
    /// Splits a 32-byte write secret into key (bytes 0..16) and salt
    /// (bytes 16..20).
    fn new(write: &[u8; 32]) -> Self {
        RecordKey {
            gcm: Aes128Gcm::new(write[..16].try_into().expect("16-byte key")),
            salt: write[16..20].try_into().expect("4-byte salt"),
        }
    }

    /// The nonce of record `seq`: salt ‖ seq (big-endian).
    fn nonce(&self, seq: u64) -> [u8; aes_gcm::NONCE_LEN] {
        let mut n = [0u8; aes_gcm::NONCE_LEN];
        n[..4].copy_from_slice(&self.salt);
        n[4..].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// The header of record `seq` carrying a `len`-byte plaintext, and
    /// the stream that seals the plaintext under it (the header is the
    /// AAD).
    fn sealing(&self, seq: u64, len: usize) -> ([u8; HEADER_LEN], aes_gcm::SealStream<'_>) {
        let mut header = [0u8; HEADER_LEN];
        header[0] = CT_APPDATA;
        header[1..3].copy_from_slice(&VERSION);
        header[3..11].copy_from_slice(&seq.to_be_bytes());
        header[11..].copy_from_slice(&((len + TAG_LEN) as u16).to_be_bytes());
        let stream = self.gcm.sealing(&self.nonce(seq), &header);
        (header, stream)
    }
}

/// The plaintext side of a record being sealed: each [`Self::put`] is
/// encrypted straight onto the end of the record buffer.
pub struct RecordWriter<'a> {
    stream: aes_gcm::SealStream<'a>,
    out: &'a mut Vec<u8>,
}

impl RecordWriter<'_> {
    /// Appends the next plaintext bytes, encrypted.
    pub fn put(&mut self, plaintext: &[u8]) {
        self.stream.append(plaintext, self.out);
    }
}

/// A record whose header checked out, being opened: its plaintext streams,
/// in order, to whatever destinations the caller picks, and nothing of it
/// is authentic until [`Plaintext::finish`] accepts it.
pub(crate) struct OpenRecord<'a> {
    stream: aes_gcm::OpenStream<'a>,
    /// The ciphertext not yet streamed.
    rest: &'a [u8],
    tag: &'a [u8],
    seq: u64,
    replay: &'a mut ReplayWindow,
    state: &'a mut State,
}

/// A chunk of plaintext read front to back: a record being opened
/// (decrypted as it is read, judged at [`Plaintext::finish`]) or a frame
/// already in plaintext.
pub(crate) trait Plaintext {
    /// Bytes not yet read.
    fn remaining(&self) -> usize;
    /// Reads the next `dst.len()` bytes into `dst`.
    fn read(&mut self, dst: &mut [u8]);
    /// Reads the next `n` bytes onto the end of `out`.
    fn append(&mut self, n: usize, out: &mut Vec<u8>);
    /// Accepts or refuses the whole plaintext; what was not read only
    /// counts towards the verdict.
    fn finish(self) -> Result<(), DtlsError>;
}

impl<'a> OpenRecord<'a> {
    /// The next `n` ciphertext bytes.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (now, rest) = self.rest.split_at(n);
        self.rest = rest;
        now
    }
}

impl Plaintext for OpenRecord<'_> {
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn read(&mut self, dst: &mut [u8]) {
        let src = self.take(dst.len());
        self.stream.update(src, dst);
    }

    fn append(&mut self, n: usize, out: &mut Vec<u8>) {
        let src = self.take(n);
        self.stream.append(src, out);
    }

    /// Authenticates the record: GHASH over whatever was not read (no
    /// output), the tag, then the replay window. Only when both accept
    /// does the record count as received (and complete a handshake that
    /// awaited only the client's Finished): [`DtlsError::BadRecord`] on a
    /// bad tag, [`DtlsError::Replay`] for a sequence number the window
    /// refuses.
    fn finish(mut self) -> Result<(), DtlsError> {
        let rest = self.take(self.rest.len());
        self.stream.verify(rest);
        if !self.stream.finish(self.tag) {
            return Err(DtlsError::BadRecord);
        }
        if !self.replay.check_and_update(self.seq) {
            return Err(DtlsError::Replay);
        }
        if matches!(self.state, State::AwaitClientFinished { .. }) {
            *self.state = State::Established;
        }
        Ok(())
    }
}

impl Plaintext for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn read(&mut self, dst: &mut [u8]) {
        let (now, rest) = self.split_at(dst.len());
        dst.copy_from_slice(now);
        *self = rest;
    }

    fn append(&mut self, n: usize, out: &mut Vec<u8>) {
        let (now, rest) = self.split_at(n);
        out.extend_from_slice(now);
        *self = rest;
    }

    fn finish(self) -> Result<(), DtlsError> {
        Ok(())
    }
}

#[derive(Debug)]
struct SessionKeys {
    client: RecordKey,
    server: RecordKey,
    /// Finished-message MAC key (ipad/opad midstates cached).
    mac: HmacKey,
}

impl SessionKeys {
    /// The key `role` seals its own records with.
    fn sealing(&self, role: Role) -> &RecordKey {
        match role {
            Role::Client => &self.client,
            Role::Server => &self.server,
        }
    }

    /// The key `role` opens its peer's records with.
    fn opening(&self, role: Role) -> &RecordKey {
        match role {
            Role::Client => &self.server,
            Role::Server => &self.client,
        }
    }
}

impl DtlsEndpoint {
    /// Creates a client endpoint and its ClientHello flight.
    ///
    /// `expected_peer` is the fingerprint learned from signaling; pass
    /// `None` to model an endpoint that (unsafely) skips verification.
    pub fn client(
        cert: Certificate,
        expected_peer: Option<Fingerprint>,
        rng: &mut SimRng,
    ) -> (Self, Bytes) {
        let dh_secret = rng.next_u64() % ((DH_P - 1) as u64) + 1;
        let dh_pub = modpow(DH_G, dh_secret, DH_P) as u64;
        let mut random = [0u8; 32];
        fill(&mut random, rng);

        let mut hello = BytesMut::new();
        hello.put_u8(CT_HANDSHAKE);
        hello.put_slice(&VERSION);
        hello.put_u8(HS_CLIENT_HELLO);
        hello.put_slice(&random);
        hello.put_u64(dh_pub);
        hello.put_slice(&cert.fingerprint().0);
        let hello = hello.freeze();

        (
            DtlsEndpoint {
                role: Role::Client,
                cert,
                expected_peer,
                dh_secret,
                state: State::AwaitServerHello {
                    client_hello: hello.to_vec(),
                },
                keys: None,
                send_seq: 0,
                replay: ReplayWindow::default(),
                last_flight: None,
            },
            hello,
        )
    }

    /// Creates a server endpoint awaiting a ClientHello.
    pub fn server(cert: Certificate, expected_peer: Option<Fingerprint>, rng: &mut SimRng) -> Self {
        let dh_secret = rng.next_u64() % ((DH_P - 1) as u64) + 1;
        DtlsEndpoint {
            role: Role::Server,
            cert,
            expected_peer,
            dh_secret,
            state: State::AwaitClientHello,
            keys: None,
            send_seq: 0,
            replay: ReplayWindow::default(),
            last_flight: None,
        }
    }

    /// Whether the handshake completed.
    pub fn is_established(&self) -> bool {
        matches!(self.state, State::Established)
    }

    /// Processes a handshake record; returns an optional response flight.
    ///
    /// # Errors
    ///
    /// Fails the endpoint on malformed flights or fingerprint mismatch.
    pub fn handle_handshake(
        &mut self,
        data: &[u8],
        rng: &mut SimRng,
    ) -> Result<Option<Bytes>, DtlsError> {
        if data.len() < 4 || data[0] != CT_HANDSHAKE || data[1..3] != VERSION {
            return Err(DtlsError::Handshake("not a handshake record"));
        }
        let msg_type = data[3];
        let body = &data[4..];
        match (&self.state, self.role, msg_type) {
            (State::AwaitClientHello, Role::Server, HS_CLIENT_HELLO) => {
                if body.len() != 32 + 8 + 32 {
                    self.state = State::Failed;
                    return Err(DtlsError::Handshake("bad ClientHello length"));
                }
                let client_random: [u8; 32] = body[..32].try_into().expect("checked");
                let client_pub = u64::from_be_bytes(body[32..40].try_into().expect("checked"));
                let client_fp = Fingerprint(body[40..72].try_into().expect("checked"));
                if let Some(expected) = self.expected_peer {
                    if expected != client_fp {
                        self.state = State::Failed;
                        return Err(DtlsError::FingerprintMismatch);
                    }
                }
                let shared = modpow(client_pub as u128, self.dh_secret, DH_P) as u64;
                let server_pub = modpow(DH_G, self.dh_secret, DH_P) as u64;
                let mut server_random = [0u8; 32];
                fill(&mut server_random, rng);

                let keys = derive_keys(shared, &client_random, &server_random);
                let transcript = transcript_hash(data, &server_random, server_pub);
                let finished = finished_mac(&keys.mac, b"server finished", &transcript);

                let mut out = BytesMut::new();
                out.put_u8(CT_HANDSHAKE);
                out.put_slice(&VERSION);
                out.put_u8(HS_SERVER_HELLO);
                out.put_slice(&server_random);
                out.put_u64(server_pub);
                out.put_slice(&self.cert.fingerprint().0);
                out.put_slice(&finished);

                self.keys = Some(Box::new(keys));
                self.state = State::AwaitClientFinished { transcript };
                let flight = out.freeze();
                self.last_flight = Some(flight.clone());
                Ok(Some(flight))
            }
            (State::AwaitServerHello { client_hello }, Role::Client, HS_SERVER_HELLO) => {
                if body.len() != 32 + 8 + 32 + 32 {
                    self.state = State::Failed;
                    return Err(DtlsError::Handshake("bad ServerHello length"));
                }
                let client_hello = client_hello.clone();
                let server_random: [u8; 32] = body[..32].try_into().expect("checked");
                let server_pub = u64::from_be_bytes(body[32..40].try_into().expect("checked"));
                let server_fp = Fingerprint(body[40..72].try_into().expect("checked"));
                let finished: [u8; 32] = body[72..104].try_into().expect("checked");
                if let Some(expected) = self.expected_peer {
                    if expected != server_fp {
                        self.state = State::Failed;
                        return Err(DtlsError::FingerprintMismatch);
                    }
                }
                let client_random: [u8; 32] = client_hello[4..36].try_into().expect("own hello");
                let shared = modpow(server_pub as u128, self.dh_secret, DH_P) as u64;
                let keys = derive_keys(shared, &client_random, &server_random);
                let transcript = transcript_hash(&client_hello, &server_random, server_pub);
                let expect = finished_mac(&keys.mac, b"server finished", &transcript);
                if !pdn_crypto::ct_eq(&expect, &finished) {
                    self.state = State::Failed;
                    return Err(DtlsError::Handshake("server Finished MAC mismatch"));
                }
                let client_finished = finished_mac(&keys.mac, b"client finished", &transcript);
                let mut out = BytesMut::new();
                out.put_u8(CT_HANDSHAKE);
                out.put_slice(&VERSION);
                out.put_u8(HS_CLIENT_FINISHED);
                out.put_slice(&client_finished);

                // Stash the transcript for server-side verification symmetry.
                self.keys = Some(Box::new(keys));
                self.state = State::Established;
                Ok(Some(out.freeze()))
            }
            (State::AwaitClientFinished { transcript }, Role::Server, HS_CLIENT_FINISHED) => {
                if body.len() != 32 {
                    self.state = State::Failed;
                    return Err(DtlsError::Handshake("bad Finished length"));
                }
                let transcript = *transcript;
                let keys = self.keys.as_ref().expect("keys set at ServerHello");
                let expect = finished_mac(&keys.mac, b"client finished", &transcript);
                if !pdn_crypto::ct_eq(&expect, body) {
                    self.state = State::Failed;
                    return Err(DtlsError::Handshake("client Finished MAC mismatch"));
                }
                self.state = State::Established;
                Ok(None)
            }
            // Loss recovery: a retransmitted ClientHello after our
            // ServerHello means the client never saw it — re-send the same
            // flight (randoms and keys must not change).
            (State::AwaitClientFinished { .. }, Role::Server, HS_CLIENT_HELLO) => {
                Ok(self.last_flight.clone())
            }
            // Duplicates after establishment are harmless.
            (State::Established, _, HS_CLIENT_FINISHED) => Ok(None),
            (State::Established, Role::Server, HS_CLIENT_HELLO) => Ok(None),
            (State::Failed, ..) => Err(DtlsError::Handshake("endpoint already failed")),
            _ => {
                self.state = State::Failed;
                Err(DtlsError::Handshake("unexpected message for state"))
            }
        }
    }

    /// Seals a record of a `len`-byte plaintext that `write` puts in
    /// pieces into `out` (cleared first, then exactly the record's size):
    /// the data channel encrypts a chunk header and a chunk body from the
    /// message's parts straight into the record buffer. `write` must put
    /// exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DtlsError::NotEstablished`] before the handshake
    /// completes, [`DtlsError::Oversize`] beyond [`MAX_RECORD_PLAINTEXT`].
    ///
    /// # Panics
    ///
    /// Panics if `write` puts other than `len` bytes.
    pub fn seal_with(
        &mut self,
        len: usize,
        out: &mut Vec<u8>,
        write: impl FnOnce(&mut RecordWriter<'_>),
    ) -> Result<(), DtlsError> {
        let (header, stream) = self.next_record(len)?;
        out.clear();
        out.reserve_exact(HEADER_LEN + len + TAG_LEN);
        out.extend_from_slice(&header);
        let mut w = RecordWriter { stream, out };
        write(&mut w);
        let RecordWriter { stream, out } = w;
        assert_eq!(
            out.len(),
            HEADER_LEN + len,
            "the plaintext writer must put exactly {len} bytes"
        );
        out.extend_from_slice(&stream.finish());
        Ok(())
    }

    /// Takes the next sequence number for a `len`-byte plaintext: the
    /// record header and the stream that seals the plaintext.
    fn next_record(
        &mut self,
        len: usize,
    ) -> Result<([u8; HEADER_LEN], aes_gcm::SealStream<'_>), DtlsError> {
        if !self.is_established() {
            return Err(DtlsError::NotEstablished);
        }
        if len > MAX_RECORD_PLAINTEXT {
            return Err(DtlsError::Oversize);
        }
        let seq = self.send_seq;
        self.send_seq += 1;
        let keys = self.keys.as_ref().expect("established implies keys");
        Ok(keys.sealing(self.role).sealing(seq, len))
    }

    /// Decrypts an application-data record into a buffer of exactly the
    /// plaintext's size, released only after both the tag and the replay
    /// window accept the record.
    ///
    /// # Errors
    ///
    /// [`DtlsError::BadRecord`] on authentication failure,
    /// [`DtlsError::Replay`] for non-monotonic sequence numbers.
    pub fn open(&mut self, record: &[u8]) -> Result<Bytes, DtlsError> {
        let mut rec = self.open_record(record)?;
        let mut out = Vec::with_capacity(rec.remaining());
        rec.append(rec.remaining(), &mut out);
        rec.finish()?;
        Ok(Bytes::from(out))
    }

    /// Checks `record`'s header and starts opening it; the caller streams
    /// the plaintext where it wants and then calls [`Plaintext::finish`].
    ///
    /// # Errors
    ///
    /// [`DtlsError::NotEstablished`] before the handshake got as far as
    /// the session keys, [`DtlsError::BadRecord`] for a record too short
    /// or of the wrong type or version.
    pub(crate) fn open_record<'a>(
        &'a mut self,
        record: &'a [u8],
    ) -> Result<OpenRecord<'a>, DtlsError> {
        // Implicit handshake completion (cf. DTLS epoch semantics): when
        // only the client's Finished is outstanding, a record that passes
        // authentication proves the peer holds the session keys, so the
        // handshake is complete even if the Finished flight was lost.
        let DtlsEndpoint {
            role,
            state,
            keys,
            replay,
            ..
        } = self;
        let keys = match (&*state, keys) {
            (State::Established | State::AwaitClientFinished { .. }, Some(keys)) => keys,
            _ => return Err(DtlsError::NotEstablished),
        };
        if record.len() < HEADER_LEN + TAG_LEN || record[0] != CT_APPDATA || record[1..3] != VERSION
        {
            return Err(DtlsError::BadRecord);
        }
        let seq = u64::from_be_bytes(record[3..11].try_into().expect("length checked"));
        let (header, rest) = record.split_at(HEADER_LEN);
        let (ciphertext, tag) = rest.split_at(rest.len() - TAG_LEN);
        let key = keys.opening(*role);
        Ok(OpenRecord {
            stream: key.gcm.opening(&key.nonce(seq), header),
            rest: ciphertext,
            tag,
            seq,
            replay,
            state,
        })
    }
}

fn fill(buf: &mut [u8], rng: &mut SimRng) {
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
}

/// Derives the session keys from the DH shared secret and both randoms:
/// the per-direction AES-128-GCM keys and salts and the Finished-MAC key,
/// each expanded here, once per session.
fn derive_keys(shared: u64, client_random: &[u8; 32], server_random: &[u8; 32]) -> SessionKeys {
    let mut h = Sha256::new();
    h.update(&shared.to_be_bytes());
    h.update(client_random);
    h.update(server_random);
    let master = h.finalize();
    let master_key = HmacKey::new(&master);
    let client_write = hmac_sha256_keyed(&master_key, &[b"client write"]);
    let server_write = hmac_sha256_keyed(&master_key, &[b"server write"]);
    let mac_raw = hmac_sha256_keyed(&master_key, &[b"record mac"]);
    SessionKeys {
        client: RecordKey::new(&client_write),
        server: RecordKey::new(&server_write),
        mac: HmacKey::new(&mac_raw),
    }
}

fn transcript_hash(client_hello: &[u8], server_random: &[u8; 32], server_pub: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(client_hello);
    h.update(server_random);
    h.update(&server_pub.to_be_bytes());
    h.finalize()
}

/// Finished MAC over `label || transcript`, scatter-gather under the
/// session MAC key — no concatenation buffer.
fn finished_mac(mac_key: &HmacKey, label: &[u8], transcript: &[u8; 32]) -> [u8; 32] {
    hmac_sha256_keyed(mac_key, &[label, transcript])
}

/// Whether `data` looks like a DTLS record (content type 20–23 and DTLS 1.2
/// version bytes) — the check the dynamic detector runs on captures.
pub fn is_dtls(data: &[u8]) -> bool {
    data.len() >= 3 && (20..=23).contains(&data[0]) && data[1..3] == VERSION
}

/// Runs a complete in-memory handshake between two endpoints (helper for
/// tests and for harness code that does not need per-flight control).
///
/// # Errors
///
/// Propagates the first handshake error.
pub fn handshake(
    client: &mut DtlsEndpoint,
    client_first_flight: Bytes,
    server: &mut DtlsEndpoint,
    rng: &mut SimRng,
) -> Result<(), DtlsError> {
    let server_flight = server
        .handle_handshake(&client_first_flight, rng)?
        .ok_or(DtlsError::Handshake("server produced no flight"))?;
    let client_flight = client
        .handle_handshake(&server_flight, rng)?
        .ok_or(DtlsError::Handshake("client produced no flight"))?;
    server.handle_handshake(&client_flight, rng)?;
    Ok(())
}

/// Seals `plaintext` into one record: [`DtlsEndpoint::seal_with`] in one
/// call, for tests.
#[cfg(test)]
pub(crate) fn seal_record(ep: &mut DtlsEndpoint, plaintext: &[u8]) -> Result<Bytes, DtlsError> {
    let mut out = Vec::new();
    ep.seal_with(plaintext.len(), &mut out, |w| w.put(plaintext))?;
    Ok(Bytes::from(out))
}

fn _assert_send() {
    fn check<T: Send>() {}
    check::<DtlsEndpoint>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(verify: bool) -> (DtlsEndpoint, DtlsEndpoint) {
        let mut rng = SimRng::seed(33);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let (cfp, sfp) = (ccert.fingerprint(), scert.fingerprint());
        let (mut c, hello) = DtlsEndpoint::client(ccert, verify.then_some(sfp), &mut rng);
        let mut s = DtlsEndpoint::server(scert, verify.then_some(cfp), &mut rng);
        handshake(&mut c, hello, &mut s, &mut rng).expect("handshake");
        (c, s)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (c, s) = pair(true);
        assert!(c.is_established());
        assert!(s.is_established());
    }

    #[test]
    fn data_roundtrip_both_directions() {
        let (mut c, mut s) = pair(true);
        let rec = seal_record(&mut c, b"segment bytes").unwrap();
        assert!(is_dtls(&rec));
        assert_eq!(&s.open(&rec).unwrap()[..], b"segment bytes");
        let rec = seal_record(&mut s, b"reply").unwrap();
        assert_eq!(&c.open(&rec).unwrap()[..], b"reply");
    }

    /// Runs the handshake flight by flight and re-derives both directions'
    /// write secrets from the wire flights and the client's DH secret, the
    /// way an independent implementation would.
    fn pair_with_write_secrets() -> (DtlsEndpoint, DtlsEndpoint, [u8; 32], [u8; 32]) {
        let mut rng = SimRng::seed(33);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let (mut c, hello) = DtlsEndpoint::client(ccert, None, &mut rng);
        let mut s = DtlsEndpoint::server(scert, None, &mut rng);
        let sh = s.handle_handshake(&hello, &mut rng).unwrap().unwrap();
        let fin = c.handle_handshake(&sh, &mut rng).unwrap().unwrap();
        s.handle_handshake(&fin, &mut rng).unwrap();

        let server_pub = u64::from_be_bytes(sh[36..44].try_into().unwrap());
        let shared = modpow(server_pub as u128, c.dh_secret, DH_P) as u64;
        let mut h = Sha256::new();
        h.update(&shared.to_be_bytes());
        h.update(&hello[4..36]);
        h.update(&sh[4..36]);
        let master = h.finalize();
        let client_write = pdn_crypto::hmac::hmac_sha256(&master, b"client write");
        let server_write = pdn_crypto::hmac::hmac_sha256(&master, b"server write");
        (c, s, client_write, server_write)
    }

    #[test]
    fn record_pins_aes_gcm() {
        // A record is header ‖ AES-128-GCM(key = write[..16],
        // nonce = write[16..20] ‖ seq, aad = header, pt) — on both backends,
        // both directions, and every block/tail shape.
        let (mut c, mut s, client_write, server_write) = pair_with_write_secrets();
        for n in [
            0usize, 1, 13, 15, 16, 17, 64, 127, 128, 129, 200, 1200, 4096, 16_383, 16_384,
        ] {
            let plaintext: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            for client_sends in [true, false] {
                let (sender, receiver, write) = if client_sends {
                    (&mut c, &mut s, &client_write)
                } else {
                    (&mut s, &mut c, &server_write)
                };
                let seq = sender.send_seq;
                let rec = seal_record(sender, &plaintext).unwrap();

                let mut header = vec![CT_APPDATA, VERSION[0], VERSION[1]];
                header.extend_from_slice(&seq.to_be_bytes());
                header.extend_from_slice(&((n + TAG_LEN) as u16).to_be_bytes());
                let mut nonce = [0u8; 12];
                nonce[..4].copy_from_slice(&write[16..20]);
                nonce[4..].copy_from_slice(&seq.to_be_bytes());
                let key: &[u8; 16] = write[..16].try_into().unwrap();
                for gcm in [Aes128Gcm::new(key), Aes128Gcm::new_portable(key)] {
                    let mut body = vec![0; n];
                    let mut stream = gcm.sealing(&nonce, &header);
                    stream.update(&plaintext, &mut body);
                    let tag = stream.finish();
                    let want = [&header[..], &body, &tag].concat();
                    assert_eq!(&rec[..], &want[..], "{gcm:?} seal mismatch at n={n}");
                }
                let pt_out = receiver.open(&rec).unwrap();
                assert_eq!(&pt_out[..], &plaintext[..], "open mismatch at n={n}");
            }
        }
    }

    #[test]
    fn reflected_record_rejected() {
        // Each direction has its own key, so a record bounced back to its
        // sender does not authenticate.
        let (mut c, mut s) = pair(true);
        let rec = seal_record(&mut c, b"reflect me").unwrap();
        assert_eq!(c.open(&rec), Err(DtlsError::BadRecord));
        let rec = seal_record(&mut s, b"reflect me too").unwrap();
        assert_eq!(s.open(&rec), Err(DtlsError::BadRecord));
        // The same records still open at their real destination.
        assert_eq!(&c.open(&rec).unwrap()[..], b"reflect me too");
    }

    #[test]
    fn record_length_is_header_plus_plaintext_plus_tag() {
        let (mut c, _s) = pair(true);
        for n in [0usize, 1, 16, 100, 1200, MAX_RECORD_PLAINTEXT] {
            assert_eq!(
                seal_record(&mut c, &vec![7u8; n]).unwrap().len(),
                13 + n + 16
            );
        }
    }

    #[test]
    fn tampered_header_body_or_tag_rejected() {
        // Type and version fail the structural check; seq and length are
        // in the AAD; body and tag fail the GCM tag.
        let (mut c, mut s) = pair(true);
        let rec = seal_record(&mut c, b"authenticated payload").unwrap();
        let len = rec.len();
        for (what, idx) in [
            ("type", 0),
            ("version", 2),
            ("seq", 10),
            ("length", 12),
            ("body", HEADER_LEN + 3),
            ("tag", len - 1),
        ] {
            let mut bad = rec.to_vec();
            bad[idx] ^= 0x01;
            assert_eq!(s.open(&bad), Err(DtlsError::BadRecord), "{what}");
        }
        // None of the rejects consumed the sequence number.
        assert_eq!(&s.open(&rec).unwrap()[..], b"authenticated payload");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut c, _s) = pair(true);
        let plaintext = b"SECRET-VIDEO-SEGMENT-CONTENT";
        let rec = seal_record(&mut c, plaintext).unwrap();
        assert!(!rec
            .windows(plaintext.len())
            .any(|w| w == plaintext.as_slice()));
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut c, mut s) = pair(true);
        let rec = seal_record(&mut c, b"data").unwrap();
        let mut bad = rec.to_vec();
        bad[14] ^= 0x01;
        assert_eq!(s.open(&bad), Err(DtlsError::BadRecord));
    }

    #[test]
    fn replay_rejected() {
        let (mut c, mut s) = pair(true);
        let rec = seal_record(&mut c, b"data").unwrap();
        assert!(s.open(&rec).is_ok());
        assert_eq!(s.open(&rec), Err(DtlsError::Replay));
    }

    #[test]
    fn fingerprint_mismatch_detected() {
        // A MITM presents its own certificate: the client, which expects the
        // fingerprint signaled in SDP, must abort.
        let mut rng = SimRng::seed(44);
        let ccert = Certificate::generate(&mut rng);
        let real_server = Certificate::generate(&mut rng);
        let mitm = Certificate::generate(&mut rng);
        let (mut c, hello) = DtlsEndpoint::client(ccert, Some(real_server.fingerprint()), &mut rng);
        let mut m = DtlsEndpoint::server(mitm, None, &mut rng);
        let flight = m.handle_handshake(&hello, &mut rng).unwrap().unwrap();
        assert_eq!(
            c.handle_handshake(&flight, &mut rng),
            Err(DtlsError::FingerprintMismatch)
        );
        assert!(!c.is_established());
    }

    #[test]
    fn no_verification_accepts_anyone() {
        // Endpoints that skip verification (None) interoperate with any
        // certificate — the unsafe configuration the paper warns about.
        let (c, s) = pair(false);
        assert!(c.is_established() && s.is_established());
    }

    #[test]
    fn seal_before_establishment_fails() {
        let mut rng = SimRng::seed(5);
        let cert = Certificate::generate(&mut rng);
        let (mut c, _hello) = DtlsEndpoint::client(cert, None, &mut rng);
        assert_eq!(seal_record(&mut c, b"x"), Err(DtlsError::NotEstablished));
    }

    #[test]
    fn garbage_handshake_fails_cleanly() {
        let mut rng = SimRng::seed(6);
        let cert = Certificate::generate(&mut rng);
        let mut s = DtlsEndpoint::server(cert, None, &mut rng);
        assert!(s.handle_handshake(b"junk", &mut rng).is_err());
    }

    #[test]
    fn max_record_roundtrip_and_oversize_rejected() {
        let (mut c, mut s) = pair(true);
        let payload = vec![0xabu8; MAX_RECORD_PLAINTEXT];
        let rec = seal_record(&mut c, &payload).unwrap();
        assert_eq!(&s.open(&rec).unwrap()[..], payload.as_slice());
        assert_eq!(
            seal_record(&mut c, &vec![0u8; MAX_RECORD_PLAINTEXT + 1]),
            Err(DtlsError::Oversize)
        );
    }

    #[test]
    fn forged_client_finished_rejected() {
        let mut rng = SimRng::seed(77);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let (mut _c, hello) = DtlsEndpoint::client(ccert, None, &mut rng);
        let mut s = DtlsEndpoint::server(scert, None, &mut rng);
        s.handle_handshake(&hello, &mut rng).unwrap();
        // An attacker who never derived the keys forges a Finished.
        let mut forged = vec![CT_HANDSHAKE, VERSION[0], VERSION[1], HS_CLIENT_FINISHED];
        forged.extend_from_slice(&[0u8; 32]);
        assert!(s.handle_handshake(&forged, &mut rng).is_err());
        assert!(!s.is_established());
    }

    #[test]
    fn is_dtls_distinguishes_stun() {
        let stun = crate::stun::Message::binding_request([1; 12]).encode();
        assert!(!is_dtls(&stun));
        assert!(crate::stun::is_stun(&stun));
    }
}

#[cfg(test)]
mod prop_tests {
    //! Property tests for the record layer: round-trip over arbitrary
    //! payloads up to [`MAX_RECORD_PLAINTEXT`], and the rejection edges of
    //! `open` (truncation, tag flips, replay) that the unit tests only spot
    //! check.

    use super::*;
    use proptest::prelude::*;

    fn pair() -> (DtlsEndpoint, DtlsEndpoint) {
        let mut rng = SimRng::seed(99);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let (cfp, sfp) = (ccert.fingerprint(), scert.fingerprint());
        let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
        let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
        handshake(&mut c, hello, &mut s, &mut rng).expect("handshake");
        (c, s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn seal_open_roundtrip_any_payload(
            payload in proptest::collection::vec(any::<u8>(), 0..=MAX_RECORD_PLAINTEXT),
        ) {
            let (mut c, mut s) = pair();
            let rec = seal_record(&mut c, &payload).unwrap();
            let pt = s.open(&rec).unwrap();
            prop_assert_eq!(&pt[..], payload.as_slice());
        }

        #[test]
        fn truncated_record_rejected(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            cut in 1usize..64,
        ) {
            let (mut c, mut s) = pair();
            let rec = seal_record(&mut c, &payload).unwrap();
            let cut = cut.min(rec.len());
            let truncated = &rec[..rec.len() - cut];
            prop_assert!(s.open(truncated).is_err());
        }

        #[test]
        fn flipped_tag_rejected(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            tag_byte in 0usize..TAG_LEN,
            bit in 0u8..8,
        ) {
            let (mut c, mut s) = pair();
            let rec = seal_record(&mut c, &payload).unwrap();
            let mut bad = rec.to_vec();
            let idx = bad.len() - TAG_LEN + tag_byte;
            bad[idx] ^= 1 << bit;
            prop_assert_eq!(s.open(&bad), Err(DtlsError::BadRecord));
        }

        #[test]
        fn flipped_body_byte_rejected(
            payload in proptest::collection::vec(any::<u8>(), 1..512),
            pos in 0usize..512,
            bit in 0u8..8,
        ) {
            let (mut c, mut s) = pair();
            let rec = seal_record(&mut c, &payload).unwrap();
            let mut bad = rec.to_vec();
            // Flip anywhere in header or ciphertext (not the tag itself).
            let idx = pos % (bad.len() - TAG_LEN);
            bad[idx] ^= 1 << bit;
            prop_assert!(s.open(&bad).is_err());
        }

        #[test]
        fn replayed_record_rejected(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let (mut c, mut s) = pair();
            let rec = seal_record(&mut c, &payload).unwrap();
            prop_assert!(s.open(&rec).is_ok());
            prop_assert_eq!(s.open(&rec), Err(DtlsError::Replay));
        }
    }
}
