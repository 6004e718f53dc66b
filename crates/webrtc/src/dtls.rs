//! A simulated DTLS layer: fingerprint-authenticated handshake and an
//! encrypted, MAC'd record layer.
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
//! and the cipher is a hash-derived XOR keystream — adequate for a
//! simulation whose adversaries are *inside* the model, never for real use.
//!
//! # Record fast path
//!
//! Every peer-served byte crosses this layer, so the record path is built to
//! run allocation-free at steady state:
//!
//! - [`DtlsEndpoint::seal_into`] / [`DtlsEndpoint::open_into`] encrypt and
//!   decrypt in place into a caller-owned reusable [`BytesMut`] — no
//!   per-record `Vec`s (the original `seal` copied the payload three times).
//! - Record tags use a per-session precomputed
//!   [`HmacKey`](pdn_crypto::hmac::HmacKey), so no HMAC key schedule runs
//!   per record.
//! - The keystream (version 2, tagged [`KEYSTREAM_V2_TAG`]) absorbs the
//!   write key into a SHA-256 midstate once per connection and then emits
//!   64-byte blocks with raw compressions — no per-block key re-absorption,
//!   hasher construction, or Merkle–Damgård padding. The original
//!   one-full-hash-per-32-bytes design (version 1) lives on, with the rest
//!   of the pre-fast-path record path, as a test oracle in the
//!   `pdn-oracle` crate, so `crypto_bench` can measure old vs new in one
//!   process.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_crypto::hmac::{hmac_sha256_keyed, HmacKey};
use pdn_crypto::sha256::{Midstate, Sha256};
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

/// Truncated record-MAC length appended to each record.
const TAG_LEN: usize = 16;

/// Maximum plaintext bytes per record (TLS limit; larger messages are
/// chunked by the data-channel layer).
pub const MAX_RECORD_PLAINTEXT: usize = 16_384;

/// Domain-separation tag absorbed into the version-2 keystream key block.
/// Changing the keystream layout must change this tag so old and new
/// keystreams never collide (asserted in tests).
pub const KEYSTREAM_V2_TAG: [u8; 8] = *b"pdn-ks2\0";

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
    /// Keys: (enc send, enc recv, mac send, mac recv) once established.
    keys: Option<SessionKeys>,
    send_seq: u64,
    replay: ReplayWindow,
    peer_fingerprint: Option<Fingerprint>,
    /// Last handshake flight sent, re-sent on duplicate requests (UDP loss
    /// recovery).
    last_flight: Option<Bytes>,
    /// Reusable record buffer backing the allocating `seal`/`open` wrappers.
    scratch: BytesMut,
    /// Reusable buffers for the batch record engine
    /// ([`Self::seal_batch_into`] / [`Self::open_batch_into`]).
    batch: fused::BatchScratch,
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

/// A per-connection keystream key: the SHA-256 midstate after absorbing one
/// block of `write_key || KEYSTREAM_V2_TAG || zeros`. Generating keystream
/// is then one raw compression per 32 output bytes with only the 17
/// per-position bytes (seq, block index, lane) varying — the key is never
/// re-absorbed.
#[derive(Debug, Clone)]
struct KeystreamKey {
    mid: Midstate,
}

impl KeystreamKey {
    fn new(write_key: &[u8; 32]) -> Self {
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(write_key);
        block[32..40].copy_from_slice(&KEYSTREAM_V2_TAG);
        let mut h = Sha256::new();
        h.update(&block);
        KeystreamKey { mid: h.midstate() }
    }
}

#[cfg(test)]
impl KeystreamKey {
    /// XORs `buf` with the version-2 keystream for record `seq`. Encryption
    /// and decryption are the same operation. Keystream is produced in
    /// 64-byte blocks, two raw-compression lanes per block.
    ///
    /// The record path runs through [`fused`], which pairs these same lane
    /// compressions with the record-MAC chain; this standalone pass is the
    /// test-only reference the fused engine is differentially tested
    /// against.
    fn apply(&self, seq: u64, buf: &mut [u8]) {
        let mut block = [0u8; 64];
        block[..8].copy_from_slice(&seq.to_be_bytes());
        let mut idx: u64 = 0;
        // Full 64-byte blocks: both lanes are needed, and they are
        // independent compressions from the same midstate — generate them
        // as one interleaved pair.
        let mut chunks = buf.chunks_exact_mut(64);
        for chunk in &mut chunks {
            block[8..16].copy_from_slice(&idx.to_be_bytes());
            block[16] = 0;
            let mut block1 = block;
            block1[16] = 1;
            let (k0, k1) = self.mid.raw_compress2(&block, &block1);
            let (lo, hi) = chunk.split_at_mut(32);
            for (b, k) in lo.iter_mut().zip(k0.iter()) {
                *b ^= k;
            }
            for (b, k) in hi.iter_mut().zip(k1.iter()) {
                *b ^= k;
            }
            idx += 1;
        }
        let chunk = chunks.into_remainder();
        if !chunk.is_empty() {
            block[8..16].copy_from_slice(&idx.to_be_bytes());
            block[16] = 0;
            let ks = self.mid.raw_compress(&block);
            let split = chunk.len().min(32);
            let (lo, hi) = chunk.split_at_mut(split);
            for (b, k) in lo.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            if !hi.is_empty() {
                block[16] = 1;
                let ks = self.mid.raw_compress(&block);
                for (b, k) in hi.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
        }
    }
}

/// Fused record engine: drives the record HMAC chain and the v2 keystream
/// through *paired* compressions, so the serial HMAC chain rides in the
/// latency shadow of the (embarrassingly parallel) keystream lanes instead
/// of costing its own slot per block.
///
/// Done separately — the keystream pass (the test-only
/// `KeystreamKey::apply` reference) then an HMAC pass — a record costs one
/// pair-compression per 64-byte block (keystream) *plus* one serial
/// compression per block (MAC). Fused, each MAC block pairs with a
/// keystream lane, bringing the steady state from 2 to 1.5 slot-times per
/// block. Both streams are bit-identical to the unfused paths: the same
/// lane blocks, the same Merkle–Damgård padding, the same tag.
mod fused {
    use super::{KeystreamKey, HEADER_LEN, TAG_LEN};
    use bytes::{Bytes, BytesMut};
    use pdn_crypto::hmac::HmacKey;
    use pdn_crypto::sha256::Midstate;

    /// The keystream input block for `(seq, block_idx, lane)` — layout
    /// identical to the test-only `KeystreamKey::apply` reference.
    #[inline]
    fn lane_block(seq: u64, lane: usize) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[..8].copy_from_slice(&seq.to_be_bytes());
        b[8..16].copy_from_slice(&((lane / 2) as u64).to_be_bytes());
        b[16] = (lane % 2) as u8;
        b
    }

    /// Number of 32-byte keystream lanes a body of `n` bytes consumes.
    #[inline]
    fn total_lanes(n: usize) -> usize {
        n.div_ceil(32)
    }

    /// XORs keystream lane `lane` into `body` (clamped at the tail).
    #[inline]
    fn xor_lane(body: &mut [u8], lane: usize, ks: &[u8; 32]) {
        let start = lane * 32;
        let end = (start + 32).min(body.len());
        for (b, k) in body[start..end].iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }

    /// How many keystream *blocks* are fully applied once `consumed` lanes
    /// have been XORed (the tail block may only have one lane).
    #[inline]
    fn blocks_applied(consumed: usize, lanes: usize, blocks: usize) -> usize {
        if consumed == lanes {
            blocks
        } else {
            consumed / 2
        }
    }

    /// Absorbs the sub-block message tail plus Merkle–Damgård padding into
    /// `h`. `total_absorbed` counts every byte the inner hash has seen,
    /// including the ipad block.
    fn finalize_inner(h: &mut Midstate, tail: &[u8], total_absorbed: usize) {
        let bit_len = ((total_absorbed as u64).wrapping_mul(8)).to_be_bytes();
        let mut block = [0u8; 64];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
        if tail.len() < 56 {
            block[56..].copy_from_slice(&bit_len);
            h.compress_in_place(&block);
        } else {
            h.compress_in_place(&block);
            let mut last = [0u8; 64];
            last[56..].copy_from_slice(&bit_len);
            h.compress_in_place(&last);
        }
    }

    /// The outer HMAC pass over the finished inner chain.
    fn outer_tag(mac: &HmacKey, h: &Midstate) -> [u8; 32] {
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&h.to_bytes());
        block[32] = 0x80;
        block[56..].copy_from_slice(&((64u64 + 32) * 8).to_be_bytes());
        mac.outer_midstate().raw_compress(&block)
    }

    /// Seals a record in place: encrypts `out[HEADER_LEN..]` with the v2
    /// keystream and returns the untruncated HMAC tag over the whole of
    /// `out` (header + ciphertext).
    ///
    /// The MAC covers ciphertext the keystream is still producing, so MAC
    /// block `k` is only compressed once keystream block `k` has been
    /// applied; the greedy schedule below settles into three paired
    /// compressions per two blocks.
    pub(super) fn seal_record(
        mac: &HmacKey,
        ks: &KeystreamKey,
        seq: u64,
        out: &mut [u8],
    ) -> [u8; 32] {
        let n = out.len() - HEADER_LEN;
        let lanes = total_lanes(n);
        let blocks = n.div_ceil(64);
        let full_msg_blocks = out.len() / 64;
        let mut h = mac.inner_midstate();
        let mut lane = 0usize;
        let mut applied = 0usize;
        let mut k = 0usize;
        while k < full_msg_blocks || lane < lanes {
            // MAC block k covers out[64k..64k+64): its last ciphertext byte
            // sits in keystream block k (the header offsets ciphertext by
            // 13 < 64 bytes), clamped at the end of the body.
            let need = ((64 * k + 63).min(out.len() - 1).saturating_sub(HEADER_LEN)) / 64 + 1;
            if k < full_msg_blocks && applied >= need.min(blocks) {
                let mb: [u8; 64] = out[64 * k..64 * k + 64].try_into().expect("full block");
                if lane < lanes {
                    let lb = lane_block(seq, lane);
                    let ksd = h.compress2_mixed(&mb, &ks.mid, &lb);
                    xor_lane(&mut out[HEADER_LEN..], lane, &ksd);
                    lane += 1;
                    applied = blocks_applied(lane, lanes, blocks);
                } else {
                    h.compress_in_place(&mb);
                }
                k += 1;
            } else if lane + 1 < lanes {
                let (k0, k1) = ks
                    .mid
                    .raw_compress2(&lane_block(seq, lane), &lane_block(seq, lane + 1));
                xor_lane(&mut out[HEADER_LEN..], lane, &k0);
                xor_lane(&mut out[HEADER_LEN..], lane + 1, &k1);
                lane += 2;
                applied = blocks_applied(lane, lanes, blocks);
            } else {
                let k0 = ks.mid.raw_compress(&lane_block(seq, lane));
                xor_lane(&mut out[HEADER_LEN..], lane, &k0);
                lane += 1;
                applied = blocks;
            }
        }
        finalize_inner(&mut h, &out[full_msg_blocks * 64..], 64 + out.len());
        outer_tag(mac, &h)
    }

    /// Opens a record: XORs the keystream over `body` (a copy of the
    /// ciphertext) while computing the HMAC over `msg` (the *received*
    /// header + ciphertext), and returns the untruncated expected tag.
    ///
    /// Here the MAC reads the received bytes, not the keystream output, so
    /// the two streams are fully independent: every MAC block pairs with a
    /// keystream lane outright.
    pub(super) fn open_record(
        mac: &HmacKey,
        ks: &KeystreamKey,
        seq: u64,
        msg: &[u8],
        body: &mut [u8],
    ) -> [u8; 32] {
        let lanes = total_lanes(body.len());
        let full_msg_blocks = msg.len() / 64;
        let mut h = mac.inner_midstate();
        let mut lane = 0usize;
        for k in 0..full_msg_blocks {
            let mb: [u8; 64] = msg[64 * k..64 * k + 64].try_into().expect("full block");
            if lane < lanes {
                let ksd = h.compress2_mixed(&mb, &ks.mid, &lane_block(seq, lane));
                xor_lane(body, lane, &ksd);
                lane += 1;
            } else {
                h.compress_in_place(&mb);
            }
        }
        while lane + 1 < lanes {
            let (k0, k1) = ks
                .mid
                .raw_compress2(&lane_block(seq, lane), &lane_block(seq, lane + 1));
            xor_lane(body, lane, &k0);
            xor_lane(body, lane + 1, &k1);
            lane += 2;
        }
        if lane < lanes {
            let k0 = ks.mid.raw_compress(&lane_block(seq, lane));
            xor_lane(body, lane, &k0);
        }
        finalize_inner(&mut h, &msg[full_msg_blocks * 64..], 64 + msg.len());
        outer_tag(mac, &h)
    }

    /// Reusable buffers for the batch record engine. Lives on the endpoint
    /// so a warm batch path performs zero heap allocations; vectors grow to
    /// the largest batch seen and are never shrunk.
    #[derive(Debug, Default)]
    pub(super) struct BatchScratch {
        /// Structural validity per record of an open batch (filled by the
        /// endpoint; invalid records are skipped).
        pub(super) valid: Vec<bool>,
        /// Per-record untruncated tags (produced for seal, expected for
        /// open).
        pub(super) tags: Vec<[u8; 32]>,
    }

    /// Seals a whole batch in place: encrypts every `outs[i][HEADER_LEN..]`
    /// with the v2 keystream through the fused [`seal_record`] kernel and
    /// leaves each record's untruncated tag in `scratch.tags`. Record `i`
    /// uses sequence number `first_seq + i`.
    pub(super) fn seal_batch(
        mac: &HmacKey,
        ks: &KeystreamKey,
        first_seq: u64,
        outs: &mut [BytesMut],
        scratch: &mut BatchScratch,
    ) {
        scratch.tags.clear();
        scratch.tags.resize(outs.len(), [0u8; 32]);
        for (i, out) in outs.iter_mut().enumerate() {
            scratch.tags[i] = seal_record(mac, ks, first_seq + i as u64, &mut out[..]);
        }
    }

    /// Opens a whole batch: XORs the keystream over every `bodies[i]` (a
    /// copy of record `i`'s ciphertext) through the fused [`open_record`]
    /// kernel and leaves each record's expected untruncated tag in
    /// `scratch.tags`. Records flagged invalid in `scratch.valid` are
    /// skipped: their body stays untouched and their tag slot is
    /// unspecified (the caller rejects them before ever reading it).
    pub(super) fn open_batch(
        mac: &HmacKey,
        ks: &KeystreamKey,
        records: &[Bytes],
        bodies: &mut [BytesMut],
        scratch: &mut BatchScratch,
    ) {
        scratch.tags.clear();
        scratch.tags.resize(records.len(), [0u8; 32]);
        for (i, rec) in records.iter().enumerate() {
            if !scratch.valid[i] {
                continue;
            }
            let seq = u64::from_be_bytes(rec[3..11].try_into().expect("validated header"));
            scratch.tags[i] = open_record(
                mac,
                ks,
                seq,
                &rec[..rec.len() - TAG_LEN],
                &mut bodies[i][..],
            );
        }
    }
}

#[derive(Debug)]
struct SessionKeys {
    /// Precomputed per-direction keystream midstates.
    client_ks: KeystreamKey,
    server_ks: KeystreamKey,
    /// Precomputed record-MAC key (ipad/opad midstates cached).
    mac: HmacKey,
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
                peer_fingerprint: None,
                last_flight: None,
                scratch: BytesMut::new(),
                batch: fused::BatchScratch::default(),
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
            peer_fingerprint: None,
            last_flight: None,
            scratch: BytesMut::new(),
            batch: fused::BatchScratch::default(),
        }
    }

    /// Whether the handshake completed.
    pub fn is_established(&self) -> bool {
        matches!(self.state, State::Established)
    }

    /// The peer's certificate fingerprint, once seen.
    pub fn peer_fingerprint(&self) -> Option<Fingerprint> {
        self.peer_fingerprint
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
                self.peer_fingerprint = Some(client_fp);
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

                self.keys = Some(keys);
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
                self.peer_fingerprint = Some(server_fp);
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
                self.keys = Some(keys);
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

    /// Encrypts `plaintext` into an application-data record.
    ///
    /// Convenience wrapper over [`Self::seal_into`] using an internal
    /// reusable buffer; the returned [`Bytes`] is an owned copy. Hot paths
    /// sending many records should call `seal_into` with their own buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DtlsError::NotEstablished`] before the handshake completes.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Bytes, DtlsError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.seal_into(plaintext, &mut scratch);
        let out = result.map(|()| Bytes::copy_from_slice(&scratch));
        self.scratch = scratch;
        out
    }

    /// Encrypts `plaintext` into an application-data record written to
    /// `out` (cleared first). With a warm `out`, the steady-state path
    /// performs zero heap allocations: the plaintext is copied once into
    /// `out`, encrypted in place, and the tag is MAC'd scatter-gather under
    /// the session's precomputed [`HmacKey`].
    ///
    /// # Errors
    ///
    /// Returns [`DtlsError::NotEstablished`] before the handshake
    /// completes, [`DtlsError::Oversize`] beyond [`MAX_RECORD_PLAINTEXT`].
    pub fn seal_into(&mut self, plaintext: &[u8], out: &mut BytesMut) -> Result<(), DtlsError> {
        if !self.is_established() {
            return Err(DtlsError::NotEstablished);
        }
        if plaintext.len() > MAX_RECORD_PLAINTEXT {
            return Err(DtlsError::Oversize);
        }
        let keys = self.keys.as_ref().expect("established implies keys");
        let ks = match self.role {
            Role::Client => &keys.client_ks,
            Role::Server => &keys.server_ks,
        };
        let seq = self.send_seq;
        self.send_seq += 1;

        out.clear();
        out.reserve(HEADER_LEN + plaintext.len() + TAG_LEN);
        out.put_u8(CT_APPDATA);
        out.put_slice(&VERSION);
        out.put_u64(seq);
        out.put_u16((plaintext.len() + TAG_LEN) as u16);
        out.put_slice(plaintext);
        let tag = fused::seal_record(&keys.mac, ks, seq, &mut out[..]);
        out.put_slice(&tag[..TAG_LEN]);
        Ok(())
    }

    /// Decrypts an application-data record.
    ///
    /// Convenience wrapper over [`Self::open_into`] using an internal
    /// reusable buffer; the returned [`Bytes`] is an owned copy.
    ///
    /// # Errors
    ///
    /// [`DtlsError::BadRecord`] on authentication failure,
    /// [`DtlsError::Replay`] for non-monotonic sequence numbers.
    pub fn open(&mut self, record: &[u8]) -> Result<Bytes, DtlsError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.open_into(record, &mut scratch);
        let out = result.map(|()| Bytes::copy_from_slice(&scratch));
        self.scratch = scratch;
        out
    }

    /// Decrypts an application-data record into `out` (cleared first).
    /// With a warm `out` the steady-state path performs zero heap
    /// allocations: the tag is verified over the record in place, then the
    /// ciphertext is copied once into `out` and decrypted there.
    ///
    /// # Errors
    ///
    /// [`DtlsError::BadRecord`] on authentication failure,
    /// [`DtlsError::Replay`] for non-monotonic sequence numbers.
    pub fn open_into(&mut self, record: &[u8], out: &mut BytesMut) -> Result<(), DtlsError> {
        // Implicit handshake completion (cf. DTLS epoch semantics): when
        // only the client's Finished is outstanding, a record that passes
        // MAC verification proves the peer holds the session keys, so the
        // handshake is complete even if the Finished flight was lost.
        let awaiting_finished =
            matches!(self.state, State::AwaitClientFinished { .. }) && self.keys.is_some();
        if !self.is_established() && !awaiting_finished {
            return Err(DtlsError::NotEstablished);
        }
        if record.len() < HEADER_LEN + TAG_LEN || record[0] != CT_APPDATA || record[1..3] != VERSION
        {
            return Err(DtlsError::BadRecord);
        }
        let keys = self
            .keys
            .as_ref()
            .expect("established or awaiting implies keys");
        let ks = match self.role {
            Role::Client => &keys.server_ks,
            Role::Server => &keys.client_ks,
        };
        let seq = u64::from_be_bytes(record[3..11].try_into().expect("length checked"));
        let body_end = record.len() - TAG_LEN;
        let (header_and_ct, tag) = record.split_at(body_end);
        // Decrypt-while-MACing: the MAC reads the received ciphertext, not
        // the keystream output, so both run as one paired-compression pass.
        // `out` is speculatively decrypted and discarded if the tag (or the
        // replay window) rejects the record.
        out.clear();
        out.reserve(body_end - HEADER_LEN);
        out.put_slice(&header_and_ct[HEADER_LEN..]);
        let expect = fused::open_record(&keys.mac, ks, seq, header_and_ct, &mut out[..]);
        if !pdn_crypto::ct_eq(&expect[..TAG_LEN], tag) {
            out.clear();
            return Err(DtlsError::BadRecord);
        }
        if !self.replay.check_and_update(seq) {
            out.clear();
            return Err(DtlsError::Replay);
        }
        if awaiting_finished {
            self.state = State::Established;
        }
        Ok(())
    }

    /// Seals all `plaintexts` as one batch of records into `outs`, which is
    /// grown (never shrunk) to at least `plaintexts.len()` reusable buffers;
    /// `outs[i]` receives record `i`. With warm buffers the path performs
    /// zero heap allocations.
    ///
    /// Every record runs through the fused single-record kernel, with the
    /// batch's scratch reused across calls; the records produced are
    /// byte-identical to N sequential [`Self::seal_into`] calls.
    ///
    /// # Errors
    ///
    /// All-or-nothing, checked before any sequence number is consumed:
    /// [`DtlsError::NotEstablished`] before the handshake completes,
    /// [`DtlsError::Oversize`] if *any* plaintext exceeds
    /// [`MAX_RECORD_PLAINTEXT`].
    pub fn seal_batch_into(
        &mut self,
        plaintexts: &[&[u8]],
        outs: &mut Vec<BytesMut>,
    ) -> Result<(), DtlsError> {
        if !self.is_established() {
            return Err(DtlsError::NotEstablished);
        }
        if plaintexts.iter().any(|p| p.len() > MAX_RECORD_PLAINTEXT) {
            return Err(DtlsError::Oversize);
        }
        let n = plaintexts.len();
        if outs.len() < n {
            outs.resize_with(n, BytesMut::new);
        }
        let mut scratch = std::mem::take(&mut self.batch);
        let keys = self.keys.as_ref().expect("established implies keys");
        let ks = match self.role {
            Role::Client => &keys.client_ks,
            Role::Server => &keys.server_ks,
        };
        let first_seq = self.send_seq;
        self.send_seq += n as u64;
        for (i, (pt, out)) in plaintexts.iter().zip(outs.iter_mut()).enumerate() {
            out.clear();
            out.reserve(HEADER_LEN + pt.len() + TAG_LEN);
            out.put_u8(CT_APPDATA);
            out.put_slice(&VERSION);
            out.put_u64(first_seq + i as u64);
            out.put_u16((pt.len() + TAG_LEN) as u16);
            out.put_slice(pt);
        }
        fused::seal_batch(&keys.mac, ks, first_seq, &mut outs[..n], &mut scratch);
        for (out, tag) in outs.iter_mut().zip(&scratch.tags) {
            out.put_slice(&tag[..TAG_LEN]);
        }
        self.batch = scratch;
        Ok(())
    }

    /// Opens all `records` as one batch: `outs[i]` receives record `i`'s
    /// plaintext (cleared on failure) and `results[i]` its verdict. `outs`
    /// is grown (never shrunk) to at least `records.len()` buffers; with
    /// warm buffers the path performs zero heap allocations.
    ///
    /// The verdicts are record-for-record identical to feeding the batch
    /// through [`Self::open_into`] sequentially — including MAC-reject
    /// before replay-reject per record, replay-window evolution in batch
    /// order, and implicit handshake completion on the first record that
    /// authenticates. Only the crypto schedule differs: expected tags for
    /// the whole batch are computed before any verdict is applied (MAC
    /// verification does not depend on replay state, so hoisting it
    /// preserves the semantics).
    pub fn open_batch_into(
        &mut self,
        records: &[Bytes],
        outs: &mut Vec<BytesMut>,
        results: &mut Vec<Result<(), DtlsError>>,
    ) {
        let n = records.len();
        results.clear();
        if outs.len() < n {
            outs.resize_with(n, BytesMut::new);
        }
        let awaiting_finished =
            matches!(self.state, State::AwaitClientFinished { .. }) && self.keys.is_some();
        if !self.is_established() && !awaiting_finished {
            for out in outs.iter_mut().take(n) {
                out.clear();
            }
            results.extend((0..n).map(|_| Err(DtlsError::NotEstablished)));
            return;
        }
        let mut scratch = std::mem::take(&mut self.batch);
        scratch.valid.clear();
        for (rec, out) in records.iter().zip(outs.iter_mut()) {
            let ok =
                rec.len() >= HEADER_LEN + TAG_LEN && rec[0] == CT_APPDATA && rec[1..3] == VERSION;
            scratch.valid.push(ok);
            out.clear();
            if ok {
                // Speculative ciphertext copy, decrypted in place by the
                // engine and discarded below if the tag or replay window
                // rejects the record (same policy as `open_into`).
                let body_end = rec.len() - TAG_LEN;
                out.reserve(body_end - HEADER_LEN);
                out.put_slice(&rec[HEADER_LEN..body_end]);
            }
        }
        {
            let keys = self
                .keys
                .as_ref()
                .expect("established or awaiting implies keys");
            let ks = match self.role {
                Role::Client => &keys.server_ks,
                Role::Server => &keys.client_ks,
            };
            fused::open_batch(&keys.mac, ks, records, &mut outs[..n], &mut scratch);
        }
        let mut any_authenticated = false;
        for (i, rec) in records.iter().enumerate() {
            if !scratch.valid[i] {
                results.push(Err(DtlsError::BadRecord));
                continue;
            }
            let tag = &rec[rec.len() - TAG_LEN..];
            if !pdn_crypto::ct_eq(&scratch.tags[i][..TAG_LEN], tag) {
                outs[i].clear();
                results.push(Err(DtlsError::BadRecord));
                continue;
            }
            let seq = u64::from_be_bytes(rec[3..11].try_into().expect("length checked"));
            if !self.replay.check_and_update(seq) {
                outs[i].clear();
                results.push(Err(DtlsError::Replay));
                continue;
            }
            any_authenticated = true;
            results.push(Ok(()));
        }
        if awaiting_finished && any_authenticated {
            self.state = State::Established;
        }
        self.batch = scratch;
    }
}

fn fill(buf: &mut [u8], rng: &mut SimRng) {
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
}

/// Derives the session keys from the DH shared secret and both randoms.
/// Subkey values are unchanged from the pre-fast-path implementation (the
/// scatter-gather MACs produce identical bytes); the derived `HmacKey` and
/// keystream midstates are computed here, once per session.
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
        client_ks: KeystreamKey::new(&client_write),
        server_ks: KeystreamKey::new(&server_write),
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
        assert!(c.peer_fingerprint().is_some());
    }

    #[test]
    fn data_roundtrip_both_directions() {
        let (mut c, mut s) = pair(true);
        let rec = c.seal(b"segment bytes").unwrap();
        assert!(is_dtls(&rec));
        assert_eq!(&s.open(&rec).unwrap()[..], b"segment bytes");
        let rec = s.seal(b"reply").unwrap();
        assert_eq!(&c.open(&rec).unwrap()[..], b"reply");
    }

    #[test]
    fn into_variants_match_wrappers() {
        let (mut c, mut s) = pair(true);
        let mut rec = BytesMut::new();
        let mut pt = BytesMut::new();
        for msg in [&b"first"[..], b"second message", &[0u8; 1000]] {
            c.seal_into(msg, &mut rec).unwrap();
            assert!(is_dtls(&rec));
            s.open_into(&rec, &mut pt).unwrap();
            assert_eq!(&pt[..], msg);
        }
    }

    #[test]
    fn fused_record_matches_unfused_reference() {
        // The fused MAC+keystream engine must be bit-identical to the
        // separate passes (`KeystreamKey::apply` + scatter-gather HMAC) for
        // every block/tail shape: empty, sub-lane, sub-block, exact block
        // multiples, pad-spill lengths, and the full record size.
        let (mut c, _s) = pair(true);
        let keys = c.keys.as_ref().unwrap();
        let (ks, mac) = (keys.client_ks.clone(), keys.mac);
        for n in [
            0usize, 1, 13, 31, 32, 33, 50, 51, 52, 63, 64, 65, 96, 115, 127, 128, 200, 4096,
            16_383, 16_384,
        ] {
            let plaintext: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            let seq = c.send_seq;
            let mut rec = BytesMut::new();
            c.seal_into(&plaintext, &mut rec).unwrap();

            // Reference seal: header, keystream pass, HMAC pass.
            let mut want = BytesMut::new();
            want.put_u8(CT_APPDATA);
            want.put_slice(&VERSION);
            want.put_u64(seq);
            want.put_u16((n + TAG_LEN) as u16);
            want.put_slice(&plaintext);
            ks.apply(seq, &mut want[HEADER_LEN..]);
            let tag = hmac_sha256_keyed(&mac, &[&want[..]]);
            want.put_slice(&tag[..TAG_LEN]);
            assert_eq!(&rec[..], &want[..], "seal mismatch at n={n}");

            // Fused open recovers the plaintext and computes the same tag.
            let mut body = rec[HEADER_LEN..HEADER_LEN + n].to_vec();
            let expect = fused::open_record(&mac, &ks, seq, &rec[..HEADER_LEN + n], &mut body);
            assert_eq!(&expect[..TAG_LEN], &rec[HEADER_LEN + n..], "tag at n={n}");
            assert_eq!(body, plaintext, "open mismatch at n={n}");
        }
    }

    #[test]
    fn batch_seal_open_matches_sequential() {
        // `pair` is seed-deterministic, so two pairs share identical keys
        // and the batch path can be pinned byte-for-byte against the
        // sequential one.
        let (mut c_seq, mut s_seq) = pair(true);
        let (mut c_batch, mut s_batch) = pair(true);
        let payloads: Vec<Vec<u8>> = [0usize, 1, 63, 64, 65, 100, 4096, 16_384, 51, 13]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 % 251) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();

        let mut sequential = Vec::new();
        let mut rec = BytesMut::new();
        for p in &payloads {
            c_seq.seal_into(p, &mut rec).unwrap();
            sequential.push(Bytes::copy_from_slice(&rec));
        }
        let mut outs = Vec::new();
        c_batch.seal_batch_into(&refs, &mut outs).unwrap();
        assert_eq!(c_batch.send_seq, c_seq.send_seq);
        for (i, (batch, seq)) in outs.iter().zip(&sequential).enumerate() {
            assert_eq!(&batch[..], &seq[..], "record {i}");
        }

        // Open side: batch verdicts and plaintexts match sequential opens.
        let mut pts = Vec::new();
        let mut results = Vec::new();
        s_batch.open_batch_into(&sequential, &mut pts, &mut results);
        let mut pt = BytesMut::new();
        for (i, r) in sequential.iter().enumerate() {
            let want = s_seq.open_into(r, &mut pt);
            assert_eq!(results[i], want, "verdict {i}");
            assert_eq!(&pts[i][..], &pt[..], "plaintext {i}");
        }
    }

    #[test]
    fn batch_engine_matches_record_engine() {
        // Pin the batch engine to the per-record kernel directly, from a
        // non-zero first sequence number, and check that a record flagged
        // structurally invalid is skipped with its body left untouched.
        let (c, _s) = pair(true);
        let keys = c.keys.as_ref().unwrap();
        let (ks, mac) = (keys.client_ks.clone(), keys.mac);
        let sizes = [0usize, 1, 31, 32, 51, 64, 115, 200, 1200, 4096];
        let first_seq = 7u64;
        let build = |i: usize, n: usize| -> BytesMut {
            let mut out = BytesMut::new();
            out.put_u8(CT_APPDATA);
            out.put_slice(&VERSION);
            out.put_u64(first_seq + i as u64);
            out.put_u16((n + TAG_LEN) as u16);
            for j in 0..n {
                out.put_u8((j * 13 % 251) as u8);
            }
            out
        };

        let mut batch: Vec<BytesMut> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| build(i, n))
            .collect();
        let mut scratch = fused::BatchScratch::default();
        fused::seal_batch(&mac, &ks, first_seq, &mut batch, &mut scratch);
        for (i, &n) in sizes.iter().enumerate() {
            let mut single = build(i, n);
            let tag = fused::seal_record(&mac, &ks, first_seq + i as u64, &mut single[..]);
            assert_eq!(scratch.tags[i], tag, "seal tag {i}");
            assert_eq!(&batch[i][..], &single[..], "sealed record {i}");
        }

        let records: Vec<Bytes> = batch
            .iter()
            .zip(&scratch.tags)
            .map(|(r, t)| {
                let mut v = r.to_vec();
                v.extend_from_slice(&t[..TAG_LEN]);
                Bytes::from(v)
            })
            .collect();
        let mut bodies: Vec<BytesMut> = records
            .iter()
            .map(|r| {
                let mut b = BytesMut::new();
                b.extend_from_slice(&r[HEADER_LEN..r.len() - TAG_LEN]);
                b
            })
            .collect();
        scratch.valid.clear();
        scratch.valid.extend((0..records.len()).map(|i| i != 3));
        fused::open_batch(&mac, &ks, &records, &mut bodies, &mut scratch);
        for (i, rec) in records.iter().enumerate() {
            let mut body = rec[HEADER_LEN..rec.len() - TAG_LEN].to_vec();
            if i == 3 {
                assert_eq!(&bodies[i][..], &body[..], "invalid body untouched");
                continue;
            }
            let seq = first_seq + i as u64;
            let tag = fused::open_record(&mac, &ks, seq, &rec[..rec.len() - TAG_LEN], &mut body);
            assert_eq!(scratch.tags[i], tag, "open tag {i}");
            assert_eq!(
                &tag[..TAG_LEN],
                &rec[rec.len() - TAG_LEN..],
                "tag verifies {i}"
            );
            assert_eq!(&bodies[i][..], &body[..], "opened body {i}");
            let want: Vec<u8> = (0..sizes[i]).map(|j| (j * 13 % 251) as u8).collect();
            assert_eq!(body, want, "plaintext {i}");
        }
    }

    #[test]
    fn batch_open_completes_handshake_implicitly() {
        // Lose the client Finished: the server is AwaitClientFinished, and
        // a batch whose first record authenticates must establish it (same
        // implicit-completion rule as `open_into`).
        let mut rng = SimRng::seed(33);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let (mut c, hello) = DtlsEndpoint::client(ccert, None, &mut rng);
        let mut s = DtlsEndpoint::server(scert, None, &mut rng);
        let sh = s.handle_handshake(&hello, &mut rng).unwrap().unwrap();
        let _client_finished = c.handle_handshake(&sh, &mut rng).unwrap().unwrap();
        assert!(!s.is_established());

        let mut outs = Vec::new();
        c.seal_batch_into(&[b"first".as_slice(), b"second"], &mut outs)
            .unwrap();
        let records: Vec<Bytes> = outs.iter().map(|o| Bytes::copy_from_slice(o)).collect();
        let mut pts = Vec::new();
        let mut results = Vec::new();
        s.open_batch_into(&records, &mut pts, &mut results);
        assert_eq!(results, vec![Ok(()), Ok(())]);
        assert!(s.is_established());
        assert_eq!(&pts[0][..], b"first");
        assert_eq!(&pts[1][..], b"second");
    }

    #[test]
    fn batch_seal_is_all_or_nothing() {
        let (mut c, _s) = pair(true);
        let big = vec![0u8; MAX_RECORD_PLAINTEXT + 1];
        let mut outs = Vec::new();
        assert_eq!(
            c.seal_batch_into(&[b"ok".as_slice(), &big], &mut outs),
            Err(DtlsError::Oversize)
        );
        // No sequence number was consumed by the failed batch.
        assert_eq!(c.send_seq, 0);
    }

    #[test]
    fn batch_open_before_establishment_fails_every_record() {
        let mut rng = SimRng::seed(5);
        let cert = Certificate::generate(&mut rng);
        let (mut c, _hello) = DtlsEndpoint::client(cert, None, &mut rng);
        let mut pts = Vec::new();
        let mut results = Vec::new();
        c.open_batch_into(
            &[Bytes::from_static(b"junk"), Bytes::from_static(b"junk2")],
            &mut pts,
            &mut results,
        );
        assert_eq!(
            results,
            vec![
                Err(DtlsError::NotEstablished),
                Err(DtlsError::NotEstablished)
            ]
        );
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut c, _s) = pair(true);
        let plaintext = b"SECRET-VIDEO-SEGMENT-CONTENT";
        let rec = c.seal(plaintext).unwrap();
        assert!(!rec
            .windows(plaintext.len())
            .any(|w| w == plaintext.as_slice()));
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut c, mut s) = pair(true);
        let rec = c.seal(b"data").unwrap();
        let mut bad = rec.to_vec();
        bad[14] ^= 0x01;
        assert_eq!(s.open(&bad), Err(DtlsError::BadRecord));
    }

    #[test]
    fn replay_rejected() {
        let (mut c, mut s) = pair(true);
        let rec = c.seal(b"data").unwrap();
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
        assert_eq!(c.seal(b"x"), Err(DtlsError::NotEstablished));
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
        let rec = c.seal(&payload).unwrap();
        assert_eq!(&s.open(&rec).unwrap()[..], payload.as_slice());
        assert_eq!(
            c.seal(&vec![0u8; MAX_RECORD_PLAINTEXT + 1]),
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
    fn keystream_v2_differs_from_v1() {
        // The versioned keystream really is a new keystream: same key, same
        // seq, same data must encrypt differently under v1 and v2.
        // Version 1 is one full SHA-256 of `key || seq || block_idx` per
        // 32 output bytes.
        let key = [0x42u8; 32];
        let mut v1 = [0u8; 100];
        for (block_idx, block) in v1.chunks_mut(32).enumerate() {
            let mut h = Sha256::new();
            h.update(&key);
            h.update(&7u64.to_be_bytes());
            h.update(&(block_idx as u64).to_be_bytes());
            for (b, k) in block.iter_mut().zip(h.finalize()) {
                *b ^= k;
            }
        }
        let mut v2 = [0u8; 100];
        KeystreamKey::new(&key).apply(7, &mut v2);
        assert_ne!(v1, v2);
    }

    #[test]
    fn keystream_v2_is_deterministic_and_seq_dependent() {
        let key = [9u8; 32];
        let ks = KeystreamKey::new(&key);
        let mut a = [0u8; 96];
        let mut b = [0u8; 96];
        ks.apply(3, &mut a);
        ks.apply(3, &mut b);
        assert_eq!(a, b);
        let mut c = [0u8; 96];
        ks.apply(4, &mut c);
        assert_ne!(a, c);
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
            let mut rec = BytesMut::new();
            let mut pt = BytesMut::new();
            c.seal_into(&payload, &mut rec).unwrap();
            s.open_into(&rec, &mut pt).unwrap();
            prop_assert_eq!(&pt[..], payload.as_slice());
        }

        #[test]
        fn truncated_record_rejected(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            cut in 1usize..64,
        ) {
            let (mut c, mut s) = pair();
            let rec = c.seal(&payload).unwrap();
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
            let rec = c.seal(&payload).unwrap();
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
            let rec = c.seal(&payload).unwrap();
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
            let rec = c.seal(&payload).unwrap();
            prop_assert!(s.open(&rec).is_ok());
            prop_assert_eq!(s.open(&rec), Err(DtlsError::Replay));
        }

        #[test]
        fn batch_seal_matches_sequential_for_any_payloads(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..2048),
                0..10,
            ),
        ) {
            // `pair` is seed-deterministic: two pairs share identical keys.
            let (mut c_seq, _) = pair();
            let (mut c_batch, _) = pair();
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let mut outs = Vec::new();
            c_batch.seal_batch_into(&refs, &mut outs).unwrap();
            let mut rec = BytesMut::new();
            for (i, p) in payloads.iter().enumerate() {
                c_seq.seal_into(p, &mut rec).unwrap();
                prop_assert_eq!(&outs[i][..], &rec[..], "record {}", i);
            }
        }

        #[test]
        fn batch_open_fails_record_for_record_like_sequential(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..1024),
                1..10,
            ),
            muts in proptest::collection::vec((0u8..4, any::<u32>()), 10),
        ) {
            // Seal a batch, then damage it: per record either keep,
            // truncate mid-batch, flip one bit, or replace with a copy of
            // the previous wire record (an intra-batch replay). The batch
            // open must return exactly the verdicts and plaintexts of
            // opening the damaged records one by one.
            let (mut c, mut s_seq) = pair();
            let (_, mut s_batch) = pair();
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let mut outs = Vec::new();
            c.seal_batch_into(&refs, &mut outs).unwrap();

            let mut wire: Vec<Bytes> = Vec::new();
            for (i, out) in outs.iter().take(payloads.len()).enumerate() {
                let rec = Bytes::copy_from_slice(out);
                let (m, p) = muts[i];
                let p = p as usize;
                match m {
                    1 => {
                        let cut = (p % rec.len()).max(1);
                        wire.push(rec.slice(..rec.len() - cut));
                    }
                    2 => {
                        let mut v = rec.to_vec();
                        let bit = p % (v.len() * 8);
                        v[bit / 8] ^= 1 << (bit % 8);
                        wire.push(Bytes::from(v));
                    }
                    3 if i > 0 => wire.push(wire[i - 1].clone()),
                    _ => wire.push(rec),
                }
            }

            let mut pts = Vec::new();
            let mut results = Vec::new();
            s_batch.open_batch_into(&wire, &mut pts, &mut results);
            let mut pt = BytesMut::new();
            for (i, rec) in wire.iter().enumerate() {
                // Structural failures return before `open_into` touches its
                // output buffer; clear between records so "untouched" and the
                // batch path's "cleared" compare equal.
                pt.clear();
                let want = s_seq.open_into(rec, &mut pt);
                prop_assert_eq!(&results[i], &want, "verdict {}", i);
                prop_assert_eq!(&pts[i][..], &pt[..], "plaintext {}", i);
            }
        }
    }
}
