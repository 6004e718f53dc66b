//! Reliable, ordered message channel over DTLS (the SCTP data-channel role).
//!
//! Video segments are several megabytes; DTLS records carry at most
//! [`crate::dtls::MAX_RECORD_PLAINTEXT`] bytes. The channel chunks each
//! message across records and reassembles on the far side, preserving
//! message boundaries — the unit the PDN scheduler and the pollution
//! attacks operate on.
//!
//! # Chunk layout
//!
//! A message of `n` bytes travels as `total = max(1, ⌈n / CHUNK_DATA⌉)`
//! records with the same `msg_id`. Record `idx` carries the plaintext
//! `varint msg_id ‖ varint idx ‖ varint total ‖ body`, where `body` is
//! message bytes `idx·CHUNK_DATA ..`: every chunk but the last is exactly
//! `CHUNK_DATA` bytes and the last at most `CHUNK_DATA`. That is the only
//! layout a conforming sender produces, and the receiver relies on it: it
//! copies each chunk body to `idx·CHUNK_DATA` in the message's buffer, so
//! a record whose body breaks the layout is [`DtlsError::BadRecord`].
//!
//! # Bytes written once
//!
//! Each message byte passes through memory once per side: read from where
//! it is and written, encrypted or decrypted, where it ends up.
//!
//! - **Send.** [`DataChannel::send_message`] takes the message as parts
//!   (the P2P header and the segment bytes, say). Each record is built in
//!   its own exact-size buffer: the record header, then the chunk varints
//!   and the chunk body gathered from the parts, encrypted as they are
//!   written, then the tag. Nothing is staged.
//! - **Receive.** A record's first 32 plaintext bytes (two AES blocks: the
//!   whole chunk header and the first body bytes) are decrypted into a
//!   stack buffer and the header is checked. The rest is decrypted
//!   straight into chunk `idx`'s slot: an in-order chunk onto the end of
//!   the message buffer, into its spare capacity with no zero-fill; a
//!   chunk filling a gap into its zeroed slot. A chunk already placed is
//!   only authenticated. A single-record message is decrypted into its
//!   exact-size buffer; a multi-record message reserves
//!   `total × CHUNK_DATA` on its first chunk, and on completion that buffer
//!   becomes the message [`Bytes`] without another copy.
//! - **Speculative writes.** Decrypted bytes are unauthenticated until the
//!   record's tag and the replay window accept it, and only then is the
//!   chunk marked placed. A rejected record leaves no trace: the buffer is
//!   cut back to its length before the record, a partial message that
//!   record created is removed, and a placed chunk's bytes are never
//!   written again.
//!
//! # Reassembly memory
//!
//! - A message may be at most [`MAX_MESSAGE_SIZE`] bytes, in the role of
//!   the SDP `max-message-size` attribute (RFC 8841 §6). The sender refuses
//!   a longer one and the receiver rejects a header claiming more chunks,
//!   so one authenticated record can reserve at most that much.
//! - A multi-record message that completes evicts every partial message
//!   with a lower `msg_id`. The PDN SDK sends each message's records as one
//!   burst over a FIFO path and re-requests a lost segment as a new
//!   message, so once a later message is whole, an earlier one that lost a
//!   record can never complete.

use bytes::{BufMut, Bytes};
use pdn_simnet::wire::{get_uvarint, put_uvarint, MAX_UVARINT_LEN};
use pdn_simnet::FxHashMap;

use crate::dtls::{DtlsEndpoint, DtlsError, Plaintext, MAX_RECORD_PLAINTEXT};

/// Worst-case chunk header: varint msg_id (u64), chunk_idx, total_chunks.
/// Real headers are 3–12 bytes early in a session; budgeting the maximum
/// keeps `CHUNK_DATA` a compile-time constant.
const MAX_CHUNK_HEADER: usize = 3 * MAX_UVARINT_LEN;
const CHUNK_DATA: usize = MAX_RECORD_PLAINTEXT - MAX_CHUNK_HEADER;

/// Plaintext bytes read before the chunk header is parsed: two whole AES
/// blocks, so they hold any header and the rest of the record streams from
/// a block boundary.
const FIRST_READ: usize = 32;
const _: () = assert!(FIRST_READ >= MAX_CHUNK_HEADER);

/// The largest message the channel sends or reassembles: 16 MiB, four
/// times a 4-second segment at 8 Mbit/s and five times Table VI's 3 MB
/// segment.
pub const MAX_MESSAGE_SIZE: usize = 16 << 20;

/// Upper bound on `total_chunks` accepted from the wire.
const MAX_CHUNKS: u64 = MAX_MESSAGE_SIZE.div_ceil(CHUNK_DATA) as u64;

/// Words of a partial message's placed-chunk bitmap.
const PLACED_WORDS: usize = (MAX_CHUNKS as usize).div_ceil(64);

/// A chunk header that fits the chunk layout.
struct Chunk {
    msg_id: u64,
    idx: usize,
    total: usize,
    /// Header bytes.
    header: usize,
    /// Body bytes.
    body: usize,
}

impl Chunk {
    /// Parses the header at the front of `first`, the first bytes of a
    /// `len`-byte frame; `None` unless it fits the chunk layout.
    fn parse(first: &[u8], len: usize) -> Option<Chunk> {
        let mut off = 0usize;
        let msg_id = get_uvarint(first, &mut off)?;
        let idx = get_uvarint(first, &mut off)?;
        let total = get_uvarint(first, &mut off)?;
        if total == 0 || total > MAX_CHUNKS || idx >= total {
            return None;
        }
        let (idx, total, body) = (idx as usize, total as usize, len - off);
        if body > CHUNK_DATA || (idx + 1 < total && body != CHUNK_DATA) {
            return None;
        }
        Some(Chunk {
            msg_id,
            idx,
            total,
            header: off,
            body,
        })
    }
}

/// A multi-record message being reassembled.
#[derive(Debug)]
struct Partial {
    /// Chunk `idx` lives at `idx × CHUNK_DATA`. A gap ahead of an
    /// out-of-order chunk is zero-filled until its own chunk lands.
    buf: Vec<u8>,
    /// Bit `idx` is set once chunk `idx` has been placed.
    placed: [u64; PLACED_WORDS],
    received: usize,
    total: usize,
}

impl Partial {
    fn new(total: usize) -> Self {
        Partial {
            buf: Vec::with_capacity(total * CHUNK_DATA),
            placed: [0; PLACED_WORDS],
            received: 0,
            total,
        }
    }

    fn is_placed(&self, idx: usize) -> bool {
        self.placed[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Reads chunk `idx`'s `len`-byte body into its slot, `head` (its
    /// first bytes) already read and the rest from `frame`. The body must
    /// already satisfy the chunk layout and the chunk must not be placed.
    fn write(&mut self, idx: usize, head: &[u8], len: usize, frame: &mut impl Plaintext) {
        let off = idx * CHUNK_DATA;
        if off >= self.buf.len() {
            // In order, or ahead of a gap that stays zeroed: straight onto
            // the end.
            self.buf.resize(off, 0);
            self.buf.extend_from_slice(head);
            frame.append(len - head.len(), &mut self.buf);
        } else {
            // A full non-final chunk filling a gap left by a later one.
            let slot = &mut self.buf[off..off + len];
            slot[..head.len()].copy_from_slice(head);
            frame.read(&mut slot[head.len()..]);
        }
    }
}

/// The receive half's reassembly state, apart from the endpoint so a record
/// being opened can stream into it.
#[derive(Debug, Default)]
struct Reassembly {
    partials: FxHashMap<u64, Partial>,
}

impl Reassembly {
    fn receive(&mut self, mut frame: impl Plaintext) -> Result<Option<Bytes>, DtlsError> {
        let len = frame.remaining();
        let mut first = [0u8; FIRST_READ];
        let first = &mut first[..len.min(FIRST_READ)];
        frame.read(first);
        let Some(c) = Chunk::parse(first, len) else {
            // The frame is still authenticated first, so a record's
            // sequence number is taken whether or not its chunk fits.
            frame.finish()?;
            return Err(DtlsError::BadRecord);
        };
        let head = &first[c.header..];
        if c.total == 1 {
            // Single-record message (all control traffic): no partial-map
            // entry, read straight into its exact-size buffer.
            let mut msg = Vec::with_capacity(c.body);
            msg.extend_from_slice(head);
            frame.append(c.body - head.len(), &mut msg);
            frame.finish()?;
            return Ok(Some(Bytes::from(msg)));
        }
        let created = !self.partials.contains_key(&c.msg_id);
        let partial = self
            .partials
            .entry(c.msg_id)
            .or_insert_with(|| Partial::new(c.total));
        if partial.total != c.total {
            frame.finish()?;
            return Err(DtlsError::BadRecord);
        }
        let (before, placed) = (partial.buf.len(), partial.is_placed(c.idx));
        if !placed {
            partial.write(c.idx, head, c.body, &mut frame);
        }
        if let Err(e) = frame.finish() {
            if created {
                self.partials.remove(&c.msg_id);
            } else {
                partial.buf.truncate(before);
            }
            return Err(e);
        }
        if placed {
            return Ok(None);
        }
        partial.placed[c.idx / 64] |= 1 << (c.idx % 64);
        partial.received += 1;
        if partial.received < c.total {
            return Ok(None);
        }
        let done = self.partials.remove(&c.msg_id).expect("just placed");
        self.partials.retain(|&id, _| id > c.msg_id);
        Ok(Some(Bytes::from(done.buf)))
    }
}

/// A chunk header encoded on the stack.
#[derive(Default)]
struct ChunkHeader {
    buf: [u8; MAX_CHUNK_HEADER],
    len: usize,
}

impl BufMut for ChunkHeader {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf[self.len..self.len + src.len()].copy_from_slice(src);
        self.len += src.len();
    }
}

/// A cursor over a message given as parts, handing out consecutive runs.
struct Gather<'a> {
    parts: &'a [&'a [u8]],
    part: usize,
    off: usize,
}

impl Gather<'_> {
    /// Hands the next `n` message bytes to `put`, one run per part.
    fn take(&mut self, mut n: usize, mut put: impl FnMut(&[u8])) {
        while n > 0 {
            let part = self.parts[self.part];
            let run = n.min(part.len() - self.off);
            put(&part[self.off..self.off + run]);
            self.off += run;
            n -= run;
            if self.off == part.len() {
                self.part += 1;
                self.off = 0;
            }
        }
    }
}

/// A message-oriented channel over an established [`DtlsEndpoint`].
#[derive(Debug)]
pub struct DataChannel {
    dtls: DtlsEndpoint,
    next_msg_id: u64,
    reassembly: Reassembly,
}

impl DataChannel {
    /// Wraps an established DTLS endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint has not completed its handshake.
    pub fn new(dtls: DtlsEndpoint) -> Self {
        assert!(
            dtls.is_established(),
            "data channel requires an established DTLS session"
        );
        DataChannel {
            dtls,
            next_msg_id: 0,
            reassembly: Reassembly::default(),
        }
    }

    /// Encrypts the message formed by concatenating `parts` into one or
    /// more wire records.
    ///
    /// Each record is sealed in its own exact-size buffer straight from the
    /// parts, with no staging copy; the records are byte-identical to
    /// sealing the concatenated chunk frames one by one.
    ///
    /// # Errors
    ///
    /// [`DtlsError::Oversize`] beyond [`MAX_MESSAGE_SIZE`], before any
    /// message id or record sequence number is consumed.
    pub fn send_message(&mut self, parts: &[&[u8]]) -> Result<Vec<Bytes>, DtlsError> {
        let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > MAX_MESSAGE_SIZE {
            return Err(DtlsError::Oversize);
        }
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let total = len.div_ceil(CHUNK_DATA).max(1);
        let mut records = Vec::with_capacity(total);
        let mut src = Gather {
            parts,
            part: 0,
            off: 0,
        };
        for idx in 0..total {
            let body = CHUNK_DATA.min(len - idx * CHUNK_DATA);
            let mut header = ChunkHeader::default();
            put_uvarint(&mut header, msg_id);
            put_uvarint(&mut header, idx as u64);
            put_uvarint(&mut header, total as u64);
            let mut record = Vec::new();
            self.dtls.seal_with(header.len + body, &mut record, |w| {
                w.put(&header.buf[..header.len]);
                src.take(body, |run| w.put(run));
            })?;
            records.push(Bytes::from(record));
        }
        Ok(records)
    }

    /// Feeds one wire record; returns a complete message when reassembled.
    ///
    /// # Errors
    ///
    /// Propagates DTLS record errors; chunk frames that are malformed or
    /// break the chunk layout are reported as [`DtlsError::BadRecord`].
    pub fn receive_record(&mut self, record: &[u8]) -> Result<Option<Bytes>, DtlsError> {
        let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
        let record = self.dtls.open_record(record)?;
        self.reassembly.receive(record)
    }

    /// Feeds an already-decrypted chunk frame (used when the harness opened
    /// a record on the raw endpoint during implicit handshake completion).
    ///
    /// # Errors
    ///
    /// [`DtlsError::BadRecord`] for malformed chunk frames.
    pub fn ingest_plaintext(&mut self, frame: &[u8]) -> Result<Option<Bytes>, DtlsError> {
        self.reassembly.receive(frame)
    }

    /// Number of messages with outstanding chunks.
    #[cfg(test)]
    fn pending_messages(&self) -> usize {
        self.reassembly.partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use crate::dtls::handshake;
    use crate::dtls::seal_record;
    use bytes::BytesMut;
    use pdn_simnet::SimRng;

    pub(super) fn endpoints(seed: u64) -> (DtlsEndpoint, DtlsEndpoint) {
        let mut rng = SimRng::seed(seed);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let sfp = scert.fingerprint();
        let cfp = ccert.fingerprint();
        let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
        let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
        handshake(&mut c, hello, &mut s, &mut rng).unwrap();
        (c, s)
    }

    fn channel_pair() -> (DataChannel, DataChannel) {
        let (c, s) = endpoints(9);
        (DataChannel::new(c), DataChannel::new(s))
    }

    /// A chunk frame as a conforming sender lays it out.
    pub(super) fn frame(msg_id: u64, idx: u64, total: u64, body: &[u8]) -> Vec<u8> {
        let mut f = BytesMut::new();
        put_uvarint(&mut f, msg_id);
        put_uvarint(&mut f, idx);
        put_uvarint(&mut f, total);
        f.put_slice(body);
        f.to_vec()
    }

    /// Every chunk frame of `message` sent as `msg_id`.
    pub(super) fn frames(msg_id: u64, message: &[u8]) -> Vec<Vec<u8>> {
        let total = message.len().div_ceil(CHUNK_DATA).max(1);
        (0..total)
            .map(|i| {
                let body = &message[i * CHUNK_DATA..message.len().min((i + 1) * CHUNK_DATA)];
                frame(msg_id, i as u64, total as u64, body)
            })
            .collect()
    }

    /// Feeds `records` one by one, as the SDK's per-datagram receive path
    /// does, appending completed messages to `msgs` and skipping records
    /// the channel refuses.
    pub(super) fn receive_all(rx: &mut DataChannel, records: &[Bytes], msgs: &mut Vec<Bytes>) {
        for r in records {
            if let Ok(Some(m)) = rx.receive_record(r) {
                msgs.push(m);
            }
        }
    }

    #[test]
    fn small_message_single_record() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(&[b"hello"]).unwrap();
        assert_eq!(records.len(), 1);
        let msg = b.receive_record(&records[0]).unwrap().unwrap();
        assert_eq!(&msg[..], b"hello");
    }

    #[test]
    fn empty_message_roundtrip() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(&[]).unwrap();
        assert_eq!(records.len(), 1);
        let msg = b.receive_record(&records[0]).unwrap().unwrap();
        assert!(msg.is_empty());
    }

    #[test]
    fn segment_sized_message_chunks_and_reassembles() {
        let (mut a, mut b) = channel_pair();
        // A 3 MB segment, like the Table VI evaluation.
        let payload: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&[&payload]).unwrap();
        assert!(records.len() > 1);
        let mut got = None;
        for (i, r) in records.iter().enumerate() {
            let res = b.receive_record(r).unwrap();
            if i + 1 < records.len() {
                assert!(res.is_none(), "incomplete until the last chunk");
            } else {
                got = res;
            }
        }
        assert_eq!(&got.unwrap()[..], payload.as_slice());
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    fn interleaved_messages_reassemble_independently() {
        let (mut a, mut b) = channel_pair();
        let big1 = vec![1u8; CHUNK_DATA * 2];
        let big2 = vec![2u8; CHUNK_DATA * 2];
        let r1 = a.send_message(&[&big1]).unwrap();
        let r2 = a.send_message(&[&big2]).unwrap();
        // Interleave: r1[0], r2[0], r1[1], r2[1].
        assert!(b.receive_record(&r1[0]).unwrap().is_none());
        assert!(b.receive_record(&r2[0]).unwrap().is_none());
        let m1 = b.receive_record(&r1[1]).unwrap().unwrap();
        let m2 = b.receive_record(&r2[1]).unwrap().unwrap();
        assert_eq!(&m1[..], big1.as_slice());
        assert_eq!(&m2[..], big2.as_slice());
    }

    #[test]
    fn older_partial_evicted_when_newer_message_completes() {
        // Message 0 loses its second record on the way; message 1 arrives
        // whole. Over a FIFO path message 0 can never complete, so its
        // partial is dropped as soon as message 1 completes.
        let (mut a, mut b) = channel_pair();
        let r0 = a.send_message(&[&vec![1u8; CHUNK_DATA * 3]]).unwrap();
        let r1 = a.send_message(&[&vec![2u8; CHUNK_DATA + 9]]).unwrap();
        let mut msgs = Vec::new();
        receive_all(&mut b, &[r0[0].clone(), r0[2].clone()], &mut msgs);
        assert_eq!(b.pending_messages(), 1);
        receive_all(&mut b, &r1[..1], &mut msgs);
        assert_eq!(b.pending_messages(), 2, "nothing evicted before completion");
        receive_all(&mut b, &r1[1..], &mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], &vec![2u8; CHUNK_DATA + 9][..]);
        assert_eq!(b.pending_messages(), 0, "message 0's partial evicted");
        // A single-record message completing evicts nothing.
        let r2 = a.send_message(&[&vec![3u8; CHUNK_DATA * 2]]).unwrap();
        let r3 = a.send_message(&[b"ping"]).unwrap();
        receive_all(&mut b, &[r2[0].clone(), r3[0].clone()], &mut msgs);
        assert_eq!(b.pending_messages(), 1);
    }

    #[test]
    fn non_conforming_chunk_lengths_rejected() {
        let (_, mut b) = channel_pair();
        // A short non-final chunk and an over-long final one.
        let short = frame(4, 0, 2, &[7u8; CHUNK_DATA - 1]);
        assert_eq!(b.ingest_plaintext(&short), Err(DtlsError::BadRecord));
        let long = frame(4, 1, 2, &[7u8; CHUNK_DATA + 1]);
        assert_eq!(b.ingest_plaintext(&long), Err(DtlsError::BadRecord));
        let single = frame(5, 0, 1, &[7u8; CHUNK_DATA + 1]);
        assert_eq!(b.ingest_plaintext(&single), Err(DtlsError::BadRecord));
        assert_eq!(b.pending_messages(), 0);
        // Out-of-order conforming chunks still land in place.
        let msg: Vec<u8> = (0..2 * CHUNK_DATA + 3).map(|i| (i % 239) as u8).collect();
        let mut fs = frames(6, &msg);
        fs.reverse();
        let mut got = None;
        for f in &fs {
            got = b.ingest_plaintext(f).unwrap().or(got);
        }
        assert_eq!(&got.unwrap()[..], &msg[..]);
    }

    #[test]
    fn send_message_matches_sequential_seal_of_chunk_frames() {
        // The records of a multi-part message are byte-identical to sealing
        // each conforming chunk frame as one record, on a twin endpoint
        // (seeded pairs share keys).
        let (c, _) = endpoints(9);
        let (mut twin, _) = endpoints(9);
        let mut chan = DataChannel::new(c);
        let header = b"p2p header bytes";
        let data: Vec<u8> = (0..2 * CHUNK_DATA + 1000)
            .map(|i| (i % 113) as u8)
            .collect();
        for _ in 0..2 {
            let records = chan.send_message(&[header, &data]).unwrap();
            let whole = [&header[..], &data].concat();
            let msg_id = chan.next_msg_id - 1;
            let want = frames(msg_id, &whole);
            assert_eq!(records.len(), want.len());
            for (i, (got, f)) in records.iter().zip(&want).enumerate() {
                let rec = seal_record(&mut twin, f).unwrap();
                assert_eq!(&got[..], &rec[..], "record {i}");
                assert_eq!(got.len(), 13 + f.len() + 16, "exact-size record {i}");
            }
        }
    }

    #[test]
    fn oversize_message_is_all_or_nothing() {
        let (mut a, mut b) = channel_pair();
        let big = vec![0u8; MAX_MESSAGE_SIZE / 2 + 1];
        assert_eq!(a.send_message(&[&big, &big]), Err(DtlsError::Oversize));
        // No message id or record sequence number was consumed.
        assert_eq!(a.next_msg_id, 0);
        let records = a.send_message(&[b"after"]).unwrap();
        assert_eq!(&records[0][3..11], &0u64.to_be_bytes(), "record seq 0");
        let mut msgs = Vec::new();
        receive_all(&mut b, &records, &mut msgs);
        assert_eq!(&msgs[0][..], b"after");
    }

    #[test]
    fn receive_rejects_every_record_of_another_session() {
        // A burst sealed under another session's keys authenticates nowhere:
        // every record is refused and nothing is left pending.
        let (mut stranger, _) = channel_pair();
        let mut b = DataChannel::new(endpoints(10).1);
        let records = stranger
            .send_message(&[&vec![5u8; 3 * CHUNK_DATA]])
            .unwrap();
        for r in &records {
            assert_eq!(b.receive_record(r), Err(DtlsError::BadRecord));
        }
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    fn first_record_after_lost_finished_reaches_channel() {
        // Lose the client Finished: the server is still awaiting it, and
        // the first authenticated data record completes the handshake
        // implicitly; the harness then hands its plaintext to a fresh
        // channel, and the rest of the burst follows through it.
        let mut rng = SimRng::seed(33);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let (mut c, hello) = DtlsEndpoint::client(ccert, None, &mut rng);
        let mut s = DtlsEndpoint::server(scert, None, &mut rng);
        let sh = s.handle_handshake(&hello, &mut rng).unwrap().unwrap();
        let _lost_finished = c.handle_handshake(&sh, &mut rng).unwrap().unwrap();
        assert!(!s.is_established());

        let mut tx = DataChannel::new(c);
        let payload: Vec<u8> = (0..CHUNK_DATA + 40).map(|i| (i % 97) as u8).collect();
        let records = tx.send_message(&[&payload]).unwrap();
        let first = s.open(&records[0]).unwrap();
        assert!(s.is_established());
        let mut rx = DataChannel::new(s);
        assert_eq!(rx.ingest_plaintext(&first), Ok(None));
        let msg = rx.receive_record(&records[1]).unwrap().unwrap();
        assert_eq!(&msg[..], &payload[..]);
    }

    #[test]
    fn receive_reassembles_multi_record_message() {
        let (mut a, mut b) = channel_pair();
        let payload: Vec<u8> = (0..3 * CHUNK_DATA + 17).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&[&payload]).unwrap();
        assert_eq!(records.len(), 4);
        let mut msgs = Vec::new();
        receive_all(&mut b, &records, &mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], payload.as_slice());
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    fn receive_skips_damaged_records() {
        let (mut a, mut b) = channel_pair();
        let m1 = a.send_message(&[b"first"]).unwrap();
        let m2 = a.send_message(&[b"second"]).unwrap();
        let m3 = a.send_message(&[b"third"]).unwrap();
        let mut bad = m2[0].to_vec();
        let n = bad.len();
        bad[n - 1] ^= 1;
        let wire = vec![m1[0].clone(), Bytes::from(bad), m3[0].clone()];
        let mut msgs = Vec::new();
        receive_all(&mut b, &wire, &mut msgs);
        assert_eq!(msgs.len(), 2);
        assert_eq!(&msgs[0][..], b"first");
        assert_eq!(&msgs[1][..], b"third");
    }

    #[test]
    fn receive_drops_segment_with_one_flipped_ciphertext_byte() {
        // A 3 MB segment (Table VI size), record by record: one flipped
        // ciphertext byte in one record fails that record's GCM tag, so the
        // message never completes and nothing is delivered.
        let (mut a, mut b) = channel_pair();
        let payload: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&[&payload]).unwrap();
        assert!(records.len() > 100);
        let mut wire = records.clone();
        let victim = records.len() / 2;
        let mut bad = wire[victim].to_vec();
        bad[13 + 1000] ^= 0x40;
        wire[victim] = Bytes::from(bad);
        let mut msgs = Vec::new();
        receive_all(&mut b, &wire, &mut msgs);
        assert!(msgs.is_empty(), "damaged segment must not be delivered");
        assert_eq!(b.pending_messages(), 1);

        // The undamaged burst, on a fresh receiver, delivers the segment.
        let (_, mut fresh) = channel_pair();
        receive_all(&mut fresh, &records, &mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], payload.as_slice());
    }

    #[test]
    fn tampered_chunk_rejected() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(&[b"important segment"]).unwrap();
        let mut bad = records[0].to_vec();
        let n = bad.len();
        bad[n / 2] ^= 1;
        assert!(b.receive_record(&bad).is_err());
    }

    #[test]
    fn malformed_chunk_headers_rejected() {
        let (_, mut b) = channel_pair();
        // Empty frame and a dangling varint continuation byte.
        assert!(b.ingest_plaintext(&[]).is_err());
        assert!(b.ingest_plaintext(&[0x80]).is_err());
        // Forged total_chunks beyond the max message size.
        let forged = frame(1, 0, MAX_CHUNKS + 1, &[0u8; CHUNK_DATA]);
        assert_eq!(b.ingest_plaintext(&forged), Err(DtlsError::BadRecord));
        // Chunk index past the total.
        assert!(b.ingest_plaintext(&frame(1, 2, 2, b"x")).is_err());
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    #[should_panic(expected = "established")]
    fn requires_established_session() {
        let mut rng = SimRng::seed(1);
        let cert = Certificate::generate(&mut rng);
        let (c, _) = DtlsEndpoint::client(cert, None, &mut rng);
        let _ = DataChannel::new(c);
    }
}

#[cfg(test)]
mod prop_tests {
    //! Property tests for the send and receive paths: records gathered from
    //! any split into parts match sealing the chunk frames one by one, a
    //! damaged burst delivers exactly its undamaged messages, in order,
    //! reassembly from any mix of shuffled, duplicated, mis-sized or
    //! forged-total chunk frames yields the exact message or `BadRecord`,
    //! and records that are refused, replayed or repeat a placed chunk
    //! never change a placed byte or leave a partial message behind.

    use super::tests::{endpoints, frame, frames, receive_all};
    use super::*;
    use crate::dtls::seal_record;
    use pdn_simnet::SimRng;
    use proptest::prelude::*;

    /// Per partial message: its buffer and which chunks are placed.
    type Snapshot = FxHashMap<u64, (Vec<u8>, Vec<usize>)>;

    fn snapshot(rx: &DataChannel) -> Snapshot {
        rx.reassembly
            .partials
            .iter()
            .map(|(&id, p)| {
                let placed = (0..p.total).filter(|&i| p.is_placed(i)).collect();
                (id, (p.buf.clone(), placed))
            })
            .collect()
    }

    /// The bytes of chunk `idx` in a buffer of `len` bytes.
    fn slot(idx: usize, len: usize) -> std::ops::Range<usize> {
        idx * CHUNK_DATA..len.min((idx + 1) * CHUNK_DATA)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn send_message_matches_sequential_seal_for_any_parts(
            len in 0usize..3 * CHUNK_DATA + 50,
            cuts in proptest::collection::vec(0usize..3 * CHUNK_DATA + 50, 0..4),
        ) {
            let (c, _) = endpoints(99);
            let (mut twin, _) = endpoints(99);
            let mut chan = DataChannel::new(c);
            let message: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([len]) {
                parts.push(&message[start..cut]);
                start = cut;
            }
            let records = chan.send_message(&parts).unwrap();
            let want = frames(0, &message);
            prop_assert_eq!(records.len(), want.len());
            for (i, f) in want.iter().enumerate() {
                let rec = seal_record(&mut twin, f).unwrap();
                prop_assert_eq!(&records[i][..], &rec[..], "record {}", i);
            }
        }

        #[test]
        fn receive_delivers_exactly_the_undamaged_messages(
            lens in proptest::collection::vec(0usize..2 * CHUNK_DATA + 10, 1..4),
            muts in proptest::collection::vec((0u8..4, any::<u32>()), 12),
        ) {
            // Several messages' bursts, then per record either keep,
            // truncate, flip one bit, or replace with a copy of the previous
            // wire record (a mid-burst replay). Fed record by record, the
            // channel must deliver, in order, exactly the messages whose
            // records all arrived unmodified.
            let (c, _) = endpoints(99);
            let mut tx = DataChannel::new(c);
            let mut wire: Vec<Bytes> = Vec::new();
            let mut owner: Vec<usize> = Vec::new();
            let mut messages: Vec<Vec<u8>> = Vec::new();
            for (m, &len) in lens.iter().enumerate() {
                let message: Vec<u8> = (0..len).map(|i| (i + m) as u8).collect();
                let records = tx.send_message(&[&message]).unwrap();
                owner.extend(std::iter::repeat_n(m, records.len()));
                wire.extend(records);
                messages.push(message);
            }
            let mut intact = vec![true; messages.len()];
            for (i, &(m, p)) in muts.iter().enumerate().take(wire.len()) {
                let p = p as usize;
                let rec = wire[i].clone();
                wire[i] = match m {
                    1 => rec.slice(..rec.len() - (p % rec.len()).max(1)),
                    2 => {
                        let mut v = rec.to_vec();
                        let bit = p % (v.len() * 8);
                        v[bit / 8] ^= 1 << (bit % 8);
                        Bytes::from(v)
                    }
                    3 if i > 0 => wire[i - 1].clone(),
                    _ => continue,
                };
                intact[owner[i]] = false;
            }
            let (_, s) = endpoints(99);
            let mut rx = DataChannel::new(s);
            let mut got = Vec::new();
            receive_all(&mut rx, &wire, &mut got);
            let want: Vec<&Vec<u8>> = messages
                .iter()
                .zip(&intact)
                .filter_map(|(m, &ok)| ok.then_some(m))
                .collect();
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                prop_assert_eq!(&g[..], &w[..]);
            }
        }

        #[test]
        fn refused_records_never_touch_placed_chunks(
            lens in proptest::collection::vec(CHUNK_DATA + 1..3 * CHUNK_DATA, 1..4),
            attacks in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..12),
            seed in any::<u64>(),
        ) {
            // Genuine multi-record messages, each burst shuffled, the
            // bursts in order; then records slipped in among them: a
            // genuine record with a flipped bit (anywhere), a replay of one
            // (after it), an authentic record repeating a placed chunk
            // with other bytes (after it), an authentic record whose
            // header breaks the layout or claims too many chunks
            // (anywhere) or another total (after the message's first
            // record), and a record with a bad tag opening a message of
            // its own (anywhere). Fed record by record, no step may change
            // a placed byte or leave a partial that a refused record
            // created, and every genuine message arrives exactly, in order.
            let mut rng = SimRng::seed(seed);
            let (mut tx, s) = endpoints(99);
            let mut messages: Vec<Vec<u8>> = Vec::new();
            // (record, message, chunk)
            let mut genuine: Vec<(Bytes, usize, usize)> = Vec::new();
            for (m, &len) in lens.iter().enumerate() {
                let message: Vec<u8> = (0..len).map(|i| (i * 7 + m * 31) as u8).collect();
                let mut burst: Vec<(Bytes, usize, usize)> = frames(m as u64, &message)
                    .iter()
                    .enumerate()
                    .map(|(j, f)| (seal_record(&mut tx, f).unwrap(), m, j))
                    .collect();
                rng.shuffle(&mut burst);
                genuine.extend(burst);
                messages.push(message);
            }
            let at = |m: usize, j: usize| {
                genuine.iter().position(|&(_, gm, gj)| (gm, gj) == (m, j)).unwrap() as i64
            };
            let first_of = |m: usize| {
                genuine.iter().position(|&(_, gm, _)| gm == m).unwrap() as i64
            };
            let flip = |rec: &Bytes, bit: u32| {
                let mut v = rec.to_vec();
                let bit = bit as usize % (v.len() * 8);
                v[bit / 8] ^= 1 << (bit % 8);
                Bytes::from(v)
            };
            let mut slipped: Vec<(i64, Bytes)> = Vec::new();
            for &(kind, p, q) in &attacks {
                let (p, q) = (p as usize, q as usize);
                let (rec, m, j) = genuine[p % genuine.len()].clone();
                let total = messages[m].len().div_ceil(CHUNK_DATA);
                let (after, record) = match kind {
                    0 => (-1, flip(&rec, q as u32)),
                    1 => (at(m, j), rec),
                    2 => {
                        let body = vec![0xee; slot(j, messages[m].len()).len()];
                        (at(m, j), seal_record(&mut tx, &frame(m as u64, j as u64, total as u64, &body)).unwrap())
                    }
                    3 => {
                        let (t, body) = if q % 2 == 0 {
                            (MAX_CHUNKS + 1 + q as u64 % 5, CHUNK_DATA)
                        } else {
                            (total as u64, CHUNK_DATA - 1 - q % 40)
                        };
                        let f = frame(m as u64, 0, t, &vec![0xdd; body]);
                        (-1, seal_record(&mut tx, &f).unwrap())
                    }
                    4 => {
                        let f = frame(m as u64, 0, total as u64 + 1, &[0xcc; CHUNK_DATA]);
                        (first_of(m), seal_record(&mut tx, &f).unwrap())
                    }
                    _ => {
                        let f = frame(100 + q as u64 % 50, 0, 3, &[0xbb; CHUNK_DATA]);
                        let rec = seal_record(&mut tx, &f).unwrap();
                        let tag_bit = (rec.len() - 1) * 8 + q % 8;
                        (-1, flip(&rec, tag_bit as u32))
                    }
                };
                // Right after a genuine record no earlier than `after`.
                let lo = after.max(-1);
                let key = lo + rng.range(0..(genuine.len() as i64 - lo) as usize) as i64;
                slipped.push((key, record));
            }
            let mut wire: Vec<(i64, usize, Bytes)> = genuine
                .iter()
                .enumerate()
                .map(|(i, (r, _, _))| (i as i64, 0, r.clone()))
                .chain(slipped.into_iter().enumerate().map(|(n, (k, r))| (k, n + 1, r)))
                .collect();
            wire.sort_by_key(|&(k, n, _)| (k, n));

            let mut rx = DataChannel::new(s);
            let mut delivered = Vec::new();
            for (_, _, record) in &wire {
                let before = snapshot(&rx);
                let res = rx.receive_record(record);
                let after = snapshot(&rx);
                for (id, (buf, placed)) in &before {
                    let Some((now, still)) = after.get(id) else { continue };
                    for &i in placed {
                        prop_assert!(still.contains(&i), "chunk {} of {} unplaced", i, id);
                        let r = slot(i, buf.len());
                        prop_assert_eq!(&now[r.clone()], &buf[r], "chunk {} of {} changed", i, id);
                    }
                }
                if let Ok(Some(m)) = &res {
                    delivered.push(m.clone());
                }
                // A genuine message still being reassembled holds only its
                // own bytes. (Once delivered, a repeated chunk may start
                // it over as a new partial: authentic, so accepted.)
                for (id, (buf, placed)) in &after {
                    let id = *id as usize;
                    if let Some(message) = messages.get(id).filter(|_| id >= delivered.len()) {
                        for &i in placed {
                            let r = slot(i, message.len());
                            prop_assert_eq!(&buf[r.clone()], &message[r], "chunk {} of {}", i, id);
                        }
                    }
                }
                if res.is_err() {
                        for (id, (buf, _)) in &after {
                            let was = before.get(id);
                            prop_assert!(was.is_some(), "refused record left partial {}", id);
                            prop_assert_eq!(buf.len(), was.unwrap().0.len(), "partial {} grew", id);
                        }
                }
            }
            prop_assert_eq!(delivered.len(), messages.len());
            for (got, want) in delivered.iter().zip(&messages) {
                prop_assert_eq!(&got[..], &want[..]);
            }
        }

        #[test]
        fn reassembly_yields_exact_message_or_bad_record(
            len in 0usize..4 * CHUNK_DATA + 100,
            seed in any::<u64>(),
            dups in 0usize..4,
            resized in 0usize..3,
            forged in 0usize..3,
        ) {
            let mut rng = SimRng::seed(seed);
            let message: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut fs = frames(7, &message);
            let total = fs.len() as u64;
            for _ in 0..dups {
                let i = rng.range(0..fs.len());
                fs.push(fs[i].clone());
            }
            let mut damaged = false;
            for _ in 0..resized {
                // Grow or shrink one non-final chunk body by up to 40
                // bytes. (A shortened final chunk still fits the layout;
                // only authentication could tell it from the real one.)
                if total == 1 {
                    break;
                }
                let i = rng.range(0..total as usize - 1);
                if rng.chance(0.5) {
                    fs[i].extend(std::iter::repeat_n(0xee, rng.range(1..40)));
                } else {
                    let cut = rng.range(1..40usize).min(fs[i].len());
                    let keep = fs[i].len() - cut;
                    fs[i].truncate(keep);
                }
                damaged = true;
            }
            for _ in 0..forged {
                // Rewrite one frame's total with a larger count, possibly
                // beyond the max message size.
                let i = rng.range(0..fs.len());
                let mut off = 0;
                let _ = get_uvarint(&fs[i], &mut off);
                let idx = get_uvarint(&fs[i], &mut off).unwrap();
                let _ = get_uvarint(&fs[i], &mut off);
                let body = fs[i][off..].to_vec();
                let fake = total + rng.range(1..=2 * MAX_CHUNKS);
                fs[i] = frame(7, idx, fake, &body);
                damaged = true;
            }
            rng.shuffle(&mut fs);
            // Duplicates that follow a completion start the message over
            // (replays are the record layer's to refuse), so it may be
            // delivered again — but only ever exactly.
            let mut rx = Reassembly::default();
            let mut delivered = 0;
            for f in &fs {
                match rx.receive(&f[..]) {
                    Ok(Some(m)) => {
                        prop_assert_eq!(&m[..], &message[..]);
                        delivered += 1;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        prop_assert_eq!(e, DtlsError::BadRecord);
                        prop_assert!(damaged, "an intact frame was rejected");
                    }
                }
            }
            if !damaged {
                prop_assert!(delivered >= 1, "intact frames must reassemble");
            }
        }
    }
}
