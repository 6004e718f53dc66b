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
//! # Bytes copied once
//!
//! - **Send.** [`DataChannel::send_message`] takes the message as parts
//!   (the P2P header and the segment bytes, say). Each record is built in
//!   its own exact-size buffer: record header, chunk varints, the chunk
//!   body gathered from the parts, in-place encryption, tag. Nothing is
//!   staged.
//! - **Receive.** Each record is opened into one reused scratch buffer and
//!   its chunk body copied, while hot, into place. A multi-record message
//!   reserves `total × CHUNK_DATA` on its first chunk, and on completion
//!   that buffer becomes the message [`Bytes`] without another copy.
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
//!   record can never complete. [`DataChannel::evicted_partials`] counts
//!   them.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_simnet::wire::{get_uvarint, put_uvarint, uvarint_len, MAX_UVARINT_LEN};
use pdn_simnet::FxHashMap;

use crate::dtls::{DtlsEndpoint, DtlsError, MAX_RECORD_PLAINTEXT};

/// Worst-case chunk header: varint msg_id (u64), chunk_idx, total_chunks.
/// Real headers are 3–12 bytes early in a session; budgeting the maximum
/// keeps `CHUNK_DATA` a compile-time constant.
const MAX_CHUNK_HEADER: usize = 3 * MAX_UVARINT_LEN;
const CHUNK_DATA: usize = MAX_RECORD_PLAINTEXT - MAX_CHUNK_HEADER;

/// The largest message the channel sends or reassembles: 16 MiB, four
/// times a 4-second segment at 8 Mbit/s and five times Table VI's 3 MB
/// segment.
pub const MAX_MESSAGE_SIZE: usize = 16 << 20;

/// Upper bound on `total_chunks` accepted from the wire.
const MAX_CHUNKS: u64 = MAX_MESSAGE_SIZE.div_ceil(CHUNK_DATA) as u64;

/// A multi-record message being reassembled.
#[derive(Debug)]
struct Partial {
    /// Chunk `idx` lives at `idx × CHUNK_DATA`. A gap ahead of an
    /// out-of-order chunk is zero-filled until its own chunk lands.
    buf: Vec<u8>,
    /// Bit `idx` is set once chunk `idx` has been placed.
    placed: Vec<u64>,
    received: usize,
    total: usize,
}

impl Partial {
    fn new(total: usize) -> Self {
        Partial {
            buf: Vec::with_capacity(total * CHUNK_DATA),
            placed: vec![0; total.div_ceil(64)],
            received: 0,
            total,
        }
    }

    /// Copies chunk `idx` into place; `false` for a duplicate. The body
    /// must already satisfy the chunk layout.
    fn place(&mut self, idx: usize, body: &[u8]) -> bool {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.placed[word] & bit != 0 {
            return false;
        }
        self.placed[word] |= bit;
        self.received += 1;
        let off = idx * CHUNK_DATA;
        if off > self.buf.len() {
            self.buf.resize(off, 0);
        }
        if off == self.buf.len() {
            self.buf.extend_from_slice(body);
        } else {
            // A full non-final chunk filling a gap left by a later one.
            self.buf[off..off + body.len()].copy_from_slice(body);
        }
        true
    }
}

/// The receive half's reassembly state, apart from the endpoint so a record
/// opened into the channel's scratch can be placed without moving it.
#[derive(Debug, Default)]
struct Reassembly {
    partials: FxHashMap<u64, Partial>,
    evicted: u64,
}

impl Reassembly {
    fn ingest(&mut self, frame: &[u8]) -> Result<Option<Bytes>, DtlsError> {
        let mut off = 0usize;
        let msg_id = get_uvarint(frame, &mut off).ok_or(DtlsError::BadRecord)?;
        let idx = get_uvarint(frame, &mut off).ok_or(DtlsError::BadRecord)?;
        let total = get_uvarint(frame, &mut off).ok_or(DtlsError::BadRecord)?;
        if total == 0 || total > MAX_CHUNKS || idx >= total {
            return Err(DtlsError::BadRecord);
        }
        let (idx, total) = (idx as usize, total as usize);
        let body = &frame[off..];
        if body.len() > CHUNK_DATA || (idx + 1 < total && body.len() != CHUNK_DATA) {
            return Err(DtlsError::BadRecord);
        }
        if total == 1 {
            // Single-record message (all control traffic): no partial-map
            // entry, one exact-size copy out of the scratch.
            return Ok(Some(Bytes::copy_from_slice(body)));
        }
        let partial = self
            .partials
            .entry(msg_id)
            .or_insert_with(|| Partial::new(total));
        if partial.total != total {
            return Err(DtlsError::BadRecord);
        }
        if !partial.place(idx, body) || partial.received < total {
            return Ok(None);
        }
        let done = self.partials.remove(&msg_id).expect("just placed");
        let before = self.partials.len();
        self.partials.retain(|&id, _| id > msg_id);
        self.evicted += (before - self.partials.len()) as u64;
        Ok(Some(Bytes::from(done.buf)))
    }
}

/// A cursor over a message given as parts, handing out consecutive runs.
struct Gather<'a> {
    parts: &'a [&'a [u8]],
    part: usize,
    off: usize,
}

impl Gather<'_> {
    /// Appends the next `n` message bytes to `out`.
    fn take_into(&mut self, mut n: usize, out: &mut BytesMut) {
        while n > 0 {
            let part = self.parts[self.part];
            let run = n.min(part.len() - self.off);
            out.put_slice(&part[self.off..self.off + run]);
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
    /// Reused plaintext buffer every received record is opened into.
    scratch: BytesMut,
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
            scratch: BytesMut::new(),
            reassembly: Reassembly::default(),
        }
    }

    /// Access to the underlying DTLS endpoint.
    pub fn dtls(&self) -> &DtlsEndpoint {
        &self.dtls
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
            let header = uvarint_len(msg_id) + uvarint_len(idx as u64) + uvarint_len(total as u64);
            let mut record = BytesMut::new();
            self.dtls.seal_with(header + body, &mut record, |out| {
                put_uvarint(out, msg_id);
                put_uvarint(out, idx as u64);
                put_uvarint(out, total as u64);
                src.take_into(body, out);
            })?;
            records.push(record.freeze());
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
        self.dtls.open_into(record, &mut self.scratch)?;
        self.reassembly.ingest(&self.scratch)
    }

    /// Feeds a burst of wire records in one pass; completed messages are
    /// appended to `msgs` in record order.
    ///
    /// Records that fail authentication, replay, or chunk framing are
    /// skipped — the same outcome as the per-record receive path, where the
    /// harness drops erroring records. The whole burst, opening and
    /// placement copies alike, runs under one crypto profiler phase.
    pub fn receive_batch(&mut self, records: &[Bytes], msgs: &mut Vec<Bytes>) {
        let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
        for record in records {
            if self.dtls.open_into(record, &mut self.scratch).is_err() {
                continue;
            }
            if let Ok(Some(msg)) = self.reassembly.ingest(&self.scratch) {
                msgs.push(msg);
            }
        }
    }

    /// Feeds an already-decrypted chunk frame (used when the harness opened
    /// a record on the raw endpoint during implicit handshake completion).
    ///
    /// # Errors
    ///
    /// [`DtlsError::BadRecord`] for malformed chunk frames.
    pub fn ingest_plaintext(&mut self, frame: &[u8]) -> Result<Option<Bytes>, DtlsError> {
        self.reassembly.ingest(frame)
    }

    /// Number of messages with outstanding chunks.
    pub fn pending_messages(&self) -> usize {
        self.reassembly.partials.len()
    }

    /// Partial messages dropped because a later multi-record message
    /// completed first (see the module docs).
    pub fn evicted_partials(&self) -> u64 {
        self.reassembly.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use crate::dtls::handshake;
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
        b.receive_batch(&[r0[0].clone(), r0[2].clone()], &mut msgs);
        assert_eq!(b.pending_messages(), 1);
        b.receive_batch(&r1[..1], &mut msgs);
        assert_eq!(b.pending_messages(), 2, "nothing evicted before completion");
        b.receive_batch(&r1[1..], &mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], &vec![2u8; CHUNK_DATA + 9][..]);
        assert_eq!(b.pending_messages(), 0);
        assert_eq!(b.evicted_partials(), 1);
        // A single-record message completing evicts nothing.
        let r2 = a.send_message(&[&vec![3u8; CHUNK_DATA * 2]]).unwrap();
        let r3 = a.send_message(&[b"ping"]).unwrap();
        b.receive_batch(&[r2[0].clone(), r3[0].clone()], &mut msgs);
        assert_eq!((b.pending_messages(), b.evicted_partials()), (1, 1));
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
        // each conforming chunk frame with `seal_into`, on a twin endpoint
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
            let mut rec = BytesMut::new();
            let want = frames(msg_id, &whole);
            assert_eq!(records.len(), want.len());
            for (i, (got, f)) in records.iter().zip(&want).enumerate() {
                twin.seal_into(f, &mut rec).unwrap();
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
        b.receive_batch(&records, &mut msgs);
        assert_eq!(&msgs[0][..], b"after");
    }

    #[test]
    fn receive_batch_rejects_every_record_of_another_session() {
        // A burst sealed under another session's keys authenticates nowhere:
        // nothing is delivered and nothing is left pending.
        let (mut stranger, _) = channel_pair();
        let mut b = DataChannel::new(endpoints(10).1);
        let records = stranger
            .send_message(&[&vec![5u8; 3 * CHUNK_DATA]])
            .unwrap();
        let mut msgs = Vec::new();
        b.receive_batch(&records, &mut msgs);
        assert!(msgs.is_empty());
        assert_eq!(b.pending_messages(), 0);
        for r in &records {
            assert_eq!(b.receive_record(r), Err(DtlsError::BadRecord));
        }
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
    fn receive_batch_reassembles_multi_record_message() {
        let (mut a, mut b) = channel_pair();
        let payload: Vec<u8> = (0..3 * CHUNK_DATA + 17).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&[&payload]).unwrap();
        assert_eq!(records.len(), 4);
        let mut msgs = Vec::new();
        b.receive_batch(&records, &mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], payload.as_slice());
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    fn receive_batch_skips_damaged_records() {
        let (mut a, mut b) = channel_pair();
        let m1 = a.send_message(&[b"first"]).unwrap();
        let m2 = a.send_message(&[b"second"]).unwrap();
        let m3 = a.send_message(&[b"third"]).unwrap();
        let mut bad = m2[0].to_vec();
        let n = bad.len();
        bad[n - 1] ^= 1;
        let wire = vec![m1[0].clone(), Bytes::from(bad), m3[0].clone()];
        let mut msgs = Vec::new();
        b.receive_batch(&wire, &mut msgs);
        assert_eq!(msgs.len(), 2);
        assert_eq!(&msgs[0][..], b"first");
        assert_eq!(&msgs[1][..], b"third");
    }

    #[test]
    fn receive_batch_drops_segment_with_one_flipped_ciphertext_byte() {
        // A 3 MB segment (Table VI size) through the burst path: one flipped
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
        b.receive_batch(&wire, &mut msgs);
        assert!(msgs.is_empty(), "damaged segment must not be delivered");
        assert_eq!(b.pending_messages(), 1);

        // The undamaged burst, on a fresh receiver, delivers the segment.
        let (_, mut fresh) = channel_pair();
        fresh.receive_batch(&records, &mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], payload.as_slice());
    }

    #[test]
    fn receive_batch_matches_per_record_path() {
        let (mut a, mut b_batch) = channel_pair();
        let (mut a2, mut b_seq) = channel_pair();
        let payload: Vec<u8> = (0..2 * CHUNK_DATA + 5).map(|i| (i % 101) as u8).collect();
        let records = a.send_message(&[&payload]).unwrap();
        let records2 = a2.send_message(&[&payload]).unwrap();
        assert_eq!(records, records2, "seeded pairs seal identically");
        let mut msgs = Vec::new();
        b_batch.receive_batch(&records, &mut msgs);
        let mut seq_msgs = Vec::new();
        for r in &records {
            if let Some(m) = b_seq.receive_record(r).unwrap() {
                seq_msgs.push(m);
            }
        }
        assert_eq!(msgs, seq_msgs);
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
    //! damaged burst is judged record for record like the per-record path,
    //! and reassembly from any mix of shuffled, duplicated, mis-sized or
    //! forged-total chunk frames yields the exact message or `BadRecord`.

    use super::tests::{endpoints, frame, frames};
    use super::*;
    use pdn_simnet::SimRng;
    use proptest::prelude::*;

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
            let mut rec = BytesMut::new();
            for (i, f) in want.iter().enumerate() {
                twin.seal_into(f, &mut rec).unwrap();
                prop_assert_eq!(&records[i][..], &rec[..], "record {}", i);
            }
        }

        #[test]
        fn receive_batch_matches_per_record_under_damage(
            lens in proptest::collection::vec(0usize..2 * CHUNK_DATA + 10, 1..4),
            muts in proptest::collection::vec((0u8..4, any::<u32>()), 12),
        ) {
            // Several messages' bursts, then per record either keep,
            // truncate, flip one bit, or replace with a copy of the previous
            // wire record (a mid-burst replay). The burst path must deliver
            // exactly what the per-record path delivers.
            let (c, _) = endpoints(99);
            let mut tx = DataChannel::new(c);
            let mut wire: Vec<Bytes> = Vec::new();
            for (m, &len) in lens.iter().enumerate() {
                let message: Vec<u8> = (0..len).map(|i| (i + m) as u8).collect();
                wire.extend(tx.send_message(&[&message]).unwrap());
            }
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
                    _ => rec,
                };
            }
            let (_, s_batch) = endpoints(99);
            let (_, s_seq) = endpoints(99);
            let (mut rx_batch, mut rx_seq) = (DataChannel::new(s_batch), DataChannel::new(s_seq));
            let mut batch = Vec::new();
            rx_batch.receive_batch(&wire, &mut batch);
            let mut seq = Vec::new();
            for r in &wire {
                if let Ok(Some(m)) = rx_seq.receive_record(r) {
                    seq.push(m);
                }
            }
            prop_assert_eq!(batch, seq);
            prop_assert_eq!(rx_batch.pending_messages(), rx_seq.pending_messages());
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
                match rx.ingest(f) {
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
