//! Reliable, ordered message channel over DTLS (the SCTP data-channel role).
//!
//! Video segments are several megabytes; DTLS records carry at most
//! [`crate::dtls::MAX_RECORD_PLAINTEXT`] bytes. The channel chunks each
//! message across records and reassembles on the far side, preserving
//! message boundaries — the unit the PDN scheduler and the pollution
//! attacks operate on.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_simnet::wire::{get_uvarint, put_uvarint, MAX_UVARINT_LEN};
use pdn_simnet::FxHashMap;

use crate::dtls::{DtlsEndpoint, DtlsError, MAX_RECORD_PLAINTEXT};

/// Worst-case chunk header: varint msg_id (u64), chunk_idx, total_chunks.
/// Real headers are 3–12 bytes early in a session; budgeting the maximum
/// keeps `CHUNK_DATA` a compile-time constant.
const MAX_CHUNK_HEADER: usize = 3 * MAX_UVARINT_LEN;
const CHUNK_DATA: usize = MAX_RECORD_PLAINTEXT - MAX_CHUNK_HEADER;
/// Upper bound on `total_chunks` accepted from the wire: caps reassembly
/// memory against a forged header (≈64 GiB of claimed message at the
/// record size, far above any real segment).
const MAX_CHUNKS: u64 = 1 << 22;

#[derive(Debug)]
struct Partial {
    chunks: Vec<Option<Bytes>>,
    received: usize,
}

/// A message-oriented channel over an established [`DtlsEndpoint`].
#[derive(Debug)]
pub struct DataChannel {
    dtls: DtlsEndpoint,
    next_msg_id: u64,
    partials: FxHashMap<u64, Partial>,
    /// Reused chunk-frame staging buffers: after the first message of a
    /// given chunk count, `send_message` performs no per-chunk frame
    /// allocation. One buffer per record so a whole flush can be sealed
    /// as a single batch.
    frames: Vec<BytesMut>,
    /// Reused seal output buffers (the sealed bytes themselves leave as
    /// frozen `Bytes`, but the `Vec` and its headroom persist).
    seal_outs: Vec<BytesMut>,
    /// Reused batch-open scratch: plaintext buffers and per-record verdicts.
    open_outs: Vec<BytesMut>,
    open_results: Vec<Result<(), DtlsError>>,
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
            partials: FxHashMap::default(),
            frames: Vec::new(),
            seal_outs: Vec::new(),
            open_outs: Vec::new(),
            open_results: Vec::new(),
        }
    }

    /// Access to the underlying DTLS endpoint.
    pub fn dtls(&self) -> &DtlsEndpoint {
        &self.dtls
    }

    /// Encrypts `message` into one or more wire records.
    ///
    /// The whole flush is sealed as one DTLS batch: every chunk frame is
    /// staged first, then a single [`DtlsEndpoint::seal_batch_into`] call
    /// seals all records into the channel's reused record buffers.
    ///
    /// # Errors
    ///
    /// Propagates DTLS sealing errors.
    pub fn send_message(&mut self, message: &[u8]) -> Result<Vec<Bytes>, DtlsError> {
        let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let total = message.len().div_ceil(CHUNK_DATA).max(1) as u64;
        let n = total as usize;
        if self.frames.len() < n {
            self.frames.resize_with(n, BytesMut::new);
        }
        let mut chunks = message.chunks(CHUNK_DATA);
        for (idx, frame) in self.frames[..n].iter_mut().enumerate() {
            let body = chunks.next().unwrap_or(&[]);
            frame.clear();
            frame.reserve(MAX_CHUNK_HEADER + body.len());
            put_uvarint(frame, msg_id);
            put_uvarint(frame, idx as u64);
            put_uvarint(frame, total);
            frame.put_slice(body);
        }
        let refs: Vec<&[u8]> = self.frames[..n].iter().map(|f| f.as_ref()).collect();
        self.dtls.seal_batch_into(&refs, &mut self.seal_outs)?;
        let mut records = Vec::with_capacity(n);
        for out in &mut self.seal_outs[..n] {
            records.push(std::mem::take(out).freeze());
        }
        Ok(records)
    }

    /// Feeds one wire record; returns a complete message when reassembled.
    ///
    /// # Errors
    ///
    /// Propagates DTLS record errors; malformed chunk frames are reported as
    /// [`DtlsError::BadRecord`].
    pub fn receive_record(&mut self, record: &[u8]) -> Result<Option<Bytes>, DtlsError> {
        let frame = {
            let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
            self.dtls.open(record)?
        };
        self.ingest_plaintext(frame)
    }

    /// Feeds a burst of wire records in one pass; completed messages are
    /// appended to `msgs` in record order.
    ///
    /// All records are opened with one [`DtlsEndpoint::open_batch_into`]
    /// call before any chunk is reassembled. Records that fail authentication, replay, or chunk
    /// framing are skipped — the same outcome as the per-record receive
    /// path, where the harness drops erroring records.
    pub fn receive_batch(&mut self, records: &[Bytes], msgs: &mut Vec<Bytes>) {
        {
            let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
            self.dtls
                .open_batch_into(records, &mut self.open_outs, &mut self.open_results);
        }
        for i in 0..records.len() {
            if self.open_results[i].is_err() {
                continue;
            }
            // Moving the buffer out hands the decrypted bytes to
            // reassembly without a copy; the slot is regrown next batch.
            let frame = std::mem::take(&mut self.open_outs[i]).freeze();
            if let Ok(Some(msg)) = self.ingest_plaintext(frame) {
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
    pub fn ingest_plaintext(&mut self, frame: Bytes) -> Result<Option<Bytes>, DtlsError> {
        let mut off = 0usize;
        let msg_id = get_uvarint(&frame, &mut off).ok_or(DtlsError::BadRecord)?;
        let idx = get_uvarint(&frame, &mut off).ok_or(DtlsError::BadRecord)?;
        let total = get_uvarint(&frame, &mut off).ok_or(DtlsError::BadRecord)?;
        if total == 0 || total > MAX_CHUNKS || idx >= total {
            return Err(DtlsError::BadRecord);
        }
        let (idx, total) = (idx as usize, total as usize);
        let body = frame.slice(off..);
        if total == 1 {
            // Single-record message (all control traffic): the body slice
            // IS the message — no partial-map entry, no reassembly copy.
            return Ok(Some(body));
        }
        let partial = self.partials.entry(msg_id).or_insert_with(|| Partial {
            chunks: vec![None; total],
            received: 0,
        });
        if partial.chunks.len() != total {
            return Err(DtlsError::BadRecord);
        }
        if partial.chunks[idx].is_none() {
            partial.chunks[idx] = Some(body);
            partial.received += 1;
        }
        if partial.received == total {
            let partial = self.partials.remove(&msg_id).expect("just inserted");
            let len: usize = partial
                .chunks
                .iter()
                .map(|c| c.as_ref().map_or(0, Bytes::len))
                .sum();
            let mut out = BytesMut::with_capacity(len);
            for c in partial.chunks {
                out.put_slice(&c.expect("all chunks received"));
            }
            Ok(Some(out.freeze()))
        } else {
            Ok(None)
        }
    }

    /// Number of messages with outstanding chunks.
    pub fn pending_messages(&self) -> usize {
        self.partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use crate::dtls::handshake;
    use pdn_simnet::SimRng;

    fn channel_pair() -> (DataChannel, DataChannel) {
        let mut rng = SimRng::seed(9);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let sfp = scert.fingerprint();
        let cfp = ccert.fingerprint();
        let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
        let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
        handshake(&mut c, hello, &mut s, &mut rng).unwrap();
        (DataChannel::new(c), DataChannel::new(s))
    }

    #[test]
    fn small_message_single_record() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(b"hello").unwrap();
        assert_eq!(records.len(), 1);
        let msg = b.receive_record(&records[0]).unwrap().unwrap();
        assert_eq!(&msg[..], b"hello");
    }

    #[test]
    fn empty_message_roundtrip() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(b"").unwrap();
        assert_eq!(records.len(), 1);
        let msg = b.receive_record(&records[0]).unwrap().unwrap();
        assert!(msg.is_empty());
    }

    #[test]
    fn segment_sized_message_chunks_and_reassembles() {
        let (mut a, mut b) = channel_pair();
        // A 3 MB segment, like the Table VI evaluation.
        let payload: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&payload).unwrap();
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
        let r1 = a.send_message(&big1).unwrap();
        let r2 = a.send_message(&big2).unwrap();
        // Interleave: r1[0], r2[0], r1[1], r2[1].
        assert!(b.receive_record(&r1[0]).unwrap().is_none());
        assert!(b.receive_record(&r2[0]).unwrap().is_none());
        let m1 = b.receive_record(&r1[1]).unwrap().unwrap();
        let m2 = b.receive_record(&r2[1]).unwrap().unwrap();
        assert_eq!(&m1[..], big1.as_slice());
        assert_eq!(&m2[..], big2.as_slice());
    }

    #[test]
    fn receive_batch_reassembles_multi_record_message() {
        let (mut a, mut b) = channel_pair();
        let payload: Vec<u8> = (0..3 * CHUNK_DATA + 17).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&payload).unwrap();
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
        let m1 = a.send_message(b"first").unwrap();
        let m2 = a.send_message(b"second").unwrap();
        let m3 = a.send_message(b"third").unwrap();
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
        let records = a.send_message(&payload).unwrap();
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
        let records = a.send_message(&payload).unwrap();
        let records2 = a2.send_message(&payload).unwrap();
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
        let records = a.send_message(b"important segment").unwrap();
        let mut bad = records[0].to_vec();
        let n = bad.len();
        bad[n / 2] ^= 1;
        assert!(b.receive_record(&bad).is_err());
    }

    #[test]
    fn malformed_chunk_headers_rejected() {
        let (_, mut b) = channel_pair();
        // Empty frame and a dangling varint continuation byte.
        assert!(b.ingest_plaintext(Bytes::new()).is_err());
        assert!(b.ingest_plaintext(Bytes::from_static(&[0x80])).is_err());
        // Forged total_chunks far beyond the reassembly cap.
        let mut f = BytesMut::new();
        put_uvarint(&mut f, 1u64);
        put_uvarint(&mut f, 0u64);
        put_uvarint(&mut f, MAX_CHUNKS + 1);
        assert!(b.ingest_plaintext(f.freeze()).is_err());
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
