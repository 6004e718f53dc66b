//! Allocation pins for the data channel, measured with a counting global
//! allocator (same stance as provider's `join_alloc`): a 3 MB message
//! costs a fixed number of allocations to send and to receive — the
//! record list and one exact-size buffer per record on the send side, one
//! reassembly buffer for the whole message on the receive side, each
//! buffer plus the `Bytes` handle that shares it, and no staging, scratch
//! or re-copy buffers on either — and a record whose header claims more
//! than the max message size allocates no more than one chunk.
//!
//! The counters are per thread, so the tests can run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use pdn_simnet::wire::put_uvarint;
use pdn_simnet::SimRng;
use pdn_webrtc::channel::MAX_MESSAGE_SIZE;
use pdn_webrtc::dtls::{handshake, MAX_RECORD_PLAINTEXT};
use pdn_webrtc::{Certificate, DataChannel, DtlsEndpoint, DtlsError};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// (allocations, bytes requested) on this thread while `f` runs.
fn measure<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0, out)
}

fn endpoints() -> (DtlsEndpoint, DtlsEndpoint) {
    let mut rng = SimRng::seed(41);
    let ccert = Certificate::generate(&mut rng);
    let scert = Certificate::generate(&mut rng);
    let (cfp, sfp) = (ccert.fingerprint(), scert.fingerprint());
    let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
    let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
    handshake(&mut c, hello, &mut s, &mut rng).expect("handshake");
    (c, s)
}

const SEGMENT: usize = 3_000_000;

/// Bytes of the shared handle `Bytes::from(Vec<u8>)` allocates: the
/// vendored `bytes` keeps the buffer in an `Arc<Vec<u8>>`.
const HANDLE: usize = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<u8>>();

/// Message bytes per record: a full record less the worst-case chunk
/// header (three 10-byte varints).
const CHUNK: usize = MAX_RECORD_PLAINTEXT - 30;

/// Feeds `records` one by one, as the SDK's per-datagram path does,
/// keeping completed messages.
fn receive_all(rx: &mut DataChannel, records: &[Bytes], msgs: &mut Vec<Bytes>) {
    for r in records {
        if let Some(m) = rx.receive_record(r).expect("intact record") {
            msgs.push(m);
        }
    }
}

#[test]
fn warm_3mb_message_send_and_receive_allocation_counts_are_pinned() {
    let (c, s) = endpoints();
    let (mut tx, mut rx) = (DataChannel::new(c), DataChannel::new(s));
    let header = [0xc1u8; 40];
    let segment: Vec<u8> = (0..SEGMENT).map(|i| (i % 251) as u8).collect();
    let mut msgs: Vec<Bytes> = Vec::with_capacity(1);

    // Warm: the receiver's partial-message map lays out its table once.
    let records = tx.send_message(&[&header, &segment]).unwrap();
    receive_all(&mut rx, &records, &mut msgs);
    assert_eq!(msgs.len(), 1);
    msgs.clear();
    let n = records.len();
    assert_eq!(n, 184, "a 3 MB segment is 184 records");

    for _ in 0..2 {
        let (send_allocs, send_bytes, records) =
            measure(|| tx.send_message(&[&header, &segment]).unwrap());
        // The record list, then per record its exact-size buffer and the
        // `Bytes` handle that shares it.
        assert_eq!(send_allocs, 1 + 2 * n as u64, "send");
        let wire: usize = records.iter().map(Bytes::len).sum();
        let list = n * std::mem::size_of::<Bytes>();
        assert_eq!(send_bytes, (list + wire + n * HANDLE) as u64, "send bytes");

        // Per record, with the same counter: the first reserves the
        // message buffer, the last wraps it in its handle, the others
        // decrypt into it and allocate nothing.
        let per_record: Vec<u64> = records
            .iter()
            .map(|r| {
                measure(|| {
                    if let Some(m) = rx.receive_record(r).expect("intact record") {
                        msgs.push(m);
                    }
                })
                .0
            })
            .collect();
        assert_eq!(per_record[0], 1, "the message buffer");
        assert_eq!(per_record[n - 1], 1, "the message's handle");
        assert!(
            per_record[1..n - 1].iter().all(|&a| a == 0),
            "{per_record:?}"
        );
        assert_eq!(&msgs[0][header.len()..], &segment[..]);
        msgs.clear();

        // The whole receive in bytes: one reservation of every chunk slot,
        // plus the handle.
        let records = tx.send_message(&[&header, &segment]).unwrap();
        let (_, recv_bytes, ()) = measure(|| receive_all(&mut rx, &records, &mut msgs));
        assert_eq!(recv_bytes, (n * CHUNK + HANDLE) as u64, "receive bytes");
        assert_eq!(&msgs[0][header.len()..], &segment[..]);
        msgs.clear();
    }
}

#[test]
fn single_record_message_is_one_exact_buffer() {
    let (c, s) = endpoints();
    let (mut tx, mut rx) = (DataChannel::new(c), DataChannel::new(s));
    for len in [0usize, 1, 31, 32, 33, 1200, CHUNK] {
        let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let records = tx.send_message(&[&msg]).unwrap();
        let (allocs, bytes, got) = measure(|| rx.receive_record(&records[0]).unwrap());
        assert_eq!(&got.expect("one record")[..], &msg[..], "len {len}");
        // The message buffer (none when empty) and its handle.
        assert_eq!(allocs, 1 + u64::from(len > 0), "len {len}");
        assert_eq!(bytes, (len + HANDLE) as u64, "len {len}");
    }
}

/// A sealed chunk frame with a hand-written header.
fn forged(tx: &mut DtlsEndpoint, msg_id: u64, total: u64, body: &[u8]) -> Bytes {
    let mut frame = bytes::BytesMut::new();
    put_uvarint(&mut frame, msg_id);
    put_uvarint(&mut frame, 0);
    put_uvarint(&mut frame, total);
    frame.extend_from_slice(body);
    let mut record = Vec::new();
    tx.seal_with(frame.len(), &mut record, |w| w.put(&frame))
        .unwrap();
    Bytes::from(record)
}

#[test]
fn forged_total_record_allocates_no_more_than_one_chunk() {
    let (mut c, s) = endpoints();
    let mut rx = DataChannel::new(s);
    let body = vec![9u8; CHUNK];
    let limit = MAX_MESSAGE_SIZE.div_ceil(CHUNK) as u64;

    // A forged total allocates nothing at all, on a cold receiver too.
    for total in [u64::MAX, limit + 1, 1 << 22, u64::MAX] {
        let record = forged(&mut c, 2, total, &body);
        let (allocs, _, res) = measure(|| rx.receive_record(&record));
        assert_eq!(res, Err(DtlsError::BadRecord), "total {total}");
        assert_eq!(allocs, 0, "total {total}");
    }

    // At the limit the reservation is bounded by the max message size.
    let record = forged(&mut c, 3, limit, &body);
    let (_, bytes, res) = measure(|| rx.receive_record(&record));
    assert_eq!(res, Ok(None));
    assert!(
        bytes <= (MAX_MESSAGE_SIZE + MAX_RECORD_PLAINTEXT) as u64 + 4096,
        "at the limit: {bytes} B"
    );
}
