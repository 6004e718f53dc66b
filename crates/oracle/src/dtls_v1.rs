//! The pre-fast-path DTLS record path (keystream version 1), as pure
//! functions of the record keys.
//!
//! Every call allocates its header, ciphertext and MAC-input buffers, runs
//! a full HMAC key schedule through [`crate::reference`], and derives the
//! keystream with one fresh, padded SHA-256 per 32 output bytes. The record
//! layout (header ‖ ciphertext ‖ 16-byte tag) is the production one
//! (`pdn_webrtc::dtls`), so `crypto_bench` can time old against new on
//! records of identical size. Version-1 records only open under
//! [`open_v1`]: production endpoints use AES-128-GCM.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_webrtc::dtls::MAX_RECORD_PLAINTEXT;

use crate::reference;

/// Application-data record header: type (1) + version (2) + seq (8) + len (2).
const HEADER_LEN: usize = 13;
/// Truncated record-MAC length appended to each record.
const TAG_LEN: usize = 16;
const CT_APPDATA: u8 = 23;
const VERSION: [u8; 2] = [0xfe, 0xfd];

/// XORs `buf` with the version-1 keystream derived from `(key, seq)`: one
/// full SHA-256 (fresh hasher, key re-absorbed, padded finalization) per
/// 32 bytes of output.
pub fn apply_keystream_v1(key: &[u8; 32], seq: u64, buf: &mut [u8]) {
    for (block_idx, block) in buf.chunks_mut(32).enumerate() {
        let mut h = reference::Sha256::new();
        h.update(key);
        h.update(&seq.to_be_bytes());
        h.update(&(block_idx as u64).to_be_bytes());
        let ks = h.finalize();
        for (b, k) in block.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// Seals `plaintext` as record `seq`: header, v1-keystream ciphertext, and
/// the truncated HMAC over header + ciphertext under `mac_key`.
///
/// # Panics
///
/// Panics if `plaintext` exceeds [`MAX_RECORD_PLAINTEXT`], which the
/// record's 16-bit length field could not carry faithfully.
pub fn seal_v1(mac_key: &[u8; 32], write_key: &[u8; 32], seq: u64, plaintext: &[u8]) -> Bytes {
    assert!(
        plaintext.len() <= MAX_RECORD_PLAINTEXT,
        "record plaintext over the DTLS limit"
    );
    let mut header = BytesMut::with_capacity(HEADER_LEN);
    header.put_u8(CT_APPDATA);
    header.put_slice(&VERSION);
    header.put_u64(seq);
    header.put_u16((plaintext.len() + TAG_LEN) as u16);

    let mut ct = plaintext.to_vec();
    apply_keystream_v1(write_key, seq, &mut ct);
    let mut mac_input = header.to_vec();
    mac_input.extend_from_slice(&ct);
    let tag = reference::hmac_sha256(mac_key, &mac_input);

    let mut out = BytesMut::with_capacity(HEADER_LEN + ct.len() + TAG_LEN);
    out.put_slice(&header);
    out.put_slice(&ct);
    out.put_slice(&tag[..TAG_LEN]);
    out.freeze()
}

/// Opens a record sealed by [`seal_v1`]. `None` if the record is malformed,
/// its tag does not verify, or it does not carry sequence number `seq`.
pub fn open_v1(mac_key: &[u8; 32], write_key: &[u8; 32], seq: u64, record: &[u8]) -> Option<Bytes> {
    if record.len() < HEADER_LEN + TAG_LEN || record[0] != CT_APPDATA || record[1..3] != VERSION {
        return None;
    }
    if u64::from_be_bytes(record[3..11].try_into().ok()?) != seq {
        return None;
    }
    let (header_and_ct, tag) = record.split_at(record.len() - TAG_LEN);
    let expect = reference::hmac_sha256(mac_key, header_and_ct);
    if !pdn_crypto::ct_eq(&expect[..TAG_LEN], tag) {
        return None;
    }
    let mut pt = header_and_ct[HEADER_LEN..].to_vec();
    apply_keystream_v1(write_key, seq, &mut pt);
    Some(Bytes::from(pt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_record_roundtrips_and_rejects_tampering() {
        let (mac, key) = ([1u8; 32], [2u8; 32]);
        let rec = seal_v1(&mac, &key, 5, b"baseline payload");
        assert!(pdn_webrtc::dtls::is_dtls(&rec));
        assert_eq!(
            &open_v1(&mac, &key, 5, &rec).unwrap()[..],
            b"baseline payload"
        );
        assert!(open_v1(&mac, &key, 6, &rec).is_none(), "wrong seq");
        let mut bad = rec.to_vec();
        bad[HEADER_LEN] ^= 1;
        assert!(open_v1(&mac, &key, 5, &bad).is_none(), "flipped ciphertext");
    }
}
