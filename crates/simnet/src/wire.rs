//! Variable-length integer primitives shared by the wire codecs.
//!
//! LEB128-style base-128 varints: each byte carries seven payload bits
//! (least-significant group first) and a continuation flag in the top bit.
//! Small values — sequence numbers, peer ids, lengths, intern-table slots —
//! encode in one or two bytes instead of a fixed eight, which is where most
//! of the binary codec's size win over the old fixed-width frames comes
//! from. Decoding rejects truncated input and over-long encodings (more
//! than [`MAX_UVARINT_LEN`] bytes or bits beyond the 64th), so a parser
//! built on [`get_uvarint`] is total over arbitrary bytes.
//!
//! Used by the provider's binary signaling/P2P codec and by the WebRTC
//! data-channel chunk header; it lives here because `pdn-simnet` is below
//! both of those crates in the dependency graph.

use bytes::BufMut;

/// Maximum encoded size of a `u64` varint (ten 7-bit groups cover 64 bits).
pub const MAX_UVARINT_LEN: usize = 10;

/// Appends `v` as a base-128 varint, least-significant group first.
pub fn put_uvarint<B: BufMut>(buf: &mut B, mut v: u64) {
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(group);
            return;
        }
        buf.put_u8(group | 0x80);
    }
}

/// Reads a varint at `data[*off..]`, advancing `off` past it.
///
/// Returns `None` on truncation, on an encoding longer than
/// [`MAX_UVARINT_LEN`] bytes, or when a continuation sets bits above the
/// 64th (`off` is left wherever parsing stopped; callers treat `None` as a
/// malformed frame and discard it whole).
pub fn get_uvarint(data: &[u8], off: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let b = *data.get(*off)?;
        *off += 1;
        if shift == 63 && b > 1 {
            return None; // bits beyond u64::MAX
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encoded size of `v` in bytes (1..=[`MAX_UVARINT_LEN`]).
#[cfg(test)]
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        let cases: &[(u64, &[u8])] = &[
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (
                u64::MAX,
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            ),
        ];
        for (v, expect) in cases {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, *v);
            assert_eq!(&buf[..], *expect, "encoding of {v}");
            assert_eq!(buf.len(), uvarint_len(*v), "length of {v}");
            let mut off = 0;
            assert_eq!(get_uvarint(&buf, &mut off), Some(*v));
            assert_eq!(off, buf.len());
        }
    }

    #[test]
    fn truncated_and_overlong_rejected() {
        let mut off = 0;
        assert_eq!(
            get_uvarint(&[0x80], &mut off),
            None,
            "dangling continuation"
        );
        // Eleven continuation bytes: longer than any valid u64 encoding.
        let overlong = [0x80u8; 11];
        let mut off = 0;
        assert_eq!(get_uvarint(&overlong, &mut off), None);
        // 10-byte encoding whose last group sets bits above the 64th.
        let too_big = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut off = 0;
        assert_eq!(get_uvarint(&too_big, &mut off), None);
    }

    #[test]
    fn consecutive_varints_decode_in_order() {
        let values = [0u64, 300, u64::MAX, 127, 1 << 35];
        let mut buf = Vec::new();
        for v in values {
            put_uvarint(&mut buf, v);
        }
        let mut off = 0;
        for v in values {
            assert_eq!(get_uvarint(&buf, &mut off), Some(v));
        }
        assert_eq!(off, buf.len());
        assert_eq!(get_uvarint(&buf, &mut off), None, "input exhausted");
    }

    /// Each further seven bits of magnitude costs one more byte.
    #[test]
    fn length_steps_at_each_seven_bit_boundary() {
        for k in 1..=9u32 {
            let edge = 1u64 << (7 * k);
            assert_eq!(uvarint_len(edge - 1), k as usize);
            assert_eq!(uvarint_len(edge), k as usize + 1);
        }
        assert_eq!(uvarint_len(u64::MAX), MAX_UVARINT_LEN);
    }

    /// The decoder does not insist on the shortest form: a padded zero
    /// group still reads back the value.
    #[test]
    fn padded_encoding_is_accepted() {
        let mut off = 0;
        assert_eq!(get_uvarint(&[0x81, 0x80, 0x00], &mut off), Some(1));
        assert_eq!(off, 3);
    }

    proptest! {
        #[test]
        fn roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            prop_assert_eq!(buf.len(), uvarint_len(v));
            prop_assert!(buf.len() <= MAX_UVARINT_LEN);
            let mut off = 0;
            prop_assert_eq!(get_uvarint(&buf, &mut off), Some(v));
            prop_assert_eq!(off, buf.len());
        }

        #[test]
        fn decode_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..24)) {
            let mut off = 0;
            let _ = get_uvarint(&garbage, &mut off);
            prop_assert!(off <= garbage.len());
        }
    }
}
