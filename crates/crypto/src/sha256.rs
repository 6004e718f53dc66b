//! SHA-256 as specified by FIPS 180-4, with a fast compression path.
//!
//! Used for integrity metadata (IM) hashes in the peer-assisted integrity
//! checking defense, for JWT HS256 signatures (via [`crate::hmac`]), and for
//! key derivation and the handshake transcript in the simulated DTLS layer.
//!
//! The compression function is fully unrolled: the 64 rounds are expanded by
//! macro with the working variables rotated by renaming (no eight-way
//! register shuffle per round) and the message schedule kept as a rolling
//! 16-word window computed in the same pass as the rounds (no separate
//! 64-entry expansion loop or array). `update` feeds block-aligned input to
//! the compressor straight from the caller's slice, skipping the staging
//! buffer. The pre-optimization implementation lives on as a test oracle
//! in the `pdn-oracle` crate, which the differential tests and
//! `crypto_bench` compare against.
//!
//! [`Midstate`] exposes the chaining value at a block boundary so callers
//! with a fixed prefix (the HMAC pads) can pay its compressions
//! once and resume hashing many times — see [`crate::hmac::HmacKey`].

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One SHA-256 round. The caller rotates the eight working variables by
/// renaming (the `a..h` arguments cycle), so the round body only writes the
/// two registers that actually change.
macro_rules! rnd {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $k:expr, $w:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k)
            .wrapping_add($w);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    }};
}

/// Message-schedule word for rounds 0..16: read straight from the window.
macro_rules! w_direct {
    ($w:ident, $i:expr) => {
        $w[$i & 15]
    };
}

/// Message-schedule word for rounds 16..64: extend the rolling 16-word
/// window in place (`w[i mod 16] += σ0(w[i-15]) + w[i-7] + σ1(w[i-2])`).
macro_rules! w_sched {
    ($w:ident, $i:expr) => {{
        let w15 = $w[($i + 1) & 15];
        let w2 = $w[($i + 14) & 15];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        let nw = $w[$i & 15]
            .wrapping_add(s0)
            .wrapping_add($w[($i + 9) & 15])
            .wrapping_add(s1);
        $w[$i & 15] = nw;
        nw
    }};
}

/// Sixteen unrolled rounds starting at `$base` (a multiple of 16), pulling
/// schedule words through `$get` (direct reads or rolling extension).
// One row per round: the 8-argument rotation is the whole point, and
// rustfmt's one-argument-per-line layout would bury it.
#[rustfmt::skip]
macro_rules! sixteen {
    ($get:ident, $base:expr,
     $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $w:ident) => {
        rnd!($a, $b, $c, $d, $e, $f, $g, $h, K[$base], $get!($w, $base));
        rnd!($h, $a, $b, $c, $d, $e, $f, $g, K[$base + 1], $get!($w, $base + 1));
        rnd!($g, $h, $a, $b, $c, $d, $e, $f, K[$base + 2], $get!($w, $base + 2));
        rnd!($f, $g, $h, $a, $b, $c, $d, $e, K[$base + 3], $get!($w, $base + 3));
        rnd!($e, $f, $g, $h, $a, $b, $c, $d, K[$base + 4], $get!($w, $base + 4));
        rnd!($d, $e, $f, $g, $h, $a, $b, $c, K[$base + 5], $get!($w, $base + 5));
        rnd!($c, $d, $e, $f, $g, $h, $a, $b, K[$base + 6], $get!($w, $base + 6));
        rnd!($b, $c, $d, $e, $f, $g, $h, $a, K[$base + 7], $get!($w, $base + 7));
        rnd!($a, $b, $c, $d, $e, $f, $g, $h, K[$base + 8], $get!($w, $base + 8));
        rnd!($h, $a, $b, $c, $d, $e, $f, $g, K[$base + 9], $get!($w, $base + 9));
        rnd!($g, $h, $a, $b, $c, $d, $e, $f, K[$base + 10], $get!($w, $base + 10));
        rnd!($f, $g, $h, $a, $b, $c, $d, $e, K[$base + 11], $get!($w, $base + 11));
        rnd!($e, $f, $g, $h, $a, $b, $c, $d, K[$base + 12], $get!($w, $base + 12));
        rnd!($d, $e, $f, $g, $h, $a, $b, $c, K[$base + 13], $get!($w, $base + 13));
        rnd!($c, $d, $e, $f, $g, $h, $a, $b, K[$base + 14], $get!($w, $base + 14));
        rnd!($b, $c, $d, $e, $f, $g, $h, $a, K[$base + 15], $get!($w, $base + 15));
    };
}

/// The SHA-256 compression function: folds one 64-byte block into `state`.
///
/// Dispatches to the SHA-NI hardware compressor when the CPU has it (the
/// detection result is cached by the standard library, so the steady-state
/// cost is one relaxed atomic load) and to the unrolled software compressor
/// otherwise. Both produce identical output.
#[inline]
pub(crate) fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if ni::available() {
        ni::compress(state, block);
        return;
    }
    compress_block_soft(state, block);
}

/// Whether compression runs on the CPU's SHA extensions on this host.
///
/// Benchmarks use this to annotate results; output is identical either way.
pub fn hw_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        ni::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Portable compression: fully unrolled rounds with a rolling schedule.
// The rolling window's writes in the last two rounds are never read back;
// keeping the macro uniform beats special-casing them.
#[allow(unused_assignments)]
#[inline]
fn compress_block_soft(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    sixteen!(w_direct, 0, a, b, c, d, e, f, g, h, w);
    sixteen!(w_sched, 16, a, b, c, d, e, f, g, h, w);
    sixteen!(w_sched, 32, a, b, c, d, e, f, g, h, w);
    sixteen!(w_sched, 48, a, b, c, d, e, f, g, h, w);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-NI hardware compression (x86-64 SHA extensions).
///
/// The CPU executes four rounds per `sha256rnds2`/shuffle pair and extends
/// the message schedule with `sha256msg1`/`sha256msg2`, so one block costs
/// a couple dozen instructions instead of 64 scalar round bodies. State is
/// kept in the (ABEF, CDGH) lane layout the instructions expect and
/// repacked to the FIPS word order on store, so the output is bit-identical
/// to [`compress_block_soft`] — the differential tests below and the
/// RFC 4231 vectors in [`crate::hmac`] exercise whichever backend the host
/// selects.
///
/// This and the hardware backend of [`crate::aes_gcm`] are the crate's only
/// unsafe code: the intrinsics require `unsafe` plus a `target_feature`
/// gate, and every entry point first checks CPU support at runtime (cached
/// by `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::*;

    /// Whether this CPU has the SHA extensions (plus the SSE levels the
    /// byte shuffles need). Cached by the standard library after the first
    /// call.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Safe wrapper: the caller must have seen `available()` return true.
    #[inline]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        debug_assert!(available());
        // SAFETY: `compress_block` only takes this path after `available()`
        // confirmed the sha/ssse3/sse4.1 target features at runtime.
        unsafe { compress_sha_ni(state, block) }
    }

    /// Four rounds: add the round constants to the schedule words, run two
    /// `sha256rnds2` (each consumes two words from the low lanes).
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let kv = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, kv);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, wk_hi);
        }};
    }

    /// Extends the schedule by four words
    /// (`w[i] = σ1(w[i-2]) + w[i-7] + σ0(w[i-15]) + w[i-16]`, vectorized)
    /// and runs four rounds with them.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident,
         $w0:ident, $w1:ident, $w2:ident, $w3:ident, $w4:ident, $i:expr) => {{
            let t = _mm_sha256msg1_epu32($w0, $w1);
            let t = _mm_add_epi32(t, _mm_alignr_epi8($w3, $w2, 4));
            $w4 = _mm_sha256msg2_epu32(t, $w3);
            rounds4!($abef, $cdgh, $w4, $i);
        }};
    }

    #[allow(unused_assignments)]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        // Big-endian load shuffle for the four 32-bit words in each lane.
        let be_shuffle = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into the (ABEF, CDGH) lane order.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let badc = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(badc, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, badc, 0xF0);
        let abef_save = abef;
        let cdgh_save = cdgh;

        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), be_shuffle);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), be_shuffle);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), be_shuffle);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), be_shuffle);
        let mut w4 = _mm_setzero_si128();

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
        schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
        schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
        schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
        schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
        schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
        schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);

        let abef = _mm_add_epi32(abef, abef_save);
        let cdgh = _mm_add_epi32(cdgh, cdgh_save);

        // Repack to FIPS word order and store.
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

/// A SHA-256 chaining value captured at a block boundary.
///
/// A midstate is the hash state after absorbing some whole number of
/// 64-byte blocks. Cloning one and resuming via [`Sha256::from_midstate`]
/// replays that prefix for free, which is what makes amortized HMAC keys
/// ([`crate::hmac::HmacKey`]) cheap: the expensive prefix compressions run
/// once per key instead of once per MAC.
///
/// # Examples
///
/// ```
/// use pdn_crypto::sha256::{self, Sha256, BLOCK_LEN};
///
/// let prefix = [0x36u8; BLOCK_LEN];
/// let mut h = Sha256::new();
/// h.update(&prefix);
/// let mid = h.midstate();
///
/// // Resuming from the midstate is equivalent to rehashing the prefix.
/// let mut resumed = Sha256::from_midstate(mid, BLOCK_LEN as u64);
/// resumed.update(b"suffix");
/// let mut full = Sha256::new();
/// full.update(&prefix);
/// full.update(b"suffix");
/// assert_eq!(resumed.finalize(), full.finalize());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Midstate {
    state: [u32; 8],
}

#[inline]
fn state_to_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (o, w) in out.chunks_exact_mut(4).zip(state.iter()) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use pdn_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     pdn_crypto::hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Captures the current chaining value as a [`Midstate`].
    ///
    /// # Panics
    ///
    /// Panics if the absorbed length is not a multiple of [`BLOCK_LEN`]
    /// (the chaining value only exists at block boundaries).
    pub fn midstate(&self) -> Midstate {
        assert_eq!(
            self.buf_len, 0,
            "midstate requires a block-aligned absorbed length"
        );
        Midstate { state: self.state }
    }

    /// Resumes hashing from `midstate`, which was captured after absorbing
    /// `absorbed` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `absorbed` is not a multiple of [`BLOCK_LEN`].
    pub fn from_midstate(midstate: Midstate, absorbed: u64) -> Self {
        assert_eq!(
            absorbed % BLOCK_LEN as u64,
            0,
            "midstates exist only at block boundaries"
        );
        Sha256 {
            state: midstate.state,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Block-aligned input is compressed directly from `data` without
    /// passing through the internal staging buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let want = BLOCK_LEN - self.buf_len;
            let take = want.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress_block(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in blocks.by_ref() {
            compress_block(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80, zero-fill to the length field (spilling into a second
        // block when fewer than 9 bytes remain), then the 64-bit big-endian
        // bit length — one or two compressions, no byte-by-byte loop.
        let len = self.buf_len;
        self.buf[len] = 0x80;
        if len < 56 {
            self.buf[len + 1..56].fill(0);
            self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
            let block = self.buf;
            compress_block(&mut self.state, &block);
        } else {
            self.buf[len + 1..].fill(0);
            let block = self.buf;
            compress_block(&mut self.state, &block);
            let mut last = [0u8; BLOCK_LEN];
            last[56..].copy_from_slice(&bit_len.to_be_bytes());
            compress_block(&mut self.state, &last);
        }
        state_to_bytes(&self.state)
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = pdn_crypto::sha256::digest(b"");
/// assert_eq!(
///     pdn_crypto::hex(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // FIPS 180-4 example: 448-bit message crossing the padding boundary.
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn update_byte_by_byte() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for &b in data.iter() {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), digest(data));
    }

    #[test]
    fn midstate_resume_matches_full_hash() {
        let prefix: Vec<u8> = (0..128u8).collect(); // two whole blocks
        let suffix = b"tail that is not block aligned";
        let mut h = Sha256::new();
        h.update(&prefix);
        let mid = h.midstate();

        let mut resumed = Sha256::from_midstate(mid, prefix.len() as u64);
        resumed.update(suffix);

        let mut full = Sha256::new();
        full.update(&prefix);
        full.update(suffix);
        assert_eq!(resumed.finalize(), full.finalize());
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn midstate_rejects_unaligned_capture() {
        let mut h = Sha256::new();
        h.update(b"not a block");
        let _ = h.midstate();
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_compression_matches_software() {
        if !ni::available() {
            eprintln!("note: no SHA-NI on this host; dispatch test is vacuous");
            return;
        }
        // Drive both compressors over varied chained blocks; any lane
        // repacking or schedule bug diverges within a round or two.
        let mut soft = H0;
        let mut hard = H0;
        let mut block = [0u8; BLOCK_LEN];
        for round in 0..64u32 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = (i as u32).wrapping_mul(97).wrapping_add(round * 131) as u8;
            }
            compress_block_soft(&mut soft, &block);
            ni::compress(&mut hard, &block);
            assert_eq!(soft, hard, "diverged at block {round}");
        }
    }
}
