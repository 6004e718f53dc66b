//! AES-128-GCM (FIPS 197 + NIST SP 800-38D): the AEAD of WebRTC's
//! mandatory DTLS cipher suite `TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256`
//! (RFC 8827 §6.5), used by the simulated DTLS record layer in
//! `pdn-webrtc`.
//!
//! [`Aes128Gcm`] expands a key once and then seals or opens buffers in
//! place under a 96-bit nonce and arbitrary additional authenticated data,
//! with the full 16-byte tag. Two backends produce identical bytes; the
//! choice is made once per key, at construction:
//!
//! - **hardware** (x86-64 with AES-NI and PCLMULQDQ): eight counter blocks
//!   in flight through the AES rounds, and GHASH aggregated over eight
//!   blocks with the precomputed powers H¹..H⁸, so each 128 bytes costs one
//!   polynomial reduction. When the CPU also has AVX-512 (F and BW), VAES
//!   and VPCLMULQDQ, whole 256-byte strides run first through a 512-bit
//!   loop (sixteen blocks, four per instruction, one reduction per stride
//!   over H¹..H¹⁶) and the eight-block loop finishes the tail;
//! - **portable**: table AES (the round table is derived at compile time
//!   from an S-box that a `const fn` computes from the field inverse, not
//!   typed in) and 4-bit-table (Shoup) GHASH. It is the only path on other
//!   architectures and pre-AES-NI CPUs, and the reference the hardware path
//!   is differentially tested against ([`Aes128Gcm::new_portable`]).
//!
//! The portable backend's table lookups are indexed by secret data, so it
//! is not constant-time; like the rest of this crate it serves simulation,
//! where the adversaries are inside the model.
//!
//! # Examples
//!
//! ```
//! use pdn_crypto::aes_gcm::Aes128Gcm;
//!
//! let gcm = Aes128Gcm::new(&[7u8; 16]);
//! let nonce = [1u8; 12];
//! let mut buf = *b"segment bytes";
//! let tag = gcm.seal_in_place(&nonce, b"header", &mut buf);
//! assert_ne!(&buf, b"segment bytes");
//! assert!(gcm.open_in_place(&nonce, b"header", &mut buf, &tag));
//! assert_eq!(&buf, b"segment bytes");
//! ```

/// AES-128 key length in bytes.
pub const KEY_LEN: usize = 16;

/// GCM nonce length in bytes (the 96-bit form, `J0 = nonce ‖ 1`).
pub const NONCE_LEN: usize = 12;

/// GCM tag length in bytes (never truncated here).
pub const TAG_LEN: usize = 16;

const BLOCK: usize = 16;

/// Whether [`Aes128Gcm::new`] picks a hardware backend (`aes-ni` or
/// `vaes-avx512`, see [`Aes128Gcm::backend`]) on this host.
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

/// An expanded AES-128-GCM key: the AES round keys plus the GHASH key
/// material for the backend chosen at construction.
pub struct Aes128Gcm {
    backend: Backend,
}

enum Backend {
    Portable(portable::Key),
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Key),
}

impl std::fmt::Debug for Aes128Gcm {
    // Key material stays out of debug output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128Gcm")
            .field("backend", &self.backend())
            .finish_non_exhaustive()
    }
}

impl Aes128Gcm {
    /// Expands `key`, on the hardware backend when this CPU has AES-NI and
    /// PCLMULQDQ and on the portable one otherwise.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let round_keys = expand_key(key);
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = ni::Key::new(&round_keys) {
            return Aes128Gcm {
                backend: Backend::Ni(k),
            };
        }
        Aes128Gcm {
            backend: Backend::Portable(portable::Key::new(round_keys)),
        }
    }

    /// Expands `key` on the portable backend whatever the CPU: the
    /// differential reference for the hardware backend.
    pub fn new_portable(key: &[u8; KEY_LEN]) -> Self {
        Aes128Gcm {
            backend: Backend::Portable(portable::Key::new(expand_key(key))),
        }
    }

    /// The backend this key runs on: `"vaes-avx512"` (the 512-bit loop
    /// plus the AES-NI tail), `"aes-ni"` or `"portable"`.
    pub fn backend(&self) -> &'static str {
        match &self.backend {
            Backend::Portable(_) => "portable",
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(k) if k.is_wide() => "vaes-avx512",
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(_) => "aes-ni",
        }
    }

    /// Encrypts `buf` in place and returns the tag over `aad` and the
    /// ciphertext.
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        self.crypt(nonce, aad, buf, true)
    }

    /// Decrypts `buf` in place and checks `tag` in constant time.
    ///
    /// Decryption is speculative: on `false` the tag did not verify and
    /// `buf` holds unauthenticated bytes that the caller must discard.
    #[must_use = "on false `buf` holds unauthenticated bytes"]
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8],
    ) -> bool {
        let expect = self.crypt(nonce, aad, buf, false);
        crate::ct_eq(&expect, tag)
    }

    fn crypt(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        seal: bool,
    ) -> [u8; TAG_LEN] {
        match &self.backend {
            Backend::Portable(k) => k.crypt(nonce, aad, buf, seal),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(k) => k.crypt(nonce, aad, buf, seal),
        }
    }
}

/// The GHASH length block: bit lengths of the AAD and the ciphertext.
fn length_block(aad_len: usize, ct_len: usize) -> [u8; BLOCK] {
    let mut b = [0u8; BLOCK];
    b[..8].copy_from_slice(&(aad_len as u64 * 8).to_be_bytes());
    b[8..].copy_from_slice(&(ct_len as u64 * 8).to_be_bytes());
    b
}

/// `chunk` (at most one block) zero-padded to a full block.
fn padded(chunk: &[u8]) -> [u8; BLOCK] {
    let mut b = [0u8; BLOCK];
    b[..chunk.len()].copy_from_slice(chunk);
    b
}

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ if x & 0x80 != 0 { 0x1b } else { 0 }
}

/// The AES S-box, computed rather than typed in: walk the multiplicative
/// group of GF(2⁸) with the generator 3 and its inverse together, so each
/// step knows `p` and `p⁻¹`, then apply the affine map to the inverse.
const fn sbox() -> [u8; 256] {
    let mut s = [0u8; 256];
    let (mut p, mut q) = (1u8, 1u8);
    loop {
        // p ← p·3
        p ^= xtime(p);
        // q ← q/3 (multiply by 3⁻¹ = 0xf6)
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        if q & 0x80 != 0 {
            q ^= 0x09;
        }
        let affine = q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4);
        s[p as usize] = affine ^ 0x63;
        if p == 1 {
            break;
        }
    }
    // Zero has no inverse; the affine map sends it to 0x63.
    s[0] = 0x63;
    s
}

const SBOX: [u8; 256] = sbox();

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// The AES-128 key schedule (FIPS 197 §5.2): 44 big-endian words, four per
/// round key.
fn expand_key(key: &[u8; KEY_LEN]) -> [u32; 44] {
    let mut w = [0u32; 44];
    for (wi, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
        *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let mut rcon = 1u8;
    for i in 4..44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t = sub_word(t.rotate_left(8)) ^ (u32::from(rcon) << 24);
            rcon = xtime(rcon);
        }
        w[i] = w[i - 4] ^ t;
    }
    w
}

/// Portable backend: table AES and 4-bit-table (Shoup) GHASH.
mod portable {
    use super::{length_block, padded, BLOCK, NONCE_LEN, SBOX};

    /// Round table: `TE[x]` is the MixColumns column of `S(x)` in row 0,
    /// `[2·S(x), S(x), S(x), 3·S(x)]`; rows 1..3 use it rotated right by
    /// 8, 16 and 24 bits.
    const TE: [u32; 256] = {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let s = SBOX[i];
            let s2 = super::xtime(s);
            t[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
            i += 1;
        }
        t
    };

    /// The GHASH reduction constant: `x¹²⁸ = x⁷ + x² + x + 1`, in GCM's
    /// reflected bit order (the coefficient of x⁰ is the top bit).
    const R: u128 = 0xe1 << 120;

    /// `REM[n]`: the reduction of the four low bits `n` shifted out when an
    /// element is multiplied by x⁴. It only touches the high 64 bits.
    const REM: [u64; 16] = {
        let mut t = [0u64; 16];
        let mut n = 0;
        while n < 16 {
            let mut j = 0;
            while j < 4 {
                if n & (1 << j) != 0 {
                    t[n] ^= (R >> (3 - j) >> 64) as u64;
                }
                j += 1;
            }
            n += 1;
        }
        t
    };

    pub(super) struct Key {
        rk: [u32; 44],
        /// `htable[n]` = the 4-bit element `n` times H (bit 3 of `n` is
        /// the coefficient of x⁰), as (high, low) 64-bit halves.
        htable: [(u64, u64); 16],
    }

    fn mul_x(v: u128) -> u128 {
        (v >> 1) ^ if v & 1 != 0 { R } else { 0 }
    }

    impl Key {
        pub(super) fn new(rk: [u32; 44]) -> Self {
            let mut k = Key {
                rk,
                htable: [(0, 0); 16],
            };
            let mut t = [0u128; 16];
            t[8] = u128::from_be_bytes(k.encrypt_block(&[0u8; BLOCK]));
            t[4] = mul_x(t[8]);
            t[2] = mul_x(t[4]);
            t[1] = mul_x(t[2]);
            for i in [2usize, 4, 8] {
                for j in 1..i {
                    t[i + j] = t[i] ^ t[j];
                }
            }
            k.htable = t.map(|v| ((v >> 64) as u64, v as u64));
            k
        }

        /// One AES-128 block encryption (FIPS 197 §5.1).
        fn encrypt_block(&self, input: &[u8; BLOCK]) -> [u8; BLOCK] {
            let rk = &self.rk;
            let word = |i: usize| {
                u32::from_be_bytes(input[4 * i..4 * i + 4].try_into().expect("4-byte word"))
            };
            let mut s = [
                word(0) ^ rk[0],
                word(1) ^ rk[1],
                word(2) ^ rk[2],
                word(3) ^ rk[3],
            ];
            let te = |x: u32| TE[(x & 0xff) as usize];
            for round in 1..10 {
                let mut t = [0u32; 4];
                for (j, tj) in t.iter_mut().enumerate() {
                    // ShiftRows: row r of output column j comes from input
                    // column j + r.
                    *tj = te(s[j] >> 24)
                        ^ te(s[(j + 1) % 4] >> 16).rotate_right(8)
                        ^ te(s[(j + 2) % 4] >> 8).rotate_right(16)
                        ^ te(s[(j + 3) % 4]).rotate_right(24)
                        ^ rk[4 * round + j];
                }
                s = t;
            }
            let sb = |x: u32| u32::from(SBOX[(x & 0xff) as usize]);
            let mut out = [0u8; BLOCK];
            for j in 0..4 {
                let w = (sb(s[j] >> 24) << 24)
                    ^ (sb(s[(j + 1) % 4] >> 16) << 16)
                    ^ (sb(s[(j + 2) % 4] >> 8) << 8)
                    ^ sb(s[(j + 3) % 4])
                    ^ rk[40 + j];
                out[4 * j..4 * j + 4].copy_from_slice(&w.to_be_bytes());
            }
            out
        }

        /// `y · H`, Horner's rule over the 32 nibbles of `y` from the
        /// highest-degree one (the low nibble of the last byte) down, on
        /// 64-bit halves.
        fn gmul(&self, y: u128) -> u128 {
            let (mut hi, mut lo) = (0u64, 0u64);
            for byte in y.to_le_bytes() {
                for n in [byte & 0xf, byte >> 4] {
                    // z ← z·x⁴ + n·H
                    let rem = REM[(lo & 0xf) as usize];
                    lo = (lo >> 4) | (hi << 60);
                    hi = (hi >> 4) ^ rem;
                    let (h, l) = self.htable[n as usize];
                    hi ^= h;
                    lo ^= l;
                }
            }
            (u128::from(hi) << 64) | u128::from(lo)
        }

        fn ghash_block(&self, y: u128, block: &[u8]) -> u128 {
            self.gmul(y ^ u128::from_be_bytes(padded(block)))
        }

        pub(super) fn crypt(
            &self,
            nonce: &[u8; NONCE_LEN],
            aad: &[u8],
            buf: &mut [u8],
            seal: bool,
        ) -> [u8; BLOCK] {
            let mut y = 0u128;
            for chunk in aad.chunks(BLOCK) {
                y = self.ghash_block(y, chunk);
            }
            let mut counter = [0u8; BLOCK];
            counter[..NONCE_LEN].copy_from_slice(nonce);
            let mut ctr = 2u32;
            for chunk in buf.chunks_mut(BLOCK) {
                counter[NONCE_LEN..].copy_from_slice(&ctr.to_be_bytes());
                let ks = self.encrypt_block(&counter);
                if !seal {
                    y = self.ghash_block(y, chunk);
                }
                for (b, k) in chunk.iter_mut().zip(ks) {
                    *b ^= k;
                }
                if seal {
                    y = self.ghash_block(y, chunk);
                }
                ctr = ctr.wrapping_add(1);
            }
            y = self.ghash_block(y, &length_block(aad.len(), buf.len()));
            counter[NONCE_LEN..].copy_from_slice(&1u32.to_be_bytes());
            let ek0 = self.encrypt_block(&counter);
            (u128::from_be_bytes(ek0) ^ y).to_be_bytes()
        }
    }

    #[cfg(test)]
    pub(super) fn encrypt_block(rk: [u32; 44], block: &[u8; BLOCK]) -> [u8; BLOCK] {
        Key::new(rk).encrypt_block(block)
    }
}

/// Hardware backend: AES-NI rounds and PCLMULQDQ GHASH.
///
/// GHASH runs on byte-reversed blocks, so the 128-bit register holds GCM's
/// reflected polynomial with the x⁰ coefficient in the top bit; products
/// are formed unreduced, shifted left by one and reduced with the
/// shift-and-XOR sequence of Gueron and Kounavis ("Intel Carry-Less
/// Multiplication Instruction and its Usage for Computing the GCM Mode").
/// Both the shift and the reduction are linear, so eight products can be
/// summed unreduced and reduced once.
///
/// On CPUs with AVX-512 F/BW, VAES and VPCLMULQDQ the same arithmetic also
/// runs four blocks per instruction: a 512-bit register holds four 128-bit
/// lanes, `vaesenc` and `vpclmulqdq` work lane by lane, and whole 256-byte
/// strides (sixteen blocks) go through [`crypt_wide`] before the eight-block
/// xmm loop finishes the tail.
///
/// Besides `sha256::ni` this is the crate's only unsafe code: the
/// intrinsics need `unsafe` plus a `target_feature` gate. A [`Key`] is
/// only ever built after `available()` confirmed the CPU features, so
/// holding one is the proof every entry point's SAFETY comment cites.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use super::{length_block, padded, BLOCK, NONCE_LEN};
    use core::arch::x86_64::*;

    /// Blocks in flight per xmm main-loop iteration.
    const LANES: usize = 8;

    /// Blocks per stride of the 512-bit loop: four zmm registers of four.
    const WIDE_BLOCKS: usize = 16;

    /// Whether this CPU has AES-NI, PCLMULQDQ and the SSSE3 byte shuffle.
    /// Cached by the standard library after the first call.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3")
    }

    /// Whether this CPU also runs the 512-bit loop: AVX-512 F (zmm
    /// registers, masks) and BW (the byte shuffle), VAES and VPCLMULQDQ.
    fn wide_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("vaes")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
    }

    pub(super) struct Key {
        rk: [__m128i; 11],
        /// H¹⁶..H¹ byte-reversed, highest first: `hdesc[j]` = H^(16-j).
        /// Block `j` of a run of `n` blocks aggregated at once is multiplied
        /// by `hdesc[16 - n + j]` (n = 16 in a zmm stride, 8 in the xmm
        /// loop), so four consecutive entries load as one zmm vector.
        hdesc: [__m128i; WIDE_BLOCKS],
        /// Whether `wide_available()` held at construction: the proof
        /// [`crypt_wide`]'s caller cites.
        wide: bool,
    }

    impl Key {
        /// Loads the round keys and precomputes H¹..H⁸ (and H¹..H¹⁶ for the
        /// 512-bit loop when the CPU has it); `None` when the CPU lacks
        /// AES-NI or PCLMULQDQ.
        pub(super) fn new(round_keys: &[u32; 44]) -> Option<Self> {
            if !available() {
                return None;
            }
            let mut bytes = [[0u8; BLOCK]; 11];
            for (r, rk) in bytes.iter_mut().enumerate() {
                for j in 0..4 {
                    rk[4 * j..4 * j + 4].copy_from_slice(&round_keys[4 * r + j].to_be_bytes());
                }
            }
            // SAFETY: `available()` just confirmed aes/pclmulqdq/ssse3.
            let mut key = unsafe { build(&bytes) };
            key.wide = wide_available();
            Some(key)
        }

        pub(super) fn is_wide(&self) -> bool {
            self.wide
        }

        pub(super) fn crypt(
            &self,
            nonce: &[u8; NONCE_LEN],
            aad: &[u8],
            buf: &mut [u8],
            seal: bool,
        ) -> [u8; BLOCK] {
            // SAFETY: a `Key` exists only if `available()` returned true in
            // `Key::new`, so the target features are present.
            unsafe { crypt(self, nonce, aad, buf, seal) }
        }
    }

    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn build(bytes: &[[u8; BLOCK]; 11]) -> Key {
        let mut rk = [_mm_setzero_si128(); 11];
        for (r, b) in rk.iter_mut().zip(bytes) {
            *r = load(b);
        }
        let h = bswap(encrypt(&rk, _mm_setzero_si128()));
        let mut hdesc = [h; WIDE_BLOCKS];
        for j in (0..WIDE_BLOCKS - 1).rev() {
            hdesc[j] = gfmul(hdesc[j + 1], h);
        }
        Key {
            rk,
            hdesc,
            wide: false,
        }
    }

    // The helpers carry the same target features as `crypt`, so they inline
    // into it and are safe to call from it.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn load(b: &[u8; BLOCK]) -> __m128i {
        // SAFETY: `b` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn store(x: __m128i) -> [u8; BLOCK] {
        let mut b = [0u8; BLOCK];
        // SAFETY: `b` is 16 writable bytes; the store is unaligned.
        unsafe { _mm_storeu_si128(b.as_mut_ptr().cast(), x) };
        b
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn bswap(x: __m128i) -> __m128i {
        _mm_shuffle_epi8(
            x,
            _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        )
    }

    /// Counter block `i` of the message whose byte-reversed J0 is `j0_rev`.
    /// Byte-reversed, the big-endian 32-bit counter is lane 0, so
    /// `_mm_add_epi32` is GCM's inc32 (wrapping within the lane).
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn counter(j0_rev: __m128i, i: u32) -> __m128i {
        bswap(_mm_add_epi32(
            _mm_and_si128(j0_rev, _mm_set_epi32(-1, -1, -1, 0)),
            _mm_set_epi32(0, 0, 0, i as i32),
        ))
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn encrypt(rk: &[__m128i; 11], block: __m128i) -> __m128i {
        let mut x = _mm_xor_si128(block, rk[0]);
        for k in &rk[1..10] {
            x = _mm_aesenc_si128(x, *k);
        }
        _mm_aesenclast_si128(x, rk[10])
    }

    /// An unreduced 256-bit carry-less product, as (low, middle, high)
    /// partial sums so that several can be added before combining.
    #[derive(Clone, Copy)]
    struct Wide {
        lo: __m128i,
        mid: __m128i,
        hi: __m128i,
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn mul_wide(a: __m128i, b: __m128i) -> Wide {
        Wide {
            lo: _mm_clmulepi64_si128(a, b, 0x00),
            mid: _mm_xor_si128(
                _mm_clmulepi64_si128(a, b, 0x10),
                _mm_clmulepi64_si128(a, b, 0x01),
            ),
            hi: _mm_clmulepi64_si128(a, b, 0x11),
        }
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn add_wide(acc: &mut Wide, w: Wide) {
        acc.lo = _mm_xor_si128(acc.lo, w.lo);
        acc.mid = _mm_xor_si128(acc.mid, w.mid);
        acc.hi = _mm_xor_si128(acc.hi, w.hi);
    }

    /// Shifts the reflected 256-bit product left by one and reduces it
    /// modulo the GCM polynomial.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn reduce(w: Wide) -> __m128i {
        let lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
        let hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));
        // Shift the 256-bit value (hi:lo) left by one bit.
        let lo_carry = _mm_srli_epi32(lo, 31);
        let hi_carry = _mm_srli_epi32(hi, 31);
        let lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
        let hi = _mm_or_si128(
            _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4)),
            _mm_srli_si128(lo_carry, 12),
        );
        // First phase of the reduction.
        let a = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
            _mm_slli_epi32(lo, 25),
        );
        let spill = _mm_srli_si128(a, 4);
        let lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
        // Second phase.
        let b = _mm_xor_si128(
            _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
            _mm_xor_si128(_mm_srli_epi32(lo, 7), spill),
        );
        _mm_xor_si128(hi, _mm_xor_si128(lo, b))
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn gfmul(a: __m128i, b: __m128i) -> __m128i {
        reduce(mul_wide(a, b))
    }

    /// XOR of a zmm register's four 128-bit lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fold_lanes(x: __m512i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(_mm512_castsi512_si128(x), _mm512_extracti32x4_epi32::<1>(x)),
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<2>(x),
                _mm512_extracti32x4_epi32::<3>(x),
            ),
        )
    }

    /// Runs the whole 256-byte strides of `buf` (its length a multiple of
    /// 256) through the 512-bit loop, counters from block 2 on (J0 + 1),
    /// and returns the GHASH state `y` advanced over their ciphertext.
    ///
    /// Per stride: four zmm counter vectors of four blocks, ten
    /// `vaesenc` rounds on each, then the sixteen GHASH products
    /// (Y ⊕ C₀)·H¹⁶ ⊕ C₁·H¹⁵ ⊕ … ⊕ C₁₅·H¹ summed unreduced across lanes
    /// and vectors and reduced once.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq, ssse3, avx512f, avx512bw, vaes
    /// and vpclmulqdq.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,avx512f,avx512bw,vaes,vpclmulqdq")]
    unsafe fn crypt_wide(
        rk: &[__m128i; 11],
        hdesc: &[__m128i; WIDE_BLOCKS],
        j0_rev: __m128i,
        mut y: __m128i,
        buf: &mut [u8],
        seal: bool,
    ) -> __m128i {
        let mut rkw = [_mm512_setzero_si512(); 11];
        for (w, k) in rkw.iter_mut().zip(rk) {
            *w = _mm512_broadcast_i32x4(*k);
        }
        // Lane `l` of `hpow[v]` is H^(16-4v-l), the power block `4v+l` of a
        // stride is multiplied by.
        let mut hpow = [_mm512_setzero_si512(); 4];
        for (v, h) in hpow.iter_mut().enumerate() {
            // SAFETY: `hdesc[4v..4v+4]` is 64 readable bytes; the load is
            // unaligned.
            *h = unsafe { _mm512_loadu_si512(hdesc[4 * v..].as_ptr().cast()) };
        }
        let bswap_w = _mm512_broadcast_i32x4(_mm_set_epi8(
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        ));
        // J0 byte-reversed in every lane with its counter dword (element 0
        // of each lane) cleared, and the per-lane block offsets 1..4 in
        // that dword.
        let nonce = _mm512_broadcast_i32x4(_mm_and_si128(j0_rev, _mm_set_epi32(-1, -1, -1, 0)));
        let lane_step = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1);
        let mut next = 1u32;
        for stride in buf.chunks_exact_mut(WIDE_BLOCKS * BLOCK) {
            let mut ks = [_mm512_setzero_si512(); 4];
            for (v, k) in ks.iter_mut().enumerate() {
                // GCM's inc32 per lane: `next + 4v + l + 1` lands in the
                // counter dword of lane `l` only, and `add_epi32` wraps
                // within it exactly as `counter()` does.
                let base = _mm512_maskz_set1_epi32(0x1111, next.wrapping_add(4 * v as u32) as i32);
                let ctr = _mm512_add_epi32(nonce, _mm512_add_epi32(base, lane_step));
                *k = _mm512_xor_si512(_mm512_shuffle_epi8(ctr, bswap_w), rkw[0]);
            }
            next = next.wrapping_add(WIDE_BLOCKS as u32);
            for r in &rkw[1..10] {
                for k in ks.iter_mut() {
                    *k = _mm512_aesenc_epi128(*k, *r);
                }
            }
            let (mut lo, mut mid, mut hi) = (
                _mm512_setzero_si512(),
                _mm512_setzero_si512(),
                _mm512_setzero_si512(),
            );
            let quads = stride.chunks_exact_mut(4 * BLOCK);
            for (v, (k, quad)) in ks.iter().zip(quads).enumerate() {
                // SAFETY: `quad` is 64 readable and writable bytes; both
                // accesses are unaligned.
                let src = unsafe { _mm512_loadu_si512(quad.as_ptr().cast()) };
                let dst = _mm512_xor_si512(src, _mm512_aesenclast_epi128(*k, rkw[10]));
                unsafe { _mm512_storeu_si512(quad.as_mut_ptr().cast(), dst) };
                let mut c = _mm512_shuffle_epi8(if seal { dst } else { src }, bswap_w);
                if v == 0 {
                    c = _mm512_xor_si512(c, _mm512_zextsi128_si512(y));
                }
                let h = hpow[v];
                lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128::<0x00>(c, h));
                mid = _mm512_xor_si512(
                    mid,
                    _mm512_xor_si512(
                        _mm512_clmulepi64_epi128::<0x10>(c, h),
                        _mm512_clmulepi64_epi128::<0x01>(c, h),
                    ),
                );
                hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128::<0x11>(c, h));
            }
            y = reduce(Wide {
                lo: fold_lanes(lo),
                mid: fold_lanes(mid),
                hi: fold_lanes(hi),
            });
        }
        y
    }

    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn crypt(
        key: &Key,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        seal: bool,
    ) -> [u8; BLOCK] {
        let rk = &key.rk;
        let h1 = key.hdesc[WIDE_BLOCKS - 1];
        let mut y = _mm_setzero_si128();
        for chunk in aad.chunks(BLOCK) {
            y = gfmul(_mm_xor_si128(y, bswap(load(&padded(chunk)))), h1);
        }

        let mut j0 = [0u8; BLOCK];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[BLOCK - 1] = 1;
        let j0 = load(&j0);
        let j0_rev = bswap(j0);
        let mut next = 1u32;

        let ct_len = buf.len();
        let mut tail = buf;
        // Below one stride the 512-bit loop has nothing to do.
        if key.wide && ct_len >= WIDE_BLOCKS * BLOCK {
            let (strides, rest) = tail.split_at_mut(ct_len - ct_len % (WIDE_BLOCKS * BLOCK));
            // SAFETY: `wide` is set only when `wide_available()` confirmed
            // the 512-bit features; the caller guarantees the rest.
            y = unsafe { crypt_wide(rk, &key.hdesc, j0_rev, y, strides, seal) };
            next = next.wrapping_add((strides.len() / BLOCK) as u32);
            tail = rest;
        }

        let mut chunks = tail.chunks_exact_mut(LANES * BLOCK);
        for chunk in &mut chunks {
            let mut ks = [_mm_setzero_si128(); LANES];
            for (i, k) in ks.iter_mut().enumerate() {
                let ctr = counter(j0_rev, next.wrapping_add(1 + i as u32));
                *k = _mm_xor_si128(ctr, rk[0]);
            }
            next = next.wrapping_add(LANES as u32);
            for r in &rk[1..10] {
                for k in ks.iter_mut() {
                    *k = _mm_aesenc_si128(*k, *r);
                }
            }
            let mut ct = [_mm_setzero_si128(); LANES];
            let blocks = chunk.chunks_exact_mut(BLOCK);
            for ((k, c), block) in ks.iter().zip(ct.iter_mut()).zip(blocks) {
                let block: &mut [u8; BLOCK] = block.try_into().expect("16-byte block");
                let src = load(block);
                let dst = _mm_xor_si128(src, _mm_aesenclast_si128(*k, rk[10]));
                *block = store(dst);
                *c = bswap(if seal { dst } else { src });
            }
            // Y ← (Y ⊕ C₀)·H⁸ ⊕ C₁·H⁷ ⊕ … ⊕ C₇·H¹, one reduction.
            let h8 = &key.hdesc[WIDE_BLOCKS - LANES..];
            let mut acc = mul_wide(_mm_xor_si128(ct[0], y), h8[0]);
            for (c, h) in ct.iter().zip(h8).skip(1) {
                add_wide(&mut acc, mul_wide(*c, *h));
            }
            y = reduce(acc);
        }

        for chunk in chunks.into_remainder().chunks_mut(BLOCK) {
            next = next.wrapping_add(1);
            let k = encrypt(rk, counter(j0_rev, next));
            let src = load(&padded(chunk));
            let out = store(_mm_xor_si128(src, k));
            let n = chunk.len();
            chunk.copy_from_slice(&out[..n]);
            // GHASH sees the zero-padded ciphertext.
            let c = if seal { load(&padded(&out[..n])) } else { src };
            y = gfmul(_mm_xor_si128(y, bswap(c)), h1);
        }

        // The length block covers the whole buffer, strides and tail.
        let len = load(&length_block(aad.len(), ct_len));
        y = gfmul(_mm_xor_si128(y, bswap(len)), h1);
        store(_mm_xor_si128(bswap(y), encrypt(rk, j0)))
    }

    /// One raw block encryption on this backend (`None` without the CPU
    /// features), for the FIPS-197 known-answer test.
    #[cfg(test)]
    pub(super) fn encrypt_block(
        round_keys: &[u32; 44],
        block: &[u8; BLOCK],
    ) -> Option<[u8; BLOCK]> {
        let key = Key::new(round_keys)?;
        // SAFETY: `Key::new` succeeded, so the target features are present.
        Some(unsafe { store(encrypt(&key.rk, load(block))) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn sbox_spot_values() {
        // FIPS 197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        let mut seen = [false; 256];
        for &s in &SBOX {
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "S-box is a permutation");
    }

    #[test]
    fn key_schedule_matches_fips197_a1() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let w = expand_key(&key);
        assert_eq!(w[4], 0xa0fafe17);
        assert_eq!(w[43], 0xb6630ca6);
    }

    #[test]
    fn block_matches_fips197_c1_on_both_backends() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let want = "69c4e0d86a7b0430d8cdb78070b4c55a";
        assert_eq!(hex(&portable::encrypt_block(expand_key(&key), &pt)), want);
        #[cfg(target_arch = "x86_64")]
        match ni::encrypt_block(&expand_key(&key), &pt) {
            Some(ct) => assert_eq!(hex(&ct), want),
            None => eprintln!("note: no AES-NI on this host; hardware C.1 check skipped"),
        }
    }

    #[test]
    fn new_picks_the_backend_hw_accelerated_reports() {
        let gcm = Aes128Gcm::new(&[1; 16]);
        assert_eq!(gcm.backend() != "portable", hw_accelerated(), "{gcm:?}");
        assert!(format!("{gcm:?}").contains(gcm.backend()), "{gcm:?}");
    }

    #[test]
    fn debug_hides_key_material() {
        let s = format!("{:?}", Aes128Gcm::new_portable(&[0xaa; 16]));
        assert_eq!(s, "Aes128Gcm { backend: \"portable\", .. }");
    }
}
