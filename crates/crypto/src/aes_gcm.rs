//! AES-128-GCM (FIPS 197 + NIST SP 800-38D): the AEAD of WebRTC's
//! mandatory DTLS cipher suite `TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256`
//! (RFC 8827 §6.5), used by the simulated DTLS record layer in
//! `pdn-webrtc`.
//!
//! [`Aes128Gcm`] expands a key once and then seals or opens messages under
//! a 96-bit nonce and arbitrary additional authenticated data, with the
//! full 16-byte tag.
//!
//! # Streaming
//!
//! One streaming core does all the work. [`Aes128Gcm::sealing`] and
//! [`Aes128Gcm::opening`] start a message ([`SealStream`], [`OpenStream`]);
//! `update` calls of any length then carry it through, and `finish` yields
//! (or checks) the tag. Between calls the stream keeps the partial block,
//! the CTR counter and the GHASH state, so the bytes come out the same
//! whatever the split. Each update reads its input once and writes its
//! output once:
//!
//! - `update(src, dst)` writes to another buffer, `append(src, vec)` into
//!   a `Vec`'s spare capacity (no zero-fill first);
//! - [`OpenStream::verify`] runs GHASH over ciphertext and writes nothing,
//!   for a receiver that already holds those bytes.
//!
//! # Backends
//!
//! Two backends produce identical bytes; the choice is made once per key,
//! at construction:
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
//! Both backends take an update's whole blocks in one call; the stream
//! itself handles the partial blocks at either end of an update. A
//! message's fixed cost is one more backend call at each end: the AAD's
//! GHASH with E(J0) when it starts, and the last partial block, the
//! length block and the tag when it finishes.
//!
//! The portable backend's table lookups are indexed by secret data, so it
//! is not constant-time; like the rest of this crate it serves simulation,
//! where the adversaries are inside the model.
//!
//! # Unsafe code
//!
//! All of it is in the private `ni` module (x86-64 only): the intrinsics
//! behind `target_feature` gates, the hardware loop's loads and stores
//! through the raw input and output pointers of an update (null on
//! output, for verify-only), and the
//! `set_len` that commits the bytes `append` wrote into a `Vec`'s spare
//! capacity. Each piece carries its own SAFETY comment. On other targets
//! `append` zero-fills the bytes it then overwrites.
//!
//! # Examples
//!
//! ```
//! use pdn_crypto::aes_gcm::Aes128Gcm;
//!
//! let gcm = Aes128Gcm::new(&[7u8; 16]);
//! let nonce = [1u8; 12];
//!
//! // A message streamed in uneven pieces.
//! let mut seal = gcm.sealing(&nonce, b"header");
//! let mut ct = Vec::new();
//! seal.append(b"segment", &mut ct);
//! seal.append(b" bytes", &mut ct);
//! let tag = seal.finish();
//! assert_ne!(&ct[..], b"segment bytes");
//! let mut open = gcm.opening(&nonce, b"header");
//! let mut pt = [0u8; 13];
//! open.update(&ct[..5], &mut pt[..5]);
//! open.update(&ct[5..], &mut pt[5..]);
//! assert!(open.finish(&tag));
//! assert_eq!(&pt, b"segment bytes");
//! ```

use core::mem::MaybeUninit;

/// AES-128 key length in bytes.
pub const KEY_LEN: usize = 16;

/// GCM nonce length in bytes (the 96-bit form, `J0 = nonce ‖ 1`).
pub const NONCE_LEN: usize = 12;

/// GCM tag length in bytes (never truncated here).
pub const TAG_LEN: usize = 16;

const BLOCK: usize = 16;

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

    /// Starts encrypting a message under `nonce`, authenticating `aad`.
    pub fn sealing(&self, nonce: &[u8; NONCE_LEN], aad: &[u8]) -> SealStream<'_> {
        SealStream(Stream::new(self, nonce, aad, true))
    }

    /// Starts decrypting a message under `nonce`, authenticating `aad`.
    pub fn opening(&self, nonce: &[u8; NONCE_LEN], aad: &[u8]) -> OpenStream<'_> {
        OpenStream(Stream::new(self, nonce, aad, false))
    }

    /// A message's fixed opening cost in one backend call: the GHASH
    /// state over the zero-padded AAD blocks, and E(J0), the mask the tag
    /// is sealed with.
    fn begin(&self, j0: &[u8; BLOCK], aad: &[u8]) -> (u128, [u8; BLOCK]) {
        match &self.backend {
            Backend::Portable(k) => k.begin(j0, aad),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(k) => k.begin(j0, aad),
        }
    }

    /// A message's closing cost in one backend call: `y` advanced over
    /// the zero-padded `last` partial block (if any) and the `lengths`
    /// block, masked with `ek0` = E(J0).
    fn tag(&self, y: u128, last: &[u8], lengths: &[u8; BLOCK], ek0: &[u8; BLOCK]) -> [u8; TAG_LEN] {
        match &self.backend {
            Backend::Portable(k) => k.tag(y, last, lengths, ek0),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(k) => k.tag(y, last, lengths, ek0),
        }
    }

    /// One AES block encryption on this key's backend.
    fn encrypt(&self, block: &[u8; BLOCK]) -> [u8; BLOCK] {
        match &self.backend {
            Backend::Portable(k) => k.encrypt_block(block),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(k) => k.encrypt_block(block),
        }
    }

    /// One GHASH step: `(y ⊕ block) · H`.
    fn ghash(&self, y: u128, block: &[u8; BLOCK]) -> u128 {
        match &self.backend {
            Backend::Portable(k) => k.ghash(y, block),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(k) => k.ghash(y, block),
        }
    }

    /// CTR-encrypts the whole blocks of `io` from counter `ctr` on and
    /// returns `y` advanced over their ciphertext.
    fn blocks(&self, j0: &[u8; BLOCK], y: u128, ctr: u32, io: Io<'_>, seal: bool) -> u128 {
        debug_assert_eq!(io.len() % BLOCK, 0);
        match &self.backend {
            Backend::Portable(k) => k.blocks(j0, y, ctr, io, seal),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(k) => k.blocks(j0, y, ctr, io, seal),
        }
    }
}

/// An AES-128-GCM encryption in progress (see the module docs).
pub struct SealStream<'k>(Stream<'k>);

impl SealStream<'_> {
    /// Encrypts the next `src.len()` bytes of the message into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not as long as `src`.
    pub fn update(&mut self, src: &[u8], dst: &mut [u8]) {
        self.0.update(Io::copy(src, dst));
    }

    /// Encrypts the next `src.len()` bytes of the message onto the end of
    /// `out`, written once into its spare capacity.
    pub fn append(&mut self, src: &[u8], out: &mut Vec<u8>) {
        self.0.append(src, out);
    }

    /// The tag over the AAD and all the ciphertext.
    pub fn finish(self) -> [u8; TAG_LEN] {
        self.0.finish()
    }
}

/// An AES-128-GCM decryption in progress (see the module docs).
///
/// Decryption is speculative: every byte it writes is unauthenticated
/// until [`OpenStream::finish`] returns `true`.
pub struct OpenStream<'k>(Stream<'k>);

impl OpenStream<'_> {
    /// Decrypts the next `src.len()` bytes of the message into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not as long as `src`.
    pub fn update(&mut self, src: &[u8], dst: &mut [u8]) {
        self.0.update(Io::copy(src, dst));
    }

    /// Decrypts the next `src.len()` bytes of the message onto the end of
    /// `out`, written once into its spare capacity.
    pub fn append(&mut self, src: &[u8], out: &mut Vec<u8>) {
        self.0.append(src, out);
    }

    /// Takes the next `ciphertext.len()` bytes of the message into the tag
    /// only: GHASH runs over them, nothing is decrypted or written.
    pub fn verify(&mut self, ciphertext: &[u8]) {
        self.0.update(Io::Verify(ciphertext));
    }

    /// Whether `tag` authenticates the AAD and all the ciphertext,
    /// compared in constant time.
    #[must_use = "on false every decrypted byte is unauthenticated"]
    pub fn finish(self, tag: &[u8]) -> bool {
        crate::ct_eq(&self.0.finish(), tag)
    }
}

/// Where one update reads its input and writes its output. Every output
/// is as long as its input (checked where one is built), and `blocks`
/// writes every output byte exactly once.
enum Io<'a> {
    Copy(&'a [u8], &'a mut [u8]),
    // Built only by `ni::append`; other targets zero-fill instead.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Uninit(&'a [u8], &'a mut [MaybeUninit<u8>]),
    Verify(&'a [u8]),
}

impl<'a> Io<'a> {
    fn copy(src: &'a [u8], dst: &'a mut [u8]) -> Self {
        assert_eq!(src.len(), dst.len(), "output must be as long as input");
        Io::Copy(src, dst)
    }

    fn src(&self) -> &[u8] {
        match self {
            Io::Copy(s, _) | Io::Uninit(s, _) | Io::Verify(s) => s,
        }
    }

    fn len(&self) -> usize {
        self.src().len()
    }

    fn split_at(self, mid: usize) -> (Io<'a>, Io<'a>) {
        match self {
            Io::Copy(s, d) => {
                let ((sl, sr), (dl, dr)) = (s.split_at(mid), d.split_at_mut(mid));
                (Io::Copy(sl, dl), Io::Copy(sr, dr))
            }
            Io::Uninit(s, d) => {
                let ((sl, sr), (dl, dr)) = (s.split_at(mid), d.split_at_mut(mid));
                (Io::Uninit(sl, dl), Io::Uninit(sr, dr))
            }
            Io::Verify(s) => {
                let (l, r) = s.split_at(mid);
                (Io::Verify(l), Io::Verify(r))
            }
        }
    }

    /// Writes `out` at offset `at` of the output (nothing for `Verify`).
    fn put(&mut self, at: usize, out: &[u8]) {
        let end = at + out.len();
        match self {
            Io::Copy(_, d) => d[at..end].copy_from_slice(out),
            Io::Uninit(_, d) => {
                d[at..end].write_copy_of_slice(out);
            }
            Io::Verify(_) => {}
        }
    }
}

/// The state one message carries between updates.
struct Stream<'k> {
    key: &'k Aes128Gcm,
    /// `nonce ‖ 1`; counter block `i` is `nonce ‖ i`.
    j0: [u8; BLOCK],
    /// E(J0), the mask the tag is sealed with.
    ek0: [u8; BLOCK],
    seal: bool,
    /// GHASH state, the block read as a big-endian integer.
    y: u128,
    /// Counter of the next keystream block.
    ctr: u32,
    /// Keystream of the current partial block.
    ks: [u8; BLOCK],
    /// Ciphertext of the current partial block (its first `fill` bytes).
    block: [u8; BLOCK],
    /// Bytes of the current block done; 0 between blocks.
    fill: usize,
    aad_len: usize,
    ct_len: usize,
}

impl<'k> Stream<'k> {
    fn new(key: &'k Aes128Gcm, nonce: &[u8; NONCE_LEN], aad: &[u8], seal: bool) -> Self {
        let mut j0 = [0u8; BLOCK];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[BLOCK - 1] = 1;
        let (y, ek0) = key.begin(&j0, aad);
        Stream {
            key,
            j0,
            ek0,
            seal,
            y,
            ctr: 2,
            ks: [0; BLOCK],
            block: [0; BLOCK],
            fill: 0,
            aad_len: aad.len(),
            ct_len: 0,
        }
    }

    fn update(&mut self, mut io: Io<'_>) {
        self.ct_len += io.len();
        if self.fill > 0 {
            let n = (BLOCK - self.fill).min(io.len());
            let (head, rest) = io.split_at(n);
            self.partial(head);
            io = rest;
        }
        let whole = io.len() - io.len() % BLOCK;
        let (bulk, tail) = io.split_at(whole);
        if whole > 0 {
            self.y = self.key.blocks(&self.j0, self.y, self.ctr, bulk, self.seal);
            self.ctr = self.ctr.wrapping_add((whole / BLOCK) as u32);
        }
        if tail.len() > 0 {
            self.ks = self.key.encrypt(&counter_block(&self.j0, self.ctr));
            self.ctr = self.ctr.wrapping_add(1);
            self.partial(tail);
        }
    }

    /// Runs `io`, which fits in the rest of the current block, against
    /// that block's keystream.
    fn partial(&mut self, mut io: Io<'_>) {
        let (at, n) = (self.fill, io.len());
        let mut out = [0u8; BLOCK];
        for ((o, s), k) in out.iter_mut().zip(io.src()).zip(&self.ks[at..]) {
            *o = s ^ k;
        }
        let ct = if self.seal { &out[..n] } else { io.src() };
        self.block[at..at + n].copy_from_slice(ct);
        io.put(0, &out[..n]);
        self.fill += n;
        if self.fill == BLOCK {
            self.y = self.key.ghash(self.y, &self.block);
            self.fill = 0;
        }
    }

    fn append(&mut self, src: &[u8], out: &mut Vec<u8>) {
        #[cfg(target_arch = "x86_64")]
        ni::append(self, src, out);
        #[cfg(not(target_arch = "x86_64"))]
        {
            let at = out.len();
            out.resize(at + src.len(), 0);
            self.update(Io::Copy(src, &mut out[at..]));
        }
    }

    fn finish(self) -> [u8; TAG_LEN] {
        // GHASH sees the zero-padded last block, then the lengths.
        self.key.tag(
            self.y,
            &self.block[..self.fill],
            &length_block(self.aad_len, self.ct_len),
            &self.ek0,
        )
    }
}

/// Counter block `ctr` of the message whose J0 is `j0`.
fn counter_block(j0: &[u8; BLOCK], ctr: u32) -> [u8; BLOCK] {
    let mut b = *j0;
    b[NONCE_LEN..].copy_from_slice(&ctr.to_be_bytes());
    b
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
    use super::{counter_block, padded, Io, BLOCK, SBOX};

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
        pub(super) fn encrypt_block(&self, input: &[u8; BLOCK]) -> [u8; BLOCK] {
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

        /// One GHASH step: `(y ⊕ block) · H`.
        pub(super) fn ghash(&self, y: u128, block: &[u8; BLOCK]) -> u128 {
            self.gmul(y ^ u128::from_be_bytes(*block))
        }

        /// GHASH over the zero-padded AAD, and E(J0).
        pub(super) fn begin(&self, j0: &[u8; BLOCK], aad: &[u8]) -> (u128, [u8; BLOCK]) {
            let y = aad
                .chunks(BLOCK)
                .fold(0, |y, chunk| self.ghash(y, &padded(chunk)));
            (y, self.encrypt_block(j0))
        }

        /// GHASH over the zero-padded last block and the lengths, masked
        /// with E(J0).
        pub(super) fn tag(
            &self,
            mut y: u128,
            last: &[u8],
            lengths: &[u8; BLOCK],
            ek0: &[u8; BLOCK],
        ) -> [u8; BLOCK] {
            if !last.is_empty() {
                y = self.ghash(y, &padded(last));
            }
            (self.ghash(y, lengths) ^ u128::from_be_bytes(*ek0)).to_be_bytes()
        }

        /// The portable shape of the hardware loop: each whole block of
        /// `io` read once, CTR-encrypted from counter `ctr` on, written
        /// once, and taken into `y`.
        pub(super) fn blocks(
            &self,
            j0: &[u8; BLOCK],
            mut y: u128,
            mut ctr: u32,
            mut io: Io<'_>,
            seal: bool,
        ) -> u128 {
            for at in (0..io.len()).step_by(BLOCK) {
                let ks = self.encrypt_block(&counter_block(j0, ctr));
                ctr = ctr.wrapping_add(1);
                let src: [u8; BLOCK] = io.src()[at..at + BLOCK].try_into().expect("whole block");
                let out: [u8; BLOCK] = core::array::from_fn(|i| src[i] ^ ks[i]);
                y = self.ghash(y, if seal { &out } else { &src });
                io.put(at, &out);
            }
            y
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
/// intrinsics need `unsafe` plus a `target_feature` gate, the loops load
/// and store through an update's raw input and output pointers, and
/// [`append`] commits the bytes it wrote into a `Vec`'s spare capacity. A
/// [`Key`] is only ever built after `available()` confirmed the CPU
/// features, so holding one is the proof every entry point's SAFETY
/// comment cites.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use super::{padded, Io, Stream, BLOCK};
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

        pub(super) fn encrypt_block(&self, block: &[u8; BLOCK]) -> [u8; BLOCK] {
            // SAFETY: a `Key` exists only if `available()` returned true in
            // `Key::new`, so the target features are present.
            unsafe { store(encrypt(&self.rk, load(block))) }
        }

        pub(super) fn ghash(&self, y: u128, block: &[u8; BLOCK]) -> u128 {
            // SAFETY: as in `encrypt_block`.
            unsafe { ghash(self, y, block) }
        }

        pub(super) fn begin(&self, j0: &[u8; BLOCK], aad: &[u8]) -> (u128, [u8; BLOCK]) {
            // SAFETY: as in `encrypt_block`.
            unsafe { begin(self, j0, aad) }
        }

        pub(super) fn tag(
            &self,
            y: u128,
            last: &[u8],
            lengths: &[u8; BLOCK],
            ek0: &[u8; BLOCK],
        ) -> [u8; BLOCK] {
            // SAFETY: as in `encrypt_block`.
            unsafe { tag(self, y, last, lengths, ek0) }
        }

        /// CTR-encrypts the whole blocks of `io` from counter `ctr` on and
        /// returns `y` advanced over their ciphertext.
        pub(super) fn blocks(
            &self,
            j0: &[u8; BLOCK],
            y: u128,
            ctr: u32,
            io: Io<'_>,
            seal: bool,
        ) -> u128 {
            let len = io.len();
            let (src, dst): (*const u8, *mut u8) = match io {
                Io::Copy(s, d) => (s.as_ptr(), d.as_mut_ptr()),
                Io::Uninit(s, d) => (s.as_ptr(), d.as_mut_ptr().cast()),
                Io::Verify(s) => (s.as_ptr(), core::ptr::null_mut()),
            };
            // SAFETY: the target features as in `encrypt_block`. `src` is
            // `len` readable bytes; every output `Io` holds is as long as
            // its input (checked where the `Io` was built), so `dst` is
            // null (`Verify`) or `len` writable bytes that the exclusive
            // borrow keeps apart from `src`; `MaybeUninit<u8>` has `u8`'s
            // layout.
            unsafe { crypt(self, j0, y, ctr, src, dst, len, seal) }
        }
    }

    /// Appends `src`, run through `stream`, to `out`: each byte written
    /// once into the spare capacity, none zero-filled first.
    pub(super) fn append(stream: &mut Stream<'_>, src: &[u8], out: &mut Vec<u8>) {
        out.reserve(src.len());
        let at = out.len();
        stream.update(Io::Uninit(src, &mut out.spare_capacity_mut()[..src.len()]));
        // SAFETY: `Stream::update` writes every byte of an `Io::Uninit`
        // output: the partial-block steps through `Io::put`, the whole
        // blocks through `blocks` (both backends store each block they
        // take), so the `src.len()` bytes past `at` are initialised.
        unsafe { out.set_len(at + src.len()) };
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

    /// The GHASH state `y` (a block read as a big-endian integer) as the
    /// byte-reversed register the loops work on, and back.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn to_reg(y: u128) -> __m128i {
        load(&y.to_le_bytes())
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn from_reg(y: __m128i) -> u128 {
        u128::from_le_bytes(store(y))
    }

    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn ghash(key: &Key, y: u128, block: &[u8; BLOCK]) -> u128 {
        let h1 = key.hdesc[WIDE_BLOCKS - 1];
        from_reg(gfmul(_mm_xor_si128(to_reg(y), bswap(load(block))), h1))
    }

    /// GHASH over the zero-padded AAD blocks, and E(J0): a message's
    /// opening cost in one call behind the feature gate.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn begin(key: &Key, j0: &[u8; BLOCK], aad: &[u8]) -> (u128, [u8; BLOCK]) {
        let h1 = key.hdesc[WIDE_BLOCKS - 1];
        let mut y = _mm_setzero_si128();
        for chunk in aad.chunks(BLOCK) {
            y = gfmul(_mm_xor_si128(y, bswap(load(&padded(chunk)))), h1);
        }
        (from_reg(y), store(encrypt(&key.rk, load(j0))))
    }

    /// GHASH over the zero-padded `last` block (if any) and the
    /// `lengths` block, masked with `ek0`: a message's closing cost in
    /// one call behind the feature gate.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn tag(
        key: &Key,
        y: u128,
        last: &[u8],
        lengths: &[u8; BLOCK],
        ek0: &[u8; BLOCK],
    ) -> [u8; BLOCK] {
        let h1 = key.hdesc[WIDE_BLOCKS - 1];
        let mut y = to_reg(y);
        if !last.is_empty() {
            y = gfmul(_mm_xor_si128(y, bswap(load(&padded(last)))), h1);
        }
        y = gfmul(_mm_xor_si128(y, bswap(load(lengths))), h1);
        (from_reg(y) ^ u128::from_be_bytes(*ek0)).to_be_bytes()
    }

    /// Runs the whole 256-byte strides of the `len` bytes at `src` (`len`
    /// a multiple of 256) through the 512-bit loop, counters from `ctr`
    /// on, writing to `dst` unless it is null, and returns the GHASH state
    /// `y` advanced over their ciphertext.
    ///
    /// Per stride: four zmm counter vectors of four blocks, ten
    /// `vaesenc` rounds on each, then the sixteen GHASH products
    /// (Y ⊕ C₀)·H¹⁶ ⊕ C₁·H¹⁵ ⊕ … ⊕ C₁₅·H¹ summed unreduced across lanes
    /// and vectors and reduced once.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq, ssse3, avx512f, avx512bw, vaes
    /// and vpclmulqdq. `src` must be readable for `len` bytes, and `dst`
    /// null or writable for `len` bytes, either equal to `src` or not
    /// overlapping it.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,avx512f,avx512bw,vaes,vpclmulqdq")]
    unsafe fn crypt_wide(
        rk: &[__m128i; 11],
        hdesc: &[__m128i; WIDE_BLOCKS],
        j0_rev: __m128i,
        mut y: __m128i,
        ctr: u32,
        src: *const u8,
        dst: *mut u8,
        len: usize,
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
        // of each lane) cleared, and the per-lane block offsets 0..3 in
        // that dword.
        let nonce = _mm512_broadcast_i32x4(_mm_and_si128(j0_rev, _mm_set_epi32(-1, -1, -1, 0)));
        let lane_step = _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0);
        let mut next = ctr;
        for stride in (0..len).step_by(WIDE_BLOCKS * BLOCK) {
            let mut ks = [_mm512_setzero_si512(); 4];
            for (v, k) in ks.iter_mut().enumerate() {
                // GCM's inc32 per lane: `next + 4v + l` lands in the
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
            for (v, k) in ks.iter().enumerate() {
                let at = stride + v * 4 * BLOCK;
                // SAFETY: `at + 64 <= len`, so the 64 bytes at `src + at`
                // are readable and, unless `dst` is null, those at
                // `dst + at` writable (the caller's contract); the quad is
                // loaded before it is stored, so `dst == src` is fine. Both
                // accesses are unaligned.
                let s = unsafe { _mm512_loadu_si512(src.add(at).cast()) };
                let d = _mm512_xor_si512(s, _mm512_aesenclast_epi128(*k, rkw[10]));
                if !dst.is_null() {
                    // SAFETY: as above.
                    unsafe { _mm512_storeu_si512(dst.add(at).cast(), d) };
                }
                let mut c = _mm512_shuffle_epi8(if seal { d } else { s }, bswap_w);
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

    /// The hardware loop over the whole blocks of the `len` bytes at
    /// `src` (callers pass a multiple of 16; a shorter tail is left
    /// alone): CTR from counter `ctr` on, output to `dst` unless it is
    /// null, GHASH state `y` advanced over the ciphertext.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3. `src` must be
    /// readable for `len` bytes, and `dst` null or writable for `len`
    /// bytes, either equal to `src` or not overlapping it.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn crypt(
        key: &Key,
        j0: &[u8; BLOCK],
        y: u128,
        ctr: u32,
        src: *const u8,
        dst: *mut u8,
        len: usize,
        seal: bool,
    ) -> u128 {
        let rk = &key.rk;
        let h1 = key.hdesc[WIDE_BLOCKS - 1];
        let j0_rev = bswap(load(j0));
        let mut y = to_reg(y);
        let mut next = ctr;
        let mut at = 0;
        // Below one stride the 512-bit loop has nothing to do.
        let strides = len - len % (WIDE_BLOCKS * BLOCK);
        if key.wide && strides > 0 {
            // SAFETY: `wide` is set only when `wide_available()` confirmed
            // the 512-bit features; the first `strides` bytes lie within
            // the caller's `len`.
            y = unsafe { crypt_wide(rk, &key.hdesc, j0_rev, y, next, src, dst, strides, seal) };
            next = next.wrapping_add((strides / BLOCK) as u32);
            at = strides;
        }

        while at + LANES * BLOCK <= len {
            let mut ks = [_mm_setzero_si128(); LANES];
            for (i, k) in ks.iter_mut().enumerate() {
                let ctr = counter(j0_rev, next.wrapping_add(i as u32));
                *k = _mm_xor_si128(ctr, rk[0]);
            }
            next = next.wrapping_add(LANES as u32);
            for r in &rk[1..10] {
                for k in ks.iter_mut() {
                    *k = _mm_aesenc_si128(*k, *r);
                }
            }
            let mut ct = [_mm_setzero_si128(); LANES];
            for (i, (k, c)) in ks.iter().zip(ct.iter_mut()).enumerate() {
                let p = at + i * BLOCK;
                // SAFETY: `p + 16 <= len`; as in `crypt_wide`, each block
                // is loaded before it is stored.
                let s = unsafe { _mm_loadu_si128(src.add(p).cast()) };
                let d = _mm_xor_si128(s, _mm_aesenclast_si128(*k, rk[10]));
                if !dst.is_null() {
                    // SAFETY: as above.
                    unsafe { _mm_storeu_si128(dst.add(p).cast(), d) };
                }
                *c = bswap(if seal { d } else { s });
            }
            // Y ← (Y ⊕ C₀)·H⁸ ⊕ C₁·H⁷ ⊕ … ⊕ C₇·H¹, one reduction.
            let h8 = &key.hdesc[WIDE_BLOCKS - LANES..];
            let mut acc = mul_wide(_mm_xor_si128(ct[0], y), h8[0]);
            for (c, h) in ct.iter().zip(h8).skip(1) {
                add_wide(&mut acc, mul_wide(*c, *h));
            }
            y = reduce(acc);
            at += LANES * BLOCK;
        }

        while at + BLOCK <= len {
            let k = encrypt(rk, counter(j0_rev, next));
            next = next.wrapping_add(1);
            // SAFETY: `at + 16 <= len`; loaded before stored.
            let s = unsafe { _mm_loadu_si128(src.add(at).cast()) };
            let d = _mm_xor_si128(s, k);
            if !dst.is_null() {
                // SAFETY: as above.
                unsafe { _mm_storeu_si128(dst.add(at).cast(), d) };
            }
            y = gfmul(_mm_xor_si128(y, bswap(if seal { d } else { s })), h1);
            at += BLOCK;
        }
        from_reg(y)
    }

    /// One raw block encryption on this backend (`None` without the CPU
    /// features), for the FIPS-197 known-answer test.
    #[cfg(test)]
    pub(super) fn encrypt_block(
        round_keys: &[u32; 44],
        block: &[u8; BLOCK],
    ) -> Option<[u8; BLOCK]> {
        Some(Key::new(round_keys)?.encrypt_block(block))
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
        #[cfg(target_arch = "x86_64")]
        assert_eq!(gcm.backend() != "portable", ni::available(), "{gcm:?}");
        assert!(format!("{gcm:?}").contains(gcm.backend()), "{gcm:?}");
    }

    #[test]
    fn debug_hides_key_material() {
        let s = format!("{:?}", Aes128Gcm::new_portable(&[0xaa; 16]));
        assert_eq!(s, "Aes128Gcm { backend: \"portable\", .. }");
    }
}
