//! AES-128-GCM known-answer and differential tests: the GCM spec's test
//! cases 1–4 on both backends, then the hardware backend against the
//! portable one over random keys, nonces, AAD and lengths. (FIPS-197 C.1,
//! a raw block encryption, is pinned per backend by the module's unit
//! tests.)
//!
//! On a host without AES-NI and PCLMULQDQ, [`Aes128Gcm::new`] already
//! picks the portable backend and the differential half compares it with
//! itself. On a host with AVX-512, VAES and VPCLMULQDQ it picks the
//! `vaes-avx512` backend, checked below, so the differential tests cover
//! the 512-bit stride loop and the xmm tail after it.
//!
//! The streaming half splits messages into `update` calls at every cut
//! (and at random cuts), mixing out-of-place, `append` and verify-only
//! pieces, and checks every result against a one-update seal on the other
//! backend.

use pdn_crypto::aes_gcm::{Aes128Gcm, NONCE_LEN, TAG_LEN};
use pdn_crypto::hex;
use proptest::prelude::*;

/// Seals `buf` in one update, replacing it with the ciphertext; returns
/// the tag.
fn seal(gcm: &Aes128Gcm, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut [u8]) -> [u8; TAG_LEN] {
    let pt = buf.to_vec();
    let mut s = gcm.sealing(nonce, aad);
    s.update(&pt, buf);
    s.finish()
}

/// Opens `buf` in one update, replacing it with the plaintext; whether
/// `tag` checked.
fn open(gcm: &Aes128Gcm, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut [u8], tag: &[u8]) -> bool {
    let ct = buf.to_vec();
    let mut s = gcm.opening(nonce, aad);
    s.update(&ct, buf);
    s.finish(tag)
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Seals `pt` on both backends, checks ciphertext and tag against the
/// vector, and opens it back.
fn check_vector(key: &str, iv: &str, aad: &str, pt: &str, ct: &str, tag: &str) {
    let key: [u8; 16] = unhex(key).try_into().expect("16-byte key");
    let iv: [u8; NONCE_LEN] = unhex(iv).try_into().expect("12-byte IV");
    let (aad, pt) = (unhex(aad), unhex(pt));
    for gcm in [Aes128Gcm::new(&key), Aes128Gcm::new_portable(&key)] {
        let mut buf = pt.clone();
        let t = seal(&gcm, &iv, &aad, &mut buf);
        assert_eq!(hex(&buf), ct, "{gcm:?} ciphertext");
        assert_eq!(hex(&t), tag, "{gcm:?} tag");
        assert!(open(&gcm, &iv, &aad, &mut buf, &t), "{gcm:?} open");
        assert_eq!(buf, pt, "{gcm:?} plaintext");
    }
}

const ZERO_KEY: &str = "00000000000000000000000000000000";
const ZERO_IV: &str = "000000000000000000000000";
const TC3_KEY: &str = "feffe9928665731c6d6a8f9467308308";
const TC3_IV: &str = "cafebabefacedbaddecaf888";
const TC3_PT: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                      1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
const TC3_CT: &str = "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                      21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";

#[test]
fn gcm_test_case_1_empty() {
    check_vector(
        ZERO_KEY,
        ZERO_IV,
        "",
        "",
        "",
        "58e2fccefa7e3061367f1d57a4e7455a",
    );
}

#[test]
fn gcm_test_case_2_one_zero_block() {
    check_vector(
        ZERO_KEY,
        ZERO_IV,
        "",
        "00000000000000000000000000000000",
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    );
}

#[test]
fn gcm_test_case_3_four_blocks() {
    check_vector(
        TC3_KEY,
        TC3_IV,
        "",
        TC3_PT,
        TC3_CT,
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    );
}

#[test]
fn gcm_test_case_4_aad_and_partial_block() {
    check_vector(
        TC3_KEY,
        TC3_IV,
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        &TC3_PT[..120],
        &TC3_CT[..120],
        "5bc94fbc3221a5db94fae95ae7121a47",
    );
}

#[test]
fn wrong_tag_aad_or_nonce_rejected() {
    let gcm = Aes128Gcm::new(&[3u8; 16]);
    let nonce = [9u8; NONCE_LEN];
    let mut buf = vec![0x5au8; 300];
    let tag = seal(&gcm, &nonce, b"aad", &mut buf);
    let sealed = buf.clone();
    let mut bad_tag = tag;
    bad_tag[15] ^= 1;
    assert!(!open(&gcm, &nonce, b"aad", &mut buf, &bad_tag));
    buf.copy_from_slice(&sealed);
    assert!(!open(&gcm, &nonce, b"aae", &mut buf, &tag));
    buf.copy_from_slice(&sealed);
    let mut other = nonce;
    other[0] ^= 1;
    assert!(!open(&gcm, &other, b"aad", &mut buf, &tag));
    buf.copy_from_slice(&sealed);
    assert!(open(&gcm, &nonce, b"aad", &mut buf, &tag));
    assert_eq!(buf, vec![0x5au8; 300]);
}

#[test]
fn new_reports_vaes_avx512_when_the_cpu_has_it() {
    let backend = Aes128Gcm::new(&[5u8; 16]).backend();
    #[cfg(target_arch = "x86_64")]
    {
        let wide = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("vaes")
            && std::arch::is_x86_feature_detected!("vpclmulqdq");
        let ni = std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq");
        if wide && ni {
            assert_eq!(backend, "vaes-avx512");
            return;
        }
    }
    assert_ne!(backend, "vaes-avx512", "512-bit loop without the CPU flags");
}

/// Hardware vs portable at the 512-bit loop's stride edges (255/256/257,
/// 511), a stride count with a 15-byte tail past an 8-block xmm pass
/// (4,111 = 16·256 + 128 + 15) and a full record, each with no AAD and
/// with a 13-byte (DTLS header sized) AAD.
#[test]
fn hardware_matches_portable_at_stride_edges() {
    let key = [0x42u8; 16];
    let nonce = [0x17u8; NONCE_LEN];
    let (hw, soft) = (Aes128Gcm::new(&key), Aes128Gcm::new_portable(&key));
    for len in [255usize, 256, 257, 511, 4_111, 16_384] {
        for aad in [&[][..], &[0xa5u8; 13][..]] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let (mut c_hw, mut c_soft) = (pt.clone(), pt.clone());
            let t_hw = seal(&hw, &nonce, aad, &mut c_hw);
            let t_soft = seal(&soft, &nonce, aad, &mut c_soft);
            let what = format!("len {len}, aad {}", aad.len());
            assert_eq!(c_hw, c_soft, "{what}: ciphertext");
            assert_eq!(t_hw, t_soft, "{what}: tag");
            assert!(open(&hw, &nonce, aad, &mut c_soft, &t_soft), "{what}");
            assert_eq!(c_soft, pt, "{what}: hardware open");
            assert!(open(&soft, &nonce, aad, &mut c_hw, &t_hw), "{what}");
            assert_eq!(c_hw, pt, "{what}: portable open");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hardware_matches_portable(
        key in any::<[u8; 16]>(),
        salt in any::<[u8; 4]>(),
        seq in any::<u64>(),
        aad in proptest::collection::vec(any::<u8>(), 0..=32),
        // Plaintext length: anywhere up to a full DTLS record, or one of
        // the single-block edges, or the edges of the 128-byte main loop.
        lens in (0u8..3, 0usize..=16_384, 1usize..=17, 127usize..=129),
        fill in any::<u8>(),
    ) {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..4].copy_from_slice(&salt);
        nonce[4..].copy_from_slice(&seq.to_be_bytes());
        let (pick, any_len, short, loop_edge) = lens;
        let len = [any_len, short, loop_edge][pick as usize];
        let pt: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
        let (hw, soft) = (Aes128Gcm::new(&key), Aes128Gcm::new_portable(&key));

        let (mut c_hw, mut c_soft) = (pt.clone(), pt.clone());
        let t_hw = seal(&hw, &nonce, &aad, &mut c_hw);
        let t_soft = seal(&soft, &nonce, &aad, &mut c_soft);
        prop_assert_eq!(&c_hw, &c_soft);
        prop_assert_eq!(t_hw, t_soft);

        // Each backend opens the other's output.
        prop_assert!(open(&hw, &nonce, &aad, &mut c_soft, &t_soft));
        prop_assert!(open(&soft, &nonce, &aad, &mut c_hw, &t_hw));
        prop_assert_eq!(&c_hw, &pt);
        prop_assert_eq!(&c_soft, &pt);
    }
}

/// How one piece of a streamed message is run.
#[derive(Clone, Copy, Debug)]
enum Piece {
    OutOfPlace,
    Append,
    /// Opening only: GHASH without output (sealing runs it out of place).
    Verify,
}

/// Seals `pt` on `gcm` in the pieces `cuts` marks, each run as `modes`
/// says (cycled); returns ciphertext and tag.
fn seal_pieces(
    gcm: &Aes128Gcm,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    pt: &[u8],
    cuts: &[usize],
    modes: &[Piece],
) -> (Vec<u8>, [u8; TAG_LEN]) {
    let mut s = gcm.sealing(nonce, aad);
    let mut ct = Vec::new();
    for (i, w) in bounds(cuts, pt.len()).windows(2).enumerate() {
        let src = &pt[w[0]..w[1]];
        match modes[i % modes.len()] {
            Piece::OutOfPlace | Piece::Verify => {
                let mut out = vec![0xee; src.len()];
                s.update(src, &mut out);
                ct.extend_from_slice(&out);
            }
            Piece::Append => s.append(src, &mut ct),
        }
    }
    (ct, s.finish())
}

/// Opens `ct` the same way; verify-only pieces leave their plaintext
/// range as `0xee`. Returns the plaintext and whether `tag` checked.
fn open_pieces(
    gcm: &Aes128Gcm,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ct: &[u8],
    tag: &[u8],
    cuts: &[usize],
    modes: &[Piece],
) -> (Vec<u8>, bool) {
    let mut s = gcm.opening(nonce, aad);
    let mut pt = Vec::new();
    for (i, w) in bounds(cuts, ct.len()).windows(2).enumerate() {
        let src = &ct[w[0]..w[1]];
        match modes[i % modes.len()] {
            Piece::OutOfPlace => {
                let mut out = vec![0xee; src.len()];
                s.update(src, &mut out);
                pt.extend_from_slice(&out);
            }
            Piece::Append => s.append(src, &mut pt),
            Piece::Verify => {
                s.verify(src);
                pt.resize(pt.len() + src.len(), 0xee);
            }
        }
    }
    (pt, s.finish(tag))
}

/// `0`, the sorted cuts clamped to `len`, `len`.
fn bounds(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut b: Vec<usize> = cuts.iter().map(|&c| c.min(len)).collect();
    b.sort_unstable();
    b.insert(0, 0);
    b.push(len);
    b
}

/// Every two-piece split of a 600-byte message (two 256-byte strides, an
/// eight-block pass and a tail) and every three-piece split around the
/// 16- and 256-byte edges, in each pair of piece modes, on both backends,
/// against the one-shot result of the other backend.
#[test]
fn every_split_matches_one_shot_on_both_backends() {
    let key = [0x5cu8; 16];
    let nonce = [0x21u8; NONCE_LEN];
    let aad = [0xa5u8; 13];
    let pt: Vec<u8> = (0..600).map(|i| (i * 7 + 3) as u8).collect();
    let (hw, soft) = (Aes128Gcm::new(&key), Aes128Gcm::new_portable(&key));
    let modes = [Piece::OutOfPlace, Piece::Append, Piece::Verify];
    let edges: Vec<usize> = [0usize, 16, 32, 256, 512]
        .iter()
        .flat_map(|&e| e.saturating_sub(1)..=e + 1)
        .collect();
    let mut splits: Vec<Vec<usize>> = (0..=pt.len()).map(|c| vec![c]).collect();
    for &a in &edges {
        for &b in &edges {
            splits.push(vec![a, b]);
        }
    }
    for (gcm, reference) in [(&hw, &soft), (&soft, &hw)] {
        let mut want = pt.clone();
        let want_tag = seal(reference, &nonce, &aad, &mut want);
        for cuts in &splits {
            for m in &modes {
                for n in &modes {
                    let pair = [*m, *n];
                    let what = format!("{gcm:?} cuts {cuts:?} {pair:?}");
                    let (ct, tag) = seal_pieces(gcm, &nonce, &aad, &pt, cuts, &pair);
                    assert_eq!(ct, want, "{what}: ciphertext");
                    assert_eq!(tag, want_tag, "{what}: tag");
                    let (got, ok) = open_pieces(gcm, &nonce, &aad, &ct, &tag, cuts, &pair);
                    assert!(ok, "{what}: open");
                    let b = bounds(cuts, pt.len());
                    for (i, w) in b.windows(2).enumerate() {
                        let r = w[0]..w[1];
                        if matches!(pair[i % 2], Piece::Verify) {
                            assert!(got[r].iter().all(|&x| x == 0xee), "{what}: verify wrote");
                        } else {
                            assert_eq!(got[r.clone()], pt[r], "{what}: plaintext");
                        }
                    }
                }
            }
        }
    }
}

/// A streamed opening rejects a bad tag whatever the split, and a
/// verify-only stream checks exactly what a decrypting one does.
#[test]
fn streamed_open_rejects_bad_tag() {
    let gcm = Aes128Gcm::new(&[3u8; 16]);
    let nonce = [9u8; NONCE_LEN];
    let mut ct: Vec<u8> = (0..700u32).map(|i| i as u8).collect();
    let mut tag = seal(&gcm, &nonce, b"aad", &mut ct);
    for cuts in [vec![], vec![5], vec![16, 300], vec![255, 257, 699]] {
        for mode in [Piece::OutOfPlace, Piece::Verify] {
            let (_, ok) = open_pieces(&gcm, &nonce, b"aad", &ct, &tag, &cuts, &[mode]);
            assert!(ok, "{cuts:?} {mode:?}");
            tag[0] ^= 1;
            let (_, ok) = open_pieces(&gcm, &nonce, b"aad", &ct, &tag, &cuts, &[mode]);
            tag[0] ^= 1;
            assert!(!ok, "{cuts:?} {mode:?}: bad tag accepted");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_splits_match_one_shot(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; NONCE_LEN]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..=40),
        len in 0usize..=4_200,
        cuts in proptest::collection::vec(0usize..=4_200, 0..8),
        modes in proptest::collection::vec(0u8..3, 1..5),
    ) {
        let modes: Vec<Piece> = modes
            .iter()
            .map(|&m| [Piece::OutOfPlace, Piece::Append, Piece::Verify][m as usize])
            .collect();
        let pt: Vec<u8> = (0..len).map(|i| (i * 13 + len) as u8).collect();
        let (hw, soft) = (Aes128Gcm::new(&key), Aes128Gcm::new_portable(&key));
        let mut want = pt.clone();
        let want_tag = seal(&soft, &nonce, &aad, &mut want);
        for gcm in [&hw, &soft] {
            let (ct, tag) = seal_pieces(gcm, &nonce, &aad, &pt, &cuts, &modes);
            prop_assert_eq!(&ct, &want);
            prop_assert_eq!(tag, want_tag);
            let (got, ok) = open_pieces(gcm, &nonce, &aad, &ct, &tag, &cuts, &modes);
            prop_assert!(ok);
            let b = bounds(&cuts, len);
            for (i, w) in b.windows(2).enumerate() {
                if !matches!(modes[i % modes.len()], Piece::Verify) {
                    prop_assert_eq!(&got[w[0]..w[1]], &pt[w[0]..w[1]]);
                }
            }
        }
    }
}
