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

use pdn_crypto::aes_gcm::{Aes128Gcm, NONCE_LEN};
use pdn_crypto::hex;
use proptest::prelude::*;

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
        let t = gcm.seal_in_place(&iv, &aad, &mut buf);
        assert_eq!(hex(&buf), ct, "{gcm:?} ciphertext");
        assert_eq!(hex(&t), tag, "{gcm:?} tag");
        assert!(gcm.open_in_place(&iv, &aad, &mut buf, &t), "{gcm:?} open");
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
    let tag = gcm.seal_in_place(&nonce, b"aad", &mut buf);
    let sealed = buf.clone();
    let mut bad_tag = tag;
    bad_tag[15] ^= 1;
    assert!(!gcm.open_in_place(&nonce, b"aad", &mut buf, &bad_tag));
    buf.copy_from_slice(&sealed);
    assert!(!gcm.open_in_place(&nonce, b"aae", &mut buf, &tag));
    buf.copy_from_slice(&sealed);
    let mut other = nonce;
    other[0] ^= 1;
    assert!(!gcm.open_in_place(&other, b"aad", &mut buf, &tag));
    buf.copy_from_slice(&sealed);
    assert!(gcm.open_in_place(&nonce, b"aad", &mut buf, &tag));
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
            let t_hw = hw.seal_in_place(&nonce, aad, &mut c_hw);
            let t_soft = soft.seal_in_place(&nonce, aad, &mut c_soft);
            let what = format!("len {len}, aad {}", aad.len());
            assert_eq!(c_hw, c_soft, "{what}: ciphertext");
            assert_eq!(t_hw, t_soft, "{what}: tag");
            assert!(
                hw.open_in_place(&nonce, aad, &mut c_soft, &t_soft),
                "{what}"
            );
            assert_eq!(c_soft, pt, "{what}: hardware open");
            assert!(soft.open_in_place(&nonce, aad, &mut c_hw, &t_hw), "{what}");
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
        let t_hw = hw.seal_in_place(&nonce, &aad, &mut c_hw);
        let t_soft = soft.seal_in_place(&nonce, &aad, &mut c_soft);
        prop_assert_eq!(&c_hw, &c_soft);
        prop_assert_eq!(t_hw, t_soft);

        // Each backend opens the other's output.
        prop_assert!(hw.open_in_place(&nonce, &aad, &mut c_soft, &t_soft));
        prop_assert!(soft.open_in_place(&nonce, &aad, &mut c_hw, &t_hw));
        prop_assert_eq!(&c_hw, &pt);
        prop_assert_eq!(&c_soft, &pt);
    }
}
