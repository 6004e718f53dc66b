//! Differential tests of the compiled signature matcher and the sharded
//! scanner against the naive reference in `pdn-oracle`.

use pdn_detector::corpus::{generate, CorpusConfig};
use pdn_detector::matcher::SignatureMatcher;
use pdn_detector::signatures::builtin_signatures;
use pdn_detector::Scanner;
use pdn_oracle::naive_scan::{match_apk, match_page, scan_naive};
use pdn_simnet::SimRng;
use proptest::prelude::*;

#[test]
fn matches_reference_on_builtin_corpus_samples() {
    let sigs = builtin_signatures();
    let m = SignatureMatcher::new(&sigs);
    for content in [
        r#"<script src="https://api.peer5.com/peer5.js?id=abc123"></script>"#,
        r#"<script src="https://cdn.streamroot.io/dna/latest.js"></script>"#,
        "new RTCPeerConnection(); api.peer5.com/peer5.js?id=x",
        "pc = new RTCPeerConnection(); pc.createDataChannel('x')",
        "<html>plain page</html>",
        "WINDOW.PEER5 viblast( STREAMROOTKEY",
    ] {
        assert_eq!(
            m.match_page(content),
            match_page(&sigs, content),
            "{content}"
        );
    }
    for (keys, namespaces) in [
        (vec!["io.streamroot.dna.StreamrootKey".to_string()], vec![]),
        (vec![], vec!["com.viblast.android.player".to_string()]),
        (vec![], vec!["app.com.viblast.android".to_string()]),
        (
            vec!["com.peer5.ApiKey".to_string()],
            vec![
                "io.streamroot.dna".to_string(),
                "com.peer5.sdk.x".to_string(),
            ],
        ),
        (vec![], vec![]),
    ] {
        assert_eq!(
            m.match_apk(&keys, &namespaces),
            match_apk(&sigs, &keys, &namespaces),
            "{keys:?} {namespaces:?}"
        );
    }
}

#[test]
fn naive_scan_agrees_with_hot_path() {
    let mut rng = SimRng::seed(3);
    let eco = generate(
        CorpusConfig {
            website_haystack: 500,
            app_haystack: 500,
            video_fraction: 0.4,
        },
        &mut rng,
    );
    let scanner = Scanner::new();
    assert_eq!(scan_naive(&scanner, &eco), scanner.scan(&eco));
}

/// Builds arbitrary content biased to contain needle fragments, so the
/// property tests actually exercise hits, near-misses, and overlaps
/// rather than random noise that never matches.
fn salted_content(words: &[String], salts: &[usize]) -> String {
    let sigs = builtin_signatures();
    let mut out = String::new();
    for (i, w) in words.iter().enumerate() {
        out.push_str(w);
        if let Some(&salt) = salts.get(i) {
            let s = &sigs[salt % sigs.len()];
            // Sometimes the full needle, sometimes a truncated tease.
            let cut = (salt / sigs.len()) % s.needle.len() + 1;
            out.push_str(&s.needle[..if salt % 3 == 0 { s.needle.len() } else { cut }]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The automaton agrees with the naive `contains` reference on
    /// arbitrary (needle-salted) content.
    #[test]
    fn page_matcher_equals_reference(
        words in proptest::collection::vec("[ -~]{0,12}", 0..8),
        salts in proptest::collection::vec(0usize..4096, 0..8),
    ) {
        let sigs = builtin_signatures();
        let m = SignatureMatcher::new(&sigs);
        let content = salted_content(&words, &salts);
        prop_assert_eq!(m.match_page(&content), match_page(&sigs, &content));
    }

    /// Same for the APK side (manifest substring + namespace prefix).
    #[test]
    fn apk_matcher_equals_reference(
        keys in proptest::collection::vec("[ -~]{0,40}", 0..4),
        namespaces in proptest::collection::vec("[a-z.]{0,30}", 0..4),
        salts in proptest::collection::vec(0usize..4096, 0..4),
    ) {
        let sigs = builtin_signatures();
        let m = SignatureMatcher::new(&sigs);
        // Salt some entries with real needles so anchored/substring
        // paths are exercised.
        let mut keys = keys;
        let mut namespaces = namespaces;
        for (i, &salt) in salts.iter().enumerate() {
            let s = &sigs[salt % sigs.len()];
            if i % 2 == 0 {
                if let Some(k) = keys.get_mut(i / 2) {
                    k.push_str(s.needle);
                }
            } else if let Some(n) = namespaces.get_mut(i / 2) {
                let pos = salt % (n.len() + 1);
                n.insert_str(pos, s.needle);
            }
        }
        prop_assert_eq!(
            m.match_apk(&keys, &namespaces),
            match_apk(&sigs, &keys, &namespaces)
        );
    }
}
