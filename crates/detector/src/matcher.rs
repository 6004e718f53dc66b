//! Precompiled multi-pattern signature matching.
//!
//! The naive matcher in [`crate::signatures`] re-lowercases the entire page
//! *and every needle* on every call and then runs one substring scan per
//! signature — O(signatures × page_len) with two fresh allocations per
//! signature test. At the paper's scale (Tranco-300K crawl, 1.5M APKs,
//! §III-C) and with a realistic multi-version signature database, that
//! dominates the scan. This module provides a from-scratch
//! [Aho–Corasick](https://doi.org/10.1145/360825.360855) automaton compiled
//! once per signature database — one pass over the content regardless of
//! signature count, zero per-page allocations beyond the result vector —
//! plus the two tricks that make it fast in practice:
//!
//! - **byte-class compression**: input bytes are mapped through a 256-entry
//!   equivalence-class table (bytes not occurring in any pattern share one
//!   dead class), shrinking the transition table by ~8× so it stays
//!   cache-resident; ASCII case folding is baked into the same table, so
//!   the search loop never branches on case;
//! - **gateway prefiltering** for page content: every page needle contains
//!   one of a handful of brand tokens (`peer5`, `streamroot`, …), so a page
//!   with no gateway token — the overwhelming majority of a crawl — is
//!   rejected with a few SIMD-accelerated `str::contains` probes and never
//!   enters the automaton at all.
//!
//! Case folding is ASCII-only (the signature needles are all ASCII). This
//! differs from `str::to_lowercase` for exotic code points whose Unicode
//! lowercase maps into ASCII (e.g. the Kelvin sign), which cannot occur in
//! the needles and is not a meaningful signal in scanned content.
//!
//! [`SignatureMatcher`] wraps three automatons (page content, manifest
//! keys, APK namespaces) behind the same semantics as the naive
//! per-needle matcher in `pdn-oracle` (`naive_scan`), the reference its
//! equivalence property tests and the `scan_bench` baseline use.

use crate::signatures::{ProviderTag, Signature, SignatureKind};

/// Sentinel for "no transition" during construction.
const NONE: u32 = u32::MAX;

/// The brand tokens used to prefilter page content. A page that contains
/// none of these (case-folded) cannot match any page signature whose
/// needle contains one of them; [`SignatureMatcher::new`] verifies that
/// coverage and disables the prefilter for databases where it doesn't
/// hold.
/// `peer` covers both the Peer5 family and every `RTCPeerConnection`
/// variant, so four probes suffice for the built-in database.
const PAGE_GATEWAYS: &[&str] = &["peer", "streamroot", "viblast", "datachannel"];

/// A byte-level Aho–Corasick automaton over up to 64 patterns.
///
/// Matches are reported as a `u64` bitmask of pattern indices (in the order
/// the patterns were handed to [`AhoCorasick::new`]), which keeps the hot
/// path allocation-free.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Maps an input byte to its equivalence class; case folding (when
    /// enabled) is baked in, and bytes absent from every pattern share
    /// class 0.
    classes: Box<[u8; 256]>,
    /// Row stride = number of classes rounded up to a power of two, so the
    /// row index is a shift rather than a multiply.
    stride_shift: u32,
    /// Dense transition table: `trans[(state << stride_shift) | class]` is
    /// the next state. After construction this is total (failure links are
    /// baked in), so the search loop is a single indexed load per byte.
    trans: Vec<u16>,
    /// `out[state]` is the bitmask of patterns ending at this state or at
    /// any state reachable via suffix (failure) links.
    out: Vec<u64>,
    /// Pattern lengths, for anchored (prefix) matching.
    pattern_lens: Vec<usize>,
}

impl AhoCorasick {
    /// Compiles an automaton from `patterns`.
    ///
    /// # Panics
    ///
    /// Panics when more than 64 patterns are supplied (the result bitmask
    /// is a `u64`) or when a pattern is empty.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P], case_fold: bool) -> Self {
        assert!(
            patterns.len() <= 64,
            "AhoCorasick supports at most 64 patterns, got {}",
            patterns.len()
        );
        let fold = |b: u8| if case_fold { b.to_ascii_lowercase() } else { b };

        // Byte-class assignment: class 0 is "occurs in no pattern"; each
        // distinct (folded) pattern byte gets its own class.
        let mut classes = Box::new([0u8; 256]);
        let mut class_count = 1usize;
        for pattern in patterns {
            for &raw in pattern.as_ref() {
                let b = fold(raw) as usize;
                if classes[b] == 0 {
                    classes[b] = class_count as u8;
                    class_count += 1;
                }
            }
        }
        assert!(class_count <= 256, "byte classes overflow");
        // With folding, route both cases of a letter to the same class.
        if case_fold {
            for b in b'A'..=b'Z' {
                classes[b as usize] = classes[b.to_ascii_lowercase() as usize];
            }
        }
        let stride = class_count.next_power_of_two();
        let stride_shift = stride.trailing_zeros();

        // Trie construction over the class alphabet.
        let mut trans: Vec<u32> = vec![NONE; stride];
        let mut out: Vec<u64> = vec![0];
        let mut pattern_lens = Vec::with_capacity(patterns.len());
        for (idx, pattern) in patterns.iter().enumerate() {
            let bytes = pattern.as_ref();
            assert!(!bytes.is_empty(), "empty pattern at index {idx}");
            pattern_lens.push(bytes.len());
            let mut state = 0usize;
            for &raw in bytes {
                let c = classes[fold(raw) as usize] as usize;
                let slot = (state << stride_shift) | c;
                let next = trans[slot];
                state = if next == NONE {
                    let new_state = out.len() as u32;
                    trans[slot] = new_state;
                    trans.resize(trans.len() + stride, NONE);
                    out.push(0);
                    new_state as usize
                } else {
                    next as usize
                };
            }
            out[state] |= 1 << idx;
        }
        assert!(out.len() < u16::MAX as usize, "too many states for u16");

        // BFS over the trie: compute failure links, merge suffix outputs,
        // and bake failures into the transition table so the search loop
        // never walks a failure chain.
        let state_count = out.len();
        let mut fail: Vec<u32> = vec![0; state_count];
        let mut queue = std::collections::VecDeque::new();
        for slot in trans.iter_mut().take(stride) {
            let next = *slot;
            if next == NONE {
                *slot = 0;
            } else {
                fail[next as usize] = 0;
                queue.push_back(next);
            }
        }
        while let Some(state) = queue.pop_front() {
            let s = state as usize;
            out[s] |= out[fail[s] as usize];
            for c in 0..stride {
                let slot = (s << stride_shift) | c;
                let next = trans[slot];
                let via_fail = trans[((fail[s] as usize) << stride_shift) | c];
                if next == NONE {
                    trans[slot] = via_fail;
                } else {
                    fail[next as usize] = via_fail;
                    queue.push_back(next);
                }
            }
        }

        AhoCorasick {
            classes,
            stride_shift,
            trans: trans.into_iter().map(|s| s as u16).collect(),
            out,
            pattern_lens,
        }
    }

    /// Returns the bitmask of patterns occurring anywhere in `haystack`.
    ///
    /// Single pass, no allocation. When the automaton was built with case
    /// folding, `haystack` may be any case (folding is baked into the
    /// class table).
    pub fn match_mask(&self, haystack: &[u8]) -> u64 {
        let mut state = 0usize;
        let mut mask = 0u64;
        for &raw in haystack {
            let c = self.classes[raw as usize] as usize;
            state = self.trans[(state << self.stride_shift) | c] as usize;
            mask |= self.out[state];
        }
        mask
    }

    /// Returns the bitmask of patterns that are *prefixes* of `haystack`
    /// (anchored matching, for `starts_with` semantics).
    ///
    /// Walks at most `max_pattern_len` bytes.
    pub fn prefix_mask(&self, haystack: &[u8]) -> u64 {
        let mut state = 0usize;
        let mut mask = 0u64;
        for (i, &raw) in haystack.iter().enumerate() {
            let c = self.classes[raw as usize] as usize;
            state = self.trans[(state << self.stride_shift) | c] as usize;
            let mut hits = self.out[state];
            while hits != 0 {
                let idx = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                // A pattern ending at position i+1 is anchored iff its
                // length is exactly i+1.
                if self.pattern_lens[idx] == i + 1 {
                    mask |= 1 << idx;
                }
            }
            if state == 0 {
                // Fell back to the root: no pattern can still be a prefix.
                break;
            }
        }
        mask
    }

    /// Number of compiled patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }
}

/// Reusable per-worker scratch for the page hot path: the case-folded copy
/// of the page under scan. One allocation per worker, reused across every
/// page in its shard.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    folded: String,
}

/// The signature database compiled for the scan hot path.
///
/// Built once (per [`crate::scanner::Scanner`]) from a `&[Signature]` and
/// shared read-only across scan worker threads.
#[derive(Debug, Clone)]
pub struct SignatureMatcher {
    /// Case-folded automaton over `PageContent` needles.
    page: AhoCorasick,
    /// Provider for each page pattern index.
    page_providers: Vec<ProviderTag>,
    /// Brand tokens covering every page needle, when such coverage holds
    /// (see [`PAGE_GATEWAYS`]); `None` disables the prefilter.
    page_gateways: Option<&'static [&'static str]>,
    /// Case-sensitive automaton over `AndroidManifest` needles
    /// (substring semantics, like the naive `k.contains(needle)`).
    manifest: AhoCorasick,
    manifest_providers: Vec<ProviderTag>,
    /// Case-sensitive automaton over `AndroidNamespace` needles
    /// (anchored semantics, like the naive `n.starts_with(needle)`).
    namespace: AhoCorasick,
    namespace_providers: Vec<ProviderTag>,
}

impl SignatureMatcher {
    /// Compiles `signatures` into per-kind automatons.
    pub fn new(signatures: &[Signature]) -> Self {
        let collect = |kind: SignatureKind| -> (Vec<&'static str>, Vec<ProviderTag>) {
            let mut needles = Vec::new();
            let mut providers = Vec::new();
            for s in signatures.iter().filter(|s| s.kind == kind) {
                needles.push(s.needle);
                providers.push(s.provider.clone());
            }
            (needles, providers)
        };
        let (page_needles, page_providers) = collect(SignatureKind::PageContent);
        let (manifest_needles, manifest_providers) = collect(SignatureKind::AndroidManifest);
        let (namespace_needles, namespace_providers) = collect(SignatureKind::AndroidNamespace);
        // The prefilter is only sound when every page needle contains a
        // gateway token; databases that break coverage fall back to the
        // bare automaton.
        let covered = page_needles.iter().all(|n| {
            let folded = n.to_ascii_lowercase();
            PAGE_GATEWAYS.iter().any(|g| folded.contains(g))
        });
        SignatureMatcher {
            page: AhoCorasick::new(&page_needles, true),
            page_providers,
            page_gateways: covered.then_some(PAGE_GATEWAYS),
            manifest: AhoCorasick::new(&manifest_needles, false),
            manifest_providers,
            namespace: AhoCorasick::new(&namespace_needles, false),
            namespace_providers,
        }
    }

    /// Matches page content; same semantics as the naive reference
    /// matcher in `pdn-oracle`: case-insensitive substring
    /// search, known-provider hits subsume [`ProviderTag::GenericWebRtc`],
    /// result sorted and deduplicated.
    ///
    /// Convenience wrapper that pays one scratch allocation; the scan loop
    /// uses [`SignatureMatcher::match_page_in`] with a per-worker
    /// [`Scratch`].
    pub fn match_page(&self, content: &str) -> Vec<ProviderTag> {
        self.match_page_in(&mut Scratch::default(), content)
    }

    /// [`SignatureMatcher::match_page`] with caller-provided scratch.
    pub fn match_page_in(&self, scratch: &mut Scratch, content: &str) -> Vec<ProviderTag> {
        let mask = self.page_mask(scratch, content);
        let mut hits = providers_from_mask(mask, &self.page_providers);
        apply_generic_subsumption(&mut hits);
        hits
    }

    fn page_mask(&self, scratch: &mut Scratch, content: &str) -> u64 {
        // Fold once into the reused buffer (in-place ASCII lowercasing is
        // vectorized and keeps the content valid UTF-8).
        scratch.folded.clear();
        scratch.folded.push_str(content);
        scratch.folded.make_ascii_lowercase();
        let folded: &str = &scratch.folded;
        if let Some(gateways) = self.page_gateways {
            // SIMD substring probes reject the (overwhelmingly common)
            // no-signature page without walking the automaton.
            if !gateways.iter().any(|g| folded.contains(g)) {
                return 0;
            }
        }
        self.page.match_mask(folded.as_bytes())
    }

    /// Matches APK artifacts; same semantics as the naive reference
    /// matcher in `pdn-oracle`: substring match on manifest keys,
    /// prefix match on namespaces, case-sensitive.
    pub fn match_apk(&self, manifest_keys: &[String], namespaces: &[String]) -> Vec<ProviderTag> {
        let mut manifest_mask = 0u64;
        for key in manifest_keys {
            manifest_mask |= self.manifest.match_mask(key.as_bytes());
            if manifest_mask.count_ones() as usize == self.manifest.pattern_count() {
                break;
            }
        }
        let mut namespace_mask = 0u64;
        for ns in namespaces {
            namespace_mask |= self.namespace.prefix_mask(ns.as_bytes());
            if namespace_mask.count_ones() as usize == self.namespace.pattern_count() {
                break;
            }
        }
        let mut hits = providers_from_mask(manifest_mask, &self.manifest_providers);
        hits.extend(providers_from_mask(
            namespace_mask,
            &self.namespace_providers,
        ));
        hits.sort_unstable();
        hits.dedup();
        hits
    }
}

/// Expands a pattern bitmask to its (sorted, deduplicated) providers.
fn providers_from_mask(mut mask: u64, providers: &[ProviderTag]) -> Vec<ProviderTag> {
    let mut hits = Vec::new();
    while mask != 0 {
        let idx = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        hits.push(providers[idx].clone());
    }
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// Known-provider hits subsume generic WebRTC hits (§III-D: generic
/// matches only feed the private-PDN triage when no known SDK matched).
fn apply_generic_subsumption(hits: &mut Vec<ProviderTag>) {
    if hits.iter().any(|p| *p != ProviderTag::GenericWebRtc) {
        hits.retain(|p| *p != ProviderTag::GenericWebRtc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signatures::builtin_signatures;
    use proptest::prelude::*;

    #[test]
    fn automaton_finds_overlapping_patterns() {
        let ac = AhoCorasick::new(&["he", "she", "his", "hers"], false);
        let mask = ac.match_mask(b"ushers");
        // "she" at 1, "he" at 2, "hers" at 2.
        assert_eq!(mask, 0b1011);
        assert_eq!(ac.match_mask(b"his"), 0b0100);
        assert_eq!(ac.match_mask(b"xyz"), 0);
    }

    #[test]
    fn case_folding_matches_mixed_case() {
        let ac = AhoCorasick::new(&["RTCPeerConnection"], true);
        assert_ne!(ac.match_mask(b"new rtcpeerconnection()"), 0);
        assert_ne!(ac.match_mask(b"NEW RTCPEERCONNECTION()"), 0);
        let strict = AhoCorasick::new(&["RTCPeerConnection"], false);
        assert_eq!(strict.match_mask(b"new rtcpeerconnection()"), 0);
    }

    #[test]
    fn prefix_mask_is_anchored() {
        let ac = AhoCorasick::new(&["com.viblast.android", "io.streamroot.dna"], false);
        assert_eq!(ac.prefix_mask(b"com.viblast.android.player"), 0b01);
        assert_eq!(ac.prefix_mask(b"io.streamroot.dna"), 0b10);
        // Occurs, but not at the start: no anchored match.
        assert_eq!(ac.prefix_mask(b"app.com.viblast.android"), 0);
    }

    #[test]
    fn one_pattern_inside_another() {
        let ac = AhoCorasick::new(&["abc", "b"], false);
        assert_eq!(ac.match_mask(b"abc"), 0b11);
        assert_eq!(ac.match_mask(b"b"), 0b10);
    }

    #[test]
    fn builtin_page_needles_are_gateway_covered() {
        // The prefilter must stay enabled for the built-in database.
        let m = SignatureMatcher::new(&builtin_signatures());
        assert!(m.page_gateways.is_some());
    }

    #[test]
    fn uncovered_needles_disable_the_prefilter() {
        let sigs = vec![Signature {
            provider: ProviderTag::GenericWebRtc,
            kind: SignatureKind::PageContent,
            needle: "some-custom-sdk.js",
        }];
        let m = SignatureMatcher::new(&sigs);
        assert!(m.page_gateways.is_none());
        assert_eq!(
            m.match_page("<script src=\"some-custom-sdk.js\"></script>"),
            vec![ProviderTag::GenericWebRtc]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Raw automaton vs naive substring search over arbitrary patterns.
        #[test]
        fn automaton_equals_contains(
            hay in "[a-c]{0,64}",
            pats in proptest::collection::vec("[a-c]{1,5}", 1..8),
        ) {
            let ac = AhoCorasick::new(&pats, false);
            let mask = ac.match_mask(hay.as_bytes());
            for (i, p) in pats.iter().enumerate() {
                prop_assert_eq!(
                    mask & (1 << i) != 0,
                    hay.contains(p.as_str()),
                    "pattern {:?} in {:?}", p, hay
                );
            }
        }
    }
}
