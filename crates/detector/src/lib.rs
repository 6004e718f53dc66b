//! # pdn-detector
//!
//! The large-scale PDN customer detection framework of §III of the
//! *Stealthy Peers* paper:
//!
//! - [`signatures`] — the SDK signature database (URL patterns, JS
//!   namespaces, Android manifest keys) and API key extraction;
//! - [`corpus`] — a synthetic web/app ecosystem with planted PDN customers
//!   standing in for Tranco-300K + Androzoo (see DESIGN.md substitutions);
//! - [`matcher`] — the case-folded Aho–Corasick automaton the scanner's
//!   hot path compiles the signature database into;
//! - [`scanner`] — the static crawler (depth-3 subpage walk) and APK
//!   scanner producing *potential* customers, sharded across threads;
//! - [`traffic`] — the capture analyzer recognising PDN traffic as STUN
//!   binding requests followed by DTLS between candidate peers;
//! - [`dynamic`] — per-site watch sessions and vantage handling;
//! - [`tables`] — the end-to-end pipeline reassembling Tables I–IV.
//!
//! # Examples
//!
//! ```
//! use pdn_detector::{corpus, tables};
//! use pdn_simnet::SimRng;
//!
//! let mut rng = SimRng::seed(1);
//! let eco = corpus::generate(corpus::CorpusConfig::default(), &mut rng);
//! let report = tables::run_pipeline(&eco, &mut rng);
//! assert_eq!(report.table2.len(), 17); // confirmed PDN websites
//! assert_eq!(report.table4.len(), 10); // confirmed private services
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod dynamic;
pub mod matcher;
pub mod scanner;
pub mod signatures;
pub mod tables;
pub mod traffic;

pub use corpus::{CorpusConfig, Ecosystem};
pub use scanner::Scanner;
pub use signatures::ProviderTag;
pub use tables::{run_pipeline, DetectionReport};
pub use traffic::{analyze_capture, TrafficReport};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use pdn_simnet::SimRng;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The pipeline's Table I is invariant to haystack size and seed:
        /// plants are always recovered, haystack never pollutes counts.
        #[test]
        fn table1_invariant_to_haystack(seed in any::<u64>(), haystack in 0usize..2000) {
            let mut rng = SimRng::seed(seed);
            let eco = corpus::generate(
                corpus::CorpusConfig {
                    website_haystack: haystack,
                    app_haystack: haystack,
                    video_fraction: 0.3,
                },
                &mut rng,
            );
            let report = tables::run_pipeline(&eco, &mut rng);
            let total_potential: usize = report.table1.iter().map(|r| r.websites.1).sum();
            let total_confirmed: usize = report.table1.iter().map(|r| r.websites.0).sum();
            prop_assert_eq!(total_potential, 134);
            prop_assert_eq!(total_confirmed, 17);
        }
    }
}

#[cfg(test)]
mod paper_scale_tests {
    use super::*;
    use pdn_simnet::SimRng;

    /// The full 68,757-domain / 1.5M-APK scale of §III-C. Slow; run with
    /// `cargo test -p pdn-detector -- --ignored`.
    #[test]
    #[ignore = "paper-scale corpus: several minutes"]
    fn full_scale_pipeline() {
        let mut rng = SimRng::seed(1);
        let config = corpus::CorpusConfig {
            website_haystack: 68_757,
            app_haystack: 1_500_000,
            video_fraction: 1.0,
        };
        let eco = corpus::generate(config, &mut rng);
        assert!(eco.apps.len() >= 1_500_000);
        let report = tables::run_pipeline(&eco, &mut rng);
        let sites: usize = report.table1.iter().map(|r| r.websites.1).sum();
        assert_eq!(sites, 134);
        assert_eq!(report.table4.len(), 10);
    }
}
