//! # pdn-core
//!
//! The **PDN analyzer** of the *Stealthy Peers* paper (§IV, Figure 2): a
//! framework that takes a PDN service configuration and a security test,
//! runs instrumented peers against it, and returns verdicts, captures and
//! resource traces. On top of the `pdn-provider` world harness it
//! implements every attack and defense the paper evaluates:
//!
//! - [`freeriding`] — §IV-B peer-authentication tests (cross-domain,
//!   domain-spoofing), the key field study (44 extracted keys → 11/36
//!   vulnerable), and billing amplification;
//! - [`pollution`] — §IV-C fake-CDN content pollution (direct vs video
//!   segment pollution, Figure 3);
//! - [`ip_leak`] — §IV-D IP leakage: the two-peer test and the one-week
//!   in-the-wild harvest (7,740 unique IPs, bogon taxonomy, country mix);
//! - [`squatting`] — §IV-D resource squatting: Figure 4 (CPU/memory/IO vs
//!   a no-peer control) and Figure 5 (upload vs neighbor count), plus the
//!   cellular-policy audit;
//! - [`defense`] — §V mitigations: disposable video-binding JWT (§V-A),
//!   peer-assisted integrity checking with Table VI (§V-B), TURN-relay and
//!   matching-policy privacy mitigations (§V-C);
//! - [`riskmatrix`] — Table V assembled by running every test against
//!   every provider profile.
//!
//! # Examples
//!
//! ```no_run
//! use pdn_core::pollution::{run_pollution, PollutionMode};
//! use pdn_provider::ProviderProfile;
//!
//! // The headline finding: video segment pollution works against Peer5.
//! let profile = ProviderProfile::peer5();
//! let result = run_pollution(
//!     &profile,
//!     PollutionMode::FromSeq(profile.slow_start_segments),
//!     2,
//!     42,
//! );
//! assert!(result.attack_succeeded());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defense;
pub mod ecdn;
pub mod economics;
pub mod freeriding;
pub mod ip_leak;
pub mod pollution;
pub mod riskmatrix;
pub mod squatting;

pub use freeriding::{AuthTestOutcome, FreeRidingResult, KeyFieldStudy};
pub use ip_leak::{IpLeakWildResult, PopulationSpec};
pub use pdn_simnet::shard::{derive_seed, WorldPool};
pub use pollution::{PollutionMode, PollutionResult};
pub use riskmatrix::{build_matrix_pooled, Cell, RiskMatrix};
pub use squatting::{BandwidthPoint, ResourceFigure};
