//! # pdn-oracle
//!
//! Test oracles for the stealthy-peers workspace: the pre-fast-path
//! implementations that differential tests and speedup gates compare the
//! production crates against. Nothing here is linked into a production
//! binary — the production crates list `pdn-oracle` only as a
//! dev-dependency of their `tests/` directories, so each production type
//! exists exactly once in every build.
//!
//! | oracle | compared against by |
//! |--------|---------------------|
//! | [`reference`](mod@reference) | `pdn-crypto`'s `reference_diff` tests, `crypto_bench` |
//! | [`dtls_v1`] | `crypto_bench`'s DTLS seal+open speedup gate |
//! | [`json_baseline`] | `pdn-provider`'s `wire_differential` and `retired_formats` tests, `wire_bench` |
//! | [`p2p::P2pMsg`] | the same tests and `wire_bench`, through the owned P2P codec |
//! | [`naive_scan`] | `pdn-detector`'s `matcher_differential` tests, `scan_bench` |
//! | [`queue::HeapMapQueue`] | `pdn-simnet`'s `queue_differential` test, `sim_bench` |
//! | [`state_baseline`] | `pdn-provider`'s `state_differential` tests |
//!
//! The `crypto_bench`, `wire_bench`, `sim_bench` and `scan_bench` binaries
//! live here because they time production code against these oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtls_v1;
pub mod json_baseline;
pub mod naive_scan;
pub mod p2p;
pub mod queue;
pub mod reference;
pub mod state_baseline;
