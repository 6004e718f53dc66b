//! The repository benchmark: four workloads that exercise the paper
//! reproduction, the tracker service at its knee and under overload, and
//! the 100k-peer swarm, measured in process CPU time. `src/main.rs` is the
//! command; see `README.md` for the metrics and why each workload exists.

pub mod paper;
pub mod replay;
pub mod swarm;
pub mod sys;
pub mod tracker;

/// Short content hash: the first 16 hex digits of SHA-256.
pub fn short_hash(text: &str) -> String {
    pdn_crypto::sha256::digest(text.as_bytes())[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
