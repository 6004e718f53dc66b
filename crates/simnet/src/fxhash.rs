//! Deterministic non-DoS hashing and string interning for hot-path state.
//!
//! The std `HashMap` defaults to SipHash-1-3 behind a per-process random
//! `RandomState`. That buys HashDoS resistance the simulator does not need
//! (all keys are simulation-internal) at the cost of ~10x the hashing work
//! and — more importantly for this codebase — *nondeterministic iteration
//! order*, which forced "collect + sort" patterns all over the swarm-state
//! layer. [`FxHasher`] is a from-scratch implementation of the multiply-xor
//! scheme used by the rustc compiler (firefox's "Fx" hash): one wrapping
//! multiply per word, fully deterministic across processes and platforms.
//!
//! [`Interner`] builds on it to map strings (video ids, customer keys,
//! country codes) to dense `u32` ids so downstream state can key slabs and
//! sorted vecs by integer instead of re-hashing strings.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash scheme (64-bit golden-ratio constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher (multiply-xor scheme).
///
/// Not DoS-resistant — only for keys the simulation itself generates.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; `Default` so map literals stay terse.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// String interner: maps strings to dense `u32` ids, first-seen order.
///
/// Ids are assigned sequentially from 0, so two interners fed the same
/// strings in the same order assign identical ids — the property the
/// deterministic world executor relies on.
#[derive(Default, Clone, Debug)]
pub struct Interner {
    by_str: FxHashMap<String, u32>,
    by_id: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its dense id (assigning the next id if new).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        let id = self.by_id.len() as u32;
        self.by_id.push(s.to_owned());
        self.by_str.insert(s.to_owned(), id);
        id
    }

    /// Looks up an already-interned string without assigning a new id.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.by_str.get(s).copied()
    }

    /// Resolves an id back to its string. Panics on an id this interner
    /// never produced.
    pub fn resolve(&self, id: u32) -> &str {
        &self.by_id[id as usize]
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_is_deterministic_across_builders() {
        let a = FxBuildHasher::default().hash_one("live-channel");
        let b = FxBuildHasher::default().hash_one("live-channel");
        assert_eq!(a, b);
    }

    #[test]
    fn hash_distinguishes_trailing_bytes() {
        let h = FxBuildHasher::default();
        assert_ne!(h.hash_one([0x61u8, 0x62]), h.hash_one([0x61u8, 0x62, 0x00]));
        assert_ne!(h.hash_one(1u64), h.hash_one(2u64));
    }

    #[test]
    fn interner_assigns_dense_first_seen_ids() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.resolve(1), "b");
        assert_eq!(i.get("c"), None);
        assert_eq!(i.intern("c"), 2, "a repeat added no entry");
    }
}
