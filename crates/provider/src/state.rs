//! Purpose-built deterministic collections for the swarm-state layer.
//!
//! The agent/signaling hot loops used to model per-peer state with std
//! `HashMap`s keyed by strings and tuples. That cost SipHash on every probe
//! and — because std map iteration order is per-process random — forced a
//! "collect keys + sort" pass everywhere iteration order reached the wire.
//! These structures make the *natural* iteration order the deterministic
//! one:
//!
//! - [`VecMap`]: a sorted-`Vec` map for small integer-keyed state
//!   (requested/held/first-wanted segment tables, the segment cache).
//!   Probes are branch-predictable binary searches; iteration is ascending
//!   by key, so schedulers walk it without sorting.
//! - [`SeqBits`]: a windowed bitmap over segment sequence numbers. HAVE
//!   tracking becomes one bit per advertised segment; membership is two
//!   arithmetic ops. Out-of-window sequences (an adversarial HAVE can name
//!   any `u64`) spill into a sorted side list instead of growing the dense
//!   window, so semantics stay exact with bounded memory.
//! - [`AvailMap`]: per-connection availability — a tiny rendition →
//!   [`SeqBits`] association.

/// Maximum dense window, in 64-bit words, a [`SeqBits`] will allocate
/// (1024 words = 65 536 contiguous sequence numbers ≈ 3 days of 4-second
/// segments). Anything further from the window spills to the sorted list.
const MAX_WINDOW_WORDS: usize = 1024;

/// A map over `Copy + Ord` keys stored as a sorted `Vec` of pairs.
///
/// All operations are `O(log n)` probes plus `O(n)` shifts on insert and
/// remove — for the small, mostly-append workloads of the SDK state tables
/// that beats hashing, and iteration is ascending by key by construction.
#[derive(Debug, Clone, Default)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn pos(&self, key: K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.pos(key).ok().map(|i| &self.entries[i].1)
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        match self.pos(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.pos(key).is_ok()
    }

    /// Inserts `key -> value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.pos(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: K) -> Option<V> {
        match self.pos(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns the value for `key`, inserting `default()` first if absent.
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.pos(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

/// A set of `u64` sequence numbers: a dense bitmap window anchored at the
/// first sequence seen, plus a sorted spill list for outliers.
#[derive(Debug, Clone, Default)]
pub struct SeqBits {
    /// First sequence covered by `words`, 64-aligned.
    base: u64,
    /// The dense window; bit `i` of `words[i / 64]` is `base + i`.
    words: Vec<u64>,
    /// Sequences too far from the window to store densely, sorted.
    spill: Vec<u64>,
}

impl SeqBits {
    /// Creates an empty set.
    pub fn new() -> Self {
        SeqBits::default()
    }

    /// Inserts `seq`.
    pub fn insert(&mut self, seq: u64) {
        let aligned = seq & !63;
        if self.words.is_empty() {
            self.base = aligned;
            self.words.push(1u64 << (seq & 63));
            return;
        }
        if seq >= self.base {
            let word = ((seq - self.base) >> 6) as usize;
            if word < MAX_WINDOW_WORDS {
                if word >= self.words.len() {
                    self.words.resize(word + 1, 0);
                }
                self.words[word] |= 1 << (seq & 63);
                return;
            }
        } else {
            let grow = ((self.base - aligned) >> 6) as usize;
            if grow + self.words.len() <= MAX_WINDOW_WORDS {
                self.words.splice(0..0, std::iter::repeat_n(0, grow));
                self.base = aligned;
                self.words[0] |= 1 << (seq & 63);
                return;
            }
        }
        if let Err(i) = self.spill.binary_search(&seq) {
            self.spill.insert(i, seq);
        }
    }

    /// True if `seq` was inserted.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        if seq >= self.base {
            let word = ((seq - self.base) >> 6) as usize;
            if word < self.words.len() {
                return self.words[word] & (1 << (seq & 63)) != 0;
            }
        }
        !self.spill.is_empty() && self.spill.binary_search(&seq).is_ok()
    }

    /// Number of sequences stored.
    pub fn len(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            + self.spill.len()
    }

    /// True if no sequence was inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-connection segment availability: which `(rendition, seq)` pairs a
/// neighbor has advertised. Renditions are few (an ABR ladder), so they
/// live in a tiny sorted `Vec`.
#[derive(Debug, Clone, Default)]
pub struct AvailMap {
    rends: Vec<(u8, SeqBits)>,
}

impl AvailMap {
    /// Creates an empty availability map.
    pub fn new() -> Self {
        AvailMap::default()
    }

    /// Records that the neighbor has `(rendition, seq)`.
    pub fn insert(&mut self, rendition: u8, seq: u64) {
        let i = match self.rends.binary_search_by_key(&rendition, |(r, _)| *r) {
            Ok(i) => i,
            Err(i) => {
                self.rends.insert(i, (rendition, SeqBits::new()));
                i
            }
        };
        self.rends[i].1.insert(seq);
    }

    /// True if the neighbor advertised `(rendition, seq)`.
    #[inline]
    pub fn contains(&self, rendition: u8, seq: u64) -> bool {
        self.rends
            .binary_search_by_key(&rendition, |(r, _)| *r)
            .is_ok_and(|i| self.rends[i].1.contains(seq))
    }

    /// True if nothing was ever advertised.
    pub fn is_empty(&self) -> bool {
        self.rends.iter().all(|(_, b)| b.is_empty())
    }

    /// Total advertised `(rendition, seq)` pairs.
    pub fn len(&self) -> usize {
        self.rends.iter().map(|(_, b)| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vecmap_basic_ops_and_sorted_iteration() {
        let mut m = VecMap::new();
        assert!(m.insert(5u64, "e").is_none());
        assert!(m.insert(1, "a").is_none());
        assert!(m.insert(3, "c").is_none());
        assert_eq!(m.insert(3, "C"), Some("c"));
        assert_eq!(m.get(3), Some(&"C"));
        assert!(m.contains_key(1));
        assert_eq!(m.remove(1), Some("a"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![3, 5]);
        *m.or_insert_with(2, || "b") = "B";
        assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![2, 3, 5]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn seqbits_window_and_backward_growth() {
        let mut b = SeqBits::new();
        b.insert(100);
        b.insert(101);
        b.insert(70);
        b.insert(164);
        for s in [70, 100, 101, 164] {
            assert!(b.contains(s), "{s}");
        }
        for s in [0, 69, 99, 102, 163, 165] {
            assert!(!b.contains(s), "{s}");
        }
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn seqbits_far_sequences_spill_without_allocating_window() {
        let mut b = SeqBits::new();
        b.insert(10);
        b.insert(u64::MAX);
        b.insert(1 << 40);
        assert!(b.contains(10));
        assert!(b.contains(u64::MAX));
        assert!(b.contains(1 << 40));
        assert!(!b.contains((1 << 40) + 1));
        assert!(b.words.len() <= MAX_WINDOW_WORDS);
        assert_eq!(b.spill.len(), 2);
        // A sequence *below* an established high window also spills rather
        // than growing the window past the cap.
        let mut c = SeqBits::new();
        c.insert(1 << 40);
        c.insert(0);
        assert!(c.contains(0));
        assert!(c.words.len() <= MAX_WINDOW_WORDS);
    }

    #[test]
    fn vecmap_get_mut_and_values_follow_key_order() {
        let mut m = VecMap::new();
        for k in [30u64, 10, 20] {
            m.insert(k, k * 2);
        }
        *m.get_mut(20).unwrap() += 1;
        assert!(m.get_mut(25).is_none());
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![20, 41, 60]);
        // `or_insert_with` leaves a present value alone.
        assert_eq!(*m.or_insert_with(10, || 0), 20);
        assert!(!m.is_empty());
    }

    #[test]
    fn seqbits_duplicate_inserts_count_once() {
        let mut b = SeqBits::new();
        for s in [5, 5, 1 << 40, 1 << 40, 6] {
            b.insert(s);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.spill, vec![1 << 40]);
    }

    /// The dense window holds exactly `MAX_WINDOW_WORDS` words; the first
    /// sequence past it spills.
    #[test]
    fn seqbits_window_stops_at_its_cap() {
        let last_dense = 64 * MAX_WINDOW_WORDS as u64 - 1;
        let mut b = SeqBits::new();
        b.insert(0);
        b.insert(last_dense);
        assert_eq!(b.words.len(), MAX_WINDOW_WORDS);
        assert!(b.spill.is_empty());
        b.insert(last_dense + 1);
        assert_eq!(b.words.len(), MAX_WINDOW_WORDS);
        assert_eq!(b.spill, vec![last_dense + 1]);
        assert!(b.contains(last_dense) && b.contains(last_dense + 1));
    }

    #[test]
    fn availmap_tracks_per_rendition() {
        let mut a = AvailMap::new();
        assert!(a.is_empty());
        a.insert(1, 7);
        a.insert(0, 7);
        a.insert(0, 9);
        assert!(a.contains(0, 7));
        assert!(a.contains(1, 7));
        assert!(!a.contains(1, 9));
        assert!(!a.contains(2, 7));
        assert_eq!(a.len(), 3);
    }
}
