//! Allocation-free log-bucketed latency histogram (HDR-style).
//!
//! The service-mode harness records millions of join-to-first-segment and
//! signaling-RTT samples per run; sorting raw samples for quantiles would
//! dominate the measurement. [`LatencyHistogram`] instead buckets values
//! log-linearly — exact below [`SUB_BUCKETS`], then 32 linear sub-buckets
//! per octave — so recording is pure index arithmetic into one fixed
//! array allocated at construction (nothing allocates afterwards), counts
//! are exact integers (deterministic across runs and platforms), and two
//! histograms from different worlds merge by elementwise addition.
//!
//! Quantile queries return the *upper bound* of the bucket holding the
//! requested rank, so reported quantiles never understate the true value
//! and overstate it by at most one sub-bucket width: a relative error of
//! `1/32` (~3.1%) for any value ≥ 32.

/// Sub-bucket resolution bits per octave.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave; values below this are recorded exactly.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Number of octaves above the exact range (u64 values up to 2^63).
const OCTAVES: usize = 64 - SUB_BITS as usize;
/// Total bucket count.
const BUCKETS: usize = (OCTAVES + 1) * SUB_BUCKETS as usize;

/// Maximum relative overshoot of a quantile query: one part in
/// [`SUB_BUCKETS`].
#[cfg(test)]
const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// Bucket index of `v`. Exact for `v < SUB_BUCKETS`; log-linear above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let shift = msb - SUB_BITS;
    octave * SUB_BUCKETS as usize + ((v >> shift) as usize & (SUB_BUCKETS as usize - 1))
}

/// Largest value mapping to bucket `idx` (the quantile upper bound).
#[inline]
fn bucket_high(idx: usize) -> u64 {
    let sub = (idx as u64) & (SUB_BUCKETS - 1);
    let octave = (idx as u64) >> SUB_BITS;
    if octave == 0 {
        return sub;
    }
    let shift = (octave - 1) as u32;
    ((SUB_BUCKETS + sub) << shift) + ((1u64 << shift) - 1)
}

/// A fixed-size log-bucketed histogram of `u64` samples (latency in
/// nanoseconds, by convention). See the [module docs](self).
///
/// # Examples
///
/// ```
/// use pdn_simnet::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [5u64, 7, 9, 500] {
///     h.record(ms * 1_000_000);
/// }
/// assert_eq!(h.count(), 4);
/// // p50 lands in the bucket holding 7 ms, within 3.2% above it.
/// let p50 = h.quantile(0.50);
/// assert!(p50 >= 7_000_000 && p50 <= 7_250_000);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram. This is the only allocating call; the
    /// bucket array is fixed for the histogram's lifetime.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0u64; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("BUCKETS-length slice"),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one sample. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples. Never allocates.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128 * n as u128;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the sample of rank `ceil(q · count)`, clamped to
    /// the observed maximum. At most one part in [`SUB_BUCKETS`] above the
    /// true rank value; never below it. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`. Exactly equivalent to
    /// having recorded both sample streams into one histogram. Never
    /// allocates.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Resets the histogram to empty without releasing the bucket array.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_below_sub_buckets() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        for v in 0..SUB_BUCKETS {
            let q = (v + 1) as f64 / SUB_BUCKETS as f64;
            assert_eq!(h.quantile(q), v, "small values are exact");
        }
    }

    #[test]
    fn bucket_roundtrip_bounds() {
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let high = bucket_high(idx);
            assert!(high >= v, "v={v} idx={idx} high={high}");
            // The upper bound overshoots by at most 1/32 relative.
            assert!(
                (high - v) as f64 <= v as f64 * RELATIVE_ERROR + 1.0,
                "v={v} high={high}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut h = LatencyHistogram::new();
        h.record(1234);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(1.0), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Monotone: bucket index and upper bound are non-decreasing in v.
        #[test]
        fn index_monotone(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
            prop_assert!(bucket_high(bucket_index(lo)) <= bucket_high(bucket_index(hi)));
        }

        /// Every quantile is within the documented error bound of the true
        /// rank statistic computed from the sorted raw samples.
        #[test]
        fn quantile_within_bucket_error(
            samples in proptest::collection::vec(0u64..1_000_000_000_000, 1..400),
            q_milli in 0u32..=1000,
        ) {
            let q = q_milli as f64 / 1000.0;
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut samples = samples;
            samples.sort_unstable();
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let got = h.quantile(q);
            prop_assert!(got >= truth, "quantile understated: got {got} < true {truth}");
            prop_assert!(
                got as f64 <= truth as f64 * (1.0 + RELATIVE_ERROR) + 1.0,
                "quantile overshot the error bound: got {got}, true {truth}"
            );
        }

        /// merge(a, b) is indistinguishable from recording a ∪ b.
        #[test]
        fn merge_equals_union(
            xs in proptest::collection::vec(any::<u64>(), 0..200),
            ys in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut a = LatencyHistogram::new();
            let mut b = LatencyHistogram::new();
            let mut union = LatencyHistogram::new();
            for &x in &xs {
                a.record(x);
                union.record(x);
            }
            for &y in &ys {
                b.record(y);
                union.record(y);
            }
            a.merge(&b);
            prop_assert_eq!(a.count(), union.count());
            prop_assert_eq!(a.min(), union.min());
            prop_assert_eq!(a.max(), union.max());
            prop_assert_eq!(&a.counts[..], &union.counts[..]);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(a.quantile(q), union.quantile(q));
            }
        }
    }
}
