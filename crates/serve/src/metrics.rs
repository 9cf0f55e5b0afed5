//! Log-linear histograms for the service's aggregate report.
//!
//! A fixed array of buckets, 16 per power of two, makes
//! `record` a leading-zero count and a shift, `merge` a vector add, and
//! the whole struct small enough to keep per-worker copies that merge
//! once at shutdown — no locks on the dispatch hot path. Every bucket
//! spans at most 1/16 of its lower bound, so a percentile read off a
//! bucket bound is within 1/16 of the true sample.

/// Buckets per power of two (and the count of exact buckets below it).
const SUB_BUCKETS: usize = 16;
/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// The exact buckets `0..2^SUB_BITS`, then `SUB_BUCKETS` per octave
/// `[2^e, 2^(e+1))` for `e` in `SUB_BITS..64`.
const BUCKETS: usize = SUB_BUCKETS * (1 + 64 - SUB_BITS as usize);

/// A histogram of `u64` samples in log-linear buckets: values below 16
/// get one bucket each; each octave `[2^e, 2^(e+1))` above splits into
/// 16 equal-width buckets of `2^(e-4)` values.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // The octave's exponent, then the SUB_BITS bits below its
        // leading one pick the sub-bucket.
        let exp = 63 - value.leading_zeros();
        let sub = (value >> (exp - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        (exp - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
    }

    /// The inclusive `[lo, hi]` value range of bucket `index`.
    fn bucket_range(index: usize) -> (u64, u64) {
        if index < SUB_BUCKETS {
            return (index as u64, index as u64);
        }
        let shift = (index / SUB_BUCKETS - 1) as u32;
        let lo = ((SUB_BUCKETS + index % SUB_BUCKETS) as u64) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one (per-worker locals merge
    /// into the fleet totals at shutdown).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 <= p <= 1.0`), clamped to the observed max: within 1/16 of
    /// the true sample.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_range(index).1.min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(lo, hi, count)` rows (the JSON shape).
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| {
                let (lo, hi) = Self::bucket_range(index);
                (lo, hi, n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 200);
        assert!((h.mean() - 41.0).abs() < 1e-9);
        // Values below 16 are exact; 200 lies in [128, 256), whose 16
        // buckets are 8 wide.
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 0, 1), (1, 1, 2), (3, 3, 1), (200, 207, 1)]
        );
        // p50 of 5 samples is the 3rd: the [1,1] bucket.
        assert_eq!(h.percentile(0.5), 1);
        // The tail percentile clamps to the observed max.
        assert_eq!(h.percentile(1.0), 200);
    }

    #[test]
    fn percentiles_are_within_a_sixteenth() {
        let mut h = Histogram::new();
        for v in 1..=10_000 {
            h.record(v);
        }
        for (p, want) in [(0.5, 5000.0), (0.99, 9900.0)] {
            let got = h.percentile(p) as f64;
            assert!((got - want).abs() <= want / 16.0, "p{p}: {got} vs {want}");
        }
    }

    #[test]
    fn buckets_tile_the_range() {
        // Every bucket starts right after the previous one ends, from 0
        // up to u64::MAX, and each value maps into its own bucket.
        let mut next = 0u64;
        for index in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_range(index);
            assert_eq!(lo, next, "bucket {index}");
            assert_eq!(Histogram::bucket_of(lo), index);
            assert_eq!(Histogram::bucket_of(hi), index);
            next = hi.wrapping_add(1);
        }
        assert_eq!(Histogram::bucket_range(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_is_a_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(4);
        b.record(1000);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.nonzero_buckets().len(), 3);
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.5), u64::MAX);
    }
}
