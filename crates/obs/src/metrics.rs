//! Log2-bucket histograms.
//!
//! Job latencies and skip-span lengths both span four-plus orders of
//! magnitude, where fixed-width buckets are either blind at the low end or
//! unbounded at the high end. Power-of-two buckets give ~±50 % resolution
//! everywhere at a fixed 64-slot cost, which is all a p50/p99 readout
//! needs.

/// Histogram with power-of-two buckets: bucket `i` holds values `v` with
/// `floor(log2(max(v,1))) == i`, i.e. `[2^i, 2^(i+1))`, with `0` counted in
/// bucket 0. Covers the full `u64` range in 64 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// New empty histogram.
    pub fn new() -> Self {
        Log2Hist::default()
    }

    /// Bucket index for a value.
    fn bucket_of(v: u64) -> usize {
        63 - v.max(1).leading_zeros() as usize
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in [0, 1]: the lower bound of the bucket
    /// containing the `ceil(q * count)`-th observation (so `percentile(1.0)`
    /// lands in the bucket of the maximum). Returns 0 for an empty
    /// histogram. Resolution is the bucket width, i.e. a factor of two.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 0);
        assert_eq!(Log2Hist::bucket_of(2), 1);
        assert_eq!(Log2Hist::bucket_of(3), 1);
        assert_eq!(Log2Hist::bucket_of(4), 2);
        assert_eq!(Log2Hist::bucket_of(1023), 9);
        assert_eq!(Log2Hist::bucket_of(1024), 10);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn record_tracks_summary_stats() {
        let mut h = Log2Hist::new();
        assert_eq!(h.max(), 0);
        for v in [3, 9, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1112);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn percentile_is_bucket_lower_bound() {
        let mut h = Log2Hist::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 16)
        }
        h.record(5000); // bucket [4096, 8192)
        assert_eq!(h.percentile(0.5), 8);
        assert_eq!(h.percentile(0.99), 8);
        assert_eq!(h.percentile(1.0), 4096);
        assert_eq!(Log2Hist::new().percentile(0.5), 0);
    }
}
