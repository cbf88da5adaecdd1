//! Seeded randomness and exact order statistics.
//!
//! Percentiles are nearest-rank over the sorted samples, so every
//! reported percentile is a latency that was actually observed — no
//! histogram buckets, no interpolation.

/// SplitMix64: a small, fast, seedable generator. Every input the
/// benchmark generates (job order, kinds, points, schemes, kernel seeds,
/// arrival times, trace programs) is drawn from one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-50 for the
    /// small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Sort samples ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of samples at or below it. 0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `v` (mean of the two middle values for an even count); 0
/// for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q` percentile of each of `windows` consecutive, equal windows of
/// `samples` (in time order), and the median of those: a tail figure that
/// one burst of host interference cannot move on its own.
pub fn windowed_percentile(samples: &[f64], windows: usize, q: f64) -> f64 {
    let per = samples.len().div_ceil(windows.max(1)).max(1);
    let each: Vec<f64> = samples
        .chunks(per)
        .map(|w| percentile(&sorted(w.to_vec()), q))
        .collect();
    median(&each)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        // Three windows of 100; the middle one has a burst of slow samples.
        let mut v: Vec<f64> = (1..=300).map(|i| f64::from(i % 100 + 1)).collect();
        for x in &mut v[100..110] {
            *x = 1_000.0;
        }
        assert_eq!(percentile(&sorted(v.clone()), 0.99), 1_000.0);
        assert_eq!(windowed_percentile(&v, 3, 0.99), 99.0);
        assert_eq!(
            windowed_percentile(&v, 1, 0.5),
            percentile(&sorted(v.clone()), 0.5)
        );
        assert_eq!(windowed_percentile(&[], 3, 0.5), 0.0);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let w = sorted(vec![3.0, 1.0, 2.0, 10.0]);
        assert_eq!(percentile(&w, 0.5), 2.0);
        assert_eq!(percentile(&w, 0.75), 3.0);
        assert_eq!(percentile(&w, 0.76), 10.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_deterministic_and_roughly_uniform() {
        let (mut a, mut b) = (Rng::new(42), Rng::new(42));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut r = Rng::new(7);
        let mut hist = [0u32; 4];
        for _ in 0..40_000 {
            hist[r.below(4)] += 1;
        }
        assert!(
            hist.iter().all(|&h| (9_500..10_500).contains(&h)),
            "{hist:?}"
        );
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }
}
