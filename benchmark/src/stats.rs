//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice, linearly
/// interpolated between neighbouring ranks. 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// The tail percentiles a timing may be reported at, highest last.
pub const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten of `n`
/// samples beyond it — a percentile with fewer is one outlier's value, not a
/// property of the distribution. `None` below 20 samples (not even the
/// median qualifies).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        // 100 × (1 − 0.9) is 9.999… in binary; the slack keeps it ten.
        .rfind(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// `requested` if it has ten samples beyond it, else the highest rung that
/// does, else the median.
pub fn supported_tail(n: usize, requested: f64) -> f64 {
    match highest_supported_tail(n) {
        Some(q) => q.min(requested),
        None => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert!((percentile(&v, 0.9) - 46.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(20), Some(0.5));
        assert_eq!(highest_supported_tail(99), Some(0.5));
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        // p99 asked of 864 samples falls back to p90; of 32 samples to p50.
        assert_eq!(supported_tail(864, 0.99), 0.9);
        assert_eq!(supported_tail(32, 0.99), 0.5);
        assert_eq!(supported_tail(5, 0.99), 0.5);
        assert_eq!(supported_tail(50_000, 0.99), 0.99);
    }
}
