//! Latency histograms with exact percentiles.

use crate::time::SimDuration;

/// A latency histogram storing raw samples in microseconds.
///
/// The paper reports average and occasionally tail behaviour (Figure 7); we
/// keep all samples (experiments are short) so exact percentiles can be
/// reported.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples_us: Vec<f64>,
}

impl Histogram {
    /// Records a duration sample.
    pub fn record(&mut self, value: SimDuration) {
        self.record_us(value.as_micros_f64());
    }

    /// Records a raw microsecond sample.
    ///
    /// Non-finite samples saturate instead of poisoning the percentile
    /// computation: `+∞` (an overflowed duration computation) is clamped to
    /// `f64::MAX`, `-∞` to 0, and NaN is dropped.
    pub fn record_us(&mut self, value_us: f64) {
        if value_us.is_nan() {
            return;
        }
        self.samples_us.push(value_us.clamp(0.0, f64::MAX));
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Returns `true` if the histogram has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Mean latency in microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.samples_us.is_empty() {
            0.0
        } else {
            self.samples_us.iter().sum::<f64>() / self.samples_us.len() as f64
        }
    }

    /// The `q`-quantile (0.0–1.0) in microseconds, by nearest-rank.
    ///
    /// Total-order comparison makes the sort panic-free even for data
    /// recorded before the saturating [`Histogram::record_us`] existed; a
    /// NaN quantile is treated as 1.0 (the most conservative tail).
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let mut sorted = self.samples_us.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median latency in microseconds.
    #[must_use]
    pub fn median_us(&self) -> f64 {
        self.percentile_us(0.5)
    }

    /// Maximum latency in microseconds.
    #[must_use]
    pub fn max_us(&self) -> f64 {
        self.samples_us.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::default();
        assert!(h.is_empty());
        for i in 1..=100u64 {
            h.record(SimDuration::from_micros(i));
        }
        assert_eq!(h.len(), 100);
        assert!((h.mean_us() - 50.5).abs() < 1e-9);
        assert_eq!(h.median_us(), 51.0);
        assert_eq!(h.percentile_us(0.99), 99.0);
        assert_eq!(h.percentile_us(1.0), 100.0);
        assert_eq!(h.max_us(), 100.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.percentile_us(0.5), 0.0);
        assert_eq!(h.percentile_us(0.99), 0.0);
        assert_eq!(h.percentile_us(1.0), 0.0);
        assert_eq!(h.max_us(), 0.0);
    }

    #[test]
    fn histogram_single_sample_all_percentiles() {
        let mut h = Histogram::default();
        h.record_us(42.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile_us(q), 42.0, "q={q}");
        }
        assert_eq!(h.median_us(), 42.0);
        assert_eq!(h.mean_us(), 42.0);
    }

    #[test]
    fn histogram_saturates_non_finite_samples() {
        let mut h = Histogram::default();
        h.record_us(f64::NAN); // dropped
        h.record_us(f64::INFINITY); // clamped to f64::MAX
        h.record_us(f64::NEG_INFINITY); // clamped to 0
        h.record_us(-5.0); // clamped to 0
        h.record_us(10.0);
        assert_eq!(h.len(), 4);
        assert_eq!(h.percentile_us(0.0), 0.0);
        assert_eq!(h.percentile_us(1.0), f64::MAX);
        // The sort no longer panics and out-of-range quantiles clamp.
        assert_eq!(h.percentile_us(7.0), f64::MAX);
        assert_eq!(h.percentile_us(-3.0), 0.0);
        assert_eq!(h.percentile_us(f64::NAN), f64::MAX);
    }
}
