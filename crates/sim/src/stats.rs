//! Statistics utilities used by the benchmark harness: online mean/variance,
//! latency histograms with percentiles, and throughput meters.

use crate::time::{SimDuration, SimInstant};

/// Online mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds a duration observation, in microseconds.
    pub fn record_duration(&mut self, value: SimDuration) {
        self.record(value.as_micros_f64());
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (0 for an empty accumulator).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 for an empty accumulator).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

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
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            samples_us: Vec::new(),
        }
    }

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

    /// Raw samples (time-ordered), used for Figure 7 style plots.
    #[must_use]
    pub fn samples_us(&self) -> &[f64] {
        &self.samples_us
    }
}

/// A fixed-memory latency histogram with power-of-two microsecond buckets.
///
/// Unlike [`Histogram`], which keeps every raw sample, this form is bounded:
/// 64 buckets where bucket `i` covers `[2^(i-1), 2^i)` µs (bucket 0 covers
/// `< 1` µs). Samples beyond the last bucket **saturate** into it instead of
/// overflowing, so a single absurd outlier cannot corrupt the distribution.
/// Long-running recorders (the observability layer) use this; short
/// experiments keep the exact [`Histogram`].
#[derive(Debug, Clone)]
pub struct BoundedHistogram {
    buckets: [u64; BoundedHistogram::BUCKETS],
    count: u64,
    sum_us: f64,
}

impl Default for BoundedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl BoundedHistogram {
    /// Number of buckets (fixed).
    pub const BUCKETS: usize = 64;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        BoundedHistogram {
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum_us: 0.0,
        }
    }

    fn bucket_index(value_us: f64) -> usize {
        if value_us < 1.0 {
            return 0;
        }
        // log2 bucket; anything past the top bucket saturates into it.
        let exp = value_us.log2().floor() as i64 + 1;
        usize::try_from(exp.max(0))
            .unwrap_or(Self::BUCKETS - 1)
            .min(Self::BUCKETS - 1)
    }

    /// Upper bound (exclusive) of bucket `i`, in microseconds. The last
    /// bucket is unbounded and reports `f64::INFINITY`.
    #[must_use]
    pub fn bucket_limit_us(i: usize) -> f64 {
        if i + 1 >= Self::BUCKETS {
            f64::INFINITY
        } else {
            (2.0f64).powi(i as i32)
        }
    }

    /// Records a microsecond sample. NaN samples are dropped; negative and
    /// infinite samples saturate into the first / last bucket.
    pub fn record_us(&mut self, value_us: f64) {
        if value_us.is_nan() {
            return;
        }
        let value_us = value_us.max(0.0);
        let index = if value_us.is_infinite() {
            Self::BUCKETS - 1
        } else {
            Self::bucket_index(value_us)
        };
        self.buckets[index] = self.buckets[index].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_us += if value_us.is_finite() { value_us } else { 0.0 };
    }

    /// Records a duration sample.
    pub fn record(&mut self, value: SimDuration) {
        self.record_us(value.as_micros_f64());
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns `true` if the histogram has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0 when empty; saturated infinite
    /// samples contribute 0 to the sum).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// The `q`-quantile upper bound in microseconds, by cumulative bucket
    /// count (0 when empty). Reported as the exclusive upper limit of the
    /// bucket holding the rank, so it is an upper bound on the true value.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if n > 0 && seen > rank {
                return Self::bucket_limit_us(i);
            }
        }
        Self::bucket_limit_us(Self::BUCKETS - 1)
    }

    /// Raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }
}

/// Counts completed operations over a span of virtual time.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    started_at: SimInstant,
    operations: u64,
    bytes: u64,
}

impl ThroughputMeter {
    /// Creates a meter starting at `start`.
    #[must_use]
    pub fn new(start: SimInstant) -> Self {
        ThroughputMeter {
            started_at: start,
            operations: 0,
            bytes: 0,
        }
    }

    /// Records one completed operation carrying `bytes` bytes of payload.
    pub fn record(&mut self, bytes: u64) {
        self.operations += 1;
        self.bytes += bytes;
    }

    /// Number of completed operations.
    #[must_use]
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Operations per second of virtual time elapsed until `now`.
    #[must_use]
    pub fn ops_per_sec(&self, now: SimInstant) -> f64 {
        let elapsed = now.duration_since(self.started_at).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.operations as f64 / elapsed
        }
    }

    /// Payload megabytes per second of virtual time elapsed until `now`.
    #[must_use]
    pub fn mbytes_per_sec(&self, now: SimInstant) -> f64 {
        let elapsed = now.duration_since(self.started_at).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1_000_000.0 / elapsed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_duration() {
        let mut s = OnlineStats::new();
        s.record_duration(SimDuration::from_micros(10));
        s.record_duration(SimDuration::from_micros(20));
        assert!((s.mean() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
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
        let h = Histogram::new();
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.percentile_us(0.5), 0.0);
        assert_eq!(h.percentile_us(0.99), 0.0);
        assert_eq!(h.percentile_us(1.0), 0.0);
        assert_eq!(h.max_us(), 0.0);
    }

    #[test]
    fn histogram_single_sample_all_percentiles() {
        let mut h = Histogram::new();
        h.record_us(42.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile_us(q), 42.0, "q={q}");
        }
        assert_eq!(h.median_us(), 42.0);
        assert_eq!(h.mean_us(), 42.0);
    }

    #[test]
    fn histogram_saturates_non_finite_samples() {
        let mut h = Histogram::new();
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

    #[test]
    fn bounded_histogram_empty_and_single_sample() {
        let mut h = BoundedHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile_us(0.99), 0.0);
        assert_eq!(h.mean_us(), 0.0);
        h.record_us(100.0);
        assert_eq!(h.len(), 1);
        // 100 µs lands in the [64, 128) bucket; the reported p99 is the
        // bucket's upper bound.
        assert_eq!(h.percentile_us(0.99), 128.0);
        assert_eq!(h.percentile_us(0.0), 128.0);
        assert_eq!(h.mean_us(), 100.0);
    }

    #[test]
    fn bounded_histogram_saturating_bucket_overflow() {
        let mut h = BoundedHistogram::new();
        h.record_us(f64::INFINITY);
        h.record_us(1e300); // far past the top bucket
        h.record_us(f64::NAN); // dropped
        h.record_us(-1.0); // clamps into bucket 0
        assert_eq!(h.len(), 3);
        let buckets = h.buckets();
        assert_eq!(buckets[BoundedHistogram::BUCKETS - 1], 2);
        assert_eq!(buckets[0], 1);
        assert_eq!(h.percentile_us(1.0), f64::INFINITY);
        assert_eq!(h.percentile_us(0.0), BoundedHistogram::bucket_limit_us(0));
    }

    #[test]
    fn bounded_histogram_percentiles_track_exact() {
        let mut exact = Histogram::new();
        let mut bounded = BoundedHistogram::new();
        for i in 1..=1000u64 {
            exact.record(SimDuration::from_micros(i));
            bounded.record(SimDuration::from_micros(i));
        }
        // The bounded p99 upper bound must bracket the exact p99.
        let p99 = exact.percentile_us(0.99);
        let bound = bounded.percentile_us(0.99);
        assert!(bound >= p99, "bound {bound} < exact {p99}");
        assert!(bound <= p99 * 2.0, "log2 bucket bound too loose: {bound}");
    }

    #[test]
    fn throughput_meter() {
        let start = SimInstant::EPOCH;
        let mut m = ThroughputMeter::new(start);
        for _ in 0..1000 {
            m.record(128);
        }
        let now = start + SimDuration::from_millis(100);
        assert_eq!(m.operations(), 1000);
        assert!((m.ops_per_sec(now) - 10_000.0).abs() < 1e-6);
        assert!((m.mbytes_per_sec(now) - 1.28).abs() < 1e-6);
        assert_eq!(m.ops_per_sec(start), 0.0);
    }
}
