//! Latency models used to emulate hardware and software delays.
//!
//! The TNIC evaluation (paper §8.1) measures component latencies such as the
//! ~23 µs TNIC `Attest()` round trip, the ~45/90 µs SGX/SEV invocations, and
//! the occasional multi-hundred-microsecond scheduling spikes the authors
//! observed inside scone-based enclaves (Figure 7). These models let the rest
//! of the workspace charge such delays against the virtual clock.

use crate::rng::DetRng;
use crate::time::SimDuration;

/// A stochastic latency model.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Always the same delay.
    Constant {
        /// The fixed delay.
        value: SimDuration,
    },
    /// Uniformly distributed in `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: SimDuration,
        /// Upper bound (inclusive).
        hi: SimDuration,
    },
    /// Normally distributed (truncated at zero).
    Normal {
        /// Mean delay in microseconds.
        mean_us: f64,
        /// Standard deviation in microseconds.
        std_us: f64,
    },
    /// A base distribution with occasional large spikes, modelling the
    /// scheduling and exitless-syscall artefacts observed inside SGX/scone
    /// (paper Figure 7) and AMD-SEV.
    Spiky {
        /// Mean of the non-spike delay in microseconds.
        base_mean_us: f64,
        /// Standard deviation of the non-spike delay in microseconds.
        base_std_us: f64,
        /// Probability that a sample is a spike.
        spike_probability: f64,
        /// Lower bound of spike magnitude in microseconds.
        spike_min_us: f64,
        /// Upper bound of spike magnitude in microseconds.
        spike_max_us: f64,
    },
}

impl LatencyModel {
    /// A constant-delay model.
    #[must_use]
    pub fn constant(value: SimDuration) -> Self {
        LatencyModel::Constant { value }
    }

    /// A uniform model over `[lo, hi]`.
    #[must_use]
    pub fn uniform(lo: SimDuration, hi: SimDuration) -> Self {
        assert!(lo <= hi, "uniform latency bounds reversed");
        LatencyModel::Uniform { lo, hi }
    }

    /// A normal (Gaussian) model specified in microseconds.
    #[must_use]
    pub fn normal_us(mean_us: f64, std_us: f64) -> Self {
        LatencyModel::Normal { mean_us, std_us }
    }

    /// A spiky model specified in microseconds.
    #[must_use]
    pub fn spiky_us(
        base_mean_us: f64,
        base_std_us: f64,
        spike_probability: f64,
        spike_min_us: f64,
        spike_max_us: f64,
    ) -> Self {
        LatencyModel::Spiky {
            base_mean_us,
            base_std_us,
            spike_probability,
            spike_min_us,
            spike_max_us,
        }
    }

    /// A zero-delay model.
    #[must_use]
    pub fn zero() -> Self {
        LatencyModel::Constant {
            value: SimDuration::ZERO,
        }
    }

    /// Draws one latency sample.
    #[must_use]
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match self {
            LatencyModel::Constant { value } => *value,
            LatencyModel::Uniform { lo, hi } => {
                if lo == hi {
                    *lo
                } else {
                    SimDuration::from_nanos(rng.range(lo.as_nanos(), hi.as_nanos() + 1))
                }
            }
            LatencyModel::Normal { mean_us, std_us } => {
                SimDuration::from_micros_f64(rng.normal(*mean_us, *std_us).max(0.0))
            }
            LatencyModel::Spiky {
                base_mean_us,
                base_std_us,
                spike_probability,
                spike_min_us,
                spike_max_us,
            } => {
                if rng.chance(*spike_probability) {
                    let span = (spike_max_us - spike_min_us).max(0.0);
                    SimDuration::from_micros_f64(spike_min_us + rng.next_f64() * span)
                } else {
                    SimDuration::from_micros_f64(rng.normal(*base_mean_us, *base_std_us).max(0.0))
                }
            }
        }
    }

    /// The mean of the model (useful for analytic throughput estimates).
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        match self {
            LatencyModel::Constant { value } => *value,
            LatencyModel::Uniform { lo, hi } => {
                SimDuration::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2)
            }
            LatencyModel::Normal { mean_us, .. } => SimDuration::from_micros_f64(*mean_us),
            LatencyModel::Spiky {
                base_mean_us,
                spike_probability,
                spike_min_us,
                spike_max_us,
                ..
            } => {
                let spike_mean = (spike_min_us + spike_max_us) / 2.0;
                SimDuration::from_micros_f64(
                    base_mean_us * (1.0 - spike_probability) + spike_mean * spike_probability,
                )
            }
        }
    }
}

/// A latency model that depends on the transferred payload size: a fixed
/// per-operation cost plus a per-byte cost. Used for DMA transfers, HMAC
/// computation (which the paper notes cannot be parallelised, §8.2) and wire
/// serialisation at 100 Gbps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDependentLatency {
    /// Fixed cost charged per operation.
    pub base: SimDuration,
    /// Additional cost per byte, in nanoseconds (fractional).
    pub per_byte_ns: f64,
}

impl SizeDependentLatency {
    /// Creates a model with the given fixed and per-byte costs.
    #[must_use]
    pub fn new(base: SimDuration, per_byte_ns: f64) -> Self {
        SizeDependentLatency { base, per_byte_ns }
    }

    /// Cost of processing `bytes` bytes.
    #[must_use]
    pub fn cost(&self, bytes: usize) -> SimDuration {
        self.base + SimDuration::from_nanos((self.per_byte_ns * bytes as f64).round() as u64)
    }

    /// A model describing serialisation at the given line rate (bits/second).
    #[must_use]
    pub fn from_line_rate_gbps(base: SimDuration, gbps: f64) -> Self {
        // per-byte ns = 8 bits / (gbps * 1e9 bits/s) * 1e9 ns/s
        SizeDependentLatency {
            base,
            per_byte_ns: 8.0 / gbps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model() {
        let m = LatencyModel::constant(SimDuration::from_micros(23));
        let mut rng = DetRng::new(1);
        assert_eq!(m.sample(&mut rng).as_micros(), 23);
        assert_eq!(m.mean().as_micros(), 23);
    }

    #[test]
    fn uniform_model_in_bounds() {
        let m = LatencyModel::uniform(SimDuration::from_micros(5), SimDuration::from_micros(10));
        let mut rng = DetRng::new(2);
        for _ in 0..1000 {
            let s = m.sample(&mut rng).as_micros();
            assert!((5..=10).contains(&s));
        }
        assert_eq!(m.mean().as_micros(), 7);
    }

    #[test]
    fn normal_model_never_negative() {
        let m = LatencyModel::normal_us(2.0, 5.0);
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            // would be negative ~35% of the time without clamping
            let _ = m.sample(&mut rng);
        }
    }

    #[test]
    fn spiky_model_produces_spikes() {
        let m = LatencyModel::spiky_us(45.0, 2.0, 0.05, 200.0, 500.0);
        let mut rng = DetRng::new(4);
        let samples: Vec<u64> = (0..2000).map(|_| m.sample(&mut rng).as_micros()).collect();
        let spikes = samples.iter().filter(|&&s| s >= 200).count();
        assert!(spikes > 20, "expected spikes, got {spikes}");
        assert!(spikes < 400, "too many spikes: {spikes}");
        let baseline = samples.iter().filter(|&&s| s < 60).count();
        assert!(baseline > 1500);
    }

    #[test]
    fn spiky_mean_between_base_and_spike() {
        let m = LatencyModel::spiky_us(45.0, 2.0, 0.1, 200.0, 400.0);
        let mean = m.mean().as_micros_f64();
        assert!(mean > 45.0 && mean < 200.0, "mean {mean}");
    }

    #[test]
    fn size_dependent_cost_scales() {
        let m = SizeDependentLatency::new(SimDuration::from_micros(1), 2.0);
        assert_eq!(m.cost(0).as_micros(), 1);
        assert_eq!(m.cost(1000).as_nanos(), 1_000 + 2_000);
        let line = SizeDependentLatency::from_line_rate_gbps(SimDuration::ZERO, 100.0);
        // 1 KiB at 100 Gbps is ~82 ns.
        let c = line.cost(1024).as_nanos();
        assert!((80..=84).contains(&c), "got {c}");
    }

    #[test]
    #[should_panic(expected = "bounds reversed")]
    fn uniform_reversed_bounds_panic() {
        let _ = LatencyModel::uniform(SimDuration::from_micros(2), SimDuration::from_micros(1));
    }
}
