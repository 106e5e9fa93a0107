//! Times the lower layers' public functions from outside: warm-up, a
//! calibrated iteration count, then k samples reported as median with
//! p10/p90. The functions themselves live in [`crate::adapter`].

use crate::adapter::{self, ProbeCase};
use crate::stats::percentile;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    pub name: &'static str,
    /// Nanoseconds per item (per call, for all but the replay probe).
    pub median_ns: f64,
    pub p10_ns: f64,
    pub p90_ns: f64,
    pub samples: usize,
    pub iters_per_sample: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct ProbePlan {
    /// Samples per probe (k ≥ 9).
    pub samples: usize,
    /// Wall time one sample should take.
    pub sample_ns: u64,
}

impl ProbePlan {
    pub fn full() -> Self {
        ProbePlan {
            samples: 15,
            sample_ns: 2_000_000,
        }
    }

    pub fn quick() -> Self {
        ProbePlan {
            samples: 9,
            sample_ns: 250_000,
        }
    }
}

const MAX_ITERS: usize = 1 << 20;

fn timed(case: &mut dyn ProbeCase, iters: usize) -> u64 {
    case.prepare(iters);
    let start = Instant::now();
    case.run(iters);
    start.elapsed().as_nanos() as u64
}

pub fn measure(
    name: &'static str,
    items_per_call: usize,
    case: &mut dyn ProbeCase,
    plan: ProbePlan,
) -> ProbeResult {
    // Warm-up doubles as calibration: grow the batch until it is long
    // enough to time, then size a sample from its rate.
    let mut iters = 1usize;
    let mut elapsed = timed(case, iters);
    while elapsed < plan.sample_ns / 8 && iters < MAX_ITERS {
        iters *= 2;
        elapsed = timed(case, iters);
    }
    let per_call = (elapsed as f64 / iters as f64).max(0.5);
    let iters = ((plan.sample_ns as f64 / per_call) as usize).clamp(1, MAX_ITERS);
    let mut samples: Vec<f64> = (0..plan.samples.max(9))
        .map(|_| timed(case, iters) as f64 / (iters * items_per_call.max(1)) as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    ProbeResult {
        name,
        median_ns: percentile(&samples, 0.5),
        p10_ns: percentile(&samples, 0.1),
        p90_ns: percentile(&samples, 0.9),
        samples: samples.len(),
        iters_per_sample: iters,
    }
}

/// Runs every layer probe the adapter defines.
pub fn run_all(plan: ProbePlan) -> Vec<ProbeResult> {
    adapter::probes()
        .into_iter()
        .map(|mut p| measure(p.name, p.items_per_call, p.case.as_mut(), plan))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spin(u64);

    impl ProbeCase for Spin {
        fn run(&mut self, iters: usize) {
            for _ in 0..iters {
                for _ in 0..200 {
                    self.0 = std::hint::black_box(self.0.wrapping_mul(6364136223846793005) + 1);
                }
            }
        }
    }

    #[test]
    fn measure_reports_ordered_percentiles_over_at_least_nine_samples() {
        let plan = ProbePlan {
            samples: 3,
            sample_ns: 100_000,
        };
        let r = measure("spin", 1, &mut Spin(1), plan);
        assert_eq!(r.samples, 9);
        assert!(r.iters_per_sample >= 1);
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
        assert!(r.median_ns > 0.0);
    }

    #[test]
    fn every_probe_is_a_catalogue_metric_and_runs() {
        let plan = ProbePlan {
            samples: 9,
            sample_ns: 20_000,
        };
        for result in run_all(plan) {
            assert!(
                crate::metrics::find(result.name).is_some(),
                "{} is not in the catalogue",
                result.name
            );
            assert!(result.median_ns > 0.0, "{}", result.name);
        }
    }
}
