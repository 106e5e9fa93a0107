//! AMD SEV specifics.
//!
//! The paper runs the AMD-sev baseline inside a QEMU confidential VM and
//! observes roughly 90 µs per attestation invocation with latency spikes up to
//! 200–500 µs (§8.1), attributed to world switches and scheduling. A2M shows
//! that SEV can keep its log in untrusted host memory (unlike SGX), so lookups
//! do not pay a paging penalty (Table 3).

use tnic_sim::latency::LatencyModel;
use tnic_sim::rng::DetRng;
use tnic_sim::time::SimDuration;

/// Cost model for an AMD SEV confidential VM hosting the attestation service.
#[derive(Debug, Clone, PartialEq)]
pub struct SevModel {
    /// Cost of entering/leaving the VM and moving the request (per call).
    pub world_switch: LatencyModel,
    /// Cost of the HMAC computation inside the VM.
    pub computation: LatencyModel,
}

impl Default for SevModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl SevModel {
    /// Calibrated to the ~90 µs mean with 200–500 µs spikes from §8.1.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        SevModel {
            world_switch: LatencyModel::normal_us(36.0, 3.0),
            computation: LatencyModel::spiky_us(54.0, 4.0, 0.02, 200.0, 500.0),
        }
    }

    /// Samples the cost of one attestation invocation.
    pub fn invocation_cost(&self, rng: &mut DetRng) -> SimDuration {
        self.world_switch.sample(rng) + self.computation.sample(rng)
    }

    /// Memory accesses hit untrusted host memory directly (no paging penalty),
    /// which is why SEV lookups in Table 3 match the native baseline.
    #[must_use]
    pub fn memory_access_cost(&self) -> SimDuration {
        SimDuration::from_nanos(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_invocation_cost_matches_paper() {
        let model = SevModel::paper_calibrated();
        let mut rng = DetRng::new(3);
        let n = 3000;
        let mean_us: f64 = (0..n)
            .map(|_| model.invocation_cost(&mut rng).as_micros_f64())
            .sum::<f64>()
            / n as f64;
        assert!((80.0..=105.0).contains(&mean_us), "mean {mean_us:.1} us");
    }

    #[test]
    fn spikes_reach_hundreds_of_microseconds() {
        let model = SevModel::paper_calibrated();
        let mut rng = DetRng::new(4);
        let max_us = (0..3000)
            .map(|_| model.invocation_cost(&mut rng).as_micros_f64())
            .fold(0.0f64, f64::max);
        assert!(max_us > 200.0, "max {max_us:.1} us");
    }

    #[test]
    fn memory_access_is_cheap() {
        assert!(SevModel::paper_calibrated().memory_access_cost() < SimDuration::from_nanos(10));
    }
}
