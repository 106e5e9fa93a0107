//! Intel SGX specifics: enclave page cache (EPC) capacity, paging costs and
//! scone-style latency spikes.
//!
//! The paper's A2M evaluation (Table 3) shows that placing a 9.3 GiB log
//! inside an SGX enclave with only 94 MiB of usable EPC collapses lookup
//! throughput by 66× because of the enclave paging mechanism, and Figure 7
//! shows large latency spikes for HMAC executed inside scone. This module
//! models both effects.

use tnic_sim::latency::LatencyModel;
use tnic_sim::rng::DetRng;
use tnic_sim::time::SimDuration;

/// Usable enclave page cache in bytes (the paper cites 94 MiB).
pub const EPC_BYTES: u64 = 94 * 1024 * 1024;

/// Cost model for memory accesses from inside an SGX enclave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgxMemoryModel {
    /// Usable EPC size in bytes.
    pub epc_bytes: u64,
    /// Latency of an access that hits the EPC.
    pub hit: SimDuration,
    /// Latency of an access that misses the EPC and triggers enclave paging
    /// (EPC eviction + page re-encryption).
    pub page_fault: SimDuration,
}

impl Default for SgxMemoryModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl SgxMemoryModel {
    /// Calibrated so that a sequential scan of a working set much larger than
    /// the EPC is ~66× slower than the same scan in untrusted memory
    /// (Table 3: 3.8 M vs 256 M lookups/s).
    #[must_use]
    pub fn paper_calibrated() -> Self {
        SgxMemoryModel {
            epc_bytes: EPC_BYTES,
            hit: SimDuration::from_nanos(4),
            page_fault: SimDuration::from_nanos(260),
        }
    }

    /// Probability that an access to a uniformly accessed working set of
    /// `working_set_bytes` misses the EPC.
    #[must_use]
    pub fn miss_probability(&self, working_set_bytes: u64) -> f64 {
        if working_set_bytes <= self.epc_bytes {
            0.0
        } else {
            1.0 - self.epc_bytes as f64 / working_set_bytes as f64
        }
    }

    /// Expected cost of one access to a working set of the given size.
    #[must_use]
    pub fn access_cost(&self, working_set_bytes: u64) -> SimDuration {
        let p_miss = self.miss_probability(working_set_bytes);
        let hit_ns = self.hit.as_nanos() as f64;
        let miss_ns = self.page_fault.as_nanos() as f64;
        SimDuration::from_nanos((hit_ns * (1.0 - p_miss) + miss_ns * p_miss).round() as u64)
    }

    /// Slowdown of accessing the given working set relative to fitting in EPC.
    #[must_use]
    pub fn slowdown(&self, working_set_bytes: u64) -> f64 {
        self.access_cost(working_set_bytes).as_nanos() as f64 / self.hit.as_nanos() as f64
    }
}

/// Generator of per-operation latencies inside a scone-based enclave,
/// reproducing Figure 7 (steady ~45 µs with spikes to 60–110 µs, and an
/// "SGX-empty" variant without the HMAC computation).
#[derive(Debug, Clone)]
pub struct SconeLatencyTrace {
    with_hmac: LatencyModel,
    without_hmac: LatencyModel,
    rng: DetRng,
}

impl SconeLatencyTrace {
    /// Creates a trace generator with the paper-calibrated spike behaviour.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SconeLatencyTrace {
            with_hmac: LatencyModel::spiky_us(45.0, 2.0, 0.04, 60.0, 110.0),
            without_hmac: LatencyModel::spiky_us(17.0, 1.5, 0.02, 40.0, 80.0),
            rng: DetRng::new(seed),
        }
    }

    /// Next per-operation latency for SGX with HMAC (the "SGX" series).
    pub fn next_sgx(&mut self) -> SimDuration {
        self.with_hmac.sample(&mut self.rng)
    }

    /// Next per-operation latency for SGX without the HMAC body
    /// (the "SGX-empty" series).
    pub fn next_sgx_empty(&mut self) -> SimDuration {
        self.without_hmac.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_working_sets_do_not_page() {
        let m = SgxMemoryModel::paper_calibrated();
        assert_eq!(m.miss_probability(EPC_BYTES / 2), 0.0);
        assert_eq!(m.access_cost(EPC_BYTES / 2), m.hit);
        assert!((m.slowdown(EPC_BYTES) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table3_lookup_collapse_is_about_66x() {
        let m = SgxMemoryModel::paper_calibrated();
        // 9.3 GiB log inside a 94 MiB EPC.
        let working_set = (9.3 * 1024.0 * 1024.0 * 1024.0) as u64;
        let slowdown = m.slowdown(working_set);
        assert!(
            (50.0..=80.0).contains(&slowdown),
            "expected ~66x, got {slowdown:.1}x"
        );
    }

    #[test]
    fn miss_probability_monotonic() {
        let m = SgxMemoryModel::paper_calibrated();
        let p1 = m.miss_probability(2 * EPC_BYTES);
        let p2 = m.miss_probability(10 * EPC_BYTES);
        assert!(p2 > p1);
        assert!(p2 < 1.0);
    }

    #[test]
    fn scone_trace_shows_spikes_above_baseline() {
        let mut trace = SconeLatencyTrace::new(11);
        let samples: Vec<f64> = (0..2000)
            .map(|_| trace.next_sgx().as_micros_f64())
            .collect();
        let spikes = samples.iter().filter(|&&s| s > 58.0).count();
        assert!(spikes > 20 && spikes < 300, "spikes = {spikes}");
        let empty: Vec<f64> = (0..500)
            .map(|_| trace.next_sgx_empty().as_micros_f64())
            .collect();
        let mean_empty = empty.iter().sum::<f64>() / empty.len() as f64;
        let mean_full = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean_full > mean_empty + 10.0);
    }
}
