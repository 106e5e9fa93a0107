//! Baseline profiles: who is TEE-free, who is tamper-proof, and what an
//! `Attest()` invocation costs on each (paper Table 2 and Figures 5–6).

use tnic_sim::latency::LatencyModel;
use tnic_sim::time::SimDuration;

/// The attestation baselines evaluated by the paper, plus TNIC itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// OpenSSL HMAC linked directly into the application (no isolation).
    SslLib,
    /// A separate OpenSSL server process on Intel x86, reached over TCP.
    SslServerIntel,
    /// A separate OpenSSL server process on AMD, reached over TCP.
    SslServerAmd,
    /// The server hosted inside an Intel SGX enclave (scone).
    Sgx,
    /// The server hosted inside an AMD SEV confidential VM.
    AmdSev,
    /// The TNIC FPGA attestation kernel. Its profile is §8.1's stand-alone
    /// `Attest()` over synchronous DMA (23 µs at 64 B), which `Provider`
    /// never draws: `Cost::new` takes `Cost::Hardware` first.
    Tnic,
}

impl Baseline {
    /// All baselines in the order the paper's figures list them.
    pub const ALL: [Baseline; 6] = [
        Baseline::SslLib,
        Baseline::SslServerIntel,
        Baseline::SslServerAmd,
        Baseline::Sgx,
        Baseline::AmdSev,
        Baseline::Tnic,
    ];

    /// Display label matching the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Baseline::SslLib => "SSL-lib",
            Baseline::SslServerIntel => "Intel-x86",
            Baseline::SslServerAmd => "AMD",
            Baseline::Sgx => "SGX",
            Baseline::AmdSev => "AMD-sev",
            Baseline::Tnic => "TNIC",
        }
    }

    /// The latency/breakdown profile for this baseline.
    #[must_use]
    pub fn profile(self) -> BaselineProfile {
        BaselineProfile::for_baseline(self)
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Latency profile of one baseline, calibrated to Figures 5–7.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineProfile {
    /// Which baseline this profile describes.
    pub baseline: Baseline,
    /// Cost of reaching the attestation service and moving data
    /// (socket/enclave transition/PCIe), per invocation.
    pub access_transfer: LatencyModel,
    /// Cost of the HMAC computation itself for a ~64–128 B payload.
    pub computation: LatencyModel,
    /// Additional per-byte computation cost in nanoseconds (HMAC scales with
    /// payload size; §8.2 reports 30–40 % latency growth per doubling ≥1 KiB).
    pub computation_per_byte_ns: f64,
}

impl BaselineProfile {
    /// The profile calibrated to the paper's measurements: total `Attest()`
    /// latency of 11 µs (Intel-x86), 31 µs (AMD), 45 µs (SGX), 90 µs
    /// (AMD-sev) and 23 µs (TNIC), with access/transfer accounting for 30–90 %
    /// of the total (Figure 6) and SGX/SEV showing occasional scheduling
    /// spikes (Figure 7).
    #[must_use]
    pub fn for_baseline(baseline: Baseline) -> Self {
        let us = SimDuration::from_micros;
        match baseline {
            Baseline::SslLib => BaselineProfile {
                baseline,
                // In-process call: no access cost worth charging.
                access_transfer: LatencyModel::zero(),
                computation: LatencyModel::normal_us(1.1, 0.05),
                computation_per_byte_ns: 2.5,
            },
            Baseline::SslServerIntel => BaselineProfile {
                baseline,
                // Local TCP round trip to the server process.
                access_transfer: LatencyModel::normal_us(9.8, 0.6),
                computation: LatencyModel::normal_us(1.2, 0.1),
                computation_per_byte_ns: 2.5,
            },
            Baseline::SslServerAmd => BaselineProfile {
                baseline,
                access_transfer: LatencyModel::normal_us(28.5, 1.5),
                computation: LatencyModel::normal_us(2.5, 0.2),
                computation_per_byte_ns: 3.0,
            },
            Baseline::Sgx => BaselineProfile {
                baseline,
                // Socket + enclave transitions (~40 % of the total, Figure 6).
                access_transfer: LatencyModel::normal_us(18.0, 1.5),
                // HMAC inside the enclave is >30x slower than native and
                // occasionally spikes due to scone scheduling (Figure 7).
                computation: LatencyModel::spiky_us(27.0, 2.0, 0.02, 60.0, 110.0),
                computation_per_byte_ns: 8.0,
            },
            Baseline::AmdSev => BaselineProfile {
                baseline,
                access_transfer: LatencyModel::normal_us(36.0, 3.0),
                computation: LatencyModel::spiky_us(54.0, 4.0, 0.02, 200.0, 500.0),
                computation_per_byte_ns: 10.0,
            },
            Baseline::Tnic => BaselineProfile {
                baseline,
                // Synchronous PCIe access + transfer ≈ 16 µs, 70 % of 23 µs.
                access_transfer: LatencyModel::uniform(us(15), us(17)),
                computation: LatencyModel::uniform(us(6), us(8)),
                computation_per_byte_ns: 5.0,
            },
        }
    }

    /// Mean total `Attest()` latency for a payload of `payload_len` bytes.
    #[must_use]
    pub fn mean_total_us(&self, payload_len: usize) -> f64 {
        self.access_transfer.mean().as_micros_f64()
            + self.computation.mean().as_micros_f64()
            + self.computation_per_byte_ns * payload_len.saturating_sub(64) as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_mean_latencies_are_reproduced() {
        let expect = [
            (Baseline::SslServerIntel, 11.0),
            (Baseline::SslServerAmd, 31.0),
            (Baseline::Sgx, 45.0),
            (Baseline::AmdSev, 90.0),
            (Baseline::Tnic, 23.0),
        ];
        for (baseline, paper_us) in expect {
            let mean = baseline.profile().mean_total_us(64);
            let ratio = mean / paper_us;
            assert!(
                (0.85..=1.15).contains(&ratio),
                "{baseline}: model {mean:.1} us vs paper {paper_us} us"
            );
        }
    }

    #[test]
    fn tnic_beats_all_tees_and_amd_native() {
        let tnic = Baseline::Tnic.profile().mean_total_us(64);
        assert!(tnic < Baseline::Sgx.profile().mean_total_us(64));
        assert!(tnic < Baseline::AmdSev.profile().mean_total_us(64));
        assert!(tnic < Baseline::SslServerAmd.profile().mean_total_us(64));
        // ... but the native Intel server and the in-process library are faster.
        assert!(tnic > Baseline::SslServerIntel.profile().mean_total_us(64));
        assert!(tnic > Baseline::SslLib.profile().mean_total_us(64));
    }

    #[test]
    fn figure6_access_share() {
        // Access+transfer accounts for ~70 % of TNIC latency and 30–50 % of
        // the TEE baselines.
        let tnic = Baseline::Tnic.profile();
        let share = tnic.access_transfer.mean().as_micros_f64() / tnic.mean_total_us(64);
        assert!((0.6..=0.8).contains(&share), "tnic share {share}");
        let sgx = Baseline::Sgx.profile();
        let share = sgx.access_transfer.mean().as_micros_f64() / sgx.mean_total_us(64);
        assert!((0.3..=0.5).contains(&share), "sgx share {share}");
    }

    #[test]
    fn larger_payloads_cost_more() {
        for baseline in Baseline::ALL {
            let p = baseline.profile();
            assert!(p.mean_total_us(4096) > p.mean_total_us(64), "{baseline}");
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Baseline::Sgx.to_string(), "SGX");
        assert_eq!(Baseline::AmdSev.to_string(), "AMD-sev");
        assert_eq!(Baseline::Tnic.to_string(), "TNIC");
        assert_eq!(Baseline::ALL.len(), 6);
    }
}
