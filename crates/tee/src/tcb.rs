//! Trusted-computing-base accounting (paper Table 4).
//!
//! TEE-hosted protocols must trust the entire guest OS, the crypto library and
//! the application codebase (over 2 M lines); TNIC trusts only its 2 114-line
//! hardware attestation kernel.

use tnic_device::resources::ATTESTATION_KERNEL_TCB_LOC;

/// The threat model a system operates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreatModel {
    /// Crash fault tolerant: the TEE-hosted protocol itself can only crash.
    Cft,
    /// Byzantine fault tolerant.
    Bft,
}

impl std::fmt::Display for ThreatModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ThreatModel::Cft => "CFT",
            ThreatModel::Bft => "BFT",
        })
    }
}

/// TCB size report for one system (Table 4 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcbReport {
    /// System name as printed in the paper.
    pub system: String,
    /// Threat model the system targets.
    pub threat_model: ThreatModel,
    /// Lines of OS code inside the TCB.
    pub os_loc: u64,
    /// Lines of attestation/crypto code inside the TCB.
    pub attestation_loc: u64,
    /// Lines of application code inside the TCB.
    pub app_loc: u64,
}

impl TcbReport {
    /// Total trusted lines of code.
    #[must_use]
    pub fn total_loc(&self) -> u64 {
        self.os_loc + self.attestation_loc + self.app_loc
    }

    /// The TEEs-Raft row of Table 4.
    #[must_use]
    pub fn tees_raft() -> Self {
        TcbReport {
            system: "TEEs-Raft".to_owned(),
            threat_model: ThreatModel::Cft,
            os_loc: 2_307_000,
            attestation_loc: 1_268,
            app_loc: 856,
        }
    }

    /// The TEEs-CR row of Table 4.
    #[must_use]
    pub fn tees_cr() -> Self {
        TcbReport {
            system: "TEEs-CR".to_owned(),
            threat_model: ThreatModel::Cft,
            os_loc: 2_307_000,
            attestation_loc: 1_268,
            app_loc: 992,
        }
    }

    /// The TNIC row of Table 4: only the hardware attestation kernel.
    #[must_use]
    pub fn tnic() -> Self {
        TcbReport {
            system: "TNIC".to_owned(),
            threat_model: ThreatModel::Bft,
            os_loc: 0,
            attestation_loc: ATTESTATION_KERNEL_TCB_LOC,
            app_loc: 0,
        }
    }

    /// All three rows of Table 4.
    #[must_use]
    pub fn table4() -> Vec<TcbReport> {
        vec![Self::tees_raft(), Self::tees_cr(), Self::tnic()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tnic_tcb_is_tiny_fraction_of_tee_hosted() {
        let tnic = TcbReport::tnic().total_loc();
        let raft = TcbReport::tees_raft().total_loc();
        let ratio = tnic as f64 / raft as f64 * 100.0;
        // Paper: "only 0.09 % of TEE-hosted systems".
        assert!((0.05..=0.15).contains(&ratio), "ratio {ratio:.3} %");
    }

    #[test]
    fn table4_totals() {
        assert_eq!(TcbReport::tnic().total_loc(), 2_114);
        assert!(TcbReport::tees_raft().total_loc() > 2_300_000);
        assert!(TcbReport::tees_cr().total_loc() > TcbReport::tees_raft().total_loc());
        assert_eq!(TcbReport::table4().len(), 3);
    }

    #[test]
    fn threat_models_match_paper() {
        assert_eq!(TcbReport::tnic().threat_model, ThreatModel::Bft);
        assert_eq!(TcbReport::tees_raft().threat_model, ThreatModel::Cft);
        assert_eq!(ThreatModel::Bft.to_string(), "BFT");
    }
}
