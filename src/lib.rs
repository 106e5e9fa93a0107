//! # `tnic` — umbrella crate of the TNIC reproduction
//!
//! One dependency pulls in the whole stack: the simulated trusted-NIC
//! hardware, the programming API, and the four application case studies
//! built on the attest/verify substrate.
//!
//! | Layer            | Crate                | Re-export        |
//! |------------------|----------------------|------------------|
//! | programming API  | `tnic-core`          | [`tnic_core`]    |
//! | A2M log          | `tnic-a2m`           | [`tnic_a2m`]     |
//! | BFT counter      | `tnic-bft`           | [`tnic_bft`]     |
//! | chain replication| `tnic-cr`            | [`tnic_cr`]      |
//! | accountability   | `tnic-peerreview`    | [`tnic_peerreview`] |
//! | hardware model   | `tnic-device`        | [`tnic_device`]  |
//! | network substrate| `tnic-net`           | [`tnic_net`]     |
//! | observability    | `tnic-obs`           | [`tnic_obs`]     |
//! | TEE baselines    | `tnic-tee`           | [`tnic_tee`]     |
//! | simulation       | `tnic-sim`           | [`tnic_sim`]     |
//! | cryptography     | `tnic-crypto`        | [`tnic_crypto`]  |
//!
//! The most frequently used types are also re-exported at the root and in
//! [`prelude`].
//!
//! # Example
//!
//! ```
//! use tnic::prelude::*;
//!
//! let mut cluster = Cluster::fully_connected(2, Baseline::Tnic, NetworkStackKind::Tnic, 7);
//! cluster.auth_send(NodeId(0), NodeId(1), b"request").unwrap();
//! assert_eq!(cluster.poll(NodeId(1)).unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tnic_a2m;
pub use tnic_bft;
pub use tnic_core;
pub use tnic_cr;
pub use tnic_crypto;
pub use tnic_device;
pub use tnic_net;
pub use tnic_obs;
pub use tnic_peerreview;
pub use tnic_sim;
pub use tnic_tee;

pub use tnic_core::{Baseline, Cluster, CoreError, NetworkStackKind, NodeId};
pub use tnic_peerreview::{
    AccountabilityEngine, AccountedApp, EngineConfig, PeerReview, PeerReviewConfig, Verdict,
};

/// Commonly used types, importable in one line.
pub mod prelude {
    pub use tnic_core::api::{Cluster, Delivered, NodeId};
    pub use tnic_core::transform::{CounterMachine, StateMachine};
    pub use tnic_core::verification::LemmaMonitor;
    pub use tnic_core::{Baseline, CoreError, NetworkStackKind};
    pub use tnic_net::adversary::{Adversary, FaultPlan, NodeFault};
    pub use tnic_peerreview::audit::Verdict;
    pub use tnic_peerreview::engine::{AccountabilityEngine, AccountedApp, EngineConfig};
    pub use tnic_peerreview::system::{PeerReview, PeerReviewConfig};
    pub use tnic_sim::time::{SimDuration, SimInstant};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use tnic_peerreview::deployment::Accountable;

    #[test]
    fn umbrella_wires_substrate_and_applications_together() {
        let faults = FaultPlan::single(1, NodeFault::Equivocate);
        let mut pr = PeerReview::new(PeerReviewConfig::default(), faults).unwrap();
        pr.run_rounds(1, 1, |pr, _| pr.run_workload(4)).unwrap();
        assert!(pr
            .correct_witnesses_of(1)
            .iter()
            .all(|&w| pr.verdict_of(w, 1) == Verdict::Exposed));
    }
}
