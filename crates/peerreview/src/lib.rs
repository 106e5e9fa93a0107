//! PeerReview-style accountability on the TNIC attest/verify substrate
//! (the paper's fourth application case study, §6).
//!
//! The crate is split engine/driver: [`engine`] is an application-agnostic
//! accountability middleware (commitment layer, witness audits, verdicts,
//! piggyback ride queue) any deployment can attach to its cluster through
//! the [`engine::AccountedApp`] trait; [`system`] is the PeerReview workload
//! driver — just one client of that engine, alongside the accountable BFT
//! (`tnic-bft`) and chain-replication (`tnic-cr`) deployments.
//!
//! # What this crate reproduces
//!
//! The paper argues that the TNIC primitives — *transferable
//! authentication* and *non-equivocation*, exported by the NIC-level
//! attestation kernel — are sufficient building blocks for a family of
//! distributed-system hardening techniques, and evaluates four case
//! studies on top of them. This crate is the accountability one:
//! a PeerReview-like fault-detection protocol (Haeberlen et al., SOSP'07)
//! rebuilt on the attested-message substrate instead of software
//! signatures.
//!
//! The mapping from protocol concept to substrate primitive:
//!
//! | PeerReview concept            | TNIC realisation                                        |
//! |-------------------------------|---------------------------------------------------------|
//! | tamper-evident log            | [`log::SecureLog`]: hash-chained entries                |
//! | log commitment (authenticator)| [`log::Authenticator`]: `(seq, head)` sealed by the     |
//! |                               | node's attestation kernel ([`tnic_device::attestation`])|
//! | commitment on each message    | [`tnic_core::accountability`] hooks: every `auth_send`  |
//! |                               | logs a `Send` entry, every verified delivery a `Recv`   |
//! | witness audit                 | [`audit::WitnessRecord`]: challenge, chain check, replay|
//! | state-machine replay          | [`tnic_core::transform::StateMachine`] reference copy   |
//! | evidence transfer             | conflicting authenticators forwarded witness-to-witness;|
//! |                               | transferable authentication lets third parties verify   |
//! | trusted/suspected/exposed     | [`audit::Verdict`]                                      |
//!
//! The TNIC twist: in classic PeerReview an authenticator is a signature,
//! and equivocation detection rests on the signature scheme alone. Here the
//! commitment is sealed by the device's attestation kernel, whose hardware
//! counter makes *every* seal unique and totally ordered — a forked log
//! yields two commitments that are both authentic, carry distinct counters,
//! and together form self-contained, independently verifiable proof of
//! misbehaviour.
//!
//! # Fault model
//!
//! Faults are injected through [`tnic_net::adversary::FaultPlan`] /
//! [`tnic_net::adversary::NodeFault`]: the *host* is Byzantine (it may fork
//! its log, suppress audit traffic, truncate or rewrite committed history),
//! while the TNIC device stays honest — the paper's trust model, and the
//! reason the faults remain detectable. The audit workload proceeds
//! independently per witness without global barriers: each witness collects
//! commitments, challenges and classifies on its own, and only transferable
//! evidence synchronises opinions.
//!
//! # Quick start
//!
//! ```
//! use tnic_net::adversary::{FaultPlan, NodeFault};
//! use tnic_peerreview::audit::Verdict;
//! use tnic_peerreview::deployment::Accountable;
//! use tnic_peerreview::system::{PeerReview, PeerReviewConfig};
//!
//! // 4 nodes, node 1 equivocates; every correct witness exposes it.
//! let faults = FaultPlan::single(1, NodeFault::Equivocate);
//! let mut pr = PeerReview::new(PeerReviewConfig::default(), faults).unwrap();
//! pr.run_rounds(2, 1, |pr, _| pr.run_workload(6)).unwrap();
//! for witness in pr.correct_witnesses_of(1) {
//!     assert_eq!(pr.verdict_of(witness, 1), Verdict::Exposed);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod checkpoint;
pub mod deployment;
pub mod engine;
pub mod log;
pub mod stats;
pub mod system;
pub mod wire;
pub mod workload;

pub use audit::{Misbehavior, Verdict, WitnessRecord};
pub use checkpoint::{cosign_quorum, CheckpointMark, Cosignature};
pub use deployment::Accountable;
pub use engine::{
    AccountabilityEngine, AccountedApp, AppDelivery, CommitmentLayer, CounterApp, EngineConfig,
};
pub use log::{Authenticator, EntryKind, LogEntry, SecureLog};
pub use stats::AccountabilityStats;
pub use system::{PeerReview, PeerReviewConfig};
pub use wire::Envelope;
