//! Simulated network substrate for the TNIC reproduction.
//!
//! The paper's testbed connects Alveo U280 cards over 100 Gbps links and runs
//! the software baselines over eRPC/DPDK on Intel NICs. This crate replaces
//! that substrate with:
//!
//! * [`fabric`] — a point-to-point packet fabric with configurable delay,
//!   loss, duplication and reordering, used to exercise the RoCE reliable
//!   transport and the distributed systems.
//! * [`adversary`] — Byzantine network adversaries (tampering, replay,
//!   attempted equivocation) used by the property tests.
//! * [`stack`] — latency models of the five evaluated network stacks
//!   (RDMA-hw, DRCT-IO, DRCT-IO-att, TNIC, TNIC-att), calibrated to
//!   Figure 9 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod fabric;
pub mod stack;

pub use adversary::{Adversary, FaultPlan, NodeFault};
pub use fabric::{LinkConfig, NetworkFabric};
pub use stack::NetworkStackKind;
