//! # TNIC core library
//!
//! The paper's primary contribution as a reusable Rust library: a trusted
//! NIC-level substrate providing **transferable authentication** and
//! **non-equivocation**, a programming API modelled on one-sided RDMA
//! (Table 1), and a generic recipe for transforming crash-fault-tolerant
//! distributed systems into Byzantine-fault-tolerant ones without increasing
//! the replication factor (§6.2).
//!
//! * [`api`] — the programming API: [`api::Cluster`] wires nodes together over
//!   an attestation [`provider::Provider`] (TNIC hardware or a TEE baseline)
//!   and a modelled network stack, exposing `auth_send`, `local_send`,
//!   `local_verify`, `poll` and equivocation-free multicast (Table 1's
//!   one-sided `rem_read`/`rem_write` are not modelled: nothing used them).
//! * [`provider`] — the attestation back-end abstraction (TNIC vs SSL-lib,
//!   SSL-server, SGX, AMD-sev).
//! * [`transform`] — the deterministic [`transform::StateMachine`] that the
//!   CFT→BFT recipe (Listing 1) simulates; each application runs the
//!   simulate-and-check step itself.
//! * [`accountability`] — the pluggable accountability hook point used by the
//!   PeerReview case study (`tnic-peerreview`) to maintain tamper-evident
//!   logs of every attested send and verified delivery.
//! * [`attestation`] — device bootstrapping and remote attestation (Figure 3).
//! * [`verification`] — the executable counterpart of the paper's Tamarin
//!   lemmas (§4.4): an online monitor that decides them fact by fact, on
//!   any cluster that asks with [`Cluster::monitor_lemmas`].
//! * [`error`] — the library error type.
//!
//! # Quick start
//!
//! ```
//! use tnic_core::api::{Cluster, NodeId};
//! use tnic_net::stack::NetworkStackKind;
//! use tnic_tee::profile::Baseline;
//!
//! // Two nodes with TNIC-backed attestation over the TNIC network stack.
//! let mut cluster = Cluster::fully_connected(2, Baseline::Tnic, NetworkStackKind::Tnic, 7);
//! cluster.auth_send(NodeId(0), NodeId(1), b"client request").unwrap();
//! let delivered = cluster.poll(NodeId(1)).unwrap();
//! assert_eq!(delivered[0].message.payload, b"client request");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountability;
pub mod api;
pub mod attestation;
pub mod error;
pub mod provider;
pub mod transform;
pub mod verification;

pub use accountability::{AccountabilityLayer, SharedAccountability};
pub use api::{Cluster, Delivered, NodeId};
pub use error::CoreError;
pub use provider::Provider;
pub use verification::{ActionFact, LemmaMonitor};

/// Re-export of the attested message type carried by every API.
pub use tnic_device::attestation::AttestedMessage;
/// Re-export of the session identifier type.
pub use tnic_device::types::SessionId;
/// Re-export of the network stack models used to select the transport.
pub use tnic_net::stack::NetworkStackKind;
/// Re-export of the baseline enumeration used to select attestation back-ends.
pub use tnic_tee::profile::Baseline;
