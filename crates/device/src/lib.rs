//! Functional model of the TNIC FPGA SmartNIC (paper §4).
//!
//! The paper implements TNIC on Alveo U280 FPGA SmartNICs: an *attestation
//! kernel* providing transferable authentication and non-equivocation sits on
//! the data path between a RoCE (RDMA over Converged Ethernet) protocol kernel
//! and the PCIe DMA engine. This crate reproduces that hardware as a
//! functional, latency-calibrated model:
//!
//! * [`attestation`] — the attestation kernel (Algorithm 1): the HMAC unit
//!   over one record per session (its key and its monotonic send and
//!   receive counters), plus the attested wire format.
//! * [`roce`] — the RoCE protocol kernel: queue pairs, PSN/MSN tracking,
//!   cumulative ACKs, retransmission and in-order delivery.
//! * [`dma`] — the PCIe DMA/bridge model and its transfer costs (Fig. 6).
//! * [`mac`] — the 100 Gb Ethernet MAC with line-rate serialisation costs.
//! * [`arp`] — the ARP server used during request generation.
//! * [`device`] — [`TnicDevice`], the assembled card.
//!
//! # Example
//!
//! ```
//! use tnic_crypto::ed25519::Keypair;
//! use tnic_device::device::TnicDevice;
//! use tnic_device::types::{DeviceId, SessionId};
//!
//! let vendor = Keypair::from_seed(&[1u8; 32]);
//! let mut sender = TnicDevice::for_tests(DeviceId(1), vendor.verifying);
//! let mut receiver = TnicDevice::for_tests(DeviceId(2), vendor.verifying);
//! sender.provision_session(SessionId(1), [7u8; 32]);
//! receiver.provision_session(SessionId(1), [7u8; 32]);
//!
//! let (attested, _cost) = sender.local_send(SessionId(1), b"hello").unwrap();
//! receiver.local_verify(&attested).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod attestation;
mod counters;
pub mod device;
pub mod dma;
pub mod error;
mod keystore;
pub mod mac;
pub mod roce;
pub mod types;

pub use attestation::{AttestationKernel, AttestedMessage};
pub use device::TnicDevice;
pub use error::DeviceError;
pub use types::{DeviceConfig, DeviceId, QueuePairId, SessionId};
