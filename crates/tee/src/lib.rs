//! Host-side baseline emulation for the TNIC evaluation (paper §8.1, §8.3).
//!
//! The paper compares the TNIC attestation kernel against four host-side
//! systems (Table 2): `SSL-lib` (an in-process OpenSSL HMAC library, neither
//! TEE-free nor tamper-proof trade-offs apply), `SSL-server` running natively
//! on Intel x86 or AMD (TEE-free but not tamper-proof), and the same server
//! hosted inside Intel SGX (via scone) or an AMD SEV VM (tamper-proof).
//! The paper itself emulates TEE latencies in the distributed-systems
//! experiments by injecting measured delays (§8.3); this crate holds those
//! delays and the paper's tables about the baselines, calibrated to its
//! Figures 5–7. It holds no attestation *service*: every baseline runs
//! Algorithm 1 on the one `tnic_device::attestation::AttestationKernel`, and
//! `tnic_core::provider::Provider` charges each invocation the baseline's
//! [`BaselineProfile`].
//!
//! Modules:
//! * [`profile`] — the latency/security profile of each baseline.
//! * [`sgx`] — SGX specifics: EPC capacity and paging cost model (Table 3's
//!   66× lookup collapse), scone-style latency spikes (Figure 7).
//! * [`sev`] — AMD SEV specifics.
//! * [`tcb`] — TCB size accounting (Table 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod sev;
pub mod sgx;
pub mod tcb;

pub use profile::{Baseline, BaselineProfile};
