//! Host-side baseline emulation for the TNIC evaluation (paper §8.1, §8.3).
//!
//! The paper compares the TNIC attestation kernel against four host-side
//! systems (Table 2): `SSL-lib` (an in-process OpenSSL HMAC library, neither
//! TEE-free nor tamper-proof trade-offs apply), `SSL-server` running natively
//! on Intel x86 or AMD (TEE-free but not tamper-proof), and the same server
//! hosted inside Intel SGX (via scone) or an AMD SEV VM (tamper-proof).
//! The paper itself emulates TEE latencies in the distributed-systems
//! experiments by injecting measured delays (§8.3); this crate holds those
//! delays, calibrated to its Figures 5–7, and Table 2's security
//! properties. It holds no attestation *service*: every baseline runs
//! Algorithm 1 on the one `tnic_device::attestation::AttestationKernel`, and
//! `tnic_core::provider::Provider` charges each invocation on a host
//! baseline that baseline's [`BaselineProfile`].
//!
//! [`profile`] is the one module: the latency/security profile of each
//! baseline. Table 3's SGX/SEV memory figures and Table 4's TCB sizes are not
//! modelled, because no run charges them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;

pub use profile::{Baseline, BaselineProfile};
