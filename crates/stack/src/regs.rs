//! Mapped REG pages (paper §5.1).
//!
//! TNIC reserves one page per connected device; reads and writes to the page
//! are reads and writes of the device's control and status registers, letting
//! applications drive the control path without entering the kernel.

use crate::driver::{lock_device, SharedDevice};
use tnic_device::regs::Register;

/// Size of the mapped register page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A user-space mapping of one device's register page.
#[derive(Debug, Clone)]
pub struct MappedRegsPage {
    device: SharedDevice,
    path: String,
}

impl MappedRegsPage {
    /// Creates a mapping backed by `device`, exposed under `path`.
    #[must_use]
    pub fn new(device: SharedDevice, path: String) -> Self {
        MappedRegsPage { device, path }
    }

    /// The pseudo-device path this mapping came from.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Reads a control/status register.
    #[must_use]
    pub fn read(&self, reg: Register) -> u64 {
        lock_device(&self.device).read_register(reg)
    }

    /// Writes a control/status register.
    pub fn write(&self, reg: Register, value: u64) {
        lock_device(&self.device).write_register(reg, value);
    }

    /// The underlying shared device (used by the ibv library's data path).
    #[must_use]
    pub fn device(&self) -> SharedDevice {
        self.device.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use tnic_crypto::ed25519::Keypair;
    use tnic_device::device::TnicDevice;
    use tnic_device::types::DeviceId;

    #[test]
    fn read_write_round_trip() {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        let device = Arc::new(Mutex::new(TnicDevice::for_tests(
            DeviceId(1),
            vendor.verifying,
        )));
        let page = MappedRegsPage::new(device, "/dev/fpga1".to_owned());
        assert_eq!(page.path(), "/dev/fpga1");
        page.write(Register::RequestOpcode, 9);
        assert_eq!(page.read(Register::RequestOpcode), 9);
    }

    #[test]
    fn clones_alias_the_same_registers() {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        let device = Arc::new(Mutex::new(TnicDevice::for_tests(
            DeviceId(2),
            vendor.verifying,
        )));
        let a = MappedRegsPage::new(device, "/dev/fpga2".to_owned());
        let b = a.clone();
        a.write(Register::RequestAddr, 1234);
        assert_eq!(b.read(Register::RequestAddr), 1234);
    }
}
