//! The TNIC driver (paper §5.1).
//!
//! The driver is invoked at device initialisation — before remote attestation
//! — to program the static configuration (MAC address, QSFP port, IP address)
//! and to map the device's control/status registers into the application's
//! address space as one page per device (`/dev/fpga<ID>`).

use crate::regs::MappedRegsPage;
use std::sync::{Arc, Mutex, MutexGuard};
use tnic_device::device::TnicDevice;
use tnic_device::regs::Register;

/// A device shared between the driver, the mapped register page and the ibv
/// library (all user-space components of the same host).
pub type SharedDevice = Arc<Mutex<TnicDevice>>;

/// Locks a shared device.
pub(crate) fn lock_device(device: &SharedDevice) -> MutexGuard<'_, TnicDevice> {
    device.lock().expect("a holder of the device lock panicked")
}

/// The TNIC kernel driver.
#[derive(Debug)]
pub struct TnicDriver {
    device: SharedDevice,
    pseudo_device_path: String,
}

impl TnicDriver {
    /// Probes a device: writes the static configuration into the device
    /// registers and registers the pseudo-device node.
    #[must_use]
    pub fn probe(device: TnicDevice) -> Self {
        let path = format!("/dev/fpga{}", device.id().0);
        let shared: SharedDevice = Arc::new(Mutex::new(device));
        {
            let mut dev = lock_device(&shared);
            let cfg = *dev.config();
            let mut mac = [0u8; 8];
            mac[..6].copy_from_slice(&cfg.mac_addr.0);
            dev.write_register(Register::MacAddr, u64::from_le_bytes(mac));
            dev.write_register(
                Register::IpAddr,
                u64::from(u32::from_be_bytes(cfg.ip_addr.0)),
            );
            dev.write_register(Register::UdpPort, u64::from(cfg.udp_port));
            dev.write_register(Register::QsfpPort, u64::from(cfg.qsfp_port));
            dev.write_register(Register::Control, 1);
        }
        TnicDriver {
            device: shared,
            pseudo_device_path: path,
        }
    }

    /// The `/dev/fpga<ID>` path under which the device is exposed.
    #[must_use]
    pub fn pseudo_device_path(&self) -> &str {
        &self.pseudo_device_path
    }

    /// Maps the device's register page into user space (the kernel-bypass
    /// control path). Multiple mappings can coexist; isolation is enforced by
    /// the OS library's locking.
    #[must_use]
    pub fn map_regs(&self) -> MappedRegsPage {
        MappedRegsPage::new(Arc::clone(&self.device), self.pseudo_device_path.clone())
    }

    /// A handle to the underlying shared device.
    #[must_use]
    pub fn device(&self) -> SharedDevice {
        Arc::clone(&self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_crypto::ed25519::Keypair;
    use tnic_device::types::DeviceId;

    fn test_device(id: u32) -> TnicDevice {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        TnicDevice::for_tests(DeviceId(id), vendor.verifying)
    }

    #[test]
    fn probe_writes_static_configuration() {
        let driver = TnicDriver::probe(test_device(3));
        assert_eq!(driver.pseudo_device_path(), "/dev/fpga3");
        let dev = driver.device();
        let dev = lock_device(&dev);
        assert_eq!(dev.read_register(Register::Control), 1);
        assert_eq!(dev.read_register(Register::UdpPort), 4791);
        assert_ne!(dev.read_register(Register::MacAddr), 0);
        assert_ne!(dev.read_register(Register::IpAddr), 0);
    }

    #[test]
    fn mapped_page_shares_the_device() {
        let driver = TnicDriver::probe(test_device(4));
        let regs = driver.map_regs();
        regs.write(Register::RequestLen, 77);
        assert_eq!(
            lock_device(&driver.device()).read_register(Register::RequestLen),
            77
        );
    }
}
