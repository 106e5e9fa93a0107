//! Identifiers and small value types shared by the TNIC hardware model.

use std::fmt;

/// Unique identifier of a TNIC device (the 4-byte `ID` of paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tnic{}", self.0)
    }
}

/// Identifier of a connection/session on a device (the 4-byte session id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a queue pair in the RoCE protocol kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueuePairId(pub u32);

impl fmt::Display for QueuePairId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Derives a locally administered MAC address from a device id.
    #[must_use]
    pub fn from_device(device: DeviceId) -> Self {
        let b = device.0.to_be_bytes();
        MacAddr([0x02, 0x54, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// An IPv4 address (the network layer of RoCE v2 uses UDP/IPv4, paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Creates an address from four octets.
    #[must_use]
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// Derives a deterministic cluster address from a device id.
    #[must_use]
    pub fn from_device(device: DeviceId) -> Self {
        let b = device.0.to_be_bytes();
        Ipv4Addr([10, 0, b[2], b[3]])
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Static device configuration written by the driver at initialisation
/// (paper §5.1: MAC address, QSFP port, IP address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// The device identifier burnt into the attestation metadata.
    pub device_id: DeviceId,
    /// The MAC address of the QSFP port in use.
    pub mac_addr: MacAddr,
    /// The IP address used by the application.
    pub ip_addr: Ipv4Addr,
    /// Which of the two QSFP28 ports is used (the paper uses a single port).
    pub qsfp_port: u8,
    /// UDP port used by the RoCE v2 encapsulation.
    pub udp_port: u16,
}

impl DeviceConfig {
    /// A reasonable default configuration for device `device_id`.
    #[must_use]
    pub fn for_device(device_id: DeviceId) -> Self {
        DeviceConfig {
            device_id,
            mac_addr: MacAddr::from_device(device_id),
            ip_addr: Ipv4Addr::from_device(device_id),
            qsfp_port: 0,
            udp_port: 4791,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(DeviceId(3).to_string(), "tnic3");
        assert_eq!(SessionId(7).to_string(), "s7");
        assert_eq!(QueuePairId(1).to_string(), "qp1");
        assert_eq!(Ipv4Addr::new(10, 0, 0, 1).to_string(), "10.0.0.1");
        assert_eq!(MacAddr([0, 1, 2, 3, 4, 5]).to_string(), "00:01:02:03:04:05");
    }

    #[test]
    fn derived_addresses_are_unique_per_device() {
        let a = MacAddr::from_device(DeviceId(1));
        let b = MacAddr::from_device(DeviceId(2));
        assert_ne!(a, b);
        assert_ne!(
            Ipv4Addr::from_device(DeviceId(1)),
            Ipv4Addr::from_device(DeviceId(2))
        );
    }

    #[test]
    fn default_config_is_consistent() {
        let cfg = DeviceConfig::for_device(DeviceId(5));
        assert_eq!(cfg.device_id, DeviceId(5));
        assert_eq!(cfg.udp_port, 4791);
        assert_eq!(cfg.mac_addr, MacAddr::from_device(DeviceId(5)));
    }
}
