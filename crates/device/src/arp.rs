//! The ARP server IP of the TNIC hardware (paper §4.2).
//!
//! Before transmission, the request-generation module resolves the remote MAC
//! address from a lookup table mapping IP addresses to MAC addresses.

use crate::error::DeviceError;
use crate::types::{Ipv4Addr, MacAddr};
use std::collections::HashMap;

/// A static ARP lookup table.
#[derive(Debug, Clone, Default)]
pub struct ArpServer {
    table: HashMap<Ipv4Addr, MacAddr>,
}

impl ArpServer {
    /// Creates an empty ARP table.
    #[must_use]
    pub fn new() -> Self {
        ArpServer {
            table: HashMap::new(),
        }
    }

    /// Adds or replaces a mapping.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.table.insert(ip, mac);
    }

    /// Resolves `ip` to a MAC address.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ArpMiss`] if the address is unknown.
    pub fn lookup(&self, ip: Ipv4Addr) -> Result<MacAddr, DeviceError> {
        self.table.get(&ip).copied().ok_or(DeviceError::ArpMiss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut arp = ArpServer::new();
        assert!(arp.table.is_empty());
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        let mac = MacAddr([1, 2, 3, 4, 5, 6]);
        arp.insert(ip, mac);
        assert_eq!(arp.lookup(ip).unwrap(), mac);
        assert_eq!(arp.table.len(), 1);
    }

    #[test]
    fn miss_errors() {
        let arp = ArpServer::new();
        assert_eq!(
            arp.lookup(Ipv4Addr::new(10, 0, 0, 9)),
            Err(DeviceError::ArpMiss)
        );
    }

    #[test]
    fn replace_updates_mapping() {
        let mut arp = ArpServer::new();
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        arp.insert(ip, MacAddr([1; 6]));
        arp.insert(ip, MacAddr([2; 6]));
        assert_eq!(arp.lookup(ip).unwrap(), MacAddr([2; 6]));
    }
}
