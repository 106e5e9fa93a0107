//! Control and status registers exposed to the host through mapped pages
//! (paper §5.1).
//!
//! The driver maps one page per device (`/dev/fpga<ID>`); reads and writes to
//! that page are reads and writes of these registers. The software network
//! stack posts requests by filling request registers and ringing a doorbell.

/// Number of 64-bit registers in the mapped page (4 KiB / 8 B).
pub const REGISTER_COUNT: usize = 512;

/// Well-known register offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Register {
    /// Device control word (bit 0: enabled).
    Control = 0,
    /// Device status word (bit 0: ready, bit 1: provisioned).
    Status = 1,
    /// MAC address (lower 48 bits).
    MacAddr = 2,
    /// IPv4 address (lower 32 bits).
    IpAddr = 3,
    /// UDP port for RoCE v2.
    UdpPort = 4,
    /// QSFP port selector.
    QsfpPort = 5,
    /// Request opcode for the next doorbell.
    RequestOpcode = 8,
    /// Queue pair the request targets.
    RequestQp = 9,
    /// Host-memory offset of the request payload.
    RequestAddr = 10,
    /// Length of the request payload.
    RequestLen = 11,
    /// Session id used for attestation.
    RequestSession = 12,
    /// Doorbell: writing a non-zero value submits the request.
    Doorbell = 15,
    /// Number of completions available to poll.
    CompletionCount = 16,
}

/// A simple 4 KiB register file.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs: Vec<u64>,
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegisterFile {
    /// Creates a zeroed register file.
    #[must_use]
    pub fn new() -> Self {
        RegisterFile {
            regs: vec![0u64; REGISTER_COUNT],
        }
    }

    /// Reads a named register.
    #[must_use]
    pub fn read(&self, reg: Register) -> u64 {
        self.regs[reg as usize]
    }

    /// Writes a named register.
    pub fn write(&mut self, reg: Register, value: u64) {
        self.regs[reg as usize] = value;
    }

    /// Reads a register by raw offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= REGISTER_COUNT`.
    #[must_use]
    pub fn read_offset(&self, offset: usize) -> u64 {
        self.regs[offset]
    }

    /// Writes a register by raw offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= REGISTER_COUNT`.
    pub fn write_offset(&mut self, offset: usize, value: u64) {
        self.regs[offset] = value;
    }

    /// Returns `true` if the doorbell register is set, clearing it.
    pub fn take_doorbell(&mut self) -> bool {
        let rung = self.read(Register::Doorbell) != 0;
        self.write(Register::Doorbell, 0);
        rung
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_named_registers() {
        let mut regs = RegisterFile::new();
        assert_eq!(regs.read(Register::Status), 0);
        regs.write(Register::Status, 0b11);
        assert_eq!(regs.read(Register::Status), 3);
    }

    #[test]
    fn read_write_by_offset() {
        let mut regs = RegisterFile::new();
        regs.write_offset(100, 42);
        assert_eq!(regs.read_offset(100), 42);
    }

    #[test]
    fn doorbell_is_cleared_on_take() {
        let mut regs = RegisterFile::new();
        assert!(!regs.take_doorbell());
        regs.write(Register::Doorbell, 1);
        assert!(regs.take_doorbell());
        assert!(!regs.take_doorbell());
    }

    #[test]
    #[should_panic]
    fn out_of_range_offset_panics() {
        let regs = RegisterFile::new();
        let _ = regs.read_offset(REGISTER_COUNT);
    }
}
