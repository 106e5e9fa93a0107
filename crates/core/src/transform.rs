//! The deterministic state machine behind the CFT→BFT transformation
//! (paper §6.2, Listing 1).
//!
//! The recipe wraps a CFT system's `send` and `recv`: the sender attests its
//! message together with its post-execution state, and the receiver
//! verifies the attestation and *simulates* the sender's execution to check
//! that the claimed state follows the specification. Transferable
//! authentication gives safety, the simulation gives integrity, and the
//! non-equivocation counters give consistency — which is why the result
//! tolerates Byzantine nodes with only 2f+1 replicas.
//!
//! Each application runs the simulate-and-check step itself, over a
//! [`StateMachine`]: `tnic-bft`'s followers re-execute the leader's proof of
//! execution, `tnic-cr` checks every hop against the chained outputs, and
//! witness replay in `tnic-peerreview`'s audit re-executes every logged
//! command of all four applications.

use tnic_crypto::sha256::sha256;

/// A deterministic replicated state machine, the unit the transformation
/// protects. The paper requires deterministic specifications (§6.2).
pub trait StateMachine: Clone {
    /// Executes a command, mutating the state and returning the output.
    fn execute(&mut self, command: &[u8]) -> Vec<u8>;

    /// A digest of the current state.
    fn state_digest(&self) -> [u8; 32];
}

/// A simple counter state machine used by tests, examples and the BFT
/// application (the paper's replicated-counter service).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterMachine {
    value: u64,
    applied: u64,
}

impl CounterMachine {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        CounterMachine::default()
    }

    /// The current counter value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl StateMachine for CounterMachine {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        // Any command increments; the command bytes are folded into the output
        // so different requests have distinguishable outputs.
        self.value += 1;
        self.applied += 1;
        let mut out = Vec::with_capacity(8 + command.len());
        out.extend_from_slice(&self.value.to_le_bytes());
        out.extend_from_slice(command);
        out
    }

    fn state_digest(&self) -> [u8; 32] {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&self.value.to_le_bytes());
        bytes[8..].copy_from_slice(&self.applied.to_le_bytes());
        sha256(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_machine_is_deterministic() {
        let mut a = CounterMachine::new();
        let mut b = CounterMachine::new();
        for cmd in [b"x".as_slice(), b"y", b"z"] {
            assert_eq!(a.execute(cmd), b.execute(cmd));
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.value(), 3);
        assert_eq!(a.applied, 3);
    }
}
