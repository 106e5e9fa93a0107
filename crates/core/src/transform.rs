//! The generic CFT→BFT transformation recipe (paper §6.2, Listing 1).
//!
//! The transformation wraps a CFT system's `send` and `recv` operations. On
//! `send`, the sender transmits the client message together with a digest of
//! its own post-execution state and (optionally) the last state it knows of
//! the receiver. On `recv`, the receiver (i) verifies the attestation, (ii)
//! *simulates* the sender's execution to check that the sender's claimed state
//! follows the protocol specification, and (iii) checks that the sender has
//! seen the receiver's latest state, ensuring both nodes share the same view.
//! Transferable authentication gives safety, the simulation gives integrity,
//! and the non-equivocation counters give consistency — which is why the
//! resulting system tolerates Byzantine nodes with only 2f+1 replicas.

use crate::api::{Cluster, NodeId};
use crate::error::CoreError;
use tnic_crypto::sha256::sha256;
use tnic_device::attestation::AttestedMessage;

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

    /// Number of commands applied so far.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
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

/// The wire format produced by the transformed `send` wrapper: the client
/// message, the sender's post-execution state digest and output, and the
/// receiver state the sender last observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrappedMessage {
    /// The original client message/command.
    pub command: Vec<u8>,
    /// The sender's output for this command.
    pub sender_output: Vec<u8>,
    /// Digest of the sender's state after executing the command.
    pub sender_state: [u8; 32],
    /// Digest of the receiver's state as last seen by the sender.
    pub receiver_state: [u8; 32],
}

impl WrappedMessage {
    /// Serialises the wrapper for transmission.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.command.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.command);
        out.extend_from_slice(&(self.sender_output.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.sender_output);
        out.extend_from_slice(&self.sender_state);
        out.extend_from_slice(&self.receiver_state);
        out
    }

    /// Parses a wrapper from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TransformViolation`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let err = CoreError::TransformViolation("malformed wrapped message");
        if bytes.len() < 4 {
            return Err(err);
        }
        let cmd_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let mut off = 4;
        if bytes.len() < off + cmd_len + 4 {
            return Err(err);
        }
        let command = bytes[off..off + cmd_len].to_vec();
        off += cmd_len;
        let out_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        if bytes.len() != off + out_len + 64 {
            return Err(err);
        }
        let sender_output = bytes[off..off + out_len].to_vec();
        off += out_len;
        let mut sender_state = [0u8; 32];
        sender_state.copy_from_slice(&bytes[off..off + 32]);
        let mut receiver_state = [0u8; 32];
        receiver_state.copy_from_slice(&bytes[off + 32..off + 64]);
        Ok(WrappedMessage {
            command,
            sender_output,
            sender_state,
            receiver_state,
        })
    }
}

/// One endpoint of a transformed CFT system: the node's own state machine plus
/// a *simulated copy* of the peer's state machine used to validate the peer's
/// claimed outputs without replaying the entire history.
#[derive(Debug, Clone)]
pub struct Transformed<S: StateMachine> {
    node: NodeId,
    peer: NodeId,
    state: S,
    simulated_peer: S,
}

impl<S: StateMachine> Transformed<S> {
    /// Creates the wrapper for `node` talking to `peer`; both sides start from
    /// the same initial state (deterministic specification requirement).
    #[must_use]
    pub fn new(node: NodeId, peer: NodeId, initial: S) -> Self {
        Transformed {
            node,
            peer,
            state: initial.clone(),
            simulated_peer: initial,
        }
    }

    /// This node's state machine.
    #[must_use]
    pub fn state(&self) -> &S {
        &self.state
    }

    /// The transformed `send` (Listing 1, lines 1–5): execute locally, wrap
    /// the command with the local state digest and the last known peer state,
    /// and `auth_send` it.
    ///
    /// # Errors
    ///
    /// Propagates attestation and session errors.
    pub fn send(
        &mut self,
        cluster: &mut Cluster,
        command: &[u8],
    ) -> Result<WrappedMessage, CoreError> {
        let sender_output = self.state.execute(command);
        let wrapped = WrappedMessage {
            command: command.to_vec(),
            sender_output,
            sender_state: self.state.state_digest(),
            receiver_state: self.simulated_peer.state_digest(),
        };
        cluster.auth_send(self.node, self.peer, &wrapped.encode())?;
        Ok(wrapped)
    }

    /// The transformed `recv` (Listing 1, lines 7–13): the attestation was
    /// already checked by the TNIC verification path; this wrapper simulates
    /// the sender's execution, checks the claimed output and state, checks the
    /// system view, and only then applies the command locally.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TransformViolation`] if the sender's claimed
    /// output or state diverges from the deterministic specification, or if
    /// the sender's view of this receiver is stale.
    pub fn recv(&mut self, message: &AttestedMessage) -> Result<Vec<u8>, CoreError> {
        let wrapped = WrappedMessage::decode(&message.payload)?;
        // Simulate the sender's action on our copy of its state machine.
        let expected_output = self.simulated_peer.execute(&wrapped.command);
        if expected_output != wrapped.sender_output {
            return Err(CoreError::TransformViolation(
                "sender output diverges from deterministic specification",
            ));
        }
        if self.simulated_peer.state_digest() != wrapped.sender_state {
            return Err(CoreError::TransformViolation(
                "sender state digest does not match simulation",
            ));
        }
        // View check: the sender must have seen our current state.
        if wrapped.receiver_state != self.state.state_digest() {
            return Err(CoreError::TransformViolation(
                "sender operated on a stale view of the receiver",
            ));
        }
        // Apply the command to our own state machine.
        let output = self.state.execute(&wrapped.command);
        // After applying, both replicas are in the same state; keep the
        // simulated peer's view of us in sync for subsequent messages.
        Ok(output)
    }

    /// Records that the peer has applied our latest state (used by senders
    /// after receiving an acknowledgement so the view check stays in sync).
    pub fn observe_peer_caught_up(&mut self) {
        self.simulated_peer = self.state.clone();
    }

    /// The peer this wrapper talks to.
    #[must_use]
    pub fn peer(&self) -> NodeId {
        self.peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_net::stack::NetworkStackKind;
    use tnic_tee::profile::Baseline;

    fn two_node_setup() -> (
        Cluster,
        Transformed<CounterMachine>,
        Transformed<CounterMachine>,
    ) {
        let cluster = Cluster::fully_connected(2, Baseline::Tnic, NetworkStackKind::Tnic, 9);
        let sender = Transformed::new(NodeId(0), NodeId(1), CounterMachine::new());
        let receiver = Transformed::new(NodeId(1), NodeId(0), CounterMachine::new());
        (cluster, sender, receiver)
    }

    #[test]
    fn honest_send_recv_keeps_replicas_in_sync() {
        let (mut cluster, mut sender, mut receiver) = two_node_setup();
        for i in 0..5u8 {
            sender.send(&mut cluster, &[i]).unwrap();
            let delivered = cluster.poll(NodeId(1)).unwrap();
            assert_eq!(delivered.len(), 1);
            receiver.recv(&delivered[0].message).unwrap();
            // The receiver replies / acknowledges out of band; the sender
            // learns the receiver caught up.
            sender.observe_peer_caught_up();
        }
        assert_eq!(sender.state().value(), 5);
        assert_eq!(receiver.state().value(), 5);
        assert_eq!(
            sender.state().state_digest(),
            receiver.state().state_digest()
        );
    }

    #[test]
    fn lying_about_output_is_detected() {
        let (mut cluster, sender, mut receiver) = two_node_setup();
        // The Byzantine sender executes correctly but claims a different output.
        let mut wrapped = WrappedMessage {
            command: b"incr".to_vec(),
            sender_output: b"forged output".to_vec(),
            sender_state: sender.state.state_digest(),
            receiver_state: receiver.state.state_digest(),
        };
        // Keep the digests self-consistent with an honest-looking state.
        let mut lying_state = sender.state.clone();
        let _ = lying_state.execute(b"incr");
        wrapped.sender_state = lying_state.state_digest();
        cluster
            .auth_send(NodeId(0), NodeId(1), &wrapped.encode())
            .unwrap();
        let delivered = cluster.poll(NodeId(1)).unwrap();
        let err = receiver.recv(&delivered[0].message).unwrap_err();
        assert!(matches!(err, CoreError::TransformViolation(_)));
    }

    #[test]
    fn lying_about_state_digest_is_detected() {
        let (mut cluster, sender, mut receiver) = two_node_setup();
        let mut honest = sender.state.clone();
        let output = honest.execute(b"cmd");
        let wrapped = WrappedMessage {
            command: b"cmd".to_vec(),
            sender_output: output,
            sender_state: [0xAB; 32],
            receiver_state: receiver.state.state_digest(),
        };
        cluster
            .auth_send(NodeId(0), NodeId(1), &wrapped.encode())
            .unwrap();
        let delivered = cluster.poll(NodeId(1)).unwrap();
        assert!(receiver.recv(&delivered[0].message).is_err());
    }

    #[test]
    fn stale_view_of_receiver_is_detected() {
        let (mut cluster, mut sender, mut receiver) = two_node_setup();
        // First exchange brings the receiver to state 1.
        sender.send(&mut cluster, b"a").unwrap();
        let d = cluster.poll(NodeId(1)).unwrap();
        receiver.recv(&d[0].message).unwrap();
        // Sender does NOT observe the catch-up and sends with a stale view.
        sender.send(&mut cluster, b"b").unwrap();
        let d = cluster.poll(NodeId(1)).unwrap();
        let err = receiver.recv(&d[0].message).unwrap_err();
        assert!(matches!(err, CoreError::TransformViolation(msg) if msg.contains("stale")));
    }

    #[test]
    fn wrapped_message_round_trip_and_malformed_rejection() {
        let w = WrappedMessage {
            command: b"put k v".to_vec(),
            sender_output: b"ok".to_vec(),
            sender_state: [1u8; 32],
            receiver_state: [2u8; 32],
        };
        let decoded = WrappedMessage::decode(&w.encode()).unwrap();
        assert_eq!(decoded, w);
        assert!(WrappedMessage::decode(&[1, 2, 3]).is_err());
        assert!(WrappedMessage::decode(&w.encode()[..10]).is_err());
    }

    #[test]
    fn counter_machine_is_deterministic() {
        let mut a = CounterMachine::new();
        let mut b = CounterMachine::new();
        for cmd in [b"x".as_slice(), b"y", b"z"] {
            assert_eq!(a.execute(cmd), b.execute(cmd));
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.value(), 3);
        assert_eq!(a.applied(), 3);
    }
}
