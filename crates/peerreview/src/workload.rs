//! The round-robin application workload schedule.
//!
//! `PeerReview::run_workload` sends it; anything that wants to compare
//! against that deployment (a bare-substrate twin, a benchmark) must drive
//! *identical* traffic — same payloads, same send/poll pattern — or the
//! comparison is meaningless, so the schedule and the payload are defined
//! here once.
//!
//! The schedule is a simple ring: message `k` goes from node `k mod n` to
//! node `k+1 mod n`, with the cursor persisting across calls so partial
//! rounds compose. Payloads are envelope-encoded `incr` commands, optionally
//! zero-padded for payload-size sweeps (the reference state machine accepts
//! arbitrary command bytes, folding them into its output).

use crate::wire::Envelope;
use tnic_core::api::NodeId;

/// The application command every workload message carries.
pub const APP_COMMAND: &[u8] = b"incr";

/// The `(from, to)` pair of the next scheduled message, advancing `cursor`.
///
/// # Panics
///
/// Panics if `nodes` is empty.
#[must_use]
pub fn next_pair(nodes: &[NodeId], cursor: &mut u64) -> (NodeId, NodeId) {
    let n = nodes.len() as u64;
    let from = nodes[(*cursor % n) as usize];
    let to = nodes[((*cursor + 1) % n) as usize];
    *cursor += 1;
    (from, to)
}

/// The envelope-encoded workload payload at the default command size.
#[must_use]
pub fn app_payload() -> Vec<u8> {
    app_payload_sized(APP_COMMAND.len())
}

/// The envelope-encoded workload payload with the command zero-padded to
/// `len` bytes (clamped to at least the bare command).
#[must_use]
pub fn app_payload_sized(len: usize) -> Vec<u8> {
    let mut command = APP_COMMAND.to_vec();
    command.resize(len.max(APP_COMMAND.len()), 0);
    Envelope::App(command).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_ring_with_persistent_cursor() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut cursor = 0;
        let first: Vec<(u32, u32)> = (0..5)
            .map(|_| {
                let (f, t) = next_pair(&nodes, &mut cursor);
                (f.0, t.0)
            })
            .collect();
        assert_eq!(first, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)]);
        assert_eq!(cursor, 5);
    }

    #[test]
    fn payload_padding_clamps_and_round_trips() {
        assert_eq!(app_payload(), app_payload_sized(0), "clamped to command");
        let padded = app_payload_sized(64);
        let Envelope::App(command) = Envelope::decode(&padded).unwrap() else {
            panic!("workload payload must be an App envelope");
        };
        assert_eq!(command.len(), 64);
        assert_eq!(&command[..4], APP_COMMAND);
    }
}
