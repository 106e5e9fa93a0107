//! The attestation kernel's counter store (paper §4.1).
//!
//! TNIC holds two counters per session: `send_cnts`, the timestamp assigned to
//! the next outgoing message, and `recv_cnts`, the next counter value expected
//! from the peer. Counters increase monotonically and deterministically after
//! every send and receive so that unique messages are bound to unique
//! counters — the mechanism behind non-equivocation: no message can be lost,
//! re-ordered or executed twice without the verifier noticing.

use crate::types::SessionId;
use std::collections::HashMap;

/// Monotonic send/receive counters per session.
#[derive(Debug, Clone, Default)]
pub struct CounterStore {
    send_cnts: HashMap<SessionId, u64>,
    recv_cnts: HashMap<SessionId, u64>,
}

impl CounterStore {
    /// Creates an empty counter store.
    #[must_use]
    pub fn new() -> Self {
        CounterStore::default()
    }

    /// Returns the counter to assign to the next outgoing message on
    /// `session` and advances the send counter (post-increment, as in
    /// Algorithm 1 line 2).
    pub fn next_send(&mut self, session: SessionId) -> u64 {
        let slot = self.send_cnts.entry(session).or_insert(0);
        let current = *slot;
        *slot += 1;
        current
    }

    /// The counter value expected on the next received message for `session`.
    #[must_use]
    pub fn expected_recv(&self, session: SessionId) -> u64 {
        *self.recv_cnts.get(&session).unwrap_or(&0)
    }

    /// Checks `received` against the expected receive counter; on match the
    /// counter advances and `true` is returned, otherwise state is unchanged
    /// (Algorithm 1 line 8).
    pub fn check_and_advance_recv(&mut self, session: SessionId, received: u64) -> bool {
        let slot = self.recv_cnts.entry(session).or_insert(0);
        if *slot == received {
            *slot += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_counters_are_monotonic_and_per_session() {
        let mut c = CounterStore::new();
        assert_eq!(c.next_send(SessionId(1)), 0);
        assert_eq!(c.next_send(SessionId(1)), 1);
        assert_eq!(c.next_send(SessionId(2)), 0);
        assert_eq!(c.next_send(SessionId(1)), 2);
        assert_eq!(c.next_send(SessionId(2)), 1);
    }

    #[test]
    fn recv_counter_enforces_fifo() {
        let mut c = CounterStore::new();
        let s = SessionId(3);
        assert_eq!(c.expected_recv(s), 0);
        assert!(c.check_and_advance_recv(s, 0));
        assert!(!c.check_and_advance_recv(s, 0), "replay must be rejected");
        assert!(!c.check_and_advance_recv(s, 2), "gap must be rejected");
        assert!(c.check_and_advance_recv(s, 1));
        assert_eq!(c.expected_recv(s), 2);
    }

    #[test]
    fn failed_check_does_not_advance() {
        let mut c = CounterStore::new();
        let s = SessionId(4);
        assert!(!c.check_and_advance_recv(s, 7));
        assert_eq!(c.expected_recv(s), 0);
    }
}
