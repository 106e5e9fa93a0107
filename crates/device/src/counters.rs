//! A session's counters in the attestation kernel (paper §4.1).
//!
//! TNIC holds two counters per session: `send_cnts`, the timestamp assigned to
//! the next outgoing message, and `recv_cnts`, the next counter value expected
//! from the peer. Counters increase monotonically and deterministically after
//! every send and receive so that unique messages are bound to unique
//! counters — the mechanism behind non-equivocation: no message can be lost,
//! re-ordered or executed twice without the verifier noticing. Each session
//! record in the keystore holds one [`Counters`] beside its key.

/// One session's monotonic send and receive counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    send_cnt: u64,
    recv_cnt: u64,
}

impl Counters {
    /// Returns the counter to assign to the next outgoing message and
    /// advances the send counter (post-increment, as in Algorithm 1 line 2).
    pub(crate) fn next_send(&mut self) -> u64 {
        let current = self.send_cnt;
        self.send_cnt += 1;
        current
    }

    /// The counter the next outgoing message will be assigned.
    #[cfg(test)]
    pub(crate) fn send(&self) -> u64 {
        self.send_cnt
    }

    /// The counter value expected on the next received message.
    pub(crate) fn expected_recv(&self) -> u64 {
        self.recv_cnt
    }

    /// Checks `received` against the expected receive counter; on match the
    /// counter advances and `true` is returned, otherwise state is unchanged
    /// (Algorithm 1 line 8).
    pub(crate) fn check_and_advance_recv(&mut self, received: u64) -> bool {
        if self.recv_cnt == received {
            self.recv_cnt += 1;
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
    fn recv_counter_enforces_fifo() {
        let mut c = Counters::default();
        assert_eq!(c.expected_recv(), 0);
        assert!(c.check_and_advance_recv(0));
        assert!(!c.check_and_advance_recv(0), "replay must be rejected");
        assert!(!c.check_and_advance_recv(2), "gap must be rejected");
        assert!(c.check_and_advance_recv(1));
        assert_eq!(c.expected_recv(), 2);
        assert_eq!(c.send(), 0, "receiving never moves the send counter");
    }

    #[test]
    fn failed_check_does_not_advance() {
        let mut c = Counters::default();
        assert!(!c.check_and_advance_recv(7));
        assert_eq!(c.expected_recv(), 0);
        assert_eq!(c.next_send(), 0);
        assert!(!c.check_and_advance_recv(1));
        assert_eq!(c.expected_recv(), 0);
        assert_eq!(c.send(), 1);
    }
}
