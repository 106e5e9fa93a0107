//! Executable verification of the TNIC security lemmas (paper §4.4).
//!
//! The paper proves its protocols with the Tamarin prover over a symbolic
//! model. Tamarin is not available here, so this module provides the runtime
//! counterpart: protocol executions record *action facts* (the same facts the
//! Tamarin model uses — attestation completion, message send, message accept)
//! into a [`TraceLog`], and [`TraceChecker`] checks the paper's lemmas over
//! the recorded trace:
//!
//! 1. **Remote attestation** (Eq. 1): whenever the IP vendor finishes
//!    attesting a device, the device finished its part earlier.
//! 2. **Transferable authentication** (Eq. 2): every accepted message was
//!    previously sent by an authentic endpoint.
//! 3. **Non-equivocation** (Eq. 3–5): no accepted message skips earlier sent
//!    messages, no reordering, no duplicate acceptance.
//!
//! Honest executions must satisfy every lemma; adversarial executions (tests
//! inject tampering, replay and equivocation) must either satisfy them or have
//! the offending message rejected before it is ever *accepted* — which is
//! exactly what the checker validates.
//!
//! # When facts are recorded
//!
//! The remote-attestation protocol ([`crate::attestation`]) always records
//! into the [`TraceLog`] its caller passes. A [`Cluster`](crate::Cluster)
//! records nothing until a test calls
//! [`Cluster::record_facts`](crate::Cluster::record_facts) — before the first
//! send, for the life of the cluster — because a `Sent` / `Accepted` pair
//! costs two SHA-256 passes over the payload and 128 B that stay allocated,
//! and nothing but a lemma check ever reads them.
//! [`Cluster::trace`](crate::Cluster::trace) is `None` on a cluster that was
//! never asked, so a check cannot hold by finding no facts; a test that
//! checks the lemmas also compares [`VerificationReport::sends`] /
//! [`VerificationReport::accepts`] with the cluster's own message count.
//!
//! The log keeps every fact. A bounded ring would be unsound, not merely
//! lossy: lemma (2) looks for the `Sent` fact behind each `Accepted` one, and
//! an acceptance whose send had wrapped away is indistinguishable from a
//! forgery.

use tnic_device::types::{DeviceId, SessionId};
use tnic_sim::time::SimInstant;

/// An action fact recorded during protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionFact {
    /// A device finished the remote-attestation protocol (`D_tnic(c)`).
    DeviceAttested {
        /// The attested device.
        device: DeviceId,
        /// Connection/configuration identifier.
        connection: u64,
    },
    /// The IP vendor finished attesting a device (`D_ipv(c)`).
    VendorAttested {
        /// The attested device.
        device: DeviceId,
        /// Connection/configuration identifier.
        connection: u64,
    },
    /// An endpoint sent message `counter` on `session` (`S_e(m)`).
    Sent {
        /// The sending endpoint.
        endpoint: DeviceId,
        /// The session the message belongs to.
        session: SessionId,
        /// The attestation counter bound to the message.
        counter: u64,
        /// Digest of the payload (for equivocation detection).
        digest: [u8; 32],
    },
    /// An endpoint accepted (verified and delivered) a message (`A_e(m)`).
    Accepted {
        /// The accepting endpoint.
        endpoint: DeviceId,
        /// The session the message belongs to.
        session: SessionId,
        /// The sender whose attestation was verified.
        sender: DeviceId,
        /// The attestation counter bound to the message.
        counter: u64,
        /// Digest of the payload.
        digest: [u8; 32],
    },
}

/// A timestamped trace of action facts.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<(SimInstant, ActionFact)>,
}

impl TraceLog {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        TraceLog { events: Vec::new() }
    }

    /// Appends a fact observed at `at`.
    pub fn record(&mut self, at: SimInstant, fact: ActionFact) {
        self.events.push((at, fact));
    }

    /// All recorded events in recording order.
    #[must_use]
    pub fn events(&self) -> &[(SimInstant, ActionFact)] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Result of checking all lemmas over a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// Violations found, one human-readable line each. Empty means all lemmas
    /// hold.
    pub violations: Vec<String>,
    /// Number of send facts examined.
    pub sends: usize,
    /// Number of accept facts examined.
    pub accepts: usize,
}

impl VerificationReport {
    /// Returns `true` when every lemma holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The lemma checker.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceChecker;

impl TraceChecker {
    /// Checks all lemmas over `trace`.
    #[must_use]
    pub fn check(trace: &TraceLog) -> VerificationReport {
        let mut violations = Vec::new();
        violations.extend(Self::check_remote_attestation(trace));
        violations.extend(Self::check_transferable_authentication(trace));
        violations.extend(Self::check_non_equivocation(trace));
        let sends = trace
            .events()
            .iter()
            .filter(|(_, f)| matches!(f, ActionFact::Sent { .. }))
            .count();
        let accepts = trace
            .events()
            .iter()
            .filter(|(_, f)| matches!(f, ActionFact::Accepted { .. }))
            .count();
        VerificationReport {
            violations,
            sends,
            accepts,
        }
    }

    /// Lemma (1): `D_ipv(c) @ ti ⇒ ∃ tj < ti. D_tnic(c) @ tj`.
    fn check_remote_attestation(trace: &TraceLog) -> Vec<String> {
        let mut violations = Vec::new();
        for (i, (at, fact)) in trace.events().iter().enumerate() {
            if let ActionFact::VendorAttested { device, connection } = fact {
                let preceded = trace.events()[..i].iter().any(|(tj, f)| {
                    tj <= at
                        && matches!(f, ActionFact::DeviceAttested { device: d, connection: c }
                            if d == device && c == connection)
                });
                if !preceded {
                    violations.push(format!(
                        "remote attestation: vendor attested {device} (connection {connection}) \
                         without a prior device-side attestation"
                    ));
                }
            }
        }
        violations
    }

    /// Lemma (2): every accepted message was sent before by some endpoint,
    /// with the same session, counter and payload digest.
    fn check_transferable_authentication(trace: &TraceLog) -> Vec<String> {
        let mut violations = Vec::new();
        for (i, (at, fact)) in trace.events().iter().enumerate() {
            if let ActionFact::Accepted {
                session,
                sender,
                counter,
                digest,
                ..
            } = fact
            {
                let matched = trace.events()[..i].iter().any(|(tj, f)| {
                    tj <= at
                        && matches!(f, ActionFact::Sent { endpoint, session: s, counter: c, digest: d }
                            if endpoint == sender && s == session && c == counter && d == digest)
                });
                if !matched {
                    violations.push(format!(
                        "transferable authentication: accepted counter {counter} on {session} \
                         claiming sender {sender} was never sent by it"
                    ));
                }
            }
        }
        violations
    }

    /// Lemmas (3)–(5): per (receiver, session, sender): counters are accepted
    /// in exactly increasing order starting from 0 with no gaps (no lost
    /// messages, no reordering) and no counter is accepted twice.
    fn check_non_equivocation(trace: &TraceLog) -> Vec<String> {
        use std::collections::HashMap;
        let mut violations = Vec::new();
        let mut next_expected: HashMap<(DeviceId, SessionId, DeviceId), u64> = HashMap::new();
        for (_, fact) in trace.events() {
            if let ActionFact::Accepted {
                endpoint,
                session,
                sender,
                counter,
                ..
            } = fact
            {
                let key = (*endpoint, *session, *sender);
                let expected = next_expected.entry(key).or_insert(0);
                if *counter < *expected {
                    violations.push(format!(
                        "non-equivocation: {endpoint} accepted counter {counter} on {session} twice"
                    ));
                } else if *counter > *expected {
                    violations.push(format!(
                        "non-equivocation: {endpoint} accepted counter {counter} on {session} \
                         while messages {expected}..{counter} were never accepted (loss/reorder)"
                    ));
                    *expected = counter + 1;
                } else {
                    *expected += 1;
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(tag: u8) -> [u8; 32] {
        [tag; 32]
    }

    fn t(us: u64) -> SimInstant {
        SimInstant::from_nanos(us * 1_000)
    }

    fn honest_trace() -> TraceLog {
        let mut log = TraceLog::new();
        log.record(
            t(0),
            ActionFact::DeviceAttested {
                device: DeviceId(1),
                connection: 7,
            },
        );
        log.record(
            t(1),
            ActionFact::VendorAttested {
                device: DeviceId(1),
                connection: 7,
            },
        );
        for counter in 0..3u64 {
            log.record(
                t(10 + counter),
                ActionFact::Sent {
                    endpoint: DeviceId(1),
                    session: SessionId(1),
                    counter,
                    digest: digest(counter as u8),
                },
            );
            log.record(
                t(20 + counter),
                ActionFact::Accepted {
                    endpoint: DeviceId(2),
                    session: SessionId(1),
                    sender: DeviceId(1),
                    counter,
                    digest: digest(counter as u8),
                },
            );
        }
        log
    }

    #[test]
    fn honest_trace_satisfies_all_lemmas() {
        let report = TraceChecker::check(&honest_trace());
        assert!(report.holds(), "{:?}", report.violations);
        assert_eq!(report.sends, 3);
        assert_eq!(report.accepts, 3);
    }

    #[test]
    fn vendor_attestation_without_device_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(0),
            ActionFact::VendorAttested {
                device: DeviceId(1),
                connection: 1,
            },
        );
        let report = TraceChecker::check(&log);
        assert!(!report.holds());
        assert!(report.violations[0].contains("remote attestation"));
    }

    #[test]
    fn forged_acceptance_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(5),
            ActionFact::Accepted {
                endpoint: DeviceId(2),
                session: SessionId(1),
                sender: DeviceId(1),
                counter: 0,
                digest: digest(9),
            },
        );
        let report = TraceChecker::check(&log);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("transferable authentication")));
    }

    #[test]
    fn equivocation_different_payload_same_counter_is_flagged() {
        let mut log = honest_trace();
        // The sender "sent" counter 3 with one payload but the receiver
        // accepted a different payload under that counter.
        log.record(
            t(40),
            ActionFact::Sent {
                endpoint: DeviceId(1),
                session: SessionId(1),
                counter: 3,
                digest: digest(10),
            },
        );
        log.record(
            t(41),
            ActionFact::Accepted {
                endpoint: DeviceId(2),
                session: SessionId(1),
                sender: DeviceId(1),
                counter: 3,
                digest: digest(11),
            },
        );
        let report = TraceChecker::check(&log);
        assert!(!report.holds());
    }

    #[test]
    fn double_acceptance_is_flagged() {
        let mut log = honest_trace();
        log.record(
            t(50),
            ActionFact::Accepted {
                endpoint: DeviceId(2),
                session: SessionId(1),
                sender: DeviceId(1),
                counter: 0,
                digest: digest(0),
            },
        );
        let report = TraceChecker::check(&log);
        assert!(report.violations.iter().any(|v| v.contains("twice")));
    }

    #[test]
    fn gap_in_accepted_counters_is_flagged() {
        let mut log = TraceLog::new();
        for counter in [0u64, 2] {
            log.record(
                t(counter),
                ActionFact::Sent {
                    endpoint: DeviceId(1),
                    session: SessionId(1),
                    counter,
                    digest: digest(counter as u8),
                },
            );
            log.record(
                t(10 + counter),
                ActionFact::Accepted {
                    endpoint: DeviceId(2),
                    session: SessionId(1),
                    sender: DeviceId(1),
                    counter,
                    digest: digest(counter as u8),
                },
            );
        }
        let report = TraceChecker::check(&log);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("never accepted")));
    }

    #[test]
    fn empty_trace_trivially_holds() {
        let report = TraceChecker::check(&TraceLog::new());
        assert!(report.holds());
        assert!(TraceLog::new().is_empty());
    }
}
