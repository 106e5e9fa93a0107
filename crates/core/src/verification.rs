//! Executable verification of the TNIC security lemmas (paper §4.4).
//!
//! The paper proves its protocols with the Tamarin prover over a symbolic
//! model. Tamarin is not available here, so this module provides the runtime
//! counterpart: protocol executions emit *action facts* (the same facts the
//! Tamarin model uses — attestation completion, message send, message
//! accept), and a [`LemmaMonitor`] decides the paper's lemmas as each fact
//! arrives:
//!
//! 1. **Remote attestation** (Eq. 1): whenever the IP vendor finishes
//!    attesting a device, the device finished its part earlier.
//! 2. **Transferable authentication** (Eq. 2): every accepted message was
//!    previously sent by an authentic endpoint.
//! 3. **Non-equivocation** (Eq. 3–5): no accepted message skips earlier sent
//!    messages, no reordering, no duplicate acceptance.
//!
//! Honest executions must satisfy every lemma; adversarial executions
//! (tampering, replay, equivocation) must either satisfy them or have the
//! offending message rejected before it is ever *accepted* — which is
//! exactly what the monitor validates.
//!
//! # State
//!
//! The monitor is online: one fact costs O(1) map operations, and its state
//! is O(sessions + messages in flight), not O(facts).
//! - Lemma 1: the set of device-attested `(device, connection)` pairs.
//! - Lemma 3: per `(receiver, session, sender)`, the next counter it must
//!   accept. An acceptance below it is a duplicate, above it a gap or a
//!   reorder.
//! - Lemma 2: per `(sender, session, counter)`, a copy of the payload of
//!   each message in flight, until the forget rule below drops it. An
//!   acceptance is compared with it byte for byte, which costs less than
//!   hashing the payload on both sides.
//!
//! # The forget rule, and why it is sound
//!
//! A message is forgotten once **every holder of its session's key other
//! than the sender** has accepted past its counter. A pairwise session has
//! two holders; others are declared when they are keyed
//! ([`LemmaMonitor::keyed`]), so a multicast leg or a forwarded delivery to
//! a member that has not accepted yet still finds the payload, and a
//! node-local message (no other holder) is never held.
//!
//! Forgetting loses nothing. Accepting a message means verifying the
//! session's MAC, which only a key holder can do, and after the rule fires
//! every holder's lemma-3 counter is past the forgotten one. Any later
//! acceptance of it is therefore a duplicate, which lemma 3 flags on that
//! very fact. A bounded ring would be unsound instead: it drops messages by
//! age, so an acceptance still owed to some holder would read as a forgery.
//! In a run that already violates lemma 3 with a gap, the skipped counters
//! are never forgotten; the state grows only in runs already reported.
//!
//! # Where facts come from
//!
//! The remote-attestation protocol ([`crate::attestation`]) feeds the
//! monitor its caller passes. A [`Cluster`](crate::Cluster) feeds one only
//! after [`Cluster::monitor_lemmas`](crate::Cluster::monitor_lemmas), which
//! is refused once a message has been attested, so a monitor never decides
//! on a partial stream; [`Cluster::lemmas`](crate::Cluster::lemmas) is
//! `None` on a cluster that was never asked. No cluster runs remote
//! attestation (its sessions are keyed directly), so runs check lemmas 2 and
//! 3; lemma 1 is checked by the tests of [`crate::attestation`]. Every
//! fact's kind, parties and counter (and a sent payload's length) are also
//! folded, in order, into one running SHA-256
//! ([`LemmaMonitor::trace_hash`]): two runs with the same hash observed the
//! same messages in the same order.

use std::collections::{HashMap, HashSet};
use tnic_crypto::sha256::Sha256;
use tnic_device::types::{DeviceId, SessionId};

/// Violation lines a monitor keeps; later violations are not recorded.
const REPORTED: usize = 8;

/// An action fact emitted during protocol execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionFact<'a> {
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
        /// The attested payload.
        payload: &'a [u8],
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
        /// The accepted payload.
        payload: &'a [u8],
    },
}

/// The online §4.4 lemma monitor (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct LemmaMonitor {
    /// Lemma 1: device-side attestations completed.
    device_attested: HashSet<(DeviceId, u64)>,
    /// Key holders per declared session.
    holders: HashMap<SessionId, u32>,
    /// Lemma 3: the next counter each `(receiver, session, sender)` accepts.
    next: HashMap<(DeviceId, SessionId, DeviceId), u64>,
    /// Lemma 2: `(sender, session, counter)` → the payload sent and the
    /// number of other holders yet to accept it.
    in_flight: HashMap<(DeviceId, SessionId, u64), (Vec<u8>, u32)>,
    /// Payload buffers of forgotten messages, for later sends to reuse.
    spare: Vec<Vec<u8>>,
    /// The first [`REPORTED`] violations.
    violations: Vec<String>,
    hash: Sha256,
}

impl LemmaMonitor {
    /// Declares that `holders` devices (the sender among them) hold the key
    /// of `session`. A session never declared has two holders, as every
    /// pairwise session does; keeping those out of the table keeps a send's
    /// lookup in a small, cache-resident map.
    pub fn keyed(&mut self, session: SessionId, holders: u32) {
        self.holders.insert(session, holders);
    }

    /// Decides every lemma the fact bears on.
    pub fn observe(&mut self, fact: ActionFact<'_>) {
        match fact {
            ActionFact::DeviceAttested { device, connection } => {
                self.fold([0, device.0, 0, 0], connection);
                self.device_attested.insert((device, connection));
            }
            ActionFact::VendorAttested { device, connection } => {
                self.fold([1, device.0, 0, 0], connection);
                if !self.device_attested.contains(&(device, connection)) {
                    self.violate(format!(
                        "remote attestation: vendor attested {device} (connection {connection}) \
                         without a prior device-side attestation"
                    ));
                }
            }
            ActionFact::Sent {
                endpoint,
                session,
                counter,
                payload,
            } => {
                self.fold([2, endpoint.0, session.0, payload.len() as u32], counter);
                let others = self
                    .holders
                    .get(&session)
                    .map_or(1, |h| h.saturating_sub(1));
                if others > 0 {
                    let mut copy = self.spare.pop().unwrap_or_default();
                    copy.clear();
                    copy.extend_from_slice(payload);
                    self.in_flight
                        .insert((endpoint, session, counter), (copy, others));
                }
            }
            ActionFact::Accepted {
                endpoint,
                session,
                sender,
                counter,
                payload,
            } => {
                self.fold([3, endpoint.0, session.0, sender.0], counter);
                // Lemmas (3)-(5): counters accepted in order from 0, once.
                let next = self.next.entry((endpoint, session, sender)).or_insert(0);
                let expected = *next;
                *next = expected.max(counter + 1);
                let duplicate = counter < expected;
                if duplicate {
                    self.violate(format!(
                        "non-equivocation: {endpoint} accepted counter {counter} on {session} twice"
                    ));
                } else if counter > expected {
                    self.violate(format!(
                        "non-equivocation: {endpoint} accepted counter {counter} on {session} \
                         while messages {expected}..{counter} were never accepted (loss/reorder)"
                    ));
                }
                // Lemma (2), then the forget rule. A forgotten message is
                // accepted again only as a duplicate, flagged just above.
                let key = (sender, session, counter);
                match self.in_flight.get_mut(&key) {
                    Some((sent, _)) if sent.as_slice() != payload => self.violate(format!(
                        "transferable authentication: {endpoint} accepted counter {counter} on \
                         {session} from {sender} with a payload {sender} never sent"
                    )),
                    Some((_, owed)) if !duplicate && endpoint != sender => {
                        *owed -= 1;
                        if *owed == 0 {
                            let (copy, _) = self.in_flight.remove(&key).expect("held");
                            self.spare.push(copy);
                        }
                    }
                    None if !duplicate => self.violate(format!(
                        "transferable authentication: accepted counter {counter} on {session} \
                         claiming sender {sender} was never sent by it"
                    )),
                    _ => {}
                }
            }
        }
    }

    /// Folds a fact's kind, parties and counter into the trace hash. A
    /// payload enters by its length only, which keeps the hash off the
    /// per-byte path.
    fn fold(&mut self, words: [u32; 4], counter: u64) {
        let mut bytes = [0u8; 24];
        for (chunk, word) in bytes.chunks_exact_mut(4).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        bytes[16..].copy_from_slice(&counter.to_le_bytes());
        self.hash.update(&bytes);
    }

    fn violate(&mut self, line: String) {
        if self.violations.len() < REPORTED {
            self.violations.push(line);
        }
    }

    /// The first violations observed, one line each, in order; empty while
    /// every lemma holds.
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Sent messages whose payload is still held: some other key holder has
    /// not accepted them yet. 0 at quiescence.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// `(receiver, session, sender)` links with an accepted message.
    #[must_use]
    pub fn links(&self) -> usize {
        self.next.len()
    }

    /// SHA-256 over the kind, parties and counter of every fact observed so
    /// far (a sent payload by its length), in order.
    #[must_use]
    pub fn trace_hash(&self) -> [u8; 32] {
        self.hash.clone().finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-byte payload reading `tag`.
    fn body(tag: u8) -> &'static [u8] {
        static BODIES: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
        &BODIES[usize::from(tag)..=usize::from(tag)]
    }

    fn sent(counter: u64, tag: u8) -> ActionFact<'static> {
        ActionFact::Sent {
            endpoint: DeviceId(1),
            session: SessionId(1),
            counter,
            payload: body(tag),
        }
    }

    fn accepted(counter: u64, tag: u8) -> ActionFact<'static> {
        ActionFact::Accepted {
            endpoint: DeviceId(2),
            session: SessionId(1),
            sender: DeviceId(1),
            counter,
            payload: body(tag),
        }
    }

    /// A monitor over session 1, keyed to devices 1 and 2.
    fn monitor() -> LemmaMonitor {
        let mut monitor = LemmaMonitor::default();
        monitor.keyed(SessionId(1), 2);
        monitor
    }

    fn honest_trace() -> LemmaMonitor {
        let mut monitor = monitor();
        monitor.observe(ActionFact::DeviceAttested {
            device: DeviceId(1),
            connection: 7,
        });
        monitor.observe(ActionFact::VendorAttested {
            device: DeviceId(1),
            connection: 7,
        });
        for counter in 0..3u64 {
            monitor.observe(sent(counter, counter as u8));
            monitor.observe(accepted(counter, counter as u8));
        }
        monitor
    }

    fn flagged(monitor: &LemmaMonitor, what: &str) -> bool {
        monitor.violations().iter().any(|v| v.contains(what))
    }

    #[test]
    fn honest_trace_satisfies_all_lemmas() {
        let monitor = honest_trace();
        assert!(
            monitor.violations().is_empty(),
            "{:?}",
            monitor.violations()
        );
        assert_eq!((monitor.in_flight(), monitor.links()), (0, 1));
    }

    #[test]
    fn vendor_attestation_without_device_is_flagged() {
        let mut monitor = LemmaMonitor::default();
        monitor.observe(ActionFact::VendorAttested {
            device: DeviceId(1),
            connection: 1,
        });
        assert!(monitor.violations()[0].contains("remote attestation"));
    }

    #[test]
    fn forged_acceptance_is_flagged() {
        let mut monitor = monitor();
        monitor.observe(accepted(0, 9));
        assert!(flagged(&monitor, "transferable authentication"));
    }

    #[test]
    fn equivocation_different_payload_same_counter_is_flagged() {
        let mut monitor = honest_trace();
        // The sender "sent" counter 3 with one payload but the receiver
        // accepted a different payload under that counter.
        monitor.observe(sent(3, 10));
        monitor.observe(accepted(3, 11));
        assert_eq!(monitor.violations().len(), 1);
        assert!(flagged(&monitor, "transferable authentication"));
    }

    #[test]
    fn double_acceptance_is_flagged() {
        let mut monitor = honest_trace();
        monitor.observe(accepted(0, 0));
        assert!(flagged(&monitor, "twice"));
        assert_eq!(
            monitor.violations().len(),
            1,
            "a forgotten duplicate is no forgery"
        );
    }

    #[test]
    fn gap_in_accepted_counters_is_flagged() {
        let mut monitor = monitor();
        for counter in [0u64, 2] {
            monitor.observe(sent(counter, counter as u8));
            monitor.observe(accepted(counter, counter as u8));
        }
        assert!(flagged(&monitor, "never accepted"));
    }

    #[test]
    fn empty_trace_trivially_holds() {
        let monitor = LemmaMonitor::default();
        assert!(monitor.violations().is_empty());
        assert_eq!(monitor.links(), 0);
        assert_ne!(monitor.trace_hash(), honest_trace().trace_hash());
    }

    #[test]
    fn a_payload_is_kept_until_every_other_holder_accepted_it() {
        // A group of three: device 1 sends, devices 2 and 3 accept.
        let mut monitor = LemmaMonitor::default();
        monitor.keyed(SessionId(1), 3);
        monitor.observe(sent(0, 0));
        monitor.observe(accepted(0, 0));
        assert_eq!(monitor.in_flight(), 1, "device 3 has yet to accept");
        let late = |tag| ActionFact::Accepted {
            endpoint: DeviceId(3),
            session: SessionId(1),
            sender: DeviceId(1),
            counter: 0,
            payload: body(tag),
        };
        let mut forged = monitor.clone();
        forged.observe(late(5));
        assert!(flagged(&forged, "never sent"));
        monitor.observe(late(0));
        assert!(
            monitor.violations().is_empty(),
            "{:?}",
            monitor.violations()
        );
        assert_eq!(monitor.in_flight(), 0);
        // A node-local session has no other holder: nothing is kept.
        monitor.keyed(SessionId(2), 1);
        monitor.observe(ActionFact::Sent {
            endpoint: DeviceId(1),
            session: SessionId(2),
            counter: 0,
            payload: body(0),
        });
        assert_eq!(monitor.in_flight(), 0);
    }

    #[test]
    fn only_the_first_violations_are_kept() {
        let mut monitor = monitor();
        for _ in 0..3 * REPORTED {
            monitor.observe(accepted(0, 0));
        }
        assert_eq!(monitor.violations().len(), REPORTED);
    }
}
