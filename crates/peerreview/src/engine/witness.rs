//! The witness side: the handlers a node runs on commitments, challenges,
//! responses, evidence and membership envelopes.

use super::audit_round::Outbound;
use super::byzantine::Forwarding;
use super::*;
use crate::audit::commitments_conflict;
use crate::log::{AuthenticatorView, LogEntryView};
use crate::wire::ListView;
use tnic_device::attestation::AttestedView;

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// Witness side of a node's announcement of its own head: a joiner's
    /// first announcement ([`Envelope::Join`]) or a recovered node's
    /// re-announcement ([`Envelope::Recover`]). Only the node itself may
    /// announce its head (the attested channel guarantees origin); the
    /// commitment is then stored and gossiped like any other direct one.
    /// A joiner is audited from this base. An honest recovery extends the
    /// pre-crash chain and the next audit round resumes from the stalled
    /// prefix; a tampered one conflicts with a held commitment
    /// (equivocation, exposed on arrival) or fails the subsequent replay
    /// (exec divergence).
    pub(super) fn handle_own_announcement(
        &mut self,
        witness: u32,
        from: u32,
        auth: &AuthenticatorView<'_>,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        if auth.node != from {
            return; // nobody announces on another node's behalf
        }
        self.handle_commitment(witness, auth, true, outgoing);
    }

    /// Witness side of a departure: the leaver's final sealed commitment
    /// plus its unaudited log tail. The witness stores the commitment
    /// (conflict checks included), aligns the tail to its own audited
    /// prefix and closes the audit on the spot — an honest tail advances
    /// the audited prefix (clearing a transient suspicion), a tampered one
    /// convicts on the way out. A tail that cannot be aligned (e.g. the
    /// witness lags a pruned base) is skipped rather than guessed at: a
    /// correct node is never convicted on a replay the witness cannot
    /// ground.
    ///
    /// The tail is the received entries with `audited_seq <= seq < auth.seq`,
    /// in the order received, replayed in place.
    pub(super) fn handle_leave(
        &mut self,
        witness: u32,
        from: u32,
        auth: &AuthenticatorView<'_>,
        entries: ListView<'_, LogEntryView<'_>>,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        if auth.node != from {
            return; // only the leaver seals its own farewell
        }
        let node = auth.node;
        let seq = auth.seq;
        self.handle_commitment(witness, auth, true, outgoing);
        let ctx = self.trace_ctx(witness, node);
        let Some(pair) = self.pairs.get_mut(witness, node) else {
            return;
        };
        let record = &mut pair.record;
        if record.verdict != Verdict::Exposed && seq > record.audited_seq {
            let audited = record.audited_seq;
            let tail = entries
                .iter()
                .filter(move |e| e.seq >= audited && e.seq < seq);
            let aligned = tail.clone().next().is_some_and(|e| e.seq == audited)
                && tail.clone().count() as u64 == seq - audited;
            if aligned {
                record.trace = ctx;
                self.stats.leave_audits += 1;
                self.stats.audit_replays += 1;
                self.stats.entries_replayed += seq - audited;
                let _ = record.check_response(&(seq, auth.head), tail);
            }
        }
        pair.step(
            PairEvent::Farewell { seq },
            ctx.round,
            self.config.challenge_retries,
        );
    }

    /// Cryptographically verifies a TNIC seal on `verifier`'s kernel, under
    /// the log-session key of the node the seal's session names, if
    /// `verifier` holds that key. A seal on a session it does not hold (or
    /// on no log session at all) is refused before any cost is drawn.
    pub(super) fn attestation_verifies<'m>(
        &mut self,
        verifier: u32,
        attestation: impl Into<AttestedView<'m>>,
    ) -> bool {
        let attestation = attestation.into();
        let node = attestation.session.0.wrapping_sub(log_session(0).0);
        let member = &mut self.members[verifier as usize];
        if member.held.binary_search(&node).is_err() {
            return false;
        }
        match member
            .kernel
            .verify_binding_under(&self.log_keys[node as usize], &attestation)
        {
            Ok(cost) => {
                self.clock.advance(cost);
                true
            }
            Err(_) => false,
        }
    }

    /// Verifies a commitment's TNIC seal and structural claims.
    fn seal_verifies(&mut self, witness: u32, auth: &AuthenticatorView<'_>) -> bool {
        auth.consistent() && self.attestation_verifies(witness, auth.attestation)
    }

    /// Stores a commitment the witness verified, in its record's compact
    /// form, and forwards it: evidence on a conflict, and a relay of a
    /// directly received commitment to each fellow witness, made without
    /// the payload (see [`crate::log::CompactAuthenticator`]).
    pub(super) fn handle_commitment(
        &mut self,
        witness: u32,
        auth: &AuthenticatorView<'_>,
        direct: bool,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        let accused = auth.node;
        if !self.witnesses_of(accused).contains(&witness) || !self.seal_verifies(witness, auth) {
            return;
        }
        let ctx = self.trace_ctx(witness, accused);
        let record = &mut self
            .pairs
            .get_mut(witness, accused)
            .expect("pair exists")
            .record;
        record.trace = ctx;
        let conflict = record.store_commitment(auth);
        // Suppressed forwarding never affects the witness's own verdicts:
        // the suppressed messages are pure forwarding.
        let forwarding = self.forwarding(witness);
        if let Some(Misbehavior::ConflictingCommitments { a, b }) = conflict {
            // Evidence transfer: the pair convinces any correct third party.
            for &fellow in &self.members[accused as usize].witnesses {
                if fellow != witness && fellow != accused {
                    if forwarding == Forwarding::Nothing {
                        self.stats.gossip_withheld += 1;
                        continue;
                    }
                    self.stats.evidence_transfers += 1;
                    outgoing.push((
                        NodeId(witness),
                        NodeId(fellow),
                        Envelope::Evidence {
                            a: (*a).clone(),
                            b: (*b).clone(),
                        }
                        .into(),
                    ));
                }
            }
        }
        if direct {
            // Gossip the directly received commitment to fellow witnesses so
            // an equivocator cannot keep its witness set partitioned. In
            // piggyback mode the relay rides the witness's own outbound
            // traffic (or the next dedicated flush) instead of costing a
            // message now.
            let relay = auth.compact();
            for &fellow in &self.members[accused as usize].witnesses {
                if fellow != witness && fellow != accused {
                    match forwarding {
                        Forwarding::Nothing => self.stats.gossip_withheld += 1,
                        Forwarding::NoRelays => self.stats.relays_refused += 1,
                        Forwarding::All if self.config.piggyback => {
                            self.layer
                                .borrow_mut()
                                .enqueue_ride(witness, fellow, relay, true);
                        }
                        Forwarding::All => outgoing.push((
                            NodeId(witness),
                            NodeId(fellow),
                            Outbound::Gossip(relay),
                        )),
                    }
                }
            }
        }
    }

    pub(super) fn handle_challenge(
        &mut self,
        node: u32,
        witness: u32,
        from_seq: u64,
        upto_seq: u64,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        // Fault-free fast path mirroring `issue_challenges`: skip the
        // question (and its RNG draw) when the plan is empty.
        if !self.faults.is_all_correct() && !self.answers_challenge(node, upto_seq) {
            return; // the node stays silent
        }
        // A challenge below the pruned base cannot be answered with log
        // entries any more — the covered prefix is gone. In-sim no witness
        // normally challenges there (laggards fast-forward on the commit
        // certificate first), but a reordering transport can deliver the
        // challenge before the certificate; the honest answer is the
        // certificate itself, which the witness verifies (quorum of seals)
        // and fast-forwards from instead of suspecting.
        // `segment_checked` makes the clamp explicit: `SecureLog::segment`
        // would silently re-base the range and the response would start at
        // the wrong sequence.
        if self
            .layer
            .borrow()
            .segment_checked(node, from_seq, upto_seq)
            .is_err()
        {
            if let Some((mark, cosigs)) = &self.members[node as usize].certificate {
                if from_seq < mark.cut {
                    self.stats.certificate_responses += 1;
                    outgoing.push((
                        NodeId(node),
                        NodeId(witness),
                        Envelope::CheckpointCommit {
                            mark: mark.clone(),
                            cosigs: cosigs.clone(),
                        }
                        .into(),
                    ));
                    return;
                }
            }
        }
        // Defer the response body: the send path borrows the log segment
        // and encodes it straight into the reused wire buffer (and batches
        // consecutive responses to the same witness).
        outgoing.push((
            NodeId(node),
            NodeId(witness),
            Outbound::Segment { from_seq, upto_seq },
        ));
    }

    pub(super) fn handle_response<'e, I>(
        &mut self,
        witness: u32,
        node: u32,
        from_seq: u64,
        entries: I,
    ) where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: Into<LogEntryView<'e>>,
    {
        let entries = entries.into_iter();
        let ctx = self.trace_ctx(witness, node);
        let Some(pair) = self.pairs.get_mut(witness, node) else {
            return;
        };
        let PairAction::Replay { target, started } = pair.step(
            PairEvent::Answered { from_seq },
            ctx.round,
            self.config.challenge_retries,
        ) else {
            return;
        };
        self.stats.responses += 1;
        self.stats.audit_replays += 1;
        let replayed = entries.clone().count() as u64;
        self.stats.entries_replayed += replayed;
        pair.record.trace = ctx;
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Response,
            at_us: ctx.at_us,
            node: witness,
            peer: node,
            seq: target.0,
            round: ctx.round,
            aux: replayed
        );
        // The verdict transition happens inside the record; failures are
        // locally verified evidence, so no further transfer is needed —
        // every witness audits independently.
        let _ = pair.record.check_response(&target, entries);
        self.stats
            .audit_latency
            .record(self.clock.now().duration_since(started));
    }

    /// An evidence message is adopted only when it is independently
    /// verifiable (a genuinely conflicting, seal-valid commitment pair —
    /// see the [`crate::audit`] module docs for the full rules). Anything
    /// else is a fabricated accusation, and since the attested channel
    /// guarantees its origin, it convicts the *accuser* — never the
    /// accused.
    pub(super) fn handle_evidence(
        &mut self,
        witness: u32,
        from: u32,
        a: &AuthenticatorView<'_>,
        b: &AuthenticatorView<'_>,
    ) {
        let verifiable = commitments_conflict(a, b)
            && self.seal_verifies(witness, a)
            && self.seal_verifies(witness, b);
        let ctx = self.trace_ctx(witness, a.node);
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Evidence,
            at_us: ctx.at_us,
            node: witness,
            peer: from,
            seq: a.seq,
            round: ctx.round,
            aux: u64::from(!verifiable)
        );
        // An unverifiable accusation convicts the accuser, in the accuser's
        // own pair, once; a verifiable one the accused, once.
        if !verifiable {
            self.stats.evidence_rejected += 1;
            if from == witness || !self.witnesses_of(from).contains(&witness) {
                return;
            }
        }
        let node = if verifiable { a.node } else { from };
        let Some(pair) = self.pairs.get_mut(witness, node) else {
            return;
        };
        let held = |e: &Misbehavior| match e {
            Misbehavior::ConflictingCommitments { .. } => verifiable,
            Misbehavior::ForgedAccusation { .. } => !verifiable,
            _ => false,
        };
        if pair.record.evidence.iter().any(held) {
            return;
        }
        let evidence = if verifiable {
            Misbehavior::ConflictingCommitments {
                a: Box::new(a.to_owned()),
                b: Box::new(b.to_owned()),
            }
        } else {
            self.stats.accusations_turned += 1;
            Misbehavior::ForgedAccusation { accused: a.node }
        };
        pair.record.trace = TraceCtx { node, ..ctx };
        pair.record.convict(evidence);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{counter_deployment, engine_deployment, run_rounds, seal_of};
    use super::*;
    use crate::log::{Authenticator, LogEntry};
    use crate::wire::{EnvelopeView, PiggybackRider};

    /// What witness 0 concludes about node 1 after node 1's farewell carries
    /// `tail(honest)` in place of its honest unaudited tail: the verdict, the
    /// evidence and the audited prefix, beside the prefix audited before the
    /// farewell and the farewell's sequence number.
    fn farewell_outcome(
        tail: impl Fn(&[LogEntry]) -> Vec<LogEntry>,
    ) -> (Verdict, Vec<Misbehavior>, u64, u64, u64) {
        let (mut cluster, mut app, mut engine) = counter_deployment(FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 2);
        let audited = engine.pairs.get(0, 1).unwrap().record.audited_seq;
        let payload = crate::workload::app_payload_sized(0);
        for i in 0..6u32 {
            let (from, to) = if i % 2 == 0 { (0, 1) } else { (1, 2) };
            cluster
                .auth_send(NodeId(from), NodeId(to), &payload)
                .unwrap();
            engine.poll(&mut cluster, &mut app, NodeId(to)).unwrap();
        }
        let (seq, head) = engine.layer.borrow().commitment_data(1);
        assert!(seq >= audited + 4, "the farewell has a tail to replay");
        let (auth, _) = engine.layer.borrow_mut().seal(1, seq, head);
        let honest = engine.layer.borrow().segment_ref(1, 0, seq).to_vec();
        let leave = Envelope::Leave {
            auth,
            entries: tail(&honest),
        };
        cluster
            .auth_send(NodeId(1), NodeId(0), &leave.encode())
            .unwrap();
        engine.poll(&mut cluster, &mut app, NodeId(0)).unwrap();
        let record = &engine.pairs.get(0, 1).unwrap().record;
        (
            record.verdict,
            record.evidence.clone(),
            record.audited_seq,
            audited,
            seq,
        )
    }

    /// A farewell tail is the entries from the witness's audited prefix up to
    /// the farewell commitment, picked out of whatever the leaver sent in the
    /// order sent: entries outside that range are ignored, a tail that does
    /// not start at the prefix or holds the wrong number of entries is not
    /// replayed, and a repeated or missing sequence number inside a tail of
    /// the right length breaks the chain at that position.
    #[test]
    fn hostile_farewell_tails_keep_their_verdicts() {
        // The honest tail closes the audit at the farewell.
        let (verdict, evidence, after, audited, seq) = farewell_outcome(|honest| honest.to_vec());
        assert_eq!((verdict, after), (Verdict::Trusted, seq));
        assert!(evidence.is_empty());
        let at = audited as usize;

        // Out-of-range entries around and inside the tail are filtered away.
        let (verdict, evidence, after, ..) = farewell_outcome(|honest| {
            let mut tail = honest.to_vec();
            let mut beyond = honest[at].clone();
            beyond.seq = honest.len() as u64 + 3;
            tail.insert(at + 2, honest[at - 1].clone());
            tail.push(beyond);
            tail
        });
        assert_eq!((verdict, after), (Verdict::Trusted, seq));
        assert!(evidence.is_empty());

        // One entry repeated in place of its successor: the right length, so
        // it is replayed, and the chain breaks at the replaced position.
        let (verdict, evidence, after, ..) = farewell_outcome(|honest| {
            let mut tail = honest.to_vec();
            tail[at + 1] = honest[at].clone();
            tail
        });
        assert_eq!((verdict, after), (Verdict::Exposed, audited));
        assert_eq!(
            evidence,
            [Misbehavior::BrokenChain {
                at_seq: audited + 1
            }]
        );

        // A repeated entry beside the full tail: one entry too many, skipped.
        let (verdict, evidence, after, ..) = farewell_outcome(|honest| {
            let mut tail = honest.to_vec();
            tail.insert(at + 1, honest[at].clone());
            tail
        });
        assert_eq!((verdict, after), (Verdict::Trusted, audited));
        assert!(evidence.is_empty());

        // Two in-range entries swapped: the right length, out of order.
        let (verdict, evidence, after, ..) = farewell_outcome(|honest| {
            let mut tail = honest.to_vec();
            tail.swap(at + 1, at + 2);
            tail
        });
        assert_eq!((verdict, after), (Verdict::Exposed, audited));
        assert_eq!(
            evidence,
            [Misbehavior::BrokenChain {
                at_seq: audited + 1
            }]
        );

        // A tail that does not start at the audited prefix is skipped.
        let (verdict, evidence, after, ..) = farewell_outcome(|honest| {
            let mut tail = honest.to_vec();
            tail.swap(at, at + 1);
            tail
        });
        assert_eq!((verdict, after), (Verdict::Trusted, audited));
        assert!(evidence.is_empty());

        // A tail missing its last entry is one short: skipped.
        let (verdict, evidence, after, ..) = farewell_outcome(|honest| {
            let mut tail = honest.to_vec();
            tail.pop();
            tail
        });
        assert_eq!((verdict, after), (Verdict::Trusted, audited));
        assert!(evidence.is_empty());
    }

    /// A witness relays a directly received commitment to each fellow witness
    /// without its payload, and the relay re-encodes to the commitment's own
    /// bytes: queued for a ride in piggyback mode, sent as gossip in dedicated
    /// mode. A commitment sealed on a foreign device is not relayed at all.
    #[test]
    fn relayed_commitments_reach_fellow_witnesses_byte_identical() {
        for piggyback in [false, true] {
            let config = EngineConfig {
                piggyback,
                ..EngineConfig::default()
            };
            let (mut cluster, mut app, mut engine) =
                engine_deployment(config, FaultPlan::all_correct());
            run_rounds(&mut cluster, &mut app, &mut engine, 1);
            engine.layer.borrow_mut().drain_pending();
            let auth = seal_of(&engine, 1);
            let sent = Envelope::Announce(auth.clone()).encode();
            let mut outgoing = Vec::new();
            engine.handle_envelope(
                &mut app,
                NodeId(0),
                1,
                EnvelopeView::parse(&sent).unwrap(),
                &mut outgoing,
            );
            let mut relays: Vec<(u32, Vec<u8>)> = Vec::new();
            let mut wire = Vec::new();
            for ((from, to), ride) in engine.layer.borrow_mut().drain_pending() {
                assert_eq!(from, 0);
                Envelope::encode_rides_into(&mut wire, &[ride]);
                relays.push((to, wire.clone()));
            }
            for (from, to, out) in &outgoing {
                assert_eq!(*from, NodeId(0));
                let Outbound::Gossip(relay) = out else {
                    panic!("a direct commitment is relayed as gossip");
                };
                let ride = PiggybackRider {
                    auth: *relay,
                    gossip: true,
                };
                Envelope::encode_rides_into(&mut wire, &[ride]);
                relays.push((to.0, wire.clone()));
            }
            let gossip = Envelope::Gossip(auth.clone()).encode();
            assert_eq!(relays, [(2, gossip.clone()), (3, gossip)], "{piggyback}");

            // The same commitment sealed by node 2's device in node 1's name
            // fails its seal check and goes nowhere.
            let payload = Authenticator::payload(1, auth.seq, &auth.head);
            let (attestation, _) = engine.layer.borrow_mut().seal_payload(2, &payload);
            let forged = Authenticator {
                attestation,
                ..auth
            };
            let mut outgoing = Vec::new();
            engine.handle_commitment(0, &forged.as_view(), true, &mut outgoing);
            assert!(outgoing.is_empty());
            assert_eq!(engine.layer.borrow().pending_rides(), 0);
        }
    }
}
