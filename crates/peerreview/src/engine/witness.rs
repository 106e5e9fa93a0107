//! The witness side: the handlers a node runs on commitments, challenges,
//! responses, evidence and membership envelopes.

use super::audit_round::Outbound;
use super::byzantine::Forwarding;
use super::*;
use crate::audit::commitments_conflict;
use crate::log::{Authenticator, LogEntry};
use tnic_device::attestation::AttestedMessage;

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
        auth: Authenticator,
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
    pub(super) fn handle_leave(
        &mut self,
        witness: u32,
        from: u32,
        auth: Authenticator,
        entries: &[LogEntry],
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        if auth.node != from {
            return; // only the leaver seals its own farewell
        }
        let node = auth.node;
        let seq = auth.seq;
        self.handle_commitment(witness, auth.clone(), true, outgoing);
        let ctx = self.trace_ctx(witness, node);
        let Some(pair) = self.pairs.get_mut(&(witness, node)) else {
            return;
        };
        let record = &mut pair.record;
        if record.verdict != Verdict::Exposed && seq > record.audited_seq {
            let tail: Vec<LogEntry> = entries
                .iter()
                .filter(|e| e.seq >= record.audited_seq && e.seq < seq)
                .cloned()
                .collect();
            let aligned = tail.first().is_some_and(|e| e.seq == record.audited_seq)
                && tail.len() as u64 == seq - record.audited_seq;
            if aligned {
                record.trace = ctx;
                self.stats.leave_audits += 1;
                self.stats.audit_replays += 1;
                self.stats.entries_replayed += tail.len() as u64;
                let _ = record.check_response(&auth, &tail);
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
    pub(super) fn attestation_verifies(
        &mut self,
        verifier: u32,
        attestation: &AttestedMessage,
    ) -> bool {
        let node = attestation.session.0.wrapping_sub(log_session(0).0);
        let member = &mut self.members[verifier as usize];
        if member.held.binary_search(&node).is_err() {
            return false;
        }
        match member
            .kernel
            .verify_binding_under(&self.log_keys[node as usize], attestation)
        {
            Ok(cost) => {
                self.clock.advance(cost);
                true
            }
            Err(_) => false,
        }
    }

    /// Verifies a commitment's TNIC seal and structural claims.
    fn seal_verifies(&mut self, witness: u32, auth: &Authenticator) -> bool {
        auth.consistent() && self.attestation_verifies(witness, &auth.attestation)
    }

    pub(super) fn handle_commitment(
        &mut self,
        witness: u32,
        auth: Authenticator,
        direct: bool,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        let accused = auth.node;
        if !self.witnesses_of(accused).contains(&witness) || !self.seal_verifies(witness, &auth) {
            return;
        }
        let ctx = self.trace_ctx(witness, accused);
        let record = &mut self
            .pairs
            .get_mut(&(witness, accused))
            .expect("pair exists")
            .record;
        record.trace = ctx;
        let conflict = record.store_commitment(auth.clone());
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
            for &fellow in &self.members[accused as usize].witnesses {
                if fellow != witness && fellow != accused {
                    match forwarding {
                        Forwarding::Nothing => self.stats.gossip_withheld += 1,
                        Forwarding::NoRelays => self.stats.relays_refused += 1,
                        Forwarding::All if self.config.piggyback => {
                            self.layer.borrow_mut().enqueue_ride(
                                witness,
                                fellow,
                                auth.clone(),
                                true,
                            );
                        }
                        Forwarding::All => outgoing.push((
                            NodeId(witness),
                            NodeId(fellow),
                            Envelope::Gossip(auth.clone()).into(),
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

    pub(super) fn handle_response(
        &mut self,
        witness: u32,
        node: u32,
        from_seq: u64,
        entries: &[LogEntry],
    ) {
        let ctx = self.trace_ctx(witness, node);
        let Some(pair) = self.pairs.get_mut(&(witness, node)) else {
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
        self.stats.entries_replayed += entries.len() as u64;
        pair.record.trace = ctx;
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Response,
            at_us: ctx.at_us,
            node: witness,
            peer: node,
            seq: target.seq,
            round: ctx.round,
            aux: entries.len() as u64
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
        a: &Authenticator,
        b: &Authenticator,
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
        let Some(pair) = self.pairs.get_mut(&(witness, node)) else {
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
                a: Box::new(a.clone()),
                b: Box::new(b.clone()),
            }
        } else {
            self.stats.accusations_turned += 1;
            Misbehavior::ForgedAccusation { accused: a.node }
        };
        pair.record.trace = TraceCtx { node, ..ctx };
        pair.record.convict(evidence);
    }
}
