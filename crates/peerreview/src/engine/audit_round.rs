//! The audit round: commit, flush, challenge and classify, the inbox
//! sweep that dispatches every delivery to its handler, and the send path
//! that batches control traffic.

use super::membership::is_down;
use super::*;
use crate::log::{Authenticator, LogEntry};
use crate::wire::{PiggybackRider, MAX_PIGGYBACK_RIDERS};

/// One queued outbound control message produced by a protocol handler.
///
/// Handlers push these instead of sending directly so the send path can
/// coalesce consecutive same-destination responses into batch envelopes.
/// `Segment` defers the audit response entirely: the log slice
/// is borrowed and encoded at send time, so the hot path never clones the
/// challenged entries into an owned `Vec` first.
// The queue is transient (drained within the same dispatch), so the size
// skew against the 16-byte `Segment` variant is irrelevant; boxing the
// envelope would add an allocation per control message instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(super) enum Outbound {
    Env(Envelope),
    Segment { from_seq: u64, upto_seq: u64 },
}

impl From<Envelope> for Outbound {
    fn from(env: Envelope) -> Self {
        Outbound::Env(env)
    }
}

/// Deterministic per-pair phase in `0..window`, spreading the coverage-window
/// backstop audits of never-yet-sampled pairs across rounds instead of
/// firing them all in the same round.
fn pair_stagger(witness: u32, node: u32, window: u64) -> u64 {
    let mut x = (u64::from(witness) << 32) | u64::from(node);
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 29;
    x % window.max(1)
}

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// Seals `node`'s commitment to `(seq, head)`, charges the seal to the
    /// clock and counts the commitment as published.
    pub(super) fn publish_commitment(
        &mut self,
        node: u32,
        seq: u64,
        head: [u8; 32],
    ) -> Authenticator {
        let (auth, cost) = self.layer.borrow_mut().seal(node, seq, head);
        self.clock.advance(cost);
        self.stats.commitments_published += 1;
        auth
    }

    /// Sends every commitment still waiting for a ride as dedicated
    /// traffic. Run after the round's workload and before challenges, so
    /// piggybacking changes the message count but never which witness holds
    /// which commitment at challenge time.
    ///
    /// Rides for the same directed pair are batched: the first becomes the
    /// dedicated envelope and up to [`MAX_PIGGYBACK_RIDERS`] further ones
    /// ride it as a [`Envelope::Piggyback`] — one message per batch instead
    /// of one per authenticator.
    pub(super) fn flush_pending(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
        let pending = self.layer.borrow_mut().drain_pending();
        // `drain_pending` yields pairs in sorted order; batch consecutive
        // runs of the same pair.
        let mut i = 0;
        while i < pending.len() {
            let (pair, _, _) = pending[i];
            let mut j = i + 1;
            while j < pending.len() && pending[j].0 == pair && j - i < 1 + MAX_PIGGYBACK_RIDERS {
                j += 1;
            }
            let dedicated = |auth: &Authenticator, gossip: bool| {
                if gossip {
                    Envelope::Gossip(auth.clone())
                } else {
                    Envelope::Announce(auth.clone())
                }
            };
            let envelope = if j - i == 1 {
                dedicated(&pending[i].1, pending[i].2)
            } else {
                Envelope::Piggyback {
                    riders: pending[i + 1..j]
                        .iter()
                        .map(|(_, auth, gossip)| PiggybackRider {
                            auth: auth.clone(),
                            gossip: *gossip,
                        })
                        .collect(),
                    inner: Box::new(dedicated(&pending[i].1, pending[i].2)),
                }
            };
            self.send_control(cluster, NodeId(pair.0), NodeId(pair.1), &envelope)?;
            i = j;
        }
        Ok(())
    }

    /// The commit step. Dedicated mode seals one authenticator per witness
    /// and sends it in its own message; piggyback mode seals one per node
    /// (two for an equivocator) and queues them for rides.
    pub(super) fn announce_commitments(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
        if self.config.piggyback {
            self.queue_commitments();
            return Ok(());
        }
        // Seal first, send second: commitments of one round must all cover
        // the same prefix, and sending an announcement itself appends `Send`
        // entries to the log.
        let mut outgoing: Vec<(NodeId, NodeId, Envelope)> = Vec::new();
        for node in self.ids() {
            if is_down(&self.members, node) {
                continue; // a crashed or departed node announces nothing
            }
            let (seq, head, forked_head) = self.layer.borrow().commitment_data(node);
            let member = &mut self.members[node as usize];
            if seq > 0 {
                member.commit_snapshot = Some((seq, member.shadow.state_digest()));
            }
            let witnesses = member.witnesses.clone();
            for (idx, &witness) in witnesses.iter().enumerate() {
                let committed = self.committed_head(node, idx, witnesses.len(), head, forked_head);
                let auth = self.publish_commitment(node, seq, committed);
                outgoing.push((NodeId(node), NodeId(witness), Envelope::Announce(auth)));
            }
        }
        for (from, to, env) in outgoing {
            self.send_control(cluster, from, to, &env)?;
        }
        Ok(())
    }

    /// Piggyback-mode commit step: each node seals its current head and
    /// queues it for one witness — a *rotating* target (`round mod w`), so a
    /// single relay-refusing or gossip-withholding witness can delay fellow
    /// witnesses by at most `w - 1` rounds, never starve them (commitments
    /// are cumulative: the next round's direct announcement to an honest
    /// witness covers everything the suppressed relays did). Witness gossip
    /// (also riding) covers the rest of the set in the common case. An
    /// equivocating host additionally seals a forked head towards the next
    /// witness in the rotation — the classic partition attempt, defeated by
    /// gossip cross-checking. With a single witness the fork goes to it
    /// directly and is exposed by the audit (head mismatch).
    fn queue_commitments(&mut self) {
        for node in self.ids() {
            if is_down(&self.members, node) {
                continue; // a crashed or departed node commits nothing
            }
            let (seq, head, forked_head) = self.layer.borrow().commitment_data(node);
            let member = &mut self.members[node as usize];
            if seq == 0 || member.witnesses.is_empty() {
                continue; // nothing to commit / nobody to commit to
            }
            member.commit_snapshot = Some((seq, member.shadow.state_digest()));
            let witnesses = member.witnesses.clone();
            // The node's first (and, unless it equivocates, only)
            // commitment of the round.
            let primary_head = self.committed_head(node, 0, witnesses.len(), head, forked_head);
            let target = (self.audit_rounds_done as usize) % witnesses.len();
            let auth = self.publish_commitment(node, seq, primary_head);
            self.layer
                .borrow_mut()
                .enqueue_ride(node, witnesses[target], auth, false);
            if let Some(fork_target) = self.fork_target(node, target, witnesses.len()) {
                let fork = self.publish_commitment(node, seq, forked_head);
                self.layer
                    .borrow_mut()
                    .enqueue_ride(node, witnesses[fork_target], fork, false);
            }
        }
    }

    pub(super) fn issue_challenges(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
        let mut outgoing: Vec<(NodeId, NodeId, Outbound)> = Vec::new();
        let now = self.clock.now();
        let at_us = now.as_micros();
        let round = self.audit_rounds_done;
        // Hoisted fault-free fast path: with an empty plan the per-record
        // audit-duty question below is skipped entirely — at n = 1000 the
        // record map holds hundreds of thousands of pairs per audit round.
        let no_faults = self.faults.is_all_correct();
        let sampled = self.sample_audit_pairs(round);
        if let Some(selected) = &sampled {
            tnic_obs::trace_event!(
                tnic_obs::EventKind::AuditSample,
                at_us: at_us,
                node: 0,
                peer: 0,
                seq: round,
                aux: selected.len() as u64
            );
        }
        let retries = self.config.challenge_retries;
        for (&(witness, node), pair) in &mut self.pairs {
            // Down witnesses challenge nobody; down auditees cannot answer
            // (challenging them would only manufacture suspicion while an
            // in-flight challenge from before the crash already covers the
            // transient-suspicion semantics).
            if is_down(&self.members, witness) {
                continue;
            }
            let ctx = TraceCtx {
                witness,
                node,
                at_us,
                round,
            };
            let event = if is_down(&self.members, node) {
                PairEvent::AuditeeDown
            } else if !no_faults
                && !Self::performs_audit_duty(&self.faults, &mut self.stats, &mut pair.record, ctx)
            {
                continue;
            } else {
                let sampled = sampled
                    .as_ref()
                    .is_none_or(|s| s.contains(&(witness, node)));
                PairEvent::Selected { sampled, now }
            };
            let (upto_seq, kind, attempt) = match pair.step(event, round, retries) {
                PairAction::Challenge { upto_seq } => {
                    self.stats.challenges += 1;
                    (upto_seq, tnic_obs::EventKind::Challenge, 0)
                }
                PairAction::Resend { upto_seq, attempt } => {
                    self.stats.challenge_retries += 1;
                    (upto_seq, tnic_obs::EventKind::Retry, attempt)
                }
                PairAction::SampledOut => {
                    self.stats.audits_sampled_out += 1;
                    continue;
                }
                _ => continue,
            };
            tnic_obs::trace_event!(
                kind,
                at_us: at_us,
                node: witness,
                peer: node,
                seq: upto_seq,
                round: round,
                aux: u64::from(attempt)
            );
            outgoing.push((
                NodeId(witness),
                NodeId(node),
                Envelope::Challenge {
                    from_seq: pair.record.audited_seq,
                    upto_seq,
                }
                .into(),
            ));
        }
        self.send_outgoing(cluster, outgoing)
    }

    /// The (witness, auditee) pairs selected for this round's audits under
    /// sampled auditing, or `None` when every pair is audited every round
    /// ([`EngineConfig::audit_sample_size`] unset).
    ///
    /// Each witness draws a deterministic permutation of its charges —
    /// seeded from [`EngineConfig::audit_sample_seed`] and the witness id,
    /// on a stream independent of the engine's fault RNG — and walks a
    /// rotating window of `audit_sample_size` charges per round, so every
    /// charge is audited at least once every `ceil(charges / size)` rounds.
    /// A positive [`EngineConfig::audit_coverage_window`] additionally
    /// forces any pair whose last selection is at least `window` rounds old
    /// (staggered per pair so the backstop audits spread across rounds).
    fn sample_audit_pairs(&self, round: u64) -> Option<BTreeSet<(u32, u32)>> {
        let k = (self.config.audit_sample_size? as usize).max(1);
        let window = self.config.audit_coverage_window;
        // Charges per witness, each with the round it was last selected.
        let mut by_witness: BTreeMap<u32, Vec<(u32, Option<u64>)>> = BTreeMap::new();
        for (&(witness, node), pair) in &self.pairs {
            by_witness
                .entry(witness)
                .or_default()
                .push((node, pair.last_selected()));
        }
        let mut selected = BTreeSet::new();
        for (witness, mut charges) in by_witness {
            let len = charges.len();
            if len <= k {
                // The sample covers the full charge list: full auditing.
                selected.extend(charges.into_iter().map(|(n, _)| (witness, n)));
                continue;
            }
            // A per-witness Fisher–Yates shuffle decorrelates the rotating
            // windows across witnesses (otherwise every witness would audit
            // the same id-ordered slice of the ring in the same round).
            let mut rng = DetRng::new(
                self.config.audit_sample_seed ^ (u64::from(witness) << 32) ^ 0x005a_3d17,
            );
            for i in (1..len).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                charges.swap(i, j);
            }
            let start = (round as usize).wrapping_mul(k) % len;
            for offset in 0..k {
                selected.insert((witness, charges[(start + offset) % len].0));
            }
            if window > 0 {
                for &(node, last_selected) in &charges {
                    let due = match last_selected {
                        Some(last) => round.saturating_sub(last) >= window,
                        None => round % window == pair_stagger(witness, node, window),
                    };
                    if due {
                        selected.insert((witness, node));
                    }
                }
            }
        }
        Some(selected)
    }

    /// Ends the round for every pair: a challenge past its retry budget
    /// suspects its auditee (see [`EngineConfig::challenge_retries`]).
    pub(super) fn finish_round(&mut self) {
        let now = self.trace_ctx(tnic_obs::NONE, tnic_obs::NONE);
        let retries = self.config.challenge_retries;
        for (&(witness, node), pair) in &mut self.pairs {
            if pair.step(PairEvent::RoundEnd, now.round, retries) == PairAction::Suspect {
                self.stats.unanswered_challenges += 1;
                pair.record.trace = TraceCtx {
                    witness,
                    node,
                    ..now
                };
                pair.record.mark_unresponsive();
            }
        }
    }

    /// Dispatches until no live node has a queued delivery. Each pass asks
    /// the cluster for its active set — the nodes with queued deliveries, in
    /// id order — instead of scanning all n endpoints (quadratic across a
    /// round at n = 1000), into one buffer the engine keeps across passes.
    pub(super) fn sweep_until_quiet(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
    ) -> Result<(), CoreError> {
        let mut pending = std::mem::take(&mut self.pending_scratch);
        loop {
            cluster.nodes_with_pending(&mut pending);
            // A crashed node's inbox stays queued until recovery; a
            // departed node's is never drained.
            pending.retain(|&n| !is_down(&self.members, n.0));
            if pending.is_empty() {
                self.pending_scratch = pending;
                return Ok(());
            }
            for &node in &pending {
                self.dispatch(cluster, app, node)?;
            }
        }
    }

    /// Drains `node`'s inbox and runs the protocol handlers.
    pub(super) fn dispatch(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
        node: NodeId,
    ) -> Result<(), CoreError> {
        let delivered = cluster.poll(node)?;
        let mut outgoing: Vec<(NodeId, NodeId, Outbound)> = Vec::new();
        for d in delivered {
            let Ok(envelope) = Envelope::decode(&d.message.payload) else {
                continue;
            };
            self.handle_envelope(app, node, d.from.0, envelope, &mut outgoing);
        }
        self.send_outgoing(cluster, outgoing)
    }

    /// Sends a handler's queued outbound messages in order. A run of
    /// deferred segments from one node to one witness becomes one
    /// [`Envelope::ResponseBatch`] (or a single zero-copy response);
    /// everything else goes out as-is. Challenges never form a run: a round
    /// issues at most one per (witness, auditee) pair, and each pair is its
    /// own destination.
    pub(super) fn send_outgoing(
        &mut self,
        cluster: &mut Cluster,
        outgoing: Vec<(NodeId, NodeId, Outbound)>,
    ) -> Result<(), CoreError> {
        let mut i = 0;
        while i < outgoing.len() {
            let (from, to) = (outgoing[i].0, outgoing[i].1);
            if let Outbound::Env(env) = &outgoing[i].2 {
                self.send_control(cluster, from, to, env)?;
                i += 1;
                continue;
            }
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            while let Some((f, t, Outbound::Segment { from_seq, upto_seq })) = outgoing.get(i) {
                if (*f, *t) != (from, to) {
                    break;
                }
                ranges.push((*from_seq, *upto_seq));
                i += 1;
            }
            self.send_segments(cluster, from, to, &ranges)?;
        }
        Ok(())
    }

    /// Answers one or more challenges with log segments encoded straight
    /// from the retained log into the reused wire buffer — the audit hot
    /// path never materialises an owned copy of the challenged entries.
    /// Two or more segments to the same witness coalesce into one
    /// [`Envelope::ResponseBatch`].
    ///
    /// Prunability is re-checked here via
    /// `CommitmentLayer::segment_checked`: the response is deferred from
    /// `handle_challenge`, and a checkpoint commit processed in the same
    /// sweep can prune the log underneath the deferred range. A straddled
    /// range is answered with the checkpoint certificate (the witness
    /// verifies the quorum and fast-forwards) — never with a silently
    /// re-based segment, which the witness would misread as starting at the
    /// challenged sequence.
    pub(super) fn send_segments(
        &mut self,
        cluster: &mut Cluster,
        from: NodeId,
        to: NodeId,
        ranges: &[(u64, u64)],
    ) -> Result<(), CoreError> {
        if ranges.is_empty() {
            return Ok(());
        }
        let mut answerable: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        let mut straddled = false;
        {
            let layer = self.layer.borrow();
            for &(f, u) in ranges {
                if layer.segment_checked(from.0, f, u).is_ok() {
                    answerable.push((f, u));
                } else {
                    straddled = true;
                }
            }
        }
        if straddled {
            if let Some((mark, cosigs)) = &self.members[from.0 as usize].certificate {
                self.stats.certificate_responses += 1;
                let env = Envelope::CheckpointCommit {
                    mark: mark.clone(),
                    cosigs: cosigs.clone(),
                };
                self.send_control(cluster, from, to, &env)?;
            }
        }
        let ranges = answerable.as_slice();
        if ranges.is_empty() {
            return Ok(());
        }
        let elements = ranges.len() as u64;
        let mut scratch = std::mem::take(&mut self.wire_scratch);
        {
            let layer = self.layer.borrow();
            if let [(from_seq, upto_seq)] = ranges {
                Envelope::encode_response_into(
                    &mut scratch,
                    *from_seq,
                    layer.segment_ref(from.0, *from_seq, *upto_seq),
                );
            } else {
                let parts: Vec<(u64, &[LogEntry])> = ranges
                    .iter()
                    .map(|&(f, u)| (f, layer.segment_ref(from.0, f, u)))
                    .collect();
                Envelope::encode_response_batch_into(&mut scratch, &parts);
            }
        }
        let result = self.send_control_raw(cluster, from, to, &scratch, elements);
        self.wire_scratch = scratch;
        if elements >= 2 {
            self.stats.response_batches += 1;
            self.stats.batched_envelopes += elements;
        }
        result
    }

    /// Runs one protocol handler; a piggybacked envelope is the carried
    /// commitment batch plus the inner envelope, handled in that order
    /// (decode rejects nesting, so the recursion is one level deep).
    pub(super) fn handle_envelope(
        &mut self,
        app: &mut A,
        node: NodeId,
        from: u32,
        envelope: Envelope,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        if !matches!(envelope, Envelope::App(_)) {
            app.on_control(node.0, from, &envelope);
        }
        match envelope {
            Envelope::App(command) => {
                let output = app.execute(node.0, &command);
                let member = &mut self.members[node.0 as usize];
                member.shadow.execute(&command);
                self.layer.borrow_mut().record_exec(
                    node.0,
                    output.clone(),
                    self.clock.now().as_micros(),
                );
                member.inbox.push(AppDelivery {
                    from: NodeId(from),
                    command,
                    output,
                });
            }
            Envelope::Announce(auth) => {
                self.handle_commitment(node.0, auth, true, outgoing);
            }
            Envelope::Gossip(auth) => {
                self.handle_commitment(node.0, auth, false, outgoing);
            }
            Envelope::Challenge { from_seq, upto_seq } => {
                self.handle_challenge(node.0, from, from_seq, upto_seq, outgoing);
            }
            Envelope::Response { from_seq, entries } => {
                self.handle_response(node.0, from, from_seq, &entries);
            }
            // Batch envelopes unroll into the per-element handlers: a batch
            // is pure wire-level coalescing, with no protocol semantics of
            // its own (a hostile batch is exactly as powerful as the same
            // elements sent individually).
            Envelope::ChallengeBatch { challenges } => {
                for (from_seq, upto_seq) in challenges {
                    self.handle_challenge(node.0, from, from_seq, upto_seq, outgoing);
                }
            }
            Envelope::ResponseBatch { responses } => {
                for (from_seq, entries) in responses {
                    self.handle_response(node.0, from, from_seq, &entries);
                }
            }
            Envelope::Evidence { a, b } => {
                self.handle_evidence(node.0, from, &a, &b);
            }
            Envelope::Piggyback { riders, inner } => {
                for rider in riders {
                    self.handle_commitment(node.0, rider.auth, !rider.gossip, outgoing);
                }
                self.handle_envelope(app, node, from, *inner, outgoing);
            }
            Envelope::CheckpointPropose(mark) => {
                self.handle_checkpoint_propose(node.0, mark, outgoing);
            }
            Envelope::CheckpointCosign(cosig) => {
                self.handle_checkpoint_cosign(node.0, &cosig);
            }
            Envelope::CheckpointCommit { mark, cosigs } => {
                self.handle_checkpoint_commit(node.0, &mark, &cosigs);
            }
            Envelope::Join(auth) | Envelope::Recover(auth) => {
                self.handle_own_announcement(node.0, from, auth, outgoing);
            }
            Envelope::Leave { auth, entries } => {
                self.handle_leave(node.0, from, auth, &entries, outgoing);
            }
        }
    }

    pub(super) fn send_control(
        &mut self,
        cluster: &mut Cluster,
        from: NodeId,
        to: NodeId,
        envelope: &Envelope,
    ) -> Result<(), CoreError> {
        let audit_elements = match envelope {
            Envelope::Challenge { .. } | Envelope::Response { .. } => 1,
            Envelope::ChallengeBatch { challenges } => challenges.len() as u64,
            Envelope::ResponseBatch { responses } => responses.len() as u64,
            _ => 0,
        };
        let payload = envelope.encode();
        self.send_control_raw(cluster, from, to, &payload, audit_elements)
    }

    /// Sends pre-encoded control bytes; `audit_elements` is the number of
    /// individual challenges/responses the payload carries (0 for
    /// non-audit traffic), folded into the audit-traffic counters.
    fn send_control_raw(
        &mut self,
        cluster: &mut Cluster,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
        audit_elements: u64,
    ) -> Result<(), CoreError> {
        match cluster.auth_send(from, to, payload) {
            Ok(wire_len) => {
                self.stats.control_messages += 1;
                self.stats.control_bytes += wire_len as u64;
                if audit_elements > 0 {
                    self.stats.audit_messages += 1;
                    cluster.note_audit_message(1, audit_elements);
                }
                Ok(())
            }
            // A departed/crashed/partitioned peer is not an engine error:
            // the cluster counted and traced the refused send, and the
            // challenge retry / suspicion machinery deals with the silence.
            Err(CoreError::Unreachable { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }
}
