//! The audit round: commit, flush, challenge and classify, the inbox
//! sweep that dispatches every delivery to its handler, and the send path
//! that batches control traffic.

use super::membership::is_down;
use super::*;
use crate::log::{Authenticator, LogEntry};
use crate::wire::{PiggybackRider, MAX_PIGGYBACK_RIDERS};

/// Per-(witness, auditee) challenge retry bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(super) struct RetryState {
    /// Round-end timeouts seen for the outstanding challenge so far.
    attempts: u32,
    /// The audit round at which the challenge is re-sent next.
    resume_round: u64,
}

/// One queued outbound control message produced by a protocol handler.
///
/// Handlers push these instead of sending directly so the send path can
/// coalesce consecutive same-destination challenges/responses into batch
/// envelopes. `Segment` defers the audit response entirely: the log slice
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
        for node in self.nodes.clone() {
            if is_down(&self.membership, node.0) {
                continue; // a crashed or departed node announces nothing
            }
            let (seq, head, forked_head) = self.layer.borrow().commitment_data(node.0);
            if seq > 0 {
                let digest = self.shadows[&node.0].state_digest();
                self.commit_snapshots.insert(node.0, (seq, digest));
            }
            let witness_set = self.witnesses_of(node.0).to_vec();
            for (idx, &witness) in witness_set.iter().enumerate() {
                let committed =
                    self.committed_head(node.0, idx, witness_set.len(), head, forked_head);
                let auth = self.publish_commitment(node.0, seq, committed);
                outgoing.push((node, NodeId(witness), Envelope::Announce(auth)));
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
        for node in self.nodes.clone() {
            if is_down(&self.membership, node.0) {
                continue; // a crashed or departed node commits nothing
            }
            let (seq, head, forked_head) = self.layer.borrow().commitment_data(node.0);
            let witness_set = self.witnesses_of(node.0).to_vec();
            if seq == 0 || witness_set.is_empty() {
                continue; // nothing to commit / nobody to commit to
            }
            let digest = self.shadows[&node.0].state_digest();
            self.commit_snapshots.insert(node.0, (seq, digest));
            // The node's first (and, unless it equivocates, only)
            // commitment of the round.
            let primary_head = self.committed_head(node.0, 0, witness_set.len(), head, forked_head);
            let target = (self.audit_rounds_done as usize) % witness_set.len();
            let auth = self.publish_commitment(node.0, seq, primary_head);
            self.layer
                .borrow_mut()
                .enqueue_ride(node.0, witness_set[target], auth, false);
            if let Some(fork_target) = self.fork_target(node.0, target, witness_set.len()) {
                let fork = self.publish_commitment(node.0, seq, forked_head);
                self.layer
                    .borrow_mut()
                    .enqueue_ride(node.0, witness_set[fork_target], fork, false);
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
        for (&(witness, node), record) in &mut self.records {
            // Down witnesses challenge nobody; down auditees cannot answer
            // (challenging them would only manufacture suspicion while an
            // in-flight challenge from before the crash already covers the
            // transient-suspicion semantics).
            if is_down(&self.membership, witness) || is_down(&self.membership, node) {
                continue;
            }
            let ctx = TraceCtx {
                witness,
                node,
                at_us,
                round,
            };
            if !no_faults && !Self::performs_audit_duty(&self.faults, &mut self.stats, record, ctx)
            {
                continue;
            }
            if record.verdict == Verdict::Exposed {
                continue;
            }
            if let Some(pending) = record.pending_challenge.clone() {
                // Retry firing: a still-outstanding challenge whose backoff
                // gap has elapsed is re-sent (the response may have been
                // lost to a crash or an open partition).
                if let Some(rs) = self.retry_state.get(&(witness, node)) {
                    if round >= rs.resume_round {
                        outgoing.push((
                            NodeId(witness),
                            NodeId(node),
                            Envelope::Challenge {
                                from_seq: record.audited_seq,
                                upto_seq: pending.seq,
                            }
                            .into(),
                        ));
                        tnic_obs::trace_event!(
                            tnic_obs::EventKind::Retry,
                            at_us: at_us,
                            node: witness,
                            peer: node,
                            seq: pending.seq,
                            round: round,
                            aux: u64::from(rs.attempts)
                        );
                        self.stats.challenge_retries += 1;
                    }
                }
                continue;
            }
            // Sampled auditing: a pair outside this round's sample is simply
            // not challenged — it can never be suspected for the skipped
            // round, because only a pair with an outstanding challenge can
            // time out (retries above are always serviced).
            if let Some(selected) = &sampled {
                if !selected.contains(&(witness, node)) {
                    self.stats.audits_sampled_out += 1;
                    continue;
                }
                self.last_audit_round.insert((witness, node), round);
            }
            if let Some(target) = record.next_audit_target().cloned() {
                outgoing.push((
                    NodeId(witness),
                    NodeId(node),
                    Envelope::Challenge {
                        from_seq: record.audited_seq,
                        upto_seq: target.seq,
                    }
                    .into(),
                ));
                record.trace = ctx;
                tnic_obs::trace_event!(
                    tnic_obs::EventKind::Challenge,
                    at_us: at_us,
                    node: witness,
                    peer: node,
                    seq: target.seq,
                    round: round
                );
                record.pending_challenge = Some(target);
                self.challenge_started.insert((witness, node), now);
                self.stats.challenges += 1;
            }
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
        let mut by_witness: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(witness, node) in self.records.keys() {
            by_witness.entry(witness).or_default().push(node);
        }
        let mut selected = BTreeSet::new();
        for (witness, mut charges) in by_witness {
            let len = charges.len();
            if len <= k {
                // The sample covers the full charge list: full auditing.
                selected.extend(charges.into_iter().map(|n| (witness, n)));
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
                selected.insert((witness, charges[(start + offset) % len]));
            }
            if window > 0 {
                for &node in &charges {
                    let due = match self.last_audit_round.get(&(witness, node)) {
                        Some(&last) => round.saturating_sub(last) >= window,
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

    pub(super) fn finish_round(&mut self) {
        /// Gap, in audit rounds, before the first challenge retry; it
        /// doubles per attempt (exponential backoff).
        const RETRY_BACKOFF_ROUNDS: u64 = 1;
        let now = self.trace_ctx(tnic_obs::NONE, tnic_obs::NONE);
        let round = now.round;
        let retries = self.config.challenge_retries;
        for (&(witness, node), record) in &mut self.records {
            if record.pending_challenge.is_none() {
                continue;
            }
            // Timeout–retry–backoff: while retry budget remains, keep the
            // challenge pending and schedule the next (exponentially later)
            // re-send instead of suspecting immediately. An entry waiting
            // out its backoff gap (not yet due) has not timed out again.
            let state = self
                .retry_state
                .entry((witness, node))
                .or_insert(RetryState {
                    attempts: 0,
                    resume_round: round,
                });
            if round < state.resume_round {
                continue; // still backing off; nothing fired this round
            }
            if state.attempts < retries {
                state.attempts += 1;
                let gap = RETRY_BACKOFF_ROUNDS << (state.attempts - 1).min(16);
                state.resume_round = round + gap;
                continue;
            }
            // Retry budget exhausted (or zero): the classic downgrade.
            // Suspicion is bounded — without evidence the verdict never
            // exceeds Suspected, and a later valid response clears it.
            record.pending_challenge = None;
            self.stats.unanswered_challenges += 1;
            record.trace = TraceCtx {
                witness,
                node,
                ..now
            };
            record.mark_unresponsive();
            self.challenge_started.remove(&(witness, node));
            self.retry_state.remove(&(witness, node));
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
            pending.retain(|&n| !is_down(&self.membership, n.0));
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

    /// Sends a handler's queued outbound messages, coalescing consecutive
    /// runs with the same (from, to) into batch envelopes where possible.
    pub(super) fn send_outgoing(
        &mut self,
        cluster: &mut Cluster,
        outgoing: Vec<(NodeId, NodeId, Outbound)>,
    ) -> Result<(), CoreError> {
        let mut i = 0;
        while i < outgoing.len() {
            let (from, to) = (outgoing[i].0, outgoing[i].1);
            let mut j = i + 1;
            while j < outgoing.len() && outgoing[j].0 == from && outgoing[j].1 == to {
                j += 1;
            }
            self.send_group(cluster, from, to, &outgoing[i..j])?;
            i = j;
        }
        Ok(())
    }

    /// Sends one same-destination group: consecutive runs of ≥ 2 challenges
    /// become one [`Envelope::ChallengeBatch`], runs of deferred segments
    /// become one [`Envelope::ResponseBatch`] (or a single zero-copy
    /// response), everything else goes out as-is.
    fn send_group(
        &mut self,
        cluster: &mut Cluster,
        from: NodeId,
        to: NodeId,
        group: &[(NodeId, NodeId, Outbound)],
    ) -> Result<(), CoreError> {
        let mut i = 0;
        while i < group.len() {
            match &group[i].2 {
                Outbound::Env(Envelope::Challenge { .. }) => {
                    let mut challenges: Vec<(u64, u64)> = Vec::new();
                    let mut j = i;
                    while let Some((
                        _,
                        _,
                        Outbound::Env(Envelope::Challenge { from_seq, upto_seq }),
                    )) = group.get(j)
                    {
                        challenges.push((*from_seq, *upto_seq));
                        j += 1;
                    }
                    if challenges.len() >= 2 {
                        let mut scratch = std::mem::take(&mut self.wire_scratch);
                        Envelope::encode_challenge_batch_into(&mut scratch, &challenges);
                        let elements = challenges.len() as u64;
                        let result = self.send_control_raw(cluster, from, to, &scratch, elements);
                        self.wire_scratch = scratch;
                        self.stats.challenge_batches += 1;
                        self.stats.batched_envelopes += elements;
                        tnic_obs::trace_event!(
                            tnic_obs::EventKind::ChallengeBatch,
                            at_us: self.clock.now().as_micros(),
                            node: from.0,
                            peer: to.0,
                            seq: self.audit_rounds_done,
                            aux: elements
                        );
                        result?;
                    } else {
                        let (_, _, Outbound::Env(env)) = &group[i] else {
                            unreachable!("run starts at a challenge envelope")
                        };
                        let env = env.clone();
                        self.send_control(cluster, from, to, &env)?;
                    }
                    i = j;
                }
                Outbound::Segment { .. } => {
                    let mut ranges: Vec<(u64, u64)> = Vec::new();
                    let mut j = i;
                    while let Some((_, _, Outbound::Segment { from_seq, upto_seq })) = group.get(j)
                    {
                        ranges.push((*from_seq, *upto_seq));
                        j += 1;
                    }
                    self.send_segments(cluster, from, to, &ranges)?;
                    i = j;
                }
                Outbound::Env(env) => {
                    let env = env.clone();
                    self.send_control(cluster, from, to, &env)?;
                    i += 1;
                }
            }
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
            if let Some((mark, cosigs)) = self.certificates.get(&from.0) {
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
                self.shadows
                    .get_mut(&node.0)
                    .expect("shadow registered")
                    .execute(&command);
                self.layer.borrow_mut().record_exec(
                    node.0,
                    output.clone(),
                    self.clock.now().as_micros(),
                );
                self.app_inbox.entry(node.0).or_default().push(AppDelivery {
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
