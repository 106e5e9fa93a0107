//! The checkpoint round: propose, cosign and commit, and the witness
//! handover that lets an incoming witness start from a certified boundary.

use super::audit_round::Outbound;
use super::membership::is_down;
use super::*;
use crate::checkpoint::cosign_quorum;

/// A checkpoint proposal awaiting its cosignature quorum at the proposing
/// node.
#[derive(Debug)]
pub(super) struct PendingCheckpoint {
    pub(super) mark: CheckpointMark,
    pub(super) cosigners: BTreeMap<u32, Cosignature>,
}

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// Runs one checkpoint round (see [`crate::checkpoint`] for the
    /// lifecycle): every node proposes a checkpoint of its last committed
    /// boundary to its witnesses, witnesses cosign what they have verified,
    /// nodes that collect a quorum broadcast the certificate and prune the
    /// covered prefix (witnesses drop covered commitments and laggards
    /// fast-forward), and — with
    /// [`EngineConfig::rotate_witnesses`](super::EngineConfig::rotate_witnesses)
    /// — the epoch advance rotates witness sets. Called automatically every
    /// [`EngineConfig::checkpoint_interval`](super::EngineConfig::checkpoint_interval)
    /// audit rounds from [`AccountabilityEngine::finish_audit_round`].
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub(super) fn run_checkpoint_round(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
    ) -> Result<(), CoreError> {
        let epoch = self.epoch + 1;
        // Propose: one sealed mark per node, sent to every witness. The
        // mark is also recorded in the node's own log (the retained root),
        // where later audits re-verify it during replay.
        let mut outgoing: Vec<(NodeId, NodeId, Envelope)> = Vec::new();
        for node in self.ids() {
            if is_down(&self.members, node) {
                continue; // the down propose nothing (their log is frozen)
            }
            let Some((cut, state_digest)) = self.members[node as usize].commit_snapshot else {
                continue; // nothing committed yet
            };
            if cut <= self.layer.borrow().base_seq(node) {
                continue; // boundary already covered by an earlier checkpoint
            }
            let witnesses = self.witnesses_of(node).to_vec();
            if witnesses.is_empty() {
                continue;
            }
            let Some(head) = self.layer.borrow().head_at(node, cut) else {
                continue;
            };
            // The *mark* certifies the log-driven state at the audited
            // boundary (what witnesses verified); the *log entry* embeds
            // the log-driven state at append time, which is what replay
            // reaches when it passes the entry — in piggyback mode the two
            // differ by the workload that rode between commit and
            // checkpoint.
            let entry_payload = CheckpointMark::payload(
                node,
                epoch,
                cut,
                &head,
                &self.members[node as usize].shadow.state_digest(),
            );
            self.layer.borrow_mut().record_checkpoint(
                node,
                entry_payload,
                self.clock.now().as_micros(),
            );
            let payload = CheckpointMark::payload(node, epoch, cut, &head, &state_digest);
            let (attestation, cost) = self.layer.borrow_mut().seal_payload(node, &payload);
            self.clock.advance(cost);
            let mark = CheckpointMark {
                node,
                epoch,
                cut,
                head,
                state_digest,
                attestation,
            };
            self.stats.checkpoints_proposed += 1;
            crate::checkpoint::trace_mark(
                tnic_obs::codes::CKPT_PROPOSE,
                node,
                tnic_obs::NONE,
                &mark,
                self.clock.now().as_micros(),
            );
            self.members[node as usize].pending_checkpoint = Some(PendingCheckpoint {
                mark: mark.clone(),
                cosigners: BTreeMap::new(),
            });
            for &witness in &witnesses {
                outgoing.push((
                    NodeId(node),
                    NodeId(witness),
                    Envelope::CheckpointPropose(mark.clone()),
                ));
            }
        }
        for (from, to, env) in outgoing {
            self.send_control(cluster, from, to, &env)?;
        }
        self.sweep_until_quiet(cluster, app)?;

        // Certify and prune: nodes with a cosignature quorum broadcast the
        // certificate and garbage-collect the covered prefix; everyone else
        // keeps the full log (a withheld quorum delays the prune — it never
        // blocks it, because the next epoch re-proposes, possibly to a
        // rotated set).
        let certified: Vec<(u32, CheckpointMark, Vec<Cosignature>, Vec<u32>)> = (0..)
            .zip(&self.members)
            .filter_map(|(node, member)| {
                let pending = member.pending_checkpoint.as_ref()?;
                (pending.cosigners.len() >= cosign_quorum(member.witnesses.len())).then(|| {
                    (
                        node,
                        pending.mark.clone(),
                        pending.cosigners.values().cloned().collect(),
                        member.witnesses.clone(),
                    )
                })
            })
            .collect();
        let mut commits: Vec<(NodeId, NodeId, Envelope)> = Vec::new();
        for (node, mark, cosigs, witnesses) in certified {
            for &witness in &witnesses {
                commits.push((
                    NodeId(node),
                    NodeId(witness),
                    Envelope::CheckpointCommit {
                        mark: mark.clone(),
                        cosigs: cosigs.clone(),
                    },
                ));
            }
            let dropped = self.layer.borrow_mut().prune_to(node, mark.cut);
            self.stats.pruned_log_entries += dropped;
            self.stats.checkpoints_completed += 1;
            let at_us = self.clock.now().as_micros();
            crate::checkpoint::trace_mark(
                tnic_obs::codes::CKPT_CERTIFY,
                node,
                tnic_obs::NONE,
                &mark,
                at_us,
            );
            tnic_obs::trace_event!(
                tnic_obs::EventKind::Prune,
                at_us: at_us,
                node: node,
                seq: mark.cut,
                aux: dropped
            );
            self.members[node as usize].certificate = Some((mark, cosigs));
        }
        for (from, to, env) in commits {
            self.send_control(cluster, from, to, &env)?;
        }
        self.sweep_until_quiet(cluster, app)?;
        for member in &mut self.members {
            member.pending_checkpoint = None;
        }
        self.epoch = epoch;
        // Epoch-boundary rotation; all-to-all sets are rotation-invariant.
        let all_to_all = self.witness_width >= (self.members.len() as u32).saturating_sub(1);
        if self.config.rotate_witnesses && !all_to_all {
            self.reassign_witness_sets(app);
            self.stats.witness_rotations += 1;
        }
        Ok(())
    }

    /// The record an incoming witness starts from after rotation.
    pub(super) fn incoming_record(
        &self,
        app: &A,
        node: u32,
        old_set: &[u32],
        old_pairs: &PairTable<A::Machine>,
        handover: &[Misbehavior],
    ) -> WitnessRecord<A::Machine> {
        let outgoing = || {
            old_set
                .iter()
                .filter_map(|&w| old_pairs.get(w, node).map(|p| &p.record))
        };
        // Preferred: take over at the latest certified checkpoint, with the
        // replay state of an outgoing record whose machine digest matches
        // the cosigned digest (verified handover).
        let certificate = self.members[node as usize].certificate.as_ref();
        let certified = certificate.and_then(|(mark, _)| {
            outgoing()
                .find(|r| {
                    r.audited_seq == mark.cut && r.machine.state_digest() == mark.state_digest
                })
                .map(|donor| (mark.cut, mark.head, donor))
        });
        // Otherwise: plain state handover from the furthest-audited
        // outgoing record (e.g. when this epoch's quorum was withheld but an
        // earlier prune already dropped the genesis prefix).
        let furthest = || {
            outgoing()
                .max_by_key(|r| r.audited_seq)
                .filter(|r| r.audited_seq > 0)
                .map(|donor| (donor.audited_seq, donor.audited_head, donor))
        };
        if let Some((seq, head, donor)) = certified.or_else(furthest) {
            return WitnessRecord::starting_at(
                seq,
                head,
                donor.machine.clone(),
                donor.pending_outputs(),
                handover.to_vec(),
            );
        }
        // Nothing audited yet: a fresh record auditing from genesis.
        let mut record = WitnessRecord::new(app.replay_machine());
        for evidence in handover {
            record.convict(evidence.clone());
        }
        record
    }

    /// Witness side of a checkpoint proposal: cosign only what this witness
    /// has itself verified — the proposed boundary must equal the audited
    /// prefix and the proposed state digest must equal the replayed
    /// reference machine's. A withholding witness stays silent; a forging
    /// witness has its (honest) device seal a *different* digest and claims
    /// otherwise — the proposer's checks reject it.
    pub(super) fn handle_checkpoint_propose(
        &mut self,
        witness: u32,
        mark: CheckpointMark,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        let node = mark.node;
        if !self.witnesses_of(node).contains(&witness)
            || !mark.consistent()
            || !self.attestation_verifies(witness, &mark.attestation)
        {
            return;
        }
        if self.withholds_cosignature(witness) {
            self.stats.cosignatures_withheld += 1;
            return;
        }
        let Some(record) = self.pairs.get(witness, node).map(|p| &p.record) else {
            return;
        };
        if record.verdict == Verdict::Exposed
            || record.audited_seq != mark.cut
            || record.audited_head != mark.head
        {
            return; // never vouch for an unverified (or convicted) prefix
        }
        let replayed = record.machine.state_digest();
        let Some(sealed_digest) = self.cosigned_digest(witness, mark.state_digest, replayed) else {
            return;
        };
        let payload = Cosignature::payload(
            witness,
            node,
            mark.epoch,
            mark.cut,
            &mark.head,
            &sealed_digest,
        );
        let (attestation, cost) = self.layer.borrow_mut().seal_payload(witness, &payload);
        self.clock.advance(cost);
        let cosig = Cosignature {
            witness,
            node,
            epoch: mark.epoch,
            cut: mark.cut,
            head: mark.head,
            // A forger claims to cover the real mark regardless of what it
            // actually sealed.
            state_digest: mark.state_digest,
            attestation,
        };
        self.stats.cosignatures_issued += 1;
        crate::checkpoint::trace_mark(
            tnic_obs::codes::CKPT_COSIGN,
            witness,
            node,
            &mark,
            self.clock.now().as_micros(),
        );
        outgoing.push((
            NodeId(witness),
            NodeId(node),
            Envelope::CheckpointCosign(cosig).into(),
        ));
    }

    /// Proposer side of a cosignature: count it towards the quorum only if
    /// it covers the pending mark exactly, is structurally consistent, and
    /// its seal verifies — a forged or tampered cosignature is rejected
    /// here without any effect on verdicts (accuracy is never at stake).
    pub(super) fn handle_checkpoint_cosign(&mut self, node: u32, cosig: &Cosignature) {
        let Some(pending) = self
            .members
            .get(node as usize)
            .and_then(|m| m.pending_checkpoint.as_ref())
        else {
            return;
        };
        let mark = pending.mark.clone();
        if cosig.node != node
            || !self.witnesses_of(node).contains(&cosig.witness)
            || !cosig.covers(&mark)
            || !cosig.consistent()
            || !self.attestation_verifies(node, &cosig.attestation)
        {
            self.stats.cosignatures_rejected += 1;
            return;
        }
        self.stats.cosignatures_collected += 1;
        self.members[node as usize]
            .pending_checkpoint
            .as_mut()
            .expect("pending checked")
            .cosigners
            .insert(cosig.witness, cosig.clone());
    }

    /// Witness side of a certified checkpoint: after verifying the mark and
    /// a quorum of distinct, valid cosignatures from the witness set, drop
    /// the stored commitments the checkpoint covers, and — if this witness
    /// lagged behind the quorum — fast-forward to the cosigned boundary
    /// (adopting the replay state of a quorum-verified fellow record).
    pub(super) fn handle_checkpoint_commit(
        &mut self,
        witness: u32,
        mark: &CheckpointMark,
        cosigs: &[Cosignature],
    ) {
        let node = mark.node;
        let witnesses = self.witnesses_of(node).to_vec();
        if !witnesses.contains(&witness)
            || !mark.consistent()
            || !self.attestation_verifies(witness, &mark.attestation)
        {
            return;
        }
        let mut signers: BTreeSet<u32> = BTreeSet::new();
        for cosig in cosigs {
            if cosig.covers(mark)
                && cosig.consistent()
                && witnesses.contains(&cosig.witness)
                && self.attestation_verifies(witness, &cosig.attestation)
            {
                signers.insert(cosig.witness);
            }
        }
        if signers.len() < cosign_quorum(witnesses.len()) {
            return;
        }
        let ctx = self.trace_ctx(witness, node);
        let lagging = self.pairs.get(witness, node).is_some_and(|p| {
            p.record.audited_seq < mark.cut && p.record.verdict != Verdict::Exposed
        });
        if lagging {
            // Adopt the replay state of a fellow record that sits exactly at
            // the certified boundary with the cosigned digest (the state
            // fetch a real witness performs, verified against the
            // certificate).
            let donor = witnesses.iter().find_map(|&w| {
                self.pairs.get(w, node).map(|p| &p.record).filter(|r| {
                    r.audited_seq == mark.cut && r.machine.state_digest() == mark.state_digest
                })
            });
            if let Some(donor) = donor {
                let machine = donor.machine.clone();
                let pending = donor.pending_outputs();
                if let Some(pair) = self.pairs.get_mut(witness, node) {
                    pair.record.trace = ctx;
                    pair.record
                        .fast_forward(mark.cut, mark.head, machine, pending);
                    pair.step(
                        PairEvent::FastForward,
                        ctx.round,
                        self.config.challenge_retries,
                    );
                }
            }
        }
        if let Some(pair) = self.pairs.get_mut(witness, node) {
            let dropped = pair.record.drop_commitments_upto(mark.cut) as u64;
            self.stats.commitments_pruned += dropped;
            tnic_obs::trace_event!(
                tnic_obs::EventKind::Prune,
                at_us: ctx.at_us,
                node: witness,
                peer: node,
                seq: mark.cut,
                aux: dropped
            );
        }
    }
}
