//! Fault injection, behind one seam. The honest modules ask the questions
//! below — which head a node commits, whether a witness audits, whether a
//! node answers a challenge, what a witness forwards or cosigns — and only
//! this module looks up a node's [`NodeFault`] to answer them. The
//! Byzantine host actions themselves (log tampering, truncation, forged
//! evidence) live here too. Every method is a plain inherent method: no
//! trait object, no generic parameter beyond the engine's own, no
//! allocation on the per-pair paths.

use super::*;
use crate::log::Authenticator;
use tnic_net::adversary::NodeFault;

/// What a witness forwards of the commitments it stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Forwarding {
    /// Evidence transfers and gossip relays alike.
    All,
    /// Evidence transfers, but no piggyback relays: a relay-refusing
    /// witness in piggyback mode.
    NoRelays,
    /// Nothing: a gossip-withholding witness suppresses all its
    /// witness-side forwarding.
    Nothing,
}

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// The witnesses of `node` that are themselves correct under the fault
    /// plan.
    #[must_use]
    pub fn correct_witnesses_of(&self, node: u32) -> Vec<u32> {
        self.witnesses_of(node)
            .iter()
            .copied()
            .filter(|&w| !self.faults.fault_of(w).is_byzantine())
            .collect()
    }

    /// The head `node` commits to in its `idx`-th commitment of a round,
    /// out of one per witness of its `witnesses`-strong set: its log head,
    /// unless its host equivocates. An equivocating host commits to a
    /// forked head in every other commitment; each seal is genuine (the
    /// TNIC attests whatever the host hands it) — the *pair* is the crime.
    /// With a single witness there is nobody to partition, so the fork
    /// goes to that witness directly and is exposed by the audit itself
    /// (head mismatch) rather than by gossip. The forked head is hashed
    /// only for an equivocator.
    pub(super) fn committed_head(
        &self,
        node: u32,
        idx: usize,
        witnesses: usize,
        head: [u8; 32],
    ) -> [u8; 32] {
        let fork_here = idx % 2 == 1 || witnesses == 1;
        if fork_here && self.faults.fault_of(node) == NodeFault::Equivocate {
            self.layer.borrow().forked_head(node)
        } else {
            head
        }
    }

    /// In piggyback mode, where `node` queues a forked commitment beside
    /// the one it queued for witness `target` of its `witnesses`-strong
    /// set, and the forked head: nowhere for a correct host; the next
    /// witness in the rotation for an equivocating one (the classic
    /// partition attempt, defeated by gossip cross-checking). With a single
    /// witness the fork already went to `target`
    /// ([`AccountabilityEngine::committed_head`]).
    pub(super) fn fork(
        &self,
        node: u32,
        target: usize,
        witnesses: usize,
    ) -> Option<(usize, [u8; 32])> {
        (witnesses > 1 && self.faults.fault_of(node) == NodeFault::Equivocate).then(|| {
            (
                (target + 1) % witnesses,
                self.layer.borrow().forked_head(node),
            )
        })
    }

    /// Whether the witness of `ctx` performs its audit duty towards the
    /// auditee this round. A silent witness skips it outright; its record
    /// simply never advances (and never convicts). A falsely suspecting
    /// witness skips the challenge *and* downgrades its verdict anyway — a
    /// lie that stays local, because suspicion carries no evidence and is
    /// never transferred (see the `audit` module docs). An associated
    /// function over the fields it touches, because its caller iterates
    /// the audit pairs mutably.
    pub(super) fn performs_audit_duty(
        faults: &FaultPlan,
        stats: &mut AccountabilityStats,
        record: &mut WitnessRecord<A::Machine>,
        ctx: TraceCtx,
    ) -> bool {
        match faults.fault_of(ctx.witness) {
            NodeFault::SilentWitness => {
                stats.challenges_skipped += 1;
                false
            }
            NodeFault::FalseSuspicion => {
                stats.challenges_skipped += 1;
                stats.false_suspicions += 1;
                record.trace = ctx;
                record.mark_unresponsive();
                false
            }
            _ => true,
        }
    }

    /// Whether `node` answers a challenge up to `upto_seq`. An
    /// audit-suppressing host stays silent with its configured probability
    /// (one draw of the engine's RNG per challenge it receives). A
    /// truncating host answers, but first rewrites its storage, once,
    /// *after* having committed: it discards everything from `drop_tail`
    /// entries before the challenged commitment onwards, so no audit can
    /// cover the committed prefix any more.
    pub(super) fn answers_challenge(&mut self, node: u32, upto_seq: u64) -> bool {
        match self.faults.fault_of(node) {
            NodeFault::SuppressAudits { probability } => !self.rng.chance(probability),
            NodeFault::TruncateLog { drop_tail } if !self.truncation_applied.contains(&node) => {
                let len = self.layer.borrow().log_len(node);
                let keep = upto_seq.saturating_sub(drop_tail);
                self.layer
                    .borrow_mut()
                    .truncate_tail(node, len.saturating_sub(keep));
                self.truncation_applied.insert(node);
                true
            }
            _ => true,
        }
    }

    /// What `witness` forwards of the commitments it stores: a
    /// gossip-withholding witness nothing, a relay-refusing one no
    /// piggyback relays (in dedicated mode it has none to refuse).
    pub(super) fn forwarding(&self, witness: u32) -> Forwarding {
        match self.faults.fault_of(witness) {
            NodeFault::WithholdGossip => Forwarding::Nothing,
            NodeFault::RefuseRelay if self.config.piggyback => Forwarding::NoRelays,
            _ => Forwarding::All,
        }
    }

    /// Whether `witness` withholds its cosignature from every checkpoint
    /// proposal.
    pub(super) fn withholds_cosignature(&self, witness: u32) -> bool {
        self.faults.fault_of(witness) == NodeFault::WithholdCosignatures
    }

    /// The state digest `witness` has its device seal when cosigning a mark
    /// that claims `claimed`, having replayed the node to `replayed`: the
    /// claimed digest when the two agree, none when they differ. A forging
    /// witness skips the comparison and has its device seal a forged digest;
    /// the device complies (it seals whatever it is handed) but the
    /// cosignature it produces cannot be passed off as covering the real
    /// checkpoint.
    pub(super) fn cosigned_digest(
        &self,
        witness: u32,
        claimed: [u8; 32],
        replayed: [u8; 32],
    ) -> Option<[u8; 32]> {
        if self.faults.fault_of(witness) == NodeFault::ForgeCosignatures {
            let mut forged = claimed;
            forged[0] ^= 0xFF;
            Some(forged)
        } else {
            (replayed == claimed).then_some(claimed)
        }
    }

    /// A host that tampers with its log does so before committing, so the
    /// forged log is internally consistent and only replay can expose it.
    pub(super) fn apply_scheduled_tampering(&mut self) {
        // Fault-free fast path: large-n sweep grid points run without an
        // adversary, so they never pay the per-round Byzantine bookkeeping.
        if self.faults.is_all_correct() {
            return;
        }
        for node in self.faults.byzantine_nodes() {
            if let NodeFault::TamperLogEntry { seq } = self.faults.fault_of(node) {
                if !self.tamper_applied.contains(&node)
                    && self.layer.borrow_mut().tamper_exec_at_or_after(node, seq)
                {
                    self.tamper_applied.insert(node);
                }
            }
        }
    }

    /// The Byzantine forging step: every `ForgeEvidence` witness fabricates
    /// one equivocation accusation per auditee — a genuine commitment (when
    /// it holds one) paired with a forged counterpart whose seal its *own*
    /// honest device produced, since the auditee's TNIC cannot be made to
    /// sign a head its host never committed — and broadcasts the pair to
    /// the auditee's fellow witnesses. The forged seal fails the
    /// device/session binding at every receiver, so the accusation is
    /// rejected and turned against the forger
    /// ([`Misbehavior::ForgedAccusation`](crate::audit::Misbehavior::ForgedAccusation)).
    pub(super) fn fabricate_evidence(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
        let forgers: Vec<u32> = self
            .faults
            .byzantine_nodes()
            .into_iter()
            .filter(|&n| self.faults.fault_of(n) == NodeFault::ForgeEvidence)
            .collect();
        if forgers.is_empty() {
            return Ok(());
        }
        let mut outgoing: Vec<(NodeId, NodeId, Envelope)> = Vec::new();
        for forger in forgers {
            let auditees: Vec<u32> = (0..)
                .zip(&self.members)
                .filter(|(_, member)| member.witnesses.contains(&forger))
                .map(|(node, _)| node)
                .collect();
            for auditee in auditees {
                if self.evidence_forged.contains(&(forger, auditee)) {
                    continue;
                }
                // Base the forgery on the newest real commitment if one is
                // held (the more plausible lie); fabricate from thin air
                // otherwise.
                let real = self
                    .pairs
                    .get(forger, auditee)
                    .and_then(|p| p.record.commitments.iter().max_by_key(|a| a.seq))
                    .cloned();
                let (seq, head) = real.as_ref().map_or((1, [0x5Au8; 32]), |a| (a.seq, a.head));
                // A commitment to `head` in the auditee's name, sealed on
                // the forger's own device.
                let forge = |head: [u8; 32]| {
                    let payload = Authenticator::payload(auditee, seq, &head);
                    let (attestation, cost) =
                        self.layer.borrow_mut().seal_payload(forger, &payload);
                    self.clock.advance(cost);
                    Authenticator {
                        node: auditee,
                        seq,
                        head,
                        attestation,
                    }
                };
                let mut forged_head = head;
                forged_head[0] ^= 0xFF;
                let forged = forge(forged_head);
                // No genuine half available: forge that one too.
                let a = real.unwrap_or_else(|| forge(head));
                self.evidence_forged.insert((forger, auditee));
                for &fellow in &self.members[auditee as usize].witnesses {
                    if fellow != forger && fellow != auditee {
                        self.stats.forged_evidence_sent += 1;
                        outgoing.push((
                            NodeId(forger),
                            NodeId(fellow),
                            Envelope::Evidence {
                                a: a.clone(),
                                b: forged.clone(),
                            },
                        ));
                    }
                }
            }
        }
        for (from, to, env) in outgoing {
            self.send_control(cluster, from, to, &env)?;
        }
        Ok(())
    }
}
