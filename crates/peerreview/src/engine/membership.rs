//! Membership: join, depart, crash and recover, and the witness-set
//! reassignment that joins and epoch rotations share.

use super::*;
use crate::checkpoint::{shard_members, sharded_witness_set, witness_set};

/// Effective witnesses per node out of `n` members: the configured
/// `witness_count` (all others when unset), clamped to `1..=n-1`.
pub(super) fn witness_width(witness_count: Option<u32>, n: usize) -> u32 {
    let n = n as u32;
    witness_count
        .unwrap_or(n.saturating_sub(1))
        .clamp(u32::from(n > 1), n.saturating_sub(1).max(1))
}

/// Whether `node` is currently unable to participate (crashed or
/// departed): not challenged, not committing, unreachable. A free function
/// so that loops holding the witness records mutably can ask it too.
pub(super) fn is_down(membership: &BTreeMap<u32, MemberPhase>, node: u32) -> bool {
    matches!(
        membership.get(&node),
        Some(MemberPhase::Crashed | MemberPhase::Departed)
    )
}

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// Records a phase transition and traces it.
    pub(super) fn set_phase(&mut self, node: u32, phase: MemberPhase) {
        self.membership.insert(node, phase);
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Membership,
            at_us: self.clock.now().as_micros(),
            node: node,
            round: self.audit_rounds_done,
            aux: phase.code()
        );
    }

    /// Crash-stops `node`: it becomes unreachable (sends touching it are
    /// refused and counted by the cluster, never silently lost) and is no
    /// longer challenged or expected to commit. Witnesses whose challenge
    /// was in flight may transiently suspect it — silence is never proof,
    /// so a crashed correct node is never exposed.
    pub fn crash_node(&mut self, cluster: &mut Cluster, node: u32) {
        if is_down(&self.membership, node) {
            return;
        }
        self.set_phase(node, MemberPhase::Crashed);
        cluster.mark_unreachable(NodeId(node), "crashed");
        self.stats.crashes += 1;
    }

    /// Brings a crashed `node` back: the cluster link is restored and the
    /// node re-announces its current sealed log head ([`Envelope::Recover`])
    /// to its witnesses. An honest recovery is consistent with the
    /// pre-crash commitments the witnesses hold and merely resumes the
    /// audit (a transient suspicion clears on the next successful replay);
    /// a tampered one conflicts or fails replay and is exposed. The phase
    /// returns to Active at the end of the next audit round.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the recovery announcement.
    pub fn recover_node(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
        node: u32,
    ) -> Result<(), CoreError> {
        if self.member_phase(node) != MemberPhase::Crashed {
            return Ok(());
        }
        cluster.mark_reachable(NodeId(node));
        self.set_phase(node, MemberPhase::Recovering);
        self.stats.recoveries += 1;
        // A forging host rewrites while it is down, before re-committing —
        // which is exactly what distinguishes a tampering recoverer (head
        // conflicts or replay diverges → exposed) from an honest one.
        self.apply_scheduled_tampering();
        let (seq, head, _) = self.layer.borrow().commitment_data(node);
        if seq > 0 {
            let auth = self.publish_commitment(node, seq, head);
            for witness in self.witnesses_of(node).to_vec() {
                self.send_control(
                    cluster,
                    NodeId(node),
                    NodeId(witness),
                    &Envelope::Recover(auth.clone()),
                )?;
            }
            self.sweep_until_quiet(cluster, app)?;
        }
        Ok(())
    }

    /// Gracefully removes `node`: it seals a final commitment and ships it
    /// with its unaudited log tail ([`Envelope::Leave`]) to every witness —
    /// closing the audit before the node goes away — then becomes
    /// unreachable for good. The sealed log and all verdicts remain with
    /// the witnesses: a tampered tail convicts on the way out, and an
    /// exposure verdict survives the departure.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the farewell traffic.
    pub fn depart_node(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
        node: u32,
    ) -> Result<(), CoreError> {
        if is_down(&self.membership, node) {
            return Ok(());
        }
        self.set_phase(node, MemberPhase::Leaving);
        // A forging leaver rewrites before sealing its farewell; the tail
        // replay below convicts it on the way out.
        self.apply_scheduled_tampering();
        let (seq, head, _) = self.layer.borrow().commitment_data(node);
        let base = self.layer.borrow().base_seq(node);
        if seq > 0 {
            let auth = self.publish_commitment(node, seq, head);
            // The full retained tail: each witness aligns it to its own
            // audited prefix.
            let entries = self.layer.borrow().segment_ref(node, base, seq).to_vec();
            for witness in self.witnesses_of(node).to_vec() {
                self.send_control(
                    cluster,
                    NodeId(node),
                    NodeId(witness),
                    &Envelope::Leave {
                        auth: auth.clone(),
                        entries: entries.clone(),
                    },
                )?;
            }
            self.sweep_until_quiet(cluster, app)?;
        }
        self.set_phase(node, MemberPhase::Departed);
        cluster.mark_unreachable(NodeId(node), "departed");
        self.stats.departures += 1;
        Ok(())
    }

    /// Adds a new node `id` to the running deployment: cluster endpoint and
    /// sessions, a log-session key drawn from the engine's `DetRng` (the
    /// joiner's key is installed on every audit kernel, every existing key
    /// on the joiner's), witness sets
    /// re-derived over the grown membership, and the joiner's initial
    /// sealed head announced to its new witnesses ([`Envelope::Join`]).
    /// Where the joiner itself becomes a witness it bootstraps from the
    /// latest cosigned checkpoint certificate (verified donor handover), so
    /// it audits from a quorum-vouched boundary.
    ///
    /// `id` should be the next unused node id (witness rotation arithmetic
    /// assumes contiguous ids `0..n`).
    ///
    /// # Errors
    ///
    /// Propagates cluster connection and attestation errors.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already a member.
    pub fn join_node(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
        id: u32,
    ) -> Result<NodeId, CoreError> {
        let node = NodeId(id);
        assert!(!self.nodes.contains(&node), "node {id} is already a member");
        cluster.add_node(node);
        // Sessions with every existing member, reachable or not: the
        // cluster installs session keys directly, so a currently-crashed
        // node can talk to the joiner after it recovers.
        for peer in self.nodes.clone() {
            cluster.connect(node, peer)?;
        }
        self.set_phase(id, MemberPhase::Joining);
        // Log-session keys: the joiner's, drawn from the engine's `DetRng`,
        // is installed on its own sealer and on every verification kernel;
        // the joiner's kernel learns every existing key so it can verify
        // seals as a witness.
        let key = self.rng.bytes32();
        self.seal_keys.insert(id, key);
        self.layer
            .borrow_mut()
            .register_node(id, self.config.baseline, key);
        let mut kernel = Provider::new(self.config.baseline, node.device(), self.config.seed);
        for (&n, &k) in &self.seal_keys {
            kernel.install_session_key(log_session(n), k);
        }
        self.audit_kernels.insert(id, kernel);
        for kernel in self.audit_kernels.values_mut() {
            kernel.install_session_key(log_session(id), key);
        }
        self.nodes.push(node);
        self.shadows.insert(id, app.replay_machine());
        app.on_join(id);
        self.witness_width = witness_width(self.config.witness_count, self.nodes.len());
        self.reassign_witness_sets(app);
        // Announce the joiner's (empty) initial head so witnesses hold its
        // base commitment from day one.
        let (seq, head, _) = self.layer.borrow().commitment_data(id);
        let auth = self.publish_commitment(id, seq, head);
        for witness in self.witnesses_of(id).to_vec() {
            self.send_control(
                cluster,
                node,
                NodeId(witness),
                &Envelope::Join(auth.clone()),
            )?;
        }
        self.sweep_until_quiet(cluster, app)?;
        self.set_phase(id, MemberPhase::Active);
        self.stats.joins += 1;
        Ok(node)
    }

    /// Re-derives every witness set ([`witness_set`]) over the current
    /// membership at the current epoch: the reconfiguration step of a join,
    /// and of an epoch rotation, so that no witness shadows the same auditee
    /// across epochs. Records carry over
    /// for surviving (witness, auditee) pairs; incoming witnesses take over
    /// at the latest certified checkpoint via verified donor handover, or
    /// from genesis when no checkpoint exists, and exposure evidence held
    /// by the outgoing set is handed over so verdicts survive
    /// reconfiguration. Outgoing pairs are dropped with every piece of
    /// per-pair state — reassignment is also garbage collection — so a
    /// pair the ring later hands back starts with a fresh retry budget.
    pub(super) fn reassign_witness_sets(&mut self, app: &A) {
        let old_records = std::mem::take(&mut self.records);
        let old_witnesses = std::mem::take(&mut self.witnesses);
        let ids: Vec<u32> = self.nodes.iter().map(|n| n.0).collect();
        let groups = Self::shard_groups(&ids, self.config.shards, self.config.seed);
        let new_sets =
            Self::derive_witness_sets(&ids, self.witness_width, self.epoch, groups.as_deref());
        for node in self.nodes.clone() {
            let node = node.0;
            let old_set = old_witnesses.get(&node).cloned().unwrap_or_default();
            let new_set = new_sets.get(&node).cloned().unwrap_or_default();
            // Evidence handover: whatever proof the outgoing set holds
            // travels to the incoming set (conflicting commitments are
            // transferable seals; replay verdicts carry the signed audit
            // transcript in a real deployment).
            let handover: Vec<Misbehavior> = old_set
                .iter()
                .filter_map(|&w| old_records.get(&(w, node)))
                .find(|r| r.verdict == Verdict::Exposed)
                .map(|r| r.evidence.clone())
                .unwrap_or_default();
            for &witness in &new_set {
                let record = if let Some(kept) = old_records.get(&(witness, node)) {
                    kept.clone()
                } else {
                    self.stats.witness_handovers += 1;
                    self.incoming_record(app, node, &old_set, &old_records, &handover)
                };
                self.records.insert((witness, node), record);
            }
            self.carry_audit_offsets(node, &old_set, &new_set);
            self.witnesses.insert(node, new_set);
        }
        self.challenge_started
            .retain(|pair, _| self.records.contains_key(pair));
        self.retry_state
            .retain(|pair, _| self.records.contains_key(pair));
        self.last_audit_round
            .retain(|pair, _| self.records.contains_key(pair));
        self.provision_witness_keys();
    }

    /// Sampled-audit coverage across witness handover: the coverage-window
    /// backstop keys off `last_audit_round`, so an incoming witness with no
    /// entry would restart the never-sampled stagger and stretch a node's
    /// worst-case unaudited stretch past the configured window. Incoming
    /// pairs inherit the most recent audit round any outgoing witness
    /// completed for the node; surviving pairs keep their own clock.
    fn carry_audit_offsets(&mut self, node: u32, old_set: &[u32], new_set: &[u32]) {
        let carried = old_set
            .iter()
            .filter_map(|&w| self.last_audit_round.get(&(w, node)).copied())
            .max();
        if let Some(carried) = carried {
            for &witness in new_set {
                self.last_audit_round
                    .entry((witness, node))
                    .or_insert(carried);
            }
        }
    }

    /// The consistent-hash shard groups for `ids`, or `None` when sharding
    /// is disabled (`shards <= 1` behaves byte-identically to the classic
    /// assignment).
    pub(super) fn shard_groups(ids: &[u32], shards: u32, seed: u64) -> Option<Vec<Vec<u32>>> {
        (shards > 1).then(|| shard_members(ids, shards, seed))
    }

    /// The witness assignment for every node: classic ring rotation over
    /// the whole membership, or — sharded — the same rotation confined to
    /// each node's shard co-members.
    pub(super) fn derive_witness_sets(
        ids: &[u32],
        w: u32,
        epoch: u64,
        groups: Option<&[Vec<u32>]>,
    ) -> BTreeMap<u32, Vec<u32>> {
        match groups {
            None => {
                let n = ids.len() as u32;
                ids.iter()
                    .map(|&id| (id, witness_set(id, n, w, epoch)))
                    .collect()
            }
            Some(groups) => {
                let mut out = BTreeMap::new();
                for group in groups {
                    for &id in group {
                        out.insert(id, sharded_witness_set(id, group, w, epoch));
                    }
                }
                out
            }
        }
    }

    /// Ensures every witness kernel holds the log-session key of every
    /// charge it was just assigned. A no-op when unsharded (attach and join
    /// install all keys everywhere); sharded, churn can merge or split
    /// groups and hand a witness a charge whose key it never saw.
    fn provision_witness_keys(&mut self) {
        if self.config.shards <= 1 {
            return;
        }
        for &(witness, node) in self.records.keys() {
            if let (Some(kernel), Some(&key)) = (
                self.audit_kernels.get_mut(&witness),
                self.seal_keys.get(&node),
            ) {
                kernel.install_session_key(log_session(node), key);
            }
        }
    }
}
