//! Membership: join, depart, crash and recover, and the witness-set
//! reassignment that joins and epoch rotations share.

use super::*;
use crate::checkpoint::sharded_witness_set;

/// Effective witnesses per node out of `n` members: the configured
/// `witness_count` (all others when unset), clamped to `1..=n-1`.
pub(super) fn witness_width(witness_count: Option<u32>, n: usize) -> u32 {
    let n = n as u32;
    witness_count
        .unwrap_or(n.saturating_sub(1))
        .clamp(u32::from(n > 1), n.saturating_sub(1).max(1))
}

/// The witness set of every node, indexed by node id, for the shard
/// `groups` of the membership `0..n` at `epoch`: the same ring rotation
/// within each group ([`sharded_witness_set`]). Unsharded, the one group
/// is the whole membership.
pub(super) fn witness_sets(groups: &[Vec<u32>], w: u32, epoch: u64) -> Vec<Vec<u32>> {
    let mut sets = vec![Vec::new(); groups.iter().map(Vec::len).sum()];
    for group in groups {
        for &id in group {
            sets[id as usize] = sharded_witness_set(id, group, w, epoch);
        }
    }
    sets
}

/// Whether `node` is currently unable to participate (crashed or
/// departed): not challenged, not committing, unreachable. A free function
/// so that loops holding the audit pairs mutably can ask it too.
pub(super) fn is_down<M>(members: &[Member<M>], node: u32) -> bool {
    members
        .get(node as usize)
        .is_some_and(|m| matches!(m.phase, MemberPhase::Crashed | MemberPhase::Departed))
}

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// Records a phase transition and traces it.
    pub(super) fn set_phase(&mut self, node: u32, phase: MemberPhase) {
        self.members[node as usize].phase = phase;
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
        if is_down(&self.members, node) {
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
            let recover = Envelope::Recover(self.publish_commitment(node, seq, head));
            for witness in self.witnesses_of(node).to_vec() {
                self.send_control(cluster, NodeId(node), NodeId(witness), &recover)?;
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
        if is_down(&self.members, node) {
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
            let leave = Envelope::Leave { auth, entries };
            for witness in self.witnesses_of(node).to_vec() {
                self.send_control(cluster, NodeId(node), NodeId(witness), &leave)?;
            }
            self.sweep_until_quiet(cluster, app)?;
        }
        self.set_phase(node, MemberPhase::Departed);
        cluster.mark_unreachable(NodeId(node), "departed");
        self.stats.departures += 1;
        Ok(())
    }

    /// Adds a new node `id` to the running deployment: cluster endpoint and
    /// sessions, a log-session key drawn from the engine's `DetRng` (every
    /// member holds the joiner's key, the joiner every existing key), witness
    /// sets
    /// re-derived over the grown membership, and the joiner's initial
    /// sealed head announced to its new witnesses ([`Envelope::Join`]).
    /// Where the joiner itself becomes a witness it bootstraps from the
    /// latest cosigned checkpoint certificate (verified donor handover), so
    /// it audits from a quorum-vouched boundary.
    ///
    /// `id` must be the next unused node id, the current member count:
    /// the engine indexes its members by id, and witness rotation assumes
    /// contiguous ids `0..n`.
    ///
    /// # Errors
    ///
    /// Propagates cluster connection and attestation errors.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the next unused node id.
    pub fn join_node(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
        id: u32,
    ) -> Result<NodeId, CoreError> {
        assert_eq!(
            id as usize,
            self.members.len(),
            "node {id} is not the next unused node id"
        );
        let node = NodeId(id);
        cluster.add_node(node);
        // Sessions with every existing member, reachable or not: the
        // cluster installs session keys directly, so a currently-crashed
        // node can talk to the joiner after it recovers.
        for peer in 0..id {
            cluster.connect(node, NodeId(peer))?;
        }
        // Log-session keys: the joiner's, drawn from the engine's `DetRng`,
        // is installed on its own sealer and held once by the engine; every
        // member now holds it, and the joiner holds every existing key so
        // it can verify seals as a witness.
        let key = self.rng.bytes32();
        self.layer
            .borrow_mut()
            .register_node(id, self.config.baseline, key);
        self.log_keys.push(HmacSha256Key::new(&key));
        for member in &mut self.members {
            member.held.push(id);
        }
        let kernel = Provider::new(self.config.baseline, node.device(), self.config.seed);
        self.members.push(Member::new(
            kernel,
            (0..=id).collect(),
            app.replay_machine(),
        ));
        self.set_phase(id, MemberPhase::Joining);
        app.on_join(id);
        self.witness_width = witness_width(self.config.witness_count, self.members.len());
        self.reassign_witness_sets(app);
        // Announce the joiner's (empty) initial head so witnesses hold its
        // base commitment from day one.
        let (seq, head, _) = self.layer.borrow().commitment_data(id);
        let join = Envelope::Join(self.publish_commitment(id, seq, head));
        for witness in self.witnesses_of(id).to_vec() {
            self.send_control(cluster, node, NodeId(witness), &join)?;
        }
        self.sweep_until_quiet(cluster, app)?;
        self.set_phase(id, MemberPhase::Active);
        self.stats.joins += 1;
        Ok(node)
    }

    /// Re-derives every witness set ([`witness_sets`]) over the current
    /// membership at the current epoch: the reconfiguration step of a join,
    /// and of an epoch rotation, so that no witness shadows the same auditee
    /// across epochs. Surviving (witness, auditee) pairs carry over whole;
    /// incoming witnesses take over at the latest certified checkpoint via
    /// verified donor handover, or from genesis when no checkpoint exists,
    /// and exposure evidence held by the outgoing set is handed over so
    /// verdicts survive reconfiguration. Outgoing pairs are dropped with
    /// all their state — reassignment is also garbage collection — and a
    /// pair the ring later hands back starts fresh, with no challenge in
    /// flight and a full retry budget (`PairEvent::HandedBack`).
    ///
    /// Sampled-audit coverage across handover: the coverage-window backstop
    /// keys off a pair's last selection, so an incoming witness with none
    /// would restart the never-sampled stagger and stretch a node's
    /// worst-case unaudited stretch past the configured window. Incoming
    /// pairs (and surviving ones never selected) inherit the most recent
    /// round any outgoing witness selected the node; surviving pairs keep
    /// their own clock.
    pub(super) fn reassign_witness_sets(&mut self, app: &A) {
        let mut old_pairs = std::mem::take(&mut self.pairs);
        let ids: Vec<u32> = self.ids().collect();
        let groups = shard_members(&ids, self.config.shards, self.config.seed);
        let new_sets = witness_sets(&groups, self.witness_width, self.epoch);
        let (round, retries) = (self.audit_rounds_done, self.config.challenge_retries);
        for (node, new_set) in ids.into_iter().zip(new_sets) {
            let old_set = std::mem::take(&mut self.members[node as usize].witnesses);
            let outgoing = || old_set.iter().filter_map(|&w| old_pairs.get(&(w, node)));
            // Evidence handover: whatever proof the outgoing set holds
            // travels to the incoming set (conflicting commitments are
            // transferable seals; replay verdicts carry the signed audit
            // transcript in a real deployment).
            let handover: Vec<Misbehavior> = outgoing()
                .find(|p| p.record.verdict == Verdict::Exposed)
                .map(|p| p.record.evidence.clone())
                .unwrap_or_default();
            let carried = outgoing().filter_map(AuditPair::last_selected).max();
            // Incoming pairs first, while the outgoing ones can still
            // donate their state; then the kept pairs move over whole.
            let mut pairs: Vec<(u32, AuditPair<A::Machine>)> = new_set
                .iter()
                .filter(|&&witness| !old_pairs.contains_key(&(witness, node)))
                .map(|&witness| {
                    let record = self.incoming_record(app, node, &old_set, &old_pairs, &handover);
                    let mut pair = AuditPair::new(record);
                    pair.step(PairEvent::HandedBack { carried }, round, retries);
                    (witness, pair)
                })
                .collect();
            self.stats.witness_handovers += pairs.len() as u64;
            pairs.extend(new_set.iter().filter_map(|&witness| {
                let mut pair = old_pairs.remove(&(witness, node))?;
                pair.step(PairEvent::Kept { carried }, round, retries);
                Some((witness, pair))
            }));
            for (witness, pair) in pairs {
                self.pairs.insert((witness, node), pair);
            }
            self.members[node as usize].witnesses = new_set;
        }
        self.provision_witness_keys();
    }

    /// Ensures every witness holds the log-session key of every charge it
    /// was just assigned. A no-op when unsharded (attach and join hand
    /// every member every key); sharded, churn can merge or split groups and
    /// hand a witness a charge whose key it never held.
    fn provision_witness_keys(&mut self) {
        if self.config.shards <= 1 {
            return;
        }
        for &(witness, node) in self.pairs.keys() {
            let held = &mut self.members[witness as usize].held;
            if let Err(at) = held.binary_search(&node) {
                held.insert(at, node);
            }
        }
    }
}
