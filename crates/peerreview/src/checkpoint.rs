//! Cosigned checkpoints: bounded logs, garbage collection and the epoch
//! boundary for witness rotation.
//!
//! Without checkpoints every tamper-evident [`SecureLog`](crate::log::SecureLog)
//! grows without bound — one entry per send/receive/execute forever — and
//! each witness accrues one stored commitment per audit round. The
//! checkpoint protocol turns the audited prefix into a compact, *cosigned*
//! root so both can be discarded, which is what lets the accountability
//! engine run as a long-lived service.
//!
//! # Lifecycle: propose → cosign → prune → rotate
//!
//! 1. **Propose.** After every `checkpoint_interval` audit rounds, each node
//!    appends a [`EntryKind::Checkpoint`](crate::log::EntryKind::Checkpoint)
//!    entry to its log and sends its witnesses a [`CheckpointMark`]: the
//!    audited log boundary `(cut, head)` plus the application state digest
//!    captured when that boundary was committed, all sealed by the node's
//!    TNIC on its log session (`Envelope::CheckpointPropose`).
//! 2. **Cosign.** A witness cosigns only what it has *verified*: the mark's
//!    boundary must equal its audited prefix (`audited_seq == cut`,
//!    `audited_head == head`), the state digest must equal its own replayed
//!    reference machine's digest, and the node must not already be exposed.
//!    The cosignature ([`Cosignature`]) is sealed by the witness's own TNIC
//!    on *its* log session, so it is transferably verifiable by anyone
//!    holding the witness's session key (`Envelope::CheckpointCosign`).
//! 3. **Prune.** Once the node has collected a quorum
//!    ([`cosign_quorum`]: a strict majority of its witness set) of valid
//!    cosignatures, it broadcasts the certificate
//!    (`Envelope::CheckpointCommit`) to its witnesses and prunes the log
//!    prefix below `cut`. Witnesses verify the certificate, drop their
//!    stored commitments covered by it, and — if they lagged behind the
//!    quorum — fast-forward their audit state to the cosigned boundary
//!    (checkpoint-relative audits: silence about pruned history is no
//!    longer suspicious, because the quorum already vouched for it).
//! 4. **Rotate.** Checkpoint epochs are also the witness-rotation boundary:
//!    with `rotate_witnesses` enabled and `witness_count < n - 1`, witness
//!    sets shift deterministically each epoch so no slow or faulty witness
//!    shadows the same auditee forever. The outgoing set's cosigned
//!    checkpoint hands the incoming set a verified starting state (audit
//!    prefix, replay machine and in-flight expected outputs); a node whose
//!    checkpoint did not complete keeps its full log, so incoming witnesses
//!    simply audit from genesis.
//!
//! # Why this is safe
//!
//! * **Completeness is preserved.** Pruning only removes history a quorum
//!   of witnesses has already audited and cosigned. Faults *inside* the
//!   pruned prefix were either exposed before the checkpoint (exposed
//!   nodes never get cosignatures — every witness declines) or the
//!   evidence is carried by the retained commitments/evidence records.
//!   Faults *after* the checkpoint are caught by ordinary
//!   checkpoint-relative audits: the retained suffix still chains from the
//!   cosigned `head`, and the witness's reference machine continues from
//!   the cosigned state.
//! * **Accuracy is preserved.** A checkpoint mark is sealed by the node's
//!   honest TNIC, a cosignature by the witness's — neither can be forged,
//!   and a Byzantine witness host that asks its device to seal a *different*
//!   digest produces a cosignature that fails the content check at the
//!   node. Withheld or forged cosignatures can therefore delay a prune
//!   (until the quorum is met, possibly after the withholder rotates out)
//!   but can never expose a correct node.
//! * **The checkpoint itself is audited.** The
//!   [`EntryKind::Checkpoint`](crate::log::EntryKind::Checkpoint) entry
//!   embeds the same payload as the sealed mark; witnesses replaying a
//!   segment re-verify the embedded digest against their reference machine
//!   ([`Misbehavior::CheckpointMismatch`](crate::audit::Misbehavior)), so
//!   tampering with recorded checkpoints is exposed exactly like tampering
//!   with execution outputs.

use crate::log::log_session;
use tnic_device::attestation::AttestedMessage;
use tnic_device::error::DeviceError;
use tnic_device::types::DeviceId;

/// Domain-separation prefix of checkpoint-mark payloads.
pub const CHECKPOINT_DOMAIN: &[u8; 12] = b"TNIC-PR-CKPT";

/// Domain-separation prefix of cosignature payloads.
pub const COSIGN_DOMAIN: &[u8; 12] = b"TNIC-PR-COSN";

/// Maximum cosignatures a checkpoint certificate may carry on the wire
/// (bounds decode preallocation on untrusted input; real sets are `n - 1`).
pub const MAX_COSIGNERS: usize = 64;

/// The number of cosignatures that certify a checkpoint: a strict majority
/// of the witness set. A minority of withholding or forging witnesses can
/// delay a prune but never block it forever (rotation replaces them), and
/// at least one cosigner is honest whenever a majority of witnesses is.
#[must_use]
pub fn cosign_quorum(witness_count: usize) -> usize {
    witness_count / 2 + 1
}

/// Emits the checkpoint-lifecycle trace event for `mark` (`phase` is one of
/// [`tnic_obs::codes::CKPT_PROPOSE`], [`tnic_obs::codes::CKPT_COSIGN`],
/// [`tnic_obs::codes::CKPT_CERTIFY`]); `actor` is the node performing the
/// step and `peer` its counterpart (the proposer for a cosignature, the
/// witness set representative for a broadcast, or [`tnic_obs::NONE`]).
pub fn trace_mark(phase: u64, actor: u32, peer: u32, mark: &CheckpointMark, at_us: u64) {
    tnic_obs::trace_event!(
        tnic_obs::EventKind::Checkpoint,
        at_us: at_us,
        node: actor,
        peer: peer,
        seq: mark.cut,
        round: mark.epoch,
        aux: phase
    );
}

/// A checkpoint proposal: `(node, epoch, cut, head, state_digest)` sealed by
/// the proposing node's TNIC on its log session.
///
/// `cut` is the audited log boundary the checkpoint covers (entries
/// `0..cut`), `head` the log head at that boundary, and `state_digest` the
/// application state digest captured when the boundary was committed —
/// exactly what a witness that audited through `cut` can verify against its
/// own replayed reference machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMark {
    /// The proposing node.
    pub node: u32,
    /// The checkpoint epoch (1-based; epoch `e` is the `e`-th checkpoint
    /// round).
    pub epoch: u64,
    /// The audited log boundary the checkpoint covers (entries `0..cut`).
    pub cut: u64,
    /// The log head at `cut`.
    pub head: [u8; 32],
    /// The application state digest at `cut`.
    pub state_digest: [u8; 32],
    /// The TNIC seal over the mark.
    pub attestation: AttestedMessage,
}

/// The identifying fields of a checkpoint mark:
/// `(node, epoch, cut, head, state_digest)`.
pub type MarkFields = (u32, u64, u64, [u8; 32], [u8; 32]);

fn mark_fields(payload: &[u8], domain: &[u8; 12]) -> Option<MarkFields> {
    if payload.len() != 12 + 4 + 8 + 8 + 32 + 32 || &payload[..12] != domain {
        return None;
    }
    let node = u32::from_le_bytes(payload[12..16].try_into().ok()?);
    let epoch = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let cut = u64::from_le_bytes(payload[24..32].try_into().ok()?);
    let mut head = [0u8; 32];
    head.copy_from_slice(&payload[32..64]);
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&payload[64..96]);
    Some((node, epoch, cut, head, digest))
}

/// The fields of a cosignature payload: `(witness, mark fields)`.
fn cosign_fields(payload: &[u8]) -> Option<(u32, MarkFields)> {
    if payload.len() != 12 + 4 + 4 + 8 + 8 + 32 + 32 || &payload[..12] != COSIGN_DOMAIN {
        return None;
    }
    let witness = u32::from_le_bytes(payload[12..16].try_into().ok()?);
    let node = u32::from_le_bytes(payload[16..20].try_into().ok()?);
    let epoch = u64::from_le_bytes(payload[20..28].try_into().ok()?);
    let cut = u64::from_le_bytes(payload[28..36].try_into().ok()?);
    let head = payload[36..68].try_into().ok()?;
    let digest = payload[68..100].try_into().ok()?;
    Some((witness, (node, epoch, cut, head, digest)))
}

impl CheckpointMark {
    /// The canonical attestation payload for a checkpoint mark. The same
    /// bytes are recorded as the content of the node's
    /// [`EntryKind::Checkpoint`](crate::log::EntryKind::Checkpoint) log
    /// entry, so replay can re-verify the digest.
    #[must_use]
    pub fn payload(
        node: u32,
        epoch: u64,
        cut: u64,
        head: &[u8; 32],
        state_digest: &[u8; 32],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 4 + 8 + 8 + 32 + 32);
        out.extend_from_slice(CHECKPOINT_DOMAIN);
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&cut.to_le_bytes());
        out.extend_from_slice(head);
        out.extend_from_slice(state_digest);
        out
    }

    /// Parses the fields out of a checkpoint log-entry content (the mark
    /// payload), used by witnesses replaying a segment.
    #[must_use]
    pub fn parse_payload(content: &[u8]) -> Option<MarkFields> {
        mark_fields(content, CHECKPOINT_DOMAIN)
    }

    /// Whether the carried attestation structurally matches the claimed
    /// fields: payload equality, issuing device and session. Cryptographic
    /// verification is separate (the witness's kernel).
    #[must_use]
    pub fn consistent(&self) -> bool {
        mark_fields(&self.attestation.payload, CHECKPOINT_DOMAIN)
            == Some((
                self.node,
                self.epoch,
                self.cut,
                self.head,
                self.state_digest,
            ))
            && self.attestation.device == DeviceId(self.node)
            && self.attestation.session == log_session(self.node)
    }

    /// Serialises the mark (the fields are recovered from the attested
    /// payload on decode).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.attestation.encode()
    }

    /// Parses a mark from an encoded attested message.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] if the wire bytes or the
    /// attested payload are malformed.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeviceError> {
        let attestation = AttestedMessage::decode(bytes)?;
        let (node, epoch, cut, head, state_digest) =
            mark_fields(&attestation.payload, CHECKPOINT_DOMAIN)
                .ok_or(DeviceError::MalformedMessage("bad checkpoint payload"))?;
        Ok(CheckpointMark {
            node,
            epoch,
            cut,
            head,
            state_digest,
            attestation,
        })
    }
}

/// A witness's cosignature over a checkpoint mark: the mark's identifying
/// fields sealed by the *witness's* TNIC on the witness's log session —
/// transferably verifiable by anyone holding that session key, exactly like
/// a log commitment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cosignature {
    /// The cosigning witness.
    pub witness: u32,
    /// The audited node whose checkpoint is cosigned.
    pub node: u32,
    /// The cosigned checkpoint epoch.
    pub epoch: u64,
    /// The cosigned log boundary.
    pub cut: u64,
    /// The cosigned log head at `cut`.
    pub head: [u8; 32],
    /// The cosigned application state digest at `cut`.
    pub state_digest: [u8; 32],
    /// The witness TNIC's seal over the cosignature.
    pub attestation: AttestedMessage,
}

impl Cosignature {
    /// The canonical attestation payload for a cosignature.
    #[must_use]
    pub fn payload(
        witness: u32,
        node: u32,
        epoch: u64,
        cut: u64,
        head: &[u8; 32],
        state_digest: &[u8; 32],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 4 + 4 + 8 + 8 + 32 + 32);
        out.extend_from_slice(COSIGN_DOMAIN);
        out.extend_from_slice(&witness.to_le_bytes());
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&cut.to_le_bytes());
        out.extend_from_slice(head);
        out.extend_from_slice(state_digest);
        out
    }

    /// Whether the cosignature covers exactly the given mark's fields.
    #[must_use]
    pub fn covers(&self, mark: &CheckpointMark) -> bool {
        self.node == mark.node
            && self.epoch == mark.epoch
            && self.cut == mark.cut
            && self.head == mark.head
            && self.state_digest == mark.state_digest
    }

    /// Whether the carried attestation structurally matches the claimed
    /// fields: payload equality, issuing device (the witness's) and the
    /// witness's log session. A Byzantine witness host that asks its device
    /// to seal different content produces a cosignature that fails this
    /// check against the fields it claims — the device seals whatever it is
    /// handed, but it cannot be made to *lie* about what it sealed.
    #[must_use]
    pub fn consistent(&self) -> bool {
        cosign_fields(&self.attestation.payload)
            == Some((
                self.witness,
                (
                    self.node,
                    self.epoch,
                    self.cut,
                    self.head,
                    self.state_digest,
                ),
            ))
            && self.attestation.device == DeviceId(self.witness)
            && self.attestation.session == log_session(self.witness)
    }

    /// Serialises the cosignature (the fields are recovered from the
    /// attested payload on decode).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.attestation.encode()
    }

    /// Parses a cosignature from an encoded attested message.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] if the wire bytes or the
    /// attested payload are malformed.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeviceError> {
        let attestation = AttestedMessage::decode(bytes)?;
        let (witness, (node, epoch, cut, head, state_digest)) = cosign_fields(&attestation.payload)
            .ok_or(DeviceError::MalformedMessage("bad cosignature payload"))?;
        Ok(Cosignature {
            witness,
            node,
            epoch,
            cut,
            head,
            state_digest,
            attestation,
        })
    }
}

/// The deterministic witness assignment for a checkpoint epoch. `members`
/// is the sorted member list of the node's shard — the whole membership
/// when unsharded — including the node itself. The node is audited by `w`
/// consecutive co-members of the ring that starts just after it, starting
/// at an offset that advances with the epoch. Over the membership `0..n`,
/// epoch 0 gives the classic static rotation (node `i` is audited by
/// `i+1, …, i+w (mod n)`); with `w` equal to the ring (every other member)
/// each epoch yields the same set (rotation is the identity). A node
/// outside `members`, or alone in it, has no witnesses.
#[must_use]
pub fn sharded_witness_set(node: u32, members: &[u32], w: u32, epoch: u64) -> Vec<u32> {
    let Ok(pos) = members.binary_search(&node) else {
        return Vec::new();
    };
    if members.len() <= 1 {
        return Vec::new();
    }
    let ring = (members.len() - 1) as u32;
    let w = w.clamp(1, ring);
    // An all-to-all set is rotation-invariant; pin the offset so epochs
    // produce identical assignments (not just identical membership).
    let start = if w == ring {
        0
    } else {
        (epoch % u64::from(ring)) as u32
    };
    (0..w)
        .map(|j| members[(pos + 1 + ((start + j) % ring) as usize) % members.len()])
        .collect()
}

/// SplitMix64 — the stateless mixer used to place shards and nodes on the
/// consistent-hash ring. Deterministic across runs and platforms.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How many ring points each shard owns. More points smooth the member
/// distribution across shards; 16 keeps the spread within a few percent at
/// n = 1000 while the ring stays tiny.
const SHARD_VNODES: u32 = 16;

/// Partitions `nodes` into at most `shards` witness shards by consistent
/// hashing: each shard owns `SHARD_VNODES` points on a hash ring and every
/// node lands in the shard owning the first point at or after its own hash.
/// Consistency is the point — adding or removing a node never moves *other*
/// nodes between shards, so witness records survive churn re-sharding.
///
/// Shards that end up with fewer than two members (too few to contain both
/// an auditee and a witness) are merged into the next populated shard, so
/// every returned group can witness itself; the groups are returned sorted
/// and disjoint, covering all of `nodes`.
#[must_use]
pub fn shard_members(nodes: &[u32], shards: u32, seed: u64) -> Vec<Vec<u32>> {
    if nodes.is_empty() {
        return Vec::new();
    }
    if shards <= 1 || nodes.len() < 4 {
        let mut all = nodes.to_vec();
        all.sort_unstable();
        return vec![all];
    }
    // Ring points: (hash, shard id).
    let mut ring: Vec<(u64, u32)> = (0..shards)
        .flat_map(|s| {
            (0..SHARD_VNODES).map(move |v| (mix64(seed ^ (u64::from(s) << 20) ^ u64::from(v)), s))
        })
        .collect();
    ring.sort_unstable();
    let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    for &node in nodes {
        let h = mix64(seed ^ 0xA0D1_7E55 ^ u64::from(node));
        let idx = ring.partition_point(|&(point, _)| point < h) % ring.len();
        groups.entry(ring[idx].1).or_default().push(node);
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().collect();
    for group in &mut out {
        group.sort_unstable();
    }
    // Merge undersized shards forward so every group has ≥ 2 members.
    let mut merged: Vec<Vec<u32>> = Vec::with_capacity(out.len());
    let mut carry: Vec<u32> = Vec::new();
    for mut group in out {
        group.append(&mut carry);
        if group.len() >= 2 {
            group.sort_unstable();
            merged.push(group);
        } else {
            carry = group;
        }
    }
    if !carry.is_empty() {
        match merged.last_mut() {
            Some(last) => {
                last.append(&mut carry);
                last.sort_unstable();
            }
            None => merged.push(carry),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_device::attestation::{AttestationKernel, AttestationTiming};

    fn kernel(node: u32) -> AttestationKernel {
        let mut kernel = AttestationKernel::new(DeviceId(node), AttestationTiming::zero());
        kernel.install_session_key(log_session(node), [node as u8 + 1; 32]);
        kernel
    }

    fn sealed_mark(node: u32, epoch: u64, cut: u64) -> CheckpointMark {
        let mut k = kernel(node);
        let head = [7u8; 32];
        let digest = [9u8; 32];
        let payload = CheckpointMark::payload(node, epoch, cut, &head, &digest);
        let (attestation, _) = k.attest(log_session(node), &payload).unwrap();
        CheckpointMark {
            node,
            epoch,
            cut,
            head,
            state_digest: digest,
            attestation,
        }
    }

    fn sealed_cosign(witness: u32, mark: &CheckpointMark) -> Cosignature {
        let mut k = kernel(witness);
        let payload = Cosignature::payload(
            witness,
            mark.node,
            mark.epoch,
            mark.cut,
            &mark.head,
            &mark.state_digest,
        );
        let (attestation, _) = k.attest(log_session(witness), &payload).unwrap();
        Cosignature {
            witness,
            node: mark.node,
            epoch: mark.epoch,
            cut: mark.cut,
            head: mark.head,
            state_digest: mark.state_digest,
            attestation,
        }
    }

    #[test]
    fn quorum_is_a_strict_majority() {
        assert_eq!(cosign_quorum(1), 1);
        assert_eq!(cosign_quorum(2), 2);
        assert_eq!(cosign_quorum(3), 2);
        assert_eq!(cosign_quorum(4), 3);
        assert_eq!(cosign_quorum(7), 4);
    }

    #[test]
    fn sharded_witness_set_stays_inside_the_shard_and_rotates() {
        let members = vec![3u32, 7, 11, 20, 41];
        for node in &members {
            for epoch in 0..6u64 {
                let set = sharded_witness_set(*node, &members, 2, epoch);
                assert_eq!(set.len(), 2);
                for w in &set {
                    assert!(members.contains(w));
                    assert_ne!(w, node, "a node never witnesses itself");
                }
            }
        }
        // Rotation walks the ring: over enough epochs every co-member
        // serves as a witness.
        let mut seen: Vec<u32> = (0..8)
            .flat_map(|epoch| sharded_witness_set(3, &members, 2, epoch))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![7, 11, 20, 41]);
        // Absent node or singleton shard: no witnesses.
        assert!(sharded_witness_set(99, &members, 2, 0).is_empty());
        assert!(sharded_witness_set(5, &[5], 2, 0).is_empty());
    }

    #[test]
    fn shard_members_is_a_deterministic_balanced_partition() {
        let nodes: Vec<u32> = (0..1000).collect();
        let groups = shard_members(&nodes, 8, 42);
        let twin = shard_members(&nodes, 8, 42);
        assert_eq!(groups, twin, "assignment is deterministic");
        // Disjoint cover of all nodes.
        let mut all: Vec<u32> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, nodes);
        // Every group can witness itself and no group hoards the cluster.
        assert!(groups.len() >= 2 && groups.len() <= 8);
        for group in &groups {
            assert!(group.len() >= 2, "undersized shard survived merging");
            assert!(group.len() < nodes.len(), "degenerate single shard");
        }
    }

    #[test]
    fn shard_members_assignment_is_stable_under_churn() {
        // Consistent hashing: removing one node never moves another node to
        // a different shard.
        let nodes: Vec<u32> = (0..200).collect();
        let before = shard_members(&nodes, 4, 7);
        let shard_of = |groups: &[Vec<u32>], node: u32| {
            groups
                .iter()
                .position(|g| g.contains(&node))
                .expect("assigned")
        };
        let survivors: Vec<u32> = nodes.iter().copied().filter(|&n| n != 17).collect();
        let after = shard_members(&survivors, 4, 7);
        for &node in &survivors {
            let b = &before[shard_of(&before, node)];
            let a = &after[shard_of(&after, node)];
            // The node's shard keeps the same identity: same members except
            // possibly the departed one.
            let b_filtered: Vec<u32> = b.iter().copied().filter(|&n| n != 17).collect();
            assert_eq!(a, &b_filtered, "node {node} moved shards on departure");
        }
    }

    #[test]
    fn shard_members_degenerate_inputs_collapse_to_one_group() {
        assert!(shard_members(&[], 4, 1).is_empty());
        assert_eq!(shard_members(&[2, 0, 1], 4, 1), vec![vec![0, 1, 2]]);
        assert_eq!(
            shard_members(&(0..8).collect::<Vec<_>>(), 1, 1),
            vec![(0..8).collect::<Vec<_>>()]
        );
    }

    #[test]
    fn mark_round_trip_and_consistency() {
        let mark = sealed_mark(3, 2, 40);
        assert!(mark.consistent());
        let decoded = CheckpointMark::decode(&mark.encode()).unwrap();
        assert_eq!(decoded, mark);
        assert_eq!(
            CheckpointMark::parse_payload(&mark.attestation.payload),
            Some((3, 2, 40, mark.head, mark.state_digest))
        );
        assert!(CheckpointMark::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn mark_with_mismatched_claim_is_inconsistent() {
        let mut mark = sealed_mark(3, 2, 40);
        mark.cut += 1;
        assert!(!mark.consistent());
        mark.cut -= 1;
        assert!(mark.consistent());
        mark.node = 4;
        assert!(!mark.consistent());
    }

    #[test]
    fn cosignature_round_trip_verifies_under_witness_session() {
        let mark = sealed_mark(1, 1, 10);
        let cosign = sealed_cosign(2, &mark);
        assert!(cosign.consistent());
        assert!(cosign.covers(&mark));
        let decoded = Cosignature::decode(&cosign.encode()).unwrap();
        assert_eq!(decoded, cosign);
        // Any holder of the witness's log-session key verifies the seal.
        let mut verifier = kernel(9);
        verifier.install_session_key(log_session(2), [3u8; 32]);
        verifier.verify_binding(&decoded.attestation).unwrap();
    }

    #[test]
    fn forged_cosignature_fails_the_content_check() {
        let mark = sealed_mark(1, 1, 10);
        // A Byzantine witness host seals a *different* digest (its device
        // attests whatever it is handed) and then claims the real mark's
        // fields: the claim no longer matches the sealed payload.
        let mut forged_mark = mark.clone();
        forged_mark.state_digest = [0xAA; 32];
        let mut forged = sealed_cosign(2, &forged_mark);
        assert!(!forged.covers(&mark));
        forged.state_digest = mark.state_digest;
        assert!(forged.covers(&mark));
        assert!(!forged.consistent(), "claimed fields != sealed payload");
    }

    #[test]
    fn tampered_cosignature_fails_cryptographic_verification() {
        let mark = sealed_mark(1, 1, 10);
        let cosign = sealed_cosign(2, &mark);
        let mut bytes = cosign.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the seal
        match Cosignature::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => {
                let mut verifier = kernel(9);
                verifier.install_session_key(log_session(2), [3u8; 32]);
                assert!(verifier.verify_binding(&decoded.attestation).is_err());
            }
        }
    }

    #[test]
    fn witness_sets_rotate_per_epoch_and_stay_balanced() {
        let n = 5u32;
        let w = 2u32;
        let all: Vec<u32> = (0..n).collect();
        // Epoch 0 reproduces the static assignment.
        assert_eq!(sharded_witness_set(0, &all, w, 0), vec![1, 2]);
        assert_eq!(sharded_witness_set(3, &all, w, 0), vec![4, 0]);
        // Sets shift by one each epoch and never contain the node itself.
        for epoch in 0..8u64 {
            let mut load = vec![0u32; n as usize];
            for node in 0..n {
                let set = sharded_witness_set(node, &all, w, epoch);
                assert_eq!(set.len(), w as usize);
                assert!(!set.contains(&node));
                let mut dedup = set.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), set.len(), "distinct witnesses");
                for &wit in &set {
                    load[wit as usize] += 1;
                }
            }
            // Balanced: every node witnesses exactly w others.
            assert!(load.iter().all(|&l| l == w));
            assert_ne!(
                sharded_witness_set(0, &all, w, epoch),
                sharded_witness_set(0, &all, w, epoch + 1),
                "consecutive epochs differ when w < n - 1"
            );
        }
        // Over n-1 epochs every other node serves as a witness of node 0.
        let mut seen: Vec<u32> = (0..u64::from(n - 1))
            .flat_map(|e| sharded_witness_set(0, &all, w, e))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![1, 2, 3, 4]);
        // All-to-all sets are rotation-invariant.
        let four: Vec<u32> = (0..4).collect();
        assert_eq!(
            sharded_witness_set(2, &four, 3, 0),
            sharded_witness_set(2, &four, 3, 5)
        );
        assert!(sharded_witness_set(0, &[0], 1, 0).is_empty());
    }
}
