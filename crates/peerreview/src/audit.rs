//! The witness audit protocol: challenges, replay and fault classification.
//!
//! Each node is assigned a witness set. Witnesses collect the node's log
//! commitments ([`Authenticator`]s), periodically *challenge* the node for
//! the log segment between the last audited commitment and the newest one,
//! and verify the response:
//!
//! 1. **Seal check** — the commitment's TNIC attestation verifies under the
//!    node's log-session key (transferable authentication).
//! 2. **Chain check** — the returned entries link hash-to-hash from the last
//!    audited head to the committed head, with no gap and no surplus.
//! 3. **Replay check** — the application `Recv`/`Exec` entries are replayed
//!    against the deterministic reference state machine; a logged output that
//!    diverges from the specification is proof of faulty execution (the same
//!    state-simulation idea as the CFT→BFT transformation, applied
//!    retroactively).
//!
//! The outcome is a per-(witness, node) [`Verdict`]: `Trusted` when audits
//! pass, `Suspected` while a challenge is unanswered, `Exposed` once the
//! witness holds verifiable evidence ([`Misbehavior`]) — exactly
//! PeerReview's completeness/accuracy split: unresponsiveness alone can
//! never prove a fault (the network might be at fault), while evidence is
//! transferable and convinces every correct third party.
//!
//! # Evidence-verification rules (accuracy against lying witnesses)
//!
//! Witnesses themselves may be Byzantine (see the audit-side variants of
//! [`tnic_net::adversary::NodeFault`]), so a verdict transition to
//! [`Verdict::Exposed`] is **never** taken on another party's say-so. The
//! rules, in order:
//!
//! 1. **Adoption requires checkable proof.** A received
//!    `Envelope::Evidence { a, b }` accusation is adopted only when it is
//!    *independently verifiable* by the receiver: both authenticators must
//!    be structurally consistent ([`AuthenticatorView::consistent`] binds
//!    the seal to the accused node's device and log session), both TNIC seals
//!    must verify on the receiver's kernel, and the pair must actually
//!    conflict ([`commitments_conflict`]: same node, same sequence number,
//!    different heads). Only then is the accused convicted.
//! 2. **Local verification is the only other road to `Exposed`.** A failed
//!    audit — a sealed log prefix whose replay diverges from the reference
//!    machine, a broken chain, a truncated or padded response, a head or
//!    checkpoint mismatch — convicts at the witness that verified it. No
//!    message can *claim* such a failure on another witness's behalf.
//! 3. **Unverifiable accusations convict the accuser.** A correct witness
//!    only ever sends evidence it has verified, and the attested channel
//!    guarantees the accusation really came from its sender — so an
//!    `Evidence` envelope that fails rule 1 is itself proof that the sender
//!    fabricated an accusation. The receiver (if it witnesses the sender)
//!    records [`Misbehavior::ForgedAccusation`] against the *accuser*; the
//!    accused node is untouched. Forged accusations are thereby
//!    self-defeating, and a correct node can never be exposed by them: the
//!    accused node's own TNIC is the only device that can seal commitments
//!    binding to its log session, and it never seals a fork a correct host
//!    did not produce.
//! 4. **Suspicion carries no weight.** `Suspected` is a local, evidence-free
//!    state (an unanswered challenge); it is never gossiped and never
//!    escalates to `Exposed` without rule 1 or 2 — a witness that *lies*
//!    about suspicion ([`NodeFault::FalseSuspicion`]) deceives only itself.
//!
//! [`NodeFault::FalseSuspicion`]: tnic_net::adversary::NodeFault::FalseSuspicion

use crate::log::{Authenticator, AuthenticatorView, CompactAuthenticator, LogEntryView};
use crate::wire::Envelope;
use tnic_core::transform::StateMachine;

/// Classification of an audited node from one witness's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// All audits passed so far.
    #[default]
    Trusted,
    /// A challenge went unanswered; the node may be crashed, partitioned or
    /// stalling. Cleared by a later valid response, hardened by evidence.
    Suspected,
    /// The witness holds verifiable proof of misbehaviour.
    Exposed,
}

impl Verdict {
    /// Short label used in scenario tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Trusted => "trusted",
            Verdict::Suspected => "suspected",
            Verdict::Exposed => "exposed",
        }
    }

    /// Stable numeric code carried in trace events (see [`tnic_obs::codes`]).
    #[must_use]
    pub fn trace_code(self) -> u64 {
        match self {
            Verdict::Trusted => tnic_obs::codes::VERDICT_TRUSTED,
            Verdict::Suspected => tnic_obs::codes::VERDICT_SUSPECTED,
            Verdict::Exposed => tnic_obs::codes::VERDICT_EXPOSED,
        }
    }
}

/// Identity and clock context a witness record stamps onto its trace
/// events. The record itself knows neither who it belongs to nor the
/// virtual time — the engine refreshes this before driving the record.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    /// The witness owning the record ([`tnic_obs::NONE`] when untracked).
    pub witness: u32,
    /// The audited node ([`tnic_obs::NONE`] when untracked).
    pub node: u32,
    /// Virtual time in microseconds.
    pub at_us: u64,
    /// Current audit round.
    pub round: u64,
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx {
            witness: tnic_obs::NONE,
            node: tnic_obs::NONE,
            at_us: 0,
            round: 0,
        }
    }
}

/// Verifiable proof (or locally observed failure) that a node misbehaved.
#[derive(Debug, Clone, PartialEq)]
pub enum Misbehavior {
    /// Two validly sealed commitments for the same sequence number with
    /// different heads: the node forked its log (equivocation). Boxed: the
    /// commitments carry full attested messages and would otherwise dwarf
    /// every other variant.
    ConflictingCommitments {
        /// One commitment.
        a: Box<Authenticator>,
        /// The conflicting commitment.
        b: Box<Authenticator>,
    },
    /// The audit response does not cover the committed prefix — the node
    /// rewrote or lost history it had committed to.
    Truncated {
        /// The commitment's sequence number.
        committed_seq: u64,
        /// Number of entries the node actually produced.
        provided: u64,
    },
    /// The audit response carries more entries than the challenged range —
    /// a malformed (padded) response.
    SurplusEntries {
        /// The commitment's sequence number.
        committed_seq: u64,
        /// Number of entries the node returned beyond the range.
        surplus: u64,
    },
    /// The audit response's entries do not form a contiguous hash chain from
    /// the last audited head.
    BrokenChain {
        /// Sequence number at which the chain breaks.
        at_seq: u64,
    },
    /// The replayed chain ends in a head different from the committed one.
    HeadMismatch {
        /// The committed sequence number.
        committed_seq: u64,
    },
    /// A logged execution output diverges from the deterministic reference
    /// state machine.
    ExecDivergence {
        /// Sequence number of the diverging `Exec` entry.
        at_seq: u64,
    },
    /// A logged checkpoint mark is malformed or its embedded application
    /// state digest diverges from the reference machine replayed to that
    /// point — the node recorded (and committed to) a false checkpoint.
    CheckpointMismatch {
        /// Sequence number of the diverging `Checkpoint` entry.
        at_seq: u64,
    },
    /// The node sent an evidence message that does not verify (forged,
    /// tampered or non-conflicting authenticators): a correct witness only
    /// transfers evidence it has verified, and the attested channel
    /// guarantees the accusation's origin, so the unverifiable accusation
    /// convicts the *accuser* — never the accused (see the module docs).
    ForgedAccusation {
        /// The node the rejected accusation's *first* authenticator named.
        /// The halves of a malformed pair may disagree on the node (that is
        /// one of the rejection causes), so this records what was claimed,
        /// not a verified victim — the conviction is about the accuser.
        accused: u32,
    },
    /// A replayed round-digest audit entry (`EntryKind::AuditRound`) is
    /// malformed or internally inconsistent: its accumulated digest does
    /// not match the accumulation recomputed from its own carried
    /// per-envelope digest list. A *self-consistent* forgery of the same
    /// entry (list and accumulator re-derived together after dropping,
    /// reordering or substituting an envelope) instead diverges the chained
    /// head from the sealed commitment and convicts as
    /// [`Misbehavior::HeadMismatch`].
    RoundDigestMismatch {
        /// Sequence number of the inconsistent `AuditRound` entry.
        at_seq: u64,
    },
}

impl Misbehavior {
    /// Short label used in scenario tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Misbehavior::ConflictingCommitments { .. } => "conflicting-commitments",
            Misbehavior::Truncated { .. } => "truncated-log",
            Misbehavior::SurplusEntries { .. } => "surplus-entries",
            Misbehavior::BrokenChain { .. } => "broken-chain",
            Misbehavior::HeadMismatch { .. } => "head-mismatch",
            Misbehavior::ExecDivergence { .. } => "exec-divergence",
            Misbehavior::CheckpointMismatch { .. } => "checkpoint-mismatch",
            Misbehavior::ForgedAccusation { .. } => "forged-accusation",
            Misbehavior::RoundDigestMismatch { .. } => "round-digest-mismatch",
        }
    }

    /// Stable numeric code carried in trace events (see [`tnic_obs::codes`]).
    #[must_use]
    pub fn trace_code(&self) -> u64 {
        match self {
            Misbehavior::ConflictingCommitments { .. } => {
                tnic_obs::codes::MIS_CONFLICTING_COMMITMENTS
            }
            Misbehavior::Truncated { .. } => tnic_obs::codes::MIS_TRUNCATED,
            Misbehavior::SurplusEntries { .. } => tnic_obs::codes::MIS_SURPLUS_ENTRIES,
            Misbehavior::BrokenChain { .. } => tnic_obs::codes::MIS_BROKEN_CHAIN,
            Misbehavior::HeadMismatch { .. } => tnic_obs::codes::MIS_HEAD_MISMATCH,
            Misbehavior::ExecDivergence { .. } => tnic_obs::codes::MIS_EXEC_DIVERGENCE,
            Misbehavior::CheckpointMismatch { .. } => tnic_obs::codes::MIS_CHECKPOINT_MISMATCH,
            Misbehavior::ForgedAccusation { .. } => tnic_obs::codes::MIS_FORGED_ACCUSATION,
            Misbehavior::RoundDigestMismatch { .. } => tnic_obs::codes::MIS_ROUND_DIGEST_MISMATCH,
        }
    }
}

/// Returns the conflict evidence if two commitments by the same node
/// contradict each other (same committed length, different head). Both
/// seals must already have been verified by the caller.
#[must_use]
pub fn commitments_conflict(a: &AuthenticatorView<'_>, b: &AuthenticatorView<'_>) -> bool {
    a.node == b.node && a.seq == b.seq && a.head != b.head
}

/// What a replay checks a response against: the challenged commitment's
/// sequence number and head. A witness keeps only this `(seq, head)` pair
/// of the commitment it challenges; an [`Authenticator`] has both too.
pub trait AuditTarget {
    /// The committed `(seq, head)`.
    fn seq_head(&self) -> (u64, [u8; 32]);
}

impl AuditTarget for Authenticator {
    fn seq_head(&self) -> (u64, [u8; 32]) {
        (self.seq, self.head)
    }
}

impl AuditTarget for (u64, [u8; 32]) {
    fn seq_head(&self) -> (u64, [u8; 32]) {
        *self
    }
}

/// One witness's accumulated view of one audited node.
///
/// # The commitment store
///
/// The record keeps one commitment per distinct `(seq, head)` it received
/// since the last certified checkpoint, payload-free
/// ([`CompactAuthenticator`]) and sorted by `seq`, commitments to the same
/// `seq` in arrival order. That is the set conflict detection needs: a
/// fork at any retained `seq`, audited or not, meets the commitment it
/// contradicts. Entries at or below the audited prefix are kept for that
/// reason until a checkpoint covers them; only
/// [`WitnessRecord::drop_commitments_upto`] removes any. A store finds the
/// `seq`'s run with one binary search and looks only inside it, and the
/// audit target is the last entry.
#[derive(Debug, Clone)]
pub struct WitnessRecord<S: StateMachine> {
    /// Sequence number up to which the log has been audited.
    pub audited_seq: u64,
    /// Head hash at `audited_seq`.
    pub audited_head: [u8; 32],
    /// Commitments received (directly or via gossip), sorted by `seq`,
    /// each `seq`'s run in arrival order (see the type's docs).
    commitments: Vec<CompactAuthenticator>,
    /// The reference state machine replayed alongside the node's log.
    pub machine: S,
    /// Current verdict.
    pub verdict: Verdict,
    /// Evidence collected so far.
    pub evidence: Vec<Misbehavior>,
    /// Trace identity/clock context, refreshed by the engine before calls
    /// (see [`TraceCtx`]).
    pub trace: TraceCtx,
    /// Outputs the replay expects to see logged, FIFO: a node may verify
    /// several commands before executing them (batched poll), and a
    /// commitment boundary may fall between a `Recv` and its `Exec`, so the
    /// queue persists across audits.
    expected_outputs: std::collections::VecDeque<Vec<u8>>,
}

impl<S: StateMachine> WitnessRecord<S> {
    /// A fresh record starting at the genesis head.
    #[must_use]
    pub fn new(initial_machine: S) -> Self {
        WitnessRecord {
            audited_seq: 0,
            audited_head: crate::log::GENESIS_HEAD,
            commitments: Vec::new(),
            machine: initial_machine,
            verdict: Verdict::Trusted,
            evidence: Vec::new(),
            trace: TraceCtx::default(),
            expected_outputs: std::collections::VecDeque::new(),
        }
    }

    fn trace_verdict(&self, old: Verdict, misbehavior: u64) {
        if old != self.verdict {
            tnic_obs::trace_event!(
                tnic_obs::EventKind::VerdictTransition,
                at_us: self.trace.at_us,
                node: self.trace.witness,
                peer: self.trace.node,
                round: self.trace.round,
                aux: tnic_obs::codes::pack_verdict(
                    old.trace_code(),
                    self.verdict.trace_code(),
                    misbehavior
                )
            );
        }
    }

    /// Records a (seal-verified) commitment and reports new conflict
    /// evidence, if the commitment contradicts one already held.
    ///
    /// Dedup is by commitment *content* `(node, seq, head)`, not by seal:
    /// a node seals a separate authenticator per witness (each with its own
    /// device counter) and every direct announcement is also gossiped, so
    /// byte-equality would never dedup and the record would grow by
    /// Θ(witnesses) per round. Identical-content copies carry no new
    /// information — only a *different* head for a known seq does (and that
    /// is exactly the conflict case, which is kept).
    ///
    /// One binary search finds the run of held commitments to `auth.seq`;
    /// the dedup and the conflict search read that run only, and a new
    /// commitment is inserted after it in its compact form, copying no
    /// payload. The evidence's first half is the earliest held conflicting
    /// commitment, its payload rebuilt; the second is `auth`.
    pub fn store_commitment(&mut self, auth: &AuthenticatorView<'_>) -> Option<Misbehavior> {
        let start = self.commitments.partition_point(|held| held.seq < auth.seq);
        let end = start
            + self.commitments[start..]
                .iter()
                .take_while(|held| held.seq == auth.seq)
                .count();
        let mut same = self.commitments[start..end]
            .iter()
            .filter(|held| held.node == auth.node);
        if same.clone().any(|held| held.head == auth.head) {
            return None;
        }
        // Same node and seq, and every head differs: the first one conflicts.
        let conflict = same.next().map(|held| Misbehavior::ConflictingCommitments {
            a: Box::new(held.to_authenticator()),
            b: Box::new(auth.to_owned()),
        });
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Commitment,
            at_us: self.trace.at_us,
            node: self.trace.witness,
            peer: auth.node,
            seq: auth.seq,
            round: self.trace.round,
            aux: u64::from(conflict.is_some())
        );
        self.commitments.insert(end, auth.compact());
        if let Some(evidence) = &conflict {
            self.convict(evidence.clone());
        }
        conflict
    }

    /// The newest commitment strictly beyond the audited prefix: the last
    /// held one, if it lies beyond.
    #[must_use]
    pub fn next_audit_target(&self) -> Option<&CompactAuthenticator> {
        self.commitments
            .last()
            .filter(|held| held.seq > self.audited_seq)
    }

    /// The commitments the record holds, sorted by `seq`.
    #[must_use]
    pub(crate) fn commitments(&self) -> &[CompactAuthenticator] {
        &self.commitments
    }

    /// Marks the node exposed with `evidence`.
    pub fn convict(&mut self, evidence: Misbehavior) {
        let old = self.verdict;
        let code = evidence.trace_code();
        self.verdict = Verdict::Exposed;
        self.evidence.push(evidence);
        self.trace_verdict(old, code);
    }

    /// Marks an unanswered challenge. Evidence-based exposure is permanent;
    /// otherwise the node becomes suspected.
    pub fn mark_unresponsive(&mut self) {
        if self.verdict != Verdict::Exposed {
            let old = self.verdict;
            self.verdict = Verdict::Suspected;
            self.trace_verdict(old, tnic_obs::codes::MIS_NONE);
        }
    }

    /// Garbage-collects commitments covered by a certified checkpoint:
    /// everything at or below `cut` is subsumed by the cosigned root (a
    /// conflict inside the covered prefix would already have been detected
    /// when the second commitment arrived, and the resulting evidence is
    /// kept separately). Returns the number of commitments dropped.
    pub fn drop_commitments_upto(&mut self, cut: u64) -> usize {
        let covered = self.commitments.partition_point(|held| held.seq <= cut);
        self.commitments.drain(..covered);
        covered
    }

    /// Fast-forwards the audit state to a certified checkpoint boundary: a
    /// witness that lagged behind the cosigning quorum (its challenge went
    /// unanswered while a majority advanced) adopts the quorum-vouched
    /// `(cut, head)` and the transferred replay state instead of demanding
    /// pruned history. No-op if the record is already at or past `cut`.
    pub fn fast_forward(&mut self, cut: u64, head: [u8; 32], machine: S, pending: Vec<Vec<u8>>) {
        if self.audited_seq >= cut {
            return;
        }
        self.audited_seq = cut;
        self.audited_head = head;
        self.machine = machine;
        self.expected_outputs = pending.into();
        if self.verdict == Verdict::Suspected {
            self.verdict = Verdict::Trusted;
            self.trace_verdict(Verdict::Suspected, tnic_obs::codes::MIS_NONE);
        }
    }

    /// The replay-in-flight outputs (a `Recv` executed but its `Exec` not
    /// yet replayed), used to transfer replay state across witness
    /// rotation.
    #[must_use]
    pub fn pending_outputs(&self) -> Vec<Vec<u8>> {
        self.expected_outputs.iter().cloned().collect()
    }

    /// A record for an incoming witness taking over at a certified
    /// checkpoint: the audit prefix starts at the cosigned `(cut, head)`
    /// with the transferred replay machine and in-flight outputs (state
    /// handover, verified against the certificate's digest by the caller),
    /// plus any evidence the outgoing set holds (evidence handover —
    /// conflicting commitments are transferable by construction; replay
    /// verdicts are re-derivable from the retained suffix).
    #[must_use]
    pub fn starting_at(
        cut: u64,
        head: [u8; 32],
        machine: S,
        pending: Vec<Vec<u8>>,
        evidence: Vec<Misbehavior>,
    ) -> Self {
        let verdict = if evidence.is_empty() {
            Verdict::Trusted
        } else {
            Verdict::Exposed
        };
        WitnessRecord {
            audited_seq: cut,
            audited_head: head,
            commitments: Vec::new(),
            machine,
            verdict,
            evidence,
            trace: TraceCtx::default(),
            expected_outputs: pending.into(),
        }
    }

    /// Verifies an audit response against the commitment `upto` (its
    /// `(seq, head)` is all the check reads) and replays it on the
    /// reference machine. On success the audited prefix advances
    /// and the verdict (unless already `Exposed`) returns to `Trusted`.
    ///
    /// It trusts nothing but the record's audited head and the sealed
    /// `upto`: starting from the audited head, each entry must carry the
    /// expected `seq` and link to the running head, and the witness
    /// computes the entry's own link itself as it replays. So the check is
    /// sound for any `entries`, decoded off the wire or built by hand.
    /// `entries` are owned [`LogEntry`](crate::log::LogEntry)s or [`LogEntryView`]s parsed in
    /// place from a delivery, replayed by the same loop; the iterator is
    /// cloned once to count them before the replay.
    ///
    /// # Errors
    ///
    /// Returns the detected [`Misbehavior`]; the caller decides how to
    /// propagate it (the record itself is already convicted).
    pub fn check_response<'e, I>(
        &mut self,
        upto: &impl AuditTarget,
        entries: I,
    ) -> Result<(), Misbehavior>
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: Into<LogEntryView<'e>>,
    {
        let (upto_seq, upto_head) = upto.seq_head();
        if let Err(evidence) = self.check_response_inner(upto_seq, upto_head, entries.into_iter()) {
            tnic_obs::trace_event!(
                tnic_obs::EventKind::AuditReplay,
                at_us: self.trace.at_us,
                node: self.trace.witness,
                peer: self.trace.node,
                seq: upto_seq,
                round: self.trace.round,
                aux: evidence.trace_code()
            );
            self.convict(evidence.clone());
            return Err(evidence);
        }
        tnic_obs::trace_event!(
            tnic_obs::EventKind::AuditReplay,
            at_us: self.trace.at_us,
            node: self.trace.witness,
            peer: self.trace.node,
            seq: upto_seq,
            round: self.trace.round,
            aux: tnic_obs::codes::MIS_NONE
        );
        self.audited_seq = upto_seq;
        self.audited_head = upto_head;
        if self.verdict == Verdict::Suspected {
            self.verdict = Verdict::Trusted;
            self.trace_verdict(Verdict::Suspected, tnic_obs::codes::MIS_NONE);
        }
        Ok(())
    }

    fn check_response_inner<'e, I>(
        &mut self,
        upto_seq: u64,
        upto_head: [u8; 32],
        entries: I,
    ) -> Result<(), Misbehavior>
    where
        I: Iterator + Clone,
        I::Item: Into<LogEntryView<'e>>,
    {
        let provided = entries.clone().count() as u64;
        let expected = upto_seq.saturating_sub(self.audited_seq);
        if provided < expected {
            return Err(Misbehavior::Truncated {
                committed_seq: upto_seq,
                provided: self.audited_seq + provided,
            });
        }
        if provided > expected {
            return Err(Misbehavior::SurplusEntries {
                committed_seq: upto_seq,
                surplus: provided - expected,
            });
        }
        let mut head = self.audited_head;
        for (seq, entry) in (self.audited_seq..).zip(entries) {
            let entry: LogEntryView<'e> = entry.into();
            if entry.seq != seq || *entry.prev != head {
                return Err(Misbehavior::BrokenChain { at_seq: seq });
            }
            match entry.kind {
                crate::log::EntryKind::Recv { .. } => {
                    if let Some(command) =
                        crate::log::content_payload(entry.content).and_then(Envelope::app_command)
                    {
                        let output = self.machine.execute(command);
                        self.expected_outputs.push_back(output);
                    }
                }
                crate::log::EntryKind::Exec => {
                    let expected_out = self.expected_outputs.pop_front();
                    if expected_out.as_deref() != Some(entry.content) {
                        return Err(Misbehavior::ExecDivergence { at_seq: entry.seq });
                    }
                }
                crate::log::EntryKind::Checkpoint => {
                    // A recorded checkpoint mark commits to the application
                    // state digest at its boundary; by the time the entry is
                    // replayed the reference machine has executed exactly
                    // the commands preceding it, so the digests must agree.
                    let ok = crate::checkpoint::CheckpointMark::parse_payload(entry.content)
                        .is_some_and(|(_, _, cut, _, digest)| {
                            cut <= entry.seq && digest == self.machine.state_digest()
                        });
                    if !ok {
                        return Err(Misbehavior::CheckpointMismatch { at_seq: entry.seq });
                    }
                }
                crate::log::EntryKind::AuditRound => {
                    // The batched audit-round entry must be internally
                    // consistent: the accumulated digest recomputed from the
                    // carried per-envelope digest list must match. A node
                    // that dropped, reordered or substituted an audit
                    // envelope and re-encoded the entry self-consistently
                    // passes this check but diverges the chained head from
                    // the sealed commitment below (HeadMismatch) — either
                    // way the tampering convicts.
                    if !crate::log::verify_audit_round_content(entry.content) {
                        return Err(Misbehavior::RoundDigestMismatch { at_seq: entry.seq });
                    }
                }
                crate::log::EntryKind::Send { .. } => {}
            }
            head = crate::log::chain_hash(&head, seq, entry.kind, entry.content);
        }
        if head != upto_head {
            return Err(Misbehavior::HeadMismatch {
                committed_seq: upto_seq,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{log_session, EntryKind, SecureLog};
    use tnic_core::transform::CounterMachine;
    use tnic_device::attestation::{AttestationKernel, AttestationTiming};
    use tnic_device::types::DeviceId;

    fn seal(kernel: &mut AttestationKernel, node: u32, seq: u64, head: [u8; 32]) -> Authenticator {
        let payload = Authenticator::payload(node, seq, &head);
        let (attestation, _) = kernel.attest(log_session(node), &payload).unwrap();
        Authenticator {
            node,
            seq,
            head,
            attestation,
        }
    }

    fn node_kernel(node: u32) -> AttestationKernel {
        let mut kernel = AttestationKernel::new(DeviceId(node), AttestationTiming::zero());
        kernel.install_session_key(log_session(node), [1u8; 32]);
        kernel
    }

    /// A log that receives two app commands and executes them faithfully.
    fn honest_log(machine: &mut CounterMachine) -> SecureLog {
        let mut log = SecureLog::new();
        for _ in 0..2 {
            let payload = Envelope::App(b"incr".to_vec()).encode();
            log.append(
                EntryKind::Recv { from: 9 },
                crate::log::content_full(&payload),
            );
            let output = machine.execute(b"incr");
            log.append(EntryKind::Exec, output);
        }
        log
    }

    #[test]
    fn honest_response_passes_and_advances_prefix() {
        let mut kernel = node_kernel(1);
        let mut node_machine = CounterMachine::new();
        let log = honest_log(&mut node_machine);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        assert!(record.store_commitment(&auth.as_view()).is_none());
        assert_eq!(record.next_audit_target().unwrap().seq, log.len());
        record
            .check_response(&auth, log.segment(0, log.len()))
            .unwrap();
        assert_eq!(record.verdict, Verdict::Trusted);
        assert_eq!(record.audited_seq, log.len());
        assert_eq!(record.machine.state_digest(), node_machine.state_digest());
        assert!(record.next_audit_target().is_none());
    }

    #[test]
    fn equal_content_commitments_dedup_across_distinct_seals() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let log = honest_log(&mut machine);
        // Two seals of the same (seq, head): different device counters, same
        // commitment content — the second must not grow the record.
        let first = seal(&mut kernel, 1, log.len(), log.head());
        let second = seal(&mut kernel, 1, log.len(), log.head());
        assert_ne!(first.attestation, second.attestation);
        let mut record = WitnessRecord::new(CounterMachine::new());
        assert!(record.store_commitment(&first.as_view()).is_none());
        assert!(record.store_commitment(&second.as_view()).is_none());
        assert_eq!(record.commitments().len(), 1);
        assert_eq!(record.verdict, Verdict::Trusted);
    }

    #[test]
    fn conflicting_commitments_expose() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let log = honest_log(&mut machine);
        let real = seal(&mut kernel, 1, log.len(), log.head());
        let fork = seal(&mut kernel, 1, log.len(), log.forked_head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        assert!(record.store_commitment(&real.as_view()).is_none());
        let evidence = record.store_commitment(&fork.as_view()).unwrap();
        assert!(matches!(
            evidence,
            Misbehavior::ConflictingCommitments { .. }
        ));
        assert_eq!(record.verdict, Verdict::Exposed);
        assert_eq!(evidence.label(), "conflicting-commitments");
    }

    #[test]
    fn truncated_response_exposes() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let mut log = honest_log(&mut machine);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        log.truncate_tail(2);
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        let err = record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap_err();
        assert!(matches!(err, Misbehavior::Truncated { provided: 2, .. }));
        assert_eq!(record.verdict, Verdict::Exposed);
    }

    #[test]
    fn tampered_exec_output_exposed_by_replay() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let mut log = honest_log(&mut machine);
        // The host rewrites an execution output and re-chains; the forged log
        // is internally consistent.
        assert!(log.tamper_and_rechain(1, b"forged output".to_vec()));
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        let err = record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap_err();
        assert!(matches!(err, Misbehavior::ExecDivergence { at_seq: 1 }));
    }

    /// An honest log that also closes one audit round over `digests`.
    fn log_with_audit_round(machine: &mut CounterMachine, digests: &[[u8; 32]]) -> SecureLog {
        let mut log = honest_log(machine);
        log.append(
            EntryKind::AuditRound,
            crate::log::audit_round_content(0, digests),
        );
        log
    }

    #[test]
    fn consistent_audit_round_entry_replays_clean() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let digests: Vec<[u8; 32]> = (0u8..4).map(|i| [i + 1; 32]).collect();
        let log = log_with_audit_round(&mut machine, &digests);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap();
        assert_eq!(record.verdict, Verdict::Trusted);
        assert_eq!(record.audited_seq, log.len());
    }

    /// The batching safety property over one round's `digests`: for EVERY
    /// envelope position and every tamper mode — drop, reorder, substitute
    /// — replay rejects the round. Two forgery strategies exist and both
    /// convict: leave the committed accumulator in place (the entry is
    /// internally inconsistent → RoundDigestMismatch), or re-encode the
    /// entry self-consistently (the re-chained head diverges from the
    /// sealed commitment → HeadMismatch).
    fn assert_every_single_digest_tamper_convicts(digests: &[[u8; 32]]) {
        let committed_acc = crate::log::accumulate_audit_digests(digests);
        for pos in 0..digests.len() {
            for tamper in ["drop", "reorder", "substitute"] {
                let mut tampered = digests.to_vec();
                match tamper {
                    "drop" => {
                        tampered.remove(pos);
                    }
                    "reorder" => {
                        let other = (pos + 1) % digests.len();
                        tampered.swap(pos, other);
                    }
                    _ => tampered[pos] = [0xAB; 32],
                }

                // (a) Self-consistent re-encode: digest list and
                // accumulator both recomputed, log re-chained.
                let mut kernel = node_kernel(1);
                let mut machine = CounterMachine::new();
                let mut log = log_with_audit_round(&mut machine, digests);
                let auth = seal(&mut kernel, 1, log.len(), log.head());
                let entry_seq = log.len() - 1;
                assert!(log
                    .tamper_and_rechain(entry_seq, crate::log::audit_round_content(0, &tampered),));
                let mut record = WitnessRecord::new(CounterMachine::new());
                record.store_commitment(&auth.as_view());
                let err = record
                    .check_response(&auth, log.segment(0, auth.seq))
                    .unwrap_err();
                assert!(
                    matches!(err, Misbehavior::HeadMismatch { .. }),
                    "{tamper} at {pos}, self-consistent: got {err:?}"
                );
                assert_eq!(record.verdict, Verdict::Exposed);

                // (b) Inconsistent forgery: the digest list is rewritten
                // but the committed accumulator is kept.
                let mut kernel = node_kernel(1);
                let mut machine = CounterMachine::new();
                let mut log = log_with_audit_round(&mut machine, digests);
                let auth = seal(&mut kernel, 1, log.len(), log.head());
                let mut forged = crate::log::audit_round_content(0, &tampered);
                let len = forged.len();
                forged[len - 32..].copy_from_slice(&committed_acc);
                assert!(log.tamper_and_rechain(entry_seq, forged));
                let mut record = WitnessRecord::new(CounterMachine::new());
                record.store_commitment(&auth.as_view());
                let err = record
                    .check_response(&auth, log.segment(0, auth.seq))
                    .unwrap_err();
                assert!(
                    matches!(err, Misbehavior::RoundDigestMismatch { at_seq } if at_seq == entry_seq),
                    "{tamper} at {pos}, inconsistent: got {err:?}"
                );
                assert_eq!(record.verdict, Verdict::Exposed);
                assert_eq!(err.label(), "round-digest-mismatch");
            }
        }
    }

    #[test]
    fn round_digest_replay_rejects_any_single_envelope_tamper() {
        // Batching therefore does not weaken per-envelope tamper-evidence.
        let digests: Vec<[u8; 32]> = (0u8..5).map(|i| [i + 1; 32]).collect();
        assert_every_single_digest_tamper_convicts(&digests);
    }

    /// The digests of one round of commitment and checkpoint traffic, as a
    /// node folds them: an announcement and a relayed gossip of a sealed
    /// commitment, then a checkpoint proposal, a cosignature and the
    /// certificate that carries both.
    fn commitment_and_checkpoint_digests() -> Vec<[u8; 32]> {
        use crate::checkpoint::{CheckpointMark, Cosignature};
        let (head, state_digest) = ([7u8; 32], [9u8; 32]);
        let mut kernel = node_kernel(1);
        let auth = seal(&mut kernel, 1, 2, head);
        let (attestation, _) = kernel
            .attest(
                log_session(1),
                &CheckpointMark::payload(1, 0, 2, &head, &state_digest),
            )
            .unwrap();
        let mark = CheckpointMark {
            node: 1,
            epoch: 0,
            cut: 2,
            head,
            state_digest,
            attestation,
        };
        let (attestation, _) = node_kernel(2)
            .attest(
                log_session(2),
                &Cosignature::payload(2, 1, 0, 2, &head, &state_digest),
            )
            .unwrap();
        let cosig = Cosignature {
            witness: 2,
            node: 1,
            epoch: 0,
            cut: 2,
            head,
            state_digest,
            attestation,
        };
        assert!(mark.consistent() && cosig.consistent() && cosig.covers(&mark));
        [
            Envelope::Announce(auth.clone()),
            Envelope::Gossip(auth),
            Envelope::CheckpointPropose(mark.clone()),
            Envelope::CheckpointCosign(cosig.clone()),
            Envelope::CheckpointCommit {
                mark,
                cosigs: vec![cosig],
            },
        ]
        .iter()
        .map(|envelope| tnic_crypto::sha256::sha256(&envelope.encode()))
        .collect()
    }

    #[test]
    fn round_digest_replay_rejects_any_commitment_or_checkpoint_digest_tamper() {
        let digests = commitment_and_checkpoint_digests();
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let log = log_with_audit_round(&mut machine, &digests);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap();
        assert_every_single_digest_tamper_convicts(&digests);
    }

    #[test]
    fn recv_exec_pair_straddling_commitments_audits_clean() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let mut log = SecureLog::new();
        // Commitment boundary falls between the Recv and its Exec.
        let payload = Envelope::App(b"incr".to_vec()).encode();
        log.append(
            EntryKind::Recv { from: 9 },
            crate::log::content_full(&payload),
        );
        let first = seal(&mut kernel, 1, log.len(), log.head());
        log.append(EntryKind::Exec, machine.execute(b"incr"));
        let second = seal(&mut kernel, 1, log.len(), log.head());

        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&first.as_view());
        record
            .check_response(&first, log.segment(0, first.seq))
            .unwrap();
        record.store_commitment(&second.as_view());
        record
            .check_response(&second, log.segment(first.seq, second.seq))
            .unwrap();
        assert_eq!(record.verdict, Verdict::Trusted, "no false ExecDivergence");
    }

    #[test]
    fn padded_response_exposes() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let mut log = honest_log(&mut machine);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        // The node answers with the committed prefix plus garbage padding.
        log.append(EntryKind::Exec, b"padding".to_vec());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        let err = record.check_response(&auth, log.entries()).unwrap_err();
        assert!(matches!(
            err,
            Misbehavior::SurplusEntries { surplus: 1, .. }
        ));
        assert_eq!(record.verdict, Verdict::Exposed);
    }

    #[test]
    fn head_mismatch_exposes_forked_commitment() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let log = honest_log(&mut machine);
        // Commit to the fork but answer the audit with the real log.
        let auth = seal(&mut kernel, 1, log.len(), log.forked_head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        let err = record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap_err();
        assert!(matches!(err, Misbehavior::HeadMismatch { .. }));
    }

    #[test]
    fn broken_chain_exposes() {
        // Entry 1's content is replaced after the fact and nothing is
        // re-chained: the entry that follows no longer links to it, and
        // with no entry following, the head misses the sealed one.
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let mut log = SecureLog::new();
        let command = Envelope::App(b"incr".to_vec()).encode();
        log.append(
            EntryKind::Recv { from: 9 },
            crate::log::content_full(&command),
        );
        log.append(EntryKind::Send { to: 2 }, b"ctl".to_vec());
        log.append(EntryKind::Exec, machine.execute(b"incr"));
        for (len, expected) in [
            (3, Misbehavior::BrokenChain { at_seq: 2 }),
            (2, Misbehavior::HeadMismatch { committed_seq: 2 }),
        ] {
            let auth = seal(&mut kernel, 1, len, log.head_at(len).unwrap());
            let mut entries = log.segment(0, len).to_vec();
            entries[1].content = b"forged".to_vec();
            let mut record = WitnessRecord::new(CounterMachine::new());
            record.store_commitment(&auth.as_view());
            assert_eq!(record.check_response(&auth, &entries), Err(expected));
        }
    }

    #[test]
    fn unresponsiveness_suspects_then_recovers() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let log = honest_log(&mut machine);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        record.mark_unresponsive();
        assert_eq!(record.verdict, Verdict::Suspected);
        // A later valid response restores trust (accuracy: silence is never
        // proof).
        record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap();
        assert_eq!(record.verdict, Verdict::Trusted);
    }

    #[test]
    fn checkpoint_entry_with_matching_digest_replays_clean() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let mut log = honest_log(&mut machine);
        let mark_payload = crate::checkpoint::CheckpointMark::payload(
            1,
            1,
            log.len(),
            &log.head(),
            &machine.state_digest(),
        );
        log.append(EntryKind::Checkpoint, mark_payload);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap();
        assert_eq!(record.verdict, Verdict::Trusted);
    }

    #[test]
    fn checkpoint_entry_with_forged_digest_is_exposed_by_replay() {
        let mut kernel = node_kernel(1);
        let mut machine = CounterMachine::new();
        let mut log = honest_log(&mut machine);
        let mark_payload =
            crate::checkpoint::CheckpointMark::payload(1, 1, log.len(), &log.head(), &[0xAB; 32]);
        log.append(EntryKind::Checkpoint, mark_payload);
        let auth = seal(&mut kernel, 1, log.len(), log.head());
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.store_commitment(&auth.as_view());
        let err = record
            .check_response(&auth, log.segment(0, auth.seq))
            .unwrap_err();
        assert!(matches!(err, Misbehavior::CheckpointMismatch { at_seq: 4 }));
        assert_eq!(err.label(), "checkpoint-mismatch");
        assert_eq!(record.verdict, Verdict::Exposed);
    }

    #[test]
    fn covered_commitments_are_garbage_collected() {
        let mut kernel = node_kernel(1);
        let mut record = WitnessRecord::new(CounterMachine::new());
        for seq in 1..=4u64 {
            record.store_commitment(&seal(&mut kernel, 1, seq, [seq as u8; 32]).as_view());
        }
        assert_eq!(record.drop_commitments_upto(3), 3);
        assert_eq!(record.commitments().len(), 1);
        assert_eq!(record.commitments()[0].seq, 4);
    }

    #[test]
    fn fast_forward_adopts_the_cosigned_boundary_only_when_behind() {
        let mut machine = CounterMachine::new();
        machine.execute(b"incr");
        let digest = machine.state_digest();
        let mut record = WitnessRecord::new(CounterMachine::new());
        record.mark_unresponsive();
        record.fast_forward(5, [3u8; 32], machine.clone(), vec![b"out".to_vec()]);
        assert_eq!(record.audited_seq, 5);
        assert_eq!(record.audited_head, [3u8; 32]);
        assert_eq!(record.machine.state_digest(), digest);
        assert_eq!(record.pending_outputs(), vec![b"out".to_vec()]);
        assert_eq!(record.verdict, Verdict::Trusted, "lag cleared by quorum");
        // Already past the boundary: no-op.
        record.fast_forward(3, [9u8; 32], CounterMachine::new(), Vec::new());
        assert_eq!(record.audited_seq, 5);
        assert_eq!(record.audited_head, [3u8; 32]);
    }

    #[test]
    fn starting_at_record_resumes_and_carries_evidence() {
        let mut machine = CounterMachine::new();
        machine.execute(b"incr");
        let clean: WitnessRecord<CounterMachine> =
            WitnessRecord::starting_at(7, [1u8; 32], machine.clone(), Vec::new(), Vec::new());
        assert_eq!(clean.audited_seq, 7);
        assert_eq!(clean.verdict, Verdict::Trusted);
        let handed: WitnessRecord<CounterMachine> = WitnessRecord::starting_at(
            7,
            [1u8; 32],
            machine,
            Vec::new(),
            vec![Misbehavior::BrokenChain { at_seq: 2 }],
        );
        assert_eq!(handed.verdict, Verdict::Exposed);
        assert_eq!(handed.evidence.len(), 1);
    }

    #[test]
    fn exposure_is_permanent() {
        let mut record: WitnessRecord<CounterMachine> = WitnessRecord::new(CounterMachine::new());
        record.convict(Misbehavior::BrokenChain { at_seq: 0 });
        record.mark_unresponsive();
        assert_eq!(record.verdict, Verdict::Exposed);
    }

    /// The commitment store as a linear scan over full authenticators in
    /// arrival order: the reference the sorted compact store is checked
    /// against. `store` is the dedup and conflict search of the scan,
    /// returning the evidence's halves.
    struct LinearStore {
        audited_seq: u64,
        commitments: Vec<Authenticator>,
    }

    impl LinearStore {
        fn store(&mut self, auth: &Authenticator) -> Option<(Authenticator, Authenticator)> {
            if self.commitments.iter().any(|held| {
                held.node == auth.node && held.seq == auth.seq && held.head == auth.head
            }) {
                return None;
            }
            let conflict = self
                .commitments
                .iter()
                .find(|held| commitments_conflict(&held.as_view(), &auth.as_view()))
                .map(|held| (held.clone(), auth.clone()));
            self.commitments.push(auth.clone());
            conflict
        }

        fn next_audit_target(&self) -> Option<&Authenticator> {
            self.commitments
                .iter()
                .filter(|a| a.seq > self.audited_seq)
                .max_by_key(|a| a.seq)
        }

        fn drop_upto(&mut self, cut: u64) -> usize {
            let before = self.commitments.len();
            self.commitments.retain(|c| c.seq > cut);
            before - self.commitments.len()
        }
    }

    /// A log of `len` entries that replays clean on any witness.
    fn send_log(len: u64) -> SecureLog {
        let mut log = SecureLog::new();
        for i in 0..len {
            log.append(EntryKind::Send { to: 2 }, i.to_le_bytes().to_vec());
        }
        log
    }

    /// The sorted compact store against [`LinearStore`] under a seeded run
    /// of stores (duplicates, up to three heads at one seq, seqs out of
    /// order), checkpoint drops and successful audits, all drawn near a
    /// frontier that moves up the log as the run goes. After every
    /// operation both give the same evidence, byte for byte, the same audit
    /// target (seq, head and seal) and the same number of held commitments.
    #[test]
    fn sorted_compact_store_matches_the_linear_scan_under_random_operations() {
        use tnic_sim::rng::DetRng;
        const STEPS: u64 = 4_000;
        let log = send_log(STEPS / 6 + 4);
        let head_of = |seq: u64, variant: u64| match variant {
            0 => log.head_at(seq).unwrap(),
            fork => [(seq as u8) ^ (fork as u8) << 6; 32],
        };
        let mut kernel = node_kernel(1);
        let mut record = WitnessRecord::new(CounterMachine::new());
        let mut reference = LinearStore {
            audited_seq: 0,
            commitments: Vec::new(),
        };
        let mut rng = DetRng::new(0xc0_5707e);
        let (mut conflicts, mut audits, mut dropped) = (0, 0, 0);
        for step in 0..STEPS {
            let frontier = 1 + step / 6;
            match rng.next_below(10) {
                0..=6 => {
                    let seq = rng.range(frontier.saturating_sub(8).max(1), frontier + 4);
                    let variant = rng.next_below(6).saturating_sub(3);
                    let auth = seal(&mut kernel, 1, seq, head_of(seq, variant));
                    let encoded = |a: &Authenticator, b: &Authenticator| {
                        (a.attestation.encode(), b.attestation.encode())
                    };
                    let got = match record.store_commitment(&auth.as_view()) {
                        Some(Misbehavior::ConflictingCommitments { a, b }) => Some(encoded(&a, &b)),
                        Some(other) => panic!("step {step}: {other:?}"),
                        None => None,
                    };
                    let want = reference.store(&auth).map(|(a, b)| encoded(&a, &b));
                    assert_eq!(got, want, "step {step}: evidence");
                    conflicts += usize::from(got.is_some());
                }
                7 | 8 => {
                    let target = record.next_audit_target().copied();
                    if let Some(target) = target.filter(|t| t.head == head_of(t.seq, 0)) {
                        let entries = log.segment(record.audited_seq, target.seq);
                        record
                            .check_response(&(target.seq, target.head), entries)
                            .unwrap();
                        reference.audited_seq = target.seq;
                        audits += 1;
                    }
                }
                _ => {
                    let cut = rng.range(frontier.saturating_sub(24), frontier);
                    let count = record.drop_commitments_upto(cut);
                    assert_eq!(count, reference.drop_upto(cut), "step {step}: drop");
                    dropped += count;
                }
            }
            assert_eq!(record.audited_seq, reference.audited_seq);
            assert_eq!(
                record.next_audit_target().copied(),
                reference.next_audit_target().map(Authenticator::compact),
                "step {step}: target"
            );
            assert_eq!(record.commitments().len(), reference.commitments.len());
        }
        assert!(
            conflicts > 100 && audits > 100 && dropped > 100,
            "{conflicts} {audits} {dropped}"
        );
    }

    /// Two hundred rounds without a checkpoint: each round the node logs a
    /// command and its output and seals the head twice (the direct copy and
    /// a gossiped one), and the witness audits up to it. The store stays
    /// sorted with one commitment per round, the audit target is always the
    /// last entry, and a fork of round 150's commitment, arriving after
    /// round 200 at an audited seq, convicts with that commitment as `a`.
    #[test]
    fn an_unpruned_200_round_run_stays_sorted_and_convicts_a_late_fork() {
        let mut kernel = node_kernel(1);
        let mut node_machine = CounterMachine::new();
        let mut log = SecureLog::new();
        let mut record = WitnessRecord::new(CounterMachine::new());
        let sorted = |held: &[CompactAuthenticator]| held.windows(2).all(|w| w[0].seq <= w[1].seq);
        let mut at_150 = None;
        for round in 1..=200u64 {
            let command = Envelope::App(b"incr".to_vec()).encode();
            log.append(
                EntryKind::Recv { from: 9 },
                crate::log::content_full(&command),
            );
            log.append(EntryKind::Exec, node_machine.execute(b"incr"));
            let auth = seal(&mut kernel, 1, log.len(), log.head());
            let gossiped = seal(&mut kernel, 1, log.len(), log.head());
            assert!(record.store_commitment(&auth.as_view()).is_none());
            assert!(record.store_commitment(&gossiped.as_view()).is_none());
            let held = record.commitments();
            assert!(sorted(held) && held.len() as u64 == round, "round {round}");
            let target = *record.next_audit_target().unwrap();
            assert_eq!((target, Some(&target)), (auth.compact(), held.last()));
            let entries = log.segment(record.audited_seq, target.seq);
            record
                .check_response(&(target.seq, target.head), entries)
                .unwrap();
            assert!(record.next_audit_target().is_none());
            if round == 150 {
                at_150 = Some(auth);
            }
        }
        let real = at_150.unwrap();
        assert!(real.seq < record.audited_seq);
        let mut forked_head = real.head;
        forked_head[0] ^= 0xFF;
        let fork = seal(&mut kernel, 1, real.seq, forked_head);
        let evidence = record.store_commitment(&fork.as_view());
        assert_eq!(
            evidence,
            Some(Misbehavior::ConflictingCommitments {
                a: Box::new(real),
                b: Box::new(fork),
            })
        );
        assert_eq!(record.verdict, Verdict::Exposed);
        assert!(sorted(record.commitments()) && record.commitments().len() == 201);
    }
}
