//! The per-node tamper-evident log and its TNIC-sealed commitments.
//!
//! Every node keeps an append-only log of its protocol actions (sends,
//! verified receives, local executions). Entries are chained by hash —
//! `h_k = H(h_{k-1} ‖ k ‖ kind ‖ H(content))` — so the log as a whole is
//! committed by its *head* hash, and a node commits to a log prefix by
//! publishing an [`Authenticator`]: the pair `(seq, head)` sealed by the
//! node's TNIC attestation kernel ([`AttestedMessage`]).
//!
//! Compared to classic PeerReview (which seals authenticators with software
//! signatures), the TNIC seal adds non-equivocation *hardware* counters: a
//! faulty host can still fork its log and commit to two different heads for
//! the same sequence number, but both commitments carry distinct,
//! monotonically increasing device counters and verify as authentic — the
//! conflicting pair is transferable, independently verifiable proof of
//! misbehaviour (see [`crate::audit`]).
//!
//! Audit-protocol traffic (challenges, responses and their batched forms)
//! is *not* logged one digest per envelope — that would let auditing
//! inflate the very logs being audited (the O(w²) replay wall). Each node
//! instead accumulates the round's audit envelopes and appends a single
//! [`EntryKind::AuditRound`] entry per audit round; see
//! [`audit_round_content`] for the wire format and its tamper-evidence
//! argument.

use tnic_crypto::sha256::{sha256, Sha256};
use tnic_device::attestation::AttestedMessage;
use tnic_device::error::DeviceError;
use tnic_device::types::{DeviceId, SessionId};

/// Head hash of the empty log.
pub const GENESIS_HEAD: [u8; 32] = [0u8; 32];

/// Domain-separation prefix of authenticator payloads.
pub const AUTHENTICATOR_DOMAIN: &[u8; 12] = b"TNIC-PR-AUTH";

/// The dedicated attestation session on which a node's device seals its log
/// commitments. Disjoint from the cluster's messaging sessions; the session
/// key is installed on the node's device and distributed to its witnesses by
/// the same bootstrapping protocol that installs messaging keys.
#[must_use]
pub fn log_session(node: u32) -> SessionId {
    SessionId(0x5A00_0000 + node)
}

/// The kind of action a log entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// The node attested and transmitted a message to `to`.
    Send {
        /// The destination node.
        to: u32,
    },
    /// The node's device verified and delivered a message from `from`.
    Recv {
        /// The originating node.
        from: u32,
    },
    /// The node executed an application command; the entry content is the
    /// claimed output, checked by witnesses against the deterministic
    /// reference state machine.
    Exec,
    /// The node recorded a checkpoint mark: the authenticated application
    /// state digest at an audited log boundary (see [`crate::checkpoint`]).
    /// Witnesses replaying a segment re-verify the embedded digest against
    /// their reference machine, so a forged checkpoint is as detectable as a
    /// forged execution output.
    Checkpoint,
    /// The node's accumulated audit-protocol traffic for one audit round,
    /// batched into a single entry (see [`audit_round_content`] for the
    /// format and the module docs for why). Witnesses replaying a segment
    /// re-verify the accumulated digest against the carried per-envelope
    /// digest list, so dropping, reordering or substituting any audit
    /// envelope inside a round is as detectable as it was with one entry
    /// per envelope.
    AuditRound,
}

impl EntryKind {
    fn tag(self) -> u8 {
        match self {
            EntryKind::Send { .. } => 1,
            EntryKind::Recv { .. } => 2,
            EntryKind::Exec => 3,
            EntryKind::Checkpoint => 4,
            EntryKind::AuditRound => 5,
        }
    }

    fn peer(self) -> u32 {
        match self {
            EntryKind::Send { to } => to,
            EntryKind::Recv { from } => from,
            EntryKind::Exec | EntryKind::Checkpoint | EntryKind::AuditRound => 0,
        }
    }

    fn from_wire(tag: u8, peer: u32) -> Option<Self> {
        match tag {
            1 => Some(EntryKind::Send { to: peer }),
            2 => Some(EntryKind::Recv { from: peer }),
            3 => Some(EntryKind::Exec),
            4 => Some(EntryKind::Checkpoint),
            5 => Some(EntryKind::AuditRound),
            _ => None,
        }
    }
}

/// Content-kind prefix: the entry stores the full message payload
/// (application traffic — witnesses replay it).
pub const CONTENT_FULL: u8 = 1;
/// Content-kind prefix: the entry stores only the payload's SHA-256 digest
/// (control traffic — logging audit responses verbatim would grow the log
/// geometrically, since responses contain log entries).
pub const CONTENT_DIGEST: u8 = 0;

/// Encodes a `Send`/`Recv` entry content carrying the full payload.
#[must_use]
pub fn content_full(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + payload.len());
    out.push(CONTENT_FULL);
    out.extend_from_slice(payload);
    out
}

/// Encodes a `Send`/`Recv` entry content carrying only the payload digest.
#[must_use]
pub fn content_digest(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(33);
    out.push(CONTENT_DIGEST);
    out.extend_from_slice(&sha256(payload));
    out
}

/// The full payload of a `Send`/`Recv` entry content, if it carries one.
#[must_use]
pub fn content_payload(content: &[u8]) -> Option<&[u8]> {
    match content.split_first() {
        Some((&CONTENT_FULL, payload)) => Some(payload),
        _ => None,
    }
}

/// Domain-separation seed of the per-round audit-traffic accumulator.
pub const AUDIT_ROUND_DOMAIN: &[u8; 12] = b"TNIC-PR-ARND";

/// Folds an ordered list of per-envelope digests into the round's
/// accumulated digest: `acc_0 = H(domain)`, `acc_i = H(acc_{i-1} ‖ d_i)`.
/// The chain construction (rather than hashing the concatenation) makes
/// the accumulator order- and membership-sensitive entry by entry, exactly
/// like the log's own head chain.
#[must_use]
pub fn accumulate_audit_digests(digests: &[[u8; 32]]) -> [u8; 32] {
    let mut acc = sha256(AUDIT_ROUND_DOMAIN);
    let mut buf = [0u8; 64];
    for d in digests {
        buf[..32].copy_from_slice(&acc);
        buf[32..].copy_from_slice(d);
        acc = sha256(&buf);
    }
    acc
}

/// Encodes the content of an [`EntryKind::AuditRound`] entry.
///
/// # Round-digest entry format
///
/// Instead of appending one control digest per audit-protocol envelope
/// (challenge, response, or their batched forms — the traffic class that
/// feeds the audit-log inflation loop), a node accumulates the round's
/// audit envelopes and appends **one** entry per audit round:
///
/// ```text
/// round      u64 le   — the audit round the entry closes
/// count      u32 le   — number of audit envelopes accumulated
/// digests    count × 32 bytes — SHA-256 of each envelope, send order
/// accumulated 32 bytes — accumulate_audit_digests(digests)
/// ```
///
/// The entry is chained into the log head like any other, so it is covered
/// by the node's sealed commitments. During replay a witness recomputes
/// `accumulated` from the carried digest list
/// ([`verify_audit_round_content`]); an internally inconsistent entry
/// convicts the node directly (`RoundDigestMismatch`), while a
/// *self-consistent* forgery — the node re-encoding the entry after
/// dropping, reordering or substituting an envelope — diverges the chained
/// head from the sealed commitment and convicts as `HeadMismatch`, exactly
/// as tampering with a per-envelope digest entry would.
#[must_use]
pub fn audit_round_content(round: u64, digests: &[[u8; 32]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + digests.len() * 32 + 32);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&(digests.len() as u32).to_le_bytes());
    for d in digests {
        out.extend_from_slice(d);
    }
    out.extend_from_slice(&accumulate_audit_digests(digests));
    out
}

/// Decodes an [`EntryKind::AuditRound`] content into
/// `(round, digests, accumulated)` without verifying the accumulation.
#[must_use]
pub fn parse_audit_round_content(content: &[u8]) -> Option<(u64, Vec<[u8; 32]>, [u8; 32])> {
    if content.len() < 8 + 4 + 32 {
        return None;
    }
    let round = u64::from_le_bytes(content[..8].try_into().ok()?);
    let count = u32::from_le_bytes(content[8..12].try_into().ok()?) as usize;
    let rest = &content[12..];
    if rest.len() != count * 32 + 32 {
        return None;
    }
    let digests: Vec<[u8; 32]> = rest[..count * 32]
        .chunks_exact(32)
        .map(|c| c.try_into().expect("exact 32-byte chunk"))
        .collect();
    let accumulated = rest[count * 32..].try_into().ok()?;
    Some((round, digests, accumulated))
}

/// Whether an [`EntryKind::AuditRound`] content is well-formed *and*
/// internally consistent: the carried accumulated digest equals the
/// recomputed accumulation of the carried per-envelope digests.
#[must_use]
pub fn verify_audit_round_content(content: &[u8]) -> bool {
    parse_audit_round_content(content)
        .is_some_and(|(_, digests, acc)| accumulate_audit_digests(&digests) == acc)
}

/// The composition class of one log entry — what kind of work it represents
/// for the audit protocol. Full app payloads are the entries witnesses
/// *replay*; digest entries are hashed-through bookkeeping, split into
/// ordinary control traffic and the audit protocol's own
/// challenge/response traffic (the class that feeds the O(w²)
/// audit-log-inflation loop: auditing creates messages, messages create
/// entries, entries make the next audit bigger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryClass {
    /// Full application payload (or a claimed `Exec` output) — replayed by
    /// witnesses against the reference machine.
    AppPayload,
    /// Non-audit control message logged by digest (commitments, checkpoint,
    /// membership, evidence traffic) or a checkpoint mark.
    ControlDigest,
    /// Audit-protocol message (challenge/response, batched or not) logged
    /// by digest.
    AuditDigest,
}

impl EntryClass {
    /// Classifies an entry from its kind, its encoded content and whether
    /// the logged wire payload was audit-protocol traffic (the log cannot
    /// tell a control digest from an audit digest on its own — the caller
    /// saw the envelope tag; see `Envelope::is_audit_traffic`).
    #[must_use]
    pub fn of(kind: EntryKind, content: &[u8], audit_protocol: bool) -> Self {
        match kind {
            EntryKind::Exec => EntryClass::AppPayload,
            EntryKind::Checkpoint => EntryClass::ControlDigest,
            EntryKind::AuditRound => EntryClass::AuditDigest,
            EntryKind::Send { .. } | EntryKind::Recv { .. } => {
                if content.first() == Some(&CONTENT_FULL) {
                    EntryClass::AppPayload
                } else if audit_protocol {
                    EntryClass::AuditDigest
                } else {
                    EntryClass::ControlDigest
                }
            }
        }
    }

    /// The stable numeric code of this class (matches
    /// `tnic_obs::codes::LOG_APP_PAYLOAD` etc., carried in `LogAppend`
    /// events).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            EntryClass::AppPayload => 0,
            EntryClass::ControlDigest => 1,
            EntryClass::AuditDigest => 2,
        }
    }
}

/// Per-class composition counters of one log. Monotonic over the log's
/// lifetime: pruning drops entries from memory but not from the
/// composition account (the account answers "what did the protocol put in
/// the log", not "what is retained" — retention has its own counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogComposition {
    /// Entries carrying a full app payload or exec output.
    pub app_payload_entries: u64,
    /// Content bytes of those entries.
    pub app_payload_bytes: u64,
    /// Non-audit control entries logged by digest.
    pub control_digest_entries: u64,
    /// Content bytes of those entries.
    pub control_digest_bytes: u64,
    /// Audit-protocol entries logged by digest.
    pub audit_digest_entries: u64,
    /// Content bytes of those entries.
    pub audit_digest_bytes: u64,
}

impl LogComposition {
    /// Folds another account into this one (for cluster-wide sums).
    pub fn merge(&mut self, other: &LogComposition) {
        self.app_payload_entries += other.app_payload_entries;
        self.app_payload_bytes += other.app_payload_bytes;
        self.control_digest_entries += other.control_digest_entries;
        self.control_digest_bytes += other.control_digest_bytes;
        self.audit_digest_entries += other.audit_digest_entries;
        self.audit_digest_bytes += other.audit_digest_bytes;
    }

    fn count(&mut self, class: EntryClass, content_len: u64) {
        match class {
            EntryClass::AppPayload => {
                self.app_payload_entries += 1;
                self.app_payload_bytes += content_len;
            }
            EntryClass::ControlDigest => {
                self.control_digest_entries += 1;
                self.control_digest_bytes += content_len;
            }
            EntryClass::AuditDigest => {
                self.audit_digest_entries += 1;
                self.audit_digest_bytes += content_len;
            }
        }
    }
}

/// Computes the chained hash of an entry:
/// `H(prev ‖ seq ‖ tag ‖ peer ‖ H(content))`.
#[must_use]
pub fn chain_hash(prev: &[u8; 32], seq: u64, kind: EntryKind, content: &[u8]) -> [u8; 32] {
    let mut link = Sha256::new();
    link.update(prev);
    link.update(&seq.to_le_bytes());
    link.update(&[kind.tag()]);
    link.update(&kind.peer().to_le_bytes());
    link.update(&sha256(content));
    link.finalize()
}

/// One entry of a tamper-evident log.
///
/// The stored form is the wire form: exactly the fields an audit response
/// carries. The entry's own link, `chain_hash(prev, seq, kind, content)`,
/// is not stored. Each side computes it once: the appender, as the log's
/// new head and the next entry's `prev`; the witness, while it replays
/// ([`crate::audit::WitnessRecord::check_response`]). A stored copy would
/// cost one more hash on every decode, and a witness could not trust it
/// anyway, since the audited node supplies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Position in the log (0-based).
    pub seq: u64,
    /// What the entry records.
    pub kind: EntryKind,
    /// The recorded content (message payload or execution output).
    pub content: Vec<u8>,
    /// Hash of the previous entry ([`GENESIS_HEAD`] for the first).
    pub prev: [u8; 32],
}

impl LogEntry {
    /// Serialises the entry for audit responses:
    /// `seq ‖ tag ‖ peer ‖ prev ‖ len ‖ content`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 1 + 4 + 32 + 4 + self.content.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.kind.tag());
        out.extend_from_slice(&self.kind.peer().to_le_bytes());
        out.extend_from_slice(&self.prev);
        out.extend_from_slice(&(self.content.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.content);
        out
    }

    /// Parses an entry and returns it with the number of bytes consumed.
    /// A pure parse, so `decode(encode(e)) == e` with no hashing: whether
    /// the entry links to its predecessor and to the sealed head is the
    /// witness's to compute during replay, once per entry.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<(Self, usize)> {
        if bytes.len() < 8 + 1 + 4 + 32 + 4 {
            return None;
        }
        let seq = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let tag = bytes[8];
        let peer = u32::from_le_bytes(bytes[9..13].try_into().ok()?);
        let kind = EntryKind::from_wire(tag, peer)?;
        let mut prev = [0u8; 32];
        prev.copy_from_slice(&bytes[13..45]);
        let len = u32::from_le_bytes(bytes[45..49].try_into().ok()?) as usize;
        if bytes.len() < 49 + len {
            return None;
        }
        let content = bytes[49..49 + len].to_vec();
        Some((
            LogEntry {
                seq,
                kind,
                content,
                prev,
            },
            49 + len,
        ))
    }
}

/// A node's append-only, hash-chained log.
///
/// Sequence numbers are *absolute* (they never restart), but the storage is
/// checkpoint-relative: once a prefix has been covered by a cosigned
/// checkpoint, [`SecureLog::prune_to`] drops the covered entries and the log
/// keeps only `(base_seq, base_head)` — the boundary sequence number and the
/// head hash the pruned prefix chained up to — as its verifiable root.
/// Audits, segments and tampering all keep working on absolute sequence
/// numbers over the retained suffix.
#[derive(Debug, Clone, Default)]
pub struct SecureLog {
    entries: Vec<LogEntry>,
    /// Number of pruned entries: the absolute sequence number of the first
    /// retained entry.
    base_seq: u64,
    /// The head hash after `base_seq` entries ([`GENESIS_HEAD`] before any
    /// prune) — the chain root of the retained suffix.
    base_head: [u8; 32],
    /// The head hash after all `len()` entries; the head after an earlier
    /// retained entry is the next entry's `prev`.
    head: [u8; 32],
    /// Per-class composition account of everything ever appended.
    composition: LogComposition,
}

impl SecureLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        SecureLog::default()
    }

    /// Number of entries ever appended (also the absolute sequence number of
    /// the next entry). Pruning does not change this.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.base_seq + self.entries.len() as u64
    }

    /// Whether the log has never had an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries currently held in memory (the retained suffix).
    #[must_use]
    pub fn retained_len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Approximate bytes held by the retained entries: per entry, its
    /// content plus the fixed fields it stores — seq (8), kind tag (1),
    /// peer (4) and prev (32), the sizes they have on the wire. Allocator
    /// and `Vec` overhead are not counted.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| 8 + 1 + 4 + 32 + e.content.len() as u64)
            .sum()
    }

    /// Absolute sequence number of the first retained entry (0 before any
    /// prune).
    #[must_use]
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The current head hash ([`GENESIS_HEAD`] when empty).
    #[must_use]
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Appends an entry and returns a reference to it. Equivalent to
    /// [`SecureLog::append_classified`] with `audit_protocol = false` —
    /// callers that logged an audit-protocol payload must say so there, or
    /// the composition account files it under control traffic.
    pub fn append(&mut self, kind: EntryKind, content: Vec<u8>) -> &LogEntry {
        self.append_classified(kind, content, false).0
    }

    /// Appends an entry, classifying it for the composition account
    /// ([`SecureLog::composition`]); `audit_protocol` marks digest entries
    /// of audit-protocol wire traffic. Returns the entry and its class.
    pub fn append_classified(
        &mut self,
        kind: EntryKind,
        content: Vec<u8>,
        audit_protocol: bool,
    ) -> (&LogEntry, EntryClass) {
        let class = EntryClass::of(kind, &content, audit_protocol);
        self.composition.count(class, content.len() as u64);
        let seq = self.len();
        let prev = self.head;
        self.head = chain_hash(&prev, seq, kind, &content);
        self.entries.push(LogEntry {
            seq,
            kind,
            content,
            prev,
        });
        (self.entries.last().expect("just pushed"), class)
    }

    /// The per-class composition account of everything ever appended
    /// (monotonic; unaffected by pruning or tail truncation).
    #[must_use]
    pub fn composition(&self) -> LogComposition {
        self.composition
    }

    /// The retained entries (absolute sequence numbers start at
    /// [`SecureLog::base_seq`]).
    #[must_use]
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// The retained entries with `from_seq <= seq < upto_seq` (clamped to
    /// the retained suffix; pruned sequence numbers yield nothing).
    #[must_use]
    pub fn segment(&self, from_seq: u64, upto_seq: u64) -> &[LogEntry] {
        let lo = (from_seq.saturating_sub(self.base_seq) as usize).min(self.entries.len());
        let hi = (upto_seq.saturating_sub(self.base_seq) as usize).min(self.entries.len());
        &self.entries[lo..hi.max(lo)]
    }

    /// Like [`SecureLog::segment`], but signals a pruned lower bound
    /// explicitly instead of clamping it silently: `Err(base_seq)` when
    /// `from_seq` lies below the pruned boundary. A challenge straddling
    /// the boundary must NOT be answered with the silently clamped range —
    /// the witness would see a segment that does not start at its audited
    /// head and convict an honest node of truncation; the caller has to
    /// take the checkpoint-certificate path (or knowingly answer with the
    /// clamped suffix) instead.
    ///
    /// # Errors
    ///
    /// Returns `Err(base_seq)` when `from_seq < base_seq`, i.e. the start
    /// of the requested range has been pruned away.
    pub fn segment_checked(&self, from_seq: u64, upto_seq: u64) -> Result<&[LogEntry], u64> {
        if from_seq < self.base_seq {
            return Err(self.base_seq);
        }
        Ok(self.segment(from_seq, upto_seq))
    }

    /// The head the log had after `seq` entries (its state at an earlier
    /// commitment), or `None` if `seq` exceeds the log or has been pruned
    /// away (the chain below [`SecureLog::base_seq`] is gone).
    #[must_use]
    pub fn head_at(&self, seq: u64) -> Option<[u8; 32]> {
        if seq == self.len() {
            Some(self.head)
        } else if seq < self.base_seq {
            None
        } else {
            self.entries
                .get((seq - self.base_seq) as usize)
                .map(|e| e.prev)
        }
    }

    /// Garbage-collects the prefix covered by a cosigned checkpoint: drops
    /// every entry with `seq < upto_seq` and makes the head at `upto_seq`
    /// the log's new verifiable root. Clamped to the current length; pruning
    /// below the existing base is a no-op. Returns the number of entries
    /// dropped.
    pub fn prune_to(&mut self, upto_seq: u64) -> u64 {
        let cut = upto_seq.clamp(self.base_seq, self.len());
        let drop = (cut - self.base_seq) as usize;
        if drop == 0 {
            return 0;
        }
        self.base_head = self.head_at(cut).expect("cut lies in the retained range");
        self.entries.drain(..drop);
        self.base_seq = cut;
        drop as u64
    }

    /// **Byzantine host operation**: removes the last `n` retained entries.
    /// Used by fault injection to model a node rewriting history it already
    /// committed to.
    pub fn truncate_tail(&mut self, n: u64) {
        let keep = self.entries.len().saturating_sub(n as usize);
        if let Some(first_dropped) = self.entries.get(keep) {
            self.head = first_dropped.prev;
        }
        self.entries.truncate(keep);
    }

    /// **Byzantine host operation**: rewrites the content of entry `seq`
    /// (absolute) and re-chains every later hash so the forged log is
    /// self-consistent. The forgery is undetectable by chain inspection
    /// alone — only replay against the reference state machine (or a
    /// conflicting earlier commitment) exposes it. Returns `false` if `seq`
    /// is pruned or out of range.
    pub fn tamper_and_rechain(&mut self, seq: u64, new_content: Vec<u8>) -> bool {
        if seq < self.base_seq {
            return false;
        }
        let idx = (seq - self.base_seq) as usize;
        if idx >= self.entries.len() {
            return false;
        }
        self.entries[idx].content = new_content;
        let mut head = self.entries[idx].prev;
        for entry in &mut self.entries[idx..] {
            entry.prev = head;
            head = chain_hash(&head, entry.seq, entry.kind, &entry.content);
        }
        self.head = head;
        true
    }

    /// The head of a *forked* variant of this log in which the last entry's
    /// content is replaced — what an equivocating host commits to towards a
    /// subset of its witnesses. The fork is never stored; only its head is
    /// attested.
    #[must_use]
    pub fn forked_head(&self) -> [u8; 32] {
        match self.entries.last() {
            None => sha256(b"equivocation fork of the empty log"),
            Some(last) => chain_hash(&last.prev, last.seq, last.kind, b"<equivocation fork>"),
        }
    }
}

/// A log commitment: `(node, seq, head)` sealed by the node's TNIC.
///
/// `seq` is the number of entries covered (the head commits to entries
/// `0..seq`). The attestation's payload is
/// `AUTHENTICATOR_DOMAIN ‖ node ‖ seq ‖ head` on the node's
/// [`log_session`], so any holder of the session key — every witness — can
/// verify it out of order via `verify_binding` (transferable
/// authentication).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Authenticator {
    /// The committing node.
    pub node: u32,
    /// Number of log entries the commitment covers.
    pub seq: u64,
    /// The committed head hash.
    pub head: [u8; 32],
    /// The TNIC seal over the commitment.
    pub attestation: AttestedMessage,
}

impl Authenticator {
    /// The canonical attestation payload for a commitment.
    #[must_use]
    pub fn payload(node: u32, seq: u64, head: &[u8; 32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 4 + 8 + 32);
        out.extend_from_slice(AUTHENTICATOR_DOMAIN);
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(head);
        out
    }

    /// Whether the carried attestation structurally matches the claimed
    /// `(node, seq, head)`: payload equality, issuing device and session.
    /// Cryptographic verification is separate (the witness's kernel).
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.attestation.payload == Self::payload(self.node, self.seq, &self.head)
            && self.attestation.device == DeviceId(self.node)
            && self.attestation.session == log_session(self.node)
    }

    /// Serialises the authenticator (node/seq/head are recovered from the
    /// attested payload on decode).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.attestation.encode()
    }

    /// Parses an authenticator from an encoded attested message.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] if the wire bytes or the
    /// attested payload are malformed.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeviceError> {
        let attestation = AttestedMessage::decode(bytes)?;
        let p = &attestation.payload;
        if p.len() != 12 + 4 + 8 + 32 || &p[..12] != AUTHENTICATOR_DOMAIN {
            return Err(DeviceError::MalformedMessage("bad authenticator payload"));
        }
        let node = u32::from_le_bytes(p[12..16].try_into().expect("sized"));
        let seq = u64::from_le_bytes(p[16..24].try_into().expect("sized"));
        let mut head = [0u8; 32];
        head.copy_from_slice(&p[24..56]);
        Ok(Authenticator {
            node,
            seq,
            head,
            attestation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_device::attestation::{AttestationKernel, AttestationTiming};

    fn total(c: &LogComposition) -> u64 {
        c.app_payload_entries + c.control_digest_entries + c.audit_digest_entries
    }

    fn sample_log() -> SecureLog {
        let mut log = SecureLog::new();
        log.append(EntryKind::Send { to: 1 }, b"m0".to_vec());
        log.append(EntryKind::Recv { from: 2 }, b"m1".to_vec());
        log.append(EntryKind::Exec, b"out".to_vec());
        log
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Digests recorded from the implementation that assembled each link in
    /// a 77-byte `Vec` (and cross-checked against an independent SHA-256):
    /// the chain format is what every sealed commitment covers, so it must
    /// not move with the hashing code underneath it.
    #[test]
    fn chain_hash_golden_vectors() {
        let check = |prev: &[u8; 32], seq, kind, content: &[u8], expected: &str| {
            assert_eq!(hex(&chain_hash(prev, seq, kind, content)), expected);
        };
        let prev: [u8; 32] = core::array::from_fn(|i| i as u8);
        let content: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        check(
            &GENESIS_HEAD,
            0,
            EntryKind::Exec,
            b"",
            "88daac12d7b6d094b3b11aa305720dbf8382202f2825f3526324f673eeff9667",
        );
        check(
            &prev,
            1,
            EntryKind::Send { to: 7 },
            b"hello",
            "1d4114045ac20a6c9585f2e61b05675b0c841de8298d176b39882290288f23cb",
        );
        check(
            &prev,
            u64::MAX,
            EntryKind::Recv { from: 0xdead_beef },
            &content,
            "03dfc4196d5054f33840239514e64e3e42ef6eb00822b73016fc90cdd003834f",
        );
        check(
            &[0xff; 32],
            0x0102_0304_0506_0708,
            EntryKind::Checkpoint,
            &[0xab; 64],
            "6d7c3deb5de2707f0a5d9a3f39752592142fef3139e63da1e3d22b3f3fa727b1",
        );
        check(
            &prev,
            42,
            EntryKind::AuditRound,
            &content[..55],
            "6dc4de99bb0235893a7794f5218bf0babe149d78c8e89a153a1a6bf6fb953604",
        );
    }

    #[test]
    fn accumulate_audit_digests_golden_vectors() {
        let digests: Vec<[u8; 32]> = (0..5u8)
            .map(|d| core::array::from_fn(|i| d.wrapping_mul(31).wrapping_add(i as u8)))
            .collect();
        for (count, expected) in [
            (
                0,
                "90b54b9e306d0c5bdee14d6b4ca9705890f552a16592f4093e4e799838d7180d",
            ),
            (
                1,
                "f00698db76be972bca963ac5f53ba71d868fe414651b13e948e7b44e53d94816",
            ),
            (
                5,
                "e03c7d61a506e8117b917f8ef1b21a87356d491c69cfe8e8bb69d3ccb9a6792c",
            ),
        ] {
            assert_eq!(
                hex(&accumulate_audit_digests(&digests[..count])),
                expected,
                "{count} digests"
            );
        }
    }

    /// The chained hash of `entry` — the head after it.
    fn link(entry: &LogEntry) -> [u8; 32] {
        chain_hash(&entry.prev, entry.seq, entry.kind, &entry.content)
    }

    /// Every retained entry links to its predecessor and the last to the head.
    fn assert_chained(log: &SecureLog) {
        for pair in log.entries().windows(2) {
            assert_eq!(pair[1].prev, link(&pair[0]));
        }
        assert_eq!(log.entries().last().map(link), Some(log.head()));
    }

    #[test]
    fn appends_chain_from_genesis() {
        let log = sample_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log.entries()[0].prev, GENESIS_HEAD);
        assert_chained(&log);
        assert_eq!(log.head_at(3), Some(log.head()));
        assert_eq!(log.head_at(0), Some(GENESIS_HEAD));
        assert_eq!(log.head_at(4), None);
    }

    #[test]
    fn content_helpers_are_self_describing() {
        let payload = vec![0u8; 40]; // starts with the App envelope tag
        assert_eq!(content_payload(&content_full(&payload)), Some(&payload[..]));
        // A digest is never mistaken for a full payload, even if its bytes
        // happen to resemble one.
        assert_eq!(content_payload(&content_digest(&payload)), None);
        assert_eq!(content_digest(&payload).len(), 33);
    }

    #[test]
    fn composition_classifies_and_survives_pruning() {
        let mut log = SecureLog::new();
        log.append_classified(EntryKind::Send { to: 1 }, content_full(b"app"), false);
        log.append_classified(EntryKind::Recv { from: 1 }, content_digest(b"ctl"), false);
        log.append_classified(EntryKind::Send { to: 2 }, content_digest(b"chal"), true);
        log.append(EntryKind::Exec, b"output".to_vec());
        log.append(EntryKind::Checkpoint, b"mark".to_vec());
        let composition = log.composition();
        assert_eq!(composition.app_payload_entries, 2); // full send + exec
        assert_eq!(composition.control_digest_entries, 2); // digest recv + checkpoint
        assert_eq!(composition.audit_digest_entries, 1);
        assert_eq!(total(&composition), log.len());
        // A full-payload entry is app even when flagged audit (the flag only
        // disambiguates digests).
        assert_eq!(
            EntryClass::of(EntryKind::Send { to: 3 }, &content_full(b"x"), true),
            EntryClass::AppPayload
        );
        // Pruning does not rewrite history.
        log.prune_to(3);
        assert_eq!(log.composition(), composition);
        let mut sum = LogComposition::default();
        sum.merge(&composition);
        sum.merge(&composition);
        assert_eq!(total(&sum), 2 * total(&composition));
    }

    #[test]
    fn entry_wire_round_trip() {
        let log = sample_log();
        for entry in log.entries() {
            let bytes = entry.encode();
            let (decoded, used) = LogEntry::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(&decoded, entry);
        }
        assert!(LogEntry::decode(&[1, 2, 3]).is_none());
    }

    #[test]
    fn segment_is_clamped() {
        let log = sample_log();
        assert_eq!(log.segment(0, 3).len(), 3);
        assert_eq!(log.segment(1, 2).len(), 1);
        assert_eq!(log.segment(1, 2)[0].seq, 1);
        assert!(log.segment(3, 9).is_empty());
        assert!(log.segment(5, 2).is_empty());
    }

    #[test]
    fn truncation_changes_head() {
        let mut log = sample_log();
        let full_head = log.head();
        log.truncate_tail(1);
        assert_eq!(log.len(), 2);
        assert_ne!(log.head(), full_head);
        assert_chained(&log);
    }

    #[test]
    fn tampering_rechains_consistently_but_diverges() {
        let mut log = sample_log();
        let original_head = log.head();
        assert!(log.tamper_and_rechain(1, b"forged".to_vec()));
        assert_chained(&log);
        assert_ne!(
            log.head(),
            original_head,
            "forgery diverges from commitment"
        );
        assert!(!log.tamper_and_rechain(9, b"x".to_vec()));
    }

    #[test]
    fn prune_keeps_absolute_seqs_and_head() {
        let mut log = sample_log();
        let full_head = log.head();
        let head_at_2 = log.head_at(2).unwrap();
        assert_eq!(log.prune_to(2), 2);
        // Length, head and sequence numbering are unchanged by pruning.
        assert_eq!(log.len(), 3);
        assert_eq!(log.retained_len(), 1);
        assert_eq!(log.base_seq(), 2);
        assert_eq!(log.base_seq, 2);
        assert_eq!(log.head(), full_head);
        assert_eq!(log.entries()[0].seq, 2);
        // The pruned chain is gone; the base head survives as the root.
        assert_eq!(log.head_at(2), Some(head_at_2));
        assert_eq!(log.head_at(1), None);
        assert_eq!(log.head_at(3), Some(full_head));
        // Segments clamp to the retained suffix.
        assert!(log.segment(0, 2).is_empty());
        assert_eq!(log.segment(0, 3).len(), 1);
        assert_eq!(log.segment(2, 3)[0].seq, 2);
        // Appends keep chaining from the retained head.
        log.append(EntryKind::Exec, b"after".to_vec());
        assert_eq!(log.len(), 4);
        assert_eq!(log.entries()[1].prev, full_head);
        // Re-pruning below the base is a no-op.
        assert_eq!(log.prune_to(1), 0);
        assert_eq!(log.base_seq(), 2);
        assert!(log.retained_bytes() > 0);
    }

    #[test]
    fn prune_everything_then_append_chains_from_base_head() {
        let mut log = sample_log();
        let head = log.head();
        assert_eq!(log.prune_to(log.len()), 3);
        assert_eq!(log.retained_len(), 0);
        assert_eq!(log.head(), head, "empty suffix keeps the base head");
        let entry = log.append(EntryKind::Send { to: 1 }, b"m3".to_vec());
        assert_eq!(entry.seq, 3);
        assert_eq!(entry.prev, head);
    }

    #[test]
    fn tamper_after_prune_translates_absolute_seq() {
        let mut log = sample_log();
        log.prune_to(2);
        // Seq 1 is pruned: tampering it must fail, not touch seq 3's slot.
        assert!(!log.tamper_and_rechain(1, b"x".to_vec()));
        let head_before = log.head();
        assert!(log.tamper_and_rechain(2, b"forged".to_vec()));
        assert_ne!(log.head(), head_before);
        assert_chained(&log);
        assert_eq!(log.entries()[0].prev, log.head_at(2).unwrap());
    }

    #[test]
    fn segment_checked_signals_a_pruned_lower_bound() {
        let mut log = sample_log();
        assert_eq!(log.segment_checked(0, 3).unwrap().len(), 3);
        log.prune_to(2);
        // A range straddling the pruned boundary is an explicit error, not
        // a silently truncated slice.
        assert_eq!(log.segment_checked(0, 3), Err(2));
        assert_eq!(log.segment_checked(1, 3), Err(2));
        // From the base on, the checked view matches the clamped one.
        assert_eq!(log.segment_checked(2, 3).unwrap().len(), 1);
        assert_eq!(log.segment_checked(2, 3).unwrap()[0].seq, 2);
        assert!(log.segment_checked(3, 9).unwrap().is_empty());
    }

    #[test]
    fn audit_round_content_round_trips_and_verifies() {
        let digests = [[1u8; 32], [2u8; 32], [3u8; 32]];
        let content = audit_round_content(7, &digests);
        let (round, parsed, acc) = parse_audit_round_content(&content).unwrap();
        assert_eq!(round, 7);
        assert_eq!(parsed, digests);
        assert_eq!(acc, accumulate_audit_digests(&digests));
        assert!(verify_audit_round_content(&content));
        // The empty round is well-formed too (a node that saw no audit
        // traffic still closes its round).
        assert!(verify_audit_round_content(&audit_round_content(0, &[])));
        // Truncated or length-inconsistent contents never parse.
        assert!(parse_audit_round_content(&content[..content.len() - 1]).is_none());
        assert!(parse_audit_round_content(&[]).is_none());
        let mut wrong_count = content.clone();
        wrong_count[8] = 9;
        assert!(parse_audit_round_content(&wrong_count).is_none());
    }

    #[test]
    fn audit_round_accumulator_is_order_and_membership_sensitive() {
        let digests = [[1u8; 32], [2u8; 32], [3u8; 32]];
        let acc = accumulate_audit_digests(&digests);
        let reordered = [[2u8; 32], [1u8; 32], [3u8; 32]];
        assert_ne!(acc, accumulate_audit_digests(&reordered));
        assert_ne!(acc, accumulate_audit_digests(&digests[..2]));
        let substituted = [[1u8; 32], [9u8; 32], [3u8; 32]];
        assert_ne!(acc, accumulate_audit_digests(&substituted));
        // An inconsistent accumulated digest fails verification.
        let mut forged = audit_round_content(1, &digests);
        let len = forged.len();
        forged[len - 1] ^= 1;
        assert!(!verify_audit_round_content(&forged));
    }

    #[test]
    fn audit_round_entry_kind_round_trips_and_classifies() {
        let mut log = SecureLog::new();
        let content = audit_round_content(3, &[[5u8; 32]]);
        let (_, class) = log.append_classified(EntryKind::AuditRound, content, true);
        assert_eq!(class, EntryClass::AuditDigest);
        assert_eq!(log.composition().audit_digest_entries, 1);
        let entry = &log.entries()[0];
        let (decoded, used) = LogEntry::decode(&entry.encode()).unwrap();
        assert_eq!(used, entry.encode().len());
        assert_eq!(&decoded, entry);
        assert_eq!(decoded.kind, EntryKind::AuditRound);
        // The class holds regardless of the audit flag — the kind decides.
        assert_eq!(
            EntryClass::of(EntryKind::AuditRound, &decoded.content, false),
            EntryClass::AuditDigest
        );
    }

    #[test]
    fn checkpoint_entry_kind_round_trips() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Checkpoint, b"mark".to_vec());
        let entry = &log.entries()[0];
        let (decoded, used) = LogEntry::decode(&entry.encode()).unwrap();
        assert_eq!(used, entry.encode().len());
        assert_eq!(&decoded, entry);
        assert_eq!(decoded.kind, EntryKind::Checkpoint);
    }

    #[test]
    fn forked_head_differs_from_real_head() {
        let log = sample_log();
        assert_ne!(log.forked_head(), log.head());
        assert_ne!(SecureLog::new().forked_head(), GENESIS_HEAD);
    }

    #[test]
    fn authenticator_round_trip_and_verification() {
        let node = 3u32;
        let mut sealer = AttestationKernel::new(DeviceId(node), AttestationTiming::zero());
        sealer.install_session_key(log_session(node), [7u8; 32]);
        let log = sample_log();
        let payload = Authenticator::payload(node, log.len(), &log.head());
        let (attestation, _) = sealer.attest(log_session(node), &payload).unwrap();
        let auth = Authenticator {
            node,
            seq: log.len(),
            head: log.head(),
            attestation,
        };
        assert!(auth.consistent());

        let decoded = Authenticator::decode(&auth.encode()).unwrap();
        assert_eq!(decoded, auth);

        // Any witness holding the log-session key verifies the seal.
        let mut witness = AttestationKernel::new(DeviceId(9), AttestationTiming::zero());
        witness.install_session_key(log_session(node), [7u8; 32]);
        witness.verify_binding(&decoded.attestation).unwrap();
    }

    #[test]
    fn authenticator_with_mismatched_claim_is_inconsistent() {
        let node = 3u32;
        let mut sealer = AttestationKernel::new(DeviceId(node), AttestationTiming::zero());
        sealer.install_session_key(log_session(node), [7u8; 32]);
        let log = sample_log();
        let payload = Authenticator::payload(node, log.len(), &log.head());
        let (attestation, _) = sealer.attest(log_session(node), &payload).unwrap();
        let mut auth = Authenticator {
            node,
            seq: log.len() + 1, // claims more than attested
            head: log.head(),
            attestation,
        };
        assert!(!auth.consistent());
        auth.seq = log.len();
        assert!(auth.consistent());
        auth.node = 4;
        assert!(!auth.consistent());
    }
}
