//! The per-node tamper-evident log and its TNIC-sealed commitments.
//!
//! Every node keeps an append-only log of its protocol actions (sends,
//! verified receives, local executions). Entries are chained by hash —
//! `h_k = H(h_{k-1} ‖ k ‖ kind ‖ peer ‖ content)`, one SHA-256 pass per
//! link (see [`chain_hash`]) — so the log as a whole is committed by its
//! *head* hash, and a node commits to a log prefix by publishing an
//! [`Authenticator`]: the pair `(seq, head)` sealed by the node's TNIC
//! attestation kernel ([`AttestedMessage`]).
//!
//! Compared to classic PeerReview (which seals authenticators with software
//! signatures), the TNIC seal adds non-equivocation *hardware* counters: a
//! faulty host can still fork its log and commit to two different heads for
//! the same sequence number, but both commitments carry distinct,
//! monotonically increasing device counters and verify as authentic — the
//! conflicting pair is transferable, independently verifiable proof of
//! misbehaviour (see [`crate::audit`]).
//!
//! Only envelopes that carry an application command are logged one entry
//! each, in full, because witnesses replay them. Every other envelope —
//! challenges and responses, announcements and gossip, evidence,
//! checkpoint propose/cosign/commit, join/leave/recover — is *not* logged
//! one digest per envelope: that would let the protocol inflate the very
//! logs being audited (the O(w²) replay wall). Each node instead
//! accumulates the SHA-256 of every such envelope it sends or receives and
//! appends a single [`EntryKind::AuditRound`] entry, its *round digest*,
//! per audit round; see [`audit_round_content`] for the wire format and its
//! tamper-evidence argument.

use tnic_crypto::sha256::{sha256, Sha256};
use tnic_device::attestation::{AttestedMessage, AttestedView, ATTESTATION_LEN};
use tnic_device::error::DeviceError;
use tnic_device::types::{DeviceId, SessionId};

/// Head hash of the empty log.
pub const GENESIS_HEAD: [u8; 32] = [0u8; 32];

/// Domain-separation prefix of authenticator payloads.
pub const AUTHENTICATOR_DOMAIN: &[u8; 12] = b"TNIC-PR-AUTH";

/// The dedicated attestation session on which a node's device seals its log
/// commitments. Disjoint from the cluster's messaging sessions; the session
/// key is drawn from the accountability engine's `DetRng` and installed
/// directly on the node's device; the engine holds one prepared copy that
/// its witnesses' seal checks run under.
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
    /// The node's round digest: every envelope without an application
    /// command that it sent or received during one audit round, batched
    /// into a single entry (see [`audit_round_content`] for the format and
    /// the module docs for why). Witnesses replaying a segment re-verify
    /// the accumulated digest against the carried per-envelope digest list,
    /// so dropping, reordering or substituting any envelope inside a round
    /// is as detectable as it was with one entry per envelope.
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
/// (application traffic — witnesses replay it). Control traffic is not
/// logged per envelope but folded into the round digest
/// ([`EntryKind::AuditRound`]).
pub const CONTENT_FULL: u8 = 1;

/// Encodes a `Send`/`Recv` entry content carrying the full payload.
#[must_use]
pub fn content_full(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + payload.len());
    out.push(CONTENT_FULL);
    out.extend_from_slice(payload);
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

/// Domain-separation prefix of the round digest.
pub const AUDIT_ROUND_DOMAIN: &[u8; 12] = b"TNIC-PR-ARND";

/// Folds an ordered list of per-envelope digests into the round's
/// accumulated digest: `H(domain ‖ d_1 ‖ … ‖ d_k)`, one SHA-256 stream over
/// the domain and the digests in order. The digests are fixed-width, so the
/// stream is order- and membership-sensitive digest by digest: dropping,
/// reordering or substituting any one changes the result.
#[must_use]
pub fn accumulate_audit_digests(digests: &[[u8; 32]]) -> [u8; 32] {
    round_digest(digests.as_flattened())
}

/// [`accumulate_audit_digests`] over the digests' contiguous bytes, as a
/// round entry carries them.
fn round_digest(digest_bytes: &[u8]) -> [u8; 32] {
    let mut acc = Sha256::new();
    acc.update(AUDIT_ROUND_DOMAIN);
    acc.update(digest_bytes);
    acc.finalize()
}

/// Encodes the content of an [`EntryKind::AuditRound`] entry.
///
/// # Round-digest entry format
///
/// Instead of appending one control digest per envelope, a node
/// accumulates the round's envelopes that carry no application command
/// and appends **one** entry per audit round. It covers the audit protocol
/// (challenges and responses, the traffic class that feeds the audit-log
/// inflation loop) and every other control envelope:
/// announcements, gossip, evidence, checkpoint propose/cosign/commit and
/// join/leave/recover. An envelope that carries an application command is
/// logged in full as a `Send`/`Recv` entry instead, because witnesses
/// replay the command.
///
/// ```text
/// round      u64 le   — the audit round the entry closes
/// count      u32 le   — number of envelopes accumulated
/// digests    count × 32 bytes — SHA-256 of each envelope, in local order
/// accumulated 32 bytes — accumulate_audit_digests(digests)
///                        = SHA-256(AUDIT_ROUND_DOMAIN ‖ digests)
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
///
/// Both checks catch a node that changes the entry *after* sealing it.
/// Neither checks that the digests were true when the node logged them: a
/// witness checks the entry only for self-consistency and its place in the
/// sealed chain, never the per-envelope digests against the envelopes the
/// node sent or received. A node that logs wrong digests for its control
/// traffic *before* sealing therefore stays trusted.
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
/// `(round, digest bytes, accumulated)` without verifying the accumulation;
/// the digest bytes are the `count × 32` carried digests, borrowed in place.
#[must_use]
pub fn parse_audit_round_content(content: &[u8]) -> Option<(u64, &[u8], [u8; 32])> {
    if content.len() < 8 + 4 + 32 {
        return None;
    }
    let round = u64::from_le_bytes(content[..8].try_into().ok()?);
    let count = u32::from_le_bytes(content[8..12].try_into().ok()?) as usize;
    let rest = &content[12..];
    if rest.len() != count * 32 + 32 {
        return None;
    }
    let (digests, accumulated) = rest.split_at(count * 32);
    Some((round, digests, accumulated.try_into().ok()?))
}

/// Whether an [`EntryKind::AuditRound`] content is well-formed *and*
/// internally consistent: the carried accumulated digest equals the
/// accumulation of the carried per-envelope digests, hashed in place.
#[must_use]
pub fn verify_audit_round_content(content: &[u8]) -> bool {
    parse_audit_round_content(content).is_some_and(|(_, digests, acc)| round_digest(digests) == acc)
}

/// The composition class of one log entry — what kind of work it represents
/// for the audit protocol. Full app payloads are the entries witnesses
/// *replay*; the rest is hashed-through bookkeeping: checkpoint marks, and
/// the round digests that fold every control envelope (the audit
/// protocol's own challenge/response traffic among them, the class that
/// feeds the O(w²) audit-log-inflation loop: auditing creates messages,
/// messages create entries, entries make the next audit bigger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryClass {
    /// Full application payload (or a claimed `Exec` output) — replayed by
    /// witnesses against the reference machine.
    AppPayload,
    /// A checkpoint mark, or a `Send`/`Recv` entry that does not carry a
    /// full payload.
    ControlDigest,
    /// A round digest ([`EntryKind::AuditRound`]).
    AuditDigest,
}

impl EntryClass {
    /// Classifies an entry from its kind and its encoded content.
    #[must_use]
    pub fn of(kind: EntryKind, content: &[u8]) -> Self {
        match kind {
            EntryKind::Exec => EntryClass::AppPayload,
            EntryKind::Checkpoint => EntryClass::ControlDigest,
            EntryKind::AuditRound => EntryClass::AuditDigest,
            EntryKind::Send { .. } | EntryKind::Recv { .. } => {
                if content.first() == Some(&CONTENT_FULL) {
                    EntryClass::AppPayload
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
    /// Checkpoint marks and `Send`/`Recv` entries without a full payload.
    pub control_digest_entries: u64,
    /// Content bytes of those entries.
    pub control_digest_bytes: u64,
    /// Round-digest entries.
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

/// Computes the chained hash of an entry in one SHA-256 pass:
/// `H(prev ‖ seq ‖ tag ‖ peer ‖ content)`, with `seq` (u64) and `peer`
/// (u32) little-endian. The 45-byte header is fixed-width and the content
/// comes last, so the hashed bytes determine every field.
#[must_use]
pub fn chain_hash(prev: &[u8; 32], seq: u64, kind: EntryKind, content: &[u8]) -> [u8; 32] {
    let mut link = Sha256::new();
    link.update(prev);
    link.update(&seq.to_le_bytes());
    link.update(&[kind.tag()]);
    link.update(&kind.peer().to_le_bytes());
    link.update(content);
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
    /// Appends the entry's audit-response form to `out`:
    /// `seq ‖ tag ‖ peer ‖ prev ‖ len ‖ content`. Writing into the caller's
    /// buffer lets a response be encoded in place, with no `Vec` per entry.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.kind.tag());
        out.extend_from_slice(&self.kind.peer().to_le_bytes());
        out.extend_from_slice(&self.prev);
        out.extend_from_slice(&(self.content.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.content);
    }
}

/// A [`LogEntry`] parsed in place: the same fields, with the content and
/// the previous head borrowed from the bytes it was parsed from. A witness
/// replays an audit response in this form straight from the delivered
/// message ([`crate::audit::WitnessRecord::check_response`] takes either).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntryView<'a> {
    /// Position in the log (0-based).
    pub seq: u64,
    /// What the entry records.
    pub kind: EntryKind,
    /// The recorded content.
    pub content: &'a [u8],
    /// Hash of the previous entry.
    pub prev: &'a [u8; 32],
}

impl<'a> LogEntryView<'a> {
    /// Parses what [`LogEntry::encode_into`] wrote and returns the entry
    /// with the number of bytes consumed. The one entry parser, and a pure
    /// one: whether the entry links to its predecessor and to the sealed
    /// head is the witness's to compute during replay, once per entry.
    #[must_use]
    pub(crate) fn parse(bytes: &'a [u8]) -> Option<(Self, usize)> {
        if bytes.len() < 8 + 1 + 4 + 32 + 4 {
            return None;
        }
        let seq = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let tag = bytes[8];
        let peer = u32::from_le_bytes(bytes[9..13].try_into().ok()?);
        let kind = EntryKind::from_wire(tag, peer)?;
        let prev = bytes[13..45].try_into().ok()?;
        let len = u32::from_le_bytes(bytes[45..49].try_into().ok()?) as usize;
        let content = bytes.get(49..49 + len)?;
        Some((
            LogEntryView {
                seq,
                kind,
                content,
                prev,
            },
            49 + len,
        ))
    }

    /// Materialises an owned entry (one content allocation).
    #[must_use]
    pub fn to_owned(&self) -> LogEntry {
        LogEntry {
            seq: self.seq,
            kind: self.kind,
            content: self.content.to_vec(),
            prev: *self.prev,
        }
    }
}

impl<'a> From<&'a LogEntry> for LogEntryView<'a> {
    fn from(entry: &'a LogEntry) -> Self {
        LogEntryView {
            seq: entry.seq,
            kind: entry.kind,
            content: &entry.content,
            prev: &entry.prev,
        }
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

    /// Appends an entry, counts it in the composition account
    /// ([`SecureLog::composition`], by [`EntryClass::of`]) and returns it.
    pub fn append(&mut self, kind: EntryKind, content: Vec<u8>) -> &LogEntry {
        self.composition
            .count(EntryClass::of(kind, &content), content.len() as u64);
        let seq = self.len();
        let prev = self.head;
        self.head = chain_hash(&prev, seq, kind, &content);
        self.entries.push(LogEntry {
            seq,
            kind,
            content,
            prev,
        });
        self.entries.last().expect("just pushed")
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

/// The `(node, seq, head)` an authenticator payload commits to.
fn authenticator_fields(payload: &[u8]) -> Option<(u32, u64, [u8; 32])> {
    if payload.len() != AUTHENTICATOR_PAYLOAD_LEN || &payload[..12] != AUTHENTICATOR_DOMAIN {
        return None;
    }
    let node = u32::from_le_bytes(payload[12..16].try_into().ok()?);
    let seq = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let head = payload[24..56].try_into().ok()?;
    Some((node, seq, head))
}

/// Length of an authenticator's attested payload.
const AUTHENTICATOR_PAYLOAD_LEN: usize = 12 + 4 + 8 + 32;

/// The canonical attestation payload for a commitment, on the stack.
pub(crate) fn authenticator_payload(
    node: u32,
    seq: u64,
    head: &[u8; 32],
) -> [u8; AUTHENTICATOR_PAYLOAD_LEN] {
    let mut out = [0u8; AUTHENTICATOR_PAYLOAD_LEN];
    out[..12].copy_from_slice(AUTHENTICATOR_DOMAIN);
    out[12..16].copy_from_slice(&node.to_le_bytes());
    out[16..24].copy_from_slice(&seq.to_le_bytes());
    out[24..].copy_from_slice(head);
    out
}

impl Authenticator {
    /// The canonical attestation payload for a commitment.
    #[must_use]
    pub fn payload(node: u32, seq: u64, head: &[u8; 32]) -> Vec<u8> {
        authenticator_payload(node, seq, head).to_vec()
    }

    /// A borrowed view of this authenticator.
    #[must_use]
    pub fn as_view(&self) -> AuthenticatorView<'_> {
        AuthenticatorView {
            node: self.node,
            seq: self.seq,
            head: self.head,
            attestation: self.attestation.as_view(),
        }
    }

    /// Serialises the authenticator into `out`, appending: its attested
    /// message's wire form (`node`, `seq` and `head` are read back from the
    /// attested payload by [`AuthenticatorView::parse`]).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        self.attestation.encode_into(out);
    }

    /// The payload-free copy of this authenticator. It encodes to this
    /// authenticator's bytes whenever the attested payload is the canonical
    /// one for `(node, seq, head)`, as it is for every parsed or
    /// [consistent](AuthenticatorView::consistent) authenticator.
    #[must_use]
    pub fn compact(&self) -> CompactAuthenticator {
        self.as_view().compact()
    }
}

/// An [`Authenticator`] parsed in place: the same fields, with the
/// attested payload borrowed from the bytes it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthenticatorView<'a> {
    /// The committing node.
    pub node: u32,
    /// Number of log entries the commitment covers.
    pub seq: u64,
    /// The committed head hash.
    pub head: [u8; 32],
    /// The TNIC seal over the commitment.
    pub attestation: AttestedView<'a>,
}

impl<'a> AuthenticatorView<'a> {
    /// Parses an authenticator from an encoded attested message; `node`,
    /// `seq` and `head` are read from the attested payload. The one
    /// authenticator parser.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] if the wire bytes or the
    /// attested payload are malformed.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, DeviceError> {
        let attestation = AttestedView::parse(bytes)?;
        let (node, seq, head) = authenticator_fields(attestation.payload)
            .ok_or(DeviceError::MalformedMessage("bad authenticator payload"))?;
        Ok(AuthenticatorView {
            node,
            seq,
            head,
            attestation,
        })
    }

    /// Whether the carried attestation structurally matches the claimed
    /// `(node, seq, head)`: payload equality, issuing device and session.
    /// Cryptographic verification is separate (the witness's kernel).
    #[must_use]
    pub fn consistent(&self) -> bool {
        authenticator_fields(self.attestation.payload) == Some((self.node, self.seq, self.head))
            && self.attestation.device == DeviceId(self.node)
            && self.attestation.session == log_session(self.node)
    }

    /// Materialises an owned authenticator (one payload allocation).
    #[must_use]
    pub fn to_owned(&self) -> Authenticator {
        Authenticator {
            node: self.node,
            seq: self.seq,
            head: self.head,
            attestation: self.attestation.to_owned(),
        }
    }

    /// As [`Authenticator::compact`].
    #[must_use]
    pub fn compact(&self) -> CompactAuthenticator {
        CompactAuthenticator {
            node: self.node,
            seq: self.seq,
            head: self.head,
            mac: self.attestation.mac,
            session: self.attestation.session,
            device: self.attestation.device,
            counter: self.attestation.counter,
        }
    }
}

/// An [`Authenticator`] without its attested payload: the commitment
/// `(node, seq, head)` and the seal's MAC, session, device and counter.
/// The payload is rebuilt as `Authenticator::payload(node, seq, head)` on
/// encode, which is what a parsed authenticator's payload is by
/// construction and what the engine seals, so the bytes are the
/// authenticator's own. The piggyback ride queues hold commitments in this
/// form: queueing a relay copies fields, never a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactAuthenticator {
    /// The committing node.
    pub node: u32,
    /// Number of log entries the commitment covers.
    pub seq: u64,
    /// The committed head hash.
    pub head: [u8; 32],
    /// The seal's MAC.
    pub mac: [u8; ATTESTATION_LEN],
    /// The session the seal was made on.
    pub session: SessionId,
    /// The device that made the seal.
    pub device: DeviceId,
    /// The seal's counter.
    pub counter: u64,
}

impl CompactAuthenticator {
    /// Serialises the authenticator into `out`, appending: the bytes of
    /// [`Authenticator::encode_into`], payload rebuilt on the stack.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let payload = authenticator_payload(self.node, self.seq, &self.head);
        AttestedView {
            mac: self.mac,
            session: self.session,
            device: self.device,
            counter: self.counter,
            payload: &payload,
        }
        .encode_into(out);
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

    fn decode_entry(bytes: &[u8]) -> Option<(LogEntry, usize)> {
        LogEntryView::parse(bytes).map(|(view, used)| (view.to_owned(), used))
    }

    fn encoded(entry: &LogEntry) -> Vec<u8> {
        let mut out = Vec::new();
        entry.encode_into(&mut out);
        out
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Digests computed with Python's `hashlib` over the documented layout,
    /// `sha256(prev + struct.pack('<QBI', seq, tag, peer) + content)`: the
    /// chain format is what every sealed commitment covers, so it must not
    /// move with the hashing code underneath it.
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
            "7e66786a5ce8f01242186d382de873613004883db50d6bfc91d843c0d02db136",
        );
        check(
            &prev,
            1,
            EntryKind::Send { to: 7 },
            b"hello",
            "dd384c8db75290364b93b541283aee7ceef72a2ac48e8fe47a08c03c8c5bf28d",
        );
        check(
            &prev,
            u64::MAX,
            EntryKind::Recv { from: 0xdead_beef },
            &content,
            "b2ea7161d6854dcb4d2a58a36e4921c49fbdd92d3eb20586a5ef9a40c14f9ba2",
        );
        check(
            &[0xff; 32],
            0x0102_0304_0506_0708,
            EntryKind::Checkpoint,
            &[0xab; 64],
            "194521a26d3fbc68c164212fb5c47a50041627a7294c43fb579845beea37fc26",
        );
        check(
            &prev,
            42,
            EntryKind::AuditRound,
            &content[..55],
            "25cece97e2b0fbfa2243978b701c9eada0ebbb1ce28cc32a91fc96f6b520ea3c",
        );
    }

    /// Digests computed with Python's `hashlib` as
    /// `sha256(b"TNIC-PR-ARND" + b"".join(digests))`; the 0-digest value is
    /// the hash of the domain alone.
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
                "230b1d020fcac0cd9d49455db90468b1f017d0ac3a6543659933866814d8daf4",
            ),
            (
                5,
                "2a1c9e82c866a57ead5b24d72d71a93cef8b94eed1f557931756338e2fe8455e",
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
        // Only the full-payload prefix yields a payload, even if the bytes
        // after another prefix happen to resemble one.
        assert_eq!(content_payload(&[&[0u8][..], &payload].concat()), None);
        assert_eq!(content_payload(&[]), None);
    }

    #[test]
    fn composition_classifies_and_survives_pruning() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Send { to: 1 }, content_full(b"app"));
        log.append(EntryKind::Recv { from: 1 }, vec![0u8; 33]);
        log.append(EntryKind::AuditRound, audit_round_content(0, &[[1u8; 32]]));
        log.append(EntryKind::Exec, b"output".to_vec());
        log.append(EntryKind::Checkpoint, b"mark".to_vec());
        let composition = log.composition();
        assert_eq!(composition.app_payload_entries, 2); // full send + exec
        assert_eq!(composition.control_digest_entries, 2); // bare recv + checkpoint
        assert_eq!(composition.audit_digest_entries, 1);
        assert_eq!(total(&composition), log.len());
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
            let bytes = encoded(entry);
            let (decoded, used) = decode_entry(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(&decoded, entry);
        }
        assert!(decode_entry(&[1, 2, 3]).is_none());
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
        assert_eq!(parsed, digests.as_flattened());
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
        log.append(EntryKind::AuditRound, content);
        assert_eq!(log.composition().audit_digest_entries, 1);
        let entry = &log.entries()[0];
        let (decoded, used) = decode_entry(&encoded(entry)).unwrap();
        assert_eq!(used, encoded(entry).len());
        assert_eq!(&decoded, entry);
        assert_eq!(decoded.kind, EntryKind::AuditRound);
        // The kind decides the class, whatever the content looks like.
        assert_eq!(
            EntryClass::of(EntryKind::AuditRound, &content_full(b"x")),
            EntryClass::AuditDigest
        );
    }

    #[test]
    fn checkpoint_entry_kind_round_trips() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Checkpoint, b"mark".to_vec());
        let entry = &log.entries()[0];
        let (decoded, used) = decode_entry(&encoded(entry)).unwrap();
        assert_eq!(used, encoded(entry).len());
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
        assert!(auth.as_view().consistent());

        let decoded = AuthenticatorView::parse(&auth.attestation.encode())
            .unwrap()
            .to_owned();
        assert_eq!(decoded, auth);

        // Any witness holding the log-session key verifies the seal.
        let mut witness = AttestationKernel::new(DeviceId(9), AttestationTiming::zero());
        witness.install_session_key(log_session(node), [7u8; 32]);
        witness.verify_binding(&decoded.attestation).unwrap();
    }

    /// A compact authenticator re-encodes to its authenticator's bytes
    /// for a node's own commitment, for one relayed (parsed off the wire)
    /// and for a forgery sealed on a foreign device and session, which
    /// keeps that device and session.
    #[test]
    fn compact_authenticators_re_encode_byte_identically() {
        let log = sample_log();
        let sealed = |device: u32, node: u32| {
            let mut kernel = AttestationKernel::new(DeviceId(device), AttestationTiming::zero());
            kernel.install_session_key(log_session(device), [device as u8; 32]);
            let payload = Authenticator::payload(node, log.len(), &log.head());
            let (attestation, _) = kernel.attest(log_session(device), &payload).unwrap();
            Authenticator {
                node,
                seq: log.len(),
                head: log.head(),
                attestation,
            }
        };
        let own = sealed(3, 3);
        let relayed = AuthenticatorView::parse(&own.attestation.encode())
            .unwrap()
            .to_owned();
        let forged = sealed(5, 3);
        assert!(
            own.as_view().consistent()
                && relayed.as_view().consistent()
                && !forged.as_view().consistent()
        );
        for auth in [own, relayed, forged] {
            let bytes = auth.attestation.encode();
            let mut wire = Vec::new();
            auth.compact().encode_into(&mut wire);
            assert_eq!(wire, bytes);
            let view = AuthenticatorView::parse(&bytes).unwrap();
            assert_eq!(view.compact(), auth.compact());
            assert_eq!(view.to_owned(), auth);
        }
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
        assert!(!auth.as_view().consistent());
        auth.seq = log.len();
        assert!(auth.as_view().consistent());
        auth.node = 4;
        assert!(!auth.as_view().consistent());
    }
}
