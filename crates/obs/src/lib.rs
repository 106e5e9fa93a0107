//! Protocol-aware observability for the TNIC accountability stack.
//!
//! The rest of the workspace answers *what happened* with counters
//! ([`tnic_sim::stats`], `AccountabilityStats`); this crate answers *why*:
//! every protocol-relevant step — a datapath attest, a witness challenge, a
//! replay, a verdict flip — is recorded as a fixed-size structured [`Event`]
//! that can later be assembled into causal timelines
//! ([`timeline::explain_verdict`]) and rendered into per-run reports.
//!
//! # Recorder model
//!
//! Instrumented crates emit events with the [`trace_event!`] macro. The macro
//! forwards to a process-wide (thread-local — the simulator is
//! single-threaded) recorder slot that is **empty by default**. A harness
//! opts in by installing a recorder:
//!
//! ```
//! use tnic_obs::{EventKind, RecorderGuard};
//!
//! let guard = RecorderGuard::install(4096); // preallocated ring, 4096 events
//! tnic_obs::trace_event!(EventKind::Attest, node: 1, seq: 7, aux: 64);
//! let events = guard.snapshot();
//! assert_eq!(events.len(), 1);
//! ```
//!
//! Recorders are pluggable: anything implementing [`Recorder`] can be
//! installed with [`install_recorder`]. The default [`RingRecorder`] is a
//! preallocated ring buffer — once full it overwrites the oldest events and
//! counts them in [`RingRecorder::dropped`], so long runs keep the *recent*
//! history (what a report needs to explain the last verdicts) at a fixed
//! memory budget.
//!
//! # Zero-overhead guarantee
//!
//! The instrumentation must not disturb what it measures, in particular the
//! CI-gated 0 allocs/message datapath:
//!
//! - **No recorder installed** (the default): `trace_event!` evaluates a
//!   single thread-local boolean and branches away. None of the field
//!   expressions are evaluated.
//! - **Recorder installed**: [`Event`] is a small `Copy` struct written into
//!   a ring slot that was allocated once at install time. Recording an event
//!   never allocates, so the datapath stays at 0 allocs/message with tracing
//!   *enabled* (the zerocopy bench gates exactly this).
//! - **Compiled out**: building `tnic-obs` with `--no-default-features`
//!   turns [`tracing_enabled`] into a constant `false`; the optimiser then
//!   removes every `trace_event!` expansion entirely.
//!
//! # Adding an event kind
//!
//! 1. Add a variant to [`EventKind`] (append — keep existing discriminants
//!    stable so recorded streams stay comparable across runs) and extend
//!    [`EventKind::ALL`] and [`EventKind::label`]. The
//!    `all_covers_every_variant` test holds an exhaustive `match` over the
//!    enum, so forgetting `ALL` is a compile error in `cargo test`, not a
//!    silently unaggregated kind.
//! 2. Document the field conventions for the new kind on the variant: what
//!    `node`/`peer`/`seq`/`round`/`aux` mean. Every kind uses the same
//!    fixed struct; `aux` carries the kind-specific code.
//! 3. Emit it from the instrumented crate with
//!    `trace_event!(EventKind::YourKind, node: ..., aux: ...)` — omitted
//!    fields default to [`Event::EMPTY`].
//! 4. If reports should aggregate it, teach `tnic_bench`'s report generator
//!    (and, for protocol steps, [`timeline`]) about the new kind.
//!
//! # Cross-node trace identity
//!
//! A message's trace id is not an extra wire field: the attested header
//! every message already carries — the **(sender, attestation counter)**
//! pair — uniquely names one send, and both the sender's [`EventKind::Send`]
//! and the receiver's [`EventKind::Recv`] record it (`node`/`peer` are the
//! endpoints, `seq` is the counter). [`assemble::TraceAssembler`] joins the
//! two sides on that key into happens-before edges, so the whole
//! send → attest → net-deliver → verify → log-append → commitment →
//! challenge → audit-replay → verdict lifecycle is one causally linked
//! cross-node trace with **zero bytes added to any envelope** (and the
//! 0 allocs/message datapath untouched). [`assemble::trace_id`] packs the
//! pair into the single `u64` exporters use as the flow id.
//!
//! # Debugging a verdict
//!
//! The intended post-mortem workflow when a CI gate fails or a verdict
//! comes out wrong:
//!
//! 1. **Start from the flight-recorder dump.** `reproduce`/`sweep` write
//!    `reports/flightrec-*.json` automatically whenever a named gate fails
//!    (the `reports/` directory is uploaded as a CI artifact, so every red
//!    run carries its own post-mortem). The dump names the failing gates
//!    and embeds a bounded event trace, the metrics registry snapshot and
//!    the log-composition breakdown — see [`flight`].
//! 2. **Assemble the timeline.** Feed the recorded events to
//!    [`assemble::TraceAssembler`]: [`assemble::TraceAssembler::ordered`]
//!    returns the cluster-wide causally ordered timeline (every recv after
//!    its send, per-node order preserved), and
//!    [`assemble::TraceAssembler::pair_spans`] the per-(witness, node)
//!    protocol-phase spans generalizing [`timeline::explain_verdict`].
//! 3. **Open it in Perfetto.** `reproduce --trace-out DIR` (or
//!    [`export::chrome_trace`] on any snapshot) writes Chrome trace-event
//!    JSON: one track per node, an instant per protocol event, flow arrows
//!    for every cross-node message edge and one span per audit phase. Load
//!    it at <https://ui.perfetto.dev> and follow the flow arrows from the
//!    tampered send to the exposing verdict. [`export::jsonl`] is the same
//!    data in grep-friendly JSONL.
//! 4. **Check for truncation.** If the ring wrapped during the run the
//!    report warns and [`Recorder::dropped_by_node`] says whose history is
//!    incomplete — re-run with a larger ring before trusting a partial
//!    timeline.
//! 5. **Reading log-composition numbers.** `LogAppend` events carry the
//!    entry class in `aux` ([`codes::LOG_APP_PAYLOAD`] /
//!    [`codes::LOG_CONTROL_DIGEST`] / [`codes::LOG_AUDIT_DIGEST`]). Since
//!    audit-protocol traffic is batched into one round-digest entry per
//!    node per audit round (`EntryKind::AuditRound` in
//!    `tnic_peerreview::log`), a *low* audit-digest count is the expected
//!    shape; a run where audit digests grow with the per-round challenge
//!    volume means the classifier missed a carrier (there is no unbatched
//!    mode to have been left on). A verdict labelled
//!    `round-digest-mismatch` ([`codes::MIS_ROUND_DIGEST_MISMATCH`]) means
//!    a replayed round-digest entry was internally inconsistent — the
//!    node's accumulated digest did not match its own carried envelope
//!    list; a *self-consistent* forgery of the same entry surfaces as
//!    `head-mismatch` against the sealed commitment instead.

pub mod assemble;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod timeline;

use std::cell::{Cell, RefCell};

/// The static vocabulary of protocol events.
///
/// Field conventions (`node`/`peer`/`seq`/`round`/`aux`) are given per kind;
/// unused fields stay at their [`Event::EMPTY`] defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Cluster-level attested send: `node` sender, `peer` receiver,
    /// `seq` attestation counter, `aux` payload bytes.
    Send = 0,
    /// Cluster-level verified delivery: `node` receiver, `peer` sender,
    /// `seq` attestation counter, `aux` 0 = accepted / 1 = rejected.
    Recv = 1,
    /// Device TX datapath attest: `node` device id, `seq` send counter,
    /// `aux` payload bytes.
    Attest = 2,
    /// Device RX datapath verify: `node` device id, `seq` receive counter,
    /// `aux` payload bytes.
    Verify = 3,
    /// A witness stored a commitment: `node` witness, `peer` committer,
    /// `seq` committed log sequence, `round` audit round.
    Commitment = 4,
    /// A witness issued an audit challenge: `node` witness, `peer` audited
    /// node, `seq` challenged upper log sequence, `round` audit round.
    Challenge = 5,
    /// A witness received an audit response: `node` witness, `peer` audited
    /// node, `seq` response base sequence, `aux` entry count.
    Response = 6,
    /// A witness replayed a log segment against its reference state machine:
    /// `node` witness, `peer` audited node, `seq` replayed upper sequence,
    /// `aux` 0 = consistent / misbehavior code (see [`codes`]).
    AuditReplay = 7,
    /// Evidence transfer between witnesses: `node` receiving witness,
    /// `peer` sending witness, `aux` 0 = verified / 1 = rejected.
    Evidence = 8,
    /// A witness verdict changed: `node` witness, `peer` judged node,
    /// `aux` packed transition (see [`codes::pack_verdict`]), `round` audit
    /// round when stamped by the engine.
    VerdictTransition = 9,
    /// Checkpoint lifecycle step: `node` actor, `peer` counterpart (or
    /// `NONE`), `seq` checkpointed sequence, `round` epoch,
    /// `aux` phase (see [`codes::CKPT_PROPOSE`] etc.).
    Checkpoint = 10,
    /// Log/commitment garbage collection: `node` pruning node, `seq` prune
    /// cut sequence, `aux` entries dropped.
    Prune = 11,
    /// Fabric delivered a packet: `node` destination address,
    /// `peer` source address, `seq` PSN, `aux` payload bytes.
    NetDeliver = 12,
    /// Fabric dropped a packet (link loss or adversary): `node` destination
    /// address, `peer` source address, `seq` PSN. Cluster-level drops to an
    /// unreachable endpoint carry a reason in `aux`
    /// ([`codes::DROP_DEPARTED`] etc.).
    NetDrop = 13,
    /// A node's membership phase changed: `node` the member, `aux` the new
    /// phase ([`codes::MEMBER_JOINING`] etc.), `round` audit round.
    Membership = 14,
    /// A network partition opened or healed: `aux` 0 = open / 1 = heal
    /// ([`codes::PARTITION_OPEN`]/[`codes::PARTITION_HEAL`]), `round` the
    /// partition-schedule round, `seq` the partitioned group size.
    Partition = 15,
    /// A witness re-issued an unanswered challenge (timeout–retry–backoff):
    /// `node` witness, `peer` audited node, `seq` challenged upper log
    /// sequence, `round` audit round, `aux` retry attempt (1-based).
    Retry = 16,
    /// A sampling witness selected a charge for audit this round: `node`
    /// witness, `peer` selected auditee, `round` audit round, `aux` the
    /// witness's sample size for the round.
    AuditSample = 17,
    /// A node appended an entry to its tamper-evident log: `node` the
    /// appender, `peer` the message counterpart (`NONE` for exec/checkpoint
    /// entries), `seq` the absolute log sequence of the new entry, `aux`
    /// the entry class ([`codes::LOG_APP_PAYLOAD`],
    /// [`codes::LOG_CONTROL_DIGEST`] or [`codes::LOG_AUDIT_DIGEST`]).
    LogAppend = 18,
}

impl EventKind {
    /// All kinds, in discriminant order (for per-kind aggregation). The
    /// `all_covers_every_variant` test pins this list to the enum with an
    /// exhaustive `match`, so a new variant that is not added here fails to
    /// compile the test suite instead of silently missing aggregation.
    pub const ALL: [EventKind; 19] = [
        EventKind::Send,
        EventKind::Recv,
        EventKind::Attest,
        EventKind::Verify,
        EventKind::Commitment,
        EventKind::Challenge,
        EventKind::Response,
        EventKind::AuditReplay,
        EventKind::Evidence,
        EventKind::VerdictTransition,
        EventKind::Checkpoint,
        EventKind::Prune,
        EventKind::NetDeliver,
        EventKind::NetDrop,
        EventKind::Membership,
        EventKind::Partition,
        EventKind::Retry,
        EventKind::AuditSample,
        EventKind::LogAppend,
    ];

    /// Short stable label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Attest => "attest",
            EventKind::Verify => "verify",
            EventKind::Commitment => "commitment",
            EventKind::Challenge => "challenge",
            EventKind::Response => "response",
            EventKind::AuditReplay => "audit-replay",
            EventKind::Evidence => "evidence",
            EventKind::VerdictTransition => "verdict-transition",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Prune => "prune",
            EventKind::NetDeliver => "net-deliver",
            EventKind::NetDrop => "net-drop",
            EventKind::Membership => "membership",
            EventKind::Partition => "partition",
            EventKind::Retry => "retry",
            EventKind::AuditSample => "audit-sample",
            EventKind::LogAppend => "log-append",
        }
    }
}

/// Sentinel for an absent `node`/`peer` id.
pub const NONE: u32 = u32::MAX;

/// One recorded protocol event. Fixed-size and `Copy` so recording is a
/// plain slot write (see [`RingRecorder`] for the one record that may
/// allocate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Virtual time in microseconds (0 when the site has no clock).
    pub at_us: u64,
    /// Primary actor (kind-specific; see [`EventKind`]).
    pub node: u32,
    /// Counterpart actor, or [`NONE`].
    pub peer: u32,
    /// Kind-specific sequence number (log seq, counter, PSN).
    pub seq: u64,
    /// Audit round / checkpoint epoch, when the emitting site knows it.
    pub round: u64,
    /// Kind-specific code or size (see [`EventKind`] and [`codes`]).
    pub aux: u64,
}

impl Event {
    /// The all-defaults event used by [`trace_event!`] for omitted fields.
    pub const EMPTY: Event = Event {
        kind: EventKind::Send,
        at_us: 0,
        node: NONE,
        peer: NONE,
        seq: 0,
        round: 0,
        aux: 0,
    };
}

/// Stable numeric codes carried in [`Event::aux`], shared between the
/// instrumented crates (which encode) and the report generator (which
/// decodes).
pub mod codes {
    /// Verdict: node is trusted.
    pub const VERDICT_TRUSTED: u64 = 0;
    /// Verdict: node is suspected (unanswered challenge).
    pub const VERDICT_SUSPECTED: u64 = 1;
    /// Verdict: node is exposed with evidence.
    pub const VERDICT_EXPOSED: u64 = 2;

    /// No misbehavior (consistent replay).
    pub const MIS_NONE: u64 = 0;
    /// Conflicting commitments for one sequence number.
    pub const MIS_CONFLICTING_COMMITMENTS: u64 = 1;
    /// Response shorter than the challenged range.
    pub const MIS_TRUNCATED: u64 = 2;
    /// Response longer than the challenged range.
    pub const MIS_SURPLUS_ENTRIES: u64 = 3;
    /// Hash chain broken inside the response.
    pub const MIS_BROKEN_CHAIN: u64 = 4;
    /// Replayed head differs from the committed head.
    pub const MIS_HEAD_MISMATCH: u64 = 5;
    /// Replayed execution diverged from the committed outputs.
    pub const MIS_EXEC_DIVERGENCE: u64 = 6;
    /// Log conflicts with a certified checkpoint.
    pub const MIS_CHECKPOINT_MISMATCH: u64 = 7;
    /// Forged accusation turned against its accuser.
    pub const MIS_FORGED_ACCUSATION: u64 = 8;
    /// Round-digest audit entry internally inconsistent (the accumulated
    /// digest does not match the carried per-envelope digest list).
    pub const MIS_ROUND_DIGEST_MISMATCH: u64 = 9;

    /// Membership phase: node is bootstrapping into the witness protocol.
    pub const MEMBER_JOINING: u64 = 0;
    /// Membership phase: node participates fully.
    pub const MEMBER_ACTIVE: u64 = 1;
    /// Membership phase: node is sealing its log for departure.
    pub const MEMBER_LEAVING: u64 = 2;
    /// Membership phase: node left; its sealed log stays auditable.
    pub const MEMBER_DEPARTED: u64 = 3;
    /// Membership phase: node crash-stopped (unreachable, log intact).
    pub const MEMBER_CRASHED: u64 = 4;
    /// Membership phase: node rejoined and is re-proving its log head.
    pub const MEMBER_RECOVERING: u64 = 5;

    /// Human-readable membership-phase name.
    #[must_use]
    pub fn member_phase_name(code: u64) -> &'static str {
        match code {
            MEMBER_JOINING => "joining",
            MEMBER_ACTIVE => "active",
            MEMBER_LEAVING => "leaving",
            MEMBER_DEPARTED => "departed",
            MEMBER_CRASHED => "crashed",
            MEMBER_RECOVERING => "recovering",
            _ => "unknown",
        }
    }

    /// Partition transition: the schedule's cut became active.
    pub const PARTITION_OPEN: u64 = 0;
    /// Partition transition: the cut healed.
    pub const PARTITION_HEAL: u64 = 1;

    /// Net-drop reason: destination (or source) departed the membership.
    pub const DROP_DEPARTED: u64 = 1;
    /// Net-drop reason: destination (or source) is crash-stopped.
    pub const DROP_CRASHED: u64 = 2;
    /// Net-drop reason: an open partition separates the endpoints.
    pub const DROP_PARTITIONED: u64 = 3;

    /// Human-readable net-drop reason label.
    #[must_use]
    pub fn drop_reason_name(code: u64) -> &'static str {
        match code {
            DROP_DEPARTED => "departed",
            DROP_CRASHED => "crashed",
            DROP_PARTITIONED => "partitioned",
            _ => "adversary",
        }
    }

    /// Log-entry class: application payload logged in full (witnesses
    /// replay it against the reference machine).
    pub const LOG_APP_PAYLOAD: u64 = 0;
    /// Log-entry class: a checkpoint mark, or a send/receive entry that
    /// does not carry a full payload.
    pub const LOG_CONTROL_DIGEST: u64 = 1;
    /// Log-entry class: a round digest, one entry per node and audit round
    /// folding every envelope without an application command (audit,
    /// commitment, checkpoint, evidence and membership traffic) — the
    /// class behind the O(w²) audit-log-inflation feedback.
    pub const LOG_AUDIT_DIGEST: u64 = 2;

    /// Human-readable log-entry-class label.
    #[must_use]
    pub fn log_class_name(code: u64) -> &'static str {
        match code {
            LOG_APP_PAYLOAD => "app-payload",
            LOG_CONTROL_DIGEST => "control-digest",
            LOG_AUDIT_DIGEST => "audit-digest",
            _ => "unknown",
        }
    }

    /// Checkpoint phase: proposal sealed/announced.
    pub const CKPT_PROPOSE: u64 = 0;
    /// Checkpoint phase: cosignature issued.
    pub const CKPT_COSIGN: u64 = 1;
    /// Checkpoint phase: quorum certificate assembled.
    pub const CKPT_CERTIFY: u64 = 2;

    /// Packs a verdict transition (and the misbehavior that caused it) into
    /// [`crate::Event::aux`].
    #[must_use]
    pub fn pack_verdict(old: u64, new: u64, misbehavior: u64) -> u64 {
        (old << 16) | (new << 8) | misbehavior
    }

    /// Inverse of [`pack_verdict`]: `(old, new, misbehavior)`.
    #[must_use]
    pub fn unpack_verdict(aux: u64) -> (u64, u64, u64) {
        ((aux >> 16) & 0xff, (aux >> 8) & 0xff, aux & 0xff)
    }

    /// Human-readable verdict name.
    #[must_use]
    pub fn verdict_name(code: u64) -> &'static str {
        match code {
            VERDICT_TRUSTED => "trusted",
            VERDICT_SUSPECTED => "suspected",
            VERDICT_EXPOSED => "exposed",
            _ => "unknown",
        }
    }

    /// Human-readable misbehavior name (matches `Misbehavior::label`).
    #[must_use]
    pub fn misbehavior_name(code: u64) -> &'static str {
        match code {
            MIS_NONE => "none",
            MIS_CONFLICTING_COMMITMENTS => "conflicting-commitments",
            MIS_TRUNCATED => "truncated-response",
            MIS_SURPLUS_ENTRIES => "surplus-entries",
            MIS_BROKEN_CHAIN => "broken-hash-chain",
            MIS_HEAD_MISMATCH => "head-mismatch",
            MIS_EXEC_DIVERGENCE => "execution-divergence",
            MIS_CHECKPOINT_MISMATCH => "checkpoint-mismatch",
            MIS_FORGED_ACCUSATION => "forged-accusation",
            MIS_ROUND_DIGEST_MISMATCH => "round-digest-mismatch",
            _ => "unknown",
        }
    }
}

/// A sink for trace events. Implementations must not allocate in
/// [`Recorder::record`] — that is what keeps the datapath at 0 allocs/msg
/// with tracing enabled.
pub trait Recorder {
    /// Accepts one event. Called on the hot path; must be allocation-free.
    fn record(&mut self, event: Event);
    /// Returns the retained events, oldest first. May allocate (cold path).
    fn snapshot(&self) -> Vec<Event>;
    /// Events discarded because the recorder ran out of space.
    fn dropped(&self) -> u64 {
        0
    }
    /// Discarded events broken down by the `node` field of the lost event
    /// (`(node, count)` pairs, ascending by node) — which node's history a
    /// wrapped ring truncated. May allocate (cold path).
    fn dropped_by_node(&self) -> Vec<(u32, u64)> {
        Vec::new()
    }
}

/// Per-node drop slots preallocated by [`RingRecorder`], so counting a drop
/// of a node below this id is a plain indexed increment.
const NODE_DROP_SLOTS: usize = 1024;

/// The default recorder: a ring buffer preallocated at install time.
///
/// When full, new events overwrite the oldest; [`RingRecorder::dropped`]
/// counts the overwritten ones so reports can flag truncation instead of
/// silently presenting a partial history. Drops of node ids below 1024
/// are counted in preallocated slots; larger ids ([`NONE`] and fabric
/// addresses included) get one sorted entry each, so overwriting the first
/// event of such an id is the one `record` that may allocate, and the
/// memory grows with the number of distinct ids, not with their value.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<Event>,
    next: usize,
    len: usize,
    dropped: u64,
    node_drops: Vec<u64>,
    /// Drops of ids at or above `NODE_DROP_SLOTS`, sorted by id.
    large_id_drops: Vec<(u32, u64)>,
}

impl RingRecorder {
    /// Creates a ring holding up to `capacity` events (all slots allocated
    /// up front; `capacity` must be nonzero).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring recorder capacity must be nonzero");
        RingRecorder {
            buf: vec![Event::EMPTY; capacity],
            next: 0,
            len: 0,
            dropped: 0,
            node_drops: vec![0; NODE_DROP_SLOTS],
            large_id_drops: Vec::new(),
        }
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: Event) {
        if self.len == self.buf.len() {
            // The ring wraps: the oldest event is about to be overwritten.
            // Attribute the loss to the *discarded* event's node — that is
            // whose timeline just got truncated.
            self.dropped += 1;
            let node = self.buf[self.next].node;
            if let Some(slot) = self.node_drops.get_mut(node as usize) {
                *slot += 1;
            } else {
                match self
                    .large_id_drops
                    .binary_search_by_key(&node, |&(id, _)| id)
                {
                    Ok(i) => self.large_id_drops[i].1 += 1,
                    Err(i) => self.large_id_drops.insert(i, (node, 1)),
                }
            }
        } else {
            self.len += 1;
        }
        self.buf[self.next] = event;
        self.next = (self.next + 1) % self.buf.len();
    }

    fn snapshot(&self) -> Vec<Event> {
        let cap = self.buf.len();
        let start = if self.len == cap { self.next } else { 0 };
        (0..self.len).map(|i| self.buf[(start + i) % cap]).collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn dropped_by_node(&self) -> Vec<(u32, u64)> {
        self.node_drops
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(node, &n)| (node as u32, n))
            .chain(self.large_id_drops.iter().copied())
            .collect()
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Box<dyn Recorder>>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Returns `true` if a recorder is installed (and the `trace` feature is
/// compiled in). `trace_event!` checks this before evaluating any of its
/// field expressions.
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        ENABLED.try_with(Cell::get).unwrap_or(false)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Installs a pluggable recorder, replacing (and returning) any previous one.
pub fn install_recorder(recorder: Box<dyn Recorder>) -> Option<Box<dyn Recorder>> {
    let previous = RECORDER.with(|slot| slot.borrow_mut().replace(recorder));
    ENABLED.with(|e| e.set(true));
    previous
}

/// Removes the installed recorder (tracing turns itself back off).
pub fn uninstall_recorder() -> Option<Box<dyn Recorder>> {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|slot| slot.borrow_mut().take())
}

/// Snapshot of the installed recorder's events (empty if none installed).
#[must_use]
pub fn snapshot() -> Vec<Event> {
    RECORDER.with(|slot| {
        slot.borrow()
            .as_ref()
            .map_or_else(Vec::new, |r| r.snapshot())
    })
}

/// Events dropped by the installed recorder (0 if none installed).
#[must_use]
pub fn dropped() -> u64 {
    RECORDER.with(|slot| slot.borrow().as_ref().map_or(0, |r| r.dropped()))
}

/// Per-node drop counts of the installed recorder (empty if none
/// installed or nothing was dropped) — see [`Recorder::dropped_by_node`].
#[must_use]
pub fn dropped_by_node() -> Vec<(u32, u64)> {
    RECORDER.with(|slot| {
        slot.borrow()
            .as_ref()
            .map_or_else(Vec::new, |r| r.dropped_by_node())
    })
}

/// Records one event into the installed recorder. Prefer [`trace_event!`],
/// which skips field evaluation when tracing is disabled.
#[inline]
pub fn emit(event: Event) {
    #[cfg(feature = "trace")]
    {
        let _ = RECORDER.try_with(|slot| {
            if let Some(recorder) = slot.borrow_mut().as_mut() {
                recorder.record(event);
            }
        });
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = event;
    }
}

/// RAII installation of a [`RingRecorder`]: uninstalls on drop so scenario
/// runs cannot leak tracing state into each other.
pub struct RecorderGuard {
    _private: (),
}

impl RecorderGuard {
    /// Installs a fresh ring recorder with `capacity` event slots.
    #[must_use]
    pub fn install(capacity: usize) -> Self {
        install_recorder(Box::new(RingRecorder::with_capacity(capacity)));
        RecorderGuard { _private: () }
    }

    /// Snapshot of the events recorded so far (oldest first).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        snapshot()
    }

    /// Events overwritten because the ring filled up.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        dropped()
    }

    /// Overwritten events broken down by the lost event's node.
    #[must_use]
    pub fn dropped_by_node(&self) -> Vec<(u32, u64)> {
        dropped_by_node()
    }
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        let _ = uninstall_recorder();
    }
}

/// Records a structured protocol event if tracing is enabled.
///
/// The first argument is the [`EventKind`]; the rest are `field: value`
/// pairs for any subset of [`Event`]'s fields (omitted fields default to
/// [`Event::EMPTY`]). Field expressions are **not evaluated** when tracing
/// is disabled:
///
/// ```
/// use tnic_obs::EventKind;
/// tnic_obs::trace_event!(EventKind::Challenge, node: 2, peer: 0, seq: 17, round: 3);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($kind:expr $(, $field:ident : $value:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            #[allow(clippy::needless_update)]
            $crate::emit($crate::Event {
                kind: $kind,
                $($field: $value,)*
                ..$crate::Event::EMPTY
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_field_expressions_not_evaluated() {
        assert!(!tracing_enabled());
        let mut evaluated = false;
        trace_event!(EventKind::Send, node: { evaluated = true; 1 });
        assert!(
            !evaluated,
            "field expressions must be skipped when disabled"
        );
        assert!(snapshot().is_empty());
    }

    #[test]
    fn guard_records_and_uninstalls() {
        {
            let guard = RecorderGuard::install(8);
            trace_event!(EventKind::Attest, node: 3, seq: 9, aux: 64);
            trace_event!(EventKind::Verify, node: 4, seq: 9, aux: 64);
            let events = guard.snapshot();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind, EventKind::Attest);
            assert_eq!(events[0].node, 3);
            assert_eq!(events[0].peer, NONE);
            assert_eq!(events[1].kind, EventKind::Verify);
        }
        assert!(!tracing_enabled());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = RingRecorder::with_capacity(4);
        for seq in 0..10u64 {
            ring.record(Event {
                kind: EventKind::Send,
                seq,
                ..Event::EMPTY
            });
        }
        assert_eq!(ring.len, 4);
        assert_eq!(ring.dropped(), 6);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_attributes_drops_to_the_discarded_events_node() {
        let mut ring = RingRecorder::with_capacity(2);
        for node in [7u32, 7, 9, 9, 9] {
            ring.record(Event {
                kind: EventKind::Send,
                node,
                ..Event::EMPTY
            });
        }
        // Ring of 2: the two node-7 events and the first node-9 event were
        // overwritten.
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.dropped_by_node(), vec![(7, 2), (9, 1)]);
    }

    /// Ids past the preallocated slots keep their own count, and events of
    /// no node are reported as [`NONE`], not as the last slot's node.
    #[test]
    fn ring_attributes_drops_of_large_and_no_node_ids_honestly() {
        let mut ring = RingRecorder::with_capacity(2);
        for node in [5000, NONE, 7, 1, 1] {
            ring.record(Event {
                kind: EventKind::Send,
                node,
                ..Event::EMPTY
            });
        }
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.dropped_by_node(), vec![(7, 1), (5000, 1), (NONE, 1)]);
    }

    /// A fabric address (10.0.0.2) or an id just below [`NONE`] costs one
    /// sorted entry, not slots up to its value.
    #[test]
    fn ring_drop_counts_stay_small_for_address_sized_ids() {
        let mut ring = RingRecorder::with_capacity(1);
        for node in [0x0A00_0002, NONE - 1, 0x0A00_0002, 3, 3] {
            ring.record(Event {
                kind: EventKind::NetDrop,
                node,
                ..Event::EMPTY
            });
        }
        assert_eq!(
            ring.dropped_by_node(),
            vec![(3, 1), (0x0A00_0002, 2), (NONE - 1, 1)]
        );
        assert_eq!(ring.node_drops.len(), NODE_DROP_SLOTS);
        assert!(ring.large_id_drops.capacity() <= 8);
    }

    /// `ALL` must cover every variant, in discriminant order. The closure
    /// holds a wildcard-free `match` over the enum: adding a variant makes
    /// it non-exhaustive (a compile error right here), and the arm it then
    /// forces you to write pins the variant's expected position in `ALL`.
    #[test]
    fn all_covers_every_variant() {
        let index_of = |kind: EventKind| -> usize {
            match kind {
                EventKind::Send => 0,
                EventKind::Recv => 1,
                EventKind::Attest => 2,
                EventKind::Verify => 3,
                EventKind::Commitment => 4,
                EventKind::Challenge => 5,
                EventKind::Response => 6,
                EventKind::AuditReplay => 7,
                EventKind::Evidence => 8,
                EventKind::VerdictTransition => 9,
                EventKind::Checkpoint => 10,
                EventKind::Prune => 11,
                EventKind::NetDeliver => 12,
                EventKind::NetDrop => 13,
                EventKind::Membership => 14,
                EventKind::Partition => 15,
                EventKind::Retry => 16,
                EventKind::AuditSample => 17,
                EventKind::LogAppend => 18,
            }
        };
        for (position, &kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(
                index_of(kind),
                position,
                "ALL out of order at position {position} ({})",
                kind.label()
            );
            assert_eq!(
                kind as usize, position,
                "discriminants must stay contiguous and match the ALL order"
            );
        }
        // Every match arm's index lands inside ALL, so together with the
        // order check above, ALL contains each variant exactly once.
        assert_eq!(EventKind::ALL.len(), index_of(EventKind::LogAppend) + 1);
        let mut labels: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len(), "labels must be unique");
    }

    #[test]
    fn verdict_packing_round_trips() {
        let aux = codes::pack_verdict(
            codes::VERDICT_TRUSTED,
            codes::VERDICT_EXPOSED,
            codes::MIS_FORGED_ACCUSATION,
        );
        assert_eq!(
            codes::unpack_verdict(aux),
            (
                codes::VERDICT_TRUSTED,
                codes::VERDICT_EXPOSED,
                codes::MIS_FORGED_ACCUSATION
            )
        );
        assert_eq!(codes::verdict_name(codes::VERDICT_EXPOSED), "exposed");
        assert_eq!(
            codes::misbehavior_name(codes::MIS_FORGED_ACCUSATION),
            "forged-accusation"
        );
    }

    #[test]
    fn install_replaces_previous_recorder() {
        let _guard = RecorderGuard::install(4);
        trace_event!(EventKind::Send, node: 1);
        let old = install_recorder(Box::new(RingRecorder::with_capacity(4)));
        assert_eq!(old.expect("previous recorder").snapshot().len(), 1);
        assert!(snapshot().is_empty());
        trace_event!(EventKind::Recv, node: 2);
        assert_eq!(snapshot().len(), 1);
    }
}
