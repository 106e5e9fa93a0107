//! The application-agnostic accountability engine.
//!
//! This module is the reusable middleware half of the PeerReview split: the
//! commitment protocol ([`CommitmentLayer`]), the witness audit machinery
//! (challenge/verify/classify over [`WitnessRecord`]s), verdict tracking,
//! evidence transfer and the piggyback ride queue — everything that is *not*
//! specific to a particular workload. Applications plug in through the
//! [`AccountedApp`] trait and drive the engine over their own
//! [`Cluster`]; the `tnic-peerreview` crate's own [`crate::system::PeerReview`]
//! is just one such client, alongside the BFT (`tnic-bft`) and chain
//! replication (`tnic-cr`) deployments.
//!
//! # Protocol
//!
//! The engine attaches a [`CommitmentLayer`] to the cluster (every
//! `auth_send` appends a `Send` entry to the sender's log, every verified
//! delivery a `Recv` entry to the receiver's — see
//! [`tnic_core::accountability`]), assigns every node a witness set, and
//! drives the audit protocol in explicit rounds:
//!
//! 1. **Commit** — every node seals its current log head per witness and
//!    announces it ([`Envelope::Announce`]); witnesses verify the seal,
//!    gossip commitments to fellow witnesses and cross-check for conflicts.
//! 2. **Challenge** — each witness challenges its auditee for the log
//!    segment between the last audited commitment and the newest one.
//! 3. **Verify** — responses are length- and chain-checked and replayed
//!    against the application's reference machine ([`AccountedApp::Machine`]);
//!    unanswered challenges downgrade the node to *suspected*, verifiable
//!    failures to *exposed*, and equivocation evidence is broadcast so every
//!    correct witness convicts.
//!
//! Byzantine behaviours are injected through
//! [`tnic_net::adversary::FaultPlan`], keeping the audit machinery itself
//! identical for honest and adversarial runs. That includes audit-side
//! Byzantine *witnesses*: a forging witness fabricates evidence (rejected
//! and turned against it — see the [`crate::audit`] evidence-verification
//! rules), a falsely suspecting witness lies only to itself, and a
//! gossip-withholding / relay-refusing / silent witness suppresses its
//! forwarding or audit duties — which the per-round rotation of the
//! piggyback announcement target turns into bounded detection latency
//! instead of a propagation blackout. A challenge below a pruned log base
//! is answered with the checkpoint commit certificate itself, so a witness
//! behind a reordering transport verifies and fast-forwards instead of
//! suspecting.
//!
//! # Attaching accountability to a new application
//!
//! 1. Implement [`AccountedApp`] for the application state: a deterministic
//!    [`AccountedApp::execute`] for delivered commands, a
//!    [`AccountedApp::snapshot_digest`] of per-node state, and a fresh
//!    [`AccountedApp::replay_machine`] witnesses replay.
//! 2. Wrap the application's protocol payloads as [`Envelope::App`] before
//!    sending them through the cluster.
//! 3. Build the engine with [`AccountabilityEngine::attach`] over the
//!    application's cluster, and route every `Cluster::poll` through
//!    [`AccountabilityEngine::poll`]: the engine peels piggybacked
//!    commitments, consumes audit control traffic, registers executions in
//!    the tamper-evident log and hands back the application's own messages
//!    as [`AppDelivery`] records.
//! 4. Implement [`crate::deployment::Accountable`] for the deployment (the
//!    engine, the cluster and the application, borrowed together) and run
//!    the workload through its `run_rounds`: it interleaves
//!    [`AccountabilityEngine::run_audit_round`] with the work — or, in
//!    piggyback mode, [`AccountabilityEngine::begin_audit_round`] before it
//!    and [`AccountabilityEngine::finish_audit_round`] after it, so
//!    commitments can ride the traffic. Call `drain_audits` at teardown.
//!
//! # Witness sets and rotation
//!
//! By default every node is witnessed by all other nodes (`w = n - 1`).
//! [`EngineConfig::witness_count`] shrinks the set to `w < n - 1` witnesses
//! assigned by deterministic rotation: node `i` is audited by nodes
//! `i+1, …, i+w (mod n)`. The rotation keeps assignments balanced (every
//! node witnesses exactly `w` others) and the exposure guarantees hold as
//! long as at least one correct witness audits each node — witness gossip
//! and evidence transfer then propagate verdicts to the rest of the set.
//!
//! # Commitment piggybacking
//!
//! With [`EngineConfig::piggyback`] enabled, the commit step stops sending
//! dedicated `Announce`/`Gossip` messages. Instead each node seals its
//! commitment *before* the round's application workload and queues it for
//! its first witness; the cluster's
//! [`wrap_outbound`](tnic_core::accountability::AccountabilityLayer::wrap_outbound)
//! (and, for group traffic,
//! [`wrap_multicast`](tnic_core::accountability::AccountabilityLayer::wrap_multicast))
//! hook splices up to [`MAX_PIGGYBACK_RIDERS`] pending authenticators onto
//! the next outbound envelope ([`Envelope::Piggyback`]). Witnesses relay
//! directly received commitments to fellow witnesses the same way (on their
//! own application sends and audit replies). Pending items that found no
//! ride by the end of the workload are flushed in dedicated messages —
//! repeatedly, until no relay is outstanding — before challenges are
//! issued, so *every* witness audits in *every* round. The audit pipeline
//! runs one workload round behind the traffic it rides on (commitments
//! sealed before round `k`'s workload cover rounds `< k`); a finite run
//! therefore leaves its final round unaudited until
//! [`AccountabilityEngine::drain_audits`] closes the tail.
//!
//! # Checkpoints, garbage collection and epoch rotation
//!
//! With [`EngineConfig::checkpoint_interval`] set, every that-many audit
//! rounds end in a checkpoint round (see [`crate::checkpoint`] for the full
//! lifecycle): **propose** — each node seals a [`CheckpointMark`] over its
//! last committed boundary (the log-driven state digest captured when the
//! commitment was sealed) and records a matching
//! [`EntryKind::Checkpoint`] entry in
//! its own log; **cosign** — witnesses return sealed [`Cosignature`]s for
//! exactly the prefixes they have audited and replayed themselves;
//! **prune** — a quorum certificate lets the node garbage-collect the
//! covered prefix and its witnesses drop the covered commitments, making
//! audits, replays and evidence checkpoint-relative; **rotate** — with
//! [`EngineConfig::rotate_witnesses`], the epoch advance re-derives every
//! witness set ([`witness_set`]) so no slow or Byzantine witness shadows
//! the same auditee forever, with the cosigned checkpoint handing incoming
//! witnesses a verified starting state.
//!
//! Epoch rotation composes with piggybacked commitments: the audit
//! pipeline's one-round lag means a commitment sealed before rotation may
//! still be queued for (or gossiped among) the *outgoing* set when the
//! epoch turns. That is safe by construction — commitments are
//! self-describing, commitment processing drops any commitment whose
//! receiver no longer witnesses the origin, and
//! the incoming set starts from the certified boundary, so the next
//! commitment it receives covers everything since the cosigned root.
//! Checkpoint control traffic itself travels as ordinary envelopes and can
//! carry piggyback riders like any other message.
//!
//! # Membership lifecycle
//!
//! Membership is dynamic: nodes join, leave, crash and recover while the
//! audit machinery keeps running. Each node moves through the phases of
//! [`MemberPhase`] along two paths:
//!
//! ```text
//!   join_node              depart_node
//!  ──────────▶ Joining ──▶ Active ──▶ Leaving ──▶ Departed (terminal)
//!                            │  ▲
//!                 crash_node │  │ end of the next audit round
//!                            ▼  │
//!                        Crashed ──▶ Recovering
//!                              recover_node
//! ```
//!
//! * **Joining → Active** ([`AccountabilityEngine::join_node`]): the
//!   cluster gains an endpoint and sessions, the joiner's log-session key —
//!   drawn from the engine's `DetRng` — is installed directly on every
//!   audit kernel (and every existing key on the joiner's), witness sets
//!   are re-derived over the grown membership, and the joiner announces
//!   its initial sealed head
//!   ([`Envelope::Join`]) to its new witnesses. Where the joiner itself
//!   becomes a witness it bootstraps from the latest *cosigned checkpoint
//!   certificate* (verified donor handover — the same mechanism epoch
//!   rotation uses), so it audits from a quorum-vouched boundary instead of
//!   replaying history it never saw.
//! * **Active → Leaving → Departed** ([`AccountabilityEngine::depart_node`]):
//!   the leaver seals a final commitment and ships it *with its unaudited
//!   log tail* ([`Envelope::Leave`]) to every witness, which closes the
//!   audit (tampered tails convict, honest tails advance the audited
//!   prefix) before the node becomes unreachable. The sealed log and every
//!   verdict remain held by the witnesses — departure never launders
//!   misbehaviour.
//! * **Active → Crashed → Recovering → Active**
//!   ([`AccountabilityEngine::crash_node`] /
//!   [`AccountabilityEngine::recover_node`]): a crash-stopped node stops
//!   sending and receiving (the cluster refuses the sends — see
//!   `tnic_core::api::Cluster::mark_unreachable` — rather than losing
//!   attested messages). Its witnesses may transiently *suspect* it
//!   (silence is never proof), but never expose it. On recovery the node
//!   re-announces its current sealed head ([`Envelope::Recover`]): an
//!   honest recovery is consistent with the pre-crash commitments the
//!   witnesses still hold, so the next audit replays it and the verdict
//!   returns to trusted; a *tampered* recovery either conflicts with a held
//!   commitment (equivocation — exposed on arrival) or fails audit replay
//!   (exec divergence — exposed with the replay evidence). The phase
//!   returns to Active at the end of the audit round that processed the
//!   recovery.
//!
//! Challenges to crashed or departed auditees are withheld (they cannot
//! answer), and the challenge/response path tolerates transient silence
//! via timeout–retry–backoff: with [`EngineConfig::challenge_retries`] set,
//! an unanswered challenge is re-sent up to that many times with
//! exponentially growing round gaps (one round, doubling per attempt)
//! before the witness downgrades the auditee to suspected — bounded
//! escalation, since suspicion without evidence never exceeds
//! [`Verdict::Suspected`].
//!
//! # Scaling knobs (n ≥ 1000)
//!
//! Full PeerReview audits every (witness, auditee) pair every round — at
//! n = 1000 that is O(n·w) challenges plus responses per round, and the
//! per-round cost dwarfs the protocol itself. Two orthogonal knobs trade
//! detection latency for audit traffic; both default to off, reproducing
//! the classic protocol bit-for-bit:
//!
//! * **Sampled auditing** ([`EngineConfig::audit_sample_size`]): each
//!   witness challenges only `k` of its charges per round, on a seeded
//!   rotating schedule ([`EngineConfig::audit_sample_seed`]) that covers
//!   every charge within `ceil(charges/k)` rounds;
//!   [`EngineConfig::audit_coverage_window`] adds a hard upper bound on a
//!   pair's audit gap. Safety is untouched — an unsampled pair is simply
//!   not challenged, and only an outstanding challenge can time out into
//!   suspicion — while exposure of a tamperer is delayed by at most the
//!   coverage bound (the measured detection-latency/overhead frontier
//!   lives in `tnic-bench`'s sweep report).
//! * **Witness sharding** ([`EngineConfig::shards`]): consistent hashing
//!   (see [`crate::checkpoint::shard_members`]) partitions the membership
//!   into groups that witness each other exclusively, so each witness
//!   tracks O(n/shards) charges instead of O(n); composes with epoch
//!   rotation, which re-derives witness sets *within* each shard.
//!
//! Three more things keep the engine's own cost off the quadratic path, and
//! are simply how it works:
//!
//! * **Challenge batching**: consecutive challenges or responses to the
//!   same destination coalesce into one
//!   [`Envelope::ChallengeBatch`]/[`Envelope::ResponseBatch`] wire message,
//!   and audit responses are encoded straight from borrowed log segments
//!   into a reused scratch buffer (no per-response allocation).
//! * **Active-set dispatch**: settling a round drains inboxes by walking
//!   the cluster's active set — the nodes with queued deliveries, in id
//!   order ([`Cluster::nodes_with_pending`]) — instead of scanning all n
//!   endpoints per pass, and [`crate::system::PeerReview`] builds its
//!   cluster with lazy pairwise sessions ([`Cluster::sparse`]), so a link
//!   costs a key exchange only once something is sent over it.
//! * **Round digests**: an envelope that carries no application command —
//!   audit traffic (challenges and responses, batched or not),
//!   announcements, gossip, evidence, checkpoint and membership traffic —
//!   is not logged one control digest per envelope. Its SHA-256 goes into
//!   a per-node accumulator that is folded into one
//!   [`EntryKind::AuditRound`] entry, the node's round digest, per audit
//!   round, after the round's audit traffic has quiesced: a Pregel-style
//!   combiner per (node, round). That breaks the audit-log inflation
//!   feedback — protocol traffic no longer grows the logs whose replay the
//!   next audit pays for — without weakening tamper-evidence (see
//!   [`crate::log::audit_round_content`]). An envelope that carries an
//!   application command is always logged in full, because witnesses must
//!   replay the command.

use crate::audit::{commitments_conflict, Misbehavior, TraceCtx, Verdict, WitnessRecord};
use crate::checkpoint::{
    cosign_quorum, shard_members, sharded_witness_set, witness_set, CheckpointMark, Cosignature,
};
use crate::log::{log_session, Authenticator, EntryKind, LogEntry, SecureLog};
use crate::stats::AccountabilityStats;
use crate::wire::{Envelope, PiggybackRider, MAX_PIGGYBACK_RIDERS};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use tnic_core::accountability::AccountabilityLayer;
use tnic_core::api::{Cluster, Delivered, NodeId};
use tnic_core::error::CoreError;
use tnic_core::provider::Provider;
use tnic_core::transform::{CounterMachine, StateMachine};
use tnic_device::attestation::AttestedMessage;
use tnic_device::types::DeviceId;
use tnic_net::adversary::{FaultPlan, NodeFault};
use tnic_sim::clock::SimClock;
use tnic_sim::rng::DetRng;
use tnic_sim::time::{SimDuration, SimInstant};
use tnic_tee::profile::Baseline;

/// An application whose execution the engine holds accountable.
///
/// The engine observes the application's cluster traffic through the
/// [`CommitmentLayer`]; this trait supplies the pieces only the application
/// knows: how to execute a delivered command (and what output to commit to
/// the tamper-evident log), how to summarise per-node state, and a fresh
/// deterministic reference machine witnesses replay during audits.
///
/// `execute` **must** be a deterministic function of the per-node command
/// stream, and [`AccountedApp::replay_machine`] must reproduce it exactly —
/// a divergence between the two is indistinguishable from a Byzantine
/// execution and would falsely expose an honest node.
pub trait AccountedApp {
    /// The deterministic reference machine witnesses replay. One fresh
    /// instance audits one node's log from genesis.
    type Machine: StateMachine;

    /// A fresh reference machine at the application's genesis state.
    fn replay_machine(&self) -> Self::Machine;

    /// Executes a delivered application command on `node`'s live state and
    /// returns the output, which the engine appends to `node`'s log as an
    /// `Exec` entry (the claim witnesses replay).
    fn execute(&mut self, node: u32, command: &[u8]) -> Vec<u8>;

    /// Digest of `node`'s current application state (used for cross-replica
    /// parity checks in scenario harnesses).
    fn snapshot_digest(&self, node: u32) -> [u8; 32];

    /// Tap: an audit-protocol envelope was delivered to `node` from `from`.
    /// Default: ignored. Applications can observe the control plane (e.g.
    /// for instrumentation) without owning it.
    fn on_control(&mut self, node: u32, from: u32, envelope: &Envelope) {
        let _ = (node, from, envelope);
    }

    /// A node joined the cluster ([`AccountabilityEngine::join_node`]):
    /// allocate its application state at genesis. Default: ignored —
    /// applications with per-node state maps must override this or the
    /// joiner's first command will find no machine.
    fn on_join(&mut self, node: u32) {
        let _ = node;
    }

    /// Human-readable name used in diagnostics.
    fn label(&self) -> &'static str {
        "accounted-app"
    }
}

/// The plain replicated-counter application: the original PeerReview
/// workload, and the simplest possible [`AccountedApp`].
#[derive(Debug, Default)]
pub struct CounterApp {
    machines: BTreeMap<u32, CounterMachine>,
}

impl CounterApp {
    /// A counter per node id in `nodes`.
    #[must_use]
    pub fn new(nodes: &[NodeId]) -> Self {
        CounterApp {
            machines: nodes.iter().map(|n| (n.0, CounterMachine::new())).collect(),
        }
    }
}

impl AccountedApp for CounterApp {
    type Machine = CounterMachine;

    fn replay_machine(&self) -> CounterMachine {
        CounterMachine::new()
    }

    fn execute(&mut self, node: u32, command: &[u8]) -> Vec<u8> {
        self.machines
            .get_mut(&node)
            .expect("node registered")
            .execute(command)
    }

    fn snapshot_digest(&self, node: u32) -> [u8; 32] {
        self.machines
            .get(&node)
            .map_or([0u8; 32], CounterMachine::state_digest)
    }

    fn on_join(&mut self, node: u32) {
        self.machines.entry(node).or_default();
    }

    fn label(&self) -> &'static str {
        "counter"
    }
}

/// Engine configuration — the accountability knobs shared by every driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Attestation back-end sealing log commitments.
    pub baseline: Baseline,
    /// Determinism seed (log-session keys, suppression coin flips).
    pub seed: u64,
    /// Witnesses per node, assigned by deterministic rotation (`None` =
    /// all-to-all, i.e. `n - 1`). Values are clamped to `1..=n-1`.
    pub witness_count: Option<u32>,
    /// Piggyback commitments on application traffic instead of dedicated
    /// announce/gossip messages (see the module docs).
    pub piggyback: bool,
    /// Run a cosigned checkpoint round (propose → cosign → prune, see
    /// [`crate::checkpoint`]) after every this many audit rounds (`None` =
    /// never; logs and stored commitments then grow without bound).
    pub checkpoint_interval: Option<u64>,
    /// Rotate witness sets at checkpoint epochs (only meaningful with
    /// `witness_count < n - 1`; all-to-all sets are rotation-invariant).
    /// Requires `checkpoint_interval` — epochs are the rotation boundary.
    pub rotate_witnesses: bool,
    /// How many times an unanswered challenge is re-sent before the witness
    /// downgrades the auditee to suspected (0 = immediate suspicion at
    /// round end, the classic behaviour). Retries let audits degrade
    /// gracefully across transient outages — crashes that recover,
    /// partitions that heal — instead of stalling on one lost response.
    pub challenge_retries: u32,
    /// **Sampled auditing** (scaling knob): how many of its charges each
    /// witness audits per round (`None` = all of them, the classic
    /// behaviour; full audit is exactly the `sample_size ≥ charges` special
    /// case). The sample is a seeded rotating window over a per-witness
    /// shuffle, so consecutive rounds cover disjoint charges and every
    /// charge is audited within `⌈charges / sample_size⌉` rounds even
    /// before the [`EngineConfig::audit_coverage_window`] backstop kicks
    /// in. Unsampled pairs are *never* suspected — only a pair with an
    /// outstanding challenge can time out — so sampling trades detection
    /// latency, not accuracy.
    pub audit_sample_size: Option<u32>,
    /// Seed of the per-witness sampling shuffle, independent of
    /// [`EngineConfig::seed`] so sampling decisions can be re-rolled
    /// without perturbing key material or suppression coin flips.
    pub audit_sample_seed: u64,
    /// **Coverage window** (scaling knob): with sampling enabled, force-
    /// select any charge not audited in the last this-many rounds, staggered
    /// per pair, guaranteeing every active node is audited at least once
    /// per window regardless of shuffle drift or membership churn (0 = rely
    /// on window rotation alone, whose bound is `⌈charges/sample_size⌉`
    /// rounds between consecutive audits of one charge).
    pub audit_coverage_window: u64,
    /// **Witness sharding** (scaling knob): partition the membership into
    /// this many witness shards by consistent hashing
    /// ([`crate::checkpoint::shard_members`]); witnesses are then drawn
    /// from the node's shard co-members, so each witness tracks
    /// O(n / shards) charges instead of O(n). `0` or `1` disables sharding
    /// (byte-identical to the classic assignment). Composes with epoch
    /// rotation (the rotation ring is the shard) and checkpoint handover.
    pub shards: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            baseline: Baseline::Tnic,
            seed: 42,
            witness_count: None,
            piggyback: false,
            checkpoint_interval: None,
            rotate_witnesses: false,
            challenge_retries: 0,
            audit_sample_size: None,
            audit_sample_seed: 0,
            audit_coverage_window: 0,
            shards: 1,
        }
    }
}

/// Where a node stands in the membership lifecycle (see the module docs'
/// state machine). Nodes never observed by a lifecycle operation are
/// implicitly [`MemberPhase::Active`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberPhase {
    /// Mid-[`AccountabilityEngine::join_node`]: endpoint and keys exist,
    /// the initial commitment is being announced.
    Joining,
    /// Full member: audited every round, eligible as a witness.
    Active,
    /// Mid-[`AccountabilityEngine::depart_node`]: the farewell commitment
    /// and log tail are being shipped to the witnesses.
    Leaving,
    /// Gone for good. The sealed log and all verdicts remain with the
    /// witnesses; sends to (or from) the node are refused by the cluster.
    Departed,
    /// Crash-stopped: unreachable, not challenged, possibly suspected —
    /// never exposed for silence alone.
    Crashed,
    /// Back up after a crash: reachable again, its recovery commitment
    /// announced; promoted to Active at the end of the next audit round.
    Recovering,
}

impl MemberPhase {
    /// The `tnic-obs` membership code traced for this phase.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            MemberPhase::Joining => tnic_obs::codes::MEMBER_JOINING,
            MemberPhase::Active => tnic_obs::codes::MEMBER_ACTIVE,
            MemberPhase::Leaving => tnic_obs::codes::MEMBER_LEAVING,
            MemberPhase::Departed => tnic_obs::codes::MEMBER_DEPARTED,
            MemberPhase::Crashed => tnic_obs::codes::MEMBER_CRASHED,
            MemberPhase::Recovering => tnic_obs::codes::MEMBER_RECOVERING,
        }
    }
}

/// Per-(witness, auditee) challenge retry bookkeeping.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Round-end timeouts seen for the outstanding challenge so far.
    attempts: u32,
    /// The audit round at which the challenge is re-sent next.
    resume_round: u64,
}

/// Per-node state held by the commitment layer.
#[derive(Debug)]
struct NodeState {
    log: SecureLog,
    /// The node's attestation provider sealing its log commitments (honest
    /// by assumption — the paper's trust model keeps the device inside the
    /// TCB). Using the provider abstraction keeps commitment-seal costs on
    /// the configured baseline's latency model, not hardwired to TNIC.
    sealer: Provider,
}

/// A commitment waiting for a ride on outbound traffic (piggyback mode).
#[derive(Debug, Clone)]
struct PendingRide {
    auth: Authenticator,
    /// `true` for witness-to-witness relays, `false` for a node's own
    /// announcement.
    gossip: bool,
}

/// The commitment protocol: an [`AccountabilityLayer`] maintaining one
/// tamper-evident [`SecureLog`] per node, fed by the cluster's send/deliver
/// hooks, plus the node-local operations (execution logging, commitment
/// sealing, audit-segment extraction and the Byzantine host operations used
/// by fault injection). In piggyback mode it additionally queues pending
/// authenticators per `(sender, receiver)` pair and splices batches of up
/// to [`MAX_PIGGYBACK_RIDERS`] onto outbound envelopes through
/// [`AccountabilityLayer::wrap_outbound`] /
/// [`AccountabilityLayer::wrap_multicast`].
#[derive(Debug, Default)]
pub struct CommitmentLayer {
    states: BTreeMap<u32, NodeState>,
    /// Commitments waiting for a ride, per directed pair.
    pending: BTreeMap<(u32, u32), VecDeque<PendingRide>>,
    /// Commitments that found a ride on outbound traffic.
    piggybacked: u64,
    /// Round digests: per-node SHA-256 digests of the envelopes without an
    /// application command sent/received since the last flush, in local
    /// order. Flushed into one [`EntryKind::AuditRound`] entry per node per
    /// audit round by [`CommitmentLayer::flush_round_digests`]. Lives
    /// outside the logs, so checkpoint pruning and witness rotation never
    /// disturb it.
    round_digests: BTreeMap<u32, Vec<[u8; 32]>>,
    /// `(mac, digest)` of the last control envelope hashed into a round
    /// digest. The sender's `on_sent`, the receiver's `on_delivered` and
    /// every further multicast leg log the same attested message back to
    /// back, so only the first of them hashes it.
    last_digest: Option<([u8; 32], [u8; 32])>,
}

impl CommitmentLayer {
    /// Creates an empty layer.
    #[must_use]
    pub fn new() -> Self {
        CommitmentLayer::default()
    }

    /// Registers `node` with its log-session key; commitments are sealed by
    /// an attestation provider of the given `baseline`.
    pub fn register_node(&mut self, node: u32, baseline: Baseline, key: [u8; 32]) {
        let mut sealer = Provider::new(baseline, DeviceId(node), u64::from(node) + 1);
        sealer.install_session_key(log_session(node), key);
        self.states.insert(
            node,
            NodeState {
                log: SecureLog::new(),
                sealer,
            },
        );
    }

    fn state_mut(&mut self, node: u32) -> &mut NodeState {
        self.states.get_mut(&node).expect("node registered")
    }

    fn state(&self, node: u32) -> &NodeState {
        self.states.get(&node).expect("node registered")
    }

    /// Appends the claimed output of an application execution to `node`'s
    /// log as an `Exec` entry — the record witnesses replay against the
    /// reference machine.
    pub fn record_exec(&mut self, node: u32, output: Vec<u8>, at_us: u64) {
        self.append_traced(node, tnic_obs::NONE, EntryKind::Exec, output, at_us);
    }

    /// Appends an entry via [`crate::log::SecureLog::append`] and emits the
    /// [`tnic_obs::EventKind::LogAppend`] trace event that links the append
    /// into the message's cross-node trace (aux = the entry class).
    /// Allocation-free beyond the log append itself.
    fn append_traced(
        &mut self,
        node: u32,
        peer: u32,
        kind: EntryKind,
        content: Vec<u8>,
        at_us: u64,
    ) {
        let entry = self.state_mut(node).log.append(kind, content);
        let seq = entry.seq;
        let class = crate::log::EntryClass::of(entry.kind, &entry.content);
        tnic_obs::trace_event!(
            tnic_obs::EventKind::LogAppend,
            at_us: at_us,
            node: node,
            peer: peer,
            seq: seq,
            aux: class.code()
        );
    }

    /// `(seq, head, forked_head)` of `node`'s log — the data a commitment
    /// covers, plus the head an equivocator would commit towards part of its
    /// witness set.
    #[must_use]
    pub fn commitment_data(&self, node: u32) -> (u64, [u8; 32], [u8; 32]) {
        let log = &self.state(node).log;
        (log.len(), log.head(), log.forked_head())
    }

    /// Seals an arbitrary payload on `node`'s TNIC log session (commitments,
    /// checkpoint marks, cosignatures); returns the attestation and the
    /// virtual time the in-fabric attestation took.
    pub fn seal_payload(
        &mut self,
        node: u32,
        payload: &[u8],
    ) -> (tnic_device::attestation::AttestedMessage, SimDuration) {
        self.state_mut(node)
            .sealer
            .attest(log_session(node), payload)
            .expect("log session installed")
    }

    /// Seals a commitment on `node`'s TNIC; returns the authenticator and
    /// the virtual time the in-fabric attestation took.
    pub fn seal(&mut self, node: u32, seq: u64, head: [u8; 32]) -> (Authenticator, SimDuration) {
        let payload = Authenticator::payload(node, seq, &head);
        let (attestation, cost) = self.seal_payload(node, &payload);
        (
            Authenticator {
                node,
                seq,
                head,
                attestation,
            },
            cost,
        )
    }

    /// Appends a checkpoint mark to `node`'s log (the retained root-to-be):
    /// the entry content is the mark's canonical payload, so witnesses
    /// replaying it re-verify the embedded state digest.
    pub fn record_checkpoint(&mut self, node: u32, mark_payload: Vec<u8>, at_us: u64) {
        self.append_traced(
            node,
            tnic_obs::NONE,
            EntryKind::Checkpoint,
            mark_payload,
            at_us,
        );
    }

    /// Garbage-collects `node`'s log prefix below `upto_seq` (covered by a
    /// certified checkpoint); returns the number of entries dropped.
    pub fn prune_to(&mut self, node: u32, upto_seq: u64) -> u64 {
        self.state_mut(node).log.prune_to(upto_seq)
    }

    /// Absolute sequence number of the first retained entry of `node`'s log.
    #[must_use]
    pub fn base_seq(&self, node: u32) -> u64 {
        self.state(node).log.base_seq()
    }

    /// The head `node`'s log had after `seq` entries, or `None` when pruned
    /// or out of range.
    #[must_use]
    pub fn head_at(&self, node: u32, seq: u64) -> Option<[u8; 32]> {
        self.state(node).log.head_at(seq)
    }

    /// Entries currently held in memory across all logs (the bounded-memory
    /// metric; [`CommitmentLayer::total_entries`] counts everything ever
    /// appended).
    #[must_use]
    pub fn retained_entries(&self) -> u64 {
        self.states.values().map(|s| s.log.retained_len()).sum()
    }

    /// Approximate bytes held by retained log entries across all logs.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        self.states.values().map(|s| s.log.retained_bytes()).sum()
    }

    /// The entries `from_seq..upto_seq` of `node`'s log.
    #[must_use]
    pub fn segment(&self, node: u32, from_seq: u64, upto_seq: u64) -> Vec<LogEntry> {
        self.segment_ref(node, from_seq, upto_seq).to_vec()
    }

    /// Borrowed view of the entries `from_seq..upto_seq` of `node`'s log.
    /// The audit send path encodes responses straight from this slice into
    /// a reused wire buffer; [`Self::segment`] clones for callers that need
    /// ownership.
    #[must_use]
    pub fn segment_ref(&self, node: u32, from_seq: u64, upto_seq: u64) -> &[LogEntry] {
        self.state(node).log.segment(from_seq, upto_seq)
    }

    /// Like [`Self::segment_ref`], but surfaces a `from_seq` below the
    /// pruned base as `Err(base_seq)` instead of silently clamping — the
    /// audit send path uses this to detect a challenge range straddling a
    /// concurrent prune (see [`crate::log::SecureLog::segment_checked`]).
    pub fn segment_checked(
        &self,
        node: u32,
        from_seq: u64,
        upto_seq: u64,
    ) -> Result<&[LogEntry], u64> {
        self.state(node).log.segment_checked(from_seq, upto_seq)
    }

    /// Current log length of `node`.
    #[must_use]
    pub fn log_len(&self, node: u32) -> u64 {
        self.state(node).log.len()
    }

    /// Total entries across all logs (commitment-protocol volume).
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.states.values().map(|s| s.log.len()).sum()
    }

    /// Per-class log composition summed across all logs — what the entries
    /// ever appended actually hold (app payloads vs checkpoint marks vs
    /// round digests); see [`crate::log::LogComposition`].
    #[must_use]
    pub fn composition(&self) -> crate::log::LogComposition {
        let mut total = crate::log::LogComposition::default();
        for state in self.states.values() {
            total.merge(&state.log.composition());
        }
        total
    }

    /// Logs a sent or delivered message on `node`'s log. An envelope that
    /// carries an application command is appended in full, because
    /// witnesses replay the command; every other payload is folded into the
    /// node's round digest instead of a per-envelope entry.
    fn log_payload(
        &mut self,
        node: u32,
        peer: u32,
        kind: EntryKind,
        message: &AttestedMessage,
        at_us: u64,
    ) {
        let payload = &message.payload;
        if Envelope::app_command(payload).is_some() {
            let content = crate::log::content_full(payload);
            self.append_traced(node, peer, kind, content, at_us);
        } else {
            let digest = self.envelope_digest(&message.mac, payload);
            self.round_digests.entry(node).or_default().push(digest);
        }
    }

    /// SHA-256 of a control envelope's `payload`, hashed once per attested
    /// message. A `mac` equal to the memo's names the same message: the
    /// sender's kernel computed that MAC over these payload bytes, and the
    /// receiver's kernel verified it over them before `on_delivered` runs.
    fn envelope_digest(&mut self, mac: &[u8; 32], payload: &[u8]) -> [u8; 32] {
        match self.last_digest {
            Some((memo_mac, digest)) if memo_mac == *mac => {
                debug_assert_eq!(digest, tnic_crypto::sha256::sha256(payload));
                digest
            }
            _ => {
                let digest = tnic_crypto::sha256::sha256(payload);
                self.last_digest = Some((*mac, digest));
                digest
            }
        }
    }

    /// Flushes each non-empty per-node accumulator into a single
    /// [`EntryKind::AuditRound`] entry, the node's round digest (see
    /// [`crate::log::audit_round_content`] for the format). Nodes with no
    /// control traffic this round append nothing, so a sampled or sharded
    /// configuration pays only for the nodes actually involved.
    pub fn flush_round_digests(&mut self, round: u64, at_us: u64) {
        let flushable: Vec<(u32, Vec<[u8; 32]>)> = self
            .round_digests
            .iter_mut()
            .filter(|(node, digests)| !digests.is_empty() && self.states.contains_key(node))
            .map(|(&node, digests)| (node, std::mem::take(digests)))
            .collect();
        for (node, digests) in flushable {
            let content = crate::log::audit_round_content(round, &digests);
            self.append_traced(node, tnic_obs::NONE, EntryKind::AuditRound, content, at_us);
        }
    }

    /// Queues `auth` for a piggyback ride on the next outbound message
    /// `from → to`. Commitments are cumulative, so a newer commitment by the
    /// same origin supersedes a queued older one for the same pair — unless
    /// the heads conflict at the same sequence number, in which case both
    /// are kept (the pair *is* the evidence an equivocator produces).
    pub fn enqueue_ride(&mut self, from: u32, to: u32, auth: Authenticator, gossip: bool) {
        let queue = self.pending.entry((from, to)).or_default();
        if queue
            .iter()
            .any(|p| p.auth.node == auth.node && p.auth.seq == auth.seq && p.auth.head == auth.head)
        {
            return; // identical content already waiting
        }
        queue.retain(|p| p.auth.node != auth.node || p.auth.seq >= auth.seq);
        queue.push_back(PendingRide { auth, gossip });
    }

    /// Pops up to `limit` queued commitments for the directed pair, in
    /// queue order. Entries beyond the limit stay queued (they ride later
    /// traffic or the end-of-round dedicated flush).
    fn pop_riders(&mut self, from: u32, to: u32, limit: usize) -> Vec<PiggybackRider> {
        let Some(queue) = self.pending.get_mut(&(from, to)) else {
            return Vec::new();
        };
        let take = queue.len().min(limit);
        let riders: Vec<PiggybackRider> = queue
            .drain(..take)
            .map(|r| PiggybackRider {
                auth: r.auth,
                gossip: r.gossip,
            })
            .collect();
        if queue.is_empty() {
            self.pending.remove(&(from, to));
        }
        riders
    }

    /// Drains every queued commitment (the end-of-workload dedicated flush):
    /// `((from, to), auth, gossip)` triples in deterministic order.
    pub fn drain_pending(&mut self) -> Vec<((u32, u32), Authenticator, bool)> {
        let mut out = Vec::new();
        for (&pair, queue) in &mut self.pending {
            for ride in queue.drain(..) {
                out.push((pair, ride.auth, ride.gossip));
            }
        }
        self.pending.retain(|_, q| !q.is_empty());
        out
    }

    /// Number of commitments still waiting for a ride.
    #[must_use]
    pub fn pending_rides(&self) -> usize {
        self.pending.values().map(VecDeque::len).sum()
    }

    /// Number of commitments that found a ride on outbound traffic.
    #[must_use]
    pub fn piggybacked(&self) -> u64 {
        self.piggybacked
    }

    /// **Fault injection**: truncates the tail of `node`'s log.
    pub fn truncate_tail(&mut self, node: u32, n: u64) {
        self.state_mut(node).log.truncate_tail(n);
    }

    /// **Fault injection**: rewrites the first `Exec` entry at or after
    /// `seq` (re-chaining the hashes) so the node's logged output diverges
    /// from the deterministic specification. Returns `false` when no such
    /// entry exists yet.
    pub fn tamper_exec_at_or_after(&mut self, node: u32, seq: u64) -> bool {
        let state = self.state_mut(node);
        let target = state
            .log
            .entries()
            .iter()
            .find(|e| e.seq >= seq && e.kind == EntryKind::Exec)
            .map(|e| e.seq);
        match target {
            Some(seq) => state
                .log
                .tamper_and_rechain(seq, b"<tampered output>".to_vec()),
            None => false,
        }
    }
}

impl AccountabilityLayer for CommitmentLayer {
    fn on_sent(&mut self, from: NodeId, to: NodeId, message: &AttestedMessage, at: SimInstant) {
        self.log_payload(
            from.0,
            to.0,
            EntryKind::Send { to: to.0 },
            message,
            at.as_micros(),
        );
    }

    fn on_delivered(&mut self, to: NodeId, delivered: &Delivered) {
        let from = delivered.from.0;
        self.log_payload(
            to.0,
            from,
            EntryKind::Recv { from },
            &delivered.message,
            delivered.at.as_micros(),
        );
    }

    fn wrap_outbound(&mut self, from: NodeId, to: NodeId, payload: &[u8]) -> Option<Vec<u8>> {
        // Only protocol envelopes can carry a ride, and rides never nest.
        if !Envelope::is_envelope(payload) || Envelope::is_piggyback(payload) {
            return None;
        }
        let riders = self.pop_riders(from.0, to.0, MAX_PIGGYBACK_RIDERS);
        if riders.is_empty() {
            return None;
        }
        self.piggybacked += riders.len() as u64;
        Some(Envelope::piggyback_raw(&riders, payload))
    }

    fn wrap_multicast(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        if !Envelope::is_envelope(payload) || Envelope::is_piggyback(payload) {
            return None;
        }
        // One batch serves every receiver: gather pending rides addressed to
        // any of them (the identical wrapped bytes reach all, and witnesses
        // ignore commitments for nodes they do not audit — extra copies only
        // speed up propagation).
        let mut riders = Vec::new();
        for &to in receivers {
            let budget = MAX_PIGGYBACK_RIDERS - riders.len();
            if budget == 0 {
                break;
            }
            riders.extend(self.pop_riders(from.0, to.0, budget));
        }
        if riders.is_empty() {
            return None;
        }
        self.piggybacked += riders.len() as u64;
        Some(Envelope::piggyback_raw(&riders, payload))
    }

    fn label(&self) -> &'static str {
        "accountability-engine"
    }
}

/// An application message the engine unwrapped and executed while
/// processing a node's inbox — handed back to the driving protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct AppDelivery {
    /// The sending node.
    pub from: NodeId,
    /// The delivered application command (the [`Envelope::App`] payload).
    pub command: Vec<u8>,
    /// The output [`AccountedApp::execute`] produced (already committed to
    /// the receiving node's tamper-evident log).
    pub output: Vec<u8>,
}

/// A checkpoint proposal awaiting its cosignature quorum at the proposing
/// node.
#[derive(Debug)]
struct PendingCheckpoint {
    mark: CheckpointMark,
    cosigners: BTreeMap<u32, Cosignature>,
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
enum Outbound {
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

/// The accountability engine: witness protocol + commitment layer over one
/// application's cluster. See the module docs for the protocol and for how
/// to attach the engine to a new application.
pub struct AccountabilityEngine<A: AccountedApp> {
    config: EngineConfig,
    clock: SimClock,
    layer: Rc<RefCell<CommitmentLayer>>,
    faults: FaultPlan,
    nodes: Vec<NodeId>,
    /// Effective witnesses per node (the clamped `witness_count`).
    witness_width: u32,
    /// witness ids per audited node (every other node by default).
    witnesses: BTreeMap<u32, Vec<u32>>,
    /// (witness, audited node) → record.
    records: BTreeMap<(u32, u32), WitnessRecord<A::Machine>>,
    /// Witness-side verification providers holding every log-session key.
    audit_kernels: BTreeMap<u32, Provider>,
    challenge_started: BTreeMap<(u32, u32), SimInstant>,
    tamper_applied: BTreeSet<u32>,
    truncation_applied: BTreeSet<u32>,
    /// (forger, auditee) pairs a `ForgeEvidence` witness already accused —
    /// one fabricated accusation per pair bounds the forged traffic.
    evidence_forged: BTreeSet<(u32, u32)>,
    rng: DetRng,
    stats: AccountabilityStats,
    /// Application messages unwrapped during dispatch, per node, until the
    /// driver collects them through [`AccountabilityEngine::poll`].
    app_inbox: BTreeMap<u32, Vec<AppDelivery>>,
    /// Completed checkpoint epochs (also the witness-rotation boundary).
    epoch: u64,
    /// Audit rounds completed (drives the checkpoint interval).
    audit_rounds_done: u64,
    /// Per node: the engine's own replay of the node's *logged* command
    /// stream. Its digest is what a checkpoint certifies: exactly the state
    /// a witness's reference machine reaches by replaying the log (live
    /// application state can additionally contain non-logged client-ingress
    /// executions, e.g. at a chain or A2M head, which are outside the
    /// audited log and therefore outside the checkpoint).
    shadows: BTreeMap<u32, A::Machine>,
    /// Per node: `(seq, state digest)` captured when the round's commitment
    /// was sealed — the boundary a checkpoint proposal covers.
    commit_snapshots: BTreeMap<u32, (u64, [u8; 32])>,
    /// Per node: the checkpoint proposal collecting cosignatures.
    pending_checkpoints: BTreeMap<u32, PendingCheckpoint>,
    /// Per node: the latest certified checkpoint (the verifiable log root).
    completed_checkpoints: BTreeMap<u32, CheckpointMark>,
    /// Per node: the latest full commit certificate (mark + cosignature
    /// quorum), kept so a challenge below the pruned base can be answered
    /// with the certificate itself instead of an uncoverable log segment.
    certificates: BTreeMap<u32, (CheckpointMark, Vec<Cosignature>)>,
    /// Per node: its membership phase; absent = [`MemberPhase::Active`].
    membership: BTreeMap<u32, MemberPhase>,
    /// (witness, auditee) → retry/backoff state for the outstanding
    /// challenge (only populated with [`EngineConfig::challenge_retries`]).
    retry_state: BTreeMap<(u32, u32), RetryState>,
    /// Per node: its log-session key, kept so a joiner's audit kernel can
    /// be provisioned with every existing key.
    seal_keys: BTreeMap<u32, [u8; 32]>,
    /// (witness, auditee) → last round the pair was selected for audit
    /// (sampled auditing's coverage-window backstop; unused without
    /// sampling).
    last_audit_round: BTreeMap<(u32, u32), u64>,
    /// Reused wire-encode buffer for the audit hot loop (challenge/response
    /// sends at n = 1000 would otherwise allocate one `Vec` per message per
    /// round).
    wire_scratch: Vec<u8>,
    /// Reused buffer for the active set each `sweep_until_quiet` pass
    /// reads from [`Cluster::nodes_with_pending`].
    pending_scratch: Vec<NodeId>,
}

impl<A: AccountedApp> std::fmt::Debug for AccountabilityEngine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccountabilityEngine")
            .field("config", &self.config)
            .field("faults", &self.faults)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// Builds the engine over `cluster` and attaches its commitment layer:
    /// from here on every attested send and verified delivery lands in a
    /// tamper-evident log. Witness sets are assigned by deterministic
    /// rotation: node `i` is audited by `i+1, …, i+w (mod n)` where `w` is
    /// [`EngineConfig::witness_count`] (all other nodes by default).
    pub fn attach(cluster: &mut Cluster, app: &A, config: EngineConfig, faults: FaultPlan) -> Self {
        let clock = cluster.clock();
        let nodes: Vec<NodeId> = cluster.nodes();
        let mut rng = DetRng::new(config.seed ^ 0x005e_edac_0123);

        // Log-session keys: drawn from the engine's `DetRng` and installed
        // directly on each node's device and on every witness's
        // verification kernel (the witnesses are exactly the parties
        // entitled to audit).
        let mut layer = CommitmentLayer::new();
        let mut audit_kernels: BTreeMap<u32, Provider> = nodes
            .iter()
            .map(|n| (n.0, Provider::new(config.baseline, n.device(), config.seed)))
            .collect();
        let ids: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        let shard_groups = Self::shard_groups(&ids, config.shards, config.seed);
        let mut seal_keys = BTreeMap::new();
        for node in &nodes {
            let key = rng.bytes32();
            seal_keys.insert(node.0, key);
            layer.register_node(node.0, config.baseline, key);
        }
        // Key distribution: unsharded, every kernel can verify every node
        // (O(n²) installs — the cost sharding exists to avoid); sharded,
        // witnesses are drawn in-shard, so each kernel only needs its shard
        // co-members' keys (O(n²/shards) total).
        match &shard_groups {
            None => {
                for node in &nodes {
                    let key = seal_keys[&node.0];
                    for kernel in audit_kernels.values_mut() {
                        kernel.install_session_key(log_session(node.0), key);
                    }
                }
            }
            Some(groups) => {
                for group in groups {
                    for &member in group {
                        let kernel = audit_kernels.get_mut(&member).expect("member kernel");
                        for &peer in group {
                            kernel.install_session_key(log_session(peer), seal_keys[&peer]);
                        }
                    }
                }
            }
        }

        let n = nodes.len() as u32;
        let w = config
            .witness_count
            .unwrap_or(n.saturating_sub(1))
            .clamp(u32::from(n > 1), n.saturating_sub(1).max(1));
        let sets = Self::derive_witness_sets(&ids, w, 0, shard_groups.as_deref());
        let mut witnesses = BTreeMap::new();
        let mut records = BTreeMap::new();
        for node in &nodes {
            let set = sets.get(&node.0).cloned().unwrap_or_default();
            for &witness in &set {
                records.insert((witness, node.0), WitnessRecord::new(app.replay_machine()));
            }
            witnesses.insert(node.0, set);
        }

        let layer = Rc::new(RefCell::new(layer));
        cluster.attach_accountability(layer.clone() as Rc<RefCell<dyn AccountabilityLayer>>);
        let shadows = nodes.iter().map(|n| (n.0, app.replay_machine())).collect();

        AccountabilityEngine {
            config,
            clock,
            layer,
            faults,
            nodes,
            witness_width: w,
            witnesses,
            records,
            audit_kernels,
            challenge_started: BTreeMap::new(),
            tamper_applied: BTreeSet::new(),
            truncation_applied: BTreeSet::new(),
            evidence_forged: BTreeSet::new(),
            rng,
            stats: AccountabilityStats::new(),
            app_inbox: BTreeMap::new(),
            epoch: 0,
            audit_rounds_done: 0,
            shadows,
            commit_snapshots: BTreeMap::new(),
            pending_checkpoints: BTreeMap::new(),
            completed_checkpoints: BTreeMap::new(),
            certificates: BTreeMap::new(),
            membership: BTreeMap::new(),
            retry_state: BTreeMap::new(),
            seal_keys,
            last_audit_round: BTreeMap::new(),
            wire_scratch: Vec::new(),
            pending_scratch: Vec::new(),
        }
    }

    /// The consistent-hash shard groups for `ids`, or `None` when sharding
    /// is disabled (`shards <= 1` behaves byte-identically to the classic
    /// assignment).
    fn shard_groups(ids: &[u32], shards: u32, seed: u64) -> Option<Vec<Vec<u32>>> {
        (shards > 1).then(|| shard_members(ids, shards, seed))
    }

    /// The witness assignment for every node: classic ring rotation over
    /// the whole membership, or — sharded — the same rotation confined to
    /// each node's shard co-members.
    fn derive_witness_sets(
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

    /// The witness assignment over the *current* membership at `epoch`.
    fn current_witness_sets(&self, epoch: u64) -> BTreeMap<u32, Vec<u32>> {
        let ids: Vec<u32> = self.nodes.iter().map(|n| n.0).collect();
        let groups = Self::shard_groups(&ids, self.config.shards, self.config.seed);
        Self::derive_witness_sets(&ids, self.witness_width, epoch, groups.as_deref())
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

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The fault plan driving Byzantine behaviour injection.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The witness ids assigned to `node`.
    #[must_use]
    pub fn witnesses_of(&self, node: u32) -> &[u32] {
        self.witnesses.get(&node).map_or(&[], Vec::as_slice)
    }

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

    /// `witness`'s verdict on `node`.
    #[must_use]
    pub fn verdict_of(&self, witness: u32, node: u32) -> Verdict {
        self.records
            .get(&(witness, node))
            .map_or(Verdict::Trusted, |r| r.verdict)
    }

    /// The evidence `witness` holds against `node`.
    #[must_use]
    pub fn evidence_of(&self, witness: u32, node: u32) -> &[Misbehavior] {
        self.records
            .get(&(witness, node))
            .map_or(&[], |r| r.evidence.as_slice())
    }

    /// Current log length of `node` (the next commitment's coverage).
    #[must_use]
    pub fn log_len(&self, node: u32) -> u64 {
        self.layer.borrow().log_len(node)
    }

    /// Snapshot of the accountability counters (including the retained
    /// memory footprint: log entries, bytes and stored commitments).
    #[must_use]
    pub fn stats(&self) -> AccountabilityStats {
        let mut stats = self.stats.clone();
        let layer = self.layer.borrow();
        stats.log_entries = layer.total_entries();
        stats.piggybacked_commitments = layer.piggybacked();
        stats.retained_log_entries = layer.retained_entries();
        stats.retained_log_bytes = layer.retained_bytes();
        let composition = layer.composition();
        stats.log_app_payload_entries = composition.app_payload_entries;
        stats.log_control_digest_entries = composition.control_digest_entries;
        stats.log_audit_digest_entries = composition.audit_digest_entries;
        stats.retained_commitments = self
            .records
            .values()
            .map(|r| r.commitments.len() as u64)
            .sum();
        stats
    }

    /// Records one application message the driver sent through the cluster
    /// (the engine counts control traffic itself; application traffic is
    /// the driver's to report, since only it knows which sends are
    /// workload).
    pub fn record_app_send(&mut self, latency: SimDuration) {
        self.stats.app_messages += 1;
        self.stats.app_latency.record(latency);
    }

    /// Drains `node`'s cluster inbox through the engine: audit control
    /// traffic is consumed, piggybacked commitments are peeled and stored,
    /// and [`Envelope::App`] commands are executed through `app` (with the
    /// output committed to the node's tamper-evident log) and returned for
    /// the driving protocol to act on.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on generated control replies.
    pub fn poll(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
        node: NodeId,
    ) -> Result<Vec<AppDelivery>, CoreError> {
        self.dispatch(cluster, app, node)?;
        Ok(self.app_inbox.remove(&node.0).unwrap_or_default())
    }

    /// Runs one full audit round: commit, gossip, challenge, verify,
    /// classify. In piggyback mode the commit step queues authenticators
    /// for rides instead of sending them; called standalone (with no
    /// workload in between) they are flushed as dedicated messages
    /// immediately, so the round is self-contained either way.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn run_audit_round(&mut self, cluster: &mut Cluster, app: &mut A) -> Result<(), CoreError> {
        self.begin_audit_round(cluster)?;
        self.finish_audit_round(cluster, app)
    }

    /// The commit step of an audit round: scheduled log tampering is
    /// applied (a forging host rewrites *before* committing), then every
    /// node seals and announces its commitment — queued for piggyback rides
    /// in piggyback mode, sent as dedicated messages otherwise. The
    /// log-driven state digest at the committed boundary is captured
    /// alongside the seal (it is what a later checkpoint of this boundary
    /// certifies). In piggyback mode, run the application workload between
    /// this and [`AccountabilityEngine::finish_audit_round`] so commitments
    /// ride it.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn begin_audit_round(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
        self.apply_scheduled_tampering();
        self.announce_commitments(cluster)
    }

    /// Flush + challenge + classify: the audit round after the commit step.
    ///
    /// Flushing is looped until no ride is pending: delivering a dedicated
    /// announcement enqueues gossip relays, which must also reach their
    /// fellows *before* challenges are issued — otherwise witnesses beyond
    /// the first would audit a round late. The loop terminates because
    /// relays are never re-relayed (at most announce → relay → stored).
    /// When every commitment found a ride during the workload, the loop
    /// sends nothing.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn finish_audit_round(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
    ) -> Result<(), CoreError> {
        loop {
            self.flush_pending(cluster)?;
            self.sweep_until_quiet(cluster, app)?;
            if self.layer.borrow().pending_rides() == 0 {
                break;
            }
        }
        self.fabricate_evidence(cluster)?;
        self.issue_challenges(cluster)?;
        self.sweep_until_quiet(cluster, app)?;
        // Round digests: fold the round's accumulated control-envelope
        // digests into one AuditRound entry per node, *after* the audit
        // traffic has quiesced (so the entry covers the whole round) and
        // *before* the round counter advances (commitments sealed at the
        // next round's start are the first to cover the flush entry).
        let at_us = self.clock.now().as_micros();
        self.layer
            .borrow_mut()
            .flush_round_digests(self.audit_rounds_done, at_us);
        self.finish_round();
        self.audit_rounds_done += 1;
        // The audit round is the partition schedule's clock: advancing it
        // opens/heals any installed cut for the next round's traffic.
        cluster.set_partition_round(self.audit_rounds_done);
        // A recovery that survived this round's audit traffic is a full
        // member again.
        let recovering: Vec<u32> = self
            .membership
            .iter()
            .filter(|&(_, &p)| p == MemberPhase::Recovering)
            .map(|(&n, _)| n)
            .collect();
        for node in recovering {
            self.set_phase(node, MemberPhase::Active);
        }
        if let Some(interval) = self.config.checkpoint_interval {
            if interval > 0 && self.audit_rounds_done.is_multiple_of(interval) {
                self.run_checkpoint_round(cluster, app)?;
            }
        }
        Ok(())
    }

    /// Audits everything still in the pipeline: one extra audit round whose
    /// commit step covers every log entry that exists when it is called —
    /// in particular, in piggyback mode, the final workload round that the
    /// pipelined drivers leave unaudited (the audit pipeline runs one round
    /// behind the traffic it rides on). The commitments have no later
    /// traffic to ride, so this round pays dedicated announcements;
    /// steady-state deployments only pay it at teardown.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn drain_audits(&mut self, cluster: &mut Cluster, app: &mut A) -> Result<(), CoreError> {
        self.run_audit_round(cluster, app)
    }

    /// Completed checkpoint epochs (each one a potential rotation boundary).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The latest certified checkpoint boundary of `node`'s log (0 before
    /// the first completed checkpoint) — everything below it has been
    /// garbage-collected.
    #[must_use]
    pub fn checkpoint_base(&self, node: u32) -> u64 {
        self.completed_checkpoints.get(&node).map_or(0, |m| m.cut)
    }

    // ---- membership lifecycle (see the module docs' state machine) -------

    /// Where `node` stands in the membership lifecycle.
    #[must_use]
    pub fn member_phase(&self, node: u32) -> MemberPhase {
        self.membership
            .get(&node)
            .copied()
            .unwrap_or(MemberPhase::Active)
    }

    /// Whether `node` is currently unable to participate (crashed or
    /// departed): not challenged, not committing, unreachable.
    fn is_down(&self, node: u32) -> bool {
        matches!(
            self.membership.get(&node),
            Some(MemberPhase::Crashed | MemberPhase::Departed)
        )
    }

    /// Records a phase transition and traces it.
    fn set_phase(&mut self, node: u32, phase: MemberPhase) {
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
        if self.is_down(node) {
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
            let (auth, cost) = self.layer.borrow_mut().seal(node, seq, head);
            self.clock.advance(cost);
            self.stats.commitments_published += 1;
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
        if self.is_down(node) {
            return Ok(());
        }
        self.set_phase(node, MemberPhase::Leaving);
        // A forging leaver rewrites before sealing its farewell; the tail
        // replay below convicts it on the way out.
        self.apply_scheduled_tampering();
        let (seq, head, _) = self.layer.borrow().commitment_data(node);
        let base = self.layer.borrow().base_seq(node);
        if seq > 0 {
            let (auth, cost) = self.layer.borrow_mut().seal(node, seq, head);
            self.clock.advance(cost);
            self.stats.commitments_published += 1;
            // The full retained tail: each witness aligns it to its own
            // audited prefix.
            let entries = self.layer.borrow().segment(node, base, seq);
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
        self.rebuild_witness_sets(app);
        // Announce the joiner's (empty) initial head so witnesses hold its
        // base commitment from day one.
        let (seq, head, _) = self.layer.borrow().commitment_data(id);
        let (auth, cost) = self.layer.borrow_mut().seal(id, seq, head);
        self.clock.advance(cost);
        self.stats.commitments_published += 1;
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

    /// Re-derives every witness set over the current membership (the join
    /// path's reconfiguration step — the epoch-rotation variant of this
    /// lives in `rotate_witness_sets`). Records carry over for surviving
    /// (witness, auditee) pairs; new pairs start from the latest certified
    /// checkpoint via verified donor handover (or genesis), with exposure
    /// evidence handed over so verdicts survive reconfiguration.
    fn rebuild_witness_sets(&mut self, app: &A) {
        let n = self.nodes.len() as u32;
        self.witness_width = self
            .config
            .witness_count
            .unwrap_or(n.saturating_sub(1))
            .clamp(u32::from(n > 1), n.saturating_sub(1).max(1));
        let old_records = std::mem::take(&mut self.records);
        let old_witnesses = std::mem::take(&mut self.witnesses);
        let new_sets = self.current_witness_sets(self.epoch);
        for node in self.nodes.clone() {
            let node = node.0;
            let old_set = old_witnesses.get(&node).cloned().unwrap_or_default();
            let new_set = new_sets.get(&node).cloned().unwrap_or_default();
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

    /// Runs one checkpoint round (see [`crate::checkpoint`] for the
    /// lifecycle): every node proposes a checkpoint of its last committed
    /// boundary to its witnesses, witnesses cosign what they have verified,
    /// nodes that collect a quorum broadcast the certificate and prune the
    /// covered prefix (witnesses drop covered commitments and laggards
    /// fast-forward), and — with [`EngineConfig::rotate_witnesses`] — the
    /// epoch advance rotates witness sets. Called automatically every
    /// [`EngineConfig::checkpoint_interval`] audit rounds from
    /// [`AccountabilityEngine::finish_audit_round`]; public for drivers
    /// that manage their own cadence.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn run_checkpoint_round(
        &mut self,
        cluster: &mut Cluster,
        app: &mut A,
    ) -> Result<(), CoreError> {
        let epoch = self.epoch + 1;
        // Propose: one sealed mark per node, sent to every witness. The
        // mark is also recorded in the node's own log (the retained root),
        // where later audits re-verify it during replay.
        let mut outgoing: Vec<(NodeId, NodeId, Envelope)> = Vec::new();
        for node in self.nodes.clone() {
            if self.is_down(node.0) {
                continue; // the down propose nothing (their log is frozen)
            }
            let Some(&(cut, state_digest)) = self.commit_snapshots.get(&node.0) else {
                continue; // nothing committed yet
            };
            if cut <= self.layer.borrow().base_seq(node.0) {
                continue; // boundary already covered by an earlier checkpoint
            }
            let witness_set = self.witnesses_of(node.0).to_vec();
            if witness_set.is_empty() {
                continue;
            }
            let Some(head) = self.layer.borrow().head_at(node.0, cut) else {
                continue;
            };
            // The *mark* certifies the log-driven state at the audited
            // boundary (what witnesses verified); the *log entry* embeds
            // the log-driven state at append time, which is what replay
            // reaches when it passes the entry — in piggyback mode the two
            // differ by the workload that rode between commit and
            // checkpoint.
            let entry_payload = CheckpointMark::payload(
                node.0,
                epoch,
                cut,
                &head,
                &self.shadows[&node.0].state_digest(),
            );
            self.layer.borrow_mut().record_checkpoint(
                node.0,
                entry_payload,
                self.clock.now().as_micros(),
            );
            let payload = CheckpointMark::payload(node.0, epoch, cut, &head, &state_digest);
            let (attestation, cost) = self.layer.borrow_mut().seal_payload(node.0, &payload);
            self.clock.advance(cost);
            let mark = CheckpointMark {
                node: node.0,
                epoch,
                cut,
                head,
                state_digest,
                attestation,
            };
            self.stats.checkpoints_proposed += 1;
            crate::checkpoint::trace_mark(
                tnic_obs::codes::CKPT_PROPOSE,
                node.0,
                tnic_obs::NONE,
                &mark,
                self.clock.now().as_micros(),
            );
            self.pending_checkpoints.insert(
                node.0,
                PendingCheckpoint {
                    mark: mark.clone(),
                    cosigners: BTreeMap::new(),
                },
            );
            for &witness in &witness_set {
                outgoing.push((
                    node,
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
        let certified: Vec<(u32, CheckpointMark, Vec<Cosignature>, Vec<u32>)> = self
            .pending_checkpoints
            .iter()
            .filter_map(|(&node, pending)| {
                let witness_set = self.witnesses.get(&node).cloned().unwrap_or_default();
                (pending.cosigners.len() >= cosign_quorum(witness_set.len())).then(|| {
                    (
                        node,
                        pending.mark.clone(),
                        pending.cosigners.values().cloned().collect(),
                        witness_set,
                    )
                })
            })
            .collect();
        let mut commits: Vec<(NodeId, NodeId, Envelope)> = Vec::new();
        for (node, mark, cosigs, witness_set) in certified {
            for &witness in &witness_set {
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
            self.certificates.insert(node, (mark.clone(), cosigs));
            self.completed_checkpoints.insert(node, mark);
        }
        for (from, to, env) in commits {
            self.send_control(cluster, from, to, &env)?;
        }
        self.sweep_until_quiet(cluster, app)?;
        self.pending_checkpoints.clear();
        self.epoch = epoch;
        if self.config.rotate_witnesses {
            self.rotate_witness_sets(app);
        }
        Ok(())
    }

    /// Epoch-boundary witness rotation: recomputes every node's witness set
    /// for the new epoch ([`witness_set`]) so no witness shadows the same
    /// auditee across epochs. Records carry over for witnesses staying in
    /// the set; incoming witnesses take over at the latest certified
    /// checkpoint (state handover from the outgoing set, verified against
    /// the certificate's digest where possible) or from genesis when no
    /// checkpoint exists; exposure evidence held by the outgoing set is
    /// handed over so verdicts survive rotation. Outgoing records are
    /// dropped — rotation is also garbage collection.
    fn rotate_witness_sets(&mut self, app: &A) {
        let n = self.nodes.len() as u32;
        if self.witness_width >= n.saturating_sub(1) {
            return; // all-to-all sets are rotation-invariant
        }
        let old_records = std::mem::take(&mut self.records);
        let old_witnesses = std::mem::take(&mut self.witnesses);
        let new_sets = self.current_witness_sets(self.epoch);
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
        self.last_audit_round
            .retain(|pair, _| self.records.contains_key(pair));
        self.provision_witness_keys();
        self.stats.witness_rotations += 1;
    }

    /// The record an incoming witness starts from after rotation.
    fn incoming_record(
        &self,
        app: &A,
        node: u32,
        old_set: &[u32],
        old_records: &BTreeMap<(u32, u32), WitnessRecord<A::Machine>>,
        handover: &[Misbehavior],
    ) -> WitnessRecord<A::Machine> {
        // Preferred: take over at the latest certified checkpoint, with the
        // replay state of an outgoing record whose machine digest matches
        // the cosigned digest (verified handover).
        if let Some(mark) = self.completed_checkpoints.get(&node) {
            if let Some(donor) = old_set.iter().find_map(|&w| {
                old_records.get(&(w, node)).filter(|r| {
                    r.audited_seq == mark.cut && r.machine.state_digest() == mark.state_digest
                })
            }) {
                return WitnessRecord::starting_at(
                    mark.cut,
                    mark.head,
                    donor.machine.clone(),
                    donor.pending_outputs(),
                    handover.to_vec(),
                );
            }
        }
        // Otherwise: plain state handover from the furthest-audited
        // outgoing record (e.g. when this epoch's quorum was withheld but an
        // earlier prune already dropped the genesis prefix).
        if let Some(donor) = old_set
            .iter()
            .filter_map(|&w| old_records.get(&(w, node)))
            .max_by_key(|r| r.audited_seq)
        {
            if donor.audited_seq > 0 {
                return WitnessRecord::starting_at(
                    donor.audited_seq,
                    donor.audited_head,
                    donor.machine.clone(),
                    donor.pending_outputs(),
                    handover.to_vec(),
                );
            }
        }
        // Nothing audited yet: a fresh record auditing from genesis.
        let mut record = WitnessRecord::new(app.replay_machine());
        for evidence in handover {
            record.convict(evidence.clone());
        }
        record
    }

    // ---- internal protocol machinery ------------------------------------

    /// A host that tampers with its log does so before committing, so the
    /// forged log is internally consistent and only replay can expose it.
    fn apply_scheduled_tampering(&mut self) {
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

    /// Sends every commitment still waiting for a ride as dedicated
    /// traffic. Run after the round's workload and before challenges, so
    /// piggybacking changes the message count but never which witness holds
    /// which commitment at challenge time.
    ///
    /// Rides for the same directed pair are batched: the first becomes the
    /// dedicated envelope and up to [`MAX_PIGGYBACK_RIDERS`] further ones
    /// ride it as a [`Envelope::Piggyback`] — one message per batch instead
    /// of one per authenticator.
    fn flush_pending(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
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
    fn announce_commitments(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
        if self.config.piggyback {
            self.queue_commitments();
            return Ok(());
        }
        // Seal first, send second: commitments of one round must all cover
        // the same prefix, and sending an announcement itself appends `Send`
        // entries to the log.
        let mut outgoing: Vec<(NodeId, NodeId, Envelope)> = Vec::new();
        for node in self.nodes.clone() {
            if self.is_down(node.0) {
                continue; // a crashed or departed node announces nothing
            }
            let fault = self.faults.fault_of(node.0);
            let (seq, head, forked_head) = self.layer.borrow().commitment_data(node.0);
            if seq > 0 {
                let digest = self.shadows[&node.0].state_digest();
                self.commit_snapshots.insert(node.0, (seq, digest));
            }
            let witness_set = self.witnesses_of(node.0).to_vec();
            for (idx, &witness) in witness_set.iter().enumerate() {
                // An equivocating host commits to a forked head towards every
                // other witness; each seal is genuine (the TNIC attests
                // whatever the host hands it) — the *pair* is the crime.
                // With a single witness there is nobody to partition, so the
                // fork goes to that witness directly and is exposed by the
                // audit itself (head mismatch) rather than by gossip.
                let fork_here = idx % 2 == 1 || witness_set.len() == 1;
                let committed_head = if fault == NodeFault::Equivocate && fork_here {
                    forked_head
                } else {
                    head
                };
                let (auth, cost) = self.layer.borrow_mut().seal(node.0, seq, committed_head);
                self.clock.advance(cost);
                self.stats.commitments_published += 1;
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
            if self.is_down(node.0) {
                continue; // a crashed or departed node commits nothing
            }
            let fault = self.faults.fault_of(node.0);
            let (seq, head, forked_head) = self.layer.borrow().commitment_data(node.0);
            let witness_set = self.witnesses_of(node.0).to_vec();
            if seq == 0 || witness_set.is_empty() {
                continue; // nothing to commit / nobody to commit to
            }
            let digest = self.shadows[&node.0].state_digest();
            self.commit_snapshots.insert(node.0, (seq, digest));
            let equivocating = fault == NodeFault::Equivocate;
            let primary_head = if equivocating && witness_set.len() == 1 {
                forked_head
            } else {
                head
            };
            let target = (self.audit_rounds_done as usize) % witness_set.len();
            let (auth, cost) = self.layer.borrow_mut().seal(node.0, seq, primary_head);
            self.clock.advance(cost);
            self.stats.commitments_published += 1;
            self.layer
                .borrow_mut()
                .enqueue_ride(node.0, witness_set[target], auth, false);
            if equivocating && witness_set.len() > 1 {
                let fork_target = (target + 1) % witness_set.len();
                let (fork, cost) = self.layer.borrow_mut().seal(node.0, seq, forked_head);
                self.clock.advance(cost);
                self.stats.commitments_published += 1;
                self.layer
                    .borrow_mut()
                    .enqueue_ride(node.0, witness_set[fork_target], fork, false);
            }
        }
    }

    fn issue_challenges(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
        let mut outgoing: Vec<(NodeId, NodeId, Outbound)> = Vec::new();
        let now = self.clock.now();
        let at_us = now.as_micros();
        let round = self.audit_rounds_done;
        // Hoisted fault-free fast path: with an empty plan the per-record
        // witness-fault lookup below is skipped entirely — at n = 1000 the
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
            let down = |n: &u32| {
                matches!(
                    self.membership.get(n),
                    Some(MemberPhase::Crashed | MemberPhase::Departed)
                )
            };
            if down(&witness) || down(&node) {
                continue;
            }
            match if no_faults {
                NodeFault::Correct
            } else {
                self.faults.fault_of(witness)
            } {
                // A silent witness skips its audit duties outright; its
                // record simply never advances (and never convicts).
                NodeFault::SilentWitness => {
                    self.stats.challenges_skipped += 1;
                    continue;
                }
                // A falsely suspecting witness skips the challenge *and*
                // downgrades its verdict anyway — a lie that stays local,
                // because suspicion carries no evidence and is never
                // transferred (see the `audit` module docs).
                NodeFault::FalseSuspicion => {
                    self.stats.challenges_skipped += 1;
                    self.stats.false_suspicions += 1;
                    record.trace = TraceCtx {
                        witness,
                        node,
                        at_us,
                        round,
                    };
                    record.mark_unresponsive();
                    continue;
                }
                _ => {}
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
                record.trace = TraceCtx {
                    witness,
                    node,
                    at_us,
                    round,
                };
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

    /// The Byzantine forging step: every `ForgeEvidence` witness fabricates
    /// one equivocation accusation per auditee — a genuine commitment (when
    /// it holds one) paired with a forged counterpart whose seal its *own*
    /// honest device produced, since the auditee's TNIC cannot be made to
    /// sign a head its host never committed — and broadcasts the pair to
    /// the auditee's fellow witnesses. The forged seal fails the
    /// device/session binding at every receiver, so the accusation is
    /// rejected and turned against the forger ([`Misbehavior::ForgedAccusation`]).
    fn fabricate_evidence(&mut self, cluster: &mut Cluster) -> Result<(), CoreError> {
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
            let auditees: Vec<u32> = self
                .witnesses
                .iter()
                .filter(|(_, set)| set.contains(&forger))
                .map(|(&node, _)| node)
                .collect();
            for auditee in auditees {
                if self.evidence_forged.contains(&(forger, auditee)) {
                    continue;
                }
                // Base the forgery on the newest real commitment if one is
                // held (the more plausible lie); fabricate from thin air
                // otherwise.
                let real = self
                    .records
                    .get(&(forger, auditee))
                    .and_then(|r| r.commitments.iter().max_by_key(|a| a.seq))
                    .cloned();
                let (seq, head) = real.as_ref().map_or((1, [0x5Au8; 32]), |a| (a.seq, a.head));
                let mut forged_head = head;
                forged_head[0] ^= 0xFF;
                let payload = Authenticator::payload(auditee, seq, &forged_head);
                let (attestation, cost) = self.layer.borrow_mut().seal_payload(forger, &payload);
                self.clock.advance(cost);
                let forged = Authenticator {
                    node: auditee,
                    seq,
                    head: forged_head,
                    attestation,
                };
                let a = real.unwrap_or_else(|| {
                    // No genuine half available: forge that one too.
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
                });
                self.evidence_forged.insert((forger, auditee));
                for &fellow in self.witnesses.get(&auditee).expect("witness set") {
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

    fn finish_round(&mut self) {
        /// Gap, in audit rounds, before the first challenge retry; it
        /// doubles per attempt (exponential backoff).
        const RETRY_BACKOFF_ROUNDS: u64 = 1;
        let at_us = self.clock.now().as_micros();
        let round = self.audit_rounds_done;
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
                at_us,
                round,
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
    fn sweep_until_quiet(&mut self, cluster: &mut Cluster, app: &mut A) -> Result<(), CoreError> {
        let mut pending = std::mem::take(&mut self.pending_scratch);
        loop {
            cluster.nodes_with_pending(&mut pending);
            // A crashed node's inbox stays queued until recovery; a
            // departed node's is never drained.
            pending.retain(|&n| !self.is_down(n.0));
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
    fn dispatch(
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
    fn send_outgoing(
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
    /// [`CommitmentLayer::segment_checked`]: the response is deferred from
    /// `handle_challenge`, and a checkpoint commit processed in the same
    /// sweep can prune the log underneath the deferred range. A straddled
    /// range is answered with the checkpoint certificate (the witness
    /// verifies the quorum and fast-forwards) — never with a silently
    /// re-based segment, which the witness would misread as starting at the
    /// challenged sequence.
    fn send_segments(
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
    fn handle_envelope(
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
            Envelope::Join(auth) => {
                self.handle_join(node.0, from, auth, outgoing);
            }
            Envelope::Leave { auth, entries } => {
                self.handle_leave(node.0, from, auth, &entries, outgoing);
            }
            Envelope::Recover(auth) => {
                self.handle_recover(node.0, from, auth, outgoing);
            }
        }
    }

    /// Witness side of a joiner's first announcement: only the joiner
    /// itself may announce its own initial head (the attested channel
    /// guarantees origin), after which the commitment is stored and
    /// gossiped like any other — the joiner is audited from this base.
    fn handle_join(
        &mut self,
        witness: u32,
        from: u32,
        auth: Authenticator,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        if auth.node != from {
            return; // nobody announces a join on another node's behalf
        }
        self.handle_commitment(witness, auth, true, outgoing);
    }

    /// Witness side of a crash-recovery announcement: the recovered node
    /// re-announces its current sealed head. Stored as an ordinary direct
    /// commitment — an honest recovery extends the pre-crash chain and the
    /// next audit round resumes from the stalled prefix; a tampered one
    /// conflicts with a held commitment (equivocation, exposed on arrival)
    /// or fails the subsequent replay (exec divergence).
    fn handle_recover(
        &mut self,
        witness: u32,
        from: u32,
        auth: Authenticator,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        if auth.node != from {
            return; // only the recovering node speaks for itself
        }
        self.handle_commitment(witness, auth, true, outgoing);
    }

    /// Witness side of a departure: the leaver's final sealed commitment
    /// plus its unaudited log tail. The witness stores the commitment
    /// (conflict checks included), aligns the tail to its own audited
    /// prefix and closes the audit on the spot — an honest tail advances
    /// the audited prefix (clearing a transient suspicion), a tampered one
    /// convicts on the way out. A tail that cannot be aligned (e.g. the
    /// witness lags a pruned base) is skipped rather than guessed at: a
    /// correct node is never convicted on a replay the witness cannot
    /// ground.
    fn handle_leave(
        &mut self,
        witness: u32,
        from: u32,
        auth: Authenticator,
        entries: &[LogEntry],
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        if auth.node != from {
            return; // only the leaver seals its own farewell
        }
        let node = auth.node;
        let seq = auth.seq;
        self.handle_commitment(witness, auth.clone(), true, outgoing);
        let at_us = self.clock.now().as_micros();
        let round = self.audit_rounds_done;
        let Some(record) = self.records.get_mut(&(witness, node)) else {
            return;
        };
        if record.verdict != Verdict::Exposed && seq > record.audited_seq {
            let tail: Vec<LogEntry> = entries
                .iter()
                .filter(|e| e.seq >= record.audited_seq && e.seq < seq)
                .cloned()
                .collect();
            let aligned = tail.first().is_some_and(|e| e.seq == record.audited_seq)
                && tail.len() as u64 == seq - record.audited_seq;
            if aligned {
                record.trace = TraceCtx {
                    witness,
                    node,
                    at_us,
                    round,
                };
                self.stats.leave_audits += 1;
                self.stats.audit_replays += 1;
                self.stats.entries_replayed += tail.len() as u64;
                let _ = record.check_response(&auth, &tail);
            }
        }
        // The farewell subsumes any challenge it covers.
        if record
            .pending_challenge
            .as_ref()
            .is_some_and(|t| t.seq <= seq)
        {
            record.pending_challenge = None;
            self.challenge_started.remove(&(witness, node));
            self.retry_state.remove(&(witness, node));
        }
    }

    /// Witness side of a checkpoint proposal: cosign only what this witness
    /// has itself verified — the proposed boundary must equal the audited
    /// prefix and the proposed state digest must equal the replayed
    /// reference machine's. A withholding witness stays silent; a forging
    /// witness has its (honest) device seal a *different* digest and claims
    /// otherwise — the proposer's checks reject it.
    fn handle_checkpoint_propose(
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
        if self.faults.fault_of(witness) == NodeFault::WithholdCosignatures {
            self.stats.cosignatures_withheld += 1;
            return;
        }
        let forging = self.faults.fault_of(witness) == NodeFault::ForgeCosignatures;
        let Some(record) = self.records.get(&(witness, node)) else {
            return;
        };
        if record.verdict == Verdict::Exposed
            || record.audited_seq != mark.cut
            || record.audited_head != mark.head
        {
            return; // never vouch for an unverified (or convicted) prefix
        }
        if !forging && record.machine.state_digest() != mark.state_digest {
            return;
        }
        let sealed_digest = if forging {
            // The Byzantine host asks its device to seal a forged digest;
            // the device complies (it seals whatever it is handed) but the
            // cosignature it produces cannot be passed off as covering the
            // real checkpoint.
            let mut forged = mark.state_digest;
            forged[0] ^= 0xFF;
            forged
        } else {
            mark.state_digest
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
    fn handle_checkpoint_cosign(&mut self, node: u32, cosig: &Cosignature) {
        let Some(pending) = self.pending_checkpoints.get(&node) else {
            return;
        };
        let mark = pending.mark.clone();
        if cosig.node != node
            || !self.witnesses_of(node).contains(&cosig.witness)
            || !cosig.covers(&mark)
            || !cosig.consistent()
        {
            self.stats.cosignatures_rejected += 1;
            return;
        }
        if !self.attestation_verifies(node, &cosig.attestation) {
            self.stats.cosignatures_rejected += 1;
            return;
        }
        self.stats.cosignatures_collected += 1;
        self.pending_checkpoints
            .get_mut(&node)
            .expect("pending checked")
            .cosigners
            .insert(cosig.witness, cosig.clone());
    }

    /// Witness side of a certified checkpoint: after verifying the mark and
    /// a quorum of distinct, valid cosignatures from the witness set, drop
    /// the stored commitments the checkpoint covers, and — if this witness
    /// lagged behind the quorum — fast-forward to the cosigned boundary
    /// (adopting the replay state of a quorum-verified fellow record).
    fn handle_checkpoint_commit(
        &mut self,
        witness: u32,
        mark: &CheckpointMark,
        cosigs: &[Cosignature],
    ) {
        let node = mark.node;
        let witness_set = self.witnesses_of(node).to_vec();
        if !witness_set.contains(&witness)
            || !mark.consistent()
            || !self.attestation_verifies(witness, &mark.attestation)
        {
            return;
        }
        let mut signers: BTreeSet<u32> = BTreeSet::new();
        for cosig in cosigs {
            if cosig.covers(mark)
                && cosig.consistent()
                && witness_set.contains(&cosig.witness)
                && self.attestation_verifies(witness, &cosig.attestation)
            {
                signers.insert(cosig.witness);
            }
        }
        if signers.len() < cosign_quorum(witness_set.len()) {
            return;
        }
        let at_us = self.clock.now().as_micros();
        let round = self.audit_rounds_done;
        let lagging = self
            .records
            .get(&(witness, node))
            .is_some_and(|r| r.audited_seq < mark.cut && r.verdict != Verdict::Exposed);
        if lagging {
            // Adopt the replay state of a fellow record that sits exactly at
            // the certified boundary with the cosigned digest (the state
            // fetch a real witness performs, verified against the
            // certificate).
            let donor = witness_set.iter().find_map(|&w| {
                self.records.get(&(w, node)).filter(|r| {
                    r.audited_seq == mark.cut && r.machine.state_digest() == mark.state_digest
                })
            });
            if let Some(donor) = donor {
                let machine = donor.machine.clone();
                let pending = donor.pending_outputs();
                if let Some(record) = self.records.get_mut(&(witness, node)) {
                    record.trace = TraceCtx {
                        witness,
                        node,
                        at_us,
                        round,
                    };
                    record.fast_forward(mark.cut, mark.head, machine, pending);
                    // The fast-forward subsumes any in-flight challenge (a
                    // certificate may arrive as the *answer* to one); drop
                    // its latency and retry bookkeeping with it.
                    self.challenge_started.remove(&(witness, node));
                    self.retry_state.remove(&(witness, node));
                }
            }
        }
        if let Some(record) = self.records.get_mut(&(witness, node)) {
            let dropped = record.drop_commitments_upto(mark.cut) as u64;
            self.stats.commitments_pruned += dropped;
            tnic_obs::trace_event!(
                tnic_obs::EventKind::Prune,
                at_us: at_us,
                node: witness,
                peer: node,
                seq: mark.cut,
                aux: dropped
            );
        }
    }

    /// Cryptographically verifies a TNIC seal on `verifier`'s kernel (which
    /// holds every log-session key).
    fn attestation_verifies(
        &mut self,
        verifier: u32,
        attestation: &tnic_device::attestation::AttestedMessage,
    ) -> bool {
        let kernel = self
            .audit_kernels
            .get_mut(&verifier)
            .expect("verifier kernel");
        match kernel.verify_binding(attestation) {
            Ok(cost) => {
                self.clock.advance(cost);
                true
            }
            Err(_) => false,
        }
    }

    /// Verifies a commitment's TNIC seal and structural claims.
    fn seal_verifies(&mut self, witness: u32, auth: &Authenticator) -> bool {
        auth.consistent() && self.attestation_verifies(witness, &auth.attestation)
    }

    fn handle_commitment(
        &mut self,
        witness: u32,
        auth: Authenticator,
        direct: bool,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        let accused = auth.node;
        if !self.witnesses_of(accused).contains(&witness) || !self.seal_verifies(witness, &auth) {
            return;
        }
        let at_us = self.clock.now().as_micros();
        let round = self.audit_rounds_done;
        let record = self
            .records
            .get_mut(&(witness, accused))
            .expect("record exists");
        record.trace = TraceCtx {
            witness,
            node: accused,
            at_us,
            round,
        };
        let conflict = record.store_commitment(auth.clone());
        // A gossip-withholding witness suppresses *all* its witness-side
        // forwarding (relays and evidence transfers alike); a relay-refusing
        // one only drops piggyback relays. Neither affects the witness's own
        // verdicts — the suppressed messages are pure forwarding.
        let witness_fault = self.faults.fault_of(witness);
        let withholds_all = witness_fault == NodeFault::WithholdGossip;
        let refuses_relays = witness_fault == NodeFault::RefuseRelay && self.config.piggyback;
        if let Some(Misbehavior::ConflictingCommitments { a, b }) = conflict {
            // Evidence transfer: the pair convinces any correct third party.
            for &fellow in self.witnesses.get(&accused).expect("witness set") {
                if fellow != witness && fellow != accused {
                    if withholds_all {
                        self.stats.gossip_withheld += 1;
                        continue;
                    }
                    self.stats.evidence_transfers += 1;
                    outgoing.push((
                        NodeId(witness),
                        NodeId(fellow),
                        Envelope::Evidence {
                            a: (*a).clone(),
                            b: (*b).clone(),
                        }
                        .into(),
                    ));
                }
            }
        }
        if direct {
            // Gossip the directly received commitment to fellow witnesses so
            // an equivocator cannot keep its witness set partitioned. In
            // piggyback mode the relay rides the witness's own outbound
            // traffic (or the next dedicated flush) instead of costing a
            // message now.
            for &fellow in self.witnesses.get(&accused).expect("witness set") {
                if fellow != witness && fellow != accused {
                    if withholds_all {
                        self.stats.gossip_withheld += 1;
                    } else if refuses_relays {
                        self.stats.relays_refused += 1;
                    } else if self.config.piggyback {
                        self.layer
                            .borrow_mut()
                            .enqueue_ride(witness, fellow, auth.clone(), true);
                    } else {
                        outgoing.push((
                            NodeId(witness),
                            NodeId(fellow),
                            Envelope::Gossip(auth.clone()).into(),
                        ));
                    }
                }
            }
        }
    }

    fn handle_challenge(
        &mut self,
        node: u32,
        witness: u32,
        from_seq: u64,
        upto_seq: u64,
        outgoing: &mut Vec<(NodeId, NodeId, Outbound)>,
    ) {
        // Fault-free fast path mirroring `issue_challenges`: skip the fault
        // lookup (and its RNG draw arm) when the plan is empty.
        match if self.faults.is_all_correct() {
            NodeFault::Correct
        } else {
            self.faults.fault_of(node)
        } {
            NodeFault::SuppressAudits { probability } if self.rng.chance(probability) => {
                return; // the node stays silent
            }
            // The host rewrites its storage once, *after* having committed:
            // it discards everything from `drop_tail` entries before the
            // challenged commitment onwards, so no audit can cover the
            // committed prefix any more.
            NodeFault::TruncateLog { drop_tail } if !self.truncation_applied.contains(&node) => {
                let len = self.layer.borrow().log_len(node);
                let keep = upto_seq.saturating_sub(drop_tail);
                self.layer
                    .borrow_mut()
                    .truncate_tail(node, len.saturating_sub(keep));
                self.truncation_applied.insert(node);
            }
            _ => {}
        }
        // A challenge below the pruned base cannot be answered with log
        // entries any more — the covered prefix is gone. In-sim no witness
        // normally challenges there (laggards fast-forward on the commit
        // certificate first), but a reordering transport can deliver the
        // challenge before the certificate; the honest answer is the
        // certificate itself, which the witness verifies (quorum of seals)
        // and fast-forwards from instead of suspecting.
        // `segment_checked` makes the clamp explicit: `SecureLog::segment`
        // would silently re-base the range and the response would start at
        // the wrong sequence.
        if self
            .layer
            .borrow()
            .segment_checked(node, from_seq, upto_seq)
            .is_err()
        {
            if let Some((mark, cosigs)) = self.certificates.get(&node) {
                if from_seq < mark.cut {
                    self.stats.certificate_responses += 1;
                    outgoing.push((
                        NodeId(node),
                        NodeId(witness),
                        Envelope::CheckpointCommit {
                            mark: mark.clone(),
                            cosigs: cosigs.clone(),
                        }
                        .into(),
                    ));
                    return;
                }
            }
        }
        // Defer the response body: the send path borrows the log segment
        // and encodes it straight into the reused wire buffer (and batches
        // consecutive responses to the same witness).
        outgoing.push((
            NodeId(node),
            NodeId(witness),
            Outbound::Segment { from_seq, upto_seq },
        ));
    }

    fn handle_response(&mut self, witness: u32, node: u32, from_seq: u64, entries: &[LogEntry]) {
        let at_us = self.clock.now().as_micros();
        let round = self.audit_rounds_done;
        let Some(record) = self.records.get_mut(&(witness, node)) else {
            return;
        };
        // The response must answer the outstanding challenge: its `from_seq`
        // echoes the challenged range start, which is exactly the witness's
        // audited prefix (challenges are issued with `from_seq =
        // audited_seq`, and the prefix only advances on a valid response).
        // A stale or forged range is ignored — the challenge stays pending
        // and unresponsiveness handling takes over at round end.
        if record.pending_challenge.is_some() && from_seq != record.audited_seq {
            return;
        }
        let Some(target) = record.pending_challenge.take() else {
            return;
        };
        self.stats.responses += 1;
        self.stats.audit_replays += 1;
        self.stats.entries_replayed += entries.len() as u64;
        record.trace = TraceCtx {
            witness,
            node,
            at_us,
            round,
        };
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Response,
            at_us: at_us,
            node: witness,
            peer: node,
            seq: target.seq,
            round: round,
            aux: entries.len() as u64
        );
        // The verdict transition happens inside the record; failures are
        // locally verified evidence, so no further transfer is needed —
        // every witness audits independently.
        let _ = record.check_response(&target, entries);
        self.retry_state.remove(&(witness, node));
        if let Some(started) = self.challenge_started.remove(&(witness, node)) {
            self.stats
                .audit_latency
                .record(self.clock.now().duration_since(started));
        }
    }

    /// An evidence message is adopted only when it is independently
    /// verifiable (a genuinely conflicting, seal-valid commitment pair —
    /// see the [`crate::audit`] module docs for the full rules). Anything
    /// else is a fabricated accusation, and since the attested channel
    /// guarantees its origin, it convicts the *accuser* — never the
    /// accused.
    fn handle_evidence(&mut self, witness: u32, from: u32, a: &Authenticator, b: &Authenticator) {
        let verifiable = commitments_conflict(a, b)
            && self.seal_verifies(witness, a)
            && self.seal_verifies(witness, b);
        let at_us = self.clock.now().as_micros();
        let round = self.audit_rounds_done;
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Evidence,
            at_us: at_us,
            node: witness,
            peer: from,
            seq: a.seq,
            round: round,
            aux: u64::from(!verifiable)
        );
        if !verifiable {
            self.stats.evidence_rejected += 1;
            if from != witness && self.witnesses_of(from).contains(&witness) {
                let accused = a.node;
                let Some(record) = self.records.get_mut(&(witness, from)) else {
                    return;
                };
                let already_convicted = record
                    .evidence
                    .iter()
                    .any(|e| matches!(e, Misbehavior::ForgedAccusation { .. }));
                if !already_convicted {
                    self.stats.accusations_turned += 1;
                    record.trace = TraceCtx {
                        witness,
                        node: from,
                        at_us,
                        round,
                    };
                    record.convict(Misbehavior::ForgedAccusation { accused });
                }
            }
            return;
        }
        let Some(record) = self.records.get_mut(&(witness, a.node)) else {
            return;
        };
        let already_convicted = record
            .evidence
            .iter()
            .any(|e| matches!(e, Misbehavior::ConflictingCommitments { .. }));
        if !already_convicted {
            record.trace = TraceCtx {
                witness,
                node: a.node,
                at_us,
                round,
            };
            record.convict(Misbehavior::ConflictingCommitments {
                a: Box::new(a.clone()),
                b: Box::new(b.clone()),
            });
        }
    }

    fn send_control(
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

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_net::stack::NetworkStackKind;

    fn counter_deployment(
        faults: FaultPlan,
    ) -> (Cluster, CounterApp, AccountabilityEngine<CounterApp>) {
        let mut cluster = Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 42);
        let app = CounterApp::new(&cluster.nodes());
        let engine =
            AccountabilityEngine::attach(&mut cluster, &app, EngineConfig::default(), faults);
        (cluster, app, engine)
    }

    #[test]
    fn engine_logs_sends_receives_and_execs() {
        let (mut cluster, mut app, mut engine) = counter_deployment(FaultPlan::all_correct());
        let payload = crate::workload::app_payload_sized(0);
        for i in 0..4u32 {
            let from = NodeId(i % 4);
            let to = NodeId((i + 1) % 4);
            cluster.auth_send(from, to, &payload).unwrap();
            let deliveries = engine.poll(&mut cluster, &mut app, to).unwrap();
            assert_eq!(deliveries.len(), 1);
            assert_eq!(deliveries[0].from, from);
        }
        // Each message: Send at sender, Recv + Exec at receiver.
        assert_eq!(engine.stats().log_entries, 12);
        assert_eq!(app.machines[&1].value(), 1);
    }

    #[test]
    fn mismatched_response_from_seq_is_ignored_and_node_suspected() {
        let (mut cluster, mut app, mut engine) = counter_deployment(FaultPlan::all_correct());
        let payload = crate::workload::app_payload_sized(0);
        for i in 0..8u32 {
            let from = NodeId(i % 4);
            let to = NodeId((i + 1) % 4);
            cluster.auth_send(from, to, &payload).unwrap();
            engine.poll(&mut cluster, &mut app, to).unwrap();
        }
        // Seed the witness with a commitment and an outstanding challenge.
        let (seq, head, _) = engine.layer.borrow().commitment_data(1);
        let (auth, _) = engine.layer.borrow_mut().seal(1, seq, head);
        let mut outgoing = Vec::new();
        engine.handle_commitment(0, auth, false, &mut outgoing);
        engine.issue_challenges(&mut cluster).unwrap();
        assert!(engine
            .records
            .get(&(0, 1))
            .unwrap()
            .pending_challenge
            .is_some());
        // A response whose `from_seq` does not match the challenged range
        // start must be ignored: the challenge stays pending and round end
        // downgrades the node.
        let entries = engine.layer.borrow().segment(1, 0, seq);
        engine.handle_response(0, 1, 7, &entries);
        assert!(engine
            .records
            .get(&(0, 1))
            .unwrap()
            .pending_challenge
            .is_some());
        engine.finish_round();
        assert_eq!(engine.verdict_of(0, 1), Verdict::Suspected);
    }

    #[test]
    fn multicast_traffic_carries_piggyback_rides() {
        let mut cluster = Cluster::fully_connected(3, Baseline::Tnic, NetworkStackKind::Tnic, 7);
        cluster
            .establish_group(NodeId(0), &[NodeId(1), NodeId(2)])
            .unwrap();
        let app = CounterApp::new(&cluster.nodes());
        let config = EngineConfig {
            piggyback: true,
            witness_count: Some(2),
            ..EngineConfig::default()
        };
        let mut engine =
            AccountabilityEngine::attach(&mut cluster, &app, config, FaultPlan::all_correct());
        let mut app = app;
        // Give node 0 something to commit to, then queue the commitment.
        let payload = crate::workload::app_payload_sized(0);
        cluster.auth_send(NodeId(0), NodeId(1), &payload).unwrap();
        engine.poll(&mut cluster, &mut app, NodeId(1)).unwrap();
        engine.begin_audit_round(&mut cluster).unwrap();
        let queued = engine.layer.borrow().pending_rides();
        assert!(queued > 0, "commitments queued for rides");
        // A multicast from node 0 picks the pending ride up.
        cluster
            .multicast(NodeId(0), &[NodeId(1), NodeId(2)], &payload)
            .unwrap();
        assert!(engine.layer.borrow().piggybacked() > 0);
        for node in [NodeId(1), NodeId(2)] {
            engine.poll(&mut cluster, &mut app, node).unwrap();
        }
        engine.finish_audit_round(&mut cluster, &mut app).unwrap();
    }

    #[test]
    fn multicast_budget_overflow_keeps_rides_queued_instead_of_dropping() {
        let (_cluster, _, engine) = counter_deployment(FaultPlan::all_correct());
        // Fill the whole batch budget from receiver 1's queue, plus two
        // rides for receiver 2 that cannot fit this multicast.
        for (origin, head) in [(0u32, 1u8), (1, 2), (2, 3), (3, 4)] {
            let (auth, _) = engine.layer.borrow_mut().seal(origin, 1, [head; 32]);
            engine.layer.borrow_mut().enqueue_ride(0, 1, auth, true);
        }
        for (origin, head) in [(1u32, 5u8), (2, 6)] {
            let (auth, _) = engine.layer.borrow_mut().seal(origin, 1, [head; 32]);
            engine.layer.borrow_mut().enqueue_ride(0, 2, auth, true);
        }
        let payload = crate::workload::app_payload_sized(0);
        let wrapped = engine
            .layer
            .borrow_mut()
            .wrap_multicast(NodeId(0), &[NodeId(1), NodeId(2)], &payload)
            .expect("rides attached");
        let Envelope::Piggyback { riders, .. } = Envelope::decode(&wrapped).unwrap() else {
            panic!("wrapped payload must be a piggyback");
        };
        assert_eq!(riders.len(), MAX_PIGGYBACK_RIDERS);
        // The overflow must stay queued for the dedicated flush — a sealed
        // commitment is never silently destroyed.
        assert_eq!(engine.layer.borrow().pending_rides(), 2);
    }

    /// A [`CounterApp`] wrapper counting the control envelopes its
    /// [`AccountedApp::on_control`] tap observes.
    struct TappedApp {
        inner: CounterApp,
        control_seen: usize,
    }

    impl AccountedApp for TappedApp {
        type Machine = CounterMachine;

        fn replay_machine(&self) -> CounterMachine {
            self.inner.replay_machine()
        }

        fn execute(&mut self, node: u32, command: &[u8]) -> Vec<u8> {
            self.inner.execute(node, command)
        }

        fn snapshot_digest(&self, node: u32) -> [u8; 32] {
            self.inner.snapshot_digest(node)
        }

        fn on_control(&mut self, _node: u32, _from: u32, envelope: &Envelope) {
            assert!(!matches!(envelope, Envelope::App(_)));
            self.control_seen += 1;
        }
    }

    #[test]
    fn on_control_tap_observes_audit_traffic() {
        let mut cluster = Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 42);
        let mut app = TappedApp {
            inner: CounterApp::new(&cluster.nodes()),
            control_seen: 0,
        };
        let mut engine = AccountabilityEngine::attach(
            &mut cluster,
            &app,
            EngineConfig::default(),
            FaultPlan::all_correct(),
        );
        let payload = crate::workload::app_payload_sized(0);
        for i in 0..4u32 {
            cluster
                .auth_send(NodeId(i % 4), NodeId((i + 1) % 4), &payload)
                .unwrap();
            engine
                .poll(&mut cluster, &mut app, NodeId((i + 1) % 4))
                .unwrap();
        }
        assert_eq!(app.control_seen, 0, "app traffic is not control traffic");
        engine.run_audit_round(&mut cluster, &mut app).unwrap();
        assert!(
            app.control_seen > 0,
            "announce/challenge/response traffic reaches the tap"
        );
    }

    #[test]
    fn dedicated_flush_batches_same_pair_rides_into_one_message() {
        let (mut cluster, _, mut engine) = counter_deployment(FaultPlan::all_correct());
        // Five rides for the same directed pair: one dedicated envelope can
        // carry them all (1 inner + MAX_PIGGYBACK_RIDERS riders). One origin
        // contributes a conflicting pair (kept by the supersede rule — the
        // pair is evidence), the rest are distinct origins.
        for (i, (origin, head)) in [(0u32, 1u8), (0, 2), (1, 3), (2, 4), (3, 5)]
            .into_iter()
            .enumerate()
        {
            let (auth, _) = engine.layer.borrow_mut().seal(origin, 1, [head; 32]);
            engine.layer.borrow_mut().enqueue_ride(0, 1, auth, true);
            assert_eq!(engine.layer.borrow().pending_rides(), i + 1);
        }
        assert_eq!(
            engine.layer.borrow().pending_rides(),
            1 + MAX_PIGGYBACK_RIDERS
        );
        engine.flush_pending(&mut cluster).unwrap();
        assert_eq!(engine.layer.borrow().pending_rides(), 0);
        assert_eq!(
            engine.stats().control_messages,
            1,
            "the whole batch travels in one dedicated message"
        );
    }

    /// Drives `rounds` iterations of an 8-message round-robin workload plus
    /// one audit round (mirroring the PeerReview driver, engine-side).
    fn run_rounds(
        cluster: &mut Cluster,
        app: &mut CounterApp,
        engine: &mut AccountabilityEngine<CounterApp>,
        rounds: u64,
    ) {
        let payload = crate::workload::app_payload_sized(0);
        let piggyback = engine.config.piggyback;
        for _ in 0..rounds {
            if piggyback {
                engine.begin_audit_round(cluster).unwrap();
            }
            for i in 0..8u32 {
                let from = NodeId(i % 4);
                let to = NodeId((i + 1) % 4);
                cluster.auth_send(from, to, &payload).unwrap();
                engine.poll(cluster, app, to).unwrap();
            }
            if piggyback {
                engine.finish_audit_round(cluster, app).unwrap();
            } else {
                engine.run_audit_round(cluster, app).unwrap();
            }
        }
    }

    fn engine_deployment(
        config: EngineConfig,
        faults: FaultPlan,
    ) -> (Cluster, CounterApp, AccountabilityEngine<CounterApp>) {
        let mut cluster = Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 42);
        let app = CounterApp::new(&cluster.nodes());
        let engine = AccountabilityEngine::attach(&mut cluster, &app, config, faults);
        (cluster, app, engine)
    }

    fn piggyback_config() -> EngineConfig {
        EngineConfig {
            piggyback: true,
            witness_count: Some(2),
            ..EngineConfig::default()
        }
    }

    /// Every correct witness of every correct node must trust it.
    fn assert_accuracy<A: AccountedApp>(engine: &AccountabilityEngine<A>) {
        for node in 0..4u32 {
            if engine.faults.fault_of(node).is_byzantine() {
                continue;
            }
            for w in engine.correct_witnesses_of(node) {
                assert_eq!(
                    engine.verdict_of(w, node),
                    Verdict::Trusted,
                    "correct node {node} at correct witness {w}"
                );
                assert!(engine.evidence_of(w, node).is_empty());
            }
        }
    }

    #[test]
    fn forged_evidence_exposes_the_accuser_never_the_accused() {
        for config in [EngineConfig::default(), piggyback_config()] {
            let (mut cluster, mut app, mut engine) =
                engine_deployment(config, FaultPlan::single(1, NodeFault::ForgeEvidence));
            run_rounds(&mut cluster, &mut app, &mut engine, 3);
            engine.drain_audits(&mut cluster, &mut app).unwrap();
            let stats = engine.stats();
            assert!(stats.forged_evidence_sent > 0, "the forger actually lied");
            assert!(stats.evidence_rejected > 0, "receivers rejected the lie");
            assert!(stats.accusations_turned > 0, "the lie convicted its author");
            // Accuracy: no accused (correct) node is ever exposed.
            assert_accuracy(&engine);
            // The accuser is exposed by at least one correct witness that
            // received the forged accusation, with the turned evidence.
            let exposed: Vec<u32> = engine
                .correct_witnesses_of(1)
                .into_iter()
                .filter(|&w| engine.verdict_of(w, 1) == Verdict::Exposed)
                .collect();
            assert!(
                !exposed.is_empty(),
                "piggyback={}: some correct witness convicts the forger",
                config.piggyback
            );
            for w in exposed {
                assert!(engine
                    .evidence_of(w, 1)
                    .iter()
                    .any(|e| matches!(e, Misbehavior::ForgedAccusation { .. })));
            }
        }
    }

    #[test]
    fn false_suspicion_and_silent_witness_stay_local() {
        for fault in [NodeFault::FalseSuspicion, NodeFault::SilentWitness] {
            for config in [EngineConfig::default(), piggyback_config()] {
                let (mut cluster, mut app, mut engine) =
                    engine_deployment(config, FaultPlan::single(2, fault));
                run_rounds(&mut cluster, &mut app, &mut engine, 3);
                let stats = engine.stats();
                assert!(stats.challenges_skipped > 0, "{fault:?} skipped audits");
                // Accuracy: the lie never leaves the liar — every correct
                // witness still trusts every correct node, and the
                // Byzantine witness itself (correct as an auditee) stays
                // trusted at its own witnesses.
                assert_accuracy(&engine);
                for w in engine.correct_witnesses_of(2) {
                    assert_eq!(engine.verdict_of(w, 2), Verdict::Trusted);
                }
                if fault == NodeFault::FalseSuspicion {
                    assert!(stats.false_suspicions > 0);
                    // The liar's own records hold the fake verdict — local
                    // and evidence-free.
                    let lied = (0..4u32)
                        .filter(|&n| engine.witnesses_of(n).contains(&2))
                        .any(|n| engine.verdict_of(2, n) == Verdict::Suspected);
                    assert!(lied, "the false suspicion exists, locally");
                }
            }
        }
    }

    #[test]
    fn withheld_gossip_delays_but_cannot_prevent_exposure() {
        // Node 1 tampers its log; its first witness suppresses all relays.
        // The rotating announcement target brings the commitments to the
        // remaining correct witness within an extra round, which then
        // exposes the tamperer from its own audit.
        for witness_fault in [NodeFault::WithholdGossip, NodeFault::RefuseRelay] {
            let mut faults = FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 });
            faults.set(2, witness_fault);
            let (mut cluster, mut app, mut engine) = engine_deployment(piggyback_config(), faults);
            assert_eq!(engine.witnesses_of(1), &[2, 3]);
            run_rounds(&mut cluster, &mut app, &mut engine, 4);
            engine.drain_audits(&mut cluster, &mut app).unwrap();
            let stats = engine.stats();
            let suppressed = stats.gossip_withheld + stats.relays_refused;
            assert!(suppressed > 0, "{witness_fault:?} actually suppressed");
            assert_eq!(
                engine.verdict_of(3, 1),
                Verdict::Exposed,
                "{witness_fault:?}: the correct witness still exposes the tamperer"
            );
            assert_accuracy(&engine);
        }
    }

    #[test]
    fn unverifiable_evidence_variants_convict_only_the_sender() {
        let (_cluster, _, engine) = counter_deployment(FaultPlan::all_correct());
        // A real commitment by node 1 (the would-be accused).
        let (seq, head) = (3u64, [7u8; 32]);
        let mut forked = head;
        forked[0] ^= 0xFF;
        let (real, _) = engine.layer.borrow_mut().seal(1, seq, head);
        // (a) A forged counterpart sealed on the *sender's* (node 3's)
        // session: device/session binding fails.
        let payload = Authenticator::payload(1, seq, &forked);
        let (attestation, _) = engine.layer.borrow_mut().seal_payload(3, &payload);
        let resealed = Authenticator {
            node: 1,
            seq,
            head: forked,
            attestation,
        };
        // (b) A tampered head on a genuine seal: payload mismatch.
        let mut tampered = real.clone();
        tampered.head[2] ^= 0x55;
        // (c) A non-conflicting pair (identical content): no crime claimed.
        let (dup, _) = engine.layer.borrow_mut().seal(1, seq, head);
        let variants: Vec<(Authenticator, Authenticator)> = vec![
            (real.clone(), resealed),
            (real.clone(), tampered),
            (real.clone(), dup),
        ];
        for (i, (a, b)) in variants.into_iter().enumerate() {
            let mut engine = counter_deployment(FaultPlan::all_correct()).2;
            engine.handle_evidence(0, 3, &a, &b);
            assert_eq!(
                engine.verdict_of(0, 1),
                Verdict::Trusted,
                "variant {i}: the accused stays clean"
            );
            assert_eq!(
                engine.verdict_of(0, 3),
                Verdict::Exposed,
                "variant {i}: the accuser is convicted"
            );
            assert!(engine
                .evidence_of(0, 3)
                .iter()
                .any(|e| matches!(e, Misbehavior::ForgedAccusation { accused: 1 })));
            assert_eq!(engine.stats().evidence_rejected, 1);
        }
    }

    #[test]
    fn below_base_challenge_answered_with_certificate_not_suspicion() {
        // A checkpointed run that has certified and pruned...
        let config = EngineConfig {
            checkpoint_interval: Some(1),
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            engine_deployment(config, FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 2);
        let base = engine.layer.borrow().base_seq(1);
        assert!(base > 0, "node 1 actually pruned");
        let cut = engine.completed_checkpoints.get(&1).unwrap().cut;
        // ...then a reordering transport delivers witness 0 a challenge
        // answer *request* for a range below the pruned base (the witness
        // never saw the commit certificate). The node must answer with the
        // certificate, not a truncated segment.
        let mut outgoing = Vec::new();
        engine.handle_challenge(1, 0, 0, base + 1, &mut outgoing);
        assert_eq!(engine.stats().certificate_responses, 1);
        let (_, to, answer) = outgoing.pop().expect("an answer was produced");
        assert_eq!(to, NodeId(0));
        let Outbound::Env(answer) = answer else {
            panic!("a certificate answer is a ready envelope, not a deferred segment");
        };
        let Envelope::CheckpointCommit { ref mark, .. } = answer else {
            panic!("below-base challenge must be answered with the certificate");
        };
        assert_eq!(mark.cut, cut);
        // Rewind witness 0 to a pre-checkpoint view with the challenge
        // outstanding (what the reordered transport left behind).
        let (seal, _) = engine.layer.borrow_mut().seal(1, base + 1, [9u8; 32]);
        {
            let record = engine.records.get_mut(&(0, 1)).unwrap();
            *record = WitnessRecord::new(CounterMachine::new());
            record.pending_challenge = Some(seal);
        }
        // Delivering the certificate fast-forwards the witness to the
        // cosigned boundary instead of leaving it to suspect the node.
        let mut relays = Vec::new();
        engine.handle_envelope(&mut app, NodeId(0), 1, answer, &mut relays);
        let record = engine.records.get(&(0, 1)).unwrap();
        assert_eq!(record.audited_seq, cut, "fast-forwarded to the cut");
        assert!(record.pending_challenge.is_none());
        engine.finish_round();
        assert_eq!(
            engine.verdict_of(0, 1),
            Verdict::Trusted,
            "a verifiable certificate answer never produces suspicion"
        );
    }

    #[test]
    fn batched_rides_carry_multiple_commitments_per_message() {
        let (_cluster, _, engine) = counter_deployment(FaultPlan::all_correct());
        // Queue more rides for (0 -> 1) than one message may carry.
        for seq in 1..=(MAX_PIGGYBACK_RIDERS as u64 + 2) {
            // Distinct origins so the cumulative-supersede rule keeps all.
            let origin = (seq % 4) as u32;
            let (auth, _) = engine.layer.borrow_mut().seal(origin, seq, [seq as u8; 32]);
            engine.layer.borrow_mut().enqueue_ride(0, 1, auth, false);
        }
        let queued = engine.layer.borrow().pending_rides();
        let payload = crate::workload::app_payload_sized(0);
        let wrapped = engine
            .layer
            .borrow_mut()
            .wrap_outbound(NodeId(0), NodeId(1), &payload)
            .expect("ride attached");
        let Envelope::Piggyback { riders, .. } = Envelope::decode(&wrapped).unwrap() else {
            panic!("wrapped payload must be a piggyback");
        };
        assert_eq!(riders.len(), MAX_PIGGYBACK_RIDERS, "full batch rides");
        assert_eq!(
            engine.layer.borrow().pending_rides(),
            queued - MAX_PIGGYBACK_RIDERS
        );
    }

    // ---- sampled auditing, batching, sharding --------------------------

    fn sized_deployment(
        n: u32,
        config: EngineConfig,
        faults: FaultPlan,
    ) -> (Cluster, CounterApp, AccountabilityEngine<CounterApp>) {
        let mut cluster = Cluster::fully_connected(n, Baseline::Tnic, NetworkStackKind::Tnic, 42);
        let app = CounterApp::new(&cluster.nodes());
        let engine = AccountabilityEngine::attach(&mut cluster, &app, config, faults);
        (cluster, app, engine)
    }

    fn run_rounds_n(
        cluster: &mut Cluster,
        app: &mut CounterApp,
        engine: &mut AccountabilityEngine<CounterApp>,
        n: u32,
        rounds: u64,
    ) {
        let payload = crate::workload::app_payload_sized(0);
        for _ in 0..rounds {
            for i in 0..(2 * n) {
                let from = NodeId(i % n);
                let to = NodeId((i + 1) % n);
                cluster.auth_send(from, to, &payload).unwrap();
                engine.poll(cluster, app, to).unwrap();
            }
            engine.run_audit_round(cluster, app).unwrap();
        }
    }

    #[test]
    fn sampled_auditing_cuts_challenges_and_never_manufactures_suspicion() {
        let sampled_config = EngineConfig {
            audit_sample_size: Some(1),
            audit_coverage_window: 4,
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            engine_deployment(sampled_config, FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 6);
        let sampled = engine.stats();
        let (mut cluster, mut app, mut engine) =
            engine_deployment(EngineConfig::default(), FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 6);
        let full = engine.stats();
        assert!(
            sampled.audits_sampled_out > 0,
            "pairs were actually skipped"
        );
        assert!(
            sampled.challenges < full.challenges,
            "sampling must cut audit traffic: {} vs {}",
            sampled.challenges,
            full.challenges
        );
        assert_eq!(sampled.unanswered_challenges, 0);
        assert_eq!(full.audits_sampled_out, 0, "full audit samples nothing out");
    }

    #[test]
    fn sampled_run_keeps_every_verdict_trusted() {
        let config = EngineConfig {
            audit_sample_size: Some(1),
            audit_coverage_window: 3,
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            engine_deployment(config, FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 8);
        assert_accuracy(&engine);
        // The rotating window plus backstop audited every pair at least once.
        for (&pair, record) in &engine.records {
            assert!(
                engine.last_audit_round.contains_key(&pair) || record.audited_seq > 0,
                "pair {pair:?} was never selected"
            );
        }
    }

    #[test]
    fn sample_covering_all_charges_degenerates_to_full_auditing() {
        let config = EngineConfig {
            audit_sample_size: Some(3), // n = 4 all-to-all: 3 charges each
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            engine_deployment(config, FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 4);
        let sampled = engine.stats();
        let (mut cluster, mut app, mut engine) =
            engine_deployment(EngineConfig::default(), FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 4);
        let full = engine.stats();
        assert_eq!(sampled.audits_sampled_out, 0);
        assert_eq!(sampled.challenges, full.challenges);
        assert_eq!(sampled.responses, full.responses);
    }

    #[test]
    fn sampled_auditing_still_exposes_a_tamperer() {
        for window in [0u64, 3] {
            let config = EngineConfig {
                audit_sample_size: Some(1),
                audit_coverage_window: window,
                ..EngineConfig::default()
            };
            let (mut cluster, mut app, mut engine) = engine_deployment(
                config,
                FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
            );
            run_rounds(&mut cluster, &mut app, &mut engine, 8);
            for w in engine.correct_witnesses_of(1) {
                assert_eq!(
                    engine.verdict_of(w, 1),
                    Verdict::Exposed,
                    "window {window}, witness {w}: the rotation reaches every pair"
                );
            }
            assert_accuracy(&engine);
        }
    }

    #[test]
    fn challenge_batch_unrolls_and_is_answered_with_one_response_batch() {
        let (mut cluster, mut app, mut engine) = counter_deployment(FaultPlan::all_correct());
        let payload = crate::workload::app_payload_sized(0);
        for i in 0..8u32 {
            let from = NodeId(i % 4);
            let to = NodeId((i + 1) % 4);
            cluster.auth_send(from, to, &payload).unwrap();
            engine.poll(&mut cluster, &mut app, to).unwrap();
        }
        let len = engine.layer.borrow().log_len(0);
        assert!(len >= 4, "node 0 accumulated log entries");
        // Witness 1 coalesced two challenges at node 0; the node answers
        // both with one batched envelope encoded from borrowed segments.
        let batch = Envelope::ChallengeBatch {
            challenges: vec![(0, len / 2), (len / 2, len)],
        };
        let mut outgoing = Vec::new();
        engine.handle_envelope(&mut app, NodeId(0), 1, batch, &mut outgoing);
        assert_eq!(outgoing.len(), 2, "one deferred segment per challenge");
        assert!(outgoing.iter().all(|(from, to, out)| *from == NodeId(0)
            && *to == NodeId(1)
            && matches!(out, Outbound::Segment { .. })));
        engine.send_outgoing(&mut cluster, outgoing).unwrap();
        assert_eq!(engine.stats().response_batches, 1);
        assert_eq!(engine.stats().batched_envelopes, 2);
        assert_eq!(engine.stats().audit_messages, 1);
        assert_eq!(cluster.stats().messages_audit, 1);
        assert_eq!(cluster.stats().messages_batched, 1, "one envelope saved");
        let delivered = cluster.poll(NodeId(1)).unwrap();
        assert_eq!(delivered.len(), 1, "both answers share one wire message");
        let Envelope::ResponseBatch { responses } =
            Envelope::decode(&delivered[0].message.payload).unwrap()
        else {
            panic!("coalesced answers travel as a response batch");
        };
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].0, 0);
        assert_eq!(responses[1].0, len / 2);
        assert_eq!(
            responses[0].1.len() as u64 + responses[1].1.len() as u64,
            len,
            "the two segments cover the challenged span"
        );
    }

    #[test]
    fn hostile_batch_envelopes_never_panic_and_convict_nobody() {
        for piggyback in [false, true] {
            let config = EngineConfig {
                piggyback,
                ..EngineConfig::default()
            };
            let (mut cluster, mut app, mut engine) =
                engine_deployment(config, FaultPlan::all_correct());
            run_rounds(&mut cluster, &mut app, &mut engine, 2);
            let hostile: Vec<Envelope> = vec![
                // Nonsense ranges: inverted, huge, and below-base claims.
                Envelope::ChallengeBatch {
                    challenges: vec![(u64::MAX, 0), (0, u64::MAX), (7, 3)],
                },
                // Forged responses nobody asked for, with stale ranges.
                Envelope::ResponseBatch {
                    responses: vec![(0, Vec::new()), (u64::MAX, Vec::new())],
                },
            ];
            // Node 3 plays the hostile sender; everyone else is a target
            // (a self-addressed answer has no session to travel on).
            for target in 0..3u32 {
                for env in &hostile {
                    let mut outgoing = Vec::new();
                    engine.handle_envelope(&mut app, NodeId(target), 3, env.clone(), &mut outgoing);
                    engine.send_outgoing(&mut cluster, outgoing).unwrap();
                }
            }
            engine.sweep_until_quiet(&mut cluster, &mut app).unwrap();
            run_rounds(&mut cluster, &mut app, &mut engine, 2);
            assert_accuracy(&engine);
        }
    }

    #[test]
    fn single_shard_matches_unsharded_witness_sets() {
        let config = EngineConfig {
            shards: 1,
            witness_count: Some(2),
            ..EngineConfig::default()
        };
        let (_c1, _a1, sharded) = sized_deployment(8, config, FaultPlan::all_correct());
        let config = EngineConfig {
            witness_count: Some(2),
            ..EngineConfig::default()
        };
        let (_c2, _a2, unsharded) = sized_deployment(8, config, FaultPlan::all_correct());
        assert_eq!(sharded.witnesses, unsharded.witnesses);
    }

    #[test]
    fn sharded_witnesses_stay_inside_their_shard() {
        let config = EngineConfig {
            shards: 2,
            witness_count: Some(2),
            ..EngineConfig::default()
        };
        let (_cluster, _app, engine) = sized_deployment(8, config, FaultPlan::all_correct());
        let ids: Vec<u32> = (0..8).collect();
        let groups = shard_members(&ids, 2, EngineConfig::default().seed);
        let shard_of = |n: u32| groups.iter().position(|g| g.contains(&n)).unwrap();
        for &(witness, node) in engine.records.keys() {
            assert_eq!(
                shard_of(witness),
                shard_of(node),
                "witness {witness} tracks {node} outside its shard"
            );
        }
        // Sharding actually shrinks the per-witness charge list.
        let max_charges = (0..8u32)
            .map(|w| engine.records.keys().filter(|(x, _)| *x == w).count())
            .max()
            .unwrap();
        assert!(
            max_charges < 7,
            "a sharded witness must track fewer than n-1 charges, got {max_charges}"
        );
    }

    #[test]
    fn sharded_engine_exposes_tamperer_and_keeps_correct_nodes_clean() {
        let config = EngineConfig {
            shards: 2,
            witness_count: Some(3),
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) = sized_deployment(
            8,
            config,
            FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
        );
        run_rounds_n(&mut cluster, &mut app, &mut engine, 8, 4);
        let witnesses = engine.correct_witnesses_of(1);
        assert!(!witnesses.is_empty(), "the tamperer has co-shard witnesses");
        for w in witnesses {
            assert_eq!(engine.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
        }
        for node in 0..8u32 {
            if node == 1 {
                continue;
            }
            for w in engine.correct_witnesses_of(node) {
                assert_eq!(
                    engine.verdict_of(w, node),
                    Verdict::Trusted,
                    "witness {w} of correct node {node}"
                );
            }
        }
    }

    // ---- round-digest batching ----------------------------------------

    #[test]
    fn round_digest_flush_appends_one_verified_entry_per_node_per_round() {
        let (mut cluster, mut app, mut engine) =
            engine_deployment(EngineConfig::default(), FaultPlan::all_correct());
        let rounds = 3;
        run_rounds(&mut cluster, &mut app, &mut engine, rounds);
        for node in 0..4u32 {
            assert_eq!(
                engine
                    .layer
                    .borrow()
                    .round_digests
                    .get(&node)
                    .map_or(0, Vec::len),
                0,
                "node {node}: the accumulator drains at round end"
            );
            let len = engine.layer.borrow().log_len(node);
            let entries = engine.layer.borrow().segment(node, 0, len);
            let audit_rounds: Vec<&LogEntry> = entries
                .iter()
                .filter(|e| e.kind == EntryKind::AuditRound)
                .collect();
            assert!(
                !audit_rounds.is_empty() && audit_rounds.len() as u64 <= rounds,
                "node {node}: at most one AuditRound entry per round, got {}",
                audit_rounds.len()
            );
            for entry in audit_rounds {
                assert!(
                    crate::log::verify_audit_round_content(&entry.content),
                    "node {node}: flushed entry self-verifies"
                );
            }
        }
    }

    /// A control envelope is hashed once per attested message: the
    /// receiver's entry and every further multicast leg reuse the sender's
    /// digest. Here node 0 multicasts its own announcement to the other
    /// three nodes every round, over a network that corrupts or duplicates
    /// packets, so rejected copies fall between a send and its delivery.
    /// Every verdict stays `Trusted`, every round digest verifies, and the
    /// digest logged for the multicast is the SHA-256 of its bytes: three
    /// times at the sender (once per leg), once at each receiver.
    #[test]
    fn round_digests_hash_each_envelope_once_under_multicast_and_a_hostile_network() {
        use tnic_net::adversary::Adversary;
        for adversary in [
            Adversary::TamperPayload { probability: 0.3 },
            Adversary::Replay { probability: 0.3 },
        ] {
            let label = format!("{adversary:?}");
            let (mut cluster, mut app, mut engine) =
                engine_deployment(EngineConfig::default(), FaultPlan::all_correct());
            cluster.set_adversary(adversary, 11);
            let group = [NodeId(1), NodeId(2), NodeId(3)];
            cluster.establish_group(NodeId(0), &group).unwrap();
            let mut multicast_digests = Vec::new();
            for _ in 0..4 {
                let (seq, head, _) = engine.layer.borrow().commitment_data(0);
                let (auth, _) = engine.layer.borrow_mut().seal(0, seq, head);
                let announce = Envelope::Announce(auth).encode();
                multicast_digests.push(tnic_crypto::sha256::sha256(&announce));
                cluster.multicast(NodeId(0), &group, &announce).unwrap();
                run_rounds(&mut cluster, &mut app, &mut engine, 1);
            }
            assert!(
                cluster.stats().messages_rejected > 0,
                "{label}: copies rejected"
            );
            assert_accuracy(&engine);
            for node in 0..4u32 {
                let len = engine.layer.borrow().log_len(node);
                let entries = engine.layer.borrow().segment(node, 0, len);
                let mut logged = Vec::new();
                for entry in entries.iter().filter(|e| e.kind == EntryKind::AuditRound) {
                    assert!(
                        crate::log::verify_audit_round_content(&entry.content),
                        "{label}: node {node}'s round digest verifies"
                    );
                    let (_, digests, _) =
                        crate::log::parse_audit_round_content(&entry.content).unwrap();
                    logged.extend(digests.chunks_exact(32).map(<[u8]>::to_vec));
                }
                let legs = if node == 0 { group.len() } else { 1 };
                for digest in &multicast_digests {
                    let copies = logged.iter().filter(|d| d[..] == digest[..]).count();
                    assert_eq!(copies, legs, "{label}: node {node}");
                }
            }
        }
    }

    #[test]
    fn round_digest_entries_survive_pruning_and_rotation() {
        let config = EngineConfig {
            piggyback: true,
            witness_count: Some(2),
            checkpoint_interval: Some(1),
            rotate_witnesses: true,
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            engine_deployment(config, FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 4);
        assert!(engine.stats().witness_rotations > 0, "rotation happened");
        assert!(
            engine.stats().pruned_log_entries > 0,
            "checkpoints actually pruned"
        );
        let composition = engine.layer.borrow().composition();
        assert!(
            composition.audit_digest_entries > 0,
            "round-digest entries survive checkpointed runs"
        );
        // Accuracy is the preservation property: a flush entry lost across
        // pruning or handover would make some witness's replay diverge.
        assert_accuracy(&engine);
    }

    /// Records the SHA-256 of every commitment and checkpoint envelope a
    /// node receives, as the envelope's receiver folds it.
    #[derive(Default)]
    struct FoldTapApp {
        inner: CounterApp,
        commitments: BTreeSet<(u32, [u8; 32])>,
        checkpoints: BTreeSet<(u32, [u8; 32])>,
    }

    impl AccountedApp for FoldTapApp {
        type Machine = CounterMachine;

        fn replay_machine(&self) -> CounterMachine {
            self.inner.replay_machine()
        }

        fn execute(&mut self, node: u32, command: &[u8]) -> Vec<u8> {
            self.inner.execute(node, command)
        }

        fn snapshot_digest(&self, node: u32) -> [u8; 32] {
            self.inner.snapshot_digest(node)
        }

        fn on_control(&mut self, node: u32, _from: u32, envelope: &Envelope) {
            let digest = tnic_crypto::sha256::sha256(&envelope.encode());
            match envelope {
                Envelope::Announce(_) | Envelope::Gossip(_) => {
                    self.commitments.insert((node, digest));
                }
                Envelope::CheckpointPropose(_)
                | Envelope::CheckpointCosign(_)
                | Envelope::CheckpointCommit { .. } => {
                    self.checkpoints.insert((node, digest));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn round_digest_with_commitment_and_checkpoint_envelopes_replays_across_prune_and_rotation() {
        // Dedicated mode sends every commitment and checkpoint envelope
        // bare, so the tap's re-encoding is the folded payload.
        let config = EngineConfig {
            witness_count: Some(2),
            checkpoint_interval: Some(1),
            rotate_witnesses: true,
            ..EngineConfig::default()
        };
        let mut cluster = Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 42);
        let mut app = FoldTapApp {
            inner: CounterApp::new(&cluster.nodes()),
            ..FoldTapApp::default()
        };
        let mut engine =
            AccountabilityEngine::attach(&mut cluster, &app, config, FaultPlan::all_correct());
        let payload = crate::workload::app_payload_sized(0);
        // Every round entry any node ever held: (node, seq) -> digests.
        let mut round_entries: BTreeMap<(u32, u64), Vec<u8>> = BTreeMap::new();
        for _ in 0..5 {
            for i in 0..8u32 {
                let to = NodeId((i + 1) % 4);
                cluster.auth_send(NodeId(i % 4), to, &payload).unwrap();
                engine.poll(&mut cluster, &mut app, to).unwrap();
            }
            engine.run_audit_round(&mut cluster, &mut app).unwrap();
            let layer = engine.layer.borrow();
            for node in 0..4u32 {
                for entry in layer.segment_ref(node, 0, layer.log_len(node)) {
                    if entry.kind == EntryKind::AuditRound {
                        let (_, digests, _) =
                            crate::log::parse_audit_round_content(&entry.content).unwrap();
                        round_entries.insert((node, entry.seq), digests.to_vec());
                    }
                }
            }
        }
        assert!(engine.stats().witness_rotations > 0, "rotation happened");
        // A round entry that folded both a received commitment and a
        // received checkpoint envelope, and that a certified checkpoint
        // has since pruned: its node's witnesses replayed it.
        let folds = |node: u32, digests: &[u8], tapped: &BTreeSet<(u32, [u8; 32])>| {
            digests
                .chunks_exact(32)
                .any(|d| tapped.contains(&(node, d.try_into().unwrap())))
        };
        let carrying: Vec<(u32, u64)> = round_entries
            .iter()
            .filter(|(&(node, _), digests)| {
                folds(node, digests, &app.commitments) && folds(node, digests, &app.checkpoints)
            })
            .map(|(&key, _)| key)
            .collect();
        assert!(
            carrying
                .iter()
                .any(|&(node, seq)| seq < engine.layer.borrow().base_seq(node)),
            "a pruned round entry carries commitment and checkpoint digests: {carrying:?}"
        );
        assert_accuracy(&engine);
    }

    #[test]
    fn witness_rotation_carries_the_sampled_audit_clock_through_handover() {
        // The coverage-window backstop keys off `last_audit_round`; an
        // incoming witness starting with no entry restarts the never-sampled
        // stagger, so a node's unaudited stretch can exceed the configured
        // window across rotations. The handover must carry the outgoing
        // set's most recent audit round into every incoming pair.
        let config = EngineConfig {
            witness_count: Some(2),
            audit_sample_size: Some(1),
            audit_coverage_window: 4,
            checkpoint_interval: Some(2),
            rotate_witnesses: true,
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            sized_deployment(6, config, FaultPlan::all_correct());
        run_rounds_n(&mut cluster, &mut app, &mut engine, 6, 4);
        assert!(engine.stats().witness_rotations > 0, "rotation happened");
        // Every sampled pair carries an audit clock — including pairs whose
        // witness joined at the last rotation and has not sampled the node
        // itself yet (those must have inherited the outgoing set's offset).
        for &(witness, node) in engine.records.keys() {
            assert!(
                engine.last_audit_round.contains_key(&(witness, node)),
                "pair ({witness}, {node}) lost its audit clock across rotation"
            );
        }
    }

    #[test]
    fn segment_straddling_a_concurrent_prune_is_answered_with_the_certificate() {
        // The deferred-response regression: `handle_challenge` vets the
        // range against the base at challenge time, but the segment is
        // encoded later — if a checkpoint commit pruned the log in between,
        // `SecureLog::segment` used to silently clamp and the node answered
        // with entries starting at the wrong sequence.
        let config = EngineConfig {
            checkpoint_interval: Some(1),
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            engine_deployment(config, FaultPlan::all_correct());
        run_rounds(&mut cluster, &mut app, &mut engine, 2);
        let base = engine.layer.borrow().base_seq(1);
        assert!(base > 0, "node 1 actually pruned");
        let before = engine.stats().certificate_responses;
        // A deferred segment whose range now straddles the pruned base.
        engine
            .send_segments(&mut cluster, NodeId(1), NodeId(0), &[(0, base + 1)])
            .unwrap();
        assert_eq!(
            engine.stats().certificate_responses,
            before + 1,
            "the straddled range is answered with the certificate"
        );
        engine.poll(&mut cluster, &mut app, NodeId(0)).unwrap();
        engine.finish_round();
        assert_eq!(
            engine.verdict_of(0, 1),
            Verdict::Trusted,
            "no silently re-based segment ever reaches the witness"
        );
    }
}
