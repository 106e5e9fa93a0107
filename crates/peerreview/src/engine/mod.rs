//! The application-agnostic accountability engine.
//!
//! This module is the reusable middleware half of the PeerReview split: the
//! commitment protocol (the crate-private `CommitmentLayer`), the witness
//! audit machinery
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
//! The engine attaches a `CommitmentLayer` to the cluster (every
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
//! `i+1, …, i+w (mod n)`. One function assigns every set,
//! [`sharded_witness_set`](crate::checkpoint::sharded_witness_set), over
//! the node's shard group — the whole membership `0..n` when unsharded,
//! so one shard is not a special case. The rotation keeps assignments
//! balanced (every node witnesses exactly `w` others) and the exposure
//! guarantees hold as long as at least one correct witness audits each
//! node — witness gossip and evidence transfer then propagate verdicts to
//! the rest of the set. Epoch rotation re-derives the sets with the same
//! function at a later epoch.
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
//! hook splices up to
//! [`MAX_PIGGYBACK_RIDERS`](crate::wire::MAX_PIGGYBACK_RIDERS) pending
//! authenticators onto the next outbound envelope
//! ([`Envelope::Piggyback`]). Witnesses relay
//! directly received commitments to fellow witnesses the same way (on their
//! own application sends and audit replies). Pending items that found no
//! ride by the end of the workload are flushed in dedicated messages —
//! repeatedly, until no relay is left — before challenges are
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
//! [`EntryKind::Checkpoint`](crate::log::EntryKind::Checkpoint) entry in
//! its own log; **cosign** — witnesses return sealed [`Cosignature`]s for
//! exactly the prefixes they have audited and replayed themselves;
//! **prune** — a quorum certificate lets the node garbage-collect the
//! covered prefix and its witnesses drop the covered commitments, making
//! audits, replays and evidence checkpoint-relative; **rotate** — with
//! [`EngineConfig::rotate_witnesses`], the epoch advance re-derives every
//! witness set so no slow or Byzantine witness shadows the same auditee
//! forever, with the cosigned checkpoint handing incoming witnesses a
//! verified starting state.
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
//!   drawn from the engine's `DetRng` — is installed on the joiner's
//!   sealing device, every member now holds it (and the joiner every
//!   existing key; see *Layout* for how keys are held), witness sets
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
//!   not challenged, and only a challenge in flight can time out into
//!   suspicion — while exposure of a tamperer is delayed by at most the
//!   coverage bound (the measured detection-latency/overhead frontier
//!   lives in `tnic-bench`'s sweep report).
//! * **Witness sharding** ([`EngineConfig::shards`]): consistent hashing
//!   (see [`crate::checkpoint::shard_members`]) partitions the membership
//!   into groups that witness each other exclusively, so each witness
//!   tracks O(n/shards) charges instead of O(n); composes with epoch
//!   rotation, which re-derives witness sets *within* each shard.
//!
//! Four more things keep the engine's own cost off the quadratic path, and
//! are simply how it works:
//!
//! * **One response per challenge**: a challenge is one
//!   [`Envelope::Challenge`] and its answer one [`Envelope::Response`], as
//!   in PeerReview itself; a round challenges each (witness, auditee) pair
//!   at most once, so there is nothing to coalesce. The response is
//!   encoded straight from the borrowed log segment into a reused scratch
//!   buffer (no per-response allocation).
//! * **Zero-copy audit plane**: each dispatch drains a node's inbox into
//!   one reused buffer ([`Cluster::poll_into`]) and parses every delivery
//!   in place (`EnvelopeView`): the handlers read commands, seals and
//!   log entries out of the delivered bytes, a witness replays a response
//!   or a farewell tail without copying an entry, and a verified
//!   commitment is copied once, into the record that keeps it. Relays
//!   queue without their payload, and every control message is encoded
//!   into one reused wire buffer.
//! * **Active-set dispatch**: settling a round drains inboxes by walking
//!   the cluster's active set — the nodes with queued deliveries, in id
//!   order ([`Cluster::nodes_with_pending`], a bitmap of n / 64 words) —
//!   instead of visiting all n endpoints per pass, and
//!   [`crate::system::PeerReview`] builds its
//!   cluster with lazy pairwise sessions ([`Cluster::sparse`]), so a link
//!   costs a key exchange only once something is sent over it.
//! * **Round digests**: an envelope that carries no application command —
//!   audit traffic (challenges and responses),
//!   announcements, gossip, evidence, checkpoint and membership traffic —
//!   is not logged one control digest per envelope. Its SHA-256 goes into
//!   a per-node accumulator that is folded into one
//!   [`EntryKind::AuditRound`](crate::log::EntryKind::AuditRound) entry,
//!   the node's round digest, per audit round, after the round's audit traffic has quiesced: a Pregel-style
//!   combiner per (node, round). That breaks the audit-log inflation
//!   feedback — protocol traffic no longer grows the logs whose replay the
//!   next audit pays for — without weakening tamper-evidence after
//!   sealing (see [`crate::log::audit_round_content`]). An envelope that
//!   carries an application command is always logged in full, because
//!   witnesses must replay the command. What the fold does not give is a
//!   check that the logged digests are true: a witness checks an
//!   `AuditRound` entry only for self-consistency and its place in the
//!   sealed chain, never its per-envelope digests against the envelopes
//!   the node sent or received, so a node that logs wrong control-traffic
//!   digests *before* sealing stays [`Verdict::Trusted`].
//!
//! # Layout
//!
//! One file per role, all over the one engine struct: `commitment` (the
//! per-node logs, round digests and ride queue), `audit_round` (commit,
//! flush, challenge, sweep and the send path), `pair` (the one
//! owner of a (witness, auditee) pair's lifecycle: `AuditPair::step`
//! takes a `PairEvent` — picked for an audit, auditee down, round end,
//! answered, farewell, fast-forward, handed back or kept — and returns a
//! `PairAction` — challenge, re-send, suspect, replay or nothing; the
//! other files do the sending, stats and trace events and reach a pair's
//! challenge state through `step` alone), `witness` (the
//! handlers a witness runs on commitments, challenges, responses,
//! evidence and membership envelopes), `checkpoint_round` (propose,
//! cosign, commit and the witness handover), `membership` (join, depart,
//! crash, recover and witness-set reassignment) and `byzantine`, the one
//! place that looks up a node's fault in the [`FaultPlan`]: each question
//! a fault can change the answer to is a method there.
//!
//! The engine keeps its state in two tables indexed by node id, each entry
//! holding everything about one key. A `Member` per node, in a `Vec` (ids
//! are contiguous, `0..n`, which `attach` and `join_node` assert), holds the
//! node's membership phase, witness set, verification kernel, the sorted
//! ids of the nodes whose log-session keys its device holds, its shadow
//! replay machine and application inbox, and its checkpoint state: the
//! committed boundary, the proposal collecting cosignatures and the latest
//! commit certificate. An `AuditPair` per (witness, auditee) holds the
//! witness's [`WitnessRecord`], the round sampled auditing last selected
//! the pair, and the challenge in flight with its retry and backoff state.
//! The pairs live in a `PairTable`, indexed by witness id: per witness, its
//! auditee ids ascending and their pairs beside them, so a lookup
//! binary-searches a few ids and a round visits the pairs in (witness,
//! auditee) order. `attach` builds the table in one pass, each witness's
//! row at its exact size. Dropping a pair at reassignment drops all of its
//! state.
//!
//! The `CommitmentLayer` indexes its tables by node id the same way: one
//! log and sealer per node, one round-digest accumulator per node (cleared
//! at each flush, keeping its capacity), and per sender one ride buffer
//! sorted by receiver, each ride a commitment without its payload, so the
//! rides drain in (sender, receiver) order.
//! The cluster's endpoints, with each node's pairwise sessions sorted by
//! peer, and its active set are indexed by node id as well.
//!
//! Log-session keys are held once: the engine prepares each node's key
//! when the node is attached or joins, in one list indexed by node id, and
//! installs it on no verification kernel. Which keys a member may use is
//! the member's held list — its shard group at `attach`, every member
//! after a `join_node`, and any charge a reassignment hands it. A seal
//! check first looks the seal's log session up in the verifier's held
//! list, then MACs it on the verifier's own kernel under the engine's
//! copy of the key, so cost, host-baseline draws and kernel statistics are
//! the verifier's; a seal on a session it does not hold draws nothing. So
//! key material grows with n, not with the sum of squared shard sizes: at
//! n = 1000 with 8 shards, 1 000 prepared keys and 130 070 held ids of 4 B.

mod audit_round;
mod byzantine;
mod checkpoint_round;
mod commitment;
mod membership;
mod pair;
#[cfg(test)]
mod tests;
mod witness;

use crate::audit::{Misbehavior, TraceCtx, Verdict, WitnessRecord};
use crate::checkpoint::shard_members;
use crate::checkpoint::{CheckpointMark, Cosignature};
use crate::log::{log_session, Authenticator};
use crate::stats::AccountabilityStats;
use crate::wire::Envelope;
use checkpoint_round::PendingCheckpoint;
use commitment::CommitmentLayer;
use membership::{witness_sets, witness_width};
use pair::{AuditPair, PairAction, PairEvent, PairTable};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use tnic_core::accountability::AccountabilityLayer;
use tnic_core::api::{Cluster, Delivered, NodeId};
use tnic_core::error::CoreError;
use tnic_core::provider::Provider;
use tnic_core::transform::{CounterMachine, StateMachine};
use tnic_crypto::hmac::HmacSha256Key;
use tnic_net::adversary::FaultPlan;
use tnic_sim::clock::SimClock;
use tnic_sim::rng::DetRng;
use tnic_sim::time::{SimDuration, SimInstant};
use tnic_tee::profile::Baseline;

/// An application whose execution the engine holds accountable.
///
/// The engine observes the application's cluster traffic through its
/// commitment layer; this trait supplies the pieces only the application
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
/// workload, and the simplest possible [`AccountedApp`]. One counter per
/// node, indexed by node id.
#[derive(Debug, Default)]
pub struct CounterApp {
    machines: Vec<CounterMachine>,
}

impl CounterApp {
    /// A counter per node id in `nodes`.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` are the contiguous ids `0..n`, in order.
    #[must_use]
    pub fn new(nodes: &[NodeId]) -> Self {
        assert!(
            (0..).zip(nodes).all(|(i, node)| node.0 == i),
            "node ids must be contiguous from 0"
        );
        CounterApp {
            machines: nodes.iter().map(|_| CounterMachine::new()).collect(),
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
            .get_mut(node as usize)
            .expect("node registered")
            .execute(command)
    }

    fn snapshot_digest(&self, node: u32) -> [u8; 32] {
        self.machines
            .get(node as usize)
            .map_or([0u8; 32], CounterMachine::state_digest)
    }

    /// Adds the joiner's counter; ids join in order (see
    /// [`AccountabilityEngine::join_node`]).
    fn on_join(&mut self, node: u32) {
        assert_eq!(node as usize, self.machines.len(), "ids join in order");
        self.machines.push(CounterMachine::new());
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
    ///
    /// The schedule: a challenge first sent in audit round `r` times out at
    /// the end of round `r`; the gap to the next re-send starts at one
    /// round and doubles after every re-send, capped at 2^16 rounds. So with
    /// `k` retries the re-sends go out in rounds `r + 1`, `r + 3`, `r + 7`,
    /// …, `r + 2^k − 1` (while the auditee is up to be sent to), and the
    /// auditee is suspected at the end of round `r + 2^k − 1` (for
    /// `k ≤ 17`; past that each further gap is 2^16 rounds). An answer, a
    /// covering farewell or a certified fast-forward before then ends the
    /// challenge.
    pub challenge_retries: u32,
    /// **Sampled auditing** (scaling knob): how many of its charges each
    /// witness audits per round (`None` = all of them, the classic
    /// behaviour; full audit is exactly the `sample_size ≥ charges` special
    /// case). The sample is a seeded rotating window over a per-witness
    /// shuffle, so consecutive rounds cover disjoint charges and every
    /// charge is audited within `⌈charges / sample_size⌉` rounds even
    /// before the [`EngineConfig::audit_coverage_window`] backstop kicks
    /// in. Unsampled pairs are *never* suspected — only a pair with a
    /// challenge in flight can time out — so sampling trades detection
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
    /// (one group: the whole membership). Composes with epoch
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
/// state machine). A member starts [`MemberPhase::Active`].
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

/// Everything the engine keeps about one member, at index `node` of
/// [`AccountabilityEngine`]'s member list.
struct Member<M> {
    /// Where the node stands in the membership lifecycle.
    phase: MemberPhase,
    /// The node's witness ids (every other node by default).
    witnesses: Vec<u32>,
    /// The node's witness-side verification provider: seals the node
    /// checks as a witness are MACed and charged here, under a key the
    /// engine passes in. It holds no log-session key itself.
    kernel: Provider,
    /// The nodes whose log-session keys the node's device holds, sorted:
    /// its shard group at attach, every member after a join, and every
    /// charge it is handed. A seal on any other log session is refused
    /// before any cost is drawn.
    held: Vec<u32>,
    /// The engine's own replay of the node's *logged* command stream. Its
    /// digest is what a checkpoint certifies: exactly the state a witness's
    /// reference machine reaches by replaying the log (live application
    /// state can additionally contain non-logged client-ingress executions,
    /// e.g. at a chain or A2M head, which are outside the audited log and
    /// therefore outside the checkpoint).
    shadow: M,
    /// Application messages unwrapped during dispatch, until the driver
    /// collects them through [`AccountabilityEngine::poll`].
    inbox: Vec<AppDelivery>,
    /// `(seq, state digest)` captured when the round's commitment was
    /// sealed — the boundary a checkpoint proposal covers.
    commit_snapshot: Option<(u64, [u8; 32])>,
    /// The checkpoint proposal collecting cosignatures.
    pending_checkpoint: Option<PendingCheckpoint>,
    /// The latest commit certificate (mark + cosignature quorum): the
    /// verifiable log root, also kept so a challenge below the pruned base
    /// can be answered with the certificate itself instead of an
    /// uncoverable log segment.
    certificate: Option<(CheckpointMark, Vec<Cosignature>)>,
}

impl<M> Member<M> {
    /// An active member with no witnesses yet, holding the log-session
    /// keys of `held`.
    fn new(kernel: Provider, held: Vec<u32>, shadow: M) -> Self {
        Member {
            phase: MemberPhase::Active,
            witnesses: Vec::new(),
            kernel,
            held,
            shadow,
            inbox: Vec::new(),
            commit_snapshot: None,
            pending_checkpoint: None,
            certificate: None,
        }
    }
}

/// The accountability engine: witness protocol + commitment layer over one
/// application's cluster. See the module docs for the protocol and for how
/// to attach the engine to a new application.
pub struct AccountabilityEngine<A: AccountedApp> {
    config: EngineConfig,
    clock: SimClock,
    layer: Rc<RefCell<CommitmentLayer>>,
    faults: FaultPlan,
    /// Effective witnesses per node (the clamped `witness_count`).
    witness_width: u32,
    /// Per member, indexed by node id (ids are contiguous, `0..n`).
    members: Vec<Member<A::Machine>>,
    /// Each node's log-session key, prepared once, indexed by node id: the
    /// one copy every witness's seal check reads (see `Member::held`).
    log_keys: Vec<HmacSha256Key>,
    /// Per (witness, auditee) pair, indexed by witness id.
    pairs: PairTable<A::Machine>,
    tamper_applied: BTreeSet<u32>,
    truncation_applied: BTreeSet<u32>,
    /// (forger, auditee) pairs a `ForgeEvidence` witness already accused —
    /// one fabricated accusation per pair bounds the forged traffic.
    evidence_forged: BTreeSet<(u32, u32)>,
    rng: DetRng,
    stats: AccountabilityStats,
    /// Completed checkpoint epochs (also the witness-rotation boundary).
    epoch: u64,
    /// Audit rounds completed (drives the checkpoint interval).
    audit_rounds_done: u64,
    /// Reused wire-encode buffer: every control message the engine sends
    /// is encoded into it (at n = 1000 one `Vec` per message per round
    /// otherwise).
    wire_scratch: Vec<u8>,
    /// Reused buffer each dispatch drains a node's inbox into
    /// ([`Cluster::poll_into`]); the envelopes are parsed in place from it.
    delivered_scratch: Vec<Delivered>,
    /// Reused buffer for the active set each `sweep_until_quiet` pass
    /// reads from [`Cluster::nodes_with_pending`].
    pending_scratch: Vec<NodeId>,
    /// Reused buffer that sampled auditing shuffles each witness's charge
    /// positions in.
    sample_order: Vec<u32>,
}

impl<A: AccountedApp> std::fmt::Debug for AccountabilityEngine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccountabilityEngine")
            .field("config", &self.config)
            .field("faults", &self.faults)
            .field("nodes", &self.members.len())
            .finish()
    }
}

impl<A: AccountedApp> AccountabilityEngine<A> {
    /// Builds the engine over `cluster` and attaches its commitment layer:
    /// from here on every attested send and verified delivery lands in a
    /// tamper-evident log. Witness sets are assigned by deterministic
    /// rotation: node `i` is audited by `i+1, …, i+w (mod n)` where `w` is
    /// [`EngineConfig::witness_count`] (all other nodes by default).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster's node ids are contiguous, `0..n`.
    pub fn attach(cluster: &mut Cluster, app: &A, config: EngineConfig, faults: FaultPlan) -> Self {
        let clock = cluster.clock();
        let nodes: Vec<NodeId> = cluster.nodes();
        assert!(
            (0..).zip(&nodes).all(|(i, node)| node.0 == i),
            "node ids must be contiguous from 0"
        );
        let mut rng = DetRng::new(config.seed ^ 0x005e_edac_0123);

        // Log-session keys: drawn from the engine's `DetRng`, installed
        // directly on each node's sealing device and held once, prepared,
        // for every witness's seal checks.
        let mut layer = CommitmentLayer::default();
        let log_keys: Vec<HmacSha256Key> = nodes
            .iter()
            .map(|node| {
                let key = rng.bytes32();
                layer.register_node(node.0, config.baseline, key);
                HmacSha256Key::new(&key)
            })
            .collect();
        let mut members: Vec<Member<A::Machine>> = nodes
            .iter()
            .map(|node| {
                let kernel = Provider::new(config.baseline, node.device(), config.seed);
                Member::new(kernel, Vec::new(), app.replay_machine())
            })
            .collect();
        // Key distribution: witnesses are drawn within a shard group, so
        // each member holds its group co-members' keys. A member records
        // which keys it holds; the keys themselves are not copied.
        let ids: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        let groups = shard_members(&ids, config.shards, config.seed);
        for group in &groups {
            for &member in group {
                members[member as usize].held.clone_from(group);
            }
        }

        let w = witness_width(config.witness_count, nodes.len());
        let sets = witness_sets(&groups, w, 0);
        let pairs = PairTable::from_witness_sets(&sets, || {
            AuditPair::new(WitnessRecord::new(app.replay_machine()))
        });
        for (member, set) in members.iter_mut().zip(sets) {
            member.witnesses = set;
        }

        let layer = Rc::new(RefCell::new(layer));
        cluster.attach_accountability(layer.clone() as Rc<RefCell<dyn AccountabilityLayer>>);

        AccountabilityEngine {
            config,
            clock,
            layer,
            faults,
            witness_width: w,
            members,
            log_keys,
            pairs,
            tamper_applied: BTreeSet::new(),
            truncation_applied: BTreeSet::new(),
            evidence_forged: BTreeSet::new(),
            rng,
            stats: AccountabilityStats::new(),
            epoch: 0,
            audit_rounds_done: 0,
            wire_scratch: Vec::new(),
            delivered_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            sample_order: Vec::new(),
        }
    }

    /// The member ids, `0..n`.
    fn ids(&self) -> std::ops::Range<u32> {
        0..self.members.len() as u32
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

    /// The trace context of the pair `(witness, node)` at the current
    /// virtual time and audit round.
    fn trace_ctx(&self, witness: u32, node: u32) -> TraceCtx {
        TraceCtx {
            witness,
            node,
            at_us: self.clock.now().as_micros(),
            round: self.audit_rounds_done,
        }
    }

    /// The witness ids assigned to `node`.
    #[must_use]
    pub fn witnesses_of(&self, node: u32) -> &[u32] {
        self.members
            .get(node as usize)
            .map_or(&[], |m| m.witnesses.as_slice())
    }

    /// `witness`'s verdict on `node`.
    #[must_use]
    pub fn verdict_of(&self, witness: u32, node: u32) -> Verdict {
        self.pairs
            .get(witness, node)
            .map_or(Verdict::Trusted, |p| p.record.verdict)
    }

    /// The evidence `witness` holds against `node`.
    #[must_use]
    pub fn evidence_of(&self, witness: u32, node: u32) -> &[Misbehavior] {
        self.pairs
            .get(witness, node)
            .map_or(&[], |p| p.record.evidence.as_slice())
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
            .pairs
            .iter()
            .map(|(_, _, p)| p.record.commitments.len() as u64)
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
        Ok(self
            .members
            .get_mut(node.0 as usize)
            .map(|m| std::mem::take(&mut m.inbox))
            .unwrap_or_default())
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
        for node in self.ids() {
            if self.members[node as usize].phase == MemberPhase::Recovering {
                self.set_phase(node, MemberPhase::Active);
            }
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
        self.members
            .get(node as usize)
            .and_then(|m| m.certificate.as_ref())
            .map_or(0, |(mark, _)| mark.cut)
    }

    /// Where `node` stands in the membership lifecycle.
    #[must_use]
    pub fn member_phase(&self, node: u32) -> MemberPhase {
        self.members
            .get(node as usize)
            .map_or(MemberPhase::Active, |m| m.phase)
    }
}
