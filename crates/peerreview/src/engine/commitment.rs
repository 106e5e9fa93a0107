//! The commitment layer: one tamper-evident log per node, fed by the
//! cluster's send/deliver hooks, plus the round-digest fold and the
//! piggyback ride queue.

use crate::log::{
    authenticator_payload, log_session, Authenticator, CompactAuthenticator, EntryKind, LogEntry,
    SecureLog,
};
use crate::wire::{Envelope, PiggybackRider, MAX_PIGGYBACK_RIDERS};
use std::ops::Range;
use tnic_core::accountability::AccountabilityLayer;
use tnic_core::api::{Delivered, NodeId};
use tnic_core::provider::Provider;
use tnic_device::attestation::AttestedMessage;
use tnic_device::types::DeviceId;
use tnic_sim::time::{SimDuration, SimInstant};
use tnic_tee::profile::Baseline;

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

/// The commitment protocol: an [`AccountabilityLayer`] maintaining one
/// tamper-evident [`SecureLog`] per node, fed by the cluster's send/deliver
/// hooks, plus the node-local operations (execution logging, commitment
/// sealing, audit-segment extraction and the Byzantine host operations used
/// by fault injection). In piggyback mode it additionally queues pending
/// authenticators per `(sender, receiver)` pair and splices batches of up
/// to [`MAX_PIGGYBACK_RIDERS`] onto outbound envelopes through
/// [`AccountabilityLayer::wrap_outbound`] /
/// [`AccountabilityLayer::wrap_multicast`].
///
/// Every per-node table is indexed by node id: nodes register in id order,
/// `0..n`.
#[derive(Debug, Default)]
pub(super) struct CommitmentLayer {
    states: Vec<NodeState>,
    /// Commitments waiting for a ride, per sender: `(receiver, ride)`
    /// sorted by receiver, each receiver's rides in queue order. A ride
    /// holds its commitment without the payload, so queueing a relay copies
    /// fields, never a payload, and a sender's buffer keeps its capacity
    /// when drained.
    pending: Vec<Vec<(u32, PiggybackRider)>>,
    /// Reused buffer the wrap hooks pop riders into.
    riders: Vec<PiggybackRider>,
    /// Commitments that found a ride on outbound traffic.
    piggybacked: u64,
    /// Round digests: per-node SHA-256 digests of the envelopes without an
    /// application command sent/received since the last flush, in local
    /// order. Flushed into one [`EntryKind::AuditRound`] entry per node per
    /// audit round by [`CommitmentLayer::flush_round_digests`], which keeps
    /// each accumulator's capacity for the next round. Lives outside the
    /// logs, so checkpoint pruning and witness rotation never disturb it.
    pub(super) round_digests: Vec<Vec<[u8; 32]>>,
    /// `(mac, digest)` of the last control envelope hashed into a round
    /// digest. The sender's `on_sent`, the receiver's `on_delivered` and
    /// every further multicast leg log the same attested message back to
    /// back, so only the first of them hashes it.
    last_digest: Option<([u8; 32], [u8; 32])>,
}

impl CommitmentLayer {
    /// Registers `node`, the next unused id, with its log-session key;
    /// commitments are sealed by an attestation provider of the given
    /// `baseline`.
    pub(super) fn register_node(&mut self, node: u32, baseline: Baseline, key: [u8; 32]) {
        assert_eq!(
            node as usize,
            self.states.len(),
            "nodes register in id order"
        );
        let mut sealer = Provider::new(baseline, DeviceId(node), u64::from(node) + 1);
        sealer.install_session_key(log_session(node), key);
        self.states.push(NodeState {
            log: SecureLog::new(),
            sealer,
        });
        self.round_digests.push(Vec::new());
        self.pending.push(Vec::new());
    }

    fn state_mut(&mut self, node: u32) -> &mut NodeState {
        &mut self.states[node as usize]
    }

    fn state(&self, node: u32) -> &NodeState {
        &self.states[node as usize]
    }

    /// Appends the claimed output of an application execution to `node`'s
    /// log as an `Exec` entry — the record witnesses replay against the
    /// reference machine.
    pub(super) fn record_exec(&mut self, node: u32, output: Vec<u8>, at_us: u64) {
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

    /// `(seq, head)` of `node`'s log — the data a commitment covers.
    #[must_use]
    pub(super) fn commitment_data(&self, node: u32) -> (u64, [u8; 32]) {
        let log = &self.state(node).log;
        (log.len(), log.head())
    }

    /// The head an equivocating `node` commits to towards part of its
    /// witness set (see [`crate::log::SecureLog::forked_head`]).
    #[must_use]
    pub(super) fn forked_head(&self, node: u32) -> [u8; 32] {
        self.state(node).log.forked_head()
    }

    /// Seals an arbitrary payload on `node`'s TNIC log session (commitments,
    /// checkpoint marks, cosignatures); returns the attestation and the
    /// virtual time the in-fabric attestation took.
    pub(super) fn seal_payload(
        &mut self,
        node: u32,
        payload: &[u8],
    ) -> (AttestedMessage, SimDuration) {
        self.state_mut(node)
            .sealer
            .attest(log_session(node), payload)
            .expect("log session installed")
    }

    /// Seals a commitment on `node`'s TNIC; returns the authenticator and
    /// the virtual time the in-fabric attestation took.
    pub(super) fn seal(
        &mut self,
        node: u32,
        seq: u64,
        head: [u8; 32],
    ) -> (Authenticator, SimDuration) {
        let payload = authenticator_payload(node, seq, &head);
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
    pub(super) fn record_checkpoint(&mut self, node: u32, mark_payload: Vec<u8>, at_us: u64) {
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
    pub(super) fn prune_to(&mut self, node: u32, upto_seq: u64) -> u64 {
        self.state_mut(node).log.prune_to(upto_seq)
    }

    /// Absolute sequence number of the first retained entry of `node`'s log.
    #[must_use]
    pub(super) fn base_seq(&self, node: u32) -> u64 {
        self.state(node).log.base_seq()
    }

    /// The head `node`'s log had after `seq` entries, or `None` when pruned
    /// or out of range.
    #[must_use]
    pub(super) fn head_at(&self, node: u32, seq: u64) -> Option<[u8; 32]> {
        self.state(node).log.head_at(seq)
    }

    /// Entries currently held in memory across all logs (the bounded-memory
    /// metric; [`CommitmentLayer::total_entries`] counts everything ever
    /// appended).
    #[must_use]
    pub(super) fn retained_entries(&self) -> u64 {
        self.states.iter().map(|s| s.log.retained_len()).sum()
    }

    /// Approximate bytes held by retained log entries across all logs.
    #[must_use]
    pub(super) fn retained_bytes(&self) -> u64 {
        self.states.iter().map(|s| s.log.retained_bytes()).sum()
    }

    /// Borrowed view of the entries `from_seq..upto_seq` of `node`'s log.
    /// The audit send path encodes responses straight from this slice into
    /// a reused wire buffer; callers that need ownership clone it.
    #[must_use]
    pub(super) fn segment_ref(&self, node: u32, from_seq: u64, upto_seq: u64) -> &[LogEntry] {
        self.state(node).log.segment(from_seq, upto_seq)
    }

    /// Like [`Self::segment_ref`], but surfaces a `from_seq` below the
    /// pruned base as `Err(base_seq)` instead of silently clamping — the
    /// audit send path uses this to detect a challenge range straddling a
    /// concurrent prune (see [`crate::log::SecureLog::segment_checked`]).
    pub(super) fn segment_checked(
        &self,
        node: u32,
        from_seq: u64,
        upto_seq: u64,
    ) -> Result<&[LogEntry], u64> {
        self.state(node).log.segment_checked(from_seq, upto_seq)
    }

    /// Current log length of `node`.
    #[must_use]
    pub(super) fn log_len(&self, node: u32) -> u64 {
        self.state(node).log.len()
    }

    /// Total entries across all logs (commitment-protocol volume).
    #[must_use]
    pub(super) fn total_entries(&self) -> u64 {
        self.states.iter().map(|s| s.log.len()).sum()
    }

    /// Per-class log composition summed across all logs — what the entries
    /// ever appended actually hold (app payloads vs checkpoint marks vs
    /// round digests); see [`crate::log::LogComposition`].
    #[must_use]
    pub(super) fn composition(&self) -> crate::log::LogComposition {
        let mut total = crate::log::LogComposition::default();
        for state in &self.states {
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
            self.round_digests[node as usize].push(digest);
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
    /// configuration pays only for the nodes actually involved. Each
    /// accumulator is cleared in place, keeping its capacity.
    pub(super) fn flush_round_digests(&mut self, round: u64, at_us: u64) {
        for node in 0..self.round_digests.len() {
            let digests = &mut self.round_digests[node];
            if digests.is_empty() {
                continue;
            }
            let content = crate::log::audit_round_content(round, digests);
            digests.clear();
            self.append_traced(
                node as u32,
                tnic_obs::NONE,
                EntryKind::AuditRound,
                content,
                at_us,
            );
        }
    }

    /// Queues `auth` for a piggyback ride on the next outbound message
    /// `from → to`. Commitments are cumulative, so a newer commitment by the
    /// same origin supersedes a queued older one for the same pair — unless
    /// the heads conflict at the same sequence number, in which case both
    /// are kept (the pair *is* the evidence an equivocator produces).
    pub(super) fn enqueue_ride(
        &mut self,
        from: u32,
        to: u32,
        auth: CompactAuthenticator,
        gossip: bool,
    ) {
        let rides = &mut self.pending[from as usize];
        let queue = queue_of(rides, to);
        if rides[queue.clone()].iter().any(|(_, p)| {
            p.auth.node == auth.node && p.auth.seq == auth.seq && p.auth.head == auth.head
        }) {
            return; // identical content already waiting
        }
        // Drop the superseded rides, keeping the others in queue order.
        let mut kept = queue.start;
        for i in queue.clone() {
            let queued = rides[i].1.auth;
            if queued.node != auth.node || queued.seq >= auth.seq {
                rides.swap(kept, i);
                kept += 1;
            }
        }
        rides.drain(kept..queue.end);
        rides.insert(kept, (to, PiggybackRider { auth, gossip }));
    }

    /// Moves up to `limit` queued commitments for the directed pair, in
    /// queue order, to the end of `into`. Entries beyond the limit stay
    /// queued (they ride later traffic or the end-of-round dedicated
    /// flush).
    fn pop_riders(&mut self, from: u32, to: u32, limit: usize, into: &mut Vec<PiggybackRider>) {
        let rides = &mut self.pending[from as usize];
        let queue = queue_of(rides, to);
        let end = queue.start + queue.len().min(limit);
        into.extend(rides.drain(queue.start..end).map(|(_, ride)| ride));
    }

    /// Drains every queued commitment (the end-of-workload dedicated flush):
    /// `((from, to), ride)` pairs in `(from, to)` order.
    pub(super) fn drain_pending(&mut self) -> Vec<((u32, u32), PiggybackRider)> {
        let mut out = Vec::new();
        for (from, rides) in (0..).zip(&mut self.pending) {
            out.extend(rides.drain(..).map(|(to, ride)| ((from, to), ride)));
        }
        out
    }

    /// The rides `from` and `to` wrap onto `payload`, or `None` when none
    /// is queued: up to [`MAX_PIGGYBACK_RIDERS`] popped from the queues of
    /// `receivers`, in order.
    fn wrap(&mut self, from: u32, receivers: &[NodeId], payload: &[u8]) -> Option<Vec<u8>> {
        // Only protocol envelopes can carry a ride, and rides never nest.
        if !Envelope::is_envelope(payload) || Envelope::is_piggyback(payload) {
            return None;
        }
        let mut riders = std::mem::take(&mut self.riders);
        riders.clear();
        for &to in receivers {
            let budget = MAX_PIGGYBACK_RIDERS - riders.len();
            if budget == 0 {
                break;
            }
            self.pop_riders(from, to.0, budget, &mut riders);
        }
        let wrapped = (!riders.is_empty()).then(|| {
            self.piggybacked += riders.len() as u64;
            Envelope::piggyback_raw(&riders, payload)
        });
        self.riders = riders;
        wrapped
    }

    /// Number of commitments still waiting for a ride.
    #[must_use]
    pub(super) fn pending_rides(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Number of commitments that found a ride on outbound traffic.
    #[must_use]
    pub(super) fn piggybacked(&self) -> u64 {
        self.piggybacked
    }

    /// **Fault injection**: truncates the tail of `node`'s log.
    pub(super) fn truncate_tail(&mut self, node: u32, n: u64) {
        self.state_mut(node).log.truncate_tail(n);
    }

    /// **Fault injection**: rewrites the first `Exec` entry at or after
    /// `seq` (re-chaining the hashes) so the node's logged output diverges
    /// from the deterministic specification. Returns `false` when no such
    /// entry exists yet.
    pub(super) fn tamper_exec_at_or_after(&mut self, node: u32, seq: u64) -> bool {
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

/// The positions of `to`'s rides in a sender's ride buffer.
fn queue_of(rides: &[(u32, PiggybackRider)], to: u32) -> Range<usize> {
    rides.partition_point(|&(receiver, _)| receiver < to)
        ..rides.partition_point(|&(receiver, _)| receiver <= to)
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
        self.wrap(from.0, &[to], payload)
    }

    /// One batch serves every receiver: pending rides addressed to any of
    /// them (the identical wrapped bytes reach all, and witnesses ignore
    /// commitments for nodes they do not audit — extra copies only speed
    /// up propagation).
    fn wrap_multicast(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        self.wrap(from.0, receivers, payload)
    }

    fn label(&self) -> &'static str {
        "accountability-engine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layer of `n` registered nodes.
    fn layer(n: u32) -> CommitmentLayer {
        let mut layer = CommitmentLayer::default();
        for node in 0..n {
            layer.register_node(node, Baseline::Tnic, [node as u8 + 1; 32]);
        }
        layer
    }

    /// A commitment sealed by `node` at `seq`. Each test below seals every
    /// commitment by a different node, so none supersedes another.
    fn auth(layer: &mut CommitmentLayer, node: u32, seq: u64) -> CompactAuthenticator {
        layer.seal(node, seq, [seq as u8; 32]).0.compact()
    }

    #[test]
    fn ride_queues_drain_in_sender_receiver_order_whatever_the_enqueue_order() {
        let mut layer = layer(6);
        let rides = [
            (2, 3, 1),
            (0, 3, 2),
            (2, 0, 3),
            (0, 1, 4),
            (0, 3, 5),
            (1, 2, 6),
        ];
        for (origin, (from, to, seq)) in (0..).zip(rides) {
            let auth = auth(&mut layer, origin, seq);
            layer.enqueue_ride(from, to, auth, false);
        }
        assert_eq!(layer.pending_rides(), 6);
        let drained: Vec<((u32, u32), u64)> = layer
            .drain_pending()
            .into_iter()
            .map(|(pair, ride)| (pair, ride.auth.seq))
            .collect();
        assert_eq!(
            drained,
            [
                ((0, 1), 4),
                ((0, 3), 2),
                ((0, 3), 5),
                ((1, 2), 6),
                ((2, 0), 3),
                ((2, 3), 1)
            ]
        );
        assert_eq!(layer.pending_rides(), 0);
        assert!(layer.drain_pending().is_empty());
    }

    #[test]
    fn pop_riders_takes_the_head_of_one_queue_and_leaves_the_rest_queued() {
        let mut layer = layer(4);
        for (origin, (to, seq)) in (0..).zip([(2, 1), (1, 2), (2, 3), (2, 4)]) {
            let auth = auth(&mut layer, origin, seq);
            layer.enqueue_ride(0, to, auth, seq % 2 == 0);
        }
        let mut riders = Vec::new();
        layer.pop_riders(0, 2, 2, &mut riders);
        let popped: Vec<(u64, bool)> = riders.iter().map(|r| (r.auth.seq, r.gossip)).collect();
        assert_eq!(popped, [(1, false), (3, false)]);
        layer.pop_riders(1, 2, 2, &mut riders);
        assert_eq!(riders.len(), 2, "nothing queued 1 → 2");
        assert_eq!(layer.pending_rides(), 2);
        let rest: Vec<((u32, u32), u64)> = layer
            .drain_pending()
            .into_iter()
            .map(|(pair, ride)| (pair, ride.auth.seq))
            .collect();
        assert_eq!(rest, [((0, 1), 2), ((0, 2), 4)]);
    }
}
