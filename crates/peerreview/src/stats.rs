//! Accountability overhead counters, surfaced through `tnic_sim::stats`.
//!
//! The point of the PeerReview case study is that accountability is *not
//! free*: commitments ride on every message and audits consume witness
//! cycles and network round trips. These counters make the overhead
//! measurable against the bare substrate (see `crates/bench`): message and
//! byte counts for the commitment/audit traffic, and virtual-time
//! histograms for audit latency.

use tnic_sim::stats::Histogram;

/// Counters and latency distributions of one accountable run.
#[derive(Debug, Clone, Default)]
pub struct AccountabilityStats {
    /// Application messages sent through the cluster.
    pub app_messages: u64,
    /// Accountability control messages (announce/gossip/challenge/response/
    /// evidence).
    pub control_messages: u64,
    /// Total wire bytes of control messages (the commitment overhead).
    pub control_bytes: u64,
    /// Log entries appended across all nodes.
    pub log_entries: u64,
    /// Commitments (authenticators) published by nodes.
    pub commitments_published: u64,
    /// Commitments (announcements and gossip relays) that rode on existing
    /// traffic instead of costing a dedicated message (piggyback mode).
    pub piggybacked_commitments: u64,
    /// Challenges issued by witnesses.
    pub challenges: u64,
    /// Audit responses received by witnesses.
    pub responses: u64,
    /// Challenges that went unanswered.
    pub unanswered_challenges: u64,
    /// Evidence messages transferred between witnesses.
    pub evidence_transfers: u64,
    /// Evidence messages received that failed verification (forged,
    /// tampered or non-conflicting) and were rejected without convicting
    /// the accused.
    pub evidence_rejected: u64,
    /// Rejected accusations that were turned against their accuser (the
    /// receiver witnesses the sender and convicted it).
    pub accusations_turned: u64,
    /// Forged evidence messages fabricated by Byzantine witnesses.
    pub forged_evidence_sent: u64,
    /// Gossip relays a Byzantine witness suppressed (`WithholdGossip`).
    pub gossip_withheld: u64,
    /// Piggyback relays a Byzantine witness refused to carry (`RefuseRelay`).
    pub relays_refused: u64,
    /// Challenges a Byzantine witness silently skipped (`SilentWitness`,
    /// `FalseSuspicion`).
    pub challenges_skipped: u64,
    /// Verdicts a Byzantine witness falsified to suspected without a failed
    /// challenge (`FalseSuspicion`).
    pub false_suspicions: u64,
    /// Challenges below a pruned log base that were answered with the
    /// checkpoint certificate instead of a log segment.
    pub certificate_responses: u64,
    /// Checkpoint proposals sealed by nodes.
    pub checkpoints_proposed: u64,
    /// Checkpoints that reached their cosignature quorum and were pruned.
    pub checkpoints_completed: u64,
    /// Cosignatures issued by witnesses.
    pub cosignatures_issued: u64,
    /// Valid cosignatures counted towards a quorum by proposers.
    pub cosignatures_collected: u64,
    /// Cosignatures rejected by proposers (forged, tampered or stale).
    pub cosignatures_rejected: u64,
    /// Checkpoint proposals a Byzantine witness silently ignored.
    pub cosignatures_withheld: u64,
    /// Log entries garbage-collected by certified checkpoints.
    pub pruned_log_entries: u64,
    /// Stored witness commitments garbage-collected by certified
    /// checkpoints.
    pub commitments_pruned: u64,
    /// Log entries currently retained in memory across all nodes (snapshot;
    /// `log_entries` counts everything ever appended).
    pub retained_log_entries: u64,
    /// Approximate bytes of retained log entries across all nodes
    /// (snapshot).
    pub retained_log_bytes: u64,
    /// Commitments currently stored across all witness records (snapshot).
    pub retained_commitments: u64,
    /// Nodes that joined the running cluster.
    pub joins: u64,
    /// Nodes that left the cluster (log sealed, still auditable).
    pub departures: u64,
    /// Crash-stop events injected into the cluster.
    pub crashes: u64,
    /// Crashed nodes that recovered and re-announced their log head.
    pub recoveries: u64,
    /// Challenges re-sent by the retry/backoff machinery before a silent
    /// node is downgraded to suspected.
    pub challenge_retries: u64,
    /// Departure tails replayed by witnesses to close the leaver's audit.
    pub leave_audits: u64,
    /// Witness-set rotations performed at checkpoint epochs.
    pub witness_rotations: u64,
    /// Incoming-witness records created by rotation (state handovers).
    pub witness_handovers: u64,
    /// Audit wire messages actually sent (challenges, responses and their
    /// batched forms — the scalable-audit headline; announces/gossip are
    /// commitment traffic and counted separately).
    pub audit_messages: u64,
    /// (witness, auditee) pairs a sampling witness deliberately left out of
    /// a round (sampled auditing; they are *not* suspected — only a pair
    /// with a challenge in flight can time out).
    pub audits_sampled_out: u64,
    /// `ResponseBatch` envelopes sent (each coalesces ≥ 2 responses).
    pub response_batches: u64,
    /// Individual responses that travelled inside a batch envelope instead
    /// of their own message; the wire savings is
    /// `batched_envelopes - response_batches`.
    pub batched_envelopes: u64,
    /// Audit replays performed by witnesses (each `check_response` over a
    /// received log segment, including departure-tail replays).
    pub audit_replays: u64,
    /// Log entries fed through audit replay across all witnesses — the
    /// replay-work wall: with full (unsampled) audits every witness replays
    /// every audited node's whole window, so this grows as O(w²) in the
    /// per-round traffic (see the log-composition report section).
    pub entries_replayed: u64,
    /// Log entries holding a full application payload (replayed by audits).
    pub log_app_payload_entries: u64,
    /// Checkpoint marks (and send/receive entries without a full payload,
    /// which honest nodes do not write) — hashed, not replayed.
    pub log_control_digest_entries: u64,
    /// Round-digest entries: one per node and audit round, folding every
    /// envelope without an application command (audit, commitment,
    /// checkpoint, evidence and membership traffic) — the log-growth cost
    /// the accountability protocol inflicts on itself.
    pub log_audit_digest_entries: u64,
    /// Virtual-time latency of one complete audit (challenge sent → verdict),
    /// in microseconds.
    pub audit_latency: Histogram,
    /// Virtual-time latency of one application send (attest → verified
    /// delivery), in microseconds.
    pub app_latency: Histogram,
}

impl AccountabilityStats {
    /// Creates zeroed stats.
    #[must_use]
    pub fn new() -> Self {
        AccountabilityStats::default()
    }

    /// Control messages per application message — the headline overhead
    /// ratio (0 when no application traffic was sent).
    #[must_use]
    pub fn control_overhead_ratio(&self) -> f64 {
        if self.app_messages == 0 {
            0.0
        } else {
            self.control_messages as f64 / self.app_messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_sim::time::SimDuration;

    #[test]
    fn overhead_ratio() {
        let mut stats = AccountabilityStats::new();
        assert_eq!(stats.control_overhead_ratio(), 0.0);
        stats.app_messages = 4;
        stats.control_messages = 10;
        assert!((stats.control_overhead_ratio() - 2.5).abs() < 1e-9);
        stats.audit_latency.record(SimDuration::from_micros(12));
        assert_eq!(stats.audit_latency.len(), 1);
    }
}
