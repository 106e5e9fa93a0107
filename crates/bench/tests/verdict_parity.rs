//! Verdict-parity scenarios on the reusable harness.
//!
//! [`tnic_bench::Experiment::run`] drives any accounted application ×
//! fault plan × commit mode and returns its `(witness, node)` verdict
//! matrix; [`tnic_bench::assert_verdict_parity`] compares a run against a
//! *twin* — same seed, different environment. Three twin axes are covered
//! here:
//!
//! * **Clean vs hostile network** (ported from
//!   `tnic-peerreview/tests/accountability.rs`): a packet-level adversary
//!   (drops, tampering, duplication, stale replay) must cost retransmission
//!   latency only — every witness reaches exactly the clean-network
//!   verdict, on PeerReview as on BFT multicast legs and CR chain hops, and
//!   the §4.4 lemma monitor every run carries sees no forged, duplicated or
//!   skipped acceptance.
//! * **Pruning vs no-pruning twin** (ported from
//!   `tnic-peerreview/tests/checkpointing.rs`): cosigned checkpointing and
//!   garbage collection must not change a single verdict across the fault
//!   suite, in every commit mode.
//! * **Byzantine audit witnesses** (new): across the full app × witness
//!   fault × commit mode matrix, accuracy holds — no correct node is ever
//!   exposed (or even suspected) by a correct witness, and the verdicts on
//!   correct nodes match a fault-free twin exactly.

use tnic_bench::{assert_verdict_parity, App, CommitMode, Expect, Experiment, Outcome};
use tnic_net::adversary::{Adversary, FaultPlan, NodeFault};
use tnic_peerreview::audit::Verdict;

fn peerreview_spec(faults: FaultPlan) -> Experiment {
    Experiment {
        faults,
        ..Experiment::new(App::PeerReview, CommitMode::Dedicated)
    }
}

/// Whether every correct node is `Trusted` at every correct witness (and
/// the protocol stayed healthy).
fn accurate(outcome: &Outcome) -> bool {
    outcome.check(&Expect::default()).is_empty()
}

/// Runs the same PeerReview fault plan twice — clean network vs
/// packet-level adversary — and returns both outcomes.
fn clean_and_adversarial(faults: FaultPlan, adversary: Adversary, seed: u64) -> (Outcome, Outcome) {
    let mut clean = peerreview_spec(faults.clone());
    clean.engine.seed = seed;
    clean.drain = false;
    let mut hostile = clean.clone();
    hostile.adversary = Some(adversary);
    (clean.run().unwrap(), hostile.run().unwrap())
}

#[test]
fn equivocation_exposure_is_stable_under_packet_drops() {
    for seed in [7u64, 21] {
        let (clean, hostile) = clean_and_adversarial(
            FaultPlan::single(2, NodeFault::Equivocate),
            Adversary::Drop { probability: 0.2 },
            seed,
        );
        assert_verdict_parity(&hostile, &clean, "drop 20%");
        for w in hostile.correct_witnesses_of(2) {
            assert_eq!(
                hostile.verdict_of(w, 2),
                Verdict::Exposed,
                "seed {seed} witness {w}: completeness survives a lossy network"
            );
            assert!(!hostile.evidence_of(w, 2).is_empty());
        }
        // Accuracy: no correct node is ever exposed, drops notwithstanding.
        assert!(accurate(&hostile), "seed {seed}");
        // The lossy network costs retransmission latency, nothing else.
        assert!(
            hostile.virtual_time_us > clean.virtual_time_us,
            "seed {seed}: drops must surface as virtual-time overhead"
        );
    }
}

#[test]
fn tampering_exposure_is_stable_under_packet_tampering() {
    // Wire tampering is rejected by the attestation kernel and recovered by
    // retransmission, so it composes with node-level faults as pure latency:
    // the log tamperer is still exposed by replay, and nobody else is.
    let (clean, hostile) = clean_and_adversarial(
        FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
        Adversary::TamperPayload { probability: 0.2 },
        13,
    );
    assert_verdict_parity(&hostile, &clean, "tamper 20%");
    assert!(
        hostile.messages_rejected > 0,
        "the adversary actually corrupted traffic"
    );
    for w in hostile.correct_witnesses_of(1) {
        assert_eq!(hostile.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
        assert!(hostile.evidence_of(w, 1).contains(&"exec-divergence"));
    }
    assert!(accurate(&hostile));
}

#[test]
fn suppression_stays_suspected_never_exposed_under_drops() {
    // Silence plus a lossy network must still never produce *proof*: the
    // suppressing node ends suspected exactly as on a clean network, and no
    // verifiable evidence exists against it.
    let (clean, hostile) = clean_and_adversarial(
        FaultPlan::single(0, NodeFault::SuppressAudits { probability: 1.0 }),
        Adversary::Drop { probability: 0.2 },
        31,
    );
    assert_verdict_parity(&hostile, &clean, "drop 20% + suppression");
    for w in hostile.correct_witnesses_of(0) {
        assert_eq!(
            hostile.verdict_of(w, 0),
            Verdict::Suspected,
            "witness {w}: silence is not proof, with or without packet loss"
        );
        assert!(hostile.evidence_of(w, 0).is_empty());
    }
    assert!(hostile.stats.unanswered_challenges > 0);
}

#[test]
fn fault_free_run_under_lossy_network_produces_no_evidence() {
    let (clean, hostile) = clean_and_adversarial(
        FaultPlan::all_correct(),
        Adversary::Drop { probability: 0.25 },
        11,
    );
    assert_verdict_parity(&hostile, &clean, "drop 25% fault-free");
    assert!(accurate(&hostile), "accuracy under packet loss");
    assert!(hostile.evidence.is_empty());
    assert_eq!(hostile.stats.unanswered_challenges, 0);
    assert_eq!(hostile.stats.responses, hostile.stats.challenges);
}

#[test]
fn replay_duplicates_on_the_wire_do_not_corrupt_audit_state() {
    // A duplicating adversary re-injects every packet: the attestation
    // kernel's counter check rejects the duplicate, so logs (and therefore
    // audits) see each message exactly once.
    let (clean, hostile) = clean_and_adversarial(
        FaultPlan::all_correct(),
        Adversary::Replay { probability: 1.0 },
        3,
    );
    assert_verdict_parity(&hostile, &clean, "replay 100%");
    // Every single message was duplicated once; every duplicate rejected.
    assert!(hostile.messages_rejected > 0, "duplicates rejected");
    assert_eq!(hostile.messages_rejected, hostile.messages_sent);
    assert!(accurate(&hostile));
    assert_eq!(hostile.stats.unanswered_challenges, 0);
    assert_eq!(hostile.stats.responses, hostile.stats.challenges);
}

#[test]
fn replays_on_multicast_legs_and_chain_hops_keep_verdicts_and_lemmas() {
    // BFT's proofs of execution are multicast legs of one group session,
    // CR's operations hop down the chain: a duplicated or stale packet on
    // either is refused by the receive counter, never accepted twice.
    let cases = [
        (App::Bft, 1, NodeFault::Equivocate),
        (App::Cr, 2, NodeFault::TamperLogEntry { seq: 0 }),
    ];
    let adversaries = [
        Adversary::Replay { probability: 0.5 },
        Adversary::ReplayStale {
            probability: 0.5,
            recorded: None,
        },
    ];
    for (app, node, fault) in cases {
        let clean = Experiment {
            nodes: 3,
            ops_per_round: 4,
            faults: FaultPlan::single(node, fault),
            ..Experiment::new(app, CommitMode::Piggyback { witnesses: 2 })
        };
        let expect = Expect {
            faulty: Some((node, Verdict::Exposed)),
            unanimous: true,
            may_suspect: Vec::new(),
        };
        let twin = clean.run().unwrap();
        for adversary in &adversaries {
            let hostile = Experiment {
                adversary: Some(adversary.clone()),
                ..clean.clone()
            }
            .run()
            .unwrap();
            let context = format!("{} / {adversary:?}", app.label());
            assert_verdict_parity(&hostile, &twin, &context);
            assert!(hostile.messages_rejected > 0, "{context}: nothing replayed");
            assert_eq!(hostile.check(&expect), Vec::<String>::new(), "{context}");
        }
    }
}

#[test]
fn verdict_parity_with_no_pruning_twin_across_fault_suite() {
    let suite: [(u32, NodeFault); 5] = [
        (0, NodeFault::Correct),
        (1, NodeFault::Equivocate),
        (2, NodeFault::SuppressAudits { probability: 1.0 }),
        (3, NodeFault::TruncateLog { drop_tail: 4 }),
        (1, NodeFault::TamperLogEntry { seq: 0 }),
    ];
    for (node, fault) in suite {
        for (plain_mode, ckpt_mode) in [
            // Dedicated commitments, checkpointing via the engine knob (no
            // commit mode carries it).
            (CommitMode::Dedicated, CommitMode::Dedicated),
            // Piggybacked commitments, checkpointing via the mode.
            (
                CommitMode::Piggyback { witnesses: 2 },
                CommitMode::Checkpointed {
                    witnesses: 2,
                    interval: 1,
                },
            ),
        ] {
            let faults = FaultPlan::single(node, fault);
            let plain_spec = Experiment {
                faults: faults.clone(),
                rounds: 4,
                ..Experiment::new(App::PeerReview, plain_mode)
            };
            let mut ckpt_spec = Experiment {
                faults,
                rounds: 4,
                ..Experiment::new(App::PeerReview, ckpt_mode)
            };
            ckpt_spec.engine.checkpoint_interval = Some(1);
            let plain = plain_spec.run().unwrap();
            let ckpt = ckpt_spec.run().unwrap();
            assert!(
                fault == NodeFault::Correct || ckpt.stats.checkpoints_completed > 0,
                "correct nodes keep checkpointing around the faulty one"
            );
            assert_verdict_parity(
                &ckpt,
                &plain,
                &format!("fault {fault:?} at node {node}, mode {}", ckpt_mode.label()),
            );
        }
    }
}

/// The full Byzantine-audit-witness matrix: every accounted application ×
/// every witness fault × every commit mode. Accuracy must hold everywhere —
/// no correct node is ever exposed — and the verdicts on correct nodes must
/// match a fault-free twin exactly (the lying witness costs at most
/// detection latency, never a false verdict).
#[test]
fn witness_fault_matrix_preserves_accuracy_in_every_app_and_mode() {
    let witness_faults = [
        NodeFault::ForgeEvidence,
        NodeFault::FalseSuspicion,
        NodeFault::WithholdGossip,
        NodeFault::RefuseRelay,
        NodeFault::SilentWitness,
    ];
    let modes = [
        CommitMode::Dedicated,
        CommitMode::Piggyback { witnesses: 2 },
        CommitMode::Checkpointed {
            witnesses: 2,
            interval: 1,
        },
    ];
    for app in [App::PeerReview, App::Bft, App::Cr, App::A2m] {
        for fault in witness_faults {
            for mode in modes {
                let outcome = Experiment {
                    faults: FaultPlan::single(1, fault),
                    ops_per_round: 4,
                    ..Experiment::new(app, mode)
                }
                .run()
                .unwrap();
                let context = format!("{} / {fault:?} / {}", app.label(), mode.label());
                assert!(
                    accurate(&outcome),
                    "{context}: a lying witness produced a false verdict"
                );
                // No correct node carries evidence of any kind.
                for (&(w, n), labels) in &outcome.evidence {
                    assert!(
                        n == 1 || outcome.byzantine.contains(&w),
                        "{context}: evidence {labels:?} against correct node {n} at witness {w}"
                    );
                }
                // Only the forging witness may itself end exposed; every
                // other witness fault is an unprovable omission.
                if fault == NodeFault::ForgeEvidence {
                    assert!(
                        outcome.stats.forged_evidence_sent > 0,
                        "{context}: the forger actually forged"
                    );
                    assert!(
                        outcome
                            .correct_witnesses_of(1)
                            .iter()
                            .any(|&w| outcome.verdict_of(w, 1) == Verdict::Exposed),
                        "{context}: the forged accusation convicts its author"
                    );
                } else {
                    for w in outcome.correct_witnesses_of(1) {
                        assert_eq!(
                            outcome.verdict_of(w, 1),
                            Verdict::Trusted,
                            "{context}: witness-side omissions are not provable"
                        );
                    }
                }
            }
        }
    }
}

/// A witness fault composed with a *node* fault: the lying witness must not
/// shield the criminal. An equivocator whose first witness withholds all
/// gossip is still exposed by the remaining correct witness in every
/// commit mode.
#[test]
fn withholding_witness_cannot_shield_an_equivocator() {
    for mode in [
        CommitMode::Dedicated,
        CommitMode::Piggyback { witnesses: 2 },
    ] {
        let mut faults = FaultPlan::single(1, NodeFault::Equivocate);
        faults.set(2, NodeFault::WithholdGossip);
        let outcome = Experiment {
            faults,
            rounds: 4,
            ..Experiment::new(App::PeerReview, mode)
        }
        .run()
        .unwrap();
        for w in outcome.correct_witnesses_of(1) {
            assert_eq!(
                outcome.verdict_of(w, 1),
                Verdict::Exposed,
                "{}: witness {w} exposes the equivocator despite the withholder",
                mode.label()
            );
            assert!(!outcome.evidence_of(w, 1).is_empty());
        }
        assert!(accurate(&outcome), "{}", mode.label());
    }
}
