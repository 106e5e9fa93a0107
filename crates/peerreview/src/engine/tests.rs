//! Engine tests: they drive the private handlers directly, so they live
//! inside the module.

use super::audit_round::Outbound;
use super::*;
use crate::checkpoint::shard_members;
use crate::log::{Authenticator, EntryKind, LogEntry};
use crate::wire::{EnvelopeView, MAX_PIGGYBACK_RIDERS};
use tnic_net::adversary::NodeFault;
use tnic_net::stack::NetworkStackKind;

pub(super) fn counter_deployment(
    faults: FaultPlan,
) -> (Cluster, CounterApp, AccountabilityEngine<CounterApp>) {
    let mut cluster = Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 42);
    let app = CounterApp::new(&cluster.nodes());
    let engine = AccountabilityEngine::attach(&mut cluster, &app, EngineConfig::default(), faults);
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
    assert_eq!(app.machines[1].value(), 1);
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
    let (seq, head) = engine.layer.borrow().commitment_data(1);
    let (auth, _) = engine.layer.borrow_mut().seal(1, seq, head);
    let mut outgoing = Vec::new();
    engine.handle_commitment(0, &auth.as_view(), false, &mut outgoing);
    engine.issue_challenges(&mut cluster).unwrap();
    assert!(engine.pairs.get(0, 1).unwrap().is_challenged());
    // A response whose `from_seq` does not match the challenged range
    // start must be ignored: the challenge stays pending and round end
    // downgrades the node.
    let entries = engine.layer.borrow().segment_ref(1, 0, seq).to_vec();
    engine.handle_response(0, 1, 7, &entries);
    assert!(engine.pairs.get(0, 1).unwrap().is_challenged());
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
        engine
            .layer
            .borrow_mut()
            .enqueue_ride(0, 1, auth.compact(), true);
    }
    for (origin, head) in [(1u32, 5u8), (2, 6)] {
        let (auth, _) = engine.layer.borrow_mut().seal(origin, 1, [head; 32]);
        engine
            .layer
            .borrow_mut()
            .enqueue_ride(0, 2, auth.compact(), true);
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
        engine
            .layer
            .borrow_mut()
            .enqueue_ride(0, 1, auth.compact(), true);
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
pub(super) fn run_rounds(
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

pub(super) fn engine_deployment(
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
        engine.handle_evidence(0, 3, &a.as_view(), &b.as_view());
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
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
    run_rounds(&mut cluster, &mut app, &mut engine, 2);
    let base = engine.layer.borrow().base_seq(1);
    assert!(base > 0, "node 1 actually pruned");
    let cut = engine.members[1].certificate.as_ref().unwrap().0.cut;
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
    // Rewind witness 0 to a pre-checkpoint view holding a commitment
    // beyond the cut, and challenge it (what the reordered transport left
    // behind).
    let (seal, _) = engine.layer.borrow_mut().seal(1, base + 1, [9u8; 32]);
    let (now, round) = (engine.clock.now(), engine.audit_rounds_done);
    {
        let pair = engine.pairs.get_mut(0, 1).unwrap();
        pair.record = WitnessRecord::new(CounterMachine::new());
        assert!(pair.record.store_commitment(&seal.as_view()).is_none());
        let selected = PairEvent::Selected { sampled: true, now };
        assert_eq!(
            pair.step(selected, round, engine.config.challenge_retries),
            PairAction::Challenge { upto_seq: base + 1 }
        );
    }
    // Delivering the certificate fast-forwards the witness to the
    // cosigned boundary instead of leaving it to suspect the node.
    let mut relays = Vec::new();
    let answer = answer.encode();
    let answer = EnvelopeView::parse(&answer).unwrap();
    engine.handle_envelope(&mut app, NodeId(0), 1, answer, &mut relays);
    let pair = &engine.pairs.get(0, 1).unwrap();
    assert_eq!(pair.record.audited_seq, cut, "fast-forwarded to the cut");
    assert!(!pair.is_challenged());
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
        engine
            .layer
            .borrow_mut()
            .enqueue_ride(0, 1, auth.compact(), false);
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

// ---- sampled auditing, hostile audit traffic, sharding ------------

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
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
    run_rounds(&mut cluster, &mut app, &mut engine, 8);
    assert_accuracy(&engine);
    // The rotating window plus backstop audited every pair at least once.
    for (witness, node, audit) in engine.pairs.iter() {
        assert!(
            audit.last_selected().is_some() || audit.record.audited_seq > 0,
            "pair ({witness}, {node}) was never selected"
        );
    }
}

#[test]
fn sample_covering_all_charges_degenerates_to_full_auditing() {
    let config = EngineConfig {
        audit_sample_size: Some(3), // n = 4 all-to-all: 3 charges each
        ..EngineConfig::default()
    };
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
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

/// A batch of hostile audit envelopes, each a `Challenge` or a `Response`
/// of its own, sent by node 3 to every other node: none panics the engine,
/// and no correct node is convicted.
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
        // Nonsense ranges: inverted, huge, and below-base claims; then
        // forged responses nobody asked for, with stale ranges.
        let challenge = |from_seq, upto_seq| Envelope::Challenge { from_seq, upto_seq };
        let response = |from_seq| Envelope::Response {
            from_seq,
            entries: Vec::new(),
        };
        let hostile = [
            challenge(u64::MAX, 0),
            challenge(0, u64::MAX),
            challenge(7, 3),
            response(0),
            response(u64::MAX),
        ];
        // Node 3 plays the hostile sender; everyone else is a target
        // (a self-addressed answer has no session to travel on).
        for target in 0..3u32 {
            for env in &hostile {
                let mut outgoing = Vec::new();
                let wire = env.encode();
                let env = EnvelopeView::parse(&wire).unwrap();
                engine.handle_envelope(&mut app, NodeId(target), 3, env, &mut outgoing);
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
    let deployment = |shards: u32| {
        let config = EngineConfig {
            shards,
            witness_count: Some(2),
            ..EngineConfig::default()
        };
        sized_deployment(8, config, FaultPlan::all_correct()).2
    };
    let (sharded, unsharded) = (deployment(1), deployment(0));
    let sets = |engine: &AccountabilityEngine<CounterApp>| {
        (0..8)
            .map(|n| engine.witnesses_of(n).to_vec())
            .collect::<Vec<_>>()
    };
    let held = |engine: &AccountabilityEngine<CounterApp>| {
        engine
            .members
            .iter()
            .map(|m| m.held.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(sets(&sharded), sets(&unsharded));
    assert_eq!(held(&sharded), held(&unsharded));
    assert!(held(&unsharded)
        .iter()
        .all(|h| *h == (0..8).collect::<Vec<_>>()));
}

/// `node`'s seal over its current log head, as its witnesses receive it.
pub(super) fn seal_of(engine: &AccountabilityEngine<CounterApp>, node: u32) -> Authenticator {
    let (seq, head) = engine.layer.borrow().commitment_data(node);
    engine.layer.borrow_mut().seal(node, seq, head).0
}

#[test]
fn attach_installs_no_log_session_key_on_any_member() {
    let config = EngineConfig {
        shards: 4,
        witness_count: Some(3),
        ..EngineConfig::default()
    };
    let (_cluster, _app, engine) = sized_deployment(64, config, FaultPlan::all_correct());
    let ids: Vec<u32> = (0..64).collect();
    let groups = shard_members(&ids, 4, config.seed);
    assert!(groups.len() > 1);
    for group in &groups {
        for &member in group {
            assert_eq!(engine.members[member as usize].held, *group);
        }
    }
    for member in &engine.members {
        assert!(ids
            .iter()
            .all(|&peer| !member.kernel.has_session(log_session(peer))));
    }
}

#[test]
fn a_seal_on_an_unheld_log_session_is_refused_without_drawing_cost() {
    let config = EngineConfig {
        baseline: Baseline::Sgx,
        shards: 2,
        witness_count: Some(2),
        ..EngineConfig::default()
    };
    let mut cluster = Cluster::fully_connected(16, Baseline::Sgx, NetworkStackKind::Tnic, 42);
    let app = CounterApp::new(&cluster.nodes());
    let mut engine =
        AccountabilityEngine::attach(&mut cluster, &app, config, FaultPlan::all_correct());
    let groups = shard_members(&(0..16).collect::<Vec<_>>(), 2, config.seed);
    assert_eq!(groups.len(), 2);
    let (node, peer, stranger) = (groups[0][0], groups[0][1], groups[1][0]);
    assert!(!engine.members[stranger as usize].held.contains(&node));
    let auth = seal_of(&engine, node);
    // The cost a member's next verification of the seal would draw, read
    // on a copy of its provider: it moves iff the baseline's RNG did.
    let next_cost = |engine: &AccountabilityEngine<CounterApp>, member: u32| {
        engine.members[member as usize]
            .kernel
            .clone()
            .verify_binding_under(&engine.log_keys[node as usize], &auth.attestation.as_view())
            .unwrap()
    };
    let (undrawn, start) = (next_cost(&engine, stranger), engine.clock.now());
    assert!(!engine.attestation_verifies(stranger, &auth.attestation));
    assert_eq!(next_cost(&engine, stranger), undrawn);
    assert_eq!(engine.clock.now(), start);
    // A shard co-member holds the key: the seal verifies and is charged.
    let drawn = next_cost(&engine, peer);
    assert!(engine.attestation_verifies(peer, &auth.attestation));
    assert_eq!(engine.clock.now(), start + drawn);
    assert_ne!(
        next_cost(&engine, peer),
        drawn,
        "the check drew its samples"
    );
}

#[test]
fn new_charges_seals_verify_after_a_rotation_and_a_join() {
    let verify = |engine: &mut AccountabilityEngine<CounterApp>, (witness, node): (u32, u32)| {
        let auth = seal_of(engine, node);
        assert!(
            engine.attestation_verifies(witness, &auth.attestation),
            "witness {witness} cannot verify its charge {node}"
        );
    };
    // Two shard groups, and one (where only the join hands out the
    // joiner's key: reassignment adds held keys only when sharded).
    for shards in [2, 1] {
        let config = EngineConfig {
            shards,
            witness_count: Some(2),
            checkpoint_interval: Some(1),
            rotate_witnesses: true,
            ..EngineConfig::default()
        };
        let (mut cluster, mut app, mut engine) =
            sized_deployment(16, config, FaultPlan::all_correct());
        let initial: BTreeSet<(u32, u32)> = engine.pairs.iter().map(|(w, n, _)| (w, n)).collect();
        run_rounds_n(&mut cluster, &mut app, &mut engine, 16, 3);
        assert!(engine.stats().witness_rotations > 0, "rotation happened");
        let handed: Vec<(u32, u32)> = engine
            .pairs
            .iter()
            .map(|(w, n, _)| (w, n))
            .filter(|pair| !initial.contains(pair))
            .collect();
        assert!(!handed.is_empty(), "rotation handed a witness a new charge");
        for pair in handed {
            verify(&mut engine, pair);
        }
        engine.join_node(&mut cluster, &mut app, 16).unwrap();
        let joined: Vec<(u32, u32)> = engine
            .pairs
            .iter()
            .map(|(w, n, _)| (w, n))
            .filter(|&(witness, node)| witness == 16 || node == 16)
            .collect();
        assert!(joined.iter().any(|&(witness, _)| witness == 16));
        assert!(joined.iter().any(|&(_, node)| node == 16));
        for pair in joined {
            verify(&mut engine, pair);
        }
        assert_accuracy(&engine);
    }
}

#[test]
fn sharded_witnesses_stay_inside_their_shard() {
    let config = EngineConfig {
        shards: 2,
        witness_count: Some(2),
        ..EngineConfig::default()
    };
    let (_cluster, _app, engine) = sized_deployment(16, config, FaultPlan::all_correct());
    let ids: Vec<u32> = (0..16).collect();
    let groups = shard_members(&ids, 2, config.seed);
    assert_eq!(groups.len(), 2, "two shard groups at n = 16");
    let shard_of = |n: u32| groups.iter().position(|g| g.contains(&n)).unwrap();
    for (witness, node, _) in engine.pairs.iter() {
        assert_eq!(
            shard_of(witness),
            shard_of(node),
            "witness {witness} tracks {node} outside its shard"
        );
    }
    // Sharding actually shrinks the per-witness charge list.
    let max_charges = (0..16u32)
        .map(|w| engine.pairs.iter().filter(|&(x, _, _)| x == w).count())
        .max()
        .unwrap();
    assert!(
        max_charges < 15,
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
    let groups = shard_members(&(0..16).collect::<Vec<_>>(), 2, config.seed);
    assert_eq!(groups.len(), 2, "two shard groups at n = 16");
    let (mut cluster, mut app, mut engine) = sized_deployment(
        16,
        config,
        FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
    );
    run_rounds_n(&mut cluster, &mut app, &mut engine, 16, 4);
    let witnesses = engine.correct_witnesses_of(1);
    assert!(!witnesses.is_empty(), "the tamperer has co-shard witnesses");
    for w in witnesses {
        assert_eq!(engine.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
    }
    for node in 0..16u32 {
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
                .get(node as usize)
                .map_or(0, Vec::len),
            0,
            "node {node}: the accumulator drains at round end"
        );
        let len = engine.layer.borrow().log_len(node);
        let entries = engine.layer.borrow().segment_ref(node, 0, len).to_vec();
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
            let (seq, head) = engine.layer.borrow().commitment_data(0);
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
            let entries = engine.layer.borrow().segment_ref(node, 0, len).to_vec();
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
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
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

thread_local! {
    /// The envelopes `handle_envelope` ran on this thread, with their
    /// receivers, while a test records them (`None` otherwise).
    static RECEIVED: RefCell<Option<Vec<(u32, Envelope)>>> = const { RefCell::new(None) };
}

/// Records `envelope`, delivered to `node`, if this thread's test records.
pub(super) fn record_received(node: u32, envelope: &EnvelopeView<'_>) {
    RECEIVED.with_borrow_mut(|received| {
        if let Some(received) = received {
            received.push((node, envelope.clone().into_owned()));
        }
    });
}

#[test]
fn round_digest_with_commitment_and_checkpoint_envelopes_replays_across_prune_and_rotation() {
    // Dedicated mode sends every commitment and checkpoint envelope
    // bare, so the recorded envelope's re-encoding is the folded payload.
    let config = EngineConfig {
        witness_count: Some(2),
        checkpoint_interval: Some(1),
        rotate_witnesses: true,
        ..EngineConfig::default()
    };
    RECEIVED.set(Some(Vec::new()));
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
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
    // The SHA-256 of every commitment and checkpoint envelope a node
    // received, as the envelope's receiver folds it.
    let mut commitments = BTreeSet::new();
    let mut checkpoints = BTreeSet::new();
    for (node, envelope) in RECEIVED.take().expect("this test records") {
        let digest = tnic_crypto::sha256::sha256(&envelope.encode());
        match envelope {
            Envelope::Announce(_) | Envelope::Gossip(_) => {
                commitments.insert((node, digest));
            }
            Envelope::CheckpointPropose(_)
            | Envelope::CheckpointCosign(_)
            | Envelope::CheckpointCommit { .. } => {
                checkpoints.insert((node, digest));
            }
            _ => {}
        }
    }
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
            folds(node, digests, &commitments) && folds(node, digests, &checkpoints)
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
    // The coverage-window backstop keys off a pair's last selection; an
    // incoming witness starting with none restarts the never-sampled
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
    let (mut cluster, mut app, mut engine) = sized_deployment(6, config, FaultPlan::all_correct());
    run_rounds_n(&mut cluster, &mut app, &mut engine, 6, 4);
    assert!(engine.stats().witness_rotations > 0, "rotation happened");
    // Every sampled pair carries an audit clock — including pairs whose
    // witness joined at the last rotation and has not sampled the node
    // itself yet (those must have inherited the outgoing set's offset).
    for (witness, node, pair) in engine.pairs.iter() {
        assert!(
            pair.last_selected().is_some(),
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
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
    run_rounds(&mut cluster, &mut app, &mut engine, 2);
    let base = engine.layer.borrow().base_seq(1);
    assert!(base > 0, "node 1 actually pruned");
    let before = engine.stats().certificate_responses;
    // A deferred segment whose range now straddles the pruned base.
    engine
        .send_segment(&mut cluster, NodeId(1), NodeId(0), 0, base + 1)
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

/// A pair that rotation drops takes all its state with it. When the ring
/// hands the pair back, its witness challenges afresh and re-sends the
/// full `challenge_retries` times before suspecting the auditee, instead
/// of resuming the old challenge's attempts and backoff.
#[test]
fn rotation_drops_the_retry_state_of_every_pair_it_drops() {
    let retries = 2;
    let config = EngineConfig {
        witness_count: Some(1),
        checkpoint_interval: Some(1_000),
        rotate_witnesses: true,
        challenge_retries: retries,
        ..EngineConfig::default()
    };
    // Node 1 never answers a challenge, and with one witness per node
    // every re-sent challenge is that witness's.
    let faults = FaultPlan::single(1, NodeFault::SuppressAudits { probability: 1.0 });
    let (mut cluster, mut app, mut engine) = sized_deployment(6, config, faults);
    let witness = engine.witnesses_of(1)[0];
    // A challenge and one re-send: the pair still has retry budget left.
    run_rounds_n(&mut cluster, &mut app, &mut engine, 6, 2);
    assert_eq!(engine.stats().challenge_retries, 1);
    assert_eq!(engine.verdict_of(witness, 1), Verdict::Trusted);
    // The ring turns the pair away and, a full cycle later, hands it back.
    engine.run_checkpoint_round(&mut cluster, &mut app).unwrap();
    assert!(
        !engine.witnesses_of(1).contains(&witness),
        "the pair was dropped"
    );
    while !engine.witnesses_of(1).contains(&witness) {
        engine.run_checkpoint_round(&mut cluster, &mut app).unwrap();
    }
    let before = engine.stats().challenge_retries;
    for _ in 0..8 {
        if engine.verdict_of(witness, 1) != Verdict::Trusted {
            break;
        }
        run_rounds_n(&mut cluster, &mut app, &mut engine, 6, 1);
    }
    assert_eq!(engine.verdict_of(witness, 1), Verdict::Suspected);
    assert_eq!(
        engine.stats().challenge_retries - before,
        u64::from(retries),
        "the handed-back pair re-sends its full retry budget before suspecting"
    );
}

#[test]
#[should_panic(expected = "is not the next unused node id")]
fn join_node_rejects_a_non_contiguous_id() {
    let (mut cluster, mut app, mut engine) = counter_deployment(FaultPlan::all_correct());
    let _ = engine.join_node(&mut cluster, &mut app, 5);
}

/// A copy of `cosig` whose fields still match its sealed payload, so
/// `Cosignature::consistent` accepts it, but whose seal no longer verifies.
fn with_flipped_mac(cosig: &Cosignature) -> Cosignature {
    let mut forged = cosig.clone();
    forged.attestation.mac[0] ^= 0x01;
    assert!(forged.consistent());
    forged
}

/// The proposer collects a cosignature only if its seal verifies.
#[test]
fn proposer_rejects_a_consistent_cosignature_whose_seal_fails() {
    let config = EngineConfig {
        checkpoint_interval: Some(1),
        ..EngineConfig::default()
    };
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
    run_rounds(&mut cluster, &mut app, &mut engine, 2);
    let (mark, cosigs) = engine.members[1].certificate.clone().unwrap();
    let genuine = cosigs[0].clone();
    let forged = with_flipped_mac(&genuine);
    // Node 1 collects cosignatures for its certified mark once more.
    engine.members[1].pending_checkpoint = Some(PendingCheckpoint {
        mark,
        cosigners: BTreeMap::new(),
    });
    let before = engine.stats();
    engine.handle_checkpoint_cosign(1, &forged);
    let after = engine.stats();
    assert_eq!(
        after.cosignatures_rejected,
        before.cosignatures_rejected + 1
    );
    assert_eq!(after.cosignatures_collected, before.cosignatures_collected);
    let pending = |engine: &AccountabilityEngine<CounterApp>| {
        engine.members[1]
            .pending_checkpoint
            .as_ref()
            .unwrap()
            .cosigners
            .clone()
    };
    assert!(pending(&engine).is_empty());
    // The same cosignature with its seal intact is collected.
    engine.handle_checkpoint_cosign(1, &genuine);
    let after = engine.stats();
    assert_eq!(
        after.cosignatures_rejected,
        before.cosignatures_rejected + 1
    );
    assert_eq!(
        after.cosignatures_collected,
        before.cosignatures_collected + 1
    );
    assert!(pending(&engine).contains_key(&genuine.witness));
}

/// A witness counts a certificate's cosignature toward the quorum only if
/// its seal verifies: a certificate whose cosignatures are consistent but
/// whose seals fail neither prunes a commitment nor fast-forwards.
#[test]
fn witness_ignores_a_certificate_whose_cosignature_seals_fail() {
    let config = EngineConfig {
        checkpoint_interval: Some(1),
        ..EngineConfig::default()
    };
    let (mut cluster, mut app, mut engine) = engine_deployment(config, FaultPlan::all_correct());
    run_rounds(&mut cluster, &mut app, &mut engine, 2);
    let (mark, cosigs) = engine.members[1].certificate.clone().unwrap();
    let forged: Vec<Cosignature> = cosigs.iter().map(with_flipped_mac).collect();
    // Rewind witness 0 to before the checkpoint: nothing audited, one
    // stored commitment that the certificate covers.
    let (covered, _) = engine.layer.borrow_mut().seal(1, mark.cut, mark.head);
    {
        let record = &mut engine.pairs.get_mut(0, 1).unwrap().record;
        *record = WitnessRecord::new(CounterMachine::new());
        assert!(record.store_commitment(&covered.as_view()).is_none());
    }
    let pruned = engine.stats().commitments_pruned;
    engine.handle_checkpoint_commit(0, &mark, &forged);
    let record = &engine.pairs.get(0, 1).unwrap().record;
    assert_eq!(record.audited_seq, 0, "no fast-forward on failed seals");
    assert_eq!(record.commitments().len(), 1, "no prune on failed seals");
    assert_eq!(engine.stats().commitments_pruned, pruned);
    // The genuine certificate does both.
    engine.handle_checkpoint_commit(0, &mark, &cosigs);
    let record = &engine.pairs.get(0, 1).unwrap().record;
    assert_eq!(record.audited_seq, mark.cut, "fast-forwarded to the cut");
    assert!(
        record.commitments().is_empty(),
        "the covered commitment is pruned"
    );
    assert_eq!(engine.stats().commitments_pruned, pruned + 1);
}

/// `CounterApp` keeps one counter per node id: a joiner gets the next id,
/// and an id it never held snapshots to zeros.
#[test]
fn counter_app_indexes_counters_by_id_and_joins_the_next_id() {
    let mut app = CounterApp::new(&[NodeId(0), NodeId(1), NodeId(2)]);
    let fresh = CounterMachine::new().state_digest();
    app.execute(2, b"incr");
    assert_ne!(app.snapshot_digest(2), fresh);
    assert_eq!(app.snapshot_digest(1), fresh);
    assert_eq!(app.snapshot_digest(3), [0u8; 32], "not joined yet");
    app.on_join(3);
    assert_eq!(app.snapshot_digest(3), fresh);
    app.execute(3, b"incr");
    assert_eq!(app.snapshot_digest(3), app.snapshot_digest(2));
    assert_eq!(app.snapshot_digest(u32::MAX), [0u8; 32]);
}
