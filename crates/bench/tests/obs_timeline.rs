//! End-to-end event-timeline coverage for the observability layer.
//!
//! The lying-witness scenario (`forge-evidence`) is the sharpest test of
//! the causal timelines: the forging accuser's fabricated evidence travels
//! to the forger's own witnesses, is rejected as unverifiable, and convicts
//! the *accuser* — never the accused. The recorder must capture that whole
//! counter-conviction chain (rejected evidence transfer → verdict
//! transition carrying `forged-accusation`), and `explain_verdict` must
//! reconstruct it from the snapshot alone.

use tnic_bench::{scenario_suite, Case, CommitMode, Outcome};
use tnic_obs::timeline::{explain_verdict, verdict_transitions};
use tnic_obs::{codes, Event, EventKind};
use tnic_tee::profile::Baseline;

/// The piggybacked `name` case of the TNIC scenario suite.
fn scenario(name: &str) -> Case {
    scenario_suite(Baseline::Tnic)
        .into_iter()
        .find(|c| c.name == name && c.experiment.mode() == CommitMode::Piggyback { witnesses: 2 })
        .unwrap_or_else(|| panic!("{name} scenario in the suite"))
}

/// Runs `case` with the event recorder installed: its outcome, the
/// snapshot and the ring's drop count.
fn traced(case: &Case) -> (Outcome, Vec<Event>, u64) {
    let guard = tnic_obs::RecorderGuard::install(1 << 18);
    let outcome = case.experiment.run().expect("traced run");
    (outcome, guard.snapshot(), guard.dropped())
}

/// The faulty node of `case`.
fn faulty(case: &Case) -> u32 {
    case.expect.faulty.expect("a faulty node").0
}

#[test]
fn forged_accusation_counter_conviction_chain_is_recorded_end_to_end() {
    let scenario = scenario("forge-evidence");
    let forger = faulty(&scenario);
    let (outcome, events, dropped) = traced(&scenario);
    assert!(
        outcome.check(&scenario.expect).is_empty(),
        "the accuser is convicted"
    );
    assert_eq!(dropped, 0, "ring must be large enough for the whole run");

    // The fabricated evidence was rejected somewhere (aux = 1).
    let rejected: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Evidence && e.aux == 1)
        .collect();
    assert!(
        !rejected.is_empty(),
        "a forged evidence transfer must be recorded as rejected"
    );

    // Some witness's verdict on the forger flipped to exposed with the
    // forged-accusation misbehavior code.
    let convictions: Vec<_> = verdict_transitions(&events)
        .into_iter()
        .filter(|e| {
            let (_, new, mis) = codes::unpack_verdict(e.aux);
            e.peer == forger && new == codes::VERDICT_EXPOSED && mis == codes::MIS_FORGED_ACCUSATION
        })
        .collect();
    assert!(
        !convictions.is_empty(),
        "a counter-conviction verdict transition must be recorded"
    );

    // The causal chain reconstructs end-to-end: the rejected evidence
    // transfer feeds the verdict, witness-side, in order.
    for conviction in &convictions {
        let witness = conviction.node;
        let chain = explain_verdict(&events, witness, forger)
            .unwrap_or_else(|| panic!("chain for witness {witness} on forger {forger}"));
        assert_eq!(chain.verdict, codes::VERDICT_EXPOSED);
        assert_eq!(chain.misbehavior, codes::MIS_FORGED_ACCUSATION);
        let evidence_pos = chain
            .chain
            .iter()
            .position(|e| e.kind == EventKind::Evidence && e.aux == 1)
            .expect("the rejected evidence transfer is part of the chain");
        let verdict_pos = chain
            .chain
            .iter()
            .position(|e| e.kind == EventKind::VerdictTransition)
            .expect("the chain ends in the verdict");
        assert!(
            evidence_pos < verdict_pos,
            "evidence precedes the verdict in the causal chain"
        );
        assert!(
            chain
                .phases
                .iter()
                .any(|p| p.phase == "evidence→verdict" || p.phase.contains("evidence")),
            "the phase breakdown names the evidence step: {:?}",
            chain.phases
        );
    }
}

#[test]
fn exec_tampering_chain_carries_the_audit_phases() {
    let scenario = scenario("exec-tampering");
    let tamperer = faulty(&scenario);
    let (outcome, events, _) = traced(&scenario);
    assert!(outcome.check(&scenario.expect).is_empty());

    // At least one witness exposed the tamperer through the full audit
    // path: challenge → response → replay → verdict.
    let exposed_by: Vec<u32> = verdict_transitions(&events)
        .into_iter()
        .filter(|e| {
            let (_, new, _) = codes::unpack_verdict(e.aux);
            e.peer == tamperer && new == codes::VERDICT_EXPOSED
        })
        .map(|e| e.node)
        .collect();
    assert!(!exposed_by.is_empty());
    let full_audit_chain = exposed_by.iter().any(|&witness| {
        explain_verdict(&events, witness, tamperer).is_some_and(|chain| {
            let kinds: Vec<EventKind> = chain.chain.iter().map(|e| e.kind).collect();
            kinds.contains(&EventKind::Challenge)
                && kinds.contains(&EventKind::Response)
                && kinds.contains(&EventKind::AuditReplay)
                && chain.phases.iter().any(|p| p.phase == "challenge→response")
        })
    });
    assert!(
        full_audit_chain,
        "some witness must expose the tamperer through the challenge/response/replay path"
    );
}

#[test]
fn tracing_is_off_outside_a_recorder_guard() {
    // Scenario runs without a guard must not leak events anywhere (the
    // thread-local recorder is unset, tracing_enabled() is false).
    assert!(!tnic_obs::tracing_enabled());
    let scenario = scenario("fault-free");
    let outcome = scenario.experiment.run().expect("untraced run");
    assert!(outcome.check(&scenario.expect).is_empty());
    assert!(tnic_obs::snapshot().is_empty());
    assert!(!tnic_obs::tracing_enabled());
}
