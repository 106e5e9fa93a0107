//! Cross-node trace assembly and export, end to end.
//!
//! These tests drive real traced runs through [`TraceAssembler`] and the
//! exporters: the causal order must hold for every message edge of a whole
//! tamper-exposure run, a retried challenge must stay on its pair's phase
//! spans, the churn suite must keep membership transitions on the
//! right node track, the Chrome-trace export of a tamper exposure must
//! carry the full send → attest → deliver → verify → commitment →
//! challenge → replay → verdict chain, and a forced gate failure must
//! produce a bounded flight-recorder dump.

use std::collections::BTreeMap;

use tnic_bench::{churn_suite, gates, scenario_suite, Case, CommitMode};
use tnic_obs::assemble::TraceAssembler;
use tnic_obs::{Event, EventKind, NONE};
use tnic_tee::profile::Baseline;

const PIGGYBACK: CommitMode = CommitMode::Piggyback { witnesses: 2 };

/// The piggybacked `name` case of `suite`.
fn find(suite: Vec<Case>, name: &str) -> Case {
    suite
        .into_iter()
        .find(|c| c.name == name && c.experiment.mode() == PIGGYBACK)
        .unwrap_or_else(|| panic!("{name} in the suite"))
}

/// Runs `case` with the event recorder installed, asserting the oracle
/// holds and the ring held the whole run.
fn traced(case: &Case) -> Vec<Event> {
    let guard = tnic_obs::RecorderGuard::install(1 << 18);
    let outcome = case.experiment.run().expect("traced run");
    let violations = outcome.check(&case.expect);
    assert!(violations.is_empty(), "{violations:?} under tracing");
    assert_eq!(guard.dropped(), 0, "ring must hold the whole run");
    guard.snapshot()
}

fn traced_exec_tampering() -> Vec<Event> {
    traced(&find(scenario_suite(Baseline::Tnic), "exec-tampering"))
}

/// The causal-order property over a real run: in [`TraceAssembler::ordered`]
/// every delivery appears after its send (matched on the `(sender, receiver,
/// counter)` trace identity), and each node's events keep their recorded
/// program order.
#[test]
fn ordered_timeline_respects_causality_and_program_order() {
    let events = traced_exec_tampering();
    let assembler = TraceAssembler::new(events.clone());
    let ordered = assembler.ordered();
    assert_eq!(ordered.len(), events.len(), "ordering loses no events");

    // Send → Recv causality on the trace identity, across the whole run.
    let mut first_send: BTreeMap<(u32, u32, u64), usize> = BTreeMap::new();
    let mut first_recv: BTreeMap<(u32, u32, u64), usize> = BTreeMap::new();
    for (pos, event) in ordered.iter().enumerate() {
        match event.kind {
            EventKind::Send => {
                first_send
                    .entry((event.node, event.peer, event.seq))
                    .or_insert(pos);
            }
            EventKind::Recv => {
                first_recv
                    .entry((event.peer, event.node, event.seq))
                    .or_insert(pos);
            }
            _ => {}
        }
    }
    let mut edges = 0usize;
    for (key, &recv_pos) in &first_recv {
        if let Some(&send_pos) = first_send.get(key) {
            edges += 1;
            assert!(
                send_pos < recv_pos,
                "edge {key:?}: send at {send_pos} must precede recv at {recv_pos}"
            );
        }
    }
    assert!(edges > 0, "a real run has matched message edges");
    assert_eq!(
        edges,
        assembler.message_edges().len(),
        "every matched edge is exercised"
    );

    // Program order per node is preserved by the topological sort.
    for node in assembler.nodes() {
        let recorded: Vec<&Event> = events.iter().filter(|e| e.node == node).collect();
        let merged: Vec<&Event> = ordered.iter().filter(|e| e.node == node).collect();
        assert_eq!(recorded, merged, "node {node} track keeps program order");
    }

    // The new log-append instrumentation participates in the timeline.
    assert!(
        ordered.iter().any(|e| e.kind == EventKind::LogAppend),
        "log appends are part of the assembled trace"
    );
}

/// A challenge re-sent on one pair stays on that pair's protocol spans:
/// the two `Challenge` events and the `Response` that answers them make a
/// `challenge→response` span, and the ladder continues to the replay, on
/// the audited pair's track.
#[test]
fn a_retried_challenge_stays_on_its_pairs_spans() {
    let event = |kind, at_us, node, peer, seq, round| Event {
        kind,
        at_us,
        node,
        peer,
        seq,
        round,
        ..Event::EMPTY
    };
    // Witness 3 challenges node 0 in round 1 and, unanswered, again in
    // round 2, before node 0's response arrives.
    let events = vec![
        event(EventKind::Challenge, 10, 3, 0, 4, 1),
        event(EventKind::Challenge, 11, 3, 0, 8, 2),
        event(EventKind::Response, 20, 3, 0, 4, 1),
        event(EventKind::AuditReplay, 25, 3, 0, 4, 1),
    ];
    let spans = TraceAssembler::new(events).pair_spans();
    let labels: Vec<&str> = spans.iter().map(|s| s.span.phase).collect();
    assert!(
        labels.contains(&"challenge→response"),
        "per-pair span from the retried challenge: {labels:?}"
    );
    assert!(
        labels.contains(&"response→replay"),
        "the ladder continues past the retry: {labels:?}"
    );
    assert!(
        spans.iter().all(|s| s.witness == 3 && s.node == 0),
        "spans carry the audited pair, not the wire message"
    );
}

/// The churn suite stays debuggable: a traced crash-rejoin run records
/// membership transitions on the crashing node's own track, the verdict
/// outcome is intact, and the assembled timeline keeps causality.
#[test]
fn churn_timeline_places_membership_on_the_right_node_track() {
    let events = traced(&find(churn_suite(), "churn/crash-rejoin"));

    let memberships: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Membership)
        .collect();
    assert!(
        !memberships.is_empty(),
        "crash/rejoin records membership transitions"
    );
    assert!(
        memberships.iter().all(|e| e.node != NONE && e.peer == NONE),
        "membership events sit on the transitioning node's own track"
    );

    let assembler = TraceAssembler::new(events);
    let ordered = assembler.ordered();
    for node in assembler.nodes() {
        let recorded: Vec<&Event> = assembler
            .events()
            .iter()
            .filter(|e| e.node == node)
            .collect();
        let merged: Vec<&Event> = ordered.iter().filter(|e| e.node == node).collect();
        assert_eq!(
            recorded, merged,
            "node {node} track keeps program order under churn"
        );
    }
}

/// Acceptance: the Chrome-trace export of a tamper-exposure run contains
/// the full cross-node protocol chain — send, attest, net-deliver, verify
/// (recv), log-append, commitment, challenge, response, audit-replay, and
/// the exposing verdict transition — plus flow arrows joining the
/// cross-node edges and per-pair phase spans.
#[test]
fn tamper_exposure_chrome_trace_carries_the_full_protocol_chain() {
    let events = traced_exec_tampering();
    let assembler = TraceAssembler::new(events);
    let chrome = tnic_obs::export::chrome_trace(&assembler);

    for label in [
        "send",
        "attest",
        "net-deliver",
        "recv",
        "verify",
        "log-append",
        "commitment",
        "challenge",
        "response",
        "audit-replay",
        "verdict-transition",
    ] {
        assert!(
            chrome.contains(&format!("\"name\":\"{label}\"")),
            "chrome trace must carry the {label} step of the chain"
        );
    }
    assert!(
        chrome.contains("\"ph\":\"s\""),
        "flow arrows start at sends"
    );
    assert!(
        chrome.contains("\"ph\":\"f\""),
        "flow arrows finish at deliveries"
    );
    assert!(
        chrome.contains("\"ph\":\"X\""),
        "per-pair phase spans present"
    );
    assert!(
        chrome.contains("challenge→response"),
        "the audit phases are named on the witness track"
    );
    assert_eq!(
        chrome.matches('{').count(),
        chrome.matches('}').count(),
        "braces balance"
    );

    // The JSONL form round-trips the same ordered timeline, one object per
    // line.
    let ordered = assembler.ordered();
    let jsonl = tnic_obs::export::jsonl(&ordered);
    assert_eq!(jsonl.lines().count(), ordered.len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
}

/// Acceptance: a forced gate failure produces a bounded flight-recorder
/// dump naming the gate and carrying the trace tail plus the caller's
/// sections.
#[test]
fn forced_gate_failure_writes_a_bounded_flight_record() {
    // Force the enabled-recorder overhead gate to fail.
    let gate = gates::GateOutcome::from_violations(
        "trace-overhead",
        gates::trace_overhead(Some(900.0), 150.0),
    );
    assert!(!gate.passed);
    let reason = format!(
        "failing gates: {} ({})",
        gate.name,
        gate.violations.join("; ")
    );

    let events = traced_exec_tampering();
    let dir = std::env::temp_dir().join(format!("tnic-flightrec-test-{}", std::process::id()));
    let path = tnic_obs::flight::write_flight_record(
        &dir,
        "forced-gate",
        &reason,
        &events,
        0,
        64,
        &[("metrics", "{\"tracing\":{}}".to_string())],
    )
    .expect("flight record written");

    let body = std::fs::read_to_string(&path).expect("readable dump");
    assert!(body.contains("\"reason\": \"failing gates: trace-overhead"));
    assert!(body.contains("enabled-recorder overhead 900.0% exceeds 150.0%"));
    assert!(body.contains(&format!("\"events_recorded\": {}", events.len())));
    assert!(
        body.contains(&format!("\"events_truncated\": {}", events.len() - 64)),
        "the dump is bounded to the 64-event tail"
    );
    assert!(body.contains("\"metrics\": {\"tracing\":{}}"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
