//! Causal protocol timelines: explain a verdict from the recorded events.
//!
//! Exposure latency is easy to *measure* (rounds until every witness convicts)
//! but the interesting question is where the time went: how long did the
//! commitment sit before the witness challenged, how long did the audited
//! node take to respond, how long was the replay, and did the verdict come
//! from a local replay or relayed evidence? [`explain_verdict`] reconstructs
//! that chain for a (witness, node) pair from a recorder snapshot.

use crate::{codes, Event, EventKind};

/// One phase of the path to a verdict, with its virtual-time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase label (`commitment→challenge`, `challenge→response`, ...).
    pub phase: &'static str,
    /// Virtual time the phase started, microseconds.
    pub from_us: u64,
    /// Virtual time the phase ended, microseconds.
    pub to_us: u64,
}

impl PhaseSpan {
    /// Phase duration in microseconds.
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.to_us.saturating_sub(self.from_us)
    }
}

/// The reconstructed causal chain behind one verdict transition.
#[derive(Debug, Clone)]
pub struct VerdictChain {
    /// The judging witness.
    pub witness: u32,
    /// The judged node.
    pub node: u32,
    /// Verdict code after the transition (see [`codes`]).
    pub verdict: u64,
    /// Misbehavior code attached to the transition.
    pub misbehavior: u64,
    /// Audit round the verdict was stamped in.
    pub round: u64,
    /// The causal prefix, oldest first, ending in the verdict transition.
    pub chain: Vec<Event>,
    /// Durations between consecutive chain events.
    pub phases: Vec<PhaseSpan>,
}

impl VerdictChain {
    /// Total virtual time from the first chain event to the verdict.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        match (self.chain.first(), self.chain.last()) {
            (Some(first), Some(last)) => last.at_us.saturating_sub(first.at_us),
            _ => 0,
        }
    }
}

/// All verdict transitions in the snapshot, in recording order.
#[must_use]
pub fn verdict_transitions(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::VerdictTransition)
        .copied()
        .collect()
}

/// The canonical label of the protocol phase between two causally adjacent
/// step kinds (`"→"` for pairs that are not a named phase). Shared by the
/// single-verdict chains here and the whole-run pair spans in
/// [`crate::assemble`].
#[must_use]
pub fn phase_label(from: EventKind, to: EventKind) -> &'static str {
    match (from, to) {
        (EventKind::Commitment, EventKind::Challenge) => "commitment→challenge",
        (EventKind::Commitment, EventKind::Evidence) => "commitment→evidence",
        (EventKind::Challenge, EventKind::Response) => "challenge→response",
        (EventKind::Response, EventKind::AuditReplay) => "response→replay",
        (EventKind::AuditReplay, EventKind::VerdictTransition) => "replay→verdict",
        (EventKind::Evidence, EventKind::VerdictTransition) => "evidence→verdict",
        (EventKind::Commitment, EventKind::VerdictTransition) => "commitment→verdict",
        (EventKind::Challenge, EventKind::VerdictTransition) => "challenge→verdict",
        (EventKind::Response, EventKind::VerdictTransition) => "response→verdict",
        (EventKind::AuditReplay, EventKind::Evidence) => "replay→evidence",
        (EventKind::Challenge, EventKind::Evidence) => "challenge→evidence",
        (EventKind::Response, EventKind::Evidence) => "response→evidence",
        _ => "→",
    }
}

/// Reconstructs the causal chain behind the **last** verdict transition the
/// witness recorded for `node`. Returns `None` if the snapshot holds no such
/// transition.
///
/// The chain is assembled from the protocol events the witness recorded for
/// the pair, taking for each protocol step the latest occurrence at or
/// before the verdict: `commitment → challenge → response → replay →
/// evidence → verdict`. Steps that did not occur (e.g. no evidence for a
/// locally replayed conviction) are simply absent, and the phase spans are
/// computed between the steps that remain.
#[must_use]
pub fn explain_verdict(events: &[Event], witness: u32, node: u32) -> Option<VerdictChain> {
    let verdict = events
        .iter()
        .rfind(|e| e.kind == EventKind::VerdictTransition && e.node == witness && e.peer == node)?;
    let (_, new_verdict, misbehavior) = codes::unpack_verdict(verdict.aux);

    const STEPS: [EventKind; 5] = [
        EventKind::Commitment,
        EventKind::Challenge,
        EventKind::Response,
        EventKind::AuditReplay,
        EventKind::Evidence,
    ];
    let mut chain: Vec<Event> = Vec::new();
    for step in STEPS {
        let hit = events.iter().rfind(|e| {
            e.kind == step
                && e.node == witness
                && (e.peer == node || step == EventKind::Evidence)
                && e.at_us <= verdict.at_us
        });
        if let Some(event) = hit {
            chain.push(*event);
        }
    }
    chain.sort_by_key(|e| e.at_us);
    chain.push(*verdict);

    let phases = chain
        .windows(2)
        .map(|pair| PhaseSpan {
            phase: phase_label(pair[0].kind, pair[1].kind),
            from_us: pair[0].at_us,
            to_us: pair[1].at_us,
        })
        .collect();

    Some(VerdictChain {
        witness,
        node,
        verdict: new_verdict,
        misbehavior,
        round: verdict.round,
        chain,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, at_us: u64, node: u32, peer: u32, aux: u64) -> Event {
        Event {
            kind,
            at_us,
            node,
            peer,
            aux,
            ..Event::EMPTY
        }
    }

    #[test]
    fn explains_a_full_audit_chain() {
        let verdict_aux = codes::pack_verdict(
            codes::VERDICT_TRUSTED,
            codes::VERDICT_EXPOSED,
            codes::MIS_EXEC_DIVERGENCE,
        );
        let events = vec![
            event(EventKind::Commitment, 10, 2, 0, 0),
            event(EventKind::Challenge, 40, 2, 0, 0),
            event(EventKind::Response, 70, 2, 0, 3),
            event(EventKind::AuditReplay, 90, 2, 0, codes::MIS_EXEC_DIVERGENCE),
            event(EventKind::VerdictTransition, 95, 2, 0, verdict_aux),
            // Noise for a different pair must not leak in.
            event(EventKind::Challenge, 50, 3, 1, 0),
        ];
        let chain = explain_verdict(&events, 2, 0).expect("chain");
        assert_eq!(chain.verdict, codes::VERDICT_EXPOSED);
        assert_eq!(chain.misbehavior, codes::MIS_EXEC_DIVERGENCE);
        let kinds: Vec<EventKind> = chain.chain.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Commitment,
                EventKind::Challenge,
                EventKind::Response,
                EventKind::AuditReplay,
                EventKind::VerdictTransition
            ]
        );
        assert_eq!(chain.total_us(), 85);
        let labels: Vec<&str> = chain.phases.iter().map(|p| p.phase).collect();
        assert_eq!(
            labels,
            vec![
                "commitment→challenge",
                "challenge→response",
                "response→replay",
                "replay→verdict"
            ]
        );
        assert_eq!(chain.phases[1].duration_us(), 30);
    }

    #[test]
    fn evidence_only_chain() {
        let verdict_aux = codes::pack_verdict(
            codes::VERDICT_TRUSTED,
            codes::VERDICT_EXPOSED,
            codes::MIS_CONFLICTING_COMMITMENTS,
        );
        let events = vec![
            event(EventKind::Commitment, 5, 4, 1, 0),
            event(EventKind::Evidence, 20, 4, 2, 0),
            event(EventKind::VerdictTransition, 21, 4, 1, verdict_aux),
        ];
        let chain = explain_verdict(&events, 4, 1).expect("chain");
        let kinds: Vec<EventKind> = chain.chain.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Commitment,
                EventKind::Evidence,
                EventKind::VerdictTransition
            ]
        );
        assert_eq!(chain.phases.last().unwrap().phase, "evidence→verdict");
    }

    #[test]
    fn missing_pair_returns_none() {
        assert!(explain_verdict(&[], 0, 1).is_none());
    }
}
