//! Cluster-wide causal trace assembly.
//!
//! Each node's protocol history is recorded as a flat stream of [`Event`]s
//! (in the deterministic simulator, one ring holds the whole cluster; on a
//! real deployment, per-node rings are concatenated). [`TraceAssembler`]
//! merges those per-node histories into one causally ordered cluster
//! timeline:
//!
//! - **Per-node sequence**: events of the same node keep their recorded
//!   order (program order on that node's track).
//! - **Message edges**: a [`EventKind::Send`] on the sender and the
//!   [`EventKind::Recv`] of the same attested message on the receiver are
//!   joined on the `(sender, receiver, attestation counter)` key both
//!   already carry — the compact trace id that rides the existing attested
//!   header instead of a new wire field (see [`trace_id`]).
//!
//! The merge is a real topological sort over those happens-before edges,
//! not a timestamp sort: even with skewed or equal timestamps, a delivery
//! can never be ordered before its send. This generalizes
//! [`crate::timeline::explain_verdict`] — which reconstructs one verdict's
//! chain — to whole-run, cross-node timelines, and feeds the exporters in
//! [`crate::export`].

use crate::timeline::{phase_label, PhaseSpan};
use crate::{Event, EventKind, NONE};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Packs the cross-node trace identity of one attested message — the
/// `(origin node, attestation counter)` pair its wire header already
/// carries — into a single `u64` for exporters (Chrome trace flow ids).
///
/// The counter is kept modulo 2⁴⁰ (a simulated run records far fewer sends)
/// so the origin stays in the high bits and ids from different origins
/// cannot collide.
#[must_use]
pub fn trace_id(origin: u32, counter: u64) -> u64 {
    (u64::from(origin) << 40) | (counter & 0xFF_FFFF_FFFF)
}

/// One matched cross-node message edge: the send and its delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEdge {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Attestation counter of the message (the wire-level identity).
    pub counter: u64,
    /// Index of the [`EventKind::Send`] event in [`TraceAssembler::events`].
    pub send_idx: usize,
    /// Index of the matching [`EventKind::Recv`] event.
    pub recv_idx: usize,
}

impl MessageEdge {
    /// The packed flow id of this edge (see [`trace_id`]).
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        trace_id(self.from, self.counter)
    }
}

/// A protocol-phase span between two causally adjacent steps of one
/// (witness, audited node) pair — the per-pair generalization of
/// [`crate::timeline::VerdictChain::phases`] to every audit interaction in
/// a run (the spans are built from the per-pair protocol events, so they
/// follow the audited pair, not the wire message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSpan {
    /// The witness driving the interaction.
    pub witness: u32,
    /// The audited node.
    pub node: u32,
    /// Audit round of the span's opening event.
    pub round: u64,
    /// The phase (see [`crate::timeline::phase_label`]).
    pub span: PhaseSpan,
}

/// Merges recorded per-node event streams into a causally ordered
/// cluster-wide timeline. Construction copies the snapshot; all methods are
/// cold-path (allocation is fine here — the hot path ended when the
/// snapshot was taken).
#[derive(Debug, Clone)]
pub struct TraceAssembler {
    events: Vec<Event>,
}

impl TraceAssembler {
    /// Builds an assembler over a recorded snapshot. The input order is
    /// taken as the per-node program order (which ring recorders provide);
    /// cross-node order is *not* trusted and is re-derived from the message
    /// edges.
    #[must_use]
    pub fn new(events: impl Into<Vec<Event>>) -> Self {
        TraceAssembler {
            events: events.into(),
        }
    }

    /// The events in their recorded order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Distinct node ids appearing as an event's primary actor, ascending
    /// (the tracks of the assembled timeline).
    #[must_use]
    pub fn nodes(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self
            .events
            .iter()
            .map(|e| e.node)
            .filter(|&n| n != NONE)
            .collect();
        set.into_iter().collect()
    }

    /// Matches every delivery to its send on the `(sender, receiver,
    /// counter)` trace identity. Rejected deliveries (`Recv` with
    /// `aux != 0`) still edge to their send — a rejected message was still
    /// caused by it.
    #[must_use]
    pub fn message_edges(&self) -> Vec<MessageEdge> {
        let mut sends: BTreeMap<(u32, u32, u64), usize> = BTreeMap::new();
        for (idx, event) in self.events.iter().enumerate() {
            if event.kind == EventKind::Send {
                // Multicasts record one Send per receiver with a shared
                // counter; the key includes the receiver, so each edge is
                // distinct. Keep the first (earliest) send for duplicates.
                sends
                    .entry((event.node, event.peer, event.seq))
                    .or_insert(idx);
            }
        }
        let mut edges = Vec::new();
        for (idx, event) in self.events.iter().enumerate() {
            if event.kind != EventKind::Recv {
                continue;
            }
            if let Some(&send_idx) = sends.get(&(event.peer, event.node, event.seq)) {
                edges.push(MessageEdge {
                    from: event.peer,
                    to: event.node,
                    counter: event.seq,
                    send_idx,
                    recv_idx: idx,
                });
            }
        }
        edges
    }

    /// The causally ordered cluster timeline: a topological order of the
    /// happens-before graph (per-node program order plus send→recv edges),
    /// tie-broken by `(at_us, recorded index)` so concurrent events stay in
    /// a stable, time-plausible order. Every delivery appears after its
    /// send even when timestamps are skewed or equal.
    #[must_use]
    pub fn ordered(&self) -> Vec<Event> {
        let n = self.events.len();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_degree: Vec<usize> = vec![0; n];
        let mut add_edge = |from: usize, to: usize, in_degree: &mut Vec<usize>| {
            successors[from].push(to);
            in_degree[to] += 1;
        };

        // Per-node program order: chain each node's events as recorded.
        let mut last_of_node: BTreeMap<u32, usize> = BTreeMap::new();
        for (idx, event) in self.events.iter().enumerate() {
            if event.node == NONE {
                continue;
            }
            if let Some(&prev) = last_of_node.get(&event.node) {
                add_edge(prev, idx, &mut in_degree);
            }
            last_of_node.insert(event.node, idx);
        }
        // Cross-node message edges.
        for edge in self.message_edges() {
            add_edge(edge.send_idx, edge.recv_idx, &mut in_degree);
        }

        // Kahn's algorithm with a min-heap on (at_us, index): deterministic,
        // and as close to timestamp order as causality allows.
        let mut ready: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = (0..n)
            .filter(|&i| in_degree[i] == 0)
            .map(|i| std::cmp::Reverse((self.events[i].at_us, i)))
            .collect();
        let mut emitted = vec![false; n];
        let mut out = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse((_, idx))) = ready.pop() {
            emitted[idx] = true;
            out.push(self.events[idx]);
            for &next in &successors[idx] {
                in_degree[next] -= 1;
                if in_degree[next] == 0 {
                    ready.push(std::cmp::Reverse((self.events[next].at_us, next)));
                }
            }
        }
        // A cycle would mean an inconsistent recording (it cannot arise
        // from real send/recv edges); append the remainder in recorded
        // order rather than losing it.
        for (idx, was_emitted) in emitted.iter().enumerate() {
            if !was_emitted {
                out.push(self.events[idx]);
            }
        }
        out
    }

    /// Per-(witness, node) protocol-phase spans across the whole run: for
    /// every audited pair, consecutive steps of the commitment → challenge
    /// → response → replay → verdict ladder become one span each, labeled
    /// with [`phase_label`]. A re-sent challenge opens no span of its own:
    /// the pair's `challenge→response` span runs from its last challenge to
    /// the response that answers it.
    #[must_use]
    pub fn pair_spans(&self) -> Vec<PairSpan> {
        const LADDER: [EventKind; 5] = [
            EventKind::Commitment,
            EventKind::Challenge,
            EventKind::Response,
            EventKind::AuditReplay,
            EventKind::VerdictTransition,
        ];
        // Group the ladder events per (witness, node) pair in causal order.
        let mut per_pair: BTreeMap<(u32, u32), Vec<Event>> = BTreeMap::new();
        for event in self.ordered() {
            if LADDER.contains(&event.kind) && event.node != NONE && event.peer != NONE {
                per_pair
                    .entry((event.node, event.peer))
                    .or_default()
                    .push(event);
            }
        }
        let mut spans = Vec::new();
        for ((witness, node), events) in per_pair {
            for pair in events.windows(2) {
                // Only adjacent ladder steps form a phase (e.g. commitment
                // →challenge, challenge→response); unrelated adjacency
                // (verdict→commitment of the next round) is skipped.
                let from_pos = LADDER.iter().position(|&k| k == pair[0].kind);
                let to_pos = LADDER.iter().position(|&k| k == pair[1].kind);
                let (Some(from_pos), Some(to_pos)) = (from_pos, to_pos) else {
                    continue;
                };
                if to_pos <= from_pos {
                    continue;
                }
                spans.push(PairSpan {
                    witness,
                    node,
                    round: pair[0].round,
                    span: PhaseSpan {
                        phase: phase_label(pair[0].kind, pair[1].kind),
                        from_us: pair[0].at_us,
                        to_us: pair[1].at_us,
                    },
                });
            }
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, at_us: u64, node: u32, peer: u32, seq: u64) -> Event {
        Event {
            kind,
            at_us,
            node,
            peer,
            seq,
            ..Event::EMPTY
        }
    }

    #[test]
    fn trace_id_separates_origins() {
        assert_ne!(trace_id(1, 7), trace_id(2, 7));
        assert_ne!(trace_id(1, 7), trace_id(1, 8));
        assert_eq!(trace_id(3, 9), trace_id(3, 9));
    }

    #[test]
    fn recv_is_ordered_after_its_send_despite_clock_skew() {
        // Node 1's clock runs ahead: its delivery is stamped *earlier* than
        // node 0's send. A timestamp sort would invert causality; the
        // assembler must not.
        let events = vec![
            event(EventKind::Recv, 5, 1, 0, 42),
            event(EventKind::Send, 9, 0, 1, 42),
        ];
        let ordered = TraceAssembler::new(events).ordered();
        let send_pos = ordered.iter().position(|e| e.kind == EventKind::Send);
        let recv_pos = ordered.iter().position(|e| e.kind == EventKind::Recv);
        assert!(send_pos < recv_pos, "send must precede its delivery");
    }

    #[test]
    fn per_node_program_order_is_preserved() {
        let events = vec![
            event(EventKind::Attest, 10, 3, NONE, 1),
            event(EventKind::Attest, 10, 3, NONE, 2),
            event(EventKind::Attest, 10, 3, NONE, 3),
        ];
        let ordered = TraceAssembler::new(events.clone()).ordered();
        assert_eq!(ordered, events);
    }

    #[test]
    fn edges_match_on_the_full_identity() {
        let events = vec![
            event(EventKind::Send, 1, 0, 1, 7),
            event(EventKind::Send, 2, 0, 2, 7), // multicast sibling
            event(EventKind::Recv, 3, 1, 0, 7),
            event(EventKind::Recv, 4, 2, 0, 7),
            event(EventKind::Recv, 5, 1, 0, 99), // orphan: no send recorded
        ];
        let edges = TraceAssembler::new(events).message_edges();
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().any(|e| e.to == 1 && e.send_idx == 0));
        assert!(edges.iter().any(|e| e.to == 2 && e.send_idx == 1));
    }
}
