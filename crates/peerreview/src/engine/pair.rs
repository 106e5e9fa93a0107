//! One (witness, auditee) pair and its lifecycle, in one transition
//! function. The pair is picked for an audit and challenges its auditee,
//! re-sends the challenge with exponential backoff, times out into
//! suspicion, takes the answer, and is dropped or handed back at
//! reassignment. [`AuditPair::step`] takes one [`PairEvent`] and returns
//! one [`PairAction`]; the engine's modules do the sending, the stats and
//! the trace events, and reach the pair's challenge state through `step`
//! alone. Replay and verdicts stay in the pair's [`WitnessRecord`].
//! [`PairTable`] holds every pair, indexed by witness id.

use super::*;

/// Gap, in audit rounds, before the first re-send of an unanswered
/// challenge; it doubles per attempt, capped at 2^16 times this.
const RETRY_BACKOFF_ROUNDS: u64 = 1;

/// Everything the engine keeps about one (witness, auditee) pair. Not
/// `Clone`: reassignment moves a kept pair, it never copies one.
pub(super) struct AuditPair<M: StateMachine> {
    /// The witness's view of the auditee.
    pub(super) record: WitnessRecord<M>,
    /// The last round the pair was picked for a fresh challenge (read by
    /// the coverage-window backstop of sampled auditing only).
    last_selected: Option<u64>,
    /// The challenge awaiting an answer, if any.
    outstanding: Option<Outstanding>,
}

/// A challenge awaiting its answer, with its timeout–retry–backoff state.
#[derive(Clone, Copy)]
struct Outstanding {
    /// The `(seq, head)` of the commitment under challenge: all the replay
    /// reads of it.
    target: (u64, [u8; 32]),
    /// When the challenge was first sent (audit latency).
    started: SimInstant,
    /// Round-end timeouts seen so far.
    attempts: u32,
    /// The audit round at which the challenge is re-sent next.
    resume_round: u64,
}

/// What happens to a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PairEvent {
    /// The round's audit pass reached the pair at `now`, with both ends
    /// up and the witness doing its duty; `sampled` says whether sampled
    /// auditing picked the pair this round (always true unsampled).
    Selected { sampled: bool, now: SimInstant },
    /// The round's audit pass reached the pair while its auditee is
    /// crashed or gone: nobody can answer, so nothing is sent.
    AuditeeDown,
    /// The audit round ended.
    RoundEnd,
    /// The auditee answered a challenge whose range started at
    /// `from_seq`.
    Answered { from_seq: u64 },
    /// The auditee's farewell covers its log up to `seq`.
    Farewell { seq: u64 },
    /// The record fast-forwarded to a certified checkpoint.
    FastForward,
    /// Reassignment handed the pair to its witness afresh; `carried` is
    /// the most recent round any outgoing witness picked the auditee.
    HandedBack { carried: Option<u64> },
    /// Reassignment kept the pair, with the same carried round.
    Kept { carried: Option<u64> },
}

/// What the engine does for a pair after an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum PairAction {
    /// Nothing.
    Nothing,
    /// Nothing: sampled auditing left the pair out of this round.
    SampledOut,
    /// Send a fresh challenge from the audited prefix up to `upto_seq`.
    Challenge { upto_seq: u64 },
    /// Re-send the unanswered challenge, from the audited prefix up to
    /// `upto_seq`, after `attempt` timeouts.
    Resend { upto_seq: u64, attempt: u32 },
    /// The challenge went unanswered past its retry budget: suspect the
    /// auditee.
    Suspect,
    /// The answer is for the challenge: replay it against `target`, the
    /// `(seq, head)` of the commitment challenged at `started`.
    Replay {
        target: (u64, [u8; 32]),
        started: SimInstant,
    },
}

impl<M: StateMachine> AuditPair<M> {
    pub(super) fn new(record: WitnessRecord<M>) -> Self {
        AuditPair {
            record,
            last_selected: None,
            outstanding: None,
        }
    }

    /// The last round the pair was picked for a fresh challenge.
    pub(super) fn last_selected(&self) -> Option<u64> {
        self.last_selected
    }

    /// The pair's one transition: `event` happened in audit round `round`
    /// under a budget of `retries` re-sends
    /// ([`EngineConfig::challenge_retries`]). A fresh challenge keeps the
    /// `(seq, head)` of the commitment it targets; nothing allocates.
    pub(super) fn step(&mut self, event: PairEvent, round: u64, retries: u32) -> PairAction {
        match (event, &mut self.outstanding) {
            // An exposed auditee is not audited again.
            (PairEvent::Selected { .. }, _) if self.record.verdict == Verdict::Exposed => {
                PairAction::Nothing
            }
            // A challenge whose backoff gap has elapsed is re-sent, sampled
            // or not: the answer may have been lost to a crash or an open
            // partition.
            (PairEvent::Selected { .. }, Some(out)) if round >= out.resume_round => {
                let (upto_seq, attempt) = (out.target.0, out.attempts);
                PairAction::Resend { upto_seq, attempt }
            }
            // A pair outside the round's sample is not challenged, so it
            // cannot be suspected for the round: only a pair with a
            // challenge in flight times out.
            (PairEvent::Selected { sampled: false, .. }, None) => PairAction::SampledOut,
            (PairEvent::Selected { now, .. }, None) => {
                self.last_selected = Some(round);
                let Some(target) = self.record.next_audit_target() else {
                    return PairAction::Nothing;
                };
                let upto_seq = target.seq;
                // The first round-end timeout, this same round, starts the
                // retry clock.
                self.outstanding = Some(Outstanding {
                    target: (upto_seq, target.head),
                    started: now,
                    attempts: 0,
                    resume_round: round,
                });
                PairAction::Challenge { upto_seq }
            }
            // Timeout–retry–backoff: while budget remains, keep the challenge
            // and schedule the next, exponentially later, re-send. A
            // challenge waiting out its gap has not timed out again.
            (PairEvent::RoundEnd, Some(out))
                if round >= out.resume_round && out.attempts < retries =>
            {
                out.attempts += 1;
                out.resume_round = round + (RETRY_BACKOFF_ROUNDS << (out.attempts - 1).min(16));
                PairAction::Nothing
            }
            // Budget spent (or zero): suspect. Without evidence the verdict
            // never exceeds Suspected, and a later valid answer clears it.
            (PairEvent::RoundEnd, Some(out)) if round >= out.resume_round => {
                self.outstanding = None;
                PairAction::Suspect
            }
            // The answer must echo the challenged range start, which is the
            // audited prefix: challenges start there and the prefix only
            // advances on a valid answer. A stale or forged range is ignored
            // and the challenge stays in flight.
            (PairEvent::Answered { from_seq }, challenge) => challenge
                .take_if(|_| from_seq == self.record.audited_seq)
                .map_or(PairAction::Nothing, |out| PairAction::Replay {
                    target: out.target,
                    started: out.started,
                }),
            // Everything else leaves the challenge alone: a down auditee, a
            // challenge still backing off, a round end with none due.
            (silent, challenge) => {
                match silent {
                    // A farewell subsumes any challenge it covers, and a
                    // fast-forward any at all (a certificate may arrive as
                    // the answer to one).
                    PairEvent::Farewell { seq } => {
                        challenge.take_if(|out| out.target.0 <= seq);
                    }
                    PairEvent::FastForward => *challenge = None,
                    // A handed-back pair starts fresh: no challenge, a full
                    // retry budget, and the outgoing set's audit clock.
                    PairEvent::HandedBack { carried } => {
                        (*challenge, self.last_selected) = (None, carried);
                    }
                    // A kept pair keeps its challenge and its own audit
                    // clock, and takes the carried one only if it has none.
                    PairEvent::Kept { carried } => {
                        self.last_selected = self.last_selected.or(carried)
                    }
                    _ => {}
                }
                PairAction::Nothing
            }
        }
    }
}

/// Every (witness, auditee) pair, indexed by witness id: per witness, its
/// auditee ids ascending and their pairs in the same order. A lookup
/// binary-searches the witness's compact id array, and iteration visits
/// the pairs in (witness, auditee) order.
pub(super) struct PairTable<M: StateMachine> {
    rows: Vec<PairRow<M>>,
}

/// One witness's pairs: `pairs[i]` is the pair with auditee `auditees[i]`.
struct PairRow<M: StateMachine> {
    auditees: Vec<u32>,
    pairs: Vec<AuditPair<M>>,
}

impl<M: StateMachine> PairTable<M> {
    /// An empty table for the witness ids `0..witnesses`.
    pub(super) fn new(witnesses: usize) -> Self {
        let rows = (0..witnesses)
            .map(|_| PairRow {
                auditees: Vec::new(),
                pairs: Vec::new(),
            })
            .collect();
        PairTable { rows }
    }

    /// The pair `(witness, node)` for every `witness` in `sets[node]`, each
    /// made by `pair` (in node order, then the order of the node's set),
    /// built in one pass into rows of exactly their final size.
    pub(super) fn from_witness_sets(
        sets: &[Vec<u32>],
        mut pair: impl FnMut() -> AuditPair<M>,
    ) -> Self {
        let mut sizes = vec![0; sets.len()];
        for &witness in sets.iter().flatten() {
            sizes[witness as usize] += 1;
        }
        let mut rows: Vec<PairRow<M>> = sizes
            .into_iter()
            .map(|size| PairRow {
                auditees: Vec::with_capacity(size),
                pairs: Vec::with_capacity(size),
            })
            .collect();
        for (node, set) in (0..).zip(sets) {
            for &witness in set {
                let row = &mut rows[witness as usize];
                row.auditees.push(node);
                row.pairs.push(pair());
            }
        }
        PairTable { rows }
    }

    /// Where the pair `(witness, node)` sits in the witness's row.
    fn find(&self, witness: u32, node: u32) -> Option<usize> {
        let row = self.rows.get(witness as usize)?;
        row.auditees.binary_search(&node).ok()
    }

    pub(super) fn get(&self, witness: u32, node: u32) -> Option<&AuditPair<M>> {
        let at = self.find(witness, node)?;
        Some(&self.rows[witness as usize].pairs[at])
    }

    pub(super) fn get_mut(&mut self, witness: u32, node: u32) -> Option<&mut AuditPair<M>> {
        let at = self.find(witness, node)?;
        Some(&mut self.rows[witness as usize].pairs[at])
    }

    pub(super) fn contains(&self, witness: u32, node: u32) -> bool {
        self.find(witness, node).is_some()
    }

    /// Puts `pair` in as `(witness, node)`, handing back the pair it
    /// replaces, if any.
    ///
    /// # Panics
    ///
    /// Panics if `witness` is outside the table's witness ids.
    pub(super) fn insert(
        &mut self,
        witness: u32,
        node: u32,
        pair: AuditPair<M>,
    ) -> Option<AuditPair<M>> {
        let row = &mut self.rows[witness as usize];
        match row.auditees.binary_search(&node) {
            Ok(at) => Some(std::mem::replace(&mut row.pairs[at], pair)),
            Err(at) => {
                row.auditees.insert(at, node);
                row.pairs.insert(at, pair);
                None
            }
        }
    }

    pub(super) fn remove(&mut self, witness: u32, node: u32) -> Option<AuditPair<M>> {
        let at = self.find(witness, node)?;
        let row = &mut self.rows[witness as usize];
        row.auditees.remove(at);
        Some(row.pairs.remove(at))
    }

    /// How many pairs the table holds.
    pub(super) fn len(&self) -> usize {
        self.rows.iter().map(|row| row.pairs.len()).sum()
    }

    /// Each witness with its auditee ids and their pairs, in id order.
    pub(super) fn rows(&self) -> impl Iterator<Item = (u32, &[u32], &[AuditPair<M>])> {
        (0..)
            .zip(&self.rows)
            .map(|(witness, row)| (witness, row.auditees.as_slice(), row.pairs.as_slice()))
    }

    /// Every pair as `(witness, node, pair)`, in (witness, node) order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u32, u32, &AuditPair<M>)> {
        self.rows().flat_map(|(witness, auditees, pairs)| {
            auditees
                .iter()
                .zip(pairs)
                .map(move |(&node, pair)| (witness, node, pair))
        })
    }

    /// [`PairTable::iter`] with each pair mutable.
    pub(super) fn iter_mut(&mut self) -> impl Iterator<Item = (u32, u32, &mut AuditPair<M>)> {
        (0..).zip(&mut self.rows).flat_map(|(witness, row)| {
            row.auditees
                .iter()
                .zip(&mut row.pairs)
                .map(move |(&node, pair)| (witness, node, pair))
        })
    }
}

#[cfg(test)]
mod tests {
    //! The pair checked exhaustively at small bounds (the small-scope
    //! hypothesis: most lifecycle bugs show up in short event sequences).
    //! Every sequence of up to [`L`] = 6 of the 9 [`Move`]s is walked
    //! depth first, the state of each prefix computed once, for each
    //! `challenge_retries` in `0..=3`: 9^6 = 531 441 sequences of length 6
    //! per budget, 2 125 764 in all (every shorter one is a prefix of
    //! these, checked on the way). The events that must change nothing —
    //! `AuditeeDown`, an answer to a range the pair did not challenge and
    //! `Kept` with no carried round — are not moves: every state the walk
    //! reaches is checked to ignore them. Every move's action is compared
    //! with a reference schedule in closed form: a challenge issued in
    //! round `r` is re-sent when picked in round `r + 2^k − 1`
    //! (`1 ≤ k ≤ retries`) and suspected at the end of round
    //! `r + 2^retries − 1`.

    use super::*;
    use crate::log::{log_session, Authenticator, EntryKind, LogEntry, SecureLog};
    use tnic_core::transform::CounterMachine;
    use tnic_device::attestation::{AttestedMessage, ATTESTATION_LEN};
    use tnic_device::types::DeviceId;

    impl<M: StateMachine> AuditPair<M> {
        /// Whether a challenge is in flight (read by the engine's tests).
        pub(in crate::engine) fn is_challenged(&self) -> bool {
            self.outstanding.is_some()
        }
    }

    /// The longest event sequence walked.
    const L: usize = 6;

    /// One step of a sequence: a [`PairEvent`], or what the engine does to
    /// the record around one.
    #[derive(Debug, Clone, Copy)]
    enum Move {
        /// `Selected`, picked by the sample.
        Select,
        /// `Selected`, left out of the sample.
        SampledOut,
        /// `RoundEnd`; the round then advances.
        RoundEnd,
        /// `Answered` with the audited prefix, replayed on the honest log.
        Answer,
        /// The auditee logs one more entry and the witness stores the
        /// commitment to it.
        Commit,
        /// The witness stores a commitment that conflicts with a held one:
        /// the auditee is exposed, a challenge may still be in flight.
        Equivocate,
        /// The honest tail is replayed up to the farewell, then `Farewell`.
        Farewell,
        /// A lagging, unexposed record fast-forwards to the committed
        /// length, then `FastForward`.
        FastForward,
        /// `HandedBack`.
        HandedBack,
    }

    const MOVES: [Move; 9] = [
        Move::Select,
        Move::SampledOut,
        Move::RoundEnd,
        Move::Answer,
        Move::Commit,
        Move::Equivocate,
        Move::Farewell,
        Move::FastForward,
        Move::HandedBack,
    ];

    /// A challenge as the reference schedule sees it.
    #[derive(Debug, Clone, Copy)]
    struct Challenge {
        round: u64,
        upto_seq: u64,
        resends: u32,
        /// Picks of the pair in the current round, the challenge excluded.
        picks: u32,
        /// Every round since the challenge picked the pair exactly once.
        regular: bool,
    }

    /// A pair, its auditee's committed length and the reference schedule.
    struct World {
        pair: AuditPair<CounterMachine>,
        round: u64,
        len: u64,
        challenge: Option<Challenge>,
        /// The auditee never equivocated.
        honest: bool,
        /// Some challenge ran out of its retry budget.
        missed: bool,
    }

    impl World {
        fn fork(&self) -> World {
            let pair = &self.pair;
            World {
                pair: AuditPair {
                    record: pair.record.clone(),
                    last_selected: pair.last_selected,
                    outstanding: pair.outstanding,
                },
                ..*self
            }
        }
    }

    /// The auditee's honest log, `L + 1` entries long, and the head after
    /// each prefix.
    struct Auditee {
        entries: Vec<LogEntry>,
        heads: Vec<[u8; 32]>,
    }

    impl Auditee {
        fn new() -> Self {
            let mut log = SecureLog::new();
            let mut heads = vec![log.head()];
            for i in 0..=L as u8 {
                log.append(EntryKind::Send { to: 0 }, vec![i]);
                heads.push(log.head());
            }
            Auditee {
                entries: log.entries().to_vec(),
                heads,
            }
        }

        /// The commitment to the first `seq` entries (the record never
        /// checks the seal, so it carries an empty one).
        fn commitment(&self, seq: u64, head: [u8; 32]) -> Authenticator {
            Authenticator {
                node: 1,
                seq,
                head,
                attestation: AttestedMessage {
                    mac: [0; ATTESTATION_LEN],
                    session: log_session(1),
                    device: DeviceId(1),
                    counter: seq,
                    payload: Vec::new(),
                },
            }
        }

        fn honest(&self, seq: u64) -> Authenticator {
            self.commitment(seq, self.heads[seq as usize])
        }

        fn segment(&self, from_seq: u64, upto_seq: u64) -> &[LogEntry] {
            &self.entries[from_seq as usize..upto_seq as usize]
        }
    }

    /// The round of the `k`-th re-send of a challenge issued in `round`.
    fn resend_round(round: u64, k: u32) -> u64 {
        round + (1 << k) - 1
    }

    /// The action the reference schedule expects for `event`.
    fn expected(world: &World, auditee: &Auditee, event: PairEvent, retries: u32) -> PairAction {
        let record = &world.pair.record;
        let from_seq = record.audited_seq;
        match (event, world.challenge) {
            (PairEvent::Selected { .. }, _) if record.verdict == Verdict::Exposed => {
                PairAction::Nothing
            }
            (PairEvent::Selected { .. }, Some(c)) => (0..=retries)
                .find(|&k| world.round == resend_round(c.round, k))
                .map_or(PairAction::Nothing, |attempt| PairAction::Resend {
                    upto_seq: c.upto_seq,
                    attempt,
                }),
            (PairEvent::Selected { sampled: false, .. }, None) => PairAction::SampledOut,
            (PairEvent::Selected { .. }, None) if world.len > from_seq => PairAction::Challenge {
                upto_seq: world.len,
            },
            (PairEvent::RoundEnd, Some(c)) if world.round == resend_round(c.round, retries) => {
                PairAction::Suspect
            }
            (PairEvent::Answered { from_seq: echoed }, Some(c)) if echoed == from_seq => {
                PairAction::Replay {
                    target: (c.upto_seq, auditee.heads[c.upto_seq as usize]),
                    started: SimInstant::from_nanos(c.round),
                }
            }
            _ => PairAction::Nothing,
        }
    }

    /// Applies `mv` to `world`, checks the action against the reference
    /// schedule and the pair's invariants, and advances the schedule.
    fn apply(world: &mut World, auditee: &Auditee, mv: Move, retries: u32) {
        let was_exposed = world.pair.record.verdict == Verdict::Exposed;
        let now = SimInstant::from_nanos(world.round);
        let audited = world.pair.record.audited_seq;
        let event = match mv {
            Move::Select => Some(PairEvent::Selected { sampled: true, now }),
            Move::SampledOut => Some(PairEvent::Selected {
                sampled: false,
                now,
            }),
            Move::RoundEnd => Some(PairEvent::RoundEnd),
            Move::Answer => Some(PairEvent::Answered { from_seq: audited }),
            Move::Commit => {
                world.len += 1;
                world
                    .pair
                    .record
                    .store_commitment(&auditee.honest(world.len).as_view());
                None
            }
            Move::Equivocate => {
                let forged = auditee.commitment(world.len, [0xee; 32]);
                world.pair.record.store_commitment(&forged.as_view());
                world.honest = false;
                None
            }
            Move::Farewell => {
                let seq = world.len;
                if !was_exposed && seq > audited {
                    let tail = auditee.segment(audited, seq);
                    let replayed = world.pair.record.check_response(&auditee.honest(seq), tail);
                    assert!(replayed.is_ok(), "an honest farewell tail replays");
                }
                Some(PairEvent::Farewell { seq })
            }
            Move::FastForward => {
                let cut = world.len;
                (!was_exposed && audited < cut).then(|| {
                    let head = auditee.heads[cut as usize];
                    let record = &mut world.pair.record;
                    record.fast_forward(cut, head, CounterMachine::new(), Vec::new());
                    PairEvent::FastForward
                })
            }
            Move::HandedBack => Some(PairEvent::HandedBack { carried: None }),
        };
        if let Some(event) = event {
            let want = expected(world, auditee, event, retries);
            let got = world.pair.step(event, world.round, retries);
            assert_eq!(got, want, "{event:?}");
            follow(world, event, got, auditee, retries);
        }
        let verdict = world.pair.record.verdict;
        assert!(
            !was_exposed || verdict == Verdict::Exposed,
            "Exposed is absorbing"
        );
        assert!(
            !world.honest || verdict != Verdict::Exposed,
            "an honest auditee is exposed"
        );
        assert!(
            !world.honest || world.missed || verdict == Verdict::Trusted,
            "an auditee that answered within its budget is {verdict:?}"
        );
        if let Move::HandedBack = mv {
            assert!(
                world.pair.outstanding.is_none(),
                "a handed-back pair starts fresh"
            );
        }
        quiet_events_change_nothing(world, retries);
    }

    /// The challenge state of a pair: `(target, started, attempts,
    /// resume_round)` of its challenge, and its last selection.
    type Lifecycle = (Option<(u64, SimInstant, u32, u64)>, Option<u64>);

    fn lifecycle(pair: &AuditPair<CounterMachine>) -> Lifecycle {
        let challenge = pair.outstanding.as_ref();
        let challenge = challenge.map(|o| (o.target.0, o.started, o.attempts, o.resume_round));
        (challenge, pair.last_selected)
    }

    /// The events that leave any pair as it is: a down auditee, an answer
    /// to a range the pair did not challenge, a kept pair with no carried
    /// round.
    fn quiet_events_change_nothing(world: &mut World, retries: u32) {
        let before = lifecycle(&world.pair);
        let from_seq = world.pair.record.audited_seq + 1;
        for event in [
            PairEvent::AuditeeDown,
            PairEvent::Answered { from_seq },
            PairEvent::Kept { carried: None },
        ] {
            assert_eq!(
                world.pair.step(event, world.round, retries),
                PairAction::Nothing
            );
            assert_eq!(lifecycle(&world.pair), before, "{event:?} changed the pair");
        }
    }

    /// Does what the engine does for `action`, and moves the reference
    /// schedule on.
    fn follow(
        world: &mut World,
        event: PairEvent,
        action: PairAction,
        auditee: &Auditee,
        retries: u32,
    ) {
        if let PairEvent::Selected { .. } = event {
            if let Some(c) = &mut world.challenge {
                c.picks += 1;
            }
        }
        match action {
            PairAction::Challenge { upto_seq, .. } => {
                world.challenge = Some(Challenge {
                    round: world.round,
                    upto_seq,
                    resends: 0,
                    picks: 0,
                    regular: true,
                });
            }
            PairAction::Resend { .. } => {
                if let Some(c) = &mut world.challenge {
                    c.resends += 1;
                }
            }
            PairAction::Suspect => {
                let c = world
                    .challenge
                    .take()
                    .expect("a suspicion ends a challenge");
                let regular =
                    world.honest && c.regular && c.picks == u32::from(c.round != world.round);
                assert!(
                    !regular || c.resends == retries,
                    "a silent, unexposed auditee picked every round is re-sent {} times, not {retries}",
                    c.resends
                );
                world.missed = true;
                world.pair.record.mark_unresponsive();
            }
            PairAction::Replay { target, .. } => {
                world.challenge = None;
                let from_seq = world.pair.record.audited_seq;
                let entries = auditee.segment(from_seq, target.0);
                let _ = world.pair.record.check_response(&target, entries);
                if world.honest {
                    assert_eq!(
                        world.pair.record.verdict,
                        Verdict::Trusted,
                        "an answer clears suspicion"
                    );
                }
            }
            PairAction::Nothing | PairAction::SampledOut => {}
        }
        match event {
            PairEvent::RoundEnd => {
                if let Some(c) = &mut world.challenge {
                    c.regular &= c.picks == u32::from(c.round != world.round);
                    c.picks = 0;
                }
                world.round += 1;
            }
            PairEvent::Farewell { .. } | PairEvent::FastForward | PairEvent::HandedBack { .. } => {
                world.challenge = None;
            }
            _ => {}
        }
    }

    /// Walks every extension of `world` by up to `L - depth` moves;
    /// returns the number of sequences of length `L`.
    fn walk(
        world: &World,
        auditee: &Auditee,
        depth: usize,
        path: &mut Vec<Move>,
        retries: u32,
    ) -> u64 {
        if depth == L {
            return 1;
        }
        let mut leaves = 0;
        for mv in MOVES {
            let mut next = world.fork();
            path.push(mv);
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apply(&mut next, auditee, mv, retries);
            }));
            if let Err(cause) = checked {
                eprintln!("retries {retries}, sequence {path:?}");
                std::panic::resume_unwind(cause);
            }
            leaves += walk(&next, auditee, depth + 1, path, retries);
            path.pop();
        }
        leaves
    }

    #[test]
    fn every_event_sequence_up_to_l_keeps_accuracy_completeness_and_fresh_handbacks() {
        let auditee = Auditee::new();
        let mut total = 0;
        for retries in 0..=3 {
            // The witness holds a commitment to the first entry.
            let mut record = WitnessRecord::new(CounterMachine::new());
            record.store_commitment(&auditee.honest(1).as_view());
            let world = World {
                pair: AuditPair::new(record),
                round: 0,
                len: 1,
                challenge: None,
                honest: true,
                missed: false,
            };
            let sequences = walk(&world, &auditee, 0, &mut Vec::new(), retries);
            assert_eq!(sequences, 9u64.pow(L as u32));
            total += sequences;
        }
        assert_eq!(total, 2_125_764);
    }

    #[test]
    fn a_silent_auditee_is_suspected_after_its_retries_on_the_backoff_schedule() {
        let auditee = Auditee::new();
        // Past 17 retries the gap stops doubling at 2^16 rounds.
        for retries in 0..=18 {
            let mut record = WitnessRecord::new(CounterMachine::new());
            record.store_commitment(&auditee.honest(1).as_view());
            let mut pair = AuditPair::new(record);
            let mut resends = Vec::new();
            let mut round = 0;
            loop {
                let now = SimInstant::from_nanos(round);
                match pair.step(PairEvent::Selected { sampled: true, now }, round, retries) {
                    PairAction::Challenge { .. } => assert_eq!(round, 0),
                    PairAction::Resend { .. } => resends.push(round),
                    action => assert_eq!(action, PairAction::Nothing),
                }
                if pair.step(PairEvent::RoundEnd, round, retries) == PairAction::Suspect {
                    break;
                }
                round += 1;
            }
            let mut due = 0;
            let schedule: Vec<u64> = (0..retries)
                .map(|k| {
                    due += 1 << k.min(16);
                    due
                })
                .collect();
            assert_eq!(resends, schedule, "retries {retries}");
            assert_eq!(
                round, due,
                "retries {retries}: suspected in the last re-send's round"
            );
            assert_eq!(pair.record.verdict, Verdict::Trusted, "the caller suspects");
        }
    }

    /// The pair table against a `BTreeMap` keyed by (witness, auditee): a
    /// seeded run of inserts, removes and in-place updates, with the
    /// iteration order, every lookup and the size equal after each one.
    /// Each pair is told apart by its `last_selected` round.
    #[test]
    fn pair_table_matches_a_btreemap_under_random_inserts_removes_and_updates() {
        use std::collections::BTreeMap;
        const WITNESSES: u32 = 5;
        const NODES: u32 = 9;
        let tagged = |tag: u64| {
            let mut pair = AuditPair::new(WitnessRecord::new(CounterMachine::new()));
            pair.last_selected = Some(tag);
            pair
        };
        let mut table = PairTable::new(WITNESSES as usize);
        let mut model: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut rng = DetRng::new(0x7ab1e);
        for tag in 0..2_000 {
            let (witness, node) = (
                rng.next_below(WITNESSES.into()) as u32,
                rng.next_below(NODES.into()) as u32,
            );
            match rng.next_below(3) {
                0 => {
                    let old = table.insert(witness, node, tagged(tag));
                    assert_eq!(
                        old.and_then(|p| p.last_selected),
                        model.insert((witness, node), tag)
                    );
                }
                1 => {
                    let old = table.remove(witness, node);
                    assert_eq!(
                        old.and_then(|p| p.last_selected),
                        model.remove(&(witness, node))
                    );
                }
                _ => {
                    if let Some(pair) = table.get_mut(witness, node) {
                        pair.last_selected = Some(tag);
                    }
                    if let Some(old) = model.get_mut(&(witness, node)) {
                        *old = tag;
                    }
                }
            }
            let listed: Vec<((u32, u32), u64)> = table
                .iter()
                .map(|(w, n, pair)| ((w, n), pair.last_selected.unwrap()))
                .collect();
            let expected: Vec<((u32, u32), u64)> =
                model.iter().map(|(&key, &tag)| (key, tag)).collect();
            assert_eq!(listed, expected, "after operation {tag}");
            let listed_mut: Vec<(u32, u32)> = table.iter_mut().map(|(w, n, _)| (w, n)).collect();
            assert!(listed_mut.iter().eq(model.keys()));
            assert_eq!(table.len(), model.len());
            for (w, n) in (0..WITNESSES + 1).flat_map(|w| (0..NODES + 1).map(move |n| (w, n))) {
                let found = table.get(w, n).map(|pair| pair.last_selected.unwrap());
                assert_eq!(found, model.get(&(w, n)).copied(), "lookup ({w}, {n})");
                assert_eq!(table.contains(w, n), found.is_some());
            }
        }
        assert!(!model.is_empty(), "the run ends with pairs in the table");
    }
}
