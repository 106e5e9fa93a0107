//! The log's hash chain, pinned from outside the crate.
//!
//! Both tables below were dumped from a build in which every `LogEntry`
//! still carried its own chained hash. They pin (i) every head a log
//! reports through append, prune, tamper, truncate and append again, and
//! (ii) the verdict a witness reaches on an audit response whose wire bytes
//! had one field of one entry altered: who stores or recomputes a link may
//! change, the chain and the verdicts may not.

use tnic_core::transform::{CounterMachine, StateMachine};
use tnic_device::attestation::{AttestationKernel, AttestationTiming};
use tnic_device::types::DeviceId;
use tnic_peerreview::audit::WitnessRecord;
use tnic_peerreview::log::{
    audit_round_content, content_digest, content_full, log_session, Authenticator, EntryKind,
    SecureLog,
};
use tnic_peerreview::Envelope;

fn hex8(bytes: &[u8; 32]) -> String {
    bytes[..8].iter().map(|b| format!("{b:02x}")).collect()
}

/// `head`, `forked_head` and `head_at(k)` for every `k` up to one past the
/// length (`-` where the log answers `None`).
fn heads_row(log: &SecureLog) -> String {
    let at: Vec<String> = (0..=log.len() + 1)
        .map(|k| log.head_at(k).map_or_else(|| "-".to_string(), |h| hex8(&h)))
        .collect();
    format!(
        "head {} fork {} at {}",
        hex8(&log.head()),
        hex8(&log.forked_head()),
        at.join(" ")
    )
}

#[test]
fn heads_through_append_prune_tamper_truncate_append() {
    let mut log = SecureLog::new();
    let mut rows = Vec::new();
    for i in 0..12u32 {
        let kind = match i % 4 {
            0 => EntryKind::Send { to: i },
            1 => EntryKind::Recv { from: i },
            2 => EntryKind::Exec,
            _ => EntryKind::AuditRound,
        };
        log.append(kind, i.to_le_bytes().repeat(i as usize + 1));
    }
    rows.push(heads_row(&log));
    assert_eq!(log.prune_to(5), 5);
    rows.push(heads_row(&log));
    assert!(log.tamper_and_rechain(7, b"forged".to_vec()));
    rows.push(heads_row(&log));
    log.truncate_tail(2);
    rows.push(heads_row(&log));
    for i in 0..3u32 {
        log.append(EntryKind::Checkpoint, vec![i as u8; 40]);
    }
    rows.push(heads_row(&log));
    assert_eq!(rows, HEADS);
}

/// After append ×12, `prune_to(5)`, `tamper_and_rechain(7, …)`,
/// `truncate_tail(2)` and append ×3 (first 8 bytes of each hash).
const HEADS: [&str; 5] = [
    "head 6aff4729ebc001bd fork 112ab8e5f05b306f at 0000000000000000 d70cc405a3928ba4 \
     0296bee46619c090 3c25207b3c901ce2 b38f591096c51f07 a54fedfffcffa94b a7d33ed2ac25df07 \
     6129c8a4fc310aee 1a1f32b041b5d038 faa1584fe658772b adce6624524cba26 55d74f9ff02ef1c3 \
     6aff4729ebc001bd -",
    "head 6aff4729ebc001bd fork 112ab8e5f05b306f at - - - - - a54fedfffcffa94b \
     a7d33ed2ac25df07 6129c8a4fc310aee 1a1f32b041b5d038 faa1584fe658772b adce6624524cba26 \
     55d74f9ff02ef1c3 6aff4729ebc001bd -",
    "head f907e9db29ab1516 fork 2a0438433a5853e7 at - - - - - a54fedfffcffa94b \
     a7d33ed2ac25df07 6129c8a4fc310aee 9a660137f40c1c34 0ea91e86dad5cf9d 87b476d0e21d38d3 \
     f48e5b76e426a535 f907e9db29ab1516 -",
    "head 87b476d0e21d38d3 fork d24d2503c5b36dc1 at - - - - - a54fedfffcffa94b \
     a7d33ed2ac25df07 6129c8a4fc310aee 9a660137f40c1c34 0ea91e86dad5cf9d 87b476d0e21d38d3 -",
    "head d3a95fe9befc3632 fork 828b605f8c7f895b at - - - - - a54fedfffcffa94b \
     a7d33ed2ac25df07 6129c8a4fc310aee 9a660137f40c1c34 0ea91e86dad5cf9d 87b476d0e21d38d3 \
     0f308e2ff47b8dad 5dbb0ecadde1e63e d3a95fe9befc3632 -",
];

/// An 8-entry segment of every kind a replay distinguishes, sealed at its
/// head by node 1.
fn sealed_segment() -> (Authenticator, Vec<u8>) {
    let mut machine = CounterMachine::new();
    let command = Envelope::App(b"incr".to_vec()).encode();
    let mut log = SecureLog::new();
    log.append(EntryKind::Recv { from: 9 }, content_full(&command));
    log.append(EntryKind::Exec, machine.execute(b"incr"));
    log.append(EntryKind::Send { to: 3 }, content_digest(b"ctl"));
    log.append(EntryKind::AuditRound, audit_round_content(1, &[[7u8; 32]]));
    log.append(EntryKind::Recv { from: 4 }, content_full(&command));
    log.append(EntryKind::Exec, machine.execute(b"incr"));
    log.append(EntryKind::Recv { from: 5 }, content_digest(b"ack"));
    log.append(EntryKind::Send { to: 6 }, content_full(&command));
    let mut kernel = AttestationKernel::new(DeviceId(1), AttestationTiming::zero());
    kernel.install_session_key(log_session(1), [1u8; 32]);
    let (seq, head) = (log.len(), log.head());
    let (attestation, _) = kernel
        .attest(log_session(1), &Authenticator::payload(1, seq, &head))
        .unwrap();
    let auth = Authenticator {
        node: 1,
        seq,
        head,
        attestation,
    };
    let wire = Envelope::Response {
        from_seq: 0,
        entries: log.entries().to_vec(),
    }
    .encode();
    (auth, wire)
}

/// What a fresh witness concludes from `wire`: a decode failure, `Ok`, or
/// the `Misbehavior` with its sequence number.
fn verdict(auth: &Authenticator, wire: &[u8]) -> String {
    match Envelope::decode(wire) {
        Ok(Envelope::Response { entries, .. }) => {
            let mut record = WitnessRecord::new(CounterMachine::new());
            match record.check_response(auth, &entries) {
                Ok(()) => "Ok".to_string(),
                Err(evidence) => format!("{evidence:?}"),
            }
        }
        Ok(other) => panic!("a response decoded as {other:?}"),
        Err(_) => "undecodable".to_string(),
    }
}

#[test]
fn one_byte_substitutions_in_a_sealed_response() {
    let (auth, wire) = sealed_segment();
    assert_eq!(verdict(&auth, &wire), "Ok");
    // magic 2, tag 1, from_seq 8, count 4; then per entry a 4-byte block
    // length and `seq 8 ‖ tag 1 ‖ peer 4 ‖ prev 32 ‖ len 4 ‖ content`.
    let mut at = 15;
    let mut rows = Vec::new();
    for position in 0..8 {
        let len = u32::from_le_bytes(wire[at..at + 4].try_into().unwrap()) as usize;
        let entry = at + 4;
        for (field, offset) in [
            ("seq", 0),
            ("kind", 8),
            ("peer", 9),
            ("prev", 13),
            ("content", 49),
        ] {
            let mut mutated = wire.clone();
            mutated[entry + offset] ^= 1;
            rows.push(format!("{position} {field}: {}", verdict(&auth, &mutated)));
        }
        at = entry + len;
    }
    assert_eq!(at, wire.len());
    assert_eq!(rows, SUBSTITUTIONS);
}

/// Entries 0–7 are Recv(app), Exec, Send(digest), AuditRound, Recv(app),
/// Exec, Recv(digest), Send(app). A flipped kind tag turns Recv and Exec
/// into each other and AuditRound into Checkpoint; Send's turns into no
/// tag at all. An `Exec`'s or `AuditRound`'s peer field is not read.
const SUBSTITUTIONS: [&str; 40] = [
    "0 seq: BrokenChain { at_seq: 0 }",
    "0 kind: ExecDivergence { at_seq: 0 }",
    "0 peer: BrokenChain { at_seq: 1 }",
    "0 prev: BrokenChain { at_seq: 0 }",
    "0 content: BrokenChain { at_seq: 1 }",
    "1 seq: BrokenChain { at_seq: 1 }",
    "1 kind: BrokenChain { at_seq: 2 }",
    "1 peer: Ok",
    "1 prev: BrokenChain { at_seq: 1 }",
    "1 content: ExecDivergence { at_seq: 1 }",
    "2 seq: BrokenChain { at_seq: 2 }",
    "2 kind: undecodable",
    "2 peer: BrokenChain { at_seq: 3 }",
    "2 prev: BrokenChain { at_seq: 2 }",
    "2 content: BrokenChain { at_seq: 3 }",
    "3 seq: BrokenChain { at_seq: 3 }",
    "3 kind: CheckpointMismatch { at_seq: 3 }",
    "3 peer: Ok",
    "3 prev: BrokenChain { at_seq: 3 }",
    "3 content: BrokenChain { at_seq: 4 }",
    "4 seq: BrokenChain { at_seq: 4 }",
    "4 kind: ExecDivergence { at_seq: 4 }",
    "4 peer: BrokenChain { at_seq: 5 }",
    "4 prev: BrokenChain { at_seq: 4 }",
    "4 content: BrokenChain { at_seq: 5 }",
    "5 seq: BrokenChain { at_seq: 5 }",
    "5 kind: BrokenChain { at_seq: 6 }",
    "5 peer: Ok",
    "5 prev: BrokenChain { at_seq: 5 }",
    "5 content: ExecDivergence { at_seq: 5 }",
    "6 seq: BrokenChain { at_seq: 6 }",
    "6 kind: ExecDivergence { at_seq: 6 }",
    "6 peer: BrokenChain { at_seq: 7 }",
    "6 prev: BrokenChain { at_seq: 6 }",
    "6 content: BrokenChain { at_seq: 7 }",
    "7 seq: BrokenChain { at_seq: 7 }",
    "7 kind: undecodable",
    "7 peer: HeadMismatch { committed_seq: 8 }",
    "7 prev: BrokenChain { at_seq: 7 }",
    "7 content: HeadMismatch { committed_seq: 8 }",
];
