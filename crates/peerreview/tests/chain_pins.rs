//! The log's hash chain, pinned from outside the crate.
//!
//! The two tables below pin (i) every head a log reports through append,
//! prune, tamper, truncate and append again, and (ii) the verdict a witness
//! reaches on an audit response whose wire bytes had one field of one entry
//! altered: who stores or recomputes a link may change, the chain and the
//! verdicts may not. The verdict table was dumped from a build in which
//! every `LogEntry` still carried its own chained hash. The head table was
//! computed by a Python `hashlib` model of the same operations over the
//! one-pass link `sha256(prev ‖ seq_le ‖ tag ‖ peer_le ‖ content)`.

use tnic_core::transform::{CounterMachine, StateMachine};
use tnic_crypto::sha256::sha256;
use tnic_device::attestation::{AttestationKernel, AttestationTiming};
use tnic_device::types::DeviceId;
use tnic_peerreview::audit::WitnessRecord;
use tnic_peerreview::log::{
    audit_round_content, content_full, log_session, Authenticator, EntryKind, SecureLog,
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
    "head 35e78d6fc0d31993 fork 622f78e233bce829 at 0000000000000000 4b40f4aae7f49d71 \
     3f8b3fd3537afc84 6a47ef3451a1867b 777cbc2775d9dda5 3c2410fd3eff4fac 02d31961b740c8e8 \
     a98c9ae2555efc8d a90758436d0f9bd0 c10b65f9b96f06f7 6216d494a5de43ca 3ff46f522b076c8f \
     35e78d6fc0d31993 -",
    "head 35e78d6fc0d31993 fork 622f78e233bce829 at - - - - - 3c2410fd3eff4fac \
     02d31961b740c8e8 a98c9ae2555efc8d a90758436d0f9bd0 c10b65f9b96f06f7 6216d494a5de43ca \
     3ff46f522b076c8f 35e78d6fc0d31993 -",
    "head c83ac0561b887e76 fork 098d22440ab6a65c at - - - - - 3c2410fd3eff4fac \
     02d31961b740c8e8 a98c9ae2555efc8d 991ee60fbcdebf73 6ff70a3c49777917 534b5e02163c4967 \
     4c75a997d6bc2840 c83ac0561b887e76 -",
    "head 534b5e02163c4967 fork c1bb6d68c9dc32df at - - - - - 3c2410fd3eff4fac \
     02d31961b740c8e8 a98c9ae2555efc8d 991ee60fbcdebf73 6ff70a3c49777917 534b5e02163c4967 -",
    "head fcbe18e87df727ca fork 6aee2ed8f05982bf at - - - - - 3c2410fd3eff4fac \
     02d31961b740c8e8 a98c9ae2555efc8d 991ee60fbcdebf73 6ff70a3c49777917 534b5e02163c4967 \
     e450ac965e9ac7ee 41c006c84d767336 fcbe18e87df727ca -",
];

/// A `Send`/`Recv` content that carries a digest prefix (0) and the
/// payload's SHA-256 instead of the payload: the form control envelopes
/// were logged in before they were folded into the round digest, kept here
/// so this table still covers a non-replayed `Send`/`Recv` entry.
fn content_digest(payload: &[u8]) -> Vec<u8> {
    [&[0u8][..], &sha256(payload)].concat()
}

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
