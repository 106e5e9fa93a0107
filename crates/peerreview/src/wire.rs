//! Wire envelopes of the accountability protocol.
//!
//! Every payload that travels through the cluster while PeerReview is active
//! carries a one-byte type tag so that (i) nodes can dispatch application
//! traffic vs. audit traffic, and (ii) witnesses replaying a log can tell
//! which `Recv` entries fed the application state machine. The envelopes are:
//!
//! * [`Envelope::App`] — an application command for the node's state machine.
//! * [`Envelope::Announce`] — a node publishing a log commitment
//!   ([`Authenticator`]) to one of its witnesses.
//! * [`Envelope::Gossip`] — a witness forwarding a commitment it received to
//!   a fellow witness (evidence transfer leg 1; transferable authentication
//!   makes the forwarded seal verifiable by the third party).
//! * [`Envelope::Challenge`] — a witness asking the audited node for the log
//!   segment between two commitments.
//! * [`Envelope::Response`] — the audited node's segment.
//! * [`Envelope::Evidence`] — a verifiable proof of misbehaviour
//!   (conflicting commitments) broadcast between witnesses (leg 2).
//! * [`Envelope::Piggyback`] — any of the above *plus* a small batch of
//!   commitments riding along, the control-plane optimisation that makes
//!   fault-free rounds nearly announce-free.
//! * [`Envelope::Join`] / [`Envelope::Leave`] / [`Envelope::Recover`] —
//!   membership-lifecycle traffic: a joiner's first sealed commitment, a
//!   leaver's final commitment plus unaudited log tail, and a
//!   crash-recovered node's re-announcement of its current head.
//!
//! # The piggyback protocol
//!
//! Dedicated `Announce`/`Gossip` messages dominate the accountability
//! overhead (~7.5 control messages per application message on a 4-node
//! all-to-all deployment). With piggybacking enabled, a node never sends a
//! commitment in its own message if it can help it: pending authenticators
//! are queued per destination and the cluster's
//! [`wrap_outbound`](tnic_core::accountability::AccountabilityLayer::wrap_outbound)
//! hook wraps the next outbound envelope to that destination as
//! `Piggyback { riders, inner }`, where `riders` carries up to
//! [`MAX_PIGGYBACK_RIDERS`] queued authenticators (batching matters when the
//! witness set is larger than the application traffic's fan-out — with one
//! rider per message the end-of-round flush still pays dedicated sends).
//! Application traffic carries announcements to the node's first witness;
//! witnesses relay ([`PiggybackRider::gossip`] `= true`) directly received
//! commitments to fellow witnesses on *their* own outbound traffic
//! (application sends and audit responses). Whatever has not found a ride by
//! the end of the round's workload is flushed in dedicated messages before
//! challenges are issued, so within an audit round every witness holds every
//! commitment. Because commitments ride the traffic they precede, the audit
//! pipeline trails the workload by one round; `PeerReview::drain_audits`
//! closes that tail at the end of a finite run.
//!
//! A piggybacked envelope never nests another piggyback: decoding enforces
//! `inner ≠ Piggyback`, bounding recursion to one level.

use crate::checkpoint::{CheckpointMark, Cosignature, MAX_COSIGNERS};
use crate::log::{Authenticator, LogEntry};
use tnic_device::error::DeviceError;

/// Magic prefix on every envelope. Payload classification (is this an
/// application command the replay must execute?) must not rest on a single
/// sniffed byte: arbitrary non-envelope traffic (e.g. a chain-replication
/// proof whose first byte happens to be 0) would otherwise be replayed as a
/// command and falsely expose an honest node.
const ENVELOPE_MAGIC: [u8; 2] = [0xA7, 0x5E];

/// Maximum number of authenticators one [`Envelope::Piggyback`] ride
/// carries. Bounded so a single application message cannot be inflated
/// arbitrarily (and so decode can cap preallocation on untrusted input).
pub const MAX_PIGGYBACK_RIDERS: usize = 4;

const TAG_APP: u8 = 0;
const TAG_ANNOUNCE: u8 = 1;
const TAG_GOSSIP: u8 = 2;
const TAG_CHALLENGE: u8 = 3;
const TAG_RESPONSE: u8 = 4;
const TAG_EVIDENCE: u8 = 5;
const TAG_PIGGYBACK: u8 = 6;
const TAG_CKPT_PROPOSE: u8 = 7;
const TAG_CKPT_COSIGN: u8 = 8;
const TAG_CKPT_COMMIT: u8 = 9;
const TAG_JOIN: u8 = 10;
const TAG_LEAVE: u8 = 11;
const TAG_RECOVER: u8 = 12;
const TAG_CHALLENGE_BATCH: u8 = 13;
const TAG_RESPONSE_BATCH: u8 = 14;

/// A typed accountability-protocol payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// An application command.
    App(Vec<u8>),
    /// A log commitment published by the audited node itself.
    Announce(Authenticator),
    /// A commitment forwarded witness-to-witness.
    Gossip(Authenticator),
    /// An audit challenge for entries `from_seq..upto_seq`.
    Challenge {
        /// First sequence number requested.
        from_seq: u64,
        /// One past the last sequence number requested (the commitment's
        /// `seq`).
        upto_seq: u64,
    },
    /// The audited node's response: the requested log segment.
    Response {
        /// First sequence number of the segment the node claims to return.
        from_seq: u64,
        /// The returned entries.
        entries: Vec<LogEntry>,
    },
    /// Proof of equivocation: two validly sealed commitments by the same
    /// node for the same sequence number with different heads.
    Evidence {
        /// One conflicting commitment.
        a: Authenticator,
        /// The other conflicting commitment.
        b: Authenticator,
    },
    /// A batch of commitments riding on another envelope (the piggyback
    /// protocol, see the module docs). Each rider is independently either a
    /// direct announcement by the committing node itself (the receiver
    /// relays it onwards) or a witness-to-witness relay (not re-relayed).
    Piggyback {
        /// The commitments riding along (1 to [`MAX_PIGGYBACK_RIDERS`]).
        riders: Vec<PiggybackRider>,
        /// The envelope the commitments ride on (never itself a piggyback).
        inner: Box<Envelope>,
    },
    /// A node proposing a checkpoint of its audited log prefix to one of
    /// its witnesses (see [`crate::checkpoint`]).
    CheckpointPropose(CheckpointMark),
    /// A witness's cosignature over a proposed checkpoint, returned to the
    /// proposing node.
    CheckpointCosign(Cosignature),
    /// The certified checkpoint: the mark plus a quorum of cosignatures,
    /// broadcast by the node to its witnesses so they can garbage-collect
    /// covered commitments (and fast-forward if they lagged the quorum).
    CheckpointCommit {
        /// The certified checkpoint mark.
        mark: CheckpointMark,
        /// The quorum of cosignatures (1 to [`MAX_COSIGNERS`]).
        cosigs: Vec<Cosignature>,
    },
    /// A joining node's first sealed commitment, sent to its new witnesses
    /// so auditing starts from the joiner's (empty or bootstrapped) log head.
    Join(
        /// The joiner's sealed initial log commitment.
        Authenticator,
    ),
    /// A departing node's farewell: its final sealed commitment plus the
    /// still-unaudited log tail, so witnesses can close the audit of a node
    /// that will never answer another challenge.
    Leave {
        /// The leaver's final sealed log commitment.
        auth: Authenticator,
        /// The unaudited log tail (up to the commitment's `seq`).
        entries: Vec<LogEntry>,
    },
    /// A crash-recovered node re-announcing its current sealed log head to
    /// its witnesses. A tampered recovery conflicts with the pre-crash
    /// commitments the witnesses still hold and is exposed as equivocation;
    /// an honest recovery merely resumes the audit from where it stalled.
    Recover(
        /// The recovering node's sealed current log commitment.
        Authenticator,
    ),
    /// A coalesced round batch of audit challenges from one witness to the
    /// same peer (the scaled audit path: the engine merges every challenge
    /// it owes a peer this round into one envelope instead of one message
    /// per challenge). Each element is a `(from_seq, upto_seq)` range with
    /// [`Envelope::Challenge`] semantics.
    ChallengeBatch {
        /// The challenged ranges (1 or more).
        challenges: Vec<(u64, u64)>,
    },
    /// The audited node's coalesced answer to a [`Envelope::ChallengeBatch`]:
    /// one `(from_seq, entries)` log segment per answered challenge, each
    /// with [`Envelope::Response`] semantics and verified independently by
    /// the receiving witness.
    ResponseBatch {
        /// The returned segments (1 or more).
        responses: Vec<(u64, Vec<LogEntry>)>,
    },
}

/// One commitment riding on a piggybacked envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct PiggybackRider {
    /// The commitment riding along.
    pub auth: Authenticator,
    /// Whether the commitment is relayed (gossip) rather than announced by
    /// its own node.
    pub gossip: bool,
}

fn push_block(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn read_block(bytes: &[u8]) -> Option<(&[u8], usize)> {
    if bytes.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
    if bytes.len() < 4 + len {
        return None;
    }
    Some((&bytes[4..4 + len], 4 + len))
}

/// The shared body format of [`Envelope::Response`] and each element of
/// [`Envelope::ResponseBatch`]: `from_seq` (8 bytes LE), entry count (4 bytes
/// LE), then one length-prefixed block per entry.
fn encode_response_body(out: &mut Vec<u8>, from_seq: u64, entries: &[LogEntry]) {
    out.extend_from_slice(&from_seq.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    push_entry_blocks(out, entries);
}

/// One length-prefixed block per entry, each written straight into `out`
/// (the block's length is patched in after the entry).
fn push_entry_blocks(out: &mut Vec<u8>, entries: &[LogEntry]) {
    for entry in entries {
        let start = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        entry.encode_into(out);
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Strictly decodes one response body (see [`encode_response_body`]); the
/// whole slice must be consumed.
fn decode_response_body(rest: &[u8]) -> Result<(u64, Vec<LogEntry>), DeviceError> {
    let malformed = || DeviceError::MalformedMessage("malformed envelope");
    if rest.len() < 12 {
        return Err(malformed());
    }
    let from_seq = u64::from_le_bytes(rest[..8].try_into().expect("sized"));
    let count = u32::from_le_bytes(rest[8..12].try_into().expect("sized")) as usize;
    let mut off = 12;
    // `count` is untrusted wire data (a Byzantine node may claim u32::MAX
    // entries); cap the preallocation by what the buffer could possibly
    // hold — each entry block needs ≥ 4 + 49 bytes.
    let mut entries = Vec::with_capacity(count.min(rest.len() / 53));
    for _ in 0..count {
        let (block, used) = read_block(&rest[off..]).ok_or_else(malformed)?;
        let (entry, entry_used) = LogEntry::decode(block).ok_or_else(malformed)?;
        if entry_used != block.len() {
            return Err(malformed());
        }
        entries.push(entry);
        off += used;
    }
    if off != rest.len() {
        return Err(malformed());
    }
    Ok((from_seq, entries))
}

impl Envelope {
    /// Serialises the envelope.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&ENVELOPE_MAGIC);
        match self {
            Envelope::App(command) => {
                out.push(TAG_APP);
                out.extend_from_slice(command);
            }
            Envelope::Announce(auth) => {
                out.push(TAG_ANNOUNCE);
                out.extend_from_slice(&auth.encode());
            }
            Envelope::Gossip(auth) => {
                out.push(TAG_GOSSIP);
                out.extend_from_slice(&auth.encode());
            }
            Envelope::Challenge { from_seq, upto_seq } => {
                out.push(TAG_CHALLENGE);
                out.extend_from_slice(&from_seq.to_le_bytes());
                out.extend_from_slice(&upto_seq.to_le_bytes());
            }
            Envelope::Response { from_seq, entries } => {
                out.push(TAG_RESPONSE);
                encode_response_body(&mut out, *from_seq, entries);
            }
            Envelope::Evidence { a, b } => {
                out.push(TAG_EVIDENCE);
                push_block(&mut out, &a.encode());
                push_block(&mut out, &b.encode());
            }
            Envelope::Piggyback { riders, inner } => {
                debug_assert!(
                    !matches!(**inner, Envelope::Piggyback { .. }),
                    "piggybacks never nest"
                );
                return Envelope::piggyback_raw(riders, &inner.encode());
            }
            Envelope::CheckpointPropose(mark) => {
                out.push(TAG_CKPT_PROPOSE);
                out.extend_from_slice(&mark.encode());
            }
            Envelope::CheckpointCosign(cosig) => {
                out.push(TAG_CKPT_COSIGN);
                out.extend_from_slice(&cosig.encode());
            }
            Envelope::CheckpointCommit { mark, cosigs } => {
                debug_assert!(
                    !cosigs.is_empty() && cosigs.len() <= MAX_COSIGNERS,
                    "a certificate carries 1..={MAX_COSIGNERS} cosignatures"
                );
                out.push(TAG_CKPT_COMMIT);
                push_block(&mut out, &mark.encode());
                out.push(cosigs.len() as u8);
                for cosig in cosigs {
                    push_block(&mut out, &cosig.encode());
                }
            }
            Envelope::Join(auth) => {
                out.push(TAG_JOIN);
                out.extend_from_slice(&auth.encode());
            }
            Envelope::Leave { auth, entries } => {
                out.push(TAG_LEAVE);
                push_block(&mut out, &auth.encode());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                push_entry_blocks(&mut out, entries);
            }
            Envelope::Recover(auth) => {
                out.push(TAG_RECOVER);
                out.extend_from_slice(&auth.encode());
            }
            Envelope::ChallengeBatch { challenges } => {
                let mut batched = Vec::new();
                Envelope::encode_challenge_batch_into(&mut batched, challenges);
                return batched;
            }
            Envelope::ResponseBatch { responses } => {
                let parts: Vec<(u64, &[LogEntry])> = responses
                    .iter()
                    .map(|(from_seq, entries)| (*from_seq, entries.as_slice()))
                    .collect();
                let mut batched = Vec::new();
                Envelope::encode_response_batch_into(&mut batched, &parts);
                return batched;
            }
        }
        out
    }

    /// Encodes a [`Envelope::Response`] over a *borrowed* log segment directly
    /// into `out` (cleared first). The audit hot loop answers challenges with
    /// this plus a reused scratch buffer instead of cloning the segment into
    /// an owned envelope; the bytes are identical to `encode()`.
    pub fn encode_response_into(out: &mut Vec<u8>, from_seq: u64, entries: &[LogEntry]) {
        out.clear();
        out.extend_from_slice(&ENVELOPE_MAGIC);
        out.push(TAG_RESPONSE);
        encode_response_body(out, from_seq, entries);
    }

    /// Encodes a [`Envelope::ChallengeBatch`] directly into `out` (cleared
    /// first); the bytes are identical to `encode()`.
    ///
    /// # Panics
    ///
    /// Panics if `challenges` is empty — the engine never coalesces zero
    /// challenges, and decode rejects an empty batch.
    pub fn encode_challenge_batch_into(out: &mut Vec<u8>, challenges: &[(u64, u64)]) {
        assert!(!challenges.is_empty(), "a batch carries >= 1 challenge");
        out.clear();
        out.extend_from_slice(&ENVELOPE_MAGIC);
        out.push(TAG_CHALLENGE_BATCH);
        out.extend_from_slice(&(challenges.len() as u32).to_le_bytes());
        for (from_seq, upto_seq) in challenges {
            out.extend_from_slice(&from_seq.to_le_bytes());
            out.extend_from_slice(&upto_seq.to_le_bytes());
        }
    }

    /// Encodes a [`Envelope::ResponseBatch`] over *borrowed* log segments
    /// directly into `out` (cleared first); the bytes are identical to
    /// `encode()`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty — the engine never coalesces zero segments,
    /// and decode rejects an empty batch.
    pub fn encode_response_batch_into(out: &mut Vec<u8>, parts: &[(u64, &[LogEntry])]) {
        assert!(!parts.is_empty(), "a batch carries >= 1 response");
        out.clear();
        out.extend_from_slice(&ENVELOPE_MAGIC);
        out.push(TAG_RESPONSE_BATCH);
        out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
        for (from_seq, entries) in parts {
            let start = out.len();
            out.extend_from_slice(&0u32.to_le_bytes());
            encode_response_body(out, *from_seq, entries);
            let body_len = (out.len() - start - 4) as u32;
            out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
        }
    }

    /// Builds the wire form of a [`Envelope::Piggyback`] directly over the
    /// already-encoded `inner` envelope bytes, without decoding them. This is
    /// the hot-path constructor used by the cluster's `wrap_outbound` hook:
    /// the pending authenticators are spliced in front of the outbound
    /// payload as-is.
    ///
    /// # Panics
    ///
    /// Panics if `riders` is empty or exceeds [`MAX_PIGGYBACK_RIDERS`] — the
    /// ride queue pops at most that many.
    #[must_use]
    pub fn piggyback_raw(riders: &[PiggybackRider], inner: &[u8]) -> Vec<u8> {
        assert!(
            !riders.is_empty() && riders.len() <= MAX_PIGGYBACK_RIDERS,
            "a ride carries 1..={MAX_PIGGYBACK_RIDERS} commitments"
        );
        let mut out = Vec::with_capacity(2 + 2 + riders.len() * (1 + 4 + 160) + inner.len());
        out.extend_from_slice(&ENVELOPE_MAGIC);
        out.push(TAG_PIGGYBACK);
        out.push(riders.len() as u8);
        for rider in riders {
            out.push(u8::from(rider.gossip));
            push_block(&mut out, &rider.auth.encode());
        }
        out.extend_from_slice(inner);
        out
    }

    /// Whether `raw` carries the envelope magic (and can therefore be offered
    /// a piggyback ride — wrapping arbitrary non-envelope payloads would
    /// corrupt them for their receiver).
    #[must_use]
    pub fn is_envelope(raw: &[u8]) -> bool {
        raw.starts_with(&ENVELOPE_MAGIC)
    }

    /// Whether `raw` already is a piggyback envelope (a ride carries at most
    /// one commitment; nesting is rejected on decode).
    #[must_use]
    pub fn is_piggyback(raw: &[u8]) -> bool {
        matches!(raw.strip_prefix(&ENVELOPE_MAGIC), Some(rest) if rest.first() == Some(&TAG_PIGGYBACK))
    }

    /// Parses an envelope.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] on truncated or unknown
    /// payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeviceError> {
        let malformed = || DeviceError::MalformedMessage("malformed envelope");
        let bytes = bytes
            .strip_prefix(&ENVELOPE_MAGIC)
            .ok_or(DeviceError::MalformedMessage("missing envelope magic"))?;
        let (&tag, rest) = bytes.split_first().ok_or_else(malformed)?;
        match tag {
            TAG_APP => Ok(Envelope::App(rest.to_vec())),
            TAG_ANNOUNCE => Ok(Envelope::Announce(Authenticator::decode(rest)?)),
            TAG_GOSSIP => Ok(Envelope::Gossip(Authenticator::decode(rest)?)),
            TAG_CHALLENGE => {
                if rest.len() != 16 {
                    return Err(malformed());
                }
                Ok(Envelope::Challenge {
                    from_seq: u64::from_le_bytes(rest[..8].try_into().expect("sized")),
                    upto_seq: u64::from_le_bytes(rest[8..].try_into().expect("sized")),
                })
            }
            TAG_RESPONSE => {
                let (from_seq, entries) = decode_response_body(rest)?;
                Ok(Envelope::Response { from_seq, entries })
            }
            TAG_EVIDENCE => {
                let (block_a, used) = read_block(rest).ok_or_else(malformed)?;
                let (block_b, used_b) = read_block(&rest[used..]).ok_or_else(malformed)?;
                if used + used_b != rest.len() {
                    return Err(malformed());
                }
                Ok(Envelope::Evidence {
                    a: Authenticator::decode(block_a)?,
                    b: Authenticator::decode(block_b)?,
                })
            }
            TAG_PIGGYBACK => {
                let (&count, mut rest) = rest.split_first().ok_or_else(malformed)?;
                let count = count as usize;
                if count == 0 || count > MAX_PIGGYBACK_RIDERS {
                    return Err(DeviceError::MalformedMessage("bad piggyback rider count"));
                }
                let mut riders = Vec::with_capacity(count);
                for _ in 0..count {
                    let (&flag, after_flag) = rest.split_first().ok_or_else(malformed)?;
                    let gossip = match flag {
                        0 => false,
                        1 => true,
                        _ => return Err(malformed()),
                    };
                    let (auth_block, used) = read_block(after_flag).ok_or_else(malformed)?;
                    riders.push(PiggybackRider {
                        auth: Authenticator::decode(auth_block)?,
                        gossip,
                    });
                    rest = &after_flag[used..];
                }
                if Envelope::is_piggyback(rest) {
                    return Err(DeviceError::MalformedMessage("nested piggyback"));
                }
                Ok(Envelope::Piggyback {
                    riders,
                    inner: Box::new(Envelope::decode(rest)?),
                })
            }
            TAG_CKPT_PROPOSE => Ok(Envelope::CheckpointPropose(CheckpointMark::decode(rest)?)),
            TAG_CKPT_COSIGN => Ok(Envelope::CheckpointCosign(Cosignature::decode(rest)?)),
            TAG_CKPT_COMMIT => {
                let (mark_block, used) = read_block(rest).ok_or_else(malformed)?;
                let mark = CheckpointMark::decode(mark_block)?;
                let rest = &rest[used..];
                let (&count, mut rest) = rest.split_first().ok_or_else(malformed)?;
                let count = count as usize;
                if count == 0 || count > MAX_COSIGNERS {
                    return Err(DeviceError::MalformedMessage("bad cosignature count"));
                }
                let mut cosigs = Vec::with_capacity(count.min(rest.len() / 4));
                for _ in 0..count {
                    let (block, used) = read_block(rest).ok_or_else(malformed)?;
                    cosigs.push(Cosignature::decode(block)?);
                    rest = &rest[used..];
                }
                if !rest.is_empty() {
                    return Err(malformed());
                }
                Ok(Envelope::CheckpointCommit { mark, cosigs })
            }
            TAG_JOIN => Ok(Envelope::Join(Authenticator::decode(rest)?)),
            TAG_LEAVE => {
                let (auth_block, used) = read_block(rest).ok_or_else(malformed)?;
                let auth = Authenticator::decode(auth_block)?;
                let rest = &rest[used..];
                if rest.len() < 4 {
                    return Err(malformed());
                }
                let count = u32::from_le_bytes(rest[..4].try_into().expect("sized")) as usize;
                let mut off = 4;
                // As in `Response`: `count` is untrusted, cap preallocation
                // by what the buffer could possibly hold.
                let mut entries = Vec::with_capacity(count.min(rest.len() / 53));
                for _ in 0..count {
                    let (block, used) = read_block(&rest[off..]).ok_or_else(malformed)?;
                    let (entry, entry_used) = LogEntry::decode(block).ok_or_else(malformed)?;
                    if entry_used != block.len() {
                        return Err(malformed());
                    }
                    entries.push(entry);
                    off += used;
                }
                if off != rest.len() {
                    return Err(malformed());
                }
                Ok(Envelope::Leave { auth, entries })
            }
            TAG_RECOVER => Ok(Envelope::Recover(Authenticator::decode(rest)?)),
            TAG_CHALLENGE_BATCH => {
                if rest.len() < 4 {
                    return Err(malformed());
                }
                let count = u32::from_le_bytes(rest[..4].try_into().expect("sized")) as usize;
                let body = &rest[4..];
                // `count` is untrusted: the strict length equality both
                // rejects forged counts and bounds the preallocation below
                // (count <= body.len() / 16 once it holds).
                if count == 0 || Some(body.len()) != count.checked_mul(16) {
                    return Err(DeviceError::MalformedMessage("bad challenge batch"));
                }
                let mut challenges = Vec::with_capacity(count);
                for chunk in body.chunks_exact(16) {
                    challenges.push((
                        u64::from_le_bytes(chunk[..8].try_into().expect("sized")),
                        u64::from_le_bytes(chunk[8..].try_into().expect("sized")),
                    ));
                }
                Ok(Envelope::ChallengeBatch { challenges })
            }
            TAG_RESPONSE_BATCH => {
                if rest.len() < 4 {
                    return Err(malformed());
                }
                let count = u32::from_le_bytes(rest[..4].try_into().expect("sized")) as usize;
                if count == 0 {
                    return Err(DeviceError::MalformedMessage("empty response batch"));
                }
                let mut off = 4;
                // Untrusted `count`: each element needs at least a 4-byte
                // block prefix plus a 12-byte response header.
                let mut responses = Vec::with_capacity(count.min(rest.len() / 16));
                for _ in 0..count {
                    let (block, used) = read_block(&rest[off..]).ok_or_else(malformed)?;
                    responses.push(decode_response_body(block)?);
                    off += used;
                }
                if off != rest.len() {
                    return Err(malformed());
                }
                Ok(Envelope::ResponseBatch { responses })
            }
            _ => Err(DeviceError::MalformedMessage("unknown envelope tag")),
        }
    }

    /// The application command carried by an [`Envelope::App`] payload —
    /// directly or under one [`Envelope::Piggyback`] wrapper — if the raw
    /// bytes are one (used during log replay). Allocation-free: the command
    /// is a subslice of `raw`.
    #[must_use]
    pub fn app_command(raw: &[u8]) -> Option<&[u8]> {
        match raw.strip_prefix(&ENVELOPE_MAGIC)?.split_first() {
            Some((&TAG_APP, command)) => Some(command),
            Some((&TAG_PIGGYBACK, rest)) => {
                // Skip the rider batch (per rider: gossip flag plus the
                // length-prefixed authenticator block), then peel exactly one
                // level (nesting is rejected by `decode`, and a nested
                // wrapper here would return `None` through the recursive
                // call's tag check anyway).
                // Mirror `decode`'s validation: replay must execute exactly
                // the commands the live dispatch would have executed.
                let (&count, mut rest) = rest.split_first()?;
                if count == 0 || count as usize > MAX_PIGGYBACK_RIDERS {
                    return None;
                }
                for _ in 0..count {
                    let (_, after_flag) = rest.split_first()?;
                    let (_, used) = read_block(after_flag)?;
                    rest = &after_flag[used..];
                }
                if Envelope::is_piggyback(rest) {
                    return None;
                }
                Envelope::app_command(rest)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{log_session, EntryKind, SecureLog};
    use tnic_device::attestation::{AttestationKernel, AttestationTiming};
    use tnic_device::types::DeviceId;

    fn sealed_auth(node: u32) -> Authenticator {
        let mut kernel = AttestationKernel::new(DeviceId(node), AttestationTiming::zero());
        kernel.install_session_key(log_session(node), [node as u8; 32]);
        let mut log = SecureLog::new();
        log.append(EntryKind::Exec, vec![node as u8]);
        let payload = Authenticator::payload(node, log.len(), &log.head());
        let (attestation, _) = kernel.attest(log_session(node), &payload).unwrap();
        Authenticator {
            node,
            seq: log.len(),
            head: log.head(),
            attestation,
        }
    }

    #[test]
    fn app_round_trip_and_command_extraction() {
        let env = Envelope::App(b"incr".to_vec());
        let bytes = env.encode();
        assert_eq!(Envelope::decode(&bytes).unwrap(), env);
        assert_eq!(Envelope::app_command(&bytes), Some(b"incr".as_slice()));
        assert_eq!(
            Envelope::app_command(
                &Envelope::Challenge {
                    from_seq: 0,
                    upto_seq: 1
                }
                .encode()
            ),
            None
        );
    }

    #[test]
    fn announce_gossip_round_trip() {
        let auth = sealed_auth(2);
        for env in [Envelope::Announce(auth.clone()), Envelope::Gossip(auth)] {
            assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
        }
    }

    #[test]
    fn challenge_response_round_trip() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Send { to: 1 }, b"a".to_vec());
        log.append(EntryKind::Recv { from: 1 }, b"b".to_vec());
        let challenge = Envelope::Challenge {
            from_seq: 3,
            upto_seq: 9,
        };
        assert_eq!(Envelope::decode(&challenge.encode()).unwrap(), challenge);
        let response = Envelope::Response {
            from_seq: 0,
            entries: log.entries().to_vec(),
        };
        assert_eq!(Envelope::decode(&response.encode()).unwrap(), response);
    }

    #[test]
    fn evidence_round_trip() {
        let env = Envelope::Evidence {
            a: sealed_auth(1),
            b: sealed_auth(1),
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn zero_leading_foreign_payload_is_not_an_app_command() {
        // A non-envelope payload whose first byte happens to be 0 (e.g. a
        // little-endian counter) must not be mistaken for an application
        // command during log replay.
        let foreign = [0u8, 0, 0, 0, 42, 9, 9];
        assert_eq!(Envelope::app_command(&foreign), None);
        assert!(Envelope::decode(&foreign).is_err());
    }

    #[test]
    fn huge_claimed_entry_count_rejected_without_allocation() {
        // A Byzantine response claiming u32::MAX entries with an empty body
        // must fail fast instead of preallocating gigabytes.
        let mut bytes = ENVELOPE_MAGIC.to_vec();
        bytes.push(TAG_RESPONSE);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Envelope::decode(&bytes).is_err());
    }

    fn rider(node: u32, gossip: bool) -> PiggybackRider {
        PiggybackRider {
            auth: sealed_auth(node),
            gossip,
        }
    }

    fn sealed_mark(node: u32) -> CheckpointMark {
        let mut kernel = AttestationKernel::new(DeviceId(node), AttestationTiming::zero());
        kernel.install_session_key(log_session(node), [node as u8; 32]);
        let head = [5u8; 32];
        let digest = [6u8; 32];
        let payload = CheckpointMark::payload(node, 1, 8, &head, &digest);
        let (attestation, _) = kernel.attest(log_session(node), &payload).unwrap();
        CheckpointMark {
            node,
            epoch: 1,
            cut: 8,
            head,
            state_digest: digest,
            attestation,
        }
    }

    fn sealed_cosign(witness: u32, mark: &CheckpointMark) -> Cosignature {
        let mut kernel = AttestationKernel::new(DeviceId(witness), AttestationTiming::zero());
        kernel.install_session_key(log_session(witness), [witness as u8; 32]);
        let payload = Cosignature::payload(
            witness,
            mark.node,
            mark.epoch,
            mark.cut,
            &mark.head,
            &mark.state_digest,
        );
        let (attestation, _) = kernel.attest(log_session(witness), &payload).unwrap();
        Cosignature {
            witness,
            node: mark.node,
            epoch: mark.epoch,
            cut: mark.cut,
            head: mark.head,
            state_digest: mark.state_digest,
            attestation,
        }
    }

    #[test]
    fn checkpoint_envelopes_round_trip() {
        let mark = sealed_mark(1);
        let propose = Envelope::CheckpointPropose(mark.clone());
        assert_eq!(Envelope::decode(&propose.encode()).unwrap(), propose);
        let cosign = Envelope::CheckpointCosign(sealed_cosign(2, &mark));
        assert_eq!(Envelope::decode(&cosign.encode()).unwrap(), cosign);
        for quorum in 1..=3u32 {
            let commit = Envelope::CheckpointCommit {
                mark: mark.clone(),
                cosigs: (0..quorum).map(|w| sealed_cosign(w + 2, &mark)).collect(),
            };
            assert_eq!(Envelope::decode(&commit.encode()).unwrap(), commit);
        }
        // Checkpoint control traffic is never mistaken for app commands.
        assert_eq!(Envelope::app_command(&propose.encode()), None);
        // Checkpoint envelopes can carry piggyback rides like any other.
        let ridden = Envelope::Piggyback {
            riders: vec![rider(3, true)],
            inner: Box::new(propose),
        };
        assert_eq!(Envelope::decode(&ridden.encode()).unwrap(), ridden);
    }

    #[test]
    fn checkpoint_commit_cosig_count_out_of_range_rejected() {
        let mark = sealed_mark(1);
        let commit = Envelope::CheckpointCommit {
            mark: mark.clone(),
            cosigs: vec![sealed_cosign(2, &mark)],
        };
        let bytes = commit.encode();
        // Find the count byte: after magic+tag and the length-prefixed mark.
        let mark_len = u32::from_le_bytes(bytes[3..7].try_into().unwrap()) as usize;
        let count_at = 3 + 4 + mark_len;
        assert_eq!(bytes[count_at], 1);
        let mut zero = bytes.clone();
        zero[count_at] = 0;
        assert!(Envelope::decode(&zero).is_err());
        let mut over = bytes.clone();
        over[count_at] = (MAX_COSIGNERS + 1) as u8;
        assert!(Envelope::decode(&over).is_err());
        // Trailing garbage after the last cosignature is rejected.
        let mut padded = bytes;
        padded.push(0);
        assert!(Envelope::decode(&padded).is_err());
    }

    #[test]
    fn membership_envelopes_round_trip() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Recv { from: 2 }, b"cmd".to_vec());
        log.append(EntryKind::Exec, b"out".to_vec());
        let join = Envelope::Join(sealed_auth(5));
        assert_eq!(Envelope::decode(&join.encode()).unwrap(), join);
        let recover = Envelope::Recover(sealed_auth(1));
        assert_eq!(Envelope::decode(&recover.encode()).unwrap(), recover);
        for tail in [0, 1, 2] {
            let leave = Envelope::Leave {
                auth: sealed_auth(1),
                entries: log.entries()[..tail].to_vec(),
            };
            assert_eq!(Envelope::decode(&leave.encode()).unwrap(), leave, "{tail}");
        }
        // Membership control traffic is never mistaken for app commands and
        // can carry piggyback rides like any other envelope.
        assert_eq!(Envelope::app_command(&join.encode()), None);
        let ridden = Envelope::Piggyback {
            riders: vec![rider(3, true)],
            inner: Box::new(recover),
        };
        assert_eq!(Envelope::decode(&ridden.encode()).unwrap(), ridden);
    }

    #[test]
    fn leave_with_huge_claimed_entry_count_rejected_without_allocation() {
        let leave = Envelope::Leave {
            auth: sealed_auth(1),
            entries: Vec::new(),
        };
        let mut bytes = leave.encode();
        // Forge the entry count at the end (the empty tail's count field).
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Envelope::decode(&bytes).is_err());
        // Trailing garbage after the tail is rejected.
        let mut padded = leave.encode();
        padded.push(0);
        assert!(Envelope::decode(&padded).is_err());
    }

    #[test]
    fn piggyback_round_trip_over_every_inner_kind() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Exec, b"out".to_vec());
        let inners = [
            Envelope::App(b"incr".to_vec()),
            Envelope::Announce(sealed_auth(1)),
            Envelope::Challenge {
                from_seq: 2,
                upto_seq: 5,
            },
            Envelope::Response {
                from_seq: 0,
                entries: log.entries().to_vec(),
            },
            Envelope::Evidence {
                a: sealed_auth(1),
                b: sealed_auth(1),
            },
        ];
        for inner in inners {
            for gossip in [false, true] {
                let env = Envelope::Piggyback {
                    riders: vec![rider(3, gossip)],
                    inner: Box::new(inner.clone()),
                };
                let bytes = env.encode();
                assert!(Envelope::is_piggyback(&bytes));
                assert_eq!(Envelope::decode(&bytes).unwrap(), env);
            }
        }
    }

    #[test]
    fn piggyback_batch_round_trips_up_to_the_cap() {
        for batch in 1..=MAX_PIGGYBACK_RIDERS {
            let riders: Vec<PiggybackRider> =
                (0..batch).map(|i| rider(i as u32, i % 2 == 1)).collect();
            let env = Envelope::Piggyback {
                riders,
                inner: Box::new(Envelope::App(b"incr".to_vec())),
            };
            let bytes = env.encode();
            assert_eq!(Envelope::decode(&bytes).unwrap(), env, "batch {batch}");
            assert_eq!(Envelope::app_command(&bytes), Some(b"incr".as_slice()));
        }
    }

    #[test]
    fn piggyback_rider_count_out_of_range_rejected() {
        // Zero riders.
        let mut zero = ENVELOPE_MAGIC.to_vec();
        zero.push(TAG_PIGGYBACK);
        zero.push(0);
        zero.extend_from_slice(&Envelope::App(b"x".to_vec()).encode());
        assert!(Envelope::decode(&zero).is_err());
        assert_eq!(Envelope::app_command(&zero), None);
        // One over the cap: forge the count byte on an otherwise valid ride.
        let riders: Vec<PiggybackRider> = (0..MAX_PIGGYBACK_RIDERS)
            .map(|i| rider(i as u32, false))
            .collect();
        let mut over = Envelope::piggyback_raw(&riders, &Envelope::App(b"x".to_vec()).encode());
        over[3] = (MAX_PIGGYBACK_RIDERS + 1) as u8;
        assert!(Envelope::decode(&over).is_err());
        assert_eq!(Envelope::app_command(&over), None);
    }

    #[test]
    fn piggyback_raw_matches_enum_encoding_and_app_command_peels() {
        let riders = vec![rider(2, false), rider(1, true)];
        let inner = Envelope::App(b"incr".to_vec());
        let raw = Envelope::piggyback_raw(&riders, &inner.encode());
        let enum_encoded = Envelope::Piggyback {
            riders,
            inner: Box::new(inner),
        }
        .encode();
        assert_eq!(raw, enum_encoded);
        // Replay sees through the wrapper without allocating.
        assert_eq!(Envelope::app_command(&raw), Some(b"incr".as_slice()));
        // Non-app inner payloads stay control traffic.
        let ctl = Envelope::piggyback_raw(
            &[rider(2, true)],
            &Envelope::Challenge {
                from_seq: 0,
                upto_seq: 1,
            }
            .encode(),
        );
        assert_eq!(Envelope::app_command(&ctl), None);
    }

    #[test]
    fn nested_piggyback_rejected() {
        let riders = vec![rider(1, false)];
        let once = Envelope::piggyback_raw(&riders, &Envelope::App(b"x".to_vec()).encode());
        let twice = Envelope::piggyback_raw(&riders, &once);
        assert!(Envelope::decode(&twice).is_err());
        assert_eq!(Envelope::app_command(&twice), None);
    }

    /// A three-entry log whose entries the `Response`, `Leave` and
    /// `ResponseBatch` exemplars carry.
    fn exemplar_entries() -> Vec<LogEntry> {
        let mut log = SecureLog::new();
        log.append(EntryKind::Recv { from: 1 }, b"payload".to_vec());
        log.append(EntryKind::Exec, b"out".to_vec());
        log.append(EntryKind::Send { to: 2 }, b"fwd".to_vec());
        log.entries().to_vec()
    }

    /// Exemplars of the application, piggyback, checkpoint and membership
    /// tags.
    fn structured_exemplars() -> Vec<(u8, Envelope)> {
        let entries = exemplar_entries();
        let mark = sealed_mark(1);
        vec![
            (TAG_APP, Envelope::App(b"incr".to_vec())),
            (
                TAG_PIGGYBACK,
                Envelope::Piggyback {
                    riders: vec![rider(1, false)],
                    inner: Box::new(Envelope::App(b"incr".to_vec())),
                },
            ),
            (
                TAG_PIGGYBACK,
                Envelope::Piggyback {
                    riders: vec![rider(2, true), rider(3, false), rider(1, true)],
                    inner: Box::new(Envelope::Response {
                        from_seq: 0,
                        entries: entries[..2].to_vec(),
                    }),
                },
            ),
            (TAG_CKPT_PROPOSE, Envelope::CheckpointPropose(mark.clone())),
            (
                TAG_CKPT_COSIGN,
                Envelope::CheckpointCosign(sealed_cosign(2, &mark)),
            ),
            (
                TAG_CKPT_COMMIT,
                Envelope::CheckpointCommit {
                    mark: mark.clone(),
                    cosigs: vec![sealed_cosign(2, &mark), sealed_cosign(3, &mark)],
                },
            ),
            (TAG_JOIN, Envelope::Join(sealed_auth(4))),
            (
                TAG_LEAVE,
                Envelope::Leave {
                    auth: sealed_auth(1),
                    entries: entries[..2].to_vec(),
                },
            ),
            (TAG_RECOVER, Envelope::Recover(sealed_auth(2))),
        ]
    }

    /// Exemplars of the two batch tags, bare and riding a piggyback.
    fn batch_exemplars() -> Vec<(u8, Envelope)> {
        let entries = exemplar_entries();
        vec![
            (
                TAG_CHALLENGE_BATCH,
                Envelope::ChallengeBatch {
                    challenges: vec![(0, 2), (2, 5), (5, 9)],
                },
            ),
            (
                TAG_RESPONSE_BATCH,
                Envelope::ResponseBatch {
                    responses: vec![(0, entries[..2].to_vec()), (2, entries.clone())],
                },
            ),
            (
                TAG_PIGGYBACK,
                Envelope::Piggyback {
                    riders: vec![rider(2, true)],
                    inner: Box::new(Envelope::ChallengeBatch {
                        challenges: vec![(0, 1)],
                    }),
                },
            ),
        ]
    }

    /// Exemplars of the commitment, single-audit and evidence tags.
    fn bare_exemplars() -> Vec<(u8, Envelope)> {
        vec![
            (TAG_ANNOUNCE, Envelope::Announce(sealed_auth(2))),
            (TAG_GOSSIP, Envelope::Gossip(sealed_auth(3))),
            (
                TAG_CHALLENGE,
                Envelope::Challenge {
                    from_seq: 2,
                    upto_seq: 9,
                },
            ),
            (
                TAG_RESPONSE,
                Envelope::Response {
                    from_seq: 0,
                    entries: exemplar_entries(),
                },
            ),
            (
                TAG_EVIDENCE,
                Envelope::Evidence {
                    a: sealed_auth(1),
                    b: sealed_auth(1),
                },
            ),
        ]
    }

    /// Decoder totality: each exemplar goes through every strict
    /// truncation and every single-bit flip. Decoding may fail or succeed
    /// (a flip inside a command or a digest is legal), but `decode` and
    /// `app_command` never panic, a truncation that
    /// decodes re-encodes to exactly that prefix (a cut inside an `App`
    /// command is a legal, shorter command — every structured field is
    /// length-delimited), and every successful decode survives its own
    /// re-encoding unchanged.
    fn assert_decodes_totally(exemplars: &[(u8, Envelope)]) {
        let survives_reencoding = |bytes: &[u8]| -> Option<Envelope> {
            let _ = Envelope::app_command(bytes);
            let env = Envelope::decode(bytes).ok()?;
            assert_eq!(Envelope::decode(&env.encode()).ok().as_ref(), Some(&env));
            Some(env)
        };
        for (tag, exemplar) in exemplars {
            let bytes = exemplar.encode();
            assert_eq!(bytes[2], *tag);
            assert_eq!(survives_reencoding(&bytes).as_ref(), Some(exemplar));
            for cut in 0..bytes.len() {
                if let Some(env) = survives_reencoding(&bytes[..cut]) {
                    assert_eq!(env.encode(), &bytes[..cut], "tag {tag}, prefix {cut}");
                }
            }
            let mut mutated = bytes.clone();
            for bit in 0..bytes.len() * 8 {
                mutated[bit / 8] ^= 1 << (bit % 8);
                survives_reencoding(&mutated);
                mutated[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// The three exemplar tables together hold every wire tag; this test
    /// runs the tags the other two totality tests do not.
    #[test]
    fn every_tag_decodes_totally_under_truncation_and_bit_flips() {
        use std::collections::BTreeSet;
        let covered: BTreeSet<u8> = [structured_exemplars(), batch_exemplars(), bare_exemplars()]
            .iter()
            .flatten()
            .map(|(tag, _)| *tag)
            .collect();
        assert_eq!(covered, (TAG_APP..=TAG_RESPONSE_BATCH).collect());
        assert_decodes_totally(&bare_exemplars());
    }

    #[test]
    fn truncation_and_bitflip_fuzz_never_panics_and_truncations_fail_clean() {
        assert_decodes_totally(&structured_exemplars());
    }

    #[test]
    fn batch_truncation_and_bitflip_fuzz_never_panics() {
        assert_decodes_totally(&batch_exemplars());
    }

    /// Proptest-style fuzz of hostile evidence envelopes: truncations,
    /// random bit flips and systematic reseal-tampering (the accuser's own
    /// device sealing a claim about another node) must either fail to decode
    /// or decode into a pair that fails verification — and feeding every
    /// surviving decode through a live engine in both commit modes must
    /// never expose a correct node (only, at most, the Byzantine accuser).
    #[test]
    fn hostile_evidence_fuzz_never_exposes_a_correct_node() {
        use crate::engine::{AccountabilityEngine, CounterApp, EngineConfig};
        use tnic_core::api::{Cluster, NodeId};
        use tnic_net::adversary::FaultPlan;
        use tnic_net::stack::NetworkStackKind;
        use tnic_sim::rng::DetRng;
        use tnic_tee::profile::Baseline;

        let mut rng = DetRng::new(0xE51D);
        // Genuine halves sealed by the accused node (1), plus variants a
        // forging accuser (3) could fabricate.
        let accused = 1u32;
        let accuser = 3u32;
        let mut accused_kernel =
            AttestationKernel::new(DeviceId(accused), AttestationTiming::zero());
        accused_kernel.install_session_key(log_session(accused), [accused as u8; 32]);
        let mut accuser_kernel =
            AttestationKernel::new(DeviceId(accuser), AttestationTiming::zero());
        accuser_kernel.install_session_key(log_session(accuser), [accuser as u8; 32]);
        let mut log = SecureLog::new();
        log.append(EntryKind::Exec, b"out".to_vec());
        let real = {
            let payload = Authenticator::payload(accused, log.len(), &log.head());
            let (attestation, _) = accused_kernel
                .attest(log_session(accused), &payload)
                .unwrap();
            Authenticator {
                node: accused,
                seq: log.len(),
                head: log.head(),
                attestation,
            }
        };
        // Reseal-tampered: the accuser's device seals a forged head while
        // the envelope claims it covers the accused's log session.
        let resealed = {
            let mut head = log.head();
            head[0] ^= 0xFF;
            let payload = Authenticator::payload(accused, log.len(), &head);
            let (attestation, _) = accuser_kernel
                .attest(log_session(accuser), &payload)
                .unwrap();
            Authenticator {
                node: accused,
                seq: log.len(),
                head,
                attestation,
            }
        };
        let forged_bytes = Envelope::Evidence {
            a: real.clone(),
            b: resealed,
        }
        .encode();
        let honest_bytes = Envelope::Evidence {
            a: real.clone(),
            b: real.clone(),
        }
        .encode();

        // Collect hostile sample envelopes that survive decode.
        let mut survivors: Vec<Envelope> = Vec::new();
        for bytes in [&forged_bytes, &honest_bytes] {
            for cut in 0..bytes.len() {
                if let Ok(env) = Envelope::decode(&bytes[..cut]) {
                    // A truncation that still decodes must re-encode to the
                    // exact prefix (no silent reinterpretation).
                    assert_eq!(env.encode(), &bytes[..cut]);
                    survivors.push(env);
                }
            }
            for _ in 0..300 {
                let mut mutated = bytes.clone();
                let idx = rng.next_below(mutated.len() as u64) as usize;
                mutated[idx] ^= 1 << rng.next_below(8);
                if let Ok(env) = Envelope::decode(&mutated) {
                    survivors.push(env);
                }
            }
        }
        survivors.push(Envelope::decode(&forged_bytes).unwrap());

        // Replay every surviving envelope into a live engine, in both
        // commit modes, as traffic from the Byzantine accuser.
        for piggyback in [false, true] {
            let config = EngineConfig {
                piggyback,
                witness_count: piggyback.then_some(2),
                ..EngineConfig::default()
            };
            let mut cluster =
                Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 42);
            let mut app = CounterApp::new(&cluster.nodes());
            let mut engine =
                AccountabilityEngine::attach(&mut cluster, &app, config, FaultPlan::all_correct());
            for (receiver, env) in survivors
                .iter()
                .flat_map(|e| (0..4u32).map(move |r| (r, e.clone())))
            {
                if receiver == accuser {
                    continue;
                }
                let payload = env.encode();
                if cluster
                    .auth_send(NodeId(accuser), NodeId(receiver), &payload)
                    .is_ok()
                {
                    engine
                        .poll(&mut cluster, &mut app, NodeId(receiver))
                        .unwrap();
                }
            }
            // Accuracy: no correct node (anyone but the accuser) is ever
            // exposed by hostile evidence, however mangled.
            for node in 0..4u32 {
                if node == accuser {
                    continue;
                }
                for &w in engine.witnesses_of(node) {
                    assert_ne!(
                        engine.verdict_of(w, node),
                        crate::audit::Verdict::Exposed,
                        "piggyback={piggyback}: node {node} exposed at witness {w}"
                    );
                }
            }
            // The deliberate reseal-forgery convicted its author somewhere.
            let turned = engine
                .witnesses_of(accuser)
                .iter()
                .any(|&w| engine.verdict_of(w, accuser) == crate::audit::Verdict::Exposed);
            assert!(
                turned,
                "piggyback={piggyback}: the forged accusation convicts the accuser"
            );
        }
    }

    /// Membership-envelope twin of the hostile-evidence fuzz: join, leave
    /// and recovery announcements — genuine ones replayed by a third party,
    /// reseal-tampered ones (the forger's own device sealing a head it
    /// claims belongs to the victim), truncations and random bit flips —
    /// must either fail to decode or pass harmlessly through a live engine
    /// in both commit modes. Membership churn is an attack surface: none of
    /// it may ever expose a correct node.
    #[test]
    fn hostile_membership_fuzz_never_exposes_a_correct_node() {
        use crate::engine::{AccountabilityEngine, CounterApp, EngineConfig};
        use tnic_core::api::{Cluster, NodeId};
        use tnic_net::adversary::FaultPlan;
        use tnic_net::stack::NetworkStackKind;
        use tnic_sim::rng::DetRng;
        use tnic_tee::profile::Baseline;

        let mut rng = DetRng::new(0xC1024);
        let victim = 1u32;
        let forger = 3u32;
        let mut victim_kernel = AttestationKernel::new(DeviceId(victim), AttestationTiming::zero());
        victim_kernel.install_session_key(log_session(victim), [victim as u8; 32]);
        let mut forger_kernel = AttestationKernel::new(DeviceId(forger), AttestationTiming::zero());
        forger_kernel.install_session_key(log_session(forger), [forger as u8; 32]);
        let mut log = SecureLog::new();
        log.append(EntryKind::Recv { from: 0 }, b"cmd".to_vec());
        log.append(EntryKind::Exec, b"out".to_vec());
        let genuine = {
            let payload = Authenticator::payload(victim, log.len(), &log.head());
            let (attestation, _) = victim_kernel.attest(log_session(victim), &payload).unwrap();
            Authenticator {
                node: victim,
                seq: log.len(),
                head: log.head(),
                attestation,
            }
        };
        let resealed = {
            let mut head = log.head();
            head[0] ^= 0xFF;
            let payload = Authenticator::payload(victim, log.len(), &head);
            let (attestation, _) = forger_kernel.attest(log_session(forger), &payload).unwrap();
            Authenticator {
                node: victim,
                seq: log.len(),
                head,
                attestation,
            }
        };
        let mut tampered_entries = log.entries().to_vec();
        tampered_entries[1].content = b"forged-out".to_vec();
        let samples: Vec<Vec<u8>> = vec![
            Envelope::Join(genuine.clone()).encode(),
            Envelope::Join(resealed.clone()).encode(),
            Envelope::Recover(genuine.clone()).encode(),
            Envelope::Recover(resealed.clone()).encode(),
            Envelope::Leave {
                auth: genuine.clone(),
                entries: log.entries().to_vec(),
            }
            .encode(),
            Envelope::Leave {
                auth: resealed,
                entries: tampered_entries,
            }
            .encode(),
        ];

        // Survivors of truncation and bit-flip mangling.
        let mut survivors: Vec<Envelope> = Vec::new();
        for bytes in &samples {
            for cut in 0..bytes.len() {
                if let Ok(env) = Envelope::decode(&bytes[..cut]) {
                    assert_eq!(env.encode(), &bytes[..cut], "prefix of len {cut}");
                    survivors.push(env);
                }
            }
            for _ in 0..200 {
                let mut mutated = bytes.clone();
                let idx = rng.next_below(mutated.len() as u64) as usize;
                mutated[idx] ^= 1 << rng.next_below(8);
                if let Ok(env) = Envelope::decode(&mutated) {
                    survivors.push(env);
                }
            }
            survivors.push(Envelope::decode(bytes).unwrap());
        }

        // Feed every survivor through a live engine as traffic from the
        // forger, in both commit modes.
        for piggyback in [false, true] {
            let config = EngineConfig {
                piggyback,
                witness_count: piggyback.then_some(2),
                ..EngineConfig::default()
            };
            let mut cluster =
                Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 42);
            let mut app = CounterApp::new(&cluster.nodes());
            let mut engine =
                AccountabilityEngine::attach(&mut cluster, &app, config, FaultPlan::all_correct());
            for (receiver, env) in survivors
                .iter()
                .flat_map(|e| (0..4u32).map(move |r| (r, e.clone())))
            {
                if receiver == forger {
                    continue;
                }
                let payload = env.encode();
                if cluster
                    .auth_send(NodeId(forger), NodeId(receiver), &payload)
                    .is_ok()
                {
                    engine
                        .poll(&mut cluster, &mut app, NodeId(receiver))
                        .unwrap();
                }
            }
            // Forged churn traffic never convicts a correct node: a relayed
            // genuine announcement is dropped (only a node speaks for
            // itself) and a resealed one fails seal verification. The
            // forger itself is fair game — a bit flip can mutate a
            // membership tag into a forged `Evidence` envelope, which turns
            // against its author.
            for node in 0..4u32 {
                if node == forger {
                    continue;
                }
                for &w in engine.witnesses_of(node) {
                    assert_ne!(
                        engine.verdict_of(w, node),
                        crate::audit::Verdict::Exposed,
                        "piggyback={piggyback}: node {node} exposed at witness {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_envelopes_round_trip() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Recv { from: 1 }, b"cmd".to_vec());
        log.append(EntryKind::Exec, b"out".to_vec());
        log.append(EntryKind::Send { to: 2 }, b"fwd".to_vec());
        for width in 1..=4usize {
            let batch = Envelope::ChallengeBatch {
                challenges: (0..width as u64).map(|i| (i, i + 3)).collect(),
            };
            assert_eq!(Envelope::decode(&batch.encode()).unwrap(), batch, "{width}");
            let responses = Envelope::ResponseBatch {
                responses: (0..width)
                    .map(|i| (i as u64, log.entries()[..=i.min(2)].to_vec()))
                    .collect(),
            };
            assert_eq!(
                Envelope::decode(&responses.encode()).unwrap(),
                responses,
                "{width}"
            );
        }
        // A batch element with an empty segment (an unanswerable challenge)
        // still round-trips — verification, not the wire, judges it.
        let empty_segment = Envelope::ResponseBatch {
            responses: vec![(7, Vec::new())],
        };
        assert_eq!(
            Envelope::decode(&empty_segment.encode()).unwrap(),
            empty_segment
        );
        // Batches are control traffic: never app commands, ride-capable.
        let batch = Envelope::ChallengeBatch {
            challenges: vec![(0, 4)],
        };
        assert_eq!(Envelope::app_command(&batch.encode()), None);
        let ridden = Envelope::Piggyback {
            riders: vec![rider(3, true)],
            inner: Box::new(batch),
        };
        assert_eq!(Envelope::decode(&ridden.encode()).unwrap(), ridden);
    }

    #[test]
    fn batch_raw_encoders_match_enum_encoding() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Exec, b"out".to_vec());
        log.append(EntryKind::Send { to: 1 }, b"fwd".to_vec());
        let challenges = vec![(0u64, 2u64), (5, 9)];
        let mut scratch = Vec::new();
        Envelope::encode_challenge_batch_into(&mut scratch, &challenges);
        assert_eq!(scratch, Envelope::ChallengeBatch { challenges }.encode());

        let parts: Vec<(u64, &[LogEntry])> =
            vec![(0, &log.entries()[..1]), (1, &log.entries()[1..])];
        Envelope::encode_response_batch_into(&mut scratch, &parts);
        let owned = Envelope::ResponseBatch {
            responses: parts
                .iter()
                .map(|(s, e)| (*s, e.to_vec()))
                .collect::<Vec<_>>(),
        };
        assert_eq!(scratch, owned.encode());

        Envelope::encode_response_into(&mut scratch, 3, log.entries());
        let single = Envelope::Response {
            from_seq: 3,
            entries: log.entries().to_vec(),
        };
        assert_eq!(scratch, single.encode());
        // The scratch is cleared, not appended to, on reuse.
        Envelope::encode_response_into(&mut scratch, 3, log.entries());
        assert_eq!(scratch, single.encode());
    }

    #[test]
    fn empty_batches_rejected() {
        for tag in [TAG_CHALLENGE_BATCH, TAG_RESPONSE_BATCH] {
            let mut bytes = ENVELOPE_MAGIC.to_vec();
            bytes.push(tag);
            bytes.extend_from_slice(&0u32.to_le_bytes());
            assert!(Envelope::decode(&bytes).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn batch_with_huge_claimed_count_rejected_without_allocation() {
        // A Byzantine batch claiming u32::MAX elements with a tiny body must
        // fail fast instead of preallocating gigabytes.
        for tag in [TAG_CHALLENGE_BATCH, TAG_RESPONSE_BATCH] {
            let mut bytes = ENVELOPE_MAGIC.to_vec();
            bytes.push(tag);
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]);
            assert!(Envelope::decode(&bytes).is_err(), "tag {tag}");
        }
        // Trailing garbage after a well-formed batch is rejected.
        let mut padded = Envelope::ChallengeBatch {
            challenges: vec![(1, 2)],
        }
        .encode();
        padded.push(0);
        assert!(Envelope::decode(&padded).is_err());
        let mut padded = Envelope::ResponseBatch {
            responses: vec![(0, Vec::new())],
        }
        .encode();
        padded.push(0);
        assert!(Envelope::decode(&padded).is_err());
        // Forging the element count on otherwise valid bytes is rejected.
        let mut forged = Envelope::ChallengeBatch {
            challenges: vec![(1, 2), (3, 4)],
        }
        .encode();
        forged[3..7].copy_from_slice(&3u32.to_le_bytes());
        assert!(Envelope::decode(&forged).is_err());
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[9, 1, 2]).is_err());
        assert!(Envelope::decode(&[ENVELOPE_MAGIC[0], ENVELOPE_MAGIC[1], 9, 1, 2]).is_err());
        assert!(
            Envelope::decode(&[ENVELOPE_MAGIC[0], ENVELOPE_MAGIC[1], TAG_CHALLENGE, 1, 2]).is_err()
        );
        let mut truncated = Envelope::Evidence {
            a: sealed_auth(1),
            b: sealed_auth(2),
        }
        .encode();
        truncated.truncate(truncated.len() - 3);
        assert!(Envelope::decode(&truncated).is_err());
    }
}
