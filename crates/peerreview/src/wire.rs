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
//!
//! # One parser, one writer
//!
//! There is one parser: `EnvelopeView::parse` reads an envelope in place
//! from the delivered bytes, with commands, log entries and seal payloads
//! borrowed, and validates every element as it goes. [`Envelope::decode`]
//! is that parse plus one conversion to the owned type, and
//! `Envelope::app_command` reads the riders and the tag the same way, so
//! the engine's dispatch, the owned decode and a witness's replay accept
//! exactly the same bytes. Lists (entries, riders) stay borrowed and are
//! read again on iteration.
//!
//! There is one writer: `Envelope::encode_into` writes into a caller's
//! buffer, cleared first, with authenticators, entries and nested blocks
//! written in place; [`Envelope::encode`] wraps it. The raw encoders —
//! responses over borrowed log segments, piggyback splicing, dedicated ride
//! flushes — share its pieces and produce the same bytes.

use crate::checkpoint::{CheckpointMark, Cosignature, MAX_COSIGNERS};
use crate::log::{Authenticator, AuthenticatorView, CompactAuthenticator, LogEntry, LogEntryView};
use std::fmt;
use std::marker::PhantomData;
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
}

/// One commitment riding on a piggybacked envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PiggybackRider {
    /// The commitment riding along, without its payload (rebuilt on
    /// encode, see [`CompactAuthenticator`]).
    pub auth: CompactAuthenticator,
    /// Whether the commitment is relayed (gossip) rather than announced by
    /// its own node.
    pub gossip: bool,
}

fn malformed() -> DeviceError {
    DeviceError::MalformedMessage("malformed envelope")
}

fn read_u32(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?))
}

fn read_u64(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

fn read_block(bytes: &[u8]) -> Option<(&[u8], usize)> {
    let len = read_u32(bytes)? as usize;
    Some((bytes.get(4..4 + len)?, 4 + len))
}

/// Appends a length-prefixed block that `body` writes in place (the
/// length is patched in after it).
fn push_block(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    body(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn push_head(out: &mut Vec<u8>, tag: u8) {
    out.extend_from_slice(&ENVELOPE_MAGIC);
    out.push(tag);
}

/// The entry list of a response body and of a farewell: the entry count
/// (4 bytes LE), then one length-prefixed block per entry.
fn push_entries(out: &mut Vec<u8>, entries: &[LogEntry]) {
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for entry in entries {
        push_block(out, |out| entry.encode_into(out));
    }
}

/// A whole [`Envelope::Response`]: the head, `from_seq` (8 bytes LE), then
/// the entry list.
fn push_response(out: &mut Vec<u8>, from_seq: u64, entries: &[LogEntry]) {
    push_head(out, TAG_RESPONSE);
    out.extend_from_slice(&from_seq.to_le_bytes());
    push_entries(out, entries);
}

/// The piggyback header: the tag, the rider count and each rider's gossip
/// flag and length-prefixed authenticator, written in place. The inner
/// envelope follows.
fn push_riders(out: &mut Vec<u8>, riders: &[PiggybackRider]) {
    assert!(
        !riders.is_empty() && riders.len() <= MAX_PIGGYBACK_RIDERS,
        "a ride carries 1..={MAX_PIGGYBACK_RIDERS} commitments"
    );
    push_head(out, TAG_PIGGYBACK);
    out.push(riders.len() as u8);
    for rider in riders {
        out.push(u8::from(rider.gossip));
        push_block(out, |out| rider.auth.encode_into(out));
    }
}

impl Envelope {
    /// Serialises the envelope: `Envelope::encode_into` on a new buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Serialises the envelope into `out`, cleared first. The engine sends
    /// every control envelope through one reused buffer this way;
    /// authenticators, entries and nested blocks are written in place.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.write(out);
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Envelope::App(command) => {
                push_head(out, TAG_APP);
                out.extend_from_slice(command);
            }
            Envelope::Announce(auth) => {
                push_head(out, TAG_ANNOUNCE);
                auth.encode_into(out);
            }
            Envelope::Gossip(auth) => {
                push_head(out, TAG_GOSSIP);
                auth.encode_into(out);
            }
            Envelope::Challenge { from_seq, upto_seq } => {
                push_head(out, TAG_CHALLENGE);
                out.extend_from_slice(&from_seq.to_le_bytes());
                out.extend_from_slice(&upto_seq.to_le_bytes());
            }
            Envelope::Response { from_seq, entries } => push_response(out, *from_seq, entries),
            Envelope::Evidence { a, b } => {
                push_head(out, TAG_EVIDENCE);
                push_block(out, |out| a.encode_into(out));
                push_block(out, |out| b.encode_into(out));
            }
            Envelope::Piggyback { riders, inner } => {
                debug_assert!(
                    !matches!(**inner, Envelope::Piggyback { .. }),
                    "piggybacks never nest"
                );
                push_riders(out, riders);
                inner.write(out);
            }
            Envelope::CheckpointPropose(mark) => {
                push_head(out, TAG_CKPT_PROPOSE);
                out.extend_from_slice(&mark.encode());
            }
            Envelope::CheckpointCosign(cosig) => {
                push_head(out, TAG_CKPT_COSIGN);
                out.extend_from_slice(&cosig.encode());
            }
            Envelope::CheckpointCommit { mark, cosigs } => {
                debug_assert!(
                    !cosigs.is_empty() && cosigs.len() <= MAX_COSIGNERS,
                    "a certificate carries 1..={MAX_COSIGNERS} cosignatures"
                );
                push_head(out, TAG_CKPT_COMMIT);
                push_block(out, |out| out.extend_from_slice(&mark.encode()));
                out.push(cosigs.len() as u8);
                for cosig in cosigs {
                    push_block(out, |out| out.extend_from_slice(&cosig.encode()));
                }
            }
            Envelope::Join(auth) => {
                push_head(out, TAG_JOIN);
                auth.encode_into(out);
            }
            Envelope::Leave { auth, entries } => {
                push_head(out, TAG_LEAVE);
                push_block(out, |out| auth.encode_into(out));
                push_entries(out, entries);
            }
            Envelope::Recover(auth) => {
                push_head(out, TAG_RECOVER);
                auth.encode_into(out);
            }
        }
    }

    /// Encodes a [`Envelope::Response`] over a *borrowed* log segment directly
    /// into `out` (cleared first). The audit hot loop answers challenges with
    /// this plus a reused scratch buffer instead of cloning the segment into
    /// an owned envelope; the bytes are identical to `encode()`.
    pub(crate) fn encode_response_into(out: &mut Vec<u8>, from_seq: u64, entries: &[LogEntry]) {
        out.clear();
        push_response(out, from_seq, entries);
    }

    /// Encodes a dedicated commitment message into `out` (cleared first):
    /// the first ride as an [`Envelope::Gossip`] or [`Envelope::Announce`]
    /// by its flag, the rest riding it as an [`Envelope::Piggyback`]. The
    /// bytes are identical to `encode()` of that envelope.
    ///
    /// # Panics
    ///
    /// Panics if `rides` is empty or holds more than
    /// `1 + MAX_PIGGYBACK_RIDERS` commitments.
    pub(crate) fn encode_rides_into(out: &mut Vec<u8>, rides: &[PiggybackRider]) {
        let (first, riders) = rides.split_first().expect("a message carries >= 1 ride");
        out.clear();
        if !riders.is_empty() {
            push_riders(out, riders);
        }
        push_head(
            out,
            if first.gossip {
                TAG_GOSSIP
            } else {
                TAG_ANNOUNCE
            },
        );
        first.auth.encode_into(out);
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
    pub(crate) fn piggyback_raw(riders: &[PiggybackRider], inner: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 2 + riders.len() * (1 + 4 + 160) + inner.len());
        push_riders(&mut out, riders);
        out.extend_from_slice(inner);
        out
    }

    /// Whether `raw` carries the envelope magic (and can therefore be offered
    /// a piggyback ride — wrapping arbitrary non-envelope payloads would
    /// corrupt them for their receiver).
    #[must_use]
    pub(crate) fn is_envelope(raw: &[u8]) -> bool {
        raw.starts_with(&ENVELOPE_MAGIC)
    }

    /// Whether `raw` already is a piggyback envelope (a ride carries at most
    /// one commitment; nesting is rejected on decode).
    #[must_use]
    pub(crate) fn is_piggyback(raw: &[u8]) -> bool {
        matches!(raw.strip_prefix(&ENVELOPE_MAGIC), Some(rest) if rest.first() == Some(&TAG_PIGGYBACK))
    }

    /// Parses an envelope: `EnvelopeView::parse` plus one conversion to
    /// the owned type.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] on truncated or unknown
    /// payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeviceError> {
        Ok(EnvelopeView::parse(bytes)?.into_owned())
    }

    /// The application command carried by an [`Envelope::App`] payload —
    /// directly or under one [`Envelope::Piggyback`] wrapper — if the raw
    /// bytes are one (used during log replay). It reads the riders and the
    /// tag as `EnvelopeView::parse` does, so replay executes exactly the
    /// commands the live dispatch executed. Allocation-free: the command is
    /// a subslice of `raw`.
    #[must_use]
    pub(crate) fn app_command(raw: &[u8]) -> Option<&[u8]> {
        match split_riders(raw) {
            Ok((_, TAG_APP, command)) => Some(command),
            _ => None,
        }
    }
}

/// Strips the magic and, from a piggyback, its riders: the riders (none
/// for a bare envelope), the tag of the envelope they ride on and the
/// bytes after that tag.
fn split_riders(bytes: &[u8]) -> Result<(ListView<'_, RiderView<'_>>, u8, &[u8]), DeviceError> {
    let (tag, rest) = split_tag(bytes)?;
    if tag != TAG_PIGGYBACK {
        return Ok((ListView::empty(), tag, rest));
    }
    let (&count, rest) = rest.split_first().ok_or_else(malformed)?;
    let count = count as usize;
    if count == 0 || count > MAX_PIGGYBACK_RIDERS {
        return Err(DeviceError::MalformedMessage("bad piggyback rider count"));
    }
    let (riders, used) = ListView::parse(rest, count).ok_or_else(malformed)?;
    let (tag, rest) = split_tag(&rest[used..])?;
    if tag == TAG_PIGGYBACK {
        return Err(DeviceError::MalformedMessage("nested piggyback"));
    }
    Ok((riders, tag, rest))
}

fn split_tag(bytes: &[u8]) -> Result<(u8, &[u8]), DeviceError> {
    let bytes = bytes
        .strip_prefix(&ENVELOPE_MAGIC)
        .ok_or(DeviceError::MalformedMessage("missing envelope magic"))?;
    let (&tag, rest) = bytes.split_first().ok_or_else(malformed)?;
    Ok((tag, rest))
}

/// An envelope parsed in place from its wire bytes: what the engine
/// dispatches, straight from the delivered message. Commands, entries and
/// seal payloads stay borrowed; only checkpoint marks and cosignatures are
/// materialised. A piggyback parses as its riders plus the envelope they
/// ride on; a bare envelope has no riders.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EnvelopeView<'a> {
    /// The commitments riding along (none for a bare envelope).
    pub(crate) riders: ListView<'a, RiderView<'a>>,
    /// The envelope itself, or the one the riders ride on.
    pub(crate) body: BodyView<'a>,
}

/// The envelope of an [`EnvelopeView`]: every [`Envelope`] kind but
/// `Piggyback`, parsed in place.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BodyView<'a> {
    /// [`Envelope::App`].
    App(&'a [u8]),
    /// [`Envelope::Announce`].
    Announce(AuthenticatorView<'a>),
    /// [`Envelope::Gossip`].
    Gossip(AuthenticatorView<'a>),
    /// [`Envelope::Challenge`].
    Challenge {
        /// First sequence number requested.
        from_seq: u64,
        /// One past the last sequence number requested.
        upto_seq: u64,
    },
    /// [`Envelope::Response`].
    Response(ResponseView<'a>),
    /// [`Envelope::Evidence`].
    Evidence {
        /// One conflicting commitment.
        a: AuthenticatorView<'a>,
        /// The other conflicting commitment.
        b: AuthenticatorView<'a>,
    },
    /// [`Envelope::CheckpointPropose`].
    CheckpointPropose(CheckpointMark),
    /// [`Envelope::CheckpointCosign`].
    CheckpointCosign(Cosignature),
    /// [`Envelope::CheckpointCommit`].
    CheckpointCommit {
        /// The certified checkpoint mark.
        mark: CheckpointMark,
        /// The quorum of cosignatures.
        cosigs: Vec<Cosignature>,
    },
    /// [`Envelope::Join`].
    Join(AuthenticatorView<'a>),
    /// [`Envelope::Leave`].
    Leave {
        /// The leaver's final sealed log commitment.
        auth: AuthenticatorView<'a>,
        /// The unaudited log tail.
        entries: ListView<'a, LogEntryView<'a>>,
    },
    /// [`Envelope::Recover`].
    Recover(AuthenticatorView<'a>),
}

/// One commitment riding on a piggybacked envelope, parsed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RiderView<'a> {
    /// The commitment riding along.
    pub(crate) auth: AuthenticatorView<'a>,
    /// Whether the commitment is relayed (gossip).
    pub(crate) gossip: bool,
}

/// One audit response, parsed in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ResponseView<'a> {
    /// First sequence number of the segment the node claims to return.
    pub(crate) from_seq: u64,
    /// The returned entries.
    pub(crate) entries: ListView<'a, LogEntryView<'a>>,
}

impl<'a> ResponseView<'a> {
    /// Strictly parses one response body: `from_seq`, the entry count and
    /// exactly that many entry blocks, with nothing after them.
    fn parse(body: &'a [u8]) -> Option<Self> {
        let from_seq = read_u64(body)?;
        let count = read_u32(body.get(8..)?)? as usize;
        let rest = &body[12..];
        let (entries, used) = ListView::parse(rest, count)?;
        (used == rest.len()).then_some(ResponseView { from_seq, entries })
    }
}

impl<'a> EnvelopeView<'a> {
    /// Parses an envelope in place. The one envelope parser:
    /// [`Envelope::decode`] is this plus a conversion to the owned type.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] on truncated or unknown
    /// payloads.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, DeviceError> {
        let (riders, tag, rest) = split_riders(bytes)?;
        Ok(EnvelopeView {
            riders,
            body: BodyView::parse(tag, rest)?,
        })
    }

    /// Materialises the owned envelope.
    #[must_use]
    pub(crate) fn into_owned(self) -> Envelope {
        let inner = self.body.into_owned();
        if self.riders.is_empty() {
            return inner;
        }
        Envelope::Piggyback {
            riders: self
                .riders
                .iter()
                .map(|rider| PiggybackRider {
                    auth: rider.auth.compact(),
                    gossip: rider.gossip,
                })
                .collect(),
            inner: Box::new(inner),
        }
    }
}

impl<'a> BodyView<'a> {
    fn parse(tag: u8, rest: &'a [u8]) -> Result<Self, DeviceError> {
        Ok(match tag {
            TAG_APP => BodyView::App(rest),
            TAG_ANNOUNCE => BodyView::Announce(AuthenticatorView::parse(rest)?),
            TAG_GOSSIP => BodyView::Gossip(AuthenticatorView::parse(rest)?),
            TAG_CHALLENGE => match (read_u64(rest), rest.get(8..).and_then(read_u64)) {
                (Some(from_seq), Some(upto_seq)) if rest.len() == 16 => {
                    BodyView::Challenge { from_seq, upto_seq }
                }
                _ => return Err(malformed()),
            },
            TAG_RESPONSE => BodyView::Response(ResponseView::parse(rest).ok_or_else(malformed)?),
            TAG_EVIDENCE => {
                let (block_a, used) = read_block(rest).ok_or_else(malformed)?;
                let (block_b, used_b) = read_block(&rest[used..]).ok_or_else(malformed)?;
                if used + used_b != rest.len() {
                    return Err(malformed());
                }
                BodyView::Evidence {
                    a: AuthenticatorView::parse(block_a)?,
                    b: AuthenticatorView::parse(block_b)?,
                }
            }
            TAG_CKPT_PROPOSE => BodyView::CheckpointPropose(CheckpointMark::decode(rest)?),
            TAG_CKPT_COSIGN => BodyView::CheckpointCosign(Cosignature::decode(rest)?),
            TAG_CKPT_COMMIT => {
                let (mark_block, used) = read_block(rest).ok_or_else(malformed)?;
                let mark = CheckpointMark::decode(mark_block)?;
                let (&count, mut rest) = rest[used..].split_first().ok_or_else(malformed)?;
                let count = count as usize;
                if count == 0 || count > MAX_COSIGNERS {
                    return Err(DeviceError::MalformedMessage("bad cosignature count"));
                }
                let mut cosigs = Vec::with_capacity(count);
                for _ in 0..count {
                    let (block, used) = read_block(rest).ok_or_else(malformed)?;
                    cosigs.push(Cosignature::decode(block)?);
                    rest = &rest[used..];
                }
                if !rest.is_empty() {
                    return Err(malformed());
                }
                BodyView::CheckpointCommit { mark, cosigs }
            }
            TAG_JOIN => BodyView::Join(AuthenticatorView::parse(rest)?),
            TAG_LEAVE => {
                let (auth_block, used) = read_block(rest).ok_or_else(malformed)?;
                let auth = AuthenticatorView::parse(auth_block)?;
                let rest = &rest[used..];
                let count = read_u32(rest).ok_or_else(malformed)? as usize;
                let (entries, used) = ListView::parse(&rest[4..], count).ok_or_else(malformed)?;
                if 4 + used != rest.len() {
                    return Err(malformed());
                }
                BodyView::Leave { auth, entries }
            }
            TAG_RECOVER => BodyView::Recover(AuthenticatorView::parse(rest)?),
            _ => return Err(DeviceError::MalformedMessage("unknown envelope tag")),
        })
    }

    /// Materialises the owned envelope.
    #[must_use]
    pub(crate) fn into_owned(self) -> Envelope {
        let entries = |list: ListView<'a, LogEntryView<'a>>| {
            list.iter()
                .map(|entry| entry.to_owned())
                .collect::<Vec<_>>()
        };
        match self {
            BodyView::App(command) => Envelope::App(command.to_vec()),
            BodyView::Announce(auth) => Envelope::Announce(auth.to_owned()),
            BodyView::Gossip(auth) => Envelope::Gossip(auth.to_owned()),
            BodyView::Challenge { from_seq, upto_seq } => {
                Envelope::Challenge { from_seq, upto_seq }
            }
            BodyView::Response(response) => Envelope::Response {
                from_seq: response.from_seq,
                entries: entries(response.entries),
            },
            BodyView::Evidence { a, b } => Envelope::Evidence {
                a: a.to_owned(),
                b: b.to_owned(),
            },
            BodyView::CheckpointPropose(mark) => Envelope::CheckpointPropose(mark),
            BodyView::CheckpointCosign(cosig) => Envelope::CheckpointCosign(cosig),
            BodyView::CheckpointCommit { mark, cosigs } => {
                Envelope::CheckpointCommit { mark, cosigs }
            }
            BodyView::Join(auth) => Envelope::Join(auth.to_owned()),
            BodyView::Leave {
                auth,
                entries: tail,
            } => Envelope::Leave {
                auth: auth.to_owned(),
                entries: entries(tail),
            },
            BodyView::Recover(auth) => Envelope::Recover(auth.to_owned()),
        }
    }
}

/// An element of a [`ListView`], parsed from the front of a byte slice.
pub(crate) trait WireItem<'a>: Sized {
    /// Parses one element from the front of `bytes`; returns it with the
    /// number of bytes it used.
    fn read(bytes: &'a [u8]) -> Option<(Self, usize)>;
}

/// A log entry as a length-prefixed block holding exactly the entry.
impl<'a> WireItem<'a> for LogEntryView<'a> {
    fn read(bytes: &'a [u8]) -> Option<(Self, usize)> {
        let (block, used) = read_block(bytes)?;
        let (entry, entry_used) = LogEntryView::parse(block)?;
        (entry_used == block.len()).then_some((entry, used))
    }
}

/// A rider as its gossip flag (0 or 1) and a length-prefixed authenticator.
impl<'a> WireItem<'a> for RiderView<'a> {
    fn read(bytes: &'a [u8]) -> Option<(Self, usize)> {
        let (&flag, rest) = bytes.split_first()?;
        let gossip = match flag {
            0 => false,
            1 => true,
            _ => return None,
        };
        let (block, used) = read_block(rest)?;
        let auth = AuthenticatorView::parse(block).ok()?;
        Some((RiderView { auth, gossip }, 1 + used))
    }
}

/// `len` elements parsed in place: every element was validated when the
/// envelope was parsed, and iteration reads them again from the borrowed
/// bytes, so a list costs no allocation however long it is.
pub(crate) struct ListView<'a, T> {
    bytes: &'a [u8],
    len: usize,
    item: PhantomData<fn() -> T>,
}

impl<'a, T: WireItem<'a>> ListView<'a, T> {
    fn empty() -> Self {
        ListView {
            bytes: &[],
            len: 0,
            item: PhantomData,
        }
    }

    /// Parses `len` elements from the front of `bytes`; returns the list
    /// and the bytes it used. `len` is untrusted wire data: a forged count
    /// runs out of bytes, nothing is preallocated from it.
    fn parse(bytes: &'a [u8], len: usize) -> Option<(Self, usize)> {
        let mut used = 0;
        for _ in 0..len {
            used += T::read(&bytes[used..])?.1;
        }
        let list = ListView {
            bytes: &bytes[..used],
            len,
            item: PhantomData,
        };
        Some((list, used))
    }

    /// Whether the list has no elements.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements, in wire order.
    #[must_use]
    pub(crate) fn iter(&self) -> ListIter<'a, T> {
        ListIter {
            rest: self.bytes,
            left: self.len,
            item: PhantomData,
        }
    }
}

impl<T> Clone for ListView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ListView<'_, T> {}

/// Two lists are equal when they hold the same elements' bytes.
impl<T> PartialEq for ListView<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes == other.bytes
    }
}

impl<'a, T: WireItem<'a> + fmt::Debug> fmt::Debug for ListView<'a, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, T: WireItem<'a>> IntoIterator for ListView<'a, T> {
    type Item = T;
    type IntoIter = ListIter<'a, T>;

    fn into_iter(self) -> ListIter<'a, T> {
        self.iter()
    }
}

/// The iterator of a [`ListView`].
pub(crate) struct ListIter<'a, T> {
    rest: &'a [u8],
    left: usize,
    item: PhantomData<fn() -> T>,
}

impl<T> Clone for ListIter<'_, T> {
    fn clone(&self) -> Self {
        ListIter {
            rest: self.rest,
            left: self.left,
            item: PhantomData,
        }
    }
}

impl<'a, T: WireItem<'a>> Iterator for ListIter<'a, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.left == 0 {
            return None;
        }
        let (item, used) = T::read(self.rest).expect("validated when the list was parsed");
        self.rest = &self.rest[used..];
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    fn count(self) -> usize {
        self.left
    }
}

impl<'a, T: WireItem<'a>> ExactSizeIterator for ListIter<'a, T> {}

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
        // Forging the entry count of a valid response, one over (it runs
        // out of bytes) or one under (a whole entry is left trailing), is
        // rejected too.
        let valid = Envelope::Response {
            from_seq: 0,
            entries: exemplar_entries(),
        }
        .encode();
        for count in [2u32, 4] {
            let mut forged = valid.clone();
            forged[11..15].copy_from_slice(&count.to_le_bytes());
            assert!(EnvelopeView::parse(&forged).is_err(), "count {count}");
            assert!(Envelope::decode(&forged).is_err(), "count {count}");
        }
    }

    fn rider(node: u32, gossip: bool) -> PiggybackRider {
        PiggybackRider {
            auth: sealed_auth(node).compact(),
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

    /// A three-entry log whose entries the `Response` and `Leave` exemplars
    /// carry.
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
    /// `app_command` never panic, the in-place parse agrees with both (see
    /// `assert_view_agrees`), a truncation that
    /// decodes re-encodes to exactly that prefix (a cut inside an `App`
    /// command is a legal, shorter command — every structured field is
    /// length-delimited), and every successful decode survives its own
    /// re-encoding unchanged.
    fn assert_decodes_totally(exemplars: &[(u8, Envelope)]) {
        let survives_reencoding = |bytes: &[u8]| -> Option<Envelope> {
            assert_view_agrees(bytes);
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

    /// The two exemplar tables together hold every wire tag; this test
    /// runs the tags the other totality test does not.
    #[test]
    fn every_tag_decodes_totally_under_truncation_and_bit_flips() {
        use std::collections::BTreeSet;
        let covered: BTreeSet<u8> = all_exemplars().iter().map(|(tag, _)| *tag).collect();
        assert_eq!(covered, (TAG_APP..=TAG_RECOVER).collect());
        assert_decodes_totally(&bare_exemplars());
    }

    #[test]
    fn truncation_and_bitflip_fuzz_never_panics_and_truncations_fail_clean() {
        assert_decodes_totally(&structured_exemplars());
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

    /// Every exemplar, each of every tag.
    fn all_exemplars() -> Vec<(u8, Envelope)> {
        [structured_exemplars(), bare_exemplars()].concat()
    }

    /// Whether `inner` lies inside `outer`'s memory: a borrowed field of a
    /// view parsed in place.
    fn borrowed_from(inner: &[u8], outer: &[u8]) -> bool {
        outer.as_ptr_range().contains(&inner.as_ptr()) || inner.is_empty()
    }

    /// The view of `bytes` and the owned decode accept exactly the same
    /// inputs and agree on every value; `app_command` answers from the same
    /// parse; and what the view borrows lies inside `bytes`.
    fn assert_view_agrees(bytes: &[u8]) -> Option<EnvelopeView<'_>> {
        let view = EnvelopeView::parse(bytes);
        let decoded = Envelope::decode(bytes);
        assert_eq!(view.is_ok(), decoded.is_ok(), "{bytes:?}");
        let command = match &view {
            Ok(EnvelopeView {
                body: BodyView::App(command),
                ..
            }) => Some(*command),
            _ => None,
        };
        assert_eq!(Envelope::app_command(bytes), command);
        let view = view.ok()?;
        assert_eq!(view.clone().into_owned(), decoded.unwrap());
        for rider in view.riders {
            assert!(borrowed_from(rider.auth.attestation.payload, bytes));
        }
        let entries = match &view.body {
            BodyView::App(command) => {
                assert!(borrowed_from(command, bytes));
                Vec::new()
            }
            BodyView::Response(response) => response.entries.iter().collect(),
            BodyView::Leave { entries, .. } => entries.iter().collect(),
            _ => Vec::new(),
        };
        for entry in entries {
            assert!(borrowed_from(entry.content, bytes));
            assert!(borrowed_from(entry.prev, bytes));
        }
        Some(view)
    }

    /// Every exemplar parses in place to itself; the truncation and
    /// bit-flip fuzz above runs the same agreement check. Trailing bytes
    /// lengthen an application command and are refused after any other
    /// envelope's last field or entry.
    #[test]
    fn envelope_view_and_decode_accept_the_same_bytes_and_agree() {
        for (tag, exemplar) in all_exemplars() {
            let bytes = exemplar.encode();
            let view = assert_view_agrees(&bytes).expect("an exemplar parses");
            assert_eq!(view.into_owned(), exemplar, "tag {tag}");
            for trailer in [&[0u8][..], &[0xFF; 3], &[1, 0, 0, 0]] {
                let padded = [bytes.as_slice(), trailer].concat();
                let view = assert_view_agrees(&padded);
                match view.map(|v| v.body) {
                    Some(BodyView::App(command)) => assert!(command.ends_with(trailer)),
                    Some(body) => panic!("tag {tag}: trailing bytes accepted as {body:?}"),
                    None => assert!(
                        Envelope::app_command(&bytes).is_none(),
                        "tag {tag}: a longer command refused"
                    ),
                }
            }
        }
    }

    #[test]
    fn encode_into_a_dirty_reused_buffer_equals_encode_for_every_tag() {
        let mut wire = vec![0xEE; 700];
        for (tag, exemplar) in all_exemplars() {
            exemplar.encode_into(&mut wire);
            assert_eq!(wire, exemplar.encode(), "tag {tag}");
            wire.extend_from_slice(&[0xEE; 33]);
        }
        // A dedicated flush: the first ride announced or relayed by its
        // flag, up to the cap riding along.
        let rides: Vec<PiggybackRider> = (0..=MAX_PIGGYBACK_RIDERS as u32)
            .map(|i| rider(i, i % 2 == 0))
            .collect();
        for len in 1..=rides.len() {
            let (first, riders) = rides[..len].split_first().unwrap();
            let auth = sealed_auth(first.auth.node);
            let inner = if first.gossip {
                Envelope::Gossip(auth)
            } else {
                Envelope::Announce(auth)
            };
            let owned = if riders.is_empty() {
                inner
            } else {
                Envelope::Piggyback {
                    riders: riders.to_vec(),
                    inner: Box::new(inner),
                }
            };
            Envelope::encode_rides_into(&mut wire, &rides[..len]);
            assert_eq!(wire, owned.encode(), "{len} rides");
            assert_eq!(Envelope::decode(&wire).unwrap(), owned);
        }
    }

    #[test]
    fn response_raw_encoder_matches_enum_encoding() {
        let mut log = SecureLog::new();
        log.append(EntryKind::Exec, b"out".to_vec());
        log.append(EntryKind::Send { to: 1 }, b"fwd".to_vec());
        let mut scratch = vec![0xEE; 9];
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

    /// Tags 13 and 14 carried the challenge and response batches, which no
    /// run sent. They are unknown tags now: refused bare and under a
    /// piggyback, by the in-place parse and the owned decode alike, and
    /// never an application command.
    #[test]
    fn retired_batch_tags_are_refused_like_any_unknown_tag() {
        // A one-element batch of each kind, in the retired encoding: the
        // element count, then the range or the length-prefixed response.
        let mut challenges = 1u32.to_le_bytes().to_vec();
        challenges.extend_from_slice(&0u64.to_le_bytes());
        challenges.extend_from_slice(&4u64.to_le_bytes());
        let mut responses = 1u32.to_le_bytes().to_vec();
        push_block(&mut responses, |out| {
            out.extend_from_slice(&0u64.to_le_bytes());
            push_entries(out, &exemplar_entries());
        });
        for (tag, body) in [(13u8, challenges), (14, responses)] {
            let mut bare = ENVELOPE_MAGIC.to_vec();
            bare.push(tag);
            bare.extend_from_slice(&body);
            let ridden = Envelope::piggyback_raw(&[rider(2, true)], &bare);
            for bytes in [bare, ridden] {
                assert!(EnvelopeView::parse(&bytes).is_err(), "tag {tag}");
                assert!(Envelope::decode(&bytes).is_err(), "tag {tag}");
                assert_eq!(Envelope::app_command(&bytes), None, "tag {tag}");
            }
        }
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
