//! BFT replicated counter built on TNIC (paper §7, §C.3, Algorithm 3).
//!
//! A leader-based state-machine-replication protocol over `N = 2f + 1`
//! replicas (instead of the classical `3f + 1`): clients send increment
//! requests to the leader; the leader executes, attests a *proof of execution*
//! (PoE) and multicasts it to the followers; followers validate the leader's
//! claimed output against their own deterministic state machine, apply the
//! command, attest their own PoE and reply. A client accepts a result once it
//! has `f + 1` identical replies.
//!
//! Equivocation is impossible: the leader's PoE carries a TNIC counter, so two
//! conflicting messages for the same round would need the same counter, which
//! the attestation kernel never issues twice.
//!
//! # Accountability
//!
//! [`BftCounter::with_accountability`] stacks the application-agnostic
//! PeerReview engine ([`tnic_peerreview::engine`]) under the deployment:
//! protocol messages travel wrapped as [`Envelope::App`], every delivery and
//! execution is registered in per-replica tamper-evident logs, commitments
//! piggyback on the PoE multicasts, and witness audits replay each replica's
//! PoE stream against [`BftReplayMachine`]. Tolerating a Byzantine replica
//! (the protocol's own quorum logic) is thereby upgraded to *exposing* it
//! with transferable evidence: an equivocating replica ends the run
//! [`Verdict::Exposed`](tnic_peerreview::audit::Verdict) at every correct
//! witness. A leader lying inside its PoE is still caught by the protocol's
//! own output validation (no quorum forms) — replay audits cover what
//! replicas *logged*, quorum checks cover what they *claimed*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::collections::HashMap;
use tnic_core::api::{Cluster, NodeId};
use tnic_core::error::CoreError;
use tnic_core::transform::{CounterMachine, StateMachine};
use tnic_core::{Baseline, NetworkStackKind};
use tnic_crypto::ed25519::Signature;
use tnic_crypto::sha256::sha256;
use tnic_net::adversary::FaultPlan;
use tnic_peerreview::deployment::Accountable;
use tnic_peerreview::engine::{AccountabilityEngine, AccountedApp, EngineConfig};
use tnic_peerreview::wire::Envelope;
use tnic_sim::time::SimInstant;

/// A proof-of-execution message: the client request batch, the executing
/// replica's output and its state digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofOfExecution {
    /// Identifier of the round (leader-assigned).
    pub round: u64,
    /// The batched client request payloads.
    pub requests: Vec<Vec<u8>>,
    /// The executing replica's output (final counter value of the batch).
    pub output: u64,
    /// Digest of the replica state after execution.
    pub state_digest: [u8; 32],
}

impl ProofOfExecution {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&(self.requests.len() as u32).to_le_bytes());
        for r in &self.requests {
            out.extend_from_slice(&(r.len() as u32).to_le_bytes());
            out.extend_from_slice(r);
        }
        out.extend_from_slice(&self.output.to_le_bytes());
        out.extend_from_slice(&self.state_digest);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let err = || CoreError::TransformViolation("malformed proof of execution");
        if bytes.len() < 12 {
            return Err(err());
        }
        let round = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let mut off = 12;
        let mut requests = Vec::with_capacity(count.min(bytes.len() / 4));
        for _ in 0..count {
            if bytes.len() < off + 4 {
                return Err(err());
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            if bytes.len() < off + len {
                return Err(err());
            }
            requests.push(bytes[off..off + len].to_vec());
            off += len;
        }
        if bytes.len() != off + 8 + 32 {
            return Err(err());
        }
        let output = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let mut state_digest = [0u8; 32];
        state_digest.copy_from_slice(&bytes[off + 8..]);
        Ok(ProofOfExecution {
            round,
            requests,
            output,
            state_digest,
        })
    }
}

/// The deterministic result of a replica processing one PoE — the output
/// committed to the replica's tamper-evident log (and reproduced bit-exactly
/// by witness replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoeOutcome {
    /// The leader's claimed output matched the specification; the batch was
    /// applied.
    Applied {
        /// The round the batch belongs to.
        round: u64,
        /// The committed counter value.
        value: u64,
    },
    /// The leader's claimed output diverged from the deterministic
    /// specification; the batch was rejected (no reply is sent).
    Rejected {
        /// The round the batch belongs to.
        round: u64,
        /// What the leader claimed.
        claimed: u64,
        /// What the specification gives.
        expected: u64,
    },
    /// The round was already applied (duplicate delivery).
    Duplicate {
        /// The duplicated round.
        round: u64,
    },
    /// The PoE bytes did not parse.
    Malformed,
}

impl PoeOutcome {
    /// Serialises the outcome (the `Exec` log-entry content).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25);
        match self {
            PoeOutcome::Applied { round, value } => {
                out.push(0);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            PoeOutcome::Rejected {
                round,
                claimed,
                expected,
            } => {
                out.push(1);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&claimed.to_le_bytes());
                out.extend_from_slice(&expected.to_le_bytes());
            }
            PoeOutcome::Duplicate { round } => {
                out.push(2);
                out.extend_from_slice(&round.to_le_bytes());
            }
            PoeOutcome::Malformed => out.push(3),
        }
        out
    }

    /// Parses an outcome, `None` on malformed bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let u64_at = |off: usize| -> Option<u64> {
            rest.get(off..off + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("sized")))
        };
        match (tag, rest.len()) {
            (0, 16) => Some(PoeOutcome::Applied {
                round: u64_at(0)?,
                value: u64_at(8)?,
            }),
            (1, 24) => Some(PoeOutcome::Rejected {
                round: u64_at(0)?,
                claimed: u64_at(8)?,
                expected: u64_at(16)?,
            }),
            (2, 8) => Some(PoeOutcome::Duplicate { round: u64_at(0)? }),
            (3, 0) => Some(PoeOutcome::Malformed),
            _ => None,
        }
    }
}

/// The shared deterministic PoE-processing step: validate the leader's
/// claimed output by executing the batch on the local machine, then apply
/// or reject. Used identically by live replicas ([`BftApp`]) and witness
/// replay ([`BftReplayMachine`]) — any divergence between the two would
/// falsely expose an honest replica.
fn process_poe(
    machine: &mut CounterMachine,
    applied_rounds: &mut BTreeMap<u64, u64>,
    poe_bytes: &[u8],
) -> PoeOutcome {
    let Ok(poe) = ProofOfExecution::decode(poe_bytes) else {
        return PoeOutcome::Malformed;
    };
    if applied_rounds.contains_key(&poe.round) {
        return PoeOutcome::Duplicate { round: poe.round };
    }
    let mut expected = 0;
    for request in &poe.requests {
        let out = machine.execute(request);
        expected = u64::from_le_bytes(out[..8].try_into().expect("counter output"));
    }
    if expected != poe.output {
        return PoeOutcome::Rejected {
            round: poe.round,
            claimed: poe.output,
            expected,
        };
    }
    applied_rounds.insert(poe.round, expected);
    PoeOutcome::Applied {
        round: poe.round,
        value: expected,
    }
}

fn bft_state_digest(machine: &CounterMachine, applied_rounds: &BTreeMap<u64, u64>) -> [u8; 32] {
    let mut bytes = Vec::with_capacity(32 + applied_rounds.len() * 16);
    bytes.extend_from_slice(&machine.state_digest());
    for (round, value) in applied_rounds {
        bytes.extend_from_slice(&round.to_le_bytes());
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    sha256(&bytes)
}

#[derive(Debug)]
struct Replica {
    machine: CounterMachine,
    applied_rounds: BTreeMap<u64, u64>,
    detected_faults: Vec<String>,
}

impl Replica {
    fn new() -> Self {
        Replica {
            machine: CounterMachine::new(),
            applied_rounds: BTreeMap::new(),
            detected_faults: Vec::new(),
        }
    }
}

/// The replicated application state: one `Replica` per node. This is the
/// [`AccountedApp`] the accountability engine drives — its
/// [`AccountedApp::execute`] is the deterministic PoE-processing step, its
/// reference machine a [`BftReplayMachine`].
#[derive(Debug)]
pub struct BftApp {
    replicas: BTreeMap<u32, Replica>,
}

impl BftApp {
    fn new(n: u32) -> Self {
        BftApp {
            replicas: (0..n).map(|i| (i, Replica::new())).collect(),
        }
    }

    fn replica_mut(&mut self, node: u32) -> &mut Replica {
        self.replicas.get_mut(&node).expect("replica exists")
    }
}

impl AccountedApp for BftApp {
    type Machine = BftReplayMachine;

    fn replay_machine(&self) -> BftReplayMachine {
        BftReplayMachine::default()
    }

    fn execute(&mut self, node: u32, command: &[u8]) -> Vec<u8> {
        let replica = self.replica_mut(node);
        let outcome = process_poe(&mut replica.machine, &mut replica.applied_rounds, command);
        if let PoeOutcome::Rejected {
            round,
            claimed,
            expected,
        } = outcome
        {
            replica.detected_faults.push(format!(
                "round {round}: leader claimed output {claimed} but specification gives {expected}"
            ));
        }
        outcome.encode()
    }

    fn snapshot_digest(&self, node: u32) -> [u8; 32] {
        self.replicas.get(&node).map_or([0u8; 32], |r| {
            bft_state_digest(&r.machine, &r.applied_rounds)
        })
    }

    fn label(&self) -> &'static str {
        "bft-counter"
    }
}

/// The reference machine witnesses replay against a replica's logged PoE
/// stream: the same deterministic validate-and-apply step as the live
/// replica, minus protocol side effects.
#[derive(Debug, Clone, Default)]
pub struct BftReplayMachine {
    machine: CounterMachine,
    applied_rounds: BTreeMap<u64, u64>,
}

impl StateMachine for BftReplayMachine {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        process_poe(&mut self.machine, &mut self.applied_rounds, command).encode()
    }

    fn state_digest(&self) -> [u8; 32] {
        bft_state_digest(&self.machine, &self.applied_rounds)
    }
}

/// A reply delivered to the client, signed with the replica's client-facing
/// key (clients cannot hold the shared session keys, Appendix C.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReply {
    /// The replying replica.
    pub replica: NodeId,
    /// The committed counter value.
    pub value: u64,
    /// The round the value was committed in.
    pub round: u64,
    /// Signature over `round ‖ value`.
    pub signature: Signature,
}

/// The result of one committed round, as observed by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitResult {
    /// The committed counter value.
    pub value: u64,
    /// How many identical replies the client collected.
    pub matching_replies: usize,
    /// The replies themselves.
    pub replies: Vec<ClientReply>,
}

/// Configuration of the BFT counter deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BftConfig {
    /// Number of tolerated Byzantine replicas; the deployment has `2f + 1`.
    pub f: u32,
    /// Network batching factor (requests per round), as swept in Figure 10.
    pub batch_size: usize,
    /// Size in bytes of each client request context (zero-padded; the
    /// paper's workload uses 60 B contexts). Clamped to at least the 12 B
    /// round/index header.
    pub request_len: usize,
}

impl Default for BftConfig {
    fn default() -> Self {
        BftConfig {
            f: 1,
            batch_size: 1,
            request_len: 12,
        }
    }
}

/// The replicated-counter deployment: one leader plus `2f` followers.
#[derive(Debug)]
pub struct BftCounter {
    cluster: Cluster,
    config: BftConfig,
    leader: NodeId,
    followers: Vec<NodeId>,
    app: BftApp,
    round: u64,
    leader_byzantine: bool,
    acct: Option<AccountabilityEngine<BftApp>>,
}

impl BftCounter {
    /// Builds a `2f + 1`-replica deployment over the given attestation
    /// baseline.
    ///
    /// # Errors
    ///
    /// Propagates connection/session errors.
    pub fn new(
        baseline: Baseline,
        stack: NetworkStackKind,
        config: BftConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let n = 2 * config.f + 1;
        let mut cluster = Cluster::fully_connected(n, baseline, stack, seed);
        let leader = NodeId(0);
        let followers: Vec<NodeId> = (1..n).map(NodeId).collect();
        cluster.establish_group(leader, &followers)?;
        for &f in &followers {
            let peers: Vec<NodeId> = (0..n).map(NodeId).filter(|&p| p != f).collect();
            cluster.establish_group(f, &peers)?;
        }
        Ok(BftCounter {
            cluster,
            config,
            leader,
            followers,
            app: BftApp::new(n),
            round: 0,
            leader_byzantine: false,
            acct: None,
        })
    }

    /// Builds the deployment with the PeerReview accountability engine
    /// stacked underneath: every protocol message is registered in
    /// per-replica tamper-evident logs, commitments piggyback on PoE
    /// multicasts (when `acct.piggyback` is set) and Byzantine replicas
    /// named in `faults` are *exposed* by witness audits rather than merely
    /// tolerated. Drive it through [`Accountable`]: `run_rounds` around the
    /// client operations, `drain_audits` to close the pipeline; verdicts and
    /// counters are read from `engine()`.
    ///
    /// # Errors
    ///
    /// Propagates connection/session errors.
    pub fn with_accountability(
        baseline: Baseline,
        stack: NetworkStackKind,
        config: BftConfig,
        seed: u64,
        acct: EngineConfig,
        faults: FaultPlan,
    ) -> Result<Self, CoreError> {
        let mut system = BftCounter::new(baseline, stack, config, seed)?;
        let engine = AccountabilityEngine::attach(&mut system.cluster, &system.app, acct, faults);
        system.acct = Some(engine);
        Ok(system)
    }

    /// Number of replicas in the deployment.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.followers.len() + 1
    }

    /// Marks the leader as Byzantine: it will report a wrong output in its
    /// proofs of execution (used by fault-injection tests).
    pub fn make_leader_byzantine(&mut self) {
        self.leader_byzantine = true;
    }

    /// Virtual time elapsed so far.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.cluster.now()
    }

    /// The committed counter value at a given replica.
    #[must_use]
    pub fn replica_value(&self, node: NodeId) -> u64 {
        self.app
            .replicas
            .get(&node.0)
            .map_or(0, |r| r.machine.value())
    }

    /// Faults detected by followers so far.
    #[must_use]
    pub fn detected_faults(&self) -> Vec<String> {
        self.app
            .replicas
            .values()
            .flat_map(|r| r.detected_faults.iter().cloned())
            .collect()
    }

    /// Digest of one replica's application state.
    #[must_use]
    pub fn snapshot_digest(&self, node: NodeId) -> [u8; 32] {
        self.app.snapshot_digest(node.0)
    }

    /// Executes one client round: the batch of `batch_size` increment
    /// requests flows leader → followers → client.
    ///
    /// # Errors
    ///
    /// Propagates attestation errors; a Byzantine leader does not produce an
    /// error but fails to gather a quorum (see [`CommitResult`]).
    pub fn client_increment(&mut self) -> Result<CommitResult, CoreError> {
        let round = self.round;
        self.round += 1;
        let request_len = self.config.request_len.max(12);
        let requests: Vec<Vec<u8>> = (0..self.config.batch_size)
            .map(|i| {
                let mut r = Vec::with_capacity(request_len);
                r.extend_from_slice(&round.to_le_bytes());
                r.extend_from_slice(&(i as u32).to_le_bytes());
                r.resize(request_len, 0);
                r
            })
            .collect();

        // Leader executes the batch and multicasts its proof of execution.
        // The leader's client-facing execution is not log-driven (there is
        // no cluster `Recv` for client ingress), so it is validated by the
        // protocol's quorum check rather than by witness replay.
        let leader_id = self.leader;
        let leader_replica = self.app.replica_mut(leader_id.0);
        let mut leader_output = 0;
        for request in &requests {
            let out = leader_replica.machine.execute(request);
            leader_output = u64::from_le_bytes(out[..8].try_into().unwrap());
        }
        let reported_output = if self.leader_byzantine {
            leader_output + 100
        } else {
            leader_output
        };
        let poe = ProofOfExecution {
            round,
            requests,
            output: reported_output,
            state_digest: leader_replica.machine.state_digest(),
        };
        let followers = self.followers.clone();
        let poe_bytes = poe.encode();
        let wire_payload = if self.acct.is_some() {
            Envelope::App(poe_bytes.clone()).encode()
        } else {
            poe_bytes
        };
        let t0 = self.cluster.now();
        self.cluster
            .multicast(leader_id, &followers, &wire_payload)?;
        if let Some(engine) = self.acct.as_mut() {
            // One multicast counts as one app message per receiver; the
            // measured span covers all receivers' traversals, so attribute
            // an equal share to each recorded message.
            let total = self.cluster.now().duration_since(t0);
            let per_receiver = tnic_sim::time::SimDuration::from_nanos(
                total.as_nanos() / followers.len().max(1) as u64,
            );
            for _ in &followers {
                engine.record_app_send(per_receiver);
            }
        }

        // Followers validate, apply, and reply to the client. With
        // accountability the engine processes the inbox (logging the
        // delivery and the execution outcome); without it the driver runs
        // the same deterministic step directly.
        let mut replies = Vec::new();
        for follower in followers {
            let outcomes: Vec<Vec<u8>> = if let Some(engine) = self.acct.as_mut() {
                engine
                    .poll(&mut self.cluster, &mut self.app, follower)?
                    .into_iter()
                    .map(|d| d.output)
                    .collect()
            } else {
                self.cluster
                    .poll(follower)?
                    .into_iter()
                    .map(|d| self.app.execute(follower.0, &d.message.payload))
                    .collect()
            };
            for outcome in outcomes {
                let Some(PoeOutcome::Applied { round, value }) = PoeOutcome::decode(&outcome)
                else {
                    continue; // rejected / duplicate / malformed: no reply
                };
                let mut reply_payload = Vec::with_capacity(16);
                reply_payload.extend_from_slice(&round.to_le_bytes());
                reply_payload.extend_from_slice(&value.to_le_bytes());
                let signature = self.cluster.sign_reply(follower, &reply_payload)?;
                replies.push(ClientReply {
                    replica: follower,
                    value,
                    round,
                    signature,
                });
            }
        }

        // The (honest) leader also replies.
        if !self.leader_byzantine {
            let mut reply_payload = Vec::with_capacity(16);
            reply_payload.extend_from_slice(&round.to_le_bytes());
            reply_payload.extend_from_slice(&leader_output.to_le_bytes());
            let signature = self.cluster.sign_reply(leader_id, &reply_payload)?;
            replies.push(ClientReply {
                replica: leader_id,
                value: leader_output,
                round,
                signature,
            });
        }

        // Client side: verify signatures and count identical replies.
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for reply in &replies {
            let mut payload = Vec::with_capacity(16);
            payload.extend_from_slice(&reply.round.to_le_bytes());
            payload.extend_from_slice(&reply.value.to_le_bytes());
            if self
                .cluster
                .verify_reply(reply.replica, &payload, &reply.signature)
            {
                *counts.entry(reply.value).or_insert(0) += 1;
            }
        }
        let (value, matching) = counts.into_iter().max_by_key(|(_, c)| *c).unwrap_or((0, 0));
        Ok(CommitResult {
            value,
            matching_replies: matching,
            replies,
        })
    }

    /// Whether a commit result is accepted by the client (`f + 1` identical
    /// replies).
    #[must_use]
    pub fn is_committed(&self, result: &CommitResult) -> bool {
        result.matching_replies > self.config.f as usize
    }

    /// Access to the underlying cluster (for trace checking in tests).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

impl Accountable for BftCounter {
    type App = BftApp;

    fn engine(&self) -> &AccountabilityEngine<BftApp> {
        self.acct
            .as_ref()
            .expect("built with BftCounter::with_accountability")
    }

    fn parts(&mut self) -> (&mut AccountabilityEngine<BftApp>, &mut Cluster, &mut BftApp) {
        let engine = self
            .acct
            .as_mut()
            .expect("built with BftCounter::with_accountability");
        (engine, &mut self.cluster, &mut self.app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_net::adversary::NodeFault;
    use tnic_peerreview::audit::Verdict;

    fn bft(batch: usize) -> BftCounter {
        BftCounter::new(
            Baseline::Tnic,
            NetworkStackKind::Tnic,
            BftConfig {
                f: 1,
                batch_size: batch,
                ..BftConfig::default()
            },
            11,
        )
        .unwrap()
    }

    fn accountable_bft(faults: FaultPlan, piggyback: bool) -> BftCounter {
        BftCounter::with_accountability(
            Baseline::Tnic,
            NetworkStackKind::Tnic,
            BftConfig::default(),
            11,
            EngineConfig {
                seed: 11,
                piggyback,
                witness_count: Some(2),
                ..EngineConfig::default()
            },
            faults,
        )
        .unwrap()
    }

    #[test]
    fn deployment_uses_2f_plus_1_replicas() {
        let system = bft(1);
        assert_eq!(system.replica_count(), 3);
    }

    #[test]
    fn honest_rounds_commit_with_quorum() {
        let mut system = bft(1);
        for expected in 1..=5u64 {
            let result = system.client_increment().unwrap();
            assert_eq!(result.value, expected);
            assert!(system.is_committed(&result));
            assert_eq!(result.matching_replies, 3, "all replicas agree");
        }
        // All replicas converge to the same state.
        assert_eq!(system.replica_value(NodeId(0)), 5);
        assert_eq!(system.replica_value(NodeId(1)), 5);
        assert_eq!(system.replica_value(NodeId(2)), 5);
        // Five multicasts, each delivered to both backups.
        assert_eq!(system.cluster().stats().messages_sent, 10);
    }

    #[test]
    fn lemma_monitor_state_is_flat_in_run_length() {
        let mut system = accountable_bft(FaultPlan::all_correct(), true);
        system.cluster.monitor_lemmas();
        let mut state = Vec::new();
        for rounds in [3, 27] {
            system
                .run_rounds(rounds, 1, |bft, _| bft.client_increment().map(drop))
                .unwrap();
            let monitor = system.cluster().lemmas().unwrap();
            assert!(
                monitor.violations().is_empty(),
                "{:?}",
                monitor.violations()
            );
            let sent = system.cluster().stats().messages_sent;
            state.push((sent, monitor.in_flight(), monitor.links()));
        }
        let (short, long) = (state[0], state[1]);
        assert!(long.0 > 5 * short.0, "{short:?} then {long:?}");
        // Nothing held at quiescence; one counter per directed
        // pairwise link (3 × 2) and per multicast leg of the leader (2).
        assert_eq!((short.1, short.2), (0, 8));
        assert_eq!((long.1, long.2), (short.1, short.2));
    }

    #[test]
    fn batching_commits_batch_size_increments_per_round() {
        let mut system = bft(8);
        let result = system.client_increment().unwrap();
        assert_eq!(result.value, 8);
        assert!(system.is_committed(&result));
        let result = system.client_increment().unwrap();
        assert_eq!(result.value, 16);
    }

    #[test]
    fn byzantine_leader_is_detected_and_cannot_commit() {
        let mut system = bft(1);
        system.make_leader_byzantine();
        let result = system.client_increment().unwrap();
        // Followers detect the lie; the client never sees f+1 matching replies
        // for the forged value.
        assert!(!system.is_committed(&result));
        let faults = system.detected_faults();
        assert_eq!(faults.len(), 2, "both followers detect the faulty leader");
        assert!(faults[0].contains("leader claimed output"));
    }

    #[test]
    fn replies_carry_valid_signatures() {
        let mut system = bft(1);
        let result = system.client_increment().unwrap();
        assert!(result.replies.len() >= 2);
        // Signatures were already checked during quorum counting; a forged
        // reply would not count.
        assert_eq!(result.matching_replies, result.replies.len());
    }

    #[test]
    fn works_over_tee_baselines_but_slower() {
        let mut tnic = BftCounter::new(
            Baseline::Tnic,
            NetworkStackKind::Tnic,
            BftConfig::default(),
            3,
        )
        .unwrap();
        let mut sgx = BftCounter::new(
            Baseline::Sgx,
            NetworkStackKind::DrctIo,
            BftConfig::default(),
            3,
        )
        .unwrap();
        for _ in 0..5 {
            tnic.client_increment().unwrap();
            sgx.client_increment().unwrap();
        }
        assert_eq!(tnic.replica_value(NodeId(1)), 5);
        assert_eq!(sgx.replica_value(NodeId(1)), 5);
        assert!(sgx.now() > tnic.now(), "SGX-based deployment is slower");
    }

    #[test]
    fn proof_of_execution_round_trips() {
        let poe = ProofOfExecution {
            round: 42,
            requests: vec![b"a".to_vec(), b"bb".to_vec()],
            output: 7,
            state_digest: [9u8; 32],
        };
        assert_eq!(ProofOfExecution::decode(&poe.encode()).unwrap(), poe);
        assert!(ProofOfExecution::decode(&[1, 2]).is_err());
    }

    #[test]
    fn poe_outcome_round_trips() {
        for outcome in [
            PoeOutcome::Applied { round: 3, value: 9 },
            PoeOutcome::Rejected {
                round: 1,
                claimed: 7,
                expected: 2,
            },
            PoeOutcome::Duplicate { round: 5 },
            PoeOutcome::Malformed,
        ] {
            assert_eq!(PoeOutcome::decode(&outcome.encode()), Some(outcome));
        }
        assert_eq!(PoeOutcome::decode(&[]), None);
        assert_eq!(PoeOutcome::decode(&[0, 1]), None);
    }

    #[test]
    fn replay_machine_mirrors_live_replica_execution() {
        let mut system = bft(2);
        let poe_stream: Vec<Vec<u8>> = (0..3)
            .map(|_| {
                let round = system.round;
                system.client_increment().unwrap();
                // Rebuild the PoE the leader multicast for this round.
                let value = system.replica_value(NodeId(0));
                let requests: Vec<Vec<u8>> = (0..2)
                    .map(|i| {
                        let mut r = Vec::new();
                        r.extend_from_slice(&round.to_le_bytes());
                        r.extend_from_slice(&(i as u32).to_le_bytes());
                        r
                    })
                    .collect();
                ProofOfExecution {
                    round,
                    requests,
                    output: value,
                    state_digest: [0u8; 32],
                }
                .encode()
            })
            .collect();
        let mut replay = BftReplayMachine::default();
        for poe in &poe_stream {
            let outcome = PoeOutcome::decode(&replay.execute(poe)).unwrap();
            assert!(matches!(outcome, PoeOutcome::Applied { .. }));
        }
        assert_eq!(
            replay.state_digest(),
            system.snapshot_digest(NodeId(1)),
            "replaying the PoE stream reproduces a follower's state"
        );
    }

    #[test]
    fn accountable_fault_free_rounds_commit_and_stay_trusted() {
        for piggyback in [false, true] {
            let mut system = accountable_bft(FaultPlan::all_correct(), piggyback);
            system
                .run_rounds(3, 1, |system, round| {
                    for i in 0..4u64 {
                        let result = system.client_increment()?;
                        assert!(system.is_committed(&result), "round {round} op {i}");
                    }
                    Ok(())
                })
                .unwrap();
            system.drain_audits().unwrap();
            let engine = system.engine();
            let stats = engine.stats();
            assert_eq!(stats.unanswered_challenges, 0, "piggyback={piggyback}");
            assert!(stats.challenges > 0);
            for node in 0..3 {
                for &w in engine.witnesses_of(node) {
                    assert_eq!(
                        engine.verdict_of(w, node),
                        Verdict::Trusted,
                        "node {node} witness {w} piggyback={piggyback}"
                    );
                    assert!(engine.evidence_of(w, node).is_empty());
                }
            }
            if piggyback {
                assert!(stats.piggybacked_commitments > 0, "rides found traffic");
            }
        }
    }

    #[test]
    fn equivocating_replica_is_exposed_with_evidence() {
        for piggyback in [false, true] {
            let byzantine = 1u32;
            let mut system = accountable_bft(
                FaultPlan::single(byzantine, NodeFault::Equivocate),
                piggyback,
            );
            system
                .run_rounds(3, 1, |system, _| {
                    for _ in 0..4 {
                        // The protocol itself still commits: equivocation lives in
                        // the commitment layer, not the PoE dataflow.
                        let result = system.client_increment()?;
                        assert!(system.is_committed(&result));
                    }
                    Ok(())
                })
                .unwrap();
            system.drain_audits().unwrap();
            let engine = system.engine();
            for w in engine.correct_witnesses_of(byzantine) {
                assert_eq!(
                    engine.verdict_of(w, byzantine),
                    Verdict::Exposed,
                    "witness {w} piggyback={piggyback}"
                );
                assert!(!engine.evidence_of(w, byzantine).is_empty());
            }
            // Correct replicas keep clean records.
            for node in [0u32, 2] {
                for w in engine.correct_witnesses_of(node) {
                    assert_eq!(engine.verdict_of(w, node), Verdict::Trusted);
                }
            }
        }
    }
}
