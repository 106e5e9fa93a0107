//! Attested Append-only Memory (A2M) built on TNIC (paper §7, §C.2,
//! Algorithm 2).
//!
//! A2M provides trusted, append-only logs: each entry is bound to a
//! monotonically increasing sequence number so a (possibly Byzantine) host
//! cannot equivocate about log contents. Unlike the original SGX-hosted A2M,
//! the TNIC variant keeps the log in **untrusted host memory** and only the
//! attestation (generated by the NIC) is trusted — shrinking the TCB and
//! avoiding the enclave-paging collapse on lookups (Table 3).
//!
//! Operations: [`A2m::append`], [`A2m::lookup`] and [`A2m::verify_lookup`].
//! The paper's `truncate` and its manifest log are not modelled: no run or
//! application truncated a log.
//!
//! # Accountable replicated A2M
//!
//! [`AccountableA2m`] stacks the application-agnostic PeerReview engine
//! (`tnic_peerreview::engine`) under a *replicated* A2M deployment: a head
//! node applies each client append/lookup locally and forwards it to every
//! replica as an `Envelope::App` command; replicas execute through the
//! engine, so every operation lands in a tamper-evident log and witnesses
//! replay the deterministic reference log ([`A2mMachine`]) against the
//! logged outputs. A replica that rewrites its logged append outputs is
//! *exposed* with verifiable evidence — completing the "one engine, every
//! case study" story (PeerReview, BFT, chain replication, A2M).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use tnic_core::api::{Cluster, NodeId};
use tnic_core::error::CoreError;
use tnic_core::transform::StateMachine;
use tnic_core::{AttestedMessage, Baseline, NetworkStackKind};
use tnic_crypto::sha256::sha256;
use tnic_net::adversary::FaultPlan;
use tnic_peerreview::deployment::Accountable;
use tnic_peerreview::engine::{AccountabilityEngine, AccountedApp, EngineConfig};
use tnic_peerreview::wire::Envelope;

/// Identifier of one append-only log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogId(pub u32);

/// One entry of an attested log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The entry's monotonically increasing sequence number (the TNIC send
    /// counter at append time).
    pub sequence: u64,
    /// The application payload.
    pub context: Vec<u8>,
    /// The attestation binding `context` to `sequence`.
    pub attested: AttestedMessage,
    /// Cumulative digest `hash(ctx ‖ seq ‖ prev_digest)` as in the original
    /// A2M authenticator format.
    pub cumulative_digest: [u8; 32],
}

/// An A2M instance: a single node whose TNIC generates attestations for log
/// appends, with the log bodies stored in untrusted host memory.
#[derive(Debug)]
pub struct A2m {
    cluster: Cluster,
    node: NodeId,
    logs: HashMap<LogId, Vec<LogEntry>>,
}

impl A2m {
    /// Creates an A2M instance backed by the given attestation baseline.
    ///
    /// # Errors
    ///
    /// Propagates session-establishment errors.
    pub fn new(baseline: Baseline, seed: u64) -> Result<Self, CoreError> {
        let mut cluster = Cluster::new(baseline, NetworkStackKind::Tnic, seed);
        let node = NodeId(0);
        cluster.add_node(node);
        cluster.establish_local(node)?;
        Ok(A2m {
            cluster,
            node,
            logs: HashMap::new(),
        })
    }

    /// `append(id, ctx)`: attests the entry, assigns it the next sequence
    /// number and stores it in the (untrusted) log.
    ///
    /// # Errors
    ///
    /// Propagates attestation errors.
    pub fn append(&mut self, log: LogId, context: &[u8]) -> Result<LogEntry, CoreError> {
        let attested = self.cluster.local_send(self.node, context)?;
        let sequence = attested.counter;
        let entries = self.logs.entry(log).or_default();
        let prev_digest = entries
            .last()
            .map(|e| e.cumulative_digest)
            .unwrap_or([0u8; 32]);
        let mut digest_input = Vec::with_capacity(context.len() + 8 + 32);
        digest_input.extend_from_slice(context);
        digest_input.extend_from_slice(&sequence.to_le_bytes());
        digest_input.extend_from_slice(&prev_digest);
        let entry = LogEntry {
            sequence,
            context: context.to_vec(),
            attested,
            cumulative_digest: sha256(&digest_input),
        };
        entries.push(entry.clone());
        Ok(entry)
    }

    /// `lookup(id, i)`: retrieves the `i`-th (position) entry from untrusted
    /// host memory without touching the trusted hardware.
    #[must_use]
    pub fn lookup(&self, log: LogId, position: usize) -> Option<&LogEntry> {
        self.logs.get(&log).and_then(|l| l.get(position))
    }

    /// `verify_lookup(id, e)`: verifies that an entry is genuine (attestation
    /// binding). Entries carry their own binding, so `id` decides nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TransformViolation`] when the entry's metadata
    /// disagrees with its attestation and the underlying attestation error
    /// for forged entries.
    pub fn verify_lookup(&mut self, _log: LogId, entry: &LogEntry) -> Result<(), CoreError> {
        if entry.attested.counter != entry.sequence || entry.attested.payload != entry.context {
            return Err(CoreError::TransformViolation("entry metadata mismatch"));
        }
        self.cluster.local_verify(self.node, &entry.attested)
    }
}

// ---- accountable replicated A2M ----------------------------------------

/// Command tag: append the remaining bytes to the replicated log.
pub const OP_APPEND: u8 = b'a';
/// Command tag: look up the entry at the 8-byte little-endian position that
/// follows.
pub const OP_LOOKUP: u8 = b'l';

/// Builds an append command for the replicated A2M workload.
#[must_use]
pub fn append_command(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + payload.len());
    out.push(OP_APPEND);
    out.extend_from_slice(payload);
    out
}

/// The deterministic reference log the accountability engine replays: an
/// append-only list of payloads with a chained digest. `execute` is the
/// shared append/lookup step used identically by live replicas
/// ([`A2mApp`]) and witness replay — any divergence between the two would
/// falsely expose an honest node.
#[derive(Debug, Clone, Default)]
pub struct A2mMachine {
    entries: Vec<Vec<u8>>,
    digest: [u8; 32],
}

impl StateMachine for A2mMachine {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        match command.split_first() {
            Some((&OP_APPEND, payload)) => {
                let position = self.entries.len() as u64;
                let mut input = Vec::with_capacity(32 + 8 + payload.len());
                input.extend_from_slice(&self.digest);
                input.extend_from_slice(&position.to_le_bytes());
                input.extend_from_slice(payload);
                self.digest = sha256(&input);
                self.entries.push(payload.to_vec());
                let mut out = Vec::with_capacity(8 + 32);
                out.extend_from_slice(&position.to_le_bytes());
                out.extend_from_slice(&self.digest);
                out
            }
            Some((&OP_LOOKUP, rest)) if rest.len() == 8 => {
                let position = u64::from_le_bytes(rest.try_into().expect("sized"));
                match self.entries.get(position as usize) {
                    Some(entry) => {
                        let mut out = Vec::with_capacity(1 + entry.len());
                        out.push(1);
                        out.extend_from_slice(entry);
                        out
                    }
                    None => vec![0],
                }
            }
            _ => b"<malformed a2m op>".to_vec(),
        }
    }

    fn state_digest(&self) -> [u8; 32] {
        self.digest
    }
}

/// The replicated application state: one [`A2mMachine`] per replica. This
/// is the [`AccountedApp`] the accountability engine drives.
#[derive(Debug)]
pub struct A2mApp {
    replicas: BTreeMap<u32, A2mMachine>,
}

impl A2mApp {
    fn new(nodes: &[NodeId]) -> Self {
        A2mApp {
            replicas: nodes
                .iter()
                .map(|&n| (n.0, A2mMachine::default()))
                .collect(),
        }
    }

    fn replica_mut(&mut self, node: u32) -> &mut A2mMachine {
        self.replicas.get_mut(&node).expect("replica exists")
    }
}

impl AccountedApp for A2mApp {
    type Machine = A2mMachine;

    fn replay_machine(&self) -> A2mMachine {
        A2mMachine::default()
    }

    fn execute(&mut self, node: u32, command: &[u8]) -> Vec<u8> {
        self.replica_mut(node).execute(command)
    }

    fn snapshot_digest(&self, node: u32) -> [u8; 32] {
        self.replicas
            .get(&node)
            .map_or([0u8; 32], A2mMachine::state_digest)
    }

    fn label(&self) -> &'static str {
        "a2m"
    }
}

/// The client-observable result of one replicated A2M operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct A2mOpResult {
    /// The head's output for the operation.
    pub output: Vec<u8>,
    /// Whether every replica produced the head's output (replication
    /// health, analogous to chain commit).
    pub committed: bool,
}

/// A replicated, accountable A2M deployment: the head applies every client
/// operation and forwards it to each replica as an `Envelope::App` command;
/// the attached accountability engine logs and audits every replica's
/// execution. See the crate docs for the dataflow.
pub struct AccountableA2m {
    cluster: Cluster,
    nodes: Vec<NodeId>,
    app: A2mApp,
    engine: AccountabilityEngine<A2mApp>,
}

impl std::fmt::Debug for AccountableA2m {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccountableA2m")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl AccountableA2m {
    /// Builds a replicated deployment of `nodes` replicas (head first) with
    /// the accountability engine attached under the given fault plan.
    ///
    /// # Errors
    ///
    /// Propagates cluster connection errors.
    pub fn new(
        nodes: u32,
        baseline: Baseline,
        stack: NetworkStackKind,
        seed: u64,
        acct: EngineConfig,
        faults: FaultPlan,
    ) -> Result<Self, CoreError> {
        assert!(nodes >= 2, "replication needs a head and a replica");
        let mut cluster = Cluster::fully_connected(nodes, baseline, stack, seed);
        let node_ids: Vec<NodeId> = cluster.nodes();
        let app = A2mApp::new(&node_ids);
        let engine = AccountabilityEngine::attach(&mut cluster, &app, acct, faults);
        Ok(AccountableA2m {
            cluster,
            nodes: node_ids,
            app,
            engine,
        })
    }

    /// Replicates one client operation: the head applies it locally (client
    /// ingress is not log-driven, exactly like the chain head) and forwards
    /// it to every replica through the engine, which logs and executes it.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors.
    fn replicate(&mut self, command: &[u8]) -> Result<A2mOpResult, CoreError> {
        let head = self.nodes[0];
        let output = self.app.replica_mut(head.0).execute(command);
        let wire = Envelope::App(command.to_vec()).encode();
        let mut committed = true;
        for &replica in &self.nodes[1..] {
            let t0 = self.cluster.now();
            self.cluster.auth_send(head, replica, &wire)?;
            let latency = self.cluster.now().duration_since(t0);
            self.engine.record_app_send(latency);
            let delivery = self
                .engine
                .poll(&mut self.cluster, &mut self.app, replica)?
                .pop()
                .expect("command delivered");
            committed &= delivery.output == output;
        }
        Ok(A2mOpResult { output, committed })
    }

    /// `append(ctx)` across the replica set.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors.
    pub fn append(&mut self, payload: &[u8]) -> Result<A2mOpResult, CoreError> {
        self.replicate(&append_command(payload))
    }

    /// Number of replicas (head included).
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.nodes.len()
    }

    /// Digest of `node`'s replicated log (replica-parity checks).
    #[must_use]
    pub fn replica_digest(&self, node: NodeId) -> [u8; 32] {
        self.app.snapshot_digest(node.0)
    }
}

impl Accountable for AccountableA2m {
    type App = A2mApp;

    fn engine(&self) -> &AccountabilityEngine<A2mApp> {
        &self.engine
    }

    fn parts(&mut self) -> (&mut AccountabilityEngine<A2mApp>, &mut Cluster, &mut A2mApp) {
        (&mut self.engine, &mut self.cluster, &mut self.app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a2m() -> A2m {
        A2m::new(Baseline::Tnic, 7).unwrap()
    }

    fn len(log: &A2m, id: LogId) -> usize {
        log.logs.get(&id).map_or(0, Vec::len)
    }

    fn lookup_command(position: u64) -> Vec<u8> {
        [&[OP_LOOKUP][..], &position.to_le_bytes()].concat()
    }

    #[test]
    fn append_assigns_monotonic_sequences() {
        let mut log = a2m();
        let e0 = log.append(LogId(1), b"first").unwrap();
        let e1 = log.append(LogId(1), b"second").unwrap();
        let e2 = log.append(LogId(1), b"third").unwrap();
        assert!(e0.sequence < e1.sequence && e1.sequence < e2.sequence);
        assert_eq!(len(&log, LogId(1)), 3);
    }

    #[test]
    fn lookup_is_a_plain_memory_access() {
        let mut log = a2m();
        log.append(LogId(1), b"entry").unwrap();
        let before = log.cluster.now();
        let entry = log.lookup(LogId(1), 0).unwrap();
        assert_eq!(entry.context, b"entry");
        // No virtual time passes: lookups never touch the trusted hardware.
        assert_eq!(log.cluster.now(), before);
        assert!(log.lookup(LogId(1), 5).is_none());
        assert!(log.lookup(LogId(9), 0).is_none());
    }

    #[test]
    fn verify_lookup_accepts_genuine_entries() {
        let mut log = a2m();
        let entries: Vec<LogEntry> = (0..5)
            .map(|i| log.append(LogId(1), format!("e{i}").as_bytes()).unwrap())
            .collect();
        // Entries verify in any order (binding check, not counter order).
        for e in entries.iter().rev() {
            log.verify_lookup(LogId(1), e).unwrap();
        }
    }

    #[test]
    fn verify_lookup_rejects_forged_entries() {
        let mut log = a2m();
        let mut entry = log.append(LogId(1), b"real").unwrap();
        entry.context = b"fake".to_vec();
        entry.attested.payload = b"fake".to_vec();
        assert!(log.verify_lookup(LogId(1), &entry).is_err());
        // Metadata mismatch (claimed sequence differs from attested counter).
        let mut entry2 = log.append(LogId(1), b"x").unwrap();
        entry2.sequence += 10;
        assert!(log.verify_lookup(LogId(1), &entry2).is_err());
    }

    #[test]
    fn cumulative_digests_chain() {
        let mut log = a2m();
        log.append(LogId(1), b"a").unwrap();
        log.append(LogId(1), b"b").unwrap();
        let e0 = log.lookup(LogId(1), 0).unwrap().clone();
        let e1 = log.lookup(LogId(1), 1).unwrap().clone();
        let mut input = Vec::new();
        input.extend_from_slice(b"b");
        input.extend_from_slice(&e1.sequence.to_le_bytes());
        input.extend_from_slice(&e0.cumulative_digest);
        assert_eq!(e1.cumulative_digest, sha256(&input));
    }

    #[test]
    fn independent_logs_are_isolated() {
        let mut log = a2m();
        log.append(LogId(1), b"log1").unwrap();
        log.append(LogId(2), b"log2").unwrap();
        assert_eq!(len(&log, LogId(1)), 1);
        assert_eq!(len(&log, LogId(2)), 1);
        assert_eq!(len(&log, LogId(3)), 0);
    }

    #[test]
    fn works_on_tee_baselines_too() {
        for baseline in [Baseline::SslLib, Baseline::Sgx, Baseline::AmdSev] {
            let mut log = A2m::new(baseline, 3).unwrap();
            let e = log.append(LogId(1), b"entry").unwrap();
            log.verify_lookup(LogId(1), &e).unwrap();
        }
    }

    use tnic_net::adversary::NodeFault;
    use tnic_peerreview::audit::{Misbehavior, Verdict};

    fn accountable(faults: FaultPlan, piggyback: bool) -> AccountableA2m {
        AccountableA2m::new(
            3,
            Baseline::Tnic,
            NetworkStackKind::Tnic,
            7,
            EngineConfig {
                seed: 7,
                piggyback,
                witness_count: Some(2),
                ..EngineConfig::default()
            },
            faults,
        )
        .unwrap()
    }

    #[test]
    fn a2m_machine_append_lookup_is_deterministic() {
        let mut a = A2mMachine::default();
        let mut b = A2mMachine::default();
        for m in [&mut a, &mut b] {
            m.execute(&append_command(b"first"));
            m.execute(&append_command(b"second"));
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.entries, [b"first".to_vec(), b"second".to_vec()]);
        // Lookups are read-only and self-describing (found flag + payload).
        let found = a.execute(&lookup_command(0));
        assert_eq!(found, [&[1u8][..], b"first"].concat());
        assert_eq!(a.execute(&lookup_command(9)), vec![0]);
        assert_eq!(a.state_digest(), b.state_digest(), "lookups mutate nothing");
        assert_eq!(a.execute(b"bogus"), b"<malformed a2m op>".to_vec());
    }

    #[test]
    fn accountable_fault_free_run_replicates_and_stays_trusted() {
        let mut sys = accountable(FaultPlan::all_correct(), false);
        sys.run_rounds(3, 1, |sys, round| {
            for i in 0..4u64 {
                let op = round * 4 + i;
                if op % 4 == 3 {
                    assert!(sys.replicate(&lookup_command(op / 2))?.committed);
                } else {
                    let result = sys.append(format!("e{op}").as_bytes())?;
                    assert!(result.committed, "replicas agree with the head");
                }
            }
            Ok(())
        })
        .unwrap();
        sys.drain_audits().unwrap();
        // Replica parity, head included.
        let head = sys.replica_digest(NodeId(0));
        for i in 1..sys.replica_count() as u32 {
            assert_eq!(sys.replica_digest(NodeId(i)), head, "replica {i}");
        }
        let engine = sys.engine();
        for node in 0..3 {
            for &w in engine.witnesses_of(node) {
                assert_eq!(engine.verdict_of(w, node), Verdict::Trusted);
            }
        }
        let stats = engine.stats();
        assert!(stats.challenges > 0, "audits actually ran");
        assert!(stats.log_entries > 0);
    }

    #[test]
    fn tampering_a2m_replica_is_exposed_in_both_commit_modes() {
        for piggyback in [false, true] {
            let mut sys = accountable(
                FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
                piggyback,
            );
            sys.run_rounds(3, 1, |sys, round| {
                for i in 0..4u64 {
                    sys.append(format!("e{}", round * 4 + i).as_bytes())?;
                }
                Ok(())
            })
            .unwrap();
            sys.drain_audits().unwrap();
            let engine = sys.engine();
            for w in engine.correct_witnesses_of(1) {
                assert_eq!(
                    engine.verdict_of(w, 1),
                    Verdict::Exposed,
                    "piggyback={piggyback} witness {w}"
                );
                assert!(engine
                    .evidence_of(w, 1)
                    .iter()
                    .any(|e| matches!(e, Misbehavior::ExecDivergence { .. })));
            }
            // Accuracy: the head and the honest replica stay trusted.
            for node in [0u32, 2] {
                for w in engine.correct_witnesses_of(node) {
                    assert_eq!(engine.verdict_of(w, node), Verdict::Trusted);
                }
            }
        }
    }

    #[test]
    fn checkpointed_a2m_run_prunes_and_keeps_verdicts() {
        let mut sys = AccountableA2m::new(
            3,
            Baseline::Tnic,
            NetworkStackKind::Tnic,
            11,
            EngineConfig {
                seed: 11,
                checkpoint_interval: Some(1),
                ..EngineConfig::default()
            },
            FaultPlan::all_correct(),
        )
        .unwrap();
        sys.run_rounds(4, 1, |sys, round| {
            for i in 0..4u64 {
                sys.append(format!("e{}", round * 4 + i).as_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        let stats = sys.engine().stats();
        assert!(stats.checkpoints_completed > 0, "a2m logs checkpoint too");
        assert!(stats.pruned_log_entries > 0);
        assert!(stats.retained_log_entries < stats.log_entries);
        for node in 0..3 {
            for &w in sys.engine().witnesses_of(node) {
                assert_eq!(sys.engine().verdict_of(w, node), Verdict::Trusted);
            }
        }
    }

    #[test]
    fn appends_advance_virtual_time_lookups_do_not() {
        let mut log = a2m();
        let t0 = log.cluster.now();
        for i in 0..10u32 {
            log.append(LogId(1), &i.to_le_bytes()).unwrap();
        }
        let t1 = log.cluster.now();
        assert!(t1 > t0);
        for i in 0..10 {
            let _ = log.lookup(LogId(1), i);
        }
        assert_eq!(log.cluster.now(), t1);
    }
}
