//! Byzantine chain replication of a key-value store built on TNIC (paper §7,
//! §C.4, Algorithm 4).
//!
//! Replicas are arranged in a chain (head → middle… → tail) with the same
//! `f + 1` replication factor as the CFT original. The head orders and
//! executes each client request and creates an attested *proof of execution*
//! (PoE); every subsequent node validates the accumulated PoE (simulating the
//! previous nodes' outputs), executes the request, appends its own output and
//! forwards. Unlike CFT chain replication, reads cannot be served by the tail
//! alone in a Byzantine setting, so every operation traverses the whole chain
//! and the client waits for identical replies from all chained nodes.
//!
//! # Accountability
//!
//! [`ChainReplication::with_accountability`] stacks the application-agnostic
//! PeerReview engine ([`tnic_peerreview::engine`]) under the chain: the
//! forwarded proofs travel wrapped as [`Envelope::App`], every hop's
//! delivery and execution is registered in per-node tamper-evident logs,
//! commitments piggyback on the chain traffic, and witness audits replay
//! each node's proof stream against [`CrReplayMachine`]. A tampering node —
//! e.g. a tail that rewrites an execution it already committed to — is
//! thereby *exposed* with transferable evidence
//! ([`Verdict::Exposed`](tnic_peerreview::audit::Verdict)) at every correct
//! witness, rather than merely causing a failed commit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use tnic_core::api::{Cluster, NodeId};
use tnic_core::error::CoreError;
use tnic_core::transform::StateMachine;
use tnic_core::{Baseline, NetworkStackKind};
use tnic_crypto::ed25519::Signature;
use tnic_crypto::sha256::sha256;
use tnic_net::adversary::FaultPlan;
use tnic_peerreview::deployment::Accountable;
use tnic_peerreview::engine::{AccountabilityEngine, AccountedApp, EngineConfig};
use tnic_peerreview::wire::Envelope;
use tnic_sim::time::SimInstant;

/// A client operation against the replicated key-value store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOperation {
    /// Store `value` under `key`.
    Put {
        /// The key (the paper's workload uses 60 B request contexts).
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Read the value stored under `key`.
    Get {
        /// The key.
        key: Vec<u8>,
    },
}

impl KvOperation {
    fn encode(&self) -> Vec<u8> {
        match self {
            KvOperation::Put { key, value } => {
                let mut out = vec![0u8];
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(value);
                out
            }
            KvOperation::Get { key } => {
                let mut out = vec![1u8];
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                out
            }
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let err = || CoreError::TransformViolation("malformed kv operation");
        if bytes.len() < 5 {
            return Err(err());
        }
        let key_len = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
        if bytes.len() < 5 + key_len {
            return Err(err());
        }
        let key = bytes[5..5 + key_len].to_vec();
        match bytes[0] {
            0 => Ok(KvOperation::Put {
                key,
                value: bytes[5 + key_len..].to_vec(),
            }),
            1 => Ok(KvOperation::Get { key }),
            _ => Err(err()),
        }
    }
}

/// A simple in-memory key-value store — the substrate being replicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl KvStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Applies an operation deterministically and returns its output.
    pub fn apply(&mut self, op: &KvOperation) -> Vec<u8> {
        match op {
            KvOperation::Put { key, value } => {
                self.map.insert(key.clone(), value.clone());
                b"ok".to_vec()
            }
            KvOperation::Get { key } => self.map.get(key).cloned().unwrap_or_default(),
        }
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Digest of the full store contents.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut bytes = Vec::new();
        for (k, v) in &self.map {
            bytes.extend_from_slice(&(k.len() as u32).to_le_bytes());
            bytes.extend_from_slice(k);
            bytes.extend_from_slice(&(v.len() as u32).to_le_bytes());
            bytes.extend_from_slice(v);
        }
        sha256(&bytes)
    }
}

/// The accumulated proof of execution flowing down the chain: the original
/// request plus each node's output and commit index so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainedProof {
    /// The client request.
    pub operation: Vec<u8>,
    /// The commit index assigned by the head.
    pub commit_index: u64,
    /// Output of every node that has executed the request so far, in chain
    /// order.
    pub outputs: Vec<Vec<u8>>,
}

impl ChainedProof {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.operation.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.operation);
        out.extend_from_slice(&self.commit_index.to_le_bytes());
        out.extend_from_slice(&(self.outputs.len() as u32).to_le_bytes());
        for o in &self.outputs {
            out.extend_from_slice(&(o.len() as u32).to_le_bytes());
            out.extend_from_slice(o);
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let err = || CoreError::TransformViolation("malformed chained proof");
        if bytes.len() < 4 {
            return Err(err());
        }
        let op_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let mut off = 4;
        if bytes.len() < off + op_len + 12 {
            return Err(err());
        }
        let operation = bytes[off..off + op_len].to_vec();
        off += op_len;
        let commit_index = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        off += 8;
        let count = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        let mut outputs = Vec::with_capacity(count.min(bytes.len() / 4));
        for _ in 0..count {
            if bytes.len() < off + 4 {
                return Err(err());
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            if bytes.len() < off + len {
                return Err(err());
            }
            outputs.push(bytes[off..off + len].to_vec());
            off += len;
        }
        Ok(ChainedProof {
            operation,
            commit_index,
            outputs,
        })
    }
}

/// The shared deterministic per-hop execution step: decode the forwarded
/// proof, decode the client operation it carries and apply it to the local
/// store. Used identically by live nodes ([`CrApp`]) and witness replay
/// ([`CrReplayMachine`]) — any divergence between the two would falsely
/// expose an honest node.
fn process_proof(store: &mut KvStore, proof_bytes: &[u8]) -> Vec<u8> {
    let Ok(proof) = ChainedProof::decode(proof_bytes) else {
        return b"<malformed proof>".to_vec();
    };
    let Ok(op) = KvOperation::decode(&proof.operation) else {
        return b"<malformed operation>".to_vec();
    };
    store.apply(&op)
}

/// The replicated application state: one [`KvStore`] per chain node. This
/// is the [`AccountedApp`] the accountability engine drives.
#[derive(Debug)]
pub struct CrApp {
    stores: BTreeMap<u32, KvStore>,
}

impl CrApp {
    fn new(nodes: &[NodeId]) -> Self {
        CrApp {
            stores: nodes.iter().map(|&n| (n.0, KvStore::new())).collect(),
        }
    }

    fn store_mut(&mut self, node: u32) -> &mut KvStore {
        self.stores.get_mut(&node).expect("store exists")
    }
}

impl AccountedApp for CrApp {
    type Machine = CrReplayMachine;

    fn replay_machine(&self) -> CrReplayMachine {
        CrReplayMachine::default()
    }

    fn execute(&mut self, node: u32, command: &[u8]) -> Vec<u8> {
        process_proof(self.store_mut(node), command)
    }

    fn snapshot_digest(&self, node: u32) -> [u8; 32] {
        self.stores.get(&node).map_or([0u8; 32], KvStore::digest)
    }

    fn label(&self) -> &'static str {
        "chain-replication"
    }
}

/// The reference machine witnesses replay against a chain node's logged
/// proof stream: the same deterministic decode-and-apply step as the live
/// node.
#[derive(Debug, Clone, Default)]
pub struct CrReplayMachine {
    store: KvStore,
}

impl StateMachine for CrReplayMachine {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        process_proof(&mut self.store, command)
    }

    fn state_digest(&self) -> [u8; 32] {
        self.store.digest()
    }
}

/// One node's signed reply to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainReply {
    /// The replying node.
    pub node: NodeId,
    /// The node's output for the request.
    pub output: Vec<u8>,
    /// Signature over `commit_index ‖ output`.
    pub signature: Signature,
}

/// The client-observable result of one chain operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainResult {
    /// The output accepted by the client (identical across replies), if any.
    pub output: Option<Vec<u8>>,
    /// Replies from every node in the chain.
    pub replies: Vec<ChainReply>,
    /// Whether all chained nodes replied identically with valid signatures.
    pub committed: bool,
}

/// The chain-replication deployment.
#[derive(Debug)]
pub struct ChainReplication {
    cluster: Cluster,
    chain: Vec<NodeId>,
    app: CrApp,
    commit_index: u64,
    byzantine_node: Option<NodeId>,
    acct: Option<AccountabilityEngine<CrApp>>,
}

impl ChainReplication {
    /// Builds a chain of `nodes` replicas (head first, tail last).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn new(
        nodes: u32,
        baseline: Baseline,
        stack: NetworkStackKind,
        seed: u64,
    ) -> Result<Self, CoreError> {
        assert!(nodes >= 2, "a chain needs at least a head and a tail");
        let cluster = Cluster::fully_connected(nodes, baseline, stack, seed);
        let chain: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let app = CrApp::new(&chain);
        Ok(ChainReplication {
            cluster,
            chain,
            app,
            commit_index: 0,
            byzantine_node: None,
            acct: None,
        })
    }

    /// Builds the chain with the PeerReview accountability engine stacked
    /// underneath: every forwarded proof is registered in per-node
    /// tamper-evident logs, commitments piggyback on the chain traffic
    /// (when `acct.piggyback` is set) and tampering nodes named in `faults`
    /// are *exposed* by witness audits. Drive it through [`Accountable`]:
    /// `run_rounds` around the client operations, `drain_audits` to close
    /// the pipeline; verdicts and counters are read from `engine()`.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn with_accountability(
        nodes: u32,
        baseline: Baseline,
        stack: NetworkStackKind,
        seed: u64,
        acct: EngineConfig,
        faults: FaultPlan,
    ) -> Result<Self, CoreError> {
        let mut system = ChainReplication::new(nodes, baseline, stack, seed)?;
        let engine = AccountabilityEngine::attach(&mut system.cluster, &system.app, acct, faults);
        system.acct = Some(engine);
        Ok(system)
    }

    /// The chain order (head first).
    #[must_use]
    pub fn chain(&self) -> &[NodeId] {
        &self.chain
    }

    /// Marks a middle node as Byzantine: it will corrupt its output before
    /// forwarding (fault-injection tests).
    pub fn make_node_byzantine(&mut self, node: NodeId) {
        self.byzantine_node = Some(node);
    }

    /// Virtual time elapsed so far.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.cluster.now()
    }

    /// The store contents digest at one replica.
    #[must_use]
    pub fn store_digest(&self, node: NodeId) -> [u8; 32] {
        self.app.snapshot_digest(node.0)
    }

    /// Executes one client operation through the whole chain.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors. Byzantine behaviour does not
    /// error; it surfaces as `committed == false`.
    pub fn execute(&mut self, operation: &KvOperation) -> Result<ChainResult, CoreError> {
        let commit_index = self.commit_index;
        self.commit_index += 1;
        let op_bytes = operation.encode();

        // Head executes and builds the initial proof of execution. The
        // head's client-facing execution is not log-driven (there is no
        // cluster `Recv` for client ingress), so it is validated by the
        // chain's own output cross-checking rather than by witness replay.
        let head = self.chain[0];
        let head_output = self.app.store_mut(head.0).apply(operation);
        let mut proof = ChainedProof {
            operation: op_bytes.clone(),
            commit_index,
            outputs: vec![head_output.clone()],
        };
        let mut replies = vec![self.reply(head, commit_index, &head_output)?];

        // Forward along the chain.
        let mut detected_fault = false;
        for window in 0..self.chain.len() - 1 {
            let from = self.chain[window];
            let to = self.chain[window + 1];
            let proof_bytes = proof.encode();
            let (received_bytes, our_output) = if let Some(engine) = self.acct.as_mut() {
                let wire = Envelope::App(proof_bytes.clone()).encode();
                let t0 = self.cluster.now();
                self.cluster.auth_send(from, to, &wire)?;
                let latency = self.cluster.now().duration_since(t0);
                engine.record_app_send(latency);
                let delivery = engine
                    .poll(&mut self.cluster, &mut self.app, to)?
                    .pop()
                    .expect("proof delivered");
                (delivery.command, delivery.output)
            } else {
                self.cluster.auth_send(from, to, &proof_bytes)?;
                let delivered = self.cluster.poll(to)?;
                let payload = delivered.last().expect("delivered").message.payload.clone();
                let output = self.app.execute(to.0, &payload);
                (payload, output)
            };
            let mut received = ChainedProof::decode(&received_bytes)?;
            // Validate the previous nodes' outputs against our own
            // deterministic execution of the same request.
            if received.commit_index != commit_index
                || received.outputs.iter().any(|o| *o != our_output)
            {
                detected_fault = true;
            }
            // A Byzantine node corrupts its own output before forwarding.
            let forwarded_output = if self.byzantine_node == Some(to) {
                b"corrupted".to_vec()
            } else {
                our_output.clone()
            };
            received.outputs.push(forwarded_output.clone());
            proof = received;
            replies.push(self.reply(to, commit_index, &forwarded_output)?);
        }

        // Client: verify every signature and require identical outputs from
        // all chained nodes.
        let mut verified_outputs = Vec::new();
        for reply in &replies {
            let mut payload = Vec::new();
            payload.extend_from_slice(&commit_index.to_le_bytes());
            payload.extend_from_slice(&reply.output);
            if self
                .cluster
                .verify_reply(reply.node, &payload, &reply.signature)
            {
                verified_outputs.push(reply.output.clone());
            }
        }
        let all_match = verified_outputs.len() == self.chain.len()
            && verified_outputs.windows(2).all(|w| w[0] == w[1]);
        let committed = all_match && !detected_fault;
        Ok(ChainResult {
            output: if committed {
                Some(verified_outputs[0].clone())
            } else {
                None
            },
            replies,
            committed,
        })
    }

    fn reply(
        &mut self,
        node: NodeId,
        commit_index: u64,
        output: &[u8],
    ) -> Result<ChainReply, CoreError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&commit_index.to_le_bytes());
        payload.extend_from_slice(output);
        let signature = self.cluster.sign_reply(node, &payload)?;
        Ok(ChainReply {
            node,
            output: output.to_vec(),
            signature,
        })
    }

    /// Convenience: replicated put.
    ///
    /// # Errors
    ///
    /// See [`ChainReplication::execute`].
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<ChainResult, CoreError> {
        self.execute(&KvOperation::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })
    }

    /// Convenience: replicated get (traverses the whole chain, §C.4).
    ///
    /// # Errors
    ///
    /// See [`ChainReplication::execute`].
    pub fn get(&mut self, key: &[u8]) -> Result<ChainResult, CoreError> {
        self.execute(&KvOperation::Get { key: key.to_vec() })
    }

    /// Access to the underlying cluster (trace checking in tests).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Crash fail-over: removes `node` from the chain and re-links the
    /// survivors around it — head fail-over promotes the next node, middle
    /// fail-over splices predecessor to successor, tail fail-over makes the
    /// predecessor the new tail. With accountability attached the node is
    /// also crash-stopped in the engine: traffic touching it is refused and
    /// counted (never silently lost), its audit record freezes, and its
    /// verdicts survive — a crashed node is tolerated, not punished.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two chained nodes would survive.
    pub fn fail_over(&mut self, node: NodeId) {
        let Some(pos) = self.chain.iter().position(|&n| n == node) else {
            return;
        };
        assert!(
            self.chain.len() >= 3,
            "fail-over needs at least a head and a tail to survive"
        );
        self.chain.remove(pos);
        if let Some(engine) = self.acct.as_mut() {
            engine.crash_node(&mut self.cluster, node.0);
        }
    }

    /// Brings a failed-over node back as the new tail: the engine recovery
    /// re-announces its sealed log head to its witnesses (see
    /// [`AccountabilityEngine::recover_node`]) and the chain extends by one
    /// hop. Requests committed while it was away are *not* backfilled — the
    /// store re-converges through subsequent operations; witness audits
    /// only ever compare the node against its own log, so the gap cannot
    /// falsely expose it.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the recovery announcement.
    pub fn rejoin(&mut self, node: NodeId) -> Result<(), CoreError> {
        if self.chain.contains(&node) {
            return Ok(());
        }
        if let Some(engine) = self.acct.as_mut() {
            engine.recover_node(&mut self.cluster, &mut self.app, node.0)?;
        }
        self.chain.push(node);
        Ok(())
    }
}

impl Accountable for ChainReplication {
    type App = CrApp;

    fn engine(&self) -> &AccountabilityEngine<CrApp> {
        self.acct
            .as_ref()
            .expect("built with ChainReplication::with_accountability")
    }

    fn parts(&mut self) -> (&mut AccountabilityEngine<CrApp>, &mut Cluster, &mut CrApp) {
        let engine = self
            .acct
            .as_mut()
            .expect("built with ChainReplication::with_accountability");
        (engine, &mut self.cluster, &mut self.app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_net::adversary::NodeFault;
    use tnic_peerreview::audit::{Misbehavior, Verdict};

    fn chain() -> ChainReplication {
        ChainReplication::new(3, Baseline::Tnic, NetworkStackKind::Tnic, 5).unwrap()
    }

    fn accountable_chain(faults: FaultPlan, piggyback: bool) -> ChainReplication {
        ChainReplication::with_accountability(
            3,
            Baseline::Tnic,
            NetworkStackKind::Tnic,
            5,
            EngineConfig {
                seed: 5,
                piggyback,
                witness_count: Some(2),
                ..EngineConfig::default()
            },
            faults,
        )
        .unwrap()
    }

    #[test]
    fn put_and_get_commit_through_the_chain() {
        let mut cr = chain();
        let put = cr.put(b"key-1", b"value-1").unwrap();
        assert!(put.committed);
        assert_eq!(put.output.unwrap(), b"ok");
        assert_eq!(put.replies.len(), 3);
        let get = cr.get(b"key-1").unwrap();
        assert!(get.committed);
        assert_eq!(get.output.unwrap(), b"value-1");
        // Two hops down the chain per operation.
        assert_eq!(cr.cluster().stats().messages_sent, 4);
    }

    #[test]
    fn replicas_converge_to_identical_stores() {
        let mut cr = chain();
        for i in 0..10u32 {
            cr.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let digests: Vec<[u8; 32]> = cr.chain().iter().map(|&n| cr.store_digest(n)).collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn missing_key_reads_empty_value() {
        let mut cr = chain();
        let get = cr.get(b"absent").unwrap();
        assert!(get.committed);
        assert_eq!(get.output.unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn byzantine_middle_node_prevents_commit() {
        let mut cr = chain();
        cr.put(b"k", b"v").unwrap();
        cr.make_node_byzantine(NodeId(1));
        let result = cr.put(b"k2", b"v2").unwrap();
        assert!(
            !result.committed,
            "client must not accept mismatched replies"
        );
        assert!(result.output.is_none());
    }

    #[test]
    fn chain_requires_at_least_two_nodes() {
        assert!(ChainReplication::new(2, Baseline::Tnic, NetworkStackKind::Tnic, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least a head and a tail")]
    fn single_node_chain_panics() {
        let _ = ChainReplication::new(1, Baseline::Tnic, NetworkStackKind::Tnic, 1);
    }

    #[test]
    fn kv_operation_and_proof_round_trip() {
        let op = KvOperation::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        };
        assert_eq!(KvOperation::decode(&op.encode()).unwrap(), op);
        let get = KvOperation::Get { key: b"k".to_vec() };
        assert_eq!(KvOperation::decode(&get.encode()).unwrap(), get);
        assert!(KvOperation::decode(&[9]).is_err());

        let proof = ChainedProof {
            operation: op.encode(),
            commit_index: 3,
            outputs: vec![b"ok".to_vec(), b"ok".to_vec()],
        };
        assert_eq!(ChainedProof::decode(&proof.encode()).unwrap(), proof);
        assert!(ChainedProof::decode(&[0, 0]).is_err());
    }

    #[test]
    fn works_over_tee_baselines_but_slower() {
        let mut tnic = ChainReplication::new(3, Baseline::Tnic, NetworkStackKind::Tnic, 9).unwrap();
        let mut sev =
            ChainReplication::new(3, Baseline::AmdSev, NetworkStackKind::DrctIo, 9).unwrap();
        for i in 0..5u32 {
            tnic.put(&i.to_le_bytes(), b"v").unwrap();
            sev.put(&i.to_le_bytes(), b"v").unwrap();
        }
        assert!(sev.now() > tnic.now());
    }

    #[test]
    fn kv_store_digest_tracks_contents() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        assert_eq!(a.digest(), b.digest());
        a.apply(&KvOperation::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        });
        assert_ne!(a.digest(), b.digest());
        b.apply(&KvOperation::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        });
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn accountable_fault_free_chain_commits_and_stays_trusted() {
        for piggyback in [false, true] {
            let mut cr = accountable_chain(FaultPlan::all_correct(), piggyback);
            cr.run_rounds(3, 1, |cr, round| {
                for i in 0..4u32 {
                    let key = format!("k{round}-{i}");
                    let put = cr.put(key.as_bytes(), b"v")?;
                    assert!(put.committed, "round {round} op {i}");
                }
                Ok(())
            })
            .unwrap();
            cr.drain_audits().unwrap();
            let engine = cr.engine();
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
            // Replication still converges under accountability.
            let digests: Vec<[u8; 32]> = cr.chain().iter().map(|&n| cr.store_digest(n)).collect();
            assert!(digests.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn chain_fails_over_head_middle_and_tail_under_accountability() {
        for failed in 0..3u32 {
            for piggyback in [false, true] {
                let mut cr = accountable_chain(FaultPlan::all_correct(), piggyback);
                // A committed round with the full chain first.
                cr.run_rounds(1, 1, |cr, _| {
                    for i in 0..4u32 {
                        assert!(cr.put(format!("a{i}").as_bytes(), b"v")?.committed);
                    }
                    Ok(())
                })
                .unwrap();
                // Fail the head, a middle or the tail; survivors re-link.
                cr.fail_over(NodeId(failed));
                assert_eq!(cr.chain().len(), 2);
                assert!(!cr.chain().contains(&NodeId(failed)));
                cr.run_rounds(2, 1, |cr, round| {
                    for i in 0..4u32 {
                        let put = cr.put(format!("b{round}-{i}").as_bytes(), b"v")?;
                        assert!(put.committed, "failed={failed} round {round} op {i}");
                        assert_eq!(put.replies.len(), 2);
                    }
                    Ok(())
                })
                .unwrap();
                cr.drain_audits().unwrap();
                // The crash is tolerated: nobody is exposed, survivors stay
                // trusted, and traffic to the failed node was refused and
                // counted rather than silently lost.
                let engine = cr.engine();
                for node in 0..3u32 {
                    for &w in engine.witnesses_of(node) {
                        assert_ne!(
                            engine.verdict_of(w, node),
                            Verdict::Exposed,
                            "failed={failed} node {node} witness {w}"
                        );
                    }
                }
                for &survivor in cr.chain() {
                    for w in engine.correct_witnesses_of(survivor.0) {
                        assert_eq!(
                            engine.verdict_of(w, survivor.0),
                            Verdict::Trusted,
                            "failed={failed} survivor {survivor:?} witness {w}"
                        );
                    }
                }
                assert!(cr.cluster().stats().messages_unreachable > 0);
            }
        }
    }

    #[test]
    fn failed_over_node_rejoins_as_tail_and_stays_trusted() {
        let mut cr = accountable_chain(FaultPlan::all_correct(), false);
        for i in 0..4u32 {
            assert!(cr.put(format!("a{i}").as_bytes(), b"v").unwrap().committed);
        }
        cr.run_audit_round().unwrap();
        cr.fail_over(NodeId(1));
        for i in 0..4u32 {
            assert!(cr.put(format!("b{i}").as_bytes(), b"v").unwrap().committed);
        }
        cr.run_audit_round().unwrap();
        cr.rejoin(NodeId(1)).unwrap();
        assert_eq!(cr.chain(), &[NodeId(0), NodeId(2), NodeId(1)]);
        // Writes commit through the re-formed three-hop chain, and a key
        // written after the rejoin reads back from all replicas.
        for i in 0..4u32 {
            let put = cr.put(format!("c{i}").as_bytes(), b"v2").unwrap();
            assert!(put.committed, "op {i}");
            assert_eq!(put.replies.len(), 3);
        }
        let get = cr.get(b"c0").unwrap();
        assert!(get.committed);
        assert_eq!(get.output.unwrap(), b"v2");
        cr.run_audit_round().unwrap();
        cr.drain_audits().unwrap();
        for node in 0..3u32 {
            for w in cr.engine().correct_witnesses_of(node) {
                assert_eq!(
                    cr.engine().verdict_of(w, node),
                    Verdict::Trusted,
                    "node {node} witness {w}"
                );
            }
        }
        let stats = cr.engine().stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn tail_tampering_node_is_exposed_with_evidence() {
        for piggyback in [false, true] {
            let tail = 2u32;
            let mut cr = accountable_chain(
                FaultPlan::single(tail, NodeFault::TamperLogEntry { seq: 0 }),
                piggyback,
            );
            cr.run_rounds(3, 1, |cr, round| {
                for i in 0..4u32 {
                    let key = format!("k{round}-{i}");
                    cr.put(key.as_bytes(), b"v")?;
                }
                Ok(())
            })
            .unwrap();
            cr.drain_audits().unwrap();
            let engine = cr.engine();
            for w in engine.correct_witnesses_of(tail) {
                assert_eq!(
                    engine.verdict_of(w, tail),
                    Verdict::Exposed,
                    "witness {w} piggyback={piggyback}"
                );
                assert!(engine
                    .evidence_of(w, tail)
                    .iter()
                    .any(|e| matches!(e, Misbehavior::ExecDivergence { .. })));
            }
            // Correct nodes keep clean records.
            for node in [0u32, 1] {
                for w in engine.correct_witnesses_of(node) {
                    assert_eq!(engine.verdict_of(w, node), Verdict::Trusted, "node {node}");
                }
            }
        }
    }
}
