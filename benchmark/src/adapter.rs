//! The only module that names items of the workspace crates.
//!
//! Everything else in the benchmark talks to the system through the types
//! and functions here, in plain integers, byte slices and strings. When a
//! crate's API changes (ROADMAP 3A announces deletions), this file is the
//! one place to follow it. Configs are built with `..Default::default()`;
//! the one field named that is scheduled for deletion, `event_driven`, is
//! guarded by the `has_event_driven` cfg `build.rs` emits.

use tnic_a2m::{A2m, LogId};
use tnic_bft::{BftConfig, BftCounter};
use tnic_core::api::{Cluster, Delivered, NodeId};
use tnic_core::provider::Provider;
use tnic_core::transform::CounterMachine;
use tnic_core::transform::StateMachine;
use tnic_cr::ChainReplication;
use tnic_crypto::ed25519::{Keypair, Signature};
use tnic_crypto::hmac::hmac_sha256;
use tnic_crypto::sha256::sha256;
use tnic_device::attestation::{
    AttestationKernel, AttestationTiming, AttestedMessage, AttestedView,
};
use tnic_device::device::TnicDevice;
use tnic_device::types::{DeviceId, QueuePairId, SessionId};
use tnic_net::adversary::{Adversary, FaultPlan, NodeFault, PartitionSchedule};
use tnic_net::fabric::NetworkFabric;
use tnic_net::stack::NetworkStackKind;
use tnic_peerreview::audit::{Verdict, WitnessRecord};
use tnic_peerreview::log::{
    chain_hash, content_full, log_session, Authenticator, EntryKind, LogEntry, SecureLog,
};
use tnic_peerreview::system::{PeerReview, PeerReviewConfig};
use tnic_peerreview::wire::Envelope;
use tnic_sim::time::{SimDuration, SimInstant};
use tnic_tee::profile::Baseline;

const BASELINE: Baseline = Baseline::Tnic;
const STACK: NetworkStackKind = NetworkStackKind::Tnic;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---- counters ------------------------------------------------------------

/// `Cluster::stats` as plain integers, plus the virtual clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    pub messages_sent: u64,
    pub messages_rejected: u64,
    pub messages_refused: u64,
    pub virtual_ns: u64,
}

fn cluster_counters(cluster: &Cluster) -> ClusterCounters {
    let s = cluster.stats();
    ClusterCounters {
        messages_sent: s.messages_sent,
        messages_rejected: s.messages_rejected,
        messages_refused: s.messages_unreachable + s.messages_partitioned,
        virtual_ns: cluster.now().as_nanos(),
    }
}

/// The `AccountabilityStats` fields the per-layer metrics are built from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcctCounters {
    pub app_messages: u64,
    pub control_messages: u64,
    pub control_bytes: u64,
    pub log_entries: u64,
    pub log_app_payload_entries: u64,
    pub log_control_digest_entries: u64,
    pub log_audit_digest_entries: u64,
    pub retained_log_bytes: u64,
    pub entries_replayed: u64,
    pub audit_messages: u64,
    pub challenges: u64,
    pub challenge_retries: u64,
    pub unanswered_challenges: u64,
    pub pruned_log_entries: u64,
    pub checkpoints_completed: u64,
}

// ---- bare cluster (send_small, send_large) --------------------------------

/// A fully connected TNIC cluster driven with `auth_send`/`poll`.
pub struct SendCluster(Cluster);

/// One `poll`'s worth of verified deliveries.
pub struct Polled(Vec<Delivered>);

impl Polled {
    /// `(sender, payload)` of each delivery, in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.0
            .iter()
            .map(|d| (d.from.0, d.message.payload.as_slice()))
    }
}

impl SendCluster {
    pub fn new(nodes: u32, seed: u64) -> Self {
        SendCluster(Cluster::fully_connected(nodes, BASELINE, STACK, seed))
    }

    #[inline]
    pub fn auth_send(&mut self, from: u32, to: u32, payload: &[u8]) -> Result<(), String> {
        self.0
            .auth_send(NodeId(from), NodeId(to), payload)
            .map(drop)
            .map_err(err)
    }

    #[inline]
    pub fn poll(&mut self, node: u32) -> Result<Polled, String> {
        self.0.poll(NodeId(node)).map(Polled).map_err(err)
    }

    pub fn counters(&self) -> ClusterCounters {
        cluster_counters(&self.0)
    }
}

// ---- bare applications (apps_rw) ------------------------------------------

/// The BFT replicated counter, f = 1, no accountability.
pub struct Bft(BftCounter);

impl Bft {
    pub fn new(seed: u64) -> Result<Self, String> {
        let config = BftConfig {
            f: 1,
            ..BftConfig::default()
        };
        BftCounter::new(BASELINE, STACK, config, seed)
            .map(Bft)
            .map_err(err)
    }

    /// One client increment: `(committed, value)`.
    #[inline]
    pub fn client_increment(&mut self) -> Result<(bool, u64), String> {
        let result = self.0.client_increment().map_err(err)?;
        Ok((self.0.is_committed(&result), result.value))
    }

    pub fn replica_values(&self) -> Vec<u64> {
        (0..self.0.replica_count() as u32)
            .map(|n| self.0.replica_value(NodeId(n)))
            .collect()
    }

    pub fn counters(&self) -> ClusterCounters {
        cluster_counters(self.0.cluster())
    }
}

/// Chain replication over `nodes` replicas, no accountability.
pub struct Chain(ChainReplication);

impl Chain {
    pub fn new(nodes: u32, seed: u64) -> Result<Self, String> {
        ChainReplication::new(nodes, BASELINE, STACK, seed)
            .map(Chain)
            .map_err(err)
    }

    /// A replicated put: whether every chained node acknowledged it.
    #[inline]
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<bool, String> {
        self.0.put(key, value).map(|r| r.committed).map_err(err)
    }

    /// A replicated get: the value the client accepted, `None` if the chain
    /// did not commit.
    #[inline]
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.0.get(key).map(|r| r.output).map_err(err)
    }

    pub fn store_digests(&self) -> Vec<[u8; 32]> {
        self.0
            .chain()
            .iter()
            .map(|&n| self.0.store_digest(n))
            .collect()
    }

    pub fn counters(&self) -> ClusterCounters {
        cluster_counters(self.0.cluster())
    }
}

// ---- accountable deployments (acct_*) -------------------------------------

/// What the `acct_*` workloads vary; everything else is the crate default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcctSpec {
    pub nodes: u32,
    pub witnesses: u32,
    pub payload_len: usize,
    pub checkpoint_interval: Option<u64>,
    pub rotate_witnesses: bool,
    pub challenge_retries: u32,
    pub audit_sample_size: Option<u32>,
    /// Seed of the sampling schedule (which charge a witness audits when).
    pub audit_sample_seed: u64,
    pub shards: u32,
    /// Lazily connected cluster with the sparse drain (n = 1000 is unusable
    /// dense). Ignored once the crates make it the only mode.
    pub sparse: bool,
    pub seed: u64,
}

/// The node-level behaviours `acct_faults` injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    TamperLogEntry { seq: u64 },
    Equivocate,
    TruncateLog { drop_tail: u64 },
    SuppressAudits,
    SilentWitness,
    WithholdGossip,
    RefuseRelay,
    ForgeEvidence,
}

impl Fault {
    pub fn label(self) -> &'static str {
        self.node_fault().label()
    }

    fn node_fault(self) -> NodeFault {
        match self {
            Fault::TamperLogEntry { seq } => NodeFault::TamperLogEntry { seq },
            Fault::Equivocate => NodeFault::Equivocate,
            Fault::TruncateLog { drop_tail } => NodeFault::TruncateLog { drop_tail },
            Fault::SuppressAudits => NodeFault::SuppressAudits { probability: 1.0 },
            Fault::SilentWitness => NodeFault::SilentWitness,
            Fault::WithholdGossip => NodeFault::WithholdGossip,
            Fault::RefuseRelay => NodeFault::RefuseRelay,
            Fault::ForgeEvidence => NodeFault::ForgeEvidence,
        }
    }
}

/// A witness's classification of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Trusted,
    Suspected,
    Exposed,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Trusted => "trusted",
            Class::Suspected => "suspected",
            Class::Exposed => "exposed",
        }
    }
}

/// A `PeerReview` deployment on TNIC attestation and the TNIC stack.
pub struct Acct(PeerReview);

impl Acct {
    pub fn new(spec: &AcctSpec, faults: &[(u32, Fault)]) -> Result<Self, String> {
        #[allow(unused_mut)]
        let mut config = PeerReviewConfig {
            nodes: spec.nodes,
            baseline: BASELINE,
            stack: STACK,
            seed: spec.seed,
            witness_count: Some(spec.witnesses),
            piggyback: true,
            app_payload_len: spec.payload_len,
            checkpoint_interval: spec.checkpoint_interval,
            rotate_witnesses: spec.rotate_witnesses,
            challenge_retries: spec.challenge_retries,
            audit_sample_size: spec.audit_sample_size,
            audit_sample_seed: spec.audit_sample_seed,
            shards: spec.shards,
            ..PeerReviewConfig::default()
        };
        #[cfg(has_event_driven)]
        {
            config.event_driven = spec.sparse;
        }
        let mut plan = FaultPlan::all_correct();
        for &(node, fault) in faults {
            plan.set(node, fault.node_fault());
        }
        PeerReview::new(config, plan).map(Acct).map_err(err)
    }

    #[inline]
    pub fn run_workload(&mut self, messages: u64) -> Result<(), String> {
        self.0.run_workload(messages).map_err(err)
    }

    #[inline]
    pub fn begin_audit_round(&mut self) -> Result<(), String> {
        self.0.begin_audit_round().map_err(err)
    }

    #[inline]
    pub fn finish_audit_round(&mut self) -> Result<(), String> {
        self.0.finish_audit_round().map_err(err)
    }

    #[inline]
    pub fn drain_audits(&mut self) -> Result<(), String> {
        self.0.drain_audits().map_err(err)
    }

    /// Corrupts each packet with probability `probability`; the receiver
    /// rejects it and the transport re-sends (counted in
    /// `messages_rejected`).
    pub fn set_corrupting_network(&mut self, probability: f64, seed: u64) {
        self.0
            .cluster_mut()
            .set_adversary(Adversary::TamperPayload { probability }, seed);
    }

    /// Cuts `node` off from everyone else for audit rounds `start..heal`.
    pub fn set_partition(&mut self, node: u32, start: u64, heal: u64) {
        self.0
            .cluster_mut()
            .set_partition(PartitionSchedule::new([node], start, heal));
    }

    pub fn crash_node(&mut self, node: u32) {
        self.0.crash_node(node);
    }

    pub fn recover_node(&mut self, node: u32) -> Result<(), String> {
        self.0.recover_node(node).map_err(err)
    }

    pub fn witnesses_of(&self, node: u32) -> Vec<u32> {
        self.0.witnesses_of(node).to_vec()
    }

    pub fn correct_witnesses_of(&self, node: u32) -> Vec<u32> {
        self.0.correct_witnesses_of(node)
    }

    pub fn class_of(&self, witness: u32, node: u32) -> Class {
        match self.0.verdict_of(witness, node) {
            Verdict::Trusted => Class::Trusted,
            Verdict::Suspected => Class::Suspected,
            Verdict::Exposed => Class::Exposed,
        }
    }

    pub fn log_len(&self, node: u32) -> u64 {
        self.0.log_len(node)
    }

    /// `(witness, node)` pairs per class over the current witness sets:
    /// `[trusted, suspected, exposed]`.
    pub fn census(&self) -> [u64; 3] {
        let census = self.0.verdict_census();
        ["trusted", "suspected", "exposed"].map(|label| census.get(label).copied().unwrap_or(0))
    }

    pub fn counters(&self) -> AcctCounters {
        let s = self.0.stats();
        AcctCounters {
            app_messages: s.app_messages,
            control_messages: s.control_messages,
            control_bytes: s.control_bytes,
            log_entries: s.log_entries,
            log_app_payload_entries: s.log_app_payload_entries,
            log_control_digest_entries: s.log_control_digest_entries,
            log_audit_digest_entries: s.log_audit_digest_entries,
            retained_log_bytes: s.retained_log_bytes,
            entries_replayed: s.entries_replayed,
            audit_messages: s.audit_messages,
            challenges: s.challenges,
            challenge_retries: s.challenge_retries,
            unanswered_challenges: s.unanswered_challenges,
            pruned_log_entries: s.pruned_log_entries,
            checkpoints_completed: s.checkpoints_completed,
        }
    }

    pub fn cluster_counters(&self) -> ClusterCounters {
        cluster_counters(self.0.cluster())
    }
}

// ---- tnic_obs recorder ----------------------------------------------------

/// The `tnic_obs` ring recorder, installed for the lifetime of the value.
pub struct Recorder(tnic_obs::RecorderGuard);

impl Recorder {
    pub fn install(capacity: usize) -> Self {
        Recorder(tnic_obs::RecorderGuard::install(capacity))
    }

    /// `(events recorded, of which overwritten by ring wrap)`.
    pub fn totals(&self) -> (u64, u64) {
        let dropped = self.0.dropped();
        (self.0.snapshot().len() as u64 + dropped, dropped)
    }
}

// ---- paper fidelity: virtual time the charged path advances ----------------

/// The baselines of Figure 5, by the paper's labels.
pub const FIGURE5_BASELINES: [&str; 5] = ["Intel-x86", "AMD", "SGX", "AMD-sev", "TNIC"];

fn baseline_by_label(label: &str) -> Option<Baseline> {
    Baseline::ALL.into_iter().find(|b| b.label() == label)
}

/// Mean virtual µs `Provider::attest` charges for a `payload_len`-byte
/// payload on the baseline the paper labels `label`, over `reps` calls (the
/// host baselines draw their latency from a distribution).
pub fn provider_attest_virtual_us(label: &str, payload_len: usize, reps: u32) -> Option<f64> {
    let baseline = baseline_by_label(label)?;
    let session = SessionId(1);
    let mut provider = Provider::new(baseline, DeviceId(1), 0x5EED);
    provider.install_session_key(session, [7u8; 32]);
    let payload = vec![0x5Au8; payload_len];
    let mut total = SimDuration::ZERO;
    for _ in 0..reps {
        total += provider.attest(session, &payload).ok()?.1;
    }
    Some(total.as_micros_f64() / f64::from(reps.max(1)))
}

/// Mean virtual µs one `Cluster::auth_send` (attest + network + verified
/// delivery) advances the clock for a `payload_len`-byte payload.
pub fn auth_send_virtual_us(payload_len: usize, reps: u32) -> Option<f64> {
    let mut cluster = Cluster::fully_connected(2, BASELINE, STACK, 0x5EED);
    let payload = vec![0x5Au8; payload_len];
    for _ in 0..reps {
        cluster.auth_send(NodeId(0), NodeId(1), &payload).ok()?;
        cluster.poll(NodeId(1)).ok()?;
    }
    Some(cluster.now().as_micros() as f64 / f64::from(reps.max(1)))
}

// ---- layer probes ----------------------------------------------------------

/// One lower-layer public function, timed from outside. `prepare(iters)`
/// builds whatever `iters` calls consume (untimed); `run(iters)` makes
/// exactly that many calls (timed).
pub trait ProbeCase {
    fn prepare(&mut self, _iters: usize) {}
    fn run(&mut self, iters: usize);
}

struct FnProbe<F: FnMut()>(F);

impl<F: FnMut()> ProbeCase for FnProbe<F> {
    fn run(&mut self, iters: usize) {
        for _ in 0..iters {
            (self.0)();
        }
    }
}

fn simple(f: impl FnMut() + 'static) -> Box<dyn ProbeCase> {
    Box::new(FnProbe(f))
}

fn bytes(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 7) as u8).collect()
}

const PROBE_SESSION: SessionId = SessionId(1);
const PROBE_KEY: [u8; 32] = [9u8; 32];

fn kernel(device: u32) -> AttestationKernel {
    let mut k = AttestationKernel::new(DeviceId(device), AttestationTiming::paper_calibrated());
    k.install_session_key(PROBE_SESSION, PROBE_KEY);
    k
}

fn provider(device: u32) -> Provider {
    let mut p = Provider::new(BASELINE, DeviceId(device), u64::from(device));
    p.install_session_key(PROBE_SESSION, PROBE_KEY);
    p
}

/// `AttestationKernel::verify_view` consumes in-order counters, so each
/// timed call needs its own freshly attested message.
struct KernelVerify {
    sender: AttestationKernel,
    receiver: AttestationKernel,
    payload: Vec<u8>,
    wires: Vec<Vec<u8>>,
}

impl ProbeCase for KernelVerify {
    fn prepare(&mut self, iters: usize) {
        self.wires.clear();
        for _ in 0..iters {
            let mut wire = Vec::new();
            self.sender
                .attest_into(PROBE_SESSION, &self.payload, &mut wire)
                .expect("session installed");
            self.wires.push(wire);
        }
    }

    fn run(&mut self, iters: usize) {
        for wire in &self.wires[..iters] {
            let view = AttestedView::parse(wire).expect("well-formed");
            self.receiver.verify_view(&view).expect("in order");
        }
    }
}

struct ProviderVerify {
    sender: Provider,
    receiver: Provider,
    payload: Vec<u8>,
    messages: Vec<AttestedMessage>,
}

impl ProbeCase for ProviderVerify {
    fn prepare(&mut self, iters: usize) {
        self.messages.clear();
        for _ in 0..iters {
            let (msg, _) = self
                .sender
                .attest(PROBE_SESSION, &self.payload)
                .expect("session installed");
            self.messages.push(msg);
        }
    }

    fn run(&mut self, iters: usize) {
        for msg in &self.messages[..iters] {
            self.receiver.verify(msg).expect("in order");
        }
    }
}

/// `TnicDevice::send_attested` → `NetworkFabric` → `receive_packet`, and the
/// ACK back the same way — the device/RoCE/fabric datapath no workload's
/// traffic takes today.
struct RoceRoundtrip {
    a: TnicDevice,
    b: TnicDevice,
    fabric: NetworkFabric,
    now: SimInstant,
    payload: Vec<u8>,
}

impl RoceRoundtrip {
    fn new(payload_len: usize) -> Self {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        let mut a = TnicDevice::for_tests(DeviceId(1), vendor.verifying);
        let mut b = TnicDevice::for_tests(DeviceId(2), vendor.verifying);
        a.provision_session(PROBE_SESSION, PROBE_KEY);
        b.provision_session(PROBE_SESSION, PROBE_KEY);
        a.add_peer(b.config().ip_addr, b.config().mac_addr);
        b.add_peer(a.config().ip_addr, a.config().mac_addr);
        a.create_queue_pair(QueuePairId(1), b.config().ip_addr, QueuePairId(2));
        b.create_queue_pair(QueuePairId(2), a.config().ip_addr, QueuePairId(1));
        RoceRoundtrip {
            a,
            b,
            fabric: NetworkFabric::reliable(1),
            now: SimInstant::EPOCH,
            payload: bytes(payload_len),
        }
    }

    fn hop(&mut self) {
        let (a_ip, b_ip) = (self.a.config().ip_addr, self.b.config().ip_addr);
        let (packet, tx) = self
            .a
            .send_attested(QueuePairId(1), PROBE_SESSION, &self.payload, self.now)
            .expect("provisioned");
        self.fabric.inject(a_ip, b_ip, packet, self.now + tx);
        self.now = self.fabric.next_delivery().expect("in flight");
        let (_, flight) = self.fabric.deliver_due(self.now).pop().expect("due");
        let outcome = self
            .b
            .receive_packet(QueuePairId(2), &flight.packet, self.now)
            .expect("verifies");
        assert!(outcome.delivered.is_some(), "message delivered");
        let ack = outcome.response.expect("data packets are acknowledged");
        self.fabric
            .inject(b_ip, a_ip, ack, self.now + outcome.elapsed);
        self.now = self.fabric.next_delivery().expect("in flight");
        let (_, flight) = self.fabric.deliver_due(self.now).pop().expect("due");
        self.a
            .receive_packet(QueuePairId(1), &flight.packet, self.now)
            .expect("ack accepted");
        std::hint::black_box(self.a.poll_completions());
    }
}

impl ProbeCase for RoceRoundtrip {
    fn run(&mut self, iters: usize) {
        for _ in 0..iters {
            self.hop();
        }
    }
}

/// A 2·`pairs`-entry honest log (Recv of an app command, then its Exec), the
/// commitment sealing it, and the segment a witness replays.
fn honest_segment(pairs: usize) -> (Authenticator, Vec<LogEntry>) {
    let node = 1u32;
    let mut machine = CounterMachine::new();
    let mut log = SecureLog::new();
    let command = bytes(64);
    let wire = Envelope::App(command.clone()).encode();
    for _ in 0..pairs {
        log.append(EntryKind::Recv { from: 9 }, content_full(&wire));
        log.append(EntryKind::Exec, machine.execute(&command));
    }
    let (seq, head) = (log.len(), log.head());
    let mut sealer = AttestationKernel::new(DeviceId(node), AttestationTiming::zero());
    sealer.install_session_key(log_session(node), PROBE_KEY);
    let (attestation, _) = sealer
        .attest(log_session(node), &Authenticator::payload(node, seq, &head))
        .expect("session installed");
    let auth = Authenticator {
        node,
        seq,
        head,
        attestation,
    };
    (auth, log.entries().to_vec())
}

/// Entries in the segment `audit.replay_ns_per_entry` replays.
pub const REPLAY_SEGMENT_ENTRIES: usize = 256;
/// Entries in the audit response `wire.*_ns` encode and decode.
pub const WIRE_RESPONSE_ENTRIES: usize = 16;

/// A probe under the name of the metric it feeds. One call of `case`
/// processes `items_per_call` of whatever the metric counts (log entries
/// for the replay probe, 1 elsewhere).
pub struct Probe {
    pub name: &'static str,
    pub items_per_call: usize,
    pub case: Box<dyn ProbeCase>,
}

impl Probe {
    fn per_call(name: &'static str, case: Box<dyn ProbeCase>) -> Self {
        Probe {
            name,
            items_per_call: 1,
            case,
        }
    }
}

/// Every layer probe, in catalogue order.
pub fn probes() -> Vec<Probe> {
    use std::hint::black_box;
    let mut out: Vec<Probe> = Vec::new();

    // crypto
    for (name, len) in [
        ("crypto.sha256_64B_ns", 64),
        ("crypto.sha256_8KiB_ns", 8192),
    ] {
        let data = bytes(len);
        out.push(Probe::per_call(
            name,
            simple(move || {
                black_box(sha256(black_box(&data)));
            }),
        ));
    }
    for (name, len) in [("crypto.hmac_64B_ns", 64), ("crypto.hmac_8KiB_ns", 8192)] {
        let data = bytes(len);
        out.push(Probe::per_call(
            name,
            simple(move || {
                black_box(hmac_sha256(black_box(&PROBE_KEY), black_box(&data)));
            }),
        ));
    }
    let keys = Keypair::from_seed(&[3u8; 32]);
    let message = bytes(64);
    let signature: Signature = keys.signing.sign(&message);
    {
        let (keys, message) = (keys.clone(), message.clone());
        out.push(Probe::per_call(
            "crypto.ed25519_sign_ns",
            simple(move || {
                black_box(keys.signing.sign(black_box(&message)));
            }),
        ));
    }
    out.push(Probe::per_call(
        "crypto.ed25519_verify_ns",
        simple(move || {
            keys.verifying
                .verify(black_box(&message), black_box(&signature))
                .expect("valid signature");
        }),
    ));

    // device
    {
        let mut k = kernel(1);
        let payload = bytes(64);
        let mut wire = Vec::with_capacity(256);
        out.push(Probe::per_call(
            "device.kernel_attest_64B_ns",
            simple(move || {
                wire.clear();
                k.attest_into(PROBE_SESSION, black_box(&payload), &mut wire)
                    .expect("session installed");
                black_box(&wire);
            }),
        ));
    }
    out.push(Probe::per_call(
        "device.kernel_verify_64B_ns",
        Box::new(KernelVerify {
            sender: kernel(1),
            receiver: kernel(2),
            payload: bytes(64),
            wires: Vec::new(),
        }),
    ));
    let (attested, _) = kernel(1)
        .attest(PROBE_SESSION, &bytes(64))
        .expect("session installed");
    {
        let attested = attested.clone();
        let mut wire = Vec::with_capacity(256);
        out.push(Probe::per_call(
            "device.wire_encode_ns",
            simple(move || {
                wire.clear();
                black_box(&attested).encode_into(&mut wire);
                black_box(&wire);
            }),
        ));
    }
    {
        let wire = attested.encode();
        out.push(Probe::per_call(
            "device.wire_parse_ns",
            simple(move || {
                black_box(AttestedView::parse(black_box(&wire)).expect("well-formed"));
            }),
        ));
    }
    out.push(Probe::per_call(
        "device.roce_roundtrip_ns",
        Box::new(RoceRoundtrip::new(64)),
    ));

    // net
    {
        let mut size = 64usize;
        out.push(Probe::per_call(
            "net.send_latency_ns",
            simple(move || {
                // Vary the size so the model is evaluated, not hoisted.
                size = 64 + (size + 61) % 8192;
                black_box(STACK.send_latency(black_box(size)));
            }),
        ));
    }
    {
        let mut rig = RoceRoundtrip::new(64);
        let (packet, _) = rig
            .a
            .send_attested(QueuePairId(1), PROBE_SESSION, &bytes(64), SimInstant::EPOCH)
            .expect("provisioned");
        let (src, dst) = (rig.a.config().ip_addr, rig.b.config().ip_addr);
        let mut fabric = NetworkFabric::reliable(2);
        let mut now = SimInstant::EPOCH;
        out.push(Probe::per_call(
            "net.fabric_hop_ns",
            simple(move || {
                fabric.inject(src, dst, packet.clone(), now);
                now = fabric.next_delivery().expect("in flight");
                black_box(fabric.deliver_due(now));
            }),
        ));
    }

    // core
    for (name, len) in [
        ("core.provider_attest_64B_ns", 64),
        ("core.provider_attest_8KiB_ns", 8192),
    ] {
        let mut p = provider(1);
        let payload = bytes(len);
        out.push(Probe::per_call(
            name,
            simple(move || {
                black_box(
                    p.attest(PROBE_SESSION, black_box(&payload))
                        .expect("session installed"),
                );
            }),
        ));
    }
    for (name, len) in [
        ("core.provider_verify_64B_ns", 64),
        ("core.provider_verify_8KiB_ns", 8192),
    ] {
        out.push(Probe::per_call(
            name,
            Box::new(ProviderVerify {
                sender: provider(1),
                receiver: provider(2),
                payload: bytes(len),
                messages: Vec::new(),
            }),
        ));
    }

    // peerreview.log
    {
        let wire = Envelope::App(bytes(64)).encode();
        let mut log = SecureLog::new();
        out.push(Probe::per_call(
            "log.append_ns",
            simple(move || {
                // Bounded so the probe's own log does not grow with `iters`.
                if log.retained_len() >= 4096 {
                    log = SecureLog::new();
                }
                black_box(log.append(EntryKind::Recv { from: 9 }, content_full(&wire)));
            }),
        ));
    }
    {
        let content = content_full(&Envelope::App(bytes(64)).encode());
        let prev = sha256(b"prev");
        let mut seq = 0u64;
        out.push(Probe::per_call(
            "log.chain_hash_ns",
            simple(move || {
                seq += 1;
                black_box(chain_hash(
                    black_box(&prev),
                    seq,
                    EntryKind::Recv { from: 9 },
                    black_box(&content),
                ));
            }),
        ));
    }

    // peerreview.wire
    let (_, response_entries) = honest_segment(WIRE_RESPONSE_ENTRIES / 2);
    let response = Envelope::Response {
        from_seq: 0,
        entries: response_entries,
    };
    {
        let encoded = response.encode();
        out.push(Probe::per_call(
            "wire.decode_ns",
            simple(move || {
                black_box(Envelope::decode(black_box(&encoded)).expect("well-formed"));
            }),
        ));
    }
    out.push(Probe::per_call(
        "wire.encode_ns",
        simple(move || {
            black_box(black_box(&response).encode());
        }),
    ));

    // peerreview.audit
    {
        let (auth, entries) = honest_segment(REPLAY_SEGMENT_ENTRIES / 2);
        out.push(Probe {
            name: "audit.replay_ns_per_entry",
            items_per_call: REPLAY_SEGMENT_ENTRIES,
            case: simple(move || {
                let mut record = WitnessRecord::new(CounterMachine::new());
                record
                    .check_response(black_box(&auth), black_box(&entries))
                    .expect("honest log replays clean");
                black_box(&record);
            }),
        });
    }

    // a2m
    {
        let mut a2m = A2m::new(BASELINE, 5).expect("local session");
        let context = bytes(64);
        out.push(Probe::per_call(
            "a2m.append_ns",
            simple(move || {
                black_box(
                    a2m.append(LogId(1), black_box(&context))
                        .expect("attestation succeeds"),
                );
            }),
        ));
    }
    {
        let mut a2m = A2m::new(BASELINE, 6).expect("local session");
        let log = LogId(1);
        for _ in 0..256 {
            a2m.append(log, &bytes(64)).expect("attestation succeeds");
        }
        let mut position = 0usize;
        out.push(Probe::per_call(
            "a2m.lookup_verify_ns",
            simple(move || {
                position = (position + 97) % 256;
                let entry = a2m.lookup(log, position).expect("appended above").clone();
                a2m.verify_lookup(log, &entry).expect("genuine entry");
            }),
        ));
    }
    out
}
