//! The TNIC programming API (paper §6.1, Table 1).
//!
//! The API mirrors the paper's RDMA-flavoured interface: connections are set
//! up with `ibv_qp_conn`/`alloc_mem`/`init_lqueue`/`ibv_sync` (wrapped here in
//! [`Cluster::connect`]), and the network APIs are `local_send`/`local_verify`,
//! `auth_send` and `poll`. A [`Cluster`] owns one
//! endpoint per node and the shared virtual clock, and — once asked with
//! [`Cluster::monitor_lemmas`] — the [`LemmaMonitor`] that decides the §4.4
//! lemmas over every message it attests and accepts.
//!
//! Every message flows through an attestation [`Provider`], so the same
//! application code runs over TNIC hardware or any of the TEE baselines —
//! the paper's §8.3 methodology.

use crate::accountability::SharedAccountability;
use crate::error::CoreError;
use crate::provider::Provider;
use crate::verification::{ActionFact, LemmaMonitor};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use tnic_crypto::ed25519::{Keypair, PreparedVerifyingKey, Signature};
use tnic_device::attestation::AttestedMessage;
use tnic_device::roce::packet::{PacketHeader, RdmaOpcode, RocePacket};
use tnic_device::types::{DeviceId, Ipv4Addr, MacAddr, QueuePairId, SessionId};
use tnic_net::adversary::{Adversary, PartitionSchedule};
use tnic_net::stack::NetworkStackKind;
use tnic_sim::clock::SimClock;
use tnic_sim::rng::DetRng;
use tnic_sim::time::{SimDuration, SimInstant};
use tnic_tee::profile::Baseline;

/// Identifier of a logical node (machine) in a TNIC deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl NodeId {
    /// The device identity backing this node.
    #[must_use]
    pub fn device(self) -> DeviceId {
        DeviceId(self.0)
    }
}

/// A message delivered to a node's inbox after successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The node whose attestation the message carries.
    pub from: NodeId,
    /// The verified attested message.
    pub message: AttestedMessage,
    /// Virtual time of delivery.
    pub at: SimInstant,
}

/// Per-node state: the attestation provider, client-facing signing key and
/// the inbox filled by `auth_send`.
struct Endpoint {
    provider: Provider,
    /// The client key's seed, drawn from the cluster rng in `add_node`;
    /// the key itself is derived on first use (most deployments never
    /// sign a client reply).
    signer_seed: [u8; 32],
    signer: OnceCell<Keypair>,
    /// The client key's public half readied for many verifications, built
    /// on the first `verify_reply` that names this node.
    verifier: OnceCell<PreparedVerifyingKey>,
    inbox: VecDeque<Delivered>,
}

impl Endpoint {
    fn signer(&self) -> &Keypair {
        self.signer
            .get_or_init(|| Keypair::from_seed(&self.signer_seed))
    }

    fn verifier(&self) -> &PreparedVerifyingKey {
        self.verifier
            .get_or_init(|| PreparedVerifyingKey::new(self.signer().verifying))
    }
}

/// Aggregate timing statistics of a cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Messages sent with `auth_send` (including multicast copies).
    pub messages_sent: u64,
    /// Messages rejected at verification.
    pub messages_rejected: u64,
    /// Sends refused because an endpoint had departed or crashed. Before
    /// membership tracking these were silent losses; now every one is
    /// counted, traced (net-drop with a reason) and surfaced as
    /// [`CoreError::Unreachable`] *before* the attested channel's session
    /// counter advances.
    pub messages_unreachable: u64,
    /// Sends refused because an open [`PartitionSchedule`] cut separated the
    /// endpoints (healing restores the link with counters intact).
    pub messages_partitioned: u64,
    /// Audit wire messages (challenges/responses and their batched forms)
    /// among `messages_sent`, reported by the accountability driver via
    /// [`Cluster::note_audit_message`] — the control-plane slice the sampled
    /// audit path is designed to shrink.
    pub messages_audit: u64,
    /// Wire messages *saved* by challenge/response batching: individual
    /// challenges/responses that travelled coalesced inside a batch envelope
    /// instead of as their own message (also via
    /// [`Cluster::note_audit_message`]).
    pub messages_batched: u64,
}

/// A set of TNIC nodes wired together over a (modelled) network stack.
pub struct Cluster {
    baseline: Baseline,
    stack: NetworkStackKind,
    clock: SimClock,
    rng: DetRng,
    endpoints: BTreeMap<NodeId, Endpoint>,
    sessions: HashMap<(NodeId, NodeId), SessionId>,
    group_sessions: HashMap<NodeId, SessionId>,
    local_sessions: HashMap<NodeId, SessionId>,
    next_session: u32,
    /// The monitor [`Cluster::monitor_lemmas`] attached; `None` until then.
    /// Boxed, so a cluster without one stays as small as before it.
    lemmas: Option<Box<LemmaMonitor>>,
    stats: ClusterStats,
    accountability: Option<SharedAccountability>,
    adversary: Option<(Adversary, DetRng)>,
    /// Nodes currently unreachable (departed or crash-stopped), with the
    /// drop-reason label surfaced in errors, stats and trace events.
    unreachable: BTreeMap<NodeId, &'static str>,
    /// An installed healing-partition schedule, if any.
    partition: Option<PartitionSchedule>,
    /// The round the partition schedule is evaluated against (advanced by
    /// the protocol driver via [`Cluster::set_partition_round`]).
    partition_round: u64,
    /// Nodes with a non-empty inbox — the scheduler's active set, so a drain
    /// pass visits O(pending) nodes instead of scanning all n (maintained
    /// wherever an inbox grows or shrinks).
    pending_nodes: BTreeSet<NodeId>,
    /// Establish pairwise sessions on first send instead of eagerly at
    /// construction ([`Cluster::sparse`]): an n = 1000 cluster would
    /// otherwise pay ~n²/2 key exchanges up front, while sharded witness
    /// sets only ever use O(n·w) links.
    lazy_connect: bool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("baseline", &self.baseline)
            .field("stack", &self.stack)
            .field("nodes", &self.endpoints.len())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl Cluster {
    /// Creates an empty cluster whose attestations are produced by `baseline`
    /// and whose messages travel over `stack`.
    #[must_use]
    pub fn new(baseline: Baseline, stack: NetworkStackKind, seed: u64) -> Self {
        Cluster {
            baseline,
            stack,
            clock: SimClock::new(),
            rng: DetRng::new(seed),
            endpoints: BTreeMap::new(),
            sessions: HashMap::new(),
            group_sessions: HashMap::new(),
            local_sessions: HashMap::new(),
            next_session: 1,
            lemmas: None,
            stats: ClusterStats::default(),
            accountability: None,
            adversary: None,
            unreachable: BTreeMap::new(),
            partition: None,
            partition_round: 0,
            pending_nodes: BTreeSet::new(),
            lazy_connect: false,
        }
    }

    /// A cluster of `n` nodes (ids 0..n), fully connected.
    #[must_use]
    pub fn fully_connected(n: u32, baseline: Baseline, stack: NetworkStackKind, seed: u64) -> Self {
        let mut cluster = Cluster::new(baseline, stack, seed);
        for i in 0..n {
            cluster.add_node(NodeId(i));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                cluster.connect(NodeId(i), NodeId(j)).expect("nodes exist");
            }
        }
        cluster
    }

    /// A cluster of `n` nodes (ids 0..n) with *lazy* pairwise sessions:
    /// links are established on first `auth_send` instead of all n²/2 up
    /// front. Every link actually used behaves as in
    /// [`Cluster::fully_connected`] (same key-exchange procedure, run on
    /// demand); what differs is when keys are drawn, and which links exist
    /// at all. Session keys and the ≤ 5 % network-latency jitter come from
    /// the same seeded generator, so a lazily connected run reads virtual
    /// times a fraction of a percent off the eagerly connected one — never
    /// a different message, counter or verdict. `PeerReview` deployments
    /// are always built this way: with witness sets of size w a node talks
    /// to O(w) peers, and at n = 1000 the eager set-up alone dwarfs the run.
    #[must_use]
    pub fn sparse(n: u32, baseline: Baseline, stack: NetworkStackKind, seed: u64) -> Self {
        let mut cluster = Cluster::new(baseline, stack, seed);
        for i in 0..n {
            cluster.add_node(NodeId(i));
        }
        cluster.lazy_connect = true;
        cluster
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// The node ids currently in the cluster.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeId> {
        self.endpoints.keys().copied().collect()
    }

    /// Attaches a [`LemmaMonitor`] that decides the §4.4 lemmas over every
    /// message attested and every message accepted from now on, told the
    /// key holders of every group and node-local session established so far
    /// (a pairwise session's two are the monitor's default). Calling it
    /// again keeps the monitor attached.
    ///
    /// The monitor is an observer like [`Cluster::attach_accountability`]
    /// and [`Cluster::set_adversary`]: it changes no message, counter, clock,
    /// random draw or statistic. Its state is bounded by the sessions and
    /// the messages in flight, but each message costs a few table lookups
    /// and a copy of its payload while in flight, a verification aid's
    /// price, so it is off until asked for.
    ///
    /// # Panics
    ///
    /// Panics when a first attach comes after any node attested a message:
    /// a monitor that missed a `Sent` fact would decide on a partial stream.
    pub fn monitor_lemmas(&mut self) {
        if self.lemmas.is_some() {
            return;
        }
        assert!(
            !self.endpoints.values().any(|e| e.provider.has_attested()),
            "the lemma monitor must be attached before the first attestation"
        );
        let mut monitor = LemmaMonitor::default();
        for &session in self
            .local_sessions
            .values()
            .chain(self.group_sessions.values())
        {
            monitor.keyed(session, self.holders(session));
        }
        self.lemmas = Some(Box::new(monitor));
    }

    /// The lemma monitor: `None` unless [`Cluster::monitor_lemmas`] attached
    /// one, so that a lemma check cannot pass on facts nobody observed.
    #[must_use]
    pub fn lemmas(&self) -> Option<&LemmaMonitor> {
        self.lemmas.as_deref()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Attaches an accountability layer that observes every attested send and
    /// every verified delivery (see [`crate::accountability`]). At most one
    /// layer is attached at a time; attaching replaces the previous one.
    pub fn attach_accountability(&mut self, layer: SharedAccountability) {
        self.accountability = Some(layer);
    }

    /// Installs a packet-level network [`Adversary`] on the delivery path:
    /// every message sent with [`Cluster::auth_send`] or
    /// [`Cluster::multicast`] is framed as a RoCE packet and run through the
    /// adversary before delivery.
    ///
    /// The attested channel sits *above* the RoCE transport, whose go-back-N
    /// recovery retransmits lost or corrupted packets (the attestation
    /// kernel's strict receive counters assume a lossless, ordered stream —
    /// that is exactly what non-equivocation requires). The adversary
    /// therefore costs **retransmission latency** and rejected packets
    /// (tampered payloads fail the MAC, replayed duplicates fail the
    /// counter check; both land in [`ClusterStats::messages_rejected`]), but
    /// never silently loses an attested message. Used to compose node-level
    /// fault plans with a lossy/hostile network and show the accountability
    /// classification is stable under it.
    pub fn set_adversary(&mut self, adversary: Adversary, seed: u64) {
        self.adversary = Some((adversary, DetRng::new(seed)));
    }

    /// Marks `node` unreachable (departed or crash-stopped): every later
    /// send touching it is refused with [`CoreError::Unreachable`] — counted
    /// and traced, never silently lost — *before* the attested channel's
    /// session counter advances, so the channel survives a recovery intact.
    /// `reason` is the drop label (`"departed"` or `"crashed"`).
    pub fn mark_unreachable(&mut self, node: NodeId, reason: &'static str) {
        self.unreachable.insert(node, reason);
    }

    /// Restores reachability of a crash-recovered node.
    pub fn mark_reachable(&mut self, node: NodeId) {
        self.unreachable.remove(&node);
    }

    /// Installs a healing-partition schedule (see [`PartitionSchedule`]);
    /// the cut is evaluated against the round set by
    /// [`Cluster::set_partition_round`].
    pub fn set_partition(&mut self, schedule: PartitionSchedule) {
        self.partition = Some(schedule);
    }

    /// Advances the round the partition schedule is evaluated against,
    /// emitting a partition open/heal trace event on the transition.
    pub fn set_partition_round(&mut self, round: u64) {
        let Some(schedule) = &self.partition else {
            self.partition_round = round;
            return;
        };
        let was_active = schedule.active(self.partition_round);
        let now_active = schedule.active(round);
        if was_active != now_active {
            tnic_obs::trace_event!(
                tnic_obs::EventKind::Partition,
                at_us: self.clock.now().as_micros(),
                seq: schedule.group.len() as u64,
                round: round,
                aux: if now_active {
                    tnic_obs::codes::PARTITION_OPEN
                } else {
                    tnic_obs::codes::PARTITION_HEAL
                }
            );
        }
        self.partition_round = round;
    }

    /// Why the link `from → to` is down right now, if it is: an unreachable
    /// endpoint's reason label, or `"partitioned"` under an open cut.
    #[must_use]
    pub fn link_blocked(&self, from: NodeId, to: NodeId) -> Option<&'static str> {
        if let Some(&reason) = self
            .unreachable
            .get(&to)
            .or_else(|| self.unreachable.get(&from))
        {
            return Some(reason);
        }
        if let Some(schedule) = &self.partition {
            if schedule.cuts(self.partition_round, from.0, to.0) {
                return Some("partitioned");
            }
        }
        None
    }

    /// Refuses a send over a down link: counts the drop, emits the net-drop
    /// trace event with its reason code, and returns
    /// [`CoreError::Unreachable`].
    fn refuse_blocked_send(&mut self, from: NodeId, to: NodeId, reason: &'static str) -> CoreError {
        let code = match reason {
            "departed" => tnic_obs::codes::DROP_DEPARTED,
            "crashed" => tnic_obs::codes::DROP_CRASHED,
            _ => tnic_obs::codes::DROP_PARTITIONED,
        };
        if code == tnic_obs::codes::DROP_PARTITIONED {
            self.stats.messages_partitioned += 1;
        } else {
            self.stats.messages_unreachable += 1;
        }
        tnic_obs::trace_event!(
            tnic_obs::EventKind::NetDrop,
            at_us: self.clock.now().as_micros(),
            node: to.0,
            peer: from.0,
            round: self.partition_round,
            aux: code
        );
        CoreError::Unreachable {
            from: from.0,
            to: to.0,
            reason,
        }
    }

    /// Adds a node with a fresh endpoint.
    pub fn add_node(&mut self, node: NodeId) {
        let seed = self.rng.next_u64();
        let mut signer_seed = [0u8; 32];
        signer_seed[..8].copy_from_slice(&seed.to_le_bytes());
        signer_seed[8..12].copy_from_slice(&node.0.to_le_bytes());
        self.endpoints.insert(
            node,
            Endpoint {
                provider: Provider::new(self.baseline, node.device(), seed),
                signer_seed,
                signer: OnceCell::new(),
                verifier: OnceCell::new(),
                inbox: VecDeque::new(),
            },
        );
    }

    fn endpoint_mut(&mut self, node: NodeId) -> Result<&mut Endpoint, CoreError> {
        self.endpoints
            .get_mut(&node)
            .ok_or(CoreError::UnknownNode(node.0))
    }

    fn endpoint(&self, node: NodeId) -> Result<&Endpoint, CoreError> {
        self.endpoints
            .get(&node)
            .ok_or(CoreError::UnknownNode(node.0))
    }

    fn fresh_session(&mut self) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        id
    }

    /// Establishes a connection between `a` and `b`: the ibv handshake
    /// (`ibv_qp_conn`, `alloc_mem`, `init_lqueue`, `ibv_sync`) plus the
    /// installation of the shared session key on both devices (done by the
    /// system designer / attestation protocol, never by untrusted software).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if either node does not exist.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> Result<SessionId, CoreError> {
        if !self.endpoints.contains_key(&a) {
            return Err(CoreError::UnknownNode(a.0));
        }
        if !self.endpoints.contains_key(&b) {
            return Err(CoreError::UnknownNode(b.0));
        }
        let session = self.fresh_session();
        let key = self.rng.bytes32();
        self.endpoint_mut(a)?
            .provider
            .install_session_key(session, key);
        self.endpoint_mut(b)?
            .provider
            .install_session_key(session, key);
        self.sessions.insert((a, b), session);
        self.sessions.insert((b, a), session);
        Ok(session)
    }

    /// Establishes a one-to-many group session rooted at `sender` (used for
    /// the equivocation-free multicast of §6.1/§8.2: the same attested message
    /// is unicast to every member).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if any node does not exist.
    pub fn establish_group(
        &mut self,
        sender: NodeId,
        receivers: &[NodeId],
    ) -> Result<SessionId, CoreError> {
        let session = self.fresh_session();
        let key = self.rng.bytes32();
        self.endpoint_mut(sender)?
            .provider
            .install_session_key(session, key);
        for &receiver in receivers {
            self.endpoint_mut(receiver)?
                .provider
                .install_session_key(session, key);
        }
        self.group_sessions.insert(sender, session);
        self.key_session(session);
        Ok(session)
    }

    /// Establishes a node-local session used by `local_send`/`local_verify`
    /// (single-node use cases such as the A2M log).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if the node does not exist.
    pub fn establish_local(&mut self, node: NodeId) -> Result<SessionId, CoreError> {
        if let Some(existing) = self.local_sessions.get(&node) {
            return Ok(*existing);
        }
        let session = self.fresh_session();
        let key = self.rng.bytes32();
        self.endpoint_mut(node)?
            .provider
            .install_session_key(session, key);
        self.local_sessions.insert(node, session);
        self.key_session(session);
        Ok(session)
    }

    fn notify_sent(&mut self, from: NodeId, to: NodeId, msg: &AttestedMessage) {
        if let Some(layer) = &self.accountability {
            layer.borrow_mut().on_sent(from, to, msg, self.clock.now());
        }
    }

    /// How many endpoints hold the key of `session`.
    fn holders(&self, session: SessionId) -> u32 {
        let endpoints = self.endpoints.values();
        endpoints
            .filter(|e| e.provider.has_session(session))
            .count() as u32
    }

    /// Tells the lemma monitor, if one is attached, who holds the key of
    /// `session`.
    fn key_session(&mut self, session: SessionId) {
        if let Some(mut monitor) = self.lemmas.take() {
            monitor.keyed(session, self.holders(session));
            self.lemmas = Some(monitor);
        }
    }

    fn observe_sent(&mut self, node: NodeId, msg: &AttestedMessage) {
        if let Some(monitor) = &mut self.lemmas {
            monitor.observe(ActionFact::Sent {
                endpoint: node.device(),
                session: msg.session,
                counter: msg.counter,
                payload: &msg.payload,
            });
        }
    }

    fn observe_accepted(&mut self, node: NodeId, msg: &AttestedMessage) {
        if let Some(monitor) = &mut self.lemmas {
            monitor.observe(ActionFact::Accepted {
                endpoint: node.device(),
                session: msg.session,
                sender: msg.device,
                counter: msg.counter,
                payload: &msg.payload,
            });
        }
    }

    /// `local_send()`: generates an attested message bound to `node`'s local
    /// session without transmitting it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSession`] if [`Cluster::establish_local`] was not
    /// called, or a device error.
    pub fn local_send(
        &mut self,
        node: NodeId,
        payload: &[u8],
    ) -> Result<AttestedMessage, CoreError> {
        let session = self
            .local_sessions
            .get(&node)
            .copied()
            .ok_or(CoreError::NoSession {
                from: node.0,
                to: node.0,
            })?;
        let endpoint = self.endpoint_mut(node)?;
        let (msg, cost) = endpoint.provider.attest(session, payload)?;
        self.clock.advance(cost);
        self.observe_sent(node, &msg);
        Ok(msg)
    }

    /// `local_verify()`: verifies the binding of a locally generated attested
    /// message (out-of-order verification allowed).
    ///
    /// # Errors
    ///
    /// Returns a device error if the attestation does not verify.
    pub fn local_verify(
        &mut self,
        node: NodeId,
        message: &AttestedMessage,
    ) -> Result<(), CoreError> {
        let endpoint = self.endpoint_mut(node)?;
        let cost = endpoint.provider.verify_binding(message)?;
        self.clock.advance(cost);
        Ok(())
    }

    fn network_latency(&mut self, payload_len: usize) -> SimDuration {
        // One-way latency of the configured stack for this message size, with
        // a little jitter so runs are not perfectly deterministic in time.
        let base = self.stack.send_latency(payload_len);
        let jitter = self.rng.range(0, 1 + base.as_nanos() / 20);
        base + SimDuration::from_nanos(jitter)
    }

    /// `auth_send()`: attests `payload` at `from`, ships it over the network
    /// stack and verifies it at `to`; on success the message lands in `to`'s
    /// inbox (to be fetched with [`Cluster::poll`]).
    ///
    /// If an accountability layer is attached, the payload is first offered to
    /// [`AccountabilityLayer::wrap_outbound`](crate::accountability::AccountabilityLayer::wrap_outbound)
    /// so pending control data (e.g. PeerReview log commitments) can piggyback
    /// on application traffic instead of costing dedicated messages.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSession`] if the nodes are not connected, or the
    /// verification error if the receiver rejects the message.
    pub fn auth_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
    ) -> Result<AttestedMessage, CoreError> {
        // Churn/partition drops happen here, before the session counter
        // advances: the attested channel's strict receive counters cannot
        // tolerate a delivery gap, so a blocked link must refuse the send
        // rather than lose an attested message.
        if let Some(reason) = self.link_blocked(from, to) {
            return Err(self.refuse_blocked_send(from, to, reason));
        }
        let session = match self.sessions.get(&(from, to)).copied() {
            Some(session) => session,
            // Lazy-session mode: establish the link on first use, exactly as
            // `connect` would have at construction time.
            None if self.lazy_connect
                && self.endpoints.contains_key(&from)
                && self.endpoints.contains_key(&to) =>
            {
                self.connect(from, to)?
            }
            None => {
                return Err(CoreError::NoSession {
                    from: from.0,
                    to: to.0,
                })
            }
        };
        let wrapped = self
            .accountability
            .as_ref()
            .and_then(|layer| layer.borrow_mut().wrap_outbound(from, to, payload));
        let payload = wrapped.as_deref().unwrap_or(payload);
        let (msg, attest_cost) = self.endpoint_mut(from)?.provider.attest(session, payload)?;
        self.clock.advance(attest_cost);
        self.observe_sent(from, &msg);
        self.transmit(from, to, &msg)?;
        Ok(msg)
    }

    /// Ships the attested `msg` from `from` to one receiver: the send is
    /// observed, counted and traced, the network latency charged, and the
    /// message delivered — through the adversary if one is installed.
    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &AttestedMessage,
    ) -> Result<(), CoreError> {
        self.notify_sent(from, to, msg);
        self.stats.messages_sent += 1;
        // The (sender, attestation counter) pair recorded as (node, seq) is
        // the message's cross-node trace identity: the matching Recv event on
        // the receiver carries the same counter, so trace assembly joins the
        // two into one causal edge without any extra wire field (see
        // `tnic_obs::assemble::trace_id`).
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Send,
            at_us: self.clock.now().as_micros(),
            node: from.0,
            peer: to.0,
            seq: msg.counter,
            aux: msg.payload.len() as u64
        );
        let latency = self.network_latency(msg.wire_len());
        self.clock.advance(latency);
        if self.adversary.is_some() {
            self.deliver_via_adversary(from, to, msg)
        } else {
            self.deliver(from, to, msg.clone())
        }
    }

    /// Frames `msg` as a RoCE packet, runs it through the installed
    /// [`Adversary`] and delivers it through the transport's loss recovery:
    /// every attempt the adversary drops or corrupts costs one
    /// retransmission round trip (go-back-N), then the packet is offered
    /// again. Duplicates and tampered copies that do reach the receiver are
    /// rejected by the verification path and counted; the message itself is
    /// always eventually delivered — a Byzantine network degrades latency,
    /// never the attested channel's lossless ordering.
    fn deliver_via_adversary(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &AttestedMessage,
    ) -> Result<(), CoreError> {
        // Retransmission bound: keeps the simulation finite against an
        // adversary that censors every attempt (e.g. drop probability 1.0);
        // the final attempt bypasses it, modelling the out-of-band recovery
        // a production transport escalates to.
        const MAX_RETRANSMITS: u32 = 16;
        let packet = RocePacket {
            header: PacketHeader {
                src_mac: MacAddr::from_device(from.device()),
                dst_mac: MacAddr::from_device(to.device()),
                src_ip: Ipv4Addr::from_device(from.device()),
                dst_ip: Ipv4Addr::from_device(to.device()),
                udp_port: 4791,
                opcode: RdmaOpcode::Write,
                qp: QueuePairId(to.0),
                psn: msg.counter as u32,
                msn: msg.counter as u32,
                ack_psn: 0,
            },
            payload: msg.encode(),
        };
        for _ in 0..MAX_RETRANSMITS {
            let surviving = {
                let (adversary, rng) = self.adversary.as_mut().expect("adversary installed");
                adversary.apply(&packet, rng)
            };
            let mut delivered = false;
            for packet in surviving {
                match AttestedMessage::decode(&packet.payload) {
                    Ok(received) => {
                        // Rejections (tampered MAC, duplicate or stale
                        // counter) are counted inside `deliver` and trigger
                        // a retransmission, not a sender-side error.
                        if self.deliver(from, to, received).is_ok() {
                            delivered = true;
                        }
                    }
                    Err(_) => self.stats.messages_rejected += 1,
                }
            }
            if delivered {
                return Ok(());
            }
            // Timeout + retransmission: one extra network traversal.
            let latency = self.network_latency(msg.wire_len());
            self.clock.advance(latency);
        }
        self.deliver(from, to, msg.clone())
    }

    /// Delivers an already-attested message to `to`, verifying it there. Used
    /// for forwarding (transferable authentication) and by adversarial tests
    /// that inject tampered or replayed messages.
    ///
    /// # Errors
    ///
    /// Returns the verification error if the receiver rejects the message.
    pub fn deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        message: AttestedMessage,
    ) -> Result<(), CoreError> {
        // The wire hop: the message reached the receiver's NIC (network
        // latency already charged by the sender path). The subsequent Recv
        // event records the verification outcome; this one records arrival,
        // mirroring the fabric-level NetDeliver on the same trace identity.
        tnic_obs::trace_event!(
            tnic_obs::EventKind::NetDeliver,
            at_us: self.clock.now().as_micros(),
            node: to.0,
            peer: from.0,
            seq: message.counter,
            aux: message.payload.len() as u64
        );
        let verify_result = {
            let endpoint = self.endpoint_mut(to)?;
            endpoint.provider.verify(&message)
        };
        match verify_result {
            Ok(cost) => {
                self.clock.advance(cost);
                self.observe_accepted(to, &message);
                let at = self.clock.now();
                tnic_obs::trace_event!(
                    tnic_obs::EventKind::Recv,
                    at_us: at.as_micros(),
                    node: to.0,
                    peer: from.0,
                    seq: message.counter,
                    aux: 0
                );
                let delivered = Delivered { from, message, at };
                if let Some(layer) = &self.accountability {
                    layer.borrow_mut().on_delivered(to, &delivered);
                }
                self.endpoint_mut(to)?.inbox.push_back(delivered);
                self.pending_nodes.insert(to);
                Ok(())
            }
            Err(e) => {
                self.stats.messages_rejected += 1;
                tnic_obs::trace_event!(
                    tnic_obs::EventKind::Recv,
                    at_us: self.clock.now().as_micros(),
                    node: to.0,
                    peer: from.0,
                    seq: message.counter,
                    aux: 1
                );
                Err(e.into())
            }
        }
    }

    /// Equivocation-free multicast (§6.1): the same attested message generated
    /// on the sender's group session is unicast to every receiver.
    ///
    /// If an accountability layer is attached, the payload is offered *once*
    /// to
    /// [`AccountabilityLayer::wrap_multicast`](crate::accountability::AccountabilityLayer::wrap_multicast)
    /// before attestation — the identical wrapped bytes reach every receiver,
    /// so the single-attestation property is preserved while pending control
    /// data (e.g. log commitments) rides the group traffic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSession`] if no group session exists, or the
    /// first verification error encountered.
    pub fn multicast(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        payload: &[u8],
    ) -> Result<AttestedMessage, CoreError> {
        // Same pre-attestation discipline as `auth_send`: a multicast with
        // any blocked leg is refused whole before the group counter moves.
        for &to in std::iter::once(&from).chain(receivers) {
            if let Some(reason) = self.link_blocked(from, to) {
                return Err(self.refuse_blocked_send(from, to, reason));
            }
        }
        let session = self
            .group_sessions
            .get(&from)
            .copied()
            .ok_or(CoreError::NoSession {
                from: from.0,
                to: from.0,
            })?;
        let wrapped = self
            .accountability
            .as_ref()
            .and_then(|layer| layer.borrow_mut().wrap_multicast(from, receivers, payload));
        let payload = wrapped.as_deref().unwrap_or(payload);
        let (msg, attest_cost) = self.endpoint_mut(from)?.provider.attest(session, payload)?;
        self.clock.advance(attest_cost);
        self.observe_sent(from, &msg);
        for &to in receivers {
            self.transmit(from, to, &msg)?;
        }
        Ok(msg)
    }

    /// `poll()`: drains `node`'s inbox of verified messages.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes.
    pub fn poll(&mut self, node: NodeId) -> Result<Vec<Delivered>, CoreError> {
        let endpoint = self.endpoint_mut(node)?;
        let drained: Vec<Delivered> = endpoint.inbox.drain(..).collect();
        self.pending_nodes.remove(&node);
        Ok(drained)
    }

    /// The nodes with at least one undrained inbox message, in id order —
    /// the scheduler's active set. Maintained incrementally wherever an
    /// inbox grows or shrinks, so reading it is O(pending), not O(n).
    #[must_use]
    pub fn nodes_with_pending(&self) -> Vec<NodeId> {
        self.pending_nodes.iter().copied().collect()
    }

    /// Attributes the most recent sends to the audit plane: `wire_messages`
    /// audit envelopes just went over the wire carrying `elements`
    /// individual challenges/responses (`elements > wire_messages` when
    /// batching coalesced some). Called by the accountability driver; feeds
    /// the `messages_audit` / `messages_batched` breakdown in
    /// [`ClusterStats`].
    pub fn note_audit_message(&mut self, wire_messages: u64, elements: u64) {
        self.stats.messages_audit += wire_messages;
        self.stats.messages_batched += elements.saturating_sub(wire_messages);
    }

    /// Signs `payload` with `node`'s client-facing key (Appendix C.1: replies
    /// to Byzantine clients are signed because clients cannot hold the shared
    /// session keys).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes.
    pub fn sign_reply(&mut self, node: NodeId, payload: &[u8]) -> Result<Signature, CoreError> {
        let endpoint = self.endpoint(node)?;
        Ok(endpoint.signer().signing.sign(payload))
    }

    /// Verifies a client-facing signature produced by `node`.
    ///
    /// A client checks every reply against the same few replica keys, so
    /// each node's key is prepared once, lazily, on the first call that
    /// names it: a 32 KiB [`PreparedVerifyingKey`] table that every later
    /// verification against that node reuses. Nothing is built in
    /// [`Cluster::add_node`], and no virtual time is charged here.
    #[must_use]
    pub fn verify_reply(&self, node: NodeId, payload: &[u8], signature: &Signature) -> bool {
        self.endpoints
            .get(&node)
            .is_some_and(|e| e.verifier().verify(payload, signature).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_device::error::DeviceError;

    fn cluster(n: u32) -> Cluster {
        Cluster::fully_connected(n, Baseline::Tnic, NetworkStackKind::Tnic, 42)
    }

    #[test]
    fn auth_send_delivers_verified_messages() {
        let mut c = cluster(2);
        c.auth_send(NodeId(0), NodeId(1), b"hello").unwrap();
        c.auth_send(NodeId(0), NodeId(1), b"world").unwrap();
        let delivered = c.poll(NodeId(1)).unwrap();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].message.payload, b"hello");
        assert_eq!(delivered[1].message.payload, b"world");
        assert_eq!(delivered[0].from, NodeId(0));
        assert!(c.now() > SimInstant::EPOCH, "time advances");
    }

    #[test]
    fn trace_of_honest_run_satisfies_lemmas() {
        let mut c = cluster(3);
        c.monitor_lemmas();
        for i in 0..5 {
            c.auth_send(NodeId(0), NodeId(1), format!("m{i}").as_bytes())
                .unwrap();
            c.auth_send(NodeId(1), NodeId(2), format!("f{i}").as_bytes())
                .unwrap();
        }
        let monitor = c.lemmas().expect("monitor_lemmas() came first");
        assert!(
            monitor.violations().is_empty(),
            "{:?}",
            monitor.violations()
        );
        assert_eq!(c.stats().messages_sent, 10);
        // Both links seen, nothing left in flight.
        assert_eq!((monitor.in_flight(), monitor.links()), (0, 2));
    }

    /// Everything a caller can observe of a run.
    #[derive(Debug, PartialEq)]
    struct Observed {
        returned: Vec<Result<AttestedMessage, CoreError>>,
        inboxes: Vec<Vec<Delivered>>,
        stats: ClusterStats,
        now: SimInstant,
    }

    /// One seeded run over every path that emits a fact — unicast,
    /// multicast, `local_send`, a forwarded delivery, a tampered one.
    fn observed_run(c: &mut Cluster) -> Observed {
        let mut rng = DetRng::new(9);
        let mut payload = |max: u64| {
            let mut bytes = vec![0u8; rng.range(0, max) as usize];
            rng.fill_bytes(&mut bytes);
            bytes
        };
        let everyone = [NodeId(1), NodeId(2)];
        c.establish_group(NodeId(0), &everyone).unwrap();
        c.establish_local(NodeId(2)).unwrap();
        let mut returned = Vec::new();
        for round in 0..6 {
            returned.push(c.auth_send(NodeId(0), NodeId(1), &payload(300)));
            returned.push(c.auth_send(NodeId(1), NodeId(2), &payload(9000)));
            returned.push(c.local_send(NodeId(2), &payload(100)));
            if round % 2 == 0 {
                returned.push(c.multicast(NodeId(0), &everyone, &payload(300)));
            } else {
                // Node 2 is left out and gets the message forwarded by node 1.
                let msg = c.multicast(NodeId(0), &[NodeId(1)], &payload(300)).unwrap();
                returned.push(c.deliver(NodeId(1), NodeId(2), msg.clone()).map(|()| msg));
            }
            let mut tampered = returned[0].clone().unwrap();
            tampered.payload.push(round);
            returned.push(
                c.deliver(NodeId(0), NodeId(1), tampered.clone())
                    .map(|()| tampered),
            );
        }
        Observed {
            returned,
            inboxes: (0..3).map(|n| c.poll(NodeId(n)).unwrap()).collect(),
            stats: c.stats(),
            now: c.now(),
        }
    }

    #[test]
    fn monitoring_lemmas_is_a_pure_observer() {
        let mut monitored = cluster(3);
        monitored.monitor_lemmas();
        let mut plain = cluster(3);
        let observed = observed_run(&mut monitored);
        assert_eq!(observed, observed_run(&mut plain));
        assert!(plain.lemmas().is_none());

        let Observed {
            returned,
            inboxes,
            stats,
            ..
        } = observed;
        assert_eq!(stats.messages_rejected, 6, "every tampered copy refused");
        assert_eq!(returned.iter().filter(|r| r.is_err()).count(), 6);
        // 2 unicasts and 1 `local_send` a round and 6 multicasts attested;
        // 12 unicasts, 3 × 2 + 3 multicast legs and 3 forwards accepted.
        let monitor = monitored.lemmas().unwrap();
        assert!(
            monitor.violations().is_empty(),
            "{:?}",
            monitor.violations()
        );
        assert_eq!(monitor.in_flight(), 0, "every payload forgotten");
        assert_eq!(stats.messages_sent, 21, "the forwards are not sends");
        assert_eq!(inboxes.iter().map(Vec::len).sum::<usize>(), 24);

        // The monitor is not vacuous on this run: had node 1 accepted the
        // tampered copy of its first message, lemma 3 would say so; had node
        // 2 accepted a tampered copy of a multicast it is still owed,
        // lemma 2 would.
        let mut tampered = returned[0].clone().unwrap();
        tampered.payload.push(0xff);
        monitored.observe_accepted(NodeId(1), &tampered);
        let mut leg = monitored
            .multicast(NodeId(0), &[NodeId(1)], b"leg")
            .unwrap();
        assert_eq!(monitored.lemmas().unwrap().in_flight(), 1);
        leg.payload.push(0xff);
        monitored.observe_accepted(NodeId(2), &leg);
        let violations = monitored.lemmas().unwrap().violations();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("twice"));
        assert!(violations[1].contains("transferable authentication"));
    }

    #[test]
    #[should_panic(expected = "before the first attestation")]
    fn the_lemma_monitor_refuses_a_partial_stream() {
        let mut c = cluster(2);
        c.establish_local(NodeId(0)).unwrap();
        c.local_send(NodeId(0), b"unobserved").unwrap();
        c.monitor_lemmas();
    }

    #[test]
    fn replayed_message_rejected_and_not_double_delivered() {
        let mut c = cluster(2);
        let msg = c.auth_send(NodeId(0), NodeId(1), b"pay").unwrap();
        let err = c.deliver(NodeId(0), NodeId(1), msg).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Device(DeviceError::CounterMismatch { .. })
        ));
        assert_eq!(c.poll(NodeId(1)).unwrap().len(), 1);
        assert_eq!(c.stats().messages_rejected, 1);
    }

    #[test]
    fn tampered_message_rejected() {
        let mut c = cluster(2);
        let mut msg = c.auth_send(NodeId(0), NodeId(1), b"a").unwrap();
        let _ = c.poll(NodeId(1)).unwrap();
        msg.payload = b"b".to_vec();
        msg.counter = 1;
        assert!(matches!(
            c.deliver(NodeId(0), NodeId(1), msg),
            Err(CoreError::Device(DeviceError::BadAttestation))
        ));
    }

    #[test]
    fn blocked_sends_are_counted_not_silently_lost() {
        let mut c = cluster(3);
        c.auth_send(NodeId(0), NodeId(1), b"before").unwrap();
        c.mark_unreachable(NodeId(1), "crashed");
        let err = c.auth_send(NodeId(0), NodeId(1), b"lost").unwrap_err();
        assert!(matches!(
            err,
            CoreError::Unreachable {
                from: 0,
                to: 1,
                reason: "crashed"
            }
        ));
        // A crashed node cannot send either.
        assert!(c.auth_send(NodeId(1), NodeId(2), b"up").is_err());
        assert_eq!(c.stats().messages_unreachable, 2);
        assert_eq!(c.stats().messages_partitioned, 0);
        // Recovery restores the channel with counters intact.
        c.mark_reachable(NodeId(1));
        c.auth_send(NodeId(0), NodeId(1), b"after").unwrap();
        let delivered = c.poll(NodeId(1)).unwrap();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[1].message.payload, b"after");
    }

    #[test]
    fn partition_schedule_cuts_and_heals_links() {
        let mut c = cluster(3);
        c.set_partition(PartitionSchedule::new([2], 1, 3));
        c.auth_send(NodeId(0), NodeId(2), b"r0").unwrap();
        c.set_partition_round(1);
        let err = c.auth_send(NodeId(0), NodeId(2), b"cut").unwrap_err();
        assert!(matches!(
            err,
            CoreError::Unreachable {
                reason: "partitioned",
                ..
            }
        ));
        // Links inside the majority side stay up.
        c.auth_send(NodeId(0), NodeId(1), b"same-side").unwrap();
        c.set_partition_round(3);
        c.auth_send(NodeId(0), NodeId(2), b"healed").unwrap();
        assert_eq!(c.stats().messages_partitioned, 1);
        assert_eq!(c.poll(NodeId(2)).unwrap().len(), 2);
    }

    #[test]
    fn multicast_delivers_same_counter_to_all() {
        let mut c = cluster(3);
        c.establish_group(NodeId(0), &[NodeId(1), NodeId(2)])
            .unwrap();
        let msg = c
            .multicast(NodeId(0), &[NodeId(1), NodeId(2)], b"bcast")
            .unwrap();
        assert_eq!(msg.counter, 0);
        for node in [NodeId(1), NodeId(2)] {
            let delivered = c.poll(node).unwrap();
            assert_eq!(delivered.len(), 1);
            assert_eq!(delivered[0].message.counter, 0);
            assert_eq!(delivered[0].message.payload, b"bcast");
        }
    }

    #[test]
    fn local_send_verify_for_logs() {
        let mut c = cluster(1);
        c.establish_local(NodeId(0)).unwrap();
        let e0 = c.local_send(NodeId(0), b"entry 0").unwrap();
        let e1 = c.local_send(NodeId(0), b"entry 1").unwrap();
        assert_eq!(e0.counter, 0);
        assert_eq!(e1.counter, 1);
        c.local_verify(NodeId(0), &e1).unwrap();
        c.local_verify(NodeId(0), &e0).unwrap();
    }

    #[test]
    fn client_reply_signatures() {
        let mut c = cluster(2);
        let sig = c.sign_reply(NodeId(0), b"result=5").unwrap();
        assert!(c.verify_reply(NodeId(0), b"result=5", &sig));
        assert!(!c.verify_reply(NodeId(0), b"result=6", &sig));
        assert!(!c.verify_reply(NodeId(1), b"result=5", &sig));
        assert!(
            !c.verify_reply(NodeId(9), b"result=5", &sig),
            "unknown node"
        );
    }

    /// The client key of a node depends on the cluster seed and the node
    /// only, not on when it is first used; the bytes were dumped from the
    /// build that generated every key inside `add_node`.
    #[test]
    fn client_reply_signature_is_pinned_and_verifies_before_any_signing() {
        let sig = cluster(3).sign_reply(NodeId(2), b"result=5").unwrap();
        let hex: String = sig.0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "04ce4ed0dfe836ee72421d5f8d111fc8e3d22c1a40506ba409a276862cf5117f\
             862c6ad1c68f773fc8af7a2a9f024e282b9561f54084cce0ab133b0858124202"
        );
        assert!(cluster(3).verify_reply(NodeId(2), b"result=5", &sig));
    }

    #[test]
    fn unconnected_nodes_cannot_auth_send() {
        let mut c = Cluster::new(Baseline::Tnic, NetworkStackKind::Tnic, 1);
        c.add_node(NodeId(0));
        c.add_node(NodeId(1));
        assert!(matches!(
            c.auth_send(NodeId(0), NodeId(1), b"x"),
            Err(CoreError::NoSession { .. })
        ));
        assert!(matches!(
            c.auth_send(NodeId(0), NodeId(9), b"x"),
            Err(CoreError::NoSession { .. }) | Err(CoreError::UnknownNode(9))
        ));
    }

    #[test]
    fn all_baselines_work_with_the_same_code() {
        for baseline in Baseline::ALL {
            let mut c = Cluster::fully_connected(2, baseline, NetworkStackKind::Tnic, 7);
            c.auth_send(NodeId(0), NodeId(1), b"generic").unwrap();
            assert_eq!(c.poll(NodeId(1)).unwrap().len(), 1, "{baseline}");
        }
    }

    #[test]
    fn host_baselines_count_and_trace_attestations_like_tnic() {
        let attest_and_verify_events = |baseline| {
            let recorder = tnic_obs::RecorderGuard::install(64);
            let mut c = Cluster::fully_connected(2, baseline, NetworkStackKind::Tnic, 7);
            c.auth_send(NodeId(0), NodeId(1), b"traced").unwrap();
            assert_eq!(c.poll(NodeId(1)).unwrap().len(), 1);
            let count = |kind| {
                recorder
                    .snapshot()
                    .iter()
                    .filter(|e| e.kind == kind)
                    .count()
            };
            (
                count(tnic_obs::EventKind::Attest),
                count(tnic_obs::EventKind::Verify),
            )
        };
        assert_eq!(attest_and_verify_events(Baseline::Tnic), (1, 1));
        assert_eq!(attest_and_verify_events(Baseline::Sgx), (1, 1));
    }

    #[test]
    fn tee_baseline_is_slower_than_tnic() {
        let mut tnic = Cluster::fully_connected(2, Baseline::Tnic, NetworkStackKind::Tnic, 7);
        let mut sev = Cluster::fully_connected(2, Baseline::AmdSev, NetworkStackKind::DrctIo, 7);
        for _ in 0..20 {
            tnic.auth_send(NodeId(0), NodeId(1), &[0u8; 64]).unwrap();
            sev.auth_send(NodeId(0), NodeId(1), &[0u8; 64]).unwrap();
        }
        assert!(sev.now() > tnic.now());
    }

    #[test]
    fn sparse_cluster_connects_lazily_on_first_send() {
        let mut c = Cluster::sparse(4, Baseline::Tnic, NetworkStackKind::Tnic, 7);
        assert_eq!(c.nodes().len(), 4);
        // No session yet; the first send brings the link up transparently.
        c.auth_send(NodeId(0), NodeId(1), b"first").unwrap();
        assert_eq!(c.poll(NodeId(1)).unwrap().len(), 1);
        // An unknown endpoint still fails instead of phantom-connecting.
        assert!(c.auth_send(NodeId(0), NodeId(9), b"x").is_err());
    }

    #[test]
    fn pending_nodes_track_undrained_inboxes() {
        let mut c = Cluster::sparse(4, Baseline::Tnic, NetworkStackKind::Tnic, 7);
        assert!(c.nodes_with_pending().is_empty());
        c.auth_send(NodeId(0), NodeId(2), b"a").unwrap();
        c.auth_send(NodeId(1), NodeId(3), b"b").unwrap();
        c.auth_send(NodeId(0), NodeId(3), b"c").unwrap();
        assert_eq!(c.nodes_with_pending(), vec![NodeId(2), NodeId(3)]);
        assert_eq!(c.poll(NodeId(3)).unwrap().len(), 2);
        assert_eq!(c.nodes_with_pending(), vec![NodeId(2)]);
        assert_eq!(c.poll(NodeId(2)).unwrap().len(), 1);
        assert!(c.nodes_with_pending().is_empty());
    }

    #[test]
    fn audit_message_accounting_counts_wire_and_saved_messages() {
        let mut c = cluster(2);
        c.note_audit_message(1, 1); // a lone challenge: nothing saved
        c.note_audit_message(1, 5); // a batch of 5: four envelopes saved
        assert_eq!(c.stats().messages_audit, 2);
        assert_eq!(c.stats().messages_batched, 4);
    }
}
