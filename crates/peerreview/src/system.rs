//! The PeerReview workload driver — a thin client of the accountability
//! engine.
//!
//! Everything protocol-shaped lives in [`crate::engine`]: the commitment
//! layer feeding tamper-evident logs from the cluster's send/deliver hooks,
//! witness audit/challenge/evidence handling, verdict tracking and the
//! piggyback ride queue. This module contributes only what is specific to the
//! PeerReview case study: the round-robin counter workload
//! ([`crate::workload`] over [`CounterApp`]) and the configuration surface
//! the benchmarks sweep. Rounds are driven by [`Accountable::run_rounds`],
//! the one driver of every deployment:
//! `pr.run_rounds(rounds, 1, |pr, _| pr.run_workload(messages))`. The BFT
//! (`tnic-bft`) and chain-replication (`tnic-cr`) deployments attach the
//! *same* engine to their own clusters through their `with_accountability`
//! constructors — see [`crate::engine::AccountedApp`] for the contract.
//!
//! In piggyback mode the audit pipeline runs one workload round behind the
//! traffic it rides on (commitments sealed before round `k`'s workload cover
//! rounds `< k`); a finite run therefore leaves its final round unaudited
//! until [`PeerReview::drain_audits`] closes the tail. The fault-free
//! control-message overhead drops from ~7.5 per application message to well
//! under 2 with identical verdicts across the fault suite (gated by
//! `tnic-bench`'s `reproduce --check`).

use crate::audit::Verdict;
use crate::deployment::Accountable;
use crate::engine::{AccountabilityEngine, CounterApp, EngineConfig};
use crate::stats::AccountabilityStats;
use std::collections::BTreeMap;
use tnic_core::api::{Cluster, NodeId};
use tnic_core::error::CoreError;
use tnic_net::adversary::FaultPlan;
use tnic_net::stack::NetworkStackKind;
use tnic_tee::profile::Baseline;

/// Configuration of a PeerReview deployment: its shape (`nodes`, `stack`,
/// `app_payload_len`) and, flat beside it, a mirror of every
/// [`EngineConfig`] knob ([`PeerReviewConfig::engine_config`] and
/// [`PeerReviewConfig::with_engine`] map between the two).
///
/// The repo benchmark (`benchmark/src/adapter.rs`, outside this workspace
/// and so outside its tests) builds its deployments from a struct literal
/// naming exactly these fields; renaming one of them fails here first:
///
/// ```
/// use tnic_net::stack::NetworkStackKind;
/// use tnic_peerreview::system::PeerReviewConfig;
/// use tnic_tee::profile::Baseline;
///
/// let config = PeerReviewConfig {
///     nodes: 8,
///     baseline: Baseline::Tnic,
///     stack: NetworkStackKind::Tnic,
///     seed: 1,
///     witness_count: Some(3),
///     piggyback: true,
///     app_payload_len: 64,
///     checkpoint_interval: Some(4),
///     rotate_witnesses: true,
///     challenge_retries: 2,
///     audit_sample_size: Some(1),
///     audit_sample_seed: 7,
///     shards: 2,
///     ..PeerReviewConfig::default()
/// };
/// assert_eq!(config.with_engine(config.engine_config()), config);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerReviewConfig {
    /// Number of nodes in the (fully connected) cluster.
    pub nodes: u32,
    /// Attestation back-end.
    pub baseline: Baseline,
    /// Network stack model.
    pub stack: NetworkStackKind,
    /// Determinism seed.
    pub seed: u64,
    /// Witnesses per node, assigned by deterministic rotation (`None` =
    /// all-to-all, i.e. `n - 1`). Values are clamped to `1..=n-1`.
    pub witness_count: Option<u32>,
    /// Piggyback commitments on application traffic instead of dedicated
    /// announce/gossip messages (see the [`crate::engine`] docs).
    pub piggyback: bool,
    /// Application payload size in bytes (the round-robin `incr` command,
    /// zero-padded). Clamped to at least the bare command length.
    pub app_payload_len: usize,
    /// Run a cosigned checkpoint round (propose → cosign → prune, see
    /// [`crate::checkpoint`]) after every this many audit rounds (`None` =
    /// never; logs and stored commitments grow without bound).
    pub checkpoint_interval: Option<u64>,
    /// Rotate witness sets at checkpoint epochs (meaningful with
    /// `witness_count < n - 1` and a checkpoint interval).
    pub rotate_witnesses: bool,
    /// How many times a witness re-sends an unanswered challenge before
    /// downgrading the silent node to suspected (0 = classic single-shot
    /// behavior).
    pub challenge_retries: u32,
    /// Sampled auditing: each witness challenges only this many of its
    /// charges per round, on a seeded rotating schedule (`None` = every
    /// charge every round). See [`EngineConfig::audit_sample_size`].
    pub audit_sample_size: Option<u32>,
    /// Seed of the sampling schedule (independent of the fault RNG).
    pub audit_sample_seed: u64,
    /// With sampling: force-audit any pair not sampled for this many rounds
    /// (0 = rely on the rotation alone). See
    /// [`EngineConfig::audit_coverage_window`].
    pub audit_coverage_window: u64,
    /// Witness-set shards (consistent hashing); each witness then tracks
    /// only its co-shard members, O(n/shards) charges. `<= 1` = unsharded.
    /// See [`EngineConfig::shards`].
    pub shards: u32,
}

impl Default for PeerReviewConfig {
    fn default() -> Self {
        PeerReviewConfig {
            nodes: 4,
            baseline: Baseline::Tnic,
            stack: NetworkStackKind::Tnic,
            seed: 42,
            witness_count: None,
            piggyback: false,
            app_payload_len: crate::workload::APP_COMMAND.len(),
            checkpoint_interval: None,
            rotate_witnesses: false,
            challenge_retries: 0,
            audit_sample_size: None,
            audit_sample_seed: 0,
            audit_coverage_window: 0,
            shards: 1,
        }
    }
}

impl PeerReviewConfig {
    /// The engine half of the configuration.
    #[must_use]
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            baseline: self.baseline,
            seed: self.seed,
            witness_count: self.witness_count,
            piggyback: self.piggyback,
            checkpoint_interval: self.checkpoint_interval,
            rotate_witnesses: self.rotate_witnesses,
            challenge_retries: self.challenge_retries,
            audit_sample_size: self.audit_sample_size,
            audit_sample_seed: self.audit_sample_seed,
            audit_coverage_window: self.audit_coverage_window,
            shards: self.shards,
        }
    }

    /// The inverse of [`PeerReviewConfig::engine_config`]: this deployment
    /// shape (nodes, stack, payload size) with every engine knob taken from
    /// `engine`.
    #[must_use]
    pub fn with_engine(self, engine: EngineConfig) -> Self {
        PeerReviewConfig {
            baseline: engine.baseline,
            seed: engine.seed,
            witness_count: engine.witness_count,
            piggyback: engine.piggyback,
            checkpoint_interval: engine.checkpoint_interval,
            rotate_witnesses: engine.rotate_witnesses,
            challenge_retries: engine.challenge_retries,
            audit_sample_size: engine.audit_sample_size,
            audit_sample_seed: engine.audit_sample_seed,
            audit_coverage_window: engine.audit_coverage_window,
            shards: engine.shards,
            ..self
        }
    }
}

/// A PeerReview deployment: cluster + counter workload + the accountability
/// engine driving commitments and audits.
pub struct PeerReview {
    config: PeerReviewConfig,
    cluster: Cluster,
    app: CounterApp,
    engine: AccountabilityEngine<CounterApp>,
    nodes: Vec<NodeId>,
    workload_cursor: u64,
}

impl std::fmt::Debug for PeerReview {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerReview")
            .field("config", &self.config)
            .field("engine", &self.engine)
            .finish()
    }
}

impl Accountable for PeerReview {
    type App = CounterApp;

    fn engine(&self) -> &AccountabilityEngine<CounterApp> {
        &self.engine
    }

    fn parts(
        &mut self,
    ) -> (
        &mut AccountabilityEngine<CounterApp>,
        &mut Cluster,
        &mut CounterApp,
    ) {
        (&mut self.engine, &mut self.cluster, &mut self.app)
    }
}

impl PeerReview {
    /// Builds an accountable deployment of `config.nodes` nodes with the
    /// given fault plan. Witness sets are assigned by deterministic
    /// rotation: node `i` is audited by `i+1, …, i+w (mod n)` where `w` is
    /// [`PeerReviewConfig::witness_count`] (all other nodes by default).
    ///
    /// # Errors
    ///
    /// Propagates cluster connection errors.
    pub fn new(config: PeerReviewConfig, faults: FaultPlan) -> Result<Self, CoreError> {
        // Links come up lazily on first use instead of eagerly materialising
        // all n·(n-1) pairs (at n = 1000 the dense setup alone dwarfs the
        // run).
        let mut cluster = Cluster::sparse(config.nodes, config.baseline, config.stack, config.seed);
        let nodes: Vec<NodeId> = cluster.nodes();
        let app = CounterApp::new(&nodes);
        let engine =
            AccountabilityEngine::attach(&mut cluster, &app, config.engine_config(), faults);
        Ok(PeerReview {
            config,
            cluster,
            app,
            engine,
            nodes,
            workload_cursor: 0,
        })
    }

    /// The underlying cluster (trace checking, stats).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster (e.g. to install a
    /// packet-level adversary on the delivery path).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The witness ids assigned to `node`.
    #[must_use]
    pub fn witnesses_of(&self, node: u32) -> &[u32] {
        self.engine.witnesses_of(node)
    }

    /// The witnesses of `node` that are themselves correct under the fault
    /// plan.
    #[must_use]
    pub fn correct_witnesses_of(&self, node: u32) -> Vec<u32> {
        self.engine.correct_witnesses_of(node)
    }

    /// `witness`'s verdict on `node`.
    #[must_use]
    pub fn verdict_of(&self, witness: u32, node: u32) -> Verdict {
        self.engine.verdict_of(witness, node)
    }

    /// Current log length of `node`.
    #[must_use]
    pub fn log_len(&self, node: u32) -> u64 {
        self.engine.log_len(node)
    }

    /// Snapshot of the accountability counters.
    #[must_use]
    pub fn stats(&self) -> AccountabilityStats {
        self.engine.stats()
    }

    /// Runs `messages` application sends round-robin over the nodes (the
    /// shared [`crate::workload`] schedule); each delivered command is
    /// executed by the receiver's state machine (and thereby committed to
    /// its log). In piggyback mode, pending commitments ride these sends.
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors.
    pub fn run_workload(&mut self, messages: u64) -> Result<(), CoreError> {
        let payload = crate::workload::app_payload_sized(self.config.app_payload_len);
        for _ in 0..messages {
            let (from, to) = crate::workload::next_pair(&self.nodes, &mut self.workload_cursor);
            let t0 = self.cluster.now();
            match self.cluster.auth_send(from, to, &payload) {
                Ok(_) => {}
                // Either endpoint down or partitioned off: the cluster
                // counted and traced the refused send; the workload moves on.
                Err(CoreError::Unreachable { .. }) => continue,
                Err(e) => return Err(e),
            }
            let latency = self.cluster.now().duration_since(t0);
            self.engine.record_app_send(latency);
            self.engine.poll(&mut self.cluster, &mut self.app, to)?;
        }
        Ok(())
    }

    /// Runs one full audit round: commit, gossip, challenge, verify,
    /// classify (see [`AccountabilityEngine::run_audit_round`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn run_audit_round(&mut self) -> Result<(), CoreError> {
        Accountable::run_audit_round(self)
    }

    /// The commit step of an audit round (piggyback-pipelined drivers; see
    /// [`AccountabilityEngine::begin_audit_round`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn begin_audit_round(&mut self) -> Result<(), CoreError> {
        Accountable::begin_audit_round(self)
    }

    /// Flush + challenge + classify after the commit step (see
    /// [`AccountabilityEngine::finish_audit_round`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn finish_audit_round(&mut self) -> Result<(), CoreError> {
        Accountable::finish_audit_round(self)
    }

    /// Audits everything still in the pipeline (see
    /// [`AccountabilityEngine::drain_audits`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    pub fn drain_audits(&mut self) -> Result<(), CoreError> {
        Accountable::drain_audits(self)
    }

    /// Crash-stops `node`: sends to and from it are refused (and counted)
    /// until [`PeerReview::recover_node`].
    pub fn crash_node(&mut self, node: u32) {
        self.engine.crash_node(&mut self.cluster, node);
    }

    /// Recovers a crashed `node`: restores its links and re-announces its
    /// sealed log head to its witnesses (see
    /// [`AccountabilityEngine::recover_node`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the announcement.
    pub fn recover_node(&mut self, node: u32) -> Result<(), CoreError> {
        self.engine
            .recover_node(&mut self.cluster, &mut self.app, node)
    }

    /// Gracefully departs `node`: its final sealed commitment plus
    /// unaudited tail go to its witnesses, then its links come down (see
    /// [`AccountabilityEngine::depart_node`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the farewell traffic.
    pub fn depart_node(&mut self, node: u32) -> Result<(), CoreError> {
        self.engine
            .depart_node(&mut self.cluster, &mut self.app, node)
    }

    /// Adds a node with id `id` (must equal the current cluster size) to
    /// the running deployment: connects it to every peer, bootstraps its
    /// accountability state and audits it from its initial commitment (see
    /// [`AccountabilityEngine::join_node`]).
    ///
    /// # Errors
    ///
    /// Propagates connection/attestation errors.
    pub fn join_node(&mut self, id: u32) -> Result<(), CoreError> {
        let node = self
            .engine
            .join_node(&mut self.cluster, &mut self.app, id)?;
        self.nodes.push(node);
        Ok(())
    }

    /// How often each verdict occurs across all (witness, node) pairs —
    /// convenience for scenario summaries.
    #[must_use]
    pub fn verdict_census(&self) -> BTreeMap<&'static str, u64> {
        let mut census = BTreeMap::new();
        for node in self.nodes.iter().map(|n| n.0) {
            for &w in self.witnesses_of(node) {
                *census.entry(self.verdict_of(w, node).label()).or_insert(0) += 1;
            }
        }
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Misbehavior;
    use tnic_net::adversary::NodeFault;

    fn deployment(faults: FaultPlan) -> PeerReview {
        PeerReview::new(PeerReviewConfig::default(), faults).unwrap()
    }

    #[test]
    fn honest_run_produces_no_suspicion_and_audits_pass() {
        let mut pr = deployment(FaultPlan::all_correct());
        pr.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();
        for node in 0..4 {
            for &w in pr.witnesses_of(node) {
                assert_eq!(
                    pr.verdict_of(w, node),
                    Verdict::Trusted,
                    "witness {w} of node {node}"
                );
                assert!(pr.engine().evidence_of(w, node).is_empty());
            }
        }
        let stats = pr.stats();
        assert!(stats.app_messages == 24);
        assert!(stats.challenges > 0);
        assert_eq!(stats.responses, stats.challenges);
        assert_eq!(stats.unanswered_challenges, 0);
        assert!(!stats.audit_latency.is_empty());
        assert!(stats.log_entries > 0);
        assert_eq!(pr.verdict_census().get("trusted"), Some(&12));
    }

    #[test]
    fn workload_logs_sends_and_receives() {
        let mut pr = deployment(FaultPlan::all_correct());
        pr.run_workload(4).unwrap();
        // Each message: Send at sender, Recv + Exec at receiver.
        assert_eq!(pr.stats().log_entries, 12);
    }

    #[test]
    fn equivocator_is_exposed_by_all_correct_witnesses() {
        let mut pr = deployment(FaultPlan::single(1, NodeFault::Equivocate));
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(6)).unwrap();
        for w in pr.correct_witnesses_of(1) {
            assert_eq!(pr.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
            assert!(!pr.engine().evidence_of(w, 1).is_empty());
        }
    }

    #[test]
    fn equivocator_with_single_witness_is_still_exposed() {
        let config = PeerReviewConfig {
            nodes: 2,
            ..PeerReviewConfig::default()
        };
        let mut pr = PeerReview::new(config, FaultPlan::single(1, NodeFault::Equivocate)).unwrap();
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(4)).unwrap();
        assert_eq!(pr.witnesses_of(1), &[0]);
        // No fellow witness to gossip with: exposure comes from the audit of
        // the forked commitment itself.
        assert_eq!(pr.verdict_of(0, 1), Verdict::Exposed);
    }

    #[test]
    fn suppressing_node_is_suspected_not_exposed() {
        let mut pr = deployment(FaultPlan::single(
            2,
            NodeFault::SuppressAudits { probability: 1.0 },
        ));
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(6)).unwrap();
        for w in pr.correct_witnesses_of(2) {
            assert_eq!(pr.verdict_of(w, 2), Verdict::Suspected, "witness {w}");
            assert!(
                pr.engine().evidence_of(w, 2).is_empty(),
                "silence is not proof"
            );
        }
        assert!(pr.stats().unanswered_challenges > 0);
    }

    #[test]
    fn truncating_node_is_exposed() {
        let mut pr = deployment(FaultPlan::single(
            3,
            NodeFault::TruncateLog { drop_tail: 4 },
        ));
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        for w in pr.correct_witnesses_of(3) {
            assert_eq!(pr.verdict_of(w, 3), Verdict::Exposed, "witness {w}");
        }
    }

    #[test]
    fn tampered_execution_is_exposed_by_replay() {
        let mut pr = deployment(FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }));
        pr.run_workload(8).unwrap();
        pr.run_audit_round().unwrap();
        for w in pr.correct_witnesses_of(1) {
            assert_eq!(pr.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
            assert!(pr
                .engine()
                .evidence_of(w, 1)
                .iter()
                .any(|e| matches!(e, Misbehavior::ExecDivergence { .. })));
        }
    }

    fn piggyback_config(witness_count: u32) -> PeerReviewConfig {
        PeerReviewConfig {
            witness_count: Some(witness_count),
            piggyback: true,
            ..PeerReviewConfig::default()
        }
    }

    #[test]
    fn witness_rotation_assigns_w_witnesses_per_node() {
        let pr = PeerReview::new(piggyback_config(2), FaultPlan::all_correct()).unwrap();
        for node in 0..4 {
            assert_eq!(
                pr.witnesses_of(node),
                &[(node + 1) % 4, (node + 2) % 4],
                "node {node}"
            );
        }
        // All-to-all default keeps n-1 witnesses.
        let pr = PeerReview::new(PeerReviewConfig::default(), FaultPlan::all_correct()).unwrap();
        for node in 0..4 {
            assert_eq!(pr.witnesses_of(node).len(), 3);
        }
    }

    #[test]
    fn piggybacked_fault_free_run_cuts_control_overhead() {
        let mut dedicated = deployment(FaultPlan::all_correct());
        dedicated
            .run_rounds(3, 1, |pr, _| pr.run_workload(8))
            .unwrap();
        let mut piggy = PeerReview::new(piggyback_config(2), FaultPlan::all_correct()).unwrap();
        piggy.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();

        for node in 0..4 {
            for &w in piggy.witnesses_of(node) {
                assert_eq!(piggy.verdict_of(w, node), Verdict::Trusted);
            }
        }
        let d = dedicated.stats();
        let p = piggy.stats();
        assert!(p.piggybacked_commitments > 0, "commitments actually rode");
        assert!(
            p.control_overhead_ratio() <= 2.0,
            "piggybacked ctl/app must be <= 2.0, got {:.2}",
            p.control_overhead_ratio()
        );
        assert!(
            p.control_overhead_ratio() < d.control_overhead_ratio() / 3.0,
            "piggybacking must cut overhead by >3x: {:.2} vs {:.2}",
            p.control_overhead_ratio(),
            d.control_overhead_ratio()
        );
        // Audits still ran for every (witness, node) pair.
        assert!(p.challenges > 0);
        assert_eq!(p.responses, p.challenges);
    }

    #[test]
    fn piggybacked_equivocator_is_exposed_with_small_witness_set() {
        let mut pr = PeerReview::new(
            piggyback_config(2),
            FaultPlan::single(1, NodeFault::Equivocate),
        )
        .unwrap();
        pr.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();
        for w in pr.correct_witnesses_of(1) {
            assert_eq!(pr.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
            assert!(!pr.engine().evidence_of(w, 1).is_empty());
        }
    }

    #[test]
    fn piggybacked_fault_suite_keeps_classifications() {
        let cases: [(u32, NodeFault, Verdict); 3] = [
            (
                2,
                NodeFault::SuppressAudits { probability: 1.0 },
                Verdict::Suspected,
            ),
            (3, NodeFault::TruncateLog { drop_tail: 4 }, Verdict::Exposed),
            (1, NodeFault::TamperLogEntry { seq: 0 }, Verdict::Exposed),
        ];
        for (node, fault, expected) in cases {
            let mut pr =
                PeerReview::new(piggyback_config(2), FaultPlan::single(node, fault)).unwrap();
            pr.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();
            for w in pr.correct_witnesses_of(node) {
                assert_eq!(
                    pr.verdict_of(w, node),
                    expected,
                    "fault {fault:?} witness {w}"
                );
            }
        }
    }

    #[test]
    fn tail_round_fault_needs_drain_to_expose_in_piggyback_mode() {
        // The audit pipeline trails the workload by one round in piggyback
        // mode. Find node 1's log length at the final round boundary in a
        // clean twin (identical seed, so identical evolution up to there)...
        let mut probe = PeerReview::new(piggyback_config(2), FaultPlan::all_correct()).unwrap();
        probe.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        let boundary = probe.log_len(1);
        // ...then tamper an execution that only happens in the final round.
        let mut pr = PeerReview::new(
            piggyback_config(2),
            FaultPlan::single(1, NodeFault::TamperLogEntry { seq: boundary }),
        )
        .unwrap();
        pr.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();
        for w in pr.correct_witnesses_of(1) {
            assert_eq!(
                pr.verdict_of(w, 1),
                Verdict::Trusted,
                "witness {w}: tail round is still in the audit pipeline"
            );
        }
        pr.drain_audits().unwrap();
        for w in pr.correct_witnesses_of(1) {
            assert_eq!(
                pr.verdict_of(w, 1),
                Verdict::Exposed,
                "witness {w}: drain must audit the tail"
            );
            assert!(pr
                .engine()
                .evidence_of(w, 1)
                .iter()
                .any(|e| matches!(e, Misbehavior::ExecDivergence { .. })));
        }
    }

    // ---- membership churn, crash-recovery, partition healing ----------

    use crate::engine::MemberPhase;
    use tnic_net::adversary::PartitionSchedule;

    #[test]
    fn crashed_node_is_tolerated_and_rejoins_trusted() {
        let mut pr = deployment(FaultPlan::all_correct());
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.crash_node(1);
        assert_eq!(pr.engine().member_phase(1), MemberPhase::Crashed);
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        // Sends touching the crashed node were refused and counted, never
        // silently lost; its silence is tolerated, not punished.
        assert!(pr.cluster().stats().messages_unreachable > 0);
        for &w in pr.witnesses_of(1) {
            assert_ne!(pr.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
        }
        pr.recover_node(1).unwrap();
        assert_eq!(pr.engine().member_phase(1), MemberPhase::Recovering);
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.drain_audits().unwrap();
        assert_eq!(pr.engine().member_phase(1), MemberPhase::Active);
        for node in 0..4 {
            for &w in pr.witnesses_of(node) {
                assert_eq!(
                    pr.verdict_of(w, node),
                    Verdict::Trusted,
                    "witness {w} of node {node} after recovery"
                );
            }
        }
        let stats = pr.stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn tampering_recoverer_is_exposed_honest_recoverer_is_not() {
        // Honest twin: crash with an unaudited tail, recover, audit — clean.
        let mut honest = deployment(FaultPlan::all_correct());
        honest.run_workload(8).unwrap();
        honest.crash_node(1);
        honest.recover_node(1).unwrap();
        honest.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        honest.drain_audits().unwrap();
        for &w in honest.witnesses_of(1) {
            assert_eq!(honest.verdict_of(w, 1), Verdict::Trusted, "witness {w}");
        }
        // Same timeline, but the recoverer rewrote its log while down: the
        // re-announced head fails replay — crash-recovery is no amnesty.
        let mut pr = deployment(FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }));
        pr.run_workload(8).unwrap();
        pr.crash_node(1);
        pr.recover_node(1).unwrap();
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.drain_audits().unwrap();
        for w in pr.correct_witnesses_of(1) {
            assert_eq!(pr.verdict_of(w, 1), Verdict::Exposed, "witness {w}");
            assert!(!pr.engine().evidence_of(w, 1).is_empty());
        }
        for node in [0u32, 2, 3] {
            for w in pr.correct_witnesses_of(node) {
                assert_ne!(pr.verdict_of(w, node), Verdict::Exposed);
            }
        }
    }

    #[test]
    fn departing_node_closes_its_audit_on_the_way_out() {
        let mut pr = deployment(FaultPlan::all_correct());
        pr.run_rounds(1, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.run_workload(8).unwrap(); // leave an unaudited tail behind
        pr.depart_node(2).unwrap();
        assert_eq!(pr.engine().member_phase(2), MemberPhase::Departed);
        let stats = pr.stats();
        assert_eq!(stats.departures, 1);
        assert!(
            stats.leave_audits > 0,
            "witnesses replayed the farewell tail"
        );
        for &w in pr.witnesses_of(2) {
            assert_eq!(pr.verdict_of(w, 2), Verdict::Trusted, "witness {w}");
        }
        // The survivors keep running; the leaver's sealed log and verdicts
        // stay with the witnesses.
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.drain_audits().unwrap();
        for &w in pr.witnesses_of(2) {
            assert_eq!(pr.verdict_of(w, 2), Verdict::Trusted, "witness {w}");
            assert!(pr.engine().evidence_of(w, 2).is_empty());
        }
        assert!(pr.cluster().stats().messages_unreachable > 0);
    }

    #[test]
    fn tampering_leaver_is_convicted_on_the_way_out() {
        let mut pr = deployment(FaultPlan::single(2, NodeFault::TamperLogEntry { seq: 0 }));
        pr.run_workload(8).unwrap();
        pr.depart_node(2).unwrap();
        for w in pr.correct_witnesses_of(2) {
            assert_eq!(pr.verdict_of(w, 2), Verdict::Exposed, "witness {w}");
            assert!(pr
                .engine()
                .evidence_of(w, 2)
                .iter()
                .any(|e| matches!(e, Misbehavior::ExecDivergence { .. })));
        }
    }

    #[test]
    fn joined_node_is_audited_from_its_base_and_ends_trusted() {
        let mut pr = deployment(FaultPlan::all_correct());
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.join_node(4).unwrap();
        assert_eq!(pr.engine().member_phase(4), MemberPhase::Active);
        assert!(!pr.witnesses_of(4).is_empty());
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(10)).unwrap();
        pr.drain_audits().unwrap();
        assert!(pr.log_len(4) > 0, "the joiner took workload traffic");
        for node in 0..5 {
            for &w in pr.witnesses_of(node) {
                assert_eq!(
                    pr.verdict_of(w, node),
                    Verdict::Trusted,
                    "witness {w} of node {node} after join"
                );
            }
        }
        assert_eq!(pr.stats().joins, 1);
    }

    #[test]
    fn piggyback_crash_rejoin_keeps_verdict_parity() {
        let mut pr = PeerReview::new(piggyback_config(2), FaultPlan::all_correct()).unwrap();
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.crash_node(3);
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.recover_node(3).unwrap();
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.drain_audits().unwrap();
        for node in 0..4 {
            for &w in pr.witnesses_of(node) {
                assert_eq!(
                    pr.verdict_of(w, node),
                    Verdict::Trusted,
                    "witness {w} of node {node}"
                );
            }
        }
    }

    #[test]
    fn challenge_retries_bound_suspicion_escalation() {
        let config = PeerReviewConfig {
            challenge_retries: 2,
            ..PeerReviewConfig::default()
        };
        let mut pr = PeerReview::new(
            config,
            FaultPlan::single(2, NodeFault::SuppressAudits { probability: 1.0 }),
        )
        .unwrap();
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(6)).unwrap();
        // Within the retry budget the silent node is still only pending —
        // the witness re-sends instead of jumping to suspicion.
        for w in pr.correct_witnesses_of(2) {
            assert_eq!(pr.verdict_of(w, 2), Verdict::Trusted, "witness {w}");
        }
        assert!(pr.stats().challenge_retries > 0);
        pr.run_rounds(4, 1, |pr, _| pr.run_workload(6)).unwrap();
        // Budget exhausted: downgraded to suspected — never exposed,
        // silence is not proof.
        for w in pr.correct_witnesses_of(2) {
            assert_eq!(pr.verdict_of(w, 2), Verdict::Suspected, "witness {w}");
            assert!(pr.engine().evidence_of(w, 2).is_empty());
        }
    }

    #[test]
    fn partition_heals_and_no_correct_node_is_ever_exposed() {
        let config = PeerReviewConfig {
            challenge_retries: 3,
            ..PeerReviewConfig::default()
        };
        let mut pr = PeerReview::new(config, FaultPlan::all_correct()).unwrap();
        pr.run_rounds(1, 1, |pr, _| pr.run_workload(8)).unwrap();
        // Cut node 1 off for audit rounds 1–2; the schedule heals at 3.
        pr.cluster_mut()
            .set_partition(PartitionSchedule::new([1], 1, 3));
        pr.run_rounds(5, 1, |pr, _| pr.run_workload(8)).unwrap();
        pr.drain_audits().unwrap();
        assert!(pr.cluster().stats().messages_partitioned > 0);
        for node in 0..4 {
            for &w in pr.witnesses_of(node) {
                assert_eq!(
                    pr.verdict_of(w, node),
                    Verdict::Trusted,
                    "witness {w} of node {node} after heal"
                );
            }
        }
    }

    // ---- scaling: sampling, link laziness ------------------------------

    fn fault_suite() -> Vec<FaultPlan> {
        vec![
            FaultPlan::all_correct(),
            FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
            FaultPlan::single(2, NodeFault::SuppressAudits { probability: 1.0 }),
            FaultPlan::single(3, NodeFault::TruncateLog { drop_tail: 4 }),
        ]
    }

    #[test]
    fn event_driven_mode_matches_dense_verdicts_and_message_counts() {
        // Link laziness is an execution detail: a deployment whose every
        // pair is connected before the first round (the dense set-up) and
        // one whose links come up on first use agree on every verdict and
        // every message count.
        for piggyback in [false, true] {
            for faults in fault_suite() {
                let config = PeerReviewConfig {
                    piggyback,
                    witness_count: if piggyback { Some(2) } else { None },
                    ..PeerReviewConfig::default()
                };
                let mut dense = PeerReview::new(config, faults.clone()).unwrap();
                for i in 0..config.nodes {
                    for j in (i + 1)..config.nodes {
                        dense.cluster_mut().connect(NodeId(i), NodeId(j)).unwrap();
                    }
                }
                dense.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();
                dense.drain_audits().unwrap();
                let mut sparse = PeerReview::new(config, faults.clone()).unwrap();
                sparse.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();
                sparse.drain_audits().unwrap();
                assert_eq!(
                    dense.verdict_census(),
                    sparse.verdict_census(),
                    "verdict parity broken: piggyback={piggyback} faults={faults:?}"
                );
                let (d, s) = (dense.stats(), sparse.stats());
                assert_eq!(d.challenges, s.challenges, "faults={faults:?}");
                assert_eq!(d.responses, s.responses, "faults={faults:?}");
                assert_eq!(d.control_messages, s.control_messages, "faults={faults:?}");
                assert_eq!(d.app_messages, s.app_messages, "faults={faults:?}");
                assert_eq!(
                    dense.cluster().stats().messages_sent,
                    sparse.cluster().stats().messages_sent,
                    "wire parity broken: piggyback={piggyback} faults={faults:?}"
                );
            }
        }
    }

    #[test]
    fn sampled_auditing_matches_full_verdicts_on_the_fault_suite() {
        for faults in fault_suite() {
            let mut full = PeerReview::new(PeerReviewConfig::default(), faults.clone()).unwrap();
            full.run_rounds(8, 1, |pr, _| pr.run_workload(8)).unwrap();
            full.drain_audits().unwrap();
            let sampled_config = PeerReviewConfig {
                audit_sample_size: Some(1),
                audit_coverage_window: 3,
                ..PeerReviewConfig::default()
            };
            let mut sampled = PeerReview::new(sampled_config, faults.clone()).unwrap();
            sampled
                .run_rounds(8, 1, |pr, _| pr.run_workload(8))
                .unwrap();
            sampled.drain_audits().unwrap();
            assert_eq!(
                full.verdict_census(),
                sampled.verdict_census(),
                "sampling changed final verdicts: faults={faults:?}"
            );
            assert!(
                sampled.stats().challenges < full.stats().challenges,
                "sampling must send fewer challenges: faults={faults:?}"
            );
        }
    }

    #[test]
    fn accountability_adds_measurable_overhead() {
        let mut pr = deployment(FaultPlan::all_correct());
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(4)).unwrap();
        let stats = pr.stats();
        assert!(stats.control_messages > 0);
        assert!(stats.control_bytes > 0);
        assert!(
            stats.control_overhead_ratio() > 1.0,
            "audit traffic dominates a small workload"
        );
        // Cluster-level counters include both traffic classes.
        assert_eq!(
            pr.cluster().stats().messages_sent,
            stats.app_messages + stats.control_messages
        );
    }
}
