//! Reproduction harness for the TNIC accountability evaluation.
//!
//! Every question this crate asks of the four accountable systems is one
//! [`Experiment`]: which app on how many nodes, the operation payload, the
//! engine configuration, the fault plan, an optional packet-level adversary,
//! a scripted churn plan, and how many rounds of how many operations are
//! audited how often. [`Experiment::run`] builds the deployment, drives it
//! through the one audit-round loop ([`Accountable::run_rounds`]) and reads
//! one [`Outcome`] off it; [`Experiment::detection_latency`] drives the same
//! run until a target node is exposed. Every run is watched by the cluster's
//! §4.4 lemma monitor. [`Outcome::check`] is the oracle: given an [`Expect`]
//! it returns one line per violated invariant — accuracy, the faulty node's
//! class and unanimity, protocol liveness, replica agreement and the
//! lemmas.
//!
//! The suites ([`scenario_suite`], [`acct_suite`], [`churn_suite`]) are lists
//! of named [`Case`]s, an experiment plus what it must show.
//! `src/bin/reproduce.rs` runs them and hands the outcomes to the named
//! gates in [`gates`] and the tables in [`report`]; `src/bin/sweep.rs`
//! writes one [`sweep_csv`] record per grid point; the parity tests compare
//! twin experiments with [`assert_verdict_parity`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod report;

use std::collections::BTreeMap;
use tnic_a2m::AccountableA2m;
use tnic_bft::{BftConfig, BftCounter};
use tnic_core::api::{Cluster, NodeId};
use tnic_core::error::CoreError;
use tnic_cr::ChainReplication;
use tnic_net::adversary::{Adversary, FaultPlan, NodeFault, PartitionSchedule};
use tnic_net::stack::NetworkStackKind;
use tnic_peerreview::audit::Verdict;
use tnic_peerreview::deployment::Accountable;
use tnic_peerreview::engine::EngineConfig;
use tnic_peerreview::stats::AccountabilityStats;
use tnic_peerreview::system::{PeerReview, PeerReviewConfig};
use tnic_peerreview::wire::Envelope;
use tnic_tee::profile::Baseline;

/// The determinism seed of every experiment that does not set its own.
const SEED: u64 = 42;

/// The commitment modes the scenario and middleware suites run in.
const MODES: [CommitMode; 3] = [
    CommitMode::Dedicated,
    CommitMode::Piggyback { witnesses: 2 },
    CommitMode::Checkpointed {
        witnesses: 2,
        interval: 1,
    },
];

/// Severity ordering of verdicts (`Trusted < Suspected < Exposed`).
fn verdict_rank(v: Verdict) -> u8 {
    match v {
        Verdict::Trusted => 0,
        Verdict::Suspected => 1,
        Verdict::Exposed => 2,
    }
}

/// The severest of `verdicts` and whether they all agree (`Trusted` and
/// unanimous when there are none).
fn judge(verdicts: impl IntoIterator<Item = Verdict>) -> (Verdict, bool) {
    let mut verdicts = verdicts.into_iter();
    let Some(first) = verdicts.next() else {
        return (Verdict::Trusted, true);
    };
    verdicts.fold((first, true), |(severest, same), v| {
        let severest = if verdict_rank(v) > verdict_rank(severest) {
            v
        } else {
            severest
        };
        (severest, same && v == first)
    })
}

/// How the commitment protocol runs: the three [`EngineConfig`] fields
/// (`piggyback`, `witness_count`, `checkpoint_interval`) a run is labelled
/// by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Dedicated announce/gossip messages to an all-to-all witness set (the
    /// classic baseline).
    Dedicated,
    /// Commitments piggybacked on existing traffic, with the given number
    /// of rotating witnesses per node.
    Piggyback {
        /// Witnesses per node (clamped to `1..=n-1` by the deployment).
        witnesses: u32,
    },
    /// Piggybacked commitments plus cosigned checkpointing: every
    /// `interval` audit rounds the audited prefix is certified and
    /// garbage-collected (bounded logs and stored commitments — the
    /// long-running deployment configuration).
    Checkpointed {
        /// Witnesses per node (clamped to `1..=n-1` by the deployment).
        witnesses: u32,
        /// Audit rounds between checkpoint rounds.
        interval: u64,
    },
}

impl CommitMode {
    /// Table/CSV label.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            CommitMode::Dedicated => "dedicated".to_string(),
            CommitMode::Piggyback { witnesses } => format!("piggyback(w={witnesses})"),
            CommitMode::Checkpointed {
                witnesses,
                interval,
            } => format!("ckpt(w={witnesses},i={interval})"),
        }
    }

    /// The default engine configuration under `seed`, in this mode.
    #[must_use]
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        let mut engine = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        self.set(&mut engine);
        engine
    }

    /// Puts `engine` in this mode, leaving every other knob as it is.
    fn set(self, engine: &mut EngineConfig) {
        (
            engine.piggyback,
            engine.witness_count,
            engine.checkpoint_interval,
        ) = match self {
            CommitMode::Dedicated => (false, None, None),
            CommitMode::Piggyback { witnesses } => (true, Some(witnesses), None),
            CommitMode::Checkpointed {
                witnesses,
                interval,
            } => (true, Some(witnesses), Some(interval)),
        };
    }
}

/// The accountable system an experiment drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// The PeerReview round-robin counter workload (the classic substrate).
    PeerReview,
    /// Accountability stacked on the BFT replicated counter (`bft-acct`).
    Bft,
    /// Accountability stacked on chain replication (`cr-acct`).
    Cr,
    /// Accountability stacked on the replicated A2M (`a2m-acct`).
    A2m,
}

impl App {
    /// Table/CSV label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            App::PeerReview => "peerreview",
            App::Bft => "bft",
            App::Cr => "cr",
            App::A2m => "a2m",
        }
    }
}

/// One scripted membership event of a [`ChurnPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// Crash-stop a node: its links are refused (and counted) while its
    /// log stays intact. For the chain-replication app this fails the
    /// replica over out of the chain.
    Crash {
        /// The crashing node.
        node: u32,
    },
    /// Recover a crashed node: restore its links and re-announce its
    /// sealed log head. For the chain-replication app the replica rejoins
    /// as the new tail.
    Recover {
        /// The recovering node.
        node: u32,
    },
    /// Join a fresh node to the running deployment (PeerReview substrate
    /// only; `id` must equal the current cluster size).
    Join {
        /// Id of the joining node.
        id: u32,
    },
    /// Gracefully depart a node: farewell commitment plus unaudited tail
    /// to its witnesses, then links down (PeerReview substrate only).
    Leave {
        /// The departing node.
        node: u32,
    },
}

/// A scripted membership/partition schedule applied between the audit
/// rounds of an [`Experiment`].
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// `(after_audit_round, action)` pairs: each action fires once that many
    /// audit rounds have completed (0 = before the first round).
    pub actions: Vec<(u64, ChurnAction)>,
    /// Partition schedule installed on the cluster before the run (its
    /// rounds count *audit* rounds).
    pub partition: Option<PartitionSchedule>,
}

/// One accountable run: any app × cluster size × payload × engine
/// configuration × fault plan, optionally behind a packet-level adversary
/// and a scripted churn plan.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The system under audit.
    pub app: App,
    /// Cluster size (BFT derives `f` from it; each system clamps to its own
    /// minimum).
    pub nodes: u32,
    /// Operation size in bytes: the PeerReview command, the BFT request
    /// context, the CR value or the A2M entry (each clamped up to its
    /// minimum).
    pub payload: usize,
    /// Every engine knob: seed, baseline, commit mode, sampling, sharding,
    /// checkpointing, challenge retries. Twin runs share the seed.
    pub engine: EngineConfig,
    /// Injected node-level Byzantine behaviours.
    pub faults: FaultPlan,
    /// Packet-level adversary installed on the delivery path.
    pub adversary: Option<Adversary>,
    /// Scripted membership churn and partition. Crash/recover is supported
    /// on the PeerReview and chain-replication substrates, join/leave on
    /// PeerReview only.
    pub churn: ChurnPlan,
    /// Workload rounds.
    pub rounds: u64,
    /// Workload rounds between audit rounds.
    pub audit_period: u64,
    /// Operations per workload round (messages for PeerReview, client
    /// operations for BFT/CR/A2M).
    pub ops_per_round: u64,
    /// Whether the run ends by draining the audit pipeline (one more audit
    /// round).
    pub drain: bool,
}

impl Experiment {
    /// A fault-free 4-node run of `app` in `mode` with the defaults twin
    /// runs share: empty payloads, 3 rounds of 8 operations, an audit round
    /// each, drained, seed 42 over TNIC.
    #[must_use]
    pub fn new(app: App, mode: CommitMode) -> Self {
        Experiment {
            app,
            nodes: 4,
            payload: 0,
            engine: mode.engine_config(SEED),
            faults: FaultPlan::all_correct(),
            adversary: None,
            churn: ChurnPlan::default(),
            rounds: 3,
            audit_period: 1,
            ops_per_round: 8,
            drain: true,
        }
    }

    /// The commitment mode the engine runs in (a checkpoint interval
    /// without piggybacking still reads `Dedicated`).
    #[must_use]
    pub fn mode(&self) -> CommitMode {
        let witnesses = self.engine.witness_count.unwrap_or(0);
        match (self.engine.piggyback, self.engine.checkpoint_interval) {
            (false, _) => CommitMode::Dedicated,
            (true, None) => CommitMode::Piggyback { witnesses },
            (true, Some(interval)) => CommitMode::Checkpointed {
                witnesses,
                interval,
            },
        }
    }

    /// Runs the experiment and reads its outcome.
    ///
    /// # Errors
    ///
    /// Propagates cluster/session errors from the run.
    ///
    /// # Panics
    ///
    /// Panics if the churn plan asks for an action the app does not
    /// support.
    pub fn run(&self) -> Result<Outcome, CoreError> {
        let (mut outcome, _) = self.execute(None)?;
        outcome.bare_time_us = self.bare_time_us()?;
        Ok(outcome)
    }

    /// Drives the experiment until every correct witness of `target` holds
    /// `Exposed` and returns the audit round that happened in. The pipeline
    /// is drained at the end whatever [`Experiment::drain`] says, the drain
    /// counting as one more audit round; `None` when the target is still not
    /// exposed after it.
    ///
    /// # Errors
    ///
    /// Propagates cluster/session errors from the run, and fails as
    /// [`Outcome::lemmas_held`] does.
    ///
    /// # Panics
    ///
    /// As [`Experiment::run`].
    pub fn detection_latency(&self, target: u32) -> Result<Option<u64>, CoreError> {
        let (outcome, latency) = self.execute(Some(target))?;
        outcome.lemmas_held()?;
        Ok(latency)
    }

    /// The BFT shape of the experiment: `f` from the cluster size, the
    /// payload as the request context.
    fn bft_config(&self) -> BftConfig {
        BftConfig {
            f: (self.nodes.max(3) - 1) / 2,
            batch_size: 1,
            request_len: self.payload,
        }
    }

    /// Builds the deployment and drives it with the app's one operation
    /// generator (sized by the payload) and its meaning of each churn
    /// action.
    fn execute(&self, target: Option<u32>) -> Result<(Outcome, Option<u64>), CoreError> {
        let (engine, faults) = (self.engine, self.faults.clone());
        let (baseline, stack, seed) = (engine.baseline, stack_for(engine.baseline), engine.seed);
        let payload = vec![0u8; self.payload];
        match self.app {
            App::PeerReview => {
                let shape = PeerReviewConfig {
                    nodes: self.nodes,
                    stack,
                    app_payload_len: self.payload,
                    ..PeerReviewConfig::default()
                };
                let mut pr = PeerReview::new(shape.with_engine(engine), faults)?;
                self.drive(
                    &mut pr,
                    target,
                    |pr, _| pr.run_workload(1).map(|()| true),
                    |pr, action| match action {
                        ChurnAction::Crash { node } => {
                            pr.crash_node(node);
                            Ok(())
                        }
                        ChurnAction::Recover { node } => pr.recover_node(node),
                        ChurnAction::Join { id } => pr.join_node(id),
                        ChurnAction::Leave { node } => pr.depart_node(node),
                    },
                    |_| true,
                )
            }
            App::Bft => {
                let config = self.bft_config();
                let mut bft =
                    BftCounter::with_accountability(baseline, stack, config, seed, engine, faults)?;
                self.drive(
                    &mut bft,
                    target,
                    |bft, _| {
                        let result = bft.client_increment()?;
                        Ok(bft.is_committed(&result))
                    },
                    |_, action| panic!("{action:?}: the BFT counter has no churn support"),
                    |bft| {
                        let value = bft.replica_value(NodeId(0));
                        (1..bft.replica_count() as u32)
                            .all(|i| bft.replica_value(NodeId(i)) == value)
                    },
                )
            }
            App::Cr => {
                let mut cr = ChainReplication::with_accountability(
                    self.nodes.max(2),
                    baseline,
                    stack,
                    seed,
                    engine,
                    faults,
                )?;
                self.drive(
                    &mut cr,
                    target,
                    |cr, op| Ok(cr.put(&op.to_le_bytes(), &payload)?.committed),
                    // Crash = fail-over out of the chain, recover = rejoin as
                    // the tail.
                    |cr, action| match action {
                        ChurnAction::Crash { node } => {
                            cr.fail_over(NodeId(node));
                            Ok(())
                        }
                        ChurnAction::Recover { node } => cr.rejoin(NodeId(node)),
                        ChurnAction::Join { .. } | ChurnAction::Leave { .. } => {
                            panic!("join/leave churn is only supported on the PeerReview substrate")
                        }
                    },
                    // A rejoined replica is not backfilled with what it
                    // missed: the replicas that served every operation agree.
                    |cr| {
                        let rejoined = |node: &NodeId| {
                            self.churn.actions.iter().any(
                                |(_, action)| matches!(action, ChurnAction::Recover { node: n } if *n == node.0),
                            )
                        };
                        let digests: Vec<[u8; 32]> = cr
                            .chain()
                            .iter()
                            .filter(|node| !rejoined(node))
                            .map(|&node| cr.store_digest(node))
                            .collect();
                        digests.windows(2).all(|w| w[0] == w[1])
                    },
                )
            }
            App::A2m => {
                let mut a2m =
                    AccountableA2m::new(self.nodes.max(2), baseline, stack, seed, engine, faults)?;
                self.drive(
                    &mut a2m,
                    target,
                    |a2m, _| Ok(a2m.append(&payload)?.committed),
                    |_, action| panic!("{action:?}: the replicated A2M has no churn support"),
                    |a2m| {
                        let head = a2m.replica_digest(NodeId(0));
                        (1..a2m.replica_count() as u32)
                            .all(|i| a2m.replica_digest(NodeId(i)) == head)
                    },
                )
            }
        }
    }

    /// The app-independent run: attaches the lemma monitor, installs the
    /// adversary and the partition schedule, then runs `rounds` rounds of
    /// `ops_per_round` calls of `op` (which reports whether the protocol
    /// committed the operation), audited every `audit_period` rounds, one
    /// audit period at a time. Between audit periods it samples the
    /// retained-memory peaks, stops once `target` is exposed, and applies the
    /// churn plan through `churn` — exactly where an operator would. Rounds
    /// past the last audit boundary run unaudited; the pipeline is drained
    /// when the experiment asks for it or a target is still unexposed.
    fn drive<D: Accountable>(
        &self,
        system: &mut D,
        target: Option<u32>,
        mut op: impl FnMut(&mut D, u64) -> Result<bool, CoreError>,
        mut churn: impl FnMut(&mut D, ChurnAction) -> Result<(), CoreError>,
        replicas_agree: impl Fn(&D) -> bool,
    ) -> Result<(Outcome, Option<u64>), CoreError> {
        let cluster = system.parts().1;
        cluster.monitor_lemmas();
        if let Some(adversary) = self.adversary.clone() {
            cluster.set_adversary(adversary, self.engine.seed ^ 0xAD5A);
        }
        if let Some(schedule) = self.churn.partition.clone() {
            cluster.set_partition(schedule);
        }
        let mut apply_churn = |system: &mut D, audit_round: u64| {
            self.churn
                .actions
                .iter()
                .filter(|(round, _)| *round == audit_round)
                .try_for_each(|&(_, action)| churn(system, action))
        };
        let exposed = |system: &D| {
            target.is_some_and(|t| {
                let engine = system.engine();
                let witnesses = engine.correct_witnesses_of(t);
                judge(witnesses.iter().map(|&w| engine.verdict_of(w, t)))
                    == (Verdict::Exposed, true)
            })
        };
        let (mut committed, mut next) = (true, 0u64);
        let mut work = |system: &mut D, _round: u64| -> Result<(), CoreError> {
            for _ in 0..self.ops_per_round {
                committed &= op(system, next)?;
                next += 1;
            }
            Ok(())
        };
        let period = self.audit_period.max(1);
        let (mut audit_rounds, mut exposed_at) = (0, None);
        let (mut peak_entries, mut peak_commitments) = (0, 0);
        apply_churn(system, 0)?;
        while audit_rounds < self.rounds / period {
            system.run_rounds(period, period, &mut work)?;
            audit_rounds += 1;
            let stats = system.engine().stats();
            peak_entries = peak_entries.max(stats.retained_log_entries);
            peak_commitments = peak_commitments.max(stats.retained_commitments);
            if exposed(system) {
                exposed_at = Some(audit_rounds);
                break;
            }
            apply_churn(system, audit_rounds)?;
        }
        if exposed_at.is_none() {
            system.run_rounds(self.rounds % period, period, &mut work)?;
            if self.drain || target.is_some() {
                system.drain_audits()?;
                audit_rounds += 1;
                exposed_at = exposed(system).then_some(audit_rounds);
            }
        }
        let replicas_agree = replicas_agree(system);
        let (engine, cluster, _) = system.parts();
        let mut verdicts = VerdictMap::new();
        let mut evidence = BTreeMap::new();
        for node in cluster.nodes().into_iter().map(|n| n.0) {
            for &w in engine.witnesses_of(node) {
                verdicts.insert((w, node), engine.verdict_of(w, node));
                let labels: Vec<&'static str> = engine
                    .evidence_of(w, node)
                    .iter()
                    .map(|e| e.label())
                    .collect();
                if !labels.is_empty() {
                    evidence.insert((w, node), labels);
                }
            }
        }
        let transport = cluster.stats();
        let lemmas = cluster.lemmas().expect("attached at the start of the run");
        let outcome = Outcome {
            byzantine: engine.faults().byzantine_nodes(),
            verdicts,
            evidence,
            stats: engine.stats(),
            messages_sent: transport.messages_sent,
            messages_rejected: transport.messages_rejected,
            messages_unreachable: transport.messages_unreachable,
            messages_partitioned: transport.messages_partitioned,
            messages_audit: transport.messages_audit,
            virtual_time_us: cluster.now().as_micros(),
            bare_time_us: None,
            audit_rounds,
            committed,
            replicas_agree,
            peak_retained_entries: peak_entries,
            peak_retained_commitments: peak_commitments,
            lemma_violations: lemmas.violations().to_vec(),
            trace_hash: lemmas.trace_hash(),
        };
        Ok((outcome, exposed_at))
    }

    /// Virtual time of the experiment's operations on the same system with
    /// no engine attached (and no faults, churn or adversary) — the
    /// denominator of accountability's time overhead. `None` for
    /// PeerReview, which has no engine-free form.
    fn bare_time_us(&self) -> Result<Option<u64>, CoreError> {
        let (baseline, seed) = (self.engine.baseline, self.engine.seed);
        let stack = stack_for(baseline);
        let ops = self.rounds * self.ops_per_round;
        let payload = vec![0u8; self.payload];
        let now = match self.app {
            App::PeerReview => return Ok(None),
            App::Bft => {
                let mut bft = BftCounter::new(baseline, stack, self.bft_config(), seed)?;
                for _ in 0..ops {
                    bft.client_increment()?;
                }
                bft.now()
            }
            App::Cr => {
                let mut cr = ChainReplication::new(self.nodes.max(2), baseline, stack, seed)?;
                for op in 0..ops {
                    cr.put(&op.to_le_bytes(), &payload)?;
                }
                cr.now()
            }
            App::A2m => {
                // Identical replication traffic on a bare cluster.
                let mut cluster =
                    Cluster::fully_connected(self.nodes.max(2), baseline, stack, seed);
                let replicas = cluster.nodes();
                let wire = Envelope::App(tnic_a2m::append_command(&payload)).encode();
                for _ in 0..ops {
                    for &replica in &replicas[1..] {
                        cluster.auth_send(replicas[0], replica, &wire)?;
                        cluster.poll(replica)?;
                    }
                }
                cluster.now()
            }
        };
        Ok(Some(now.as_micros()))
    }
}

/// The network stack an attestation baseline is evaluated over.
fn stack_for(baseline: Baseline) -> NetworkStackKind {
    if baseline == Baseline::Tnic {
        NetworkStackKind::Tnic
    } else {
        NetworkStackKind::DrctIo
    }
}

/// `(witness, node) → verdict` over a run's *final* witness sets.
pub type VerdictMap = BTreeMap<(u32, u32), Verdict>;

/// The observable outcome of one [`Experiment`]: what every summary row,
/// gate, CSV record and twin comparison in this crate is computed from.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Byzantine node ids under the run's fault plan.
    pub byzantine: Vec<u32>,
    /// `(witness, node) → verdict` over the final witness sets.
    pub verdicts: VerdictMap,
    /// `(witness, node) → misbehaviour labels` of the evidence held.
    pub evidence: BTreeMap<(u32, u32), Vec<&'static str>>,
    /// The run's accountability counters.
    pub stats: AccountabilityStats,
    /// Messages the cluster transport sent.
    pub messages_sent: u64,
    /// Messages the cluster transport rejected (duplicates, tampering).
    pub messages_rejected: u64,
    /// Sends refused because an endpoint was crashed or departed.
    pub messages_unreachable: u64,
    /// Sends refused by an open partition cut.
    pub messages_partitioned: u64,
    /// Audit wire messages among `messages_sent`.
    pub messages_audit: u64,
    /// Total virtual time of the run in microseconds.
    pub virtual_time_us: u64,
    /// Virtual time of the same operations with no engine attached (BFT /
    /// CR / A2M; `None` for PeerReview).
    pub bare_time_us: Option<u64>,
    /// Audit rounds the run went through (the drain counts as one).
    pub audit_rounds: u64,
    /// Whether the protocol committed every operation (the injected
    /// log-level faults must not break the dataflow).
    pub committed: bool,
    /// Whether every replica ended with the same application state.
    pub replicas_agree: bool,
    /// Maximum retained log entries (across all nodes) seen at an audit
    /// boundary.
    pub peak_retained_entries: u64,
    /// Maximum stored witness commitments seen at an audit boundary.
    pub peak_retained_commitments: u64,
    /// The first §4.4 lemma violations the cluster's monitor observed
    /// (empty: every lemma held on every message of the run).
    pub lemma_violations: Vec<String>,
    /// The lemma monitor's hash of every action fact of the run, in order
    /// (see `LemmaMonitor::trace_hash`).
    pub trace_hash: [u8; 32],
}

/// What a run must show: the invariants [`Outcome::check`] applies beyond
/// accuracy, which always holds.
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// The faulty node and the verdict its correct witnesses must reach —
    /// the severest one among them, since exposure evidence can be local
    /// (`None` = no faulty node to classify).
    pub faulty: Option<(u32, Verdict)>,
    /// Whether every correct witness of the faulty node must hold that
    /// verdict.
    pub unanimous: bool,
    /// Correct nodes that end the run down for good (failed over, never
    /// recovered): they may stay `Suspected` — silence is never proof — but
    /// must never be `Exposed`.
    pub may_suspect: Vec<u32>,
}

impl Outcome {
    /// `witness`'s verdict on `node` ([`Verdict::Trusted`] if the pair is
    /// not in the final witness relation).
    #[must_use]
    pub fn verdict_of(&self, witness: u32, node: u32) -> Verdict {
        self.verdicts
            .get(&(witness, node))
            .copied()
            .unwrap_or(Verdict::Trusted)
    }

    /// The evidence labels `witness` holds against `node`.
    #[must_use]
    pub fn evidence_of(&self, witness: u32, node: u32) -> &[&'static str] {
        self.evidence
            .get(&(witness, node))
            .map_or(&[], Vec::as_slice)
    }

    /// The witnesses of `node` that are correct under the fault plan.
    #[must_use]
    pub fn correct_witnesses_of(&self, node: u32) -> Vec<u32> {
        self.verdicts
            .keys()
            .filter(|&&(w, n)| n == node && !self.byzantine.contains(&w))
            .map(|&(w, _)| w)
            .collect()
    }

    /// `count` per node of an `nodes`-node deployment per audit round the
    /// run went through.
    #[must_use]
    pub fn per_node_round(&self, count: u64, nodes: u32) -> f64 {
        let node_rounds = u64::from(nodes) * self.audit_rounds;
        if node_rounds == 0 {
            0.0
        } else {
            count as f64 / node_rounds as f64
        }
    }

    /// **The oracle**: one line per invariant the run violates — accuracy
    /// (every correct node `Trusted` at every correct witness, bar
    /// [`Expect::may_suspect`]), the faulty node's class (and unanimity
    /// where required), protocol liveness, replica agreement and the §4.4
    /// lemmas. Empty = the run shows everything `expect` asks for.
    #[must_use]
    pub fn check(&self, expect: &Expect) -> Vec<String> {
        let mut violations = self.accuracy(&expect.may_suspect);
        if let Some((node, class)) = expect.faulty {
            let (verdict, unanimous) = self.judge(node);
            if verdict != class || (expect.unanimous && !unanimous) {
                violations.push(format!(
                    "node {node}: expected {}, got {}{}",
                    class.label(),
                    verdict.label(),
                    if unanimous { "" } else { " (split)" }
                ));
            }
        }
        if !self.committed {
            violations.push("an operation never committed: the protocol lost liveness".to_string());
        }
        if !self.replicas_agree {
            violations.push("replicas diverged".to_string());
        }
        if let Err(err) = self.lemmas_held() {
            violations.push(err.to_string());
        }
        violations
    }

    /// Whether the §4.4 lemmas held on every message of the run.
    ///
    /// # Errors
    ///
    /// [`CoreError::PropertyViolation`] naming the first violations.
    pub fn lemmas_held(&self) -> Result<(), CoreError> {
        if self.lemma_violations.is_empty() {
            Ok(())
        } else {
            Err(CoreError::PropertyViolation(format!(
                "§4.4 lemmas: {}",
                self.lemma_violations.join("; ")
            )))
        }
    }

    /// The accuracy half of [`Outcome::check`]: one line per correct pair
    /// whose verdict is worse than `Trusted` (worse than `Suspected` for a
    /// node in `may_suspect`).
    pub(crate) fn accuracy(&self, may_suspect: &[u32]) -> Vec<String> {
        self.correct_pairs()
            .filter(|&((_, n), v)| {
                v == Verdict::Exposed || (v == Verdict::Suspected && !may_suspect.contains(&n))
            })
            .map(|((w, n), v)| format!("witness {w} holds {} on correct node {n}", v.label()))
            .collect()
    }

    /// The verdicts correct witnesses hold on correct nodes.
    fn correct_pairs(&self) -> impl Iterator<Item = ((u32, u32), Verdict)> + '_ {
        self.verdicts
            .iter()
            .filter(|(&(w, n), _)| !self.byzantine.contains(&w) && !self.byzantine.contains(&n))
            .map(|(&pair, &v)| (pair, v))
    }

    /// The severest verdict the correct witnesses of `node` hold and
    /// whether they all agree.
    fn judge(&self, node: u32) -> (Verdict, bool) {
        judge(
            self.correct_witnesses_of(node)
                .into_iter()
                .map(|w| self.verdict_of(w, node)),
        )
    }

    /// The run's summary verdict under `expect` and whether the witnesses
    /// behind it agree: on the faulty node, its correct witnesses'
    /// severest; without one, the severest any correct witness holds on a
    /// correct node outside [`Expect::may_suspect`].
    pub(crate) fn summary(&self, expect: &Expect) -> (Verdict, bool) {
        match expect.faulty {
            Some((node, _)) => self.judge(node),
            None => {
                let worst = judge(
                    self.correct_pairs()
                        .filter(|((_, n), _)| !expect.may_suspect.contains(n))
                        .map(|(_, v)| v),
                );
                (worst.0, true)
            }
        }
    }
}

/// A named experiment and what its outcome must show.
#[derive(Debug, Clone)]
pub struct Case {
    /// Display name.
    pub name: &'static str,
    /// The run.
    pub experiment: Experiment,
    /// What [`Outcome::check`] must find.
    pub expect: Expect,
}

impl Case {
    /// `name [baseline / mode]`, the label of gate and error lines.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} [{} / {}]",
            self.name,
            self.experiment.engine.baseline.label(),
            self.experiment.mode().label()
        )
    }
}

/// Each case once per mode of `modes`, case-major.
fn in_modes(cases: Vec<Case>, modes: &[CommitMode]) -> Vec<Case> {
    cases
        .into_iter()
        .flat_map(|case| {
            modes.iter().map(move |mode| {
                let mut case = case.clone();
                mode.set(&mut case.experiment.engine);
                case
            })
        })
        .collect()
}

/// The classification the correct witnesses must reach on a node showing
/// `fault`. Witness-side omissions (false suspicion, withheld gossip,
/// relays or cosignatures, silent audits) are not provable — the liar
/// behaves correctly as an *auditee* — so those expect `trusted`; a forged
/// accusation, by contrast, is itself evidence against its author.
fn expected_class(fault: NodeFault) -> Verdict {
    match fault {
        NodeFault::Correct
        | NodeFault::FalseSuspicion
        | NodeFault::WithholdGossip
        | NodeFault::RefuseRelay
        | NodeFault::SilentWitness
        | NodeFault::WithholdCosignatures
        | NodeFault::ForgeCosignatures => Verdict::Trusted,
        NodeFault::SuppressAudits { .. } => Verdict::Suspected,
        NodeFault::Equivocate
        | NodeFault::TruncateLog { .. }
        | NodeFault::TamperLogEntry { .. }
        | NodeFault::ForgeEvidence => Verdict::Exposed,
    }
}

/// The PeerReview fault-injection suite over `baseline`: one fault-free
/// control run plus one case per Byzantine behaviour class — including the
/// audit-side Byzantine *witness* behaviours (forged evidence, false
/// suspicion, withheld gossip/relays, silent audits) — each on 4 nodes,
/// 3 undrained rounds × 8 messages, in every commit mode. A `ForgeEvidence`
/// accuser is convicted only by the witnesses that *received* its forged
/// accusation, so that case does not require unanimity.
#[must_use]
pub fn scenario_suite(baseline: Baseline) -> Vec<Case> {
    let case = |name, node, fault: NodeFault| {
        let mut experiment = Experiment {
            faults: FaultPlan::single(node, fault),
            drain: false,
            ..Experiment::new(App::PeerReview, CommitMode::Dedicated)
        };
        experiment.engine.baseline = baseline;
        Case {
            name,
            experiment,
            expect: Expect {
                faulty: fault.is_byzantine().then(|| (node, expected_class(fault))),
                unanimous: fault != NodeFault::ForgeEvidence,
                may_suspect: Vec::new(),
            },
        }
    };
    let cases = vec![
        case("fault-free", 0, NodeFault::Correct),
        case("equivocation", 1, NodeFault::Equivocate),
        case(
            "suppression",
            2,
            NodeFault::SuppressAudits { probability: 1.0 },
        ),
        case("log-truncation", 3, NodeFault::TruncateLog { drop_tail: 5 }),
        case("exec-tampering", 1, NodeFault::TamperLogEntry { seq: 0 }),
        case("forge-evidence", 1, NodeFault::ForgeEvidence),
        case("false-suspicion", 2, NodeFault::FalseSuspicion),
        case("withhold-gossip", 1, NodeFault::WithholdGossip),
        case("refuse-relay", 2, NodeFault::RefuseRelay),
        case("silent-witness", 3, NodeFault::SilentWitness),
    ];
    in_modes(cases, &MODES)
}

/// The `bft-acct`/`cr-acct`/`a2m-acct` suite: per application a fault-free
/// control run plus one Byzantine node — an equivocating BFT replica, a
/// tail-tampering chain node and a log-rewriting A2M replica, each of which
/// the witnesses must unanimously *expose* with verifiable evidence (the
/// protocols alone only tolerate/detect). 3 nodes, 3 drained rounds × 4
/// client operations, in every commit mode.
#[must_use]
pub fn acct_suite() -> Vec<Case> {
    let case = |app, name, fault: Option<(u32, NodeFault)>| Case {
        name,
        experiment: Experiment {
            nodes: 3,
            ops_per_round: 4,
            faults: fault.map_or_else(FaultPlan::all_correct, |(node, fault)| {
                FaultPlan::single(node, fault)
            }),
            ..Experiment::new(app, CommitMode::Dedicated)
        },
        expect: Expect {
            faulty: fault.map(|(node, _)| (node, Verdict::Exposed)),
            unanimous: true,
            may_suspect: Vec::new(),
        },
    };
    let tamper = NodeFault::TamperLogEntry { seq: 0 };
    let cases = vec![
        case(App::Bft, "bft-acct/fault-free", None),
        case(
            App::Bft,
            "bft-acct/equivocation",
            Some((1, NodeFault::Equivocate)),
        ),
        case(App::Cr, "cr-acct/fault-free", None),
        case(App::Cr, "cr-acct/tail-tampering", Some((2, tamper))),
        case(App::A2m, "a2m-acct/fault-free", None),
        case(App::A2m, "a2m-acct/log-rewriting", Some((1, tamper))),
    ];
    in_modes(cases, &MODES)
}

/// The membership-churn suite: crash-rejoin (honest and tampering),
/// partition-heal, join, leave (honest and tampering) on the PeerReview
/// substrate, plus head/middle/tail fail-over and fail-over-rejoin for the
/// chain-replication app, in the dedicated and piggybacked modes. Each
/// case's `rounds` is the round by which every churn action has fired and
/// any partition has healed: the settle delay counts audit rounds beyond
/// it until [`Outcome::check`] passes.
#[must_use]
pub fn churn_suite() -> Vec<Case> {
    let pr = |name, faults: FaultPlan, actions, rounds| Case {
        name,
        expect: Expect {
            faulty: faults
                .byzantine_nodes()
                .first()
                .map(|&node| (node, Verdict::Exposed)),
            unanimous: true,
            may_suspect: Vec::new(),
        },
        experiment: Experiment {
            faults,
            churn: ChurnPlan {
                actions,
                partition: None,
            },
            rounds,
            ..Experiment::new(App::PeerReview, CommitMode::Dedicated)
        },
    };
    // The failed-over replica never recovers: its witnesses may keep it
    // suspected (silence is not proof) but never exposed.
    let cr_failover = |name, node| Case {
        name,
        experiment: Experiment {
            nodes: 3,
            churn: ChurnPlan {
                actions: vec![(1, ChurnAction::Crash { node })],
                partition: None,
            },
            rounds: 2,
            ..Experiment::new(App::Cr, CommitMode::Dedicated)
        },
        expect: Expect {
            may_suspect: vec![node],
            ..Expect::default()
        },
    };
    let crash_rejoin = vec![
        (1, ChurnAction::Crash { node: 1 }),
        (2, ChurnAction::Recover { node: 1 }),
    ];
    let tamper = |node| FaultPlan::single(node, NodeFault::TamperLogEntry { seq: 0 });
    let leave = vec![(2, ChurnAction::Leave { node: 2 })];
    let mut partition_heal = pr("churn/partition-heal", FaultPlan::all_correct(), vec![], 4);
    partition_heal.experiment.churn.partition = Some(PartitionSchedule::new([1], 1, 3));
    partition_heal.experiment.engine.challenge_retries = 3;
    let mut failover_rejoin = cr_failover("churn/cr-failover-rejoin", 1);
    failover_rejoin
        .experiment
        .churn
        .actions
        .push((2, ChurnAction::Recover { node: 1 }));
    failover_rejoin.experiment.rounds = 3;
    failover_rejoin.expect.may_suspect.clear();
    let cases = vec![
        pr(
            "churn/crash-rejoin",
            FaultPlan::all_correct(),
            crash_rejoin.clone(),
            3,
        ),
        pr("churn/crash-rejoin-tamper", tamper(1), crash_rejoin, 3),
        partition_heal,
        pr(
            "churn/join",
            FaultPlan::all_correct(),
            vec![(1, ChurnAction::Join { id: 4 })],
            3,
        ),
        pr("churn/leave", FaultPlan::all_correct(), leave.clone(), 3),
        pr("churn/leave-tamper", tamper(2), leave, 3),
        cr_failover("churn/cr-failover-head", 0),
        cr_failover("churn/cr-failover-middle", 1),
        cr_failover("churn/cr-failover-tail", 2),
        failover_rejoin,
    ];
    in_modes(cases, &MODES[..2])
}

// ---- the sweep CSV ----------------------------------------------------------

/// Header line of the sweep CSV.
pub const SWEEP_CSV_HEADER: &str = "app,mode,payload_bytes,nodes,witnesses,audit_period,\
checkpoint_interval,rounds,messages_per_round,app_msgs,ctl_msgs,ctl_per_app,piggybacked,\
challenges,log_entries,retained_entries,retained_bytes,audit_p50_us,audit_p99_us,app_p50_us,\
virt_time_us,exposure_latency_rounds,churn_rate,partition_rounds,audit_sample_size,shards,\
audit_msgs_per_node_round,detection_latency_rounds,log_app_entries,log_ctl_entries,\
log_audit_entries,replayed_entries,replayed_per_node_round";

/// `field` as an RFC 4180 CSV field: quoted (with inner quotes doubled) when
/// it contains a comma, a quote or a line break, unchanged otherwise.
fn csv_field(field: &str) -> std::borrow::Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\"")).into()
    } else {
        field.into()
    }
}

/// The CSV record (matching [`SWEEP_CSV_HEADER`]) of a fault-free sweep
/// run of `experiment`, with the detection latencies of its seq-0 log
/// tamperer twins: `exposure_latency` under full auditing, `detection_latency`
/// under the experiment's own sampling (`None` prints as `-`). The
/// `churn_rate` column is the crash count per audit round, `audit_msgs` and
/// `replayed` are per node per audit round the run went through.
#[must_use]
pub fn sweep_csv(
    experiment: &Experiment,
    outcome: &Outcome,
    exposure_latency: Option<u64>,
    detection_latency: Option<u64>,
) -> String {
    let dash = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    let (exp, stats) = (experiment, &outcome.stats);
    let crashes = exp
        .churn
        .actions
        .iter()
        .filter(|(_, action)| matches!(action, ChurnAction::Crash { .. }))
        .count();
    let churn_rate = crashes as f64 / (exp.rounds / exp.audit_period.max(1)).max(1) as f64;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{:.4},{},{},{},{},{},{:.1},{:.1},{:.1},{},{},{:.2},{},{},{},{:.2},{},{},{},{},{},{:.2}",
        exp.app.label(),
        csv_field(&exp.mode().label()),
        exp.payload,
        exp.nodes,
        outcome.verdicts.keys().filter(|&&(_, n)| n == 0).count(),
        exp.audit_period,
        dash(exp.engine.checkpoint_interval),
        exp.rounds,
        exp.ops_per_round,
        stats.app_messages,
        stats.control_messages,
        stats.control_overhead_ratio(),
        stats.piggybacked_commitments,
        stats.challenges,
        stats.log_entries,
        stats.retained_log_entries,
        stats.retained_log_bytes,
        stats.audit_latency.percentile_us(0.5),
        stats.audit_latency.percentile_us(0.99),
        stats.app_latency.percentile_us(0.5),
        outcome.virtual_time_us,
        dash(exposure_latency),
        churn_rate,
        exp.churn
            .partition
            .as_ref()
            .map_or(0, PartitionSchedule::outage_rounds),
        dash(exp.engine.audit_sample_size.map(u64::from)),
        exp.engine.shards.max(1),
        outcome.per_node_round(stats.audit_messages, exp.nodes),
        dash(detection_latency),
        stats.log_app_payload_entries,
        stats.log_control_digest_entries,
        stats.log_audit_digest_entries,
        stats.entries_replayed,
        outcome.per_node_round(stats.entries_replayed, exp.nodes)
    )
}

// ---- twin comparison ---------------------------------------------------------

/// Every `(witness, node)` verdict divergence between a run and its twin,
/// formatted for assertion messages (empty = exact parity). Pairs present
/// in only one run (rotation can change the final witness relation) are
/// compared against `Trusted`.
#[must_use]
pub fn verdict_divergences(subject: &Outcome, twin: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    let pairs: std::collections::BTreeSet<(u32, u32)> = subject
        .verdicts
        .keys()
        .chain(twin.verdicts.keys())
        .copied()
        .collect();
    for (w, n) in pairs {
        let a = subject.verdict_of(w, n);
        let b = twin.verdict_of(w, n);
        if a != b {
            out.push(format!(
                "witness {w} of node {n}: {} vs twin {}",
                a.label(),
                b.label()
            ));
        }
    }
    out
}

/// Asserts exact verdict parity between a run and its twin.
///
/// # Panics
///
/// Panics with the divergence list when any `(witness, node)` verdict
/// differs.
pub fn assert_verdict_parity(subject: &Outcome, twin: &Outcome, context: &str) {
    let divergences = verdict_divergences(subject, twin);
    assert!(
        divergences.is_empty(),
        "{context}: verdicts diverge from the twin:\n  {}",
        divergences.join("\n  ")
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The shape of a hand-built `(Case, Outcome)` row.
    pub(crate) struct Fixture {
        pub(crate) name: &'static str,
        pub(crate) mode: CommitMode,
        /// The faulty node (Byzantine in the outcome) and its expected class.
        pub(crate) faulty: Option<(u32, Verdict)>,
    }

    impl Default for Fixture {
        fn default() -> Self {
            Fixture {
                name: "fault-free",
                mode: CommitMode::Dedicated,
                faulty: None,
            }
        }
    }

    /// A 4-node row where every witness trusts every node and nothing else
    /// happened; tests edit the outcome to break one invariant at a time.
    pub(crate) fn fixture(f: Fixture) -> (Case, Outcome) {
        let byzantine: Vec<u32> = f.faulty.iter().map(|&(node, _)| node).collect();
        let mut experiment = Experiment::new(App::PeerReview, f.mode);
        if let Some(&node) = byzantine.first() {
            experiment.faults = FaultPlan::single(node, NodeFault::Equivocate);
        }
        let verdicts = (0..4u32)
            .flat_map(|n| (0..4).filter(move |&w| w != n).map(move |w| (w, n)))
            .map(|pair| (pair, Verdict::Trusted))
            .collect();
        let case = Case {
            name: f.name,
            experiment,
            expect: Expect {
                faulty: f.faulty,
                unanimous: true,
                may_suspect: Vec::new(),
            },
        };
        let outcome = Outcome {
            byzantine,
            verdicts,
            evidence: BTreeMap::new(),
            stats: AccountabilityStats::default(),
            messages_sent: 0,
            messages_rejected: 0,
            messages_unreachable: 0,
            messages_partitioned: 0,
            messages_audit: 0,
            virtual_time_us: 0,
            bare_time_us: None,
            audit_rounds: 0,
            committed: true,
            replicas_agree: true,
            peak_retained_entries: 0,
            peak_retained_commitments: 0,
            lemma_violations: Vec::new(),
            trace_hash: [0; 32],
        };
        (case, outcome)
    }

    /// The `name` case of `suite` in `mode`.
    fn case(suite: Vec<Case>, name: &str, mode: CommitMode) -> Case {
        suite
            .into_iter()
            .find(|c| c.name == name && c.experiment.mode() == mode)
            .unwrap_or_else(|| panic!("{name} in {}", mode.label()))
    }

    const PIGGYBACK: CommitMode = CommitMode::Piggyback { witnesses: 2 };

    /// A seq-0 log tamperer at `node`.
    fn tamperer(node: u32) -> FaultPlan {
        FaultPlan::single(node, NodeFault::TamperLogEntry { seq: 0 })
    }

    /// `column` of a sweep CSV record.
    fn column(record: &str, column: &str) -> String {
        let headers: Vec<&str> = SWEEP_CSV_HEADER.split(',').collect();
        let fields: Vec<&str> = record.split(',').collect();
        assert_eq!(fields.len(), headers.len(), "row matches header arity");
        fields[headers.iter().position(|h| *h == column).unwrap()].to_string()
    }

    #[test]
    fn check_flags_a_correct_node_that_lost_its_clean_record() {
        let (case, mut outcome) = fixture(Fixture::default());
        assert!(outcome.check(&case.expect).is_empty());
        outcome.verdicts.insert((2, 3), Verdict::Suspected);
        assert_eq!(
            outcome.check(&case.expect),
            ["witness 2 holds suspected on correct node 3"]
        );
        // A Byzantine witness's opinion never counts against accuracy.
        let (case, mut outcome) = fixture(Fixture {
            faulty: Some((1, Verdict::Trusted)),
            ..Fixture::default()
        });
        outcome.verdicts.insert((1, 3), Verdict::Exposed);
        assert!(outcome.check(&case.expect).is_empty());
    }

    #[test]
    fn check_flags_an_under_classified_faulty_node() {
        let (case, mut outcome) = fixture(Fixture {
            faulty: Some((1, Verdict::Exposed)),
            ..Fixture::default()
        });
        outcome.verdicts.insert((0, 1), Verdict::Suspected);
        assert_eq!(
            outcome.check(&case.expect),
            ["node 1: expected exposed, got suspected (split)"]
        );
        for w in [0, 2, 3] {
            outcome.verdicts.insert((w, 1), Verdict::Exposed);
        }
        assert!(outcome.check(&case.expect).is_empty());
    }

    #[test]
    fn check_flags_a_split_unless_the_case_waives_unanimity() {
        let (mut case, mut outcome) = fixture(Fixture {
            faulty: Some((1, Verdict::Exposed)),
            ..Fixture::default()
        });
        outcome.verdicts.insert((2, 1), Verdict::Exposed);
        assert_eq!(
            outcome.check(&case.expect),
            ["node 1: expected exposed, got exposed (split)"]
        );
        assert_eq!(outcome.summary(&case.expect), (Verdict::Exposed, false));
        case.expect.unanimous = false;
        assert!(outcome.check(&case.expect).is_empty());
    }

    #[test]
    fn check_lets_a_down_node_stay_suspected_but_never_exposed() {
        let (mut case, mut outcome) = fixture(Fixture::default());
        case.expect.may_suspect = vec![2];
        outcome.verdicts.insert((0, 2), Verdict::Suspected);
        assert!(outcome.check(&case.expect).is_empty());
        outcome.verdicts.insert((1, 2), Verdict::Exposed);
        assert_eq!(
            outcome.check(&case.expect),
            ["witness 1 holds exposed on correct node 2"]
        );
        outcome.committed = false;
        outcome.replicas_agree = false;
        outcome.lemma_violations = vec!["non-equivocation: a duplicate".to_string(); 2];
        let violations = outcome.check(&case.expect);
        assert_eq!(violations.len(), 4);
        assert_eq!(
            violations[3],
            "property violation: §4.4 lemmas: non-equivocation: a duplicate; \
             non-equivocation: a duplicate"
        );
    }

    #[test]
    fn same_experiment_same_outcome() {
        let mut experiments = Vec::new();
        for app in [App::PeerReview, App::Bft, App::Cr, App::A2m] {
            for mode in MODES {
                experiments.push(Experiment {
                    nodes: 3,
                    ops_per_round: 4,
                    faults: tamperer(1),
                    ..Experiment::new(app, mode)
                });
            }
        }
        experiments.push(Experiment {
            faults: FaultPlan::single(2, NodeFault::Equivocate),
            adversary: Some(Adversary::Drop { probability: 0.2 }),
            ..Experiment::new(App::PeerReview, PIGGYBACK)
        });
        experiments.push(case(churn_suite(), "churn/cr-failover-rejoin", PIGGYBACK).experiment);
        for experiment in experiments {
            let first = experiment.run().unwrap();
            assert!(first.lemma_violations.is_empty(), "{experiment:?}");
            let second = format!("{:?}", experiment.run().unwrap());
            assert_eq!(format!("{first:?}"), second, "{experiment:?}");
        }
        // The trace hash pins event order, not nothing: a node that drops
        // each audit with probability ½ draws its choices from the seed, so
        // another seed runs another trace.
        let run = |seed| {
            let mut experiment = Experiment {
                faults: FaultPlan::single(2, NodeFault::SuppressAudits { probability: 0.5 }),
                ..Experiment::new(App::PeerReview, PIGGYBACK)
            };
            experiment.engine.seed = seed;
            experiment.run().unwrap().trace_hash
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn undrained_rows_divide_by_the_audit_rounds_that_ran() {
        // The first row of `BENCH_sweep.csv`: dedicated, n = 4, w = 3, four
        // undrained audit rounds, 48 challenges + 48 responses.
        let experiment = Experiment {
            payload: 4,
            rounds: 4,
            drain: false,
            ..Experiment::new(App::PeerReview, CommitMode::Dedicated)
        };
        let outcome = experiment.run().unwrap();
        assert_eq!(outcome.audit_rounds, 4);
        assert_eq!(outcome.stats.audit_messages, 96);
        let record = sweep_csv(&experiment, &outcome, None, None);
        assert_eq!(column(&record, "audit_msgs_per_node_round"), "6.00");
        // The drain is one more audit round.
        let drained = Experiment {
            drain: true,
            ..experiment
        };
        assert_eq!(drained.run().unwrap().audit_rounds, 5);
    }

    #[test]
    fn suite_covers_every_fault_class_once() {
        let suite: Vec<Case> = scenario_suite(Baseline::Tnic)
            .into_iter()
            .filter(|c| c.experiment.mode() == CommitMode::Dedicated)
            .collect();
        assert_eq!(suite.len(), 10);
        assert_eq!(scenario_suite(Baseline::Tnic).len(), 10 * MODES.len());
        let fault = |c: &Case| {
            let nodes = c.experiment.faults.byzantine_nodes();
            nodes.first().map(|&n| c.experiment.faults.fault_of(n))
        };
        assert_eq!(
            suite.iter().filter(|c| fault(c).is_none()).count(),
            1,
            "exactly one control run"
        );
        let witness_faults: Vec<&Case> = suite
            .iter()
            .filter(|c| {
                matches!(
                    fault(c),
                    Some(
                        NodeFault::ForgeEvidence
                            | NodeFault::FalseSuspicion
                            | NodeFault::WithholdGossip
                            | NodeFault::RefuseRelay
                            | NodeFault::SilentWitness
                            | NodeFault::WithholdCosignatures
                            | NodeFault::ForgeCosignatures
                    )
                )
            })
            .collect();
        assert_eq!(
            witness_faults.len(),
            5,
            "every audit-side witness fault has a row"
        );
        // Only the forging accuser is provable among the witness faults, and
        // only its case waives unanimity.
        for c in witness_faults {
            let forger = fault(c) == Some(NodeFault::ForgeEvidence);
            let class = if forger {
                Verdict::Exposed
            } else {
                Verdict::Trusted
            };
            assert_eq!(c.expect.faulty.map(|f| f.1), Some(class), "{}", c.name);
            assert_eq!(c.expect.unanimous, !forger, "{}", c.name);
        }
    }

    #[test]
    fn scenario_runner_classifies_equivocation() {
        let case = case(
            scenario_suite(Baseline::Tnic),
            "equivocation",
            CommitMode::Dedicated,
        );
        let outcome = case.experiment.run().unwrap();
        assert!(outcome.check(&case.expect).is_empty());
        assert_eq!(outcome.summary(&case.expect), (Verdict::Exposed, true));
        assert!(outcome.stats.control_messages > 0);
    }

    #[test]
    fn every_fault_scenario_keeps_its_verdict_in_both_commit_modes() {
        for case in scenario_suite(Baseline::Tnic) {
            let outcome = case.experiment.run().unwrap();
            let violations = outcome.check(&case.expect);
            assert!(violations.is_empty(), "{}: {violations:?}", case.label());
        }
    }

    #[test]
    fn every_baseline_reads_its_pinned_virtual_time() {
        // `BENCH_report.json` commits TNIC rows only; this pins what the
        // five host baselines charge for the same two runs, to the µs.
        let pinned = [
            (Baseline::SslLib, 1_273, 1_189),
            (Baseline::SslServerIntel, 2_753, 2_591),
            (Baseline::SslServerAmd, 5_765, 5_441),
            (Baseline::Sgx, 8_166, 7_721),
            (Baseline::AmdSev, 15_786, 14_981),
            (Baseline::Tnic, 2_636, 2_454),
        ];
        for (baseline, fault_free_us, exec_tampering_us) in pinned {
            for (name, virtual_time_us, control, replayed) in [
                ("fault-free", fault_free_us, 40, 104),
                ("exec-tampering", exec_tampering_us, 36, 90),
            ] {
                let run = case(scenario_suite(baseline), name, PIGGYBACK)
                    .experiment
                    .run()
                    .unwrap();
                assert_eq!(run.virtual_time_us, virtual_time_us, "{name} on {baseline}");
                // The baseline moves the clock and nothing else.
                assert_eq!(run.stats.control_messages, control, "{name} on {baseline}");
                assert_eq!(run.stats.entries_replayed, replayed, "{name} on {baseline}");
            }
        }
    }

    #[test]
    fn relay_refusing_witness_costs_bounded_detection_latency() {
        let probe = |faults| {
            Experiment {
                faults,
                rounds: 8,
                ..Experiment::new(App::PeerReview, PIGGYBACK)
            }
            .detection_latency(1)
            .unwrap()
        };
        let baseline = probe(tamperer(1)).expect("tamperer exposed on a clean witness set");
        for witness_fault in [
            NodeFault::WithholdGossip,
            NodeFault::RefuseRelay,
            NodeFault::SilentWitness,
        ] {
            let mut faults = tamperer(1);
            faults.set(2, witness_fault);
            let delayed = probe(faults)
                .unwrap_or_else(|| panic!("{witness_fault:?} must not prevent exposure"));
            assert!(
                delayed <= baseline + 2,
                "{witness_fault:?}: latency {delayed} rounds vs baseline {baseline} — \
                 the rotation bound is broken"
            );
        }
    }

    #[test]
    fn piggybacking_meets_the_overhead_target_on_fault_free_runs() {
        let run = |mode| {
            let case = case(scenario_suite(Baseline::Tnic), "fault-free", mode);
            case.experiment.run().unwrap().stats
        };
        let (dedicated, piggy) = (run(CommitMode::Dedicated), run(PIGGYBACK));
        let ratio = piggy.control_overhead_ratio();
        assert!(ratio <= 2.0, "ctl/app {ratio:.2} exceeds 2.0");
        assert!(ratio < dedicated.control_overhead_ratio() / 3.0);
        assert!(piggy.piggybacked_commitments > 0);
        assert_eq!(dedicated.piggybacked_commitments, 0);
    }

    #[test]
    fn sweep_rows_report_the_swept_parameters() {
        let experiment = Experiment {
            payload: 256,
            audit_period: 2,
            rounds: 4,
            drain: false,
            ..Experiment::new(App::PeerReview, PIGGYBACK)
        };
        let outcome = experiment.run().unwrap();
        assert_eq!(outcome.stats.app_messages, 32);
        assert!(outcome.stats.piggybacked_commitments > 0);
        let latency = Experiment {
            faults: tamperer(1),
            ..experiment.clone()
        }
        .detection_latency(1)
        .unwrap();
        assert!(latency.is_some(), "the tamperer twin is exposed");
        let csv = sweep_csv(&experiment, &outcome, latency, latency);
        assert!(csv.starts_with("peerreview,piggyback(w=2),256,4,2,2,-,4,8,32,"));
        assert_eq!(column(&csv, "churn_rate"), "0.00");
        assert_eq!(column(&csv, "partition_rounds"), "0");
        assert_eq!(
            column(&csv, "audit_sample_size"),
            "-",
            "full audit prints a dash"
        );
        assert_eq!(column(&csv, "shards"), "1");
        assert!(
            column(&csv, "audit_msgs_per_node_round")
                .parse::<f64>()
                .unwrap()
                > 0.0,
            "audits actually ran: {csv}"
        );
        assert_eq!(
            column(&csv, "exposure_latency_rounds"),
            latency.unwrap().to_string()
        );
    }

    /// Splits one CSV record into fields, honouring RFC 4180 quoting.
    fn split_csv_record(record: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        let mut chars = record.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    fields.last_mut().unwrap().push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(String::new()),
                c => fields.last_mut().unwrap().push(c),
            }
        }
        fields
    }

    #[test]
    fn csv_rows_have_the_header_field_count_in_every_commit_mode() {
        let columns = SWEEP_CSV_HEADER.split(',').count();
        for mode in [
            CommitMode::Dedicated,
            PIGGYBACK,
            CommitMode::Checkpointed {
                witnesses: 2,
                interval: 2,
            },
        ] {
            let experiment = Experiment {
                nodes: 3,
                payload: 64,
                rounds: 4,
                ops_per_round: 4,
                drain: false,
                ..Experiment::new(App::Cr, mode)
            };
            let outcome = experiment.run().unwrap();
            let fields = split_csv_record(&sweep_csv(&experiment, &outcome, None, None));
            assert_eq!(fields.len(), columns, "{}", mode.label());
            assert_eq!(fields[1], mode.label(), "the label survives the quoting");
        }
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,\"b\""), "\"a,\"\"b\"\"\"");
    }

    #[test]
    fn bft_and_cr_sweep_points_measure_the_stacked_engine() {
        for app in [App::Bft, App::Cr, App::A2m] {
            let experiment = Experiment {
                nodes: 3,
                payload: 64,
                ops_per_round: 4,
                drain: false,
                ..Experiment::new(app, PIGGYBACK)
            };
            let outcome = experiment.run().unwrap();
            let stats = &outcome.stats;
            assert!(stats.app_messages > 0, "{app:?}");
            assert!(stats.challenges > 0, "{app:?}: audits actually ran");
            assert!(stats.log_entries > 0, "{app:?}");
            assert!(outcome.committed && outcome.replicas_agree, "{app:?}");
            let csv = sweep_csv(&experiment, &outcome, None, None);
            assert!(csv.starts_with(app.label()), "{app:?}");
            assert_eq!(column(&csv, "witnesses"), "2", "{app:?}");
        }
    }

    #[test]
    fn churn_suite_settles_cleanly_in_both_modes() {
        // The acceptance matrix of the robustness claim: crash-rejoin,
        // partition-heal, join, leave and chain fail-over — honest and
        // tampering — in both commit modes. No correct node is ever
        // exposed, tampering churners always are, and verdicts settle
        // within the CI bound.
        for base in churn_suite() {
            let settle = (0..=8u64).find(|&extra| {
                let mut experiment = base.experiment.clone();
                experiment.rounds += extra;
                experiment.run().unwrap().check(&base.expect).is_empty()
            });
            let delay = settle.unwrap_or_else(|| panic!("{}: never settled", base.label()));
            assert!(
                delay <= 6,
                "{}: settle delay {delay} exceeds the CI bound",
                base.label()
            );
        }
    }

    #[test]
    fn churn_runs_keep_verdict_parity_across_commit_modes() {
        // A crash-rejoin schedule must classify identically whether
        // commitments are dedicated or piggybacked — churn does not break
        // the commit-mode equivalence the parity harness asserts elsewhere.
        let dedicated = Experiment {
            rounds: 4,
            churn: ChurnPlan {
                actions: vec![
                    (1, ChurnAction::Crash { node: 1 }),
                    (2, ChurnAction::Recover { node: 1 }),
                ],
                partition: None,
            },
            ..Experiment::new(App::PeerReview, CommitMode::Dedicated)
        };
        let mut piggyback = dedicated.clone();
        PIGGYBACK.set(&mut piggyback.engine);
        let a = dedicated.run().unwrap();
        let b = piggyback.run().unwrap();
        assert!(a.stats.crashes == 1 && a.stats.recoveries == 1);
        assert!(
            a.messages_unreachable > 0,
            "crash window must refuse (and count) sends, not lose them"
        );
        assert_verdict_parity(&a, &b, "crash-rejoin dedicated vs piggyback");
    }

    #[test]
    fn churned_sweep_points_carry_the_new_columns_and_still_detect() {
        let point = |mode, churn| Experiment {
            payload: 256,
            rounds: 8,
            churn,
            ..Experiment::new(App::PeerReview, mode)
        };
        let detects = |experiment: &Experiment| {
            Experiment {
                faults: tamperer(1),
                ..experiment.clone()
            }
            .detection_latency(1)
            .unwrap()
        };
        // One crash-recover cycle every four audit rounds.
        let churned = point(
            PIGGYBACK,
            ChurnPlan {
                actions: [1, 5]
                    .into_iter()
                    .flat_map(|r| {
                        [
                            (r, ChurnAction::Crash { node: 1 }),
                            (r + 1, ChurnAction::Recover { node: 1 }),
                        ]
                    })
                    .collect(),
                partition: None,
            },
        );
        let csv = sweep_csv(&churned, &churned.run().unwrap(), None, None);
        assert!(csv.contains(",0.25,0,"), "{csv}");
        assert!(
            detects(&churned).is_some(),
            "the tamperer twin must still be detected under churn"
        );
        // A healed two-round partition window.
        let mut partitioned = point(
            CommitMode::Dedicated,
            ChurnPlan {
                actions: Vec::new(),
                partition: Some(PartitionSchedule::new([1], 1, 3)),
            },
        );
        partitioned.engine.challenge_retries = 3;
        let csv = sweep_csv(&partitioned, &partitioned.run().unwrap(), None, None);
        assert!(csv.contains(",0.00,2,"), "{csv}");
        assert!(
            detects(&partitioned).is_some(),
            "detection must land once the partition heals"
        );
    }

    #[test]
    fn sampled_sharded_event_driven_point_cuts_audit_traffic() {
        // The scaling-frontier columns at a mid-size point: sampling with
        // sharded witnesses trades bounded detection latency for audit
        // traffic.
        let mut full = Experiment {
            nodes: 12,
            rounds: 6,
            ops_per_round: 12,
            drain: false,
            ..Experiment::new(App::PeerReview, CommitMode::Piggyback { witnesses: 4 })
        };
        full.engine.shards = 2;
        let mut sampled = Experiment {
            rounds: 10,
            ..full.clone()
        };
        sampled.engine.audit_sample_size = Some(1);
        let rate = |experiment: &Experiment| {
            let outcome = experiment.run().unwrap();
            outcome.per_node_round(outcome.stats.audit_messages, experiment.nodes)
        };
        let latency = |experiment: &Experiment| {
            Experiment {
                faults: tamperer(1),
                ..experiment.clone()
            }
            .detection_latency(1)
            .unwrap()
        };
        let (full_rate, sampled_rate) = (rate(&full), rate(&sampled));
        assert!(full_rate > 0.0);
        assert!(
            sampled_rate < full_rate / 2.0,
            "sampling must cut audit traffic: {sampled_rate} vs {full_rate}"
        );
        let full_latency = latency(&full).expect("full audit detects the twin tamperer");
        let sampled_latency = latency(&sampled).expect("sampling still detects the twin tamperer");
        assert!(
            sampled_latency >= full_latency,
            "sampling can only delay detection: {sampled_latency} vs {full_latency}"
        );
        let csv = sweep_csv(
            &sampled,
            &sampled.run().unwrap(),
            None,
            Some(sampled_latency),
        );
        assert_eq!(column(&csv, "audit_sample_size"), "1");
        assert_eq!(column(&csv, "shards"), "2");
        assert_eq!(
            column(&csv, "detection_latency_rounds"),
            sampled_latency.to_string()
        );
    }

    #[test]
    fn event_driven_and_sampled_churn_runs_keep_verdict_parity() {
        // The churned half of the sampling claim: under a crash-rejoin
        // schedule sampled auditing settles to the same final verdicts as
        // the full audit — in both commit modes, honest and tampering.
        for mode in [CommitMode::Dedicated, PIGGYBACK] {
            for faults in [FaultPlan::all_correct(), tamperer(1)] {
                let mut full = Experiment {
                    rounds: 6,
                    churn: ChurnPlan {
                        actions: vec![
                            (1, ChurnAction::Crash { node: 2 }),
                            (2, ChurnAction::Recover { node: 2 }),
                        ],
                        partition: None,
                    },
                    faults: faults.clone(),
                    ..Experiment::new(App::PeerReview, mode)
                };
                full.engine.challenge_retries = 2;
                let mut sampled = full.clone();
                sampled.engine.audit_sample_size = Some(1);
                let (full, sampled) = (full.run().unwrap(), sampled.run().unwrap());
                let context = format!("sampled churn [{}] {faults:?}", mode.label());
                assert_verdict_parity(&full, &sampled, &context);
                assert!(
                    sampled.stats.challenges < full.stats.challenges,
                    "{context}: sampling must issue fewer challenges"
                );
            }
        }
    }

    #[test]
    fn sampled_detection_lands_within_the_coverage_bound() {
        // The sampled-auditing safety property, swept over sample sizes and
        // sample seeds: a tampering node is exposed within the coverage
        // window plus the full-audit exposure pipeline slack, never missed.
        // The `rotate` axis runs the same bound across epoch witness
        // rotations: the backstop's per-pair clock must carry through the
        // handover (an incoming witness inheriting no offset would restart
        // the stagger and stretch the worst case past the window).
        let window = 4u64;
        let slack = 4u64;
        for rotate in [false, true] {
            for sample_size in 1..=3u32 {
                for sample_seed in [1u64, 42, 0xfeed] {
                    let experiment = Experiment {
                        nodes: 6,
                        rounds: 4 * (window + slack),
                        faults: tamperer(1),
                        engine: EngineConfig {
                            audit_sample_size: Some(sample_size),
                            audit_sample_seed: sample_seed,
                            audit_coverage_window: window,
                            witness_count: if rotate { Some(3) } else { None },
                            checkpoint_interval: if rotate { Some(2) } else { None },
                            rotate_witnesses: rotate,
                            ..EngineConfig::default()
                        },
                        ..Experiment::new(App::PeerReview, CommitMode::Dedicated)
                    };
                    let latency = experiment.detection_latency(1).unwrap().unwrap_or_else(|| {
                        panic!(
                            "rotate {rotate} size {sample_size} seed {sample_seed:#x}: \
                                 tamperer never exposed"
                        )
                    });
                    assert!(
                        latency <= window + slack,
                        "rotate {rotate} size {sample_size} seed {sample_seed:#x}: \
                         detection took {latency} > {} rounds",
                        window + slack
                    );
                }
            }
        }
    }

    #[test]
    fn acct_suite_covers_both_apps_with_control_runs() {
        let suite = acct_suite();
        assert_eq!(suite.len(), 6 * MODES.len());
        for app in [App::Bft, App::Cr, App::A2m] {
            for faulty in [false, true] {
                assert_eq!(
                    suite
                        .iter()
                        .filter(|c| c.experiment.app == app
                            && c.experiment.mode() == CommitMode::Dedicated
                            && c.expect.faulty.is_some() == faulty)
                        .count(),
                    1,
                    "one control and one Byzantine run per app"
                );
            }
        }
    }

    #[test]
    fn acct_scenarios_classify_and_keep_protocol_health_in_both_modes() {
        for case in acct_suite() {
            let outcome = case.experiment.run().unwrap();
            let violations = outcome.check(&case.expect);
            assert!(violations.is_empty(), "{}: {violations:?}", case.label());
            assert!(outcome.stats.control_messages > 0);
            let bare = outcome.bare_time_us.expect("stacked apps have a bare twin");
            assert!(
                outcome.virtual_time_us > bare,
                "{}: accountability costs virtual time",
                case.label()
            );
            if case.experiment.engine.piggyback {
                assert!(
                    outcome.stats.piggybacked_commitments > 0,
                    "{}",
                    case.label()
                );
            }
        }
    }

    #[test]
    fn scenario_runner_reports_clean_control_run() {
        let case = case(
            scenario_suite(Baseline::Tnic),
            "fault-free",
            CommitMode::Dedicated,
        );
        let outcome = case.experiment.run().unwrap();
        assert!(outcome.check(&case.expect).is_empty());
        assert_eq!(outcome.summary(&case.expect), (Verdict::Trusted, true));
        assert_eq!(outcome.stats.app_messages, 24);
    }
}
