//! Reproduction harness for the TNIC accountability evaluation.
//!
//! Every run here is the same three steps: build an accountable deployment
//! (`Deployment::new`, whose PeerReview arm the families that only exist on
//! that substrate call directly), drive it through the one audit-round loop
//! ([`Accountable::run_rounds`], stepped by `drive` where something happens
//! between audit rounds) with the family's own operation generator as the
//! round's work, and read the result off the engine (`outcome`, a
//! [`ParityOutcome`]). The families differ in what they summarise: [`Scenario`]
//! and [`AcctScenario`] rows for `src/bin/reproduce.rs`, [`SweepRow`]s for
//! `src/bin/sweep.rs`, [`ParityOutcome`]s for twin-run comparisons, and the
//! retention / exposure-latency / sampled-auditing / churn probes behind the
//! named gates in [`gates`].

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

/// The determinism seed of every harness run that does not take one.
const SEED: u64 = 42;

/// Severity ordering of verdicts (`Trusted < Suspected < Exposed`).
fn verdict_rank(v: Verdict) -> u8 {
    match v {
        Verdict::Trusted => 0,
        Verdict::Suspected => 1,
        Verdict::Exposed => 2,
    }
}

/// One accountability fault-injection scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// The faulty node (ignored for the fault-free scenario).
    pub faulty_node: u32,
    /// The injected behaviour.
    pub fault: NodeFault,
    /// Rounds of workload + audit.
    pub rounds: u64,
    /// Application messages per round.
    pub messages_per_round: u64,
}

impl Scenario {
    /// The standard scenario suite exercised by `reproduce`: one fault-free
    /// control run plus one scenario per Byzantine behaviour class —
    /// including the audit-side Byzantine *witness* behaviours (forged
    /// evidence, false suspicion, withheld gossip/relays, silent audits).
    #[must_use]
    pub fn suite() -> Vec<Scenario> {
        let base = |name, faulty_node, fault| Scenario {
            name,
            faulty_node,
            fault,
            rounds: 3,
            messages_per_round: 8,
        };
        vec![
            base("fault-free", 0, NodeFault::Correct),
            base("equivocation", 1, NodeFault::Equivocate),
            base(
                "suppression",
                2,
                NodeFault::SuppressAudits { probability: 1.0 },
            ),
            base("log-truncation", 3, NodeFault::TruncateLog { drop_tail: 5 }),
            base("exec-tampering", 1, NodeFault::TamperLogEntry { seq: 0 }),
            base("forge-evidence", 1, NodeFault::ForgeEvidence),
            base("false-suspicion", 2, NodeFault::FalseSuspicion),
            base("withhold-gossip", 1, NodeFault::WithholdGossip),
            base("refuse-relay", 2, NodeFault::RefuseRelay),
            base("silent-witness", 3, NodeFault::SilentWitness),
        ]
    }

    /// The fault plan this scenario injects. `FaultPlan::single` already
    /// normalises a `Correct` assignment to the empty plan.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::single(self.faulty_node, self.fault)
    }

    /// The classification the correct witnesses must reach on the faulty
    /// node. Witness-side omissions (false suspicion, withheld gossip or
    /// relays, silent audits) are not provable — the liar behaves correctly
    /// as an *auditee* — so those scenarios expect `trusted`; a forged
    /// accusation, by contrast, is itself evidence against its author.
    #[must_use]
    pub fn expected_verdict(&self) -> &'static str {
        match self.fault {
            // Witness-side omissions — audit, gossip and cosignature duties
            // alike — are unprovable; the liar stays trusted.
            NodeFault::Correct
            | NodeFault::FalseSuspicion
            | NodeFault::WithholdGossip
            | NodeFault::RefuseRelay
            | NodeFault::SilentWitness
            | NodeFault::WithholdCosignatures
            | NodeFault::ForgeCosignatures => "trusted",
            NodeFault::SuppressAudits { .. } => "suspected",
            NodeFault::Equivocate
            | NodeFault::TruncateLog { .. }
            | NodeFault::TamperLogEntry { .. }
            | NodeFault::ForgeEvidence => "exposed",
        }
    }

    /// Whether every correct witness must agree on the expected verdict. A
    /// `ForgeEvidence` accuser is convicted only by the witnesses that
    /// *received* its forged accusation (the conviction is local evidence,
    /// like a failed replay) — with small rotating witness sets not every
    /// witness of the forger is among the receivers.
    #[must_use]
    pub fn requires_unanimity(&self) -> bool {
        self.fault != NodeFault::ForgeEvidence
    }
}

/// How the commitment protocol runs in a scenario or sweep point.
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

    /// The engine configuration this mode corresponds to.
    #[must_use]
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        match self {
            CommitMode::Dedicated => EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            CommitMode::Piggyback { witnesses } => EngineConfig {
                seed,
                piggyback: true,
                witness_count: Some(witnesses),
                ..EngineConfig::default()
            },
            CommitMode::Checkpointed {
                witnesses,
                interval,
            } => EngineConfig {
                seed,
                piggyback: true,
                witness_count: Some(witnesses),
                checkpoint_interval: Some(interval),
                ..EngineConfig::default()
            },
        }
    }
}

// ---- the one constructor, the one driver, the one outcome ------------------

/// The network stack an attestation baseline is evaluated over.
fn stack_for(baseline: Baseline) -> NetworkStackKind {
    if baseline == Baseline::Tnic {
        NetworkStackKind::Tnic
    } else {
        NetworkStackKind::DrctIo
    }
}

/// A PeerReview deployment of `nodes` nodes exchanging `payload`-byte
/// commands (clamped up to the bare command) under `engine` and `faults`.
fn peerreview(
    nodes: u32,
    payload: usize,
    engine: EngineConfig,
    faults: FaultPlan,
) -> Result<PeerReview, CoreError> {
    let shape = PeerReviewConfig {
        nodes,
        stack: stack_for(engine.baseline),
        app_payload_len: payload,
        ..PeerReviewConfig::default()
    };
    PeerReview::new(shape.with_engine(engine), faults)
}

/// An accountable deployment of any of the four systems.
enum Deployment {
    /// The PeerReview round-robin counter workload.
    PeerReview(PeerReview),
    /// The `2f + 1` BFT replicated counter.
    Bft(BftCounter),
    /// Byzantine chain replication of a KV store.
    Cr(ChainReplication),
    /// The replicated attested append-only memory.
    A2m(AccountableA2m),
}

impl Deployment {
    /// Builds `app` over `nodes` nodes (BFT derives `f` from it; each system
    /// clamps to its own minimum) with the accountability engine attached
    /// under `engine` and `faults`. The cluster shares the engine's seed and
    /// baseline; `payload` sizes what the system fixes at construction (the
    /// PeerReview command, the BFT request context), clamped up to its
    /// minimum.
    ///
    /// # Errors
    ///
    /// Propagates cluster connection errors.
    fn new(
        app: SweepApp,
        nodes: u32,
        payload: usize,
        engine: EngineConfig,
        faults: FaultPlan,
    ) -> Result<Self, CoreError> {
        let (baseline, stack, seed) = (engine.baseline, stack_for(engine.baseline), engine.seed);
        Ok(match app {
            SweepApp::PeerReview => {
                Deployment::PeerReview(peerreview(nodes, payload, engine, faults)?)
            }
            SweepApp::Bft => {
                let config = BftConfig {
                    f: (nodes.max(3) - 1) / 2,
                    batch_size: 1,
                    request_len: payload,
                };
                Deployment::Bft(BftCounter::with_accountability(
                    baseline, stack, config, seed, engine, faults,
                )?)
            }
            SweepApp::Cr => Deployment::Cr(ChainReplication::with_accountability(
                nodes.max(2),
                baseline,
                stack,
                seed,
                engine,
                faults,
            )?),
            SweepApp::A2m => Deployment::A2m(AccountableA2m::new(
                nodes.max(2),
                baseline,
                stack,
                seed,
                engine,
                faults,
            )?),
        })
    }
}

/// The one driver: `rounds` rounds of `work` on `system`, audited every
/// `audit_period` rounds by [`Accountable::run_rounds`]. The run advances
/// one audit period at a time (so the round index `work` sees restarts with
/// each) and calls `after_audit` with the number of audit rounds completed
/// between them — where an operator would apply churn, and where a probe
/// samples or looks for exposure; returning `true` ends the run there.
/// Rounds past the last audit boundary run unaudited, and the pipeline is
/// left for the caller to drain. A run with nothing to do between audit
/// rounds calls `run_rounds` itself.
///
/// Returns the audit round `after_audit` stopped the run at, if it did.
fn drive<D: Accountable>(
    system: &mut D,
    rounds: u64,
    audit_period: u64,
    mut work: impl FnMut(&mut D, u64) -> Result<(), CoreError>,
    mut after_audit: impl FnMut(&mut D, u64) -> Result<bool, CoreError>,
) -> Result<Option<u64>, CoreError> {
    let period = audit_period.max(1);
    for audit_round in 1..=rounds / period {
        system.run_rounds(period, period, &mut work)?;
        if after_audit(system, audit_round)? {
            return Ok(Some(audit_round));
        }
    }
    system.run_rounds(rounds % period, period, &mut work)?;
    Ok(None)
}

/// A round of work made of `per_round` calls of `op`, which is handed the
/// index of the operation across the whole run.
fn ops<D>(
    per_round: u64,
    mut op: impl FnMut(&mut D, u64) -> Result<(), CoreError>,
) -> impl FnMut(&mut D, u64) -> Result<(), CoreError> {
    let mut next = 0u64;
    move |system, _round| {
        for _ in 0..per_round {
            op(system, next)?;
            next += 1;
        }
        Ok(())
    }
}

/// Whether every correct witness of `target` holds an `Exposed` verdict.
fn exposed<D: Accountable>(system: &D, target: u32) -> bool {
    let engine = system.engine();
    let witnesses = engine.correct_witnesses_of(target);
    !witnesses.is_empty()
        && witnesses
            .iter()
            .all(|&w| engine.verdict_of(w, target) == Verdict::Exposed)
}

/// `(witness, node) → verdict` over a run's *final* witness sets.
pub type VerdictMap = BTreeMap<(u32, u32), Verdict>;

/// The observable outcome of one accountable run: what every summary row,
/// gate and twin comparison in this crate is computed from.
#[derive(Debug, Clone)]
pub struct ParityOutcome {
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
    /// Audit elements that rode a batched envelope instead of their own
    /// message.
    pub messages_batched: u64,
    /// Total virtual time of the run in microseconds.
    pub virtual_time_us: u64,
}

/// The one outcome extractor: reads the verdict matrix over the final
/// witness sets, the evidence labels and every counter off a driven
/// deployment.
fn outcome<D: Accountable>(system: &mut D) -> ParityOutcome {
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
    ParityOutcome {
        byzantine: engine.faults().byzantine_nodes(),
        verdicts,
        evidence,
        stats: engine.stats(),
        messages_sent: transport.messages_sent,
        messages_rejected: transport.messages_rejected,
        messages_unreachable: transport.messages_unreachable,
        messages_partitioned: transport.messages_partitioned,
        messages_audit: transport.messages_audit,
        messages_batched: transport.messages_batched,
        virtual_time_us: cluster.now().as_micros(),
    }
}

impl ParityOutcome {
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

    /// **The accuracy invariant**: every correct node is `Trusted` (not
    /// merely un-exposed) at every correct witness.
    #[must_use]
    pub fn accuracy_clean(&self) -> bool {
        self.verdicts.iter().all(|(&(w, n), &v)| {
            self.byzantine.contains(&w) || self.byzantine.contains(&n) || v == Verdict::Trusted
        })
    }

    /// Whether every correct witness of `node` holds an `Exposed` verdict.
    #[must_use]
    pub fn exposed(&self, node: u32) -> bool {
        let witnesses = self.correct_witnesses_of(node);
        !witnesses.is_empty()
            && witnesses
                .iter()
                .all(|&w| self.verdict_of(w, node) == Verdict::Exposed)
    }

    /// Whether every witness of every node still trusts it.
    #[must_use]
    pub fn all_trusted(&self) -> bool {
        self.verdicts.values().all(|&v| v == Verdict::Trusted)
    }

    /// The summary verdict of a run and whether the correct witnesses agree
    /// on it. With a `faulty` node: the *severest* verdict any of its correct
    /// witnesses holds — exposure evidence can be local (a failed replay, a
    /// received forged accusation), so one convinced witness is the signal.
    /// Without: `trusted` when every witness of every node still trusts it,
    /// `FALSE-POSITIVE` otherwise.
    fn judge(&self, faulty: Option<u32>) -> (&'static str, bool) {
        let Some(faulty) = faulty else {
            return (
                if self.all_trusted() {
                    "trusted"
                } else {
                    "FALSE-POSITIVE"
                },
                true,
            );
        };
        let verdicts: Vec<Verdict> = self
            .correct_witnesses_of(faulty)
            .into_iter()
            .map(|w| self.verdict_of(w, faulty))
            .collect();
        let severest = verdicts
            .iter()
            .copied()
            .max_by_key(|v| verdict_rank(*v))
            .unwrap_or(Verdict::Trusted);
        (severest.label(), verdicts.windows(2).all(|p| p[0] == p[1]))
    }
}

/// Summary of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// The attestation baseline used.
    pub baseline: Baseline,
    /// The commitment mode the run used.
    pub mode: CommitMode,
    /// Commitments that rode on existing traffic.
    pub piggybacked: u64,
    /// The *severest* verdict any correct witness holds on the faulty node
    /// (`trusted`/`FALSE-POSITIVE` summary for the fault-free control run).
    pub verdict: &'static str,
    /// Whether every correct witness agreed on that verdict.
    pub unanimous: bool,
    /// The classification this scenario expects ([`Scenario::expected_verdict`]).
    pub expected: &'static str,
    /// Whether the expectation includes witness unanimity
    /// ([`Scenario::requires_unanimity`]).
    pub requires_unanimity: bool,
    /// The accuracy invariant: every *correct* node is `Trusted` at every
    /// correct witness (false for any run that suspects or exposes a
    /// correct node).
    pub accuracy: bool,
    /// Application messages sent.
    pub app_messages: u64,
    /// Control (commitment/audit) messages sent.
    pub control_messages: u64,
    /// Control messages per application message.
    pub overhead_ratio: f64,
    /// Median audit latency in virtual microseconds.
    pub audit_p50_us: f64,
    /// 99th-percentile audit latency in virtual microseconds.
    pub audit_p99_us: f64,
    /// Total virtual time of the run in microseconds.
    pub virtual_time_us: u64,
    /// Log entries holding a full application payload (see
    /// [`tnic_peerreview::log::LogComposition`]).
    pub log_app_entries: u64,
    /// Log entries holding an ordinary control-traffic digest.
    pub log_ctl_entries: u64,
    /// Log entries holding an audit-protocol (challenge/response) digest.
    pub log_audit_entries: u64,
    /// Log entries fed through audit replay across all witnesses — the
    /// replay-work side of the full-audit O(w²) wall.
    pub entries_replayed: u64,
}

/// Runs `scenario` on a 4-node deployment over `baseline` with dedicated
/// all-to-all commitments (the classic baseline) and summarises it.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_scenario(scenario: &Scenario, baseline: Baseline) -> Result<ScenarioResult, CoreError> {
    run_scenario_mode(scenario, baseline, CommitMode::Dedicated)
}

/// Runs `scenario` on a 4-node deployment over `baseline` in the given
/// commitment mode and summarises it.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_scenario_mode(
    scenario: &Scenario,
    baseline: Baseline,
    mode: CommitMode,
) -> Result<ScenarioResult, CoreError> {
    let engine = EngineConfig {
        baseline,
        ..mode.engine_config(SEED)
    };
    let mut pr = peerreview(4, 0, engine, scenario.fault_plan())?;
    pr.run_scenario(scenario.rounds, scenario.messages_per_round)?;
    let outcome = outcome(&mut pr);
    let (verdict, unanimous) = outcome.judge(
        scenario
            .fault
            .is_byzantine()
            .then_some(scenario.faulty_node),
    );
    let stats = &outcome.stats;
    Ok(ScenarioResult {
        name: scenario.name,
        baseline,
        mode,
        piggybacked: stats.piggybacked_commitments,
        verdict,
        unanimous,
        expected: scenario.expected_verdict(),
        requires_unanimity: scenario.requires_unanimity(),
        accuracy: outcome.accuracy_clean(),
        app_messages: stats.app_messages,
        control_messages: stats.control_messages,
        overhead_ratio: stats.control_overhead_ratio(),
        audit_p50_us: stats.audit_latency.percentile_us(0.5),
        audit_p99_us: stats.audit_latency.percentile_us(0.99),
        virtual_time_us: outcome.virtual_time_us,
        log_app_entries: stats.log_app_payload_entries,
        log_ctl_entries: stats.log_control_digest_entries,
        log_audit_entries: stats.log_audit_digest_entries,
        entries_replayed: stats.entries_replayed,
    })
}

/// A traced scenario run: the summary, the captured event snapshot, the
/// ring's total drop count, and the per-node drop attribution.
pub type TracedScenarioRun = (ScenarioResult, Vec<tnic_obs::Event>, u64, Vec<(u32, u64)>);

/// Runs a scenario with the [`tnic_obs`] event recorder installed and
/// returns the result together with the captured snapshot, the ring's
/// total drop count, and the per-node drop attribution — the input for
/// [`report::timeline_section`], the causal verdict chains and the
/// trace exporters.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_scenario_traced(
    scenario: &Scenario,
    baseline: Baseline,
    mode: CommitMode,
    capacity: usize,
) -> Result<TracedScenarioRun, CoreError> {
    let guard = tnic_obs::RecorderGuard::install(capacity);
    let result = run_scenario_mode(scenario, baseline, mode)?;
    let events = guard.snapshot();
    let dropped = guard.dropped();
    let dropped_by_node = guard.dropped_by_node();
    drop(guard);
    Ok((result, events, dropped, dropped_by_node))
}

/// Formats scenario results as an aligned terminal table.
#[must_use]
pub fn render_table(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<9} {:<15} {:<15} {:>8} {:>8} {:>8} {:>8} {:>12} {:>12} {:>12}\n",
        "scenario",
        "baseline",
        "mode",
        "verdict",
        "app",
        "ctl",
        "ctl/app",
        "rides",
        "audit p50 us",
        "audit p99 us",
        "virt time us"
    ));
    out.push_str(&"-".repeat(134));
    out.push('\n');
    for r in results {
        let verdict = if r.unanimous {
            r.verdict.to_string()
        } else {
            format!("{} (split!)", r.verdict)
        };
        out.push_str(&format!(
            "{:<16} {:<9} {:<15} {:<15} {:>8} {:>8} {:>8.2} {:>8} {:>12.1} {:>12.1} {:>12}\n",
            r.name,
            r.baseline.label(),
            r.mode.label(),
            verdict,
            r.app_messages,
            r.control_messages,
            r.overhead_ratio,
            r.piggybacked,
            r.audit_p50_us,
            r.audit_p99_us,
            r.virtual_time_us
        ));
    }
    out
}

/// One accountability-over-application scenario: the engine stacked under a
/// BFT or chain-replication deployment, fault-free or with one faulty node.
#[derive(Debug, Clone, Copy)]
pub struct AcctScenario {
    /// The application the engine runs under (not
    /// [`SweepApp::PeerReview`], which [`Scenario`] covers).
    pub app: SweepApp,
    /// Display name.
    pub name: &'static str,
    /// The faulty node and its behaviour (`None` = fault-free control run).
    pub fault: Option<(u32, NodeFault)>,
    /// Rounds of operations + audit.
    pub rounds: u64,
    /// Client operations per round.
    pub ops_per_round: u64,
}

impl AcctScenario {
    /// The `bft-acct`/`cr-acct`/`a2m-acct` suite: a fault-free control run
    /// plus one Byzantine node per application — an equivocating BFT
    /// replica, a tail-tampering chain node and a log-rewriting A2M
    /// replica, each of which the witnesses must *expose* with verifiable
    /// evidence (the protocols alone only tolerate/detect).
    #[must_use]
    pub fn suite() -> Vec<AcctScenario> {
        let base = |app, name, fault| AcctScenario {
            app,
            name,
            fault,
            rounds: 3,
            ops_per_round: 4,
        };
        vec![
            base(SweepApp::Bft, "bft-acct/fault-free", None),
            base(
                SweepApp::Bft,
                "bft-acct/equivocation",
                Some((1, NodeFault::Equivocate)),
            ),
            base(SweepApp::Cr, "cr-acct/fault-free", None),
            base(
                SweepApp::Cr,
                "cr-acct/tail-tampering",
                Some((2, NodeFault::TamperLogEntry { seq: 0 })),
            ),
            base(SweepApp::A2m, "a2m-acct/fault-free", None),
            base(
                SweepApp::A2m,
                "a2m-acct/log-rewriting",
                Some((1, NodeFault::TamperLogEntry { seq: 0 })),
            ),
        ]
    }

    /// The fault plan this scenario injects.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        match self.fault {
            Some((node, fault)) => FaultPlan::single(node, fault),
            None => FaultPlan::all_correct(),
        }
    }
}

/// Summary of one accountability-over-application run.
#[derive(Debug, Clone)]
pub struct AcctScenarioResult {
    /// The application the engine ran under.
    pub app: SweepApp,
    /// Scenario name.
    pub name: &'static str,
    /// The commitment mode the run used.
    pub mode: CommitMode,
    /// Verdict of the correct witnesses on the faulty node ("trusted" for a
    /// clean control run, "FALSE-POSITIVE" if a control run convicted).
    pub verdict: &'static str,
    /// Whether every correct witness agreed on that verdict.
    pub unanimous: bool,
    /// Application (protocol) messages sent.
    pub app_messages: u64,
    /// Accountability control messages sent.
    pub control_messages: u64,
    /// Control messages per application message.
    pub overhead_ratio: f64,
    /// Commitments that rode on protocol traffic.
    pub piggybacked: u64,
    /// Whether every client operation committed at the protocol level (the
    /// injected log-level faults must not break the dataflow).
    pub protocol_committed: bool,
    /// Whether all replicas agree on the committed application state.
    pub state_parity: bool,
    /// Virtual-time cost of accountability: accountable run time divided by
    /// an identical run without the engine.
    pub time_overhead: f64,
    /// Total virtual time of the accountable run in microseconds.
    pub virtual_time_us: u64,
}

/// The audited half of an `*-acct` scenario: `op` (which reports whether the
/// protocol committed the operation) `ops_per_round` times a round, an audit
/// round each, the pipeline drained. Returns the outcome and whether every
/// operation committed.
fn acct_rounds<D: Accountable>(
    system: &mut D,
    scenario: &AcctScenario,
    mut op: impl FnMut(&mut D, u64) -> Result<bool, CoreError>,
) -> Result<(ParityOutcome, bool), CoreError> {
    let mut committed = true;
    let work = ops(scenario.ops_per_round, |system: &mut D, index| {
        committed &= op(system, index)?;
        Ok(())
    });
    system.run_rounds(scenario.rounds, 1, work)?;
    system.drain_audits()?;
    Ok((outcome(system), committed))
}

/// Runs one accountability-over-application scenario in the given
/// commitment mode: the same engine that drives PeerReview stacked under a
/// 3-node BFT, chain-replication or replicated-A2M deployment, beside a
/// twin of the same operations with no engine attached (the time-overhead
/// denominator).
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
///
/// # Panics
///
/// Panics on [`SweepApp::PeerReview`]: [`run_scenario_mode`] runs those.
pub fn run_acct_scenario(
    scenario: &AcctScenario,
    mode: CommitMode,
) -> Result<AcctScenarioResult, CoreError> {
    const ACCT_NODES: u32 = 3;
    let (baseline, stack) = (Baseline::Tnic, NetworkStackKind::Tnic);
    let total_ops = scenario.rounds * scenario.ops_per_round;
    let mut deployment = Deployment::new(
        scenario.app,
        ACCT_NODES,
        0,
        mode.engine_config(SEED),
        scenario.fault_plan(),
    )?;
    // Per system: its operations under audit, whether its replicas ended in
    // the same state, and the virtual time of the engine-free twin.
    let ((outcome, committed), state_parity, bare_time_us) = match &mut deployment {
        Deployment::PeerReview(_) => panic!("PeerReview scenarios run through run_scenario_mode"),
        Deployment::Bft(system) => {
            let run = acct_rounds(system, scenario, |system, _| {
                let result = system.client_increment()?;
                Ok(system.is_committed(&result))
            })?;
            let mut bare = BftCounter::new(baseline, stack, BftConfig::default(), SEED)?;
            for _ in 0..total_ops {
                bare.client_increment()?;
            }
            let value = system.replica_value(NodeId(0));
            let parity = (1..ACCT_NODES).all(|i| system.replica_value(NodeId(i)) == value);
            (run, parity, bare.now().as_micros())
        }
        Deployment::Cr(system) => {
            let put = |system: &mut ChainReplication, op: u64| {
                system.put(format!("key-{op}").as_bytes(), b"value")
            };
            let run = acct_rounds(
                system,
                scenario,
                |system, op| Ok(put(system, op)?.committed),
            )?;
            let mut bare = ChainReplication::new(ACCT_NODES, baseline, stack, SEED)?;
            for op in 0..total_ops {
                put(&mut bare, op)?;
            }
            let digests: Vec<[u8; 32]> = system
                .chain()
                .iter()
                .map(|&n| system.store_digest(n))
                .collect();
            let parity = digests.windows(2).all(|w| w[0] == w[1]);
            (run, parity, bare.now().as_micros())
        }
        Deployment::A2m(system) => {
            // Three appends, then a lookup of an existing position.
            let run = acct_rounds(system, scenario, |system, op| {
                let result = if op % 4 == 3 {
                    system.lookup(op / 2)?
                } else {
                    system.append(format!("entry-{op}").as_bytes())?
                };
                Ok(result.committed)
            })?;
            // The bare twin: identical replication traffic on a bare cluster.
            let mut bare = Cluster::fully_connected(ACCT_NODES, baseline, stack, SEED);
            let replicas = bare.nodes();
            for op in 0..total_ops {
                let command = if op % 4 == 3 {
                    tnic_a2m::lookup_command(op / 2)
                } else {
                    tnic_a2m::append_command(format!("entry-{op}").as_bytes())
                };
                let wire = Envelope::App(command).encode();
                for &replica in &replicas[1..] {
                    bare.auth_send(replicas[0], replica, &wire)?;
                    bare.poll(replica)?;
                }
            }
            let head = system.replica_digest(NodeId(0));
            let parity = (1..ACCT_NODES).all(|i| system.replica_digest(NodeId(i)) == head);
            (run, parity, bare.now().as_micros())
        }
    };
    let (verdict, unanimous) = outcome.judge(scenario.fault.map(|(node, _)| node));
    let stats = &outcome.stats;
    Ok(AcctScenarioResult {
        app: scenario.app,
        name: scenario.name,
        mode,
        verdict,
        unanimous,
        app_messages: stats.app_messages,
        control_messages: stats.control_messages,
        overhead_ratio: stats.control_overhead_ratio(),
        piggybacked: stats.piggybacked_commitments,
        protocol_committed: committed,
        state_parity,
        time_overhead: if bare_time_us == 0 {
            f64::NAN
        } else {
            outcome.virtual_time_us as f64 / bare_time_us as f64
        },
        virtual_time_us: outcome.virtual_time_us,
    })
}

/// The bounded-memory report of a long checkpointed PeerReview run (the
/// `reproduce --check --max-retained-entries` CI gate): retained log
/// entries and stored commitments must stay O(checkpoint interval) over an
/// O(rounds) run.
#[derive(Debug, Clone)]
pub struct RetentionReport {
    /// Audit rounds driven.
    pub rounds: u64,
    /// Audit rounds between checkpoint rounds.
    pub checkpoint_interval: u64,
    /// Maximum retained log entries (across all nodes) observed at any
    /// round boundary.
    pub max_retained_entries: u64,
    /// Maximum stored witness commitments observed at any round boundary.
    pub max_retained_commitments: u64,
    /// Retained log entries at the end of the run.
    pub final_retained_entries: u64,
    /// Retained bytes at the end of the run.
    pub final_retained_bytes: u64,
    /// Log entries ever appended (the unbounded twin would retain these).
    pub total_log_entries: u64,
    /// Certified (and pruned) checkpoints.
    pub checkpoints_completed: u64,
    /// Whether every witness of every node ended the run trusting it.
    pub verdicts_clean: bool,
}

/// Drives a fault-free piggybacked PeerReview deployment for `rounds` audit
/// rounds with checkpointing every `checkpoint_interval` rounds, sampling
/// the retained-memory footprint at every round boundary.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_retention_probe(
    rounds: u64,
    checkpoint_interval: u64,
) -> Result<RetentionReport, CoreError> {
    let engine = EngineConfig {
        checkpoint_interval: Some(checkpoint_interval),
        ..CommitMode::Piggyback { witnesses: 2 }.engine_config(SEED)
    };
    let mut pr = peerreview(4, 0, engine, FaultPlan::all_correct())?;
    let mut max_retained_entries = 0u64;
    let mut max_retained_commitments = 0u64;
    drive(
        &mut pr,
        rounds,
        1,
        |pr, _| pr.run_workload(4),
        |pr, _| {
            let stats = pr.stats();
            max_retained_entries = max_retained_entries.max(stats.retained_log_entries);
            max_retained_commitments = max_retained_commitments.max(stats.retained_commitments);
            Ok(false)
        },
    )?;
    pr.drain_audits()?;
    let outcome = outcome(&mut pr);
    let stats = &outcome.stats;
    Ok(RetentionReport {
        rounds,
        checkpoint_interval,
        max_retained_entries,
        max_retained_commitments,
        final_retained_entries: stats.retained_log_entries,
        final_retained_bytes: stats.retained_log_bytes,
        total_log_entries: stats.log_entries,
        checkpoints_completed: stats.checkpoints_completed,
        verdicts_clean: outcome.all_trusted(),
    })
}

/// Formats accountability-over-application results as an aligned table.
#[must_use]
pub fn render_acct_table(results: &[AcctScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<15} {:<15} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7} {:>7} {:>12}\n",
        "scenario",
        "mode",
        "verdict",
        "app",
        "ctl",
        "ctl/app",
        "rides",
        "time-ovh",
        "commit",
        "parity",
        "virt time us"
    ));
    out.push_str(&"-".repeat(132));
    out.push('\n');
    for r in results {
        let verdict = if r.unanimous {
            r.verdict.to_string()
        } else {
            format!("{} (split!)", r.verdict)
        };
        out.push_str(&format!(
            "{:<24} {:<15} {:<15} {:>8} {:>8} {:>8.2} {:>8} {:>8.2}x {:>7} {:>7} {:>12}\n",
            r.name,
            r.mode.label(),
            verdict,
            r.app_messages,
            r.control_messages,
            r.overhead_ratio,
            r.piggybacked,
            r.time_overhead,
            if r.protocol_committed { "ok" } else { "FAIL" },
            if r.state_parity { "ok" } else { "FAIL" },
            r.virtual_time_us
        ));
    }
    out
}

/// Which workload a sweep point drives the accountability engine under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepApp {
    /// The PeerReview round-robin counter workload (the classic substrate).
    PeerReview,
    /// Accountability stacked on the BFT replicated counter (`bft-acct`).
    Bft,
    /// Accountability stacked on chain replication (`cr-acct`).
    Cr,
    /// Accountability stacked on the replicated A2M (`a2m-acct`).
    A2m,
}

impl SweepApp {
    /// CSV label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SweepApp::PeerReview => "peerreview",
            SweepApp::Bft => "bft",
            SweepApp::Cr => "cr",
            SweepApp::A2m => "a2m",
        }
    }
}

/// One point of the accountability parameter sweep (fault-free workload).
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The workload under audit.
    pub app: SweepApp,
    /// Commitment mode: the row's label, and what [`SweepPoint::new`] builds
    /// [`SweepPoint::engine`] from.
    pub mode: CommitMode,
    /// Application payload size in bytes (request context for BFT, value
    /// size for chain replication, entry size for A2M).
    pub payload: usize,
    /// Cluster size.
    pub nodes: u32,
    /// Workload rounds between audit rounds.
    pub audit_period: u64,
    /// Total workload rounds.
    pub rounds: u64,
    /// Application operations per workload round (messages for PeerReview,
    /// client operations for BFT/CR/A2M).
    pub messages_per_round: u64,
    /// Crash-recover cycles per audit round on node 1 (0 = no churn; 0.25
    /// = one crash + recovery every 4 audit rounds). PeerReview substrate
    /// only.
    pub churn_rate: f64,
    /// Length (in audit rounds) of a partition window isolating node 1,
    /// opening after the first audit round and healing on schedule (0 = no
    /// partition; the run gets `partition_rounds + 1` challenge retries so
    /// healing clears suspicion). PeerReview substrate only.
    pub partition_rounds: u64,
    /// Every engine knob of the run: `mode`'s configuration, with sampling,
    /// sharding or a checkpoint interval the mode does not carry set on top
    /// by struct update.
    pub engine: EngineConfig,
}

impl SweepPoint {
    /// The base point the grids update: 4 nodes, 64 B payloads, 4 rounds of
    /// 8 operations audited every round, no churn, `mode`'s engine
    /// configuration.
    #[must_use]
    pub fn new(app: SweepApp, mode: CommitMode) -> Self {
        SweepPoint {
            app,
            mode,
            payload: 64,
            nodes: 4,
            audit_period: 1,
            rounds: 4,
            messages_per_round: 8,
            churn_rate: 0.0,
            partition_rounds: 0,
            engine: mode.engine_config(SEED),
        }
    }

    /// Whether the point schedules any churn or partition window.
    fn has_churn(&self) -> bool {
        self.churn_rate > 0.0 || self.partition_rounds > 0
    }

    /// Audit rounds of a drained run of the point (the drain counts as one).
    fn drained_audit_rounds(&self) -> u64 {
        self.rounds / self.audit_period.max(1) + 1
    }

    /// The engine configuration the point runs under: its own, with enough
    /// challenge retries to bridge its partition window.
    fn run_engine(&self) -> EngineConfig {
        let mut engine = self.engine;
        if self.partition_rounds > 0 {
            engine.challenge_retries = u32::try_from(self.partition_rounds)
                .unwrap_or(u32::MAX)
                .saturating_add(1);
        }
        engine
    }
}

/// The measured row for one [`SweepPoint`].
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The swept parameters.
    pub point: SweepPoint,
    /// Effective witnesses per node.
    pub witnesses: u32,
    /// Application messages sent.
    pub app_messages: u64,
    /// Dedicated control messages sent.
    pub control_messages: u64,
    /// Commitments that rode on existing traffic.
    pub piggybacked: u64,
    /// Challenges issued.
    pub challenges: u64,
    /// Log entries across all nodes.
    pub log_entries: u64,
    /// Log entries still retained in memory at the end of the run.
    pub retained_entries: u64,
    /// Approximate bytes of retained log entries at the end of the run.
    pub retained_bytes: u64,
    /// Median audit latency (virtual µs).
    pub audit_p50_us: f64,
    /// Tail audit latency (virtual µs).
    pub audit_p99_us: f64,
    /// Median application-send latency (virtual µs).
    pub app_p50_us: f64,
    /// Total virtual time (µs).
    pub virtual_time_us: u64,
    /// Detection latency: audit rounds until every correct witness exposes
    /// a seq-0 log tamperer in a twin run of the same configuration
    /// (PeerReview substrate only; `None` elsewhere or when the twin's
    /// round budget ends before full exposure). Always measured under
    /// *full* auditing, so the sampled columns can be compared against it.
    pub exposure_latency_rounds: Option<u64>,
    /// Audit wire messages (challenges + responses; a batched envelope
    /// counts once) sent over the fault-free run.
    pub audit_messages: u64,
    /// Detection latency of the row's *own* audit configuration: audit
    /// rounds until every correct witness exposes the seq-0 tamperer twin
    /// under the row's sampling/sharding. Equal to
    /// [`SweepRow::exposure_latency_rounds`] when sampling is off; the gap
    /// between the two is the latency price of sampling.
    pub detection_latency_rounds: Option<u64>,
    /// Log entries holding a full application payload.
    pub log_app_entries: u64,
    /// Log entries holding an ordinary control-traffic digest.
    pub log_ctl_entries: u64,
    /// Log entries holding an audit-protocol digest — log growth the audit
    /// machinery inflicts on itself.
    pub log_audit_entries: u64,
    /// Log entries fed through audit replay across all witnesses.
    pub entries_replayed: u64,
}

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

impl SweepRow {
    /// Control messages per application message.
    #[must_use]
    pub fn ctl_per_app(&self) -> f64 {
        if self.app_messages == 0 {
            0.0
        } else {
            self.control_messages as f64 / self.app_messages as f64
        }
    }

    /// Audit wire messages per node per audit round of the fault-free run
    /// (the drain pass that closes a finite run counts as one more audit
    /// round) — the overhead axis of the detection-latency frontier.
    #[must_use]
    pub fn audit_msgs_per_node_round(&self) -> f64 {
        let node_rounds = u64::from(self.point.nodes) * self.point.drained_audit_rounds();
        if node_rounds == 0 {
            0.0
        } else {
            self.audit_messages as f64 / node_rounds as f64
        }
    }

    /// Log entries fed through audit replay per node per audit round — the
    /// replay-work companion of [`SweepRow::audit_msgs_per_node_round`]:
    /// under full auditing it grows with the per-round traffic times the
    /// witness count (the O(w²) replay wall); sampling cuts it in
    /// proportion.
    #[must_use]
    pub fn replayed_per_node_round(&self) -> f64 {
        let node_rounds = u64::from(self.point.nodes) * self.point.drained_audit_rounds();
        if node_rounds == 0 {
            0.0
        } else {
            self.entries_replayed as f64 / node_rounds as f64
        }
    }

    /// The CSV record for this row (matches [`SWEEP_CSV_HEADER`]).
    #[must_use]
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.4},{},{},{},{},{},{:.1},{:.1},{:.1},{},{},{:.2},{},{},{},{:.2},{},{},{},{},{},{:.2}",
            self.point.app.label(),
            csv_field(&self.point.mode.label()),
            self.point.payload,
            self.point.nodes,
            self.witnesses,
            self.point.audit_period,
            self.point
                .engine
                .checkpoint_interval
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            self.point.rounds,
            self.point.messages_per_round,
            self.app_messages,
            self.control_messages,
            self.ctl_per_app(),
            self.piggybacked,
            self.challenges,
            self.log_entries,
            self.retained_entries,
            self.retained_bytes,
            self.audit_p50_us,
            self.audit_p99_us,
            self.app_p50_us,
            self.virtual_time_us,
            self.exposure_latency_rounds
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            self.point.churn_rate,
            self.point.partition_rounds,
            self.point
                .engine
                .audit_sample_size
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            self.point.engine.shards.max(1),
            self.audit_msgs_per_node_round(),
            self.detection_latency_rounds
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            self.log_app_entries,
            self.log_ctl_entries,
            self.log_audit_entries,
            self.entries_replayed,
            self.replayed_per_node_round()
        )
    }
}

/// Runs one fault-free sweep point and measures it.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_sweep_point(point: SweepPoint) -> Result<SweepRow, CoreError> {
    let deployment = Deployment::new(
        point.app,
        point.nodes,
        point.payload,
        point.run_engine(),
        FaultPlan::all_correct(),
    )?;
    let mut exposure_latency_rounds = None;
    let mut detection_latency_rounds = None;
    let outcome = match deployment {
        Deployment::PeerReview(mut pr) => {
            drive_sweep_peerreview(&mut pr, &point, None)?;
            let measured = outcome(&mut pr);
            // The measured deployment is not needed past its outcome; at
            // n = 10 000 it is most of the process's memory, and the twins
            // below are as large.
            drop(pr);
            // The detection twins: the same point with a seq-0 log tamperer
            // at node 1.
            let tamperer = 1u32.min(point.nodes.saturating_sub(1));
            let probe = |point: &SweepPoint| {
                let faults = FaultPlan::single(tamperer, NodeFault::TamperLogEntry { seq: 0 });
                exposure_latency(point, faults, tamperer)
            };
            let sampled = point.engine.audit_sample_size.is_some();
            // The full-audit twin is the baseline the sampled detection
            // column is compared against — but at n >= 10 000 a full-audit
            // run (every witness replaying every charge every round) is
            // exactly the wall the sampled-only rows exist to avoid, so the
            // column stays empty there instead of burning the row's
            // wall-clock budget on it.
            if !(sampled && point.nodes >= 10_000) {
                let mut full_audit = point;
                full_audit.engine.audit_sample_size = None;
                exposure_latency_rounds = probe(&full_audit)?;
            }
            // Under sampling the row's own detection latency differs from
            // the full-audit baseline; without it the twin would be
            // identical, so the second probe is skipped.
            detection_latency_rounds = if sampled {
                probe(&point)?
            } else {
                exposure_latency_rounds
            };
            measured
        }
        Deployment::Bft(mut system) => sweep_rounds(&mut system, &point, |system, _| {
            system.client_increment().map(drop)
        })?,
        Deployment::Cr(mut system) => {
            let value = vec![0u8; point.payload];
            sweep_rounds(&mut system, &point, |system, op| {
                system.put(&op.to_le_bytes(), &value).map(drop)
            })?
        }
        Deployment::A2m(mut system) => {
            let entry = vec![0u8; point.payload];
            sweep_rounds(&mut system, &point, |system, _| {
                system.append(&entry).map(drop)
            })?
        }
    };
    let stats = &outcome.stats;
    Ok(SweepRow {
        point,
        witnesses: outcome.verdicts.keys().filter(|&&(_, n)| n == 0).count() as u32,
        app_messages: stats.app_messages,
        control_messages: stats.control_messages,
        piggybacked: stats.piggybacked_commitments,
        challenges: stats.challenges,
        log_entries: stats.log_entries,
        retained_entries: stats.retained_log_entries,
        retained_bytes: stats.retained_log_bytes,
        audit_p50_us: stats.audit_latency.percentile_us(0.5),
        audit_p99_us: stats.audit_latency.percentile_us(0.99),
        app_p50_us: stats.app_latency.percentile_us(0.5),
        virtual_time_us: outcome.virtual_time_us,
        exposure_latency_rounds,
        audit_messages: stats.audit_messages,
        detection_latency_rounds,
        log_app_entries: stats.log_app_payload_entries,
        log_ctl_entries: stats.log_control_digest_entries,
        log_audit_entries: stats.log_audit_digest_entries,
        entries_replayed: stats.entries_replayed,
    })
}

/// A stacked (BFT / CR / A2M) sweep point: `op` `messages_per_round` times
/// a round, audited every `audit_period`, measured undrained.
fn sweep_rounds<D: Accountable>(
    system: &mut D,
    point: &SweepPoint,
    op: impl FnMut(&mut D, u64) -> Result<(), CoreError>,
) -> Result<ParityOutcome, CoreError> {
    system.run_rounds(
        point.rounds,
        point.audit_period,
        ops(point.messages_per_round, op),
    )?;
    Ok(outcome(system))
}

/// Drives a PeerReview sweep point's schedule on a built deployment: the
/// workload audited every `audit_period`, with crash-recover cycles at
/// [`SweepPoint::churn_rate`] on node 1 and/or a healed partition window
/// of [`SweepPoint::partition_rounds`] isolating node 1 where the point has
/// them. With a `target` the run is a detection-latency probe: it returns
/// the audit round at which every correct witness of the target held
/// `Exposed`, the pipeline drain counting as one more audit round. The
/// measured fault-free run of a churn-free point is left undrained, like
/// the stacked apps' rows.
fn drive_sweep_peerreview(
    pr: &mut PeerReview,
    point: &SweepPoint,
    target: Option<u32>,
) -> Result<Option<u64>, CoreError> {
    if point.partition_rounds > 0 {
        pr.cluster_mut()
            .set_partition(PartitionSchedule::new([1], 1, 1 + point.partition_rounds));
    }
    // A crash-recover cycle spans two audit rounds (down for one, back for
    // the next), so the cycle length is at least 2.
    let cycle = if point.churn_rate > 0.0 {
        ((1.0 / point.churn_rate).round() as u64).max(2)
    } else {
        0
    };
    let is_exposed = |pr: &PeerReview| target.is_some_and(|t| exposed(pr, t));
    let mut crashed = false;
    let found = drive(
        pr,
        point.rounds,
        point.audit_period,
        |pr, _| pr.run_workload(point.messages_per_round),
        |pr, audit_round| {
            if is_exposed(pr) {
                return Ok(true);
            }
            if cycle > 0 {
                if crashed {
                    pr.recover_node(1)?;
                    crashed = false;
                } else if (audit_round - 1) % cycle == 0 {
                    pr.crash_node(1);
                    crashed = true;
                }
            }
            Ok(false)
        },
    )?;
    if found.is_some() || !(target.is_some() || point.has_churn()) {
        return Ok(found);
    }
    if crashed {
        pr.recover_node(1)?;
    }
    pr.drain_audits()?;
    Ok(is_exposed(pr).then(|| point.drained_audit_rounds()))
}

/// The detection latency of `point`'s configuration under `faults`: a
/// PeerReview deployment of the point's shape (including any churn or
/// partition schedule) driven until every correct witness of `target`
/// exposes it, in *audit* rounds; `None` when the point's round budget ends
/// first.
fn exposure_latency(
    point: &SweepPoint,
    faults: FaultPlan,
    target: u32,
) -> Result<Option<u64>, CoreError> {
    let mut pr = peerreview(point.nodes, point.payload, point.run_engine(), faults)?;
    drive_sweep_peerreview(&mut pr, point, Some(target))
}

// ---- verdict-parity harness ---------------------------------------------

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

/// A scripted membership/partition schedule applied between the rounds of
/// a [`ParitySpec`] run (see [`run_verdict_matrix`]).
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// `(after_round, action)` pairs: each action fires once that many
    /// workload+audit rounds have completed (0 = before the first round).
    pub actions: Vec<(u64, ChurnAction)>,
    /// Partition schedule installed on the cluster before the run (its
    /// rounds count *audit* rounds).
    pub partition: Option<PartitionSchedule>,
}

impl ChurnPlan {
    /// The actions scheduled to fire after `round` completed rounds.
    fn at(&self, round: u64) -> impl Iterator<Item = &ChurnAction> {
        self.actions
            .iter()
            .filter(move |(r, _)| *r == round)
            .map(|(_, a)| a)
    }
}

/// One accountable run to drive for verdict comparison: any accounted
/// application × fault plan × engine configuration, optionally behind a
/// packet-level adversary or a scripted churn plan, compared against a
/// *twin* run (clean network, different commit mode, no checkpointing, …)
/// with [`assert_verdict_parity`].
#[derive(Debug, Clone)]
pub struct ParitySpec {
    /// The workload under audit.
    pub app: SweepApp,
    /// Injected node-level Byzantine behaviours.
    pub faults: FaultPlan,
    /// Cluster size (BFT derives `f` from it; clamped per app).
    pub nodes: u32,
    /// Rounds of workload + audit.
    pub rounds: u64,
    /// Application operations per round.
    pub ops_per_round: u64,
    /// Packet-level adversary installed on the delivery path.
    pub adversary: Option<Adversary>,
    /// Scripted membership churn applied between rounds. Crash/recover is
    /// supported on the PeerReview and chain-replication substrates;
    /// join/leave on PeerReview only (the harness panics otherwise).
    pub churn: Option<ChurnPlan>,
    /// Drain the piggyback audit pipeline at the end of the run.
    pub drain: bool,
    /// The determinism seed (twin runs must share it), the commit mode and
    /// every audit knob of the run — [`ParitySpec::new`] takes them from a
    /// [`CommitMode`]; a twin axis is one field updated on top.
    pub engine: EngineConfig,
}

impl ParitySpec {
    /// A 4-node, 3-round × 8-ops spec with the defaults twin runs share.
    #[must_use]
    pub fn new(app: SweepApp, mode: CommitMode, faults: FaultPlan) -> Self {
        ParitySpec {
            app,
            faults,
            nodes: 4,
            rounds: 3,
            ops_per_round: 8,
            adversary: None,
            churn: None,
            drain: true,
            engine: mode.engine_config(SEED),
        }
    }
}

/// Runs one accountable deployment per the spec and collects its verdict
/// matrix (over the run's final witness sets), evidence labels and
/// counters.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
///
/// # Panics
///
/// Panics if [`ParitySpec::churn`] asks for an action the app does not
/// support: crash/recover exist on the PeerReview and chain-replication
/// substrates, join/leave on PeerReview only.
pub fn run_verdict_matrix(spec: &ParitySpec) -> Result<ParityOutcome, CoreError> {
    let mut deployment =
        Deployment::new(spec.app, spec.nodes, 0, spec.engine, spec.faults.clone())?;
    // Per system: a round of the parity workload, and what a scripted churn
    // action means on it.
    let per_round = spec.ops_per_round;
    match &mut deployment {
        Deployment::PeerReview(pr) => parity_rounds(
            pr,
            spec,
            |pr, _| pr.run_workload(per_round),
            |pr, action| match action {
                ChurnAction::Crash { node } => {
                    pr.crash_node(node);
                    Ok(())
                }
                ChurnAction::Recover { node } => pr.recover_node(node),
                ChurnAction::Join { id } => pr.join_node(id),
                ChurnAction::Leave { node } => pr.depart_node(node),
            },
        ),
        Deployment::Bft(system) => parity_rounds(
            system,
            spec,
            ops(per_round, |system: &mut BftCounter, _| {
                system.client_increment().map(drop)
            }),
            |_, action| panic!("{action:?}: the BFT counter has no churn support"),
        ),
        // Crash = fail-over out of the chain, recover = rejoin as the tail.
        Deployment::Cr(system) => parity_rounds(
            system,
            spec,
            ops(per_round, |system: &mut ChainReplication, op| {
                system.put(&op.to_le_bytes(), b"value").map(drop)
            }),
            |system, action| match action {
                ChurnAction::Crash { node } => {
                    system.fail_over(NodeId(node));
                    Ok(())
                }
                ChurnAction::Recover { node } => system.rejoin(NodeId(node)),
                ChurnAction::Join { .. } | ChurnAction::Leave { .. } => {
                    panic!("join/leave churn is only supported on the PeerReview substrate")
                }
            },
        ),
        Deployment::A2m(system) => parity_rounds(
            system,
            spec,
            ops(per_round, |system: &mut AccountableA2m, op| {
                system.append(format!("entry-{op}").as_bytes()).map(drop)
            }),
            |_, action| panic!("{action:?}: the replicated A2M has no churn support"),
        ),
    }
}

/// The app-independent half of [`run_verdict_matrix`]: installs the spec's
/// adversary and partition schedule on the cluster, then runs its rounds of
/// `work` with an audit round each, applying the churn plan through `churn`
/// between rounds — exactly where an operator would.
fn parity_rounds<D: Accountable>(
    system: &mut D,
    spec: &ParitySpec,
    work: impl FnMut(&mut D, u64) -> Result<(), CoreError>,
    mut churn: impl FnMut(&mut D, ChurnAction) -> Result<(), CoreError>,
) -> Result<ParityOutcome, CoreError> {
    let cluster = system.parts().1;
    if let Some(adversary) = spec.adversary.clone() {
        cluster.set_adversary(adversary, spec.engine.seed ^ 0xAD5A);
    }
    if let Some(schedule) = spec.churn.as_ref().and_then(|plan| plan.partition.clone()) {
        cluster.set_partition(schedule);
    }
    let mut apply_churn = |system: &mut D, completed_rounds: u64| -> Result<bool, CoreError> {
        for action in spec.churn.iter().flat_map(|plan| plan.at(completed_rounds)) {
            churn(system, *action)?;
        }
        Ok(false)
    };
    apply_churn(system, 0)?;
    drive(system, spec.rounds, 1, work, apply_churn)?;
    if spec.drain {
        system.drain_audits()?;
    }
    Ok(outcome(system))
}

// ---- membership-churn robustness scenarios ------------------------------

/// One membership-churn robustness scenario: a scripted [`ChurnPlan`]
/// (plus an optional fault plan) driven through [`run_verdict_matrix`],
/// with the verdict-settle delay measured in audit rounds beyond the churn
/// schedule.
#[derive(Debug, Clone)]
pub struct ChurnScenario {
    /// Display name (`churn/…`).
    pub name: &'static str,
    /// The substrate under churn ([`SweepApp::PeerReview`] or
    /// [`SweepApp::Cr`]).
    pub app: SweepApp,
    /// Cluster size before any join.
    pub nodes: u32,
    /// Injected node-level Byzantine behaviours.
    pub faults: FaultPlan,
    /// The scripted membership/partition schedule.
    pub churn: ChurnPlan,
    /// Challenge retries configured for the run (bridges partition and
    /// crash windows without a false downgrade).
    pub challenge_retries: u32,
    /// Rounds by which every churn action has fired and any partition has
    /// healed; the settle delay counts rounds beyond this.
    pub settle_round: u64,
    /// Node expected `Exposed` at every correct witness (tamper cases).
    pub expected_exposed: Option<u32>,
    /// Correct nodes that end the run down for good (failed-over, never
    /// recovered): they may settle as `Suspected` — silence is never
    /// proof — but must never be `Exposed`.
    pub allow_suspected: Vec<u32>,
}

impl ChurnScenario {
    /// The churn robustness suite exercised by `reproduce`: crash-rejoin
    /// (honest and tampering), partition-heal, join, leave (honest and
    /// tampering) on the PeerReview substrate, plus head/middle/tail
    /// fail-over and fail-over-rejoin for the chain-replication app.
    #[must_use]
    pub fn suite() -> Vec<ChurnScenario> {
        let pr = |name, faults, actions: Vec<(u64, ChurnAction)>, settle_round| ChurnScenario {
            name,
            app: SweepApp::PeerReview,
            nodes: 4,
            faults,
            churn: ChurnPlan {
                actions,
                partition: None,
            },
            challenge_retries: 0,
            settle_round,
            expected_exposed: None,
            allow_suspected: Vec::new(),
        };
        let cr_failover = |name, node| ChurnScenario {
            name,
            app: SweepApp::Cr,
            nodes: 3,
            faults: FaultPlan::all_correct(),
            churn: ChurnPlan {
                actions: vec![(1, ChurnAction::Crash { node })],
                partition: None,
            },
            challenge_retries: 0,
            settle_round: 2,
            expected_exposed: None,
            // The failed-over replica never recovers: its witnesses may
            // keep it suspected (silence is not proof) but never exposed.
            allow_suspected: vec![node],
        };
        let crash_rejoin = vec![
            (1, ChurnAction::Crash { node: 1 }),
            (2, ChurnAction::Recover { node: 1 }),
        ];
        vec![
            pr(
                "churn/crash-rejoin",
                FaultPlan::all_correct(),
                crash_rejoin.clone(),
                3,
            ),
            {
                let mut s = pr(
                    "churn/crash-rejoin-tamper",
                    FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
                    crash_rejoin,
                    3,
                );
                s.expected_exposed = Some(1);
                s
            },
            {
                let mut s = pr("churn/partition-heal", FaultPlan::all_correct(), vec![], 4);
                s.churn.partition = Some(PartitionSchedule::new([1], 1, 3));
                s.challenge_retries = 3;
                s
            },
            pr(
                "churn/join",
                FaultPlan::all_correct(),
                vec![(1, ChurnAction::Join { id: 4 })],
                3,
            ),
            pr(
                "churn/leave",
                FaultPlan::all_correct(),
                vec![(2, ChurnAction::Leave { node: 2 })],
                3,
            ),
            {
                let mut s = pr(
                    "churn/leave-tamper",
                    FaultPlan::single(2, NodeFault::TamperLogEntry { seq: 0 }),
                    vec![(2, ChurnAction::Leave { node: 2 })],
                    3,
                );
                s.expected_exposed = Some(2);
                s
            },
            cr_failover("churn/cr-failover-head", 0),
            cr_failover("churn/cr-failover-middle", 1),
            cr_failover("churn/cr-failover-tail", 2),
            {
                let mut s = cr_failover("churn/cr-failover-rejoin", 1);
                s.churn.actions.push((2, ChurnAction::Recover { node: 1 }));
                s.settle_round = 3;
                s.allow_suspected.clear();
                s
            },
        ]
    }

    /// The [`ParitySpec`] of this scenario over `mode` with a total round
    /// budget of `rounds`.
    #[must_use]
    pub fn spec(&self, mode: CommitMode, rounds: u64) -> ParitySpec {
        let mut spec = ParitySpec::new(self.app, mode, self.faults.clone());
        spec.nodes = self.nodes;
        spec.rounds = rounds;
        spec.engine.challenge_retries = self.challenge_retries;
        spec.churn = Some(self.churn.clone());
        spec
    }

    /// Whether the verdicts have settled: every correct pair back to
    /// `Trusted` (permanently-down nodes may stay `Suspected`) and the
    /// expected tamperer, if any, `Exposed` at every correct witness.
    #[must_use]
    pub fn settled(&self, outcome: &ParityOutcome) -> bool {
        let clean = outcome.verdicts.iter().all(|(&(w, n), &v)| {
            if outcome.byzantine.contains(&w) || outcome.byzantine.contains(&n) {
                return true;
            }
            if self.allow_suspected.contains(&n) {
                v != Verdict::Exposed
            } else {
                v == Verdict::Trusted
            }
        });
        clean && self.expected_exposed.is_none_or(|t| outcome.exposed(t))
    }
}

/// The measured outcome of one churn scenario in one commit mode.
#[derive(Debug, Clone)]
pub struct ChurnScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Commitment mode of the run.
    pub mode: CommitMode,
    /// Aggregate verdict label reached by the correct witnesses.
    pub verdict: &'static str,
    /// The expected verdict label.
    pub expected: &'static str,
    /// Whether the verdicts settled within the round budget.
    pub settled: bool,
    /// Audit rounds beyond the churn schedule until the verdicts settled
    /// (`None` = never within the budget).
    pub settle_delay_rounds: Option<u64>,
    /// No correct node was ever exposed at a correct witness (exposure is
    /// permanent, so the final matrix covers the whole run).
    pub accuracy: bool,
    /// Joins performed.
    pub joins: u64,
    /// Graceful departures performed.
    pub departures: u64,
    /// Crash-stops injected.
    pub crashes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Challenge re-sends by the retry/backoff machinery.
    pub challenge_retries: u64,
    /// Sends refused because an endpoint was down.
    pub messages_unreachable: u64,
    /// Sends refused by an open partition cut.
    pub messages_partitioned: u64,
}

/// The most severe verdict any correct witness holds over any correct
/// node outside `skip` (nodes that legitimately end the run down).
fn worst_correct_verdict(outcome: &ParityOutcome, skip: &[u32]) -> Verdict {
    outcome
        .verdicts
        .iter()
        .filter(|(&(w, n), _)| {
            !outcome.byzantine.contains(&w) && !outcome.byzantine.contains(&n) && !skip.contains(&n)
        })
        .map(|(_, &v)| v)
        .max_by_key(|&v| verdict_rank(v))
        .unwrap_or(Verdict::Trusted)
}

/// Runs one churn scenario in `mode`, growing the round budget one audit
/// round at a time past the churn schedule (up to `max_extra_rounds`
/// beyond it) until the verdicts settle — the measured settle delay is the
/// robustness analogue of the exposure-latency probe. Every probe run is a
/// fresh deterministic deployment of the same spec, so the final outcome
/// is exactly the reported run.
///
/// # Errors
///
/// Propagates cluster/session errors from the runs.
pub fn run_churn_scenario(
    scenario: &ChurnScenario,
    mode: CommitMode,
    max_extra_rounds: u64,
) -> Result<ChurnScenarioResult, CoreError> {
    let mut settle_delay = None;
    let mut outcome = None;
    for extra in 0..=max_extra_rounds {
        let run = run_verdict_matrix(&scenario.spec(mode, scenario.settle_round + extra))?;
        let settled = scenario.settled(&run);
        outcome = Some(run);
        if settled {
            settle_delay = Some(extra);
            break;
        }
    }
    let outcome = outcome.expect("the round-budget loop runs at least once");
    let accuracy = outcome.verdicts.iter().all(|(&(w, n), &v)| {
        outcome.byzantine.contains(&w) || outcome.byzantine.contains(&n) || v != Verdict::Exposed
    });
    let verdict = match scenario.expected_exposed {
        Some(t) if outcome.exposed(t) => "exposed",
        Some(_) => "NOT exposed",
        None => worst_correct_verdict(&outcome, &scenario.allow_suspected).label(),
    };
    let expected = if scenario.expected_exposed.is_some() {
        "exposed"
    } else {
        "trusted"
    };
    Ok(ChurnScenarioResult {
        name: scenario.name,
        mode,
        verdict,
        expected,
        settled: settle_delay.is_some(),
        settle_delay_rounds: settle_delay,
        accuracy,
        joins: outcome.stats.joins,
        departures: outcome.stats.departures,
        crashes: outcome.stats.crashes,
        recoveries: outcome.stats.recoveries,
        challenge_retries: outcome.stats.challenge_retries,
        messages_unreachable: outcome.messages_unreachable,
        messages_partitioned: outcome.messages_partitioned,
    })
}

/// Renders the churn-robustness results table.
#[must_use]
pub fn render_churn_table(results: &[ChurnScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<15} {:<12} {:<10} {:>6} {:>9} {:>13} {:>7} {:>7} {:>6}\n",
        "scenario",
        "mode",
        "verdict",
        "expected",
        "delay",
        "accuracy",
        "j/l/c/r",
        "retry",
        "unrch",
        "part"
    ));
    out.push_str(&"-".repeat(122));
    out.push('\n');
    for r in results {
        out.push_str(&format!(
            "{:<26} {:<15} {:<12} {:<10} {:>6} {:>9} {:>13} {:>7} {:>7} {:>6}\n",
            r.name,
            r.mode.label(),
            r.verdict,
            r.expected,
            r.settle_delay_rounds
                .map_or_else(|| "never".to_string(), |d| format!("+{d}")),
            if r.accuracy { "ok" } else { "FAIL" },
            format!(
                "{}/{}/{}/{}",
                r.joins, r.departures, r.crashes, r.recoveries
            ),
            r.challenge_retries,
            r.messages_unreachable,
            r.messages_partitioned
        ));
    }
    out
}

/// Drives a 4-node PeerReview deployment (8 messages per round, one audit
/// round each) under `faults` and returns the number of audit rounds
/// until every *current correct witness* of `target` holds an `Exposed`
/// verdict — the detection latency of whatever fault the plan injects.
/// Returns `None` when exposure is not reached within `max_rounds` (the
/// drain round that closes the piggyback pipeline tail counts as one more
/// round).
///
/// This is the completeness-cost probe for Byzantine audit witnesses: a
/// relay-refusing or gossip-withholding witness delays commitment
/// propagation to its fellows, and the rotating direct announcements bound
/// that delay — measured here, gated in `reproduce --check` via
/// `--max-exposure-latency-rounds`.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn measure_exposure_latency(
    mode: CommitMode,
    faults: FaultPlan,
    target: u32,
    max_rounds: u64,
) -> Result<Option<u64>, CoreError> {
    let point = SweepPoint {
        payload: 0,
        rounds: max_rounds,
        ..SweepPoint::new(SweepApp::PeerReview, mode)
    };
    exposure_latency(&point, faults, target)
}

/// One row of the sampled-auditing scaling probe driven by `reproduce`:
/// an 8-node piggyback deployment measured fault-free for the traffic
/// half, plus a seq-0 log-tamperer twin for the detection half.
#[derive(Debug, Clone)]
pub struct SampledProbeRow {
    /// Probe label (`full audit`, `sampled (k=1)`, …).
    pub label: String,
    /// Charges each witness audits per round (`None` = full audit).
    pub audit_sample_size: Option<u32>,
    /// Audit wire messages per node per audit round of the fault-free run
    /// (the drain pass counts as one more audit round).
    pub audit_msgs_per_node_round: f64,
    /// Transport messages that carried audit traffic
    /// (`ClusterStats::messages_audit`).
    pub messages_audit: u64,
    /// Audit elements that rode a batched envelope instead of their own
    /// message (`ClusterStats::messages_batched`).
    pub messages_batched: u64,
    /// Audit rounds until every correct witness exposed the tamperer twin
    /// (`None` = never within the probe's round budget).
    pub detection_latency_rounds: Option<u64>,
}

/// Runs one sampled-auditing scaling probe configuration: 8 nodes,
/// piggybacked commitments over rotating 3-witness sets, 8 audit rounds ×
/// 8 messages. Full audit (`None`) is the baseline the sampled rows are
/// compared against; `coverage_window` forces every pair to be audited at
/// least once per window on top of the rotating sample.
///
/// # Errors
///
/// Propagates cluster/session errors from the runs.
pub fn run_sampled_probe(
    audit_sample_size: Option<u32>,
    coverage_window: u64,
) -> Result<SampledProbeRow, CoreError> {
    const ROUNDS: u64 = 8;
    let mode = CommitMode::Piggyback { witnesses: 3 };
    let point = SweepPoint {
        nodes: 8,
        payload: 0,
        rounds: ROUNDS,
        engine: EngineConfig {
            audit_sample_size,
            audit_coverage_window: coverage_window,
            ..mode.engine_config(SEED)
        },
        ..SweepPoint::new(SweepApp::PeerReview, mode)
    };
    let mut pr = peerreview(
        point.nodes,
        point.payload,
        point.engine,
        FaultPlan::all_correct(),
    )?;
    pr.run_scenario(point.rounds, point.messages_per_round)?;
    let fault_free = outcome(&mut pr);
    let twin = SweepPoint {
        rounds: 4 * (ROUNDS + coverage_window),
        ..point
    };
    let tamperer = FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 });
    Ok(SampledProbeRow {
        label: audit_sample_size
            .map_or_else(|| "full audit".to_string(), |k| format!("sampled (k={k})")),
        audit_sample_size,
        audit_msgs_per_node_round: fault_free.stats.audit_messages as f64
            / (u64::from(point.nodes) * point.drained_audit_rounds()) as f64,
        messages_audit: fault_free.messages_audit,
        messages_batched: fault_free.messages_batched,
        detection_latency_rounds: exposure_latency(&twin, tamperer, 1)?,
    })
}

/// Every `(witness, node)` verdict divergence between a run and its twin,
/// formatted for assertion messages (empty = exact parity). Pairs present
/// in only one run (rotation can change the final witness relation) are
/// compared against `Trusted`.
#[must_use]
pub fn verdict_divergences(subject: &ParityOutcome, twin: &ParityOutcome) -> Vec<String> {
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
pub fn assert_verdict_parity(subject: &ParityOutcome, twin: &ParityOutcome, context: &str) {
    let divergences = verdict_divergences(subject, twin);
    assert!(
        divergences.is_empty(),
        "{context}: verdicts diverge from the twin:\n  {}",
        divergences.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_fault_class_once() {
        let suite = Scenario::suite();
        assert_eq!(suite.len(), 10);
        assert_eq!(
            suite.iter().filter(|s| !s.fault.is_byzantine()).count(),
            1,
            "exactly one control run"
        );
        assert_eq!(
            suite.iter().filter(|s| s.fault.is_witness_fault()).count(),
            5,
            "every audit-side witness fault has a row"
        );
        // Only the forging accuser is provable among the witness faults.
        for s in &suite {
            if s.fault.is_witness_fault() {
                let expected = if s.fault == NodeFault::ForgeEvidence {
                    "exposed"
                } else {
                    "trusted"
                };
                assert_eq!(s.expected_verdict(), expected, "{}", s.name);
            }
        }
        assert!(!Scenario::suite()[5].requires_unanimity());
    }

    #[test]
    fn scenario_runner_classifies_equivocation() {
        let scenario = &Scenario::suite()[1];
        assert_eq!(scenario.name, "equivocation");
        let result = run_scenario(scenario, Baseline::Tnic).unwrap();
        assert_eq!(result.verdict, "exposed");
        assert!(result.unanimous);
        assert!(result.control_messages > 0);
    }

    #[test]
    fn every_fault_scenario_keeps_its_verdict_in_both_commit_modes() {
        for scenario in Scenario::suite() {
            let expected = scenario.expected_verdict();
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let result = run_scenario_mode(&scenario, Baseline::Tnic, mode).unwrap();
                assert_eq!(
                    result.verdict,
                    expected,
                    "{} in {}",
                    scenario.name,
                    mode.label()
                );
                if scenario.requires_unanimity() {
                    assert!(result.unanimous, "{} in {}", scenario.name, mode.label());
                }
                assert!(
                    result.accuracy,
                    "{} in {}: a correct node lost its clean record",
                    scenario.name,
                    mode.label()
                );
            }
        }
    }

    #[test]
    fn every_baseline_reads_its_pinned_virtual_time() {
        // `BENCH_report.json` commits TNIC rows only; this pins what the
        // five host baselines charge for the same two runs, to the µs.
        let pinned = [
            (Baseline::SslLib, 1_300, 1_210),
            (Baseline::SslServerIntel, 2_781, 2_611),
            (Baseline::SslServerAmd, 5_794, 5_463),
            (Baseline::Sgx, 8_213, 7_755),
            (Baseline::AmdSev, 15_840, 15_021),
            (Baseline::Tnic, 2_695, 2_498),
        ];
        let suite = Scenario::suite();
        let mode = CommitMode::Piggyback { witnesses: 2 };
        for (baseline, fault_free_us, exec_tampering_us) in pinned {
            for (name, virtual_time_us, control, replayed) in [
                ("fault-free", fault_free_us, 40, 136),
                ("exec-tampering", exec_tampering_us, 36, 114),
            ] {
                let scenario = suite.iter().find(|s| s.name == name).unwrap();
                let result = run_scenario_mode(scenario, baseline, mode).unwrap();
                assert_eq!(
                    result.virtual_time_us, virtual_time_us,
                    "{name} on {baseline}"
                );
                // The baseline moves the clock and nothing else.
                assert_eq!(result.control_messages, control, "{name} on {baseline}");
                assert_eq!(result.entries_replayed, replayed, "{name} on {baseline}");
            }
        }
    }

    #[test]
    fn relay_refusing_witness_costs_bounded_detection_latency() {
        let mode = CommitMode::Piggyback { witnesses: 2 };
        let tamper = FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 });
        let baseline = measure_exposure_latency(mode, tamper.clone(), 1, 8)
            .unwrap()
            .expect("tamperer exposed on a clean witness set");
        for witness_fault in [
            NodeFault::WithholdGossip,
            NodeFault::RefuseRelay,
            NodeFault::SilentWitness,
        ] {
            let mut faults = tamper.clone();
            faults.set(2, witness_fault);
            let delayed = measure_exposure_latency(mode, faults, 1, 8)
                .unwrap()
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
        let scenario = &Scenario::suite()[0];
        let dedicated = run_scenario(scenario, Baseline::Tnic).unwrap();
        let piggy = run_scenario_mode(
            scenario,
            Baseline::Tnic,
            CommitMode::Piggyback { witnesses: 2 },
        )
        .unwrap();
        assert!(
            piggy.overhead_ratio <= 2.0,
            "ctl/app {:.2} exceeds 2.0",
            piggy.overhead_ratio
        );
        assert!(piggy.overhead_ratio < dedicated.overhead_ratio / 3.0);
        assert!(piggy.piggybacked > 0);
        assert_eq!(dedicated.piggybacked, 0);
    }

    #[test]
    fn sweep_rows_report_the_swept_parameters() {
        let row = run_sweep_point(SweepPoint {
            payload: 256,
            audit_period: 2,
            ..SweepPoint::new(SweepApp::PeerReview, CommitMode::Piggyback { witnesses: 2 })
        })
        .unwrap();
        assert_eq!(row.witnesses, 2);
        assert_eq!(row.app_messages, 32);
        assert!(row.piggybacked > 0);
        let csv = row.to_csv();
        assert!(csv.starts_with("peerreview,piggyback(w=2),256,4,2,2,-,4,8,32,"));
        let cols: Vec<&str> = csv.split(',').collect();
        let headers: Vec<&str> = SWEEP_CSV_HEADER.split(',').collect();
        assert_eq!(cols.len(), headers.len(), "row matches header arity");
        let col = |name: &str| cols[headers.iter().position(|h| *h == name).unwrap()];
        assert_eq!(col("churn_rate"), "0.00");
        assert_eq!(col("partition_rounds"), "0");
        assert_eq!(col("audit_sample_size"), "-", "full audit prints a dash");
        assert_eq!(col("shards"), "1");
        assert!(
            col("audit_msgs_per_node_round").parse::<f64>().unwrap() > 0.0,
            "audits actually ran: {csv}"
        );
        assert_eq!(
            col("detection_latency_rounds"),
            col("exposure_latency_rounds"),
            "without sampling the two latency columns coincide"
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
            CommitMode::Piggyback { witnesses: 2 },
            CommitMode::Checkpointed {
                witnesses: 2,
                interval: 2,
            },
        ] {
            let row = run_sweep_point(SweepPoint {
                nodes: 3,
                messages_per_round: 4,
                ..SweepPoint::new(SweepApp::Cr, mode)
            })
            .unwrap();
            let fields = split_csv_record(&row.to_csv());
            assert_eq!(fields.len(), columns, "{}", mode.label());
            assert_eq!(fields[1], mode.label(), "the label survives the quoting");
        }
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,\"b\""), "\"a,\"\"b\"\"\"");
    }

    #[test]
    fn bft_and_cr_sweep_points_measure_the_stacked_engine() {
        for app in [SweepApp::Bft, SweepApp::Cr, SweepApp::A2m] {
            let row = run_sweep_point(SweepPoint {
                nodes: 3,
                rounds: 3,
                messages_per_round: 4,
                ..SweepPoint::new(app, CommitMode::Piggyback { witnesses: 2 })
            })
            .unwrap();
            assert_eq!(row.witnesses, 2, "{app:?}");
            assert!(row.app_messages > 0, "{app:?}");
            assert!(row.challenges > 0, "{app:?}: audits actually ran");
            assert!(row.log_entries > 0, "{app:?}");
            let csv = row.to_csv();
            assert!(csv.starts_with(app.label()), "{app:?}");
            assert_eq!(csv.split(',').count(), SWEEP_CSV_HEADER.split(',').count());
        }
    }

    #[test]
    fn churn_suite_settles_cleanly_in_both_modes() {
        // The acceptance matrix of the robustness claim: crash-rejoin,
        // partition-heal, join, leave and chain fail-over — honest and
        // tampering — in both commit modes. No correct node is ever
        // exposed, tampering churners always are, and verdicts settle
        // within the CI bound.
        for scenario in ChurnScenario::suite() {
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let result = run_churn_scenario(&scenario, mode, 8).unwrap();
                assert!(
                    result.accuracy,
                    "{} [{}]: a correct node was exposed under churn",
                    scenario.name,
                    mode.label()
                );
                assert_eq!(
                    result.verdict,
                    result.expected,
                    "{} [{}]",
                    scenario.name,
                    mode.label()
                );
                let delay = result.settle_delay_rounds.unwrap_or_else(|| {
                    panic!(
                        "{} [{}]: verdicts never settled",
                        scenario.name,
                        mode.label()
                    )
                });
                assert!(
                    delay <= 6,
                    "{} [{}]: settle delay {delay} exceeds the CI bound",
                    scenario.name,
                    mode.label()
                );
            }
        }
    }

    #[test]
    fn churn_runs_keep_verdict_parity_across_commit_modes() {
        // A crash-rejoin schedule must classify identically whether
        // commitments are dedicated or piggybacked — churn does not break
        // the commit-mode equivalence the parity harness asserts elsewhere.
        let churn = ChurnPlan {
            actions: vec![
                (1, ChurnAction::Crash { node: 1 }),
                (2, ChurnAction::Recover { node: 1 }),
            ],
            partition: None,
        };
        let mut dedicated = ParitySpec::new(
            SweepApp::PeerReview,
            CommitMode::Dedicated,
            FaultPlan::all_correct(),
        );
        dedicated.rounds = 4;
        dedicated.churn = Some(churn);
        let mut piggyback = dedicated.clone();
        piggyback.engine = CommitMode::Piggyback { witnesses: 2 }.engine_config(SEED);
        let a = run_verdict_matrix(&dedicated).unwrap();
        let b = run_verdict_matrix(&piggyback).unwrap();
        assert!(a.stats.crashes == 1 && a.stats.recoveries == 1);
        assert!(
            a.messages_unreachable > 0,
            "crash window must refuse (and count) sends, not lose them"
        );
        assert_verdict_parity(&a, &b, "crash-rejoin dedicated vs piggyback");
    }

    #[test]
    fn churned_sweep_points_carry_the_new_columns_and_still_detect() {
        // Crash-recover churn cycles.
        let churned = run_sweep_point(SweepPoint {
            rounds: 8,
            churn_rate: 0.25,
            ..SweepPoint::new(SweepApp::PeerReview, CommitMode::Piggyback { witnesses: 2 })
        })
        .unwrap();
        let csv = churned.to_csv();
        assert!(csv.contains(",0.25,0,"), "{csv}");
        assert_eq!(csv.split(',').count(), SWEEP_CSV_HEADER.split(',').count());
        assert!(
            churned.exposure_latency_rounds.is_some(),
            "the tamperer twin must still be detected under churn"
        );
        // A healed partition window.
        let partitioned = run_sweep_point(SweepPoint {
            rounds: 8,
            partition_rounds: 2,
            ..SweepPoint::new(SweepApp::PeerReview, CommitMode::Dedicated)
        })
        .unwrap();
        let csv = partitioned.to_csv();
        assert!(csv.contains(",0.00,2,"), "{csv}");
        assert!(
            partitioned.exposure_latency_rounds.is_some(),
            "detection must land once the partition heals"
        );
    }

    #[test]
    fn sampled_sharded_event_driven_point_cuts_audit_traffic() {
        // The scaling-frontier columns at a mid-size point: sampling with
        // sharded witnesses trades bounded detection latency for audit
        // traffic.
        let mut base = SweepPoint {
            nodes: 12,
            rounds: 6,
            messages_per_round: 12,
            ..SweepPoint::new(SweepApp::PeerReview, CommitMode::Piggyback { witnesses: 4 })
        };
        base.engine.shards = 2;
        let full = run_sweep_point(base).unwrap();
        let mut sampled = SweepPoint { rounds: 10, ..base };
        sampled.engine.audit_sample_size = Some(1);
        let sampled = run_sweep_point(sampled).unwrap();
        assert!(full.audit_msgs_per_node_round() > 0.0);
        assert!(
            sampled.audit_msgs_per_node_round() < full.audit_msgs_per_node_round() / 2.0,
            "sampling must cut audit traffic: {} vs {}",
            sampled.audit_msgs_per_node_round(),
            full.audit_msgs_per_node_round()
        );
        let full_latency = full
            .detection_latency_rounds
            .expect("full audit detects the twin tamperer");
        let sampled_latency = sampled
            .detection_latency_rounds
            .expect("sampling still detects the twin tamperer");
        assert!(
            sampled_latency >= full_latency,
            "sampling can only delay detection: {sampled_latency} vs {full_latency}"
        );
        let csv = sampled.to_csv();
        let cols: Vec<&str> = csv.split(',').collect();
        let headers: Vec<&str> = SWEEP_CSV_HEADER.split(',').collect();
        assert_eq!(cols.len(), headers.len());
        let col = |name: &str| cols[headers.iter().position(|h| *h == name).unwrap()];
        assert_eq!(col("audit_sample_size"), "1");
        assert_eq!(col("shards"), "2");
        assert_eq!(col("detection_latency_rounds"), sampled_latency.to_string());
    }

    #[test]
    fn event_driven_and_sampled_churn_runs_keep_verdict_parity() {
        // The churned half of the sampling claim: under a crash-rejoin
        // schedule sampled auditing settles to the same final verdicts as
        // the full audit — in both commit modes, honest and tampering.
        let plans = [
            FaultPlan::all_correct(),
            FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
        ];
        for mode in [
            CommitMode::Dedicated,
            CommitMode::Piggyback { witnesses: 2 },
        ] {
            for faults in &plans {
                let mut base = ParitySpec::new(SweepApp::PeerReview, mode, faults.clone());
                base.rounds = 6;
                base.engine.challenge_retries = 2;
                base.churn = Some(ChurnPlan {
                    actions: vec![
                        (1, ChurnAction::Crash { node: 2 }),
                        (2, ChurnAction::Recover { node: 2 }),
                    ],
                    partition: None,
                });
                let full = run_verdict_matrix(&base).unwrap();
                let mut spec = base.clone();
                spec.engine.audit_sample_size = Some(1);
                let sampled = run_verdict_matrix(&spec).unwrap();
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
                    let point = SweepPoint {
                        nodes: 6,
                        payload: 0,
                        rounds: 4 * (window + slack),
                        engine: EngineConfig {
                            audit_sample_size: Some(sample_size),
                            audit_sample_seed: sample_seed,
                            audit_coverage_window: window,
                            witness_count: if rotate { Some(3) } else { None },
                            checkpoint_interval: if rotate { Some(2) } else { None },
                            rotate_witnesses: rotate,
                            ..EngineConfig::default()
                        },
                        ..SweepPoint::new(SweepApp::PeerReview, CommitMode::Dedicated)
                    };
                    let tamperer = FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 });
                    let latency = exposure_latency(&point, tamperer, 1)
                        .unwrap()
                        .unwrap_or_else(|| {
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
        let suite = AcctScenario::suite();
        assert_eq!(suite.len(), 6);
        for app in [SweepApp::Bft, SweepApp::Cr, SweepApp::A2m] {
            assert_eq!(
                suite
                    .iter()
                    .filter(|s| s.app == app && s.fault.is_none())
                    .count(),
                1,
                "one control run per app"
            );
            assert_eq!(
                suite
                    .iter()
                    .filter(|s| s.app == app && s.fault.is_some())
                    .count(),
                1,
                "one Byzantine run per app"
            );
        }
    }

    #[test]
    fn acct_scenarios_classify_and_keep_protocol_health_in_both_modes() {
        for scenario in AcctScenario::suite() {
            let expected = if scenario.fault.is_some() {
                "exposed"
            } else {
                "trusted"
            };
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let result = run_acct_scenario(&scenario, mode).unwrap();
                assert_eq!(
                    result.verdict,
                    expected,
                    "{} in {}",
                    scenario.name,
                    mode.label()
                );
                assert!(result.unanimous, "{}", scenario.name);
                assert!(
                    result.protocol_committed,
                    "{}: log-level faults must not break the dataflow",
                    scenario.name
                );
                assert!(result.state_parity, "{}", scenario.name);
                assert!(result.control_messages > 0);
                assert!(
                    result.time_overhead > 1.0,
                    "{}: accountability costs virtual time",
                    scenario.name
                );
                if matches!(mode, CommitMode::Piggyback { .. }) {
                    assert!(result.piggybacked > 0, "{}", scenario.name);
                }
            }
        }
    }

    #[test]
    fn acct_table_renders_one_row_per_result() {
        let result = run_acct_scenario(
            &AcctScenario::suite()[0],
            CommitMode::Piggyback { witnesses: 2 },
        )
        .unwrap();
        let table = render_acct_table(&[result]);
        assert!(table.contains("bft-acct/fault-free"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn scenario_runner_reports_clean_control_run() {
        let result = run_scenario(&Scenario::suite()[0], Baseline::Tnic).unwrap();
        assert_eq!(result.verdict, "trusted");
        assert!(result.unanimous);
        assert_eq!(result.app_messages, 24);
    }

    #[test]
    fn table_renders_one_row_per_result() {
        let results = vec![run_scenario(&Scenario::suite()[0], Baseline::Tnic).unwrap()];
        let table = render_table(&results);
        assert!(table.contains("fault-free"));
        assert!(table.contains("TNIC"));
        assert_eq!(table.lines().count(), 3);
    }
}
