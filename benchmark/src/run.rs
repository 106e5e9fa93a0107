//! One run of one workload: set-up timing, the time-boxed episode loop
//! (measured, or measured and traced side by side), the layer probes, and
//! the metric values that come out.

use crate::adapter::Recorder;
use crate::alloc;
use crate::fidelity;
use crate::metrics::{self, Metric};
use crate::probes::{self, ProbePlan, ProbeResult};
use crate::stats::{median, percentile, supported_tail};
use crate::trace::{Aggregate, SpanKind, Tracer};
use crate::workloads::{
    construct, episode_seed, episode_shape, rss_bytes, run_episode, Exact, Outcome, Pass, Sizes,
    WorkloadId, LARGE_PAYLOAD, SMALL_PAYLOAD,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub metric: Metric,
    pub value: f64,
    /// How far two halves of the run's own samples disagree on the value,
    /// as a share of it (the `compare` verdict "unresolved" rests on it).
    pub spread: Option<f64>,
    /// Sample count and caveats, for the human-readable table.
    pub note: String,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<Value>,
    /// The human-readable report printed above the result line.
    pub report: String,
}

/// Construction times gathered so far, in seconds.
struct Setup {
    times: Vec<f64>,
    error: Option<String>,
}

/// Where in the sorted construction times `setup_s` is read: the fastest
/// decile. Interference on a shared machine only ever adds time, so the
/// fast side of the distribution is the steady one; the median moved by a
/// third between a quiet and a busy minute on the container this was sized
/// on.
const SETUP_QUANTILE: f64 = 0.1;

impl Setup {
    /// Constructs the deployment repeatedly — at least five times, and for
    /// long enough that sub-millisecond constructions are sampled by the
    /// hundred. The construction that opens every later repetition of the
    /// episode is added to the sample as the run goes (`absorb`), so that it
    /// spans the whole run and not just its first half second.
    fn measure(cfg: &RunConfig, sizes: &Sizes) -> Setup {
        let budget = Duration::from_millis(if cfg.quick { 40 } else { 400 });
        let started = Instant::now();
        let mut setup = Setup {
            times: Vec::new(),
            error: None,
        };
        while setup.times.len() < 5 || (started.elapsed() < budget && setup.times.len() < 400) {
            let t = Instant::now();
            let built = construct(cfg.workload, sizes, episode_seed(cfg.seed, 0));
            setup.times.push(t.elapsed().as_secs_f64());
            if let Err(e) = built {
                setup.error = Some(format!("set-up: {e}"));
                break;
            }
        }
        setup
    }

    fn absorb(&mut self, outcome: &Outcome) {
        self.times
            .extend(outcome.construct_ns.iter().map(|&ns| ns as f64 / 1e9));
    }

    fn estimate(times: impl Iterator<Item = f64>) -> f64 {
        let mut sorted: Vec<f64> = times.collect();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, SETUP_QUANTILE)
    }

    fn value(&self) -> Value {
        // How far the two halves of the sample (every other construction)
        // disagree on the same estimate.
        let half =
            |parity: usize| Setup::estimate(self.times.iter().skip(parity).step_by(2).copied());
        value(
            "setup_s",
            Setup::estimate(self.times.iter().copied()),
            Some(disagreement(half(0), half(1))),
            format!("fastest decile of {} constructions", self.times.len()),
        )
    }
}

fn value(name: &str, v: f64, spread: Option<f64>, note: impl Into<String>) -> Value {
    Value {
        metric: metrics::find(name).unwrap_or_else(|| panic!("{name} is not in the catalogue")),
        value: v,
        spread,
        note: note.into(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// |a − b| as a share of their mean.
fn disagreement(a: f64, b: f64) -> f64 {
    ratio((a - b).abs(), (a + b) / 2.0)
}

/// The unit times of every repetition of the episode. All repetitions run
/// the identical op sequence (same seed), so unit `i` is the same work each
/// time and its fastest repetition is the best estimate of what that work
/// costs when nothing else has the machine.
#[derive(Default)]
struct Repetitions {
    units_ns: Vec<Vec<u64>>,
}

impl Repetitions {
    /// Per unit index, the fastest of the given repetitions.
    fn best_units(&self, which: impl Fn(usize) -> bool) -> Vec<u64> {
        let picked: Vec<&Vec<u64>> = self
            .units_ns
            .iter()
            .enumerate()
            .filter(|(i, _)| which(*i))
            .map(|(_, u)| u)
            .collect();
        let len = picked.iter().map(|u| u.len()).min().unwrap_or(0);
        (0..len)
            .map(|i| picked.iter().map(|u| u[i]).min().unwrap_or(0))
            .collect()
    }

    /// Seconds one episode's timed section takes, unit by unit at its best.
    fn best_seconds(&self) -> f64 {
        sum_seconds(&self.best_units(|_| true))
    }

    /// How far the even and the odd repetitions, each taken alone, disagree
    /// on `estimate` (`None` with fewer than two repetitions).
    fn split_half(&self, estimate: impl Fn(&[u64]) -> f64) -> Option<f64> {
        if self.units_ns.len() < 2 {
            return None;
        }
        let even = estimate(&self.best_units(|i| i % 2 == 0));
        let odd = estimate(&self.best_units(|i| i % 2 == 1));
        Some(disagreement(even, odd))
    }

    fn all_units_us(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .units_ns
            .iter()
            .flatten()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }
}

fn sum_seconds(units: &[u64]) -> f64 {
    units.iter().sum::<u64>() as f64 / 1e9
}

fn median_us(units: &[u64]) -> f64 {
    let mut us: Vec<f64> = units.iter().map(|&ns| ns as f64 / 1e3).collect();
    median(&mut us)
}

fn collect_failures(outcomes: &[Outcome], setup_error: &Option<String>) -> (u64, u64, Vec<String>) {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let mut failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let mut notes: Vec<String> = outcomes.iter().flat_map(|o| o.notes.clone()).collect();
    if let Some(e) = setup_error {
        failed += 1;
        notes.push(e.clone());
    }
    // A correctness note with no op to pin it on still fails the run.
    if failed == 0 && !notes.is_empty() {
        failed = 1;
    }
    (attempted.max(1), failed.min(attempted.max(1)), notes)
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let sizes = if cfg.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let setup = Setup::measure(cfg, &sizes);
    if cfg.trace {
        run_traced(cfg, &sizes, &setup)
    } else {
        run_measured(cfg, &sizes, setup)
    }
}

/// Runs the episode once more, into `reps`.
fn repeat_episode(
    cfg: &RunConfig,
    sizes: &Sizes,
    tracer: &mut Tracer,
    reps: &mut Repetitions,
) -> Outcome {
    let mut units_ns = Vec::new();
    let outcome = run_episode(
        cfg.workload,
        sizes,
        episode_seed(cfg.seed, 0),
        &mut Pass {
            tracer,
            units_ns: &mut units_ns,
        },
    );
    reps.units_ns.push(units_ns);
    outcome
}

// ---- measured pass: the end-to-end metrics -------------------------------------

fn run_measured(cfg: &RunConfig, sizes: &Sizes, mut setup: Setup) -> RunResult {
    let mut tracer = Tracer::off();
    let mut reps = Repetitions::default();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    loop {
        let outcome = repeat_episode(cfg, sizes, &mut tracer, &mut reps);
        setup.absorb(&outcome);
        outcomes.push(outcome);
        if outcomes.len() == 1 {
            // Read where a fixed amount of work has been done: later
            // repetitions add allocator residue, and how many of them fit
            // the time box depends on the machine.
            peak_rss_mb = rss_bytes("VmHWM") as f64 / (1024.0 * 1024.0);
        }
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let episodes = outcomes.len();
    let ops = outcomes[0].exact.ops as f64;
    let best_s = reps.best_seconds();
    let values = vec![
        value(
            "wall_ops_per_s",
            ratio(ops, best_s),
            reps.split_half(|units| ratio(ops, sum_seconds(units))),
            format!(
                "{ops} ops / {best_s:.4} s: each unit at the fastest of its {episodes} repetitions"
            ),
        ),
        value(
            "unit_wall_p50_us",
            median_us(&reps.best_units(|_| true)),
            reps.split_half(median_us),
            format!(
                "median of {} units, each at its fastest repetition; unit = {}",
                reps.units_ns[0].len(),
                cfg.workload.unit()
            ),
        ),
        value(
            "peak_rss_mb",
            peak_rss_mb,
            None,
            "VmHWM when the first episode ends",
        ),
        setup.value(),
    ];
    let (attempted, failed, notes) = collect_failures(&outcomes, &setup.error);
    let mut report = header(cfg, episodes, started.elapsed().as_secs_f64());
    render_values(&mut report, &values);
    let per_episode: Vec<String> = outcomes
        .iter()
        .map(|o| format!("{:.1}", ratio(o.exact.ops as f64, o.timed_ns as f64 / 1e9)))
        .collect();
    let _ = writeln!(
        report,
        "\nraw ops/s by repetition (what interference left of it): {}",
        per_episode.join(" ")
    );
    render_notes(&mut report, &notes);
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        values,
        report,
    }
}

// ---- traced pass: the per-layer metrics -------------------------------------------

/// Keep full spans for every k-th unit, so that one traced episode stays
/// under the trace file's cap with head-room for the pinned units.
fn keep_every(workload: WorkloadId, sizes: &Sizes) -> u32 {
    let (units, spans_per_unit) = episode_shape(workload, sizes);
    (u64::from(units) * u64::from(spans_per_unit)).div_ceil(40_000) as u32
}

fn span_median_ns(agg: &Aggregate) -> f64 {
    let mut samples: Vec<f64> = agg.samples_ns.iter().map(|&ns| f64::from(ns)).collect();
    median(&mut samples)
}

struct ObsSlice {
    overhead_pct: f64,
    events_per_op: f64,
    dropped: u64,
    rounds: u32,
}

/// Ring slots of the recorder under test: what `reproduce` installs for its
/// traced scenarios.
const RECORDER_CAPACITY: usize = 1 << 18;

/// A slice of `acct_steady` with the `tnic_obs` ring recorder installed
/// and without, in off-on-on-off order, each side judged like the passes
/// themselves: unit by unit at its faster repetition. The ring is installed
/// before the timed section starts, so this is the cost of recording
/// events, not of allocating the ring.
fn obs_slice(cfg: &RunConfig, sizes: &Sizes) -> ObsSlice {
    let slice = Sizes {
        steady_rounds: (sizes.steady_rounds / 2).max(1),
        ..*sizes
    };
    let slice_cfg = RunConfig {
        workload: WorkloadId::AcctSteady,
        ..*cfg
    };
    let mut tracer = Tracer::off();
    let mut on = Repetitions::default();
    let mut off = Repetitions::default();
    let mut ops = 0;
    let mut totals = (0, 0);
    for recorded in [false, true, true, false] {
        let recorder = recorded.then(|| Recorder::install(RECORDER_CAPACITY));
        let reps = if recorded { &mut on } else { &mut off };
        ops = repeat_episode(&slice_cfg, &slice, &mut tracer, reps)
            .exact
            .ops;
        if let Some(recorder) = recorder {
            totals = recorder.totals();
        }
    }
    ObsSlice {
        overhead_pct: (ratio(on.best_seconds(), off.best_seconds()) - 1.0) * 100.0,
        events_per_op: ratio(totals.0 as f64, ops as f64),
        dropped: totals.1,
        rounds: slice.steady_rounds,
    }
}

fn run_traced(cfg: &RunConfig, sizes: &Sizes, setup: &Setup) -> RunResult {
    let mut off = Tracer::off();
    let mut on = Tracer::on(keep_every(cfg.workload, sizes));
    let mut plain_reps = Repetitions::default();
    let mut traced_reps = Repetitions::default();
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let started = Instant::now();
    loop {
        // The same op sequence with and without spans; which of the two
        // goes first alternates, so that whatever the first leaves behind
        // (warm caches, a grown heap) favours neither.
        let pair = plain.len();
        for traced_turn in [!pair.is_multiple_of(2), pair.is_multiple_of(2)] {
            if traced_turn {
                alloc::set_counting(true);
                traced.push(repeat_episode(cfg, sizes, &mut on, &mut traced_reps));
                alloc::set_counting(false);
                on.stop_keeping();
            } else {
                plain.push(repeat_episode(cfg, sizes, &mut off, &mut plain_reps));
            }
        }
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    let trace_path = write_trace(cfg.workload, &on);

    let obs = (cfg.workload == WorkloadId::AcctSteady).then(|| obs_slice(cfg, sizes));
    let probe_results = probes::run_all(if cfg.quick {
        ProbePlan::quick()
    } else {
        ProbePlan::full()
    });
    let fidelity_rows = fidelity::table(cfg.workload);

    let mut all_outcomes = plain.clone();
    all_outcomes.extend(traced.iter().cloned());
    let (attempted, mut failed, mut notes) = collect_failures(&all_outcomes, &setup.error);
    if plain[0].exact != traced[0].exact {
        failed = failed.max(1);
        notes.push("traced and measured passes disagree on an exact count".to_string());
    }

    let values = per_layer_values(&TracedRun {
        workload: cfg.workload,
        plain: &plain,
        traced: &traced,
        plain_reps: &plain_reps,
        traced_reps: &traced_reps,
        tracer: &on,
        probe_results: &probe_results,
        obs: obs.as_ref(),
        fidelity_err_pct: fidelity::worst_err_pct(&fidelity_rows),
    });

    let mut report = header(cfg, plain.len() + traced.len(), loop_s);
    render_values(&mut report, &values);
    render_spans(&mut report, &on, &traced);
    if !fidelity_rows.is_empty() {
        report.push('\n');
        report.push_str(&fidelity::render(&fidelity_rows));
    }
    if let Some(obs) = &obs {
        let _ = writeln!(
            report,
            "\nobs slice: {} rounds x 4 (off, on, on, off)",
            obs.rounds
        );
    }
    // The trace file is a by-product: failing to write it is reported, not
    // counted against the run.
    let _ = match trace_path {
        Ok(path) => writeln!(
            report,
            "\ntrace: {path} ({} of {} spans kept; open in https://ui.perfetto.dev)",
            on.kept().len(),
            on.span_count()
        ),
        Err(e) => writeln!(report, "\ntrace file not written: {e}"),
    };
    render_notes(&mut report, &notes);
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        values,
        report,
    }
}

fn write_trace(workload: WorkloadId, tracer: &Tracer) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{}.trace.json", workload.name());
    std::fs::write(&path, tracer.chrome_trace_json(workload.name()))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Everything a traced pass gathered, from which the per-layer values are
/// read off.
struct TracedRun<'a> {
    workload: WorkloadId,
    plain: &'a [Outcome],
    traced: &'a [Outcome],
    plain_reps: &'a Repetitions,
    traced_reps: &'a Repetitions,
    tracer: &'a Tracer,
    probe_results: &'a [ProbeResult],
    obs: Option<&'a ObsSlice>,
    fidelity_err_pct: f64,
}

fn per_layer_values(run: &TracedRun<'_>) -> Vec<Value> {
    let &TracedRun {
        workload,
        plain,
        traced,
        plain_reps,
        traced_reps,
        tracer,
        probe_results,
        obs,
        fidelity_err_pct,
    } = run;
    // Counts are one episode's: every repetition has the same ones.
    let exact: &Exact = &plain[0].exact;
    let best_wall_ns = plain_reps.best_seconds() * 1e9;
    let ops = exact.ops as f64;
    let msgs = exact.cluster.messages_sent as f64;
    let acct = &exact.acct;
    let traced_wall: f64 = traced.iter().map(|o| o.timed_ns as f64).sum();
    let probe = |name: &str| -> f64 {
        probe_results
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.median_ns)
    };
    let probe_note = |name: &str| -> String {
        probe_results
            .iter()
            .find(|p| p.name == name)
            .map_or(String::new(), |p| {
                format!(
                    "p10 {:.1} p90 {:.1}; {} samples x {} calls",
                    p.p10_ns, p.p90_ns, p.samples, p.iters_per_sample
                )
            })
    };
    let span = |kind: SpanKind| tracer.aggregate(kind);
    let share = |kind: SpanKind| ratio(span(kind).self_ns as f64, traced_wall) * 100.0;
    let span_note = |kind: SpanKind| format!("{} spans", span(kind).count);
    let replay_per_entry = probe("audit.replay_ns_per_entry");

    let send_payload = match workload {
        WorkloadId::SendSmall => Some(SMALL_PAYLOAD),
        WorkloadId::SendLarge => Some(LARGE_PAYLOAD),
        _ => None,
    };
    let auth_send_ns = span_median_ns(span(SpanKind::AuthSend));
    let auth_send_self_ns = match send_payload {
        Some(SMALL_PAYLOAD) => {
            auth_send_ns
                - probe("core.provider_attest_64B_ns")
                - probe("core.provider_verify_64B_ns")
                - probe("net.send_latency_ns")
        }
        Some(_) => {
            auth_send_ns
                - probe("core.provider_attest_8KiB_ns")
                - probe("core.provider_verify_8KiB_ns")
                - probe("net.send_latency_ns")
        }
        None => 0.0,
    };
    let polled: u64 = traced.iter().map(|o| o.polled).sum();
    let rss_growth: f64 = plain.iter().map(|o| o.rss_growth_bytes as f64).sum();
    let plain_msgs: f64 = plain.len() as f64 * msgs;

    let mut ckpt: Vec<f64> = plain
        .iter()
        .flat_map(|o| &o.ckpt_round_ns)
        .map(|&n| n as f64)
        .collect();
    let mut plain_rounds: Vec<f64> = plain
        .iter()
        .flat_map(|o| &o.plain_round_ns)
        .map(|&n| n as f64)
        .collect();
    let ckpt_extra_us = if ckpt.is_empty() || plain_rounds.is_empty() {
        0.0
    } else {
        (median(&mut ckpt) - median(&mut plain_rounds)) / 1e3
    };

    let units_us = plain_reps.all_units_us();
    let tail = supported_tail(units_us.len(), 0.99);
    let allocs = traced[0].allocs;
    let virtual_us = exact.cluster.virtual_ns as f64 / 1e3;

    let mut out = Vec::with_capacity(metrics::PER_LAYER.len());
    for metric in metrics::PER_LAYER {
        let name = metric.name;
        let (v, note): (f64, String) = match name {
            _ if probe_results.iter().any(|p| p.name == name) => (probe(name), probe_note(name)),
            "net.retransmits_per_op" => (
                ratio(exact.cluster.messages_rejected as f64, ops),
                "rejected-and-resent packets (ClusterStats.messages_rejected) / op".into(),
            ),
            "sim.virt_us_per_op" => (ratio(virtual_us, ops), "final SimClock / ops".into()),
            "sim.virt_ops_per_s" => (ratio(ops, virtual_us / 1e6), String::new()),
            "sim.fidelity_err_pct" => (fidelity_err_pct, "worst |model/paper - 1|".into()),
            "core.auth_send_ns" => (auth_send_ns, span_note(SpanKind::AuthSend)),
            "core.poll_ns_per_msg" => (
                ratio(span(SpanKind::Poll).total_ns as f64, polled as f64),
                span_note(SpanKind::Poll),
            ),
            "core.auth_send_self_ns" => (
                auth_send_self_ns,
                "span median - provider attest/verify - net model probes".into(),
            ),
            "core.msgs_per_op" => (ratio(msgs, ops), String::new()),
            "core.allocs_per_msg" => (ratio(allocs.allocs as f64, msgs), String::new()),
            "core.alloc_bytes_per_msg" => (ratio(allocs.bytes as f64, msgs), String::new()),
            "core.rss_bytes_per_msg" => (
                ratio(rss_growth.max(0.0), plain_msgs),
                "VmRSS growth over measured episodes".into(),
            ),
            "log.entries_per_op" => (ratio(acct.log_entries as f64, ops), String::new()),
            "log.ctl_digest_entries_per_op" => (
                ratio(acct.log_control_digest_entries as f64, ops),
                String::new(),
            ),
            "log.audit_digest_entries_per_op" => (
                ratio(acct.log_audit_digest_entries as f64, ops),
                String::new(),
            ),
            "log.retained_bytes_per_node" => (
                ratio(acct.retained_log_bytes as f64, exact.nodes as f64),
                "at the end of the deployment".into(),
            ),
            "wire.ctl_bytes_per_op" => (ratio(acct.control_bytes as f64, ops), String::new()),
            "audit.replayed_entries_per_op" => {
                (ratio(acct.entries_replayed as f64, ops), String::new())
            }
            "audit.est_replay_share_pct" => (
                ratio(
                    acct.entries_replayed as f64 * replay_per_entry,
                    best_wall_ns,
                ) * 100.0,
                "entries replayed x probe / wall (estimate)".into(),
            ),
            "engine.workload_share_pct" => (
                share(SpanKind::RunWorkload),
                span_note(SpanKind::RunWorkload),
            ),
            "engine.begin_audit_share_pct" => (
                share(SpanKind::BeginAuditRound),
                span_note(SpanKind::BeginAuditRound),
            ),
            "engine.finish_audit_share_pct" => (
                share(SpanKind::FinishAuditRound),
                span_note(SpanKind::FinishAuditRound),
            ),
            "engine.ckpt_round_extra_us" => (
                ckpt_extra_us,
                format!(
                    "{} checkpoint rounds, {} plain",
                    ckpt.len(),
                    plain_rounds.len()
                ),
            ),
            "engine.audit_msgs_per_node_round" => (
                ratio(acct.audit_messages as f64, exact.node_rounds as f64),
                String::new(),
            ),
            "engine.challenges_per_round" => (
                ratio(acct.challenges as f64, exact.rounds as f64),
                String::new(),
            ),
            "engine.challenge_retries" => (acct.challenge_retries as f64, String::new()),
            "engine.unanswered_challenges" => (acct.unanswered_challenges as f64, String::new()),
            "engine.pruned_entries_per_ckpt" => (
                ratio(
                    acct.pruned_log_entries as f64,
                    acct.checkpoints_completed as f64,
                ),
                String::new(),
            ),
            "acct.ctl_msgs_per_op" => (ratio(acct.control_messages as f64, ops), String::new()),
            "acct.detect_rounds" => (
                ratio(exact.detect_rounds as f64, exact.detect_cases as f64),
                format!("mean over {} faults", exact.detect_cases),
            ),
            "obs.recorder_overhead_pct" => (
                obs.map_or(0.0, |o| o.overhead_pct),
                "ring recorder on vs off".into(),
            ),
            "obs.events_per_op" => (obs.map_or(0.0, |o| o.events_per_op), String::new()),
            "obs.dropped_events" => (obs.map_or(0.0, |o| o.dropped as f64), String::new()),
            "bft.increment_p50_us" => (
                span_median_ns(span(SpanKind::BftIncrement)) / 1e3,
                span_note(SpanKind::BftIncrement),
            ),
            "bft.msgs_per_op" => (
                ratio(exact.bft_msgs as f64, exact.bft_ops as f64),
                String::new(),
            ),
            "cr.put_p50_us" => (
                span_median_ns(span(SpanKind::CrPut)) / 1e3,
                span_note(SpanKind::CrPut),
            ),
            "cr.get_p50_us" => (
                span_median_ns(span(SpanKind::CrGet)) / 1e3,
                span_note(SpanKind::CrGet),
            ),
            "cr.msgs_per_op" => (
                ratio(exact.cr_msgs as f64, exact.cr_ops as f64),
                String::new(),
            ),
            "driver.unit_wall_p99_us" => (
                percentile(&units_us, tail),
                format!(
                    "raw p{} of {} unit samples (highest percentile with ten samples beyond)",
                    tail * 100.0,
                    units_us.len()
                ),
            ),
            "driver.trace_overhead_pct" => (
                (ratio(traced_reps.best_seconds(), plain_reps.best_seconds()) - 1.0) * 100.0,
                format!(
                    "best-of {} traced vs best-of {} measured repetitions",
                    traced.len(),
                    plain.len()
                ),
            ),
            "driver.allocs_per_op" => (ratio(allocs.allocs as f64, ops), String::new()),
            "driver.alloc_bytes_per_op" => (ratio(allocs.bytes as f64, ops), String::new()),
            other => panic!("no definition for per-layer metric {other}"),
        };
        out.push(Value {
            metric,
            value: v,
            spread: None,
            note,
        });
    }
    out
}

// ---- rendering ------------------------------------------------------------------------

fn header(cfg: &RunConfig, episodes: usize, loop_s: f64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "tnic-benchmark workload={} seed={} seconds={} trace={}{} | {} episodes in {:.2} s | \
         1 load thread, 1 closed-loop client, {} cores available\n{}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick { " QUICK" } else { "" },
        episodes,
        loop_s,
        parallelism,
        cfg.workload.why()
    )
}

fn render_values(report: &mut String, values: &[Value]) {
    let _ = writeln!(
        report,
        "\n{:<34} {:>16} {:<8} note",
        "metric", "value", "unit"
    );
    for v in values {
        let shown = if v.value != 0.0 && v.value.abs() < 0.01 {
            format!("{:.3e}", v.value)
        } else {
            format!("{:.3}", v.value)
        };
        let _ = writeln!(
            report,
            "{:<34} {:>16} {:<8} {}",
            v.metric.name, shown, v.metric.unit, v.note
        );
    }
}

fn render_spans(report: &mut String, tracer: &Tracer, traced: &[Outcome]) {
    let wall: f64 = traced.iter().map(|o| o.timed_ns as f64).sum();
    let _ = writeln!(
        report,
        "\n{:<46} {:>10} {:>11} {:>11} {:>9} {:>7}",
        "span", "count", "total ms", "self ms", "p50 us", "self %"
    );
    for kind in SpanKind::ALL {
        let agg = tracer.aggregate(kind);
        if agg.count == 0 {
            continue;
        }
        let _ = writeln!(
            report,
            "{:<46} {:>10} {:>11.2} {:>11.2} {:>9.2} {:>7.2}",
            kind.name(),
            agg.count,
            agg.total_ns as f64 / 1e6,
            agg.self_ns as f64 / 1e6,
            span_median_ns(agg) / 1e3,
            ratio(agg.self_ns as f64, wall) * 100.0
        );
    }
}

fn render_notes(report: &mut String, notes: &[String]) {
    if notes.is_empty() {
        return;
    }
    let _ = writeln!(report, "\nCORRECTNESS FAILURES");
    for note in notes.iter().take(20) {
        let _ = writeln!(report, "  {note}");
    }
}
