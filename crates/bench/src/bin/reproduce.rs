//! Reproduction runner: runs the PeerReview fault-injection suite, the same
//! accountability engine stacked under BFT / chain replication / A2M, the
//! membership-churn suite and the exposure-latency, retention and
//! sampled-auditing probes; prints the report's tables; writes the markdown
//! report and the machine-readable `BENCH_report.json`; and evaluates the
//! named gates ([`tnic_bench::gates`]).
//!
//! Usage: `cargo run --release -p tnic-bench --bin reproduce
//! [--all-baselines] [--check] [--trace-out DIR] [--report PATH]`
//!
//! * `--all-baselines` runs the scenario suite over every attestation
//!   back-end (the paper's §8.3 methodology) instead of TNIC only.
//! * `--check` makes the bound gates (the `MAX_*` constants below) fatal;
//!   the verdict, accuracy and completeness gates are fatal without it.
//! * `--trace-out DIR` exports each traced scenario's assembled cross-node
//!   timeline as Chrome trace-event JSON (`DIR/trace-<scenario>.chrome.json`,
//!   loadable at <https://ui.perfetto.dev>) and JSONL.
//! * `--report PATH` moves the markdown report from `reports/reproduce.md`.
//!
//! Every case is a [`tnic_bench::Case`] of the library's suites, checked by
//! [`tnic_bench::Outcome::check`]. The traced exec-tampering and
//! forge-evidence runs reconstruct each verdict's causal chain with a
//! per-phase virtual-time breakdown — where the exposure latency actually
//! went. **Any** failing gate writes a bounded flight-recorder dump (trace
//! tail, metrics snapshot, log-composition breakdown) beside the report,
//! so a red CI run carries its own post-mortem.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tnic_bench::gates::{self, GateOutcome};
use tnic_bench::{
    acct_suite, churn_suite, report, scenario_suite, App, Case, CommitMode, Experiment, Outcome,
};
use tnic_core::error::CoreError;
use tnic_net::adversary::{FaultPlan, NodeFault};
use tnic_obs::metrics::MetricsRegistry;
use tnic_tee::profile::Baseline;

/// System allocator wrapper counting every allocation, so the report can
/// state how many the experiments made.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `piggyback-overhead`: a fault-free piggybacked scenario sends at most
/// this many control messages per application message.
const MAX_CTL_APP: f64 = 2.0;

/// `acct-overhead`: the same bound for the engine stacked under BFT / CR /
/// A2M, whose protocols carry fewer application messages to ride on.
const MAX_ACCT_CTL_APP: f64 = 3.0;

/// `checkpoint-overhead` / `acct-overhead`: a fault-free checkpointed row
/// costs at most this factor over the matching piggyback row's ctl/app
/// (interval 1 is the worst case — every audit round pays proposals,
/// cosignatures and a commit certificate; measured ~2.0-2.5x today).
const CKPT_OVERHEAD_FACTOR: f64 = 3.0;

/// `retention-bounds`: retained log entries and stored commitments of the
/// 200-round checkpointed probe stay under this at every audit boundary —
/// O(checkpoint interval), not O(rounds).
const MAX_RETAINED_ENTRIES: u64 = 400;

/// `exposure-latency`: a seq-0 log tamperer is exposed within this many
/// audit rounds even when its first witness withholds gossip, refuses
/// relays or stays silent — the rotating announcement target bounds the
/// delay.
const MAX_EXPOSURE_LATENCY_ROUNDS: u64 = 6;

/// `churn-verdict-delay`: verdicts settle within this many audit rounds
/// after the churn schedule completes.
const MAX_VERDICT_DELAY_ROUNDS: u64 = 6;

/// `audit-traffic`: sampled auditing sends at most this many audit wire
/// messages per node per audit round.
const MAX_AUDIT_MSGS_PER_NODE_ROUND: f64 = 4.0;

/// `audit-log-share`: round digests stay under this fraction of every
/// scenario's log — one `AuditRound` entry per node and audit round
/// replaces the per-envelope digest flood, so protocol metadata cannot
/// dominate the very logs being audited.
const MAX_AUDIT_LOG_FRACTION: f64 = 0.5;

/// `trace-overhead`: recording with the event ring enabled slows the
/// exec-tampering run by at most this percentage (recording only: one ring
/// is set up before the probe and never snapshotted).
const MAX_TRACE_OVERHEAD_PCT: f64 = 50.0;

/// Audit rounds and checkpoint interval of the bounded-memory probe.
const PROBE_ROUNDS: u64 = 200;
const PROBE_INTERVAL: u64 = 4;

/// Ring capacity for the traced scenario runs (events, not bytes).
const TRACE_CAPACITY: usize = 1 << 18;

/// The mode of the traced runs and of the exposure-latency cases.
const TRACE_MODE: CommitMode = CommitMode::Piggyback { witnesses: 2 };

/// Coverage window of the sampled-auditing probe: every pair is audited at
/// least once per this many rounds on top of the rotating sample, so the
/// sampled-detection-latency bound is
/// `MAX_EXPOSURE_LATENCY_ROUNDS + SAMPLED_COVERAGE_WINDOW`.
const SAMPLED_COVERAGE_WINDOW: u64 = 4;

const USAGE: &str =
    "usage: reproduce [--all-baselines] [--check] [--trace-out DIR] [--report PATH]";

/// `result`'s value, or `None` with the error recorded in `failed_runs`
/// (the `execution` gate) under `what`.
fn record<T>(result: Result<T, CoreError>, what: &str, failed_runs: &mut Vec<String>) -> Option<T> {
    result
        .map_err(|err| {
            let line = format!("{what}: {err}");
            eprintln!("{line}");
            failed_runs.push(line);
        })
        .ok()
}

/// Runs every case, recording the ones that err.
fn run_all(cases: Vec<Case>, failed_runs: &mut Vec<String>) -> Vec<(Case, Outcome)> {
    cases
        .into_iter()
        .filter_map(|case| {
            let outcome = record(case.experiment.run(), &case.label(), failed_runs)?;
            Some((case, outcome))
        })
        .collect()
}

/// The `name` case of the TNIC scenario suite in [`TRACE_MODE`].
fn traced_case(name: &str) -> Case {
    scenario_suite(Baseline::Tnic)
        .into_iter()
        .find(|case| case.name == name && case.experiment.mode() == TRACE_MODE)
        .expect("the scenario suite runs every case in the trace mode")
}

fn main() {
    let (mut all_baselines, mut check) = (false, false);
    let mut trace_out: Option<PathBuf> = None;
    let mut report_path = PathBuf::from("reports/reproduce.md");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path = || {
            args.next().map(PathBuf::from).unwrap_or_else(|| {
                eprintln!("{arg} requires a path\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--all-baselines" => all_baselines = true,
            "--check" => check = true,
            "--trace-out" => trace_out = Some(path()),
            "--report" => report_path = path(),
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let baselines: &[Baseline] = if all_baselines {
        &Baseline::ALL
    } else {
        &[Baseline::Tnic]
    };

    // The allocation total counts the experiments only: from here to the
    // last probe, so argument parsing, trace export and report writing
    // cannot move it.
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut failed_runs: Vec<String> = Vec::new();
    let cases = baselines.iter().flat_map(|&b| scenario_suite(b)).collect();
    let results = run_all(cases, &mut failed_runs);
    let scenario_section = report::scenario_section(&results);
    println!("{scenario_section}");

    // ---- traced runs: causal verdict timelines ---------------------------

    let mut registry = MetricsRegistry::new();
    let mut timeline_sections: Vec<String> = Vec::new();
    // The traced snapshots, kept for the exporters and the flight recorder
    // (first entry = exec-tampering, the exposure chain a post-mortem wants).
    let mut traces: Vec<(&'static str, Vec<tnic_obs::Event>, u64)> = Vec::new();
    for name in ["exec-tampering", "forge-evidence"] {
        let experiment = traced_case(name).experiment;
        let guard = tnic_obs::RecorderGuard::install(TRACE_CAPACITY);
        let run = experiment.run();
        let (events, dropped) = (guard.snapshot(), guard.dropped());
        let dropped_by_node = guard.dropped_by_node();
        drop(guard);
        if record(run, &format!("traced scenario {name}"), &mut failed_runs).is_some() {
            report::accumulate_events(&mut registry, name, &events);
            let scope = registry.scope(name);
            scope.inc("events_dropped", dropped);
            for (node, count) in &dropped_by_node {
                scope.set_node_gauge("events_dropped", *node, *count as f64);
            }
            timeline_sections.push(report::timeline_section(name, &events, dropped));
            traces.push((name, events, dropped));
        }
    }
    // ---- enabled-recorder overhead probe ---------------------------------

    // Min-of-N wall clock of the identical run with and without the ring
    // recorder installed: min (not mean) sheds scheduler noise. One ring is
    // allocated before the loop and moved in and out around each traced
    // run, so the delta is the per-event recording cost alone: a ring set up
    // inside the loop writes its 12 MB of slots just before the traced run,
    // evicting the run's working set from cache, and the refill, as slow as
    // the host's memory is busy, would be charged to recording.
    // Wall-derived, so it is printed and gated but kept out of the registry
    // that feeds the deterministic `BENCH_report.json`.
    let trace_overhead_pct = {
        const PROBE_ITERS: u32 = 25;
        let experiment = traced_case("exec-tampering").experiment;
        let (mut untraced_us, mut traced_us) = (u128::MAX, u128::MAX);
        let mut measured = true;
        let mut ring: Option<Box<dyn tnic_obs::Recorder>> = Some(Box::new(
            tnic_obs::RingRecorder::with_capacity(TRACE_CAPACITY),
        ));
        for _ in 0..PROBE_ITERS {
            let start = std::time::Instant::now();
            measured &= experiment.run().is_ok();
            untraced_us = untraced_us.min(start.elapsed().as_micros());
            tnic_obs::install_recorder(ring.take().expect("the ring is back"));
            let start = std::time::Instant::now();
            measured &= experiment.run().is_ok();
            traced_us = traced_us.min(start.elapsed().as_micros());
            ring = tnic_obs::uninstall_recorder();
        }
        (measured && untraced_us > 0).then(|| (traced_us as f64 / untraced_us as f64 - 1.0) * 100.0)
    };
    if let Some(pct) = trace_overhead_pct {
        println!(
            "\nenabled-recorder overhead: {pct:.1}% wall clock on exec-tampering \
             (gate: <= {MAX_TRACE_OVERHEAD_PCT:.0}%)\n"
        );
    }

    // ---- accountability stacked on BFT / CR / A2M ------------------------

    let acct = run_all(acct_suite(), &mut failed_runs);
    let acct_section = report::acct_section(&acct);
    println!("{acct_section}");

    // ---- membership churn, crash-recovery and partition healing ----------

    // Each case's round budget grows one audit round at a time past its
    // churn schedule until the oracle passes: every probe is a fresh
    // deterministic run, so the reported outcome is exactly the settled run.
    let mut churn: Vec<(Case, Outcome)> = Vec::new();
    let mut delays: Vec<(String, Option<u64>)> = Vec::new();
    for base in churn_suite() {
        let mut last = None;
        for extra in 0..=MAX_VERDICT_DELAY_ROUNDS + 2 {
            let mut case = base.clone();
            case.experiment.rounds += extra;
            let Some(outcome) = record(case.experiment.run(), &case.label(), &mut failed_runs)
            else {
                last = None;
                break;
            };
            let settled = outcome.check(&case.expect).is_empty();
            last = Some((case, outcome, settled.then_some(extra)));
            if settled {
                break;
            }
        }
        if let Some((case, outcome, delay)) = last {
            delays.push((case.label(), delay));
            churn.push((case, outcome));
        }
    }
    let churn_section = report::churn_section(&churn, &delays);
    println!("{churn_section}");

    // ---- exposure latency under Byzantine audit witnesses ----------------

    println!(
        "exposure latency ({}): audit rounds until every correct witness exposes a \
         seq-0 log tamperer at node 1, with its first witness (node 2) lying",
        TRACE_MODE.label()
    );
    let tamper = FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 });
    let mut latency_cases: Vec<(String, Option<u64>)> = Vec::new();
    for (case, witness_fault) in [
        ("honest witnesses", None),
        ("withhold-gossip witness", Some(NodeFault::WithholdGossip)),
        ("refuse-relay witness", Some(NodeFault::RefuseRelay)),
        ("silent witness", Some(NodeFault::SilentWitness)),
    ] {
        let mut faults = tamper.clone();
        if let Some(fault) = witness_fault {
            faults.set(2, fault);
        }
        let experiment = Experiment {
            faults,
            rounds: MAX_EXPOSURE_LATENCY_ROUNDS + 2,
            ..Experiment::new(App::PeerReview, TRACE_MODE)
        };
        let run = experiment.detection_latency(1);
        if let Some(latency) = record(run, &format!("exposure latency [{case}]"), &mut failed_runs)
        {
            let shown = latency.map_or_else(
                || "NEVER EXPOSED".to_string(),
                |r| format!("exposed after {r} round(s)"),
            );
            println!("  {case:<26} {shown}");
            latency_cases.push((case.to_string(), latency));
        }
    }

    // ---- bounded-memory probe: long-running checkpointed deployment ------

    let retention = Experiment {
        rounds: PROBE_ROUNDS,
        ops_per_round: 4,
        ..Experiment::new(
            App::PeerReview,
            CommitMode::Checkpointed {
                witnesses: 2,
                interval: PROBE_INTERVAL,
            },
        )
    };
    let retention = record(retention.run(), "retention probe", &mut failed_runs);
    if let Some(probe) = &retention {
        let stats = &probe.stats;
        println!(
            "\nretention probe ({PROBE_ROUNDS} audit rounds, checkpoint every {PROBE_INTERVAL}): \
             max retained entries {} / max stored commitments {} (of {} entries ever appended); \
             final retained {} entries / {} bytes; {} checkpoints certified",
            probe.peak_retained_entries,
            probe.peak_retained_commitments,
            stats.log_entries,
            stats.retained_log_entries,
            stats.retained_log_bytes,
            stats.checkpoints_completed
        );
    }

    // ---- sampled-auditing scaling probe ----------------------------------

    // 8 nodes, piggybacked commitments over rotating 3-witness sets, 8
    // undrained audit rounds × 8 messages; full audit is the baseline the
    // sampled rows are compared against, and each row's detection latency
    // comes from a seq-0 log-tamperer twin.
    let mut probe_rows: Vec<(Experiment, Outcome, Option<u64>)> = Vec::new();
    let mut audit_cases: Vec<(String, f64)> = Vec::new();
    let mut sampled_cases: Vec<(String, Option<u64>)> = Vec::new();
    for (sample, window) in [
        (None, 0),
        (Some(2), SAMPLED_COVERAGE_WINDOW),
        (Some(1), SAMPLED_COVERAGE_WINDOW),
    ] {
        let mut experiment = Experiment {
            nodes: 8,
            rounds: 8,
            drain: false,
            ..Experiment::new(App::PeerReview, CommitMode::Piggyback { witnesses: 3 })
        };
        experiment.engine.audit_sample_size = sample;
        experiment.engine.audit_coverage_window = window;
        let twin = Experiment {
            rounds: 4 * (experiment.rounds + window),
            faults: tamper.clone(),
            ..experiment.clone()
        };
        let label = report::sample_label(&experiment);
        let run = experiment
            .run()
            .and_then(|outcome| Ok((outcome, twin.detection_latency(1)?)));
        if let Some((outcome, detection)) =
            record(run, &format!("sampled probe ({label})"), &mut failed_runs)
        {
            let scope = registry.scope("sampled-auditing");
            scope.inc(&format!("{label}_messages_audit"), outcome.messages_audit);
            if sample.is_some() {
                let rate = outcome.per_node_round(outcome.stats.audit_messages, experiment.nodes);
                audit_cases.push((label.clone(), rate));
                sampled_cases.push((label, detection));
            }
            probe_rows.push((experiment, outcome, detection));
        }
    }
    let scaling_section = report::scaling_section(&probe_rows);
    println!("\n{scaling_section}");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;

    if let Some(dir) = &trace_out {
        for (name, events, _) in &traces {
            let assembler = tnic_obs::assemble::TraceAssembler::new(events.clone());
            let chrome = tnic_obs::export::chrome_trace(&assembler);
            let jsonl = tnic_obs::export::jsonl(&assembler.ordered());
            let chrome_path = dir.join(format!("trace-{name}.chrome.json"));
            if let Err(err) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&chrome_path, chrome))
                .and_then(|()| std::fs::write(dir.join(format!("trace-{name}.jsonl")), jsonl))
            {
                let line = format!("trace export {name}: {err}");
                eprintln!("{line}");
                failed_runs.push(line);
            } else {
                println!(
                    "trace exported: {} (Chrome/Perfetto + JSONL)",
                    chrome_path.display()
                );
            }
        }
    }

    // ---- named gates -----------------------------------------------------

    let gate = GateOutcome::from_violations;
    // Deviations from the accountability claims: fatal with or without
    // `--check`.
    let mut deviation_gates = vec![
        gate("scenario-verdicts", gates::oracle(&results)),
        gate("accuracy", gates::accuracy(&results)),
        gate("acct-verdicts", gates::oracle(&acct)),
        gate("churn-verdicts", gates::oracle(&churn)),
        gate("churn-accuracy", gates::accuracy(&churn)),
        gate(
            "exposure-completeness",
            gates::latency(&latency_cases, u64::MAX),
        ),
        gate("execution", failed_runs.clone()),
    ];
    // Perf/memory bounds: enforced under `--check` only.
    let mut bound_gates = vec![
        gate(
            "piggyback-overhead",
            gates::piggyback_overhead(&results, MAX_CTL_APP),
        ),
        gate(
            "checkpoint-overhead",
            gates::checkpoint_overhead(&results, CKPT_OVERHEAD_FACTOR),
        ),
        gate(
            "acct-overhead",
            [
                gates::piggyback_overhead(&acct, MAX_ACCT_CTL_APP),
                gates::checkpoint_overhead(&acct, CKPT_OVERHEAD_FACTOR),
            ]
            .concat(),
        ),
        gate(
            "exposure-latency",
            gates::latency(&latency_cases, MAX_EXPOSURE_LATENCY_ROUNDS),
        ),
        gate(
            "churn-verdict-delay",
            gates::latency(&delays, MAX_VERDICT_DELAY_ROUNDS),
        ),
        gate(
            "audit-traffic",
            gates::audit_traffic(&audit_cases, MAX_AUDIT_MSGS_PER_NODE_ROUND),
        ),
        gate(
            "audit-log-share",
            gates::audit_log_share(&results, MAX_AUDIT_LOG_FRACTION),
        ),
        gate(
            "sampled-detection-latency",
            gates::latency(
                &sampled_cases,
                MAX_EXPOSURE_LATENCY_ROUNDS + SAMPLED_COVERAGE_WINDOW,
            ),
        ),
        gate(
            "trace-overhead",
            gates::trace_overhead(trace_overhead_pct, MAX_TRACE_OVERHEAD_PCT),
        ),
    ];
    if let Some(retention) = &retention {
        deviation_gates.push(gate("retention-verdicts", gates::retention(retention)));
        bound_gates.push(gate(
            "retention-bounds",
            gates::retention_bounds(retention, MAX_RETAINED_ENTRIES),
        ));
    }
    let all_gates: Vec<GateOutcome> = deviation_gates
        .iter()
        .chain(bound_gates.iter())
        .cloned()
        .collect();

    println!();
    print!("{}", gates::render_summary(&all_gates));

    // ---- markdown report -------------------------------------------------

    let total_app_messages = results
        .iter()
        .chain(&acct)
        .map(|(_, outcome)| outcome.stats.app_messages)
        .sum::<u64>();
    let mut sections = vec![
        scenario_section,
        acct_section,
        churn_section,
        report::log_composition_section(&results),
    ];
    sections.extend(timeline_sections);
    sections.push(scaling_section);
    sections.push(registry.render_markdown());
    sections.push(report::allocs_section(allocations, total_app_messages));
    sections.push(report::gates_section(&all_gates));
    match report::write_report(&report_path, "TNIC reproduction report", &sections) {
        Ok(()) => println!("\nreport written to {}", report_path.display()),
        Err(err) => {
            eprintln!("cannot write report {}: {err}", report_path.display());
            std::process::exit(1);
        }
    }

    // Machine-readable twin of the markdown report, diffable across PRs.
    let headline = [("total_app_messages", total_app_messages.to_string())];
    let json = report::report_json(&all_gates, &results, &registry, &headline);
    let json_path = std::path::Path::new("BENCH_report.json");
    match std::fs::write(json_path, json) {
        Ok(()) => println!("machine-readable report written to {}", json_path.display()),
        Err(err) => eprintln!("cannot write {}: {err}", json_path.display()),
    }

    let deviations_ok = deviation_gates.iter().all(|g| g.passed);
    let bounds_ok = bound_gates.iter().all(|g| g.passed);
    if deviations_ok && (bounds_ok || !check) {
        println!("all fatal gates passed");
    } else {
        let broken: Vec<&str> = gates::failed(&all_gates).iter().map(|g| g.name).collect();
        println!("FAILED gates: {}", broken.join(", "));
        // Flight recorder: every red run carries its own post-mortem — the
        // exec-tampering trace tail, the metrics snapshot and the
        // log-composition breakdown, bounded and CI-artifacted.
        let reason = format!("failing gates: {}", broken.join(", "));
        let (events, dropped) = traces
            .first()
            .map_or((&[] as &[tnic_obs::Event], 0), |(_, e, d)| {
                (e.as_slice(), *d)
            });
        let sections = [
            ("metrics", registry.render_json()),
            ("log_composition", report::log_composition_json(&results)),
        ];
        let flight_dir = report_path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map_or_else(|| PathBuf::from("reports"), std::path::Path::to_path_buf);
        match tnic_obs::flight::write_flight_record(
            &flight_dir,
            "reproduce",
            &reason,
            events,
            dropped,
            4096,
            &sections,
        ) {
            Ok(path) => println!("flight record written to {}", path.display()),
            Err(err) => eprintln!("cannot write flight record: {err}"),
        }
        std::process::exit(1);
    }
}
