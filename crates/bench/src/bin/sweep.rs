//! Accountability parameter sweep: payload size × cluster size × witness
//! count × audit period, for dedicated and piggybacked commitments, emitting
//! CSV (the data behind the overhead-scaling figures). Besides the raw
//! PeerReview substrate, the grid sweeps the engine stacked under the BFT
//! counter, the replicated KV chain and the replicated A2M (`app` column).
//! PeerReview rows additionally carry two detection-latency columns: audit
//! rounds until every correct witness exposes a seq-0 log tamperer in a
//! twin run of the same configuration, under full auditing
//! (`exposure_latency_rounds`) and under the row's own sampling
//! (`detection_latency_rounds`).
//!
//! Usage: `cargo run --release -p tnic-bench --bin sweep [--out FILE]
//! [--report FILE]`
//!
//! Rows go to stdout unless `--out` is given; `--report` additionally
//! writes a markdown summary table of the swept rows. `BENCH_sweep.csv` in
//! the repository root is a committed snapshot of the grid.

use std::fmt::Write as _;
use std::io::Write as _;
use tnic_bench::{
    report, sweep_csv, App, ChurnAction, ChurnPlan, CommitMode, Experiment, Outcome,
    SWEEP_CSV_HEADER,
};
use tnic_core::error::CoreError;
use tnic_net::adversary::{FaultPlan, NodeFault, PartitionSchedule};

/// Per-row wall-clock budget for n >= 1000 rows, probes included. Sized
/// for the n = 10 000 sampled rows: the 512-shard row pays ~w² replay work
/// per audit round (rotation period × per-round control digests both grow
/// with w) and measures ~200-250s on a quiet host — the budget doubles that
/// to absorb shared-runner noise while still catching order-of-magnitude
/// regressions like an accidental full-audit run.
const MAX_LARGE_N_SECONDS: f64 = 480.0;

/// Bound on the whole sweep's peak resident set (`VmHWM`), in MB, read once
/// after the last row. About 1.5× the 683 MB the grid peaks at on
/// a 2-vCPU Linux host, most of it in the n = 10 000 rows: wide enough for
/// allocator and host noise, tight enough to catch per-pair or per-key
/// state growing by half again before it reaches a runner's memory limit.
const MAX_SWEEP_PEAK_RSS_MB: f64 = 1024.0;

/// A measured grid point: the fault-free run and the detection latencies
/// of its tamperer twins (full audit, own sampling).
type Row = (Experiment, Outcome, Option<u64>, Option<u64>);

fn grid() -> Vec<Experiment> {
    let mut points = Vec::new();
    // The fault-free rows run undrained.
    let base = |app, mode| Experiment {
        drain: false,
        ..Experiment::new(app, mode)
    };
    for payload in [4, 1024] {
        for nodes in [4, 8] {
            // Witness counts: minimal, an intermediate value, and all-to-all.
            let mut witness_counts = vec![1, 2, nodes - 1];
            witness_counts.sort_unstable();
            witness_counts.dedup();
            for period in [1, 4] {
                let point = |mode| Experiment {
                    payload,
                    nodes,
                    audit_period: period,
                    rounds: 4 * period,
                    ops_per_round: 2 * u64::from(nodes),
                    ..base(App::PeerReview, mode)
                };
                points.push(point(CommitMode::Dedicated));
                for &witnesses in &witness_counts {
                    points.push(point(CommitMode::Piggyback { witnesses }));
                }
                // The long-running configuration: piggybacked commitments
                // plus cosigned checkpointing every other audit round
                // (retained entries/bytes columns show the GC effect).
                points.push(point(CommitMode::Checkpointed {
                    witnesses: 2,
                    interval: 2,
                }));
            }
        }
    }
    // Robustness rows, drained: one crash-recover cycle on node 1 every
    // four audit rounds (`churn_rate` 0.25), then a two-round partition
    // window isolating node 1 that opens after the first audit round (the
    // run gets enough challenge retries for healing to clear suspicion).
    // The exposure-latency column shows detection still lands once the
    // node is back.
    let crash_cycles = [1, 5]
        .into_iter()
        .flat_map(|round| {
            [
                (round, ChurnAction::Crash { node: 1 }),
                (round + 1, ChurnAction::Recover { node: 1 }),
            ]
        })
        .collect();
    let partition = PartitionSchedule::new([1], 1, 3);
    let retries = partition.outage_rounds() + 1;
    for (actions, partition, retries) in [
        (crash_cycles, None, 0),
        (Vec::new(), Some(partition), retries),
    ] {
        for mode in [
            CommitMode::Dedicated,
            CommitMode::Piggyback { witnesses: 2 },
        ] {
            let mut point = Experiment {
                payload: 256,
                rounds: 8,
                churn: ChurnPlan {
                    actions: actions.clone(),
                    partition: partition.clone(),
                },
                ..Experiment::new(App::PeerReview, mode)
            };
            point.engine.challenge_retries = retries as u32;
            points.push(point);
        }
    }
    // Accountability stacked on the BFT / CR transforms and the replicated
    // A2M: the payload column is the request-context size (BFT) / value
    // size (CR) / entry size (A2M).
    for app in [App::Bft, App::Cr, App::A2m] {
        for payload in [16, 256] {
            for period in [1, 4] {
                let point = |mode| Experiment {
                    payload,
                    nodes: 3,
                    audit_period: period,
                    rounds: 4 * period,
                    ops_per_round: 4,
                    ..base(app, mode)
                };
                points.push(point(CommitMode::Dedicated));
                points.push(point(CommitMode::Piggyback { witnesses: 2 }));
                points.push(point(CommitMode::Checkpointed {
                    witnesses: 2,
                    interval: 2,
                }));
            }
        }
    }
    // The scaling frontier: sharded PeerReview rows at n = 1000 and
    // n = 10 000.
    let frontier = |nodes, witnesses, shards, audit_sample_size, rounds, ops_per_round| {
        let mut point = Experiment {
            nodes,
            payload: 64,
            rounds,
            ops_per_round,
            ..base(App::PeerReview, CommitMode::Piggyback { witnesses })
        };
        point.engine.audit_sample_size = audit_sample_size;
        point.engine.shards = shards;
        point
    };
    // n = 1000: a full-audit baseline row and a sampled row. The pair
    // quantifies the headline trade: sampled auditing cuts audit messages
    // per node per round by an order of magnitude while the rotating sample
    // keeps detection latency bounded by `charges/size` audit rounds (the
    // `detection_latency_rounds` column; measured `w + 1` at k = 1, the last
    // witness's rotation reaching the pair). Short full-audit run (every
    // round already costs 2·w·n audit messages; a pair with an outstanding
    // challenge is skipped, so an odd round count maximizes the measured
    // per-round rate); longer sampled run so the rotating sample completes
    // a full coverage cycle and the detection probe can land.
    for (audit_sample_size, rounds) in [(None, 3), (Some(1), 28)] {
        points.push(frontier(1000, 24, 8, audit_sample_size, rounds, 1000));
    }
    // Pushing the wall an order of magnitude: n = 10 000, sampled-only
    // (k = 1). A full-audit row at this scale is the wall itself — 2·w·n
    // audit messages per node round — so the rows sweep the witness/shard
    // split instead and quantify how detection latency scales with shard
    // count while round-digest batching keeps the audit share of the log
    // flat. Round counts cover the k = 1 rotation (detection lands within
    // ~w + 1 audit rounds plus slack).
    for (witnesses, shards, rounds) in [(12, 512, 12), (9, 1024, 10), (4, 2048, 8)] {
        points.push(frontier(10_000, witnesses, shards, Some(1), rounds, 2_500));
    }
    points
}

/// Runs one grid point and, on the PeerReview substrate, its tamperer
/// twins at node 1: the same point with a seq-0 log tamperer, under full
/// auditing and under the point's own sampling.
fn measure(point: Experiment) -> Result<Row, CoreError> {
    // The measured deployment is gone once `run` returns; at n = 10 000 it
    // is most of the process's memory, and the twins below are as large.
    let outcome = point.run()?;
    outcome.lemmas_held()?;
    if point.app != App::PeerReview {
        return Ok((point, outcome, None, None));
    }
    let tamperer = 1u32.min(point.nodes.saturating_sub(1));
    let twin = |audit_sample_size| {
        let mut twin = Experiment {
            faults: FaultPlan::single(tamperer, NodeFault::TamperLogEntry { seq: 0 }),
            ..point.clone()
        };
        twin.engine.audit_sample_size = audit_sample_size;
        twin.detection_latency(tamperer)
    };
    let sampled = point.engine.audit_sample_size.is_some();
    // The full-audit twin is the baseline the sampled detection column is
    // compared against — but at n >= 10 000 a full-audit run (every witness
    // replaying every charge every round) is exactly the wall the
    // sampled-only rows exist to avoid, so the column stays empty there
    // instead of burning the row's wall-clock budget on it.
    let exposure = if sampled && point.nodes >= 10_000 {
        None
    } else {
        twin(None)?
    };
    // Without sampling the second twin would be identical.
    let detection = if sampled {
        twin(point.engine.audit_sample_size)?
    } else {
        exposure
    };
    Ok((point, outcome, exposure, detection))
}

/// Audit wire messages per node per audit round of a measured row.
fn audit_rate((point, outcome, ..): &Row) -> f64 {
    outcome.per_node_round(outcome.stats.audit_messages, point.nodes)
}

/// The ≥10× headline check: at the n = 1000 frontier the sampled row must
/// cut audit messages per node per round by at least 10× against the
/// full-audit row, and its detection probe must land.
fn check_frontier(rows: &[Row]) -> Result<(), String> {
    let frontier: Vec<&Row> = rows.iter().filter(|r| r.0.nodes == 1000).collect();
    let find = |sampled: bool| {
        frontier
            .iter()
            .find(|r| r.0.engine.audit_sample_size.is_some() == sampled)
    };
    let full = find(false).ok_or("no full-audit frontier row")?;
    let sampled = find(true).ok_or("no sampled frontier row")?;
    let ratio = audit_rate(full) / audit_rate(sampled).max(1e-9);
    if ratio < 10.0 {
        return Err(format!(
            "sampled auditing only cut audit traffic {ratio:.1}x at n = 1000 \
             ({:.2} vs {:.2} audit msgs/node/round); the headline requires >= 10x",
            audit_rate(full),
            audit_rate(sampled)
        ));
    }
    let latency = sampled
        .3
        .ok_or("sampled frontier row never detected its tamperer twin")?;
    eprintln!(
        "frontier: {ratio:.1}x audit-traffic cut at n = 1000, \
         sampled detection in {latency} audit rounds"
    );
    // The n = 10 000 rows are sampled-only (a full audit at that scale is
    // the wall being demonstrated): every row's detection probe must land,
    // and the witness/shard trade is reported as latency-vs-shard-count.
    let rows10k: Vec<&Row> = rows.iter().filter(|r| r.0.nodes == 10_000).collect();
    if rows10k.is_empty() {
        return Err("no n = 10000 frontier rows".to_string());
    }
    for row in rows10k {
        let (point, ..) = row;
        let latency = row.3.ok_or_else(|| {
            format!(
                "n = 10000 row (shards {}, {}) never detected its tamperer twin",
                point.engine.shards,
                point.mode().label()
            )
        })?;
        eprintln!(
            "frontier n = 10000: shards {:>4}, {}: {:.2} audit msgs/node/round, \
             detection in {latency} audit rounds",
            point.engine.shards,
            point.mode().label(),
            audit_rate(row)
        );
    }
    Ok(())
}

/// The sweep table (a compact markdown mirror of the CSV).
fn sweep_section(rows: &[Row]) -> String {
    let dash = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    let mut out = String::from(
        "## Parameter sweep\n\n\
         | app | mode | payload B | nodes | witnesses | sample | shards | ctl/app | retained | \
         audit msgs/node/rd | audit p50 µs | audit p99 µs | exposure rounds | detection rounds |\n\
         |---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for row @ (point, outcome, exposure, detection) in rows {
        let stats = &outcome.stats;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.2} | {} | {:.2} | {:.1} | {:.1} | {} | {} |",
            point.app.label(),
            point.mode().label(),
            point.payload,
            point.nodes,
            outcome.verdicts.keys().filter(|&&(_, n)| n == 0).count(),
            dash(point.engine.audit_sample_size.map(u64::from)),
            point.engine.shards.max(1),
            stats.control_overhead_ratio(),
            stats.retained_log_entries,
            audit_rate(row),
            stats.audit_latency.percentile_us(0.5),
            stats.audit_latency.percentile_us(0.99),
            dash(*exposure),
            dash(*detection),
        );
    }
    out
}

/// This process's peak resident set so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let target = match arg.as_str() {
            "--out" => &mut out_path,
            "--report" => &mut report_path,
            other => {
                eprintln!("unknown argument: {other}\nusage: sweep [--out FILE] [--report FILE]");
                std::process::exit(2);
            }
        };
        *target = Some(args.next().unwrap_or_else(|| {
            eprintln!("{arg} requires a path");
            std::process::exit(2);
        }));
    }

    let mut lines = vec![SWEEP_CSV_HEADER.to_string()];
    let mut measured: Vec<Row> = Vec::new();
    let mut failure_lines: Vec<String> = Vec::new();
    for point in grid() {
        let started = std::time::Instant::now();
        let (nodes, shards, rounds, mode) = (
            point.nodes,
            point.engine.shards,
            point.rounds,
            point.mode().label(),
        );
        match measure(point.clone()) {
            Ok(row) => {
                lines.push(sweep_csv(&row.0, &row.1, row.2, row.3));
                measured.push(row);
            }
            Err(err) => {
                let line = format!("sweep point {point:?}: {err}");
                eprintln!("{line}");
                failure_lines.push(line);
            }
        }
        // The wall-clock budget: an n >= 1000 row must stay inside CI time.
        let elapsed = started.elapsed().as_secs_f64();
        if nodes >= 1000 {
            eprintln!(
                "sweep point n={nodes} ({mode}, shards {shards}, rounds {rounds}): {elapsed:.1}s \
                 (budget {MAX_LARGE_N_SECONDS:.1}s)"
            );
            if elapsed > MAX_LARGE_N_SECONDS {
                let line = format!(
                    "sweep point n={nodes} took {elapsed:.1}s, over the budget of \
                     {MAX_LARGE_N_SECONDS:.1}s"
                );
                eprintln!("{line}");
                failure_lines.push(line);
            }
        }
    }
    if let Err(err) = check_frontier(&measured) {
        eprintln!("ERROR: {err}");
        failure_lines.push(format!("frontier check: {err}"));
    }
    // The memory guard: printed beside the row timings, never written to
    // the CSV or the report, which must not vary with the host.
    match peak_rss_mb() {
        Some(peak) => {
            eprintln!("sweep peak RSS: {peak:.0} MB (bound {MAX_SWEEP_PEAK_RSS_MB:.0} MB)");
            if peak > MAX_SWEEP_PEAK_RSS_MB {
                failure_lines.push(format!(
                    "sweep peak RSS {peak:.0} MB is over the bound of {MAX_SWEEP_PEAK_RSS_MB:.0} MB"
                ));
            }
        }
        None => failure_lines.push("sweep peak RSS: no VmHWM in /proc/self/status".to_string()),
    }
    let csv = lines.join("\n") + "\n";

    if let Some(path) = report_path {
        let path = std::path::PathBuf::from(path);
        let sections = [sweep_section(&measured)];
        match report::write_report(&path, "TNIC accountability parameter sweep", &sections) {
            Ok(()) => eprintln!("report written to {}", path.display()),
            Err(err) => {
                eprintln!("cannot write report {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }

    match out_path {
        Some(path) => {
            let mut file = std::fs::File::create(&path).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(1);
            });
            file.write_all(csv.as_bytes()).expect("write CSV");
            eprintln!("{} rows written to {path}", lines.len() - 1);
        }
        None => print!("{csv}"),
    }

    if !failure_lines.is_empty() {
        let failures = failure_lines.len();
        // The sweep installs no recorder (tracing would skew the timing
        // rows), so the flight record carries the failure details and the
        // measured rows instead of an event tail.
        let json_list = |items: &[String]| {
            let quoted: Vec<String> = items
                .iter()
                .map(|l| format!("\"{}\"", tnic_obs::export::json_escape(l)))
                .collect();
            format!("[{}]", quoted.join(","))
        };
        let sections = [
            ("failures", json_list(&failure_lines)),
            ("sweep_rows", json_list(&lines[1..])),
        ];
        let reason = format!("{failures} sweep point(s) failed");
        match tnic_obs::flight::write_flight_record(
            std::path::Path::new("reports"),
            "sweep",
            &reason,
            &[],
            0,
            4096,
            &sections,
        ) {
            Ok(path) => eprintln!("flight record written to {}", path.display()),
            Err(err) => eprintln!("cannot write flight record: {err}"),
        }
        eprintln!("ERROR: {reason}");
        std::process::exit(1);
    }
}
