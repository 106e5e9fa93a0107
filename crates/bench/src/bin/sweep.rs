//! Accountability parameter sweep: payload size × cluster size × witness
//! count × audit period, for dedicated and piggybacked commitments, emitting
//! CSV (the data behind the overhead-scaling figures). Besides the raw
//! PeerReview substrate, the grid sweeps the engine stacked under the BFT
//! counter and the replicated KV chain (`app` column = `bft` / `cr`).
//! PeerReview rows additionally carry a detection-latency column
//! (`exposure_latency_rounds`): audit rounds until every correct witness
//! exposes a seq-0 log tamperer in a twin run of the same configuration.
//!
//! Usage: `cargo run --release -p tnic-bench --bin sweep [--full] [--out FILE]
//! [--report FILE]`
//!
//! The default grid keeps CI fast; `--full` sweeps the complete grid. Rows go
//! to stdout unless `--out` is given; `--report` additionally writes a
//! markdown summary table of the swept rows. `BENCH_sweep.csv` in the
//! repository root is a committed snapshot of the default grid.

use std::io::Write;
use tnic_bench::{report, run_sweep_point, CommitMode, SweepApp, SweepPoint, SWEEP_CSV_HEADER};
use tnic_peerreview::engine::EngineConfig;

fn grid(full: bool) -> Vec<SweepPoint> {
    let payloads: &[usize] = if full {
        &[4, 256, 1024, 4096]
    } else {
        &[4, 1024]
    };
    let node_counts: &[u32] = if full { &[2, 4, 6, 8] } else { &[4, 8] };
    let periods: &[u64] = if full { &[1, 2, 4] } else { &[1, 4] };

    let mut points = Vec::new();
    for &payload in payloads {
        for &nodes in node_counts {
            // Witness counts: minimal, an intermediate value, and all-to-all.
            let mut witness_counts = vec![1, 2, nodes - 1];
            witness_counts.sort_unstable();
            witness_counts.dedup();
            for &period in periods {
                let point = |mode| SweepPoint {
                    payload,
                    nodes,
                    audit_period: period,
                    rounds: 4 * period,
                    messages_per_round: 2 * u64::from(nodes),
                    ..SweepPoint::new(SweepApp::PeerReview, mode)
                };
                points.push(point(CommitMode::Dedicated));
                for &w in &witness_counts {
                    if w >= 1 {
                        points.push(point(CommitMode::Piggyback { witnesses: w }));
                    }
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
    // Robustness rows: crash-recover churn cycles and a healed partition
    // window on node 1 of the PeerReview substrate — the `churn_rate` /
    // `partition_rounds` columns carry the schedule, the exposure-latency
    // column shows detection still lands once the node is back.
    let churn_schedules: &[(f64, u64)] = if full {
        &[(0.25, 0), (0.5, 0), (0.0, 2), (0.25, 2)]
    } else {
        &[(0.25, 0), (0.0, 2)]
    };
    for &(churn_rate, partition_rounds) in churn_schedules {
        for mode in [
            CommitMode::Dedicated,
            CommitMode::Piggyback { witnesses: 2 },
        ] {
            points.push(SweepPoint {
                payload: 256,
                rounds: 8,
                churn_rate,
                partition_rounds,
                ..SweepPoint::new(SweepApp::PeerReview, mode)
            });
        }
    }
    // Accountability stacked on the BFT / CR transforms and the replicated
    // A2M: the payload column is the request-context size (BFT) / value
    // size (CR) / entry size (A2M).
    let acct_payloads: &[usize] = if full { &[16, 256, 1024] } else { &[16, 256] };
    let acct_nodes: &[u32] = if full { &[3, 5] } else { &[3] };
    for app in [SweepApp::Bft, SweepApp::Cr, SweepApp::A2m] {
        for &payload in acct_payloads {
            for &nodes in acct_nodes {
                for &period in periods {
                    let point = |mode| SweepPoint {
                        payload,
                        nodes,
                        audit_period: period,
                        rounds: 4 * period,
                        messages_per_round: 4,
                        ..SweepPoint::new(app, mode)
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
    }
    // The scaling frontier: sharded PeerReview rows at n = 1000 and
    // n = 10 000.
    let frontier = |nodes, witnesses, shards, audit_sample_size, rounds| {
        let base = SweepPoint::new(SweepApp::PeerReview, CommitMode::Piggyback { witnesses });
        SweepPoint {
            nodes,
            rounds,
            engine: EngineConfig {
                audit_sample_size,
                shards,
                ..base.engine
            },
            ..base
        }
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
        points.push(SweepPoint {
            messages_per_round: 1000,
            ..frontier(1000, 24, 8, audit_sample_size, rounds)
        });
    }
    // Pushing the wall an order of magnitude: n = 10 000, sampled-only
    // (k = 1). A full-audit row at this scale is the wall itself — 2·w·n
    // audit messages per node round — so the rows sweep the witness/shard
    // split instead and quantify how detection latency scales with shard
    // count while round-digest batching keeps the audit share of the log
    // flat. Round counts cover the k = 1 rotation (detection lands within
    // ~w + 1 audit rounds plus slack).
    let frontier10k = |witnesses, shards, rounds| SweepPoint {
        messages_per_round: 2_500,
        ..frontier(10_000, witnesses, shards, Some(1), rounds)
    };
    points.push(frontier10k(12, 512, 12));
    points.push(frontier10k(9, 1024, 10));
    points.push(frontier10k(4, 2048, 8));
    points
}

/// The ≥10× headline check: at the n = 1000 frontier the sampled row must
/// cut audit messages per node per round by at least 10× against the
/// full-audit row, and its detection probe must land.
fn check_frontier(rows: &[tnic_bench::SweepRow]) -> Result<(), String> {
    let frontier: Vec<_> = rows.iter().filter(|r| r.point.nodes == 1000).collect();
    let full = frontier
        .iter()
        .find(|r| r.point.engine.audit_sample_size.is_none())
        .ok_or("no full-audit frontier row")?;
    let sampled = frontier
        .iter()
        .find(|r| r.point.engine.audit_sample_size.is_some())
        .ok_or("no sampled frontier row")?;
    let ratio = full.audit_msgs_per_node_round() / sampled.audit_msgs_per_node_round().max(1e-9);
    if ratio < 10.0 {
        return Err(format!(
            "sampled auditing only cut audit traffic {ratio:.1}x at n = 1000 \
             ({:.2} vs {:.2} audit msgs/node/round); the headline requires >= 10x",
            full.audit_msgs_per_node_round(),
            sampled.audit_msgs_per_node_round()
        ));
    }
    let latency = sampled
        .detection_latency_rounds
        .ok_or("sampled frontier row never detected its tamperer twin")?;
    eprintln!(
        "frontier: {ratio:.1}x audit-traffic cut at n = 1000, \
         sampled detection in {latency} audit rounds"
    );
    // The n = 10 000 rows are sampled-only (a full audit at that scale is
    // the wall being demonstrated): every row's detection probe must land,
    // and the witness/shard trade is reported as latency-vs-shard-count.
    let rows10k: Vec<_> = rows.iter().filter(|r| r.point.nodes == 10_000).collect();
    if rows10k.is_empty() {
        return Err("no n = 10000 frontier rows".to_string());
    }
    for row in rows10k {
        let latency = row.detection_latency_rounds.ok_or_else(|| {
            format!(
                "n = 10000 row (shards {}, {}) never detected its tamperer twin",
                row.point.engine.shards,
                row.point.mode.label()
            )
        })?;
        eprintln!(
            "frontier n = 10000: shards {:>4}, {}: {:.2} audit msgs/node/round, \
             detection in {latency} audit rounds",
            row.point.engine.shards,
            row.point.mode.label(),
            row.audit_msgs_per_node_round()
        );
    }
    Ok(())
}

fn main() {
    let mut full = false;
    let mut out_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    // Per-row wall-clock budget for n >= 1000 rows. Sized for the
    // n = 10 000 sampled rows: the 512-shard row pays ~w² replay work per
    // audit round (rotation period × per-round control digests both grow
    // with w) and measures ~200-250s on a quiet host — the budget doubles
    // that to absorb shared-runner noise while still catching order-of-
    // magnitude regressions like an accidental full-audit run.
    let mut max_large_n_seconds: f64 = 480.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            "--report" => match args.next() {
                Some(path) => report_path = Some(path),
                None => {
                    eprintln!("--report requires a path");
                    std::process::exit(2);
                }
            },
            "--max-large-n-seconds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_large_n_seconds = v,
                None => {
                    eprintln!("--max-large-n-seconds requires a number");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: sweep [--full] [--out FILE] [--report FILE] \
                     [--max-large-n-seconds SECS]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut rows = vec![SWEEP_CSV_HEADER.to_string()];
    let mut measured = Vec::new();
    let mut failure_lines: Vec<String> = Vec::new();
    for point in grid(full) {
        let started = std::time::Instant::now();
        match run_sweep_point(point) {
            Ok(row) => {
                rows.push(row.to_csv());
                measured.push(row);
            }
            Err(err) => {
                let line = format!("sweep point {point:?}: {err}");
                eprintln!("{line}");
                failure_lines.push(line);
            }
        }
        // The wall-clock budget: an n >= 1000 row must stay inside CI time
        // (the budget is per row, probes included).
        let elapsed = started.elapsed().as_secs_f64();
        if point.nodes >= 1000 {
            eprintln!(
                "sweep point n={} ({}, shards {}, rounds {}): {elapsed:.1}s \
                 (budget {max_large_n_seconds:.1}s)",
                point.nodes,
                point.mode.label(),
                point.engine.shards,
                point.rounds
            );
        }
        if point.nodes >= 1000 && elapsed > max_large_n_seconds {
            let line = format!(
                "sweep point n={} took {elapsed:.1}s, over the \
                 --max-large-n-seconds budget of {max_large_n_seconds:.1}s",
                point.nodes
            );
            eprintln!("{line}");
            failure_lines.push(line);
        }
    }
    if let Err(err) = check_frontier(&measured) {
        eprintln!("ERROR: {err}");
        failure_lines.push(format!("frontier check: {err}"));
    }
    let csv = rows.join("\n") + "\n";

    if let Some(path) = report_path {
        let path = std::path::PathBuf::from(path);
        let sections = [report::sweep_section(&measured)];
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
            eprintln!("{} rows written to {path}", rows.len() - 1);
        }
        None => print!("{csv}"),
    }

    if !failure_lines.is_empty() {
        let failures = failure_lines.len();
        // The sweep installs no recorder (tracing would skew the timing
        // rows), so the flight record carries the failure details and the
        // measured rows instead of an event tail.
        let failures_json = format!(
            "[{}]",
            failure_lines
                .iter()
                .map(|l| format!("\"{}\"", tnic_obs::export::json_escape(l)))
                .collect::<Vec<_>>()
                .join(",")
        );
        let rows_json = format!(
            "[{}]",
            measured
                .iter()
                .map(|r| format!("\"{}\"", tnic_obs::export::json_escape(&r.to_csv())))
                .collect::<Vec<_>>()
                .join(",")
        );
        let sections = [("failures", failures_json), ("sweep_rows", rows_json)];
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
