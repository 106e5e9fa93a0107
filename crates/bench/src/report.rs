//! Generated markdown perf reports for the reproduction runs.
//!
//! `reproduce` renders what it measured — verdict tables, throughput,
//! control/app overhead, latency percentiles, allocation counts, and the
//! per-phase exposure-latency breakdown reconstructed from the
//! [`tnic_obs`] event recorder — into `reports/<name>.md`, and prints the
//! same sections. Each section is a plain function from `(Case, Outcome)`
//! rows (or the probe's `(Experiment, Outcome, detection)` rows) to
//! markdown, so the binaries and tests compose exactly the report they
//! need.

use crate::gates::GateOutcome;
use crate::{Case, Experiment, Outcome};
use std::fmt::Write as _;
use std::path::Path;
use tnic_obs::metrics::MetricsRegistry;
use tnic_obs::timeline::{explain_verdict, verdict_transitions, VerdictChain};
use tnic_obs::{codes, Event};

/// Virtual throughput of a run in application messages per virtual second.
fn virtual_throughput(outcome: &Outcome) -> f64 {
    if outcome.virtual_time_us == 0 {
        0.0
    } else {
        outcome.stats.app_messages as f64 * 1e6 / outcome.virtual_time_us as f64
    }
}

/// A row's summary verdict, marked `(split)` when the witnesses behind it
/// disagree.
fn verdict_cell(case: &Case, outcome: &Outcome) -> String {
    let (verdict, unanimous) = outcome.summary(&case.expect);
    if unanimous {
        verdict.label().to_string()
    } else {
        format!("{} (split)", verdict.label())
    }
}

/// The verdict a case expects on its faulty node (`trusted` without one).
fn expected_cell(case: &Case) -> &'static str {
    case.expect
        .faulty
        .map_or(tnic_peerreview::audit::Verdict::Trusted, |(_, class)| class)
        .label()
}

/// `"ok"` or `"FAIL"`.
fn ok(pass: bool) -> &'static str {
    if pass {
        "ok"
    } else {
        "FAIL"
    }
}

/// The scenario verdict/overhead table: one row per (scenario, mode) with
/// throughput, ctl/app overhead and audit-latency percentiles.
#[must_use]
pub fn scenario_section(rows: &[(Case, Outcome)]) -> String {
    let mut out = String::from(
        "## PeerReview fault-injection scenarios\n\n\
         | scenario | baseline | mode | verdict | expected | app msgs | ctl msgs | ctl/app | \
         msgs/vsec | audit p50 µs | audit p99 µs |\n\
         |---|---|---|---|---|---:|---:|---:|---:|---:|---:|\n",
    );
    for (case, outcome) in rows {
        let stats = &outcome.stats;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.2} | {:.0} | {:.1} | {:.1} |",
            case.name,
            case.experiment.engine.baseline.label(),
            case.experiment.mode().label(),
            verdict_cell(case, outcome),
            expected_cell(case),
            stats.app_messages,
            stats.control_messages,
            stats.control_overhead_ratio(),
            virtual_throughput(outcome),
            stats.audit_latency.percentile_us(0.5),
            stats.audit_latency.percentile_us(0.99),
        );
    }
    out
}

/// The accountability-as-middleware table: the engine stacked under
/// BFT / chain replication / A2M, with its virtual-time cost against the
/// engine-free twin.
#[must_use]
pub fn acct_section(rows: &[(Case, Outcome)]) -> String {
    let mut out = String::from(
        "## Accountability as middleware\n\n\
         | scenario | mode | verdict | ctl/app | time overhead | msgs/vsec | commit | parity |\n\
         |---|---|---|---:|---:|---:|---|---|\n",
    );
    for (case, outcome) in rows {
        let time_overhead = match outcome.bare_time_us {
            Some(bare) if bare > 0 => outcome.virtual_time_us as f64 / bare as f64,
            _ => f64::NAN,
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} | {time_overhead:.2}x | {:.0} | {} | {} |",
            case.name,
            case.experiment.mode().label(),
            verdict_cell(case, outcome),
            outcome.stats.control_overhead_ratio(),
            virtual_throughput(outcome),
            ok(outcome.committed),
            ok(outcome.replicas_agree),
        );
    }
    out
}

/// The membership-churn robustness table: verdicts, settle delay (one
/// entry of `delays` per row) and churn/drop counters per case.
#[must_use]
pub fn churn_section(rows: &[(Case, Outcome)], delays: &[(String, Option<u64>)]) -> String {
    let mut out = String::from(
        "## Membership churn, crash-recovery and partition healing\n\n\
         Settle delay counts audit rounds past the churn schedule until every \
         correct pair is back to `trusted` (and the tamperer, where injected, \
         is `exposed` at every correct witness).\n\n\
         | scenario | mode | verdict | expected | settle delay | accuracy | \
         joins | leaves | crashes | recoveries | retries | drops |\n\
         |---|---|---|---|---:|---|---:|---:|---:|---:|---:|---:|\n",
    );
    for ((case, outcome), (_, delay)) in rows.iter().zip(delays) {
        let stats = &outcome.stats;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            case.name,
            case.experiment.mode().label(),
            outcome.summary(&case.expect).0.label(),
            expected_cell(case),
            delay.map_or_else(|| "never".to_string(), |d| format!("+{d}")),
            ok(outcome.accuracy(&case.expect.may_suspect).is_empty()),
            stats.joins,
            stats.departures,
            stats.crashes,
            stats.recoveries,
            stats.challenge_retries,
            outcome.messages_unreachable + outcome.messages_partitioned,
        );
    }
    out
}

/// The sampled-auditing probe's label for an experiment: `full audit` or
/// `sampled (k=…)`.
#[must_use]
pub fn sample_label(experiment: &Experiment) -> String {
    experiment
        .engine
        .audit_sample_size
        .map_or_else(|| "full audit".to_string(), |k| format!("sampled (k={k})"))
}

/// The scaling-frontier section: audit traffic vs detection latency per
/// audit configuration of the sampled-auditing probe — each fault-free run
/// with the detection latency of its log-tamperer twin. The frontier the
/// sweep's n ≥ 1000 rows plot in full is summarised here at probe scale:
/// each sampled row buys its audit-traffic cut with a bounded detection
/// delay (never a missed detection).
#[must_use]
pub fn scaling_section(rows: &[(Experiment, Outcome, Option<u64>)]) -> String {
    let mut out = String::from(
        "## Scaling frontier — sampled auditing\n\n\
         Audit traffic (wire messages per node per audit round) against the \
         rounds until a log tamperer is exposed, per audit configuration. \
         `batched` counts audit elements that rode a coalesced envelope \
         instead of their own message.\n\n\
         | configuration | sample | audit msgs/node/rd | audit msgs | batched | \
         detection rounds |\n\
         |---|---:|---:|---:|---:|---:|\n",
    );
    let rate = |(exp, outcome, _): &(Experiment, Outcome, Option<u64>)| {
        outcome.per_node_round(outcome.stats.audit_messages, exp.nodes)
    };
    for row @ (exp, outcome, detection) in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {} | {} | {} |",
            sample_label(exp),
            exp.engine
                .audit_sample_size
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            rate(row),
            outcome.messages_audit,
            outcome.messages_batched,
            detection.map_or_else(|| "never".to_string(), |n| n.to_string()),
        );
    }
    let sampled =
        |row: &&(Experiment, Outcome, Option<u64>)| row.0.engine.audit_sample_size.is_some();
    if let (Some(full), Some(best)) = (
        rows.iter().find(|row| !sampled(row)),
        rows.iter()
            .filter(sampled)
            .min_by(|a, b| rate(a).total_cmp(&rate(b))),
    ) {
        let _ = writeln!(
            out,
            "\nBest sampled configuration cuts audit traffic {:.1}x vs full audit.",
            rate(full) / rate(best).max(1e-9),
        );
    }
    out
}

/// The log-composition and replay-work section: what the per-node logs
/// actually hold (app payloads vs control digests vs audit-protocol
/// digests) and how many entries audit replay ground through — the
/// measured face of the O(w²) full-audit wall: every audit-protocol
/// message a witness sends becomes a log entry the *next* audit round must
/// cover, and under full auditing every witness replays every audited
/// node's whole window.
#[must_use]
pub fn log_composition_section(rows: &[(Case, Outcome)]) -> String {
    let mut out = String::from(
        "## Log composition and replay work\n\n\
         Entry classes across all node logs (everything ever appended) and \
         the entries fed through audit replay. The audit-digest column is \
         the log growth the audit machinery inflicts on itself; replayed/app \
         is the replay-work amplification of full auditing.\n\n\
         | scenario | baseline | mode | app payload | ctl digest | audit digest | \
         audit share | replayed | replayed/app |\n\
         |---|---|---|---:|---:|---:|---:|---:|---:|\n",
    );
    for (case, outcome) in rows {
        let s = &outcome.stats;
        let total =
            s.log_app_payload_entries + s.log_control_digest_entries + s.log_audit_digest_entries;
        let audit_share = if total == 0 {
            0.0
        } else {
            100.0 * s.log_audit_digest_entries as f64 / total as f64
        };
        let replayed_per_app = if s.app_messages == 0 {
            0.0
        } else {
            s.entries_replayed as f64 / s.app_messages as f64
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {:.1}% | {} | {:.2} |",
            case.name,
            case.experiment.engine.baseline.label(),
            case.experiment.mode().label(),
            s.log_app_payload_entries,
            s.log_control_digest_entries,
            s.log_audit_digest_entries,
            audit_share,
            s.entries_replayed,
            replayed_per_app,
        );
    }
    out
}

/// The log-composition breakdown as a JSON array (one object per scenario
/// row) — the flight recorder's `log_composition` section.
#[must_use]
pub fn log_composition_json(rows: &[(Case, Outcome)]) -> String {
    use tnic_obs::export::json_escape;
    let rows: Vec<String> = rows
        .iter()
        .map(|(case, outcome)| {
            let s = &outcome.stats;
            format!(
                "{{\"name\":\"{}\",\"mode\":\"{}\",\"app_payload\":{},\
                 \"control_digest\":{},\"audit_digest\":{},\"replayed\":{}}}",
                json_escape(case.name),
                json_escape(&case.experiment.mode().label()),
                s.log_app_payload_entries,
                s.log_control_digest_entries,
                s.log_audit_digest_entries,
                s.entries_replayed,
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The gate outcomes as a markdown checklist.
#[must_use]
pub fn gates_section(gates: &[GateOutcome]) -> String {
    let mut out = String::from("## Gates\n\n");
    for gate in gates {
        if gate.passed {
            let _ = writeln!(out, "- [x] `{}`", gate.name);
        } else {
            let _ = writeln!(out, "- [ ] `{}` **FAIL**", gate.name);
            for v in &gate.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
    }
    out
}

/// Heap-allocation accounting for the run (counted by the binary's
/// wrapping global allocator).
#[must_use]
pub fn allocs_section(total_allocs: u64, app_messages: u64) -> String {
    let per_msg = if app_messages == 0 {
        0.0
    } else {
        total_allocs as f64 / app_messages as f64
    };
    format!(
        "## Allocations\n\n\
         Heap allocations from the first experiment to the last (engine \
         setup, control plane, lemma monitor and per-run summaries \
         included; argument parsing, trace export and report writing not — \
         the *datapath* zero-alloc guarantee is gated separately by the \
         `zerocopy` bench with tracing enabled): **{total_allocs}** \
         allocations over **{app_messages}** application messages \
         ({per_msg:.1} allocs/msg).\n"
    )
}

/// Folds a recorder snapshot into a labeled metrics scope: one counter per
/// event kind, plus a per-phase virtual-latency histogram for every
/// reconstructed verdict chain.
pub fn accumulate_events(registry: &mut MetricsRegistry, scope: &str, events: &[Event]) {
    let scope = registry.scope(scope);
    for event in events {
        scope.inc(event.kind.label(), 1);
    }
    for chain in final_chains(events) {
        for phase in &chain.phases {
            scope.record_us(
                &format!("phase:{}", phase.phase),
                phase.duration_us() as f64,
            );
        }
    }
}

/// The final reconstructed verdict chain for every `(witness, node)` pair
/// that recorded a verdict transition.
fn final_chains(events: &[Event]) -> Vec<VerdictChain> {
    let mut pairs: Vec<(u32, u32)> = verdict_transitions(events)
        .iter()
        .map(|e| (e.node, e.peer))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .filter_map(|(w, n)| explain_verdict(events, w, n))
        .collect()
}

/// The causal-timeline section for one traced scenario: a verdict table
/// over every `(witness, node)` pair plus the per-phase breakdown of each
/// non-trusted chain — where the exposure latency actually went.
#[must_use]
pub fn timeline_section(scenario: &str, events: &[Event], dropped: u64) -> String {
    let mut out = format!(
        "## Verdict timelines — {scenario}\n\n\
         {} events recorded ({} dropped by the ring).\n\n",
        events.len(),
        dropped
    );
    if dropped > 0 {
        let _ = writeln!(
            out,
            "**Warning:** the event ring wrapped during this run — {dropped} \
             early events were overwritten, so assembled timelines and \
             verdict chains may be truncated at the front. Raise the trace \
             capacity to record the full run.\n"
        );
    }
    let chains = final_chains(events);
    if chains.is_empty() {
        out.push_str("No verdict transitions recorded.\n");
        return out;
    }
    out.push_str(
        "| witness | node | verdict | misbehavior | round | chain | total µs |\n\
         |---:|---:|---|---|---:|---|---:|\n",
    );
    for chain in &chains {
        let steps: Vec<&str> = chain.chain.iter().map(|e| e.kind.label()).collect();
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            chain.witness,
            chain.node,
            codes::verdict_name(chain.verdict),
            codes::misbehavior_name(chain.misbehavior),
            chain.round,
            steps.join(" → "),
            chain.total_us(),
        );
    }
    for chain in &chains {
        if chain.verdict == codes::VERDICT_TRUSTED || chain.phases.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "\n### Phase breakdown: witness {} on node {} ({})\n\n\
             | phase | from µs | to µs | duration µs |\n\
             |---|---:|---:|---:|",
            chain.witness,
            chain.node,
            codes::verdict_name(chain.verdict),
        );
        for phase in &chain.phases {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                phase.phase,
                phase.from_us,
                phase.to_us,
                phase.duration_us()
            );
        }
    }
    out
}

/// The machine-readable run summary (`BENCH_report.json`): gate outcomes,
/// per-scenario numbers and the full metrics-registry snapshot in one JSON
/// document, so the perf trajectory is diffable across PRs alongside the
/// markdown report. `headline` entries are `(key, json_value)` pairs
/// embedded verbatim (the values must already be valid JSON).
#[must_use]
pub fn report_json(
    gates: &[GateOutcome],
    results: &[(Case, Outcome)],
    registry: &MetricsRegistry,
    headline: &[(&str, String)],
) -> String {
    use tnic_obs::export::json_escape;
    let gates_json: Vec<String> = gates
        .iter()
        .map(|g| {
            let violations: Vec<String> = g
                .violations
                .iter()
                .map(|v| format!("\"{}\"", json_escape(v)))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"passed\":{},\"violations\":[{}]}}",
                json_escape(g.name),
                g.passed,
                violations.join(",")
            )
        })
        .collect();
    let scenarios_json: Vec<String> = results
        .iter()
        .map(|(case, outcome)| {
            let s = &outcome.stats;
            let (verdict, unanimous) = outcome.summary(&case.expect);
            format!(
                "{{\"name\":\"{}\",\"baseline\":\"{}\",\"mode\":\"{}\",\
                 \"verdict\":\"{}\",\"expected\":\"{}\",\"unanimous\":{},\
                 \"accuracy\":{},\"app_messages\":{},\"control_messages\":{},\
                 \"ctl_per_app\":{:.4},\"piggybacked\":{},\"audit_p50_us\":{:.1},\
                 \"audit_p99_us\":{:.1},\"virtual_time_us\":{},\
                 \"log_app_entries\":{},\"log_ctl_entries\":{},\
                 \"log_audit_entries\":{},\"entries_replayed\":{}}}",
                json_escape(case.name),
                json_escape(case.experiment.engine.baseline.label()),
                json_escape(&case.experiment.mode().label()),
                json_escape(verdict.label()),
                json_escape(expected_cell(case)),
                unanimous,
                outcome.accuracy(&case.expect.may_suspect).is_empty(),
                s.app_messages,
                s.control_messages,
                s.control_overhead_ratio(),
                s.piggybacked_commitments,
                s.audit_latency.percentile_us(0.5),
                s.audit_latency.percentile_us(0.99),
                outcome.virtual_time_us,
                s.log_app_payload_entries,
                s.log_control_digest_entries,
                s.log_audit_digest_entries,
                s.entries_replayed,
            )
        })
        .collect();
    let mut out = String::from("{\n");
    for (key, value) in headline {
        let _ = writeln!(out, "  \"{}\": {value},", json_escape(key));
    }
    let _ = writeln!(out, "  \"gates\": [{}],", gates_json.join(","));
    let _ = writeln!(
        out,
        "  \"scenarios\": [\n    {}\n  ],",
        scenarios_json.join(",\n    ")
    );
    let _ = writeln!(out, "  \"metrics\": {}", registry.render_json());
    out.push_str("}\n");
    out
}

/// Joins sections under a title and writes the report, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report(path: &Path, title: &str, sections: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut content = format!("# {title}\n\n");
    for section in sections {
        content.push_str(section);
        content.push('\n');
    }
    std::fs::write(path, content)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_obs::EventKind;

    fn event(kind: EventKind, at_us: u64, node: u32, peer: u32, aux: u64) -> Event {
        Event {
            kind,
            at_us,
            node,
            peer,
            aux,
            ..Event::EMPTY
        }
    }

    fn exposure_events() -> Vec<Event> {
        let aux = codes::pack_verdict(
            codes::VERDICT_TRUSTED,
            codes::VERDICT_EXPOSED,
            codes::MIS_EXEC_DIVERGENCE,
        );
        vec![
            event(EventKind::Commitment, 10, 2, 0, 0),
            event(EventKind::Challenge, 40, 2, 0, 0),
            event(EventKind::Response, 70, 2, 0, 3),
            event(EventKind::AuditReplay, 90, 2, 0, codes::MIS_EXEC_DIVERGENCE),
            event(EventKind::VerdictTransition, 95, 2, 0, aux),
        ]
    }

    #[test]
    fn timeline_section_renders_chain_and_phase_breakdown() {
        let section = timeline_section("exec-tampering", &exposure_events(), 0);
        assert!(section.contains("exec-tampering"), "{section}");
        assert!(
            section
                .contains("commitment → challenge → response → audit-replay → verdict-transition"),
            "{section}"
        );
        assert!(section.contains("execution-divergence"), "{section}");
        assert!(section.contains("challenge→response"), "{section}");
        assert!(
            section.contains("| challenge→response | 40 | 70 | 30 |"),
            "{section}"
        );
    }

    #[test]
    fn accumulate_events_counts_kinds_and_phases() {
        let mut registry = MetricsRegistry::new();
        accumulate_events(&mut registry, "exec-tampering", &exposure_events());
        let (label, scope) = registry.scopes().next().expect("scope");
        assert_eq!(label, "exec-tampering");
        let counter = |name| scope.counters().find(|&(k, _)| k == name).map(|(_, v)| v);
        assert_eq!(counter("challenge"), Some(1));
        assert_eq!(counter("verdict-transition"), Some(1));
        let (_, hist) = scope
            .histograms()
            .find(|&(k, _)| k == "phase:challenge→response")
            .expect("phase histogram");
        assert!((hist.percentile_us(0.5) - 30.0).abs() < f64::EPSILON);
    }

    #[test]
    fn write_report_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("tnic-bench-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/report.md");
        write_report(&path, "Title", &["## Section\n".to_string()]).expect("write");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert!(content.starts_with("# Title\n"));
        assert!(content.contains("## Section"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
