//! Generated markdown perf reports for the reproduction runs.
//!
//! `reproduce` and `sweep` render what they measured — verdict tables,
//! throughput, control/app overhead, latency percentiles, allocation
//! counts, and the per-phase exposure-latency breakdown reconstructed
//! from the [`tnic_obs`] event recorder — into `reports/<name>.md`. The
//! sections are plain functions from results to markdown so the binaries
//! and tests compose exactly the report they need.

use crate::gates::GateOutcome;
use crate::{AcctScenarioResult, ChurnScenarioResult, SampledProbeRow, ScenarioResult, SweepRow};
use std::fmt::Write as _;
use std::path::Path;
use tnic_obs::metrics::MetricsRegistry;
use tnic_obs::timeline::{explain_verdict, verdict_transitions, VerdictChain};
use tnic_obs::{codes, Event};

/// Virtual throughput of a run in application messages per virtual second.
#[must_use]
pub fn virtual_throughput(app_messages: u64, virtual_time_us: u64) -> f64 {
    if virtual_time_us == 0 {
        0.0
    } else {
        app_messages as f64 * 1e6 / virtual_time_us as f64
    }
}

/// The scenario verdict/overhead table: one row per (scenario, mode) with
/// throughput, ctl/app overhead and audit-latency percentiles.
#[must_use]
pub fn scenario_section(results: &[ScenarioResult]) -> String {
    let mut out = String::from(
        "## PeerReview fault-injection scenarios\n\n\
         | scenario | baseline | mode | verdict | expected | app msgs | ctl msgs | ctl/app | \
         msgs/vsec | audit p50 µs | audit p99 µs |\n\
         |---|---|---|---|---|---:|---:|---:|---:|---:|---:|\n",
    );
    for r in results {
        let verdict = if r.unanimous {
            r.verdict.to_string()
        } else {
            format!("{} (split)", r.verdict)
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.2} | {:.0} | {:.1} | {:.1} |",
            r.name,
            r.baseline.label(),
            r.mode.label(),
            verdict,
            r.expected,
            r.app_messages,
            r.control_messages,
            r.overhead_ratio,
            virtual_throughput(r.app_messages, r.virtual_time_us),
            r.audit_p50_us,
            r.audit_p99_us,
        );
    }
    out
}

/// The accountability-as-middleware table: the engine stacked under
/// BFT / chain replication / A2M.
#[must_use]
pub fn acct_section(results: &[AcctScenarioResult]) -> String {
    let mut out = String::from(
        "## Accountability as middleware\n\n\
         | scenario | mode | verdict | ctl/app | time overhead | msgs/vsec | commit | parity |\n\
         |---|---|---|---:|---:|---:|---|---|\n",
    );
    for r in results {
        let verdict = if r.unanimous {
            r.verdict.to_string()
        } else {
            format!("{} (split)", r.verdict)
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} | {:.2}x | {:.0} | {} | {} |",
            r.name,
            r.mode.label(),
            verdict,
            r.overhead_ratio,
            r.time_overhead,
            virtual_throughput(r.app_messages, r.virtual_time_us),
            if r.protocol_committed { "ok" } else { "FAIL" },
            if r.state_parity { "ok" } else { "FAIL" },
        );
    }
    out
}

/// The membership-churn robustness table: verdicts, settle delay and
/// churn/drop counters per scenario × commit mode.
#[must_use]
pub fn churn_section(results: &[ChurnScenarioResult]) -> String {
    let mut out = String::from(
        "## Membership churn, crash-recovery and partition healing\n\n\
         Settle delay counts audit rounds past the churn schedule until every \
         correct pair is back to `trusted` (and the tamperer, where injected, \
         is `exposed` at every correct witness).\n\n\
         | scenario | mode | verdict | expected | settle delay | accuracy | \
         joins | leaves | crashes | recoveries | retries | drops |\n\
         |---|---|---|---|---:|---|---:|---:|---:|---:|---:|---:|\n",
    );
    for r in results {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.name,
            r.mode.label(),
            r.verdict,
            r.expected,
            r.settle_delay_rounds
                .map_or_else(|| "never".to_string(), |d| format!("+{d}")),
            if r.accuracy { "ok" } else { "FAIL" },
            r.joins,
            r.departures,
            r.crashes,
            r.recoveries,
            r.challenge_retries,
            r.messages_unreachable + r.messages_partitioned,
        );
    }
    out
}

/// The sweep table rendered from CSV rows (a compact markdown mirror of
/// the CSV the sweep emits).
#[must_use]
pub fn sweep_section(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "## Parameter sweep\n\n\
         | app | mode | payload B | nodes | witnesses | sample | shards | ctl/app | retained | \
         audit msgs/node/rd | audit p50 µs | audit p99 µs | exposure rounds | detection rounds |\n\
         |---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.2} | {} | {:.2} | {:.1} | {:.1} | {} | {} |",
            r.point.app.label(),
            r.point.mode.label(),
            r.point.payload,
            r.point.nodes,
            r.witnesses,
            r.point
                .engine
                .audit_sample_size
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            r.point.engine.shards.max(1),
            r.ctl_per_app(),
            r.retained_entries,
            r.audit_msgs_per_node_round(),
            r.audit_p50_us,
            r.audit_p99_us,
            r.exposure_latency_rounds
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
            r.detection_latency_rounds
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
        );
    }
    out
}

/// The scaling-frontier section: audit traffic vs detection latency per
/// audit configuration of the sampled-auditing probe. The frontier the
/// sweep's n ≥ 1000 rows plot in full is summarised here at probe scale:
/// each sampled row buys its audit-traffic cut with a bounded detection
/// delay (never a missed detection).
#[must_use]
pub fn scaling_section(rows: &[SampledProbeRow]) -> String {
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
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {} | {} | {} |",
            r.label,
            r.audit_sample_size
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            r.audit_msgs_per_node_round,
            r.messages_audit,
            r.messages_batched,
            r.detection_latency_rounds
                .map_or_else(|| "never".to_string(), |n| n.to_string()),
        );
    }
    if let (Some(full), Some(best)) = (
        rows.iter().find(|r| r.audit_sample_size.is_none()),
        rows.iter()
            .filter(|r| r.audit_sample_size.is_some())
            .min_by(|a, b| {
                a.audit_msgs_per_node_round
                    .total_cmp(&b.audit_msgs_per_node_round)
            }),
    ) {
        let _ = writeln!(
            out,
            "\nBest sampled configuration cuts audit traffic {:.1}x vs full audit.",
            full.audit_msgs_per_node_round / best.audit_msgs_per_node_round.max(1e-9),
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
pub fn log_composition_section(results: &[ScenarioResult]) -> String {
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
    for r in results {
        let total = r.log_app_entries + r.log_ctl_entries + r.log_audit_entries;
        let audit_share = if total == 0 {
            0.0
        } else {
            100.0 * r.log_audit_entries as f64 / total as f64
        };
        let replayed_per_app = if r.app_messages == 0 {
            0.0
        } else {
            r.entries_replayed as f64 / r.app_messages as f64
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {:.1}% | {} | {:.2} |",
            r.name,
            r.baseline.label(),
            r.mode.label(),
            r.log_app_entries,
            r.log_ctl_entries,
            r.log_audit_entries,
            audit_share,
            r.entries_replayed,
            replayed_per_app,
        );
    }
    out
}

/// The log-composition breakdown as a JSON array (one object per scenario
/// row) — the flight recorder's `log_composition` section.
#[must_use]
pub fn log_composition_json(results: &[ScenarioResult]) -> String {
    use tnic_obs::export::json_escape;
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"mode\":\"{}\",\"app_payload\":{},\
                 \"control_digest\":{},\"audit_digest\":{},\"replayed\":{}}}",
                json_escape(r.name),
                json_escape(&r.mode.label()),
                r.log_app_entries,
                r.log_ctl_entries,
                r.log_audit_entries,
                r.entries_replayed,
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
         Whole-process heap allocations across every scenario run (engine \
         setup, control plane and reporting included — the *datapath* \
         zero-alloc guarantee is gated separately by the `zerocopy` bench \
         with tracing enabled): **{total_allocs}** allocations over \
         **{app_messages}** application messages ({per_msg:.1} allocs/msg).\n"
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
#[must_use]
pub fn final_chains(events: &[Event]) -> Vec<VerdictChain> {
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
    results: &[ScenarioResult],
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
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"baseline\":\"{}\",\"mode\":\"{}\",\
                 \"verdict\":\"{}\",\"expected\":\"{}\",\"unanimous\":{},\
                 \"accuracy\":{},\"app_messages\":{},\"control_messages\":{},\
                 \"ctl_per_app\":{:.4},\"piggybacked\":{},\"audit_p50_us\":{:.1},\
                 \"audit_p99_us\":{:.1},\"virtual_time_us\":{},\
                 \"log_app_entries\":{},\"log_ctl_entries\":{},\
                 \"log_audit_entries\":{},\"entries_replayed\":{}}}",
                json_escape(r.name),
                json_escape(r.baseline.label()),
                json_escape(&r.mode.label()),
                json_escape(r.verdict),
                json_escape(r.expected),
                r.unanimous,
                r.accuracy,
                r.app_messages,
                r.control_messages,
                r.overhead_ratio,
                r.piggybacked,
                r.audit_p50_us,
                r.audit_p99_us,
                r.virtual_time_us,
                r.log_app_entries,
                r.log_ctl_entries,
                r.log_audit_entries,
                r.entries_replayed,
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
        let scope = registry.get("exec-tampering").expect("scope");
        assert_eq!(scope.counter("challenge"), 1);
        assert_eq!(scope.counter("verdict-transition"), 1);
        let hist = scope
            .histogram("phase:challenge→response")
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
