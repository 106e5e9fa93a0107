//! Named CI gates over the reproduction outcomes.
//!
//! Each gate is a pure function from collected outcomes to its violation
//! lines; `reproduce` names each list ([`GateOutcome::from_violations`]),
//! evaluates **every** gate, prints each failing one by name — never just
//! the first — and exits non-zero if any failed.

use crate::{Case, CommitMode, Outcome};

/// The verdict of one named gate: pass/fail plus every violation it found.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Stable gate name (`scenario-verdicts`, `retention-bounds`, …).
    pub name: &'static str,
    /// Whether the gate passed.
    pub passed: bool,
    /// One line per violation (empty when passed).
    pub violations: Vec<String>,
}

impl GateOutcome {
    /// A gate outcome from a violation list: empty = pass.
    #[must_use]
    pub fn from_violations(name: &'static str, violations: Vec<String>) -> Self {
        GateOutcome {
            name,
            passed: violations.is_empty(),
            violations,
        }
    }
}

/// The failing subset of `gates`.
#[must_use]
pub fn failed(gates: &[GateOutcome]) -> Vec<&GateOutcome> {
    gates.iter().filter(|g| !g.passed).collect()
}

/// Renders the per-gate summary: one line per gate, `ok` or `FAIL`
/// followed by every violation — so a multi-gate failure names each
/// broken gate, not just the first.
#[must_use]
pub fn render_summary(gates: &[GateOutcome]) -> String {
    let mut out = String::from("gates:\n");
    for gate in gates {
        if gate.passed {
            out.push_str(&format!("  {:<24} ok\n", gate.name));
        } else {
            out.push_str(&format!(
                "  {:<24} FAIL ({} violation(s))\n",
                gate.name,
                gate.violations.len()
            ));
            for v in &gate.violations {
                out.push_str(&format!("    - {v}\n"));
            }
        }
    }
    out
}

/// Every [`Outcome::check`] line of every case: the whole oracle.
#[must_use]
pub fn oracle(rows: &[(Case, Outcome)]) -> Vec<String> {
    rows.iter()
        .flat_map(|(case, outcome)| {
            outcome
                .check(&case.expect)
                .into_iter()
                .map(move |v| format!("{}: {v}", case.label()))
        })
        .collect()
}

/// The accuracy half of the oracle on its own: no correct node ever loses
/// its clean record, whatever the injected fault or churn.
#[must_use]
pub fn accuracy(rows: &[(Case, Outcome)]) -> Vec<String> {
    rows.iter()
        .flat_map(|(case, outcome)| {
            outcome
                .accuracy(&case.expect.may_suspect)
                .into_iter()
                .map(move |v| format!("{}: {v}", case.label()))
        })
        .collect()
}

/// The fault-free rows in `mode`'s shape, with their ctl/app ratios.
fn fault_free<'a>(
    rows: &'a [(Case, Outcome)],
    in_mode: impl Fn(CommitMode) -> bool + 'a,
) -> impl Iterator<Item = (&'a Case, f64)> + 'a {
    rows.iter()
        .filter(move |(case, outcome)| {
            outcome.byzantine.is_empty() && in_mode(case.experiment.mode())
        })
        .map(|(case, outcome)| (case, outcome.stats.control_overhead_ratio()))
}

/// Fault-free piggyback rows stay under the absolute ctl/app bound.
#[must_use]
pub fn piggyback_overhead(rows: &[(Case, Outcome)], max_ctl_app: f64) -> Vec<String> {
    fault_free(rows, |mode| matches!(mode, CommitMode::Piggyback { .. }))
        .filter(|&(_, ratio)| ratio > max_ctl_app)
        .map(|(case, ratio)| {
            format!(
                "{}: ctl/app {ratio:.2} exceeds {max_ctl_app:.2}",
                case.label()
            )
        })
        .collect()
}

/// Fault-free checkpointed rows cost at most `factor`× the matching
/// piggyback row (a missing piggyback row trips the gate rather than
/// silently passing it).
#[must_use]
pub fn checkpoint_overhead(rows: &[(Case, Outcome)], factor: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for (case, ratio) in fault_free(rows, |mode| matches!(mode, CommitMode::Checkpointed { .. })) {
        let piggy = fault_free(rows, |mode| matches!(mode, CommitMode::Piggyback { .. }))
            .find(|(d, _)| {
                d.name == case.name
                    && d.experiment.engine.baseline == case.experiment.engine.baseline
            })
            .map_or(f64::NAN, |(_, ratio)| ratio);
        if piggy.is_nan() || ratio > factor * piggy {
            violations.push(format!(
                "{}: ctl/app {ratio:.2} exceeds {factor:.1}x the piggyback row's {piggy:.2}",
                case.label()
            ));
        }
    }
    violations
}

/// Every case lands within `max_rounds` audit rounds; `None` (never within
/// the case's round budget) always violates. With `u64::MAX` this is the
/// completeness check: a lying witness may delay exposure but never
/// prevent it.
#[must_use]
pub fn latency(cases: &[(String, Option<u64>)], max_rounds: u64) -> Vec<String> {
    cases
        .iter()
        .filter_map(|(case, latency)| match latency {
            Some(rounds) if *rounds > max_rounds => {
                Some(format!("{case}: {rounds} rounds exceed {max_rounds}"))
            }
            None => Some(format!("{case}: never within the round budget")),
            _ => None,
        })
        .collect()
}

/// Every audit-traffic case stays under the per-node-per-audit-round wire
/// bound — the overhead axis of the sampled-auditing frontier.
#[must_use]
pub fn audit_traffic(cases: &[(String, f64)], max_per_node_round: f64) -> Vec<String> {
    cases
        .iter()
        .filter(|(_, rate)| *rate > max_per_node_round)
        .map(|(case, rate)| {
            format!("{case}: {rate:.2} audit msgs/node/round exceed {max_per_node_round:.2}")
        })
        .collect()
}

/// Every case's logs keep their round-digest share under `max_fraction`
/// — the storage axis of the audit-log inflation feedback: without
/// round digests, every challenge/response envelope lands a per-message
/// control digest in both endpoint logs, the next audit replays those
/// entries, and the audit share compounds with witness count.
#[must_use]
pub fn audit_log_share(rows: &[(Case, Outcome)], max_fraction: f64) -> Vec<String> {
    rows.iter()
        .filter_map(|(case, outcome)| {
            let stats = &outcome.stats;
            let audit = stats.log_audit_digest_entries;
            let total = stats.log_app_payload_entries + stats.log_control_digest_entries + audit;
            if total == 0 {
                return None;
            }
            #[allow(clippy::cast_precision_loss)]
            let share = audit as f64 / total as f64;
            (share > max_fraction).then(|| {
                format!(
                    "{}: audit entries are {:.0}% of the log ({audit} of {total}), bound is {:.0}%",
                    case.label(),
                    share * 100.0,
                    max_fraction * 100.0
                )
            })
        })
        .collect()
}

/// The long-running checkpointed deployment keeps every node trusted and
/// actually certifies checkpoints.
#[must_use]
pub fn retention(outcome: &Outcome) -> Vec<String> {
    let mut violations = outcome.accuracy(&[]);
    if outcome.stats.checkpoints_completed == 0 {
        violations.push("no checkpoint ever certified".to_string());
    }
    violations
}

/// The long-running checkpointed deployment keeps memory O(interval), not
/// O(rounds): retained entries and stored commitments stay within
/// `max_retained` at every audit boundary.
#[must_use]
pub fn retention_bounds(outcome: &Outcome, max_retained: u64) -> Vec<String> {
    [
        (outcome.peak_retained_entries, "retained entries"),
        (outcome.peak_retained_commitments, "stored commitments"),
    ]
    .into_iter()
    .filter(|&(peak, _)| peak > max_retained)
    .map(|(peak, what)| format!("{peak} {what} exceed {max_retained}"))
    .collect()
}

/// Recording with the event ring enabled stays within the named wall-clock
/// budget over the identical untraced run. `measured_pct` is the relative
/// slowdown in percent (`(traced/untraced - 1) * 100`, min-of-N on both
/// sides to shed scheduler noise); `None` — the measurement could not run —
/// passes, the gate bounds a measured regression rather than requiring the
/// measurement.
#[must_use]
pub fn trace_overhead(measured_pct: Option<f64>, max_pct: f64) -> Vec<String> {
    match measured_pct {
        Some(pct) if pct > max_pct => vec![format!(
            "enabled-recorder overhead {pct:.1}% exceeds {max_pct:.1}%"
        )],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{fixture, Fixture};
    use tnic_peerreview::audit::Verdict;

    /// A fault-free row in `mode` whose control traffic is `ratio`× its 24
    /// application messages.
    fn fault_free_row(name: &'static str, mode: CommitMode, ratio: f64) -> (Case, Outcome) {
        let mut row = fixture(Fixture {
            name,
            mode,
            ..Fixture::default()
        });
        row.1.stats.app_messages = 24;
        row.1.stats.control_messages = (24.0 * ratio) as u64;
        row
    }

    #[test]
    fn trace_overhead_gate_bounds_the_measured_slowdown() {
        assert!(trace_overhead(Some(12.0), 50.0).is_empty());
        assert!(trace_overhead(None, 50.0).is_empty(), "unmeasured passes");
        let violations = trace_overhead(Some(80.0), 50.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("80.0% exceeds 50.0%"));
    }

    #[test]
    fn passing_gates_report_ok() {
        let rows = [fault_free_row(
            "fault-free",
            CommitMode::Piggyback { witnesses: 2 },
            1.0,
        )];
        let gates = [
            GateOutcome::from_violations("scenario-verdicts", oracle(&rows)),
            GateOutcome::from_violations("accuracy", accuracy(&rows)),
            GateOutcome::from_violations("piggyback-overhead", piggyback_overhead(&rows, 2.0)),
        ];
        assert!(gates.iter().all(|g| g.passed));
        assert!(failed(&gates).is_empty());
        let summary = render_summary(&gates);
        assert!(summary.contains("scenario-verdicts"));
        assert!(!summary.contains("FAIL"));
    }

    #[test]
    fn every_failing_gate_is_named_not_just_the_first() {
        // Two independent gates broken at once: the equivocator stays
        // trusted AND the piggyback overhead bound is blown. Both must
        // surface by name.
        let rows = [
            fixture(Fixture {
                name: "equivocation",
                faulty: Some((1, Verdict::Exposed)),
                ..Fixture::default()
            }),
            fault_free_row("fault-free", CommitMode::Piggyback { witnesses: 2 }, 9.5),
        ];
        let gates = [
            GateOutcome::from_violations("scenario-verdicts", oracle(&rows)),
            GateOutcome::from_violations("accuracy", accuracy(&rows)),
            GateOutcome::from_violations("piggyback-overhead", piggyback_overhead(&rows, 2.0)),
        ];
        assert_eq!(failed(&gates).len(), 2);
        let summary = render_summary(&gates);
        assert!(summary.contains("scenario-verdicts"), "{summary}");
        assert!(summary.contains("piggyback-overhead"), "{summary}");
        assert!(
            summary.contains("expected exposed, got trusted"),
            "{summary}"
        );
        assert!(summary.contains("ctl/app 9.50 exceeds 2.00"), "{summary}");
        // The accuracy gate stays clean in between.
        assert!(summary.contains("accuracy                 ok"), "{summary}");
    }

    #[test]
    fn checkpoint_gate_trips_on_missing_piggyback_row() {
        let ckpt = CommitMode::Checkpointed {
            witnesses: 2,
            interval: 1,
        };
        let rows = [fault_free_row("fault-free", ckpt, 1.5)];
        assert!(
            !checkpoint_overhead(&rows, 3.0).is_empty(),
            "NaN piggyback baseline must trip the gate"
        );
        let with_piggy = [
            rows[0].clone(),
            fault_free_row("fault-free", CommitMode::Piggyback { witnesses: 2 }, 1.0),
        ];
        assert!(checkpoint_overhead(&with_piggy, 3.0).is_empty());
    }

    #[test]
    fn exposure_gates_distinguish_slow_from_never() {
        let cases = vec![
            ("honest witnesses".to_string(), Some(2)),
            ("silent witness".to_string(), Some(9)),
            ("withhold-gossip witness".to_string(), None),
        ];
        let bound = latency(&cases, 6);
        assert_eq!(bound.len(), 2, "{bound:?}");
        assert!(bound[0].contains("silent witness: 9 rounds exceed 6"));
        let completeness = latency(&cases, u64::MAX);
        assert_eq!(completeness.len(), 1);
        assert!(completeness[0].contains("withhold-gossip witness: never"));
    }

    #[test]
    fn audit_traffic_gate_bounds_the_wire_rate() {
        let cases = vec![
            ("full audit".to_string(), 12.5),
            ("sampled (k=1)".to_string(), 1.2),
        ];
        let violations = audit_traffic(&cases, 4.0);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("12.50 audit msgs/node/round exceed 4.00"),
            "{violations:?}"
        );
        assert!(audit_traffic(&cases[1..], 4.0).is_empty());
    }

    #[test]
    fn audit_log_share_gate_bounds_the_storage_fraction() {
        let mut inflated = fixture(Fixture::default());
        inflated.1.stats.log_app_payload_entries = 100;
        inflated.1.stats.log_control_digest_entries = 50;
        inflated.1.stats.log_audit_digest_entries = 450; // 75% of the log is audit digests
        let mut batched = inflated.clone();
        batched.1.stats.log_audit_digest_entries = 10; // ~6%
        let empty = fixture(Fixture::default());
        let violations = audit_log_share(&[inflated, batched.clone(), empty], 0.5);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("75% of the log (450 of 600), bound is 50%"),
            "{violations:?}"
        );
        assert!(audit_log_share(&[batched], 0.5).is_empty());
    }

    #[test]
    fn sampled_detection_gate_distinguishes_slow_from_never() {
        let cases = vec![
            ("sampled (k=2)".to_string(), Some(3)),
            ("sampled (k=1)".to_string(), Some(11)),
            ("sampled (k=1, hostile)".to_string(), None),
        ];
        let violations = latency(&cases, 8);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("11 rounds")));
        assert!(violations.iter().any(|v| v.contains("never")));
        assert!(latency(&cases[..1], 8).is_empty());
    }

    #[test]
    fn churn_gates_check_verdicts_accuracy_and_settle_delay() {
        let clean = fixture(Fixture {
            name: "churn/crash-rejoin",
            ..Fixture::default()
        });
        // The tampering leaver escapes exposure and a correct node is
        // exposed in its place.
        let mut escaped = fixture(Fixture {
            name: "churn/leave-tamper",
            faulty: Some((2, Verdict::Exposed)),
            ..Fixture::default()
        });
        escaped.1.verdicts.insert((1, 3), Verdict::Exposed);
        let rows = [clean.clone(), escaped];
        let verdicts = oracle(&rows);
        assert_eq!(verdicts.len(), 2, "{verdicts:?}");
        assert!(verdicts.iter().all(|v| v.contains("leave-tamper")));
        let exposed = accuracy(&rows);
        assert_eq!(exposed.len(), 1);
        assert!(exposed[0].contains("exposed on correct node 3"));
        let delays = vec![
            ("churn/partition-heal".to_string(), None),
            ("churn/join".to_string(), Some(9)),
            ("churn/crash-rejoin".to_string(), Some(1)),
        ];
        let delay = latency(&delays, 6);
        assert_eq!(delay.len(), 2, "{delay:?}");
        assert!(delay.iter().any(|v| v.contains("never")));
        assert!(delay.iter().any(|v| v.contains("9 rounds exceed 6")));
        // The clean subset passes all three gates.
        assert!(oracle(std::slice::from_ref(&clean)).is_empty());
        assert!(accuracy(&[clean]).is_empty());
        assert!(latency(&delays[2..], 6).is_empty());
    }

    #[test]
    fn retention_gates_check_every_bound() {
        let (_, mut outcome) = fixture(Fixture::default());
        outcome.peak_retained_entries = 900;
        outcome.peak_retained_commitments = 10;
        let bounds = retention_bounds(&outcome, 600);
        assert_eq!(bounds, ["900 retained entries exceed 600"]);
        let verdicts = retention(&outcome);
        assert_eq!(
            verdicts,
            ["no checkpoint ever certified"],
            "zero certified checkpoints must trip"
        );
    }
}
