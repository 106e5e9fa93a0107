//! `compare A.json B.json`: one row per (workload, metric), judged by the
//! metric's class — a bound for wall-clock and memory, identity for counts.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Class, Metric};
use crate::workloads::WorkloadId;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread inside a run is wider than the bound: the data cannot
    /// tell a regression from noise, so it is not reported as unchanged.
    Unresolved,
    /// Shown, not judged (noisy single-layer timings).
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
fn worse_by(metric: Metric, a: f64, b: f64) -> f64 {
    let delta = match metric.better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    delta / a.abs()
}

pub fn judge(metric: Metric, a: f64, b: f64, spread: f64) -> Verdict {
    match metric.class {
        Class::Info => Verdict::Info,
        Class::Exact => {
            if a == b {
                Verdict::Same
            } else if worse_by(metric, a.max(f64::MIN_POSITIVE), b) > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Better
            }
        }
        Class::Bounded(bound) => {
            if spread > bound {
                Verdict::Unresolved
            } else if a == 0.0 {
                if b == 0.0 {
                    Verdict::Same
                } else {
                    Verdict::Unresolved
                }
            } else {
                let w = worse_by(metric, a, b);
                if w > bound {
                    Verdict::Worse
                } else if w < -bound {
                    Verdict::Better
                } else {
                    Verdict::Same
                }
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Pairings one file has and the other lacks.
    pub missing: Vec<String>,
}

impl Comparison {
    pub fn count(&self, verdict: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == verdict).count()
    }

    /// Rows of exact class that moved at all — for two runs of the same
    /// code that is a failure even where the move is an improvement.
    pub fn exact_moved(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                metrics::find(r.metric).is_some_and(|m| m.class == Class::Exact)
                    && r.verdict != Verdict::Same
            })
            .count()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<12} {:<34} {:>16} {:>16} {:>9}  {}\n",
            "workload", "metric", "A", "B", "B vs A", "verdict"
        );
        for r in &self.rows {
            let change = if r.a != 0.0 {
                format!("{:+.2}%", (r.b - r.a) / r.a.abs() * 100.0)
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "{:<12} {:<34} {:>16.4} {:>16.4} {:>9}  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                change,
                r.verdict.label()
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "missing: {m}");
        }
        let _ = writeln!(
            out,
            "\n{} better, {} same, {} worse, {} unresolved, {} shown unjudged, {} missing",
            self.count(Verdict::Better),
            self.count(Verdict::Same),
            self.count(Verdict::Worse),
            self.count(Verdict::Unresolved),
            self.count(Verdict::Info),
            self.missing.len()
        );
        out
    }
}

fn check_file(doc: &Value, which: &str) -> Result<(), String> {
    if doc.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err(format!(
            "{which} is a --quick result (or not a result file): its op counts are not the \
             benchmark's, so it is not compared"
        ));
    }
    Ok(())
}

/// Compares two result documents as `all` writes them.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    check_file(a, "A")?;
    check_file(b, "B")?;
    let mut out = Comparison::default();
    for workload in WorkloadId::ALL {
        let name = workload.name();
        let side = |doc: &'_ Value| doc.get("workloads").and_then(|w| w.get(name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            out.missing.push(format!("workload {name}"));
            continue;
        };
        // Failed ops are judged like an exact count that must not rise.
        let failed = |w: &Value| w.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        out.rows.push(Row {
            workload: name,
            metric: "failed_ops",
            unit: "count",
            a: failed(&wa),
            b: failed(&wb),
            verdict: match failed(&wb).total_cmp(&failed(&wa)) {
                std::cmp::Ordering::Greater => Verdict::Worse,
                std::cmp::Ordering::Less => Verdict::Better,
                std::cmp::Ordering::Equal => Verdict::Same,
            },
        });
        for metric in metrics::END_TO_END.iter().chain(metrics::PER_LAYER.iter()) {
            let read = |w: &Value, key: &str| {
                w.get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get(key))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (read(&wa, "value"), read(&wb, "value")) else {
                out.missing.push(format!("{name}/{}", metric.name));
                continue;
            };
            let spread = read(&wa, "spread")
                .unwrap_or(0.0)
                .max(read(&wb, "spread").unwrap_or(0.0));
            out.rows.push(Row {
                workload: name,
                metric: metric.name,
                unit: metric.unit,
                a: va,
                b: vb,
                verdict: judge(*metric, va, vb, spread),
            });
        }
    }
    Ok(out)
}

pub fn compare_files(path_a: &str, path_b: &str) -> Result<Comparison, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(&load(path_a)?, &load(path_b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> Metric {
        metrics::find(name).unwrap()
    }

    #[test]
    fn bounded_metrics_use_their_bound_and_direction() {
        let rate = metric("wall_ops_per_s"); // higher is better, bound 25 %
        assert_eq!(judge(rate, 1000.0, 1000.0, 0.0), Verdict::Same);
        assert_eq!(judge(rate, 1000.0, 800.0, 0.0), Verdict::Same);
        assert_eq!(judge(rate, 1000.0, 740.0, 0.0), Verdict::Worse);
        assert_eq!(judge(rate, 1000.0, 1300.0, 0.0), Verdict::Better);
        let rss = metric("peak_rss_mb"); // lower is better, bound 20 %
        assert_eq!(judge(rss, 100.0, 121.0, 0.0), Verdict::Worse);
        assert_eq!(judge(rss, 100.0, 75.0, 0.0), Verdict::Better);
        assert_eq!(judge(rss, 100.0, 110.0, 0.0), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let rate = metric("wall_ops_per_s");
        assert_eq!(judge(rate, 1000.0, 1000.0, 0.3), Verdict::Unresolved);
        assert_eq!(judge(rate, 1000.0, 500.0, 0.3), Verdict::Unresolved);
        assert_eq!(judge(rate, 1000.0, 500.0, 0.2), Verdict::Worse);
        assert_eq!(judge(rate, 0.0, 5.0, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let ctl = metric("acct.ctl_msgs_per_op"); // lower is better
        assert_eq!(judge(ctl, 5.5, 5.5, 0.9), Verdict::Same);
        assert_eq!(judge(ctl, 5.5, 5.5000001, 0.0), Verdict::Worse);
        assert_eq!(judge(ctl, 5.5, 5.4, 0.0), Verdict::Better);
        assert_eq!(judge(ctl, 0.0, 1.0, 0.0), Verdict::Worse);
        let pruned = metric("engine.pruned_entries_per_ckpt"); // higher is better
        assert_eq!(judge(pruned, 10.0, 9.0, 0.0), Verdict::Worse);
        assert_eq!(
            judge(metric("crypto.hmac_64B_ns"), 1.0, 9.0, 0.0),
            Verdict::Info
        );
    }

    fn doc(quick: bool, rate: f64, ctl: f64, failed: u64) -> Value {
        let workloads: String = WorkloadId::ALL
            .iter()
            .map(|w| {
                format!(
                    "\"{}\":{{\"correct\":true,\"attempted\":10,\"failed\":{failed},\"metrics\":{{\
                     \"wall_ops_per_s\":{{\"value\":{rate},\"unit\":\"1/s\",\"spread\":0.01}},\
                     \"acct.ctl_msgs_per_op\":{{\"value\":{ctl},\"unit\":\"msgs/op\"}}}}}}",
                    w.name()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        json::parse(&format!(
            "{{\"schema\":1,\"quick\":{quick},\"workloads\":{{{workloads}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn documents_compare_row_by_row() {
        let same = compare(&doc(false, 100.0, 5.0, 0), &doc(false, 101.0, 5.0, 0)).unwrap();
        assert_eq!(same.count(Verdict::Worse), 0);
        assert_eq!(same.exact_moved(), 0);
        // Two judged metrics + failed_ops per workload; the rest is missing.
        assert_eq!(same.rows.len(), 3 * WorkloadId::ALL.len());
        assert!(!same.missing.is_empty());

        let slower = compare(&doc(false, 100.0, 5.0, 0), &doc(false, 70.0, 5.0, 0)).unwrap();
        assert_eq!(slower.count(Verdict::Worse), WorkloadId::ALL.len());

        let chattier = compare(&doc(false, 100.0, 5.0, 0), &doc(false, 100.0, 5.1, 0)).unwrap();
        assert_eq!(chattier.count(Verdict::Worse), WorkloadId::ALL.len());
        assert_eq!(chattier.exact_moved(), WorkloadId::ALL.len());

        let failing = compare(&doc(false, 100.0, 5.0, 0), &doc(false, 100.0, 5.0, 2)).unwrap();
        assert_eq!(failing.count(Verdict::Worse), WorkloadId::ALL.len());
        assert!(failing.render().contains("WORSE"));
    }

    #[test]
    fn quick_results_are_refused() {
        assert!(compare(&doc(true, 1.0, 1.0, 0), &doc(false, 1.0, 1.0, 0)).is_err());
        assert!(compare(&doc(false, 1.0, 1.0, 0), &doc(true, 1.0, 1.0, 0)).is_err());
        assert!(compare(&json::parse("{}").unwrap(), &doc(false, 1.0, 1.0, 0)).is_err());
    }
}
