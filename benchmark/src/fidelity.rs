//! The paper-fidelity table: paper value, model value and ratio for the
//! paper quantities a workload exercises. The paper side comes from
//! `paper_reference.json`; the model side is the virtual time the *charged*
//! path advances, read through the adapter — not the calibration tables the
//! `figure5_mean_latencies_are_reproduced` unit test reads.

use crate::adapter;
use crate::json::{self, Value};
use crate::workloads::{WorkloadId, LARGE_PAYLOAD, SMALL_PAYLOAD};

const REFERENCE: &str = include_str!("../paper_reference.json");

/// Calls averaged per quantity (the host baselines draw from a
/// distribution; the seed is fixed, so the mean repeats exactly).
const REPS: u32 = 2048;

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub quantity: String,
    pub paper_us: f64,
    pub model_us: f64,
}

impl Row {
    pub fn ratio(&self) -> f64 {
        self.model_us / self.paper_us
    }

    pub fn err_pct(&self) -> f64 {
        (self.ratio() - 1.0).abs() * 100.0
    }
}

fn reference() -> Value {
    json::parse(REFERENCE).expect("paper_reference.json is valid JSON")
}

/// Figure 9's TNIC latency at the series point nearest to (at or below) a
/// `payload_len`-byte message, clamped to the first point.
fn figure9_tnic_us(doc: &Value, payload_len: usize) -> Option<(usize, f64)> {
    let fig = doc.get("figure9_latency_us")?;
    let sizes = fig.get("packet_sizes")?.as_array()?;
    let series = fig.get("series")?.get("TNIC")?.as_array()?;
    let mut pick = 0;
    for (i, size) in sizes.iter().enumerate() {
        if size.as_f64()? as usize <= payload_len {
            pick = i;
        }
    }
    Some((sizes[pick].as_f64()? as usize, series[pick].as_f64()?))
}

/// The rows for `workload`; empty where it exercises no paper quantity.
pub fn table(workload: WorkloadId) -> Vec<Row> {
    let doc = reference();
    let mut rows = Vec::new();
    let payload = match workload {
        WorkloadId::SendSmall => SMALL_PAYLOAD,
        WorkloadId::SendLarge => LARGE_PAYLOAD,
        _ => return rows,
    };
    if workload == WorkloadId::SendSmall {
        let fig5 = doc
            .get("figure5_attest_us")
            .and_then(|f| f.get("values"))
            .expect("figure5 values");
        for label in adapter::FIGURE5_BASELINES {
            let paper_us = fig5.get(label).and_then(Value::as_f64).expect("fig5 value");
            if let Some(model_us) = adapter::provider_attest_virtual_us(label, payload, REPS) {
                rows.push(Row {
                    quantity: format!("Fig. 5 Attest() {label}, {payload} B (Provider::attest)"),
                    paper_us,
                    model_us,
                });
            }
        }
    }
    let (point, paper_us) = figure9_tnic_us(&doc, payload).expect("figure9 TNIC series");
    if let Some(model_us) = adapter::auth_send_virtual_us(payload, REPS) {
        rows.push(Row {
            quantity: format!(
                "Fig. 9 TNIC one-way latency, {point} B point ({payload} B Cluster::auth_send)"
            ),
            paper_us,
            model_us,
        });
    }
    rows
}

/// Worst |model ÷ paper − 1| over the rows, in percent (0 for no rows).
pub fn worst_err_pct(rows: &[Row]) -> f64 {
    rows.iter().map(Row::err_pct).fold(0.0, f64::max)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<74} {:>9} {:>9} {:>7}\n",
        "paper quantity", "paper us", "model us", "ratio"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<74} {:>9.2} {:>9.2} {:>7.3}\n",
            row.quantity,
            row.paper_us,
            row.model_us,
            row.ratio()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_file_carries_the_figure_values() {
        let doc = reference();
        let fig5 = doc.get("figure5_attest_us").unwrap().get("values").unwrap();
        let values: Vec<f64> = adapter::FIGURE5_BASELINES
            .iter()
            .map(|l| fig5.get(l).unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(values, [11.0, 31.0, 45.0, 90.0, 23.0]);
        assert_eq!(figure9_tnic_us(&doc, 64), Some((128, 16.0)));
        assert_eq!(figure9_tnic_us(&doc, 8192), Some((8192, 142.0)));
        assert!(doc
            .get("figure5_attest_us")
            .unwrap()
            .get("source")
            .is_some());
        assert!(doc
            .get("figure9_latency_us")
            .unwrap()
            .get("source")
            .is_some());
    }

    #[test]
    fn table_is_deterministic_and_scoped_to_the_send_workloads() {
        let small = table(WorkloadId::SendSmall);
        assert_eq!(small.len(), 6);
        assert_eq!(small, table(WorkloadId::SendSmall));
        assert_eq!(table(WorkloadId::SendLarge).len(), 1);
        assert!(table(WorkloadId::AppsRw).is_empty());
        assert_eq!(worst_err_pct(&[]), 0.0);
        assert!(worst_err_pct(&small) > 0.0);
    }
}
