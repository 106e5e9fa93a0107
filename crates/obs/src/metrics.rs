//! A metrics registry unifying counters, gauges and `tnic_sim::stats`
//! histograms under labeled scopes.
//!
//! The simulator crates already produce good primitives — monotonically
//! increasing counters and [`Histogram`] percentiles — but each harness
//! wires them up ad hoc. The registry gives them a single
//! addressable home: a **scope** per (application, fault, configuration)
//! triple (e.g. `peerreview/exec-tampering/piggyback(w=2)`), each holding
//! named counters, per-node gauges and histograms. Report generators walk
//! the registry instead of knowing every harness struct.

use std::collections::BTreeMap;
use tnic_sim::stats::Histogram;

/// Metrics for one labeled scope.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Scope {
    /// Adds `by` to the named counter (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets a per-node gauge (`name[node]`).
    pub fn set_node_gauge(&mut self, name: &str, node: u32, value: f64) {
        self.gauges.insert(format!("{name}[{node}]"), value);
    }

    /// Records a microsecond sample into the named histogram.
    pub fn record_us(&mut self, name: &str, value_us: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record_us(value_us);
    }

    /// Counter iterator in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauge iterator in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histogram iterator in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A collection of labeled scopes.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    scopes: BTreeMap<String, Scope>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The scope for `label`, created on first use. Conventionally the
    /// label is `app/fault/mode`, e.g. `peerreview/equivocation/dedicated`.
    pub fn scope(&mut self, label: &str) -> &mut Scope {
        self.scopes.entry(label.to_string()).or_default()
    }

    /// Scope iterator in label order.
    pub fn scopes(&self) -> impl Iterator<Item = (&str, &Scope)> {
        self.scopes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders every scope as a markdown fragment (counters, gauges and
    /// histogram percentiles), used by the bench report generator.
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        for (label, scope) in self.scopes() {
            out.push_str(&format!("### Scope `{label}`\n\n"));
            if scope.counters.is_empty() && scope.gauges.is_empty() && scope.histograms.is_empty() {
                out.push_str("(empty)\n\n");
                continue;
            }
            if !scope.counters.is_empty() || !scope.gauges.is_empty() {
                out.push_str("| metric | value |\n|---|---:|\n");
                for (name, value) in scope.counters() {
                    out.push_str(&format!("| {name} | {value} |\n"));
                }
                for (name, value) in scope.gauges() {
                    out.push_str(&format!("| {name} | {value:.3} |\n"));
                }
                out.push('\n');
            }
            if !scope.histograms.is_empty() {
                out.push_str("| histogram | samples | mean µs | p50 µs | p99 µs | max µs |\n");
                out.push_str("|---|---:|---:|---:|---:|---:|\n");
                for (name, h) in scope.histograms() {
                    out.push_str(&format!(
                        "| {name} | {} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
                        h.len(),
                        h.mean_us(),
                        h.median_us(),
                        h.percentile_us(0.99),
                        h.max_us()
                    ));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Renders the whole registry as one JSON object — `{scope: {counters,
    /// gauges, histograms}}` with histogram summaries (count/mean/p50/p99/
    /// max in µs). Hand-rolled (no serde); used by `BENCH_report.json` and
    /// the flight recorder.
    #[must_use]
    pub fn render_json(&self) -> String {
        use crate::export::json_escape;
        let mut scopes = Vec::new();
        for (label, scope) in self.scopes() {
            let counters: Vec<String> = scope
                .counters()
                .map(|(name, value)| format!("\"{}\":{value}", json_escape(name)))
                .collect();
            let gauges: Vec<String> = scope
                .gauges()
                .map(|(name, value)| {
                    let value = if value.is_finite() { value } else { -1.0 };
                    format!("\"{}\":{value}", json_escape(name))
                })
                .collect();
            let histograms: Vec<String> = scope
                .histograms()
                .map(|(name, h)| {
                    format!(
                        "\"{}\":{{\"count\":{},\"mean_us\":{:.2},\"p50_us\":{:.2},\
                         \"p99_us\":{:.2},\"max_us\":{:.2}}}",
                        json_escape(name),
                        h.len(),
                        h.mean_us(),
                        h.median_us(),
                        h.percentile_us(0.99),
                        h.max_us()
                    )
                })
                .collect();
            scopes.push(format!(
                "\"{}\":{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
                json_escape(label),
                counters.join(","),
                gauges.join(","),
                histograms.join(",")
            ));
        }
        format!("{{{}}}", scopes.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let mut registry = MetricsRegistry::new();
        let scope = registry.scope("peerreview/equivocation/dedicated");
        scope.inc("control_messages", 10);
        scope.inc("control_messages", 5);
        scope.set_node_gauge("retained_entries", 0, 42.0);
        scope.record_us("audit_latency", 100.0);
        scope.record_us("audit_latency", 300.0);
        assert!(scope.counters().eq([("control_messages", 15)]));
        assert!(scope.gauges().eq([("retained_entries[0]", 42.0)]));
        let histograms: Vec<_> = scope.histograms().map(|(k, h)| (k, h.len())).collect();
        assert_eq!(histograms, [("audit_latency", 2)]);
        assert_eq!(registry.scopes().count(), 1);
    }

    #[test]
    fn json_rendering_is_balanced_and_complete() {
        let mut registry = MetricsRegistry::new();
        let scope = registry.scope("peerreview/x/y");
        scope.inc("events_dropped", 3);
        scope.set_node_gauge("ratio", 2, 1.5);
        scope.record_us("lat", 10.0);
        let json = registry.render_json();
        assert!(json.contains("\"peerreview/x/y\""));
        assert!(json.contains("\"events_dropped\":3"));
        assert!(json.contains("\"ratio[2]\":1.5"));
        assert!(json.contains("\"p99_us\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn markdown_rendering_mentions_scopes_and_percentiles() {
        let mut registry = MetricsRegistry::new();
        let scope = registry.scope("bft/crash/piggyback");
        scope.inc("messages", 7);
        scope.record_us("lat", 50.0);
        let md = registry.render_markdown();
        assert!(md.contains("### Scope `bft/crash/piggyback`"));
        assert!(md.contains("| messages | 7 |"));
        assert!(md.contains("p99"));
    }
}
