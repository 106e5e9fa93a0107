//! Driver-side spans: one around every call the driver makes into a public
//! function of the crates under test.
//!
//! Every span feeds its name's aggregate (count, total, self time, duration
//! samples). Full spans are kept only for a bounded sample of units — the
//! first, the last and every k-th — and written out as Chrome-trace JSON
//! when the pass ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The call sites the driver brackets. `Episode` and `Unit` are the driver's
/// own frames; everything else names the public function inside the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    Episode,
    Unit,
    AuthSend,
    Poll,
    RunWorkload,
    BeginAuditRound,
    FinishAuditRound,
    DrainAudits,
    BftIncrement,
    CrPut,
    CrGet,
}

impl SpanKind {
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Episode,
        SpanKind::Unit,
        SpanKind::AuthSend,
        SpanKind::Poll,
        SpanKind::RunWorkload,
        SpanKind::BeginAuditRound,
        SpanKind::FinishAuditRound,
        SpanKind::DrainAudits,
        SpanKind::BftIncrement,
        SpanKind::CrPut,
        SpanKind::CrGet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Episode => "driver.episode",
            SpanKind::Unit => "driver.unit",
            SpanKind::AuthSend => "core.Cluster::auth_send",
            SpanKind::Poll => "core.Cluster::poll",
            SpanKind::RunWorkload => "peerreview.PeerReview::run_workload",
            SpanKind::BeginAuditRound => "peerreview.PeerReview::begin_audit_round",
            SpanKind::FinishAuditRound => "peerreview.PeerReview::finish_audit_round",
            SpanKind::DrainAudits => "peerreview.PeerReview::drain_audits",
            SpanKind::BftIncrement => "bft.BftCounter::client_increment",
            SpanKind::CrPut => "cr.ChainReplication::put",
            SpanKind::CrGet => "cr.ChainReplication::get",
        }
    }
}

/// A completed span. `parent` indexes the kept-span list ([`NO_PARENT`] for
/// a root); a span's own index there is its id in the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub unit_id: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Per-name totals over every span of a pass, kept or not.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    /// Span durations, capped at [`MAX_SAMPLES`] per name.
    pub samples_ns: Vec<u32>,
}

/// Duration samples kept per span name; beyond it only the totals grow.
pub const MAX_SAMPLES: usize = 1 << 20;
/// Full spans written to the trace file.
pub const MAX_KEPT_SPANS: usize = 50_000;

struct Open {
    kind: SpanKind,
    start_ns: u64,
    child_ns: u64,
    /// Index reserved in `kept` (or `NO_PARENT` when the unit is not sampled).
    slot: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    aggregates: Vec<Aggregate>,
    kept: Vec<Span>,
    keep_every: u32,
    keep_limit: usize,
    unit_id: u32,
    keep_unit: bool,
}

impl Tracer {
    /// A tracer that records nothing: `enter`/`exit` return at once and
    /// never read the clock.
    pub fn off() -> Self {
        Tracer::new(false, 1)
    }

    /// A recording tracer keeping full spans for every `keep_every`-th unit.
    pub fn on(keep_every: u32) -> Self {
        Tracer::new(true, keep_every.max(1))
    }

    fn new(enabled: bool, keep_every: u32) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            aggregates: SpanKind::ALL.iter().map(|_| Aggregate::default()).collect(),
            // Reserved up front so the tracer's own growth stays out of the
            // allocation counts of a traced pass.
            kept: Vec::with_capacity(if enabled { MAX_KEPT_SPANS } else { 0 }),
            keep_every,
            keep_limit: MAX_KEPT_SPANS,
            unit_id: 0,
            keep_unit: true,
        }
    }

    /// Keeps no further full spans; aggregates go on. Episodes are
    /// statistically alike, so the trace file holds the first one.
    pub fn stop_keeping(&mut self) {
        self.keep_limit = self.kept.len();
    }

    /// Marks the start of unit `id`; `force_keep` pins the first and last
    /// unit of an episode into the kept sample.
    pub fn begin_unit(&mut self, id: u32, force_keep: bool) {
        if self.enabled {
            self.unit_id = id;
            self.keep_unit = force_keep || id.is_multiple_of(self.keep_every);
        }
    }

    #[inline]
    pub fn enter(&mut self, kind: SpanKind) {
        if !self.enabled {
            return;
        }
        let keep =
            (self.keep_unit || kind == SpanKind::Episode) && self.kept.len() < self.keep_limit;
        let slot = if keep {
            let parent = self.stack.last().map_or(NO_PARENT, |open| open.slot);
            self.kept.push(Span {
                kind,
                start_ns: 0,
                end_ns: 0,
                parent,
                unit_id: self.unit_id,
            });
            (self.kept.len() - 1) as u32
        } else {
            NO_PARENT
        };
        // Read the clock last so the span excludes its own bookkeeping.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(Open {
            kind,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    #[inline]
    pub fn exit(&mut self, kind: SpanKind) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.stack.pop().expect("exit without a matching enter");
        assert_eq!(open.kind, kind, "spans must nest");
        self.record(open, end_ns);
    }

    fn record(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        let agg = &mut self.aggregates[open.kind as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if agg.samples_ns.len() < MAX_SAMPLES {
            agg.samples_ns.push(dur.min(u64::from(u32::MAX)) as u32);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.slot != NO_PARENT {
            let span = &mut self.kept[open.slot as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        self.enter(kind);
        let out = f();
        self.exit(kind);
        out
    }

    pub fn aggregate(&self, kind: SpanKind) -> &Aggregate {
        &self.aggregates[kind as usize]
    }

    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Total spans recorded, kept or not.
    pub fn span_count(&self) -> u64 {
        self.aggregates.iter().map(|a| a.count).sum()
    }

    /// The kept spans as Chrome trace-event JSON (`ph: "X"` complete events
    /// on one track, microsecond timestamps). Perfetto nests them by time;
    /// `args.id`/`args.parent` carry the explicit links.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.kept.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"tnic-benchmark {workload}\"}}}}"
        );
        for (id, span) in self.kept.iter().enumerate() {
            // A span still open when the pass ended has no end; skip it.
            if span.end_ns < span.start_ns || (span.end_ns == 0 && span.start_ns == 0) {
                continue;
            }
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"driver\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"unit\":{}}}}}",
                span.kind.name(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                id,
                parent,
                span.unit_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self time of each span in `spans` (same order): its duration minus the
    /// part of that interval its direct children cover. Used to cross-check the
    /// streaming aggregates on the kept sample.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in spans {
            if span.parent != NO_PARENT {
                let parent = &spans[span.parent as usize];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                own[span.parent as usize] =
                    own[span.parent as usize].saturating_sub(hi.saturating_sub(lo));
            }
        }
        own
    }

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            unit_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // episode [0,1000] > unit [100,900] > send [100,400], poll [400,700]
        // (adjacent), and send has no children of its own.
        let spans = [
            span(SpanKind::Episode, 0, 1000, NO_PARENT),
            span(SpanKind::Unit, 100, 900, 0),
            span(SpanKind::AuthSend, 100, 400, 1),
            span(SpanKind::Poll, 400, 700, 1),
        ];
        assert_eq!(self_times(&spans), vec![200, 200, 300, 300]);
    }

    #[test]
    fn grandchildren_are_charged_to_their_parent_only() {
        let spans = [
            span(SpanKind::Episode, 0, 100, NO_PARENT),
            span(SpanKind::Unit, 10, 90, 0),
            span(SpanKind::AuthSend, 20, 50, 1),
        ];
        // The episode loses the unit's 80 ns once, not the send's 30 again.
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn streaming_aggregates_agree_with_kept_spans() {
        let mut t = Tracer::on(1);
        t.enter(SpanKind::Episode);
        for unit in 0..3 {
            t.begin_unit(unit, false);
            t.enter(SpanKind::Unit);
            t.span(SpanKind::AuthSend, || std::hint::black_box(1 + 1));
            t.span(SpanKind::Poll, || std::hint::black_box(2 + 2));
            t.exit(SpanKind::Unit);
        }
        t.exit(SpanKind::Episode);
        assert_eq!(t.span_count(), 1 + 3 * 3);
        assert_eq!(t.kept().len(), 10);
        let own = self_times(t.kept());
        for kind in SpanKind::ALL {
            let from_spans: u64 = t
                .kept()
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.kind == kind)
                .map(|(_, o)| *o)
                .sum();
            assert_eq!(t.aggregate(kind).self_ns, from_spans, "{}", kind.name());
        }
        // Parent links: every unit hangs off the episode, every call off a unit.
        for s in t.kept() {
            match s.kind {
                SpanKind::Episode => assert_eq!(s.parent, NO_PARENT),
                SpanKind::Unit => assert_eq!(t.kept()[s.parent as usize].kind, SpanKind::Episode),
                _ => assert_eq!(t.kept()[s.parent as usize].kind, SpanKind::Unit),
            }
        }
    }

    #[test]
    fn sampling_keeps_first_forced_and_every_kth_unit() {
        let mut t = Tracer::on(4);
        for unit in 0..10 {
            t.begin_unit(unit, unit == 9);
            t.span(SpanKind::Unit, || ());
        }
        let kept: Vec<u32> = t.kept().iter().map(|s| s.unit_id).collect();
        assert_eq!(kept, vec![0, 4, 8, 9]);
        assert_eq!(t.aggregate(SpanKind::Unit).count, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin_unit(0, true);
        assert_eq!(t.span(SpanKind::Unit, || 7), 7);
        assert_eq!(t.span_count(), 0);
        assert!(t.kept().is_empty());
    }

    #[test]
    fn chrome_trace_is_one_event_per_kept_span() {
        let mut t = Tracer::on(1);
        t.enter(SpanKind::Episode);
        t.span(SpanKind::Unit, || ());
        t.exit(SpanKind::Episode);
        let json = t.chrome_trace_json("unit-test");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0"));
        assert!(crate::json::parse(&json).is_ok());
    }
}
