//! Machine-readable export of a [`FabricReport`].
//!
//! [`FabricReport::to_json`] renders the run's scalar results and the
//! full metrics snapshot as deterministic JSON: objects keep insertion
//! order, counters stay exact `u64`s, and floats use Rust's
//! shortest-roundtrip `Display` — so two runs with the same seed render
//! **byte-identical** documents (the determinism canary in
//! `tests/cross_engine.rs` relies on this). The bulky per-run payloads
//! (`mem_image`, the raw trace buffer) are intentionally excluded; the
//! trace appears only as a summary.

use crate::fabric::FabricReport;
use crate::fault::FaultStats;
use crate::memory::MemStats;
use crate::rules::RuleEngineStats;
use apir_core::check::analysis::Analysis;
use apir_core::check::Report as LintReport;
use apir_sim::metrics::{Histogram, MetricValue, MetricsSnapshot};
use apir_sim::stats::UtilizationSummary;
use apir_sim::timeline::Timeline;
use apir_util::Json;

/// Schema identifier embedded in every exported report.
///
/// `v2` extends `v1` with the per-stage `activity` block (stall-cause
/// attribution) and the optional `timeline` block (windowed samples).
pub const REPORT_SCHEMA: &str = "apir.fabric.report.v2";

/// Schema identifier of the static-analysis export
/// ([`analysis_report_json`]).
pub const ANALYSIS_SCHEMA: &str = "apir.analysis.report.v1";

/// Schema identifier of the machine-readable lint export
/// ([`lint_report_json`]).
pub const LINT_SCHEMA: &str = "apir.lint.report.v1";

/// Renders one lint [`Report`](LintReport) as a JSON value with stable
/// key order (diagnostics keep the analyzer's deterministic emission
/// order), so two runs over the same spec render byte-identical blocks.
pub fn lint_report_block(report: &LintReport) -> Json {
    Json::obj([
        ("subject", Json::str(&report.subject)),
        ("errors", Json::U64(report.error_count() as u64)),
        (
            "diagnostics",
            Json::arr(report.diagnostics().iter().map(|d| {
                Json::obj_sparse([
                    ("code", Some(Json::str(d.lint.code()))),
                    ("severity", Some(Json::str(d.severity.to_string()))),
                    ("entity", Some(Json::str(&d.entity))),
                    ("message", Some(Json::str(&d.message))),
                    ("hint", d.hint.as_deref().map(Json::str)),
                ])
            })),
        ),
    ])
}

/// Assembles the full `apir.lint.report.v1` document from per-subject
/// lint reports (diffable with `apir-trace diff`).
pub fn lint_report_json(reports: &[LintReport]) -> Json {
    Json::obj([
        ("schema", Json::str(LINT_SCHEMA)),
        ("reports", Json::arr(reports.iter().map(lint_report_block))),
    ])
}

/// Renders one app's [`Analysis`] as a JSON value: occupancy bounds,
/// cycle certifications, the bottleneck prediction, and the backing
/// `APIR6xx` diagnostics. Deterministic by construction — every list
/// keeps the analyzer's emission order and all floats are pre-rounded.
pub fn analysis_block(a: &Analysis) -> Json {
    let queues = Json::arr(a.queues.iter().map(|q| {
        Json::obj_sparse([
            ("task_set", Some(Json::str(&q.task_set))),
            ("capacity", Some(Json::U64(q.capacity))),
            ("in_pipe", Some(Json::U64(q.in_pipe))),
            ("reserve", Some(Json::U64(q.reserve))),
            ("demand", q.demand.map(Json::U64)),
            ("bound", Some(Json::U64(q.bound))),
            ("widened", Some(Json::Bool(q.widened))),
            ("widen_reason", q.widen_reason.map(Json::str)),
        ])
    }));
    let cycles = Json::arr(a.cycles.iter().map(|c| {
        Json::obj([
            ("class", Json::str(c.class.key())),
            ("size", Json::U64(c.size as u64)),
            ("anchor", Json::str(&c.anchor)),
            ("task_sets", Json::arr(c.task_sets.iter().map(Json::str))),
        ])
    }));
    let bottleneck = Json::obj([
        ("cause", Json::str(a.bottleneck.cause)),
        ("stage", Json::str(&a.bottleneck.stage)),
        (
            "scores",
            Json::Obj(
                a.bottleneck
                    .scores
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "stages",
            Json::arr(a.bottleneck.stages.iter().map(|s| {
                Json::obj([
                    ("stage", Json::str(&s.stage)),
                    ("score", Json::Num(s.score)),
                ])
            })),
        ),
        (
            "weights",
            Json::Obj(
                a.bottleneck
                    .weights
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    Json::obj([
        ("queues", queues),
        ("cycles", cycles),
        ("bottleneck", bottleneck),
        ("lint", lint_report_block(&a.report)),
    ])
}

/// Assembles the full `apir.analysis.report.v1` document: one
/// [`analysis_block`] per app, in the given order (the committed
/// `ANALYSIS_baseline.json` pins this byte-for-byte).
pub fn analysis_report_json<'a>(apps: impl IntoIterator<Item = (&'a str, &'a Analysis)>) -> Json {
    Json::obj([
        ("schema", Json::str(ANALYSIS_SCHEMA)),
        (
            "apps",
            Json::Obj(
                apps.into_iter()
                    .map(|(name, a)| (name.to_string(), analysis_block(a)))
                    .collect(),
            ),
        ),
    ])
}

fn histogram_json(h: &Histogram) -> Json {
    // A capped sum is no longer exact; flag it so downstream consumers
    // (apir-trace summaries, bench tooling) don't trust the mean. The
    // field appears only when set, keeping unsaturated documents — i.e.
    // every pinned golden — byte-identical otherwise.
    Json::obj_sparse([
        ("count", Some(Json::U64(h.count()))),
        ("sum", Some(Json::U64(h.sum()))),
        ("max", Some(Json::U64(h.max()))),
        (
            "buckets",
            Some(Json::arr(h.nonzero_buckets().map(|(bound, n)| {
                Json::arr([Json::U64(bound), Json::U64(n)])
            }))),
        ),
        ("saturated", h.saturated().then_some(Json::Bool(true))),
    ])
}

fn activity_json(u: &UtilizationSummary) -> Json {
    Json::Obj(
        u.rows()
            .map(|(name, t)| {
                let causes = Json::Obj(
                    t.stall_causes()
                        .filter(|&(_, n)| n > 0)
                        .map(|(c, n)| (c.key().to_string(), Json::U64(n)))
                        .collect(),
                );
                let row = Json::obj([
                    ("busy", Json::U64(t.busy)),
                    ("stall", Json::U64(t.stall)),
                    ("idle", Json::U64(t.idle)),
                    ("causes", causes),
                ]);
                (name.to_string(), row)
            })
            .collect(),
    )
}

fn timeline_json(t: &Timeline) -> Json {
    Json::obj([
        ("window", Json::U64(t.window)),
        ("dropped", Json::U64(t.dropped)),
        (
            "windows",
            Json::arr(t.windows.iter().map(|w| {
                Json::obj([
                    ("start", Json::U64(w.start)),
                    ("cycles", Json::U64(w.cycles)),
                    ("busy", Json::U64(w.sample.busy)),
                    ("stall", Json::U64(w.sample.stall)),
                    ("idle", Json::U64(w.sample.idle)),
                    ("retired", Json::U64(w.sample.retired)),
                    ("hits", Json::U64(w.sample.hits)),
                    ("misses", Json::U64(w.sample.misses)),
                    ("qpi_bytes", Json::U64(w.sample.qpi_bytes)),
                ])
            })),
        ),
    ])
}

fn metrics_json(snap: &MetricsSnapshot) -> Json {
    Json::Obj(
        snap.entries()
            .iter()
            .map(|(k, v)| {
                let j = match v {
                    MetricValue::Counter(c) => Json::U64(*c),
                    MetricValue::Gauge(g) => Json::Num(*g),
                    MetricValue::Histogram(h) => histogram_json(h),
                };
                (k.clone(), j)
            })
            .collect(),
    )
}

fn mem_json(m: &MemStats) -> Json {
    Json::obj([
        ("reads", Json::U64(m.reads)),
        ("writes", Json::U64(m.writes)),
        ("hits", Json::U64(m.hits)),
        ("misses", Json::U64(m.misses)),
        ("qpi_bytes", Json::U64(m.qpi_bytes)),
    ])
}

fn faults_json(f: &FaultStats) -> Json {
    Json::obj([
        ("soft_injected", Json::U64(f.soft_injected)),
        ("soft_corrected", Json::U64(f.soft_corrected)),
        ("soft_refetched", Json::U64(f.soft_refetched)),
        ("link_dropped", Json::U64(f.link_dropped)),
        ("link_late", Json::U64(f.link_late)),
        ("link_retried", Json::U64(f.link_retried)),
        ("link_escalated", Json::U64(f.link_escalated)),
        ("lanes_masked", Json::U64(f.lanes_masked)),
        ("lanes_drained", Json::U64(f.lanes_drained)),
        ("banks_masked", Json::U64(f.banks_masked)),
        ("banks_drained", Json::U64(f.banks_drained)),
        ("watchdog_escalations", Json::U64(f.watchdog_escalations)),
        ("watchdog_flushed", Json::U64(f.watchdog_flushed)),
    ])
}

fn rule_json(r: &RuleEngineStats) -> Json {
    Json::obj([
        ("allocs", Json::U64(r.allocs)),
        ("alloc_stalls", Json::U64(r.alloc_stalls)),
        ("clause_fires", Json::U64(r.clause_fires)),
        ("otherwise_fires", Json::U64(r.otherwise_fires)),
        ("evictions", Json::U64(r.evictions)),
        ("peak_lanes", Json::U64(r.peak_lanes)),
    ])
}

impl FabricReport {
    /// Builds the JSON document for this report (see [`REPORT_SCHEMA`]).
    pub fn to_json_value(&self) -> Json {
        let trace = match &self.trace {
            Some(t) => Json::obj([
                ("records", Json::U64(t.len() as u64)),
                ("dropped", Json::U64(t.dropped())),
                ("components", Json::U64(t.components().len() as u64)),
            ]),
            None => Json::Null,
        };
        // The `timeline` block is omitted entirely when the recorder was
        // disabled (`obj_sparse`); `trace` keeps its explicit `null` —
        // pinned by the v1-era tests and consumers.
        Json::obj_sparse([
            ("schema", Some(Json::str(REPORT_SCHEMA))),
            ("cycles", Some(Json::U64(self.cycles))),
            ("seconds", Some(Json::Num(self.seconds))),
            ("utilization", Some(Json::Num(self.utilization))),
            ("primitive_ops", Some(Json::U64(self.primitive_ops as u64))),
            (
                "retired",
                Some(Json::arr(self.retired.iter().map(|&r| Json::U64(r)))),
            ),
            ("squashes", Some(Json::U64(self.squashes))),
            ("requeues", Some(Json::U64(self.requeues))),
            ("bounces", Some(Json::U64(self.bounces))),
            ("extern_calls", Some(Json::U64(self.extern_calls))),
            (
                "queue_peaks",
                Some(Json::arr(
                    self.queue_peaks.iter().map(|&p| Json::U64(p as u64)),
                )),
            ),
            ("mem", Some(mem_json(&self.mem))),
            ("faults", Some(faults_json(&self.faults))),
            (
                "rollbacks",
                self.rollbacks.as_ref().map(|rb| {
                    Json::obj([
                        ("count", Json::U64(rb.count)),
                        ("replayed_cycles", Json::U64(rb.replayed_cycles)),
                        (
                            "events",
                            Json::arr(rb.events.iter().map(|&(fail, resume)| {
                                Json::obj([
                                    ("fail_cycle", Json::U64(fail)),
                                    ("resume_cycle", Json::U64(resume)),
                                ])
                            })),
                        ),
                    ])
                }),
            ),
            ("rules", Some(Json::arr(self.rules.iter().map(rule_json)))),
            ("metrics", Some(metrics_json(&self.metrics))),
            ("activity", Some(activity_json(&self.activity))),
            ("timeline", self.timeline.as_ref().map(timeline_json)),
            ("trace", Some(trace)),
        ])
    }

    /// Renders the report as compact deterministic JSON. Two runs of the
    /// same spec/input/config produce byte-identical strings.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

impl crate::fabric::FabricError {
    /// The partial report at the failure point as JSON, stamped with a
    /// `terminated: {kind, cycle}` member so campaign error records and
    /// post-mortem snapshots agree on where — and why — the run died.
    /// `None` for [`RejectedByLint`](crate::fabric::FabricError::RejectedByLint),
    /// which fails before the first cycle.
    pub fn partial_report_json(&self) -> Option<Json> {
        let report = self.partial_report()?;
        let Json::Obj(mut members) = report.to_json_value() else {
            unreachable!("reports render as objects");
        };
        members.push((
            "terminated".to_string(),
            Json::obj([
                ("kind", Json::str(self.kind())),
                (
                    "cycle",
                    Json::U64(self.failure_cycle().expect("report implies a cycle")),
                ),
            ]),
        ));
        Some(Json::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_sim::stats::UtilizationSummary;

    fn tiny_report() -> FabricReport {
        FabricReport {
            cycles: 100,
            seconds: 0.5e-6,
            retired: vec![3, 4],
            squashes: 1,
            requeues: 2,
            bounces: 0,
            mem: MemStats::default(),
            rules: vec![RuleEngineStats::default()],
            utilization: 0.25,
            primitive_ops: 8,
            queue_peaks: vec![5, 6],
            extern_calls: 0,
            mem_image: apir_core::MemImage::new(&[]),
            metrics: MetricsSnapshot::default(),
            activity: UtilizationSummary::new(),
            faults: FaultStats::default(),
            trace: None,
            timeline: None,
            rollbacks: None,
        }
    }

    #[test]
    fn rollbacks_block_is_omitted_when_unarmed() {
        let json = tiny_report().to_json();
        let parsed = apir_util::json::parse(&json).expect("valid JSON");
        assert!(parsed.get("rollbacks").is_none(), "no rollbacks member");
    }

    #[test]
    fn rollbacks_block_renders_events() {
        let mut r = tiny_report();
        r.rollbacks = Some(crate::fabric::RollbackSummary {
            count: 2,
            replayed_cycles: 70,
            events: vec![(40, 0), (90, 60)],
        });
        let parsed = apir_util::json::parse(&r.to_json()).expect("valid JSON");
        let rb = parsed.get("rollbacks").expect("rollbacks present");
        assert_eq!(rb.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(rb.get("replayed_cycles").unwrap().as_u64(), Some(70));
        let events = rb.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("fail_cycle").unwrap().as_u64(), Some(90));
        assert_eq!(events[1].get("resume_cycle").unwrap().as_u64(), Some(60));
    }

    #[test]
    fn json_roundtrips_and_is_deterministic() {
        let r = tiny_report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        let parsed = apir_util::json::parse(&a).expect("valid JSON");
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(parsed.get("cycles").unwrap().as_u64(), Some(100));
        assert_eq!(parsed.get("retired").unwrap().as_arr().unwrap().len(), 2);
        assert!(parsed.get("trace").unwrap().get("records").is_none());
    }

    #[test]
    fn excludes_bulky_payloads() {
        let json = tiny_report().to_json();
        assert!(!json.contains("mem_image"));
    }

    #[test]
    fn empty_histogram_round_trips_without_nan() {
        let mut r = tiny_report();
        let h = MetricValue::Histogram(Histogram::new());
        r.metrics = [("empty.hist".to_string(), h)].into_iter().collect();
        let json = r.to_json();
        assert!(!json.contains("NaN"), "no NaN leaks into the document");
        let parsed = apir_util::json::parse(&json).expect("valid JSON");
        let h = parsed
            .get("metrics")
            .unwrap()
            .get("empty.hist")
            .expect("histogram rendered");
        assert_eq!(h.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(0));
        assert!(h.get("saturated").is_none(), "flag absent when unset");
    }

    #[test]
    fn timeline_block_is_omitted_when_disabled() {
        let json = tiny_report().to_json();
        let parsed = apir_util::json::parse(&json).expect("valid JSON");
        assert!(parsed.get("timeline").is_none(), "no timeline member");
        assert!(parsed.get("activity").is_some(), "activity always present");
    }

    #[test]
    fn timeline_block_renders_windows() {
        use apir_sim::timeline::{TimelineRecorder, TimelineSample};
        let mut rec = TimelineRecorder::new(4, 8);
        let totals = |cycles: u64| TimelineSample {
            busy: cycles,
            stall: 2 * cycles,
            idle: 3 * cycles,
            retired: cycles,
            hits: 0,
            misses: 0,
            qpi_bytes: 64 * cycles,
        };
        rec.close(4, &totals(4));
        let mut r = tiny_report();
        r.timeline = Some(rec.finish(6, &totals(6)));
        let parsed = apir_util::json::parse(&r.to_json()).expect("valid JSON");
        let tl = parsed.get("timeline").expect("timeline present");
        assert_eq!(tl.get("window").unwrap().as_u64(), Some(4));
        assert_eq!(tl.get("dropped").unwrap().as_u64(), Some(0));
        let windows = tl.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 2, "full window plus partial tail");
        assert_eq!(windows[0].get("start").unwrap().as_u64(), Some(1));
        assert_eq!(windows[0].get("cycles").unwrap().as_u64(), Some(4));
        assert_eq!(windows[0].get("qpi_bytes").unwrap().as_u64(), Some(256));
        assert_eq!(windows[1].get("cycles").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn activity_block_reports_nonzero_causes() {
        use apir_sim::stats::{ActivityTracker, StallCause};
        let mut t = ActivityTracker::new();
        t.record(apir_sim::stats::Activity::Busy);
        t.record_stall_n(StallCause::QueueFull, 1);
        t.record_stall_n(StallCause::MshrFull, 3);
        let mut u = UtilizationSummary::new();
        u.add("p0.s0:enqueue", t);
        let mut r = tiny_report();
        r.activity = u;
        let parsed = apir_util::json::parse(&r.to_json()).expect("valid JSON");
        let row = parsed
            .get("activity")
            .unwrap()
            .get("p0.s0:enqueue")
            .expect("row rendered");
        assert_eq!(row.get("busy").unwrap().as_u64(), Some(1));
        assert_eq!(row.get("stall").unwrap().as_u64(), Some(4));
        let causes = row.get("causes").unwrap();
        assert_eq!(causes.get("queue_full").unwrap().as_u64(), Some(1));
        assert_eq!(causes.get("mshr_full").unwrap().as_u64(), Some(3));
        assert!(causes.get("bandwidth").is_none(), "zero causes omitted");
    }

    #[test]
    fn saturated_histogram_is_flagged() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX); // sum caps; flag must surface
        let mut r = tiny_report();
        let h = MetricValue::Histogram(h);
        r.metrics = [("hot.hist".to_string(), h)].into_iter().collect();
        let json = r.to_json();
        let parsed = apir_util::json::parse(&json).expect("valid JSON");
        let h = parsed.get("metrics").unwrap().get("hot.hist").unwrap();
        assert_eq!(h.get("saturated").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(u64::MAX));
    }
}
