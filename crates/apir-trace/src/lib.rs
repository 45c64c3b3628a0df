//! # apir-trace
//!
//! Renderers for the fabric's deterministic observability layer:
//!
//! * [`text_summary`] — a human-readable digest of a [`FabricReport`]:
//!   top-line results, the full metrics snapshot (stable keys, sorted),
//!   and per-component event totals from the structured trace;
//! * [`chrome_trace`] — the trace as Chrome-trace JSON (load it in
//!   `chrome://tracing` or <https://ui.perfetto.dev>): pipeline-stage
//!   busy/stall spans as duration events and everything countable
//!   (retires, cache hits/misses, queue pushes, rule firings) as counter
//!   tracks;
//! * [`traced_run`] — convenience wrapper that synthesizes an
//!   accelerator for one of the six builtin apps, runs it with tracing
//!   enabled, and verifies the result.
//!
//! Everything renders deterministically: two runs of the same
//! app/scale/capacity produce byte-identical output (see the canary in
//! `tests/cross_engine.rs`).
//!
//! The `apir-trace` binary exposes these from the command line:
//!
//! ```text
//! apir-trace run SPEC-BFS --scale tiny --chrome out.json
//! ```

use apir_bench::experiments::{run_verified, synthesized_cfg};
use apir_bench::Scale;
use apir_fabric::FabricReport;
use apir_sim::metrics::MetricValue;
use apir_sim::stats::Activity;
use apir_sim::trace::EventTrace;
use apir_util::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Synthesizes an accelerator for builtin app `name`, runs it with a
/// trace ring of `trace_capacity` records, verifies the final memory
/// image, and returns the report.
///
/// # Panics
///
/// Panics on an unknown app name, a failed run, or a failed check (same
/// contract as `apir_bench::experiments::run_verified`).
pub fn traced_run(name: &str, scale: Scale, trace_capacity: usize) -> FabricReport {
    let mut cfg = synthesized_cfg(name, scale);
    cfg.trace_capacity = trace_capacity;
    let (_, report) = run_verified(name, scale, cfg);
    report
}

/// Like [`traced_run`], but with the chaos fault-injection preset
/// ([`apir_fabric::FaultConfig::chaos`]) armed from `fault_seed`: soft
/// errors on cache-line fills, dropped/late QPI responses, and periodic
/// rule-lane / queue-bank failures. The run still goes through the app's
/// checker, so a returned report proves the fabric recovered to a correct
/// final memory image despite the injected faults. Fully deterministic:
/// the same `(name, scale, trace_capacity, fault_seed)` produces a
/// byte-identical `to_json()` document.
pub fn chaos_run(name: &str, scale: Scale, trace_capacity: usize, fault_seed: u64) -> FabricReport {
    let mut cfg = synthesized_cfg(name, scale);
    cfg.trace_capacity = trace_capacity;
    cfg.faults = apir_fabric::FaultConfig::chaos(fault_seed);
    let (_, report) = run_verified(name, scale, cfg);
    report
}

/// The configuration one of the CLI runners executes `name` under: the
/// synthesized baseline with the trace ring and (optionally) the chaos
/// preset armed, then the cache scaling and tuning hooks `run_verified`
/// applies — so a paused-and-restored run rebuilds the *exact* fabric
/// the uninterrupted runner uses.
fn runner_app_cfg(
    name: &str,
    scale: Scale,
    trace_capacity: usize,
    fault_seed: Option<u64>,
) -> (apir_bench::scale::AppInstance, apir_fabric::FabricConfig) {
    let app = apir_bench::scale::build_app(name, scale);
    let mut cfg = synthesized_cfg(name, scale);
    cfg.trace_capacity = trace_capacity;
    if let Some(seed) = fault_seed {
        cfg.faults = apir_fabric::FaultConfig::chaos(seed);
    }
    apir_bench::experiments::scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    (app, cfg)
}

/// What [`snapshot_at`] produced.
pub enum SnapshotAt {
    /// The run paused at (or just past) the requested cycle; the
    /// `apir.fabric.snapshot.v1` document captures its complete state.
    Paused(Json),
    /// The run completed before reaching the requested cycle; the
    /// verified final report is returned instead of a snapshot.
    Completed(Box<FabricReport>),
}

/// Runs builtin app `name` up to cycle `at` and snapshots the paused
/// fabric as an `apir.fabric.snapshot.v1` document. The configuration
/// recipe matches [`traced_run`]/[`chaos_run`] exactly, so feeding the
/// document to [`restore_run`] finishes the run byte-identically to the
/// uninterrupted runner.
///
/// # Panics
///
/// Panics on an unknown app name or a failed run (same contract as
/// [`traced_run`]).
pub fn snapshot_at(
    name: &str,
    scale: Scale,
    trace_capacity: usize,
    fault_seed: Option<u64>,
    at: u64,
) -> SnapshotAt {
    let (app, cfg) = runner_app_cfg(name, scale, trace_capacity, fault_seed);
    let split = apir_fabric::Fabric::new(&app.spec, &app.input, cfg)
        .run_until(at)
        .unwrap_or_else(|e| panic!("{name}: fabric failed: {e}"));
    match split {
        apir_fabric::RunSplit::Paused(fabric) => SnapshotAt::Paused(fabric.snapshot()),
        apir_fabric::RunSplit::Done(report) => {
            (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: bad result: {e}"));
            SnapshotAt::Completed(report)
        }
    }
}

/// Restores builtin app `name` from a snapshot document and runs it to
/// completion, verifying the final memory image against the app's
/// checker. The `(scale, trace_capacity, fault_seed)` triple must match
/// the one the snapshot was taken under — restore validates the
/// structural fit and fails loudly on any mismatch.
///
/// # Errors
///
/// A human-readable message when the document does not fit the rebuilt
/// fabric, the resumed run fails, or the checker rejects the image.
pub fn restore_run(
    name: &str,
    scale: Scale,
    trace_capacity: usize,
    fault_seed: Option<u64>,
    doc: &Json,
) -> Result<FabricReport, String> {
    let (app, cfg) = runner_app_cfg(name, scale, trace_capacity, fault_seed);
    let fabric = apir_fabric::Fabric::restore(&app.spec, &app.input, cfg, doc)?;
    let report = fabric
        .run()
        .map_err(|e| format!("restored run failed: {e}"))?;
    (app.check)(&report.mem_image)
        .map_err(|e| format!("restored run produced a bad image: {e}"))?;
    Ok(report)
}

/// Like [`traced_run`], but with the windowed timeline recorder armed:
/// the report carries a `timeline` block of per-window activity/memory
/// deltas (see `apir-trace timeline`). `fault_seed` optionally arms the
/// chaos preset on top. Fully deterministic like the other runners.
pub fn timeline_run(
    name: &str,
    scale: Scale,
    window: u64,
    capacity: usize,
    fault_seed: Option<u64>,
) -> FabricReport {
    let mut cfg = synthesized_cfg(name, scale);
    cfg.timeline_window = window;
    cfg.timeline_capacity = capacity;
    if let Some(seed) = fault_seed {
        cfg.faults = apir_fabric::FaultConfig::chaos(seed);
    }
    let (_, report) = run_verified(name, scale, cfg);
    report
}

/// Static semantic analysis ([`apir_fabric::analysis`]) of one builtin
/// app under the same synthesized baseline configuration the dynamic
/// runners use — `synthesized_cfg` plus the cache scaling and tuning
/// hooks `run_verified` applies — so [`validate_analysis`] compares the
/// prediction against the exact fabric it measures.
///
/// # Panics
///
/// Panics on an unknown app name or an unlowerable spec (builtin specs
/// are held lint-clean, so neither happens in practice).
pub fn analyze_app(name: &str, scale: Scale) -> apir_fabric::analysis::Analysis {
    let app = apir_bench::scale::build_app(name, scale);
    let mut cfg = synthesized_cfg(name, scale);
    apir_bench::experiments::scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    apir_fabric::analyze_config(&cfg, &app.spec, &app.input)
        .unwrap_or_else(|| panic!("{name}: builtin spec failed to lower"))
}

/// The `apir.analysis.report.v1` document over every builtin app at
/// `scale` — the content of the committed `ANALYSIS_baseline.json`.
/// Byte-deterministic: the same scale renders the same bytes.
pub fn analysis_report(scale: Scale) -> Json {
    let analyses: Vec<(&str, apir_fabric::analysis::Analysis)> = apir_bench::scale::APP_NAMES
        .iter()
        .map(|&n| (n, analyze_app(n, scale)))
        .collect();
    apir_fabric::export::analysis_report_json(analyses.iter().map(|&(n, ref a)| (n, a)))
}

/// Outcome of one static-vs-dynamic validation ([`validate_analysis`]).
pub struct AnalysisValidation {
    /// App name.
    pub app: String,
    /// Dominant stall cause the static predictor named.
    pub predicted_cause: String,
    /// Pipeline stage the static predictor named.
    pub predicted_stage: String,
    /// Argmax of the measured `fabric.stall.*` vector (ties resolved in
    /// `StallCause::ALL` order, matching the predictor's key order);
    /// `"none"` when the run never stalled.
    pub measured_cause: String,
    /// Stall cycles attributed to the measured dominant cause.
    pub measured_stalls: u64,
    /// Per task set: `(name, measured peak occupancy, static bound)`.
    pub queues: Vec<(String, u64, u64)>,
    /// Human-readable contract violations; empty means validated.
    pub violations: Vec<String>,
}

impl AnalysisValidation {
    /// True when both contracts held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one builtin app on the synthesized fabric and validates the
/// static analysis against the measured run:
///
/// 1. **soundness** — every observed peak queue occupancy must stay at
///    or under the static occupancy bound;
/// 2. **prediction** — the predicted dominant stall cause must equal
///    the top cause of the measured `fabric.stall.*` vector (skipped
///    when the run recorded zero stall cycles — there is no ground
///    truth to match).
pub fn validate_analysis(name: &str, scale: Scale) -> AnalysisValidation {
    let analysis = analyze_app(name, scale);
    let (_, report) = run_verified(name, scale, synthesized_cfg(name, scale));

    let mut measured_cause = "none";
    let mut measured_stalls = 0u64;
    for c in apir_sim::stats::StallCause::ALL {
        let key = format!("fabric.stall.{}", c.key());
        let v = report.metrics.counter(&key).unwrap_or(0);
        if v > measured_stalls {
            measured_stalls = v;
            measured_cause = c.key();
        }
    }

    let mut queues = Vec::new();
    let mut violations = Vec::new();
    for (i, q) in analysis.queues.iter().enumerate() {
        let peak = report.queue_peaks.get(i).copied().unwrap_or(0) as u64;
        if peak > q.bound {
            violations.push(format!(
                "queue `{}`: measured peak {peak} exceeds static bound {}",
                q.task_set, q.bound
            ));
        }
        queues.push((q.task_set.clone(), peak, q.bound));
    }
    if measured_stalls > 0 && analysis.bottleneck.cause != measured_cause {
        violations.push(format!(
            "predicted dominant stall cause `{}` but measured `{measured_cause}` \
             ({measured_stalls} stall cycles)",
            analysis.bottleneck.cause
        ));
    }
    AnalysisValidation {
        app: name.to_string(),
        predicted_cause: analysis.bottleneck.cause.to_string(),
        predicted_stage: analysis.bottleneck.stage.clone(),
        measured_cause: measured_cause.to_string(),
        measured_stalls,
        queues,
        violations,
    }
}

/// Per-component totals of one event kind: `(occurrences, summed value)`.
type EventTotals = BTreeMap<(String, &'static str), (u64, u64)>;

fn event_totals(trace: &EventTrace) -> EventTotals {
    let mut totals = EventTotals::new();
    for r in trace.records() {
        let key = (trace.component_name(r.comp).to_string(), r.event);
        let e = totals.entry(key).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.value.max(1);
    }
    totals
}

/// Renders a human-readable digest of the report: run results, the full
/// metrics snapshot, and (when tracing was enabled) per-component event
/// totals.
pub fn text_summary(report: &FabricReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== fabric run ==");
    if let Some(t) = &report.trace {
        if t.dropped() > 0 {
            let _ = writeln!(
                out,
                "WARNING: trace ring overflowed; {} oldest records were dropped \
                 (event totals below are incomplete — raise --cap)",
                t.dropped()
            );
        }
    }
    let _ = writeln!(
        out,
        "cycles={} seconds={:.6e} utilization={:.4} primitive_ops={}",
        report.cycles, report.seconds, report.utilization, report.primitive_ops
    );
    let _ = writeln!(
        out,
        "retired={:?} squashes={} requeues={} bounces={} extern_calls={}",
        report.retired, report.squashes, report.requeues, report.bounces, report.extern_calls
    );
    let _ = writeln!(
        out,
        "mem: reads={} writes={} hits={} misses={} qpi_bytes={}",
        report.mem.reads,
        report.mem.writes,
        report.mem.hits,
        report.mem.misses,
        report.mem.qpi_bytes
    );
    let f = &report.faults;
    if *f != apir_fabric::FaultStats::default() {
        let _ = writeln!(
            out,
            "faults: soft={}/{}c/{}r link={}d/{}l/{}r/{}e lanes={}m banks={}m wd={}e/{}f",
            f.soft_injected,
            f.soft_corrected,
            f.soft_refetched,
            f.link_dropped,
            f.link_late,
            f.link_retried,
            f.link_escalated,
            f.lanes_masked,
            f.banks_masked,
            f.watchdog_escalations,
            f.watchdog_flushed
        );
    }
    write_stall_attribution(&mut out, report);
    let _ = writeln!(out, "\n== metrics ({}) ==", report.metrics.entries().len());
    for (key, value) in report.metrics.entries() {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "  {key:<40} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "  {key:<40} {v}");
            }
            MetricValue::Histogram(h) => {
                // A saturated sum makes the mean a lower bound, not an
                // exact value; say so instead of printing it as truth.
                let sat = if h.saturated() {
                    " (sum saturated)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  {key:<40} count={} mean={:.2} max={}{sat}",
                    h.count(),
                    h.mean(),
                    h.max()
                );
            }
        }
    }
    match &report.trace {
        None => {
            let _ = writeln!(out, "\n== trace: disabled ==");
        }
        Some(t) => {
            let _ = writeln!(
                out,
                "\n== trace: {} records, {} dropped, {} components ==",
                t.len(),
                t.dropped(),
                t.components().len()
            );
            for ((comp, event), (n, sum)) in event_totals(t) {
                let _ = writeln!(out, "  {comp:<32} {event:<10} x{n} (total {sum})");
            }
        }
    }
    out
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// The "top-down" attribution table: where the stage-cycles went
/// (busy/stall/idle), which causes the stalls break down into, and which
/// components were refusing admissions — the paper's Figure 9
/// utilization story, reproduced from the report's counters.
fn write_stall_attribution(out: &mut String, report: &FabricReport) {
    let t = report.activity.totals();
    let (busy, stall, idle) = (t.busy, t.stall, t.idle);
    let total = t.total();
    let _ = writeln!(out, "\n== stall attribution ==");
    let _ = writeln!(
        out,
        "stage-cycles: busy={busy} ({:.1}%) stall={stall} ({:.1}%) idle={idle} ({:.1}%)",
        pct(busy, total),
        pct(stall, total),
        pct(idle, total)
    );
    let mut ranked: Vec<_> = t.stall_causes().filter(|&(_, n)| n > 0).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.key().cmp(b.0.key())));
    for (c, n) in ranked {
        let _ = writeln!(
            out,
            "  stall.{:<24} {n:>12} ({:.1}% of stalls)",
            c.key(),
            pct(n, stall)
        );
    }
    // Component admission stalls: every `<comp>.stall` counter in the
    // snapshot (mem, queues, rule engines), with its cause split. The
    // fabric-level aggregate is the stage-cycles line above.
    let entries = report.metrics.entries();
    let mut wrote_header = false;
    for (key, value) in entries {
        let MetricValue::Counter(v) = value else {
            continue;
        };
        if *v == 0 || key.starts_with("fabric.") || !key.ends_with(".stall") {
            continue;
        }
        if !wrote_header {
            let _ = writeln!(out, "component admission stalls:");
            wrote_header = true;
        }
        let mut split = String::new();
        let prefix = format!("{key}.");
        for (k2, v2) in entries {
            let MetricValue::Counter(n) = v2 else {
                continue;
            };
            if *n > 0 {
                if let Some(cause) = k2.strip_prefix(&prefix) {
                    let _ = write!(split, " {cause}={n}");
                }
            }
        }
        let _ = writeln!(out, "  {key:<40} {v:>12}{split}");
    }
}

fn activity_of(event: &str) -> Option<Activity> {
    match event {
        "busy" => Some(Activity::Busy),
        "stall" => Some(Activity::Stall),
        "idle" => Some(Activity::Idle),
        _ => None,
    }
}

fn span_event(name: &str, tid: u32, ts: u64, dur: u64) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str("activity")),
        ("ph", Json::str("X")),
        ("pid", Json::U64(0)),
        ("tid", Json::U64(u64::from(tid))),
        ("ts", Json::U64(ts)),
        ("dur", Json::U64(dur)),
    ])
}

/// Renders the report's event trace as Chrome-trace JSON.
///
/// Pipeline-stage activity transitions become `"X"` duration events
/// (busy and stall spans; idle gaps stay empty), every counted event
/// becomes a `"C"` counter track, and components map to named threads.
/// One simulated cycle is rendered as one microsecond of trace time.
///
/// Returns `None` when the report was produced without tracing.
pub fn chrome_trace(report: &FabricReport) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let mut events: Vec<Json> = Vec::new();
    // Thread-name metadata: one named row per component.
    for (i, name) in trace.components().iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::U64(0)),
            ("tid", Json::U64(i as u64)),
            ("args", Json::obj([("name", Json::str(name.as_str()))])),
        ]));
    }
    // Open activity span per component: (state, since-cycle).
    let mut open: Vec<Option<(Activity, u64)>> = vec![None; trace.components().len()];
    for r in trace.records() {
        match activity_of(r.event) {
            Some(state) => {
                let slot = &mut open[r.comp.0 as usize];
                if let Some((prev, since)) = slot.take() {
                    if prev != Activity::Idle && r.cycle > since {
                        let name = if prev == Activity::Busy {
                            "busy"
                        } else {
                            "stall"
                        };
                        events.push(span_event(name, r.comp.0, since, r.cycle - since));
                    }
                }
                *slot = Some((state, r.cycle));
            }
            None => {
                events.push(Json::obj([
                    ("name", Json::str(r.event)),
                    ("ph", Json::str("C")),
                    ("pid", Json::U64(0)),
                    ("tid", Json::U64(u64::from(r.comp.0))),
                    ("ts", Json::U64(r.cycle)),
                    ("args", Json::obj([(r.event, Json::U64(r.value))])),
                ]));
            }
        }
    }
    // Close spans still open at the end of the run.
    for (i, slot) in open.iter().enumerate() {
        if let Some((state, since)) = slot {
            if *state != Activity::Idle && report.cycles > *since {
                let name = if *state == Activity::Busy {
                    "busy"
                } else {
                    "stall"
                };
                events.push(span_event(name, i as u32, *since, report.cycles - since));
            }
        }
    }
    let doc = Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ]);
    Some(doc.render())
}

/// Renders the report's timeline block as CSV (header + one row per
/// window). Returns `None` when the run had no timeline recorder.
pub fn timeline_csv(report: &FabricReport) -> Option<String> {
    let t = report.timeline.as_ref()?;
    let mut out = String::from("start,cycles,busy,stall,idle,retired,hits,misses,qpi_bytes\n");
    for w in &t.windows {
        let s = &w.sample;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            w.start, w.cycles, s.busy, s.stall, s.idle, s.retired, s.hits, s.misses, s.qpi_bytes
        );
    }
    Some(out)
}

/// Renders the timeline as a unicode sparkline of per-window busy
/// fraction (stage-cycles busy over total), one glyph per window.
/// Returns `None` when the run had no timeline recorder.
pub fn timeline_sparkline(report: &FabricReport) -> Option<String> {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let t = report.timeline.as_ref()?;
    let mut s = String::new();
    for w in &t.windows {
        let total = w.sample.busy + w.sample.stall + w.sample.idle;
        let frac = if total == 0 {
            0.0
        } else {
            w.sample.busy as f64 / total as f64
        };
        // frac == 1.0 maps to the top glyph, not one past the end.
        s.push(BARS[((frac * 8.0) as usize).min(7)]);
    }
    Some(s)
}

/// One difference between two flattened report documents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffLine {
    /// Key present in both documents with different values.
    Changed {
        /// Flattened dotted key.
        key: String,
        /// Value in the first document.
        a: String,
        /// Value in the second document.
        b: String,
    },
    /// Key present only in the second document.
    Added {
        /// Flattened dotted key.
        key: String,
        /// Value in the second document.
        b: String,
    },
    /// Key present only in the first document.
    Removed {
        /// Flattened dotted key.
        key: String,
        /// Value in the first document.
        a: String,
    },
}

impl DiffLine {
    /// The flattened key this difference is about.
    pub fn key(&self) -> &str {
        match self {
            DiffLine::Changed { key, .. }
            | DiffLine::Added { key, .. }
            | DiffLine::Removed { key, .. } => key,
        }
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        match self {
            DiffLine::Changed { key, a, b } => format!("~ {key}: {a} -> {b}"),
            DiffLine::Added { key, b } => format!("+ {key} = {b}"),
            DiffLine::Removed { key, a } => format!("- {key} (was {a})"),
        }
    }

    /// Stable pipe-separated rendering for scripts
    /// (`changed|key|a|b`, `added|key|b`, `removed|key|a`).
    pub fn render_machine(&self) -> String {
        match self {
            DiffLine::Changed { key, a, b } => format!("changed|{key}|{a}|{b}"),
            DiffLine::Added { key, b } => format!("added|{key}|{b}"),
            DiffLine::Removed { key, a } => format!("removed|{key}|{a}"),
        }
    }
}

fn flatten_into(prefix: &str, v: &Json, out: &mut BTreeMap<String, String>) {
    match v {
        Json::Obj(members) if !members.is_empty() => {
            for (k, v) in members {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(&key, v, out);
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (i, v) in items.iter().enumerate() {
                flatten_into(&format!("{prefix}[{i}]"), v, out);
            }
        }
        // Scalars — and empty composites, so `[]` vs `[1]` still diffs.
        other => {
            out.insert(prefix.to_string(), other.render());
        }
    }
}

/// Compares two report documents key by key.
///
/// Both documents are flattened to dotted scalar keys and compared
/// exactly. An empty result means the documents are equivalent.
///
/// # Errors
///
/// When the documents carry different `schema` identifiers — per-key
/// deltas between different schemas would be noise, so the caller should
/// treat this as a distinct outcome (exit code 2 in the CLI).
pub fn diff_docs(a: &Json, b: &Json) -> Result<Vec<DiffLine>, String> {
    let sa = a.get("schema").and_then(Json::as_str);
    let sb = b.get("schema").and_then(Json::as_str);
    if sa != sb {
        return Err(format!(
            "schema mismatch: {} vs {}",
            sa.unwrap_or("<none>"),
            sb.unwrap_or("<none>")
        ));
    }
    let mut fa = BTreeMap::new();
    let mut fb = BTreeMap::new();
    flatten_into("", a, &mut fa);
    flatten_into("", b, &mut fb);
    let mut out = Vec::new();
    for (key, va) in &fa {
        match fb.get(key) {
            Some(vb) if va == vb => {}
            Some(vb) => out.push(DiffLine::Changed {
                key: key.clone(),
                a: va.clone(),
                b: vb.clone(),
            }),
            None => out.push(DiffLine::Removed {
                key: key.clone(),
                a: va.clone(),
            }),
        }
    }
    for (key, vb) in &fb {
        if !fa.contains_key(key) {
            out.push(DiffLine::Added {
                key: key.clone(),
                b: vb.clone(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bfs_report() -> FabricReport {
        traced_run("SPEC-BFS", Scale::Tiny, 1 << 14)
    }

    #[test]
    fn traced_run_produces_trace_and_summary() {
        let r = bfs_report();
        let t = r.trace.as_ref().expect("tracing enabled");
        assert!(!t.is_empty());
        let summary = text_summary(&r);
        assert!(summary.contains("fabric.cycles"));
        assert!(summary.contains("== trace:"));
        assert!(summary.contains("retire"));
    }

    #[test]
    fn chrome_trace_is_valid_deterministic_json() {
        let r = bfs_report();
        let a = chrome_trace(&r).expect("tracing enabled");
        let b = chrome_trace(&r).expect("tracing enabled");
        assert_eq!(a, b, "same report must render identically");
        let doc = apir_util::json::parse(&a).expect("valid JSON");
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!evs.is_empty());
        // Every event carries the Chrome-trace required keys.
        for e in evs {
            assert!(e.get("ph").unwrap().as_str().is_some());
            assert!(e.get("pid").unwrap().as_u64().is_some());
        }
        // There is at least one busy span and one counter sample.
        assert!(evs
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("X")));
        assert!(evs
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("C")));
    }

    #[test]
    fn summary_includes_stall_attribution() {
        let s = text_summary(&bfs_report());
        assert!(s.contains("== stall attribution =="));
        assert!(s.contains("stage-cycles: busy="));
        assert!(s.contains("% of stalls"));
    }

    #[test]
    fn timeline_run_produces_windows_and_renderers() {
        let r = timeline_run("SPEC-BFS", Scale::Tiny, 64, 1024, None);
        let t = r.timeline.as_ref().expect("timeline enabled");
        assert_eq!(t.window, 64);
        assert!(!t.windows.is_empty());
        assert_eq!(
            t.windows.iter().map(|w| w.cycles).sum::<u64>(),
            r.cycles,
            "windows cover the whole run"
        );
        let csv = timeline_csv(&r).expect("csv renders");
        assert!(csv.starts_with("start,cycles,busy,"));
        assert_eq!(csv.lines().count(), t.windows.len() + 1);
        let spark = timeline_sparkline(&r).expect("sparkline renders");
        assert_eq!(spark.chars().count(), t.windows.len());
        // Reports without a recorder render neither.
        let plain = traced_run("SPEC-BFS", Scale::Tiny, 1 << 14);
        assert!(plain.timeline.is_none());
        assert!(timeline_csv(&plain).is_none());
        assert!(timeline_sparkline(&plain).is_none());
    }

    #[test]
    fn diff_identical_docs_is_empty() {
        let r = bfs_report();
        let a = apir_util::json::parse(&r.to_json()).unwrap();
        let b = apir_util::json::parse(&r.to_json()).unwrap();
        assert_eq!(diff_docs(&a, &b).unwrap(), Vec::new());
    }

    #[test]
    fn diff_reports_changed_added_removed_keys() {
        let a = apir_util::json::parse(r#"{"schema":"s.v1","x":1,"gone":2,"nest":{"k":[1,2]}}"#)
            .unwrap();
        let b =
            apir_util::json::parse(r#"{"schema":"s.v1","x":5,"nest":{"k":[1,3]},"fresh":true}"#)
                .unwrap();
        let d = diff_docs(&a, &b).unwrap();
        let keys: Vec<&str> = d.iter().map(DiffLine::key).collect();
        assert_eq!(keys, ["gone", "nest.k[1]", "x", "fresh"]);
        assert!(matches!(&d[0], DiffLine::Removed { .. }));
        assert!(matches!(
            &d[1],
            DiffLine::Changed { a, b, .. } if a == "2" && b == "3"
        ));
        assert!(matches!(&d[3], DiffLine::Added { b, .. } if b == "true"));
    }

    #[test]
    fn diff_schema_mismatch_errors() {
        let a = apir_util::json::parse(r#"{"schema":"s.v1","x":1}"#).unwrap();
        let b = apir_util::json::parse(r#"{"schema":"s.v2","x":1}"#).unwrap();
        let err = diff_docs(&a, &b).unwrap_err();
        assert!(err.contains("s.v1") && err.contains("s.v2"));
    }

    #[test]
    fn untraced_report_renders_no_chrome_trace() {
        let mut cfg = synthesized_cfg("SPEC-BFS", Scale::Tiny);
        cfg.trace_capacity = 0;
        let (_, r) = run_verified("SPEC-BFS", Scale::Tiny, cfg);
        assert!(r.trace.is_none());
        assert!(chrome_trace(&r).is_none());
        assert!(text_summary(&r).contains("trace: disabled"));
    }
}
