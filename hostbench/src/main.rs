//! Host-speed benchmark of the APIR cycle simulator.
//!
//! ```text
//! hostbench --workload road|speculative|sweep|snapshot --seed N
//!           --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` records spans around every call into a layer and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 0 when the run completed, whatever it measured. Host times in the
//! end-to-end metrics are scaled to a reference host speed (`calib`).
//! See `README.md`.

mod calib;
mod cells;
mod sim;
mod snapshot;
mod stats;
mod sweep;
mod trace;

use apir_util::Json;
use calib::Meter;
use sim::{Counts, Size};
use stats::mix;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Passes every run makes at least, however short `--seconds` is: two,
/// so the exact counts can be compared, and so the traced run has one
/// pass with the tracer off and one with it on.
pub const MIN_PASSES: usize = 2;

/// Seeded edge lists per `speculative` pass: enough that one seed's
/// lists run at close to another's host cost per task.
const MST_LISTS: u64 = 12;

/// Metric names and units.
type Table = [(&'static str, &'static str)];

/// The end-to-end metrics, measured with tracing off, and their units.
/// Only metrics that hold steady across seeds on every workload are
/// here; see [`HEADLINE`].
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("peak_rss_mb", "MB"),
];

/// Every workload's user-facing figures, printed with units by every
/// untraced run. The seeded inputs change how much simulated work a pass
/// holds, and how many of its cycles the event wheel skips, by 20–40%
/// from seed to seed on `road` and `speculative`; so the figures that
/// scale with cycles or with the size of an op are gated as per-layer
/// metrics, and host speed is gated as retired tasks per second.
pub const HEADLINE: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("cells_per_s", "cells/s"),
    ("roundtrip_p50_ms", "ms"),
    ("roundtrip_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
];

/// The per-layer metrics of the traced run, and their units.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("cells_per_s", "cells/s"),
    ("roundtrip_p50_ms", "ms"),
    ("roundtrip_p90_ms", "ms"),
    ("sim_cycles", "cycles"),
    ("apps.gen_ms", "ms"),
    ("apps.build_ms", "ms"),
    ("apps.check_ms", "ms"),
    ("synth.ms", "ms"),
    ("check.lint_ms", "ms"),
    ("check.analysis_ms", "ms"),
    ("fabric.new_ms", "ms"),
    ("fabric.run_ms", "ms"),
    ("fabric.ns_per_cycle", "ns/cycle"),
    ("fabric.ns_per_stage_cycle", "ns/stage-cycle"),
    ("fabric.ns_per_task", "ns/task"),
    ("fabric.wheel_gain", "ratio"),
    ("sim.stage_cycles", "stage-cycles"),
    ("sim.busy_share", "share"),
    ("sim.stall_share", "share"),
    ("sim.idle_share", "share"),
    ("sim.retired", "tasks"),
    ("sim.squashes", "tasks"),
    ("sim.requeues", "tasks"),
    ("sim.bounces", "tasks"),
    ("sim.useful_ratio", "ratio"),
    ("queue.pushed", "tasks"),
    ("queue.peak", "entries"),
    ("rule.allocs", "count"),
    ("rule.nacks", "count"),
    ("rule.fires", "count"),
    ("rule.evictions", "count"),
    ("mem.reads", "count"),
    ("mem.writes", "count"),
    ("mem.hit_ratio", "ratio"),
    ("mem.qpi_bytes", "bytes"),
    ("mem.stall.bandwidth", "cycles"),
    ("sim.stall.miss_outstanding", "stage-cycles"),
    ("fault.injected", "count"),
    ("fault.link.retried", "count"),
    ("fault.watchdog.escalations", "count"),
    ("export.to_json_ms", "ms"),
    ("export.report_kb", "KiB"),
    ("campaign.plan_ms", "ms"),
    ("campaign.cell_p50_ms", "ms"),
    ("campaign.cell_p90_ms", "ms"),
    ("campaign.record_ms", "ms"),
    ("campaign.failed", "cells"),
    ("dispatch.steals", "count"),
    ("dispatch.peak_inflight", "cells"),
    ("dispatch.scaling", "ratio"),
    ("dispatch.busy_share", "share"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.render_ms", "ms"),
    ("snapshot.parse_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.kb", "KiB"),
    ("snapshot.pause_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Per-layer `*_ms` metrics taken from span self times: each is the
/// layer's mean self time per call.
const SPAN_METRICS: [(&str, &str); 16] = [
    ("apps.gen_ms", "apps.gen"),
    ("apps.build_ms", "apps.build"),
    ("apps.check_ms", "apps.check"),
    ("synth.ms", "synth"),
    ("check.lint_ms", "check.lint"),
    ("check.analysis_ms", "check.analysis"),
    ("fabric.new_ms", "fabric.new"),
    ("fabric.run_ms", "fabric.run"),
    ("export.to_json_ms", "export.to_json"),
    ("campaign.plan_ms", "campaign.plan"),
    ("campaign.record_ms", "campaign.record"),
    ("snapshot.encode_ms", "snapshot.encode"),
    ("snapshot.render_ms", "snapshot.render"),
    ("snapshot.parse_ms", "snapshot.parse"),
    ("snapshot.restore_ms", "snapshot.restore"),
    ("snapshot.pause_ms", "snapshot.pause"),
];

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `tiny` inputs, for the self-test.
    pub tiny: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The [`HEADLINE`] metrics (all but `peak_rss_mb`, which `main`
    /// adds), from untraced passes.
    pub headline: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<(&'static str, f64)>,
    /// Lines printed before the result: sample counts and the like.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts one failed op.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Sets (or overrides) one per-layer metric.
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.layers.push((name, value)),
        }
    }
}

/// Simulation work done by the `fabric.run` calls of traced ops, the
/// denominators of the tick loop's per-unit costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunWork {
    pub cycles: u64,
    pub stage_cycles: u64,
    pub tasks: u64,
}

impl RunWork {
    pub fn add(&mut self, c: &Counts) {
        self.cycles += c.cycles;
        self.stage_cycles += c.stage_cycles();
        self.tasks += c.retired;
    }
}

fn per(ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns as f64 / units as f64
    }
}

/// Every per-layer metric: span-derived times, the tick loop's per-unit
/// costs over traced ops (`work`), and the exact counts of one pass
/// (`counts`). Workloads fill in the rest with [`Outcome::set_layer`].
pub fn layer_metrics(tr: &Tracer, counts: &Counts, work: &RunWork) -> Vec<(&'static str, f64)> {
    let all = tr.self_times(false);
    let in_ops = tr.self_times(true);
    let run_ns = in_ops.get("fabric.run").map_or(0, |s| s.self_ns);
    let mut out: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .filter(|(n, _)| !HEADLINE.iter().any(|(h, _)| h == n))
        .map(|&(n, _)| (n, 0.0))
        .collect();
    let mut set = |name: &'static str, v: f64| {
        if let Some(slot) = out.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = v;
        }
    };
    for (metric, span) in SPAN_METRICS {
        set(metric, all.get(span).map_or(0.0, |s| s.mean_ms()));
    }
    set("fabric.ns_per_cycle", per(run_ns, work.cycles));
    set("fabric.ns_per_stage_cycle", per(run_ns, work.stage_cycles));
    set("fabric.ns_per_task", per(run_ns, work.tasks));
    for (name, v) in sim::count_metrics(counts) {
        set(name, v);
    }
    out
}

/// Runs `setup` `reps` times, dropping each result before the next
/// starts so every repetition begins from the same heap. Returns the
/// last result and the median set-up time in reference-speed seconds.
/// A long set-up calls [`Meter::lap`] between its steps.
pub fn repeat_setup<S>(reps: usize, mut setup: impl FnMut(&mut Meter) -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let mut meter = Meter::start();
        last = Some(setup(&mut meter));
        meter.lap();
        times.push(meter.scaled_s());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Runs measured passes until `opts.seconds` have elapsed, and at least
/// [`MIN_PASSES`]. `pass` gets the tracer to use: in the traced run
/// every second pass gets the armed tracer `tr`, the others a disarmed
/// one, so their wall times give the tracing overhead on the same ops.
/// Returns the untraced and the traced passes.
pub fn run_passes<P>(
    opts: &Opts,
    tr: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> P,
) -> (Vec<P>, Vec<P>) {
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut i = 0;
    while i < MIN_PASSES || t0.elapsed().as_secs_f64() < opts.seconds {
        if tr.is_on() && i % 2 == 1 {
            traced.push(pass(tr));
        } else {
            untraced.push(pass(&mut off));
        }
        i += 1;
    }
    (untraced, traced)
}

/// One line giving the run-to-run spread of a per-pass figure, so a
/// reader can see how noisy the host was during the run.
pub fn spread_note(name: &str, xs: &[f64]) -> String {
    let (lo, hi) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    format!(
        "{name} over {} passes: min={lo:.6e} median={:.6e} max={hi:.6e}",
        xs.len(),
        stats::median(xs)
    )
}

/// Notes the reference kernel's timings over the measured passes, from
/// each pass's scale factor, so a reader can see the host's speed.
pub fn scale_notes(out: &mut Outcome, scales: &[f64]) {
    let kernel_ms: Vec<f64> = scales.iter().map(|s| calib::REF_S / s * 1e3).collect();
    out.notes
        .push(spread_note("reference kernel ms", &kernel_ms));
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for `{flag}`: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--size" => {
                opts.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad(&"expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds < 0.0 {
        return Err(format!("bad --seconds {}", opts.seconds));
    }
    Ok(opts)
}

fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    let s = opts.seed;
    let (medium, small) = if opts.tiny {
        (Size::Tiny, Size::Tiny)
    } else {
        (Size::Medium, Size::Small)
    };
    Ok(match opts.workload.as_str() {
        // Two road networks per app, so that one seed's networks cost
        // close to another's per task. SPEC-BFS and COOR-BFS share each
        // network, as in the presets.
        "road" => {
            let apps: Vec<(&str, u64)> = (0..2)
                .flat_map(|k| {
                    [
                        ("SPEC-BFS", mix(s, 1 + 2 * k)),
                        ("COOR-BFS", mix(s, 1 + 2 * k)),
                        ("SPEC-SSSP", mix(s, 2 + 2 * k)),
                    ]
                })
                .collect();
            cells::run(opts, &apps, medium)
        }
        "speculative" => {
            let lists: Vec<(&str, u64)> = (0..MST_LISTS)
                .map(|k| ("SPEC-MST", mix(s, 10 + k)))
                .collect();
            cells::run(opts, &lists, small)
        }
        "sweep" => sweep::run(opts),
        "snapshot" => snapshot::run(opts, small),
        other => {
            return Err(format!(
                "unknown workload `{other}` (road, speculative, sweep, snapshot)"
            ))
        }
    })
}

fn spans_path(opts: &Opts) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed))
}

/// Prints the traced run's host-time table: every span name with its
/// calls, self time, and share of the traced wall time.
fn print_span_table(tr: &Tracer) {
    let st = tr.self_times(false);
    let total: u64 = st.values().map(|s| s.self_ns).sum();
    println!("host self time by span ({} spans):", tr.spans().len());
    println!(
        "  {:<20} {:>8} {:>12} {:>7}",
        "span", "calls", "self_ms", "share"
    );
    for (name, s) in &st {
        println!(
            "  {:<20} {:>8} {:>12.3} {:>6.1}%",
            name,
            s.calls,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / total.max(1) as f64
        );
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match run_workload(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let rss = match stats::peak_rss_mb() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(1);
        }
    };
    out.headline.push(("peak_rss_mb", rss));

    println!(
        "hostbench workload={} seed={} seconds={} trace={} size={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.tiny { "tiny" } else { "full" }
    );
    for n in &out.notes {
        println!("{n}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    println!("ops attempted={} failed={}", out.attempted, out.failed);
    if let Some(tr) = &out.tracer {
        print_span_table(tr);
        let path = spans_path(&opts);
        match tr.dump(&path) {
            Ok(()) => println!("span dump: {}", path.display()),
            Err(e) => {
                eprintln!("hostbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    let value = |name: &str| {
        out.headline
            .iter()
            .chain(&out.layers)
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let (shown, reported): (&Table, &Table) = if opts.trace {
        (&PER_LAYER, &PER_LAYER)
    } else {
        (&HEADLINE, &END_TO_END)
    };
    println!("{:<28} {:>18} unit", "metric", "value");
    for &(name, unit) in shown {
        println!("{name:<28} {:>18.6} {unit}", value(name));
    }
    let metrics: Vec<(&str, Json)> = reported
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value(name))), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    let complete = metrics.iter().all(|(_, m)| {
        m.get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
    });
    let result = Json::obj([
        ("correct", Json::Bool(out.failed == 0 && complete)),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
}
