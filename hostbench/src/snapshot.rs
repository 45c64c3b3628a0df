//! The `snapshot` workload: chained checkpoint round trips.
//!
//! Sources are fabrics paused early, mid and late (10%, 50% and 90% of
//! the uninterrupted run's cycles) in all six apps at the `small`
//! preset, fault-free and under chaos. One round trip is
//! `Fabric::snapshot` → `Json::render` → `apir_util::json::parse` →
//! `Fabric::restore`; a chain feeds each restored fabric into the next
//! round trip, so every round trip also checks that the previous
//! restored fabric re-snapshots to the same bytes. A chain ends by
//! running its last restored fabric to completion, whose report must
//! render exactly as the uninterrupted run's did. Round trips and chain
//! ends are the ops. The reference kernel is timed between chains, and a
//! pass's host times are scaled to the reference host speed (`calib`).

use crate::calib::Meter;
use crate::sim::{self, build_case, split_gate, Case, Counts, Size};
use crate::stats::{median, mix, quantile};
use crate::trace::Tracer;
use crate::{Opts, Outcome, RunWork};
use apir_bench::scale::APP_NAMES;
use apir_fabric::{Fabric, FabricConfig, FaultConfig, RunSplit};
use apir_util::Json;
use std::time::Instant;

/// Round trips per chain: 36 sources × 3 = 108 per pass.
const CHAIN: usize = 3;

/// Pause points as fractions of the uninterrupted run's cycles.
const PAUSES: [f64; 3] = [0.1, 0.5, 0.9];

/// Set-up repetitions: set-up here includes every source's runs, so it
/// is repeated fewer times than elsewhere.
const SETUP_REPS: usize = 3;

/// A paused fabric to start chains from.
struct Source {
    app: usize,
    cfg: FabricConfig,
    fabric: Box<Fabric>,
    /// The cycle the fabric paused at.
    paused_at: u64,
    /// Tasks it had retired by then.
    retired_at: u64,
    /// Its snapshot, rendered.
    text: String,
    /// The uninterrupted run's rendered report.
    reference: String,
}

struct Setup {
    apps: Vec<Case>,
    sources: Vec<Source>,
}

/// Builds every source; `meter` laps after every run.
fn setup(tr: &mut Tracer, seed: u64, size: Size, out: &mut Outcome, meter: &mut Meter) -> Setup {
    let mut apps = Vec::new();
    let mut sources = Vec::new();
    for (a, name) in APP_NAMES.iter().enumerate() {
        let case = build_case(tr, name, size, mix(seed, 20 + a as u64), None);
        for chaos in [None, Some(mix(seed, 40 + a as u64))] {
            let mut cfg = case.cfg.clone();
            if let Some(s) = chaos {
                cfg.faults = FaultConfig::chaos(s);
            }
            let cell = match sim::run_cell(tr, &case, cfg.clone()) {
                Ok(c) => c,
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("uninterrupted run: {e}"));
                    continue;
                }
            };
            meter.lap();
            for frac in PAUSES {
                let at = (cell.report.cycles as f64 * frac) as u64;
                let f = tr.span("fabric.new", |_| {
                    Fabric::new(&case.app.spec, &case.app.input, cfg.clone())
                });
                match tr.span("snapshot.pause", |_| f.run_until(at)) {
                    Ok(RunSplit::Paused(fabric)) => {
                        let doc = fabric.snapshot();
                        let retired_at = doc
                            .get("core")
                            .and_then(|c| c.get("retired"))
                            .and_then(Json::as_arr)
                            .map_or(0, |sets| sets.iter().filter_map(Json::as_u64).sum());
                        sources.push(Source {
                            app: a,
                            cfg: cfg.clone(),
                            paused_at: doc.get("cycle").and_then(Json::as_u64).unwrap_or(at),
                            retired_at,
                            text: doc.render(),
                            fabric,
                            reference: cell.json.clone(),
                        })
                    }
                    Ok(RunSplit::Done(_)) => {
                        out.attempted += 1;
                        out.fail(format!("{name}: finished before pause cycle {at}"));
                    }
                    Err(e) => {
                        out.attempted += 1;
                        out.fail(format!("{name}: failed before pause cycle {at}: {e}"));
                    }
                }
                meter.lap();
            }
        }
        apps.push(case);
    }
    Setup { apps, sources }
}

/// One pass: a chain from every source.
#[derive(Default)]
struct Pass {
    /// Host seconds of the chains, reference kernel and checks excluded.
    wall_s: f64,
    /// Factor from this pass's host seconds to reference-speed seconds.
    scale: f64,
    /// Cycles the chain ends simulated, from their pause points on.
    cycles: u64,
    /// Tasks the chain ends retired, from their pause points on.
    tasks: u64,
    chains: u64,
    roundtrip_ms: Vec<f64>,
    snapshot_bytes: u64,
    counts: Counts,
}

fn pass(tr: &mut Tracer, s: &Setup, out: &mut Outcome) -> Pass {
    let mut p = Pass::default();
    let mut meter = Meter::start();
    for src in &s.sources {
        chain(tr, &s.apps[src.app], src, out, &mut p, &mut meter);
    }
    p.scale = meter.scale();
    p
}

/// One chain of round trips from `src`, then its finish. The meter
/// times the reference kernel after the round trips and through the
/// finishing run; `p.wall_s` gets the chain's host time without it.
fn chain(
    tr: &mut Tracer,
    case: &Case,
    src: &Source,
    out: &mut Outcome,
    p: &mut Pass,
    meter: &mut Meter,
) {
    let mut roundtrips_s = 0.0;
    let mut prev_text: Option<String> = None;
    let mut fabric: Option<Fabric> = None;
    for _ in 0..CHAIN {
        tr.next_op();
        out.attempted += 1;
        let t = Instant::now();
        let step = tr.span("roundtrip", |tr| {
            let from = fabric.as_ref().unwrap_or(&src.fabric);
            let doc = tr.span("snapshot.encode", |_| from.snapshot());
            let text = tr.span("snapshot.render", |_| doc.render());
            let parsed = tr
                .span("snapshot.parse", |_| apir_util::json::parse(&text))
                .map_err(|e| format!("snapshot does not parse: {e}"))?;
            let restored = tr.span("snapshot.restore", |_| {
                Fabric::restore(&case.app.spec, &case.app.input, src.cfg.clone(), &parsed)
            })?;
            Ok::<_, String>((text, restored))
        });
        let roundtrip_s = t.elapsed().as_secs_f64();
        roundtrips_s += roundtrip_s;
        p.roundtrip_ms.push(roundtrip_s * 1e3);
        let (text, restored) = match step {
            Ok(v) => v,
            Err(e) => {
                out.fail(format!("{}: round trip failed: {e}", case.app.name));
                return;
            }
        };
        // The fabric this round trip encoded must re-snapshot to the
        // bytes its source had.
        if text != *prev_text.as_ref().unwrap_or(&src.text) {
            out.fail(format!(
                "{}: restored fabric re-snapshots to different bytes",
                case.app.name
            ));
        }
        p.snapshot_bytes += text.len() as u64;
        prev_text = Some(text);
        fabric = Some(restored);
    }
    meter.op(roundtrips_s);
    p.wall_s += roundtrips_s;
    // The last round trip's fabric is checked here, not by a next one.
    let last = fabric.expect("CHAIN > 0");
    if last.snapshot().render() != src.text {
        out.fail(format!(
            "{}: restored fabric re-snapshots to different bytes",
            case.app.name
        ));
    }
    tr.next_op();
    out.attempted += 1;
    let finished = tr.span("cell", |tr| sim::finish(tr, case, last, Some(meter)));
    if let Ok(cell) = &finished {
        p.wall_s += cell.sim_s;
    }
    match finished {
        Ok(cell) if cell.json == src.reference => {
            p.cycles += cell.report.cycles - src.paused_at;
            p.tasks += cell.report.total_retired() - src.retired_at;
            p.chains += 1;
            p.counts.add(&cell.report, cell.json.len());
        }
        Ok(_) => out.fail(format!(
            "{}: chain finished with a report that differs from the uninterrupted run's",
            case.app.name
        )),
        Err(e) => out.fail(e),
    }
}

pub fn run(opts: &Opts, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);

    let (s, setup_s) =
        crate::repeat_setup(SETUP_REPS, |m| setup(&mut tr, opts.seed, size, &mut out, m));
    if tr.is_on() {
        for c in &s.apps {
            split_gate(&mut tr, c);
        }
    }
    out.notes.push(format!(
        "sources={} round_trips_per_pass={}",
        s.sources.len(),
        s.sources.len() * CHAIN
    ));

    let (untraced, traced) = crate::run_passes(opts, &mut tr, |t| pass(t, &s, &mut out));
    for p in untraced.iter().chain(&traced).skip(1) {
        if p.counts != untraced[0].counts
            || (p.cycles, p.tasks) != (untraced[0].cycles, untraced[0].tasks)
        {
            out.attempted += 1;
            out.fail("a pass's simulated counts differ from the first pass's".to_string());
        }
    }

    let rt: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.roundtrip_ms.iter().map(move |ms| ms * p.scale))
        .collect();
    let per_ref_s = |n: fn(&Pass) -> u64| -> Vec<f64> {
        untraced
            .iter()
            .map(|p| n(p) as f64 / (p.wall_s * p.scale))
            .collect()
    };
    let rate = per_ref_s(|p| p.cycles);
    let tasks = per_ref_s(|p| p.tasks);
    let chains = per_ref_s(|p| p.chains);
    crate::scale_notes(
        &mut out,
        &untraced.iter().map(|p| p.scale).collect::<Vec<_>>(),
    );
    out.notes.push(crate::spread_note(
        "raw tasks_per_s",
        &untraced
            .iter()
            .map(|p| p.tasks as f64 / p.wall_s)
            .collect::<Vec<_>>(),
    ));
    out.notes.push(crate::spread_note("tasks_per_s", &tasks));
    out.notes.push(format!(
        "passes={} roundtrip_samples={}",
        untraced.len() + traced.len(),
        rt.len()
    ));
    out.headline = vec![
        ("setup_s", setup_s),
        ("tasks_per_s", median(&tasks)),
        ("sim_cycles_per_s", median(&rate)),
        ("cells_per_s", median(&chains)),
        ("roundtrip_p50_ms", quantile(&rt, 0.5)),
        ("roundtrip_p90_ms", quantile(&rt, 0.9)),
        ("sim_cycles", untraced[0].cycles as f64),
    ];

    if tr.is_on() {
        let first = &untraced[0];
        let work = RunWork {
            cycles: traced.iter().map(|p| p.cycles).sum(),
            ..RunWork::default()
        };
        let scaled_wall =
            |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s * p.scale).collect::<Vec<_>>());
        out.layers = crate::layer_metrics(&tr, &first.counts, &work);
        out.set_layer(
            "snapshot.kb",
            first.snapshot_bytes as f64 / first.roundtrip_ms.len().max(1) as f64 / 1024.0,
        );
        out.set_layer(
            "trace.overhead",
            scaled_wall(&traced) / scaled_wall(&untraced),
        );
        out.tracer = Some(tr);
    }
    out
}
