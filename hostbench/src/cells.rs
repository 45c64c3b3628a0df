//! The `road` and `speculative` workloads: a fixed list of seeded app
//! instances simulated one after another on one thread, pass after pass.
//!
//! A pass builds one fabric per instance (`Fabric::new`), then runs each
//! to completion in chunks of `Fabric::run_until`, through the app
//! checker, and `to_json`. Every instance is one op. Each pass's reports
//! must render to the same bytes as the first pass's, so every simulated
//! count repeats exactly. The reference kernel is timed between chunks,
//! and a pass's host times are scaled to the reference host speed
//! (`calib`).

use crate::calib::Meter;
use crate::sim::{self, build_case, split_gate, Case, Counts, Size};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Opts, Outcome, RunWork, SETUP_REPS};
use apir_fabric::Fabric;
use std::time::Instant;

/// A fabric ready to run, with the host seconds `Fabric::new` took.
type Built = Vec<(Fabric, f64)>;

fn build_fabrics(tr: &mut Tracer, cases: &[Case], dense: bool) -> Built {
    cases
        .iter()
        .map(|c| {
            let mut cfg = c.cfg.clone();
            cfg.dense_tick = dense;
            let t = Instant::now();
            let f = tr.span("fabric.new", |_| {
                Fabric::new(&c.app.spec, &c.app.input, cfg)
            });
            (f, t.elapsed().as_secs_f64())
        })
        .collect()
}

/// What one pass over every instance measured.
struct Pass {
    /// Host seconds of `Fabric::new` + run + check + `to_json`.
    wall_s: f64,
    /// Host seconds of run + check + `to_json` only.
    sim_s: f64,
    /// Factor from this pass's host seconds to reference-speed seconds.
    scale: f64,
    /// Per-op latency (ms), `Fabric::new` through `to_json`.
    latencies_ms: Vec<f64>,
    /// Rendered reports (an error text for a failed op).
    reports: Vec<String>,
    counts: Counts,
}

/// One pass over every instance; `metered` runs each in chunks with the
/// reference kernel timed between them (`sim::finish`).
fn pass(tr: &mut Tracer, cases: &[Case], built: Built, out: &mut Outcome, metered: bool) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        sim_s: 0.0,
        scale: 1.0,
        latencies_ms: Vec::new(),
        reports: Vec::new(),
        counts: Counts::default(),
    };
    let mut meter = metered.then(Meter::start);
    for (case, (fabric, new_s)) in cases.iter().zip(built) {
        tr.next_op();
        out.attempted += 1;
        match tr.span("cell", |tr| sim::finish(tr, case, fabric, meter.as_mut())) {
            Ok(cell) => {
                p.wall_s += new_s + cell.sim_s;
                p.sim_s += cell.sim_s;
                p.latencies_ms.push((new_s + cell.sim_s) * 1e3);
                p.counts.add(&cell.report, cell.json.len());
                p.reports.push(cell.json);
            }
            Err(e) => {
                out.fail(e.clone());
                p.reports.push(e);
            }
        }
    }
    p.scale = meter.map_or(1.0, |m| m.scale());
    p
}

/// Runs the workload over `apps` (name, input seed) at `size`.
pub fn run(opts: &Opts, apps: &[(&'static str, u64)], size: Size) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);

    let ((cases, built), setup_s) = crate::repeat_setup(SETUP_REPS, |_| {
        let cases: Vec<Case> = apps
            .iter()
            .map(|&(name, seed)| build_case(&mut tr, name, size, seed, None))
            .collect();
        let built = build_fabrics(&mut tr, &cases, false);
        (cases, built)
    });
    if tr.is_on() {
        for c in &cases {
            split_gate(&mut tr, c);
        }
    }

    // Pass 0 runs the fabrics the set-up built. Every pass must render
    // the first pass's bytes, so every simulated count repeats exactly.
    let mut next = Some(built);
    let mut first: Option<Vec<String>> = None;
    let (untraced, traced) = crate::run_passes(opts, &mut tr, |t| {
        let built = match next.take() {
            Some(b) => b,
            None => build_fabrics(t, &cases, false),
        };
        let mut p = pass(t, &cases, built, &mut out, true);
        let reports = std::mem::take(&mut p.reports);
        match &first {
            None => first = Some(reports),
            Some(f) if *f != reports => {
                out.attempted += 1;
                out.fail("a pass's reports differ from the first pass's".to_string());
            }
            Some(_) => {}
        }
        p
    });

    let first = first.expect("MIN_PASSES > 0");
    for (case, ms) in cases.iter().zip(&untraced[0].latencies_ms) {
        out.notes.push(format!("op {}: {ms:.1} ms", case.app.name));
    }
    let counts = untraced[0].counts.clone();
    let per_ref_s = |n: fn(&Pass) -> (u64, f64)| -> Vec<f64> {
        untraced
            .iter()
            .map(|p| {
                let (count, host_s) = n(p);
                count as f64 / (host_s * p.scale)
            })
            .collect()
    };
    let rate = per_ref_s(|p| (p.counts.cycles, p.sim_s));
    let tasks = per_ref_s(|p| (p.counts.retired, p.sim_s));
    let cells = per_ref_s(|p| (p.counts.reports, p.wall_s));
    crate::scale_notes(
        &mut out,
        &untraced.iter().map(|p| p.scale).collect::<Vec<_>>(),
    );
    out.notes.push(crate::spread_note(
        "raw tasks_per_s",
        &untraced
            .iter()
            .map(|p| p.counts.retired as f64 / p.sim_s)
            .collect::<Vec<_>>(),
    ));
    out.notes.push(crate::spread_note("tasks_per_s", &tasks));
    let lat: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.latencies_ms.iter().map(move |ms| ms * p.scale))
        .collect();
    out.notes.push(format!(
        "passes={} ops_per_pass={} latency_samples={}",
        untraced.len() + traced.len(),
        cases.len(),
        lat.len()
    ));
    out.headline = vec![
        ("setup_s", setup_s),
        ("tasks_per_s", median(&tasks)),
        ("sim_cycles_per_s", median(&rate)),
        ("cells_per_s", median(&cells)),
        ("roundtrip_p50_ms", quantile(&lat, 0.5)),
        ("roundtrip_p90_ms", quantile(&lat, 0.9)),
        ("sim_cycles", counts.cycles as f64),
    ];

    if tr.is_on() {
        // Whole runs, then the event-wheel probe: the chunked passes again
        // under the dense scheduler. Both must render the passes' bytes.
        let off = &mut Tracer::new(false);
        let built = build_fabrics(off, &cases, false);
        let whole = pass(off, &cases, built, &mut out, false);
        let built = build_fabrics(off, &cases, true);
        let dense = pass(off, &cases, built, &mut out, true);
        if whole.reports != first {
            out.attempted += 1;
            out.fail("whole runs' reports differ from the chunked runs'".to_string());
        }
        if dense.reports != first {
            out.attempted += 1;
            out.fail("dense-tick reports differ from the event wheel's".to_string());
        }
        let scaled = |ps: &[Pass], host_s: fn(&Pass) -> f64| {
            median(&ps.iter().map(|p| host_s(p) * p.scale).collect::<Vec<_>>())
        };
        let wheel_sim = scaled(&untraced, |p| p.sim_s);
        let mut work = RunWork::default();
        for p in &traced {
            work.add(&p.counts);
        }
        out.layers = crate::layer_metrics(&tr, &counts, &work);
        out.set_layer("fabric.wheel_gain", dense.sim_s * dense.scale / wheel_sim);
        out.set_layer(
            "trace.overhead",
            scaled(&traced, |p| p.wall_s) / scaled(&untraced, |p| p.wall_s),
        );
        out.tracer = Some(tr);
    }
    out
}
