//! The `sweep` workload: a Figure 10-shaped campaign through
//! `apir_campaign::run_campaign` on every available core, records
//! written as JSONL as the CLI writes them.
//!
//! The matrix is all six apps at `tiny` × QPI bandwidth points from
//! 0.01× to 4× of 7 GB/s × fault-free and chaos × four seeds derived
//! from the seed argument. The campaign engine builds each cell's inputs
//! itself (the `tiny` preset's fixed generator seeds), so the seed
//! argument reaches the cells through the plan's seeds, which drive the
//! chaos fault plans. Every cell is one op; every pass must write the
//! first pass's bytes. The reference kernel is timed before and after
//! each pass, and the pass's host time is scaled to the reference host
//! speed (`calib`).

use crate::calib::Meter;
use crate::sim::{split_gate, Case, Counts};
use crate::stats::{median, mix, quantile};
use crate::trace::Tracer;
use crate::{Opts, Outcome, RunWork};
use apir_bench::scale::{build_app, APP_NAMES};
use apir_campaign::engine::job_cfg;
use apir_campaign::{
    expand, parse_plan, record, run_campaign, CampaignPlan, Job, JobError, DEFAULT_INFLIGHT,
};
use apir_fabric::{Fabric, FabricReport};
use apir_util::jsonl::{parse_jsonl, JsonlWriter};
use apir_util::Json;
use std::time::Instant;

/// Plan seeds: enough that one seed's chaos cells cost close to
/// another's.
const PLAN_SEEDS: u64 = 4;

/// QPI bandwidth points as multiples of the HARP link's 7 GB/s.
const QPI_SCALES: [f64; 6] = [0.01, 0.1, 0.5, 1.0, 2.0, 4.0];

/// Set-up here is only the plan's parse and expansion, microseconds
/// long, so it is repeated many times.
const SETUP_REPS: usize = 51;

/// The campaign plan for `seed`; `dense` forces the dense scheduler in
/// every config (the wheel-gain probe). `tiny` keeps one bandwidth point
/// and one seed.
pub fn plan_text(seed: u64, tiny: bool, dense: bool) -> String {
    let scales: &[f64] = if tiny { &[1.0] } else { &QPI_SCALES };
    let seeds: Vec<u64> = (0..if tiny { 1 } else { PLAN_SEEDS })
        .map(|k| mix(seed, 100 + k) >> 32)
        .collect();
    let dense = if dense { ",\"dense_tick\":true" } else { "" };
    let mut configs = Vec::new();
    for x in scales {
        let gbps = 7.0 * x;
        configs.push(format!("{{\"id\":\"bw{x}x\",\"qpi_gbps\":{gbps}{dense}}}"));
        configs.push(format!(
            "{{\"id\":\"bw{x}x-chaos\",\"qpi_gbps\":{gbps},\"chaos\":true{dense}}}"
        ));
    }
    let apps: Vec<String> = APP_NAMES.iter().map(|a| format!("\"{a}\"")).collect();
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    format!(
        "{{\"schema\":\"apir.campaign.plan.v1\",\"scale\":\"tiny\",\"apps\":[{}],\"seeds\":[{}],\"configs\":[{}]}}",
        apps.join(","),
        seeds.join(","),
        configs.join(",")
    )
}

/// One campaign pass.
struct Pass {
    wall_s: f64,
    /// Factor from its wall time to reference-speed seconds.
    scale: f64,
    /// The JSONL stream.
    bytes: Vec<u8>,
    steals: usize,
    peak_inflight: usize,
    failed: u64,
}

/// Runs the campaign on `threads` workers, with the reference kernel
/// timed before and after.
fn campaign(plan: &CampaignPlan, threads: usize) -> Pass {
    let mut meter = Meter::start();
    let mut w = JsonlWriter::new(Vec::new());
    let t = Instant::now();
    let summary = run_campaign(plan, threads, DEFAULT_INFLIGHT, |r| {
        w.write(r).expect("writing to memory cannot fail")
    });
    let wall_s = t.elapsed().as_secs_f64();
    meter.op(wall_s);
    Pass {
        wall_s,
        scale: meter.scale(),
        bytes: w.finish().expect("flushing to memory cannot fail"),
        steals: summary.steals,
        peak_inflight: summary.peak_inflight,
        failed: summary.failed,
    }
}

/// Checks a pass's records; returns (verified cells, simulated cycles,
/// retired tasks).
fn verify(p: &Pass, out: &mut Outcome) -> (u64, u64, u64) {
    let text = String::from_utf8_lossy(&p.bytes);
    let records = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("campaign JSONL does not parse: {e}"));
            return (0, 0, 0);
        }
    };
    let (mut ok, mut cycles, mut tasks) = (0, 0, 0);
    for r in &records {
        out.attempted += 1;
        let status = r.get("status").and_then(Json::as_str);
        if status == Some("ok") {
            ok += 1;
            let report = r.get("report");
            cycles += report
                .and_then(|rep| rep.get("cycles"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            tasks += report
                .and_then(|rep| rep.get("retired"))
                .and_then(Json::as_arr)
                .map_or(0, |sets| sets.iter().filter_map(Json::as_u64).sum());
        } else {
            let msg = r
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("no message");
            out.fail(format!("campaign record has status error: {msg}"));
        }
    }
    (ok, cycles, tasks)
}

fn records(bytes: &[u8]) -> Vec<&[u8]> {
    bytes
        .split(|&c| c == b'\n')
        .filter(|l| !l.is_empty())
        .collect()
}

/// Counts a later pass's cells as ops; each record that differs from
/// the first pass's fails.
fn same_records(p: &Pass, first: &Pass, out: &mut Outcome) {
    let (ours, want) = (records(&p.bytes), records(&first.bytes));
    out.attempted += want.len() as u64;
    if ours.len() != want.len() {
        out.fail(format!(
            "a pass wrote {} records, the first pass {}",
            ours.len(),
            want.len()
        ));
    }
    for (x, y) in ours.iter().zip(&want) {
        if x != y {
            out.fail("a campaign record differs from the first pass's".to_string());
        }
    }
}

/// Re-runs one cell from the benchmark's own code with a span around
/// every layer call: the steps of `apir_campaign::run_job` (the app is
/// built, then `job_cfg` builds it again and synthesizes it), then the
/// drain thread's `record` + render.
fn replica_cell(tr: &mut Tracer, job: &Job) -> (String, Option<FabricReport>) {
    let app = tr.span("apps.build", |_| build_app(&job.app, job.scale));
    let cfg = tr.span("synth", |_| job_cfg(job, &app.input, &app.tune));
    let fabric = tr.span("fabric.new", |_| Fabric::new(&app.spec, &app.input, cfg));
    let outcome = match tr.span("fabric.run", |_| fabric.run()) {
        Err(e) => Err(JobError {
            kind: e.kind(),
            cycle: e.failure_cycle(),
            partial_report: e.partial_report_json().map(|d| d.render()),
            message: e.to_string(),
        }),
        Ok(report) => match tr.span("apps.check", |_| (app.check)(&report.mem_image)) {
            Ok(()) => Ok(report),
            Err(message) => Err(JobError {
                kind: "check",
                cycle: Some(report.cycles),
                message,
                partial_report: None,
            }),
        },
    };
    let line = tr.span("campaign.record", |_| record(job, &outcome).render());
    (line, outcome.ok())
}

/// A one-thread replica of a campaign pass.
struct Replica {
    /// Wall time scaled to the reference host speed.
    scaled_s: f64,
    /// Each cell's host seconds.
    cell_s: Vec<f64>,
    counts: Counts,
}

/// Re-runs every cell on this thread with [`replica_cell`]; each record
/// must equal the campaign's (`lines`).
fn replica(tr: &mut Tracer, jobs: &[Job], lines: &[&[u8]], out: &mut Outcome) -> Replica {
    let mut r = Replica {
        scaled_s: 0.0,
        cell_s: Vec::new(),
        counts: Counts::default(),
    };
    let mut meter = Meter::start();
    let t0 = Instant::now();
    for (k, job) in jobs.iter().enumerate() {
        tr.next_op();
        out.attempted += 1;
        let t = Instant::now();
        let (line, report) = tr.span("cell", |tr| replica_cell(tr, job));
        r.cell_s.push(t.elapsed().as_secs_f64());
        if lines.get(k).copied() != Some(line.as_bytes()) {
            out.fail(format!(
                "{}: replayed cell differs from the campaign record",
                job.key()
            ));
        }
        if let Some(rep) = report {
            let json = tr.span("export.to_json", |_| rep.to_json());
            r.counts.add(&rep, json.len());
        }
    }
    meter.op(t0.elapsed().as_secs_f64());
    r.scaled_s = meter.scaled_s();
    r
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let text = plan_text(opts.seed, opts.tiny, false);
    let (plan, setup_s) = crate::repeat_setup(SETUP_REPS, |_| {
        tr.span("campaign.plan", |_| {
            let plan = parse_plan(&text).expect("the generated plan is valid");
            std::hint::black_box(expand(&plan));
            plan
        })
    });
    out.notes
        .push(format!("threads={threads} cells_per_pass={}", plan.cells()));

    // Pass 0 is parsed and verified record by record; every later pass
    // must write the same bytes.
    let mut first: Option<(Pass, (u64, u64, u64))> = None;
    // The campaign's own threads carry no spans, so every pass runs
    // untraced; the traced run's split comes from the replica below.
    let (passes, _) = crate::run_passes(opts, &mut Tracer::new(false), |_| {
        let p = campaign(&plan, threads);
        let timing = (p.wall_s, p.scale);
        match &first {
            Some((f, _)) => same_records(&p, f, &mut out),
            None => {
                let verified = verify(&p, &mut out);
                first = Some((p, verified));
            }
        }
        timing
    });
    let (first, (ok_cells, cycles, tasks)) = first.expect("at least one pass");

    let walls: Vec<f64> = passes.iter().map(|&(w, _)| w).collect();
    let ref_walls: Vec<f64> = passes.iter().map(|&(w, scale)| w * scale).collect();
    let cells: Vec<f64> = ref_walls.iter().map(|w| ok_cells as f64 / w).collect();
    let rate: Vec<f64> = ref_walls.iter().map(|w| cycles as f64 / w).collect();
    let task_rate: Vec<f64> = ref_walls.iter().map(|w| tasks as f64 / w).collect();
    crate::scale_notes(
        &mut out,
        &passes.iter().map(|&(_, scale)| scale).collect::<Vec<_>>(),
    );
    out.notes.push(crate::spread_note(
        "raw tasks_per_s",
        &walls.iter().map(|w| tasks as f64 / w).collect::<Vec<_>>(),
    ));
    out.notes
        .push(crate::spread_note("tasks_per_s", &task_rate));
    let walls_ms: Vec<f64> = ref_walls.iter().map(|w| w * 1e3).collect();
    out.notes.push(format!(
        "passes={} latency_samples={}",
        walls.len(),
        walls_ms.len()
    ));
    out.headline = vec![
        ("setup_s", setup_s),
        ("tasks_per_s", median(&task_rate)),
        ("sim_cycles_per_s", median(&rate)),
        ("cells_per_s", median(&cells)),
        ("roundtrip_p50_ms", quantile(&walls_ms, 0.5)),
        ("roundtrip_p90_ms", quantile(&walls_ms, 0.9)),
        ("sim_cycles", cycles as f64),
    ];

    if tr.is_on() {
        // Per-cell breakdown: every cell re-run on one thread from the
        // benchmark's own code, untraced and then with spans around every
        // layer call. Each re-rendered record must equal the campaign's.
        let jobs = expand(&plan);
        let lines = records(&first.bytes);
        for app in APP_NAMES {
            if let Some(job) = jobs.iter().find(|j| j.app == app && !j.config.chaos) {
                let app = build_app(&job.app, job.scale);
                let cfg = job_cfg(job, &app.input, &app.tune);
                split_gate(&mut tr, &Case { app, cfg });
            }
        }
        let plain = replica(&mut Tracer::new(false), &jobs, &lines, &mut out);
        let traced = replica(&mut tr, &jobs, &lines, &mut out);
        let cell_ms: Vec<f64> = plain.cell_s.iter().map(|s| s * 1e3).collect();
        let busy_s: f64 = plain.cell_s.iter().sum();

        // Dispatcher scaling, then the wheel-gain probe: a campaign under
        // the wheel and the same one under the dense scheduler, back to
        // back, all scaled by the kernel. Every probe must write the first
        // pass's records.
        let one = campaign(&plan, 1);
        let wheel = campaign(&plan, threads);
        let dense_plan = parse_plan(&plan_text(opts.seed, opts.tiny, true)).expect("valid plan");
        let dense = campaign(&dense_plan, threads);
        let scaled = |p: &Pass| p.wall_s * p.scale;
        for p in [&one, &wheel, &dense] {
            same_records(p, &first, &mut out);
        }

        let mut work = RunWork::default();
        work.add(&traced.counts);
        out.layers = crate::layer_metrics(&tr, &plain.counts, &work);
        out.set_layer("campaign.cell_p50_ms", quantile(&cell_ms, 0.5));
        out.set_layer("campaign.cell_p90_ms", quantile(&cell_ms, 0.9));
        out.set_layer("campaign.failed", first.failed as f64);
        out.set_layer("dispatch.steals", first.steals as f64);
        out.set_layer("dispatch.peak_inflight", first.peak_inflight as f64);
        out.set_layer("dispatch.scaling", scaled(&one) / scaled(&wheel));
        out.set_layer(
            "dispatch.busy_share",
            busy_s / (threads as f64 * median(&walls)),
        );
        out.set_layer("fabric.wheel_gain", scaled(&dense) / scaled(&wheel));
        out.set_layer("trace.overhead", traced.scaled_s / plain.scaled_s);
        out.tracer = Some(tr);
    }
    out
}
