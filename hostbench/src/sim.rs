//! Seeded app instances, one verified simulation ("cell"), and the exact
//! simulated counts read back from its report.

use crate::calib::Meter;
use crate::trace::Tracer;
use apir_apps::{bfs, dmr, lu, mst, sssp, AppInstance};
use apir_bench::experiments::scale_cache;
use apir_fabric::{Fabric, FabricConfig, FabricError, FabricReport, FaultConfig, RunSplit};
use apir_sim::metrics::{MetricValue, MetricsSnapshot};
use apir_synth::flow::{synthesize, SynthesisTarget};
use apir_workloads::delaunay::Mesh;
use apir_workloads::gen;
use apir_workloads::sparse::BlockPattern;
use std::sync::Arc;
use std::time::Instant;

/// Input sizes. `Small` and `Medium` are the `small` / `medium` presets
/// of `apir_bench::scale::Scale`; `Tiny` is its `tiny` preset, used by
/// the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Tiny,
    Small,
    Medium,
}

impl Size {
    fn bfs_side(self) -> usize {
        match self {
            Size::Tiny => 8,
            Size::Small => 24,
            Size::Medium => 48,
        }
    }

    fn sssp_side(self) -> usize {
        match self {
            Size::Tiny => 7,
            Size::Small => 20,
            Size::Medium => 40,
        }
    }

    fn mst_size(self) -> (usize, usize) {
        match self {
            Size::Tiny => (40, 120),
            Size::Small => (200, 600),
            Size::Medium => (600, 2_000),
        }
    }

    fn dmr_points(self) -> usize {
        match self {
            Size::Tiny => 16,
            Size::Small => 60,
            Size::Medium => 160,
        }
    }

    fn lu_size(self) -> (usize, usize) {
        match self {
            Size::Tiny => (3, 4),
            Size::Small => (5, 8),
            Size::Medium => (8, 12),
        }
    }
}

/// An app built from generated inputs, with the fabric configuration it
/// runs under.
pub struct Case {
    pub app: AppInstance,
    pub cfg: FabricConfig,
}

/// Generates `name`'s input at `size` from `seed`, builds the app, and
/// synthesizes its configuration (the HARP defaults: 64 KB cache,
/// 7 GB/s QPI), scaled and tuned as the experiments do. `chaos` arms
/// the seeded fault-injection preset.
pub fn build_case(tr: &mut Tracer, name: &str, size: Size, seed: u64, chaos: Option<u64>) -> Case {
    let app = match name {
        "SPEC-BFS" | "COOR-BFS" => {
            let side = size.bfs_side();
            let g = tr.span("apps.gen", |_| gen::road_network(side, side, 0.93, 8, seed));
            let variant = if name == "SPEC-BFS" {
                bfs::BfsVariant::Spec
            } else {
                bfs::BfsVariant::Coor
            };
            tr.span("apps.build", |_| bfs::build(Arc::new(g), 0, variant))
        }
        "SPEC-SSSP" => {
            let side = size.sssp_side();
            let g = tr.span("apps.gen", |_| {
                gen::road_network(side, side, 0.93, 16, seed)
            });
            tr.span("apps.build", |_| sssp::build(Arc::new(g), 0))
        }
        "SPEC-MST" => {
            let (n, m) = size.mst_size();
            let edges = tr.span("apps.gen", |_| gen::edge_list_distinct_weights(n, m, seed));
            tr.span("apps.build", |_| mst::build(n, Arc::new(edges)))
        }
        "SPEC-DMR" => {
            let mesh = tr.span("apps.gen", |_| Mesh::random(size.dmr_points(), seed));
            tr.span("apps.build", |_| dmr::build(Arc::new(mesh), 21.0))
        }
        "COOR-LU" => {
            let (nb, bs) = size.lu_size();
            let pattern = tr.span("apps.gen", |_| BlockPattern::random(nb, 0.4, seed));
            tr.span("apps.build", |_| lu::build(&pattern, bs, seed))
        }
        other => panic!("unknown app `{other}`"),
    };
    let design = tr.span("synth", |_| {
        synthesize(
            &app.spec,
            FabricConfig::default(),
            SynthesisTarget::default(),
        )
    });
    let mut cfg = design.cfg;
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    if let Some(s) = chaos {
        cfg.faults = FaultConfig::chaos(s);
    }
    Case { app, cfg }
}

/// Times the lint pass and the semantic analysis that `Fabric::new` runs
/// internally, as separate calls on the same inputs, so the traced run
/// can split `Fabric::new`'s cost.
pub fn split_gate(tr: &mut Tracer, case: &Case) {
    let lint = tr.span("check.lint", |_| {
        apir_core::check::check_all(&case.app.spec)
    });
    let analysis = tr.span("check.analysis", |_| {
        apir_fabric::analyze_config(&case.cfg, &case.app.spec, &case.app.input)
    });
    std::hint::black_box((lint, analysis));
}

/// Simulated cycles between two timings of the reference kernel in a
/// metered run: a few hundred host milliseconds, so the kernel follows
/// the host's speed through a run that lasts seconds.
const CHUNK_CYCLES: u64 = 50_000;

/// A verified simulation: the report, its rendered JSON, and the host
/// seconds of `Fabric::run` + checker + `to_json`.
pub struct Cell {
    pub report: FabricReport,
    pub json: String,
    pub sim_s: f64,
}

/// Builds a fabric for `case` under `cfg` (timed apart as
/// `fabric.new`) and runs it through the checker and the exporter.
pub fn run_cell(tr: &mut Tracer, case: &Case, cfg: FabricConfig) -> Result<Cell, String> {
    let fabric = tr.span("fabric.new", |_| {
        Fabric::new(&case.app.spec, &case.app.input, cfg)
    });
    finish(tr, case, fabric, None)
}

/// Runs an already built (or restored) fabric to completion, checks the
/// final memory image, and renders the report. With a `meter`, the run
/// goes [`CHUNK_CYCLES`] at a time through `Fabric::run_until`, and the
/// meter times the reference kernel after every chunk and after the
/// check and export; the kernel's time is not in `sim_s`.
pub fn finish(
    tr: &mut Tracer,
    case: &Case,
    fabric: Fabric,
    mut meter: Option<&mut Meter>,
) -> Result<Cell, String> {
    let mut sim_s = 0.0;
    // Adds the host seconds since `t` to `sim_s`, then lets the meter
    // time the kernel.
    let mut lap = |t: Instant, meter: &mut Option<&mut Meter>| {
        let host_s = t.elapsed().as_secs_f64();
        sim_s += host_s;
        if let Some(m) = meter {
            m.op(host_s);
        }
    };
    let chunk = meter.is_some().then_some(CHUNK_CYCLES);
    let mut fabric = fabric;
    let mut target = 0;
    let run = loop {
        let t = Instant::now();
        let split = match chunk {
            None => tr
                .span("fabric.run", |_| fabric.run())
                .map(|r| RunSplit::Done(Box::new(r))),
            Some(cycles) => {
                target += cycles;
                tr.span("fabric.run", |_| fabric.run_until(target))
            }
        };
        lap(t, &mut meter);
        match split {
            Ok(RunSplit::Paused(f)) => fabric = *f,
            Ok(RunSplit::Done(r)) => break Ok(*r),
            Err(e) => break Err(e),
        }
    };
    let report = run.map_err(|e: FabricError| format!("{}: fabric failed: {e}", case.app.name))?;
    let t = Instant::now();
    let checked = tr.span("apps.check", |_| (case.app.check)(&report.mem_image));
    let json = tr.span("export.to_json", |_| report.to_json());
    lap(t, &mut meter);
    checked.map_err(|e| format!("{}: checker rejected the result: {e}", case.app.name))?;
    Ok(Cell {
        report,
        json,
        sim_s,
    })
}

/// Exact simulated counts, summed over reports. Host speed-ups must
/// leave every field unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub reports: u64,
    pub report_bytes: u64,
    pub cycles: u64,
    pub busy: u64,
    pub stall: u64,
    pub idle: u64,
    pub retired: u64,
    pub squashes: u64,
    pub requeues: u64,
    pub bounces: u64,
    pub queue_pushed: u64,
    pub queue_peak: u64,
    pub rule_allocs: u64,
    pub rule_nacks: u64,
    pub rule_fires: u64,
    pub rule_evictions: u64,
    pub mem_reads: u64,
    pub mem_writes: u64,
    pub mem_hits: u64,
    pub mem_misses: u64,
    pub qpi_bytes: u64,
    pub mem_stall_bandwidth: u64,
    pub stall_miss_outstanding: u64,
    pub fault_injected: u64,
    pub fault_link_retried: u64,
    pub fault_watchdog_escalations: u64,
}

fn counter(m: &MetricsSnapshot, key: &str) -> u64 {
    m.counter(key).unwrap_or(0)
}

/// Sums the counters `<prefix><anything><suffix>` (e.g. every
/// `queue.*.pushed`).
fn sum_matching(m: &MetricsSnapshot, prefix: &str, suffix: &str) -> u64 {
    m.entries()
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

impl Counts {
    /// Adds one report (`json_len`: its rendered size in bytes).
    pub fn add(&mut self, r: &FabricReport, json_len: usize) {
        let m = &r.metrics;
        self.reports += 1;
        self.report_bytes += json_len as u64;
        self.cycles += r.cycles;
        self.busy += counter(m, "fabric.busy");
        self.stall += counter(m, "fabric.stall");
        self.idle += counter(m, "fabric.idle");
        self.retired += sum_matching(m, "fabric.retired.", "");
        self.squashes += counter(m, "fabric.squashes");
        self.requeues += counter(m, "fabric.requeues");
        self.bounces += counter(m, "fabric.bounces");
        self.queue_pushed += sum_matching(m, "queue.", ".pushed");
        let peak = m
            .entries()
            .iter()
            .filter(|(k, _)| k.starts_with("queue.") && k.ends_with(".peak"))
            .map(|(_, v)| match v {
                MetricValue::Gauge(g) => *g as u64,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        self.queue_peak = self.queue_peak.max(peak);
        self.rule_allocs += sum_matching(m, "rule.", ".allocs");
        self.rule_nacks += sum_matching(m, "rule.", ".nacks");
        self.rule_fires += sum_matching(m, "rule.", ".clause_fires")
            + sum_matching(m, "rule.", ".otherwise_fires");
        self.rule_evictions += sum_matching(m, "rule.", ".evictions");
        self.mem_reads += counter(m, "mem.reads");
        self.mem_writes += counter(m, "mem.writes");
        self.mem_hits += counter(m, "mem.hits");
        self.mem_misses += counter(m, "mem.misses");
        self.qpi_bytes += counter(m, "mem.qpi_bytes");
        self.mem_stall_bandwidth += counter(m, "mem.stall.bandwidth");
        self.stall_miss_outstanding += counter(m, "fabric.stall.miss_outstanding");
        self.fault_injected += counter(m, "fault.mem.soft_injected")
            + counter(m, "fault.link.dropped")
            + counter(m, "fault.link.late")
            + counter(m, "fault.lane.masked")
            + counter(m, "fault.bank.masked");
        self.fault_link_retried += counter(m, "fault.link.retried");
        self.fault_watchdog_escalations += counter(m, "fault.watchdog.escalations");
    }

    /// Stage-cycles: busy + stalled + idle, over every pipeline stage.
    pub fn stage_cycles(&self) -> u64 {
        self.busy + self.stall + self.idle
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer rows derived from exact counts.
pub fn count_metrics(c: &Counts) -> Vec<(&'static str, f64)> {
    let sc = c.stage_cycles();
    vec![
        ("sim.stage_cycles", sc as f64),
        ("sim.busy_share", share(c.busy, sc)),
        ("sim.stall_share", share(c.stall, sc)),
        ("sim.idle_share", share(c.idle, sc)),
        ("sim.retired", c.retired as f64),
        ("sim.squashes", c.squashes as f64),
        ("sim.requeues", c.requeues as f64),
        ("sim.bounces", c.bounces as f64),
        ("sim.useful_ratio", share(c.retired, c.retired + c.squashes)),
        ("queue.pushed", c.queue_pushed as f64),
        ("queue.peak", c.queue_peak as f64),
        ("rule.allocs", c.rule_allocs as f64),
        ("rule.nacks", c.rule_nacks as f64),
        ("rule.fires", c.rule_fires as f64),
        ("rule.evictions", c.rule_evictions as f64),
        ("mem.reads", c.mem_reads as f64),
        ("mem.writes", c.mem_writes as f64),
        (
            "mem.hit_ratio",
            share(c.mem_hits, c.mem_hits + c.mem_misses),
        ),
        ("mem.qpi_bytes", c.qpi_bytes as f64),
        ("mem.stall.bandwidth", c.mem_stall_bandwidth as f64),
        (
            "sim.stall.miss_outstanding",
            c.stall_miss_outstanding as f64,
        ),
        ("fault.injected", c.fault_injected as f64),
        ("fault.link.retried", c.fault_link_retried as f64),
        (
            "fault.watchdog.escalations",
            c.fault_watchdog_escalations as f64,
        ),
        (
            "export.report_kb",
            if c.reports == 0 {
                0.0
            } else {
                c.report_bytes as f64 / c.reports as f64 / 1024.0
            },
        ),
    ]
}
