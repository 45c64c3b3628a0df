//! The experiments: one function per table/figure.

use crate::scale::{bfs_graph, build_app, AppInstance, Scale, APP_NAMES};
use apir_apps::bfs::BfsVariant;
use apir_core::{ProgramInput, Spec};
use apir_fabric::{estimate_resources, Fabric, FabricConfig, FabricReport};
use apir_runtime::vcore::VcoreModel;
use apir_synth::flow::{synthesize, SynthesisTarget};
use apir_synth::hls::HlsBfsModel;
use apir_workloads::gen;
use std::fmt::Write as _;
use std::sync::Arc;

/// Base fabric configuration used by all experiments (HARP defaults).
pub fn base_cfg() -> FabricConfig {
    FabricConfig::default()
}

/// Scales the FPGA-side cache so the cache:working-set ratio resembles
/// the paper's setup (64 KB against hundreds of MB of road graph —
/// misses, not hits, dominate). Without this, simulator-scale inputs fit
/// entirely in a 64 KB cache and the Figure 10 bandwidth sweep is flat.
/// Documented in EXPERIMENTS.md.
pub fn scale_cache(cfg: &mut FabricConfig, input: &ProgramInput) {
    let ws_bytes = input.mem.flat_words() * 8;
    let kb = (ws_bytes / 256 / 1024).clamp(1, 64) as usize;
    cfg.mem.cache_kb = kb;
}

/// The configuration an app runs under: the accelerator synthesized from
/// `spec` on the base fabric ([`base_cfg`], [`SynthesisTarget::default`]),
/// its cache scaled to `input` ([`scale_cache`]), then the app's `tune`
/// hook. Every runner of a builtin app starts here: the figures,
/// `apir-trace`, `apir-lint --analyze`, campaign cells and the tests.
pub fn app_cfg(
    spec: &Spec,
    input: &ProgramInput,
    tune: &dyn Fn(&mut FabricConfig),
) -> FabricConfig {
    let mut cfg = synthesize(spec, base_cfg(), SynthesisTarget::default()).cfg;
    scale_cache(&mut cfg, input);
    tune(&mut cfg);
    cfg
}

/// Runs `app` under `cfg`, panicking if the result fails its checker
/// (every reported number comes from a *verified* run).
pub fn run_verified(app: &AppInstance, cfg: FabricConfig) -> FabricReport {
    let name = &app.name;
    let report = Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{name}: fabric failed: {e}"));
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: bad result: {e}"));
    report
}

/// Builds app `name` at `scale` and runs it verified under [`app_cfg`].
fn run_app(name: &str, scale: Scale) -> (AppInstance, FabricConfig, FabricReport) {
    let app = build_app(name, scale);
    let cfg = app_cfg(&app.spec, &app.input, &app.tune);
    let report = run_verified(&app, cfg.clone());
    (app, cfg, report)
}

/// Figure 2(b): schedule comparison on the toy 6-vertex graph of
/// Figure 2(a).
pub fn fig2() -> String {
    // Figure 2(a): vertices 1..6; edges 1-2, 1-3, 2-4, 3-4, 3-5, 4-6, 5-6.
    let edges = [
        (0, 1, 1u32),
        (0, 2, 1),
        (1, 3, 1),
        (2, 3, 1),
        (2, 4, 1),
        (3, 5, 1),
        (4, 5, 1),
    ];
    let g = Arc::new(apir_workloads::CsrGraph::from_undirected_edges(6, &edges));
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 2(b): schedule of the toy graph\n");

    // Synthesized (OpenCL-style): barriers between kernel pairs.
    let hls = HlsBfsModel::default().run(&g, 0);
    let _ = writeln!(out, "Synthesized (HLS, barrier per level):");
    let mut t = 0.0f64;
    for l in &hls.trace {
        let _ = writeln!(
            out,
            "  level {:>2}: frontier={:<3} [k1 {:>7.2}us][k2 {:>7.2}us][host {:>6.2}us] start={:.2}us  <barrier>",
            l.level,
            l.frontier,
            l.t_kernel1 * 1e6,
            l.t_kernel2 * 1e6,
            l.t_host * 1e6,
            t * 1e6,
        );
        t += l.t_kernel1 + l.t_kernel2 + l.t_host;
    }
    let _ = writeln!(
        out,
        "  total: {:.1} us over {} kernel pairs\n",
        hls.seconds * 1e6,
        hls.levels
    );

    // Handcrafted-style (our fabric, dataflow): retirements per cycle,
    // read from the trace's `retire` records, whose pipeline component
    // `pipe:<set>#<replica>` names the task set.
    let app = apir_apps::bfs::build(g, 0, BfsVariant::Spec);
    let cfg = FabricConfig {
        trace_capacity: 1 << 16,
        ..base_cfg()
    };
    let report = Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .expect("toy BFS runs");
    (app.check)(&report.mem_image).expect("toy BFS correct");
    let trace = report.trace.as_ref().expect("trace armed");
    assert_eq!(trace.dropped(), 0, "the toy trace fits its ring");
    let _ = writeln!(out, "Generated dataflow pipeline (no barriers):");
    for r in trace.records().filter(|r| r.event == "retire") {
        let comp = trace.component_name(r.comp);
        let name = comp.strip_prefix("pipe:").and_then(|c| c.rsplit_once('#'));
        let (name, _) = name.expect("a pipeline retires");
        for _ in 0..r.value {
            let _ = writeln!(
                out,
                "  cycle {:>4} ({:>6.2}us): commit {}",
                r.cycle,
                r.cycle as f64 / 200.0,
                name
            );
        }
    }
    let _ = writeln!(
        out,
        "  total: {:.2} us in {} cycles — tasks of different levels overlap\n",
        report.seconds * 1e6,
        report.cycles
    );
    let _ = writeln!(
        out,
        "Speedup of dataflow over barrier schedule on the toy graph: {:.0}x",
        hls.seconds / report.seconds
    );
    out
}

/// One row of Figure 9.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: String,
    /// Simulated accelerator time (s).
    pub fpga_s: f64,
    /// Measured 1-core software time (s), after CPU-era normalization.
    pub seq_s: f64,
    /// Modeled 10-core software time (s).
    pub par10_s: f64,
    /// Speedup over 1 core.
    pub speedup_1: f64,
    /// Speedup over 10 cores.
    pub speedup_10: f64,
}

/// Figure 9: accelerator speedup over sequential and 10-core software.
///
/// `cpu_scale` multiplies measured software times to normalize this
/// machine's core to the paper's 2013 Xeon E5-2680 v2 (see
/// EXPERIMENTS.md; `1.0` reports raw measurements).
pub fn fig9(scale: Scale, cpu_scale: f64) -> Vec<Fig9Row> {
    let model = VcoreModel::xeon_10core();
    APP_NAMES
        .iter()
        .map(|name| {
            let (app, _, report) = run_app(name, scale);
            let (seq_raw, _work) = app.measure_seq_best_of(3);
            let seq_s = seq_raw * cpu_scale;
            let profile = (app.run_par)(10);
            let par10_s = model.estimate_seconds(&profile, seq_s);
            Fig9Row {
                name: name.to_string(),
                fpga_s: report.seconds,
                seq_s,
                par10_s,
                speedup_1: seq_s / report.seconds,
                speedup_10: par10_s / report.seconds,
            }
        })
        .collect()
}

/// Renders Figure 9 rows as a table.
pub fn render_fig9(rows: &[Fig9Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 9: speedup of synthesized accelerators over software\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "app", "fpga (s)", "1-core (s)", "10-core (s)", "vs 1-core", "vs 10-core"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.6} {:>12.6} {:>12.6} {:>9.2}x {:>9.2}x",
            r.name, r.fpga_s, r.seq_s, r.par10_s, r.speedup_1, r.speedup_10
        );
    }
    out
}

/// One point of a Figure 10 series.
#[derive(Clone, Debug)]
pub struct Fig10Point {
    /// Bandwidth multiplier over the 7 GB/s HARP baseline.
    pub bw_scale: u64,
    /// Speedup over the 1× run.
    pub speedup: f64,
    /// Pipeline utilization rate.
    pub utilization: f64,
}

/// Figure 10: per-app bandwidth sweep.
pub fn fig10(scale: Scale, sweeps: &[u64]) -> Vec<(String, Vec<Fig10Point>)> {
    APP_NAMES
        .iter()
        .map(|name| {
            let app = build_app(name, scale);
            let design_cfg = app_cfg(&app.spec, &app.input, &app.tune);
            let mut base_cycles = None;
            let pts = sweeps
                .iter()
                .map(|&bw| {
                    let mut cfg = design_cfg.clone();
                    cfg.mem.qpi_gbps = 7.0 * bw as f64;
                    // Higher link bandwidth also means more outstanding
                    // transfers on real links.
                    cfg.mem.max_inflight_misses = 32 * bw as usize;
                    let report = run_verified(&app, cfg);
                    let base = *base_cycles.get_or_insert(report.cycles);
                    Fig10Point {
                        bw_scale: bw,
                        speedup: base as f64 / report.cycles as f64,
                        utilization: report.utilization,
                    }
                })
                .collect();
            (name.to_string(), pts)
        })
        .collect()
}

/// Renders Figure 10 series.
pub fn render_fig10(series: &[(String, Vec<Fig10Point>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 10: speedup (over 1x) and pipeline utilization vs QPI bandwidth\n"
    );
    for (name, pts) in series {
        let _ = writeln!(out, "{name}:");
        let _ = writeln!(out, "  {:>6} {:>9} {:>12}", "bw", "speedup", "utilization");
        for p in pts {
            let _ = writeln!(
                out,
                "  {:>5}x {:>8.2}x {:>11.1}%",
                p.bw_scale,
                p.speedup,
                p.utilization * 100.0
            );
        }
    }
    out
}

/// Table 1: OpenCL-HLS BFS vs SPEC-BFS vs COOR-BFS on the road network.
pub fn table1(scale: Scale) -> String {
    let g = bfs_graph(scale);
    let hls = HlsBfsModel::default().run(&g, 0);
    let (_, _, spec_r) = run_app("SPEC-BFS", scale);
    let (_, _, coor_r) = run_app("COOR-BFS", scale);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table 1: BFS accelerators (road network, {} vertices, {} edges)\n",
        g.num_vertices(),
        g.num_edges()
    );
    let _ = writeln!(out, "{:<22} {:>14}", "accelerator", "best time (s)");
    let _ = writeln!(out, "{:<22} {:>14.6}", "OpenCL (AOCL model)", hls.seconds);
    let _ = writeln!(out, "{:<22} {:>14.6}", "SPEC-BFS", spec_r.seconds);
    let _ = writeln!(out, "{:<22} {:>14.6}", "COOR-BFS", coor_r.seconds);
    let _ = writeln!(
        out,
        "\nOpenCL / SPEC-BFS = {:.0}x   OpenCL / COOR-BFS = {:.0}x   (paper: 264x / 194x)",
        hls.seconds / spec_r.seconds,
        hls.seconds / coor_r.seconds
    );
    out
}

/// Section 6.2: per-app structure/resource table.
pub fn table_resources(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Section 6.2: structure of synthesized accelerators (Stratix V 5SGXEA7)\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>12} {:>12} {:>8} {:>7} {:>6}",
        "app", "pipes", "registers", "rule-engine", "re %", "ALM %", "M20K"
    );
    for name in APP_NAMES {
        let app = build_app(name, scale);
        let mut design = synthesize(&app.spec, base_cfg(), SynthesisTarget::default());
        (app.tune)(&mut design.cfg);
        design.resources = estimate_resources(&app.spec, &design.cfg);
        let r = &design.resources;
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>12} {:>12} {:>7.1}% {:>6.1}% {:>6}",
            name,
            design.cfg.pipelines_per_set,
            r.total_registers(),
            r.rule_engine_registers,
            r.rule_engine_fraction() * 100.0,
            r.alm_fraction() * 100.0,
            r.m20ks
        );
    }
    let _ = writeln!(
        out,
        "\n(paper: rule engine takes 4.8–10% of total registers)"
    );
    out
}

/// Dumps the full fabric report of one app (diagnostics).
pub fn debug_app(name: &str, scale: Scale) -> String {
    let (app, cfg, r) = run_app(name, scale);
    let mut out = String::new();
    let _ = writeln!(out, "## {name} (scale {scale:?})");
    let _ = writeln!(
        out,
        "cfg: pipes={} lanes={} lsu={} queue={} banks={}",
        cfg.pipelines_per_set, cfg.rule_lanes, cfg.lsu_window, cfg.queue_capacity, cfg.queue_banks
    );
    let _ = writeln!(out, "cycles={} seconds={:.6}", r.cycles, r.seconds);
    let _ = writeln!(
        out,
        "retired={:?} squashes={} requeues={} bounces={}",
        r.retired, r.squashes, r.requeues, r.bounces
    );
    let _ = writeln!(
        out,
        "mem: reads={} writes={} hits={} misses={} qpi_bytes={}",
        r.mem.reads, r.mem.writes, r.mem.hits, r.mem.misses, r.mem.qpi_bytes
    );
    let _ = writeln!(
        out,
        "util={:.3} prim_ops={} queue_peaks={:?} extern_calls={}",
        r.utilization, r.primitive_ops, r.queue_peaks, r.extern_calls
    );
    for (i, rs) in r.rules.iter().enumerate() {
        let _ = writeln!(
            out,
            "rule[{}]: allocs={} stalls={} clause={} otherwise={} evict={} peak={}",
            i,
            rs.allocs,
            rs.alloc_stalls,
            rs.clause_fires,
            rs.otherwise_fires,
            rs.evictions,
            rs.peak_lanes
        );
    }
    let _ = writeln!(out, "tasks: seeded={} ", app.input.initial.len());
    out
}

/// A bonus ablation (called out in DESIGN.md): SPEC-BFS cycles vs the
/// out-of-order load/store window, demonstrating why the paper makes
/// memory operations out-of-order but keeps everything else in-order.
pub fn ablation_lsu_window(scale: Scale, windows: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Ablation: out-of-order LSU window (SPEC-BFS)\n");
    let _ = writeln!(
        out,
        "  {:>8} {:>12} {:>12}",
        "window", "cycles", "utilization"
    );
    let app = build_app("SPEC-BFS", scale);
    let design_cfg = app_cfg(&app.spec, &app.input, &app.tune);
    for &w in windows {
        let cfg = FabricConfig {
            lsu_window: w,
            ..design_cfg.clone()
        };
        let r = run_verified(&app, cfg);
        let _ = writeln!(
            out,
            "  {:>8} {:>12} {:>11.1}%",
            w,
            r.cycles,
            r.utilization * 100.0
        );
    }
    out
}

/// Extra experiment: graph-topology sensitivity of the generated BFS
/// accelerator (road vs RMAT vs uniform), motivated by Section 2's claim
/// that irregularity comes from the input.
pub fn topology_sweep(scale: Scale) -> String {
    let side = match scale {
        Scale::Tiny => 8,
        Scale::Small => 24,
        Scale::Medium => 48,
        Scale::Large => 96,
    };
    let n = side * side;
    let graphs: Vec<(&str, Arc<apir_workloads::CsrGraph>)> = vec![
        ("road", Arc::new(gen::road_network(side, side, 0.93, 8, 42))),
        (
            "rmat",
            Arc::new(gen::rmat((n as f64).log2().ceil() as u32, 4, 8, 42)),
        ),
        ("uniform", Arc::new(gen::uniform(n, 2 * n, 8, 42))),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Topology sweep: SPEC-BFS accelerator across graph classes\n"
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>9} {:>9} {:>10} {:>12} {:>12}",
        "graph", "vertices", "edges", "depth", "cycles", "utilization"
    );
    for (name, g) in graphs {
        let app = apir_apps::bfs::build(g.clone(), 0, BfsVariant::Spec);
        let report = Fabric::new(&app.spec, &app.input, base_cfg())
            .run()
            .expect("BFS runs");
        (app.check)(&report.mem_image).expect("BFS correct");
        let _ = writeln!(
            out,
            "  {:<8} {:>9} {:>9} {:>10} {:>12} {:>11.1}%",
            name,
            g.num_vertices(),
            g.num_edges(),
            g.bfs_depth(0),
            report.cycles,
            report.utilization * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reports_dataflow_win() {
        let s = fig2();
        assert!(s.contains("barrier"));
        assert!(s.contains("Speedup of dataflow over barrier"));
    }

    #[test]
    fn table1_small_runs() {
        let s = table1(Scale::Small);
        assert!(s.contains("OpenCL"));
        assert!(s.contains("SPEC-BFS"));
    }

    #[test]
    fn debug_app_reports_the_configuration_it_ran() {
        // SPEC-MST's tune hook shrinks the synthesized queue.
        let s = debug_app("SPEC-MST", Scale::Tiny);
        assert!(s.contains("queue=1024 banks=2"), "{s}");
    }

    #[test]
    fn resources_table_covers_all_apps() {
        let s = table_resources(Scale::Small);
        for name in APP_NAMES {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
