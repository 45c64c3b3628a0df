//! The headline chaos suite, driven by the committed campaign plan
//! `tests/plans/chaos_matrix.json`: every builtin benchmark × every
//! plan seed × every chaos config variant (the event-wheel baseline
//! and the dense-tick scheduler) must
//!
//! 1. recover to a final memory image equivalent to the fault-free
//!    sequential interpreter run (same equality tiers as
//!    `cross_engine.rs`: exact, union-find partition for SPEC-MST,
//!    checker-only for SPEC-DMR), and
//! 2. provably suffer faults: aggregated across the plan's seeds, each
//!    (app, config) pair injects soft errors, link faults, and the
//!    structural (lane/bank) faults its shape exposes. Aggregation is
//!    what lets the plan use arbitrary seed ranges — a single seed may
//!    legitimately miss a fault class on a tiny footprint (MST's QPI
//!    traffic is sparse enough that some seeds inject no soft errors),
//!    but five seeds together never do.
//!
//! Determinism of each cell (same seed ⇒ byte-identical report) is held
//! by `campaign_determinism.rs` and the engine's own tests; this suite
//! holds recovery.

use apir::bench::experiments::app_cfg;
use apir::bench::scale::{build_app, APP_NAMES};
use apir::bench::Scale;
use apir::campaign::{expand, parse_plan, run_job};
use apir::core::interp::SeqInterp;
use apir::core::MemAccess;
use apir::fabric::{Fabric, FabricConfig, FabricReport, FaultConfig};
use std::collections::HashMap;

/// The synthesized + tuned configuration with chaos faults armed.
fn chaos_cfg(app: &apir::apps::AppInstance, seed: u64) -> FabricConfig {
    let mut cfg = app_cfg(&app.spec, &app.input, &app.tune);
    cfg.faults = FaultConfig::chaos(seed);
    cfg
}

/// Union-find partition equivalence: same connectivity, any tree shape.
fn same_partition(a: &apir::core::MemImage, b: &apir::core::MemImage, n: u64) {
    let parent = apir::core::spec::RegionId(0);
    let find = |mem: &apir::core::MemImage, mut x: u64| {
        while mem.read(parent, x) != x {
            x = mem.read(parent, x);
        }
        x
    };
    for i in 0..n {
        for j in (i + 1)..n {
            assert_eq!(
                find(a, i) == find(a, j),
                find(b, i) == find(b, j),
                "partition mismatch at ({i},{j})"
            );
        }
    }
}

fn run_chaos(name: &str, app: &apir::apps::AppInstance, cfg: FabricConfig) -> FabricReport {
    Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{name}: chaos run failed: {e}"))
}

#[test]
fn chaos_matrix_recovers_to_fault_free_memory() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/plans/chaos_matrix.json"
    ))
    .expect("committed chaos plan");
    let plan = parse_plan(&text).expect("valid chaos plan");
    // The committed plan is the full matrix: every builtin, at least
    // five seeds, two all-chaos configs.
    assert_eq!(
        plan.apps.len(),
        APP_NAMES.len(),
        "plan must cover every builtin"
    );
    assert!(plan.seeds.len() >= 5, "plan must sweep at least five seeds");
    assert_eq!(plan.configs.len(), 2);
    assert!(
        plan.configs.iter().all(|c| c.chaos),
        "every cell is a chaos cell"
    );

    // Fault-free reference image per app, computed once.
    let mut reference = HashMap::new();
    for name in &plan.apps {
        let app = build_app(name, plan.scale);
        let seq = SeqInterp::run(&app.spec, &app.input).unwrap();
        (app.check)(&seq.mem).unwrap_or_else(|e| panic!("{name} interp: {e}"));
        reference.insert(name.clone(), (app, seq));
    }

    #[derive(Default)]
    struct Mix {
        soft: u64,
        link: u64,
        structural: u64,
    }
    let mut mix: HashMap<(String, String), Mix> = HashMap::new();

    for job in expand(&plan) {
        let key = job.key();
        // `run_job` already re-verifies the cell against the app checker.
        let report = run_job(&job).unwrap_or_else(|e| panic!("{key}: [{}] {}", e.kind, e.message));

        let f = &report.faults;
        assert_eq!(
            f.soft_corrected + f.soft_refetched,
            f.soft_injected,
            "{key}: soft errors must be corrected or refetched"
        );
        let m = mix
            .entry((job.app.clone(), job.config.id.clone()))
            .or_default();
        m.soft += f.soft_injected;
        m.link += f.link_dropped + f.link_late;
        m.structural += f.lanes_masked + f.banks_masked;

        // Recovery: the faulty run's final image is equivalent to the
        // fault-free interpreter run.
        let (app, seq) = &reference[&job.app];
        match job.app.as_str() {
            "SPEC-MST" => {
                let n = app.input.mem.capacity(apir::core::spec::RegionId(0));
                same_partition(&seq.mem, &report.mem_image, n as u64);
            }
            "SPEC-DMR" => {} // checker-only (commit-order-dependent mesh)
            _ => {
                assert_eq!(
                    seq.mem,
                    report.mem_image,
                    "{key}: final images differ: {:?}",
                    seq.mem.diff(&report.mem_image, 8)
                );
            }
        }
    }

    // Aggregated over the plan's seeds, every (app, config) pair
    // suffered every fault family. Memory-side faults hit every app
    // that touches the cache/QPI path; structural (lane/bank) faults
    // hit whatever the app's config leaves maskable: COOR-LU has no
    // rule engines (banks only), and SPEC-MST's tuned 2-bank queue is
    // reserve-protected by design — masking it could deadlock
    // recirculation, so the plan refuses and only its rule lanes are
    // masked.
    assert_eq!(mix.len(), plan.apps.len() * plan.configs.len());
    for ((app, config), m) in &mix {
        assert!(m.soft > 0, "{app}/{config}: no soft errors across seeds");
        assert!(m.link > 0, "{app}/{config}: no link faults across seeds");
        assert!(
            m.structural > 0,
            "{app}/{config}: no structural faults across seeds"
        );
    }
}

#[test]
fn chaos_report_exposes_fault_metrics_and_json() {
    // The fault mix is observable through all three surfaces: the typed
    // stats on the report, the `fault.*` metric keys, and the JSON
    // document (`apir.fabric.report.v1`).
    let name = "SPEC-BFS";
    let app = build_app(name, Scale::Tiny);
    let report = run_chaos(name, &app, chaos_cfg(&app, 1));
    let f = &report.faults;

    let counter = |key: &str| -> u64 {
        match report.metrics.get(key) {
            Some(apir::sim::metrics::MetricValue::Counter(v)) => *v,
            other => panic!("metric {key}: {other:?}"),
        }
    };
    assert_eq!(counter("fault.mem.soft_injected"), f.soft_injected);
    assert_eq!(counter("fault.link.dropped"), f.link_dropped);
    assert_eq!(counter("fault.link.retried"), f.link_retried);
    assert_eq!(counter("fault.lane.masked"), f.lanes_masked);
    assert_eq!(counter("fault.bank.masked"), f.banks_masked);

    let doc = apir_util::json::parse(&report.to_json()).expect("valid JSON");
    let faults = doc.get("faults").expect("faults object");
    assert_eq!(
        faults.get("soft_injected").unwrap().as_u64(),
        Some(f.soft_injected)
    );
    assert_eq!(
        faults.get("link_dropped").unwrap().as_u64(),
        Some(f.link_dropped)
    );
}

#[test]
fn faults_off_is_the_identity() {
    // A default (faults-off) config must produce the exact same report as
    // before the chaos layer existed modulo the always-zero fault block:
    // the fault path must be invisible when disarmed. Guarded by the
    // report goldens and the bench baseline too; this pins the stats.
    let app = build_app("SPEC-BFS", Scale::Tiny);
    let cfg = app_cfg(&app.spec, &app.input, &app.tune);
    assert!(!cfg.faults.is_enabled());
    let report = Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .expect("fault-free run");
    assert_eq!(report.faults, apir::fabric::FaultStats::default());
}

/// Probe harness used to vet campaign-plan seeds: prints the fault mix
/// per app per candidate seed. Run with
/// `cargo test --test chaos probe_fault_mix -- --ignored --nocapture`.
#[test]
#[ignore]
fn probe_fault_mix() {
    for name in APP_NAMES {
        let app = build_app(name, Scale::Tiny);
        for seed in 1..=6u64 {
            let report = run_chaos(name, &app, chaos_cfg(&app, seed));
            let f = &report.faults;
            println!(
                "{name:<10} seed {seed}: cycles={} soft={}/{}c/{}r link={}d/{}l/{}r lanes={} banks={} wd={}/{}",
                report.cycles,
                f.soft_injected,
                f.soft_corrected,
                f.soft_refetched,
                f.link_dropped,
                f.link_late,
                f.link_retried,
                f.lanes_masked,
                f.banks_masked,
                f.watchdog_escalations,
                f.watchdog_flushed,
            );
        }
    }
}
