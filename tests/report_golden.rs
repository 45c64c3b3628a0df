//! Report goldens: exact counter values per benchmark at the `tiny`
//! scale, and the utilization to the bit.
//!
//! The fabric is a deterministic simulator over seeded workload
//! generators, so every counter in a run's report is a pure function of
//! the code. These goldens pin that function: an intentional change to
//! the microarchitecture (scheduling, cache, allocator...) will shift
//! them — update the table and say why in the commit — while an
//! *unintentional* divergence (a nondeterministic HashMap iteration, an
//! uninitialized latch, a platform-dependent float path) fails here
//! first, long before it would corrupt a figure.
//!
//! Regenerate the table from the report of
//! `cargo run --release -p apir-trace -- run <APP> --scale tiny --json r.json`,
//! which runs the same configuration with a trace armed.

use apir::bench::experiments::app_cfg;
use apir::bench::scale::build_app;
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricReport};

struct Golden {
    cycles: u64,
    retired: u64,
    squashes: u64,
    requeues: u64,
    bounces: u64,
    mem_hits: u64,
    mem_misses: u64,
    utilization: f64,
}

/// One verified fabric run at the synthesized and tuned `tiny`
/// configuration.
fn baseline_run(name: &str) -> FabricReport {
    let app = build_app(name, Scale::Tiny);
    let cfg = app_cfg(&app.spec, &app.input, &app.tune);
    let report = Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: {e}"));
    report
}

const GOLDENS: [(&str, Golden); 6] = [
    (
        "SPEC-BFS",
        Golden {
            cycles: 1696,
            retired: 276,
            squashes: 0,
            requeues: 0,
            bounces: 0,
            mem_hits: 435,
            mem_misses: 117,
            utilization: 0.014449104845626072,
        },
    ),
    (
        "COOR-BFS",
        Golden {
            cycles: 2990,
            retired: 276,
            squashes: 0,
            requeues: 0,
            bounces: 0,
            mem_hits: 420,
            mem_misses: 132,
            utilization: 0.006979614588310242,
        },
    ),
    (
        "SPEC-SSSP",
        Golden {
            cycles: 2772,
            retired: 1051,
            squashes: 1,
            requeues: 0,
            bounces: 0,
            mem_hits: 1679,
            mem_misses: 949,
            utilization: 0.028501328217237318,
        },
    ),
    (
        "SPEC-MST",
        Golden {
            cycles: 101073,
            retired: 1755,
            squashes: 1320,
            requeues: 1635,
            bounces: 247,
            mem_hits: 3505,
            mem_misses: 5,
            utilization: 0.004630408311411144,
        },
    ),
    (
        "SPEC-DMR",
        Golden {
            cycles: 1050,
            retired: 15,
            squashes: 1,
            requeues: 1,
            bounces: 0,
            mem_hits: 1,
            mem_misses: 14,
            utilization: 0.002063492063492066,
        },
    ),
    (
        "COOR-LU",
        Golden {
            cycles: 81,
            retired: 6,
            squashes: 0,
            requeues: 0,
            bounces: 0,
            mem_hits: 0,
            mem_misses: 0,
            utilization: 0.013888888888888888,
        },
    ),
];

#[test]
fn reports_match_goldens_exactly() {
    for (name, g) in &GOLDENS {
        let r = baseline_run(name);
        assert_eq!(r.cycles, g.cycles, "{name}: cycles");
        assert_eq!(r.total_retired(), g.retired, "{name}: retired");
        assert_eq!(r.squashes, g.squashes, "{name}: squashes");
        assert_eq!(r.requeues, g.requeues, "{name}: requeues");
        assert_eq!(r.bounces, g.bounces, "{name}: bounces");
        assert_eq!(r.mem.hits, g.mem_hits, "{name}: mem.hits");
        assert_eq!(r.mem.misses, g.mem_misses, "{name}: mem.misses");
        assert_eq!(
            r.utilization.to_bits(),
            g.utilization.to_bits(),
            "{name}: utilization {} != {}",
            r.utilization,
            g.utilization
        );
    }
}

#[test]
fn spec_bfs_stall_cause_vector_is_pinned() {
    // The full stall-cause attribution vector for one app, pinned
    // exactly: any change to the cause classification sites in
    // `tick_pipeline`, the accounting block, or the event wheel's cause
    // replay shows up here first. The causes must also partition the
    // total (`fabric.stall`), which itself is busy/idle-consistent with
    // the run length.
    let r = baseline_run("SPEC-BFS");
    let m = &r.metrics;
    let causes = [
        ("fabric.stall.downstream_full", 8u64),
        ("fabric.stall.queue_full", 0),
        ("fabric.stall.reserve_full", 0),
        ("fabric.stall.mshr_full", 0),
        ("fabric.stall.bandwidth", 0),
        ("fabric.stall.miss_outstanding", 3595),
        ("fabric.stall.rendezvous_parked", 0),
        ("fabric.stall.lane_busy", 0),
        ("fabric.stall.lane_masked", 0),
        ("fabric.stall.bus_full", 0),
    ];
    for (key, want) in causes {
        assert_eq!(m.counter(key), Some(want), "{key} drifted");
    }
    let total: u64 = causes.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        m.counter("fabric.stall"),
        Some(total),
        "causes partition the total"
    );
    let busy = m.counter("fabric.busy").unwrap();
    let idle = m.counter("fabric.idle").unwrap();
    let stages = r.primitive_ops as u64;
    assert_eq!(
        busy + total + idle,
        r.cycles * stages,
        "stage-cycles conserved"
    );
}

#[test]
fn metrics_registry_agrees_with_report_fields() {
    // The metrics are rendered from the same component state as the
    // report's typed fields; the stable keys must agree with those fields
    // on every app.
    for (name, _) in &GOLDENS {
        let r = baseline_run(name);
        let m = &r.metrics;
        assert_eq!(m.counter("fabric.cycles"), Some(r.cycles), "{name}");
        assert_eq!(m.counter("fabric.squashes"), Some(r.squashes), "{name}");
        assert_eq!(m.counter("fabric.requeues"), Some(r.requeues), "{name}");
        assert_eq!(m.counter("fabric.bounces"), Some(r.bounces), "{name}");
        assert_eq!(m.counter("mem.hits"), Some(r.mem.hits), "{name}");
        assert_eq!(m.counter("mem.misses"), Some(r.mem.misses), "{name}");
        let util = m.gauge("fabric.utilization").unwrap();
        assert!((util - r.utilization).abs() < 1e-12, "{name}: gauge");
        let retired_keys: u64 = m
            .entries()
            .iter()
            .filter(|(k, _)| k.starts_with("fabric.retired."))
            .map(|(k, _)| m.counter(k).unwrap())
            .sum();
        assert_eq!(retired_keys, r.total_retired(), "{name}: retired keys");
    }
}
