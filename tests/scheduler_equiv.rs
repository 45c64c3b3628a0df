//! Differential gate for the event-wheel scheduler.
//!
//! `FabricConfig::dense_tick` keeps the original dense per-cycle loop
//! available as an oracle. The wheel must execute *identical*
//! cycle-accurate semantics — every counter, histogram, fault draw,
//! and retirement byte-identical — and only change wall-clock time.
//! These tests run every builtin app fault-free and under the pinned
//! chaos campaigns with both schedulers and compare:
//!
//! 1. the full deterministic JSON report (`to_json` — counters,
//!    utilization, metrics snapshot, fault totals),
//! 2. the typed fault mix,
//! 3. every `(cycle, component, event, value)` record of the event
//!    trace, which holds every retirement, stage transition and fault,
//!    none of them dropped.
//!
//! Rollback cells on a flaky link pin each dense report's hash as well,
//! so a checkpoint taken on another cycle under the wheel shows.
//!
//! A regression test also pins the `fault_window == 1` schedule: the
//! old `now % fw == 1` predicate never fired for a one-cycle window
//! (no cycle satisfies `now % 1 == 1`), so maximum-pressure campaigns
//! silently injected nothing.

use apir::bench::experiments::app_cfg;
use apir::bench::scale::{build_app, APP_NAMES};
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricConfig, FabricReport, FaultConfig};
use apir::sim::trace::EventTrace;

/// The synthesized + tuned fault-free configuration, tracing every
/// event so the schedule itself is compared, not just totals.
fn tuned_cfg(app: &apir::apps::AppInstance) -> FabricConfig {
    let mut cfg = app_cfg(&app.spec, &app.input, &app.tune);
    cfg.trace_capacity = 1 << 17;
    // Arm the windowed timeline so the equivalence gate also covers the
    // wheel's O(1) replay of skipped stretches (the `timeline` block is
    // part of `to_json`, so any divergence fails the byte comparison),
    // along with the replayed stall-cause attribution counters.
    cfg.timeline_window = 32;
    cfg.timeline_capacity = 256;
    cfg
}

/// Same pinned chaos campaign seeds as `tests/chaos.rs`.
const CAMPAIGNS: [(&str, [u64; 3]); 6] = [
    ("SPEC-BFS", [1, 2, 3]),
    ("COOR-BFS", [1, 2, 3]),
    ("SPEC-SSSP", [1, 2, 3]),
    ("SPEC-MST", [1, 2, 4]),
    ("SPEC-DMR", [1, 2, 3]),
    ("COOR-LU", [1, 2, 3]),
];

fn run(name: &str, app: &apir::apps::AppInstance, cfg: FabricConfig) -> FabricReport {
    Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{name}: run failed: {e}"))
}

/// Runs one config under both schedulers, asserts full equivalence, and
/// returns the dense report.
fn assert_schedulers_agree(
    name: &str,
    app: &apir::apps::AppInstance,
    cfg: FabricConfig,
    tag: &str,
) -> FabricReport {
    let mut dense_cfg = cfg.clone();
    dense_cfg.dense_tick = true;
    let mut wheel_cfg = cfg;
    wheel_cfg.dense_tick = false;
    let dense = run(name, app, dense_cfg);
    let wheel = run(name, app, wheel_cfg);
    assert_eq!(
        dense.to_json(),
        wheel.to_json(),
        "{name} {tag}: dense and wheel reports diverged"
    );
    assert_eq!(
        dense.faults, wheel.faults,
        "{name} {tag}: fault mixes diverged"
    );
    let traces = [&dense, &wheel].map(|r| r.trace.as_ref().expect("trace armed"));
    for t in traces {
        assert_eq!(t.dropped(), 0, "{name} {tag}: the trace ring overflowed");
    }
    if let Some(i) = first_divergence(traces[0], traces[1]) {
        panic!("{name} {tag}: dense and wheel traces diverge at record {i}");
    }
    assert_eq!(
        dense.mem_image, wheel.mem_image,
        "{name} {tag}: final memory images diverged"
    );
    dense
}

#[test]
fn dense_and_wheel_agree_fault_free() {
    for name in APP_NAMES {
        let app = build_app(name, Scale::Tiny);
        let cfg = tuned_cfg(&app);
        assert_schedulers_agree(name, &app, cfg, "fault-free");
    }
}

#[test]
fn dense_and_wheel_agree_under_chaos() {
    for (name, seeds) in CAMPAIGNS {
        let app = build_app(name, Scale::Tiny);
        for seed in seeds {
            let mut cfg = tuned_cfg(&app);
            cfg.faults = FaultConfig::chaos(seed);
            assert_schedulers_agree(name, &app, cfg, &format!("chaos seed {seed}"));
        }
    }
}

/// The index of the first record in which two traces differ, if any.
fn first_divergence(a: &EventTrace, b: &EventTrace) -> Option<usize> {
    let n = a.len().max(b.len());
    let (mut a, mut b) = (a.records(), b.records());
    (0..n).find(|_| a.next() != b.next())
}

/// FNV-1a, which pins rendered report bytes as in `tests/robustness.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(app, fault seed, FNV-1a of the dense report)` of runs that roll
/// back on a flaky link. The first eight resume from another cycle under
/// the wheel when a checkpoint is taken on the first tick an interval
/// after the last instead of on the interval's own cycle.
const ROLLBACK_CELLS: [(&str, u64, u64); 12] = [
    ("SPEC-BFS", 14, 0x41be_14e8_4477_306d),
    ("COOR-BFS", 5, 0xf951_8237_ff4e_5e78),
    ("COOR-BFS", 14, 0xd01c_fcb5_3ec9_de96),
    ("COOR-BFS", 19, 0xcc92_1db3_0638_7861),
    ("COOR-BFS", 21, 0x1b89_83a9_029a_e230),
    ("SPEC-SSSP", 15, 0x3b01_c335_c433_13a6),
    ("SPEC-MST", 5, 0x5a6f_bac9_98bb_e94c),
    ("SPEC-MST", 14, 0x2d23_1a2a_df73_1c14),
    ("SPEC-SSSP", 0, 0xf5b3_8635_7a97_8925),
    ("SPEC-SSSP", 6, 0x5784_6d2e_b30d_7350),
    ("SPEC-SSSP", 8, 0xeb87_9d25_8a34_8e29),
    ("SPEC-SSSP", 22, 0x89bb_3aef_27ed_71ef),
];

#[test]
fn dense_and_wheel_agree_on_rollback() {
    for (name, seed, want) in ROLLBACK_CELLS {
        let app = build_app(name, Scale::Tiny);
        let mut cfg = tuned_cfg(&app);
        cfg.faults = FaultConfig {
            seed,
            drop_rate: 0.03,
            retry_timeout: 4,
            max_retries: 1,
            ..FaultConfig::default()
        };
        cfg.checkpoint_interval = 256;
        cfg.max_rollbacks = 16;
        // A timeline window that divides the interval would stop every
        // jump on the checkpoint cycles by itself.
        cfg.timeline_window = 0;
        let tag = format!("rollback seed {seed}");
        let mut dense = assert_schedulers_agree(name, &app, cfg, &tag);
        assert!(
            dense.rollbacks.as_ref().is_some_and(|rb| rb.count > 0),
            "{name} {tag}: no rollback"
        );
        // Without its trace, the report renders as an untraced run's.
        dense.trace = None;
        assert_eq!(
            fnv1a(dense.to_json().as_bytes()),
            want,
            "{name} {tag}: the dense report moved"
        );
    }
}

#[test]
fn fault_window_one_injects_faults() {
    // Regression for the off-by-one: with `fault_window == 1` the trial
    // predicate is `now % 1 == 1 % 1`, true every cycle — the old
    // `now % 1 == 1` comparison was never true, so a maximum-pressure
    // campaign ran fault-free without saying so.
    let name = "SPEC-BFS";
    let app = build_app(name, Scale::Tiny);
    let mut cfg = tuned_cfg(&app);
    cfg.faults = FaultConfig::chaos(1);
    cfg.faults.fault_window = 1;
    let report = run(name, &app, cfg.clone());
    let f = &report.faults;
    assert!(
        f.lanes_masked + f.banks_masked > 0,
        "window-1 campaign must inject structural faults, got {f:?}"
    );
    // Per-cycle trials hit the masking refusal limits (half the lanes /
    // banks stay in service) long before quiescence; pin the saturated
    // schedule so a future predicate regression is caught exactly.
    assert!(
        f.lanes_masked >= f.banks_masked,
        "lane trials run per engine per window: {f:?}"
    );
    // And the run still recovers: graceful degradation, not collapse.
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: {e}"));
    // The schedule is identical under both schedulers.
    assert_schedulers_agree(name, &app, cfg, "fault_window=1");
}

#[test]
fn fault_window_schedule_is_pinned() {
    // Pin the exact structural-fault counts for the window-1 campaign:
    // any change to the trial predicate, the RNG draw order, or the
    // wheel's fault-window wake times shows up here first.
    let name = "SPEC-BFS";
    let app = build_app(name, Scale::Tiny);
    let mut cfg = tuned_cfg(&app);
    cfg.faults = FaultConfig::chaos(1);
    cfg.faults.fault_window = 1;
    let with_one = run(name, &app, cfg).faults;

    let mut cfg16 = tuned_cfg(&app);
    cfg16.faults = FaultConfig::chaos(1);
    assert_eq!(cfg16.faults.fault_window, 16, "chaos preset window");
    let with_sixteen = run(name, &app, cfg16).faults;

    // Both campaigns run long enough to hit the half-resources masking
    // refusal cap, so the structural counts are stable — pin them.
    // Before the fix, `with_one` masked exactly zero of each.
    assert_eq!(
        with_one.lanes_masked, 32,
        "window-1 schedule drifted: {with_one:?}"
    );
    assert_eq!(
        with_one.banks_masked, 4,
        "window-1 schedule drifted: {with_one:?}"
    );
    // Per-cycle trials can never inject less than 16-cycle windows.
    assert!(
        with_one.lanes_masked + with_one.banks_masked
            >= with_sixteen.lanes_masked + with_sixteen.banks_masked,
        "per-cycle trials must not under-inject windowed trials: {with_one:?} vs {with_sixteen:?}"
    );
}

/// Wall-clock probe backing the README performance table. Run with
/// `cargo test --release --test scheduler_equiv probe -- --ignored --nocapture`.
#[test]
#[ignore]
fn probe_scheduler_wall_time() {
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>8}",
        "app", "cycles", "dense ms", "wheel ms", "speedup"
    );
    for name in APP_NAMES {
        let app = build_app(name, Scale::Tiny);
        let mut dense_cfg = tuned_cfg(&app);
        dense_cfg.trace_capacity = 0;
        dense_cfg.dense_tick = true;
        let mut wheel_cfg = dense_cfg.clone();
        wheel_cfg.dense_tick = false;
        let t0 = std::time::Instant::now();
        let d = run(name, &app, dense_cfg);
        let dense_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let w = run(name, &app, wheel_cfg);
        let wheel_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(d.cycles, w.cycles);
        println!(
            "{:<10} {:>10} {:>12.2} {:>12.2} {:>7.1}x",
            name,
            w.cycles,
            dense_ms,
            wheel_ms,
            dense_ms / wheel_ms
        );
    }
}
