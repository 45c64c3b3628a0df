//! Restore-equivalence: snapshotting a paused fabric at cycle N and
//! resuming from the document must finish byte-identically — the same
//! `to_json()` report — as the uninterrupted run, for every builtin
//! app, fault-free and under pinned chaos seeds, on both the
//! event-wheel scheduler and the dense per-cycle oracle. This is the
//! contract that makes snapshots trustworthy: a restored run is
//! *provably* the run it resumed. A clone of the paused fabric, which
//! is what a rollback checkpoint is, must finish the same way, and so
//! must a run on a flaky link restored between a checkpoint and the
//! rollback to it.

use apir::bench::experiments;
use apir::bench::scale::{build_app, AppInstance, APP_NAMES};
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricConfig, FaultConfig, RunSplit};
use apir_util::{props, Json};

/// The faults a run is under.
#[derive(Clone, Copy, Debug)]
enum Faults {
    Off,
    Chaos(u64),
    /// A link that drops 3% of transfers and retries once, recovered by
    /// rolling back to checkpoints 256 cycles apart; `pause` is a cycle
    /// between a checkpoint and a rollback to it.
    Flaky {
        seed: u64,
        pause: u64,
    },
}

fn app_cfg(name: &str, faults: Faults, dense: bool) -> (AppInstance, FabricConfig) {
    let app = build_app(name, Scale::Tiny);
    let mut cfg = experiments::app_cfg(&app.spec, &app.input, &app.tune);
    match faults {
        Faults::Off => {}
        Faults::Chaos(seed) => cfg.faults = FaultConfig::chaos(seed),
        Faults::Flaky { seed, .. } => {
            cfg.faults = FaultConfig {
                seed,
                drop_rate: 0.03,
                retry_timeout: 4,
                max_retries: 1,
                ..FaultConfig::default()
            };
            cfg.checkpoint_interval = 256;
            cfg.max_rollbacks = 16;
        }
    }
    cfg.dense_tick = dense;
    (app, cfg)
}

/// The uninterrupted run's report JSON (and its cycle count, for
/// picking interesting split points).
fn uninterrupted(name: &str, faults: Faults, dense: bool) -> (String, u64) {
    let (app, cfg) = app_cfg(name, faults, dense);
    let report = Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{name}: uninterrupted run failed: {e}"));
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: bad image: {e}"));
    (report.to_json(), report.cycles)
}

/// Pause at `at`, then finish a clone of the paused fabric or, without
/// `clone`, snapshot it and restore into a *fresh* fabric, and return
/// the report JSON. A run that completes before `at` returns its report
/// directly (split-at-N degenerates to the uninterrupted run).
fn split_at(name: &str, faults: Faults, dense: bool, at: u64, clone: bool) -> String {
    let (app, cfg) = app_cfg(name, faults, dense);
    let split = Fabric::new(&app.spec, &app.input, cfg.clone())
        .run_until(at)
        .unwrap_or_else(|e| panic!("{name}: run to cycle {at} failed: {e}"));
    let report = match split {
        RunSplit::Done(report) => *report,
        RunSplit::Paused(fabric) if clone => Fabric::clone(&fabric)
            .run()
            .unwrap_or_else(|e| panic!("{name}: the clone at {at} failed: {e}")),
        RunSplit::Paused(fabric) => {
            let doc = fabric.snapshot();
            drop(fabric);
            Fabric::restore(&app.spec, &app.input, cfg, &doc)
                .unwrap_or_else(|e| panic!("{name}: restore at {at} rejected: {e}"))
                .run()
                .unwrap_or_else(|e| panic!("{name}: resumed run failed: {e}"))
        }
    };
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{name}: resumed image is bad: {e}"));
    report.to_json()
}

/// Splits the app at cycle 0 (before the first tick), at 1 (one tick
/// in), mid-run, one cycle short of the end, and on a flaky link at its
/// pause; each resumed report must match the uninterrupted bytes.
/// `at = cycles - 1` usually lands inside the final quiescent stretch,
/// so the event wheel's jump overshoots the target — the
/// pause-past-a-quiescent-skip boundary.
fn check_restore_equivalence(name: &str, faults: Faults, dense: bool) {
    let (want, cycles) = uninterrupted(name, faults, dense);
    let pause = match faults {
        Faults::Flaky { pause, .. } => Some(pause),
        _ => None,
    };
    let ats = [0, 1, cycles / 2, cycles.saturating_sub(1)];
    for at in ats.into_iter().chain(pause) {
        for clone in [false, true] {
            let got = split_at(name, faults, dense, at, clone);
            assert_eq!(
                got, want,
                "{name} (faults {faults:?}, dense {dense}, clone {clone}): \
                 split at cycle {at} diverged"
            );
        }
    }
}

#[test]
fn spec_bfs_restores_byte_identically() {
    check_restore_equivalence("SPEC-BFS", Faults::Off, false);
    check_restore_equivalence("SPEC-BFS", Faults::Chaos(5), false);
}

#[test]
fn coor_bfs_restores_byte_identically() {
    check_restore_equivalence("COOR-BFS", Faults::Off, false);
    check_restore_equivalence("COOR-BFS", Faults::Chaos(5), false);
}

#[test]
fn spec_sssp_restores_byte_identically() {
    check_restore_equivalence("SPEC-SSSP", Faults::Off, false);
    check_restore_equivalence("SPEC-SSSP", Faults::Chaos(5), false);
}

#[test]
fn spec_mst_restores_byte_identically() {
    check_restore_equivalence("SPEC-MST", Faults::Off, false);
    check_restore_equivalence("SPEC-MST", Faults::Chaos(5), false);
}

#[test]
fn spec_dmr_restores_byte_identically() {
    check_restore_equivalence("SPEC-DMR", Faults::Off, false);
    check_restore_equivalence("SPEC-DMR", Faults::Chaos(5), false);
}

#[test]
fn coor_lu_restores_byte_identically() {
    check_restore_equivalence("COOR-LU", Faults::Off, false);
    check_restore_equivalence("COOR-LU", Faults::Chaos(5), false);
}

/// `(app, fault seed, pause)` of runs on a flaky link that roll back
/// after the pause to a checkpoint taken before it. Restored without
/// that checkpoint, each rolled back to another cycle.
const ROLLBACK_PAUSES: [(&str, u64, u64); 5] = [
    ("SPEC-BFS", 14, 300),
    ("SPEC-SSSP", 8, 700),
    ("SPEC-SSSP", 0, 1000),
    ("COOR-BFS", 5, 1300),
    ("SPEC-MST", 14, 600),
];

#[test]
fn rolled_back_runs_restore_byte_identically() {
    for (name, seed, pause) in ROLLBACK_PAUSES {
        for dense in [false, true] {
            check_restore_equivalence(name, Faults::Flaky { seed, pause }, dense);
        }
    }
}

#[test]
fn dense_tick_oracle_restores_byte_identically() {
    // The dense per-cycle loop shares the snapshot format; a restored
    // dense run must match its own uninterrupted bytes too.
    check_restore_equivalence("SPEC-BFS", Faults::Off, true);
    check_restore_equivalence("SPEC-BFS", Faults::Chaos(5), true);
}

/// Station entries whose completion arrived while the next latch was
/// full: each station's ready count is derived from them, never saved.
fn ready_station_entries(doc: &Json) -> usize {
    let Some(Json::Arr(pipes)) = doc.get("pipelines") else {
        return 0;
    };
    let stages = pipes.iter().filter_map(|p| match p.get("stages") {
        Some(Json::Arr(st)) => Some(st),
        _ => None,
    });
    let entries = stages.flatten().filter_map(|st| match st.get("st") {
        Some(Json::Arr(e)) => Some(e),
        _ => None,
    });
    entries
        .flatten()
        .filter(|e| matches!(e, Json::Arr(f) if f.get(2) == Some(&Json::Bool(true))))
        .count()
}

#[test]
fn the_mid_run_spec_mst_split_holds_ready_station_entries() {
    // `spec_mst_restores_byte_identically` splits here, so its restore
    // must recount the ready entries to hand them out.
    let (_, cycles) = uninterrupted("SPEC-MST", Faults::Off, false);
    let (app, cfg) = app_cfg("SPEC-MST", Faults::Off, false);
    let RunSplit::Paused(fabric) = Fabric::new(&app.spec, &app.input, cfg)
        .run_until(cycles / 2)
        .unwrap()
    else {
        panic!("SPEC-MST runs past its midpoint");
    };
    assert!(ready_station_entries(&fabric.snapshot()) > 0);
}

#[test]
fn snapshot_doc_carries_the_versioned_schema() {
    let (app, cfg) = app_cfg("SPEC-BFS", Faults::Off, false);
    let RunSplit::Paused(fabric) = Fabric::new(&app.spec, &app.input, cfg)
        .run_until(100)
        .unwrap()
    else {
        panic!("SPEC-BFS runs longer than 100 cycles");
    };
    let doc = fabric.snapshot();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("apir.fabric.snapshot.v1")
    );
    // The document round-trips through the strict parser.
    let text = doc.render();
    assert_eq!(apir_util::json::parse(&text).unwrap().render(), text);
}

props! {
    // Full fabric runs per case; keep the count modest.
    cases = 6;

    /// snapshot -> restore -> snapshot is a fixed point: restoring a
    /// document and immediately re-snapshotting reproduces it
    /// byte-for-byte, for random apps, fault seeds, and split cycles.
    fn snapshot_restore_snapshot_is_a_fixed_point(g) {
        let name = APP_NAMES[g.gen_range(0usize..APP_NAMES.len())];
        let faults = if g.gen_bool(0.5) {
            Faults::Chaos(g.gen_range(0u64..1000))
        } else {
            Faults::Off
        };
        let at = g.gen_range(0u64..600);
        let (app, cfg) = app_cfg(name, faults, false);
        match Fabric::new(&app.spec, &app.input, cfg.clone()).run_until(at).unwrap() {
            // The run ended before `at`: nothing to snapshot this case.
            RunSplit::Done(_) => {}
            RunSplit::Paused(fabric) => {
                let doc = fabric.snapshot();
                let restored = Fabric::restore(&app.spec, &app.input, cfg, &doc)
                    .expect("own snapshot restores");
                assert_eq!(
                    restored.snapshot().render(),
                    doc.render(),
                    "{name} at {at} (faults {faults:?})"
                );
            }
        }
    }
}
