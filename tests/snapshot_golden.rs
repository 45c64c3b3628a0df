//! Format stability of `apir.fabric.snapshot.v1` across builds.
//!
//! `snapshot_equiv.rs` proves a build restores its own documents; these
//! tests pin the bytes themselves. Each retakes a pause the way
//! `apir-trace snapshot` builds it (synthesized config, scaled cache,
//! app tune) and compares the compact rendering with a document
//! committed under `tests/golden/`. A codec change that moves a single
//! byte fails here and names the first differing key, as
//! `apir-trace diff` would.

use apir::bench::experiments::app_cfg;
use apir::bench::scale::build_app;
use apir::bench::Scale;
use apir::fabric::{Fabric, FaultConfig, RunSplit};
use apir::trace::{diff_docs, DiffLine};
use apir_util::json::parse;

/// One pinned pause: app, pause cycle, trace capacity, chaos seed, and
/// timeline window (0 leaves the recorder off).
struct Pause {
    app: &'static str,
    at: u64,
    trace_capacity: usize,
    faults: Option<u64>,
    timeline_window: u64,
}

fn retake(p: &Pause) -> String {
    let app = build_app(p.app, Scale::Tiny);
    let mut cfg = app_cfg(&app.spec, &app.input, &app.tune);
    cfg.trace_capacity = p.trace_capacity;
    if let Some(seed) = p.faults {
        cfg.faults = FaultConfig::chaos(seed);
    }
    cfg.timeline_window = p.timeline_window;
    match Fabric::new(&app.spec, &app.input, cfg).run_until(p.at) {
        Ok(RunSplit::Paused(fabric)) => fabric.snapshot().render(),
        Ok(RunSplit::Done(_)) => panic!("{} finished before cycle {}", p.app, p.at),
        Err(e) => panic!("{} failed before cycle {}: {e}", p.app, p.at),
    }
}

fn check(p: &Pause, golden: &str) {
    let got = retake(p);
    if got == golden {
        return;
    }
    let first = match (parse(golden), parse(&got)) {
        (Ok(want), Ok(have)) => match diff_docs(&want, &have) {
            Ok(lines) => lines
                .first()
                .map_or("member order".into(), DiffLine::render),
            Err(e) => e,
        },
        (Err(e), _) | (_, Err(e)) => format!("unparsable document: {e}"),
    };
    panic!(
        "{} at cycle {}: snapshot bytes differ from the golden doc; first differing key: {first}",
        p.app, p.at
    );
}

#[test]
fn spec_bfs_at_400_matches_the_golden_doc() {
    // The `verify.sh` pause, with the CLI defaults.
    let p = Pause {
        app: "SPEC-BFS",
        at: 400,
        trace_capacity: 1 << 16,
        faults: None,
        timeline_window: 0,
    };
    check(&p, include_str!("golden/spec_bfs_400.json"));
}

#[test]
fn spec_mst_chaos_at_2000_matches_the_golden_doc() {
    // Occupied and fault-masked rule lanes, fault RNG cursors, and a
    // trace ring that has dropped records.
    let p = Pause {
        app: "SPEC-MST",
        at: 2000,
        trace_capacity: 256,
        faults: Some(7),
        timeline_window: 0,
    };
    check(&p, include_str!("golden/spec_mst_2000_chaos7.json"));
}

#[test]
fn coor_lu_chaos_timeline_at_20_matches_the_golden_doc() {
    // Queued and busy extern requests, and a timeline ring holding
    // closed windows.
    let p = Pause {
        app: "COOR-LU",
        at: 20,
        trace_capacity: 256,
        faults: Some(7),
        timeline_window: 8,
    };
    check(&p, include_str!("golden/coor_lu_20_chaos7_timeline.json"));
}
