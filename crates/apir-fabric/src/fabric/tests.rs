//! The derived tick state against the state it is derived from, after
//! every tick of the six apps.

use super::*;
use crate::FaultConfig;
use apir_bench::scale::build_app;
use apir_bench::Scale;
use std::collections::BTreeSet;

const APPS: [&str; 6] = [
    "SPEC-BFS",
    "COOR-BFS",
    "SPEC-SSSP",
    "SPEC-MST",
    "SPEC-DMR",
    "COOR-LU",
];

/// The live count and cached least task against an ordered set of the
/// walk's keys, and the channel waiter count against the pipelines'
/// channel bits, each on a stage that will push a request when it is
/// visited: one that latches a context and has a station slot for it,
/// and that sleeps until the channel has room for it. A rendezvous stage
/// with an entry waiting in its station is awake, since only a visit
/// bounces that entry when it times out.
fn check(f: &Fabric) {
    let at = f.cycle;
    let keys: BTreeSet<_> = f.held_tasks().collect();
    assert_eq!(
        f.held_tasks().count(),
        keys.len(),
        "cycle {at}: a task is held twice"
    );
    assert_eq!(f.live.count, keys.len(), "cycle {at}: live count");
    if !f.live.stale {
        assert_eq!(
            f.live.min,
            keys.first().copied(),
            "cycle {at}: least live task"
        );
    }
    let mut waiting = 0;
    for p in f.pipelines.iter() {
        for (i, st) in p.stages.iter().enumerate() {
            let awake = p.awake[i / 64] & (1 << (i % 64)) != 0;
            if st.rule.is_some() {
                let parked = st.station.as_ref().map_or(0, OutOfOrderStation::waiting);
                assert!(
                    parked == 0 || awake,
                    "cycle {at}: rendezvous stage {i} sleeps on {parked} waiting entries"
                );
            }
            if p.chan[i / 64] & (1 << (i % 64)) == 0 {
                continue;
            }
            waiting += 1;
            let slot = st
                .station
                .as_ref()
                .is_some_and(OutOfOrderStation::can_insert);
            assert!(
                p.latches[i].is_some() && slot,
                "cycle {at}: stage {i} cannot push"
            );
            assert!(!awake, "cycle {at}: stage {i} waits on the channel awake");
        }
    }
    assert_eq!(f.chan_waiting, waiting, "cycle {at}: channel waiters");
}

/// Runs `app` one tick at a time, checking after every tick, and
/// returns the report.
fn run_checked(app: &str, scale: Scale, cfg: FabricConfig) -> FabricReport {
    let app = build_app(app, scale);
    let mut f = Fabric::new(&app.spec, &app.input, cfg);
    loop {
        let next = f.cycle + 1;
        match f.run_until(next) {
            Ok(RunSplit::Paused(paused)) => f = *paused,
            Ok(RunSplit::Done(report)) => return *report,
            Err(e) => panic!("{}: {e}", app.name),
        }
        check(&f);
    }
}

#[test]
fn live_tasks_and_channel_waiters_match_the_state_after_every_tick() {
    for app in APPS {
        let report = run_checked(app, Scale::Tiny, FabricConfig::default());
        assert!(report.total_retired() > 0, "{app}");
        let cfg = FabricConfig {
            faults: FaultConfig::chaos(3),
            ..FabricConfig::default()
        };
        let report = run_checked(app, Scale::Tiny, cfg);
        assert_ne!(
            report.faults,
            FaultStats::default(),
            "{app}: no fault was injected"
        );
    }
    // A watchdog window shorter than a miss escalates, which reads the
    // least live task outside the tick.
    let cfg = FabricConfig {
        deadlock_cycles: 30,
        rendezvous_timeout: 16,
        ..FabricConfig::default()
    };
    let report = run_checked("COOR-BFS", Scale::Tiny, cfg);
    assert!(report.faults.watchdog_escalations > 0);
    // No tiny run holds enough tasks to fill the 256-entry request
    // channel; eight pipelines on a small road network with a short queue
    // do.
    let cfg = FabricConfig {
        pipelines_per_set: 8,
        queue_capacity: 64,
        queue_banks: 2,
        ..FabricConfig::default()
    };
    let report = run_checked("SPEC-SSSP", Scale::Small, cfg);
    let stalls = report.activity.totals();
    assert!(stalls
        .stall_causes()
        .any(|(c, n)| c == StallCause::Bandwidth && n > 0));
}
