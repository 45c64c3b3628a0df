//! Robustness-path tests: the progress watchdog's escalation ladder,
//! rendezvous timeout bounces, the partial reports carried by every
//! runtime error (`Deadlock`, `MaxCycles`, `LinkFailed`), and the
//! checkpoint/rollback ladder that turns terminal link failures into
//! bounded rollback-and-replay recoveries; also the metrics a snapshot
//! saves when it pauses after a quiescent jump or on the cycle of a
//! watchdog escalation.

use apir::bench::experiments::app_cfg;
use apir::bench::scale::build_app;
use apir::bench::Scale;
use apir::core::interp::SeqInterp;
use apir::core::op::AluOp;
use apir::core::spec::{Spec, TaskSetKind};
use apir::core::ProgramInput;
use apir::fabric::{Fabric, FabricConfig, FabricError, FaultConfig, RunSplit};
use apir_util::json::Json;

/// A one-task spec whose only work is a cold-cache load: the miss's QPI
/// round trip is the longest silent (no-progress) stretch the fabric has.
fn one_miss_spec() -> (Spec, ProgramInput) {
    let mut s = Spec::new("one-miss");
    let r = s.region("data", 64);
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["i"]);
    let mut b = s.body(ts);
    let i = b.field(0);
    let v = b.load(r, i);
    let one = b.konst(1);
    let v1 = b.alu(AluOp::Add, v, one);
    b.store_plain(r, i, v1);
    b.finish();
    let s = s.build().unwrap();
    let mut input = ProgramInput::new(&s);
    input.seed(&s, ts, &[0]);
    (s, input)
}

#[test]
fn watchdog_escalation_rescues_a_slow_miss() {
    // Shrink the watchdog window below the miss latency: the silent QPI
    // round trip trips the watchdog, the free escalation runs (a no-op
    // here — nothing to force or flush), and the run must then complete
    // instead of being declared dead.
    let (s, input) = one_miss_spec();
    let cfg = FabricConfig {
        deadlock_cycles: 30,
        rendezvous_timeout: 16,
        ..FabricConfig::default()
    };
    let report = Fabric::new(&s, &input, cfg)
        .run()
        .expect("escalation must rescue the stalled miss");
    assert_eq!(report.retired, vec![1]);
    assert!(
        report.faults.watchdog_escalations >= 1,
        "the watchdog never fired: {:?}",
        report.faults
    );
}

#[test]
fn true_deadlock_carries_partial_report_and_diagnostics() {
    // Strangle the QPI link so the miss can never be admitted: the first
    // watchdog window escalates (futile), the second declares deadlock.
    // The error must carry the partial report and the extended
    // diagnostics (queue occupancy, in-flight transfer ages).
    let (s, input) = one_miss_spec();
    let mut cfg = FabricConfig {
        deadlock_cycles: 100,
        rendezvous_timeout: 16,
        ..FabricConfig::default()
    };
    cfg.mem.qpi_gbps = 1e-9;
    let err = Fabric::new(&s, &input, cfg).run().unwrap_err();
    let FabricError::Deadlock {
        cycle,
        ref diagnostics,
        ..
    } = err
    else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(cycle > 100, "deadlock declared too early at {cycle}");
    assert!(
        diagnostics.contains("mshr_ages"),
        "missing MSHR ages: {diagnostics}"
    );
    let report = err.partial_report().expect("deadlock carries a report");
    assert_eq!(report.cycles, cycle);
    assert!(
        report.faults.watchdog_escalations >= 1,
        "deadlock must only be declared after an escalation attempt"
    );
    // The partial report still renders valid deterministic JSON.
    let doc = apir_util::json::parse(&report.to_json()).expect("valid JSON");
    assert!(doc.get("faults").is_some());
}

#[test]
fn exhausted_link_retries_escalate_to_link_failed() {
    // Certain drop: every QPI admission is lost, the bounded retry ladder
    // runs dry, and the fabric reports the permanent link failure with a
    // partial report instead of spinning forever.
    let (s, input) = one_miss_spec();
    let cfg = FabricConfig {
        faults: FaultConfig {
            seed: 7,
            drop_rate: 1.0,
            retry_timeout: 4,
            max_retries: 2,
            ..FaultConfig::default()
        },
        ..FabricConfig::default()
    };
    let err = Fabric::new(&s, &input, cfg).run().unwrap_err();
    let FabricError::LinkFailed {
        cycle,
        ref diagnostics,
        ..
    } = err
    else {
        panic!("expected LinkFailed, got {err}");
    };
    assert!(cycle > 0);
    assert!(
        diagnostics.contains("dropped"),
        "diagnostics must name the lost transfer: {diagnostics}"
    );
    let report = err.partial_report().expect("link failure carries a report");
    assert_eq!(report.faults.link_escalated, 1);
    assert!(report.faults.link_dropped > report.faults.link_retried);
}

#[test]
fn partial_report_json_stamps_the_terminal_cause() {
    // Satellite: `terminated: {kind, cycle}` must ride on the partial
    // report document, so campaign error records and snapshots agree on
    // where a run died.
    let (s, input) = one_miss_spec();
    let mut cfg = FabricConfig {
        deadlock_cycles: 100,
        rendezvous_timeout: 16,
        ..FabricConfig::default()
    };
    cfg.mem.qpi_gbps = 1e-9;
    let err = Fabric::new(&s, &input, cfg).run().unwrap_err();
    let FabricError::Deadlock { cycle, .. } = err else {
        panic!("expected Deadlock, got {err}");
    };
    let doc = err
        .partial_report_json()
        .expect("deadlock carries a report");
    let t = doc.get("terminated").expect("terminated stamp present");
    assert_eq!(t.get("kind").unwrap().as_str(), Some("deadlock"));
    assert_eq!(t.get("cycle").unwrap().as_u64(), Some(cycle));
    // Same stamp for a permanent link failure.
    let cfg = FabricConfig {
        faults: FaultConfig {
            seed: 7,
            drop_rate: 1.0,
            retry_timeout: 4,
            max_retries: 2,
            ..FaultConfig::default()
        },
        ..FabricConfig::default()
    };
    let err = Fabric::new(&s, &input, cfg).run().unwrap_err();
    let doc = err
        .partial_report_json()
        .expect("link failure carries a report");
    let t = doc.get("terminated").unwrap();
    assert_eq!(t.get("kind").unwrap().as_str(), Some("link_failed"));
    assert_eq!(
        t.get("cycle").unwrap().as_u64(),
        err.failure_cycle(),
        "stamp and accessor agree"
    );
}

/// A drop plan harsh enough that *some* seed exhausts the retry ladder
/// (`max_retries: 1` means one double-drop kills the link) but mild
/// enough that the run as a whole is survivable once the doomed window
/// is replayed under a fresh salt.
fn flaky_link(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop_rate: 0.03,
        retry_timeout: 4,
        max_retries: 1,
        ..FaultConfig::default()
    }
}

#[test]
fn rollback_recovery_completes_a_run_that_link_failure_killed() {
    // Acceptance: find a chaos seed whose run dies with LinkFailed when
    // rollbacks are off, then re-run the *same* seed with periodic
    // checkpoints and bounded rollback armed — it must now complete,
    // pass the app checker, surface `fault.rollback.*`, and rerun
    // byte-identically.
    let name = "SPEC-BFS";
    let app = build_app(name, Scale::Tiny);
    let base = |seed: u64| {
        let mut cfg = app_cfg(&app.spec, &app.input, &app.tune);
        cfg.faults = flaky_link(seed);
        cfg
    };
    let mut recovered = None;
    for seed in 0..64 {
        let doomed = Fabric::new(&app.spec, &app.input, base(seed)).run();
        let Err(FabricError::LinkFailed { cycle, .. }) = doomed else {
            continue;
        };
        let mut cfg = base(seed);
        cfg.checkpoint_interval = 256;
        cfg.max_rollbacks = 16;
        let Ok(report) = Fabric::new(&app.spec, &app.input, cfg.clone()).run() else {
            // This seed is doomed even with replay headroom; keep looking.
            continue;
        };
        recovered = Some((seed, cycle, cfg, report));
        break;
    }
    let (seed, fail_cycle, cfg, report) =
        recovered.expect("no seed in 0..64 exercised the rollback ladder");

    // The recovery is real: the checker passes and the report says how
    // many times the fabric rewound.
    (app.check)(&report.mem_image)
        .unwrap_or_else(|e| panic!("seed {seed}: recovered image is bad: {e}"));
    let rb = report
        .rollbacks
        .as_ref()
        .expect("armed rollback always reports its block");
    assert!(rb.count > 0, "seed {seed}: completed without rolling back");
    assert_eq!(rb.events.len() as u64, rb.count);
    assert!(
        rb.events.iter().any(|&(fail, resume)| fail >= resume),
        "rollback events rewind: {:?}",
        rb.events
    );
    assert_eq!(
        report.metrics.counter("fault.rollback.count"),
        Some(rb.count),
        "metrics and report block agree"
    );
    assert!(
        report
            .metrics
            .counter("fault.rollback.replayed_cycles")
            .unwrap()
            >= 1,
        "replay must cover at least the doomed stretch"
    );
    assert_eq!(
        report.metrics.counter("fault.rollback.replayed_cycles"),
        Some(rb.replayed_cycles),
        "seed {seed}"
    );
    assert_eq!(
        report.metrics.counter("fault.rollback.last_cycle"),
        rb.events.last().map(|e| e.0),
        "seed {seed}"
    );
    // The first rollback fires at or after the cycle the unprotected
    // run died at (same seed, same fault stream up to that point).
    assert_eq!(rb.events[0].0, fail_cycle, "seed {seed}");

    // Deterministic: the same armed config reruns byte-identically.
    let again = Fabric::new(&app.spec, &app.input, cfg).run().unwrap();
    assert_eq!(report.to_json(), again.to_json(), "seed {seed}");
}

#[test]
fn unarmed_runs_report_no_rollback_surface() {
    // Golden protection: with `max_rollbacks == 0` (the default), the
    // report has no `rollbacks` block and no `fault.rollback.*` keys,
    // so every pre-rollback golden stays byte-identical.
    let name = "SPEC-BFS";
    let app = build_app(name, Scale::Tiny);
    let cfg = app_cfg(&app.spec, &app.input, &app.tune);
    let report = Fabric::new(&app.spec, &app.input, cfg).run().unwrap();
    assert!(report.rollbacks.is_none());
    assert_eq!(report.metrics.counter("fault.rollback.count"), None);
    assert!(!report.to_json().contains("rollback"));
}

#[test]
fn rendezvous_timeouts_bounce_and_still_retire() {
    // Satellite: pin the bounce path. COOR-BFS parks tasks in rendezvous
    // stations waiting for the serializing rule; with a tiny timeout they
    // bounce (verdict false), requeue, and retry — the run must still
    // retire everything and produce the exact interpreter image.
    let name = "COOR-BFS";
    let app = build_app(name, Scale::Tiny);
    let mut cfg = app_cfg(&app.spec, &app.input, &app.tune);
    cfg.rendezvous_timeout = 8;
    let report = Fabric::new(&app.spec, &app.input, cfg)
        .run()
        .expect("bounced run still completes");
    assert!(report.bounces > 0, "timeout never bounced anyone");
    (app.check)(&report.mem_image).expect("bounced run is still correct");
    let seq = SeqInterp::run(&app.spec, &app.input).unwrap();
    assert_eq!(
        seq.mem,
        report.mem_image,
        "bounces must not change the final image: {:?}",
        seq.mem.diff(&report.mem_image, 8)
    );
}

/// FNV-1a, which pins rendered snapshot bytes as in `tests/stall_golden.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn partial_reports_of_every_terminal_kind_are_pinned() {
    // The rendered partial report of each runtime failure, pinned as
    // FNV-1a: the deadlock and the link failure of the tests above, and
    // SPEC-MST under chaos cut off by `max_cycles`.
    let (s, input) = one_miss_spec();
    let mut strangled = FabricConfig {
        deadlock_cycles: 100,
        rendezvous_timeout: 16,
        ..FabricConfig::default()
    };
    strangled.mem.qpi_gbps = 1e-9;
    let dropping = FabricConfig {
        faults: FaultConfig {
            seed: 7,
            drop_rate: 1.0,
            retry_timeout: 4,
            max_retries: 2,
            ..FaultConfig::default()
        },
        ..FabricConfig::default()
    };
    let name = "SPEC-MST";
    let app = build_app(name, Scale::Tiny);
    let mut capped = app_cfg(&app.spec, &app.input, &app.tune);
    capped.faults = FaultConfig::chaos(7);
    capped.max_cycles = 2000;
    let runs = [
        (
            Fabric::new(&s, &input, strangled).run(),
            "deadlock",
            0x9692_5925_52a4_5d55,
        ),
        (
            Fabric::new(&s, &input, dropping).run(),
            "link_failed",
            0xca91_e8e9_2f9b_859f,
        ),
        (
            Fabric::new(&app.spec, &app.input, capped).run(),
            "max_cycles",
            0xf3d6_7eeb_f5be_4675,
        ),
    ];
    for (run, kind, fnv) in runs {
        let Err(err) = run else {
            panic!("{kind}: the run finished");
        };
        assert_eq!(err.kind(), kind);
        let text = err
            .partial_report_json()
            .expect("a partial report")
            .render();
        assert_eq!(fnv1a(text.as_bytes()), fnv, "{kind}: {} bytes", text.len());
    }
}

#[test]
fn mid_run_snapshots_save_the_metrics_of_the_pause_cycle() {
    // A snapshot saves the state of the pause cycle, its per-cycle
    // samples included. Two pauses on the one-miss spec with a strangled
    // link are where samples kept apart from that state would lag it:
    // after a quiescent jump, and on the cycle the watchdog escalates
    // (the escalation runs after that cycle's tick).
    let (s, input) = one_miss_spec();
    let mut cfg = FabricConfig {
        deadlock_cycles: 100,
        rendezvous_timeout: 16,
        ..FabricConfig::default()
    };
    cfg.mem.qpi_gbps = 1e-9;
    let pause = |target: u64| match Fabric::new(&s, &input, cfg.clone()).run_until(target) {
        Ok(RunSplit::Paused(f)) => f,
        Ok(RunSplit::Done(_)) => panic!("finished before cycle {target}"),
        Err(e) => panic!("run_until({target}): {e}"),
    };
    // (target, pause cycle, `core.wd_escalations`, snapshot FNV-1a)
    let cases = [
        (100, 104, 0, 0xc1d9_2275_1f17_c440),
        (105, 105, 1, 0x555b_9553_c178_9818),
    ];
    for (target, cycle, escalations, fnv) in cases {
        let doc = pause(target).snapshot();
        let text = doc.render();
        let core = doc.get("core").expect("core member");
        let got = (
            doc.get("cycle").and_then(Json::as_u64),
            core.get("wd_escalations").and_then(Json::as_u64),
            fnv1a(text.as_bytes()),
        );
        let want = (Some(cycle), Some(escalations), fnv);
        assert_eq!(got, want, "run_until({target})");
        // A restored fabric pauses again before its first tick, so it
        // must save the same bytes.
        let restored = Fabric::restore(&s, &input, cfg.clone(), &doc)
            .unwrap_or_else(|e| panic!("run_until({target}): {e}"));
        let Ok(RunSplit::Paused(again)) = restored.run_until(cycle) else {
            panic!("run_until({target}): the restored fabric did not pause");
        };
        assert_eq!(again.snapshot().render(), text, "run_until({target})");
    }
}
