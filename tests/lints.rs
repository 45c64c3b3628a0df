//! Negative-path tests of the static analyzer: deliberately broken specs
//! and graphs must produce their exact stable `APIRxxx` diagnostics, and
//! seeded single-mutation corruptions of a healthy spec must never pass
//! the analyzer silently.

use apir::check::{check_all, check_bdfg_structure, check_spec, Lint, Severity};
use apir::core::bdfg::{Actor, ActorKind, Bdfg, Edge, EdgeKind};
use apir::core::expr::dsl::{c, eq, ev, param};
use apir::core::mem::MemAccess;
use apir::core::rule::{RuleAction, RuleDecl};
use apir::core::spec::{ExternIn, ExternOut, Spec, TaskSetKind};
use apir::core::TaskSetId;
use apir_util::props;
use std::sync::Arc;

fn has_at_least(report: &apir::check::Report, lint: Lint, floor: Severity) -> bool {
    report
        .diagnostics()
        .iter()
        .any(|d| d.lint == lint && d.severity >= floor)
}

// ---- liveness family (APIR0xx) ----

#[test]
fn waiting_rule_without_otherwise_is_apir001() {
    let mut s = Spec::new("dead-wait");
    let rule = s.rule(RuleDecl::new_waiting("w", 0, false));
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    let h = b.alloc_rule(rule, &[]);
    b.rendezvous(h);
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(
        &report,
        Lint::WaitingRuleNeverTrue,
        Severity::Error
    ));
    assert_eq!(Lint::WaitingRuleNeverTrue.code(), "APIR001");
    // `Spec::build` fails with the first error-level diagnostic.
    assert_eq!(s.build().unwrap_err().lint, Lint::WaitingRuleNeverTrue);
}

#[test]
fn countdown_out_of_range_is_apir003() {
    let mut s = Spec::new("bad-countdown");
    let rule = s.rule(RuleDecl::new("w", 1, true).with_countdown(5));
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    let x = b.field(0);
    let h = b.alloc_rule(rule, &[x]);
    b.rendezvous(h);
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(
        &report,
        Lint::CountdownOutOfRange,
        Severity::Error
    ));
    assert_eq!(s.build().unwrap_err().lint, Lint::CountdownOutOfRange);
}

#[test]
fn unguarded_requeue_is_apir002_warning() {
    let mut s = Spec::new("spinner");
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    let x = b.field(0);
    b.requeue(&[x], None);
    b.finish();
    let report = check_all(&s);
    assert!(has_at_least(
        &report,
        Lint::UnguardedRequeue,
        Severity::Warn
    ));
    // The recirculation loop also shows up in the BDFG as a cycle with no
    // decision actor.
    assert!(report.has(Lint::UndecidedCycle));
    // Warnings do not fail the build.
    assert!(s.build().is_ok());
}

// ---- BDFG family (APIR2xx) ----

#[test]
fn dangling_bdfg_edge_is_apir201() {
    let actors = vec![Actor {
        id: 0,
        kind: ActorKind::MemoryPort,
        label: "memory".to_string(),
    }];
    let edges = vec![Edge {
        from: 0,
        to: 7, // no such actor
        kind: EdgeKind::Data,
    }];
    let g = Bdfg::from_parts(actors, edges, 0);
    let report = check_bdfg_structure(&g);
    assert!(has_at_least(&report, Lint::DanglingEdge, Severity::Error));
    assert_eq!(Lint::DanglingEdge.code(), "APIR201");
    // The stringly-typed shim keeps its historical message shape.
    let err = g.validate().unwrap_err();
    assert!(err.contains("dangling edge"), "{err}");
}

#[test]
fn unfed_queue_pop_is_apir203() {
    let actors = vec![Actor {
        id: 0,
        kind: ActorKind::QueuePop(TaskSetId(0)),
        label: "pop:t".to_string(),
    }];
    let g = Bdfg::from_parts(actors, Vec::new(), 1);
    let report = check_bdfg_structure(&g);
    assert!(has_at_least(&report, Lint::UnfedQueuePop, Severity::Error));
    let err = g.validate().unwrap_err();
    assert!(err.contains("has no push feeding it"), "{err}");
}

#[test]
fn unclaimed_rule_lane_is_apir206() {
    let mut s = Spec::new("leaky");
    let rule = s.rule(RuleDecl::new("r", 0, true));
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    b.alloc_rule(rule, &[]);
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(
        &report,
        Lint::UnbalancedRuleTokens,
        Severity::Error
    ));
}

#[test]
fn switch_steer_guard_mismatch_is_apir207() {
    let mut s = Spec::new("skewed");
    let rule = s.rule(RuleDecl::new("r", 0, true));
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    let x = b.field(0);
    let h = b.alloc_rule_if(rule, &[], x);
    b.rendezvous(h); // missing the guard the alloc carries
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(&report, Lint::GuardMismatch, Severity::Error));
}

// ---- interface family (APIR3xx) ----

#[test]
fn arity_mismatched_enqueue_is_apir301() {
    let mut s = Spec::new("fat-enqueue");
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    let x = b.field(0);
    b.enqueue(ts, &[x, x], None); // set carries one field
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(
        &report,
        Lint::EnqueueArityMismatch,
        Severity::Error
    ));
    assert_eq!(Lint::EnqueueArityMismatch.code(), "APIR301");
    assert_eq!(s.build().unwrap_err().lint, Lint::EnqueueArityMismatch);
}

#[test]
fn event_field_beyond_payload_is_apir304() {
    let mut s = Spec::new("short-event");
    let l = s.label("commit");
    let rule = s.rule(RuleDecl::new("r", 1, true).on_label(
        l,
        eq(ev(3), param(0)), // emitters only provide one payload word
        RuleAction::Return(false),
    ));
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    let x = b.field(0);
    b.emit(l, &[x], None);
    let h = b.alloc_rule(rule, &[x]);
    b.rendezvous(h);
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(
        &report,
        Lint::EventFieldOutOfRange,
        Severity::Warn
    ));
}

#[test]
fn unused_extern_is_apir305() {
    let mut s = Spec::new("idle-core");
    s.extern_core(
        "idle",
        Arc::new(|_: &mut dyn MemAccess, _: &ExternIn<'_>| ExternOut::default()),
    );
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    b.field(0);
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(&report, Lint::UnusedExtern, Severity::Warn));
}

// ---- hazard family (APIR4xx) ----

#[test]
fn unguarded_cross_task_store_store_is_apir401() {
    let mut s = Spec::new("racer");
    let r = s.region("shared", 64);
    let a = s.task_set("writer_a", TaskSetKind::ForAll, 1, &["i"]);
    let bset = s.task_set("writer_b", TaskSetKind::ForAll, 1, &["i"]);
    for ts in [a, bset] {
        let mut b = s.body(ts);
        let i = b.field(0);
        let one = b.konst(1);
        b.store_plain(r, i, one);
        b.finish();
    }
    let report = check_spec(&s);
    assert!(has_at_least(&report, Lint::StoreStoreRace, Severity::Error));
    assert_eq!(Lint::StoreStoreRace.code(), "APIR401");
    assert_eq!(s.build().unwrap_err().lint, Lint::StoreStoreRace);
}

#[test]
fn rendezvous_guarded_store_pair_is_not_a_race() {
    // Same shape as the racer above, but one side commits only under a
    // rule verdict: the rule engine is the arbiter, so no APIR401.
    let mut s = Spec::new("arbitrated");
    let r = s.region("shared", 64);
    let rule = s.rule(RuleDecl::new("conflict", 1, true));
    let a = s.task_set("writer_a", TaskSetKind::ForAll, 1, &["i"]);
    let bset = s.task_set("writer_b", TaskSetKind::ForAll, 1, &["i"]);
    {
        let mut b = s.body(a);
        let i = b.field(0);
        let one = b.konst(1);
        let h = b.alloc_rule(rule, &[i]);
        let rv = b.rendezvous(h);
        b.store(r, i, one, apir::core::op::StoreKind::Plain, Some(rv));
        b.finish();
    }
    {
        let mut b = s.body(bset);
        let i = b.field(0);
        let one = b.konst(1);
        let h = b.alloc_rule(rule, &[i]);
        let rv = b.rendezvous(h);
        b.store(r, i, one, apir::core::op::StoreKind::Plain, Some(rv));
        b.finish();
    }
    let report = check_spec(&s);
    assert!(
        !report.has(Lint::StoreStoreRace),
        "{}",
        report.render_text()
    );
    assert!(s.build().is_ok());
}

#[test]
fn const_disjoint_plain_stores_are_not_a_race() {
    let mut s = Spec::new("disjoint");
    let r = s.region("shared", 64);
    let ts = s.task_set("t", TaskSetKind::ForAll, 1, &["v"]);
    let mut b = s.body(ts);
    let v = b.field(0);
    let zero = b.konst(0);
    let one = b.konst(1);
    b.store_plain(r, zero, v);
    b.store_plain(r, one, v);
    b.finish();
    let report = check_spec(&s);
    assert!(
        !report.has(Lint::StoreStoreRace),
        "{}",
        report.render_text()
    );
}

#[test]
fn load_against_plain_store_is_apir402() {
    let mut s = Spec::new("read-write");
    let r = s.region("shared", 64);
    let ts = s.task_set("t", TaskSetKind::ForAll, 1, &["i"]);
    let mut b = s.body(ts);
    let i = b.field(0);
    let v = b.load(r, i);
    b.store_plain(r, i, v);
    b.finish();
    let report = check_spec(&s);
    assert!(has_at_least(&report, Lint::LoadStoreRace, Severity::Warn));
    // A warning, not an error: the spec still builds (racy-by-design
    // specs are legal, the paper's runtime semantics allow them).
    assert!(s.build().is_ok());
}

// ---- fabric-config family (APIR5xx) ----

#[test]
fn zero_fabric_resource_is_apir501() {
    use apir::fabric::FabricConfig;
    let cfg = FabricConfig {
        pipelines_per_set: 0,
        ..FabricConfig::default()
    };
    let report = cfg.validate();
    assert!(has_at_least(
        &report,
        Lint::ZeroFabricResource,
        Severity::Error
    ));
    assert_eq!(Lint::ZeroFabricResource.code(), "APIR501");
    // The fabric refuses to run under a degenerate config.
    let mut s = apir::core::Spec::new("tiny");
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
    let mut b = s.body(ts);
    b.field(0);
    b.finish();
    let s = s.build().unwrap();
    let input = apir::core::ProgramInput::new(&s);
    let cfg = FabricConfig {
        pipelines_per_set: 0,
        ..FabricConfig::default()
    };
    let err = apir::fabric::Fabric::new(&s, &input, cfg)
        .run()
        .unwrap_err();
    match err {
        apir::fabric::FabricError::RejectedByLint { report } => {
            assert!(report.contains("APIR501"), "{report}");
        }
        other => panic!("expected lint rejection, got {other}"),
    }
}

#[test]
fn misordered_watchdog_is_apir502() {
    use apir::fabric::FabricConfig;
    let cfg = FabricConfig {
        rendezvous_timeout: 200_000,
        deadlock_cycles: 100_000,
        ..FabricConfig::default()
    };
    let report = cfg.validate();
    assert!(has_at_least(
        &report,
        Lint::WatchdogMisordered,
        Severity::Error
    ));
    assert_eq!(Lint::WatchdogMisordered.code(), "APIR502");
}

#[test]
fn fault_rate_out_of_range_is_apir503() {
    use apir::fabric::{FabricConfig, FaultConfig};
    let mut cfg = FabricConfig {
        faults: FaultConfig {
            drop_rate: 1.5,
            ..FaultConfig::default()
        },
        ..FabricConfig::default()
    };
    let report = cfg.validate();
    assert!(has_at_least(
        &report,
        Lint::FaultRateOutOfRange,
        Severity::Error
    ));
    assert_eq!(Lint::FaultRateOutOfRange.code(), "APIR503");
    // NaN is out of range too, not silently accepted.
    cfg.faults.drop_rate = f64::NAN;
    assert!(has_at_least(
        &cfg.validate(),
        Lint::FaultRateOutOfRange,
        Severity::Error
    ));
}

#[test]
fn degenerate_fault_plan_is_apir504() {
    use apir::fabric::{FabricConfig, FaultConfig};
    let mut cfg = FabricConfig {
        faults: FaultConfig {
            lane_fault_rate: 0.5,
            fault_window: 0,
            ..FaultConfig::default()
        },
        ..FabricConfig::default()
    };
    let report = cfg.validate();
    assert!(has_at_least(
        &report,
        Lint::DegenerateFaultPlan,
        Severity::Error
    ));
    assert_eq!(Lint::DegenerateFaultPlan.code(), "APIR504");
    // A drop plan whose retry clock never ticks is equally degenerate.
    cfg.faults = FaultConfig {
        drop_rate: 0.1,
        retry_timeout: 0,
        ..FaultConfig::default()
    };
    assert!(has_at_least(
        &cfg.validate(),
        Lint::DegenerateFaultPlan,
        Severity::Error
    ));
}

#[test]
fn rollback_without_checkpoint_is_apir505() {
    use apir::fabric::{FabricConfig, FaultConfig};
    let mut cfg = FabricConfig {
        max_rollbacks: 2,
        checkpoint_interval: 0,
        ..FabricConfig::default()
    };
    cfg.faults = FaultConfig::chaos(1);
    let report = cfg.validate();
    assert!(has_at_least(
        &report,
        Lint::RollbackWithoutCheckpoint,
        Severity::Error
    ));
    assert_eq!(Lint::RollbackWithoutCheckpoint.code(), "APIR505");
    // Arming the checkpoint clears the error.
    cfg.checkpoint_interval = 256;
    assert!(!cfg.validate().has_errors());
}

#[test]
fn checkpoint_never_fires_is_apir506() {
    use apir::fabric::FabricConfig;
    let cfg = FabricConfig {
        checkpoint_interval: 10_000_000,
        max_cycles: 1_000_000,
        ..FabricConfig::default()
    };
    let report = cfg.validate();
    assert!(has_at_least(
        &report,
        Lint::CheckpointNeverFires,
        Severity::Warn
    ));
    assert_eq!(Lint::CheckpointNeverFires.code(), "APIR506");
    // A warning, not an error: the cycle-0 checkpoint still exists, so
    // the config is odd but runnable.
    assert!(!report.has_errors());
}

#[test]
fn rollback_without_faults_is_apir507() {
    use apir::fabric::FabricConfig;
    let cfg = FabricConfig {
        max_rollbacks: 4,
        checkpoint_interval: 256,
        ..FabricConfig::default()
    };
    let report = cfg.validate();
    assert!(has_at_least(
        &report,
        Lint::RollbackWithoutFaults,
        Severity::Info
    ));
    assert_eq!(Lint::RollbackWithoutFaults.code(), "APIR507");
    assert!(!report.has_errors());
}

#[test]
fn builtin_fabric_configs_are_lint_clean() {
    for (name, cfg) in apir::check::builtin_fabric_configs() {
        let report = cfg.validate();
        assert!(
            !report.has_errors(),
            "{name} has config errors:\n{}",
            report.render_text()
        );
    }
}

// ---- seeded single-mutation corruption sweep ----

/// Builds one corrupted spec per mutation kind, returning the lint the
/// analyzer must raise (with the floor severity it must reach), or `None`
/// for the healthy control arm.
fn mutant(kind: u32) -> (Spec, Option<(Lint, Severity)>) {
    let mut s = Spec::new(format!("mutant-{kind}"));
    let r = s.region("data", 64);
    match kind {
        0 => {
            let rule = s.rule(RuleDecl::new_waiting("w", 0, false));
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let h = b.alloc_rule(rule, &[]);
            b.rendezvous(h);
            b.finish();
            (s, Some((Lint::WaitingRuleNeverTrue, Severity::Error)))
        }
        1 => {
            let rule = s.rule(RuleDecl::new("w", 1, true).with_countdown(3));
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let x = b.field(0);
            let h = b.alloc_rule(rule, &[x]);
            b.rendezvous(h);
            b.finish();
            (s, Some((Lint::CountdownOutOfRange, Severity::Error)))
        }
        2 => {
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let x = b.field(0);
            b.enqueue(ts, &[x, x], None);
            b.finish();
            (s, Some((Lint::EnqueueArityMismatch, Severity::Error)))
        }
        3 => {
            let rule = s.rule(RuleDecl::new("w", 2, true));
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let x = b.field(0);
            let h = b.alloc_rule(rule, &[x]);
            b.rendezvous(h);
            b.finish();
            (s, Some((Lint::RuleParamArityMismatch, Severity::Error)))
        }
        4 => {
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let x = b.field(0);
            b.rendezvous(x);
            b.finish();
            (s, Some((Lint::RendezvousWithoutAlloc, Severity::Error)))
        }
        5 => {
            let rule = s.rule(RuleDecl::new("w", 0, true));
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            b.alloc_rule(rule, &[]);
            b.finish();
            (s, Some((Lint::UnbalancedRuleTokens, Severity::Error)))
        }
        6 => {
            let rule = s.rule(RuleDecl::new("w", 0, true));
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let x = b.field(0);
            let h = b.alloc_rule_if(rule, &[], x);
            b.rendezvous(h);
            b.finish();
            (s, Some((Lint::GuardMismatch, Severity::Error)))
        }
        7 => {
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let x = b.field(0);
            b.requeue(&[x], None);
            b.finish();
            (s, Some((Lint::UnguardedRequeue, Severity::Warn)))
        }
        8 => {
            let ta = s.task_set("a", TaskSetKind::ForAll, 1, &["i"]);
            let tb = s.task_set("b", TaskSetKind::ForAll, 1, &["i"]);
            for ts in [ta, tb] {
                let mut b = s.body(ts);
                let i = b.field(0);
                b.store_plain(r, i, i);
                b.finish();
            }
            (s, Some((Lint::StoreStoreRace, Severity::Error)))
        }
        9 => {
            let ghost = s.label("ghost");
            let rule = s.rule(RuleDecl::new("w", 0, true).on_label(
                ghost,
                c(1),
                RuleAction::Return(false),
            ));
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let h = b.alloc_rule(rule, &[]);
            b.rendezvous(h);
            b.finish();
            (s, Some((Lint::UnemittedLabel, Severity::Error)))
        }
        _ => {
            // Healthy control: guarded store under a rule verdict, a label
            // the rule actually listens on, a claimed lane.
            let l = s.label("commit");
            let rule = s.rule(RuleDecl::new("w", 1, true).on_label(
                l,
                eq(ev(0), param(0)),
                RuleAction::Return(false),
            ));
            let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
            let mut b = s.body(ts);
            let x = b.field(0);
            b.emit(l, &[x], None);
            let h = b.alloc_rule(rule, &[x]);
            let rv = b.rendezvous(h);
            b.store(r, x, x, apir::core::op::StoreKind::Plain, Some(rv));
            b.finish();
            (s, None)
        }
    }
}

props! {
    cases = 64;

    /// Any single seeded corruption of a healthy spec is caught by the
    /// analyzer with at least the expected lint at its floor severity; the
    /// healthy control arm stays clean.
    fn single_mutation_never_passes_silently(g) {
        let kind = g.gen_range(0u32..11);
        let (spec, expected) = mutant(kind);
        let report = check_all(&spec);
        match expected {
            Some((lint, floor)) => {
                assert!(
                    report.diagnostics().iter().any(|d| d.lint == lint && d.severity >= floor),
                    "mutation {kind} passed silently; report:\n{}",
                    report.render_text()
                );
            }
            None => {
                assert!(
                    !report.has_errors(),
                    "control spec has errors:\n{}",
                    report.render_text()
                );
            }
        }
    }
}
