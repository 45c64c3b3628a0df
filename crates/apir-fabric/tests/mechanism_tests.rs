//! Tests for the fabric's liveness mechanisms: the NACK lane allocator,
//! priority eviction, the recirculation queue reserve, the rendezvous
//! bounce timeout, and retirement recording.

use apir_core::op::AluOp;
use apir_core::rule::RuleDecl;
use apir_core::spec::{Spec, TaskSetKind};
use apir_core::{IndexTuple, MemAccess, ProgramInput};
use apir_fabric::queue::TaskQueue;
use apir_fabric::rules::{AllocOutcome, ClaimOutcome, RuleEngine};
use apir_fabric::types::to_fields;
use apir_fabric::{Fabric, FabricConfig};

#[test]
fn nack_buffers_false_for_later_requester() {
    let mut e = RuleEngine::new(RuleDecl::new_waiting("r", 0, true), 1);
    assert_eq!(
        e.alloc(IndexTuple::new(&[1]), 1, to_fields(&[]), 10),
        AllocOutcome::Granted
    );
    // Later task: no lane, no eviction — nacked with a buffered false.
    assert_eq!(
        e.alloc(IndexTuple::new(&[5]), 5, to_fields(&[]), 11),
        AllocOutcome::Nacked
    );
    assert_eq!(e.claim(11, 0), ClaimOutcome::Ready(false));
    // The earlier holder is untouched.
    assert_eq!(e.occupied(), 1);
}

#[test]
fn earlier_requester_evicts_latest_holder() {
    let mut e = RuleEngine::new(RuleDecl::new_waiting("r", 0, true), 2);
    assert_eq!(
        e.alloc(IndexTuple::new(&[5]), 5, to_fields(&[]), 1),
        AllocOutcome::Granted
    );
    assert_eq!(
        e.alloc(IndexTuple::new(&[9]), 9, to_fields(&[]), 2),
        AllocOutcome::Granted
    );
    // Earlier task arrives: evicts tag 2 (the latest holder).
    assert_eq!(
        e.alloc(IndexTuple::new(&[1]), 1, to_fields(&[]), 3),
        AllocOutcome::Granted
    );
    assert_eq!(e.stats().evictions, 1);
    // The evicted instance reads a buffered false.
    assert_eq!(e.claim(2, 0), ClaimOutcome::Ready(false));
    // Tag 1 and tag 3 still hold lanes.
    assert_eq!(e.occupied(), 2);
}

#[test]
fn cancel_is_idempotent_and_frees_lane() {
    let mut e = RuleEngine::new(RuleDecl::new_waiting("r", 0, true), 1);
    assert_eq!(
        e.alloc(IndexTuple::new(&[1]), 1, to_fields(&[]), 7),
        AllocOutcome::Granted
    );
    e.cancel(7);
    e.cancel(7);
    assert_eq!(e.occupied(), 0);
    assert_eq!(
        e.alloc(IndexTuple::new(&[2]), 2, to_fields(&[]), 8),
        AllocOutcome::Granted
    );
}

#[test]
fn queue_reserve_blocks_ordinary_pushes_only() {
    let mut q = TaskQueue::new(TaskSetKind::ForEach, 1, 1, 8);
    q.set_reserve(4);
    // Ordinary pushes stop at capacity - reserve.
    for i in 0..4u64 {
        assert!(q.can_push(), "push {i}");
        q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
    }
    assert!(!q.can_push());
    // Recirculation still fits.
    assert!(q.can_push_reserved());
    let t = apir_fabric::types::TaskToken {
        index: IndexTuple::new(&[0]),
        seq: 99,
        fields: to_fields(&[9]),
    };
    assert!(q.push_fixed(t));
    assert_eq!(q.len(), 5);
}

#[test]
fn reserve_clamped_to_half_capacity() {
    let mut q = TaskQueue::new(TaskSetKind::ForEach, 1, 1, 8);
    q.set_reserve(100);
    // Half the capacity remains for ordinary pushes.
    for i in 0..4u64 {
        assert!(q.can_push());
        q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
    }
    assert!(!q.can_push());
}

/// A pathological spec where every task allocates a waiting rule that
/// only the minimum can exit, with one lane: the NACK allocator plus the
/// bounce timeout must drive it to completion instead of deadlocking.
#[test]
fn one_lane_many_waiters_completes() {
    let mut s = Spec::new("starve");
    let out = s.region("out", 64);
    let rule = s.rule(RuleDecl::new_waiting("turnstile", 0, true));
    let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["id"]);
    let mut b = s.body(ts);
    let id = b.field(0);
    let h = b.alloc_rule(rule, &[]);
    let rv = b.rendezvous(h);
    let one = b.konst(1);
    b.store(out, id, one, apir_core::op::StoreKind::Plain, Some(rv));
    let zero = b.konst(0);
    let denied = b.alu(AluOp::Eq, rv, zero);
    b.requeue(&[id], Some(denied));
    b.finish();
    let s = s.build().unwrap();
    let mut input = ProgramInput::new(&s);
    for i in 0..40u64 {
        input.seed(&s, ts, &[i]);
    }
    let cfg = FabricConfig {
        rule_lanes: 1,
        pipelines_per_set: 2,
        rendezvous_timeout: 64,
        ..FabricConfig::default()
    };
    let report = Fabric::new(&s, &input, cfg).run().expect("completes");
    for i in 0..40u64 {
        assert_eq!(report.mem_image.read(out, i), 1, "task {i} committed");
    }
}

#[test]
fn retirement_log_matches_counts() {
    let mut s = Spec::new("log");
    let r = s.region("cells", 64);
    let ts = s.task_set("t", TaskSetKind::ForAll, 1, &["i"]);
    let mut b = s.body(ts);
    let i = b.field(0);
    b.store_plain(r, i, i);
    b.finish();
    let s = s.build().unwrap();
    let mut input = ProgramInput::new(&s);
    for i in 0..20u64 {
        input.seed(&s, ts, &[i]);
    }
    let cfg = FabricConfig {
        trace_capacity: 1 << 12,
        ..FabricConfig::default()
    };
    let report = Fabric::new(&s, &input, cfg).run().unwrap();
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(trace.dropped(), 0);
    let retires: Vec<_> = trace.records().filter(|r| r.event == "retire").collect();
    // Each record counts the retirements of one pipeline in one cycle,
    // within the run and in cycle order.
    assert_eq!(retires.iter().map(|r| r.value).sum::<u64>(), 20);
    assert!(retires.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    for r in &retires {
        assert!(r.cycle <= report.cycles);
        assert!(trace.component_name(r.comp).starts_with("pipe:t#"));
    }
    // Without a trace, nothing is recorded.
    let report2 = Fabric::new(&s, &input, FabricConfig::default())
        .run()
        .unwrap();
    assert!(report2.trace.is_none());
}

/// The paper's liveness property: under any (tiny) resource combination
/// a waiting-rule workload still quiesces.
#[test]
fn liveness_grid_over_tiny_resources() {
    for lanes in [1usize, 3] {
        for window in [2usize, 4] {
            for timeout in [32u64, 256] {
                let mut s = Spec::new("grid");
                let out = s.region("out", 4);
                let rule = s.rule(RuleDecl::new_waiting("w", 0, true));
                let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
                let mut b = s.body(ts);
                let x = b.field(0);
                let h = b.alloc_rule(rule, &[]);
                let rv = b.rendezvous(h);
                let one = b.konst(1);
                b.store(out, x, one, apir_core::op::StoreKind::Add, Some(rv));
                let zero = b.konst(0);
                let denied = b.alu(AluOp::Eq, rv, zero);
                b.requeue(&[x], Some(denied));
                b.finish();
                let s = s.build().unwrap();
                let mut input = ProgramInput::new(&s);
                for i in 0..24u64 {
                    input.seed(&s, ts, &[i % 4]);
                }
                let cfg = FabricConfig {
                    rule_lanes: lanes,
                    rendezvous_window: window,
                    rendezvous_timeout: timeout,
                    pipelines_per_set: 1,
                    ..FabricConfig::default()
                };
                let report = Fabric::new(&s, &input, cfg).run().unwrap_or_else(|e| {
                    panic!("lanes={lanes} window={window} timeout={timeout}: {e}")
                });
                let total: u64 = (0..4).map(|i| report.mem_image.read(out, i)).sum();
                assert_eq!(total, 24);
            }
        }
    }
}
