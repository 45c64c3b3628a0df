//! Restore robustness: a snapshot document from outside the process is
//! either accepted or rejected with an error naming the member at
//! fault — never accepted into a state that panics later, and never a
//! panic inside `Fabric::restore` itself.
//!
//! The regression cases edit the committed SPEC-BFS golden doc the way a
//! hand edit would, or edit the rollback log and checkpoints of pauses of
//! a run on a flaky link; the property applies one random structural
//! mutation to any of the three golden docs or to a pause of that run.

use apir::bench::experiments::{scale_cache, synthesized_cfg};
use apir::bench::scale::{build_app, AppInstance};
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricConfig, FaultConfig, RunSplit};
use apir_util::json::{parse, Json};
use apir_util::props;
use std::sync::OnceLock;

/// The golden docs with the `(trace capacity, chaos seed, timeline
/// window)` each was taken under; see `snapshot_golden.rs`.
const GOLDEN: [(&str, &str, usize, Option<u64>, u64); 3] = [
    (
        "SPEC-BFS",
        include_str!("golden/spec_bfs_400.json"),
        1 << 16,
        None,
        0,
    ),
    (
        "SPEC-MST",
        include_str!("golden/spec_mst_2000_chaos7.json"),
        256,
        Some(7),
        0,
    ),
    (
        "COOR-LU",
        include_str!("golden/coor_lu_20_chaos7_timeline.json"),
        256,
        Some(7),
        8,
    ),
];

/// SPEC-BFS on a link that drops 3% of transfers, with rollback
/// recovery armed: it checkpoints at 256 and 512, and first rolls back
/// at 609.
fn flaky() -> (AppInstance, FabricConfig) {
    let app = build_app("SPEC-BFS", Scale::Tiny);
    let mut cfg = synthesized_cfg("SPEC-BFS", Scale::Tiny);
    cfg.faults = FaultConfig {
        seed: 14,
        drop_rate: 0.03,
        retry_timeout: 4,
        max_retries: 1,
        ..FaultConfig::default()
    };
    cfg.checkpoint_interval = 256;
    cfg.max_rollbacks = 16;
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    (app, cfg)
}

/// The flaky run paused at cycle `at`.
fn flaky_pause(at: u64) -> Json {
    let (app, cfg) = flaky();
    match Fabric::new(&app.spec, &app.input, cfg).run_until(at) {
        Ok(RunSplit::Paused(f)) => f.snapshot(),
        _ => panic!("SPEC-BFS pauses at cycle {at}"),
    }
}

/// Source `i` of the mutated docs: a golden doc, or, past them, the
/// flaky run paused at cycle 700, which has rolled back once and holds
/// a checkpoint.
fn source(i: usize) -> &'static str {
    static ARMED: OnceLock<String> = OnceLock::new();
    match GOLDEN.get(i) {
        Some(g) => g.1,
        None => ARMED.get_or_init(|| flaky_pause(700).render()),
    }
}

fn app_cfg(i: usize) -> (AppInstance, FabricConfig) {
    let Some(&(name, _, cap, faults, window)) = GOLDEN.get(i) else {
        return flaky();
    };
    let app = build_app(name, Scale::Tiny);
    let mut cfg = synthesized_cfg(name, Scale::Tiny);
    cfg.trace_capacity = cap;
    if let Some(seed) = faults {
        cfg.faults = FaultConfig::chaos(seed);
    }
    cfg.timeline_window = window;
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    (app, cfg)
}

fn restore(i: usize, doc: &Json) -> Result<Fabric, String> {
    let (app, cfg) = app_cfg(i);
    Fabric::restore(&app.spec, &app.input, cfg, doc)
}

/// The member at a dotted `path` of object keys and array indices.
fn at<'a>(j: &'a mut Json, path: &str) -> &'a mut Json {
    path.split('.').fold(j, |j, seg| match j {
        Json::Obj(m) => &mut m.iter_mut().find(|(k, _)| k == seg).expect(seg).1,
        Json::Arr(v) => &mut v[seg.parse::<usize>().expect(seg)],
        _ => panic!("no member `{seg}` in {path}"),
    })
}

/// Restores source doc `i` after `edit` and returns the error it must
/// produce.
fn rejected(i: usize, edit: impl FnOnce(&mut Json)) -> String {
    let mut doc = parse(source(i)).unwrap();
    edit(&mut doc);
    match restore(i, &doc) {
        Ok(_) => panic!("a malformed snapshot {i} was accepted"),
        Err(e) => e,
    }
}

/// Restores source doc `i` with `value` at `path`.
fn rejected_value(i: usize, path: &str, value: Json) -> String {
    rejected(i, |d| *at(d, path) = value)
}

#[test]
fn the_unedited_golden_doc_restores() {
    for i in 0..=GOLDEN.len() {
        assert!(restore(i, &parse(source(i)).unwrap()).is_ok(), "{i}");
    }
    let armed = parse(source(GOLDEN.len())).unwrap();
    assert_eq!(
        armed.get("rollback").unwrap().render(),
        r#"{"events":[[609,512]]}"#
    );
    assert!(armed.get("ckpt").is_some());
}

#[test]
fn an_overfull_request_fifo_is_rejected() {
    let e = rejected(0, |d| {
        let Json::Arr(v) = at(d, "mem.requests.v") else {
            unreachable!("a FIFO half is an array")
        };
        v.resize(257, v[0].clone());
    });
    assert_eq!(
        e,
        "snapshot: `mem.requests`: holds 257 elements, capacity 256"
    );
}

#[test]
fn an_out_of_range_region_is_rejected() {
    let e = rejected_value(0, "mem.requests.v.0.r", Json::U64(99));
    assert!(
        e.starts_with("snapshot: `mem.requests.v[0].r`: region 99 out of range"),
        "{e}"
    );
}

#[test]
fn an_out_of_range_offset_is_rejected() {
    let e = rejected_value(0, "mem.requests.v.0.o", Json::U64(1_000_000_000_000));
    assert!(
        e.starts_with("snapshot: `mem.requests.v[0].o`: offset 1000000000000 is past"),
        "{e}"
    );
}

#[test]
fn an_out_of_range_port_is_rejected() {
    let e = rejected_value(0, "mem.requests.v.0.p", Json::U64(999));
    assert!(
        e.starts_with("snapshot: `mem.requests.v[0].p`: port 999 out of range"),
        "{e}"
    );
}

#[test]
fn a_hit_pipe_out_of_ready_order_is_rejected() {
    let e = rejected(0, |d| {
        let req = at(d, "mem.requests.v.0").clone();
        *at(d, "mem.hit_pipe") = Json::arr([
            Json::arr([Json::U64(410), req.clone()]),
            Json::arr([Json::U64(405), req]),
        ]);
    });
    assert_eq!(
        e,
        "snapshot: `mem.hit_pipe[1]`: ready cycle 405 is earlier than the 410 before it"
    );
}

#[test]
fn ids_widths_and_labels_are_checked_against_the_structure() {
    // (golden doc, member, value, start of the error).
    let narrow = || Json::arr((0..14).map(|_| Json::U64(0)));
    let cases = [
        (
            0,
            "pipelines.0.latches.5.v",
            narrow(),
            "`pipelines[0].latches[5].v`: the body has 15 ops",
        ),
        (
            0,
            "pipelines.0.stages.2.st.0.1.v",
            narrow(),
            "`pipelines[0].stages[2].st[0][1].v`: the body has 15 ops",
        ),
        (
            0,
            "trace.records.0.2",
            Json::str("no_such_event"),
            "`trace.records[0][2]`: unknown event \"no_such_event\"",
        ),
        (
            0,
            "mem.requests.v.0.p",
            Json::U64(1 << 32),
            "`mem.requests.v[0].p`: 4294967296 does not fit in u32",
        ),
        (
            1,
            "engines.0.lanes.3.cp",
            Json::U64(999),
            "`engines[0].lanes[3].cp`: port 999 out of range",
        ),
        (
            2,
            "pipelines.1.ext.q.v.0.e",
            Json::U64(1),
            "`pipelines[1].ext.q.v[0].e`: port 1 calls extern 0",
        ),
        (
            2,
            "pipelines.1.ext.q.v.0.n",
            Json::U64(0),
            "`pipelines[1].ext.q.v[0].n`: 0 arguments, but port 1 passes 1",
        ),
        (
            2,
            "pipelines.1.ext.q.v.0.n",
            Json::U64(256),
            "`pipelines[1].ext.q.v[0].n`: 256 does not fit in u8",
        ),
        (
            2,
            "pipelines.0.ext.busy.p",
            Json::U64(999),
            "`pipelines[0].ext.busy.p`: port 999 calls no extern",
        ),
        (
            0,
            "samples.2.0.0",
            Json::arr((0..66).map(|_| Json::U64(0))),
            "`samples[2][0][0]`: 66 buckets, at most 65",
        ),
        (
            0,
            "samples.3.0",
            parse("[[0,400],400,400,1,false]").unwrap(),
            "`samples[3][0]`: `rule.bfs_conflict` keeps no histogram",
        ),
        (
            0,
            "samples.2.0",
            Json::Null,
            "`samples[2][0]`: `mem.inflight_hist` is missing",
        ),
    ];
    for (i, path, value, want) in cases {
        let e = rejected_value(i, path, value);
        assert!(e.starts_with(&format!("snapshot: {want}")), "{path}: {e}");
    }
}

#[test]
fn counts_the_clock_cannot_have_reached_are_rejected() {
    // Each doc restored before these checks and then panicked with an
    // overflow: on the next sample for the first two, on the next window
    // end for the third. (golden doc, members set to u64::MAX, error.)
    let cases: [(usize, &[&str], &str); 3] = [
        (
            0,
            &["samples.2.0.1"],
            "`samples[2][0]`: `mem.inflight_hist` counts 18446744073709551615 cycles in \
             buckets that hold 400, but the clock is at cycle 400",
        ),
        (
            0,
            &["samples.2.1.0", "samples.2.1.1"],
            "`samples[2][1]`: `mem.stall.mshr_full` and `mem.stall.bandwidth` sum to more \
             than the clock's 400 cycles",
        ),
        (
            2,
            &["timeline.start.0"],
            "`timeline.start[0]`: busy 18446744073709551615 is above the total 9",
        ),
    ];
    for (i, paths, want) in cases {
        let e = rejected(i, |d| {
            for path in paths {
                *at(d, path) = Json::U64(u64::MAX);
            }
        });
        assert_eq!(e, format!("snapshot: {want}"), "{paths:?}");
    }
}

#[test]
fn totals_the_clock_or_the_recovery_budget_cannot_reach_are_rejected() {
    // A stage's busy and stall cycles, the stall being the sum of its
    // causes, must fit in the clock. A rollback log must fit in
    // `max_rollbacks` (0 for golden doc 0, 16 for the flaky pause), and
    // its replayed cycles, each failure cycle less its resume cycle, must
    // sum within u64: the report derives the rollback totals from the log.
    // (source doc, member, value, error.)
    let armed = GOLDEN.len();
    let cases = [
        (
            0,
            "pipelines.0.stages.2.tk.0",
            Json::U64(300),
            "`pipelines[0].stages[2].tk`: busy + stall is 428, past the clock's 400 cycles",
        ),
        (
            0,
            "rollback.events",
            parse("[[300,256]]").unwrap(),
            "`rollback.events`: 1 rollbacks, more than max_rollbacks 0",
        ),
        (
            armed,
            "rollback.events.0",
            parse("[500,512]").unwrap(),
            "`rollback.events[0]`: resumes at cycle 512, after it failed at 500",
        ),
        (
            armed,
            "rollback.events",
            parse("[[18446744073709551615,0],[609,512]]").unwrap(),
            "`rollback.events[1]`: the replayed cycles sum past u64::MAX",
        ),
    ];
    for (i, path, value, want) in cases {
        assert_eq!(rejected_value(i, path, value), format!("snapshot: {want}"));
    }
}

#[test]
fn a_checkpoint_the_run_cannot_hold_is_rejected() {
    // Golden doc 0 was taken with rollback recovery off.
    let unarmed = rejected(0, |d| {
        let copy = d.clone();
        if let Json::Obj(m) = d {
            m.push(("ckpt".into(), copy));
        }
    });
    let restore = |doc: &Json| restore(GOLDEN.len(), doc);
    let (at_300, at_600) = (flaky_pause(300), flaky_pause(600));
    assert!(restore(&at_300).is_ok() && restore(&at_600).is_ok());
    let with_ckpt_of = |doc: &Json, other: &Json| {
        let mut doc = doc.clone();
        *at(&mut doc, "ckpt") = other.get("ckpt").expect("an armed pause").clone();
        doc
    };
    let mut nested = at_300.clone();
    if let Json::Obj(m) = at(&mut nested, "ckpt") {
        m.push(("ckpt".into(), at_300.get("ckpt").unwrap().clone()));
    }
    let rejection = |doc: &Json| {
        restore(doc)
            .err()
            .expect("a malformed checkpoint is rejected")
    };
    let cases = [
        (
            unarmed,
            "`ckpt`: a checkpoint, but rollback recovery is not armed",
        ),
        (
            rejection(&nested),
            "`ckpt.ckpt`: a checkpoint holds no checkpoint",
        ),
        (
            rejection(&with_ckpt_of(&at_300, &at_600)),
            "`ckpt.cycle`: 512 is after the clock's 300",
        ),
        (
            rejection(&with_ckpt_of(&at_600, &at_300)),
            "`ckpt.cycle`: 256 is 344 cycles before the clock's 600, \
             not less than checkpoint_interval 256",
        ),
    ];
    for (e, want) in cases {
        assert_eq!(e, format!("snapshot: {want}"));
    }
}

/// Number of nodes in `j` (itself included) that satisfy `pick`.
fn count(j: &Json, pick: fn(&Json) -> bool) -> usize {
    let inner: usize = match j {
        Json::Arr(v) => v.iter().map(|c| count(c, pick)).sum(),
        Json::Obj(m) => m.iter().map(|(_, c)| count(c, pick)).sum(),
        _ => 0,
    };
    usize::from(pick(j)) + inner
}

/// The `k`-th node (pre-order) that satisfies `pick`.
fn nth<'a>(j: &'a mut Json, pick: fn(&Json) -> bool, k: &mut usize) -> Option<&'a mut Json> {
    if pick(j) {
        if *k == 0 {
            return Some(j);
        }
        *k -= 1;
    }
    match j {
        Json::Arr(v) => v.iter_mut().find_map(|c| nth(c, pick, k)),
        Json::Obj(m) => m.iter_mut().find_map(|(_, c)| nth(c, pick, k)),
        _ => None,
    }
}

props! {
    // Each case rebuilds a fabric; keep tier-1 fast.
    cases = 32;

    /// One random mutation — drop a member, swap a value's JSON type,
    /// truncate or extend an array, or set a number to 0 or u64::MAX —
    /// makes `Fabric::restore` return `Ok` or `Err`, never panic. The
    /// armed pause reaches the rollback log and the checkpoint's checks.
    fn restore_never_panics_on_a_mutated_golden_doc(g) {
        let i = g.gen_range(0..=GOLDEN.len());
        let mut doc = parse(source(i)).unwrap();
        let kind = g.gen_range(0..4usize);
        let pick: fn(&Json) -> bool = match kind {
            0 => |j| matches!(j, Json::Obj(m) if !m.is_empty()),
            1 => |_| true,
            2 => |j| matches!(j, Json::Arr(_)),
            _ => |j| matches!(j, Json::U64(_) | Json::Num(_)),
        };
        let mut k = g.gen_range(0..count(&doc, pick));
        let node = nth(&mut doc, pick, &mut k).expect("k < count");
        match (kind, node) {
            (0, Json::Obj(m)) => {
                m.remove(g.gen_range(0..m.len()));
            }
            (1, node) => {
                *node = match node {
                    Json::Null => Json::Bool(true),
                    Json::Bool(_) => Json::U64(1),
                    Json::U64(_) | Json::Num(_) => Json::str("7"),
                    Json::Str(_) => Json::Null,
                    Json::Arr(_) => Json::Obj(Vec::new()),
                    Json::Obj(_) => Json::Arr(Vec::new()),
                };
            }
            (2, Json::Arr(v)) => match v.last().cloned() {
                Some(last) if g.gen_bool(0.5) => v.push(last),
                _ => v.truncate(g.gen_range(0..v.len().max(1))),
            },
            (_, node) => *node = Json::U64(if g.gen_bool(0.5) { 0 } else { u64::MAX }),
        }
        // Either outcome is fine; a panic fails the property.
        let _ = restore(i, &doc);
    }
}
