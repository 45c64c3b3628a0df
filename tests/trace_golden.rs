//! Trace-ring goldens for the per-tick counter records.
//!
//! Besides the records a stage or pipeline writes where something
//! happens (`busy`, `retire`, ...), the fabric writes one record per
//! tick for each running total of the host, the memory subsystem, the
//! queues, the rule engines and the fault layer that moved in that tick.
//! The trace rings pinned by `snapshot_golden.rs` never hold `clause`,
//! `otherwise`, `link_drop`, `link_retry` or `link_escalate`, so these
//! cells pin two traced runs whose rings, between them, hold every one
//! of those labels:
//!
//! - SPEC-MST under chaos seed 7, which runs to completion;
//! - SPEC-BFS on a flaky link (3% drops, one retry) with fault seed 14,
//!   which exhausts a transfer's retries and ends in `LinkFailed`, whose
//!   partial report carries the `link_escalate` record.
//!
//! Each ring is large enough that no record is dropped. The records are
//! pinned in ring order as the FNV-1a hash of one
//! `cycle component label value` line per record.

use apir::bench::experiments::{scale_cache, synthesized_cfg};
use apir::bench::scale::build_app;
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricError, FabricReport, FaultConfig};
use apir::sim::trace::EventTrace;

/// Every label the fabric writes for a running total that moved during
/// a tick, in the order a tick writes them.
const COUNTER_LABELS: [&str; 17] = [
    "seed",
    "hit",
    "miss",
    "write",
    "push",
    "alloc",
    "nack",
    "clause",
    "otherwise",
    "evict",
    "soft_injected",
    "soft_corrected",
    "soft_refetched",
    "link_drop",
    "link_late",
    "link_retry",
    "link_escalate",
];

struct Cell {
    app: &'static str,
    faults: fn() -> FaultConfig,
    /// `None` for a run that completes, else the failure's kind.
    fails_with: Option<&'static str>,
    cycles: u64,
    records: usize,
    fnv: u64,
}

fn chaos7() -> FaultConfig {
    FaultConfig::chaos(7)
}

/// The flaky link of `tests/robustness.rs` at the first seed whose run
/// dies with `LinkFailed`.
fn flaky_link14() -> FaultConfig {
    FaultConfig {
        seed: 14,
        drop_rate: 0.03,
        retry_timeout: 4,
        max_retries: 1,
        ..FaultConfig::default()
    }
}

const CELLS: [Cell; 2] = [
    Cell {
        app: "SPEC-MST",
        faults: chaos7,
        fails_with: None,
        cycles: 3_926,
        records: 68_875,
        fnv: 0x24f99ba01581bc6e,
    },
    Cell {
        app: "SPEC-BFS",
        faults: flaky_link14,
        fails_with: Some("link_failed"),
        cycles: 609,
        records: 1_097,
        fnv: 0x72860111bb3834b8,
    },
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `cycle component label value` line per retained record.
fn render(trace: &EventTrace) -> String {
    trace
        .records()
        .map(|r| {
            let comp = trace.component_name(r.comp);
            format!("{} {comp} {} {}\n", r.cycle, r.event, r.value)
        })
        .collect()
}

/// Runs `cell` with a trace ring that drops nothing and returns its
/// report (the partial one for a run that fails).
fn run(cell: &Cell) -> FabricReport {
    let app = build_app(cell.app, Scale::Tiny);
    let mut cfg = synthesized_cfg(cell.app, Scale::Tiny);
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    cfg.faults = (cell.faults)();
    cfg.trace_capacity = 1 << 20;
    match Fabric::new(&app.spec, &app.input, cfg).run() {
        Ok(report) => {
            assert_eq!(cell.fails_with, None, "{} completed", cell.app);
            (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{}: {e}", cell.app));
            report
        }
        Err(e) => {
            assert_eq!(cell.fails_with, Some(e.kind()), "{}: {e}", cell.app);
            let FabricError::LinkFailed { report, .. } = e else {
                unreachable!("the kind says link_failed")
            };
            *report
        }
    }
}

fn check(cell: &Cell) {
    let report = run(cell);
    let trace = report.trace.as_ref().expect("the cell arms the trace");
    assert_eq!(
        trace.dropped(),
        0,
        "{}: the ring must keep every record",
        cell.app
    );
    let got = (report.cycles, trace.len(), fnv1a(render(trace).as_bytes()));
    assert_eq!(
        got,
        (cell.cycles, cell.records, cell.fnv),
        "{}: (cycles, records, records FNV)",
        cell.app
    );
}

#[test]
fn chaos_spec_mst_trace_matches_its_golden() {
    check(&CELLS[0]);
}

#[test]
fn flaky_link_spec_bfs_trace_matches_its_golden() {
    check(&CELLS[1]);
}

/// Between them the pinned rings hold every per-tick counter label.
#[test]
fn the_cells_record_every_counter_label() {
    let reports: Vec<FabricReport> = CELLS.iter().map(run).collect();
    for label in COUNTER_LABELS {
        let seen = reports
            .iter()
            .filter_map(|r| r.trace.as_ref())
            .any(|t| t.records().any(|r| r.event == label));
        assert!(seen, "no cell records `{label}`");
    }
}
