//! Timeline report goldens: the whole report of a run with the windowed
//! timeline armed, pinned as the FNV-1a hash of its `to_json()` bytes.
//!
//! A window covers cycles `k·w + 1 ..= (k + 1)·w` of a `w`-cycle window;
//! the last one ends with the run. The cells cross four apps, three
//! windows (one cycle, seven cycles, which no power-of-two latency lines
//! up with, and the CLI's default of 256) and a fault-free and a chaos
//! run, so a window that closes a cycle early or late, or a quiescent
//! jump that lands its cycles in the wrong window, moves some pin.
//! `scheduler_equiv` compares dense with wheel inside one build, and
//! `property_based` checks only sums across windows; neither notices an
//! error that both schedulers share. The last test checks that arming a
//! timeline changes nothing else in runs that roll back.

use apir::bench::experiments::app_cfg;
use apir::bench::scale::build_app;
use apir::bench::Scale;
use apir::fabric::{Fabric, FabricReport, FaultConfig};
use apir::trace::Runner;

struct Cell {
    app: &'static str,
    window: u64,
    faults: Option<u64>,
    cycles: u64,
    windows: usize,
    fnv: u64,
}

const fn cell(
    app: &'static str,
    window: u64,
    faults: Option<u64>,
    cycles: u64,
    windows: usize,
    fnv: u64,
) -> Cell {
    Cell {
        app,
        window,
        faults,
        cycles,
        windows,
        fnv,
    }
}

/// Ring capacity of every cell: large enough that no window is dropped
/// except in SPEC-MST's fault-free runs under windows 1 and 7, which
/// also pin the ring's eviction.
const CAPACITY: usize = 4096;

const CELLS: [Cell; 24] = [
    cell("SPEC-BFS", 1, None, 1696, 1696, 0xece48bb208c9624b),
    cell("SPEC-BFS", 1, Some(3), 1904, 1904, 0x9a8896c8592fbf5d),
    cell("SPEC-BFS", 7, None, 1696, 243, 0xaa6871a1bd3dc623),
    cell("SPEC-BFS", 7, Some(3), 1904, 272, 0xc39c34f0ddb23a4e),
    cell("SPEC-BFS", 256, None, 1696, 7, 0xba4baf252f4ed41d),
    cell("SPEC-BFS", 256, Some(3), 1904, 8, 0x212a8dd7edbf33b6),
    cell("SPEC-SSSP", 1, None, 2772, 2772, 0xcff15a3246ac17b1),
    cell("SPEC-SSSP", 1, Some(3), 3338, 3338, 0x913f0beb55975808),
    cell("SPEC-SSSP", 7, None, 2772, 396, 0x8b70251d49b2b572),
    cell("SPEC-SSSP", 7, Some(3), 3338, 477, 0x9c637868fc964bcf),
    cell("SPEC-SSSP", 256, None, 2772, 11, 0x007b127d42e291a6),
    cell("SPEC-SSSP", 256, Some(3), 3338, 14, 0xdc7870830721f5c9),
    cell("SPEC-MST", 1, None, 101073, 4096, 0x5b4dd8c20c7b92e7),
    cell("SPEC-MST", 1, Some(3), 4004, 4004, 0x7d84aa8b7a468bba),
    cell("SPEC-MST", 7, None, 101073, 4096, 0x679c73e40d7fc7ad),
    cell("SPEC-MST", 7, Some(3), 4004, 572, 0x1fcd34f80b9a94a3),
    cell("SPEC-MST", 256, None, 101073, 395, 0x5c0253db53390fd6),
    cell("SPEC-MST", 256, Some(3), 4004, 16, 0x1a71eb989e6ae060),
    cell("COOR-LU", 1, None, 81, 81, 0x25f2c98710859a9c),
    cell("COOR-LU", 1, Some(3), 87, 87, 0x07f8e6f317d0594e),
    cell("COOR-LU", 7, None, 81, 12, 0x9d953d2c8aa694c8),
    cell("COOR-LU", 7, Some(3), 87, 13, 0x0d7cbbdf97f21b42),
    cell("COOR-LU", 256, None, 81, 1, 0xfa912505adc13b68),
    cell("COOR-LU", 256, Some(3), 87, 1, 0x2f749a929c09b737),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn timeline_reports_match_their_pins() {
    let mut bad = Vec::new();
    for c in &CELLS {
        let r = Runner {
            app: c.app.to_string(),
            scale: Scale::Tiny,
            trace_capacity: 0,
            faults: c.faults,
            timeline: Some((c.window, CAPACITY)),
        }
        .run();
        let t = r.timeline.as_ref().expect("the timeline is armed");
        let got = (r.cycles, t.windows.len(), fnv1a(r.to_json().as_bytes()));
        if got != (c.cycles, c.windows, c.fnv) {
            bad.push(format!(
                "cell({:?}, {}, {:?}, {}, {}, {:#018x}),",
                c.app, c.window, c.faults, got.0, got.1, got.2
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "timeline pins moved; measured:\n{}",
        bad.join("\n")
    );
}

/// Runs `app` on a flaky link with rollback recovery armed and the
/// timeline window `window` (0 leaves the timeline off).
fn rollback_run(app: &str, seed: u64, window: u64) -> FabricReport {
    let inst = build_app(app, Scale::Tiny);
    let mut cfg = app_cfg(&inst.spec, &inst.input, &inst.tune);
    cfg.faults = FaultConfig {
        seed,
        drop_rate: 0.03,
        retry_timeout: 4,
        max_retries: 1,
        ..FaultConfig::default()
    };
    cfg.checkpoint_interval = 256;
    cfg.max_rollbacks = 16;
    cfg.timeline_window = window;
    let r = Fabric::new(&inst.spec, &inst.input, cfg).run();
    r.unwrap_or_else(|e| panic!("{app} seed {seed}: {e}"))
}

#[test]
fn arming_the_timeline_moves_no_checkpoint() {
    // A checkpoint is taken on the last one's cycle plus
    // `checkpoint_interval`, where a quiescent jump stops as it does on
    // a timeline window end, without ticking. A jump that stepped over
    // a checkpoint cycle on its way between window ends would lose that
    // checkpoint, and a rollback would then replay from another cycle.
    // These runs roll back two to four times each.
    for (app, seed, window) in [
        ("SPEC-BFS", 14, 32),
        ("SPEC-SSSP", 15, 7),
        ("SPEC-SSSP", 15, 32),
    ] {
        let mut armed = rollback_run(app, seed, window);
        assert!(
            armed.rollbacks.as_ref().is_some_and(|rb| rb.count > 0),
            "{app} seed {seed}"
        );
        assert!(armed.timeline.take().is_some());
        let plain = rollback_run(app, seed, 0);
        assert_eq!(
            armed.to_json(),
            plain.to_json(),
            "{app} seed {seed} window {window}"
        );
    }
}
