//! Stall-coverage goldens: exact runs that stall on every stage cause.
//!
//! The report and snapshot goldens run at the `tiny` scale, where no
//! stage ever stalls on `queue_full`, `reserve_full`, `bandwidth` or
//! `bus_full`, so they cannot catch a scheduling shortcut that gets those
//! causes wrong. The three cells below run inputs of the `small` preset
//! sizes, generated from seed 1 the way the host-speed benchmark
//! generates them, on the synthesized configuration squeezed so that
//! between them every stage stall cause occurs:
//!
//! - SPEC-SSSP and SPEC-MST with a 64-entry, two-bank task queue
//!   (`queue_full`, `bandwidth`, `mshr_full`; `reserve_full`,
//!   `rendezvous_parked`);
//! - SPEC-BFS with a one-event bus and two-slot stations (`bus_full`).
//!
//! Each cell pauses once mid-run, pins the snapshot bytes there, then
//! finishes and pins its report bytes and stall counters. The bytes are
//! pinned as FNV-1a hashes, since the snapshots run to 120 KB; a
//! mismatch prints the cycle count and stall counters beside the pinned
//! ones.

use apir::apps::{bfs, mst, sssp, AppInstance};
use apir::bench::experiments::scale_cache;
use apir::fabric::{Fabric, FabricConfig, RunSplit};
use apir::sim::stats::StallCause;
use apir::synth::{synthesize, SynthesisTarget};
use apir::workloads::gen;
use std::sync::Arc;

/// Seed of every generated input.
const SEED: u64 = 1;

/// The causes a pipeline stage can stall on (the other two are
/// rule-lane causes, counted under `rule.*`).
const STAGE_CAUSES: [StallCause; 8] = [
    StallCause::DownstreamFull,
    StallCause::QueueFull,
    StallCause::ReserveFull,
    StallCause::MshrFull,
    StallCause::Bandwidth,
    StallCause::MissOutstanding,
    StallCause::RendezvousParked,
    StallCause::BusFull,
];

struct Cell {
    app: &'static str,
    squeeze: fn(&mut FabricConfig),
    pause_at: u64,
    cycles: u64,
    /// Stage-cycles per cause, in `STAGE_CAUSES` order.
    stalls: [u64; 8],
    snapshot_fnv: u64,
    report_fnv: u64,
}

fn small_queue(cfg: &mut FabricConfig) {
    cfg.queue_capacity = 64;
    cfg.queue_banks = 2;
}

fn narrow_bus(cfg: &mut FabricConfig) {
    cfg.event_bus_width = 1;
    cfg.lsu_window = 2;
    cfg.rendezvous_window = 1;
}

const CELLS: [Cell; 3] = [
    Cell {
        app: "SPEC-SSSP",
        squeeze: small_queue,
        pause_at: 26_000,
        cycles: 52_342,
        stalls: [1_119_830, 95_598, 0, 552_668, 280_614, 781_962, 0, 0],
        snapshot_fnv: 0xe4006c1d27eac6af,
        report_fnv: 0x5c556cbaf8e38ef5,
    },
    Cell {
        app: "SPEC-MST",
        squeeze: small_queue,
        pause_at: 38_000,
        cycles: 77_432,
        stalls: [661_578, 0, 536, 150_857, 0, 99_925, 236_424, 0],
        snapshot_fnv: 0x4e8f02fb0cf7dd93,
        report_fnv: 0xa2814bbcc1075ce6,
    },
    Cell {
        app: "SPEC-BFS",
        squeeze: narrow_bus,
        pause_at: 7_500,
        cycles: 15_110,
        stalls: [214_888, 0, 0, 184_774, 0, 90_297, 0, 60],
        snapshot_fnv: 0xff13ea9d4195c795,
        report_fnv: 0x51f3907e343c33ae,
    },
];

fn build(name: &str) -> AppInstance {
    match name {
        "SPEC-BFS" => {
            let g = gen::road_network(24, 24, 0.93, 8, SEED);
            bfs::build(Arc::new(g), 0, bfs::BfsVariant::Spec)
        }
        "SPEC-SSSP" => sssp::build(Arc::new(gen::road_network(20, 20, 0.93, 16, SEED)), 0),
        "SPEC-MST" => mst::build(
            200,
            Arc::new(gen::edge_list_distinct_weights(200, 600, SEED)),
        ),
        other => unreachable!("no cell runs {other}"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `cell` to completion through its pause and checks it against
/// the pinned values.
fn check(cell: &Cell) {
    let app = build(cell.app);
    let mut cfg = synthesize(
        &app.spec,
        FabricConfig::default(),
        SynthesisTarget::default(),
    )
    .cfg;
    scale_cache(&mut cfg, &app.input);
    (app.tune)(&mut cfg);
    (cell.squeeze)(&mut cfg);
    let fabric = match Fabric::new(&app.spec, &app.input, cfg).run_until(cell.pause_at) {
        Ok(RunSplit::Paused(f)) => f,
        Ok(RunSplit::Done(_)) => panic!("{} finished before cycle {}", cell.app, cell.pause_at),
        Err(e) => panic!("{}: {e}", cell.app),
    };
    let snapshot_fnv = fnv1a(fabric.snapshot().render().as_bytes());
    let report = fabric.run().unwrap_or_else(|e| panic!("{}: {e}", cell.app));
    (app.check)(&report.mem_image).unwrap_or_else(|e| panic!("{}: {e}", cell.app));
    let stalls = STAGE_CAUSES.map(|c| {
        let key = format!("fabric.stall.{}", c.key());
        report
            .metrics
            .counter(&key)
            .expect("every cause has a counter")
    });
    let got = (
        report.cycles,
        stalls,
        snapshot_fnv,
        fnv1a(report.to_json().as_bytes()),
    );
    let want = (cell.cycles, cell.stalls, cell.snapshot_fnv, cell.report_fnv);
    assert_eq!(
        got, want,
        "{}: (cycles, stalls, snapshot FNV, report FNV)",
        cell.app
    );
}

#[test]
fn spec_sssp_with_a_small_queue_matches_its_golden() {
    check(&CELLS[0]);
}

#[test]
fn spec_mst_with_a_small_queue_matches_its_golden() {
    check(&CELLS[1]);
}

#[test]
fn spec_bfs_with_a_narrow_bus_matches_its_golden() {
    check(&CELLS[2]);
}

/// The pinned counts, which the runs above must match, cover every cause.
#[test]
fn the_cells_stall_on_every_stage_cause() {
    let mut total = [0u64; 8];
    for cell in &CELLS {
        for (t, s) in total.iter_mut().zip(cell.stalls) {
            *t += s;
        }
    }
    for (cause, t) in STAGE_CAUSES.iter().zip(total) {
        assert!(t > 0, "no cell stalls on {}", cause.key());
    }
}
