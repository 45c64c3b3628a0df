//! Cross-engine integration tests: every benchmark must produce correct
//! results on all three engines (sequential interpreter, round-based
//! software runtime, cycle-level fabric), across scales and seeds.

use apir::apps::{bfs, lu, mst, sssp};
use apir::bench::experiments::app_cfg;
use apir::bench::scale::{build_app, APP_NAMES};
use apir::bench::Scale;
use apir::core::interp::SeqInterp;
use apir::core::MemAccess;
use apir::fabric::{Fabric, FabricConfig};
use apir::runtime::{ParConfig, ParRunner};
use apir::workloads::gen;
use apir::workloads::sparse::BlockPattern;
use std::sync::Arc;

fn fabric_cfg() -> FabricConfig {
    FabricConfig::default()
}

/// Union-find partition equivalence: same connectivity, any tree shape.
fn same_partition(a: &apir::core::MemImage, b: &apir::core::MemImage, n: u64) {
    let parent = apir::core::spec::RegionId(0);
    let find = |mem: &apir::core::MemImage, mut x: u64| {
        while mem.read(parent, x) != x {
            x = mem.read(parent, x);
        }
        x
    };
    for i in 0..n {
        for j in (i + 1)..n {
            assert_eq!(
                find(a, i) == find(a, j),
                find(b, i) == find(b, j),
                "partition mismatch at ({i},{j})"
            );
        }
    }
}

#[test]
fn six_apps_interp_vs_fabric_final_memory() {
    // Every builtin benchmark, sequential interpreter vs cycle-level
    // fabric, on the exact configuration the bench baseline uses.
    //
    // Where the final image is order-independent the comparison is exact
    // word-for-word equality. Two apps have legitimately order-dependent
    // images and get their documented weaker equivalence instead:
    //   * SPEC-MST — commits serialize in weight order so the MST flags
    //     match, but the union-find *shape* depends on which finds ran
    //     before which commits; only the partition must agree;
    //   * SPEC-DMR — which point a cavity's re-triangulation inserts
    //     depends on commit order; the checker verifies the resulting
    //     mesh (conforming, no remaining bad triangles) for both engines.
    for name in APP_NAMES {
        let app = build_app(name, Scale::Tiny);
        let seq = SeqInterp::run(&app.spec, &app.input).unwrap();
        (app.check)(&seq.mem).unwrap_or_else(|e| panic!("{name} interp: {e}"));
        let fab = Fabric::new(
            &app.spec,
            &app.input,
            app_cfg(&app.spec, &app.input, &app.tune),
        )
        .run()
        .unwrap_or_else(|e| panic!("{name} fabric: {e}"));
        (app.check)(&fab.mem_image).unwrap_or_else(|e| panic!("{name} fabric: {e}"));
        match name {
            "SPEC-MST" => {
                let n = app.input.mem.capacity(apir::core::spec::RegionId(0));
                same_partition(&seq.mem, &fab.mem_image, n as u64);
            }
            "SPEC-DMR" => {} // checker-only (see above)
            _ => {
                assert_eq!(
                    seq.mem,
                    fab.mem_image,
                    "{name}: final images differ: {:?}",
                    seq.mem.diff(&fab.mem_image, 8)
                );
            }
        }
    }
}

#[test]
fn six_apps_fabric_report_json_is_deterministic() {
    // The determinism canary: two identical fabric runs must serialize
    // to byte-identical JSON (this is what makes the report goldens
    // reproducible).
    for name in APP_NAMES {
        let app = build_app(name, Scale::Tiny);
        let cfg = app_cfg(&app.spec, &app.input, &app.tune);
        let a = Fabric::new(&app.spec, &app.input, cfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = Fabric::new(&app.spec, &app.input, cfg)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{name}: re-run produced a different report"
        );
    }
}

#[test]
fn bfs_three_engines_agree_across_seeds() {
    for seed in [1u64, 2, 3] {
        let g = Arc::new(gen::road_network(14, 14, 0.9, 6, seed));
        for variant in [bfs::BfsVariant::Spec, bfs::BfsVariant::Coor] {
            let app = bfs::build(g.clone(), 0, variant);
            let seq = SeqInterp::run(&app.spec, &app.input).unwrap();
            (app.check)(&seq.mem).unwrap();
            let par = ParRunner::run(&app.spec, &app.input, ParConfig::default()).unwrap();
            (app.check)(&par.mem).unwrap();
            let fab = Fabric::new(&app.spec, &app.input, fabric_cfg())
                .run()
                .unwrap();
            (app.check)(&fab.mem_image).unwrap_or_else(|e| panic!("{variant:?} seed {seed}: {e}"));
        }
    }
}

#[test]
fn sssp_on_scale_free_graph() {
    // RMAT stresses the accelerator differently from road networks: hubs
    // create heavy contention on a few vertices.
    let g = Arc::new(gen::rmat(8, 6, 9, 4));
    let app = sssp::build(g, 0);
    let seq = SeqInterp::run(&app.spec, &app.input).unwrap();
    (app.check)(&seq.mem).unwrap();
    let fab = Fabric::new(&app.spec, &app.input, fabric_cfg())
        .run()
        .unwrap();
    (app.check)(&fab.mem_image).unwrap();
}

#[test]
fn mst_fabric_agrees_with_interpreter() {
    let n = 80usize;
    let edges = Arc::new(gen::edge_list_distinct_weights(n, 260, 9));
    let app = mst::build(n, edges);
    let seq = SeqInterp::run(&app.spec, &app.input).unwrap();
    let fab = Fabric::new(&app.spec, &app.input, fabric_cfg())
        .run()
        .unwrap();
    (app.check)(&fab.mem_image).unwrap();
    // The MST flags match exactly (commits serialize in weight order);
    // the union-find *shape* may differ when a commit lands between a
    // task's find loads and its rule allocation, but the partition it
    // encodes must be identical to the sequential one.
    let parent = apir::core::spec::RegionId(0);
    let find = |mem: &apir::core::MemImage, mut x: u64| {
        while mem.read(parent, x) != x {
            x = mem.read(parent, x);
        }
        x
    };
    for i in 0..n as u64 {
        for j in (i + 1)..n as u64 {
            let same_seq = find(&seq.mem, i) == find(&seq.mem, j);
            let same_fab = find(&fab.mem_image, i) == find(&fab.mem_image, j);
            assert_eq!(same_seq, same_fab, "partition mismatch at ({i},{j})");
        }
    }
}

#[test]
fn lu_on_software_runtime_tracks_extern_reads() {
    // Regression: extern IP cores read shared dependence counters via
    // `MemAccess::read(&self, ..)`; the speculative runtime must include
    // those reads in its conflict detection or concurrent commits lose
    // decrements.
    let app = lu::build(&BlockPattern::random(5, 0.5, 3), 6, 3);
    let par = ParRunner::run(&app.spec, &app.input, ParConfig::default()).unwrap();
    (app.check)(&par.mem).unwrap();
}

#[test]
fn lu_tolerates_dense_and_sparse_patterns() {
    for density in [0.15, 0.9] {
        let app = lu::build(&BlockPattern::random(4, density, 8), 5, 8);
        let fab = Fabric::new(&app.spec, &app.input, fabric_cfg())
            .run()
            .unwrap();
        (app.check)(&fab.mem_image).unwrap_or_else(|e| panic!("density {density}: {e}"));
    }
}

#[test]
fn disconnected_graph_is_handled() {
    // Vertex 0's component does not cover the graph; unreachable vertices
    // must keep INF.
    let edges = vec![(0u32, 1u32, 1u32), (2, 3, 1)];
    let g = Arc::new(apir::workloads::CsrGraph::from_undirected_edges(4, &edges));
    let app = bfs::build(g, 0, bfs::BfsVariant::Spec);
    let fab = Fabric::new(&app.spec, &app.input, fabric_cfg())
        .run()
        .unwrap();
    (app.check)(&fab.mem_image).unwrap();
}

#[test]
fn single_vertex_graph() {
    let g = Arc::new(apir::workloads::CsrGraph::from_edges(1, &[]));
    let app = bfs::build(g, 0, bfs::BfsVariant::Spec);
    let fab = Fabric::new(&app.spec, &app.input, fabric_cfg())
        .run()
        .unwrap();
    (app.check)(&fab.mem_image).unwrap();
    assert_eq!(fab.total_retired(), 1);
}

#[test]
fn tiny_fabric_configurations_still_correct() {
    // Starved resources (1 pipeline, 2 lanes, tiny windows/queues) must
    // degrade performance, never correctness.
    let g = Arc::new(gen::road_network(8, 8, 0.9, 4, 6));
    let cfg = FabricConfig {
        pipelines_per_set: 1,
        rule_lanes: 2,
        lsu_window: 2,
        rendezvous_window: 2,
        queue_banks: 1,
        queue_capacity: 64,
        event_bus_width: 1,
        ..FabricConfig::default()
    };
    for variant in [bfs::BfsVariant::Spec, bfs::BfsVariant::Coor] {
        let app = bfs::build(g.clone(), 0, variant);
        let fab = Fabric::new(&app.spec, &app.input, cfg.clone())
            .run()
            .unwrap();
        (app.check)(&fab.mem_image).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
    }
}

#[test]
fn bandwidth_starved_fabric_still_correct() {
    let g = Arc::new(gen::road_network(8, 8, 0.9, 4, 7));
    let mut cfg = FabricConfig::default();
    cfg.mem.qpi_gbps = 0.25;
    let app = bfs::build(g, 0, bfs::BfsVariant::Spec);
    let slow = Fabric::new(&app.spec, &app.input, cfg).run().unwrap();
    (app.check)(&slow.mem_image).unwrap();
    let fast = Fabric::new(&app.spec, &app.input, FabricConfig::default())
        .run()
        .unwrap();
    assert!(
        slow.cycles > fast.cycles,
        "bandwidth starvation must cost cycles: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}
