//! SPEC-BFS and COOR-BFS: breadth-first search, the paper's running
//! example (Sections 2, 4 and 6.1).
//!
//! Both variants share two task sets mirroring Figure 1's loops:
//!
//! * `visit` (`for-each`, level 1) — fields `(v, lvl)`: expands the
//!   adjacency range of `v` into `update` tasks;
//! * `update` (`for-all`, level 2) — fields `(eidx, lvl)`: loads the
//!   neighbor, writes its level through a StoreMin commit unit and
//!   activates a new `visit` when the write wins.
//!
//! **SPEC-BFS** (speculative, Kulkarni et al. / Steffan et al. style):
//! updates run immediately; an Immediate rule watches commits by
//! *earlier* tasks to the same vertex and squashes dominated updates.
//!
//! **COOR-BFS** (coordinative, Leiserson–Schardl style): visits wait at a
//! rendezvous; a Waiting rule releases every visit whose level equals the
//! minimum waiting task's level — a barrier-free level wavefront.

use crate::harness::AppInstance;
use apir_core::expr::dsl::{and, earlier, eq, ev, param};
use apir_core::op::AluOp;
use apir_core::program::ProgramInput;
use apir_core::rule::{RuleAction, RuleDecl};
use apir_core::spec::{Spec, TaskSetKind};
use apir_core::MemAccess;
use apir_runtime::pool::parallel_map;
use apir_workloads::graph::{CsrGraph, INF};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which aggressive-parallelization strategy to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BfsVariant {
    /// Speculative (conflict-squashing) BFS.
    Spec,
    /// Coordinative (level-wavefront) BFS.
    Coor,
}

impl BfsVariant {
    fn name(self) -> &'static str {
        match self {
            BfsVariant::Spec => "SPEC-BFS",
            BfsVariant::Coor => "COOR-BFS",
        }
    }
}

/// Builds a prepared BFS instance over `g` from `root`.
pub fn build(g: Arc<CsrGraph>, root: u32, variant: BfsVariant) -> AppInstance {
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut s = Spec::new(variant.name());
    let r_row = s.region("row_ptr", n + 1);
    let r_col = s.region("col", m.max(1));
    let r_level = s.region("level", n);

    let update = s.task_set("update", TaskSetKind::ForAll, 2, &["eidx", "lvl"]);
    let visit = s.task_set("visit", TaskSetKind::ForEach, 1, &["v", "lvl"]);

    match variant {
        BfsVariant::Spec => {
            let commit = s.label("commit_level");
            // ON an earlier task committing the same vertex, squash me.
            let rule = s.rule(RuleDecl::new("bfs_conflict", 1, true).on_label(
                commit,
                and(earlier(), eq(ev(0), param(0))),
                RuleAction::Return(false),
            ));
            {
                let mut b = s.body(update);
                let eidx = b.field(0);
                let lvl = b.field(1);
                let nbr = b.load(r_col, eidx);
                let cur = b.load(r_level, nbr);
                // Alloc after the loads: short lane occupancy; missed
                // conflict events only reduce pruning, never correctness.
                let h = b.alloc_rule(rule, &[nbr]);
                let better = b.alu(AluOp::Lt, lvl, cur);
                let rv = b.rendezvous(h);
                let go = b.alu(AluOp::And, better, rv);
                let won = b.store_min(r_level, nbr, lvl, Some(go));
                b.emit(commit, &[nbr], Some(won));
                let one = b.konst(1);
                let lvl1 = b.alu(AluOp::Add, lvl, one);
                b.enqueue(visit, &[nbr, lvl1], Some(won));
                // Spuriously squashed but still-improving updates retry
                // (covers lane evictions; monotone StoreMin terminates it).
                let denied = b.alu(AluOp::Sub, better, go);
                b.requeue(&[eidx, lvl], Some(denied));
                b.finish();
            }
            {
                let mut b = s.body(visit);
                let v = b.field(0);
                let lvl = b.field(1);
                let lo = b.load(r_row, v);
                let one = b.konst(1);
                let v1 = b.alu(AluOp::Add, v, one);
                let hi = b.load(r_row, v1);
                b.enqueue_range(update, lo, hi, &[lvl], None);
                b.finish();
            }
        }
        BfsVariant::Coor => {
            // Release all visits whose level equals the minimum waiting
            // task's level.
            let rule = s.rule(
                RuleDecl::new_waiting("bfs_wavefront", 1, true)
                    .on_min_waiting(eq(ev(0), param(0)), RuleAction::Return(true)),
            );
            {
                let mut b = s.body(update);
                let eidx = b.field(0);
                let lvl = b.field(1);
                let nbr = b.load(r_col, eidx);
                let cur = b.load(r_level, nbr);
                let better = b.alu(AluOp::Lt, lvl, cur);
                let won = b.store_min(r_level, nbr, lvl, Some(better));
                let one = b.konst(1);
                let lvl1 = b.alu(AluOp::Add, lvl, one);
                b.enqueue(visit, &[nbr, lvl1], Some(won));
                b.finish();
            }
            {
                let mut b = s.body(visit);
                let v = b.field(0);
                let lvl = b.field(1);
                let h = b.alloc_rule(rule, &[lvl]);
                let rv = b.rendezvous(h);
                let lo = b.load(r_row, v);
                let one = b.konst(1);
                let v1 = b.alu(AluOp::Add, v, one);
                let hi = b.load(r_row, v1);
                b.enqueue_range(update, lo, hi, &[lvl], Some(rv));
                // An evicted lane returns false: retry the visit.
                let zero = b.konst(0);
                let denied = b.alu(AluOp::Eq, rv, zero);
                b.requeue(&[v, lvl], Some(denied));
                b.finish();
            }
        }
    }

    let s = s.build().expect("BFS spec validates");
    let mut input = ProgramInput::new(&s);
    input.mem.fill(r_row, 0, g.row_ptr());
    let col: Vec<u64> = g.col().iter().map(|c| *c as u64).collect();
    input.mem.fill(r_col, 0, &col);
    input.mem.region_mut(r_level).fill(INF);
    input.mem.fill(r_level, root as usize, &[0]);
    input.seed(&s, visit, &[root as u64, 1]);

    let reference = g.bfs_levels(root);
    let g_seq = g.clone();
    let g_par = g.clone();
    AppInstance {
        name: variant.name().to_string(),
        spec: s,
        input,
        check: Box::new(move |mem| {
            for (v, want) in reference.iter().enumerate() {
                let got = mem.read(r_level, v as u64);
                if got != *want {
                    return Err(format!("level[{v}] = {got}, want {want}"));
                }
            }
            Ok(())
        }),
        run_seq: Box::new(move || sequential_bfs(&g_seq, root)),
        run_par: Box::new(move |threads| parallel_bfs(&g_par, root, threads).1),
        tune: crate::harness::no_tune(),
    }
}

/// Classic queue BFS; returns work units (vertices + edges scanned).
pub fn sequential_bfs(g: &CsrGraph, root: u32) -> u64 {
    let mut level = vec![INF; g.num_vertices()];
    level[root as usize] = 0;
    let mut q = std::collections::VecDeque::new();
    q.push_back(root);
    let mut work = 0u64;
    while let Some(u) = q.pop_front() {
        work += 1;
        let next = level[u as usize] + 1;
        for (v, _) in g.neighbors(u) {
            work += 1;
            if level[v as usize] == INF {
                level[v as usize] = next;
                q.push_back(v);
            }
        }
    }
    std::hint::black_box(&level);
    work
}

/// Level-synchronous parallel BFS (Leiserson–Schardl shape): returns the
/// computed levels and the per-round work profile.
pub fn parallel_bfs(g: &CsrGraph, root: u32, threads: usize) -> (Vec<u64>, Vec<u64>) {
    let n = g.num_vertices();
    let level: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    level[root as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![root];
    let mut profile = Vec::new();
    let mut depth = 0u64;
    while !frontier.is_empty() {
        depth += 1;
        let work: u64 =
            frontier.len() as u64 + frontier.iter().map(|&v| g.degree(v) as u64).sum::<u64>();
        profile.push(work);
        let chunk = frontier.len().div_ceil(threads.max(1));
        let nexts = parallel_map(threads.max(1), |t| {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(frontier.len());
            let mut next = Vec::new();
            for &u in frontier.get(lo..hi).unwrap_or(&[]) {
                for (v, _) in g.neighbors(u) {
                    // CAS from INF claims the vertex exactly once.
                    if level[v as usize]
                        .compare_exchange(INF, depth, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        next.push(v);
                    }
                }
            }
            next
        });
        frontier = nexts.concat();
    }
    (
        level.into_iter().map(AtomicU64::into_inner).collect(),
        profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::interp::SeqInterp;
    use apir_fabric::{Fabric, FabricConfig};
    use apir_workloads::gen;

    fn graph() -> Arc<CsrGraph> {
        Arc::new(gen::road_network(12, 12, 0.92, 4, 7))
    }

    #[test]
    fn spec_bfs_interpreter_matches_reference() {
        let app = build(graph(), 0, BfsVariant::Spec);
        let res = SeqInterp::run(&app.spec, &app.input).unwrap();
        (app.check)(&res.mem).unwrap();
    }

    #[test]
    fn coor_bfs_interpreter_matches_reference() {
        let app = build(graph(), 0, BfsVariant::Coor);
        let res = SeqInterp::run(&app.spec, &app.input).unwrap();
        (app.check)(&res.mem).unwrap();
    }

    #[test]
    fn spec_bfs_fabric_matches_reference() {
        let app = build(graph(), 0, BfsVariant::Spec);
        let report = Fabric::new(&app.spec, &app.input, FabricConfig::default())
            .run()
            .unwrap();
        (app.check)(&report.mem_image).unwrap();
        assert!(report.total_retired() > 0);
    }

    #[test]
    fn coor_bfs_fabric_matches_reference() {
        let app = build(graph(), 0, BfsVariant::Coor);
        let report = Fabric::new(&app.spec, &app.input, FabricConfig::default())
            .run()
            .unwrap();
        (app.check)(&report.mem_image).unwrap();
    }

    #[test]
    fn software_baselines_agree() {
        let g = graph();
        let reference = g.bfs_levels(3);
        let (levels, profile) = parallel_bfs(&g, 3, 2);
        assert_eq!(levels, reference);
        assert!(!profile.is_empty());
        let work = sequential_bfs(&g, 3);
        assert!(work as usize >= g.num_vertices() / 2);
    }
}
