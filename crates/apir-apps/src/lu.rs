//! COOR-LU: coordinative sparse blocked LU factorization (Section 6.1).
//!
//! The dense kernel follows the Barcelona OpenMP Task Suite's SparseLU;
//! coordination follows Hassaan–Nguyen–Pingali's *kinetic dependence
//! graphs*: which `(k, i, j)` tasks exist — and therefore the dependence
//! structure — depends on the input sparsity, so the schedule can only be
//! built at run time. The host enumerates the block tasks and their
//! chained dependences into memory regions; commit units (the `lu_exec`
//! extern core) decrement the dependence counters of their successors and
//! activate tasks exactly when they become ready — barrier-free dataflow
//! execution of the runtime dependence graph.

use crate::harness::AppInstance;
use apir_core::mem::MemAccess;
use apir_core::program::ProgramInput;
use apir_core::spec::{ExternCost, ExternOut, RegionId, Spec, TaskSetId, TaskSetKind};
use apir_workloads::sparse::{
    lu_dependence_graph, BlockMatrix, BlockPattern, LuDepGraph, LuTaskKind,
};
use std::sync::Arc;

/// In-place unblocked LU of a `bs × bs` block (no pivoting).
pub fn lu_block(a: &mut [f64], bs: usize) {
    for k in 0..bs {
        let pivot = a[k * bs + k];
        for r in k + 1..bs {
            let f = a[r * bs + k] / pivot;
            a[r * bs + k] = f;
            for c in k + 1..bs {
                a[r * bs + c] -= f * a[k * bs + c];
            }
        }
    }
}

/// `X = X · U⁻¹` with `U` upper-triangular (panel column update).
pub fn trsm_right_upper(x: &mut [f64], u: &[f64], bs: usize) {
    for r in 0..bs {
        for c in 0..bs {
            let mut s = x[r * bs + c];
            for t in 0..c {
                s -= x[r * bs + t] * u[t * bs + c];
            }
            x[r * bs + c] = s / u[c * bs + c];
        }
    }
}

/// `X = L⁻¹ · X` with `L` unit lower-triangular (panel row update).
pub fn trsm_left_unit_lower(x: &mut [f64], l: &[f64], bs: usize) {
    for c in 0..bs {
        for r in 0..bs {
            let mut s = x[r * bs + c];
            for t in 0..r {
                s -= l[r * bs + t] * x[t * bs + c];
            }
            x[r * bs + c] = s;
        }
    }
}

/// `C -= A · B` (trailing update).
pub fn gemm_sub(c: &mut [f64], a: &[f64], b: &[f64], bs: usize) {
    for r in 0..bs {
        for t in 0..bs {
            let av = a[r * bs + t];
            if av == 0.0 {
                continue;
            }
            for cc in 0..bs {
                c[r * bs + cc] -= av * b[t * bs + cc];
            }
        }
    }
}

/// Executes one LU task against a block-contiguous matrix slice.
pub fn exec_lu_task(
    data: &mut [f64],
    nb: usize,
    bs: usize,
    kind: LuTaskKind,
    k: usize,
    i: usize,
    j: usize,
) {
    let blk = |bi: usize, bj: usize| (bi * nb + bj) * bs * bs;
    match kind {
        LuTaskKind::Diag => {
            let o = blk(k, k);
            let mut tmp = data[o..o + bs * bs].to_vec();
            lu_block(&mut tmp, bs);
            data[o..o + bs * bs].copy_from_slice(&tmp);
        }
        LuTaskKind::PanelCol => {
            let (xo, uo) = (blk(i, k), blk(k, k));
            let u = data[uo..uo + bs * bs].to_vec();
            let mut x = data[xo..xo + bs * bs].to_vec();
            trsm_right_upper(&mut x, &u, bs);
            data[xo..xo + bs * bs].copy_from_slice(&x);
        }
        LuTaskKind::PanelRow => {
            let (xo, lo) = (blk(k, j), blk(k, k));
            let l = data[lo..lo + bs * bs].to_vec();
            let mut x = data[xo..xo + bs * bs].to_vec();
            trsm_left_unit_lower(&mut x, &l, bs);
            data[xo..xo + bs * bs].copy_from_slice(&x);
        }
        LuTaskKind::Update => {
            let (co, ao, bo) = (blk(i, j), blk(i, k), blk(k, j));
            let a = data[ao..ao + bs * bs].to_vec();
            let b = data[bo..bo + bs * bs].to_vec();
            let mut c = data[co..co + bs * bs].to_vec();
            gemm_sub(&mut c, &a, &b, bs);
            data[co..co + bs * bs].copy_from_slice(&c);
        }
    }
}

fn read_block(mem: &dyn MemAccess, r: RegionId, off: u64, n: usize) -> Vec<f64> {
    (0..n).map(|x| mem.read_f64(r, off + x as u64)).collect()
}

fn write_block(mem: &mut dyn MemAccess, r: RegionId, off: u64, data: &[f64]) {
    for (x, v) in data.iter().enumerate() {
        mem.write_f64(r, off + x as u64, *v);
    }
}

/// Builds a prepared COOR-LU instance.
pub fn build(pattern: &BlockPattern, bs: usize, seed: u64) -> AppInstance {
    let filled = pattern.with_fill();
    let nb = filled.nb();
    let graph = Arc::new(lu_dependence_graph(&filled));
    let matrix = BlockMatrix::generate(&filled, bs, seed);
    let ntasks = graph.tasks.len();

    let mut s = Spec::new("COOR-LU");
    let r_blocks = s.region("blocks", nb * nb * bs * bs);
    let r_tasks = s.region("tasks", 4 * ntasks);
    let r_deps = s.region("deps", ntasks);
    let r_succ_ptr = s.region("succ_ptr", ntasks + 1);
    let r_succ = s.region("succ_idx", graph.succ_idx.len().max(1));

    let _core_graph = graph.clone();
    let lu_core = s.extern_core("lu_exec", {
        Arc::new(
            move |mem: &mut dyn MemAccess, ein: &apir_core::spec::ExternIn<'_>| {
                let tid = ein.args[0];
                let kind = match mem.read(r_tasks, 4 * tid) {
                    0 => LuTaskKind::Diag,
                    1 => LuTaskKind::PanelCol,
                    2 => LuTaskKind::PanelRow,
                    _ => LuTaskKind::Update,
                };
                let k = mem.read(r_tasks, 4 * tid + 1) as usize;
                let i = mem.read(r_tasks, 4 * tid + 2) as usize;
                let j = mem.read(r_tasks, 4 * tid + 3) as usize;
                // Block math through the region (read blocks, compute, write).
                let blk = |bi: usize, bj: usize| ((bi * nb + bj) * bs * bs) as u64;
                let sq = bs * bs;
                let (blocks_moved, compute) = match kind {
                    LuTaskKind::Diag => {
                        let mut a = read_block(mem, r_blocks, blk(k, k), sq);
                        lu_block(&mut a, bs);
                        write_block(mem, r_blocks, blk(k, k), &a);
                        (2, bs * bs * bs / 3)
                    }
                    LuTaskKind::PanelCol => {
                        let u = read_block(mem, r_blocks, blk(k, k), sq);
                        let mut x = read_block(mem, r_blocks, blk(i, k), sq);
                        trsm_right_upper(&mut x, &u, bs);
                        write_block(mem, r_blocks, blk(i, k), &x);
                        (3, bs * bs * bs / 2)
                    }
                    LuTaskKind::PanelRow => {
                        let l = read_block(mem, r_blocks, blk(k, k), sq);
                        let mut x = read_block(mem, r_blocks, blk(k, j), sq);
                        trsm_left_unit_lower(&mut x, &l, bs);
                        write_block(mem, r_blocks, blk(k, j), &x);
                        (3, bs * bs * bs / 2)
                    }
                    LuTaskKind::Update => {
                        let a = read_block(mem, r_blocks, blk(i, k), sq);
                        let b = read_block(mem, r_blocks, blk(k, j), sq);
                        let mut c = read_block(mem, r_blocks, blk(i, j), sq);
                        gemm_sub(&mut c, &a, &b, bs);
                        write_block(mem, r_blocks, blk(i, j), &c);
                        (4, bs * bs * bs)
                    }
                };
                // Kinetic-dependence-graph commit: release ready successors.
                let lo = mem.read(r_succ_ptr, tid);
                let hi = mem.read(r_succ_ptr, tid + 1);
                let mut new_tasks = Vec::new();
                for e in lo..hi {
                    let succ = mem.read(r_succ, e);
                    let left = mem.read(r_deps, succ) - 1;
                    mem.write(r_deps, succ, left);
                    if left == 0 {
                        new_tasks.push((TaskSetId(0), vec![succ]));
                    }
                }
                ExternOut {
                    out: 1,
                    new_tasks,
                    events: Vec::new(),
                    cost: ExternCost {
                        bytes_read: (blocks_moved - 1) as u64 * (sq as u64) * 8 + (hi - lo) * 16,
                        bytes_written: sq as u64 * 8 + (hi - lo) * 8,
                        // ~4 MACs per cycle on an FPGA block core.
                        compute_cycles: (compute / 4).max(1) as u64,
                    },
                }
            },
        )
    });

    let lutask = s.task_set("lutask", TaskSetKind::ForEach, 1, &["tid"]);
    {
        let mut b = s.body(lutask);
        let tid = b.field(0);
        b.call_extern(lu_core, &[tid], None);
        b.finish();
    }

    let s = s.build().expect("LU spec validates");
    let mut input = ProgramInput::new(&s);
    // Blocks as f64 bit patterns.
    let bits: Vec<u64> = matrix.data.iter().map(|v| v.to_bits()).collect();
    input.mem.fill(r_blocks, 0, &bits);
    for (tid, t) in graph.tasks.iter().enumerate() {
        let kind = match t.kind {
            LuTaskKind::Diag => 0u64,
            LuTaskKind::PanelCol => 1,
            LuTaskKind::PanelRow => 2,
            LuTaskKind::Update => 3,
        };
        input.mem.fill(
            r_tasks,
            4 * tid,
            &[kind, t.k as u64, t.i as u64, t.j as u64],
        );
    }
    let deps: Vec<u64> = graph.dep_counts.iter().map(|d| *d as u64).collect();
    input.mem.fill(r_deps, 0, &deps);
    let ptr: Vec<u64> = graph.succ_ptr.iter().map(|p| *p as u64).collect();
    input.mem.fill(r_succ_ptr, 0, &ptr);
    let idx: Vec<u64> = graph.succ_idx.iter().map(|x| *x as u64).collect();
    if !idx.is_empty() {
        input.mem.fill(r_succ, 0, &idx);
    }
    // Host seeds the initially ready tasks.
    for root in graph.roots() {
        input.seed(&s, lutask, &[root as u64]);
    }

    // Reference: unblocked LU of the same matrix.
    let mut reference = matrix.clone();
    reference.lu_reference();
    let (nb_c, bs_c) = (nb, bs);
    let graph_seq = graph.clone();
    let matrix_seq = matrix.clone();
    let graph_par: Arc<LuDepGraph> = graph;
    AppInstance {
        name: "COOR-LU".to_string(),
        spec: s,
        input,
        check: Box::new(move |mem| {
            for (x, want) in reference.data.iter().enumerate() {
                let got = mem.read_f64(r_blocks, x as u64);
                if (got - want).abs() > 1e-7 * (1.0 + want.abs()) {
                    let (bi, rem) = (x / (nb_c * bs_c * bs_c), x % (nb_c * bs_c * bs_c));
                    return Err(format!("block-row {bi} word {rem}: {got} vs {want}"));
                }
            }
            Ok(())
        }),
        run_seq: Box::new(move || sequential_lu(&matrix_seq, &graph_seq, bs_c)),
        run_par: Box::new(move |_threads| level_profile(&graph_par, bs_c)),
        tune: crate::harness::no_tune(),
    }
}

/// Sequential blocked LU driven by the task list; returns flop work.
pub fn sequential_lu(matrix: &BlockMatrix, graph: &LuDepGraph, bs: usize) -> u64 {
    let mut m = matrix.clone();
    let nb = m.nb;
    let mut work = 0u64;
    for t in &graph.tasks {
        exec_lu_task(&mut m.data, nb, bs, t.kind, t.k, t.i, t.j);
        work += (bs * bs * bs) as u64;
    }
    std::hint::black_box(&m.data);
    work
}

/// Level-scheduled *threaded* LU: executes each dependence level's tasks
/// across `threads` real threads (tasks in one level write pairwise
/// disjoint blocks, so a level is embarrassingly parallel). Returns the
/// factorized matrix for verification.
pub fn parallel_lu(
    matrix: &BlockMatrix,
    graph: &LuDepGraph,
    bs: usize,
    threads: usize,
) -> BlockMatrix {
    let mut m = matrix.clone();
    let nb = m.nb;
    let depths = graph.depths();
    let max_d = depths.iter().copied().max().unwrap_or(0);
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_d as usize + 1];
    for (t, &d) in depths.iter().enumerate() {
        levels[d as usize].push(t);
    }
    struct Cell(*mut f64, usize);
    unsafe impl Sync for Cell {}
    let cell = Cell(m.data.as_mut_ptr(), m.data.len());
    // Edition-2021 closures capture disjoint fields; borrow the whole
    // struct so the Sync impl applies.
    let cell = &cell;
    for level in &levels {
        apir_runtime::pool::parallel_for(level.len(), threads, |range| {
            for &t in &level[range] {
                let task = graph.tasks[t];
                // Safety: tasks within one dependence level write pairwise
                // disjoint blocks (each block has a single writer per
                // level by construction of the chained dependence graph),
                // and every block they read was finalized in an earlier
                // level, so concurrent slices never alias a written block.
                let data = unsafe { std::slice::from_raw_parts_mut(cell.0, cell.1) };
                exec_lu_task(data, nb, bs, task.kind, task.k, task.i, task.j);
            }
        });
    }
    m
}

/// Level-scheduled parallel profile: tasks grouped by dependence depth;
/// per-level work in flops.
pub fn level_profile(graph: &LuDepGraph, bs: usize) -> Vec<u64> {
    let depths = graph.depths();
    let max_d = depths.iter().copied().max().unwrap_or(0);
    let mut profile = vec![0u64; max_d as usize + 1];
    for (t, &d) in depths.iter().enumerate() {
        let flops = match graph.tasks[t].kind {
            LuTaskKind::Diag => bs * bs * bs / 3,
            LuTaskKind::Update => bs * bs * bs,
            _ => bs * bs * bs / 2,
        };
        profile[d as usize] += flops as u64;
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::interp::SeqInterp;
    use apir_fabric::{Fabric, FabricConfig};

    fn app() -> AppInstance {
        build(&BlockPattern::random(5, 0.5, 3), 6, 3)
    }

    #[test]
    fn block_kernels_match_unblocked_reference() {
        let p = BlockPattern::random(4, 0.6, 7).with_fill();
        let m = BlockMatrix::generate(&p, 5, 7);
        let g = lu_dependence_graph(&p);
        let mut blocked = m.clone();
        for t in &g.tasks {
            exec_lu_task(&mut blocked.data, 4, 5, t.kind, t.k, t.i, t.j);
        }
        let mut reference = m;
        reference.lu_reference();
        let diff = blocked.max_abs_diff(&reference);
        assert!(diff < 1e-9, "max diff {diff}");
    }

    #[test]
    fn interpreter_matches_reference_lu() {
        let a = app();
        let res = SeqInterp::run(&a.spec, &a.input).unwrap();
        (a.check)(&res.mem).unwrap();
    }

    #[test]
    fn fabric_matches_reference_lu() {
        let a = app();
        let report = Fabric::new(&a.spec, &a.input, FabricConfig::default())
            .run()
            .unwrap();
        (a.check)(&report.mem_image).unwrap();
        // Every task ran exactly once (dataflow release).
        assert!(report.extern_calls > 0);
    }

    #[test]
    fn threaded_level_lu_matches_reference() {
        let p = BlockPattern::random(6, 0.5, 11).with_fill();
        let m = BlockMatrix::generate(&p, 6, 11);
        let g = lu_dependence_graph(&p);
        let par = parallel_lu(&m, &g, 6, 4);
        let mut reference = m;
        reference.lu_reference();
        let diff = par.max_abs_diff(&reference);
        assert!(diff < 1e-9, "max diff {diff}");
    }

    #[test]
    fn profiles_cover_all_tasks() {
        let p = BlockPattern::random(5, 0.5, 3).with_fill();
        let g = lu_dependence_graph(&p);
        let profile = level_profile(&g, 6);
        let total: u64 = profile.iter().sum();
        assert!(total > 0);
        assert!(profile.len() > 3, "levels {}", profile.len());
    }
}
