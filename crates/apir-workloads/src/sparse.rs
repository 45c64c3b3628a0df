//! Block-sparse matrices for the COOR-LU benchmark.
//!
//! COOR-LU (Hassaan et al., "Kinetic Dependence Graphs", ASPLOS'15; dense
//! kernel from the Barcelona OpenMP Task Suite) factorizes a block-sparse
//! matrix with right-looking blocked LU. The irregularity comes from the
//! sparsity pattern: which `(i, j, k)` update tasks exist — and therefore
//! the dependence graph — is only known once the input matrix is seen.
//!
//! This module provides the block sparsity pattern, symbolic fill
//! computation (pattern closure under LU), diagonally dominant value
//! generation (so no pivoting is needed), a dense reference factorization,
//! and the per-task dependence counts the coordinative rules consume.

use apir_util::rng::SmallRng;
use std::collections::BTreeSet;

/// A block sparsity pattern over an `nb × nb` grid of `bs × bs` blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPattern {
    nb: usize,
    present: BTreeSet<(usize, usize)>,
}

impl BlockPattern {
    /// Creates a pattern with all diagonal blocks present.
    pub fn new(nb: usize) -> Self {
        let mut present = BTreeSet::new();
        for i in 0..nb {
            present.insert((i, i));
        }
        BlockPattern { nb, present }
    }

    /// Random symmetric-structure pattern: each off-diagonal block pair is
    /// present with probability `density`.
    pub fn random(nb: usize, density: f64, seed: u64) -> Self {
        let mut p = Self::new(nb);
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..nb {
            for j in 0..i {
                if rng.gen_bool(density) {
                    p.present.insert((i, j));
                    p.present.insert((j, i));
                }
            }
        }
        p
    }

    /// Number of block rows/columns.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Is block `(i, j)` present?
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.present.contains(&(i, j))
    }

    /// All present blocks in row-major order.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.present.iter().copied()
    }

    /// Number of present blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.present.len()
    }

    /// Symbolic LU fill: closes the pattern so that for every `k < i, j`,
    /// `(i, k)` and `(k, j)` present implies `(i, j)` present. Returns the
    /// filled pattern.
    pub fn with_fill(&self) -> BlockPattern {
        let mut p = self.clone();
        for k in 0..p.nb {
            let row_k: Vec<usize> = (k + 1..p.nb).filter(|&j| p.contains(k, j)).collect();
            let col_k: Vec<usize> = (k + 1..p.nb).filter(|&i| p.contains(i, k)).collect();
            for &i in &col_k {
                for &j in &row_k {
                    p.present.insert((i, j));
                }
            }
        }
        p
    }
}

/// The LU task kinds of the blocked right-looking algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LuTaskKind {
    /// `Diag(k)`: factorize the diagonal block `A[k][k] = L[k][k] U[k][k]`.
    Diag,
    /// `PanelCol(k, i)`: `A[i][k] = A[i][k] * U[k][k]^-1` for `i > k`.
    PanelCol,
    /// `PanelRow(k, j)`: `A[k][j] = L[k][k]^-1 * A[k][j]` for `j > k`.
    PanelRow,
    /// `Update(k, i, j)`: `A[i][j] -= A[i][k] * A[k][j]`.
    Update,
}

/// One LU task instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LuTask {
    /// Task kind.
    pub kind: LuTaskKind,
    /// Elimination step.
    pub k: usize,
    /// Block row (meaning depends on kind; 0 when unused).
    pub i: usize,
    /// Block column (0 when unused).
    pub j: usize,
}

/// The full LU task graph for a (filled) pattern: tasks in sequential
/// order plus each task's dependence count, computed exactly as the host
/// does when seeding the coordinative accelerator.
#[derive(Clone, Debug)]
pub struct LuTaskGraph {
    /// Tasks in the order the sequential algorithm executes them.
    pub tasks: Vec<LuTask>,
    /// Number of prerequisite tasks for each task (same indexing).
    pub dep_counts: Vec<usize>,
}

/// Enumerates the LU tasks of a filled pattern with dependence counts.
///
/// Dependences of the right-looking algorithm:
/// * `Diag(k)` ← `Update(k-?, k, k)`: every update targeting `(k, k)`;
/// * `PanelCol(k, i)` ← `Diag(k)` and every update targeting `(i, k)`;
/// * `PanelRow(k, j)` ← `Diag(k)` and every update targeting `(k, j)`;
/// * `Update(k, i, j)` ← `PanelCol(k, i)`, `PanelRow(k, j)`, and every
///   earlier update targeting `(i, j)`.
///
/// The per-task *count* only includes tasks that actually exist in the
/// pattern, which is what makes the schedule input-dependent (irregular).
pub fn lu_task_graph(p: &BlockPattern) -> LuTaskGraph {
    let nb = p.nb();
    let mut tasks = Vec::new();
    // updates_to[(i,j)] = number of Update tasks writing block (i,j) so far.
    let mut updates_to = vec![0usize; nb * nb];
    let mut dep_counts = Vec::new();
    for k in 0..nb {
        tasks.push(LuTask {
            kind: LuTaskKind::Diag,
            k,
            i: k,
            j: k,
        });
        dep_counts.push(updates_to[k * nb + k]);
        for i in k + 1..nb {
            if p.contains(i, k) {
                tasks.push(LuTask {
                    kind: LuTaskKind::PanelCol,
                    k,
                    i,
                    j: k,
                });
                dep_counts.push(1 + updates_to[i * nb + k]);
            }
        }
        for j in k + 1..nb {
            if p.contains(k, j) {
                tasks.push(LuTask {
                    kind: LuTaskKind::PanelRow,
                    k,
                    i: k,
                    j,
                });
                dep_counts.push(1 + updates_to[k * nb + j]);
            }
        }
        for i in k + 1..nb {
            if !p.contains(i, k) {
                continue;
            }
            for j in k + 1..nb {
                if !p.contains(k, j) {
                    continue;
                }
                tasks.push(LuTask {
                    kind: LuTaskKind::Update,
                    k,
                    i,
                    j,
                });
                dep_counts.push(2 + updates_to[i * nb + j]);
                updates_to[i * nb + j] += 1;
            }
        }
    }
    LuTaskGraph { tasks, dep_counts }
}

/// The runtime dependence graph of an LU task list: chained edges
/// (each block writer depends on the *previous* writer of its block plus
/// the final panel/diag values it reads), in CSR successor form. This is
/// the graph a kinetic-dependence-graph scheduler discovers at runtime;
/// the COOR-LU commit units traverse it to release ready tasks.
#[derive(Clone, Debug)]
pub struct LuDepGraph {
    /// Tasks in sequential order (task id = position).
    pub tasks: Vec<LuTask>,
    /// Direct predecessor count per task.
    pub dep_counts: Vec<u32>,
    /// CSR row pointers into `succ_idx` (length `tasks.len() + 1`).
    pub succ_ptr: Vec<u32>,
    /// Successor task ids.
    pub succ_idx: Vec<u32>,
}

impl LuDepGraph {
    /// Task ids with no predecessors (the host's initial seeds).
    pub fn roots(&self) -> Vec<u32> {
        (0..self.tasks.len() as u32)
            .filter(|&t| self.dep_counts[t as usize] == 0)
            .collect()
    }

    /// Per-task depth (longest predecessor chain), for level scheduling.
    pub fn depths(&self) -> Vec<u32> {
        let n = self.tasks.len();
        let mut depth = vec![0u32; n];
        // Successor edges always point forward in sequential order, so one
        // forward pass suffices.
        for t in 0..n {
            for &s in &self.succ_idx[self.succ_ptr[t] as usize..self.succ_ptr[t + 1] as usize] {
                depth[s as usize] = depth[s as usize].max(depth[t] + 1);
            }
        }
        depth
    }
}

/// Builds the chained dependence graph for a filled pattern.
pub fn lu_dependence_graph(p: &BlockPattern) -> LuDepGraph {
    let nb = p.nb();
    let g = lu_task_graph(p);
    let tasks = g.tasks;
    let n = tasks.len();
    let find = |kind: LuTaskKind, k: usize, i: usize, j: usize| -> u32 {
        tasks
            .iter()
            .position(|t| t.kind == kind && t.k == k && t.i == i && t.j == j)
            .expect("task exists in filled pattern") as u32
    };
    // prev_writer[(i, j)] = latest task (so far) that wrote block (i, j).
    let mut prev_writer: Vec<Option<u32>> = vec![None; nb * nb];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (tid, t) in tasks.iter().enumerate() {
        let tid = tid as u32;
        let mut ps = Vec::new();
        match t.kind {
            LuTaskKind::Diag => {
                if let Some(w) = prev_writer[t.k * nb + t.k] {
                    ps.push(w);
                }
                prev_writer[t.k * nb + t.k] = Some(tid);
            }
            LuTaskKind::PanelCol => {
                if let Some(w) = prev_writer[t.i * nb + t.k] {
                    ps.push(w);
                }
                ps.push(find(LuTaskKind::Diag, t.k, t.k, t.k));
                prev_writer[t.i * nb + t.k] = Some(tid);
            }
            LuTaskKind::PanelRow => {
                if let Some(w) = prev_writer[t.k * nb + t.j] {
                    ps.push(w);
                }
                ps.push(find(LuTaskKind::Diag, t.k, t.k, t.k));
                prev_writer[t.k * nb + t.j] = Some(tid);
            }
            LuTaskKind::Update => {
                if let Some(w) = prev_writer[t.i * nb + t.j] {
                    ps.push(w);
                }
                ps.push(find(LuTaskKind::PanelCol, t.k, t.i, t.k));
                ps.push(find(LuTaskKind::PanelRow, t.k, t.k, t.j));
                prev_writer[t.i * nb + t.j] = Some(tid);
            }
        }
        ps.sort_unstable();
        ps.dedup();
        preds[tid as usize] = ps;
    }
    let mut dep_counts = vec![0u32; n];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (tid, ps) in preds.iter().enumerate() {
        dep_counts[tid] = ps.len() as u32;
        for &p in ps {
            succ[p as usize].push(tid as u32);
        }
    }
    let mut succ_ptr = Vec::with_capacity(n + 1);
    let mut succ_idx = Vec::new();
    succ_ptr.push(0u32);
    for s in succ {
        succ_idx.extend(s);
        succ_ptr.push(succ_idx.len() as u32);
    }
    LuDepGraph {
        tasks,
        dep_counts,
        succ_ptr,
        succ_idx,
    }
}

/// A dense matrix stored block-contiguously: block `(i, j)` occupies
/// `bs * bs` consecutive values. Absent blocks are zero.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockMatrix {
    /// Blocks per side.
    pub nb: usize,
    /// Block size.
    pub bs: usize,
    /// Values, block `(i, j)` at `((i * nb + j) * bs * bs)..`.
    pub data: Vec<f64>,
}

impl BlockMatrix {
    /// Creates a zero matrix.
    pub fn zeros(nb: usize, bs: usize) -> Self {
        BlockMatrix {
            nb,
            bs,
            data: vec![0.0; nb * nb * bs * bs],
        }
    }

    /// Generates a diagonally dominant matrix on the given pattern.
    pub fn generate(p: &BlockPattern, bs: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nb = p.nb();
        let mut m = Self::zeros(nb, bs);
        for (i, j) in p.blocks() {
            let base = (i * nb + j) * bs * bs;
            for v in &mut m.data[base..base + bs * bs] {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        // Make strictly diagonally dominant: element (r, r) of Diag(i)
        // gets row-sum + margin.
        for i in 0..nb {
            for r in 0..bs {
                let mut sum = 0.0;
                for j in 0..nb {
                    let base = (i * nb + j) * bs * bs;
                    for c in 0..bs {
                        sum += m.data[base + r * bs + c].abs();
                    }
                }
                let dbase = (i * nb + i) * bs * bs;
                m.data[dbase + r * bs + r] = sum + 1.0;
            }
        }
        m
    }

    /// Element accessor (block-contiguous layout).
    pub fn at(&self, bi: usize, bj: usize, r: usize, c: usize) -> f64 {
        self.data[(bi * self.nb + bj) * self.bs * self.bs + r * self.bs + c]
    }

    /// In-place unblocked LU of the whole matrix (reference golden model;
    /// no pivoting — inputs are diagonally dominant).
    pub fn lu_reference(&mut self) {
        let n = self.nb * self.bs;
        let idx = |r: usize, c: usize| {
            let (bi, bj) = (r / self.bs, c / self.bs);
            (bi * self.nb + bj) * self.bs * self.bs + (r % self.bs) * self.bs + (c % self.bs)
        };
        for k in 0..n {
            let pivot = self.data[idx(k, k)];
            assert!(pivot.abs() > 1e-12, "zero pivot at {k}");
            for r in k + 1..n {
                let f = self.data[idx(r, k)] / pivot;
                self.data[idx(r, k)] = f;
                if f != 0.0 {
                    for c in k + 1..n {
                        let u = self.data[idx(k, c)];
                        if u != 0.0 {
                            self.data[idx(r, c)] -= f * u;
                        }
                    }
                }
            }
        }
    }

    /// Maximum absolute element difference against another matrix.
    pub fn max_abs_diff(&self, other: &BlockMatrix) -> f64 {
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_closes_pattern() {
        let mut p = BlockPattern::new(4);
        p.present.insert((2, 0));
        p.present.insert((0, 3));
        let f = p.with_fill();
        // (2,0) and (0,3) => fill (2,3).
        assert!(f.contains(2, 3));
        assert!(!p.contains(2, 3));
        // Fill of a filled pattern is a fixed point.
        assert_eq!(f.with_fill(), f);
    }

    #[test]
    fn task_graph_dense_counts() {
        // Fully dense 3x3 pattern.
        let p = BlockPattern::random(3, 1.0, 1).with_fill();
        let g = lu_task_graph(&p);
        // Dense blocked LU task count: sum_k (1 + 2(nb-1-k) + (nb-1-k)^2).
        let expect: usize = (0..3).map(|k| 1 + 2 * (2 - k) + (2 - k) * (2 - k)).sum();
        assert_eq!(g.tasks.len(), expect);
        // First task Diag(0) has no deps.
        assert_eq!(g.tasks[0].kind, LuTaskKind::Diag);
        assert_eq!(g.dep_counts[0], 0);
        // Diag(1) depends on exactly Update(0,1,1).
        let d1 = g
            .tasks
            .iter()
            .position(|t| t.kind == LuTaskKind::Diag && t.k == 1)
            .unwrap();
        assert_eq!(g.dep_counts[d1], 1);
    }

    #[test]
    fn sparse_pattern_has_fewer_tasks() {
        let dense = lu_task_graph(&BlockPattern::random(8, 1.0, 2).with_fill());
        let sparse = lu_task_graph(&BlockPattern::random(8, 0.2, 2).with_fill());
        assert!(sparse.tasks.len() < dense.tasks.len());
        // Every k contributes at least its Diag task.
        assert!(
            sparse
                .tasks
                .iter()
                .filter(|t| t.kind == LuTaskKind::Diag)
                .count()
                == 8
        );
    }

    #[test]
    fn dependence_graph_is_consistent() {
        let p = BlockPattern::random(6, 0.4, 9).with_fill();
        let g = lu_dependence_graph(&p);
        // Roots are diagonal factorizations of blocks no update touches
        // (in a sparse pattern several can be ready immediately).
        let roots = g.roots();
        assert!(roots.contains(&0));
        for &r in &roots {
            assert_eq!(g.tasks[r as usize].kind, LuTaskKind::Diag);
        }
        // Edges point forward (tasks are in sequential order).
        for t in 0..g.tasks.len() {
            for &s in &g.succ_idx[g.succ_ptr[t] as usize..g.succ_ptr[t + 1] as usize] {
                assert!((s as usize) > t, "edge {t} -> {s} not forward");
            }
        }
        // dep_counts equal the number of incoming edges.
        let mut incoming = vec![0u32; g.tasks.len()];
        for &s in &g.succ_idx {
            incoming[s as usize] += 1;
        }
        assert_eq!(incoming, g.dep_counts);
        // Depths are topologically consistent and nontrivial.
        let d = g.depths();
        assert_eq!(d[0], 0);
        assert!(d.iter().max().unwrap() > &2);
    }

    #[test]
    fn generated_matrix_is_diagonally_dominant() {
        let p = BlockPattern::random(4, 0.5, 3);
        let m = BlockMatrix::generate(&p, 4, 3);
        let n = 16;
        for r in 0..n {
            let (bi, rr) = (r / 4, r % 4);
            let diag = m.at(bi, bi, rr, rr).abs();
            let mut off = 0.0;
            for c in 0..n {
                if c != r {
                    off += m.at(bi, c / 4, rr, c % 4).abs();
                }
            }
            assert!(diag > off, "row {r}: {diag} <= {off}");
        }
    }

    #[test]
    fn reference_lu_reconstructs_matrix() {
        let p = BlockPattern::random(3, 0.6, 5).with_fill();
        let orig = BlockMatrix::generate(&p, 3, 5);
        let mut lu = orig.clone();
        lu.lu_reference();
        // Reconstruct A = L * U and compare.
        let n = 9;
        let get = |m: &BlockMatrix, r: usize, c: usize| m.at(r / 3, c / 3, r % 3, c % 3);
        for r in 0..n {
            for c in 0..n {
                let mut sum = 0.0;
                for k in 0..=r.min(c) {
                    let l = if k == r { 1.0 } else { get(&lu, r, k) };
                    let u = get(&lu, k, c);
                    sum += l * u;
                }
                // Watch out: L has implicit unit diagonal; for k == r the
                // factor is 1 * U[r][c], handled above.
                assert!(
                    (sum - get(&orig, r, c)).abs() < 1e-8,
                    "({r},{c}): {sum} vs {}",
                    get(&orig, r, c)
                );
            }
        }
    }
}
