//! HLS-baseline model: OpenCL-style BFS on FPGA (Sections 2.2, 6.3).
//!
//! The OpenDwarfs BFS the paper measures (124.1 s on the USA road graph,
//! Table 1) is the Rodinia-derived two-kernel formulation synthesized by
//! the Altera OpenCL SDK:
//!
//! * **kernel 1** scans *every* vertex; for masked (frontier) vertices it
//!   walks the adjacency list, updates costs and sets an updating flag;
//! * **kernel 2** scans *every* vertex again, promoting updating flags to
//!   the frontier mask and reporting whether anything changed;
//! * the **host** launches both kernels and reads the stop flag once per
//!   BFS level over the board interconnect.
//!
//! Execution is therefore over-serialized: a full barrier per kernel, two
//! whole-graph scans per level, and a host round trip per level — which is
//! what destroys it on high-diameter road networks. This module models
//! that schedule analytically (per-level terms) and also emits the
//! per-level trace used for the Figure 2(b) schedule diagram.

use apir_workloads::graph::{CsrGraph, INF};

/// Cost parameters of the modeled OpenCL accelerator.
#[derive(Clone, Copy, Debug)]
pub struct HlsBfsModel {
    /// Accelerator clock in MHz.
    pub clock_mhz: u64,
    /// Vertices scanned per cycle by each kernel's pipeline.
    pub scan_width: u64,
    /// Edges processed per cycle when a frontier vertex expands.
    pub edge_width: u64,
    /// Host↔FPGA overhead per kernel invocation (seconds): launch plus
    /// the stop-flag readback over the board interconnect.
    pub host_overhead_s: f64,
}

impl Default for HlsBfsModel {
    fn default() -> Self {
        HlsBfsModel {
            clock_mhz: 200,
            // An AOCL pipeline processes roughly one work-item per cycle;
            // a few compute units give a small scan width.
            scan_width: 4,
            edge_width: 1,
            host_overhead_s: 60.0e-6,
        }
    }
}

/// One BFS level of the modeled schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HlsLevelTrace {
    /// Level number.
    pub level: u64,
    /// Frontier size entering the level.
    pub frontier: u64,
    /// Edges expanded in kernel 1.
    pub edges: u64,
    /// Kernel-1 time (seconds).
    pub t_kernel1: f64,
    /// Kernel-2 time (seconds).
    pub t_kernel2: f64,
    /// Host orchestration time (seconds).
    pub t_host: f64,
}

/// Result of the analytic run.
#[derive(Clone, Debug)]
pub struct HlsBfsResult {
    /// Total modeled execution time (seconds).
    pub seconds: f64,
    /// Number of levels (kernel-pair invocations).
    pub levels: u64,
    /// Per-level trace.
    pub trace: Vec<HlsLevelTrace>,
}

impl HlsBfsModel {
    /// Models BFS over `g` from `root`, returning time and trace.
    pub fn run(&self, g: &CsrGraph, root: u32) -> HlsBfsResult {
        let n = g.num_vertices() as u64;
        let cyc = |c: u64| c as f64 / (self.clock_mhz as f64 * 1.0e6);
        let mut level = vec![INF; g.num_vertices()];
        level[root as usize] = 0;
        let mut frontier = vec![root];
        let mut trace = Vec::new();
        let mut depth = 0u64;
        let mut total = 0.0;
        while !frontier.is_empty() {
            depth += 1;
            let edges: u64 = frontier.iter().map(|&v| g.degree(v) as u64).sum();
            // Kernel 1: full scan + frontier expansion, then barrier.
            let t1 = cyc(n / self.scan_width + edges / self.edge_width + 1);
            // Kernel 2: full scan, then barrier.
            let t2 = cyc(n / self.scan_width + 1);
            // Host launches two kernels and reads the stop flag.
            let th = 2.0 * self.host_overhead_s;
            total += t1 + t2 + th;
            trace.push(HlsLevelTrace {
                level: depth,
                frontier: frontier.len() as u64,
                edges,
                t_kernel1: t1,
                t_kernel2: t2,
                t_host: th,
            });
            let mut next = Vec::new();
            for &u in &frontier {
                for (v, _) in g.neighbors(u) {
                    if level[v as usize] == INF {
                        level[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        // One final kernel pair discovers quiescence.
        total += 2.0 * self.host_overhead_s + 2.0 * cyc(n / self.scan_width + 1);
        HlsBfsResult {
            seconds: total,
            levels: depth,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_workloads::gen;

    #[test]
    fn high_diameter_graphs_are_catastrophic() {
        // A long path-ish grid vs a compact random graph of similar size.
        let road = gen::road_network(64, 64, 0.95, 4, 1);
        let dense = gen::uniform(4096, 16384, 4, 1);
        let m = HlsBfsModel::default();
        let r_road = m.run(&road, 0);
        let r_dense = m.run(&dense, 0);
        assert!(r_road.levels > 4 * r_dense.levels);
        assert!(r_road.seconds > 3.0 * r_dense.seconds);
    }

    #[test]
    fn time_scales_with_levels_times_n() {
        let g = gen::road_network(32, 32, 1.0, 1, 2);
        let m = HlsBfsModel::default();
        let r = m.run(&g, 0);
        // Lower bound: every level costs two full scans.
        let n = g.num_vertices() as f64;
        let scan = n / m.scan_width as f64 / (m.clock_mhz as f64 * 1e6);
        assert!(r.seconds > r.levels as f64 * 2.0 * scan);
        assert_eq!(r.trace.len(), r.levels as usize);
        // The trace accounts for the whole frontier.
        let visited: u64 = r.trace.iter().map(|t| t.frontier).sum();
        assert_eq!(
            visited,
            g.bfs_levels(0).iter().filter(|l| **l != INF).count() as u64
        );
    }

    #[test]
    fn host_overhead_dominates_tiny_graphs() {
        let g = gen::road_network(4, 4, 1.0, 1, 3);
        let m = HlsBfsModel::default();
        let r = m.run(&g, 0);
        let host: f64 = r.trace.iter().map(|t| t.t_host).sum();
        assert!(host > 0.5 * r.seconds);
    }
}
