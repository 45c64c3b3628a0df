//! Synthetic graph generators.
//!
//! The paper evaluates BFS/SSSP on the DIMACS USA road graph. Cycle-level
//! simulation of a 24M-vertex graph is out of reach here, so
//! [`road_network`] generates a structurally similar input — a 2-D grid
//! with random edge deletions and diagonal shortcuts, giving the high
//! diameter and low, nearly uniform degree that make road networks hard
//! for level-synchronous accelerators. [`rmat`] and [`uniform`] cover the
//! scale-free and unstructured regimes for additional experiments.

use crate::graph::CsrGraph;
use apir_util::rng::SmallRng;

/// Generates an undirected road-network-like graph on a `w × h` grid.
///
/// Each grid edge is kept with probability `keep` (default-style 0.9
/// recommended); a small fraction of diagonal shortcuts is added; weights
/// are uniform in `1..=max_w`. Vertex `0` is the north-west corner.
///
/// # Panics
///
/// Panics if `w * h` is zero or `keep` is outside `(0, 1]`.
pub fn road_network(w: usize, h: usize, keep: f64, max_w: u32, seed: u64) -> CsrGraph {
    assert!(w * h > 0, "empty grid");
    assert!(keep > 0.0 && keep <= 1.0, "keep probability out of range");
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = w * h;
    let id = |x: usize, y: usize| (y * w + x) as u32;
    let mut edges = Vec::with_capacity(n * 2);
    for y in 0..h {
        for x in 0..w {
            let wgt = |rng: &mut SmallRng| rng.gen_range(1..=max_w);
            if x + 1 < w && rng.gen_bool(keep) {
                edges.push((id(x, y), id(x + 1, y), wgt(&mut rng)));
            }
            if y + 1 < h && rng.gen_bool(keep) {
                edges.push((id(x, y), id(x, y + 1), wgt(&mut rng)));
            }
            // Sparse diagonal shortcuts (~4% of cells) mimic ramps/bridges.
            if x + 1 < w && y + 1 < h && rng.gen_bool(0.04) {
                edges.push((id(x, y), id(x + 1, y + 1), wgt(&mut rng)));
            }
        }
    }
    CsrGraph::from_undirected_edges(n, &edges)
}

/// Generates an RMAT (recursive matrix) graph with `n = 2^scale` vertices
/// and `edge_factor * n` undirected edges, using the Graph500 parameters
/// (a, b, c) = (0.57, 0.19, 0.19).
pub fn rmat(scale: u32, edge_factor: usize, max_w: u32, seed: u64) -> CsrGraph {
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r: f64 = rng.gen_f64();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u != v {
            edges.push((u as u32, v as u32, rng.gen_range(1..=max_w)));
        }
    }
    CsrGraph::from_undirected_edges(n, &edges)
}

/// Generates a uniform random (Erdős–Rényi `G(n, m)`) undirected graph.
pub fn uniform(n: usize, m: usize, max_w: u32, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            edges.push((u, v, rng.gen_range(1..=max_w)));
        }
    }
    CsrGraph::from_undirected_edges(n, &edges)
}

/// A weighted undirected edge list (for MST, where the algorithm consumes
/// edges rather than adjacency). Distinct weights make the MST unique,
/// which simplifies result checking across engines.
pub fn edge_list_distinct_weights(n: usize, m: usize, seed: u64) -> Vec<(u32, u32, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    let mut w: u64 = 1;
    while edges.len() < m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            // Strictly increasing base + random stride keeps weights
            // distinct but unordered relative to endpoints.
            w += rng.gen_range(1u64..16);
            edges.push((u, v, w));
        }
    }
    // Shuffle so weight order is not generation order.
    rng.shuffle(&mut edges);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::INF;

    #[test]
    fn road_network_is_high_diameter() {
        let g = road_network(64, 64, 0.95, 8, 42);
        assert_eq!(g.num_vertices(), 4096);
        let depth = g.bfs_depth(0);
        // A 64x64 grid BFS tree must be at least ~straight-line deep.
        assert!(depth >= 64, "depth {depth}");
        // Nearly all vertices reachable at keep=0.95.
        let reach = g.bfs_levels(0).iter().filter(|l| **l != INF).count();
        assert!(reach > 3500, "reachable {reach}");
    }

    #[test]
    fn road_network_determinism() {
        let a = road_network(16, 16, 0.9, 4, 7);
        let b = road_network(16, 16, 0.9, 4, 7);
        assert_eq!(a, b);
        let c = road_network(16, 16, 0.9, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(10, 8, 4, 1);
        assert_eq!(g.num_vertices(), 1024);
        let max_deg = (0..1024u32).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_edges() / 1024;
        assert!(max_deg > 4 * avg, "max {max_deg} avg {avg}");
    }

    #[test]
    fn uniform_has_requested_edges() {
        let g = uniform(100, 500, 9, 3);
        assert_eq!(g.num_edges(), 1000); // ×2 undirected
        assert!(g.edges().all(|(_, _, w)| (1..=9).contains(&w)));
    }

    #[test]
    fn mst_edge_weights_distinct() {
        let e = edge_list_distinct_weights(50, 200, 11);
        let mut ws: Vec<u64> = e.iter().map(|t| t.2).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 200);
    }
}
