//! Compressed sparse row graphs and reference algorithms.

use std::collections::VecDeque;

/// Sentinel "infinite" distance/level used across the benchmarks.
pub const INF: u64 = u64::MAX / 4;

/// A directed graph in compressed sparse row form with optional edge
/// weights.
///
/// Vertices are `0..n`. `row_ptr` has `n + 1` entries; the out-neighbors
/// of `v` are `col[row_ptr[v]..row_ptr[v+1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    row_ptr: Vec<u64>,
    col: Vec<u32>,
    weight: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph from an edge list `(u, v, w)`. Parallel edges are
    /// kept; self-loops are kept.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32, u32)]) -> Self {
        let mut deg = vec![0u64; n + 1];
        for &(u, v, _) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            deg[u as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let row_ptr = deg.clone();
        let m = edges.len();
        let mut col = vec![0u32; m];
        let mut weight = vec![0u32; m];
        let mut next = row_ptr.clone();
        for &(u, v, w) in edges {
            let slot = next[u as usize] as usize;
            col[slot] = v;
            weight[slot] = w;
            next[u as usize] += 1;
        }
        CsrGraph {
            row_ptr,
            col,
            weight,
        }
    }

    /// Builds the symmetric closure of an undirected edge list (each edge
    /// inserted in both directions).
    pub fn from_undirected_edges(n: usize, edges: &[(u32, u32, u32)]) -> Self {
        let mut all = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            all.push((u, v, w));
            all.push((v, u, w));
        }
        Self::from_edges(n, &all)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// The CSR row pointer array (length `n + 1`).
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// The CSR column (target vertex) array.
    pub fn col(&self) -> &[u32] {
        &self.col
    }

    /// The per-edge weight array (parallel to [`CsrGraph::col`]).
    pub fn weight(&self) -> &[u32] {
        &self.weight
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        (self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]) as usize
    }

    /// Out-neighbors of `v` with weights.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.row_ptr[v as usize] as usize;
        let hi = self.row_ptr[v as usize + 1] as usize;
        self.col[lo..hi]
            .iter()
            .zip(self.weight[lo..hi].iter())
            .map(|(c, w)| (*c, *w))
    }

    /// All edges as `(u, v, w)` triples, in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |u| self.neighbors(u).map(move |(v, w)| (u, v, w)))
    }

    /// Reference breadth-first search: level (hop count + 1 convention of
    /// the paper's Figure 1: root gets level 0, its neighbors 1, ...) per
    /// vertex, [`INF`] for unreachable.
    pub fn bfs_levels(&self, root: u32) -> Vec<u64> {
        let mut level = vec![INF; self.num_vertices()];
        level[root as usize] = 0;
        let mut q = VecDeque::new();
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            let next = level[u as usize] + 1;
            for (v, _) in self.neighbors(u) {
                if level[v as usize] == INF {
                    level[v as usize] = next;
                    q.push_back(v);
                }
            }
        }
        level
    }

    /// Reference single-source shortest path (Dijkstra with binary heap).
    pub fn dijkstra(&self, root: u32) -> Vec<u64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![INF; self.num_vertices()];
        dist[root as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, root)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, w) in self.neighbors(u) {
                let nd = d + w as u64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// The maximum finite BFS level from `root` (graph "effective
    /// diameter" along the BFS tree), or 0 if root-only.
    pub fn bfs_depth(&self, root: u32) -> u64 {
        self.bfs_levels(root)
            .into_iter()
            .filter(|l| *l != INF)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (weights 1,4,1,1)
        CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 4), (1, 3, 1), (2, 3, 1)])
    }

    #[test]
    fn csr_structure() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        let n0: Vec<(u32, u32)> = g.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 1), (2, 4)]);
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn bfs_reference() {
        let g = diamond();
        let l = g.bfs_levels(0);
        assert_eq!(l, vec![0, 1, 1, 2]);
        assert_eq!(g.bfs_depth(0), 2);
        let l1 = g.bfs_levels(3);
        assert_eq!(l1, vec![INF, INF, INF, 0]);
    }

    #[test]
    fn dijkstra_reference() {
        let g = diamond();
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0, 1, 4, 2]);
    }

    #[test]
    fn undirected_doubles_edges() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1, 5), (1, 2, 7)]);
        assert_eq!(g.num_edges(), 4);
        let n1: Vec<(u32, u32)> = g.neighbors(1).collect();
        assert!(n1.contains(&(0, 5)) && n1.contains(&(2, 7)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        CsrGraph::from_edges(2, &[(0, 5, 1)]);
    }
}
