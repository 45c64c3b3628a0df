//! Disjoint-set (union-find) structures for Kruskal's MST.
//!
//! Two flavours are provided:
//!
//! * [`UnionFind`] — the classic path-compressing, rank-balanced version
//!   for fast software baselines;
//! * [`FlatUnionFind`] — a deterministic, compression-free version whose
//!   parent array lives in a caller-provided slice. The fabric's SPEC-MST
//!   accelerator chases parent pointers through simulated memory with
//!   exactly these semantics, so software and hardware runs agree on every
//!   intermediate state.

/// Classic union-find with union by rank and path compression.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the representative of `x`, compressing the path.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Unions the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Deterministic union-find over an external parent array, with
/// *root-by-index* union (larger root points to smaller) and no path
/// compression — the semantics the SPEC-MST pipeline implements with plain
/// loads and a compare-and-swap commit.
#[derive(Debug)]
pub struct FlatUnionFind<'a> {
    parent: &'a mut [u64],
}

impl<'a> FlatUnionFind<'a> {
    /// Wraps a parent array that must satisfy `parent[i] == i` initially.
    pub fn new(parent: &'a mut [u64]) -> Self {
        FlatUnionFind { parent }
    }

    /// Initializes `parent[i] = i`.
    pub fn init(parent: &mut [u64]) {
        for (i, p) in parent.iter_mut().enumerate() {
            *p = i as u64;
        }
    }

    /// Finds the root by pointer chasing (no compression).
    pub fn find(&self, mut x: u64) -> u64 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions by linking the larger root under the smaller; returns
    /// `false` if already joined. Deterministic regardless of call order
    /// interleaving granularity.
    pub fn union(&mut self, a: u64, b: u64) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_union_find() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.same(0, 2));
        assert!(uf.union(1, 2));
        assert!(uf.same(0, 3));
        assert!(!uf.union(0, 3));
        assert!(!uf.same(4, 5));
    }

    #[test]
    fn flat_matches_classic_components() {
        let n = 64;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1)
            .map(|i| (i, (i * 7 + 3) % n as u32))
            .collect();
        let mut classic = UnionFind::new(n);
        let mut arr = vec![0u64; n];
        FlatUnionFind::init(&mut arr);
        let mut flat = FlatUnionFind::new(&mut arr);
        for &(a, b) in &edges {
            let c1 = classic.union(a, b);
            let c2 = flat.union(a as u64, b as u64);
            assert_eq!(c1, c2, "edge ({a},{b})");
        }
        // Same partition: roots agree pairwise.
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let s1 = classic.same(i, j);
                let s2 = flat.find(i as u64) == flat.find(j as u64);
                assert_eq!(s1, s2);
            }
        }
    }

    #[test]
    fn flat_union_points_larger_to_smaller() {
        let mut arr = vec![0u64; 4];
        FlatUnionFind::init(&mut arr);
        let mut uf = FlatUnionFind::new(&mut arr);
        assert!(uf.union(3, 1));
        assert_eq!(uf.find(3), 1);
        assert!(uf.union(1, 0));
        assert_eq!(uf.find(3), 0);
    }
}
