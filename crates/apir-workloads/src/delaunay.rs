//! 2-D Delaunay triangulation and the refinable mesh used by SPEC-DMR.
//!
//! Implements incremental Bowyer–Watson triangulation over the unit
//! square, with triangle adjacency maintained so that a *cavity* (the set
//! of triangles whose circumcircle contains an insertion point) can be
//! collected by a local flood fill — the very operation Delaunay mesh
//! refinement tasks perform. Triangles have stable ids with tombstones so
//! the benchmark can track work items across re-triangulations.
//!
//! Boundary handling follows the common simplification of refining inside
//! a bounding box: a bad triangle whose circumcenter falls outside the
//! domain is exempted rather than split against a boundary segment (see
//! DESIGN.md).

use apir_util::rng::SmallRng;

/// A 2-D point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }
}

/// A triangle: vertex ids (CCW) plus neighbor ids across each edge.
/// `nbr[i]` is the triangle sharing the edge *opposite* vertex `i`, or
/// `u32::MAX` on the hull.
#[derive(Clone, Copy, Debug)]
pub struct Triangle {
    /// Vertex indices, counter-clockwise.
    pub v: [u32; 3],
    /// Neighbor triangle ids (`NO_NBR` on the boundary).
    pub nbr: [u32; 3],
    /// Tombstone flag: dead triangles were removed by a re-triangulation.
    pub alive: bool,
}

/// Sentinel for "no neighbor" (hull edge).
pub const NO_NBR: u32 = u32::MAX;

/// Signed doubled area of `(a, b, c)`; positive when counter-clockwise.
pub fn orient2d(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Is `p` strictly inside the circumcircle of CCW triangle `(a, b, c)`?
pub fn in_circumcircle(a: Point, b: Point, c: Point, p: Point) -> bool {
    let (ax, ay) = (a.x - p.x, a.y - p.y);
    let (bx, by) = (b.x - p.x, b.y - p.y);
    let (cx, cy) = (c.x - p.x, c.y - p.y);
    let det = (ax * ax + ay * ay) * (bx * cy - cx * by) - (bx * bx + by * by) * (ax * cy - cx * ay)
        + (cx * cx + cy * cy) * (ax * by - bx * ay);
    det > 1e-13
}

/// Circumcenter of a triangle.
pub fn circumcenter(a: Point, b: Point, c: Point) -> Point {
    let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
    let a2 = a.x * a.x + a.y * a.y;
    let b2 = b.x * b.x + b.y * b.y;
    let c2 = c.x * c.x + c.y * c.y;
    Point {
        x: (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d,
        y: (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d,
    }
}

/// Minimum interior angle of a triangle in degrees.
pub fn min_angle_deg(a: Point, b: Point, c: Point) -> f64 {
    let l = |p: Point, q: Point| ((p.x - q.x).powi(2) + (p.y - q.y).powi(2)).sqrt();
    let (la, lb, lc) = (l(b, c), l(a, c), l(a, b));
    let angle = |opp: f64, s1: f64, s2: f64| {
        let cos = ((s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)).clamp(-1.0, 1.0);
        cos.acos().to_degrees()
    };
    angle(la, lb, lc)
        .min(angle(lb, la, lc))
        .min(angle(lc, la, lb))
}

/// A refinable Delaunay mesh over the unit square.
#[derive(Clone, Debug)]
pub struct Mesh {
    points: Vec<Point>,
    tris: Vec<Triangle>,
    alive_count: usize,
    hint: u32,
}

/// Result of one point insertion.
#[derive(Clone, Debug, Default)]
pub struct InsertOutcome {
    /// Triangle ids killed by the cavity re-triangulation.
    pub killed: Vec<u32>,
    /// Newly created triangle ids.
    pub created: Vec<u32>,
}

impl Mesh {
    /// Creates the two-triangle mesh of the unit square.
    pub fn unit_square() -> Self {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        // Triangles (0,1,2) and (0,2,3), both CCW, sharing edge (0,2).
        let tris = vec![
            Triangle {
                v: [0, 1, 2],
                nbr: [NO_NBR, 1, NO_NBR], // across edge (1,2): hull; (2,0): tri 1; (0,1): hull
                alive: true,
            },
            Triangle {
                v: [0, 2, 3],
                nbr: [NO_NBR, NO_NBR, 0],
                alive: true,
            },
        ];
        Mesh {
            points,
            tris,
            alive_count: 2,
            hint: 0,
        }
    }

    /// Builds a Delaunay triangulation of `n` random interior points.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mesh = Mesh::unit_square();
        for _ in 0..n {
            let p = Point::new(rng.gen_range(0.01..0.99), rng.gen_range(0.01..0.99));
            mesh.insert(p);
        }
        mesh
    }

    /// All points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// All triangle slots (including tombstones).
    pub fn triangles(&self) -> &[Triangle] {
        &self.tris
    }

    /// Number of alive triangles.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Coordinates of triangle `t`'s corners.
    pub fn corners(&self, t: u32) -> [Point; 3] {
        let tri = &self.tris[t as usize];
        [
            self.points[tri.v[0] as usize],
            self.points[tri.v[1] as usize],
            self.points[tri.v[2] as usize],
        ]
    }

    /// Is triangle `t` alive?
    pub fn is_alive(&self, t: u32) -> bool {
        self.tris[t as usize].alive
    }

    /// Is triangle `t` "bad" (min angle below `threshold_deg`), with the
    /// boundary exemption for circumcenters outside the domain?
    pub fn is_bad(&self, t: u32, threshold_deg: f64) -> bool {
        let [a, b, c] = self.corners(t);
        if min_angle_deg(a, b, c) >= threshold_deg {
            return false;
        }
        let cc = circumcenter(a, b, c);
        (0.0..=1.0).contains(&cc.x) && (0.0..=1.0).contains(&cc.y)
    }

    /// Ids of all alive bad triangles.
    pub fn bad_triangles(&self, threshold_deg: f64) -> Vec<u32> {
        (0..self.tris.len() as u32)
            .filter(|&t| self.tris[t as usize].alive && self.is_bad(t, threshold_deg))
            .collect()
    }

    /// Locates an alive triangle strictly containing `p` (or with `p` on
    /// its boundary), walking from the hint.
    pub fn locate(&self, p: Point) -> Option<u32> {
        let mut cur = if self.tris[self.hint as usize].alive {
            self.hint
        } else {
            (0..self.tris.len() as u32).find(|&t| self.tris[t as usize].alive)?
        };
        for _ in 0..4 * self.tris.len() + 16 {
            let tri = &self.tris[cur as usize];
            let [a, b, c] = [
                self.points[tri.v[0] as usize],
                self.points[tri.v[1] as usize],
                self.points[tri.v[2] as usize],
            ];
            // Check each edge; walk across the first edge p is outside of.
            let mut moved = false;
            for (i, (e0, e1)) in [(b, c), (c, a), (a, b)].into_iter().enumerate() {
                if orient2d(e0, e1, p) < -1e-13 {
                    let n = tri.nbr[i];
                    if n == NO_NBR {
                        return None; // outside the domain
                    }
                    cur = n;
                    moved = true;
                    break;
                }
            }
            if !moved {
                return Some(cur);
            }
        }
        // Fallback: linear scan (degenerate walk cycles are possible with
        // floating-point ties).
        (0..self.tris.len() as u32).find(|&t| {
            let tri = &self.tris[t as usize];
            if !tri.alive {
                return false;
            }
            let [a, b, c] = self.corners(t);
            orient2d(b, c, p) >= -1e-13
                && orient2d(c, a, p) >= -1e-13
                && orient2d(a, b, p) >= -1e-13
        })
    }

    /// Collects the cavity of `p`: alive triangles whose circumcircle
    /// contains `p`, flood-filled from the containing triangle.
    pub fn cavity(&self, p: Point) -> Option<Vec<u32>> {
        let start = self.locate(p)?;
        let mut cav = vec![start];
        let mut seen = vec![start];
        let mut stack = vec![start];
        while let Some(t) = stack.pop() {
            for &n in &self.tris[t as usize].nbr {
                if n == NO_NBR || seen.contains(&n) {
                    continue;
                }
                seen.push(n);
                let [a, b, c] = self.corners(n);
                if in_circumcircle(a, b, c, p) {
                    cav.push(n);
                    stack.push(n);
                }
            }
        }
        Some(cav)
    }

    /// Inserts `p`, re-triangulating its cavity. Returns the killed and
    /// created triangle ids, or `None` if `p` lies outside the domain.
    pub fn insert(&mut self, p: Point) -> Option<InsertOutcome> {
        let cavity = self.cavity(p)?;
        let pid = self.points.len() as u32;
        self.points.push(p);
        // Boundary edges of the cavity: edges whose opposite triangle is
        // not in the cavity. Record (v0, v1, outside) with (v0, v1) CCW as
        // seen from inside the cavity.
        let mut boundary: Vec<(u32, u32, u32)> = Vec::new();
        for &t in &cavity {
            let tri = self.tris[t as usize];
            for i in 0..3 {
                let n = tri.nbr[i];
                if n == NO_NBR || !cavity.contains(&n) {
                    let (e0, e1) = (tri.v[(i + 1) % 3], tri.v[(i + 2) % 3]);
                    boundary.push((e0, e1, n));
                }
            }
        }
        for &t in &cavity {
            self.tris[t as usize].alive = false;
        }
        self.alive_count -= cavity.len();
        // Fan: one new triangle (pid, e0, e1) per boundary edge.
        let mut created = Vec::with_capacity(boundary.len());
        for &(e0, e1, _) in &boundary {
            let id = self.tris.len() as u32;
            self.tris.push(Triangle {
                v: [pid, e0, e1],
                nbr: [NO_NBR, NO_NBR, NO_NBR],
                alive: true,
            });
            created.push(id);
        }
        self.alive_count += created.len();
        // Adjacency: across the boundary edge -> old outside triangle;
        // between fan triangles -> match shared (pid, x) edges.
        for (k, &(e0, e1, outside)) in boundary.iter().enumerate() {
            let id = created[k];
            // Edge opposite vertex 0 (pid) is (e0, e1): links to outside.
            self.tris[id as usize].nbr[0] = outside;
            if outside != NO_NBR {
                let out = &mut self.tris[outside as usize];
                for i in 0..3 {
                    let (a, b) = (out.v[(i + 1) % 3], out.v[(i + 2) % 3]);
                    if (a, b) == (e1, e0) || (a, b) == (e0, e1) {
                        out.nbr[i] = id;
                    }
                }
            }
            // Fan links: the edge (pid, e1) (opposite vertex 1 = e0) is
            // shared with the fan triangle whose e0 == this e1; the edge
            // (e0, pid) (opposite vertex 2 = e1) with the one whose e1 ==
            // this e0.
            for (k2, &(f0, f1, _)) in boundary.iter().enumerate() {
                if k2 == k {
                    continue;
                }
                let id2 = created[k2];
                if f0 == e1 {
                    self.tris[id as usize].nbr[1] = id2;
                }
                if f1 == e0 {
                    self.tris[id as usize].nbr[2] = id2;
                }
            }
        }
        self.hint = created[0];
        Some(InsertOutcome {
            killed: cavity,
            created,
        })
    }

    /// Verifies structural invariants: adjacency symmetry, CCW orientation
    /// and (optionally) the Delaunay empty-circle property.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, check_delaunay: bool) -> Result<(), String> {
        for (t, tri) in self.tris.iter().enumerate() {
            if !tri.alive {
                continue;
            }
            let [a, b, c] = self.corners(t as u32);
            if orient2d(a, b, c) <= 0.0 {
                return Err(format!("triangle {t} not CCW"));
            }
            for i in 0..3 {
                let n = tri.nbr[i];
                if n == NO_NBR {
                    continue;
                }
                let nt = &self.tris[n as usize];
                if !nt.alive {
                    return Err(format!("triangle {t} links dead neighbor {n}"));
                }
                if !nt.nbr.contains(&(t as u32)) {
                    return Err(format!("adjacency not symmetric: {t} -> {n}"));
                }
            }
            if check_delaunay {
                for (p, pt) in self.points.iter().enumerate() {
                    if tri.v.contains(&(p as u32)) {
                        continue;
                    }
                    if in_circumcircle(a, b, c, *pt) {
                        return Err(format!("point {p} violates Delaunay for triangle {t}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_square_valid() {
        let m = Mesh::unit_square();
        m.validate(true).unwrap();
        assert_eq!(m.alive_count(), 2);
    }

    #[test]
    fn insert_center_creates_fan() {
        let mut m = Mesh::unit_square();
        let out = m.insert(Point::new(0.5, 0.5)).unwrap();
        assert_eq!(out.killed.len(), 2);
        assert_eq!(out.created.len(), 4);
        assert_eq!(m.alive_count(), 4);
        m.validate(true).unwrap();
    }

    #[test]
    fn random_mesh_is_delaunay() {
        let m = Mesh::random(200, 9);
        m.validate(true).unwrap();
        // Euler: for a triangulated square with v vertices,
        // triangles = 2v - 2 - hull_size... just sanity-check growth.
        assert!(m.alive_count() > 300, "alive {}", m.alive_count());
        assert_eq!(m.points().len(), 204);
    }

    #[test]
    fn locate_finds_containing_triangle() {
        let m = Mesh::random(50, 3);
        let p = Point::new(0.37, 0.61);
        let t = m.locate(p).unwrap();
        let [a, b, c] = m.corners(t);
        assert!(orient2d(a, b, p) >= -1e-13);
        assert!(orient2d(b, c, p) >= -1e-13);
        assert!(orient2d(c, a, p) >= -1e-13);
    }

    #[test]
    fn outside_point_rejected() {
        let mut m = Mesh::random(10, 4);
        assert!(m.insert(Point::new(1.5, 0.5)).is_none());
        assert!(m.locate(Point::new(-0.1, 0.2)).is_none());
    }

    #[test]
    fn angles_and_circumcenter() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        let ang = min_angle_deg(a, b, c);
        assert!((ang - 45.0).abs() < 1e-9);
        let cc = circumcenter(a, b, c);
        assert!((cc.x - 0.5).abs() < 1e-12 && (cc.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn refinement_by_circumcenter_reduces_badness() {
        let mut m = Mesh::random(60, 7);
        let threshold = 22.0;
        let mut guard = 0;
        while let Some(&t) = m.bad_triangles(threshold).first() {
            guard += 1;
            assert!(guard < 5000, "refinement did not terminate");
            let [a, b, c] = m.corners(t);
            let cc = circumcenter(a, b, c);
            let out = m.insert(cc);
            assert!(out.is_some(), "circumcenter insert failed");
        }
        m.validate(true).unwrap();
        assert!(m.bad_triangles(threshold).is_empty());
    }
}
