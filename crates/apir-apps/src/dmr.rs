//! SPEC-DMR: speculative Delaunay mesh refinement (Section 6.1).
//!
//! Bad triangles (minimum angle below a threshold) are tasks; refining one
//! inserts its circumcenter, re-triangulating the *cavity* of triangles
//! whose circumcircle contains the new point. Cavities of concurrent tasks
//! may overlap — the classic unordered irregular workload (Kulkarni et
//! al., "Optimistic Parallelism Requires Abstractions").
//!
//! The mesh lives in memory regions (points / triangles / meta), shared
//! verbatim by every engine. The cavity search and re-triangulation is an
//! extern IP core whose data movement is charged to the QPI link; an
//! Immediate rule squashes tasks whose triangle was killed by an earlier
//! commit ("if a bad triangle doesn't overlap with others anymore, its
//! corresponding task is squashed"), with the core's own revalidation as
//! the atomic backstop.

use crate::harness::AppInstance;
use apir_core::expr::dsl::{eq, ev, param};
use apir_core::mem::MemAccess;
use apir_core::op::AluOp;
use apir_core::program::ProgramInput;
use apir_core::rule::{RuleAction, RuleDecl};
use apir_core::spec::{ExternCost, ExternOut, RegionId, Spec, TaskSetKind};
use apir_workloads::delaunay::{
    circumcenter, in_circumcircle, min_angle_deg, orient2d, Mesh, Point, NO_NBR,
};
use std::sync::Arc;

/// Words per triangle record: v0 v1 v2 n0 n1 n2 alive pad.
const TRI_W: u64 = 8;
/// Sentinel neighbor in region encoding.
const ENC_NO_NBR: u64 = u64::MAX;

/// Mesh view over any [`MemAccess`] (used identically by the extern core
/// in every engine and by the result checker).
pub struct RegionMesh<'a, M: MemAccess + ?Sized> {
    mem: &'a mut M,
    r_pts: RegionId,
    r_tris: RegionId,
    r_meta: RegionId,
}

impl<'a, M: MemAccess + ?Sized> RegionMesh<'a, M> {
    /// Wraps the three mesh regions.
    pub fn new(mem: &'a mut M, r_pts: RegionId, r_tris: RegionId, r_meta: RegionId) -> Self {
        RegionMesh {
            mem,
            r_pts,
            r_tris,
            r_meta,
        }
    }

    fn num_tris(&self) -> u64 {
        self.mem.read(self.r_meta, 1)
    }

    fn threshold(&self) -> f64 {
        f64::from_bits(self.mem.read(self.r_meta, 2))
    }

    fn point(&self, p: u64) -> Point {
        Point::new(
            self.mem.read_f64(self.r_pts, 2 * p),
            self.mem.read_f64(self.r_pts, 2 * p + 1),
        )
    }

    fn tri_v(&self, t: u64, c: u64) -> u64 {
        self.mem.read(self.r_tris, t * TRI_W + c)
    }

    fn tri_n(&self, t: u64, c: u64) -> u64 {
        self.mem.read(self.r_tris, t * TRI_W + 3 + c)
    }

    fn alive(&self, t: u64) -> bool {
        self.mem.read(self.r_tris, t * TRI_W + 6) != 0
    }

    fn corners(&self, t: u64) -> [Point; 3] {
        [
            self.point(self.tri_v(t, 0)),
            self.point(self.tri_v(t, 1)),
            self.point(self.tri_v(t, 2)),
        ]
    }

    /// Is `t` bad: min angle below threshold, with the boundary exemption
    /// for circumcenters outside the unit square.
    pub fn is_bad(&self, t: u64) -> bool {
        let [a, b, c] = self.corners(t);
        if min_angle_deg(a, b, c) >= self.threshold() {
            return false;
        }
        let cc = circumcenter(a, b, c);
        (0.0..=1.0).contains(&cc.x) && (0.0..=1.0).contains(&cc.y)
    }

    /// Refines triangle `t` if it is still alive and bad. Returns
    /// `(killed, created, new_bad, work)` or `None` if nothing to do.
    #[allow(clippy::type_complexity)]
    pub fn refine(&mut self, t: u64) -> Option<(Vec<u64>, Vec<u64>, Vec<u64>, u64)> {
        if !self.alive(t) || !self.is_bad(t) {
            return None;
        }
        let [a, b, c] = self.corners(t);
        let cc = circumcenter(a, b, c);
        // Cavity flood fill from t (the circumcenter is always inside t's
        // own circumcircle).
        let mut cavity = vec![t];
        let mut seen = vec![t];
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            for e in 0..3 {
                let nb = self.tri_n(x, e);
                if nb == ENC_NO_NBR || seen.contains(&nb) {
                    continue;
                }
                seen.push(nb);
                let [p, q, r] = self.corners(nb);
                if in_circumcircle(p, q, r, cc) {
                    cavity.push(nb);
                    stack.push(nb);
                }
            }
        }
        // Boundary edges (CCW as seen from the cavity).
        let mut boundary: Vec<(u64, u64, u64)> = Vec::new();
        for &x in &cavity {
            for e in 0..3u64 {
                let nb = self.tri_n(x, e);
                if nb == ENC_NO_NBR || !cavity.contains(&nb) {
                    let e0 = self.tri_v(x, (e + 1) % 3);
                    let e1 = self.tri_v(x, (e + 2) % 3);
                    boundary.push((e0, e1, nb));
                }
            }
        }
        // New point.
        let pid = self.mem.read(self.r_meta, 0);
        let cap_pts = self.mem.read(self.r_meta, 3);
        assert!(pid < cap_pts, "DMR points region exhausted; raise capacity");
        self.mem.write_f64(self.r_pts, 2 * pid, cc.x);
        self.mem.write_f64(self.r_pts, 2 * pid + 1, cc.y);
        self.mem.write(self.r_meta, 0, pid + 1);
        // Kill cavity.
        for &x in &cavity {
            self.mem.write(self.r_tris, x * TRI_W + 6, 0);
        }
        // Fan triangles.
        let base = self.num_tris();
        let cap_tris = self.mem.read(self.r_meta, 4);
        assert!(
            base + boundary.len() as u64 <= cap_tris,
            "DMR triangle region exhausted; raise capacity"
        );
        let created: Vec<u64> = (0..boundary.len() as u64).map(|k| base + k).collect();
        for (k, &(e0, e1, outside)) in boundary.iter().enumerate() {
            let id = created[k];
            let o = id * TRI_W;
            self.mem.write(self.r_tris, o, pid);
            self.mem.write(self.r_tris, o + 1, e0);
            self.mem.write(self.r_tris, o + 2, e1);
            self.mem.write(self.r_tris, o + 3, outside);
            self.mem.write(self.r_tris, o + 4, ENC_NO_NBR);
            self.mem.write(self.r_tris, o + 5, ENC_NO_NBR);
            self.mem.write(self.r_tris, o + 6, 1);
            // Fix the outside triangle's back-pointer.
            if outside != ENC_NO_NBR {
                for e in 0..3u64 {
                    let a = self.tri_v(outside, (e + 1) % 3);
                    let b = self.tri_v(outside, (e + 2) % 3);
                    if (a, b) == (e1, e0) || (a, b) == (e0, e1) {
                        self.mem.write(self.r_tris, outside * TRI_W + 3 + e, id);
                    }
                }
            }
            // Fan links.
            for (k2, &(f0, f1, _)) in boundary.iter().enumerate() {
                if k2 == k {
                    continue;
                }
                let id2 = created[k2];
                if f0 == e1 {
                    self.mem.write(self.r_tris, o + 4, id2);
                }
                if f1 == e0 {
                    self.mem.write(self.r_tris, o + 5, id2);
                }
            }
        }
        self.mem.write(self.r_meta, 1, base + boundary.len() as u64);
        let new_bad: Vec<u64> = created
            .iter()
            .copied()
            .filter(|&t| self.is_bad(t))
            .collect();
        let work = cavity.len() as u64;
        Some((cavity, created, new_bad, work))
    }

    /// Structural validation of the final mesh (adjacency symmetry, CCW
    /// orientation, no bad triangles, unit-square total area).
    pub fn validate_refined(&self) -> Result<(), String> {
        let n = self.num_tris();
        let mut area = 0.0;
        for t in 0..n {
            if !self.alive(t) {
                continue;
            }
            let [a, b, c] = self.corners(t);
            let o = orient2d(a, b, c);
            if o <= 0.0 {
                return Err(format!("triangle {t} not CCW"));
            }
            area += o / 2.0;
            for e in 0..3u64 {
                let nb = self.tri_n(t, e);
                if nb == ENC_NO_NBR {
                    continue;
                }
                if !self.alive(nb) {
                    return Err(format!("triangle {t} links dead {nb}"));
                }
                let back = (0..3u64).any(|f| self.tri_n(nb, f) == t);
                if !back {
                    return Err(format!("adjacency not symmetric: {t} -> {nb}"));
                }
            }
            if self.is_bad(t) {
                return Err(format!("triangle {t} still bad"));
            }
        }
        if (area - 1.0).abs() > 1e-6 {
            return Err(format!("mesh area {area} != 1.0"));
        }
        Ok(())
    }
}

/// Encodes a [`Mesh`] into the three regions of a program input.
fn encode_mesh(
    mesh: &Mesh,
    input: &mut ProgramInput,
    r: (RegionId, RegionId, RegionId),
    threshold: f64,
    cap_pts: u64,
    cap_tris: u64,
) {
    let (r_pts, r_tris, r_meta) = r;
    for (i, p) in mesh.points().iter().enumerate() {
        input
            .mem
            .fill(r_pts, 2 * i, &[p.x.to_bits(), p.y.to_bits()]);
    }
    for (i, t) in mesh.triangles().iter().enumerate() {
        let enc_n = |n: u32| if n == NO_NBR { ENC_NO_NBR } else { n as u64 };
        input.mem.fill(
            r_tris,
            i * TRI_W as usize,
            &[
                t.v[0] as u64,
                t.v[1] as u64,
                t.v[2] as u64,
                enc_n(t.nbr[0]),
                enc_n(t.nbr[1]),
                enc_n(t.nbr[2]),
                t.alive as u64,
                0,
            ],
        );
    }
    input.mem.fill(
        r_meta,
        0,
        &[
            mesh.points().len() as u64,
            mesh.triangles().len() as u64,
            threshold.to_bits(),
            cap_pts,
            cap_tris,
        ],
    );
}

/// Builds a prepared SPEC-DMR instance over an initial Delaunay mesh.
pub fn build(mesh: Arc<Mesh>, threshold_deg: f64) -> AppInstance {
    let n_tris = mesh.triangles().len() as u64;
    let n_pts = mesh.points().len() as u64;
    // Refinement growth headroom.
    let cap_tris = n_tris * 24 + 4096;
    let cap_pts = n_pts * 12 + 2048;

    let mut s = Spec::new("SPEC-DMR");
    let r_pts = s.region("points", (2 * cap_pts) as usize);
    let r_tris = s.region("tris", (TRI_W * cap_tris) as usize);
    let r_meta = s.region("meta", 8);

    let killed = s.label("cavity_killed");
    let rule = s.rule(RuleDecl::new("dmr_stale", 1, true).on_label(
        killed,
        eq(ev(0), param(0)),
        RuleAction::Return(false),
    ));

    let refine_core = s.extern_core("dmr_refine", {
        Arc::new(
            move |mem: &mut dyn MemAccess, args: &apir_core::spec::ExternIn<'_>| {
                let tid = args.args[0];
                let mut rm = RegionMesh::new(mem, r_pts, r_tris, r_meta);
                match rm.refine(tid) {
                    None => ExternOut {
                        out: 0,
                        cost: ExternCost {
                            bytes_read: 128,
                            bytes_written: 0,
                            compute_cycles: 20,
                        },
                        ..Default::default()
                    },
                    Some((cavity, created, new_bad, work)) => ExternOut {
                        out: 1,
                        new_tasks: new_bad
                            .into_iter()
                            .map(|t| (apir_core::spec::TaskSetId(0), vec![t]))
                            .collect(),
                        events: cavity.iter().map(|&t| (killed, vec![t])).collect(),
                        cost: ExternCost {
                            bytes_read: 64 * (cavity.len() as u64 * 2 + 4),
                            bytes_written: 64 * (created.len() as u64 + 1),
                            compute_cycles: 40 + 25 * work,
                        },
                    },
                }
            },
        )
    });

    let badtri = s.task_set("badtri", TaskSetKind::ForAll, 1, &["tid"]);
    {
        let mut b = s.body(badtri);
        let tid = b.field(0);
        let w = b.konst(TRI_W);
        let off = b.alu(AluOp::Mul, tid, w);
        let six = b.konst(6);
        let aoff = b.alu(AluOp::Add, off, six);
        let alive = b.load(r_tris, aoff);
        let h = b.alloc_rule_if(rule, &[tid], alive);
        let rv = b.rendezvous_if(h, alive);
        let go = b.alu(AluOp::And, alive, rv);
        b.call_extern(refine_core, &[tid], Some(go));
        // Squashed-but-alive (eviction or stale event): recheck later.
        let denied = b.alu(AluOp::Sub, alive, go);
        b.requeue(&[tid], Some(denied));
        b.finish();
    }

    let s = s.build().expect("DMR spec validates");
    let mut input = ProgramInput::new(&s);
    encode_mesh(
        &mesh,
        &mut input,
        (r_pts, r_tris, r_meta),
        threshold_deg,
        cap_pts,
        cap_tris,
    );
    for t in mesh.bad_triangles(threshold_deg) {
        input.seed(&s, badtri, &[t as u64]);
    }

    let mesh_seq = mesh.clone();
    let mesh_par = mesh.clone();
    AppInstance {
        name: "SPEC-DMR".to_string(),
        spec: s,
        input,
        check: Box::new(move |mem| {
            // DMR is unordered: any maximal refinement is valid, so the
            // check is structural rather than a golden-image comparison.
            let mut m = mem.clone();
            let rm = RegionMesh::new(&mut m, r_pts, r_tris, r_meta);
            rm.validate_refined()
        }),
        run_seq: Box::new(move || sequential_dmr(&mesh_seq, threshold_deg)),
        run_par: Box::new(move |_threads| parallel_dmr_profile(&mesh_par, threshold_deg)),
        tune: crate::harness::no_tune(),
    }
}

/// Sequential refinement on the native mesh; returns cavity-work units.
pub fn sequential_dmr(mesh: &Mesh, threshold: f64) -> u64 {
    let mut m = mesh.clone();
    let mut work = 0u64;
    let mut worklist: Vec<u32> = m.bad_triangles(threshold);
    while let Some(t) = worklist.pop() {
        if !m.is_alive(t) || !m.is_bad(t, threshold) {
            work += 1;
            continue;
        }
        let [a, b, c] = m.corners(t);
        let cc = circumcenter(a, b, c);
        if let Some(out) = m.insert(cc) {
            work += out.killed.len() as u64;
            for nt in out.created {
                if m.is_bad(nt, threshold) {
                    worklist.push(nt);
                }
            }
        }
    }
    std::hint::black_box(m.alive_count());
    work
}

/// Round-structured refinement profile: per round, refine a maximal set of
/// bad triangles with pairwise-disjoint cavities (what a speculative
/// parallel DMR commits per wave); returns per-round work.
pub fn parallel_dmr_profile(mesh: &Mesh, threshold: f64) -> Vec<u64> {
    let mut m = mesh.clone();
    let mut profile = Vec::new();
    loop {
        let bad = m.bad_triangles(threshold);
        if bad.is_empty() {
            break;
        }
        let mut touched: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut work = 0u64;
        for t in bad {
            if !m.is_alive(t) || !m.is_bad(t, threshold) {
                continue;
            }
            let [a, b, c] = m.corners(t);
            let cc = circumcenter(a, b, c);
            let Some(cavity) = m.cavity(cc) else { continue };
            work += cavity.len() as u64;
            if cavity.iter().any(|x| touched.contains(x)) {
                continue; // conflicts with an earlier wave member
            }
            if let Some(out) = m.insert(cc) {
                touched.extend(out.killed.iter().copied());
                touched.extend(out.created.iter().copied());
            }
        }
        profile.push(work.max(1));
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::interp::SeqInterp;
    use apir_fabric::{Fabric, FabricConfig};

    fn mesh() -> Arc<Mesh> {
        Arc::new(Mesh::random(80, 11))
    }

    #[test]
    fn interpreter_refines_mesh() {
        let app = build(mesh(), 21.0);
        let res = SeqInterp::run(&app.spec, &app.input).unwrap();
        (app.check)(&res.mem).unwrap();
    }

    #[test]
    fn fabric_refines_mesh() {
        let app = build(mesh(), 21.0);
        let report = Fabric::new(&app.spec, &app.input, FabricConfig::default())
            .run()
            .unwrap();
        (app.check)(&report.mem_image).unwrap();
        assert!(report.extern_calls > 0);
        assert!(report.mem.qpi_bytes > 0);
    }

    #[test]
    fn software_baselines_terminate() {
        let m = mesh();
        let w = sequential_dmr(&m, 21.0);
        assert!(w > 0);
        let profile = parallel_dmr_profile(&m, 21.0);
        assert!(!profile.is_empty());
        // Waves must shrink the problem: bounded round count.
        assert!(profile.len() < 200, "rounds {}", profile.len());
    }

    #[test]
    fn region_mesh_roundtrip_matches_native() {
        let m = mesh();
        let app = build(m.clone(), 21.0);
        let mut img = app.input.mem.clone();
        let rm = RegionMesh::new(
            &mut img,
            apir_core::spec::RegionId(0),
            apir_core::spec::RegionId(1),
            apir_core::spec::RegionId(2),
        );
        // Bad sets agree between the native mesh and the region encoding.
        let native: Vec<u64> = m.bad_triangles(21.0).iter().map(|t| *t as u64).collect();
        let encoded: Vec<u64> = (0..m.triangles().len() as u64)
            .filter(|&t| rm.alive(t) && rm.is_bad(t))
            .collect();
        assert_eq!(native, encoded);
    }
}
