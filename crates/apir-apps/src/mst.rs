//! SPEC-MST: speculative Kruskal's minimum spanning tree (Section 6.1).
//!
//! Following Blelloch et al.'s deterministic-reservations formulation:
//! edges are seeded in ascending weight order (their `for-each` counter
//! *is* the weight rank). An edge task chases union-find parent pointers
//! by token recirculation, then waits at a rendezvous under a Waiting
//! rule: commits by earlier edges that touch either of its roots squash
//! it back into a retry ("if the end point of a larger edge overlaps with
//! a smaller one, the larger one will be aborted"); the `otherwise`
//! clause releases the minimum live edge, so unions commit in exact
//! weight order, through a compare-and-swap commit unit as a backstop.

use crate::harness::AppInstance;
use apir_core::expr::dsl::{eq, ev, or, param};
use apir_core::op::{AluOp, StoreKind};
use apir_core::program::ProgramInput;
use apir_core::rule::{RuleAction, RuleDecl};
use apir_core::spec::{Spec, TaskSetKind};
use apir_core::MemAccess;
use apir_workloads::unionfind::{FlatUnionFind, UnionFind};
use std::sync::Arc;

/// Builds a prepared SPEC-MST instance.
///
/// `edges` are `(u, v, weight)` with distinct weights (unique MST);
/// they are sorted internally.
pub fn build(n: usize, edges: Arc<Vec<(u32, u32, u64)>>) -> AppInstance {
    let mut sorted: Vec<(u32, u32, u64)> = edges.as_ref().clone();
    sorted.sort_by_key(|e| e.2);
    let k = sorted.len();

    let mut s = Spec::new("SPEC-MST");
    let r_parent = s.region("parent", n);
    let r_mst = s.region("mst", k.max(1));

    let commit = s.label("commit_union");
    // Any commit touching one of my roots invalidates my finds.
    let overlap = or(
        or(eq(ev(0), param(0)), eq(ev(0), param(1))),
        or(eq(ev(1), param(0)), eq(ev(1), param(1))),
    );
    let rule = s.rule(RuleDecl::new_waiting("mst_conflict", 2, true).on_label(
        commit,
        overlap,
        RuleAction::Return(false),
    ));

    let edge = s.task_set("edge", TaskSetKind::ForEach, 1, &["eid", "u", "v"]);
    {
        let mut b = s.body(edge);
        let eid = b.field(0);
        let u = b.field(1);
        let v = b.field(2);
        let pu = b.load(r_parent, u);
        let pv = b.load(r_parent, v);
        let u_root = b.alu(AluOp::Eq, pu, u);
        let v_root = b.alu(AluOp::Eq, pv, v);
        let at_roots = b.alu(AluOp::And, u_root, v_root);
        let zero = b.konst(0);
        let chasing = b.alu(AluOp::Eq, at_roots, zero);
        // Pointer-chase step: recirculate with the parents.
        b.requeue(&[eid, pu, pv], Some(chasing));
        let same = b.alu(AluOp::Eq, u, v);
        let diff = b.alu(AluOp::Eq, same, zero);
        let eligible = b.alu(AluOp::And, at_roots, diff);
        let h = b.alloc_rule_if(rule, &[u, v], eligible);
        let rv = b.rendezvous_if(h, eligible);
        let go = b.alu(AluOp::And, eligible, rv);
        let hi = b.alu(AluOp::Max, u, v);
        let lo = b.alu(AluOp::Min, u, v);
        // Union: link the larger root under the smaller, iff still a root.
        let won = b.store(r_parent, hi, lo, StoreKind::Cas { expected: hi }, Some(go));
        let one = b.konst(1);
        b.store(r_mst, eid, one, StoreKind::Plain, Some(won));
        b.emit(commit, &[lo, hi], Some(won));
        // CAS lost: roots went stale between release and commit — retry.
        let lost = b.alu(AluOp::Sub, go, won);
        b.requeue(&[eid, u, v], Some(lost));
        // Rule squashed me (earlier conflicting commit): retry.
        let aborted = b.alu(AluOp::Sub, eligible, go);
        b.requeue(&[eid, u, v], Some(aborted));
        b.finish();
    }

    let s = s.build().expect("MST spec validates");
    let mut input = ProgramInput::new(&s);
    {
        let parent = input.mem.region_mut(r_parent);
        FlatUnionFind::init(parent);
    }
    for (i, &(u, v, _)) in sorted.iter().enumerate() {
        input.seed(&s, edge, &[i as u64, u as u64, v as u64]);
    }

    // Reference: Kruskal over the sorted edges.
    let reference: Vec<u64> = {
        let mut uf = UnionFind::new(n);
        sorted
            .iter()
            .map(|&(u, v, _)| uf.union(u, v) as u64)
            .collect()
    };
    let ref_check = reference.clone();
    let unsorted_seq = edges.clone();
    let unsorted_par = edges;
    let n_par = n;
    AppInstance {
        name: "SPEC-MST".to_string(),
        spec: s,
        input,
        check: Box::new(move |mem| {
            for (i, want) in ref_check.iter().enumerate() {
                let got = mem.read(r_mst, i as u64);
                if got != *want {
                    return Err(format!("mst[{i}] = {got}, want {want}"));
                }
            }
            Ok(())
        }),
        run_seq: Box::new(move || sequential_kruskal(n_par, &unsorted_seq)),
        run_par: Box::new(move |threads| {
            parallel_kruskal_profile(n_par, &unsorted_par, threads.max(1) * 4)
        }),
        // Commits serialize in weight order, so a huge in-flight window
        // only lengthens the minimum edge's recirculation round trip.
        // Shrink the queue; the host seeds the rest incrementally.
        tune: Box::new(|cfg| {
            // Commits serialize in weight order: park the earliest edges
            // in the rendezvous stations (long timeout), keep the
            // recirculating window small, and don't over-replicate.
            cfg.queue_capacity = 1024;
            cfg.queue_banks = 2;
            cfg.pipelines_per_set = cfg.pipelines_per_set.min(4);
            cfg.rendezvous_timeout = 16_384;
            cfg.rendezvous_window = 32;
        }),
    }
}

/// Sequential Kruskal including the sort (the dominant cost of the real
/// algorithm); returns work units (comparisons + finds).
pub fn sequential_kruskal(n: usize, edges: &[(u32, u32, u64)]) -> u64 {
    let mut sorted = edges.to_vec();
    sorted.sort_unstable_by_key(|e| e.2);
    let mut uf = UnionFind::new(n);
    let m = sorted.len() as u64;
    let mut work = m * (64 - m.leading_zeros() as u64);
    let mut in_mst = 0u64;
    for &(u, v, _) in &sorted {
        work += 2;
        if uf.union(u, v) {
            in_mst += 1;
        }
    }
    std::hint::black_box(in_mst);
    work
}

/// Parallel Kruskal profile from unsorted edges: a fully parallel
/// sample-sort round followed by the deterministic-reservation waves.
pub fn parallel_kruskal_profile(n: usize, edges: &[(u32, u32, u64)], window: usize) -> Vec<u64> {
    let mut sorted = edges.to_vec();
    sorted.sort_unstable_by_key(|e| e.2);
    let m = sorted.len() as u64;
    let sort_work = m * (64 - m.leading_zeros() as u64);
    let (_, mut profile) = parallel_kruskal(n, &sorted, window);
    profile.insert(0, sort_work);
    profile
}

/// Deterministic-reservations parallel Kruskal: per round, the first
/// `window` pending edges find their roots speculatively; non-conflicting
/// prefix-minimal edges commit. Returns MST flags and per-round work.
pub fn parallel_kruskal(
    n: usize,
    sorted: &[(u32, u32, u64)],
    window: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut parent: Vec<u64> = vec![0; n];
    FlatUnionFind::init(&mut parent);
    let mut flags = vec![0u64; sorted.len()];
    let mut pending: Vec<usize> = (0..sorted.len()).collect();
    let mut profile = Vec::new();
    while !pending.is_empty() {
        let take = pending.len().min(window.max(1));
        let mut work = 0u64;
        // Speculative find phase (parallel in the real implementation;
        // instrumented serially for the deterministic profile).
        let mut roots = Vec::with_capacity(take);
        {
            let uf = FlatUnionFind::new(&mut parent);
            for &e in &pending[..take] {
                let (u, v, _) = sorted[e];
                work += 2;
                roots.push((uf.find(u as u64), uf.find(v as u64)));
            }
        }
        // Commit phase: reserve both roots for the minimum edge touching
        // them; winners commit.
        let mut reserved: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (slot, &(ru, rv)) in roots.iter().enumerate() {
            if ru == rv {
                continue;
            }
            reserved.entry(ru).or_insert(slot);
            reserved.entry(rv).or_insert(slot);
        }
        let mut survivors = Vec::new();
        {
            let mut uf = FlatUnionFind::new(&mut parent);
            for (slot, &(ru, rv)) in roots.iter().enumerate() {
                let e = pending[slot];
                if ru == rv {
                    continue; // cycle edge: drop
                }
                let wins = reserved.get(&ru) == Some(&slot) && reserved.get(&rv) == Some(&slot);
                if wins {
                    uf.union(ru, rv);
                    flags[e] = 1;
                } else {
                    survivors.push(e);
                }
            }
        }
        let mut next: Vec<usize> = survivors;
        next.extend_from_slice(&pending[take..]);
        pending = next;
        profile.push(work);
    }
    (flags, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::interp::SeqInterp;
    use apir_fabric::{Fabric, FabricConfig};
    use apir_workloads::gen;

    fn edges() -> Arc<Vec<(u32, u32, u64)>> {
        Arc::new(gen::edge_list_distinct_weights(60, 180, 5))
    }

    #[test]
    fn interpreter_matches_kruskal() {
        let app = build(60, edges());
        let res = SeqInterp::run(&app.spec, &app.input).unwrap();
        (app.check)(&res.mem).unwrap();
    }

    #[test]
    fn fabric_matches_kruskal() {
        let app = build(60, edges());
        let report = Fabric::new(&app.spec, &app.input, FabricConfig::default())
            .run()
            .unwrap();
        (app.check)(&report.mem_image).unwrap();
        // MST commits serialize through the otherwise exit: the rule
        // engine must have fired it.
        assert!(report.rules[0].otherwise_fires > 0);
    }

    #[test]
    fn parallel_kruskal_matches_reference() {
        let e = edges();
        let mut sorted = e.as_ref().clone();
        sorted.sort_by_key(|x| x.2);
        let mut uf = UnionFind::new(60);
        let want: Vec<u64> = sorted
            .iter()
            .map(|&(u, v, _)| uf.union(u, v) as u64)
            .collect();
        let (flags, profile) = parallel_kruskal(60, &sorted, 16);
        assert_eq!(flags, want);
        assert!(!profile.is_empty());
    }
}
