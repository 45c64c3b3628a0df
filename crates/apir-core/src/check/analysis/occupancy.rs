//! Per-queue occupancy bounds by abstract interpretation of token flow.
//!
//! Domain: `[0, demand]` intervals over "tokens ever pushed", one per task
//! queue. Acyclic enqueue flows get an exact saturating fixed point
//! (`demand`); any flow that can recirculate (requeue ops, waiting-mode
//! rendezvous bounces), expand (`EnqueueRange`), be fed by an extern core,
//! or sit on a production cycle is *widened* to the queue's physical
//! capacity. Widening stays sound because the multi-bank FIFOs refuse
//! pushes beyond capacity — the peak gauge can never exceed it.
//!
//! The bounds are then checked against the fabric's capacity/reserve
//! split (`APIR601`–`APIR604`).

use super::super::{Diagnostic, Lint, Report};
use super::AnalysisParams;
use crate::op::BodyOp;
use crate::rule::RuleMode;
use crate::spec::{Spec, TaskSetDecl};

/// Static occupancy verdict for one task queue.
#[derive(Clone, Debug)]
pub struct QueueBound {
    /// Owning task set name.
    pub task_set: String,
    /// Effective physical capacity after the fabric's banking clamps.
    pub capacity: u64,
    /// Recirculation reserve the fabric *requests* (latches + stations).
    pub in_pipe: u64,
    /// Reserve actually granted (clamped to half the capacity).
    pub reserve: u64,
    /// Exact activation demand when the flow is statically bounded.
    pub demand: Option<u64>,
    /// Sound peak-occupancy bound (demand, or capacity when widened).
    pub bound: u64,
    /// Was the bound widened to the physical capacity?
    pub widened: bool,
    /// Why widening was required, when it was.
    pub widen_reason: Option<&'static str>,
    /// Can tokens re-enter this queue from its own pipelines?
    pub recirculating: bool,
}

/// Does this set's body ever push back into its own queue — an explicit
/// requeue, or a waiting-mode rendezvous whose bounce path recirculates?
pub(super) fn is_recirculating(spec: &Spec, ts: &TaskSetDecl) -> bool {
    ts.body.iter().any(|op| match op {
        BodyOp::Requeue { .. } => true,
        BodyOp::Rendezvous { rule_instance, .. } => {
            rendezvous_is_waiting(spec, ts, rule_instance.pos())
        }
        _ => false,
    })
}

/// Resolves a rendezvous' alloc site and reports whether its rule parks
/// (waiting/coordinative mode). Immediate-mode rendezvous never park or
/// bounce, so they neither recirculate nor backpressure downstream.
pub(super) fn rendezvous_is_waiting(spec: &Spec, ts: &TaskSetDecl, alloc_pos: usize) -> bool {
    match ts.body.get(alloc_pos) {
        Some(BodyOp::AllocRule { rule, .. }) => spec
            .rules()
            .get(rule.0)
            .is_some_and(|r| matches!(r.mode, RuleMode::Waiting)),
        _ => false,
    }
}

/// Computes the per-queue occupancy bounds and pushes the `APIR601`–`604`
/// diagnostics for `spec` under `params`.
pub(super) fn queue_bounds(
    spec: &Spec,
    params: &AnalysisParams,
    report: &mut Report,
) -> Vec<QueueBound> {
    let sets = spec.task_sets();
    let n = sets.len();
    let (_, _, eff_cap) = params.queue_geometry();
    let eff_cap = eff_cap as u64;

    // Production multigraph over task sets: `enq[p][q]` counts ordinary
    // enqueue ops p→q (guards assumed true — upper bound); `feeds[p]`
    // lists every downstream queue including expand targets.
    let mut enq = vec![vec![0u64; n]; n];
    let mut feeds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut has_extern = false;
    for (p, ts) in sets.iter().enumerate() {
        for op in &ts.body {
            match op {
                BodyOp::Enqueue { task_set, .. } => {
                    enq[p][task_set.0] += 1;
                    feeds[p].push(task_set.0);
                }
                BodyOp::EnqueueRange { task_set, .. } => feeds[p].push(task_set.0),
                BodyOp::Requeue { .. } => feeds[p].push(p),
                BodyOp::Extern { .. } => has_extern = true,
                _ => {}
            }
        }
    }

    // Widening, in reason-precedence order. Extern cores spawn tasks with
    // no BDFG edge at all, so one extern op poisons every queue.
    let mut widened: Vec<Option<&'static str>> = vec![None; n];
    let recirc: Vec<bool> = sets.iter().map(|ts| is_recirculating(spec, ts)).collect();
    if has_extern {
        widened.iter_mut().for_each(|w| *w = Some("extern-fed"));
    }
    for q in 0..n {
        if widened[q].is_none() && recirc[q] {
            widened[q] = Some("recirculating");
        }
    }
    for ts in sets {
        for op in &ts.body {
            if let BodyOp::EnqueueRange { task_set, .. } = op {
                let w = &mut widened[task_set.0];
                if w.is_none() {
                    *w = Some("expand-target");
                }
            }
        }
    }
    for scc in super::super::bdfg_lints::sccs(&feeds) {
        let cyclic = scc.len() > 1 || feeds[scc[0]].iter().any(|&w| w == scc[0]);
        if cyclic {
            for &q in &scc {
                if widened[q].is_none() {
                    widened[q] = Some("production-cycle");
                }
            }
        }
    }
    // Widening propagates downstream: a widened producer can legally fill
    // every queue it feeds.
    loop {
        let mut changed = false;
        for p in 0..n {
            if widened[p].is_some() {
                for &q in &feeds[p] {
                    if widened[q].is_none() {
                        widened[q] = Some("widened-producer");
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Saturating fixed point for the finite remainder. Every producer of
    // a non-widened queue is itself non-widened (propagation above), and
    // the non-widened subgraph is acyclic, so n rounds converge.
    let mut demand: Vec<u64> = (0..n)
        .map(|q| params.seeds.get(q).copied().unwrap_or(0))
        .collect();
    for _ in 0..n {
        let prev = demand.clone();
        for (q, d) in demand.iter_mut().enumerate() {
            if widened[q].is_some() {
                continue;
            }
            let mut acc = params.seeds.get(q).copied().unwrap_or(0);
            for p in 0..n {
                if widened[p].is_none() && enq[p][q] > 0 {
                    acc = acc.saturating_add(enq[p][q].saturating_mul(prev[p]));
                }
            }
            *d = acc;
        }
    }

    let mut out = Vec::with_capacity(n);
    for (q, ts) in sets.iter().enumerate() {
        let in_pipe = params.reserve_demand(ts.body.len()) as u64;
        let reserve = in_pipe.min(eff_cap / 2);
        let is_widened = widened[q].is_some();
        let fin = (!is_widened).then(|| demand[q]);
        let bound = if is_widened {
            eff_cap
        } else {
            demand[q].min(eff_cap)
        };
        let entity = format!("queue:{}", ts.name);
        if let Some(reason) = widened[q] {
            report.push(
                Diagnostic::new(
                    Lint::OccupancyWidened,
                    entity.clone(),
                    format!(
                        "occupancy bound for `{}` widened to capacity {eff_cap} ({reason})",
                        ts.name
                    ),
                )
                .hint("unbounded production; the physical FIFO capacity is the only sound bound"),
            );
        } else if let Some(d) = fin {
            let headroom = eff_cap.saturating_sub(reserve);
            if d > headroom {
                report.push(
                    Diagnostic::new(
                        Lint::OccupancyOverCapacity,
                        entity.clone(),
                        format!(
                            "static demand {d} for `{}` exceeds ordinary-push headroom \
                             {headroom} (capacity {eff_cap} minus reserve {reserve})",
                            ts.name
                        ),
                    )
                    .hint("raise queue_capacity or shrink the station windows; seeding will stall"),
                );
            }
        }
        if recirc[q] {
            if reserve < params.pipelines_per_set as u64 {
                report.push(
                    Diagnostic::new(
                        Lint::CapacityInfeasible,
                        entity.clone(),
                        format!(
                            "reserve {reserve} for recirculating `{}` cannot hold one \
                             in-flight token per pipeline ({})",
                            ts.name, params.pipelines_per_set
                        ),
                    )
                    .hint("queue_capacity must be at least twice pipelines_per_set"),
                );
            } else if in_pipe > reserve {
                report.push(
                    Diagnostic::new(
                        Lint::ReserveOverflow,
                        entity.clone(),
                        format!(
                            "recirculation reserve demand {in_pipe} for `{}` exceeds the \
                             capacity clamp {reserve}",
                            ts.name
                        ),
                    )
                    .hint(
                        "bounces past the clamp rely on the deadlock watchdog; raise \
                           queue_capacity or shrink lsu/rendezvous windows",
                    ),
                );
            }
        }
        out.push(QueueBound {
            task_set: ts.name.clone(),
            capacity: eff_cap,
            in_pipe,
            reserve,
            demand: fin,
            bound,
            widened: is_widened,
            widen_reason: widened[q],
            recirculating: recirc[q],
        });
    }
    out
}
