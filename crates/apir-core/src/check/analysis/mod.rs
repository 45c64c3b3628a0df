//! Semantic spec×config analysis: a fixed-point dataflow framework over
//! the BDFG (the `APIR6xx` family).
//!
//! Where the `APIR0xx`–`APIR5xx` lints check *local shape* (one rule, one
//! body, one config field at a time), this pass reasons about the lowered
//! graph *together with* a concrete fabric configuration:
//!
//! * [`occupancy`] — per-queue occupancy bounds by abstract interpretation
//!   of token production/consumption in an interval domain. Statically
//!   bounded flows get a finite activation demand via a saturating fixed
//!   point over the task-set production graph; anything that can
//!   recirculate, expand, or be fed by an extern core is *widened* to the
//!   queue's physical capacity (which the multi-bank FIFOs enforce, so the
//!   widened bound stays sound). Checked against the capacity/reserve
//!   split of the fabric (`APIR601`–`APIR604`).
//! * [`deadlock`] — certification of every queue/rendezvous dependency
//!   cycle (Tarjan SCCs, shared with the `APIR205` lint) as buffered-safe,
//!   watchdog-rescuable, guard-dependent, or unsound
//!   (`APIR610`–`APIR613`).
//! * [`bottleneck`] — a static throughput predictor: per-stage initiation
//!   -interval estimates from actor latencies and the memory-model
//!   parameters, scored per stall cause; the dominant cause and binding
//!   stage are validated against the dynamic `fabric.stall.*` vector by
//!   `apir-trace validate-analysis`.
//!
//! The pass needs configuration numbers but `apir-core` has no
//! dependencies, so [`AnalysisParams`] mirrors the relevant
//! `FabricConfig`/`MemConfig` fields as plain values; `apir-fabric`
//! populates it (`apir_fabric::analysis_params`) and folds error-level
//! findings into the same lint gate that rejects broken specs.

pub mod bottleneck;
pub mod deadlock;
pub mod occupancy;

pub use bottleneck::{BottleneckPrediction, StageScore, CAUSE_KEYS};
pub use deadlock::{CycleClass, CycleFinding};
pub use occupancy::QueueBound;

use super::{Report, Severity};
use crate::bdfg::Bdfg;
use crate::spec::Spec;

/// Configuration-side inputs of the semantic analysis: a dependency-free
/// mirror of the `FabricConfig`/`MemConfig` fields the pass consumes,
/// plus the per-task-set seed counts of the program input. Defaults match
/// the fabric's HARP defaults at 200 MHz.
#[derive(Clone, Debug)]
pub struct AnalysisParams {
    /// Pipeline replicas instantiated per task set.
    pub pipelines_per_set: usize,
    /// Banks per task queue.
    pub queue_banks: usize,
    /// Total capacity of each task queue (entries across banks).
    pub queue_capacity: usize,
    /// Lanes per rule engine.
    pub rule_lanes: usize,
    /// Slots in each out-of-order load/store station.
    pub lsu_window: usize,
    /// Slots in each rendezvous reorder station.
    pub rendezvous_window: usize,
    /// Cache hit latency in cycles.
    pub hit_latency: u64,
    /// Additional miss latency in cycles (on top of the hit path).
    pub miss_extra_cycles: u64,
    /// Maximum misses in flight (MSHR count).
    pub mshr_depth: usize,
    /// Requests accepted from the request FIFO per cycle.
    pub requests_per_cycle: usize,
    /// QPI link bandwidth in bytes per cycle.
    pub qpi_bytes_per_cycle: f64,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// FPGA-side cache size in bytes.
    pub cache_bytes: u64,
    /// Working-set footprint in bytes (the program input's memory image);
    /// `0` falls back to the spec's declared region sizes.
    pub footprint_bytes: u64,
    /// Initially seeded tasks per task set (missing entries read as 0).
    pub seeds: Vec<u64>,
    /// Estimated mean fan-out of an `EnqueueRange` (expand) op — a
    /// traffic-model parameter only; occupancy bounds never rely on it.
    pub expand_factor: f64,
}

impl Default for AnalysisParams {
    fn default() -> Self {
        AnalysisParams {
            pipelines_per_set: 2,
            queue_banks: 4,
            queue_capacity: 1 << 16,
            rule_lanes: 64,
            lsu_window: 16,
            rendezvous_window: 16,
            hit_latency: 14,
            miss_extra_cycles: 40,
            mshr_depth: 32,
            requests_per_cycle: 4,
            qpi_bytes_per_cycle: 35.0,
            line_bytes: 64,
            cache_bytes: 64 * 1024,
            footprint_bytes: 0,
            seeds: Vec::new(),
            expand_factor: 4.0,
        }
    }
}

impl AnalysisParams {
    /// Effective queue geometry after the fabric's construction clamps:
    /// `(banks, per_bank, capacity)` with every bank holding at least one
    /// entry. The physical capacity is a sound occupancy bound — the
    /// multi-bank FIFOs refuse pushes beyond it.
    pub fn queue_geometry(&self) -> (usize, usize, usize) {
        let banks = self.queue_banks.max(1);
        let per = self.queue_capacity.max(banks) / banks;
        (banks, per, per * banks)
    }

    /// The recirculation reserve the fabric would request for a body of
    /// `body_len` ops (latches plus every station slot), before clamping.
    pub fn reserve_demand(&self, body_len: usize) -> usize {
        self.pipelines_per_set * (body_len + body_len * self.lsu_window.max(self.rendezvous_window))
    }

    /// Estimated miss ratio of the direct-mapped cache against the
    /// working set, floored at a small cold-miss rate.
    pub fn miss_ratio(&self, spec: &Spec) -> f64 {
        let footprint = if self.footprint_bytes > 0 {
            self.footprint_bytes
        } else {
            spec.regions()
                .iter()
                .map(|(_, words)| *words as u64 * 8)
                .sum()
        };
        if footprint == 0 {
            return 0.02;
        }
        (1.0 - self.cache_bytes as f64 / footprint as f64).clamp(0.02, 1.0)
    }

    /// Full load-miss service latency in cycles.
    pub fn miss_cycles(&self) -> u64 {
        self.hit_latency + self.miss_extra_cycles
    }
}

/// The combined result of the semantic analysis of one spec×config pair.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Per-queue occupancy bounds, in task-set order.
    pub queues: Vec<QueueBound>,
    /// Certified dependency cycles, in SCC discovery order.
    pub cycles: Vec<CycleFinding>,
    /// The static bottleneck prediction.
    pub bottleneck: BottleneckPrediction,
    /// The `APIR6xx` diagnostics backing the verdicts above.
    pub report: Report,
}

/// Runs the full semantic analysis of `spec` under `params`.
///
/// Returns `None` when the spec's body-structure lints are not clean
/// enough to lower the BDFG (the same bar [`super::check_all`] applies
/// before its graph-level families); such specs are already rejected by
/// the error-level lints, so there is nothing sound to analyze.
pub fn analyze(spec: &Spec, params: &AnalysisParams) -> Option<Analysis> {
    let pre = super::check_spec(spec);
    let lowerable = !pre.diagnostics().iter().any(|d| {
        d.severity == Severity::Error
            && matches!(
                d.lint,
                super::Lint::ForwardReference
                    | super::Lint::RendezvousWithoutAlloc
                    | super::Lint::EmptyBody
                    | super::Lint::BadLevel
                    | super::Lint::WidthExceeded
                    | super::Lint::EnqueueArityMismatch
                    | super::Lint::RuleParamArityMismatch
            )
    });
    if !lowerable {
        return None;
    }
    let bdfg = Bdfg::lower_unchecked(spec);
    let mut report = Report::new(spec.name());
    let queues = occupancy::queue_bounds(spec, params, &mut report);
    let cycles = deadlock::certify_cycles(&bdfg, spec, &queues, &mut report);
    let bottleneck = bottleneck::predict(spec, params, &queues);
    Some(Analysis {
        queues,
        cycles,
        bottleneck,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::AluOp;
    use crate::spec::TaskSetKind;

    /// A finite one-set spec: no recirculation, no expansion.
    fn finite_spec() -> Spec {
        let mut s = Spec::new("finite");
        let r = s.region("acc", 16);
        let ts = s.task_set("t", TaskSetKind::ForAll, 1, &["i"]);
        let mut b = s.body(ts);
        let i = b.field(0);
        let one = b.konst(1);
        b.store(r, i, one, crate::op::StoreKind::Add, None);
        b.finish();
        s.build().unwrap()
    }

    /// An unguarded self-recirculating spinner.
    fn spinner_spec() -> Spec {
        let mut s = Spec::new("spin");
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        b.requeue(&[x], None);
        b.finish();
        s.build().unwrap()
    }

    #[test]
    fn finite_spec_gets_exact_demand() {
        let spec = finite_spec();
        let params = AnalysisParams {
            seeds: vec![64],
            ..AnalysisParams::default()
        };
        let a = analyze(&spec, &params).unwrap();
        assert_eq!(a.queues.len(), 1);
        assert_eq!(a.queues[0].demand, Some(64));
        assert_eq!(a.queues[0].bound, 64);
        assert!(!a.queues[0].widened);
        assert!(!a.report.has_errors());
    }

    #[test]
    fn recirculation_widens_to_capacity() {
        let spec = spinner_spec();
        let params = AnalysisParams {
            seeds: vec![1],
            ..AnalysisParams::default()
        };
        let a = analyze(&spec, &params).unwrap();
        assert!(a.queues[0].widened);
        let (_, _, cap) = params.queue_geometry();
        assert_eq!(a.queues[0].bound, cap as u64);
        assert!(a.report.has(crate::check::Lint::OccupancyWidened));
    }

    #[test]
    fn spinner_cycle_is_buffered_safe_under_default_reserve() {
        let spec = spinner_spec();
        let a = analyze(&spec, &AnalysisParams::default()).unwrap();
        assert!(
            a.cycles.iter().any(|c| c.class == CycleClass::BufferedSafe),
            "{:?}",
            a.cycles
        );
        assert!(!a.report.has_errors());
    }

    #[test]
    fn starved_reserve_is_capacity_infeasible() {
        let spec = spinner_spec();
        let params = AnalysisParams {
            queue_banks: 1,
            queue_capacity: 4,
            pipelines_per_set: 4,
            ..AnalysisParams::default()
        };
        let a = analyze(&spec, &params).unwrap();
        assert!(a.report.has(crate::check::Lint::CapacityInfeasible));
        assert!(a.report.has_errors());
    }

    #[test]
    fn finite_prediction_names_the_memory_stage() {
        let mut s = Spec::new("mem-heavy");
        let r = s.region("cells", 1 << 20);
        let ts = s.task_set("t", TaskSetKind::ForAll, 1, &["i"]);
        let mut b = s.body(ts);
        let i = b.field(0);
        let v = b.load(r, i);
        let one = b.konst(1);
        let w = b.alu(AluOp::Add, v, one);
        b.store_plain(r, i, w);
        b.finish();
        let spec = s.build().unwrap();
        let a = analyze(&spec, &AnalysisParams::default()).unwrap();
        assert_eq!(a.bottleneck.cause, "miss_outstanding");
        assert!(
            a.bottleneck.stage.contains("load"),
            "{}",
            a.bottleneck.stage
        );
    }

    #[test]
    fn unlowerable_spec_yields_none() {
        let mut s = Spec::new("empty-body");
        s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
        assert!(analyze(&s, &AnalysisParams::default()).is_none());
    }
}
