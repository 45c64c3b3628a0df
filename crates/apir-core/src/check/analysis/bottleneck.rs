//! Static bottleneck prediction: per-stage initiation-interval pressure
//! estimates from actor latencies and the memory-model parameters.
//!
//! The model is deliberately coarse — it must only *rank* the stall
//! causes the dynamic fabric attributes (`fabric.stall.*`), not predict
//! cycle counts. Traffic per task set is estimated by iterating the
//! enqueue/expand production graph a fixed number of rounds (divergent
//! recirculation is folded into a per-set requeue weight rather than the
//! traffic fixed point, so the estimate stays finite and deterministic);
//! each body op then contributes pressure to the stall causes its
//! hardware stage can raise, weighted by its set's normalized traffic.

use super::occupancy::{rendezvous_is_waiting, QueueBound};
use super::AnalysisParams;
use crate::op::BodyOp;
use crate::spec::Spec;

/// Stall-cause keys, mirroring the dynamic attribution order
/// (`StallCause::ALL` in the simulator): ties break toward the earlier
/// key, exactly like the measured-top-cause extraction.
pub const CAUSE_KEYS: [&str; 10] = [
    "downstream_full",
    "queue_full",
    "reserve_full",
    "mshr_full",
    "bandwidth",
    "miss_outstanding",
    "rendezvous_parked",
    "lane_busy",
    "lane_masked",
    "bus_full",
];

/// One stage's contribution to the dominant stall cause.
#[derive(Clone, Debug)]
pub struct StageScore {
    /// Stage name: `<set>.<pos>:<mnemonic>` (or `queue:<set>` for
    /// queue-level pressure).
    pub stage: String,
    /// Pressure contribution (dimensionless, rounded to 4 decimals).
    pub score: f64,
}

/// The static bottleneck verdict for one spec×config pair.
#[derive(Clone, Debug)]
pub struct BottleneckPrediction {
    /// Predicted dominant stall cause (a [`CAUSE_KEYS`] entry).
    pub cause: &'static str,
    /// Predicted binding stage (heaviest contributor to `cause`, or
    /// `"none"` when nothing contributes).
    pub stage: String,
    /// Pressure score per cause, in [`CAUSE_KEYS`] order.
    pub scores: Vec<(&'static str, f64)>,
    /// Per-stage contributions to the dominant cause, heaviest first.
    pub stages: Vec<StageScore>,
    /// Normalized per-set traffic weights backing the scores.
    pub weights: Vec<(String, f64)>,
}

fn round4(x: f64) -> f64 {
    let r = (x * 10_000.0).round() / 10_000.0;
    // Normalize -0.0 so the JSON export renders `0`, not `-0`.
    if r == 0.0 {
        0.0
    } else {
        r
    }
}

/// Runs the predictor for `spec` under `params`, consuming the occupancy
/// verdicts in `queues` for the queue-pressure causes.
pub(super) fn predict(
    spec: &Spec,
    params: &AnalysisParams,
    queues: &[QueueBound],
) -> BottleneckPrediction {
    let sets = spec.task_sets();
    let n = sets.len();

    // Traffic estimate: Jacobi iteration of the production graph for a
    // fixed n+2 rounds. Zero seeds everywhere would zero the weights, so
    // fall back to one token per set.
    let mut seeds: Vec<f64> = (0..n)
        .map(|q| params.seeds.get(q).copied().unwrap_or(0) as f64)
        .collect();
    if seeds.iter().all(|&s| s == 0.0) {
        seeds.iter_mut().for_each(|s| *s = 1.0);
    }
    let mut traffic = seeds.clone();
    for _ in 0..n + 2 {
        let prev = traffic.clone();
        for (q, t) in traffic.iter_mut().enumerate() {
            let mut acc = seeds[q];
            for (p, ts) in sets.iter().enumerate() {
                for op in &ts.body {
                    match op {
                        BodyOp::Enqueue { task_set, .. } if task_set.0 == q => acc += prev[p],
                        BodyOp::EnqueueRange { task_set, .. } if task_set.0 == q => {
                            acc += prev[p] * params.expand_factor
                        }
                        _ => {}
                    }
                }
            }
            *t = acc.min(1e12);
        }
    }
    // Requeues amplify a set's effective traffic (each token may make
    // several trips) instead of feeding the fixed point, which would
    // diverge on recirculation cycles.
    let mut weights: Vec<f64> = (0..n)
        .map(|q| {
            let requeues = sets[q]
                .body
                .iter()
                .filter(|op| matches!(op, BodyOp::Requeue { .. }))
                .count() as f64;
            traffic[q] * (1.0 + requeues)
        })
        .collect();
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        weights.iter_mut().for_each(|w| *w /= total);
    }

    let miss_ratio = params.miss_ratio(spec);
    let miss_cycles = params.miss_cycles() as f64;
    let lsu = params.lsu_window.max(1) as f64;
    let pipes = params.pipelines_per_set as f64;

    // cause index -> [(stage, contribution)]
    let mut contrib: Vec<Vec<(String, f64)>> = vec![Vec::new(); CAUSE_KEYS.len()];
    let idx = |key: &str| CAUSE_KEYS.iter().position(|k| *k == key).unwrap();
    let (i_ds, i_qf, i_rf, i_mshr, i_bw, i_mo, i_rp, i_lb) = (
        idx("downstream_full"),
        idx("queue_full"),
        idx("reserve_full"),
        idx("mshr_full"),
        idx("bandwidth"),
        idx("miss_outstanding"),
        idx("rendezvous_parked"),
        idx("lane_busy"),
    );

    for (tsi, ts) in sets.iter().enumerate() {
        let w = weights[tsi];
        for (pos, op) in ts.body.iter().enumerate() {
            let stage = || format!("{}.{}:{}", ts.name, pos, op.mnemonic());
            match op {
                BodyOp::Load { .. } | BodyOp::Store { .. } | BodyOp::Extern { .. } => {
                    // Extern cores always cross the link; loads/stores
                    // miss at the modeled ratio.
                    let ratio = if matches!(op, BodyOp::Extern { .. }) {
                        1.0
                    } else {
                        miss_ratio
                    };
                    let issue = w * ratio;
                    contrib[i_mo].push((stage(), issue * miss_cycles / lsu));
                    contrib[i_mshr]
                        .push((stage(), issue * pipes / params.mshr_depth.max(1) as f64));
                    contrib[i_bw].push((
                        stage(),
                        issue * params.line_bytes as f64 / params.qpi_bytes_per_cycle.max(1e-9),
                    ));
                }
                BodyOp::Rendezvous { rule_instance, .. }
                    if rendezvous_is_waiting(spec, ts, rule_instance.pos()) =>
                {
                    // A parked waiting rendezvous backpressures every
                    // upstream latch — deeper placement, more stages
                    // held behind it.
                    contrib[i_ds].push((stage(), w * pos as f64));
                    contrib[i_rp].push((stage(), w * 2.0));
                }
                BodyOp::AllocRule { .. } => {
                    contrib[i_lb].push((stage(), w * pipes / params.rule_lanes.max(1) as f64));
                }
                _ => {}
            }
        }
    }
    for q in queues {
        if q.recirculating && q.reserve > 0 && q.in_pipe > q.reserve {
            contrib[i_rf].push((
                format!("queue:{}", q.task_set),
                q.in_pipe as f64 / q.reserve as f64 - 1.0,
            ));
        }
        if let Some(d) = q.demand {
            let headroom = q.capacity.saturating_sub(q.reserve).max(1) as f64;
            if d as f64 > headroom {
                contrib[i_qf].push((format!("queue:{}", q.task_set), d as f64 / headroom - 1.0));
            }
        }
    }

    let scores: Vec<(&'static str, f64)> = CAUSE_KEYS
        .iter()
        .enumerate()
        .map(|(i, key)| (*key, round4(contrib[i].iter().map(|(_, s)| s).sum())))
        .collect();
    let mut best = 0usize;
    for (i, (_, s)) in scores.iter().enumerate() {
        if *s > scores[best].1 {
            best = i;
        }
    }
    let mut stages: Vec<StageScore> = contrib[best]
        .iter()
        .map(|(stage, s)| StageScore {
            stage: stage.clone(),
            score: round4(*s),
        })
        .collect();
    stages.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let stage = stages
        .first()
        .map(|s| s.stage.clone())
        .unwrap_or_else(|| "none".to_string());
    BottleneckPrediction {
        cause: CAUSE_KEYS[best],
        stage,
        scores,
        stages,
        weights: sets
            .iter()
            .zip(&weights)
            .map(|(ts, w)| (ts.name.clone(), round4(*w)))
            .collect(),
    }
}
