//! FPGA resource model for the architectural templates.
//!
//! Section 6.2 of the paper reports structure-level numbers for the
//! generated accelerators on a Stratix V 5SGXEA7: the rule engine takes
//! 4.8–10% of total registers (mostly allocator and event bus), with
//! BRAM and combinational logic negligible next to the task pipelines.
//! This module estimates ALM / register / M20K usage of every template so
//! the synthesis heuristic can fill the device and the evaluation can
//! regenerate the Section 6.2 table.
//!
//! The per-template constants are first-order estimates for a 64-bit
//! datapath on Stratix V-class fabric; the *relative* weights (stations
//! and latches dominate; rule lanes are narrow) are what matters for
//! reproducing the paper's observation.

use crate::FabricConfig;
use apir_core::op::BodyOp;
use apir_core::spec::Spec;

/// Device capacity of the paper's FPGA (Altera Stratix V 5SGXEA7).
#[derive(Clone, Copy, Debug)]
pub struct StratixV;

impl StratixV {
    /// Adaptive logic modules.
    pub const ALMS: u64 = 234_720;
    /// Flip-flops (4 per ALM).
    pub const REGISTERS: u64 = 938_880;
    /// M20K block RAMs.
    pub const M20KS: u64 = 2_560;
}

/// Estimated resource usage of one accelerator configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceReport {
    /// Registers in task pipelines (latches + stations).
    pub pipeline_registers: u64,
    /// Registers in rule engines (lanes + allocator + event bus).
    pub rule_engine_registers: u64,
    /// Registers in task queues and the memory interface.
    pub infrastructure_registers: u64,
    /// Total ALMs.
    pub alms: u64,
    /// Total M20K blocks (queues + cache).
    pub m20ks: u64,
}

impl ResourceReport {
    /// Total registers.
    pub fn total_registers(&self) -> u64 {
        self.pipeline_registers + self.rule_engine_registers + self.infrastructure_registers
    }

    /// The paper's Section 6.2 metric: rule engine share of registers.
    pub fn rule_engine_fraction(&self) -> f64 {
        if self.total_registers() == 0 {
            0.0
        } else {
            self.rule_engine_registers as f64 / self.total_registers() as f64
        }
    }

    /// Does the design fit the Stratix V device?
    pub fn fits_stratix_v(&self) -> bool {
        self.alms <= StratixV::ALMS
            && self.total_registers() <= StratixV::REGISTERS
            && self.m20ks <= StratixV::M20KS
    }

    /// Fraction of the device's ALMs used.
    pub fn alm_fraction(&self) -> f64 {
        self.alms as f64 / StratixV::ALMS as f64
    }
}

/// Token width in register bits for a task set: well-order index + data
/// fields + a small number of live intermediate values.
fn token_bits(arity: usize) -> u64 {
    // 64-bit index compare key + fields + ~2 live 64-bit temporaries.
    (1 + arity as u64 + 2) * 64
}

/// Estimates resources for `spec` under the template parameters `cfg`.
pub fn estimate_resources(spec: &Spec, cfg: &FabricConfig) -> ResourceReport {
    let mut r = ResourceReport::default();
    for ts in spec.task_sets() {
        let tok = token_bits(ts.arity());
        for op in &ts.body {
            let (regs, alms) = match op {
                // Out-of-order stations: window × (token + tag/CAM entry).
                BodyOp::Load { .. } | BodyOp::Store { .. } => {
                    let w = cfg.lsu_window as u64;
                    (w * (tok / 2 + 48), w * 40 + 120)
                }
                BodyOp::Rendezvous { .. } => {
                    let w = cfg.rendezvous_window as u64;
                    (w * (tok / 2 + 48), w * 40 + 160)
                }
                BodyOp::Extern { .. } => {
                    let w = cfg.lsu_window as u64;
                    // The IP core itself is app-specific; charge a generic
                    // wrapper plus the station.
                    (w * (tok / 2 + 48) + 2_000, w * 40 + 1_500)
                }
                // Expand holds a counter pair on top of the latch.
                BodyOp::EnqueueRange { .. } => (tok + 192, tok / 4 + 120),
                // In-order single-latch stages.
                _ => (tok + 64, tok / 4 + 60),
            };
            r.pipeline_registers += regs * cfg.pipelines_per_set as u64;
            r.alms += alms * cfg.pipelines_per_set as u64;
        }
        // Task queue: banks in BRAM, word width = token fields + index.
        let entry_bits = (1 + ts.arity() as u64) * 64;
        let queue_bits = cfg.queue_capacity as u64 * entry_bits;
        r.m20ks += queue_bits.div_ceil(20_480).max(cfg.queue_banks as u64);
        r.infrastructure_registers += cfg.queue_banks as u64 * 220;
        r.alms += cfg.queue_banks as u64 * 150;
    }
    for rule in spec.rules() {
        // Lane: parameters + index key + verdict/countdown state.
        let lane_bits = (rule.n_params as u64) * 64 + 64 + 32;
        let lanes = cfg.rule_lanes as u64;
        let allocator = lanes * 40 + 800;
        let event_bus = cfg.event_bus_width as u64 * 620;
        r.rule_engine_registers += lanes * lane_bits / 4 + allocator + event_bus;
        // Condition evaluation is combinational.
        let cond_ops: usize = rule.clauses.iter().map(|c| c.condition.op_count()).sum();
        r.alms += lanes * (cond_ops as u64 * 24 + 30) + 1_200;
    }
    // Memory interface + cache controller.
    r.infrastructure_registers += 6_000;
    r.alms += 8_000;
    r.m20ks += (cfg.mem.cache_kb as u64 * 1024 * 8).div_ceil(20_480);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::rule::RuleDecl;
    use apir_core::spec::TaskSetKind;

    fn spec_with_rule() -> Spec {
        let mut s = Spec::new("r");
        let reg = s.region("m", 64);
        let l = s.label("commit");
        let rule = s.rule(RuleDecl::new("conflict", 2, true).on_label(
            l,
            apir_core::expr::dsl::eq(apir_core::expr::dsl::ev(0), apir_core::expr::dsl::param(0)),
            apir_core::rule::RuleAction::Return(false),
        ));
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["a"]);
        let mut b = s.body(ts);
        let a = b.field(0);
        let v = b.load(reg, a);
        let h = b.alloc_rule(rule, &[a, v]);
        let rv = b.rendezvous(h);
        let w = b.store(reg, a, v, apir_core::op::StoreKind::Min, Some(rv));
        b.emit(l, &[a], Some(w));
        b.finish();
        s.build().unwrap()
    }

    #[test]
    fn report_is_populated_and_fits() {
        let s = spec_with_rule();
        let cfg = FabricConfig::default();
        let r = estimate_resources(&s, &cfg);
        assert!(r.pipeline_registers > 0);
        assert!(r.rule_engine_registers > 0);
        assert!(r.m20ks > 0);
        assert!(r.fits_stratix_v(), "{r:?}");
        let f = r.rule_engine_fraction();
        assert!(f > 0.0 && f < 0.5, "fraction {f}");
    }

    #[test]
    fn more_pipelines_cost_more() {
        let s = spec_with_rule();
        let base = estimate_resources(&s, &FabricConfig::default());
        let big = estimate_resources(
            &s,
            &FabricConfig {
                pipelines_per_set: 8,
                ..FabricConfig::default()
            },
        );
        assert!(big.pipeline_registers > 3 * base.pipeline_registers);
        // Rule engine is shared: unchanged.
        assert_eq!(big.rule_engine_registers, base.rule_engine_registers);
    }

    #[test]
    fn rule_engine_share_shrinks_with_replication() {
        let s = spec_with_rule();
        let f1 = estimate_resources(&s, &FabricConfig::default()).rule_engine_fraction();
        let f8 = estimate_resources(
            &s,
            &FabricConfig {
                pipelines_per_set: 8,
                ..FabricConfig::default()
            },
        )
        .rule_engine_fraction();
        assert!(f8 < f1);
    }
}
