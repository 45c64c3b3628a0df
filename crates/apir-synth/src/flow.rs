//! Specification → BDFG → parameterized fabric instance.

use apir_core::bdfg::Bdfg;
use apir_core::program::ProgramInput;
use apir_core::spec::Spec;
use apir_fabric::{
    estimate_resources, Fabric, FabricConfig, FabricError, FabricReport, ResourceReport, StratixV,
};

/// Resource budget the heuristic fills.
#[derive(Clone, Copy, Debug)]
pub struct SynthesisTarget {
    /// Fraction of device ALMs the design may occupy.
    pub alm_budget: f64,
    /// Fraction of device registers the design may occupy.
    pub register_budget: f64,
    /// Upper bound on pipeline replication per task set.
    pub max_pipelines: usize,
}

impl Default for SynthesisTarget {
    fn default() -> Self {
        SynthesisTarget {
            alm_budget: 0.85,
            register_budget: 0.85,
            max_pipelines: 8,
        }
    }
}

/// A synthesized accelerator: chosen template parameters plus estimates.
#[derive(Clone, Debug)]
pub struct SynthesizedDesign {
    /// Template parameters chosen by the heuristic.
    pub cfg: FabricConfig,
    /// Resource estimate at those parameters.
    pub resources: ResourceReport,
    /// BDFG actor/edge summary.
    pub bdfg_summary: apir_core::bdfg::BdfgSummary,
}

impl SynthesizedDesign {
    /// Instantiates and runs the design on an input.
    ///
    /// # Errors
    ///
    /// Propagates [`FabricError`] from the simulation.
    pub fn run(&self, spec: &Spec, input: &ProgramInput) -> Result<FabricReport, FabricError> {
        Fabric::new(spec, input, self.cfg.clone()).run()
    }
}

/// Chooses template parameters for `spec` under `target`, maximizing
/// pipeline replication within the resource budget (the paper's
/// fill-the-FPGA heuristic), then returns the design.
///
/// # Panics
///
/// Panics if the spec was not validated.
pub fn synthesize(spec: &Spec, base: FabricConfig, target: SynthesisTarget) -> SynthesizedDesign {
    assert!(spec.is_validated(), "spec must be validated");
    let bdfg = Bdfg::from_spec(spec);
    bdfg.validate().expect("BDFG of a validated spec is sound");
    let fits = |cfg: &FabricConfig| {
        let r = estimate_resources(spec, cfg);
        r.alms as f64 <= target.alm_budget * StratixV::ALMS as f64
            && r.total_registers() as f64 <= target.register_budget * StratixV::REGISTERS as f64
            && r.m20ks <= StratixV::M20KS
    };
    let mut cfg = FabricConfig {
        pipelines_per_set: 1,
        ..base
    };
    // Grow replication while the estimate fits.
    while cfg.pipelines_per_set < target.max_pipelines {
        let next = FabricConfig {
            pipelines_per_set: cfg.pipelines_per_set + 1,
            ..cfg.clone()
        };
        if fits(&next) {
            cfg = next;
        } else {
            break;
        }
    }
    // If even one pipeline per set misses the budget, shrink the
    // out-of-order windows until it fits (or hit the floor).
    while !fits(&cfg) && cfg.lsu_window > 2 {
        cfg.lsu_window /= 2;
        cfg.rendezvous_window = cfg.rendezvous_window.max(2) / 2 * 2;
    }
    let resources = estimate_resources(spec, &cfg);
    SynthesizedDesign {
        resources,
        bdfg_summary: bdfg.summary(),
        cfg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::op::AluOp;
    use apir_core::spec::TaskSetKind;

    fn small_spec() -> Spec {
        let mut s = Spec::new("s");
        let r = s.region("m", 64);
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        let v = b.load(r, x);
        let one = b.konst(1);
        let w = b.alu(AluOp::Add, v, one);
        b.store_plain(r, x, w);
        b.finish();
        s.build().unwrap()
    }

    #[test]
    fn heuristic_fills_device() {
        let spec = small_spec();
        let d = synthesize(&spec, FabricConfig::default(), SynthesisTarget::default());
        // A tiny spec should replicate to the pipeline cap.
        assert_eq!(d.cfg.pipelines_per_set, 8);
        assert!(d.resources.fits_stratix_v());
        assert!(d.bdfg_summary.actors > 0);
    }

    #[test]
    fn tight_budget_limits_replication() {
        let spec = small_spec();
        let d = synthesize(
            &spec,
            FabricConfig::default(),
            SynthesisTarget {
                alm_budget: 0.05,
                register_budget: 0.05,
                max_pipelines: 8,
            },
        );
        assert!(d.cfg.pipelines_per_set < 8);
    }

    #[test]
    fn synthesized_design_runs() {
        let spec = small_spec();
        let d = synthesize(&spec, FabricConfig::default(), SynthesisTarget::default());
        let mut input = ProgramInput::new(&spec);
        for i in 0..32u64 {
            input.seed(&spec, apir_core::spec::TaskSetId(0), &[i % 16]);
        }
        let report = d.run(&spec, &input).unwrap();
        assert_eq!(report.total_retired(), 32);
    }
}
