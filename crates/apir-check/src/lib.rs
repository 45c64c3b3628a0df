//! # apir-check
//!
//! The static-analysis front end of the APIR framework: a multi-lint
//! analyzer over specifications and their lowered Boolean Dataflow Graphs,
//! with structured diagnostics (stable `APIRxxx` codes, severities, entity
//! paths and fix hints).
//!
//! The analyses themselves live in [`apir_core::check`] so that
//! `Spec::build`, `Bdfg::validate` and the fabric can run them without a
//! dependency cycle; this crate re-exports that API, adds the registry of
//! builtin benchmark specs, and ships the `apir-lint` binary that gates CI
//! (`scripts/verify.sh`) on zero error-level diagnostics.
//!
//! ```
//! use apir_check::{check_spec, Severity};
//!
//! let mut spec = apir_core::Spec::new("toy");
//! let ts = spec.task_set("t", apir_core::TaskSetKind::ForEach, 1, &["x"]);
//! let mut b = spec.body(ts);
//! b.field(0);
//! b.finish();
//! assert!(!check_spec(&spec).has_errors());
//! assert_eq!(Severity::Error.to_string(), "error");
//! ```

pub use apir_core::check::{
    check_all, check_bdfg, check_bdfg_structure, check_spec, Diagnostic, Lint, Report, Severity,
};

use apir_apps::AppInstance;
use apir_core::check::analysis::Analysis;
use apir_core::Spec;
use std::sync::Arc;

/// Builds every builtin benchmark *instance* (spec + seeded input +
/// tuning hook) over a small deterministic workload — the set `apir-lint`
/// analyzes by default and the golden tests hold at zero error-level
/// diagnostics. The inputs matter to the semantic analysis (`--analyze`):
/// seed counts and the memory footprint feed the occupancy and bottleneck
/// models.
pub fn builtin_instances() -> Vec<AppInstance> {
    let g = Arc::new(apir_workloads::gen::road_network(8, 8, 0.9, 4, 1));
    let edges = Arc::new(apir_workloads::gen::edge_list_distinct_weights(32, 96, 1));
    let mesh = Arc::new(apir_workloads::delaunay::Mesh::random(20, 1));
    let lu_pattern = apir_workloads::sparse::BlockPattern::random(4, 0.5, 1);
    vec![
        apir_apps::bfs::build(g.clone(), 0, apir_apps::bfs::BfsVariant::Spec),
        apir_apps::bfs::build(g.clone(), 0, apir_apps::bfs::BfsVariant::Coor),
        apir_apps::sssp::build(g, 0),
        apir_apps::mst::build(32, edges),
        apir_apps::dmr::build(mesh, 21.0),
        apir_apps::lu::build(&lu_pattern, 4, 1),
    ]
}

/// Builds every builtin benchmark specification (see
/// [`builtin_instances`] for the full instances with inputs).
///
/// The workloads only shape region sizes and seeded tasks; the lints are
/// properties of the specification structure, not of the input.
pub fn builtin_apps() -> Vec<(String, Spec)> {
    builtin_instances()
        .into_iter()
        .map(|app| (app.name.clone(), app.spec))
        .collect()
}

/// Runs the full analysis pass over one builtin app by name.
pub fn check_builtin(name: &str) -> Option<Report> {
    builtin_apps()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, spec)| check_all(&spec))
}

/// Runs the config-aware semantic analysis ([`apir_core::check::analysis`])
/// over one builtin instance: the default fabric configuration with the
/// app's tuning hook applied, parameterized by the instance's seeded
/// input.
///
/// # Panics
///
/// Panics if the spec cannot be lowered — builtin specs always can (the
/// golden tests hold them lint-clean).
pub fn analyze_instance(app: &AppInstance) -> Analysis {
    let mut cfg = apir_fabric::FabricConfig::default();
    (app.tune)(&mut cfg);
    apir_fabric::analyze_config(&cfg, &app.spec, &app.input).expect("builtin specs are lowerable")
}

/// Resolves requested app names against the known registry, preserving
/// request order. Errors on the first unknown name with a diagnostic
/// listing the known apps (`apir-lint` turns this into exit code 2).
pub fn resolve_apps(known: &[String], requested: &[String]) -> Result<Vec<usize>, String> {
    requested
        .iter()
        .map(|want| {
            known.iter().position(|n| n == want).ok_or_else(|| {
                format!(
                    "unknown app `{want}` (known: {})",
                    known
                        .iter()
                        .map(String::as_str)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
        })
        .collect()
}

/// Parses a comma-separated `--codes` filter list (`APIR001,APIR610,...`)
/// into lint identities. Errors on the first unrecognized code
/// (`apir-lint` turns this into exit code 2).
pub fn parse_code_filter(list: &str) -> Result<Vec<Lint>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(|code| {
            Lint::all()
                .iter()
                .copied()
                .find(|l| l.code() == code)
                .ok_or_else(|| {
                    format!(
                        "unknown diagnostic code `{code}` (run `apir-lint --codes` for the table)"
                    )
                })
        })
        .collect()
}

/// Projects a report onto the given lint codes, keeping diagnostic order.
pub fn filter_by_codes(report: &Report, codes: &[Lint]) -> Report {
    let mut out = Report::new(report.subject.clone());
    for d in report.diagnostics() {
        if codes.contains(&d.lint) {
            out.push(d.clone());
        }
    }
    out
}

/// Representative fabric configurations `apir-lint` validates alongside
/// the builtin specs: the HARP-default fabric and the chaos
/// fault-injection preset. Both are held at zero APIR5xx diagnostics —
/// the configuration analog of the builtin specs staying lint-clean.
pub fn builtin_fabric_configs() -> Vec<(String, apir_fabric::FabricConfig)> {
    use apir_fabric::{FabricConfig, FaultConfig};
    let chaos = FabricConfig {
        faults: FaultConfig::chaos(0),
        ..FabricConfig::default()
    };
    vec![
        ("fabric:default".to_string(), FabricConfig::default()),
        ("fabric:chaos".to_string(), chaos),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_the_papers() {
        let names: Vec<String> = builtin_apps().into_iter().map(|(n, _)| n).collect();
        for expect in [
            "SPEC-BFS",
            "COOR-BFS",
            "SPEC-SSSP",
            "SPEC-MST",
            "SPEC-DMR",
            "COOR-LU",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
    }

    #[test]
    fn check_builtin_finds_and_misses() {
        assert!(check_builtin("SPEC-BFS").is_some());
        assert!(check_builtin("NOT-AN-APP").is_none());
    }

    #[test]
    fn unknown_app_name_is_a_diagnostic() {
        let known: Vec<String> = builtin_apps().into_iter().map(|(n, _)| n).collect();
        let err = resolve_apps(&known, &["SPEC-BOGUS".to_string()]).unwrap_err();
        assert!(err.contains("unknown app `SPEC-BOGUS`"), "{err}");
        assert!(err.contains("SPEC-BFS"), "lists the known apps: {err}");
        let ok = resolve_apps(&known, &["SPEC-MST".to_string(), "COOR-LU".to_string()])
            .expect("known names resolve");
        assert_eq!(ok.len(), 2);
        assert_eq!(known[ok[0]], "SPEC-MST");
    }

    #[test]
    fn unknown_code_filter_value_is_a_diagnostic() {
        let err = parse_code_filter("APIR001,APIR999").unwrap_err();
        assert!(err.contains("unknown diagnostic code `APIR999`"), "{err}");
        let ok = parse_code_filter("APIR610, APIR613").expect("known codes parse");
        assert_eq!(ok, vec![Lint::CycleBufferedSafe, Lint::CycleUnsound]);
    }

    #[test]
    fn code_filter_projects_reports() {
        let app = &builtin_instances()[3]; // SPEC-MST
        let a = analyze_instance(app);
        let only_cycles = filter_by_codes(
            &a.report,
            &[Lint::CycleWatchdogRescuable, Lint::CycleUnsound],
        );
        assert!(only_cycles
            .diagnostics()
            .iter()
            .all(|d| matches!(d.lint, Lint::CycleWatchdogRescuable | Lint::CycleUnsound)));
        assert!(only_cycles.has(Lint::CycleWatchdogRescuable));
    }

    #[test]
    fn builtin_analyses_are_info_only() {
        for app in builtin_instances() {
            let a = analyze_instance(&app);
            assert!(
                !a.report.has_errors(),
                "{}: {}",
                app.name,
                a.report.render_text()
            );
            assert!(
                a.report.at(Severity::Warn).next().is_none(),
                "{}: {}",
                app.name,
                a.report.render_text()
            );
        }
    }
}
