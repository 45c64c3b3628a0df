//! Golden tests for the semantic analysis pass (`APIR6xx`): the full
//! verdict set per builtin app, the static-vs-dynamic bottleneck
//! validation, and byte-determinism of the `apir.analysis.report.v1`
//! document against the committed `ANALYSIS_baseline.json`.

use apir::bench::Scale;
use apir::check::{analyze_instance, builtin_instances};
use apir::trace::{analysis_report, validate_analysis};

/// The complete `(code, entity)` verdict sequence per builtin app under
/// the `apir-lint --analyze` path (default fabric config + the app's
/// tuning hook). Any analysis change that moves a verdict must update
/// this table deliberately.
#[test]
fn builtin_verdict_sets_are_pinned() {
    let expected: &[(&str, &[(&str, &str)])] = &[
        (
            "SPEC-BFS",
            &[
                ("APIR604", "queue:update"),
                ("APIR604", "queue:visit"),
                ("APIR611", "actor:1"),
            ],
        ),
        (
            "COOR-BFS",
            &[
                ("APIR604", "queue:update"),
                ("APIR604", "queue:visit"),
                ("APIR611", "actor:1"),
            ],
        ),
        (
            "SPEC-SSSP",
            &[
                ("APIR604", "queue:expand"),
                ("APIR604", "queue:relax"),
                ("APIR611", "actor:1"),
            ],
        ),
        (
            "SPEC-MST",
            &[
                ("APIR604", "queue:edge"),
                ("APIR601", "queue:edge"),
                ("APIR611", "actor:1"),
            ],
        ),
        (
            "SPEC-DMR",
            &[("APIR604", "queue:badtri"), ("APIR611", "actor:1")],
        ),
        ("COOR-LU", &[("APIR604", "queue:lutask")]),
    ];
    let apps = builtin_instances();
    assert_eq!(apps.len(), expected.len());
    for (app, (name, verdicts)) in apps.iter().zip(expected) {
        assert_eq!(&app.name, name);
        let a = analyze_instance(app);
        let got: Vec<(String, String)> = a
            .report
            .diagnostics()
            .iter()
            .map(|d| (d.lint.code().to_string(), d.entity.clone()))
            .collect();
        let want: Vec<(String, String)> = verdicts
            .iter()
            .map(|(c, e)| (c.to_string(), e.to_string()))
            .collect();
        assert_eq!(
            got,
            want,
            "{name}: verdict set moved:\n{}",
            a.report.render_text()
        );
        assert!(!a.report.has_errors(), "{name}: builtins stay error-free");
    }
}

/// The headline validation contract, pinned per app: the statically
/// predicted dominant stall cause equals the measured `fabric.stall.*`
/// top cause on the synthesized baseline fabric, and every measured
/// peak queue occupancy respects its static bound. BFS must come out
/// memory-latency-bound (`miss_outstanding`), matching the paper's
/// narrative; MST's waiting rendezvous makes it backpressure-bound.
#[test]
fn predicted_dominant_cause_matches_measured() {
    let expected = [
        ("SPEC-BFS", "miss_outstanding"),
        ("COOR-BFS", "miss_outstanding"),
        ("SPEC-SSSP", "miss_outstanding"),
        ("SPEC-MST", "downstream_full"),
        ("SPEC-DMR", "miss_outstanding"),
        ("COOR-LU", "miss_outstanding"),
    ];
    for (name, cause) in expected {
        let v = validate_analysis(name, Scale::Tiny);
        assert!(
            v.ok(),
            "{name}: static analysis contract violated: {:?}",
            v.violations
        );
        assert_eq!(v.predicted_cause, cause, "{name}: predicted cause moved");
        assert_eq!(v.measured_cause, cause, "{name}: measured cause moved");
        assert!(v.measured_stalls > 0, "{name}: run recorded no stalls");
    }
}

/// The analysis report renders byte-identically across invocations and
/// matches the committed `ANALYSIS_baseline.json` (regenerate with
/// `apir-trace analyze --json ANALYSIS_baseline.json` after an
/// intentional analysis change).
#[test]
fn analysis_report_matches_committed_baseline() {
    let mut a = analysis_report(Scale::Tiny).render_pretty();
    a.push('\n');
    let mut b = analysis_report(Scale::Tiny).render_pretty();
    b.push('\n');
    assert_eq!(a, b, "analysis report is not deterministic");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ANALYSIS_baseline.json");
    let committed = std::fs::read_to_string(path).expect("ANALYSIS_baseline.json is committed");
    assert_eq!(
        a, committed,
        "ANALYSIS_baseline.json drifted; regenerate via `apir-trace analyze --json`"
    );
}
