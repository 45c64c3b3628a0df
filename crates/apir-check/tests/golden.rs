//! Golden lint test: every builtin benchmark spec must analyze with zero
//! error-level diagnostics, so spec edits can't silently regress the
//! liveness/hazard properties the paper's abstraction guarantees.

use apir_check::{builtin_apps, check_all, Severity};

#[test]
fn builtin_specs_lint_clean() {
    let apps = builtin_apps();
    assert_eq!(apps.len(), 6, "expected all six benchmark variants");
    for (name, spec) in apps {
        let report = check_all(&spec);
        let errors: Vec<String> = report.at(Severity::Error).map(|d| d.to_string()).collect();
        assert!(
            errors.is_empty(),
            "{name} has error-level lints:\n{}",
            errors.join("\n")
        );
    }
}

#[test]
fn builtin_specs_have_no_warnings_either() {
    // Stronger than the contract (errors) but true today; if a future spec
    // legitimately needs a warning-level idiom, relax this to error-only.
    for (name, spec) in builtin_apps() {
        let report = check_all(&spec);
        let warns: Vec<String> = report.at(Severity::Warn).map(|d| d.to_string()).collect();
        assert!(
            warns.is_empty(),
            "{name} has warning-level lints:\n{}",
            warns.join("\n")
        );
    }
}

#[test]
fn machine_rendering_is_line_per_diagnostic() {
    // DMR carries one info-level diagnostic (extern-emitted label); its
    // machine rendering must be a single well-formed pipe-separated line.
    let report = apir_check::check_builtin("SPEC-DMR").unwrap();
    let machine = report.render_machine();
    for line in machine.lines() {
        let parts: Vec<&str> = line.split('|').collect();
        assert_eq!(parts.len(), 6, "bad machine line: {line}");
        assert!(parts[0].starts_with("APIR"));
    }
}
