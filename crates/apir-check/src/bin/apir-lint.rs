//! `apir-lint` — run the APIR static analyzer over benchmark specs.
//!
//! ```text
//! apir-lint [--machine|--json] [--strict] [--analyze] [--codes [LIST]] [APP...]
//! ```
//!
//! With no `APP` arguments, lints every builtin benchmark spec (SPEC-BFS,
//! COOR-BFS, SPEC-SSSP, SPEC-MST, SPEC-DMR, COOR-LU) plus the builtin
//! fabric configurations (APIR5xx family: zero resources, misordered
//! watchdog, out-of-range fault rates, degenerate fault plans). Exits `1`
//! if any analyzed subject has an error-level diagnostic (`--strict` also
//! fails on warnings), `2` on usage errors — including unknown app names
//! and unrecognized `--codes` filter values.
//!
//! * `--machine` — one pipe-separated line per diagnostic
//!   (`CODE|severity|subject|entity|message|hint`) instead of text.
//! * `--json` — the diagnostics as a deterministic
//!   `apir.lint.report.v1` JSON document (stable key order, diffable
//!   with `apir-trace diff`). With `--analyze`, emits the
//!   `apir.analysis.report.v1` document instead.
//! * `--analyze` — run the config-aware semantic analysis (`APIR6xx`:
//!   occupancy bounds, deadlock certification, bottleneck prediction)
//!   over each app under the default fabric configuration with the
//!   app's tuning applied.
//! * `--codes` — print the table of stable diagnostic codes and exit.
//!   With a comma-separated argument (`--codes APIR601,APIR610`),
//!   filter the emitted diagnostics to those codes instead.

use apir_check::{
    analyze_instance, builtin_fabric_configs, builtin_instances, check_all, filter_by_codes,
    parse_code_filter, resolve_apps, Lint, Report, Severity,
};

fn main() {
    let mut machine = false;
    let mut json = false;
    let mut strict = false;
    let mut analyze = false;
    let mut code_filter: Option<Vec<Lint>> = None;
    let mut names: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--machine" => machine = true,
            "--json" => json = true,
            "--strict" => strict = true,
            "--analyze" => analyze = true,
            "--codes" => {
                // Bare `--codes` prints the table; `--codes LIST` filters
                // the emitted diagnostics.
                match args.get(i + 1).filter(|a| a.starts_with("APIR")) {
                    Some(list) => {
                        i += 1;
                        match parse_code_filter(list) {
                            Ok(codes) => code_filter.get_or_insert_with(Vec::new).extend(codes),
                            Err(msg) => {
                                eprintln!("apir-lint: {msg}");
                                std::process::exit(2);
                            }
                        }
                    }
                    None => {
                        print_codes();
                        return;
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: apir-lint [--machine|--json] [--strict] [--analyze] \
                     [--codes [LIST]] [APP...]"
                );
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("apir-lint: unknown flag `{other}`");
                std::process::exit(2);
            }
            app => names.push(app.to_string()),
        }
        i += 1;
    }

    let apps = builtin_instances();
    let known: Vec<String> = apps.iter().map(|a| a.name.clone()).collect();
    let picked: Vec<usize> = if names.is_empty() {
        (0..apps.len()).collect()
    } else {
        match resolve_apps(&known, &names) {
            Ok(idx) => idx,
            Err(msg) => {
                eprintln!("apir-lint: {msg}");
                std::process::exit(2);
            }
        }
    };

    let mut failed = false;
    if analyze {
        // Semantic analysis mode: APIR6xx verdicts + bottleneck
        // prediction per app, against the (tuned) default fabric.
        let analyses: Vec<(String, apir_core::check::analysis::Analysis)> = picked
            .iter()
            .map(|&i| (apps[i].name.clone(), analyze_instance(&apps[i])))
            .collect();
        if json {
            let doc = apir_fabric::export::analysis_report_json(
                analyses.iter().map(|(n, a)| (n.as_str(), a)),
            );
            println!("{}", doc.render_pretty());
        }
        for (name, a) in &analyses {
            let report = match &code_filter {
                Some(codes) => filter_by_codes(&a.report, codes),
                None => a.report.clone(),
            };
            if !json {
                if machine {
                    print!("{}", report.render_machine());
                } else {
                    print!("{}", report.render_text());
                    println!(
                        "{name}: predicted bottleneck `{}` at stage `{}`",
                        a.bottleneck.cause, a.bottleneck.stage
                    );
                }
            }
            failed |= report.has_errors() || (strict && report.at(Severity::Warn).next().is_some());
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    let mut reports: Vec<Report> = picked.iter().map(|&i| check_all(&apps[i].spec)).collect();
    // With no explicit app selection, also validate the builtin fabric
    // configurations (APIR5xx family).
    if names.is_empty() {
        for (_, cfg) in builtin_fabric_configs() {
            reports.push(cfg.validate());
        }
    }
    if let Some(codes) = &code_filter {
        reports = reports.iter().map(|r| filter_by_codes(r, codes)).collect();
    }
    if json {
        let doc = apir_fabric::export::lint_report_json(&reports);
        println!("{}", doc.render_pretty());
    }
    for report in &reports {
        if !json {
            if machine {
                print!("{}", report.render_machine());
            } else {
                print!("{}", report.render_text());
            }
        }
        failed |= report.has_errors() || (strict && report.at(Severity::Warn).next().is_some());
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn print_codes() {
    println!("{:<10} {:<8} description", "code", "default");
    for lint in Lint::all() {
        println!(
            "{:<10} {:<8} {}",
            lint.code(),
            lint.default_severity().to_string(),
            lint.describe()
        );
    }
}
