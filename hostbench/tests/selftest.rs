//! Fast self-test: every workload at the `tiny` size, untraced and
//! traced. Checks that the result line carries every metric that
//! `BENCHMARK.json` names, with its unit; that no op failed; and that
//! the exact simulated counts of two traced runs of one seed agree.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use apir_util::json::{parse, Json};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["road", "speculative", "sweep", "snapshot"];

/// Per-layer metrics that are simulated counts, not host times: they
/// must repeat exactly.
fn is_exact(name: &str) -> bool {
    ["sim.", "mem.", "queue.", "rule.", "fault."]
        .iter()
        .any(|p| name.starts_with(p))
        || name == "sim_cycles"
        || name == "campaign.failed"
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload and returns its printed result object.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = parse(last).unwrap_or_else(|e| panic!("{workload}: result is not JSON: {e}\n{last}"));
    let Json::Obj(members) = &doc else {
        panic!("{workload}: result is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}\n{stdout}"
    );
    assert_eq!(
        doc.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}\n{stdout}"
    );
    assert!(
        doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    assert!(stdout.contains("seed=7"), "{workload}: the seed is printed");
    doc
}

fn check_metrics(workload: &str, doc: &Json, want: &[(String, String)]) {
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for (name, unit) in want {
        let m = doc
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: metric `{name}` missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
}

#[test]
fn every_workload_reports_every_metric_with_zero_failures() {
    let bench = benchmark_json();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    for w in WORKLOADS {
        let untraced = run(w, false);
        check_metrics(w, &untraced, &end_to_end);
        for (name, _) in &end_to_end {
            let v = untraced
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"));
            assert!(
                v.and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                "{w}: {name} must not be 0"
            );
        }

        let first = run(w, true);
        let second = run(w, true);
        check_metrics(w, &first, &per_layer);
        for (name, _) in per_layer.iter().filter(|(n, _)| is_exact(n)) {
            let value = |doc: &Json| {
                doc.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            assert_eq!(
                value(&first),
                value(&second),
                "{w}: exact count {name} moved"
            );
        }
    }
}

#[test]
fn declared_workloads_are_the_ones_implemented() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
