//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--scale tiny|small|medium|large] [--cpu-scale F] <exp>...
//!   exp: fig2 | fig9 | fig10 | table1 | resources | ablation | topology | all
//!      | debug:<app>
//! ```

use apir_bench::experiments as exp;
use apir_bench::Scale;

fn main() {
    let mut scale = Scale::Medium;
    let mut cpu_scale = 1.0f64;
    let mut jobs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale `{v}` (tiny|small|medium|large)");
                    std::process::exit(2);
                });
            }
            "--cpu-scale" => {
                cpu_scale = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--cpu-scale needs a float");
                    std::process::exit(2);
                });
            }
            other => jobs.push(other.to_string()),
        }
    }
    if jobs.is_empty() {
        jobs.push("all".to_string());
    }
    const KNOWN: [&str; 8] = [
        "all",
        "fig2",
        "fig9",
        "fig10",
        "table1",
        "resources",
        "ablation",
        "topology",
    ];
    for j in &jobs {
        let is_debug = j
            .strip_prefix("debug:")
            .map(|app| apir_bench::scale::APP_NAMES.contains(&app));
        match is_debug {
            Some(true) => {}
            Some(false) => {
                eprintln!(
                    "unknown benchmark in `{j}` (expected one of {:?})",
                    apir_bench::scale::APP_NAMES
                );
                std::process::exit(2);
            }
            None if KNOWN.contains(&j.as_str()) => {}
            None => {
                eprintln!("unknown experiment `{j}` (expected {KNOWN:?} or debug:<app>)");
                std::process::exit(2);
            }
        }
    }
    let all = jobs.iter().any(|j| j == "all");
    let want = |name: &str| all || jobs.iter().any(|j| j == name);

    println!("# APIR evaluation (scale: {scale:?}, cpu-scale: {cpu_scale})\n");
    if want("fig2") {
        println!("{}", exp::fig2());
    }
    if want("resources") {
        println!("{}", exp::table_resources(scale));
    }
    if want("table1") {
        println!("{}", exp::table1(scale));
    }
    if want("fig9") {
        let rows = exp::fig9(scale, cpu_scale);
        println!("{}", exp::render_fig9(&rows));
    }
    if want("fig10") {
        let series = exp::fig10(scale, &[1, 2, 4, 8, 16]);
        println!("{}", exp::render_fig10(&series));
    }
    if want("ablation") {
        println!("{}", exp::ablation_lsu_window(scale, &[1, 2, 4, 8, 16, 32]));
    }
    if want("topology") {
        println!("{}", exp::topology_sweep(scale));
    }
    for j in &jobs {
        if let Some(app) = j.strip_prefix("debug:") {
            println!("{}", exp::debug_app(app, scale));
        }
    }
}
