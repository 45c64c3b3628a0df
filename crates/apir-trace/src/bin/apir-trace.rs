//! Command-line front end for the observability layer.
//!
//! ```text
//! apir-trace run <APP> [--scale tiny|small|medium|large] [--cap N]
//!                      [--chrome PATH] [--json PATH]
//! apir-trace list
//! ```
//!
//! `run` synthesizes the accelerator for a builtin app, runs it with the
//! structured event trace enabled, prints a text summary, and optionally
//! writes the Chrome-trace rendering (`--chrome`, for `chrome://tracing`
//! or ui.perfetto.dev) and the machine-readable report (`--json`).

use apir_bench::scale::APP_NAMES;
use apir_bench::Scale;
use apir_trace::{
    analysis_report, analyze_app, chaos_run, chrome_trace, diff_docs, restore_run, snapshot_at,
    text_summary, timeline_csv, timeline_run, timeline_sparkline, traced_run, validate_analysis,
    SnapshotAt,
};

const USAGE: &str = "\
usage: apir-trace <command>

commands:
  run <APP> [--scale tiny|small|medium|large] [--cap N]
            [--faults SEED] [--chrome PATH] [--json PATH]
      Run one builtin app with event tracing and print a summary.
      --scale   workload scale (default: tiny)
      --cap     trace ring capacity in records (default: 65536;
                0 disables tracing — incompatible with --chrome)
      --faults  arm the chaos fault-injection preset with this seed;
                the run is still verified against the app checker
      --chrome  write the trace as Chrome-trace JSON to PATH
      --json    write the full report as JSON to PATH
  timeline <APP> [--scale tiny|small|medium|large] [--window N]
                 [--cap N] [--faults SEED] [--csv PATH] [--json PATH]
      Run one builtin app with the windowed timeline recorder and print
      a busy-fraction sparkline plus per-window CSV.
      --window  cycles per timeline window (default: 256)
      --cap     windows retained in the ring (default: 4096)
      --csv     write the per-window CSV to PATH instead of stdout
      --json    write the full report as JSON to PATH
  analyze [APP...] [--scale tiny|small|medium|large] [--json PATH]
      Static semantic analysis (APIR6xx occupancy bounds, deadlock
      certification, bottleneck prediction) under the same synthesized
      baseline configuration the dynamic runners use. With no APP,
      analyzes all six builtins.
      --json    write the apir.analysis.report.v1 document to PATH
                (the content of the committed ANALYSIS_baseline.json)
  validate-analysis [APP...] [--scale tiny|small|medium|large]
      Run each app on the synthesized fabric and hold the static
      analysis to its contract: measured peak queue occupancy <= the
      static bound, and the predicted dominant stall cause equal to
      the measured fabric.stall.* top cause.
      exit 0: validated   exit 1: contract violation
  snapshot <APP> --at N [--scale tiny|small|medium|large] [--cap N]
                 [--faults SEED] [--out PATH]
      Run one builtin app up to cycle N, pause, and write the complete
      fabric state as an apir.fabric.snapshot.v1 document (stdout, or
      --out PATH). Feeding it to `restore-run` with the same flags
      finishes the run byte-identically to an uninterrupted one.
      --at      cycle to pause at (required; the event wheel may pause
                on the first scheduled cycle past a quiescent jump)
      --cap     trace ring capacity (default: 65536, as `run`)
      --faults  arm the chaos preset with this seed, as `run`
      exit 0: snapshot written   exit 1: run completed before --at
  restore-run <APP> <SNAPSHOT.json> [--scale tiny|small|medium|large]
              [--cap N] [--faults SEED] [--json PATH]
      Restore a paused run from a snapshot document, run it to
      completion, verify it against the app checker, and print the
      summary. APP/--scale/--cap/--faults must match the snapshot run;
      any structural mismatch is diagnosed, not silently accepted.
      --json    write the full report as JSON to PATH
  campaign <PLAN.json> [--threads N] [--inflight N] [--out PATH]
                       [--json PATH] [--resume PARTIAL.jsonl]
      Expand a campaign plan (apir.campaign.plan.v1: apps x seeds x
      config variants, chaos and retries per variant) and run every
      cell on a work-stealing fleet. Records stream as JSON Lines in
      (app, config, seed) order — the merged output is byte-identical
      for any --threads. A failing cell becomes a structured error
      record; the fleet never aborts.
      --threads   worker threads (default: 1)
      --inflight  cap on completed-but-unmerged results (default: 32)
      --out       write the JSONL records to PATH instead of stdout
      --json      also write the single apir.campaign.results.v1
                  document to PATH (diffable with `apir-trace diff`)
      --resume    pick up a killed run from its partial JSONL: completed
                  records are re-emitted verbatim (a torn final line is
                  discarded), only missing cells run, and the output is
                  byte-identical to an uninterrupted run
      exit 0: all cells ok   exit 1: cell failures   exit 2: bad plan
  diff <A.json> <B.json> [--machine]
      Compare two JSON documents of the same schema key by key
      (fabric reports, campaign results, analysis baselines, or
      apir.fabric.snapshot.v1 snapshots — drift shows as exact keys).
      --machine   stable pipe-separated output for scripts
      exit 0: identical   exit 1: drift   exit 2: schema mismatch/error
  list
      List the builtin app names.
";

fn fail(msg: &str) -> ! {
    eprintln!("apir-trace: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn next_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn cmd_run(args: Vec<String>) {
    let mut args = args.into_iter();
    let Some(app) = args.next() else {
        fail("run needs an app name");
    };
    if !APP_NAMES.contains(&app.as_str()) {
        fail(&format!("unknown app `{app}` (try `apir-trace list`)"));
    }
    let mut scale = Scale::Tiny;
    let mut cap: usize = 1 << 16;
    let mut fault_seed: Option<u64> = None;
    let mut chrome_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = next_value(&mut args, "--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| fail(&format!("unknown scale `{v}`")));
            }
            "--cap" => {
                let v = next_value(&mut args, "--cap");
                cap = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--cap wants a number, got `{v}`")));
            }
            "--faults" => {
                let v = next_value(&mut args, "--faults");
                fault_seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("--faults wants a seed, got `{v}`"))),
                );
            }
            "--chrome" => chrome_path = Some(next_value(&mut args, "--chrome")),
            "--json" => json_path = Some(next_value(&mut args, "--json")),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let report = match fault_seed {
        Some(seed) => chaos_run(&app, scale, cap, seed),
        None => traced_run(&app, scale, cap),
    };
    print!("{}", text_summary(&report));
    if let Some(path) = chrome_path {
        // `--cap 0` disables tracing, so there is nothing to render;
        // a plain diagnostic beats the panic this used to be.
        let Some(doc) = chrome_trace(&report) else {
            eprintln!("apir-trace: --chrome requires event tracing; rerun with --cap > 0");
            std::process::exit(2);
        };
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("apir-trace: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote Chrome trace: {path}");
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("apir-trace: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote report JSON: {path}");
    }
}

/// Parses the `<APP> [--scale S] [--cap N] [--faults SEED]` tail shared
/// by `snapshot` and `restore-run`, returning any unrecognized
/// positional arguments for the caller to interpret.
fn runner_flags(args: Vec<String>, cmd: &str) -> (String, Scale, usize, Option<u64>, Vec<String>) {
    let mut args = args.into_iter();
    let Some(app) = args.next() else {
        fail(&format!("{cmd} needs an app name"));
    };
    if !APP_NAMES.contains(&app.as_str()) {
        fail(&format!("unknown app `{app}` (try `apir-trace list`)"));
    }
    let mut scale = Scale::Tiny;
    let mut cap: usize = 1 << 16;
    let mut fault_seed: Option<u64> = None;
    let mut rest: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = next_value(&mut args, "--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| fail(&format!("unknown scale `{v}`")));
            }
            "--cap" => {
                let v = next_value(&mut args, "--cap");
                cap = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--cap wants a number, got `{v}`")));
            }
            "--faults" => {
                let v = next_value(&mut args, "--faults");
                fault_seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("--faults wants a seed, got `{v}`"))),
                );
            }
            _ => rest.push(arg),
        }
    }
    (app, scale, cap, fault_seed, rest)
}

fn cmd_snapshot(args: Vec<String>) {
    let (app, scale, cap, fault_seed, rest) = runner_flags(args, "snapshot");
    let mut at: Option<u64> = None;
    let mut out_path: Option<String> = None;
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--at" => {
                let v = next_value(&mut rest, "--at");
                at = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("--at wants a cycle, got `{v}`"))),
                );
            }
            "--out" => out_path = Some(next_value(&mut rest, "--out")),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let Some(at) = at else {
        fail("snapshot needs --at <cycle>");
    };
    match snapshot_at(&app, scale, cap, fault_seed, at) {
        SnapshotAt::Completed(report) => {
            eprintln!(
                "apir-trace: {app} completed at cycle {} before --at {at}; no snapshot taken",
                report.cycles
            );
            std::process::exit(1);
        }
        SnapshotAt::Paused(doc) => {
            let cycle = doc
                .get("cycle")
                .and_then(apir_util::Json::as_u64)
                .unwrap_or(at);
            let mut text = doc.render_pretty();
            text.push('\n');
            match out_path {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, text) {
                        eprintln!("apir-trace: writing {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote snapshot at cycle {cycle}: {path}");
                }
                None => print!("{text}"),
            }
        }
    }
}

fn cmd_restore_run(args: Vec<String>) {
    let (app, scale, cap, fault_seed, rest) = runner_flags(args, "restore-run");
    let mut snap_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--json" => json_path = Some(next_value(&mut rest, "--json")),
            other if other.starts_with('-') => fail(&format!("unknown flag `{other}`")),
            path => {
                if snap_path.is_some() {
                    fail("restore-run takes exactly one snapshot file");
                }
                snap_path = Some(path.to_string());
            }
        }
    }
    let Some(path) = snap_path else {
        fail("restore-run needs a snapshot file");
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("apir-trace: reading {path}: {e}");
        std::process::exit(2);
    });
    let doc = apir_util::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("apir-trace: parsing {path}: {e}");
        std::process::exit(2);
    });
    let report = restore_run(&app, scale, cap, fault_seed, &doc).unwrap_or_else(|e| {
        eprintln!("apir-trace: {path}: {e}");
        std::process::exit(2);
    });
    print!("{}", text_summary(&report));
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("apir-trace: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote report JSON: {path}");
    }
}

fn cmd_timeline(args: Vec<String>) {
    let mut args = args.into_iter();
    let Some(app) = args.next() else {
        fail("timeline needs an app name");
    };
    if !APP_NAMES.contains(&app.as_str()) {
        fail(&format!("unknown app `{app}` (try `apir-trace list`)"));
    }
    let mut scale = Scale::Tiny;
    let mut window: u64 = 256;
    let mut cap: usize = 4096;
    let mut fault_seed: Option<u64> = None;
    let mut csv_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = next_value(&mut args, "--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| fail(&format!("unknown scale `{v}`")));
            }
            "--window" => {
                let v = next_value(&mut args, "--window");
                window = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--window wants a number, got `{v}`")));
                if window == 0 {
                    fail("--window must be positive");
                }
            }
            "--cap" => {
                let v = next_value(&mut args, "--cap");
                cap = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--cap wants a number, got `{v}`")));
            }
            "--faults" => {
                let v = next_value(&mut args, "--faults");
                fault_seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("--faults wants a seed, got `{v}`"))),
                );
            }
            "--csv" => csv_path = Some(next_value(&mut args, "--csv")),
            "--json" => json_path = Some(next_value(&mut args, "--json")),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let report = timeline_run(&app, scale, window, cap, fault_seed);
    let tl = report.timeline.as_ref().expect("recorder was enabled");
    println!(
        "{app}: {} cycles, {} windows of {} cycles ({} dropped)",
        report.cycles,
        tl.windows.len(),
        tl.window,
        tl.dropped
    );
    println!(
        "busy {}",
        timeline_sparkline(&report).expect("recorder was enabled")
    );
    let csv = timeline_csv(&report).expect("recorder was enabled");
    match csv_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &csv) {
                eprintln!("apir-trace: writing {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote timeline CSV: {path}");
        }
        None => print!("{csv}"),
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("apir-trace: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote report JSON: {path}");
    }
}

/// Parses the shared `[APP...] [--scale S]` tail of the analysis
/// commands; defaults to all six builtins when no APP is named.
fn analysis_targets(args: Vec<String>, json_flag: bool) -> (Vec<String>, Scale, Option<String>) {
    let mut args = args.into_iter();
    let mut scale = Scale::Tiny;
    let mut json_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = next_value(&mut args, "--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| fail(&format!("unknown scale `{v}`")));
            }
            "--json" if json_flag => json_path = Some(next_value(&mut args, "--json")),
            other if other.starts_with('-') => fail(&format!("unknown flag `{other}`")),
            app => {
                if !APP_NAMES.contains(&app) {
                    fail(&format!("unknown app `{app}` (try `apir-trace list`)"));
                }
                names.push(app.to_string());
            }
        }
    }
    if names.is_empty() {
        names = APP_NAMES.iter().map(|n| n.to_string()).collect();
    }
    (names, scale, json_path)
}

fn cmd_analyze(args: Vec<String>) {
    let (names, scale, json_path) = analysis_targets(args, true);
    for name in &names {
        let a = analyze_app(name, scale);
        print!("{}", a.report.render_text());
        for q in &a.queues {
            match (q.widened, q.widen_reason, q.demand) {
                (true, Some(reason), _) => println!(
                    "{name}: queue `{}` bound {} (widened: {reason})",
                    q.task_set, q.bound
                ),
                (_, _, Some(d)) => println!(
                    "{name}: queue `{}` bound {} (finite demand {d})",
                    q.task_set, q.bound
                ),
                _ => println!("{name}: queue `{}` bound {}", q.task_set, q.bound),
            }
        }
        println!(
            "{name}: predicted bottleneck `{}` at stage `{}`",
            a.bottleneck.cause, a.bottleneck.stage
        );
    }
    if let Some(path) = json_path {
        // The document always covers all six apps so the committed
        // baseline is independent of the APP selection above.
        let doc = analysis_report(scale);
        let mut text = doc.render_pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("apir-trace: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote analysis report JSON: {path}");
    }
}

fn cmd_validate_analysis(args: Vec<String>) {
    let (names, scale, _) = analysis_targets(args, false);
    let mut failed = false;
    for name in &names {
        let v = validate_analysis(name, scale);
        println!(
            "{name}: predicted `{}` at `{}`; measured top cause `{}` ({} stall cycles)",
            v.predicted_cause, v.predicted_stage, v.measured_cause, v.measured_stalls
        );
        for (set, peak, bound) in &v.queues {
            println!("{name}: queue `{set}` peak {peak} <= bound {bound}");
        }
        for violation in &v.violations {
            println!("{name}: VIOLATION: {violation}");
            failed = true;
        }
    }
    if failed {
        eprintln!("apir-trace: static analysis contract violated (see VIOLATION lines)");
        std::process::exit(1);
    }
    println!("validate-analysis OK: bounds sound, predictions match");
}

fn cmd_campaign(args: Vec<String>) {
    let mut args = args.into_iter();
    let mut plan_path: Option<String> = None;
    let mut threads: usize = 1;
    let mut inflight: usize = apir_campaign::DEFAULT_INFLIGHT;
    let mut out_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resume" => resume_path = Some(next_value(&mut args, "--resume")),
            "--threads" => {
                let v = next_value(&mut args, "--threads");
                threads =
                    v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                        fail(&format!("--threads wants a count >= 1, got `{v}`"))
                    });
            }
            "--inflight" => {
                let v = next_value(&mut args, "--inflight");
                inflight =
                    v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                        fail(&format!("--inflight wants a cap >= 1, got `{v}`"))
                    });
            }
            "--out" => out_path = Some(next_value(&mut args, "--out")),
            "--json" => json_path = Some(next_value(&mut args, "--json")),
            other if other.starts_with('-') => fail(&format!("unknown flag `{other}`")),
            path => {
                if plan_path.is_some() {
                    fail("campaign takes exactly one plan file");
                }
                plan_path = Some(path.to_string());
            }
        }
    }
    let Some(path) = plan_path else {
        fail("campaign needs a plan file");
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("apir-trace: reading {path}: {e}");
        std::process::exit(2);
    });
    let plan = apir_campaign::parse_plan(&text).unwrap_or_else(|e| {
        eprintln!("apir-trace: {path}: {e}");
        std::process::exit(2);
    });

    use std::io::Write;
    let mut dest: Box<dyn Write + Send> = match &out_path {
        Some(p) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).unwrap_or_else(|e| {
                eprintln!("apir-trace: creating {p}: {e}");
                std::process::exit(2);
            }),
        )),
        None => Box::new(std::io::stdout()),
    };
    let collect = json_path.is_some();
    let mut records: Vec<apir_util::Json> = Vec::new();
    let summary = match &resume_path {
        None => {
            let mut writer = apir_util::JsonlWriter::new(dest);
            let summary = apir_campaign::run_campaign(&plan, threads, inflight, |r| {
                writer.write(r).unwrap_or_else(|e| {
                    eprintln!("apir-trace: writing records: {e}");
                    std::process::exit(1);
                });
                if collect {
                    records.push(r.clone());
                }
            });
            if let Err(e) = writer.finish() {
                eprintln!("apir-trace: flushing records: {e}");
                std::process::exit(1);
            }
            summary
        }
        Some(rp) => {
            let text = std::fs::read_to_string(rp).unwrap_or_else(|e| {
                eprintln!("apir-trace: reading {rp}: {e}");
                std::process::exit(2);
            });
            let partial = apir_campaign::parse_partial(&text).unwrap_or_else(|e| {
                eprintln!("apir-trace: {rp}: {e}");
                std::process::exit(2);
            });
            // Completed lines re-emit byte-for-byte; only missing
            // cells run, so the stream matches an uninterrupted run.
            let resumed =
                apir_campaign::run_campaign_resume(&plan, threads, inflight, &partial, |line| {
                    writeln!(dest, "{line}").unwrap_or_else(|e| {
                        eprintln!("apir-trace: writing records: {e}");
                        std::process::exit(1);
                    });
                    if collect {
                        let doc =
                            apir_util::json::parse(line).expect("campaign records are valid JSON");
                        records.push(doc);
                    }
                });
            let (summary, stats) = resumed.unwrap_or_else(|e| {
                eprintln!("apir-trace: {rp}: {e}");
                std::process::exit(2);
            });
            if let Err(e) = dest.flush() {
                eprintln!("apir-trace: flushing records: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "campaign.resume.reused={} campaign.resume.ran={} campaign.resume.torn={}",
                stats.reused,
                stats.ran,
                u8::from(stats.torn)
            );
            summary
        }
    };
    if let Some(p) = json_path {
        let doc = apir_campaign::doc_from(&plan, records, &summary);
        let mut text = doc.render_pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(&p, text) {
            eprintln!("apir-trace: writing {p}: {e}");
            std::process::exit(1);
        }
    }
    // Keep the record stream clean: the human summary shares stdout
    // only when the records went to a file.
    if out_path.is_some() {
        println!("{}", summary.render());
    } else {
        eprintln!("{}", summary.render());
    }
    std::process::exit(if summary.failed > 0 { 1 } else { 0 });
}

fn cmd_diff(args: Vec<String>) {
    let mut machine = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--machine" => machine = true,
            other if other.starts_with("--") => fail(&format!("unknown flag `{other}`")),
            _ => paths.push(arg),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        fail("diff needs exactly two JSON files");
    };
    let load = |path: &str| -> apir_util::Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("apir-trace: reading {path}: {e}");
            std::process::exit(2);
        });
        apir_util::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("apir-trace: parsing {path}: {e}");
            std::process::exit(2);
        })
    };
    let a = load(a_path);
    let b = load(b_path);
    let diffs = match diff_docs(&a, &b) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("apir-trace: {e}");
            std::process::exit(2);
        }
    };
    if machine {
        for d in &diffs {
            println!("{}", d.render_machine());
        }
    } else if diffs.is_empty() {
        println!("reports identical");
    } else {
        for d in &diffs {
            println!("{}", d.render());
        }
        println!("{} key(s) differ", diffs.len());
    }
    std::process::exit(if diffs.is_empty() { 0 } else { 1 });
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        fail("missing command");
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "snapshot" => cmd_snapshot(args),
        "restore-run" => cmd_restore_run(args),
        "timeline" => cmd_timeline(args),
        "analyze" => cmd_analyze(args),
        "validate-analysis" => cmd_validate_analysis(args),
        "campaign" => cmd_campaign(args),
        "diff" => cmd_diff(args),
        "list" => {
            for name in APP_NAMES {
                println!("{name}");
            }
        }
        "help" | "--help" | "-h" => print!("{USAGE}"),
        other => fail(&format!("unknown command `{other}`")),
    }
}
