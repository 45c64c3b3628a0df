//! Plan expansion, job execution, and the deterministic merge.
//!
//! [`expand`] turns a plan into jobs **sorted by `(app, config, seed)`**
//! — the merge key. [`run_campaign`] dispatches them on the
//! work-stealing pool ([`apir_runtime::dispatch::run_ordered`]) and
//! streams one JSONL record per cell through the caller's sink in key
//! order, so the merged output of an 8-thread run is byte-identical to
//! a 1-thread run. A failing cell — a `FabricError`, a checker
//! rejection, or an outright panic — becomes a structured error record;
//! it never aborts the fleet.

use crate::plan::{CampaignPlan, ConfigVariant};
use apir_bench::experiments::app_cfg;
use apir_bench::scale::build_app;
use apir_bench::Scale;
use apir_fabric::{Fabric, FabricConfig, FabricError, FabricReport, FaultConfig};
use apir_util::prop::panic_message;
use apir_util::Json;
use std::time::Instant;

/// Schema of the single-document results rendering ([`results_doc`]).
pub const RESULTS_SCHEMA: &str = "apir.campaign.results.v1";

/// One cell of the campaign matrix.
#[derive(Clone, Debug)]
pub struct Job {
    /// Builtin app name.
    pub app: String,
    /// The configuration variant (already validated).
    pub config: ConfigVariant,
    /// Cell seed (fault seed when `config.chaos`).
    pub seed: u64,
    /// Workload scale.
    pub scale: Scale,
}

impl Job {
    /// The merge key, also used in log lines: `app/config/seed`.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.app, self.config.id, self.seed)
    }
}

/// Expands a plan into its jobs, sorted by `(app, config id, seed)`.
/// The order is a pure function of the plan — it is the merge order of
/// the result stream, independent of thread count and scheduling.
pub fn expand(plan: &CampaignPlan) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::with_capacity(plan.cells());
    for app in &plan.apps {
        for config in &plan.configs {
            for &seed in &plan.seeds {
                jobs.push(Job {
                    app: app.clone(),
                    config: config.clone(),
                    seed,
                    scale: plan.scale,
                });
            }
        }
    }
    jobs.sort_by(|a, b| {
        (a.app.as_str(), a.config.id.as_str(), a.seed).cmp(&(
            b.app.as_str(),
            b.config.id.as_str(),
            b.seed,
        ))
    });
    jobs
}

/// A structured per-cell failure. Deterministic: the same job produces
/// the same error record on every run and every thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// Failure class: `deadlock`, `max_cycles`, `link_failed`,
    /// `rejected_by_lint`, `check`, or `panic`.
    pub kind: &'static str,
    /// Simulated cycle at the failure point, when the fabric got far
    /// enough to have one.
    pub cycle: Option<u64>,
    /// Human-readable detail.
    pub message: String,
    /// The rendered partial `apir.fabric.report.v2` document — with its
    /// `terminated: {kind, cycle}` stamp — when the fabric got far
    /// enough to have one ([`FabricError::partial_report_json`]).
    pub partial_report: Option<String>,
}

impl JobError {
    fn from_fabric(e: FabricError) -> Self {
        JobError {
            kind: e.kind(),
            cycle: e.failure_cycle(),
            partial_report: e.partial_report_json().map(|doc| doc.render()),
            message: e.to_string(),
        }
    }
}

/// The fabric configuration a job runs under: the configuration every
/// runner of the app uses ([`app_cfg`] over `input` and `tune`, the spec
/// taken from a fresh build of `job.app`), then the variant's
/// overrides, then the chaos preset when armed.
pub fn job_cfg(
    job: &Job,
    input: &apir_core::ProgramInput,
    tune: &dyn Fn(&mut FabricConfig),
) -> FabricConfig {
    let mut cfg = app_cfg(&build_app(&job.app, job.scale).spec, input, tune);
    job.config.overrides.apply(&mut cfg);
    if job.config.chaos {
        cfg.faults = FaultConfig::chaos(job.seed);
    }
    cfg
}

/// The multiplier behind the deterministic retry salt bump
/// (the 64-bit golden-ratio constant, so successive attempts land in
/// unrelated fault-RNG streams).
pub const RETRY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The fault seed attempt `attempt` of a cell runs under. Attempt 0 is
/// the cell's own seed (the merge key is unchanged by retries); each
/// later attempt bumps the salt deterministically, so a retried
/// campaign is still byte-reproducible.
pub fn retry_seed(seed: u64, attempt: u32) -> u64 {
    seed ^ u64::from(attempt).wrapping_mul(RETRY_SALT)
}

/// Runs one cell to completion: build, simulate, verify.
///
/// # Errors
///
/// A [`JobError`] classifying the fabric error or checker rejection.
/// Panics inside the fabric are *not* caught here — the dispatcher
/// captures them and the campaign records them as `kind: "panic"`.
pub fn run_job(job: &Job) -> Result<FabricReport, JobError> {
    run_job_attempt(job, 0)
}

/// [`run_job`] for one retry attempt: attempt 0 is the plain cell; a
/// later attempt re-arms the chaos preset with the bumped salt
/// ([`retry_seed`]) so the replay isn't doomed to repeat the failure.
pub fn run_job_attempt(job: &Job, attempt: u32) -> Result<FabricReport, JobError> {
    let app = build_app(&job.app, job.scale);
    let mut cfg = job_cfg(job, &app.input, &app.tune);
    if attempt > 0 && job.config.chaos {
        cfg.faults = FaultConfig::chaos(retry_seed(job.seed, attempt));
    }
    let report = Fabric::execute(&app.spec, &app.input, cfg).map_err(JobError::from_fabric)?;
    (app.check)(&report.mem_image).map_err(|message| JobError {
        kind: "check",
        cycle: Some(report.cycles),
        message,
        partial_report: None,
    })?;
    Ok(report)
}

/// Runs one cell under its config's retry policy: up to
/// `1 + config.retries` attempts, each with the deterministically
/// bumped fault salt, recording an error (the *last* attempt's) only
/// once every attempt has failed. Panics are caught per attempt, so a
/// crashing cell is retried exactly like a failing one.
pub fn run_job_retrying(job: &Job) -> Result<FabricReport, JobError> {
    let mut last: Option<JobError> = None;
    for attempt in 0..=job.config.retries {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job_attempt(job, attempt)
        }));
        match caught {
            Ok(Ok(report)) => return Ok(report),
            Ok(Err(e)) => last = Some(e),
            Err(payload) => {
                last = Some(JobError {
                    kind: "panic",
                    cycle: None,
                    message: panic_message(&*payload),
                    partial_report: None,
                })
            }
        }
    }
    Err(last.expect("at least one attempt always runs"))
}

/// Renders one result record (one JSONL line). Key fields lead so the
/// stream is greppable; `status` is `"ok"` (with the full
/// `apir.fabric.report.v2` document inlined under `report`) or
/// `"error"` (with the structured [`JobError`] under `error`).
pub fn record(job: &Job, outcome: &Result<FabricReport, JobError>) -> Json {
    let mut members = vec![
        ("app".to_string(), Json::str(job.app.as_str())),
        ("config".to_string(), Json::str(job.config.id.as_str())),
        ("seed".to_string(), Json::U64(job.seed)),
    ];
    match outcome {
        Ok(report) => {
            members.push(("status".to_string(), Json::str("ok")));
            members.push(("report".to_string(), report.to_json_value()));
        }
        Err(e) => {
            members.push(("status".to_string(), Json::str("error")));
            members.push((
                "error".to_string(),
                Json::obj_sparse([
                    ("kind", Some(Json::str(e.kind))),
                    ("cycle", e.cycle.map(Json::U64)),
                    ("message", Some(Json::str(e.message.as_str()))),
                ]),
            ));
            // The partial report (with its `terminated` stamp) rides
            // along when the fabric got far enough to produce one, so a
            // failed cell is diagnosable from the record alone.
            if let Some(text) = &e.partial_report {
                let doc = apir_util::json::parse(text).expect("partial reports render valid JSON");
                members.push(("report".to_string(), doc));
            }
        }
    }
    Json::Obj(members)
}

/// What a finished campaign looked like. Wall-clock fields measure the
/// host and are *not* part of any deterministic output — they render in
/// the human summary only.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CampaignSummary {
    /// Cells run (every cell always produces exactly one record).
    pub jobs: u64,
    /// Cells that produced an error record.
    pub failed: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Steals performed by idle workers.
    pub steals: usize,
    /// Peak completed-but-unmerged results (≤ the in-flight cap).
    pub peak_inflight: usize,
    /// Host wall time of the whole campaign.
    pub wall_ms: f64,
    /// Throughput: `jobs / wall seconds`.
    pub jobs_per_sec: f64,
}

impl CampaignSummary {
    /// The `campaign.*` metric line, stable keys in a stable order.
    pub fn render(&self) -> String {
        format!(
            "campaign.jobs={} campaign.failed={} campaign.threads={} \
             campaign.steals={} campaign.peak_inflight={} \
             campaign.wall_ms={:.1} campaign.jobs_per_sec={:.1}",
            self.jobs,
            self.failed,
            self.threads,
            self.steals,
            self.peak_inflight,
            self.wall_ms,
            self.jobs_per_sec
        )
    }
}

/// Default cap on completed-but-unmerged results per campaign.
pub const DEFAULT_INFLIGHT: usize = 32;

/// Runs a whole campaign: expand, dispatch on `threads` work-stealing
/// workers, and hand every record to `sink` in merge-key order. The
/// record stream is byte-deterministic across thread counts; only the
/// wall-clock fields of the returned summary vary.
pub fn run_campaign<S>(
    plan: &CampaignPlan,
    threads: usize,
    inflight: usize,
    mut sink: S,
) -> CampaignSummary
where
    S: FnMut(&Json) + Send,
{
    let jobs = expand(plan);
    let all: Vec<usize> = (0..jobs.len()).collect();
    dispatch(&jobs, &all, threads, inflight, 0, |_, r| sink(&r))
}

/// Runs the cells `run` of `jobs` on `threads` work-stealing workers and
/// hands `emit` each one's index in `jobs` and record, in merge-key
/// order. `failed` counts the error records the caller emits itself; the
/// summary's throughput counts only the cells run here.
pub(crate) fn dispatch(
    jobs: &[Job],
    run: &[usize],
    threads: usize,
    inflight: usize,
    mut failed: u64,
    mut emit: impl FnMut(usize, Json) + Send,
) -> CampaignSummary {
    let t0 = Instant::now();
    let stats = apir_runtime::dispatch::run_ordered(
        run.len(),
        threads,
        inflight.max(1),
        |k| run_job_retrying(&jobs[run[k]]),
        |k, result| {
            // A worker panic is flattened into the same structured error
            // shape as a clean fabric failure. (`run_job_retrying`
            // already catches per-attempt panics; this is the backstop.)
            let outcome = result.unwrap_or_else(|message| {
                Err(JobError {
                    kind: "panic",
                    cycle: None,
                    message,
                    partial_report: None,
                })
            });
            failed += u64::from(outcome.is_err());
            emit(run[k], record(&jobs[run[k]], &outcome));
        },
    );
    let wall = t0.elapsed().as_secs_f64();
    CampaignSummary {
        jobs: jobs.len() as u64,
        failed,
        threads: threads.max(1),
        steals: stats.steals,
        peak_inflight: stats.peak_inflight,
        wall_ms: wall * 1e3,
        jobs_per_sec: if wall > 0.0 {
            stats.jobs as f64 / wall
        } else {
            0.0
        },
    }
}

/// Assembles the single-document rendering (`apir.campaign.results.v1`)
/// from already-merged records. Only deterministic summary fields go in
/// — no wall-clock keys — so the document is diffable with
/// `apir-trace diff` and byte-identical across thread counts.
pub fn doc_from(plan: &CampaignPlan, records: Vec<Json>, summary: &CampaignSummary) -> Json {
    Json::obj([
        ("schema", Json::str(RESULTS_SCHEMA)),
        ("scale", Json::str(plan.scale.name())),
        ("jobs", Json::U64(summary.jobs)),
        ("failed", Json::U64(summary.failed)),
        ("results", Json::Arr(records)),
    ])
}

/// Runs a campaign and collects it into the single-document rendering.
pub fn results_doc(
    plan: &CampaignPlan,
    threads: usize,
    inflight: usize,
) -> (Json, CampaignSummary) {
    let mut records: Vec<Json> = Vec::new();
    let summary = run_campaign(plan, threads, inflight, |r| records.push(r.clone()));
    (doc_from(plan, records, &summary), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::parse_plan;

    fn tiny_plan(extra_cfg: &str) -> CampaignPlan {
        parse_plan(&format!(
            r#"{{"schema":"apir.campaign.plan.v1","scale":"tiny",
                 "apps":["SPEC-BFS"],"seeds":[2,1],
                 "configs":[{{"id":"base"}}{extra_cfg}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn expansion_is_sorted_by_key_regardless_of_plan_order() {
        let plan = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1",
                "apps":["SPEC-SSSP","SPEC-BFS"],"seeds":[9,1],
                "configs":[{"id":"z"},{"id":"a"}]}"#,
        )
        .unwrap();
        let keys: Vec<String> = expand(&plan).iter().map(Job::key).collect();
        assert_eq!(
            keys,
            [
                "SPEC-BFS/a/1",
                "SPEC-BFS/a/9",
                "SPEC-BFS/z/1",
                "SPEC-BFS/z/9",
                "SPEC-SSSP/a/1",
                "SPEC-SSSP/a/9",
                "SPEC-SSSP/z/1",
                "SPEC-SSSP/z/9",
            ]
        );
    }

    #[test]
    fn ok_cells_verify_and_render_ok_records() {
        let plan = tiny_plan("");
        let mut lines = Vec::new();
        let summary = run_campaign(&plan, 2, 4, |r| lines.push(r.render()));
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let doc = apir_util::json::parse(line).unwrap();
            assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
            let report = doc.get("report").unwrap();
            assert_eq!(
                report.get("schema").and_then(Json::as_str),
                Some("apir.fabric.report.v2")
            );
        }
    }

    #[test]
    fn failing_cell_becomes_a_structured_error_record() {
        // max_cycles=32 is far below any real run: MaxCycles, recorded.
        let plan = tiny_plan(r#",{"id":"boom","max_cycles":32}"#);
        let mut records = Vec::new();
        let summary = run_campaign(&plan, 2, 4, |r| records.push(r.clone()));
        assert_eq!(summary.jobs, 4);
        assert_eq!(summary.failed, 2);
        let boom: Vec<&Json> = records
            .iter()
            .filter(|r| r.get("config").unwrap().as_str() == Some("boom"))
            .collect();
        assert_eq!(boom.len(), 2);
        for r in boom {
            assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
            let e = r.get("error").unwrap();
            assert_eq!(e.get("kind").unwrap().as_str(), Some("max_cycles"));
            assert_eq!(e.get("cycle").unwrap().as_u64(), Some(32));
            assert!(e
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("max cycles"));
        }
    }

    #[test]
    fn chaos_cells_inject_and_recover() {
        let plan = tiny_plan(r#",{"id":"chaos","chaos":true}"#);
        let jobs = expand(&plan);
        let chaos_job = jobs.iter().find(|j| j.config.chaos && j.seed == 1).unwrap();
        let report = run_job(chaos_job).expect("chaos cell recovers");
        assert!(report.faults.soft_injected + report.faults.link_dropped > 0);
        // The same cell reruns byte-identically.
        let again = run_job(chaos_job).unwrap();
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn retry_seed_is_identity_at_attempt_zero_and_distinct_after() {
        assert_eq!(retry_seed(42, 0), 42);
        let bumped: Vec<u64> = (1..4).map(|k| retry_seed(42, k)).collect();
        assert!(bumped.iter().all(|&s| s != 42));
        assert_ne!(bumped[0], bumped[1]);
        assert_ne!(bumped[1], bumped[2]);
    }

    #[test]
    fn retries_exhaust_deterministically_on_a_doomed_cell() {
        // max_cycles failures do not depend on the fault salt, so every
        // attempt fails the same way and the final record matches the
        // no-retry record exactly — retries never change a cell's key
        // or its deterministic outcome, only how hard it tries.
        let plan = tiny_plan(r#",{"id":"boom","max_cycles":32,"retries":2}"#);
        let job = expand(&plan)
            .into_iter()
            .find(|j| j.config.id == "boom")
            .unwrap();
        let e1 = run_job_retrying(&job).unwrap_err();
        let e2 = run_job_retrying(&job).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(e1.kind, "max_cycles");
        assert_eq!(e1.cycle, Some(32));
    }

    #[test]
    fn panicking_cell_is_caught_and_classified_by_the_retry_loop() {
        // An unknown app makes `build_app` panic on every attempt; the
        // retry loop must absorb each unwind and record `panic`.
        let job = Job {
            app: "NO-SUCH-APP".to_string(),
            config: ConfigVariant {
                id: "x".to_string(),
                retries: 1,
                ..ConfigVariant::default()
            },
            seed: 1,
            scale: apir_bench::Scale::Tiny,
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let e = run_job_retrying(&job).unwrap_err();
        std::panic::set_hook(prev);
        assert_eq!(e.kind, "panic");
        assert!(e.message.contains("NO-SUCH-APP"), "{}", e.message);
    }

    #[test]
    fn error_records_carry_the_stamped_partial_report() {
        let plan = tiny_plan(r#",{"id":"boom","max_cycles":32}"#);
        let job = expand(&plan)
            .into_iter()
            .find(|j| j.config.id == "boom")
            .unwrap();
        let outcome = run_job(&job);
        let r = record(&job, &outcome);
        let report = r
            .get("report")
            .expect("error record embeds the partial report");
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some("apir.fabric.report.v2")
        );
        let t = report.get("terminated").expect("terminated stamp");
        assert_eq!(t.get("kind").unwrap().as_str(), Some("max_cycles"));
        assert_eq!(t.get("cycle").unwrap().as_u64(), Some(32));
    }

    #[test]
    fn summary_renders_stable_campaign_keys() {
        let s = CampaignSummary {
            jobs: 12,
            failed: 3,
            threads: 8,
            steals: 5,
            peak_inflight: 4,
            wall_ms: 123.456,
            jobs_per_sec: 97.2,
        }
        .render();
        assert!(s.contains("campaign.jobs=12"), "{s}");
        assert!(s.contains("campaign.failed=3"), "{s}");
        assert!(s.contains("campaign.wall_ms=123.5"), "{s}");
        assert!(s.contains("campaign.jobs_per_sec=97.2"), "{s}");
    }

    #[test]
    fn results_doc_is_thread_count_invariant() {
        let plan = tiny_plan(r#",{"id":"boom","max_cycles":32}"#);
        let (a, _) = results_doc(&plan, 1, 2);
        let (b, _) = results_doc(&plan, 4, 2);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.get("schema").unwrap().as_str(), Some(RESULTS_SCHEMA));
        assert_eq!(a.get("jobs").unwrap().as_u64(), Some(4));
        assert_eq!(a.get("failed").unwrap().as_u64(), Some(2));
    }
}
