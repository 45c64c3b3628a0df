//! # apir-campaign — work-stealing sweep dispatcher
//!
//! Expands a campaign plan (`apir.campaign.plan.v1`: apps × seeds ×
//! config variants, with optional chaos per variant) into jobs, runs
//! them on a work-stealing thread fleet with a bounded in-flight
//! window, and merges the per-cell results deterministically: records
//! stream in `(app, config, seed)` order, so the JSONL output of an
//! 8-thread run is byte-identical to a 1-thread run.
//!
//! - [`plan`] — the plan schema, parser, and validation diagnostics
//!   (including the per-config `retries` policy).
//! - [`engine`] — expansion, per-job execution and failure capture,
//!   deterministic retry salting, the ordered dispatch loop, and the
//!   `campaign.*` summary.
//! - [`resume`] — crash recovery: parse the completed prefix of a
//!   killed run's JSONL (tolerating a torn final line) and re-run only
//!   the missing cells, byte-identical to an uninterrupted run.
//!
//! Driven from the CLI as `apir-trace campaign <plan.json>`
//! (`--resume <partial.jsonl>` to pick up a killed run).

pub mod engine;
pub mod plan;
pub mod resume;

pub use engine::{
    doc_from, expand, record, results_doc, retry_seed, run_campaign, run_job, run_job_attempt,
    run_job_retrying, CampaignSummary, Job, JobError, DEFAULT_INFLIGHT, RESULTS_SCHEMA, RETRY_SALT,
};
pub use plan::{parse_plan, CampaignPlan, ConfigVariant, Overrides, PlanError, PLAN_SCHEMA};
pub use resume::{
    parse_partial, run_campaign_resume, PartialLog, PartialRecord, ResumeError, ResumeStats,
};
