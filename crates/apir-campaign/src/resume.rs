//! Crash-resumable campaigns: pick up a killed run from its partial
//! JSONL record stream.
//!
//! A campaign streams one record per cell in merge-key order, so a
//! crashed run leaves a *prefix* of the full output — possibly ending
//! in a torn line if the process died mid-write. [`parse_partial`]
//! recovers the completed records (tolerating exactly that torn final
//! line), and [`run_campaign_resume`] re-runs only the missing cells,
//! re-emitting the completed lines *verbatim* and interleaving fresh
//! records in merge order. Because every cell is deterministic, the
//! resumed stream is byte-identical to what an uninterrupted run would
//! have produced — at any thread count (pinned in the tests below and
//! gated in `scripts/verify.sh`).

use crate::engine::{dispatch, expand, CampaignSummary};
use crate::plan::CampaignPlan;
use apir_util::json::{parse, Json};
use std::collections::BTreeMap;

/// Why a partial log could not be resumed. Rendered verbatim in the
/// CLI's exit-2 diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeError {
    /// What is wrong with the partial log.
    pub msg: String,
}

impl ResumeError {
    fn new(msg: impl Into<String>) -> Self {
        ResumeError { msg: msg.into() }
    }
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot resume campaign: {}", self.msg)
    }
}

impl std::error::Error for ResumeError {}

/// One completed record recovered from a partial log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialRecord {
    /// The merge key (`app/config/seed`).
    pub key: String,
    /// Whether the cell completed with `status: "ok"`.
    pub ok: bool,
    /// The record line, byte-for-byte as it was written (no newline).
    pub line: String,
}

/// The completed prefix of a killed campaign's JSONL output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialLog {
    /// Completed records in file order.
    pub records: Vec<PartialRecord>,
    /// Whether a torn (unparseable) final line was discarded.
    pub torn: bool,
}

/// Parses the completed records out of a partial campaign JSONL.
///
/// Every line must be a complete record object carrying `app`,
/// `config`, `seed`, and `status` — except the *final* line, which a
/// mid-write crash may have torn; an unparseable final line is
/// discarded (and reported via [`PartialLog::torn`]), never an error.
///
/// # Errors
///
/// [`ResumeError`] when a non-final line is malformed or when two
/// lines carry the same merge key — both mean the file is not the
/// prefix of a campaign record stream, and silently "resuming" it
/// would launder corrupt results into a clean-looking output.
pub fn parse_partial(text: &str) -> Result<PartialLog, ResumeError> {
    let lines: Vec<&str> = text.split('\n').filter(|l| !l.trim().is_empty()).collect();
    let mut log = PartialLog::default();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        match parse_record_line(line) {
            Ok((key, ok)) => {
                if let Some(prev) = seen.insert(key.clone(), i + 1) {
                    return Err(ResumeError::new(format!(
                        "lines {prev} and {} both carry the record for `{key}`",
                        i + 1
                    )));
                }
                log.records.push(PartialRecord {
                    key,
                    ok,
                    line: (*line).to_string(),
                });
            }
            Err(why) => {
                if last {
                    // The torn tail of the interrupted write: the cell
                    // never completed, so it simply re-runs.
                    log.torn = true;
                } else {
                    return Err(ResumeError::new(format!(
                        "line {} is not a campaign record ({why}) and is not the final \
                         (possibly torn) line",
                        i + 1
                    )));
                }
            }
        }
    }
    Ok(log)
}

/// Extracts `(merge key, status == ok)` from one record line.
fn parse_record_line(line: &str) -> Result<(String, bool), String> {
    let doc = parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let app = doc
        .get("app")
        .and_then(Json::as_str)
        .ok_or("missing `app`")?;
    let config = doc
        .get("config")
        .and_then(Json::as_str)
        .ok_or("missing `config`")?;
    let seed = doc
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("missing `seed`")?;
    let status = doc
        .get("status")
        .and_then(Json::as_str)
        .ok_or("missing `status`")?;
    match status {
        "ok" | "error" => Ok((format!("{app}/{config}/{seed}"), status == "ok")),
        other => Err(format!("unknown status `{other}`")),
    }
}

/// What a resume reused versus re-ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Completed records re-emitted verbatim from the partial log.
    pub reused: u64,
    /// Cells actually (re-)run.
    pub ran: u64,
    /// Whether the partial log ended in a discarded torn line.
    pub torn: bool,
}

/// Resumes a campaign from a partial log: every completed record is
/// re-emitted byte-for-byte, every missing cell runs (on `threads`
/// work-stealing workers, under its config's retry policy), and `sink`
/// receives each record line — without its newline — in merge-key
/// order. The full stream is byte-identical to an uninterrupted run.
///
/// # Errors
///
/// [`ResumeError`] when a record in the log is not a cell of `plan` —
/// resuming under the wrong plan would silently mix two campaigns.
pub fn run_campaign_resume<S>(
    plan: &CampaignPlan,
    threads: usize,
    inflight: usize,
    partial: &PartialLog,
    mut sink: S,
) -> Result<(CampaignSummary, ResumeStats), ResumeError>
where
    S: FnMut(&str) + Send,
{
    let jobs = expand(plan);
    let key_index: BTreeMap<String, usize> =
        jobs.iter().enumerate().map(|(i, j)| (j.key(), i)).collect();
    let mut cached: Vec<Option<&str>> = vec![None; jobs.len()];
    let mut failed = 0u64;
    for r in &partial.records {
        let Some(&i) = key_index.get(&r.key) else {
            return Err(ResumeError::new(format!(
                "record `{}` is not a cell of this plan",
                r.key
            )));
        };
        failed += u64::from(!r.ok);
        cached[i] = Some(r.line.as_str());
    }
    let missing: Vec<usize> = (0..jobs.len()).filter(|&i| cached[i].is_none()).collect();
    let stats = ResumeStats {
        reused: partial.records.len() as u64,
        ran: missing.len() as u64,
        torn: partial.torn,
    };

    let mut next_flush = 0usize;
    let summary = dispatch(&jobs, &missing, threads, inflight, failed, |gi, r| {
        // Everything between two fresh cells is cached: flush it first so
        // the stream stays in merge-key order.
        while next_flush < gi {
            sink(cached[next_flush].expect("gaps between fresh cells are cached"));
            next_flush += 1;
        }
        sink(&r.render());
        next_flush = gi + 1;
    });
    while next_flush < jobs.len() {
        sink(cached[next_flush].expect("every unflushed tail cell is cached"));
        next_flush += 1;
    }
    Ok((summary, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_campaign;
    use crate::plan::parse_plan;

    fn plan() -> CampaignPlan {
        parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","scale":"tiny",
                "apps":["SPEC-BFS","SPEC-SSSP"],"seeds":[1,2],
                "configs":[{"id":"base"},{"id":"boom","max_cycles":32}]}"#,
        )
        .unwrap()
    }

    fn full_lines(plan: &CampaignPlan) -> Vec<String> {
        let mut lines = Vec::new();
        run_campaign(plan, 1, 4, |r| lines.push(r.render()));
        lines
    }

    fn resumed_lines(
        plan: &CampaignPlan,
        threads: usize,
        partial: &PartialLog,
    ) -> (Vec<String>, CampaignSummary, ResumeStats) {
        let mut lines = Vec::new();
        let (summary, stats) =
            run_campaign_resume(plan, threads, 4, partial, |l| lines.push(l.to_string())).unwrap();
        (lines, summary, stats)
    }

    #[test]
    fn torn_final_line_is_discarded_and_rerun() {
        let plan = plan();
        let full = full_lines(&plan);
        // Keep three complete records plus half of the fourth — the
        // classic shape of a stream killed mid-write.
        let mut text = full[..3].join("\n");
        text.push('\n');
        text.push_str(&full[3][..full[3].len() / 2]);
        let partial = parse_partial(&text).unwrap();
        assert!(partial.torn);
        assert_eq!(partial.records.len(), 3);
        for threads in [1, 4] {
            let (lines, summary, stats) = resumed_lines(&plan, threads, &partial);
            assert_eq!(lines, full, "threads={threads}");
            assert_eq!(stats.reused, 3);
            assert_eq!(stats.ran, 5);
            assert_eq!(summary.jobs, 8);
            assert_eq!(summary.failed, 4, "both boom configs fail per app/seed");
        }
    }

    #[test]
    fn empty_partial_log_reruns_everything() {
        let plan = plan();
        let partial = parse_partial("").unwrap();
        assert!(!partial.torn);
        let (lines, _, stats) = resumed_lines(&plan, 2, &partial);
        assert_eq!(lines, full_lines(&plan));
        assert_eq!((stats.reused, stats.ran), (0, 8));
    }

    #[test]
    fn complete_log_reuses_everything_verbatim() {
        let plan = plan();
        let full = full_lines(&plan);
        let mut text = full.join("\n");
        text.push('\n');
        let partial = parse_partial(&text).unwrap();
        let (lines, summary, stats) = resumed_lines(&plan, 1, &partial);
        assert_eq!(lines, full);
        assert_eq!((stats.reused, stats.ran), (8, 0));
        assert_eq!(summary.failed, 4, "reused error records still count");
    }

    #[test]
    fn malformed_interior_line_is_an_error_not_a_torn_tail() {
        let plan = plan();
        let full = full_lines(&plan);
        let text = format!("{}\n{{half a rec\n{}\n", full[0], full[2]);
        let e = parse_partial(&text).unwrap_err();
        assert!(e.msg.contains("line 2"), "{e}");
    }

    #[test]
    fn duplicate_and_foreign_keys_are_rejected() {
        let plan = plan();
        let full = full_lines(&plan);
        let text = format!("{}\n{}\n", full[0], full[0]);
        let e = parse_partial(&text).unwrap_err();
        assert!(e.msg.contains("both carry"), "{e}");

        let other = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["COOR-LU"],
                "seeds":[9],"configs":[{"id":"base"}]}"#,
        )
        .unwrap();
        let partial = parse_partial(&format!("{}\n", full[0])).unwrap();
        let e = run_campaign_resume(&other, 1, 4, &partial, |_| {}).unwrap_err();
        assert!(e.msg.contains("not a cell of this plan"), "{e}");
    }
}
