//! The campaign merge contract: the record stream of a plan is a pure
//! function of the plan. Running `tests/plans/determinism.json` — which
//! deliberately includes a failing config (`boom`, `max_cycles: 64` ⇒
//! every cell dies with a `max_cycles` error) — on 1, 2, and 8 worker
//! threads must produce byte-identical JSONL, failures included. That
//! is what lets `scripts/verify.sh` gate campaign output with a plain
//! byte comparison and lets results files live in version control.

use apir::campaign::{parse_plan, run_campaign, CampaignPlan, CampaignSummary};
use apir::util::jsonl::parse_jsonl;
use apir::util::Json;

fn committed_plan() -> CampaignPlan {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/plans/determinism.json"
    ))
    .expect("committed determinism plan");
    parse_plan(&text).expect("valid plan")
}

/// Runs the plan and returns the merged JSONL bytes plus the summary.
fn merged_jsonl(plan: &CampaignPlan, threads: usize, inflight: usize) -> (String, CampaignSummary) {
    let mut out = String::new();
    let summary = run_campaign(plan, threads, inflight, |r| {
        out.push_str(&r.render());
        out.push('\n');
    });
    (out, summary)
}

#[test]
fn merged_stream_is_byte_identical_across_thread_counts() {
    let plan = committed_plan();
    let (one, s1) = merged_jsonl(&plan, 1, 4);
    let (two, s2) = merged_jsonl(&plan, 2, 4);
    let (eight, s8) = merged_jsonl(&plan, 8, 4);

    assert_eq!(one, two, "2-thread merge diverged from 1-thread");
    assert_eq!(one, eight, "8-thread merge diverged from 1-thread");

    // The plan fails half its cells mid-campaign (the `boom` config) —
    // the failure records must be as deterministic as the successes.
    assert_eq!(s1.jobs, plan.cells() as u64);
    assert_eq!(s1.failed, (plan.cells() / 2) as u64);
    assert_eq!((s2.jobs, s2.failed), (s1.jobs, s1.failed));
    assert_eq!((s8.jobs, s8.failed), (s1.jobs, s1.failed));
}

#[test]
fn merged_stream_interleaves_ok_and_error_records_in_key_order() {
    let plan = committed_plan();
    let (text, _) = merged_jsonl(&plan, 8, 4);
    let records = parse_jsonl(&text).expect("every line is valid JSON");
    assert_eq!(records.len(), plan.cells());

    // Records arrive sorted by (app, config, seed) — the merge key —
    // regardless of which worker finished which cell first.
    let keys: Vec<(String, String, u64)> = records
        .iter()
        .map(|r| {
            (
                r.get("app").unwrap().as_str().unwrap().to_string(),
                r.get("config").unwrap().as_str().unwrap().to_string(),
                r.get("seed").unwrap().as_u64().unwrap(),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "records out of merge-key order");
    sorted.dedup();
    assert_eq!(sorted.len(), records.len(), "duplicate cell records");

    for r in &records {
        let config = r.get("config").unwrap().as_str().unwrap();
        let status = r.get("status").unwrap().as_str().unwrap();
        match config {
            // `boom` pins max_cycles far below any real run: every cell
            // fails, structurally, at the same cycle.
            "boom" => {
                assert_eq!(status, "error");
                let e = r.get("error").unwrap();
                assert_eq!(e.get("kind").unwrap().as_str(), Some("max_cycles"));
                assert_eq!(e.get("cycle").unwrap().as_u64(), Some(64));
                // Error records embed the partial report, stamped with
                // where the run died — the campaign-side view of
                // `FabricError::partial_report_json()`.
                let report = r
                    .get("report")
                    .expect("error records embed the partial report");
                let t = report.get("terminated").expect("terminated stamp");
                assert_eq!(t.get("kind").unwrap().as_str(), Some("max_cycles"));
                assert_eq!(t.get("cycle").unwrap().as_u64(), Some(64));
            }
            "base" => {
                assert_eq!(status, "ok");
                let report = r.get("report").unwrap();
                assert_eq!(
                    report.get("schema").and_then(Json::as_str),
                    Some("apir.fabric.report.v2")
                );
                assert!(r.get("error").is_none(), "ok records carry no error");
            }
            other => panic!("unexpected config `{other}`"),
        }
    }
}

#[test]
fn tight_inflight_window_does_not_change_the_bytes() {
    // The reorder buffer's capacity bounds memory, not meaning: the
    // minimum window (1) must still merge the same bytes as a roomy one.
    let plan = committed_plan();
    let (tight, st) = merged_jsonl(&plan, 8, 1);
    let (roomy, _) = merged_jsonl(&plan, 8, 64);
    assert_eq!(tight, roomy);
    assert!(
        st.peak_inflight <= 1,
        "cap 1 violated: {}",
        st.peak_inflight
    );
}
