//! Golden tests for `apir-trace campaign` against the committed plan
//! corpus in `tests/plans/` (repo root): the happy path is
//! byte-deterministic across thread counts, failing cells degrade to
//! exit 1 with structured error records, and each malformed plan is
//! pinned to its exit-2 diagnostic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn plan(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/plans")
        .join(name)
}

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apir-trace"))
        .arg("campaign")
        .args(args)
        .output()
        .expect("spawn apir-trace")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn smoke_plan_exits_0_and_is_byte_identical_across_thread_counts() {
    let path = plan("smoke12.json");
    let path = path.to_str().unwrap();
    let eight = campaign(&[path, "--threads", "8"]);
    let one = campaign(&[path, "--threads", "1"]);
    assert_eq!(eight.status.code(), Some(0), "{}", stderr(&eight));
    assert_eq!(one.status.code(), Some(0), "{}", stderr(&one));
    assert_eq!(
        eight.stdout, one.stdout,
        "8-thread records diverged from 1-thread"
    );
    // The human summary stays off the record stream.
    assert!(stderr(&one).contains("campaign.jobs=12 campaign.failed=0"));
    let text = String::from_utf8(one.stdout).unwrap();
    assert_eq!(text.lines().count(), 12, "one record per cell");
    assert!(text.lines().all(|l| l.contains("\"status\":\"ok\"")));
}

#[test]
fn failing_cells_exit_1_with_structured_error_records() {
    let path = plan("determinism.json");
    let out = campaign(&[path.to_str().unwrap(), "--threads", "4"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("campaign.failed=6"));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 12);
    let errors: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"status\":\"error\""))
        .collect();
    assert_eq!(errors.len(), 6, "the `boom` config fails all six cells");
    assert!(errors
        .iter()
        .all(|l| l.contains("\"kind\":\"max_cycles\"") && l.contains("\"config\":\"boom\"")));
}

#[test]
fn malformed_plans_exit_2_with_pinned_diagnostics() {
    for (file, needle) in [
        (
            "bad_unknown_app.json",
            "unknown app `SPEC-QUICKSORT` (known: SPEC-BFS",
        ),
        (
            "bad_schema.json",
            "unsupported plan schema `apir.campaign.plan.v9`",
        ),
        (
            "bad_zero_seeds.json",
            "`seeds` must be a non-empty array of integers",
        ),
    ] {
        let out = campaign(&[plan(file).to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{file}");
        let err = stderr(&out);
        assert!(
            err.contains("invalid campaign plan:") && err.contains(needle),
            "{file}: diagnostic drifted:\n{err}"
        );
        assert!(out.stdout.is_empty(), "{file}: no records for a bad plan");
    }
}

#[test]
fn resume_from_a_torn_partial_is_byte_identical() {
    // Kill-and-resume: run the smoke plan in full, then hand `--resume`
    // a partial log holding five complete records plus half of the
    // sixth (a torn tail, as a SIGKILL mid-write leaves behind). The
    // resumed stream must be byte-identical to the uninterrupted one at
    // a different thread count, and the stderr summary must account for
    // every cell as either reused or re-run.
    let path = plan("smoke12.json");
    let path = path.to_str().unwrap();
    let full = campaign(&[path, "--threads", "1"]);
    assert_eq!(full.status.code(), Some(0), "{}", stderr(&full));
    let text = String::from_utf8(full.stdout.clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let torn: String = lines[..5]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        + &lines[5][..lines[5].len() / 2];
    let dir = std::env::temp_dir().join(format!("apir-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let partial = dir.join("partial.jsonl");
    std::fs::write(&partial, torn).unwrap();

    let resumed = campaign(&[
        path,
        "--threads",
        "8",
        "--resume",
        partial.to_str().unwrap(),
    ]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    assert_eq!(
        resumed.stdout, full.stdout,
        "resumed records diverged from the uninterrupted run"
    );
    let err = stderr(&resumed);
    assert!(
        err.contains("campaign.resume.reused=5 campaign.resume.ran=7 campaign.resume.torn=1"),
        "resume accounting drifted:\n{err}"
    );
    // A resume log that is not from this plan is refused, not merged.
    let foreign = dir.join("foreign.jsonl");
    std::fs::write(
        &foreign,
        "{\"app\":\"SPEC-BFS\",\"config\":\"no-such-config\",\"seed\":1,\"status\":\"ok\"}\n",
    )
    .unwrap();
    let out = campaign(&[path, "--resume", foreign.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("is not a cell of this plan"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],                           // no plan
        &["--threads", "0", "x.json"][..], // zero threads
        &["--bogus"][..],                  // unknown flag
        &["a.json", "b.json"][..],         // two plan files
    ] {
        let out = campaign(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
    // A nonexistent plan path is diagnosed, not a panic.
    let out = campaign(&["definitely/not/here.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("reading definitely/not/here.json"));
}
