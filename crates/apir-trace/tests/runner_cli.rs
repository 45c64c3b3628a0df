//! The command-line contract of the four runner commands (`run`,
//! `timeline`, `snapshot`, `restore-run`): the usage errors of the
//! `<APP> [--scale] [--cap] [--faults]` head they share and of their own
//! flags, what `--cap` sizes in each, and a `snapshot` + `restore-run`
//! pair that finishes as `run` does.

use apir_util::json::{parse, Json};
use std::path::PathBuf;
use std::process::{Command, Output};

const RUNNERS: [&str; 4] = ["run", "timeline", "snapshot", "restore-run"];

fn trace(cmd: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apir-trace"))
        .arg(cmd)
        .args(args)
        .output()
        .expect("spawn apir-trace")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts `out` failed with `code` and `message` as its first line.
fn assert_fails(out: &Output, code: i32, message: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(code), "{message}: {err}");
    assert_eq!(err.lines().next(), Some(message), "{err}");
}

/// A fresh temporary directory for one test.
fn fresh_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apir-runner-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_json(path: &PathBuf) -> Json {
    parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn the_shared_head_fails_alike_in_every_runner() {
    for cmd in RUNNERS {
        let cases: [(&[&str], String); 7] = [
            (&[], format!("{cmd} needs an app name")),
            (
                &["NOPE"],
                "unknown app `NOPE` (try `apir-trace list`)".to_string(),
            ),
            (
                &["SPEC-BFS", "--scale", "huge"],
                "unknown scale `huge`".to_string(),
            ),
            (
                &["SPEC-BFS", "--cap", "x"],
                "--cap wants a number, got `x`".to_string(),
            ),
            (
                &["SPEC-BFS", "--faults", "x"],
                "--faults wants a seed, got `x`".to_string(),
            ),
            (
                &["SPEC-BFS", "--scale"],
                "--scale needs a value".to_string(),
            ),
            (
                &["SPEC-BFS", "--bogus"],
                "unknown flag `--bogus`".to_string(),
            ),
        ];
        for (args, want) in cases {
            assert_fails(&trace(cmd, args), 2, &format!("apir-trace: {want}"));
        }
    }
}

#[test]
fn each_runner_checks_its_own_flags() {
    let cases: [(&str, &[&str], &str); 9] = [
        ("run", &["SPEC-BFS", "--json"], "--json needs a value"),
        ("run", &["SPEC-BFS", "extra"], "unknown flag `extra`"),
        (
            "timeline",
            &["SPEC-BFS", "--window", "0"],
            "--window must be positive",
        ),
        (
            "timeline",
            &["SPEC-BFS", "--window", "x"],
            "--window wants a number, got `x`",
        ),
        ("snapshot", &["SPEC-BFS"], "snapshot needs --at <cycle>"),
        (
            "snapshot",
            &["SPEC-BFS", "--at", "x"],
            "--at wants a cycle, got `x`",
        ),
        (
            "snapshot",
            &["SPEC-BFS", "--at", "9", "--out"],
            "--out needs a value",
        ),
        (
            "restore-run",
            &["SPEC-BFS"],
            "restore-run needs a snapshot file",
        ),
        (
            "restore-run",
            &["SPEC-BFS", "a.json", "b.json"],
            "restore-run takes exactly one snapshot file",
        ),
    ];
    for (cmd, args, want) in cases {
        assert_fails(&trace(cmd, args), 2, &format!("apir-trace: {want}"));
    }
}

#[test]
fn runs_that_cannot_deliver_fail_with_their_codes() {
    let dir = fresh_dir("codes");
    let missing = dir.join("no-such-dir").join("r.json");
    let missing = missing.to_str().unwrap();
    let out = trace("run", &["SPEC-BFS", "--cap", "0", "--chrome", "t.json"]);
    assert_fails(
        &out,
        2,
        "apir-trace: --chrome requires event tracing; rerun with --cap > 0",
    );
    let out = trace("run", &["SPEC-BFS", "--cap", "0", "--json", missing]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).starts_with(&format!("apir-trace: writing {missing}: ")),
        "{}",
        stderr(&out)
    );
    let out = trace("restore-run", &["SPEC-BFS", missing]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).starts_with(&format!("apir-trace: reading {missing}: ")),
        "{}",
        stderr(&out)
    );
    let out = trace("snapshot", &["SPEC-BFS", "--at", "1000000"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.starts_with("apir-trace: SPEC-BFS completed at cycle ")
            && err.ends_with(" before --at 1000000; no snapshot taken\n"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cap_sizes_the_trace_ring_of_run_and_the_window_ring_of_timeline() {
    let dir = fresh_dir("cap");
    let run_json = dir.join("run.json");
    let out = trace(
        "run",
        &[
            "SPEC-BFS",
            "--cap",
            "16",
            "--json",
            run_json.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let summary = String::from_utf8(out.stdout).unwrap();
    assert!(
        summary.contains("WARNING: trace ring overflowed"),
        "{summary}"
    );
    let trace_block = read_json(&run_json).get("trace").unwrap().clone();
    assert_eq!(trace_block.get("records").and_then(Json::as_u64), Some(16));
    assert!(trace_block.get("dropped").and_then(Json::as_u64) > Some(0));
    assert!(read_json(&run_json).get("timeline").is_none());

    let tl_json = dir.join("timeline.json");
    let args = ["SPEC-BFS", "--window", "64", "--cap", "8"];
    let out = trace(
        "timeline",
        &[&args[..], &["--json", tl_json.to_str().unwrap()]].concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = read_json(&tl_json);
    assert_eq!(doc.get("trace"), Some(&Json::Null), "tracing stays off");
    let tl = doc.get("timeline").unwrap();
    assert_eq!(tl.get("window").and_then(Json::as_u64), Some(64));
    assert_eq!(
        tl.get("windows").and_then(Json::as_arr).map(<[_]>::len),
        Some(8)
    );
    assert!(tl.get("dropped").and_then(Json::as_u64) > Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_snapshot_restored_finishes_as_the_uninterrupted_run() {
    let dir = fresh_dir("restore");
    for (i, flags) in [&["--cap", "0"][..], &["--cap", "64", "--faults", "3"]]
        .into_iter()
        .enumerate()
    {
        let path = |name: &str| dir.join(format!("{i}.{name}"));
        let (full, snap, resumed) = (path("full.json"), path("snap.json"), path("resumed.json"));
        let (full, snap, resumed) = (
            full.to_str().unwrap(),
            snap.to_str().unwrap(),
            resumed.to_str().unwrap(),
        );
        let runs = [
            trace("run", &[&["SPEC-BFS", "--json", full], flags].concat()),
            trace(
                "snapshot",
                &[&["SPEC-BFS", "--at", "400", "--out", snap], flags].concat(),
            ),
            trace(
                "restore-run",
                &[&["SPEC-BFS", snap, "--json", resumed], flags].concat(),
            ),
        ];
        for out in &runs {
            assert_eq!(out.status.code(), Some(0), "{flags:?}: {}", stderr(out));
        }
        assert_eq!(
            std::fs::read(full).unwrap(),
            std::fs::read(resumed).unwrap(),
            "{flags:?}: the restored run's report differs"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
