//! `apir-trace restore-run` diagnoses a hand-edited snapshot with exit
//! code 2 and the path of the member at fault, instead of accepting it
//! and panicking mid-run. The documents are edits of the committed
//! SPEC-BFS golden snapshot in `tests/golden/` (repo root), which is the
//! `apir-trace snapshot SPEC-BFS --at 400` pause.

use std::process::Command;

#[test]
fn malformed_snapshots_exit_2_naming_the_member() {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/spec_bfs_400.json"),
    )
    .unwrap();
    // The one queued memory request, and the empty hit pipe.
    let req = r#"{"p":3,"t":53,"r":2,"o":3,"w":[1,3]}"#;
    let queued = format!(r#""requests":{{"v":[{req}],"s":[]}}"#);
    let hit_pipe = r#""hit_pipe":[]"#;
    let edits = [
        (
            "mem.requests`: holds 257 elements, capacity 256",
            queued.clone(),
            format!(
                r#""requests":{{"v":[{}],"s":[]}}"#,
                vec![req; 257].join(",")
            ),
        ),
        (
            "mem.requests.v[0].r`: region 99",
            queued.clone(),
            queued.replace(r#""r":2"#, r#""r":99"#),
        ),
        (
            "mem.requests.v[0].o`: offset",
            queued.clone(),
            queued.replace(r#""o":3"#, r#""o":1000000000000"#),
        ),
        (
            "mem.requests.v[0].p`: port 999",
            queued.clone(),
            queued.replace(r#""p":3"#, r#""p":999"#),
        ),
        (
            "mem.hit_pipe[1]`: ready cycle 8",
            hit_pipe.to_string(),
            format!(r#""hit_pipe":[[9,{req}],[8,{req}]]"#),
        ),
    ];
    let dir = std::env::temp_dir().join(format!("apir-restore-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (member, from, to)) in edits.iter().enumerate() {
        assert_eq!(golden.matches(from.as_str()).count(), 1, "{from}");
        let path = dir.join(format!("edit{i}.json"));
        std::fs::write(&path, golden.replace(from.as_str(), to)).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_apir-trace"))
            .args(["restore-run", "SPEC-BFS", path.to_str().unwrap()])
            .output()
            .expect("spawn apir-trace");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{member}: {err}");
        assert!(
            err.contains(&format!("snapshot: `{member}")),
            "{member}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A document nested far past the parser's depth limit is a located
/// parse error with exit code 2, not a stack overflow that aborts the
/// process.
#[test]
fn deeply_nested_document_exits_2_naming_the_offset() {
    let dir = std::env::temp_dir().join(format!("apir-restore-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(100_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_apir-trace"))
        .args(["restore-run", "SPEC-BFS", path.to_str().unwrap()])
        .output()
        .expect("spawn apir-trace");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("JSON parse error at byte 128: arrays and objects nest deeper than 128"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
