//! Bounded work for every reader of outside input.
//!
//! Snapshots, campaign plans, JSONL logs, `diff` inputs and DIMACS
//! graphs come from outside the process, so each reader must do work
//! linear in its input. Each case below generates an input of 1 MB or
//! more, reads it on a worker thread and fails when the read misses a
//! wall-clock budget. The budgets leave an order of magnitude of room
//! for a debug build on a loaded machine, yet a reader that is
//! quadratic in its input misses them by 50× or more at these sizes, so
//! a regression fails here at its budget instead of hanging the suite.
//!
//! `doubling_series` (ignored; run it with
//! `cargo test --release --test bounded_readers -- --ignored --nocapture`)
//! times every reader from 1 MB to 8 MB and checks that a doubling of
//! the input costs at most 2.5× the time on average.
//!
//! The property at the end mutates the committed JSON documents byte
//! range by byte range: the parser returns the value or an error located
//! inside the input, and never panics.

use apir::campaign::{parse_partial, parse_plan};
use apir::trace::{diff_docs, DiffLine};
use apir::util::json::{parse, Json};
use apir::util::jsonl::parse_jsonl;
use apir::util::SmallRng;
use apir::workloads::dimacs::read_gr;
use apir_util::props;
use std::fmt::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

const MB: usize = 1 << 20;

/// The read of one generated input; it asserts what it read.
type Read = Box<dyn FnOnce() + Send>;

/// One reader of outside input.
struct Case {
    name: &'static str,
    /// Generates an input of about the given size in bytes and returns
    /// its read.
    prepare: fn(usize) -> Read,
    /// Input size in the tier-1 case.
    bytes: usize,
    /// Wall-clock budget of the tier-1 read.
    budget: Duration,
}

/// Runs `read` on a worker thread and fails if it has not returned
/// within `budget`. A panic in `read` fails the test with its message.
fn within(name: &str, budget: Duration, read: Read) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let start = Instant::now();
        read();
        done.send(start.elapsed()).ok();
    });
    match finished.recv_timeout(budget) {
        Ok(took) => eprintln!("{name}: read in {took:?} (budget {budget:?})"),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: the read is still running after its {budget:?} budget")
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the worker panicked"))
        }
    }
}

fn bounded(case: &Case) {
    within(case.name, case.budget, (case.prepare)(case.bytes));
}

/// About `len` bytes of text, mostly ASCII words, with every character
/// the writer escapes and multi-byte UTF-8 mixed in.
fn text(rng: &mut SmallRng, len: usize) -> String {
    const PIECES: [&str; 12] = [
        "alpha ", "beta ", "gamma ", "delta ", "epsilon ", "zeta ", "\"", "\\", "\n", "\u{1}", "é",
        "π漢",
    ];
    let mut s = String::with_capacity(len + 8);
    while s.len() < len {
        s.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
    }
    s
}

/// An array of strings rendered by the writer: nearly every byte is
/// inside a string.
fn json_strings(bytes: usize) -> Read {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut items = Vec::new();
    let mut len = 0;
    while len < bytes {
        let len_s = rng.gen_range(16..4096);
        let s = text(&mut rng, len_s);
        len += s.len() + 3;
        items.push(Json::Str(s));
    }
    let doc = Json::Arr(items).render();
    Box::new(move || assert_eq!(parse(&doc).expect("parses").render(), doc))
}

/// An array of numbers in every form the grammar allows.
fn json_numbers(bytes: usize) -> Read {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut doc = String::from("[");
    let mut n = 0;
    while doc.len() < bytes {
        if n > 0 {
            doc.push(',');
        }
        let _ = match n % 4 {
            0 => write!(doc, "{}", rng.next_u64()),
            1 => write!(doc, "-{}", rng.gen_range(0u64..1_000_000)),
            2 => write!(
                doc,
                "{}.{:03}",
                rng.gen_range(0u32..1000),
                rng.gen_range(0u32..1000)
            ),
            _ => write!(
                doc,
                "-{}.{}E{}{}",
                rng.gen_range(1u32..10),
                rng.gen_range(0u32..1000),
                ["", "+", "-"][rng.gen_range(0usize..3)],
                rng.gen_range(0u32..300)
            ),
        };
        n += 1;
    }
    doc.push(']');
    Box::new(move || {
        let items = parse(&doc).expect("parses");
        assert_eq!(items.as_arr().expect("an array").len(), n);
    })
}

/// Four string-heavy lines of at least 256 KB each.
fn jsonl_lines(bytes: usize) -> Read {
    let mut rng = SmallRng::seed_from_u64(3);
    let lines = 4;
    let mut log = String::new();
    for i in 0..lines {
        let record = Json::obj([
            ("line", Json::U64(i)),
            ("text", Json::Str(text(&mut rng, bytes / lines as usize))),
        ]);
        log.push_str(&record.render());
        log.push('\n');
    }
    Box::new(move || assert_eq!(parse_jsonl(&log).expect("parses").len(), lines as usize))
}

/// A partial campaign log: four complete records of at least 256 KB
/// each, then a torn fifth line.
fn partial_log(bytes: usize) -> Read {
    let mut rng = SmallRng::seed_from_u64(4);
    let lines = 4;
    let mut log = String::new();
    for seed in 0..lines {
        let record = Json::obj([
            ("app", Json::str("SPEC-BFS")),
            ("config", Json::str("base")),
            ("seed", Json::U64(seed)),
            ("status", Json::str("ok")),
            (
                "report",
                Json::obj([("log", Json::Str(text(&mut rng, bytes / lines as usize)))]),
            ),
        ]);
        log.push_str(&record.render());
        log.push('\n');
    }
    log.push_str(r#"{"app":"SPEC-BFS","config":"base","seed":4,"sta"#);
    Box::new(move || {
        let partial = parse_partial(&log).expect("resumable");
        assert_eq!(partial.records.len(), lines as usize);
        assert!(partial.torn);
    })
}

/// A plan whose seeds fill 7/8 of the bytes (2 MB holds 229k of them)
/// and whose config ids fill the rest; its last config id repeats the
/// first, so every duplicate check runs over every entry.
fn plan(bytes: usize) -> Read {
    let seeds: Vec<String> = (0..bytes * 7 / 8 / 8)
        .map(|i| (1_000_000 + i).to_string())
        .collect();
    let mut configs: Vec<String> = (0..bytes / 8 / 16)
        .map(|i| format!(r#"{{"id":"c{i}"}}"#))
        .collect();
    configs.push(r#"{"id":"c0"}"#.to_string());
    let doc = format!(
        r#"{{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],"seeds":[{}],"configs":[{}]}}"#,
        seeds.join(","),
        configs.join(",")
    );
    Box::new(move || {
        let e = parse_plan(&doc).expect_err("the last config id is a duplicate");
        assert_eq!(e.msg, "duplicate config id `c0`");
    })
}

/// A DIMACS `.gr` graph of 10,000 vertices with comment lines.
fn dimacs(bytes: usize) -> Read {
    let mut rng = SmallRng::seed_from_u64(6);
    let (n, arcs) = (10_000u32, bytes / 16);
    let mut gr = format!("c generated\np sp {n} {arcs}\n");
    for i in 0..arcs {
        if i % 1000 == 0 {
            gr.push_str("c a comment line\n");
        }
        let _ = writeln!(
            gr,
            "a {} {} {}",
            rng.gen_range(1..=n),
            rng.gen_range(1..=n),
            rng.gen_range(1u32..1000)
        );
    }
    Box::new(move || {
        let g = read_gr(gr.as_bytes()).expect("parses");
        assert_eq!((g.num_vertices(), g.num_edges()), (n as usize, arcs));
    })
}

/// Two report-shaped documents of `bytes / 2` each that differ in two
/// changed, two removed and one added key; both are parsed and diffed.
fn diff(bytes: usize) -> Read {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut apps = Vec::new();
    let mut len = 0;
    while len < bytes / 2 {
        let len_name = rng.gen_range(16..1024);
        let name = text(&mut rng, len_name);
        len += name.len() + 40;
        let app = Json::obj([("name", Json::Str(name)), ("cycles", Json::U64(len as u64))]);
        apps.push((format!("app{}", apps.len()), app));
    }
    let last = apps.len() - 1;
    let mut changed = apps.clone();
    changed[0].1 = Json::obj([("name", Json::str("renamed")), ("cycles", Json::U64(0))]);
    changed.pop();
    changed.push(("added".to_string(), Json::U64(1)));
    let doc = |apps| {
        Json::obj([
            ("schema", Json::str("apir.test.v1")),
            ("apps", Json::Obj(apps)),
        ])
    };
    let (a, b) = (doc(apps).render(), doc(changed).render());
    Box::new(move || {
        let (a, b) = (parse(&a).expect("parses"), parse(&b).expect("parses"));
        let lines = diff_docs(&a, &b).expect("same schema");
        let got: Vec<String> = lines
            .iter()
            .map(|l| match l {
                DiffLine::Changed { key, .. } => format!("changed {key}"),
                DiffLine::Removed { key, .. } => format!("removed {key}"),
                DiffLine::Added { key, .. } => format!("added {key}"),
            })
            .collect();
        let want = [
            "changed apps.app0.cycles".to_string(),
            "changed apps.app0.name".to_string(),
            format!("removed apps.app{last}.cycles"),
            format!("removed apps.app{last}.name"),
            "added apps.added".to_string(),
        ];
        assert_eq!(got, want);
    })
}

const fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

const JSON_STRINGS: Case = Case {
    name: "json::parse strings",
    prepare: json_strings,
    bytes: MB,
    budget: ms(2000),
};
const JSON_NUMBERS: Case = Case {
    name: "json::parse numbers",
    prepare: json_numbers,
    bytes: MB,
    budget: ms(1000),
};
const JSONL: Case = Case {
    name: "parse_jsonl",
    prepare: jsonl_lines,
    bytes: MB,
    budget: ms(1000),
};
const PARTIAL: Case = Case {
    name: "parse_partial",
    prepare: partial_log,
    bytes: MB,
    budget: ms(1000),
};
const PLAN: Case = Case {
    name: "parse_plan",
    prepare: plan,
    bytes: 2 * MB,
    budget: ms(4000),
};
const DIMACS: Case = Case {
    name: "read_gr",
    prepare: dimacs,
    bytes: MB,
    budget: ms(2000),
};
const DIFF: Case = Case {
    name: "parse + diff_docs",
    prepare: diff,
    bytes: MB,
    budget: ms(2000),
};

#[test]
fn json_parse_of_a_string_heavy_document_is_bounded() {
    bounded(&JSON_STRINGS);
}

#[test]
fn json_parse_of_a_number_heavy_document_is_bounded() {
    bounded(&JSON_NUMBERS);
}

#[test]
fn parse_jsonl_of_long_lines_is_bounded() {
    bounded(&JSONL);
}

#[test]
fn parse_partial_of_long_records_is_bounded() {
    bounded(&PARTIAL);
}

#[test]
fn parse_plan_of_200k_seeds_is_bounded() {
    bounded(&PLAN);
}

#[test]
fn read_gr_is_bounded() {
    bounded(&DIMACS);
}

#[test]
fn parse_and_diff_of_two_documents_is_bounded() {
    bounded(&DIFF);
}

/// Times each reader at 1, 2, 4 and 8 MB (best of five) and checks that
/// the time grows by at most 2.5× per doubling on average: 8 MB may
/// cost at most 2.5³ ≈ 15.6× what 1 MB costs, where a quadratic reader
/// costs 64×. A single step can read higher when the allocator starts
/// returning a large output buffer to the system between reads, so each
/// read of it faults its pages in again. Meant for a release build.
#[test]
#[ignore]
fn doubling_series() {
    for case in [
        JSON_STRINGS,
        JSON_NUMBERS,
        JSONL,
        PARTIAL,
        PLAN,
        DIMACS,
        DIFF,
    ] {
        let times: Vec<f64> = [1, 2, 4, 8]
            .iter()
            .map(|&mb| {
                (0..5)
                    .map(|_| {
                        let read = (case.prepare)(mb * MB);
                        let start = Instant::now();
                        read();
                        start.elapsed().as_secs_f64() * 1e3
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let ratios: Vec<String> = times
            .windows(2)
            .map(|w| format!("{:.2}", w[1] / w[0]))
            .collect();
        let growth = times[3] / times[0];
        eprintln!(
            "{}: {} ms at 1/2/4/8 MB; ratios {}; 8 MB / 1 MB = {growth:.1}",
            case.name,
            times
                .iter()
                .map(|t| format!("{t:.2}"))
                .collect::<Vec<_>>()
                .join(" / "),
            ratios.join(" / ")
        );
        assert!(growth <= 2.5f64.powi(3), "{}: {times:?}", case.name);
    }
}

/// Every JSON document committed to the repository.
const DOCS: [&str; 14] = [
    include_str!("golden/spec_bfs_400.json"),
    include_str!("golden/spec_mst_2000_chaos7.json"),
    include_str!("golden/coor_lu_20_chaos7_timeline.json"),
    include_str!("golden/spec_mst_small.json"),
    include_str!("golden/spec_mst_small_chaos1.json"),
    include_str!("golden/spec_sssp_medium.json"),
    include_str!("golden/spec_sssp_small_timeline256_chaos1.json"),
    include_str!("plans/bad_schema.json"),
    include_str!("plans/bad_unknown_app.json"),
    include_str!("plans/bad_zero_seeds.json"),
    include_str!("plans/chaos_matrix.json"),
    include_str!("plans/determinism.json"),
    include_str!("plans/smoke12.json"),
    include_str!("../ANALYSIS_baseline.json"),
];

#[test]
fn every_committed_json_document_parses() {
    for (i, doc) in DOCS.iter().enumerate() {
        let value = parse(doc).unwrap_or_else(|e| panic!("document {i}: {e}"));
        assert_eq!(parse(&value.render()), Ok(value), "document {i}");
    }
}

props! {
    cases = 256;

    /// One to four byte-range mutations of a committed document: the
    /// parser returns the value or an error located inside the input.
    fn mutated_documents_parse_or_fail_located(g) {
        const ASCII: &[u8] = b"[]{}\":,\\0123456789-+.eEtrufalsn \n\t\x01x";
        let mut doc = DOCS[g.gen_range(0..DOCS.len())].to_string();
        for _ in 0..g.gen_range(1usize..5) {
            let len = doc.len();
            let a = doc.floor_char_boundary(g.gen_range(0..=len));
            let b = doc.floor_char_boundary(a + g.gen_range(0..=(len - a).min(64)));
            match g.gen_range(0u32..5) {
                0 => doc.truncate(a),
                1 => doc.replace_range(a..b, ""),
                2 => {
                    let copy = doc[a..b].to_string();
                    doc.insert_str(b, &copy);
                }
                3 => {
                    let at = doc.floor_char_boundary(g.gen_range(0..=len));
                    let copy = doc[a..b].to_string();
                    doc.insert_str(at, &copy);
                }
                _ => {
                    let bytes: String = (a..b.max(a + 1))
                        .map(|_| ASCII[g.gen_range(0..ASCII.len())] as char)
                        .collect();
                    doc.replace_range(a..b, &bytes);
                }
            }
        }
        if let Err(e) = parse(&doc) {
            assert!(e.at <= doc.len(), "error at {} past the end ({})", e.at, doc.len());
        }
    }
}
