#!/usr/bin/env bash
# Hermetic verification: the workspace must build and test fully offline
# with zero external crates. Run from anywhere; exits non-zero on the
# first regression (including any external dependency creeping back into
# a Cargo.toml, which would break environments without registry access).
set -euo pipefail
cd "$(dirname "$0")/.."

# hostbench is a workspace of its own, so `--all` leaves it out.
echo "==> cargo fmt --all --check (the workspace is rustfmt-clean)"
cargo fmt --all --check

echo "==> cargo build --release --offline (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release --offline

echo "==> cargo clippy on every target in the workspace: libraries, binaries, tests, examples (warnings are errors)"
cargo clippy --offline --workspace --all-targets --no-deps -- -D warnings

echo "==> cargo doc on every crate in the workspace (warnings are errors, so no broken link)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

# hostbench is a workspace of its own that builds against the crates'
# public API, so the workspace build above does not notice when it breaks.
echo "==> hostbench build + self-test"
cargo test --release --offline --manifest-path hostbench/Cargo.toml

echo "==> apir-lint over the builtin benchmark specs"
cargo run -q --release --offline -p apir-check --bin apir-lint

chaos_a=$(mktemp) ; chaos_b=$(mktemp) ; analysis_tmp=$(mktemp) ; lint_analysis=$(mktemp)
camp_a=$(mktemp) ; camp_b=$(mktemp) ; figures_tiny=$(mktemp)
snap_doc=$(mktemp) ; snap_full=$(mktemp) ; snap_resumed=$(mktemp)
big_doc=$(mktemp) ; big_full=$(mktemp) ; big_resumed=$(mktemp) ; big_chaos=$(mktemp) ; tl=$(mktemp)
sssp_medium=$(mktemp)
resume_full=$(mktemp) ; resume_partial=$(mktemp) ; resume_out=$(mktemp)
trap 'rm -f "$chaos_a" "$chaos_b" "$analysis_tmp" "$lint_analysis" "$camp_a" "$camp_b" "$figures_tiny" \
  "$snap_doc" "$snap_full" "$snap_resumed" "$big_doc" "$big_full" "$big_resumed" "$big_chaos" "$tl" \
  "$sssp_medium" "$resume_full" "$resume_partial" "$resume_out"' EXIT

echo "==> apir-lint --analyze --strict --json (APIR6xx, no warnings allowed; equals ANALYSIS_baseline.json)"
cargo run -q --release --offline -p apir-check --bin apir-lint -- --analyze --strict --json > "$lint_analysis"
# apir-lint and apir-trace analyze the same fabric, the one the runners run.
if ! cmp -s ANALYSIS_baseline.json "$lint_analysis"; then
  diff -u ANALYSIS_baseline.json "$lint_analysis" | head -40 >&2 || true
  echo "ERROR: apir-lint --analyze --json differs from ANALYSIS_baseline.json (diff above)." >&2
  exit 1
fi

echo "==> static-analysis baseline drift gate (apir.analysis.report.v1)"
cargo run -q --release --offline -p apir-trace -- analyze --json "$analysis_tmp" > /dev/null
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$analysis_tmp" ANALYSIS_baseline.json; then
  echo "ERROR: ANALYSIS_baseline.json drifted from the committed baseline (keys above)." >&2
  echo "If the analysis change is intentional, regenerate it:" >&2
  echo "  cargo run -p apir-trace -- analyze --json ANALYSIS_baseline.json" >&2
  exit 1
fi

echo "==> static-vs-dynamic validation (bounds sound, predicted cause == measured)"
cargo run -q --release --offline -p apir-trace -- validate-analysis > /dev/null

echo "==> figures pin (tiny scale: fig2, resources, table1, fig10, ablation, topology)"
# Every number here is simulated; fig9 stays out, its software columns are host-timed.
cargo run -q --release --offline -p apir-bench --bin figures -- \
  --scale tiny fig2 resources table1 fig10 ablation topology > "$figures_tiny"
if ! cmp -s tests/golden/figures_tiny.txt "$figures_tiny"; then
  diff -u tests/golden/figures_tiny.txt "$figures_tiny" | head -40 >&2 || true
  echo "ERROR: the tiny-scale figures drifted from tests/golden/figures_tiny.txt (diff above)." >&2
  exit 1
fi

echo "==> tiny-scale report goldens in a release build (counters exact, utilization to the bit)"
cargo test -q --release --offline --test report_golden

echo "==> scheduler differential gate (dense per-cycle loop vs event wheel)"
cargo test -q --release --offline --test scheduler_equiv

echo "==> chaos suite (campaign-driven fault matrix, all six apps)"
cargo test -q --release --offline --test chaos

echo "==> chaos determinism gate (same seed => byte-identical report)"
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-SSSP --faults 1 --json "$chaos_a" > /dev/null
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-SSSP --faults 1 --json "$chaos_b" > /dev/null
# The reports contain no host timings, so two same-seed runs must agree
# on every key.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$chaos_a" "$chaos_b"; then
  echo "ERROR: two chaos runs with the same seed produced different reports (keys above)." >&2
  exit 1
fi

echo "==> campaign smoke gate (12-cell plan, 8 threads vs 1 thread, byte-identical merge)"
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 8 --json "$camp_a" > /dev/null 2>&1
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 1 --json "$camp_b" > /dev/null 2>&1
# The results document has no wall-clock keys, so the two runs must
# agree on every key — the work-stealing schedule must be invisible.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$camp_a" "$camp_b"; then
  echo "ERROR: an 8-thread campaign diverged from the 1-thread merge (keys above)." >&2
  exit 1
fi

echo "==> snapshot round-trip gate (pause, serialize, restore, byte-identical finish)"
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-BFS --json "$snap_full" > /dev/null
cargo run -q --release --offline -p apir-trace -- \
  snapshot SPEC-BFS --at 400 --out "$snap_doc" > /dev/null
cargo run -q --release --offline -p apir-trace -- \
  restore-run SPEC-BFS "$snap_doc" --json "$snap_resumed" > /dev/null
# The resumed report carries no wall-clock keys: a restored run must be
# indistinguishable from the run it resumed, on every key.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$snap_full" "$snap_resumed"; then
  echo "ERROR: a run restored from a snapshot diverged from the uninterrupted run (keys above)." >&2
  exit 1
fi

echo "==> multi-MB snapshot round-trip gate (SPEC-MST small, ~5 MB document, linear-time read)"
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-MST --scale small --json "$big_full" > /dev/null
cargo run -q --release --offline -p apir-trace -- \
  snapshot SPEC-MST --scale small --at 20000 --out "$big_doc" > /dev/null
# Reading is linear in the document's size, so this restore takes well
# under a second in a release build; a quadratic reader takes ~40 s here.
cargo run -q --release --offline -p apir-trace -- \
  restore-run SPEC-MST "$big_doc" --scale small --json "$big_resumed" > /dev/null
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$big_full" "$big_resumed"; then
  echo "ERROR: a run restored from a multi-MB snapshot diverged from the uninterrupted run (keys above)." >&2
  exit 1
fi

echo "==> SPEC-MST small-scale report pins (rule lanes full: evictions and nacks, fault-free and chaos)"
# At this scale every one of the 64 rule lanes fills and tens of
# thousands of allocations are nacked or evict a holder, so the pins
# cover the rule engine's eviction and minimum-task paths under load.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$big_full" tests/golden/spec_mst_small.json; then
  echo "ERROR: SPEC-MST --scale small drifted from tests/golden/spec_mst_small.json (keys above)." >&2
  exit 1
fi
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-MST --scale small --faults 1 --json "$big_chaos" > /dev/null
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$big_chaos" tests/golden/spec_mst_small_chaos1.json; then
  echo "ERROR: SPEC-MST --scale small --faults 1 drifted from tests/golden/spec_mst_small_chaos1.json (keys above)." >&2
  exit 1
fi

echo "==> SPEC-SSSP medium-scale report pin (the request channel full: bandwidth stalls)"
# At this scale load and store stages spend over six million
# stage-cycles waiting for room in the 256-entry memory request channel,
# so the pin covers the wake of the stages asleep on it.
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-SSSP --scale medium --cap 0 --json "$sssp_medium" > /dev/null
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$sssp_medium" tests/golden/spec_sssp_medium.json; then
  echo "ERROR: SPEC-SSSP --scale medium drifted from tests/golden/spec_sssp_medium.json (keys above)." >&2
  exit 1
fi

echo "==> SPEC-SSSP small-scale timeline pin (256-cycle windows under chaos seed 1)"
# At this scale SSSP waits on misses under chaos, so quiescent jumps of
# the event wheel meet window ends: every window must still close on
# its own cycle with the totals of that cycle.
cargo run -q --release --offline -p apir-trace -- \
  timeline SPEC-SSSP --scale small --window 256 --faults 1 --json "$tl" > /dev/null
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$tl" tests/golden/spec_sssp_small_timeline256_chaos1.json; then
  echo "ERROR: the SPEC-SSSP small timeline drifted from tests/golden/spec_sssp_small_timeline256_chaos1.json (keys above)." >&2
  exit 1
fi

echo "==> campaign resume gate (torn partial log, 8-thread resume == 1-thread full run)"
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 1 --out "$resume_full" > /dev/null 2>&1
# Simulate a SIGKILL mid-write: keep five complete records plus the
# first half of the sixth line, with no trailing newline.
head -n 5 "$resume_full" > "$resume_partial"
sed -n 6p "$resume_full" | cut -c1-50 | tr -d '\n' >> "$resume_partial"
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 8 \
  --resume "$resume_partial" --out "$resume_out" > /dev/null 2>&1
if ! cmp -s "$resume_full" "$resume_out"; then
  echo "ERROR: a resumed campaign diverged from the uninterrupted record stream." >&2
  diff "$resume_full" "$resume_out" | head -5 >&2
  exit 1
fi

echo "==> asserting the dependency graph is apir-only"
external=$(cargo tree --offline --workspace --edges normal,build,dev --prefix none \
  | sed 's/ (\*)$//' | awk 'NF {print $1}' | sort -u | grep -v '^apir' || true)
if [ -n "$external" ]; then
  echo "ERROR: external crates crept into the dependency graph:" >&2
  echo "$external" >&2
  exit 1
fi

echo "verify OK: offline release build + workspace tests passed; dependency graph is apir-only"
