#!/usr/bin/env bash
# CI entry point: the full correctness gate matrix
# (docs/static_analysis.md). Each gate is independently skippable:
#
#   plain   build + full ctest, GEOALIGN_WERROR=ON (default)
#   simd    the SIMD bit-identity suite (differential kernel harness +
#           panel/plan equivalence oracles) out of the plain build,
#           run twice: once with GEOALIGN_FORCE_ISA=scalar and once on
#           the native dispatch, so a vector kernel can never pass by
#           only ever being compared against itself
#   overlay overlay engine smoke: the OverlayEngineTest differential
#           suite (engine vs reference bit-identity across universes
#           and thread counts, candidate count vs brute force), the
#           ConvexClip/BooleanOps kernel tests (the triangle clip vs
#           the ring clipper), and the box grid the candidates come
#           from (PolygonPartition.*, and the RTree /
#           RTreeRandomTest suites, which check spatial::BoxGridIndex
#           against brute force) out of the plain build, then
#           bench/overlay_scale at tiny scale — the binary exits
#           nonzero on any engine-vs-reference bit difference
#   tsan    rebuild with GEOALIGN_SANITIZE=thread, full ctest
#   asan    rebuild with GEOALIGN_SANITIZE=address (ASan+UBSan) and
#           run the full ctest with ASAN_OPTIONS=detect_leaks=1, so
#           the leak checker covers every test — the address/leak leg
#           of the sanitizer matrix — then the Obs* suites again in
#           one process, where process-wide telemetry state that one
#           test replaces and a later one renders anew must stay
#           reachable (ctest runs one test per process and cannot see
#           such a leak)
#   ubsan   rebuild with GEOALIGN_SANITIZE=undefined
#           (-fno-sanitize-recover=all), full ctest
#   tidy    tools/run_clang_tidy.sh over the compile database; FAILS
#           LOUDLY when clang-tidy is not installed — a silently
#           skipped gate reads as a passing one. Skip explicitly with
#           SKIP_TIDY=1 on machines without clang-tidy.
#   tsa     clang rebuild with GEOALIGN_THREAD_SAFETY=ON — every
#           Thread Safety Analysis diagnostic (-Wthread-safety
#           -Wthread-safety-beta) is an error tree-wide — followed by
#           the tests/tsa_test.sh negative-compile fixtures. FAILS
#           LOUDLY when clang++ is absent (the capability system is
#           clang-only); skip explicitly with SKIP_TSA=1.
#   lint    tools/geoalign_lint.py project-specific correctness lints
#   capi    the C ABI end-to-end gate (tests/capi_smoke_test.sh):
#           compile examples/capi_smoke.c with a REAL C compiler under
#           -std=c99 -Wall -Werror (any C++ leaking through
#           capi/geoalign_c.h fails the compile), run it against
#           libgeoalign_c.so, and byte-diff its output against
#           geoalign_cli on the same crosswalk — the embedding path
#           must be bit-identical to the native one
#   obs     run geoalign_cli on a generated example with --metrics-out
#           and --trace-out under GEOALIGN_TELEMETRY=0 (proving the
#           output flags implicitly enable telemetry), validate both
#           outputs parse as JSON (the trace must be Chrome trace-event
#           shaped, i.e. carry a traceEvents array, hold the CLI's
#           io.parse_csv span, and every span name in it must have a
#           <name>.latency_us histogram counting its events), then
#           re-run with
#           --metrics-format=prom and --flight-recorder-out and
#           validate the Prometheus exposition (every histogram's
#           _count equals its +Inf bucket) and the flight-recorder
#           JSONL dump, whose audit request_id (an id holding `"` and
#           `\`) must parse back equal — docs/observability.md
#   perfbench
#           build the end-to-end benchmark program (perfbench/) against
#           the library sources and run python3 perfbench/selftest.py:
#           every workload at reduced scale, untraced and traced, must
#           pass its output checks and report every metric
#           BENCHMARK.json names — so a library API change that breaks
#           the benchmark fails here, not in the next benchmark run.
#           Builds into $BUILD_DIR/perfbench (CARGO_TARGET_DIR)
#   benchdiff
#           ADVISORY: run the obs_overhead and overlay_scale
#           benchmarks fresh, overlay_scale at the baseline's scale 1,
#           and diff each against its committed baseline
#           (BENCH_obs_overhead.json, BENCH_overlay_construction.json)
#           with tools/bench_compare.py. A regression beyond the threshold
#           is reported as ADVISORY-FAIL in the summary but never
#           fails the build (shared CI machines are noisy); regenerate
#           the baseline when a change is intentional.
#
# The summary prints a gate × toolchain matrix: each gate names the
# toolchain it ran on, and a toolchain-availability header makes a
# skipped clang-only gate (tidy, tsa) visible in every run instead of
# blending into the passes.
#
# Environment knobs:
#   JOBS          parallel build/test jobs (default: nproc)
#   BUILD_DIR     plain build tree          (default: build)
#   TSAN_DIR      ThreadSanitizer tree      (default: build-tsan)
#   ASAN_DIR      ASan+LSan tree            (default: build-asan)
#   UBSAN_DIR     UBSan tree                (default: build-ubsan)
#   TSA_DIR       clang thread-safety tree  (default: build-tsa)
#   CLANGXX       clang++ binary for the tsa gate (default: clang++)
#   CTEST_FILTER  optional ctest -R regex applied to every test run;
#                 e.g. CTEST_FILTER='Parallel|Concurrency' for a quick
#                 concurrency-only smoke.
#   SKIP_TSAN=1 SKIP_ASAN=1 SKIP_UBSAN=1 SKIP_TIDY=1 SKIP_TSA=1
#   SKIP_LINT=1 SKIP_OBS=1 SKIP_SIMD=1 SKIP_OVERLAY=1 SKIP_CAPI=1
#   SKIP_PERFBENCH=1 SKIP_BENCHDIFF=1
#                 skip the corresponding gate (recorded as "skipped"
#                 in the summary, never as a pass).
set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"
TSAN_DIR="${TSAN_DIR:-build-tsan}"
ASAN_DIR="${ASAN_DIR:-build-asan}"
UBSAN_DIR="${UBSAN_DIR:-build-ubsan}"
TSA_DIR="${TSA_DIR:-build-tsa}"
CLANGXX="${CLANGXX:-clang++}"
CTEST_FILTER="${CTEST_FILTER:-}"

GATES=(plain simd overlay tsan asan ubsan tidy tsa lint capi obs
       perfbench benchdiff)
# Which toolchain each gate runs on, for the summary matrix. "cxx" is
# the default compiler CMake resolves (gcc or clang alike).
declare -A TOOL=(
  [plain]=cxx [simd]=cxx [overlay]=cxx
  [tsan]=cxx [asan]=cxx [ubsan]=cxx [tidy]=clang-tidy [tsa]=clang++
  [lint]=python3 [capi]=cc [obs]=python3 [perfbench]=python3
  [benchdiff]=python3
)
declare -A RESULT
failed=0

# C ABI end-to-end: C99-compile the embedder example, run it against
# libgeoalign_c.so out of the plain build, diff against the CLI. Runs
# out of the plain build tree, so order it after the plain gate.
capi_gate() {
  cmake --build "$BUILD_DIR" -j "$JOBS" --target geoalign_c geoalign_cli &&
    tests/capi_smoke_test.sh . "$BUILD_DIR"
}

# Observability end-to-end: tiny synthetic crosswalk through the CLI,
# then both telemetry artifacts must parse. Runs out of the plain
# build tree, so order it after the plain gate.
obs_gate() {
  local dir
  dir=$(mktemp -d) || return 1
  cat >"$dir/objective.csv" <<'EOF'
unit,value
s1,10
s2,20
s3,30
EOF
  cat >"$dir/ref.csv" <<'EOF'
source,target,value
s1,t1,1
s1,t2,2
s2,t1,3
s2,t2,1
s3,t2,4
EOF
  # GEOALIGN_TELEMETRY=0 proves the implicit enable: asking for a
  # telemetry artifact must flip the switch on unless an explicit
  # --telemetry pins it.
  env GEOALIGN_TELEMETRY=0 "$BUILD_DIR/tools/geoalign_cli" \
    --objective "$dir/objective.csv" --ref "population=$dir/ref.csv" \
    --metrics-out="$dir/metrics.json" --trace-out="$dir/trace.json" \
    --out "$dir/out.csv" || { rm -rf "$dir"; return 1; }
  python3 - "$dir/metrics.json" "$dir/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    metrics = json.load(f)
assert "counters" in metrics and "histograms" in metrics, metrics.keys()
assert metrics["counters"].get("compile.count", 0) >= 1, (
    "implicit telemetry enable failed: " + repr(metrics["counters"]))
with open(sys.argv[2]) as f:
    trace = json.load(f)
assert isinstance(trace.get("traceEvents"), list), type(trace)
# Each span name feeds <name>.latency_us with one sample per close. The
# run stays far below the 8192-span ring, so no span was dropped.
spans = {}
for event in trace["traceEvents"]:
    spans[event["name"]] = spans.get(event["name"], 0) + 1
assert spans, "no spans in the trace"
# The CLI reads its objective and crosswalk CSVs through io::ParseCsv.
assert spans.get("io.parse_csv", 0) >= 2, sorted(spans)
for name, count in sorted(spans.items()):
    hist = metrics["histograms"].get(name + ".latency_us")
    assert hist is not None and hist["count"] == count, (name, count, hist)
print("obs gate: metrics + trace both parse; "
      f"{len(trace['traceEvents'])} trace event(s) over {len(spans)} "
      "span name(s), each matched by its latency histogram")
EOF
  local rc=$?
  [[ $rc -ne 0 ]] && { rm -rf "$dir"; return "$rc"; }
  # Second pass: the Prometheus exposition and the flight recorder,
  # under a request id whose `"` and `\` the dump must escape.
  local request_id='ci"obs\gate'
  "$BUILD_DIR/tools/geoalign_cli" \
    --objective "$dir/objective.csv" --ref "population=$dir/ref.csv" \
    --metrics-out="$dir/metrics.prom" --metrics-format=prom \
    --flight-recorder-out="$dir/flight.jsonl" --request-id="$request_id" \
    --out "$dir/out2.csv" || { rm -rf "$dir"; return 1; }
  python3 - "$dir/metrics.prom" "$dir/flight.jsonl" "$request_id" <<'EOF'
import json, re, sys
with open(sys.argv[1]) as f:
    prom = f.read()
assert prom.startswith("# HELP "), prom[:60]
# Histograms are identified by their +Inf bucket line; each one's
# _count sample must carry the same number. (A plain _count suffix is
# ambiguous: the counter "compile.count" also sanitizes to
# geoalign_compile_count.)
infs = dict(re.findall(r'^(\w+)_bucket\{le="\+Inf"\} (\d+)$', prom, re.M))
assert infs, "no histograms in the prom exposition"
for name, inf in infs.items():
    m = re.search(r"^%s_count (\d+)$" % re.escape(name), prom, re.M)
    assert m is not None and m.group(1) == inf, (name, inf, m)
lines = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert lines and lines[0]["type"] == "header", lines[:1]
audits = [l for l in lines if l["type"] == "audit"]
assert audits and all(a["request_id"] == sys.argv[3] for a in audits), (
    sys.argv[3], audits)
print("obs gate: prom exposition consistent "
      f"({len(infs)} histogram(s)); flight recorder dump parses "
      f"({len(audits)} audit record(s))")
EOF
  rc=$?
  rm -rf "$dir"
  return "$rc"
}

# End-to-end benchmark smoke: perfbench builds its own copy of the
# library from src/ (perfbench/CMakeLists.txt), so only this gate
# notices a library change that breaks the benchmark program. The
# build lands inside the CI build tree instead of .bench_build.
perfbench_gate() {
  local target="$BUILD_DIR/perfbench"
  [[ "$target" == /* ]] || target="$PWD/$target"
  env CARGO_TARGET_DIR="$target" python3 perfbench/selftest.py
}

# Advisory benchmark diff: fresh obs_overhead and overlay_scale runs
# against their committed baselines. overlay_scale runs at scale 1,
# the baseline's scale: bench_compare.py reads a diff across scales as
# informational only. Pure reporting — run_advisory_gate never fails
# the build on a regression; regenerate a baseline when a change is
# intentional.
benchdiff_gate() {
  cmake --build "$BUILD_DIR" -j "$JOBS" --target obs_overhead \
    overlay_scale || return 1
  local fresh="$BUILD_DIR/BENCH_obs_overhead_fresh.json"
  local fresh_overlay="$BUILD_DIR/BENCH_overlay_construction_fresh.json"
  env GEOALIGN_BENCH_REPS=3 "$BUILD_DIR/bench/obs_overhead" "$fresh" &&
    python3 tools/bench_compare.py --threshold "${BENCHDIFF_THRESHOLD:-50}" \
      "$fresh" &&
    env GEOALIGN_BENCH_SCALE=1 GEOALIGN_BENCH_REPS=3 \
      "$BUILD_DIR/bench/overlay_scale" "$fresh_overlay" &&
    python3 tools/bench_compare.py --threshold "${BENCHDIFF_THRESHOLD:-50}" \
      "$fresh_overlay"
}

# Overlay engine smoke: the differential suite, the kernel tests and
# the box-grid tests out of the plain build (the engine and its
# reference share the triangle kernel and the grid's candidate query,
# so the kernel's and the grid's own tests carry their half of the
# bit contract), then the scale benchmark tiny —
# overlay_scale itself exits nonzero on a bit difference, so the
# bit-identity contract gates CI even at smoke scale.
overlay_gate() {
  cmake --build "$BUILD_DIR" -j "$JOBS" --target overlay_scale || return 1
  "$BUILD_DIR/tests/geoalign_tests" --gtest_brief=1 \
    --gtest_filter='OverlayEngineTest.*:ConvexClip.*:BooleanOps.*:PolygonPartition.*:RTree.*:*/RTreeRandomTest.*' &&
    env GEOALIGN_BENCH_SCALE=0.02 GEOALIGN_BENCH_REPS=2 \
      "$BUILD_DIR/bench/overlay_scale" \
      "$BUILD_DIR/BENCH_overlay_construction_smoke.json"
}

# SIMD bit-identity: the differential kernel harness plus the panel /
# plan equivalence oracles, once with dispatch forced to the scalar
# reference and once on the native ISA. Uses the plain build's test
# binary, so order it after the plain gate. GEOALIGN_FORCE_ISA is read
# once per process, hence two separate runs rather than one.
simd_gate() {
  # Leading * keeps the INSTANTIATE_TEST_SUITE_P prefix of the
  # per-ISA kernel suite (<Instantiation>/SimdKernelTest.*) in scope.
  local filter='*SimdKernelTest*:SimdDispatchTest*'
  filter+=':FusedPanelDifferentialTest*:PlanEquivalenceTest*'
  echo "--- forced scalar dispatch ---" &&
    env GEOALIGN_FORCE_ISA=scalar "$BUILD_DIR/tests/geoalign_tests" \
      --gtest_brief=1 --gtest_filter="$filter" &&
    echo "--- native dispatch ---" &&
    "$BUILD_DIR/tests/geoalign_tests" \
      --gtest_brief=1 --gtest_filter="$filter"
}

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" &&
    cmake --build "$dir" -j "$JOBS" &&
    ctest --test-dir "$dir" --output-on-failure --no-tests=error \
      -j "$JOBS" ${CTEST_FILTER:+-R "$CTEST_FILTER"}
}

# ASan + LSan leg: GEOALIGN_SANITIZE=address compiles with
# -fsanitize=address,undefined; detect_leaks=1 arms LeakSanitizer for
# every test in the run (a leaked plan/workspace in a steady-state
# serving path is a production outage, not a nit). ctest gives every
# test its own process, so the Obs* suites then run again in one:
# a global that a later test replaces (the flight recorder's cached
# metrics line) leaks only there. That step runs whatever ctest
# reported, so one failing test cannot hide a leak.
asan_gate() {
  local rc=0
  ASAN_OPTIONS="detect_leaks=1" \
    run_suite "$ASAN_DIR" -DGEOALIGN_SANITIZE=address || rc=1
  ASAN_OPTIONS="detect_leaks=1" "$ASAN_DIR/tests/geoalign_tests" \
    --gtest_brief=1 --gtest_filter='Obs*' || rc=1
  return "$rc"
}

# Compile-time concurrency contracts (docs/static_analysis.md): a
# clang build with GEOALIGN_THREAD_SAFETY=ON promotes every
# -Wthread-safety[-beta] diagnostic to an error tree-wide (WERROR
# default ON), then the negative fixtures prove the annotations still
# reject seeded locking bugs. Fails loudly without clang++, matching
# the tidy gate: a silently skipped gate reads as a passing one.
tsa_gate() {
  if ! command -v "$CLANGXX" >/dev/null 2>&1; then
    echo "tsa gate: '$CLANGXX' not found." >&2
    echo "Thread Safety Analysis is clang-only. Install clang (e.g." >&2
    echo "apt install clang) or point CLANGXX at a binary. Refusing" >&2
    echo "to pass silently; set SKIP_TSA=1 to skip this gate" >&2
    echo "explicitly." >&2
    return 3
  fi
  cmake -B "$TSA_DIR" -S . -DCMAKE_CXX_COMPILER="$CLANGXX" \
    -DGEOALIGN_THREAD_SAFETY=ON &&
    cmake --build "$TSA_DIR" -j "$JOBS" &&
    CLANGXX="$CLANGXX" tests/tsa_test.sh
}

# run_gate <name> <skip-flag-value> <command...>
run_gate() {
  local name="$1" skip="$2"
  shift 2
  echo
  echo "=== gate: $name ==="
  if [[ "$skip" == "1" ]]; then
    echo "skipped (SKIP_${name^^}=1)"
    RESULT[$name]="skipped"
    return
  fi
  if "$@"; then
    RESULT[$name]="pass"
  else
    RESULT[$name]="FAIL"
    failed=1
  fi
}

# run_advisory_gate <name> <skip-flag-value> <command...> — like
# run_gate, but a failure is recorded as ADVISORY-FAIL and never sets
# the overall exit code (used for noise-prone benchmark diffs).
run_advisory_gate() {
  local name="$1" skip="$2"
  shift 2
  echo
  echo "=== gate: $name (advisory) ==="
  if [[ "$skip" == "1" ]]; then
    echo "skipped (SKIP_${name^^}=1)"
    RESULT[$name]="skipped"
    return
  fi
  if "$@"; then
    RESULT[$name]="pass"
  else
    RESULT[$name]="ADVISORY-FAIL"
  fi
}

# Toolchain availability up front, so a machine that cannot run the
# clang-only gates learns it before an hour of sanitizer rebuilds.
tool_status() {
  if command -v "$1" >/dev/null 2>&1; then echo "found"; else echo "MISSING"; fi
}
CXX_BIN="${CXX:-c++}"
echo "=== toolchain availability ==="
printf '%-12s %-8s gates: %s\n' "$CXX_BIN" "$(tool_status "$CXX_BIN")" \
  "plain simd overlay tsan asan ubsan"
printf '%-12s %-8s gates: %s\n' "$CLANGXX" "$(tool_status "$CLANGXX")" "tsa"
printf '%-12s %-8s gates: %s\n' "${CLANG_TIDY:-clang-tidy}" \
  "$(tool_status "${CLANG_TIDY:-clang-tidy}")" "tidy"
printf '%-12s %-8s gates: %s\n' "python3" "$(tool_status python3)" \
  "lint obs perfbench benchdiff"
printf '%-12s %-8s gates: %s\n' "${CC:-cc}" "$(tool_status "${CC:-cc}")" "capi"

run_gate plain 0 run_suite "$BUILD_DIR"
run_gate simd "${SKIP_SIMD:-0}" simd_gate
run_gate overlay "${SKIP_OVERLAY:-0}" overlay_gate
run_gate tsan "${SKIP_TSAN:-0}" run_suite "$TSAN_DIR" -DGEOALIGN_SANITIZE=thread
run_gate asan "${SKIP_ASAN:-0}" asan_gate
run_gate ubsan "${SKIP_UBSAN:-0}" run_suite "$UBSAN_DIR" -DGEOALIGN_SANITIZE=undefined
run_gate tidy "${SKIP_TIDY:-0}" tools/run_clang_tidy.sh "$BUILD_DIR"
run_gate tsa "${SKIP_TSA:-0}" tsa_gate
run_gate lint "${SKIP_LINT:-0}" python3 tools/geoalign_lint.py --root .
run_gate capi "${SKIP_CAPI:-0}" capi_gate
run_gate obs "${SKIP_OBS:-0}" obs_gate
run_gate perfbench "${SKIP_PERFBENCH:-0}" perfbench_gate
run_advisory_gate benchdiff "${SKIP_BENCHDIFF:-0}" benchdiff_gate

echo
echo "=== gate summary (gate × toolchain) ==="
printf '%-8s %-11s %s\n' "gate" "toolchain" "result"
printf '%-8s %-11s %s\n' "----" "---------" "------"
for g in "${GATES[@]}"; do
  tool="${TOOL[$g]}"
  [[ "$tool" == "cxx" ]] && tool="$CXX_BIN"
  note=""
  if [[ "${RESULT[$g]}" == "FAIL" ]]; then
    case "$g" in
      tidy) command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1 ||
              note="  (clang-tidy missing — SKIP_TIDY=1 to skip)" ;;
      tsa)  command -v "$CLANGXX" >/dev/null 2>&1 ||
              note="  (clang++ missing — SKIP_TSA=1 to skip)" ;;
    esac
  fi
  printf '%-8s %-11s %s%s\n' "$g" "$tool" "${RESULT[$g]}" "$note"
done
exit "$failed"
