#!/usr/bin/env bash
# ctest gate for tools/geoalign_lint.py (registered in
# tests/CMakeLists.txt as `geoalign_lint_test`):
#   1. each bad fixture under tests/lint_fixtures/ must be flagged with
#      the expected rule and a nonzero exit;
#   2. the clean fixture must pass;
#   3. the real src/ tree must be lint-clean.
# Usage: lint_test.sh <repo_root>
set -u

ROOT="${1:?usage: lint_test.sh <repo_root>}"
LINT="$ROOT/tools/geoalign_lint.py"
FIXTURES="$ROOT/tests/lint_fixtures"
failures=0

expect_violation() {
  local file="$1" rule="$2" out rc
  out=$(python3 "$LINT" --root "$FIXTURES" "$FIXTURES/$file" 2>&1)
  rc=$?
  if [[ $rc -ne 1 ]]; then
    echo "FAIL: $file: expected exit 1, got $rc"; failures=$((failures+1))
  elif ! grep -q "\[$rule\]" <<<"$out"; then
    echo "FAIL: $file: expected rule $rule in output:"; echo "$out"
    failures=$((failures+1))
  else
    echo "ok: $file flagged by $rule"
  fi
}

expect_clean() {
  local desc="$1"; shift
  local out rc
  out=$(python3 "$LINT" "$@" 2>&1)
  rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL: $desc: expected exit 0, got $rc:"; echo "$out"
    failures=$((failures+1))
  else
    echo "ok: $desc clean"
  fi
}

expect_violation src/sparse/bad_unordered_iteration.cc geoalign-unordered-iteration
expect_violation src/core/bad_float_eq.cc geoalign-float-eq
expect_violation src/io/bad_no_throw.cc geoalign-no-throw
expect_violation src/core/bad_discarded_status.cc geoalign-discarded-status
expect_violation src/eval/bad_plan_bypass.cc geoalign-plan-bypass
expect_violation src/core/bad_raw_clock.cc geoalign-raw-clock
expect_violation src/sparse/bad_hot_alloc.cc geoalign-hot-alloc
expect_violation src/partition/bad_overlay_hot_alloc.cc geoalign-hot-alloc
expect_violation src/core/bad_raw_intrinsic.cc geoalign-raw-intrinsic
expect_violation src/core/bad_raw_mutex.cc geoalign-raw-mutex
expect_violation src/core/bad_metrics_export.cc geoalign-metrics-export
expect_violation src/sparse/bad_kernel_pool.cc geoalign-kernel-pool
expect_violation src/core/bad_raw_dm_hash.cc geoalign-raw-dm-hash
expect_violation capi/bad_cpp_leak.h geoalign-capi-abi
expect_clean "clean fixture" --root "$FIXTURES" "$FIXTURES/src/common/clean.cc"
expect_clean "real src/ tree" --root "$ROOT"

if [[ $failures -ne 0 ]]; then
  echo "$failures lint gate check(s) failed"
  exit 1
fi
echo "lint gate: all checks passed"
