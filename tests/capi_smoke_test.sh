#!/usr/bin/env bash
# End-to-end proof that the C ABI is consumable from plain C99 and
# numerically indistinguishable from the C++ CLI (the `capi` gate in
# tools/ci.sh; also registered as a ctest):
#   1. compile examples/capi_smoke.c with a REAL C compiler under
#      -std=c99 -Wall -Werror (any C++ leak in capi/geoalign_c.h is a
#      hard compile failure here, complementing the geoalign-capi-abi
#      lint rule);
#   2. run it against libgeoalign_c.so;
#   3. run geoalign_cli --method geoalign --output aggregates on the
#      same crosswalk expressed as CSVs;
#   4. byte-diff the two outputs (%.12g CSV) — any drift fails.
# Usage: capi_smoke_test.sh <repo_root> <build_dir> [-fsanitize=<list>]
# The optional third argument is the sanitizer flag the build tree was
# compiled with (tests/CMakeLists.txt passes it in sanitizer trees);
# the embedder is compiled and linked with it, so a sanitized
# libgeoalign_c.so finds its runtime first in the library list.
set -uo pipefail

USAGE="usage: capi_smoke_test.sh <repo_root> <build_dir> [-fsanitize=<list>]"
ROOT="${1:?$USAGE}"
BUILD="${2:?$USAGE}"
SANITIZE="${3:-}"
CC_BIN="${CC:-cc}"

if ! command -v "$CC_BIN" >/dev/null 2>&1; then
  echo "capi smoke: C compiler '$CC_BIN' not found; set CC" >&2
  exit 3
fi

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

# 1. Pure-C compile. -I"$ROOT" resolves #include "capi/geoalign_c.h".
"$CC_BIN" -std=c99 -Wall -Wextra -Werror ${SANITIZE:+"$SANITIZE"} -I"$ROOT" \
  -o "$dir/capi_smoke" "$ROOT/examples/capi_smoke.c" \
  -L"$BUILD/capi" -lgeoalign_c || {
  echo "capi smoke: C99 compile of examples/capi_smoke.c failed" >&2
  exit 1
}

# 2. Run the embedder.
LD_LIBRARY_PATH="$BUILD/capi${LD_LIBRARY_PATH:+:$LD_LIBRARY_PATH}" \
  "$dir/capi_smoke" >"$dir/c_out.csv" || {
  echo "capi smoke: embedder run failed" >&2
  exit 1
}

# 3. The same crosswalk through the CLI (unit universes are the sorted
# unions, so s1..s3 / t1,t2 — matching the arrays in capi_smoke.c).
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
"$BUILD/tools/geoalign_cli" \
  --objective "$dir/objective.csv" --ref "population=$dir/ref.csv" \
  --method geoalign --output aggregates --out "$dir/cli_out.csv" || {
  echo "capi smoke: geoalign_cli run failed" >&2
  exit 1
}

# 4. Bit-for-bit text diff.
if ! diff -u "$dir/cli_out.csv" "$dir/c_out.csv"; then
  echo "capi smoke: C ABI output drifted from the C++ CLI" >&2
  exit 1
fi
echo "capi smoke: C99 embedder output byte-identical to geoalign_cli"
