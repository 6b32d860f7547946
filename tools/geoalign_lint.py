#!/usr/bin/env python3
"""Project-specific correctness lints for the GeoAlign tree.

Machine-checks the three contracts the compiler cannot (fully) see,
documented in docs/static_analysis.md:

  geoalign-unordered-iteration
      No iteration over std::unordered_map / std::unordered_set inside
      the kernel subsystems (src/sparse, src/core, src/linalg).
      Unordered iteration order varies across standard libraries and
      hash seeds, so a reduction that walks one inside Eq. 14/17 would
      silently break the bit-identical-across-thread-counts guarantee.
      Lookups and inserts are fine; walking the container is not.

  geoalign-float-eq
      No raw == / != against floating-point literals in library code.
      Deliberate exact comparisons (sparsity checks, the "otherwise 0"
      branch of Eq. 14) must go through ExactlyZero / ExactlyEqual in
      src/common/float_eq.h so the intent is named and auditable.

  geoalign-no-throw
      No `throw` in library code: fallible functions return Status /
      Result<T> (src/common/status.h); programming errors abort via
      GEOALIGN_CHECK. Exceptions would bypass both contracts.

  geoalign-discarded-status
      No statement-level call to a Status / Result-returning function
      whose value is discarded. Mirrors the [[nodiscard]] attribute for
      build configurations that demote warnings, and catches discards
      hidden from the compiler (e.g. behind (void)).

  geoalign-plan-bypass
      No calls to the legacy recompile-per-call crosswalk entry points
      (`*.Crosswalk(...)` / `CrosswalkUncompiled(...)`) inside the
      serving hot paths (src/core/pipeline.*, src/core/batch.*,
      src/eval/). Since the compile/execute split these paths must go
      through a compiled CrosswalkPlan (optionally via PlanCache) so
      objective-independent work is hoisted once; a per-call Crosswalk
      silently recompiles everything per objective. Legitimate uses —
      baseline interpolators without a plan form, freshly perturbed
      references — carry a NOLINT with a rationale.

  geoalign-raw-clock
      No raw `std::chrono::*_clock::now()` in library code (src/)
      outside src/obs/. Time reads must go through the obs timing
      primitives (obs::NowTicks, obs::Stopwatch, GEOALIGN_TRACE_SPAN)
      so the whole tree shares one steady_clock policy and timing
      shows up in the telemetry exports instead of in ad-hoc locals.
      See docs/observability.md.

  geoalign-hot-alloc
      No heap allocation inside a marked hot loop in src/sparse/,
      src/partition/, or src/geom/: between `GEOALIGN_HOT_LOOP_BEGIN`
      and `GEOALIGN_HOT_LOOP_END` comment markers, `std::vector`
      construction, growth calls (push_back / emplace_back / resize /
      reserve / insert / assign / clear-and-regrow patterns), and bare
      `new` are flagged. The fused execute kernel
      (sparse/fused_execute.cc) and the geometric overlay engine
      (partition/overlay.cc + the geom clipping path under it) promise
      zero hot-path heap allocations — every buffer comes preallocated
      from a workspace Prepare — and this rule machine-checks that
      promise. A growth call whose capacity is provably reserved
      carries a NOLINT with the rationale.

  geoalign-raw-intrinsic
      No raw SIMD intrinsics in library code (src/) outside
      src/sparse/simd/: `#include <immintrin.h>` / `<arm_neon.h>` /
      `<x86intrin.h>`, `_mm`-prefixed x86 intrinsics, `__m128/256/512`
      vector types, and NEON `v*q_f64` / `float64x2_t` spellings are
      flagged. The bit-identity contract (docs/parallelism.md) is
      audited kernel-by-kernel inside src/sparse/simd/ — every
      vectorized instruction sequence there is paired with a scalar
      reference and covered by tests/simd_kernel_test.cc. An intrinsic
      anywhere else would dodge that audit and the differential
      harness; route vector work through the PanelKernels table
      (sparse/simd/panel_kernels.h) instead.

  geoalign-raw-mutex
      No raw std locking primitives in library code (src/) outside
      src/common/thread_annotations.h: `std::mutex` (and the timed/
      recursive/shared variants), `std::lock_guard` / `unique_lock` /
      `scoped_lock` / `shared_lock`, `std::condition_variable[_any]`,
      and the `<mutex>` / `<condition_variable>` / `<shared_mutex>`
      includes are flagged. Locked state must use the annotated
      common::Mutex / common::MutexLock / common::CondVar wrappers so
      every guarded-by relationship is visible to Clang Thread Safety
      Analysis (-Wthread-safety, the `tsa` gate); a raw std::mutex is
      invisible to the analysis and silently exempts its critical
      sections from the compile-time locking contracts.

  geoalign-metrics-export
      No direct MetricsSnapshot serialization (`.ToText(...)` /
      `.ToJson(...)`) in library or C ABI code outside src/obs/. Every
      exposition of the metrics registry — CLI, C ABI, flight recorder,
      a future /metrics endpoint — goes through the one writer in
      src/obs/export.h (FormatMetricsSnapshot / WriteMetricsFile), so
      formats stay byte-identical across surfaces and new formats land
      everywhere at once. See docs/observability.md.

  geoalign-kernel-pool
      No `ParallelFor` under src/sparse/ or src/linalg/. A kernel that
      serves one column runs on the calling thread and sums in
      ascending row order; common::ParallelFor fans out independent
      tasks (columns, panels, name resolution, overlay pair chunks)
      above the kernels. A fan-out inside a kernel would add a second
      level of parallelism and tie a column's addition order to its
      chunking (docs/parallelism.md).

  geoalign-raw-dm-hash
      No ContentHash `MixSizes` / `MixDoubles` call over a matrix's
      `row_ptr()`, `col_idx()` or `values()` in src/ or capi/ outside
      src/sparse/csr_matrix.cc. A DM enters a plan fingerprint or a
      PlanCache key only through CsrMatrix::Digest, which a built block
      stores after its first call; mixing the arrays directly re-hashes
      bytes already digested on every key, and lets the owning, view
      and C ABI paths drift apart.

  geoalign-capi-abi
      The public C ABI headers (capi/*.h) must stay C99-clean: no
      C++-only keywords (class/template/namespace/constexpr/nullptr/
      throw/new/delete/bool), no `std::` or other `::` qualification,
      no reference declarators (`&`), no extensionless C++ standard
      includes, and no `=` outside preprocessor lines (the error codes
      are #defines, not enums with initializers, so a plain C compiler
      and every FFI binding generator parse the header byte-for-byte
      the same way). See docs/embedding.md; enforced end-to-end by the
      `capi` gate, which compiles examples/capi_smoke.c with a real C
      compiler under -std=c99 -Wall -Werror.

Suppression: append `// NOLINT(geoalign-<rule>)` (or bare `NOLINT`) to
the offending line, or put `// NOLINTNEXTLINE(geoalign-<rule>)` on the
line above. Suppressions should carry a rationale.

Usage:
  geoalign_lint.py [--root DIR] [FILE...]
With no FILE arguments, scans DIR/src recursively (.h and .cc). Exits
0 when clean, 1 when violations were found, 2 on usage errors.
"""

import argparse
import os
import re
import sys

RULES = (
    "geoalign-unordered-iteration",
    "geoalign-float-eq",
    "geoalign-no-throw",
    "geoalign-discarded-status",
    "geoalign-plan-bypass",
    "geoalign-raw-clock",
    "geoalign-hot-alloc",
    "geoalign-raw-intrinsic",
    "geoalign-raw-mutex",
    "geoalign-metrics-export",
    "geoalign-kernel-pool",
    "geoalign-raw-dm-hash",
    "geoalign-capi-abi",
)

# The one file allowed to spell the raw std locking primitives: the
# annotated wrapper layer itself (docs/static_analysis.md).
RAW_MUTEX_EXEMPT = "src/common/thread_annotations.h"

# Subsystems whose kernels feed the deterministic reductions.
KERNEL_DIRS = ("src/sparse", "src/core", "src/linalg")

# Serving hot paths that must execute compiled CrosswalkPlans rather
# than the legacy recompile-per-call entry points. Path *prefixes*:
# "src/core/pipeline." covers pipeline.h and pipeline.cc.
HOT_PATH_PREFIXES = ("src/core/pipeline.", "src/core/batch.", "src/eval/")

FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?"
FLOAT_EQ_RE = re.compile(
    r"(?:(?:%s)\s*(?:==|!=))|(?:(?:==|!=)\s*[-+]?(?:%s))"
    % (FLOAT_LITERAL, FLOAT_LITERAL)
)
THROW_RE = re.compile(r"\bthrow\b")
# Member call to any interpolator's Crosswalk, or the preserved legacy
# free function. Plan execution (Execute/ExecuteMany) never matches.
PLAN_BYPASS_RE = re.compile(
    r"(?:\.|->)\s*Crosswalk\s*\(|\bCrosswalkUncompiled\s*\(")
# Raw clock reads outside src/obs/. Matches the fully and partially
# qualified spellings (`std::chrono::steady_clock::now(`,
# `chrono::steady_clock::now(`, `steady_clock::now(`).
RAW_CLOCK_RE = re.compile(
    r"(?:std\s*::\s*)?(?:chrono\s*::\s*)?"
    r"(?:steady|system|high_resolution)_clock\s*::\s*now\s*\(")
# Heap activity inside a GEOALIGN_HOT_LOOP region: a std::vector
# construction (reference/pointer bindings to an existing vector are
# fine — no [&*] after the template args), a growth/realloc member
# call, or a bare `new`.
HOT_ALLOC_RE = re.compile(
    r"\bstd\s*::\s*vector\s*<[^;{}]*?>\s*(?!\s*[&*])[A-Za-z_(]"
    r"|(?:\.|->)\s*(?:push_back|emplace_back|resize|reserve|insert|assign)"
    r"\s*\("
    r"|\bnew\b")
# Raw SIMD spellings outside src/sparse/simd/: the vendor headers, any
# `_mm`/`_mm256`/`_mm512`-prefixed x86 intrinsic call, the x86 vector
# types, and the NEON q-form f64 intrinsics / vector type. Matching is
# by spelling, not semantics — the goal is to keep every vector
# instruction sequence inside the audited kernel directory.
# Raw std locking primitives outside the annotated wrapper header:
# the lockable types, the RAII lock adapters, the condition variables,
# and the headers that provide them. Spelling-level on purpose — any
# mention in code is a bypass of the annotated layer.
RAW_MUTEX_RE = re.compile(
    r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
    r"|\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex"
    r"|recursive_timed_mutex|shared_mutex|shared_timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?)\b")
# Direct MetricsSnapshot serialization outside the one exposition
# writer (src/obs/export.h). Member-call spelling only: the writer
# itself (and tests) may call the snapshot methods; everything else
# must go through FormatMetricsSnapshot / WriteMetricsFile.
METRICS_EXPORT_RE = re.compile(r"(?:\.|->)\s*To(?:Text|Json)\s*\(")
# A content-hash mix over a CSR matrix's arrays (member-call spelling:
# `.row_ptr()`, `->values()`, ...) anywhere in the call's argument list,
# which may span lines. The one file allowed to hash them is the
# matrix's own Digest.
RAW_DM_HASH_EXEMPT = "src/sparse/csr_matrix.cc"
RAW_DM_HASH_RE = re.compile(
    r"\bMix(?:Sizes|Doubles)\s*\([^;]*?(?:\.|->)\s*"
    r"(?:row_ptr|col_idx|values)\s*\(\s*\)")
# A task fan-out in the single-column kernel directories.
KERNEL_POOL_DIRS = ("src/sparse/", "src/linalg/")
KERNEL_POOL_RE = re.compile(r"\bParallelFor\b")
RAW_INTRINSIC_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|arm_neon)\.h>"
    r"|\b_mm(?:256|512)?_[a-z0-9_]+\s*\("
    r"|\b__m(?:128|256|512)[di]?\b"
    r"|\bfloat64x2_t\b"
    r"|\bv[a-z][a-z0-9_]*q_(?:f64|u64)\b")
# C++ leakage into the C ABI headers (capi/*.h). Spelling-level: any
# C++-only keyword, any `::` qualification, a reference declarator, or
# an extensionless (C++ standard library) include makes the header
# unparseable or subtly different under a plain C compiler.
CAPI_CXX_TOKEN_RE = re.compile(
    r"\b(?:class|template|namespace|typename|constexpr|nullptr|throw"
    r"|new|delete|bool|using|virtual|operator|static_cast|const_cast"
    r"|reinterpret_cast|dynamic_cast)\b"
    r"|::"
    r"|&")
CAPI_INCLUDE_RE = re.compile(r"#\s*include\s*[<\"]([^>\"]+)[>\"]")
# A bare assignment/initializer outside the preprocessor: `=` that is
# not part of ==, !=, <=, >=.
CAPI_ASSIGN_RE = re.compile(r"(?<![=!<>])=(?!=)")
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s*(?:const\s*)?[&*]?\s*([A-Za-z_]\w*)"
)
FALLIBLE_DECL_RE = re.compile(
    r"\b(?:Status|Result\s*<[^;{}()=]*>)\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)
# A call that *begins* a statement: preceded by ; { } or ) (the latter
# covers `if (...) Foo();`), optionally behind a (void) cast. Member
# calls (x.Foo(), x->Foo()) are deliberately excluded — a name-level
# lint cannot resolve which overload a member call hits (e.g. the void
# CooBuilder::Add vs the fallible sparse::Add); discarded member-call
# results are enforced by [[nodiscard]] at compile time instead.
BARE_CALL_RE = re.compile(
    r"(?<=[;{})])\s*(?:\(void\)\s*)?"
    r"(?<![.\w>])(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)
KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "else", "case", "new", "delete", "static_cast", "const_cast",
    "reinterpret_cast", "assert",
}


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving the
    line structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
            elif c in "\"'":
                mode = c
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # inside a string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == mode:
                mode = None
                out.append(c)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def suppressed(raw_lines, lineno, rule):
    """True if `rule` is NOLINT'ed on this line or via NOLINTNEXTLINE."""
    def matches(text, directive):
        m = re.search(directive + r"(?:\(([^)]*)\))?", text)
        if not m:
            return False
        return m.group(1) is None or rule in m.group(1)

    line = raw_lines[lineno - 1]
    if matches(line, r"\bNOLINT\b") and "NOLINTNEXTLINE" not in line:
        return True
    if lineno >= 2 and matches(raw_lines[lineno - 2], r"\bNOLINTNEXTLINE\b"):
        return True
    return False


def line_of(offset, text):
    return text.count("\n", 0, offset) + 1


class Linter:
    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.violations = []
        self.fallible = set()

    def rel(self, path):
        return os.path.relpath(os.path.abspath(path), self.root)

    def report(self, path, lineno, rule, message, raw_lines):
        if not suppressed(raw_lines, lineno, rule):
            self.violations.append(
                "%s:%d: [%s] %s" % (self.rel(path), lineno, rule, message))

    def collect_fallible(self, files):
        """First pass: names of functions returning Status / Result."""
        for path in files:
            try:
                stripped = strip_comments_and_strings(read_text(path))
            except OSError:
                continue
            for m in FALLIBLE_DECL_RE.finditer(stripped):
                self.fallible.add(m.group(1))
        # Status factory helpers are fallible "constructors", not calls
        # whose result encodes an operation's outcome; a bare
        # `Status::Internal("x");` is pointless but harmless.
        self.fallible.discard("OK")

    def lint_file(self, path):
        raw = read_text(path)
        raw_lines = raw.split("\n")
        stripped = strip_comments_and_strings(raw)
        rel = self.rel(path).replace(os.sep, "/")
        in_tests = rel.startswith("tests/")
        in_kernels = any(
            rel.startswith(d + "/") for d in KERNEL_DIRS)

        in_hot_paths = any(rel.startswith(p) for p in HOT_PATH_PREFIXES)

        if not in_tests:
            self.check_float_eq(path, stripped, raw_lines)
            self.check_no_throw(path, stripped, raw_lines)
            self.check_discarded_status(path, stripped, raw_lines)
        if in_kernels:
            self.check_unordered_iteration(path, stripped, raw_lines)
        if in_hot_paths and not in_tests:
            self.check_plan_bypass(path, stripped, raw_lines)
        if rel.startswith("src/") and not rel.startswith("src/obs/"):
            self.check_raw_clock(path, stripped, raw_lines)
        if rel.startswith(("src/sparse/", "src/partition/", "src/geom/")):
            self.check_hot_alloc(path, stripped, raw_lines)
        if rel.startswith("src/") and not rel.startswith("src/sparse/simd/"):
            self.check_raw_intrinsic(path, stripped, raw_lines)
        if rel.startswith("src/") and rel != RAW_MUTEX_EXEMPT:
            self.check_raw_mutex(path, stripped, raw_lines)
        if ((rel.startswith("src/") and not rel.startswith("src/obs/"))
                or rel.startswith("capi/")):
            self.check_metrics_export(path, stripped, raw_lines)
        if rel.startswith(KERNEL_POOL_DIRS):
            self.check_kernel_pool(path, stripped, raw_lines)
        if (rel.startswith(("src/", "capi/"))
                and rel != RAW_DM_HASH_EXEMPT):
            self.check_raw_dm_hash(path, stripped, raw_lines)
        if rel.startswith("capi/") and rel.endswith(".h"):
            self.check_capi_abi(path, stripped, raw_lines)

    def check_float_eq(self, path, stripped, raw_lines):
        for m in FLOAT_EQ_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-float-eq",
                "raw ==/!= against a floating-point literal; use "
                "ExactlyZero/ExactlyEqual (common/float_eq.h) or a "
                "tolerance", raw_lines)

    def check_no_throw(self, path, stripped, raw_lines):
        for m in THROW_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-no-throw",
                "`throw` in library code; return Status/Result "
                "(common/status.h) or abort via GEOALIGN_CHECK",
                raw_lines)

    def check_plan_bypass(self, path, stripped, raw_lines):
        for m in PLAN_BYPASS_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-plan-bypass",
                "legacy recompile-per-call crosswalk entry point in a "
                "serving hot path; compile a CrosswalkPlan (or use "
                "PlanCache) and Execute it, or NOLINT with a rationale",
                raw_lines)

    def check_raw_clock(self, path, stripped, raw_lines):
        for m in RAW_CLOCK_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-raw-clock",
                "raw std::chrono clock read outside src/obs/; use the "
                "obs timing primitives (obs::Stopwatch, obs::NowTicks, "
                "GEOALIGN_TRACE_SPAN) so one steady_clock policy holds "
                "tree-wide", raw_lines)

    def check_hot_alloc(self, path, stripped, raw_lines):
        # The region markers live in comments, so they are found in the
        # RAW lines (strip_comments_and_strings blanks them); the
        # violations are matched in the stripped text.
        stripped_lines = strip_comments_and_strings(
            "\n".join(raw_lines)).split("\n")
        in_hot = False
        for idx, raw in enumerate(raw_lines, start=1):
            if "GEOALIGN_HOT_LOOP_BEGIN" in raw:
                in_hot = True
                continue
            if "GEOALIGN_HOT_LOOP_END" in raw:
                in_hot = False
                continue
            if not in_hot or idx > len(stripped_lines):
                continue
            for m in HOT_ALLOC_RE.finditer(stripped_lines[idx - 1]):
                self.report(
                    path, idx, "geoalign-hot-alloc",
                    "heap allocation ('%s') inside a GEOALIGN_HOT_LOOP "
                    "region; preallocate in the workspace Prepare, or "
                    "NOLINT with a rationale that capacity is reserved"
                    % m.group(0).strip(), raw_lines)

    def check_raw_intrinsic(self, path, stripped, raw_lines):
        for m in RAW_INTRINSIC_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped),
                "geoalign-raw-intrinsic",
                "raw SIMD intrinsic ('%s') outside src/sparse/simd/; "
                "vector code lives in the audited kernel directory — "
                "use the PanelKernels table "
                "(sparse/simd/panel_kernels.h) so the differential "
                "harness covers it" % m.group(0).strip(), raw_lines)

    def check_raw_mutex(self, path, stripped, raw_lines):
        for m in RAW_MUTEX_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-raw-mutex",
                "raw std locking primitive ('%s') outside "
                "common/thread_annotations.h; use the annotated "
                "common::Mutex / common::MutexLock / common::CondVar "
                "wrappers so -Wthread-safety sees the lock"
                % m.group(0).strip(), raw_lines)

    def check_metrics_export(self, path, stripped, raw_lines):
        for m in METRICS_EXPORT_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped),
                "geoalign-metrics-export",
                "direct metrics serialization ('%s') outside src/obs/; "
                "route it through the one exposition writer "
                "(obs::FormatMetricsSnapshot / obs::WriteMetricsFile in "
                "obs/export.h) so every surface stays byte-identical"
                % m.group(0).strip(), raw_lines)

    def check_kernel_pool(self, path, stripped, raw_lines):
        for m in KERNEL_POOL_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-kernel-pool",
                "ParallelFor in a single-column kernel directory; a kernel "
                "runs on the calling thread and sums in row order — fan "
                "out independent tasks above it instead", raw_lines)

    def check_raw_dm_hash(self, path, stripped, raw_lines):
        for m in RAW_DM_HASH_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-raw-dm-hash",
                "content hash over a matrix's CSR arrays outside "
                "sparse/csr_matrix.cc; mix the matrix's "
                "CsrMatrix::Digest() instead, so a built DM is hashed "
                "once", raw_lines)

    def check_capi_abi(self, path, stripped, raw_lines):
        for m in CAPI_CXX_TOKEN_RE.finditer(stripped):
            self.report(
                path, line_of(m.start(), stripped), "geoalign-capi-abi",
                "C++ construct ('%s') in a C ABI header; capi/*.h must "
                "compile under a plain C99 compiler (docs/embedding.md)"
                % m.group(0).strip(), raw_lines)
        for m in CAPI_INCLUDE_RE.finditer(stripped):
            if not m.group(1).endswith(".h"):
                self.report(
                    path, line_of(m.start(), stripped),
                    "geoalign-capi-abi",
                    "C++ standard include ('%s') in a C ABI header; "
                    "only C headers (<stddef.h>, <stdint.h>, ...) are "
                    "allowed" % m.group(1), raw_lines)
        for idx, line in enumerate(stripped.split("\n"), start=1):
            if line.lstrip().startswith("#"):
                continue
            for m in CAPI_ASSIGN_RE.finditer(line):
                self.report(
                    path, idx, "geoalign-capi-abi",
                    "initializer/assignment outside the preprocessor in "
                    "a C ABI header; constants are #defines so C and "
                    "binding generators parse identically", raw_lines)

    def check_unordered_iteration(self, path, stripped, raw_lines):
        names = set(UNORDERED_DECL_RE.findall(stripped))
        if not names:
            return
        pattern = re.compile(
            r"for\s*\([^;()]*:\s*(%(n)s)\s*\)"
            r"|(?<![\w.])(%(n)s)\s*\.\s*(?:begin|cbegin|rbegin)\s*\("
            % {"n": "|".join(re.escape(n) for n in sorted(names))})
        for m in pattern.finditer(stripped):
            name = m.group(1) or m.group(2)
            self.report(
                path, line_of(m.start(), stripped),
                "geoalign-unordered-iteration",
                "iteration over unordered container '%s' in a kernel "
                "subsystem; order is nondeterministic — use a sorted "
                "container or iterate indices" % name, raw_lines)

    def check_discarded_status(self, path, stripped, raw_lines):
        for m in BARE_CALL_RE.finditer(stripped):
            name = m.group(1)
            if name in KEYWORDS or name not in self.fallible:
                continue
            # Find the matching ')' of the call; a discard is a call
            # followed directly by ';'.
            depth = 0
            i = m.end() - 1
            while i < len(stripped):
                if stripped[i] == "(":
                    depth += 1
                elif stripped[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            tail = stripped[i + 1:i + 32].lstrip()
            if tail.startswith(";"):
                self.report(
                    path, line_of(m.start(1), stripped),
                    "geoalign-discarded-status",
                    "result of Status/Result-returning '%s' is "
                    "discarded; check, propagate with "
                    "GEOALIGN_RETURN_IF_ERROR, or CheckOK" % name,
                    raw_lines)


def read_text(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


def default_files(root):
    files = []
    for sub in ("src", "capi"):
        top = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(top):
            for fn in sorted(filenames):
                if fn.endswith((".h", ".cc")):
                    files.append(os.path.join(dirpath, fn))
    return sorted(files)


def main(argv):
    parser = argparse.ArgumentParser(
        description="GeoAlign project-specific correctness lints")
    parser.add_argument(
        "--root", default=os.path.join(os.path.dirname(__file__), ".."),
        help="project root; rule scoping (src/, tests/, kernel dirs) is "
             "computed relative to it")
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule names")
    parser.add_argument("files", nargs="*", help="files to lint "
                        "(default: all .h/.cc under <root>/src)")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(RULES))
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print("geoalign_lint: no such root: %s" % root, file=sys.stderr)
        return 2
    files = [os.path.abspath(f) for f in args.files] or default_files(root)
    missing = [f for f in files if not os.path.isfile(f)]
    if missing:
        for f in missing:
            print("geoalign_lint: no such file: %s" % f, file=sys.stderr)
        return 2

    linter = Linter(root)
    # Fallible names come from the *project's* headers as well as the
    # files under lint, so call sites in a .cc see declarations from .h.
    linter.collect_fallible(sorted(set(default_files(root) + files)))
    for path in files:
        linter.lint_file(path)

    for v in linter.violations:
        print(v)
    if linter.violations:
        print("geoalign_lint: %d violation(s)" % len(linter.violations),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
