#ifndef GEOALIGN_CORE_GEOALIGN_OPTIONS_H_
#define GEOALIGN_CORE_GEOALIGN_OPTIONS_H_

#include <cstddef>

#include "linalg/simplex_ls.h"

namespace geoalign::sparse {
class CsrMatrix;
}  // namespace geoalign::sparse

namespace geoalign::core {

/// How reference scales are handled inside Eq. 14.
enum class ScaleMode {
  /// DM_rk and a^s_rk are both divided by max_i a^s_rk[i] before the
  /// weighted combination — the scale-free reading of the paper's
  /// "adapt it to the scale of reference attributes" remark. Volume
  /// preservation holds exactly. Default.
  kNormalized,
  /// Weights are applied to the raw matrices/vectors (ablation only;
  /// mixes reference magnitudes).
  kRaw,
};

/// Which solver learns the weights β (Eq. 15). Alternatives exist for
/// the ablation study; the paper's formulation is kSimplex.
enum class WeightSolver {
  /// min ||Aβ - b||², Σβ = 1, β >= 0 (paper Eq. 15).
  kSimplex,
  /// Lawson–Hanson NNLS, then rescale to Σβ = 1.
  kNnlsNormalized,
  /// Unconstrained least squares, negatives clamped to 0, rescaled.
  kClampedLs,
  /// β uniform over all references (no learning).
  kUniform,
};

/// Where Eq. 14's per-row denominator Σ_k β_k a'^s_rk[i] comes from.
enum class DenominatorMode {
  /// Row sums of the weighted reference DMs. Identical to the
  /// aggregate vectors when the input is consistent, but keeps volume
  /// preservation (Eq. 16) exact even when the reported aggregates are
  /// noisy — the regime of the paper's §4.4.1 robustness study, whose
  /// near-1 deviation ratios are only reproducible this way. Default.
  kFromDmRowSums,
  /// The literal Eq. 14 denominator: the references' reported source
  /// aggregate vectors. Under inconsistent (noisy) aggregates each
  /// row's mass is scaled by the aggregate error. Ablation only.
  kFromAggregates,
};

/// Behaviour for source rows whose weighted reference mass is zero
/// (Eq. 14's "otherwise" branch).
enum class ZeroRowFallback {
  /// Emit an all-zero row (the paper's choice). The objective mass of
  /// that source unit is lost — volume preservation holds only on
  /// rows with reference support.
  kZero,
  /// Distribute the row by the supplied fallback DM (typically area),
  /// keeping the method volume preserving everywhere.
  kFallbackDm,
};

/// What a plan execute must produce. An execute-time parameter of
/// `CrosswalkPlan::Execute`/`ExecuteMany` (not a
/// compile-time option, so it never affects plan-cache keys): the same
/// compiled plan serves both shapes.
enum class ExecuteOutput {
  /// Materialize the estimated DM̂_o (Eq. 14) and re-aggregate it —
  /// `CrosswalkResult::estimated_dm` is populated. Default; the only
  /// choice for callers that inspect the DM.
  kFullDm,
  /// Fused Eq. 14+17: scatter straight into the target accumulator
  /// without ever allocating DM̂_o. `estimated_dm` comes back empty
  /// (0×0); `target_estimates`, `weights`, `zero_rows`, and every
  /// error path are bit-/behavior-identical to kFullDm.
  kAggregatesOnly,
};

/// Options controlling the GeoAlign interpolator.
struct GeoAlignOptions {
  ScaleMode scale_mode = ScaleMode::kNormalized;
  WeightSolver solver = WeightSolver::kSimplex;
  DenominatorMode denominator = DenominatorMode::kFromDmRowSums;
  ZeroRowFallback zero_row_fallback = ZeroRowFallback::kZero;
  /// Row denominators with |d| <= zero_tolerance take the fallback.
  double zero_tolerance = 0.0;
  /// Required when zero_row_fallback == kFallbackDm: a consistent DM
  /// (e.g. the measure/area DM) used for unsupported rows. Not owned;
  /// must outlive the interpolator. (CrosswalkPlan::Compile snapshots
  /// the pointee, so a compiled plan does NOT require the original to
  /// stay alive.)
  const sparse::CsrMatrix* fallback_dm = nullptr;
  /// Worker threads for `BatchCrosswalk::Run`'s fan-out across
  /// objective columns: 0 = one per hardware thread, 1 = run the
  /// columns in order on the calling thread. Every single-column
  /// execute runs on one thread, so outputs are bit-identical for
  /// every value (docs/parallelism.md).
  size_t threads = 0;
  /// Options forwarded to the simplex solver.
  linalg::SimplexLsOptions solver_options;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_GEOALIGN_OPTIONS_H_
