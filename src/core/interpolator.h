#ifndef GEOALIGN_CORE_INTERPOLATOR_H_
#define GEOALIGN_CORE_INTERPOLATOR_H_

#include <string>

#include "core/crosswalk_input.h"

namespace geoalign::core {

/// Output of a crosswalk: the estimated target aggregates plus the
/// estimated disaggregation matrix that produced them (its column sums
/// are the estimates; its row sums reproduce the source aggregates for
/// volume-preserving methods).
struct CrosswalkResult {
  linalg::Vector target_estimates;   ///< â^t_o (paper Eq. 17)
  sparse::CsrMatrix estimated_dm;    ///< DM̂_o (paper Eq. 14)

  /// Learned reference weights β (GeoAlign only; empty otherwise).
  linalg::Vector weights;

  /// Source rows whose denominator was zero and fell back (Eq. 14's
  /// "otherwise 0" branch).
  std::vector<size_t> zero_rows;

  /// max_i |row_sum(estimated_dm)[i] - a^s_o[i]| — 0 (up to float) for
  /// volume-preserving methods on consistent inputs (Eq. 16).
  double VolumePreservationError(
      const linalg::Vector& objective_source) const {
    linalg::Vector sums = estimated_dm.RowSums();
    return linalg::NormInf(linalg::Sub(sums, objective_source));
  }
};

/// Interface shared by all aggregate-interpolation methods (GeoAlign
/// and the baselines it is evaluated against).
class Interpolator {
 public:
  virtual ~Interpolator() = default;

  /// Human-readable method name for reports.
  virtual std::string name() const = 0;

  /// Realigns the objective attribute from source to target units.
  virtual Result<CrosswalkResult> Crosswalk(
      const CrosswalkInput& input) const = 0;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_INTERPOLATOR_H_
