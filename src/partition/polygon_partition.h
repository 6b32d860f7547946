#ifndef GEOALIGN_PARTITION_POLYGON_PARTITION_H_
#define GEOALIGN_PARTITION_POLYGON_PARTITION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geom/polygon.h"
#include "spatial/grid_index.h"

namespace geoalign::partition {

/// 2-D unit system: a set of pairwise-disjoint simple polygons (a GIS
/// "feature layer", e.g. the zip-code or county polygons of paper
/// Fig. 2). A uniform grid over unit bounding boxes
/// (spatial::BoxGridIndex) serves point location and overlay candidate
/// search.
class PolygonPartition {
 public:
  /// Builds from the unit polygons; optional names (e.g. FIPS codes)
  /// must match the unit count when provided. Disjointness is the
  /// caller's contract; `ValidateDisjoint` can verify it.
  static Result<PolygonPartition> Create(std::vector<geom::Polygon> units,
                                         std::vector<std::string> names = {});

  size_t NumUnits() const { return units_.size(); }
  const geom::Polygon& unit(size_t i) const { return units_[i]; }
  const std::string& name(size_t i) const { return names_[i]; }

  /// Area of unit i.
  double Measure(size_t i) const { return units_[i].Area(); }

  /// Sum of unit areas.
  double TotalMeasure() const;

  /// Bounding box of the whole layer.
  const geom::BBox& Bounds() const { return bounds_; }

  /// The lowest-index unit i whose unit(i).Contains(p) holds: a point
  /// on a shared boundary, or inside units that overlap, resolves to
  /// the lowest such index. NotFound when p is in no unit (a NaN point
  /// never is).
  Result<size_t> Locate(const geom::Point& p) const;

  /// Clears `*out` and fills it with the ascending ids of the units
  /// whose bounding box meets the closed box `query`, each once,
  /// reusing its capacity across calls.
  void CandidatesInBox(const geom::BBox& query,
                       std::vector<uint32_t>* out) const;

  /// Verifies pairwise interior-disjointness: any two units whose
  /// intersection area exceeds `tol * min(area_i, area_j)` fail.
  Status ValidateDisjoint(double tol = 1e-9) const;

 private:
  PolygonPartition(std::vector<geom::Polygon> units,
                   std::vector<std::string> names);

  std::vector<geom::Polygon> units_;
  std::vector<std::string> names_;
  geom::BBox bounds_;
  spatial::BoxGridIndex index_;
};

}  // namespace geoalign::partition

#endif  // GEOALIGN_PARTITION_POLYGON_PARTITION_H_
