#include "partition/polygon_partition.h"

#include <algorithm>

#include "common/string_util.h"
#include "geom/boolean_ops.h"

namespace geoalign::partition {

namespace {

std::vector<geom::BBox> UnitBounds(const std::vector<geom::Polygon>& units) {
  std::vector<geom::BBox> boxes;
  boxes.reserve(units.size());
  for (const geom::Polygon& p : units) boxes.push_back(p.Bounds());
  return boxes;
}

}  // namespace

PolygonPartition::PolygonPartition(std::vector<geom::Polygon> units,
                                   std::vector<std::string> names)
    : units_(std::move(units)),
      names_(std::move(names)),
      index_(UnitBounds(units_)) {
  for (const geom::Polygon& p : units_) bounds_.Expand(p.Bounds());
}

Result<PolygonPartition> PolygonPartition::Create(
    std::vector<geom::Polygon> units, std::vector<std::string> names) {
  if (units.empty()) {
    return Status::InvalidArgument("PolygonPartition: no units");
  }
  if (names.empty()) {
    names.reserve(units.size());
    for (size_t i = 0; i < units.size(); ++i) {
      names.push_back(StrFormat("unit_%zu", i));
    }
  } else if (names.size() != units.size()) {
    return Status::InvalidArgument("PolygonPartition: name count mismatch");
  }
  return PolygonPartition(std::move(units), std::move(names));
}

double PolygonPartition::TotalMeasure() const {
  double acc = 0.0;
  for (const geom::Polygon& p : units_) acc += p.Area();
  return acc;
}

Result<size_t> PolygonPartition::Locate(const geom::Point& p) const {
  const size_t found = index_.FirstContaining(
      p, [&](uint32_t id) { return units_[id].Contains(p); });
  if (found == units_.size()) {
    return Status::NotFound("PolygonPartition: point in no unit");
  }
  return found;
}

void PolygonPartition::CandidatesInBox(const geom::BBox& query,
                                       std::vector<uint32_t>* out) const {
  index_.Query(query, out);
}

Status PolygonPartition::ValidateDisjoint(double tol) const {
  std::vector<uint32_t> cands;
  for (uint32_t i = 0; i < units_.size(); ++i) {
    // Ascending, so the message names the lowest overlapping j.
    index_.Query(units_[i].Bounds(), &cands);
    for (uint32_t j : cands) {
      if (j <= i) continue;
      double inter = geom::IntersectionArea(units_[i], units_[j]);
      double lim = tol * std::min(units_[i].Area(), units_[j].Area());
      if (inter > lim) {
        return Status::FailedPrecondition(StrFormat(
            "PolygonPartition: units %u and %u overlap (area %.6g)", i, j,
            inter));
      }
    }
  }
  return Status::OK();
}

}  // namespace geoalign::partition
