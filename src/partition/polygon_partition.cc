#include "partition/polygon_partition.h"

#include <algorithm>

#include "common/string_util.h"
#include "geom/boolean_ops.h"

namespace geoalign::partition {

PolygonPartition::PolygonPartition(std::vector<geom::Polygon> units,
                                   std::vector<std::string> names)
    : units_(std::move(units)), names_(std::move(names)) {
  std::vector<geom::BBox> boxes;
  boxes.reserve(units_.size());
  for (const geom::Polygon& p : units_) {
    boxes.push_back(p.Bounds());
    bounds_.Expand(p.Bounds());
  }
  rtree_ = std::make_unique<spatial::RTree>(boxes);
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
  size_t found = units_.size();
  rtree_->Visit(geom::BBox(p.x, p.y, p.x, p.y), [&](uint32_t id) {
    if (id < found && units_[id].Contains(p)) found = id;
    return true;
  });
  if (found == units_.size()) {
    return Status::NotFound("PolygonPartition: point in no unit");
  }
  return found;
}

std::vector<uint32_t> PolygonPartition::CandidatesInBox(
    const geom::BBox& query) const {
  return rtree_->Query(query);
}

void PolygonPartition::CandidatesInBox(const geom::BBox& query,
                                       std::vector<uint32_t>* out) const {
  rtree_->Query(query, out);
}

Status PolygonPartition::ValidateDisjoint(double tol) const {
  std::vector<uint32_t> cands;
  for (uint32_t i = 0; i < units_.size(); ++i) {
    rtree_->Query(units_[i].Bounds(), &cands);
    // Ascending, so the message names the lowest overlapping j
    // whatever the tree's shape.
    std::sort(cands.begin(), cands.end());
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
