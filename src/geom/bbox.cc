#include "geom/bbox.h"

#include <algorithm>

namespace geoalign::geom {

void BBox::Expand(const Point& p) {
  min_x = std::min(min_x, p.x);
  min_y = std::min(min_y, p.y);
  max_x = std::max(max_x, p.x);
  max_y = std::max(max_y, p.y);
}

void BBox::Expand(const BBox& other) {
  if (other.Empty()) return;
  min_x = std::min(min_x, other.min_x);
  min_y = std::min(min_y, other.min_y);
  max_x = std::max(max_x, other.max_x);
  max_y = std::max(max_y, other.max_y);
}

BBox BBox::Intersection(const BBox& other) const {
  BBox out;
  out.min_x = std::max(min_x, other.min_x);
  out.min_y = std::max(min_y, other.min_y);
  out.max_x = std::min(max_x, other.max_x);
  out.max_y = std::min(max_y, other.max_y);
  return out;
}

double BBox::Area() const {
  if (Empty()) return 0.0;
  return (max_x - min_x) * (max_y - min_y);
}

}  // namespace geoalign::geom
