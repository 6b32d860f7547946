#include "common/unit_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"

namespace geoalign::common {

Result<UnitIndex> UnitIndex::Create(std::vector<std::string> names,
                                    const char* which) {
  GEOALIGN_CHECK(names.size() < kIndexMask) << "slot index field overflow";
  UnitIndex index;
  index.names_ = std::move(names);
  const size_t n = index.names_.size();
  index.slots_.assign(std::bit_ceil(std::max<size_t>(2 * n, 1)), 0);
  index.mask_ = index.slots_.size() - 1;
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = index.names_[i];
    const uint64_t hash = HashUnitName(name);
    const size_t s = index.Probe(name, hash);
    if (index.slots_[s] != 0) {
      return Status::InvalidArgument(std::string("duplicate ") + which +
                                     " unit name '" + name + "'");
    }
    index.slots_[s] = (hash & ~kIndexMask) | (i + 1);
  }
  return index;
}

}  // namespace geoalign::common
