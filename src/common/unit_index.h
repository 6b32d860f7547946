#ifndef GEOALIGN_COMMON_UNIT_INDEX_H_
#define GEOALIGN_COMMON_UNIT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace geoalign::common {

/// Hash of a unit name: the small-key path of wyhash (final version
/// 4, default secret), read through fixed-width overlapping loads so
/// every byte feeds the hash at every length without a variable-length
/// copy: lengths 0–3 read three single bytes, 4–16 four 4-byte words,
/// longer names 16-byte blocks plus the last 16 bytes.
inline uint64_t HashUnitName(std::string_view name) {
  constexpr uint64_t kSecret[4] = {0xa0761d6478bd642full, 0xe7037ed1a0b428dbull,
                                   0x8ebc6af09c88c6e3ull, 0x589965cc75374cc3ull};
  // 64×64→128-bit multiply: `a` and `b` become its low and high words.
  const auto mum = [](uint64_t& a, uint64_t& b) {
    const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
    a = static_cast<uint64_t>(r);
    b = static_cast<uint64_t>(r >> 64);
  };
  const auto mix = [&mum](uint64_t a, uint64_t b) {
    mum(a, b);
    return a ^ b;
  };
  const auto read8 = [](const unsigned char* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  };
  const auto read4 = [](const unsigned char* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return static_cast<uint64_t>(v);
  };
  const auto* p = reinterpret_cast<const unsigned char*>(name.data());
  const size_t len = name.size();
  uint64_t seed = mix(kSecret[0], kSecret[1]);
  uint64_t a = 0;
  uint64_t b = 0;
  if (len <= 16) {
    if (len >= 4) {
      const size_t step = (len >> 3) << 2;  // 0 below 8 bytes, else 4
      a = (read4(p) << 32) | read4(p + step);
      b = (read4(p + len - 4) << 32) | read4(p + len - 4 - step);
    } else if (len > 0) {
      a = (uint64_t{p[0]} << 16) | (uint64_t{p[len >> 1]} << 8) | p[len - 1];
    }
  } else {
    size_t i = len;
    for (; i > 16; i -= 16, p += 16) {
      seed = mix(read8(p) ^ kSecret[1], read8(p + 8) ^ seed);
    }
    a = read8(p + i - 16);
    b = read8(p + i - 8);
  }
  a ^= kSecret[1];
  b ^= seed;
  mum(a, b);
  return mix(a ^ kSecret[0] ^ len, b ^ kSecret[1]);
}

/// The one unit name → index structure: owns a list of distinct unit
/// names and resolves a name to its position in that list. Used by
/// core::CrosswalkPipeline for column resolution and by the io
/// crosswalk loaders.
///
/// A flat open-addressing table with linear probing. Its capacity is a
/// power of two ≥ 2n; each slot is one 64-bit word holding the name's
/// 32-bit hash tag (high half) and its index + 1 (low half; 0 marks an
/// empty slot). A name's probe starts at its hash modulo the capacity.
/// A lookup confirms every tag match against the stored name, so tag or
/// hash collisions never mis-resolve.
class UnitIndex {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Indexes `names`. A name that repeats an earlier one is
  /// InvalidArgument `duplicate <which> unit name '<name>'`, naming the
  /// first repeat in list order.
  static Result<UnitIndex> Create(std::vector<std::string> names,
                                  const char* which);

  /// Position of `name` in names(), or kNotFound.
  size_t Find(std::string_view name) const {
    const uint64_t slot = slots_[Probe(name, HashUnitName(name))];
    // An empty slot's index field is 0, which wraps to kNotFound.
    return static_cast<size_t>(slot & kIndexMask) - 1;
  }

  const std::vector<std::string>& names() const { return names_; }
  size_t size() const { return names_.size(); }

 private:
  static constexpr uint64_t kIndexMask = 0xffffffffu;

  UnitIndex() = default;

  /// The slot holding `name`, or the empty slot that ends its probe run
  /// (there always is one: capacity ≥ 2n keeps half the slots empty).
  size_t Probe(std::string_view name, uint64_t hash) const {
    for (size_t s = static_cast<size_t>(hash) & mask_;; s = (s + 1) & mask_) {
      const uint64_t slot = slots_[s];
      if (slot == 0) return s;
      if ((slot >> 32) == (hash >> 32) &&
          std::string_view(names_[(slot & kIndexMask) - 1]) == name) {
        return s;
      }
    }
  }

  std::vector<std::string> names_;
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
};

}  // namespace geoalign::common

#endif  // GEOALIGN_COMMON_UNIT_INDEX_H_
