#include "sparse/content_hash.h"

#include <cstring>

namespace geoalign::sparse {

namespace {

// The xxHash64 primes: odd, with well-spread bits.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

uint64_t Rotl(uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }

/// One multiply-rotate accumulator step.
uint64_t Round(uint64_t lane, uint64_t word) {
  return Rotl(lane + word * kPrime2, 31) * kPrime1;
}

uint64_t LoadWord(const unsigned char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Final mix: every input bit affects every output bit.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// Folds the four lanes and the word count into one word. The two
/// digest halves pass the lanes in opposite orders, so each half is a
/// different function of the whole state.
uint64_t Fold(uint64_t a, uint64_t b, uint64_t c, uint64_t d,
              uint64_t words) {
  uint64_t h = Rotl(a, 1) + Rotl(b, 7) + Rotl(c, 12) + Rotl(d, 18);
  for (uint64_t lane : {a, b, c, d}) {
    h ^= Round(0, lane);
    h = h * kPrime1 + kPrime4;
  }
  return Avalanche(h + words * kPrime5);
}

}  // namespace

ContentHash::ContentHash()
    : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void ContentHash::MixWord(uint64_t word) {
  uint64_t& lane = lanes_[words_ & 3];
  lane = Round(lane, word);
  ++words_;
}

void ContentHash::MixArray(size_t count, const void* data, size_t bytes) {
  MixSize(count);
  const unsigned char* p = static_cast<const unsigned char*>(data);
  size_t words = bytes / sizeof(uint64_t);
  // Single words until the next one lands in lane 0, so the bulk loop
  // feeds fixed lanes from registers.
  for (; words > 0 && (words_ & 3) != 0; --words, p += 8) {
    MixWord(LoadWord(p));
  }
  uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2], l3 = lanes_[3];
  const size_t stripes = words / 4;
  for (size_t s = 0; s < stripes; ++s, p += 32) {
    l0 = Round(l0, LoadWord(p));
    l1 = Round(l1, LoadWord(p + 8));
    l2 = Round(l2, LoadWord(p + 16));
    l3 = Round(l3, LoadWord(p + 24));
  }
  lanes_[0] = l0;
  lanes_[1] = l1;
  lanes_[2] = l2;
  lanes_[3] = l3;
  words_ += stripes * 4;
  for (words -= stripes * 4; words > 0; --words, p += 8) {
    MixWord(LoadWord(p));
  }
  const size_t tail = bytes % sizeof(uint64_t);
  if (tail != 0) {
    uint64_t last = 0;
    std::memcpy(&last, p, tail);
    MixWord(last);
  }
}

ContentDigest ContentHash::Finish() const {
  ContentDigest digest;
  digest.lo = Fold(lanes_[0], lanes_[1], lanes_[2], lanes_[3], words_);
  digest.hi = Fold(lanes_[3], lanes_[2], lanes_[1], lanes_[0], words_);
  return digest;
}

}  // namespace geoalign::sparse
