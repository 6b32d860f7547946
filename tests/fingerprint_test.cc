// The content hash behind plan fingerprints and PlanCache keys
// (sparse::ContentHash): one 128-bit word-at-a-time stream serves both
// PreparedReferenceSet::Prepare and PlanCache::MakeKey, with each DM
// entering by its digest (sparse::CsrMatrix::Digest, stored in a built
// block after its first call). These tests pin what a key must tell
// apart (every bit of every input that changes execution, also after a
// DM's digest was stored), what it must ignore (the thread count), that
// a write drops a stored digest and borrowed arrays never keep one,
// that array boundaries and tail bytes are unambiguous, that every
// ingest path hashes the same bytes, and that a key's reference half is
// the fingerprint of the plan compiled on a miss.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "capi/geoalign_c.h"
#include "core/geoalign.h"
#include "core/plan_cache.h"
#include "obs/flight_recorder.h"
#include "sparse/prepared_reference.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

using core::GeoAlignOptions;
using core::PlanCache;
using core::PlanCacheKey;
using sparse::ContentDigest;
using sparse::ContentHash;

// Flips bit `bit` of the 8-byte element `v`.
template <typename T>
void FlipBit(T& v, size_t bit) {
  static_assert(sizeof(T) == sizeof(uint64_t));
  uint64_t word = 0;
  std::memcpy(&word, &v, sizeof(word));
  word ^= uint64_t{1} << bit;
  std::memcpy(&v, &word, sizeof(word));
}

// Two references whose DMs borrow these arrays, so a test can flip any
// bit of any array and re-key in place (MakeKey hashes, it does not
// validate).
struct World {
  std::vector<size_t> row_ptr = {0, 2, 4, 5};
  std::vector<size_t> col_idx = {0, 1, 0, 1, 1};
  std::vector<double> values_a = {1.0, 2.0, 3.0, 1.0, 4.0};
  std::vector<double> values_b = {2.0, 1.0, 1.0, 2.0, 3.0};
  std::vector<double> agg_a = {3.0, 4.0, 4.0};
  std::vector<double> agg_b = {3.0, 3.0, 3.0};
  std::vector<double> objective = {10.0, 20.0, 30.0};

  sparse::CsrMatrix Dm(const std::vector<double>& values) const {
    return std::move(sparse::CsrMatrix::FromBorrowed(
                         {3, 2, row_ptr, col_idx, values}))
        .ValueOrDie();
  }

  // A DM in a block of its own, which stores its digest.
  sparse::CsrMatrix OwnedDm(const std::vector<double>& values) const {
    return std::move(
               sparse::CsrMatrix::FromCsrArrays(3, 2, row_ptr, col_idx, values))
        .ValueOrDie();
  }

  std::vector<core::ReferenceAttribute> Borrowing() const {
    return {{"a", agg_a, Dm(values_a)}, {"b", agg_b, Dm(values_b)}};
  }

  std::vector<core::ReferenceAttribute> Owning() const {
    return {{"a", agg_a, OwnedDm(values_a)}, {"b", agg_b, OwnedDm(values_b)}};
  }

  std::vector<core::ReferenceAttributeView> Views() const {
    return {{"a", agg_a, Dm(values_a), nullptr},
            {"b", agg_b, Dm(values_b), nullptr}};
  }
};

ContentDigest HashWords(const std::vector<uint64_t>& words) {
  ContentHash hash;
  for (uint64_t w : words) hash.MixU64(w);
  return hash.Finish();
}

TEST(FingerprintTest, EveryBitOfEveryReferenceArrayChangesTheKey) {
  World w;
  std::vector<core::ReferenceAttribute> refs = w.Borrowing();
  const GeoAlignOptions options;
  const PlanCacheKey base = PlanCache::MakeKey(refs, options);

  auto each_bit = [&](auto& array, const char* what) {
    for (size_t i = 0; i < array.size(); ++i) {
      for (size_t bit = 0; bit < 64; ++bit) {
        FlipBit(array[i], bit);
        const PlanCacheKey flipped = PlanCache::MakeKey(refs, options);
        EXPECT_NE(flipped.references, base.references)
            << what << "[" << i << "] bit " << bit;
        EXPECT_NE(flipped.rest, base.rest)
            << what << "[" << i << "] bit " << bit;
        FlipBit(array[i], bit);
      }
    }
    EXPECT_EQ(PlanCache::MakeKey(refs, options), base) << what;
  };
  each_bit(refs[0].source_aggregates, "aggregates a");
  each_bit(refs[1].source_aggregates, "aggregates b");
  each_bit(w.row_ptr, "row_ptr");
  each_bit(w.col_idx, "col_idx");
  each_bit(w.values_a, "values a");
  each_bit(w.values_b, "values b");

  for (std::string* name : {&refs[0].name, &refs[1].name}) {
    for (size_t i = 0; i < name->size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        (*name)[i] = static_cast<char>((*name)[i] ^ (1 << bit));
        EXPECT_NE(PlanCache::MakeKey(refs, options).references,
                  base.references)
            << "name byte " << i << " bit " << bit;
        (*name)[i] = static_cast<char>((*name)[i] ^ (1 << bit));
      }
    }
  }
  EXPECT_EQ(PlanCache::MakeKey(refs, options), base);
}

// The DMs are owned and keyed once, so each block holds its digest;
// every write through mutable_values() must drop it.
TEST(FingerprintTest, EveryBitWrittenIntoAnOwnedDmChangesTheKey) {
  World w;
  std::vector<core::ReferenceAttribute> refs = w.Owning();
  const GeoAlignOptions options;
  const PlanCacheKey base = PlanCache::MakeKey(refs, options);
  for (size_t r = 0; r < refs.size(); ++r) {
    sparse::CsrMatrix& dm = refs[r].disaggregation;
    const double* stored = dm.values().data();
    for (size_t i = 0; i < dm.nnz(); ++i) {
      for (size_t bit = 0; bit < 64; ++bit) {
        FlipBit(dm.mutable_values()[i], bit);
        const PlanCacheKey flipped = PlanCache::MakeKey(refs, options);
        EXPECT_NE(flipped.references, base.references)
            << "dm " << r << " value " << i << " bit " << bit;
        EXPECT_NE(flipped.rest, base.rest)
            << "dm " << r << " value " << i << " bit " << bit;
        FlipBit(dm.mutable_values()[i], bit);
        EXPECT_EQ(PlanCache::MakeKey(refs, options), base)
            << "dm " << r << " value " << i << " bit " << bit;
      }
    }
    // Sole holder of its block: every write above was in place.
    EXPECT_EQ(dm.values().data(), stored) << "dm " << r;
  }
}

// A write through one of two matrices sharing a block moves only the
// writer's key, whichever of the two writes; the writer then holds a
// block alone, and a second, in-place write moves its key again.
TEST(FingerprintTest, AWriteMovesTheWritersKeyAndNotItsCopys) {
  World w;
  const GeoAlignOptions options;
  const std::vector<
      std::pair<const char*, std::function<void(sparse::CsrMatrix&)>>>
      writers = {
          {"mutable_values",
           [](sparse::CsrMatrix& m) { m.mutable_values()[0] += 1.0; }},
          {"ScaleRows",
           [](sparse::CsrMatrix& m) {
             m.ScaleRows(linalg::Vector{2.0, 3.0, 5.0});
           }},
          {"Prune",
           [](sparse::CsrMatrix& m) { m.Prune(m.values()[0]); }},
      };
  for (const auto& [what, write] : writers) {
    for (const bool write_original : {true, false}) {
      SCOPED_TRACE(std::string(what) +
                   (write_original ? " through the original"
                                   : " through the copy"));
      std::vector<core::ReferenceAttribute> original = w.Owning();
      const PlanCacheKey base = PlanCache::MakeKey(original, options);
      std::vector<core::ReferenceAttribute> copy = original;
      EXPECT_EQ(PlanCache::MakeKey(copy, options), base);
      std::vector<core::ReferenceAttribute>& writer =
          write_original ? original : copy;
      const std::vector<core::ReferenceAttribute>& other =
          write_original ? copy : original;

      write(writer[0].disaggregation);
      const PlanCacheKey written = PlanCache::MakeKey(writer, options);
      EXPECT_NE(written.references, base.references);
      EXPECT_NE(written.rest, base.rest);
      EXPECT_EQ(PlanCache::MakeKey(other, options), base);

      const double* block = writer[0].disaggregation.values().data();
      write(writer[0].disaggregation);
      EXPECT_EQ(writer[0].disaggregation.values().data(), block)
          << "the second write is in place";
      const PlanCacheKey again = PlanCache::MakeKey(writer, options);
      EXPECT_NE(again.references, written.references);
      EXPECT_NE(again.rest, written.rest);
      EXPECT_EQ(PlanCache::MakeKey(other, options), base);
    }
  }
}

// A keepalive ties borrowed arrays' lifetime to the matrix, not their
// content: their owner may rewrite them, so no digest is kept.
TEST(FingerprintTest, BorrowedArraysWithAKeepaliveAreHashedOnEveryKey) {
  auto arrays = std::make_shared<World>();
  const World& w = *arrays;
  std::vector<core::ReferenceAttribute> refs = w.Borrowing();
  refs[0].disaggregation =
      std::move(sparse::CsrMatrix::FromBorrowed(
                    {3, 2, arrays->row_ptr, arrays->col_idx, arrays->values_a},
                    arrays))
          .ValueOrDie();
  const GeoAlignOptions options;
  const PlanCacheKey base = PlanCache::MakeKey(refs, options);
  EXPECT_EQ(base, PlanCache::MakeKey(w.Owning(), options));

  auto each_bit = [&](auto& array, const char* what) {
    for (size_t i = 0; i < array.size(); ++i) {
      for (size_t bit = 0; bit < 64; ++bit) {
        FlipBit(array[i], bit);
        const PlanCacheKey flipped = PlanCache::MakeKey(refs, options);
        EXPECT_NE(flipped.references, base.references)
            << what << "[" << i << "] bit " << bit;
        EXPECT_NE(flipped.rest, base.rest)
            << what << "[" << i << "] bit " << bit;
        FlipBit(array[i], bit);
      }
    }
    EXPECT_EQ(PlanCache::MakeKey(refs, options), base) << what;
  };
  each_bit(arrays->values_a, "values");
  each_bit(arrays->row_ptr, "row_ptr");
  each_bit(arrays->col_idx, "col_idx");
}

TEST(FingerprintTest, EveryExecutionRelevantOptionChangesTheKeyButThreadsDoNot) {
  World w;
  const std::vector<core::ReferenceAttribute> refs = w.Borrowing();
  const GeoAlignOptions defaults;
  const PlanCacheKey base = PlanCache::MakeKey(refs, defaults);

  auto expect_new_key = [&](const GeoAlignOptions& options,
                            const std::string& what) {
    const PlanCacheKey key = PlanCache::MakeKey(refs, options);
    // Options never touch the reference half; they must move the rest.
    EXPECT_EQ(key.references, base.references) << what;
    EXPECT_NE(key.rest, base.rest) << what;
  };
  GeoAlignOptions o = defaults;
  o.scale_mode = core::ScaleMode::kRaw;
  expect_new_key(o, "scale_mode");
  for (core::WeightSolver solver :
       {core::WeightSolver::kNnlsNormalized, core::WeightSolver::kClampedLs,
        core::WeightSolver::kUniform}) {
    o = defaults;
    o.solver = solver;
    expect_new_key(o, "solver " + std::to_string(static_cast<int>(solver)));
  }
  o = defaults;
  o.denominator = core::DenominatorMode::kFromAggregates;
  expect_new_key(o, "denominator");
  o = defaults;
  o.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;
  expect_new_key(o, "zero_row_fallback");
  for (size_t bit = 0; bit < 64; ++bit) {
    const std::string b = " bit " + std::to_string(bit);
    o = defaults;
    FlipBit(o.zero_tolerance, bit);
    expect_new_key(o, "zero_tolerance" + b);
    o = defaults;
    FlipBit(o.solver_options.tolerance, bit);
    expect_new_key(o, "solver tolerance" + b);
    o = defaults;
    FlipBit(o.solver_options.max_iterations, bit);
    expect_new_key(o, "max_iterations" + b);
    o = defaults;
    FlipBit(o.solver_options.ridge_on_singular, bit);
    expect_new_key(o, "ridge_on_singular" + b);
  }

  // The fallback DM's content, bit by bit.
  std::vector<double> fallback_values = w.values_b;
  const sparse::CsrMatrix fallback = w.Dm(fallback_values);
  o = defaults;
  o.fallback_dm = &fallback;
  expect_new_key(o, "fallback_dm set");
  const PlanCacheKey with_fallback = PlanCache::MakeKey(refs, o);
  for (size_t i = 0; i < fallback_values.size(); ++i) {
    for (size_t bit = 0; bit < 64; ++bit) {
      FlipBit(fallback_values[i], bit);
      EXPECT_NE(PlanCache::MakeKey(refs, o).rest, with_fallback.rest)
          << "fallback value " << i << " bit " << bit;
      FlipBit(fallback_values[i], bit);
    }
  }

  // An owned fallback DM keyed once holds its digest; a write through
  // mutable_values() drops it.
  sparse::CsrMatrix owned_fallback = w.OwnedDm(w.values_b);
  o.fallback_dm = &owned_fallback;
  EXPECT_EQ(PlanCache::MakeKey(refs, o), with_fallback);
  for (size_t i = 0; i < owned_fallback.nnz(); ++i) {
    for (size_t bit = 0; bit < 64; ++bit) {
      FlipBit(owned_fallback.mutable_values()[i], bit);
      const PlanCacheKey flipped = PlanCache::MakeKey(refs, o);
      EXPECT_EQ(flipped.references, with_fallback.references);
      EXPECT_NE(flipped.rest, with_fallback.rest)
          << "owned fallback value " << i << " bit " << bit;
      FlipBit(owned_fallback.mutable_values()[i], bit);
      EXPECT_EQ(PlanCache::MakeKey(refs, o), with_fallback)
          << "owned fallback value " << i << " bit " << bit;
    }
  }

  // Results are bit-identical at every thread count, so plans are
  // shared across them.
  for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                         size_t{64}}) {
    o = defaults;
    o.threads = threads;
    EXPECT_EQ(PlanCache::MakeKey(refs, o), base) << "threads " << threads;
  }
}

TEST(FingerprintTest, ShiftingAnElementAcrossAnArrayBoundaryChangesTheDigest) {
  // One sequence, split into two arrays at every point: each split is
  // its own digest, because each array carries its element count.
  std::vector<size_t> all(13);
  std::iota(all.begin(), all.end(), size_t{100});
  std::set<std::pair<uint64_t, uint64_t>> digests;
  for (size_t split = 0; split <= all.size(); ++split) {
    const std::vector<size_t> head(all.begin(), all.begin() + split);
    const std::vector<size_t> tail(all.begin() + split, all.end());
    ContentHash hash;
    hash.MixSizes(head);
    hash.MixSizes(tail);
    const ContentDigest d = hash.Finish();
    EXPECT_TRUE(digests.insert({d.lo, d.hi}).second) << "split " << split;
  }

  // The same across the CSR arrays of a key: moving the last row_ptr
  // entry to the front of col_idx.
  ContentHash csr;
  csr.MixSizes(std::vector<size_t>{0, 2, 4, 5});
  csr.MixSizes(std::vector<size_t>{0, 1, 0, 1, 1});
  ContentHash shifted;
  shifted.MixSizes(std::vector<size_t>{0, 2, 4});
  shifted.MixSizes(std::vector<size_t>{5, 0, 1, 0, 1, 1});
  EXPECT_NE(csr.Finish(), shifted.Finish());

  // And across names: "ab" + "c" is not "a" + "bc".
  ContentHash ab_c;
  ab_c.MixString("ab");
  ab_c.MixString("c");
  ContentHash a_bc;
  a_bc.MixString("a");
  a_bc.MixString("bc");
  EXPECT_NE(ab_c.Finish(), a_bc.Finish());
}

TEST(FingerprintTest, NamesOfLengthZeroToSeventeenCoverEveryTailLength) {
  std::set<std::pair<uint64_t, uint64_t>> digests;
  for (size_t len = 0; len <= 17; ++len) {
    std::string name(len, 'x');
    ContentHash hash;
    hash.MixString(name);
    const ContentDigest d = hash.Finish();
    EXPECT_TRUE(digests.insert({d.lo, d.hi}).second) << "length " << len;

    // A trailing zero byte is not the padding: the count differs.
    ContentHash padded;
    padded.MixString(name + '\0');
    EXPECT_NE(padded.Finish(), d) << "length " << len;

    // Every bit of every byte, the tail bytes included, is hashed.
    for (size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = name;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        ContentHash other;
        other.MixString(flipped);
        EXPECT_NE(other.Finish(), d)
            << "length " << len << " byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(FingerprintTest, ArraysHashAsCountPrefixedWordStreams) {
  // The word-at-a-time array path (lane alignment, four-lane stripes,
  // leftover words) is the plain word stream [count, words...], for
  // every array length and every lane the array starts on.
  for (size_t offset = 0; offset < 4; ++offset) {
    for (size_t n = 0; n <= 21; ++n) {
      std::vector<uint64_t> words(offset, 7);
      std::vector<size_t> array(n);
      for (size_t i = 0; i < n; ++i) array[i] = i * 0x9e3779b97f4a7c15ull;
      ContentHash hash;
      for (size_t i = 0; i < offset; ++i) hash.MixU64(7);
      hash.MixSizes(array);
      words.push_back(n);
      words.insert(words.end(), array.begin(), array.end());
      EXPECT_EQ(hash.Finish(), HashWords(words))
          << "offset " << offset << " length " << n;
    }
  }
  // Finish is a snapshot: mixing continues the same stream.
  ContentHash hash;
  hash.MixU64(1);
  const ContentDigest first = hash.Finish();
  hash.MixU64(2);
  EXPECT_EQ(first, HashWords({1}));
  EXPECT_EQ(hash.Finish(), HashWords({1, 2}));
}

// Each path compiles twice. The owning path's second compile reads the
// digests its first one stored; the borrowed paths hash again.
TEST(FingerprintTest, OwningViewCapiAndOneShotIngestAgree) {
  World w;
  const GeoAlignOptions options;
  const std::vector<core::ReferenceAttribute> owned = w.Owning();
  auto compile_owned = [&] {
    return std::move(core::CrosswalkPlan::Compile(owned, options))
        .ValueOrDie()
        .fingerprint();
  };
  const uint64_t owning = compile_owned();
  EXPECT_EQ(compile_owned(), owning);
  auto compile_viewed = [&] {
    return std::move(core::CrosswalkPlan::Compile(w.Views(), options))
        .ValueOrDie()
        .fingerprint();
  };
  EXPECT_EQ(compile_viewed(), owning);
  EXPECT_EQ(compile_viewed(), owning);
  EXPECT_EQ(PlanCache::MakeKey(owned, options).references, owning);
  EXPECT_EQ(PlanCache::MakeKey(w.Owning(), options).references, owning);
  EXPECT_EQ(PlanCache::MakeKey(w.Borrowing(), options).references, owning);

  const geoalign_csr csr_a = {3, 2, w.row_ptr.data(), w.col_idx.data(),
                              w.values_a.data()};
  const geoalign_csr csr_b = {3, 2, w.row_ptr.data(), w.col_idx.data(),
                              w.values_b.data()};
  geoalign_reference refs[2] = {};
  refs[0].name = "a";
  refs[0].source_aggregates = w.agg_a.data();
  refs[0].csr = &csr_a;
  refs[1].name = "b";
  refs[1].source_aggregates = w.agg_b.data();
  refs[1].csr = &csr_b;
  geoalign_plan* plan = nullptr;
  for (int compile = 0; compile < 2; ++compile) {
    geoalign_plan_destroy(plan);
    plan = nullptr;
    ASSERT_EQ(geoalign_plan_compile(refs, 2, &plan), GEOALIGN_OK)
        << geoalign_error_message();
    EXPECT_EQ(geoalign_plan_fingerprint(plan), owning) << "compile " << compile;
  }

  // The one-shot call compiles over borrowed views of its input; its
  // audit record carries the same fingerprint.
  double target[2];
  ASSERT_EQ(geoalign_plan_execute(plan, w.objective.data(), 3, target,
                                  nullptr),
            GEOALIGN_OK);
  geoalign_plan_destroy(plan);
  core::CrosswalkInput input{w.objective, owned};
  for (int call = 0; call < 2; ++call) {
    ASSERT_TRUE(core::GeoAlign(options).Crosswalk(input).ok());
    const std::vector<obs::AuditRecord> audits =
        obs::FlightRecorder::Global().Collect();
    ASSERT_FALSE(audits.empty());
    EXPECT_EQ(audits.back().plan_fingerprint, owning) << "call " << call;
  }
}

TEST(FingerprintTest, MissPlanFingerprintIsTheKeysReferenceHalf) {
  synth::UniverseOptions opts;
  opts.seed = 11;
  opts.scale = 0.05;
  synth::Universe universe =
      std::move(synth::BuildUniverse(synth::UniverseId::kNewYork, opts))
          .ValueOrDie();
  const core::CrosswalkInput input =
      std::move(universe.MakeLeaveOneOutInput(0)).ValueOrDie();
  GeoAlignOptions options;
  options.threads = 1;

  PlanCache cache(4);
  auto plan = cache.GetOrCompile(input.references, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(cache.stats().misses, 1u);
  const PlanCacheKey key = PlanCache::MakeKey(input.references, options);
  EXPECT_EQ((*plan)->fingerprint(), key.references);
}

TEST(FingerprintTest, HitReturnsTheSamePlanObject) {
  World w;
  GeoAlignOptions options;
  options.threads = 1;
  PlanCache cache(4);
  auto first = cache.GetOrCompile(w.Owning(), options);
  ASSERT_TRUE(first.ok());

  // Equal content in other memory, at another thread count: a hit.
  World copy;
  options.threads = 4;
  auto second = cache.GetOrCompile(copy.Borrowing(), options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace geoalign
