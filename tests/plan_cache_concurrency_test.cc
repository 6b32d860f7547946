// Concurrency contract of core::PlanCache: the content-keyed LRU must
// keep its counters EXACT — not merely monotone — under concurrent
// GetOrCompile traffic. Phase one replays a deterministic access
// sequence single-threaded against a ten-line reference LRU simulator
// and demands counter equality after every access; phase two hammers
// one cache from several threads and asserts the accounting
// identities that must hold for any interleaving:
//
//   hits + misses == total GetOrCompile calls
//   evictions     == (misses - insert_races) - size()
//   size()        <= capacity
//
// (every non-race miss inserts exactly one entry, so entries leave
// only via eviction), plus plan correctness: every plan handed out
// for a key executes to exactly the bits of the uncompiled oracle for
// that key's input. Run under -DGEOALIGN_SANITIZE=thread this is also
// the data-race gate for the mutex annotations on PlanCache
// (docs/static_analysis.md, "Compile-time concurrency contracts").

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <list>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "core/geoalign.h"
#include "core/plan_cache.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

core::CrosswalkInput MakeSmallInput() {
  synth::UniverseOptions opts;
  opts.seed = 777;
  opts.scale = 0.05;
  synth::Universe universe =
      std::move(synth::BuildUniverse(synth::UniverseId::kNewYork, opts))
          .ValueOrDie();
  return std::move(universe.MakeLeaveOneOutInput(0)).ValueOrDie();
}

// K inputs with distinct content fingerprints: perturbing one source
// aggregate changes the key (content-keyed, not pointer-keyed).
std::vector<core::CrosswalkInput> MakeKeyVariants(size_t k) {
  core::CrosswalkInput base = MakeSmallInput();
  std::vector<core::CrosswalkInput> variants;
  variants.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    core::CrosswalkInput variant = base;
    variant.references[0].source_aggregates[0] +=
        static_cast<double>(i + 1);
    variants.push_back(std::move(variant));
  }
  return variants;
}

// Reference model of the cache's accounting: an LRU list of key
// indices plus the three counters PlanCache must reproduce exactly in
// the single-threaded regime (insert_races are impossible there).
struct LruOracle {
  explicit LruOracle(size_t cap) : capacity(cap) {}

  void Access(size_t key) {
    auto it = std::find(recency.begin(), recency.end(), key);
    if (it != recency.end()) {
      ++hits;
      recency.splice(recency.begin(), recency, it);
      return;
    }
    ++misses;
    recency.push_front(key);
    while (recency.size() > capacity) {
      recency.pop_back();
      ++evictions;
    }
  }

  size_t capacity;
  std::list<size_t> recency;  // front = MRU
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
};

TEST(PlanCacheConcurrencyTest, SingleThreadedCountersMatchOracleExactly) {
  constexpr size_t kKeys = 5;
  constexpr size_t kCapacity = 3;
  constexpr size_t kSteps = 40;
  std::vector<core::CrosswalkInput> variants = MakeKeyVariants(kKeys);
  core::GeoAlignOptions opts;
  opts.threads = 1;

  core::PlanCache cache(kCapacity);
  LruOracle oracle(kCapacity);
  // Last plan handed out per key. Holding these keeps evicted plans
  // alive, so a recompile after eviction must yield a NEW object while
  // a resident hit must return the SAME one.
  std::vector<std::shared_ptr<const core::CrosswalkPlan>> last(kKeys);

  for (size_t step = 0; step < kSteps; ++step) {
    // Deterministic but non-cyclic mix of repeats and evictions.
    const size_t key = (step * 7 + step * step * 3) % kKeys;
    const bool expect_hit =
        std::find(oracle.recency.begin(), oracle.recency.end(), key) !=
        oracle.recency.end();
    oracle.Access(key);

    auto plan =
        std::move(cache.GetOrCompile(variants[key].references, opts))
            .ValueOrDie();
    ASSERT_NE(plan, nullptr);
    if (expect_hit) {
      EXPECT_EQ(plan.get(), last[key].get())
          << "step " << step << ": resident key " << key
          << " must return the cached object";
    } else if (last[key] != nullptr) {
      EXPECT_NE(plan.get(), last[key].get())
          << "step " << step << ": evicted key " << key
          << " must be recompiled, not resurrected";
    }
    last[key] = std::move(plan);

    const core::PlanCacheStats stats = cache.stats();
    ASSERT_EQ(stats.hits, oracle.hits) << "step " << step;
    ASSERT_EQ(stats.misses, oracle.misses) << "step " << step;
    ASSERT_EQ(stats.evictions, oracle.evictions) << "step " << step;
    ASSERT_EQ(stats.insert_races, 0u) << "step " << step;
    ASSERT_EQ(cache.size(), oracle.recency.size()) << "step " << step;
  }
}

TEST(PlanCacheConcurrencyTest, ConcurrentHammerKeepsExactAccounting) {
  constexpr size_t kKeys = 5;
  constexpr size_t kCapacity = 2;  // < kKeys: eviction churn under load
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 30;
  std::vector<core::CrosswalkInput> variants = MakeKeyVariants(kKeys);
  core::GeoAlignOptions opts;
  opts.threads = 1;

  core::PlanCache cache(kCapacity);
  // plans[t][k]: last plan task t obtained for key k (null if never
  // requested). Per-task slots — no cross-thread writes.
  std::vector<std::vector<std::shared_ptr<const core::CrosswalkPlan>>> plans(
      kThreads,
      std::vector<std::shared_ptr<const core::CrosswalkPlan>>(kKeys));

  common::ParallelFor(kThreads, kThreads, [&](size_t t, size_t) {
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      // Each thread walks the key space with a different stride so
      // threads collide on some keys and diverge on others.
      const size_t key = (i * (t + 3) + t) % kKeys;
      auto plan = std::move(cache.GetOrCompile(variants[key].references, opts))
                      .ValueOrDie();
      ASSERT_NE(plan, nullptr);
      plans[t][key] = std::move(plan);
    }
  });

  const core::PlanCacheStats stats = cache.stats();
  constexpr size_t kTotalOps = kThreads * kOpsPerThread;
  EXPECT_EQ(stats.hits + stats.misses, kTotalOps)
      << "every GetOrCompile is exactly one hit or one miss";
  EXPECT_LE(stats.insert_races, stats.misses)
      << "a race loser was first counted as a miss";
  EXPECT_LE(cache.size(), kCapacity);
  ASSERT_GE(stats.misses - stats.insert_races, cache.size());
  EXPECT_EQ(stats.evictions,
            (stats.misses - stats.insert_races) - cache.size())
      << "each non-race miss inserts one entry; entries leave only by "
         "eviction";
  // Cold start guarantees at least one miss per key ever touched.
  EXPECT_GE(stats.misses, kKeys);

  // Correctness of every plan handed out under contention: for each
  // key, all threads' plans must execute to exactly the bits of the
  // uncompiled oracle for that key's input — a cache that ever serves
  // key A's plan for key B fails here even if its counters balance.
  for (size_t key = 0; key < kKeys; ++key) {
    const auto want =
        std::move(core::CrosswalkUncompiled(variants[key], opts))
            .ValueOrDie();
    for (size_t t = 0; t < kThreads; ++t) {
      if (plans[t][key] == nullptr) continue;
      const auto got =
          std::move(plans[t][key]->Execute(variants[key].objective_source))
              .ValueOrDie();
      ASSERT_EQ(got.target_estimates, want.target_estimates)
          << "thread " << t << ", key " << key;
      ASSERT_EQ(got.weights, want.weights)
          << "thread " << t << ", key " << key;
      ASSERT_EQ(got.zero_rows, want.zero_rows)
          << "thread " << t << ", key " << key;
    }
  }
}

// Four workers miss one key at once over DMs whose blocks hold no
// digest yet, so each may compute and store every DM's first digest
// while the others read it (the data-race gate under
// -DGEOALIGN_SANITIZE=thread). Whatever the interleaving, every plan
// carries one fingerprint, the key's reference half, and the cache
// holds one plan.
TEST(PlanCacheConcurrencyTest, RacingFirstDigestsGiveOneFingerprint) {
  constexpr size_t kThreads = 4;
  core::CrosswalkInput input = MakeSmallInput();
  for (core::ReferenceAttribute& ref : input.references) {
    ref.disaggregation.mutable_values();  // drops any stored digest
  }
  core::GeoAlignOptions opts;
  opts.threads = 1;

  core::PlanCache cache(4);
  std::vector<std::shared_ptr<const core::CrosswalkPlan>> plans(kThreads);
  std::atomic<size_t> arrived{0};
  common::ParallelFor(kThreads, kThreads, [&](size_t t, size_t) {
    // Hold each worker until all have arrived (or a second has passed,
    // should a worker thread fail to start), so the lookups overlap.
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (arrived.load() < kThreads &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    plans[t] = std::move(cache.GetOrCompile(input.references, opts))
                   .ValueOrDie();
  });

  const core::PlanCacheKey key =
      core::PlanCache::MakeKey(input.references, opts);
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(plans[t], nullptr) << "worker " << t;
    EXPECT_EQ(plans[t]->fingerprint(), key.references) << "worker " << t;
  }
  EXPECT_EQ(cache.size(), 1u);
  const core::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

}  // namespace
}  // namespace geoalign
