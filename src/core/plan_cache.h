#ifndef GEOALIGN_CORE_PLAN_CACHE_H_
#define GEOALIGN_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/crosswalk_plan.h"

namespace geoalign::core {

/// Counters for PlanCache observability (snapshot via stats()). The
/// same values are mirrored onto the process-wide metrics registry as
/// `plan_cache.hits` / `plan_cache.misses` / `plan_cache.evictions` /
/// `plan_cache.insert_races` (catalog: docs/observability.md); the
/// registry aggregates across every PlanCache instance while this
/// struct stays per-instance.
struct PlanCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  /// GetOrCompile races: both threads missed the same key, both
  /// compiled outside the lock, and this caller lost the re-lock — its
  /// freshly compiled plan was dropped in favor of the incumbent.
  /// Every insert_race was already counted as a miss; a persistently
  /// nonzero rate means concurrent cold-start compiles are being
  /// duplicated (wasted work, not incorrect results).
  size_t insert_races = 0;
};

/// A PlanCache key: 128 bits from one ContentHash pass over
/// (references, options). `references` is the digest's low half taken
/// after the reference content alone (sparse::HashReferenceSet), so it
/// equals the fingerprint() of the plan compiled from those references;
/// `rest` is the high half taken after the execution-relevant option
/// fields and the fallback DM's content are mixed into the same stream.
struct PlanCacheKey {
  uint64_t references = 0;
  uint64_t rest = 0;
  bool operator==(const PlanCacheKey&) const = default;
};

/// A small thread-safe LRU cache of compiled CrosswalkPlans for
/// callers that construct pipelines repeatedly over the same reference
/// sets — eval/cross_validation's leave-one-out loop revisits each
/// reference subset once per objective and is the first consumer.
///
/// Keys are CONTENT hashes (PlanCacheKey: one word-at-a-time pass over
/// reference names/aggregates/CSR arrays, the option enums and
/// tolerances, and the fallback DM's content), never pointer
/// identities — equal inputs hit regardless of where they live.
/// `GeoAlignOptions::threads` is deliberately excluded: execution
/// results are bit-identical for every thread count (one column runs
/// on one thread), so plans are shared across thread configurations;
/// pass a thread count to `ExecuteMany(objectives, threads, output)`
/// to fan columns out.
///
/// Compilation runs outside the cache lock; when two threads miss the
/// same key concurrently, both compile and the first insert wins (the
/// loser's plan is dropped, both callers get valid plans).
/// `capacity == 0` disables caching: every call compiles and is
/// counted as a miss.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 16) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for (references, options), compiling and
  /// inserting it on a miss. The shared_ptr keeps the plan alive even
  /// after eviction, so callers may hold it indefinitely.
  Result<std::shared_ptr<const CrosswalkPlan>> GetOrCompile(
      const std::vector<ReferenceAttribute>& references,
      const GeoAlignOptions& options);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  PlanCacheStats stats() const;
  void Clear();

  /// The key GetOrCompile files (references, options) under.
  static PlanCacheKey MakeKey(
      const std::vector<ReferenceAttribute>& references,
      const GeoAlignOptions& options);

 private:
  struct KeyHash {
    // `rest` is a finished digest of every key input already.
    size_t operator()(const PlanCacheKey& k) const {
      return static_cast<size_t>(k.rest);
    }
  };
  struct Entry {
    PlanCacheKey key;
    std::shared_ptr<const CrosswalkPlan> plan;
  };

  /// Returns the cached plan for `key` (touched to MRU, hit counted),
  /// or null on a miss.
  std::shared_ptr<const CrosswalkPlan> LookupLocked(const PlanCacheKey& key)
      GEOALIGN_REQUIRES(mu_);

  /// Inserts `plan` under `key`, evicting down to capacity — unless a
  /// racing caller inserted the key while this one compiled unlocked,
  /// in which case the incumbent is returned (and `plan` dropped) so
  /// all callers share one plan per key.
  std::shared_ptr<const CrosswalkPlan> InsertOrAdoptLocked(
      const PlanCacheKey& key, std::shared_ptr<const CrosswalkPlan> plan)
      GEOALIGN_REQUIRES(mu_);

  /// Pops LRU entries until size() <= capacity_, counting evictions.
  void EvictLocked() GEOALIGN_REQUIRES(mu_);

  /// Guards every mutable member below. Leaf lock: never held across
  /// plan compilation (GetOrCompile compiles unlocked and re-locks to
  /// insert) nor across any call out of this class, so no ordering
  /// edges exist.
  mutable common::Mutex mu_;
  const size_t capacity_;  ///< immutable after construction
  /// Recency list, front = most recently used. The eviction scan walks
  /// this ordered list; the unordered map below is only ever probed
  /// point-wise (find/emplace/erase), never iterated.
  std::list<Entry> lru_ GEOALIGN_GUARDED_BY(mu_);
  std::unordered_map<PlanCacheKey, std::list<Entry>::iterator, KeyHash> index_
      GEOALIGN_GUARDED_BY(mu_);
  PlanCacheStats stats_ GEOALIGN_GUARDED_BY(mu_);
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_PLAN_CACHE_H_
