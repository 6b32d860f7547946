#include "core/plan_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "sparse/prepared_reference.h"

namespace geoalign::core {

namespace {

// Registry mirrors of PlanCacheStats, aggregated across instances
// (catalog: docs/observability.md).
obs::Counter& CacheHits() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("plan_cache.hits");
  return c;
}
obs::Counter& CacheMisses() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("plan_cache.misses");
  return c;
}
obs::Counter& CacheEvictions() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("plan_cache.evictions");
  return c;
}
obs::Counter& CacheInsertRaces() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("plan_cache.insert_races");
  return c;
}

}  // namespace

PlanCacheKey PlanCache::MakeKey(
    const std::vector<ReferenceAttribute>& references,
    const GeoAlignOptions& options) {
  // The same function, bytes and order as PreparedReferenceSet::Prepare,
  // so the reference half equals the fingerprint of the plan compiled
  // on a miss.
  sparse::ContentHash hash = sparse::HashReferenceSet(references);
  PlanCacheKey key;
  key.references = hash.Finish().lo;
  hash.MixU64(static_cast<uint64_t>(options.scale_mode));
  hash.MixU64(static_cast<uint64_t>(options.solver));
  hash.MixU64(static_cast<uint64_t>(options.denominator));
  hash.MixU64(static_cast<uint64_t>(options.zero_row_fallback));
  hash.MixDouble(options.zero_tolerance);
  hash.MixDouble(options.solver_options.tolerance);
  hash.MixSize(options.solver_options.max_iterations);
  hash.MixDouble(options.solver_options.ridge_on_singular);
  // options.threads is intentionally NOT mixed (see class comment).
  if (options.fallback_dm != nullptr) {
    const sparse::CsrMatrix& fb = *options.fallback_dm;
    hash.MixSize(fb.rows());
    hash.MixSize(fb.cols());
    hash.MixSizes(fb.row_ptr());
    hash.MixSizes(fb.col_idx());
    hash.MixDoubles(fb.values());
  } else {
    hash.MixU64(0);
  }
  key.rest = hash.Finish().hi;
  return key;
}

std::shared_ptr<const CrosswalkPlan> PlanCache::LookupLocked(
    const PlanCacheKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  ++stats_.hits;
  CacheHits().Add(1);
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->plan;
}

std::shared_ptr<const CrosswalkPlan> PlanCache::InsertOrAdoptLocked(
    const PlanCacheKey& key, std::shared_ptr<const CrosswalkPlan> plan) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread compiled the same key while we were unlocked;
    // keep the incumbent so all callers share one plan. The dropped
    // compile is recorded as an insert race (see PlanCacheStats).
    ++stats_.insert_races;
    CacheInsertRaces().Add(1);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->plan;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_.emplace(key, lru_.begin());
  EvictLocked();
  return lru_.front().plan;
}

void PlanCache::EvictLocked() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    CacheEvictions().Add(1);
  }
}

Result<std::shared_ptr<const CrosswalkPlan>> PlanCache::GetOrCompile(
    const std::vector<ReferenceAttribute>& references,
    const GeoAlignOptions& options) {
  PlanCacheKey key = MakeKey(references, options);

  {
    common::MutexLock lock(mu_);
    if (capacity_ > 0) {
      if (std::shared_ptr<const CrosswalkPlan> hit = LookupLocked(key)) {
        return hit;
      }
    }
    ++stats_.misses;
  }
  CacheMisses().Add(1);

  // Compile outside the lock: plan compilation walks every reference
  // DM and must not serialize concurrent callers on unrelated keys.
  GEOALIGN_ASSIGN_OR_RETURN(CrosswalkPlan compiled,
                            CrosswalkPlan::Compile(references, options));
  auto plan =
      std::make_shared<const CrosswalkPlan>(std::move(compiled));
  if (capacity_ == 0) return plan;

  common::MutexLock lock(mu_);
  return InsertOrAdoptLocked(key, std::move(plan));
}

size_t PlanCache::size() const {
  common::MutexLock lock(mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

void PlanCache::Clear() {
  common::MutexLock lock(mu_);
  index_.clear();
  lru_.clear();
}

}  // namespace geoalign::core
