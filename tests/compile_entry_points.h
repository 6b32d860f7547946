#ifndef GEOALIGN_TESTS_COMPILE_ENTRY_POINTS_H_
#define GEOALIGN_TESTS_COMPILE_ENTRY_POINTS_H_

// Every C++ entry point that compiles a reference set, run on one
// input, for the tests that pin one code and one message per fault
// across entry points (capi_test.cc, plan_equivalence_test.cc).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/batch.h"
#include "core/crosswalk_plan.h"
#include "core/geoalign.h"
#include "core/pipeline.h"
#include "core/plan_cache.h"

namespace geoalign {

/// The status of each compiling entry point on `input` under `options`,
/// named by entry point: both CrosswalkPlan::Compile overloads (owning
/// and view), GeoAlign::Crosswalk and LearnWeights,
/// PlanCache::GetOrCompile, BatchCrosswalk::Create, a
/// CrosswalkPipeline with a GeoAlign method, which defers a compile
/// error to Realign, and the oracle, CrosswalkUncompiled. The pipeline's unit lists are "s<i>" and "t<j>",
/// one per objective entry and per column of the first reference's DM.
inline std::vector<std::pair<std::string, Status>> CompileEntryPoints(
    const core::CrosswalkInput& input,
    const core::GeoAlignOptions& options = {}) {
  const std::vector<core::ReferenceAttribute>& refs = input.references;
  std::vector<core::ReferenceAttributeView> views;
  for (const core::ReferenceAttribute& ref : refs) {
    views.push_back(
        {ref.name, ref.source_aggregates, ref.disaggregation, nullptr});
  }
  std::vector<std::string> source_units;
  std::vector<std::pair<std::string, double>> objective;
  for (size_t i = 0; i < input.NumSourceUnits(); ++i) {
    source_units.push_back("s" + std::to_string(i));
    objective.emplace_back(source_units.back(), input.objective_source[i]);
  }
  std::vector<std::string> target_units;
  for (size_t j = 0; j < input.NumTargetUnits(); ++j) {
    target_units.push_back("t" + std::to_string(j));
  }
  const core::GeoAlign geoalign(options);
  core::PlanCache cache;
  Result<core::CrosswalkPipeline> pipeline = core::CrosswalkPipeline::Create(
      std::move(source_units), std::move(target_units), refs,
      std::make_shared<core::GeoAlign>(options));
  return {
      {"Compile", core::CrosswalkPlan::Compile(refs, options).status()},
      {"Compile(views)",
       core::CrosswalkPlan::Compile(std::move(views), options).status()},
      {"Crosswalk", geoalign.Crosswalk(input).status()},
      {"LearnWeights", geoalign.LearnWeights(input).status()},
      {"GetOrCompile", cache.GetOrCompile(refs, options).status()},
      {"BatchCrosswalk::Create",
       core::BatchCrosswalk::Create(refs, options).status()},
      {"CrosswalkPipeline",
       pipeline.ok() ? pipeline->Realign(objective).status()
                     : pipeline.status()},
      {"CrosswalkUncompiled",
       core::CrosswalkUncompiled(input, options).status()},
  };
}

}  // namespace geoalign

#endif  // GEOALIGN_TESTS_COMPILE_ENTRY_POINTS_H_
