#include "us_suite.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace synth = geoalign::synth;

synth::Universe BuildUsUniverse(double scale) {
  synth::UniverseOptions options;
  options.seed = 2018;
  options.scale = scale;
  options.suite = synth::SuiteKind::kUnitedStates;
  auto built = synth::BuildUniverse(synth::UniverseId::kUnitedStates, options);
  if (!built.ok()) {
    std::fprintf(stderr, "cannot build the US universe: %s\n",
                 built.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(built).value();
}

std::vector<geoalign::core::ReferenceAttribute> References(
    const synth::Universe& universe, const std::vector<size_t>& keep) {
  std::vector<geoalign::core::ReferenceAttribute> refs;
  for (size_t k : keep) {
    const synth::Dataset& d = universe.datasets[k];
    refs.push_back({d.name, d.source, d.dm});
  }
  return refs;
}

std::vector<size_t> DenseLayerIndices(const synth::Universe& universe) {
  static const char* const kDense[] = {
      "Population", "USPS Residential Address", "USPS Business Address",
      "Area (Sq. Miles)", "Accidents"};
  std::vector<size_t> indices;
  for (const char* name : kDense) {
    auto found = universe.FindDataset(name);
    if (!found.ok()) {
      std::fprintf(stderr, "US suite lacks dataset %s\n", name);
      std::exit(2);
    }
    indices.push_back(*found);
  }
  return indices;
}

double ReferenceNnz(
    const std::vector<geoalign::core::ReferenceAttribute>& references) {
  double total = 0.0;
  bool shared = true;
  for (const geoalign::core::ReferenceAttribute& ref : references) {
    total += static_cast<double>(ref.disaggregation.nnz());
    const geoalign::sparse::CsrMatrix& first = references[0].disaggregation;
    shared = shared &&
             std::equal(ref.disaggregation.row_ptr().begin(),
                        ref.disaggregation.row_ptr().end(),
                        first.row_ptr().begin(), first.row_ptr().end()) &&
             std::equal(ref.disaggregation.col_idx().begin(),
                        ref.disaggregation.col_idx().end(),
                        first.col_idx().begin(), first.col_idx().end());
  }
  if (shared && !references.empty()) {
    return static_cast<double>(references[0].disaggregation.nnz());
  }
  return total;
}

}  // namespace perfbench
