#ifndef PERFBENCH_US_SUITE_H_
#define PERFBENCH_US_SUITE_H_

#include <string>
#include <vector>

#include "core/crosswalk_input.h"
#include "synth/universe.h"

namespace perfbench {

/// The paper's US universe (30,831 zips → 2,985 counties at scale 1)
/// with its 10-dataset suite. The universe itself is fixed (seed 2018);
/// run seeds only drive the request streams drawn from it.
geoalign::synth::Universe BuildUsUniverse(double scale);

/// Datasets `keep` of the universe as reference attributes.
std::vector<geoalign::core::ReferenceAttribute> References(
    const geoalign::synth::Universe& universe, const std::vector<size_t>& keep);

/// The five dense layers whose DMs share one CSR structure (Population,
/// USPS Residential, USPS Business, Area, Accidents).
std::vector<size_t> DenseLayerIndices(const geoalign::synth::Universe& universe);

/// Non-zeros of the references' DMs: the shared structure's count when
/// the set is aligned, else the sum over references.
double ReferenceNnz(
    const std::vector<geoalign::core::ReferenceAttribute>& references);

}  // namespace perfbench

#endif  // PERFBENCH_US_SUITE_H_
