#ifndef GEOALIGN_IO_CROSSWALK_IO_H_
#define GEOALIGN_IO_CROSSWALK_IO_H_

#include <string>
#include <vector>

#include "core/crosswalk_input.h"
#include "io/table.h"

namespace geoalign::io {

/// Loaders for the on-disk crosswalk formats real pipelines exchange
/// (HUD-USPS-style relationship files), built on the CSV/Table layer.
///
/// Long-form crosswalk CSV: one row per non-empty intersection,
/// columns <source>,<target>,<value>. Aggregate CSV: one row per unit,
/// columns <unit>,<value>.

/// A crosswalk file resolved against explicit unit orderings.
struct LoadedCrosswalk {
  std::vector<std::string> source_units;  ///< row order of `dm`
  std::vector<std::string> target_units;  ///< column order of `dm`
  sparse::CsrMatrix dm;
};

/// Parses a long-form crosswalk table. When `source_units` /
/// `target_units` are empty they are derived from the table (sorted,
/// deduplicated); otherwise unknown unit names and duplicate names in
/// either list are errors. Duplicate (source,target) rows are summed;
/// negative and non-finite values are rejected.
Result<LoadedCrosswalk> CrosswalkFromTable(
    const Table& table, const std::string& source_column,
    const std::string& target_column, const std::string& value_column,
    std::vector<std::string> source_units = {},
    std::vector<std::string> target_units = {});

/// Builds a ReferenceAttribute from a loaded crosswalk; the source
/// aggregates are the DM row sums.
core::ReferenceAttribute ReferenceFromCrosswalk(std::string name,
                                                const LoadedCrosswalk& cw);

/// Resolves a (unit,value) aggregate table into a vector aligned with
/// `units`; missing units get 0, unknown units error, duplicate rows
/// sum. A duplicate name in `units` is an error. Like a crosswalk
/// cell, every value must be finite and >= 0: a negative, NaN or
/// infinite cell is InvalidArgument `aggregate row <r>: negative or
/// non-finite value`, checked after the row's unit name.
Result<linalg::Vector> AggregatesFromTable(
    const Table& table, const std::string& unit_column,
    const std::string& value_column, const std::vector<std::string>& units);

}  // namespace geoalign::io

#endif  // GEOALIGN_IO_CROSSWALK_IO_H_
