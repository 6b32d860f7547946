#include "io/crosswalk_io.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/unit_index.h"
#include "sparse/coo_builder.h"

namespace geoalign::io {

namespace {

using common::UnitIndex;

// strtod accepts "nan" and "inf", so a parsed value column can hold
// them; both loaders reject those and negative cells.
bool NonNegativeFinite(double v) { return std::isfinite(v) && v >= 0.0; }

std::vector<std::string> SortedUnique(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

}  // namespace

Result<LoadedCrosswalk> CrosswalkFromTable(
    const Table& table, const std::string& source_column,
    const std::string& target_column, const std::string& value_column,
    std::vector<std::string> source_units,
    std::vector<std::string> target_units) {
  GEOALIGN_ASSIGN_OR_RETURN(std::vector<std::string> sources,
                            table.StringColumn(source_column));
  GEOALIGN_ASSIGN_OR_RETURN(std::vector<std::string> targets,
                            table.StringColumn(target_column));
  GEOALIGN_ASSIGN_OR_RETURN(std::vector<double> values,
                            table.NumericColumn(value_column));

  LoadedCrosswalk out;
  out.source_units =
      source_units.empty() ? SortedUnique(sources) : std::move(source_units);
  out.target_units =
      target_units.empty() ? SortedUnique(targets) : std::move(target_units);
  GEOALIGN_ASSIGN_OR_RETURN(UnitIndex src_index,
                            UnitIndex::Create(out.source_units, "source"));
  GEOALIGN_ASSIGN_OR_RETURN(UnitIndex tgt_index,
                            UnitIndex::Create(out.target_units, "target"));

  sparse::CooBuilder builder(out.source_units.size(),
                             out.target_units.size());
  for (size_t r = 0; r < values.size(); ++r) {
    const size_t si = src_index.Find(sources[r]);
    if (si == UnitIndex::kNotFound) {
      return Status::NotFound(StrFormat("crosswalk row %zu: unknown source "
                                        "unit '%s'",
                                        r, sources[r].c_str()));
    }
    const size_t ti = tgt_index.Find(targets[r]);
    if (ti == UnitIndex::kNotFound) {
      return Status::NotFound(StrFormat("crosswalk row %zu: unknown target "
                                        "unit '%s'",
                                        r, targets[r].c_str()));
    }
    if (!NonNegativeFinite(values[r])) {
      return Status::InvalidArgument(StrFormat(
          "crosswalk row %zu: negative or non-finite value", r));
    }
    builder.Add(si, ti, values[r]);
  }
  out.dm = builder.Build();
  return out;
}

core::ReferenceAttribute ReferenceFromCrosswalk(std::string name,
                                                const LoadedCrosswalk& cw) {
  core::ReferenceAttribute ref;
  ref.name = std::move(name);
  ref.disaggregation = cw.dm;
  ref.source_aggregates = cw.dm.RowSums();
  return ref;
}

Result<linalg::Vector> AggregatesFromTable(
    const Table& table, const std::string& unit_column,
    const std::string& value_column,
    const std::vector<std::string>& units) {
  GEOALIGN_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            table.StringColumn(unit_column));
  GEOALIGN_ASSIGN_OR_RETURN(std::vector<double> values,
                            table.NumericColumn(value_column));
  GEOALIGN_ASSIGN_OR_RETURN(UnitIndex index,
                            UnitIndex::Create(units, "aggregate"));
  linalg::Vector out(units.size(), 0.0);
  for (size_t r = 0; r < names.size(); ++r) {
    const size_t i = index.Find(names[r]);
    if (i == UnitIndex::kNotFound) {
      return Status::NotFound(StrFormat(
          "aggregate row %zu: unknown unit '%s'", r, names[r].c_str()));
    }
    if (!NonNegativeFinite(values[r])) {
      return Status::InvalidArgument(StrFormat(
          "aggregate row %zu: negative or non-finite value", r));
    }
    out[i] += values[r];
  }
  return out;
}

}  // namespace geoalign::io
