// Unit tests for JSON / GeoJSON / crosswalk-file I/O and the
// regression baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/regression.h"
#include "io/crosswalk_io.h"
#include "io/csv.h"
#include "io/geojson.h"
#include "io/json.h"
#include "test_temp_path.h"

namespace geoalign {
namespace {

using io::JsonValue;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(std::move(io::ParseJson("null")).ValueOrDie().is_null());
  EXPECT_EQ(std::move(std::move(io::ParseJson("true")).ValueOrDie().AsBool()).ValueOrDie(), true);
  EXPECT_DOUBLE_EQ(std::move(std::move(io::ParseJson("-3.5e2")).ValueOrDie().AsNumber()).ValueOrDie(),
                   -350.0);
  EXPECT_EQ(std::move(std::move(io::ParseJson("\"a\\nb\"")).ValueOrDie().AsString()).ValueOrDie(),
            "a\nb");
}

TEST(Json, ParsesNested) {
  auto v = std::move(io::ParseJson(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})")).ValueOrDie();
  auto a = std::move(v.Get("a")).ValueOrDie();
  EXPECT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(std::move((*a)[1].AsNumber()).ValueOrDie(), 2.0);
  auto b = std::move((*a)[2].Get("b")).ValueOrDie();
  EXPECT_EQ(std::move(b->AsString()).ValueOrDie(), "x");
  EXPECT_TRUE(v.Has("c"));
  EXPECT_FALSE(v.Has("z"));
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(std::move(std::move(io::ParseJson("\"\\u0041\"")).ValueOrDie().AsString()).ValueOrDie(),
            "A");
  EXPECT_FALSE(io::ParseJson("\"\\u20AC\"").ok());  // non-ASCII rejected
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(io::ParseJson("").ok());
  EXPECT_FALSE(io::ParseJson("{").ok());
  EXPECT_FALSE(io::ParseJson("[1,]").ok());
  EXPECT_FALSE(io::ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(io::ParseJson("12 34").ok());
  EXPECT_FALSE(io::ParseJson("\"unterminated").ok());
}

TEST(Json, DeepNestingRejectedNotCrashed) {
  std::string deep(100000, '[');
  EXPECT_FALSE(io::ParseJson(deep).ok());
  // Moderate nesting within the limit still parses.
  std::string ok_doc = std::string(200, '[') + "1" + std::string(200, ']');
  EXPECT_TRUE(io::ParseJson(ok_doc).ok());
}

TEST(Json, DumpRoundTrip) {
  const char* text =
      R"({"arr":[1,2.5,"s"],"flag":true,"name":"x","none":null})";
  auto v = std::move(io::ParseJson(text)).ValueOrDie();
  auto back = std::move(io::ParseJson(v.Dump())).ValueOrDie();
  EXPECT_EQ(v.Dump(), back.Dump());
}

constexpr const char* kFeatureCollection = R"({
  "type": "FeatureCollection",
  "features": [
    {"type": "Feature",
     "geometry": {"type": "Polygon",
                  "coordinates": [[[0,0],[4,0],[4,4],[0,4],[0,0]],
                                  [[1,1],[2,1],[2,2],[1,2],[1,1]]]},
     "properties": {"name": "alpha", "pop": 1234}},
    {"type": "Feature",
     "geometry": {"type": "MultiPolygon",
                  "coordinates": [[[[10,10],[11,10],[11,11],[10,11]]],
                                  [[[20,20],[21,20],[21,21],[20,21]]]]},
     "properties": {"name": "beta", "pop": 7}}
  ]
})";

TEST(GeoJson, ParsesFeatureCollection) {
  auto fc = std::move(io::ParseGeoJson(kFeatureCollection)).ValueOrDie();
  ASSERT_EQ(fc.features.size(), 2u);
  // Polygon with a hole: area 16 - 1.
  ASSERT_EQ(fc.features[0].geometry.size(), 1u);
  EXPECT_DOUBLE_EQ(fc.features[0].geometry[0].Area(), 15.0);
  EXPECT_EQ(fc.features[0].properties.at("name"), "alpha");
  EXPECT_EQ(fc.features[0].properties.at("pop"), "1234");
  // MultiPolygon with 2 parts.
  EXPECT_EQ(fc.features[1].geometry.size(), 2u);
  auto names = std::move(fc.PropertyColumn("name")).ValueOrDie();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_FALSE(fc.PropertyColumn("missing").ok());
}

TEST(GeoJson, ParsesBareGeometry) {
  auto fc = std::move(io::ParseGeoJson(
      R"({"type":"Polygon","coordinates":[[[0,0],[1,0],[0,1]]]})")).ValueOrDie();
  ASSERT_EQ(fc.features.size(), 1u);
  EXPECT_DOUBLE_EQ(fc.features[0].geometry[0].Area(), 0.5);
}

TEST(GeoJson, RejectsUnsupported) {
  EXPECT_FALSE(io::ParseGeoJson(
                   R"({"type":"Point","coordinates":[1,2]})")
                   .ok());
  EXPECT_FALSE(io::ParseGeoJson(R"({"type":"Feature"})").ok());
  EXPECT_FALSE(io::ParseGeoJson("not json").ok());
}

TEST(GeoJson, RoundTrip) {
  auto fc = std::move(io::ParseGeoJson(kFeatureCollection)).ValueOrDie();
  std::string text = io::ToGeoJson(fc);
  auto back = std::move(io::ParseGeoJson(text)).ValueOrDie();
  ASSERT_EQ(back.features.size(), 2u);
  EXPECT_DOUBLE_EQ(back.features[0].geometry[0].Area(), 15.0);
  EXPECT_EQ(back.features[1].properties.at("name"), "beta");
}

TEST(GeoJson, FileRoundTrip) {
  auto fc = std::move(io::ParseGeoJson(kFeatureCollection)).ValueOrDie();
  std::string path = TestTempPath(".geojson");
  ASSERT_TRUE(io::WriteGeoJsonFile(fc, path).ok());
  auto back = std::move(io::ReadGeoJsonFile(path)).ValueOrDie();
  EXPECT_EQ(back.features.size(), 2u);
  std::remove(path.c_str());
  EXPECT_FALSE(io::ReadGeoJsonFile("/no/such.geojson").ok());
}

constexpr const char* kCrosswalkCsv =
    "source,target,value\n"
    "10001,New York,21102\n"
    "10002,New York,70000\n"
    "10002,Bronx,11410\n"
    "10003,Bronx,56024\n";

TEST(CrosswalkIo, LoadsLongForm) {
  auto table = std::move(io::ParseCsv(kCrosswalkCsv)).ValueOrDie();
  auto cw = std::move(io::CrosswalkFromTable(table, "source", "target",
                                             "value")).ValueOrDie();
  EXPECT_EQ(cw.source_units,
            (std::vector<std::string>{"10001", "10002", "10003"}));
  EXPECT_EQ(cw.target_units, (std::vector<std::string>{"Bronx", "New York"}));
  EXPECT_DOUBLE_EQ(cw.dm.At(1, 0), 11410.0);  // 10002 x Bronx
  EXPECT_DOUBLE_EQ(cw.dm.At(1, 1), 70000.0);
  auto ref = io::ReferenceFromCrosswalk("population", cw);
  EXPECT_EQ(ref.source_aggregates,
            (linalg::Vector{21102.0, 81410.0, 56024.0}));
}

TEST(CrosswalkIo, ExplicitUnitOrderingRespected) {
  auto table = std::move(io::ParseCsv(kCrosswalkCsv)).ValueOrDie();
  auto cw = std::move(io::CrosswalkFromTable(
      table, "source", "target", "value",
      {"10003", "10002", "10001"}, {"New York", "Bronx"})).ValueOrDie();
  EXPECT_DOUBLE_EQ(cw.dm.At(0, 1), 56024.0);  // 10003 x Bronx
  // Unknown unit -> error.
  EXPECT_FALSE(io::CrosswalkFromTable(table, "source", "target", "value",
                                      {"10001"}, {})
                   .ok());
  // A duplicate name in an explicit list -> error, not a silently
  // empty row.
  auto dup = std::move(io::ParseCsv("source,target,value\na,x,1\nb,x,2\n"))
                 .ValueOrDie();
  Result<io::LoadedCrosswalk> dup_source = io::CrosswalkFromTable(
      dup, "source", "target", "value", {"a", "b", "a"}, {"x"});
  ASSERT_FALSE(dup_source.ok());
  EXPECT_EQ(dup_source.status().message(), "duplicate source unit name 'a'");
  Result<io::LoadedCrosswalk> dup_target = io::CrosswalkFromTable(
      dup, "source", "target", "value", {}, {"x", "x"});
  ASSERT_FALSE(dup_target.ok());
  EXPECT_EQ(dup_target.status().message(), "duplicate target unit name 'x'");
}

TEST(CrosswalkIo, RejectsNegativeAndBadColumns) {
  auto bad = std::move(io::ParseCsv("source,target,value\na,b,-1\n")).ValueOrDie();
  EXPECT_FALSE(
      io::CrosswalkFromTable(bad, "source", "target", "value").ok());
  // strtod parses these, and NaN passes a plain `< 0` test.
  for (const char* value : {"nan", "inf", "-nan"}) {
    auto non_finite =
        std::move(io::ParseCsv(std::string("source,target,value\n") +
                               "a,b,1\na,c," + value + "\n"))
            .ValueOrDie();
    Result<io::LoadedCrosswalk> cw =
        io::CrosswalkFromTable(non_finite, "source", "target", "value");
    ASSERT_FALSE(cw.ok()) << value;
    EXPECT_EQ(cw.status().message(),
              "crosswalk row 1: negative or non-finite value")
        << value;
  }
  auto table = std::move(io::ParseCsv(kCrosswalkCsv)).ValueOrDie();
  EXPECT_FALSE(io::CrosswalkFromTable(table, "nope", "target", "value").ok());
}

TEST(CrosswalkIo, AggregatesFromTable) {
  auto table = std::move(io::ParseCsv("unit,value\nb,2\na,1\nb,3\n")).ValueOrDie();
  auto vec = std::move(io::AggregatesFromTable(table, "unit", "value",
                                               {"a", "b", "c"})).ValueOrDie();
  EXPECT_EQ(vec, (linalg::Vector{1.0, 5.0, 0.0}));
  EXPECT_FALSE(
      io::AggregatesFromTable(table, "unit", "value", {"a"}).ok());
  Result<linalg::Vector> dup =
      io::AggregatesFromTable(table, "unit", "value", {"a", "b", "a"});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().message(), "duplicate aggregate unit name 'a'");
  // A negative or non-finite cell is rejected rather than summed into
  // its unit, where it would hide (these would read a = 2, NaN, NaN).
  for (const char* csv : {"unit,value\na,-1\na,3\nb,1\n",
                          "unit,value\na,nan\n",
                          "unit,value\na,inf\na,-inf\n"}) {
    auto bad = std::move(io::ParseCsv(csv)).ValueOrDie();
    Result<linalg::Vector> rejected =
        io::AggregatesFromTable(bad, "unit", "value", {"a", "b"});
    ASSERT_FALSE(rejected.ok()) << csv;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << csv;
    EXPECT_EQ(rejected.status().message(),
              "aggregate row 0: negative or non-finite value")
        << csv;
  }
  // The row's unit name is resolved before its value is checked.
  auto unknown_first =
      std::move(io::ParseCsv("unit,value\nzz,-1\n")).ValueOrDie();
  Result<linalg::Vector> unknown =
      io::AggregatesFromTable(unknown_first, "unit", "value", {"a"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().message(), "aggregate row 0: unknown unit 'zz'");
}

core::ReferenceAttribute DenseRef(const char* name,
                                  std::vector<std::vector<double>> rows) {
  core::ReferenceAttribute ref;
  ref.name = name;
  ref.disaggregation =
      sparse::CsrMatrix::FromDense(linalg::Matrix::FromRows(rows));
  ref.source_aggregates = ref.disaggregation.RowSums();
  return ref;
}

TEST(RegressionBaseline, ExactWhenObjectiveIsLinearInReferences) {
  core::CrosswalkInput input;
  input.references.push_back(
      DenseRef("a", {{2.0, 0.0}, {1.0, 3.0}, {0.0, 4.0}}));
  input.references.push_back(
      DenseRef("b", {{0.0, 1.0}, {2.0, 0.0}, {3.0, 1.0}}));
  // objective source = 2*a_source + 0.5*b_source (references are not
  // collinear at source level, so the OLS fit is unique).
  input.objective_source = {2.0 * 2.0 + 0.5 * 1.0, 2.0 * 4.0 + 0.5 * 2.0,
                            2.0 * 4.0 + 0.5 * 4.0};
  core::RegressionBaseline reg;
  auto res = std::move(reg.Crosswalk(input)).ValueOrDie();
  // Prediction = 2 * a_target + 0.5 * b_target.
  linalg::Vector a_t = input.references[0].TargetAggregates();
  linalg::Vector b_t = input.references[1].TargetAggregates();
  for (size_t j = 0; j < a_t.size(); ++j) {
    EXPECT_NEAR(res.target_estimates[j], 2.0 * a_t[j] + 0.5 * b_t[j], 1e-9);
  }
}

TEST(RegressionBaseline, ClampsNegativePredictions) {
  core::CrosswalkInput input;
  input.references.push_back(DenseRef("a", {{1.0, 0.0}, {0.0, 5.0}}));
  // Negative coefficient fit: objective anti-follows the reference.
  input.objective_source = {10.0, 0.0};
  core::RegressionBaseline reg;
  auto res = std::move(reg.Crosswalk(input)).ValueOrDie();
  for (double v : res.target_estimates) EXPECT_GE(v, 0.0);
}

TEST(RegressionBaseline, DuplicateReferencesFallBack) {
  core::CrosswalkInput input;
  input.references.push_back(DenseRef("a", {{1.0, 0.0}, {0.0, 2.0}}));
  input.references.push_back(DenseRef("a2", {{1.0, 0.0}, {0.0, 2.0}}));
  input.objective_source = {3.0, 6.0};
  core::RegressionBaseline reg;
  auto res = reg.Crosswalk(input);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(linalg::Sum(res->target_estimates), 0.0);
}

TEST(RegressionBaseline, NotVolumePreserving) {
  // Document the contrast with GeoAlign: regression predictions need
  // not conserve total mass.
  core::CrosswalkInput input;
  input.references.push_back(
      DenseRef("a", {{2.0, 1.0}, {1.0, 3.0}, {5.0, 0.0}}));
  input.objective_source = {1.0, 10.0, 2.0};  // poorly explained
  core::RegressionBaseline reg;
  auto res = std::move(reg.Crosswalk(input)).ValueOrDie();
  EXPECT_EQ(res.estimated_dm.nnz(), 0u);  // no DM interpretation
}

}  // namespace
}  // namespace geoalign
