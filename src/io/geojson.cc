#include "io/geojson.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "io/json.h"
#include "obs/trace.h"

namespace geoalign::io {

Result<std::vector<std::string>> FeatureCollection::PropertyColumn(
    const std::string& key) const {
  std::vector<std::string> out;
  out.reserve(features.size());
  for (size_t i = 0; i < features.size(); ++i) {
    auto it = features[i].properties.find(key);
    if (it == features[i].properties.end()) {
      return Status::NotFound(StrFormat(
          "GeoJSON: feature %zu lacks property '%s'", i, key.c_str()));
    }
    out.push_back(it->second);
  }
  return out;
}

namespace {

Result<geom::Ring> ParseRing(const JsonValue& coords) {
  if (coords.kind() != JsonValue::Kind::kArray || coords.size() < 3) {
    return Status::InvalidArgument("GeoJSON: ring needs >= 3 positions");
  }
  geom::Ring ring;
  ring.reserve(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    const JsonValue& pos = coords[i];
    if (pos.kind() != JsonValue::Kind::kArray || pos.size() < 2) {
      return Status::InvalidArgument("GeoJSON: position needs 2 numbers");
    }
    GEOALIGN_ASSIGN_OR_RETURN(double x, pos[0].AsNumber());
    GEOALIGN_ASSIGN_OR_RETURN(double y, pos[1].AsNumber());
    ring.push_back({x, y});
  }
  if (ring.size() >= 2 && ring.front() == ring.back()) ring.pop_back();
  return ring;
}

Result<geom::Polygon> ParsePolygonCoords(const JsonValue& coords) {
  if (coords.kind() != JsonValue::Kind::kArray || coords.size() == 0) {
    return Status::InvalidArgument("GeoJSON: polygon needs >= 1 ring");
  }
  GEOALIGN_ASSIGN_OR_RETURN(geom::Ring outer, ParseRing(coords[0]));
  std::vector<geom::Ring> holes;
  for (size_t r = 1; r < coords.size(); ++r) {
    GEOALIGN_ASSIGN_OR_RETURN(geom::Ring hole, ParseRing(coords[r]));
    holes.push_back(std::move(hole));
  }
  return geom::Polygon::Create(std::move(outer), std::move(holes));
}

Result<std::vector<geom::Polygon>> ParseGeometry(const JsonValue& geometry) {
  GEOALIGN_ASSIGN_OR_RETURN(const JsonValue* type_v, geometry.Get("type"));
  GEOALIGN_ASSIGN_OR_RETURN(std::string type, type_v->AsString());
  GEOALIGN_ASSIGN_OR_RETURN(const JsonValue* coords,
                            geometry.Get("coordinates"));
  std::vector<geom::Polygon> out;
  if (type == "Polygon") {
    GEOALIGN_ASSIGN_OR_RETURN(geom::Polygon poly, ParsePolygonCoords(*coords));
    out.push_back(std::move(poly));
    return out;
  }
  if (type == "MultiPolygon") {
    for (size_t p = 0; p < coords->size(); ++p) {
      GEOALIGN_ASSIGN_OR_RETURN(geom::Polygon poly,
                                ParsePolygonCoords((*coords)[p]));
      out.push_back(std::move(poly));
    }
    return out;
  }
  return Status::Unimplemented("GeoJSON: unsupported geometry type '" +
                               type + "'");
}

std::string PropertyValueToString(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kString:
      return std::move(v.AsString()).ValueOrDie();
    case JsonValue::Kind::kNumber: {
      double n = std::move(v.AsNumber()).ValueOrDie();
      return StrFormat("%g", n);
    }
    case JsonValue::Kind::kBool:
      return std::move(v.AsBool()).ValueOrDie() ? "true" : "false";
    default:
      return v.Dump();
  }
}

Result<Feature> ParseFeature(const JsonValue& value) {
  Feature f;
  GEOALIGN_ASSIGN_OR_RETURN(const JsonValue* geometry, value.Get("geometry"));
  GEOALIGN_ASSIGN_OR_RETURN(f.geometry, ParseGeometry(*geometry));
  if (value.Has("properties")) {
    const JsonValue* props = std::move(value.Get("properties")).ValueOrDie();
    if (props->kind() == JsonValue::Kind::kObject) {
      for (const auto& [key, v] : props->members()) {
        f.properties.emplace(key, PropertyValueToString(v));
      }
    }
  }
  return f;
}

void AppendRingCoords(const geom::Ring& ring, bool reverse,
                      std::vector<JsonValue>* out) {
  std::vector<JsonValue> coords;
  size_t n = ring.size();
  for (size_t i = 0; i <= n; ++i) {  // closed ring
    size_t idx = i % n;
    if (reverse) idx = (n - idx) % n;
    coords.push_back(JsonValue::MakeArray(
        {JsonValue::MakeNumber(ring[idx].x),
         JsonValue::MakeNumber(ring[idx].y)}));
  }
  out->push_back(JsonValue::MakeArray(std::move(coords)));
}

JsonValue PolygonCoords(const geom::Polygon& poly) {
  std::vector<JsonValue> rings;
  AppendRingCoords(poly.outer(), /*reverse=*/false, &rings);
  for (const geom::Ring& hole : poly.holes()) {
    AppendRingCoords(hole, /*reverse=*/false, &rings);
  }
  return JsonValue::MakeArray(std::move(rings));
}

}  // namespace

Result<FeatureCollection> ParseGeoJson(const std::string& text) {
  GEOALIGN_TRACE_SPAN("io.parse_geojson");
  GEOALIGN_ASSIGN_OR_RETURN(JsonValue root, ParseJson(text));
  GEOALIGN_ASSIGN_OR_RETURN(const JsonValue* type_v, root.Get("type"));
  GEOALIGN_ASSIGN_OR_RETURN(std::string type, type_v->AsString());
  FeatureCollection fc;
  if (type == "FeatureCollection") {
    GEOALIGN_ASSIGN_OR_RETURN(const JsonValue* features,
                              root.Get("features"));
    for (size_t i = 0; i < features->size(); ++i) {
      GEOALIGN_ASSIGN_OR_RETURN(Feature f, ParseFeature((*features)[i]));
      fc.features.push_back(std::move(f));
    }
    return fc;
  }
  if (type == "Feature") {
    GEOALIGN_ASSIGN_OR_RETURN(Feature f, ParseFeature(root));
    fc.features.push_back(std::move(f));
    return fc;
  }
  if (type == "Polygon" || type == "MultiPolygon") {
    Feature f;
    GEOALIGN_ASSIGN_OR_RETURN(f.geometry, ParseGeometry(root));
    fc.features.push_back(std::move(f));
    return fc;
  }
  return Status::Unimplemented("GeoJSON: unsupported root type '" + type +
                               "'");
}

Result<FeatureCollection> ReadGeoJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseGeoJson(buf.str());
}

std::string ToGeoJson(const FeatureCollection& fc) {
  std::vector<JsonValue> features;
  for (const Feature& f : fc.features) {
    std::map<std::string, JsonValue> feature;
    feature.emplace("type", JsonValue::MakeString("Feature"));
    std::map<std::string, JsonValue> geometry;
    if (f.geometry.size() == 1) {
      geometry.emplace("type", JsonValue::MakeString("Polygon"));
      geometry.emplace("coordinates", PolygonCoords(f.geometry[0]));
    } else {
      geometry.emplace("type", JsonValue::MakeString("MultiPolygon"));
      std::vector<JsonValue> polys;
      for (const geom::Polygon& p : f.geometry) {
        polys.push_back(PolygonCoords(p));
      }
      geometry.emplace("coordinates", JsonValue::MakeArray(std::move(polys)));
    }
    feature.emplace("geometry", JsonValue::MakeObject(std::move(geometry)));
    std::map<std::string, JsonValue> props;
    for (const auto& [key, value] : f.properties) {
      props.emplace(key, JsonValue::MakeString(value));
    }
    feature.emplace("properties", JsonValue::MakeObject(std::move(props)));
    features.push_back(JsonValue::MakeObject(std::move(feature)));
  }
  std::map<std::string, JsonValue> root;
  root.emplace("type", JsonValue::MakeString("FeatureCollection"));
  root.emplace("features", JsonValue::MakeArray(std::move(features)));
  return JsonValue::MakeObject(std::move(root)).Dump();
}

Status WriteGeoJsonFile(const FeatureCollection& fc,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for write");
  out << ToGeoJson(fc);
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace geoalign::io
